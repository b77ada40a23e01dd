"""Checkpoint per-round layout helpers (state/ckptio.py): a round is one
`round=N.parquet` file or a `round=N/part-*.parquet` directory, and both
must replay identically in round order."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dumb_crawler_ray.state.ckptio import (read_round, remove_round,
                                           round_entries, round_of)


def _rows(n: int, off: int = 0) -> pa.Table:
    return pa.table({
        "url_hash": pa.array([f"h{i}" for i in range(off, off + n)],
                             pa.string()),
        "priority": pa.array(list(range(off, off + n)), pa.int64()),
    })


def test_single_file_and_part_directory_read_back_the_same_rows(tmp_path):
    t = _rows(7)
    single = tmp_path / "round=000003.parquet"
    pq.write_table(t, single)
    parts = tmp_path / "round=000004"
    parts.mkdir()
    pq.write_table(t.slice(0, 4), parts / "part-a.parquet")
    pq.write_table(t.slice(4), parts / "part-b.parquet")
    (parts / "_SUCCESS").write_text("")  # non-parquet entries are ignored
    assert read_round(str(single)).equals(t)
    assert read_round(str(parts)).equals(t)
    only = read_round(str(parts), columns=["url_hash"])
    assert only.column_names == ["url_hash"]
    assert only.column("url_hash").to_pylist() == \
        t.column("url_hash").to_pylist()


def test_round_entries_order_is_numeric_with_seed_round_first(tmp_path):
    # the seed phase commits as round -1 (f"{-1:06d}" == "-00001");
    # worker fragment dirs are unpadded, so "round=9" must sort before
    # "round=000010" although it is lexically after it
    names = {"round=000010.parquet": 10, "round=9": 9,
             "round=000000.parquet": 0, f"round={-1:06d}.parquet": -1}
    for name in names:
        if name.endswith(".parquet"):
            pq.write_table(_rows(1), tmp_path / name)
        else:
            (tmp_path / name).mkdir()
            pq.write_table(_rows(1), tmp_path / name / "part-0.parquet")
    (tmp_path / "manifest.json").write_text("{}")  # not a round entry
    got = round_entries(str(tmp_path))
    assert [r for r, _ in got] == [-1, 0, 9, 10]
    assert [round_of(p.rsplit("/", 1)[1]) for _, p in got] == [-1, 0, 9, 10]
    assert round_entries(str(tmp_path / "missing")) == []
    for _, p in got:
        remove_round(p)
    assert round_entries(str(tmp_path)) == []


def test_read_fails_on_a_missing_column_and_names_it(tmp_path):
    # ParquetFile.read(columns=...) alone would return only the columns
    # the file has; a checkpoint read must fail there, naming the file
    single = tmp_path / "round=000001.parquet"
    pq.write_table(_rows(3), single)
    parts = tmp_path / "round=000002"
    parts.mkdir()
    pq.write_table(_rows(2), parts / "part-a.parquet")
    for path, bad in ((single, single), (parts, parts / "part-a.parquet")):
        with pytest.raises(ValueError) as ex:
            read_round(str(path), columns=["url_hash", "rank"])
        assert str(bad) in str(ex.value) and "'rank'" in str(ex.value)
        assert "url_hash'" not in str(ex.value)
