"""Checkpoint delta-file layout helpers.

Checkpoint tables are per-round: either ONE file `round=NNNNNN.parquet`
(the driver's frontier deltas `frontier_inserts`, `frontier_updates`,
`order`, plus `lineage` and `robots`) or a DIRECTORY
`round=N/part-*.parquet` (the fetch workers' `pages`, `images` and
`pages_failed` fragments; checkpoints written by older versions may also
hold `frontier_inserts` rounds in this layout). Both layouts read back the
same rows: within a round every url_hash appears at most once
(post-dedup), so part order inside a round is immaterial; ROUND order is
the replay order and is what these helpers pin down.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def round_of(name: str) -> int:
    """`round=NNNNNN[.parquet]` → NNNNNN (negative rounds — the seed
    phase commits under -1 — parse fine)."""
    return int(name.split("=", 1)[1].split(".", 1)[0])


def round_entries(base: str, after: int | None = None) -> list[tuple[int, str]]:
    """(round, path) for every per-round file or directory under `base`
    (only rounds > `after` when given), sorted by round."""
    if not os.path.isdir(base):
        return []
    out = [(round_of(n), os.path.join(base, n)) for n in os.listdir(base)
           if n.startswith("round=")]
    if after is not None:
        out = [e for e in out if e[0] > after]
    out.sort()
    return out


def _read_file(path: str, columns=None) -> pa.Table:
    # ParquetFile, not pq.read_table: read_table builds a ParquetDataset
    # per file, and its first call in a fresh process imports
    # pyarrow.dataset (~0.3 CPU-s on a 1-vCPU VM) — on resume every new
    # shard would pay that before replaying a few hundred small files
    with pq.ParquetFile(path) as f:
        return f.read(columns=columns)


def read_round(path: str, columns=None) -> pa.Table:
    """One round's delta rows — a single file or a part directory."""
    if os.path.isdir(path):
        parts = sorted(os.path.join(path, n) for n in os.listdir(path)
                       if n.endswith(".parquet"))
        return pa.concat_tables([_read_file(p, columns) for p in parts])
    return _read_file(path, columns)


def remove_round(path: str) -> None:
    import shutil

    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        os.remove(path)
