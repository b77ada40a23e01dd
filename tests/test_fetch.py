"""FetchWorker outcomes: the reply and the page/image fragments do not
depend on the in-actor fetch thread count, and a stored image that fails
the payload invariant is counted once per stored-page reference without
touching the crawl order or the seen set."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from dumb_crawler_ray.config import JobConfig
from dumb_crawler_ray.pipelines import oracle
from dumb_crawler_ray.pipelines import semantics as S
from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
from dumb_crawler_ray.rayutil import from_ipc, to_ipc
from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, SynthWeb
from dumb_crawler_ray.stages.fetch import (FetchWorker, _image_store_paths,
                                           _rowgroup_entries,
                                           load_image_rowgroup)


def _fragment_rows(ckpt, sub):
    """Every row of `sub`'s fragments, rounds and part files in name
    order (one FetchWorker call writes one round)."""
    base = os.path.join(ckpt, sub)
    tables = [pq.read_table(os.path.join(base, r, f))
              for r in sorted(os.listdir(base))
              for f in sorted(os.listdir(os.path.join(base, r)))]
    return pa.concat_tables(tables).to_pylist()


def test_fetch_output_does_not_depend_on_thread_count(ray_session,
                                                      small_fixture_dir,
                                                      tmp_path):
    import ray

    fix = small_fixture_dir
    with pq.ParquetFile(os.path.join(fix, "pages.parquet")) as f:
        urls = f.read(columns=["url"]).column("url").to_pylist()
    comp = S.CrawlComponents(JobConfig(DEFAULT_CONFIG))
    n = len(urls)
    sel = to_ipc(pa.table({
        "rank": pa.array(range(n), pa.int64()),
        "url_hash": pa.array(comp.analyze_urls(urls)[2], pa.string()),
        "url": pa.array(urls, pa.string()),
        "domain": pa.array([comp.domain_of(u) for u in urls]),
        "attempt": pa.array([0] * n, pa.int64()),
        "round": pa.array([0] * n, pa.int64()),
        "not_before_ts": pa.array([0.0] * n, pa.float64())}))
    shards = [(ray.put(load_image_rowgroup(p, rg)), lo, hi)
              for p, rg, lo, hi in _rowgroup_entries(_image_store_paths(fix))]

    def run(threads):
        ckpt = str(tmp_path / f"t{threads}")
        w = FetchWorker(fix, DEFAULT_CONFIG, seed=42, scale=1, ckpt_dir=ckpt,
                        images_shards=shards, fetch_threads=threads)
        return from_ipc(w(sel)), ckpt

    serial, ckpt1 = run(1)
    threaded, ckpt4 = run(4)
    assert serial.equals(threaded)
    stored = serial.filter(serial.column("store_ok"))
    assert pc.sum(pc.list_value_length(stored.column("image_ids"))).as_py()
    for sub in ("pages", "images", "pages_failed"):
        rows = _fragment_rows(ckpt1, sub)
        assert rows and rows == _fragment_rows(ckpt4, sub)


def test_image_validation_errors_are_counted(ray_session, small_fixture_dir,
                                             tmp_path):
    orc = oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 1))
    bad_bytes, bad_caption = orc.stored_images[:2]

    fix = tmp_path / "fx"
    shutil.copytree(small_fixture_dir, fix)
    for path in _image_store_paths(str(fix)):
        t = pq.read_table(path)
        ids = t.column("image_id").to_pylist()
        if bad_bytes not in ids and bad_caption not in ids:
            continue
        cols = t.to_pydict()
        for i, iid in enumerate(ids):
            if iid == bad_bytes:
                cols["bytes"][i] = b"\x00garbage"
            elif iid == bad_caption:
                cols["caption"][i] += " (edited)"
        pq.write_table(pa.table(cols, schema=t.schema), path,
                       row_group_size=256)

    # every stored-page reference to a corrupt id is one error row
    with pq.ParquetFile(fix / "pages.parquet") as f:
        pages = f.read(columns=["url", "image_refs"]).to_pydict()
    comp = S.CrawlComponents(JobConfig(DEFAULT_CONFIG))
    refs = dict(zip(comp.analyze_urls(pages["url"])[2], pages["image_refs"]))
    want = sum(iid in (bad_bytes, bad_caption)
               for h in orc.stored_pages for iid in refs[h])

    ckpt = str(tmp_path / "ckpt")
    res = CrawlPipeline(str(fix), DEFAULT_CONFIG, seed=42, scale=1,
                        n_shards=2, fetch_concurrency=2, fetch_threads=4,
                        ckpt_dir=ckpt).run()
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    counters = dict(res.counters)
    assert counters.pop("IMAGE_VALIDATION_ERRORS") == want
    assert counters == orc.counters
    errors = [(r["image_id"], r["validation_error"])
              for r in _fragment_rows(ckpt, "images")
              if r["validation_error"] is not None]
    assert len(errors) == want
    assert {iid for iid, _ in errors} == {bad_bytes, bad_caption}
    for iid, err in errors:
        if iid == bad_bytes:
            assert err.startswith("DECODE_ERROR: ")
        else:
            assert err == "CAPTION_MISMATCH"
