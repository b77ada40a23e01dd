"""Checkpoint/resume: kill after round r, resume, final state must be
bit-identical to an uninterrupted run (SURVEY.md §5.4 — mirrors the
reference's orphan-reset semantics, URLStore.java:54-58)."""

import logging
import os

import pyarrow.parquet as pq
import pytest

from dumb_crawler_ray.pipelines import oracle
from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, SynthWeb, write_fixture

logging.getLogger("ray.data").setLevel(logging.ERROR)


@pytest.fixture(scope="module")
def fix4(tmp_path_factory):
    return str(write_fixture(tmp_path_factory.mktemp("fxr") / "sf4", seed=42, scale=4))


def _read_rounds(base):
    tables = []
    if not os.path.isdir(base):
        return tables
    for name in sorted(os.listdir(base)):
        d = os.path.join(base, name)
        for f in sorted(os.listdir(d)):
            tables.append(pq.read_table(os.path.join(d, f)))
    return tables


def test_resume_equals_uninterrupted(ray_session, fix4, tmp_path):
    import pyarrow as pa

    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)

    full_ckpt = tmp_path / "ckpt_full"
    res_full = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(full_ckpt),
    ).run()
    assert res_full.crawl_order == orc.crawl_order

    part_ckpt = tmp_path / "ckpt_part"
    res_part = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(part_ckpt),
    ).run(max_rounds=3)
    assert len(res_part.crawl_order) < len(orc.crawl_order)

    res_resumed = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(part_ckpt), resume=True,
    ).run()
    assert res_resumed.crawl_order == orc.crawl_order
    assert res_resumed.seen_set == orc.seen_set
    assert res_resumed.counters == orc.counters
    assert res_resumed.stored_pages == orc.stored_pages
    assert res_resumed.stored_images == orc.stored_images

    # checkpoint commit is O(round), not O(history): the manifest carries
    # counters + round only — no per-URL lists — so its size is constant
    # in crawl length (the full crawl stored hundreds of pages; a manifest
    # embedding them would be tens of KB)
    import json

    m_full = json.loads((full_ckpt / "manifest.json").read_text())
    assert "stored_pages" not in m_full and "stored_images" not in m_full
    assert os.path.getsize(full_ckpt / "manifest.json") < 4096

    # the data plane checkpoint agrees with the logical result
    pages = pa.concat_tables(_read_rounds(str(part_ckpt / "pages")))
    assert set(pages.column("url_hash").to_pylist()) == set(orc.stored_pages)
    images = pa.concat_tables(_read_rounds(str(part_ckpt / "images")))
    assert set(images.column("image_id").to_pylist()) >= set(orc.stored_images)
    assert images.column("validation_error").null_count == len(images)

    # image payload invariant holds for what landed on disk
    from dumb_crawler_ray.pipelines.semantics import validate_image_row

    for row in images.slice(0, 5).to_pylist():
        assert validate_image_row(row, 42) is None


def test_resume_with_different_shard_count(ray_session, fix4, tmp_path):
    """Shard count is soft state — a resume may rebalance partitions."""
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    ckpt = tmp_path / "ckpt_reshard"
    CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt),
    ).run(max_rounds=2)
    res = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=7,
        fetch_concurrency=3, ckpt_dir=str(ckpt), resume=True,
    ).run()
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set


def test_resume_after_crash_mid_first_round(ray_session, fix4, tmp_path):
    """Crash AFTER round-0 fragments are written but BEFORE the round-0
    manifest commit: the seed phase commits under its own round id (-1),
    so restore must discard the uncommitted round-0 fragments and replay
    to exactly the oracle state (regression: seeds and round 0 used to
    share manifest round 0, leaking half-written round-0 state into the
    resume)."""
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    ckpt = tmp_path / "ckpt_crash0"

    class CrashBeforeFirstCommit(CrawlPipeline):
        def _ckpt_commit(self):
            if self.round >= 0:
                raise RuntimeError("simulated crash before round-0 commit")
            super()._ckpt_commit()

    with pytest.raises(RuntimeError, match="simulated crash"):
        CrashBeforeFirstCommit(
            fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
            fetch_concurrency=2, ckpt_dir=str(ckpt),
        ).run()
    # uncommitted round-0 fragments exist on disk next to the seed manifest
    assert os.path.exists(ckpt / "frontier_updates" / "round=000000.parquet")
    import json

    with open(ckpt / "manifest.json") as fh:
        assert json.load(fh)["round"] == -1

    res = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt), resume=True,
    ).run()
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    assert res.counters == orc.counters
    assert res.stored_pages == orc.stored_pages


@pytest.mark.parametrize("result_lists", [True, False])
def test_resume_counts_fetches_from_the_manifest(ray_session, fix4, tmp_path,
                                                 monkeypatch, result_lists):
    """A stopped-and-resumed crawl reports the oracle's fetch count, failed
    fetches included: the restore takes it from the manifest counters
    (each schedule-allowed fetch counts once in PROCESSED_URLS or one
    ERROR_<code>), so a result_lists=False resume reads no
    `frontier_updates` file on the driver."""
    from dumb_crawler_ray.state import ckptio

    orc = oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 4))
    assert any(k.startswith("ERROR_") for k in orc.counters)
    kw = dict(seed=42, scale=4, n_shards=4, fetch_concurrency=2,
              ckpt_dir=str(tmp_path / "ckpt"), result_lists=result_lists)
    first = CrawlPipeline(fix4, DEFAULT_CONFIG, **kw).run(max_rounds=3)
    assert 0 < first.n_fetched < len(orc.crawl_order)
    read = ckptio.read_round
    driver_reads = []
    monkeypatch.setattr(ckptio, "read_round", lambda path, **k: (
        driver_reads.append(path) or read(path, **k)))
    res = CrawlPipeline(fix4, DEFAULT_CONFIG, resume=True, **kw).run()
    assert res.n_fetched == len(orc.crawl_order)
    assert res.counters == orc.counters
    if not result_lists:
        assert driver_reads == []


def test_resume_without_pages_dir(ray_session, fix4, tmp_path):
    """A resume derives crawl_order and stored_pages from
    `frontier_updates` alone: with the checkpoint's `pages/` deleted
    after the stop, the resumed crawl still gives the oracle's stored
    pages, crawl order and counters."""
    import shutil

    orc = oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 4))
    ckpt = tmp_path / "ckpt_nopages"

    def crawl(**kw):
        return CrawlPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4,
                             n_shards=4, fetch_concurrency=2,
                             ckpt_dir=str(ckpt), **kw)

    stopped = crawl().run(max_rounds=3)
    assert stopped.stored_pages
    shutil.rmtree(ckpt / "pages")
    res = crawl(resume=True).run()
    assert res.stored_pages == orc.stored_pages
    assert res.crawl_order == orc.crawl_order
    assert res.counters == orc.counters
    assert res.seen_set == orc.seen_set


def test_fresh_run_into_used_ckpt_dir_starts_clean(ray_session, fix4,
                                                   tmp_path):
    """A run without resume into a directory an earlier crawl used leaves
    the fragment and lineage-row counts of ONE crawl (the earlier crawl's
    uuid-named fragments and lineage rows are gone), keeps WARC-imported
    pages (round IMPORT_ROUND), and a resume of it matches the oracle."""
    import pyarrow as pa

    from dumb_crawler_ray.sources.warc import (IMPORT_ROUND, import_warc,
                                               write_warc)

    ckpt = tmp_path / "ckpt_reused"
    (tmp_path / "warc").mkdir()
    write_warc([("https://site.test/x-1", "<html>x</html>")],
               str(tmp_path / "warc" / "a.warc"))
    assert import_warc(str(tmp_path / "warc"), str(ckpt)) == 1
    imported = ckpt / "pages" / f"round={IMPORT_ROUND}"
    import_files = sorted(os.listdir(imported))

    def footprint():
        out = {}
        for sub in ("pages", "images", "pages_failed"):
            base = ckpt / sub
            out[sub] = sum(len(os.listdir(base / n))
                           for n in os.listdir(base)
                           if n != f"round={IMPORT_ROUND}")
        lineage = [pq.read_table(ckpt / "lineage" / n)
                   for n in os.listdir(ckpt / "lineage")]
        out["lineage_rows"] = pa.concat_tables(lineage).num_rows
        return out

    def crawl(**kw):
        return CrawlPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4,
                             n_shards=2, fetch_concurrency=2,
                             ckpt_dir=str(ckpt), **kw)

    crawl().run(max_rounds=3)
    once = footprint()
    assert once["pages"] > 0 and once["lineage_rows"] > 0
    crawl().run(max_rounds=3)
    assert footprint() == once
    assert sorted(os.listdir(imported)) == import_files

    orc = oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 4))
    res = crawl(resume=True).run()
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    assert res.counters == orc.counters
    assert res.stored_images == orc.stored_images
    assert res.stored_pages == orc.stored_pages


def test_pre_fold_checkpoint_fails_at_read_and_fresh_run_drops_order(
        ray_session, fix4, tmp_path):
    """A checkpoint written before the crawl order was folded into
    `frontier_updates` (no `rank` column there, an `order/` table beside
    it): a `result_lists=True` resume fails at the checkpoint read that
    misses `rank`, a `result_lists=False` resume leaves `order/` as it
    is, and a fresh run into the directory removes it."""
    ckpt = tmp_path / "ckpt_prefold"

    def crawl(**kw):
        return CrawlPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4,
                             n_shards=2, fetch_concurrency=2,
                             ckpt_dir=str(ckpt), **kw)

    crawl().run(max_rounds=2)
    updates, order = ckpt / "frontier_updates", ckpt / "order"
    order.mkdir()
    for name in os.listdir(updates):
        t = pq.read_table(updates / name)
        pq.write_table(t.select(["rank", "url_hash"]), order / name)
        pq.write_table(t.drop_columns(["rank"]), updates / name)
    order_files = sorted(os.listdir(order))

    with pytest.raises(ValueError, match=r"frontier_updates.*\['rank'\]"):
        crawl(resume=True).run(max_rounds=1)
    crawl(resume=True, result_lists=False).run(max_rounds=1)
    assert sorted(os.listdir(order)) == order_files
    crawl().run(max_rounds=1)
    assert not order.exists()


def test_resume_does_not_count_warc_imports_as_stored(ray_session, fix4,
                                                      tmp_path):
    """A WARC-imported page (round IMPORT_ROUND) that the crawl discovers
    before a stop and fetches after it counts as NEW_SAVED_PAGES on the
    resumed crawl, like on the uninterrupted one: restore reads stored
    membership and `stored_pages` from crawl rounds only."""
    from dumb_crawler_ray.config import JobConfig
    from dumb_crawler_ray.sources.warc import import_warc, write_warc

    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    stop = 2
    early = oracle.OracleSimulator(JobConfig(DEFAULT_CONFIG), web)
    early.run(max_rounds=stop)
    h = next(h for h in orc.stored_pages
             if h in early.store and h not in early.crawl_order)
    ckpt = tmp_path / "ckpt_import"
    (tmp_path / "warc").mkdir()
    write_warc([(early.store[h].url, "<html>imported</html>")],
               str(tmp_path / "warc" / "a.warc"))
    assert import_warc(str(tmp_path / "warc"), str(ckpt),
                       DEFAULT_CONFIG) == 1

    def crawl(**kw):
        return CrawlPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4,
                             n_shards=2, fetch_concurrency=2,
                             ckpt_dir=str(ckpt), **kw)

    stopped = crawl().run(max_rounds=stop)
    assert h in stopped.seen_set and h not in stopped.crawl_order
    res = crawl(resume=True).run()
    assert res.counters == orc.counters
    assert res.stored_pages == orc.stored_pages
    assert res.seen_set == orc.seen_set


def test_run_releases_its_actors(ray_session, fix4, tmp_path):
    """run() ends the frontier shards and the fetch pool it started, both
    when it returns and when it raises (here: a crash before the round-0
    commit); a saved handle then raises RayActorError."""
    import ray
    from ray.exceptions import RayActorError

    class CrashBeforeFirstCommit(CrawlPipeline):
        def _ckpt_commit(self):
            if self.round >= 0:
                raise RuntimeError("simulated crash before round-0 commit")
            super()._ckpt_commit()

    done = CrawlPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=2,
                         fetch_concurrency=2)
    done.run(max_rounds=1)
    crashed = CrashBeforeFirstCommit(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=2,
        fetch_concurrency=2, ckpt_dir=str(tmp_path / "ckpt"))
    with pytest.raises(RuntimeError, match="simulated crash"):
        crashed.run()
    for pipe in (done, crashed):
        handles = pipe.shards + pipe._fetch_pool
        assert len(handles) == 4
        for a in handles:
            with pytest.raises(RayActorError):
                ray.get(a.__ray_ready__.remote(), timeout=60)


def test_pages_failed_debug_sink(ray_session, fix4, tmp_path):
    """S10: validation-failed pages persist their raw HTML + error code as
    checkpoint fragments (reference writes debug/{errorCode}/{taskId}.html,
    CrawlingTaskCallable.java:73-84), queryable via inspect_cli."""
    import io
    from contextlib import redirect_stdout

    import pyarrow as pa

    from dumb_crawler_ray import inspect_cli

    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    want = {h for h, v in orc.seen_set.items()
            if v[2] and v[2].startswith("CONTENT_VALIDATION")}
    assert want  # fixture plants invalid articles

    ckpt = tmp_path / "ckpt_failed"
    CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt),
    ).run()
    frags = _read_rounds(str(ckpt / "pages_failed"))
    assert frags
    failed = pa.concat_tables(frags)
    assert set(failed.column("url_hash").to_pylist()) == want
    assert all(e.startswith("CONTENT_VALIDATION_ERROR_")
               for e in failed.column("error_code").to_pylist())
    # the persisted body is the real (validation-failing) page html
    for html in failed.column("html").to_pylist():
        assert html and "article-body" not in html

    # inspect_cli surfaces the sink
    buf = io.StringIO()
    with redirect_stdout(buf):
        inspect_cli.list_failed(str(ckpt), None)
    assert "CONTENT_VALIDATION_ERROR_article" in buf.getvalue()
    one = failed.column("url_hash")[0].as_py()
    out_html = tmp_path / "dbg.html"
    with redirect_stdout(io.StringIO()):
        rc = inspect_cli.dump_page(str(ckpt), one, str(out_html),
                                   table="pages_failed")
    assert rc == 0 and out_html.read_text()


def test_resume_with_fetch_threads(ray_session, fix4, tmp_path):
    """Kill/resume with in-actor fetch threads enabled: checkpoint commit
    points are round-granular regardless of intra-round concurrency, so
    resume must still be bit-identical."""
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    ckpt = tmp_path / "ckpt_threads"
    CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, fetch_threads=4, ckpt_dir=str(ckpt),
    ).run(max_rounds=3)
    res = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, fetch_threads=4, ckpt_dir=str(ckpt), resume=True,
    ).run()
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    assert res.counters == orc.counters


def test_stop_request_drains_and_resumes_exactly(ray_session, fix4, tmp_path):
    """External stop request (reference stopCrawling semantics): flipping
    the stop flag mid-crawl finishes the in-flight round, commits, and
    exits with stop_reason="stop_requested"; resuming without the flag
    completes to the exact uninterrupted final state."""
    import threading
    import time

    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)

    ckpt = tmp_path / "ckpt_stop"
    flag = tmp_path / "stop.flag"

    def flip_after_first_commit():
        order_dir = ckpt / "frontier_updates"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if order_dir.is_dir() and any(
                n.startswith("round=000000") for n in os.listdir(order_dir)
            ):
                flag.touch()
                return
            time.sleep(0.02)

    watcher = threading.Thread(target=flip_after_first_commit, daemon=True)
    watcher.start()
    res_stopped = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt), stop_flag_path=str(flag),
    ).run()
    watcher.join(timeout=60)
    assert res_stopped.stop_reason == "stop_requested"
    assert res_stopped.counters["STOP_REQUESTED"] == 1
    assert 0 < len(res_stopped.crawl_order) < len(orc.crawl_order)

    # flag still present -> an immediate re-run stops before any new round
    res_noop = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt), resume=True,
        stop_flag_path=str(flag),
    ).run()
    assert res_noop.stop_reason == "stop_requested"
    assert res_noop.crawl_order == res_stopped.crawl_order

    flag.unlink()
    res_resumed = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, ckpt_dir=str(ckpt), resume=True,
        stop_flag_path=str(flag),
    ).run()
    assert res_resumed.stop_reason in ("drained", "idle_timeout")
    assert res_resumed.crawl_order == orc.crawl_order
    assert res_resumed.seen_set == orc.seen_set
    # counters: the stopped run's STOP_REQUESTED marks are session-local
    resumed = {k: v for k, v in res_resumed.counters.items()
               if k != "STOP_REQUESTED"}
    assert resumed == orc.counters
