"""Fetch + parse + tag + validate — the crawl's fetch actor stage.

One FetchWorker instance per actor of the pipeline's persistent fetch pool;
construction loads the synthetic web (the sandbox "network", SURVEY.md S3)
and compiles every config-derived operator ONCE (`__init__`), then
`__call__` processes one selection slice. Its input and its output are
each one Arrow IPC stream buffer (`rayutil.to_ipc`), so no `pa.Table`
crosses the actor call:

  input  rows: rank, url_hash, url, domain, attempt, round, not_before_ts
  output rows: rank, url_hash, url, domain, attempt, schedule_allowed,
               error, store_ok, tags (list), image_ids (list),
               image_errors, too_many_links, n_links_allowed,
               n_links_ignored, cand (list<struct>: the page's kept
               candidate links as `candidate_table` rows, hash64 and
               owning frontier shard included)

Heavy payloads (page html, image bytes) are written to the checkpoint
directory *from inside the stage* as per-round parquet fragments — they
never flow back to the driver; only the small scheduling/lineage columns
do. That is the 100 TB-scale contract: the driver handles O(batch) control
rows per round, workers stream the data plane straight to storage
(resumable, partitioned by round).

Reference parity: the whole CrawlingTaskCallable chain (schedule-time
re-tag + re-filter J/DumbCrawler.java:276-279, render S3, blank check,
validate M7, extract M6) plus the north-rule image validation
(decoded-pixel PSNR/caption equality per stored row). As in the
reference, where each task validates its page right after its fetch, a
stored page's images are validated as soon as its outcome arrives, while
the slice's later fetches are still waiting on the network.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import JobConfig
from ..pipelines import semantics as S
from ..rayutil import from_ipc, to_ipc
from ..sources.httpweb import FetchTransportError
from ..sources.synthweb import SynthWeb
from ..state.frontier import candidate_table


PAGES_SCHEMA = pa.schema(
    [
        ("url_hash", pa.string()),
        ("url", pa.string()),
        ("tags", pa.list_(pa.string())),
        ("html", pa.large_string()),
        ("round", pa.int64()),
        ("rank", pa.int64()),
    ]
)

# debug-HTML sink for failed validations (S10): the reference writes raw
# HTML to debug/{errorCode}/{taskId}.html (CrawlingTaskCallable.java:73-84);
# here failed pages land as queryable per-round parquet fragments
FAILED_PAGES_SCHEMA = pa.schema(
    [
        ("url_hash", pa.string()),
        ("url", pa.string()),
        ("error_code", pa.string()),
        ("html", pa.large_string()),
        ("round", pa.int64()),
        ("rank", pa.int64()),
    ]
)

IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.large_binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("page_url_hash", pa.string()),
        ("round", pa.int64()),
        ("rank", pa.int64()),
        ("validation_error", pa.string()),
    ]
)


def _rowgroup_entries(paths: list[str]) -> list[tuple]:
    """(path, rg, lo, hi) per row group from parquet FOOTER metadata only
    — the image_id min/max column statistics. O(files) driver/actor work,
    no data pages touched."""
    out = []
    for p in paths:
        pf = pq.ParquetFile(p)
        md = pf.metadata
        names = [md.row_group(0).column(i).path_in_schema
                 for i in range(md.row_group(0).num_columns)] \
            if md.num_row_groups else []
        ci = names.index("image_id") if "image_id" in names else -1
        for rg in range(md.num_row_groups):
            lo = hi = None
            if ci >= 0:
                st = md.row_group(rg).column(ci).statistics
                if st is not None and st.has_min_max:
                    lo, hi = st.min, st.max
                    if isinstance(lo, bytes):
                        lo, hi = lo.decode(), hi.decode()
            out.append((p, rg, lo, hi))
    return out


def _image_store_paths(fixture_dir: str) -> list[str]:
    """images.parquet may be one file or a sharded directory."""
    root = os.path.join(fixture_dir, "images.parquet")
    if os.path.isdir(root):
        return sorted(os.path.join(root, n) for n in os.listdir(root)
                      if n.endswith(".parquet"))
    return [root] if os.path.exists(root) else []


# what the crawl actually consumes from the image store: validation
# (image_id/bytes/caption) + the stored-image fragment row (IMAGES_SCHEMA
# payload columns). The test fixture carries 14 additional stored-pact
# columns for the registry oracles — a store read that shipped those into
# every broadcast shard would pay object-store space and per-row as_py()
# conversion for columns the crawl never looks at.
IMAGE_STORE_COLUMNS = ["image_id", "bytes", "w", "h", "fmt", "caption",
                       "phash"]

# per-actor cap on materialized image shards (LRU), sized so a bench- or
# scaling-scale store (hundreds of shards) never thrashes: an actor whose
# pages reference the whole corpus holds one id->row index over it
# (tables stay zero-copy in plasma; the cache holds only index dicts +
# column handles)
IMG_SHARD_CACHE_MAX = 4096


def load_image_rowgroup(path: str, rg: int) -> pa.Table:
    """Shard loader for the distributed image store — runs as a Ray task
    (the DRIVER never reads image bytes; workers read their shard and the
    task's return ref IS the broadcast handle). Column-pruned: only the
    payload columns the crawl consumes leave storage."""
    f = pq.ParquetFile(path)
    cols = [c for c in IMAGE_STORE_COLUMNS if c in f.schema_arrow.names]
    return f.read_row_group(rg, columns=cols)


class FetchWorker:
    def __init__(self, fixture_dir: str, config_raw: dict, seed: int, scale: int,
                 ckpt_dir: str | None = None, fetch_delay_s: float = 0.0,
                 images_shards=None, proxy_api_key: str | None = None,
                 fetch_threads: int = 1, n_shards: int = 1,
                 hot_domains: frozenset = frozenset()):
        # n_shards/hot_domains: frontier routing for `candidate_table` —
        # workers build the candidates' hash64 + owning shard (vectorized,
        # in parallel) so the driver's serial insert path never rehashes
        # or re-routes
        self.n_shards = max(1, int(n_shards))
        self.hot_domains = hot_domains
        self.cfg = JobConfig(config_raw)
        self.comp = S.CrawlComponents(self.cfg)
        if proxy_api_key is not None:
            self.comp.proxy_api_key = proxy_api_key
        self.seed = seed
        if self.cfg.fetcher_mode == "http":
            # real-network seam (SimpleHttpRenderer semantics); raises
            # FetchTransportError per fetch in a network-less sandbox
            from ..sources.httpweb import HttpWeb

            self.web = HttpWeb.from_config(self.cfg)
        else:
            with pq.ParquetFile(
                    os.path.join(fixture_dir, "pages.parquet")) as f:
                pages = f.read()
            self.web = SynthWeb(pages, seed, scale)
        # SHARDED image store (verdict r3 #3): ``images_shards`` is a list
        # of range-pruned shard descriptors (ObjectRef, lo, hi) — the
        # pipeline pre-loads row groups via Ray tasks (workers read, the
        # driver holds only refs) with the image_id min/max from parquet
        # FOOTER stats; None when there is no local image store. Per-actor
        # setup is O(shards) metadata, NEVER an O(corpus) id scan; an
        # actor materializes + indexes (zero-copy from plasma) only the
        # shards its pages actually reference, with an LRU on the index
        # dicts.
        entries = list(images_shards or [])
        with_stats = sorted((e for e in entries if e[1] is not None),
                            key=lambda e: e[1])
        self._img_shards = with_stats + [e for e in entries if e[1] is None]
        self._img_los = [e[1] for e in with_stats]
        self._img_his = [e[2] for e in with_stats]
        runmax: list[str] = []
        for h in self._img_his:
            runmax.append(h if not runmax or h > runmax[-1] else runmax[-1])
        self._img_hi_runmax = runmax
        self._n_stat_shards = len(with_stats)
        self._shard_cache: dict[int, dict] = {}  # j -> {"cols", "index"}
        self.ckpt_dir = ckpt_dir
        self.fetch_delay_s = fetch_delay_s
        # politeness pacing (north rule) is the driver's schedule: each
        # selection row carries a domain-global not-before wall-clock
        # stamp (crawl.py _select) encoding max(config delay, robots
        # Crawl-delay) across the whole round and pool, and a fetch waits
        # for its stamp — wall clock only, never crawl ORDER.
        # In-actor fetch threads — the reference's `threadCount` semantics
        # (J/DumbCrawler.java task executor): RTT overlaps WITHIN a worker
        # while outcomes stay deterministic (results re-ordered by input
        # index). 1 = serial (conformance default).
        self.fetch_threads = max(1, int(fetch_threads))
        self._executor = None
        self.round = -1  # set via batch column

    def _cache_shard_table(self, j: int, tbl: pa.Table) -> dict:
        entry = {
            "cols": {c: tbl.column(c) for c in tbl.column_names},
            "index": {iid: i for i, iid in enumerate(
                tbl.column("image_id").to_pylist())},
        }
        if len(self._shard_cache) >= IMG_SHARD_CACHE_MAX:
            self._shard_cache.pop(next(iter(self._shard_cache)))
        self._shard_cache[j] = entry
        return entry

    def _load_shards(self, js: list[int]) -> None:
        """Materialize + index the listed shards (once per actor,
        LRU-capped) in ONE batched zero-copy `ray.get`."""
        import ray

        missing = [j for j in js if j not in self._shard_cache]
        if missing:
            for j, tbl in zip(missing, ray.get([self._img_shards[j][0]
                                                for j in missing])):
                self._cache_shard_table(j, tbl)

    def _candidate_shards(self, iid: str):
        """Interval stabbing over the sorted (lo, hi) shard ranges: with
        sorted disjoint row groups (how the fixtures — and any id-sorted
        store — are written) exactly ONE shard is probed; overlapping or
        stat-less shards degrade gracefully to extra probes."""
        import bisect

        j = bisect.bisect_right(self._img_los, iid) - 1
        while j >= 0 and self._img_hi_runmax[j] >= iid:
            if self._img_his[j] >= iid:
                yield j
            j -= 1
        for j in range(self._n_stat_shards, len(self._img_shards)):
            yield j

    def _image_rows_bulk(self, ids: list[str]) -> dict[str, dict]:
        """Load many image rows from the sharded store: group the needed
        ids per candidate shard, materialize each touched shard once."""
        by_shard: dict[int, list[str]] = {}
        for iid in set(ids):
            for j in self._candidate_shards(iid):
                by_shard.setdefault(j, []).append(iid)
        self._load_shards(list(by_shard))
        out: dict[str, dict] = {}
        for j, members in sorted(by_shard.items()):
            entry = self._shard_cache.get(j)
            if entry is None:  # evicted within this bulk (cap < working set)
                self._load_shards([j])
                entry = self._shard_cache[j]
            cols, index = entry["cols"], entry["index"]
            for iid in members:
                if iid in out:
                    continue
                i = index.get(iid)
                if i is not None:
                    out[iid] = {c: col[i].as_py() for c, col in cols.items()}
        return out

    def __call__(self, slice_ipc: bytes) -> bytes:
        """Process one IPC-encoded selection slice into one IPC-encoded
        table of outcomes whose `cand` column holds each page's kept
        candidate links as `candidate_table` rows. Each stored page's
        images are validated as soon as its fetch returns (pass 1)."""
        batch = from_ipc(slice_ipc)
        urls = batch.column("url").to_pylist()
        ranks = batch.column("rank").to_pylist()
        hashes = batch.column("url_hash").to_pylist()
        attempts = batch.column("attempt").to_pylist()
        rnd = int(batch.column("round")[0].as_py()) if len(batch) else 0
        n = len(urls)

        # schedule-time re-tag + re-filter (vectorized, one call per batch)
        tags_list, _prio, _h, sched_allowed, _na, _ni = self.comp.analyze_urls(urls)

        out = {
            "rank": ranks, "url_hash": hashes, "url": urls, "attempt": attempts,
            "domain": batch.column("domain").to_pylist(),
            "schedule_allowed": [bool(a) for a in sched_allowed],
            "error": [None] * n, "store_ok": [False] * n,
            "tags": [list(t) for t in tags_list],
            "image_ids": [[] for _ in range(n)],
            "n_links_allowed": [0] * n, "n_links_ignored": [0] * n,
            "too_many_links": [False] * n, "image_errors": [0] * n,
        }
        page_rows = []
        image_rows = []
        failed_rows = []

        # pass 1: fetch (overlapped across fetch_threads in-actor threads
        # — RTT/network I/O releases the GIL) + outcome, consumed lazily in
        # input-index order (bit-identical at any thread count); a stored
        # page's images are loaded + validated in this calling thread (the
        # shard cache needs no lock) while later fetches are in flight.
        # not_before: driver-scheduled domain-GLOBAL politeness stamps
        not_before = batch.column("not_before_ts").to_pylist()

        def fetch_one(i: int):
            import time

            url, tags = urls[i], tags_list[i]
            wait = not_before[i] - time.time()
            if wait > 0:
                time.sleep(wait)
            if self.fetch_delay_s:
                time.sleep(self.fetch_delay_s)  # simulated per-URL RTT
            try:
                resp = self.web.fetch(self.comp.fetch_url_for(url, tags))
            except FetchTransportError:
                # reference throws CrawlingException("HTML_RENDERING_ERROR")
                # from the renderer (SimpleHttpRenderer.java:24-26)
                return i, "HTML_RENDERING_ERROR", [], "", []
            error, links, html = self.comp.fetch_outcome(resp, url, tags)
            return i, error, links, html, list(resp.image_ids)

        todo = [i for i in range(n) if sched_allowed[i]]
        if self.fetch_threads > 1 and len(todo) > 1:
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=self.fetch_threads)
            fetched = self._executor.map(fetch_one, todo)
        else:
            fetched = (fetch_one(i) for i in todo)

        page_links: list[tuple[int, list[str]]] = []
        for i, error, links, html, image_ids in fetched:
            if error is not None:
                out["error"][i] = error
                if html:  # validation failures carry the body; persist it
                    failed_rows.append(
                        {"url_hash": hashes[i], "url": urls[i],
                         "error_code": error, "html": html,
                         "round": rnd, "rank": ranks[i]}
                    )
                continue
            if len(links) > 300:  # reference warns at >300 (K2), no truncation
                out["too_many_links"][i] = True
            page_links.append((i, links))
            if not self.comp.should_store(tags_list[i]):
                continue
            out["store_ok"][i] = True
            out["image_ids"][i] = image_ids
            page_rows.append(
                {"url_hash": hashes[i], "url": urls[i], "tags": list(tags_list[i]),
                 "html": html, "round": rnd, "rank": ranks[i]}
            )
            img_rows = self._image_rows_bulk(image_ids)
            for iid in image_ids:
                row = img_rows.get(iid)
                if row is None:
                    continue
                verr = S.validate_image_row(row, self.seed)
                out["image_errors"][i] += verr is not None
                image_rows.append(
                    {**row, "page_url_hash": hashes[i],
                     "round": rnd, "rank": ranks[i], "validation_error": verr}
                )
        # pass 2: ONE vectorized link analysis for the whole batch; the
        # kept links of every page, in (rank, link idx) order, become ONE
        # candidate table, carried per page as the reply's `cand` lists
        flat_links = [l for _, links in page_links for l in links]
        ltags, lprio, lhash, lallow, _na, _ni = self.comp.analyze_urls(flat_links)
        # batch-local first-occurrence dedup (pinned order): the driver
        # re-applies the same rule globally over chunks in rank order, so
        # dropping later duplicates HERE cannot change which occurrence
        # wins — it only shrinks the result transfer and the frontier-shard
        # insert volume (most links repeat within a chunk). Link counters
        # stay pre-dedup (reference counts every allowed/ignored link,
        # dedup happens at insert).
        batch_seen: set = set()
        keep: list[int] = []
        n_kept = [0] * (n + 1)  # n_kept[i + 1]: kept links of row i
        pos = 0
        for i, links in page_links:
            allow = lallow[pos:pos + len(links)]
            n_allow = int(allow.sum())
            out["n_links_allowed"][i] = n_allow
            out["n_links_ignored"][i] = len(links) - n_allow
            for j in np.flatnonzero(allow) + pos:
                if lhash[j] not in batch_seen:
                    batch_seen.add(lhash[j])
                    keep.append(j)
                    n_kept[i + 1] += 1
            pos += len(links)
        cand = candidate_table(
            [flat_links[j] for j in keep], [lhash[j] for j in keep],
            [self.comp.domain_of(flat_links[j]) for j in keep],
            [ltags[j] for j in keep], lprio[keep],
            self.n_shards, self.hot_domains)
        out["cand"] = pa.ListArray.from_arrays(
            pa.array(np.cumsum(n_kept), pa.int32()),
            pa.StructArray.from_arrays(
                [c.combine_chunks() for c in cand.columns],
                fields=list(cand.schema)))
        self._write_fragments(rnd, page_rows, image_rows, failed_rows)
        return to_ipc(_to_arrow(out))

    def _write_fragments(self, rnd: int, page_rows, image_rows,
                         failed_rows=()) -> None:
        if self.ckpt_dir is None:
            return
        part = uuid.uuid4().hex[:12]
        if failed_rows:
            d = os.path.join(self.ckpt_dir, "pages_failed", f"round={rnd}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(
                pa.Table.from_pylist(list(failed_rows), schema=FAILED_PAGES_SCHEMA),
                os.path.join(d, f"part-{part}.parquet"),
            )
        if page_rows:
            d = os.path.join(self.ckpt_dir, "pages", f"round={rnd}")
            os.makedirs(d, exist_ok=True)
            # storage.maxFileSize (WarcStorageManager.java:97-100 rotation):
            # split a batch's pages into fragments under the size budget
            budget = self.cfg.max_file_size_mb * (1 << 20)
            chunk: list[dict] = []
            size = 0
            n_out = 0
            for row in page_rows:
                chunk.append(row)
                size += len(row["html"]) + 256
                if size >= budget:
                    pq.write_table(
                        pa.Table.from_pylist(chunk, schema=PAGES_SCHEMA),
                        os.path.join(d, f"part-{part}-{n_out:03d}.parquet"),
                    )
                    chunk, size = [], 0
                    n_out += 1
            if chunk:
                pq.write_table(
                    pa.Table.from_pylist(chunk, schema=PAGES_SCHEMA),
                    os.path.join(d, f"part-{part}-{n_out:03d}.parquet"),
                )
        if image_rows:
            d = os.path.join(self.ckpt_dir, "images", f"round={rnd}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(
                pa.Table.from_pylist(image_rows, schema=IMAGES_SCHEMA),
                os.path.join(d, f"part-{part}.parquet"),
            )


def _to_arrow(out: dict) -> pa.Table:
    return pa.table({
        "rank": pa.array(out["rank"], pa.int64()),
        "url_hash": pa.array(out["url_hash"], pa.string()),
        "url": pa.array(out["url"], pa.string()),
        "domain": pa.array(out["domain"], pa.string()),
        "attempt": pa.array(out["attempt"], pa.int64()),
        "schedule_allowed": pa.array(out["schedule_allowed"], pa.bool_()),
        "error": pa.array(out["error"], pa.string()),
        "store_ok": pa.array(out["store_ok"], pa.bool_()),
        "tags": pa.array(out["tags"], pa.list_(pa.string())),
        "image_ids": pa.array(out["image_ids"], pa.list_(pa.string())),
        "image_errors": pa.array(out["image_errors"], pa.int64()),
        "too_many_links": pa.array(out["too_many_links"], pa.bool_()),
        "n_links_allowed": pa.array(out["n_links_allowed"], pa.int64()),
        "n_links_ignored": pa.array(out["n_links_ignored"], pa.int64()),
        "cand": out["cand"],
    })
