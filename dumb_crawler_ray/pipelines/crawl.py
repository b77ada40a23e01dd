"""The BSP crawl round loop on Ray actors (SURVEY.md §3.4/§7).

Per round r:
  1 REFILL   the driver merges the shards' latest offers — each shard's
             top-k in the pinned total order honoring the per-domain
             politeness cap, carried by the reply to its last call — and
             re-applies the cap globally (exactness for salted hot
             domains); no remote call. A picked row's owner is the shard
             that offered it.
  2 FETCH    the selection is rank-sliced over a persistent FetchWorker
             actor pool created once per run, one slice per actor, each
             slice and each reply one Arrow IPC stream buffer —
             render/validate/extract/tag/filter per page; a stored page's
             images are validated as soon as its fetch returns, while the
             slice's later fetches wait on the network; page html +
             validated image rows stream to per-round parquet fragments
             from inside the workers.
  3 APPLY    one message per shard: the rows to mark PROCESSING, their
             fetch outcomes, the stored images, and the candidates
             (flattened in (rank, link_idx) order → first-occurrence per
             url_hash → bloom probe, whose negatives skip the exact lookup
             → hash-routed, IPC-encoded). Each shard applies its message
             in ONE `apply_round` call, exact insert-if-absent included,
             and replies with its next offer. A shard with no message
             keeps its offer: nothing else changes a shard.
  4 COMMIT   counter/lineage deltas, frontier deltas (the round's
             `frontier_updates` rows, in rank order, are also its crawl
             order) and the robots entries the replies carried go to the
             checkpoint; manifest advance (atomic rename) ⇒ exact resume
             at round granularity.

The driver handles only O(batch) control rows per round — selection, small
candidate columns, counters. All heavy payloads stay in the workers. The
round's tables cross actor calls as Arrow IPC `bytes` (`rayutil.to_ipc`),
never as `pa.Table` objects: Ray's per-table Arrow reducer costs more than
a few-row table carries.

Scale levers (100 TB / 10^10-URL design): shard count P, scheduler batch
k, fetch actor pool size, per-domain cap; the by-domain partitioning key is
reused for politeness, robots caching and the seen-set, so no stage needs
a shuffle. Candidates take one path in one form: fetch workers, the seed
path and restore all build a `candidate_table` (state/frontier.py), the
only code that computes a row's hash64 and owning shard; the driver
flattens the replies' `cand` lists in pinned order, dedups
first-occurrence, probes its bloom and routes each shard its slice
(`_insert_candidates` fills the round's `apply_round` messages). A
worker → object store → shard route that kept candidates off the driver
was measured slower at every scale tried (BENCH/STRESS.md) and removed.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import JobConfig
from ..sources.synthweb import domains_for
from ..sources.warc import IMPORT_ROUND
from ..rayutil import from_ipc, remote_kwargs, to_ipc
from ..state.bloom import BloomFilter
from ..state.frontier import (OFFER_SCHEMA, candidate_table,
                              make_frontier_actor)
from ..stages.fetch import FetchWorker
from . import semantics as S


def _groups(sids: np.ndarray):
    """(shard id, row indexes in input order) per shard present in
    ``sids``, shards ascending."""
    order = np.argsort(sids, kind="stable")
    ids, starts = np.unique(sids[order], return_index=True)
    return zip(ids.tolist(), np.split(order, starts[1:]))


@dataclass
class CrawlResult:
    crawl_order: list
    seen_set: dict
    counters: dict
    stored_pages: list
    stored_images: list
    rounds: int
    ckpt_dir: str | None = None
    stop_reason: str = "drained"
    # fetch-attempt count (== len(crawl_order)), kept as a scalar so
    # result_lists=False runs still report true throughput (failures
    # included — PROCESSED_URLS counts successes only)
    n_fetched: int = 0
    # per-status frontier totals; populated on result_lists=False runs in
    # lieu of the per-URL seen_set gather (status int → count)
    status_counts: dict = field(default_factory=dict)


class CrawlPipeline:
    def __init__(
        self,
        fixture_dir: str,
        config,
        seed: int = 42,
        scale: int = 1,
        n_shards: int = 4,
        ckpt_dir: str | None = None,
        fetch_concurrency: int = 2,
        hot_domains=None,
        resume: bool = False,
        fetch_delay_s: float = 0.0,
        fetch_threads: int = 1,
        stop_flag_path: str | None = None,
        result_lists: bool = True,
    ):
        self.fixture_dir = str(fixture_dir)
        self.cfg = config if isinstance(config, JobConfig) else JobConfig(config)
        self.seed = seed
        self.scale = scale
        self.n_shards = n_shards
        self.ckpt_dir = str(ckpt_dir) if ckpt_dir else None
        self.fetch_concurrency = fetch_concurrency
        self.fetch_delay_s = fetch_delay_s
        self.fetch_threads = fetch_threads
        self.hot_domains = frozenset(
            hot_domains if hot_domains is not None else [domains_for(scale)[0]]
        )
        self.comp = S.CrawlComponents(self.cfg)
        self.counters: Counter = Counter()
        self.stats: Counter = Counter()  # engine-internal, not reference counters
        # result_lists=True (tests, small crawls) keeps the ordered
        # crawl_order / stored_* lists in driver memory for the
        # CrawlResult contract; at production scale pass False — identity
        # already lives in the checkpoint (frontier_updates/ pages/ images/)
        # and the driver then holds NO per-URL state at all (membership
        # is on the shards, dedup pre-filter is the bloom).
        self.result_lists = result_lists
        self.crawl_order: list[str] = []
        self.stored_pages: list[str] = []
        self.stored_images: list[str] = []
        self.round = 0
        self.resume = resume
        # external stop request (reference stopCrawling semantics,
        # J/DumbCrawler.java:252-265): when this file appears, finish the
        # in-flight round, commit the checkpoint, and exit gracefully —
        # a later resume=True run continues exactly where we stopped
        self.stop_flag_path = str(stop_flag_path) if stop_flag_path else None
        self.shards = None
        self._fetch_pool = None
        self.robots_pool = None
        # each shard's latest offer (OFFER_SCHEMA), from the reply to its
        # last apply_round / restore_from_ckpt; empty until it offers
        self._offers = [OFFER_SCHEMA.empty_table()] * n_shards
        # owning shard of each selected row, by rank (set by _select)
        self._sel_shard = np.empty(0, dtype=np.int64)
        # (shard, robots entry) rows the round's apply_round replies
        # carried — written to the checkpoint by _ckpt_robots
        self._robots_rows: list[tuple] = []
        # per-round per-shard lineage accumulator (north rule: per-partition
        # lineage records) — flushed to lineage/round=NNNNNN.parquet at commit
        self._lineage_acc: dict[int, dict] = {}
        self._n_fetched = 0
        self._round_wall_ms = 0
        self.bloom = BloomFilter(capacity=max(1 << 14, 64 * 40 * scale), fpp=0.01)
        # domain → absolute wall-clock time the NEXT fetch of that domain
        # may start (politeness schedule; see _select) — only domains with
        # a nonzero delay appear, pruned each round
        self._domain_next_free: dict[str, float] = {}

    # ------------------------------------------------------------- setup

    def _start_shards(self):
        Actor = make_frontier_actor().options(**remote_kwargs())
        # fetcher.mode=http + respect_robots → robots goes through a
        # shared domain-hashed RobotsCacheActor pool (same HttpWeb
        # transport config as fetch): each domain's /robots.txt is
        # fetched from the network ONCE PER CRAWL globally — hot-domain
        # salting spreads a domain's candidates over several shards, and
        # per-shard fetches would both multiply requests and risk
        # DIVERGENT verdicts within one crawl if the server flapped.
        # Leaf actors (they never call shards), so no wait cycles.
        robots_cfg = (self.cfg.raw
                      if self.cfg.respect_robots
                      and self.cfg.fetcher_mode == "http" else None)
        if robots_cfg is not None:
            from ..sources.robots import make_robots_cache_actor

            RobotsActor = make_robots_cache_actor().options(**remote_kwargs())
            # pool sized well below the shard count: one fetch per domain
            # per crawl is cheap; the pool only needs enough actors that
            # first-contact bursts don't serialize behind one mailbox
            self.robots_pool = [
                RobotsActor.remote(robots_cfg)
                for _ in range(max(1, self.n_shards // 8))
            ]
        policy = (self.cfg.scheduler_batch_size,
                  self.cfg.max_per_domain_per_round,
                  self.cfg.max_attempt_count)
        self.shards = [
            Actor.remote(i, self.cfg.respect_robots, policy,
                         robots_pool=self.robots_pool,
                         # production scale (no result lists): terminal
                         # records demote to packed status+attempt —
                         # per-shard RAM stops growing with crawl history
                         compact_terminal=not self.result_lists)
            for i in range(self.n_shards)
        ]

    def _insert_candidates(self, cand: pa.Table, msgs: dict):
        """Dedup (first-occurrence, pinned), bloom probe, route: each
        shard's slice goes into its round message in ``msgs`` (shard id →
        `apply_round` message); `_apply` sends it.

        ``cand``: a `candidate_table` in the pinned candidate order, so
        every row already carries its hash64 and owning shard. All driver
        work here is vectorized (Arrow kernels / pandas dedup / numpy
        routing) — this is on the per-round critical path and must not
        grow with cluster size."""
        import pandas as pd
        import pyarrow.compute as pc

        n = len(cand)
        if n == 0:
            return
        http_mask = pc.starts_with(cand.column("url"), pattern="http")
        n_http = int(pc.sum(http_mask).as_py() or 0)
        self.counters["IGNORED_URLS"] += n - n_http
        if n_http == 0:
            return
        if n_http < n:
            cand = cand.filter(http_mask)
        # first-occurrence-wins per url_hash (input already in pinned order)
        dup = pd.Series(cand.column("url_hash").to_pylist()).duplicated()
        if dup.any():
            cand = cand.filter(pa.array(~dup.to_numpy()))
        h64 = cand.column("hash64").to_numpy()
        maybe_seen = self.bloom.contains_many(h64)
        for sid, idx in _groups(cand.column("shard").to_numpy()):
            msgs.setdefault(sid, {}).update(
                cand=to_ipc(cand.take(pa.array(idx))),
                maybe_seen=maybe_seen[idx])
            self._lineage(sid)["candidates_in"] += len(idx)
        self.bloom.add_many(h64)
        self._ckpt_frontier_inserts(cand)

    def inject_seeds(self):
        seeds = self.cfg.seeds
        if not seeds:
            return
        tags_list, prio, hashes, _a, _na, _ni = self.comp.analyze_urls(seeds)
        msgs: dict[int, dict] = {}
        self._insert_candidates(
            candidate_table(seeds, hashes,
                            [self.comp.domain_of(u) for u in seeds],
                            [[S.SEED_TAG] + t for t in tags_list], prio,
                            self.n_shards, self.hot_domains),
            msgs)
        self._apply(msgs)

    def _apply(self, msgs: dict) -> dict:
        """Send each shard its one `apply_round` message, keep each reply's
        offer and fold the frontier deltas into counters and lineage.
        Returns the replies by shard id (the stored images' was-NEW flags
        live there)."""
        import ray

        sids = sorted(msgs)
        replies = dict(zip(sids, ray.get(
            [self.shards[sid].apply_round.remote(msgs[sid]) for sid in sids])))
        for sid, rep in replies.items():
            self._offers[sid] = from_ipc(rep["offer"])
            self.counters["DISCOVERED_URLS"] += rep["discovered"]
            self.counters["ROBOTS_DENIED_URLS"] += rep["robots_denied"]
            self.stats["SEEN_EXACT_PROBES"] += rep["exact_probes"]
            if "cand" in msgs[sid]:
                lin = self._lineage(sid)
                for k in ("discovered", "robots_denied", "exact_probes"):
                    lin[k] += rep[k]
            # rows carry the deciding shard: hot-domain salting spreads
            # one domain over several shards, each caching its own
            # (possibly conflicting, if the server flapped) decision —
            # restore replays each shard's ACTUAL decision
            self._robots_rows.extend((sid, r) for r in rep["robots"])
        return replies

    # ------------------------------------------------------------ rounds

    def _select(self) -> pa.Table | None:
        """The round's selection, merged from the shards' latest offers
        in the pinned total order (priority DESC, attempt ASC, url_hash
        ASC — `S.selection_sort_key`; Arrow orders strings by UTF-8
        bytes, which is code-point order) with the per-domain cap
        re-applied, plus each row's politeness stamp."""
        k = self.cfg.scheduler_batch_size
        cap = self.cfg.max_per_domain_per_round
        offers = pa.concat_tables(self._offers)
        if len(offers) == 0:
            return None
        offers = offers.sort_by([("priority", "descending"),
                                 ("attempt", "ascending"),
                                 ("url_hash", "ascending")])
        if cap:
            taken_idx: list[int] = []
            per_domain: Counter = Counter()
            for i, dom in enumerate(offers.column("domain").to_pylist()):
                if len(taken_idx) >= k:
                    break
                if per_domain[dom] >= cap:
                    continue
                per_domain[dom] += 1
                taken_idx.append(i)
            sel = offers.take(pa.array(taken_idx, pa.int64()))
        else:
            sel = offers.slice(0, k)
        sel_domains = sel.column("domain").to_pylist()
        delay_ms = sel.column("crawl_delay_ms").to_numpy()
        # the owners get their picks marked PROCESSING in the round's one
        # call (_harvest → _apply); nothing touches a shard before then
        self._sel_shard = sel.column("shard").to_numpy()
        # domain-GLOBAL politeness schedule: one URL of a domain may start
        # per max(config delay, robots Crawl-delay), regardless of which
        # fetch actor the row lands on (chunks are rank-sliced, not
        # domain-affine, so actor-local pacing alone under-spaces by up to
        # the pool width). The driver sees every selected row — including
        # salted hot domains that span shards — so it assigns absolute
        # not-before wall-clock stamps here; per-domain state is O(domains
        # with a nonzero delay) and pruned every round. Pacing shifts WALL
        # CLOCK only, never crawl order (conformance-safe).
        import time as _time

        sel_delay_s = np.maximum(delay_ms / 1000.0,
                                 self.cfg.politeness_delay_ms / 1000.0)
        not_before = np.zeros(len(sel), dtype=np.float64)
        if (sel_delay_s > 0).any():
            now = _time.time()
            nf = self._domain_next_free
            for d in [d for d, t in nf.items() if t <= now]:
                del nf[d]
            for j in range(len(sel)):
                dly = float(sel_delay_s[j])
                if dly <= 0:
                    continue
                dom = sel_domains[j]
                t0 = max(now, nf.get(dom, 0.0))
                not_before[j] = t0
                nf[dom] = t0 + dly
        n = len(sel)
        return (sel.drop_columns(["shard"])
                .add_column(0, "rank", pa.array(np.arange(n), pa.int64()))
                .append_column("round", pa.array(np.full(n, self.round),
                                                 pa.int64()))
                .append_column("not_before_ts", pa.array(not_before,
                                                         pa.float64())))

    def _images_shards(self):
        """Sharded image store (verdict r3 #3): ONE Ray task per row
        group reads the bytes IN A WORKER — the driver touches only the
        parquet footers (id min/max stats) and holds the task return
        refs. Every fetch actor then lazily maps just the shards its
        pages reference, zero-copy from plasma, instead of indexing the
        whole corpus per actor. Returns [(ref, lo_id, hi_id)] or None
        when no local image table exists (http mode)."""
        import ray

        if getattr(self, "_images_shards_cache", None) is None:
            from ..stages.fetch import (_image_store_paths,
                                        _rowgroup_entries,
                                        load_image_rowgroup)

            paths = _image_store_paths(self.fixture_dir)
            if not paths:
                return None
            loader = ray.remote(load_image_rowgroup).options(**remote_kwargs())
            self._images_shards_cache = [
                (loader.remote(p, rg), lo, hi)
                for (p, rg, lo, hi) in _rowgroup_entries(paths)
            ]
        return self._images_shards_cache

    def _worker_kwargs(self) -> dict:
        return {
            "fixture_dir": self.fixture_dir,
            "config_raw": self.cfg.raw,
            "seed": self.seed,
            "scale": self.scale,
            "ckpt_dir": self.ckpt_dir,
            "fetch_delay_s": self.fetch_delay_s,
            "fetch_threads": self.fetch_threads,
            "images_shards": self._images_shards(),
            "proxy_api_key": os.environ.get("ROCKETSCRAPE_API_KEY"),
            "n_shards": self.n_shards,
            "hot_domains": self.hot_domains,
        }

    def _start_fetch_pool(self):
        """The FetchWorker actor pool, created once per run: the BSP
        round loop re-dispatches Arrow slices to it every round, so the
        per-actor setup (web index, compiled config) is paid once per
        crawl, not once per round."""
        import ray

        Actor = ray.remote(FetchWorker).options(**remote_kwargs())
        self._fetch_pool = [Actor.remote(**self._worker_kwargs())
                            for _ in range(self.fetch_concurrency)]

    def _fetch(self, selection: pa.Table) -> pa.Table:
        """Rank-slice the selection over the fetch pool, one call per
        actor (a FetchWorker runs its calls one at a time and overlaps
        RTT over its own fetch threads), and return the per-URL outcomes
        in rank order: the slices are contiguous rank ranges and the
        replies are concatenated in slice order, so no sort is needed.
        Each slice goes out, and each actor's outcomes come back, as one
        Arrow IPC stream buffer."""
        import ray

        pool = self._fetch_pool
        n_chunks = min(len(selection), len(pool)) or 1
        step = -(-len(selection) // n_chunks)
        refs = [
            pool[j].__call__.remote(to_ipc(selection.slice(i, step)))
            for j, i in enumerate(range(0, len(selection), step))
        ]
        return pa.concat_tables([from_ipc(b) for b in ray.get(refs)])

    def _harvest(self, result: pa.Table):
        """Apply fetch outcomes in rank order: counters, storage bookkeeping,
        status completion, candidate extraction — mirrors the oracle loop.
        All shard work of the round is one `_apply`: every row is routed
        once, to the shard `_select` took it from.

        Vectorized throughout (Arrow filters/flatten + numpy masks): the
        only remaining Python loops are over this round's rows. The
        per-page `cand` lists are never expanded into Python row dicts —
        `pc.list_flatten` concatenates them in (rank, link-idx) order,
        which is exactly the pinned candidate order, into one
        `candidate_table`."""
        import pyarrow.compute as pc

        n = len(result)
        maxa = self.cfg.max_attempt_count
        sids = self._sel_shard[result.column("rank").to_numpy()]
        all_hashes = result.column("url_hash").to_pylist()
        msgs = {sid: {"mark": [all_hashes[i] for i in idx]}
                for sid, idx in _groups(sids)}
        allowed = result.column("schedule_allowed").to_numpy(zero_copy_only=False)
        n_allowed = int(allowed.sum())
        self.counters["IGNORED_LINKS"] += n - n_allowed
        self.counters["ALLOWED_LINKS"] += n_allowed
        fr = result.filter(pa.array(allowed))  # rank order preserved
        fr_sids = sids[allowed]
        hashes = fr.column("url_hash").to_pylist()
        errors = fr.column("error").to_pylist()
        attempts = fr.column("attempt").to_numpy() + 1
        err_mask = np.asarray([e is not None for e in errors], dtype=bool)
        status = np.where(err_mask, S.FAILED, S.PROCESSED)
        self._ckpt_updates(fr, status, attempts)
        stored = None
        if n_allowed:
            if self.result_lists:
                self.crawl_order.extend(hashes)
            self._n_fetched += len(hashes)
            self.counters["MAX_ATTEMPT_COUNT_REACHED"] += int(
                (attempts >= maxa).sum()
            )
            if err_mask.any():
                for i in np.flatnonzero(err_mask):
                    self.counters[f"ERROR_{errors[i]}"] += 1
            n_ok = int((~err_mask).sum())
            self.counters["PROCESSED_URLS"] += n_ok
            # link-analysis columns are zero except on success rows
            self.counters["ALLOWED_LINKS"] += int(
                pc.sum(fr.column("n_links_allowed")).as_py() or 0
            )
            self.counters["IGNORED_LINKS"] += int(
                pc.sum(fr.column("n_links_ignored")).as_py() or 0
            )
            n_tml = int(pc.sum(fr.column("too_many_links")).as_py() or 0)
            if n_tml:
                self.counters["TOO_MANY_LINKS_PAGES"] += n_tml
            store_mask = fr.column("store_ok").to_numpy(zero_copy_only=False)
            st_idx = np.flatnonzero(store_mask)
            # a record is completed once per crawl, so every stored page
            # is new (UPDATED_PAGES stays 0)
            self.counters["SAVED_PAGES"] += len(st_idx)
            self.counters["NEW_SAVED_PAGES"] += len(st_idx)
            self.counters["UNSAVED_PAGES"] += n_ok - len(st_idx)
            if len(st_idx):
                if self.result_lists:
                    self.stored_pages.extend(hashes[i] for i in st_idx)
                stored = self._note_stored(
                    fr.column("image_ids").take(pa.array(st_idx)).to_pylist(),
                    msgs)
                n_img_err = int(
                    pc.sum(fr.column("image_errors").take(pa.array(st_idx))).as_py()
                    or 0
                )
                if n_img_err:
                    self.counters["IMAGE_VALIDATION_ERRORS"] += n_img_err
            # status completion for the owning shards, in rank order
            tags = fr.column("tags").to_pylist()
            for sid, idx in _groups(fr_sids):
                msgs[sid]["complete"] = {
                    "url_hash": [hashes[i] for i in idx],
                    "status": status[idx].tolist(),
                    "error": [errors[i] for i in idx],
                    "tags": [tags[i] for i in idx],
                    "attempt": attempts[idx].tolist(),
                }
                lin = self._lineage(sid)
                lin["fetched"] += int(len(idx))
                lin["failed"] += int((status[idx] == S.FAILED).sum())
        # candidates: empty lists on skipped/failed rows make flatten-all
        # exactly the success candidates in pinned order
        flat = pc.list_flatten(result.column("cand"))
        if len(flat):
            self._insert_candidates(pa.Table.from_struct_array(flat), msgs)
        replies = self._apply(msgs)
        if stored is None:
            return
        # each shard's was-NEW flags back into flat image order
        flat_imgs, img_sids = stored
        img_new = np.zeros(len(img_sids), dtype=bool)
        for sid, rep in replies.items():
            img_new[img_sids == sid] = rep["image_new"]
        n_new_img = int(img_new.sum())
        self.counters["SAVED_IMAGES"] += n_new_img
        self.counters["DUP_IMAGE_REFS"] += len(flat_imgs) - n_new_img
        if self.result_lists:
            self.stored_images.extend(
                i for i, f in zip(flat_imgs, img_new) if f)

    def _note_stored(self, img_lists, msgs: dict):
        """Route the images of this round's stored pages (one id list per
        page, in store order) into the owning shards' round messages;
        the was-NEW flags come back in the `apply_round` replies (the
        distributed SAVED-vs-DUP decision — the driver holds no
        cross-round image set and touches only O(round) bools). Each
        image id routes to ONE shard and flat image order is page order,
        so within-round duplicates resolve like the oracle's sequential
        loop. Returns the flat image ids and their shards."""
        from ..state.frontier import image_shard_of_batch

        flat_imgs = [iid for lst in img_lists for iid in lst]
        img_sids = image_shard_of_batch(flat_imgs, self.n_shards)
        for sid, idx in _groups(img_sids):
            msgs.setdefault(sid, {})["images"] = [flat_imgs[i] for i in idx]
        return flat_imgs, img_sids

    # ---------------------------------------------------------- lineage

    def _lineage(self, sid: int) -> dict:
        return self._lineage_acc.setdefault(sid, {
            "candidates_in": 0, "discovered": 0, "robots_denied": 0,
            "exact_probes": 0, "fetched": 0, "failed": 0,
        })

    def _ckpt_lineage(self):
        """One row per frontier shard per round — the per-partition
        lineage/metrics table (north rule); queryable via inspect_cli."""
        if not self.ckpt_dir or not self._lineage_acc:
            self._lineage_acc = {}
            return
        d = self._ckpt_path("lineage")
        os.makedirs(d, exist_ok=True)
        sids = sorted(self._lineage_acc)
        cols = {
            "round": pa.array([self.round] * len(sids), pa.int64()),
            "shard": pa.array(sids, pa.int64()),
        }
        for k in ("candidates_in", "discovered", "robots_denied",
                  "exact_probes", "fetched", "failed"):
            cols[k] = pa.array(
                [self._lineage_acc[s][k] for s in sids], pa.int64()
            )
        cols["wall_ms"] = pa.array(
            [int(self._round_wall_ms)] * len(sids), pa.int64()
        )
        t = pa.table(cols)
        pq.write_table(t, os.path.join(d, f"round={self.round:06d}.parquet"))
        self._lineage_acc = {}

    # -------------------------------------------------------- checkpoint

    def _ckpt_path(self, *parts) -> str:
        return os.path.join(self.ckpt_dir, *parts)

    def _ckpt_frontier_inserts(self, cand: pa.Table):
        if not self.ckpt_dir:
            return
        d = self._ckpt_path("frontier_inserts")
        os.makedirs(d, exist_ok=True)
        pq.write_table(  # one insert batch per round
            cand.select(["url", "url_hash", "domain", "tags", "priority"]),
            os.path.join(d, f"round={self.round:06d}.parquet"))

    def _ckpt_updates(self, fr: pa.Table, status, attempts):
        """The round's fetch outcomes, one row per schedule-allowed URL in
        rank order: each shard's `complete` rows on restore, and, sorted
        by (round, rank), the crawl order — and, where ``stored``, the
        stored-page order (a page is stored at most once per crawl)."""
        if not self.ckpt_dir:
            return
        d = self._ckpt_path("frontier_updates")
        os.makedirs(d, exist_ok=True)
        t = pa.table({
            "round": pa.array(np.full(len(fr), self.round), pa.int64()),
            "rank": fr.column("rank"),
            "url_hash": fr.column("url_hash"),
            "status": pa.array(status, pa.int64()),
            "error": fr.column("error"),
            "tags": fr.column("tags"),
            "attempt": pa.array(attempts, pa.int64()),
            "stored": fr.column("store_ok"),
        })
        pq.write_table(t, os.path.join(d, f"round={self.round:06d}.parquet"))

    def _ckpt_robots(self):
        """Persist newly-cached robots entries per round: robots DECISIONS
        are crawl state — restore replays the original rules rather than
        re-consulting a network whose answers may have changed. The
        entries are the ones this round's `apply_round` replies carried."""
        rows, self._robots_rows = self._robots_rows, []
        if not self.ckpt_dir or not rows:
            return
        d = self._ckpt_path("robots")
        os.makedirs(d, exist_ok=True)
        t = pa.table(
            {"domain": pa.array([r[0] for _, r in rows], pa.string()),
             "prefixes": pa.array([r[1] for _, r in rows],
                                  pa.list_(pa.string())),
             "delay_ms": pa.array([int(r[2] * 1000) for _, r in rows],
                                  pa.int64()),
             "shard": pa.array([sid for sid, _ in rows], pa.int64())})
        pq.write_table(t, os.path.join(d, f"round={self.round:06d}.parquet"))

    def _ckpt_commit(self):
        self._ckpt_lineage()
        self._ckpt_robots()
        if not self.ckpt_dir:
            return
        # O(1)-size manifest (counters + committed round only): crawl and
        # store order live in the per-round frontier_updates table, stored
        # images in images/; image membership lives on the frontier
        # shards. A 10^8-page crawl commits the same few KB every round.
        manifest = {
            "round": self.round,
            "seed": self.seed,
            "scale": self.scale,
            "counters": dict(self.counters),
            "n_shards": self.n_shards,
            # the job config rides in the manifest so checkpoint consumers
            # (inspect_cli import-warc) hash urls with the SAME
            # idExtractorPattern the crawl used — no fixture-dir lookup
            "config": self.cfg.raw,
        }
        tmp = self._ckpt_path("manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, self._ckpt_path("manifest.json"))

    def _ckpt_clean_uncommitted(self, committed_round: int):
        """Drop fragments from rounds after the last committed manifest."""
        from ..state.ckptio import remove_round, round_of

        for sub in ("pages", "images", "pages_failed"):
            base = self._ckpt_path(sub)
            if not os.path.isdir(base):
                continue
            for name in os.listdir(base):
                if name.startswith("round=") and round_of(name) > committed_round:
                    shutil.rmtree(os.path.join(base, name))
        for sub in ("frontier_inserts", "frontier_updates", "lineage",
                    "robots"):
            base = self._ckpt_path(sub)
            if not os.path.isdir(base):
                continue
            for name in os.listdir(base):
                if round_of(name) > committed_round:
                    remove_round(os.path.join(base, name))

    def _ckpt_restore(self) -> bool:
        """Rebuild driver + shard state from the last committed manifest.

        DISTRIBUTED: each frontier shard replays its own keyed partition
        of the delta files in parallel (`FrontierShardState
        .restore_from_ckpt` — inserts through the live path, so robots
        denial and the pinned first-offer-wins rule re-apply exactly) and
        replies with its first offer and its records' hash64; the driver
        rebuilds only its bloom from those arrays and — when
        `result_lists` is on — the ordered result lists from the
        frontier_updates/images tables. One shard call each; restore
        wall-time is O(history / n_shards) per shard, flat in driver
        memory."""
        import ray

        mpath = self._ckpt_path("manifest.json")
        if not os.path.exists(mpath):
            return False
        with open(mpath) as fh:
            manifest = json.load(fh)
        committed = manifest["round"]
        self._ckpt_clean_uncommitted(committed)
        self.counters = Counter(manifest["counters"])
        self.round = committed + 1
        replies = ray.get([
            s.restore_from_ckpt.remote(self.ckpt_dir, self.n_shards,
                                       self.hot_domains)
            for s in self.shards
        ])
        for sid, rep in enumerate(replies):
            self._offers[sid] = from_ipc(rep["offer"])
            self.bloom.add_many(rep["hash64"])
        if self.result_lists:
            self._restore_result_lists()
            self._n_fetched = len(self.crawl_order)
        else:
            from ..state.ckptio import read_round, round_entries

            self._n_fetched = sum(
                read_round(p, columns=["url_hash"]).num_rows
                for _, p in round_entries(self._ckpt_path("frontier_updates")))
        return True

    def _restore_result_lists(self):
        """Ordered crawl_order / stored_pages / stored_images for the
        CrawlResult contract, derived from the checkpoint tables (the
        manifest carries none of them). The `frontier_updates` rows in
        (round, rank) order are the crawl order, and their ``stored``
        rows the store order. Stored images come from the crawl's own
        rounds — WARC imports (IMPORT_ROUND) were never stored by this
        crawl; rows sharing a rank (one page's images) live in one
        fragment, so a STABLE sort preserves their intra-page order."""
        from ..state.ckptio import read_round, round_entries

        self.crawl_order, self.stored_pages = [], []
        for _rnd, path in round_entries(self._ckpt_path("frontier_updates")):
            t = read_round(path, columns=["rank", "url_hash", "stored"]
                           ).sort_by("rank")
            self.crawl_order.extend(t.column("url_hash").to_pylist())
            self.stored_pages.extend(
                t.filter(t.column("stored")).column("url_hash").to_pylist())
        self.stored_images = []
        seen: set = set()
        for _rnd, path in round_entries(self._ckpt_path("images"),
                                        after=IMPORT_ROUND):
            t = read_round(path, columns=["image_id", "rank"])
            order = np.argsort(t.column("rank").to_numpy(), kind="stable")
            for v in np.asarray(t.column("image_id").to_pylist(),
                                dtype=object)[order]:
                if v not in seen:
                    seen.add(v)
                    self.stored_images.append(v)

    # --------------------------------------------------------------- run

    def run(self, max_rounds: int | None = None) -> CrawlResult:
        """Crawl until the frontier drains, ``max_rounds`` rounds ran, a
        stop is requested or the idle timeout fires. The run's actors
        (frontier shards, fetch pool, robots pool) end with it, also when
        it raises."""
        import ray

        try:
            self._start_shards()
            self._start_fetch_pool()  # overlap actor startup with the restore/seed phase
            return self._crawl(max_rounds)
        finally:
            for a in ((self.shards or []) + (self._fetch_pool or [])
                      + (self.robots_pool or [])):
                ray.kill(a)

    def _crawl(self, max_rounds: int | None) -> CrawlResult:
        import ray

        restored = False
        if self.resume and self.ckpt_dir:
            restored = self._ckpt_restore()
        if not restored:
            if self.ckpt_dir:
                # a fresh crawl into a used directory starts clean: the
                # manifest goes first (a crash mid-clean leaves nothing to
                # resume), then every crawl round >= -1; WARC-imported
                # pages (round IMPORT_ROUND) stay; the `order/` table of a
                # checkpoint written before its rows were folded into
                # `frontier_updates` goes too
                os.makedirs(self.ckpt_dir, exist_ok=True)
                mpath = self._ckpt_path("manifest.json")
                if os.path.exists(mpath):
                    os.remove(mpath)
                self._ckpt_clean_uncommitted(IMPORT_ROUND)
                shutil.rmtree(self._ckpt_path("order"), ignore_errors=True)
            # the seed phase commits under its OWN round id (-1) so a crash
            # mid-first-round can never leave uncommitted round-0 fragments
            # that the seed-only manifest would replay (_ckpt_clean_uncommitted
            # removes everything > committed_round, i.e. >= 0)
            self.round = -1
            self.inject_seeds()
            self._ckpt_commit()
            self.round = 0
        rounds_done = 0
        stop_reason = "drained"
        # TaskKiller idle-stop (SURVEY.md ST7): the reference INTENDS to
        # stop when no new page has been stored for `taskKiller.timeout`
        # (its gzip-sink wiring never fires — we implement the intended,
        # config-compatible semantics). Wall-clock based, so it never
        # perturbs the deterministic conformance runs (timeout default
        # 10 min >> any test crawl).
        import time as _time

        idle_timeout_s = self.cfg.task_killer_timeout_ms / 1000.0
        last_new_page_t = _time.monotonic()
        while max_rounds is None or rounds_done < max_rounds:
            if self.stop_flag_path and os.path.exists(self.stop_flag_path):
                # checked BETWEEN rounds: in-flight work has been harvested
                # and committed, so the checkpoint resumes exactly
                stop_reason = "stop_requested"
                self.counters["STOP_REQUESTED"] += 1
                break
            selection = self._select()
            if selection is None:
                break
            prev_new = self.counters["NEW_SAVED_PAGES"]
            _r0 = _time.monotonic()
            result = self._fetch(selection)
            self._harvest(result)
            self._round_wall_ms = (_time.monotonic() - _r0) * 1000
            self._ckpt_commit()
            self.round += 1
            rounds_done += 1
            now = _time.monotonic()
            if self.counters["NEW_SAVED_PAGES"] > prev_new:
                last_new_page_t = now
            elif now - last_new_page_t >= idle_timeout_s:
                stop_reason = "idle_timeout"
                self.counters["IDLE_TIMEOUT_STOP"] += 1
                break
        # the full per-URL seen-set gather is a driver-side materialization
        # of the whole crawl history — only conformance/test runs
        # (result_lists=True) pay it; production runs keep the driver free
        # of per-URL state (the seen set stays queryable via the checkpoint
        # parquet / crawl_seen_set view) and report status_counts instead
        seen: dict[str, tuple] = {}
        status_counts: Counter = Counter()
        if self.result_lists:
            for part in ray.get([s.seen_entries.remote() for s in self.shards]):
                seen.update(part)
        else:
            for part in ray.get([s.status_counts.remote() for s in self.shards]):
                status_counts.update(part)
        return CrawlResult(
            crawl_order=self.crawl_order,
            seen_set={h: tuple(v) for h, v in seen.items()},
            status_counts={int(k): int(v) for k, v in status_counts.items()},
            counters={k: int(v) for k, v in self.counters.items() if v},
            stored_pages=self.stored_pages,
            stored_images=self.stored_images,
            rounds=self.round,
            ckpt_dir=self.ckpt_dir,
            stop_reason=stop_reason,
            n_fetched=self._n_fetched,
        )
