"""The two crawl workloads, driven through `CrawlPipeline(...).run()` and
checked against `pipelines.oracle.simulate` on the same config and web.

One *unit* is one whole crawl of the workload's web: pipeline
construction, `run()`, and (crawl-polite) a stop after half the oracle's
rounds followed by a fresh `resume=True` pipeline that drains the rest.
The phase clock is the benchmark's own instance-level wrappers; the
package is not modified.
"""

from __future__ import annotations

import copy
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

from . import harness as H

RTT_S = 0.015          # simulated fetch round trip
N_SHARDS = 4
FETCH_ACTORS = 2
FETCH_THREADS = 4
IN_FLIGHT = FETCH_ACTORS * FETCH_THREADS   # sleeping fetch threads
IDEAL_URLS_PER_S = IN_FLIGHT / RTT_S

BULK_OVERRIDES = {  # bench.py's throughput shape: few large rounds
    "scheduler": {"batchSize": 1024},
    "politeness": {"delay_ms": 0, "max_per_domain_per_round": 0},
}

# top-level spans of the round loop; together they must cover first
# select → last commit (crawl.coverage)
LOOP_PHASES = ("_select", "_fetch", "_harvest", "_ckpt_commit")


def config_for(workload: str) -> dict:
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if workload == "crawl-bulk":
        cfg.update(copy.deepcopy(BULK_OVERRIDES))
    return cfg


@dataclass
class Leg:
    """One `run()` of one pipeline."""
    setup_s: float = 0.0          # run() called → first select, restore
                                  # left out (it counts in the crawl wall)
    loop_s: float = 0.0           # first select → last commit
    restore_s: float = 0.0        # _ckpt_restore
    resume_s: float = 0.0         # construction → first select (resumed)
    cpu_s: float = 0.0            # process tree, first select → run() done
    round_ms: list = field(default_factory=list)
    t_first: float | None = None  # first select starts
    t_last: float | None = None   # last commit ends
    candidates_in: int = 0
    exact_probes: int = 0


@dataclass
class Unit:
    legs: list
    result: object                # the CrawlResult of the last leg
    wall_s: float                 # crawl wall, all legs (+ restore)
    spans: H.Spans | None = None
    ckpt_bytes: int = 0
    ckpt_files: int = 0


def _instrument(p, leg: Leg, spans: H.Spans | None, t_built: float,
                resumed: bool) -> dict:
    import ray

    st = {"round_t0": None}

    def before_select():
        if leg.t_first is None:
            # actor spawn belongs to set-up, not to the first round; waited
            # for once, before the crawl clock starts
            ray.get([a.__ray_ready__.remote()
                     for a in p.shards + (p._fetch_pool or [])])
            st["cpu0"] = H.tree_cpu_s()
            leg.t_first = time.perf_counter()
            leg.setup_s = leg.t_first - st["run0"] - leg.restore_s
            if resumed:
                leg.resume_s = leg.t_first - t_built
        st["round_t0"] = time.perf_counter()

    def before_commit():
        for lin in p._lineage_acc.values():
            leg.candidates_in += lin["candidates_in"]

    def after_commit():
        if st["round_t0"] is not None:  # not the seed commit
            leg.t_last = time.perf_counter()
            leg.round_ms.append(1000.0 * (leg.t_last - st["round_t0"]))

    def restore_t0():
        st["restore0"] = time.perf_counter()

    def restore_t1():
        leg.restore_s = time.perf_counter() - st["restore0"]

    H.wrap_method(p, "_select", before=before_select, spans=spans)
    H.wrap_method(p, "_ckpt_commit", before=before_commit,
                  after=after_commit, spans=spans)
    H.wrap_method(p, "_ckpt_restore", before=restore_t0, after=restore_t1,
                  spans=spans)
    if spans is not None:
        for name in ("_fetch", "_harvest", "_insert_candidates",
                     "_note_stored", "inject_seeds"):
            H.wrap_method(p, name, spans=spans)
    return st


def _run_leg(fixture: str, cfg: dict, seed: int, scale: int,
             ckpt: str | None, resume: bool, max_rounds: int | None,
             spans: H.Spans | None):
    import ray

    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline

    leg = Leg()
    t_built = time.perf_counter()
    p = CrawlPipeline(fixture, cfg, seed=seed, scale=scale,
                      n_shards=N_SHARDS, ckpt_dir=ckpt, resume=resume,
                      fetch_concurrency=FETCH_ACTORS,
                      fetch_delay_s=RTT_S, fetch_threads=FETCH_THREADS)
    st = _instrument(p, leg, spans, t_built, resume)
    try:
        st["run0"] = time.perf_counter()
        result = p.run(max_rounds=max_rounds)
        leg.cpu_s = H.tree_cpu_s() - st["cpu0"]
        if leg.t_last is not None:  # None: a resume with nothing left
            leg.loop_s = leg.t_last - leg.t_first
    finally:
        # CrawlPipeline.run() leaves its shard and fetch actors alive
        # (known defect); the harness ends them so units do not pile up
        # worker processes on the host
        for a in (p.shards or []) + (p._fetch_pool or []):
            ray.kill(a)
    leg.exact_probes = int(p.stats["SEEN_EXACT_PROBES"])
    return leg, result


def run_unit(workload: str, fixture: str, seed: int, scale: int,
             stop_round: int | None, traced: bool, ckpt: str) -> Unit:
    cfg = config_for(workload)
    spans = H.Spans() if traced else None
    if workload == "crawl-bulk":
        leg, result = _run_leg(fixture, cfg, seed, scale, None, False, None,
                               spans)
        return Unit([leg], result, leg.loop_s, spans)
    shutil.rmtree(ckpt, ignore_errors=True)
    try:
        leg1, _ = _run_leg(fixture, cfg, seed, scale, ckpt, False,
                           stop_round, spans)
        leg2, result = _run_leg(fixture, cfg, seed, scale, ckpt, True, None,
                                spans)
        files = [os.path.join(d, f) for d, _, fs in os.walk(ckpt)
                 for f in fs]
        nbytes = sum(os.path.getsize(f) for f in files)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    wall = leg1.loop_s + leg2.restore_s + leg2.loop_s
    return Unit([leg1, leg2], result, wall, spans, nbytes, len(files))


def matches_oracle(result, oracle) -> bool:
    """The crawl's order and seen set equal the oracle's, bit for bit."""
    return (list(result.crawl_order) == list(oracle.crawl_order)
            and dict(result.seen_set) == dict(oracle.seen_set))


def reference(workload: str, fixture: str, seed: int, scale: int):
    """The single-threaded oracle run of the same crawl (no RTT), and its
    wall time."""
    import pyarrow.parquet as pq

    from dumb_crawler_ray.pipelines.oracle import simulate
    from dumb_crawler_ray.sources.synthweb import SynthWeb

    web = SynthWeb(pq.read_table(os.path.join(fixture, "pages.parquet")),
                   seed, scale)
    t0 = time.perf_counter()
    oracle = simulate(config_for(workload), web)
    return oracle, time.perf_counter() - t0, web


# ------------------------------------------------------------ per layer

def unit_layers(u: Unit) -> dict:
    """Per-layer numbers of one traced unit."""
    sp = u.spans
    c = Counter(u.result.counters)
    n_urls = len(u.result.crawl_order)
    cand = sum(leg.candidates_in for leg in u.legs)
    probes = sum(leg.exact_probes for leg in u.legs)
    fetch_ms = sp.total_ms("_fetch")
    loop_ms = 1000.0 * sum(leg.loop_s for leg in u.legs)
    covered = sum(sp.top_level_ms(LOOP_PHASES, leg.t_first, leg.t_last)
                  for leg in u.legs if leg.t_last is not None)
    rounds = [r for leg in u.legs for r in leg.round_ms]
    return {
        "crawl.select_ms": sp.total_ms("_select"),
        "crawl.fetch_ms": fetch_ms,
        "crawl.harvest_self_ms": (sp.total_ms("_harvest")
                                  - sp.total_ms(under="_harvest")),
        "crawl.insert_ms": sp.total_ms("_insert_candidates", "_harvest"),
        "crawl.note_stored_ms": sp.total_ms("_note_stored"),
        "crawl.commit_ms": sp.total_ms("_ckpt_commit"),
        "crawl.restore_ms": sp.total_ms("_ckpt_restore"),
        "crawl.seed_ms": sp.total_ms("inject_seeds"),
        "crawl.rounds": len(rounds),
        "crawl.coverage": covered / loop_ms if loop_ms else 0.0,
        "crawl.round_ms_p50": H.median(rounds),
        "crawl.resume_s": sum(leg.resume_s for leg in u.legs),
        "fetch.urls": n_urls,
        "fetch.pages_stored": c["SAVED_PAGES"],
        "fetch.images_validated": c["SAVED_IMAGES"] + c["DUP_IMAGE_REFS"],
        "fetch.errors": sum(v for k, v in c.items()
                            if k.startswith("ERROR_")),
        "fetch.ms_per_url": fetch_ms / n_urls if n_urls else 0.0,
        "fetch.over_floor_ms": fetch_ms - 1000.0 * n_urls * RTT_S / IN_FLIGHT,
        "frontier.candidates_in": cand,
        "frontier.discovered": c["DISCOVERED_URLS"],
        "frontier.robots_denied": c["ROBOTS_DENIED_URLS"],
        "frontier.dedup_yield": c["DISCOVERED_URLS"] / cand if cand else 0.0,
        "seen.exact_probes": probes,
        "seen.bloom_pass_frac": probes / cand if cand else 0.0,
        "ckpt.bytes": u.ckpt_bytes,
        "ckpt.files": u.ckpt_files,
    }


def kernel_layers(fixture: str, web, workload: str, seed: int) -> dict:
    """Hot kernels replayed in-process over the workload's own pages, URL
    ids and images; each is repeated until it has run for ~0.2 s."""
    import numpy as np
    import pyarrow.parquet as pq

    from dumb_crawler_ray.functions.links import extract_links
    from dumb_crawler_ray.functions.urlhash import UrlHasher, hash64_batch
    from dumb_crawler_ray.pipelines.semantics import validate_image_row
    from dumb_crawler_ray.state.bloom import BloomFilter
    from dumb_crawler_ray.state.cuckoo import CuckooFilter

    def per_item(fn, n_items: int) -> float:
        reps, t0 = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            dt = time.perf_counter() - t0
            if dt >= 0.2:
                return dt / (reps * n_items)

    urls = pq.read_table(os.path.join(fixture, "pages.parquet"),
                         columns=["url"]).column("url").to_pylist()
    pages = [(u, web.fetch(u).html) for u in urls]
    pages = [(u, h) for u, h in pages if h]
    ids = np.asarray(UrlHasher(config_for(workload)["idExtractorPattern"])
                     .hash_batch(urls), dtype=object)
    h64 = hash64_batch(ids)
    bloom = BloomFilter(capacity=max(1 << 14, 4 * len(h64)), fpp=0.01)
    bloom.add_many(h64[::2])
    img = pq.read_table(os.path.join(fixture, "images.parquet"),
                        columns=["image_id", "bytes", "caption"])
    rows = img.slice(0, 256).to_pylist()

    def links():
        for u, h in pages:
            extract_links(h, u)

    def cuckoo():
        CuckooFilter(2 * len(h64)).add_many(h64)

    def validate():
        for r in rows:
            if validate_image_row(r, seed) is not None:
                raise RuntimeError(f"image {r['image_id']} failed validation")

    return {
        "kernel.extract_links_us_per_page": 1e6 * per_item(links, len(pages)),
        "kernel.hash64_ns_per_url": 1e9 * per_item(lambda: hash64_batch(ids),
                                                   len(ids)),
        "kernel.bloom_contains_ns": 1e9 * per_item(
            lambda: bloom.contains_many(h64), len(h64)),
        "kernel.cuckoo_add_ns": 1e9 * per_item(cuckoo, len(h64)),
        "kernel.image_validate_us": 1e6 * per_item(validate, len(rows)),
    }
