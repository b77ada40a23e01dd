#!/usr/bin/env python3
"""The repo benchmark: two oracle-checked crawl workloads, plus the text
dedup chain in the traced run.

    python3 perfbench/run.py --workload crawl-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Inputs are generated from --seed and
cached under .bench_cache/. Work units repeat until --seconds have been
measured. With --trace 0 every end-to-end metric is measured with the
phase clock only; with --trace 1 untraced and traced units alternate and
the per-layer metrics come from the traced ones (spans are written to
.bench_cache/traces/); the crawl-bulk traced run also times the ops dedup
chain once. Every metric is printed as `name value unit`; the last line
of stdout is one JSON object with the outcome of the oracle checks and
the metrics of the chosen mode. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.ops import CHAIN  # noqa: E402  (needs ROOT on sys.path)

WORKLOADS = ("crawl-bulk", "crawl-polite")
# synthweb scale of each crawl, and the document count of the ops chain
SIZES = {
    "full": {"crawl-bulk": 16, "crawl-polite": 8, "docs": 500},
    "smoke": {"crawl-bulk": 2, "crawl-polite": 2, "docs": 100},
}
# a run that outlives this after its inputs exist is killed (the contract
# allows 180 s)
WATCHDOG_S = 165.0

END_TO_END = {
    "items_per_s": "1/s",
    "cpu_s_per_kitem": "s",
    "driver_peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"crawl.{k}_ms": "ms" for k in (
        "select", "fetch", "harvest_self", "insert", "note_stored",
        "commit", "restore", "seed")},
    "crawl.rounds": "count",
    "crawl.coverage": "ratio",
    "crawl.round_ms_p50": "ms",
    "crawl.resume_s": "s",
    "crawl.frac_ideal": "ratio",
    "crawl.vs_serial": "ratio",
    "fetch.urls": "count",
    "fetch.pages_stored": "count",
    "fetch.images_validated": "count",
    "fetch.errors": "count",
    "fetch.ms_per_url": "ms",
    "fetch.over_floor_ms": "ms",
    "frontier.candidates_in": "count",
    "frontier.discovered": "count",
    "frontier.robots_denied": "count",
    "frontier.dedup_yield": "ratio",
    "seen.exact_probes": "count",
    "seen.bloom_pass_frac": "ratio",
    "ckpt.bytes": "bytes",
    "ckpt.files": "count",
    "kernel.extract_links_us_per_page": "us",
    "kernel.hash64_ns_per_url": "ns",
    "kernel.bloom_contains_ns": "ns",
    "kernel.cuckoo_add_ns": "ns",
    "kernel.image_validate_us": "us",
    **{f"ops.{op}_s": "s" for op in CHAIN},
    **{f"ops.{op}_rows": "count" for op in CHAIN},
    "ops.wall_s": "s",
    "oracle.serial_s": "s",
    "setup.ray_init_s": "s",
    "trace.overhead_frac": "ratio",
}


def _units_until(seconds: float, trace: bool, run_one) -> int:
    """Call run_one(traced) until `seconds` have passed; at least once, and
    in a traced run at least one untraced and one traced unit. Returns the
    number of calls."""
    t0, k = time.perf_counter(), 0
    while k == 0 or (trace and k < 2) or time.perf_counter() - t0 < seconds:
        run_one(trace and k % 2 == 1)
        k += 1
    return k


def _measure_crawl(workload, fixture, docs, seed, scale, seconds, trace):
    from perfbench import crawl as C
    from perfbench import harness as H
    from perfbench import ops as O

    oracle, serial_s, web = C.reference(workload, fixture, seed, scale)
    stop = max(1, oracle.rounds // 2) if workload == "crawl-polite" else None
    ckpt = os.path.join(H.CACHE, f"ckpt-{os.getpid()}")
    units, errors = [], []

    def run_one(traced):
        try:
            units.append(C.run_unit(workload, fixture, seed, scale, stop,
                                    traced, ckpt))
        except Exception:  # counted in `failed`; the run goes on
            errors.append(traceback.format_exc())

    ray_s = H.ray_start()
    try:
        attempted = _units_until(seconds, trace, run_one)
        rss = H.driver_peak_rss_mb()
        chain = O.traced_chain(docs, errors) if docs else None
    finally:
        H.ray_stop()
    ok = [u for u in units if C.matches_oracle(u.result, oracle)]
    failed = attempted - len(ok)
    ops_layers = {}
    if docs:
        n_ok, ops_layers = O.check_chain(docs, chain)
        attempted += len(O.CHAIN)
        failed += len(O.CHAIN) - n_ok
    # each end-to-end figure is a median over the run's untraced units
    plain = [u for u in ok if u.spans is None]
    urls = sum(len(u.result.crawl_order) for u in plain)
    rounds = [r for u in plain for leg in u.legs for r in leg.round_ms]
    rate = H.median([len(u.result.crawl_order) / u.wall_s for u in plain])
    e2e = {
        "items_per_s": rate,
        "cpu_s_per_kitem": H.median([
            sum(leg.cpu_s for leg in u.legs)
            / (len(u.result.crawl_order) / 1000.0) for u in plain]),
        "driver_peak_rss_mb": rss,
        "setup_s": H.median([sum(leg.setup_s for leg in u.legs)
                             for u in plain]),
    }
    notes = {
        "crawl_urls_per_s": (rate, "URL/s"),
        "crawl_frac_ideal": (rate / C.IDEAL_URLS_PER_S, "ratio"),
        "round_ms_p50": (H.median(rounds), "ms"),
        "cpu_s_per_kurl": (e2e["cpu_s_per_kitem"], "CPU-s"),
        "urls_per_crawl": (urls / len(plain) if plain else 0, "count"),
        "units": (len(plain), "count"),
        "ray_init_s": (ray_s, "s"),
    }
    q = H.tail_percentile(len(rounds))
    if q:
        notes[f"round_ms_p{q}"] = (H.percentile(rounds, q), "ms")
    notes["rounds_sampled"] = (len(rounds), "count")
    if workload == "crawl-polite":
        notes["resume_s"] = (H.median([u.legs[1].resume_s for u in plain]),
                             "s")
        notes["ckpt_kib"] = (H.median([u.ckpt_bytes for u in plain]) / 1024,
                             "KiB")
    layers, traces = {}, []
    traced = [u for u in ok if u.spans is not None]
    if trace and traced and plain:
        per_unit = [C.unit_layers(u) for u in traced]
        layers = {k: H.median([d[k] for d in per_unit]) for k in per_unit[0]}
        layers.update(C.kernel_layers(fixture, web, workload, seed))
        walls = [u.wall_s for u in plain]
        layers["crawl.frac_ideal"] = rate / C.IDEAL_URLS_PER_S
        layers["oracle.serial_s"] = serial_s
        layers["setup.ray_init_s"] = ray_s
        layers["crawl.vs_serial"] = serial_s / H.median(walls)
        layers["trace.overhead_frac"] = (
            H.median([u.wall_s for u in traced]) / H.median(walls) - 1.0)
        traces = [u.spans.rows for u in traced]
    if ops_layers:
        layers.update(ops_layers)
        traces.append({"ops_wall_s": chain["wall_s"],
                       "ds_stats": chain["stats"]})
    return attempted, failed, errors, e2e, notes, layers, traces


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run one workload; returns the result object of the last stdout
    line plus the human-readable notes and the trace payload."""
    from perfbench import harness as H
    from perfbench import inputs

    n = SIZES[size][workload]
    fixture = inputs.ensure("synthweb", seed, n)
    docs = (inputs.ensure("docs", seed, SIZES[size]["docs"])
            if trace and workload == "crawl-bulk" else None)
    dog = H.Watchdog(WATCHDOG_S)
    try:
        out = _measure_crawl(workload, fixture, docs, seed, n, seconds, trace)
    finally:
        dog.cancel()
    attempted, failed, errors, e2e, notes, layers, traces = out
    if trace:
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(e2e[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    notes["failed_frac"] = (failed / attempted, "ratio")
    return {
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "notes": notes, "errors": errors, "traces": traces,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "dumb_crawler_ray",
                                       "__init__.py")):
        print(f"perfbench: no dumb_crawler_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    from perfbench import harness as H

    H.adopt_orphans()
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    finally:
        H.stop_all()
    for err in out["errors"]:
        print(err, file=sys.stderr)
    if out["traces"]:
        from perfbench.harness import CACHE

        path = os.path.join(CACHE, "traces",
                            f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(out["traces"], fh)
        print(f"perfbench: spans written to {path}", file=sys.stderr)
    res = out["result"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"oracle checks {res['attempted'] - res['failed']}/"
          f"{res['attempted']} passed")
    for name, (value, unit) in out["notes"].items():
        print(f"{name} {value:.6g} {unit}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
