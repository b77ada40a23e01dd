"""Crawl job entry point — `python -m dumb_crawler_ray.run` (the rebuild
of `DumbCrawlerApplication.main --jobId=X`, J/DumbCrawlerApplication.java:
25-41), also the payload for `ray job submit` on a real cluster:

    ray job submit -- python -m dumb_crawler_ray.run \
        --fixture /data/fix --ckpt /data/ckpt --resume

Reads the reference-compatible config.json from the fixture dir (or
--config), sizes the fetch pool from config threadCount unless
--concurrency is given, runs the BSP round loop to completion and prints
ONE JSON summary line. Ray is auto-initialised if no cluster is attached
(guarded — never re-inits inside an existing session).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m dumb_crawler_ray.run")
    ap.add_argument("--fixture", required=True,
                    help="fixture dir (synthetic web + images + config.json)")
    ap.add_argument("--config", default=None,
                    help="config.json path (default: <fixture>/config.json)")
    ap.add_argument("--ckpt", default=None, help="checkpoint dir (enables resume)")
    ap.add_argument("--resume", action="store_true",
                    help="resume from the last committed round in --ckpt")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--shards", type=int, default=8)
    ap.add_argument("--concurrency", type=int, default=None,
                    help="fetch actors (default: config threadCount)")
    ap.add_argument("--max-rounds", type=int, default=None)
    ap.add_argument("--rtt-ms", type=float, default=0.0,
                    help="simulated fetch RTT per URL")
    ap.add_argument("--fetch-threads", type=int, default=1,
                    help="in-actor fetch threads (reference threadCount "
                         "semantics; outcomes identical at any value)")
    ap.add_argument("--stop-flag", default=None,
                    help="path checked between rounds: when the file "
                         "appears, finish in-flight work, commit, exit "
                         "(reference stopCrawling semantics)")
    ap.add_argument("--no-result-lists", action="store_true",
                    help="production scale: keep NO per-URL driver state "
                         "(crawl order / stored lists live only in the "
                         "checkpoint tables)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, log_to_driver=False)
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from .config import JobConfig
    from .pipelines.crawl import CrawlPipeline

    cfg_path = args.config or f"{args.fixture}/config.json"
    cfg = JobConfig(json.load(open(cfg_path)))
    conc = args.concurrency if args.concurrency is not None else max(
        2, cfg.thread_count
    )
    t0 = time.time()
    res = CrawlPipeline(
        args.fixture, cfg, seed=args.seed, scale=args.scale,
        n_shards=args.shards, ckpt_dir=args.ckpt, resume=args.resume,
        fetch_concurrency=conc, fetch_delay_s=args.rtt_ms / 1000.0,
        fetch_threads=args.fetch_threads, stop_flag_path=args.stop_flag,
        result_lists=not args.no_result_lists,
    ).run(max_rounds=args.max_rounds)
    wall = time.time() - t0
    n_urls = res.n_fetched  # attempt count — identical with or without
    # --no-result-lists (PROCESSED_URLS would exclude failures)
    print(json.dumps({
        "urls_fetched": n_urls,
        "rounds": res.rounds,
        "stop_reason": res.stop_reason,
        "wall_s": round(wall, 2),
        "urls_per_sec": round(n_urls / wall, 1) if wall else 0,
        "counters": res.counters,
        "ckpt_dir": res.ckpt_dir,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
