"""Checkpoint/table inspector — `python -m dumb_crawler_ray.inspect_cli`.

The rebuild of the reference's WarcViewer (J/WarcViewer.java:20-223): list
what a crawl checkpoint stored, list URLs, dump one stored page's HTML.
Columnar tables replace loose WARC files, so "list files" becomes "list
round fragments" and the url_index lookup becomes a parquet filter.

    python -m dumb_crawler_ray.inspect_cli <ckpt_dir>                # summary
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> urls [round]   # stored URLs
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> page <url_hash> [out.html]
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> failed [round] # failed validations
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> failed-page <url_hash> [out.html]
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> import-warc <warc_file_or_dir> [--config cfg.json]
    python -m dumb_crawler_ray.inspect_cli <ckpt_dir> compact [out_dir]

import-warc hashes urls with the job config's idExtractorPattern, sourced
from --config, else the checkpoint manifest's ``config`` entry, else a
config.json in the checkpoint dir; it ERRORS if none exists (hashing with
a different scheme than the crawl would corrupt the url_hash space).
"""

from __future__ import annotations

import json
import os
import sys

import pyarrow.dataset as pads


def _tbl(ckpt_dir: str, name: str):
    path = os.path.join(ckpt_dir, name)
    if not os.path.isdir(path):
        return None
    return pads.dataset(path, format="parquet")


def summary(ckpt_dir: str) -> None:
    mpath = os.path.join(ckpt_dir, "manifest.json")
    if os.path.exists(mpath):
        m = json.load(open(mpath))
        print(f"committed round : {m['round']}")
        print(f"seed/scale      : {m['seed']}/{m['scale']}  shards: {m['n_shards']}")
        for k in sorted(m["counters"]):
            print(f"  {k:<28} {m['counters'][k]}")
    for name in ("pages", "pages_failed", "images", "frontier_inserts",
                 "frontier_updates", "lineage", "robots"):
        ds = _tbl(ckpt_dir, name)
        if ds is not None:
            print(f"{name:<17} {ds.count_rows()} rows, {len(ds.files)} fragments")


def list_urls(ckpt_dir: str, rnd: int | None) -> None:
    ds = _tbl(ckpt_dir, "pages")
    if ds is None:
        print("no pages table")
        return
    flt = (pads.field("round") == rnd) if rnd is not None else None
    t = ds.to_table(columns=["round", "rank", "url_hash", "url"], filter=flt)
    t = t.sort_by([("round", "ascending"), ("rank", "ascending")])
    for r in t.to_pylist():
        print(f"r{r['round']:>4} #{r['rank']:<5} {r['url_hash']}  {r['url']}")


def list_failed(ckpt_dir: str, rnd: int | None) -> None:
    """Debug-HTML sink view (reference: debug/{errorCode}/{taskId}.html,
    J/services/CrawlingTaskCallable.java:73-84)."""
    ds = _tbl(ckpt_dir, "pages_failed")
    if ds is None:
        print("no pages_failed table")
        return
    flt = (pads.field("round") == rnd) if rnd is not None else None
    t = ds.to_table(columns=["round", "rank", "url_hash", "error_code", "url"],
                    filter=flt)
    t = t.sort_by([("round", "ascending"), ("rank", "ascending")])
    for r in t.to_pylist():
        print(f"r{r['round']:>4} #{r['rank']:<5} {r['error_code']:<36} "
              f"{r['url_hash']}  {r['url']}")


def dump_page(ckpt_dir: str, url_hash: str, out: str | None,
              table: str = "pages") -> int:
    ds = _tbl(ckpt_dir, table)
    if ds is None:
        print(f"no {table} table")
        return 1
    t = ds.to_table(filter=pads.field("url_hash") == url_hash)
    if len(t) == 0:
        print(f"{url_hash}: not stored")
        return 1
    t = t.sort_by([("round", "descending")])  # latest version wins
    html = t.column("html")[0].as_py()
    if out:
        with open(out, "w") as fh:
            fh.write(html)
        print(f"wrote {len(html)} chars to {out}")
    else:
        print(html)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    ckpt = argv[0]
    cmd = argv[1] if len(argv) > 1 else "summary"
    if cmd == "summary":
        summary(ckpt)
    elif cmd == "urls":
        list_urls(ckpt, int(argv[2]) if len(argv) > 2 else None)
    elif cmd == "page":
        return dump_page(ckpt, argv[2], argv[3] if len(argv) > 3 else None)
    elif cmd == "failed":
        list_failed(ckpt, int(argv[2]) if len(argv) > 2 else None)
    elif cmd == "failed-page":
        return dump_page(ckpt, argv[2], argv[3] if len(argv) > 3 else None,
                         table="pages_failed")
    elif cmd == "import-warc":
        from .sources.warc import import_warc

        # config precedence: explicit --config path, then the crawl
        # manifest (the checkpoint's own record of the job config), then a
        # legacy config.json sitting in the checkpoint dir. Without ANY
        # source we ERROR instead of silently md5-hashing urls with a
        # different scheme (idExtractorPattern unset) than the crawl used.
        cfg = None
        if len(argv) > 4 and argv[3] == "--config":
            cfg = json.load(open(argv[4]))
        else:
            mpath = os.path.join(ckpt, "manifest.json")
            if os.path.exists(mpath):
                cfg = json.load(open(mpath)).get("config")
            if cfg is None:
                legacy = os.path.join(ckpt, "config.json")
                if os.path.exists(legacy):
                    cfg = json.load(open(legacy))
        if cfg is None:
            print("error: no job config found (no manifest.json with a "
                  "'config' entry and no config.json in the checkpoint); "
                  "pass one with: import-warc <src> --config <config.json> "
                  "— importing without the crawl's idExtractorPattern "
                  "would produce divergent url_hashes", file=sys.stderr)
            return 2
        n = import_warc(argv[2], ckpt, cfg)
        print(f"imported {n} pages from {argv[2]}")
    elif cmd == "compact":
        import ray

        from .ops.export import compact_pages

        if not ray.is_initialized():
            ray.init(address="local", include_dashboard=False)
        out = argv[2] if len(argv) > 2 else None
        m = compact_pages(ckpt, out_dir=out)
        total = sum(m.column("n_docs").to_pylist())
        print(f"compacted {total} pages into {len(m)} shards")
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:  # piped into head etc.
        raise SystemExit(0)
