"""The text dedup chain `dedup_exact` → `minhash_near_dup_pairs` →
`jaccard_clusters` → `doc_curation_full`, called through the query
registry over the seed's generated documents table, each output
hash-compared against its registry DuckDB oracle SQL. It runs once in
the crawl-bulk traced run, after the crawl units, and gives the ops.*
per-layer metrics; it bypasses the crawl entirely."""

from __future__ import annotations

import hashlib
import time
import traceback

CHAIN = ("dedup_exact", "minhash_near_dup_pairs", "jaccard_clusters",
         "doc_curation_full")


def registry() -> dict:
    from dumb_crawler_ray.ops.registry import build_registry

    reg = build_registry()
    return {name: reg[name] for name in CHAIN}


def _import_ops(batch):
    import dumb_crawler_ray.ops.registry  # noqa: F401  (all op modules)

    return batch


def warm_up() -> None:
    """Start the Ray task workers a Ray Data job needs and import the ops
    modules in them, so the timed chain does not pay for it."""
    import ray

    ray.data.range(64, override_num_blocks=8).map_batches(
        _import_ops, batch_format="pyarrow").materialize()


def frame_digest(df) -> str:
    """Order-insensitive digest of a result table: columns sorted by
    name, rows sorted by every column, ints widened, strings as str."""
    import numpy as np

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def traced_chain(docs_dir: str, errors: list) -> dict | None:
    """One pass of the chain after a worker warm-up, each output consumed
    inside its timing. Returns per-op wall seconds, digests, row counts
    and the `ds.stats()` operator table of every op that returns a
    Dataset; None (traceback appended to `errors`) if an op raised."""
    import pyarrow as pa

    out = {"wall_s": {}, "digest": {}, "rows": {}, "stats": {}}
    try:
        reg = registry()
        warm_up()
        for name, (fn, _sql) in reg.items():
            t0 = time.perf_counter()
            res = fn(docs_dir)
            df = res.to_pandas()  # pa.Table or ray.data.Dataset
            out["wall_s"][name] = time.perf_counter() - t0
            out["rows"][name] = len(df)
            out["digest"][name] = frame_digest(df)
            if not isinstance(res, pa.Table):
                out["stats"][name] = res.stats()
    except Exception:  # counted in `failed`; the run goes on
        errors.append(traceback.format_exc())
        return None
    return out


def check_chain(docs_dir: str, chain: dict | None) -> tuple[int, dict]:
    """(number of outputs equal to their DuckDB oracle, ops.* metrics)."""
    import duckdb

    if chain is None:
        return 0, {}
    con = duckdb.connect()
    try:
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{docs_dir}/documents.parquet')")
        n_ok = sum(frame_digest(con.execute(sql).df()) == chain["digest"][name]
                   for name, (_fn, sql) in registry().items())
    finally:
        con.close()
    layers = {"ops.wall_s": sum(chain["wall_s"].values())}
    for name in CHAIN:
        layers[f"ops.{name}_s"] = chain["wall_s"][name]
        layers[f"ops.{name}_rows"] = chain["rows"][name]
    return n_ok, layers
