"""Link-graph analytics over the crawled page table — the graph ops a
web-scale crawl corpus needs beyond per-page transforms (cf. the original
PageRank paper, Brin & Page 1998; reference link extraction:
J/crawler/PageProcessor.java — here the GRAPH is the subject, not the
fetch).

`page_rank` is the one genuinely ITERATIVE dataset-resident-state op in
the suite: unlike k-means (`ops/ann.py`), whose per-iteration state is k
centroids and therefore broadcastable, PageRank's state is one rank per
node — at the north rule's 10^10-URL frontier that is hundreds of GB, so
the rank vector must live IN the dataset and every iteration is a keyed
join, not a `ray.put`.

Scale shape per iteration (2 keyed hash-exchanges, nothing driver-side):

1. ranks ∪ edges repartitioned on the SOURCE url — a block-local
   searchsorted lookup computes each edge's contribution
   `r(src) // outdeg(src)` and pre-aggregates per (block, dst), so the
   second exchange carries one row per distinct (block, dst), never one
   per edge.
2. contribution partials ∪ node rows (val=0, so sinks keep a row)
   repartitioned on the DESTINATION url — a block-local sum finishes
   `r' = BASE + (DAMP_NUM · Σ contrib) // DAMP_DEN`.

The edge table (src, dst, outdeg) is built once with the same two-exchange
pattern (existence semi-join on dst, outdeg recount on src) and reused
across iterations; each iteration's rank dataset is materialized and
rebuilt via `from_arrow_refs` (scoped-HASH_SHUFFLE context capture).

ALL arithmetic is int64 floor division — no float anywhere — so a fixed
iteration count replays bit-exactly in DuckDB as chained CTEs (full
rows+schema+hash oracle). PR_SCALE=10^9 keeps `DAMP_NUM · Σ contrib`
inside int64 up to ~10^8 nodes; a 10^10-node deployment drops PR_SCALE one
decade (precision is relative, 1e-9 of total mass per unit).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import (hash_partition_count, hash_shuffle, keyed_colocate,
                       remote_kwargs)

PR_SCALE = 10**9              # initial rank per node (fixed-point unit)
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100
PR_BASE = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
PR_ITERS = 3                  # fixed → deterministic → SQL-replayable


def _str_lookup(keys: np.ndarray, values: np.ndarray,
                probes: np.ndarray) -> np.ndarray:
    """values[probes] for string keys via sort + searchsorted (np.unique
    codes — object arrays reject lexsort). Every probe MUST be present."""
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], probes)
    return values[order][pos]


def page_rank(pages_parquet: str, iters: int = PR_ITERS,
              n_partitions: int | None = None):
    """Fixed-point PageRank over the page→page link graph.

    Nodes = page urls; edges = DISTINCT non-self outlinks whose target is
    itself a page (dangling outlinks to unfetched urls are dropped by an
    existence semi-join, exactly like the SQL oracle's inner join).
    Returns (url, rank_scaled) sorted by url, rank in PR_SCALE units.
    """
    import ray

    if n_partitions is None:
        # unlike the single-exchange ops (which use hash_partition_count
        # = cpus/2), the lazy iteration chain runs 2·iters+1 hash-shuffle
        # operators CONCURRENTLY, each with its own aggregator-actor pool:
        # P must be sized so the pools together fit the cluster (measured
        # at 32 cpus / scale 256: P=4 → 15 s, P=16 → 61 s of pure
        # aggregator thrash)
        cpus = int(ray.cluster_resources().get("CPU", 4))
        n_partitions = max(2, min(8, cpus // (2 * iters + 1)))

    def explode(t: pa.Table) -> pa.Table:
        # vectorized flatten + per-batch distinct: object arrays reject
        # np.unique(axis=0), so dedup via per-column integer codes
        import pyarrow.compute as pc
        t = t.combine_chunks()  # parent indices are chunk-local
        col = t.column("outlinks")
        links = (col.chunk(0) if col.num_chunks
                 else pa.array([], pa.list_(pa.string())))
        flat = pc.list_flatten(links).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(links).to_numpy()
        urls = t.column("url").to_numpy(zero_copy_only=False)
        src = urls[parent]
        keep = src != flat
        src, dst = src[keep], flat[keep]
        su, si = np.unique(src, return_inverse=True)
        du, di = np.unique(dst, return_inverse=True)
        _, first = np.unique(si.astype(np.int64) * max(len(du), 1) + di,
                             return_index=True)
        src, dst = src[first], dst[first]
        return pa.table({"key": pa.array(dst, pa.string()),
                         "src": pa.array(src, pa.string()),
                         "side": pa.array([0] * len(src), pa.int8())})

    def node_rows_keyed(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"key": t.column("url"),
                         "src": pa.array([""] * n, pa.string()),
                         "side": pa.array([1] * n, pa.int8())})

    def exists_filter(b: pa.Table) -> pa.Table:
        # keep edges whose dst (the partition key) is a real page
        empty = pa.table({"key": pa.array([], pa.string()),
                          "dst": pa.array([], pa.string())})
        if len(b) == 0:
            return empty
        side = b.column("side").to_numpy()
        keys = b.column("key").to_numpy(zero_copy_only=False)
        pages = np.unique(keys[side == 1])
        em = side == 0
        ok = np.isin(keys[em], pages)
        if not ok.any():
            return empty
        # re-key by src for the outdeg exchange
        return pa.table({"key": b.column("src").to_numpy(
                             zero_copy_only=False)[em][ok],
                         "dst": keys[em][ok]})

    def outdeg_rows(b: pa.Table) -> pa.Table:
        # all edges of a src are co-located: count them (already distinct)
        if len(b) == 0:
            return pa.table({"src": pa.array([], pa.string()),
                             "dst": pa.array([], pa.string()),
                             "outdeg": pa.array([], pa.int64())})
        src = b.column("key").to_numpy(zero_copy_only=False)
        uk, inv, cnt = np.unique(src, return_inverse=True,
                                 return_counts=True)
        return pa.table({"src": b.column("key"),
                         "dst": b.column("dst"),
                         "outdeg": pa.array(cnt[inv].astype(np.int64),
                                            pa.int64())})

    def contrib_partials(b: pa.Table) -> pa.Table:
        empty = pa.table({"key": pa.array([], pa.string()),
                          "val": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        side = b.column("side").to_numpy()
        keys = b.column("key").to_numpy(zero_copy_only=False)
        rm = side == 0
        em = ~rm
        if not em.any():
            return empty
        r = b.column("r").to_numpy()
        deg = b.column("outdeg").to_numpy()
        contrib = _str_lookup(keys[rm], r[rm], keys[em]) // deg[em]
        dst = b.column("dst").to_numpy(zero_copy_only=False)[em]
        ud, dinv = np.unique(dst, return_inverse=True)
        sums = np.zeros(len(ud), dtype=np.int64)
        np.add.at(sums, dinv, contrib)
        return pa.table({"key": pa.array(ud.tolist(), pa.string()),
                         "val": pa.array(sums, pa.int64())})

    def damp_finish(b: pa.Table) -> pa.Table:
        # node rows carry val=0, so zero-indegree pages still get BASE
        if len(b) == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "r": pa.array([], pa.int64())})
        keys = b.column("key").to_numpy(zero_copy_only=False)
        vals = b.column("val").to_numpy()
        uk, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sums, inv, vals)
        r = PR_BASE + (PR_DAMP_NUM * sums) // PR_DAMP_DEN
        return pa.table({"key": pa.array(uk.tolist(), pa.string()),
                         "r": pa.array(r, pa.int64())})

    with hash_shuffle():
        pages = ray.data.read_parquet(pages_parquet,
                                      columns=["url", "outlinks"])
        # --- edge table: existence semi-join (key=dst) → outdeg (key=src)
        edges = (
            pages.map_batches(explode, batch_format="pyarrow",
                              **remote_kwargs())
            .union(pages.map_batches(node_rows_keyed, batch_format="pyarrow",
                                     **remote_kwargs()))
            .repartition(n_partitions, keys=["key"])
            .map_batches(exists_filter, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
            .repartition(n_partitions, keys=["key"])
            .map_batches(outdeg_rows, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
            .materialize()
        )

        def edge_union_rows(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({"key": t.column("src"),
                             "dst": t.column("dst"),
                             "outdeg": t.column("outdeg"),
                             "r": pa.array([0] * n, pa.int64()),
                             "side": pa.array([1] * n, pa.int8())})

        def rank_union_rows(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({"key": t.column("key"),
                             "dst": pa.array([""] * n, pa.string()),
                             "outdeg": pa.array([0] * n, pa.int64()),
                             "r": t.column("r"),
                             "side": pa.array([0] * n, pa.int8())})

        def init_ranks(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({"key": t.column("url"),
                             "r": pa.array([PR_SCALE] * n, pa.int64())})

        def node_val_rows(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({"key": t.column("url"),
                             "val": pa.array([0] * n, pa.int64())})

        # the whole fixed iteration chain stays LAZY — one streaming
        # execution for all iterations, so per-execution startup and the
        # aggregator-actor spin-up are paid once, and iteration k+1's
        # first exchange pipelines behind iteration k's second. (The
        # first, eagerly-materializing version cost 2.5× wall at the
        # bench scale purely in execution fixed costs.)
        ranks = pages.map_batches(init_ranks, batch_format="pyarrow",
                                  **remote_kwargs())
        edge_side = ray.data.from_arrow_refs(
            list(edges.to_arrow_refs())).map_batches(
            edge_union_rows, batch_format="pyarrow", **remote_kwargs())
        for _ in range(iters):
            rank_side = ranks.map_batches(
                rank_union_rows, batch_format="pyarrow", **remote_kwargs())
            partials = (
                rank_side.union(edge_side)
                .repartition(n_partitions, keys=["key"])
                .map_batches(contrib_partials, batch_format="pyarrow",
                             batch_size=None, **remote_kwargs())
            )
            nodes_side = pages.map_batches(
                node_val_rows, batch_format="pyarrow", **remote_kwargs())
            ranks = (
                partials.union(nodes_side)
                .repartition(n_partitions, keys=["key"])
                .map_batches(damp_finish, batch_format="pyarrow",
                             batch_size=None, **remote_kwargs())
            )
        ranks = ranks.materialize()

    def present(t: pa.Table) -> pa.Table:
        return pa.table({"url": t.column("key"),
                         "rank_scaled": t.column("r")})

    return (
        ray.data.from_arrow_refs(list(ranks.to_arrow_refs()))
        .map_batches(present, batch_format="pyarrow", **remote_kwargs())
        .sort("url")
    )


def page_indegree(pages_parquet: str, n_partitions: int | None = None):
    """In-link statistics per page: `in_degree` (distinct linking pages)
    and `n_ref_domains` (distinct linking hosts) — the link-authority
    features a crawl prioritizer or quality filter consumes alongside
    `page_rank`.

    Scale shape: ONE keyed exchange. (src, dst) edge rows are globally
    distinct for free (a page's outlinks live in exactly one input row,
    deduped in-block by `explode`-style codes), so edges ∪ node rows
    repartitioned on the destination url give a block-local segment
    count; node rows double as the existence filter (edges to unfetched
    urls have no node row in their partition and drop), and
    zero-indegree pages keep a row. Hosts are `url.split('/')[2]` —
    byte-identical to the oracle's `split_part(src, '/', 3)`.
    """
    import ray

    if n_partitions is None:
        n_partitions = hash_partition_count()

    def edge_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = t.combine_chunks()
        col = t.column("outlinks")
        links = (col.chunk(0) if col.num_chunks
                 else pa.array([], pa.list_(pa.string())))
        flat = pc.list_flatten(links).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(links).to_numpy()
        urls = t.column("url").to_numpy(zero_copy_only=False)
        src = urls[parent]
        keep = src != flat
        src, dst = src[keep], flat[keep]
        su, si = np.unique(src, return_inverse=True)
        du, di = np.unique(dst, return_inverse=True)
        _, first = np.unique(si.astype(np.int64) * max(len(du), 1) + di,
                             return_index=True)
        src, dst = src[first], dst[first]
        return pa.table({"key": pa.array(dst, pa.string()),
                         "src": pa.array(src, pa.string()),
                         "side": pa.array([0] * len(src), pa.int8())})

    def node_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"key": t.column("url"),
                         "src": pa.array([""] * n, pa.string()),
                         "side": pa.array([1] * n, pa.int8())})

    def count_in(b: pa.Table) -> pa.Table:
        empty = pa.table({"url": pa.array([], pa.string()),
                          "in_degree": pa.array([], pa.int64()),
                          "n_ref_domains": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        side = b.column("side").to_numpy()
        keys = b.column("key").to_numpy(zero_copy_only=False)
        nodes = np.unique(keys[side == 1])
        em = side == 0
        ekeys = keys[em]
        ok = np.isin(ekeys, nodes)  # existence filter: dst must be a page
        ekeys = ekeys[ok]
        src = b.column("src").to_numpy(zero_copy_only=False)[em][ok]
        doms = np.asarray([s.split("/")[2] for s in src], dtype=object)
        uk, kinv = np.unique(ekeys, return_inverse=True)
        indeg = np.bincount(kinv, minlength=len(uk)).astype(np.int64)
        # distinct (dst, domain) pairs → per-dst domain counts
        ud, dinv = np.unique(doms, return_inverse=True) if len(doms) else (
            np.empty(0, object), np.empty(0, np.int64))
        packed = np.unique(kinv.astype(np.int64) * max(len(ud), 1) + dinv)
        ndom = np.bincount(packed // max(len(ud), 1),
                           minlength=len(uk)).astype(np.int64)
        deg = np.zeros(len(nodes), dtype=np.int64)
        nd = np.zeros(len(nodes), dtype=np.int64)
        if len(uk):
            # uk ⊆ nodes and both are np.unique-sorted → scatter via
            # searchsorted (no Python loop)
            pos = np.searchsorted(nodes, uk)
            deg[pos] = indeg
            nd[pos] = ndom
        return pa.table({"url": pa.array(nodes.tolist(), pa.string()),
                         "in_degree": pa.array(deg, pa.int64()),
                         "n_ref_domains": pa.array(nd, pa.int64())})

    def build():
        pages = ray.data.read_parquet(pages_parquet,
                                      columns=["url", "outlinks"])
        return (
            pages.map_batches(edge_rows, batch_format="pyarrow",
                              **remote_kwargs())
            .union(pages.map_batches(node_rows, batch_format="pyarrow",
                                     **remote_kwargs()))
            .repartition(n_partitions, keys=["key"])
            .map_batches(count_in, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )

    return keyed_colocate(build).sort("url")
