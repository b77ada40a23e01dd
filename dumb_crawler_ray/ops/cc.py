"""Connected components over a verified near-dup pair set — the keep-list
finisher shared by `dedup.near_dup_clusters` and `multimodal.image_keeplist`.

Two paths behind one size gate (`component_reps`):

- **union-find on the driver** (default): the verified pair set is tiny
  relative to the corpus (near-dups only), so a driver-side union-find with
  min-id representatives is the fastest exact answer.
- **min-label propagation** (scale path, `pairs > CC_DRIVER_PAIR_LIMIT`):
  labels start as each node's own id and every round each node takes the
  min of its neighbors' labels —
  `label(v) <- min(label(v), min_{u~v} label(u))` — converging to the
  component-min id in at most graph-diameter rounds (near-dup clusters are
  dense, so few). Each round is TWO keyed hash repartitions (attach labels
  to edge endpoints by co-location, then per-node min) — no Dataset.join
  (Ray's hash join cannot finalize empty partitions), no driver state
  beyond the per-round changed counter.

Both paths produce identical (node, rep) assignments — asserted by the
equivalence test in tests/test_ops.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import hash_partition_count, hash_shuffle, remote_kwargs

CC_DRIVER_PAIR_LIMIT = 2_000_000
_MAX_ITERS = 100


def components_unionfind(pair_batches) -> dict:
    """Driver-side union-find with min-id representatives. `pair_batches`
    is an iterable of pyarrow Tables with columns `a`, `b`. Returns
    {node: representative} for every node that appears in a pair."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in pair_batches:
        for a, b in zip(t.column("a").to_pylist(), t.column("b").to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
    return {m: find(m) for m in parent}


def _min_label_propagation(pairs, n_parts: int):
    """Distributed min-label propagation. `pairs` is a Ray Dataset with
    columns `a`, `b`; returns a MATERIALIZED Dataset (node, rep). Caller
    must hold `rayutil.hash_shuffle` around the whole call."""
    import ray

    def to_directed(t: pa.Table) -> pa.Table:
        # every undirected pair becomes both directions so one keyed
        # repartition co-locates all of a node's out-edges with its label
        a, b = t.column("a"), t.column("b")
        zeros = pa.array([0] * len(t), pa.int8())
        return pa.concat_tables([
            pa.table({"key": a, "val": b, "is_label": zeros}),
            pa.table({"key": b, "val": a, "is_label": zeros}),
        ]).combine_chunks()

    edges = pairs.map_batches(to_directed, batch_format="pyarrow",
                              **remote_kwargs()).materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            k = t.column("key")
            return pa.table({"node": k, "label": k,
                             "changed": pa.array([], pa.int64())})
        keys = np.asarray(t.column("key").to_pylist(), dtype=object)
        uniq = np.unique(keys)
        return pa.table({"node": pa.array(uniq), "label": pa.array(uniq),
                         "changed": pa.array([1] * len(uniq), pa.int64())})

    def dedupe_nodes(b: pa.Table) -> pa.Table:
        nodes = np.asarray(b.column("node").to_pylist(), dtype=object)
        uniq, idx = np.unique(nodes, return_index=True)
        return b.take(idx)

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_parts, keys=["node"])
        .map_batches(dedupe_nodes, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())
        .materialize()
    )

    def as_label_rows(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("node"), "val": t.column("label"),
                         "is_label": pa.array([1] * len(t), pa.int8())})

    def attach(b: pa.Table) -> pa.Table:
        """Block holds every edge out of its keys AND each key's label row
        → emit (node=dst, cand=label(src)) messages plus the label rows
        themselves (tagged, so the min stage can count changes)."""
        if len(b) == 0:
            return pa.table({"node": b.column("key"), "cand": b.column("val"),
                             "is_old": pa.array([], pa.int8())})
        keys = np.asarray(b.column("key").to_pylist(), dtype=object)
        vals = np.asarray(b.column("val").to_pylist(), dtype=object)
        is_lab = b.column("is_label").to_numpy().astype(bool)
        lookup = dict(zip(keys[is_lab], vals[is_lab]))
        edge_src, edge_dst = keys[~is_lab], vals[~is_lab]
        out_node = np.concatenate([edge_dst, keys[is_lab]])
        out_cand = np.concatenate(
            [np.asarray([lookup[s] for s in edge_src], dtype=object),
             vals[is_lab]])
        out_old = np.concatenate([np.zeros(len(edge_dst), dtype=np.int8),
                                  np.ones(int(is_lab.sum()), dtype=np.int8)])
        return pa.table({"node": pa.array(out_node), "cand": pa.array(out_cand),
                         "is_old": pa.array(out_old, pa.int8())})

    def min_per_node(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"node": b.column("node"),
                             "label": b.column("cand"),
                             "changed": pa.array([], pa.int64())})
        nodes = np.asarray(b.column("node").to_pylist(), dtype=object)
        cands = np.asarray(b.column("cand").to_pylist(), dtype=object)
        is_old = b.column("is_old").to_numpy().astype(bool)
        uniq, inv = np.unique(nodes, return_inverse=True)
        new = np.empty(len(uniq), dtype=object)
        old = np.empty(len(uniq), dtype=object)
        order = np.argsort(inv, kind="stable")
        sorted_inv = inv[order]
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_inv[1:] != sorted_inv[:-1]]))
        ends = np.concatenate([starts[1:], [len(sorted_inv)]])
        for gi, (s, e) in enumerate(zip(starts, ends)):
            seg = order[s:e]
            new[gi] = min(cands[seg])
            seg_old = seg[is_old[seg]]
            old[gi] = cands[seg_old[0]]
        changed = np.fromiter((int(n < o) for n, o in zip(new, old)),
                              dtype=np.int64, count=len(uniq))
        return pa.table({"node": pa.array(uniq), "label": pa.array(new),
                         "changed": pa.array(changed, pa.int64())})

    from ray.data.aggregate import Sum

    for _ in range(_MAX_ITERS):
        label_rows = labels.map_batches(as_label_rows, batch_format="pyarrow",
                                        **remote_kwargs())
        labels = (
            edges.union(label_rows)
            .repartition(n_parts, keys=["key"])
            .map_batches(attach, batch_format="pyarrow", batch_size=None,
                         **remote_kwargs())
            .repartition(n_parts, keys=["node"])
            .map_batches(min_per_node, batch_format="pyarrow", batch_size=None,
                         **remote_kwargs())
            .materialize()
        )
        n_changed = labels.aggregate(Sum("changed", alias_name="n"))["n"]
        if not n_changed:
            return labels
    raise RuntimeError(
        f"min-label propagation did not converge in {_MAX_ITERS} rounds")


def component_labels(pairs, n_parts: int | None = None):
    """Distributed path as a DATASET: min-label propagation over `pairs`
    (Ray Dataset, columns a/b) → materialized Dataset (node, label,
    changed) that never touches the driver. Use when even the clustered
    node set outgrows driver memory; `component_reps` is the dict
    convenience over this."""
    import ray

    if n_parts is None:
        n_parts = hash_partition_count()
    with hash_shuffle():
        # rebuild the pair blocks INSIDE the scope — a dataset captures the
        # DataContext it was created under
        pairs_scoped = ray.data.from_arrow_refs(
            list(pairs.materialize().to_arrow_refs()))
        labels = _min_label_propagation(pairs_scoped, n_parts)
    return ray.data.from_arrow_refs(list(labels.to_arrow_refs()))


def component_reps(pairs, *, n_parts: int | None = None) -> dict:
    """{node: representative (component-min id)} for every node in `pairs`
    (a Ray Dataset with columns a, b). Gate: driver union-find below
    CC_DRIVER_PAIR_LIMIT pairs, min-label propagation above it. The result
    map is bounded by CLUSTERED nodes (pair members), not the corpus."""
    n_pairs = pairs.count()
    if n_pairs <= CC_DRIVER_PAIR_LIMIT:
        return components_unionfind(
            pairs.iter_batches(batch_format="pyarrow", batch_size=None))
    labels = component_labels(pairs, n_parts)
    out: dict = {}
    for b in labels.iter_batches(batch_format="pyarrow", batch_size=None):
        out.update(zip(b.column("node").to_pylist(),
                       b.column("label").to_pylist()))
    return out
