"""Approximate-nearest-neighbor search over the `embeddings` table.

- `ann_bruteforce`: exact cosine top-k — numpy matmul per batch against a
  broadcast query matrix (`ray.put` once, zero-copy read per task). The
  correctness baseline; SQL-checkable via DuckDB `list_cosine_similarity`.
- `ann_ivf`: IVF-style scale path — deterministic k-means (fixed seed +
  fixed iterations) coarse quantizer, per-batch assignment, probe the
  `n_probe` nearest centroids only. Approximate → rows-only oracle; recall
  vs the brute-force baseline is asserted in tests.

Scale shape: queries are the SMALL side (broadcast), the embedding table
streams through map_batches in Arrow batches; per-batch partial top-k then
a tiny driver-side merge — no all-to-all shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs
from .vecutil import embedding_matrix, fixed_gemm, fixed_sims, normalize_rows as _normalize

SIM_DECIMALS = 4  # round similarities so float noise can't flip value hashes


def _load_queries(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """First `n_queries` vectors by ascending vec_id — computed as a
    DISTRIBUTED partial-min: each Arrow batch keeps only its n smallest
    ids (map_batches), so the driver merges ≤ n·n_blocks tiny rows instead
    of reading the whole embeddings table (the round-1 version did a
    driver-side `pq.read_table` of the full file)."""
    import ray

    return _first_n_by_id_over(
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        "vec_id", n_queries)


def _first_n_by_id_over(ds, id_col: str, n: int):
    """`_load_queries`' distributed partial-min over ANY (id, embedding)
    Dataset and id type (int vec_id or string image_id)."""

    def partial_min(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        keep = np.argsort(ids)[:n]
        return t.take(keep)

    out = ds.map_batches(partial_min, batch_format="pyarrow",
                         **remote_kwargs())
    batches = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:  # empty embeddings table → no queries
        return np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=np.float64)
    cand = pa.concat_tables(batches)
    ids = cand.column(id_col).to_numpy(zero_copy_only=False)
    order = np.argsort(ids)[:n]
    q = embedding_matrix(cand.column("embedding"))[order]
    return ids[order], q


def _empty_topk() -> pa.Table:
    return pa.table(
        {"query_id": pa.array([], pa.int64()),
         "rank": pa.array([], pa.int64()),
         "neighbor_id": pa.array([], pa.int64()),
         "sim": pa.array([], pa.float64())}
    )


def ann_bruteforce(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Exact cosine top-k for the first `n_queries` vec_ids (self excluded).
    Per-batch partial top-k in workers → driver merges tiny candidate sets.
    Ties broken by ascending neighbor id (pinned, matches the oracle SQL).
    """
    import ray

    qids, qmat = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_topk()
    qn = _normalize(qmat)
    q_ref = ray.put((qids, qn))

    def partial_topk(t: pa.Table) -> pa.Table:
        ids_q, qn = ray.get(q_ref)
        vids = t.column("vec_id").to_numpy()
        mat = _normalize(embedding_matrix(t.column("embedding")))
        # fixed-shape chunked sims: bit-identical per (query, vector) at
        # any block split (vecutil.fixed_sims contract)
        sims = fixed_sims(qn, mat)
        out_q, out_n, out_s = [], [], []
        kk = min(k + 1, sims.shape[1])
        for qi in range(len(ids_q)):
            # lexsort, not argpartition: exact-tie candidates at the cutoff
            # must break by ascending id or the candidate set depends on
            # block splits (duplicate vectors make exact ties real)
            idx = np.lexsort((vids, -sims[qi]))[:kk]
            for j in idx:
                out_q.append(int(ids_q[qi]))
                out_n.append(int(vids[j]))
                out_s.append(float(sims[qi, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(partial_topk, batch_format="pyarrow", **remote_kwargs())
    cand = pa.concat_tables(
        tb for tb in ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return _merge_topk(cand, qids, k)


def _merge_topk(cand: pa.Table, qids: np.ndarray, k: int) -> pa.Table:
    q = cand.column("query_id").to_numpy()
    n = cand.column("neighbor_id").to_numpy()
    s = cand.column("sim").to_numpy()
    out_q, out_n, out_s, out_r = [], [], [], []
    for qid in qids:
        m = (q == qid) & (n != qid)  # exclude self
        order = np.lexsort((n[m], -s[m]))[:k]
        nn, ss = n[m][order], s[m][order]
        for r, (ni, si) in enumerate(zip(nn, ss), start=1):
            out_q.append(int(qid))
            out_n.append(int(ni))
            out_s.append(round(float(si), SIM_DECIMALS))
            out_r.append(r)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
        }
    )


def _train_centroids(sf_dir: str, cent: np.ndarray,
                     iters: int) -> np.ndarray:
    """The Lloyd's loop shared by `embedding_kmeans` and
    `semantic_dedup`: centroids broadcast per iteration, per-batch
    (sum, count) partials, k×dim driver reduce. Deterministic."""
    import ray

    return _train_centroids_over(
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ),
        cent, iters)


def _train_centroids_over(ds, cent: np.ndarray, iters: int) -> np.ndarray:
    """`_train_centroids` over ANY (id, embedding) Dataset — the seam
    `multimodal.image_semantic_dedup` reuses with a MATERIALIZED
    image-embedding dataset (each iteration re-reads plasma blocks, not
    the binary payload)."""
    import ray

    cent = cent.copy()
    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partial_sums(t: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            mat = _normalize(embedding_matrix(t.column("embedding")))
            assign = np.argmax(fixed_gemm(mat, np.ascontiguousarray(c.T)),
                               axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, mat)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(c)), pa.int64()),
                    "count": pa.array(counts, pa.int64()),
                    "vec_sum": pa.array(sums.tolist(),
                                        pa.list_(pa.float64())),
                }
            )

        sums = np.zeros_like(cent)
        counts = np.zeros(len(cent), dtype=np.int64)
        for b in ds.map_batches(partial_sums, batch_format="pyarrow",
                                **remote_kwargs()).iter_batches(
                batch_format="pyarrow", batch_size=None):
            counts += b.column("count").to_numpy()
            sums += embedding_matrix(b.column("vec_sum"))
        nonzero = counts > 0
        cent[nonzero] = _normalize(sums[nonzero] /
                                   counts[nonzero][:, None])
    return cent


def embedding_kmeans(sf_dir: str, k: int = 8, iters: int = 5):
    """Distributed Lloyd's k-means over the embedding table (spherical —
    cosine assignment on normalized vectors).

    Scale shape: centroids are the SMALL side — `ray.put` once per
    iteration; each Arrow batch computes its partial (per-cluster vector
    sum + count) inside `map_batches`, so one iteration ships k×dim floats
    per block to the driver, never the data. iters+1 streaming passes over
    the table total. Deterministic: init = the first k vec_ids' vectors
    (distributed partial-min), fixed iteration count, argmax ties broken
    by lowest cluster id (numpy argmax semantics).

    Returns (vec_id, cluster, sim) assignments sorted by vec_id —
    rows-only oracle; determinism + objective-monotonicity are pytested.
    """
    import ray

    _qids, init = _load_queries(sf_dir, k)
    if len(_qids) == 0:
        return pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "cluster": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
    cent = _train_centroids(sf_dir, _normalize(init), iters)
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    final_ref = ray.put(cent)

    def assign_out(t: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        mat = _normalize(embedding_matrix(t.column("embedding")))
        sims = fixed_gemm(mat, np.ascontiguousarray(c.T))
        assign = np.argmax(sims, axis=1)
        return pa.table(
            {
                "vec_id": t.column("vec_id"),
                "cluster": pa.array(assign.astype(np.int64), pa.int64()),
                "sim": pa.array(
                    np.round(sims[np.arange(len(assign)), assign],
                             SIM_DECIMALS), pa.float64()),
            }
        )

    return ds.map_batches(assign_out, batch_format="pyarrow",
                          **remote_kwargs()).sort("vec_id")


def _kmeans(mat: np.ndarray, n_centroids: int, seed: int = 7, iters: int = 10):
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)
    cent = mat[np.sort(idx)].copy()
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ann_ivf(sf_dir: str, n_queries: int = 5, k: int = 10,
            n_centroids: int = 16, n_probe: int = 10):
    """IVF top-k: only embeddings whose coarse cell is among the query's
    `n_probe` nearest centroids are scored. Same output schema as
    `ann_bruteforce`."""
    import ray

    qids, qmat = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_topk()
    qn = _normalize(qmat)
    # train the coarse quantizer on a bounded sample (scale path: sample,
    # not the full table)
    sample_ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    ).limit(4096)
    sample = np.concatenate([
        embedding_matrix(tb.column("embedding"))
        for tb in sample_ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ])
    cent = _kmeans(_normalize(sample), n_centroids)
    probe_cells = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]
    ctx_ref = ray.put((qids, qn, cent, probe_cells))

    def partial(t: pa.Table) -> pa.Table:
        ids_q, qn, cent, probe = ray.get(ctx_ref)
        vids = t.column("vec_id").to_numpy()
        mat = _normalize(embedding_matrix(t.column("embedding")))
        cells = np.argmax(fixed_gemm(mat, np.ascontiguousarray(cent.T)),
                          axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(ids_q)):
            mask = np.isin(cells, probe[qi])
            if not mask.any():
                continue
            sims = qn[qi] @ mat[mask].T
            sub_ids = vids[mask]
            kk = min(k + 1, len(sub_ids))
            idx = np.lexsort((sub_ids, -sims))[:kk]  # pinned tie-break
            for j in idx:
                out_q.append(int(ids_q[qi]))
                out_n.append(int(sub_ids[j]))
                out_s.append(float(sims[j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(partial, batch_format="pyarrow", **remote_kwargs())
    cand = pa.concat_tables(
        tb for tb in ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return _merge_topk(cand, qids, k)


def filtered_ann_topk(sf_dir: str, n_queries: int = 5, k: int = 10,
                      n_partitions: int | None = None):
    """Hybrid retrieval: exact cosine top-k restricted to documents that
    PASS the hashed linear quality classifier (margin ≥ 0) — the
    filter-then-search composition every RAG / curation stack runs
    (metadata-filtered vector search), with the filter computed from a
    DIFFERENT table (documents.text) than the vectors (embeddings).

    Scale shape: the keep set is NOT broadcast (it is corpus-sized) —
    classifier flag rows and embedding rows are union-co-located by ONE
    keyed repartition on the id, a block-local np.isin gate drops
    filtered-out vectors, and the gated blocks run the same per-batch
    partial top-k (broadcast query matrix, pinned tie-breaking) as
    `ann_bruteforce`, with the driver merging ≤ (k+1)·n_blocks candidate
    rows. Queries are the first `n_queries` vec_ids UNFILTERED (a query
    may itself be below the quality bar; its neighbors still must pass).
    FULL SQL oracle: classifier CTEs + keep join + the ann ranking SQL."""
    import ray

    qids, qmat = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_topk()
    qn = _normalize(qmat)
    q_ref = ray.put((qids, qn))

    from .filters import quality_classifier_scores_unsorted

    LIST_F32 = pa.list_(pa.float32())

    def flag_rows(t: pa.Table) -> pa.Table:
        # only PASSING ids ever gate anything — drop keep=False before the
        # shuffle so the exchange carries the keep set, not the corpus
        t = t.filter(t.column("keep"))
        n = len(t)
        return pa.table(
            {"id": t.column("doc_id"),
             "embedding": pa.array([None] * n, LIST_F32),
             "keep": pa.array([True] * n, pa.bool_()),
             "side": pa.array([1] * n, pa.int8())})

    def emb_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"id": t.column("vec_id"),
             "embedding": pc.cast(t.column("embedding"), LIST_F32),
             "keep": pa.array([False] * len(t), pa.bool_()),
             "side": pa.array([0] * len(t), pa.int8())})

    def gate_and_topk(b: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "neighbor_id": pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64())})
        if len(b) == 0:
            return empty
        side = b.column("side").to_numpy()
        keep_col = b.column("keep").to_numpy(zero_copy_only=False)
        ids = b.column("id").to_numpy()
        allowed = ids[(side == 1) & keep_col]
        emb_mask = side == 0
        vids = ids[emb_mask]
        sel = np.isin(vids, allowed)
        if not sel.any():
            return empty
        sub = b.filter(pa.array(emb_mask)).filter(pa.array(sel))
        vids = vids[sel]
        ids_q, qn = ray.get(q_ref)
        mat = _normalize(embedding_matrix(sub.column("embedding")))
        sims = fixed_sims(qn, mat)
        out_q, out_n, out_s = [], [], []
        kk = min(k + 1, sims.shape[1])
        for qi in range(len(ids_q)):
            idx = np.lexsort((vids, -sims[qi]))[:kk]
            for j in idx:
                out_q.append(int(ids_q[qi]))
                out_n.append(int(vids[j]))
                out_s.append(float(sims[qi, j]))
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    if n_partitions is None:
        n_partitions = hash_partition_count()

    def build():
        flags = quality_classifier_scores_unsorted(sf_dir).map_batches(
            flag_rows, batch_format="pyarrow", **remote_kwargs())
        emb = ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ).map_batches(emb_rows, batch_format="pyarrow", **remote_kwargs())
        return (
            emb.union(flags)
            .repartition(n_partitions, keys=["id"])
            .map_batches(gate_and_topk, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )

    cand = pa.concat_tables(
        tb for tb in keyed_colocate(build).iter_batches(
            batch_format="pyarrow", batch_size=None)
    )
    if len(cand) == 0:
        return _empty_topk()
    return _merge_topk(cand, qids, k)


def _kmeans_l2(mat: np.ndarray, k: int, seed: int, iters: int = 10):
    """Euclidean k-means for PQ codebooks (sub-vectors are NOT unit
    vectors, so the cosine variant above would be wrong). Deterministic:
    seeded init, fixed iterations, empty cells keep their centroid."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mat), size=min(k, len(mat)), replace=False)
    cent = mat[np.sort(idx)].copy()
    for _ in range(iters):
        d = ((mat[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
    return cent


def _ivfpq_train(sf_dir: str, n_centroids: int, m_subs: int,
                 pq_bits: int):
    """Bounded-sample IVF+PQ training (coarse quantizer + per-subspace
    L2 codebooks; seeded + fixed iterations → deterministic). Returns
    (coarse, books, sub_dim)."""
    import ray

    sample_ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    ).limit(4096)
    mats = [embedding_matrix(tb.column("embedding"))
            for tb in sample_ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None)]
    if not mats:  # empty embeddings table → degenerate (never scanned)
        return (np.zeros((n_centroids, 0)),
                np.zeros((m_subs, 1 << pq_bits, 0)), 0)
    sample = _normalize(np.concatenate(mats))
    dim = sample.shape[1]
    if m_subs <= 0 or dim % m_subs:
        raise ValueError(
            f"IVF+PQ requires dim to be divisible by m_subs "
            f"(dim={dim}, m_subs={m_subs}): trailing dimensions would be "
            f"silently dropped at encode and crash at search")
    sub = dim // m_subs
    n_codes = 1 << pq_bits
    coarse = _kmeans(sample, n_centroids)
    books = np.stack([
        _kmeans_l2(sample[:, m * sub:(m + 1) * sub], n_codes, seed=100 + m)
        for m in range(m_subs)
    ])  # (M, n_codes, sub)
    return coarse, books, sub


def _ivfpq_encode(sf_dir: str, coarse: np.ndarray, books: np.ndarray,
                  sub: int):
    """One encode pass → the compressed index Dataset (vec_id, cell,
    codes) — ~1% of the float payload moves from here on."""
    import ray

    train_ref = ray.put((coarse, books))

    def encode(t: pa.Table) -> pa.Table:
        coarse, books = ray.get(train_ref)
        mat = _normalize(embedding_matrix(t.column("embedding")))
        cells = np.argmax(fixed_gemm(mat, np.ascontiguousarray(coarse.T)),
                          axis=1).astype(np.int64)
        codes = np.empty((len(mat), len(books)), dtype=np.uint8)
        for m in range(len(books)):
            seg = mat[:, m * sub:(m + 1) * sub]
            d = ((seg[:, None, :] - books[m][None, :, :]) ** 2).sum(axis=2)
            codes[:, m] = np.argmin(d, axis=1)
        return pa.table(
            {"vec_id": t.column("vec_id"),
             "cell": pa.array(cells, pa.int64()),
             "codes": pa.array(list(codes), pa.list_(pa.uint8()))})

    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(encode, batch_format="pyarrow", **remote_kwargs())


def _ivfpq_search(codes_ds, sf_dir: str, qids: np.ndarray, qn: np.ndarray,
                  coarse: np.ndarray, books: np.ndarray, sub: int,
                  k: int, n_probe: int, m_subs: int) -> pa.Table:
    """ADC scan over a codes Dataset (per-batch partial top-3k gated by
    the query's n_probe cells, pinned ties) + exact rerank of the merged
    candidate set over vectors fetched by a distributed np.isin filter
    (O(candidates) driver memory)."""
    import ray

    # ADC tables: table[q, m, c] = <q_sub_m, book[m][c]> — inner-product
    # contribution of code c in subspace m (built once, broadcast)
    probe_cells = np.argsort(-(qn @ coarse.T), axis=1)[:, :n_probe]
    adc = np.einsum("qmd,mcd->qmc", qn.reshape(len(qn), m_subs, sub), books)
    query_ref = ray.put((qids, adc, probe_cells))

    def adc_scan(t: pa.Table) -> pa.Table:
        ids_q, adc, probe = ray.get(query_ref)
        vids = t.column("vec_id").to_numpy()
        cells = t.column("cell").to_numpy()
        codes = np.stack(t.column("codes").to_numpy(zero_copy_only=False))
        out_q, out_n, out_s = [], [], []
        for qi in range(len(ids_q)):
            mask = np.isin(cells, probe[qi])
            if not mask.any():
                continue
            c = codes[mask]
            # Σ_m adc[qi, m, code_m] — gather per subspace, sum across
            approx = adc[qi][np.arange(c.shape[1])[None, :], c].sum(axis=1)
            sub_ids = vids[mask]
            kk = min(3 * k, len(sub_ids))
            idx = np.lexsort((sub_ids, -approx))[:kk]
            for j in idx:
                out_q.append(int(ids_q[qi]))
                out_n.append(int(sub_ids[j]))
                out_s.append(float(approx[j]))
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    cand = pa.concat_tables(
        tb for tb in codes_ds.map_batches(
            adc_scan, batch_format="pyarrow", **remote_kwargs()
        ).iter_batches(batch_format="pyarrow", batch_size=None))
    if len(cand) == 0:
        return _empty_topk()

    # exact rerank over the merged candidate ids only (distributed fetch)
    need = np.unique(cand.column("neighbor_id").to_numpy())
    need_ref = ray.put(need)

    def pick(t: pa.Table) -> pa.Table:
        wanted = ray.get(need_ref)
        mask = np.isin(t.column("vec_id").to_numpy(), wanted)
        return t.filter(pa.array(mask))

    got = pa.concat_tables(
        tb for tb in ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        ).map_batches(pick, batch_format="pyarrow", **remote_kwargs())
        .iter_batches(batch_format="pyarrow", batch_size=None))
    gids = got.column("vec_id").to_numpy()
    gmat = _normalize(embedding_matrix(got.column("embedding")))
    sims = fixed_sims(qn, gmat)  # (n_queries, candidates)
    cq = cand.column("query_id").to_numpy()
    cn = cand.column("neighbor_id").to_numpy()
    order = np.argsort(gids)
    pos = np.searchsorted(gids[order], cn)
    exact = sims[np.searchsorted(qids, cq), order[pos]]
    rerank = pa.table({"query_id": pa.array(cq, pa.int64()),
                       "neighbor_id": pa.array(cn, pa.int64()),
                       "sim": pa.array(exact, pa.float64())})
    return _merge_topk(rerank, qids, k)


def ann_ivfpq_topk(sf_dir: str, n_queries: int = 5, k: int = 10,
                   n_centroids: int = 16, n_probe: int = 10,
                   m_subs: int = 8, pq_bits: int = 4):
    """IVF + product quantization — the ANN shape that actually fits
    100 TB: vectors are stored as M uint8 codebook codes (here 8×4 bits
    ≈ 1% of a float32 d=64 vector), candidate scoring is asymmetric
    distance computation (one M×2^bits lookup table per query, built
    once and broadcast), and only the merged candidate set is RERANKED
    with exact cosine over vectors fetched by a distributed `np.isin`
    filter (the `_gather_texts` shape — O(candidates) driver memory).

    Pipeline: bounded-sample training (`_ivfpq_train`) → one encode
    pass (`_ivfpq_encode` — the compressed index `ann_index_export`
    persists) → ADC scan + exact rerank (`_ivfpq_search`). Approximate →
    rows-only oracle; recall vs `ann_bruteforce` and determinism are
    pytested (same contract as `ann_ivf`)."""
    qids, qmat = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_topk()
    qn = _normalize(qmat)
    coarse, books, sub = _ivfpq_train(sf_dir, n_centroids, m_subs, pq_bits)
    codes_ds = _ivfpq_encode(sf_dir, coarse, books, sub)
    return _ivfpq_search(codes_ds, sf_dir, qids, qn, coarse, books, sub,
                         k, n_probe, m_subs)


def ann_index_export(sf_dir: str, out_dir: str | None = None,
                     n_centroids: int = 16, m_subs: int = 8,
                     pq_bits: int = 4, n_shards: int | None = None):
    """Persist the IVF+PQ index as a RESUMABLE artifact — the
    build-once / serve-many separation a production vector store needs:
    `trained.npz` (coarse quantizer + codebooks, tiny, tmp+rename
    atomic) plus the compressed codes table written through the shared
    `export_sharded` machinery (md5-bucket shards of vec_id, sorted
    files, skip-unchanged manifest — a re-export after an embeddings
    refresh rewrites only the shards whose codes changed; fingerprints
    digest (vec_id, cell, codes)). Returns the manifest table.
    `ann_index_search` serves queries from the artifact alone."""
    import ray

    from .dedup import _md5_64_batch
    from .export import (DEFAULT_SHARDS, FP_MASK, _shard_of,
                         default_out_dir, export_sharded)

    if n_shards is None:
        n_shards = DEFAULT_SHARDS
    if out_dir is None:
        out_dir = default_out_dir("dcr_ann_index", sf_dir,
                                  f"c{n_centroids}m{m_subs}s{n_shards}")
    os.makedirs(out_dir, exist_ok=True)
    coarse, books, sub = _ivfpq_train(sf_dir, n_centroids, m_subs, pq_bits)
    tmp = os.path.join(out_dir, f"trained.npz.tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        np.savez(fh, coarse=coarse, books=books)
    os.replace(tmp, os.path.join(out_dir, "trained.npz"))

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_pylist()
        cells = t.column("cell").to_numpy()
        codes = t.column("codes").to_pylist()
        strs = [f"{v}:{int(c)}:{bytes(cd).hex()}"
                for v, c, cd in zip(ids, cells, codes)]
        fp = (_md5_64_batch(strs) & np.uint64(FP_MASK)).view(np.int64)
        return t.append_column(
            "shard", pa.array(_shard_of(ids, n_shards), pa.int64())
        ).append_column("fp", pa.array(fp, pa.int64()))

    def build():
        return _ivfpq_encode(sf_dir, coarse, books, sub).map_batches(
            assign, batch_format="pyarrow", **remote_kwargs())

    return export_sharded(build, os.path.join(out_dir, "codes"), "vec_id")


def ann_index_search(sf_dir: str, index_dir: str, n_queries: int = 5,
                     k: int = 10, n_probe: int = 10):
    """Serve ANN queries from a persisted `ann_index_export` artifact:
    load the tiny trained arrays on the driver, stream the compressed
    codes shards as a Dataset through the same ADC scan + exact rerank
    as the inline `ann_ivfpq_topk` (sf_dir supplies the query vectors
    and the rerank embeddings — at serve time those are the only float
    reads; the index is ~1% of the payload)."""
    import ray

    with np.load(os.path.join(index_dir, "trained.npz")) as z:
        coarse, books = z["coarse"], z["books"]
    m_subs = books.shape[0]
    sub = books.shape[2]
    qids, qmat = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_topk()
    qn = _normalize(qmat)
    from .export import manifest_shard_paths

    # manifest-driven read: a glob would serve orphaned shard files a
    # re-export (e.g. with a different n_shards) no longer vouches for
    codes_ds = ray.data.read_parquet(
        manifest_shard_paths(os.path.join(index_dir, "codes")),
        columns=["vec_id", "cell", "codes"])
    return _ivfpq_search(codes_ds, sf_dir, qids, qn, coarse, books, sub,
                         k, n_probe, m_subs)


def _semdedup_prune_block(b: pa.Table, id_col: str, id_type, none_val,
                          threshold: float) -> pa.Table:
    """SemDeDup's within-cluster greedy keep-scan over ONE cluster-keyed
    block (which holds every member of its clusters): ascending-id order
    (pinned → parallelism-independent), a member is dropped when its
    cosine to an already-kept member exceeds `threshold`. Shared by
    `semantic_dedup` (int64 vec_id, none=-1) and
    `multimodal.image_semantic_dedup` (string image_id, none='')."""
    empty = pa.table({id_col: pa.array([], id_type),
                      "cluster": pa.array([], pa.int64()),
                      "keep": pa.array([], pa.bool_()),
                      "dup_of": pa.array([], id_type),
                      "nn_sim": pa.array([], pa.float64())})
    if len(b) == 0:
        return empty
    out = []
    clusters = b.column("cluster").to_numpy()
    for c in np.unique(clusters):
        sub = b.filter(pa.array(clusters == c))
        ids = sub.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids = ids[order]
        mat = _normalize(embedding_matrix(sub.column("embedding")))[order]
        kept_idx: list[int] = []
        keep = np.zeros(len(ids), dtype=bool)
        dup_of = np.full(len(ids), none_val, dtype=object)
        nn_sim = np.zeros(len(ids), dtype=np.float64)
        for i in range(len(ids)):
            if kept_idx:
                sims = mat[kept_idx] @ mat[i]
                j = int(np.argmax(sims))
                nn_sim[i] = round(float(sims[j]), SIM_DECIMALS)
                if sims[j] > threshold:
                    dup_of[i] = ids[kept_idx[j]]
                    continue
            keep[i] = True
            kept_idx.append(i)
        out.append(pa.table(
            {id_col: pa.array(ids, id_type),
             "cluster": pa.array(np.full(len(ids), c, np.int64()),
                                 pa.int64()),
             "keep": pa.array(keep, pa.bool_()),
             "dup_of": pa.array(dup_of.tolist(), id_type),
             "nn_sim": pa.array(nn_sim, pa.float64())}))
    return pa.concat_tables(out)


SEMDEDUP_TARGET_CLUSTER = 4096  # auto-k sizes clusters to ~this many rows


def semantic_dedup(sf_dir: str, k: int | None = 8, threshold: float = 0.9,
                   plant_copies: int = 0):
    """SemDeDup (Abbas et al. 2023): cluster embeddings with k-means,
    then greedily prune WITHIN each cluster — a member is dropped when
    its cosine to an already-kept member exceeds `threshold`. The
    embedding-space analogue of the text near-dup keep-lists: catches
    paraphrase-level duplication that n-gram methods miss.

    Scale shape: centroid training reuses `embedding_kmeans`'s
    broadcast-centroid iterations (state = k×dim, tiny); cluster
    assignment happens INLINE per batch from the broadcast centroids (no
    join, no zip-alignment assumption), and the prune stage repartitions
    ONCE keyed on cluster id so each cluster's members are co-located,
    then runs a block-local greedy scan in ascending vec_id (pinned →
    deterministic at any parallelism). Within-cluster work is
    O(n_c · kept_c) BLAS — the method's inherent cost; at 10^9+ vectors a
    deployment raises k so clusters stay ~10^4-10^6 (SemDeDup's own
    recipe) rather than sharding a cluster across blocks. ``k=None``
    implements that recipe: k = max(8, ⌈n / SEMDEDUP_TARGET_CLUSTER⌉)
    from one metadata-cheap count, so parallelism (and per-block memory)
    grows with the corpus instead of being fixed by a default.

    `plant_copies=n` injects exact duplicates in-flight (vec_id +
    PLANT_ID_OFFSET, the embedding_near_dup_pairs precedent); an exact
    copy lands in its original's cluster by construction and must be
    pruned. Rows-only oracle; invariants (keepers pairwise ≤ threshold
    within a cluster, every drop names a kept keeper with sim >
    threshold, determinism) are pytested."""
    import ray

    from .dedup import PLANT_ID_OFFSET

    if k is None:
        n = ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id"]).count()
        k = max(8, -(-n // SEMDEDUP_TARGET_CLUSTER))
    qids, init = _load_queries(sf_dir, k)
    if len(qids) == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64()),
                         "keep": pa.array([], pa.bool_()),
                         "dup_of": pa.array([], pa.int64()),
                         "nn_sim": pa.array([], pa.float64())})
    cent = _train_centroids(sf_dir, _normalize(init), iters=5)
    cent_ref = ray.put(cent)

    def plant_and_assign(t: pa.Table) -> pa.Table:
        if plant_copies:
            mask = pc.less(t.column("vec_id"),
                           pa.scalar(plant_copies, pa.int64()))
            dup = t.filter(mask)
            if len(dup):
                dup = dup.set_column(
                    t.column_names.index("vec_id"), "vec_id",
                    pc.add(dup.column("vec_id"),
                           pa.scalar(PLANT_ID_OFFSET, pa.int64())))
                t = pa.concat_tables([t, dup])
        c = ray.get(cent_ref)
        mat = _normalize(embedding_matrix(t.column("embedding")))
        cluster = np.argmax(fixed_gemm(mat, np.ascontiguousarray(c.T)),
                            axis=1).astype(np.int64)
        return pa.table({"vec_id": t.column("vec_id"),
                         "cluster": pa.array(cluster, pa.int64()),
                         "embedding": t.column("embedding")})

    def greedy_prune(b: pa.Table) -> pa.Table:
        return _semdedup_prune_block(b, "vec_id", pa.int64(), -1, threshold)

    n_partitions = min(hash_partition_count(), max(2, k))
    return keyed_colocate(lambda: (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])
        .map_batches(plant_and_assign, batch_format="pyarrow",
                     **remote_kwargs())
        .repartition(n_partitions, keys=["cluster"])
        .map_batches(greedy_prune, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    )).sort("vec_id")
