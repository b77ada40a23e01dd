"""Deduplication family over the `documents` / `embeddings` tables —
the large-scale training-data cleaners.

- exact:        md5-fingerprint hash-partition → per-group keep-min-id
- MinHash+LSH:  word-shingles → 64 minhash perms → 16 bands × 4 rows →
                band-bucket groupby → candidate pairs → EXACT shingle-
                Jaccard verify (so LSH fpp never produces a wrong pair)
- SimHash:      64-bit token-hash majority signature per doc
- n-gram Jaccard: the exact verifier, also exposed standalone
- embedding cosine: random-hyperplane LSH buckets → in-bucket exact cosine

Scale shape: every stage is a `map_batches` or a single `groupby` on a
precomputed key; pairwise work only ever happens INSIDE a bucket/group
(never all-pairs). SimHash token hashes AND MinHash shingle base hashes
are md5-derived so the DuckDB oracle can recompute both signature kinds
exactly (`('0x'||substr(md5(s),1,16))::UBIGINT`); the n-gram inverted
index — where the hash is only a shingle IDENTITY, never part of the
output — keeps pandas' faster siphash64 (`pd.util.hash_array`, fixed
default key — process-independent, never Python's salted `hash`) so
results are identical across processes and cluster sizes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import (actor_pool_size, hash_partition_count, keyed_colocate,
                       remote_kwargs)

from .text import TOKEN_REGEX, _docs, normalize_expr
from .vecutil import embedding_matrix

SIM_DECIMALS = 4  # matches ops.ann — rounding kills float value-hash noise
N_PERM = 64
N_BANDS = 16
ROWS_PER_BAND = N_PERM // N_BANDS
_MERSENNE = (1 << 61) - 1


def _stable64_batch(strs) -> np.ndarray:
    """Vectorized stable 64-bit string hashing (pandas siphash, fixed
    key — process-independent). ~10× the per-string md5 loop; collisions
    at 64 bits are negligible for shingle identity."""
    import pandas as pd

    arr = np.asarray(list(strs), dtype=object)
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, categorize=False)


# ------------------------------------------------------------------ exact

def dedup_exact(sf_dir: str):
    """Groups by normalized-text md5; keeps the smallest doc_id per group.
    SQL-checkable. The crawl engine's A5 'insert-if-absent' in batch form."""
    import ray

    def fp(t: pa.Table) -> pa.Table:
        norm = normalize_expr(t.column("text")).to_pylist()
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm]
        return pa.table(
            {"fingerprint": pa.array(fps, pa.string()), "doc_id": t.column("doc_id")}
        )

    def keep_first(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy()
        return pa.table(
            {
                "fingerprint": g.column("fingerprint").slice(0, 1),
                "keep_id": pa.array([int(ids.min())], pa.int64()),
                "n_dups": pa.array([len(ids)], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(fp, batch_format="pyarrow", **remote_kwargs())
        .groupby("fingerprint")
        .map_groups(keep_first, batch_format="pyarrow", **remote_kwargs())
        .sort("keep_id")
    )


# ---------------------------------------------------------------- minhash

def _shingles(text: str, k: int = 3) -> set[str]:
    import re

    toks = [w.lower() for w in re.findall(TOKEN_REGEX, text)]
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def _md5_64_batch(strs) -> np.ndarray:
    """Stable 64-bit string hash = first 8 bytes of md5, big-endian —
    chosen (over the faster siphash in `_stable64_batch`) because DuckDB
    recomputes it exactly: `('0x'||substr(md5(s),1,16))::UBIGINT`. Used
    where the hash VALUE flows into oracle-checked output (minhash
    signatures); identity-only hashing keeps siphash."""
    ss = list(strs)
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
         for s in ss),
        dtype=np.uint64, count=len(ss),
    )


class _MinHasher:
    """64 universal-hash permutations h_i(x) = (a_i·x + b_i) mod p.

    Fully vectorized in uint64: a,b,x < 2^32 so a·x + b < 2^64 never
    wraps and the mod is exact — one (n_perm, n_shingles) broadcast +
    min per doc instead of a Python loop over permutations. Base hashes
    are md5-derived (`_md5_64_batch`) and a/b come from a seeded
    generator, so the DuckDB oracle replays the whole signature with the
    same 64 (a, b) constants interpolated into the SQL."""

    def __init__(self, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 1 << 32, size=N_PERM, dtype=np.uint64)
        self.b = rng.integers(0, 1 << 32, size=N_PERM, dtype=np.uint64)

    def signature(self, shingle_set: set[str]) -> np.ndarray:
        if not shingle_set:
            return np.full(N_PERM, _MERSENNE, dtype=np.int64)
        xs = _md5_64_batch(shingle_set) & np.uint64(0xFFFFFFFF)
        hashed = (self.a[:, None] * xs[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return hashed.min(axis=1).astype(np.int64)


_BAND_MIX = np.uint64(0x9E3779B97F4A7C15)


class MinHashWorker:
    """Actor-pool stage: permutations built once per actor. Band keys are
    NUMERIC (vectorized multiply-xor fold of each band's rows + the band
    index) — an int64 groupby key shuffles far cheaper than md5-hex
    strings, and the whole batch folds in one (docs × bands) pass."""

    def __init__(self, seed: int = 1234):
        self.hasher = _MinHasher(seed)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        n = len(ids)
        sig_m = np.empty((n, N_PERM), dtype=np.int64)
        for i, text in enumerate(texts):
            sig_m[i] = self.hasher.signature(_shingles(text))
        rows = sig_m.view(np.uint64).reshape(n, N_BANDS, ROWS_PER_BAND)
        acc = np.zeros((n, N_BANDS), dtype=np.uint64)
        for r in range(ROWS_PER_BAND):
            acc = (acc * _BAND_MIX) ^ rows[:, :, r]
        acc ^= (np.arange(N_BANDS, dtype=np.uint64) + np.uint64(1)) * _BAND_MIX
        band_keys = (acc >> np.uint64(1)).astype(np.int64)  # keep positive
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "signature": pa.array(sig_m.tolist(), pa.list_(pa.int64())),
                "bands": pa.array(band_keys.tolist(), pa.list_(pa.int64())),
            }
        )


def minhash_signatures(sf_dir: str, concurrency: int | None = None):
    if concurrency is None:
        concurrency = actor_pool_size()
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        MinHashWorker, batch_format="pyarrow", concurrency=concurrency,
        **remote_kwargs(),
    )


def _candidate_pairs_by_key(exploded, n_partitions: int):
    """(key:int64, doc_id:int64) rows → unique packed int64 doc pairs.

    repartition(keys=[key]) co-locates each key's rows, a block-local
    lexsort segment scan emits packed pairs, repartition(keys=[pair]) +
    per-block np.unique dedupes — the same keyed-repartition shape as
    `ngram_jaccard_pairs` (Ray's sort aggregate collapses at high key
    cardinality). Caller must scope ShuffleStrategy.HASH_SHUFFLE."""

    def pairs_in_block(b: pa.Table) -> pa.Table:
        empty = pa.table({"pair": pa.array([], pa.int64())})
        if len(b) < 2:
            return empty
        keys = b.column("key").to_numpy()
        ids = b.column("doc_id").to_numpy()
        o = np.lexsort((ids, keys))
        keys, ids = keys[o], ids[o]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        ends = np.concatenate([starts[1:], [len(keys)]])
        parts = []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            ii, jj = np.triu_indices(m, 1)
            parts.append((ids[s + ii] << 32) | ids[s + jj])
        if not parts:
            return empty
        # in-block dedup before the pair shuffle (distinct-only semantics)
        return pa.table({"pair": pa.array(np.unique(np.concatenate(parts)),
                                          pa.int64())})

    def uniq(b: pa.Table) -> pa.Table:
        return pa.table(
            {"pair": pa.array(np.unique(b.column("pair").to_numpy()), pa.int64())}
        )

    return (
        exploded.repartition(n_partitions, keys=["key"])
        .map_batches(pairs_in_block, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())
        .repartition(n_partitions, keys=["pair"])
        .map_batches(uniq, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())
    )


def _gather_texts(sf_dir: str, ids) -> dict[int, str]:
    """doc_id→text for ONLY the requested ids, via a distributed filter:
    the needed-id array is broadcast once (`ray.put`), every batch keeps
    just its members (`np.isin`), and the driver collects the survivors —
    O(|ids|) driver memory regardless of corpus size."""
    import ray

    ids_arr = np.fromiter(ids, dtype=np.int64)
    ids_ref = ray.put(np.sort(ids_arr))

    def pick(t: pa.Table) -> pa.Table:
        needed = ray.get(ids_ref)
        mask = np.isin(t.column("doc_id").to_numpy(), needed)
        return t.filter(pa.array(mask))

    out: dict[int, str] = {}
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        pick, batch_format="pyarrow", **remote_kwargs()
    )
    for tb in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        out.update(zip(tb.column("doc_id").to_pylist(),
                       tb.column("text").to_pylist()))
    return out


def minhash_near_dup_pairs(sf_dir: str, threshold_num: int = 1,
                           threshold_den: int = 2,
                           concurrency: int | None = None):
    """LSH candidate generation (numeric band keys, keyed-repartition
    pair machinery) + exact shingle-Jaccard verification. Returns
    (a, b, inter, union_n) pairs with a < b and
    den·inter ≥ num·union_n, sorted — deterministic. The threshold is a
    FRACTION and the verify is integer arithmetic, so no float rounding
    boundary can disagree with the DuckDB oracle, which replays the md5
    base hashes, the 64 (a,b) permutation constants, the per-band
    all-rows-agree candidate predicate, and the exact verify in SQL."""
    import ray

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        if len(ids) and (ids.max() >= (1 << 31) or ids.min() < 0):
            raise ValueError("minhash pair packing needs doc ids < 2^31")
        bands = t.column("bands")
        import pyarrow.compute as _pc

        flat = _pc.list_flatten(bands)
        n_bands = _pc.list_value_length(bands).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": flat,
             "doc_id": pa.array(np.repeat(ids, n_bands), pa.int64())}
        )

    cand = keyed_colocate(lambda: _candidate_pairs_by_key(
        minhash_signatures(sf_dir, concurrency).map_batches(
            explode, batch_format="pyarrow", **remote_kwargs()),
        hash_partition_count(),
    ))

    # exact verification: candidate pairs stream through map_batches; the
    # broadcast side is the texts of CANDIDATE-PAIR MEMBERS ONLY (the
    # verified-pair precondition: candidates ≪ corpus), gathered by a
    # distributed filter over the documents table — never a whole-corpus
    # read or broadcast. The no-broadcast-at-all exact path for a regime
    # where even candidates are huge is `ngram_jaccard_pairs`.
    member_ids: set[int] = set()
    for tb in cand.iter_batches(batch_format="pyarrow", batch_size=None):
        p = tb.column("pair").to_numpy()
        member_ids.update(np.unique(p >> 32).tolist())
        member_ids.update(np.unique(p & 0x7FFFFFFF).tolist())
    text_ref = ray.put(_gather_texts(sf_dir, member_ids))

    def verify(t: pa.Table) -> pa.Table:
        tm = ray.get(text_ref)
        keep_a, keep_b, inters, unions = [], [], [], []
        cache: dict[int, set] = {}
        pairs_np = t.column("pair").to_numpy()
        for a, b in zip((pairs_np >> 32).tolist(),
                        (pairs_np & 0x7FFFFFFF).tolist()):
            sa = cache.setdefault(a, _shingles(tm[a]))
            sb = cache.setdefault(b, _shingles(tm[b]))
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            if threshold_den * inter >= threshold_num * union and union:
                keep_a.append(a)
                keep_b.append(b)
                inters.append(inter)
                unions.append(union)
        return pa.table(
            {"a": pa.array(keep_a, pa.int64()), "b": pa.array(keep_b, pa.int64()),
             "inter": pa.array(inters, pa.int64()),
             "union_n": pa.array(unions, pa.int64())}
        )

    verified = cand.map_batches(verify, batch_format="pyarrow", **remote_kwargs())
    batches = list(verified.iter_batches(batch_format="pyarrow",
                                         batch_size=None))
    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "inter": pa.array([], pa.int64()), "union_n": pa.array([], pa.int64())}
    )
    out = pa.concat_tables(batches) if batches else empty
    if len(out) == 0:
        return empty
    return out.select(["a", "b", "inter", "union_n"]).sort_by(
        [("a", "ascending"), ("b", "ascending")]
    )


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = _shingles(text_a, k), _shingles(text_b, k)
    union = len(sa | sb)
    return (len(sa & sb) / union) if union else 0.0


# ---------------------------------------------------------------- simhash

def simhash64_batch(texts, dense_limit: int = 8_000_000) -> np.ndarray:
    """64-bit SimHash per text (stable md5 token hashes, exactly
    replicable in the DuckDB oracle), vectorized across the WHOLE batch:
    tokens are md5-hashed once per distinct token in the batch (vocab ≪
    token stream), the (total_tokens, 64) ±1 bit matrix is summed per doc
    with one reduceat. Returns int64 signatures; tokenless docs get 0."""
    import re

    toks_list = [re.findall(TOKEN_REGEX, s.lower()) for s in texts]
    lens = np.fromiter((len(t) for t in toks_list), dtype=np.int64,
                       count=len(toks_list))
    out = np.zeros(len(texts), dtype=np.int64)
    nonempty = np.flatnonzero(lens)
    if len(nonempty) == 0:
        return out
    flat = np.asarray([t for ts in toks_list for t in ts], dtype=object)
    uniq, inv = np.unique(flat, return_inverse=True)
    hs_u = np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "big")
         for t in uniq),
        dtype=np.uint64, count=len(uniq),
    )
    shifts = np.arange(64, dtype=np.uint64)
    # ±1 bit matrix only for DISTINCT tokens (vocab ≪ token stream)
    signed_u = (2 * ((hs_u[:, None] >> shifts[None, :]) & np.uint64(1))
                .astype(np.int64) - 1)
    n_docs, n_uniq = len(texts), len(uniq)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    if n_docs * n_uniq <= dense_limit:
        # dense per-doc token-count matrix → one matmul for all 64 bits
        counts = np.bincount(doc_idx * n_uniq + inv,
                             minlength=n_docs * n_uniq
                             ).reshape(n_docs, n_uniq)
        acc = counts @ signed_u  # (n_docs, 64)
    else:
        # bounded-memory fallback: one 1-D reduceat per bit position
        hs_tok = hs_u[inv]
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])[nonempty]
        acc = np.zeros((n_docs, 64), dtype=np.int64)
        for j in range(64):
            col = (2 * ((hs_tok >> np.uint64(j)) & np.uint64(1))
                   .astype(np.int64) - 1)
            acc[nonempty, j] = np.add.reduceat(col, starts)
    out_bits = (acc > 0).astype(np.uint64)
    vals = (out_bits << shifts[None, :]).sum(axis=1)
    mask = lens > 0
    out[mask] = vals.view(np.int64)[mask]  # uint64 bits == two's complement
    return out


def simhash64(text: str) -> int:
    """Single-doc convenience wrapper over `simhash64_batch`."""
    return int(simhash64_batch([text])[0])


def simhash_signatures(sf_dir: str):
    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "simhash": pa.array(
                    simhash64_batch(t.column("text").to_pylist()), pa.int64()
                ),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(fn, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


def simhash_near_dup_pairs(sf_dir: str, max_hamming: int = 3):
    """Near-duplicate doc pairs by SimHash distance, fully distributed:
    each signature explodes into its four 16-bit band buckets, in-bucket
    vectorized hamming, groupby(a, b) dedupes pairs found in several
    bands. With `max_hamming < 4` the 4-band blocking is EXACT by
    pigeonhole (≤3 differing bits can't touch all 4 bands), so the DuckDB
    brute-force `bit_count(xor(..)) <= 3` self-join is a complete oracle —
    no recall caveat."""
    import ray
    from ray.data.aggregate import Min

    if max_hamming >= 4:
        raise ValueError("4-band blocking is only exact for max_hamming < 4")

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        sigs = t.column("simhash").to_numpy()
        u = sigs.view(np.uint64)
        keys, oids, osig = [], [], []
        for band in range(4):
            band_vals = ((u >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(
                np.int64
            )
            keys.extend((band_vals + (band << 16)).tolist())
            oids.extend(ids.tolist())
            osig.extend(sigs.tolist())
        return pa.table(
            {
                "band_key": pa.array(keys, pa.int64()),
                "doc_id": pa.array(oids, pa.int64()),
                "simhash": pa.array(osig, pa.int64()),
            }
        )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int64())})
        if len(g) < 2:
            return empty
        ids = g.column("doc_id").to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        u = g.column("simhash").to_numpy()[order].view(np.uint64)
        ii, jj = np.triu_indices(len(ids), 1)
        d = np.unpackbits((u[ii] ^ u[jj]).view(np.uint8).reshape(-1, 8),
                          axis=1).sum(axis=1)
        keep = d <= max_hamming
        return pa.table(
            {
                "a": pa.array(ids[ii[keep]], pa.int64()),
                "b": pa.array(ids[jj[keep]], pa.int64()),
                "hamming": pa.array(d[keep].astype(np.int64), pa.int64()),
            }
        )

    def sig(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "simhash": pa.array(
                    simhash64_batch(t.column("text").to_pylist()), pa.int64()
                ),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(sig, batch_format="pyarrow", **remote_kwargs())
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .groupby("band_key")
        .map_groups(pairs_in_bucket, batch_format="pyarrow", **remote_kwargs())
        .groupby(["a", "b"])
        .aggregate(Min("hamming", alias_name="hamming"))
        .sort(["a", "b"])
    )


# ------------------------------------------------- near-dup clustering

def _cluster_table(reps_map: dict) -> pa.Table:
    """{doc_id: component rep} → one row per clustered doc, sorted by
    doc_id: (doc_id, cluster_rep, cluster_size, keep — rep only)."""
    members = sorted(reps_map)
    reps = [reps_map[m] for m in members]
    sizes: dict[int, int] = {}
    for r in reps:
        sizes[r] = sizes.get(r, 0) + 1
    return pa.table(
        {
            "doc_id": pa.array(members, pa.int64()),
            "cluster_rep": pa.array(reps, pa.int64()),
            "cluster_size": pa.array([sizes[r] for r in reps], pa.int64()),
            "keep": pa.array([m == r for m, r in zip(members, reps)],
                             pa.bool_()),
        }
    )


def near_dup_clusters(sf_dir: str, threshold_num: int = 1,
                      threshold_den: int = 2,
                      concurrency: int | None = None):
    """Connected components over the verified MinHash near-dup pairs →
    one row per clustered doc with its cluster representative (min doc_id)
    and cluster size, plus `keep` (rep only) — the training-data keep-list
    finisher.

    The component pass is `cc.component_reps`: driver union-find while the
    VERIFIED pair set fits (provably tiny relative to the corpus), gated
    to distributed min-label propagation above CC_DRIVER_PAIR_LIMIT —
    both paths produce identical assignments (equivalence-tested).
    Deterministic; SQL oracle = recursive-CTE transitive closure over the
    minhash pair CTE chain (same shape as `jaccard_clusters`)."""
    import ray

    from .cc import component_reps

    pairs = minhash_near_dup_pairs(sf_dir, threshold_num=threshold_num,
                                   threshold_den=threshold_den,
                                   concurrency=concurrency)
    return _cluster_table(component_reps(ray.data.from_arrow(pairs)))


def jaccard_clusters(sf_dir: str, threshold_num: int = 1,
                     threshold_den: int = 20):
    """Connected components over the EXACT n-gram Jaccard pair set —
    the fully SQL-checkable cluster pipeline: the pair stage is the
    oracle-green `ngram_jaccard_pairs` and the component stage has a
    DuckDB recursive-CTE transitive-closure oracle, so the WHOLE
    dedup-cluster composition (including `cc.component_reps`' gated
    union-find / min-label-propagation paths) is verified rows+schema+
    hash against SQL. Output: one row per clustered doc with its
    component-min representative, cluster size, and keep flag."""
    from .cc import component_reps

    return _cluster_table(component_reps(
        ngram_jaccard_pairs(sf_dir, threshold_num, threshold_den)))


# ------------------------------------------------------ embedding near-dup

PLANT_ID_OFFSET = 10_000_000  # planted-copy vec_id = original + offset


def embedding_near_dup_pairs(sf_dir: str, threshold: float = 0.95,
                             n_planes: int = 12, seed: int = 99,
                             plant_copies: int = 0):
    """Random-hyperplane LSH → in-bucket exact cosine, fully distributed:

      map_batches  normalize + sign-code each vector, EXPLODE to its own
                   bucket plus all 1-bit-flip probe buckets (catches pairs
                   within code-hamming ≤ 2 — near-boundary pairs survive)
      groupby(bucket).map_groups   pairwise cosine INSIDE a bucket only
      groupby(a,b).aggregate(max)  dedupe pairs found in several buckets
      sort(a,b)                    pinned output order

    The explode ships each vector n_planes+1 times — the standard LSH
    shuffle trade (bounded: (n_planes+1)·|table|); nothing ever
    materializes on the driver.

    FULL SQL oracle (registry): because the probe set is every 1-bit
    flip, pair (x, y) is a candidate IFF hamming(code_x, code_y) ≤ 2 —
    so DuckDB replays the whole pipeline as a self-join with
    `bit_count(xor(code_a, code_b)) <= 2` over codes recomputed from the
    SAME seeded plane constants (sign(raw·plane) == sign(normalized·
    plane)), plus `list_cosine_similarity ≥ threshold`. `plant_copies=n`
    duplicates rows with vec_id < n IN-FLIGHT as vec_id+PLANT_ID_OFFSET
    (exact copies — cosine 1.0, SQL-replayable UNION ALL; the
    pii_scrub_stats precedent) so the evidence is non-vacuous on a
    random-embedding table."""
    import ray

    import pyarrow.parquet as pq
    from ray.data.aggregate import Max

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    if pf.metadata.num_rows == 0:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}
        )
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first.column(0)[0])
    rng = np.random.default_rng(seed)
    planes_ref = ray.put(rng.standard_normal((dim, n_planes)))

    def code_explode(t: pa.Table) -> pa.Table:
        planes = ray.get(planes_ref)
        if plant_copies:
            mask = pc.less(t.column("vec_id"), plant_copies)
            extra = t.filter(mask)
            extra = extra.set_column(
                extra.schema.get_field_index("vec_id"), "vec_id",
                pc.add(extra.column("vec_id"), PLANT_ID_OFFSET))
            t = pa.concat_tables([t, extra])
        ids = t.column("vec_id").to_numpy()
        mat = embedding_matrix(t.column("embedding"))
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        codes = mat @ planes > 0
        keys = np.zeros(len(ids), dtype=np.int64)
        for j in range(n_planes):
            keys = (keys << 1) | codes[:, j].astype(np.int64)
        # bucket list per row: own key + every 1-bit flip
        flips = keys[:, None] ^ (1 << np.arange(n_planes, dtype=np.int64))[None, :]
        all_keys = np.concatenate([keys[:, None], flips], axis=1).ravel()
        rep = n_planes + 1
        rep_ids = np.repeat(ids, rep)
        rep_mat = np.repeat(mat, rep, axis=0)
        # zero-copy list<double> build: flat values + arithmetic offsets
        rep_vecs = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(rep_mat) + 1) * mat.shape[1],
                               mat.shape[1], dtype=np.int32)),
            pa.array(rep_mat.ravel(), pa.float64()),
        )
        return pa.table(
            {
                "bucket": pa.array(all_keys, pa.int64()),
                "vec_id": pa.array(rep_ids.astype(np.int64), pa.int64()),
                "vec": rep_vecs,
            }
        )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy()
        if len(ids) < 2:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        mat = embedding_matrix(g.column("vec"))
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        sub = mat @ mat.T
        ii, jj = np.where(np.triu(sub >= threshold, 1))
        return pa.table(
            {
                "a": pa.array(ids[ii], pa.int64()),
                "b": pa.array(ids[jj], pa.int64()),
                "cosine": pa.array(
                    np.round(sub[ii, jj], SIM_DECIMALS), pa.float64()
                ),
            }
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(code_explode, batch_format="pyarrow", **remote_kwargs())
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pyarrow", **remote_kwargs())
        .groupby(["a", "b"])
        .aggregate(Max("cosine", alias_name="cosine"))
        .sort(["a", "b"])
    )


# --------------------------------------------- exact n-gram Jaccard pairs

def ngram_jaccard_pairs(sf_dir: str, threshold_num: int = 1,
                        threshold_den: int = 20, max_df: int = 0,
                        n_partitions: int | None = None):
    """EXACT n-gram (3-shingle) Jaccard similar-pairs via a distributed
    inverted index — no signatures, no driver materialization:

      map_batches   doc → distinct shingle hashes, exploded to
                    (shingle, doc_id, n_doc) rows; n_doc rides along so
                    union sizes need no later join
      repartition(keys=[shingle])   hash co-locates each shingle's rows;
                    block-local segment scan emits packed candidate pairs
      repartition(keys=[pair]) + per-block np.unique   |A∩B| exactly
      filter        den·inter ≥ num·union in INTEGER arithmetic (no float
                    rounding boundary can disagree with the SQL oracle)

    `max_df > 0` drops stop-shingles (document frequency > max_df) — the
    scale knob that bounds the per-group pair blowup; 0 = exact (default,
    what the SQL oracle computes). Output (a, b, inter, union_n) ints.
    """
    def explode(t: pa.Table) -> pa.Table:
        ids_np = t.column("doc_id").to_numpy()
        if len(ids_np) and (ids_np.max() >= (1 << 31) or ids_np.min() < 0):
            raise ValueError("ngram_jaccard_pairs packs doc ids into 31 bits; "
                             "remap ids below 2^31 first")
        sh_col, id_col, n_col = [], [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            hs = set(
                (_stable64_batch(_shingles(text))
                 & np.uint64((1 << 63) - 1)).tolist()
            )
            for h in hs:
                sh_col.append(h)
                id_col.append(doc_id)
                n_col.append(len(hs))
        return pa.table(
            {
                "shingle": pa.array(sh_col, pa.int64()),
                "doc_id": pa.array(id_col, pa.int64()),
                "n_doc": pa.array(n_col, pa.int64()),
            }
        )

    def pairs_in_block(b: pa.Table) -> pa.Table:
        """One keyed-repartition block holds EVERY row of its shingles, so
        pair generation is a block-local segment scan (lexsort + triu per
        segment) — no per-group UDF dispatch. (a,b) and (n_a,n_b) are each
        PACKED into one int64 (31-bit guard in `explode`), and pair
        occurrences are PRE-AGGREGATED in-block (np.unique + counts) — the
        partial-combiner pattern applied to the pair shuffle: it moves one
        row per distinct (block, pair), not one per shared shingle."""
        empty = pa.table({"pair": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64()),
                          "sizes": pa.array([], pa.int64())})
        if len(b) < 2:
            return empty
        sh = b.column("shingle").to_numpy()
        ids = b.column("doc_id").to_numpy()
        ns = b.column("n_doc").to_numpy()
        o = np.lexsort((ids, sh))
        sh, ids, ns = sh[o], ids[o], ns[o]
        starts = np.flatnonzero(np.concatenate([[True], sh[1:] != sh[:-1]]))
        ends = np.concatenate([starts[1:], [len(sh)]])
        pair_parts, size_parts = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or (max_df and m > max_df):
                continue
            ii, jj = np.triu_indices(m, 1)
            pair_parts.append((ids[s + ii] << 32) | ids[s + jj])
            size_parts.append((ns[s + ii] << 32) | ns[s + jj])
        if not pair_parts:
            return empty
        p = np.concatenate(pair_parts)
        sz = np.concatenate(size_parts)
        u, idx, cnt = np.unique(p, return_index=True, return_counts=True)
        return pa.table(
            {
                "pair": pa.array(u, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                "sizes": pa.array(sz[idx], pa.int64()),
            }
        )

    def combine(b: pa.Table) -> pa.Table:
        """Partial pair-counts within one pair-keyed block sum to global
        counts (the repartition co-located every instance of a pair)."""
        p = b.column("pair").to_numpy()
        c = b.column("cnt").to_numpy()
        s = b.column("sizes").to_numpy()
        o = np.argsort(p, kind="stable")
        p, c, s = p[o], c[o], s[o]
        starts = np.flatnonzero(np.concatenate([[True], p[1:] != p[:-1]]))
        u = p[starts]
        inter = np.add.reduceat(c, starts).astype(np.int64) if len(p) else \
            np.empty(0, dtype=np.int64)
        sizes = s[starts]
        n_a, n_b = sizes >> 32, sizes & 0x7FFFFFFF
        union = n_a + n_b - inter
        keep = inter * threshold_den >= union * threshold_num
        return pa.table(
            {
                "a": pa.array((u >> 32)[keep], pa.int64()),
                "b": pa.array((u & 0x7FFFFFFF)[keep], pa.int64()),
                "inter": pa.array(inter[keep], pa.int64()),
                "union_n": pa.array(union[keep], pa.int64()),
            }
        )

    # keyed hash repartition, not Ray's sort-based aggregate, which
    # collapses at ~10^6 distinct keys (measured 10 s for 1.3M pairs vs
    # 2.5 s for repartition + per-block np.unique). The result is tiny
    # (qualifying pairs only).
    if n_partitions is None:
        n_partitions = hash_partition_count()
    return keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["shingle"])
        .map_batches(pairs_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
        .repartition(n_partitions, keys=["pair"])
        .map_batches(combine, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())
        .sort(["a", "b"])
    ))


# ------------------------------------------- source near-dup overlap matrix

def _overlap_attach(bk: pa.Table) -> pa.Table:
    """One doc_id partition of `source_overlap_matrix`: fill each pair
    side row (kind 1) with the source of its doc row (kind 0). A side
    whose doc_id has no doc row raises — a sorted lookup would otherwise
    hand it a neighbouring doc's source."""
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "is_a": pa.array([], pa.bool_()),
                      "source": pa.array([], pa.string())})
    if len(bk) == 0:
        return empty
    kind = bk.column("kind").to_numpy()
    if not (kind == 1).any():
        return empty
    ids = bk.column("doc_id").to_numpy()
    src = np.asarray(bk.column("source").to_pylist(), dtype=object)
    d_ids, d_src = ids[kind == 0], src[kind == 0]
    order = np.argsort(d_ids)
    sel = kind == 1
    sorted_ids = d_ids[order]
    pos = np.searchsorted(sorted_ids, ids[sel])
    hit = pos < len(sorted_ids)
    hit[hit] = sorted_ids[pos[hit]] == ids[sel][hit]
    if not hit.all():
        raise ValueError(
            "source_overlap_matrix: pair references doc_id(s) absent from "
            f"the corpus: {sorted(set(ids[sel][~hit].tolist()))[:5]}")
    return pa.table({
        "a": bk.column("a").filter(pa.array(sel)).cast(pa.int64()),
        "b": bk.column("b").filter(pa.array(sel)).cast(pa.int64()),
        "is_a": bk.column("is_a").filter(pa.array(sel)).cast(pa.bool_()),
        "source": pa.array(d_src[order][pos], pa.string())})


def _overlap_combine(bk: pa.Table) -> pa.Table:
    """One (a, b) partition of `source_overlap_matrix`: reunite each
    pair's two annotated sides and count unordered source pairs. Every
    pair must arrive as exactly one side-b and one side-a row; anything
    else raises instead of pairing sides of different pairs."""
    empty = pa.table({"source_a": pa.array([], pa.string()),
                      "source_b": pa.array([], pa.string()),
                      "n_part": pa.array([], pa.int64())})
    if len(bk) == 0:
        return empty
    a = bk.column("a").to_numpy()
    b = bk.column("b").to_numpy()
    isa = bk.column("is_a").to_numpy()
    src = np.asarray(bk.column("source").to_pylist(), dtype=object)
    pkey = (a << np.int64(32)) | b  # ids are <2^31 (explode guard)
    order = np.lexsort((isa, pkey))  # per pair: side-b row, side-a row
    pk, side_a = pkey[order], isa[order]
    if (len(pk) % 2 or (pk[0::2] != pk[1::2]).any()
            or side_a[0::2].any() or not side_a[1::2].all()):
        raise ValueError(
            "source_overlap_matrix: pair sides do not match up "
            "(each pair needs one side-a and one side-b row)")
    sa, sb = src[order][1::2], src[order][0::2]
    counts: dict = {}
    for x, y in zip(sa, sb):
        key = (x, y) if x <= y else (y, x)
        counts[key] = counts.get(key, 0) + 1
    ks = sorted(counts)
    return pa.table({
        "source_a": pa.array([k[0] for k in ks], pa.string()),
        "source_b": pa.array([k[1] for k in ks], pa.string()),
        "n_part": pa.array([counts[k] for k in ks], pa.int64())})


def source_overlap_matrix(sf_dir: str, n_partitions: int | None = None):
    """Cross-SOURCE contamination matrix: for every unordered source
    pair, how many verified MinHash near-dup pairs span it (the "how
    much does CommonCrawl overlap C4" question a multi-source 100 TB
    mixture has to answer before weighting; cf. Lee et al. §6 cross-set
    dups). Composes the X2 verified pair set with a source annotation
    that NEVER broadcasts the corpus-sized doc→source map:

    pairs explode to two (doc_id, a, b, side) rows → union with the
    (doc_id, source) projection → keyed repartition on doc_id co-locates
    each endpoint with its source row (vectorized searchsorted fill) →
    keyed repartition on (a, b) reunites the two annotated sides →
    block-local unordered-pair counts → tiny groupby-sum. Shuffle
    payload is O(pairs) + one (doc_id, source) row per doc."""
    import ray
    from ray.data.aggregate import Sum

    def pair_sides(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        return pa.table({
            "doc_id": pa.array(np.concatenate([a, b]), pa.int64()),
            "a": pa.array(np.concatenate([a, a]), pa.int64()),
            "b": pa.array(np.concatenate([b, b]), pa.int64()),
            "is_a": pa.array(
                np.concatenate([np.ones(len(a), bool),
                                np.zeros(len(b), bool)]), pa.bool_()),
            "source": pa.nulls(2 * len(a), pa.string()),
            "kind": pa.array(np.ones(2 * len(a), np.int8), pa.int8())})

    def doc_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "a": pa.nulls(n, pa.int64()),
            "b": pa.nulls(n, pa.int64()),
            "is_a": pa.nulls(n, pa.bool_()),
            "source": t.column("source").cast(pa.string()),
            "kind": pa.array(np.zeros(n, np.int8), pa.int8())})

    if n_partitions is None:
        n_partitions = hash_partition_count()

    def build():
        pairs = minhash_near_dup_pairs(sf_dir)
        if isinstance(pairs, pa.Table):  # X2 collects its verified pairs
            pairs = ray.data.from_arrow(pairs)
        return (
            pairs.map_batches(pair_sides, batch_format="pyarrow",
                              **remote_kwargs())
            .union(_docs(sf_dir, ["doc_id", "source"]).map_batches(
                doc_rows, batch_format="pyarrow", **remote_kwargs()))
            .repartition(n_partitions, keys=["doc_id"])
            .map_batches(_overlap_attach, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
            .repartition(n_partitions, keys=["a", "b"])
            .map_batches(_overlap_combine, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"source_a": t.column("source_a"),
                         "source_b": t.column("source_b"),
                         "n_pairs": t.column("sum(n_part)").cast(pa.int64())})

    return (
        keyed_colocate(build)
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n_part"))
        .map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort(["source_a", "source_b"])
    )
