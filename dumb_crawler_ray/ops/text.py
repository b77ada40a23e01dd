"""Text-analysis operators over the `documents` table (training-data
pipeline components: token counting, quality scoring, language ID,
fingerprinting). All vectorized `map_batches(batch_format="pyarrow", **remote_kwargs())`
stages using `pyarrow.compute` regex kernels — no per-row Python in the
hot path except where a kernel genuinely doesn't exist."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from ..rayutil import (actor_pool_size, hash_partition_count, keyed_colocate,
                       remote_kwargs)
import pyarrow.compute as pc

TOKEN_REGEX = r"[A-Za-z0-9]+"

# tiny per-language stopword profiles for the n-gram/stopword heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "por"},
    "de": {"der", "die", "und", "das", "in", "von", "zu", "mit", "den", "ist"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "du", "que"},
}


def _docs(sf_dir: str, columns):
    import ray

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def normalize_expr(text_col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """lower + collapse whitespace + trim — shared with the SQL oracle."""
    lowered = pc.utf8_lower(text_col)
    collapsed = pc.replace_substring_regex(lowered, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(collapsed)


def token_counts(sf_dir: str):
    """doc_id, n_chars, n_tokens (regex word split) — SQL-checkable."""

    def fn(t: pa.Table) -> pa.Table:
        text = t.column("text")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(text, pattern=TOKEN_REGEX), pa.int64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow", **remote_kwargs())


def text_quality(sf_dir: str):
    """Quality-scoring features: length, token count, punctuation count,
    mean token length, short-doc flag. Column-for-column SQL parity."""

    def fn(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_tokens = pc.cast(
            pc.count_substring_regex(text, pattern=TOKEN_REGEX), pa.int64()
        )
        stripped = pc.replace_substring_regex(
            text, pattern=r"[A-Za-z0-9\s]", replacement=""
        )
        n_punct = pc.cast(pc.utf8_length(stripped), pa.int64())
        # integer numerator instead of a mean: exact across engines (a
        # rounded ratio can land on a .xxxx5 boundary where round modes
        # disagree — e.g. 137/32)
        n_token_chars = pc.cast(
            pc.utf8_length(
                pc.replace_substring_regex(text, pattern=r"[^A-Za-z0-9]", replacement="")
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": n_chars,
                "n_tokens": n_tokens,
                "n_punct": n_punct,
                "n_token_chars": n_token_chars,
                "is_short": pc.less(n_chars, 100),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow", **remote_kwargs())


def doc_fingerprint(sf_dir: str):
    """Document fingerprint = md5 of the normalized text (exact-dedup key);
    oracle parity via DuckDB's md5()."""

    def fn(t: pa.Table) -> pa.Table:
        norm = normalize_expr(t.column("text")).to_pylist()
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "fingerprint": pa.array(fps, pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow", **remote_kwargs())


class LangIdWorker:
    """Stateful language-ID stage: stopword profiles compiled once per actor
    (`__init__`), batches scored in `__call__` — the actor-pool pattern for
    model-ish stages. Heuristic: stopword hits per language + a CJK
    codepoint test for zh. Scores are RAW IEEE divisions (hits / tokens) —
    bit-identical to the DuckDB oracle's DOUBLE division, so the op is
    rows+schema+hash SQL-checkable with no rounding pact. Winner =
    max score, ties broken by lexicographically smallest language (the
    strict `>` over sorted profiles)."""

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in STOPWORDS.items()}
        self.token_re = re.compile(TOKEN_REGEX)
        self.cjk_re = re.compile(r"[一-鿿]")

    def __call__(self, t: pa.Table) -> pa.Table:
        preds, scores = [], []
        for s in t.column("text").to_pylist():
            if self.cjk_re.search(s):
                preds.append("zh")
                scores.append(1.0)
                continue
            toks = [w.lower() for w in self.token_re.findall(s)]
            best_lang, best = "en", -1.0
            for lang, stops in sorted(self.profiles.items()):
                hits = sum(1 for w in toks if w in stops)
                score = hits / max(1, len(toks))
                if score > best:
                    best, best_lang = score, lang
            preds.append(best_lang)
            scores.append(best)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "lang_pred": pa.array(preds, pa.string()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def lang_id(sf_dir: str, concurrency: int | None = None):
    if concurrency is None:
        concurrency = actor_pool_size()
    return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        LangIdWorker, batch_format="pyarrow", concurrency=concurrency,
        **remote_kwargs(),
    ).sort("doc_id")


def corpus_stats(sf_dir: str, short_chars: int = 100,
                 concurrency: int | None = None):
    """Per-language corpus report — the 'dataset card' aggregate every
    training-data pipeline publishes: document count, token volume,
    short-doc count, and EXACT distinct content fingerprints, grouped by
    predicted language. One per-doc actor-pool pass (language profiles in
    `__init__`) feeds a two-stage aggregate: groupby (lang, fingerprint)
    collapses duplicates first (the X20 exact-distinct shape — the second
    shuffle then carries one row per distinct content), so no stage ever
    holds per-group sets. Fully SQL-checkable (lang CTE + md5 + count
    distinct)."""
    import ray
    from ray.data.aggregate import Count, Sum

    if concurrency is None:
        concurrency = actor_pool_size()

    class Worker(LangIdWorker):
        def __call__(self, t: pa.Table) -> pa.Table:
            lang = super().__call__(t)
            text = t.column("text")
            n_chars = pc.cast(pc.utf8_length(text), pa.int64())
            n_tokens = pc.cast(
                pc.count_substring_regex(text, pattern=TOKEN_REGEX), pa.int64()
            )
            norm = normalize_expr(text).to_pylist()
            fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm]
            return pa.table(
                {
                    "lang_pred": lang.column("lang_pred"),
                    "fingerprint": pa.array(fps, pa.string()),
                    "n_tokens": n_tokens,
                    "is_short": pc.cast(
                        pc.less(n_chars, pa.scalar(short_chars, pa.int64())),
                        pa.int64(),
                    ),
                }
            )

    per_doc = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        Worker, batch_format="pyarrow", concurrency=concurrency,
        **remote_kwargs(),
    )
    per_fp = per_doc.groupby(["lang_pred", "fingerprint"]).aggregate(
        Count(alias_name="n_dup"),
        Sum("n_tokens", alias_name="tok_sum"),
        Sum("is_short", alias_name="short_sum"),
    )
    return (
        per_fp.groupby("lang_pred")
        .aggregate(
            Sum("n_dup", alias_name="n_docs"),
            Sum("tok_sum", alias_name="total_tokens"),
            Sum("short_sum", alias_name="n_short"),
            Count(alias_name="distinct_fingerprints"),
        )
        .sort("lang_pred")
    )


def rolling_fingerprints(text: str, window: int = 32, base: int = 257,
                         mod: int = (1 << 61) - 1) -> list[int]:
    """Rabin-Karp rolling hashes over character windows — the winnowing
    primitive for content-defined chunk fingerprints."""
    if len(text) < window:
        return [polynomial_hash(text, base, mod)] if text else []
    out = []
    h = 0
    power = pow(base, window - 1, mod)
    data = text.encode("utf-8", errors="replace")
    for i, c in enumerate(data):
        h = (h * base + c) % mod
        if i >= window - 1:
            out.append(h)
            h = (h - data[i - window + 1] * power) % mod
    return out


def polynomial_hash(text: str, base: int = 257, mod: int = (1 << 61) - 1) -> int:
    h = 0
    for c in text.encode("utf-8", errors="replace"):
        h = (h * base + c) % mod
    return h


def winnowed_fingerprints(sf_dir: str, window: int = 32, keep_every: int = 8):
    """doc_id → winnowed set of rolling-hash fingerprints (min per stride) —
    content-defined dedup signatures. Rows-only oracle."""

    def fn(t: pa.Table) -> pa.Table:
        ids, fps = [], []
        for doc_id, s in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            hs = rolling_fingerprints(s, window)
            picked = sorted(
                {min(hs[i:i + keep_every]) for i in range(0, len(hs), keep_every)}
            ) if hs else []
            ids.append(doc_id)
            fps.append([int(h % (1 << 62)) for h in picked])
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "fingerprints": pa.array(fps, pa.list_(pa.int64()))}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow", **remote_kwargs())


def word_frequencies(sf_dir: str, k: int = 100):
    """Corpus vocabulary top-k (classic distributed wordcount): per-batch
    LOCAL counts via one C-level regex scan + np.unique (the partial
    combiner — the groupby shuffle moves one row per (block, word), never
    per token), then a global sum and a pinned-order top-k."""
    from ray.data.aggregate import Sum

    def local_counts(t: pa.Table) -> pa.Table:
        # per-doc C-level findall (a batch-wide " ".join would transiently
        # DOUBLE the batch's string memory; per-doc lowering keeps the
        # transient at one document)
        toks: list = []
        for s in t.column("text").to_pylist():
            toks.extend(re.findall(TOKEN_REGEX, s.lower()))
        if not toks:
            return pa.table({"word": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        words, counts = np.unique(np.asarray(toks, dtype=object),
                                  return_counts=True)
        return pa.table(
            {"word": pa.array(list(words), pa.string()),
             "n_part": pa.array(counts.astype(np.int64), pa.int64())}
        )

    return (
        _docs(sf_dir, ["text"])
        .map_batches(local_counts, batch_format="pyarrow", **remote_kwargs())
        .groupby("word")
        .aggregate(Sum("n_part", alias_name="n"))
        .sort(["n", "word"], descending=[True, False])
        .limit(k)
    )


def doc_sample(sf_dir: str, prefix: str = "0"):
    """Deterministic hash-threshold sampling: keep documents whose
    md5(text) starts with `prefix` (1/16 per hex nibble). Hash sampling is
    THE scale-safe sampling primitive — the same rows are selected
    regardless of cluster size, partitioning or run count, and the filter
    is embarrassingly parallel. SQL-checkable via DuckDB's md5()."""
    def fn(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest()
               for s in t.column("text").to_pylist()]
        keep = pa.array([f.startswith(prefix) for f in fps], pa.bool_())
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "fp": pa.array(fps, pa.string())}
        ).filter(keep)

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(fn, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


def top_terms_per_doc(sf_dir: str, k: int = 3):
    """TF-IDF-style characteristic terms, integer-exact (no float log —
    ranking by (tf DESC, df ASC, word ASC) is order-equivalent to
    tf·idf for fixed tf and needs no rounding pact with the oracle):

      map_batches   doc → distinct (doc_id, word, tf) rows (np.unique per
                    doc — the tokenize+count combiner)
      union + repartition(keys=[word])   tf rows and partial-df marker
                    rows co-locate per word — a hand-rolled hash join in
                    ONE shuffle (vocab is NOT broadcast)
      map_batches   block-local df sum + vectorized attach
      groupby(doc_id).map_groups   pinned-order top-k per doc

    SQL oracle: the same two aggregations + row_number window."""
    from .relational import _parquet_num_rows

    # Ray's hash-join aggregator cannot finalize over a 0-row input
    if _parquet_num_rows(sf_dir, "documents") == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int64()),
             "word": pa.array([], pa.string()),
             "tf": pa.array([], pa.int64()),
             "df": pa.array([], pa.int64())}
        )

    def tf_explode(t: pa.Table) -> pa.Table:
        out_doc, out_word, out_tf = [], [], []
        for doc_id, s in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            toks = re.findall(TOKEN_REGEX, s.lower())
            if not toks:
                continue
            words, counts = np.unique(np.asarray(toks, dtype=object),
                                      return_counts=True)
            out_doc.extend([doc_id] * len(words))
            out_word.extend(words)
            out_tf.extend(counts.tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "word": pa.array(out_word, pa.string()),
                "tf": pa.array(out_tf, pa.int64()),
            }
        )

    # tf ⨝ df by word via KEYED REPARTITION co-location (the same shape
    # as ngram_jaccard_pairs): df rows ride in the same stream marked
    # doc_id = -1, the hash repartition lands every word's tf AND df rows
    # in one block, and a block-local vectorized lookup attaches df.
    # (Ray's native Dataset.join crashes finalizing empty right-side
    # partitions, which a small vocabulary guarantees; this pattern is
    # also one shuffle instead of two.)
    def df_partial(t: pa.Table) -> pa.Table:
        # (doc, word) rows are distinct per doc → per-batch row counts per
        # word are partial document frequencies; mark with doc_id = -1
        words, counts = np.unique(
            np.asarray(t.column("word").to_pylist(), dtype=object),
            return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(np.full(len(words), -1), pa.int64()),
                "word": pa.array(list(words), pa.string()),
                "tf": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def attach_df(b: pa.Table) -> pa.Table:
        doc = b.column("doc_id").to_numpy()
        words = np.asarray(b.column("word").to_pylist(), dtype=object)
        tfs = b.column("tf").to_numpy()
        is_df = doc == -1
        # sum the partial dfs per word (block holds EVERY row of its words)
        dw, inv = np.unique(words[is_df], return_inverse=True)
        dsum = np.zeros(len(dw), dtype=np.int64)
        np.add.at(dsum, inv, tfs[is_df])
        lookup = dict(zip(dw, dsum))
        keep = ~is_df
        return pa.table(
            {
                "doc_id": pa.array(doc[keep], pa.int64()),
                "word": pa.array(words[keep], pa.string()),
                "tf": pa.array(tfs[keep], pa.int64()),
                "df": pa.array([lookup[w] for w in words[keep]], pa.int64()),
            }
        )

    n_parts = hash_partition_count()

    def build():
        tf = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            tf_explode, batch_format="pyarrow", **remote_kwargs()
        )
        df_rows = tf.map_batches(df_partial, batch_format="pyarrow",
                                 **remote_kwargs())
        return (
            tf.union(df_rows)
            .repartition(n_parts, keys=["word"])
            .map_batches(attach_df, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )

    joined = keyed_colocate(build)

    def topk(g: pa.Table) -> pa.Table:
        tfs = g.column("tf").to_numpy()
        dfs = g.column("df").to_numpy()
        words = np.asarray(g.column("word").to_pylist(), dtype=object)
        order = np.lexsort((words, dfs, -tfs))[:k]
        return pa.table(
            {
                "doc_id": pa.array([g.column("doc_id")[0].as_py()] * len(order),
                                   pa.int64()),
                "rank": pa.array(range(1, len(order) + 1), pa.int64()),
                "word": pa.array(words[order], pa.string()),
                "tf": pa.array(tfs[order], pa.int64()),
                "df": pa.array(dfs[order], pa.int64()),
            }
        )

    return (
        joined.groupby("doc_id")
        .map_groups(topk, batch_format="pyarrow", **remote_kwargs())
        .sort(["doc_id", "rank"])
    )


def _mg_trim(items: np.ndarray, counts: np.ndarray, capacity: int):
    """Misra-Gries summary trim: subtract the (capacity+1)-largest count
    from everything, drop non-positives — the classic decrement step,
    vectorized. Guarantees any item with true count > N/(capacity+1)
    survives."""
    if len(items) <= capacity:
        return items, counts
    order = np.argsort(-counts, kind="stable")
    sub = counts[order[capacity]]
    kept = order[:capacity]
    new_counts = counts[kept] - sub
    pos = new_counts > 0
    return items[kept][pos], new_counts[pos]


def heavy_hitters(sf_dir: str, k: int = 10, capacity: int = 4096):
    """Top-k most frequent users — the 2-pass heavy-hitters pattern:

      pass 1  map_batches → per-batch Misra-Gries summaries (≤ capacity
              rows per batch, mergeable) → groupby(user_id) SUM of the
              partial counts (the MG merge, done IN the cluster — the
              driver never sees per-block summaries) → one-partition
              final MG trim on a worker → a BOUNDED candidate set
              (capacity rows max, any true count > N/(capacity+1)
              guaranteed present — summing partials then trimming once is
              the standard mergeable-summary bound)
      pass 2  exact distributed recount of candidates only (broadcast the
              candidate array, filter + partial aggregate), pinned-order
              top-k

    With capacity ≥ distinct items (true at test scale) the result is
    exact and SQL-checkable; at 100 TB capacity bounds every stage's
    memory and the guarantee above is the published MG bound."""
    import ray
    from ray.data.aggregate import Sum

    def summarize(t: pa.Table) -> pa.Table:
        ids = t.column("user_id").to_numpy()
        items, counts = np.unique(ids, return_counts=True)
        items, counts = _mg_trim(items, counts.astype(np.int64), capacity)
        return pa.table(
            {"user_id": pa.array(items, pa.int64()),
             "n_part": pa.array(counts, pa.int64())}
        )

    def final_trim(t: pa.Table) -> pa.Table:
        items, counts = _mg_trim(t.column("user_id").to_numpy(),
                                 t.column("n_part").to_numpy(), capacity)
        return pa.table({"user_id": pa.array(items, pa.int64())})

    # merged summary size is ≤ capacity · n_blocks rows (each block's MG
    # summary is ≤ capacity) — small enough for a single-partition trim
    candidates = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .map_batches(summarize, batch_format="pyarrow", **remote_kwargs())
        .groupby("user_id")
        .aggregate(Sum("n_part", alias_name="n_part"))
        .repartition(1)
        .map_batches(final_trim, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())
    )
    cand = np.concatenate(
        [b.column("user_id").to_numpy()
         for b in candidates.iter_batches(batch_format="pyarrow",
                                          batch_size=None)]
        or [np.empty(0, dtype=np.int64)]
    )
    cand_ref = ray.put(np.sort(cand))

    def exact_count(t: pa.Table) -> pa.Table:
        wanted = ray.get(cand_ref)
        ids = t.column("user_id").to_numpy()
        ids = ids[np.isin(ids, wanted)]
        items, counts = np.unique(ids, return_counts=True)
        return pa.table(
            {"user_id": pa.array(items, pa.int64()),
             "n_part": pa.array(counts.astype(np.int64), pa.int64())}
        )

    return (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .map_batches(exact_count, batch_format="pyarrow", **remote_kwargs())
        .groupby("user_id")
        .aggregate(Sum("n_part", alias_name="n"))
        .sort(["n", "user_id"], descending=[True, False])
        .limit(k)
    )


class _HLL:
    """Minimal HyperLogLog (2^p registers, the standard bias-corrected
    estimator) — a MERGEABLE sketch: per-batch sketches combine by
    register-max, so distinct counting becomes map_batches partials plus
    one tiny merge (the sketch pattern for wide data; sub-1% memory of
    the exact two-stage distinct at high cardinality).

    SQL pact (the full sketch is DuckDB-replayable, like the CMS
    matrix): base hash = md5-64 of str(user_id); register index =
    `h >> 52`; rho = `65 - length(bin((h % 2^52) * 4096 + 1))` (the
    `|1` sentinel caps the scan); the estimator is exact-integer up to
    ONE float division — S = Σ 2^(64-reg) as a Python int / HUGEINT,
    inv = float(S)/2^64 (one shared rounding), raw = alpha·m²/inv, and
    the small-range branch uses math.log because DuckDB's ln matches
    CPython's (probed over all 4096 possible args) while np.log does
    NOT (1218/4096 off-by-a-ulp)."""

    P = 12  # 4096 registers → ~1.6% relative error

    @classmethod
    def sketch(cls, hashes: "np.ndarray") -> "np.ndarray":
        m = 1 << cls.P
        regs = np.zeros(m, dtype=np.uint8)
        h = hashes.astype(np.uint64)
        idx = (h >> np.uint64(64 - cls.P)).astype(np.int64)
        rest = (h << np.uint64(cls.P)) | np.uint64(1)  # sentinel bit
        # rank = leading zeros of the remaining bits + 1, vectorized
        lz = np.zeros(len(h), dtype=np.uint8)
        cur = rest.copy()
        mask = np.ones(len(h), dtype=bool)
        for bit in range(64):
            top = (cur >> np.uint64(63)) & np.uint64(1)
            newly = mask & (top == 1)
            lz[newly] = bit + 1
            mask &= top == 0
            if not mask.any():
                break
            cur = cur << np.uint64(1)
        np.maximum.at(regs, idx, lz)
        return regs

    @classmethod
    def merge(cls, raw_sketches) -> "np.ndarray":
        """Register-max merge of serialized sketches (the HLL monoid)."""
        merged = np.zeros(1 << cls.P, dtype=np.uint8)
        for raw in raw_sketches:
            merged = np.maximum(merged, np.frombuffer(raw, dtype=np.uint8))
        return merged

    @classmethod
    def estimate_int(cls, regs: "np.ndarray") -> int:
        import math

        m = 1 << cls.P
        vals, counts = np.unique(regs, return_counts=True)
        s_total = sum((1 << (64 - int(v))) * int(n)
                      for v, n in zip(vals.tolist(), counts.tolist()))
        inv = float(s_total) / 2.0 ** 64  # = Σ 2^-reg, one rounding
        est = (0.7213 / (1 + 1.079 / float(m))) * float(m) * float(m) / inv
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = float(m) * math.log(float(m) / zeros)  # small-range corr.
        return int(math.floor(est + 0.5))


def _hll_hash64(ids: np.ndarray) -> np.ndarray:
    """md5-64 of str(id) — hashed once per DISTINCT id in the batch
    (events repeat users heavily), then scattered back."""
    from .dedup import _md5_64_batch

    uniq, inverse = np.unique(ids, return_inverse=True)
    hu = _md5_64_batch(str(u) for u in uniq.tolist())
    return hu[inverse]


def approx_daily_active_users(sf_dir: str):
    """GROUPED HLL — the sketch as a first-class mergeable aggregate:
    map_batches emits one (day, sketch) row per day per batch (partial
    sketches), groupby(day).map_groups merges by register-max and
    estimates. The shuffle moves 4 KiB sketches per (block, day), never
    user ids — the approximate dual of `daily_active_users`' exact
    two-stage distinct; SQL oracle replays the register matrix AND the
    estimator bit-exactly (see `_HLL`), accuracy vs exact in tests."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        day = pc.strftime(t.column("ts"), format="%Y-%m-%d").to_numpy(
            zero_copy_only=False)
        ids = t.column("user_id").to_numpy(zero_copy_only=False)
        hs = _hll_hash64(ids)
        days, rows = np.unique(day), []
        for d in days:
            rows.append(_HLL.sketch(hs[day == d]).tobytes())
        return pa.table(
            {"day": pa.array(list(days), pa.string()),
             "sketch": pa.array(rows, pa.binary())}
        )

    def merge_day(g: pa.Table) -> pa.Table:
        merged = _HLL.merge(g.column("sketch").to_pylist())
        return pa.table(
            {"day": g.column("day").slice(0, 1),
             "approx_users": pa.array([_HLL.estimate_int(merged)],
                                      pa.int64())}
        )

    import ray

    return (
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["ts", "user_id"])
        .map_batches(sketch_batch, batch_format="pyarrow", **remote_kwargs())
        .groupby("day")
        .map_groups(merge_day, batch_format="pyarrow", **remote_kwargs())
        .sort("day")
    )


def approx_distinct_users(sf_dir: str):
    """HLL distinct-user estimate: one sketch per batch (map_batches),
    register-max merge of the tiny sketches, one output row. Output is
    partition-count-independent (estimate, zeros, max_rho — all pure
    functions of the MERGED registers), so the DuckDB oracle replays the
    whole sketch + estimator bit-exactly (see `_HLL`'s SQL pact)."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        hs = _hll_hash64(t.column("user_id").to_numpy(zero_copy_only=False))
        return pa.table({"sketch": pa.array([_HLL.sketch(hs).tobytes()],
                                            pa.binary())})

    import ray

    sketches = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    ).map_batches(sketch_batch, batch_format="pyarrow", **remote_kwargs())
    raws = [raw for b in sketches.iter_batches(batch_format="pyarrow",
                                                batch_size=None)
            for raw in b.column("sketch").to_pylist()]
    merged = _HLL.merge(raws)
    return pa.table(
        {
            "estimate": pa.array([_HLL.estimate_int(merged)], pa.int64()),
            "zeros": pa.array([int((merged == 0).sum())], pa.int64()),
            "max_rho": pa.array([int(merged.max())], pa.int64()),
        }
    )


SPLIT_TRAIN_PCT = 95   # md5-bucket percentages (train/val/test = 95/3/2)
SPLIT_VAL_PCT = 3


def doc_split(sf_dir: str):
    """Deterministic train/val/test assignment: bucket = the first 8 hex
    chars of md5(doc_id) mod 100 — a pure function of the ROW IDENTITY
    (not the text, so editing a document never migrates it across the
    split boundary and leaks val into train). Partition- and cluster-
    size-independent by construction; per-source stratification follows
    from hash uniformity, verified by the grouped-counts test. The
    embarrassing-parallel split primitive every corpus release needs.

    SQL pact: `('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
    ::BIGINT % 100` — int(md5(str(doc_id))[:8], 16) % 100 in Python."""
    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        buckets = [int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
                   for i in ids]
        split = [("train" if b < SPLIT_TRAIN_PCT else
                  "val" if b < SPLIT_TRAIN_PCT + SPLIT_VAL_PCT else "test")
                 for b in buckets]
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "source": t.column("source"),
             "bucket": pa.array(buckets, pa.int64()),
             "split": pa.array(split, pa.string())})

    return (
        _docs(sf_dir, ["doc_id", "source"])
        .map_batches(fn, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


def leakage_safe_split(sf_dir: str):
    """Dedup-aware train/val/test split: every member of a near-dup
    cluster lands in the SAME split — the leakage guard a corpus release
    needs on top of `doc_split` (a val doc's near-duplicate in train IS
    contamination; cf. Lee et al. 2021, "Deduplicating Training Data
    Makes Language Models Better").

    Split key = the doc's connected-component representative under the
    oracle-green exact n-gram Jaccard pair set (`ngram_jaccard_pairs` →
    `cc.component_reps`), falling back to the doc's own id for
    unclustered docs; bucket = md5(rep) mod 100 with `doc_split`'s exact
    thresholds. Row identity keying means text edits can only move a doc
    across the boundary by changing its CLUSTER — the same property
    doc_split has per doc, lifted to cluster granularity.

    Scale shape: the rep map is bounded by CLUSTERED docs (pair members,
    ≪ corpus). Below `relational.BROADCAST_ROW_LIMIT` it is broadcast
    once (`ray.put`) into a stateless map; above the gate reps ride the
    dataset: rep rows ∪ doc rows through ONE keyed repartition on doc_id,
    block-local searchsorted annotate — the `image_keeplist` scale path.
    Both paths are equivalence-tested. FULL SQL oracle: the
    jaccard_clusters recursive CTE + the doc_split md5 arithmetic.
    """
    import ray

    from .cc import component_reps
    from .dedup import ngram_jaccard_pairs
    from .relational import BROADCAST_ROW_LIMIT

    pairs = ngram_jaccard_pairs(sf_dir)
    reps_map = component_reps(pairs)

    def bucket_of(reps: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int(hashlib.md5(str(r).encode()).hexdigest()[:8], 16) % 100
             for r in reps), dtype=np.int64, count=len(reps))

    def finish_cols(doc_ids, reps):
        buckets = bucket_of(reps)
        split = np.where(buckets < SPLIT_TRAIN_PCT, "train",
                         np.where(buckets < SPLIT_TRAIN_PCT + SPLIT_VAL_PCT,
                                  "val", "test"))
        return pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()),
             "cluster_rep": pa.array(reps, pa.int64()),
             "bucket": pa.array(buckets, pa.int64()),
             "split": pa.array(split.tolist(), pa.string())})

    if len(reps_map) <= BROADCAST_ROW_LIMIT:
        reps_ref = ray.put(reps_map)

        def assign(t: pa.Table) -> pa.Table:
            m = ray.get(reps_ref)
            ids = t.column("doc_id").to_numpy()
            reps = np.fromiter((m.get(int(i), int(i)) for i in ids),
                               dtype=np.int64, count=len(ids))
            return finish_cols(ids, reps)

        return (_docs(sf_dir, ["doc_id"])
                .map_batches(assign, batch_format="pyarrow",
                             **remote_kwargs())
                .sort("doc_id"))

    # scale path: reps dataset-resident, one keyed co-location exchange
    rep_tb = pa.table(
        {"doc_id": pa.array(sorted(reps_map), pa.int64()),
         "rep": pa.array([reps_map[k] for k in sorted(reps_map)], pa.int64()),
         "side": pa.array([1] * len(reps_map), pa.int8())})

    def doc_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({"doc_id": t.column("doc_id"),
                         "rep": pa.array([0] * n, pa.int64()),
                         "side": pa.array([0] * n, pa.int8())})

    def annotate(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return finish_cols(np.empty(0, np.int64), np.empty(0, np.int64))
        side = b.column("side").to_numpy()
        ids = b.column("doc_id").to_numpy()
        rep = b.column("rep").to_numpy()
        dm = side == 0
        doc_ids = ids[dm]
        reps = doc_ids.copy()
        rk, rv = ids[~dm], rep[~dm]
        if len(rk):
            order = np.argsort(rk)
            pos = np.searchsorted(rk[order], doc_ids)
            pos = np.clip(pos, 0, len(rk) - 1)
            hit = rk[order][pos] == doc_ids
            reps[hit] = rv[order][pos][hit]
        return finish_cols(doc_ids, reps)

    n_partitions = hash_partition_count()
    return keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id"])
        .map_batches(doc_rows, batch_format="pyarrow", **remote_kwargs())
        .union(ray.data.from_arrow(rep_tb))
        .repartition(n_partitions, keys=["doc_id"])
        .map_batches(annotate, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    )).sort("doc_id")


CMS_DEPTH = 4
CMS_WIDTH = 1024


def cms_user_counts(sf_dir: str):
    """Count-min sketch of per-user event counts — the third mergeable
    sketch in the suite (HLL counts distinct, Misra-Gries finds heavy
    hitters, CMS answers POINT frequency queries), and the only one with
    a FULL SQL oracle: a CMS cell is `count(events whose d-th hash lands
    there)`, a pure deterministic aggregate, so DuckDB replays the whole
    sketch bit-exactly from the same md5 hash family.

    Scale shape: each block emits its ≤ depth·width nonzero cells as
    (d, w, n_part) partial rows (the partial-aggregate combiner — 32 KiB
    per block regardless of event volume), one small groupby-sum lands
    the merged sketch, rows = nonzero cells. Point queries
    (`cms_estimate`) are a driver-side min over depth lookups; the
    ε = e/width, δ = e^-depth guarantee is property-tested against exact
    counts.
    """
    import ray
    from ray.data.aggregate import Sum

    from .dedup import _md5_64_batch

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("user_id").to_numpy()
        strs = [f"{d}:{u}" for d in range(CMS_DEPTH) for u in ids]
        cells = (_md5_64_batch(strs) % np.uint64(CMS_WIDTH)).astype(np.int64)
        d_col = np.repeat(np.arange(CMS_DEPTH, dtype=np.int64), len(ids))
        packed = d_col * CMS_WIDTH + cells
        uk, cnt = np.unique(packed, return_counts=True)
        return pa.table({"d": pa.array(uk // CMS_WIDTH, pa.int64()),
                         "w": pa.array(uk % CMS_WIDTH, pa.int64()),
                         "n_part": pa.array(cnt.astype(np.int64), pa.int64())})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"d": t.column("d"),
                         "w": t.column("w"),
                         "n": t.column("sum(n_part)")})

    return (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .map_batches(partial, batch_format="pyarrow", **remote_kwargs())
        .groupby(["d", "w"]).aggregate(Sum("n_part"))
        .map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort(["d", "w"])
    )


def cms_estimate(sketch: pa.Table, user_ids) -> np.ndarray:
    """min over depth rows — the CMS point query, shared by the tests
    so the hash family cannot drift from the sketch builder."""
    import hashlib

    d_arr = sketch.column("d").to_numpy()
    w_arr = sketch.column("w").to_numpy()
    n_arr = sketch.column("n").to_numpy()
    table = np.zeros((CMS_DEPTH, CMS_WIDTH), dtype=np.int64)
    table[d_arr, w_arr] = n_arr
    out = np.empty(len(user_ids), dtype=np.int64)
    for i, u in enumerate(user_ids):
        est = None
        for d in range(CMS_DEPTH):
            h = int.from_bytes(
                hashlib.md5(f"{d}:{u}".encode()).digest()[:8], "big")
            v = table[d, h % CMS_WIDTH]
            est = v if est is None else min(est, v)
        out[i] = est
    return out


# --- BM25 retrieval ---------------------------------------------------------
# Fixed query set (constants interpolated into the SQL oracle, the minhash
# (a,b)-consts precedent). Terms are pairwise DISTINCT across queries so the
# SQL df CTE needs no per-query dedup.
BM25_QUERIES: list[tuple[str, list[str]]] = [
    ("q0", ["hash", "join", "merge"]),
    ("q1", ["window", "sort", "order"]),
    ("q2", ["dup", "stream", "filter"]),
]
BM25_K1 = 1.2
BM25_B = 0.75


def bm25_topk(sf_dir: str, k: int = 10):
    """Distributed BM25 (Robertson/Okapi) top-k retrieval for the fixed
    `BM25_QUERIES` — the lexical-retrieval dual of `ann_bruteforce_topk`.

    Scale shape: TWO streaming passes, no shuffle. Pass 1 reduces the
    corpus to O(n_terms) stats — each batch emits one row of partials
    (n_docs, total_tokens, per-term df) and the driver sums ≤ n_blocks
    tiny rows. Pass 2 broadcasts the idf/avgdl constants (a handful of
    floats, closure-captured) and every batch scores its docs locally +
    emits its own top-k per query with PINNED ties (score DESC, doc_id
    ASC) — the driver merges ≤ k·n_queries·n_blocks candidate rows.
    Per-doc scores are pure functions of (tf, dl, constants), so the
    result is partition-independent at any parallelism.

    SQL-parity float pact (see the oracle in registry.py): idf =
    math.log((N - df + 0.5)/(df + 0.5)) — DuckDB ln() matches CPython's
    libm call; per-term score = idf * (tf * 2.2) / (tf + 1.2 * (1 - 0.75
    + 0.75 * (dl / avgdl))) with avgdl = float(total)/N, every operation
    in the SAME left-assoc order both sides; a query's score is the
    explicit ordered sum ((s0 + s1) + s2) with +0.0 for absent terms
    (np.where forces the sign so COALESCE(+0.0) agrees). Docs matching
    no query term are excluded (the SQL has no row for them)."""
    import math

    import ray

    terms: list[str] = [t for _, ts in BM25_QUERIES for t in ts]
    n_terms = len(terms)
    term_idx = {t: j for j, t in enumerate(terms)}

    def _tokenize(texts):
        """(tf matrix, dl vector) for a batch — one C-level findall per
        doc, counts scattered into the (n_docs, n_terms) tf matrix."""
        tf = np.zeros((len(texts), n_terms), dtype=np.float64)
        dl = np.zeros(len(texts), dtype=np.float64)
        for i, s in enumerate(texts):
            toks = re.findall(TOKEN_REGEX, s.lower())
            dl[i] = len(toks)
            for tok in toks:
                j = term_idx.get(tok)
                if j is not None:
                    tf[i, j] += 1.0
        return tf, dl

    def partial_stats(t: pa.Table) -> pa.Table:
        tf, dl = _tokenize(t.column("text").to_pylist())
        row = {"n_docs": pa.array([len(t)], pa.int64()),
               "total_tokens": pa.array([int(dl.sum())], pa.int64())}
        for j in range(n_terms):
            row[f"df_{j}"] = pa.array([int((tf[:, j] > 0).sum())], pa.int64())
        return pa.table(row)

    stats = _docs(sf_dir, ["text"]).map_batches(
        partial_stats, batch_format="pyarrow", **remote_kwargs())
    n_docs, total_tokens = 0, 0
    df = np.zeros(n_terms, dtype=np.int64)
    for b in stats.iter_batches(batch_format="pyarrow", batch_size=None):
        n_docs += int(pc.sum(b.column("n_docs")).as_py() or 0)
        total_tokens += int(pc.sum(b.column("total_tokens")).as_py() or 0)
        for j in range(n_terms):
            df[j] += int(pc.sum(b.column(f"df_{j}")).as_py() or 0)

    empty = pa.table({"query_id": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64()),
                      "rank": pa.array([], pa.int64())})
    if n_docs == 0 or total_tokens == 0:
        return empty

    avgdl = float(total_tokens) / n_docs           # SQL: CAST(total AS DOUBLE)/n
    idf = np.array(
        [math.log((n_docs - int(df[j]) + 0.5) / (int(df[j]) + 0.5))
         for j in range(n_terms)], dtype=np.float64)
    qcols = [(qid, [term_idx[t] for t in ts]) for qid, ts in BM25_QUERIES]

    def score_batch(t: pa.Table) -> pa.Table:
        tf, dl = _tokenize(t.column("text").to_pylist())
        ids = t.column("doc_id").to_numpy()
        if len(ids) == 0:
            return empty
        norm = 1 - BM25_B + BM25_B * (dl / avgdl)
        s = idf[None, :] * (tf * 2.2) / (tf + BM25_K1 * norm[:, None])
        s = np.where(tf > 0, s, 0.0)               # +0.0 like SQL COALESCE
        out = []
        for qid, cols in qcols:
            score = s[:, cols[0]]
            for c in cols[1:]:
                score = score + s[:, c]            # explicit ordered sum
            hit = (tf[:, cols] > 0).any(axis=1)
            h_ids, h_sc = ids[hit], score[hit]
            order = np.lexsort((h_ids, -h_sc))[:k]  # pinned partial top-k
            out.append(pa.table(
                {"query_id": pa.array([qid] * len(order), pa.string()),
                 "doc_id": pa.array(h_ids[order], pa.int64()),
                 "score": pa.array(h_sc[order], pa.float64())}))
        return pa.concat_tables(out)

    cand = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score_batch, batch_format="pyarrow", **remote_kwargs())
    parts = [b for b in cand.iter_batches(batch_format="pyarrow",
                                          batch_size=None) if len(b)]
    if not parts:
        return empty
    allc = pa.concat_tables(parts)
    out = []
    for qid, _ in qcols:
        sub = allc.filter(pc.equal(allc.column("query_id"), qid))
        ids = sub.column("doc_id").to_numpy()
        sc = sub.column("score").to_numpy()
        order = np.lexsort((ids, -sc))[:k]
        out.append(pa.table(
            {"query_id": pa.array([qid] * len(order), pa.string()),
             "doc_id": pa.array(ids[order], pa.int64()),
             "score": pa.array(sc[order], pa.float64()),
             "rank": pa.array(np.arange(1, len(order) + 1), pa.int64())}))
    return pa.concat_tables(out)
