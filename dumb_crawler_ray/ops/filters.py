"""Corpus quality-filter family over the `documents` table — the
C4/Gopher-style cleaning stages a large-scale training-data pipeline runs
between crawling and dedup (cf. Gopher rules, Rae et al. 2021; C4,
Raffel et al. 2020):

- `gopher_quality_flags` — per-doc rule features + keep decision
  (word-count band, mean-word-length band, bullet/ellipsis line
  fractions, alpha-word fraction, stopword hits)
- `pii_scrub_stats`     — email/phone detection + redaction accounting
- `contamination_overlap` — k-gram overlap of every corpus doc against a
  held-out benchmark subset (decontamination check)
- `line_dedup_stats`    — per-doc duplicated-line fraction against the
  GLOBAL line frequency table (boilerplate detector)
- `repetition_ratios`   — Gopher's within-doc repetition rules (top
  2-gram share, duplicated 3-gram share)
- `source_balanced_sample` — deterministic token-budget rebalancing
  across sources (hash-threshold sampling in exact integer arithmetic)
- `pack_sequences`      — greedy training-sequence packing into
  token-budget bins, deterministic across cluster sizes

Every rule is INTEGER arithmetic and every regex is RE2-compatible
(pyarrow.compute and DuckDB both run RE2), so each op has an exact
rows+schema+hash DuckDB oracle — no float rounding boundary, no
engine-specific regex dialect.

Scale shape: the first two are single `map_batches` passes (stateless,
vectorized Arrow kernels — zero shuffle). The last two are the
inverted-index shape shared with `ops/dedup.py`: explode to
(unit-hash, doc) rows, ONE keyed hash-repartition co-locates every
instance of a unit, block-local segment scans compute global unit
frequencies with per-block partial aggregation, and a final small
groupby-sum lands one row per doc. Nothing materializes the corpus on
the driver; shuffle volume is one row per (block, doc) partial — not
per token.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs
from .dedup import _shingles, _stable64_batch
from .text import TOKEN_REGEX, _docs


# ------------------------------------------------------------ gopher rules

STOP_RE = r"\b(the|and|of|to|a|in|is|it|that|for)\b"
NUMERIC_WORD_RE = r"\b[0-9]+\b"
BULLET_RE = r"(?m)^[-*•]"
ELLIPSIS_RE = r"(?m)(\.\.\.|…)$"

# integer rule constants (mirrored verbatim in the SQL oracle)
MIN_WORDS, MAX_WORDS = 40, 100_000
MIN_MEAN_LEN, MAX_MEAN_LEN = 3, 10          # 3·w ≤ chars ≤ 10·w
MAX_BULLET_NUM, MAX_BULLET_DEN = 9, 10      # bullet lines < 90%
MAX_ELLIPSIS_NUM, MAX_ELLIPSIS_DEN = 3, 10  # ellipsis lines < 30%
MIN_ALPHA_NUM, MIN_ALPHA_DEN = 4, 5         # alpha words ≥ 80%
MIN_STOP_HITS = 2


def gopher_features(text) -> dict:
    """The Gopher rule features + keep decision for a text array —
    shared by `gopher_quality_flags` and the curate pipeline's optional
    quality gate (`pipelines/curate.py`), so both paths apply byte-for-
    byte identical rules. Returns the feature columns plus `keep`."""
    n_words = pc.cast(pc.count_substring_regex(text, pattern=TOKEN_REGEX),
                      pa.int64())
    n_token_chars = pc.cast(
        pc.utf8_length(pc.replace_substring_regex(
            text, pattern=r"[^A-Za-z0-9]", replacement="")),
        pa.int64(),
    )
    n_newlines = pc.cast(pc.count_substring(text, pattern="\n"), pa.int64())
    n_lines = pc.add(n_newlines, 1)
    n_bullet = pc.cast(pc.count_substring_regex(text, pattern=BULLET_RE),
                       pa.int64())
    n_ellipsis = pc.cast(pc.count_substring_regex(text, pattern=ELLIPSIS_RE),
                         pa.int64())
    n_numeric = pc.cast(pc.count_substring_regex(text, pattern=NUMERIC_WORD_RE),
                        pa.int64())
    n_alpha = pc.subtract(n_words, n_numeric)
    n_stop = pc.cast(
        pc.count_substring_regex(pc.utf8_lower(text), pattern=STOP_RE),
        pa.int64(),
    )
    keep = pc.and_(
        pc.and_(
            pc.and_(pc.greater_equal(n_words, MIN_WORDS),
                    pc.less_equal(n_words, MAX_WORDS)),
            pc.and_(
                pc.less_equal(pc.multiply(pa.scalar(MIN_MEAN_LEN, pa.int64()),
                                          n_words), n_token_chars),
                pc.less_equal(n_token_chars,
                              pc.multiply(pa.scalar(MAX_MEAN_LEN, pa.int64()),
                                          n_words)),
            ),
        ),
        pc.and_(
            pc.and_(
                pc.less_equal(pc.multiply(pa.scalar(MAX_BULLET_DEN, pa.int64()),
                                          n_bullet),
                              pc.multiply(pa.scalar(MAX_BULLET_NUM, pa.int64()),
                                          n_lines)),
                pc.less_equal(pc.multiply(pa.scalar(MAX_ELLIPSIS_DEN, pa.int64()),
                                          n_ellipsis),
                              pc.multiply(pa.scalar(MAX_ELLIPSIS_NUM, pa.int64()),
                                          n_lines)),
            ),
            pc.and_(
                pc.greater_equal(pc.multiply(pa.scalar(MIN_ALPHA_DEN, pa.int64()),
                                             n_alpha),
                                 pc.multiply(pa.scalar(MIN_ALPHA_NUM, pa.int64()),
                                             n_words)),
                pc.greater_equal(n_stop, MIN_STOP_HITS),
            ),
        ),
    )
    return {
        "n_words": n_words,
        "n_token_chars": n_token_chars,
        "n_lines": n_lines,
        "n_bullet_lines": n_bullet,
        "n_ellipsis_lines": n_ellipsis,
        "n_alpha_words": n_alpha,
        "n_stop_hits": n_stop,
        "keep": keep,
    }


def gopher_quality_flags(sf_dir: str):
    """Gopher-style per-document quality features and keep decision.

    One stateless vectorized `map_batches` pass — every feature is one
    RE2 kernel over the batch, every threshold is integer arithmetic
    (`3·n_words ≤ n_token_chars` instead of a float mean), so the DuckDB
    oracle reproduces the keep column bit-exactly."""

    def fn(t: pa.Table) -> pa.Table:
        feats = gopher_features(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"), **feats})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", **remote_kwargs()
    ).sort("doc_id")


# ------------------------------------------------------------- PII scrub

EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?[0-9][0-9\-\s()]{5,}[0-9]"


def pii_scrub_stats(sf_dir: str, inject: bool = False):
    """Email/phone detection + redaction accounting per document.

    Phones are counted on the email-REDACTED text (fixed order in both
    engines, so a digit-bearing email local part can never double-count
    as a phone). `inject=True` deterministically appends synthetic PII
    (doc_id % 7 → an email, doc_id % 11 → a phone) IN-FLIGHT before
    scrubbing — the registry uses it because the synthetic corpus
    contains no real PII, and the same concat expression runs in the SQL
    oracle, so the evidence is non-vacuous without any derived fixture."""

    def fn(t: pa.Table) -> pa.Table:
        text = t.column("text")
        if inject:
            ids_np = t.column("doc_id").to_numpy()
            ids_s = pc.cast(t.column("doc_id"), pa.string())
            email_part = pc.if_else(
                pa.array(ids_np % 7 == 0),
                pc.binary_join_element_wise(
                    pa.array([" contact user"] * len(t)), ids_s,
                    pa.array(["@mail.example.com now"] * len(t)), ""),
                pa.scalar(""),
            )
            phone_part = pc.if_else(
                pa.array(ids_np % 11 == 0),
                pa.scalar(" call +1 555-0199 today"),
                pa.scalar(""),
            )
            text = pc.binary_join_element_wise(text, email_part, phone_part, "")
        n_emails = pc.cast(pc.count_substring_regex(text, pattern=EMAIL_RE),
                           pa.int64())
        no_email = pc.replace_substring_regex(text, pattern=EMAIL_RE,
                                              replacement="<EMAIL>")
        n_phones = pc.cast(pc.count_substring_regex(no_email, pattern=PHONE_RE),
                           pa.int64())
        redacted = pc.replace_substring_regex(no_email, pattern=PHONE_RE,
                                              replacement="<PHONE>")
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_emails": n_emails,
                "n_phones": n_phones,
                "redacted_len": pc.cast(pc.utf8_length(redacted), pa.int64()),
                "has_pii": pc.greater(pc.add(n_emails, n_phones), 0),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", **remote_kwargs()
    ).sort("doc_id")


# ------------------------------------------------- benchmark contamination

CONTAM_K = 8          # k-gram width of the overlap check
BENCH_MOD = 10        # doc_id % BENCH_MOD == 0 → held-out benchmark doc
CONTAM_NUM, CONTAM_DEN = 1, 10  # contaminated when n_shared/n_shingles ≥ 10%


def contamination_overlap(sf_dir: str, n_partitions: int | None = None):
    """Benchmark-contamination check: for every NON-benchmark document,
    how many of its distinct `CONTAM_K`-token shingles also appear in ANY
    benchmark document (the held-out subset doc_id % BENCH_MOD == 0), and
    a ≥10% overlap flag — the decontamination pass a training corpus runs
    against its eval suites.

    Shape: explode (shingle-hash, doc, is_bench) rows → ONE keyed
    hash-repartition on the shingle → block-local segment scan emits a
    per-(block, doc) PARTIAL count of shingles that co-locate with a
    benchmark row → groupby(doc).sum. A parallel base pass emits
    (doc, n_shingles, 0) so zero-overlap docs keep a row. Shingle TEXT
    never shuffles (64-bit identity hashes), the benchmark set is never
    broadcast, and the driver never sees more than the final one-row-per-
    doc table."""
    from ray.data.aggregate import Sum

    def explode(t: pa.Table) -> pa.Table:
        # ONE vectorized hash call for the whole batch's shingles (a
        # per-doc hash_array call pays pandas dispatch ~n_docs times)
        strs, id_col, bench_col = [], [], []
        for doc_id, text_ in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()):
            hs = _shingles(text_, CONTAM_K)
            if not hs:
                continue
            strs.extend(hs)
            id_col.extend([doc_id] * len(hs))
            bench_col.extend([doc_id % BENCH_MOD == 0] * len(hs))
        vals = (_stable64_batch(strs) & np.uint64((1 << 63) - 1)).astype(np.int64)
        return pa.table(
            {
                "sh": pa.array(vals, pa.int64()),
                "doc_id": pa.array(id_col, pa.int64()),
                "is_bench": pa.array(bench_col, pa.bool_()),
            }
        )

    def shared_in_block(b: pa.Table) -> pa.Table:
        """Every row of a shingle is co-located here: mark non-bench rows
        whose segment contains ≥1 bench row, pre-aggregate per doc."""
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "shared_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        sh = b.column("sh").to_numpy()
        ids = b.column("doc_id").to_numpy()
        bench = b.column("is_bench").to_numpy(zero_copy_only=False)
        o = np.argsort(sh, kind="stable")
        sh, ids, bench = sh[o], ids[o], bench[o]
        seg_id = np.cumsum(np.concatenate([[False], sh[1:] != sh[:-1]]))
        seg_has_bench = np.zeros(seg_id[-1] + 1 if len(seg_id) else 0, dtype=bool)
        np.logical_or.at(seg_has_bench, seg_id, bench)
        hit = seg_has_bench[seg_id] & ~bench
        if not hit.any():
            return empty
        u, cnt = np.unique(ids[hit], return_counts=True)
        return pa.table(
            {"doc_id": pa.array(u, pa.int64()),
             "shared_part": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def base_rows(t: pa.Table) -> pa.Table:
        ids, ns = [], []
        for doc_id, text_ in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()):
            if doc_id % BENCH_MOD != 0:
                ids.append(doc_id)
                ns.append(len(_shingles(text_, CONTAM_K)))
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_part": pa.array(ns, pa.int64()),
             "shared_part": pa.array([0] * len(ids), pa.int64())}
        )

    if n_partitions is None:
        n_partitions = hash_partition_count()
    shared = keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["sh"])
        .map_batches(shared_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
        .map_batches(
            lambda b: b.append_column(
                "n_part", pa.array([0] * len(b), pa.int64())),
            batch_format="pyarrow", **remote_kwargs())
    ))
    base = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        base_rows, batch_format="pyarrow", **remote_kwargs())
    agg = (
        base.union(shared.select_columns(["doc_id", "n_part", "shared_part"]))
        .groupby("doc_id")
        .aggregate(Sum("n_part", alias_name="n_shingles"),
                   Sum("shared_part", alias_name="n_shared"))
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_shingles")
        s = t.column("n_shared")
        contaminated = pc.and_(
            pc.greater(n, 0),
            pc.greater_equal(pc.multiply(pa.scalar(CONTAM_DEN, pa.int64()), s),
                             pc.multiply(pa.scalar(CONTAM_NUM, pa.int64()), n)),
        )
        return pa.table(
            {"doc_id": t.column("doc_id"), "n_shingles": n,
             "n_shared": s, "contaminated": contaminated}
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


# ------------------------------------------------------ line-level dedup

LINE_STRIP = " \t\r"  # explicit strip set — DuckDB trim() mirrors it exactly
BOILER_NUM, BOILER_DEN = 1, 2  # boilerplate when dup lines ≥ half


def _doc_lines(text: str, chunk: int) -> list[str]:
    if chunk > 0:
        return [text[i:i + chunk] for i in range(0, len(text), chunk)]
    out = []
    for ln in text.split("\n"):
        ln = ln.strip(LINE_STRIP)
        if ln:
            out.append(ln)
    return out


def line_dedup_stats(sf_dir: str, chunk: int = 0,
                     n_partitions: int | None = None):
    """Per-document duplicated-line fraction against the GLOBAL line
    frequency table — the C4-style boilerplate detector (a line instance
    is `dup` when the whole corpus contains it ≥2 times).

    `chunk > 0` switches the unit from newline-split lines to fixed
    `chunk`-character windows — the mode the registry query uses because
    the synthetic corpus is single-line (near-duplicate docs then share
    aligned windows, keeping the evidence non-vacuous); production text
    uses the default newline mode.

    Shape: identical to `contamination_overlap` — explode line-hash
    rows, one keyed repartition co-locates all instances of a line,
    block-local segment totals mark dup instances with per-(block, doc)
    partial counts, a final groupby-sum lands one row per doc. Line TEXT
    never shuffles; global line counts are never collected anywhere."""
    from ray.data.aggregate import Sum

    def explode(t: pa.Table) -> pa.Table:
        # one batch-wide hash call (see contamination_overlap.explode)
        strs, id_col = [], []
        for doc_id, text_ in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()):
            lines = _doc_lines(text_, chunk)
            if lines:
                strs.extend(lines)
                id_col.extend([doc_id] * len(lines))
        vals = (_stable64_batch(strs) & np.uint64((1 << 63) - 1)).astype(np.int64)
        return pa.table(
            {"lh": pa.array(vals, pa.int64()),
             "doc_id": pa.array(id_col, pa.int64())}
        )

    def dup_in_block(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "dup_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        lh = b.column("lh").to_numpy()
        ids = b.column("doc_id").to_numpy()
        o = np.argsort(lh, kind="stable")
        lh, ids = lh[o], ids[o]
        seg_id = np.cumsum(np.concatenate([[False], lh[1:] != lh[:-1]]))
        seg_len = np.bincount(seg_id)
        dup = seg_len[seg_id] >= 2
        if not dup.any():
            return empty
        u, cnt = np.unique(ids[dup], return_counts=True)
        return pa.table(
            {"doc_id": pa.array(u, pa.int64()),
             "dup_part": pa.array(cnt.astype(np.int64), pa.int64())}
        )

    def base_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        ns = [len(_doc_lines(s, chunk)) for s in t.column("text").to_pylist()]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "lines_part": pa.array(ns, pa.int64()),
             "dup_part": pa.array([0] * len(ids), pa.int64())}
        )

    if n_partitions is None:
        n_partitions = hash_partition_count()
    dups = keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["lh"])
        .map_batches(dup_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
        .map_batches(
            lambda b: b.append_column(
                "lines_part", pa.array([0] * len(b), pa.int64())),
            batch_format="pyarrow", **remote_kwargs())
    ))
    base = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        base_rows, batch_format="pyarrow", **remote_kwargs())
    agg = (
        base.union(dups.select_columns(["doc_id", "lines_part", "dup_part"]))
        .groupby("doc_id")
        .aggregate(Sum("lines_part", alias_name="n_lines"),
                   Sum("dup_part", alias_name="n_dup_lines"))
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_lines")
        d = t.column("n_dup_lines")
        boiler = pc.and_(
            pc.greater(n, 0),
            pc.greater_equal(pc.multiply(pa.scalar(BOILER_DEN, pa.int64()), d),
                             pc.multiply(pa.scalar(BOILER_NUM, pa.int64()), n)),
        )
        return pa.table(
            {"doc_id": t.column("doc_id"), "n_lines": n,
             "n_dup_lines": d, "boilerplate": boiler}
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


# ------------------------------------------------- within-doc repetition

TOP2_NUM, TOP2_DEN = 1, 5    # top 2-gram ≤ 20% of 2-gram instances
DUP3_NUM, DUP3_DEN = 9, 50   # duplicated 3-gram instances ≤ 18%


def repetition_ratios(sf_dir: str):
    """Gopher's WITHIN-document repetition rules (the complement of the
    cross-corpus `line_dedup_stats`): the most-frequent 2-gram's share of
    all 2-gram instances, and the share of 3-gram instances whose gram
    repeats inside the doc. Counts are integers and the keep rule is
    integer arithmetic (5·top2 ≤ n2 ∧ 50·dup3 ≤ 9·n3), so the DuckDB
    oracle replays it exactly.

    One stateless map_batches pass — repetition is per-doc state, so no
    shuffle exists anywhere; the per-doc token scan is the same
    lowercase [a-z0-9]+ stream every shingle op uses."""
    import re

    tok_re = re.compile(TOKEN_REGEX)

    def grams(toks, k):
        return [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        n2s, t2s, n3s, d3s = [], [], [], []
        for s in t.column("text").to_pylist():
            toks = [w.lower() for w in tok_re.findall(s)]
            g2 = grams(toks, 2)
            g3 = grams(toks, 3)
            if g2:
                _, c2 = np.unique(np.asarray(g2, dtype=object),
                                  return_counts=True)
                n2s.append(len(g2))
                t2s.append(int(c2.max()))
            else:
                n2s.append(0)
                t2s.append(0)
            if g3:
                _, c3 = np.unique(np.asarray(g3, dtype=object),
                                  return_counts=True)
                n3s.append(len(g3))
                d3s.append(int(c3[c3 >= 2].sum()))
            else:
                n3s.append(0)
                d3s.append(0)
        n2 = pa.array(n2s, pa.int64())
        t2 = pa.array(t2s, pa.int64())
        n3 = pa.array(n3s, pa.int64())
        d3 = pa.array(d3s, pa.int64())
        keep = pc.and_(
            pc.less_equal(pc.multiply(pa.scalar(TOP2_DEN, pa.int64()), t2),
                          pc.multiply(pa.scalar(TOP2_NUM, pa.int64()), n2)),
            pc.less_equal(pc.multiply(pa.scalar(DUP3_DEN, pa.int64()), d3),
                          pc.multiply(pa.scalar(DUP3_NUM, pa.int64()), n3)),
        )
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_2grams": n2, "top2_count": t2,
             "n_3grams": n3, "dup3_count": d3, "keep": keep}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", **remote_kwargs()
    ).sort("doc_id")


# --------------------------------------------- source mixture rebalancing

SAMPLE_SCALE = 1 << 64  # hash space; keep iff hash·total_s < min_total·2^64


def source_balanced_sample(sf_dir: str):
    """Deterministic mixture rebalancing: downsample every `source` to the
    SMALLEST source's token budget, so the kept corpus is token-balanced
    across sources. A doc is kept iff

        md5_u64(text) · total_tokens(source) < min_source_total · 2^64

    — i.e. hash-threshold sampling at probability min_total/total_s, in
    EXACT integer arithmetic (Python bigints / DuckDB HUGEINT), so the
    kept set is independent of partitioning, cluster size and run count,
    and the DuckDB oracle reproduces it row-for-row.

    Scale shape: pass 1 is a partial-aggregate combiner (per-batch
    per-source token sums → tiny groupby — rows = sources, not docs);
    the per-source totals map is broadcast ONCE via `ray.put`; pass 2 is
    a stateless map_batches filter. No doc-level shuffle at all."""
    import hashlib

    import ray
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(t.column("text"), pattern=TOKEN_REGEX),
            pa.int64(),
        )
        part = pa.table({"source": t.column("source"), "n_part": n_tok})
        agg = part.group_by("source").aggregate([("n_part", "sum")])
        return pa.table({"source": agg.column("source"),
                         "n_part": pc.cast(agg.column("n_part_sum"),
                                           pa.int64())})

    totals_ds = (
        _docs(sf_dir, ["source", "text"])
        .map_batches(partial, batch_format="pyarrow", **remote_kwargs())
        .groupby("source")
        .aggregate(Sum("n_part", alias_name="total"))
    )
    totals = {r["source"]: int(r["total"]) for r in totals_ds.take_all()}
    min_total = min(totals.values()) if totals else 0
    totals_ref = ray.put(totals)

    def keep_fn(t: pa.Table) -> pa.Table:
        tm = ray.get(totals_ref)
        texts = t.column("text").to_pylist()
        srcs = t.column("source").to_pylist()
        n_tok = pc.cast(
            pc.count_substring_regex(t.column("text"), pattern=TOKEN_REGEX),
            pa.int64(),
        )
        mask = []
        for s, src in zip(texts, srcs):
            h = int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8],
                               "big")
            mask.append(h * tm[src] < min_total * SAMPLE_SCALE)
        out = pa.table(
            {"doc_id": t.column("doc_id"), "source": t.column("source"),
             "n_tokens": n_tok}
        )
        return out.filter(pa.array(mask))

    return _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        keep_fn, batch_format="pyarrow", **remote_kwargs()
    ).sort("doc_id")


# ----------------------------------------------- epoch-weighted mixture

# per-source epoch weights in SIXTEENTHS, picked by md5(source) % len —
# 2.0×, 1.0×, 0.5×, 0.25× epochs (the LLaMA-style "sampling proportion"
# column of a training-mixture table, hash-derived here so the op works
# over any source vocabulary without a config table)
MIX_W16_LADDER = (32, 16, 8, 4)


def dataset_mixture(sf_dir: str):
    """Epoch-weighted training-data mixture (the LLaMA/Pile recipe):
    every source gets an epoch weight w (here ``MIX_W16_LADDER[
    md5_u64(source) % 4] / 16``); a doc is emitted once per FULL epoch
    (epoch = 0 .. ⌊w⌋−1) plus once more in the final fractional epoch iff

        md5_u64(text) · 16  <  (w16 mod 16) · 2^64

    — hash-threshold sampling at the fractional rate in EXACT integer
    arithmetic (Python bigints / DuckDB HUGEINT), so the mixture is a
    pure function of the row: independent of partitioning, cluster size
    and run count, and the DuckDB oracle reproduces it row-for-row.

    Scale shape: a stateless `map_batches` flat-emit — ZERO shuffles,
    no per-source totals pass (the weight is hash-derived, not
    frequency-derived; `source_balanced_sample` is the two-pass
    frequency-driven sibling). Output rows ≈ mean(w) × input rows.
    Fully vectorized: one md5 per DISTINCT source + one batched text
    md5; the fractional test `h·16 < frac16·2^64` is evaluated as
    `h < frac16·2^60` (both sides exactly divisible by 16) so it stays
    inside uint64."""
    from .dedup import _md5_64_batch

    ladder = np.asarray(MIX_W16_LADDER, dtype=np.int64)

    def emit(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "source": pa.array([], pa.string()),
             "epoch": pa.array([], pa.int64()),
             "weight_16": pa.array([], pa.int64())})
        if len(t) == 0:
            return empty
        ids = t.column("doc_id").to_numpy()
        srcs = np.asarray(t.column("source").to_pylist(), dtype=object)
        uniq, inv = np.unique(srcs, return_inverse=True)
        w16 = ladder[(_md5_64_batch(uniq) % np.uint64(len(ladder)))
                     .astype(np.int64)][inv]
        ht = _md5_64_batch(t.column("text").to_pylist())
        frac = (w16 % 16).astype(np.uint64) << np.uint64(60)
        n_epochs = (w16 // 16) + (ht < frac)
        total = int(n_epochs.sum())
        if total == 0:
            return empty
        rep = np.repeat(np.arange(len(ids)), n_epochs)
        starts = np.cumsum(n_epochs) - n_epochs
        epoch = np.arange(total) - np.repeat(starts, n_epochs)
        return pa.table(
            {"doc_id": pa.array(ids[rep], pa.int64()),
             "source": pa.array(srcs[rep].tolist(), pa.string()),
             "epoch": pa.array(epoch, pa.int64()),
             "weight_16": pa.array(w16[rep], pa.int64())})

    return _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        emit, batch_format="pyarrow", **remote_kwargs()
    ).sort(["doc_id", "epoch"])


# ---------------------------------------------------- document chunking

CHUNK_TOKENS = 64   # tokens per chunk
CHUNK_OVERLAP = 16  # tokens shared with the previous chunk


def chunk_documents(sf_dir: str, chunk: int = CHUNK_TOKENS,
                    overlap: int = CHUNK_OVERLAP):
    """Overlapping-window document chunking — the RAG / embedding-prep
    stage that precedes vectorization of long documents: chunk i covers
    tokens [i·stride, i·stride+chunk), stride = chunk − overlap, emitted
    while the start is inside the document. Each chunk carries an md5 of
    its space-joined (lowercased) tokens, the chunk-level identity
    downstream dedup/embedding keys on.

    Scale shape: a stateless `map_batches` flat-emit, ZERO shuffles —
    pure integer window arithmetic plus one md5 per chunk, replayed
    verbatim by the DuckDB oracle (list_slice + array_to_string)."""
    import hashlib

    stride = chunk - overlap
    assert stride > 0

    def emit(t: pa.Table) -> pa.Table:
        out_id, out_ci, out_st, out_n, out_h = [], [], [], [], []
        tok_re = re.compile(TOKEN_REGEX)
        for did, txt in zip(t.column("doc_id").to_numpy(),
                            t.column("text").to_pylist()):
            toks = tok_re.findall(txt.lower())
            n = len(toks)
            ci = 0
            for start in range(0, n, stride):
                piece = toks[start:start + chunk]
                out_id.append(int(did))
                out_ci.append(ci)
                out_st.append(start)
                out_n.append(len(piece))
                out_h.append(hashlib.md5(
                    " ".join(piece).encode("utf-8")).hexdigest())
                ci += 1
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()),
             "chunk_idx": pa.array(out_ci, pa.int64()),
             "start_tok": pa.array(out_st, pa.int64()),
             "n_tok": pa.array(out_n, pa.int64()),
             "chunk_hash": pa.array(out_h, pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        emit, batch_format="pyarrow", **remote_kwargs()
    ).sort(["doc_id", "chunk_idx"])


# ------------------------------------------------- eval decontamination

CONTAM_CLONE_PERIOD = 50   # every 50th doc (an eval member) cloned to train
CONTAM_CLONE_OFFSET = 1_000_001  # offset breaks doc_id % 10 ≡ 0 (eval-ness)


def eval_decontaminate(sf_dir: str):
    """Document-level train/eval decontamination (the companion of the
    k-gram `contamination_overlap`): a TRAIN doc is contaminated when
    its exact text fingerprint (md5 of lowercased text) also appears in
    the EVAL split (doc_id % 10 == 0, the benchmark convention shared
    with X44). To make the check non-vacuous on the fixture, every
    ``CONTAM_CLONE_PERIOD``-th doc — an eval member — is cloned
    in-flight into train under doc_id + CONTAM_CLONE_OFFSET (the
    pii_scrub precedent: the same UNION ALL derivation in SQL, no
    derived fixture), so those clones MUST be flagged.

    Scale shape (the size-gated anti-join): the eval fingerprint set is
    collected and broadcast once below `BROADCAST_ROW_LIMIT`; above it
    fingerprints ride the dataset — eval fp rows ∪ train rows co-locate
    in ONE keyed repartition on fp and each block flags locally. Both
    paths equivalence-tested."""
    import hashlib

    import ray

    from .relational import BROADCAST_ROW_LIMIT

    def rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        texts = t.column("text").to_pylist()
        fps = [hashlib.md5(s.lower().encode("utf-8")).hexdigest()
               for s in texts]
        clone_mask = ids % CONTAM_CLONE_PERIOD == 0
        out_ids = np.concatenate([ids, ids[clone_mask]
                                  + CONTAM_CLONE_OFFSET])
        out_fps = fps + [fps[i] for i in np.flatnonzero(clone_mask)]
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                         "fp": pa.array(out_fps, pa.string())})

    def base_ds():
        # the distributed path rebuilds this chain inside keyed_colocate
        return _docs(sf_dir, ["doc_id", "text"]).map_batches(
            rows, batch_format="pyarrow", **remote_kwargs())

    base = base_ds()

    def eval_fps_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        ev = t.filter(pa.array(ids % 10 == 0))
        fps = np.unique(np.asarray(ev.column("fp").to_pylist(),
                                   dtype=object))
        return pa.table({"fp": pa.array(fps.tolist(), pa.string())})

    # ONE streaming pass over per-block distinct fps; abort to the
    # distributed path the moment the set outgrows the gate (so the gate
    # is exact on the DISTINCT count, with no pre-pass)
    fp_set: set | None = set()
    for b in base.map_batches(eval_fps_partial, batch_format="pyarrow",
                              **remote_kwargs()).iter_batches(
            batch_format="pyarrow", batch_size=None):
        fp_set.update(b.column("fp").to_pylist())
        if len(fp_set) > BROADCAST_ROW_LIMIT:
            fp_set = None
            break
    if fp_set is not None:
        fp_ref = ray.put(fp_set)

        def flag(t: pa.Table) -> pa.Table:
            fps = ray.get(fp_ref)
            ids = t.column("doc_id").to_numpy()
            train = t.filter(pa.array(ids % 10 != 0))
            contaminated = [f in fps for f in
                            train.column("fp").to_pylist()]
            return pa.table(
                {"doc_id": train.column("doc_id"),
                 "contaminated": pa.array(contaminated, pa.bool_())})

        return base.map_batches(flag, batch_format="pyarrow",
                                **remote_kwargs()).sort("doc_id")

    # distributed path: eval fps ∪ train rows co-locate on fp
    def split_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        is_eval = ids % 10 == 0
        ev = t.filter(pa.array(is_eval))
        tr = t.filter(pa.array(~is_eval))
        return pa.table(
            {"doc_id": pa.array(
                np.concatenate([np.full(len(ev), -1, np.int64),
                                tr.column("doc_id").to_numpy()]),
                pa.int64()),
             "fp": pa.array(ev.column("fp").to_pylist()
                            + tr.column("fp").to_pylist(), pa.string())})

    def flag_block(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "contaminated": pa.array([], pa.bool_())})
        if len(b) == 0:
            return empty
        ids = b.column("doc_id").to_numpy()
        fps = np.asarray(b.column("fp").to_pylist(), dtype=object)
        ev_fps = fps[ids < 0]
        train = ids >= 0
        return pa.table(
            {"doc_id": pa.array(ids[train], pa.int64()),
             "contaminated": pa.array(np.isin(fps[train], ev_fps),
                                      pa.bool_())})

    n_parts = max(2, min(8, hash_partition_count()))
    return keyed_colocate(lambda: (
        base_ds().map_batches(split_rows, batch_format="pyarrow",
                              **remote_kwargs())
        .repartition(n_parts, keys=["fp"])
        .map_batches(flag_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    )).sort("doc_id")


# ------------------------------------------------------ sequence packing

PACK_BUDGET = 512   # token budget per packed training sequence
PACK_GROUP = 256    # docs per pack group (doc_id // PACK_GROUP)


def greedy_pack(ids, toks, grps, budget):
    """Greedy bin assignment in (grp, doc_id) order — the ONLY packing
    authority (pack_block and the tests both call it). Returns the three
    arrays re-sorted into scan order with `bins[i] = grp·1000 + bin`.
    Input row order is irrelevant: the lexsort makes assignment a pure
    function of the (id, tokens, group) SET."""
    ids = np.asarray(ids, dtype=np.int64)
    toks = np.asarray(toks, dtype=np.int64)
    grps = np.asarray(grps, dtype=np.int64)
    o = np.lexsort((ids, grps))
    ids, toks, grps = ids[o], toks[o], grps[o]
    bins = np.empty(len(ids), dtype=np.int64)
    acc = 0
    cur_bin = 0
    prev_grp = None
    for i in range(len(ids)):
        if grps[i] != prev_grp:
            prev_grp = grps[i]
            acc, cur_bin = toks[i], 0
        elif acc + toks[i] > budget:
            acc, cur_bin = toks[i], cur_bin + 1
        else:
            acc += toks[i]
        bins[i] = grps[i] * 1000 + cur_bin
    return ids, toks, bins


def pack_sequences(sf_dir: str, budget: int = PACK_BUDGET,
                   group: int = PACK_GROUP, n_partitions: int | None = None):
    """Training-sequence packing: assign every document to a packed bin of
    at most `budget` tokens (an over-budget doc gets a bin alone), packing
    GREEDILY in doc_id order WITHIN fixed arithmetic groups
    (doc_id // group). Because group membership and in-group order are
    pure arithmetic — never partition boundaries — the bin assignment is
    identical across cluster sizes, block splits and reruns, and a
    recursive-CTE DuckDB oracle replays the greedy scan exactly.

    Shape: map_batches computes (doc, n_tokens, grp) → ONE keyed
    repartition on grp co-locates each group → block-local sort + greedy
    cumulative scan per group segment → bin_id = grp·1000 + in-group bin.
    Groups are small (`group` docs) so no segment scan ever sees more
    than `group` rows; shuffle volume is one row per doc of three ints."""

    def explode(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(t.column("text"), pattern=TOKEN_REGEX),
            pa.int64(),
        )
        ids = t.column("doc_id").to_numpy()
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "n_tokens": n_tok,
             "grp": pa.array(ids // group, pa.int64())}
        )

    def pack_block(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "bin_id": pa.array([], pa.int64())})
        ids, toks, bins = greedy_pack(
            b.column("doc_id").to_numpy(),
            b.column("n_tokens").to_numpy(),
            b.column("grp").to_numpy(), budget,
        )
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "n_tokens": pa.array(toks, pa.int64()),
             "bin_id": pa.array(bins, pa.int64())}
        )

    if n_partitions is None:
        n_partitions = hash_partition_count()
    packed = keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["grp"])
        .map_batches(pack_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    ))
    return packed.sort("doc_id")


# --------------------------------------- cross-doc duplicated-text share

DUP_K = 8           # token width of the exact-substring unit
DUP_SHARE_DEN = 5   # flag when dup positions ≥ 1/DEN of all positions


def duplicated_text_share(sf_dir: str, n_partitions: int | None = None):
    """Exact-substring dedup rate (Lee et al., "Deduplicating Training
    Data Makes Language Models Better"): for every document, how many of
    its `DUP_K`-token gram POSITIONS (with multiplicity — not distinct
    shingles) carry a gram that also occurs in at least one OTHER
    document, plus a ≥1/DUP_SHARE_DEN share flag. Within-doc repeats do
    NOT count (that is `repetition_ratios`); this measures cross-document
    boilerplate — the signal substring-level dedup acts on.

    Shape (the `contamination_overlap` machinery, self-join flavored):
    explode one (gram-hash, doc, count) row per DISTINCT gram per doc —
    multiplicity rides along as an int, gram text never shuffles — → ONE
    keyed repartition on the hash co-locates every doc holding a gram →
    block-local segment scan: a segment with ≥2 rows (≥2 docs) marks all
    its rows' counts duplicated; per-(block, doc) partial sums →
    groupby(doc).sum unioned with a (doc, n_grams, 0) base pass so
    clean and short (< DUP_K tokens) docs keep a row."""
    from ray.data.aggregate import Sum

    def explode(t: pa.Table) -> pa.Table:
        strs, bounds = [], [0]
        doc_ids = t.column("doc_id").to_pylist()
        for text_ in t.column("text").to_pylist():
            toks = re.findall(TOKEN_REGEX, text_.lower())
            strs.extend(" ".join(toks[i:i + DUP_K])
                        for i in range(len(toks) - DUP_K + 1))
            bounds.append(len(strs))
        hashed = (_stable64_batch(strs)
                  & np.uint64((1 << 63) - 1)).astype(np.int64)
        sh_col, id_col, cnt_col = [], [], []
        for doc_id, lo, hi in zip(doc_ids, bounds[:-1], bounds[1:]):
            u, c = np.unique(hashed[lo:hi], return_counts=True)
            sh_col.append(u)
            id_col.append(np.full(len(u), doc_id, dtype=np.int64))
            cnt_col.append(c.astype(np.int64))
        cat = (np.concatenate(x) if x else np.empty(0, np.int64)
               for x in (sh_col, id_col, cnt_col))
        sh, ids, cnt = cat
        return pa.table({"sh": pa.array(sh, pa.int64()),
                         "doc_id": pa.array(ids, pa.int64()),
                         "cnt": pa.array(cnt, pa.int64())})

    def dup_in_block(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "dup_grams": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        sh = b.column("sh").to_numpy()
        ids = b.column("doc_id").to_numpy()
        cnt = b.column("cnt").to_numpy()
        o = np.argsort(sh, kind="stable")
        sh, ids, cnt = sh[o], ids[o], cnt[o]
        seg_id = np.cumsum(np.concatenate([[False], sh[1:] != sh[:-1]]))
        seg_rows = np.bincount(seg_id)
        dup = seg_rows[seg_id] >= 2  # ≥2 docs share this gram
        if not dup.any():
            return empty
        u, inv = np.unique(ids[dup], return_inverse=True)
        sums = np.zeros(len(u), dtype=np.int64)
        np.add.at(sums, inv, cnt[dup])
        return pa.table({"doc_id": pa.array(u, pa.int64()),
                         "dup_grams": pa.array(sums, pa.int64())})

    def base_rows(t: pa.Table) -> pa.Table:
        ids, ns = [], []
        for doc_id, text_ in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()):
            n_tok = len(re.findall(TOKEN_REGEX, text_.lower()))
            ids.append(doc_id)
            ns.append(max(0, n_tok - DUP_K + 1))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_grams": pa.array(ns, pa.int64()),
                         "dup_grams": pa.array([0] * len(ids), pa.int64())})

    if n_partitions is None:
        n_partitions = hash_partition_count()
    dup = keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["sh"])
        .map_batches(dup_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
        .map_batches(
            lambda b: b.append_column(
                "n_grams", pa.array([0] * len(b), pa.int64())),
            batch_format="pyarrow", **remote_kwargs())
    ))
    base = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        base_rows, batch_format="pyarrow", **remote_kwargs())

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("sum(n_grams)")
        d = t.column("sum(dup_grams)")
        flag = pc.and_(
            pc.greater(n, 0),
            pc.greater_equal(pc.multiply(d, pa.scalar(DUP_SHARE_DEN,
                                                      pa.int64())), n))
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_grams": n, "dup_grams": d, "dup_flag": flag})

    return (
        base.union(dup.select_columns(["doc_id", "n_grams", "dup_grams"]))
        .groupby("doc_id")
        .aggregate(Sum("n_grams"), Sum("dup_grams"))
        .map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


# ------------------------------------ hashed linear quality classifier

QC_BUCKETS = 1 << 20   # hashed feature space (fastText-style)
QC_MUL = 2654435761    # Knuth multiplicative constant (bucket→weight)
QC_ADD = 97
QC_MOD = 1000003       # prime weight range
QC_CENTER = QC_MOD // 2  # 500001: weights land in [-500001, 500001]


def quality_classifier_scores(sf_dir: str):
    """fastText-SHAPED quality classifier stand-in — see
    `quality_classifier_scores_unsorted` for the scoring pass; this public
    query adds only the presentation sort by doc_id (SQL-oracle order)."""
    return quality_classifier_scores_unsorted(sf_dir).sort("doc_id")


def quality_classifier_scores_unsorted(sf_dir: str):
    """Hashed token-bigram features × a deterministic integer weight
    table, margin = Σ w[b] over bigram positions, keep = margin ≥ 0. The
    real model-scoring seam is the weight function — a deployment swaps
    in trained weights (`ray.put` the array, look up per bucket) without
    touching the pipeline shape; here weights are the pure arithmetic
    `((b·QC_MUL + QC_ADD) mod QC_MOD) − QC_CENTER` so the ENTIRE
    inference pass replays in DuckDB (bucket ids are md5-derived — the
    minhash pact — and b < 2^20 keeps every product inside int64 on both
    sides).

    Zero shuffle: scoring is per-doc state, one stateless vectorized
    map_batches pass (hash call batched across the whole block). NO
    output sort — consumers that re-shuffle anyway (e.g.
    `ann.filtered_ann_topk`'s keyed repartition) use this directly to
    avoid a wasted all-to-all."""
    from .dedup import _md5_64_batch

    def score(t: pa.Table) -> pa.Table:
        strs, bounds = [], [0]
        doc_ids = t.column("doc_id").to_pylist()
        for text_ in t.column("text").to_pylist():
            toks = re.findall(TOKEN_REGEX, text_.lower())
            strs.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
            bounds.append(len(strs))
        hashed = _md5_64_batch(strs)
        b = (hashed % np.uint64(QC_BUCKETS)).astype(np.int64)
        w = (b * QC_MUL + QC_ADD) % QC_MOD - QC_CENTER
        bounds_arr = np.asarray(bounds)
        n_feats = np.diff(bounds_arr)
        # Σ per doc via reduceat (empty docs → 0, reduceat can't do that)
        margins = np.zeros(len(doc_ids), dtype=np.int64)
        nz = n_feats > 0
        if w.size:
            sums = np.add.reduceat(w, bounds_arr[:-1][nz])
            margins[nz] = sums
        return pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()),
             "n_feats": pa.array(n_feats.astype(np.int64), pa.int64()),
             "margin": pa.array(margins, pa.int64()),
             "keep": pa.array(margins >= 0, pa.bool_())})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(score, batch_format="pyarrow", **remote_kwargs())
    )


# --------------------------------------------------- bigram LM score

def bigram_lm_scores(sf_dir: str, n_partitions: int | None = None):
    """CCNet-style language-model quality proxy: per-document average
    CORPUS frequency of its token bigrams (`lm_score_x1000 =
    1000 · Σ_positions total(bigram) // n_positions`). Low scores flag
    rare/garbled text, very high scores flag boilerplate — the two tails
    a perplexity filter trims (CCNet, Wenzek et al. 2019; here counts
    stand in for the KenLM table: a deployment swaps the totals join for
    a model-score lookup without touching the shape).

    Scale shape (the tf⨝df pattern of `top_terms_per_doc`, vocabulary
    NEVER broadcast): per-(doc, bigram) multiplicities collapse in-block
    (a doc's text is one row, so multiplicities are exact), ONE keyed
    repartition on the bigram's md5-64 co-locates every instance, a
    block-local segment scan computes the global total and each doc's
    Σ m·total partial, and a small groupby-sum lands one row per doc.
    Shuffle carries one (hash, doc, m) row per DISTINCT (doc, bigram) —
    never positions. Docs with <2 tokens ride a sentinel (-1, doc, 0)
    row so every doc lands in the output with score 0.

    ALL int64 arithmetic; BOTH engines group by the same md5-derived key
    (the minhash pact), so parity is exact by construction — even a hash
    collision replays identically. int64 headroom: Σ m·total per doc
    caps near 10^15 at ~10^12 corpus positions; beyond that a deployment
    moves the score to log-space (the model seam above).
    """
    from ray.data.aggregate import Sum

    from .dedup import _md5_64_batch

    def doc_bigrams(t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_numpy()
        strs, bounds = [], [0]
        for text_ in t.column("text").to_pylist():
            toks = re.findall(TOKEN_REGEX, text_.lower())
            strs.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
            bounds.append(len(strs))
        hashed = _md5_64_batch(strs).view(np.int64)
        n_pos = np.diff(np.asarray(bounds))
        doc_rep = np.repeat(doc_ids, n_pos)
        if len(hashed):
            pairs = np.stack([doc_rep, hashed], axis=1)
            uniq, m = np.unique(pairs, axis=0, return_counts=True)
        else:
            uniq = np.empty((0, 2), dtype=np.int64)
            m = np.empty(0, dtype=np.int64)
        # sentinel rows keep bigram-less docs in the pipeline
        lone = doc_ids[n_pos == 0]
        bkey = np.concatenate([uniq[:, 1], np.full(len(lone), -1, np.int64)])
        docs = np.concatenate([uniq[:, 0], lone])
        ms = np.concatenate([m.astype(np.int64), np.zeros(len(lone), np.int64)])
        return pa.table({"bkey": pa.array(bkey, pa.int64()),
                         "doc_id": pa.array(docs, pa.int64()),
                         "m": pa.array(ms, pa.int64())})

    def totals_and_partials(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "fs_part": pa.array([], pa.int64()),
                          "nb_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        bkey = b.column("bkey").to_numpy()
        docs = b.column("doc_id").to_numpy()
        m = b.column("m").to_numpy()
        # global total per bigram: every instance of a bkey is co-located
        uk, inv = np.unique(bkey, return_inverse=True)
        totals = np.zeros(len(uk), dtype=np.int64)
        np.add.at(totals, inv, m)
        contrib = m * totals[inv]
        # per-(block, doc) pre-aggregation before the final exchange
        ud, dinv = np.unique(docs, return_inverse=True)
        fs = np.zeros(len(ud), dtype=np.int64)
        nb = np.zeros(len(ud), dtype=np.int64)
        np.add.at(fs, dinv, contrib)
        np.add.at(nb, dinv, m)
        return pa.table({"doc_id": pa.array(ud, pa.int64()),
                         "fs_part": pa.array(fs, pa.int64()),
                         "nb_part": pa.array(nb, pa.int64())})

    if n_partitions is None:
        n_partitions = hash_partition_count()
    parts = keyed_colocate(lambda: (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(doc_bigrams, batch_format="pyarrow",
                     **remote_kwargs())
        .repartition(n_partitions, keys=["bkey"])
        .map_batches(totals_and_partials, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    ))

    def finish(t: pa.Table) -> pa.Table:
        fs = t.column("sum(fs_part)").to_numpy()
        nb = t.column("sum(nb_part)").to_numpy()
        score = np.where(nb > 0, (1000 * fs) // np.maximum(nb, 1), 0)
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_bigrams": pa.array(nb, pa.int64()),
                         "freq_sum": pa.array(fs, pa.int64()),
                         "lm_score_x1000": pa.array(score, pa.int64())})

    return (
        parts.groupby("doc_id").aggregate(Sum("fs_part"), Sum("nb_part"))
        .map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


# ----------------------------------- exact substring dedup (span removal)

def substring_dedup(sf_dir: str, n_partitions: int | None = None,
                    keep_one: bool = False):
    """Exact cross-document substring REMOVAL (the action
    `duplicated_text_share` measures — Lee et al., "Deduplicating
    Training Data Makes Language Models Better"): every `DUP_K`-token
    gram that occurs in ≥2 distinct documents is a duplicated span; all
    token positions covered by any duplicated span are removed from
    EVERY document holding them (the symmetric variant), or — with
    `keep_one=True`, the deployed Lee-et-al form — from every holder
    EXCEPT the canonical one (min doc_id per gram), so exactly one copy
    of each duplicated span survives the corpus. Output per doc:
    `n_tokens`, `n_removed` (covered positions), and `dedup_text` — the
    surviving tokens space-joined in original order (the canonical
    lowercase tokenization; byte-exact surface reconstruction is a
    presentation concern, not a dedup one).

    Shape (two keyed exchanges, text shuffled ONCE, grams never):
    explode one (gram-hash, doc, positions:list<int32>) row per DISTINCT
    gram per doc → repartition on the hash co-locates every doc holding
    a gram → block-local segment scan keeps rows whose segment spans ≥2
    docs (the duplicated spans, with their positions) → union with the
    docs table and ONE repartition on doc_id co-locates each doc's text
    with its duplicated-position lists → block-local coverage mask
    (difference-array cumsum) rebuilds the kept text. Shuffle payload is
    one int32 per gram position plus each doc's text once — never gram
    strings, never pairwise work."""

    def explode(t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_numpy()
        sh_parts, id_parts, pos_vals, pos_offs = [], [], [], [0]
        for doc_id, text_ in zip(doc_ids, t.column("text").to_pylist()):
            toks = re.findall(TOKEN_REGEX, text_.lower())
            n = len(toks) - DUP_K + 1
            if n <= 0:
                continue
            grams = [" ".join(toks[i:i + DUP_K]) for i in range(n)]
            hashed = (_stable64_batch(grams)
                      & np.uint64((1 << 63) - 1)).astype(np.int64)
            order = np.argsort(hashed, kind="stable").astype(np.int32)
            hs = hashed[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(hs[1:] != hs[:-1]) + 1, [n]])
            sh_parts.append(hs[starts[:-1]])
            id_parts.append(np.full(len(starts) - 1, doc_id, np.int64))
            pos_vals.append(order)
            base = pos_offs[-1]
            pos_offs.extend(int(base + s) for s in starts[1:])
        sh = (np.concatenate(sh_parts) if sh_parts
              else np.empty(0, np.int64))
        ids = (np.concatenate(id_parts) if id_parts
               else np.empty(0, np.int64))
        vals = (np.concatenate(pos_vals) if pos_vals
                else np.empty(0, np.int32))
        pos = pa.ListArray.from_arrays(
            pa.array(pos_offs, pa.int32()), pa.array(vals, pa.int32()))
        return pa.table({"sh": pa.array(sh, pa.int64()),
                         "doc_id": pa.array(ids, pa.int64()),
                         "pos": pos})

    def dup_rows(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "pos": pa.array([], pa.list_(pa.int32()))})
        sh = b.column("sh").to_numpy()
        uk, inv, counts = np.unique(sh, return_inverse=True,
                                    return_counts=True)
        keep = counts[inv] >= 2  # rows are per-doc-distinct ⇒ ≥2 docs
        if keep_one:
            # the min-doc_id holder of each gram keeps its span
            ids = b.column("doc_id").to_numpy()
            seg_min = np.full(len(uk), np.iinfo(np.int64).max, np.int64)
            np.minimum.at(seg_min, inv, ids)
            keep &= ids != seg_min[inv]
        kept = b.filter(pa.array(keep))
        return pa.table({
            "doc_id": kept.column("doc_id"),
            "text": pa.nulls(len(kept), pa.string()),
            "pos": kept.column("pos").combine_chunks().cast(
                pa.list_(pa.int32()))})

    def doc_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": t.column("text").cast(pa.string()),
            "pos": pa.nulls(len(t), pa.list_(pa.int32()))})

    def apply(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        poss = b.column("pos").to_pylist()
        txt, dp = {}, {}
        for d, tx, p in zip(ids, texts, poss):
            if tx is not None:
                txt[d] = tx
            if p:
                dp.setdefault(d, []).extend(p)
        out_id, out_nt, out_nr, out_txt = [], [], [], []
        for d in sorted(txt):
            toks = re.findall(TOKEN_REGEX, txt[d].lower())
            n = len(toks)
            starts = np.asarray(dp.get(d, ()), dtype=np.int64)
            cov = np.zeros(n + 1, dtype=np.int64)
            if len(starts):
                np.add.at(cov, starts, 1)
                np.add.at(cov, np.minimum(starts + DUP_K, n), -1)
            covered = np.cumsum(cov[:n]) > 0
            out_id.append(d)
            out_nt.append(n)
            out_nr.append(int(covered.sum()))
            out_txt.append(" ".join(
                t_ for t_, c in zip(toks, covered) if not c))
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "n_tokens": pa.array(out_nt, pa.int64()),
                         "n_removed": pa.array(out_nr, pa.int64()),
                         "dedup_text": pa.array(out_txt, pa.string())})

    if n_partitions is None:
        n_partitions = hash_partition_count()

    def build():
        dup = (
            _docs(sf_dir, ["doc_id", "text"])
            .map_batches(explode, batch_format="pyarrow", **remote_kwargs())
            .repartition(n_partitions, keys=["sh"])
            .map_batches(dup_rows, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )
        base = _docs(sf_dir, ["doc_id", "text"]).map_batches(
            doc_side, batch_format="pyarrow", **remote_kwargs())
        return (
            base.union(dup)
            .repartition(n_partitions, keys=["doc_id"])
            .map_batches(apply, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
        )

    return keyed_colocate(build).sort("doc_id")


# --------------------------------- DSIR-style importance weights (mixture)

DSIR_BUCKETS = 64
DSIR_SCALE = 1_000_000
DSIR_TARGET_LANG = "en"


def dsir_importance_weights(sf_dir: str):
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023)
    in fixed-point integer arithmetic: hashed-bigram bucket counts give a
    target distribution (docs with `lang == DSIR_TARGET_LANG`) and a raw
    distribution (all docs); each bucket earns an integer likelihood-
    ratio score `s[b] = (SCALE·(tgt[b]+1)·(R+B)) // ((raw[b]+1)·(T+B))`
    (add-one smoothed, SCALE-fixed-point, floor division), and each doc's
    importance weight is the sum of its bigram buckets' scores (with
    multiplicity). `kept` gates weight above the neutral line
    `SCALE · n_bigrams` — "looks more target-like than the corpus
    average". True DSIR samples ∝ weight; the weight column is that
    sampler's input, the gate is its deterministic stand-in.

    Scale shape: pass 1 is a per-batch 64-bucket histogram partial (the
    shuffle carries ≤64 rows per block) → tiny groupby-sum → a 64-int
    score table that rides the closure (the `ray.put`-once broadcast
    pattern); pass 2 is an embarrassingly parallel per-doc weigh — no
    corpus-sized state anywhere. Bigram buckets are md5-derived
    (`('0x'||substr(md5(g),1,16))::UBIGINT % 64`) so DuckDB replays the
    histogram, the score table, and every weight exactly — all integer,
    no float anywhere."""
    import ray
    from ray.data.aggregate import Sum

    from .dedup import _md5_64_batch

    def _buckets(texts):
        """Per-doc bucket count matrix for a list of texts."""
        strs, bounds = [], [0]
        for text_ in texts:
            toks = re.findall(TOKEN_REGEX, text_.lower())
            strs.extend(f"{a} {b}" for a, b in zip(toks, toks[1:]))
            bounds.append(len(strs))
        arr = np.asarray(strs, dtype=object)
        if len(arr):
            uniq, inv = np.unique(arr, return_inverse=True)
            bk = (_md5_64_batch(uniq) % np.uint64(DSIR_BUCKETS)).astype(
                np.int64)[inv]
        else:
            bk = np.empty(0, np.int64)
        mat = np.zeros((len(texts), DSIR_BUCKETS), dtype=np.int64)
        for row, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                mat[row] = np.bincount(bk[lo:hi], minlength=DSIR_BUCKETS)
        return mat

    def hist_partial(t: pa.Table) -> pa.Table:
        mat = _buckets(t.column("text").to_pylist())
        is_tgt = pc.equal(t.column("lang"),
                          pa.scalar(DSIR_TARGET_LANG)).to_numpy(
            zero_copy_only=False)
        raw = mat.sum(axis=0)
        tgt = mat[is_tgt].sum(axis=0) if mat.shape[0] else raw
        return pa.table({
            "bucket": pa.array(np.arange(DSIR_BUCKETS), pa.int64()),
            "raw_c": pa.array(raw, pa.int64()),
            "tgt_c": pa.array(tgt, pa.int64())})

    hist = (
        _docs(sf_dir, ["text", "lang"])
        .map_batches(hist_partial, batch_format="pyarrow", **remote_kwargs())
        .groupby("bucket")
        .aggregate(Sum("raw_c"), Sum("tgt_c"))
        .take_all()  # ≤ DSIR_BUCKETS rows — the one tiny driver gather
    )
    raw = np.zeros(DSIR_BUCKETS, dtype=object)
    tgt = np.zeros(DSIR_BUCKETS, dtype=object)
    for r in hist:
        raw[int(r["bucket"])] = int(r["sum(raw_c)"])
        tgt[int(r["bucket"])] = int(r["sum(tgt_c)"])
    R, T = int(sum(raw)), int(sum(tgt))
    # the weighed docs are the histogram's own (mat[d, b] <= raw[b]), so a
    # weight sum(mat[d, b] * score[b]) < sum(SCALE * (tgt[b] + 1) * (R + B)
    # / (T + B)) = SCALE * (R + B); past int64 `mat @ score` would wrap
    if DSIR_SCALE * (R + DSIR_BUCKETS) > np.iinfo(np.int64).max:
        raise OverflowError(
            f"dsir_importance_weights: {R} bigrams at DSIR_SCALE "
            f"{DSIR_SCALE} can give weights beyond int64")
    score = np.asarray(
        [(DSIR_SCALE * (int(tgt[b]) + 1) * (R + DSIR_BUCKETS))
         // ((int(raw[b]) + 1) * (T + DSIR_BUCKETS))
         for b in range(DSIR_BUCKETS)], dtype=np.int64)

    def weigh(t: pa.Table) -> pa.Table:
        mat = _buckets(t.column("text").to_pylist())
        nb = mat.sum(axis=1)
        w = mat @ score
        kept = w > DSIR_SCALE * nb
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_bigrams": pa.array(nb, pa.int64()),
                         "weight": pa.array(w, pa.int64()),
                         "kept": pa.array(kept, pa.bool_())})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(weigh, batch_format="pyarrow", **remote_kwargs())
        .sort("doc_id")
    )


# --------------------------------------------- fused corpus curation (X96)

def doc_curation_full(sf_dir: str, n_partitions: int | None = None):
    """The complete text-corpus curation decision — the documents-table
    analogue of `ops/multimodal.py::image_curation_full` (and of the
    crawl→corpus composition in `pipelines/curate.py`):

        keep = Gopher quality pass        (rule features, integer bands)
             ∧ exact-dedup keeper         (min doc_id per normalized md5)
             ∧ near-dup cluster keeper    (MinHash+LSH CC representative)
             ∧ NOT benchmark-contaminated (k-gram overlap vs held-out set)
             ∧ NOT a benchmark doc        (the held-out subset itself)

    Fused scale shape: the text is READ AND TOKENIZED ONCE for the
    per-doc rules — one stateless vectorized pass emits (gopher keep,
    normalized-md5 fingerprint) together, so the corpus never pays a
    second scan for the exact-dedup leg. The exact keeper is elected in
    ONE keyed exchange of (fingerprint, doc_id) rows (block-local segment
    min — never a driver gather); the near-dup keeper reuses the verified
    MinHash pair machinery (`dedup.near_dup_clusters`, its own
    inverted-index shuffles); the contamination leg reuses
    `contamination_overlap` (shingle-keyed co-location, benchmark set
    never broadcast). All four verdicts meet in ONE keyed co-location on
    doc_id where the decision is block-local boolean algebra — the
    `_merge_by_image_id` shape on the text axis. Docs absent from the
    near-dup pair graph are implicit cluster keepers; benchmark docs
    (doc_id % BENCH_MOD == 0) carry `is_bench` and never `keep`.

    Numeric parity with the standalone stages is by construction: the
    fused pass calls the exact same `gopher_features` /
    `text.normalize_expr` code, and the cluster/contamination legs ARE
    the standalone ops. Full DuckDB oracle (registry): gopher predicate
    CTE ∧ window-min fingerprint election ∧ the recursive-CTE MinHash
    closure ∧ the contamination CTE chain, composed on doc_id."""
    import hashlib

    import ray

    from .dedup import near_dup_clusters
    from .text import normalize_expr

    n_parts = n_partitions or max(2, min(8, hash_partition_count()))

    def fused(t: pa.Table) -> pa.Table:
        feats = gopher_features(t.column("text"))
        norm = normalize_expr(t.column("text")).to_pylist()
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in norm]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "gopher_ok": feats["keep"],
                "fingerprint": pa.array(fps, pa.string()),
            }
        )

    # tiny decision rows (id + bool + 32-char hex), materialized once so
    # the gopher side and the fingerprint election share ONE corpus scan
    base = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fused, batch_format="pyarrow", **remote_kwargs()).materialize()
    base_refs = list(base.to_arrow_refs())

    def elect(b: pa.Table) -> pa.Table:
        # every row of a fingerprint is co-located here: segment min of
        # doc_id elects the exact-dedup keeper
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "kind": pa.array([], pa.int8()),
                          "flag": pa.array([], pa.bool_())})
        if len(b) == 0:
            return empty
        ids = b.column("doc_id").to_numpy()
        fps = np.asarray(b.column("fingerprint").to_pylist(), dtype=object)
        o = np.argsort(fps, kind="stable")
        ids_s, fps_s = ids[o], fps[o]
        seg = np.cumsum(np.concatenate(
            [[0], (fps_s[1:] != fps_s[:-1]).astype(np.int64)]))
        segmin = np.full(int(seg[-1]) + 1, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(segmin, seg, ids_s)
        return pa.table(
            {"doc_id": pa.array(ids_s, pa.int64()),
             "kind": pa.array(np.full(len(b), 1, np.int8()), pa.int8()),
             "flag": pa.array(ids_s == segmin[seg], pa.bool_())})

    exact_side_mat = keyed_colocate(
        lambda: ray.data.from_arrow_refs(base_refs)
        .repartition(n_parts, keys=["fingerprint"])
        .map_batches(elect, batch_format="pyarrow", batch_size=None,
                     **remote_kwargs())).materialize()

    # near-dup + contamination legs run OUTSIDE the merge's scoped
    # context (their own internal shuffles must not plan under it)
    cluster_tbl = near_dup_clusters(sf_dir)
    cont_mat = contamination_overlap(sf_dir).materialize()

    def gopher_side():
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": t.column("doc_id"),
                 "kind": pa.array(np.zeros(len(t), np.int8()), pa.int8()),
                 "flag": t.column("gopher_ok")})
        return ray.data.from_arrow_refs(base_refs).map_batches(
            f, batch_format="pyarrow", **remote_kwargs())

    def exact_side():
        return ray.data.from_arrow_refs(list(exact_side_mat.to_arrow_refs()))

    def cluster_side():
        t = pa.table(
            {"doc_id": cluster_tbl.column("doc_id"),
             "kind": pa.array(np.full(len(cluster_tbl), 2, np.int8()),
                              pa.int8()),
             "flag": cluster_tbl.column("keep")})
        return ray.data.from_arrow(t)

    def cont_side():
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": t.column("doc_id"),
                 "kind": pa.array(np.full(len(t), 3, np.int8()), pa.int8()),
                 "flag": t.column("contaminated")})
        return ray.data.from_arrow_refs(
            list(cont_mat.to_arrow_refs())).map_batches(
                f, batch_format="pyarrow", **remote_kwargs())

    def merge(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "gopher_ok": pa.array([], pa.bool_()),
             "is_exact_keeper": pa.array([], pa.bool_()),
             "is_cluster_keeper": pa.array([], pa.bool_()),
             "contaminated": pa.array([], pa.bool_()),
             "is_bench": pa.array([], pa.bool_()),
             "keep": pa.array([], pa.bool_())})
        if len(b) == 0:
            return empty
        ids = b.column("doc_id").to_numpy()
        kind = b.column("kind").to_numpy()
        flag = b.column("flag").to_numpy(zero_copy_only=False)
        uids, inv = np.unique(ids, return_inverse=True)
        n = len(uids)
        gopher = np.zeros(n, bool)
        seen_g = np.zeros(n, bool)
        exact = np.zeros(n, bool)
        seen_e = np.zeros(n, bool)
        cluster = np.ones(n, bool)   # absent from the pair graph → keeper
        contam = np.zeros(n, bool)   # bench docs carry no contamination row
        for k, arr, seen in ((0, gopher, seen_g), (1, exact, seen_e),
                             (2, cluster, None), (3, contam, None)):
            m = kind == k
            arr[inv[m]] = flag[m]
            if seen is not None:
                seen[inv[m]] = True
        assert seen_g.all() and seen_e.all(), "missing per-doc side rows"
        is_bench = (uids % BENCH_MOD) == 0
        keep = gopher & exact & cluster & ~contam & ~is_bench
        return pa.table(
            {"doc_id": pa.array(uids, pa.int64()),
             "gopher_ok": pa.array(gopher, pa.bool_()),
             "is_exact_keeper": pa.array(exact, pa.bool_()),
             "is_cluster_keeper": pa.array(cluster, pa.bool_()),
             "contaminated": pa.array(contam, pa.bool_()),
             "is_bench": pa.array(is_bench, pa.bool_()),
             "keep": pa.array(keep, pa.bool_())})

    def build():
        ds = gopher_side()
        for s in (exact_side(), cluster_side(), cont_side()):
            ds = ds.union(s)
        return ds.repartition(n_parts, keys=["doc_id"]).map_batches(
            merge, batch_format="pyarrow", batch_size=None,
            **remote_kwargs())

    return keyed_colocate(build).sort("doc_id")
