"""Distributed BPE tokenizer training (Sennrich et al. 2016) over the
`documents` table.

The algorithm's scale structure is its own optimization: the CORPUS is
touched exactly once (a distributed wordcount — the only pass whose cost
grows with the data), and every merge round then runs over the WORD
TABLE (distinct words ≪ tokens; dataset-resident, never on the driver):

    round r: per-block weighted adjacent-pair partial counts
             → driver dict-merge (bounded by distinct symbol pairs —
               a vocabulary quantity, not a corpus one; the Misra-Gries
               precedent for bounded driver merges)
             → pinned argmax (count DESC, pair ASC — byte order on the
               lowercase-alnum alphabet, identical in DuckDB)
             → broadcast the winning pair, one map_batches applies it.

Merge application is defined as a STRING REWRITE so both engines are
bit-identical: with symbols double-space-joined and the word padded,
``replace(' l  r ', ' lr ')`` performs exactly the left-to-right
non-overlapping merge of classic BPE (the double spacing stops one
match's trailing space from consuming the next match's leading space),
then double spaces collapse back. Python ``str.replace`` and DuckDB
``replace`` share these semantics, so the FULL training run — word
counts, every pair pick, every rewrite — has an exact chained-CTE
DuckDB oracle, and a single-process reimplementation parity test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs

DEFAULT_MERGES = 12


def merge_syms(syms: str, left: str, right: str) -> str:
    """Apply ONE merge to a space-joined symbol string — the rewrite
    authority shared by the distributed op, the local reimplementation
    and (verbatim) the SQL oracle."""
    padded = " " + syms.replace(" ", "  ") + " "
    padded = padded.replace(f" {left}  {right} ", f" {left}{right} ")
    return padded.replace("  ", " ").strip()


def _pair_counts(syms_list, ns) -> dict:
    out: dict[str, int] = {}
    for syms, n in zip(syms_list, ns):
        toks = syms.split(" ")
        for a, b in zip(toks, toks[1:]):
            key = f"{a} {b}"
            out[key] = out.get(key, 0) + int(n)
    return out


def bpe_train_local(word_counts: dict, n_merges: int) -> list[tuple]:
    """Single-process reference implementation over a word→count dict —
    the parity oracle for the distributed op (same pick rule, same
    rewrite)."""
    state = {" ".join(w): n for w, n in word_counts.items()}
    merges = []
    for rank in range(n_merges):
        counts = _pair_counts(list(state), list(state.values()))
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        left, right = pair.split(" ")
        merges.append((rank, left, right, counts[pair]))
        state = {merge_syms(s, left, right): n for s, n in state.items()}
    return merges


def bpe_train(sf_dir: str, n_merges: int = DEFAULT_MERGES):
    """Distributed BPE training; returns the merge table
    (rank, left, right, merged_count)."""
    merges, _state = _bpe_train_state(sf_dir, n_merges)
    return merges


def _bpe_train_state(sf_dir: str, n_merges: int):
    """The training loop, returning (merge table, final word-table
    Dataset) — `bpe_token_counts` consumes the state to segment the
    corpus without re-deriving it."""
    import re

    import ray

    from .text import TOKEN_REGEX

    tok_re = re.compile(TOKEN_REGEX)

    def local_counts(t: pa.Table) -> pa.Table:
        toks: list = []
        for s in t.column("text").to_pylist():
            toks.extend(tok_re.findall(s.lower()))
        if not toks:
            return pa.table({"syms": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        words, counts = np.unique(np.asarray(toks, dtype=object),
                                  return_counts=True)
        return pa.table(
            {"syms": pa.array([" ".join(w) for w in words], pa.string()),
             "n": pa.array(counts.astype(np.int64), pa.int64())})

    from ray.data.aggregate import Sum

    state = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text"])
        .map_batches(local_counts, batch_format="pyarrow",
                     **remote_kwargs())
        .groupby("syms")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        counts = _pair_counts(t.column("syms").to_pylist(),
                              t.column("n").to_numpy())
        return pa.table(
            {"pair": pa.array(list(counts), pa.string()),
             "cnt": pa.array(list(counts.values()), pa.int64())})

    merges: list[tuple] = []
    for rank in range(n_merges):
        totals: dict[str, int] = {}
        for b in state.map_batches(pair_partial, batch_format="pyarrow",
                                   **remote_kwargs()).iter_batches(
                batch_format="pyarrow", batch_size=None):
            for p, c in zip(b.column("pair").to_pylist(),
                            b.column("cnt").to_numpy()):
                totals[p] = totals.get(p, 0) + int(c)
        if not totals:
            break
        pair = min(totals, key=lambda p: (-totals[p], p))
        left, right = pair.split(" ")
        merges.append((rank, left, right, totals[pair]))
        lr_ref = ray.put((left, right))

        def apply(t: pa.Table) -> pa.Table:
            l, r = ray.get(lr_ref)
            return pa.table(
                {"syms": pa.array(
                    [merge_syms(s, l, r)
                     for s in t.column("syms").to_pylist()], pa.string()),
                 "n": t.column("n")})

        state = state.map_batches(apply, batch_format="pyarrow",
                                  **remote_kwargs()).materialize()

    return pa.table(
        {"rank": pa.array([m[0] for m in merges], pa.int64()),
         "left": pa.array([m[1] for m in merges], pa.string()),
         "right": pa.array([m[2] for m in merges], pa.string()),
         "merged_count": pa.array([m[3] for m in merges],
                                  pa.int64())}), state


def bpe_token_counts(sf_dir: str, n_merges: int = DEFAULT_MERGES):
    """Per-document LEARNED-BPE token counts — the downstream consumer
    of `bpe_train`, replacing regex token counting with the induced
    subword vocabulary.

    Scale shape (the X31 tf⨝df single-shuffle join): the trained word
    table maps word → token count (word = symbols concatenated — merge-
    invariant); per-doc (word, count) rows union with word-table rows,
    ONE keyed repartition on word co-locates them, blocks emit per-doc
    partials, and a small groupby-sum lands one row per doc. The
    vocabulary is never broadcast. FULL chained-CTE oracle (the
    training CTEs + the segment-count join)."""
    import re

    import ray
    from ray.data.aggregate import Sum

    from .text import TOKEN_REGEX

    _merges, state = _bpe_train_state(sf_dir, n_merges)
    tok_re = re.compile(TOKEN_REGEX)

    def vocab_rows(t: pa.Table) -> pa.Table:
        syms = t.column("syms").to_pylist()
        return pa.table(
            {"word": pa.array([s.replace(" ", "") for s in syms],
                              pa.string()),
             "doc_id": pa.array(np.full(len(syms), -1, np.int64),
                                pa.int64()),
             "c": pa.array([s.count(" ") + 1 for s in syms], pa.int64())})

    def doc_rows(t: pa.Table) -> pa.Table:
        out_doc, out_word, out_c = [], [], []
        for did, txt in zip(t.column("doc_id").to_numpy(),
                            t.column("text").to_pylist()):
            words, counts = np.unique(
                np.asarray(tok_re.findall(txt.lower()), dtype=object),
                return_counts=True)
            out_doc.extend([int(did)] * len(words))
            out_word.extend(words.tolist())
            out_c.extend(counts.astype(np.int64).tolist())
        return pa.table({"word": pa.array(out_word, pa.string()),
                         "doc_id": pa.array(out_doc, pa.int64()),
                         "c": pa.array(out_c, pa.int64())})

    def join_block(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        ids = b.column("doc_id").to_numpy()
        words = np.asarray(b.column("word").to_pylist(), dtype=object)
        cs = b.column("c").to_numpy()
        is_vocab = ids < 0
        nt = dict(zip(words[is_vocab], cs[is_vocab]))
        docs = ~is_vocab
        contrib = np.asarray([int(c) * int(nt[w])
                              for w, c in zip(words[docs], cs[docs])],
                             dtype=np.int64)
        part = pa.table({"doc_id": pa.array(ids[docs], pa.int64()),
                         "n_part": pa.array(contrib, pa.int64())})
        agg = part.group_by("doc_id").aggregate([("n_part", "sum")])
        return pa.table({"doc_id": agg.column("doc_id"),
                         "n_part": agg.column("n_part_sum")})

    n_parts = max(2, min(8, hash_partition_count()))

    def build():
        vocab = ray.data.from_arrow_refs(
            list(state.to_arrow_refs())
        ).map_batches(vocab_rows, batch_format="pyarrow",
                      **remote_kwargs())
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).map_batches(doc_rows, batch_format="pyarrow", **remote_kwargs())
        return (docs.union(vocab)
                .repartition(n_parts, keys=["word"])
                .map_batches(join_block, batch_format="pyarrow",
                             batch_size=None, **remote_kwargs()))

    return keyed_colocate(build).groupby("doc_id").aggregate(
        Sum("n_part", alias_name="n_bpe_tokens")).sort("doc_id")


def bpe_token_counts_oracle_sql(n_merges: int = DEFAULT_MERGES) -> str:
    """Training CTEs + the segment-count join: word = replace(syms,' ','')
    (symbol concatenation is merge-invariant), token count per word =
    the final state's symbol count."""
    train = bpe_oracle_sql(n_merges)
    head = train[:train.index("\nSELECT 0 AS rank")]
    return head + f"""
, vocab AS MATERIALIZED (
    SELECT replace(syms, ' ', '') AS word,
           len(string_split(syms, ' ')) AS nt
    FROM s{n_merges}
),
docwords AS (
    SELECT doc_id, word, count(*) AS c FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
        FROM documents
    ) GROUP BY doc_id, word
)
SELECT doc_id, CAST(sum(c * nt) AS BIGINT) AS n_bpe_tokens
FROM docwords JOIN vocab USING (word)
GROUP BY doc_id ORDER BY doc_id
"""


def bpe_oracle_sql(n_merges: int = DEFAULT_MERGES) -> str:
    """The chained-CTE replay: s0 = char-split word counts, then per
    round p{i} (pinned argmax pair) and s{i+1} (the double-space padded
    replace rewrite — semantics identical to Python str.replace)."""
    parts = ["""
WITH wc AS MATERIALIZED (
    SELECT word, CAST(count(*) AS BIGINT) AS n FROM (
        SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
        FROM documents
    ) GROUP BY word
),
s0 AS MATERIALIZED (
    SELECT array_to_string(string_split(word, ''), ' ') AS syms, n FROM wc
)"""]
    for i in range(n_merges):
        parts.append(f""",
p{i} AS MATERIALIZED (
    SELECT z[1] || ' ' || z[2] AS pair, sum(n) AS cnt
    FROM (SELECT unnest(list_zip(string_split(syms, ' '),
                                 string_split(syms, ' ')[2:])) AS z, n
          FROM s{i})
    WHERE z[2] IS NOT NULL
    GROUP BY 1 ORDER BY cnt DESC, pair ASC LIMIT 1
),
s{i + 1} AS MATERIALIZED (
    SELECT trim(replace(replace(
               ' ' || replace(syms, ' ', '  ') || ' ',
               ' ' || replace((SELECT pair FROM p{i}), ' ', '  ') || ' ',
               ' ' || replace((SELECT pair FROM p{i}), ' ', '') || ' '),
               '  ', ' ')) AS syms, n
    FROM s{i}
)""")
    selects = " UNION ALL ".join(
        f"SELECT {i} AS rank, split_part(pair, ' ', 1) AS left, "
        f"split_part(pair, ' ', 2) AS right, "
        f"CAST(cnt AS BIGINT) AS merged_count FROM p{i}"
        for i in range(n_merges))
    return "".join(parts) + "\n" + selects + "\nORDER BY rank"
