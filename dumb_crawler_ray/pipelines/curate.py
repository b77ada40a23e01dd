"""Crawl → curated-corpus pipeline — the end-to-end composition the whole
engine exists for: the crawl's partitioned page checkpoint feeds the
training-data operators and comes out the other side as a deduplicated,
quality-filtered corpus table.

Stages (all streaming Ray Data, no driver materialization):

  read_parquet(ckpt/pages)        partitioned per-round fragments
  repartition(keys=[url_hash])    latest-version-wins (max round, then
  + block-local segment scan      max rank) — the S7 re-crawl semantics,
                                  as ONE vectorized pass per block instead
                                  of a per-URL map_groups dispatch (at
                                  10^9 stored pages ~every group is one
                                  row; a sort-shuffle + per-group Python
                                  UDD would be the bottleneck)
  map_batches(extract_text)       strip tags/entities from the stored
                                  html (vectorized regex)
  map_batches(quality)            n_chars / n_tokens + keep flag
  repartition(keys=[fingerprint]) exact dedup: md5(normalized text),
  + block-local segment scan      one survivor (min url_hash) per
                                  content fingerprint
  sort(url_hash)                  pinned output order

Output columns: url_hash, url, round, n_chars, n_tokens, fingerprint,
n_dups (how many stored pages shared this content), quality_ok.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ops.text import TOKEN_REGEX  # the SQL-oracle-checked definition
from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs

_TAG_RE = r"<[^>]*>"


def extract_text_expr(html_col) -> pa.Array:
    """HTML → visible text: strip tags, collapse whitespace (vectorized
    pyarrow regex kernels — no per-row Python)."""
    no_tags = pc.replace_substring_regex(html_col, pattern=_TAG_RE,
                                         replacement=" ")
    collapsed = pc.replace_substring_regex(no_tags, pattern=r"\s+",
                                           replacement=" ")
    return pc.utf8_trim_whitespace(collapsed)


def _segment_bounds(inv: np.ndarray):
    """Start/end indices of equal-key runs in a key-sorted inverse array."""
    starts = np.flatnonzero(np.concatenate([[True], inv[1:] != inv[:-1]]))
    ends = np.concatenate([starts[1:], [len(inv)]])
    return starts, ends


def latest_version_block(b: pa.Table) -> pa.Table:
    """One url_hash-keyed block holds EVERY stored version of its
    hashes, so latest-wins is a block-local lexsort segment scan (the
    `ngram_jaccard_pairs` shape) — no per-URL UDF dispatch. Shared by
    `curate_corpus` and the checkpoint compactor (`ops/export.py
    compact_pages`)."""
    if len(b) == 0:
        return b
    hashes = np.asarray(b.column("url_hash").to_pylist(), dtype=object)
    # np.lexsort rejects object arrays → integer codes via np.unique
    _, inv = np.unique(hashes, return_inverse=True)
    order = np.lexsort((b.column("rank").to_numpy(),
                        b.column("round").to_numpy(), inv))
    _, ends = _segment_bounds(inv[order])
    return b.take(order[ends - 1])  # last of each run = max round, rank


def curate_corpus(ckpt_dir: str, min_chars: int = 20,
                  gopher_gate: bool = False):
    """Run the curation pipeline over a crawl checkpoint's pages table.
    Returns a Dataset of curated (deduplicated, quality-flagged) docs.

    `gopher_gate=True` additionally scores every extracted text against
    the `ops/filters.py` Gopher rule set (the SAME `gopher_features`
    kernels the oracle-checked op runs) and appends a `gopher_ok`
    column — the crawl→filter composition a production corpus build
    chains. Off by default so the base output stays byte-stable."""
    import ray

    latest_in_block = latest_version_block

    def text_and_quality(t: pa.Table) -> pa.Table:
        text = extract_text_expr(
            pc.cast(t.column("html"), pa.string()))
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_tokens = pc.cast(
            pc.count_substring_regex(text, pattern=TOKEN_REGEX), pa.int64()
        )
        norm = pc.utf8_lower(text)
        fps = [hashlib.md5(s.encode("utf-8")).hexdigest()
               for s in norm.to_pylist()]
        cols = {
            "url_hash": t.column("url_hash"),
            "url": t.column("url"),
            "round": t.column("round"),
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "fingerprint": pa.array(fps, pa.string()),
            "quality_ok": pc.greater_equal(n_chars,
                                           pa.scalar(min_chars, pa.int64())),
        }
        if gopher_gate:
            from ..ops.filters import gopher_features

            cols["gopher_ok"] = gopher_features(text)["keep"]
        return pa.table(cols)

    def keep_one_in_block(b: pa.Table) -> pa.Table:
        """Fingerprint-keyed block → one survivor (pinned min url_hash)
        per fingerprint segment, with the segment length as n_dups."""
        if len(b) == 0:
            return b.append_column("n_dups", pa.array([], pa.int64()))
        fps = np.asarray(b.column("fingerprint").to_pylist(), dtype=object)
        hashes = np.asarray(b.column("url_hash").to_pylist(), dtype=object)
        _, fp_inv = np.unique(fps, return_inverse=True)
        _, h_inv = np.unique(hashes, return_inverse=True)
        order = np.lexsort((h_inv, fp_inv))
        starts, ends = _segment_bounds(fp_inv[order])
        out = b.take(order[starts])  # first of each run = min url_hash
        return out.append_column(
            "n_dups", pa.array((ends - starts).astype(np.int64), pa.int64()))

    n_parts = hash_partition_count()
    return keyed_colocate(lambda: (
        ray.data.read_parquet(
            f"{ckpt_dir}/pages",
            columns=["url_hash", "url", "html", "round", "rank"],
        )
        .repartition(n_parts, keys=["url_hash"])
        .map_batches(latest_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
        .map_batches(text_and_quality, batch_format="pyarrow",
                     **remote_kwargs())
        .repartition(n_parts, keys=["fingerprint"])
        .map_batches(keep_one_in_block, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    )).sort("url_hash")
