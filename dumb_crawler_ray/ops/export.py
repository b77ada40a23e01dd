"""Resumable corpus export — the release sink of the pipeline family.

A 100 TB export must be partitioned (never one giant file), deterministic
(same input → byte-stable shards at any cluster size), and RESUMABLE (a
failed run skips finished shards on retry) — reference analogue: the WARC
sink's rotation + url_index (J/services/storage/WarcStorageManager.java),
lifted to columnar shards with a content manifest.

Shape: shard = md5-bucket of the row id (row identity — the `doc_split`
pact, so re-exports never migrate rows), ONE keyed repartition co-locates
each shard inside a single block, and the WRITE happens inside
`map_batches` (workers write their own shards in parallel; the driver
only collects the n_shards manifest rows). Shard files are sorted by id
and written tmp-then-`os.replace` (atomic, crash-safe); a shard whose
(n_docs, fingerprint) matches the previous manifest AND whose file exists
is SKIPPED — that is the resume path. Fingerprint = XOR of
md5-64(id ':' content-md5) masked to 63 bits: order-independent,
genuinely content-sensitive (a same-length content change re-exports the
shard — the `compact_pages` rule, now uniform across every sink), and
exactly replayable in DuckDB (`bit_xor`; text digests as `md5(text)`,
binary as `md5(hex(bytes))` since this DuckDB has no `md5(BLOB)`), so the
MANIFEST (shard, n_docs, fingerprint) has a full SQL oracle even though
the op is a sink.

Two public entry points share the writer:
- `export_corpus(sf_dir)`   — the `documents` table (SQL-checked manifest)
- `corpus_release(ckpt_dir)`— the crawl→curate flagship's quality rows
  (crawl-derived → reconciliation-tested instead of SQL)
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs

FP_MASK = (1 << 63) - 1  # keep XOR results inside signed int64 / BIGINT
DEFAULT_SHARDS = 16  # fixture-scale default; size n_shards so a shard fits
# one block at the target volume (a shard is co-located in ONE task)


def _id_strs(ids) -> list:
    return [i if isinstance(i, str) else str(int(i)) for i in ids]


def _shard_of(ids, n_shards: int = DEFAULT_SHARDS) -> np.ndarray:
    import hashlib

    return np.fromiter(
        (int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % n_shards
         for s in _id_strs(ids)),
        dtype=np.int64, count=len(ids))


def _content_digests(values) -> list[str]:
    """md5 hexdigest of row CONTENT. str digests its utf-8 bytes (DuckDB:
    `md5(text)`); bytes digest their UPPERCASE hex encoding (DuckDB:
    `md5(hex(bytes))` — no `md5(BLOB)` in this DuckDB, and `hex()`
    returns uppercase)."""
    import hashlib

    out = []
    for v in values:
        if isinstance(v, (bytes, bytearray, memoryview)):
            b = bytes(v).hex().upper().encode("ascii")
        else:
            b = v.encode("utf-8")
        out.append(hashlib.md5(b).hexdigest())
    return out


def _fingerprints(ids, content_digests) -> np.ndarray:
    """Shard fingerprint terms: md5-64(id ':' content-md5) — identity AND
    content, so skip-unchanged can never vouch for stale data."""
    from .dedup import _md5_64_batch

    strs = [f"{s}:{d}" for s, d in zip(_id_strs(ids), content_digests)]
    return (_md5_64_batch(strs) & np.uint64(FP_MASK)).view(np.int64)


def default_out_dir(kind: str, src: str, tag: str) -> str:
    """``/tmp/<kind>/<basename>_<digest>_<tag>``: a sink's output
    directory when the caller names none. The 8-hex digest of ``src``'s
    absolute path keeps two sources that share a basename out of one
    directory (and one manifest); ``tag`` names the artifact and its
    shape."""
    import hashlib

    src = os.path.abspath(src.rstrip("/"))
    digest = hashlib.md5(src.encode()).hexdigest()[:8]
    return f"/tmp/{kind}/{os.path.basename(src)}_{digest}_{tag}"


def _write_parquet_shard(tbl: pa.Table, path: str) -> None:
    pq.write_table(tbl, path, row_group_size=4096)


def manifest_shard_paths(out_dir: str, ext: str = ".parquet") -> list[str]:
    """The shard files the CURRENT manifest vouches for — consumers must
    read these, never a directory glob: a re-export with a smaller
    n_shards (or a shard whose row set became empty) leaves orphaned
    files on disk that the manifest no longer covers, and a glob would
    serve them as live data."""
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    return [os.path.join(out_dir, f"shard-{int(s):04d}{ext}")
            for s in sorted(manifest, key=int)]


def export_sharded(assigned_fn, out_dir: str, id_col: str,
                   n_partitions: int | None = None,
                   write_shard=_write_parquet_shard,
                   shard_ext: str = ".parquet") -> pa.Table:
    """Write the Dataset built by `assigned_fn()` (must carry `shard` +
    `fp` columns) as one sorted shard file per shard under `out_dir`,
    skipping shards unchanged vs the previous manifest. Returns the
    manifest table. Takes a BUILDER, not a Dataset: datasets capture
    their DataContext at creation, so the whole chain must be
    constructed inside `rayutil.keyed_colocate` or the keyed
    repartition refuses to plan. `write_shard(tbl, path)` is the format
    seam — parquet by default, a deterministic tar for WebDataset-style
    releases (`export_webdataset`)."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    old: dict = {}
    if os.path.exists(manifest_path):
        try:
            old = json.load(open(manifest_path))
        except (json.JSONDecodeError, OSError):
            old = {}  # corrupt manifest → rewrite everything
    old_ref = ray.put(old)
    out_ref = ray.put(out_dir)

    def write_shards(b: pa.Table) -> pa.Table:
        empty = pa.table({"shard": pa.array([], pa.int64()),
                          "n_docs": pa.array([], pa.int64()),
                          "fingerprint": pa.array([], pa.int64()),
                          "skipped": pa.array([], pa.bool_())})
        if len(b) == 0:
            return empty
        prev, out = ray.get(old_ref), ray.get(out_ref)
        shards = b.column("shard").to_numpy()
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        # np.lexsort rejects object arrays → integer codes via np.unique
        _, id_codes = np.unique(ids, return_inverse=True)
        order = np.lexsort((id_codes, shards))
        b = b.take(pa.array(order))
        shards = shards[order]
        fps = b.column("fp").to_numpy()
        bounds = np.concatenate(
            [[0], np.flatnonzero(shards[1:] != shards[:-1]) + 1, [len(b)]])
        out_s, out_n, out_f, out_skip = [], [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sh = int(shards[lo])
            n = int(hi - lo)
            fp = int(np.bitwise_xor.reduce(
                fps[lo:hi].view(np.uint64)) & np.uint64(FP_MASK))
            path = os.path.join(out, f"shard-{sh:04d}{shard_ext}")
            rec = prev.get(str(sh))
            skip = (rec is not None and rec.get("n_docs") == n
                    and rec.get("fingerprint") == fp and os.path.exists(path))
            if not skip:
                tbl = b.slice(lo, n).drop_columns(["shard", "fp"])
                tmp = path + f".tmp.{os.getpid()}"
                write_shard(tbl, tmp)
                os.replace(tmp, path)  # atomic: readers never see partials
            out_s.append(sh)
            out_n.append(n)
            out_f.append(fp)
            out_skip.append(bool(skip))
        return pa.table({"shard": pa.array(out_s, pa.int64()),
                         "n_docs": pa.array(out_n, pa.int64()),
                         "fingerprint": pa.array(out_f, pa.int64()),
                         "skipped": pa.array(out_skip, pa.bool_())})

    if n_partitions is None:
        n_partitions = hash_partition_count()
    written = keyed_colocate(lambda: (
        assigned_fn()
        .repartition(n_partitions, keys=["shard"])
        .map_batches(write_shards, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    ))
    manifest_schema = pa.schema(
        [("shard", pa.int64()), ("n_docs", pa.int64()),
         ("fingerprint", pa.int64()), ("skipped", pa.bool_())])
    batches = list(written.iter_batches(batch_format="pyarrow",
                                        batch_size=None))
    rows = (pa.concat_tables(batches) if batches
            else manifest_schema.empty_table())
    rows = rows.sort_by("shard")
    # commit the manifest AFTER every shard file landed (write order:
    # shards → manifest, so a crash can only lose manifest freshness,
    # never record a shard that does not exist)
    manifest = {
        str(int(s)): {"n_docs": int(n), "fingerprint": int(f)}
        for s, n, f in zip(rows.column("shard").to_pylist(),
                           rows.column("n_docs").to_pylist(),
                           rows.column("fingerprint").to_pylist())
    }
    tmp = manifest_path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, manifest_path)
    return rows.drop_columns(["skipped"])


def export_corpus(sf_dir: str, out_dir: str | None = None,
                  n_partitions: int | None = None,
                  n_shards: int = DEFAULT_SHARDS):
    """Export `documents` as `n_shards` sorted parquet shards under
    `out_dir` (default keyed by input path under /tmp), returning the
    manifest table (shard, n_docs, fingerprint) sorted by shard."""
    import ray

    if out_dir is None:
        out_dir = default_out_dir("dcr_export", sf_dir, f"s{n_shards}")

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        digests = _content_digests(t.column("text").to_pylist())
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "text": t.column("text"),
             "source": t.column("source"),
             "shard": pa.array(_shard_of(ids, n_shards), pa.int64()),
             "fp": pa.array(_fingerprints(ids, digests), pa.int64())})

    def build():
        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "source"],
        ).map_batches(assign, batch_format="pyarrow", **remote_kwargs())

    return export_sharded(build, out_dir, "doc_id",
                          n_partitions=n_partitions)


def export_image_shards(images_parquet: str, out_dir: str | None = None,
                        n_partitions: int | None = None,
                        n_shards: int = DEFAULT_SHARDS):
    """Multimodal release sink — the image-side last mile: the
    metadata+caption-gated image corpus (the DECODE-FREE gates:
    `image_size_filter`'s integer size/aspect predicate and
    `caption_rule_columns`' token band — applied inline, so no curation
    table materializes first) written as resumable sorted parquet shards
    of (image_id, bytes, w, h, caption) + manifest, via the same
    tmp+rename / skip-unchanged writer as `export_corpus`. Identity =
    image_id, fingerprint content = md5 of the encoded bytes, so
    re-exports are byte-identical and resume shard-by-shard.
    The decode-side curation ops (quality/alignment/dedup keep-lists)
    compose UPSTREAM by filtering the input table. The manifest is
    fully SQL-checked — same md5-bucket + bit_xor replay as
    `export_corpus`, plus the gate predicates."""
    import ray

    from .multimodal import caption_rule_columns, size_aspect_keep

    if out_dir is None:
        out_dir = default_out_dir(
            "dcr_release", os.path.dirname(images_parquet.rstrip("/")),
            f"images_s{n_shards}")

    def assign(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy().astype(np.int64)
        h = t.column("h").to_numpy().astype(np.int64)
        _ts, _ba, size_ok = size_aspect_keep(w, h)
        _nt, _nd, cap_ok = caption_rule_columns(t.column("caption"))
        t = t.filter(pa.array(size_ok
                              & cap_ok.to_numpy(zero_copy_only=False)))
        ids = t.column("image_id").to_pylist()
        digests = _content_digests(t.column("bytes").to_pylist())
        return pa.table(
            {"image_id": t.column("image_id"),
             "bytes": t.column("bytes"),
             "w": t.column("w"),
             "h": t.column("h"),
             "caption": t.column("caption"),
             "shard": pa.array(_shard_of(ids, n_shards), pa.int64()),
             "fp": pa.array(_fingerprints(ids, digests), pa.int64())})

    def build():
        return ray.data.read_parquet(
            images_parquet,
            columns=["image_id", "bytes", "w", "h", "caption"],
        ).map_batches(assign, batch_format="pyarrow", **remote_kwargs())

    return export_sharded(build, out_dir, "image_id",
                          n_partitions=n_partitions)


def compact_pages(ckpt_dir: str, out_dir: str | None = None,
                  n_partitions: int | None = None,
                  n_shards: int = DEFAULT_SHARDS):
    """Checkpoint compaction — the WARC-compaction analogue for the
    page-fragment store: a long crawl accumulates one `pages` parquet
    fragment per round per worker, every read of which must replay
    latest-version-wins; compaction rewrites the store as `n_shards`
    sorted, deduplicated (latest version only) shards + manifest, so
    downstream reads are a plain scan and resume is shard-level.

    Shape: ONE keyed repartition on url_hash co-locates every stored
    version, the shared `latest_version_block` segment scan keeps the
    (max round, max rank) row, and the X64 writer lands the shards.
    Unlike the one-way release sinks (whose length-proxy fingerprint
    only gates rewrites of data that also exists elsewhere), compaction
    REPLACES the read path — so the skip-unchanged fingerprint digests
    the full html CONTENT (md5), never a length proxy: a re-crawl that
    changes a page without changing its length must still re-compact
    that shard. `curate_corpus` over a compacted store equals
    `curate_corpus` over the raw fragments — reconciliation-tested."""
    import hashlib

    import ray

    from ..pipelines.curate import latest_version_block
    from .dedup import _md5_64_batch

    if out_dir is None:
        out_dir = default_out_dir("dcr_compact", ckpt_dir, f"s{n_shards}")

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column("url_hash").to_pylist()
        digests = [hashlib.md5(h.encode("utf-8")).hexdigest()
                   for h in t.column("html").to_pylist()]
        fp = (_md5_64_batch([f"{i}:{d}" for i, d in zip(ids, digests)])
              & np.uint64(FP_MASK)).view(np.int64)
        return t.append_column(
            "shard", pa.array(_shard_of(ids, n_shards), pa.int64())
        ).append_column("fp", pa.array(fp, pa.int64()))

    n_co = n_partitions if n_partitions is not None \
        else hash_partition_count()

    def build():
        return (
            ray.data.read_parquet(
                f"{ckpt_dir}/pages",
                columns=["url_hash", "url", "html", "round", "rank"],
            )
            .repartition(n_co, keys=["url_hash"])
            .map_batches(latest_version_block, batch_format="pyarrow",
                         batch_size=None, **remote_kwargs())
            .map_batches(assign, batch_format="pyarrow", **remote_kwargs())
        )

    return export_sharded(build, out_dir, "url_hash",
                          n_partitions=n_partitions)


def curated_image_release(images_parquet: str, out_dir: str | None = None,
                          n_partitions: int | None = None,
                          n_shards: int = DEFAULT_SHARDS,
                          max_hamming: int = 8):
    """The image-side flagship last mile — the analogue of
    `corpus_release` on the image axis: the FULL staged curation
    decision (`image_curation_full`: phash-cluster keeper ∧ pixel
    quality ∧ caption rules ∧ CLIP alignment — bytes decoded exactly
    once inside it) gates the image table, and the keepers are written
    as resumable sorted parquet shards + manifest.

    Scale shape: the decision is a tiny (image_id, keep) dataset; it
    co-locates with the image rows via ONE keyed repartition on
    image_id (union of schema-aligned row kinds — Ray's hash join
    cannot finalize empty partitions), the block-local filter keeps
    decided images, and the shard exchange + parallel worker writes are
    the shared `export_sharded` machinery. The binary payload crosses
    the wire twice (curation read + export read), never the driver.
    Deterministic crawl-side inputs ⇒ byte-identical re-release;
    reconciliation-tested (shards == decision keepers)."""
    import pyarrow.compute as pc
    import ray

    from .multimodal import image_curation_full

    if out_dir is None:
        out_dir = default_out_dir(
            "dcr_release", os.path.dirname(images_parquet.rstrip("/")),
            f"curated_images_s{n_shards}")

    decision = image_curation_full(
        images_parquet, max_hamming=max_hamming
    ).select_columns(["image_id", "keep"]).materialize()

    def dec_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"image_id": t.column("image_id"),
             "bytes": pa.nulls(len(t), pa.binary()),
             "w": pa.nulls(len(t), pa.int32()),
             "h": pa.nulls(len(t), pa.int32()),
             "caption": pa.nulls(len(t), pa.string()),
             "keep": t.column("keep"),
             "is_img": pa.array(np.zeros(len(t), np.int8()), pa.int8())})

    def img_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"image_id": t.column("image_id"),
             "bytes": t.column("bytes"),
             "w": t.column("w"),
             "h": t.column("h"),
             "caption": t.column("caption"),
             "keep": pa.array(np.zeros(len(t), bool), pa.bool_()),
             "is_img": pa.array(np.ones(len(t), np.int8()), pa.int8())})

    def attach(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"image_id": pa.array([], pa.string()),
             "bytes": pa.array([], pa.binary()),
             "w": pa.array([], pa.int32()),
             "h": pa.array([], pa.int32()),
             "caption": pa.array([], pa.string()),
             "shard": pa.array([], pa.int64()),
             "fp": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        is_img = b.column("is_img").to_numpy().astype(bool)
        ids = np.asarray(b.column("image_id").to_pylist(), dtype=object)
        keep = b.column("keep").to_numpy(zero_copy_only=False).astype(bool)
        mask = is_img & np.isin(ids, ids[(~is_img) & keep])
        sub = b.filter(pa.array(mask)).drop_columns(["keep", "is_img"])
        if len(sub) == 0:
            return empty
        sids = sub.column("image_id").to_pylist()
        digests = _content_digests(sub.column("bytes").to_pylist())
        return sub.append_column(
            "shard", pa.array(_shard_of(sids, n_shards), pa.int64())
        ).append_column(
            "fp", pa.array(_fingerprints(sids, digests), pa.int64()))

    n_co = n_partitions if n_partitions is not None else hash_partition_count()

    def build():
        dec = ray.data.from_arrow_refs(
            list(decision.to_arrow_refs())
        ).map_batches(dec_rows, batch_format="pyarrow", **remote_kwargs())
        imgs = ray.data.read_parquet(
            images_parquet,
            columns=["image_id", "bytes", "w", "h", "caption"],
        ).map_batches(img_rows, batch_format="pyarrow", **remote_kwargs())
        return imgs.union(dec).repartition(
            n_co, keys=["image_id"]
        ).map_batches(attach, batch_format="pyarrow", batch_size=None,
                      **remote_kwargs())

    return export_sharded(build, out_dir, "image_id",
                          n_partitions=n_partitions)


def curated_doc_release(sf_dir: str, out_dir: str | None = None,
                        n_partitions: int | None = None,
                        n_shards: int = DEFAULT_SHARDS):
    """The text-side staged-curation last mile — the documents-table
    analogue of `curated_image_release`: the FULL fused curation
    decision (`filters.doc_curation_full`: Gopher pass ∧ exact-dedup
    keeper ∧ MinHash-cluster keeper ∧ not benchmark-contaminated ∧ not
    a benchmark doc) gates the documents table, and the keepers are
    written as resumable sorted parquet shards + manifest.

    Scale shape: the decision is a tiny (doc_id, keep) dataset; it
    co-locates with the document rows via ONE keyed repartition on
    doc_id (union of schema-aligned row kinds), the block-local filter
    keeps decided docs, and the shard exchange + parallel worker writes
    are the shared `export_sharded` machinery. Identity = doc_id,
    fingerprint content = md5(text), so re-exports are byte-identical
    and resume shard-by-shard. Full SQL oracle: the composed
    doc_curation_full keep CTE chain + the md5-bucket + bit_xor
    manifest replay every release sink uses."""
    import ray

    from .filters import doc_curation_full

    if out_dir is None:
        out_dir = default_out_dir("dcr_release", sf_dir,
                                  f"curated_docs_s{n_shards}")

    decision = doc_curation_full(sf_dir).select_columns(
        ["doc_id", "keep"]).materialize()

    def dec_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "text": pa.nulls(len(t), pa.string()),
             "source": pa.nulls(len(t), pa.string()),
             "keep": t.column("keep"),
             "is_doc": pa.array(np.zeros(len(t), np.int8()), pa.int8())})

    def doc_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t.column("doc_id"),
             "text": t.column("text"),
             "source": t.column("source"),
             "keep": pa.array(np.zeros(len(t), bool), pa.bool_()),
             "is_doc": pa.array(np.ones(len(t), np.int8()), pa.int8())})

    def attach(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "text": pa.array([], pa.string()),
             "source": pa.array([], pa.string()),
             "shard": pa.array([], pa.int64()),
             "fp": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        is_doc = b.column("is_doc").to_numpy().astype(bool)
        ids = b.column("doc_id").to_numpy()
        keep = b.column("keep").to_numpy(zero_copy_only=False).astype(bool)
        mask = is_doc & np.isin(ids, ids[(~is_doc) & keep])
        sub = b.filter(pa.array(mask)).drop_columns(["keep", "is_doc"])
        if len(sub) == 0:
            return empty
        sids = sub.column("doc_id").to_numpy()
        digests = _content_digests(sub.column("text").to_pylist())
        return sub.append_column(
            "shard", pa.array(_shard_of(sids, n_shards), pa.int64())
        ).append_column(
            "fp", pa.array(_fingerprints(sids, digests), pa.int64()))

    n_co = n_partitions if n_partitions is not None else hash_partition_count()

    def build():
        dec = ray.data.from_arrow_refs(
            list(decision.to_arrow_refs())
        ).map_batches(dec_rows, batch_format="pyarrow", **remote_kwargs())
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "source"],
        ).map_batches(doc_rows, batch_format="pyarrow", **remote_kwargs())
        return docs.union(dec).repartition(
            n_co, keys=["doc_id"]
        ).map_batches(attach, batch_format="pyarrow", batch_size=None,
                      **remote_kwargs())

    return export_sharded(build, out_dir, "doc_id",
                          n_partitions=n_partitions)


def corpus_release(ckpt_dir: str, out_dir: str | None = None,
                   n_partitions: int | None = None,
                   n_shards: int = DEFAULT_SHARDS):
    """The flagship composition's last mile: crawl checkpoint → curated
    corpus (`pipelines/curate.py`) → quality rows only → resumable
    release shards + manifest. Identity = url_hash; fingerprint content =
    the curated row's volatile fields (curate's md5(lower(text))
    `fingerprint` plus the surviving url and round), so a re-crawl that
    changes a page's latest version — even at the same length — always
    re-releases the shard, and a partial failure resumes shard-by-shard."""
    from ..pipelines.curate import curate_corpus

    if out_dir is None:
        out_dir = default_out_dir("dcr_release", ckpt_dir, f"s{n_shards}")

    def assign(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("quality_ok"))
        ids = t.column("url_hash").to_numpy(zero_copy_only=False)
        digests = _content_digests([
            f"{fp}:{u}:{int(r)}" for fp, u, r in zip(
                t.column("fingerprint").to_pylist(),
                t.column("url").to_pylist(),
                t.column("round").to_pylist())])
        return t.append_column(
            "shard", pa.array(_shard_of(ids, n_shards), pa.int64())
        ).append_column("fp", pa.array(_fingerprints(ids, digests), pa.int64()))

    # curate_corpus materializes internally and returns a rebuilt
    # dataset, but map_batches chains must still be planned under the
    # scoped context — build inside the thunk
    def build():
        return curate_corpus(ckpt_dir).map_batches(
            assign, batch_format="pyarrow", **remote_kwargs())

    return export_sharded(build, out_dir, "url_hash",
                          n_partitions=n_partitions)
