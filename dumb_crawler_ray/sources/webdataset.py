"""WebDataset-style tar shard I/O for the image+caption table.

The image-training community's container convention (WebDataset: a tar
archive whose members group by basename stem — `{key}.img` payload +
`{key}.json` metadata per sample, read sequentially for throughput).
This module gives the engine that wire format with stdlib `tarfile`
only:

- `export_webdataset(images_parquet, out_dir)` — the images table as
  deterministic tar shards through the shared resumable
  `export_sharded` machinery (md5-bucket shards of image_id, sorted
  members, skip-unchanged manifest). Tar bytes are REPRODUCIBLE: mtime
  pinned to 0, uid/gid 0, fixed mode, USTAR format — a re-export is
  byte-identical, so the atomic tmp+rename and shard-level resume
  carry over unchanged.
- `read_webdataset(out_dir)` — tar shards back into a Ray Dataset:
  one read task per shard (`flat_map` over the shard list — shards are
  the parallelism unit, exactly how WebDataset is consumed), members
  re-grouped by stem into (image_id, bytes, w, h, fmt, caption) rows.

Round-trips the BASELINE.json input-hint schema minus the derived
`phash` column (recomputable from bytes); `test_webdataset_round_trip`
asserts row-for-row equality both ways.

Reference analogue: the WARC import/export shim (`sources/warc.py`)
plays this role for the crawl's page axis; this is the image-axis
counterpart.
"""

from __future__ import annotations

import io
import json
import os
import tarfile

import numpy as np
import pyarrow as pa

from ..rayutil import remote_kwargs

_MODE = 0o644


def _write_tar_shard(tbl: pa.Table, path: str) -> None:
    """One sorted (by export_sharded) table → one deterministic tar."""
    with tarfile.open(path, "w", format=tarfile.USTAR_FORMAT) as tf:
        for i in range(len(tbl)):
            key = tbl.column("image_id")[i].as_py()
            payload = tbl.column("bytes")[i].as_py()
            meta = json.dumps(
                {"w": tbl.column("w")[i].as_py(),
                 "h": tbl.column("h")[i].as_py(),
                 "fmt": tbl.column("fmt")[i].as_py(),
                 "caption": tbl.column("caption")[i].as_py()},
                sort_keys=True).encode("utf-8")
            for name, data in ((f"{key}.img", payload),
                               (f"{key}.json", meta)):
                info = tarfile.TarInfo(name)
                info.size = len(data)
                info.mtime = 0
                info.uid = info.gid = 0
                info.mode = _MODE
                tf.addfile(info, io.BytesIO(data))


def export_webdataset(images_parquet: str, out_dir: str | None = None,
                      n_partitions: int | None = None,
                      n_shards: int | None = None) -> pa.Table:
    """Image table → WebDataset tar shards + manifest, resumable (the
    `export_sharded` skip-unchanged pact; fingerprint content = md5 of
    the encoded bytes, same as the parquet image sink)."""
    import ray

    from ..ops.export import (DEFAULT_SHARDS, _content_digests,
                              _fingerprints, _shard_of, default_out_dir,
                              export_sharded)

    if n_shards is None:
        n_shards = DEFAULT_SHARDS
    if out_dir is None:
        out_dir = default_out_dir(
            "dcr_release", os.path.dirname(images_parquet.rstrip("/")),
            f"wds_s{n_shards}")

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        digests = _content_digests(t.column("bytes").to_pylist())
        return t.append_column(
            "shard", pa.array(_shard_of(ids, n_shards), pa.int64())
        ).append_column(
            "fp", pa.array(_fingerprints(ids, digests), pa.int64()))

    def build():
        return ray.data.read_parquet(
            images_parquet,
            columns=["image_id", "bytes", "w", "h", "fmt", "caption"],
        ).map_batches(assign, batch_format="pyarrow", **remote_kwargs())

    return export_sharded(build, out_dir, "image_id",
                          n_partitions=n_partitions,
                          write_shard=_write_tar_shard, shard_ext=".tar")


def read_tar_samples(path: str) -> pa.Table:
    """One tar shard → (image_id, bytes, w, h, fmt, caption) rows in
    member order. Members group by stem; a stem missing either half is
    skipped with a warning (tolerant-reader pact, like the WARC
    importer)."""
    import logging

    bufs: dict[str, dict] = {}
    order: list[str] = []
    with tarfile.open(path, "r") as tf:
        for m in tf:
            if not m.isfile():
                continue
            stem, dot, ext = m.name.rpartition(".")
            if not dot or ext not in ("img", "json"):
                continue
            if stem not in bufs:
                bufs[stem] = {}
                order.append(stem)
            bufs[stem][ext] = tf.extractfile(m).read()
    ids, blobs, ws, hs, fmts, caps = [], [], [], [], [], []
    dropped = 0
    for stem in order:
        rec = bufs[stem]
        if "img" not in rec or "json" not in rec:
            dropped += 1
            continue
        meta = json.loads(rec["json"])
        ids.append(stem)
        blobs.append(rec["img"])
        ws.append(int(meta["w"]))
        hs.append(int(meta["h"]))
        fmts.append(meta["fmt"])
        caps.append(meta["caption"])
    if dropped:
        logging.getLogger(__name__).warning(
            "read_tar_samples(%s): skipped %d incomplete sample(s)",
            path, dropped)
    return pa.table(
        {"image_id": pa.array(ids, pa.string()),
         "bytes": pa.array(blobs, pa.binary()),
         "w": pa.array(np.asarray(ws, np.int32), pa.int32()),
         "h": pa.array(np.asarray(hs, np.int32), pa.int32()),
         "fmt": pa.array(fmts, pa.string()),
         "caption": pa.array(caps, pa.string())})


def read_webdataset(out_dir: str):
    """WebDataset tar shards → Ray Dataset, one read task per shard
    (shards ARE the parallelism unit — the format's own consumption
    model; at 100 TB size n_shards so a shard is one task's worth)."""
    import ray

    from ..ops.export import manifest_shard_paths

    # manifest-driven: never glob — orphaned tars from a prior export
    # with a different shard count must not resurrect deleted rows
    shards = manifest_shard_paths(out_dir, ext=".tar")

    def load(t: pa.Table) -> pa.Table:
        # Arrow-table output preserves the schema's exact dtypes
        # (int32 w/h) through the read
        return pa.concat_tables(
            [read_tar_samples(p) for p in t.column("item").to_pylist()])

    return ray.data.from_items(
        shards, override_num_blocks=max(1, len(shards))
    ).map_batches(load, batch_format="pyarrow", batch_size=None,
                  **remote_kwargs())
