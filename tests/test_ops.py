"""Ops suite: every SQL-checkable query must match its DuckDB oracle at
sf0.001 (the driver runs the same comparison at sf0.01); non-SQL ops get
semantic checks (recall, determinism, invariants)."""

import logging

import duckdb
import numpy as np
import pandas as pd
import pytest

logging.getLogger("ray.data").setLevel(logging.ERROR)

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def run_oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.execute(sql).df()


def to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    raise TypeError(type(result))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("int64")
        if df[c].dtype == np.float32:
            df[c] = df[c].astype(np.float64)
        if str(df[c].dtype) in ("int32", "uint32", "int16", "uint64"):
            df[c] = df[c].astype("int64")
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def compare(name, ray_result, sql, sf_dir=SF):
    got = normalize(to_df(ray_result))
    want = normalize(run_oracle(sql, sf_dir))
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def registry(ray_session):
    from dumb_crawler_ray.ops.registry import build_registry

    return build_registry()


SQL_CHECKED = [
    "lineitem_pricing_summary", "orders_by_segment", "urgent_orders_by_nation",
    "events_by_type", "top_users_by_value", "events_hourly_window",
    "props_k_stats", "part_brand_stats", "doc_token_counts",
    "doc_quality_scores", "doc_fingerprints", "dedup_exact",
    "ann_bruteforce_topk", "ngram_jaccard_pairs", "order_priority_revenue",
    "top_parts_per_brand", "user_sessions", "daily_active_users",
    "order_size_distribution", "purchase_click_asof",
    "event_value_quantiles", "supplier_nation_stats", "word_frequencies",
    "doc_sample", "heavy_hitters_users", "event_funnel", "high_value_week",
    "events_sliding_window", "simhash_signatures", "simhash_near_dup_pairs",
    "image_phash_near_dups", "lang_id", "jaccard_clusters",
    "corpus_stats", "minhash_near_dup_pairs", "near_dup_clusters",
    "gopher_quality_flags", "pii_scrub_stats", "contamination_overlap",
    "line_dedup_stats", "winnowed_fingerprints", "repetition_ratios",
    "source_balanced_sample", "pack_sequences", "image_caption_stats",
    "image_exact_dedup", "image_shard_pack", "duplicated_text_share",
    "quality_classifier_scores", "doc_split", "embedding_near_dup_pairs",
    "image_keeplist", "retention_cohorts", "filtered_ann_topk",
    "page_rank", "bigram_lm_scores", "page_indegree",
    "leakage_safe_split", "export_corpus", "cms_user_counts",
    "crawl_seen_set", "crawl_order", "crawl_counters", "curated_corpus",
    "image_aspect_buckets", "image_size_filter", "dataset_mixture",
    "export_image_shards", "crawl_lineage_counts", "corpus_release",
    "crawl_domain_stats", "export_webdataset", "eval_decontaminate",
    "bpe_train", "bpe_token_counts", "chunk_documents",
    "crawl_politeness_check", "image_decode_check",
    "image_aesthetic_scores", "image_quality", "image_tower_check",
    "image_decode_stats", "image_features", "image_resize_meta",
    "audio_features", "audio_vad_segments", "video_frame_sample",
    "video_scene_cuts", "image_curation", "image_resize_to_bucket",
    # r5 fixed-shape-gemm graduates: the whole embedding family
    "image_embeddings", "image_caption_alignment", "image_curation_full",
    "image_ann_topk", "caption_to_image_topk",
    # r5 symbolic/manifest replays for the remaining sinks
    "compact_pages", "curated_image_release",
    # r5 session-3 additions: substring removal + DSIR weights + overlap
    "substring_dedup", "dsir_importance_weights", "source_overlap_matrix",
    "substring_dedup_keep_one",
    # r5 session-5: the fused text-corpus curation decision (X96) and
    # its release sink (X97)
    "doc_curation_full", "curated_doc_release",
]


def test_cms_guarantee(registry, ray_session):
    """CMS point queries: never underestimate, and respect the
    ε = e/width additive bound (with slack) against exact counts."""
    import math

    import pyarrow.parquet as pq

    import pyarrow as pa

    from dumb_crawler_ray.ops.text import CMS_WIDTH, cms_estimate

    sketch = pa.Table.from_pandas(to_df(registry["cms_user_counts"][0](SF)))
    exact = (pq.read_table(f"{SF}/events.parquet", columns=["user_id"])
             .to_pandas()["user_id"].value_counts())
    n_events = int(exact.sum())
    users = list(exact.index[:50]) + list(exact.index[-50:])
    est = cms_estimate(sketch, users)
    bound = math.ceil(math.e * n_events / CMS_WIDTH) * 3  # slack: δ tail
    for u, e_ in zip(users, est):
        assert e_ >= exact[u], (u, e_, exact[u])
        assert e_ <= exact[u] + bound, (u, e_, exact[u], bound)


def test_export_corpus_roundtrip_and_resume(ray_session, tmp_path):
    """The sink contract: shards re-read to exactly the input, a second
    run skips every shard (resume), and deleting one shard rewrites ONLY
    that shard."""
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export

    out = str(tmp_path / "export")
    m1 = export.export_corpus(SF, out_dir=out).to_pandas()
    assert len(m1) == export.DEFAULT_SHARDS and m1["n_docs"].sum() == 500
    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".parquet"))
    assert len(shard_files) == export.DEFAULT_SHARDS
    got = pd.concat([pq.read_table(f).to_pandas() for f in shard_files])
    want = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want[got.columns].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export.export_corpus(SF, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes  # all skipped

    victim = shard_files[3]
    os.remove(victim)
    export.export_corpus(SF, out_dir=out)
    after = {f: os.path.getmtime(f) for f in shard_files}
    assert after[victim] > mtimes[victim]
    assert all(after[f] == mtimes[f] for f in shard_files if f != victim)

    # shard count is a scale knob: a non-default n_shards still covers
    # every row exactly once
    out4 = str(tmp_path / "export4")
    m4 = export.export_corpus(SF, out_dir=out4, n_shards=4).to_pandas()
    assert len(m4) == 4 and m4["n_docs"].sum() == 500


def test_default_out_dir_keys_on_the_source_path(tmp_path):
    """A sink's default output directory: the same source path always
    gives the same directory, and one basename under two parents gives
    two."""
    from dumb_crawler_ray.ops.export import default_out_dir

    a, b = str(tmp_path / "a" / "corpus"), str(tmp_path / "b" / "corpus")
    d = default_out_dir("dcr_export", a, "s4")
    assert d == default_out_dir("dcr_export", a + "/", "s4")
    assert d != default_out_dir("dcr_export", b, "s4")
    assert d.startswith("/tmp/dcr_export/corpus_") and d.endswith("_s4")


def test_default_export_dirs_do_not_collide(ray_session, tmp_path):
    """`export_corpus` with no out_dir, run on two copies of one corpus
    that share a basename, writes two directories with a manifest each."""
    import os
    import shutil

    from dumb_crawler_ray.ops import export

    srcs = []
    for parent in ("a", "b"):
        d = tmp_path / parent / "corpus"
        d.mkdir(parents=True)
        shutil.copy(f"{SF}/documents.parquet", d)
        srcs.append(str(d))
    outs = [export.default_out_dir("dcr_export", s, "s2") for s in srcs]
    try:
        for s in srcs:
            export.export_corpus(s, n_shards=2)
        assert outs[0] != outs[1]
        for o in outs:
            assert os.path.exists(os.path.join(o, "manifest.json"))
    finally:
        for o in outs:
            shutil.rmtree(o, ignore_errors=True)


def test_export_image_shards_roundtrip_and_resume(ray_session, tmp_path):
    """The multimodal sink: shards re-read to exactly the GATED subset of
    the image table (size/aspect + caption rules), a second run skips
    every shard, and the gate actually drops rows (non-vacuous)."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export
    from dumb_crawler_ray.ops.multimodal import (ASPECT_MAX_DEN,
                                                 ASPECT_MAX_NUM,
                                                 SIZE_MIN_SIDE,
                                                 caption_rule_columns)
    from dumb_crawler_ray.ops.registry import _fixture_dir

    src = f"{_fixture_dir()}/images.parquet"
    out = str(tmp_path / "img_export")
    m1 = export.export_image_shards(src, out_dir=out).to_pandas()

    parts = sorted(glob.glob(f"{src}/*.parquet"))
    tbl = pa.concat_tables([pq.read_table(
        p, columns=["image_id", "bytes", "w", "h", "caption"])
        for p in parts])
    w = tbl.column("w").to_numpy().astype(np.int64)
    h = tbl.column("h").to_numpy().astype(np.int64)
    mn, mx = np.minimum(w, h), np.maximum(w, h)
    size_ok = (mn >= SIZE_MIN_SIDE) & (mx * ASPECT_MAX_DEN
                                       <= mn * ASPECT_MAX_NUM)
    _a, _b, cap_ok = caption_rule_columns(tbl.column("caption"))
    want = tbl.filter(pa.array(
        size_ok & cap_ok.to_numpy(zero_copy_only=False))).to_pandas()
    assert 0 < len(want) < len(tbl)              # the gate bites
    assert m1["n_docs"].sum() == len(want)

    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(f).to_pandas() for f in shard_files])
    got = got.sort_values("image_id").reset_index(drop=True)
    want = want[got.columns].sort_values("image_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)

    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export.export_image_shards(src, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes


def test_webdataset_round_trip(ray_session, tmp_path):
    """Tar shards must read back to exactly the image table (minus the
    derived phash column), re-export must be BYTE-identical even after
    the manifest is removed (deterministic tar: pinned mtime/uid/mode),
    and an unchanged re-export skips every shard."""
    import glob
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.registry import _fixture_dir
    from dumb_crawler_ray.sources.webdataset import (export_webdataset,
                                                     read_webdataset)

    src = f"{_fixture_dir()}/images.parquet"
    out = str(tmp_path / "wds")
    m1 = export_webdataset(src, out_dir=out).to_pandas()

    want = pa.concat_tables([
        pq.read_table(p, columns=["image_id", "bytes", "w", "h", "fmt",
                                  "caption"])
        for p in sorted(glob.glob(f"{src}/*.parquet"))]).to_pandas()
    assert m1["n_docs"].sum() == len(want)

    got = read_webdataset(out).to_pandas()
    got = got.sort_values("image_id").reset_index(drop=True)
    want = want[got.columns].sort_values("image_id").reset_index(drop=True)
    got["bytes"] = got["bytes"].map(bytes)
    want["bytes"] = want["bytes"].map(bytes)
    pd.testing.assert_frame_equal(got, want)

    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".tar"))
    digests = {f: hashlib.md5(open(f, "rb").read()).hexdigest()
               for f in shard_files}
    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export_webdataset(src, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes

    os.remove(f"{out}/manifest.json")  # force a full rewrite
    export_webdataset(src, out_dir=out)
    assert {f: hashlib.md5(open(f, "rb").read()).hexdigest()
            for f in shard_files} == digests  # byte-identical tars


def test_compact_pages_reconciles_and_resumes(ray_session, tmp_path):
    """Compaction must preserve curation semantics exactly: running the
    curate pipeline over the compacted store equals running it over the
    raw per-round fragments, every stored url_hash appears exactly once,
    and a second compaction skips every shard."""
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export
    from dumb_crawler_ray.ops.registry import _crawl_result
    from dumb_crawler_ray.pipelines.curate import curate_corpus

    r = _crawl_result()
    out = str(tmp_path / "compact")
    m1 = export.compact_pages(r.ckpt_dir, out_dir=out).to_pandas()

    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(f).to_pandas() for f in shard_files])
    assert got["url_hash"].is_unique
    assert m1["n_docs"].sum() == len(got)

    fake = tmp_path / "fakeckpt" / "pages"
    fake.mkdir(parents=True)
    for f in shard_files:
        os.link(f, fake / os.path.basename(f))
    a = curate_corpus(r.ckpt_dir).to_pandas()
    b = curate_corpus(str(tmp_path / "fakeckpt")).to_pandas()
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))

    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export.compact_pages(r.ckpt_dir, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes

    # a SAME-LENGTH content change must re-compact its shard (the
    # fingerprint digests content, not a length proxy — compaction
    # replaces the read path, so staleness here is data corruption)
    import glob
    import shutil
    raw2 = tmp_path / "raw2"
    shutil.copytree(f"{r.ckpt_dir}/pages", raw2 / "pages")
    frag0 = sorted(glob.glob(str(raw2 / "pages" / "**" / "*.parquet"),
                             recursive=True))[0]
    out2 = str(tmp_path / "compact2")
    export.compact_pages(str(raw2), out_dir=out2)
    t0 = pq.read_table(frag0)
    html0 = t0.column("html").to_pylist()
    mutated = html0[0].replace("Article", "Articl3", 1)
    assert len(mutated) == len(html0[0]) and mutated != html0[0]
    t0 = t0.set_column(t0.column_names.index("html"), "html",
                       __import__("pyarrow").array(
                           [mutated] + html0[1:],
                           __import__("pyarrow").string()))
    pq.write_table(t0, frag0)
    export.compact_pages(str(raw2), out_dir=out2)
    victim_hash = t0.column("url_hash")[0].as_py()
    comp = pd.concat([pq.read_table(f"{out2}/{f}").to_pandas()
                      for f in os.listdir(out2) if f.endswith(".parquet")])
    row = comp[comp["url_hash"] == victim_hash]
    # the compacted store serves whichever version latest-wins selects;
    # if the mutated fragment row IS the latest, it must be the new text
    latest = row["html"].iloc[0]
    assert "Articl3" in latest or row["round"].iloc[0] > t0.column(
        "round")[0].as_py()


def test_curated_image_release_reconciles_and_resumes(ray_session,
                                                      tmp_path):
    """The image-side flagship last mile: shards hold EXACTLY the
    curation decision's keepers (ids and bytes), and a second run skips
    every shard."""
    import glob
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export
    from dumb_crawler_ray.ops.multimodal import image_curation_full
    from dumb_crawler_ray.ops.registry import _fixture_dir

    src = f"{_fixture_dir()}/images.parquet"
    out = str(tmp_path / "curated_release")
    m1 = export.curated_image_release(src, out_dir=out).to_pandas()

    dec = image_curation_full(src).to_pandas()
    keepers = set(dec[dec["keep"]]["image_id"])
    assert 0 < len(keepers) < len(dec)
    assert m1["n_docs"].sum() == len(keepers)

    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(f).to_pandas() for f in shard_files])
    assert set(got["image_id"]) == keepers
    src_tbl = pd.concat([
        pq.read_table(p, columns=["image_id", "bytes"]).to_pandas()
        for p in sorted(glob.glob(f"{src}/*.parquet"))])
    src_bytes = dict(zip(src_tbl["image_id"], src_tbl["bytes"]))
    for iid, data in zip(got["image_id"], got["bytes"]):
        assert bytes(data) == bytes(src_bytes[iid])

    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export.curated_image_release(src, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes


def test_curated_doc_release_reconciles_and_resumes(ray_session, tmp_path):
    """The text-side staged-curation last mile: shards hold EXACTLY the
    fused curation decision's keepers (ids and text), and a second run
    skips every shard."""
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export
    from dumb_crawler_ray.ops.filters import doc_curation_full

    out = str(tmp_path / "curated_docs")
    m1 = export.curated_doc_release(SF, out_dir=out).to_pandas()

    dec = doc_curation_full(SF).to_pandas()
    keepers = set(dec[dec["keep"]]["doc_id"])
    assert 0 < len(keepers) < len(dec)
    assert m1["n_docs"].sum() == len(keepers)

    shard_files = sorted(
        f"{out}/{f}" for f in os.listdir(out) if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(f).to_pandas() for f in shard_files])
    assert set(got["doc_id"]) == keepers
    src = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"]).to_pandas()
    src_text = dict(zip(src["doc_id"], src["text"]))
    for did, text in zip(got["doc_id"], got["text"]):
        assert text == src_text[did]

    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = export.curated_doc_release(SF, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes


def test_leakage_safe_split_guard_and_paths(ray_session, monkeypatch):
    """Near-dup cluster members MUST share a split (the leakage guard),
    and the broadcast and dataset-resident annotate paths must agree."""
    from dumb_crawler_ray.ops import relational
    from dumb_crawler_ray.ops.dedup import ngram_jaccard_pairs
    from dumb_crawler_ray.ops.text import leakage_safe_split

    fast = leakage_safe_split(SF).to_pandas()
    with monkeypatch.context() as m:
        m.setattr(relational, "BROADCAST_ROW_LIMIT", -1)  # scale path
        dist = leakage_safe_split(SF).to_pandas()
    pd.testing.assert_frame_equal(fast, dist)
    split_of = dict(zip(fast["doc_id"], fast["split"]))
    pairs = ngram_jaccard_pairs(SF).to_pandas()
    assert len(pairs) > 0
    for a, b in zip(pairs["a"], pairs["b"]):
        assert split_of[a] == split_of[b], (a, b)
    # unclustered docs keep the plain doc_split assignment granularity
    assert set(fast["split"]) <= {"train", "val", "test"}
    assert (fast["cluster_rep"] <= fast["doc_id"]).all()


def test_page_rank_partition_independent(ray_session, tmp_path):
    """Rank output must be identical at any partition count (the 10^10
    design bar: block splits never change results), zero-indegree nodes
    land exactly at PR_BASE, and a hub out-ranks its spokes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import graph

    # star: a,b,c → hub; hub → a; plus an isolated node and a dangling link
    pages = pa.table({
        "url": ["u/a", "u/b", "u/c", "u/hub", "u/lone"],
        "outlinks": [["u/hub"], ["u/hub", "u/hub"], ["u/hub", "u/a"],
                     ["u/a", "u/ghost"], []],
    })
    p = tmp_path / "pages.parquet"
    pq.write_table(pages, p)
    r2 = graph.page_rank(str(p), n_partitions=2).to_pandas()
    r5 = graph.page_rank(str(p), n_partitions=5).to_pandas()
    pd.testing.assert_frame_equal(r2, r5)
    ranks = dict(zip(r2["url"], r2["rank_scaled"]))
    assert ranks["u/lone"] == graph.PR_BASE  # no in-links
    assert ranks["u/hub"] > ranks["u/b"] and ranks["u/hub"] > ranks["u/c"]
    # duplicate outlinks collapse: b's two hub links count once → a and b
    # contribute equally to the hub
    assert ranks["u/a"] > graph.PR_BASE  # hub links back


def test_component_reps_chain_vs_unionfind(ray_session, monkeypatch):
    """Distributed min-label propagation must agree with driver union-find
    on a graph that needs MANY propagation rounds (a long chain) plus
    disjoint components and string ids."""
    import pyarrow as pa
    import ray

    from dumb_crawler_ray.ops import cc

    # chain 0-1-...-11 (diameter 11 → exercises the convergence loop),
    # a separate triangle, and an isolated pair
    a = list(range(11)) + [100, 100, 101] + [200]
    b = list(range(1, 12)) + [101, 102, 102] + [201]
    pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    uf = cc.components_unionfind([pairs])
    monkeypatch.setattr(cc, "CC_DRIVER_PAIR_LIMIT", -1)  # scale path
    dist = cc.component_reps(ray.data.from_arrow(pairs))
    assert uf == dist
    assert all(v == 0 for k, v in uf.items() if k <= 11)

    sa = [f"img{i:03d}" for i in (1, 2, 5)]
    sb = [f"img{i:03d}" for i in (2, 3, 6)]
    spairs = pa.table({"a": pa.array(sa), "b": pa.array(sb)})
    assert cc.components_unionfind([spairs]) == cc.component_reps(
        ray.data.from_arrow(spairs))


def test_keeplist_paths_equivalent(registry, ray_session, monkeypatch):
    """image_keeplist via the driver union-find and via distributed
    min-label propagation must produce identical keep-lists."""
    from dumb_crawler_ray.ops import cc, multimodal
    from dumb_crawler_ray.ops.registry import _fixture_dir

    imgs = f"{_fixture_dir()}/images.parquet"
    small = to_df(multimodal.image_keeplist(imgs)).reset_index(drop=True)
    with monkeypatch.context() as m:
        m.setattr(cc, "CC_DRIVER_PAIR_LIMIT", -1)  # scale path
        big = to_df(multimodal.image_keeplist(imgs)).reset_index(drop=True)
    pd.testing.assert_frame_equal(small, big)
    assert small["keep"].sum() < len(small)  # planted dups actually cluster


def test_simhash_pairs_nonvacuous_at_sf001(registry, ray_session):
    """sf0.001 may have no hamming≤3 pairs; the driver-scale table (sf0.01)
    must produce >0 so the oracle comparison is non-vacuous, and every
    reported pair must respect the threshold."""
    fn, sql = registry["simhash_near_dup_pairs"]
    df = to_df(fn("/root/testdata/sf0.01"))
    assert len(df) > 0
    assert (df["hamming"] <= 3).all()
    compare("simhash_near_dup_pairs[sf0.01]", df, sql,
            sf_dir="/root/testdata/sf0.01")


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_sql_parity(registry, name):
    fn, sql = registry[name]
    assert sql is not None
    compare(name, fn(SF), sql)


def test_image_aspect_buckets_nearest(registry, ray_session):
    """Every assigned bucket must be the true argmin of the exact
    rational distance |w/h − rw/rh| over the ladder, with ties going to
    the lowest bucket_id, and the fixture must exercise >1 bucket."""
    from fractions import Fraction

    from dumb_crawler_ray.ops.multimodal import ASPECT_LADDER

    df = to_df(registry["image_aspect_buckets"][0](SF))
    assert len(df) > 0 and df["bucket_id"].nunique() > 1
    for row in df.itertuples():
        want = min(
            ASPECT_LADDER,
            key=lambda b: (abs(Fraction(row.w, row.h)
                               - Fraction(b[3], b[4])), b[0]),
        )
        assert (row.bucket_id, row.target_w, row.target_h) == want[:3], row


def test_image_semantic_dedup_invariants(registry, ray_session):
    """SemDeDup over image embeddings: keepers within a cluster are
    pairwise ≤ threshold, every drop names a kept image whose cosine
    exceeds the threshold, output is deterministic, and the fixture's
    planted near-identical images make the prune non-vacuous."""
    import numpy as np

    from dumb_crawler_ray.ops.ann import _normalize
    from dumb_crawler_ray.ops.multimodal import ImageEmbedWorker
    from dumb_crawler_ray.ops.registry import _fixture_dir
    from dumb_crawler_ray.ops.vecutil import embedding_matrix

    df = to_df(registry["image_semantic_dedup"][0](SF))
    pd.testing.assert_frame_equal(
        df, to_df(registry["image_semantic_dedup"][0](SF)))  # deterministic
    assert (~df["keep"]).sum() > 0          # planted dups actually pruned
    assert df["keep"].sum() > 0

    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    parts = sorted(glob.glob(f"{_fixture_dir()}/images.parquet/*.parquet"))
    tbl = pa.concat_tables([pq.read_table(p, columns=["image_id", "bytes"])
                            for p in parts])
    w = ImageEmbedWorker()
    emb_tbl = w(tbl)
    emb = dict(zip(
        emb_tbl.column("image_id").to_pylist(),
        _normalize(embedding_matrix(emb_tbl.column("embedding")))))

    for c, sub in df.groupby("cluster"):
        kept = sub[sub["keep"]]["image_id"].tolist()
        m = np.stack([emb[i] for i in kept]) if kept else None
        if m is not None and len(kept) > 1:
            sims = m @ m.T
            np.fill_diagonal(sims, 0.0)
            assert sims.max() <= 0.9 + 1e-9, (c, sims.max())
        for row in sub[~sub["keep"]].itertuples():
            assert row.dup_of in kept
            assert float(emb[row.image_id] @ emb[row.dup_of]) > 0.9 - 1e-9


def test_caption_to_image_topk_matches_local(registry, ray_session):
    """Cross-modal retrieval must equal a single-process brute-force
    reimplementation exactly: same towers run locally, full cosine
    matrix, same pinned (−sim, neighbor_id) tie-break — so the
    distributed partial-top-k/merge machinery provably loses nothing."""
    import glob

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.functions import codec
    from dumb_crawler_ray.ops.multimodal import (CaptionEmbedWorker,
                                                 ImageEmbedWorker)
    from dumb_crawler_ray.ops.registry import _fixture_dir
    from dumb_crawler_ray.ops.vecutil import embedding_matrix

    df = to_df(registry["caption_to_image_topk"][0](SF))
    n_queries, k = 16, 5
    parts = sorted(glob.glob(f"{_fixture_dir()}/images.parquet/*.parquet"))
    tbl = pa.concat_tables([pq.read_table(p) for p in parts])
    ids = np.asarray(tbl.column("image_id").to_pylist(), dtype=object)
    order = np.argsort(ids)
    qsel = order[:n_queries]
    cap_w = CaptionEmbedWorker()
    qm = embedding_matrix(
        pa.array(cap_w.embed_captions(
            [tbl.column("caption").to_pylist()[i] for i in qsel]).tolist(),
            pa.list_(pa.float32())))
    img_w = ImageEmbedWorker()
    arrs = [codec.decode(d) for d in tbl.column("bytes").to_pylist()]
    mat = embedding_matrix(
        pa.array(img_w.embed_pixels(arrs).tolist(), pa.list_(pa.float32())))
    sims = qm @ mat.T
    rows = []
    for qi, i in enumerate(qsel):
        top = np.lexsort((ids, -sims[qi]))[:k]
        for r, j in enumerate(top, start=1):
            rows.append((str(ids[i]), r, str(ids[j]),
                         round(float(sims[qi, j]), 4)))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "neighbor_id",
                                       "sim"])
    got = df.sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_ann_index_export_search_roundtrip(ray_session, tmp_path):
    """The persisted IVF+PQ artifact must serve the SAME results as the
    inline pipeline (identical training seeds + arithmetic), re-export
    must skip every unchanged shard, and the codes table must cover
    every vector exactly once."""
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import ann

    out = str(tmp_path / "ann_idx")
    m1 = ann.ann_index_export(SF, out_dir=out).to_pandas()
    n_vec = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert m1["n_docs"].sum() == n_vec
    assert os.path.exists(f"{out}/trained.npz")

    direct = ann.ann_ivfpq_topk(SF).to_pandas()
    served = to_df(ann.ann_index_search(SF, out))
    pd.testing.assert_frame_equal(
        served.reset_index(drop=True), direct.reset_index(drop=True))

    codes_dir = f"{out}/codes"
    shard_files = sorted(f"{codes_dir}/{f}" for f in os.listdir(codes_dir)
                         if f.endswith(".parquet"))
    mtimes = {f: os.path.getmtime(f) for f in shard_files}
    m2 = ann.ann_index_export(SF, out_dir=out).to_pandas()
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in shard_files} == mtimes


def test_semantic_dedup_auto_k(registry, ray_session):
    """k=None applies SemDeDup's scale recipe: at test scale it resolves
    to the floor (8) and must equal the default-k result exactly; the
    formula itself must grow with n so clusters stay bounded."""
    from dumb_crawler_ray.ops import ann

    auto = to_df(ann.semantic_dedup(SF, k=None))
    fixed = to_df(ann.semantic_dedup(SF, k=8))
    pd.testing.assert_frame_equal(auto, fixed)
    T = ann.SEMDEDUP_TARGET_CLUSTER
    assert max(8, -(-10**9 // T)) == (10**9 + T - 1) // T  # grows with n
    assert max(8, -(-100 // T)) == 8                       # floor holds


def test_image_resize_to_bucket_reconciles(registry, ray_session):
    """Resized output must decode to exactly its bucket's target dims,
    and the bucket decision must equal the SQL-checked metadata op's.
    (The raw op keeps the bytes column; the registry wrapper presents
    its md5 digest for the SQL oracle.)"""
    from dumb_crawler_ray.functions import codec
    from dumb_crawler_ray.ops import multimodal
    from dumb_crawler_ray.ops.registry import _fixture_dir

    resized = to_df(multimodal.image_resize_to_bucket(
        f"{_fixture_dir()}/images.parquet"))
    meta = to_df(registry["image_aspect_buckets"][0](SF))
    merged = resized.merge(meta, on="image_id", suffixes=("", "_meta"))
    assert len(merged) == len(resized) == len(meta)
    assert (merged["bucket_id"] == merged["bucket_id_meta"]).all()
    assert (merged["target_w"] == merged["target_w_meta"]).all()
    for row in resized.head(24).itertuples():
        arr = codec.decode(bytes(row.bytes))
        assert arr.shape == (row.target_h, row.target_w, 3)


def test_image_size_filter_nonvacuous(registry, ray_session):
    """The fixture must exercise BOTH gate flags (otherwise the SQL
    parity test proves nothing about the flag arithmetic)."""
    df = to_df(registry["image_size_filter"][0](SF))
    assert df["too_small"].any() and (~df["too_small"]).any()
    assert df["bad_aspect"].any() and (~df["bad_aspect"]).any()
    assert df["keep"].any() and (~df["keep"]).any()
    assert (df["keep"] == ~(df["too_small"] | df["bad_aspect"])).all()


def test_bpe_train_matches_local(registry, ray_session):
    """The distributed BPE run must equal the single-process reference
    implementation merge-for-merge (same pick rule, same rewrite)."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.bpe import bpe_train, bpe_train_local

    got = to_df(bpe_train(SF, n_merges=8))
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    wc = Counter()
    for s in texts:
        wc.update(re.findall(r"[A-Za-z0-9]+", s.lower()))
    want = pd.DataFrame(bpe_train_local(wc, 8),
                        columns=["rank", "left", "right", "merged_count"])
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want,
                                  check_dtype=False)
    # greedy argmax: the winning pair count can never increase round to
    # round (a new pair's occurrences each contain the just-merged symbol)
    assert (got["merged_count"].diff().dropna() <= 0).all()
    assert len(got) == 8


def test_eval_decontaminate_paths_and_planted(registry, ray_session,
                                              monkeypatch):
    """The broadcast and keyed-co-location anti-join paths must agree
    exactly, and every planted eval clone must come back flagged."""
    from dumb_crawler_ray.ops import relational
    from dumb_crawler_ray.ops.filters import (CONTAM_CLONE_OFFSET,
                                              CONTAM_CLONE_PERIOD,
                                              eval_decontaminate)

    fast = to_df(eval_decontaminate(SF))
    with monkeypatch.context() as m:
        m.setattr(relational, "BROADCAST_ROW_LIMIT", -1)  # scale path
        dist = to_df(eval_decontaminate(SF))
    pd.testing.assert_frame_equal(fast.reset_index(drop=True),
                                  dist.reset_index(drop=True))
    clones = fast[fast["doc_id"] >= CONTAM_CLONE_OFFSET]
    assert len(clones) > 0
    assert clones["contaminated"].all()          # planted dups flagged
    assert (~fast["contaminated"]).sum() > 0     # clean docs exist
    assert ((clones["doc_id"] - CONTAM_CLONE_OFFSET)
            % CONTAM_CLONE_PERIOD == 0).all()


def test_dataset_mixture_nonvacuous(registry, ray_session):
    """The hash-derived weight ladder must hit multi-epoch (w > 1),
    fractional-only (w < 1) and dropped-doc cases over the test corpus,
    and per-source mixture rates must track weight_16/16."""
    df = to_df(registry["dataset_mixture"][0](SF))
    assert df["epoch"].max() >= 1                     # some source w ≥ 2.0
    by_src = df.groupby("source")["weight_16"].first()
    assert by_src.nunique() >= 3                      # ladder is exercised
    # a fractional-weight source keeps SOME but not ALL docs
    import pyarrow.parquet as pq
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    n_in = docs.groupby("source").size()
    for src, w16 in by_src.items():
        n_out = (df[df["source"] == src]["doc_id"]).nunique()
        if w16 >= 16:
            assert n_out == n_in[src]                 # every doc appears
        else:
            assert 0 < n_out < n_in[src] or n_in[src] < 8


def test_crawl_politeness_invariant(registry, ray_session):
    """The north-rule compliance view must be all-ok and must actually
    exercise the cap (some round×domain pair fetches exactly cap)."""
    df = to_df(registry["crawl_politeness_check"][0](SF))
    assert df["ok"].all()
    assert df["at_cap"].sum() >= 1
    assert (df["n_fetched"] <= df["cap"]).all()


def test_crawl_oracle_sql_matches_simulator():
    """The recursive-CTE crawl oracles must replay the Python simulator
    bit-for-bit WITHOUT Ray: seen set (every field), the exact BSP fetch
    order, and the counter map. Also asserts the oracle's stated
    precondition — no url_hash collisions in the fixture (the SQL's
    set-closure formulation needs hash↔url to be 1:1)."""
    import duckdb

    from dumb_crawler_ray.ops.registry import (_FIXTURE_SCALE, _FIXTURE_SEED,
                                               _crawl_oracle_sqls,
                                               ensure_oracle_inputs)
    from dumb_crawler_ray.pipelines.oracle import simulate
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, SynthWeb

    ensure_oracle_inputs()
    sqls = _crawl_oracle_sqls()
    web = SynthWeb.generate(seed=_FIXTURE_SEED, scale=_FIXTURE_SCALE)
    res = simulate(DEFAULT_CONFIG, web)
    # precondition: one url per hash in the drained store
    assert len(res.seen_set) == len({h for h in res.seen_set})
    con = duckdb.connect()

    df = con.sql(sqls["crawl_seen_set"]).df()
    got = {
        r.url_hash: (r.status, r.attempt, r.error, r.tags, r.priority)
        for r in df.itertuples()
    }
    want = {h: (v[0], v[1], v[2] or "", v[3], v[4])
            for h, v in res.seen_set.items()}
    assert got == want

    df = con.sql(sqls["crawl_order"]).df()
    assert list(df["url_hash"]) == res.crawl_order
    assert list(df["seq"]) == list(range(len(res.crawl_order)))

    df = con.sql(sqls["crawl_counters"]).df()
    got_c = dict(zip(df["counter"], df["value"].astype(int)))
    assert got_c == {k: int(v) for k, v in res.counters.items()}


def test_simhash_locality(registry, ray_session):
    from dumb_crawler_ray.ops.dedup import simhash64

    a = "the quick brown fox jumps over the lazy dog again and again"
    b = a + " extra"
    far = "completely different words everywhere nothing shared at all here"
    h = lambda x, y: bin((simhash64(x) ^ simhash64(y)) & (2**64 - 1)).count("1")
    assert h(a, b) < h(a, far)
    fn, _ = registry["simhash_signatures"]
    df = to_df(fn(SF))
    assert len(df) == 500 and df["simhash"].dtype == np.int64


def test_minhash_finds_near_dups_and_is_exactly_verified(ray_session):
    """Plant a near-duplicate and check the minhash+LSH pipeline finds it
    with an exact jaccard attached."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import minhash_near_dup_pairs, ngram_jaccard

    base = pq.read_table(f"{SF}/documents.parquet")
    texts = base.column("text").to_pylist()
    ids = base.column("doc_id").to_pylist()
    near = texts[0].replace(" ", " ", 1) + " tail token"
    import tempfile, os

    d = tempfile.mkdtemp()
    t2 = pa.table(
        {
            "doc_id": pa.array(ids + [99999], pa.int64()),
            "text": pa.array(texts + [near], pa.string()),
        }
    )
    pq.write_table(t2, os.path.join(d, "documents.parquet"))
    pairs = minhash_near_dup_pairs(d).to_pylist()
    planted = [p for p in pairs if p["a"] == ids[0] and p["b"] == 99999]
    assert planted, f"planted near-dup not found in {len(pairs)} pairs"
    got_j = planted[0]["inter"] / planted[0]["union_n"]
    assert abs(got_j - ngram_jaccard(texts[0], near)) < 1e-12
    assert 2 * planted[0]["inter"] >= planted[0]["union_n"]


def test_ann_ivf_recall_vs_bruteforce(registry, ray_session):
    bf = to_df(registry["ann_bruteforce_topk"][0](SF))
    ivf = to_df(registry["ann_ivf_topk"][0](SF))
    recall_num = recall_den = 0
    for qid in bf["query_id"].unique():
        truth = set(bf[bf.query_id == qid]["neighbor_id"])
        got = set(ivf[ivf.query_id == qid]["neighbor_id"])
        recall_num += len(truth & got)
        recall_den += len(truth)
    recall = recall_num / recall_den
    # n_probe=10/16 cells: measured 0.82 @sf0.001, 0.94 @sf0.01 (random
    # embeddings are the worst case — no cluster structure to exploit)
    assert recall >= 0.7, f"IVF recall {recall:.2f} too low"


def test_ann_ivfpq_recall_rerank_and_determinism(registry, ray_session):
    """IVF+PQ must (a) keep useful recall vs exact brute force despite
    4-bit codes, (b) emit EXACT sims for what it returns (the rerank
    contract: every reported sim equals the brute-force sim for that
    pair), and (c) be deterministic."""
    bf = to_df(registry["ann_bruteforce_topk"][0](SF))
    pq_ = to_df(registry["ann_ivfpq_topk"][0](SF))
    assert list(pq_.columns) == ["query_id", "rank", "neighbor_id", "sim"]
    recall_num = recall_den = 0
    bf_sim = {(q, n): s for q, n, s in
              zip(bf["query_id"], bf["neighbor_id"], bf["sim"])}
    for qid in bf["query_id"].unique():
        truth = set(bf[bf.query_id == qid]["neighbor_id"])
        got = set(pq_[pq_.query_id == qid]["neighbor_id"])
        recall_num += len(truth & got)
        recall_den += len(truth)
    assert recall_num / recall_den >= 0.7, recall_num / recall_den
    for q, n, s in zip(pq_["query_id"], pq_["neighbor_id"], pq_["sim"]):
        if (q, n) in bf_sim:  # rerank = exact cosine, rounded identically
            assert abs(s - bf_sim[(q, n)]) < 1e-9
    pd.testing.assert_frame_equal(pq_, to_df(registry["ann_ivfpq_topk"][0](SF)))


def test_semantic_dedup_invariants(registry, ray_session):
    """SemDeDup contract: planted exact copies are dropped with nn_sim 1.0
    naming their original; keepers within a cluster are pairwise ≤
    threshold; every drop names a KEPT member of its own cluster with
    sim > threshold; deterministic."""
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import PLANT_ID_OFFSET
    from dumb_crawler_ray.ops.vecutil import embedding_matrix, normalize_rows

    fn = registry["semantic_dedup"][0]
    df = to_df(fn(SF))
    pd.testing.assert_frame_equal(df, to_df(fn(SF)))  # deterministic
    planted = df[df["vec_id"] >= PLANT_ID_OFFSET]
    assert len(planted) == 8
    assert (~planted["keep"]).all()
    assert (planted["nn_sim"] == 1.0).all()
    assert (planted["dup_of"] >= 0).all()

    emb = pq.read_table(f"{SF}/embeddings.parquet")
    mat = normalize_rows(embedding_matrix(emb.column("embedding")))
    vecs = dict(zip(emb.column("vec_id").to_pylist(), mat))
    vecs.update({i + PLANT_ID_OFFSET: vecs[i] for i in range(8)})
    kept = df[df["keep"]]
    kept_ids = set(kept["vec_id"])
    for cluster, grp in kept.groupby("cluster"):
        ids = list(grp["vec_id"])
        import numpy as np
        m = np.stack([vecs[i] for i in ids])
        sims = m @ m.T
        np.fill_diagonal(sims, 0)
        assert sims.max() <= 0.45 + 1e-9, (cluster, sims.max())
    dropped = df[~df["keep"]]
    clus = dict(zip(df["vec_id"], df["cluster"]))
    for vid, dof, c in zip(dropped["vec_id"], dropped["dup_of"],
                           dropped["cluster"]):
        assert dof in kept_ids and clus[dof] == c
        assert float(vecs[vid] @ vecs[dof]) > 0.45 - 1e-9


def test_embedding_near_dups_deterministic(registry, ray_session):
    fn, _ = registry["embedding_near_dup_pairs"]
    a = to_df(fn(SF))
    b = to_df(fn(SF))
    pd.testing.assert_frame_equal(a, b)
    # registry variant runs at threshold 0.35 (rich SQL-oracle surface)
    assert len(a) > 0 and (a["cosine"] >= 0.35).all()


def test_embedding_near_dups_finds_planted_pair(ray_session):
    """Plant a true near-duplicate vector and check the distributed LSH
    pipeline surfaces it with the exact cosine."""
    import os
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import embedding_near_dup_pairs

    base = pq.read_table(f"{SF}/embeddings.parquet")
    vecs = base.column("embedding").to_pylist()
    ids = base.column("vec_id").to_pylist()
    near = (np.asarray(vecs[0]) + np.random.default_rng(5).normal(
        0, 1e-3, len(vecs[0]))).tolist()
    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"vec_id": pa.array(ids + [99999], pa.int64()),
                  "embedding": pa.array(vecs + [near],
                                        base.column("embedding").type)}),
        os.path.join(d, "embeddings.parquet"),
    )
    pairs = to_df(embedding_near_dup_pairs(d))
    planted = pairs[(pairs.a == ids[0]) & (pairs.b == 99999)]
    assert len(planted) == 1, pairs
    assert planted["cosine"].iloc[0] >= 0.999


def test_lang_id_heuristic_on_real_language(ray_session):
    """The sf `lang` column is a label over English-vocab word salad (no
    actual language signal), so accuracy is validated on constructed
    multilingual samples instead; the sf run just checks plumbing."""
    import pyarrow as pa

    from dumb_crawler_ray.ops.text import LangIdWorker

    w = LangIdWorker()
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "lang": pa.array(["es", "de", "fr", "zh", "en"], pa.string()),
            "text": pa.array(
                [
                    "el perro corre por la calle y los gatos se van de la casa",
                    "der hund läuft und die katze ist mit dem mann in das haus",
                    "le chien du village et les chats de la maison en hiver",
                    "这是一个中文句子 with some latin",
                    "the cat sat on the mat and it is that for a reason",
                ],
                pa.string(),
            ),
        }
    )
    out = w(t).to_pylist()
    assert [r["lang_pred"] for r in out] == ["es", "de", "fr", "zh", "en"]


def test_lang_id_runs_on_sf(registry, ray_session):
    df = to_df(registry["lang_id"][0](SF))
    assert len(df) == 500
    assert set(df.columns) == {"doc_id", "lang", "lang_pred", "score"}


def test_image_ops(registry, ray_session):
    stats = to_df(registry["image_decode_stats"][0](SF))
    assert len(stats) == 64 * 4
    assert stats["mean_pixel"].between(0, 255).all()
    meta = to_df(registry["image_resize_meta"][0](SF))
    assert (meta["w"] == 16).all() and (meta["h"] == 16).all()
    dups = to_df(registry["image_phash_near_dups"][0](SF))
    assert (dups["hamming"] <= 8).all() if len(dups) else True


def test_image_features_and_embeddings(registry, ray_session):
    feats = to_df(registry["image_features"][0](SF))
    assert len(feats) == 64 * 4
    assert (feats["thumb_bytes"] == 16 * 16 * 3).all()
    assert feats["mean_pixel"].between(0, 255).all()
    embs = to_df(registry["image_embeddings"][0](SF))
    assert len(embs) == 64 * 4
    assert (embs["dim"] == 512).all()
    # per-row md5 digests of the float32 payload: well-formed and unique
    # (the full-strength equality vs the stored pact is the SQL oracle)
    assert embs["emb_digest"].str.fullmatch("[0-9a-f]{32}").all()
    assert embs["emb_digest"].nunique() > len(embs) * 0.9


def test_crawl_views(registry, ray_session):
    order = to_df(registry["crawl_order"][0](SF))
    seen = to_df(registry["crawl_seen_set"][0](SF))
    counters = to_df(registry["crawl_counters"][0](SF))
    assert len(order) > 50
    assert len(seen) >= len(order)
    assert set(counters.columns) == {"counter", "value"}
    # memoized: second call returns identical data
    order2 = to_df(registry["crawl_order"][0](SF))
    pd.testing.assert_frame_equal(order, order2)


def test_winnowed_fingerprints(registry, ray_session):
    # registry form is exploded (doc_id, fp) rows for the SQL oracle;
    # every doc must contribute at least one fingerprint
    df = to_df(registry["winnowed_fingerprints"][0](SF))
    assert df["doc_id"].nunique() == 500
    # library form keeps the per-doc sorted list
    from dumb_crawler_ray.ops.text import winnowed_fingerprints

    ldf = to_df(winnowed_fingerprints(SF))
    assert len(ldf) == 500 and ldf["fingerprints"].map(len).min() >= 1


def test_near_dup_clusters(registry, ray_session):
    """Clusters over verified pairs: representatives are the min doc_id,
    keep-list has exactly one keeper per cluster, and every clustered doc
    appears in some verified pair."""
    fn, _ = registry["near_dup_clusters"]
    df = to_df(fn(SF))
    pairs = to_df(registry["minhash_near_dup_pairs"][0](SF))
    in_pairs = set(pairs["a"]) | set(pairs["b"])
    assert set(df["doc_id"]) == in_pairs
    for rep, g in df.groupby("cluster_rep"):
        assert rep == g["doc_id"].min()
        assert g["keep"].sum() == 1
        assert (g["cluster_size"] == len(g)).all()


def test_hll_accuracy_vs_exact(registry, ray_session):
    """The mergeable HLL sketch estimates distinct users within its
    theoretical error band (~1.6% at 2^12 registers; generous 5% bound),
    and the sketch state is 4 KiB regardless of cardinality."""
    import duckdb

    for sf in (SF, "/root/testdata/sf0.01"):
        est = to_df(registry["approx_distinct_users"][0](sf))
        exact = duckdb.sql(
            f"SELECT count(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
        ).fetchone()[0]
        e = int(est["estimate"].iloc[0])
        assert abs(e - exact) / exact <= 0.05, (sf, e, exact)
        # registers are near-saturated at real cardinality, none overflow
        assert 0 <= int(est["zeros"].iloc[0]) < 4096
        assert 1 <= int(est["max_rho"].iloc[0]) <= 64


def test_gather_texts_touches_only_requested_ids(ray_session):
    """The MinHash verify stage must gather ONLY candidate-member texts —
    never the whole corpus (the round-1 version broadcast every doc)."""
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import _gather_texts

    all_ids = pq.read_table(f"{SF}/documents.parquet",
                            columns=["doc_id"]).column("doc_id").to_pylist()
    want = {all_ids[0], all_ids[7], all_ids[42]}
    got = _gather_texts(SF, want)
    assert set(got.keys()) == want
    assert all(isinstance(v, str) and v for v in got.values())


def test_asof_user_with_zero_clicks(ray_session):
    """ASOF LEFT JOIN semantics: a user with purchases but no clicks gets
    NULL click_ts (regression: np.where eagerly indexed the empty click
    array and crashed)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.relational import purchase_click_asof

    d = tempfile.mkdtemp()
    ts = pd.to_datetime(
        ["2024-01-01 10:00", "2024-01-01 11:00", "2024-01-01 09:00",
         "2024-01-01 09:30"]
    )
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 2], pa.int64()),
            "ts": pa.array(ts),
            "event_type": pa.array(
                ["purchase", "purchase", "click", "purchase"], pa.string()
            ),
        }
    )
    pq.write_table(t, os.path.join(d, "events.parquet"))
    df = to_df(purchase_click_asof(d)).sort_values(
        ["user_id", "purchase_ts"]).reset_index(drop=True)
    assert len(df) == 3
    u1 = df[df.user_id == 1]
    assert u1["click_ts"].isna().all()  # zero clicks -> all NULL
    u2 = df[df.user_id == 2]
    assert u2["click_ts"].notna().all()


def test_embedding_near_dups_driver_evidence(registry, ray_session):
    """The registry-level query must record >0 rows (exact copies planted
    IN-FLIGHT, vec_id + PLANT_ID_OFFSET) so driver evidence is
    non-vacuous; each planted copy pairs with its original at cosine 1."""
    from dumb_crawler_ray.ops.dedup import PLANT_ID_OFFSET

    fn, _ = registry["embedding_near_dup_pairs"]
    df = to_df(fn(SF))
    assert len(df) > 0
    assert (df["cosine"] >= 0.35).all()
    planted = df[df["b"] >= PLANT_ID_OFFSET]
    assert len(planted) > 0
    copies = planted[planted["b"] - planted["a"] == PLANT_ID_OFFSET]
    assert len(copies) == 8 and (copies["cosine"] == 1.0).all()


def test_simhash_matches_independent_reimplementation(ray_session):
    """Second, deliberately naive implementation (per-token per-bit Python
    loop) must agree bit-for-bit with the vectorized simhash64 — converts
    the no-oracle row into a checked one."""
    import re

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import simhash64
    from dumb_crawler_ray.ops.text import TOKEN_REGEX

    def simhash_ref(text):
        import hashlib

        toks = re.findall(TOKEN_REGEX, text.lower())
        if not toks:
            return 0
        counts = [0] * 64
        for tok in toks:
            h = int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:16], 16)
            for b in range(64):
                counts[b] += 1 if (h >> b) & 1 else -1
        val = 0
        for b in range(64):
            if counts[b] > 0:
                val |= 1 << b
        return val - (1 << 64) if val >= (1 << 63) else val

    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"]).column("text").to_pylist()[:40]
    for s in texts + ["", "one", "a b  c", "ümlaut ünïcode 123", "THE the The"]:
        assert simhash64(s) == simhash_ref(s), repr(s[:60])

    # the batched kernel's dense-matmul and reduceat-fallback paths must
    # agree with each other and with the scalar reference
    from dumb_crawler_ray.ops.dedup import simhash64_batch

    probe = texts[:25] + ["", "one", "a b  c"]
    dense = simhash64_batch(probe)
    fallback = simhash64_batch(probe, dense_limit=0)
    assert list(dense) == list(fallback)
    assert list(dense) == [simhash_ref(s) for s in probe]


def test_winnowed_matches_independent_reimplementation(registry, ray_session):
    """Naive per-window polynomial hashing (no rolling update) must produce
    the same winnowed fingerprint sets as the Ray pipeline output."""
    import pyarrow.parquet as pq

    MOD, BASE, WINDOW, KEEP = (1 << 61) - 1, 257, 32, 8

    def ref_fps(s):
        if not s:
            return []
        data = s.encode("utf-8", errors="replace")
        if len(s) < WINDOW:  # spec: char-length threshold, byte windows
            h = 0
            for c in data:
                h = (h * BASE + c) % MOD
            hs = [h]
        else:
            hs = []
            for i in range(len(data) - WINDOW + 1):
                h = 0
                for c in data[i:i + WINDOW]:
                    h = (h * BASE + c) % MOD
                hs.append(h)
        picked = sorted({min(hs[i:i + KEEP]) for i in range(0, len(hs), KEEP)})
        return [int(h % (1 << 62)) for h in picked]

    from dumb_crawler_ray.ops.text import winnowed_fingerprints

    got = to_df(winnowed_fingerprints(SF)).set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()[:50]
    assert docs
    for row in docs:
        assert list(got.loc[row["doc_id"], "fingerprints"]) == ref_fps(row["text"])


def test_size_gated_join_shuffle_path_matches_oracle(registry, ray_session,
                                                     monkeypatch):
    """Force the hash-shuffle Dataset.join branch (as if customer exceeded
    BROADCAST_ROW_LIMIT) — results must stay oracle-identical."""
    from dumb_crawler_ray.ops import relational

    monkeypatch.setattr(relational, "BROADCAST_ROW_LIMIT", 0)
    for name in ("orders_by_segment", "urgent_orders_by_nation"):
        fn, sql = registry[name]
        compare(name + "[shuffle-join]", fn(SF), sql)


def test_new_ops_parity_at_sf001(registry, ray_session):
    """The driver compares at sf0.01 (where the top-10 boundary TIES at
    n=80) — check the tie-pinning and quantile formulas there too."""
    for name in ("event_value_quantiles", "heavy_hitters_users",
                 "word_frequencies"):
        fn, sql = registry[name]
        compare(name + "[sf0.01]", fn("/root/testdata/sf0.01"), sql,
                sf_dir="/root/testdata/sf0.01")


def test_misra_gries_guarantee(ray_session):
    """MG property: with summary capacity c, every item whose true count
    exceeds N/(c+1) must survive the trim (tested on skewed data where the
    sketch actually trims)."""
    from dumb_crawler_ray.ops.text import _mg_trim

    rng = np.random.default_rng(7)
    # zipf-ish: item i appears ~ 5000/i times
    items = np.concatenate([np.full(max(1, 5000 // i), i) for i in range(1, 2000)])
    rng.shuffle(items)
    u, c = np.unique(items, return_counts=True)
    cap = 64
    kept, _ = _mg_trim(u, c.astype(np.int64), cap)
    n = len(items)
    must_keep = u[c > n / (cap + 1)]
    assert len(kept) <= cap
    assert set(must_keep).issubset(set(kept))


def test_top_terms_per_doc_parity(registry, ray_session):
    fn, sql = registry["top_terms_per_doc"]
    compare("top_terms_per_doc", fn(SF), sql)


def test_embedding_kmeans_invariants(registry, ray_session):
    """k-means: deterministic across runs, every vector assigned, cluster
    ids within range, and the spherical objective (mean cosine to own
    centroid) does not decrease with more Lloyd's iterations."""
    from dumb_crawler_ray.ops.ann import embedding_kmeans

    fn, _ = registry["embedding_kmeans"]
    a = to_df(fn(SF))
    b = to_df(fn(SF))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 500
    assert a["cluster"].between(0, 7).all()
    assert a["vec_id"].is_unique
    obj1 = to_df(embedding_kmeans(SF, k=8, iters=1))["sim"].mean()
    obj5 = to_df(embedding_kmeans(SF, k=8, iters=5))["sim"].mean()
    assert obj5 >= obj1 - 1e-6, (obj1, obj5)


def test_image_keeplist(registry, ray_session):
    """Crawl→dedup finisher: every planted near-dup image (idx%16==15 is a
    noisy copy of idx-1) shares a cluster with its source; exactly one
    keeper per cluster; singletons keep themselves."""
    fn, _ = registry["image_keeplist"]
    df = to_df(fn(SF))
    assert df["image_id"].is_unique and len(df) == 256
    # every cluster has exactly one keeper, and it is the min image_id
    for rep, g in df.groupby("cluster_rep"):
        assert g["keep"].sum() == 1
        assert g.loc[g["keep"], "image_id"].iloc[0] == rep == g["image_id"].min()
    pairs = to_df(registry["image_phash_near_dups"][0](SF))
    # planted dups must be clustered together
    import re as _re

    planted = [(a, b) for a, b in zip(pairs["a"], pairs["b"])
               if int(b[3:]) - int(a[3:]) == 1 and int(b[3:]) % 16 == 15]
    assert planted
    rep = dict(zip(df["image_id"], df["cluster_rep"]))
    for a, b in planted:
        assert rep[a] == rep[b]


def test_driver_window_policy(registry):
    """The round driver attests exactly the FIRST 50 registry entries
    against their DuckDB oracles — a rows-only (sql=None) entry inside
    the window burns an attestation slot for nothing (it displaced two
    driver-green queries in r4). Guard the policy structurally."""
    names = list(registry)
    assert len(names) >= 50
    rows_only_in_window = [n for n in names[:50] if registry[n][1] is None]
    assert rows_only_in_window == [], rows_only_in_window


def test_all_sf_queries_handle_empty_tables(registry, ray_session, tmp_path):
    """Robustness: every sf-dir query must return an empty (or sketch)
    result on 0-row input tables, never crash — the degenerate partition a
    100 TB run WILL contain."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "empty_sf"
    d.mkdir()
    for t in TABLES:
        src = pq.read_table(f"{SF}/{t}.parquet")
        pq.write_table(src.slice(0, 0), str(d / f"{t}.parquet"))
    fixture_backed = {
        "crawl_order", "crawl_seen_set", "crawl_counters", "crawl_lineage",
        "crawl_lineage_counts", "crawl_domain_stats", "compact_pages",
        "crawl_politeness_check",
        "curated_corpus", "corpus_release",
        "page_rank", "page_indegree",  # link graph = the crawl fixture
        "image_decode_stats", "image_decode_check", "image_aesthetic_scores",
        "image_phash_near_dups", "image_resize_meta",
        "image_features", "image_embeddings", "image_keeplist",
        "image_quality", "image_tower_check", "image_ann_topk",
        "image_curation",
        "image_caption_stats", "image_exact_dedup", "image_shard_pack",
        "image_caption_alignment", "image_curation_full",
        "image_semantic_dedup", "image_aspect_buckets", "image_size_filter",
        "caption_to_image_topk", "export_image_shards",
        "curated_image_release", "image_resize_to_bucket",
        "export_webdataset",
        "audio_features", "video_frame_sample",
        "audio_vad_segments", "video_scene_cuts",
    }
    for name, (fn, _sql) in registry.items():
        if name in fixture_backed:
            continue
        r = fn(str(d))
        import ray

        if isinstance(r, ray.data.Dataset):
            n = r.count()
        else:
            n = len(r)
        # approx_distinct_users returns its one sketch row; all else empty
        assert n == (1 if name == "approx_distinct_users" else 0), (name, n)


def test_crawl_lineage_view(registry, ray_session):
    """North-rule lineage: per-(round, shard) records from the committed
    checkpoint; fetched/failed totals reconcile with the crawl counters."""
    df = to_df(registry["crawl_lineage"][0](SF))
    counters = to_df(registry["crawl_counters"][0](SF)).set_index("counter")["value"]
    assert set(df.columns) >= {"round", "shard", "candidates_in", "discovered",
                               "robots_denied", "exact_probes", "fetched",
                               "failed", "wall_ms"}
    assert df["fetched"].sum() == (
        counters.get("PROCESSED_URLS", 0)
        + sum(v for k, v in counters.items() if k.startswith("ERROR_"))
    )
    assert (df.groupby(["round", "shard"]).size() == 1).all()


def test_curated_corpus(registry, ray_session):
    """End-to-end crawl→curation: every stored page appears exactly once
    pre-dedup (latest-wins), survivors are unique by fingerprint, dup
    counts reconcile with the page count, and the survivor of each
    fingerprint group is the pinned min url_hash."""
    df = to_df(registry["curated_corpus"][0](SF))
    counters = to_df(registry["crawl_counters"][0](SF)).set_index("counter")["value"]
    n_pages = counters["NEW_SAVED_PAGES"]
    assert df["n_dups"].sum() == n_pages
    assert df["fingerprint"].is_unique
    assert df["url_hash"].is_unique
    assert (df["n_chars"] > 0).all()
    assert df["quality_ok"].dtype == bool
    # re-running is deterministic
    df2 = to_df(registry["curated_corpus"][0](SF))
    pd.testing.assert_frame_equal(df, df2)


def test_corpus_release_reconciles_and_resumes(registry, ray_session, tmp_path):
    """Release shards must carry exactly the curated quality rows, and a
    re-release over the same checkpoint skips every shard."""
    import os

    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops import export
    from dumb_crawler_ray.ops.registry import _crawl_result

    r = _crawl_result()
    out = str(tmp_path / "release")
    m1 = to_df(export.corpus_release(r.ckpt_dir, out_dir=out))
    curated = to_df(registry["curated_corpus"][0](SF))
    want = curated[curated["quality_ok"]].sort_values("url_hash")
    assert m1["n_docs"].sum() == len(want)
    files = sorted(f"{out}/{f}" for f in os.listdir(out)
                   if f.endswith(".parquet"))
    got = pd.concat([pq.read_table(f).to_pandas() for f in files])
    got = got.sort_values("url_hash").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))
    mtimes = {f: os.path.getmtime(f) for f in files}
    m2 = to_df(export.corpus_release(r.ckpt_dir, out_dir=out))
    pd.testing.assert_frame_equal(m1, m2)
    assert {f: os.path.getmtime(f) for f in files} == mtimes


def test_curated_corpus_gopher_gate(registry, ray_session):
    """The optional Gopher gate appends gopher_ok without disturbing the
    base columns — the crawl→filter composition path."""
    from dumb_crawler_ray.ops.registry import _crawl_result
    from dumb_crawler_ray.pipelines.curate import curate_corpus

    r = _crawl_result()
    base = to_df(registry["curated_corpus"][0](SF))
    gated = to_df(curate_corpus(r.ckpt_dir, gopher_gate=True))
    assert "gopher_ok" in gated.columns and gated["gopher_ok"].dtype == bool
    pd.testing.assert_frame_equal(
        gated.drop(columns=["gopher_ok"]), base)
    # word-soup pages are short relative to MIN_WORDS on some fixtures —
    # the gate must at least be non-constant OR all-False/True with sane
    # agreement against n_tokens (the dominant rule at this fixture size)
    from dumb_crawler_ray.ops.filters import MIN_WORDS

    too_short = gated["n_tokens"] < MIN_WORDS
    assert not gated.loc[too_short, "gopher_ok"].any()


def test_image_quality_and_ann(registry, ray_session):
    """Payload-axis ops: quality stats cover every image with sane ranges;
    image-embedding ANN must rank each planted near-duplicate (idx%16==15
    is a noisy copy of idx-1) as its source's TOP-1 neighbor."""
    q = to_df(registry["image_quality"][0](SF))
    assert len(q) == 256 and q["image_id"].is_unique
    assert q["rms_contrast"].between(0, 128).all()
    assert q["mean_luma"].between(0, 255).all()
    assert (q["grad_energy"] > 0).all()  # sinusoidal fixtures are never flat

    ann = to_df(registry["image_ann_topk"][0](SF))
    assert set(ann["rank"]) == {1, 2, 3, 4, 5}
    # query img00000014's planted copy is img00000015 → top-1
    top1 = ann[(ann.query_id == "img00000014") & (ann["rank"] == 1)]
    assert len(top1) == 1
    assert top1["neighbor_id"].iloc[0] == "img00000015"
    assert top1["sim"].iloc[0] > 0.98


def test_image_curation(registry, ray_session):
    """keep = cluster keeper AND quality flags; reconciles with the
    keeplist and quality views row-for-row."""
    cur = to_df(registry["image_curation"][0](SF)).set_index("image_id")
    keep = to_df(registry["image_keeplist"][0](SF)).set_index("image_id")
    q = to_df(registry["image_quality"][0](SF)).set_index("image_id")
    assert len(cur) == 256
    assert (cur["is_cluster_keeper"] == keep["keep"]).all()
    expected_quality = ~(q["low_contrast"] | q["bad_exposure"])
    assert (cur["quality_ok"] == expected_quality).all()
    assert (cur["keep"] == (cur["is_cluster_keeper"] & cur["quality_ok"])).all()


def test_grouped_hll_accuracy(registry, ray_session):
    """Per-day HLL estimates track the exact per-day distinct counts
    within the sketch's error band."""
    import duckdb as _dd

    for sf in (SF, "/root/testdata/sf0.01"):
        est = to_df(registry["approx_daily_active_users"][0](sf)).set_index("day")
        exact = _dd.sql(
            f"SELECT strftime(ts, '%Y-%m-%d') AS day, "
            f"count(DISTINCT user_id) AS n "
            f"FROM read_parquet('{sf}/events.parquet') GROUP BY 1"
        ).df().set_index("day")
        assert set(est.index) == set(exact.index)
        for day in exact.index:
            e, x = int(est.loc[day, "approx_users"]), int(exact.loc[day, "n"])
            assert abs(e - x) <= max(2, 0.05 * x), (sf, day, e, x)


def test_lang_id_oracle_covers_cjk_and_empty(registry, ray_session):
    """The SQL oracle's zh short-circuit and empty-doc tie-break must
    match the worker on a constructed table (testdata has no CJK docs)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tempfile.mkdtemp()
    for tbl in TABLES:  # run_oracle registers every view; others empty
        src = pq.read_table(f"{SF}/{tbl}.parquet")
        pq.write_table(src.slice(0, 0), os.path.join(d, f"{tbl}.parquet"))
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "lang": pa.array(["zh", "en", "xx", "es"], pa.string()),
        "text": pa.array([
            "机器学习 models the 世界",         # CJK → zh, score 1.0
            "the cat and the dog of it",        # en stopwords
            "",                                  # no tokens → tie → 'de'
            "el que la de un en los por se y",  # es stopwords
        ], pa.string()),
    })
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    fn, sql = registry["lang_id"]
    df = to_df(fn(d))
    assert list(df["lang_pred"]) == ["zh", "en", "de", "es"]
    assert df["score"].iloc[0] == 1.0
    compare("lang_id[constructed]", df, sql, sf_dir=d)


def _write_docs(texts, ids=None):
    """tmpdir with a documents.parquet (plus empty sibling tables so
    run_oracle can register every view)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tempfile.mkdtemp()
    for tbl in TABLES:
        src = pq.read_table(f"{SF}/{tbl}.parquet")
        pq.write_table(src.slice(0, 0), os.path.join(d, f"{tbl}.parquet"))
    if ids is None:
        ids = list(range(len(texts)))
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["t"] * len(texts), pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return d


def test_gopher_rules_truth_table(registry, ray_session):
    """Hand-constructed docs exercise each Gopher rule edge, and the
    constructed corpus also round-trips through the SQL oracle."""
    from dumb_crawler_ray.ops import filters

    good = ("the cat and dog ran over all fine hills today " * 5).strip()
    too_short = "the cat sat"
    numeric = " ".join(str(i) for i in range(60)) + " the and word here also"
    bullets = "\n".join(f"- {w}" for w in ["the cat and dog ran fast"] * 19) + \
        "\nplain tail line of the day"
    d = _write_docs([good, too_short, numeric, bullets])
    fn, sql = registry["gopher_quality_flags"]
    df = to_df(fn(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert bool(by[0].keep)                   # passes every band
    assert not by[1].keep                     # word count below MIN_WORDS
    assert not by[2].keep                     # alpha-word fraction too low
    assert by[2].n_alpha_words == by[2].n_words - 60
    assert by[3].n_bullet_lines == 19 and by[3].n_lines == 20
    assert not by[3].keep                     # >90% bullet lines
    compare("gopher[constructed]", df, sql, sf_dir=d)


def test_pii_scrub_planted(registry, ray_session):
    """Planted PII is counted and redacted; phones never double-count
    email digits (phone pass runs on the email-redacted text)."""
    from dumb_crawler_ray.ops.filters import pii_scrub_stats

    texts = [
        "write to jane.doe+x@mail.example.org or call +44 20 7946 0958 now",
        "no pii here at all",
        "digits 123 but not a phone",
    ]
    d = _write_docs(texts)
    df = to_df(pii_scrub_stats(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert by[0].n_emails == 1 and by[0].n_phones == 1 and by[0].has_pii
    assert by[1].n_emails == 0 and by[1].n_phones == 0 and not by[1].has_pii
    assert by[2].n_phones == 0
    # redaction accounting: original minus matched spans plus placeholders
    email = "jane.doe+x@mail.example.org"
    phone = "+44 20 7946 0958"
    want = len(texts[0]) - len(email) - len(phone) + len("<EMAIL>") + len("<PHONE>")
    assert by[0].redacted_len == want
    # registry mode (injection) is non-vacuous on the real corpus
    reg_fn, _ = registry["pii_scrub_stats"]
    rdf = to_df(reg_fn(SF))
    assert (rdf["n_emails"] > 0).any() and (rdf["n_phones"] > 0).any()


def test_contamination_planted(registry, ray_session):
    """A doc that copies a benchmark doc is flagged; an unrelated doc
    shares nothing. Benchmark docs (doc_id % BENCH_MOD == 0) are excluded
    from the output."""
    from dumb_crawler_ray.ops.filters import BENCH_MOD, contamination_overlap

    bench = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    copycat = bench + " tail words appended here"
    unrelated = "one two three four five six seven eight nine ten eleven twelve"
    d = _write_docs([bench.strip(), copycat.strip(), unrelated],
                    ids=[0, 1, 2])  # 0 % BENCH_MOD == 0 → benchmark
    assert 0 % BENCH_MOD == 0
    df = to_df(contamination_overlap(d))
    assert set(df["doc_id"]) == {1, 2}
    by = {r.doc_id: r for r in df.itertuples()}
    assert by[1].n_shared > 0 and by[1].contaminated
    assert by[2].n_shared == 0 and not by[2].contaminated


def test_line_dedup_newline_mode(ray_session):
    """Newline mode: whitespace-only lines drop, repeated lines across
    (and within) docs count as dups via the GLOBAL frequency."""
    from dumb_crawler_ray.ops.filters import line_dedup_stats

    boiler = "all rights reserved"
    texts = [
        f"unique one\n{boiler}\n   \nunique two",
        f"{boiler}\nanother unique line",
        f"{boiler}\n{boiler}",
        "totally fresh text",
    ]
    d = _write_docs(texts)
    df = to_df(line_dedup_stats(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert by[0].n_lines == 3 and by[0].n_dup_lines == 1
    assert by[1].n_lines == 2 and by[1].n_dup_lines == 1
    assert by[2].n_lines == 2 and by[2].n_dup_lines == 2 and by[2].boilerplate
    assert by[3].n_lines == 1 and by[3].n_dup_lines == 0 and not by[3].boilerplate


def test_repetition_rules_truth_table(registry, ray_session):
    """A pathologically repetitive doc fails both repetition rules; a
    varied doc passes; the constructed corpus round-trips through SQL."""
    spam = "spam " * 40
    varied = "the quick brown fox jumps over one lazy dog near a calm river"
    d = _write_docs([spam.strip(), varied])
    fn, sql = registry["repetition_ratios"]
    df = to_df(fn(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert by[0].n_2grams == 39 and by[0].top2_count == 39 and not by[0].keep
    assert by[0].dup3_count == by[0].n_3grams == 38
    assert by[1].top2_count == 1 and bool(by[1].keep)
    compare("repetition[constructed]", df, sql, sf_dir=d)


def test_source_balanced_sample_semantics(registry, ray_session):
    """The smallest source is kept whole (p=1); larger sources downsample
    deterministically toward its token budget; reruns are identical."""
    import hashlib

    from dumb_crawler_ray.ops.filters import SAMPLE_SCALE

    fn, _ = registry["source_balanced_sample"]
    df = to_df(fn(SF)).reset_index(drop=True)
    df2 = to_df(fn(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(df, df2)
    # recompute the keep rule locally from the raw table
    import pyarrow.parquet as pq
    import re

    raw = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "source", "text"]).to_pylist()
    totals: dict = {}
    toks = {}
    for r in raw:
        n = len(re.findall(r"[A-Za-z0-9]+", r["text"]))
        toks[r["doc_id"]] = n
        totals[r["source"]] = totals.get(r["source"], 0) + n
    m = min(totals.values())
    want = sorted(
        r["doc_id"] for r in raw
        if int.from_bytes(hashlib.md5(r["text"].encode()).digest()[:8], "big")
        * totals[r["source"]] < m * SAMPLE_SCALE
    )
    assert list(df["doc_id"]) == want
    # the smallest source survives intact
    smallest = min(totals, key=totals.get)
    n_all = sum(1 for r in raw if r["source"] == smallest)
    assert (df["source"] == smallest).sum() == n_all
    # kept token mass per source lands near the smallest source's budget
    kept = df.groupby("source")["n_tokens"].sum()
    assert kept.max() <= 2 * m


def test_pack_sequences_invariants(registry, ray_session):
    """Every bin respects the token budget (oversize docs sit alone),
    packing is greedy in doc_id order within arithmetic groups, and an
    over-budget doc starts its own bin without breaking neighbors."""
    from dumb_crawler_ray.ops.filters import PACK_BUDGET, pack_sequences

    fn, _ = registry["pack_sequences"]
    df = to_df(fn(SF))
    assert len(df) == 500
    fills = df.groupby("bin_id")["n_tokens"].agg(["sum", "count"])
    over = fills[fills["sum"] > PACK_BUDGET]
    assert (over["count"] == 1).all()  # only single oversize docs exceed
    # bins are contiguous runs of ascending doc_id within a group
    assert (df.sort_values("doc_id")["bin_id"].diff().fillna(0) >= 0).all()

    # planted: an oversize doc between two small ones
    small = "tok " * 10
    huge = "tok " * (PACK_BUDGET + 5)
    d = _write_docs([small.strip(), huge.strip(), small.strip()])
    pdf = to_df(pack_sequences(d))
    by = {r.doc_id: r for r in pdf.itertuples()}
    assert by[0].bin_id == 0          # grp 0, bin 0
    assert by[1].bin_id == 1          # oversize → its own bin
    assert by[1].n_tokens == PACK_BUDGET + 5
    assert by[2].bin_id == 2          # small doc after an over-full bin


def test_caption_stats_truth_table(ray_session):
    """Constructed image rows exercise each caption rule edge: a good
    caption keeps, a 2-token caption fails the length band, a fully
    repetitive caption fails the distinct-fraction rule, and orientation
    classes come from (w, h)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.multimodal import caption_stats

    d = tempfile.mkdtemp()
    t = pa.table({
        "image_id": pa.array(["a", "b", "c", "d"]),
        "bytes": pa.array([b"x" * 100, b"y" * 50, b"z" * 10, b"w" * 8000]),
        "w": pa.array([64, 32, 16, 100], pa.int32()),
        "h": pa.array([32, 32, 64, 100], pa.int32()),
        "fmt": pa.array(["png"] * 4),
        "caption": pa.array([
            "a quiet harbor at dawn with mist",
            "too short",
            "spam spam spam spam spam spam",
            "one two three four five six seven eight",
        ]),
    })
    pq.write_table(t, os.path.join(d, "part.parquet"))
    df = to_df(caption_stats(d))
    by = {r.image_id: r for r in df.itertuples()}
    assert by["a"].keep and by["a"].orientation == "landscape"
    assert not by["b"].keep and by["b"].orientation == "square"   # 2 tokens
    assert not by["c"].keep and by["c"].orientation == "portrait" # 1 distinct
    assert by["c"].n_distinct_tokens == 1 and by["c"].n_cap_tokens == 6
    assert by["d"].keep and by["d"].bytes_per_kpx == 8000 * 1000 // 10000


def test_image_exact_dedup_invariants(ray_session):
    """Planted in-flight duplicates (md5-64(id) % PLANT_PERIOD == 0) form
    exactly the 2-copy groups, every keeper is an original (zz- sorts
    after img), distinct source images never merge, and planting is OFF
    by default (generic op, no fixture coupling)."""
    import numpy as np

    from dumb_crawler_ray.ops.dedup import _md5_64_batch
    from dumb_crawler_ray.ops.multimodal import (DEDUP_PLANT_PERIOD,
                                                 image_exact_dedup)
    from dumb_crawler_ray.ops.registry import _fixture_dir
    from dumb_crawler_ray.sources.synthweb import n_images

    path = f"{_fixture_dir()}/images.parquet"
    df = to_df(image_exact_dedup(path, plant_period=DEDUP_PLANT_PERIOD))
    n = n_images(4)
    assert len(df) == n                       # one group per source image
    assert not df["keep_id"].str.startswith("zz-").any()
    ids = df["keep_id"].tolist()
    planted = _md5_64_batch(ids) % np.uint64(DEDUP_PLANT_PERIOD) == 0
    dup = df[df["n_copies"] == 2]
    assert set(dup["keep_id"]) == set(np.asarray(ids, object)[planted])
    assert (df["n_copies"] <= 2).all()
    plain = to_df(image_exact_dedup(path))    # default: no planting
    assert len(plain) == n and (plain["n_copies"] == 1).all()


def test_image_aesthetic_scores_invariants(ray_session):
    """Aesthetic stage: scores deterministic and partitioning-independent,
    inside [0, 10], gate consistent with AESTHETIC_MIN and non-vacuous
    (the fixture yields both kept and dropped images), and equal to a
    local single-process recompute (same worker code, one decode)."""
    import pyarrow.parquet as pq

    from dumb_crawler_ray.functions import codec
    from dumb_crawler_ray.ops.multimodal import (AESTHETIC_MIN,
                                                 ImageAestheticWorker,
                                                 image_aesthetic_scores)
    from dumb_crawler_ray.ops.registry import _fixture_dir

    imgs = f"{_fixture_dir()}/images.parquet"
    df = to_df(image_aesthetic_scores(imgs)).reset_index(drop=True)
    assert df["aesthetic_score"].between(0, 10).all()
    assert (df["keep"] == (df["aesthetic_score"] >= AESTHETIC_MIN)).all()
    assert 0 < df["keep"].sum() < len(df)  # gate is non-vacuous
    df2 = to_df(image_aesthetic_scores(imgs, concurrency=2, batch_size=17)
                ).reset_index(drop=True)
    pd.testing.assert_frame_equal(df, df2)
    # exact parity with a local single-process recompute
    t = pq.read_table(imgs, columns=["image_id", "bytes"])
    w = ImageAestheticWorker()
    local = w.score_pixels([codec.decode(d)
                            for d in t.column("bytes").to_pylist()])
    got = df.set_index("image_id")["aesthetic_score"]
    for iid, s in zip(t.column("image_id").to_pylist(), local):
        assert got[iid] == s


def test_image_shard_pack_invariants(ray_session):
    """Every shard (w, h, bin_id) stays within the byte budget unless it
    is a single over-budget image; shard membership never mixes aspect
    buckets; assignment is partitioning-independent."""
    from dumb_crawler_ray.ops.multimodal import (IMG_SHARD_BUDGET,
                                                 image_shard_pack)
    from dumb_crawler_ray.ops.registry import _fixture_dir

    imgs = f"{_fixture_dir()}/images.parquet"
    df = to_df(image_shard_pack(imgs))
    sizes = df.groupby(["w", "h", "bin_id"]).agg(
        total=("n_bytes", "sum"), n=("n_bytes", "size"))
    over = sizes[sizes["total"] > IMG_SHARD_BUDGET]
    assert (over["n"] == 1).all()             # only lone over-budget images
    assert (sizes["n"] >= 1).all()
    df2 = to_df(image_shard_pack(imgs, n_partitions=2)).reset_index(drop=True)
    pd.testing.assert_frame_equal(df.reset_index(drop=True), df2)


def test_duplicated_text_share_planted(ray_session):
    """A verbatim copy of doc 0's text planted as doc 99999 must drive
    BOTH docs to 100% duplicated positions; a unique doc stays at 0; a
    doc shorter than DUP_K tokens gets n_grams == 0 and no flag."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.filters import DUP_K, duplicated_text_share

    d = tempfile.mkdtemp()
    copied = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
              "lambda mu nu xi")
    unique = ("completely different words that never repeat anywhere else "
              "in this tiny corpus at all honestly")
    short = "just a few tokens"
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 99999], pa.int64()),
        "text": pa.array([copied, unique, short, copied], pa.string()),
    })
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    df = to_df(duplicated_text_share(d)).set_index("doc_id")
    n0 = len(copied.split()) - DUP_K + 1
    assert df.loc[0, "n_grams"] == n0 and df.loc[0, "dup_grams"] == n0
    assert df.loc[99999, "dup_grams"] == n0 and bool(df.loc[99999, "dup_flag"])
    assert df.loc[1, "dup_grams"] == 0 and not bool(df.loc[1, "dup_flag"])
    assert df.loc[2, "n_grams"] == 0 and not bool(df.loc[2, "dup_flag"])


def test_substring_dedup_planted(registry, ray_session):
    """A DUP_K-token span shared by two docs is removed from BOTH (the
    symmetric Lee-et-al removal); unique and sub-K docs pass through
    unchanged; the constructed corpus round-trips the SQL oracle."""
    from dumb_crawler_ray.ops.filters import DUP_K

    boiler = "alpha beta gamma delta epsilon zeta eta theta"  # DUP_K tokens
    assert len(boiler.split()) == DUP_K
    a = f"unique one two three {boiler} tail words here"
    b = f"other prefix {boiler} different ending tokens now"
    c = "entirely unique document with no shared spans at all"
    short = "tiny doc"
    d = _write_docs([a, b, c, short])
    fn, sql = registry["substring_dedup"]
    df = to_df(fn(d))
    by = {r.doc_id: r for r in df.itertuples()}
    # the shared 8-gram vanished from both holders, the rest survived
    assert "gamma" not in by[0].dedup_text and "gamma" not in by[1].dedup_text
    assert by[0].dedup_text == "unique one two three tail words here"
    assert by[1].dedup_text == "other prefix different ending tokens now"
    assert by[0].n_removed == DUP_K and by[1].n_removed == DUP_K
    assert by[2].n_removed == 0 and by[2].dedup_text == c
    assert by[3].n_removed == 0 and by[3].n_tokens == 2
    compare("substring_dedup[planted]", df, sql, sf_dir=d)
    # keep-one: the min-doc_id holder (doc 0) keeps the span, doc 1 loses it
    fn1, sql1 = registry["substring_dedup_keep_one"]
    df1 = to_df(fn1(d))
    by1 = {r.doc_id: r for r in df1.itertuples()}
    assert by1[0].n_removed == 0 and "gamma" in by1[0].dedup_text
    assert by1[1].n_removed == DUP_K and "gamma" not in by1[1].dedup_text
    compare("substring_dedup_keep_one[planted]", df1, sql1, sf_dir=d)


def test_substring_dedup_partition_independence(ray_session):
    """Same removals at any hash-partition count — co-location by gram
    hash and by doc_id must not depend on how many blocks carry them."""
    from dumb_crawler_ray.ops.filters import substring_dedup

    a = to_df(substring_dedup(SF, n_partitions=2)).reset_index(drop=True)
    b = to_df(substring_dedup(SF, n_partitions=16)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_dsir_importance_weights_enrichment(registry, ray_session):
    """Target (en) bigrams earn above-neutral scores, off-target bigrams
    below-neutral: a doc of target bigrams is kept, a doc of raw-only
    bigrams is not, and the neutral gate is exactly weight > SCALE·n."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.filters import DSIR_SCALE

    d = tempfile.mkdtemp()
    for tbl in TABLES:
        src = pq.read_table(f"{SF}/{tbl}.parquet")
        pq.write_table(src.slice(0, 0), os.path.join(d, f"{tbl}.parquet"))
    en = "the quick brown fox jumps over the lazy dog"
    de = "der schnelle braune fuchs springt heute hier"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([en, en + " again today", de, "solo"], pa.string()),
        "lang": pa.array(["en", "en", "de", "de"], pa.string()),
        "source": pa.array(["t"] * 4, pa.string()),
        "n_chars": pa.array([len(en), len(en) + 12, len(de), 4], pa.int64()),
    })
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    fn, sql = registry["dsir_importance_weights"]
    df = to_df(fn(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert bool(by[1].kept) and by[1].weight > DSIR_SCALE * by[1].n_bigrams
    assert not bool(by[3].kept)          # raw-only bigrams score below 1
    assert by[4].n_bigrams == 0 and by[4].weight == 0 and not bool(by[4].kept)
    compare("dsir_importance_weights[planted]", df, sql, sf_dir=d)


def test_dsir_importance_weights_overflow_guard(ray_session, monkeypatch):
    """A weight is below DSIR_SCALE·(R + DSIR_BUCKETS) for R corpus
    bigrams; when that bound leaves int64 the op raises instead of
    letting the int64 `mat @ score` wrap."""
    from dumb_crawler_ray.ops import filters

    monkeypatch.setattr(filters, "DSIR_SCALE", 1 << 62)
    with pytest.raises(OverflowError, match="beyond int64"):
        filters.dsir_importance_weights(SF)


def test_source_overlap_matrix_planted(registry, ray_session):
    """Two near-identical docs across sources A/B plus a copy pair inside
    source C land exactly one (A,B) and one (C,C) cell; the annotation
    never misroutes a pair; the constructed corpus round-trips the SQL."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tempfile.mkdtemp()
    for tbl in TABLES:
        src = pq.read_table(f"{SF}/{tbl}.parquet")
        pq.write_table(src.slice(0, 0), os.path.join(d, f"{tbl}.parquet"))
    near = ("the quick brown fox jumps over the lazy dog while rain "
            "falls on the quiet green hills beyond the river")
    texts = [near, near + " tonight", near + " tonight", "entirely other "
             "words that never overlap with anything in this corpus here"]
    srcs = ["A", "B", "C", "C"]
    # make the C pair intra-source: doc 2 and an exact copy as doc 4
    texts.append(texts[2])
    srcs.append("C")
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(srcs, pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    fn, sql = registry["source_overlap_matrix"]
    df = to_df(fn(d))
    cells = {(r.source_a, r.source_b): r.n_pairs for r in df.itertuples()}
    assert cells[("C", "C")] >= 1          # the planted intra-source copy
    assert ("A", "B") in cells or ("B", "C") in cells  # cross-source dup
    compare("source_overlap_matrix[planted]", df, sql, sf_dir=d)


def test_source_overlap_guards_reject_absent_doc_and_broken_pairs():
    """The keyed joins inside source_overlap_matrix fail loudly on broken
    invariants: a pair side whose doc_id has no doc row raises instead of
    taking a neighbouring doc's source, and an (a, b) partition whose
    sides do not come one side-a plus one side-b per pair raises instead
    of pairing sides of different pairs."""
    import pyarrow as pa
    import pytest as _pytest

    from dumb_crawler_ray.ops.dedup import _overlap_attach, _overlap_combine

    def part(doc_ids, sources, sides):
        """doc rows (kind 0) then pair-side rows (doc_id, a, b, is_a)."""
        n_d, n_s = len(doc_ids), len(sides)
        return pa.table({
            "doc_id": pa.array(list(doc_ids) + [s[0] for s in sides],
                               pa.int64()),
            "a": pa.array([None] * n_d + [s[1] for s in sides], pa.int64()),
            "b": pa.array([None] * n_d + [s[2] for s in sides], pa.int64()),
            "is_a": pa.array([None] * n_d + [s[3] for s in sides],
                             pa.bool_()),
            "source": pa.array(list(sources) + [None] * n_s, pa.string()),
            "kind": pa.array([0] * n_d + [1] * n_s, pa.int8())})

    ok = _overlap_attach(part([10, 30], ["A", "C"],
                              [(10, 10, 30, True), (30, 10, 30, False)]))
    assert ok.column("source").to_pylist() == ["A", "C"]
    # doc 20 is absent: searchsorted lands between 10 and 30
    with _pytest.raises(ValueError, match="absent"):
        _overlap_attach(part([10, 30], ["A", "C"], [(20, 20, 30, True)]))
    # doc 40 is past the last doc row
    with _pytest.raises(ValueError, match="absent"):
        _overlap_attach(part([10, 30], ["A", "C"], [(40, 30, 40, False)]))

    def sides(rows):
        return pa.table({
            "a": pa.array([r[0] for r in rows], pa.int64()),
            "b": pa.array([r[1] for r in rows], pa.int64()),
            "is_a": pa.array([r[2] for r in rows], pa.bool_()),
            "source": pa.array([r[3] for r in rows], pa.string())})

    good = _overlap_combine(sides([(1, 2, True, "A"), (1, 2, False, "B"),
                                   (3, 4, False, "C"), (3, 4, True, "C")]))
    assert dict(zip(zip(good.column("source_a").to_pylist(),
                        good.column("source_b").to_pylist()),
                    good.column("n_part").to_pylist())) == {
        ("A", "B"): 1, ("C", "C"): 1}
    for broken in (
            [(1, 2, True, "A")],                                # odd count
            [(1, 2, True, "A"), (3, 4, False, "B")],            # keys differ
            [(1, 2, True, "A"), (1, 2, True, "B")]):            # two side-a
        with _pytest.raises(ValueError, match="pair sides"):
            _overlap_combine(sides(broken))


def test_doc_curation_full_planted(registry, ray_session):
    """Every gate of the fused curation decision fires on a constructed
    corpus — exact-dup loser, near-dup cluster loser, benchmark-
    contaminated doc, gopher failure, benchmark doc — and the whole
    decision table round-trips the composed SQL oracle. (The synthetic
    testdata has no exact duplicates, so the sweep at sf0.001 leaves the
    exact-keeper gate vacuous; this corpus does not.)"""

    def base(tag, n=44):
        words = [f"{tag}unit{chr(97 + i % 26)}{chr(97 + (i // 26) % 26)}"
                 for i in range(n)]
        return "the quick " + " ".join(words) + " and more"

    bench = base("bc")
    near_a = base("nr")
    near_b = near_a.replace("nrunitma", "nrunitzz")   # one mid word differs
    assert near_b != near_a
    contam = (" ".join(bench.split()[:20]) + " "
              + " ".join(f"cquniq{chr(97 + i % 26)}{chr(97 + (i // 26) % 26)}"
                         for i in range(40)) + " and of")
    texts = {1: base("ex"), 2: base("ex"), 3: near_a, 4: near_b,
             5: contam, 6: "tiny doc", 7: base("cl"), 10: bench}
    d = _write_docs(list(texts.values()), ids=list(texts.keys()))
    fn, sql = registry["doc_curation_full"]
    df = to_df(fn(d))
    by = {r.doc_id: r for r in df.itertuples()}
    assert by[2].is_exact_keeper is False and by[1].is_exact_keeper is True
    assert by[4].is_cluster_keeper is False and by[3].is_cluster_keeper is True
    assert by[2].is_cluster_keeper is False      # exact pair clusters too
    assert by[5].contaminated is True and by[5].is_cluster_keeper is True
    assert by[6].gopher_ok is False
    assert by[10].is_bench is True and by[10].keep is False
    assert {i: r.keep for i, r in by.items()} == {
        1: True, 2: False, 3: True, 4: False, 5: False, 6: False,
        7: True, 10: False}
    compare("doc_curation_full[planted]", df, sql, sf_dir=d)


def test_quality_classifier_edges(ray_session):
    """A doc with < 2 tokens has zero features and margin 0 (kept by the
    ≥ 0 rule); margins recompute locally from the weight arithmetic; the
    same text always gets the same margin (weights are pure functions)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.ops.dedup import _md5_64_batch
    from dumb_crawler_ray.ops.filters import (QC_ADD, QC_BUCKETS, QC_CENTER,
                                              QC_MOD, QC_MUL,
                                              quality_classifier_scores)

    d = tempfile.mkdtemp()
    texts = ["solo", "two tokens", "alpha beta gamma alpha beta"]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    df = to_df(quality_classifier_scores(d)).set_index("doc_id")
    assert df.loc[0, "n_feats"] == 0 and df.loc[0, "margin"] == 0
    assert bool(df.loc[0, "keep"])

    def local_margin(text):
        toks = text.lower().split()
        grams = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        total = 0
        for h in _md5_64_batch(grams):
            b = int(h) % QC_BUCKETS
            total += (b * QC_MUL + QC_ADD) % QC_MOD - QC_CENTER
        return total

    for i, text in enumerate(texts):
        assert df.loc[i, "margin"] == local_margin(text), text


def test_doc_split_stratified(registry, ray_session):
    """Split fractions must hold globally AND per source (hash uniformity
    gives stratification); assignment is a pure function of doc_id."""
    fn, _ = registry["doc_split"]
    df = to_df(fn(SF))
    frac = df["split"].value_counts(normalize=True)
    assert 0.90 <= frac["train"] <= 0.99
    # sources are tiny here (25 docs each) so the per-source bound is the
    # 3-sigma binomial envelope, not the asymptotic 95%
    for src, g in df.groupby("source"):
        assert (g["split"] == "train").mean() > 0.75, src
    df2 = to_df(fn(SF))
    pd.testing.assert_frame_equal(df.reset_index(drop=True),
                                  df2.reset_index(drop=True))


def test_image_caption_alignment_reconciles(ray_session):
    """The zip-aligned alignment score must equal the cosine recomputed
    locally from the two embedding towers, scores live in [-1, 1], and
    identical captions get identical text embeddings (hashing-trick
    consistency — token multiplicity scales magnitude, not direction)."""
    import numpy as np
    import pyarrow as pa

    from dumb_crawler_ray.ops.multimodal import (CaptionEmbedWorker,
                                                 caption_embeddings,
                                                 image_caption_alignment,
                                                 image_embeddings)
    from dumb_crawler_ray.ops.registry import _fixture_dir
    from dumb_crawler_ray.ops.vecutil import embedding_matrix

    imgs = f"{_fixture_dir()}/images.parquet"
    df = to_df(image_caption_alignment(imgs))
    assert (df["clip_score"].abs() <= 1.0).all()
    assert df["keep"].any() and not df["keep"].all()

    ie = to_df(image_embeddings(imgs)).sort_values("image_id")
    ce = to_df(caption_embeddings(imgs)).sort_values("image_id")
    a = np.asarray(ie["embedding"].tolist())
    b = np.asarray(ce["embedding"].tolist())
    local = np.round(np.einsum("ij,ij->i", a, b), 4)
    np.testing.assert_allclose(df.sort_values("image_id")["clip_score"],
                               local, atol=1e-9)

    w = CaptionEmbedWorker()
    t = pa.table({"image_id": pa.array(["a", "b", "c"]),
                  "caption": pa.array(["red panda sleeping",
                                       "red panda sleeping",
                                       "red panda sleeping red panda sleeping"])})
    out = w(t)
    e = np.asarray(out.column("embedding").to_pylist())
    np.testing.assert_allclose(e[0], e[1], atol=0)
    # direction-equal up to float32 summation-order noise
    np.testing.assert_allclose(e[0], e[2], rtol=1e-3)
    assert float(e[0] @ e[2]) > 0.999999


def test_image_curation_full_reconciles(ray_session):
    """The composed keep must equal the AND of the four independently
    computed source decisions, row for row."""
    from dumb_crawler_ray.ops.multimodal import (caption_stats,
                                                 image_caption_alignment,
                                                 image_curation,
                                                 image_curation_full)
    from dumb_crawler_ray.ops.registry import _fixture_dir

    imgs = f"{_fixture_dir()}/images.parquet"
    full = to_df(image_curation_full(imgs)).set_index("image_id")
    cur = to_df(image_curation(imgs)).set_index("image_id")
    caps = to_df(caption_stats(imgs)).set_index("image_id")
    align = to_df(image_caption_alignment(imgs)).set_index("image_id")

    assert (full["is_cluster_keeper"] == cur["is_cluster_keeper"]).all()
    assert (full["quality_ok"] == cur["quality_ok"]).all()
    assert (full["caption_ok"] == caps["keep"]).all()
    assert (full["alignment_ok"] == align["keep"]).all()
    want = cur["keep"] & caps["keep"] & align["keep"]
    assert (full["keep"] == want).all()
    assert 0 < full["keep"].sum() < len(full)   # rule actually selects


def test_bm25_topk_matches_sql_and_invariants(registry, ray_session):
    """BM25 vs the DuckDB oracle (bit-exact float pact), determinism,
    rank contiguity, and the rare-term sanity check: every q2 top doc
    must actually contain one of q2's terms."""
    import duckdb
    import re as _re

    from dumb_crawler_ray.ops.text import BM25_QUERIES, TOKEN_REGEX

    fn, sql = registry["bm25_topk"]
    df = to_df(fn(SF))
    pd.testing.assert_frame_equal(df, to_df(fn(SF)))  # deterministic
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    odf = con.sql(sql).df()
    cols = sorted(df.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))

    for qid, _terms in BM25_QUERIES:
        sub = df[df["query_id"] == qid].sort_values("rank")
        assert list(sub["rank"]) == list(range(1, len(sub) + 1))
        assert sub["score"].is_monotonic_decreasing or len(sub) <= 1
    import pyarrow.parquet as pq
    texts = dict(zip(
        pq.read_table(f"{SF}/documents.parquet").column("doc_id").to_pylist(),
        pq.read_table(f"{SF}/documents.parquet").column("text").to_pylist()))
    q2_terms = dict(BM25_QUERIES)["q2"]
    for did in df[df["query_id"] == "q2"]["doc_id"]:
        toks = set(_re.findall(TOKEN_REGEX, texts[did].lower()))
        assert toks & set(q2_terms), did


def test_only_rayutil_sets_shuffle_strategy():
    """The hash-shuffle scope lives in one place: `rayutil.hash_shuffle`
    (used by `rayutil.keyed_colocate`). Every other module reaches it
    through those two, so no module but rayutil.py may assign a
    DataContext's `shuffle_strategy`."""
    import ast
    import pathlib

    import dumb_crawler_ray

    pkg = pathlib.Path(dumb_crawler_ray.__file__).parent
    sites = []
    for path in sorted(pkg.rglob("*.py")):
        if path.name == "rayutil.py" and path.parent == pkg:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value == "shuffle_strategy"):
                sites.append(f"{path.relative_to(pkg)}:{node.lineno}")
            for t in targets:
                for sub in ast.walk(t):
                    if (isinstance(sub, ast.Attribute)
                            and sub.attr == "shuffle_strategy"):
                        sites.append(f"{path.relative_to(pkg)}:{node.lineno}")
    assert not sites, f"shuffle_strategy set outside rayutil.py: {sites}"
