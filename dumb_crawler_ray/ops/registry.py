"""Query registry — single source for __ray_entry__.queries()/oracle_sql().

Each entry: name → (ray callable over sf_dir, oracle SQL or None).
Column names in the Ray result and the SQL are IDENTICAL by construction;
float aggregate columns are rounded to fixed decimals on BOTH sides so the
driver's value-hash cannot be flipped by summation-order noise.
"""

from __future__ import annotations

import pyarrow as pa

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs
import pyarrow.compute as pc

from . import (ann, bpe, dedup, export, filters, graph, media, multimodal,
               relational, text)

_FIXTURE_SCALE = 4
_FIXTURE_SEED = 42


def _round_cols(ds, spec: dict[str, int]):
    def fn(t: pa.Table) -> pa.Table:
        cols = {}
        for name in t.column_names:
            col = t.column(name)
            if name in spec:
                col = pc.round(pc.cast(col, pa.float64()), ndigits=spec[name])
            cols[name] = col
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", **remote_kwargs())


def _fixture_dir() -> str:
    from ..sources.synthweb import write_fixture

    return str(
        write_fixture(f"/tmp/dcr_fixtures/sf{_FIXTURE_SCALE}",
                      seed=_FIXTURE_SEED, scale=_FIXTURE_SCALE)
    )


def ensure_oracle_inputs() -> None:
    """Materialize the fixture parquet that path-reading oracle SQLs
    (image_phash_near_dups, the crawl_* recursive-CTE oracles) depend
    on — the driver may run the DuckDB side before (or without) the Ray
    query that would otherwise create it. Memoized by write_fixture's
    meta.json, so repeat calls are a stat check."""
    _fixture_dir()


def _crawl_result():
    """Run (and memoize) the flagship crawl at the fixture scale."""
    global _CRAWL_CACHE
    try:
        return _CRAWL_CACHE
    except NameError:
        pass
    import os
    import shutil

    from ..pipelines.crawl import CrawlPipeline
    from ..sources.synthweb import DEFAULT_CONFIG

    # pid-keyed: two concurrent processes (ops_cli + bench + pytest) must
    # not rmtree each other's live checkpoint mid-crawl
    ckpt = f"/tmp/dcr_fixtures/crawl_ckpt_sf{_FIXTURE_SCALE}_pid{os.getpid()}"
    shutil.rmtree(ckpt, ignore_errors=True)  # fresh run, not a resume
    import atexit

    atexit.register(shutil.rmtree, ckpt, ignore_errors=True)
    _CRAWL_CACHE = CrawlPipeline(
        _fixture_dir(), DEFAULT_CONFIG, seed=_FIXTURE_SEED, scale=_FIXTURE_SCALE,
        n_shards=4, fetch_concurrency=2, ckpt_dir=ckpt,
    ).run()
    return _CRAWL_CACHE


# ------------------------------------------------------------ crawl views

def crawl_order(sf_dir: str):
    r = _crawl_result()
    return pa.table(
        {
            "seq": pa.array(range(len(r.crawl_order)), pa.int64()),
            "url_hash": pa.array(r.crawl_order, pa.string()),
        }
    )


def crawl_seen_set(sf_dir: str):
    r = _crawl_result()
    items = sorted(r.seen_set.items())
    return pa.table(
        {
            "url_hash": pa.array([k for k, _ in items], pa.string()),
            "status": pa.array([v[0] for _, v in items], pa.int64()),
            "attempt": pa.array([v[1] for _, v in items], pa.int64()),
            # '' (not null) for no-error rows: the SQL oracle comparison
            # str-casts columns, and None/NaN stringify differently
            "error": pa.array([v[2] or "" for _, v in items], pa.string()),
            "tags": pa.array([v[3] for _, v in items], pa.string()),
            "priority": pa.array([v[4] for _, v in items], pa.int64()),
        }
    )


def crawl_lineage(sf_dir: str):
    """Per-shard per-round lineage records (north rule): who inserted /
    fetched / failed what, per frontier partition, straight from the
    checkpoint the fixture crawl commits."""
    import pyarrow.dataset as pads

    r = _crawl_result()
    ds = pads.dataset(f"{r.ckpt_dir}/lineage", format="parquet")
    return ds.to_table().sort_by([("round", "ascending"), ("shard", "ascending")])


def crawl_domain_stats(sf_dir: str):
    """Per-domain crawl totals — the ops dashboard view: discovered /
    fetched / failed / stored-article counts per host, computed
    DISTRIBUTED over the checkpoint tables (at 10^9 URLs neither table
    fits a driver): frontier_inserts rows (url_hash → domain; the first
    insert of a hash carries it) union frontier_updates rows (url_hash →
    terminal status, tags) co-locate in ONE keyed repartition on
    url_hash, each block emits per-domain partial counts, and the
    driver merges ≤ n_blocks × n_domains tiny rows. FULL recursive-CTE
    oracle over the same `node` closure as crawl_seen_set."""
    import numpy as np
    import ray

    from ..pipelines import semantics as S

    r = _crawl_result()

    def ins_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url_hash": t.column("url_hash"),
             "domain": t.column("domain"),
             "status": pa.nulls(len(t), pa.int64()),
             "is_art": pa.nulls(len(t), pa.bool_())})

    def upd_rows(t: pa.Table) -> pa.Table:
        is_art = [("article" in tg) for tg in t.column("tags").to_pylist()]
        return pa.table(
            {"url_hash": t.column("url_hash"),
             "domain": pa.nulls(len(t), pa.string()),
             "status": t.column("status"),
             "is_art": pa.array(is_art, pa.bool_())})

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {"domain": pa.array([], pa.string()),
             "discovered": pa.array([], pa.int64()),
             "fetched": pa.array([], pa.int64()),
             "failed": pa.array([], pa.int64()),
             "stored": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        # the block holds EVERY row of its hashes: collapse per hash with
        # ORDER-INDEPENDENT rules (the row order inside a hash-shuffled
        # block is not deterministic): domain = the unique non-null insert
        # attribution (re-offers repeat it identically), status = max and
        # is_art = any over update rows — equal to the single terminal row
        # today, and still deterministic if retry rows ever relax that
        # invariant
        uh = np.asarray(b.column("url_hash").to_pylist(), dtype=object)
        dom_valid = pc.is_valid(b.column("domain")).to_numpy(
            zero_copy_only=False)
        st_valid = pc.is_valid(b.column("status")).to_numpy(
            zero_copy_only=False)
        hashes, inv = np.unique(uh, return_inverse=True)
        n = len(hashes)
        d_per = np.full(n, None, dtype=object)
        d_per[inv[dom_valid]] = np.asarray(
            b.column("domain").to_pylist(), dtype=object)[dom_valid]
        st = np.full(n, -1, dtype=np.int64)
        if st_valid.any():
            st_vals = pc.fill_null(b.column("status"), -1).to_numpy(
                zero_copy_only=False).astype(np.int64)
            np.maximum.at(st, inv[st_valid], st_vals[st_valid])
        art = np.zeros(n, dtype=bool)
        art_vals = pc.fill_null(b.column("is_art"), False).to_numpy(
            zero_copy_only=False).astype(bool)
        np.logical_or.at(art, inv[st_valid], art_vals[st_valid])
        # discovered needs only a domain; the status-dependent columns
        # count 0 for still-pending URLs (a non-drained checkpoint is a
        # supported state — resume, mid-run inspection)
        disc = d_per != None  # noqa: E711 — elementwise over object array
        if not disc.any():
            return empty
        fetched = (st == S.PROCESSED) & disc
        failed = (st == S.FAILED) & disc
        stored = fetched & art
        doms, dinv = np.unique(d_per[disc].astype(str), return_inverse=True)
        k = len(doms)
        f = np.zeros(k, np.int64)
        x = np.zeros(k, np.int64)
        s = np.zeros(k, np.int64)
        np.add.at(f, dinv, fetched[disc].astype(np.int64))
        np.add.at(x, dinv, failed[disc].astype(np.int64))
        np.add.at(s, dinv, stored[disc].astype(np.int64))
        return pa.table(
            {"domain": pa.array(doms.tolist(), pa.string()),
             "discovered": pa.array(np.bincount(dinv, minlength=k)
                                    .astype(np.int64), pa.int64()),
             "fetched": pa.array(f, pa.int64()),
             "failed": pa.array(x, pa.int64()),
             "stored": pa.array(s, pa.int64())})

    n_parts = max(2, min(8, hash_partition_count()))

    def build():
        ins = ray.data.read_parquet(
            f"{r.ckpt_dir}/frontier_inserts",
            columns=["url_hash", "domain"],
        ).map_batches(ins_rows, batch_format="pyarrow", **remote_kwargs())
        upd = ray.data.read_parquet(
            f"{r.ckpt_dir}/frontier_updates",
            columns=["url_hash", "status", "tags"],
        ).map_batches(upd_rows, batch_format="pyarrow", **remote_kwargs())
        return (ins.union(upd)
                .repartition(n_parts, keys=["url_hash"])
                .map_batches(partial, batch_format="pyarrow",
                             batch_size=None, **remote_kwargs()))

    batches = list(keyed_colocate(build).iter_batches(
        batch_format="pyarrow", batch_size=None))
    merged = pa.concat_tables(batches)
    g = merged.group_by("domain").aggregate(
        [("discovered", "sum"), ("fetched", "sum"), ("failed", "sum"),
         ("stored", "sum")]).sort_by([("domain", "ascending")])
    return pa.table(
        {"domain": g.column("domain"),
         "discovered": g.column("discovered_sum"),
         "fetched": g.column("fetched_sum"),
         "failed": g.column("failed_sum"),
         "stored": g.column("stored_sum")})


def crawl_politeness_check(sf_dir: str):
    """North-rule compliance as a queryable artifact: per-(round, domain)
    fetch counts with the politeness cap and an `ok` column that must be
    all-true — computed DISTRIBUTED over the checkpoint (frontier_updates
    rows ∪ frontier_inserts domain attribution co-locate on url_hash, the
    `crawl_domain_stats` shape). FULL recursive-CTE oracle."""
    import ray

    from ..config import JobConfig
    from ..sources.synthweb import DEFAULT_CONFIG

    cap = JobConfig(DEFAULT_CONFIG).max_per_domain_per_round
    r = _crawl_result()

    def ins_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url_hash": t.column("url_hash"),
             "domain": t.column("domain"),
             "round": pa.nulls(len(t), pa.int64())})

    def fetch_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url_hash": t.column("url_hash"),
             "domain": pa.nulls(len(t), pa.string()),
             "round": pc.cast(t.column("round"), pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"round": pa.array([], pa.int64()),
                          "domain": pa.array([], pa.string()),
                          "n_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        # order-independent: map each FETCH EVENT (update row) to the
        # hash's unique insert-time domain attribution and count every
        # event — no per-hash collapse, so a hash fetched in several
        # rounds (retries) counts once per round, and block row order
        # cannot influence the result
        import numpy as np
        uh = np.asarray(b.column("url_hash").to_pylist(), dtype=object)
        dom_valid = pc.is_valid(b.column("domain")).to_numpy(
            zero_copy_only=False)
        rnd_valid = pc.is_valid(b.column("round")).to_numpy(
            zero_copy_only=False)
        hashes, inv = np.unique(uh, return_inverse=True)
        d_per = np.full(len(hashes), None, dtype=object)
        d_per[inv[dom_valid]] = np.asarray(
            b.column("domain").to_pylist(), dtype=object)[dom_valid]
        rr = pc.fill_null(b.column("round"), -1).to_numpy(
            zero_copy_only=False).astype(np.int64)[rnd_valid]
        dd = d_per[inv[rnd_valid]]
        keep = dd != None  # noqa: E711 — elementwise over object array
        if not keep.any():
            return empty
        rr = rr[keep]
        doms, dcode = np.unique(dd[keep].astype(str), return_inverse=True)
        combo = rr * len(doms) + dcode
        uc, counts = np.unique(combo, return_counts=True)
        return pa.table(
            {"round": pa.array((uc // len(doms)).astype(np.int64),
                               pa.int64()),
             "domain": pa.array(doms[uc % len(doms)].tolist(), pa.string()),
             "n_part": pa.array(counts.astype(np.int64), pa.int64())})

    n_parts = max(2, min(8, hash_partition_count()))

    def build():
        ins = ray.data.read_parquet(
            f"{r.ckpt_dir}/frontier_inserts",
            columns=["url_hash", "domain"],
        ).map_batches(ins_rows, batch_format="pyarrow", **remote_kwargs())
        fetches = ray.data.read_parquet(
            f"{r.ckpt_dir}/frontier_updates", columns=["url_hash", "round"],
        ).map_batches(fetch_rows, batch_format="pyarrow",
                      **remote_kwargs())
        return (ins.union(fetches)
                .repartition(n_parts, keys=["url_hash"])
                .map_batches(partial, batch_format="pyarrow",
                             batch_size=None, **remote_kwargs()))

    batches = list(keyed_colocate(build).iter_batches(
        batch_format="pyarrow", batch_size=None))
    merged = pa.concat_tables(batches)
    g = merged.group_by(["round", "domain"]).aggregate(
        [("n_part", "sum")]).sort_by(
        [("round", "ascending"), ("domain", "ascending")])
    n = g.column("n_part_sum")
    return pa.table(
        {"round": g.column("round"),
         "domain": g.column("domain"),
         "n_fetched": n,
         "cap": pa.array([cap] * len(g), pa.int64()),
         "at_cap": pc.equal(n, pa.scalar(cap, pa.int64())),
         "ok": pc.less_equal(n, pa.scalar(cap, pa.int64()))})


def crawl_lineage_counts(sf_dir: str):
    """Per-ROUND lineage totals — `crawl_lineage` summed over shards,
    restricted to the SQL-replayable columns (shard routing is siphash —
    not SQL-expressible — and exact_probes/wall_ms are bloom-state/clock
    artifacts; candidates_in / discovered / fetched / failed are pure
    functions of the crawl and get a FULL recursive-CTE oracle)."""
    import pyarrow.dataset as pads

    r = _crawl_result()
    t = pads.dataset(f"{r.ckpt_dir}/lineage", format="parquet").to_table()
    cols = ["candidates_in", "discovered", "robots_denied", "fetched",
            "failed"]
    g = t.group_by("round").aggregate([(c, "sum") for c in cols])
    g = g.sort_by([("round", "ascending")])
    return pa.table(
        {"round": g.column("round"),
         **{c: g.column(f"{c}_sum") for c in cols}})


def curated_corpus(sf_dir: str):
    """End-to-end flagship composition: the crawl checkpoint's pages feed
    the curation pipeline (latest-wins → text extraction → quality →
    exact dedup) — crawl output in, training-corpus table out."""
    from ..pipelines.curate import curate_corpus

    r = _crawl_result()
    return curate_corpus(r.ckpt_dir)


def corpus_release_q(sf_dir: str):
    """Flagship last mile: the fixture crawl's curated quality rows
    exported as resumable release shards + manifest (ops/export.py).
    Deterministic crawl → deterministic shards, so the stable /tmp out
    dir is safe across processes (identical bytes, atomic replace)."""
    from . import export

    r = _crawl_result()
    return export.corpus_release(
        r.ckpt_dir, out_dir="/tmp/dcr_release/crawl_fixture_s16")


def crawl_counters(sf_dir: str):
    r = _crawl_result()
    items = sorted(r.counters.items())
    return pa.table(
        {
            "counter": pa.array([k for k, _ in items], pa.string()),
            "value": pa.array([int(v) for _, v in items], pa.int64()),
        }
    )


def _crawl_oracle_sqls() -> dict[str, str]:
    """DuckDB oracles for the FLAGSHIP crawl views — the whole reference
    crawl loop replayed in pure SQL over the fixture's pages.parquet.

    The drained crawl's end state is order-independent (every insertable
    URL is eventually fetched exactly once; the fixture has no url_hash
    collisions, asserted in tests), so `crawl_seen_set` / `crawl_counters`
    are a recursive-CTE reachability closure with the reference's gating
    rules (tagger → first-hit-wins link filter → fetch outcome →
    tag-gated storage, SURVEY.md M2/M4/M7/S8) as WHERE clauses.
    `crawl_order` additionally replays the BSP scheduler itself: a
    state-carrying recursive CTE re-emits the full frontier snapshot per
    round and selects with the pinned total order (priority DESC,
    url_hash ASC) under the per-domain politeness cap via two nested
    window functions — the greedy cap-skip loop is equivalent to
    "domain-rank ≤ cap, then first K in global order" because a row is
    taken iff fewer than cap same-domain rows precede it among taken rows
    (induction over the scan; `pipelines/oracle.py:105-123` is the spec).

    All constants are interpolated from DEFAULT_CONFIG / the fixture
    generator so config drift breaks the oracle loudly instead of
    silently passing. Robots rules are off in DEFAULT_CONFIG
    (politeness.respect_robots defaults false), hence no ROBOTS_DENIED
    branch here; every seen row has attempt=1 (terminal failures never
    requeue in-session, semantics.py quirk notes)."""
    import re as _re

    from ..config import JobConfig
    from ..functions.expr import RESOURCE_REGEX
    from ..sources.synthweb import DEFAULT_CONFIG, domains_for
    from .export import DEFAULT_SHARDS

    cfg = JobConfig(DEFAULT_CONFIG)
    k, cap = cfg.scheduler_batch_size, cfg.max_per_domain_per_round
    assert not cfg.respect_robots, "crawl oracle SQL has no robots branch"
    # transcribe the tagger config (fixed shape: internal = host regex,
    # article = path regex, resource = isResource(path))
    host_re = _re.fullmatch(r"matches\(host, '(.+)'\)",
                            DEFAULT_CONFIG["tagger"]["internal"]).group(1)
    art_re = _re.fullmatch(r"matches\(path, '(.+)'\)",
                           DEFAULT_CONFIG["tagger"]["article"]).group(1)
    # idExtractorPattern '.*-(?<id>[0-9]+)$' → RE2 capture group
    id_re = DEFAULT_CONFIG["idExtractorPattern"].replace("(?<id>", "(")
    prio_article = cfg.priorities.get("article", 0)
    prio_other = cfg.priorities.get("other", 0)
    # DuckDB single-quoted strings are NOT backslash-escaped: the Python
    # regex literals pass through verbatim
    res_re = RESOURCE_REGEX
    host_sql = host_re
    pages_path = f"/tmp/dcr_fixtures/sf{_FIXTURE_SCALE}/pages.parquet"
    root_vals = ", ".join(f"('https://{d}/', '{d}')"
                          for d in domains_for(_FIXTURE_SCALE))
    seed_vals = ", ".join(f"('{s}')" for s in cfg.seeds)
    # host()/path() of a url as SQL snippets (path '' → '/', the root)
    host_of = "regexp_extract({u}, '^https?://([^/]*)', 1)"
    path_of = ("coalesce(nullif(regexp_extract({u}, "
               "'^https?://[^/]*(/.*)$', 1), ''), '/')")

    def allowed(u: str) -> str:
        """First-hit-wins filter: resource (blacklist) rejects, internal
        (whitelist) accepts, fallthrough denies — over http links only
        (extraction already guarantees http)."""
        return (f"NOT regexp_full_match({path_of.format(u=u)}, '{res_re}')"
                f" AND regexp_full_match({host_of.format(u=u)}, '{host_sql}')")

    # shared WITH clauses: pages + roots + per-url fetch outcome + the
    # extracted-link relation (stylesheet <link> + first-occurrence
    # distinct outlinks per page; root index pages link every root and
    # the first ≤20 same-domain page urls in table order) + the
    # filter-allowed edge set
    prelude = f"""
pg AS (
  SELECT url, domain, kind, valid, status_code, empty_body, outlinks,
         image_refs,
         row_number() OVER (PARTITION BY domain ORDER BY file_row_number)
           AS dom_rn
  FROM read_parquet('{pages_path}', file_row_number=true)
),
roots(url, domain) AS (SELECT * FROM (VALUES {root_vals}) t(u, d)),
fetch_eval AS (
  SELECT url, TRUE AS ok, NULL::VARCHAR AS err FROM roots
  UNION ALL
  SELECT url,
         (status_code = 200 AND NOT empty_body AND NOT
          (regexp_full_match(url, '{art_re}')
           AND NOT (kind = 'article' AND valid))),
         CASE WHEN status_code != 200
                THEN 'INVALID_STATUS_CODE_' || status_code
              WHEN empty_body THEN 'EMPTY_RESPONSE_BODY'
              WHEN regexp_full_match(url, '{art_re}')
                   AND NOT (kind = 'article' AND valid)
                THEN 'CONTENT_VALIDATION_ERROR_article' END
  FROM pg
),
extracted AS (
  SELECT p.url AS src, 'https://' || p.domain || '/resource/style.css'
         AS dst FROM pg p
  UNION ALL
  SELECT src, dst FROM (
    SELECT p.url AS src, unnest(p.outlinks) AS dst FROM pg p
  ) GROUP BY src, dst
  UNION ALL
  SELECT r1.url, r2.url FROM roots r1 CROSS JOIN roots r2
  UNION ALL
  SELECT r.url, p.url FROM roots r
  JOIN pg p ON p.domain = r.domain AND p.dom_rn <= 20
),
edges AS (SELECT src, dst FROM extracted WHERE {allowed('dst')}),
reach(url) AS (
  SELECT * FROM (VALUES {seed_vals}) s(u)
  UNION
  SELECT e.dst FROM reach r
  JOIN fetch_eval f ON f.url = r.url AND f.ok
  JOIN edges e ON e.src = r.url
),
node AS (
  SELECT r.url, coalesce(f.ok, FALSE) AS ok,
         CASE WHEN f.url IS NULL THEN 'INVALID_STATUS_CODE_404'
              ELSE f.err END AS err,
         regexp_full_match(r.url, '{art_re}') AS is_article
  FROM reach r LEFT JOIN fetch_eval f ON f.url = r.url
)"""

    seen_sql = f"""
WITH RECURSIVE {prelude}
SELECT
  CASE WHEN regexp_full_match(n.url, '{id_re}')
       THEN regexp_extract(n.url, '{id_re}', 1) ELSE md5(n.url) END
    AS url_hash,
  CASE WHEN n.ok THEN 2 ELSE 3 END::BIGINT AS status,
  1::BIGINT AS attempt,
  coalesce(n.err, '') AS error,
  CASE WHEN concat_ws(',',
    CASE WHEN regexp_full_match({path_of.format(u='n.url')}, '{res_re}')
         THEN 'resource' END,
    CASE WHEN regexp_full_match({host_of.format(u='n.url')}, '{host_sql}')
         THEN 'internal' END,
    CASE WHEN n.is_article THEN 'article' END) = '' THEN 'other'
    ELSE concat_ws(',',
    CASE WHEN regexp_full_match({path_of.format(u='n.url')}, '{res_re}')
         THEN 'resource' END,
    CASE WHEN regexp_full_match({host_of.format(u='n.url')}, '{host_sql}')
         THEN 'internal' END,
    CASE WHEN n.is_article THEN 'article' END) END AS tags,
  CASE WHEN n.is_article THEN {prio_article}
       WHEN NOT regexp_full_match({path_of.format(u='n.url')}, '{res_re}')
        AND NOT regexp_full_match({host_of.format(u='n.url')}, '{host_sql}')
       THEN {prio_other} ELSE 0 END::BIGINT AS priority
FROM node n
ORDER BY url_hash
"""

    counters_sql = f"""
WITH RECURSIVE {prelude},
stored_refs AS (
  SELECT unnest(p.image_refs) AS iid
  FROM node n JOIN pg p ON p.url = n.url
  WHERE n.ok AND n.is_article
),
counts AS (
  SELECT 'DISCOVERED_URLS' AS counter, count(*)::BIGINT AS value FROM node
  UNION ALL SELECT 'PROCESSED_URLS', count(*) FROM node WHERE ok
  UNION ALL SELECT 'SAVED_PAGES', count(*) FROM node WHERE ok AND is_article
  UNION ALL SELECT 'NEW_SAVED_PAGES', count(*) FROM node
    WHERE ok AND is_article
  UNION ALL SELECT 'UNSAVED_PAGES', count(*) FROM node
    WHERE ok AND NOT is_article
  UNION ALL SELECT 'SAVED_IMAGES', count(DISTINCT iid) FROM stored_refs
  UNION ALL SELECT 'DUP_IMAGE_REFS', count(*) - count(DISTINCT iid)
    FROM stored_refs
  UNION ALL SELECT 'ERROR_' || err, count(*) FROM node
    WHERE err IS NOT NULL GROUP BY err
  UNION ALL SELECT 'ALLOWED_LINKS',
    (SELECT count(*) FROM node)
    + (SELECT count(*) FROM node n JOIN edges e ON e.src = n.url WHERE n.ok)
  UNION ALL SELECT 'IGNORED_LINKS',
    (SELECT count(*) FROM node n JOIN extracted x ON x.src = n.url
     WHERE n.ok AND NOT EXISTS (
       SELECT 1 FROM edges e WHERE e.src = x.src AND e.dst = x.dst))
)
SELECT counter, value FROM counts WHERE value > 0 ORDER BY counter
"""

    order_sql = f"""
WITH RECURSIVE {prelude},
attrs AS (
  SELECT u.url,
         CASE WHEN regexp_full_match(u.url, '{id_re}')
              THEN regexp_extract(u.url, '{id_re}', 1)
              ELSE md5(u.url) END AS url_hash,
         {host_of.format(u='u.url')} AS host,
         CASE WHEN regexp_full_match(u.url, '{art_re}')
              THEN {prio_article} ELSE 0 END AS priority,
         coalesce(f.ok, FALSE) AS ok
  FROM (SELECT url FROM pg UNION SELECT url FROM roots
        UNION SELECT * FROM (VALUES {seed_vals}) s(u)) u
  LEFT JOIN fetch_eval f ON f.url = u.url
),
step(round, url, state, done_round, done_rank) AS (
  SELECT 0, s.url, 'Q', NULL::BIGINT, NULL::BIGINT
  FROM (VALUES {seed_vals}) s(url)
  UNION ALL
  (
    WITH cur AS (SELECT * FROM step),
    sel AS (
      SELECT url, grank FROM (
        SELECT url,
               row_number() OVER (ORDER BY priority DESC, url_hash) AS grank
        FROM (
          SELECT c.url, a.priority, a.url_hash,
                 row_number() OVER (PARTITION BY a.host
                   ORDER BY a.priority DESC, a.url_hash) AS drank
          FROM cur c JOIN attrs a ON a.url = c.url
          WHERE c.state = 'Q'
        ) WHERE drank <= {cap}
      ) WHERE grank <= {k}
    )
    SELECT c.round + 1, c.url,
           CASE WHEN s.url IS NOT NULL THEN 'D' ELSE c.state END,
           coalesce(c.done_round,
                    CASE WHEN s.url IS NOT NULL THEN c.round + 1 END),
           coalesce(c.done_rank, s.grank)
    FROM cur c LEFT JOIN sel s ON s.url = c.url
    WHERE (SELECT count(*) FROM sel) > 0
    UNION ALL
    SELECT c.round + 1, e.dst, 'Q', NULL, NULL
    FROM (SELECT url, round FROM cur) c
    JOIN sel s ON s.url = c.url
    JOIN attrs a ON a.url = c.url AND a.ok
    JOIN edges e ON e.src = c.url
    WHERE e.dst NOT IN (SELECT url FROM cur)
    GROUP BY c.round, e.dst
  )
)
SELECT row_number() OVER (ORDER BY done_round, done_rank) - 1 AS seq,
       a.url_hash
FROM (SELECT * FROM step QUALIFY round = max(round) OVER ()) f
JOIN attrs a ON a.url = f.url
WHERE f.state = 'D'
ORDER BY seq
"""

    # curated_corpus: the crawl→corpus END-TO-END flagship replayed in
    # SQL. Reuses the BSP `step` replay for the stored pages' fetch-round
    # numbers (the pipeline's fetch rounds are 0-based → done_round − 1),
    # rebuilds the stored html's VISIBLE TEXT symbolically — a stored
    # (ok, validated article) page's tag-stripped text is exactly
    # 'Article body text. link 0 … link k−1 dup nf mail' where k is the
    # raw outlink count (render_page_html emits one anchor per outlink
    # incl. duplicates; <img>/<link> contribute no text; the dup/nf/mail
    # anchors are constant) — then applies curate.py's metrics verbatim:
    # md5(lower(text)) fingerprint, ≥20-char quality gate, min-url_hash
    # survivor per fingerprint with the duplicate count.
    order_head = order_sql.rpartition("SELECT row_number()")[0]
    curated_sql = order_head + """
, fetched AS (
  SELECT f.url, f.done_round - 1 AS round, a.url_hash
  FROM (SELECT * FROM step QUALIFY round = max(round) OVER ()) f
  JOIN attrs a ON a.url = f.url
  WHERE f.state = 'D'
),
stored AS (
  SELECT fe.url_hash, fe.url, fe.round, len(p.outlinks) AS k
  FROM fetched fe
  JOIN node n ON n.url = fe.url AND n.ok AND n.is_article
  JOIN pg p ON p.url = fe.url
),
link_texts AS (
  -- 'link 0 … link k−1' per distinct outlink count (generate_series
  -- takes constants only in DuckDB 1.0; 511 ≫ the generator's 12 max)
  SELECT m.k, string_agg('link ' || g.x, ' ' ORDER BY g.x) AS txt
  FROM (SELECT DISTINCT len(outlinks) AS k FROM pg) m
  JOIN generate_series(0, 511) g(x) ON g.x < m.k
  GROUP BY m.k
),
texts AS (
  SELECT s.url_hash, s.url, s.round,
         'Article body text. ' || lt.txt || ' dup nf mail' AS text
  FROM stored s JOIN link_texts lt ON lt.k = s.k
),
metrics AS (
  SELECT url_hash, url, round,
         length(text)::BIGINT AS n_chars,
         len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n_tokens,
         md5(lower(text)) AS fingerprint,
         length(text) >= 20 AS quality_ok
  FROM texts
),
curated AS (
  SELECT url_hash, url, round, n_chars, n_tokens, fingerprint, quality_ok,
         n_dups
  FROM (
    SELECT *, count(*) OVER (PARTITION BY fingerprint) AS n_dups,
           row_number() OVER (PARTITION BY fingerprint ORDER BY url_hash)
             AS rn
    FROM metrics
  ) WHERE rn = 1
)"""
    curated_core = curated_sql
    curated_sql = curated_core + """
SELECT * FROM curated ORDER BY url_hash
"""
    # corpus_release: the flagship's release manifest — curated quality
    # rows through the export writer's md5-bucket + bit_xor fingerprint
    # pact (identity url_hash, content = the curated row's volatile
    # fields: curate's md5(lower(text)) fingerprint + surviving url +
    # round), same replay as the export_corpus / export_image_shards
    # oracles
    release_sql = curated_core + f"""
SELECT CAST(('0x' || substr(md5(url_hash), 1, 8)) AS BIGINT)
           % {DEFAULT_SHARDS} AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(bit_xor(
           CAST(('0x' || substr(md5(url_hash || ':' ||
                                md5(fingerprint || ':' || url || ':' ||
                                    CAST(round AS VARCHAR))),
                                1, 16)) AS UBIGINT)
           & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
           AS fingerprint
FROM curated WHERE quality_ok GROUP BY 1 ORDER BY 1
"""
    # crawl_lineage_counts: the per-round lineage totals derived from the
    # SAME BSP `step` replay — candidates_in(r) = distinct allowed links
    # offered by round-r ok-fetched pages (the round-level first-occurrence
    # dedup ≡ DISTINCT; the fixture has no url_hash collisions), and
    # discovered(r) = offers whose FIRST offer round is r and that are not
    # seeds (the frontier's exact seen-check over everything ever
    # inserted). Seeds commit under round −1 (crawl.py seed phase).
    lineage_sql = order_sql.rpartition("SELECT row_number()")[0] + f"""
, final AS (SELECT * FROM step QUALIFY round = max(round) OVER ()),
fetched_r AS (
  SELECT f.url, f.done_round - 1 AS r, a.ok
  FROM final f JOIN attrs a ON a.url = f.url
  WHERE f.state = 'D'
),
offers AS (
  SELECT DISTINCT e.dst, fr.r
  FROM fetched_r fr JOIN edges e ON e.src = fr.url
  WHERE fr.ok
),
first_offer AS (SELECT dst, min(r) AS fr FROM offers GROUP BY dst),
seeds_t(url) AS (VALUES {seed_vals}),
fcounts AS (
  SELECT r, count(*) AS n_f,
         sum(CASE WHEN NOT ok THEN 1 ELSE 0 END) AS n_fail
  FROM fetched_r GROUP BY r
),
ocounts AS (SELECT r, count(*) AS n_c FROM offers GROUP BY r),
dcounts AS (
  SELECT fo.fr AS r, count(*) AS n_d FROM first_offer fo
  WHERE fo.dst NOT IN (SELECT url FROM seeds_t) GROUP BY fo.fr
)
SELECT CAST(round AS BIGINT) AS round,
       CAST(candidates_in AS BIGINT) AS candidates_in,
       CAST(discovered AS BIGINT) AS discovered,
       CAST(robots_denied AS BIGINT) AS robots_denied,
       CAST(fetched AS BIGINT) AS fetched,
       CAST(failed AS BIGINT) AS failed
FROM (
  SELECT -1 AS round,
         (SELECT count(DISTINCT url) FROM seeds_t) AS candidates_in,
         (SELECT count(DISTINCT url) FROM seeds_t) AS discovered,
         0 AS robots_denied, 0 AS fetched, 0 AS failed
  UNION ALL
  SELECT f.r, coalesce(o.n_c, 0), coalesce(d.n_d, 0), 0, f.n_f, f.n_fail
  FROM fcounts f
  LEFT JOIN ocounts o ON o.r = f.r
  LEFT JOIN dcounts d ON d.r = f.r
) ORDER BY round
"""
    # crawl_domain_stats: per-host totals straight off the `node` closure
    domain_sql = f"""
WITH RECURSIVE {prelude}
SELECT {host_of.format(u='n.url')} AS domain,
       CAST(count(*) AS BIGINT) AS discovered,
       CAST(sum(CASE WHEN n.ok THEN 1 ELSE 0 END) AS BIGINT) AS fetched,
       CAST(sum(CASE WHEN NOT n.ok THEN 1 ELSE 0 END) AS BIGINT) AS failed,
       CAST(sum(CASE WHEN n.ok AND n.is_article THEN 1 ELSE 0 END)
            AS BIGINT) AS stored
FROM node n GROUP BY 1 ORDER BY 1
"""
    # politeness invariant: per-(round, host) fetch counts vs the cap,
    # straight off the same BSP step replay
    politeness_sql = order_sql.rpartition("SELECT row_number()")[0] + f"""
SELECT f.done_round - 1 AS round, a.host AS domain,
       CAST(count(*) AS BIGINT) AS n_fetched,
       CAST({cap} AS BIGINT) AS cap,
       count(*) = {cap} AS at_cap,
       count(*) <= {cap} AS ok
FROM (SELECT * FROM step QUALIFY round = max(round) OVER ()) f
JOIN attrs a ON a.url = f.url
WHERE f.state = 'D'
GROUP BY 1, 2 ORDER BY 1, 2
"""
    # compact_pages: the compaction manifest replayed in SQL. The stored
    # set is the order-independent `node` closure (ok ∧ article — the
    # same set the pages store holds; the fixture crawl fetches each URL
    # once, so latest-version-wins is identity), and the RAW stored html
    # is rebuilt SYMBOLICALLY, byte for byte: render_page_html's template
    # with the "\n" joins removed (SimpleHttpRenderer's newline-strip —
    # semantics.py fetch_outcome), anchors/imgs re-aggregated in list
    # order via the generate_series trick (511 ≫ the generator's 12-link
    # max). fingerprint = the export writer's md5-bucket + bit_xor pact
    # over md5(html) — the compaction rule that digests CONTENT, never a
    # length proxy.
    compact_sql = f"""
WITH RECURSIVE {prelude},
stored AS (
  SELECT n.url,
         CASE WHEN regexp_full_match(n.url, '{id_re}')
              THEN regexp_extract(n.url, '{id_re}', 1)
              ELSE md5(n.url) END AS url_hash
  FROM node n WHERE n.ok AND n.is_article
),
la AS (
  SELECT p.url,
         string_agg('<a href="' || p.outlinks[g.x + 1] || '">link '
                    || g.x || '</a>', '' ORDER BY g.x) AS links
  FROM pg p JOIN generate_series(0, 511) g(x) ON g.x < len(p.outlinks)
  GROUP BY p.url
),
ia AS (
  SELECT p.url,
         string_agg('<img src="https://' || p.domain || '/img/'
                    || p.image_refs[g.x + 1] || '.png" alt="'
                    || p.image_refs[g.x + 1] || '">', '' ORDER BY g.x)
           AS imgs
  FROM pg p JOIN generate_series(0, 511) g(x) ON g.x < len(p.image_refs)
  GROUP BY p.url
),
ph AS (
  SELECT s.url_hash,
         '<html><head><link rel="stylesheet" href="https://' || p.domain
         || '/resource/style.css"></head><body>'
         || '<div class="article-body">Article body text.</div>'
         || coalesce(la.links, '')
         || CASE WHEN len(p.outlinks) > 0
                 THEN '<a href="' || p.outlinks[1] || '">dup</a>'
                      || '<a rel="nofollow" href="'
                      || p.outlinks[len(p.outlinks)] || '">nf</a>'
                 ELSE '' END
         || '<a href="mailto:someone@example.test">mail</a>'
         || coalesce(ia.imgs, '') || '</body></html>' AS html
  FROM stored s
  JOIN pg p ON p.url = s.url
  LEFT JOIN la ON la.url = s.url
  LEFT JOIN ia ON ia.url = s.url
)
SELECT CAST(('0x' || substr(md5(url_hash), 1, 8)) AS BIGINT)
           % {DEFAULT_SHARDS} AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(bit_xor(
           CAST(('0x' || substr(md5(url_hash || ':' || md5(html)),
                                1, 16)) AS UBIGINT)
           & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
           AS fingerprint
FROM ph GROUP BY 1 ORDER BY 1
"""
    return {"crawl_seen_set": seen_sql, "crawl_counters": counters_sql,
            "crawl_order": order_sql, "curated_corpus": curated_sql,
            "crawl_lineage_counts": lineage_sql,
            "corpus_release": release_sql,
            "crawl_domain_stats": domain_sql,
            "crawl_politeness_check": politeness_sql,
            "compact_pages": compact_sql}


def image_decode_stats(sf_dir: str):
    return multimodal.decode_stats(f"{_fixture_dir()}/images.parquet")


def image_phash_near_dups(sf_dir: str):
    return multimodal.phash_near_dup_pairs(f"{_fixture_dir()}/images.parquet")


def image_features_q(sf_dir: str):
    ds = multimodal.image_features(f"{_fixture_dir()}/images.parquet")

    def meta(t: pa.Table) -> pa.Table:
        return t.drop_columns(["thumb"]).append_column(
            "thumb_bytes", pc.cast(pc.binary_length(t.column("thumb")), pa.int64())
        )

    return ds.map_batches(meta, batch_format="pyarrow", **remote_kwargs())


def image_embeddings_q(sf_dir: str):
    """Registry presentation of the embedding table: per-row dim + md5
    digest of the float32 payload. With the fixed-shape-gemm tower
    (`vecutil.fixed_gemm`) the batched production embedding is
    bit-identical to the fixture's build-time embed at ANY partitioning,
    so the digest carries a FULL stored-pact oracle (r4 was rows-only
    with a norm summary — the batched gemm wobbled with batch shape)."""
    import hashlib

    import numpy as np

    ds = multimodal.image_embeddings(f"{_fixture_dir()}/images.parquet")

    def meta(t: pa.Table) -> pa.Table:
        emb = t.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = np.asarray(pc.list_flatten(emb).to_numpy(
            zero_copy_only=False), dtype=np.float32)
        lens = pc.list_value_length(emb).to_numpy(zero_copy_only=False)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        digs = [hashlib.md5(flat[offsets[i]:offsets[i + 1]].tobytes())
                .hexdigest() for i in range(len(lens))]
        return pa.table(
            {
                "image_id": t.column("image_id"),
                "dim": pa.array(lens.astype(np.int64), pa.int64()),
                "emb_digest": pa.array(digs, pa.string()),
            }
        )

    return ds.map_batches(meta, batch_format="pyarrow", **remote_kwargs())




def _media_dir() -> str:
    from ..sources.media import write_media_fixture

    return str(write_media_fixture("/tmp/dcr_fixtures/media",
                                   seed=_FIXTURE_SEED))


def audio_features_q(sf_dir: str):
    return media.audio_features(f"{_media_dir()}/audio.parquet")


def video_frame_sample_q(sf_dir: str):
    return media.video_frame_sample(f"{_media_dir()}/video.parquet")


def image_keeplist_q(sf_dir: str):
    return multimodal.image_keeplist(f"{_fixture_dir()}/images.parquet")


def image_quality_q(sf_dir: str):
    return multimodal.image_quality(f"{_fixture_dir()}/images.parquet")


def image_curation_q(sf_dir: str):
    return multimodal.image_curation(f"{_fixture_dir()}/images.parquet")


def image_ann_topk_q(sf_dir: str):
    # 16 queries so the planted near-dup pair (img14 → img15) is included
    return multimodal.image_ann_topk(f"{_fixture_dir()}/images.parquet",
                                     n_queries=16)


def image_resize_meta(sf_dir: str):
    ds = multimodal.resize(f"{_fixture_dir()}/images.parquet")

    def meta(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": t.column("image_id"),
                "w": t.column("w"),
                "h": t.column("h"),
                "n_bytes": pc.cast(pc.binary_length(t.column("bytes")), pa.int64()),
            }
        )

    return ds.map_batches(meta, batch_format="pyarrow", **remote_kwargs())


# --------------------------------------------------------------- registry

def build_registry() -> dict[str, tuple]:
    reg: dict[str, tuple] = {}

    reg["lineitem_pricing_summary"] = (
        relational.lineitem_agg,
        """
        SELECT l_returnflag, l_linestatus,
               CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS sum_disc_price_c4,
               count(*)                                               AS count_order
        FROM lineitem
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
        """,
    )

    reg["orders_by_segment"] = (
        relational.orders_by_segment,
        """
        SELECT c.c_mktsegment, count(*) AS n_orders,
               CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_total_cents
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
        """,
    )

    reg["urgent_orders_by_nation"] = (
        relational.urgent_orders_by_nation,
        """
        SELECT n.n_name, count(*) AS n_urgent
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n   ON c.c_nationkey = n.n_nationkey
        WHERE o.o_orderpriority LIKE '1-%'
        GROUP BY n.n_name ORDER BY n.n_name
        """,
    )

    reg["events_by_type"] = (
        relational.events_by_type,
        """
        SELECT event_type, count(*) AS n,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents,
               min(CAST(round(value * 100) AS BIGINT)) AS min_value_cents,
               max(CAST(round(value * 100) AS BIGINT)) AS max_value_cents
        FROM events GROUP BY event_type ORDER BY event_type
        """,
    )

    reg["top_users_by_value"] = (
        relational.top_users,
        """
        SELECT user_id,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS total_value_cents,
               count(*) AS n_events
        FROM events GROUP BY user_id
        ORDER BY total_value_cents DESC, user_id LIMIT 10
        """,
    )

    reg["events_hourly_window"] = (
        relational.events_hourly_window,
        """
        SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S')
                   AS window_start, event_type,
               count(*) AS n,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
    )

    reg["props_k_stats"] = (
        relational.props_k_stats,
        """
        SELECT (CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT) // 10) * 10
                   AS k_bucket,
               count(*) AS n,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY 1 ORDER BY 1
        """,
    )

    reg["part_brand_stats"] = (
        relational.part_brand_stats,
        """
        SELECT p_brand, count(*) AS n_parts,
               CAST(sum(CAST(round(p_retailprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               CAST(sum(CAST(p_size AS BIGINT)) AS BIGINT) AS sum_size
        FROM part GROUP BY p_brand ORDER BY p_brand
        """,
    )

    reg["doc_token_counts"] = (
        text.token_counts,
        """
        SELECT doc_id, length(text) AS n_chars,
               len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_tokens
        FROM documents ORDER BY doc_id
        """,
    )

    reg["doc_quality_scores"] = (
        text.text_quality,
        """
        SELECT doc_id,
               length(text) AS n_chars,
               len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_tokens,
               length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g')) AS n_punct,
               length(regexp_replace(text, '[^A-Za-z0-9]', '', 'g')) AS n_token_chars,
               length(text) < 100 AS is_short
        FROM documents ORDER BY doc_id
        """,
    )

    reg["doc_fingerprints"] = (
        text.doc_fingerprint,
        """
        SELECT doc_id,
               md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fingerprint
        FROM documents ORDER BY doc_id
        """,
    )

    reg["dedup_exact"] = (
        dedup.dedup_exact,
        """
        SELECT md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fingerprint,
               min(doc_id) AS keep_id, count(*) AS n_dups
        FROM documents GROUP BY 1 ORDER BY keep_id
        """,
    )

    reg["ann_bruteforce_topk"] = (
        ann.ann_bruteforce,
        """
        WITH q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings ORDER BY vec_id LIMIT 5
        ), scored AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(e.embedding AS DOUBLE[])) AS raw_sim
            FROM q CROSS JOIN embeddings e
            WHERE e.vec_id <> q.query_id
        ), ranked AS (
            SELECT query_id, neighbor_id, raw_sim,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY raw_sim DESC, neighbor_id) AS rank
            FROM scored
        )
        SELECT query_id, rank, neighbor_id, round(raw_sim, 4) AS sim
        FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
        """,
    )

    reg["order_priority_revenue"] = (
        relational.order_priority_revenue,
        """
        SELECT o.o_orderpriority, count(*) AS n_items,
               CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT)
                   AS sum_disc_price_c4
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
        """,
    )

    reg["top_parts_per_brand"] = (
        relational.top_parts_per_brand,
        """
        WITH ranked AS (
            SELECT p_brand, p_partkey,
                   CAST(round(p_retailprice * 100) AS BIGINT) AS price_cents,
                   row_number() OVER (
                       PARTITION BY p_brand
                       ORDER BY round(p_retailprice * 100) DESC, p_partkey
                   ) AS rank
            FROM part
        )
        SELECT p_brand, rank, p_partkey, price_cents
        FROM ranked WHERE rank <= 3 ORDER BY p_brand, rank
        """,
    )

    reg["user_sessions"] = (
        relational.user_sessions,
        """
        WITH d AS (
            SELECT user_id, ts,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        )
        SELECT user_id, count(*) AS n_events,
               CAST(sum(new_s) AS BIGINT) AS n_sessions
        FROM d GROUP BY user_id ORDER BY user_id
        """,
    )

    reg["daily_active_users"] = (
        relational.daily_active_users,
        """
        SELECT strftime(ts, '%Y-%m-%d') AS day,
               count(DISTINCT user_id) AS active_users
        FROM events GROUP BY 1 ORDER BY 1
        """,
    )

    reg["order_size_distribution"] = (
        relational.order_size_distribution,
        """
        WITH per_order AS (
            SELECT l_orderkey, count(*) AS n_items FROM lineitem GROUP BY 1
        )
        SELECT n_items, count(*) AS n_orders
        FROM per_order GROUP BY n_items ORDER BY n_items
        """,
    )

    reg["purchase_click_asof"] = (
        relational.purchase_click_asof,
        """
        SELECT p.user_id, p.ts AS purchase_ts, c.ts AS click_ts
        FROM (SELECT user_id, ts FROM events WHERE event_type = 'purchase') p
        ASOF LEFT JOIN
             (SELECT user_id, ts FROM events WHERE event_type = 'click') c
        ON p.user_id = c.user_id AND p.ts >= c.ts
        ORDER BY p.user_id, p.ts
        """,
    )

    # distinct 3-word shingles per doc + per-doc set sizes — the shared
    # prefix of every shingle-based dedup oracle (exact replay of
    # dedup._shingles: lowercase [a-z0-9]+ tokens, space-joined trigrams,
    # whole-token-string fallback below 3 tokens)
    _SHINGLE_CTES = """
        toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tk
            FROM documents
        ), sh3 AS (
            SELECT doc_id,
                   unnest(list_transform(range(1, len(tk) - 1),
                          i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])) AS shingle
            FROM toks WHERE len(tk) >= 3
        ), sh_small AS (
            SELECT doc_id, array_to_string(tk, ' ') AS shingle
            FROM toks WHERE len(tk) < 3 AND len(tk) > 0
        ), sh AS (
            SELECT DISTINCT doc_id, shingle
            FROM (SELECT * FROM sh3 UNION ALL SELECT * FROM sh_small)
        ), sizes AS (
            SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
        )
    """

    # shared by ngram_jaccard_pairs and jaccard_clusters (CTE body)
    _NGRAM_PAIRS_CTES = _SHINGLE_CTES + """
        , cand AS (
            SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter
            FROM sh x JOIN sh y ON x.shingle = y.shingle AND x.doc_id < y.doc_id
            GROUP BY 1, 2
        ), qpairs AS (
            SELECT p.a, p.b, p.inter,
                   sa.n + sb.n - p.inter AS union_n
            FROM cand p
            JOIN sizes sa ON sa.doc_id = p.a
            JOIN sizes sb ON sb.doc_id = p.b
            WHERE 20 * p.inter >= (sa.n + sb.n - p.inter)
        )
    """

    reg["ngram_jaccard_pairs"] = (
        dedup.ngram_jaccard_pairs,
        f"WITH {_NGRAM_PAIRS_CTES} "
        "SELECT a, b, inter, union_n FROM qpairs ORDER BY a, b",
    )

    # connected components over the SAME qualifying pair set — a
    # recursive-CTE transitive closure with min-reachable representative,
    # making the cluster stage (cc.component_reps) itself oracle-checked
    reg["jaccard_clusters"] = (
        dedup.jaccard_clusters,
        f"""
        WITH RECURSIVE {_NGRAM_PAIRS_CTES},
        edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT r.u AS node, LEAST(r.u, MIN(r.v)) AS rep
            FROM reach r GROUP BY r.u
        ), sized AS (
            SELECT rep, count(*) AS cluster_size FROM reps GROUP BY rep
        )
        SELECT p.node AS doc_id, p.rep AS cluster_rep, s.cluster_size,
               p.node = p.rep AS keep
        FROM reps p JOIN sized s ON p.rep = s.rep
        ORDER BY doc_id
        """,
    )

    # MinHash+LSH oracle: the SAME 64 (a,b) permutation constants the Ray
    # actors draw (seeded rng), md5-derived base hashes (DuckDB replays
    # them bit-exactly), candidate = all ROWS_PER_BAND signature rows of
    # some band agree (band-fold equality in the Ray path is implied by
    # row equality and collision-free in 63 bits the other way), then the
    # SAME integer-arithmetic exact-Jaccard verify as the ngram oracle.
    _mh = dedup._MinHasher(seed=1234)
    _perm_rows = ", ".join(
        f"({i}, {int(a)}::UBIGINT, {int(b)}::UBIGINT)"
        for i, (a, b) in enumerate(zip(_mh.a, _mh.b))
    )
    _MINHASH_PAIRS_CTES = _SHINGLE_CTES + f"""
        , xs AS (
            SELECT doc_id,
                   ('0x' || substr(md5(shingle), 1, 16))::UBIGINT
                       % 4294967296::UBIGINT AS x
            FROM sh
        ), perms(i, pa, pb) AS (
            VALUES {_perm_rows}
        ), sig AS (
            SELECT xs.doc_id, perms.i,
                   min((perms.pa * xs.x + perms.pb)
                       % {dedup._MERSENNE}::UBIGINT) AS v
            FROM xs CROSS JOIN perms GROUP BY 1, 2
        ), mh_cand AS (
            SELECT DISTINCT a, b FROM (
                SELECT s1.doc_id AS a, s2.doc_id AS b
                FROM sig s1 JOIN sig s2
                  ON s1.i = s2.i AND s1.v = s2.v AND s1.doc_id < s2.doc_id
                GROUP BY s1.doc_id, s2.doc_id, s1.i // {dedup.ROWS_PER_BAND}
                HAVING count(*) = {dedup.ROWS_PER_BAND}
            )
        ), mh_inter AS (
            SELECT c.a, c.b, count(*) AS inter
            FROM mh_cand c
            JOIN sh sa ON sa.doc_id = c.a
            JOIN sh sb ON sb.doc_id = c.b AND sb.shingle = sa.shingle
            GROUP BY 1, 2
        ), mh_pairs AS (
            SELECT i.a, i.b, i.inter, sa.n + sb.n - i.inter AS union_n
            FROM mh_inter i
            JOIN sizes sa ON sa.doc_id = i.a
            JOIN sizes sb ON sb.doc_id = i.b
            WHERE 2 * i.inter >= sa.n + sb.n - i.inter
        )
    """

    reg["minhash_near_dup_pairs"] = (
        dedup.minhash_near_dup_pairs,
        f"WITH {_MINHASH_PAIRS_CTES} "
        "SELECT a, b, inter, union_n FROM mh_pairs ORDER BY a, b",
    )

    reg["near_dup_clusters"] = (
        dedup.near_dup_clusters,
        f"""
        WITH RECURSIVE {_MINHASH_PAIRS_CTES},
        mh_edges AS (
            SELECT a AS u, b AS v FROM mh_pairs
            UNION ALL SELECT b, a FROM mh_pairs
        ), mh_reach(u, v) AS (
            SELECT u, v FROM mh_edges
            UNION
            SELECT r.u, e.v FROM mh_reach r JOIN mh_edges e ON r.v = e.u
        ), mh_reps AS (
            SELECT r.u AS node, LEAST(r.u, MIN(r.v)) AS rep
            FROM mh_reach r GROUP BY r.u
        ), mh_sized AS (
            SELECT rep, count(*) AS cluster_size FROM mh_reps GROUP BY rep
        )
        SELECT p.node AS doc_id, p.rep AS cluster_rep, s.cluster_size,
               p.node = p.rep AS keep
        FROM mh_reps p JOIN mh_sized s ON p.rep = s.rep
        ORDER BY doc_id
        """,
    )

    # cross-source contamination matrix: the verified MinHash pair set
    # annotated with each endpoint's source (keyed co-location, never a
    # doc→source broadcast), counted per unordered source pair
    reg["source_overlap_matrix"] = (
        dedup.source_overlap_matrix,
        f"""
        WITH {_MINHASH_PAIRS_CTES},
        lab AS (
            SELECT LEAST(da.source, db.source) AS source_a,
                   GREATEST(da.source, db.source) AS source_b
            FROM mh_pairs p
            JOIN documents da ON da.doc_id = p.a
            JOIN documents db ON db.doc_id = p.b
        )
        SELECT source_a, source_b, CAST(count(*) AS BIGINT) AS n_pairs
        FROM lab GROUP BY 1, 2 ORDER BY 1, 2
        """,
    )

    reg["event_value_quantiles"] = (
        relational.event_value_quantiles,
        """
        SELECT event_type,
               quantile_disc(CAST(round(value * 100) AS BIGINT), 0.5) AS p50_cents,
               quantile_disc(CAST(round(value * 100) AS BIGINT), 0.9) AS p90_cents,
               quantile_disc(CAST(round(value * 100) AS BIGINT), 0.99) AS p99_cents
        FROM events GROUP BY event_type ORDER BY event_type
        """,
    )

    reg["supplier_nation_stats"] = (
        relational.supplier_nation_stats,
        """
        SELECT r.r_name, n.n_name, count(*) AS n_suppliers,
               CAST(sum(CAST(round(s.s_acctbal * 100) AS BIGINT)) AS BIGINT)
                   AS sum_acctbal_cents
        FROM supplier s
        JOIN nation n ON s.s_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY 1, 2 ORDER BY 1, 2
        """,
    )

    reg["word_frequencies"] = (
        text.word_frequencies,
        """
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
            FROM documents
        )
        SELECT word, count(*) AS n FROM toks
        GROUP BY word ORDER BY n DESC, word LIMIT 100
        """,
    )

    # BM25 top-k: the full ranking replayed in SQL — tf/df/dl from the
    # shared token pact, idf + per-term score + explicit ordered sum in
    # the SAME left-assoc float expression as the numpy side (ln == math
    # .log, see text.bm25_topk's docstring), ties pinned by doc_id.
    _BM25_VALUES = ", ".join(
        f"('{qid}', {pos}, '{term}')"
        for qid, ts in text.BM25_QUERIES for pos, term in enumerate(ts))
    reg["bm25_topk"] = (
        text.bm25_topk,
        f"""
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
            FROM documents
        ),
        dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        stats AS (
            SELECT (SELECT count(*) FROM documents) AS n_docs,
                   (SELECT count(*) FROM toks) AS total_tokens
        ),
        qterms(query_id, pos, term) AS (VALUES {_BM25_VALUES}),
        tf AS (
            SELECT q.query_id, q.pos, q.term, t.doc_id, count(*) AS tf
            FROM toks t JOIN qterms q ON t.tok = q.term
            GROUP BY q.query_id, q.pos, q.term, t.doc_id
        ),
        dfs AS (SELECT term, count(DISTINCT doc_id) AS df FROM tf
                GROUP BY term),
        per AS (
            SELECT f.query_id, f.pos, f.doc_id,
                   -- CAST: DuckDB would do tf*2.2 in exact DECIMAL (6.6)
                   -- while numpy rounds 2.2 to double first (6.6000…05)
                   ln((s.n_docs - d.df + 0.5) / (d.df + 0.5)) *
                   (f.tf * CAST(2.2 AS DOUBLE)) /
                   (f.tf + 1.2 * (1 - 0.75 + 0.75 * (l.dl /
                        (CAST(s.total_tokens AS DOUBLE) / s.n_docs)))) AS s
            FROM tf f JOIN dfs d USING (term) JOIN dl l USING (doc_id)
            CROSS JOIN stats s
        ),
        piv AS (
            SELECT query_id, doc_id,
                   COALESCE(max(CASE WHEN pos = 0 THEN s END), 0.0) AS s0,
                   COALESCE(max(CASE WHEN pos = 1 THEN s END), 0.0) AS s1,
                   COALESCE(max(CASE WHEN pos = 2 THEN s END), 0.0) AS s2
            FROM per GROUP BY query_id, doc_id
        ),
        ranked AS (
            SELECT query_id, doc_id, ((s0 + s1) + s2) AS score,
                   CAST(row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY ((s0 + s1) + s2) DESC, doc_id
                   ) AS BIGINT) AS rank
            FROM piv
        )
        SELECT query_id, doc_id, score, rank FROM ranked
        WHERE rank <= 10 ORDER BY query_id, rank
        """,
    )

    reg["doc_sample"] = (
        text.doc_sample,
        """
        SELECT doc_id, md5(text) AS fp FROM documents
        WHERE md5(text) LIKE '0%' ORDER BY doc_id
        """,
    )

    reg["heavy_hitters_users"] = (
        text.heavy_hitters,
        """
        SELECT user_id, count(*) AS n FROM events
        GROUP BY user_id ORDER BY n DESC, user_id LIMIT 10
        """,
    )

    reg["events_sliding_window"] = (
        relational.events_sliding_window,
        """
        WITH e AS (
            SELECT time_bucket(INTERVAL '15 minutes', ts)
                       - k * INTERVAL '15 minutes' AS ws,
                   CAST(round(value * 100) AS BIGINT) AS cents
            FROM events, unnest([0, 1, 2, 3]) AS t(k)
        )
        SELECT strftime(ws, '%Y-%m-%d %H:%M:%S') AS window_start,
               count(*) AS n,
               CAST(sum(cents) AS BIGINT) AS sum_value_cents
        FROM e GROUP BY 1 ORDER BY 1
        """,
    )

    reg["high_value_week"] = (
        relational.high_value_week,
        """
        SELECT event_type, count(*) AS n,
               CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                   AS sum_value_cents
        FROM events
        WHERE ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
          AND value >= 100.0
        GROUP BY event_type ORDER BY event_type
        """,
    )

    reg["event_funnel"] = (
        relational.event_funnel,
        """
        WITH v AS (
            SELECT user_id, min(ts) AS t FROM events
            WHERE event_type = 'view' GROUP BY 1
        ), c AS (
            SELECT e.user_id, min(e.ts) AS t
            FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t
            WHERE e.event_type = 'click' GROUP BY 1
        ), p AS (
            SELECT e.user_id, min(e.ts) AS t
            FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t
            WHERE e.event_type = 'purchase' GROUP BY 1
        )
        SELECT 'view' AS stage, count(*) AS n_users FROM v
        UNION ALL SELECT 'view_click', count(*) FROM c
        UNION ALL SELECT 'view_click_purchase', count(*) FROM p
        ORDER BY stage
        """,
    )

    reg["top_terms_per_doc"] = (
        text.top_terms_per_doc,
        """
        WITH tok AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
            FROM documents
        ), tf AS (
            SELECT doc_id, word, count(*) AS tf FROM tok GROUP BY 1, 2
        ), df AS (
            SELECT word, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1
        ), ranked AS (
            SELECT tf.doc_id, tf.word, tf.tf, df.df,
                   row_number() OVER (PARTITION BY tf.doc_id
                       ORDER BY tf.tf DESC, df.df ASC, tf.word) AS rank
            FROM tf JOIN df USING (word)
        )
        SELECT doc_id, rank, word, tf, df FROM ranked
        WHERE rank <= 3 ORDER BY doc_id, rank
        """,
    )

    # simhash token hashes are md5-derived precisely so DuckDB can
    # recompute the signatures bit-for-bit (first 8 md5 bytes big-endian
    # == ('0x' || substr(md5(tok),1,16))::UBIGINT); the signed int64 is
    # reassembled with an explicit sign-bit term to dodge UBIGINT→BIGINT
    # overflow.
    _SIMHASH_SIGS_CTE = """
        tok AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
            FROM documents
        ), h AS (
            SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS hv
            FROM tok
        ), bits AS (
            SELECT doc_id, j,
                   sum(CASE WHEN ((hv >> j) & 1) = 1 THEN 1 ELSE -1 END) AS acc
            FROM h CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS j) js
            GROUP BY doc_id, j
        ), sigs AS (
            SELECT d.doc_id,
                   COALESCE(sum(CASE WHEN b.acc > 0 THEN
                       CASE WHEN b.j = 63 THEN -9223372036854775808
                            ELSE (1::BIGINT << b.j) END
                   ELSE 0 END), 0)::BIGINT AS simhash
            FROM documents d LEFT JOIN bits b USING (doc_id)
            GROUP BY d.doc_id
        )
    """

    reg["simhash_signatures"] = (
        dedup.simhash_signatures,
        f"WITH {_SIMHASH_SIGS_CTE} SELECT doc_id, simhash FROM sigs ORDER BY doc_id",
    )

    # 4×16-bit band blocking is EXACT for hamming ≤ 3 (pigeonhole), so the
    # brute-force SQL self-join is a complete oracle for the banded op.
    reg["simhash_near_dup_pairs"] = (
        dedup.simhash_near_dup_pairs,
        f"""
        WITH {_SIMHASH_SIGS_CTE}
        SELECT x.doc_id AS a, y.doc_id AS b,
               bit_count(xor(x.simhash, y.simhash)) AS hamming
        FROM sigs x JOIN sigs y ON x.doc_id < y.doc_id
        WHERE bit_count(xor(x.simhash, y.simhash)) <= 3
        ORDER BY a, b
        """,
    )

    # The phash column lives in the deterministic synthetic-web fixture
    # parquet (not a driver-registered view) → read_parquet by path. The
    # op's documented blocking contract is "hamming ≤ 8 AND ≥1 exact
    # 16-bit band" (4 bands can miss an ≤8-bit pair that touches all
    # four), so the oracle states BOTH predicates; band-k-clean is
    # xor & band_mask = 0, with the top mask written as its signed value.
    # images.parquet is a DIRECTORY of part files (sharded for read
    # parallelism) → DuckDB needs the glob form
    _IMAGES_PQ = f"/tmp/dcr_fixtures/sf{_FIXTURE_SCALE}/images.parquet/*.parquet"
    reg["image_phash_near_dups"] = (
        image_phash_near_dups,
        f"""
        WITH imgs AS (
            SELECT image_id, phash FROM read_parquet('{_IMAGES_PQ}')
        ), d AS (
            SELECT x.image_id AS a, y.image_id AS b,
                   xor(x.phash, y.phash) AS xo
            FROM imgs x JOIN imgs y ON x.image_id < y.image_id
        )
        SELECT a, b, bit_count(xo) AS hamming FROM d
        WHERE bit_count(xo) <= 8
          AND ((xo & 65535) = 0 OR (xo & 4294901760) = 0
               OR (xo & 281470681743360) = 0
               OR (xo & -281474976710656) = 0)
        ORDER BY a, b
        """,
    )

    # image+caption pair curation: caption/metadata arithmetic only (the
    # bytes column is length-counted, never decoded) → fully SQL-checked
    # over the same fixture glob as the phash oracle
    reg["image_caption_stats"] = (
        lambda sf: multimodal.caption_stats(f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id,
               CAST(len(regexp_extract_all(caption, '[A-Za-z0-9]+'))
                    AS BIGINT) AS n_cap_tokens,
               CAST(len(list_distinct(
                        regexp_extract_all(lower(caption), '[a-z0-9]+')))
                    AS BIGINT) AS n_distinct_tokens,
               CASE WHEN w > h THEN 'landscape'
                    WHEN w < h THEN 'portrait'
                    ELSE 'square' END AS orientation,
               CAST(octet_length(bytes) AS BIGINT) AS n_bytes,
               CAST(octet_length(bytes) AS BIGINT) * 1000
                   // (CAST(w AS BIGINT) * h) AS bytes_per_kpx,
               (len(regexp_extract_all(caption, '[A-Za-z0-9]+'))
                    BETWEEN {multimodal.CAP_MIN_TOKENS}
                        AND {multimodal.CAP_MAX_TOKENS}
                AND {multimodal.CAP_DISTINCT_DEN} * len(list_distinct(
                        regexp_extract_all(lower(caption), '[a-z0-9]+')))
                    >= {multimodal.CAP_DISTINCT_NUM}
                        * len(regexp_extract_all(caption, '[A-Za-z0-9]+')))
                   AS keep
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )

    # aesthetic scoring (LAION-Aesthetics stage): linear head over the
    # image-tower embedding, 0-10 score + keep gate. FULL oracle via the
    # stored-pixel pact (same as image_decode_check): the fixture stores
    # the expected score computed from the DECODED source pixels at build
    # time, and the distributed actor pool must reproduce it from `bytes`
    # alone — a 512-dim seeded float32 projection can't be IEEE-replayed
    # in SQL, so the pact checks the whole decode→embed→score path for
    # partition-/batch-shape-independence instead (exactly what broke in
    # r4's batched-gemm wobble). Range/determinism invariants pytested.
    reg["image_aesthetic_scores"] = (
        lambda sf: multimodal.image_aesthetic_scores(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id, aesthetic_score,
               aesthetic_score >= {multimodal.AESTHETIC_MIN} AS keep
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )

    # decode-consistency invariant (verdict r3 #8): (w, h, phash, lossy)
    # recomputed from DECODED PIXELS must equal the stored metadata —
    # promotes the formerly rows-only decode path to a full SQL oracle
    # (phash thresholds 8×8 block means, stable under the ≥40 dB lossy
    # roundtrip on this corpus)
    reg["image_decode_check"] = (
        lambda sf: multimodal.decode_check(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id, w, h, phash, fmt = 'jpeg' AS lossy
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )

    # image-side X1: exact byte-content dedup with in-flight planted
    # duplicates (pii_scrub_stats precedent — the identical UNION ALL
    # derivation in SQL, so no derived fixture; plant selection is the
    # id-format-agnostic md5-64 pact); fingerprint pact is
    # md5(lower(hex(bytes))) == hashlib.md5(bytes.hex()) (no md5(BLOB)
    # in this DuckDB)
    reg["image_exact_dedup"] = (
        lambda sf: multimodal.image_exact_dedup(
            f"{_fixture_dir()}/images.parquet",
            plant_period=multimodal.DEDUP_PLANT_PERIOD),
        f"""
        WITH base AS (
            SELECT image_id, bytes FROM read_parquet('{_IMAGES_PQ}')
        ), planted AS (
            SELECT image_id, bytes FROM base
            UNION ALL
            SELECT 'zz-' || image_id, bytes FROM base
            WHERE CAST(('0x' || substr(md5(image_id), 1, 16)) AS UBIGINT)
                      % {multimodal.DEDUP_PLANT_PERIOD} = 0
        )
        SELECT md5(lower(hex(bytes))) AS fingerprint,
               min(image_id) AS keep_id,
               CAST(count(*) AS BIGINT) AS n_copies
        FROM planted GROUP BY md5(lower(hex(bytes))) ORDER BY keep_id
        """,
    )

    # image-side X49: aspect-bucketed byte-budget shard packing; the
    # recursive CTE replays the greedy scan per (w, h, grp) exactly,
    # with grp = md5-64(image_id) % max(1, n_rows // group) — the same
    # id-format-agnostic pact as the Python side (an over-budget image
    # starts, and may overflow, its own shard — same CASE arithmetic
    # both sides)
    reg["image_shard_pack"] = (
        lambda sf: multimodal.image_shard_pack(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        WITH RECURSIVE d AS (
            SELECT image_id, w, h,
                   CAST(octet_length(bytes) AS BIGINT) AS n_bytes,
                   CAST(CAST(('0x' || substr(md5(image_id), 1, 16))
                             AS UBIGINT)
                        % (SELECT CAST(greatest(
                               count(*) // {multimodal.IMG_PACK_GROUP}, 1)
                               AS UBIGINT)
                           FROM read_parquet('{_IMAGES_PQ}'))
                        AS BIGINT) AS grp
            FROM read_parquet('{_IMAGES_PQ}')
        ), seq AS (
            SELECT *, row_number() OVER (PARTITION BY w, h, grp
                                         ORDER BY image_id) AS rn
            FROM d
        ), rec(w, h, grp, rn, image_id, n_bytes, acc, bin) AS (
            SELECT w, h, grp, rn, image_id, n_bytes, n_bytes, 0
            FROM seq WHERE rn = 1
            UNION ALL
            SELECT s.w, s.h, s.grp, s.rn, s.image_id, s.n_bytes,
                   CASE WHEN r.acc + s.n_bytes > {multimodal.IMG_SHARD_BUDGET}
                        THEN s.n_bytes ELSE r.acc + s.n_bytes END,
                   CASE WHEN r.acc + s.n_bytes > {multimodal.IMG_SHARD_BUDGET}
                        THEN r.bin + 1 ELSE r.bin END
            FROM rec r JOIN seq s ON s.w = r.w AND s.h = r.h
                                 AND s.grp = r.grp AND s.rn = r.rn + 1
        )
        SELECT image_id, w, h, n_bytes, grp * 1000 + bin AS bin_id
        FROM rec ORDER BY image_id
        """,
    )

    # --- quality-filter family (ops/filters.py) — every rule is integer
    # arithmetic over RE2 kernels, so all four are fully SQL-checked ---

    reg["gopher_quality_flags"] = (
        filters.gopher_quality_flags,
        f"""
        WITH f AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_words,
                   length(regexp_replace(text, '[^A-Za-z0-9]', '', 'g'))
                       AS n_token_chars,
                   length(text) - length(replace(text, chr(10), '')) + 1
                       AS n_lines,
                   len(regexp_extract_all(text, '{filters.BULLET_RE}'))
                       AS n_bullet_lines,
                   len(regexp_extract_all(text, '{filters.ELLIPSIS_RE}'))
                       AS n_ellipsis_lines,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+'))
                     - len(regexp_extract_all(text, '{filters.NUMERIC_WORD_RE}'))
                       AS n_alpha_words,
                   len(regexp_extract_all(lower(text), '{filters.STOP_RE}'))
                       AS n_stop_hits
            FROM documents
        )
        SELECT doc_id, n_words, n_token_chars, n_lines, n_bullet_lines,
               n_ellipsis_lines, n_alpha_words, n_stop_hits,
               (n_words >= {filters.MIN_WORDS} AND n_words <= {filters.MAX_WORDS}
                AND {filters.MIN_MEAN_LEN} * n_words <= n_token_chars
                AND n_token_chars <= {filters.MAX_MEAN_LEN} * n_words
                AND {filters.MAX_BULLET_DEN} * n_bullet_lines
                    <= {filters.MAX_BULLET_NUM} * n_lines
                AND {filters.MAX_ELLIPSIS_DEN} * n_ellipsis_lines
                    <= {filters.MAX_ELLIPSIS_NUM} * n_lines
                AND {filters.MIN_ALPHA_DEN} * n_alpha_words
                    >= {filters.MIN_ALPHA_NUM} * n_words
                AND n_stop_hits >= {filters.MIN_STOP_HITS}) AS keep
        FROM f ORDER BY doc_id
        """,
    )

    # synthetic-PII injection happens IN-FLIGHT with the identical concat
    # expression on both sides (the corpus itself contains no PII, which
    # would make the scrub evidence vacuous)
    reg["pii_scrub_stats"] = (
        lambda sf: filters.pii_scrub_stats(sf, inject=True),
        f"""
        WITH t2 AS (
            SELECT doc_id,
                   text
                   || CASE WHEN doc_id % 7 = 0
                           THEN ' contact user' || doc_id
                                || '@mail.example.com now' ELSE '' END
                   || CASE WHEN doc_id % 11 = 0
                           THEN ' call +1 555-0199 today' ELSE '' END AS text
            FROM documents
        ), r AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '{filters.EMAIL_RE}'))
                       AS n_emails,
                   regexp_replace(text, '{filters.EMAIL_RE}', '<EMAIL>', 'g')
                       AS no_email
            FROM t2
        )
        SELECT doc_id, n_emails,
               len(regexp_extract_all(no_email, '{filters.PHONE_RE}'))
                   AS n_phones,
               length(regexp_replace(no_email, '{filters.PHONE_RE}',
                                     '<PHONE>', 'g')) AS redacted_len,
               (n_emails + len(regexp_extract_all(no_email,
                                                  '{filters.PHONE_RE}'))) > 0
                   AS has_pii
        FROM r ORDER BY doc_id
        """,
    )

    # overlapping-window chunking: pure integer window arithmetic +
    # per-chunk md5 over list_slice — exact both sides
    _stride = filters.CHUNK_TOKENS - filters.CHUNK_OVERLAP
    reg["chunk_documents"] = (
        filters.chunk_documents,
        f"""
        WITH d AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
            FROM documents
        ),
        chunks AS (
            SELECT d.doc_id, g.x AS chunk_idx,
                   g.x * {_stride} AS start_tok,
                   toks[g.x * {_stride} + 1 :
                        g.x * {_stride} + {filters.CHUNK_TOKENS}] AS piece
            FROM d JOIN (SELECT unnest(generate_series(0, 4095)) AS x) g
              ON g.x * {_stride} < len(toks)
        )
        SELECT doc_id, chunk_idx, CAST(start_tok AS BIGINT) AS start_tok,
               CAST(len(piece) AS BIGINT) AS n_tok,
               md5(array_to_string(piece, ' ')) AS chunk_hash
        FROM chunks WHERE len(piece) > 0
        ORDER BY doc_id, chunk_idx
        """,
    )

    # document-level decontamination: the in-flight clone derivation and
    # the md5 fingerprint anti-join replay verbatim in SQL
    reg["eval_decontaminate"] = (
        filters.eval_decontaminate,
        f"""
        WITH base AS (SELECT doc_id, text FROM documents),
        planted AS (
            SELECT doc_id, text FROM base
            UNION ALL
            SELECT doc_id + {filters.CONTAM_CLONE_OFFSET}, text FROM base
            WHERE doc_id % {filters.CONTAM_CLONE_PERIOD} = 0
        ),
        ev AS (
            SELECT DISTINCT md5(lower(text)) AS fp FROM planted
            WHERE doc_id % 10 = 0
        )
        SELECT doc_id,
               md5(lower(text)) IN (SELECT fp FROM ev) AS contaminated
        FROM planted WHERE doc_id % 10 != 0 ORDER BY doc_id
        """,
    )

    # BPE tokenizer training: the full run (wordcount, every pinned pair
    # pick, every rewrite) replays in chained CTEs — see ops/bpe.py
    reg["bpe_train"] = (bpe.bpe_train, bpe.bpe_oracle_sql())
    reg["bpe_token_counts"] = (bpe.bpe_token_counts,
                               bpe.bpe_token_counts_oracle_sql())

    reg["contamination_overlap"] = (
        filters.contamination_overlap,
        f"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tk
            FROM documents
        ), sh8 AS (
            SELECT DISTINCT doc_id, shingle FROM (
                SELECT doc_id,
                       unnest(list_transform(
                           range(1, len(tk) - {filters.CONTAM_K - 2}),
                           i -> array_to_string(
                               tk[i:i+{filters.CONTAM_K - 1}], ' '))) AS shingle
                FROM toks WHERE len(tk) >= {filters.CONTAM_K}
                UNION ALL
                SELECT doc_id, array_to_string(tk, ' ')
                FROM toks
                WHERE len(tk) < {filters.CONTAM_K} AND len(tk) > 0)
        ), bench AS (
            SELECT DISTINCT shingle FROM sh8
            WHERE doc_id % {filters.BENCH_MOD} = 0
        ), nsh AS (
            SELECT doc_id, count(*) AS n FROM sh8
            WHERE doc_id % {filters.BENCH_MOD} <> 0 GROUP BY 1
        ), shared AS (
            SELECT s.doc_id, count(*) AS n_shared
            FROM sh8 s JOIN bench b USING (shingle)
            WHERE s.doc_id % {filters.BENCH_MOD} <> 0 GROUP BY 1
        )
        SELECT d.doc_id, coalesce(nsh.n, 0) AS n_shingles,
               coalesce(sh.n_shared, 0) AS n_shared,
               (coalesce(nsh.n, 0) > 0
                AND {filters.CONTAM_DEN} * coalesce(sh.n_shared, 0)
                    >= {filters.CONTAM_NUM} * coalesce(nsh.n, 0))
                   AS contaminated
        FROM documents d
        LEFT JOIN nsh USING (doc_id) LEFT JOIN shared sh USING (doc_id)
        WHERE d.doc_id % {filters.BENCH_MOD} <> 0 ORDER BY doc_id
        """,
    )

    # chunk=64 character windows as the line unit: the synthetic corpus is
    # single-line, so newline-mode global line counts would all be 1
    # (vacuous); aligned windows of near-duplicate docs DO collide
    reg["line_dedup_stats"] = (
        lambda sf: filters.line_dedup_stats(sf, chunk=64),
        """
        WITH lines AS (
            SELECT doc_id,
                   unnest(list_transform(range((length(text) + 63) // 64),
                          g -> substr(text, g * 64 + 1, 64))) AS line
            FROM documents WHERE length(text) > 0
        ), counts AS (
            SELECT line, count(*) AS c FROM lines GROUP BY 1
        ), per_doc AS (
            SELECT l.doc_id, count(*) AS n_lines,
                   CAST(sum(CASE WHEN c.c >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_dup_lines
            FROM lines l JOIN counts c USING (line) GROUP BY 1
        )
        SELECT d.doc_id, coalesce(p.n_lines, 0) AS n_lines,
               coalesce(p.n_dup_lines, 0) AS n_dup_lines,
               (coalesce(p.n_lines, 0) > 0
                AND 2 * coalesce(p.n_dup_lines, 0) >= coalesce(p.n_lines, 0))
                   AS boilerplate
        FROM documents d LEFT JOIN per_doc p USING (doc_id)
        ORDER BY doc_id
        """,
    )

    reg["repetition_ratios"] = (
        filters.repetition_ratios,
        f"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tk
            FROM documents
        ), g2 AS (
            SELECT doc_id, unnest(list_transform(range(1, len(tk)),
                   i -> tk[i] || ' ' || tk[i+1])) AS g
            FROM toks WHERE len(tk) >= 2
        ), c2 AS (
            SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2
        ), s2 AS (
            SELECT doc_id, CAST(sum(c) AS BIGINT) AS n2,
                   CAST(max(c) AS BIGINT) AS top2
            FROM c2 GROUP BY 1
        ), g3 AS (
            SELECT doc_id, unnest(list_transform(range(1, len(tk) - 1),
                   i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])) AS g
            FROM toks WHERE len(tk) >= 3
        ), c3 AS (
            SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY 1, 2
        ), s3 AS (
            SELECT doc_id, CAST(sum(c) AS BIGINT) AS n3,
                   CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS BIGINT)
                       AS dup3
            FROM c3 GROUP BY 1
        )
        SELECT d.doc_id,
               coalesce(s2.n2, 0) AS n_2grams,
               coalesce(s2.top2, 0) AS top2_count,
               coalesce(s3.n3, 0) AS n_3grams,
               coalesce(s3.dup3, 0) AS dup3_count,
               ({filters.TOP2_DEN} * coalesce(s2.top2, 0)
                    <= {filters.TOP2_NUM} * coalesce(s2.n2, 0)
                AND {filters.DUP3_DEN} * coalesce(s3.dup3, 0)
                    <= {filters.DUP3_NUM} * coalesce(s3.n3, 0)) AS keep
        FROM documents d
        LEFT JOIN s2 USING (doc_id) LEFT JOIN s3 USING (doc_id)
        ORDER BY doc_id
        """,
    )

    # hash·total < min_total·2^64 in HUGEINT — the exact integer form of
    # per-source probability min_total/total_s (Python side uses bigints)
    reg["source_balanced_sample"] = (
        filters.source_balanced_sample,
        """
        WITH dt AS (
            SELECT doc_id, source,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_tokens,
                   ('0x' || substr(md5(text), 1, 16))::UBIGINT AS h
            FROM documents
        ), totals AS (
            SELECT source, CAST(sum(n_tokens) AS BIGINT) AS total
            FROM dt GROUP BY 1
        ), mn AS (SELECT min(total) AS m FROM totals)
        SELECT dt.doc_id, dt.source, dt.n_tokens
        FROM dt JOIN totals USING (source), mn
        WHERE CAST(dt.h AS HUGEINT) * totals.total
              < CAST(mn.m AS HUGEINT) * 18446744073709551616
        ORDER BY doc_id
        """,
    )

    # epoch-weighted mixture: the hash-derived weight ladder and both
    # hash thresholds replay in exact integer arithmetic; full epochs
    # come from a constant-arg generate_series joined on e < ⌊w⌋
    _mix_case = " ".join(
        f"WHEN {i} THEN {w16}"
        for i, w16 in enumerate(filters.MIX_W16_LADDER))
    _mix_max_full = max(filters.MIX_W16_LADDER) // 16
    reg["dataset_mixture"] = (
        filters.dataset_mixture,
        f"""
        WITH d AS (
            SELECT doc_id, source,
                   CASE ('0x' || substr(md5(source), 1, 16))::UBIGINT
                            % {len(filters.MIX_W16_LADDER)}
                        {_mix_case} END AS w16,
                   ('0x' || substr(md5(text), 1, 16))::UBIGINT AS h
            FROM documents
        ), full_ep AS (
            SELECT doc_id, source, s.e AS epoch, w16
            FROM d JOIN (SELECT unnest(generate_series(
                             0, {_mix_max_full - 1})) AS e) s
              ON s.e < w16 // 16
        ), frac_ep AS (
            SELECT doc_id, source, w16 // 16 AS epoch, w16
            FROM d
            WHERE CAST(h AS HUGEINT) * 16
                  < (w16 % 16) * 18446744073709551616
        )
        SELECT doc_id, source, CAST(epoch AS BIGINT) AS epoch,
               CAST(w16 AS BIGINT) AS weight_16
        FROM (SELECT * FROM full_ep UNION ALL SELECT * FROM frac_ep)
        ORDER BY doc_id, epoch
        """,
    )

    # greedy packing is a cumulative scan with reset — a recursive CTE
    # walks each group in doc_id order carrying (accumulator, bin), the
    # exact replay of pack_block's loop; groups are ≤ PACK_GROUP docs so
    # the recursion depth is bounded and tiny
    reg["pack_sequences"] = (
        filters.pack_sequences,
        f"""
        WITH RECURSIVE d AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_tokens,
                   doc_id // {filters.PACK_GROUP} AS grp
            FROM documents
        ), seq AS (
            SELECT doc_id, n_tokens, grp,
                   row_number() OVER (PARTITION BY grp ORDER BY doc_id) AS rn
            FROM d
        ), rec(grp, rn, doc_id, n_tokens, acc, bin) AS (
            SELECT grp, rn, doc_id, n_tokens, n_tokens, 0
            FROM seq WHERE rn = 1
            UNION ALL
            SELECT s.grp, s.rn, s.doc_id, s.n_tokens,
                   CASE WHEN r.acc + s.n_tokens > {filters.PACK_BUDGET}
                        THEN s.n_tokens ELSE r.acc + s.n_tokens END,
                   CASE WHEN r.acc + s.n_tokens > {filters.PACK_BUDGET}
                        THEN r.bin + 1 ELSE r.bin END
            FROM rec r JOIN seq s ON s.grp = r.grp AND s.rn = r.rn + 1
        )
        SELECT doc_id, n_tokens, grp * 1000 + bin AS bin_id
        FROM rec ORDER BY doc_id
        """,
    )

    # cross-doc exact-substring dedup rate (Lee et al.): gram POSITIONS
    # (with multiplicity) whose 8-gram occurs in ≥2 docs; the SQL replays
    # every position via unnest(range) + list-slice grams, so the hash-
    # identity Ray path is checked against the literal gram text
    reg["duplicated_text_share"] = (
        filters.duplicated_text_share,
        f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), pos AS (
            SELECT doc_id, unnest(range(1, len(ts) - {filters.DUP_K} + 2)) AS i,
                   ts
            FROM toks WHERE len(ts) >= {filters.DUP_K}
        ), grams AS (
            SELECT doc_id,
                   array_to_string(ts[i:i+{filters.DUP_K}-1], ' ') AS g
            FROM pos
        ), nd AS (
            SELECT g, count(DISTINCT doc_id) AS ndocs FROM grams GROUP BY g
        ), dup AS (
            SELECT doc_id, CAST(count(*) AS BIGINT) AS dup_grams
            FROM grams JOIN nd USING (g) WHERE ndocs >= 2 GROUP BY doc_id
        ), base AS (
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams
            FROM grams GROUP BY doc_id
        )
        SELECT t.doc_id,
               COALESCE(b.n_grams, 0) AS n_grams,
               COALESCE(d.dup_grams, 0) AS dup_grams,
               (COALESCE(b.n_grams, 0) > 0
                AND {filters.DUP_SHARE_DEN} * COALESCE(d.dup_grams, 0)
                    >= COALESCE(b.n_grams, 0)) AS dup_flag
        FROM toks t
        LEFT JOIN base b USING (doc_id) LEFT JOIN dup d USING (doc_id)
        ORDER BY t.doc_id
        """,
    )

    # exact substring REMOVAL (Lee et al.) — the action duplicated_text_share
    # measures: every cross-doc duplicated DUP_K-gram span is cut from every
    # doc; the oracle rebuilds the kept-token text per doc via a covered-
    # position list (array_to_string over an empty kept list is NULL in
    # DuckDB, hence the COALESCE to '')
    reg["substring_dedup"] = (
        filters.substring_dedup,
        f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), pos AS (
            SELECT doc_id, unnest(range(1, len(ts) - {filters.DUP_K} + 2)) AS i,
                   ts
            FROM toks WHERE len(ts) >= {filters.DUP_K}
        ), grams AS (
            SELECT doc_id, i,
                   array_to_string(ts[i:i+{filters.DUP_K}-1], ' ') AS g
            FROM pos
        ), nd AS (
            SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2
        ), cover AS (
            SELECT DISTINCT doc_id, unnest(range(i, i + {filters.DUP_K})) AS j
            FROM grams JOIN nd USING (g)
        ), cov AS (
            SELECT doc_id, list(j ORDER BY j) AS cj FROM cover GROUP BY doc_id
        )
        SELECT t.doc_id,
               CAST(len(t.ts) AS BIGINT) AS n_tokens,
               CAST(COALESCE(len(c.cj), 0) AS BIGINT) AS n_removed,
               COALESCE(array_to_string(
                   [t.ts[k] FOR k IN range(1, len(t.ts) + 1)
                    IF NOT list_contains(
                        COALESCE(c.cj, CAST([] AS BIGINT[])), k)],
                   ' '), '') AS dedup_text
        FROM toks t LEFT JOIN cov c USING (doc_id)
        ORDER BY t.doc_id
        """,
    )

    # keep-one-copy variant (the deployed Lee-et-al form): the min-doc_id
    # holder of each duplicated gram keeps its span; everyone else loses it
    reg["substring_dedup_keep_one"] = (
        lambda sf: filters.substring_dedup(sf, keep_one=True),
        f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), pos AS (
            SELECT doc_id, unnest(range(1, len(ts) - {filters.DUP_K} + 2)) AS i,
                   ts
            FROM toks WHERE len(ts) >= {filters.DUP_K}
        ), grams AS (
            SELECT doc_id, i,
                   array_to_string(ts[i:i+{filters.DUP_K}-1], ' ') AS g
            FROM pos
        ), nd AS (
            SELECT g, min(doc_id) AS keeper FROM grams GROUP BY g
            HAVING count(DISTINCT doc_id) >= 2
        ), cover AS (
            SELECT DISTINCT gr.doc_id, unnest(range(gr.i, gr.i + {filters.DUP_K})) AS j
            FROM grams gr JOIN nd ON nd.g = gr.g
            WHERE gr.doc_id != nd.keeper
        ), cov AS (
            SELECT doc_id, list(j ORDER BY j) AS cj FROM cover GROUP BY doc_id
        )
        SELECT t.doc_id,
               CAST(len(t.ts) AS BIGINT) AS n_tokens,
               CAST(COALESCE(len(c.cj), 0) AS BIGINT) AS n_removed,
               COALESCE(array_to_string(
                   [t.ts[k] FOR k IN range(1, len(t.ts) + 1)
                    IF NOT list_contains(
                        COALESCE(c.cj, CAST([] AS BIGINT[])), k)],
                   ' '), '') AS dedup_text
        FROM toks t LEFT JOIN cov c USING (doc_id)
        ORDER BY t.doc_id
        """,
    )

    # DSIR importance weights (Xie et al. 2023), fixed-point integer: the
    # oracle recomputes the 64-bucket histogram, the smoothed likelihood-
    # ratio score table, and every doc weight from the same md5 buckets
    reg["dsir_importance_weights"] = (
        filters.dsir_importance_weights,
        f"""
        WITH toks AS (
            SELECT doc_id, lang,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), bg AS (
            SELECT doc_id, lang, ts[i] || ' ' || ts[i+1] AS g
            FROM (SELECT doc_id, lang, unnest(range(1, len(ts))) AS i, ts
                  FROM toks WHERE len(ts) >= 2)
        ), hb AS (
            SELECT doc_id, lang,
                   CAST(('0x' || substr(md5(g), 1, 16))::UBIGINT
                        % {filters.DSIR_BUCKETS} AS BIGINT) AS b
            FROM bg
        ), gl AS (
            SELECT b, CAST(count(*) AS BIGINT) AS raw_c,
                   CAST(count(*) FILTER (
                       WHERE lang = '{filters.DSIR_TARGET_LANG}')
                       AS BIGINT) AS tgt_c
            FROM hb GROUP BY b
        ), tot AS (
            SELECT CAST(sum(raw_c) AS BIGINT) AS R,
                   CAST(sum(tgt_c) AS BIGINT) AS T
            FROM gl
        ), s AS (
            SELECT b, CAST(({filters.DSIR_SCALE}::HUGEINT * (tgt_c + 1)
                            * (R + {filters.DSIR_BUCKETS}))
                           // ((raw_c + 1) * (T + {filters.DSIR_BUCKETS}))
                           AS BIGINT) AS sc
            FROM gl, tot
        ), docw AS (
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(sum(sc) AS BIGINT) AS weight
            FROM hb JOIN s USING (b) GROUP BY doc_id
        )
        SELECT t.doc_id,
               COALESCE(d.n_bigrams, 0) AS n_bigrams,
               COALESCE(d.weight, 0) AS weight,
               (COALESCE(d.weight, 0)
                > {filters.DSIR_SCALE} * COALESCE(d.n_bigrams, 0)) AS kept
        FROM toks t LEFT JOIN docw d USING (doc_id)
        ORDER BY t.doc_id
        """,
    )

    # weekly retention matrix: cohort = first-seen week per user; the
    # shuffle carries distinct (user, week) int pairs only
    reg["retention_cohorts"] = (
        relational.retention_cohorts,
        f"""
        WITH uw AS (
            SELECT DISTINCT user_id,
                   epoch_us(ts) // {relational.WEEK_US} AS week
            FROM events
        ), coh AS (
            SELECT user_id, min(week) AS cohort FROM uw GROUP BY user_id
        )
        SELECT c.cohort, u.week, CAST(count(*) AS BIGINT) AS n_users
        FROM uw u JOIN coh c USING (user_id)
        GROUP BY 1, 2 ORDER BY 1, 2
        """,
    )

    # fixed-point PageRank over the fixture page link graph: ALL integer
    # arithmetic (r // outdeg per edge, BASE + 85·Σ // 100 per node) with a
    # FIXED iteration count, so the whole iterative computation replays
    # bit-exactly in DuckDB as chained CTEs (it1..itN, one per iteration)
    _PAGES_PQ = f"/tmp/dcr_fixtures/sf{_FIXTURE_SCALE}/pages.parquet"
    _pr_ctes = ""
    for _i in range(1, graph.PR_ITERS + 1):
        _pr_ctes += f""", it{_i} AS (
            SELECT n.url,
                   CAST({graph.PR_BASE} + ({graph.PR_DAMP_NUM} *
                        COALESCE(s.insum, 0)) // {graph.PR_DAMP_DEN}
                        AS BIGINT) AS r
            FROM nodes n LEFT JOIN (
                SELECT e.dst AS url, SUM(p.r // e.outdeg) AS insum
                FROM edges e JOIN it{_i - 1} p ON p.url = e.src
                GROUP BY e.dst) s ON s.url = n.url
        )"""
    reg["page_rank"] = (
        lambda sf: graph.page_rank(f"{_fixture_dir()}/pages.parquet"),
        f"""
        WITH nodes AS (
            SELECT url FROM read_parquet('{_PAGES_PQ}')
        ), raw AS (
            SELECT url AS src, unnest(outlinks) AS dst
            FROM read_parquet('{_PAGES_PQ}')
        ), dedges AS (
            SELECT DISTINCT r.src, r.dst
            FROM raw r JOIN nodes n ON n.url = r.dst
            WHERE r.dst <> r.src
        ), edges AS (
            SELECT src, dst,
                   count(*) OVER (PARTITION BY src) AS outdeg
            FROM dedges
        ), it0 AS (
            SELECT url, CAST({graph.PR_SCALE} AS BIGINT) AS r FROM nodes
        ){_pr_ctes}
        SELECT url, r AS rank_scaled FROM it{graph.PR_ITERS} ORDER BY url
        """,
    )

    # fastText-shaped hashed linear classifier: bucket ids are md5-derived
    # (the minhash pact) and b < 2^20 keeps every product in int64, so the
    # whole inference pass replays in SQL. The CTE chain is shared with
    # the filtered_ann_topk oracle below.
    _QC_CTES = f"""
        toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), pos AS (
            SELECT doc_id, unnest(range(1, len(ts))) AS i, ts
            FROM toks WHERE len(ts) >= 2
        ), feat AS (
            SELECT doc_id,
                   CAST(('0x' || substr(md5(ts[i] || ' ' || ts[i+1]), 1, 16))
                        ::UBIGINT % {filters.QC_BUCKETS} AS BIGINT) AS b
            FROM pos
        ), m AS (
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_feats,
                   CAST(sum((b * {filters.QC_MUL} + {filters.QC_ADD})
                            % {filters.QC_MOD} - {filters.QC_CENTER})
                        AS BIGINT) AS margin
            FROM feat GROUP BY doc_id
        )
    """
    reg["quality_classifier_scores"] = (
        filters.quality_classifier_scores,
        f"""
        WITH {_QC_CTES}
        SELECT t.doc_id,
               COALESCE(m.n_feats, 0) AS n_feats,
               COALESCE(m.margin, 0) AS margin,
               COALESCE(m.margin, 0) >= 0 AS keep
        FROM toks t LEFT JOIN m USING (doc_id) ORDER BY t.doc_id
        """,
    )

    # in-link authority features over the same page graph; hosts are
    # split_part(src,'/',3) == Python url.split('/')[2], byte-identical
    reg["page_indegree"] = (
        lambda sf: graph.page_indegree(f"{_fixture_dir()}/pages.parquet"),
        f"""
        WITH nodes AS (
            SELECT url FROM read_parquet('{_PAGES_PQ}')
        ), raw AS (
            SELECT url AS src, unnest(outlinks) AS dst
            FROM read_parquet('{_PAGES_PQ}')
        ), dedges AS (
            SELECT DISTINCT r.src, r.dst
            FROM raw r JOIN nodes n ON n.url = r.dst
            WHERE r.dst <> r.src
        ), agg AS (
            SELECT dst AS url, CAST(count(*) AS BIGINT) AS in_degree,
                   CAST(count(DISTINCT split_part(src, '/', 3)) AS BIGINT)
                       AS n_ref_domains
            FROM dedges GROUP BY dst
        )
        SELECT n.url, COALESCE(a.in_degree, 0) AS in_degree,
               COALESCE(a.n_ref_domains, 0) AS n_ref_domains
        FROM nodes n LEFT JOIN agg a USING (url) ORDER BY n.url
        """,
    )

    # count-min sketch: a CMS cell is a deterministic count aggregate, so
    # the ENTIRE sketch replays in SQL from the same md5 hash family —
    # the suite's only fully-oracle-checked sketch (HLL/MG are rows-only)
    reg["cms_user_counts"] = (
        text.cms_user_counts,
        f"""
        WITH h AS (
            SELECT t.d,
                   CAST(CAST(('0x' || substr(md5(CAST(t.d AS VARCHAR) || ':'
                        || CAST(e.user_id AS VARCHAR)), 1, 16)) AS UBIGINT)
                        % {text.CMS_WIDTH} AS BIGINT) AS w
            FROM events e
            CROSS JOIN (SELECT unnest(range({text.CMS_DEPTH})) AS d) t
        )
        SELECT d, w, CAST(count(*) AS BIGINT) AS n
        FROM h GROUP BY 1, 2 ORDER BY 1, 2
        """,
    )

    # resumable export sink: the op WRITES the shards (workers write in
    # parallel, tmp+rename, manifest commit last); the returned MANIFEST
    # is pure row-identity/content arithmetic → full SQL oracle
    reg["export_corpus"] = (
        export.export_corpus,
        f"""
        SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS BIGINT) % {export.DEFAULT_SHARDS} AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(bit_xor(
                   CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':' ||
                                        md5(text)),
                                        1, 16)) AS UBIGINT)
                   & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
                   AS fingerprint
        FROM documents GROUP BY 1 ORDER BY 1
        """,
    )

    # WebDataset tar sink: ungated, so the manifest oracle is the pure
    # md5-bucket + bit_xor replay over every image row
    reg["export_webdataset"] = (
        lambda sf: __import__(
            "dumb_crawler_ray.sources.webdataset",
            fromlist=["export_webdataset"]).export_webdataset(
                f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT CAST(('0x' || substr(md5(image_id), 1, 8)) AS BIGINT)
                   % {export.DEFAULT_SHARDS} AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(bit_xor(
                   CAST(('0x' || substr(md5(image_id || ':' ||
                                        md5(hex(bytes))),
                                        1, 16)) AS UBIGINT)
                   & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
                   AS fingerprint
        FROM read_parquet('{_IMAGES_PQ}') GROUP BY 1 ORDER BY 1
        """,
    )

    # multimodal release sink: the decode-free gates (size/aspect +
    # caption band) and the md5-bucket + bit_xor manifest all replay in
    # SQL — a fully-oracle-checked BINARY sink manifest
    reg["export_image_shards"] = (
        lambda sf: export.export_image_shards(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        WITH kept AS (
            SELECT image_id, md5(hex(bytes)) AS cdig
            FROM read_parquet('{_IMAGES_PQ}')
            WHERE least(w, h) >= {multimodal.SIZE_MIN_SIDE}
              AND greatest(w, h) * {multimodal.ASPECT_MAX_DEN}
                  <= least(w, h) * {multimodal.ASPECT_MAX_NUM}
              AND len(regexp_extract_all(caption, '[A-Za-z0-9]+'))
                  BETWEEN {multimodal.CAP_MIN_TOKENS}
                      AND {multimodal.CAP_MAX_TOKENS}
              AND {multimodal.CAP_DISTINCT_DEN} * len(list_distinct(
                      regexp_extract_all(lower(caption), '[a-z0-9]+')))
                  >= {multimodal.CAP_DISTINCT_NUM}
                      * len(regexp_extract_all(caption, '[A-Za-z0-9]+'))
        )
        SELECT CAST(('0x' || substr(md5(image_id), 1, 8)) AS BIGINT)
                   % {export.DEFAULT_SHARDS} AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(bit_xor(
                   CAST(('0x' || substr(md5(image_id || ':' || cdig),
                                        1, 16)) AS UBIGINT)
                   & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
                   AS fingerprint
        FROM kept GROUP BY 1 ORDER BY 1
        """,
    )

    # dedup-aware split: cluster members share a split — the recursive
    # transitive-closure reps (jaccard_clusters oracle) + doc_split's md5
    # bucket arithmetic, keyed on COALESCE(rep, doc_id)
    reg["leakage_safe_split"] = (
        text.leakage_safe_split,
        f"""
        WITH RECURSIVE {_NGRAM_PAIRS_CTES},
        edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT r.u AS node, LEAST(r.u, MIN(r.v)) AS rep
            FROM reach r GROUP BY r.u
        ), asg AS (
            SELECT d.doc_id, COALESCE(p.rep, d.doc_id) AS cluster_rep
            FROM documents d LEFT JOIN reps p ON p.node = d.doc_id
        ), bk AS (
            SELECT doc_id, cluster_rep,
                   CAST(('0x' || substr(md5(CAST(cluster_rep AS VARCHAR)),
                                        1, 8)) AS BIGINT) % 100 AS bucket
            FROM asg
        )
        SELECT doc_id, cluster_rep, bucket,
               CASE WHEN bucket < {text.SPLIT_TRAIN_PCT} THEN 'train'
                    WHEN bucket < {text.SPLIT_TRAIN_PCT + text.SPLIT_VAL_PCT}
                        THEN 'val'
                    ELSE 'test' END AS split
        FROM bk ORDER BY doc_id
        """,
    )

    # CCNet-shaped LM quality proxy: per-doc average corpus bigram
    # frequency — BOTH engines group by the md5-64 bigram key, so parity
    # is exact by construction (a collision would replay identically)
    reg["bigram_lm_scores"] = (
        filters.bigram_lm_scores,
        """
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents
        ), pos AS (
            SELECT doc_id, unnest(range(1, len(ts))) AS i, ts
            FROM toks WHERE len(ts) >= 2
        ), bg AS (
            SELECT doc_id,
                   CAST(('0x' || substr(md5(ts[i] || ' ' || ts[i+1]), 1, 16))
                        AS UBIGINT) AS bkey
            FROM pos
        ), dm AS (
            SELECT doc_id, bkey, count(*) AS m FROM bg GROUP BY 1, 2
        ), tot AS (
            SELECT bkey, SUM(m) AS total FROM dm GROUP BY bkey
        ), agg AS (
            SELECT doc_id, CAST(SUM(m * total) AS BIGINT) AS freq_sum,
                   CAST(SUM(m) AS BIGINT) AS n_bigrams
            FROM dm JOIN tot USING (bkey) GROUP BY doc_id
        )
        SELECT d.doc_id,
               COALESCE(a.n_bigrams, 0) AS n_bigrams,
               COALESCE(a.freq_sum, 0) AS freq_sum,
               CASE WHEN COALESCE(a.n_bigrams, 0) = 0 THEN 0
                    ELSE CAST((1000 * a.freq_sum) // a.n_bigrams AS BIGINT)
               END AS lm_score_x1000
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
        """,
    )

    # hybrid retrieval: the ann ranking SQL with neighbors restricted to
    # classifier-passing docs (keep join on vec_id = doc_id); queries are
    # the first n vec_ids UNFILTERED, matching the op
    reg["filtered_ann_topk"] = (
        ann.filtered_ann_topk,
        f"""
        WITH {_QC_CTES}, keep AS (
            SELECT t.doc_id FROM toks t LEFT JOIN m USING (doc_id)
            WHERE COALESCE(m.margin, 0) >= 0
        ), q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings ORDER BY vec_id LIMIT 5
        ), scored AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(e.embedding AS DOUBLE[])) AS raw_sim
            FROM q CROSS JOIN embeddings e
            JOIN keep kp ON kp.doc_id = e.vec_id
            WHERE e.vec_id <> q.query_id
        ), ranked AS (
            SELECT query_id, neighbor_id, raw_sim,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY raw_sim DESC, neighbor_id) AS rank
            FROM scored
        )
        SELECT query_id, rank, neighbor_id, round(raw_sim, 4) AS sim
        FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
        """,
    )

    # deterministic corpus split keyed on ROW IDENTITY (doc_id), so text
    # edits never migrate rows across the split boundary
    reg["doc_split"] = (
        text.doc_split,
        f"""
        WITH b AS (
            SELECT doc_id, source,
                   CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                        ::UBIGINT % 100 AS BIGINT) AS bucket
            FROM documents
        )
        SELECT doc_id, source, bucket,
               CASE WHEN bucket < {text.SPLIT_TRAIN_PCT} THEN 'train'
                    WHEN bucket < {text.SPLIT_TRAIN_PCT + text.SPLIT_VAL_PCT}
                        THEN 'val'
                    ELSE 'test' END AS split
        FROM b ORDER BY doc_id
        """,
    )

    # embedding near-dup LSH — FULL SQL oracle: 1-bit-flip multi-probe ≡
    # "candidate iff hamming(code_x, code_y) ≤ 2", codes replayed from
    # the same 12 seeded hyperplanes (sign(raw·p) == sign(normalized·p)),
    # cosine via list_cosine_similarity rounded like the op. Threshold
    # 0.35 so hundreds of real pairs exercise code+cosine parity (at the
    # production 0.95 default a random table yields only planted copies);
    # plant_copies=8 duplicates vec_id<8 in-flight — identical UNION ALL
    # below (pii_scrub_stats precedent)
    import numpy as _np

    _planes = _np.random.default_rng(99).standard_normal((64, 12))
    _code_sql = " + ".join(
        f"(CASE WHEN list_dot_product(e, [{', '.join(repr(v) for v in _planes[:, j])}]) > 0 THEN {1 << (11 - j)} ELSE 0 END)"
        for j in range(12)
    )
    _EMB_THRESH = 0.35
    reg["embedding_near_dup_pairs"] = (
        lambda sf: dedup.embedding_near_dup_pairs(
            sf, threshold=_EMB_THRESH, plant_copies=8),
        f"""
        WITH base AS (
            SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
        ), planted AS (
            SELECT vec_id, e FROM base
            UNION ALL
            SELECT vec_id + {dedup.PLANT_ID_OFFSET}, e FROM base
            WHERE vec_id < 8
        ), codes AS (
            SELECT vec_id, e, {_code_sql} AS code FROM planted
        )
        SELECT x.vec_id AS a, y.vec_id AS b,
               round(list_cosine_similarity(x.e, y.e), {dedup.SIM_DECIMALS})
                   AS cosine
        FROM codes x JOIN codes y ON x.vec_id < y.vec_id
        WHERE bit_count(xor(x.code, y.code)) <= 2
          AND list_cosine_similarity(x.e, y.e) >= {_EMB_THRESH}
        ORDER BY a, b
        """,
    )

    # --- not SQL-expressible (driver records rows-only checks) ---
    reg["ann_ivf_topk"] = (ann.ann_ivf, None)
    reg["ann_ivfpq_topk"] = (ann.ann_ivfpq_topk, None)

    def _ann_index_search_q(sf):
        import os as _os
        base = _os.path.basename(_os.path.abspath(sf))
        idx = f"/tmp/dcr_ann_index/{base}_c16m8s{export.DEFAULT_SHARDS}"
        ann.ann_index_export(sf, out_dir=idx)  # resumable build/refresh
        return ann.ann_index_search(sf, idx)

    reg["ann_index_search"] = (_ann_index_search_q, None)
    # planted copies + a sub-random-cosine threshold keep the evidence
    # non-vacuous on the random-embedding table (max natural cos ≈ 0.51)
    reg["semantic_dedup"] = (
        lambda sf: ann.semantic_dedup(sf, threshold=0.45, plant_copies=8),
        None,
    )
    reg["embedding_kmeans"] = (ann.embedding_kmeans, None)

    # lang_id: full heuristic recompute in SQL — per-language stopword hit
    # counts over unnested tokens, score = hits::DOUBLE / GREATEST(1, n)
    # (IEEE division, bit-identical to the worker's numpy/python division,
    # so no rounding pact), winner by (score DESC, language ASC) matching
    # the worker's strict-> over sorted profiles; CJK docs short-circuit
    # to zh exactly like the worker's codepoint test.
    _LANG_CTES = """
        ltok AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
            FROM documents
        ), lagg AS (
            SELECT doc_id, count(*) AS n,
                sum(CASE WHEN tok IN ('the','and','of','to','a','in','is',
                                      'it','that','for')
                    THEN 1 ELSE 0 END) AS hits_en,
                sum(CASE WHEN tok IN ('el','la','de','que','y','en','un',
                                      'los','se','por')
                    THEN 1 ELSE 0 END) AS hits_es,
                sum(CASE WHEN tok IN ('der','die','und','das','in','von',
                                      'zu','mit','den','ist')
                    THEN 1 ELSE 0 END) AS hits_de,
                sum(CASE WHEN tok IN ('le','la','de','et','les','des','en',
                                      'un','du','que')
                    THEN 1 ELSE 0 END) AS hits_fr
            FROM ltok GROUP BY doc_id
        ), lscores AS (
            SELECT d.doc_id, d.lang, l.lang_cand,
                   COALESCE(CASE l.lang_cand
                            WHEN 'de' THEN a.hits_de WHEN 'en' THEN a.hits_en
                            WHEN 'es' THEN a.hits_es WHEN 'fr' THEN a.hits_fr
                            END, 0)::DOUBLE
                       / GREATEST(1, COALESCE(a.n, 0)) AS score
            FROM documents d
            LEFT JOIN lagg a USING (doc_id)
            CROSS JOIN (SELECT unnest(['de','en','es','fr']) AS lang_cand) l
            WHERE NOT regexp_matches(d.text, '[一-鿿]')
        ), lpicked AS (
            SELECT doc_id, lang, lang_cand AS lang_pred, score,
                   row_number() OVER (PARTITION BY doc_id
                       ORDER BY score DESC, lang_cand) AS rn
            FROM lscores
        ), lang_result AS (
            SELECT doc_id, lang, lang_pred, score FROM lpicked WHERE rn = 1
            UNION ALL
            SELECT doc_id, lang, 'zh' AS lang_pred, 1.0 AS score
            FROM documents WHERE regexp_matches(text, '[一-鿿]')
        )
    """

    reg["lang_id"] = (
        text.lang_id,
        f"WITH {_LANG_CTES} SELECT doc_id, lang, lang_pred, score "
        "FROM lang_result ORDER BY doc_id",
    )

    # per-language corpus report: doc/token/short counts + EXACT distinct
    # content fingerprints — the lang CTE shared verbatim with lang_id
    reg["corpus_stats"] = (
        text.corpus_stats,
        f"""
        WITH {_LANG_CTES},
        feat AS (
            SELECT d.doc_id, p.lang_pred,
                   len(regexp_extract_all(d.text, '[A-Za-z0-9]+')) AS n_tokens,
                   md5(trim(regexp_replace(lower(d.text), '\\s+', ' ', 'g')))
                       AS fingerprint,
                   CASE WHEN length(d.text) < 100 THEN 1 ELSE 0 END AS is_short
            FROM documents d JOIN lang_result p USING (doc_id)
        )
        SELECT lang_pred, count(*) AS n_docs,
               CAST(sum(n_tokens) AS BIGINT) AS total_tokens,
               CAST(sum(is_short) AS BIGINT) AS n_short,
               count(DISTINCT fingerprint) AS distinct_fingerprints
        FROM feat GROUP BY lang_pred ORDER BY lang_pred
        """,
    )
    # HLL sketches: the register matrix AND the estimator replayed in
    # SQL — base hash md5-64, idx = h >> 52, rho = 65 - bitlength of
    # ((h % 2^52)*4096 + 1); S = Σ 2^(64-reg) in HUGEINT (zeros add 2^64
    # each), inv = CAST(S AS DOUBLE)/2^64 (the one shared rounding),
    # raw = alpha·m²/inv left-assoc like the Python expression, and the
    # small-range branch's ln() matches math.log bit-for-bit (probed
    # over all 4096 args; np.log does NOT — see _HLL's docstring).
    _HLL_REG = """
        h AS (
            SELECT ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
                       ::UBIGINT AS hv {day_col}
            FROM events
        ),
        reg AS (
            SELECT {day_key} (hv >> 52) AS idx,
                   MAX(65 - length(bin((hv % (1::UBIGINT << 52)) * 4096 + 1)))
                       AS rho
            FROM h GROUP BY {day_key} idx
        ),
        agg AS (
            SELECT {day_key}
                   COALESCE(SUM(1::HUGEINT << (64 - rho)), 0::HUGEINT)
                       AS s_present,
                   COUNT(*) AS n_present,
                   COALESCE(MAX(rho), 0) AS max_rho
            FROM reg {day_group}
        ),
        est AS (
            SELECT {day_key} max_rho, (4096 - n_present) AS zeros,
                   (0.7213 / (1 + 1.079 / 4096.0)) * 4096.0 * 4096.0 /
                   (CAST(s_present + (4096 - n_present) *
                         (1::HUGEINT << 64) AS DOUBLE)
                    / 18446744073709551616.0) AS raw
            FROM agg
        )
    """
    reg["approx_distinct_users"] = (
        text.approx_distinct_users,
        f"""
        WITH {_HLL_REG.format(day_col="", day_key="", day_group="")}
        SELECT CAST(floor(CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                               THEN 4096.0 * ln(4096.0 / zeros)
                               ELSE raw END + 0.5) AS BIGINT) AS estimate,
               CAST(zeros AS BIGINT) AS zeros,
               CAST(max_rho AS BIGINT) AS max_rho
        FROM est
        """,
    )
    reg["approx_daily_active_users"] = (
        text.approx_daily_active_users,
        f"""
        WITH {_HLL_REG.format(day_col=", strftime(ts, '%Y-%m-%d') AS day",
                              day_key="day,", day_group="GROUP BY day")}
        SELECT day,
               CAST(floor(CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                               THEN 4096.0 * ln(4096.0 / zeros)
                               ELSE raw END + 0.5) AS BIGINT) AS approx_users
        FROM est ORDER BY day
        """,
    )

    # winnowed fingerprints: full SQL replay of the Rabin-Karp rolling
    # hash (per-character polynomial terms joined to a 257^e mod p powers
    # table, HUGEINT-exact sums), the per-stride minima, and the distinct
    # set — exploded to (doc_id, fp) rows so the value hash sees scalars.
    # EXACT for ASCII corpora (DuckDB ascii() == the utf-8 byte the Python
    # side hashes iff codepoint < 128; the driver tables are pure ASCII).
    _WIN_P = (1 << 61) - 1
    _pow_rows = ", ".join(
        f"({k}, {pow(257, 31 - k, _WIN_P)}::HUGEINT)" for k in range(32)
    )

    def winnowed_fp_rows(sf_dir: str):
        import numpy as np

        ds = text.winnowed_fingerprints(sf_dir)

        def explode(t: pa.Table) -> pa.Table:
            fps = t.column("fingerprints")
            lens = pc.list_value_length(fps).to_numpy(zero_copy_only=False)
            ids = np.repeat(t.column("doc_id").to_numpy(), lens)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "fp": pc.list_flatten(fps)})

        return ds.map_batches(explode, batch_format="pyarrow",
                              **remote_kwargs()).sort(["doc_id", "fp"])

    reg["winnowed_fingerprints"] = (
        winnowed_fp_rows,
        f"""
        WITH chars AS (
            SELECT doc_id, n, pos, ascii(substr(text, pos, 1)) AS code
            FROM (SELECT doc_id, text, length(text) AS n,
                         unnest(range(1, length(text) + 1)) AS pos
                  FROM documents)
        ), powers(k, pw) AS (
            VALUES {_pow_rows}
        ), hashes AS (
            SELECT c.doc_id, c.pos - p.k AS j,
                   CAST(sum(CAST(c.code AS HUGEINT) * p.pw)
                        % {_WIN_P} AS BIGINT) AS h
            FROM chars c JOIN powers p
              ON c.pos - p.k >= 1 AND c.pos - p.k <= c.n - 31
            WHERE c.n >= 32
            GROUP BY 1, 2
        ), short AS (
            SELECT c.doc_id,
                   CAST(sum(CAST(c.code AS HUGEINT) * p.pw)
                        % {_WIN_P} AS BIGINT) AS h
            FROM chars c JOIN powers p ON p.k = 31 - (c.n - c.pos)
            WHERE c.n < 32 AND c.n > 0
            GROUP BY 1
        ), mins AS (
            SELECT doc_id, (j - 1) // 8 AS g, min(h) AS fp
            FROM hashes GROUP BY 1, 2
            UNION ALL
            SELECT doc_id, 0, h FROM short
        )
        SELECT DISTINCT doc_id, fp FROM mins ORDER BY doc_id, fp
        """,
    )
    # decode → per-image pixel stats — FULL oracle (r5): mean/std are
    # stored at fixture build from the decoded source pixels (the
    # stored-pixel pact); w/h/lossy ride the metadata pact proven by
    # image_decode_check
    reg["image_decode_stats"] = (
        image_decode_stats,
        f"""
        SELECT image_id, w, h, mean_pixel, std_pixel,
               fmt = 'jpeg' AS lossy
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # keep-list = connected components over the SAME oracle-green phash
    # pair predicate (hamming ≤ 8 AND ≥1 exact band) — recursive-CTE
    # transitive closure with min-reachable rep, LEFT JOIN so singleton
    # images keep themselves (the jaccard_clusters pattern on the image
    # table)
    reg["image_keeplist"] = (
        image_keeplist_q,
        f"""
        WITH RECURSIVE imgs AS (
            SELECT image_id, phash FROM read_parquet('{_IMAGES_PQ}')
        ), d AS (
            SELECT x.image_id AS a, y.image_id AS b,
                   xor(x.phash, y.phash) AS xo
            FROM imgs x JOIN imgs y ON x.image_id < y.image_id
        ), qpairs AS (
            SELECT a, b FROM d
            WHERE bit_count(xo) <= 8
              AND ((xo & 65535) = 0 OR (xo & 4294901760) = 0
                   OR (xo & 281470681743360) = 0
                   OR (xo & -281474976710656) = 0)
        ), edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT u AS node, LEAST(u, MIN(v)) AS rep FROM reach GROUP BY u
        )
        SELECT i.image_id,
               COALESCE(p.rep, i.image_id) AS cluster_rep,
               COALESCE(p.rep, i.image_id) = i.image_id AS keep
        FROM imgs i LEFT JOIN reps p ON p.node = i.image_id
        ORDER BY i.image_id
        """,
    )
    # per-image quality metrics — FULL oracle via the stored-pixel pact
    # (r5): the fixture stores the metrics computed from the DECODED
    # source pixels at build time (q_* columns, flags from the UNROUNDED
    # values exactly as the worker computes them), and the distributed
    # actor pool must reproduce them from `bytes` alone
    reg["image_quality"] = (
        image_quality_q,
        f"""
        SELECT image_id,
               q_mean_luma AS mean_luma,
               q_rms_contrast AS rms_contrast,
               q_grad_energy AS grad_energy,
               q_low_contrast AS low_contrast,
               q_bad_exposure AS bad_exposure
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # tower-consistency invariant (r5, the image_decode_check pattern
    # over the feature/embedding towers): pixel stats + md5 digests of
    # the 16×16 thumbnail bytes and the per-row fixed-shape embedding
    # float32 bytes, recomputed from decoded pixels, must equal the
    # fixture's build-time columns — a full-strength per-row oracle for
    # tower math no SQL replay can reach (seeded float32 projection)
    reg["image_tower_check"] = (
        lambda sf: multimodal.tower_check(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id, mean_pixel, std_pixel, thumb_digest, emb_digest
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # the r5 fixed-shape-gemm towers (`vecutil.fixed_gemm`) made every
    # embedding bit-identical at any batch size / partitioning, so the
    # whole alignment family graduates from rows-only to FULL stored-pact
    # oracles: the fixture stores exp_clip_score (the exact rounded-4
    # float64 cosine the merge computes) at build time from the decoded
    # source pixels + caption, and the distributed dual-tower pipelines
    # must reproduce it from (bytes, caption) alone
    _caption_ok_sql = f"""
           (len(regexp_extract_all(caption, '[A-Za-z0-9]+'))
                BETWEEN {multimodal.CAP_MIN_TOKENS}
                    AND {multimodal.CAP_MAX_TOKENS}
            AND {multimodal.CAP_DISTINCT_DEN} * len(list_distinct(
                    regexp_extract_all(lower(caption), '[a-z0-9]+')))
                >= {multimodal.CAP_DISTINCT_NUM}
                    * len(regexp_extract_all(caption, '[A-Za-z0-9]+')))"""
    reg["image_caption_alignment"] = (
        lambda sf: multimodal.image_caption_alignment(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id, exp_clip_score AS clip_score,
               exp_clip_score >= {multimodal.CLIP_KEEP_MIN} AS keep
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # full curation decision: cluster keeper = the image_curation
    # recursive-CTE closure, quality = stored-pixel-pact flags,
    # caption = the SQL token rules, alignment = the stored clip pact
    reg["image_curation_full"] = (
        lambda sf: multimodal.image_curation_full(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        WITH RECURSIVE imgs AS (
            SELECT image_id, phash, q_low_contrast, q_bad_exposure,
                   caption, exp_clip_score
            FROM read_parquet('{_IMAGES_PQ}')
        ), d AS (
            SELECT x.image_id AS a, y.image_id AS b,
                   xor(x.phash, y.phash) AS xo
            FROM imgs x JOIN imgs y ON x.image_id < y.image_id
        ), qpairs AS (
            SELECT a, b FROM d
            WHERE bit_count(xo) <= 8
              AND ((xo & 65535) = 0 OR (xo & 4294901760) = 0
                   OR (xo & 281470681743360) = 0
                   OR (xo & -281474976710656) = 0)
        ), edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT u AS node, LEAST(u, MIN(v)) AS rep FROM reach GROUP BY u
        )
        SELECT i.image_id,
               COALESCE(p.rep, i.image_id) = i.image_id
                   AS is_cluster_keeper,
               NOT i.q_low_contrast AND NOT i.q_bad_exposure AS quality_ok,
               {_caption_ok_sql} AS caption_ok,
               i.exp_clip_score >= {multimodal.CLIP_KEEP_MIN}
                   AS alignment_ok,
               i.exp_clip_score AS clip_score,
               (COALESCE(p.rep, i.image_id) = i.image_id
                AND NOT i.q_low_contrast AND NOT i.q_bad_exposure
                AND {_caption_ok_sql}
                AND i.exp_clip_score >= {multimodal.CLIP_KEEP_MIN}) AS keep
        FROM imgs i LEFT JOIN reps p ON p.node = i.image_id
        ORDER BY i.image_id
        """,
    )
    # cross-modal brute-force top-k: stored-answer pact (the media-family
    # pattern) — the fixture replays the exact fixed_sims arithmetic at
    # build time into topk.parquet; the oracle just reads it back
    _TOPK_PQ = f"/tmp/dcr_fixtures/sf{_FIXTURE_SCALE}/topk.parquet"
    reg["image_ann_topk"] = (
        image_ann_topk_q,
        f"""
        SELECT query_id, rank, neighbor_id, sim
        FROM read_parquet('{_TOPK_PQ}') WHERE op = 'image_ann'
        ORDER BY query_id, rank
        """,
    )
    # composite curation decision — FULL oracle (r5): the keep-list side
    # is the image_keeplist recursive-CTE closure, the quality side is
    # the stored-pixel-pact flags; keep = conjunction of both
    reg["image_curation"] = (
        image_curation_q,
        f"""
        WITH RECURSIVE imgs AS (
            SELECT image_id, phash, q_low_contrast, q_bad_exposure
            FROM read_parquet('{_IMAGES_PQ}')
        ), d AS (
            SELECT x.image_id AS a, y.image_id AS b,
                   xor(x.phash, y.phash) AS xo
            FROM imgs x JOIN imgs y ON x.image_id < y.image_id
        ), qpairs AS (
            SELECT a, b FROM d
            WHERE bit_count(xo) <= 8
              AND ((xo & 65535) = 0 OR (xo & 4294901760) = 0
                   OR (xo & 281470681743360) = 0
                   OR (xo & -281474976710656) = 0)
        ), edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT u AS node, LEAST(u, MIN(v)) AS rep FROM reach GROUP BY u
        )
        SELECT i.image_id,
               COALESCE(p.rep, i.image_id) AS cluster_rep,
               COALESCE(p.rep, i.image_id) = i.image_id
                   AS is_cluster_keeper,
               NOT i.q_low_contrast AND NOT i.q_bad_exposure AS quality_ok,
               (COALESCE(p.rep, i.image_id) = i.image_id
                AND NOT i.q_low_contrast AND NOT i.q_bad_exposure) AS keep
        FROM imgs i LEFT JOIN reps p ON p.node = i.image_id
        ORDER BY i.image_id
        """,
    )
    # resize → 16×16 PNG re-encode — FULL oracle (r5): the fixture stores
    # the encoded thumbnail's byte length computed from the decoded
    # source pixels at build time (thumb_png_bytes)
    reg["image_resize_meta"] = (
        image_resize_meta,
        f"""
        SELECT image_id,
               CAST(16 AS INT) AS w, CAST(16 AS INT) AS h,
               thumb_png_bytes AS n_bytes
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    reg["image_semantic_dedup"] = (
        lambda sf: multimodal.image_semantic_dedup(
            f"{_fixture_dir()}/images.parquet"), None)
    reg["caption_to_image_topk"] = (
        lambda sf: multimodal.caption_to_image_topk(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT query_id, rank, neighbor_id, sim
        FROM read_parquet('{_TOPK_PQ}') WHERE op = 'caption_to_image'
        ORDER BY query_id, rank
        """,
    )
    # bucketed resize — FULL oracle (r5): the registry wrapper presents
    # the re-encoded payload as (n_bytes, md5 digest) and the fixture
    # stores the expected bucket decision + encoded-thumbnail digest
    # computed from the decoded source pixels at build time, so the
    # decode→bucket→resize→re-encode PIXELS themselves are checked
    def _resize_bucket_meta(t: pa.Table) -> pa.Table:
        import hashlib

        return pa.table(
            {"image_id": t.column("image_id"),
             "bucket_id": t.column("bucket_id"),
             "target_w": t.column("target_w"),
             "target_h": t.column("target_h"),
             "n_bytes": t.column("n_bytes"),
             "digest": pa.array(
                 [hashlib.md5(d).hexdigest()
                  for d in t.column("bytes").to_pylist()], pa.string())})

    reg["image_resize_to_bucket"] = (
        lambda sf: multimodal.image_resize_to_bucket(
            f"{_fixture_dir()}/images.parquet"
        ).map_batches(_resize_bucket_meta, batch_format="pyarrow",
                      **remote_kwargs()),
        f"""
        SELECT image_id, exp_bucket_id AS bucket_id,
               exp_target_w AS target_w, exp_target_h AS target_h,
               exp_bucket_png_bytes AS n_bytes,
               exp_bucket_digest AS digest
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # LAION-style metadata pre-gate: pure integer (w, h) arithmetic →
    # fully SQL-checked over the fixture glob
    reg["image_size_filter"] = (
        lambda sf: multimodal.image_size_filter(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        SELECT image_id,
               CAST(w AS BIGINT) AS w,
               CAST(h AS BIGINT) AS h,
               CAST(least(w, h) AS BIGINT) AS min_side,
               least(w, h) < {multimodal.SIZE_MIN_SIDE} AS too_small,
               greatest(w, h) * {multimodal.ASPECT_MAX_DEN}
                   > least(w, h) * {multimodal.ASPECT_MAX_NUM} AS bad_aspect,
               NOT (least(w, h) < {multimodal.SIZE_MIN_SIDE}
                    OR greatest(w, h) * {multimodal.ASPECT_MAX_DEN}
                       > least(w, h) * {multimodal.ASPECT_MAX_NUM}) AS keep
        FROM read_parquet('{_IMAGES_PQ}')
        ORDER BY image_id
        """,
    )
    _ladder_vals = ", ".join(
        f"({b}, {tw}, {th}, {rw}, {rh}, {multimodal._ASPECT_D // rh})"
        for b, tw, th, rw, rh in multimodal.ASPECT_LADDER)
    reg["image_aspect_buckets"] = (
        lambda sf: multimodal.image_aspect_buckets(
            f"{_fixture_dir()}/images.parquet"),
        f"""
        WITH imgs AS (
            SELECT image_id, w::BIGINT AS w, h::BIGINT AS h
            FROM read_parquet('{_IMAGES_PQ}')
        ), ladder(bucket_id, target_w, target_h, rw, rh, wt) AS (
            SELECT * FROM (VALUES {_ladder_vals})
        ), scored AS (
            SELECT i.image_id, i.w, i.h,
                   l.bucket_id::BIGINT AS bucket_id,
                   l.target_w::BIGINT AS target_w,
                   l.target_h::BIGINT AS target_h,
                   abs(i.w * l.rh - i.h * l.rw) * l.wt AS score
            FROM imgs i CROSS JOIN ladder l
        )
        SELECT image_id, w, h, bucket_id, target_w, target_h
        FROM scored
        QUALIFY row_number() OVER (
            PARTITION BY image_id ORDER BY score, bucket_id) = 1
        ORDER BY image_id
        """,
    )
    # fused feature extraction — FULL oracle (r5): every output column
    # is a stored-pixel-pact column (w/h/phash metadata, mean/std from
    # build-time decode) except thumb_bytes, which the 16×16×3 thumbnail
    # contract fixes at 768 for every image
    reg["image_features"] = (
        image_features_q,
        f"""
        SELECT image_id, w, h, mean_pixel, std_pixel, phash,
               CAST(768 AS BIGINT) AS thumb_bytes
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # FULL oracle (r5): the fixed-shape-gemm tower made the BATCHED
    # production embedding bit-identical to the build-time embed at any
    # batch size / partitioning, so the stored per-row digest pact
    # (previously only reachable by image_tower_check's recompute)
    # attests the embedding table itself
    reg["image_embeddings"] = (
        image_embeddings_q,
        f"""
        SELECT image_id, CAST({multimodal.CAP_EMB_DIM} AS BIGINT) AS dim,
               emb_digest
        FROM read_parquet('{_IMAGES_PQ}') ORDER BY image_id
        """,
    )
    # media family — FULL oracles (r5) via the stored-pixel pact's media
    # analogue: the fixture stores the expected per-clip outputs computed
    # from the encoded bytes at build time (the actual workers replayed
    # on the generated table — bit-identical by construction), and the
    # distributed actor pools must reproduce them from `bytes` alone.
    # Variable-rows-per-clip ops (VAD segments, frame samples) store
    # LIST columns that the oracle zip-unnests.
    _AUDIO_PQ = "/tmp/dcr_fixtures/media/audio.parquet"
    _VIDEO_PQ = "/tmp/dcr_fixtures/media/video.parquet"
    reg["audio_features"] = (
        audio_features_q,
        f"""
        SELECT audio_id, exp_rms AS rms,
               exp_zcr AS zero_crossing_rate, exp_peak AS peak,
               exp_centroid_hz AS spectral_centroid_hz,
               exp_duration_s AS duration_s
        FROM read_parquet('{_AUDIO_PQ}') ORDER BY audio_id
        """,
    )
    reg["video_frame_sample"] = (
        video_frame_sample_q,
        f"""
        SELECT video_id, unnest(exp_frame_idx) AS frame_idx, w, h,
               unnest(exp_frame_means) AS mean_pixel
        FROM read_parquet('{_VIDEO_PQ}') ORDER BY video_id, frame_idx
        """,
    )
    reg["audio_vad_segments"] = (
        lambda sf: media.audio_vad_segments(
            f"{_media_dir()}/audio.parquet"),
        f"""
        SELECT audio_id, unnest(exp_vad_seg_idx) AS seg_idx,
               unnest(exp_vad_start_s) AS start_s,
               unnest(exp_vad_end_s) AS end_s,
               unnest(exp_vad_n_frames) AS n_frames,
               unnest(exp_vad_mean_rms) AS mean_rms
        FROM read_parquet('{_AUDIO_PQ}') ORDER BY audio_id, seg_idx
        """,
    )
    reg["video_scene_cuts"] = (
        lambda sf: media.video_scene_cuts(
            f"{_media_dir()}/video.parquet"),
        f"""
        SELECT video_id, exp_n_cuts AS n_cuts,
               exp_first_cut_idx AS first_cut_idx,
               exp_max_frame_diff AS max_frame_diff
        FROM read_parquet('{_VIDEO_PQ}') ORDER BY video_id
        """,
    )
    _crawl_sqls = _crawl_oracle_sqls()
    reg["crawl_order"] = (crawl_order, _crawl_sqls["crawl_order"])
    reg["crawl_seen_set"] = (crawl_seen_set, _crawl_sqls["crawl_seen_set"])
    reg["crawl_counters"] = (crawl_counters, _crawl_sqls["crawl_counters"])
    reg["crawl_lineage"] = (crawl_lineage, None)
    reg["crawl_lineage_counts"] = (crawl_lineage_counts,
                                   _crawl_sqls["crawl_lineage_counts"])
    reg["crawl_domain_stats"] = (crawl_domain_stats,
                                 _crawl_sqls["crawl_domain_stats"])
    reg["crawl_politeness_check"] = (crawl_politeness_check,
                                     _crawl_sqls["crawl_politeness_check"])
    reg["curated_corpus"] = (curated_corpus, _crawl_sqls["curated_corpus"])
    reg["corpus_release"] = (corpus_release_q,
                             _crawl_sqls["corpus_release"])
    reg["compact_pages"] = (
        lambda sf: export.compact_pages(
            _crawl_result().ckpt_dir,
            out_dir="/tmp/dcr_compact/crawl_fixture_s16"),
        _crawl_sqls["compact_pages"])
    # image-side flagship last mile — FULL oracle (r5): the gating
    # decision is image_curation_full's, now SQL-reachable end to end
    # (recursive-CTE phash keeper ∧ stored quality flags ∧ caption token
    # rules ∧ the stored clip-score pact), and the manifest is the shared
    # md5-bucket + bit_xor replay every release sink uses
    reg["curated_image_release"] = (
        lambda sf: export.curated_image_release(
            f"{_fixture_dir()}/images.parquet",
            out_dir="/tmp/dcr_release/curated_images_fixture_s16"),
        f"""
        WITH RECURSIVE imgs AS (
            SELECT image_id, phash, q_low_contrast, q_bad_exposure,
                   caption, exp_clip_score, bytes
            FROM read_parquet('{_IMAGES_PQ}')
        ), d AS (
            SELECT x.image_id AS a, y.image_id AS b,
                   xor(x.phash, y.phash) AS xo
            FROM imgs x JOIN imgs y ON x.image_id < y.image_id
        ), qpairs AS (
            SELECT a, b FROM d
            WHERE bit_count(xo) <= 8
              AND ((xo & 65535) = 0 OR (xo & 4294901760) = 0
                   OR (xo & 281470681743360) = 0
                   OR (xo & -281474976710656) = 0)
        ), edges AS (
            SELECT a AS u, b AS v FROM qpairs
            UNION ALL SELECT b, a FROM qpairs
        ), reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        ), reps AS (
            SELECT u AS node, LEAST(u, MIN(v)) AS rep FROM reach GROUP BY u
        ), kept AS (
            SELECT i.image_id, md5(hex(i.bytes)) AS cdig
            FROM imgs i LEFT JOIN reps p ON p.node = i.image_id
            WHERE COALESCE(p.rep, i.image_id) = i.image_id
              AND NOT i.q_low_contrast AND NOT i.q_bad_exposure
              AND {_caption_ok_sql.replace('caption', 'i.caption')}
              AND i.exp_clip_score >= {multimodal.CLIP_KEEP_MIN}
        )
        SELECT CAST(('0x' || substr(md5(image_id), 1, 8)) AS BIGINT)
                   % {export.DEFAULT_SHARDS} AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(bit_xor(
                   CAST(('0x' || substr(md5(image_id || ':' || cdig),
                                        1, 16)) AS UBIGINT)
                   & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
                   AS fingerprint
        FROM kept GROUP BY 1 ORDER BY 1
        """,
    )

    # X96 — the fused text-corpus curation decision (the documents-table
    # analogue of image_curation_full): gopher pass ∧ exact-dedup keeper
    # ∧ MinHash-cluster keeper ∧ not benchmark-contaminated ∧ not a
    # benchmark doc, all met in ONE keyed co-location on doc_id. The
    # oracle composes the four verdicts' existing CTE machinery: the
    # gopher predicate, a window-min fingerprint election, the recursive
    # MinHash closure, and the contamination chain.
    _DOC_CURATION_FLAGS_CTES = f"""{_MINHASH_PAIRS_CTES},
        mh_edges AS (
            SELECT a AS u, b AS v FROM mh_pairs
            UNION ALL SELECT b, a FROM mh_pairs
        ), mh_reach(u, v) AS (
            SELECT u, v FROM mh_edges
            UNION
            SELECT r.u, e.v FROM mh_reach r JOIN mh_edges e ON r.v = e.u
        ), mh_reps AS (
            SELECT r.u AS node, LEAST(r.u, MIN(r.v)) AS rep
            FROM mh_reach r GROUP BY r.u
        ), gf AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n_words,
                   length(regexp_replace(text, '[^A-Za-z0-9]', '', 'g'))
                       AS n_token_chars,
                   length(text) - length(replace(text, chr(10), '')) + 1
                       AS n_lines,
                   len(regexp_extract_all(text, '{filters.BULLET_RE}'))
                       AS n_bullet_lines,
                   len(regexp_extract_all(text, '{filters.ELLIPSIS_RE}'))
                       AS n_ellipsis_lines,
                   len(regexp_extract_all(text, '[A-Za-z0-9]+'))
                     - len(regexp_extract_all(text, '{filters.NUMERIC_WORD_RE}'))
                       AS n_alpha_words,
                   len(regexp_extract_all(lower(text), '{filters.STOP_RE}'))
                       AS n_stop_hits
            FROM documents
        ), gk AS (
            SELECT doc_id,
                   (n_words >= {filters.MIN_WORDS} AND n_words <= {filters.MAX_WORDS}
                    AND {filters.MIN_MEAN_LEN} * n_words <= n_token_chars
                    AND n_token_chars <= {filters.MAX_MEAN_LEN} * n_words
                    AND {filters.MAX_BULLET_DEN} * n_bullet_lines
                        <= {filters.MAX_BULLET_NUM} * n_lines
                    AND {filters.MAX_ELLIPSIS_DEN} * n_ellipsis_lines
                        <= {filters.MAX_ELLIPSIS_NUM} * n_lines
                    AND {filters.MIN_ALPHA_DEN} * n_alpha_words
                        >= {filters.MIN_ALPHA_NUM} * n_words
                    AND n_stop_hits >= {filters.MIN_STOP_HITS}) AS gopher_ok
            FROM gf
        ), ek AS (
            SELECT doc_id,
                   doc_id = min(doc_id) OVER (
                       PARTITION BY md5(trim(regexp_replace(lower(text),
                                                            '\\s+', ' ', 'g')))
                   ) AS is_exact_keeper
            FROM documents
        ), ct_toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tk
            FROM documents
        ), ct_sh AS (
            SELECT DISTINCT doc_id, shingle FROM (
                SELECT doc_id,
                       unnest(list_transform(
                           range(1, len(tk) - {filters.CONTAM_K - 2}),
                           i -> array_to_string(
                               tk[i:i+{filters.CONTAM_K - 1}], ' '))) AS shingle
                FROM ct_toks WHERE len(tk) >= {filters.CONTAM_K}
                UNION ALL
                SELECT doc_id, array_to_string(tk, ' ')
                FROM ct_toks
                WHERE len(tk) < {filters.CONTAM_K} AND len(tk) > 0)
        ), ct_bench AS (
            SELECT DISTINCT shingle FROM ct_sh
            WHERE doc_id % {filters.BENCH_MOD} = 0
        ), ct_nsh AS (
            SELECT doc_id, count(*) AS n FROM ct_sh
            WHERE doc_id % {filters.BENCH_MOD} <> 0 GROUP BY 1
        ), ct_shared AS (
            SELECT s.doc_id, count(*) AS n_shared
            FROM ct_sh s JOIN ct_bench b USING (shingle)
            WHERE s.doc_id % {filters.BENCH_MOD} <> 0 GROUP BY 1
        ), flags AS (
            SELECT d.doc_id, gk.gopher_ok, ek.is_exact_keeper,
                   COALESCE(p.node = p.rep, TRUE) AS is_cluster_keeper,
                   (d.doc_id % {filters.BENCH_MOD} <> 0
                    AND coalesce(ct_nsh.n, 0) > 0
                    AND {filters.CONTAM_DEN} * coalesce(ct_shared.n_shared, 0)
                        >= {filters.CONTAM_NUM} * coalesce(ct_nsh.n, 0))
                       AS contaminated,
                   d.doc_id % {filters.BENCH_MOD} = 0 AS is_bench
            FROM documents d
            JOIN gk USING (doc_id)
            JOIN ek USING (doc_id)
            LEFT JOIN mh_reps p ON p.node = d.doc_id
            LEFT JOIN ct_nsh ON ct_nsh.doc_id = d.doc_id
            LEFT JOIN ct_shared ON ct_shared.doc_id = d.doc_id
        )"""

    reg["doc_curation_full"] = (
        filters.doc_curation_full,
        f"""
        WITH RECURSIVE {_DOC_CURATION_FLAGS_CTES}
        SELECT doc_id, gopher_ok, is_exact_keeper, is_cluster_keeper,
               contaminated, is_bench,
               (gopher_ok AND is_exact_keeper AND is_cluster_keeper
                AND NOT contaminated AND NOT is_bench) AS keep
        FROM flags ORDER BY doc_id
        """,
    )

    # X97 — the text-side staged-curation release sink: X96's keep
    # decision gates the documents table, keepers land as resumable
    # shards; the oracle is the same flags chain + the shared
    # md5-bucket + bit_xor manifest replay
    reg["curated_doc_release"] = (
        lambda sf: export.curated_doc_release(sf),
        f"""
        WITH RECURSIVE {_DOC_CURATION_FLAGS_CTES},
        kept AS (
            SELECT f.doc_id, md5(d.text) AS cdig
            FROM flags f JOIN documents d USING (doc_id)
            WHERE f.gopher_ok AND f.is_exact_keeper AND f.is_cluster_keeper
              AND NOT f.contaminated AND NOT f.is_bench
        )
        SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS BIGINT) % {export.DEFAULT_SHARDS} AS shard,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(bit_xor(
                   CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':'
                                        || cdig),
                                        1, 16)) AS UBIGINT)
                   & CAST(9223372036854775807 AS UBIGINT)) AS BIGINT)
                   AS fingerprint
        FROM kept GROUP BY 1 ORDER BY 1
        """,
    )

    # The round driver attests exactly the first 50 registry entries against
    # their DuckDB oracles (CORRECTNESS_r*.json), so order matters: slots 1-50
    # carry the crawl flagship views and every oracled query that has not yet
    # earned a green driver row (rounds 1-4 history), then once/twice-attested
    # oracled queries. Queries already driver-verified in multiple rounds and
    # every rows-only (sql=None) entry sit past slot 50 so they never burn an
    # attestation slot. Entries missing from this list (future additions) keep
    # insertion order within their tier: oracled first, rows-only last.
    _window_first = [
        "crawl_order", "crawl_seen_set", "crawl_counters",
        "crawl_politeness_check", "crawl_lineage_counts", "crawl_domain_stats",
        "curated_corpus", "corpus_release",
        "pack_sequences", "duplicated_text_share", "retention_cohorts",
        "page_rank", "quality_classifier_scores", "page_indegree",
        "cms_user_counts", "export_corpus", "export_webdataset",
        "export_image_shards", "leakage_safe_split", "bigram_lm_scores",
        "filtered_ann_topk", "doc_split", "embedding_near_dup_pairs",
        "lang_id", "corpus_stats", "approx_distinct_users",
        # approx_daily_active_users shares the HLL sketch machinery with
        # approx_distinct_users (in the window) — demoted past slot 50
        "winnowed_fingerprints",
        "image_keeplist", "image_size_filter", "image_aspect_buckets",
        # the seven r5 fixed-gemm / symbolic-replay graduates (never
        # driver-checked) displace seven entries already driver-green in
        # r1-r4 (image_decode_check, source_balanced_sample,
        # dataset_mixture, image_phash_near_dups, image_caption_stats,
        # image_exact_dedup, image_shard_pack)
        "image_embeddings", "image_caption_alignment", "image_curation_full",
        "image_ann_topk", "caption_to_image_topk", "curated_image_release",
        "compact_pages", "image_curation",
        # never-driver-attested r5 additions displace eleven r4-green
        # fillers (gopher_quality_flags, pii_scrub_stats, chunk_documents,
        # eval_decontaminate, bpe_train, jaccard_clusters, bm25_topk,
        # simhash_signatures, simhash_near_dup_pairs,
        # minhash_near_dup_pairs, near_dup_clusters — all driver-PASS
        # in r4)
        "image_quality", "image_tower_check",
        "audio_features", "audio_vad_segments",
        "video_frame_sample", "video_scene_cuts",
        "image_aesthetic_scores",  # r4's only no_oracle row, now oracled
        # the X92–X96 corpus additions (never driver-attested) displace
        # four stored-pact metadata views whose shared decode-pact
        # machinery is already attested via image_quality /
        # image_tower_check / image_decode_check (r4 driver-PASS):
        # image_decode_stats, image_features, image_resize_meta,
        # image_resize_to_bucket
        "substring_dedup", "substring_dedup_keep_one",
        "dsir_importance_weights", "source_overlap_matrix",
        "doc_curation_full",
    ]
    head = [k for k in _window_first if k in reg]
    seen = set(head)
    head += [k for k in reg if k not in seen and reg[k][1] is not None]
    seen.update(head)
    head += [k for k in reg if k not in seen]
    return {k: reg[k] for k in head}
