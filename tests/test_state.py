import numpy as np
import pyarrow as pa
import pytest

from dumb_crawler_ray.pipelines import semantics as S
from dumb_crawler_ray.rayutil import from_ipc, to_ipc
from dumb_crawler_ray.state.bloom import BloomFilter
from dumb_crawler_ray.state.cuckoo import CuckooFilter
from dumb_crawler_ray.state.frontier import (R_STATUS, UPDATE_COLUMNS,
                                             FrontierShardState,
                                             candidate_table, shard_of_batch)


def _hashes(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)


def test_bloom_no_false_negatives_and_low_fpp():
    b = BloomFilter(capacity=10_000, fpp=0.01)
    ins = _hashes(10_000, 1)
    b.add_many(ins)
    assert b.contains_many(ins).all()
    other = _hashes(10_000, 2)
    fresh = other[~np.isin(other, ins)]
    fpp = b.contains_many(fresh).mean()
    assert fpp < 0.03


def test_bloom_snapshot_roundtrip():
    """The driver bloom is not checkpointed: a resume rebuilds it from the
    shards' record_hash64() arrays. The rebuilt filter answers every
    inserted key and is bit-identical to the live one."""
    rows = _rows([(f"https://a/{i}", f"h{i}", "a", 1) for i in range(500)])
    st = FrontierShardState(0, respect_robots=False)
    st.insert_candidates(rows)
    live = BloomFilter(capacity=1000)
    live.add_many(rows.column("hash64").to_numpy())
    rebuilt = BloomFilter(capacity=1000)
    rebuilt.add_many(st.record_hash64())
    assert rebuilt.contains_many(st.record_hash64()).all()
    assert rebuilt.n_bits == live.n_bits and rebuilt.k == live.k
    assert np.array_equal(rebuilt.words, live.words)


def test_cuckoo_membership_and_snapshot():
    c = CuckooFilter(capacity=5000)
    ins = _hashes(4000, 4)
    c.add_many(ins)
    assert c.contains_many(ins).all()  # no false negatives (stash backstop)
    other = _hashes(4000, 5)
    fresh = other[~np.isin(other, ins)]
    assert c.contains_many(fresh).mean() < 0.02


def _rows(items):
    return candidate_table([u for u, *_ in items], [h for _, h, *_ in items],
                           [d for _, _, d, *_ in items],
                           [["t"]] * len(items), [p for *_, p in items],
                           1, frozenset())


def test_frontier_shard_insert_select_complete():
    st = FrontierShardState(0, respect_robots=False)
    d = st.insert_candidates(_rows([
        ("https://a/1", "h1", "a", 5),
        ("https://a/2", "h2", "a", 9),
        ("https://b/3", "h3", "b", 9),
        ("https://a/1", "h1", "a", 5),  # dup → dropped
    ]))
    assert d["discovered"] == 3
    # pinned order: priority DESC, attempt ASC, url_hash ASC
    sel = st.select_candidates(k=10, per_domain_cap=0, max_attempt=3)
    assert sel["url_hash"].to_pylist() == ["h2", "h3", "h1"]
    # per-domain cap: only one `a` in the first pass
    sel2 = st.select_candidates(k=10, per_domain_cap=1, max_attempt=3)
    assert sel2["url_hash"].to_pylist() == ["h2", "h3"]
    st.mark_selected(["h2"])
    sel3 = st.select_candidates(k=10, per_domain_cap=0, max_attempt=3)
    assert sel3["url_hash"].to_pylist() == ["h3", "h1"]  # h2 now PROCESSING
    st.complete({"url_hash": ["h2"], "status": [S.PROCESSED], "error": [None],
                 "tags": [["x"]], "attempt": [1]})
    assert st.seen_entries()["h2"] == (S.PROCESSED, 1, None, "x", 9)


def test_frontier_orphan_requeue_and_snapshot():
    """requeue_orphans (the last step of restore_from_ckpt; reference
    URLStore.java:54-58): a PROCESSING orphan goes back to QUEUED and is
    selectable again."""
    st = FrontierShardState(0, respect_robots=False)
    st.insert_candidates(_rows([("https://a/1", "h1", "a", 5),
                                ("https://a/2", "h2", "a", 4)]))
    st.mark_selected(["h1"])
    # PROCESSING rows are not selectable (their heap entry is dropped)
    assert st.select_candidates(k=5, per_domain_cap=0,
                                max_attempt=3)["url_hash"].to_pylist() == ["h2"]
    assert st.requeue_orphans() == 1
    assert st.seen_entries()["h1"][0] == S.QUEUED
    sel = st.select_candidates(k=5, per_domain_cap=0, max_attempt=3)
    assert sel["url_hash"].to_pylist() == ["h1", "h2"]
    assert st.requeue_orphans() == 0  # nothing left PROCESSING


def test_frontier_max_attempt_filter():
    st = FrontierShardState(0, respect_robots=False)
    st.insert_candidates(_rows([("https://a/1", "h1", "a", 5)]))
    st.mark_selected(["h1"])
    st.complete({"url_hash": ["h1"], "status": [S.QUEUED], "error": [None],
                 "tags": [["t"]], "attempt": [3]})
    # re-queued with attempt=3: selection must skip it at max_attempt=3
    st.requeue_orphans()  # no-op; push fresh heap entry for QUEUED row
    import heapq

    heapq.heappush(st.heap, (-5, 3, "h1"))
    sel = st.select_candidates(k=5, per_domain_cap=0, max_attempt=3)
    assert sel["url_hash"].to_pylist() == []


def test_compact_terminal_mode_equivalence():
    """compact_terminal (production scale): PROCESSED/FAILED rows demote
    to packed status+attempt. Dedup membership, status totals, counters
    and selection behavior stay identical to full mode; the full-row dict
    stops growing with crawl history."""
    items = [(f"https://a/{i}", f"h{i}", "a", 5) for i in range(6)]
    full = FrontierShardState(0, respect_robots=False)
    comp = FrontierShardState(0, respect_robots=False, compact_terminal=True)
    deltas = []
    for st in (full, comp):
        deltas.append(st.insert_candidates(_rows(items)))
        st.mark_selected(["h0", "h1", "h2"])
        st.complete({"url_hash": ["h0", "h1", "h2"],
                     "status": [S.PROCESSED, S.FAILED, S.PROCESSED],
                     "error": [None, "X", None],
                     "tags": [["t"], [], ["t"]],
                     "attempt": [1, 2, 1]})
    assert comp.status_counts() == full.status_counts()
    assert deltas[0] == deltas[1]
    # terminal rows left the full-row dict but stay members for dedup
    assert set(comp.records) == {"h3", "h4", "h5"}
    assert comp.terminal == {"h0": (S.PROCESSED << 32) | 1,
                             "h1": (S.FAILED << 32) | 2,
                             "h2": (S.PROCESSED << 32) | 1}
    for st in (full, comp):
        d = st.insert_candidates(_rows([("https://a/0", "h0", "a", 5),
                                        ("https://a/9", "h9", "a", 5)]))
        assert d["discovered"] == 1  # h0 still recognized as seen
    assert sorted(comp.record_hash64().tolist()) == \
        sorted(full.record_hash64().tolist())
    # selection identical (terminal rows never re-selected in either mode)
    assert comp.select_candidates(10, 0, 3)["url_hash"].to_pylist() == \
        full.select_candidates(10, 0, 3)["url_hash"].to_pylist()
    # full-detail views are refused rather than silently partial
    import pytest as _pytest

    with _pytest.raises(RuntimeError):
        comp.seen_entries()


def test_shard_routing_salting():
    domains = ["hot.test"] * 8 + ["cold.test"] * 8
    hashes = [f"h{i}" for i in range(16)]
    sids = shard_of_batch(domains, hashes, 4, frozenset(["hot.test"]))
    hot_ids = set(sids[:8])
    cold_ids = set(sids[8:])
    assert len(hot_ids) > 1      # hot domain salted across shards
    assert len(cold_ids) == 1    # cold domain sticks to one shard


def test_candidate_table_routing(tmp_path):
    """One candidate form on every path: for a cold and a hot (salted)
    domain, the fetch worker's reply and the seed path give a url the
    same hash64 and shard, and restore keeps exactly the rows
    `shard_of_batch` assigns to the shard at 2 and at 3 shards."""
    import copy

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dumb_crawler_ray.config import JobConfig
    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.sources.synthweb import (DEFAULT_CONFIG,
                                                   domains_for, write_fixture)
    from dumb_crawler_ray.stages.fetch import FetchWorker

    fix = str(write_fixture(tmp_path / "fx", seed=42, scale=1))
    hot = frozenset([domains_for(1)[0]])
    comp = S.CrawlComponents(JobConfig(DEFAULT_CONFIG))
    seeds = JobConfig(DEFAULT_CONFIG).seeds
    n = len(seeds)
    sel = pa.table({
        "rank": pa.array(range(n), pa.int64()),
        "url_hash": pa.array(comp.analyze_urls(seeds)[2], pa.string()),
        "url": pa.array(seeds, pa.string()),
        "domain": pa.array([comp.domain_of(u) for u in seeds]),
        "attempt": pa.array([0] * n, pa.int64()),
        "round": pa.array([0] * n, pa.int64()),
        "not_before_ts": pa.array([0.0] * n, pa.float64())})
    w = FetchWorker(fix, DEFAULT_CONFIG, seed=42, scale=1, n_shards=3,
                    hot_domains=hot)
    reply = from_ipc(w(to_ipc(sel)))
    fetched = pa.Table.from_struct_array(pc.list_flatten(reply.column("cand")))
    doms = fetched.column("domain").to_pylist()
    hot_shards = {s for d, s in zip(doms, fetched.column("shard").to_pylist())
                  if d in hot}
    assert len(hot_shards) > 1 and set(doms) - hot

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["seeds"] = fetched.column("url").to_pylist()
    pipe = CrawlPipeline(fix, cfg, seed=42, scale=1, n_shards=3,
                         hot_domains=hot)
    seeded = []
    pipe._insert_candidates = lambda cand, msgs: seeded.append(cand)
    pipe._apply = lambda msgs: {}
    pipe.inject_seeds()
    key = ["url", "url_hash", "domain", "hash64", "shard"]
    assert seeded[0].select(key).equals(fetched.select(key))

    base = tmp_path / "ckpt" / "frontier_inserts"
    base.mkdir(parents=True)
    pq.write_table(fetched.select(["url", "url_hash", "domain", "tags",
                                   "priority"]),
                   base / "round=000000.parquet")
    hashes = fetched.column("url_hash").to_pylist()
    for n_shards in (2, 3):
        sids = shard_of_batch(doms, hashes, n_shards, hot)
        for sid in range(n_shards):
            st = FrontierShardState(sid, respect_robots=False)
            st.restore_from_ckpt(str(tmp_path / "ckpt"), n_shards, hot)
            assert set(st.records) == {
                h for h, s in zip(hashes, sids) if s == sid}


def _round_msg():
    """One round's apply_round message for `_round_shard`: h3 is
    schedule-disallowed (marked, never completed), img1 is stored twice
    within the round and img0 in an earlier one, candidate h1 equals a
    row just completed, and d03.example.test is a new robots domain."""
    return {
        "mark": ["h1", "h2", "h3"],
        "complete": {"url_hash": ["h1", "h2"],
                     "status": [S.PROCESSED, S.FAILED],
                     "error": [None, "E"], "tags": [["t"], []],
                     "attempt": [1, 1]},
        "images": ["img0", "img1", "img1"],
        "cand": to_ipc(_rows([("https://d02.example.test/1", "h1",
                               "d02.example.test", 5),
                              ("https://d03.example.test/9", "h9",
                               "d03.example.test", 2)])),
        "maybe_seen": np.array([True, False]),
    }


def _round_seed():
    return _rows([
        (f"https://d02.example.test/{i}", f"h{i}", "d02.example.test", 6 - i)
        for i in range(4)])


def _round_shard(compact):
    st = FrontierShardState(0, respect_robots=True, compact_terminal=compact)
    st.insert_candidates(_round_seed())
    st.note_stored(["img0"])  # an earlier round's stores
    st.drain_robots_entries()
    return st


@pytest.mark.parametrize("compact", [False, True])
def test_apply_round_equals_sequential_calls(compact):
    """apply_round(msg) is the six per-round shard steps in their order —
    mark_selected → complete → note_stored → insert_candidates →
    drain_robots_entries → select_candidates (the offer): identical
    records, heap, cuckoo, stored-image set and reply, with and without
    compact_terminal."""
    seq, one = _round_shard(compact), _round_shard(compact)
    msg = _round_msg()
    seq.mark_selected(msg["mark"])
    seq.complete(msg["complete"])
    want = seq.note_stored(msg["images"])
    want.update(seq.insert_candidates(from_ipc(msg["cand"]),
                                      msg["maybe_seen"]))
    want["robots"] = seq.drain_robots_entries()
    want["offer"] = to_ipc(seq.select_candidates(*seq.policy))
    got = one.apply_round(_round_msg())
    assert got == want
    assert got["image_new"] == [False, True, False]
    assert (got["discovered"], got["exact_probes"]) == (1, 1)
    assert got["robots"] == [("d03.example.test", [], 0.0)]
    assert one.records["h3"][R_STATUS] == S.PROCESSING
    for a in ("records", "terminal", "heap", "stored_images",
              "robots_cache", "_robots_new"):
        assert getattr(one, a) == getattr(seq, a), a
    assert np.array_equal(one.cuckoo.table, seq.cuckoo.table)
    assert (one.cuckoo.overflow, one.cuckoo.count) == \
        (seq.cuckoo.overflow, seq.cuckoo.count)
    assert from_ipc(got["offer"])["url_hash"].to_pylist() == ["h0", "h9"]
    # an empty message is a no-op write that re-sends the same offer
    assert one.apply_round({}) == {"image_new": [], "discovered": 0,
                                   "robots_denied": 0, "exact_probes": 0,
                                   "robots": [], "offer": got["offer"]}


@pytest.mark.parametrize("compact", [False, True])
def test_updates_round_restores_like_apply_round(tmp_path, compact):
    """A `frontier_updates` round as the pipeline writes it
    (`_ckpt_updates`) and `read_round` reads it back holds the round's
    `complete` rows in rank order, and a shard restored from it holds
    the same records, terminal rows and heap as the live
    `apply_round`."""
    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG
    from dumb_crawler_ray.state.ckptio import read_round, round_entries

    c = _round_msg()["complete"]
    live = _round_shard(compact)
    live.apply_round({"mark": c["url_hash"], "complete": c})

    ckpt = tmp_path / "ckpt"
    pipe = CrawlPipeline(str(tmp_path), DEFAULT_CONFIG, n_shards=1,
                         ckpt_dir=str(ckpt))
    pipe.round = -1
    pipe._ckpt_frontier_inserts(_round_seed())
    pipe.round = 0
    fr = pa.table({"rank": pa.array([0, 1], pa.int64()),
                   "url_hash": c["url_hash"], "error": c["error"],
                   "tags": pa.array(c["tags"], pa.list_(pa.string())),
                   "store_ok": [True, False]})
    pipe._ckpt_updates(fr, np.asarray(c["status"]), np.asarray(c["attempt"]))
    [(rnd, path)] = round_entries(str(ckpt / "frontier_updates"))
    t = read_round(path)
    assert rnd == 0 and t.column("round").to_pylist() == [0, 0]
    assert t.column("rank").to_pylist() == [0, 1]
    assert t.select(list(UPDATE_COLUMNS)).to_pydict() == c
    assert t.column("stored").to_pylist() == [True, False]

    restored = FrontierShardState(0, respect_robots=True,
                                  compact_terminal=compact)
    restored.restore_from_ckpt(str(ckpt), 1, frozenset())
    for a in ("records", "terminal", "heap"):
        assert getattr(restored, a) == getattr(live, a), a


@pytest.mark.parametrize("compact", [False, True])
def test_replies_carry_a_fresh_offer(tmp_path, compact):
    """The offer in each reply to `apply_round` (a round's message and
    `{}`) and to `restore_from_ckpt` is exactly a fresh `select_candidates`
    under the shard's policy on the state the call left, tagged with the
    shard id; the restore reply's ``hash64`` is `record_hash64`."""
    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG

    def fresh(st):
        return st.select_candidates(*st.policy)

    st = FrontierShardState(3, respect_robots=True, compact_terminal=compact,
                            policy=(2, 1, 5))
    st.insert_candidates(_round_seed())
    for msg in (_round_msg(), {}, {"mark": ["h0"]}):
        offer = from_ipc(st.apply_round(msg)["offer"])
        assert offer.equals(fresh(st))
        assert set(offer["shard"].to_pylist()) <= {3}
    assert len(offer) == 1  # per-domain cap 1

    ckpt = tmp_path / "ckpt"
    pipe = CrawlPipeline(str(tmp_path), DEFAULT_CONFIG, n_shards=1,
                         ckpt_dir=str(ckpt))
    pipe.round = -1
    pipe._ckpt_frontier_inserts(_round_seed())
    restored = FrontierShardState(0, respect_robots=True,
                                  compact_terminal=compact, policy=(3, 0, 5))
    rep = restored.restore_from_ckpt(str(ckpt), 1, frozenset())
    assert set(rep) == {"offer", "hash64"}
    assert from_ipc(rep["offer"]).equals(fresh(restored))
    assert from_ipc(rep["offer"])["url_hash"].to_pylist() == ["h0", "h1",
                                                              "h2"]
    assert np.array_equal(rep["hash64"], restored.record_hash64())
