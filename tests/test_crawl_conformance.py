"""Conformance: the Ray pipeline must reproduce the oracle EXACTLY —
crawl order, final seen set, counters, stored pages/images — at any
parallelism level (SURVEY.md §5.2, BASELINE.json north_rule)."""

import logging
import os

import numpy as np
import pytest

from dumb_crawler_ray.pipelines import oracle
from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, SynthWeb, write_fixture

logging.getLogger("ray.data").setLevel(logging.ERROR)


def assert_match(res, orc):
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    assert res.counters == orc.counters
    assert res.stored_pages == orc.stored_pages
    assert res.stored_images == orc.stored_images


@pytest.fixture(scope="module")
def web8():
    return SynthWeb.generate(42, 8)


@pytest.fixture(scope="module")
def fix2(tmp_path_factory):
    return str(write_fixture(tmp_path_factory.mktemp("fx") / "sf2", seed=42, scale=2))


@pytest.fixture(scope="module")
def fix4(tmp_path_factory):
    return str(write_fixture(tmp_path_factory.mktemp("fx") / "sf4", seed=42, scale=4))


def test_conformance_scale8_actor_pool(ray_session, fixture_dir, web8):
    res = CrawlPipeline(
        fixture_dir, DEFAULT_CONFIG, seed=42, scale=8, n_shards=4, fetch_concurrency=4
    ).run()
    orc = oracle.simulate(DEFAULT_CONFIG, web8)
    assert_match(res, orc)
    assert len(res.crawl_order) > 200


def test_conformance_ray_data_mode(ray_session, fix4):
    """The inputs of the former Ray Data fetch mode (odd shard count, a
    4-round prefix) now run through the one pool fetch path and must
    match the oracle stopped after the same number of rounds."""
    web = SynthWeb.generate(42, 4)
    res = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=3,
        fetch_concurrency=2,
    ).run(max_rounds=4)
    orc = oracle.simulate(DEFAULT_CONFIG, web, max_rounds=4)
    assert_match(res, orc)


def test_determinism_across_parallelism(ray_session, fix4):
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    for conc, shards in ((1, 1), (4, 5)):
        res = CrawlPipeline(
            fix4, DEFAULT_CONFIG, seed=42, scale=4,
            n_shards=shards, fetch_concurrency=conc,
        ).run()
        assert_match(res, orc)


def test_result_lists_off_scale_mode(ray_session, fix4):
    """result_lists=False (production scale): the driver keeps NO per-URL
    state — not even an end-of-run seen-set gather (at 10^10 URLs that
    gather is a guaranteed driver OOM). The CrawlResult carries only
    counters + per-status totals; full per-URL identity lives in the
    checkpoint, which must replay to the oracle's exact seen set."""
    from collections import Counter

    import pyarrow.dataset as pads

    from dumb_crawler_ray.pipelines import semantics as S

    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    import tempfile

    with tempfile.TemporaryDirectory() as ckpt:
        res = CrawlPipeline(
            fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
            fetch_concurrency=2, ckpt_dir=ckpt, result_lists=False,
        ).run()
        assert res.crawl_order == [] and res.stored_pages == []
        assert res.seen_set == {}  # zero per-URL driver state, by contract
        assert res.counters == orc.counters
        # per-status totals stand in for the seen set on the driver
        assert res.status_counts == dict(
            Counter(v[0] for v in orc.seen_set.values()))
        pages = pads.dataset(f"{ckpt}/pages", format="parquet").to_table(
            columns=["url_hash"])
        assert set(pages.column("url_hash").to_pylist()) == set(orc.stored_pages)
        # the update rows are the crawl order; no separate order table
        assert not os.path.exists(f"{ckpt}/order")
        order = pads.dataset(f"{ckpt}/frontier_updates",
                             format="parquet").to_table()
        order = order.sort_by([("round", "ascending"), ("rank", "ascending")])
        assert order.column("url_hash").to_pylist() == orc.crawl_order
        # the checkpoint replays to the oracle's exact per-URL seen set:
        # inserts seed (QUEUED, attempt 0), updates apply latest-wins in
        # round order (respect_robots is off in DEFAULT_CONFIG, so no
        # insert-time status exists outside the update stream)
        seen = {}
        ins = pads.dataset(f"{ckpt}/frontier_inserts", format="parquet")
        for h, tags, pri in zip(
            *(ins.to_table(columns=["url_hash", "tags", "priority"]).column(c).to_pylist()
              for c in ("url_hash", "tags", "priority"))):
            seen.setdefault(h, (S.QUEUED, 0, None, ",".join(tags), pri))
        import glob as _glob

        for f in sorted(_glob.glob(f"{ckpt}/frontier_updates/*.parquet")):
            t = pads.dataset(f, format="parquet").to_table()
            for h, st, at, err, tags in zip(
                    t.column("url_hash").to_pylist(), t.column("status").to_pylist(),
                    t.column("attempt").to_pylist(), t.column("error").to_pylist(),
                    t.column("tags").to_pylist()):
                pri = seen[h][4]
                seen[h] = (st, at, err or None, ",".join(tags), pri)
        assert seen == orc.seen_set


def test_politeness_budget_conformance(ray_session, fix4):
    cfg = dict(DEFAULT_CONFIG)
    cfg["politeness"] = {"delay_ms": 0, "max_per_domain_per_round": 2}
    web = SynthWeb.generate(42, 4)
    res = CrawlPipeline(fix4, cfg, seed=42, scale=4, n_shards=4,
                        fetch_concurrency=3).run()
    orc = oracle.simulate(cfg, web)
    assert_match(res, orc)


def test_domain_global_politeness_pacing(ray_session, tmp_path):
    """Politeness delay must bind per DOMAIN across the whole fetch pool,
    not per actor: one domain's fetch STARTS are spaced >= delay even when
    its rows land on different actors (driver-scheduled not_before stamps
    in _select). Lower bound: the busiest domain fetched m times forces
    wall >= (m-1)*delay; actor-local pacing alone would allow ~pool-width
    under-spacing. Order and results stay oracle-exact (pacing is wall
    clock only)."""
    import time
    from collections import Counter

    import pyarrow.dataset as pads

    delay_ms = 60
    cfg = dict(DEFAULT_CONFIG)
    cfg["politeness"] = {"delay_ms": delay_ms, "max_per_domain_per_round": 0}
    fix = str(write_fixture(tmp_path / "fx1", seed=42, scale=1))
    web = SynthWeb.generate(42, 1)
    orc = oracle.simulate(cfg, web)
    ckpt = str(tmp_path / "ckpt")
    t0 = time.monotonic()
    res = CrawlPipeline(fix, cfg, seed=42, scale=1, n_shards=2,
                        fetch_concurrency=4, ckpt_dir=ckpt).run()
    wall = time.monotonic() - t0
    assert_match(res, orc)
    ins = pads.dataset(f"{ckpt}/frontier_inserts", format="parquet").to_table(
        columns=["url_hash", "domain"])
    dom_of = dict(zip(ins.column("url_hash").to_pylist(),
                      ins.column("domain").to_pylist()))
    m = max(Counter(dom_of[h] for h in res.crawl_order).values())
    assert m >= 4  # the scenario actually exercises repeated-domain fetches
    assert wall >= (m - 1) * delay_ms / 1000.0


def test_robots_conformance(ray_session, fix4):
    cfg = dict(DEFAULT_CONFIG)
    cfg["politeness"] = {"delay_ms": 0, "max_per_domain_per_round": 8,
                         "respect_robots": True}
    web = SynthWeb.generate(42, 4)
    res = CrawlPipeline(fix4, cfg, seed=42, scale=4, n_shards=4,
                        fetch_concurrency=3).run()
    orc = oracle.simulate(cfg, web)
    assert_match(res, orc)
    assert res.counters.get("ROBOTS_DENIED_URLS", 0) > 0


def test_hot_domain_salting_preserves_semantics(ray_session, fix4):
    """Salting the hot domain across shards must not change results —
    the driver merge re-applies the politeness cap globally."""
    cfg = dict(DEFAULT_CONFIG)
    cfg["politeness"] = {"delay_ms": 0, "max_per_domain_per_round": 3}
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(cfg, web)
    res_salted = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4, fetch_concurrency=2,
        hot_domains=["d00.example.test"],
    ).run()
    res_unsalted = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4, fetch_concurrency=2,
        hot_domains=[],
    ).run()
    assert_match(res_salted, orc)
    assert_match(res_unsalted, orc)


def test_task_killer_idle_stop(ray_session, fix2):
    """taskKiller intended semantics (SURVEY.md ST7): timeout 0 stops the
    crawl at the first round that stores no new page; the default (10m)
    never fires in-session."""
    import json

    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["taskKiller"] = {"timeout": "0s"}
    res = CrawlPipeline(fix2, cfg, seed=42, scale=2, n_shards=2,
                        fetch_concurrency=2).run()
    full = CrawlPipeline(fix2, DEFAULT_CONFIG, seed=42, scale=2, n_shards=2,
                         fetch_concurrency=2).run()
    assert full.stop_reason == "drained"
    # the idle-stopped run ends strictly earlier than the drained run
    # (rounds after the last productive one are skipped)
    assert res.stop_reason == "idle_timeout"
    assert res.rounds < full.rounds
    assert res.counters["IDLE_TIMEOUT_STOP"] == 1
    # up to its stopping point the idle run is a prefix of the full run
    assert res.crawl_order == full.crawl_order[: len(res.crawl_order)]


def test_proxy_renderer_dispatch(ray_session, fix2, monkeypatch):
    """S4/S5: tags in renderer.proxify fetch through the rewritten proxy
    URL (key from $ROCKETSCRAPE_API_KEY, validated); crawl results are
    identical to the direct fetch because the synthetic network unwraps
    the proxy transparently — and both pipeline and oracle agree."""
    import json

    import pytest as _pytest

    from dumb_crawler_ray.pipelines import semantics as S
    from dumb_crawler_ray.pipelines.oracle import simulate

    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["renderer"] = {"proxify": ["article"]}

    comp = S.CrawlComponents.__new__(S.CrawlComponents)
    # key validation: missing/short keys raise (RocketscrapeRenderer.java:11-19)
    monkeypatch.delenv("ROCKETSCRAPE_API_KEY", raising=False)
    from dumb_crawler_ray.config import JobConfig
    comp.__init__(JobConfig(cfg))
    assert comp.needs_proxy(["article"]) and not comp.needs_proxy(["other"])
    with _pytest.raises(RuntimeError):
        comp.proxy_url("https://x.test/a")
    monkeypatch.setenv("ROCKETSCRAPE_API_KEY", "short")
    with _pytest.raises(RuntimeError):
        comp.proxy_url("https://x.test/a")

    monkeypatch.setenv("ROCKETSCRAPE_API_KEY", "k" * 16)
    assert comp.proxy_url("https://x.test/a?q=1") == (
        "https://api.rocketscrape.com/?apiKey=" + "k" * 16
        + "&url=https://x.test/a?q=1"
    )
    res = CrawlPipeline(fix2, cfg, seed=42, scale=2, n_shards=2,
                        fetch_concurrency=2).run()
    orc = simulate(cfg, SynthWeb.generate(42, 2))
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    # proxying is transparent: same results as the un-proxied config
    base = simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 2))
    assert res.crawl_order == base.crawl_order


def test_run_cli_smoke(ray_session, fix2, tmp_path, capsys):
    """`python -m dumb_crawler_ray.run` — the DumbCrawlerApplication.main
    analogue / ray-job-submit payload — runs a job from a config file and
    prints one JSON summary line."""
    import json

    from dumb_crawler_ray.run import main

    rc = main(["--fixture", fix2, "--scale", "2", "--shards", "2",
               "--concurrency", "2", "--ckpt", str(tmp_path / "ck")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["urls_fetched"] > 50 and out["stop_reason"] == "drained"
    # resume over a completed checkpoint is a no-op continuation
    rc = main(["--fixture", fix2, "--scale", "2", "--shards", "2",
               "--concurrency", "2", "--ckpt", str(tmp_path / "ck"),
               "--resume"])
    assert rc == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["urls_fetched"] == out["urls_fetched"]


def test_kitchen_sink_conformance(ray_session, fix4, monkeypatch):
    """Every config feature at once — robots, politeness cap + delay,
    proxy dispatch, id-extractor dedup, validation, storage gate, low
    maxAttemptCount — pipeline ≡ oracle on order, seen set AND counters."""
    import json

    from dumb_crawler_ray.pipelines.oracle import simulate

    monkeypatch.setenv("ROCKETSCRAPE_API_KEY", "k" * 16)
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["politeness"] = {"delay_ms": 1, "max_per_domain_per_round": 3,
                         "respect_robots": True}
    cfg["renderer"] = {"proxify": ["article"]}
    cfg["maxAttemptCount"] = 2
    res = CrawlPipeline(fix4, cfg, seed=42, scale=4, n_shards=3,
                        fetch_concurrency=3).run()
    orc = simulate(cfg, SynthWeb.generate(42, 4))
    assert res.crawl_order == orc.crawl_order
    assert res.seen_set == orc.seen_set
    assert res.counters == orc.counters


def test_conformance_with_combinator_selector(ray_session, fix4):
    """A reference config may use any Jsoup selector shape in
    validationSelectors (ContentValidator.java:29-47) — a descendant/child
    combinator must neither crash the fetch stage nor change semantics
    (here `body > div.article-body` is equivalent to `div.article-body`
    on the synthetic pages)."""
    import copy

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["validationSelectors"] = {"article": "body > div.article-body"}
    web = SynthWeb.generate(42, 4)
    orc_base = oracle.simulate(DEFAULT_CONFIG, web)
    orc = oracle.simulate(cfg, web)
    assert orc.crawl_order == orc_base.crawl_order  # selector-equivalent
    res = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4, fetch_concurrency=2
    ).run()
    assert_match(res, orc)


def test_conformance_with_contains_selector(ray_session, fix4):
    """`div:contains(...)` (Jsoup ContainsText) in validationSelectors —
    the pseudo-class real configs use — must validate pages through the
    tree-match path with identical crawl semantics (every article page
    carries 'Article body text.' inside its article div)."""
    import copy

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["validationSelectors"] = {"article": "div:contains(article body text)"}
    web = SynthWeb.generate(42, 4)
    orc_base = oracle.simulate(DEFAULT_CONFIG, web)
    orc = oracle.simulate(cfg, web)
    assert orc.crawl_order == orc_base.crawl_order  # selector-equivalent
    assert orc.counters["SAVED_PAGES"] > 0
    res = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4, fetch_concurrency=2
    ).run()
    assert_match(res, orc)


def test_unsupported_selector_does_not_crash_crawl(ray_session, fix4):
    """An exotic (unsupported) selector degrades to no-match: every article
    fails validation, none stores, but the crawl completes."""
    import copy

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["validationSelectors"] = {"article": "div:has(> span.price)"}
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(cfg, web)
    res = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4, fetch_concurrency=2
    ).run()
    assert_match(res, orc)
    assert res.counters.get("SAVED_PAGES", 0) == 0
    assert res.counters["ERROR_CONTENT_VALIDATION_ERROR_article"] > 0


def test_conformance_with_fetch_threads(ray_session, fix4):
    """In-actor fetch threads (reference threadCount semantics) must not
    change ANY outcome: results re-order by input index, and politeness
    is the driver's per-row not-before stamp."""
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(DEFAULT_CONFIG, web)
    res = CrawlPipeline(
        fix4, DEFAULT_CONFIG, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, fetch_threads=4,
    ).run()
    assert_match(res, orc)


def test_politeness_pacing_with_fetch_threads(ray_session, fix4):
    """With a politeness delay and threads, per-domain fetch spacing still
    holds (every thread waits for its row's driver-assigned stamp)."""
    import copy
    import time

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["politeness"]["delay_ms"] = 30
    web = SynthWeb.generate(42, 4)
    orc = oracle.simulate(cfg, web)
    t0 = time.time()
    res = CrawlPipeline(
        fix4, cfg, seed=42, scale=4, n_shards=4,
        fetch_concurrency=2, fetch_threads=4,
    ).run(max_rounds=3)
    wall = time.time() - t0
    # d00 holds ~half the pages; cap=8/domain/round over 3 rounds ⇒ at
    # least (per-domain fetches - 1) × 30 ms of enforced spacing per actor
    assert res.crawl_order == orc.crawl_order[:len(res.crawl_order)]
    assert wall >= 0.03  # sanity: pacing actually slept


class _Counted:
    """An actor handle that logs (round, actor, method) per remote call."""

    def __init__(self, pipe, who, handle):
        self._pipe, self._who, self._handle = pipe, who, handle

    def __getattr__(self, meth):
        from types import SimpleNamespace

        method = getattr(self._handle, meth)

        def remote(*args, **kwargs):
            self._pipe.calls.append((self._pipe.round, self._who, meth))
            ref = method.remote(*args, **kwargs)
            self._pipe.sent.append((meth, args, kwargs, ref))
            return ref

        return SimpleNamespace(remote=remote)


class _CountingPipeline(CrawlPipeline):
    """Counts calls through wrapped shard and fetch handles; the real
    handles are back in place before run() releases them."""

    def _crawl(self, max_rounds):
        self.calls = []
        self.sent = []  # (method, args, kwargs, reply ref) per call
        real = self.shards, self._fetch_pool
        self.shards = [_Counted(self, ("shard", i), h)
                       for i, h in enumerate(real[0])]
        self._fetch_pool = [_Counted(self, ("fetch", j), h)
                            for j, h in enumerate(real[1])]
        try:
            return super()._crawl(max_rounds)
        finally:
            self.shards, self._fetch_pool = real


@pytest.fixture(scope="module")
def counted_crawl(ray_session, fix4):
    """One full crawl through counting shard and fetch handles."""
    pipe = _CountingPipeline(fix4, DEFAULT_CONFIG, seed=42, scale=4,
                             n_shards=8, fetch_concurrency=3)
    return pipe, pipe.run()


def test_one_call_per_shard_per_round(counted_crawl):
    """Per round each frontier shard gets at most one call, `apply_round`,
    whose reply carries its next offer, and each fetch actor at most one
    call; the seed phase (round -1) is one apply_round per shard at most.
    Some (round, shard) pair gets no call, so a carried-over offer was
    selected from. The crawl still matches the oracle."""
    from collections import Counter

    pipe, res = counted_crawl
    assert_match(res, oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 4)))
    n = Counter(pipe.calls)
    assert {m for _, _, m in pipe.calls} == {
        "apply_round", "__call__", "seen_entries"}
    for r in range(-1, res.rounds):
        for i in range(pipe.n_shards):
            assert n[(r, ("shard", i), "apply_round")] <= 1
    assert not any(r == res.rounds and m != "seen_entries"
                   for r, _, m in pipe.calls)  # the final select is local
    assert any(n[(r, ("shard", i), "apply_round")] == 0
               for r in range(res.rounds) for i in range(pipe.n_shards))
    fetches = Counter(r for r, _, m in pipe.calls if m == "__call__")
    assert sorted(fetches) == list(range(res.rounds))
    assert max(n.get((r, ("fetch", j), "__call__"), 0)
               for r in range(res.rounds) for j in range(3)) == 1
    assert max(fetches.values()) == 3  # full rounds use every actor


def test_resume_is_one_restore_call_per_shard(ray_session, fix4, tmp_path):
    """A resume makes one `restore_from_ckpt` call per shard and no other
    shard call before its first round; the restore replies' offers and
    hash64 arrays are all the driver needs to go on exactly."""
    from collections import Counter

    kw = dict(seed=42, scale=4, n_shards=4, fetch_concurrency=2,
              ckpt_dir=str(tmp_path / "ckpt"))
    CrawlPipeline(fix4, DEFAULT_CONFIG, **kw).run(max_rounds=3)
    pipe = _CountingPipeline(fix4, DEFAULT_CONFIG, resume=True, **kw)
    res = pipe.run()
    assert_match(res, oracle.simulate(DEFAULT_CONFIG, SynthWeb.generate(42, 4)))
    shard_calls = [(r, who, m) for r, who, m in pipe.calls
                   if who[0] == "shard"]
    first = shard_calls[:4]
    assert sorted(who for _, who, _ in first) == [("shard", i)
                                                  for i in range(4)]
    assert {m for _, _, m in first} == {"restore_from_ckpt"}
    assert Counter(m for _, _, m in shard_calls)["restore_from_ckpt"] == 4
    assert {m for _, _, m in shard_calls} == {
        "restore_from_ckpt", "apply_round", "seen_entries"}
    n = Counter(shard_calls)
    assert max(v for (r, _, m), v in n.items() if m == "apply_round") == 1


def _plain(v) -> bool:
    """True when ``v`` holds only bytes, Python scalars, numpy values and
    containers of them — no Arrow object."""
    if isinstance(v, (list, tuple, set, frozenset)):
        return all(_plain(x) for x in v)
    if isinstance(v, dict):
        return all(_plain(k) and _plain(x) for k, x in v.items())
    return v is None or isinstance(
        v, (bytes, str, int, float, np.ndarray, np.generic))


def test_round_actor_calls_carry_no_arrow_tables(counted_crawl):
    """Every argument and reply of the crawl's shard and fetch calls is
    bytes or plain Python/numpy: a fetch slice and its outcomes, and a
    shard message's candidates, cross as Arrow IPC bytes, never as a
    pa.Table."""
    from collections import Counter

    import ray

    pipe, res = counted_crawl
    replies = ray.get([ref for *_, ref in pipe.sent])
    n = Counter()
    for (meth, args, kwargs, _), reply in zip(pipe.sent, replies):
        assert _plain(args) and _plain(kwargs) and _plain(reply), meth
        if meth == "__call__":
            assert type(args[0]) is bytes and type(reply) is bytes
            n["fetch"] += 1
        elif meth == "apply_round" and "cand" in args[0]:
            assert type(args[0]["cand"]) is bytes
            n["cand"] += 1
    assert n["fetch"] >= res.rounds and n["cand"] >= res.rounds


def test_ipc_round_trip():
    """to_ipc → from_ipc gives back the same table: sliced at a non-zero
    offset, empty, with null strings, nested lists and int64 extremes."""
    import pyarrow as pa

    from dumb_crawler_ray.rayutil import from_ipc, to_ipc

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    t = pa.table({
        "s": pa.array(["a", None, "ccc", None, ""], pa.string()),
        "i": pa.array([lo, -1, 0, 1, hi], pa.int64()),
        "ll": pa.array([[["x", None], []], None, [[]], [["y"], ["z", "w"]],
                        []], pa.list_(pa.list_(pa.string()))),
    })
    for part in (t, t.slice(2, 3), t.slice(1, 1), t.slice(4, 0)):
        buf = to_ipc(part)
        assert type(buf) is bytes
        back = from_ipc(buf)
        assert back.schema == part.schema
        assert back.equals(part)
        assert back.to_pylist() == part.to_pylist()
    assert from_ipc(to_ipc(t.slice(2, 3))).column("i").to_pylist() == [0, 1, hi]
