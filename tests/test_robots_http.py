"""Real robots.txt for fetcher.mode=http (sources/robots.py + the
frontier-shard plumbing): parsing, the RFC 9309 status ladder, per-domain
caching through a mocked transport, and insert-time denial — all without
a network (the sandbox has none). Synthetic-mode robots conformance is
covered by test_crawl_conformance.test_robots_conformance."""

import urllib.error

import pytest

from dumb_crawler_ray.sources.httpweb import HttpWeb
from dumb_crawler_ray.sources.robots import RobotsFetcher, parse_robots_full
from dumb_crawler_ray.state.frontier import FrontierShardState


ROBOTS = """\
# comment line
User-agent: Googlebot
Disallow: /google-only/

User-agent: dcr-bot
User-agent: otherbot
Disallow: /private/
Disallow: /tmp/
Allow: /private/ok
Disallow: /star*/   # wildcard kept verbatim (RFC 9309 §2.2.3)
Disallow:

User-agent: *
Disallow: /all/
"""

DCR_RULES = ["/private/", "/tmp/", "!/private/ok", "/star*/"]


def test_parse_group_selection_and_prefixes():
    # longest matching agent token wins; Allow carries the '!' sentinel,
    # wildcard rules are kept verbatim, empty Disallow is skipped
    assert parse_robots_full(ROBOTS, "dcr-bot/1.0")[0] == DCR_RULES
    assert parse_robots_full(ROBOTS, "Mozilla/5.0")[0] == ["/all/"]
    assert parse_robots_full(ROBOTS, "Googlebot/2.1")[0] == ["/google-only/"]
    assert parse_robots_full("", "dcr-bot")[0] == []
    # multiple UA lines share one record
    assert parse_robots_full(ROBOTS, "otherbot")[0] == DCR_RULES


def test_star_groups_merge_and_delay_max():
    """RFC 9309 §2.2.1: groups sharing the winning agent token combine —
    earlier '*' rules must not be discarded by a later '*' group."""
    txt = ("User-agent: *\nDisallow: /a/\nCrawl-delay: 2\n\n"
           "User-agent: other\nDisallow: /x/\n\n"
           "User-agent: *\nDisallow: /b/\nCrawl-delay: 5\n")
    from dumb_crawler_ray.sources.robots import parse_robots_full

    assert parse_robots_full(txt, "dcr-bot/1.0") == (["/a/", "/b/"], 5.0)


def test_wildcard_and_allow_matching():
    from dumb_crawler_ray.pipelines.semantics import robots_denied

    base = "https://s.test"
    # wildcard disallow: 'Disallow: /*?' blocks any path with a query
    # marker; '/private*' blocks the literal prefix and beyond
    rules = ["/*?", "/private*"]
    assert robots_denied(f"{base}/page?x=1", rules)
    assert robots_denied(f"{base}/privateX/deep", rules)
    assert not robots_denied(f"{base}/public/page", rules)
    # '$' end anchor
    rules = ["/*.pdf$"]
    assert robots_denied(f"{base}/docs/file.pdf", rules)
    assert not robots_denied(f"{base}/docs/file.pdfx", rules)
    # Allow precedence: longest match wins; Allow wins length ties
    rules = ["/private/", "!/private/ok"]
    assert robots_denied(f"{base}/private/x", rules)
    assert not robots_denied(f"{base}/private/ok/page", rules)
    assert robots_denied(f"{base}/private/okay"[:0] + f"{base}/private/no", rules)
    # exact-length tie → Allow wins
    rules = ["/a/", "!/a/"]
    assert not robots_denied(f"{base}/a/x", rules)
    # middle-segment wildcard
    rules = ["/cat/*/detail"]
    assert robots_denied(f"{base}/cat/12/detail?x", rules)
    assert not robots_denied(f"{base}/cat/12/summary", rules)


class _Resp:
    def __init__(self, status=200, body=b""):
        self.status = status
        self._body = body
        import email.message

        self.headers = email.message.Message()

    def read(self):
        return self._body


class _RobotsOpener:
    """Transport stub: per-URL results, counts fetches per URL."""

    def __init__(self, results):
        self.results = results  # url -> _Resp | Exception
        self.calls: list[str] = []

    def open(self, req, timeout=None):
        url = req.full_url
        self.calls.append(url)
        r = self.results.get(url)
        if r is None:
            raise urllib.error.HTTPError(url, 404, "nf", None, None)
        if isinstance(r, Exception):
            raise r
        return r


def _fetcher(results, ua="dcr-bot/1.0"):
    return RobotsFetcher(HttpWeb(user_agent=ua,
                                 opener=_RobotsOpener(results)))


def test_status_ladder():
    f = _fetcher({
        "http://ok.test/robots.txt": _Resp(200, ROBOTS.encode()),
        "http://gone.test/robots.txt": None,              # 404 HTTPError
        "http://err.test/robots.txt": urllib.error.HTTPError(
            "http://err.test/robots.txt", 503, "boom", None, None),
        "http://dead.test/robots.txt": OSError("connection refused"),
    })
    assert f.fetch_rules_full("ok.test")[0] == DCR_RULES
    assert f.fetch_rules_full("gone.test")[0] == []          # 4xx → allow all
    assert f.fetch_rules_full("err.test")[0] == ["/"]        # 5xx → complete disallow
    assert f.fetch_rules_full("dead.test")[0] == []          # unreachable → allow
    # transience: 5xx and transport failure are TEMPORARY verdicts,
    # 200/4xx are permanent
    assert f.fetch_rules_full("ok.test")[2] is False
    assert f.fetch_rules_full("gone.test")[2] is False
    assert f.fetch_rules_full("err.test")[2] is True
    assert f.fetch_rules_full("dead.test")[2] is True


def test_transient_5xx_not_persisted_and_reconsulted(monkeypatch):
    """A 503 robots verdict is cached with a TTL (not forever), is
    re-consulted after expiry, and never enters the persisted robots
    drain — so a resume re-consults the domain instead of replaying a
    transient outage."""
    err = urllib.error.HTTPError("http://flaky.test/robots.txt", 503,
                                 "boom", None, None)
    opener = _RobotsOpener({"http://flaky.test/robots.txt": err})
    st = FrontierShardState(
        0, respect_robots=True,
        robots_fetcher=RobotsFetcher(HttpWeb(user_agent="dcr-bot/1.0",
                                             opener=opener)))
    assert st._robots_entry("flaky.test") == (["/"], 0.0)
    assert st.drain_robots_entries() == []   # transient → never persisted
    assert st._robots_entry("flaky.test") == (["/"], 0.0)
    assert len(opener.calls) == 1             # served from cache inside TTL
    # age the verdict out → re-consult; the server recovered
    st._robots_expiry["flaky.test"] = 0.0
    opener.results["http://flaky.test/robots.txt"] = _Resp(
        200, b"User-agent: *\nDisallow: /only/\n")
    assert st._robots_entry("flaky.test") == (["/only/"], 0.0)
    assert len(opener.calls) == 2
    # the recovered (permanent) verdict IS persisted
    assert st.drain_robots_entries() == [("flaky.test", ["/only/"], 0.0)]


def _insert(state, urls):
    from dumb_crawler_ray.state.frontier import candidate_table

    # identity hashing (url_hash = url) is fine for state-level tests
    return state.insert_candidates(candidate_table(
        urls, urls, [u.split("://", 1)[1].split("/", 1)[0] for u in urls],
        [[] for _ in urls], [0] * len(urls), 1, frozenset()))


def test_insert_time_denial_and_per_domain_cache():
    from dumb_crawler_ray.pipelines import semantics as S

    opener = _RobotsOpener({
        "https://shop.test/robots.txt": _Resp(200, ROBOTS.encode()),
        "http://open.test/robots.txt": None,  # 404
    })
    st = FrontierShardState(
        0, respect_robots=True,
        robots_fetcher=RobotsFetcher(HttpWeb(user_agent="dcr-bot/1.0",
                                             opener=opener)))
    delta = _insert(st, [
        "https://shop.test/private/x",   # denied (dcr-bot group)
        "https://shop.test/public/y",    # allowed
        "https://shop.test/tmp/z",       # denied
        "http://open.test/anything",     # 404 robots → allowed
    ])
    assert delta == {"discovered": 4, "robots_denied": 2, "exact_probes": 0}
    seen = st.seen_entries()
    assert seen["https://shop.test/private/x"][0] == S.FAILED
    assert seen["https://shop.test/private/x"][2] == S.ROBOTS_ERROR
    assert seen["https://shop.test/public/y"][0] == S.QUEUED
    assert seen["https://shop.test/tmp/z"][2] == S.ROBOTS_ERROR
    assert seen["http://open.test/anything"][0] == S.QUEUED
    # ONE robots fetch per domain (cached), scheme from the first url
    assert opener.calls == ["https://shop.test/robots.txt",
                            "http://open.test/robots.txt"]
    _insert(st, ["https://shop.test/private/again"])
    assert len(opener.calls) == 2  # cache hit, no refetch


def test_crawl_delay_parsing_and_plumbing():
    """Crawl-delay flows robots.txt → shard cache → selection rows; the
    winning group's delay applies, other groups' delays don't."""
    from dumb_crawler_ray.sources.robots import parse_robots_full

    txt = ("User-agent: Googlebot\nCrawl-delay: 9\nDisallow: /g/\n\n"
           "User-agent: dcr-bot\nCrawl-delay: 0.25\nDisallow: /p/\n\n"
           "User-agent: *\nDisallow: /all/\n")
    assert parse_robots_full(txt, "dcr-bot/1.0") == (["/p/"], 0.25)
    assert parse_robots_full(txt, "Mozilla/5.0") == (["/all/"], 0.0)
    assert parse_robots_full(txt, "Googlebot") == (["/g/"], 9.0)

    opener = _RobotsOpener({
        "http://slow.test/robots.txt": _Resp(200, txt.encode())})
    st = FrontierShardState(
        0, respect_robots=True,
        robots_fetcher=RobotsFetcher(HttpWeb(user_agent="dcr-bot/1.0",
                                             opener=opener)))
    _insert(st, ["http://slow.test/a", "http://slow.test/b"])
    sel = st.select_candidates(10, 0, 5)
    assert sel["crawl_delay_ms"].to_pylist() == [250, 250]


def test_fetch_worker_paces_robots_crawl_delay(ray_session, tmp_path):
    """A robots Crawl-delay paces same-domain fetches through the driver's
    schedule, even with politeness.delay_ms = 0: `_select` stamps two
    same-domain rows (crawl_delay_ms = 150) at least 150 ms apart, and the
    fetch worker waits for each row's not_before_ts."""
    import time

    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.rayutil import from_ipc, to_ipc
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, write_fixture
    from dumb_crawler_ray.stages.fetch import FetchWorker

    st = FrontierShardState(0, respect_robots=True, robots_fetcher=_fetcher(
        {"https://d00.example.test/robots.txt":
         _Resp(200, b"User-agent: *\nCrawl-delay: 0.15\n")}))
    _insert(st, ["https://d00.example.test/", "https://d00.example.test/x"])
    fix = str(write_fixture(tmp_path / "fx", seed=42, scale=1))
    w = FetchWorker(fix, DEFAULT_CONFIG, seed=42, scale=1)
    pipe = CrawlPipeline(fix, DEFAULT_CONFIG, seed=42, scale=1, n_shards=1)
    # the shard's offer, as its apply_round reply carries it
    pipe._offers = [from_ipc(st.apply_round({})["offer"])]
    sel = pipe._select()
    assert sel.column("crawl_delay_ms").to_pylist() == [150, 150]
    t0, t1 = sel.column("not_before_ts").to_pylist()
    assert t1 - t0 >= 0.15
    out = from_ipc(w(to_ipc(sel)))
    assert len(out) == 2
    assert time.time() >= t1  # the second fetch waited for its stamp


def test_transport_failure_never_blocks_the_crawl():
    from dumb_crawler_ray.pipelines import semantics as S

    st = FrontierShardState(
        0, respect_robots=True,
        robots_fetcher=_fetcher({}, ua="dcr-bot/1.0"))
    # 404 for every robots URL → everything inserts as QUEUED
    delta = _insert(st, ["http://a.test/x", "http://b.test/y"])
    assert delta["robots_denied"] == 0
    assert all(v[0] == S.QUEUED for v in st.seen_entries().values())


def test_robots_decisions_persist_across_restore(tmp_path):
    """Robots decisions are crawl state: restore pre-seeds the cache from
    the persisted per-round entries and replays the ORIGINAL denial even
    when the live network would now answer differently (here: the strict
    robots.txt is gone — a 404-everything transport)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dumb_crawler_ray.pipelines import semantics as S

    strict = RobotsFetcher(HttpWeb(
        user_agent="dcr-bot/1.0",
        opener=_RobotsOpener({
            "https://shop.test/robots.txt": _Resp(200, ROBOTS.encode())})))
    st = FrontierShardState(0, respect_robots=True, robots_fetcher=strict)
    urls = ["https://shop.test/private/x", "https://shop.test/ok/y"]
    _insert(st, urls)
    assert st.seen_entries()[urls[0]][2] == "ROBOTS_DENIED"
    entries = st.drain_robots_entries()
    assert entries and entries[0][0] == "shop.test"
    assert st.drain_robots_entries() == []  # drained

    # persist the way CrawlPipeline._ckpt_robots / _ckpt_frontier_inserts do
    ckpt = tmp_path / "ckpt"
    (ckpt / "robots").mkdir(parents=True)
    (ckpt / "frontier_inserts").mkdir()
    pq.write_table(pa.table(
        {"domain": pa.array([e[0] for e in entries], pa.string()),
         "prefixes": pa.array([e[1] for e in entries],
                              pa.list_(pa.string())),
         "delay_ms": pa.array([int(e[2] * 1000) for e in entries],
                              pa.int64()),
         "shard": pa.array([0] * len(entries), pa.int64())}),
        str(ckpt / "robots" / "round=-00001.parquet"))
    pq.write_table(pa.table(
        {"url": pa.array(urls, pa.string()),
         "url_hash": pa.array(urls, pa.string()),
         "domain": pa.array(["shop.test"] * 2, pa.string()),
         "tags": pa.array([[], []], pa.list_(pa.string())),
         "priority": pa.array([0, 0], pa.int64())}),
        str(ckpt / "frontier_inserts" / "round=-00001.parquet"))

    # the "network" changed: robots.txt now 404s everywhere (allow-all)
    lax = _fetcher({}, ua="dcr-bot/1.0")
    st2 = FrontierShardState(0, respect_robots=True, robots_fetcher=lax)
    st2.restore_from_ckpt(str(ckpt), 1, frozenset())
    seen = st2.seen_entries()
    assert seen[urls[0]][0] == S.FAILED            # original denial kept
    assert seen[urls[0]][2] == S.ROBOTS_ERROR
    assert seen[urls[1]][0] == S.QUEUED
    # the lax transport was never consulted for the seeded domain
    assert lax.web._opener.calls == []


def test_robots_restore_prefers_own_shard_decision(tmp_path):
    """Hot-domain salting can put one domain on several shards, each with
    its own cached robots decision (the server may have flapped between
    their fetches). Restore must replay THIS shard's actual decision —
    rows from other shards only fill domains this shard never decided."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ckpt = tmp_path / "ckpt"
    (ckpt / "robots").mkdir(parents=True)
    pq.write_table(pa.table(
        {"domain": pa.array(["hot.test", "hot.test", "only0.test"]),
         "prefixes": pa.array([["/s0/"], ["/s1/"], ["/a/"]],
                              pa.list_(pa.string())),
         "delay_ms": pa.array([100, 200, 0], pa.int64()),
         "shard": pa.array([0, 1, 0], pa.int64())}),
        str(ckpt / "robots" / "round=-00001.parquet"))

    lax = _fetcher({}, ua="dcr-bot/1.0")
    st1 = FrontierShardState(1, respect_robots=True, robots_fetcher=lax)
    st1.restore_from_ckpt(str(ckpt), 2, frozenset())
    # shard 1 replays ITS decision even though shard 0's row comes first
    assert st1.robots_cache["hot.test"] == (["/s1/"], 0.2)
    # gap-fill from another shard's row for a domain it never decided
    assert st1.robots_cache["only0.test"] == (["/a/"], 0.0)
    assert lax.web._opener.calls == []


def test_crawl_delay_is_capped():
    from dumb_crawler_ray.sources.robots import (MAX_CRAWL_DELAY_S,
                                                 parse_robots_full)

    txt = "User-agent: *\nCrawl-delay: 86400\nDisallow: /x/\n"
    assert parse_robots_full(txt, "dcr-bot")[1] == MAX_CRAWL_DELAY_S


def test_http_mode_pipeline_wires_real_robots(ray_session, tmp_path):
    """End-to-end plumbing check: a CrawlPipeline with fetcher.mode=http +
    respect_robots routes robots through the LIVE network path (dead in
    this sandbox → allow), NOT the synthetic fixture rules — the exact
    wiring bug verdict r3 flagged (frontier hard-wired to synthweb)."""
    import copy

    import ray

    from dumb_crawler_ray.pipelines import semantics as S
    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    # d00 is even → the SYNTHETIC rules disallow /listing/ for it
    cfg["seeds"] = ["https://d00.example.test/listing/p00000001"]
    cfg["fetcher"] = {"mode": "http"}
    cfg["politeness"]["respect_robots"] = True
    pipe = CrawlPipeline(str(tmp_path), cfg, seed=1, scale=4, n_shards=2)
    pipe._start_shards()
    pipe.inject_seeds()
    seen = {}
    for part in ray.get([s.seen_entries.remote() for s in pipe.shards]):
        seen.update(part)
    (entry,) = seen.values()
    # http-mode robots: unreachable network → allow; synthetic rules
    # would have produced ROBOTS_DENIED here
    assert entry[2] != S.ROBOTS_ERROR and entry[0] == S.QUEUED
    assert pipe.counters["ROBOTS_DENIED_URLS"] == 0

    # control: the SAME config in synthetic mode denies the seed
    cfg2 = copy.deepcopy(cfg)
    cfg2["fetcher"] = {"mode": "synthetic"}
    pipe2 = CrawlPipeline(str(tmp_path), cfg2, seed=1, scale=4, n_shards=2)
    pipe2._start_shards()
    pipe2.inject_seeds()
    assert pipe2.counters["ROBOTS_DENIED_URLS"] == 1


def test_caching_fetcher_unit(monkeypatch):
    """CachingRobotsFetcher: one network fetch per domain (permanent
    verdicts), transient verdicts re-consulted after the TTL."""
    from dumb_crawler_ray.sources import robots as R

    calls = []

    class FakeFetcher:
        def fetch_rules_full(self, domain, scheme="http"):
            calls.append(domain)
            if domain == "down.test":
                return ["/"], 0.0, True
            return ["/private/"], 1.0, False

    c = R.CachingRobotsFetcher.__new__(R.CachingRobotsFetcher)
    c.fetcher = FakeFetcher()
    c.cache, c._expiry, c.network_fetches = {}, {}, 0
    for _ in range(3):
        assert c.fetch_rules_full("ok.test") == (["/private/"], 1.0, False)
    assert calls == ["ok.test"]
    # transient: cached until the TTL, then re-consulted
    assert c.fetch_rules_full("down.test")[2] is True
    assert c.fetch_rules_full("down.test")[2] is True
    assert calls == ["ok.test", "down.test"]
    c._expiry["down.test"] = -1.0  # age it out
    c.fetch_rules_full("down.test")
    assert calls == ["ok.test", "down.test", "down.test"]


def test_robots_pool_fetches_once_per_domain_across_shards(ray_session,
                                                           tmp_path):
    """The r5 global fetch-once guarantee: with hot-domain salting a
    domain's candidates land on SEVERAL frontier shards; the shared
    RobotsCacheActor pool must still hit the network exactly once per
    domain (sandbox network → every fetch is a transport error, counted
    by the actor), and every shard must apply the same verdict."""
    import copy

    import ray

    from dumb_crawler_ray.pipelines.crawl import CrawlPipeline
    from dumb_crawler_ray.sources.synthweb import DEFAULT_CONFIG, domains_for

    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["fetcher"] = {"mode": "http"}
    cfg["politeness"]["respect_robots"] = True
    hot = domains_for(4)[0]
    pipe = CrawlPipeline(str(tmp_path), cfg, seed=1, scale=4, n_shards=4)
    pipe._start_shards()
    assert pipe.robots_pool is not None
    # candidates for the HOT domain spread over all 4 shards (salted by
    # url_hash), plus one cold domain on its home shard
    cold = domains_for(4)[1]
    urls = [f"https://{hot}/article/px{i:06d}-{900000 + i}"
            for i in range(64)] + [f"https://{cold}/article/pc-777777"]
    from dumb_crawler_ray.functions.urlhash import UrlHasher
    from dumb_crawler_ray.state.frontier import candidate_table

    hasher = UrlHasher(cfg["idExtractorPattern"])
    cand = candidate_table(urls, [hasher.hash_url(u) for u in urls],
                           [u.split("/")[2] for u in urls],
                           [["article"]] * len(urls), [10] * len(urls),
                           pipe.n_shards, pipe.hot_domains)
    msgs = {}
    pipe._insert_candidates(cand, msgs)
    assert len(msgs) == 4  # the salted hot domain reaches every shard
    pipe._apply(msgs)
    # every shard holding hot-domain candidates consulted robots, but the
    # NETWORK (the pool) saw exactly one fetch per distinct domain
    stats = [ray.get(a.stats.remote()) for a in pipe.robots_pool]
    total_fetches = sum(s["network_fetches"] for s in stats)
    total_domains = sum(s["domains_cached"] for s in stats)
    assert total_domains == 2  # hot + cold
    assert total_fetches == 2
