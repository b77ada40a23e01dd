"""robots.txt fetch + parse for ``fetcher.mode = "http"``.

The reference crawler has no robots support at all; the north rule
mandates it, so the rebuild owns the whole path: each frontier shard
fetches `/robots.txt` once per domain through the SAME `HttpWeb`
transport the fetch stage uses (same UA/timeouts/config), parses the
rules for our user agent, and caches them next to the domain's
politeness state — the hash-by-domain partitioning already co-locates
everything per-domain, so no extra exchange exists.

Semantics (RFC 9309):
- records are grouped by consecutive ``User-agent`` lines; the group(s)
  whose agent token is the LONGEST case-insensitive substring of our UA
  win; ``*`` groups are the fallback. Per §2.2.1 all groups sharing the
  winning token (including multiple ``*`` groups) are COMBINED: rules
  merge, Crawl-delay takes the max
- both ``Disallow`` and ``Allow`` are parsed; values may contain ``*``
  (any char run) and a trailing ``$`` (end anchor) per §2.2.3. Rules are
  carried as a flat list of strings — Allow entries prefixed with ``!``
  (paths always start with ``/``, so the sentinel is unambiguous) — so
  the persisted checkpoint schema (list<string>) is unchanged
- matching (``semantics.robots_denied``): the longest matching rule
  wins; Allow wins a length tie (§2.2.2); no match → allowed
- HTTP 4xx (incl. 404) → no rules (allow all) — permanent verdict
- HTTP 5xx → complete disallow (["/"]) per §2.3.1.4 — TRANSIENT verdict:
  cached only for `TRANSIENT_TTL_S` and never persisted to the crawl
  checkpoint, so one 503 at first contact can't exclude a domain for
  the rest of the crawl or across resumes
- transport failure (DNS/refused/timeout) → no rules (unreachable
  robots MAY be treated as allow; a crawl must not dead-lock on a
  broken robots endpoint) — also TRANSIENT
"""

from __future__ import annotations

from .httpweb import FetchTransportError, HttpWeb

MAX_CRAWL_DELAY_S = 30.0  # honor Crawl-delay only up to this (crawler-
# standard cap; RFC 9309 doesn't define the field at all)

# how long a 5xx / unreachable verdict may be served from cache before
# the domain is re-consulted (RFC 9309 §2.3.1.4 allows caching; a
# transient error must not become a crawl-lifetime decision)
TRANSIENT_TTL_S = 300.0

ALLOW_PREFIX = "!"  # sentinel marking an Allow rule inside the flat list


def parse_robots_full(text: str, user_agent: str) -> tuple[list[str], float]:
    """robots.txt body → (rules, Crawl-delay seconds) for `user_agent`.

    Rules is a flat list: Disallow values verbatim (wildcards intact),
    Allow values prefixed with ``!``. Delay is 0.0 when no winning group
    sets one."""
    ua = user_agent.lower()
    # (agents, rules, delay_s) per record
    groups: list[tuple[list[str], list[str], float]] = []
    agents: list[str] = []
    rules: list[str] = []
    delay = 0.0
    in_group_body = False

    def flush():
        nonlocal agents, rules, delay, in_group_body
        if agents or rules:
            groups.append((agents, rules, delay))
        agents, rules, delay = [], [], 0.0
        in_group_body = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if in_group_body:  # a new record starts
                flush()
            agents.append(value.lower())
        elif field == "disallow":
            in_group_body = True
            if value:  # empty value allows everything (no rule)
                rules.append(value)
        elif field == "allow":
            in_group_body = True
            if value:
                rules.append(ALLOW_PREFIX + value)
        elif field == "crawl-delay":
            in_group_body = True
            try:
                # capped: an unbounded delay from one hostile/misconfigured
                # robots.txt must never stall a fetch actor (and with it
                # the whole BSP round) for hours
                delay = min(max(0.0, float(value)), MAX_CRAWL_DELAY_S)
            except ValueError:
                pass
        elif field == "sitemap":
            in_group_body = True  # ends the user-agent run, not parsed
    flush()

    # winning specificity: longest agent token that is a substring of our
    # UA; all groups carrying a token of that length combine (RFC 9309
    # §2.2.1 — rules of groups sharing a user-agent merge; length ties
    # across different tokens merge too, deterministically)
    best_len = -1
    for g_agents, _g_rules, _g_delay in groups:
        for a in g_agents:
            if a and a != "*" and a in ua:
                best_len = max(best_len, len(a))
    merged: list[str] = []
    merged_delay = 0.0
    matched = False
    for g_agents, g_rules, g_delay in groups:
        if best_len >= 0:
            hit = any(a and a != "*" and a in ua and len(a) == best_len
                      for a in g_agents)
        else:
            hit = "*" in g_agents
        if hit:
            matched = True
            merged.extend(g_rules)
            merged_delay = max(merged_delay, g_delay)
    return (merged, merged_delay) if matched else ([], 0.0)


class RobotsFetcher:
    """Per-domain robots rules over an ``HttpWeb`` transport (injectable
    — tests pass an opener-mocked HttpWeb). Stateless: the frontier
    shard owns the per-domain cache."""

    def __init__(self, web: HttpWeb):
        self.web = web

    def fetch_rules_full(self, domain: str,
                         scheme: str = "http") -> tuple[list[str], float, bool]:
        """(rules, Crawl-delay seconds, transient) for `domain`.

        `transient` marks verdicts derived from 5xx / transport failure:
        the caller caches them with a TTL and never persists them as
        crawl state."""
        try:
            resp = self.web.fetch(f"{scheme}://{domain}/robots.txt")
        except FetchTransportError:
            # unreachable → allow, but re-consult later (never dead-lock
            # on robots, never freeze the outage into crawl state)
            return [], 0.0, True
        if resp.status_code >= 500:
            # server error → complete disallow (RFC 9309 §2.3.1.4), but
            # TRANSIENT: retried after the TTL, never checkpointed
            return ["/"], 0.0, True
        if resp.status_code != 200:
            return [], 0.0, False  # 4xx → allow all (permanent)
        rules, delay = parse_robots_full(resp.html, self.web.user_agent)
        return rules, delay, False


class CachingRobotsFetcher:
    """`RobotsFetcher` + the once-per-crawl per-domain cache (permanent
    verdicts cached forever, transient 5xx/unreachable verdicts aged out
    after `TRANSIENT_TTL_S`). This is the cache the frontier shards keep
    locally — hoisted here so a Ray actor can own ONE instance for the
    whole crawl (`make_robots_cache_actor`): with hot-domain salting a
    domain's candidates land on several shards, and per-shard caches
    mean per-shard network fetches (and, if the server flaps between
    them, DIVERGENT rules applied within one crawl). A shared cache
    fetches each domain's robots.txt from the network exactly once per
    crawl and every shard applies the same verdict."""

    def __init__(self, web: HttpWeb):
        self.fetcher = RobotsFetcher(web)
        self.cache: dict[str, tuple[list[str], float, bool]] = {}
        self._expiry: dict[str, float] = {}
        self.network_fetches = 0

    def fetch_rules_full(self, domain: str,
                         scheme: str = "http") -> tuple[list[str], float, bool]:
        import time as _time

        now = _time.monotonic()
        entry = self.cache.get(domain)
        if entry is not None and domain in self._expiry \
                and now >= self._expiry[domain]:
            del self.cache[domain]
            del self._expiry[domain]
            entry = None
        if entry is None:
            self.network_fetches += 1
            entry = self.fetcher.fetch_rules_full(domain, scheme)
            self.cache[domain] = entry
            if entry[2]:  # transient → re-consult after the TTL
                self._expiry[domain] = now + TRANSIENT_TTL_S
        return entry

    def stats(self) -> dict:
        return {"network_fetches": self.network_fetches,
                "domains_cached": len(self.cache)}


def make_robots_cache_actor():
    """Ray actor wrapping `CachingRobotsFetcher` (lazy so the module
    imports without Ray). One small domain-hashed pool of these per
    crawl serves every frontier shard; the actors are LEAVES (they never
    call back into shards), so shard→robots waits can never cycle."""
    import ray

    @ray.remote
    class RobotsCacheActor:
        def __init__(self, raw_config: dict):
            from ..config import JobConfig

            self.cache = CachingRobotsFetcher(
                HttpWeb.from_config(JobConfig(raw_config)))

        def fetch_rules_full(self, domain: str, scheme: str = "http"):
            return self.cache.fetch_rules_full(domain, scheme)

        def stats(self) -> dict:
            return self.cache.stats()

    return RobotsCacheActor


class PooledRobotsFetcher:
    """Shard-side robots seam: routes each domain to its home
    `RobotsCacheActor` (stable hash64(domain) % pool size), so robots is
    fetched from the network ONCE PER CRAWL GLOBALLY — regardless of how
    hot-domain salting spreads a domain over frontier shards — and every
    shard applies the identical verdict. Same `fetch_rules_full`
    signature as `RobotsFetcher`, so `FrontierShardState` is agnostic;
    the shard's local cache still fronts this (one remote get per domain
    per shard, then memory)."""

    def __init__(self, handles: list):
        self.handles = handles

    def fetch_rules_full(self, domain: str,
                         scheme: str = "http") -> tuple[list[str], float, bool]:
        import ray

        from ..functions.urlhash import hash64

        h = self.handles[hash64(domain) % len(self.handles)]
        rules, delay, transient = ray.get(
            h.fetch_rules_full.remote(domain, scheme))
        return list(rules), float(delay), bool(transient)
