"""Sharded URL frontier — the distributed replacement for the reference's
single SQLite ``links`` table (J/services/URLStore.java, SURVEY.md ST1).

Partitioning: hash-by-domain so per-domain politeness state is shard-local;
HOT domains are salted across all shards by url-hash (SURVEY.md §7 hard
part e) and the driver re-applies the per-domain cap at merge time, which
keeps politeness exact for salted domains at the cost of a tiny per-round
merge (bounded by shards × batch).

Each shard holds, per SURVEY.md ST1/ST8:
  - the exact record map for its partition (url_hash → status ledger row)
  - a cuckoo filter fronting exact membership probes
  - per-domain politeness bookkeeping + robots rules cache
  - a lazy-deletion selection heap ordered by the pinned total order
    (priority DESC, attempt ASC, url_hash ASC — SURVEY.md K1)
  - its hash64(image_id) slice of the stored-image set. There is no
    stored-page set: a record leaves QUEUED only when selected and the
    same round completes it, so its page is stored at most once per
    crawl (the reference's one `links` row per URL, URLStore.java:171-183)

Identity scope (documented trade-off of the sharded design): a url_hash's
exact seen-record lives on the shard of ITS OWN domain, so a config whose
``idExtractorPattern`` can extract the SAME id from urls on DIFFERENT
domains treats them as distinct frontier entries (the reference's single
global SQLite store would merge them; the driver-global bloom still
pre-filters most re-offers). Configs whose id space is domain-unique
(every fixture here, and any sane idExtractorPattern that keys on path
ids scoped per site) are unaffected.
Merging cross-domain identities exactly would force hash-keyed sharding,
losing the domain co-location that politeness, robots and candidate
routing are all built on.

Scale note: at 10^10 URLs the in-memory record dict becomes a Lance/parquet
key-range store per shard; the probe order (bloom → cuckoo → exact) is
designed so that store is only consulted on cuckoo positives. Actors are
soft state — `restore_from_ckpt` rebuilds a shard by replaying its
partition of the checkpoint's per-round deltas (`frontier_inserts`, then
the `frontier_updates` rows of its records), then requeues PROCESSING
orphans, mirroring the reference's orphan-reset resume
(URLStore.java:54-58).

A shard takes at most one call a round, `apply_round`, whose reply
carries its next offer (the reference's `getUnvisited(k)` store call).
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np
import pyarrow as pa

from ..functions.urlhash import hash64_batch
from ..pipelines import semantics as S
from ..rayutil import from_ipc, to_ipc
from .cuckoo import CuckooFilter

# record tuple indexes
R_URL, R_DOMAIN, R_TAGS, R_PRIORITY, R_STATUS, R_ATTEMPT, R_ERROR = range(7)

# insert_candidates deltas of an empty or absent candidate batch
NO_INSERT = {"discovered": 0, "robots_denied": 0, "exact_probes": 0}

# cuckoo filter capacity of one shard's seen set
SEEN_CAPACITY = 1 << 16

# `complete` row fields — also the columns of a `frontier_updates` round
UPDATE_COLUMNS = ("url_hash", "status", "error", "tags", "attempt")


def shard_of_batch(domains, url_hashes, n_shards: int, hot_domains: frozenset) -> np.ndarray:
    """Deterministic shard routing: by domain, salted by url_hash for hot
    domains (stable siphash64 of the key, `hash64_batch`)."""
    keys = [h if d in hot_domains else d for d, h in zip(domains, url_hashes)]
    return (hash64_batch(keys) % n_shards).astype(np.int64)


CANDIDATE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("url_hash", pa.string()),
    ("domain", pa.string()),
    ("tags", pa.list_(pa.string())),
    ("priority", pa.int64()),
    ("hash64", pa.int64()),
    ("shard", pa.int64()),
])


# one shard's offer (`select_candidates`): its top-k eligible rows
OFFER_SCHEMA = pa.schema(
    [(c, pa.string()) for c in ("url_hash", "url", "domain")]
    + [(c, pa.int64()) for c in ("priority", "attempt", "crawl_delay_ms",
                                 "shard")])


def candidate_table(url, url_hash, domain, tags, priority, n_shards: int,
                    hot_domains: frozenset) -> pa.Table:
    """The one form of a frontier candidate batch (`CANDIDATE_SCHEMA`):
    the given columns (lists or Arrow arrays) plus each row's ``hash64``
    (cuckoo/bloom key) and owning ``shard``. Fetch workers, the seed path
    and checkpoint restore all build candidates here, so a url routes and
    hashes the same way on every path."""
    cols = []
    for values, f in zip((url, url_hash, domain, tags, priority),
                         CANDIDATE_SCHEMA):
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        cols.append(values.cast(f.type) if isinstance(values, pa.Array)
                    else pa.array(values, f.type))
    hashes = cols[1].to_numpy(zero_copy_only=False)
    sids = shard_of_batch(cols[2].to_pylist(), hashes, n_shards, hot_domains)
    cols += [pa.array(hash64_batch(hashes), pa.int64()),
             pa.array(sids, pa.int64())]
    return pa.Table.from_arrays(cols, schema=CANDIDATE_SCHEMA)


def image_shard_of_batch(image_ids, n_shards: int) -> np.ndarray:
    """Shard routing for the distributed stored-image set — plain
    hash64(image_id) (images have no domain affinity). MUST be the one
    routing used by both the live store path and checkpoint restore."""
    if not isinstance(image_ids, np.ndarray):
        image_ids = np.asarray(list(image_ids), dtype=object)
    if len(image_ids) == 0:
        return np.empty(0, dtype=np.int64)
    return (hash64_batch(image_ids) % n_shards).astype(np.int64)


class FrontierShardState:
    """Pure-Python shard state; wrapped by the Ray actor below. Testable
    without a Ray runtime."""

    def __init__(self, shard_id: int, respect_robots: bool,
                 robots_fetcher=None, compact_terminal: bool = False,
                 policy: tuple[int, int, int] = (6, 0, 5)):
        self.shard_id = shard_id
        self.respect_robots = respect_robots
        # the offer's `select_candidates` (k, per_domain_cap, max_attempt):
        # the crawl's batch size, per-domain cap and max attempt count
        self.policy = policy
        # production-scale mode (CrawlPipeline result_lists=False):
        # PROCESSED/FAILED records demote to url_hash → packed
        # (status<<32 | attempt) — terminal rows are never re-selected and
        # only answer membership + status totals, so the full Python row
        # (~300 B of url/domain/tags/error objects) is dead weight that
        # would otherwise hold the whole crawl history per shard. Full
        # per-URL detail stays in the checkpoint parquet. Test/conformance
        # mode keeps full rows (seen_entries needs them).
        self.compact_terminal = compact_terminal
        self.terminal: dict[str, int] = {}
        # None → synthetic-web robots rules (the sandbox "network");
        # a sources.robots.RobotsFetcher → live per-domain /robots.txt
        # through the SAME HttpWeb transport the fetch stage uses
        self.robots_fetcher = robots_fetcher
        # entries cached since the last apply_round drain — robots
        # DECISIONS are crawl state: they persist per round so restore
        # replays the ORIGINAL rules instead of re-consulting a network
        # whose answers may have changed (http mode would otherwise make
        # resumed denial nondeterministic)
        self._robots_new: list[tuple[str, list[str], float]] = []
        self.records: dict[str, list] = {}
        self.heap: list[tuple] = []  # (neg_priority, attempt, url_hash) lazy-deleted
        self.cuckoo = CuckooFilter(SEEN_CAPACITY)
        # domain → (rules, crawl-delay seconds); rules may carry
        # '!'-prefixed Allow entries and '*'/'$' wildcards (sources.robots)
        self.robots_cache: dict[str, tuple[list[str], float]] = {}
        # domain → monotonic expiry for TRANSIENT verdicts (5xx /
        # unreachable robots): served from cache until then, re-consulted
        # after, and never persisted as crawl state
        self._robots_expiry: dict[str, float] = {}
        # distributed stored-image set (SURVEY.md ST4): the SAVED-vs-DUP
        # image decision lives on the shards, not the driver, routed by
        # hash64(image_id)
        self.stored_images: set[str] = set()

    # ------------------------------------------------------------- insert

    def _robots_entry(self, domain: str,
                      url: str | None = None) -> tuple[list[str], float]:
        """(Disallow prefixes, Crawl-delay seconds) for `domain`, cached
        per shard. In pooled http mode (PooledRobotsFetcher) a cache
        miss asks the domain's shared RobotsCacheActor, so the NETWORK
        sees one fetch per domain per crawl even when hot-domain salting
        spreads the domain over several shards — the per-shard cache
        here just avoids repeat remote gets. Scheme for the live fetch
        comes from the first candidate url seen for the domain."""
        import time as _time

        entry = self.robots_cache.get(domain)
        if entry is not None and domain in self._robots_expiry \
                and _time.monotonic() >= self._robots_expiry[domain]:
            # transient (5xx/unreachable) verdict aged out → re-consult
            del self.robots_cache[domain]
            del self._robots_expiry[domain]
            entry = None
        if entry is None:
            transient = False
            if self.robots_fetcher is not None:
                scheme = (url.split("://", 1)[0]
                          if url and "://" in url else "http")
                rules, delay, transient = self.robots_fetcher.fetch_rules_full(
                    domain, scheme)
                entry = (rules, delay)
            else:
                from ..sources.synthweb import robots_disallow

                entry = (robots_disallow(domain), 0.0)
            self.robots_cache[domain] = entry
            if transient:
                from ..sources.robots import TRANSIENT_TTL_S

                self._robots_expiry[domain] = _time.monotonic() + TRANSIENT_TTL_S
            else:
                self._robots_new.append((domain, list(entry[0]), entry[1]))
        return entry

    def drain_robots_entries(self) -> list[tuple[str, list[str], float]]:
        """Robots entries cached since the last drain — `apply_round`
        returns them and the driver persists them per round
        (robots/round=NNNNNN.parquet) so restore pre-seeds the cache with
        the ORIGINAL decisions."""
        out, self._robots_new = self._robots_new, []
        return out

    def insert_candidates(self, cand: pa.Table, maybe_seen=None) -> dict:
        """Insert-if-absent for a routed candidate batch.

        ``cand``: a `candidate_table` (its ``shard`` column is not read).
        ``maybe_seen``: bloom verdicts — False is authoritative "new", so
        the exact probe is skipped for those rows (the 10^10-scale fast
        path).
        Returns counter deltas {discovered, robots_denied, exact_probes}.
        """
        n = len(cand)
        if n == 0:
            return dict(NO_INSERT)
        hashes = cand.column("url_hash").to_pylist()
        urls = cand.column("url").to_pylist()
        domains = cand.column("domain").to_pylist()
        tags = cand.column("tags").to_pylist()
        priority = cand.column("priority").to_pylist()
        h64 = cand.column("hash64").to_numpy()
        if maybe_seen is None:
            maybe_seen = np.ones(n, dtype=bool)
        # cuckoo pre-probe only for bloom-positive rows
        cuckoo_hit = np.zeros(n, dtype=bool)
        idx_maybe = np.flatnonzero(maybe_seen)
        if len(idx_maybe):
            cuckoo_hit[idx_maybe] = self.cuckoo.contains_many(h64[idx_maybe])
        discovered = 0
        robots_denied = 0
        exact_probes = 0
        new_h64 = []
        batch_seen: set[str] = set()  # ST2: within-call dedup (URLStore.java:154-157)
        for i in range(n):
            h = hashes[i]
            if h in batch_seen:
                continue
            batch_seen.add(h)
            if cuckoo_hit[i]:
                exact_probes += 1
                if h in self.records or h in self.terminal:
                    continue  # true positive → already seen
            rec = [urls[i], domains[i], tags[i], priority[i], S.QUEUED, 0,
                   None]
            if self.respect_robots and S.robots_denied(
                    urls[i], self._robots_entry(domains[i], urls[i])[0]):
                rec[R_STATUS] = S.FAILED
                rec[R_ERROR] = S.ROBOTS_ERROR
                robots_denied += 1
            else:
                heapq.heappush(self.heap, (-rec[R_PRIORITY], 0, h))
            self.records[h] = rec
            new_h64.append(int(h64[i]))
            discovered += 1
        if new_h64:
            self.cuckoo.add_many(np.asarray(new_h64, dtype=np.int64))
        return {
            "discovered": discovered,
            "robots_denied": robots_denied,
            "exact_probes": exact_probes,
        }

    # ------------------------------------------------------------ select

    def select_candidates(self, k: int, per_domain_cap: int,
                          max_attempt: int) -> pa.Table:
        """Peek this shard's top-k eligible rows in the pinned order,
        honoring the per-domain cap locally, as an `OFFER_SCHEMA` table.
        Does NOT change status — the driver merges the shards' offers,
        re-applies the cap globally (for salted domains) and sends the
        final picks as the ``mark`` part of the round's ``apply_round``
        message."""
        taken: list[tuple] = []
        per_domain: Counter = Counter()
        popped: list[tuple] = []
        while self.heap and len(taken) < k:
            entry = heapq.heappop(self.heap)
            neg_p, attempt, h = entry
            rec = self.records.get(h)
            if (
                rec is None
                or rec[R_STATUS] != S.QUEUED
                or rec[R_ATTEMPT] != attempt
                or -neg_p != rec[R_PRIORITY]
            ):
                continue  # stale lazy-deleted entry
            if rec[R_ATTEMPT] >= max_attempt:
                continue
            popped.append(entry)
            if per_domain_cap and per_domain[rec[R_DOMAIN]] >= per_domain_cap:
                continue
            per_domain[rec[R_DOMAIN]] += 1
            taken.append((h, rec))
        # push back everything valid we popped (still QUEUED until marked)
        for entry in popped:
            heapq.heappush(self.heap, entry)
        return pa.table({
            "url_hash": [h for h, _ in taken],
            "url": [r[R_URL] for _, r in taken],
            "domain": [r[R_DOMAIN] for _, r in taken],
            "priority": [r[R_PRIORITY] for _, r in taken],
            "attempt": [r[R_ATTEMPT] for _, r in taken],
            # robots Crawl-delay (ms) for the row's domain — populated at
            # insert time when respect_robots is on; the fetch stage paces
            # max(config politeness delay, this). Pacing affects WALL
            # CLOCK only, never crawl order (conformance-safe). No robots
            # fetch happens here: unknown domains pace at the config rate.
            "crawl_delay_ms": [
                int(self.robots_cache.get(r[R_DOMAIN], (None, 0.0))[1] * 1000)
                for _, r in taken
            ],
            "shard": [self.shard_id] * len(taken),
        }, schema=OFFER_SCHEMA)

    def mark_selected(self, url_hashes: list[str]) -> None:
        for h in url_hashes:
            rec = self.records[h]
            rec[R_STATUS] = S.PROCESSING

    # ---------------------------------------------------------- complete

    def complete(self, rows: dict) -> None:
        """Apply fetch outcomes: url_hash, status, error, tags, attempt.
        Reference markProcessed (URLStore.java:171-183): recomputed tags are
        written back, attempt incremented. (MAX_ATTEMPT accounting happens
        in CrawlPipeline._harvest, not here.) In compact_terminal mode,
        PROCESSED/FAILED rows demote to the packed terminal dict."""
        for i, h in enumerate(rows["url_hash"]):
            st = int(rows["status"][i])
            at = int(rows["attempt"][i])
            if self.compact_terminal and st in (S.PROCESSED, S.FAILED):
                self.records.pop(h, None)
                self.terminal[h] = (st << 32) | at
                continue
            rec = self.records[h]
            rec[R_STATUS] = st
            rec[R_ERROR] = rows["error"][i]
            rec[R_TAGS] = list(rows["tags"][i])
            rec[R_ATTEMPT] = at

    def requeue_orphans(self) -> int:
        """Resume semantics (URLStore.java:54-58): PROCESSING → QUEUED."""
        n = 0
        for h, rec in self.records.items():
            if rec[R_STATUS] == S.PROCESSING:
                rec[R_STATUS] = S.QUEUED
                heapq.heappush(self.heap, (-rec[R_PRIORITY], rec[R_ATTEMPT], h))
                n += 1
        return n

    # ---------------------------------------------- stored membership

    def note_stored(self, image_ids: list[str]) -> dict:
        """Record stored images routed to this shard, returning was-NEW
        flags in input order (the reference's SAVED_IMAGES vs
        DUP_IMAGE_REFS decision, WarcStorageManager.java:59-75 —
        distributed). Input order is the round's store order, so
        within-call duplicates resolve exactly like the sequential
        oracle."""
        image_new = []
        for i in image_ids:
            new = i not in self.stored_images
            if new:
                self.stored_images.add(i)
            image_new.append(new)
        return {"image_new": image_new}

    # -------------------------------------------------------------- round

    def apply_round(self, msg: dict) -> dict:
        """The round's one call to this shard, in the reference's harvest
        order (J/DumbCrawler.java:81-126): mark the selected rows
        PROCESSING, `complete` the fetched ones, `note_stored`, then
        `insert_candidates`, hand back the robots entries cached since
        the last call, and peek the next offer. Every key of ``msg`` is
        optional:

          mark            url_hashes the driver selected from this shard
          complete        fetch outcome rows (see `complete`)
          images          stored image ids, in store order
          cand, maybe_seen   this shard's rows of a `candidate_table` as
                          one Arrow IPC stream buffer (`rayutil.to_ipc`)
                          + their bloom verdicts

        Exact because nothing touches a shard between the peek that ended
        its previous call and this one. Returns the `note_stored` flags,
        the `insert_candidates` deltas (zero without ``cand``),
        ``robots`` and ``offer``: `select_candidates` under ``policy`` as
        one Arrow IPC stream buffer."""
        self.mark_selected(msg.get("mark", ()))
        if "complete" in msg:
            self.complete(msg["complete"])
        out = self.note_stored(msg.get("images", ()))
        out.update(self.insert_candidates(from_ipc(msg["cand"]),
                                          msg.get("maybe_seen"))
                   if "cand" in msg else NO_INSERT)
        out["robots"] = self.drain_robots_entries()
        out["offer"] = to_ipc(self.select_candidates(*self.policy))
        return out

    # ------------------------------------------------------- restore

    def record_hash64(self) -> np.ndarray:
        """hash64 of every record key — the driver rebuilds its global
        bloom from these (one compact int64 array per shard, in the
        `restore_from_ckpt` reply) instead of re-reading the insert
        history."""
        hs = list(self.records.keys()) + list(self.terminal.keys())
        return hash64_batch(hs) if hs else np.empty(0, dtype=np.int64)

    def restore_from_ckpt(self, ckpt_dir: str, n_shards: int,
                          hot_domains: frozenset) -> dict:
        """Distributed resume: THIS shard replays its own keyed partition
        of the checkpoint's delta files — inserts in round order (each
        round rebuilt by `candidate_table` at the CURRENT shard count,
        keeping this shard's rows, so a resharded resume routes like a
        live crawl) through the live `insert_candidates` path (with the
        robots cache PRE-SEEDED from the persisted per-round entries, so
        denial re-applies from the ORIGINAL decisions, never the current
        network), then updates filtered to owned records, then the stored
        image set from the crawl rounds' `images` fragments. The driver
        never materializes the frontier history; every shard reads the
        shared delta files in parallel (read amplification n_shards×, the
        shared-storage trade-off for zero driver funneling) and does
        insert/update row WORK only on its own partition. Returns the
        shard's first ``offer`` (as `apply_round`) and its records'
        ``hash64`` (`record_hash64`) for the driver's bloom."""
        import os

        from ..sources.warc import IMPORT_ROUND
        from .ckptio import read_round, round_entries

        # two-pass robots seed: rows THIS shard decided live replay
        # exactly (salted hot domains can hold different decisions per
        # shard); rows from other shards fill remaining gaps — needed
        # when the shard count changed and this shard now owns domains it
        # never fetched; first writer wins, matching round replay order
        own: list[tuple] = []
        other: list[tuple] = []
        for _rnd, path in round_entries(os.path.join(ckpt_dir, "robots")):
            t = read_round(path)
            doms = t.column("domain").to_pylist()
            pref = t.column("prefixes").to_pylist()
            dls = [d / 1000.0 for d in t.column("delay_ms").to_pylist()]
            sids = t.column("shard").to_pylist()
            for row in zip(doms, pref, dls, sids):
                (own if row[3] == self.shard_id else other).append(row[:3])
        for rows in (own, other):
            for d, p, s in rows:
                self.robots_cache.setdefault(d, (list(p), float(s)))

        for _rnd, path in round_entries(
                os.path.join(ckpt_dir, "frontier_inserts")):
            t = read_round(path)
            cand = candidate_table(
                *(t.column(c) for c in CANDIDATE_SCHEMA.names[:5]),
                n_shards, hot_domains)
            mine = cand.filter(pa.array(
                cand.column("shard").to_numpy() == self.shard_id))
            self.insert_candidates(mine)
        for _rnd, path in round_entries(
                os.path.join(ckpt_dir, "frontier_updates")):
            rows = read_round(path, columns=list(UPDATE_COLUMNS)).to_pydict()
            keep = [i for i, h in enumerate(rows["url_hash"])
                    if h in self.records or h in self.terminal]
            if keep:
                self.complete({k: [v[i] for i in keep]
                               for k, v in rows.items()})
        # stored images from the crawl's own rounds (WARC imports at
        # IMPORT_ROUND were never stored by this crawl), routed by
        # hash64(image_id) % n_shards
        for _rnd, path in round_entries(os.path.join(ckpt_dir, "images"),
                                        after=IMPORT_ROUND):
            t = read_round(path, columns=["image_id"])
            ids = t.column("image_id").to_numpy(zero_copy_only=False)
            if len(ids):
                own = image_shard_of_batch(ids, n_shards) == self.shard_id
                self.stored_images.update(ids[own].tolist())
        self.requeue_orphans()
        return {"offer": to_ipc(self.select_candidates(*self.policy)),
                "hash64": self.record_hash64()}

    # ------------------------------------------------------ observability

    def status_counts(self) -> dict:
        c = Counter(rec[R_STATUS] for rec in self.records.values())
        c.update(v >> 32 for v in self.terminal.values())
        return {int(k): int(v) for k, v in c.items()}

    def seen_entries(self) -> dict:
        """url_hash → (status, attempt, error, tags_joined, priority) —
        the conformance seen-set view (matches OracleResult.seen_entry).
        Unavailable in compact_terminal mode (terminal rows keep only
        status+attempt; full detail lives in the checkpoint)."""
        if self.terminal:
            raise RuntimeError(
                "seen_entries() needs full rows; this shard runs "
                "compact_terminal mode — read the checkpoint instead")
        return {
            h: (r[R_STATUS], r[R_ATTEMPT], r[R_ERROR], ",".join(r[R_TAGS]), r[R_PRIORITY])
            for h, r in self.records.items()
        }


def make_frontier_actor():
    """Ray actor wrapper (created lazily so the module imports without Ray)."""
    import ray

    @ray.remote
    class FrontierShard:
        def __init__(self, shard_id: int, respect_robots: bool,
                     policy: tuple[int, int, int],
                     compact_terminal: bool = False,
                     robots_pool: list | None = None):
            # robots_pool: handles to the crawl's shared RobotsCacheActor
            # pool (http mode) — each domain's robots.txt is fetched from
            # the network ONCE PER CRAWL globally and every shard applies
            # the same verdict, even for hot domains salted over several
            # shards.
            fetcher = None
            if robots_pool is not None:
                from ..sources.robots import PooledRobotsFetcher

                fetcher = PooledRobotsFetcher(robots_pool)
            self.state = FrontierShardState(shard_id, respect_robots,
                                            fetcher,
                                            compact_terminal=compact_terminal,
                                            policy=policy)

        # per round: one call, whose reply carries the next offer
        def apply_round(self, msg):
            return self.state.apply_round(msg)

        def restore_from_ckpt(self, ckpt_dir, n_shards, hot_domains):
            return self.state.restore_from_ckpt(ckpt_dir, n_shards,
                                                hot_domains)

        def status_counts(self):
            return self.state.status_counts()

        def seen_entries(self):
            return self.state.seen_entries()

    return FrontierShard
