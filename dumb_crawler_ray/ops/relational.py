"""Relational pipelines over the TPC-H-ish test tables — Ray Data native.

Patterns exercised (the wide-step repertoire the crawl engine also uses,
SURVEY.md §2.5/§4):
- column-pruned `read_parquet` (only needed columns leave storage)
- derived columns via vectorized `map_batches(batch_format="pyarrow", **remote_kwargs())`
- partial-aggregate-friendly `groupby().aggregate(...)`
- broadcast hash joins: the SMALL side is `ray.put` once and read inside
  `map_batches` — no all-to-all shuffle for dimension joins
- pinned-order sort + limit for top-k

Money columns are converted to INTEGER cents before aggregation so sums
are exact and bit-identical to the DuckDB oracle regardless of summation
order (float sums are not associative; integer sums are). Every function
takes `sf_dir` and returns a `ray.data.Dataset` whose column names match
the oracle SQL in `ops/registry.py` exactly.
"""

from __future__ import annotations

import pyarrow as pa

from ..rayutil import hash_partition_count, keyed_colocate, remote_kwargs
import pyarrow.compute as pc


def _read(sf_dir: str, name: str, columns=None):
    import ray

    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def _cents(col) -> pa.Array:
    """Exact 2-decimal double → integer cents."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


_PARTIAL_FINAL = {"sum": "Sum", "count": "Sum", "min": "Min", "max": "Max"}


def partial_aggregate(ds, keys: list[str], aggs: list[tuple[str, str, str]],
                      derive=None):
    """The partial/combiner aggregation pattern (SURVEY.md §2.5 A2/A5):
    each Arrow batch is pre-aggregated INSIDE map_batches (pyarrow
    group_by — vectorized, local), so the all-to-all groupby shuffle only
    moves one row per (block, key) instead of every input row. Measured
    ~3× on the sf0.1 pricing summary; at 100 TB it is the difference
    between shuffling gigabytes and shuffling the whole table.

    ``aggs``: (column, op, output_alias) with op ∈ sum|count|min|max;
    ``derive``: optional pa.Table → pa.Table projection applied per batch
    before the partial aggregation. Integer aggregates stay exact under
    the two-level reassociation; count re-sums partial counts.
    """
    import ray.data.aggregate as agg

    def partial(t: pa.Table) -> pa.Table:
        if derive is not None:
            t = derive(t)
        specs = []
        for col, op, _alias in aggs:
            specs.append((col, "count" if op == "count" else op))
        g = t.group_by(keys).aggregate(specs)
        cols = {k: g.column(k) for k in keys}
        for col, op, alias in aggs:
            cols[f"__p_{alias}"] = g.column(f"{col}_{'count' if op == 'count' else op}")
        return pa.table(cols)

    finals = [
        getattr(agg, _PARTIAL_FINAL[op])(f"__p_{alias}", alias_name=alias)
        for _col, op, alias in aggs
    ]
    return (
        ds.map_batches(partial, batch_format="pyarrow", **remote_kwargs())
        .groupby(keys if len(keys) > 1 else keys[0])
        .aggregate(*finals)
    )


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped pricing summary. disc_price is accumulated in units
    of 1e-4 dollars (cents × (100 − discount_pct)) — exact integers."""
    from ray.data.aggregate import Count, Sum

    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def derive(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t.column("l_quantity")), pa.int64())
        price_c = _cents(t.column("l_extendedprice"))
        disc_pct = pc.cast(
            pc.round(pc.multiply(t.column("l_discount"), pa.scalar(100.0))), pa.int64()
        )
        disc_price_c4 = pc.multiply(
            price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
        )
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": qty,
                "price_cents": price_c,
                "disc_price_c4": disc_price_c4,
            }
        )

    return partial_aggregate(
        ds,
        ["l_returnflag", "l_linestatus"],
        [
            ("qty", "sum", "sum_qty"),
            ("price_cents", "sum", "sum_base_price_cents"),
            ("disc_price_c4", "sum", "sum_disc_price_c4"),
            ("qty", "count", "count_order"),
        ],
        derive=derive,
    ).sort(["l_returnflag", "l_linestatus"])


# Dimension tables at or under this row count are broadcast (one `ray.put`
# Arrow table + vectorized `pc.index_in` lookup per batch); above it the
# plan switches to a native hash-shuffle `Dataset.join`. The same
# size-gated strategy as Spark's autoBroadcastJoinThreshold: broadcast is
# strictly faster while the build side fits comfortably in a worker heap,
# and the shuffle join is the 100×-scale path that needs no driver memory.
BROADCAST_ROW_LIMIT = 2_000_000


def _parquet_num_rows(sf_dir: str, name: str) -> int:
    """Row count from parquet FOOTER metadata only — O(files), no data read."""
    import os

    import pyarrow.parquet as pq

    root = f"{sf_dir}/{name}.parquet"
    if os.path.isdir(root):
        return sum(
            pq.ParquetFile(os.path.join(root, n)).metadata.num_rows
            for n in os.listdir(root) if n.endswith(".parquet")
        )
    return pq.ParquetFile(root).metadata.num_rows


def _broadcast_arrow(sf_dir: str, name: str, columns: list[str]):
    """`ray.put` a small table's columns ONCE as Arrow arrays (plasma,
    zero-copy per task) — never a Python dict. Empty tables broadcast as
    typed empty arrays (schema from the parquet footer)."""
    import ray

    parts: dict[str, list] = {c: [] for c in columns}
    for tb in _read(sf_dir, name, columns=columns).iter_batches(
            batch_format="pyarrow", batch_size=None):
        for c in columns:
            parts[c].append(tb.column(c).combine_chunks())
    if parts[columns[0]]:
        arrays = tuple(pa.concat_arrays(parts[c]) for c in columns)
    else:
        import pyarrow.dataset as pads

        schema = pads.dataset(f"{sf_dir}/{name}.parquet",
                              format="parquet").schema
        arrays = tuple(pa.array([], type=schema.field(c).type)
                       for c in columns)
    return ray.put(arrays)


def _fact_dim_join(fact, sf_dir: str, dim: str, fact_key: str, dim_key: str,
                   dim_cols: list[str]):
    """fact ⨝ dimension with size-gated strategy selection (see
    BROADCAST_ROW_LIMIT). Returns a Dataset carrying fact columns plus
    `dim_cols`. The broadcast path's per-batch lookup is pure Arrow
    (`pc.index_in` + `pc.take`) — vectorized, no per-row Python."""
    import ray

    if _parquet_num_rows(sf_dir, dim) <= BROADCAST_ROW_LIMIT:
        ref = _broadcast_arrow(sf_dir, dim, [dim_key] + dim_cols)

        def attach(t: pa.Table) -> pa.Table:
            arrays = ray.get(ref)
            idx = pc.index_in(t.column(fact_key), value_set=arrays[0])
            # inner-join semantics: drop fact rows with no dimension match
            valid = pc.is_valid(idx)
            if not pc.all(valid).as_py():
                t = t.filter(valid)
                idx = idx.filter(valid)
            cols = {c: t.column(c) for c in t.column_names}
            for j, name in enumerate(dim_cols, start=1):
                cols[name] = pc.take(arrays[j], idx)
            return pa.table(cols)

        return fact.map_batches(attach, batch_format="pyarrow",
                                **remote_kwargs())
    dim_ds = _read(sf_dir, dim, columns=[dim_key] + dim_cols)
    return fact.join(dim_ds, join_type="inner",
                     num_partitions=hash_partition_count(),
                     on=(fact_key,), right_on=(dim_key,))


def orders_by_segment(sf_dir: str):
    """orders ⨝ customer → per-market-segment order stats. customer is NOT
    a bounded dimension (it grows with SF), so the join is size-gated:
    Arrow-table broadcast + `pc.index_in` while it fits, native
    hash-shuffle `Dataset.join` beyond BROADCAST_ROW_LIMIT. The fact side
    is projected to (key, cents) first so either path moves two ints per
    row."""
    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "total_cents": _cents(t.column("o_totalprice")),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]
                   ).map_batches(derive, batch_format="pyarrow", **remote_kwargs())
    joined = _fact_dim_join(orders, sf_dir, "customer",
                            "o_custkey", "c_custkey", ["c_mktsegment"])
    return partial_aggregate(
        joined,
        ["c_mktsegment"],
        [("total_cents", "count", "n_orders"),
         ("total_cents", "sum", "sum_total_cents")],
    ).sort("c_mktsegment")


def urgent_orders_by_nation(sf_dir: str):
    """orders ⨝ customer ⨝ nation with the row filter pushed before the
    joins. customer uses the size-gated join (see _fact_dim_join); nation
    (25 rows, truly bounded) always broadcasts — both lookups are
    vectorized Arrow `pc.index_in`, no Python dicts or per-row loops."""
    def urgent_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.starts_with(t.column("o_orderpriority"), "1-"))
        return t.select(["o_custkey"])

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]
                   ).map_batches(urgent_only, batch_format="pyarrow",
                                 **remote_kwargs())
    joined = _fact_dim_join(orders, sf_dir, "customer",
                            "o_custkey", "c_custkey", ["c_nationkey"])
    with_nation = _fact_dim_join(joined, sf_dir, "nation",
                                 "c_nationkey", "n_nationkey", ["n_name"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"n_name": t.column("n_name")})

    return partial_aggregate(
        with_nation,
        ["n_name"],
        [("n_name", "count", "n_urgent")],
        derive=project,
    ).sort("n_name")


def _events_cents(sf_dir: str, extra_cols=()):
    def derive(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c) for c in extra_cols}
        cols["value_cents"] = _cents(t.column("value"))
        return pa.table(cols)

    return (
        _read(sf_dir, "events", columns=list(extra_cols) + ["value"])
        .map_batches(derive, batch_format="pyarrow", **remote_kwargs())
    )


def events_by_type(sf_dir: str):
    return partial_aggregate(
        _events_cents(sf_dir, ("event_type",)),
        ["event_type"],
        [("value_cents", "count", "n"),
         ("value_cents", "sum", "sum_value_cents"),
         ("value_cents", "min", "min_value_cents"),
         ("value_cents", "max", "max_value_cents")],
    ).sort("event_type")


def top_users(sf_dir: str, k: int = 10):
    """Top-k users by total event value; integer sums make the ordering
    exact, ties pinned by ascending user_id."""
    from ray.data.aggregate import Count, Sum

    return (
        partial_aggregate(
            _events_cents(sf_dir, ("user_id",)),
            ["user_id"],
            [("value_cents", "sum", "total_value_cents"),
             ("value_cents", "count", "n_events")],
        )
        .sort(["total_value_cents", "user_id"], descending=[True, False])
        .limit(k)
    )


def events_hourly_window(sf_dir: str):
    """Tumbling 1-hour windowed aggregate per event type — the streaming-
    style operator the reference lacks, expressed as map_batches (window
    assignment is embarrassingly parallel) + groupby (SURVEY.md §2.9)."""
    from ray.data.aggregate import Count, Sum

    def window(t: pa.Table) -> pa.Table:
        floored = pc.floor_temporal(t.column("ts"), unit="hour")
        # ISO string → no timestamp-unit ambiguity across engines
        # (pyarrow %S appends fractional seconds → slice to 19 chars)
        iso = pc.utf8_slice_codeunits(
            pc.strftime(floored, format="%Y-%m-%d %H:%M:%S"), 0, 19
        )
        return pa.table(
            {
                "window_start": iso,
                "event_type": t.column("event_type"),
                "value_cents": _cents(t.column("value")),
            }
        )

    return partial_aggregate(
        _read(sf_dir, "events", columns=["ts", "event_type", "value"]),
        ["window_start", "event_type"],
        [("value_cents", "count", "n"),
         ("value_cents", "sum", "sum_value_cents")],
        derive=window,
    ).sort(["window_start", "event_type"])


def events_sliding_window(sf_dir: str, window_min: int = 60,
                          slide_min: int = 15):
    """SLIDING windowed aggregate (1 h window every 15 min) — completes
    the window repertoire next to the tumbling (`events_hourly_window`)
    and session (`user_sessions`) forms. Each event EXPLODES to the
    window/slide = 4 windows containing it inside `map_batches`
    (embarrassingly parallel), then the partial-aggregate combiner —
    shuffle volume is windows × distinct keys, never events × 4."""
    import numpy as np

    k = window_min // slide_min
    slide_us = np.int64(slide_min) * 60 * 1_000_000

    def explode(t: pa.Table) -> pa.Table:
        ts = t.column("ts").to_numpy().astype("datetime64[us]").view(np.int64)
        cents = _cents(t.column("value")).to_numpy()
        base = (ts // slide_us) * slide_us  # floor to the slide grid
        starts = (base[:, None]
                  - (np.arange(k, dtype=np.int64) * slide_us)[None, :]).ravel()
        rep_cents = np.repeat(cents, k)
        iso = np.datetime_as_string(
            starts.view("datetime64[us]").astype("datetime64[s]"), unit="s")
        iso = np.char.replace(iso, "T", " ")
        return pa.table(
            {
                "window_start": pa.array(iso.tolist(), pa.string()),
                "value_cents": pa.array(rep_cents, pa.int64()),
            }
        )

    return partial_aggregate(
        _read(sf_dir, "events", columns=["ts", "value"]),
        ["window_start"],
        [("value_cents", "count", "n"),
         ("value_cents", "sum", "sum_value_cents")],
        derive=explode,
    ).sort("window_start")


def props_k_stats(sf_dir: str):
    """Scalar-function pipeline: regex-extract the JSON `k` field from the
    props string (the expression-DSL EXTRACT pattern, SURVEY.md M3) and
    aggregate by decade bucket."""
    from ray.data.aggregate import Count, Sum

    def extract(t: pa.Table) -> pa.Table:
        ks = pc.extract_regex(t.column("props"), pattern=r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(ks, "k"), pa.int64())
        bucket = pc.multiply(
            pc.divide(k, pa.scalar(10, pa.int64())), pa.scalar(10, pa.int64())
        )
        return pa.table(
            {"k_bucket": bucket, "value_cents": _cents(t.column("value"))}
        )

    return partial_aggregate(
        _read(sf_dir, "events", columns=["props", "value"]),
        ["k_bucket"],
        [("value_cents", "count", "n"),
         ("value_cents", "sum", "sum_value_cents")],
        derive=extract,
    ).sort("k_bucket")


def order_priority_revenue(sf_dir: str, num_partitions: int | None = None):
    """lineitem ⨝ orders — BOTH sides large, so this is a genuine hash
    shuffle join (Ray Data native `Dataset.join`), not a broadcast; then
    revenue per order priority. The join key (orderkey) is the one
    partitioning key both tables share (SURVEY.md §4: pick ONE key and
    reuse it)."""
    from ray.data.aggregate import Count, Sum

    def derive(t: pa.Table) -> pa.Table:
        price_c = _cents(t.column("l_extendedprice"))
        disc_pct = pc.cast(
            pc.round(pc.multiply(t.column("l_discount"), pa.scalar(100.0))), pa.int64()
        )
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "disc_price_c4": pc.multiply(
                    price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
                ),
            }
        )

    if num_partitions is None:
        num_partitions = hash_partition_count()
    # Ray's hash-join aggregator cannot finalize over a 0-row input;
    # footer metadata makes the guard free
    if (_parquet_num_rows(sf_dir, "lineitem") == 0
            or _parquet_num_rows(sf_dir, "orders") == 0):
        return pa.table(
            {"o_orderpriority": pa.array([], pa.string()),
             "n_items": pa.array([], pa.int64()),
             "sum_disc_price_c4": pa.array([], pa.int64())}
        )
    li = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(derive, batch_format="pyarrow", **remote_kwargs())
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = li.join(orders, join_type="inner", num_partitions=num_partitions,
                     on=("l_orderkey",), right_on=("o_orderkey",))
    return partial_aggregate(
        joined,
        ["o_orderpriority"],
        [("disc_price_c4", "count", "n_items"),
         ("disc_price_c4", "sum", "sum_disc_price_c4")],
    ).sort("o_orderpriority")


def top_parts_per_brand(sf_dir: str, k: int = 3):
    """Top-k per group (rank within partition): groupby(brand).map_groups
    with a pinned total order (price DESC, partkey ASC) — the distributed
    form of a row_number() window."""
    import numpy as np

    def topk(g: pa.Table) -> pa.Table:
        price = _cents(g.column("p_retailprice")).to_numpy()
        keys = g.column("p_partkey").to_numpy()
        order = np.lexsort((keys, -price))[:k]
        return pa.table(
            {
                "p_brand": pa.array(
                    [g.column("p_brand")[0].as_py()] * len(order), pa.string()
                ),
                "rank": pa.array(range(1, len(order) + 1), pa.int64()),
                "p_partkey": pa.array(keys[order], pa.int64()),
                "price_cents": pa.array(price[order], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "part", columns=["p_brand", "p_partkey", "p_retailprice"])
        .groupby("p_brand")
        .map_groups(topk, batch_format="pyarrow", **remote_kwargs())
        .sort(["p_brand", "rank"])
    )


def user_sessions(sf_dir: str, gap_minutes: int = 30):
    """Sessionization — the stateful streaming operator expressed as a
    per-key ordered scan: groupby(user).map_groups sorts the user's events
    by time and counts gap>30min session breaks. Keyed windows never cross
    partitions, so this shape holds at any scale."""
    import numpy as np

    gap_ns = np.int64(gap_minutes) * 60 * 1_000_000_000

    def sess(g: pa.Table) -> pa.Table:
        ts = np.sort(g.column("ts").to_numpy().astype("datetime64[ns]").view(np.int64))
        n_sessions = 1 + int((np.diff(ts) > gap_ns).sum()) if len(ts) else 0
        return pa.table(
            {
                "user_id": g.column("user_id").slice(0, 1),
                "n_events": pa.array([len(ts)], pa.int64()),
                "n_sessions": pa.array([n_sessions], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", columns=["user_id", "ts"])
        .groupby("user_id")
        .map_groups(sess, batch_format="pyarrow", **remote_kwargs())
        .sort("user_id")
    )


def part_brand_stats(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": t.column("p_brand"),
                "price_cents": _cents(t.column("p_retailprice")),
                "p_size": pc.cast(t.column("p_size"), pa.int64()),
            }
        )

    return partial_aggregate(
        _read(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"]),
        ["p_brand"],
        [("price_cents", "count", "n_parts"),
         ("price_cents", "sum", "sum_price_cents"),
         ("p_size", "sum", "sum_size")],
        derive=derive,
    ).sort("p_brand")


def daily_active_users(sf_dir: str):
    """COUNT(DISTINCT) as a two-stage shuffle: groupby(day, user) collapses
    duplicates (stage 1 — the heavy shuffle shrinks to unique pairs), then
    groupby(day).count() counts survivors. Never materializes a per-group
    set anywhere."""
    from ray.data.aggregate import Count

    def derive(t: pa.Table) -> pa.Table:
        day = pc.utf8_slice_codeunits(
            pc.strftime(t.column("ts"), format="%Y-%m-%d"), 0, 10
        )
        return pa.table({"day": day, "user_id": t.column("user_id")})

    pairs = partial_aggregate(
        _read(sf_dir, "events", columns=["ts", "user_id"]),
        ["day", "user_id"],
        [("user_id", "count", "n_events")],
        derive=derive,
    )
    return (
        pairs.groupby("day")
        .aggregate(Count(alias_name="active_users"))
        .sort("day")
    )


def order_size_distribution(sf_dir: str):
    """TPC-H Q13-shaped double aggregation: lineitems per order, then the
    distribution of that count — two chained groupbys on different keys."""
    from ray.data.aggregate import Count

    per_order = partial_aggregate(
        _read(sf_dir, "lineitem", columns=["l_orderkey"]),
        ["l_orderkey"],
        [("l_orderkey", "count", "n_items")],
    )
    return (
        per_order.groupby("n_items")
        .aggregate(Count(alias_name="n_orders"))
        .sort("n_items")
    )


def event_value_quantiles(sf_dir: str):
    """Exact per-group quantiles (p50/p90/p99) over integer cents — the
    scale-safe shape: a two-stage count aggregation collapses events to a
    per-(event_type, value_cents) HISTOGRAM first (shuffle volume =
    distinct values, not rows), then tiny per-group cumsum walks pick the
    discrete quantiles. Matches DuckDB `quantile_disc` exactly (rank
    ceil(q·n), verified index formula). For an unbounded real-valued
    domain the fixed-point histogram swaps for a mergeable t-digest; money
    in cents is a bounded domain, so exact is affordable at any scale."""
    import numpy as np

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "value_cents": _cents(t.column("value")),
            }
        )

    hist = partial_aggregate(
        _read(sf_dir, "events", columns=["event_type", "value"]),
        ["event_type", "value_cents"],
        [("value_cents", "count", "n")],
        derive=derive,
    )

    def quantiles(g: pa.Table) -> pa.Table:
        v = g.column("value_cents").to_numpy()
        c = g.column("n").to_numpy()
        order = np.argsort(v)
        v, c = v[order], c[order]
        cum = np.cumsum(c)
        total = int(cum[-1])
        out = {}
        for name, q in (("p50_cents", 0.5), ("p90_cents", 0.9),
                        ("p99_cents", 0.99)):
            rank = min(total, int(np.ceil(q * total)))  # 1-based disc rank
            out[name] = pa.array([int(v[np.searchsorted(cum, rank)])],
                                 pa.int64())
        return pa.table({"event_type": g.column("event_type").slice(0, 1), **out})

    return (
        hist.groupby("event_type")
        .map_groups(quantiles, batch_format="pyarrow", **remote_kwargs())
        .sort("event_type")
    )


def supplier_nation_stats(sf_dir: str):
    """supplier ⨝ nation ⨝ region rollup — exercises the remaining TPC-H
    dimension tables through the size-gated join (both dims are bounded →
    Arrow broadcast lookups), then a two-key partial aggregation."""
    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_nationkey": t.column("s_nationkey"),
                "acctbal_cents": _cents(t.column("s_acctbal")),
            }
        )

    supp = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"]
                 ).map_batches(derive, batch_format="pyarrow", **remote_kwargs())
    with_nation = _fact_dim_join(supp, sf_dir, "nation",
                                 "s_nationkey", "n_nationkey",
                                 ["n_name", "n_regionkey"])
    with_region = _fact_dim_join(with_nation, sf_dir, "region",
                                 "n_regionkey", "r_regionkey", ["r_name"])

    def project(t: pa.Table) -> pa.Table:
        return t.select(["r_name", "n_name", "acctbal_cents"])

    return partial_aggregate(
        with_region,
        ["r_name", "n_name"],
        [("acctbal_cents", "count", "n_suppliers"),
         ("acctbal_cents", "sum", "sum_acctbal_cents")],
        derive=project,
    ).sort(["r_name", "n_name"])


def high_value_week(sf_dir: str, start: str = "2024-01-08",
                    end: str = "2024-01-15", min_value: float = 100.0):
    """Predicate PUSHDOWN at the read (SURVEY.md §4 "prune at the read"):
    the time-range + value filter is handed to `read_parquet` as an Arrow
    dataset expression, so parquet row groups outside the range never
    leave storage — the incremental/backfill access pattern. Then a plain
    per-type aggregate over the surviving rows."""
    import datetime as dt

    import pyarrow.dataset as pads
    import ray

    lo = dt.datetime.fromisoformat(start)
    hi = dt.datetime.fromisoformat(end)
    expr = (
        (pads.field("ts") >= pa.scalar(lo, pa.timestamp("us")))
        & (pads.field("ts") < pa.scalar(hi, pa.timestamp("us")))
        & (pads.field("value") >= pa.scalar(min_value))
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "value"],
        filter=expr,
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "value_cents": _cents(t.column("value")),
            }
        )

    return partial_aggregate(
        ds,
        ["event_type"],
        [("value_cents", "count", "n"),
         ("value_cents", "sum", "sum_value_cents")],
        derive=derive,
    ).sort("event_type")


def event_funnel(sf_dir: str):
    """Ordered conversion funnel (view → click-after-view →
    purchase-after-that-click): stage reached per user via a
    groupby(user).map_groups sorted scan — the same keyed-ordered-scan
    shape as sessionization, so it holds at any scale — then a tiny
    stage-count aggregation. Oracle: chained min-after-min joins."""
    import numpy as np
    from ray.data.aggregate import Sum

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["view", "click", "purchase"]))
        t = t.filter(keep)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "event_type": t.column("event_type"),
            }
        )

    def stage(g: pa.Table) -> pa.Table:
        ts = g.column("ts").to_numpy()
        et = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        views = np.sort(ts[et == "view"])
        reached = {"view": 0, "view_click": 0, "view_click_purchase": 0}
        if views.size:
            reached["view"] = 1
            clicks = np.sort(ts[et == "click"])
            clicks = clicks[clicks > views[0]]
            if clicks.size:
                reached["view_click"] = 1
                purchases = ts[et == "purchase"]
                if (purchases > clicks[0]).any():
                    reached["view_click_purchase"] = 1
        return pa.table(
            {
                "stage": pa.array(list(reached), pa.string()),
                "n_part": pa.array(list(reached.values()), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow", **remote_kwargs())
        .groupby("user_id")
        .map_groups(stage, batch_format="pyarrow", **remote_kwargs())
        .groupby("stage")
        .aggregate(Sum("n_part", alias_name="n_users"))
        .sort("stage")
    )


def purchase_click_asof(sf_dir: str):
    """AS-OF JOIN — an operator Ray Data has no primitive for: for every
    purchase event, the same user's latest click at-or-before it.
    Expressed as one read → side-marker filter → groupby(user).map_groups
    doing a per-key sorted `searchsorted` merge (the co-group form of
    merge-asof). Keyed time alignment never crosses partitions, so the
    shape holds at any scale; oracle = DuckDB's native ASOF JOIN."""
    import numpy as np

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array(["purchase", "click"]))
        t = t.filter(keep)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "ts": t.column("ts"),
                "is_purchase": pc.equal(t.column("event_type"), "purchase"),
            }
        )

    def asof(g: pa.Table) -> pa.Table:
        ts = g.column("ts").to_numpy()
        isp = g.column("is_purchase").to_numpy(zero_copy_only=False)
        p_ts = np.sort(ts[isp])
        c_ts = np.sort(ts[~isp])
        if c_ts.size:
            idx = np.searchsorted(c_ts, p_ts, side="right") - 1
            click = np.where(idx >= 0, c_ts.take(np.maximum(idx, 0)),
                             np.datetime64("NaT"))
        else:
            # purchases with zero clicks: ASOF LEFT JOIN ⇒ all-NULL side
            # (np.where would index into the empty array and crash)
            click = np.full(len(p_ts), np.datetime64("NaT"), dtype=ts.dtype)
        uid = g.column("user_id")[0].as_py()
        return pa.table(
            {
                "user_id": pa.array([uid] * len(p_ts), pa.int64()),
                "purchase_ts": pa.array(p_ts),
                "click_ts": pa.array(click),
            }
        )

    return (
        _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow", **remote_kwargs())
        .groupby("user_id")
        .map_groups(asof, batch_format="pyarrow", **remote_kwargs())
        .sort(["user_id", "purchase_ts"])
    )


# ------------------------------------------------------- retention cohorts

WEEK_US = 7 * 86_400 * 1_000_000  # one week of timestamp[us] ticks


def retention_cohorts(sf_dir: str, n_partitions: int | None = None):
    """Weekly retention matrix: users bucketed by FIRST-seen week
    (cohort), counted per week they were active — the week-over-week
    retention table every usage/telemetry pipeline reports.

    Scale shape: distinct (user, week) pairs collapse per block first
    (np.unique — the partial-dedup combiner), ONE keyed repartition on
    user_id co-locates each user's history, a block-local scan computes
    cohort = min(week) and emits per-(cohort, week) PARTIAL counts, and a
    final small groupby-sum lands rows = cohorts × weeks. The shuffle
    carries one (user, week) int pair per distinct pair — never events —
    and no per-user group UDF dispatch happens anywhere."""
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        us = t.column("user_id").to_numpy()
        wk = pc.cast(t.column("ts"), pa.int64()).to_numpy() // WEEK_US
        uw = np.unique(np.stack([us, wk], axis=1), axis=0)
        return pa.table({"user_id": pa.array(uw[:, 0], pa.int64()),
                         "week": pa.array(uw[:, 1], pa.int64())})

    def cohort_partials(b: pa.Table) -> pa.Table:
        empty = pa.table({"cohort": pa.array([], pa.int64()),
                          "week": pa.array([], pa.int64()),
                          "n_part": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        us = b.column("user_id").to_numpy()
        wk = b.column("week").to_numpy()
        o = np.lexsort((wk, us))
        us, wk = us[o], wk[o]
        seg = np.cumsum(np.concatenate([[False], us[1:] != us[:-1]]))
        starts = np.concatenate([[0], np.flatnonzero(np.diff(seg)) + 1])
        cohort = np.minimum.reduceat(wk, starts)[seg]
        # distinct (user, week) may still repeat across source blocks —
        # collapse again before counting
        cw = np.unique(np.stack([us, cohort, wk], axis=1), axis=0)
        key, cnt = np.unique(cw[:, 1:], axis=0, return_counts=True)
        return pa.table({"cohort": pa.array(key[:, 0], pa.int64()),
                         "week": pa.array(key[:, 1], pa.int64()),
                         "n_part": pa.array(cnt.astype(np.int64), pa.int64())})

    if n_partitions is None:
        n_partitions = hash_partition_count()
    parts = keyed_colocate(lambda: (
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id", "ts"])
        .map_batches(pairs, batch_format="pyarrow", **remote_kwargs())
        .repartition(n_partitions, keys=["user_id"])
        .map_batches(cohort_partials, batch_format="pyarrow",
                     batch_size=None, **remote_kwargs())
    ))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"cohort": t.column("cohort"),
                         "week": t.column("week"),
                         "n_users": t.column("sum(n_part)")})

    return (
        parts.groupby(["cohort", "week"]).aggregate(Sum("n_part"))
        .map_batches(finish, batch_format="pyarrow", **remote_kwargs())
        .sort(["cohort", "week"])
    )
