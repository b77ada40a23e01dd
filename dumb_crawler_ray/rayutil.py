"""Ray worker-environment helpers shared by all pipeline stages."""

from __future__ import annotations

import contextlib
import os

import pyarrow as pa


def to_ipc(table: pa.Table) -> bytes:
    """``table`` as one Arrow IPC stream buffer — the form a round's small
    tables cross an actor call in. Ray pickles ``bytes`` as one buffer,
    where a ``pa.Table`` goes through Ray's Arrow reducer, which walks
    every column, chunk and buffer and costs far more than a 4–200-row
    table carries."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue().to_pybytes()


def from_ipc(buf: bytes) -> pa.Table:
    """The table `to_ipc` encoded; its columns view ``buf`` (zero-copy)."""
    return pa.ipc.open_stream(buf).read_all()


def pkg_parent_dir() -> str:
    import dumb_crawler_ray

    return os.path.dirname(os.path.dirname(os.path.abspath(dumb_crawler_ray.__file__)))


def _workers_can_import() -> bool:
    """True when Ray workers will already find the package: its parent dir
    is the current working directory (workers inherit cwd in local mode) or
    is on the inherited PYTHONPATH."""
    parent = pkg_parent_dir()
    if os.path.abspath(os.getcwd()) == parent:
        return True
    return parent in os.environ.get("PYTHONPATH", "").split(os.pathsep)


def actor_pool_size(frac: float = 0.4, lo: int = 2, hi: int = 12) -> int:
    """Default actor-pool concurrency: ~40% of cluster CPUs, clamped.
    Pools sized at or above the CPU count starve their own upstream
    parquet read (measured 2.5× slower at 30 actors / 32 CPUs); tiny
    fixed pools serialize the stage on big machines. Falls back to
    os.cpu_count() when Ray isn't initialized yet (graph build time)."""
    import ray

    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 4))
    else:
        cpus = os.cpu_count() or 4
    return max(lo, min(hi, int(cpus * frac)))


def remote_kwargs() -> dict:
    """kwargs to splice into map_batches(...)/ray.remote(...).options(...)
    so workers can import this package even when the driver put it on
    sys.path manually (driver-local sys.path does NOT propagate to
    workers). Empty when workers can already import it — a runtime_env
    forces dedicated worker processes, which is per-stage startup cost we
    skip when unnecessary."""
    if _workers_can_import():
        return {}
    parent = pkg_parent_dir()
    existing = os.environ.get("PYTHONPATH", "")
    path = parent if not existing else f"{parent}{os.pathsep}{existing}"
    return {"runtime_env": {"env_vars": {"PYTHONPATH": path}}}


def hash_partition_count() -> int:
    """Partition count for one keyed hash exchange: half the cluster's
    CPUs, floor 2, cap 32. Hash-shuffle partitions are backed by
    aggregator actors; more partitions than CPUs deadlocks a small
    cluster."""
    import ray

    return max(2, min(32, int(ray.cluster_resources().get("CPU", 4) / 2)))


@contextlib.contextmanager
def hash_shuffle():
    """Scope ``ShuffleStrategy.HASH_SHUFFLE`` on the current DataContext,
    which a keyed ``repartition(keys=...)`` needs in order to plan; the
    previous strategy comes back on exit, also on error.

    This is the one place the ops suite sets the shuffle strategy. Two
    rules go with it:

    - a dataset captures the DataContext it was created in, so the WHOLE
      chain, reads included, must be built inside the scope — a handle
      made before it still plans the keyed repartition under the default
      strategy and refuses it;
    - a dataset materialized inside the scope keeps the scoped strategy,
      so downstream sorts and groupbys would plan as hash shuffles with
      the default 200 aggregator partitions, which deadlocks a small
      cluster. Rebuild it from its plasma blocks (``from_arrow_refs``,
      zero-copy) after the scope ends, as `keyed_colocate` does.

    Single-chain sites call `keyed_colocate`; only iterative builds
    (min-label propagation, PageRank) hold the scope themselves."""
    import ray

    ctx = ray.data.DataContext.get_current()
    prev = ctx.shuffle_strategy
    ctx.shuffle_strategy = ray.data.context.ShuffleStrategy.HASH_SHUFFLE
    try:
        yield
    finally:
        ctx.shuffle_strategy = prev


def keyed_colocate(build_fn):
    """Run ``build_fn()`` — a Dataset chain containing a keyed
    ``repartition(keys=...)`` — under `hash_shuffle`, materialize it,
    and return a dataset rebuilt from the plasma blocks, so later
    operations plan under the restored default strategy."""
    import ray

    with hash_shuffle():
        mat = build_fn().materialize()
    return ray.data.from_arrow_refs(list(mat.to_arrow_refs()))
