"""Shared pieces of the benchmark: the Ray session, process-tree CPU and
driver RSS readings, the watchdog, phase spans and small statistics."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".bench_cache")

# 1 logical CPU deadlocks ops.dedup.minhash_near_dup_pairs (its actor-pool
# map feeds a hash shuffle and the two wait on each other); 4 is the
# smallest count at which the ops workload finishes, and the value
# tests/conftest.py uses.
NUM_CPUS = 4
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# The benchmark keeps its files inside the checkout, Ray's session files
# too. But the session dir holds unix sockets, whose paths are limited to
# ~107 bytes, and the session name adds ~65: a checkout deeper than this
# has to keep Ray's default temp dir.
_MAX_RAY_TMP_LEN = 40


def _psutil():
    import ray

    vendored = os.path.join(os.path.dirname(ray.__file__), "thirdparty_files")
    if vendored not in sys.path:
        sys.path.append(vendored)
    import psutil

    return psutil


def _is_ray_worker(cmdline: list) -> bool:
    # a worker renames itself "ray::<task or actor>" once it is up; before
    # that it is "<python> [-u] .../default_worker.py ..."
    return bool(cmdline) and (cmdline[0].startswith("ray::") or any(
        c.endswith("default_worker.py") for c in cmdline[:3]))


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and every Ray worker process
    below it. Ray's daemons (GCS, raylet, agents) are left out; workers
    that have exited count through the children_* fields of the daemon
    that reaped them, so killed actors are not lost."""
    psutil = _psutil()
    me = psutil.Process()
    total = 0.0
    for p in [me] + me.children(recursive=True):
        try:
            t = p.cpu_times()
            own = p.pid == me.pid or _is_ray_worker(p.cmdline())
        except psutil.NoSuchProcess:
            continue
        total += t.children_user + t.children_system
        if own:
            total += t.user + t.system
    return total


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants. Ray's
    workers and agents outlive their raylet by a moment after
    `ray.shutdown()`; adopted, they stay visible to `stop_all()`, which
    waits for them."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER (Linux)
    except (OSError, AttributeError):
        pass


def stop_all(timeout_s: float = 20.0) -> None:
    """End every process this one started, and wait until each has
    ended: the multiprocessing resource tracker (it would otherwise exit
    only after this process) and every descendant, terminated and then
    killed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    psutil = _psutil()
    me = psutil.Process()
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        procs = me.children(recursive=True)
        if not procs:
            return
        for sig in ("terminate", "kill"):
            for p in procs:
                try:
                    getattr(p, sig)()
                except psutil.NoSuchProcess:
                    pass
            _, procs = psutil.wait_procs(procs, timeout=2.0)
            if not procs:
                break


class Watchdog:
    """Ends the process (no result line, exit 3) if a run hangs, killing
    every process it started first."""

    def __init__(self, limit_s: float):
        self._timer = threading.Timer(limit_s, self._fire)
        self._timer.daemon = True
        self._timer.start()

    @staticmethod
    def _fire():
        print("perfbench: run exceeded its time limit", file=sys.stderr,
              flush=True)
        stop_all()
        os._exit(3)

    def cancel(self):
        self._timer.cancel()


def ray_start() -> float:
    """Start the one Ray session of this process; returns its start time
    in seconds. Workers import the package from the checkout root."""
    import logging

    import ray

    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    tmp = os.path.join(ROOT, ".bench_ray")
    if len(tmp) <= _MAX_RAY_TMP_LEN:
        kwargs["_temp_dir"] = tmp
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             configure_logging=False, **kwargs)
    dt = time.perf_counter() - t0
    logging.getLogger("ray").setLevel(logging.ERROR)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return dt


def ray_stop() -> None:
    import ray

    ray.shutdown()


# ------------------------------------------------------------------ spans

class Spans:
    """In-memory phase spans: (name, start, end, parent index). Written
    out once when the run ends."""

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.rows)
        self.rows.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[idx][2] = time.perf_counter()

    def total_ms(self, name: str | None = None,
                 under: str | None = None) -> float:
        """Time in spans called `name` (any name when None), only those
        whose parent span is called `under` when that is given."""
        return 1000.0 * sum(
            e - s for n, s, e, p in self.rows
            if (name is None or n == name)
            and (under is None or (p >= 0 and self.rows[p][0] == under)))

    def top_level_ms(self, names, t0: float, t1: float) -> float:
        """Time the top-level spans named in `names` cover inside
        [t0, t1]."""
        return 1000.0 * sum(
            max(0.0, min(e, t1) - max(s, t0)) for n, s, e, p in self.rows
            if p == -1 and n in names)


def wrap_method(obj, name: str, before=None, after=None, spans=None):
    """Install an instance-level wrapper around ``obj.<name>``: calls
    ``before()`` / ``after()`` around it and records a span when
    ``spans`` is given. The class and the package are left untouched."""
    orig = getattr(obj, name)

    def wrapped(*args, **kwargs):
        if before is not None:
            before()
        if spans is None:
            out = orig(*args, **kwargs)
        else:
            with spans.span(name):
                out = orig(*args, **kwargs)
        if after is not None:
            after()
        return out

    setattr(obj, name, wrapped)


# ------------------------------------------------------------- statistics

def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p95/p90/p75 with at least ten of `n` samples
    beyond it, or None."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) >= 1000:
            return q
    return None


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return float(s[k])
