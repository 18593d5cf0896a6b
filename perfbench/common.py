"""Shared pieces of the benchmark: statistics, memory, spans, results.

Nothing here imports ``repro``: the run script puts ``src`` on the path
only after it has checked that the source tree is there.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import ctypes
import functools
import itertools
import json
import os
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_NAMES = ("sweep-cold", "trace-suite", "search-distinct", "search-hot")

#: Table I workload names, in registry order (pinned so that per-layer
#: metric names do not depend on importing the program first).
KERNEL_NAMES = ("ssearch34", "sw_vmx128", "sw_vmx256", "fasta34", "blast")

#: End-to-end metric names and units; every untraced run reports all.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "slo_met_pct": "%",
}

#: Per-layer metric names and units; every traced run reports all,
#: with 0 for a layer the workload does not exercise.
PER_LAYER = {
    "uarch.lane_s": "s",
    "uarch.planes_s": "s",
    "uarch.decode_s": "s",
    "uarch.lane_ns_per_instr": "ns",
    "uarch.sim_instructions": "count",
    "uarch.sim_cycles": "count",
    **{f"kernels.emit_s.{name}": "s" for name in KERNEL_NAMES},
    **{f"kernels.count_s.{name}": "s" for name in KERNEL_NAMES},
    "kernels.emit_ips": "1/s",
    "kernels.count_ips": "1/s",
    "isa.trace_instructions": "count",
    "runtime.cache_write_s": "s",
    "runtime.cache_read_s": "s",
    "runtime.cache_bytes": "bytes",
    "runtime.tasks": "count",
    "runtime.cache_hit_pct": "%",
    "runtime.retries": "count",
    "runtime.self_s": "s",
    "sweep.manifest_s": "s",
    "align.compile_ms": "ms",
    "align.scan_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_occupancy": "count",
    "serve.scan_ms": "ms",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.errors": "count",
    "cluster.hop_ms": "ms",
    "cluster.cache_hit_pct": "%",
    "cluster.memo_hit_pct": "%",
    "cluster.miss_pct": "%",
    "cluster.replica_share_pct": "%",
    "cluster.redispatches": "count",
    "cluster.failovers": "count",
    "cluster.ejections": "count",
    "serve.response_bytes_max": "bytes",
    "store.replica_rss_mb": "MB",
    "bench.generator_lag_p99_ms": "ms",
    "bench.tracing_overhead_pct": "%",
    "bench.failed_pct": "%",
    "bench.reference_s": "s",
    "client.latency_p50_ms": "ms",
    "client.latency_p99_ms": "ms",
}


class CheckFailed(Exception):
    """An output of the program differs from its pinned or reference value."""


@dataclass
class Outcome:
    """What one workload run measured (its checks all passed)."""

    attempted: int
    failed: int
    metrics: dict[str, float]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def nearest_rank(values, point: float) -> float:
    """Nearest-rank percentile, the definition the program's reports use."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), -(-int(point * len(ordered)) // 100)))
    return ordered[rank - 1]


def _status_kb(pid: int, field: str) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return float(line.split()[1])
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

try:
    # Resolved here, not in a forked child, where dlopen may deadlock.
    _PRCTL = getattr(ctypes.CDLL(None, use_errno=True), "prctl", None)
except OSError:
    _PRCTL = None


def _prctl(option: int, value: int) -> bool:
    return _PRCTL is not None and _PRCTL(option, value, 0, 0, 0) == 0


def adopt_orphans() -> None:
    """Make this process the reaper of everything it starts.

    A descendant whose parent exits is reparented to this process, not
    to init, so :func:`stop_children` can wait for it.
    """
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """``preexec_fn``: SIGTERM the child when this process ends."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


#: Process groups this process started (each a child's own group).
STARTED_GROUPS: set[int] = set()


def kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def reap() -> bool:
    """Reap every ended child; ``True`` once no child is left at all."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def stop_children(timeout: float = 20.0) -> bool:
    """Kill everything this process started and wait until it has ended.

    With :func:`adopt_orphans` in force, having no child left means no
    descendant is left either.  ``False`` if one outlived ``timeout``.
    """
    deadline = time.monotonic() + timeout
    while True:
        for pgid in STARTED_GROUPS:
            kill_group(pgid)
        for pid in descendants(os.getpid()):
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
        if reap():
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def process_rss_mb(pid: int, peak: bool = False) -> float:
    """Current (or high-water) resident set of one process, in MB."""
    return _status_kb(pid, "VmHWM" if peak else "VmRSS") / 1024.0



#: ``reference_seconds`` on the machine the bounds were set on; a pass
#: time divided by the measured reference and multiplied by this reads
#: as seconds on that machine.
REFERENCE_S = 0.14


def reference_seconds(repeats: int = 3) -> float:
    """Median time of a fixed numpy computation, in cache and out of it.

    The host's speed drifts by tens of percent over minutes; a pass
    timed next to this computation is scaled by it, so the pass time
    moves with the program, not with the host.  Numpy work tracks the
    passes' slowdowns; pure interpreter loops track them worse.
    """
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        small = np.arange(50_000, dtype=np.int64)
        for _ in range(60):
            small = (small * 3 + 1) % 1_000_003
            small.sort()
            np.cumsum(small[:4096])
        large = np.arange(4_000_000, dtype=np.int64)
        for _ in range(3):
            large = (large * 3 + 1) % 1_000_003
        times.append(time.perf_counter() - start)
    return median(times)


def directory_bytes(root: str | Path) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


# -- spans ---------------------------------------------------------------

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans around calls into the program's public functions.

    ``wrap`` replaces a function or method with a timing wrapper and
    ``restore`` puts every original back.  A span's parent is the span
    open in the same context when it started: nested calls in one
    thread, and awaited calls in one asyncio task.  Spans stay in
    memory; ``dump`` writes them out when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attribute: str, name: str, request_id=None) -> None:
        """Time every call of ``owner.attribute`` as a span ``name``.

        ``name`` may be a callable of the call's arguments.
        ``request_id``, when given, maps the call's arguments to the
        request identifier the span carries.
        """
        original = getattr(owner, attribute)
        tracer = self

        if asyncio.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                token, span = tracer._open(name, request_id, args, kwargs)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(token, span)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                token, span = tracer._open(name, request_id, args, kwargs)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(token, span)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _open(self, name, request_id, args, kwargs):
        span = Span(
            span_id=next(self._ids),
            name=name(*args, **kwargs) if callable(name) else name,
            start=0.0,
            end=0.0,
            parent=_current_span.get(),
            request_id=request_id(*args, **kwargs) if request_id else None,
        )
        token = _current_span.set(span.span_id)
        span.start = time.perf_counter()
        return token, span

    def _close(self, token, span: Span) -> None:
        span.end = time.perf_counter()
        _current_span.reset(token)
        self.spans.append(span)

    def clear(self) -> None:
        self.spans = []

    # -- analysis --------------------------------------------------------

    def named(self, prefix: str) -> list[Span]:
        return [span for span in self.spans if span.name.startswith(prefix)]

    def total(self, prefix: str) -> float:
        return sum(span.duration for span in self.named(prefix))

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans named ``prefix``.

        A span's self time is its duration minus the part of it that
        its child spans cover.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        total = 0.0
        for span in self.named(prefix):
            covered, reach = 0.0, span.start
            for child in sorted(
                children.get(span.span_id, ()), key=lambda c: c.start
            ):
                start, end = max(child.start, reach), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            total += span.duration - covered
        return total

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line (name, times, parent, id)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request_id,
                }) + "\n")
