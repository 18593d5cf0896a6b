"""The experiment workloads: ``sweep-cold`` and ``trace-suite``.

Each pass runs in a fresh interpreter with ``jobs=1`` and a fresh cache
directory, as a user's ``repro sweep run`` would: nothing a previous
pass left in memory or on disk helps it.  Run as a script, this module
is that pass::

    python3 perfbench/experiments.py <workload> <seed> <trace 0|1> <dir>

and prints its measurements as one JSON line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    KERNEL_NAMES,
    REFERENCE_S,
    CheckFailed,
    Outcome,
    Tracer,
    die_with_parent,
    directory_bytes,
    median,
    nearest_rank,
    process_rss_mb,
    reference_seconds,
)

#: The Table IV x Table V grid (75 points).
SWEEP_SPEC = "examples/sweeps/table4_memory.toml"
#: Instructions per sweep trace (the run pins REPRO_SCALE to 1).  Small
#: enough that a run takes the median of several passes, which the
#: host's bursts of slowness move less; the simulator still does about
#: three quarters of a pass.
SWEEP_TRACE_BUDGET = 10_000
#: Full suite budget for the trace builds (5 x 300k instructions).
SUITE_TRACE_BUDGET = 300_000
#: A pass over its limit misses the SLO (ms): about 3x the measured pass.
SLO_LIMIT_MS = {"sweep-cold": 12_000.0, "trace-suite": 35_000.0}
#: Seconds one pass may take before the run fails.
PASS_TIMEOUT = 170


def install_experiment_spans(tracer: Tracer) -> None:
    """Spans around the public functions of each experiment layer."""
    from repro.kernels.base import TracedKernel
    from repro.runtime.cache import ResultCache
    from repro.runtime.engine import ExperimentRuntime
    from repro.sweep.manifest import SweepManifest
    from repro.uarch.pipeline import lockstep

    tracer.wrap(lockstep.LockstepCore, "run", "uarch.lane")
    tracer.wrap(lockstep, "decode_trace", "uarch.decode")
    tracer.wrap(lockstep, "shared_planes", "uarch.planes")
    tracer.wrap(lockstep.SharedPlanes, "branch_plane", "uarch.planes")
    tracer.wrap(lockstep.SharedPlanes, "front_plane", "uarch.planes")
    tracer.wrap(
        TracedKernel, "run",
        lambda kernel, *args, record=True, **kwargs: (
            f"kernels.{'emit' if record else 'count'}.{kernel.name}"
        ),
    )
    for method in ("store_result", "store_trace", "store_kernel_run"):
        tracer.wrap(ResultCache, method, "runtime.cache_write")
    for method in ("load_result", "load_trace", "load_kernel_run"):
        tracer.wrap(ResultCache, method, "runtime.cache_read")
    for method in ("run_workloads", "sweep_points"):
        tracer.wrap(ExperimentRuntime, method, "runtime.engine")
    for method in ("record", "save"):
        tracer.wrap(SweepManifest, method, "sweep.manifest")


# -- sweep-cold ----------------------------------------------------------


def _sweep_spec(seed: int):
    from repro.sweep import load_spec

    spec = load_spec(SWEEP_SPEC)
    # The seed orders the workloads; every point's result is the same
    # in any order, so one pinned digest covers every seed.
    workloads = list(spec.workloads)
    random.Random(seed).shuffle(workloads)
    return dataclasses.replace(
        spec, workloads=tuple(workloads),
        trace_budget=SWEEP_TRACE_BUDGET, _digest=[],
    )


def sweep_pass(spec, runtime, suite, cache: Path) -> dict:
    """One cold sweep; returns its timing and what it did."""
    from repro.sweep import run_sweep

    start = time.perf_counter()
    run = run_sweep(spec, runtime, suite=suite)
    wall = time.perf_counter() - start
    if not run.complete or len(run.executed) != 75:
        raise CheckFailed(f"sweep incomplete: {run.summary()}")
    return {
        "wall": wall,
        "items": len(run.executed),
        "counts": runtime.metrics.counts(),
        "cache_bytes": directory_bytes(cache),
        "trace_instructions": sum(
            len(suite.trace(name)) for name in spec.workloads
        ),
        "counted_instructions": 0,
    }


def sweep_digest(spec, runtime, suite) -> dict:
    """A digest of every point's full result, and total counts."""
    from repro.runtime.cache import result_to_dict
    from repro.runtime.keys import simulate_key
    from repro.sweep import expand_spec

    digest = hashlib.sha256()
    instructions = cycles = 0
    for point in sorted(expand_spec(spec), key=lambda p: p.point_id):
        result = runtime.cache.load_result(simulate_key(
            suite.trace(point.workload), point.config, False
        ))
        if result is None:
            raise CheckFailed(f"no cached result for {point.point_id}")
        instructions += result.instructions
        cycles += result.cycles
        digest.update(point.point_id.encode())
        digest.update(json.dumps(
            result_to_dict(result), sort_keys=True
        ).encode())
    return {
        "digest": digest.hexdigest(),
        "instructions": instructions,
        "cycles": cycles,
    }


def check_sweep(result: dict, pinned: dict) -> None:
    expected = pinned["sweep-cold"]
    for key in ("digest", "instructions", "cycles"):
        if result[key] != expected[key]:
            raise CheckFailed(
                f"sweep-cold {key} {result[key]} != pinned {expected[key]}"
            )


# -- trace-suite ---------------------------------------------------------


def suite_pass(order: list[str], runtime, suite, cache: Path) -> dict:
    """Build all five traces, then run the Table III count-only pass."""
    from repro.analysis.tables import TABLE3_RESIDUES
    from repro.runtime.keys import trace_digest

    start = time.perf_counter()
    for name in order:
        runtime.run_workloads(suite, (name,))
    built = time.perf_counter()
    mixes = {name: suite.count_mix(name, TABLE3_RESIDUES) for name in order}
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "items": 2 * len(order),
        "build_s": built - start,
        "digests": {name: trace_digest(suite.trace(name)) for name in order},
        "mix": {name: list(mixes[name].counts) for name in order},
        "trace_instructions": sum(len(suite.trace(name)) for name in order),
        "counted_instructions": sum(
            sum(mix.counts) for mix in mixes.values()
        ),
        "counts": runtime.metrics.counts(),
        "cache_bytes": directory_bytes(cache),
    }


def check_suite(result: dict, pinned: dict) -> None:
    expected = pinned["trace-suite"]
    for name in KERNEL_NAMES:
        if result["digests"][name] != expected["digests"][name]:
            raise CheckFailed(f"trace-suite: {name} trace digest differs")
        if result["mix"][name] != expected["mix"][name]:
            raise CheckFailed(f"trace-suite: {name} Table III counts differ")


# -- one pass, in its own interpreter ------------------------------------


def pass_main(argv: list[str]) -> int:
    """Set up, run one pass, print the measurements as JSON."""
    workload, seed, trace, workdir = (
        argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    )
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    from repro.runtime.engine import ExperimentRuntime
    from repro.workloads.suite import WorkloadSuite

    if workload == "sweep-cold":
        spec = _sweep_spec(seed)
        budget = SWEEP_TRACE_BUDGET
    else:
        order = list(KERNEL_NAMES)
        random.Random(seed).shuffle(order)
        budget = SUITE_TRACE_BUDGET
    runtime = ExperimentRuntime(jobs=1, cache_dir=str(cache))
    suite = WorkloadSuite(trace_budget=budget)
    ready = time.time()
    tracer = Tracer()
    if trace:
        install_experiment_spans(tracer)
    if workload == "sweep-cold":
        result = sweep_pass(spec, runtime, suite, cache)
    else:
        result = suite_pass(order, runtime, suite, cache)
    tracer.restore()
    if workload == "sweep-cold":
        result.update(sweep_digest(spec, runtime, suite))
    runtime.close()
    shutil.rmtree(cache, ignore_errors=True)
    result["ready"] = ready
    result["peak_rss_mb"] = process_rss_mb(os.getpid(), peak=True)
    if trace:
        result["layers"] = layer_metrics(tracer, result)
        tracer.dump(workdir.parent / f"spans-{workload}.jsonl")
    print(json.dumps(result))
    return 0


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    counts = result["counts"]
    metrics = {
        "uarch.lane_s": tracer.self_time("uarch.lane"),
        "uarch.planes_s": tracer.self_time("uarch.planes"),
        "uarch.decode_s": tracer.self_time("uarch.decode"),
        "runtime.cache_write_s": tracer.total("runtime.cache_write"),
        "runtime.cache_read_s": tracer.total("runtime.cache_read"),
        "runtime.self_s": tracer.self_time("runtime.engine"),
        "sweep.manifest_s": tracer.total("sweep.manifest"),
        "runtime.cache_bytes": result["cache_bytes"],
        "runtime.tasks": counts["tasks"],
        "runtime.cache_hit_pct": 100.0 * counts["cache_hits"]
        / max(1, counts["tasks"]),
        "runtime.retries": counts["retries"],
        "isa.trace_instructions": result["trace_instructions"],
    }
    if "instructions" in result:
        metrics["uarch.sim_instructions"] = result["instructions"]
        metrics["uarch.sim_cycles"] = result["cycles"]
        metrics["uarch.lane_ns_per_instr"] = (
            1e9 * metrics["uarch.lane_s"] / result["instructions"]
        )
    emit_s = count_s = 0.0
    for name in KERNEL_NAMES:
        emit = metrics[f"kernels.emit_s.{name}"] = tracer.total(
            f"kernels.emit.{name}"
        )
        count = metrics[f"kernels.count_s.{name}"] = tracer.total(
            f"kernels.count.{name}"
        )
        emit_s += emit
        count_s += count
    if emit_s:
        metrics["kernels.emit_ips"] = result["trace_instructions"] / emit_s
    if count_s:
        metrics["kernels.count_ips"] = result["counted_instructions"] / count_s
    return metrics


# -- runs ----------------------------------------------------------------


def run_pass(workload: str, seed: int, trace: bool, workdir: Path,
             env: dict, pinned: dict) -> dict:
    """One pass in a fresh interpreter; checks its outputs.

    The host reference is timed here, in this otherwise idle process,
    just before and just after the pass, so it leaves the pass's memory
    and allocator alone.
    """
    before = reference_seconds()
    spawned = time.time()
    done = subprocess.run(
        [sys.executable, __file__, workload, str(seed),
         "1" if trace else "0", str(workdir)],
        env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT,
        preexec_fn=die_with_parent,
    )
    if done.returncode:
        raise RuntimeError(f"{workload} pass failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["reference"] = (before + reference_seconds()) / 2
    result["setup"] = result["ready"] - spawned
    if workload == "sweep-cold":
        check_sweep(result, pinned)
    else:
        check_suite(result, pinned)
    return result


def run_experiment(
    workload: str, seed: int, seconds: float, trace: bool,
    workdir: Path, env: dict, pinned: dict,
) -> Outcome:
    if trace:
        # A traced pass between two untraced ones: the overhead compares
        # it with their mean.
        plain = run_pass(workload, seed, False, workdir, env, pinned)
        traced = run_pass(workload, seed, True, workdir, env, pinned)
        after = run_pass(workload, seed, False, workdir, env, pinned)
        plain_wall = (plain["wall"] + after["wall"]) / 2
        metrics = traced["layers"]
        metrics["bench.tracing_overhead_pct"] = (
            100.0 * (traced["wall"] - plain_wall) / plain_wall
        )
        walls = [plain["wall"], after["wall"]]
        metrics["client.latency_p50_ms"] = 1e3 * median(walls)
        metrics["client.latency_p99_ms"] = 1e3 * nearest_rank(walls, 99)
        metrics["bench.reference_s"] = median(
            result["reference"] for result in (plain, traced, after)
        )
        return Outcome(3, 0, metrics)
    # Two passes at least; more until ``seconds`` have passed.
    passes = []
    began = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - began < seconds:
        passes.append(run_pass(workload, seed, False, workdir, env, pinned))
    walls = [result["wall"] for result in passes]
    # Each pass time at the reference host speed (see reference_seconds).
    scaled = [
        result["wall"] * REFERENCE_S / result["reference"] for result in passes
    ]
    print(
        "perfbench: pass times "
        + ", ".join(f"{wall:.3f}" for wall in walls) + " s; reference "
        + ", ".join(f"{result['reference']:.4f}" for result in passes) + " s",
        file=sys.stderr,
    )
    limit = SLO_LIMIT_MS[workload]
    return Outcome(
        attempted=len(passes),
        failed=0,
        metrics={
            "setup_s": median(result["setup"] for result in passes),
            "wall_s": median(scaled),
            "peak_rss_mb": median(result["peak_rss_mb"] for result in passes),
            "throughput_rps": median(
                result["items"] / wall
                for result, wall in zip(passes, scaled)
            ),
            "slo_met_pct": 100.0 * sum(
                1 for wall in walls if 1e3 * wall <= limit
            ) / len(walls),
        },
    )


if __name__ == "__main__":
    sys.exit(pass_main(sys.argv[1:]))
