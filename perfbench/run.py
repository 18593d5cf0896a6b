"""The repository benchmark.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  A failed
correctness check exits non-zero without printing a result.
``--workload all`` runs every workload in turn, one result line each,
and exits non-zero if any of them failed.  See ``perfbench/README.md``
for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    CheckFailed,
    Outcome,
    adopt_orphans,
    stop_children,
)

#: Scratch space for caches, databases, logs and span dumps.
OUT_DIR = Path(".bench_out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        failures = 0
        for name in WORKLOAD_NAMES:
            print(f"== {name}", flush=True)
            failures += bool(subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode)
        return 1 if failures else 0

    source = Path("src").resolve()
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout with src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    pinned = json.loads((HERE / "pinned.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)).resolve()
    # Pin the experiment scale: the benchmark fixes every input size.
    os.environ["REPRO_SCALE"] = "1"
    # Temporary files of this process and of every process it starts
    # (ephemeral runtime caches included) stay inside the checkout.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    env = {**os.environ, "PYTHONPATH": str(source)}
    # Every process the run starts is stopped and waited for on every
    # way out, a termination signal included.
    adopt_orphans()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        if args.workload.startswith("search"):
            from search import run_search

            outcome = run_search(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, env,
            )
        else:
            from experiments import run_experiment

            outcome = run_experiment(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, env, pinned,
            )
    except CheckFailed as error:
        print(f"perfbench: correctness check failed: {error}",
              file=sys.stderr)
        return 1
    finally:
        stopped = stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if not stopped:
        print("perfbench: a process it started did not end", file=sys.stderr)
        return 1
    print(json.dumps(report(outcome, bool(args.trace))))
    return 0


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def report(outcome: Outcome, trace: bool) -> dict:
    """The result line: every metric of the chosen set, with its unit."""
    units = PER_LAYER if trace else END_TO_END
    unknown = set(outcome.metrics) - set(units)
    missing = set() if trace else set(units) - set(outcome.metrics)
    if unknown or missing:
        raise RuntimeError(
            f"metrics unknown: {sorted(unknown)}, missing: {sorted(missing)}"
        )
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)),
                   "unit": unit}
            for name, unit in units.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
