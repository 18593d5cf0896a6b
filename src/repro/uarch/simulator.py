"""Top-level simulation entry points.

Both run the lockstep engine
(:class:`~repro.uarch.pipeline.lockstep.LockstepCore`):
:func:`simulate` is a one-configuration batch, and
:func:`simulate_batch` runs one trace under *many* configurations — the
shape of the paper's Tables IV-VI and Figures 5/9 — sharing the
config-independent decode, branch-predictor, and frontend planes across
the batch.  A configuration's result is the same whichever batch it
runs in.
"""

from __future__ import annotations

from typing import Sequence

from repro.isa.trace import Trace
from repro.uarch.config import ProcessorConfig
from repro.uarch.pipeline.lockstep import LockstepCore, run_batch_forked
from repro.uarch.results import SimulationResult


def simulate(
    trace: Trace,
    config: ProcessorConfig,
    track_occupancy: bool = False,
    max_cycles: int | None = None,
    warmup: Trace | None = None,
) -> SimulationResult:
    """Run ``trace`` through one processor configuration.

    ``track_occupancy`` additionally records per-cycle issue-queue,
    in-flight, and reorder-queue occupancy histograms (Fig. 10) at some
    simulation-speed cost.  ``max_cycles`` guards against runaway
    simulations in tests.  ``warmup`` functionally warms the caches,
    TLBs, and predictors with another trace before timing begins
    (used by window sampling).
    """
    return LockstepCore(
        trace, [config], max_cycles, track_occupancy, warmup
    ).run()[0]


def simulate_batch(
    trace: Trace,
    configs: Sequence[ProcessorConfig],
    *,
    track_occupancy: bool = False,
    max_cycles: int | None = None,
    warmup: Trace | None = None,
    jobs: int | None = None,
) -> list[SimulationResult]:
    """Run one trace under many configurations; results in input order.

    Each returned :class:`~repro.uarch.results.SimulationResult` equals
    the corresponding :func:`simulate` call's.  ``jobs`` > 1
    additionally forks worker processes over the batch on platforms
    with ``fork`` (the warm planes are inherited copy-on-write, so
    workers start hot); elsewhere, or inside a daemonic pool worker,
    the batch runs in-process.
    """
    configs = list(configs)
    if jobs is not None and jobs > 1:
        forked = run_batch_forked(
            trace, configs, max_cycles, jobs, track_occupancy, warmup
        )
        if forked is not None:
            return forked
    return LockstepCore(
        trace, configs, max_cycles, track_occupancy, warmup
    ).run()
