"""Cycle-exactness of the simulator engine against pinned goldens.

Every simulation runs on the lockstep engine
(:class:`repro.uarch.pipeline.lockstep.LockstepCore`); :func:`simulate`
is a one-lane batch.  ``tests/golden/lane_golden.json`` pins, per
entry, the cycle count and a SHA-256 of the canonical (sorted-key)
``result_to_dict`` JSON for:

* the five paper workloads (12k-instruction slices) under the nine
  Table IV-VI presets, with occupancy tracking off and on;
* every workload under three presets with functional warmup (window =
  instructions 6000-12000, warmup = the first 6000);
* ``random_trace`` seeds 0-39 under a five-config pool, occupancy off
  and on.

The file was written at commit 3d054a9 by the scalar out-of-order core
(``uarch/pipeline/core.py``), an independent implementation of the same
pipeline model that the lane engine matched byte for byte, just before
that core was deleted.  Do not regenerate it from current code to make
a failure pass: a mismatch means behaviour changed.

Beyond the goldens, property tests check the engine against itself: an
N-config batch equals N one-config runs (occupancy on and off, with and
without warmup), and the forked path equals the in-process one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sampling import extract_window
from repro.bio.synthetic import SyntheticDatabaseConfig
from repro.runtime.cache import result_to_dict
from repro.uarch.config import (
    BP_PERFECT,
    ME1,
    ME2,
    ME3,
    ME4,
    MEINF,
    PROC_4WAY,
    PROC_8WAY,
    PROC_12WAY,
    PROC_16WAY,
)
from repro.uarch.pipeline.lockstep import LockstepCore, run_batch_forked
from repro.uarch.simulator import simulate, simulate_batch
from repro.workloads.suite import WorkloadSuite

from test_pipeline_fuzz import random_trace

#: The paper's configuration space: Table IV's width sweep, Table V's
#: memory-configuration sweep, and Table VI's perfect-predictor corner.
TABLE_PRESETS = (
    ("4-way/me1", PROC_4WAY.with_memory(ME1)),
    ("8-way/me1", PROC_8WAY.with_memory(ME1)),
    ("12-way/me1", PROC_12WAY.with_memory(ME1)),
    ("16-way/me1", PROC_16WAY.with_memory(ME1)),
    ("4-way/me2", PROC_4WAY.with_memory(ME2)),
    ("4-way/me3", PROC_4WAY.with_memory(ME3)),
    ("4-way/me4", PROC_4WAY.with_memory(ME4)),
    ("4-way/meinf", PROC_4WAY.with_memory(MEINF)),
    ("8-way/me2+bperf", PROC_8WAY.with_memory(ME2).with_branch(BP_PERFECT)),
)
_PRESETS = dict(TABLE_PRESETS)
_LABELS = [label for label, _ in TABLE_PRESETS]
_CONFIGS = [config for _, config in TABLE_PRESETS]

#: Presets pinned with functional warmup.
_WARMUP_PRESETS = ("4-way/me1", "4-way/me3", "8-way/me2+bperf")

#: Presets pinned for the random traces.
_FUZZ_POOL = (
    "4-way/me1", "16-way/me1", "4-way/me3", "4-way/meinf", "8-way/me2+bperf",
)

_WORKLOADS = ("ssearch34", "fasta34", "blast", "sw_vmx128", "sw_vmx256")

_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "lane_golden.json").read_text()
)
_SUITE = _GOLDEN["suite"]
_ENTRIES = _GOLDEN["entries"]
_SEEDS = 40
_FUZZ_MAX_CYCLES = 500_000


def _pinned(result) -> dict:
    canonical = json.dumps(result_to_dict(result), sort_keys=True)
    return {
        "cycles": result.cycles,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _key(prefix: str, label: str, occupancy: bool = False) -> str:
    return f"{prefix}/{label}" + ("/occupancy" if occupancy else "")


def _check(key: str, result) -> None:
    assert _pinned(result) == _ENTRIES[key], key


@pytest.fixture(scope="module")
def golden_suite() -> WorkloadSuite:
    return WorkloadSuite(
        database_config=SyntheticDatabaseConfig(
            sequence_count=_SUITE["sequence_count"],
            family_count=_SUITE["family_count"],
            family_size=_SUITE["family_size"],
            seed=_SUITE["seed"],
            mean_length=_SUITE["mean_length"],
        ),
        trace_budget=_SUITE["trace_budget"],
    )


def _slice(suite: WorkloadSuite, workload: str):
    return suite.trace(workload).slice(_SUITE["slice"])


def _window(trace):
    """(measured window, warmup prefix) of a golden slice."""
    start = _SUITE["window"]
    return (
        extract_window(trace, start, _SUITE["slice"] - start),
        extract_window(trace, 0, start),
    )


class TestGoldenMatrix:
    """Every workload x every table preset, single and batched lanes."""

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_simulate_matches_golden(self, golden_suite, workload):
        trace = _slice(golden_suite, workload)
        for label, config in TABLE_PRESETS:
            for occupancy in (False, True):
                _check(
                    _key(f"table/{workload}", label, occupancy),
                    simulate(trace, config, track_occupancy=occupancy),
                )

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_lockstep_matches_scalar(self, golden_suite, workload):
        """A nine-lane batch reproduces the scalar core's pinned
        results, with and without occupancy tracking."""
        trace = _slice(golden_suite, workload)
        for occupancy in (False, True):
            batch = LockstepCore(
                trace, _CONFIGS, track_occupancy=occupancy
            ).run()
            for label, result in zip(_LABELS, batch):
                _check(_key(f"table/{workload}", label, occupancy), result)

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_warmup_matches_golden(self, golden_suite, workload):
        window, warmup = _window(_slice(golden_suite, workload))
        configs = [_PRESETS[label] for label in _WARMUP_PRESETS]
        batch = LockstepCore(window, configs, warmup=warmup).run()
        for label, config, batched in zip(_WARMUP_PRESETS, configs, batch):
            key = f"warmup/{workload}/{label}"
            _check(key, simulate(window, config, warmup=warmup))
            _check(key, batched)

    def test_simulate_batch_matches_scalar(self, golden_suite):
        trace = _slice(golden_suite, "ssearch34")
        for occupancy in (False, True):
            batch = simulate_batch(trace, _CONFIGS, track_occupancy=occupancy)
            for label, result in zip(_LABELS, batch):
                _check(_key("table/ssearch34", label, occupancy), result)

    def test_forked_batch_matches_in_process(self, golden_suite):
        trace = _slice(golden_suite, "ssearch34")
        configs = _CONFIGS[:4]
        forked = run_batch_forked(trace, configs, None, 2)
        if forked is None:
            pytest.skip("fork start method unavailable")
        in_process = LockstepCore(trace, configs).run()
        for result, expected in zip(forked, in_process):
            assert result_to_dict(result) == result_to_dict(expected)

    def test_forked_batch_with_occupancy_matches_in_process(
        self, golden_suite
    ):
        trace = _slice(golden_suite, "blast")
        configs = _CONFIGS[:4]
        forked = run_batch_forked(
            trace, configs, None, 2, track_occupancy=True
        )
        if forked is None:
            pytest.skip("fork start method unavailable")
        in_process = LockstepCore(trace, configs, track_occupancy=True).run()
        for label, result, expected in zip(_LABELS, forked, in_process):
            assert result.queue_occupancy
            assert result_to_dict(result) == result_to_dict(expected)
            _check(_key("table/blast", label, True), result)

    def test_duplicate_configs_in_one_batch(self, golden_suite):
        trace = _slice(golden_suite, "blast")
        config = _PRESETS["4-way/me1"]
        first, second = LockstepCore(trace, [config, config]).run()
        assert result_to_dict(first) == result_to_dict(second)
        _check("table/blast/4-way/me1", first)


def test_random_traces_match_golden():
    for seed in range(_SEEDS):
        trace = random_trace(seed, _SUITE["fuzz_length"])
        for label in _FUZZ_POOL:
            for occupancy in (False, True):
                _check(
                    _key(f"random/{seed}", label, occupancy),
                    simulate(
                        trace, _PRESETS[label],
                        track_occupancy=occupancy,
                        max_cycles=_FUZZ_MAX_CYCLES,
                    ),
                )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=_SEEDS - 1),
    picks=st.lists(
        st.sampled_from(_FUZZ_POOL), min_size=2, max_size=5,
    ),
    occupancy=st.booleans(),
)
def test_fuzz_lockstep_matches_scalar(seed, picks, occupancy):
    """Random batches over the pinned random traces reproduce the
    scalar core's pinned results lane for lane."""
    trace = random_trace(seed, _SUITE["fuzz_length"])
    batch = LockstepCore(
        trace, [_PRESETS[label] for label in picks],
        max_cycles=_FUZZ_MAX_CYCLES, track_occupancy=occupancy,
    ).run()
    for label, result in zip(picks, batch):
        _check(_key(f"random/{seed}", label, occupancy), result)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    picks=st.lists(st.sampled_from(_LABELS), min_size=2, max_size=5),
    occupancy=st.booleans(),
    warm=st.booleans(),
)
def test_batch_equals_single_lanes(seed, picks, occupancy, warm):
    """An N-config batch equals N one-config runs: lanes share planes
    but never state."""
    trace = random_trace(seed, 300)
    warmup = random_trace(seed + 1, 200) if warm else None
    configs = [_PRESETS[label] for label in picks]
    batch = LockstepCore(
        trace, configs, max_cycles=_FUZZ_MAX_CYCLES,
        track_occupancy=occupancy, warmup=warmup,
    ).run()
    for config, result in zip(configs, batch):
        single = simulate(
            trace, config, track_occupancy=occupancy,
            max_cycles=_FUZZ_MAX_CYCLES, warmup=warmup,
        )
        assert result_to_dict(result) == result_to_dict(single)
        assert bool(result.queue_occupancy) == occupancy


def test_max_cycles_guard_matches_scalar():
    """The runaway guard fires for single and batched lanes alike: an
    impossible cycle budget raises rather than returning a partial
    result."""
    trace = random_trace(1, 300)
    config = PROC_4WAY.with_memory(ME1)
    with pytest.raises(RuntimeError):
        simulate(trace, config, max_cycles=10)
    with pytest.raises(RuntimeError):
        LockstepCore(trace, [config, config], max_cycles=10).run()
