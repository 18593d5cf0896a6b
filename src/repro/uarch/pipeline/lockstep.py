"""The simulator engine: one trace under N configurations as one batch.

Every simulation in the repo runs here — :func:`repro.uarch.simulate`
is a one-lane batch.  The paper's Tables IV-VI and Figures 5/9 all
re-simulate the *same* trace under many processor configurations, and
most of the per-instruction work (I-cache lookup, direction prediction,
BTB, the retire walk, wakeup-list construction) is *identical or
precomputable* across the sweep axis.

:class:`LockstepCore` batches that work.  A batch over one trace splits
into two layers:

* **Shared planes** (:class:`SharedPlanes`), built once per trace and
  cached on the decode plane: consumer (wakeup) lists per producer,
  per-regfile retire prefix sums, branch/fetch-line event positions and
  ranks.  Per *branch* configuration, the entire predictor + BTB
  outcome stream is replayed once into a code array
  (:class:`_BranchPlane`) — legal because the branch substream reaches
  the predictor in strict trace order under every configuration, and
  the BTB is touched only by correctly-predicted taken branches, also
  in trace order.  Per *(IL1, ITLB)* configuration the frontend
  stall-event stream is replayed once (:class:`_FrontPlane`); only the
  L2 lookup on an IL1 miss stays live per lane, because L2 contents
  interleave with config-dependent data accesses.

* **A per-lane engine** (:func:`_run_lane`) that advances one
  configuration over the planes: fetch jumps over whole spans between
  precomputed break positions instead of walking instructions,
  retirement frees registers via prefix-sum differences in O(1) per
  cycle, wakeup uses the shared consumer lists with per-lane
  undone-source counters (no per-dispatch allocation), the ready
  queues carry an occupancy bitmask so issue touches only non-empty
  unit queues, and quiescent cycles are fast-forwarded in one step.

The pipeline model itself (Turandot-style, trace-driven):

* frontend: I-cache, direction predictor + NFA/BTB, instruction buffer,
  fetch-group breaks on taken branches, a cap on in-flight predicted
  branches, and fetch stall on unresolved mispredictions;
* dispatch: physical-register (GPR/VPR/FPR) allocation, per-unit issue
  queues, in-flight and reorder-queue capacity, in-order store queue;
* issue/execute: per-class unit pools (fully pipelined), wakeup driven
  by producer completion, D-cache read/write ports, MSHR-limited
  outstanding misses, store-to-load alias stalls, two-level data cache
  with memory behind it;
* retire: in-order, bounded width.

Wrong-path execution is not replayed (the trace has no wrong path);
mispredictions stall fetch until the branch resolves plus the recovery
time.  Each cycle dispatch moves fewer instructions than its width, one
trauma is charged for the blocking reason, with blame forwarded to the
head of whichever structure is stuck (see :mod:`repro.uarch.traumas`).

Optional per-lane features: ``track_occupancy`` records the Fig. 10
queue, in-flight, and reorder-queue occupancy histograms (fast-forwarded
spans included), and ``warmup`` functionally warms each lane's caches,
TLBs, predictor, and BTB with another trace before timing begins
(window sampling); warmed planes are private to the lane.

Cycle-exactness is the gate: ``tests/golden/lane_golden.json`` pins
every lane's full result (it was written by the scalar core this
engine replaced, while both agreed), and ``tests/golden/core_golden.json``
pins the paper workloads against the original object-per-instruction
model.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.isa.opcodes import FunctionalUnit
from repro.isa.trace import Trace
from repro.uarch.branch.btb import BranchTargetBuffer
from repro.uarch.branch.predictors import DirectionPredictor, create_predictor
from repro.uarch.caches import Cache, MemoryHierarchy, Tlb
from repro.uarch.config import (
    BranchPredictorConfig,
    MemoryConfig,
    ProcessorConfig,
)
from repro.uarch.pipeline.decode import DecodedTrace, decode_trace
from repro.uarch.results import BranchResult, CacheResult, SimulationResult
from repro.uarch.traumas import (
    FIG2_ORDER,
    Trauma,
    diq_trauma,
    ful_trauma,
    rg_trauma,
)

#: Unit-indexed trauma lookup tuples (FunctionalUnit values are 0..7).
_RG_OF = tuple(rg_trauma(fu) for fu in FunctionalUnit)
_FUL_OF = tuple(ful_trauma(fu) for fu in FunctionalUnit)
_DIQ_OF = tuple(diq_trauma(fu) for fu in FunctionalUnit)

_N_UNITS = len(FunctionalUnit)
_LDST = int(FunctionalUnit.LDST)

#: Queues tracked for Fig. 10 occupancy histograms.
_TRACKED_QUEUES: tuple[tuple[str, int], ...] = (
    ("FIX-Q", int(FunctionalUnit.FX)),
    ("MEM-Q", _LDST),
    ("BR-Q", int(FunctionalUnit.BR)),
    ("VI-Q", int(FunctionalUnit.VI)),
    ("VPER-Q", int(FunctionalUnit.VPER)),
)

#: Preferred batch width: the sweep planner groups points over the same
#: trace into batches of this many configurations, keeping the runtime
#: pool's tasks coarse without serializing a whole sweep axis into one.
LOCKSTEP_WIDTH = 8

#: Branch outcome codes in :attr:`_BranchPlane.code`.
_BR_NOT_TAKEN = 0       # correctly predicted, not taken: fetch continues
_BR_TAKEN_HIT = 1       # correct + taken, BTB hit: group break only
_BR_TAKEN_MISS = 2      # correct + taken, BTB miss: NFA penalty stall
_BR_MISPREDICT = 3      # mispredicted: fetch waits for resolution


def _prefix(flags: np.ndarray) -> list[int]:
    """Inclusive-scan prefix counts as a plain list (length ``n + 1``)."""
    counts = np.zeros(len(flags) + 1, dtype=np.int64)
    np.cumsum(flags, dtype=np.int64, out=counts[1:])
    return counts.tolist()


class _BranchPlane:
    """Predictor + BTB outcome stream for one branch configuration.

    Under every processor configuration the direction predictor sees
    the same branches in the same (trace) order: fetch consults it once
    per branch, in program order, and a capacity-limited fetch group
    breaks *before* touching predictor state.  Likewise the BTB is
    looked up (and on a miss, filled) only by correctly-predicted taken
    branches, again in trace order.  Both streams are therefore pure
    functions of the branch configuration and can be replayed once per
    batch; lanes index the result by branch ordinal.
    """

    __slots__ = (
        "code", "correct_prefix", "btb_lookup_prefix", "btb_miss_prefix",
    )

    def __init__(
        self,
        plane: DecodedTrace,
        positions: list[int],
        branch: BranchPredictorConfig,
        warmed: tuple[DirectionPredictor | None, BranchTargetBuffer]
        | None = None,
    ) -> None:
        pcs = plane.pc
        takens = plane.taken
        targets = plane.target
        predictor, btb = _branch_state(branch) if warmed is None else warmed
        perfect = predictor is None
        predict_and_update = None if perfect else predictor.predict_and_update
        btb_lookup = btb.lookup
        btb_install = btb.install
        code = bytearray(len(positions))
        correct_prefix = [0]
        lookup_prefix = [0]
        miss_prefix = [0]
        correct_count = 0
        lookup_count = 0
        miss_count = 0
        for ordinal, position in enumerate(positions):
            taken = takens[position]
            pc = pcs[position]
            right = perfect or predict_and_update(pc, taken) == taken
            if not right:
                code[ordinal] = _BR_MISPREDICT
            elif taken:
                lookup_count += 1
                if btb_lookup(pc) is None:
                    btb_install(pc, targets[position])
                    miss_count += 1
                    code[ordinal] = _BR_TAKEN_MISS
                else:
                    code[ordinal] = _BR_TAKEN_HIT
            if right:
                correct_count += 1
            correct_prefix.append(correct_count)
            lookup_prefix.append(lookup_count)
            miss_prefix.append(miss_count)
        self.code = code
        self.correct_prefix = correct_prefix
        self.btb_lookup_prefix = lookup_prefix
        self.btb_miss_prefix = miss_prefix


class _FrontPlane:
    """IL1/ITLB outcome stream for one (IL1, ITLB) configuration.

    Fetch accesses the I-cache once per fetch-line transition (an
    *event*), in trace order, under every configuration — so the IL1
    hit/miss and ITLB hit/miss streams replay once per batch.  Only the
    L2 lookup behind an IL1 miss must stay live per lane (L2 contents
    depend on the interleaving with config-dependent data accesses);
    lanes perform it at the precomputed stall positions.
    """

    __slots__ = (
        "next_stall", "il1_missed", "itlb_missed",
        "il1_miss_prefix", "itlb_miss_prefix",
    )

    def __init__(
        self,
        plane: DecodedTrace,
        positions: list[int],
        memory: MemoryConfig,
        il1: Cache | None = None,
        itlb: Tlb | None = None,
    ) -> None:
        # Fresh structures unless the lane hands over warmed ones.
        if il1 is None:
            il1 = Cache(memory.il1)
        if itlb is None:
            itlb = Tlb(memory.itlb)
        il1_access = il1.access
        itlb_access = itlb.access
        shift = memory.il1.line_bytes.bit_length() - 1
        line_bytes = memory.il1.line_bytes
        pcs = plane.pc
        il1_missed = []
        itlb_missed = []
        stalls = []
        for position in positions:
            pc = pcs[position]
            tlb_miss = not itlb_access(pc)
            il1_miss = not il1_access((pc >> shift) * line_bytes)
            il1_missed.append(il1_miss)
            itlb_missed.append(tlb_miss)
            if il1_miss or tlb_miss:
                stalls.append(position)
        self.il1_missed = il1_missed
        self.itlb_missed = itlb_missed
        self.il1_miss_prefix = _prefix(np.array(il1_missed, dtype=bool))
        self.itlb_miss_prefix = _prefix(np.array(itlb_missed, dtype=bool))
        # next_stall[i] = smallest stalling event position >= i (n if
        # none): the fetch loop advances in one jump between stalls.
        n = plane.n
        marks = np.full(n + 1, n, dtype=np.int64)
        if stalls:
            stall_positions = np.array(stalls, dtype=np.int64)
            marks[stall_positions] = stall_positions
        self.next_stall = np.minimum.accumulate(marks[::-1])[::-1].tolist()


def _branch_state(
    branch: BranchPredictorConfig,
) -> tuple[DirectionPredictor | None, BranchTargetBuffer]:
    """A cold direction predictor (``None`` when perfect) and BTB."""
    predictor = (
        None if branch.kind == "perfect"
        else create_predictor(branch.kind, branch.table_entries)
    )
    btb = BranchTargetBuffer(
        branch.btb_entries, branch.btb_associativity, branch.btb_miss_penalty
    )
    return predictor, btb


def _functional_warmup(
    warm: DecodedTrace, config: ProcessorConfig
) -> tuple[MemoryHierarchy, DirectionPredictor | None, BranchTargetBuffer]:
    """Replay a warmup trace through one lane's long-lived structures.

    Caches, TLBs, the direction predictor, and the BTB see the warmup
    stream (SMARTS-style functional warming); cache statistics are reset
    afterwards so results reflect only the measured trace.  Returns the
    warmed hierarchy, predictor (``None`` when perfect), and BTB.
    """
    hierarchy = MemoryHierarchy(config.memory)
    predictor, btb = _branch_state(config.branch)
    access_inst = hierarchy.access_inst
    access_data = hierarchy.access_data
    btb_install = btb.install
    lines = warm.line
    pcs = warm.pc
    addresses = warm.address
    sizes = warm.size
    takens = warm.taken
    targets = warm.target
    is_memory = warm.is_memory
    is_branch = warm.is_branch
    last_line = -1
    for index in range(warm.n):
        line = lines[index]
        if line != last_line:
            access_inst(pcs[index])
            last_line = line
        if is_memory[index]:
            access_data(addresses[index], sizes[index])
        elif is_branch[index]:
            if predictor is not None:
                predictor.update(pcs[index], takens[index])
            if takens[index]:
                btb_install(pcs[index], targets[index])
    hierarchy.reset_stats()
    return hierarchy, predictor, btb


class SharedPlanes:
    """Config-independent batch planes, built once per trace.

    Cached on the decode plane (``plane.batch``), so batches over the
    same trace — successive sweep batches, bench repetitions — reuse
    them.  Per-branch-config and per-frontend-config planes are cached
    in dictionaries keyed by the (hashable, frozen) config dataclasses.
    """

    __slots__ = (
        "consumers", "n_sources", "meta", "gpr_prefix", "vpr_prefix",
        "fpr_prefix", "store_prefix", "branch_next", "branch_rank",
        "branch_positions", "event_rank", "event_positions",
        "_branch_planes", "_front_planes",
    )

    def __init__(self, plane: DecodedTrace) -> None:
        n = plane.n
        # Wakeup inversion: consumers[p] lists the instructions reading
        # producer p, in ascending (= dispatch) order.  Shared by every
        # lane; per-lane undone-source counters replace per-dispatch
        # waiter-list allocations.
        consumers: list[list[int] | None] = [None] * n
        for index, row in enumerate(plane.sources):
            for source in row:
                bucket = consumers[source]
                if bucket is None:
                    consumers[source] = [index]
                else:
                    bucket.append(index)
        self.consumers = consumers
        self.n_sources = [len(row) for row in plane.sources]

        # Packed per-instruction metadata: one list lookup feeds the
        # completion/issue/dispatch hot paths instead of four.
        # bit 0: load, bit 1: store, bit 2: branch, bit 3: wide vload,
        # bits 4-6: functional unit, bits 7-8: regfile + 1.
        fu = np.array(plane.fu, dtype=np.int64)
        regfile = np.array(plane.regfile, dtype=np.int64)
        self.meta = (
            np.array(plane.is_load, dtype=np.int64)
            | (np.array(plane.is_store, dtype=np.int64) << 1)
            | (np.array(plane.is_branch, dtype=np.int64) << 2)
            | (np.array(plane.is_vload, dtype=np.int64) << 3)
            | (fu << 4)
            | ((regfile + 1) << 7)
        ).tolist()

        # Retire-side prefix sums: registers freed and store-queue slots
        # drained over any contiguous retired range in O(1).
        self.gpr_prefix = _prefix(regfile == 0)
        self.vpr_prefix = _prefix(regfile == 1)
        self.fpr_prefix = _prefix(regfile == 2)
        self.store_prefix = _prefix(np.array(plane.is_store, dtype=bool))

        # Branch geometry: next branch at-or-after each position, branch
        # ordinal (rank) of each position, and the positions themselves.
        is_branch = np.array(plane.is_branch, dtype=bool)
        marks = np.full(n + 1, n, dtype=np.int64)
        if n:
            branch_positions = np.flatnonzero(is_branch)
            marks[branch_positions] = branch_positions
            self.branch_positions = branch_positions.tolist()
        else:
            self.branch_positions = []
        self.branch_next = np.minimum.accumulate(marks[::-1])[::-1].tolist()
        self.branch_rank = _prefix(is_branch)

        # Fetch-line events: positions where the I-cache line changes
        # from the previous instruction (the frontend accesses the
        # I-cache exactly once per such transition).
        lines = np.array(plane.line, dtype=np.int64)
        boundary = np.zeros(n, dtype=bool)
        if n:
            boundary[0] = True
            np.not_equal(lines[1:], lines[:-1], out=boundary[1:])
        self.event_rank = _prefix(boundary)
        self.event_positions = np.flatnonzero(boundary).tolist()

        self._branch_planes: dict[BranchPredictorConfig, _BranchPlane] = {}
        self._front_planes: dict[tuple, _FrontPlane] = {}

    def branch_plane(
        self, plane: DecodedTrace, branch: BranchPredictorConfig
    ) -> _BranchPlane:
        cached = self._branch_planes.get(branch)
        if cached is None:
            cached = _BranchPlane(plane, self.branch_positions, branch)
            self._branch_planes[branch] = cached
        return cached

    def front_plane(
        self, plane: DecodedTrace, memory: MemoryConfig
    ) -> _FrontPlane:
        key = (memory.il1, memory.itlb)
        cached = self._front_planes.get(key)
        if cached is None:
            cached = _FrontPlane(plane, self.event_positions, memory)
            self._front_planes[key] = cached
        return cached


def shared_planes(plane: DecodedTrace) -> SharedPlanes:
    """The trace's batch planes, built once and cached on the plane."""
    shared = plane.batch
    if shared is None:
        shared = SharedPlanes(plane)
        # Idempotent memo fill: post-fork callers rebuild an identical
        # worker-local plane, never observe another lane's write.
        plane.batch = shared  # flowlint: disable=FL003
    return shared


class LockstepCore:
    """Simulate one trace under N configurations as one batch.

    Results come back in the order of ``configs``; each equals what a
    one-configuration batch produces for that configuration.
    ``track_occupancy`` adds the Fig. 10 occupancy histograms;
    ``warmup`` functionally warms every lane with another trace before
    timing begins.  ``max_cycles`` guards against runaway simulations.
    """

    def __init__(
        self,
        trace: Trace,
        configs: Sequence[ProcessorConfig],
        max_cycles: int | None = None,
        track_occupancy: bool = False,
        warmup: Trace | None = None,
    ) -> None:
        self.trace = trace
        self.configs = list(configs)
        self.max_cycles = max_cycles
        self.track_occupancy = track_occupancy
        self.warmup = warmup

    def run(self) -> list[SimulationResult]:
        """Simulate every configuration; returns results in input order."""
        plane = decode_trace(self.trace)
        shared = shared_planes(plane)
        warm = None if self.warmup is None else decode_trace(self.warmup)
        results = []
        for config in self.configs:
            if warm is None:
                hierarchy = MemoryHierarchy(config.memory)
                bplane = shared.branch_plane(plane, config.branch)
                fplane = shared.front_plane(plane, config.memory)
            else:
                # Warmed planes depend on the warmup stream, so they
                # stay private to the lane rather than cached on the
                # decode plane.  The front plane takes over the warmed
                # IL1/ITLB: the lane itself only reads L2 behind them.
                hierarchy, predictor, btb = _functional_warmup(warm, config)
                bplane = _BranchPlane(
                    plane, shared.branch_positions, config.branch,
                    (predictor, btb),
                )
                fplane = _FrontPlane(
                    plane, shared.event_positions, config.memory,
                    hierarchy.il1, hierarchy.itlb,
                )
            results.append(_run_lane(
                self.trace.name,
                plane,
                shared,
                config,
                hierarchy,
                bplane,
                fplane,
                self.max_cycles,
                self.track_occupancy,
            ))
        return results


# ----------------------------------------------------------------------
# Forked batch execution: lanes are independent once the shared planes
# exist, so on fork platforms a batch can fan out over worker processes
# that inherit the warm planes copy-on-write (no pickling, no rebuild).

#: Parent-side state inherited by forked workers (set around the fork).
_fork_state: tuple | None = None


def _run_fork_chunk(indices: list[int]) -> list[SimulationResult]:
    trace, configs, max_cycles, track_occupancy, warmup = _fork_state
    return LockstepCore(
        trace, [configs[index] for index in indices], max_cycles,
        track_occupancy, warmup,
    ).run()


def run_batch_forked(
    trace: Trace,
    configs: Sequence[ProcessorConfig],
    max_cycles: int | None,
    jobs: int,
    track_occupancy: bool = False,
    warmup: Trace | None = None,
) -> list[SimulationResult] | None:
    """Run a lockstep batch across forked workers; ``None`` if unavailable.

    Unavailable means: no ``fork`` start method on this platform, a
    daemonic caller (a process pool worker cannot fork children), or a
    batch/worker count too small to split.  Callers fall back to the
    in-process engine.
    """
    import multiprocessing

    configs = list(configs)
    jobs = min(jobs, len(configs))
    if jobs < 2:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if multiprocessing.current_process().daemon:
        return None

    # Warm every shared plane in the parent before forking so workers
    # inherit them (and the decode planes) copy-on-write.
    plane = decode_trace(trace)
    shared = shared_planes(plane)
    if warmup is None:
        for config in configs:
            shared.branch_plane(plane, config.branch)
            shared.front_plane(plane, config.memory)
    else:
        decode_trace(warmup)

    # Strided chunks: neighbouring configs (often a width or memory
    # ladder with similar lane cost) spread across workers.
    chunks = [
        list(range(start, len(configs), jobs)) for start in range(jobs)
    ]
    global _fork_state
    _fork_state = (trace, configs, max_cycles, track_occupancy, warmup)
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(jobs) as pool:
            parts = pool.map(_run_fork_chunk, chunks)
    finally:
        _fork_state = None
    results: list[SimulationResult | None] = [None] * len(configs)
    for indices, part in zip(chunks, parts):
        for index, result in zip(indices, part):
            results[index] = result
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Lane helpers: occupancy recording and stall blame.  In blame, the
# per-lane undone-source counters stand in for a dispatched
# instruction's pending-source count (they agree on every dispatched
# instruction, the only ones blame examines).


def _record_occupancy(occupancy, iq_count, inflight, rob_size, cycles):
    """Add ``cycles`` cycles' structure occupancies to the histograms."""
    for name, fu in _TRACKED_QUEUES:
        histogram = occupancy[name]
        value = iq_count[fu]
        histogram[value] = histogram.get(value, 0) + cycles
    histogram = occupancy["INFLIGHT"]
    histogram[inflight] = histogram.get(inflight, 0) + cycles
    histogram = occupancy["RETIREQ"]
    histogram[rob_size] = histogram.get(rob_size, 0) + cycles


def _blame_sources(index, done, fu_of, sources_of):
    """Blame the first unready producer of ``index``."""
    for source in sources_of[index]:
        if not done[source]:
            return _RG_OF[fu_of[source]]
    return Trauma.OTHER


def _blame_queue(fu, queue, issued, n_undone, done, lsu_block, fu_of,
                 sources_of):
    """Why is this issue queue full?  Blame its oldest pending entry."""
    while queue and issued[queue[0]]:
        queue.popleft()
    if not queue:
        return _DIQ_OF[fu]
    examined = 0
    for index in queue:
        if issued[index]:
            continue
        if n_undone[index] > 0:
            return _blame_sources(index, done, fu_of, sources_of)
        examined += 1
        if examined >= 4:
            break
    if fu == _LDST and lsu_block is not None:
        return lsu_block
    return _FUL_OF[fu]


def _blame_rob(rob_head, rob_next, issued, n_undone, done, miss_info,
               fu_of, sources_of):
    """Why is the reorder/in-flight window full?  Blame its head."""
    if rob_head == rob_next:
        return Trauma.MM_ROQF
    if done[rob_head]:
        return Trauma.OTHER
    info = miss_info.get(rob_head)
    if info is not None:
        return info[0]
    if issued[rob_head]:
        return _RG_OF[fu_of[rob_head]]
    if n_undone[rob_head] > 0:
        return _blame_sources(rob_head, done, fu_of, sources_of)
    return _FUL_OF[fu_of[rob_head]]


def _run_lane(
    trace_name: str,
    plane: DecodedTrace,
    shared: SharedPlanes,
    config: ProcessorConfig,
    hierarchy: MemoryHierarchy,
    bplane: _BranchPlane,
    fplane: _FrontPlane,
    max_cycles: int | None,
    track_occupancy: bool,
) -> SimulationResult:
    """One configuration's pass over the shared planes.

    Each cycle runs completion, retire, issue, dispatch, and fetch in
    that order, then fast-forwards over provably idle cycles.
    ``hierarchy`` holds the lane's data-side caches and TLB (possibly
    functionally warmed); the I-side outcomes come from ``fplane``.
    """
    n = plane.n
    branch_config = config.branch
    memory = config.memory
    iq_capacity = config.issue_queue_size
    memory_is_ideal = memory.dl1.is_ideal and memory.l2.is_ideal

    # Decode-plane columns.
    fu_of = plane.fu
    base_latency = plane.latency
    regfile_of = plane.regfile
    is_store = plane.is_store
    addresses = plane.address
    sizes = plane.size
    words_of = plane.words
    sources_of = plane.sources
    pcs = plane.pc

    # Shared batch planes.  meta packs load/store/branch/vload flags,
    # the functional unit, and the regfile into one int per index.
    meta = shared.meta
    consumers = shared.consumers
    gpr_prefix = shared.gpr_prefix
    vpr_prefix = shared.vpr_prefix
    fpr_prefix = shared.fpr_prefix
    store_prefix = shared.store_prefix
    branch_next = shared.branch_next
    branch_rank = shared.branch_rank
    event_rank = shared.event_rank
    next_stall = fplane.next_stall
    ev_il1_missed = fplane.il1_missed
    ev_itlb_missed = fplane.itlb_missed
    bp_code = bplane.code

    # Per-instruction lane state.
    done = bytearray(n)
    done_find = done.find
    issued = bytearray(n)
    n_undone = shared.n_sources[:]
    miss_info: dict[int, tuple[Trauma, bool]] = {}
    miss_info_pop = miss_info.pop
    pending_store_words: dict[int, int] = {}
    store_word_get = pending_store_words.get
    store_queue_used = 0

    # Structures.  Fetch, dispatch, and retire all advance in trace
    # order, so the instruction buffer (ibuf_head..fetch_index) and the
    # reorder queue (rob_head..rob_next) are contiguous index ranges.
    ibuf_head = 0
    rob_head = 0
    rob_next = 0
    iq: list[deque[int]] = [deque() for _ in range(_N_UNITS)]
    iq_count: list[int] = [0] * _N_UNITS
    iq_append = [queue.append for queue in iq]
    ready: list[deque[int]] = [deque() for _ in range(_N_UNITS)]
    ready_append = [queue.append for queue in ready]
    ready_mask = 0      # bit fu set <=> ready[fu] non-empty
    capacity_of: list[int] = [config.units.get(fu, 0) for fu in FunctionalUnit]
    free_regs = [config.gpr, config.vpr, config.fpr]
    outstanding_misses = 0
    max_misses = config.max_outstanding_misses
    inflight = 0
    predicted_branches = 0

    dl1_latency = max(1, memory.dl1.latency)
    read_port_free = [0] * config.dcache_read_ports
    write_port_free = [0] * config.dcache_write_ports
    read_ports = len(read_port_free)
    write_ports = len(write_port_free)

    recovery = branch_config.mispredict_recovery
    wide_extra = config.wide_load_extra_latency
    horizon = (
        8
        + memory.dl1.latency
        + memory.l2.latency
        + memory.memory_latency
        + memory.dtlb.miss_penalty
        + wide_extra
    )
    wheel_mask = (1 << horizon.bit_length()) - 1
    wheel: list[list[int]] = [[] for _ in range(wheel_mask + 1)]
    wheel_count = 0    # in-flight completion events across all slots

    # Frontend state.  stall_done_at marks a fetch-line stall event that
    # has been processed without its instruction being fetched yet: on
    # resume the event must not replay.
    fetch_index = 0
    fetch_stall_until = 0
    fetch_reason = Trauma.DECODE
    wait_branch = -1
    stall_done_at = -1
    max_predicted = branch_config.max_predicted_branches
    btb_miss_penalty = branch_config.btb_miss_penalty
    ibuffer_cap = config.ibuffer_size

    # Hot callables and widths bound once.
    access_data = hierarchy.access_data
    dl1_probe = hierarchy.dl1.probe
    l2_access = hierarchy.l2.access
    inst_latency = hierarchy._inst_latency
    itlb_penalty = memory.itlb.miss_penalty
    il1_shift = memory.il1.line_bytes.bit_length() - 1
    il1_line_bytes = memory.il1.line_bytes
    trauma_cycles: dict[Trauma, int] = {}
    trauma_cycles_get = trauma_cycles.get
    fetch_width = config.fetch_width
    dispatch_width = config.dispatch_width
    retire_width = config.retire_width
    retire_queue = config.retire_queue
    inflight_cap = config.inflight
    store_queue_size = config.store_queue_size

    # Reused issue scratch list (cleared in place each use).
    deferred: list[int] = []

    # Trauma charges come in long same-reason runs; accumulate the
    # current run in locals and flush to the dict on reason change.
    last_reason = None
    last_count = 0

    occupancy: dict[str, dict[int, int]] = {
        name: {} for name, _ in _TRACKED_QUEUES
    }
    occupancy["INFLIGHT"] = {}
    occupancy["RETIREQ"] = {}

    retired = 0
    cycle = 0
    cycle_limit = float("inf") if max_cycles is None else max_cycles

    while retired < n:
        cycle += 1
        if cycle > cycle_limit:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles "
                f"({retired}/{n} retired)"
            )

        # ---------------- completion ----------------------------
        finishing = wheel[cycle & wheel_mask]
        if finishing:
            wheel_count -= len(finishing)
            for index in finishing:
                done[index] = 1
                inflight -= 1
                m = meta[index]
                if m & 7:   # load / store / branch (mutually exclusive)
                    if m & 1:
                        info = miss_info_pop(index, None)
                        if info is not None and info[1]:
                            outstanding_misses -= 1
                    elif m & 2:
                        for word in words_of[index]:
                            if store_word_get(word) == index:
                                del pending_store_words[word]
                    else:
                        predicted_branches -= 1
                        if index == wait_branch:
                            wait_branch = -1
                            resume = cycle + recovery
                            if resume > fetch_stall_until:
                                fetch_stall_until = resume
                            fetch_reason = Trauma.IF_PRED
                wakeup = consumers[index]
                if wakeup is not None:
                    for waiter in wakeup:
                        undone = n_undone[waiter] - 1
                        n_undone[waiter] = undone
                        if (
                            not undone
                            and waiter < rob_next
                            and not issued[waiter]
                        ):
                            fu = fu_of[waiter]
                            ready_append[fu](waiter)
                            ready_mask |= 1 << fu
            # No completion ever schedules onto the current slot
            # (latencies are >= 1 and below the wheel size), so the
            # slot list is safely reused after an in-place clear.
            del finishing[:]

        # ---------------- retire --------------------------------
        # The retired range is contiguous and bounded by the first
        # not-done entry: find it and free resources by prefix sums.
        if rob_head < rob_next and done[rob_head]:
            limit = rob_head + retire_width
            if rob_next < limit:
                limit = rob_next
            stop = done_find(0, rob_head, limit)
            if stop < 0:
                stop = limit
            free_regs[0] += gpr_prefix[stop] - gpr_prefix[rob_head]
            free_regs[1] += vpr_prefix[stop] - vpr_prefix[rob_head]
            free_regs[2] += fpr_prefix[stop] - fpr_prefix[rob_head]
            store_queue_used -= store_prefix[stop] - store_prefix[rob_head]
            retired += stop - rob_head
            rob_head = stop
            if retired >= n:
                if track_occupancy:
                    _record_occupancy(
                        occupancy, iq_count, inflight, rob_next - rob_head, 1
                    )
                break

        # ---------------- issue / execute -----------------------
        lsu_block = None
        mask = ready_mask
        while mask:
            low = mask & -mask
            mask -= low
            fu = low.bit_length() - 1
            ready_queue = ready[fu]
            capacity = capacity_of[fu]
            issued_here = 0
            ready_popleft = ready_queue.popleft
            while ready_queue and issued_here < capacity:
                index = ready_popleft()
                latency = base_latency[index]
                m = meta[index]
                if m & 3:
                    if m & 1:   # load
                        alias = -1
                        for word in words_of[index]:
                            store = store_word_get(word, -1)
                            if (
                                store >= 0
                                and store < index
                                and not done[store]
                            ):
                                alias = store
                                break
                        if alias >= 0:
                            lsu_block = Trauma.ST_DATA
                            deferred.append(index)
                            continue
                        is_wide = wide_extra and m & 8
                        port_busy = (
                            dl1_latency + (wide_extra if is_wide else 0)
                        )
                        port = -1
                        for candidate in range(read_ports):
                            if read_port_free[candidate] <= cycle:
                                read_port_free[candidate] = cycle + port_busy
                                port = candidate
                                break
                        if port < 0:
                            deferred.append(index)
                            break
                        if (
                            not memory_is_ideal
                            and outstanding_misses >= max_misses
                            and not dl1_probe(addresses[index])
                        ):
                            lsu_block = Trauma.MM_DMQF
                            read_port_free[port] = cycle  # release
                            deferred.append(index)
                            continue
                        access_latency, level, tlb_missed = access_data(
                            addresses[index], sizes[index]
                        )
                        if level != 1:
                            miss_info[index] = (
                                Trauma.MM_DL1 if level == 2
                                else Trauma.MM_DL2,
                                True,
                            )
                            outstanding_misses += 1
                        elif tlb_missed:
                            miss_info[index] = (Trauma.MM_TLB1, False)
                        latency = 1 + access_latency
                        if is_wide:
                            latency += wide_extra
                    else:       # store
                        port = -1
                        for candidate in range(write_ports):
                            if write_port_free[candidate] <= cycle:
                                write_port_free[candidate] = (
                                    cycle + dl1_latency
                                )
                                port = candidate
                                break
                        if port < 0:
                            deferred.append(index)
                            break
                        access_data(addresses[index], sizes[index])
                        for word in words_of[index]:
                            pending_store_words[word] = index
                issued[index] = 1
                iq_count[fu] -= 1
                issued_here += 1
                wheel[(cycle + latency) & wheel_mask].append(index)
                wheel_count += 1
            if deferred:
                for index in reversed(deferred):
                    ready_queue.appendleft(index)
                del deferred[:]
            if not ready_queue:
                ready_mask &= ~low

        # ---------------- dispatch ------------------------------
        dispatched = 0
        block_reason = None
        # The ROB-window and in-flight caps both shrink by one per
        # dispatch and blame identically; track the tighter headroom.
        win_room = retire_queue - (rob_next - rob_head)
        other_room = inflight_cap - inflight
        if other_room < win_room:
            win_room = other_room
        while dispatched < dispatch_width and ibuf_head < fetch_index:
            index = ibuf_head
            m = meta[index]
            fu = (m >> 4) & 7
            if iq_count[fu] >= iq_capacity:
                block_reason = _blame_queue(
                    fu, iq[fu], issued, n_undone, done, lsu_block,
                    fu_of, sources_of,
                )
                break
            regfile = ((m >> 7) & 3) - 1
            if regfile >= 0 and free_regs[regfile] == 0:
                block_reason = _blame_rob(
                    rob_head, rob_next, issued, n_undone, done,
                    miss_info, fu_of, sources_of,
                )
                if block_reason == Trauma.OTHER:
                    block_reason = Trauma.RENAME
                break
            if win_room <= 0:
                block_reason = _blame_rob(
                    rob_head, rob_next, issued, n_undone, done,
                    miss_info, fu_of, sources_of,
                )
                break
            if m & 2:
                if store_queue_used >= store_queue_size:
                    block_reason = Trauma.MM_STQF
                    break
                store_queue_used += 1
            ibuf_head += 1
            if regfile >= 0:
                free_regs[regfile] -= 1
            rob_next += 1
            inflight += 1
            win_room -= 1
            iq_count[fu] += 1
            iq_append[fu](index)
            if not n_undone[index]:
                ready_append[fu](index)
                ready_mask |= 1 << fu
            dispatched += 1

        if dispatched < dispatch_width:
            if block_reason is None:
                block_reason = fetch_reason
            if block_reason is last_reason:
                last_count += 1
            else:
                if last_count:
                    trauma_cycles[last_reason] = (
                        trauma_cycles_get(last_reason, 0) + last_count
                    )
                last_reason = block_reason
                last_count = 1

        # ---------------- fetch ---------------------------------
        # Spans between break positions (branches, frontend stall
        # events, buffer/budget bounds) advance in one jump; only the
        # breaks themselves are handled instruction by instruction.
        if wait_branch < 0 and cycle >= fetch_stall_until and fetch_index < n:
            budget = fetch_width
            while budget and fetch_index < n:
                position = fetch_index
                if position - ibuf_head >= ibuffer_cap:
                    fetch_reason = Trauma.IF_FULL
                    break
                stall = next_stall[position]
                if stall == position:
                    if stall_done_at != position:
                        ordinal = event_rank[position]
                        if ev_il1_missed[ordinal]:
                            line_address = (
                                pcs[position] >> il1_shift
                            ) * il1_line_bytes
                            if l2_access(line_address):
                                level = 2
                                fetch_reason = Trauma.IF_L1
                            else:
                                level = 3
                                fetch_reason = Trauma.IF_L2
                            latency = inst_latency[level]
                            if ev_itlb_missed[ordinal]:
                                latency += itlb_penalty
                        else:
                            latency = inst_latency[1] + itlb_penalty
                            fetch_reason = Trauma.IF_TLB1
                        fetch_stall_until = cycle + latency
                        stall_done_at = position
                        break
                    # Event already processed on a prior attempt; the
                    # next unprocessed stall is strictly later.
                    stall = next_stall[position + 1]
                if branch_next[position] == position:
                    if predicted_branches >= max_predicted:
                        fetch_reason = Trauma.IF_BRCH
                        break
                    code = bp_code[branch_rank[position]]
                    predicted_branches += 1
                    fetch_index = position + 1
                    budget -= 1
                    if code == _BR_NOT_TAKEN:
                        continue
                    if code == _BR_TAKEN_MISS:
                        fetch_stall_until = cycle + btb_miss_penalty
                        fetch_reason = Trauma.IF_NFA
                    elif code == _BR_MISPREDICT:
                        wait_branch = position
                        fetch_reason = Trauma.IF_PRED
                    break
                # Plain span: jump to the nearest break position.
                limit = position + budget
                room_end = ibuf_head + ibuffer_cap
                if room_end < limit:
                    limit = room_end
                branch_at = branch_next[position]
                if branch_at < limit:
                    limit = branch_at
                if stall < limit:
                    limit = stall
                if n < limit:
                    limit = n
                budget -= limit - position
                fetch_index = limit

        if track_occupancy:
            _record_occupancy(
                occupancy, iq_count, inflight, rob_next - rob_head, 1
            )

        # ---------------- stall fast-forward --------------------
        if (
            dispatched < dispatch_width
            and not ready_mask
            and (rob_head == rob_next or not done[rob_head])
        ):
            if ibuf_head < fetch_index:
                index = ibuf_head
                fu = fu_of[index]
                regfile = regfile_of[index]
                if iq_count[fu] >= iq_capacity:
                    skip_reason = _blame_queue(
                        fu, iq[fu], issued, n_undone, done, None,
                        fu_of, sources_of,
                    )
                elif regfile >= 0 and free_regs[regfile] == 0:
                    skip_reason = _blame_rob(
                        rob_head, rob_next, issued, n_undone, done,
                        miss_info, fu_of, sources_of,
                    )
                    if skip_reason == Trauma.OTHER:
                        skip_reason = Trauma.RENAME
                elif (
                    rob_next - rob_head >= retire_queue
                    or inflight >= inflight_cap
                ):
                    skip_reason = _blame_rob(
                        rob_head, rob_next, issued, n_undone, done,
                        miss_info, fu_of, sources_of,
                    )
                elif is_store[index] and store_queue_used >= store_queue_size:
                    skip_reason = Trauma.MM_STQF
                else:
                    skip_reason = None
            else:
                skip_reason = fetch_reason
            if skip_reason is not None:
                fetch_live = (
                    wait_branch < 0
                    and fetch_index < n
                    and fetch_index - ibuf_head < ibuffer_cap
                )
                if fetch_live:
                    bound = fetch_stall_until
                else:
                    bound = cycle + wheel_mask + 1
                if cycle_limit < bound:
                    bound = cycle_limit + 1
                skip_to = bound
                if wheel_count:
                    scan = bound - cycle - 1
                    if scan > wheel_mask:
                        scan = wheel_mask
                    for ahead in range(1, scan + 1):
                        if wheel[(cycle + ahead) & wheel_mask]:
                            skip_to = cycle + ahead
                            break
                skipped = skip_to - cycle - 1
                if skipped > 0:
                    if skip_reason is last_reason:
                        last_count += skipped
                    else:
                        if last_count:
                            trauma_cycles[last_reason] = (
                                trauma_cycles_get(last_reason, 0)
                                + last_count
                            )
                        last_reason = skip_reason
                        last_count = skipped
                    if track_occupancy:
                        _record_occupancy(
                            occupancy, iq_count, inflight,
                            rob_next - rob_head, skipped,
                        )
                    if (
                        fetch_index - ibuf_head >= ibuffer_cap
                        and wait_branch < 0
                        and fetch_index < n
                        and fetch_stall_until <= skip_to - 1
                    ):
                        fetch_reason = Trauma.IF_FULL
                    cycle += skipped

    if last_count:
        trauma_cycles[last_reason] = (
            trauma_cycles_get(last_reason, 0) + last_count
        )

    # ---------------- result assembly ---------------------------
    # Frontend statistics derive from the planes at the final fetch
    # cursor: a branch is predicted iff fetched, an I-cache/ITLB event
    # is accessed iff fetch crossed it (plus a processed-but-unfetched
    # stall event at the cursor itself).
    branches_done = branch_rank[fetch_index]
    events_done = event_rank[fetch_index]
    if stall_done_at == fetch_index:
        events_done += 1
    return SimulationResult(
        trace_name=trace_name,
        config_name=config.name,
        memory_name=memory.name,
        instructions=n,
        cycles=cycle,
        traumas={
            trauma.value: trauma_cycles.get(trauma, 0)
            for trauma in FIG2_ORDER
        },
        branch=BranchResult(
            predictions=branches_done,
            correct=bplane.correct_prefix[branches_done],
            btb_lookups=bplane.btb_lookup_prefix[branches_done],
            btb_misses=bplane.btb_miss_prefix[branches_done],
        ),
        il1=CacheResult(events_done, fplane.il1_miss_prefix[events_done]),
        dl1=CacheResult(hierarchy.dl1.accesses, hierarchy.dl1.misses),
        l2=CacheResult(hierarchy.l2.accesses, hierarchy.l2.misses),
        itlb=CacheResult(events_done, fplane.itlb_miss_prefix[events_done]),
        dtlb=CacheResult(hierarchy.dtlb.lookups, hierarchy.dtlb.misses),
        queue_occupancy=occupancy if track_occupancy else {},
    )
