"""Traced SW_vmx kernel scores against the lane-level oracle.

The kernels score each subject with the column scorer after emitting
its wavefront, so these checks pin three things: the scores equal
``sw_score_vmx`` at the kernel's width, they do so whichever emission
mode and recording choice is in force (``emit_mode=None`` follows
``REPRO_EMIT``, which CI also sets to ``scalar``), and a subject cut by
the instruction budget gets no score.  An empty query scores zero.
"""

import pytest

from repro.align.simd.sw_vmx import sw_score_vmx
from repro.align.simd.vector import VMX128, VMX256
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence
from repro.kernels.sw_vmx_kernel import SwVmxKernel

CONFIGS = pytest.mark.parametrize("config", [VMX128, VMX256], ids=["vmx128", "vmx256"])
EMIT_MODES = pytest.mark.parametrize("emit_mode", [None, "templated", "scalar"])


@pytest.fixture(scope="module")
def oracle_scores(short_query, tiny_database):
    """``sw_score_vmx`` of every subject, per vector width."""
    return {
        config: {
            subject.identifier: sw_score_vmx(short_query, subject, config=config)
            for subject in tiny_database
        }
        for config in (VMX128, VMX256)
    }


@CONFIGS
@EMIT_MODES
@pytest.mark.parametrize("record", [True, False])
def test_scores_equal_lane_oracle(
    config, emit_mode, record, short_query, tiny_database, oracle_scores
):
    run = SwVmxKernel(config).run(
        short_query, tiny_database, record=record, emit_mode=emit_mode
    )
    assert not run.truncated
    assert run.scores == oracle_scores[config]


@CONFIGS
@EMIT_MODES
def test_budget_cut_subject_is_unscored(
    config, emit_mode, short_query, tiny_database, oracle_scores
):
    kernel = SwVmxKernel(config)
    subjects = list(tiny_database)
    # Instructions emitted for each database prefix; the per-subject
    # stream does not depend on the other subjects.
    prefix_counts = [
        kernel.run(
            short_query,
            SequenceDatabase(subjects[:k], name="prefix"),
            record=False,
            emit_mode=emit_mode,
        ).instruction_count
        for k in range(1, len(subjects) + 1)
    ]
    cut = len(subjects) // 2
    limit = (prefix_counts[cut - 1] + prefix_counts[cut]) // 2

    run = kernel.run(
        short_query, tiny_database, record=False, limit=limit, emit_mode=emit_mode
    )
    assert run.truncated
    assert list(run.scores) == [s.identifier for s in subjects[:cut]]
    assert subjects[cut].identifier not in run.scores
    assert run.scores == {
        sid: oracle_scores[config][sid] for sid in run.scores
    }


@CONFIGS
@EMIT_MODES
def test_empty_query_scores_zero(config, emit_mode, tiny_database):
    run = SwVmxKernel(config).run(
        Sequence("empty", ""), tiny_database, emit_mode=emit_mode
    )
    assert run.scores == {subject.identifier: 0 for subject in tiny_database}
