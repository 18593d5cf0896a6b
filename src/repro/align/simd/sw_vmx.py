"""Vectorized Smith-Waterman (Wozniak anti-diagonal scheme) on emulated
Altivec registers.

The paper's SW_vmx128/SW_vmx256 workloads implement "a variant of the
approach presented in [31]" (Wozniak 1997): the DP matrix is processed
in blocks of ``lanes`` query rows, and within a block the wavefront
moves along anti-diagonals, where all cells are independent and fit one
vector register (paper listing 3's ``i += 8`` / ``j += 8`` structure).

Per anti-diagonal step the kernel does a fixed sequence of vector
ops — substitution-score gather (vec_perm territory), saturating adds
and maxes, and lane shifts to pass values between neighbouring rows —
with *no data-dependent control flow*: the loop trip counts depend only
on the sequence lengths.  That regularity is exactly why the paper
finds ~2% branches and near-perfect prediction for these codes, while
their long vector dependency chains (rg_vi / rg_vper traumas) become
the new bottleneck.

Scores are identical to the scalar kernels; the test suite enforces it.

:func:`sw_score_columns` computes the same score a whole DP column at a
time (the SWAPHI/SSW approach) instead of one lane-wide wavefront step
at a time; the traced SW_vmx kernels score subjects with it, and
:func:`sw_score_vmx` stays as the lane-level oracle it is tested
against.
"""

from __future__ import annotations

import numpy as np

from repro.align.simd.vector import (
    INT16_MAX,
    INT16_MIN,
    VMX128,
    VMX256,
    VectorConfig,
    VectorUnit,
)
from repro.align.types import GapPenalties, PAPER_GAPS
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence, as_sequence


def sw_score_vmx(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
    config: VectorConfig = VMX128,
) -> int:
    """Score-only vectorized Smith-Waterman.

    Equivalent to :func:`repro.align.smith_waterman.sw_score` but
    computed ``config.lanes`` cells at a time along anti-diagonals.
    """
    q = as_sequence(query).codes
    s = as_sequence(subject).codes
    if not q or not s:
        return 0

    unit = VectorUnit(config)
    lanes = unit.lanes
    m, n = len(q), len(s)
    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend
    rows = matrix.rows

    gf_vec = unit.splat(gap_first)
    ge_vec = unit.splat(gap_extend)
    zero_vec = unit.zero()
    sentinel = INT16_MIN

    # Block-boundary state: H and F of the row above the current block,
    # indexed by column (0..n).  Row 0 is the all-zero DP boundary.
    h_boundary = [0] * (n + 1)
    f_boundary = [sentinel] * (n + 1)

    best = 0
    for r0 in range(0, m, lanes):
        block_codes = [q[r0 + k] if r0 + k < m else -1 for k in range(lanes)]
        last_lane = min(lanes, m - r0) - 1

        new_h_boundary = [0] * (n + 1)
        new_f_boundary = [sentinel] * (n + 1)

        v_h_prev = zero_vec.copy()      # diagonal t-1
        v_h_prev2 = zero_vec.copy()     # diagonal t-2
        v_e_prev = unit.splat(sentinel)
        v_f_prev = unit.splat(sentinel)

        for t in range(1, n + lanes):
            # Column index per lane: lane k sits on column t - k.
            subject_codes = [
                s[t - k - 1] if 1 <= t - k <= n else -1 for k in range(lanes)
            ]

            # E: gap along the subject, element-wise from diagonal t-1.
            v_e = unit.vmax(
                unit.subs(v_h_prev, gf_vec), unit.subs(v_e_prev, ge_vec)
            )
            # F: gap along the query, from the row above (lane shift).
            carry_h = h_boundary[t] if t <= n else 0
            carry_f = f_boundary[t] if t <= n else sentinel
            v_f = unit.vmax(
                unit.subs(unit.shift_down(v_h_prev, carry_h), gf_vec),
                unit.subs(unit.shift_down(v_f_prev, carry_f), ge_vec),
            )
            # Diagonal term from t-2, shifted, plus substitution scores.
            carry_diag = h_boundary[t - 1] if t - 1 <= n else 0
            v_scores = unit.gather_scores(rows, block_codes, subject_codes)
            v_diag = unit.adds(unit.shift_down(v_h_prev2, carry_diag), v_scores)

            v_h = unit.vmax(unit.vmax(v_diag, v_e), unit.vmax(v_f, zero_vec))

            # Mask lanes whose column is outside the matrix so they feed
            # correct boundary values into later diagonals.
            for k in range(lanes):
                if subject_codes[k] < 0:
                    v_h[k] = 0
                    v_e[k] = sentinel
                    v_f[k] = sentinel

            lane_best = unit.horizontal_max(v_h)
            if lane_best > best:
                best = lane_best

            # The last valid row of the block feeds the next block.
            j_last = t - last_lane
            if 1 <= j_last <= n:
                new_h_boundary[j_last] = unit.extract(v_h, last_lane)
                new_f_boundary[j_last] = unit.extract(v_f, last_lane)

            v_h_prev2 = v_h_prev
            v_h_prev = v_h
            v_e_prev = v_e
            v_f_prev = v_f

        h_boundary = new_h_boundary
        f_boundary = new_f_boundary

    return best


def sw_score_columns(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """Exact score-only Smith-Waterman, one NumPy pass per subject column.

    Returns what :func:`sw_score_vmx` returns at any width: the exact
    local score (:func:`repro.align.smith_waterman.sw_score`), clamped
    to ``INT16_MAX``.  The clamp is the int16 saturation: the lanes
    agree with the exact DP until the first cell reaches ``INT16_MAX``,
    and from then on the running best stays there.

    Per column, ``E`` comes from the previous column and
    ``H' = max(D, E, 0)`` over the whole query at once.  The vertical
    gap needs no per-row recurrence: ``F[i] = max over k < i of
    H'[k] - first - (i-1-k)*extend`` is a prefix max over
    ``H'[k] + k*extend``.  That is exact because
    ``first_residue_cost >= extend``: a vertical gap never gains from
    closing and reopening, so ``F`` from ``H'`` equals ``F`` from ``H``.
    Finally ``H = max(H', F)``.
    """
    q = as_sequence(query).codes
    s = as_sequence(subject).codes
    if not q or not s:
        return 0
    m = len(q)
    # profile[c][i] is the score of query row i against residue code c.
    profile = np.asarray(matrix.rows, dtype=np.int64)[np.asarray(q)].T.copy()
    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend

    ramp = np.arange(m + 1, dtype=np.int64) * gap_extend
    f_offset = ramp[:-1] + gap_first
    # Row 0 of both H arrays is the all-zero DP boundary.
    h = np.zeros(m + 1, dtype=np.int64)
    h_open = np.zeros(m + 1, dtype=np.int64)
    h_body = h[1:]
    h_open_body = h_open[1:]
    # E entering the first column opens from the zero column before it.
    e = np.full(m, -gap_first, dtype=np.int64)
    best = np.zeros(m, dtype=np.int64)
    shifted = np.empty(m + 1, dtype=np.int64)
    work = np.empty(m, dtype=np.int64)
    for code in s:
        np.add(h[:-1], profile[code], out=h_open_body)
        np.maximum(h_open_body, e, out=h_open_body)
        np.maximum(h_open_body, 0, out=h_open_body)
        np.add(h_open, ramp, out=shifted)
        np.maximum.accumulate(shifted[:-1], out=work)
        np.subtract(work, f_offset, out=work)
        np.maximum(h_open_body, work, out=h_body)
        np.maximum(best, h_body, out=best)
        np.subtract(e, gap_extend, out=e)
        np.subtract(h_body, gap_first, out=work)
        np.maximum(e, work, out=e)
    return min(int(best.max()), INT16_MAX)


def sw_score_vmx128(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """128-bit (8-lane) vectorized Smith-Waterman score."""
    return sw_score_vmx(query, subject, matrix=matrix, gaps=gaps, config=VMX128)


def sw_score_vmx256(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """256-bit (16-lane) futuristic vectorized Smith-Waterman score."""
    return sw_score_vmx(query, subject, matrix=matrix, gaps=gaps, config=VMX256)
