"""Equality of vectorized Smith-Waterman with the scalar reference.

Two vectorized scorers are checked: the lane-level Wozniak wavefront
(``sw_score_vmx``) and the column-at-a-time exact scorer the traced
kernels use (``sw_score_columns``).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.align.simd.sw_vmx import (
    sw_score_columns,
    sw_score_vmx,
    sw_score_vmx128,
    sw_score_vmx256,
)
from repro.align.simd.vector import INT16_MAX, VMX128, VMX256
from repro.align.smith_waterman import sw_score
from repro.align.types import GapPenalties
from repro.bio.alphabet import PROTEIN
from repro.bio.matrices import BLOSUM50, ScoringMatrix
from repro.bio.synthetic import MutationModel, random_protein

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
proteins = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=40)


@st.composite
def gapped_pairs(draw):
    """Two proteins sharing flanks around a chunk only one of them has.

    The shared flanks make an alignment with a gap in one sequence (the
    draw picks which) the likely optimum; random pairs rarely open one.
    """
    left = draw(st.text(alphabet=AMINO_ACIDS, min_size=6, max_size=20))
    chunk = draw(st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=6))
    right = draw(st.text(alphabet=AMINO_ACIDS, min_size=6, max_size=20))
    pair = (left + chunk + right, left + right)
    return pair[::-1] if draw(st.booleans()) else pair


class TestEdgeCases:
    def test_empty_inputs(self):
        assert sw_score_vmx128("", "ACD") == 0
        assert sw_score_vmx128("ACD", "") == 0
        assert sw_score_vmx256("", "") == 0

    def test_single_residue(self):
        assert sw_score_vmx128("W", "W") == sw_score("W", "W")

    def test_query_shorter_than_lane_count(self):
        assert sw_score_vmx128("ACD", "ACDEFG") == sw_score("ACD", "ACDEFG")
        assert sw_score_vmx256("ACD", "ACDEFG") == sw_score("ACD", "ACDEFG")

    def test_query_exactly_one_block(self):
        query = "ACDEFGHI"  # 8 residues = one vmx128 block
        subject = "ACDEFGHIKLMNP"
        assert sw_score_vmx128(query, subject) == sw_score(query, subject)

    def test_related_pair_with_gaps(self):
        rng = random.Random(9)
        base = random_protein(90, rng)
        related = MutationModel(indel_rate=0.05).mutate(base, rng)
        expected = sw_score(base, related)
        assert sw_score_vmx128(base, related) == expected
        assert sw_score_vmx256(base, related) == expected

    def test_alternative_matrix_and_gaps(self):
        rng = random.Random(10)
        a = random_protein(50, rng)
        b = random_protein(50, rng)
        gaps = GapPenalties(open=5, extend=2)
        expected = sw_score(a, b, matrix=BLOSUM50, gaps=gaps)
        assert sw_score_vmx(
            a, b, matrix=BLOSUM50, gaps=gaps, config=VMX128
        ) == expected
        assert sw_score_vmx(
            a, b, matrix=BLOSUM50, gaps=gaps, config=VMX256
        ) == expected


@settings(max_examples=40, deadline=None)
@given(a=proteins, b=proteins)
def test_vmx128_equals_scalar(a, b):
    assert sw_score_vmx128(a, b) == sw_score(a, b)


@settings(max_examples=30, deadline=None)
@given(a=proteins, b=proteins)
def test_vmx256_equals_scalar(a, b):
    assert sw_score_vmx256(a, b) == sw_score(a, b)


@settings(max_examples=20, deadline=None)
@given(
    a=proteins,
    b=proteins,
    gap_open=st.integers(min_value=1, max_value=14),
    gap_extend=st.integers(min_value=1, max_value=4),
)
def test_vmx_equals_scalar_across_penalties(a, b, gap_open, gap_extend):
    gaps = GapPenalties(open=gap_open, extend=gap_extend)
    assert sw_score_vmx128(a, b, gaps=gaps) == sw_score(a, b, gaps=gaps)


def symmetric_matrix(upper: list[int]) -> ScoringMatrix:
    """A PROTEIN-sized symmetric matrix from its upper triangle, row-major."""
    size = PROTEIN.size
    rows = [[0] * size for _ in range(size)]
    values = iter(upper)
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = next(values)
    return ScoringMatrix(
        name="large", alphabet=PROTEIN, rows=tuple(map(tuple, rows))
    )


#: Large-score symmetric matrices: a handful of matches pass 32767.
large_matrices = st.lists(
    st.integers(min_value=-4000, max_value=9000),
    min_size=PROTEIN.size * (PROTEIN.size + 1) // 2,
    max_size=PROTEIN.size * (PROTEIN.size + 1) // 2,
).map(symmetric_matrix)

gap_penalties = st.builds(
    GapPenalties,
    open=st.integers(min_value=0, max_value=14),
    extend=st.integers(min_value=0, max_value=4),
)


def all_scores(a, b, **kwargs) -> tuple[int, int, int]:
    """Column scorer, then the lane oracle at both widths."""
    return (
        sw_score_columns(a, b, **kwargs),
        sw_score_vmx(a, b, config=VMX128, **kwargs),
        sw_score_vmx(a, b, config=VMX256, **kwargs),
    )


class TestColumnScorer:
    def test_empty_inputs(self):
        assert sw_score_columns("", "ACD") == 0
        assert sw_score_columns("ACD", "") == 0
        assert sw_score_columns("", "") == 0

    def test_one_residue(self):
        assert all_scores("W", "W") == (sw_score("W", "W"),) * 3
        assert all_scores("W", "A") == (0, 0, 0)

    def test_gap_in_either_sequence(self):
        # 5 + 5 W matches (11 each) around a 4-residue gap (10 + 4).
        gapped, ungapped = "WWWWWGGGGWWWWW", "WWWWWWWWWW"
        assert sw_score(gapped, ungapped) == 96
        assert all_scores(gapped, ungapped) == (96,) * 3
        assert all_scores(ungapped, gapped) == (96,) * 3

    def test_saturates_like_int16_lanes(self):
        upper = [9000 if i == j else -1 for i in range(PROTEIN.size)
                 for j in range(i, PROTEIN.size)]
        matrix = symmetric_matrix(upper)
        assert sw_score("WWWWW", "WWWWW", matrix=matrix) == 45000
        assert all_scores("WWWWW", "WWWWW", matrix=matrix) == (INT16_MAX,) * 3


@settings(max_examples=40, deadline=None)
@given(
    pair=st.one_of(st.tuples(proteins, proteins), gapped_pairs()),
    gaps=gap_penalties,
)
def test_column_scorer_equals_oracles(pair, gaps):
    a, b = pair
    expected = sw_score(a, b, gaps=gaps)
    assert all_scores(a, b, gaps=gaps) == (expected,) * 3


@settings(max_examples=25, deadline=None)
@given(
    a=st.text(alphabet=AMINO_ACIDS, max_size=12),
    b=st.text(alphabet=AMINO_ACIDS, max_size=12),
    matrix=large_matrices,
    gaps=gap_penalties,
)
def test_column_scorer_equals_oracles_past_int16(a, b, matrix, gaps):
    expected = min(sw_score(a, b, matrix=matrix, gaps=gaps), INT16_MAX)
    assert all_scores(a, b, matrix=matrix, gaps=gaps) == (expected,) * 3
