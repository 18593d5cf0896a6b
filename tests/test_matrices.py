"""Unit and property tests for substitution matrices."""

import pytest
from hypothesis import given, strategies as st

from repro.bio.alphabet import PROTEIN
from repro.bio.matrices import (
    BLOSUM50,
    BLOSUM62,
    PAM250,
    ScoringMatrix,
    get_matrix,
)

ALL_MATRICES = (BLOSUM62, BLOSUM50, PAM250)


class TestKnownValues:
    """Spot checks against published BLOSUM62 entries."""

    def test_identities(self):
        assert BLOSUM62.score_symbols("W", "W") == 11
        assert BLOSUM62.score_symbols("C", "C") == 9
        assert BLOSUM62.score_symbols("A", "A") == 4

    def test_substitutions(self):
        assert BLOSUM62.score_symbols("A", "R") == -1
        assert BLOSUM62.score_symbols("I", "L") == 2
        assert BLOSUM62.score_symbols("W", "G") == -2

    def test_max_and_min(self):
        assert BLOSUM62.max_score() == 11  # W-W
        assert BLOSUM62.min_score() == -4


@pytest.mark.parametrize("matrix", ALL_MATRICES, ids=lambda m: m.name)
class TestMatrixInvariants:
    def test_symmetric(self, matrix):
        assert matrix.is_symmetric()

    def test_diagonal_positive(self, matrix):
        # Self-substitution of standard residues always scores > 0.
        for code in range(20):
            assert matrix.score(code, code) > 0

    def test_diagonal_is_row_maximum_mostly(self, matrix):
        # A residue's best match is itself (or a close relative).
        for code in range(20):
            assert matrix.score(code, code) == max(matrix.row(code)[:20])

    def test_flat_layout(self, matrix):
        size = matrix.size
        for a in range(size):
            for b in range(size):
                assert matrix.flat[a * size + b] == matrix.score(a, b)


class TestLookup:
    def test_aliases(self):
        assert get_matrix("BL62") is BLOSUM62
        assert get_matrix("blosum62") is BLOSUM62
        assert get_matrix("bl50") is BLOSUM50
        assert get_matrix("PAM250") is PAM250

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_matrix("BLOSUM999")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ScoringMatrix(name="bad", alphabet=PROTEIN, rows=((1, 2), (3, 4)))

    def test_asymmetric_rejected(self):
        rows = [list(row) for row in BLOSUM62.rows]
        rows[0][1] += 1
        with pytest.raises(ValueError, match="not symmetric"):
            ScoringMatrix(
                name="skewed", alphabet=PROTEIN, rows=tuple(map(tuple, rows))
            )


@given(
    a=st.integers(min_value=0, max_value=22),
    b=st.integers(min_value=0, max_value=22),
)
def test_symmetry_property(a, b):
    for matrix in ALL_MATRICES:
        assert matrix.score(a, b) == matrix.score(b, a)


@given(
    a=st.sampled_from("ARNDCQEGHILKMFPSTWYV"),
    b=st.sampled_from("ARNDCQEGHILKMFPSTWYV"),
)
def test_symbol_and_code_paths_agree(a, b):
    code_a, code_b = PROTEIN.code_of(a), PROTEIN.code_of(b)
    assert BLOSUM62.score_symbols(a, b) == BLOSUM62.score(code_a, code_b)
