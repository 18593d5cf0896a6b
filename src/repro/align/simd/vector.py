"""Altivec-style SIMD vector emulation.

The paper's SW_vmx128 workload uses the PowerPC Altivec extension
(128-bit registers), and its novel SW_vmx256 variant widens the same
instruction set to 256-bit registers.  This module emulates the subset
of Altivec semantics the Smith-Waterman kernels need, on top of numpy:

* fixed-width registers holding ``width_bits // 16`` signed 16-bit lanes
  (the element size the FASTA Altivec code uses for scores);
* saturating add/subtract (``vec_adds``/``vec_subs``), element max
  (``vec_max``), splat, and the lane-shift-with-carry idiom built from
  ``vec_sld``/``vec_perm`` that anti-diagonal SW kernels use to move
  values between neighbouring rows.

All operations return fresh arrays; registers are plain ``numpy`` int16
arrays so tests can compare them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Saturation bounds of a signed 16-bit lane.
INT16_MIN = -32768
INT16_MAX = 32767


@dataclass(frozen=True)
class VectorConfig:
    """Width of the emulated vector unit.

    The paper studies 128-bit (existing Altivec) and 256-bit (futuristic)
    registers; with 16-bit score lanes those give 8 and 16 lanes.
    """

    width_bits: int = 128
    element_bits: int = 16

    def __post_init__(self) -> None:
        if self.element_bits != 16:
            raise ValueError("only 16-bit lanes are supported")
        if self.width_bits % self.element_bits != 0:
            raise ValueError("register width must be a multiple of lane width")
        if self.lanes < 2:
            raise ValueError("vector registers need at least 2 lanes")

    @property
    def lanes(self) -> int:
        """Number of 16-bit elements per register."""
        return self.width_bits // self.element_bits


VMX128 = VectorConfig(width_bits=128)
VMX256 = VectorConfig(width_bits=256)


class VectorUnit:
    """Functional model of the Altivec operations used by SW kernels."""

    def __init__(self, config: VectorConfig = VMX128) -> None:
        self.config = config
        self.lanes = config.lanes

    def _check(self, *registers: np.ndarray) -> None:
        for register in registers:
            if register.shape != (self.lanes,):
                raise ValueError(
                    f"register has {register.shape}, expected ({self.lanes},)"
                )

    def splat(self, value: int) -> np.ndarray:
        """vec_splat: broadcast a scalar to all lanes (saturated)."""
        clamped = max(INT16_MIN, min(INT16_MAX, value))
        return np.full(self.lanes, clamped, dtype=np.int16)

    def zero(self) -> np.ndarray:
        """All-zero register."""
        return np.zeros(self.lanes, dtype=np.int16)

    def load(self, values) -> np.ndarray:
        """Load lane values from any length-``lanes`` int sequence."""
        array = np.asarray(values, dtype=np.int64)
        if array.shape != (self.lanes,):
            raise ValueError(f"expected {self.lanes} lane values")
        return np.clip(array, INT16_MIN, INT16_MAX).astype(np.int16)

    def adds(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """vec_adds: lane-wise saturating signed add."""
        self._check(a, b)
        wide = a.astype(np.int32) + b.astype(np.int32)
        return np.minimum(np.maximum(wide, INT16_MIN), INT16_MAX).astype(np.int16)

    def subs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """vec_subs: lane-wise saturating signed subtract."""
        self._check(a, b)
        wide = a.astype(np.int32) - b.astype(np.int32)
        return np.minimum(np.maximum(wide, INT16_MIN), INT16_MAX).astype(np.int16)

    def vmax(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """vec_max: lane-wise signed maximum."""
        self._check(a, b)
        return np.maximum(a, b)

    def shift_down(self, a: np.ndarray, carry_in: int) -> np.ndarray:
        """Move every lane to the next-higher index, inserting ``carry_in``.

        This is the ``vec_sld``/``vec_perm`` idiom anti-diagonal kernels
        use to hand row ``i``'s value to row ``i+1``; lane 0 receives the
        block-boundary carry.  The value previously in the last lane
        falls out (the caller saves it first via :meth:`extract`).
        """
        self._check(a)
        shifted = np.empty_like(a)
        shifted[1:] = a[:-1]
        shifted[0] = max(INT16_MIN, min(INT16_MAX, carry_in))
        return shifted

    def extract(self, a: np.ndarray, lane: int) -> int:
        """Read one lane as a Python int (vec_extract / store + load)."""
        self._check(a)
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} out of range")
        return int(a[lane])

    def horizontal_max(self, a: np.ndarray) -> int:
        """Maximum across lanes (reduction done with log2(lanes) vec_max)."""
        self._check(a)
        return int(a.max())

    def gather_scores(self, matrix_rows, query_codes, subject_codes) -> np.ndarray:
        """Build the substitution-score vector for one anti-diagonal.

        Lane ``k`` receives ``matrix[query_codes[k]][subject_codes[k]]``;
        out-of-range lanes (marked with code ``-1``) get ``INT16_MIN`` so
        they never win a max.  The hardware equivalent is a pair of
        vec_perm lookups into preloaded matrix columns.
        """
        out = np.full(self.lanes, INT16_MIN, dtype=np.int16)
        for k in range(self.lanes):
            q_code = query_codes[k]
            s_code = subject_codes[k]
            if q_code >= 0 and s_code >= 0:
                out[k] = matrix_rows[q_code][s_code]
        return out
