"""Altivec-style SIMD emulation and vectorized Smith-Waterman."""

from repro.align.simd.sw_vmx import (
    sw_score_columns,
    sw_score_vmx,
    sw_score_vmx128,
    sw_score_vmx256,
)
from repro.align.simd.vector import (
    INT16_MAX,
    INT16_MIN,
    VMX128,
    VMX256,
    VectorConfig,
    VectorUnit,
)

__all__ = [
    "sw_score_columns",
    "sw_score_vmx",
    "sw_score_vmx128",
    "sw_score_vmx256",
    "INT16_MAX",
    "INT16_MIN",
    "VMX128",
    "VMX256",
    "VectorConfig",
    "VectorUnit",
]
