"""Out-of-order pipeline model."""

from repro.uarch.pipeline.lockstep import LOCKSTEP_WIDTH, LockstepCore

__all__ = ["LockstepCore", "LOCKSTEP_WIDTH"]
