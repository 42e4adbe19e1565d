"""Fabric-level failures, one exception type for the whole subsystem."""

from __future__ import annotations


class FabricError(RuntimeError):
    """A fabric operation failed (bad shard syntax, an incomplete or mixed shard set).

    The orchestration twin of :class:`repro.sim.sweep.SweepError`: the CLI
    turns both into one clean diagnostic line instead of a traceback.
    """
