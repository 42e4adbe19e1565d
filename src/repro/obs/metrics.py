"""The per-phase table every ``instrument_steps`` breakdown renders through."""

from __future__ import annotations

from typing import Mapping

from repro.obs.tracing import STEP_PHASES

__all__ = ["step_breakdown_rows"]


def step_breakdown_rows(timings: Mapping[str, float]) -> list[dict]:
    """The shared per-phase table for an ``instrument_steps`` breakdown.

    Returns ``{"phase", "seconds", "share"}`` rows in canonical
    :data:`STEP_PHASES` order (extra phases follow, in input order) —
    the one formatter behind the E22 benchmark table and the trace
    summary's phase table.
    """
    ordered = [phase for phase in STEP_PHASES if phase in timings]
    ordered += [phase for phase in timings if phase not in STEP_PHASES]
    total = sum(timings.values())
    return [
        {
            "phase": phase,
            "seconds": round(timings[phase], 4),
            "share": f"{(timings[phase] / total * 100) if total else 0.0:.0f}%",
        }
        for phase in ordered
    ]
