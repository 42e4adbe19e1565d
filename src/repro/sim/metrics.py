"""Interaction accounting for simulations.

The paper measures protocols in *interactions* and in *(parallel) time* =
interactions / n.  :class:`Metrics` tracks both.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Metrics:
    """Counters collected over one simulation run."""

    n: int
    interactions: int = 0

    @property
    def parallel_time(self) -> float:
        """Interactions divided by n — the paper's notion of time."""
        return self.interactions / self.n
