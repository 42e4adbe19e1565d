"""Availability bookkeeping for the fault workloads.

The paper's motivation (Section 1): "the agents' memory and, therefore,
their states can be corrupted through all kinds of outside influences" —
self-stabilization is the answer to faults being the rule rather than the
exception.  :class:`repro.sim.fault_engine.FaultEngine` turns that story
into a measurable workload: it injects corruption bursts at exponentially
distributed intervals and samples a correctness predicate at checkpoints.
This module holds the records those drivers share: :class:`FaultEvent`
(one fired burst), :class:`AvailabilityAccounting` (the checkpoint
bookkeeping) and :class:`AvailabilityReport` (the fraction of checkpoints
at which the output was correct, plus the repair-time samples).

Experiment E15 sweeps the fault rate: availability should degrade
gracefully and recover to ~1 when the mean fault interval exceeds the
recovery time — the operational content of Theorem 1.1's recovery bound.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass
class FaultEvent:
    """One injected fault burst."""

    interaction: int


class AvailabilityAccounting:
    """Shared checkpoint bookkeeping of the availability workloads.

    Both availability drivers — :meth:`repro.sim.fault_engine.FaultEngine
    .measure_availability` (one trial on any engine) and
    :meth:`repro.sim.counts_backend.CountsSimulation
    .measure_rows_availability` (every row of a counts matrix) — sample a
    correctness predicate at checkpoints and owe **one repair sample per
    burst**, measured to the first correct checkpoint after it.  That
    accounting was subtle enough to have been fixed once already (earlier
    bursts used to be dropped when several landed before a repair), so it
    lives here exactly once and the drivers only feed it events and
    checkpoint verdicts.
    """

    def __init__(self) -> None:
        self.checkpoints = 0
        self.available = 0
        self.repair_times: list[int] = []
        self.last_correct = False
        # Every burst still awaiting its first correct checkpoint.
        # Keeping all of them (not just the latest) is what makes the
        # repair-time sample one-per-burst: under bursty injection
        # several faults can land before the protocol recovers, and each
        # owes a measurement.
        self._pending_faults: list[int] = []
        self._fault_cursor = 0

    def note_events(self, events: Sequence[FaultEvent]) -> None:
        """Absorb any bursts injected since the last call."""
        while self._fault_cursor < len(events):
            self._pending_faults.append(events[self._fault_cursor].interaction)
            self._fault_cursor += 1

    def checkpoint(self, now: int, correct: bool) -> None:
        """Record one checkpoint verdict at interaction count ``now``."""
        self.checkpoints += 1
        self.last_correct = correct
        if correct:
            self.available += 1
            self.repair_times.extend(now - fault for fault in self._pending_faults)
            self._pending_faults.clear()

    def report(self, *, total_interactions: int, fault_bursts: int) -> "AvailabilityReport":
        return AvailabilityReport(
            interactions=total_interactions,
            checkpoints=self.checkpoints,
            available_checkpoints=self.available,
            fault_bursts=fault_bursts,
            repair_times=self.repair_times,
            last_checkpoint_correct=self.last_correct,
        )


@dataclass
class AvailabilityReport:
    """Result of an availability run."""

    interactions: int
    checkpoints: int
    available_checkpoints: int
    fault_bursts: int
    repair_times: list[int]
    #: Whether the final checkpoint was correct — "available right now" at
    #: the end of the run (the convergence stand-in for fault workloads).
    last_checkpoint_correct: bool = False

    @property
    def availability(self) -> float:
        return self.available_checkpoints / self.checkpoints if self.checkpoints else 0.0

    @property
    def median_repair_interactions(self) -> float:
        return statistics.median(self.repair_times) if self.repair_times else math.nan

    def as_row(self) -> dict[str, object]:
        return {
            "availability": round(self.availability, 3),
            "fault_bursts": self.fault_bursts,
            "median_repair": self.median_repair_interactions,
        }
