"""Agent roles and generation arithmetic.

``ElectLeader_r`` gates its sub-protocols on a per-agent ``role`` field
(Section 4): *resetters* run ``PropagateReset``, *rankers* run
``AssignRanks_r`` and *verifiers* run ``StableVerify_r``.  The verifier
layer additionally tracks a *generation* counter in ``Z_6`` used by the
soft-reset epidemic (Section 3.2); :func:`generation_ahead` implements the
"larger by one (mod 6)" comparison of Protocol 2.
"""

from __future__ import annotations

import enum


class Role(enum.Enum):
    """The three top-level roles of ``ElectLeader_r`` (Fig. 1)."""

    RESETTING = "resetting"
    RANKING = "ranking"
    VERIFYING = "verifying"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Role.{self.name}"


def generation_successor(generation: int, modulus: int = 6) -> int:
    """The generation a soft reset advances to: ``g + 1 (mod modulus)``."""
    return (generation + 1) % modulus


def generation_ahead(own: int, other: int, modulus: int = 6) -> bool:
    """True iff ``other`` is exactly one generation ahead of ``own`` (mod m).

    Protocol 2 lines 10-12: an agent with probation timer 0 whose partner is
    one generation ahead adopts the successor generation via epidemic.  Any
    other difference is illegal and forces a hard reset (line 13).
    """
    return (own + 1) % modulus == other % modulus
