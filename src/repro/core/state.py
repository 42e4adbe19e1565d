"""Agent state containers for ``ElectLeader_r``.

Fig. 1 of the paper: an agent's state is a ``role`` tag plus the *active*
fields of that role — resetters carry ``PropagateReset`` state, rankers
carry ``AssignRanks_r`` state and a ``countdown``, verifiers carry a
``rank`` and ``StableVerify_r`` state (which nests ``DetectCollision_r``
state).  Whenever an agent changes role, all newly inactive fields are
deleted; we model this by setting the corresponding sub-state attribute to
``None`` so that stale data can never leak across roles.

The total state space is the *disjoint union* over roles of the
cross-products of the active fields; :mod:`repro.analysis.statespace`
computes its size from these definitions.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from typing import Optional

from repro.core.roles import Role


# ---------------------------------------------------------------------------
# PropagateReset (Appendix C)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PRState:
    """State of a resetting agent (Protocol 4).

    ``reset_count ∈ {0..R_max}`` drives the reset epidemic; an agent whose
    count has hit zero is *dormant* and waits out ``delay_timer ∈
    {0..D_max}`` before restarting as a ranker.
    """

    reset_count: int
    delay_timer: int

    @property
    def dormant(self) -> bool:
        """Dormant = the reset wave has passed, the agent awaits restart."""
        return self.reset_count == 0

    def clone(self) -> "PRState":
        return PRState(self.reset_count, self.delay_timer)


# ---------------------------------------------------------------------------
# AssignRanks (Appendix D) and FastLeaderElect (Appendix D.2)
# ---------------------------------------------------------------------------


class ARPhase(enum.Enum):
    """The six agent types of ``AssignRanks_r`` (Appendix D)."""

    LEADER_ELECTION = "leader_election"
    SHERIFF = "sheriff"
    DEPUTY = "deputy"
    RECIPIENT = "recipient"
    SLEEPER = "sleeper"
    RANKED = "ranked"


@dataclass(slots=True)
class ARState:
    """State of a ranking agent.

    Fields are grouped by the AR phase that uses them; inactive fields hold
    ``None``/defaults.  ``channel`` is the per-deputy max-counter broadcast
    array shared by all non-LE, non-ranked phases; ``rank`` is the agent's
    final computed rank (initialised to 1 and written exactly once, when
    the agent becomes ranked — Protocol 11).
    """

    phase: ARPhase = ARPhase.LEADER_ELECTION

    # FastLeaderElect fields (Appendix D.2, Fig. 4).
    identifier: Optional[int] = None  #: drawn u.a.r. from [n^3] on first activation
    min_identifier: Optional[int] = None  #: min-epidemic value
    le_count: int = 0  #: countdown, initialised c·log n on first activation
    leader_done: bool = False
    leader_bit: bool = False

    # Sheriff fields: inclusive badge range still to distribute.
    low_badge: int = 0
    high_badge: int = 0

    # Deputy fields.
    deputy_id: int = 0
    counter: int = 0  #: labels given out, including the deputy's own

    # Recipient / sleeper fields.
    label: Optional[tuple[int, int]] = None  #: (deputy id, per-deputy index)
    sleep_timer: int = 0

    # Shared fields.
    channel: tuple[int, ...] = ()  #: channel[i-1] = max observed counter of deputy i
    rank: int = 1  #: final rank; meaningful once phase == RANKED

    @property
    def in_leader_election(self) -> bool:
        return self.phase is ARPhase.LEADER_ELECTION

    @property
    def ranked(self) -> bool:
        return self.phase is ARPhase.RANKED

    def clone(self) -> "ARState":
        return ARState(
            phase=self.phase,
            identifier=self.identifier,
            min_identifier=self.min_identifier,
            le_count=self.le_count,
            leader_done=self.leader_done,
            leader_bit=self.leader_bit,
            low_badge=self.low_badge,
            high_badge=self.high_badge,
            deputy_id=self.deputy_id,
            counter=self.counter,
            label=self.label,
            sleep_timer=self.sleep_timer,
            channel=self.channel,
            rank=self.rank,
        )


# ---------------------------------------------------------------------------
# DetectCollision (Section 5.1)
# ---------------------------------------------------------------------------


class Top:
    """The error state ``⊤`` of ``DetectCollision_r`` (a singleton).

    ``⊤`` signals that a collision was found: a shared rank, a duplicated
    circulating message, or a message whose content contradicts its
    governor's recorded observation.
    """

    _instance: Optional["Top"] = None

    def __new__(cls) -> "Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊤"


#: The singleton error state.
TOP = Top()


@dataclass(slots=True)
class DCState:
    """Non-error state of ``DetectCollision_r`` (Fig. 3).

    ``msgs`` stores the circulating messages this agent currently *holds*,
    grouped by content: ``{governing rank: {content: ascending list of
    message ids}}``.  This is the paper's sparse array indexed by
    ``𝒢(rank) × [2 r_u^2]`` with values in ``[r_u^5]``, stored by content:
    ``BalanceLoad`` splits each (rank, content) class and a restamp turns
    a rank's classes into one, so the protocol works per class, not per
    message.  No list is empty.  ``observations`` is the dense array of
    the agent's own recorded contents for the messages *its* rank governs.

    Only this module and :mod:`repro.core.detect_collision` know what a
    rank's entry looks like; other code reaches holdings through the
    methods below.
    """

    signature: int = 1
    counter: int = 1
    #: held messages: governing rank -> {content -> ascending message ids}
    msgs: dict[int, dict[int, list[int]]] = field(default_factory=dict)
    #: own recorded contents, observations[j-1] for message id j
    observations: list[int] = field(default_factory=list)

    def held_count(self) -> int:
        """Total number of messages currently held."""
        return sum(len(ids) for groups in self.msgs.values() for ids in groups.values())

    def holds(self, rank: int, msg_id: int) -> bool:
        groups = self.msgs.get(rank)
        return groups is not None and any(msg_id in ids for ids in groups.values())

    def held_messages(self) -> list[tuple[int, int, int]]:
        """Every held message as ``(rank, id, content)``, sorted by rank, then id."""
        return sorted(
            (rank, msg_id, content)
            for rank, groups in self.msgs.items()
            for content, ids in groups.items()
            for msg_id in ids
        )

    def set_content(self, rank: int, msg_id: int, content: int) -> None:
        """Hold message ``(rank, msg_id)`` with ``content``, moving it out of
        its current content class if it is already held."""
        groups = self.msgs.setdefault(rank, {})
        for old, ids in groups.items():
            if msg_id in ids:
                ids.remove(msg_id)
                if not ids:
                    del groups[old]
                break
        insort(groups.setdefault(content, []), msg_id)

    def clone(self) -> "DCState":
        return DCState(
            signature=self.signature,
            counter=self.counter,
            msgs={
                rank: {content: list(ids) for content, ids in groups.items()}
                for rank, groups in self.msgs.items()
            },
            observations=list(self.observations),
        )


#: A DetectCollision state is either ``TOP`` or a :class:`DCState`.
DCValue = "DCState | Top"


# ---------------------------------------------------------------------------
# StableVerify (Section 5)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SVState:
    """State of a verifying agent (Fig. 2): generation, probation, DC state."""

    generation: int = 0  #: in Z_6
    probation_timer: int = 0  #: in {0..P_max}
    dc: "DCState | Top" = field(default_factory=DCState)

    def clone(self) -> "SVState":
        dc = self.dc if self.dc is TOP else self.dc.clone()
        return SVState(self.generation, self.probation_timer, dc)


# ---------------------------------------------------------------------------
# The full agent state (Fig. 1)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AgentState:
    """One agent's complete ``ElectLeader_r`` state.

    Exactly one of ``pr``/``ar``/``sv`` is populated, matching ``role``;
    ``rank`` and ``countdown`` are the wrapper-level fields of Fig. 1
    (``rank`` is active for verifiers, ``countdown`` for rankers).
    """

    role: Role = Role.RANKING
    rank: int = 1
    countdown: int = 0
    pr: Optional[PRState] = None
    ar: Optional[ARState] = None
    sv: Optional[SVState] = None

    def clone(self) -> "AgentState":
        return AgentState(
            role=self.role,
            rank=self.rank,
            countdown=self.countdown,
            pr=self.pr.clone() if self.pr is not None else None,
            ar=self.ar.clone() if self.ar is not None else None,
            sv=self.sv.clone() if self.sv is not None else None,
        )

    def consistent(self) -> bool:
        """True iff exactly the role's sub-state is populated."""
        populated = {
            Role.RESETTING: (self.pr is not None, self.ar is None, self.sv is None),
            Role.RANKING: (self.pr is None, self.ar is not None, self.sv is None),
            Role.VERIFYING: (self.pr is None, self.ar is None, self.sv is not None),
        }[self.role]
        return all(populated)
