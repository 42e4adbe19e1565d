"""Protocol parameters for ``ElectLeader_r`` and its sub-protocols.

The paper states every bound asymptotically and leaves the leading constants
implicit (``C_max = Θ((n/r) log n)``, ``P_max = c_prob · (n/r) · log n``,
``R_max = 60 log n``, message pools of size ``Θ(r^2)`` per rank, signature
space ``[r^5]`` and so on).  For a runnable system every constant must be
pinned down; :class:`ProtocolParams` collects all of them in one place with
defaults chosen so that (a) the asymptotic *shape* in ``n`` and ``r`` matches
the paper exactly, and (b) populations of a few dozen to a few hundred agents
stabilize in simulable numbers of interactions.

All logarithms are natural, following the paper's convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _log(n: int) -> float:
    """Natural log clamped below at 1 so tiny populations get sane timers."""
    return max(1.0, math.log(max(2, n)))


@dataclass(frozen=True)
class ProtocolParams:
    """All tunable constants of ``ElectLeader_r``.

    Parameters
    ----------
    n:
        Population size.  The protocol is strongly non-uniform (Cai, Izumi
        and Wada show this is necessary for self-stabilizing leader
        election), so ``n`` is part of the transition function.
    r:
        Space-time trade-off parameter, ``1 <= r <= n/2``.  Larger ``r``
        means faster stabilization — ``O((n^2/r) log n)`` interactions —
        at the price of ``2^{O(r^2 log n)}`` states.

    The ``c_*`` attributes are the hidden constants of the paper's
    ``Θ(·)``/``O(·)`` expressions; see each property's docstring for which
    paper quantity it instantiates.
    """

    n: int
    r: int = 1

    # --- PropagateReset (Appendix C) -------------------------------------
    c_reset: float = 2.0  #: R_max = c_reset * log n  (paper: 60 log n)
    c_delay: float = 4.0  #: D_max = c_delay * log n  (paper: Ω(log n + R_max))

    # --- ElectLeader wrapper (Section 4) ----------------------------------
    c_countdown: float = 8.0  #: C_max = c_countdown * (n/r) * log n
    c_countdown_floor: float = 90.0  #: C_max >= c_countdown_floor * log n

    # --- StableVerify (Section 5) ------------------------------------------
    c_prob: float = 6.0  #: P_max = c_prob * (n/r) * log n
    c_prob_floor: float = 60.0  #: P_max >= c_prob_floor * log n
    generations: int = 6  #: generation counter modulus (paper: Z_6)

    # --- DetectCollision (Section 5.1) --------------------------------------
    msg_factor: int = 2  #: messages governed per rank = msg_factor * group_size^2
    sig_exponent: int = 5  #: signature space = [group_size ** sig_exponent]
    c_sig: float = 4.0  #: signature refresh period = c_sig * log(group_size)

    # --- AssignRanks (Appendix D) -------------------------------------------
    c_labels: float = 2.0  #: labels per deputy = ceil(c_labels * n / r)  (paper: c > 1)
    c_sleep: float = 6.0  #: sleep timer = c_sleep * log n
    c_le: float = 6.0  #: FastLeaderElect timer = c_le * log n (paper: c > 14)
    id_exponent: int = 3  #: FastLeaderElect identifier space = [n ** id_exponent]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"population size must be >= 2, got n={self.n}")
        if not 1 <= self.r <= max(1, self.n // 2):
            raise ValueError(
                f"trade-off parameter must satisfy 1 <= r <= n/2, got r={self.r}, n={self.n}"
            )
        if self.generations < 3:
            raise ValueError("generation modulus must be >= 3 for soft-reset epidemics")
        if self.c_labels <= 1.0:
            raise ValueError("c_labels must exceed 1 (paper requires c > 1 label slack)")

    # ------------------------------------------------------------------
    # Derived quantities (one per paper timer / pool size)
    # ------------------------------------------------------------------

    @property
    def log_n(self) -> float:
        """Natural log of the population size (clamped at 1)."""
        return _log(self.n)

    @property
    def reset_count_max(self) -> int:
        """``R_max``: reset epidemic countdown (Appendix C, Lemma C.1)."""
        return max(2, math.ceil(self.c_reset * self.log_n))

    @property
    def delay_timer_max(self) -> int:
        """``D_max``: dormancy delay before re-awakening (Appendix C)."""
        return max(2, math.ceil(self.c_delay * self.log_n))

    @property
    def countdown_max(self) -> int:
        """``C_max = Θ((n/r) log n)``: ranker→verifier fallback timer (Sec. 4).

        Floored at ``c_countdown_floor · log n``: the ranking pipeline's
        per-agent cost has a ``Θ(log n)`` component independent of ``r``
        (FastLeaderElect timer, sleep timer, broadcast epidemics), so for
        ``r = Θ(n)`` the bare ``(n/r)·log n`` formula would under-provision
        by a constant factor and livelock the protocol in a reset loop.
        Since ``n/r >= 2``, the floor changes ``C_max`` by at most the
        constant factor ``c_countdown_floor / (2 c_countdown)`` and the
        ``Θ((n/r) log n)`` asymptotics are preserved.
        """
        formula = self.c_countdown * (self.n / self.r) * self.log_n
        floor = self.c_countdown_floor * self.log_n
        return max(4, math.ceil(max(formula, floor)))

    @property
    def probation_max(self) -> int:
        """``P_max = c_prob (n/r) log n``: probation timer bound (Sec. 5).

        Floored at ``c_prob_floor · log n`` for the same reason as
        :attr:`countdown_max` — probation must outlast the constant-factor
        ``Θ(log n)`` per-agent cost of collision detection at ``r = Θ(n)``.
        """
        formula = self.c_prob * (self.n / self.r) * self.log_n
        floor = self.c_prob_floor * self.log_n
        return max(4, math.ceil(max(formula, floor)))

    @property
    def labels_per_deputy(self) -> int:
        """``ceil(c n / r)``: size of each deputy's label pool (Appendix D)."""
        return math.ceil(self.c_labels * self.n / self.r)

    @property
    def sleep_timer_max(self) -> int:
        """``c_sleep log n``: interactions slept before self-ranking (Prot. 11)."""
        return max(2, math.ceil(self.c_sleep * self.log_n))

    @property
    def le_count_max(self) -> int:
        """``c log n`` timer of FastLeaderElect (Appendix D.2, c > 14 in paper)."""
        return max(2, math.ceil(self.c_le * self.log_n))

    @property
    def identifier_space(self) -> int:
        """``n^3`` identifier space of FastLeaderElect (Lemma D.10)."""
        return self.n**self.id_exponent

    # Group-local quantities.  ``DetectCollision_r`` is instantiated per
    # rank-group of size m in {ceil(r/2) .. r}; the paper parametrizes the
    # message system by the group size (written r_u for agent u).

    def messages_per_rank(self, group_size: int) -> int:
        """Number of circulating messages governed by one rank.

        Paper: ``2 r_u^2`` (the msgs array is indexed by ``[2 r_u^2]``).  We
        scale by ``msg_factor`` and clamp so even groups of size 1 circulate
        at least two messages per rank.
        """
        m = max(2, group_size)
        return self.msg_factor * m * m

    def signature_space(self, group_size: int) -> int:
        """Signature space ``[r_u^5]`` (Sec. 5.1); clamped to >= 16."""
        return max(16, max(2, group_size) ** self.sig_exponent)

    def signature_period(self, group_size: int) -> int:
        """Interactions between signature refreshes, ``c log r_u`` (Prot. 13)."""
        return max(2, math.ceil(self.c_sig * _log(max(2, group_size))))


@dataclass(frozen=True)
class BaselineParams:
    """Constants shared by the baseline protocols in :mod:`repro.baselines`."""

    n: int
    c_timer: float = 6.0  #: generic Θ(log n) timers in the baselines
    name_exponent: int = 3  #: Burman-style name space = [n ** name_exponent]
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"population size must be >= 2, got n={self.n}")

    @property
    def log_n(self) -> float:
        return _log(self.n)

    @property
    def timer_max(self) -> int:
        return max(2, math.ceil(self.c_timer * self.log_n))

    @property
    def name_space(self) -> int:
        return self.n**self.name_exponent
