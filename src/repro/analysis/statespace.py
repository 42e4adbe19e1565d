"""State-space (bit-complexity) calculators — Figures 1-4 and Theorem 1.1.

The paper's headline space result is that ``ElectLeader_r`` uses
``2^{O(r^2 log n)}`` states; for ``r = Θ(n)`` this makes the *bit
complexity* (log₂ of the state count) of time-optimal SSLE sub-cubic,
versus ``2^{Θ(n log n)·log n}``-ish for Burman et al.  These calculators
evaluate the exact state-count formulas implied by the state-space figures
(Fig. 1 for the wrapper, Fig. 2 for StableVerify, Fig. 3 for
DetectCollision, Fig. 4 for FastLeaderElect) with this reproduction's
concrete parameters, entirely in log₂ space so that astronomically large
counts (``n`` up to ``2^20`` and beyond) stay computable.

Following Fig. 3, the message store is counted in its packed encoding —
a bounded number of *held-message slots*, each holding (governing rank,
ID, content) or ⊥ — rather than the dense ``|group| × [2r²]`` grid, since
the protocol's invariant keeps every agent's holdings at ``Θ(r^2)``
messages.  This is what gives ``2^{O(r^2 log r)}`` for the collision
detector instead of a spurious ``r^3`` exponent.

Experiment E1 sweeps these formulas across ``(n, r)`` and regenerates the
paper's comparison table (Sections 1-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.params import BaselineParams, ProtocolParams
from repro.core.partition import RankPartition


def log2_add(a: float, b: float) -> float:
    """log₂(2^a + 2^b), numerically stable."""
    if a < b:
        a, b = b, a
    if a == float("-inf"):
        return b
    return a + math.log2(1.0 + 2.0 ** (b - a))


def log2_sum(terms: list[float]) -> float:
    total = float("-inf")
    for term in terms:
        total = log2_add(total, term)
    return total


def log2_binomial(n: float, k: float) -> float:
    """log₂ C(n, k) via lgamma (valid for huge n)."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2)


# ---------------------------------------------------------------------------
# ElectLeader_r
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpaceReport:
    """Per-component log₂ state counts for one parametrization."""

    n: int
    r: int
    resetter_bits: float
    ranker_bits: float
    verifier_bits: float
    total_bits: float

    def as_row(self) -> dict[str, object]:
        return {
            "n": self.n,
            "r": self.r,
            "resetter_bits": round(self.resetter_bits, 1),
            "ranker_bits": round(self.ranker_bits, 1),
            "verifier_bits": round(self.verifier_bits, 1),
            "total_bits": round(self.total_bits, 1),
        }


def propagate_reset_bits(params: ProtocolParams) -> float:
    """log₂ |Q_PR| = log₂((R_max+1)(D_max+1)) — Θ(log n) states (Cor. C.3)."""
    return math.log2((params.reset_count_max + 1) * (params.delay_timer_max + 1))


def fast_leader_elect_bits(params: ProtocolParams) -> float:
    """log₂ of Fig. 4's space: [n³] × [n³] × [Θ(log n)] × {0,1}²."""
    ids = math.log2(params.identifier_space + 1)  # +1: not-yet-activated
    return 2 * ids + math.log2(params.le_count_max + 1) + 2


def assign_ranks_bits(params: ProtocolParams) -> float:
    """log₂ |Q_AR| — the ``2^{O(r log n)}`` ranking space (Lemma D.1).

    Disjoint union over the six AR phases; the shared ``channel`` field
    (``(L+1)^r`` values for pool size ``L = ⌈c n / r⌉``) dominates.
    """
    r, n = params.r, params.n
    labels = params.labels_per_deputy
    channel_bits = r * math.log2(labels + 1)
    label_bits = math.log2(r * labels + 1)  # a label or ⊥
    le = fast_leader_elect_bits(params)
    sheriff = math.log2(r * (r + 1) / 2) + channel_bits
    deputy = math.log2(r) + math.log2(labels) + channel_bits
    recipient = label_bits + channel_bits
    sleeper = label_bits + math.log2(params.sleep_timer_max + 1) + channel_bits
    ranked = math.log2(n)
    return log2_sum([le, sheriff, deputy, recipient, sleeper, ranked])


def detect_collision_bits(params: ProtocolParams, group_size: int) -> float:
    """log₂ |Q_DC| for one group of size ``m`` — Fig. 3's ``2^{O(r² log r)}``.

    Packed encoding: signature × refresh counter × (2M held-message slots,
    each (rank, ID, content) or ⊥) × (M observations), with
    ``M = msg_factor·m²`` messages per governed rank.
    """
    m = max(2, group_size)
    total = params.messages_per_rank(group_size)
    sig = params.signature_space(group_size)
    period = params.signature_period(group_size)
    slot_values = m * total * sig + 1  # (governing rank, id, content) or ⊥
    slots = 2 * total  # holdings stay Θ(M); factor-2 slack for imbalance
    msgs_bits = slots * math.log2(slot_values)
    obs_bits = total * math.log2(sig)
    non_error = math.log2(sig) + math.log2(period) + msgs_bits + obs_bits
    return log2_add(non_error, 0.0)  # ⊎ {⊤}


def stable_verify_bits(params: ProtocolParams, group_size: int) -> float:
    """log₂ |Q_SV| for one group: Z₆ × probation × Q_DC (Fig. 2)."""
    return (
        math.log2(params.generations)
        + math.log2(params.probation_max + 1)
        + detect_collision_bits(params, group_size)
    )


def elect_leader_report(params: ProtocolParams) -> StateSpaceReport:
    """Full Fig. 1 accounting: |Q| = |Q_PR| + C_max·|Q_AR| + Σ_rank |Q_SV|."""
    partition = RankPartition(params.n, params.r)
    resetter = propagate_reset_bits(params)
    ranker = math.log2(params.countdown_max + 1) + assign_ranks_bits(params)
    verifier_terms = []
    for group in range(partition.group_count):
        size = partition.group_size(group)
        # ``size`` ranks share this group's Q_SV shape.
        verifier_terms.append(math.log2(size) + stable_verify_bits(params, size))
    verifier = log2_sum(verifier_terms)
    total = log2_sum([resetter, ranker, verifier])
    return StateSpaceReport(
        n=params.n,
        r=params.r,
        resetter_bits=resetter,
        ranker_bits=ranker,
        verifier_bits=verifier,
        total_bits=total,
    )


def elect_leader_bits(n: int, r: int) -> float:
    """Convenience: total bit complexity of ``ElectLeader_r``."""
    return elect_leader_report(ProtocolParams(n=n, r=r)).total_bits


def theorem_bound_bits(n: int, r: int, constant: float = 30.0) -> float:
    """The Theorem 1.1 envelope ``c · r² log₂ n`` (natural-log-free form)."""
    return constant * r * r * math.log2(max(2, n))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def cai_izumi_wada_bits(n: int) -> float:
    """log₂ n — the state-optimal baseline."""
    return math.log2(n)


def burman_style_bits(params: BaselineParams) -> float:
    """Bit complexity of the name-set broadcast baseline.

    Dominated by the seen-set: a subset of ``[n^3]`` of size ≤ n, i.e.
    ``log₂ Σ_{k≤n} C(n³, k) = Θ(n log n)`` bits — the ``2^{Θ(n log n)}``
    state count the paper attributes to the PODC '21 comparator.
    """
    n = params.n
    space = params.name_space
    seen_bits = log2_sum([log2_binomial(space, k) for k in range(0, n + 1)])
    name_bits = math.log2(space + 1)
    reset_bits = 2 * math.log2(params.timer_max + 1)
    rank_bits = math.log2(n + 1)
    return seen_bits + name_bits + reset_bits + rank_bits


# ---------------------------------------------------------------------------
# Quoted bounds from the paper (not simulable; analytic comparison only)
# ---------------------------------------------------------------------------


def sublinear_ssr_quoted_bits(n: int, H: int) -> float:
    """Bit complexity ``Θ(n^H · log n)`` of Sublinear-Time-SSR (quoted).

    Burman et al.'s trade-off protocol: ``O(log(n) · n^{1/(H+1)})`` time
    using ``2^{Θ(n^H)·log n}`` states, for ``1 ≤ H ≤ Θ(log n)``.  Our
    simulable baseline replaces its history trees (DESIGN.md §3), so this
    quoted formula is the honest comparator for the paper's state claims.
    """
    if H < 1:
        raise ValueError("need H >= 1")
    return float(n) ** H * math.log2(max(2, n))


def sublinear_ssr_quoted_time(n: int, H: int) -> float:
    """Parallel time ``O(log(n) · n^{1/(H+1)})`` of Sublinear-Time-SSR."""
    return math.log(max(2, n)) * float(n) ** (1.0 / (H + 1))


def sublinear_ssr_time_optimal_bits(n: int) -> float:
    """Quoted bits at the H making Sublinear-Time-SSR time-optimal.

    Time-optimality (``O(log n)`` parallel time) needs ``n^{1/(H+1)} =
    O(1)``, i.e. ``H = Θ(log n)`` — giving the *super-polynomial* bit
    complexity ``n^{Θ(log n)}`` that Theorem 1.1 reduces to the sub-cubic
    ``O(n² log n)``.
    """
    H = max(1, math.ceil(math.log(max(2, n))))
    return sublinear_ssr_quoted_bits(n, H)


def tradeoff_frontier(n: int) -> list[dict[str, object]]:
    """The space-time trade-off frontier: ours (r sweep) vs quoted
    Sublinear-Time-SSR (H sweep), at one population size.

    Rows pair comparable *time* targets: our ``r`` gives parallel time
    ``Θ((n/r) log n)``; their ``H`` gives ``Θ(log(n)·n^{1/(H+1)})``.
    The paper's Theorem 1.1 discussion is exactly this frontier.
    """
    rows: list[dict[str, object]] = []
    log_n = math.log(max(2, n))
    for r in _r_sweep(n):
        ours_time = (n / r) * log_n
        ours_bits = elect_leader_bits(n, r)
        # The H whose quoted time is closest to ours.
        best_h = min(
            range(1, max(2, math.ceil(log_n)) + 1),
            key=lambda H: abs(sublinear_ssr_quoted_time(n, H) - ours_time),
        )
        rows.append(
            {
                "n": n,
                "r": r,
                "ours_parallel_time": round(ours_time, 1),
                "ours_bits": round(ours_bits, 1),
                "their_H": best_h,
                "their_parallel_time": round(sublinear_ssr_quoted_time(n, best_h), 1),
                "their_bits_quoted": round(sublinear_ssr_quoted_bits(n, best_h), 1),
            }
        )
    return rows


def _r_sweep(n: int) -> list[int]:
    """Representative trade-off parameters: 1, 2, 4, ..., ⌈log² n⌉, n/2."""
    values = {1}
    r = 2
    while r <= n // 2:
        values.add(r)
        r *= 4
    values.add(min(max(1, n // 2), max(1, round(math.log(max(2, n)) ** 2))))
    values.add(max(1, n // 2))
    return sorted(values)


def comparison_table(ns: list[int]) -> list[dict[str, object]]:
    """Experiment E1's headline table: bit complexity across protocols.

    Columns follow the paper's Section 1 comparison: our protocol at
    ``r = 1``, ``r = ⌈log² n⌉`` (the sub-exponential open-problem regime)
    and ``r = n/2`` (time-optimal), against CIW and the Burman-style
    baseline.
    """
    rows = []
    for n in ns:
        r_log2 = min(n // 2, max(1, round(math.log(n) ** 2)))
        row: dict[str, object] = {
            "n": n,
            "ciw_bits": round(cai_izumi_wada_bits(n), 1),
            "burman_sim_bits": round(burman_style_bits(BaselineParams(n=n)), 1),
            "burman_quoted_bits": round(sublinear_ssr_time_optimal_bits(n), 1),
            "ours_r1_bits": round(elect_leader_bits(n, 1), 1),
            "ours_rlog2_bits": round(elect_leader_bits(n, r_log2), 1),
            "ours_rmax_bits": round(elect_leader_bits(n, max(1, n // 2)), 1),
        }
        rows.append(row)
    return rows
