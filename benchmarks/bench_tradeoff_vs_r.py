"""E3 — The space-time trade-off: time vs r at fixed n (Section 3.3).

Sweeps the trade-off parameter ``r`` at one population size, reporting
measured stabilization alongside the analytic state-space cost.

Shape to reproduce: time falls like ``1/r`` (the paper's
``O((n²/r) log n)``) while bits rise like ``r²·log n`` — the defining
trade-off of Theorem 1.1.  Time then flattens where the countdown
``C_max = max(c_countdown · (n/r) · ln n, c_countdown_floor · ln n)``
sits on its floor, for ``r > n · c_countdown / c_countdown_floor``; the
``on_C_max_floor`` column marks those rows.
"""

from __future__ import annotations

from conftest import WORKERS, run_once

from repro.analysis.statespace import elect_leader_bits
from repro.analysis.theory import (
    elect_leader_interactions,
    fit_power_law,
    predicted_stabilization_interactions,
)
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.sim.trials import run_trials

N = 96
RS = [1, 2, 3, 4, 6, 8, 16, 32, 48]
TRIALS = 8


def test_e3_tradeoff_vs_r(benchmark, record_table):
    def experiment():
        rows = []
        for r in RS:
            params = ProtocolParams(n=N, r=r)
            protocol = ElectLeader(params)
            summary = run_trials(
                protocol,
                protocol.is_safe_configuration,
                n=N,
                trials=TRIALS,
                max_interactions=30_000_000,
                seed=3000 + r,
                check_interval=1000,
                label=f"r={r}",
                workers=WORKERS,
            )
            rows.append(
                {
                    "n": N,
                    "r": r,
                    "success": summary.success_rate,
                    "median_interactions": summary.median_interactions,
                    "median_parallel_time": round(summary.median_time, 1),
                    "paper_shape_(n^2/r)ln_n": round(elect_leader_interactions(N, r)),
                    "predicted_concrete": round(
                        predicted_stabilization_interactions(protocol.params)
                    ),
                    "state_bits": round(elect_leader_bits(N, r), 1),
                    "on_C_max_floor": r > N * params.c_countdown / params.c_countdown_floor,
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    record_table("E3_tradeoff_vs_r", rows, f"E3: space-time trade-off at n={N}")

    assert all(row["success"] >= 0.9 for row in rows)
    medians = {int(row["r"]): float(row["median_interactions"]) for row in rows}
    # Time falls ~1/r in the formula-dominated range (small r) ...
    small_r = [r for r in RS if r <= 8]
    fit = fit_power_law([float(r) for r in small_r], [medians[r] for r in small_r])
    assert -1.6 < fit.exponent < -0.5, fit
    # ... and flattens for large r, where C_max sits on its floor
    # c_countdown_floor · ln n: from r > n · c_countdown / c_countdown_floor
    # (≈ 8.5 at n = 96), so for r = 16, 32 and 48.
    assert medians[48] <= medians[8] * 1.5
    # Space rises with r throughout (up to a tiny timer-bit wobble at the
    # degenerate r=1→2 step, where both partitions clamp to group size 2
    # and r=1 carries marginally larger Θ((n/r) log n) timers).
    bits = [float(row["state_bits"]) for row in rows]
    for smaller, larger in zip(bits, bits[1:]):
        assert larger >= smaller * 0.98, bits
    assert bits[-1] > 100 * bits[0]
    # End-to-end: the extreme points differ as the theorem predicts.
    assert medians[1] > 4 * medians[48]
