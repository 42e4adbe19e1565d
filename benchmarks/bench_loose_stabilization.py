"""E14 — The loose-stabilization alternative (related-work landscape).

The paper's Section 2 situates ``ElectLeader_r`` against the
loosely-stabilizing relaxation: far fewer states, but the leader is only
guaranteed for a finite *holding time*.  This bench measures, for the
timeout-heartbeat protocol of Sudo et al. (shape), the two defining
quantities as the timer scale τ grows:

* convergence time from adversarial (including zero-leader) starts —
  ``Θ(n²)`` interactions in expectation whatever τ is, because leaders
  leave only by meeting in pairs, so it should stay flat across τ;
* median holding time of the elected leader — should grow rapidly
  (super-linearly) with τ while the state count grows only linearly.

Shape to reproduce: the convergence column is flat while the holding
column explodes — the loose trade-off — alongside a state count that is
microscopic next to any self-stabilizing protocol (cf. E1).

E14b fits the Θ(n²) claim: median convergence from clean starts against
n on the counts engine (n = 10² and 10³ with ``REPRO_BENCH_FAST``, up to
10⁴ with ``REPRO_BENCH_NIGHTLY``).  A single trial took 0.37–1.9 × n²
(5th to 95th percentile of 1,200 trials at n = 100 and 300); resampled
from those, a fit over 8-trial medians at n = 10² and 10³ left
(1.5, 2.5) fewer than once in 10⁴ draws.  An ``O(n log n)`` protocol
would fit about 1.2.
"""

from __future__ import annotations

import math
import os
import statistics

from conftest import WORKERS, fast_scaled, run_once

from repro.analysis.theory import fit_power_law
from repro.baselines.loosely_stabilizing import LooselyStabilizingLeaderElection
from repro.core.params import BaselineParams
from repro.scheduler.rng import derive_seed, make_rng
from repro.sim.counts_backend import goal_counts_predicate
from repro.sim.simulation import Simulation
from repro.sim.trials import run_trials

N = 32
TRIALS = 10
HOLD_BUDGET = 2_000_000

NIGHTLY = os.environ.get("REPRO_BENCH_NIGHTLY", "") == "1"
#: E14b's population sizes and trials per size.
CONVERGENCE_NS = (
    (100, 300, 1_000, 3_000, 10_000) if NIGHTLY
    else fast_scaled((100, 300, 1_000, 3_000), (100, 1_000))
)
CONVERGENCE_TRIALS = 8


def measure(tau: float, seed_base: int) -> dict[str, object]:
    protocol = LooselyStabilizingLeaderElection(BaselineParams(n=N), tau=tau)
    converge_times = []
    holding_times = []
    for trial in range(TRIALS):
        config = protocol.adversarial_configuration(make_rng(derive_seed(seed_base, trial)))
        sim = Simulation(protocol, config=config, seed=derive_seed(seed_base + 1, trial))
        result = sim.run_until(
            protocol.is_goal_configuration, max_interactions=1_000_000, check_interval=20
        )
        assert result.converged
        converge_times.append(result.interactions)
        holding_times.append(
            protocol.holding_time(
                result.config, make_rng(derive_seed(seed_base + 2, trial)), HOLD_BUDGET
            )
        )
    return {
        "tau": tau,
        "timer_max": protocol.timer_max,
        "states": protocol.state_count(),
        "median_convergence": statistics.median(converge_times),
        "median_holding": statistics.median(holding_times),
        "holding_censored_at": HOLD_BUDGET,
    }


def test_e14_loose_stabilization(benchmark, record_table):
    def experiment():
        return [measure(tau, seed_base=14_000 + int(tau * 10)) for tau in (0.25, 1.0, 4.0, 16.0)]

    rows = run_once(benchmark, experiment)
    record_table(
        "E14_loose_stabilization",
        rows,
        f"E14: loosely-stabilizing timeout protocol (n={N})",
    )

    holdings = [float(row["median_holding"]) for row in rows]
    convergences = [float(row["median_convergence"]) for row in rows]
    states = [int(row["states"]) for row in rows]
    # Holding time grows much faster than the (linear) state count.
    assert holdings[-1] > 20 * holdings[0]
    assert states[-1] < 100 * states[0]
    # Convergence stays within one order of magnitude across τ.
    assert max(convergences) < 12 * max(1.0, min(convergences))
    # The whole state space stays microscopic (loose trade-off's selling point).
    assert all(s < 10_000 for s in states)


def test_e14b_convergence_vs_n(benchmark, record_table):
    def experiment():
        rows = []
        for n in CONVERGENCE_NS:
            protocol = LooselyStabilizingLeaderElection(BaselineParams(n=n))
            summary = run_trials(
                protocol,
                goal_counts_predicate(protocol),
                n=n,
                trials=CONVERGENCE_TRIALS,
                max_interactions=20 * n * n,
                seed=14_100 + n,
                check_interval=n // 4,
                workers=WORKERS,
                backend="counts",
            )
            median = summary.median_interactions
            rows.append(
                {
                    "n": n,
                    "trials": summary.trials,
                    "success": summary.success_rate,
                    "median_convergence": median,
                    "median/n^2": round(median / n**2, 3),
                    "median/(n_ln_n)": round(median / (n * math.log(n)), 1),
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    fit = fit_power_law(
        [float(row["n"]) for row in rows], [float(row["median_convergence"]) for row in rows]
    )
    record_table(
        "E14b_loose_convergence_vs_n",
        rows,
        f"E14b: loosely-stabilizing convergence from clean starts vs n (counts engine; "
        f"fitted exponent {fit.exponent:.2f})",
    )

    assert all(row["success"] == 1.0 for row in rows)
    # Θ(n²): leaders leave only by meeting in pairs.
    assert 1.5 < fit.exponent < 2.5, fit
