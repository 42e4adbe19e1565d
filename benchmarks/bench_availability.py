"""E15 — Availability under continuous transient faults.

The operational content of self-stabilization (Section 1's motivation):
under continuous memory corruption, the system's *availability* — the
fraction of time a unique leader exists — is governed by the ratio of the
fault interval to the recovery time of Theorem 1.1.

Sweeps the fault rate (bursts per unit parallel time, each burst
scrambling two agents completely) and reports availability and median
repair time for ``ElectLeader_r`` — a
:class:`~repro.sim.fault_engine.FaultEngine` firing ``scramble_burst``
into the object engine, whose ``ElectLeader`` applier wraps
:func:`~repro.adversary.initializers.single_agent_scrambler`.

Shape to reproduce: availability ≈ 1 when the mean fault gap far exceeds
the ``O((n/r)·log n)`` parallel recovery time, degrading monotonically
(with noise) as the gap shrinks toward the recovery time.
"""

from __future__ import annotations

from conftest import run_once

from repro.adversary.initializers import correct_verifier_configuration
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.scheduler.rng import derive_seed
from repro.sim.fault_engine import make_fault_engine
from repro.sim.simulation import Simulation

N = 32
R = 4
RATES = [0.0005, 0.002, 0.01, 0.05, 0.25]
TRIALS = 5
TOTAL = 150_000


def measure_rate(rate: float, seed_base: int) -> dict[str, object]:
    protocol = ElectLeader(ProtocolParams(n=N, r=R))
    availabilities = []
    repairs = []
    bursts = 0
    for trial in range(TRIALS):
        engine = make_fault_engine(
            "scramble_burst", protocol, n=N, rate=rate, burst_size=2,
            seed=derive_seed(seed_base, trial),
        )
        sim = Simulation(
            protocol,
            config=correct_verifier_configuration(protocol),
            seed=derive_seed(seed_base + 1, trial),
        )
        report = engine.measure_availability(
            sim,
            lambda config: protocol.leader_count(config) == 1,
            total_interactions=TOTAL,
            checkpoint_every=500,
        )
        availabilities.append(report.availability)
        repairs.extend(report.repair_times)
        bursts += report.fault_bursts
    availabilities.sort()
    repairs.sort()
    return {
        "fault_rate_per_ptime": rate,
        "mean_gap_ptime": round(1.0 / rate, 1),
        "bursts_total": bursts,
        "median_availability": availabilities[len(availabilities) // 2],
        "median_repair_interactions": repairs[len(repairs) // 2] if repairs else "-",
    }


def test_e15_availability(benchmark, record_table):
    def experiment():
        return [measure_rate(rate, 15_000 + int(rate * 10_000)) for rate in RATES]

    rows = run_once(benchmark, experiment)
    record_table(
        "E15_availability",
        rows,
        f"E15: availability under transient faults (n={N}, r={R})",
    )

    availability = [float(row["median_availability"]) for row in rows]
    # Near-perfect at the quietest rate; clearly degraded at the noisiest.
    assert availability[0] > 0.9
    assert availability[-1] < availability[0]
    # Broadly monotone: each rate at most slightly above the previous.
    for slow, fast in zip(availability, availability[1:]):
        assert fast <= slow + 0.1
