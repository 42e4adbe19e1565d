"""Tests for fault bursts on the object engine and availability accounting."""

from __future__ import annotations

import pytest

from repro.adversary.initializers import correct_verifier_configuration
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.scheduler.rng import np_stream
from repro.sim.fault_engine import get_fault_model, make_fault_engine
from repro.sim.faults import AvailabilityAccounting, FaultEvent
from repro.sim.simulation import Simulation


@pytest.fixture
def protocol() -> ElectLeader:
    return ElectLeader(ProtocolParams(n=16, r=4))


def scramble_engine(protocol, *, rate, burst_size, seed):
    return make_fault_engine(
        "scramble_burst", protocol, n=protocol.n, rate=rate,
        burst_size=burst_size, seed=seed,
    )


def verified_simulation(protocol, seed):
    return Simulation(protocol, config=correct_verifier_configuration(protocol), seed=seed)


def unique_leader(protocol):
    return lambda config: protocol.leader_count(config) == 1


def scripted_report(bursts, *, total, every):
    """Feed :class:`AvailabilityAccounting` the way the drivers do — the
    bursts fired so far, then one verdict per checkpoint — with fixed
    burst positions and every checkpoint correct, so repair-time
    accounting can be checked exactly."""
    accounting = AvailabilityAccounting()
    events: list[FaultEvent] = []
    for now in range(every, total + 1, every):
        events.extend(FaultEvent(at) for at in bursts if now - every < at <= now)
        accounting.note_events(events)
        accounting.checkpoint(now, True)
    return accounting.report(total_interactions=total, fault_bursts=len(events))


class TestFaultInjector:
    """``scramble_burst`` bursts injected into ``ElectLeader`` on the object
    engine by a :class:`~repro.sim.fault_engine.FaultEngine`."""

    def test_rejects_bad_parameters(self, protocol):
        with pytest.raises(ValueError):
            scramble_engine(protocol, rate=0, burst_size=1, seed=0)
        with pytest.raises(ValueError):
            scramble_engine(protocol, rate=1.0, burst_size=0, seed=0)

    def test_bursts_arrive_at_roughly_the_requested_rate(self, protocol):
        engine = scramble_engine(protocol, rate=0.01, burst_size=1, seed=1)
        # 5000 parallel time → expect ~50 bursts at rate 0.01
        engine.measure_availability(
            verified_simulation(protocol, seed=2), unique_leader(protocol),
            total_interactions=80_000, checkpoint_every=80_000,
        )
        assert 20 <= len(engine.events) <= 100

    def test_burst_corrupts_requested_number_of_agents(self, protocol):
        sim = verified_simulation(protocol, seed=4)
        before = [state.clone() for state in sim.config]
        sim.apply_fault(get_fault_model("scramble_burst"), 3, np_stream(3, 0))
        changed = [old != new for old, new in zip(before, sim.config)]
        assert sum(changed) == 3

    def test_corrupted_states_remain_well_formed(self, protocol):
        engine = scramble_engine(protocol, rate=0.5, burst_size=2, seed=5)
        sim = verified_simulation(protocol, seed=6)
        engine.measure_availability(
            sim, unique_leader(protocol),
            total_interactions=2_000, checkpoint_every=2_000,
        )
        assert engine.events
        assert all(agent.consistent() for agent in sim.config)


class TestAvailability:
    def test_low_fault_rate_high_availability(self, protocol):
        engine = scramble_engine(protocol, rate=0.002, burst_size=1, seed=7)
        report = engine.measure_availability(
            verified_simulation(protocol, seed=8), unique_leader(protocol),
            total_interactions=60_000, checkpoint_every=500,
        )
        assert report.checkpoints == 120
        assert report.availability > 0.7

    def test_availability_decreases_with_fault_rate(self, protocol):
        availabilities = []
        for rate, seed in ((0.001, 10), (0.3, 11)):
            engine = scramble_engine(protocol, rate=rate, burst_size=2, seed=seed)
            report = engine.measure_availability(
                verified_simulation(protocol, seed=seed + 1), unique_leader(protocol),
                total_interactions=60_000, checkpoint_every=500,
            )
            availabilities.append(report.availability)
        assert availabilities[0] > availabilities[1]

    def test_one_repair_sample_per_burst(self):
        # Regression: the checkpoint loop used to overwrite its pending
        # burst with the *latest* one, so of several bursts landing before
        # a correct checkpoint only the last produced a repair sample and
        # earlier bursts were silently dropped.  The docstring contract is
        # one sample per burst, measured to the first correct checkpoint.
        report = scripted_report([100, 300], total=1_000, every=500)
        assert report.fault_bursts == 2
        # Both bursts repair at the checkpoint after interaction 500:
        # 500 - 100 and 500 - 300 — not just the latest burst's 200.
        assert report.repair_times == [400, 200]
        assert report.availability == 1.0

    def test_repair_measured_from_each_bursts_own_checkpoint(self):
        report = scripted_report([100, 700], total=1_000, every=500)
        # Bursts in different checkpoint windows repair independently.
        assert report.repair_times == [400, 300]

    def test_repair_times_recorded(self, protocol):
        engine = scramble_engine(protocol, rate=0.05, burst_size=2, seed=12)
        report = engine.measure_availability(
            verified_simulation(protocol, seed=13), unique_leader(protocol),
            total_interactions=100_000, checkpoint_every=500,
        )
        assert report.fault_bursts > 0
        assert report.repair_times, "no repairs were ever observed"
        assert report.median_repair_interactions > 0
