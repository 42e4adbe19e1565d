"""repro — reproduction of "A Space-Time Trade-off for Fast Self-Stabilizing
Leader Election in Population Protocols" (Austin, Berenbrink, Friedetzky,
Götte, Hintze; PODC 2025, arXiv:2505.01210).

The package implements the paper's parametrized protocol ``ElectLeader_r``
and every substrate it depends on, a simulation engine for the population
model's uniformly random scheduler, adversarial initializers for
self-stabilization experiments, baseline protocols from the related work,
and analytical state-space calculators.

Quickstart::

    from repro import ElectLeader, ProtocolParams, Simulation

    params = ProtocolParams(n=24, r=3)
    protocol = ElectLeader(params)
    sim = Simulation(protocol, n=params.n, seed=1)
    result = sim.run_until(
        protocol.is_safe_configuration,
        max_interactions=2_000_000,
        check_interval=2_000,
    )
    assert result.converged

This package exports only the quickstart names; :mod:`repro.api` is the
supported programmatic surface.
"""

from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.sim.simulation import Simulation
from repro.sim.trials import format_table, run_trials

__version__ = "1.0.0"

__all__ = [
    "ElectLeader",
    "ProtocolParams",
    "Simulation",
    "run_trials",
    "format_table",
    "__version__",
]
