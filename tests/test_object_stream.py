"""The object engine's ``ElectLeader_r`` stream, pinned.

From each adversarial start at n = 24, r = 4, a sha256 of a dump of the
start and of the configuration after 10,000 object-engine interactions,
plus the safe-set verdict there, must equal constants recorded from an
earlier implementation.  The dump names no container layout — message
holdings are sorted ``(rank, id, content)`` triples — so a change of how
states are stored leaves it alone, while any change to a trajectory (an
extra or missing random draw, a different split in ``BalanceLoad``, a
restamp that reaches other messages) changes it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.adversary.initializers import ADVERSARIES
from repro.core.elect_leader import ElectLeader
from repro.core.params import ProtocolParams
from repro.core.state import TOP, AgentState
from repro.scheduler.rng import make_rng
from repro.sim.simulation import Simulation

SEED = 1
INTERACTIONS = 10_000

#: adversary -> (start digest, digest after INTERACTIONS, safe there)
PINNED = {
    "all_duplicate_rank": ("a8dbd011633f2bbe", "ad296598f24d894c", True),
    "corrupted_messages": ("9b61098c1095d06f", "76c4d8ebc50e99b5", True),
    "duplicate_ranks": ("324a9f775f5f1541", "4fb153ac5f05782e", True),
    "mid_ranking": ("4bdf1e928a29e74f", "63b04333e5f2ee9a", True),
    "mid_reset": ("94706f1b311997ab", "f098a103c4147cd8", True),
    "mixed_generations": ("2bb21590eba0ecdc", "7b25ef09ea0dff6c", True),
    "planted_top": ("5c82a92ef30e26a1", "1574555411b96c2c", True),
    "probation_chaos": ("0de01c6de74178f6", "d9bd63d1fe5c3013", True),
    "random_soup": ("edf45b06c830d900", "73e567200f4f44ea", True),
    "scrambled_observations": ("450bde93164d7ddd", "4e9673b1d4629837", True),
}


def agent_dump(agent: AgentState) -> tuple:
    fields: list[object] = [agent.role.value, agent.rank, agent.countdown]
    if agent.pr is not None:
        fields.append(("pr", agent.pr.reset_count, agent.pr.delay_timer))
    if agent.ar is not None:
        ar = agent.ar
        fields.append(("ar", ar.phase.value, ar.identifier, ar.le_count, ar.sleep_timer, ar.rank))
    if agent.sv is not None:
        dc = agent.sv.dc
        dc_fields = "TOP" if dc is TOP else (
            dc.signature, dc.counter, tuple(dc.held_messages()), tuple(dc.observations)
        )
        fields.append(("sv", agent.sv.generation, agent.sv.probation_timer, dc_fields))
    return tuple(fields)


def digest(config: list[AgentState]) -> str:
    text = repr([agent_dump(agent) for agent in config])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned_run(name: str) -> tuple[str, str, bool]:
    protocol = ElectLeader(ProtocolParams(n=24, r=4))
    config = ADVERSARIES[name](protocol, make_rng(SEED))
    start = digest(config)
    sim = Simulation(protocol, config=config, seed=SEED)
    sim.run(INTERACTIONS)
    return start, digest(sim.config), protocol.is_safe_configuration(sim.config)


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_stream_matches_pinned(name):
    assert pinned_run(name) == PINNED[name]
