"""Adversarial initial configurations for self-stabilization experiments.

Self-stabilization (Section 1.1) demands convergence from *every* initial
configuration in the state space ``Q^n``.  That space is astronomically
large, so experiments sample from structured adversary classes that cover
the failure modes the paper's recovery analysis (Lemma 6.3) distinguishes
through its configuration hierarchy ``𝒞_0 ⊃ 𝒞_1 ⊃ ... ⊃ 𝒞_5``:

=====================  =====================================================
Adversary              Targets
=====================  =====================================================
``all_duplicate_rank`` verifiers all claiming the same rank (many leaders or
                       none) — the classic SSLE failure (𝒞_4 \\ 𝒞_5).
``duplicate_ranks``    a correct ranking with ``k`` agents overwritten by
                       duplicates — small collision counts, hardest for
                       detection (Lemma E.3 vs Lemma E.7 regimes).
``corrupted_messages`` correct ranking, inconsistent message system — must
                       be repaired by a *soft* reset without losing ranks.
``mixed_generations``  verifiers spread across generations (𝒞_2 \\ 𝒞_3).
``probation_chaos``    random probation timers (𝒞_3 \\ 𝒞_4).
``mid_reset``          a population frozen mid-hard-reset (𝒞_0 \\ 𝒞_1).
``mid_ranking``        rankers in arbitrary AssignRanks phases (𝒞_1 \\ 𝒞_2).
``random_soup``        independent uniform-ish garbage per agent — the
                       closest simulable analogue of "arbitrary
                       configuration".
``planted_top``        verifiers with pre-planted ⊤ error states.
=====================  =====================================================

All generators draw from an explicit RNG and produce *well-formed* states
(states within the protocol's state space, as the model requires — the
adversary corrupts values, not the data layout).

A second, vectorized suite (``CODE_ADVERSARIES``: ``scramble``,
``plant_minority``) targets *finite-state* protocols through their integer
state encoding: batched numpy draws emit state-code arrays and count
vectors, so array- and counts-backend sweeps can start from adversarial
configurations without materializing ``n`` state objects.  Any code in
``range(num_states())`` decodes to a well-formed state (the encoding is a
bijection), so uniform code draws are exactly the model's "arbitrary
configuration in ``Q^n``".
"""

from __future__ import annotations

from typing import Callable

from repro.core.assign_ranks import initial_ar_state
from repro.core.elect_leader import ElectLeader
from repro.core.roles import Role
from repro.core.stable_verify import initial_sv_state
from repro.core.state import TOP, ARPhase, AgentState, ARState, PRState
from repro.scheduler.rng import RNG

#: An adversary: builds a full initial configuration.
Adversary = Callable[[ElectLeader, RNG], list[AgentState]]


def _verifier(protocol: ElectLeader, rank: int) -> AgentState:
    """A clean verifier of the given rank (q_{0,SV} on top of the rank)."""
    return AgentState(
        role=Role.VERIFYING,
        rank=rank,
        sv=initial_sv_state(rank, protocol.params, protocol.partition),
    )


def correct_verifier_configuration(protocol: ElectLeader) -> list[AgentState]:
    """All verifiers, ranking ``1..n``, clean DC states — inside 𝒞_safe."""
    return [_verifier(protocol, rank) for rank in range(1, protocol.n + 1)]


# ---------------------------------------------------------------------------
# Rank-level adversaries
# ---------------------------------------------------------------------------


def all_duplicate_rank(protocol: ElectLeader, rng: RNG, rank: int = 1) -> list[AgentState]:
    """Every agent claims the same rank (n leaders for rank=1, else none)."""
    config = []
    for _ in range(protocol.n):
        agent = _verifier(protocol, rank)
        assert agent.sv is not None
        agent.sv.probation_timer = rng.choice([0, protocol.params.probation_max])
        config.append(agent)
    return config


def duplicate_ranks(protocol: ElectLeader, rng: RNG, duplicates: int = 1) -> list[AgentState]:
    """A correct ranking with ``duplicates`` agents overwritten by existing
    ranks — so ``duplicates`` ranks are missing and as many are doubled."""
    n = protocol.n
    if not 1 <= duplicates <= n - 1:
        raise ValueError(f"need 1 <= duplicates <= n-1, got {duplicates}")
    config = correct_verifier_configuration(protocol)
    victims = rng.sample(range(n), duplicates)
    for index in victims:
        donor = rng.randrange(n)
        while donor == index:
            donor = rng.randrange(n)
        new_rank = config[donor].rank
        config[index] = _verifier(protocol, new_rank)
    return config


# ---------------------------------------------------------------------------
# Message-system adversaries
# ---------------------------------------------------------------------------


def corrupted_messages(
    protocol: ElectLeader, rng: RNG, corruptions: int = 4
) -> list[AgentState]:
    """Correct ranking, but circulating message contents scrambled.

    Repairing this without a hard reset is the job of the soft-reset
    mechanism (Section 3.2): the ranking must be preserved.
    """
    config = correct_verifier_configuration(protocol)
    params, partition = protocol.params, protocol.partition
    for _ in range(corruptions):
        agent = config[rng.randrange(len(config))]
        assert agent.sv is not None and agent.sv.dc is not TOP
        dc = agent.sv.dc
        held = [(rank, msg_id) for rank, msg_id, _ in dc.held_messages() if rank != agent.rank]
        if not held:
            continue
        rank = rng.choice(list(dict.fromkeys(rank for rank, _ in held)))
        msg_id = rng.choice([msg_id for other, msg_id in held if other == rank])
        group_size = partition.group_size(partition.group_of(rank))
        dc.set_content(rank, msg_id, rng.randrange(1, params.signature_space(group_size) + 1))
    return config


def scrambled_observations(
    protocol: ElectLeader, rng: RNG, corruptions: int = 4
) -> list[AgentState]:
    """Correct ranking, but agents' recorded observations scrambled.

    Only observations for messages the agent does *not* currently hold are
    touched, respecting the paper's state-space restriction that held own
    messages always match their observations (Section 5.1).
    """
    config = correct_verifier_configuration(protocol)
    params, partition = protocol.params, protocol.partition
    for _ in range(corruptions):
        agent = config[rng.randrange(len(config))]
        assert agent.sv is not None and agent.sv.dc is not TOP
        dc = agent.sv.dc
        held_own = {msg_id for rank, msg_id, _ in dc.held_messages() if rank == agent.rank}
        free = [j for j in range(1, len(dc.observations) + 1) if j not in held_own]
        if not free:
            continue
        msg_id = rng.choice(free)
        group_size = partition.group_size(partition.group_of(agent.rank))
        dc.observations[msg_id - 1] = rng.randrange(
            1, params.signature_space(group_size) + 1
        )
    return config


def planted_top(protocol: ElectLeader, rng: RNG, count: int = 2) -> list[AgentState]:
    """Correct ranking with ``count`` agents pre-set to the ⊤ error state."""
    config = correct_verifier_configuration(protocol)
    for index in rng.sample(range(protocol.n), min(count, protocol.n)):
        agent = config[index]
        assert agent.sv is not None
        agent.sv.dc = TOP
        agent.sv.probation_timer = rng.choice([0, protocol.params.probation_max])
    return config


# ---------------------------------------------------------------------------
# Verifier-layer adversaries
# ---------------------------------------------------------------------------


def mixed_generations(protocol: ElectLeader, rng: RNG, spread: int = 3) -> list[AgentState]:
    """Correct ranking, verifiers spread across ``spread`` generations."""
    config = correct_verifier_configuration(protocol)
    modulus = protocol.params.generations
    base = rng.randrange(modulus)
    for agent in config:
        assert agent.sv is not None
        agent.sv.generation = (base + rng.randrange(spread)) % modulus
        agent.sv.probation_timer = rng.choice([0, protocol.params.probation_max])
    return config


def probation_chaos(protocol: ElectLeader, rng: RNG) -> list[AgentState]:
    """Correct ranking, same generation, random probation timers."""
    config = correct_verifier_configuration(protocol)
    for agent in config:
        assert agent.sv is not None
        agent.sv.probation_timer = rng.randrange(protocol.params.probation_max + 1)
    return config


# ---------------------------------------------------------------------------
# Role-level adversaries
# ---------------------------------------------------------------------------


def mid_reset(protocol: ElectLeader, rng: RNG) -> list[AgentState]:
    """A population frozen mid-hard-reset: a mix of triggered, dormant and
    computing agents (𝒞_0 \\ 𝒞_1 territory)."""
    params = protocol.params
    config = []
    for rank in range(1, protocol.n + 1):
        kind = rng.randrange(3)
        if kind == 0:  # triggered resetter
            agent = AgentState()
            protocol.trigger(agent)
            assert agent.pr is not None
            agent.pr.reset_count = rng.randrange(1, params.reset_count_max + 1)
            config.append(agent)
        elif kind == 1:  # dormant resetter
            agent = AgentState(
                role=Role.RESETTING,
                pr=PRState(
                    reset_count=0, delay_timer=rng.randrange(1, params.delay_timer_max + 1)
                ),
            )
            config.append(agent)
        else:  # verifier with this rank
            config.append(_verifier(protocol, rank))
    return config


def _random_ar_state(protocol: ElectLeader, rng: RNG) -> ARState:
    """A ranker in a random AssignRanks phase with plausible field values."""
    params = protocol.params
    r = params.r
    phase = rng.choice(list(ARPhase))
    state = initial_ar_state()
    state.phase = phase
    if phase is ARPhase.LEADER_ELECTION:
        if rng.random() < 0.5:
            state.identifier = rng.randrange(1, params.identifier_space + 1)
            state.min_identifier = rng.randrange(1, state.identifier + 1)
            state.le_count = rng.randrange(params.le_count_max + 1)
            state.leader_done = state.le_count == 0
            state.leader_bit = state.leader_done and rng.random() < 0.2
        return state
    channel = tuple(rng.randrange(params.labels_per_deputy + 1) for _ in range(r))
    state.channel = channel
    if phase is ARPhase.SHERIFF:
        state.low_badge = rng.randrange(1, r + 1)
        state.high_badge = rng.randrange(state.low_badge, r + 1)
    elif phase is ARPhase.DEPUTY:
        state.deputy_id = rng.randrange(1, r + 1)
        state.counter = rng.randrange(1, params.labels_per_deputy + 1)
    elif phase is ARPhase.RECIPIENT:
        if rng.random() < 0.5:
            state.label = (
                rng.randrange(1, r + 1),
                rng.randrange(1, params.labels_per_deputy + 1),
            )
    elif phase is ARPhase.SLEEPER:
        state.label = (
            rng.randrange(1, r + 1),
            rng.randrange(1, params.labels_per_deputy + 1),
        )
        state.sleep_timer = rng.randrange(1, params.sleep_timer_max + 1)
    elif phase is ARPhase.RANKED:
        state.channel = ()
        state.rank = rng.randrange(1, params.n + 1)
    return state


def mid_ranking(protocol: ElectLeader, rng: RNG) -> list[AgentState]:
    """All agents are rankers in arbitrary AssignRanks phases."""
    params = protocol.params
    config = []
    for _ in range(protocol.n):
        agent = AgentState(
            role=Role.RANKING,
            countdown=rng.randrange(1, params.countdown_max + 1),
            ar=_random_ar_state(protocol, rng),
        )
        config.append(agent)
    return config


def random_agent(protocol: ElectLeader, rng: RNG) -> AgentState:
    """One agent with independently scrambled role and fields."""
    params = protocol.params
    kind = rng.randrange(4)
    if kind == 0:
        return AgentState(
            role=Role.RESETTING,
            pr=PRState(
                reset_count=rng.randrange(params.reset_count_max + 1),
                delay_timer=rng.randrange(1, params.delay_timer_max + 1),
            ),
        )
    if kind == 1:
        return AgentState(
            role=Role.RANKING,
            countdown=rng.randrange(1, params.countdown_max + 1),
            ar=_random_ar_state(protocol, rng),
        )
    rank = rng.randrange(1, params.n + 1)
    agent = _verifier(protocol, rank)
    assert agent.sv is not None
    agent.sv.generation = rng.randrange(params.generations)
    agent.sv.probation_timer = rng.randrange(params.probation_max + 1)
    if rng.random() < 0.1:
        agent.sv.dc = TOP
    return agent


def random_soup(protocol: ElectLeader, rng: RNG) -> list[AgentState]:
    """Independent per-agent garbage across all roles and layers."""
    return [random_agent(protocol, rng) for _ in range(protocol.n)]


def single_agent_scrambler(protocol: ElectLeader):
    """A per-agent corruption ``corrupt(state, rng) -> state`` that
    replaces one agent's entire memory with independent garbage — the
    object-layout leg of the ``scramble_burst`` fault model
    (:class:`repro.sim.fault_engine.ScrambleBurst`)."""

    def corrupt(state: AgentState, rng: RNG) -> AgentState:
        return random_agent(protocol, rng)

    return corrupt


# ---------------------------------------------------------------------------
# Vectorized finite-state initializers (state-code arrays / count vectors)
# ---------------------------------------------------------------------------
#
# The adversaries above speak ``ElectLeader``'s state layout; finite-state
# protocols (the array/counts backends' clientele) get their adversarial
# starts from the encoded state space instead.  Each initializer comes in
# two shapes sharing one law:
#
# * ``*_codes``  — an ``(n,)`` int64 state-code array (the array backend's
#   native configuration; the object backend decodes it);
# * ``*_counts`` — an ``(S,)`` int64 count vector (the counts backend's
#   native configuration), distributed identically to ``bincount`` of the
#   codes variant.
#
# Both draw from a caller-supplied ``numpy.random.Generator`` (use
# :func:`code_rng` to build one from a derived seed) so adversarial sweeps
# stay pure functions of their spec seed — and, given one seed, every
# backend starts from the same configuration law.  numpy is imported
# lazily: the object-only runtime keeps working without it.


def code_rng(seed: int):
    """A PCG64 generator for the vectorized initializers.

    Thin alias of :func:`repro.scheduler.rng.np_generator` — the blessed
    stream constructor — kept so initializer signatures read as "pass a
    code-space generator" at the call site.
    """
    from repro.scheduler.rng import np_generator

    return np_generator(seed)


def _encoding_size(protocol) -> int:
    size = protocol.num_states()
    if size is None:
        raise ValueError(
            f"protocol '{protocol.name}' has no finite state encoding; "
            "code-space adversaries need num_states()"
        )
    return size


def _plant_count(n: int) -> int:
    """Default corruption budget of the planting adversary: ⌈n/8⌉.

    Mirrors ``duplicate_ranks``'s ``n // 8`` convention — enough damage
    to matter, small enough that recovery is measurably different from
    the full scramble.
    """
    return max(1, -(-n // 8))


def scrambled_codes(protocol, generator, n: int):
    """Uniform over the full encoded space ``Q^n`` — the generic
    adversarial start (the finite-state analogue of ``random_soup``)."""
    import numpy

    size = _encoding_size(protocol)
    return generator.integers(0, size, size=n, dtype=numpy.int64)


def scrambled_counts(protocol, generator, n: int):
    """Count-vector twin of :func:`scrambled_codes` (multinomial law)."""
    import numpy

    size = _encoding_size(protocol)
    pvals = numpy.full(size, 1.0 / size)
    return generator.multinomial(n, pvals).astype(numpy.int64)


def planted_codes(protocol, generator, n: int, planted: int | None = None):
    """A clean start with ``planted`` agents overwritten by uniform codes.

    The limited-corruption adversary class: positions are chosen uniformly
    without replacement, so recovery experiments see the damage scattered
    rather than clustered.  ``planted`` defaults to ⌈n/8⌉.
    """
    import numpy

    size = _encoding_size(protocol)
    count = _plant_count(n) if planted is None else planted
    if not 1 <= count <= n:
        raise ValueError(f"need 1 <= planted <= n, got {count}, n={n}")
    codes = numpy.full(n, int(protocol.encode_state(protocol.initial_state())),
                       dtype=numpy.int64)
    positions = generator.permutation(n)[:count]
    codes[positions] = generator.integers(0, size, size=count, dtype=numpy.int64)
    return codes


def planted_counts(protocol, generator, n: int, planted: int | None = None):
    """Count-vector twin of :func:`planted_codes`.

    Positions carry no information in count space, so the law reduces to
    ``n - planted`` agents on the clean code plus a uniform multinomial
    over the ``planted`` corrupted ones — identically distributed to
    ``bincount(planted_codes(...))``.
    """
    import numpy

    size = _encoding_size(protocol)
    count = _plant_count(n) if planted is None else planted
    if not 1 <= count <= n:
        raise ValueError(f"need 1 <= planted <= n, got {count}, n={n}")
    counts = numpy.zeros(size, dtype=numpy.int64)
    counts[int(protocol.encode_state(protocol.initial_state()))] = n - count
    pvals = numpy.full(size, 1.0 / size)
    counts += generator.multinomial(count, pvals).astype(numpy.int64)
    return counts


#: Code-space adversary suite for finite-state protocols: each entry maps
#: ``(protocol, numpy_generator, n)`` to an ``(n,)`` state-code array that
#: any execution backend can start from (via ``init=CodeArray(...)`` or
#: lazily through ``repro.sim.initial_state.SampledStart``).
CODE_ADVERSARIES: dict[str, Callable] = {
    "scramble": scrambled_codes,
    "plant_minority": planted_codes,
}


#: The ``O(S)`` count-vector twins of :data:`CODE_ADVERSARIES`, keyed by
#: the same names: each maps ``(protocol, numpy_generator, n)`` to an
#: ``(S,)`` count vector distributed identically to ``bincount`` of the
#: codes form.  Counts-native backends (``Backend.counts_native`` in the
#: registry) consume these directly, so an adversarial ``n = 10⁶`` sweep
#: cell draws a few hundred integers instead of a million codes.
COUNTS_ADVERSARIES: dict[str, Callable] = {
    "scramble": scrambled_counts,
    "plant_minority": planted_counts,
}


#: Named adversary suite used by the recovery experiment (E4).
ADVERSARIES: dict[str, Adversary] = {
    "all_duplicate_rank": lambda p, rng: all_duplicate_rank(p, rng),
    "duplicate_ranks": lambda p, rng: duplicate_ranks(p, rng, duplicates=max(1, p.n // 8)),
    "corrupted_messages": lambda p, rng: corrupted_messages(p, rng),
    "scrambled_observations": lambda p, rng: scrambled_observations(p, rng),
    "planted_top": lambda p, rng: planted_top(p, rng),
    "mixed_generations": lambda p, rng: mixed_generations(p, rng),
    "probation_chaos": lambda p, rng: probation_chaos(p, rng),
    "mid_reset": lambda p, rng: mid_reset(p, rng),
    "mid_ranking": lambda p, rng: mid_ranking(p, rng),
    "random_soup": lambda p, rng: random_soup(p, rng),
}
