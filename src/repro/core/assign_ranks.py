"""``AssignRanks_r`` — the parametrized silent ranking protocol (Appendix D).

The protocol assigns a unique rank from ``[n]`` to every agent within
``O((n^2/r) log n)`` interactions w.h.p. from a dormant configuration,
using ``2^{O(r log n)}`` states (Lemma D.1).  The pipeline:

1. **Sheriff election** — the ``FastLeaderElect`` black box elects a
   unique sheriff from an awakening configuration (Protocol 8, Lemma D.3).
2. **Deputization** — the sheriff carries ``r`` badges; on meeting a
   recipient it hands over the upper half of its badge range (Protocol 9).
   An agent whose range shrinks to one badge becomes the *deputy* with
   that badge as its id.
3. **Labeling** — each deputy owns a pool of ``⌈c·n/r⌉`` labels
   ``(id, 1), (id, 2), ...`` and hands them to unlabeled recipients
   (Protocol 10); labeling is gated on all ``r`` deputies existing
   (``Σ channel >= r``) so deputy ids are unique (Lemma D.5).
4. **Channel broadcast** — every non-LE, non-ranked agent carries a
   ``channel`` array holding the maximum observed counter of each deputy;
   entries merge by max on every interaction (Protocol 7, lines 8-9).
5. **Sleep & rank** — once an agent's channel sums to ``n`` it knows the
   complete label set, goes to sleep for ``c_sleep·log n`` of its own
   interactions (so stragglers catch up before anyone discards broadcast
   state — Lemma D.9), then ranks itself by the lexicographic position of
   its label and becomes silent (Protocol 11).

The transition is a *total* function: adversarial field combinations that
cannot arise in a clean execution (e.g. a sheriff whose channel already
sums to ``n``) take harmless default branches, producing a possibly wrong
ranking that the verification layer then catches — that is precisely the
self-stabilization contract of the wrapper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import fast_leader_elect
from repro.core.params import ProtocolParams
from repro.core.protocol import RankingProtocol
from repro.core.state import ARPhase, ARState
from repro.scheduler.rng import RNG


def initial_ar_state() -> ARState:
    """``q_{0,AR}``: the clean post-reset ranking state (LE, nothing drawn)."""
    return ARState(phase=ARPhase.LEADER_ELECTION)


def rank_from_label(
    label: Optional[tuple[int, int]], channel: Sequence[int], n: int
) -> int:
    """Protocol 11's rank rule: lexicographic position of the label.

    For label ``(i, j)`` the rank is ``Σ_{i' < i} channel[i'] + j`` — the
    number of labels issued by lower-id deputies plus the label's own index.
    With a complete, valid channel this is a bijection onto ``[n]``
    (Lemma D.9).  Garbage inputs are clamped into ``[n]`` to keep the state
    space well-formed; a wrong rank is the verifier layer's problem.
    """
    if label is None:
        return 1
    deputy_id, index = label
    prefix = sum(channel[: max(0, deputy_id - 1)])
    return min(max(1, prefix + index), n)


def _become_deputy(state: ARState, params: ProtocolParams) -> None:
    """Badge range collapsed to one badge: become the deputy with that id."""
    badge = state.low_badge
    state.phase = ARPhase.DEPUTY
    state.deputy_id = badge
    state.counter = 1  # the deputy's own (implicit) label (badge, 1)
    channel = list(state.channel) if state.channel else [0] * params.r
    if 1 <= badge <= len(channel):
        channel[badge - 1] = max(channel[badge - 1], 1)
    state.channel = tuple(channel)


def _become_sheriff(state: ARState, params: ProtocolParams) -> None:
    """LE winner: full badge roster ``[1..r]``, all-zero channel (Def. D.2)."""
    state.phase = ARPhase.SHERIFF
    state.low_badge = 1
    state.high_badge = params.r
    state.channel = (0,) * params.r
    if state.low_badge == state.high_badge:  # r == 1: sole badge, deputize now
        _become_deputy(state, params)


def _become_recipient(state: ARState, partner: ARState, params: ProtocolParams) -> None:
    """LE agent learns the election is over (Protocol 8, second branch).

    Per Observation D.1(a) the fresh recipient's channel is all zeros or a
    copy of the partner's; we copy when available to speed the broadcast.
    """
    state.phase = ARPhase.RECIPIENT
    state.label = None
    state.channel = partner.channel if partner.channel else (0,) * params.r


def _become_sleeper(state: ARState) -> None:
    """Complete channel observed: sleep, carrying the label (Protocol 7)."""
    if state.phase is ARPhase.DEPUTY:
        state.label = (state.deputy_id, 1)
    # Recipients keep their label; a sheriff (adversarial only) keeps None.
    state.phase = ARPhase.SLEEPER
    state.sleep_timer = 1


def _become_ranked(state: ARState, params: ProtocolParams) -> None:
    """Protocol 11: adopt the final rank and discard everything else."""
    state.rank = rank_from_label(state.label, state.channel, params.n)
    state.phase = ARPhase.RANKED
    state.channel = ()
    state.label = None
    state.sleep_timer = 0


def _elect_sheriff(u: ARState, v: ARState, params: ProtocolParams, rng: RNG) -> None:
    """Protocol 8: drive the LE black box / retire LE stragglers."""
    if u.in_leader_election and v.in_leader_election:
        fast_leader_elect.leader_election_step(u, v, params, rng)
        for agent in (u, v):
            if agent.in_leader_election and agent.leader_done and agent.leader_bit:
                _become_sheriff(agent, params)
        return
    # Exactly one still in leader election: it learns the election is over
    # and becomes a recipient.
    if u.in_leader_election:
        _become_recipient(u, v, params)
    else:
        _become_recipient(v, u, params)


def _deputize(sheriff: ARState, recipient: ARState, params: ProtocolParams) -> None:
    """Protocol 9: hand the upper half of the badge range to the recipient."""
    recipient.phase = ARPhase.SHERIFF
    recipient.label = None
    recipient.high_badge = sheriff.high_badge
    sheriff.high_badge = (sheriff.high_badge + sheriff.low_badge) // 2
    recipient.low_badge = sheriff.high_badge + 1
    if not recipient.channel:
        recipient.channel = (0,) * params.r
    for agent in (recipient, sheriff):
        if agent.high_badge == agent.low_badge:
            _become_deputy(agent, params)


def _labeling(deputy: ARState, recipient: ARState, params: ProtocolParams) -> None:
    """Protocol 10: issue the next label once all deputies exist."""
    if sum(deputy.channel) < params.r:
        return
    if deputy.counter >= params.labels_per_deputy:
        return
    deputy.counter += 1
    channel = list(deputy.channel)
    channel[deputy.deputy_id - 1] = deputy.counter
    deputy.channel = tuple(channel)
    recipient.label = (deputy.deputy_id, deputy.counter)


def _sleep(u: ARState, v: ARState, params: ProtocolParams) -> None:
    """Protocol 11: sleeper timers, rank adoption and sleep epidemics."""
    sleepers = [s for s in (u, v) if s.phase is ARPhase.SLEEPER]
    for sleeper in sleepers:
        sleeper.sleep_timer = min(params.sleep_timer_max, sleeper.sleep_timer + 1)

    if len(sleepers) == 2:
        if any(s.sleep_timer >= params.sleep_timer_max for s in (u, v)):
            _become_ranked(u, params)
            _become_ranked(v, params)
        return

    sleeper = sleepers[0]
    other = v if sleeper is u else u
    if other.ranked:
        _become_ranked(sleeper, params)
    elif sleeper.sleep_timer >= params.sleep_timer_max:
        _become_ranked(sleeper, params)
        _become_ranked(other, params)
    else:
        _become_sleeper(other)


_CHANNEL_PHASES = (ARPhase.SHERIFF, ARPhase.DEPUTY, ARPhase.RECIPIENT, ARPhase.SLEEPER)

#: ``ARPhase.RANKED`` as a global: the enum's class-attribute lookup is
#: several times slower, and most ranker pairs of a run are ranked.
_RANKED = ARPhase.RANKED


def assign_ranks(u: ARState, v: ARState, params: ProtocolParams, rng: RNG) -> None:
    """Protocol 7: one ``AssignRanks_r`` interaction."""
    # Two ranked agents are silent (Lemma D.1): no line of Protocol 7
    # changes them or draws for them.
    if u.phase is _RANKED and v.phase is _RANKED:
        return
    if u.in_leader_election or v.in_leader_election:
        _elect_sheriff(u, v, params, rng)
        return

    phases = (u.phase, v.phase)
    if ARPhase.SLEEPER in phases:
        _sleep(u, v, params)
    elif ARPhase.SHERIFF in phases and ARPhase.RECIPIENT in phases:
        sheriff, recipient = (u, v) if u.phase is ARPhase.SHERIFF else (v, u)
        _deputize(sheriff, recipient, params)
    elif ARPhase.DEPUTY in phases and ARPhase.RECIPIENT in phases:
        deputy, recipient = (u, v) if u.phase is ARPhase.DEPUTY else (v, u)
        if recipient.label is None:
            _labeling(deputy, recipient, params)

    # Lines 8-11: channel max-merge and the sleep transition.
    if u.phase in _CHANNEL_PHASES and v.phase in _CHANNEL_PHASES:
        merged = tuple(max(a, b) for a, b in zip(u.channel, v.channel))
        if merged:
            u.channel = merged
            v.channel = merged
    for agent in (u, v):
        if agent.phase in (ARPhase.SHERIFF, ARPhase.DEPUTY, ARPhase.RECIPIENT):
            if agent.channel and sum(agent.channel) >= params.n:
                _become_sleeper(agent)


class AssignRanksProtocol(RankingProtocol):
    """``AssignRanks_r`` as a standalone protocol (experiment E10).

    Clean starts model a fully dormant configuration: every agent begins in
    ``q_{0,AR}`` and activates on its first interaction.  The protocol is
    *silent*: once ranked, an agent's AR state never changes again
    (Lemma D.1).
    """

    name = "assign-ranks"

    def __init__(self, params: ProtocolParams):
        self.params = params
        self.n = params.n

    def initial_state(self) -> ARState:
        return initial_ar_state()

    def transition(self, u: ARState, v: ARState, rng: RNG) -> None:
        assign_ranks(u, v, self.params, rng)

    def rank(self, state: ARState) -> int:
        return state.rank

    def all_ranked(self, config: Sequence[ARState]) -> bool:
        return all(s.ranked for s in config)

    def is_goal_configuration(self, config: Sequence[ARState]) -> bool:
        """Silent and correct: everyone ranked, ranks a permutation."""
        return self.all_ranked(config) and self.ranking_correct(config)
