"""The uniformly random pairwise scheduler of the population model.

In each step the scheduler selects an ordered pair of distinct agents
uniformly at random (``n(n-1)`` ordered pairs); the pair then interacts via
the protocol's transition function.  The paper's analysis (Appendix A)
relies only on this uniformity, e.g. Lemma A.1's concentration of
per-agent interaction counts.

:class:`RandomScheduler` draws fresh pairs: ``i = randrange(n)`` and
``j = randrange(n - 1)`` shifted past ``i``, with both ``randrange`` calls
inlined as the ``getrandbits`` rejection loop behind them — the same
stream at a fraction of the per-pair cost.  :class:`RecordedSchedule`
replays a recorded interaction sequence, which the test suite uses to
verify schedule-determinism of protocols (the transition function is the
only other source of randomness, and it takes an explicit RNG).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.scheduler.rng import RNG, np_generator


def _pair_stream(getrandbits: Callable[[int], int], n: int) -> Iterator[tuple[int, int]]:
    """Endless uniform ordered pairs of distinct agents out of ``n``.

    ``randrange(m)`` draws ``getrandbits(m.bit_length())`` until the value
    is below ``m``; this loop does exactly that for ``m = n`` and
    ``m = n - 1``, so it consumes the generator as ``i = randrange(n)``,
    ``j = randrange(n - 1)`` would, with the bit counts computed once.
    """
    n_minus_1 = n - 1
    i_bits = n.bit_length()
    j_bits = n_minus_1.bit_length()
    while True:
        i = getrandbits(i_bits)
        while i >= n:
            i = getrandbits(i_bits)
        j = getrandbits(j_bits)
        while j >= n_minus_1:
            j = getrandbits(j_bits)
        if j >= i:
            j += 1
        yield i, j


class RandomScheduler:
    """Draws uniformly random ordered pairs of distinct agents.

    Both methods read the one pair stream, which draws only on demand, so
    any mix of :meth:`next_pair` and :meth:`pairs` calls consumes the RNG
    as the same number of :meth:`next_pair` calls.
    """

    def __init__(self, n: int, rng: RNG):
        if n < 2:
            raise ValueError(f"need at least two agents to interact, got n={n}")
        self.n = n
        self._stream = _pair_stream(rng.getrandbits, n)

    def next_pair(self) -> tuple[int, int]:
        """One ordered pair ``(i, j)``, ``i != j``, uniform over all such pairs."""
        return next(self._stream)

    def pairs(self, count: int) -> Iterator[tuple[int, int]]:
        """A stream of ``count`` independent pairs (the batch-loop fast path).

        Each pair is drawn, yielded, unpacked, and freed in turn — the
        simulator's batch loop never materializes a list of ``count``
        tuples.
        """
        return islice(self._stream, count)


class ArrayScheduler:
    """Vectorized sibling of :class:`RandomScheduler` for the array backend.

    Draws uniformly random ordered pairs of distinct agents in blocks of
    ``count`` at a time, as two parallel numpy index vectors.  The
    rejection-free construction is the same as :meth:`RandomScheduler
    .next_pair` — ``i ~ U[0, n)``, ``j ~ U[0, n-1)`` shifted up past ``i``
    — so the pair distribution is *identical* to the object scheduler's.

    **RNG stream.**  This scheduler owns a dedicated ``numpy`` PCG64
    stream seeded independently of the object backend's Mersenne-Twister
    stream.  The two backends therefore sample the same pair distribution
    but different concrete sequences: cross-backend runs of one seed are
    *distribution-equal, not bit-equal* (see README "Execution backends").
    PCG64's cross-platform reproducibility guarantee keeps array-backend
    runs themselves bit-stable for a given seed.

    **Slicing invariance.**  The generator is consumed in fixed-size
    internal chunks (``DRAW_CHUNK`` pairs at a time) that ``next_pairs``
    slices to order, so the pair *sequence* is a pure function of the
    seed: drawing 1000 pairs one at a time, or as 4 × 250, or as one
    block yields the same pairs.  Downstream, that is what makes array
    runs independent of block size and convergence-check interval,
    mirroring the object scheduler's batching guarantee.
    """

    #: Pairs drawn from the generator per internal refill.
    DRAW_CHUNK = 1 << 13

    def __init__(self, n: int, seed: int):
        if n < 2:
            raise ValueError(f"need at least two agents to interact, got n={n}")
        import numpy  # deferred: the object backend must not require numpy

        self.n = n
        self.seed = seed
        self._np = numpy
        self._rng = np_generator(seed)
        self._buffer_i = None
        self._buffer_j = None
        self._cursor = 0

    def _refill(self) -> None:
        np = self._np
        count = self.DRAW_CHUNK
        self._buffer_i = self._rng.integers(0, self.n, size=count, dtype=np.int64)
        responders = self._rng.integers(0, self.n - 1, size=count, dtype=np.int64)
        responders += responders >= self._buffer_i
        self._buffer_j = responders
        self._cursor = 0

    def next_pairs(self, count: int):
        """Draw ``count`` ordered pairs as ``(initiators, responders)`` arrays.

        Both arrays are fresh ``int64`` arrays of length ``count`` with
        ``initiators[k] != responders[k]`` for every ``k``.
        """
        if count < 0:
            raise ValueError(f"pair count must be non-negative, got {count}")
        np = self._np
        parts_i = []
        parts_j = []
        remaining = count
        while remaining > 0:
            if self._buffer_i is None or self._cursor >= self.DRAW_CHUNK:
                self._refill()
            take = min(remaining, self.DRAW_CHUNK - self._cursor)
            stop = self._cursor + take
            parts_i.append(self._buffer_i[self._cursor:stop])
            parts_j.append(self._buffer_j[self._cursor:stop])
            self._cursor = stop
            remaining -= take
        if len(parts_i) == 1:
            return parts_i[0].copy(), parts_j[0].copy()
        if not parts_i:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(parts_i), np.concatenate(parts_j)


class CollisionRunSampler:
    """Samples lengths of collision-free interaction *runs* (counts backend).

    The count-vector engine (:mod:`repro.sim.counts_backend`) applies
    interactions in aggregated batches, which is only sound while every
    interaction in the batch touches *distinct* agents — the moment an
    agent interacts twice, its second interaction must read the state its
    first one wrote.  Under the uniform pairwise scheduler the number of
    interactions until that first repeat is a pure function of ``n``
    (agent draws are state-independent), with the birthday-problem law::

        P(first t interactions collision-free)
            = Π_{s<t} (n-2s)(n-2s-1) / (n(n-1))

    so runs are Θ(√n) long in expectation.  This sampler precomputes that
    survival curve once per population size and draws run lengths by
    inverse transform (one uniform each), from whatever ``numpy``
    generator the caller owns — the counts engine passes its own PCG64
    stream so a counts run stays a pure function of its seed.  A block of
    lengths (:meth:`next_run_lengths`) reads them off a *guide table*:
    :attr:`GUIDE` equal buckets of ``[0, 1)``, each holding the length at
    its top and the one survival value inside it, if there is only one,
    so that one compare gives the length.  Uniforms in the buckets that
    hold more (the tail below ``1/GUIDE``, and the top at large ``n``)
    take a ``searchsorted`` over the curve, the scalar draw's search.

    ``next_run_length()`` is always ≥ 1 (a single interaction's two agents
    are distinct by construction) and never exceeds ``n // 2`` (after that
    many interactions every agent has been used).

    A batch of the per-row sampler goes on past its collisions, so it also
    needs the *stretch* law: the collision-free interactions that follow
    once ``U`` agents are used, each of which must avoid them::

        P(stretch >= t | U) = Π_{s<t} (n-U-2s)(n-U-2s-1) / (n(n-1))

    (:meth:`stretch_lengths`; ``U = 0`` is the run law).  Its cumulative
    ``-log`` survival is one chain per parity of ``U``, tabulated down to
    survival 1e-30 past every ``U`` up to :attr:`max_used`.  No batch's
    agent schedule depends on the agents' states, so :meth:`next_batches`
    draws the schedules of a whole block of batches in one vectorized
    pass.
    """

    #: The survival down to which every stretch law is tabulated.
    TAIL = 1e-30
    #: Buckets of the run-length guide table: a power of two, so ``u·G``
    #: is exact and a uniform's bucket ``⌊u·G⌋`` is too.
    GUIDE = 4096

    def __init__(self, n: int, generator):
        if n < 2:
            raise ValueError(f"need at least two agents to interact, got n={n}")
        import numpy  # deferred: the object backend must not require numpy

        self.n = n
        self._np = numpy
        self._generator = generator
        # Tabulate until the survival probability is negligible (or the
        # hard n//2 exhaustion bound).  6·√n stretches ~9 standard
        # deviations past the mean run length; beyond it survival < 1e-30.
        limit = min(n // 2, int(6 * numpy.sqrt(n)) + 8)
        s = numpy.arange(limit, dtype=numpy.float64)
        with numpy.errstate(divide="ignore"):
            terms = (
                numpy.log(numpy.maximum(n - 2 * s, 0))
                + numpy.log(numpy.maximum(n - 2 * s - 1, 0))
                - numpy.log(n)
                - numpy.log(n - 1)
            )
        #: survival[t-1] = P(run length >= t), a non-increasing curve.
        self.survival = numpy.exp(numpy.cumsum(terms))
        self._neg_survival = -self.survival
        self._guide = self._guide_table()
        # chains[p, j] = Σ_{i<j} -log P(an interaction avoids p + 2i used
        # agents), built in place; ``inf`` once no unused pair is left.
        # 7·√n entries a parity keep the 1e-30 tail past U ≈ 7.6·√n, which
        # a batch's 16 collisions (RUN_COLLISIONS) seldom pass: of 200
        # blocks of 128 schedules drawn at seed 1, max_used ended 32 of
        # 25,600 batches early at n = 10⁶ and none at n = 16, 10³ or 10⁴.
        length = min(n // 2 + 2, int(7 * numpy.sqrt(n)) + 8)
        chains = numpy.empty((2, length))
        chains[:, 0] = 0.0
        steps = chains[:, 1:]
        steps[:] = numpy.arange(steps.size, dtype=numpy.float64).reshape(-1, 2).T
        steps *= steps - (2 * n - 1)
        steps /= n * (n - 1)
        with numpy.errstate(divide="ignore"):
            numpy.log1p(steps, out=steps)
        numpy.negative(steps, out=steps)
        numpy.cumsum(chains, axis=1, out=chains)
        self._chains = chains
        # Per parity, the last chain index whose 1e-30 tail is tabulated
        # (every index of a chain that runs out of unused pairs).
        reach = [
            int(chain.searchsorted(chain[-1] + math.log(self.TAIL), side="right")) - 1
            for chain in chains
        ]
        #: The largest ``U`` whose stretch law :meth:`stretch_lengths`
        #: holds whole (at least ``n`` when the chains reach exhaustion).
        self.max_used = min(2 * reach[0], 2 * reach[1] + 1)

    def _guide_table(self):
        """The guide table over :attr:`survival`: per bucket ``g`` of
        ``[g/G, (g+1)/G)``, the length ``#{t : survival[t-1] >= (g+1)/G}``
        at its top, its one survival value (``-1``, below every uniform,
        where it holds none) and whether it holds more than one.  The
        curve is non-increasing, so the values inside a bucket are the
        next ones after its top's length, and a uniform ``u`` in it has
        length ``top + [value >= u]`` — the count of survival values
        ``>= u`` that the scalar draw's ``searchsorted`` returns."""
        np = self._np
        size = self.GUIDE
        survival = self.survival
        # A value's bucket is exact (G is a power of two); values >= 1 lie
        # above every uniform.
        buckets = np.minimum(np.floor(survival * size), size).astype(np.intp)
        held = np.bincount(buckets, minlength=size + 1)
        top = (survival.size - held.cumsum()[:size]).astype(np.int64)
        value = np.full(size, -1.0)
        lone = (held[:size] == 1).nonzero()[0]
        value[lone] = survival[top[lone]]
        return top, value, held[:size] > 1

    def next_run_length(self) -> int:
        """Draw one run length: max t with ``P(run >= t) >= u``, u ~ U(0,1)."""
        u = self._generator.random()
        # survival is non-increasing, so count entries >= u via a single
        # searchsorted on its negation (which is non-decreasing).  The
        # ndarray method skips the numpy.* dispatch wrapper — this is
        # called once per collision-free run, the counts engine's unit of
        # progress.
        length = int(self._neg_survival.searchsorted(-u, side="right"))
        return max(1, length)

    def stretch_lengths(self, used, exponentials):
        """The collision-free stretch once ``used[i]`` agents are used, for
        each ``i``: the largest ``t`` with ``P(stretch >= t | U = used[i])
        >= e^-exponentials[i]``.

        With i.i.d. ``Exp(1)`` variates each entry has the stretch law
        exactly (inverse transform on the ``-log`` survival chain of its
        ``U``'s parity), in ``[0, (n - U) // 2]``; callers that need the
        whole law keep every ``U <= max_used``.
        """
        np = self._np
        chains = self._chains
        start = used >> 1
        odd = used & 1
        targets = chains[odd, start] + exponentials
        ends = np.where(
            odd,
            chains[1].searchsorted(targets, side="right"),
            chains[0].searchsorted(targets, side="right"),
        )
        return ends - start - 1

    def next_batches(self, count: int, collisions: int):
        """The agent schedules of ``count`` independent batches of the
        per-row sampler, drawn for every batch at once; each is a first run
        and up to ``collisions`` colliding interactions, each but the last
        followed by a collision-free stretch.

        The first runs come from :meth:`next_run_lengths` and leave ``U``
        agents used.  Then, collision by collision across the block, one
        call draws each batch's ordered pair, uniform over the ``U(U-1) +
        2·U·A`` pairs with a used member (``A = n - U``), which picks its
        category and its used agents at once; an unused member is one more
        used agent.  The stretch after it follows the stretch law given
        ``U`` (:meth:`stretch_lengths`).  A batch ends at its
        ``collisions``-th collision, or at the first after which ``U``
        passes :attr:`max_used`, where the stretch table ends.

        Members are indices into the batch's agent array, which holds the
        stretches' pairs as ``(2i, 2i + 1)`` in time order, then the unused
        members, the ``j``-th (in time order) at index ``-1 - j``.  So the
        ``U`` agents used before a collision — the ``2B`` of the ``B``
        stretch pairs before it, then the unused members — take the labels
        ``0 … U-1``: a label ``x < 2B`` indexes the array as is, a later
        one as ``2B - 1 - x``.

        Returns ``(first, stretches, members, used, taken)``: the first runs
        ``(count,)``, then per collision ``k`` the stretch after it
        ``stretches[k]`` (0 after a batch's last), its initiator's and
        responder's indices ``members[k]`` ``(2, count)`` and the ``U``
        right after it ``used[k]``, and each batch's number of collisions
        ``taken``; rows past a batch's ``taken`` mean nothing.
        """
        np = self._np
        rng = self._generator
        n = self.n
        first = self.next_run_lengths(count)
        variates = rng.standard_exponential((collisions - 1, count))
        stretches = np.zeros((collisions, count), dtype=np.int64)
        members = np.empty((collisions, 2, count), dtype=np.int64)
        used_after = np.empty((collisions, count), dtype=np.int64)
        used = 2 * first
        for k in range(collisions):
            # x = m·U + u < U(2n-1-U) = U(U-1) + 2·U·A, u a used agent:
            # while m < n - 1, u initiates with the m-th of the other n - 1
            # agents, unused from U on; above, an unused agent initiates
            # with u.  Label U stands for the unused member.
            m, u = np.divmod(rng.integers(0, used * (2 * n - 1 - used)), used)
            partner = m + (m >= u)
            initiates = m < n - 1
            members[k, 0] = np.where(initiates, u, used)
            members[k, 1] = np.where(initiates, np.minimum(partner, used), u)
            used += partner >= used
            used_after[k] = used
            if k + 1 < collisions:
                live = used <= self.max_used
                stretch = stretches[k]
                np.multiply(self.stretch_lengths(used * live, variates[k]), live, out=stretch)
                used += 2 * stretch
        # Labels to indices: a label from 2B on is an unused member.
        cuts = 2 * (first + stretches.cumsum(axis=0) - stretches)[:, None]
        np.subtract(cuts - 1, members, out=members, where=members >= cuts)
        # U never falls, so a batch is live after collision k while U <= max_used.
        taken = 1 + (used_after[:-1] <= self.max_used).sum(axis=0)
        return first, stretches, members, used_after, taken

    def next_run_lengths(self, count: int):
        """Draw ``count`` i.i.d. run lengths as one ``int64`` vector.

        The trial-vectorized sibling of :meth:`next_run_length` for the
        lockstep sampler of
        :class:`~repro.sim.counts_backend.CountsSimulation` and the
        per-row sampler's blocks of batch schedules: one uniform block,
        read off the guide table (:meth:`_run_lengths`).  Same inverse
        transform, same length from the same uniform, and the generator
        stream is consumed exactly as ``count`` scalar draws would
        consume it.
        """
        if count < 0:
            raise ValueError(f"run count must be non-negative, got {count}")
        return self._run_lengths(self._generator.random(count))

    def _run_lengths(self, uniforms):
        """The run lengths that the uniforms ``u`` in ``[0, 1)`` map to: the
        number of survival values ``>= u``, at least 1, as
        :meth:`next_run_length` finds it.

        Each uniform's bucket ``⌊u·G⌋`` gives its length with one compare
        (:meth:`_guide_table`), so the block costs a few passes whatever
        the curve's length; the uniforms in buckets that hold several
        survival values are searched for, as the scalar draw does.
        """
        np = self._np
        top, value, crowded = self._guide
        bucket = (uniforms * self.GUIDE).astype(np.intp)
        lengths = top.take(bucket)
        lengths += value.take(bucket) >= uniforms
        searched = crowded.take(bucket)
        if searched.any():
            searched = searched.nonzero()[0]
            lengths[searched] = self._neg_survival.searchsorted(
                -uniforms[searched], side="right"
            )
        np.maximum(lengths, 1, out=lengths)
        return lengths


class RecordedSchedule:
    """A fixed, replayable sequence of interaction pairs.

    The population model's *reachability* notion (configurations reachable
    via some sequence of pairs) is exactly a recorded schedule; closure
    properties such as Lemma 6.1 are tested by applying hand-crafted or
    recorded schedules.
    """

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self._pairs = [(int(i), int(j)) for i, j in pairs]
        for i, j in self._pairs:
            if i == j:
                raise ValueError(f"self-interaction ({i}, {j}) is not a valid pair")

    @classmethod
    def record(cls, n: int, count: int, rng: RNG) -> "RecordedSchedule":
        """Record ``count`` pairs drawn from a :class:`RandomScheduler`."""
        scheduler = RandomScheduler(n, rng)
        return cls(scheduler.pairs(count))

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __getitem__(self, index: int) -> tuple[int, int]:
        return self._pairs[index]
