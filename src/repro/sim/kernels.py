"""Compiled lockstep kernels — the numba leg of the batch counts engine.

:class:`~repro.sim.batch_backend.BatchCountsEngine` already runs ``T``
trials as one ``(T, S)`` matrix, but each lockstep step is still a dozen
Python-level numpy dispatches: the run-length draw, ``S - 1``
hypergeometric chain calls, the Fisher-MVH matching chain, the delta
apply, the collision branch.  At small ``S`` (the sweep regime) that
dispatch *is* the cost.  This module compiles the whole step: one
nopython kernel advances every live row through its entire budget slice
— run-length draw, conditional multivariate-hypergeometric chain,
initiator→responder matching, pair application and the colliding
``(L+1)``-th interaction all fused into one scalar loop per row.

**Randomness.**  Compiled code cannot share the engine's PCG64 stream,
so every row owns a *counter-based* stream: a splitmix64 finalizer over
``(key, counter)``, with per-row keys derived through
:func:`repro.scheduler.rng.derive_seed` (the only sanctioned seed
arithmetic) and the counter stored per row.  Draws are a pure function
of ``(key, counter)``, which buys two properties the tests pin: the
fused kernel and the phase-split instrumented kernel consume identical
per-row streams (bit-identical matrices), and no generator object is
ever constructed here (lint rule L001 holds over this module).

**Law.**  Every draw matches the numpy batch engine's law — run lengths
by inverse transform on the same survival curve, compositions by the
same conditional hypergeometric chain (the scalar hypergeometric is a
mode-centered two-sided inversion over the exact pmf recurrences),
matching by the same Fisher-MVH chain, collisions by the same
``U(U-1) : U·A : A·U`` category weights.  Streams differ, bits differ;
distributions do not — ``batch-jit`` vs ``batch`` is *law-exact, not
bit-exact* (gated by Monte-Carlo marginals + KS in
``tests/test_kernels.py`` and benchmark E24).  Only the lockstep
sampler is compiled: advances the sampler rule sends to the per-row
sampler — every advance of a one-row engine among them — run the numpy
counts loop, so single trials stay bit-for-bit the counts engine.

numba is an optional ``[jit]`` extra.  Without it the backend fails
loudly at construction with an install hint — never a silent numpy
fallback (that is what ``backend='batch'`` is for).  Setting
``REPRO_JIT_PURE_PYTHON=1`` runs the same kernel source uncompiled: an
explicit, slow escape hatch that lets numba-free environments (CI's
main matrix included) exercise the kernels' law end to end.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Optional

from repro.core.protocol import PopulationProtocol
from repro.obs import perf_counter
from repro.scheduler.rng import derive_seed
from repro.sim.batch_backend import BatchCountsEngine
from repro.sim.counts_backend import CountsBackendError
from repro.sim.initial_state import InitialState

try:  # numba is the optional [jit] extra — guarded exactly like numpy
    import numba as _numba
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _numba = None

try:  # numpy is itself optional at import time (the object engine's rule)
    import numpy as np
except ImportError:  # pragma: no cover - numpy-free object-engine installs
    np = None  # type: ignore[assignment]

#: Explicit opt-in: run the kernels uncompiled (slow; tests and CI only).
PURE_PYTHON_ENV = "REPRO_JIT_PURE_PYTHON"

#: The derived-seed tag of the per-row key stream (disjoint from the
#: engine's scheduler stream 0 and the fault engine's stream tags).
_ROW_KEY_STREAM = 3


class JitBackendError(CountsBackendError):
    """The batch-jit backend cannot run here (usually: numba is missing)."""


def jit_available() -> bool:
    """``True`` when numba imported and the kernels are compiled."""
    return _numba is not None


def pure_python_requested() -> bool:
    """``True`` when the explicit uncompiled escape hatch is switched on."""
    return os.environ.get(PURE_PYTHON_ENV, "") == "1"


def require_numba():
    """Return the numba module, or raise the pointed install hint.

    The ``REPRO_JIT_PURE_PYTHON=1`` escape hatch downgrades the error to
    a ``None`` return — callers then run the same kernel source
    uncompiled.  The opt-in is deliberate: without it, a missing numba is
    a loud failure, never a silently slow fallback.
    """
    if _numba is not None:
        return _numba
    if pure_python_requested():
        return None
    raise JitBackendError(
        "the batch-jit backend requires numba; install it with "
        "'pip install repro-podc25-leader-election[jit]', or use "
        "backend='batch' for the same law on pure numpy "
        "(REPRO_JIT_PURE_PYTHON=1 runs the kernels uncompiled — slow, "
        "test environments only)"
    )


def overflow_guard():
    """Context for calling kernels: silences uint64 wraparound warnings.

    The splitmix64 mix *relies* on modular uint64 arithmetic.  Compiled
    code wraps silently; the uncompiled escape hatch runs on numpy
    scalars, where wraparound raises ``RuntimeWarning`` — legitimate
    here, so callers enter this guard around every kernel call.
    """
    if _numba is not None or np is None:
        return contextlib.nullcontext()
    return np.errstate(over="ignore")


# ---------------------------------------------------------------------------
# The counter-based per-row stream (splitmix64 finalizer)
# ---------------------------------------------------------------------------

if np is not None:
    _GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = np.uint64(0x94D049BB133111EB)
    _S30 = np.uint64(30)
    _S27 = np.uint64(27)
    _S31 = np.uint64(31)
    _S11 = np.uint64(11)
    _CTR_ONE = np.uint64(1)
    _INV53 = 1.0 / float(1 << 53)


def _k_next(key, ctr):
    """One U[0, 1) draw of row stream ``key`` at ``ctr``; advances ``ctr``."""
    z = key + ctr * _GOLDEN
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    z = z ^ (z >> _S31)
    return (z >> _S11) * _INV53, ctr + _CTR_ONE


def _k_randint(key, ctr, total):
    """One uniform integer in ``[0, total)``."""
    u, ctr = _k_next(key, ctr)
    x = int(u * total)
    if x >= total:
        x = total - 1
    return x, ctr


def _k_run_length(key, ctr, neg_survival):
    """One collision-free run length: max ``t`` with ``P(run >= t) > u``.

    The same inverse transform as
    :meth:`~repro.scheduler.scheduler.CollisionRunSampler.next_run_length`
    — a right-bisect on the negated survival curve — fed by this row's
    stream instead of the shared PCG64.
    """
    u, ctr = _k_next(key, ctr)
    target = -u
    lo = 0
    hi = neg_survival.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if neg_survival[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    if lo < 1:
        lo = 1
    return lo, ctr


def _k_hypergeometric(key, ctr, ngood, nbad, nsample):
    """One scalar hypergeometric draw (good balls among ``nsample`` drawn).

    Mode-centered two-sided inversion: pmf at the mode via ``lgamma``,
    then the exact up/down pmf recurrences fan outward until the uniform
    is consumed — expected ``O(sd)`` iterations, exact law.  Degenerate
    supports (``lo == hi``) consume no randomness.
    """
    lo = nsample - nbad
    if lo < 0:
        lo = 0
    hi = ngood if ngood < nsample else nsample
    if hi <= lo:
        return lo, ctr
    total = ngood + nbad
    mode = ((nsample + 1) * (ngood + 1)) // (total + 2)
    if mode < lo:
        mode = lo
    if mode > hi:
        mode = hi
    logp = (
        math.lgamma(ngood + 1.0)
        - math.lgamma(mode + 1.0)
        - math.lgamma(ngood - mode + 1.0)
        + math.lgamma(nbad + 1.0)
        - math.lgamma(nsample - mode + 1.0)
        - math.lgamma(nbad - nsample + mode + 1.0)
        - math.lgamma(total + 1.0)
        + math.lgamma(nsample + 1.0)
        + math.lgamma(total - nsample + 1.0)
    )
    u, ctr = _k_next(key, ctr)
    p = math.exp(logp)
    if u <= p:
        return mode, ctr
    u -= p
    pu = p
    ku = mode
    pd = p
    kd = mode
    while ku < hi or kd > lo:
        if ku < hi:
            pu *= float((ngood - ku) * (nsample - ku)) / float(
                (ku + 1) * (nbad - nsample + ku + 1)
            )
            ku += 1
            if u <= pu:
                return ku, ctr
            u -= pu
        if kd > lo:
            pd *= float(kd * (nbad - nsample + kd)) / float(
                (ngood - kd + 1) * (nsample - kd + 1)
            )
            kd -= 1
            if u <= pd:
                return kd, ctr
            u -= pd
    # The pmf sums to 1 - O(1e-15); a uniform landing in that float
    # sliver takes the boundary value.
    return hi, ctr


def _k_sample_chain(key, ctr, pool, nsample, out):
    """Multivariate hypergeometric via the conditional chain over codes.

    The same decomposition :meth:`BatchCountsEngine._sample_rows` runs
    row-vectorized — code by code, a scalar hypergeometric of the
    remaining draw against the remaining population; the last code takes
    the remainder.  Writes the composition into ``out``.
    """
    size = pool.shape[0]
    rest = 0
    for code in range(size):
        rest += pool[code]
    draw = nsample
    for code in range(size - 1):
        good = pool[code]
        rest -= good
        taken, ctr = _k_hypergeometric(key, ctr, good, rest, draw)
        out[code] = taken
        draw -= taken
    out[size - 1] = draw
    return ctr


def _k_match_chain(key, ctr, initiators, responders, matched):
    """Fisher-MVH pair-type counts of a uniform initiator→responder
    matching — the scalar twin of :meth:`BatchCountsEngine._match_rows`:
    the chain over initiator codes, each step a multivariate
    hypergeometric subsample of the responders not yet matched."""
    size = initiators.shape[0]
    remaining = responders.copy()
    for code in range(size - 1):
        ctr = _k_sample_chain(key, ctr, remaining, initiators[code], matched[code])
        for other in range(size):
            remaining[other] -= matched[code, other]
    for other in range(size):
        matched[size - 1, other] = remaining[other]
    return ctr


def _k_apply_matched(counts_row, matched, u_out, v_out):
    """Apply a run's pair-type counts to one row — per occupied pair
    ``(i, j)``: remove the pair, add its table outputs, ``m`` times."""
    size = matched.shape[0]
    for i in range(size):
        for j in range(size):
            m = matched[i, j]
            if m != 0:
                counts_row[i] -= m
                counts_row[j] -= m
                counts_row[u_out[i, j]] += m
                counts_row[v_out[i, j]] += m


def _k_draw_state(key, ctr, pool, total):
    """The state of one agent drawn uniformly from ``pool``."""
    x, ctr = _k_randint(key, ctr, total)
    acc = 0
    for code in range(pool.shape[0]):
        acc += pool[code]
        if acc > x:
            return code, ctr
    return pool.shape[0] - 1, ctr


def _k_collision(counts_row, avail, key, ctr, n, u_out, v_out):
    """The colliding ``(L+1)``-th interaction — the scalar twin of
    :meth:`BatchCountsEngine._collision_rows`, with the identical
    ``U(U-1) : U·A : A·U`` used/unused category weights."""
    size = counts_row.shape[0]
    used = np.empty(size, dtype=np.int64)
    used_total = 0
    for code in range(size):
        used[code] = counts_row[code] - avail[code]
        used_total += used[code]
    avail_total = n - used_total
    w_uu = used_total * (used_total - 1)
    w_ua = used_total * avail_total
    u, ctr = _k_next(key, ctr)
    x = u * float(w_uu + 2 * w_ua)
    if x < w_uu:
        a, ctr = _k_draw_state(key, ctr, used, used_total)
        used[a] -= 1
        b, ctr = _k_draw_state(key, ctr, used, used_total - 1)
        used[a] += 1
    elif x < w_uu + w_ua:
        a, ctr = _k_draw_state(key, ctr, used, used_total)
        b, ctr = _k_draw_state(key, ctr, avail, avail_total)
    else:
        a, ctr = _k_draw_state(key, ctr, avail, avail_total)
        b, ctr = _k_draw_state(key, ctr, used, used_total)
    counts_row[a] -= 1
    counts_row[b] -= 1
    counts_row[u_out[a, b]] += 1
    counts_row[v_out[a, b]] += 1
    return ctr


def _k_silent_rows(matrix, rows, effectful, out):
    """Per-row silence scan against the effectful-pair mask — the same
    verdicts as :func:`~repro.sim.counts_backend.counts_are_silent`,
    including the diagonal's two-agent requirement, in ``O(occupied²)``
    per row with no ``(R, S, S)`` temporaries."""
    size = matrix.shape[1]
    for r in range(rows.shape[0]):
        row = rows[r]
        silent = True
        for i in range(size):
            count_i = matrix[row, i]
            if count_i == 0:
                continue
            for j in range(size):
                if not effectful[i, j]:
                    continue
                if matrix[row, j] == 0:
                    continue
                if i == j and count_i < 2:
                    continue
                silent = False
                break
            if not silent:
                break
        out[r] = silent


# ---------------------------------------------------------------------------
# The fused per-row stepper and its phase-split (instrumented) twin
# ---------------------------------------------------------------------------


def _k_run_rows(counts, rows, amounts, neg_survival, u_out, v_out, keys, counters, n):
    """Advance each row of ``rows`` through ``amounts[r]`` interactions.

    The whole budget slice of every row runs inside this one kernel —
    run-length draw, composition chain, matching chain, apply, collision
    — a scalar loop per row on that row's counter-based stream.  Because
    streams are per-row pure functions of ``(key, counter)``, the draw
    sequence is identical to the phase-split twin below (the lockstep
    order across rows does not matter), which is what lets the
    instrumented path stay bit-exact.
    """
    size = counts.shape[1]
    sample = np.empty(size, dtype=np.int64)
    initiators = np.empty(size, dtype=np.int64)
    responders = np.empty(size, dtype=np.int64)
    matched = np.empty((size, size), dtype=np.int64)
    avail = np.empty(size, dtype=np.int64)
    for r in range(rows.shape[0]):
        row = rows[r]
        key = keys[row]
        ctr = counters[row]
        rem = amounts[r]
        while rem > 0:
            length, ctr = _k_run_length(key, ctr, neg_survival)
            k = length if length < rem else rem
            collide = (rem > k) and (k == length)
            ctr = _k_sample_chain(key, ctr, counts[row], 2 * k, sample)
            ctr = _k_sample_chain(key, ctr, sample, k, initiators)
            for code in range(size):
                responders[code] = sample[code] - initiators[code]
            ctr = _k_match_chain(key, ctr, initiators, responders, matched)
            if collide:
                for code in range(size):
                    avail[code] = counts[row, code] - sample[code]
            _k_apply_matched(counts[row], matched, u_out, v_out)
            rem -= k
            if collide:
                ctr = _k_collision(counts[row], avail, key, ctr, n, u_out, v_out)
                rem -= 1
        counters[row] = ctr


def _k_phase_lengths(rows, remaining, keys, counters, neg_survival, out_k, out_collide):
    """Phase 1 of the split stepper: per-row run length, budget clip,
    collision flag (``remaining`` exceeded by a full run)."""
    for r in range(rows.shape[0]):
        row = rows[r]
        length, ctr = _k_run_length(keys[row], counters[row], neg_survival)
        counters[row] = ctr
        rem = remaining[r]
        k = length if length < rem else rem
        out_k[r] = k
        out_collide[r] = (rem > k) and (k == length)


def _k_phase_sample(pools, rows, nsamples, keys, counters, out):
    """Phase 2/3: per-row multivariate hypergeometric over ``pools``."""
    for r in range(pools.shape[0]):
        row = rows[r]
        counters[row] = _k_sample_chain(
            keys[row], counters[row], pools[r], nsamples[r], out[r]
        )


def _k_phase_match(initiators, responders, rows, keys, counters, matched):
    """Phase 4: per-row Fisher-MVH matching chain."""
    for r in range(initiators.shape[0]):
        row = rows[r]
        counters[row] = _k_match_chain(
            keys[row], counters[row], initiators[r], responders[r], matched[r]
        )


def _k_phase_apply(counts, rows, matched, u_out, v_out):
    """Phase 5: apply every row's pair-type counts."""
    for r in range(rows.shape[0]):
        _k_apply_matched(counts[rows[r]], matched[r], u_out, v_out)


def _k_phase_collision(counts, rows, avail, keys, counters, n, u_out, v_out):
    """Phase 6: the colliding interaction for rows whose run completed."""
    for r in range(rows.shape[0]):
        row = rows[r]
        counters[row] = _k_collision(
            counts[row], avail[r], keys[row], counters[row], n, u_out, v_out
        )


if _numba is not None:  # compile in dependency order (globals resolve at compile)
    _k_next = _numba.njit(_k_next)
    _k_randint = _numba.njit(_k_randint)
    _k_run_length = _numba.njit(_k_run_length)
    _k_hypergeometric = _numba.njit(_k_hypergeometric)
    _k_sample_chain = _numba.njit(_k_sample_chain)
    _k_match_chain = _numba.njit(_k_match_chain)
    _k_apply_matched = _numba.njit(_k_apply_matched)
    _k_draw_state = _numba.njit(_k_draw_state)
    _k_collision = _numba.njit(_k_collision)
    _k_silent_rows = _numba.njit(_k_silent_rows)
    _k_run_rows = _numba.njit(_k_run_rows)
    _k_phase_lengths = _numba.njit(_k_phase_lengths)
    _k_phase_sample = _numba.njit(_k_phase_sample)
    _k_phase_match = _numba.njit(_k_phase_match)
    _k_phase_apply = _numba.njit(_k_phase_apply)
    _k_phase_collision = _numba.njit(_k_phase_collision)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class JitBatchCountsEngine(BatchCountsEngine):
    """:class:`BatchCountsEngine` with the lockstep sampler run in
    compiled kernels on counter-based per-row streams.

    Everything else is inherited: the ``init`` union, burst slicing,
    retirement discipline, the sampler rule and the numpy per-row sampler
    (so single trials are bit-for-bit the counts engine), the row-workload
    surface the sweep/fabric stack calls.  Lockstep draws come from this
    module's streams — same law as ``backend='batch'``, not the same bits
    (see the module docstring).

    Under :meth:`instrument_steps` the engine switches to the
    phase-split kernels, which consume identical per-row streams — the
    breakdown costs wall-clock, never bit-identity.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        *,
        init: Optional[InitialState] = None,
        n: Optional[int] = None,
        seed: int = 0,
    ):
        require_numba()
        super().__init__(protocol, init=init, n=n, seed=seed)
        np_mod = self._np
        self._neg_survival = np_mod.ascontiguousarray(-self._runs.survival)
        row_base = derive_seed(self.seed, _ROW_KEY_STREAM)
        self._keys = np_mod.asarray(
            [derive_seed(row_base, row) for row in range(self.trials)],
            dtype=np_mod.uint64,
        )
        self._counters = np_mod.zeros(self.trials, dtype=np_mod.uint64)
        self._u_out = np_mod.ascontiguousarray(self.table.u_out, dtype=np_mod.int64)
        self._v_out = np_mod.ascontiguousarray(self.table.v_out, dtype=np_mod.int64)

    def _step_rows(self, rows, amounts) -> None:
        np_mod = self._np
        idx = np_mod.asarray(rows, dtype=np_mod.int64)
        amt = np_mod.asarray(amounts, dtype=np_mod.int64)
        with overflow_guard():
            if self._timings is None:
                _k_run_rows(
                    self._matrix, idx, amt, self._neg_survival,
                    self._u_out, self._v_out, self._keys, self._counters, self.n,
                )
            else:
                self._step_rows_phased(idx, amt)

    def _step_rows_phased(self, idx, remaining) -> None:
        """The phase-split stepper: same streams, same bits, timed.

        Lockstep across rows like the numpy engine's loop, but each
        phase is one kernel call; per-row ``(key, counter)`` streams
        make the draw sequence identical to the fused kernel's.
        """
        np_mod = self._np
        perf = perf_counter
        size = self.num_states
        counts = self._matrix
        timings = self._timings
        while idx.size:
            live = int(idx.size)
            start = perf()
            k = np_mod.empty(live, dtype=np_mod.int64)
            collide = np_mod.zeros(live, dtype=np_mod.bool_)
            _k_phase_lengths(
                idx, remaining, self._keys, self._counters, self._neg_survival,
                k, collide,
            )
            sub = counts[idx]
            sample = np_mod.empty((live, size), dtype=np_mod.int64)
            _k_phase_sample(sub, idx, 2 * k, self._keys, self._counters, sample)
            drawn = perf()
            timings["draw"] += drawn - start
            initiators = np_mod.empty((live, size), dtype=np_mod.int64)
            _k_phase_sample(sample, idx, k, self._keys, self._counters, initiators)
            matched = np_mod.empty((live, size, size), dtype=np_mod.int64)
            _k_phase_match(
                initiators, sample - initiators, idx, self._keys, self._counters,
                matched,
            )
            paired = perf()
            timings["match"] += paired - drawn
            _k_phase_apply(counts, idx, matched, self._u_out, self._v_out)
            remaining = remaining - k
            if collide.any():
                _k_phase_collision(
                    counts, idx[collide], sub[collide] - sample[collide],
                    self._keys, self._counters, self.n, self._u_out, self._v_out,
                )
                remaining[collide] -= 1
            timings["apply"] += perf() - paired
            keep = remaining > 0
            if not keep.all():
                idx = idx[keep]
                remaining = remaining[keep]

    def _silent_rows(self, rows):
        if self._effectful is None:
            return super()._silent_rows(rows)
        np_mod = self._np
        idx = np_mod.asarray(rows, dtype=np_mod.int64)
        out = np_mod.zeros(idx.size, dtype=np_mod.bool_)
        _k_silent_rows(self._matrix, idx, self._effectful, out)
        return out


__all__ = [
    "JitBackendError",
    "JitBatchCountsEngine",
    "PURE_PYTHON_ENV",
    "jit_available",
    "overflow_guard",
    "pure_python_requested",
    "require_numba",
]
