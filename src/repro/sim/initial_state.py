"""The ``InitialState`` union — one currency for initial configurations.

An :class:`InitialState` describes a start once, for every engine.  Each
member *is* one representation, and every member can materialize itself
into any representation on demand:

* :class:`ObjectConfig` — a list of state objects (the object engine's
  native form);
* :class:`CodeArray` — encoded state codes, the common currency of the
  vectorized adversary initializers;
* :class:`CountVector` — the ``O(S)`` aggregate form the counts engines
  consume natively;
* :class:`Clean` — ``n`` agents in the protocol's initial state,
  materialized in ``O(S)`` for counts consumers (no ``O(n)`` encode
  loop);
* :class:`SampledStart` — a *named adversary* plus a seed: the start is
  drawn lazily, in whichever representation the consumer asks for, from
  the law-matched initializer twins
  (:data:`repro.adversary.initializers.CODE_ADVERSARIES` /
  :data:`~repro.adversary.initializers.COUNTS_ADVERSARIES`): the counts
  engines get the ``O(S)`` twin, everyone else the state-code form,
  without anyone naming a backend;
* :class:`Replicated` — a whole *trial batch*: ``trials`` rows, each an
  ``InitialState`` (one shared spec, or one per row).  Only the batch
  engine (:class:`~repro.sim.counts_backend.CountsSimulation`, built by the
  ``batch`` backend) accepts it; per-trial factories reject it with a
  clear error.

Factories ask for their native form (``to_config`` / ``to_codes`` /
``to_counts``); the object-engine paths are numpy-free, preserving the
numpy-optional object runtime.  Materialization is pure: a
:class:`SampledStart` builds a fresh generator from its seed on every
call, so the same value yields the same start on every backend and in
every process.

Entry points take ``init=`` alone, and :func:`require_init` validates
it; any other keyword gets Python's own :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NoReturn, Optional, Sequence, Union

from repro.core.protocol import PopulationProtocol

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy

#: A materialized code array / count vector: a plain int sequence or a
#: numpy ``int64`` array.  Typed via TYPE_CHECKING so the numpy-free
#: object runtime never imports numpy to evaluate annotations.
Codes = Union[Sequence[int], "numpy.ndarray"]
Counts = Union[Sequence[int], "numpy.ndarray"]


class InitialState:
    """Base of the initial-configuration union (see the module docstring).

    Subclasses implement the three materializations.  ``to_config`` must
    stay numpy-free (the object runtime is numpy-optional); ``to_codes``
    and ``to_counts`` may require numpy, exactly as the engines that ask
    for them do.
    """

    __slots__ = ()

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        """Materialize as a list of *fresh* state objects (numpy-free)."""
        raise NotImplementedError

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        """Materialize as a sequence of encoded state codes."""
        raise NotImplementedError

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        """Materialize as an ``S``-length count vector."""
        raise NotImplementedError


def _require_num_states(protocol: PopulationProtocol) -> int:
    size = protocol.num_states()
    if size is None:
        raise ValueError(
            f"protocol '{protocol.name}' has no finite state encoding "
            "(num_states() is None), so its configurations have no "
            "codes/counts form"
        )
    return size


@dataclass(frozen=True)
class ObjectConfig(InitialState):
    """An explicit list of state objects (the object engine's native form)."""

    config: Sequence[Any]

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        return list(self.config)

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        encode = protocol.encode_state
        return [int(encode(state)) for state in self.config]

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        from repro.sim.counts_backend import counts_from_configuration

        return counts_from_configuration(protocol, list(self.config))


@dataclass(frozen=True)
class CodeArray(InitialState):
    """Encoded state codes — the vectorized initializers' common currency."""

    codes: Sequence[int]

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        # Range-checked against num_states() so invalid codes fail loudly
        # here exactly as they do on the vectorized engines — the
        # reference engine must not silently run what the others reject.
        size = protocol.num_states()
        decode = protocol.decode_state
        config = []
        for code in self.codes:
            code = int(code)
            if size is not None and not 0 <= code < size:
                raise ValueError(f"state code {code} outside range({size})")
            config.append(decode(code))
        return config

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        return self.codes

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        from repro.sim.counts_backend import counts_from_codes

        return counts_from_codes(protocol, self.codes)


@dataclass(frozen=True)
class CountVector(InitialState):
    """An ``S``-length count vector — the aggregate engines' native form."""

    counts: Sequence[int]

    def _validated(self, protocol: PopulationProtocol) -> list[int]:
        size = protocol.num_states()
        values = [int(count) for count in self.counts]
        if size is None or len(values) != size:
            raise ValueError(
                f"counts must have length num_states()={size}, got {len(values)}"
            )
        if any(count < 0 for count in values):
            raise ValueError("counts must be non-negative")
        return values

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        # Every agent gets its own decoded object — the object engine
        # mutates states in place, so the shared-object expansion the
        # counts backend uses for read-only predicates would alias
        # agents together here.
        decode = protocol.decode_state
        config: list[Any] = []
        for code, count in enumerate(self._validated(protocol)):
            for _ in range(count):
                config.append(decode(code))
        return config

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        from repro.sim.array_backend import require_numpy

        np = require_numpy()
        values = self._validated(protocol)
        vector = np.asarray(values, dtype=np.int64)
        return np.repeat(np.arange(vector.shape[0], dtype=np.int64), vector)

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        return self.counts


@dataclass(frozen=True)
class Clean(InitialState):
    """``n`` agents in the protocol's clean initial state."""

    n: int

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        return protocol.clean_configuration(self.n)

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        code = int(protocol.encode_state(protocol.initial_state()))
        return [code] * self.n

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        from repro.sim.array_backend import require_numpy

        np = require_numpy()
        # initial_state() is a nullary constructor, so a clean start is n
        # copies of one state — O(S), no per-agent encode loop.
        counts = np.zeros(_require_num_states(protocol), dtype=np.int64)
        counts[int(protocol.encode_state(protocol.initial_state()))] = self.n
        return counts


@dataclass(frozen=True)
class SampledStart(InitialState):
    """A named code-space adversary start, drawn lazily per representation.

    ``adversary`` names an entry of
    :data:`repro.adversary.initializers.CODE_ADVERSARIES`; consumers that
    ask for the ``O(S)`` form get the law-matched
    :data:`~repro.adversary.initializers.COUNTS_ADVERSARIES` twin where
    one exists.  Every materialization builds a fresh generator from
    ``seed`` (:func:`repro.adversary.initializers.code_rng`), so the
    draw is a pure function of this value — same start in every process,
    and the counts twin consumes an independent realization of the same
    law (exactly the contract the sweep's counts-native cells already
    relied on).
    """

    adversary: str
    n: int
    seed: int

    def _code_initializer(self):
        from repro.adversary.initializers import CODE_ADVERSARIES

        try:
            return CODE_ADVERSARIES[self.adversary]
        except KeyError:
            known = ", ".join(sorted(CODE_ADVERSARIES))
            raise ValueError(
                f"unknown code-space adversary '{self.adversary}' (known: {known})"
            ) from None

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        return CodeArray(self.to_codes(protocol)).to_config(protocol)

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        from repro.adversary.initializers import code_rng

        initializer = self._code_initializer()
        return initializer(protocol, code_rng(self.seed), self.n)

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        from repro.adversary.initializers import COUNTS_ADVERSARIES, code_rng

        self._code_initializer()  # unknown names fail identically everywhere
        twin = COUNTS_ADVERSARIES.get(self.adversary)
        if twin is None:
            from repro.sim.counts_backend import counts_from_codes

            return counts_from_codes(protocol, self.to_codes(protocol))
        return twin(protocol, code_rng(self.seed), self.n)


@dataclass(frozen=True)
class Replicated(InitialState):
    """A whole trial batch: ``trials`` rows of initial states.

    ``spec`` is either one :class:`InitialState` shared by every row or a
    sequence of exactly ``trials`` per-row states.  Only batch engines
    accept a ``Replicated`` — per-trial factories reject it, because a
    single simulation has no notion of rows.
    """

    spec: Union[InitialState, Sequence["InitialState"]]
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"a trial batch needs trials >= 1, got {self.trials}")
        if isinstance(self.spec, InitialState):
            if isinstance(self.spec, Replicated):
                raise ValueError("Replicated batches do not nest")
            return
        rows = tuple(self.spec)
        if len(rows) != self.trials:
            raise ValueError(
                f"per-row specs must match trials={self.trials}, got {len(rows)}"
            )
        for row in rows:
            if not isinstance(row, InitialState) or isinstance(row, Replicated):
                raise ValueError(
                    "every row of a Replicated batch must be a non-batch InitialState"
                )
        object.__setattr__(self, "spec", rows)

    def row(self, index: int) -> InitialState:
        """The initial state of batch row ``index``."""
        if isinstance(self.spec, InitialState):
            return self.spec
        return self.spec[index]

    def _reject(self) -> NoReturn:
        raise ValueError(
            f"a Replicated initial state describes a batch of {self.trials} "
            "trials; only batch engines (e.g. backend='batch') accept it"
        )

    def to_config(self, protocol: PopulationProtocol) -> list[Any]:
        self._reject()

    def to_codes(self, protocol: PopulationProtocol) -> Codes:
        self._reject()

    def to_counts(self, protocol: PopulationProtocol) -> Counts:
        self._reject()


def require_init(init: Optional[InitialState]) -> Optional[InitialState]:
    """Validate an ``init=`` argument (``None`` = clean ``n``-agent start)."""
    if init is not None and not isinstance(init, InitialState):
        raise TypeError(
            f"init= must be an InitialState, got {type(init).__name__}; "
            "see repro.sim.initial_state"
        )
    return init


__all__ = [
    "Clean",
    "CodeArray",
    "CountVector",
    "InitialState",
    "ObjectConfig",
    "Replicated",
    "SampledStart",
    "require_init",
]
