"""Seeded random number generation for reproducible experiments.

Every stochastic component in this repository draws randomness through a
generator built *here* and threaded explicitly through the call tree
(never a module-level global).  This keeps individual trials replayable
from a seed, lets multi-trial experiments spawn independent streams, and
gives the RNG-discipline contract (L001, ``tests/test_contracts.py``) a
single blessed construction surface to key on: outside this module, neither
``random.Random(...)`` nor ``numpy.random.Generator``/``PCG64``/
``default_rng`` may be called directly.

Two generator families live behind that surface:

* :func:`make_rng` / :func:`spawn_rngs` — the standard library
  :class:`random.Random`, used by the per-interaction object engine.
  Protocol transitions draw one or two small integers
  per interaction, where ``random.Random.randrange`` has far lower
  per-call overhead than constructing numpy arrays, and the Mersenne
  Twister's reproducibility guarantees across platforms are all we need.
* :func:`np_generator` / :func:`np_stream` — seeded
  ``numpy.random.Generator(PCG64)`` streams for the vectorized engines
  (array / counts / batch schedulers, fault schedule and corruption
  streams, code-space adversaries).  PCG64 streams seeded through
  :func:`derive_seed` are what make fault schedules bit-identical
  across backends.

numpy is imported lazily and only by the numpy-stream constructors: the
object-engine runtime stays numpy-free.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

#: The RNG type threaded through all protocol transitions.
RNG = random.Random

#: Large odd multiplier used to decorrelate derived seeds (splitmix-style).
_SEED_STRIDE = 0x9E3779B97F4A7C15


def make_rng(seed: int | None = 0) -> RNG:
    """A fresh seeded generator.  ``seed=None`` gives OS entropy."""
    return random.Random(seed)


def derive_seed(seed: int, index: int) -> int:
    """A deterministic child seed for trial ``index`` of a seeded experiment."""
    return (seed * _SEED_STRIDE + index * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) % 2**63


def spawn_rngs(seed: int, count: int) -> list[RNG]:
    """``count`` independent generators derived deterministically from ``seed``."""
    return [random.Random(derive_seed(seed, i)) for i in range(count)]


def np_generator(seed: int | None = 0) -> "numpy.random.Generator":
    """A seeded ``numpy.random.Generator(PCG64(seed))`` — the blessed
    constructor for every vectorized stream in the repository.

    ``seed`` is consumed exactly as ``PCG64(seed)`` does, so call sites
    that previously built ``Generator(PCG64(seed))`` by hand get
    bit-identical streams through this function.
    """
    try:
        import numpy
    except ImportError:
        raise RuntimeError(
            "numpy is required for vectorized random streams; install it "
            "with 'pip install repro-podc25-leader-election[array]' or use "
            "the numpy-free object engine (make_rng)"
        ) from None
    return numpy.random.Generator(numpy.random.PCG64(seed))


def np_stream(seed: int, stream: int) -> "numpy.random.Generator":
    """An independent PCG64 stream: ``np_generator(derive_seed(seed, stream))``.

    ``stream`` is a small tag (0, 1, ... or a module-level stream
    constant) naming which of an experiment's independent streams this
    is; distinct tags under one ``seed`` give decorrelated generators.
    This is the constructor behind the fault engine's schedule/corruption
    stream split and the counts engines' scheduler streams.
    """
    return np_generator(derive_seed(seed, stream))
