"""Host-speed normalization: frozen reference kernels paced into the work.

The benchmark host is a shared 2-vCPU sandbox whose speed flips, within
seconds, between a fast mode and one up to about half as fast, while CPU
time and ``/proc/stat`` steal stay blind to it.  Reference kernels timed
*between* units sample a different stretch of the host's life than the
unit itself, so they cannot cancel that drift: on identical units they
left a ~40% spread where interleaved ones leave ~7%.

A :class:`Pacer` interleaves the reference with the work: while it is
active, ``SIGALRM`` fires every ``period`` seconds and the handler runs
one short slice of a frozen kernel in the measured process (no helper
thread or process).  Over a unit the slices sample the host's speed at
the same moments the work ran, so::

    work_s    = raw_s - slices' own time
    nominal_s = work_s / (mean slice time / kernel.nominal_s)

is the unit's duration at this module's nominal host speed.  The kernels
use nothing from the program under test, so they stay identical across
its commits; changing one (or its nominal constant) re-bases every timing
and is a benchmark change.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Callable

#: Seconds between reference slices while a pacer is active: often
#: enough to sample the host's fast and slow spells during one unit, rare
#: enough to cost about 2% of it.
PERIOD_S = 0.1
#: The same for set-up, which lasts well under a second.
SETUP_PERIOD_S = 0.025


def _object_slice() -> None:
    """Pure-Python object code: slotted-state dispatch like a δ loop."""
    rng = random.Random(0x5EED)
    agents = [_Agent(index) for index in range(64)]
    for _ in range(1800):
        i = rng.randrange(64)
        j = rng.randrange(63)
        if j >= i:
            j += 1
        u = agents[i]
        v = agents[j]
        if u.rank < v.rank:
            u.timer += 1
        else:
            v.timer = max(0, v.timer - 1)
        u.slots[u.timer & 3] = v.rank
        key = (u.rank ^ v.timer) & 15
        v.seen[key] = v.seen.get(key, 0) + 1


class _Agent:
    __slots__ = ("rank", "timer", "slots", "seen")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.timer = 0
        self.slots = [rank] * 4
        self.seen: dict[int, int] = {}


def _make_bulk_slice() -> Callable[[], None]:
    """Row-vectorized numpy over ~10³-element arrays (a batch engine step
    on many rows)."""
    import numpy as np

    generator = np.random.Generator(np.random.PCG64(0x5EED))
    start = generator.bit_generator.state
    good = np.full(1000, 5000, dtype=np.int64)
    bad = good.copy()
    delta = np.array([[0, 0], [1, -1], [-1, 1], [0, 0]], dtype=np.int64)
    rows = np.full((1000, 2), 5000, dtype=np.int64)
    keys = np.arange(2000) % 7

    def bulk_slice() -> None:
        generator.bit_generator.state = start
        for _ in range(4):
            drawn = generator.hypergeometric(good, bad, 60)
            capped = np.minimum(drawn, 50)
            split = generator.hypergeometric(capped + 1, 100 - capped, 30)
            matched = np.stack((split, capped - split + 30, drawn - split, split), axis=1)
            rows[:] += matched @ delta
            cumulative = rows.cumsum(axis=1)
            picks = generator.integers(0, 10000, size=1000)
            (cumulative <= picks[:, None]).sum(axis=1)
            np.bincount(keys, minlength=8)

    return bulk_slice


def _make_hypergeometric_slice() -> Callable[[], None]:
    """Multivariate hypergeometric draws over a ~1650-state count vector
    (a counts engine run on a many-state protocol)."""
    import numpy as np

    generator = np.random.Generator(np.random.PCG64(0x5EED))
    start = generator.bit_generator.state
    counts = np.full(1654, 6, dtype=np.int64)
    counts[0] = 990_000
    codes = np.arange(1654, dtype=np.int64)

    def hypergeometric_slice() -> None:
        generator.bit_generator.state = start
        for _ in range(8):
            sample = generator.multivariate_hypergeometric(counts, 1200)
            drawn = codes.repeat(sample)
            generator.shuffle(drawn)
            index = drawn[0::2] * 1654
            index += drawn[1::2]
            np.bincount(index % 1654, minlength=1654)

    return hypergeometric_slice


@dataclass(frozen=True)
class Kernel:
    """A frozen reference slice and its duration on the nominal host."""

    name: str
    slice: Callable[[], None]
    nominal_s: float


def make_kernel(style: str) -> Kernel:
    """The reference slice for a workload's style of code.

    Each style was picked by pacing all candidates through every workload
    on the calibration host and keeping, per workload, the one whose time
    tracks the workload's own across the host's fast and slow spells:
    ``object`` (pure Python; also the batch engine at wide S, whose
    lockstep step is a Python loop of tiny numpy calls), ``bulk``
    (row-vectorized numpy over many rows) and ``hypergeometric``
    (multivariate hypergeometric draws over many states).
    """
    if style == "object":
        return Kernel(style, _object_slice, 0.00165)
    if style == "bulk":
        return Kernel(style, _make_bulk_slice(), 0.0019)
    if style == "hypergeometric":
        return Kernel(style, _make_hypergeometric_slice(), 0.0017)
    raise ValueError(f"unknown reference kernel style {style!r}")


class Pacer:
    """Context manager running one reference slice every :data:`PERIOD_S`.

    ``ref_s`` and ``slices`` accumulate the slices run while active;
    :meth:`speed` is the mean slice time over the kernel's nominal time
    (1.0 on the nominal host, 1.3 on a host running 30% slow).
    """

    def __init__(self, kernel: Kernel, period: float = PERIOD_S) -> None:
        self.kernel = kernel
        self.period = period
        self.ref_s = 0.0
        self.slices = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel.slice()
        self.ref_s += time.perf_counter() - start
        self.slices += 1

    def top_up(self, minimum: int) -> None:
        """Run slices back to back until at least ``minimum`` were taken
        (for spans too short for the timer to sample)."""
        while self.slices < minimum:
            self._on_alarm(None, None)

    def speed(self, sensitivity: float = 1.0) -> float:
        """How slow the host ran, for work that slows as the kernel does
        to the power ``sensitivity``."""
        if not self.slices:
            raise RuntimeError("the pacer took no reference slices")
        return ((self.ref_s / self.slices) / self.kernel.nominal_s) ** sensitivity

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def steal_seconds() -> float | None:
    """Host-wide CPU steal so far (``/proc/stat``, in seconds), if exposed."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
