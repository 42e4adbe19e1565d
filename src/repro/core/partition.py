"""Partition of the rank space ``[n]`` into groups of size ``Θ(r)``.

Section 3.3 of the paper: the space-time trade-off runs the collision
detection protocol independently inside each group of a partition of
``[n]`` into ``⌈n/r⌉`` groups whose sizes lie in ``{r/2, ..., r}``
(such a partition always exists).  Collisions — two agents with the same
rank — are necessarily intra-group, so each group can be treated as a
distinct sub-population of size ``Θ(r)``, shrinking the per-agent message
system from ``Θ(n^3)`` to ``Θ(r^3)`` entries.

The partition is *encoded in the transition function* (the protocol is
strongly non-uniform), which we model by giving every agent read access to
one shared immutable :class:`RankPartition`.
"""

from __future__ import annotations

import math


class RankPartition:
    """An immutable partition of ranks ``1..n`` into contiguous groups.

    We use the canonical construction: ``g = ⌈n/r⌉`` contiguous groups with
    sizes as equal as possible (each ``⌊n/g⌋`` or ``⌈n/g⌉``).  For every
    ``1 <= r <= n`` this yields group sizes within ``{⌈r/2⌉, ..., r}``,
    matching the paper's requirement.
    """

    __slots__ = ("n", "r", "group_count", "_sizes", "_starts", "_group_of")

    def __init__(self, n: int, r: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        self.n = n
        self.r = r
        g = math.ceil(n / r)
        self.group_count = g
        base, extra = divmod(n, g)
        # The first ``extra`` groups get one additional rank.
        self._sizes = tuple(base + 1 if k < extra else base for k in range(g))
        starts = [1]
        for size in self._sizes[:-1]:
            starts.append(starts[-1] + size)
        self._starts = tuple(starts)
        group_of = []
        for k, size in enumerate(self._sizes):
            group_of.extend([k] * size)
        self._group_of = tuple(group_of)

    # ------------------------------------------------------------------

    def group_of(self, rank: int) -> int:
        """Index of the group containing ``rank`` (ranks are 1-based)."""
        self._check_rank(rank)
        return self._group_of[rank - 1]

    def group_size(self, group: int) -> int:
        """Number of ranks in group ``group``."""
        return self._sizes[group]

    def group_ranks(self, group: int) -> range:
        """The contiguous rank range of group ``group``."""
        start = self._starts[group]
        return range(start, start + self._sizes[group])

    def position_in_group(self, rank: int) -> int:
        """1-based position of ``rank`` within its group.

        The paper writes this as ``rank_r = rank (mod r_u)``; with contiguous
        groups it is the offset from the group's first rank.
        """
        group = self.group_of(rank)
        return rank - self._starts[group] + 1

    def same_group(self, rank_a: int, rank_b: int) -> bool:
        """True iff the two ranks fall in the same group (``𝒢`` test, Prot. 3)."""
        n = self.n
        if not (0 < rank_a <= n and 0 < rank_b <= n):
            self._check_rank(rank_a)
            self._check_rank(rank_b)
        group_of = self._group_of
        return group_of[rank_a - 1] == group_of[rank_b - 1]

    def sizes(self) -> tuple[int, ...]:
        """All group sizes."""
        return self._sizes

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank must be in 1..{self.n}, got {rank}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankPartition(n={self.n}, r={self.r}, sizes={self._sizes})"
