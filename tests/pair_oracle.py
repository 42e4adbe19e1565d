"""The pair-at-a-time oracle the counts engine's law tests gate it against."""

from __future__ import annotations

from repro.sim.counts_backend import CountsSimulation


class PairOracle(CountsSimulation):
    """A counts engine that samples one interaction at a time.

    Per interaction: the initiator's state is drawn uniformly over all
    ``n`` agents (i.e. from the counts), the responder's over the other
    ``n - 1``, and the pair is applied at once.  It never jumps, skips a
    silent advance or steps rows in lockstep: scalar and slow, its job is
    to be obviously correct.
    """

    def _run_row(self, counts, count: int) -> None:
        for _ in range(count):
            a = self._draw_state(counts, self.n)
            counts[a] -= 1  # the responder is one of the other n-1 agents
            b = self._draw_state(counts, self.n - 1)
            counts[a] += 1
            self._apply_one(counts, a, b)

    def _lockstep(self, stepping: int) -> bool:
        return False

    def _draw_state(self, pool, total: int) -> int:
        """The state of one agent drawn uniformly from a count-vector pool."""
        x = int(self._generator.integers(0, total))
        return int(pool.cumsum().searchsorted(x, side="right"))
