"""The ``batch`` registry entry — a whole sweep cell as one counts engine.

The counts engine (:class:`~repro.sim.counts_backend.CountsSimulation`)
holds ``T`` trials as the rows of one ``(T, S)`` counts matrix;
:data:`BatchCountsEngine` is the same class under the name the batch
backend was introduced with.  Built from a
:class:`~repro.sim.initial_state.Replicated` start it runs a cell's
trials together through its row workloads (``run_rows_until`` /
``measure_rows_availability``).  Each row is checked at its own
boundaries and retires as it converges, goes silent or exhausts its
budget, while the rest keep stepping; the per-row or the lockstep
sampler is picked at every iteration from ``S``, ``n`` and the number of
live rows (see :meth:`~repro.sim.counts_backend.CountsSimulation
._lockstep`), so a lockstep step always serves every live row, never a
few stragglers alone.

Construction goes through the backend registry
(``make_simulation(backend="batch")``), which is how both
:func:`repro.sim.trials.run_trials` and :func:`repro.sim.sweep.run_sweep`
build it.
"""

from __future__ import annotations

from repro.sim.counts_backend import CountsSimulation

#: The counts engine, named for its role as a whole-cell batch runner.
BatchCountsEngine = CountsSimulation

__all__ = ["BatchCountsEngine"]
