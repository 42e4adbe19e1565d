"""Lint fixture: clock and environment reads outside repro.obs, tracing
inside δ (L007)."""

import os
import time
from time import perf_counter

from repro.obs import get_tracer


def default_backend() -> str:
    return os.environ.get("REPRO_ENGINE", "object")


def measure() -> float:
    start = time.perf_counter()
    time.time()
    return perf_counter() - start


def transition(state_a, state_b):
    with get_tracer().span("delta"):
        return state_b, state_a
