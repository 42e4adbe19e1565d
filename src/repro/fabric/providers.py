"""Worker providers — *where* fabric workers run.

A :class:`WorkerProvider` is the small lifecycle surface the pool
coordinator needs — ``spawn`` / ``poll`` / ``kill`` — so a new substrate
(a remote transport, a container runner, a cloud API) is one subclass
passed as ``run_pool(provider=...)``, not a coordinator change.  One
provider ships and is the default: :class:`LocalWorkerProvider`,
subprocesses on this machine, including the kill-and-re-lease story CI
exercises (its chaos tests pass fault-injecting subclasses the same way).

Budgets are first-class: :class:`BudgetCaps` carries the hard stops the
coordinator enforces — max wall-clock seconds and max trials — so a
runaway grid is refused before any worker spawns and a hung fleet is
killed instead of billed.
"""

from __future__ import annotations

import subprocess
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Optional, Sequence

from repro.fabric.errors import FabricError


@dataclass(frozen=True)
class BudgetCaps:
    """Hard budget stops for a pool run (``None`` = uncapped).

    ``max_seconds`` bounds the coordinator's wall clock: when it trips,
    every live worker is killed and the run fails loudly.  ``max_trials``
    bounds the grid itself and is checked *before* any worker spawns.
    """

    max_seconds: Optional[float] = None
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise FabricError(f"max_seconds cap must be > 0, got {self.max_seconds}")
        if self.max_trials is not None and self.max_trials < 1:
            raise FabricError(f"max_trials cap must be >= 1, got {self.max_trials}")

    def to_dict(self) -> dict[str, Optional[float]]:
        return {"max_seconds": self.max_seconds, "max_trials": self.max_trials}


@dataclass
class WorkerHandle:
    """One spawned worker, as the provider tracks it.

    ``process`` and ``log_handle`` are provider-private state (the local
    provider keeps the :class:`subprocess.Popen` and its open log file
    here); the coordinator only ever passes the handle back to the
    provider that created it.
    """

    worker_id: str
    argv: tuple[str, ...]
    process: Optional[Any] = None
    log_path: Optional[Path] = None
    log_handle: Optional[IO[bytes]] = None


class WorkerProvider(ABC):
    """The lifecycle surface the pool coordinator drives.

    Implementations must be non-blocking: ``spawn`` returns as soon as
    the worker is launched, ``poll`` never waits, and ``kill`` is a hard
    stop (the lease layer owns retries and graceful degradation).
    """

    #: The name the pool's run report records (set per subclass).
    name: str = "abstract"

    @abstractmethod
    def spawn(
        self,
        worker_id: str,
        argv: Sequence[str],
        *,
        log_path: Optional[Path] = None,
    ) -> WorkerHandle:
        """Launch ``argv`` as a worker; its output goes to ``log_path``."""

    @abstractmethod
    def poll(self, handle: WorkerHandle) -> Optional[int]:
        """``None`` while the worker runs, else its exit code."""

    @abstractmethod
    def kill(self, handle: WorkerHandle) -> None:
        """Hard-stop the worker (idempotent; reclaimed leases call this)."""


class LocalWorkerProvider(WorkerProvider):
    """Workers as subprocesses of this machine — the default provider."""

    name = "local"

    def spawn(
        self,
        worker_id: str,
        argv: Sequence[str],
        *,
        log_path: Optional[Path] = None,
    ) -> WorkerHandle:
        log_handle: Optional[IO[bytes]] = None
        if log_path is not None:
            log_path.parent.mkdir(parents=True, exist_ok=True)
            log_handle = open(log_path, "ab")
        try:
            process = subprocess.Popen(
                list(argv),
                stdout=log_handle if log_handle is not None else subprocess.DEVNULL,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        except OSError as error:
            if log_handle is not None:
                log_handle.close()
            raise FabricError(f"could not spawn worker {worker_id}: {error}") from None
        return WorkerHandle(
            worker_id=worker_id,
            argv=tuple(argv),
            process=process,
            log_path=log_path,
            log_handle=log_handle,
        )

    def poll(self, handle: WorkerHandle) -> Optional[int]:
        returncode = handle.process.poll()
        if returncode is not None:
            self._release(handle)
        return returncode

    def kill(self, handle: WorkerHandle) -> None:
        if handle.process.poll() is None:
            handle.process.kill()
            handle.process.wait()
        self._release(handle)

    @staticmethod
    def _release(handle: WorkerHandle) -> None:
        if handle.log_handle is not None:
            handle.log_handle.close()
            handle.log_handle = None
