"""The repository's static contracts, checked over the shipped tree.

Six contracts guard what makes this reproduction trustworthy: every run
is a pure function of its seed, every engine has one surface, dispatch
goes through the backend registry, every δ table compiles its protocol's
transition function exactly, counts stay ``int64`` and the wall clock is
read in one place.  Each contract has a scanner: a function from one
parsed file (its repository-relative path and AST) to the lines that
break the contract.  Each contract's test asserts that its scanner flags
no ``(path, line)`` in the shipped roots (``src``, ``benchmarks``,
``examples``); the engine-surface and transition-purity tests also build
every registered engine and every finite-state table, and fail if one
cannot be built.

``tests/lint_fixtures/`` holds one violating snippet per contract;
``tests/test_lint.py`` asserts that each is flagged by its own
contract's scanner and by no other.  Contract IDs are never reused:
L005 was retired.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.sim.array_backend import build_transition_table
from repro.sim.backends import ENGINE_SURFACE, backend_names, get_backend
from repro.sim.simulation import _Engine
from repro.sim.sweep import PROTOCOLS

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_ROOTS = ("src", "benchmarks", "examples")

#: One file's repository-relative POSIX path and AST → the lines that
#: break a contract.
Scanner = Callable[[str, ast.Module], Iterator[int]]


@lru_cache(maxsize=None)
def _parse(path: Path) -> tuple[str, ast.Module]:
    text = path.read_text(encoding="utf-8")
    return path.relative_to(REPO_ROOT).as_posix(), ast.parse(text, filename=str(path))


def shipped_files() -> list[Path]:
    files = [
        path for root in SHIPPED_ROOTS for path in sorted((REPO_ROOT / root).rglob("*.py"))
    ]
    assert files, f"no Python files under {SHIPPED_ROOTS}"
    return files


def offences(scan: Scanner, paths: Optional[Sequence[Path]] = None) -> list[tuple[str, int]]:
    """Every ``(path, line)`` that ``scan`` flags (default: the shipped roots)."""
    found = []
    for path in shipped_files() if paths is None else paths:
        relpath, tree = _parse(path)
        found.extend((relpath, line) for line in scan(relpath, tree))
    return found


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolver(tree: ast.Module) -> Callable[[ast.AST], str]:
    """Resolve a call target through the file's imports
    (``np.random.default_rng`` → ``numpy.random.default_rng``); ``""``
    for targets that are not a Name/Attribute chain."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(target: ast.AST) -> str:
        dotted = _dotted(target)
        if dotted is None:
            return ""
        head, dot, rest = dotted.partition(".")
        return aliases.get(head, head) + dot + rest

    return resolve


def _calls(node: ast.AST) -> Iterator[ast.Call]:
    return (inner for inner in ast.walk(node) if isinstance(inner, ast.Call))


def _semantics(tree: ast.Module) -> Iterator[ast.AST]:
    """The δ and ``transition_table`` bodies: the code tables compile."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
            "transition", "transition_table",
        ):
            yield node


# ---------------------------------------------------------------------------
# L001 — RNG discipline
# ---------------------------------------------------------------------------

#: Schedule-stream attributes a fault applier must never touch: appliers
#: draw from the corruption generator they are passed, or the schedule
#: stream stops being bit-identical across backends.
SCHEDULE_ATTRS = {"schedule", "_schedule", "next_burst", "_next_burst"}


def _is_rng_module(name: str) -> bool:
    parts = name.split(".")
    return parts[0] == "random" or parts[:2] == ["numpy", "random"]


def scan_rng_discipline(relpath: str, tree: ast.Module) -> Iterator[int]:
    """No ``random`` or ``numpy.random`` import or call outside
    ``repro.scheduler.rng``, and no fault applier (an ``apply_*`` method)
    that touches the schedule stream."""
    if relpath.endswith("repro/scheduler/rng.py"):
        return
    resolve = _resolver(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Call):
            names = [resolve(node.func)]
        else:
            continue
        if any(_is_rng_module(name) for name in names):
            yield node.lineno
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name.startswith("apply_")):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in SCHEDULE_ATTRS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield node.lineno


def test_rng_discipline():
    """L001: every generator is built by ``repro.scheduler.rng`` from a
    seed, so every run is a pure function of its seed."""
    assert offences(scan_rng_discipline) == []


# ---------------------------------------------------------------------------
# L002 — engine surface
# ---------------------------------------------------------------------------


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _members(cls: ast.ClassDef) -> set[str]:
    """Every member a class visibly defines: methods, class-level
    assignments, ``__slots__`` entries and ``self.X`` targets."""
    names = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            for node in ast.walk(item):
                names.update(
                    target.attr
                    for target in _targets(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
        for target in _targets(item):
            if isinstance(target, ast.Name):
                names.add(target.id)
                if target.id == "__slots__":
                    names.update(
                        node.value
                        for node in ast.walk(item)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    )
    return names


def scan_engine_classes(relpath: str, tree: ast.Module) -> Iterator[int]:
    """A class that defines ``run_batch`` and ``predicate_holds`` (members
    only an execution engine has) defines all of ``ENGINE_SURFACE``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            members = _members(node)
            if {"run_batch", "predicate_holds"} <= members and not set(ENGINE_SURFACE) <= members:
                yield node.lineno


def test_engine_surface():
    """L002: every engine has one surface.  Every registered backend is
    built on the first sweep protocol it supports, and its engine has
    ``ENGINE_SURFACE`` plus the public members of the shared driver."""
    assert offences(scan_engine_classes) == []
    surface = ENGINE_SURFACE + tuple(name for name in vars(_Engine) if not name.startswith("_"))
    probes = [kind.build(16, 1)[0] for kind in PROTOCOLS.values()]
    lacking = {}
    for name in backend_names():
        entry = get_backend(name)
        probe = next((p for p in probes if entry.supports(p) is None), None)
        assert probe is not None, f"no sweep protocol runs on backend {name!r}"
        engine = entry.factory(probe, init=None, n=16, seed=0)
        lacking[name] = [member for member in surface if not hasattr(engine, member)]
    assert lacking == {name: [] for name in backend_names()}


# ---------------------------------------------------------------------------
# L003 — no compares against backend names
# ---------------------------------------------------------------------------


def _is_backend_name(node: ast.AST, names: set[str]) -> bool:
    """A backend-name string, or a non-empty tuple/list/set of them."""
    elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return bool(elements) and all(
        isinstance(element, ast.Constant) and element.value in names for element in elements
    )


def _selects_backend(node: ast.AST) -> bool:
    """Does this expression read as a backend or engine selector?"""
    label = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return "backend" in label.lower() or "engine" in label.lower()


def scan_backend_compares(relpath: str, tree: ast.Module) -> Iterator[int]:
    """No compare of a backend or engine selector against a backend name
    outside ``repro.sim.backends``."""
    if relpath.endswith("repro/sim/backends.py"):
        return
    names = set(backend_names())
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(_is_backend_name(side, names) for side in sides) and any(
                _selects_backend(side) for side in sides
            ):
                yield node.lineno


def test_no_backend_name_compares():
    """L003: dispatch goes through the backend registry's metadata."""
    assert offences(scan_backend_compares) == []


# ---------------------------------------------------------------------------
# L004 — transition purity
# ---------------------------------------------------------------------------

IO_CALLS = {"print", "open", "input"}


def scan_transition_purity(relpath: str, tree: ast.Module) -> Iterator[int]:
    """δ and ``transition_table`` bodies declare no ``global`` or
    ``nonlocal`` and do no I/O, and a table builder draws no randomness."""
    for func in _semantics(tree):
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield node.lineno
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in IO_CALLS:
                    yield node.lineno
                elif func.name == "transition_table" and "random" in (
                    _dotted(node.func) or ""
                ).split("."):
                    yield node.lineno


def test_transition_purity():
    """L004: every δ table compiles its protocol's transition function
    exactly.  Every finite-state sweep protocol's δ is built into a table
    by the generic builder, whose poisoned RNG raises on a δ that draws
    randomness; closed-form tables are pinned against that build in
    their own tests."""
    assert offences(scan_transition_purity) == []
    for kind in PROTOCOLS.values():
        protocol = kind.build(16, 1)[0]
        if protocol.num_states() is not None:
            build_transition_table(protocol)


# ---------------------------------------------------------------------------
# L006 — int64 counts
# ---------------------------------------------------------------------------

NARROW_DTYPES = {"int32", "int16", "int8", "intc", "short"}


def _is_narrow(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in NARROW_DTYPES
    return isinstance(node, ast.Constant) and node.value in NARROW_DTYPES


def scan_counts_dtype(relpath: str, tree: ast.Module) -> Iterator[int]:
    """In a counts or batch module, no ``dtype=`` and no ``.astype`` names
    a narrow integer type."""
    basename = relpath.rsplit("/", 1)[-1].lower()
    if "counts" not in basename and "batch" not in basename:
        return
    for call in _calls(tree):
        dtypes = [keyword.value for keyword in call.keywords if keyword.arg == "dtype"]
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            dtypes += call.args
        yield from (dtype.lineno for dtype in dtypes if _is_narrow(dtype))


def test_int64_counts():
    """L006: count vectors stay ``int64`` in the counts and batch paths."""
    assert offences(scan_counts_dtype) == []


# ---------------------------------------------------------------------------
# L007 — clock and obs discipline
# ---------------------------------------------------------------------------

#: Clock reads that go through ``repro.obs``.  ``time.sleep`` stays
#: legal: it is control flow, not measurement.
CLOCK_CALLS = {"time.time", "time.monotonic", "time.perf_counter", "time.perf_counter_ns"}


def scan_clock_and_obs(relpath: str, tree: ast.Module) -> Iterator[int]:
    """Outside ``repro.obs``, no direct clock read, and no δ or
    ``transition_table`` body calls into ``repro.obs``."""
    if "repro/obs/" in relpath:
        return
    resolve = _resolver(tree)
    for call in _calls(tree):
        if resolve(call.func) in CLOCK_CALLS:
            yield call.lineno
    for func in _semantics(tree):
        for call in _calls(func):
            target = resolve(call.func)
            if target == "repro.obs" or target.startswith("repro.obs."):
                yield call.lineno


def test_clock_and_obs_discipline():
    """L007: timing flows through ``repro.obs.perf_counter``, and tracing
    never sits on the semantic hot path."""
    assert offences(scan_clock_and_obs) == []

