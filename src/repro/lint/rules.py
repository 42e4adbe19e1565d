"""The shipped lint rules: L001–L004, L006 and L007.

Rule IDs are never renumbered, so the retired L005 leaves a gap.

Each rule encodes one repository invariant the type system cannot see:

* **L001 rng-discipline** — all randomness flows through the blessed
  constructors in :mod:`repro.scheduler.rng` (``make_rng`` /
  ``np_generator`` / ``np_stream``); no direct ``random`` imports or
  ``numpy.random`` construction anywhere else, and fault appliers never
  touch the schedule stream.
* **L002 backend-contract** — engine-shaped classes in the tree define
  the canonical surface (:data:`repro.sim.backends.ENGINE_SURFACE`), and
  every registered execution engine exposes it plus the members it
  inherits from the shared engine driver.
* **L003 no-backend-conditionals** — no string comparisons against
  backend names outside the registry module (PR 4's invariant, now
  enforced).
* **L004 transition-purity** — δ and ``transition_table`` bodies are
  free of global mutation, I/O and randomness; the generic table
  builder's poisoned-RNG rejection runs at lint time for every
  registered finite-state protocol.
* **L006 counts-dtype** — count-vector arithmetic stays ``int64`` in the
  counts/batch hot paths (no narrowing casts or ``int32`` accumulators).
* **L007 obs-discipline** — wall-clock reads (``time.time`` /
  ``time.perf_counter``) happen only inside :mod:`repro.obs`; everything
  else imports the blessed ``repro.obs.perf_counter``.  And no tracing or
  metrics calls inside δ / ``transition_table`` bodies — observability
  must never sit on the semantic hot path.

File-scope checkers are pure AST; project-scope checkers are the
``importlib`` half of the hybrid analyzer and consult the live backend /
protocol registries, so new registrations inherit the gates for free.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.registry import (
    Finding,
    LintRule,
    ProjectContext,
    SourceFile,
    register_rule,
)

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(func: ast.AST) -> Optional[str]:
    """The last identifier of a call target (``pkg.mod.fn`` → ``fn``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _ImportMap:
    """Per-file import aliases, resolved to canonical dotted prefixes."""

    def __init__(self, tree: ast.Module):
        #: local name -> canonical module path it is bound to.
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    canonical = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = canonical
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite a local dotted path onto canonical module names."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        mapped = self.aliases.get(head)
        if mapped is None:
            return dotted
        return f"{mapped}.{rest}" if rest else mapped


def _walk_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


# ---------------------------------------------------------------------------
# L001 — rng-discipline
# ---------------------------------------------------------------------------

#: The one module allowed to construct generators directly.
_RNG_MODULE_SUFFIX = "repro/scheduler/rng.py"

#: Schedule-stream attributes a fault applier must never touch: appliers
#: draw from the corruption generator they are handed, or the schedule
#: stream stops being bit-identical across backends.
_SCHEDULE_ATTRS = {"schedule", "_schedule", "next_burst", "_next_burst"}


def _check_rng_discipline(source: SourceFile) -> Iterable[Finding]:
    if source.relpath.endswith(_RNG_MODULE_SUFFIX):
        return
    rule = L001
    imports = _ImportMap(source.tree)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield rule.finding(
                        source.relpath, node.lineno,
                        "direct 'import random' outside repro.scheduler.rng",
                    )
                if alias.name == "numpy.random":
                    yield rule.finding(
                        source.relpath, node.lineno,
                        "direct 'import numpy.random' outside repro.scheduler.rng",
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "random" or node.module.startswith("random."):
                yield rule.finding(
                    source.relpath, node.lineno,
                    "direct 'from random import ...' outside repro.scheduler.rng",
                )
            elif node.module == "numpy.random" or (
                node.module == "numpy"
                and any(alias.name == "random" for alias in node.names)
            ):
                yield rule.finding(
                    source.relpath, node.lineno,
                    "direct numpy.random import outside repro.scheduler.rng",
                )
        elif isinstance(node, ast.Call):
            canonical = imports.canonical(_dotted(node.func))
            if canonical is None:
                continue
            if canonical == "random" or canonical.startswith("random."):
                yield rule.finding(
                    source.relpath, node.lineno,
                    f"stdlib RNG call '{canonical}' outside repro.scheduler.rng",
                )
            elif canonical.startswith("numpy.random."):
                yield rule.finding(
                    source.relpath, node.lineno,
                    f"unseeded-stream construction '{canonical}' outside "
                    "repro.scheduler.rng",
                )
    # Fault appliers must not consume the schedule stream.
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if not method.name.startswith("apply_"):
                continue
            for inner in ast.walk(method):
                if (
                    isinstance(inner, ast.Attribute)
                    and inner.attr in _SCHEDULE_ATTRS
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    yield rule.finding(
                        source.relpath, inner.lineno,
                        f"fault applier {node.name}.{method.name} touches the "
                        f"schedule stream (self.{inner.attr}); appliers may "
                        "only draw from the corruption generator they are "
                        "passed",
                    )


L001 = LintRule(
    rule_id="L001",
    name="rng-discipline",
    summary=(
        "all randomness flows through repro.scheduler.rng (make_rng / "
        "np_generator / np_stream); appliers never consume the schedule stream"
    ),
    hint=(
        "construct generators via repro.scheduler.rng.make_rng / np_generator "
        "/ np_stream and thread them explicitly"
    ),
    check_file=_check_rng_discipline,
)


# ---------------------------------------------------------------------------
# L002 — backend-contract
# ---------------------------------------------------------------------------


def _engine_surface() -> tuple[str, ...]:
    from repro.sim.backends import ENGINE_SURFACE

    return ENGINE_SURFACE


def _driver_surface() -> tuple[str, ...]:
    """The public members every engine inherits from the shared driver."""
    from repro.sim.simulation import _Engine

    return tuple(name for name in vars(_Engine) if not name.startswith("_"))


def _class_surface(node: ast.ClassDef) -> set[str]:
    """Every member name a class visibly defines: methods, properties,
    class-level assignments, ``__slots__`` entries, ``self.X`` targets."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            for inner in ast.walk(item):
                if isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            names.add(target.attr)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__" and isinstance(item, ast.Assign):
                        for entry in ast.walk(item.value):
                            if isinstance(entry, ast.Constant) and isinstance(
                                entry.value, str
                            ):
                                names.add(entry.value)
    return names


def _check_engine_classes(source: SourceFile) -> Iterable[Finding]:
    """Static half: engine-shaped classes carry the full surface.

    A class is engine-shaped when it defines both ``run_batch`` and
    ``predicate_holds`` — the two members nothing but an execution
    engine implements.
    """
    surface = _engine_surface()
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        defined = _class_surface(node)
        if "run_batch" not in defined or "predicate_holds" not in defined:
            continue
        missing = [name for name in surface if name not in defined]
        if missing:
            yield L002.finding(
                source.relpath, node.lineno,
                f"engine class {node.name} is missing backend-surface "
                f"member(s): {', '.join(missing)}",
            )


def _note(message: str) -> Finding:
    return Finding(rule="note", path="", line=0, message=message)


def _supported_probe(entry):
    """A small finite-state protocol instance the backend can run."""
    from repro.sim.sweep import PROTOCOLS, _probe_protocol

    for kind in PROTOCOLS.values():
        probe = _probe_protocol(kind)
        if entry.supports(probe) is None:
            return probe
    return None


def _check_registered_backends(context: ProjectContext) -> Iterable[Finding]:
    """importlib half: construct every registered engine, verify the
    canonical surface and the inherited driver members on the live object
    (so a surface member deleted from any engine — or absent from a
    brand-new registration — fails the gate without the linter naming
    that engine anywhere)."""
    from repro.sim.backends import backend_names, get_backend

    surface = _engine_surface() + _driver_surface()

    for name in backend_names():
        entry = get_backend(name)
        try:
            probe = _supported_probe(entry)
            if probe is None:
                yield _note(
                    f"L002: no registered protocol probes backend '{name}'; "
                    "its surface was not checked"
                )
                continue
            sim = entry.factory(probe, init=None, n=16, seed=0)
        except (ImportError, RuntimeError) as error:
            yield _note(
                f"L002: backend '{name}' could not be constructed for the "
                f"contract check ({error})"
            )
            continue
        missing = [attr for attr in surface if not hasattr(sim, attr)]
        if not missing:
            continue
        path, line = _locate_class(context, type(sim))
        yield L002.finding(
            path, line,
            f"registered backend '{name}' ({type(sim).__name__}) is missing "
            f"engine-surface member(s): {', '.join(missing)}",
        )


def _locate_class(context: ProjectContext, cls: type) -> tuple[str, int]:
    """(path, line) of a class definition, best effort."""
    try:
        source_file = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return "src/repro/sim/backends.py", 1
    if source_file is None:
        return "src/repro/sim/backends.py", 1
    return context.relpath(Path(source_file)), line


L002 = LintRule(
    rule_id="L002",
    name="backend-contract",
    summary=(
        "every execution engine defines the canonical surface "
        "(repro.sim.backends.ENGINE_SURFACE) and inherits the shared driver"
    ),
    hint=(
        "define the engine surface (run_batch, predicate_holds, apply_fault, "
        "metrics, config, n) on the engine class and inherit run, run_until "
        "and the phase clock from the engine driver in repro.sim.simulation"
    ),
    check_file=_check_engine_classes,
    check_project=_check_registered_backends,
)


# ---------------------------------------------------------------------------
# L003 — no-backend-conditionals
# ---------------------------------------------------------------------------

#: The registry module itself (and its thin re-export shim) may mention
#: backend names; everywhere else must dispatch through the registry.
_REGISTRY_MODULE_SUFFIX = "repro/sim/backends.py"


def _backend_names() -> frozenset[str]:
    from repro.sim.backends import backend_names

    return frozenset(backend_names())


def _backendish_identifier(node: ast.AST) -> bool:
    """Does this expression read as a backend/engine selector?"""
    if isinstance(node, ast.Attribute):
        label = node.attr
    elif isinstance(node, ast.Name):
        label = node.id
    else:
        return False
    lowered = label.lower()
    return "backend" in lowered or "engine" in lowered


def _constant_backend_names(node: ast.AST, names: frozenset[str]) -> bool:
    """Is this a backend-name string constant (or a container of them)?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in names
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts:
        return all(
            isinstance(e, ast.Constant)
            and isinstance(e.value, str)
            and e.value in names
            for e in node.elts
        )
    return False


def _check_backend_conditionals(source: SourceFile) -> Iterable[Finding]:
    if source.relpath.endswith(_REGISTRY_MODULE_SUFFIX):
        return
    names = _backend_names()
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        comparators = [node.left, *node.comparators]
        has_name_constant = any(
            _constant_backend_names(c, names) for c in comparators
        )
        has_backend_selector = any(
            _backendish_identifier(c) for c in comparators
        )
        if has_name_constant and has_backend_selector:
            yield L003.finding(
                source.relpath, node.lineno,
                "comparison against a backend name outside the registry "
                "module — dispatch belongs in repro.sim.backends",
            )


L003 = LintRule(
    rule_id="L003",
    name="no-backend-conditionals",
    summary=(
        "no string comparisons against backend names outside "
        "repro.sim.backends (dispatch goes through the registry)"
    ),
    hint=(
        "look the engine up with repro.sim.backends.get_backend and use its "
        "metadata (native_form, supports, batch_cells) instead of comparing "
        "names"
    ),
    check_file=_check_backend_conditionals,
)


# ---------------------------------------------------------------------------
# L004 — transition-purity
# ---------------------------------------------------------------------------

#: Call targets that are I/O in a δ body.
_IO_CALLS = {"print", "open", "input"}


def _check_transition_purity_ast(source: SourceFile) -> Iterable[Finding]:
    """Static half: δ / ``transition_table`` bodies free of global
    mutation and I/O (and, for table builders, of any RNG use — a table
    is a pure function of the protocol's parameters)."""
    for func in _walk_functions(source.tree):
        if func.name not in ("transition", "transition_table"):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield L004.finding(
                    source.relpath, node.lineno,
                    f"{func.name} declares '{kind} {', '.join(node.names)}' — "
                    "transition semantics must be pure",
                )
            elif isinstance(node, ast.Call):
                target = _terminal_name(node.func)
                if isinstance(node.func, ast.Name) and target in _IO_CALLS:
                    yield L004.finding(
                        source.relpath, node.lineno,
                        f"{func.name} performs I/O ({target}) — transition "
                        "semantics must be pure",
                    )
                elif func.name == "transition_table":
                    dotted = _dotted(node.func) or ""
                    if dotted.split(".")[0] in ("random",) or ".random." in f".{dotted}.":
                        yield L004.finding(
                            source.relpath, node.lineno,
                            f"transition_table calls '{dotted}' — dense tables "
                            "must be pure functions of the protocol parameters",
                        )


def _check_transition_tables_build(context: ProjectContext) -> Iterable[Finding]:
    """importlib half: build every registered finite-state protocol's
    dense table through the generic builder, whose poisoned RNG rejects
    any δ that consumes randomness — the former runtime-only check, now
    a lint-time gate."""
    try:
        from repro.sim.array_backend import ArrayBackendError
        from repro.sim.sweep import PROTOCOLS
    except ImportError as error:  # pragma: no cover - broken tree
        yield _note(f"L004: protocol registry unavailable ({error})")
        return
    for kind in PROTOCOLS.values():
        try:
            protocol = kind.build(16, 1)[0]
        except Exception as error:  # pragma: no cover - broken registration
            yield _note(f"L004: protocol '{kind.name}' failed to build ({error})")
            continue
        if protocol.num_states() is None:
            continue
        try:
            protocol.transition_table()
        except ArrayBackendError as error:
            message = str(error)
            if "consumed randomness" not in message:
                yield _note(
                    f"L004: protocol '{kind.name}' table build failed "
                    f"for a non-purity reason ({message})"
                )
                continue
            path, line = _locate_class(context, type(protocol))
            yield L004.finding(
                path, line,
                f"protocol '{kind.name}' has a randomized transition "
                "function but advertises a finite-state encoding: "
                f"{message}",
            )
        except (ImportError, RuntimeError) as error:
            yield _note(
                f"L004: protocol '{kind.name}' table could not be built "
                f"({error})"
            )


L004 = LintRule(
    rule_id="L004",
    name="transition-purity",
    summary=(
        "transition functions compiled into dense tables are pure: no RNG, "
        "no global mutation, no I/O (poisoned-RNG table build runs at lint "
        "time for every registered finite-state protocol)"
    ),
    hint=(
        "derandomize the transition (Appendix B) or drop the finite-state "
        "encoding (num_states() -> None) so the protocol stays object-only"
    ),
    check_file=_check_transition_purity_ast,
    check_project=_check_transition_tables_build,
)


# ---------------------------------------------------------------------------
# L006 — counts-dtype
# ---------------------------------------------------------------------------

#: Narrowing integer dtypes that must not appear in counts arithmetic.
_NARROW_DTYPES = {"int32", "int16", "int8", "intc", "short"}


def _counts_hot_path(source: SourceFile) -> bool:
    lowered = source.basename.lower()
    return "counts" in lowered or "batch" in lowered


def _narrow_dtype_label(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and node.attr in _NARROW_DTYPES:
        return node.attr
    if isinstance(node, ast.Constant) and node.value in _NARROW_DTYPES:
        return str(node.value)
    return None


def _check_counts_dtype(source: SourceFile) -> Iterable[Finding]:
    if not _counts_hot_path(source):
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        # .astype(np.int32) / .astype("int32") — narrowing cast.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                label = _narrow_dtype_label(arg)
                if label:
                    yield L006.finding(
                        source.relpath, node.lineno,
                        f"narrowing cast .astype({label}) in a counts/batch "
                        "hot path — count vectors must stay int64",
                    )
        # np.zeros(..., dtype=np.int32) and friends.
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                label = _narrow_dtype_label(keyword.value)
                if label:
                    yield L006.finding(
                        source.relpath, keyword.value.lineno,
                        f"{label} accumulator in a counts/batch hot path — "
                        "count vectors must stay int64",
                    )


L006 = LintRule(
    rule_id="L006",
    name="counts-dtype",
    summary=(
        "count-vector arithmetic stays int64 in the counts/batch hot paths "
        "(no int32/int16 accumulators or narrowing casts)"
    ),
    hint="allocate and cast counts arrays as int64 (numpy.int64)",
    check_file=_check_counts_dtype,
)


# ---------------------------------------------------------------------------
# L007 — obs-discipline
# ---------------------------------------------------------------------------

#: The one package allowed to read the wall clock directly.
_OBS_PACKAGE_FRAGMENT = "repro/obs/"

#: Clock reads that must flow through repro.obs.  ``time.monotonic`` and
#: ``time.sleep`` stay legal — they are control-flow (lease timeouts,
#: poll intervals), not measurement.
_CLOCK_CALLS = {"time.time", "time.perf_counter", "time.perf_counter_ns"}


def _check_obs_discipline(source: SourceFile) -> Iterable[Finding]:
    if _OBS_PACKAGE_FRAGMENT in source.relpath:
        return
    imports = _ImportMap(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        canonical = imports.canonical(_dotted(node.func))
        if canonical in _CLOCK_CALLS:
            yield L007.finding(
                source.relpath, node.lineno,
                f"direct clock read '{canonical}' outside repro.obs — "
                "timing flows through the blessed repro.obs.perf_counter",
            )
    # Transition semantics never observe themselves: a span or metric in
    # a δ body would put I/O-shaped work on every simulated interaction.
    for func in _walk_functions(source.tree):
        if func.name not in ("transition", "transition_table"):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.canonical(_dotted(node.func)) or ""
            if canonical == "repro.obs" or canonical.startswith("repro.obs."):
                yield L007.finding(
                    source.relpath, node.lineno,
                    f"{func.name} calls '{canonical}' — no tracing or "
                    "metrics inside transition semantics",
                )


L007 = LintRule(
    rule_id="L007",
    name="obs-discipline",
    summary=(
        "wall-clock reads (time.time / time.perf_counter) only inside "
        "repro.obs; no tracing or metrics calls in transition semantics"
    ),
    hint=(
        "import the blessed clock ('from repro.obs import perf_counter') "
        "and keep spans/metrics out of transition / transition_table bodies"
    ),
    check_file=_check_obs_discipline,
)


for _rule in (L001, L002, L003, L004, L006, L007):
    register_rule(_rule)
