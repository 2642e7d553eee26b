#!/usr/bin/env python3
"""Lint: public-API boundaries and deprecated-kwarg hygiene.

Eleven rules, all AST-based (comments and strings never false-positive):

1. **Examples are facade-only.** Files under ``examples/`` may import from
   the ``repro`` namespace only via ``repro.api`` (``from repro.api import
   ...``, ``from repro import api``, ``import repro.api``).  Everything
   the walkthroughs need is re-exported there; reaching into submodules
   from user-facing code defeats the stability contract.

2. **No deprecated execution kwargs inside the library.** ``src/repro``
   must spell backend selection ``execution=ExecutionConfig(...)``; the
   legacy kwargs exist only as shims for downstream callers:

   * ``backend=`` in calls to ``FaultSimulator`` / ``ObservabilityAnalyzer``
     / ``LabelConfig`` / ``observability_counts``;
   * ``fault_sim_backend=`` in calls to ``AtpgConfig`` (or anything else).

   The defining modules themselves (where the shims live) are exempt.

3. **Process parallelism lives in the execution fabric.** ``src/repro``
   must not import ``multiprocessing`` or ``concurrent`` (futures/pools)
   outside ``src/repro/exec/`` — engines describe shard tasks and submit
   them to :mod:`repro.exec`; hand-rolled pools are exactly the drift this
   fabric exists to end.

4. **Raw sockets live in the execution fabric too.** ``src/repro`` must
   not import ``socket``, ``socketserver``, ``selectors`` or ``ssl``
   outside ``src/repro/exec/`` — the wire protocol, heartbeats and the
   supervision ladder are :mod:`repro.exec`'s job; a second ad-hoc
   server would fork the recovery semantics.  (:mod:`repro.serve` builds on
   ``http.server``, which owns its sockets internally.)

5. **Metric families are named, owned, and lazily registered.** Every
   literal name passed to ``counter()`` / ``gauge()`` / ``histogram()``
   in ``src/repro`` must match ``repro_[a-z][a-z0-9_]*`` (the scrape
   namespace ``GET /metrics`` promises), must be created inside a
   function (a pre-registration helper like ``ensure_exec_metrics`` —
   importing a module must never mutate the global registry), and must
   be created from exactly one module (two owners for one family is how
   label sets silently diverge).  Computed names — the
   ``repro_fleet_*`` re-registration in :mod:`repro.obs.remote` — are
   validated at runtime by the registry itself.

6. **Scripts and examples talk to serve through ServeClient.** Files
   under ``examples/`` and ``scripts/`` may not import ``urllib`` or
   ``http`` (``http.client``) — hand-rolled HTTP against the scoring
   daemon bypasses the versioned ``/v1`` contract, the 429 retry
   policy, and deadline propagation that
   :class:`repro.serve.client.ServeClient` exists to own.  The one
   exemption is ``scripts/check_metrics_scrape.py``, whose entire job
   is validating the raw Prometheus exposition bytes.  (Raw ``socket``
   probes of protocol corners — idle keep-alive, the deprecated alias —
   remain allowed: the lint targets request plumbing, not wire tests.)

7. **Equation (1) is written once.** Under ``src/repro``, attribute
   reads of ``.w_pr`` / ``.w_su`` / ``.fc_weights`` /
   ``.encoder_weights`` — the only way to compute a GCN layer or the
   classifier head — are confined to an explicit allowlist: the kernel
   (``layer_forward`` / ``head_forward`` in ``core/inference.py``), the
   autograd definitions (``core/model.py``, ``core/aggregators.py``),
   the per-node recursive Fig.-10 baseline (``core/embedding.py``), and
   three modules that touch weights without computing Equation (1) with
   them (``serve/models.py`` publishes them to shared memory,
   ``graph/sharded.py`` reads layer widths, ``experiments/ablations.py``
   freezes ``model.aggregator.w_pr``).  Every inference path — whole
   graph, shard round, block-diagonal batch, the OPI flow's row-subset
   patch (``flow/scorer.py``, deliberately not on the list), dense
   ablation — calls the kernel, which is what keeps their float64 logits
   bit-identical; another transcription of the chain fails here.  So does
   a second copy of what the kernel is made of: outside
   ``core/inference.py`` no module may define a function named like one
   of its parts (``row_stable_matmul``, ``_narrow_matmul``, ``_aggregate``,
   ``_by_blocks``, ``layer_forward``, ``head_forward``), mention
   ``BLOCK_ROWS`` (a block loop of its own), or import scipy's
   ``_sparsetools`` (the windowed SpMM) — the sequential-sum product and
   the row-block loop exist once.

8. **The flow's predictor contract is declared once.** The ``Predictor``
   alias (``GraphData -> labels``) and the stateful ``Scorer`` protocol
   live in ``src/repro/flow/scorer.py``; any other module under
   ``src/repro`` that assigns ``Predictor`` or defines a class named
   ``Scorer`` has re-declared the contract instead of importing it —
   which is how the OPI and CPI flows once carried three copies.

9. **The supervision ladder is pure.** ``src/repro/exec/scheduler.py``
   imports none of ``time``, ``socket``, ``threading``,
   ``multiprocessing``, ``concurrent``, ``pickle``, ``os``: the ladder
   takes its clock as an argument and emits actions, which is what lets
   ``tests/exec/test_scheduler.py`` run it on a virtual clock.  A clock
   read or a socket in there is a second transport growing back.

10. **Wire data is unpickled in one place.** Under ``src/repro/exec/``
    a reference to ``pickle.loads`` / ``pickle.load`` (or importing
    either by name) may appear only in ``net.py``'s ``unpickle``, which
    the frame codec reaches after the HMAC tag verified; every nested
    blob goes through it.  A second call site is a way around the check.

11. **The netlist's representation has one owner.** Under ``src/repro``
    no module but ``circuit/netlist.py`` may touch ``._types`` /
    ``._fanins`` / ``._fanouts`` / ``._names`` / ``._name_to_id``: a
    loaded :class:`Netlist` is arrays until one of those is asked for,
    and a module that pops or patches them by hand skips the version
    bump that guards every memoised view.  Callers use the accessors and
    mutators (``remove_last_cell``, ``add_flop``, ``given_name``, ...).

Exit status: 0 when clean, 1 with one ``path:line`` diagnostic per
violation otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: callables whose ``backend=`` kwarg is deprecated (constructor shims);
#: per-call overrides like ``detection_masks(..., backend=...)`` stay fine
_BACKEND_SHIMMED = {
    "FaultSimulator",
    "ObservabilityAnalyzer",
    "LabelConfig",
    "observability_counts",
}
#: modules that define the shims and may mention the legacy spellings
_SHIM_MODULES = {
    PACKAGE / "config.py",
    PACKAGE / "atpg" / "fault_sim.py",
    PACKAGE / "atpg" / "observability.py",
    PACKAGE / "atpg" / "generate.py",
    PACKAGE / "testability" / "labels.py",
}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def example_import_violations(path: Path) -> list[tuple[int, str]]:
    """Non-facade ``repro`` imports in an example file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")
                if top[0] == "repro" and alias.name != "repro.api":
                    bad.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if node.module == "repro.api":
                continue
            if node.module == "repro" and all(
                alias.name == "api" for alias in node.names
            ):
                continue
            bad.append((node.lineno, f"from {node.module} import ..."))
    return bad


def deprecated_kwarg_violations(path: Path) -> list[tuple[int, str]]:
    """Legacy execution-kwarg uses in a library file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        for kw in node.keywords:
            if kw.arg == "fault_sim_backend":
                bad.append((node.lineno, f"{name}(fault_sim_backend=...)"))
            elif kw.arg == "backend" and name in _BACKEND_SHIMMED:
                bad.append((node.lineno, f"{name}(backend=...)"))
    return bad


#: the one package allowed to touch process pools / shared memory
_EXEC_PACKAGE = PACKAGE / "exec"
#: modules whose import (top-level or function-local) is fabric-only
_POOL_MODULES = ("multiprocessing", "concurrent")


def _banned_imports(path: Path, modules: tuple[str, ...]) -> list[tuple[int, str]]:
    """Imports (top-level or function-local) of any of ``modules``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in modules:
                    bad.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in modules:
                bad.append((node.lineno, f"from {node.module} import ..."))
    return bad


def pool_import_violations(path: Path) -> list[tuple[int, str]]:
    """Direct process-parallelism imports outside ``repro.exec``."""
    return _banned_imports(path, _POOL_MODULES)


#: modules whose import marks hand-rolled network plumbing
_SOCKET_MODULES = ("socket", "socketserver", "selectors", "ssl")


def socket_import_violations(path: Path) -> list[tuple[int, str]]:
    """Raw socket-layer imports outside ``repro.exec``."""
    return _banned_imports(path, _SOCKET_MODULES)


#: registry factory methods whose first argument names a metric family
_METRIC_FACTORIES = {"counter", "gauge", "histogram"}
#: the namespace contract for every scrape-exposed family
_METRIC_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")
#: defines the factories themselves (docstrings mention names freely)
_METRICS_MODULE = PACKAGE / "obs" / "metrics.py"


def metric_registrations(path: Path) -> list[tuple[int, str, bool]]:
    """``(lineno, name, module_level)`` for literal-named family creation."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_FACTORIES
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            found.append((node.lineno, node.args[0].value, not in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def metric_name_violations() -> list[str]:
    """Rule 5: prefix/pattern, lazy registration, one owner per family."""
    violations: list[str] = []
    owners: dict[str, dict[Path, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == _METRICS_MODULE:
            continue
        for lineno, name, module_level in metric_registrations(path):
            where = f"{path.relative_to(ROOT)}:{lineno}"
            if not _METRIC_NAME_RE.match(name):
                violations.append(
                    f"{where}: metric {name!r} must match "
                    "repro_[a-z][a-z0-9_]* (scrape-namespace contract)"
                )
            if module_level:
                violations.append(
                    f"{where}: metric {name!r} created at import time "
                    "(wrap it in a pre-registration helper)"
                )
            owners.setdefault(name, {}).setdefault(path, lineno)
    for name, paths in sorted(owners.items()):
        if len(paths) > 1:
            sites = ", ".join(
                f"{p.relative_to(ROOT)}:{lineno}"
                for p, lineno in sorted(paths.items())
            )
            violations.append(
                f"metric {name!r} created from multiple modules ({sites}); "
                "one module must own each family"
            )
    return violations


#: modules whose import marks hand-rolled HTTP in user-facing code
_HTTP_MODULES = ("urllib", "http")
SCRIPTS = ROOT / "scripts"
#: validates the raw Prometheus exposition format — raw HTTP is the point
_HTTP_EXEMPT = {SCRIPTS / "check_metrics_scrape.py"}


def http_import_violations(path: Path) -> list[tuple[int, str]]:
    """Hand-rolled HTTP imports in a script/example file."""
    return _banned_imports(path, _HTTP_MODULES)


#: the ``GCNWeights`` / aggregator fields Equation (1) and the head read
_WEIGHT_FIELDS = {"w_pr", "w_su", "fc_weights", "encoder_weights"}
#: module -> functions allowed to read them (``None``: anywhere in it)
_WEIGHT_READERS: dict[Path, set[str] | None] = {
    PACKAGE / "core" / "inference.py": {
        "layer_forward", "head_forward", "_head_rows",
    },
    PACKAGE / "core" / "model.py": None,
    PACKAGE / "core" / "aggregators.py": None,
    PACKAGE / "core" / "embedding.py": None,
    PACKAGE / "serve" / "models.py": None,
    PACKAGE / "graph" / "sharded.py": None,
    PACKAGE / "experiments" / "ablations.py": None,
}


def weight_read_violations(path: Path) -> list[tuple[int, str]]:
    """Reads of the layer/head weight fields outside the allowlist."""
    allowed = _WEIGHT_READERS.get(path, set())
    if allowed is None:
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad: list[tuple[int, str]] = []

    def visit(node: ast.AST, exempt: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or node.name in allowed
        if (
            not exempt
            and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in _WEIGHT_FIELDS
        ):
            bad.append((node.lineno, f".{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(tree, False)
    return bad


#: the one module that holds the row-blocked kernel and its parts
_KERNEL_MODULE = PACKAGE / "core" / "inference.py"
_KERNEL_PARTS = {
    "row_stable_matmul", "_narrow_matmul", "_aggregate", "_by_blocks",
    "layer_forward", "head_forward",
}


def kernel_copy_violations(path: Path) -> list[tuple[int, str]]:
    """A kernel part defined, ``BLOCK_ROWS`` mentioned or scipy's
    ``_sparsetools`` imported in a module other than the kernel's."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _KERNEL_PARTS:
                bad.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name == "BLOCK_ROWS":
                bad.append((node.lineno, "BLOCK_ROWS"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{m}" for m in modules]
            if any("_sparsetools" in m.split(".") for m in modules):
                bad.append((node.lineno, "import of scipy.sparse._sparsetools"))
    return bad


#: the one module that declares the flows' predictor contract
_CONTRACT_MODULE = PACKAGE / "flow" / "scorer.py"
_CONTRACT_NAMES = {"Predictor", "Scorer"}


def contract_declarations(path: Path) -> list[tuple[int, str]]:
    """Assignments to / class definitions of the contract names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in _CONTRACT_NAMES]
    return found


def contract_violations() -> list[str]:
    """Rule 8: exactly one declaration of each name, in the contract module."""
    violations = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == _CONTRACT_MODULE:
            continue
        for lineno, name in contract_declarations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {name} declared outside "
                "repro.flow.scorer (import it from there)"
            )
    declared = sorted(name for _, name in contract_declarations(_CONTRACT_MODULE))
    if declared != sorted(_CONTRACT_NAMES):
        violations.append(
            f"{_CONTRACT_MODULE.relative_to(ROOT)}: expected one declaration "
            f"each of {sorted(_CONTRACT_NAMES)}, found {declared}"
        )
    return violations


#: what the pure scheduler may not import (rule 9)
_SCHEDULER = _EXEC_PACKAGE / "scheduler.py"
_IMPURE_MODULES = (
    "time", "socket", "threading", "multiprocessing", "concurrent", "pickle",
    "os",
)


def impure_import_violations(path: Path) -> list[tuple[int, str]]:
    """Clock / I/O / process imports in the scheduler module."""
    return _banned_imports(path, _IMPURE_MODULES)


#: the frame codec, and the one function in it that may load a pickle
_CODEC = _EXEC_PACKAGE / "net.py"
_UNPICKLER = "unpickle"
_PICKLE_LOADERS = {"loads", "load", "Unpickler"}


def pickle_load_violations(path: Path, codec: bool) -> list[tuple[int, str]]:
    """``pickle`` load entry points referenced outside ``net.unpickle``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad: list[tuple[int, str]] = []

    def visit(node: ast.AST, exempt: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or (codec and node.name == _UNPICKLER)
        if (
            not exempt
            and isinstance(node, ast.Attribute)
            and node.attr in _PICKLE_LOADERS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("pickle", "_pickle", "cPickle")
        ):
            bad.append((node.lineno, f"pickle.{node.attr}"))
        if isinstance(node, ast.ImportFrom) and node.module in ("pickle", "_pickle"):
            bad.extend(
                (node.lineno, f"from pickle import {alias.name}")
                for alias in node.names
                if alias.name in _PICKLE_LOADERS
            )
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(tree, False)
    return bad


#: the one module that owns the netlist's per-cell containers (rule 11)
_NETLIST_MODULE = PACKAGE / "circuit" / "netlist.py"
_NETLIST_PRIVATE = {"_types", "_fanins", "_fanouts", "_names", "_name_to_id"}


def netlist_private_violations(path: Path) -> list[tuple[int, str]]:
    """Reads or writes of the netlist's per-cell containers."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, f".{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _NETLIST_PRIVATE
    ]


def main() -> int:
    violations: list[str] = []
    for path in sorted(EXAMPLES.glob("*.py")):
        for lineno, what in example_import_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} "
                "(examples must import through repro.api)"
            )
    for path in sorted([*EXAMPLES.glob("*.py"), *SCRIPTS.glob("*.py")]):
        if path in _HTTP_EXEMPT:
            continue
        for lineno, what in http_import_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} "
                "(scripts/examples must talk to serve via "
                "repro.api.ServeClient)"
            )
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in _SHIM_MODULES:
            continue
        for lineno, what in deprecated_kwarg_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} "
                "(library code must pass execution=ExecutionConfig(...))"
            )
    for path in sorted(PACKAGE.rglob("*.py")):
        if _EXEC_PACKAGE in path.parents:
            continue
        for lineno, what in pool_import_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} "
                "(process pools / shared memory live in repro.exec)"
            )
        for lineno, what in socket_import_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} "
                "(raw socket code lives in repro.exec.net / coordinator)"
            )
    for path in sorted(PACKAGE.rglob("*.py")):
        for lineno, what in weight_read_violations(path):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} read outside the "
                "layer kernel (call repro.core.inference.layer_forward / "
                "head_forward; Equation (1) is written once)"
            )
        if path != _KERNEL_MODULE:
            for lineno, what in kernel_copy_violations(path):
                violations.append(
                    f"{path.relative_to(ROOT)}:{lineno}: {what} outside "
                    "core/inference.py (the narrow product and the row-block "
                    "loop are written once)"
                )
        if path != _NETLIST_MODULE:
            for lineno, what in netlist_private_violations(path):
                violations.append(
                    f"{path.relative_to(ROOT)}:{lineno}: {what} outside "
                    "circuit/netlist.py (use the Netlist accessors and "
                    "mutators; the per-cell lists have one owner)"
                )
    for lineno, what in impure_import_violations(_SCHEDULER):
        violations.append(
            f"{_SCHEDULER.relative_to(ROOT)}:{lineno}: {what} (the scheduler "
            "is pure: time arrives as an argument, I/O belongs to the driver)"
        )
    for path in sorted(_EXEC_PACKAGE.glob("*.py")):
        for lineno, what in pickle_load_violations(path, codec=path == _CODEC):
            violations.append(
                f"{path.relative_to(ROOT)}:{lineno}: {what} (wire data is "
                "unpickled only by repro.exec.net.unpickle, after the tag check)"
            )
    violations.extend(metric_name_violations())
    violations.extend(contract_violations())
    if violations:
        print("API boundary violations:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(
        "examples are facade-only; no deprecated execution kwargs in "
        "src/repro; process pools and raw sockets confined to repro.exec; "
        "metric families repro_-prefixed, lazily registered, singly owned; "
        "scripts/examples speak to serve only via ServeClient; "
        "layer/head weights read only by the Equation (1) kernel; "
        "Predictor/Scorer declared once, in repro.flow.scorer; "
        "the exec scheduler imports no clock or I/O; "
        "repro.exec unpickles only in net.unpickle; "
        "Netlist's per-cell lists touched only by circuit/netlist.py"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
