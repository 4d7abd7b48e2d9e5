"""Source-level lints for the repo's own invariants.

Five checks, all pure ``ast`` walks (no third-party tooling, so they
run in any environment the simulator runs in):

* **LINT-SPAN-001** — span discipline: a ``tracer.begin``/``open_span``
  whose result is bound to a local name must be closed (``end`` /
  ``end_open``) somewhere in the same function; a begin whose result is
  discarded must be matched by an ``end_open`` in the same function.
  Spans parked on attributes or containers are deferred closes and
  exempt (another method owns the end).
* **LINT-OBS-001** — the observability layer records time, it must
  never advance it: no simulator-mutating calls (``advance``, ``tick``,
  ``schedule``...) anywhere under ``repro/obs``.
* **LINT-REG-001** — register write hooks (signature ``(self, value)``,
  name ``_write*``/``write_*``) must mask ``value`` before storing it
  to an attribute; hardware registers have finite width and the bus
  only guarantees 32 bits.
* **LINT-TYPE-001** — annotation coverage: every function in the
  strictly-typed packages must annotate its parameters and return
  type (the in-repo stand-in for the CI ``mypy --strict`` gate).
* **LINT-ENV-001** — the library reads no environment variable
  (``os.environ``, ``os.getenv``) and imports nothing from ``tests``:
  behaviour is chosen by arguments, and test-local oracles stay out of
  production code.

Run standalone (``python -m repro.lint.astchecks [root]``) or through
``repro lint``; the pytest suite runs it over ``src/repro`` so a
violation fails the build locally too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Sequence

from repro.lint.findings import Finding, Severity, render_findings, sort_findings

#: packages held to full annotation coverage (mypy --strict in CI)
STRICT_PACKAGES = ("axi", "core", "soc", "fpga", "obs", "sched", "power",
                   "verify", "fat32", "mem")

#: methods that advance or mutate simulated time
TIME_MUTATORS = frozenset({
    "advance", "tick", "step", "schedule", "schedule_at", "schedule_in",
    "add_process", "run", "run_until", "elapse",
})

#: ``os`` names that read the process environment
ENV_READERS = frozenset({"environ", "environb", "getenv", "getenvb"})

_BEGIN_METHODS = frozenset({"begin", "begin_span", "open_span"})
_END_METHODS = frozenset({"end", "end_span", "end_open"})


def _is_tracer_call(node: ast.AST, methods: frozenset[str]) -> bool:
    """``<something tracer-ish>.<method>(...)`` for ``method`` in set."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in methods:
        return False
    receiver = func.value
    # accept `tracer.begin(...)` and `<expr>.tracer.begin(...)`
    if isinstance(receiver, ast.Name):
        return "tracer" in receiver.id
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "tracer"
    return False


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's body, not descending into nested functions."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def check_span_pairing(tree: ast.Module, path: str) -> Iterator[Finding]:
    """LINT-SPAN-001: every span begun locally must be closed locally."""
    for func in _functions(tree):
        has_close = {"end": False, "open": False}
        local_spans: List[tuple[str, int]] = []
        bare_begins: List[int] = []
        for node in _own_statements(func):
            if _is_tracer_call(node, _END_METHODS):
                assert isinstance(node, ast.Call)
                assert isinstance(node.func, ast.Attribute)
                if node.func.attr == "end_open":
                    has_close["open"] = True
                has_close["end"] = True
            if isinstance(node, ast.Expr) and _is_tracer_call(node.value,
                                                              _BEGIN_METHODS):
                bare_begins.append(node.value.lineno)
            if isinstance(node, ast.Assign) and _is_tracer_call(node.value,
                                                                _BEGIN_METHODS):
                # attribute / subscript targets are deferred closes
                if all(isinstance(t, ast.Name) for t in node.targets):
                    local_spans.append((node.targets[0].id, node.lineno))
        for name, lineno in local_spans:
            if not has_close["end"]:
                yield Finding(
                    rule_id="LINT-SPAN-001",
                    severity=Severity.ERROR,
                    component=f"{path}:{lineno}",
                    message=(f"span {name!r} is begun in "
                             f"{func.name}() but never ended there"),
                    hint="call tracer.end(span, ...) on every exit path, "
                         "or park the span on an attribute for a deferred "
                         "close",
                )
        for lineno in bare_begins:
            if not has_close["open"]:
                yield Finding(
                    rule_id="LINT-SPAN-001",
                    severity=Severity.ERROR,
                    component=f"{path}:{lineno}",
                    message=(f"span begun in {func.name}() is discarded and "
                             f"the function never calls end_open"),
                    hint="bind the span to a name and end it, or close the "
                         "open span stack with tracer.end_open(...)",
                )


def check_obs_time(tree: ast.Module, path: str) -> Iterator[Finding]:
    """LINT-OBS-001: repro.obs must never advance simulated time."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TIME_MUTATORS):
            yield Finding(
                rule_id="LINT-OBS-001",
                severity=Severity.ERROR,
                component=f"{path}:{node.lineno}",
                message=(f"observability code calls "
                         f"{node.func.attr}(): the obs layer must record "
                         f"time, not advance it"),
                hint="take the timestamp as an argument instead of "
                     "driving the simulator",
            )


def _is_write_hook(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if not (func.name.startswith("_write") or func.name.startswith("write_")):
        return False
    args = func.args
    names = [a.arg for a in args.args]
    return (names[:1] == ["self"] and names[1:] == ["value"]
            and not args.posonlyargs and not args.kwonlyargs
            and args.vararg is None and args.kwarg is None)


def check_register_masks(tree: ast.Module, path: str) -> Iterator[Finding]:
    """LINT-REG-001: write hooks must mask before storing ``value``."""
    for func in _functions(tree):
        if not _is_write_hook(func):
            continue
        for node in _own_statements(func):
            if not isinstance(node, ast.Assign):
                continue
            if not (isinstance(node.value, ast.Name)
                    and node.value.id == "value"):
                continue
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    yield Finding(
                        rule_id="LINT-REG-001",
                        severity=Severity.ERROR,
                        component=f"{path}:{node.lineno}",
                        message=(f"{func.name}() stores the raw bus value "
                                 f"without masking to the field width"),
                        hint="store `value & MASK` (at most 0xFFFF_FFFF); "
                             "hardware registers truncate, models must too",
                    )
                    break


def check_env_and_test_imports(tree: ast.Module, path: str) -> Iterator[Finding]:
    """LINT-ENV-001: no environment reads, no imports from ``tests``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            what = f"reads os.{node.attr}"
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENV_READERS for alias in node.names)):
            what = "imports an environment reader from os"
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").split(".")[0] == "tests"):
            what = f"imports from {node.module}"
        elif (isinstance(node, ast.Import)
              and any(alias.name.split(".")[0] == "tests"
                      for alias in node.names)):
            what = "imports the tests package"
        else:
            continue
        yield Finding(
            rule_id="LINT-ENV-001",
            severity=Severity.ERROR,
            component=f"{path}:{node.lineno}",
            message=f"library code {what}",
            hint="take the choice as an argument instead of an environment "
                 "variable, and keep test-local oracles under tests/",
        )


def _in_strict_package(path: Path, root: Path) -> bool:
    try:
        relative = path.relative_to(root)
    except ValueError:
        return False
    parts = relative.parts
    return len(parts) >= 2 and parts[0] in STRICT_PACKAGES


def check_annotations(tree: ast.Module, path: str) -> Iterator[Finding]:
    """LINT-TYPE-001: full parameter/return annotation coverage."""
    for func in _functions(tree):
        missing: List[str] = []
        args = func.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for index, arg in enumerate(all_args):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"*{star.arg}")
        if func.returns is None:
            missing.append("return")
        if missing:
            yield Finding(
                rule_id="LINT-TYPE-001",
                severity=Severity.ERROR,
                component=f"{path}:{func.lineno}",
                message=(f"{func.name}() is missing annotations: "
                         f"{', '.join(missing)}"),
                hint="annotate every parameter and the return type; this "
                     "package is under the mypy --strict gate",
            )


def check_file(path: Path, *, root: Path | None = None) -> List[Finding]:
    """All AST lints applicable to one source file."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    shown = str(path)
    findings: List[Finding] = []
    findings.extend(check_span_pairing(tree, shown))
    findings.extend(check_register_masks(tree, shown))
    findings.extend(check_env_and_test_imports(tree, shown))
    resolved = path.resolve()
    anchor = (root or _default_root()).resolve()
    relative = None
    try:
        relative = resolved.relative_to(anchor)
    except ValueError:
        pass
    if relative is not None and relative.parts[:1] == ("obs",):
        findings.extend(check_obs_time(tree, shown))
    if relative is not None and _in_strict_package(resolved, anchor):
        findings.extend(check_annotations(tree, shown))
    return findings


def _default_root() -> Path:
    """The ``repro`` package directory the checks anchor to."""
    return Path(__file__).resolve().parent.parent


def run_astchecks(root: Path | None = None) -> List[Finding]:
    """Run every AST lint over the package tree rooted at ``root``."""
    anchor = (root or _default_root()).resolve()
    findings: List[Finding] = []
    for path in sorted(anchor.rglob("*.py")):
        findings.extend(check_file(path, root=anchor))
    return sort_findings(findings)


def main(argv: Sequence[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    root = Path(arguments[0]) if arguments else _default_root()
    findings = run_astchecks(root)
    print(render_findings(findings))
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
