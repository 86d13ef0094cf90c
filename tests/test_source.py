"""Checks on the package source itself."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from continuized.harness import runner
from continuized.harness.presets import get_preset

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _bench_module(name: str):
    """Load ``bench/<name>.py`` without putting ``bench`` on the import path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_assert_statements():
    # invariants must be real checks: asserts vanish under python -O
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_readme_layout_names_exist():
    # each Python name quoted in README's "Library layout" (dotted parts
    # separately, call arguments stripped) must be a word of the source
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    quoted = [re.match(r"[A-Za-z_][\w.]*", tok) for tok in re.findall(r"`([^`]+)`", section)]
    names = {part for m in quoted if m for part in m.group().split(".") if part}
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    missing = sorted(names - set(re.findall(r"\w+", source)))
    assert not missing, missing


def test_bench_trace_targets_resolve():
    # every function the benchmark's tracer wraps must still exist, so that a
    # rename or deletion fails here and not only in the benchmark's own tests
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


# case -> (kind, preset).  The optimize cases cover the constant schedule,
# the 2/t schedule and additive noise.
KERNEL_CASES = {
    "optimize": ("optimize", "appendix-a1-strongly-convex"),
    "optimize-convex": ("optimize", "appendix-a1-convex"),
    "optimize-additive": ("optimize", "appendix-b-additive"),
    "gossip": ("gossip", "appendix-a2-line30"),
    "decentralized": ("decentralized", "decentralized-line10"),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_event_kernel_called_once_per_event(case):
    # the benchmark's traced gate: each simulated event calls the kind's
    # kernel exactly once, counted against the events on the clock streams
    workload = _bench_module("workload")
    kind, preset = KERNEL_CASES[case]
    spec = get_preset(preset).with_overrides(runs=2, horizon=20.0)
    assert spec.kind == kind
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
        runner.run_experiment(spec)
    finally:
        tracer.uninstall()
    events = workload.count_events(spec)
    assert events > 0
    assert tracer.summary()[workload.EVENT_KERNEL[spec.kind]] == events


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_trace_counts_the_events_on_the_clock_streams(case):
    # each run's trace reports the events it applied, which are exactly the
    # events on its clock stream up to the horizon
    workload = _bench_module("workload")
    _, preset = KERNEL_CASES[case]
    spec = get_preset(preset).with_overrides(runs=3, horizon=20.0)
    resolved = runner.resolve(spec)
    events = [resolved.run(i).events for i in range(spec.runs)]
    upto = [workload.count_events(spec.with_overrides(runs=k)) for k in range(1, spec.runs + 1)]
    assert events == [b - a for a, b in zip([0, *upto], upto)]
    assert min(events) > 0


def test_checkpoints_synchronized_once_per_run():
    # the checkpoint layer's traced gate: a run synchronizes all its
    # checkpoints in one stacked call, not one call per checkpoint
    runs = 2
    spec = get_preset("appendix-a2-line30").with_overrides(runs=runs)
    assert len(spec.checkpoints) > 1
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
        runner.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert tracer.summary()["gossip.synchronized_values.calls"] == runs


def test_point_checked_once_per_run(monkeypatch):
    # a run checks x0 once and binds its gradient oracle once; its events
    # draw gradients at rows of its own pair, whose shape is already known,
    # so no event re-checks the point
    from continuized import problems

    runs, calls = 2, [0]
    check_point = problems.check_point

    def counted(*args):
        calls[0] += 1
        return check_point(*args)

    spec = get_preset("appendix-a1-strongly-convex").with_overrides(runs=runs)
    monkeypatch.setattr(problems, "check_point", counted)
    runset = runner.run_experiment(spec)
    assert runset.values["gap"].shape == (runs, len(spec.checkpoints))
    assert calls[0] <= runs


def test_lyapunov_coefficients_built_once_per_ensemble():
    # the certificate's coefficients depend only on the schedule and the grid
    # that every run shares: an ensemble builds them once per checkpoint,
    # not once per checkpoint and run
    spec = get_preset("appendix-a1-convex").with_overrides(runs=3)
    assert len(spec.checkpoints) > 1
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
        runner.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert tracer.summary()["schedules.lyapunov_coeffs.calls"] == len(spec.checkpoints)


# A fresh interpreter imports the package, decomposes a 225-node Laplacian
# (the largest BLAS call of any preset) and then sleeps: it prints the
# process's CPU time during the sleep, which counts every thread, and the
# BLAS variables it sees.
IDLE_PROBE = """
import json, os, time
import continuized
continuized.grid_graph(15, 15).spectrum
start = time.process_time()
time.sleep(0.3)
print(json.dumps({"idle_cpu_s": time.process_time() - start,
                  "env": {k: os.environ.get(k) for k in %r}}))
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return False
    return "openblas" in json.dumps(blas).lower()


def _idle_probe(**env) -> dict:
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child.get("PYTHONPATH")]))
    names = ("OPENBLAS_THREAD_TIMEOUT", *BLAS_THREAD_VARS)
    proc = subprocess.run(
        [sys.executable, "-c", IDLE_PROBE % (names,)], env={**child, **env},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_idle_blas_workers_sleep_instead_of_spinning():
    # OpenBLAS workers spin ~0.1 s after start-up and after each threaded
    # call unless OPENBLAS_THREAD_TIMEOUT is set before numpy loads; the
    # package sets it, and no thread count, so the threaded eigh keeps its bits
    probe = _idle_probe()
    assert probe["idle_cpu_s"] < 0.03, probe
    assert probe["env"]["OPENBLAS_THREAD_TIMEOUT"] == "4"
    assert {k: probe["env"][k] for k in BLAS_THREAD_VARS} == {
        k: os.environ.get(k) for k in BLAS_THREAD_VARS
    }


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_preset_blas_thread_timeout_kept():
    assert _idle_probe(OPENBLAS_THREAD_TIMEOUT="6")["env"]["OPENBLAS_THREAD_TIMEOUT"] == "6"


def test_no_unused_imports():
    # no linter ships with the project: every name a module imports must be
    # read in it, unless its own line marks a re-export with "noqa: F401"
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text, str(path))
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(SRC)}:{alias.lineno} {name}")
    assert not unused, unused



# Public definitions with no caller in the package: the discrete twin
# ``run_three_sequence`` is the oracle of criterion 4, ``load_csv`` is the
# documented inverse of ``emit_csv``, and ``gradient`` is the exact gradient
# exported beside ``stochastic_gradient``.
UNCALLED_API = {"run_three_sequence", "load_csv", "gradient"}


def test_every_definition_has_a_source_caller():
    # every module-level function and class of the package is named in some
    # non-__init__ source module outside its own definition
    statements = [
        (path, stmt, {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        })
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    uncalled = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in UNCALLED_API
        and not any(node.name in names for _, stmt, names in statements if stmt is not node)
    ]
    assert not uncalled, uncalled


# Options no package code sets: ``cli.main(argv)`` is the CLI's in-process
# test seam; the console script calls it with no argument.
UNSET_OPTIONS = {("main", "argv")}


def _options(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(index among the positional arguments a call passes, or None for a
    keyword-only one; name) of each parameter of ``fn`` with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method else 0  # self or cls is bound, not passed
    found = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _setters(tree: ast.Module, defined: set[str]):
    """(function name, positional count, keyword names) per call in ``tree``,
    counting calls through ``partial(f, ...)`` and through a name bound to
    one; a count of None (``*args``) sets every positional option, a keyword
    set of None (``**kwargs``) every option.  A function passed as a value
    may be called with anything, so it yields (name, None, None)."""
    bound = {}  # name -> the partial(f, ...) call bound to it
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call) and _name(node.value.func) == "partial"):
            bound[node.targets[0].id] = node.value

    def shape(call, skip=0):
        args = call.args[skip:]
        count = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keys = {k.arg for k in call.keywords}
        return count, None if None in keys else keys

    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called.add(id(node.func))
        name = _name(node.func)
        if name == "partial" and node.args:
            called.add(id(node.args[0]))
            yield (_name(node.args[0]), *shape(node, skip=1))
        elif isinstance(node.func, ast.Name) and name in bound:
            inner = bound[name]
            (pcount, pkeys), (count, keys) = shape(inner, skip=1), shape(node)
            yield (
                _name(inner.args[0]),
                None if None in (pcount, count) else pcount + count,
                None if None in (pkeys, keys) else pkeys | keys,
            )
        else:
            yield (name, *shape(node))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and id(node) not in called and _name(node) in defined):
            yield (_name(node), None, None)


def test_every_option_is_set_by_a_source_caller():
    # ROADMAP's options rule: a parameter with a default is one some package
    # code sets, by keyword or by position; an option only tests set is dead
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    functions = []  # (path, def, is a method)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    decorators = {_name(d) for d in child.decorator_list}
                    method = isinstance(node, ast.ClassDef) and "staticmethod" not in decorators
                    functions.append((path, child, method))
    defined = {fn.name for _, fn, _ in functions}
    setters = [s for tree in trees.values() for s in _setters(tree, defined)]
    unset = [
        f"{path.relative_to(SRC)}:{fn.lineno} {fn.name}({option})"
        for path, fn, method in functions
        if fn.name not in UNCALLED_API
        for index, option in _options(fn, method)
        if (fn.name, option) not in UNSET_OPTIONS
        and not any(
            name == fn.name and (
                keys is None or option in keys
                or (index is not None and (count is None or 0 <= index < count))
            )
            for name, count, keys in setters
        )
    ]
    assert not unset, unset
