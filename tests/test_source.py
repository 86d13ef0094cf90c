"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from continuized import dynamics, gossip, graphs, problems, schedules
from continuized.dynamics import FLOAT_PAIR_MAX_DIM
from continuized.harness import cli, config, runner
from continuized.harness.presets import get_preset, preset_names
from continuized.records import Record

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


def test_checkpoint_protocol_stays_in_trace():
    # the event loop and the group cap are trace's: an engine module hands
    # trace a plan, so no other module names either
    named = [
        f"{path.relative_to(SRC)} {name}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "trace.py"
        for name in ("_groups", "GROUP_FLOATS")
        if re.search(rf"\b{name}\b", path.read_text())
    ]
    assert not named, named


def test_each_run_has_one_loop():
    # trace runs a run's events and captures its checkpoints in one loop,
    # inside _groups: no separate event loop, no function built per run
    tree = ast.parse((SRC / "continuized" / "trace.py").read_text())
    top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_groups" in top and "run_events" not in top
    (groups,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_groups"]
    inner = [node.name for node in ast.walk(groups)
             if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not groups]
    assert not inner, inner


def test_run_kinds_and_baselines_are_spelled_once():
    # the kinds that produce a run set and the deterministic baselines are
    # config's tuples: no other module spells two of them in one display
    owned = {"RUN_KINDS": {"optimize", "gossip", "decentralized"},
             "BASELINE_METHODS": {"nesterov", "gd"}}
    spelled = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        for name, members in owned.items()
        if len(members & {e.value for e in node.elts if isinstance(e, ast.Constant)}) >= 2
    ]
    assert not spelled, spelled
    assert {name: set(getattr(config, name)) for name in owned} == owned
    # and the runner does not name the one non-baseline method to find them
    runner_source = (SRC / "continuized" / "harness" / "runner.py").read_text()
    assert '"continuized"' not in runner_source


def _sqrt_calls(tree) -> int:
    return sum(isinstance(node, ast.Call) and _name(node.func) == "sqrt"
               for node in ast.walk(tree))


def _function(path: Path, name: str) -> ast.FunctionDef:
    (fn,) = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def test_continuized_rates_are_read_from_the_schedule():
    # c = sqrt(m / (G K)) and gamma' = 1 / sqrt(m G K) are the schedule's:
    # gossip's theta_ARG and z-step and the Nesterov baseline's weights read
    # them, so neither gossip, graphs nor run_nesterov takes a square root
    package = SRC / "continuized"
    trees = {name: ast.parse((package / f"{name}.py").read_text())
             for name in ("gossip", "graphs")}
    trees["run_nesterov"] = _function(package / "dynamics.py", "run_nesterov")
    assert {name: _sqrt_calls(tree) for name, tree in trees.items()} == dict.fromkeys(trees, 0)
    # the one root left in theory_bounds is the additive plateau
    # sigma^2 / sqrt(mu L), which rounds unlike sigma^2 * gamma'
    assert _sqrt_calls(_function(package / "harness" / "runner.py", "theory_bounds")) == 1


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


def test_readme_config_files_names_every_key():
    # README's "Config files" names each section, variant key, variant and
    # key of the one key rule, so the docs cannot drift from the rule
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    names = set()
    for key, _, variants in config.SECTIONS.values():
        names |= {key, *variants, *(k for keys in variants.values() for k in keys)} - {None}
    missing = sorted(names - set(re.findall(r"[\w-]+", section)))
    missing += [f"[{name}]" for name in config.SECTIONS if f"[{name}]" not in section]
    assert not missing, missing


def test_each_variant_list_has_one_owner():
    # the parser reads the clock, noise, gossip and topology tables of the
    # modules that build those variants, and restates none of them
    assert config.CLOCKS is schedules.CLOCKS
    assert config.SECTIONS["noise"][2] is problems.NOISE_FIELDS
    assert config.GOSSIP_ALGOS is gossip.GOSSIP_ALGOS
    assert list(config.SECTIONS["gossip"][2]) == list(gossip.GOSSIP_ALGOS)
    # the default gossip algo is spelled once: the config's default and
    # GossipParams.from_cache's read GOSSIP_ALGOS[0]
    gossip_tree = ast.parse((SRC / "continuized" / "gossip.py").read_text())
    (from_cache,) = [node for node in ast.walk(gossip_tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "from_cache"]
    assert ast.unparse(from_cache.args.defaults[-1]) == "GOSSIP_ALGOS[0]"
    config_source = (SRC / "continuized" / "harness" / "config.py").read_text()
    assert '"gossip": ("algo", GOSSIP_ALGOS[0],' in config_source
    assert config.SECTIONS["graph"][2] is graphs.TOPOLOGY_FIELDS
    assert set(graphs.TOPOLOGY_FIELDS) == set(graphs.TOPOLOGIES)
    assert set(cli.GRAPH_KEYS) == {"topology", "nodes", "rows", "cols"}
    # build_graph dispatches through the table: it names no topology
    tree = ast.parse((SRC / "continuized" / "graphs.py").read_text())
    (build,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "build_graph"]
    named = [node.value for node in ast.walk(build)
             if isinstance(node, ast.Constant) and node.value in graphs.TOPOLOGIES]
    assert not named, named
    # the eigenvalue tolerance of every eigh is set in one module
    owners = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_EIG_REL_TOL" for t in node.targets)
    ]
    assert owners == ["continuized/problems.py"]


def test_the_value_rule_of_records_has_one_owner():
    # records.py alone makes arrays read-only and defines equality and
    # hashing: no other package module calls setflags, assigns
    # flags.writeable or defines __eq__ or __hash__
    owner = SRC / "continuized" / "records.py"
    stated = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path != owner
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("setflags", "writeable")
        or isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
        or isinstance(node, ast.Name) and node.id in ("__eq__", "__hash__")
    ]
    assert not stated, stated
    # and every package dataclass whose fields can hold an array is a Record:
    # an annotation naming an array, Any or a class that holds one
    modules = [
        importlib.import_module(".".join(path.relative_to(SRC).with_suffix("").parts))
        for path in sorted(SRC.rglob("*.py")) if path.stem not in ("__init__", "__main__")
    ]
    classes = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__.startswith("continuized.")}
    holding = {"Array", "ndarray", "Any"}
    while more := {cls.__name__ for cls in classes if cls.__name__ not in holding and any(
            holding & set(re.findall(r"\w+", str(hint)))
            for hint in vars(cls).get("__annotations__", {}).values())}:
        holding |= more
    records = [cls for cls in classes if dataclasses.is_dataclass(cls) and cls.__name__ in holding]
    assert not [cls.__name__ for cls in records if not issubclass(cls, Record)]
    assert {"Graph", "QuadraticProblem", "Trace", "RunSet", "ExperimentSpec"} <= {
        cls.__name__ for cls in records}


def _attributes_written(node, scope=""):
    """(enclosing definition, target) of each attribute that ``node``
    assigns or deletes, the definition as a dotted path of names."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}".lstrip(".") if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del)):
            yield inner, ast.unparse(child)
        yield from _attributes_written(child, inner)


def test_records_are_built_whole():
    # every record is frozen: no class statement passes its base a keyword,
    # a spec, a run set and a trace are each built in one call, and the only
    # attributes package code writes are read_only's flag and the
    # violations of the two error classes
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    keywords = [f"{path}:{node.lineno} {node.name}" for path, tree in trees.items()
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.keywords]
    assert not keywords, keywords
    written = {(path, *target) for path, tree in trees.items()
               for target in _attributes_written(tree)}
    assert written == {
        ("continuized/records.py", "read_only", "array.flags.writeable"),
        ("continuized/graphs.py", "GraphError.__init__", "self.violations"),
        ("continuized/harness/config.py", "ConfigError.__init__", "self.violations"),
    }
    spec = get_preset("appendix-a1-strongly-convex")
    runset = runner.run_experiment(spec.with_overrides(runs=2))
    trace = dynamics.run_nesterov(spec.problem, "convex", 2)
    for record, name, value in ((spec, "runs", 5), (runset, "bounds", {}), (trace, "events", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"field {name!r}"):
            setattr(record, name, value)


def test_weighted_draws_have_one_owner():
    # problems.WeightedDraw alone draws an index from running weight sums:
    # outside problems every cumsum sums waits and every searchsorted
    # searches event times, no module clamps a pick to the last index (the
    # record's search bounds end in inf), and the names of the draws it
    # replaced stay gone
    gone = ("pick_edges", "pick_table", "cum_probs", "cum_weights")
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text, where = path.read_text(), path.relative_to(SRC)
        found += [f"{where} {name}" for name in gone if re.search(rf"\b{name}\b", text)]
        for node in ast.walk(ast.parse(text, str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name, first = _name(node.func), ast.unparse(node.args[0])
            if (name == "cumsum" and first != "waits" or name == "searchsorted" and first != "times"
                    ) and path.name != "problems.py":
                found.append(f"{where}:{node.lineno} {name}({first})")
            if name in ("minimum", "clip") and any(
                    isinstance(a, ast.BinOp) and isinstance(a.op, ast.Sub)
                    and ast.unparse(a.right) == "1" for a in node.args):
                found.append(f"{where}:{node.lineno} {ast.unparse(node)}")
    assert not found, found
    # and both samplers pick through the record
    for module, sampler in ((gossip, "sample_event_stream"), (problems, "noise_draws")):
        calls = {_name(node.func) for node in ast.walk(_function(Path(module.__file__), sampler))
                 if isinstance(node, ast.Call)}
        assert "pick" in calls, sampler


def test_checkpoint_mix_has_one_owner():
    # dynamics.checkpoint_gaps alone subtracts captured clocks from a grid
    # (g[:, None] - clocks) and dynamics.keep_captured alone restores the
    # captured bits of the entries at their checkpoint: no other function
    # copies by mask (copyto, putmask) or stores through a mask built by ==
    owners = {"checkpoint_gaps", "keep_captured"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree, where = ast.parse(path.read_text(), str(path)), path.relative_to(SRC)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name in owners and path.stem == "dynamics":
                continue
            nodes = list(ast.walk(fn))
            masks = {target.id for node in nodes if isinstance(node, ast.Assign)
                     and any(isinstance(c, ast.Compare) and isinstance(c.ops[0], ast.Eq)
                             for c in ast.walk(node.value))
                     for target in node.targets if isinstance(target, ast.Name)}
            for node in nodes:
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and ast.unparse(node.left).endswith("[:, None]")
                        or isinstance(node, ast.Call) and _name(node.func) in ("copyto", "putmask")
                        or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                        and ast.unparse(node.slice) in masks):
                    found.append(f"{where}:{node.lineno} {fn.name}: {ast.unparse(node)}")
    assert not found, found
    # both finishers call the two, and gossip's contracts through
    # midpoint_contract, with no in-place step such as values -= mid
    for module, finisher in ((dynamics, "mix_to_checkpoints"),
                             (gossip, "synchronized_values")):
        fn = _function(Path(module.__file__), finisher)
        calls = {_name(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert owners <= calls, finisher
    fn = _function(Path(gossip.__file__), "synchronized_values")
    assert "midpoint_contract" in {_name(node.func) for node in ast.walk(fn)
                                   if isinstance(node, ast.Call)}
    assert not [ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.AugAssign)]


def test_integers_have_one_owner():
    # problems.parse_int is the one integer rule of a config field, flag,
    # seed variable and override: the readers it replaced stay gone, and no
    # harness function or graphs.build_graph calls int or operator.index or
    # hands either over as a parser (the edge-list lines keep their own
    # per-line parse, whose fault names the line)
    gone = [f"{path.relative_to(SRC)} {name}" for path in sorted(SRC.rglob("*.py"))
            for name in ("_integer", "_size") if re.search(rf"\b{name}\b", path.read_text())]
    assert not gone, gone
    harness = SRC / "continuized" / "harness"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(harness.glob("*.py"))}
    trees["build_graph"] = _function(Path(graphs.__file__), "build_graph")
    found = []
    for where, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):  # a parser is handed to read, _read or partial
                parsers = node.args if _name(node.func) in ("read", "_read", "partial") else []
                values = [node.func, *parsers]
            else:
                values = node.values if isinstance(node, ast.Dict) else []
            found += [f"{where}:{node.lineno} {ast.unparse(node)}" for value in values
                      if ast.unparse(value) in ("int", "index", "operator.index")]
    assert not found, found
    for where in ("config.py", "build_graph"):
        assert "parse_int" in {node.id for node in ast.walk(trees[where])
                               if isinstance(node, ast.Name)}, where


def _outside_calls(node):
    """The comparisons of ``node`` that no call wraps: a scalar's, not the
    element-wise ones that an array refusal hands to numpy."""
    if isinstance(node, ast.Compare):
        yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.Call):
            yield from _outside_calls(child)


def _is_zero(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0 and type(node.value) is int


def test_names_and_positive_numbers_have_one_owner():
    # problems.parse_choice is the one refusal of a variant name and
    # problems.parse_positive the one refusal of a scalar that must be
    # finite and > 0: _require_positive stays gone, no other f-string opens
    # with "unknown " (after a "[section] " prefix or not; the key rule's
    # "unknown section [x]" aside), and no other `if` that raises tests
    # `x > 0` or `0 < x < math.inf` outside a call (the array refusals of
    # curvatures and weights compare inside numpy calls, with messages that
    # name their edges or sample lines)
    problems_path = Path(problems.__file__)
    owners = [_function(problems_path, name) for name in ("parse_choice", "parse_positive")]
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        where = path.relative_to(SRC).as_posix()
        if re.search(r"\b_require_positive\b", text):
            found.append(f"{where} _require_positive")
        for node in ast.walk(ast.parse(text, str(path))):
            if path == problems_path and any(
                    fn.lineno <= getattr(node, "lineno", 0) <= fn.end_lineno for fn in owners):
                continue
            head = node.values[0] if isinstance(node, ast.JoinedStr) else None
            if (isinstance(head, ast.Constant) and re.match(r"(\[\w+\] )?unknown ", head.value)
                    and not head.value.startswith("unknown section [")):
                found.append(f"{where}:{node.lineno} {ast.unparse(node)}")
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                for test in _outside_calls(node.test):
                    operands = [test.left, *test.comparators]
                    positive = any(isinstance(op, ast.Gt) and _is_zero(right)
                                   for op, right in zip(test.ops, operands[1:]))
                    bounded = (_is_zero(test.left) and len(test.ops) == 2
                               and all(isinstance(op, ast.Lt) for op in test.ops)
                               and ast.unparse(operands[-1]) == "math.inf")
                    if positive or bounded:
                        found.append(f"{where}:{node.lineno} {ast.unparse(test)}")
    assert not found, found
    # and the rules have their callers: each module that names a variant or
    # reads a positive parameter refuses it through them
    callers = {"parse_choice": ("problems", "schedules", "dynamics", "gossip", "graphs",
                                "harness/config"),
               "parse_positive": ("schedules", "trace", "dual")}
    for rule, modules in callers.items():
        for module in modules:
            tree = ast.parse((SRC / "continuized" / f"{module}.py").read_text())
            assert rule in {_name(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}, \
                (rule, module)


def _text(node) -> str | None:
    """The text of a string constant, or of an f-string with each field as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def test_run_inputs_have_one_owner():
    # each rule of a run's input has one owner, which the config and the
    # engines both call: problems.check_point for an optimizer's start,
    # gossip.check_node_values for a pairwise run's node values,
    # schedules.check_pairing for a schedule's problem (so no engine keeps
    # a `certified` flag that drops the certificate), one by-line refusal
    # for the sample weights that are not finite and > 0, and
    # dual.check_local_functions for a dual run's local functions
    package = SRC / "continuized"
    fns = {name: _function(package / f"{module}.py", name) for module, name in (
        ("dynamics", "continuized_plan"), ("dynamics", "nesterov_recursion"),
        ("gossip", "pairwise_plan"), ("harness/config", "spec_from_sections"),
        ("problems", "make_least_squares"))}
    for name in ("continuized_plan", "nesterov_recursion"):
        calls = {_name(n.func) for n in ast.walk(fns[name]) if isinstance(n, ast.Call)}
        assert "check_point" in calls, name
    plan = fns["continuized_plan"]
    assert not [ast.unparse(n) for n in ast.walk(plan) if isinstance(n, ast.Raise)]
    assert "DimensionMismatchError" not in ast.unparse(plan)
    assert "coeffs is not None" not in ast.unparse(plan)
    for name in ("pairwise_plan", "spec_from_sections"):
        assert "check_node_values" in {_name(n) for n in ast.walk(fns[name])}, name
    pairing, certified = [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if re.fullmatch(r"schedule \S+ needs a least-squares problem", _text(node) or ""):
                pairing.append((where, node.lineno))
            named = _name(node) if isinstance(node, (ast.Name, ast.Attribute)) else \
                getattr(node, "name", getattr(node, "arg", None))
            if named == "certified":
                certified.append(f"{where}:{node.lineno}")
    assert not certified, certified
    owner = _function(package / "schedules.py", "check_pairing")
    assert len(pairing) == 1 and pairing[0][0] == "continuized/schedules.py" \
        and owner.lineno <= pairing[0][1] <= owner.end_lineno, pairing
    refusals = [text for n in ast.walk(fns["make_least_squares"]) if (text := _text(n))
                and "weight" in text and ("positive" in text or "> 0" in text)]
    assert refusals == ["sample weights must be finite and > 0"], refusals
    # the parser alone builds explicit local functions, and its spec keeps
    # them, not the arrays they were built from
    for module, name in (("dual", "decentralized_plan"), ("harness/config", "_decentralized")):
        fn = _function(package / f"{module}.py", name)
        assert "check_local_functions" in {_name(n) for n in ast.walk(fn)}, name
    # a call of LocalFunction, or one that hands it over to be called
    built = [f"{path.name}:{node.lineno}" for path in sorted((package / "harness").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and "LocalFunction" in {_name(n) for n in (node.func, *node.args)}]
    assert built and all(where.startswith("config.py:") for where in built), built
    spec_fields = {f.name for f in dataclasses.fields(config.DecentralizedSpec)}
    assert not spec_fields & {"curvatures", "centers"}, spec_fields


def test_readme_presets_table_names_every_preset():
    # README's "Presets" table has one row per preset of ``presets.PRESETS``,
    # so the docs cannot drift from the presets
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Presets", 1)[1].split("\n#", 1)[0]
    assert sorted(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == preset_names()


def test_bench_trace_targets_resolve():
    # every function the benchmark's tracer wraps must still exist, so that a
    # rename or deletion fails here and not only in the benchmark's own tests
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


# A constant-schedule run one dimension above the float-pair threshold: it
# keeps the (2, d) array pair, whose kernels are numpy calls.
ARRAY_PAIR_CONFIG = f"""
[experiment]
kind = optimize
horizon = 20

[problem]
kind = quadratic
diag = 0.01 {" ".join(["1.0"] * FLOAT_PAIR_MAX_DIM)}
center = {" ".join(["1"] * (FLOAT_PAIR_MAX_DIM + 1))}

[algo]
schedule = strongly_convex
"""

# case -> (kind, preset name or config text).  The optimize cases cover the
# constant schedule, the 2/t schedule and additive noise, on the float pair
# and on the array pair.
KERNEL_CASES = {
    "optimize": ("optimize", "appendix-a1-strongly-convex"),
    "optimize-convex": ("optimize", "appendix-a1-convex"),
    "optimize-additive": ("optimize", "appendix-b-additive"),
    "optimize-array-pair": ("optimize", ARRAY_PAIR_CONFIG),
    "gossip": ("gossip", "appendix-a2-line30"),
    "decentralized": ("decentralized", "decentralized-line10"),
}


def _kernel_spec(case, runs):
    kind, source = KERNEL_CASES[case]
    spec = config.parse_config_text(source) if "\n" in source else get_preset(source)
    spec = spec.with_overrides(runs=runs, horizon=20.0)
    assert spec.kind == kind
    return spec


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_event_kernel_called_once_per_event(case):
    # the benchmark's traced gate: each simulated event calls the kind's
    # kernel exactly once, counted against the events on the clock streams
    workload = _bench_module("workload")
    spec = _kernel_spec(case, runs=2)
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
        runner.run_experiment(spec)
    finally:
        tracer.uninstall()
    events = workload.count_events(spec)
    assert events > 0
    assert tracer.summary()[workload.EVENT_KERNEL[spec.kind]] == events


@pytest.mark.parametrize("case, floats", [("optimize", True), ("optimize-additive", True),
                                          ("optimize-convex", False),
                                          ("optimize-array-pair", False)])
def test_small_quadratic_runs_take_the_float_pair(case, floats):
    # the d = 3 presets mix their float pair inline, never through
    # mix_closed_form; a1-convex (d = 100) and the run above the threshold
    # keep the (2, d) array and mix once per event
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()
        runner.run_experiment(_kernel_spec(case, runs=2))
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    events = counts["dynamics.gradient_jump.calls"]
    assert events > 0
    assert counts["dynamics.mix_closed_form.calls"] == (0 if floats else events)


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_trace_counts_the_events_on_the_clock_streams(case):
    # each run's trace reports the events it applied, which are exactly the
    # events on its clock stream up to the horizon
    workload = _bench_module("workload")
    spec = _kernel_spec(case, runs=3)
    events = runner.resolve(spec).run_block(range(spec.runs))[1].tolist()
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


# A fresh interpreter runs a 2-run ensemble of each kind, renders its CSV
# and prints whether numpy.ma was imported.
MASKED_PROBE = """
import sys
from continuized.harness import csvio, presets, runner
for name in %r:
    csvio.render_csv(runner.run_experiment(presets.get_preset(name).with_overrides(runs=2)))
print("numpy.ma" in sys.modules)
"""


def test_ensembles_leave_numpy_ma_unimported():
    # np.quantile imports numpy.ma (through np.unique) in every fresh process;
    # the runner's quantiles come from one sort and need none of it
    names = ("appendix-a1-strongly-convex", "appendix-a2-complete10", "decentralized-line10")
    assert {get_preset(name).kind for name in names} == {"optimize", "gossip", "decentralized"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", MASKED_PROBE % (names,)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


# A fresh interpreter imports the package and the harness, builds every
# preset spec and prints whether numpy.random was imported.
SETUP_PROBE = """
import sys
import continuized
from continuized.harness import cli, config, csvio, presets, runner
for name in presets.preset_names():
    presets.get_preset(name)
print("numpy.random" in sys.modules)
"""


def test_setup_leaves_numpy_random_unimported():
    # numpy.random costs about 17 ms to import in a fresh process, and the
    # first run pays it; importing it during setup would move that cost out
    # of the ensemble's time without making anything faster
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


# A fresh interpreter imports the package, then the harness, and builds
# every optimize and gossip preset; it reports which modules each step left
# unloaded and every record class whose __init__ is its own.
LAZY_PROBE = """
import json, sys
import continuized
loaded = sorted(m for m in sys.modules if m.startswith("continuized."))
from continuized.harness import cli, config, csvio, presets, runner
for name, sections in presets.PRESETS.items():
    if sections["experiment"]["kind"] != "decentralized":
        presets.get_preset(name)
skipped = [m for m in ("continuized.dual", "configparser") if m not in sys.modules]
import continuized.dual
from continuized.records import Record
def subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]
records = subclasses(Record)
own_init = sorted(c.__qualname__ for c in records if c.__init__ is not Record.__init__)
print(json.dumps({"loaded": loaded, "skipped": skipped, "records": len(records),
                  "own_init": own_init}))
"""

# The names ``continuized`` exports, each read from its submodule on demand.
EXPORTS = set("""
    gradient_jump initial_state lyapunov_value mix_closed_form run_continuized run_gd
    run_nesterov run_three_sequence Graph SpectralCache build_graph complete_graph
    cycle_graph edge_list_graph grid_graph line_graph spectral GossipParams gossip_rates
    run_gossip DualParams LocalFunction run_decentralized ConvexProblem LeastSquaresProblem
    NoiseModel QuadraticProblem gradient make_least_squares make_quadratic
    stochastic_gradient EventClock LyapunovCoeffs ParamSchedule discrete_params
    lyapunov_coeffs sample_interarrival schedule_eval RunStreams derive_seed run_streams
    splitmix64 Snapshot Trace
""".split())


def test_setup_loads_only_what_a_run_uses():
    # the package namespace loads no submodule until a name is read; the
    # dual and configparser load only for a decentralized spec and for INI
    # text; and no record class compiles an __init__ of its own
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["skipped"] == ["continuized.dual", "configparser"]
    assert report["records"] >= 19 and report["own_init"] == []


def test_exports_name_what_their_modules_define():
    # nothing imports the exports eagerly, so no import fails on a stale
    # name: each must be defined by the module the table names
    import continuized

    table = continuized._EXPORTS
    assert len(EXPORTS) == 44 and set(table) == EXPORTS
    for name, module in table.items():
        owner = importlib.import_module(f"continuized.{module}")
        assert getattr(continuized, name) is vars(owner)[name], name
    assert EXPORTS <= set(dir(continuized))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        continuized.no_such_name


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
# documented inverse of ``emit_csv``, ``gradient`` is the exact gradient
# exported beside ``stochastic_gradient``, and ``sample_interarrival`` is the
# scalar clock law, the oracle of ``sample_event_times``' block arithmetic.
UNCALLED_API = {"run_three_sequence", "load_csv", "gradient", "sample_interarrival"}

# The one-run engines are the public API and the oracles of the runner's
# blocks, which run the plans directly; unlike ``UNCALLED_API``, their
# options are still held to the options rule.
ONE_RUN_ENGINES = {"run_continuized", "run_gossip", "run_decentralized"}


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
        and node.name not in UNCALLED_API | ONE_RUN_ENGINES
        and not any(node.name in names for _, stmt, names in statements if stmt is not node)
    ]
    assert not uncalled, uncalled


# Options no package code sets: ``cli.main(argv)`` is the CLI's in-process
# test seam; the console script calls it with no argument.
# ``run_continuized(x0=)`` is the one-run engine's start, the x0 the runner
# passes to ``continuized_plan``; tests start single runs away from 0 with it.
UNSET_OPTIONS = {("main", "argv"), ("run_continuized", "x0")}


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


# Record fields no package code reads, kept as what the records report to
# their callers and tests.
PUBLIC_FIELDS = {
    "Snapshot.t": "the time of a recorded state, read by a trace's users",
    "Trace.events": "the events a one-run engine applied, reported to its caller",
    "LeastSquaresProblem.hessian": "H, the matrix the problem's constants are defined by",
    "DualParams.l_dual": "the dual smoothness bound that the steps gamma derive from",
    "DualParams.theta_arg_prime": "the dual graph rate that criterion 11 checks",
}


def _records(trees) -> list[ast.ClassDef]:
    """The package's dataclasses and named tuples: each class decorated with
    ``dataclass`` or derived from ``NamedTuple``, ``records.Record`` or
    another of them."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found, bases = [], {"NamedTuple", "Record"}
    while more := [
        cls for cls in classes if cls not in found and (
            bases & {_name(b) for b in cls.bases}
            or "dataclass" in {_name(getattr(d, "func", d)) for d in cls.decorator_list})
    ]:
        found += more
        bases |= {cls.name for cls in more}
    return found


def test_every_field_has_a_source_reader():
    # a field of a package dataclass or named tuple is stored for a reader:
    # some package code reads it as an attribute, unless it is public above
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [
        (f"{cls.name}.{stmt.target.id}", stmt.target.id)
        for cls in _records(trees)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    unread = [qualified for qualified, name in fields
              if name not in read and qualified not in PUBLIC_FIELDS]
    assert not unread, unread
    assert set(PUBLIC_FIELDS) <= {qualified for qualified, _ in fields}
