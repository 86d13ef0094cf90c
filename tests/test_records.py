"""Records hold values (``continuized.records``).

Every record type that holds arrays compares by value: a rebuilt copy is
equal (and, when the record is frozen, hashes alike), and a copy with one
array element moved by one ulp is not.  Every array a frozen record holds,
derived ones included, refuses a write, in its copies and pickles too, and
the mutable records (the spec, a run's trace, a run set) are unhashable.
"""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from continuized.dual import LocalFunction
from continuized.dynamics import run_continuized
from continuized.gossip import GossipParams
from continuized.graphs import grid_graph
from continuized.harness.config import DecentralizedSpec
from continuized.harness.presets import get_preset
from continuized.harness.runner import run_experiment
from continuized.problems import (
    ConvexProblem,
    NoiseModel,
    WeightedDraw,
    make_least_squares,
    make_quadratic,
)
from continuized.records import Record, read_only, same_value
from continuized.schedules import EventClock, ParamSchedule, lyapunov_on_grid
from continuized.seeding import run_streams


def _graph():
    graph = grid_graph(3, 4)
    graph.spectrum  # the derived spectrum, built on first read
    return graph


def _trace():
    problem = make_quadratic([1.0, 2.0, 4.0], [0.5, -1.0, 2.0])
    return run_continuized(
        problem, NoiseModel.additive(0.1), ParamSchedule.for_problem(problem),
        EventClock.exponential(), 6.0, run_streams(5, 2), checkpoints=[1.0, 3.0, 6.0])


# each record type that holds arrays -> a call that builds one afresh
BUILDERS = {
    "ConvexProblem": lambda: ConvexProblem(2, np.array([1.0, -0.5]), 3.0, 0.25),
    "QuadraticProblem": lambda: get_preset("appendix-a1-convex").problem,
    "LeastSquaresProblem": lambda: make_least_squares(
        [[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]], [0.5, -1.0], [1.0, 2.0, 3.0]),
    "WeightedDraw": lambda: WeightedDraw(np.array([0.25, 0.5, 0.25])),
    "Graph": _graph,
    "SpectralCache": lambda: grid_graph(3, 4).spectrum,
    "LocalFunction": lambda: LocalFunction(0.7, np.array([0.3, -1.2])),
    "LyapunovCoeffs": lambda: lyapunov_on_grid(
        ParamSchedule.strongly_convex(2.0, 0.1), [1.0, 2.0, 4.0]),
    "AlgoSpec": lambda: get_preset("appendix-a1-strongly-convex").algo,
    "DecentralizedSpec": lambda: DecentralizedSpec(
        0.1, 1.0, 2, curvatures=np.array([0.2, 0.5]), centers=np.array([[1.0, 2.0], [3.0, 4.0]])),
    "ExperimentSpec": lambda: get_preset("appendix-a2-line30"),
    "Trace": _trace,
    "RunSet": lambda: run_experiment(
        get_preset("appendix-a1-strongly-convex").with_overrides(runs=4, include_bounds=True)),
}
MUTABLE = {"ExperimentSpec", "Trace", "RunSet"}


def _nudged(value):
    """A copy of ``value`` whose first float array (in field, item or key
    order) has its first element moved up by one ulp; None if it holds none."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f" or value.size == 0:
            return None
        moved = value.copy()
        moved.flat[0] = np.nextafter(moved.flat[0], np.inf)
        return moved
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if (moved := _nudged(getattr(value, f.name))) is not None:
                return dataclasses.replace(value, **{f.name: moved})
    elif isinstance(value, dict):
        for key, item in value.items():
            if (moved := _nudged(item)) is not None:
                return {**value, key: moved}
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if (moved := _nudged(item)) is not None:
                items = [*value[:i], moved, *value[i + 1:]]
                return type(value)(*items) if hasattr(value, "_fields") else type(value)(items)
    return None


def _arrays(value, seen=None):
    """Every array reachable from ``value``: the attributes of records
    (fields and derived ones), and the items of tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, Record):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item, seen)]
    return []


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_records_compare_by_value(kind):
    record, rebuilt = BUILDERS[kind](), BUILDERS[kind]()
    assert type(record).__name__ == kind
    assert record is not rebuilt
    assert record == rebuilt and not record != rebuilt
    if kind in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt)
    moved = _nudged(record)
    assert moved is not None and type(moved) is type(record)
    assert record != moved and moved != record and not record == moved


@pytest.mark.parametrize("kind", sorted(set(BUILDERS) - MUTABLE))
def test_frozen_records_hold_read_only_arrays(kind):
    record = BUILDERS[kind]()
    # copies and pickles are built by the record's __init__ as well
    for held in (record, copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert held == record
        arrays = _arrays(held)
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def test_graph_derived_arrays_are_read_only():
    graph = _graph()
    draw = graph.edge_draw
    derived = [draw.probs, draw.cum, draw.bounds, draw.table, graph.spectrum.r_eff]
    assert all(not a.flags.writeable for a in derived)
    draw = BUILDERS["LeastSquaresProblem"]().sample_draw
    assert not any(a.flags.writeable for a in (draw.probs, draw.cum, draw.bounds, draw.table))


def test_a_callers_array_is_copied_never_frozen():
    diag, center = np.array([1.0, 2.0]), np.array([0.0, 3.0])
    problem = make_quadratic(diag, center)
    assert diag.flags.writeable and center.flags.writeable
    diag[0] = center[0] = 7.0  # the caller's arrays stay theirs
    assert problem.diag.tolist() == [1.0, 2.0] and problem.optimum.tolist() == [0.0, 3.0]
    # a read-only array is a value already: it is kept, not copied
    frozen = read_only(np.array([0.3, -1.2]))
    assert read_only(frozen) is frozen
    assert LocalFunction(0.7, frozen).center is frozen


def test_same_value_recurses_by_type():
    a = {"x": [np.array([1.0, 2.0]), (3, np.array([4.0]))]}
    assert same_value(a, {"x": [np.array([1.0, 2.0]), (3, np.array([4.0]))]})
    assert not same_value(a, {"x": [np.array([1.0, 2.0]), (3, np.array([4.5]))]})
    assert not same_value(a, {"y": a["x"]})
    assert not same_value(np.array([1.0]), [1.0])  # an array equals only an array
    assert not same_value([np.zeros(1)], (np.zeros(1),))
    assert same_value(1, 1.0)


def test_records_of_other_types_are_not_equal():
    problem = BUILDERS["ConvexProblem"]()
    assert problem != "problem" and problem != dataclasses.replace(problem, smoothness=4.0)
    assert GossipParams(0.1, 0.2) == GossipParams(0.1, 0.2)
    assert len({GossipParams(0.1, 0.2), GossipParams(0.1, 0.2), GossipParams(0.1, 0.3)}) == 2


class _Point(Record):
    """A test record: one required field, a default and a default factory."""

    x: np.ndarray
    label: str = "p"
    tags: list = dataclasses.field(default_factory=list)


class _Draft(Record, frozen=False):
    name: str
    notes: list = dataclasses.field(default_factory=list)


def test_record_init_binds_fields_like_a_dataclass():
    point = _Point(np.array([1.0, 2.0]), tags=["a"])
    assert (point.label, point.tags) == ("p", ["a"])
    assert _Point(x=np.zeros(1)).tags == [] and _Point(np.zeros(1)).tags is not point.tags
    assert not point.x.flags.writeable
    assert [f.name for f in dataclasses.fields(point)] == ["x", "label", "tags"]
    assert dataclasses.is_dataclass(point) and _Point.__init__ is Record.__init__
    moved = dataclasses.replace(point, label="q")
    assert moved.label == "q" and moved.x is point.x
    assert repr(point) == "_Point(x=array([1., 2.]), label='p', tags=['a'])"
    assert pickle.loads(pickle.dumps(_Draft("d", ["n"]))) == _Draft("d", ["n"])


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "_Point() missing field 'x'"),
    ((1,), {"colour": 2}, "_Point() got an unexpected field 'colour'"),
    ((1,), {"x": 2}, "_Point() got field 'x' twice"),
    ((1, "a", [], 4), {}, "_Point() takes 3 fields, got 4"),
])
def test_record_init_names_the_record_and_the_field(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        _Point(*args, **kwargs)


def test_only_a_frozen_record_refuses_assignment():
    point = _Point(np.zeros(1))
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'label'"):
        point.label = "q"
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'label'"):
        del point.label
    draft = _Draft("d")
    draft.name = "e"
    del draft.notes
    assert vars(draft) == {"name": "e"}
    with pytest.raises(TypeError):
        hash(draft)
