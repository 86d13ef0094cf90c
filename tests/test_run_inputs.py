"""Each run-input rule refuses its input one way, from the library and from
a config: an optimizer's start (``problems.check_point``), a pairwise run's
node values (``gossip.check_node_values``), a schedule's problem
(``schedules.check_pairing``), a least-squares problem's sample weights
(``problems.make_least_squares``), a baseline's iteration count
(``problems.parse_int``) and a dual run's local functions
(``dual.check_local_functions``).

A case is a library call, with the exact type and message of what it
raises, or a config given to the command line, with the one line it prints
before exiting 1.
"""

import math

import numpy as np
import pytest

from continuized.dual import LocalFunction, run_decentralized
from continuized.dynamics import run_continuized, run_gd, run_nesterov
from continuized.gossip import GossipParams, run_gossip
from continuized.graphs import line_graph
from continuized.harness.cli import main
from continuized.problems import (
    DimensionMismatchError,
    InvalidProblemError,
    NoiseModel,
    make_least_squares,
    make_quadratic,
)
from continuized.schedules import EventClock, ParamSchedule
from continuized.seeding import run_streams

QUADRATIC = make_quadratic([1.0, 2.0], [0.0, 0.0])
NAN, INF = math.nan, math.inf

OPTIMIZE = """
[experiment]
kind = optimize
horizon = 10
runs = 2

[problem]
kind = quadratic
diag = 1 2
center = 0 0
"""

GOSSIP = """
[experiment]
kind = gossip
horizon = 5
runs = 1

[graph]
topology = line
nodes = 2

[gossip]
init = {init}
"""

LEAST_SQUARES = """
[experiment]
kind = optimize
horizon = 10

[problem]
kind = least_squares
optimum = 1 1
samples =
    1 0 | 1 | {weight}
    0 1 | 1 | 1
"""


DECENTRALIZED = """
[experiment]
kind = decentralized
horizon = 5
runs = 1

[graph]
topology = line
nodes = 3

[decentralized]
mu = 0.5
smoothness = 1.0
curvatures = {curvatures}
centers =
    {centers}
"""


def _continuized(x0=None, schedule=ParamSchedule.strongly_convex(2.0, 1.0)):
    return run_continuized(QUADRATIC, NoiseModel.none(), schedule, EventClock.exponential(), 5.0,
                           run_streams(0, 0), x0=x0, checkpoints=[1.0, 5.0])


def _gossip(x0):
    graph = line_graph(4)
    return run_gossip(graph, GossipParams.from_cache(graph.spectrum), x0, 5.0, run_streams(0, 0),
                      checkpoints=[1.0, 5.0])


def _dual(*functions):
    return run_decentralized(line_graph(3), functions, 0.5, 1.0, 5.0, run_streams(0, 0),
                             checkpoints=[1.0, 5.0])


def _refused(tmp_path, capsys, case, fault):
    """Check that ``case`` is refused with ``fault``: a library call raises
    exactly the (type, message) ``fault``; a (subcommand, config) exits 1
    printing the one line ``fault``."""
    if callable(case):
        kind, message = fault
        with pytest.raises(ValueError) as caught:
            case()
        assert (type(caught.value), str(caught.value)) == (kind, message)
        return
    command, text = case
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {fault}"]


SHAPE = (DimensionMismatchError, "point has shape (3,), expected (2,)")
NOT_FINITE = (ValueError, "point must be finite")
OPTIMIZER_STARTS = {
    "continuized-shape": (lambda: _continuized(x0=[1.0, 2.0, 3.0]), SHAPE),
    "continuized-row": (lambda: _continuized(x0=[[1.0, 2.0]]),
                        (DimensionMismatchError, "point has shape (1, 2), expected (2,)")),
    "continuized-inf": (lambda: _continuized(x0=[INF, 0.0]), NOT_FINITE),
    "nesterov-shape": (lambda: run_nesterov(QUADRATIC, "convex", 3, x0=[1.0, 2.0, 3.0]), SHAPE),
    "nesterov-inf": (lambda: run_nesterov(QUADRATIC, "convex", 3, x0=[INF, 0.0]), NOT_FINITE),
    "gd-shape": (lambda: run_gd(QUADRATIC, 0.5, 3, x0=[1.0, 2.0, 3.0]), SHAPE),
    "gd-nan": (lambda: run_gd(QUADRATIC, 0.5, 3, x0=[NAN, 0.0]), NOT_FINITE),
    "config-shape": (("optimize", OPTIMIZE + "[algo]\nx0 = 1 2 3\n"),
                     "[algo] x0: point has shape (3,), expected (2,)"),
    "config-nan": (("optimize", OPTIMIZE + "[algo]\nx0 = nan 0\n"),
                   "[algo] x0: expected finite numbers, got 'nan 0'"),
}


@pytest.mark.parametrize("case, fault", OPTIMIZER_STARTS.values(), ids=OPTIMIZER_STARTS)
def test_optimizer_start_is_refused_by_check_point(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _not_one_per_node(shape, nodes=4):
    return ValueError, f"node values have shape {shape}, not one per node of {nodes}"


NOT_FINITE_NODES = (ValueError, "node values must be finite")
NODE_VALUES = {
    "short": (lambda: _gossip(np.ones(3)), _not_one_per_node((3,))),
    "long-rows": (lambda: _gossip(np.ones((5, 2))), _not_one_per_node((5, 2))),
    "three-axes": (lambda: _gossip(np.ones((4, 1, 2))), _not_one_per_node((4, 1, 2))),
    "scalar": (lambda: _gossip(1.0), _not_one_per_node(())),
    "nan": (lambda: _gossip([NAN, 0.0, 0.0, 1.0]), NOT_FINITE_NODES),
    "inf-row": (lambda: _gossip([[0.0, 1.0], [INF, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                NOT_FINITE_NODES),
    "config-length": (("gossip", GOSSIP.format(init="1 2 3")),
                      "[gossip] init: node values have shape (3,), not one per node of 2"),
    "config-nan": (("gossip", GOSSIP.format(init="nan 1")),
                   "[gossip] init: expected finite numbers, got 'nan 1'"),
}


@pytest.mark.parametrize("case, fault", NODE_VALUES.values(), ids=NODE_VALUES)
def test_node_values_are_refused_by_check_node_values(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _needs_least_squares(kind):
    return ValueError, f"schedule {kind} needs a least-squares problem"


PAIRINGS = {
    "continuized-convex": (
        lambda: _continuized(schedule=ParamSchedule.multiplicative_convex(2.0, 1.0)),
        _needs_least_squares("multiplicative_convex")),
    "continuized-strongly-convex": (
        lambda: _continuized(schedule=ParamSchedule.multiplicative_strongly_convex(2.0, 1.0, 1.0)),
        _needs_least_squares("multiplicative_strongly_convex")),
    "for-problem": (lambda: ParamSchedule.for_problem(QUADRATIC, "multiplicative_convex"),
                    _needs_least_squares("multiplicative_convex")),
    "config": (("optimize", OPTIMIZE + "[algo]\nschedule = multiplicative_strongly_convex\n"),
               "[algo] schedule multiplicative_strongly_convex needs a least-squares problem"),
}


@pytest.mark.parametrize("case, fault", PAIRINGS.values(), ids=PAIRINGS)
def test_schedule_problem_pairing_is_refused_by_check_pairing(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _weights(*weights):
    return lambda: make_least_squares(np.eye(3), [1.0, 2.0, 3.0], weights)


def _bad_weights(lines):
    return InvalidProblemError, f"sample weights must be finite and > 0 on sample lines {lines}"


SAMPLE_WEIGHTS = {
    **{f"weight-{w}": (_weights(1.0, w, 2.0), _bad_weights("2")) for w in (-1.0, 0.0, NAN, INF)},
    "every-fault": (_weights(-1.0, 1.0, 0.0), _bad_weights("1, 3")),
    **{f"config-weight-{w}": (("optimize", LEAST_SQUARES.format(weight=w)),
                              "[problem] sample weights must be finite and > 0 on sample lines 1")
       for w in ("-1", "0")},
    "config-weight-nan": (("optimize", LEAST_SQUARES.format(weight="nan")),
                          "[problem] sample weight: expected a finite number, got 'nan'"),
}


@pytest.mark.parametrize("case, fault", SAMPLE_WEIGHTS.values(), ids=SAMPLE_WEIGHTS)
def test_sample_weights_are_refused_by_one_line_rule(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _weight_shape(shape):
    return InvalidProblemError, f"need one weight per sample, got shape {shape}"


WEIGHT_COUNTS = {
    "short": (_weights(1.0, 2.0), _weight_shape((2,))),
    "column": (lambda: make_least_squares(np.eye(3), [1.0, 2.0, 3.0], np.ones((3, 1))),
               _weight_shape((3, 1))),
}


@pytest.mark.parametrize("case, fault", WEIGHT_COUNTS.values(), ids=WEIGHT_COUNTS)
def test_sample_weights_need_one_per_sample(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _not_an_iteration_count(value):
    return InvalidProblemError, f"must be an integer >= 1, got {value!r}"


ITERATION_COUNTS = {
    **{f"{method}-{value!r}": (lambda run=run, value=value: run(value),
                               _not_an_iteration_count(value))
       for method, run in (("nesterov", lambda i: run_nesterov(QUADRATIC, "convex", i)),
                           ("gd", lambda i: run_gd(QUADRATIC, 0.5, i)))
       for value in (-3, 0, True, 2.5)},
    "config": (("optimize", OPTIMIZE + "[algo]\nmethod = gd\niters = 0\n"),
               "[algo] iters: must be an integer >= 1, got '0'"),
}


@pytest.mark.parametrize("case, fault", ITERATION_COUNTS.values(), ids=ITERATION_COUNTS)
def test_baseline_iterations_are_refused_by_parse_int(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)


def _outside(nodes, mu, smoothness):
    return ValueError, (f"local curvatures of nodes {nodes} leave the declared "
                        f"[mu, L] = [{mu}, {smoothness}]")


LOCAL_FUNCTIONS = {
    "count": (lambda: _dual(LocalFunction(0.5, 0.0), LocalFunction(1.0, 1.0)),
              (ValueError, "need one local function per node (3), got 2")),
    "curvature": (lambda: _dual(*(LocalFunction(c, 0.0) for c in (0.5, 2.0, 0.25))),
                  _outside([1, 2], 0.5, 1.0)),
    "dimensions": (lambda: _dual(LocalFunction(0.5, 0.0), LocalFunction(1.0, [1.0, 2.0]),
                                 LocalFunction(1.0, 0.0)),
                   (ValueError, "local functions mix dimensions [1, 2]")),
    "config-count": (("decentralized", DECENTRALIZED.format(curvatures="0.5 1.0",
                                                           centers="1\n    2")),
                     "[decentralized] need one local function per node (3), got 2"),
    "config-curvature": (("decentralized", DECENTRALIZED.format(curvatures="0.5 2.0 0.25",
                                                               centers="1\n    2\n    3")),
                         "[decentralized] " + _outside([1, 2], 0.5, 1.0)[1]),
}


@pytest.mark.parametrize("case, fault", LOCAL_FUNCTIONS.values(), ids=LOCAL_FUNCTIONS)
def test_local_functions_are_refused_by_check_local_functions(tmp_path, capsys, case, fault):
    _refused(tmp_path, capsys, case, fault)
