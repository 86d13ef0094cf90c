"""Per-run oracles: runs replayed by hand from their own streams.

A run records its state only at the caller's checkpoints, and a checkpoint
at an event's time sees the post-jump state.  Tests that check a run event
by event put its event times (``event_times``) in the grid.
``ScriptedClock`` stands in for a run's clock stream where a test needs
chosen uniforms, such as u = 0.0.

``activations`` draws the edge activations of gossip and the dual from a
run's streams without the engine's sampler, and ``energy_problem`` is the
least-squares objective whose continuized optimizer is accelerated gossip.

``replay_pairs`` and ``replay_nodes`` rebuild the raw state of a run after
the events up to each checkpoint: the optimizer's x and z as separate rows
with allocating formulas, independent of the engine's in-place (2, d)
kernels, and the node values of gossip and the dual with per-node mixing
(``lazy_mix_node``) and the kernels one event at a time.  ``replay(spec, i)``
measures run i of an ensemble from them, one checkpoint at a time with the
scalar metrics: the oracle of the runner's blocks.
"""

import math
from itertools import accumulate, takewhile

import numpy as np

from continuized.dual import DualParams, conjugate_grad, incidence_r, optimum_of
from continuized.dynamics import lyapunov_value, midpoint_contract
from continuized.gossip import GossipParams, accelerated_step, lazy_mix_node
from continuized.graphs import Graph
from continuized.harness import runner
from continuized.problems import LeastSquaresProblem, make_least_squares, stochastic_gradient
from continuized.schedules import lyapunov_coeffs, sample_interarrival, schedule_eval
from continuized.seeding import run_streams
from continuized.trace import Snapshot


def activations(graph, horizon, streams):
    """The (times, edge indices) arrays of the activations up to ``horizon``
    of a gossip or dual run on ``streams``, drawn independently of the
    engine's sampler: whole blocks of 4096 Exp(1) waits from the clock
    stream, each block's times its running sums after the last time of the
    block before, and each edge by ``np.searchsorted`` of one uniform of the
    noise stream in the cumulative edge probabilities, clamped to the last
    edge."""
    times, base = np.empty(0), 0.0
    while times.size == 0 or times[-1] <= horizon:
        block = base + np.cumsum(streams.clock.exponential(size=4096))
        times, base = np.concatenate([times, block]), block[-1]
    times = times[:np.searchsorted(times, horizon, side="right")]
    cum_probs = np.cumsum(graph.edge_probs)
    picks = np.searchsorted(cum_probs, streams.noise.random(times.size), side="right")
    return times, np.minimum(picks, graph.edge_count - 1)


def energy_problem(graph: Graph, x0) -> LeastSquaresProblem:
    """The edge-difference least-squares objective whose stochastic gradient
    descent is naive gossip; its optimum is consensus at the mean of x0."""
    atoms = np.zeros((graph.edge_count, graph.node_count))
    for i, (v, w) in enumerate(graph.edges):
        atoms[i, v] = 1.0
        atoms[i, w] = -1.0
    target = float(np.mean(np.asarray(x0, dtype=float)))
    optimum = np.full(graph.node_count, target)
    return make_least_squares(atoms, optimum, graph.edge_probs)


def event_times(source, horizon, streams) -> list[float]:
    """The event times up to ``horizon`` of a run on ``streams``.

    ``source`` is the optimizer's ``EventClock``, or the ``Graph`` whose edge
    activations drive gossip and the dual (``activations``).  Pass a fresh
    copy of the run's streams: the replay consumes them as the run does.
    The optimizer's times are drawn one ``streams.clock.random()`` per
    event, independently of the engine's block sampler.
    """
    if isinstance(source, Graph):
        return activations(source, horizon, streams)[0].tolist()
    uniforms = iter(streams.clock.random, None)
    waits = (sample_interarrival(source, u) for u in uniforms)
    return list(takewhile(lambda te: te <= horizon, accumulate(waits)))


class ScriptedClock:
    """A clock stream that yields the uniforms ``head`` first, then those of
    a generator seeded with ``seed``; a block draw of n uniforms reads the
    same sequence as n single draws, as a numpy generator's does."""

    def __init__(self, head, seed):
        self.head = list(head)
        self.rest = np.random.default_rng(seed)

    def random(self, size=None):
        n = 1 if size is None else size
        take, self.head = self.head[:n], self.head[n:]
        out = np.concatenate([take, self.rest.random(n - len(take))])
        return float(out[0]) if size is None else out


# ---------------------------------------------------------------- optimizer

def mix_rows(x, z, t, schedule, until):
    """(x, z) mixed from t to ``until`` by the row formulas, into new arrays:
    z + (t/until) ** 2 * (x - z) on the 2/t kinds, ``midpoint_contract``
    on the constant kinds, and the rows themselves when until == t."""
    if until == t:
        return x, z
    if schedule.is_time_varying:
        return z + (t / until) ** 2 * (x - z), z
    return midpoint_contract(x, z, math.exp(-2.0 * schedule.mix_rate * (until - t)))


def replay_pairs(problem, noise, schedule, clock, grid, x0, horizon, seed, i=0):
    """(x, z, time of the last event) after the events up to each checkpoint,
    replayed by hand from the streams of run i with allocating row formulas:
    per event the mix, one gradient at the mixed x, x - gamma g and
    z - gamma' g."""
    times = event_times(clock, horizon, run_streams(seed, i))
    noise_rng = run_streams(seed, i).noise
    x, z, now, k, raw = x0.copy(), x0.copy(), 0.0, 0, []
    for t in grid:
        while k < len(times) and times[k] <= t:
            te = times[k]
            x, z = mix_rows(x, z, now, schedule, te)
            now = te
            g = stochastic_gradient(problem, noise, x, noise_rng)
            _, _, gamma, gamma_p = schedule_eval(schedule, te)
            x, z = x - gamma * g, z - gamma_p * g
            k += 1
        raw.append((x, z, now))
    return raw


# ------------------------------------------------------ gossip and the dual

def replay_nodes(graph, x0, mix_rate, kernel, edge_args, events, grid):
    """Raw node values and clocks after the ``events`` = (times, edge
    indices) up to each checkpoint, replayed by hand from x = z = x0 (float
    lists for 1-D x0, array rows otherwise) with the given kernel."""
    times, picks = events
    x, z = (x0.tolist(), x0.tolist()) if x0.ndim == 1 else (x0.copy(), x0.copy())
    clocks = [0.0] * graph.node_count
    k, raw = 0, []
    for t in grid:
        while k < len(times) and times[k] <= t:
            v, w = graph.edges[picks[k]]
            lazy_mix_node(x, z, clocks, v, times[k], mix_rate)
            lazy_mix_node(x, z, clocks, w, times[k], mix_rate)
            kernel(x, z, v, w, edge_args[picks[k]])
            k += 1
        raw.append((np.array(x), np.array(z), np.array(clocks)))
    return raw


def synchronize(x, z, last_t, mix_rate, t):
    """One state's nodes mixed forward to t: the per-checkpoint snapshot.
    A node whose clock is t keeps its values, as ``lazy_mix_node`` keeps a
    pair already at its time."""
    if not mix_rate:
        return x, z
    decay = np.exp(-2.0 * mix_rate * np.maximum(t - last_t, 0.0))
    held = last_t == t if x.ndim == 1 else (last_t == t)[:, None]
    mixed = midpoint_contract(x, z, decay if x.ndim == 1 else decay[:, None])
    return tuple(np.where(held, old, new) for old, new in zip((x, z), mixed))


def conjugate_update(y, z, v, w, coefs):
    """The dual step on edge (v, w) through ``conjugate_grad``, with
    ``coefs`` = (f_v, f_w, P_e, y_coef, z_coef): the oracle of
    ``dual.dual_update``, which reads the conjugate data as plain floats."""
    fv, fw, p_e, y_coef, z_coef = coefs
    g = p_e * (conjugate_grad(fv, y[v]) - conjugate_grad(fw, y[w]))
    y[v] -= y_coef * g
    y[w] += y_coef * g
    z[v] -= z_coef * g
    z[w] += z_coef * g


def dual_coefs(graph, fns, params):
    """``conjugate_update``'s per-edge table for the local functions ``fns``."""
    return [
        (fns[v], fns[w], p, params.gamma * r / (p * p), params.gamma_prime / p)
        for (v, w), r, p in zip(graph.edges, incidence_r(graph).tolist(),
                                graph.edge_probs.tolist())
    ]


def scalar_energy(x, target):
    d = x - target
    if d.ndim == 1:
        return 0.5 * float(d @ d)
    return sum(0.5 * float(col @ col) for col in d.T.copy())


def scalar_primal_error(fns, x_star, z):
    err = 0.0
    for f, zv in zip(fns, z.tolist() if z.ndim == 1 else z):
        d = conjugate_grad(f, zv) - x_star
        err += 0.5 * float(d * d if z.ndim == 1 else d @ d)
    return err


# ------------------------------------------------------------ whole runs

def replay(spec, run_index):
    """(metric -> the values of run ``run_index`` of ``spec`` at its
    checkpoints, number of events) by hand replay and scalar metrics."""
    grid = np.asarray(spec.checkpoints, dtype=float).tolist()
    streams = run_streams(spec.seed, run_index)
    if spec.kind == "optimize":
        return _replay_continuized(spec, grid, run_index)
    graph = spec.graph
    events = activations(graph, spec.horizon, streams)
    if spec.kind == "gossip":
        params = GossipParams.from_cache(graph.spectrum, spec.gossip_algo)
        x0 = spec.gossip_init
        raw = replay_nodes(graph, x0, params.mix_rate, accelerated_step,
                           [params.z_step] * graph.edge_count, events, grid)
        target = np.mean(x0) if x0.ndim == 1 else x0.T.copy().mean(axis=1)
        states = [synchronize(x, z, last_t, params.mix_rate, t)
                  for t, (x, z, last_t) in zip(grid, raw)]
        values = {"energy": [scalar_energy(x, target) for x, _ in states]}
        return values, len(events[0])
    cfg = spec.decentralized
    fns = runner._local_functions(spec)
    params = DualParams.from_graph(graph, cfg.mu, cfg.smoothness)
    dimension = np.size(fns[0].center)
    y0 = np.zeros(graph.node_count if dimension == 1 else (graph.node_count, dimension))
    raw = replay_nodes(graph, y0, params.eta, conjugate_update, dual_coefs(graph, fns, params),
                       events, grid)
    x_star = optimum_of(fns)
    values = {"primal_dist_sq": [
        scalar_primal_error(fns, x_star, synchronize(y, z, last_t, params.eta, t)[1])
        for t, (y, z, last_t) in zip(grid, raw)
    ]}
    return values, len(events[0])


def _replay_continuized(spec, grid, i):
    problem, schedule, clock = spec.problem, spec.algo.schedule, spec.algo.clock
    x0 = np.zeros(problem.dimension) if spec.algo.x0 is None else spec.algo.x0
    raw = replay_pairs(problem, spec.noise, schedule, clock, grid, x0, spec.horizon,
                       spec.seed, i)
    values = {"gap": [], "dist_sq": [], "lyapunov": []}
    for t, (x, z, now) in zip(grid, raw):
        state = Snapshot(t, *mix_rows(x, z, now, schedule, t))
        dx = state.x - problem.optimum
        values["gap"].append(problem.gap(state.x))
        values["dist_sq"].append(float(dx @ dx))
        values["lyapunov"].append(
            lyapunov_value(state, lyapunov_coeffs(schedule, t), problem))
    return values, len(event_times(clock, spec.horizon, run_streams(spec.seed, i)))
