import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from continuized.dynamics import mix_to_checkpoints
from continuized.gossip import (
    GossipParams,
    accelerated_step,
    lazy_mix_node,
    run_gossip,
    sample_event_stream,
    synchronized_values,
)
from continuized.graphs import (
    complete_graph,
    grid_graph,
    laplacian_matrix,
    line_graph,
    spectral,
)
from continuized.harness.presets import get_preset, preset_names
from continuized.problems import make_least_squares
from continuized.schedules import EVENT_CHUNK, ParamSchedule, first_block_size
from continuized.seeding import RunStreams, run_streams
from oracles import activations, energy_problem


def k10():
    g = complete_graph(10)
    return g, spectral(g)


class TestParams:
    def test_complete10_constants(self):
        _, cache = k10()
        p = GossipParams.from_cache(cache)
        assert p.mix_rate == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert p.z_step == pytest.approx(1.0 / math.sqrt(2.0 * (2.0 / 9.0) * 9.0))
        # c * z_step = 1 / (2 R_max)
        assert p.mix_rate * p.z_step == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_rejects_unknown_algo(self):
        _, cache = k10()
        with pytest.raises(ValueError):
            GossipParams.from_cache(cache, algo="turbo")


class TestNextEvent:
    """Marginals of the activations drawn by sample_event_stream."""

    def test_single_edge_always(self):
        g = line_graph(2)
        _, idx = sample_event_stream(g, 10.0, run_streams(0, 0))
        assert idx.size > 0
        assert all(g.edges[i] == (0, 1) for i in idx)

    def test_edge_marginal_uniform(self):
        g = line_graph(3)
        _, idx = sample_event_stream(g, 100_000.0, run_streams(1, 0))
        n = idx.size
        counts = {e: 0 for e in g.edges}
        for i in idx:
            counts[g.edges[i]] += 1
        for e in g.edges:
            # binomial(n, 1/2): three sigma around the mean
            assert abs(counts[e] - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_interarrival_mean(self):
        g, _ = k10()
        times, _ = sample_event_stream(g, 100_000.0, run_streams(2, 0))
        draws = np.diff(times, prepend=0.0)
        mean = float(np.mean(draws))
        assert abs(mean - 1.0) <= 3.0 / math.sqrt(len(draws))

    def test_stream_matches_distribution(self):
        g = line_graph(4)
        times, idx = sample_event_stream(g, 5000.0, run_streams(3, 0))
        assert np.all(np.diff(times) > 0)
        assert times[-1] <= 5000.0
        assert np.mean(np.diff(times)) == pytest.approx(1.0, rel=0.05)
        assert set(np.unique(idx)) <= {0, 1, 2}

    @pytest.mark.parametrize("graph", [grid_graph(15, 15), line_graph(11)],
                             ids=["grid225", "line11"])
    def test_largest_uniform_picks_the_last_edge(self, graph):
        # the cumulative probabilities end at or below the largest uniform
        # 1 - 2**-53 (grid225 at 0x1.fffffffffffe6p-1), so that draw lands
        # past the last edge unless it is clamped back to it
        assert graph.edge_draw.cum[-1] <= 1.0 - 2.0**-53

        class Largest:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        streams = RunStreams(clock=np.random.default_rng(0), noise=Largest())
        times, idx = sample_event_stream(graph, 5.0, streams)
        assert times.size > 0
        assert idx.tolist() == [graph.edge_count - 1] * times.size


NAIVE = GossipParams(mix_rate=0.0, z_step=0.0)


class TestSteps:
    def test_naive_params(self):
        _, cache = k10()
        assert GossipParams.from_cache(cache, "naive") == NAIVE

    def test_naive_averages(self):
        x, z = [0.0, 1.0], [0.0, 1.0]
        accelerated_step(x, z, 0, 1, NAIVE.z_step)
        assert x == [0.5, 0.5]
        assert z == [0.0, 1.0]

    def test_naive_noop_when_equal(self):
        x, z = [0.3, 0.3, 0.9], [0.3, 0.3, 0.9]
        accelerated_step(x, z, 0, 1, NAIVE.z_step)
        assert x[:2] == [0.3, 0.3]

    def test_naive_is_half_step_sgd(self):
        # pairwise averaging is a stochastic gradient step of size 1/2 on
        # the edge-difference energy
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(4)
        g = line_graph(4)
        x, z = x0.tolist(), x0.tolist()
        accelerated_step(x, z, 1, 2, NAIVE.z_step)
        a = np.zeros(4)
        a[1], a[2] = 1.0, -1.0
        want = x0 - 0.5 * float(a @ x0) * a
        np.testing.assert_allclose(x, want, atol=1e-15)

    def test_naive_conserves_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6).tolist()
        z = list(x)
        total = sum(x)
        for v, w in [(0, 1), (2, 3), (1, 4), (4, 5)]:
            accelerated_step(x, z, v, w, NAIVE.z_step)
        assert sum(x) == pytest.approx(total, abs=1e-12)

    def test_lazy_mix_identity_and_limit(self):
        x, z, clocks = [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]
        lazy_mix_node(x, z, clocks, 0, 0.0, 1.0)
        assert (x[0], z[0]) == (1.0, -1.0)
        lazy_mix_node(x, z, clocks, 0, 1e6, 1.0)
        assert x[0] == pytest.approx(0.0, abs=1e-12)
        assert z[0] == pytest.approx(0.0, abs=1e-12)

    def test_lazy_mix_refuses_a_node_past_the_time(self):
        x, z, clocks = [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]
        with pytest.raises(ValueError, match=r"^node 0 already past t = 1\.0$"):
            lazy_mix_node(x, z, clocks, 0, 1.0, 1.0)
        assert (x, z, clocks) == ([1.0, 0.0], [-1.0, 0.0], [2.0, 0.0])

    def test_lazy_mix_zero_rate_keeps_pair_bits(self):
        # naive gossip never mixes: contracting by exp(0) = 1 anyway would
        # turn x = -0.01 into -0.010000000000000002 here
        x, z, clocks = [-0.01, 0.7], [-0.1, 0.7], [0.0, 0.0]
        lazy_mix_node(x, z, clocks, 0, 5.0, 0.0)
        assert (x[0], z[0], clocks[0]) == (-0.01, -0.1, 5.0)

    def test_lazy_mix_matches_numeric_ode(self):
        c = 0.37
        x0, z0 = 2.0, -1.5
        xs, zs = [x0], [z0]
        lazy_mix_node(xs, zs, [0.0], 0, 2.0, c)
        # RK4 on the pair ODE
        x, z = x0, z0
        h = 1e-4
        for _ in range(20_000):
            def f(x, z):
                return c * (z - x), c * (x - z)
            k1 = f(x, z)
            k2 = f(x + h / 2 * k1[0], z + h / 2 * k1[1])
            k3 = f(x + h / 2 * k2[0], z + h / 2 * k2[1])
            k4 = f(x + h * k3[0], z + h * k3[1])
            x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            z += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        assert xs[0] == pytest.approx(x, abs=1e-8)
        assert zs[0] == pytest.approx(z, abs=1e-8)

    def test_accelerated_step_consensus_fixed_point(self):
        _, cache = k10()
        params = GossipParams.from_cache(cache)
        x, z = [0.4] * 10, [0.4] * 10
        accelerated_step(x, z, 0, 1, params.z_step)
        assert x[0] == x[1] == 0.4
        assert z[0] == z[1] == 0.4

    def test_accelerated_step_conserves_pair_sums(self):
        _, cache = k10()
        params = GossipParams.from_cache(cache)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10).tolist()
        z = list(x)
        sx, sz = sum(x), sum(z)
        accelerated_step(x, z, 2, 7, params.z_step)
        assert sum(x) == pytest.approx(sx, abs=1e-12)
        assert sum(z) == pytest.approx(sz, abs=1e-12)


class TestCrossModuleEquivalence:
    def test_one_step_matches_multiplicative_jump(self):
        # one accelerated gossip event equals the multiplicative-noise update
        # with atom e_v - e_w, stepsizes gamma = 1/2 and gamma' = z_step
        g = line_graph(2)
        cache = spectral(g)
        params = GossipParams.from_cache(cache)
        x, z, clocks = [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]
        t1 = 0.8
        lazy_mix_node(x, z, clocks, 0, t1, params.mix_rate)
        lazy_mix_node(x, z, clocks, 1, t1, params.mix_rate)
        accelerated_step(x, z, 0, 1, params.z_step)

        from continuized.dynamics import gradient_jump, initial_state, mix_closed_form

        prob = energy_problem(g, [0.0, 1.0])
        sched = ParamSchedule.multiplicative_strongly_convex(
            prob.r_squared, prob.kappa_tilde, cache.mu_gossip
        )
        state = initial_state(np.array([0.0, 1.0]))
        state = mix_closed_form(state, 0.0, sched, t1)
        a = np.array([1.0, -1.0])
        grad = float(a @ state[0]) * a
        state = gradient_jump(state, np.array([[0.5], [params.z_step]]), grad)
        np.testing.assert_allclose(state[0], x, atol=1e-12)
        np.testing.assert_allclose(state[1], z, atol=1e-12)

    def test_full_run_matches_continuized_optimizer(self):
        # a whole gossip trajectory equals the continuized multiplicative
        # optimizer on the edge-difference objective, event by event
        g = line_graph(5)
        cache = spectral(g)
        params = GossipParams.from_cache(cache)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(5)
        horizon = 40.0
        times, idx = sample_event_stream(g, horizon, run_streams(21, 0))
        tr = run_gossip(g, params, x0, horizon, run_streams(21, 0), checkpoints=times.tolist())
        assert len(tr.states) == len(times) > 0

        prob = energy_problem(g, x0)
        sched = ParamSchedule.multiplicative_strongly_convex(
            prob.r_squared, prob.kappa_tilde, cache.mu_gossip
        )
        # drive the generic optimizer on the same event stream
        from continuized.dynamics import gradient_jump, initial_state, mix_closed_form

        state, t = initial_state(x0), 0.0
        for (te, xs, zs), t_event, ei in zip(tr.states, times, idx):
            state, t = mix_closed_form(state, t, sched, float(t_event)), float(t_event)
            v, w = g.edges[ei]
            a = np.zeros(5)
            a[v], a[w] = 1.0, -1.0
            grad = float(a @ state[0]) * a
            state = gradient_jump(state, np.array([[0.5], [params.z_step]]), grad)
            np.testing.assert_allclose(state[0], xs, atol=1e-12)
            np.testing.assert_allclose(state[1], zs, atol=1e-12)


class TestRunGossip:
    def test_consensus_start_stays(self):
        g, cache = k10()
        params = GossipParams.from_cache(cache)
        tr = run_gossip(g, params, np.full(10, 0.7), 30.0, run_streams(4, 0),
                        checkpoints=[1.0, 10.0, 30.0])
        for e in tr.values["energy"]:
            assert e == pytest.approx(0.0, abs=1e-28)

    def test_checkpoint_past_horizon_rejected(self):
        g, cache = k10()
        params = GossipParams.from_cache(cache)
        with pytest.raises(ValueError, match=r"checkpoints \[50\.0\].*horizon = 10"):
            run_gossip(g, params, np.zeros(10), 10, run_streams(4, 0),
                       checkpoints=[5, 50])

    @pytest.mark.parametrize("shape", [(9,), (11,), (9, 2), (10, 1, 2), ()])
    def test_x0_not_one_value_or_row_per_node_rejected(self, shape):
        g, cache = k10()
        params = GossipParams.from_cache(cache)
        with pytest.raises(ValueError, match=r"node values have shape .*, not one per node of 10$"):
            run_gossip(g, params, np.ones(shape), 10.0, run_streams(4, 0), checkpoints=[10.0])

    @pytest.mark.parametrize("shape", [(9,), (9, 2)])
    def test_run_leaves_x0_unchanged(self, shape):
        # the runner hands every run of an ensemble the same x0 array: a
        # run that wrote into it would start the next run from its end state
        g = grid_graph(3, 3)
        params = GossipParams.from_cache(g.spectrum)
        x0 = np.random.default_rng(7).standard_normal(shape)
        before = x0.tobytes()
        tr = run_gossip(g, params, x0, 20.0, run_streams(8, 0), checkpoints=[5.0, 20.0])
        assert tr.events > 0
        assert x0.tobytes() == before
        assert not np.array_equal(tr.states[-1].x, x0)

    def test_conservation_after_sync(self):
        g = grid_graph(3, 3)
        cache = spectral(g)
        params = GossipParams.from_cache(cache)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(9)
        tr = run_gossip(g, params, x0, 50.0, run_streams(6, 0), checkpoints=[50.0])
        state = tr.states[-1]
        total = sum(state.x) + sum(state.z)
        assert total == pytest.approx(2.0 * x0.sum(), abs=1e-9)

    def test_naive_sum_conserved(self):
        g = line_graph(6)
        params = NAIVE
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(6)
        tr = run_gossip(g, params, x0, 40.0, run_streams(7, 0), checkpoints=[40.0])
        assert sum(tr.states[-1].x) == pytest.approx(x0.sum(), abs=1e-10)

    def test_lazy_equals_eager(self):
        # advancing only event endpoints must equal mixing every node at
        # every event: the mixing ODE is node-local
        g = line_graph(6)
        cache = spectral(g)
        params = GossipParams.from_cache(cache)
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(6)
        horizon = 25.0
        events = sample_event_stream(g, horizon, run_streams(9, 0))
        tr = run_gossip(g, params, x0, horizon, run_streams(9, 0),
                        checkpoints=events[0].tolist())
        assert len(tr.states) == len(events[0]) > 0

        # eager reference: numpy state, all nodes mixed to each event time
        xs = x0.copy()
        zs = x0.copy()
        t_prev = 0.0
        c = params.mix_rate
        for (te, x_lazy, z_lazy), t_event, ei in zip(tr.states, *events):
            d = math.exp(-2.0 * c * (float(t_event) - t_prev))
            mid = 0.5 * (xs + zs)
            xs = mid + (xs - mid) * d
            zs = mid + (zs - mid) * d
            v, w = g.edges[ei]
            xv, xw = xs[v], xs[w]
            xs[v] = xs[w] = 0.5 * (xv + xw)
            zs[v] += params.z_step * (xw - xv)
            zs[w] += params.z_step * (xv - xw)
            t_prev = float(t_event)
            np.testing.assert_allclose(x_lazy, xs, atol=1e-12)
            np.testing.assert_allclose(z_lazy, zs, atol=1e-12)

    def test_vector_values_componentwise(self):
        g = line_graph(4)
        cache = spectral(g)
        params = GossipParams.from_cache(cache)
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((4, 2))
        cps = [1.0, 5.0, 20.0]
        tr = run_gossip(g, params, x0, 20.0, run_streams(11, 0), checkpoints=cps)
        parts = [
            run_gossip(g, params, x0[:, j], 20.0, run_streams(11, 0), checkpoints=cps)
            for j in range(2)
        ]
        want = sum(np.asarray(p.values["energy"]) for p in parts)
        np.testing.assert_allclose(tr.values["energy"], want, atol=1e-12)

    def test_shared_events_reproduce(self):
        g, cache = k10()
        params = GossipParams.from_cache(cache)
        x0 = np.zeros(10)
        x0[0] = 1.0
        a = run_gossip(g, params, x0, 20.0, run_streams(12, 0), checkpoints=[20.0])
        b = run_gossip(g, params, x0, 20.0, run_streams(12, 0), checkpoints=[20.0])
        assert a.values["energy"][0] == b.values["energy"][0]


class TestEnergyProblem:
    def test_constants_match_graph(self):
        g, cache = k10()
        prob = energy_problem(g, np.arange(10.0))
        assert prob.r_squared == pytest.approx(2.0, rel=1e-10)
        assert prob.kappa_tilde == pytest.approx(cache.r_max, rel=1e-8)
        assert prob.strong_convexity == pytest.approx(cache.mu_gossip, rel=1e-10)
        np.testing.assert_allclose(prob.hessian, laplacian_matrix(g), atol=1e-12)


COORDS = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def pair_states(draw):
    """Node values x and z on n nodes, as float lists (d = 1) or (n, d)
    rows, node clocks in [0, 10], and an edge (v, w)."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))

    def node_values():
        flat = np.array(draw(st.lists(COORDS, min_size=n * d, max_size=n * d)))
        return flat.tolist() if d == 1 else flat.reshape(n, d)

    x, z = node_values(), node_values()
    clocks = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    v, w = draw(st.permutations(range(n)))[:2]
    return x, z, clocks, (v, w)


def _scale(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


@settings(deadline=None)
@given(pair_states(), st.floats(0.0, 10.0))
def test_accelerated_step_keeps_sums(case, z_step):
    # relative tolerance 1e-12 of the largest |x|, |z| before or after
    x, z, _, (v, w) = case
    x0, z0 = np.array(x), np.array(z)
    accelerated_step(x, z, v, w, z_step)
    x1, z1 = np.array(x), np.array(z)
    tol = 1e-12 * _scale(x0, z0, x1, z1)
    np.testing.assert_allclose(x1.sum(axis=0), x0.sum(axis=0), rtol=0, atol=tol)
    np.testing.assert_allclose(z1.sum(axis=0), z0.sum(axis=0), rtol=0, atol=tol)


@settings(deadline=None)
@given(pair_states(), st.floats(0.0, 10.0), st.floats(0.0, 20.0))
def test_lazy_mix_node_keeps_pair_sums(case, mix_rate, dt):
    # relative tolerance 1e-12 of the largest |x|, |z| before or after
    x, z, clocks, (v, _) = case
    x0, z0 = np.array(x), np.array(z)
    lazy_mix_node(x, z, clocks, v, clocks[v] + dt, mix_rate)
    x1, z1 = np.array(x), np.array(z)
    tol = 1e-12 * _scale(x0, z0, x1, z1)
    np.testing.assert_allclose(x1 + z1, x0 + z0, rtol=0, atol=tol)


def test_synchronized_values_refuses_a_clock_past_its_checkpoint():
    # every captured clock is an applied event time at or before its
    # checkpoint, so the guard is exact: a clock one ulp past is refused
    times = np.array([1.0, 2.0])
    last_t = np.array([[0.5, 1.0], [2.0, 1.5]])
    xs, zs = np.ones((2, 2)), np.zeros((2, 2))
    synchronized_values(xs.copy(), zs.copy(), last_t, 0.3, times)
    last_t[1, 0] = np.nextafter(2.0, np.inf)
    with pytest.raises(ValueError, match="already past"):
        synchronized_values(xs, zs, last_t, 0.3, times)


@pytest.mark.parametrize("schedule", [ParamSchedule.strongly_convex(1.0, 0.02),
                                      ParamSchedule.convex(1.0)])
def test_mix_to_checkpoints_refuses_a_clock_past_its_checkpoint(schedule):
    # the optimizer's finisher shares the gossip finisher's gap check: a pair
    # captured after its checkpoint is refused, not extrapolated backwards
    grid = np.array([2.0])
    xs, zs = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
    mix_to_checkpoints(xs, zs, np.full((1, 1, 1), 2.0), schedule, grid)
    with pytest.raises(ValueError, match="already past"):
        mix_to_checkpoints(xs, zs, np.full((1, 1, 1), 2.5), schedule, grid)


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3, 4, 2)])
def test_synchronized_values_leaves_its_stacks_unwritten(shape):
    # it returns new mixed stacks; a node at its checkpoint keeps its bits
    rng = np.random.default_rng(5)
    xs, zs = rng.standard_normal(shape), rng.standard_normal(shape)
    times = np.array([1.0, 2.0, 3.0])
    last_t = times[:, None] * rng.uniform(0.0, 1.0, shape[:3])
    last_t[0, 1, 2] = times[1]
    given = xs.copy(), zs.copy()
    mixed = synchronized_values(xs, zs, last_t, 0.3, times)
    for before, after, new in zip(given, (xs, zs), mixed):
        np.testing.assert_array_equal(after, before)
        assert new is not after and not np.array_equal(new, before)
        np.testing.assert_array_equal(new[0, 1, 2], before[0, 1, 2])


# ------------------------------------------------ event streams and edge picks

# The graphs of the gossip and decentralized presets.
PRESET_GRAPHS = {
    name: get_preset(name).graph for name in preset_names()
    if get_preset(name).kind in ("gossip", "decentralized")
}


class ScaledClock:
    """A clock stream whose Exp(1) draws are those of a generator seeded
    with ``seed``, times ``scale``; it logs the size of each draw.  Split
    draws read it as one draw does, as they read a numpy generator."""

    def __init__(self, seed, scale):
        self.rng, self.scale, self.sizes = np.random.default_rng(seed), scale, []

    def exponential(self, size):
        self.sizes.append(size)
        return self.rng.exponential(size=size) * self.scale


def _scaled_streams(seed, scale):
    return RunStreams(clock=ScaledClock(seed, scale), noise=np.random.default_rng(seed + 1))


def _nudged(t, side):
    return t if side == 0 else float(np.nextafter(t, side * np.inf))


def _assert_same_activations(graph, horizon, seed, scale):
    streams = _scaled_streams(seed, scale)
    times, picks = sample_event_stream(graph, horizon, streams)
    want_times, want_picks = activations(graph, horizon, _scaled_streams(seed, scale))
    assert np.array_equal(times, want_times) and np.array_equal(picks, want_picks)
    return streams.clock.sizes


SIDES = st.sampled_from([-1, 0, 1])


@settings(deadline=None)
@given(st.sampled_from(list(PRESET_GRAPHS)), st.integers(0, 2**32), st.floats(1.0, 3000.0),
       SIDES)
def test_stream_around_the_sized_first_draw(name, seed, base, side):
    # the waits are scaled so that the first draw's last time lands at the
    # horizon: one ulp under it the first draw covers the run, at it or over
    # it the rest of the first 4096-block is drawn
    size = first_block_size(base)
    scale = base / np.cumsum(np.random.default_rng(seed).exponential(size=size))[-1]
    last = float((0.0 + np.cumsum(ScaledClock(seed, scale).exponential(size)))[-1])
    horizon = _nudged(last, side)
    assume(first_block_size(horizon) == size < EVENT_CHUNK)
    sizes = _assert_same_activations(PRESET_GRAPHS[name], horizon, seed, scale)
    assert sizes[:2] == ([size] if side < 0 else [size, EVENT_CHUNK - size])


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(PRESET_GRAPHS)), st.integers(0, 2**32), st.floats(0.5, 1.5),
       st.sampled_from([1, 2]), SIDES)
def test_stream_around_the_block_boundaries(name, seed, scale, blocks, side):
    # horizons at, and one ulp around, the last time of the first or second
    # 4096-block
    clock, base = ScaledClock(seed, scale), 0.0
    for _ in range(blocks):
        base = (base + np.cumsum(clock.exponential(EVENT_CHUNK)))[-1]
    _assert_same_activations(PRESET_GRAPHS[name], _nudged(float(base), side), seed, scale)


def _least_squares_draw(weights, dimension=3):
    atoms = np.random.default_rng(len(weights)).standard_normal((len(weights), dimension))
    return make_least_squares(atoms, np.arange(1.0, dimension + 1.0), weights).sample_draw


# The weighted draws under test: the edge draw of every gossip and
# decentralized preset graph, and the sample draws of least-squares
# problems: six equal weights (their sums end at 1 - 2**-53), 420 random
# ones, 64 halving ones (most of the mass in the first buckets) and the
# edge-difference problem of the 15 x 15 grid, whose normalized weights
# are those of grid225 renormalized.
DRAWS = {
    **{name: graph.edge_draw for name, graph in PRESET_GRAPHS.items()},
    "least-squares-equal6": _least_squares_draw(np.ones(6), 6),
    "least-squares-random420": _least_squares_draw(np.random.default_rng(1).uniform(0.01, 1.0, 420)),
    "least-squares-halving64": _least_squares_draw(2.0 ** -np.arange(64.0)),
    "least-squares-grid225-energy":
        energy_problem(grid_graph(15, 15), np.arange(225.0)).sample_draw,
}


def _adversarial_uniforms(draw):
    """Uniforms at and one ulp around every bucket edge of the guide table
    and every running sum, with 0 and the largest uniform 1 - 2**-53;
    those outside [0, 1) are dropped."""
    m = 4 * draw.probs.size
    points = np.concatenate([np.arange(m + 1.0) / m, draw.cum, [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("name", list(DRAWS))
def test_guide_table_picks_equal_searchsorted(name):
    # 10M uniforms plus the adversarial ones, in chunks of 2**20: each pick
    # is the searchsorted index clamped to the last (halving64's sums reach
    # 1 before its last index, so even the largest uniform picks earlier)
    draw = DRAWS[name]
    last = draw.probs.size - 1
    rng = np.random.default_rng(20260917)
    chunks = [_adversarial_uniforms(draw)] + [rng.random(2**20) for _ in range(10)]
    for u in chunks:
        want = np.minimum(np.searchsorted(draw.cum, u, side="right"), last)
        assert np.array_equal(draw.pick(u), want)
    assert sum(map(len, chunks)) >= 10_000_000
