import math

import numpy as np
import pytest

from continuized.dual import (
    DualParams,
    LocalFunction,
    conjugate_grad,
    dual_update,
    incidence_r,
    initial_dual_state,
    lazy_mix_dual_node,
    optimum_of,
    random_local_functions,
    run_decentralized,
)
from continuized.gossip import GossipParams, run_gossip, sample_event_stream
from continuized.graphs import complete_graph, grid_graph, line_graph, spectral
from continuized.seeding import run_streams


class TestLocalFunction:
    def test_conjugate_at_zero_is_minimizer(self):
        f = LocalFunction(2.0, np.array([1.5, -0.5]))
        np.testing.assert_allclose(conjugate_grad(f, np.zeros(2)), f.center)

    def test_unit_curvature(self):
        f = LocalFunction(1.0, np.array([0.3]))
        np.testing.assert_allclose(conjugate_grad(f, np.array([2.0])), [2.3])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        f = LocalFunction(0.7, rng.standard_normal(3))
        for _ in range(20):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(conjugate_grad(f, f.grad(x)), x, atol=1e-10)

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            LocalFunction(0.0, np.zeros(1))

    def test_optimum_weighted_mean(self):
        fns = [LocalFunction(1.0, np.array([1.0])), LocalFunction(3.0, np.array([-1.0]))]
        assert optimum_of(fns)[0] == pytest.approx((1.0 - 3.0) / 4.0)


class TestIncidence:
    def test_line2_projector(self):
        g = line_graph(2)
        r = incidence_r(g, spectral(g))
        # rank-one projector in edge space: R_e = 1 on the single edge
        assert r[0] == pytest.approx(1.0, abs=1e-12)

    def test_complete10_value(self):
        g = complete_graph(10)
        r = incidence_r(g, spectral(g))
        np.testing.assert_allclose(r, 1.0 / 5.0, atol=1e-10)

    @pytest.mark.parametrize("graph", [line_graph(7), complete_graph(6), grid_graph(3, 4)])
    def test_trace_identity(self, graph):
        # sum of the projector diagonal equals its rank, node_count - 1
        r = incidence_r(graph, spectral(graph))
        assert r.sum() == pytest.approx(graph.node_count - 1, rel=1e-10)


class TestDualParams:
    def test_line10_constants(self):
        g = line_graph(10)
        cache = spectral(g)
        p = DualParams.from_graph(g, cache, 0.1, 1.0)
        # uniform tree: R_e / P_e = r_eff = 9 on every edge
        assert p.l_dual == pytest.approx(90.0, rel=1e-10)
        assert p.theta_arg_prime == pytest.approx(math.sqrt(cache.mu_gossip / 9.0), rel=1e-10)
        assert p.eta == pytest.approx(p.theta_arg_prime / math.sqrt(10.0), rel=1e-12)
        assert p.gamma == pytest.approx(1.0 / 90.0, rel=1e-12)
        assert p.gamma_prime == pytest.approx(math.sqrt(1.0 / (cache.mu_gossip * 90.0)), rel=1e-10)

    def test_rejects_bad_mu(self):
        g = line_graph(3)
        with pytest.raises(ValueError):
            DualParams.from_graph(g, spectral(g), 2.0, 1.0)


class TestDualUpdate:
    def _setup(self):
        g = line_graph(3)
        cache = spectral(g)
        params = DualParams.from_graph(g, cache, 1.0, 1.0)
        r = incidence_r(g, cache)
        return g, params, r

    def test_dual_consensus_is_fixed_point(self):
        g, params, r = self._setup()
        fns = [LocalFunction(1.0, np.array([0.5])) for _ in range(3)]
        state = initial_dual_state(3, 1)
        dual_update(state, (0, 1), params, fns[0], fns[1], 1.0,
                    r_e=float(r[0]), p_e=float(g.edge_probs[0]))
        np.testing.assert_allclose(state.y, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.z, 0.0, atol=1e-15)

    def test_antisymmetric_and_mean_zero(self):
        g, params, r = self._setup()
        rng = np.random.default_rng(1)
        fns = [LocalFunction(float(c), rng.standard_normal(2))
               for c in rng.uniform(0.5, 1.0, 3)]
        state = initial_dual_state(3, 2)
        state.y = rng.standard_normal((3, 2))
        state.y -= state.y.mean(axis=0)
        state.z = rng.standard_normal((3, 2))
        state.z -= state.z.mean(axis=0)
        dual_update(state, (1, 2), params, fns[1], fns[2], 1.0,
                    r_e=float(r[1]), p_e=float(g.edge_probs[1]))
        np.testing.assert_allclose(state.y.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(state.z.sum(axis=0), 0.0, atol=1e-12)

    def test_lazy_mix_matches_pair_contraction(self):
        state = initial_dual_state(2, 1)
        state.y[0] = 3.0
        state.z[0] = -1.0
        lazy_mix_dual_node(state, 0, 2.0, 0.25)
        d = math.exp(-2.0 * 0.25 * 2.0)
        assert state.y[0, 0] == pytest.approx(1.0 + 2.0 * d)
        assert state.z[0, 0] == pytest.approx(1.0 - 2.0 * d)


class TestRunDecentralized:
    def test_identical_functions_stay_at_optimum(self):
        g = line_graph(4)
        fns = [LocalFunction(1.0, np.array([0.8])) for _ in range(4)]
        tr = run_decentralized(g, fns, 1.0, 1.0, 30.0, run_streams(0, 0),
                               checkpoints=[1.0, 10.0, 30.0])
        for err in tr.values["primal_dist_sq"]:
            assert err == pytest.approx(0.0, abs=1e-25)

    def test_two_node_converges_to_shared_minimizer(self):
        g = line_graph(2)
        fns = [LocalFunction(1.0, np.array([1.0])), LocalFunction(1.0, np.array([-1.0]))]
        tr = run_decentralized(g, fns, 1.0, 1.0, 200.0, run_streams(1, 0),
                               checkpoints=[200.0])
        state = tr.terminal_state
        for v, f in enumerate(fns):
            np.testing.assert_allclose(conjugate_grad(f, state.z[v]), 0.0, atol=1e-6)
        assert tr.metric_at([200.0], "primal_dist_sq")[0] <= 1e-12

    def test_mean_zero_preserved_after_sync(self):
        g = grid_graph(3, 3)
        rng = np.random.default_rng(2)
        fns = random_local_functions(9, 0.5, 1.0, 2, rng)
        tr = run_decentralized(g, fns, 0.5, 1.0, 40.0, run_streams(3, 0))
        state = tr.terminal_state
        np.testing.assert_allclose(state.y.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(state.z.sum(axis=0), 0.0, atol=1e-9)

    def test_curvature_outside_bounds_rejected(self):
        g = line_graph(2)
        fns = [LocalFunction(5.0, np.zeros(1)), LocalFunction(1.0, np.zeros(1))]
        with pytest.raises(ValueError):
            run_decentralized(g, fns, 0.5, 1.0, 1.0, run_streams(0, 0))


class TestGossipReduction:
    @pytest.mark.parametrize("graph", [line_graph(10), complete_graph(10)])
    def test_per_event_match_with_shared_parameters(self, graph):
        # unit-curvature quadratics reduce the dual run to accelerated
        # gossip; with shared event sequences and shared constants the two
        # trajectories coincide event by event
        cache = spectral(graph)
        gparams = GossipParams.from_cache(cache)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(graph.node_count)
        horizon = 50.0
        events = sample_event_stream(graph, horizon, run_streams(5, 0))

        tr_gossip = run_gossip(graph, gparams, x0, horizon, run_streams(6, 0),
                               events=events, record_states=True)

        fns = [LocalFunction(1.0, np.array([v])) for v in x0]
        r_eff = cache.r_eff
        assert np.allclose(r_eff, r_eff[0])  # uniform resistances here
        dparams = DualParams(
            l_dual=float(r_eff[0]),
            theta_arg_prime=float(np.sqrt(cache.mu_gossip / r_eff[0])),
            eta=gparams.mix_rate,
            gamma=1.0 / (2.0 * float(r_eff[0])),
            gamma_prime=gparams.z_step,
        )
        tr_dual = run_decentralized(graph, fns, 1.0, 1.0, horizon, run_streams(6, 0),
                                    cache=cache, params=dparams, events=events,
                                    record_states=True)
        assert len(tr_gossip.event_states) == len(tr_dual.event_states)
        for (tg, xg, zg), (td, yd, zd) in zip(tr_gossip.event_states, tr_dual.event_states):
            assert tg == td
            np.testing.assert_allclose(x0 + yd[:, 0], xg, atol=1e-10)
            np.testing.assert_allclose(x0 + zd[:, 0], zg, atol=1e-10)
