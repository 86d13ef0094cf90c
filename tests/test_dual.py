import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuized.dual import (
    DualParams,
    LocalFunction,
    conjugate_grad,
    decentralized_plan,
    dual_update,
    incidence_r,
    lazy_mix_dual_node,
    optimum_of,
    random_local_functions,
    run_decentralized,
)
from continuized.gossip import GossipParams, run_gossip
from continuized.graphs import complete_graph, edge_list_graph, grid_graph, line_graph, spectral
from continuized.harness.presets import get_preset, preset_names
from continuized.seeding import run_streams
from continuized.trace import record_run
from oracles import conjugate_update, event_times


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

    @pytest.mark.parametrize("curvature, center, fault", [
        (np.nan, [0.0], "curvature must be finite and > 0"),
        (np.inf, [0.0], "curvature must be finite and > 0"),
        (1.0, [np.nan], "the center must be finite"),
        (1.0, [0.0, np.inf], "the center must be finite"),
    ])
    def test_rejects_non_finite_inputs(self, curvature, center, fault):
        if fault.startswith("curvature"):  # parse_positive's refusal names the value
            fault += f", got {curvature}"
        with pytest.raises(ValueError, match=f"^{fault}$"):
            LocalFunction(curvature, np.array(center))

    def test_center_is_a_float_when_one_dimensional(self):
        assert type(LocalFunction(1.0, np.array([0.3])).center) is float
        center = LocalFunction(1.0, np.array([0.3, -0.1])).center
        assert center.shape == (2,) and not center.flags.writeable

    def test_optimum_weighted_mean(self):
        fns = [LocalFunction(1.0, np.array([1.0])), LocalFunction(3.0, np.array([-1.0]))]
        assert optimum_of(fns) == pytest.approx((1.0 - 3.0) / 4.0)


class TestIncidence:
    def test_line2_projector(self):
        g = line_graph(2)
        r = incidence_r(g)
        # rank-one projector in edge space: R_e = 1 on the single edge
        assert r[0] == pytest.approx(1.0, abs=1e-12)

    def test_complete10_value(self):
        g = complete_graph(10)
        r = incidence_r(g)
        np.testing.assert_allclose(r, 1.0 / 5.0, atol=1e-10)

    @pytest.mark.parametrize("graph", [line_graph(7), complete_graph(6), grid_graph(3, 4)])
    def test_trace_identity(self, graph):
        # sum of the projector diagonal equals its rank, node_count - 1
        r = incidence_r(graph)
        assert r.sum() == pytest.approx(graph.node_count - 1, rel=1e-10)


class TestDualParams:
    def test_line10_constants(self):
        g = line_graph(10)
        cache = spectral(g)
        p = DualParams.from_graph(g, 0.1, 1.0)
        # uniform tree: R_e / P_e = r_eff = 9 on every edge
        assert p.l_dual == pytest.approx(90.0, rel=1e-10)
        assert p.theta_arg_prime == pytest.approx(math.sqrt(cache.mu_gossip / 9.0), rel=1e-10)
        assert p.eta == pytest.approx(p.theta_arg_prime / math.sqrt(10.0), rel=1e-12)
        assert p.gamma == pytest.approx(1.0 / 90.0, rel=1e-12)
        assert p.gamma_prime == pytest.approx(math.sqrt(1.0 / (cache.mu_gossip * 90.0)), rel=1e-10)

    @pytest.mark.parametrize("graph", [
        *(get_preset(name).graph for name in preset_names() if get_preset(name).graph),
        edge_list_graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], [0.4, 0.05, 0.2, 0.3, 0.05]),
    ])
    def test_dual_smoothness_dominates_every_edge(self, graph):
        # l_dual bounds M_ee R_e / P_e^2 = R_e / (P_e mu) on every edge, where
        # M_ee = P_e / mu is the conjugate Hessian's directional smoothness;
        # the two sides round in different orders, so they may differ by ulps
        mu = 0.1
        bound = incidence_r(graph) / (graph.edge_probs * mu)
        assert np.all(DualParams.from_graph(graph, mu, 1.0).l_dual >= bound * (1 - 1e-12))

    def test_rejects_bad_mu(self):
        g = line_graph(3)
        with pytest.raises(ValueError):
            DualParams.from_graph(g, 2.0, 1.0)


class TestDualUpdate:
    def _setup(self):
        g = line_graph(3)
        params = DualParams.from_graph(g, 1.0, 1.0)
        r = incidence_r(g)
        return g, params, r

    @staticmethod
    def _coefs(g, params, r, e, fv, fw):
        p_e = float(g.edge_probs[e])
        return (fv.center, fv.curvature, fw.center, fw.curvature,
                p_e, params.gamma * float(r[e]) / (p_e * p_e), params.gamma_prime / p_e)

    def test_dual_consensus_is_fixed_point(self):
        g, params, r = self._setup()
        fns = [LocalFunction(1.0, np.array([0.5])) for _ in range(3)]
        y, z = [0.0] * 3, [0.0] * 3
        dual_update(y, z, 0, 1, self._coefs(g, params, r, 0, fns[0], fns[1]))
        np.testing.assert_allclose(y, 0.0, atol=1e-15)
        np.testing.assert_allclose(z, 0.0, atol=1e-15)

    def test_antisymmetric_and_mean_zero(self):
        g, params, r = self._setup()
        rng = np.random.default_rng(1)
        fns = [LocalFunction(float(c), rng.standard_normal(2))
               for c in rng.uniform(0.5, 1.0, 3)]
        y = rng.standard_normal((3, 2))
        y -= y.mean(axis=0)
        z = rng.standard_normal((3, 2))
        z -= z.mean(axis=0)
        dual_update(y, z, 1, 2, self._coefs(g, params, r, 1, fns[1], fns[2]))
        np.testing.assert_allclose(y.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.sum(axis=0), 0.0, atol=1e-12)

    def test_lazy_mix_matches_pair_contraction(self):
        y, z = [3.0, 0.0], [-1.0, 0.0]
        lazy_mix_dual_node(y, z, [0.0, 0.0], 0, 2.0, 0.25)
        d = math.exp(-2.0 * 0.25 * 2.0)
        assert y[0] == pytest.approx(1.0 + 2.0 * d)
        assert z[0] == pytest.approx(1.0 - 2.0 * d)


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
        state = tr.states[-1]
        for v, f in enumerate(fns):
            np.testing.assert_allclose(conjugate_grad(f, state.z[v]), 0.0, atol=1e-6)
        assert tr.values["primal_dist_sq"][0] <= 1e-12

    def test_mean_zero_preserved_after_sync(self):
        g = grid_graph(3, 3)
        rng = np.random.default_rng(2)
        fns = random_local_functions(9, 0.5, 1.0, 2, rng)
        tr = run_decentralized(g, fns, 0.5, 1.0, 40.0, run_streams(3, 0), checkpoints=[40.0])
        state = tr.states[-1]
        np.testing.assert_allclose(state.x.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(state.z.sum(axis=0), 0.0, atol=1e-9)

    def test_mixed_dimensions_rejected(self):
        g = line_graph(2)
        fns = [LocalFunction(1.0, np.zeros(1)), LocalFunction(1.0, np.zeros(2))]
        with pytest.raises(ValueError, match=r"local functions mix dimensions \[1, 2\]"):
            run_decentralized(g, fns, 1.0, 1.0, 1.0, run_streams(0, 0), checkpoints=[1.0])

    def test_local_function_count_must_match_nodes(self):
        g = line_graph(3)
        fns = [LocalFunction(1.0, 0.0), LocalFunction(1.0, 1.0)]
        params = DualParams.from_graph(g, 1.0, 1.0)
        with pytest.raises(ValueError, match="^need one local function per node$"):
            decentralized_plan(g, fns, 1.0, 1.0, 1.0, params, [1.0])

    def test_curvature_outside_bounds_rejected(self):
        g = line_graph(2)
        fns = [LocalFunction(5.0, np.zeros(1)), LocalFunction(1.0, np.zeros(1))]
        with pytest.raises(ValueError):
            run_decentralized(g, fns, 0.5, 1.0, 1.0, run_streams(0, 0), checkpoints=[1.0])


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
        times = event_times(graph, horizon, run_streams(5, 0))
        tr_gossip = run_gossip(graph, gparams, x0, horizon, run_streams(5, 0),
                               checkpoints=times)

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
        plan = decentralized_plan(graph, fns, 1.0, 1.0, horizon, dparams, times)
        tr_dual = record_run(plan, run_streams(5, 0))
        assert len(tr_gossip.states) == len(tr_dual.states) == len(times) > 0
        for (tg, xg, zg), (td, yd, zd) in zip(tr_gossip.states, tr_dual.states):
            assert tg == td
            np.testing.assert_allclose(x0 + yd, xg, atol=1e-10)
            np.testing.assert_allclose(x0 + zd, zg, atol=1e-10)


COORDS = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def dual_update_cases(draw):
    """Dual node values y and z on n nodes, as float lists (d = 1) or (n, d)
    rows, the nodes' conjugate data, an edge (v, w) and its coefficients."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))

    def node_values():
        flat = draw(st.lists(COORDS, min_size=n * d, max_size=n * d))
        return np.array(flat).reshape(n, d)

    y, z, centers = node_values(), node_values(), node_values()
    if d == 1:
        y, z = y[:, 0].tolist(), z[:, 0].tolist()
    curvatures = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    nodes = [LocalFunction(c, centers[v]) for v, c in enumerate(curvatures)]
    v, w = draw(st.permutations(range(n)))[:2]
    coefs = tuple(draw(st.floats(1e-3, 10.0)) for _ in range(3))  # P_e, y_coef, z_coef
    return y, z, nodes, (v, w), coefs


@settings(deadline=None)
@given(dual_update_cases())
def test_dual_update_antisymmetric_and_keeps_sums(case):
    # relative tolerance 1e-12 of the largest |y|, |z| before or after
    y, z, nodes, (v, w), coefs = case
    y0, z0 = np.array(y), np.array(z)
    fv, fw = nodes[v], nodes[w]
    dual_update(y, z, v, w, (fv.center, fv.curvature, fw.center, fw.curvature, *coefs))
    y1, z1 = np.array(y), np.array(z)
    assert y1.shape == y0.shape and z1.shape == z0.shape
    tol = 1e-12 * max(np.max(np.abs(a)) for a in (y0, z0, y1, z1))
    others = [u for u in range(len(y0)) if u not in (v, w)]
    np.testing.assert_array_equal(y1[others], y0[others])
    np.testing.assert_array_equal(z1[others], z0[others])
    for new, old in ((y1, y0), (z1, z0)):
        np.testing.assert_allclose(new[v] - old[v], old[w] - new[w], rtol=0, atol=tol)
        np.testing.assert_allclose(new.sum(axis=0), old.sum(axis=0), rtol=0, atol=tol)


@settings(deadline=None)
@given(dual_update_cases())
def test_dual_update_equals_the_conjugate_grad_form(case):
    # the kernel reads each node's center and curvature as plain numbers and
    # computes c + y / k as conjugate_grad does, so it keeps every bit
    y, z, nodes, (v, w), coefs = case
    fv, fw = nodes[v], nodes[w]
    want_y, want_z = copy.deepcopy(y), copy.deepcopy(z)
    conjugate_update(want_y, want_z, v, w, (fv, fw, *coefs))
    dual_update(y, z, v, w, (fv.center, fv.curvature, fw.center, fw.curvature, *coefs))
    assert np.array_equal(y, want_y) and np.array_equal(z, want_z)


# A d = 1 dual on a graph with non-uniform resistances and random curvatures,
# pinned as float.hex: primal_dist_sq at every checkpoint, then the terminal
# y and z of each node.  Recorded while the dual still kept (n, 1) rows, so
# the float-node path must reproduce the row path bit for bit.
FLOAT_PATH_GRID = [1.0, 4.0, 12.0, 30.0]
FLOAT_PATH_GOLDEN = {
    0: (
        ["0x1.52cd729c60d94p+1", "0x1.7528c9e4f9bc4p+0", "0x1.f938272ea5d22p-2",
         "0x1.b2e747ad87976p-5"],
        ["-0x1.4594bd581ee9fp-1", "-0x1.15fa695b7a3d3p-1", "0x1.22f27aa5e1720p-2",
         "0x1.35d5b6e6ff510p-3", "-0x1.a457e60b6c2fap-2", "-0x1.6cf9b3e6a1163p-1",
         "0x1.c017c22b7ede8p-3", "0x1.07f1281e5661ep-3", "0x1.84e1f400653bep+0"],
        ["-0x1.54977db0b6085p-1", "-0x1.334f826be5f39p-1", "0x1.1438ae2efcbe6p-2",
         "0x1.af2b5ab46799dp-3", "-0x1.7d249d4432ac6p-2", "-0x1.75043fcebfb21p-1",
         "0x1.a0a62acae154fp-3", "0x1.425b1369989bap-3", "0x1.866b089ddf212p+0"],
    ),
    1: (
        ["0x1.571cd8acc6478p+1", "0x1.56699acb80583p+1", "0x1.10fc0c6a709a3p+2",
         "0x1.bf846085da5c8p-1"],
        ["-0x1.6582187938517p-1", "-0x1.c0e85d0d82c53p-2", "0x1.3271a5215e63ap-2",
         "0x1.3cf07a9ac1009p-2", "-0x1.b8ed912279fabp-2", "-0x1.e46ed6cc13187p-2",
         "0x1.29d7dfe2364bdp-1", "-0x1.4c41c105d9492p-2", "0x1.2c9e35dcf3721p+0"],
        ["-0x1.8e9e43d953729p-1", "-0x1.06b208c55f529p-1", "0x1.ee61ea2b92ca8p-3",
         "0x1.d5fa94bcc9298p-2", "-0x1.10e0990189b78p-1", "-0x1.df097e22d05e9p-2",
         "0x1.5bb764f6e27afp-1", "-0x1.5e5cfadb00e04p-2", "0x1.414b7c1f7cacdp+0"],
    ),
    2: (
        ["0x1.56c321764e37fp+1", "0x1.525321a40d809p+1", "0x1.1bafddbe8d69ep+0",
         "0x1.3d4c0b82061cep-2"],
        ["-0x1.a4d37db45c328p-1", "-0x1.43bcf8931960dp-1", "0x1.4f3cc35362f61p-3",
         "0x1.e62959292a6d1p-3", "-0x1.c275f696519e7p-2", "-0x1.bc460d01ed14cp-1",
         "0x1.63fcdbe3b80ffp-1", "0x1.dbd48e8a48f7ap-4", "0x1.8ca044e03377cp+0"],
        ["-0x1.bccfce3dd9b86p-1", "-0x1.66bfb4f803e9bp-1", "0x1.8ce17303aa3fdp-3",
         "0x1.7c5d58bdbd4fdp-2", "-0x1.f2816e20c4c65p-2", "-0x1.bb29006949424p-1",
         "0x1.79dae1c9d637ap-1", "0x1.29a1d94a48708p-4", "0x1.8bc18a4e5064ep+0"],
    ),
}


@pytest.mark.parametrize("run", sorted(FLOAT_PATH_GOLDEN))
def test_one_dimensional_dual_matches_recorded_run(run):
    g = grid_graph(3, 3)
    fns = random_local_functions(9, 0.5, 1.0, 1, np.random.default_rng(13))
    tr = run_decentralized(g, fns, 0.5, 1.0, 30.0, run_streams(2028, run),
                           checkpoints=FLOAT_PATH_GRID)
    state = tr.states[-1]
    got = (
        [float(v).hex() for v in tr.values["primal_dist_sq"]],
        [v.hex() for v in np.ravel(state.x).tolist()],
        [v.hex() for v in np.ravel(state.z).tolist()],
    )
    assert got == FLOAT_PATH_GOLDEN[run]
