import math
import re

import numpy as np
import pytest

from continuized.gossip import gossip_rates
from continuized.graphs import (
    DisconnectedGraphError,
    GraphError,
    SpectralCache,
    build_graph,
    complete_graph,
    cycle_graph,
    edge_list_graph,
    grid_graph,
    laplacian_matrix,
    line_graph,
    parse_edge_lines,
    spectral,
)


class TestConstruction:
    def test_line3(self):
        g = line_graph(3)
        assert g.edges == ((0, 1), (1, 2))
        np.testing.assert_allclose(g.edge_probs, [0.5, 0.5])

    def test_complete10(self):
        g = complete_graph(10)
        assert g.edge_count == 45
        np.testing.assert_allclose(g.edge_probs, 1.0 / 45.0)

    def test_grid_15x15(self):
        g = grid_graph(15, 15)
        assert g.node_count == 225
        assert g.edge_count == 2 * 15 * 14

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.edge_count == 5
        assert (0, 4) in g.edges

    def test_edge_list_weights_normalized(self):
        g = edge_list_graph([(0, 1), (1, 2)], weights=[2.0, 6.0])
        np.testing.assert_allclose(g.edge_probs, [0.25, 0.75])
        assert g.edge_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_near_float_max_normalized(self):
        # their sum overflows to inf, which used to turn every probability into 0
        g = edge_list_graph([(0, 1), (1, 2)], weights=[1e308, 1.5e308])
        np.testing.assert_allclose(g.edge_probs, [0.4, 0.6], rtol=1e-15)

    def test_rejects_weight_underflowing_to_probability_zero(self):
        with pytest.raises(GraphError, match=re.escape("edges [(1, 2)]")):
            edge_list_graph([(0, 1), (1, 2)], weights=[2.0, 5e-324])

    def test_parse_edge_lines(self):
        g = parse_edge_lines("0 1 0.5\n1 2 0.5\n")
        assert g.node_count == 3

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            edge_list_graph([(0, 1), (2, 3)])

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            edge_list_graph([(0, 0), (0, 1)])
        with pytest.raises(GraphError):
            edge_list_graph([(0, 1), (1, 0)])

    def test_rejects_tiny(self):
        with pytest.raises(GraphError):
            line_graph(1)

    @pytest.mark.parametrize("build, message", [
        (lambda: cycle_graph(2), "cycles need at least 3 nodes"),
        (lambda: grid_graph(1, 1), "grid needs at least 2 nodes"),
        (lambda: complete_graph(1), "graphs need at least 2 nodes"),
        (lambda: edge_list_graph([(0, 1), (1, 2)], weights=[1.0]),
         "need exactly one weight per edge"),
        (lambda: parse_edge_lines(" \n"), "empty edge list"),
        (lambda: edge_list_graph([]), "empty edge list"),
    ], ids=["cycle", "grid", "complete", "weight-count", "empty-edge-list", "no-edges"])
    def test_refusals_name_their_rule(self, build, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0)], "self-loop at node 0"),
        ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        ([(0, 1), (1, -2)], "edge (1, -2) leaves the node range"),
    ], ids=["self-loop", "duplicate", "out-of-range"])
    def test_single_edge_fault_keeps_its_message(self, edges, message):
        # a lone self-loop is named, not refused by the node-count rule
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            edge_list_graph(edges)

    def test_names_every_edge_fault(self):
        edges = [(0, 0), (1, 2), (2, 1), (3, -4), (5, 6)]
        with pytest.raises(GraphError) as caught:
            edge_list_graph(edges, weights=[1.0, 1.0, 1.0, 1.0, -1.0])
        assert str(caught.value) == (
            "self-loop at node 0; duplicate edge (1, 2); edge (3, -4) leaves the node range; "
            "edge weights must be finite and > 0; edges [(5, 6)] are not")
        assert caught.value.violations == [
            "self-loop at node 0", "duplicate edge (1, 2)", "edge (3, -4) leaves the node range",
            "edge weights must be finite and > 0; edges [(5, 6)] are not"]

    def test_non_integral_node_index_is_refused(self):
        # int() would truncate 1.7 to node 1 and build another graph; a
        # whole float names its node
        with pytest.raises(GraphError) as caught:
            edge_list_graph([(0, 1.7), (1.2, 2), (2, 3), (3, np.nan)])
        assert caught.value.violations == [
            f"edge {edge} has a node index that is not an integer"
            for edge in ("(0, 1.7)", "(1.2, 2)", "(3, nan)")]
        assert edge_list_graph([(0, 1.0), (np.float64(1.0), 2)]) == line_graph(3)

    @pytest.mark.parametrize("line", ["x 2 1.0", "1 2 abc", "1 2", "1 2 3 4"])
    def test_parse_edge_lines_names_the_bad_line(self, line):
        # Python's own int() and float() messages name no line
        with pytest.raises(GraphError) as caught:
            parse_edge_lines(f"0 1 1.0\n{line}\n")
        assert str(caught.value) == f"expected 'v w p', got {line!r}"

    def test_parse_edge_lines_names_every_bad_line(self):
        with pytest.raises(GraphError) as caught:
            parse_edge_lines("x 2 1.0\n0 1 1.0\n1 2 abc")
        assert str(caught.value) == (
            "expected 'v w p', got 'x 2 1.0'; expected 'v w p', got '1 2 abc'")
        assert caught.value.violations == [
            "expected 'v w p', got 'x 2 1.0'", "expected 'v w p', got '1 2 abc'"]

    def test_build_dispatch(self):
        assert build_graph("complete", nodes=4).edge_count == 6
        with pytest.raises(GraphError):
            build_graph("torus", nodes=4)


class TestValueEquality:
    def test_equal_graphs(self):
        a, b = line_graph(3), line_graph(3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        # edges are normalized to (min, max) and weights to probabilities
        assert edge_list_graph([(1, 0), (2, 1)], weights=[3.0, 3.0]) == a

    def test_different_weights(self):
        skewed = edge_list_graph([(0, 1), (1, 2)], weights=[1.0, 2.0])
        assert skewed.edges == line_graph(3).edges
        assert skewed != line_graph(3)

    def test_different_sizes(self):
        assert line_graph(3) != line_graph(4)
        assert line_graph(3) != "line 3"

    def test_spectrum_takes_no_part(self):
        a, b = line_graph(3), line_graph(3)
        assert a.spectrum.mu_gossip > 0
        assert a == b and hash(a) == hash(b)

    def test_dict_key(self):
        table = {line_graph(3): "line", grid_graph(2, 2): "grid"}
        assert table[line_graph(3)] == "line"
        assert table[grid_graph(2, 2)] == "grid"
        assert cycle_graph(4) not in table


class TestSpectral:
    def test_complete10_closed_form(self):
        # K_m with uniform weights: Laplacian (m I - J) / |E|, so the gossip
        # gap is m/|E| = 2/(m-1) and every resistance is (m-1)^2/m * 2/(m-1)
        cache = spectral(complete_graph(10))
        assert cache.mu_gossip == pytest.approx(2.0 / 9.0, abs=1e-12)
        np.testing.assert_allclose(cache.r_eff, 9.0, atol=1e-10)
        assert cache.r_max == pytest.approx(9.0, abs=1e-10)

    def test_line2_by_hand(self):
        cache = spectral(line_graph(2))
        np.testing.assert_allclose(
            laplacian_matrix(line_graph(2)), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )
        assert cache.mu_gossip == pytest.approx(2.0, abs=1e-12)
        # single unit-probability edge: resistance 1/P = 1
        assert cache.r_eff[0] == pytest.approx(1.0, abs=1e-12)

    def test_line30_path_spectrum(self):
        cache = spectral(line_graph(30))
        want = 2.0 * (1.0 - math.cos(math.pi / 30.0)) / 29.0
        assert cache.mu_gossip == pytest.approx(want, rel=1e-10)
        # uniform-weight tree: every edge resistance is 1/P = |E|
        np.testing.assert_allclose(cache.r_eff, 29.0, atol=1e-9)

    def test_spectrum_is_decomposed_once_per_graph(self):
        g = grid_graph(3, 4)
        assert g.spectrum is g.spectrum
        fresh = spectral(g)
        for name in ("mu_gossip", "r_eff", "r_max"):
            np.testing.assert_array_equal(getattr(g.spectrum, name), getattr(fresh, name))

    def test_laplacian_rebuild(self):
        g = grid_graph(4, 5)
        lap = np.zeros((20, 20))
        for (v, w), p in zip(g.edges, g.edge_probs):
            e = np.zeros(20)
            e[v], e[w] = 1.0, -1.0
            lap += p * np.outer(e, e)
        np.testing.assert_allclose(laplacian_matrix(g), lap, atol=1e-15)

    def test_laplacian_annihilates_constants(self):
        lap = laplacian_matrix(cycle_graph(7))
        np.testing.assert_allclose(lap @ np.ones(7), 0.0, atol=1e-14)

    @pytest.mark.parametrize("graph", [grid_graph(3, 4), cycle_graph(7), complete_graph(6),
                                       edge_list_graph([(0, 1), (1, 2), (0, 2), (2, 3)],
                                                       [1.0, 2.0, 3.0, 4.0])],
                             ids=["grid12", "cycle7", "complete6", "weighted4"])
    def test_resistances_match_the_pseudo_inverse(self, graph):
        # r_e = (e_v - e_w)^T L^+ (e_v - e_w), with numpy's pinv as the L^+
        pinv = np.linalg.pinv(laplacian_matrix(graph))
        want = [pinv[v, v] + pinv[w, w] - 2.0 * pinv[v, w] for v, w in graph.edges]
        np.testing.assert_allclose(spectral(graph).r_eff, want, rtol=1e-12, atol=0)

    def test_resistances_positive_and_bounded(self):
        for g in (line_graph(8), cycle_graph(9), grid_graph(3, 3), complete_graph(6)):
            cache = spectral(g)
            assert np.all(cache.r_eff > 0)
            # cited electrical bound: P_min * r_eff <= 1 on every edge
            assert np.all(g.edge_probs * cache.r_eff <= 1.0 + 1e-10)

    def test_rayleigh_monotonicity(self):
        # adding an edge never increases any effective resistance
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(5, 10))
            edges = [(i, i + 1) for i in range(n - 1)]
            extra = set()
            while len(extra) < 3:
                v, w = sorted(rng.choice(n, 2, replace=False))
                if (v, w) not in edges:
                    extra.add((int(v), int(w)))
            # the path spans nodes 0..n-1, so the node count is n
            base = edge_list_graph(edges, np.ones(len(edges)))
            assert base.node_count == n
            cache_base = spectral(base)
            # unnormalized conductances stay fixed; the new edge adds one
            new_edge = extra.pop()
            grown = edge_list_graph(edges + [new_edge], np.ones(len(edges) + 1))
            cache_grown = spectral(grown)
            # compare resistances of the shared edges with matching
            # conductances: rescale by the normalization factors
            r_base = cache_base.r_eff / len(edges)
            r_grown = cache_grown.r_eff[: len(edges)] / (len(edges) + 1)
            assert np.all(r_grown <= r_base + 1e-12)


class TestRates:
    def test_inconsistent_cache_refused(self):
        # theta_ARG >= theta_RG / 2 holds for every graph's own spectrum
        cache = SpectralCache(mu_gossip=1.0, r_eff=np.array([100.0]), r_max=100.0)
        with pytest.raises(RuntimeError, match="the spectral cache is inconsistent"):
            gossip_rates(cache)

    def test_complete10_rates(self):
        cache = spectral(complete_graph(10))
        theta_rg, theta_arg = gossip_rates(cache)
        assert theta_rg == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert theta_arg == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_line2_rates(self):
        theta_rg, theta_arg = gossip_rates(spectral(line_graph(2)))
        assert theta_rg == pytest.approx(2.0)
        assert theta_arg == pytest.approx(1.0)
        # the provable comparison holds with equality here
        assert theta_arg == pytest.approx(theta_rg / 2.0)

    def test_line30_acceleration(self):
        theta_rg, theta_arg = gossip_rates(spectral(line_graph(30)))
        assert theta_arg / theta_rg >= 3.0

    def test_rate_lower_bounds_all_families(self):
        for g in (line_graph(12), cycle_graph(10), grid_graph(4, 4),
                  complete_graph(8), edge_list_graph([(0, 1), (1, 2), (0, 2), (2, 3)])):
            cache = spectral(g)
            theta_rg, theta_arg = gossip_rates(cache)
            p_min = float(g.edge_probs.min())
            assert math.sqrt(theta_rg * p_min / 2.0) <= theta_arg + 1e-12
            assert theta_arg >= theta_rg / 2.0 - 1e-12
