import warnings

import numpy as np
import pytest

from continuized.problems import (
    DimensionMismatchError,
    InvalidProblemError,
    LeastSquaresProblem,
    NoiseModel,
    gradient,
    gradient_oracle,
    least_squares_from_text,
    make_least_squares,
    make_quadratic,
    noise_draws,
    noise_from_section,
    parse_int,
    problem_from_section,
    stochastic_gradient,
)


def hundred_dim():
    idx = np.arange(1, 101)
    return make_quadratic(1.0 / idx**2, 1.0 / idx)


def finite_difference(f, x, step=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestQuadratic:
    def test_benchmark_constants(self):
        p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
        assert p.smoothness == 1.0
        assert p.strong_convexity == 0.01
        assert p.value(np.zeros(3)) == pytest.approx(0.52, abs=1e-15)
        assert p.gap(p.optimum) == 0.0

    def test_one_dim_at_optimum(self):
        p = make_quadratic([1.0], [0.0])
        assert gradient(p, np.zeros(1)) == pytest.approx(0.0)
        assert p.gap(np.zeros(1)) == 0.0

    def test_hundred_dim_constants(self):
        p = hundred_dim()
        assert p.smoothness == 1.0
        assert p.strong_convexity == pytest.approx(1e-4)

    def test_gradient_formula_and_finite_differences(self):
        p = hundred_dim()
        g = gradient(p, np.zeros(100))
        idx = np.arange(1, 101)
        np.testing.assert_allclose(g, -1.0 / idx**3, rtol=1e-12)
        fd = finite_difference(p.value, np.zeros(100))
        np.testing.assert_allclose(g, fd, atol=1e-4)

    def test_gradient_zero_at_optimum(self):
        p = hundred_dim()
        assert np.linalg.norm(gradient(p, p.optimum)) <= 1e-10

    def test_gradient_is_linear(self):
        p = make_quadratic([2.0, 5.0], [1.0, -1.0])
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            a = rng.random()
            lhs = gradient(p, a * x + (1 - a) * y)
            rhs = a * gradient(p, x) + (1 - a) * gradient(p, y)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_simple_gradient(self):
        p = make_quadratic([2.0], [0.0])
        assert gradient(p, np.array([3.0]))[0] == pytest.approx(6.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidProblemError):
            make_quadratic([], [])
        with pytest.raises(InvalidProblemError):
            make_quadratic([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(InvalidProblemError):
            make_quadratic([-1.0], [0.0])
        with pytest.raises(DimensionMismatchError):
            gradient(make_quadratic([1.0], [0.0]), np.zeros(2))

    @pytest.mark.parametrize("diag, center, fault", [
        ([1.0, np.nan], [0.0, 0.0], "all quadratic curvatures must be finite and > 0"),
        ([np.inf, 1.0], [0.0, 0.0], "all quadratic curvatures must be finite and > 0"),
        ([1.0, 2.0], [np.nan, 0.0], "the center must be finite"),
        ([1.0, 2.0], [0.0, -np.inf], "the center must be finite"),
    ])
    def test_rejects_non_finite_inputs(self, diag, center, fault):
        with pytest.raises(InvalidProblemError, match=f"^{fault}$"):
            make_quadratic(diag, center)


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_points_match(self, seed):
        rng = np.random.default_rng(seed)
        quad = make_quadratic(rng.uniform(0.5, 2.0, 6), rng.standard_normal(6))
        atoms = rng.standard_normal((12, 4))
        ls = make_least_squares(atoms, rng.standard_normal(4))
        for p in (quad, ls):
            for _ in range(5):
                x = rng.standard_normal(p.dimension)
                g = gradient(p, x)
                fd = finite_difference(p.value, x)
                scale = max(np.linalg.norm(g), 1.0)
                assert np.linalg.norm(g - fd) / scale <= 1e-5


class TestLeastSquares:
    def test_noiseless_consistency(self):
        rng = np.random.default_rng(3)
        p = make_least_squares(rng.standard_normal((9, 4)), rng.standard_normal(4))
        assert np.max(np.abs(p.targets - p.atoms @ p.optimum)) <= 1e-10
        assert np.linalg.norm(gradient(p, p.optimum)) <= 1e-10

    def test_hessian_psd_and_symmetric(self):
        rng = np.random.default_rng(4)
        p = make_least_squares(rng.standard_normal((5, 5)), np.zeros(5))
        np.testing.assert_allclose(p.hessian, p.hessian.T)
        assert np.linalg.eigvalsh(p.hessian)[0] >= -1e-12

    def test_coordinate_sampling_r2_kappa(self):
        # a = sqrt(d) e_i uniformly: H = I and both constants equal d.
        d = 6
        atoms = np.sqrt(d) * np.eye(d)
        p = make_least_squares(atoms, np.zeros(d))
        np.testing.assert_allclose(p.hessian, np.eye(d), atol=1e-12)
        assert p.r_squared == pytest.approx(d, rel=1e-10)
        assert p.kappa_tilde == pytest.approx(d, rel=1e-10)

    def test_single_atom_kappa_is_one(self):
        p = make_least_squares(np.array([[3.0, 4.0]]), np.array([1.0, 1.0]))
        assert p.kappa_tilde == pytest.approx(1.0, rel=1e-10)
        assert p.r_squared == pytest.approx(25.0, rel=1e-10)  # |a|^2 since H = a a^T

    def test_triangle_gossip_atoms_r2(self):
        # edge-difference atoms on the triangle: |a|^2 = 2, so R^2 = 2 exactly
        atoms = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        p = make_least_squares(atoms, np.zeros(3))
        assert p.r_squared == pytest.approx(2.0, rel=1e-10)

    def test_kappa_tilde_at_most_kappa(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = make_least_squares(rng.standard_normal((20, 4)), rng.standard_normal(4))
            kappa = p.r_squared / p.strong_convexity
            assert p.kappa_tilde <= kappa * (1 + 1e-10)

    def test_atom_outside_hessian_span_rejected(self):
        from continuized.problems import _r2_kappa_tilde

        atoms = np.array([[1.0, 0.0], [0.0, 1.0]])
        rank_one = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidProblemError):
            _r2_kappa_tilde(atoms, np.array([0.5, 0.5]), rank_one)

    def test_weights_near_the_float_maximum_normalize(self):
        # their sum overflows, so they are scaled by their largest first
        samples = "1 0 | 0.5 | {w}\n0 1 | -1 | {w}"
        big = least_squares_from_text("0.5 -1", samples.format(w=1e308))
        assert big == least_squares_from_text("0.5 -1", samples.format(w=1))
        np.testing.assert_array_equal(big.weights, [0.5, 0.5])

    def test_weight_underflowing_to_zero_is_refused(self):
        samples = "1 0 | 0.5 | 1e308\n0 1 | -1 | 1e-300\n1 1 | -0.5 | 1e-300"
        with pytest.raises(InvalidProblemError, match="^sample weights underflow to 0 "
                           "beside the others on sample lines 2, 3$"):
            least_squares_from_text("0.5 -1", samples)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_is_refused(self, weight):
        # one fault naming the sample, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProblemError, match="^sample weights must be finite "
                               "and > 0 on sample lines 2$"):
                make_least_squares(np.eye(3), [1.0, 2.0, 3.0], [1.0, weight, 2.0])

    @pytest.mark.parametrize("atoms, optimum, fault", [
        ([[1.0, 0.0], [0.0, np.nan]], [1.0, 1.0], "sample atoms must be finite on sample lines 2"),
        ([[np.inf, 0.0], [0.0, 1.0], [1.0, -np.inf]], [1.0, 1.0],
         "sample atoms must be finite on sample lines 1, 3"),
        ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0], "the optimum must be finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.nan], "the optimum must be finite"),
    ], ids=["nan-atom", "infinite-atoms", "infinite-optimum", "nan-optimum"])
    def test_non_finite_atom_or_optimum_is_refused(self, atoms, optimum, fault):
        # the config refuses them in parse_floats; a direct call names them
        # too, with no numpy warning and not as an atom leaving the span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProblemError) as err:
                make_least_squares(atoms, optimum)
        assert str(err.value) == fault

    def test_domination_tightness(self):
        rng = np.random.default_rng(12)
        p = make_least_squares(rng.standard_normal((15, 4)), np.zeros(4))
        norms = np.einsum("ij,ij->i", p.atoms, p.atoms)
        m1 = (p.atoms * (p.weights * norms)[:, None]).T @ p.atoms
        slack = p.r_squared * p.hessian - m1
        eigvals = np.linalg.eigvalsh(slack)
        hnorm = np.linalg.norm(p.hessian, 2)
        assert eigvals[0] >= -1e-10 * hnorm  # domination holds
        assert eigvals[0] <= 1e-8 * hnorm  # and is tight

        hinv_norms = np.einsum("ij,jk,ik->i", p.atoms, p.hessian_pinv, p.atoms)
        m2 = (p.atoms * (p.weights * hinv_norms)[:, None]).T @ p.atoms
        slack2 = p.kappa_tilde * p.hessian - m2
        eigvals2 = np.linalg.eigvalsh(slack2)
        assert eigvals2[0] >= -1e-10 * hnorm
        assert eigvals2[0] <= 1e-8 * hnorm


class TestNoise:
    def test_additive_zero_variance_is_exact(self):
        p = hundred_dim()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        g = stochastic_gradient(p, NoiseModel.additive(0.0), x, rng)
        np.testing.assert_array_equal(g, gradient(p, x))

    def test_additive_moments(self):
        p = make_quadratic([1.0] * 5, [0.0] * 5)
        sigma2 = 0.3
        rng = np.random.default_rng(7)
        x = np.zeros(5)
        draws = np.array(
            [stochastic_gradient(p, NoiseModel.additive(sigma2), x, rng) for _ in range(10_000)]
        )
        second_moment = float(np.mean(np.sum(draws**2, axis=1)))
        # E|xi|^2 = sigma2; allow 5 standard errors of the chi^2 mean
        se = sigma2 * np.sqrt(2.0 / (5 * 10_000))
        assert abs(second_moment - sigma2) <= 5 * se
        assert np.max(np.abs(draws.mean(axis=0))) <= 5 * np.sqrt(sigma2 / 5 / 10_000)

    def test_multiplicative_zero_at_optimum(self):
        rng = np.random.default_rng(5)
        p = make_least_squares(rng.standard_normal((8, 3)), rng.standard_normal(3))
        for _ in range(50):
            g = stochastic_gradient(p, NoiseModel.multiplicative(), p.optimum, rng)
            assert np.max(np.abs(g)) <= 1e-12

    def test_multiplicative_unbiased(self):
        rng = np.random.default_rng(6)
        p = make_least_squares(rng.standard_normal((6, 3)), rng.standard_normal(3))
        x = rng.standard_normal(3)
        n = 100_000
        draws = np.array(
            [stochastic_gradient(p, NoiseModel.multiplicative(), x, rng) for _ in range(n)]
        )
        exact = gradient(p, x)
        se = draws.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 3 * se + 1e-12)

    def test_multiplicative_largest_uniform_draws_the_last_sample(self):
        # six equal weights sum to 1 - 2**-53, so the largest uniform lands
        # past the last sample unless it is clamped back to it
        p = make_least_squares(np.eye(6), np.arange(1.0, 7.0))
        assert p.sample_draw.cum[-1] <= 1.0 - 2.0**-53

        class Largest:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        g = stochastic_gradient(p, NoiseModel.multiplicative(), np.zeros(6), Largest())
        np.testing.assert_array_equal(g, [0.0, 0.0, 0.0, 0.0, 0.0, -6.0])

    @pytest.mark.parametrize("noise", [NoiseModel.additive(0.3), NoiseModel.multiplicative()])
    def test_one_block_draws_as_one_draw_per_gradient(self, noise):
        # the oracle over a block of K draws gives, call by call, the bits
        # of K single stochastic gradients on the same stream
        rng = np.random.default_rng(6)
        p = make_least_squares(rng.standard_normal((6, 3)), rng.standard_normal(3))
        xs = rng.standard_normal((200, 3))
        oracle = gradient_oracle(p, noise, noise_draws(p, noise, np.random.default_rng(1), 200))
        single = np.random.default_rng(1)
        for x in xs:
            np.testing.assert_array_equal(oracle(x), stochastic_gradient(p, noise, x, single))

    def test_no_noise_draws_nothing(self):
        p = hundred_dim()
        assert noise_draws(p, NoiseModel.none(), None, 5) is None
        assert gradient_oracle(p, NoiseModel.none(), None) == p.grad

    def test_multiplicative_requires_least_squares(self):
        p = hundred_dim()
        with pytest.raises(InvalidProblemError):
            stochastic_gradient(p, NoiseModel.multiplicative(), np.zeros(100), np.random.default_rng(0))


def _text(values) -> str:
    """Lossless decimal text of floats, as a config section writes them."""
    return " ".join(format(float(v), ".17g") for v in values)


class TestSerialization:
    # problems written as [problem] / [noise] section text and built back by
    # the config's section parsers
    def test_quadratic_round_trip(self):
        p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
        section = {"kind": "quadratic", "diag": _text(p.diag), "center": _text(p.optimum)}
        q = problem_from_section(section)
        np.testing.assert_array_equal(q.diag, p.diag)
        np.testing.assert_array_equal(q.optimum, p.optimum)
        noise = noise_from_section({"kind": "additive", "sigma2": "3e-4"})
        assert noise == NoiseModel.additive(3e-4)

    def test_least_squares_round_trip(self):
        rng = np.random.default_rng(9)
        p = make_least_squares(rng.standard_normal((4, 2)), rng.standard_normal(2),
                               rng.uniform(0.5, 1.0, 4))
        lines = [
            f"{_text(a)} | {_text([b])} | {_text([w])}"
            for a, b, w in zip(p.atoms, p.targets, p.weights)
        ]
        section = {"kind": "least_squares", "optimum": _text(p.optimum),
                   "samples": "\n" + "\n".join(lines)}
        q = problem_from_section(section)
        assert isinstance(q, LeastSquaresProblem)
        np.testing.assert_allclose(q.atoms, p.atoms)
        np.testing.assert_allclose(q.weights, p.weights)
        np.testing.assert_allclose(q.r_squared, p.r_squared)
        assert noise_from_section({"kind": "multiplicative"}).kind == "multiplicative"

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidProblemError):
            problem_from_section({"kind": "cubic"})


@pytest.mark.parametrize("value", ["7", " 7 ", 7, np.int64(7), np.uint8(7)])
def test_parse_int_reads_text_and_integer_types(value):
    assert parse_int(value, 7) == 7 and type(parse_int(value, 7)) is int


@pytest.mark.parametrize("value", ["7.0", "", 7.0, np.float64(7), True, np.True_, None, "6", 6])
def test_parse_int_refuses_all_else_with_one_message(value):
    with pytest.raises(InvalidProblemError) as err:
        parse_int(value, 7)
    assert str(err.value) == f"must be an integer >= 7, got {value!r}"
