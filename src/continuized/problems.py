"""Convex objectives, gradient oracles, and the constants the schedules consume.

Two problem families ship with the package: separable quadratics
``f(x) = 1/2 sum_i d_i (x_i - c_i)^2`` and finite atomic least-squares
objectives ``f(x) = sum_i w_i 1/2 (b_i - <a_i, x>)^2`` whose targets are
consistent (``b_i = <a_i, x_*>``), so their stochastic gradients carry pure
multiplicative noise.  Least-squares instances are finite weighted sample
lists, which keeps all expectations exact sums and makes the curvature
constants (L, mu, R^2, kappa_tilde) computable in closed form.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .records import Record

Array = np.ndarray

_EIG_REL_TOL = 1e-12


class InvalidProblemError(ValueError):
    """Raised when a problem description violates its invariants."""


class DimensionMismatchError(ValueError):
    """Raised when a point does not match the problem dimension."""


def row_dots(a: Array, b: Array) -> Array:
    """Dot products of matching rows of ``a`` and ``b`` over the last axis.

    The batched ``np.matmul`` form matches ``a @ b`` row by row bit for bit
    when the rows are contiguous (``einsum`` and ``(a * b).sum`` do not), so
    a stack of states measures exactly as each state alone.  1-D inputs give
    a 0-d array.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class ConvexProblem(Record):
    """An L-smooth, mu-strongly-convex objective with exact oracles.

    Each family defines ``value(x)`` and ``grad(x)`` over its own fields;
    ``value`` also takes a (C, d) stack of points, one value per row.

    Attributes:
        dimension: ambient dimension d.
        optimum: a minimizer x_*.
        smoothness: smoothness constant L (quadratic upper curvature).
        strong_convexity: strong convexity mu >= 0 (0 means merely convex;
            for singular least-squares Hessians this is the smallest positive
            curvature on the span of the data).
    """

    dimension: int
    optimum: Array
    smoothness: float
    strong_convexity: float

    def gap(self, x: Array):
        """f(x) - f(x_*), which is f(x): both families vanish at x_*.  A
        (..., d) stack of points gives the (...) gaps of its rows."""
        return self.value(np.asarray(x, dtype=float))


class QuadraticProblem(ConvexProblem):
    """Separable quadratic centered at ``optimum``; ``diag`` holds the
    per-coordinate curvatures."""

    diag: Array

    def value(self, x: Array):
        d = x - self.optimum
        return 0.5 * row_dots(self.diag * d, d)

    def grad(self, x: Array) -> Array:
        return self.diag * (x - self.optimum)


class WeightedDraw(Record):
    """The draw of index i of a finite weighted set with probability
    ``probs[i]``: the first index whose running sum ``cum`` exceeds a
    uniform u, or the last index when rounding leaves ``cum`` at or below u.

    ``pick`` finds it at O(1) per uniform through a guide table built with
    the record.  The search bounds are ``cum`` with its last sum replaced
    by inf, so every search stops by the last index; with m = 4n equal
    buckets of [0, 1), table entry k is the pick of (k - 1) / m (entry 0
    that of 0), at or before the pick of every u with floor(u m) = k, even
    when u m rounds up to k.
    """

    probs: Array

    def __post_init__(self) -> None:
        cum = np.cumsum(self.probs)
        bounds = np.append(cum[:-1], np.inf)
        m = 4 * cum.size
        table = np.searchsorted(bounds, np.arange(-1.0, m) / m, side="right")
        vars(self).update(cum=cum, bounds=bounds, table=table)

    def pick(self, u: Array) -> Array:
        """The index of each uniform of ``u``: bit for bit
        ``np.minimum(np.searchsorted(cum, u, side="right"), n - 1)``.  Each
        search starts at the guide table's entry for u's bucket and steps
        forward while the bound is <= u."""
        picks = self.table[(u * (self.table.size - 1)).astype(np.intp)]
        ahead = np.flatnonzero(self.bounds[picks] <= u)
        while ahead.size:
            picks[ahead] += 1
            ahead = ahead[self.bounds[picks[ahead]] <= u[ahead]]
        return picks


class LeastSquaresProblem(ConvexProblem):
    """Noiseless least squares over a finite weighted list of samples.

    ``weighted_atoms`` holds the rows w_i a_i.  ``hessian`` is
    H = sum_i w_i a_i a_i^T, ``r_squared`` and ``kappa_tilde``
    are the smallest constants with E[|a|^2 a a^T] <= R^2 H and
    E[|a|^2_{H^-1} a a^T] <= kappa_tilde H (pseudo-inverse on the span).
    Multiplicative noise draws its samples with ``sample_draw``.
    """

    atoms: Array
    targets: Array
    weights: Array
    weighted_atoms: Array
    hessian: Array
    hessian_pinv: Array
    r_squared: float
    kappa_tilde: float
    sample_draw: WeightedDraw

    def value(self, x: Array):
        if x.ndim > 1:  # row by row: no stacked product is known to round alike
            return np.array([self.value(row) for row in x])
        res = self.targets - self.atoms @ x
        return float(0.5 * np.dot(self.weights * res, res))

    def grad(self, x: Array) -> Array:
        return self.weighted_atoms.T @ (self.atoms @ x - self.targets)

    def dist_sq_hinv(self, u: Array):
        """Squared H^-1 norm of ``u`` (pseudo-inverse on the data span), or
        of each row of a (..., d) stack, row by row as for ``value``."""
        if u.ndim > 1:
            return np.array([self.dist_sq_hinv(row) for row in u])
        return float(u @ self.hessian_pinv @ u)


class NoiseModel(Record):
    """Gradient noise description: none, additive(sigma2), or multiplicative.

    Additive noise is isotropic Gaussian with covariance (sigma2/d) I, so its
    total variance E|xi|^2 equals the declared bound sigma2.  Multiplicative
    noise draws one (a, b) atom of a least-squares problem per gradient call.
    """

    kind: str
    sigma2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_FIELDS:
            raise InvalidProblemError(f"unknown noise kind {self.kind!r}")
        if self.sigma2 < 0:
            raise InvalidProblemError("sigma2 must be >= 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def additive(cls, sigma2: float) -> "NoiseModel":
        return cls("additive", float(sigma2))

    @classmethod
    def multiplicative(cls) -> "NoiseModel":
        return cls("multiplicative")


def check_point(problem: ConvexProblem, x: Array) -> Array:
    """``x`` as a float array; raises unless it has the problem's dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, expected ({problem.dimension},)"
        )
    return x


def make_quadratic(diag_coeffs, center) -> QuadraticProblem:
    """Build f(x) = 1/2 sum_i d_i (x_i - c_i)^2 with L = max d, mu = min d."""
    diag = np.atleast_1d(np.asarray(diag_coeffs, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if diag.size == 0:
        raise InvalidProblemError("empty curvature vector")
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise InvalidProblemError("all quadratic curvatures must be finite and > 0")
    if diag.shape != center.shape:
        raise InvalidProblemError(
            f"curvatures and center disagree: {diag.shape} vs {center.shape}"
        )
    if not np.all(np.isfinite(center)):
        raise InvalidProblemError("the center must be finite")
    return QuadraticProblem(
        dimension=diag.size,
        optimum=center,
        smoothness=float(diag.max()),
        strong_convexity=float(diag.min()),
        diag=diag,
    )


def normalized_weights(weights: Array) -> Array:
    """Finite positive ``weights`` scaled to sum to one, in a new array,
    by their largest first when their sum overflows.  A weight far below
    the others can still normalize to 0, which each caller refuses in its
    own terms."""
    with np.errstate(over="ignore"):
        if not np.isfinite(weights.sum()):  # weights near the float maximum
            weights = weights / weights.max()
    return weights / weights.sum()


def _refuse_sample_lines(bad: Array, fault: str) -> None:
    """Raise ``fault`` naming the sample lines (1-based) at indices ``bad``, if any."""
    if bad.size:
        raise InvalidProblemError(f"{fault} on sample lines " + ", ".join(str(i + 1) for i in bad))


def _r2_kappa_tilde(atoms: Array, weights: Array, hessian: Array):
    """Smallest constants for the second-moment dominations, plus H pinv.

    Returns (r_squared, kappa_tilde, hessian_pinv).  Works on the span of the
    data; raises if some atom leaves the span of the Hessian.
    """
    eigvals, q = np.linalg.eigh(hessian)
    top = float(eigvals[-1])
    if top <= 0:
        raise InvalidProblemError("Hessian has no positive eigenvalue")
    pos = eigvals > _EIG_REL_TOL * top
    basis = q[:, pos]
    inv_sqrt = basis / np.sqrt(eigvals[pos])
    pinv = (basis / eigvals[pos]) @ basis.T

    residual = atoms - (atoms @ basis) @ basis.T
    atom_norms = np.linalg.norm(atoms, axis=1)
    if np.any(np.linalg.norm(residual, axis=1) > 1e-8 * np.maximum(atom_norms, 1.0)):
        raise InvalidProblemError("a sample atom leaves the span of the Hessian")

    norms_sq = np.einsum("ij,ij->i", atoms, atoms)
    m1 = (atoms * (weights * norms_sq)[:, None]).T @ atoms
    r_squared = float(np.linalg.eigvalsh(inv_sqrt.T @ m1 @ inv_sqrt)[-1])

    hinv_norms_sq = np.einsum("ij,jk,ik->i", atoms, pinv, atoms)
    m2 = (atoms * (weights * hinv_norms_sq)[:, None]).T @ atoms
    kappa_tilde = float(np.linalg.eigvalsh(inv_sqrt.T @ m2 @ inv_sqrt)[-1])
    return r_squared, kappa_tilde, pinv


def make_least_squares(atoms, optimum, weights=None) -> LeastSquaresProblem:
    """Build a noiseless least-squares problem from atoms and a minimizer.

    Targets are set to b_i = <a_i, x_*> exactly, so every stochastic gradient
    vanishes at the optimum.  ``weights`` default to uniform and are
    normalized to sum to one (``normalized_weights``).
    """
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float)).copy()
    optimum = np.atleast_1d(np.asarray(optimum, dtype=float)).copy()
    n, d = atoms.shape
    if optimum.shape != (d,):
        raise InvalidProblemError(
            f"optimum has shape {optimum.shape}, atoms have dimension {d}"
        )
    if not np.all(np.isfinite(optimum)):
        raise InvalidProblemError("the optimum must be finite")
    _refuse_sample_lines(np.flatnonzero(~np.isfinite(atoms).all(axis=1)),
                         "sample atoms must be finite")
    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or np.any(weights <= 0):
            raise InvalidProblemError("weights must be positive, one per sample")
        _refuse_sample_lines(np.flatnonzero(~np.isfinite(weights)),
                             "sample weights must be finite and > 0")
        weights = normalized_weights(weights)
        _refuse_sample_lines(np.flatnonzero(weights == 0),
                             "sample weights underflow to 0 beside the others")

    targets = atoms @ optimum
    weighted_atoms = atoms * weights[:, None]
    hessian = weighted_atoms.T @ atoms
    hessian = 0.5 * (hessian + hessian.T)
    r_squared, kappa_tilde, pinv = _r2_kappa_tilde(atoms, weights, hessian)

    eigvals = np.linalg.eigvalsh(hessian)
    top = float(eigvals[-1])
    positive = eigvals[eigvals > _EIG_REL_TOL * top]

    return LeastSquaresProblem(
        dimension=d,
        optimum=optimum,
        smoothness=top,
        strong_convexity=float(positive.min()),
        atoms=atoms,
        targets=targets,
        weights=weights,
        weighted_atoms=weighted_atoms,
        hessian=hessian,
        hessian_pinv=pinv,
        r_squared=r_squared,
        kappa_tilde=kappa_tilde,
        sample_draw=WeightedDraw(weights),
    )


def gradient(problem: ConvexProblem, x: Array) -> Array:
    """Exact gradient of ``problem`` at ``x``."""
    return problem.grad(check_point(problem, x))


def check_noise(problem: ConvexProblem, noise: NoiseModel) -> None:
    """Raise unless ``noise`` can be drawn for ``problem``."""
    if noise.kind == "multiplicative" and not isinstance(problem, LeastSquaresProblem):
        raise InvalidProblemError(
            "multiplicative noise requires a least-squares problem"
        )


def noise_draws(problem: ConvexProblem, noise: NoiseModel, rng: np.random.Generator,
                count: int) -> Array | None:
    """The gradient noise of ``count`` stochastic gradients under ``noise``,
    drawn from ``rng`` in one block: ``None`` for noise ``none``, the
    (count, d) additive shifts, or the ``count`` indices of the atoms that
    multiplicative noise samples (after ``check_noise``), each the
    ``sample_draw`` pick of one uniform.  The block carries the bits of
    ``count`` draws of one gradient each."""
    if noise.kind == "none":
        return None
    if noise.kind == "additive":
        d = problem.dimension
        return np.sqrt(noise.sigma2 / d) * rng.standard_normal((count, d))
    check_noise(problem, noise)
    return problem.sample_draw.pick(rng.random(count))


def gradient_oracle(problem: ConvexProblem, noise: NoiseModel,
                    draws: Array | None) -> Callable[[Array], Array]:
    """The stochastic gradient x -> g of ``problem`` under ``noise``, whose
    k-th call consumes the k-th of the ``draws`` that ``noise_draws`` made:
    the oracle draws nothing, so its values follow from its points.

    The noise kind is dispatched here, once, and the returned oracle does
    not check its point: an engine binds it once per run and calls it only
    at rows of its own state, whose shape it has checked.
    """
    grad = problem.grad
    if noise.kind == "none":
        return grad
    if noise.kind == "additive":
        shifts = iter(draws)
        return lambda x: grad(x) + next(shifts)
    atoms, targets, picks = problem.atoms, problem.targets, iter(draws.tolist())

    def multiplicative(x: Array) -> Array:
        i = next(picks)
        a = atoms[i]
        return (float(a @ x) - targets[i]) * a

    return multiplicative


def stochastic_gradient(
    problem: ConvexProblem, noise: NoiseModel, x: Array, rng: np.random.Generator
) -> Array:
    """One stochastic gradient draw at ``x`` under the given noise model,
    after checking ``x`` (``check_point``): ``gradient_oracle`` over a
    block of one draw from ``rng``."""
    x = check_point(problem, x)
    return gradient_oracle(problem, noise, noise_draws(problem, noise, rng, 1))(x)


def parse_floats(text: str, name: str | None = None, *, single: bool = False) -> Array:
    """Whitespace-separated finite floats (exactly one if ``single``); any
    other text raises InvalidProblemError naming ``name``, if given."""
    try:
        values = np.array([float(tok) for tok in text.split()], dtype=float)
    except ValueError:
        values = np.array([np.nan])
    if not np.all(np.isfinite(values)) or single and values.size != 1:
        prefix = f"{name}: " if name else ""
        expected = "a finite number" if single else "finite numbers"
        raise InvalidProblemError(f"{prefix}expected {expected}, got {text!r}")
    return values


def parse_float(text: str, name: str | None = None) -> float:
    """Exactly one finite float."""
    return float(parse_floats(text, name, single=True)[0])


def parse_int(value, least: int) -> int:
    """An integer of at least ``least``: text through ``int``, a typed value
    through ``operator.index``; a bool, or anything else, raises one
    InvalidProblemError."""
    try:
        number = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool) or number < least:
        raise InvalidProblemError(f"must be an integer >= {least}, got {value!r}")
    return number


def least_squares_from_text(optimum: str, samples: str) -> LeastSquaresProblem:
    """Build a least-squares problem from its structured-text fields.

    ``samples`` holds one ``a | b`` or ``a | b | weight`` line per sample;
    every target must equal <a, optimum> to 1e-10.
    """
    atoms, targets, weights = [], [], []
    for line in samples.strip().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (2, 3):
            raise InvalidProblemError(f"bad sample line: {line!r}")
        atoms.append(parse_floats(parts[0], "sample atom"))
        targets.append(parse_float(parts[1], "sample target"))
        weights.append(parse_float(parts[2], "sample weight") if len(parts) == 3 else 1.0)
    problem = make_least_squares(
        np.array(atoms), parse_floats(optimum, "optimum"), np.array(weights)
    )
    bad = np.abs(problem.targets - np.array(targets)) > 1e-10
    _refuse_sample_lines(np.flatnonzero(bad), "targets are inconsistent with the optimum")
    return problem


# The problem and noise kinds, and the [problem] or [noise] keys each reads.
PROBLEM_FIELDS = {"quadratic": ("diag", "center"), "least_squares": ("optimum", "samples")}
NOISE_FIELDS = {"none": (), "additive": ("sigma2",), "multiplicative": ()}


def problem_from_section(section) -> ConvexProblem:
    """Build the problem of a ``[problem]`` section (any str -> str mapping)."""
    kind = section.get("kind", "")
    if kind not in PROBLEM_FIELDS:
        raise InvalidProblemError(f"unknown problem kind {kind!r}")
    missing = [key for key in PROBLEM_FIELDS[kind] if key not in section]
    if missing:
        raise InvalidProblemError(f"{kind} needs " + " and ".join(map(repr, missing)))
    if kind == "quadratic":
        return make_quadratic(
            parse_floats(section["diag"], "diag"), parse_floats(section["center"], "center")
        )
    return least_squares_from_text(section["optimum"], section["samples"])


def noise_from_section(section) -> NoiseModel:
    """Build the noise model of a ``[noise]`` section; kind defaults to none."""
    kind = section.get("kind", "none")
    sigma2 = parse_float(section.get("sigma2", "0"), "sigma2") if kind == "additive" else 0.0
    return NoiseModel(kind, sigma2)
