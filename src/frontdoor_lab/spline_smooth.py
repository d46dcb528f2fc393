"""Penalized univariate regression splines and small additive models.

The smooth is a cubic B-spline expansion with knots at empirical quantiles of
the covariate and a curvature penalty on the coefficients.  The penalty takes
divided second differences at the Greville sites of the basis, so its null
space is exactly the affine functions whatever the knot layout: any affine
response is reproduced unshrunk for every penalty weight, and the infinite
penalty limit is the ordinary least squares line.

Smoothness is selected by generalized cross-validation, n * RSS / (n - edf)^2,
minimized over a fixed grid of penalty weights with ties broken toward the
smoother fit.  Each term is solved for the whole grid from one generalized
eigendecomposition (the Demmler-Reinsch form): the affine null-space block is
profiled out, the remaining block is whitened by the penalty, and edf, RSS and
GCV then follow in closed form for every weight.  Coefficients and fitted
values are formed only at the chosen weight.  Additive models cycle penalized
backfitting over the terms, reselecting the penalty for each term from its
current partial residuals.

Prediction inside the knot span evaluates the B-spline; beyond the span the
fit continues linearly with the end slope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .errors import FrontdoorLabError, SingularSystem, TooFewDistinctValues

DEFAULT_N_KNOTS = 20
DEFAULT_DEGREE = 3
BOUNDARY_MARGIN = 0.05


def default_lambda_grid() -> np.ndarray:
    """25 penalty weights, log-spaced over [1e-6, 1e6]."""
    return np.logspace(-6.0, 6.0, 25)


class NoConvergenceWarning(UserWarning):
    """Backfitting hit its cycle cap; the best iterate was returned."""


@dataclass(frozen=True)
class SplineBasis:
    """Cubic (or degraded low-order) B-spline basis on quantile knots."""

    knots: np.ndarray
    degree: int
    boundary: tuple[float, float]

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or len(knots) < 2:
            raise FrontdoorLabError("need at least two knots")
        if not np.all(np.diff(knots) > 0):
            raise FrontdoorLabError("knots must be strictly increasing")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def dim(self) -> int:
        return len(self.knots) + self.degree - 1

    @property
    def full_knots(self) -> np.ndarray:
        """Knot vector padded with `degree` extra knots per side at mean spacing."""
        knots = self.knots
        spacing = (knots[-1] - knots[0]) / (len(knots) - 1)
        left = knots[0] - spacing * np.arange(self.degree, 0, -1)
        right = knots[-1] + spacing * np.arange(1, self.degree + 1)
        return np.concatenate([left, knots, right])

    @property
    def greville(self) -> np.ndarray:
        """Greville abscissae; affine coefficient sequences over these sites
        represent exactly the affine functions of the covariate."""
        t, d = self.full_knots, self.degree
        return np.array([t[i + 1 : i + d + 1].mean() for i in range(self.dim)])


def build_basis(x: np.ndarray, n_knots: int = DEFAULT_N_KNOTS) -> SplineBasis:
    """Cubic basis with ``n_knots`` knots at empirical quantiles of ``x``.

    Quantiles are taken over the deduplicated values; the boundary is the data
    range extended by 5 percent on each side.
    """
    if n_knots < 4:
        raise FrontdoorLabError(f"n_knots must be >= 4, got {n_knots}")
    return _quantile_basis(np.asarray(x, dtype=float), n_knots, DEFAULT_DEGREE)


def _quantile_basis(x: np.ndarray, n_knots: int, degree: int) -> SplineBasis:
    distinct = np.unique(x[np.isfinite(x)])
    if len(distinct) < n_knots:
        raise TooFewDistinctValues(
            f"need >= {n_knots} distinct covariate values, got {len(distinct)}"
        )
    knots = np.quantile(distinct, np.linspace(0.0, 1.0, n_knots))
    margin = BOUNDARY_MARGIN * (distinct[-1] - distinct[0])
    return SplineBasis(
        knots=knots,
        degree=degree,
        boundary=(float(distinct[0] - margin), float(distinct[-1] + margin)),
    )


def _basis_for_covariate(x: np.ndarray, n_knots: int) -> SplineBasis:
    """Basis for an additive-model term, degrading for low-cardinality covariates.

    Covariates with fewer distinct values than requested knots get all distinct
    values as knots; with two or three distinct values the degree drops to one,
    which makes binary indicators plain linear terms.
    """
    x = np.asarray(x, dtype=float)
    distinct = np.unique(x)
    if len(distinct) < 2:
        raise TooFewDistinctValues("covariate is constant")
    if len(distinct) >= 4:
        return _quantile_basis(x, min(n_knots, len(distinct)), DEFAULT_DEGREE)
    span = distinct[-1] - distinct[0]
    margin = BOUNDARY_MARGIN * span
    return SplineBasis(
        knots=distinct,
        degree=1,
        boundary=(float(distinct[0] - margin), float(distinct[-1] + margin)),
    )


def design_matrix(basis: SplineBasis, x: np.ndarray) -> np.ndarray:
    """Dense basis evaluation matrix; all x must lie within the knot span."""
    x = np.asarray(x, dtype=float)
    return BSpline.design_matrix(x, basis.full_knots, basis.degree).toarray()


def penalty_matrix(basis: SplineBasis) -> np.ndarray:
    """Divided second-difference curvature penalty; null space = affine."""
    p = basis.dim
    if p < 3:
        return np.zeros((p, p))
    g = basis.greville
    slopes = (np.eye(p)[1:] - np.eye(p)[:-1]) / np.diff(g)[:, None]
    curvature = slopes[1:] - slopes[:-1]
    return curvature.T @ curvature


@dataclass(frozen=True)
class PenalizedSplineFit:
    """One fitted smooth: basis, coefficients, penalty weight and diagnostics.

    ``residuals`` is the training residual pool, kept for residual resampling
    downstream; ``edf`` is the trace of the influence matrix.
    """

    basis: SplineBasis
    coefficients: np.ndarray
    lam: float
    edf: float
    residuals: np.ndarray
    gcv: float

    def __post_init__(self):
        if len(self.coefficients) != self.basis.dim:
            raise FrontdoorLabError("coefficient length must equal basis dimension")


@dataclass(frozen=True)
class AdditiveFit:
    """Backfitted additive model: intercept plus one centered smooth per term."""

    terms: tuple[PenalizedSplineFit, ...]
    intercept: float
    residuals: np.ndarray
    converged: bool = True


class _PenalizedDesign:
    """Cached design pieces for one smooth term over a fixed penalty grid.

    The coefficients are split between the penalty null space (affine
    coefficient sequences, ``_Q1``) and its orthogonal complement (``_Q2``).
    Profiling out the affine block exactly leaves ``(K + lam S) gamma = r``
    for the penalized block, with ``K = C - L A^-1 L'``.  One generalized
    eigendecomposition ``K W = S W diag(mu)`` with ``W' S W = I`` diagonalizes
    that system for every weight at once (the Demmler-Reinsch form), so edf,
    RSS and GCV over the whole grid are closed-form sums over ``mu``.  Whitening
    by the data-free penalty ``S`` rather than by ``K`` keeps the decomposition
    well posed when the design is rank-deficient.  An affine response leaves
    ``r`` at zero, so it is reproduced for any weight.
    """

    def __init__(self, basis: SplineBasis, x: np.ndarray, lambdas: Sequence[float]):
        self.basis = basis
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.B = design_matrix(basis, x)
        self.n = len(x)
        BtB = self.B.T @ self.B

        p = basis.dim
        # orthonormal null-space basis built by explicit Gram-Schmidt so the
        # difference operator annihilates it exactly in floating point
        q_const = np.full(p, 1.0 / np.sqrt(p))
        centered = basis.greville - basis.greville.mean()
        q_slope = centered / np.linalg.norm(centered)
        self._Q1 = np.column_stack([q_const, q_slope])
        q_full, _ = np.linalg.qr(self._Q1, mode="complete")
        self._Q2 = q_full[:, 2:]  # penalized complement
        self._A = self._Q1.T @ BtB @ self._Q1
        self._L = self._Q2.T @ BtB @ self._Q1
        self._S = self._Q2.T @ penalty_matrix(basis) @ self._Q2
        try:
            self._A_inv = np.linalg.inv(self._A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                "penalized normal equations are numerically singular"
            ) from exc

        K = self._Q2.T @ BtB @ self._Q2 - self._L @ self._A_inv @ self._L.T
        mu, self._W = eigh(K, self._S)
        # a zero weight leaves the directions the data do not see undetermined
        zero_mu = mu.min(initial=np.inf) <= 1e-10 * mu.max(initial=0.0)
        self._singular = (self.lambdas == 0) & zero_mu
        self._mu = np.clip(mu, 0.0, None)
        mu, lam = self._mu[:, None], self.lambdas
        with np.errstate(divide="ignore", invalid="ignore"):
            self.edf = 2.0 + np.sum(mu / (mu + lam), axis=0)
            # RSS(lam) = RSS of the affine fit - sum_i c_i^2 * _rss_drop[i, lam]
            self._rss_drop = (mu + 2 * lam) / (mu + lam) ** 2

    def select(self, y: np.ndarray, index: int | None = None):
        """(index, beta, fitted, gcv) at grid weight ``index``, or at the GCV
        minimizer when ``index`` is None, ties toward the larger weight."""
        bty = self.B.T @ y
        delta = self._A_inv @ (self._Q1.T @ bty)
        beta_affine = self._Q1 @ delta
        residual_affine = y - self.B @ beta_affine
        c = self._W.T @ (self._Q2.T @ bty - self._L @ delta)
        rss = residual_affine @ residual_affine - (c * c) @ self._rss_drop
        # rounding can push the RSS of an exact fit just below zero
        rss = np.maximum(rss, 0.0)
        gcv = np.full(len(self.lambdas), np.inf)
        denom = self.n - self.edf
        ok = (denom > 1e-8 * max(self.n, 1)) & ~self._singular
        gcv[ok] = self.n * rss[ok] / denom[ok] ** 2
        if index is None:
            index = len(gcv) - 1 - int(np.argmin(gcv[::-1]))
        if self._singular[index]:
            raise SingularSystem("penalized normal equations are numerically singular")
        gamma = self._W @ (c / (self._mu + self.lambdas[index]))
        beta = beta_affine - self._Q1 @ (self._A_inv @ (self._L.T @ gamma)) + self._Q2 @ gamma
        return index, beta, self.B @ beta, float(gcv[index])

    def fit(self, y: np.ndarray, index: int | None = None) -> PenalizedSplineFit:
        index, beta, fitted, gcv = self.select(y, index)
        return PenalizedSplineFit(
            basis=self.basis,
            coefficients=beta,
            lam=float(self.lambdas[index]),
            edf=float(self.edf[index]),
            residuals=y - fitted,
            gcv=gcv,
        )


def fit_penalized(
    y: np.ndarray, x: np.ndarray, basis: SplineBasis, lam: float
) -> PenalizedSplineFit:
    """Minimize ||y - B beta||^2 + lam * beta' P beta for one penalty weight.

    Raises SingularSystem for ``lam = 0`` when the data leave some basis
    direction undetermined, as with fewer distinct covariate values than
    basis columns.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(y) != len(x):
        raise FrontdoorLabError("y and x must have equal length")
    if len(y) < basis.dim:
        raise FrontdoorLabError(
            f"need at least {basis.dim} observations for a {basis.dim}-dim basis"
        )
    if lam < 0:
        raise FrontdoorLabError("penalty weight must be nonnegative")
    return _PenalizedDesign(basis, x, [lam]).fit(y, 0)


def select_lambda(
    y: np.ndarray, x: np.ndarray, basis: SplineBasis, grid: Sequence[float] | None = None
) -> PenalizedSplineFit:
    """Fit over a penalty grid and return the GCV minimizer.

    Ties go to the larger penalty weight.  The returned fit is identical to
    ``fit_penalized`` at the winning weight.
    """
    grid = default_lambda_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise FrontdoorLabError("penalty grid must be nonempty")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise FrontdoorLabError("penalty grid must be finite and nonnegative")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if len(y) != len(x):
        raise FrontdoorLabError("y and x must have equal length")
    return _PenalizedDesign(basis, x, np.sort(grid)).fit(y)


@dataclass(frozen=True)
class AdditiveConfig:
    n_knots: int = DEFAULT_N_KNOTS
    lambda_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(default_lambda_grid())
    )
    max_cycles: int = 50
    tol: float = 1e-6


def _joint_fit(y: np.ndarray, designs: list[_PenalizedDesign], indices: list[int]):
    """Solve all terms at once for fixed per-term penalty weights.

    Each term is reparameterized without its constant direction (a global
    intercept column carries it), which makes the stacked system nonsingular.
    Returns the intercept and the per-term coefficient vectors in the original
    basis coordinates.
    """
    n = len(y)
    transforms = []
    blocks = [np.ones((n, 1))]
    penalties = [np.zeros((1, 1))]
    for design, index in zip(designs, indices):
        transform = np.column_stack([design._Q1[:, 1:], design._Q2])
        transforms.append(transform)
        blocks.append(design.B @ transform)
        lam = design.lambdas[index]
        pen = np.zeros((transform.shape[1],) * 2)
        pen[1:, 1:] = lam * design._S
        penalties.append(pen)
    G = np.hstack(blocks)
    M = G.T @ G
    offset = 0
    for pen in penalties:
        k = pen.shape[0]
        M[offset : offset + k, offset : offset + k] += pen
        offset += k
    try:
        factor = cho_factor(M)
    except LinAlgError:
        try:
            factor = cho_factor(M + 1e-10 * np.trace(M) * np.eye(len(M)))
        except LinAlgError as exc:
            raise SingularSystem("joint additive system is singular") from exc
    coef = cho_solve(factor, G.T @ y)
    intercept = float(coef[0])
    betas = []
    offset = 1
    for design, transform in zip(designs, transforms):
        k = transform.shape[1]
        betas.append(transform @ coef[offset : offset + k])
        offset += k
    return intercept, betas


def fit_additive(
    y: np.ndarray,
    covariates: Sequence[np.ndarray],
    config: AdditiveConfig | None = None,
) -> AdditiveFit:
    """Backfit y = intercept + sum_j f_j(x_j) + noise.

    Each cycle refits every term to its partial residuals with GCV reselection
    of the penalty, then recenters the term so the fitted components sum to
    zero over the training data.  Stops when no fitted component moved more
    than ``tol``, or warns and returns the best iterate after ``max_cycles``.

    Backfitting is initialized at the joint penalized solution for the current
    penalty picks (reselecting them a few times), so the slowly mixing
    directions of strongly dependent covariates are already resolved when the
    cycling starts; the loop then just confirms the fixed point.
    """
    config = config or AdditiveConfig()
    y = np.asarray(y, dtype=float)
    if len(covariates) == 0:
        raise FrontdoorLabError("need at least one covariate")
    columns = [np.asarray(c, dtype=float) for c in covariates]
    for column in columns:
        if len(column) != len(y):
            raise FrontdoorLabError("covariates must match the response length")

    grid = np.sort(np.asarray(config.lambda_grid, dtype=float))
    designs = [
        _PenalizedDesign(_basis_for_covariate(column, config.n_knots), column, grid)
        for column in columns
    ]

    n_terms = len(designs)
    intercept = float(np.mean(y))
    fitted = [np.zeros(len(y)) for _ in range(n_terms)]
    betas = [np.zeros(d.basis.dim) for d in designs]
    chosen = [0] * n_terms
    gcvs = [np.inf] * n_terms
    converged = False

    # initialization: joint solves until the per-term penalty picks stabilize
    try:
        centered = y - intercept
        chosen = [design.select(centered)[0] for design in designs]
        for _ in range(5):
            joint_intercept, joint_betas = _joint_fit(y, designs, chosen)
            values = [d.B @ b for d, b in zip(designs, joint_betas)]
            for j in range(n_terms):
                center = float(np.mean(values[j]))
                joint_betas[j] = joint_betas[j] - center
                values[j] = values[j] - center
                joint_intercept += center
            intercept, betas, fitted = joint_intercept, joint_betas, values
            picks = []
            for j, design in enumerate(designs):
                partial = y - intercept - sum(
                    fitted[k] for k in range(n_terms) if k != j
                )
                picks.append(design.select(partial)[0])
            if picks == chosen:
                break
            chosen = picks
    except SingularSystem:
        intercept = float(np.mean(y))
        fitted = [np.zeros(len(y)) for _ in range(n_terms)]
        betas = [np.zeros(d.basis.dim) for d in designs]
        chosen = [0] * n_terms
    for _ in range(config.max_cycles):
        max_change = 0.0
        for j, design in enumerate(designs):
            partial = y - intercept - sum(fitted[k] for k in range(n_terms) if k != j)
            index, beta, values, gcv = design.select(partial)
            center = float(np.mean(values))
            # shifting every coefficient shifts the in-span fit by the same
            # constant (the basis sums to one), so centering is exact
            beta = beta - center
            values = values - center
            intercept += center
            max_change = max(max_change, float(np.max(np.abs(values - fitted[j]))))
            fitted[j] = values
            betas[j] = beta
            chosen[j] = index
            gcvs[j] = gcv
        if max_change < config.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"backfitting did not reach tol={config.tol} in {config.max_cycles} cycles",
            NoConvergenceWarning,
        )

    total = intercept + sum(fitted)
    residuals = y - total
    terms = tuple(
        PenalizedSplineFit(
            basis=design.basis,
            coefficients=betas[j],
            lam=float(design.lambdas[chosen[j]]),
            edf=float(design.edf[chosen[j]]),
            residuals=residuals.copy(),
            gcv=float(gcvs[j]),
        )
        for j, design in enumerate(designs)
    )
    return AdditiveFit(
        terms=terms, intercept=intercept, residuals=residuals, converged=converged
    )


# ------------------------------------------------------------- prediction


def _spline_values(basis: SplineBasis, coefficients: np.ndarray, points) -> np.ndarray:
    points = np.atleast_1d(np.asarray(points, dtype=float))
    lo, hi = float(basis.knots[0]), float(basis.knots[-1])
    spline = BSpline(basis.full_knots, coefficients, basis.degree, extrapolate=False)
    values = spline(np.clip(points, lo, hi))
    below = points < lo
    above = points > hi
    if below.any() or above.any():
        slope = spline.derivative()
        if below.any():
            values[below] += (points[below] - lo) * slope(lo)
        if above.any():
            values[above] += (points[above] - hi) * slope(hi)
    return values


def predict(fit: PenalizedSplineFit | AdditiveFit, points) -> np.ndarray:
    """Evaluate a fitted smooth or additive model.

    For a single smooth, ``points`` is a vector of covariate values.  For an
    additive fit, ``points`` is an (n, k) array or a sequence of k column
    vectors, one per term.  Beyond the knot span the prediction continues
    linearly with the end slope.
    """
    if isinstance(fit, PenalizedSplineFit):
        return _spline_values(fit.basis, fit.coefficients, points)
    if isinstance(fit, AdditiveFit):
        if isinstance(points, np.ndarray) and points.ndim == 2:
            columns = [points[:, j] for j in range(points.shape[1])]
        else:
            columns = [np.asarray(c, dtype=float) for c in points]
        if len(columns) != len(fit.terms):
            raise FrontdoorLabError(
                f"expected {len(fit.terms)} covariate columns, got {len(columns)}"
            )
        total = np.full(len(columns[0]), fit.intercept)
        for term, column in zip(fit.terms, columns):
            total += _spline_values(term.basis, term.coefficients, column)
        return total
    raise FrontdoorLabError(f"cannot predict from {type(fit).__name__}")


# ------------------------------------------------------------- serialization


def _format_vector(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()]) if text.strip() else np.array([])


def spline_fit_to_text(fit: PenalizedSplineFit) -> str:
    lines = [
        "penalized_spline",
        f"degree {fit.basis.degree}",
        f"boundary {fit.basis.boundary[0]!r} {fit.basis.boundary[1]!r}",
        "knots " + _format_vector(fit.basis.knots),
        "coefficients " + _format_vector(fit.coefficients),
        f"lambda {fit.lam!r}",
        f"edf {fit.edf!r}",
        f"gcv {fit.gcv!r}",
        "residuals " + _format_vector(fit.residuals),
    ]
    return "\n".join(lines) + "\n"


def _spline_fit_from_lines(lines: list[str]) -> PenalizedSplineFit:
    fields = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    lo, hi = (float(v) for v in fields["boundary"].split())
    basis = SplineBasis(
        knots=_parse_vector(fields["knots"]),
        degree=int(fields["degree"]),
        boundary=(lo, hi),
    )
    return PenalizedSplineFit(
        basis=basis,
        coefficients=_parse_vector(fields["coefficients"]),
        lam=float(fields["lambda"]),
        edf=float(fields["edf"]),
        residuals=_parse_vector(fields["residuals"]),
        gcv=float(fields["gcv"]),
    )


def spline_fit_from_text(text: str) -> PenalizedSplineFit:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "penalized_spline":
        raise FrontdoorLabError("not a serialized penalized spline")
    return _spline_fit_from_lines(lines[1:])


def additive_fit_to_text(fit: AdditiveFit) -> str:
    blocks = [
        "additive_fit",
        f"intercept {fit.intercept!r}",
        f"converged {int(fit.converged)}",
        "residuals " + _format_vector(fit.residuals),
    ]
    for term in fit.terms:
        blocks.append("term")
        blocks.append(spline_fit_to_text(term).rstrip("\n"))
    return "\n".join(blocks) + "\n"


def additive_fit_from_text(text: str) -> AdditiveFit:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "additive_fit":
        raise FrontdoorLabError("not a serialized additive fit")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "term":
        key, _, rest = lines[i].partition(" ")
        header[key] = rest
        i += 1
    terms = []
    while i < len(lines):
        assert lines[i] == "term"
        i += 1
        if lines[i] != "penalized_spline":
            raise FrontdoorLabError("malformed term block")
        i += 1
        block = []
        while i < len(lines) and lines[i] != "term":
            block.append(lines[i])
            i += 1
        terms.append(_spline_fit_from_lines(block))
    return AdditiveFit(
        terms=tuple(terms),
        intercept=float(header["intercept"]),
        residuals=_parse_vector(header["residuals"]),
        converged=bool(int(header["converged"])),
    )
