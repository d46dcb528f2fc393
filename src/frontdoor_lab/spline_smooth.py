"""Penalized univariate regression splines and small additive models.

The smooth is a cubic B-spline expansion with knots at empirical quantiles of
the covariate and a curvature penalty on the coefficients.  The penalty takes
divided second differences at the Greville sites of the basis, so its null
space is exactly the affine functions whatever the knot layout: any affine
response is reproduced unshrunk for every penalty weight, and the infinite
penalty limit is the ordinary least squares line.

Smoothness is selected by generalized cross-validation, n * RSS / (n - edf)^2,
minimized over ``LAMBDA_GRID``, one fixed grid of 25 penalty weights
log-spaced over [1e-6, 1e6], with ties broken toward the smoother fit.  Each
term is solved for the whole grid from one generalized eigendecomposition (the
Demmler-Reinsch form): the affine null-space block is profiled out, the
remaining block is whitened by the penalty, and edf, RSS and GCV then follow
in closed form for every weight.  Coefficients and fitted values are formed
only at the chosen weight.  Additive models start from the joint penalized
solution, whose normal equations are assembled from per-term Gram blocks
rather than from a stacked design, and then cycle penalized backfitting over
the terms, reselecting the penalty for each term from its current partial
residuals.  A term's design keeps its Gram matrix and column
sums and stores the basis matrix sparse; ``fit_additive`` reuses the designs
of the last few covariate columns it saw, so chained-equation imputation,
which refits the same columns cycle after cycle, builds each of them once.

Prediction inside the knot span evaluates the B-spline; beyond the span the
fit continues linearly with the end slope.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh
from scipy.sparse import csr_array

from .errors import FrontdoorLabError, SingularSystem, TooFewDistinctValues

DEFAULT_N_KNOTS = 20
DEFAULT_DEGREE = 3

# every GCV selection picks its penalty weight from this grid
LAMBDA_GRID = np.logspace(-6.0, 6.0, 25)
LAMBDA_GRID.setflags(write=False)
# backfitting stops once no fitted component moves more than BACKFIT_TOL,
# or warns after BACKFIT_MAX_CYCLES cycles
BACKFIT_MAX_CYCLES = 50
BACKFIT_TOL = 1e-6


class NoConvergenceWarning(UserWarning):
    """Backfitting hit its cycle cap; the last iterate was returned."""


@dataclass(frozen=True)
class SplineBasis:
    """Cubic (or degraded low-order) B-spline basis on quantile knots."""

    knots: np.ndarray
    degree: int

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

    Quantiles are taken over the deduplicated values, so the knot span is the
    data range; prediction beyond it continues linearly.
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
    return SplineBasis(knots=knots, degree=degree)


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
    return SplineBasis(knots=distinct, degree=1)


def design_matrix(basis: SplineBasis, x: np.ndarray) -> np.ndarray:
    """Dense basis evaluation matrix; all x must lie within the knot span."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise FrontdoorLabError("need at least one design point")
    # checked here so scipy skips its own span check, a Python loop over x;
    # a NaN fails both comparisons
    lo, hi = float(basis.knots[0]), float(basis.knots[-1])
    x_lo, x_hi = float(x.min()), float(x.max())
    if not (lo <= x_lo and x_hi <= hi):
        raise FrontdoorLabError(
            f"design points must lie within the knot span [{lo!r}, {hi!r}], "
            f"got [{x_lo!r}, {x_hi!r}]"
        )
    return BSpline.design_matrix(
        x, basis.full_knots, basis.degree, extrapolate=True
    ).toarray()


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
    """Design pieces for one smooth term over a fixed penalty grid.

    A design depends only on the covariate column and the grid, so
    ``fit_additive`` reuses it across fits (see ``_design_for``).  It keeps
    the Gram matrix ``B'B`` and the column sums of ``B`` for the joint start,
    and stores ``B`` itself sparse: each row has at most ``degree + 1``
    nonzeros.

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
        B = design_matrix(basis, x)
        self.n = len(x)
        self._BtB = BtB = B.T @ B
        self._col_sums = B.sum(axis=0)
        self.B = csr_array(B)

        p = basis.dim
        # orthonormal null-space basis built by explicit Gram-Schmidt so the
        # difference operator annihilates it exactly in floating point
        q_const = np.full(p, 1.0 / np.sqrt(p))
        centered = basis.greville - basis.greville.mean()
        q_slope = centered / np.linalg.norm(centered)
        self._Q1 = np.column_stack([q_const, q_slope])
        q_full, _ = np.linalg.qr(self._Q1, mode="complete")
        self._Q2 = q_full[:, 2:]  # penalized complement
        # the joint fit's coordinates: the term without its constant direction
        self._T = np.column_stack([self._Q1[:, 1:], self._Q2])
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
        # not `@`: OpenBLAS threads a ddot over 10,000 rows, and its idle threads spin
        rss_affine = np.einsum("i,i->", residual_affine, residual_affine)
        rss = rss_affine - (c * c) @ self._rss_drop
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


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; a NaN or infinite entry raises
    FrontdoorLabError rather than yielding NaN coefficients."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise FrontdoorLabError(f"{name} values must be finite")
    return values


def _checked_design(
    y, x, basis: SplineBasis, lambdas: Sequence[float]
) -> tuple[np.ndarray, _PenalizedDesign]:
    """The checked response and the design of ``x`` over ``lambdas``."""
    y = _finite(y, "response")
    x = _finite(x, "covariate")
    if len(y) != len(x):
        raise FrontdoorLabError("y and x must have equal length")
    return y, _PenalizedDesign(basis, x, lambdas)


def fit_penalized(
    y: np.ndarray, x: np.ndarray, basis: SplineBasis, lam: float
) -> PenalizedSplineFit:
    """Minimize ||y - B beta||^2 + lam * beta' P beta for one penalty weight.

    Raises SingularSystem for ``lam = 0`` when the data leave some basis
    direction undetermined, as with fewer distinct covariate values than
    basis columns.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise FrontdoorLabError(f"penalty weight must be finite and nonnegative, got {lam}")
    if len(y) < basis.dim:
        raise FrontdoorLabError(
            f"need at least {basis.dim} observations for a {basis.dim}-dim basis"
        )
    y, design = _checked_design(y, x, basis, [lam])
    return design.fit(y, 0)


def select_lambda(y: np.ndarray, x: np.ndarray, basis: SplineBasis) -> PenalizedSplineFit:
    """Fit over ``LAMBDA_GRID`` and return the GCV minimizer.

    Ties go to the larger penalty weight.  The returned fit is identical to
    ``fit_penalized`` at the winning weight.
    """
    y, design = _checked_design(y, x, basis, LAMBDA_GRID)
    return design.fit(y)


# One chained-equation cycle fits five covariate columns: the mediator and the
# outcome on the rows with observed treatment, then treatment magnitude, sign
# and the outcome on the rows with observed mediator.  Holding five designs
# keeps the two outcome columns, fixed across cycles and chains, and lets the
# sign and magnitude fits of one cycle share theirs.
_DESIGN_MEMO_SIZE = 5
_design_memo: OrderedDict[tuple, _PenalizedDesign] = OrderedDict()


def _design_for(column: np.ndarray, n_knots: int) -> _PenalizedDesign:
    """The additive-model design of ``column``, reused while it is among the
    ``_DESIGN_MEMO_SIZE`` most recently used."""
    key = (column.tobytes(), n_knots)
    design = _design_memo.get(key)
    if design is None:
        design = _PenalizedDesign(
            _basis_for_covariate(column, n_knots), column, LAMBDA_GRID
        )
        _design_memo[key] = design
        if len(_design_memo) > _DESIGN_MEMO_SIZE:
            _design_memo.popitem(last=False)
    else:
        _design_memo.move_to_end(key)
    return design


def _joint_normal_equations(y: np.ndarray, designs: list[_PenalizedDesign]):
    """Unpenalized normal equations of the stacked design [1, B_1 T_1, ..., B_k T_k].

    ``T_j`` drops term j's constant direction (the intercept column carries
    it).  The matrix is assembled from Gram blocks, ``T_i' B_i'B_j T_j``, and
    the right-hand side from ``T_j' B_j'y``; the stacked design is never
    formed.  Returns the matrix and the right-hand side.
    """
    sizes = [1] + [d._T.shape[1] for d in designs]
    bounds = np.cumsum([0] + sizes)
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    M = np.empty((bounds[-1], bounds[-1]))
    rhs = np.empty(bounds[-1])
    M[0, 0] = len(y)
    rhs[0] = np.sum(y)
    for i, (design, block) in enumerate(zip(designs, blocks[1:])):
        M[0, block] = M[block, 0] = design._col_sums @ design._T
        M[block, block] = design._T.T @ design._BtB @ design._T
        rhs[block] = design._T.T @ (design.B.T @ y)
        for other, other_block in zip(designs[i + 1 :], blocks[i + 2 :]):
            cross = (design.B.T @ other.B).toarray()
            M[block, other_block] = design._T.T @ cross @ other._T
            M[other_block, block] = M[block, other_block].T
    return M, rhs


def _joint_fit(
    normal: tuple[np.ndarray, np.ndarray],
    designs: list[_PenalizedDesign],
    indices: list[int],
):
    """Solve all terms at once for fixed per-term penalty weights.

    ``normal`` holds the unpenalized normal equations from
    ``_joint_normal_equations``; each term's penalty is added to its block.
    Without their constant directions the penalized system is nonsingular.
    Returns the intercept and the per-term coefficient vectors in the original
    basis coordinates.
    """
    M, rhs = normal
    M = M.copy()
    offset = 1
    for design, index in zip(designs, indices):
        # the first column of T is the unpenalized slope
        k = design._T.shape[1]
        M[offset + 1 : offset + k, offset + 1 : offset + k] += (
            design.lambdas[index] * design._S
        )
        offset += k
    try:
        factor = cho_factor(M)
    except LinAlgError:
        try:
            factor = cho_factor(M + 1e-10 * np.trace(M) * np.eye(len(M)))
        except LinAlgError as exc:
            raise SingularSystem("joint additive system is singular") from exc
    coef = cho_solve(factor, rhs)
    intercept = float(coef[0])
    betas = []
    offset = 1
    for design in designs:
        k = design._T.shape[1]
        betas.append(design._T @ coef[offset : offset + k])
        offset += k
    return intercept, betas


def fit_additive(
    y: np.ndarray,
    covariates: Sequence[np.ndarray],
    n_knots: int = DEFAULT_N_KNOTS,
) -> AdditiveFit:
    """Fit y = intercept + sum_j f_j(x_j) + noise in two stages.

    The joint start solves all terms at once for the current penalty picks,
    reselects each term's pick by GCV on its partial residuals and re-solves,
    at most five times.  Solving jointly settles at once the directions that
    strongly dependent covariates share, where backfitting alone would creep.

    Backfitting then cycles over the terms: each is refitted to its partial
    residuals with GCV reselection of its penalty and recentered so the fitted
    components sum to zero over the training data.  It stops when no fitted
    component moved more than ``BACKFIT_TOL``, or warns and returns the last
    iterate after ``BACKFIT_MAX_CYCLES``.  The joint re-solves cannot replace
    this loop: when a pick changes, a joint re-solve moves every term at once,
    and on a small imputation fit the picks can alternate between two sets
    indefinitely (the known weak spot of performance iteration; Gu 1992,
    JCGS).  Backfitting moves one term at a time and reaches a fixed point of
    the per-term selections, usually in one cycle after the joint start.
    """
    y = _finite(y, "response")
    if len(covariates) == 0:
        raise FrontdoorLabError("need at least one covariate")
    columns = [_finite(c, "covariate") for c in covariates]
    for column in columns:
        if len(column) != len(y):
            raise FrontdoorLabError("covariates must match the response length")

    designs = [_design_for(column, n_knots) for column in columns]
    n_terms = len(designs)
    gcvs = [np.inf] * n_terms

    # joint start: joint solves until the per-term penalty picks stabilize
    intercept = float(np.mean(y))
    centered = y - intercept
    chosen = [design.select(centered)[0] for design in designs]
    normal = _joint_normal_equations(y, designs)
    for _ in range(5):
        joint_intercept, joint_betas = _joint_fit(normal, designs, chosen)
        values = [d.B @ b for d, b in zip(designs, joint_betas)]
        for j in range(n_terms):
            center = float(np.mean(values[j]))
            joint_betas[j] = joint_betas[j] - center
            values[j] = values[j] - center
            joint_intercept += center
        intercept, betas, fitted = joint_intercept, joint_betas, values
        picks = []
        for j, design in enumerate(designs):
            partial = y - intercept - sum(fitted[k] for k in range(n_terms) if k != j)
            picks.append(design.select(partial)[0])
        if picks == chosen:
            break
        chosen = picks

    converged = False
    for _ in range(BACKFIT_MAX_CYCLES):
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
        if max_change < BACKFIT_TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"backfitting did not reach tol={BACKFIT_TOL} "
            f"in {BACKFIT_MAX_CYCLES} cycles",
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
        "knots " + _format_vector(fit.basis.knots),
        "coefficients " + _format_vector(fit.coefficients),
        f"lambda {fit.lam!r}",
        f"edf {fit.edf!r}",
        f"gcv {fit.gcv!r}",
        "residuals " + _format_vector(fit.residuals),
    ]
    return "\n".join(lines) + "\n"


def _read_fields(lines: list[str], what: str, parsers: dict) -> dict:
    """Parse ``key value`` lines, one parser per required key.

    A missing key or a value its parser rejects raises FrontdoorLabError
    naming the field.  Keys without a parser are ignored.
    """
    raw = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        raw[key] = rest
    values = {}
    for key, parse in parsers.items():
        if key not in raw:
            raise FrontdoorLabError(f"{what}: missing field '{key}'")
        try:
            values[key] = parse(raw[key])
        except ValueError as exc:
            raise FrontdoorLabError(f"{what}: bad field '{key}': {exc}") from exc
    return values


_SPLINE_FIELDS = {
    "degree": int,
    "knots": _parse_vector,
    "coefficients": _parse_vector,
    "lambda": float,
    "edf": float,
    "gcv": float,
    "residuals": _parse_vector,
}


def _spline_fit_from_lines(lines: list[str]) -> PenalizedSplineFit:
    fields = _read_fields(lines, "penalized spline", _SPLINE_FIELDS)
    return PenalizedSplineFit(
        basis=SplineBasis(knots=fields["knots"], degree=fields["degree"]),
        coefficients=fields["coefficients"],
        lam=fields["lambda"],
        edf=fields["edf"],
        residuals=fields["residuals"],
        gcv=fields["gcv"],
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
    # the header, then one block per "term" marker
    blocks: list[list[str]] = [[]]
    for line in lines[1:]:
        if line == "term":
            blocks.append([])
        else:
            blocks[-1].append(line)
    header = _read_fields(
        blocks[0],
        "additive fit",
        {
            "intercept": float,
            "converged": lambda text: bool(int(text)),
            "residuals": _parse_vector,
        },
    )
    terms = []
    for block in blocks[1:]:
        if not block or block[0] != "penalized_spline":
            raise FrontdoorLabError("malformed term block: expected 'penalized_spline'")
        terms.append(_spline_fit_from_lines(block[1:]))
    return AdditiveFit(
        terms=tuple(terms),
        intercept=header["intercept"],
        residuals=header["residuals"],
        converged=header["converged"],
    )
