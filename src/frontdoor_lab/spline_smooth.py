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
in closed form for every weight.  One scorer gives them from two moments of
the response r, the p-vector ``B'r`` and the number ``r'r``, so no score
touches the n rows; ``select_lambda`` and ``fit_penalized`` score their
response about its mean through it, as every additive term does.
Coefficients and fitted values are formed only at the chosen weight, and not
at all where only the choice is needed, as in the joint start of an additive
fit.  Additive models start from the joint penalized solution, whose normal
equations are assembled from per-term Gram blocks rather than from a stacked
design, and then cycle penalized backfitting over the terms, reselecting the
penalty for each term from its current partial residuals.  Backfitting runs
in coefficient space: a partial residual's two moments follow from the raw
Grams ``B_j'B_k`` and the products ``B_j'y``, formed once per fit with y
taken about its mean, so only those products, each accepted term's fitted
values and the final residuals touch the n rows.  The normal matrix and the
raw Grams are cached together for the most recent tuple of designs, so
consecutive fits that share their designs assemble them once.
A term's design holds no basis matrix, only the kernel's rows: each row's
first nonzero column and its ``degree + 1`` values.  The products ``B beta``
go through ``_combine``, and ``B'v``, the column sums and the cross Grams of
an additive fit through ``_gram``, one ``np.bincount`` per pair of value
rows.  The dense basis matrix is formed once per design, only for the Gram
matrix, whose BLAS bits need it.  The kernel runs once per design: the
design hands its rows to ``design_matrix``.
Every GCV fit, a single smooth or an additive term, takes its basis from
``build_basis``, the one rule for knots and degree, and its design from one
cache of recent columns, so imputation builds each repeated column's design
once and a mediator smooth shares its design with the outcome model's
treatment term.

Backfitting that reaches its cycle cap reports ``converged=False``.
Prediction evaluates a fitted smooth in its piecewise-polynomial form (de
Boor, *A Practical Guide to Splines*, 2001, ch. VII-X; SciPy's
``PPoly.from_spline`` makes the same conversion): each fit turns its
coefficients once into the Taylor coefficients of its polynomial on every
knot interval, and each point then costs one interval search and one Horner
sum of ``degree + 1`` terms.  Beyond the span the fit continues linearly with
the end slope.  ``fit_to_json`` writes a fit as one JSON object and
``fit_from_json`` reads it back bit for bit.

Design rows come from ``_DeBoor``, one numpy form of de Boor's recursion (de
Boor 1972, J. Approx. Theory 6) that repeats SciPy's ``_find_interval`` and
``_deBoor_D`` operation for operation, so every basis value has the bits of
SciPy's ``BSpline``, which the program no longer imports.  Predictions share
its interval search but not its rounding: the tests hold them within 128 eps
of ``BSpline``, relative to the sum of ``|c_a B_a(x)|``.  A basis computes its
padded knots, Greville sites, recursion tables and kernel rows at the knots
once and keeps them, and a fit its piecewise-polynomial table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FrontdoorLabError,
    NumericError,
    check_int,
    check_numbers,
    check_real,
    check_vector,
)

DEFAULT_N_KNOTS = 20
DEFAULT_DEGREE = 3

# every GCV selection picks its penalty weight from this grid
LAMBDA_GRID = np.logspace(-6.0, 6.0, 25)
LAMBDA_GRID.setflags(write=False)
# backfitting stops once no fitted component moves more than BACKFIT_TOL,
# or reports converged=False after BACKFIT_MAX_CYCLES cycles
BACKFIT_MAX_CYCLES = 50
BACKFIT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SplineBasis:
    """Cubic (or degraded low-order) B-spline basis on quantile knots.

    It keeps its padded knots, Greville sites, de Boor kernel and kernel rows
    at its knots once they are computed.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        check_int("degree", self.degree, 1)
        knots = np.array(check_vector("knots", self.knots))  # a copy, frozen below
        if len(knots) < 2:
            raise FrontdoorLabError("need at least two knots")
        if not np.all(np.isfinite(knots)):
            raise FrontdoorLabError("knots must be finite")
        if not np.all(np.diff(knots) > 0):
            raise FrontdoorLabError("knots must be strictly increasing")
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def dim(self) -> int:
        return len(self.knots) + self.degree - 1

    @functools.cached_property
    def full_knots(self) -> np.ndarray:
        """Knot vector padded with `degree` extra knots per side at mean spacing
        (read-only)."""
        knots = self.knots
        spacing = (knots[-1] - knots[0]) / (len(knots) - 1)
        left = knots[0] - spacing * np.arange(self.degree, 0, -1)
        right = knots[-1] + spacing * np.arange(1, self.degree + 1)
        full = np.concatenate([left, knots, right])
        full.setflags(write=False)
        return full

    @functools.cached_property
    def greville(self) -> np.ndarray:
        """Greville abscissae; affine coefficient sequences over these sites
        represent exactly the affine functions of the covariate (read-only)."""
        t, d = self.full_knots, self.degree
        sites = np.array([t[i + 1 : i + d + 1].mean() for i in range(self.dim)])
        sites.setflags(write=False)
        return sites

    @functools.cached_property
    def _de_boor(self) -> "_DeBoor":
        return _DeBoor(self.full_knots, self.degree)

    @functools.cached_property
    def _knot_rows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Entry r holds the kernel's read-only ``(first, values)`` at the knots
        for the splines of degree ``degree - r`` on ``full_knots[r : len - r]``,
        which evaluate a fit's r-th derivative there; entry 0 comes from the
        basis's own kernel."""
        t, k = self.full_knots, self.degree
        kernels = [self._de_boor] + [_DeBoor(t[r : len(t) - r], k - r) for r in range(1, k + 1)]
        rows = tuple(kernel(self.knots) for kernel in kernels)
        for first, values in rows:
            first.setflags(write=False)
            values.setflags(write=False)
        return rows


class _DeBoor:
    """De Boor's recursion for the B-splines of degree ``k`` on the strictly
    increasing knots ``t``.

    Called on points of the span ``[t[k], t[len(t) - k - 1]]``, it finds each
    point's knot interval by ``interval``, the ell with ``t[ell] <= x <
    t[ell + 1]`` clipped to ``[k, len(t) - k - 2]``, as SciPy's
    ``_find_interval`` does, and runs SciPy's ``_deBoor_D`` recursion for all
    points at once, operation for operation.  It returns each point's first
    nonzero basis column ``ell - k`` and the ``(k + 1, len(x))`` nonzero basis
    values, each with SciPy's bits.  The recursion gives design rows, and the
    derivatives at the knots from which a fit builds its piecewise-polynomial
    table; predictions run only the search.

    The interval search uses buckets rather than ``np.searchsorted``: a
    point's bucket ``trunc((x - t[k]) * scale)`` is monotone in x, so every knot
    of a lower bucket is ``<= x`` and every knot of a higher bucket is ``> x``.
    Only the knots of the point's own bucket, however many, are compared, so
    the search is exact for any knot layout.
    """

    def __init__(self, t: np.ndarray, k: int):
        n = len(t) - k - 1
        self.k = k
        self._lo = float(t[k])
        # four buckets per knot interval, so quantile knots rarely share one
        self._n_buckets = 4 * (n - k)
        self._scale = self._n_buckets / (float(t[n]) - self._lo)
        inner = t[k + 1 : n]
        bucket = self._buckets(inner)
        counts = np.bincount(bucket, minlength=self._n_buckets)
        # the number of inner knots below each bucket, then row d holds the
        # (d + 1)-th knot within each bucket, +inf where there is none
        self._below = np.searchsorted(bucket, np.arange(self._n_buckets))
        self._within = np.full((counts.max(initial=0), self._n_buckets), np.inf)
        for depth, row in enumerate(self._within):
            held = counts > depth
            row[held] = inner[self._below[held] + depth]
        # per interval: the knots t[ell - k + 1], ..., t[ell + k], then the
        # denominators t[ell + i] - t[ell + i - j] of steps j = 1..k, i = 1..j
        ell = np.arange(k, n)
        rows = [t[ell + offset] for offset in range(1 - k, k + 1)]
        rows += [t[ell + i] - t[ell + i - j] for j in range(1, k + 1) for i in range(1, j + 1)]
        self._table = np.array(rows).reshape(len(rows), n - k)  # no rows at degree 0

    def _buckets(self, x: np.ndarray) -> np.ndarray:
        scaled = np.subtract(x, self._lo)
        scaled *= self._scale
        # fmax and fmin, not clip: they send a NaN to bucket 0 without a warning
        np.fmax(scaled, 0.0, out=scaled)
        np.fmin(scaled, self._n_buckets - 1, out=scaled)
        return scaled.astype(np.intp)

    def interval(self, x: np.ndarray) -> np.ndarray:
        """Each point's knot interval ``ell - k``, which is also its first
        nonzero basis column."""
        bucket = self._buckets(x)
        first = self._below[bucket]
        for row in self._within:
            first += row[bucket] <= x
        return first

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first = self.interval(x)
        k, steps = self.k, len(self._table)
        work = np.empty((steps + k + 1, len(x)))
        # with out=, the default mode would buffer the whole gather
        np.take(self._table, first, axis=1, out=work[:steps], mode="clip")
        left, right, denominators = work[:k], work[k : 2 * k], work[2 * k : steps]
        np.subtract(x, left, out=left)  # x - t[ell + i - j]
        right -= x  # t[ell + i] - x
        h = work[steps:]
        h[0] = 1.0
        for j in range(1, k + 1):
            w, denominators = denominators[:j], denominators[j:]
            # w_i = h_i-1 / (t[ell + i] - t[ell + i - j]); h_i = w_i (x - t[ell + i - j]);
            # h_i-1 += w_i (t[ell + i] - x) with h_0 starting at 0.0
            np.divide(h[:j], w, out=w)
            np.multiply(w, left[k - j :], out=h[1 : j + 1])
            h[0] = 0.0
            w *= right[:j]
            h[:j] += w
        return first, h


def _combine(coefficients: np.ndarray, first: np.ndarray, values: np.ndarray) -> np.ndarray:
    """0.0 + sum of c[first + a] * values[a] over a = 0..k, in that order, as
    SciPy's ``BSpline`` sums it; the 0.0, added after the first term, turns a
    sum of -0.0 terms into 0.0."""
    total = np.take(coefficients, first)
    total *= values[0]
    total += 0.0
    term = np.empty(len(first))
    for a in range(1, len(values)):
        # with out=, the default mode would buffer the whole gather
        np.take(coefficients[a:], first, out=term, mode="clip")
        term *= values[a]
        total += term
    return total


def _gram(rows, other, shape: tuple[int, int]) -> np.ndarray:
    """A'B of shape ``shape`` for n-row matrices A and B given as kernel rows
    ``(first, values)``: row r holds ``values[a, r]`` in column ``first[r] + a``.
    B's ``first`` may be the number 0, as for ``(0, v[None])``, the one column
    v.  Entry (i, j) sums, for each pair (a, b) of value rows in turn, the
    products over the rows with i = first[r] + a and j = other_first[r] + b,
    each pair's sums taken by one ``np.bincount`` in row order."""
    (first, values), (other_first, other_values) = rows, other
    width = shape[1]
    index = first * width + other_first
    gram = np.zeros(shape[0] * width)
    for a, left in enumerate(values):
        for b, right in enumerate(other_values):
            sums = np.bincount(index, weights=left * right)
            start = a * width + b
            gram[start : start + len(sums)] += sums
    return gram.reshape(shape)


def build_basis(x: np.ndarray, n_knots: int = DEFAULT_N_KNOTS) -> SplineBasis:
    """The basis of every spline fit on ``x``: cubic, with ``n_knots`` knots
    at empirical quantiles of the distinct finite values.

    Quantiles are taken over the deduplicated values, so the knot span is the
    data range; prediction beyond it continues linearly.  A covariate with
    fewer distinct values than ``n_knots`` gets one knot per distinct value;
    with two or three distinct values the degree drops to one, which makes a
    binary indicator a plain linear term.  A constant covariate raises
    NumericError.
    """
    check_int("n_knots", n_knots, 4)
    x = check_vector("covariate", x)
    distinct = np.unique(x[np.isfinite(x)])
    if len(distinct) < 2:
        raise NumericError(
            f"need >= 2 distinct covariate values, got {len(distinct)}"
        )
    if len(distinct) < 4:
        return SplineBasis(knots=distinct, degree=1)
    knots = np.quantile(distinct, np.linspace(0.0, 1.0, min(n_knots, len(distinct))))
    return SplineBasis(knots=knots, degree=DEFAULT_DEGREE)


def design_matrix(basis: SplineBasis, x: np.ndarray, *, rows=None) -> np.ndarray:
    """Dense (len(x), dim) basis evaluation matrix, each row's degree + 1
    nonzero values from ``_DeBoor`` at the point's knot interval.  ``rows``,
    which only a design passes, are the kernel's ``(first, values)`` at ``x``,
    already computed.

    All x must lie within the knot span, or FrontdoorLabError is raised.
    """
    x = check_vector("design points", x)
    if x.size == 0:
        raise FrontdoorLabError("need at least one design point")
    # a NaN fails both comparisons
    lo, hi = float(basis.knots[0]), float(basis.knots[-1])
    x_lo, x_hi = float(x.min()), float(x.max())
    if not (lo <= x_lo and x_hi <= hi):
        raise FrontdoorLabError(
            f"design points must lie within the knot span [{lo!r}, {hi!r}], "
            f"got [{x_lo!r}, {x_hi!r}]"
        )
    first, values = basis._de_boor(x) if rows is None else rows
    design = np.zeros((len(x), basis.dim))
    # row r's values go to its columns first[r], ..., first[r] + degree: one
    # window of the flat array per row, which stays inside that row
    starts = np.arange(0, design.size, basis.dim)
    starts += first
    windows = sliding_window_view(design.reshape(-1), len(values), writeable=True)
    windows[starts] = values.T
    return design


def penalty_matrix(basis: SplineBasis) -> np.ndarray:
    """Divided second-difference curvature penalty; null space = affine."""
    p = basis.dim
    if p < 3:
        return np.zeros((p, p))
    g = basis.greville
    slopes = (np.eye(p)[1:] - np.eye(p)[:-1]) / np.diff(g)[:, None]
    curvature = slopes[1:] - slopes[:-1]
    return curvature.T @ curvature


@dataclass(frozen=True, eq=False)
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

    @functools.cached_property
    def _taylor(self) -> np.ndarray:
        """The spline's piecewise-polynomial form, ``(degree + 1, len(knots))``
        and read-only: row r holds the r-th derivative over r! at each knot,
        so column j holds the Taylor coefficients at ``knots[j]`` of the
        polynomial on the interval that starts there.  The last column is the
        limit from the left at the span's right end; of it only row 1, the
        end slope, is read.

        The r-th derivative's coefficients follow from the (r - 1)-th by SciPy's
        ``splder`` formula, and the basis's kernel rows at the knots
        (``SplineBasis._knot_rows``) evaluate them."""
        basis = self.basis
        t, k = basis.full_knots, basis.degree
        table = np.empty((k + 1, len(basis.knots)))
        derivative = self.coefficients
        for r, rows in enumerate(basis._knot_rows):
            if r:
                spans = t[k + 1 : len(t) - r] - t[r : len(t) - k - 1]
                derivative = (derivative[1:] - derivative[:-1]) * (k - r + 1) / spans
            table[r] = _combine(derivative, *rows) / math.factorial(r)
        table.setflags(write=False)
        return table


@dataclass(frozen=True, eq=False)
class AdditiveFit:
    """Backfitted additive model: intercept plus one centered smooth per term."""

    terms: tuple[PenalizedSplineFit, ...]
    intercept: float
    residuals: np.ndarray
    converged: bool = True


class _PenalizedDesign:
    """Design pieces for one smooth term over a fixed penalty grid.

    A design depends only on the covariate column and the grid, so GCV fits
    reuse it across calls (see ``_design_for``).  It holds ``B`` as the
    kernel's rows ``(first, values)``, the ``degree + 1`` values per row that
    ``_DeBoor`` gives, and no matrix: ``B beta`` is ``_combine`` of them and
    ``B'v``, like the column sums the joint start needs, is ``_gram``'s
    one-column case.  The dense ``design_matrix`` is formed only for the Gram
    matrix ``B'B``, whose BLAS bits need it, from the rows already held, so
    the kernel runs once.

    The coefficients are split between the penalty null space (affine
    coefficient sequences, ``_Q1``) and its orthogonal complement (``_Q2``).
    Profiling out the affine block exactly leaves ``(K + lam S) gamma = r``
    for the penalized block, with ``K = C - L A^-1 L'``.  One generalized
    eigendecomposition ``K W = S W diag(mu)`` with ``W' S W = I`` diagonalizes
    that system for every weight at once (the Demmler-Reinsch form), so edf,
    RSS and GCV over the whole grid are closed-form sums over ``mu``.  It is
    an ordinary one: with the Cholesky factor ``S = C C'``, the eigenvectors V
    of ``C^-1 K C^-T`` give ``W = C^-T V``.  Whitening by the data-free penalty
    ``S`` rather than by ``K`` keeps the decomposition well posed when the
    design is rank-deficient.  An affine response leaves
    ``r`` at zero, so it is reproduced for any weight.

    The scorer reads a response only through ``B'y`` and ``y'y``: the affine
    fit's RSS is ``y'y - 2 beta_affine'B'y + beta_affine'B'B beta_affine``, so a
    score costs O(p^2) whatever n is.  ``pick`` and ``select`` take those two
    moments, which an additive fit forms from its Grams without the partial
    residual; ``fit`` forms them from the response about its mean, for
    ``select_lambda`` and ``fit_penalized``.
    """

    def __init__(self, basis: SplineBasis, x: np.ndarray, lambdas: Sequence[float]):
        self.basis = basis
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.n = n = len(x)
        first, values = basis._de_boor(x)
        # a copy of the values, with the view dropped, frees the kernel's work
        # array before the dense design is built
        self._rows = (first, values.copy())
        del values
        self._col_sums = self._Bt(np.ones(n))
        # syrk's bits need the dense matrix
        dense = design_matrix(basis, x, rows=self._rows)
        self._BtB = BtB = dense.T @ dense

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
        self._A_inv = np.linalg.inv(self._A)

        K = self._Q2.T @ BtB @ self._Q2 - self._L @ self._A_inv @ self._L.T
        whiten = np.linalg.inv(np.linalg.cholesky(self._S))
        mu, V = np.linalg.eigh(whiten @ K @ whiten.T)
        self._W = whiten.T @ V
        # a zero weight, which only fit_penalized's one-weight grid can hold,
        # leaves the directions the data do not see undetermined
        if np.any(self.lambdas == 0) and mu.min(initial=np.inf) <= 1e-10 * mu.max(initial=0.0):
            raise NumericError("penalized normal equations are numerically singular")
        self._mu = np.clip(mu, 0.0, None)
        mu, lam = self._mu[:, None], self.lambdas
        with np.errstate(divide="ignore", invalid="ignore"):
            self.edf = 2.0 + np.sum(mu / (mu + lam), axis=0)
            # RSS(lam) = RSS of the affine fit - sum_i c_i^2 * _rss_drop[i, lam]
            self._rss_drop = (mu + 2 * lam) / (mu + lam) ** 2

    def _Bt(self, v: np.ndarray) -> np.ndarray:
        """``B'v`` for the n-vector v."""
        return _gram(self._rows, (0, v[None]), (self.basis.dim, 1))[:, 0]

    def _score(self, bty: np.ndarray, yty: float):
        """(index, beta_affine, c, gcv) for the response r given by ``B'r`` and
        ``r'r``: the grid index of the GCV minimizer, ties toward the larger
        weight; the affine fit's coefficients; the whitened right-hand side of
        the penalized block; and GCV over the grid."""
        delta = self._A_inv @ (self._Q1.T @ bty)
        beta_affine = self._Q1 @ delta
        c = self._W.T @ (self._Q2.T @ bty - self._L @ delta)
        # ||r - B beta_affine||^2 expanded, so r itself is never formed
        rss_affine = yty - 2.0 * (beta_affine @ bty) + beta_affine @ self._BtB @ beta_affine
        rss = rss_affine - (c * c) @ self._rss_drop
        # rounding can push the RSS of an exact fit just below zero
        rss = np.maximum(rss, 0.0)
        gcv = np.full(len(self.lambdas), np.inf)
        denom = self.n - self.edf
        ok = denom > 1e-8 * self.n
        gcv[ok] = self.n * rss[ok] / denom[ok] ** 2
        index = len(gcv) - 1 - int(np.argmin(gcv[::-1]))
        return index, beta_affine, c, gcv

    def pick(self, bty: np.ndarray, yty: float) -> int:
        """The grid index ``select(bty, yty)`` chooses, without forming its fit."""
        return self._score(bty, yty)[0]

    def select(self, bty: np.ndarray, yty: float):
        """(index, beta, gcv) at the GCV minimizer for the response r given by
        ``B'r`` and ``r'r``, ties toward the larger weight."""
        index, beta_affine, c, gcv = self._score(bty, yty)
        gamma = self._W @ (c / (self._mu + self.lambdas[index]))
        beta = beta_affine - self._Q1 @ (self._A_inv @ (self._L.T @ gamma)) + self._Q2 @ gamma
        return index, beta, float(gcv[index])

    def fit(self, y: np.ndarray) -> PenalizedSplineFit:
        """The GCV fit to ``y``, selected on ``y`` about its mean; the basis sums
        to one, so the mean adds to every coefficient."""
        mean = float(np.mean(y))
        centered = y - mean
        # not `@`: OpenBLAS threads a ddot over 10,000 rows, and its idle threads spin
        index, beta, gcv = self.select(self._Bt(centered), np.einsum("i,i->", centered, centered))
        beta = beta + mean
        return self._term(index, beta, y - _combine(beta, *self._rows), gcv)

    def _term(self, index: int, coefficients, residuals, gcv) -> PenalizedSplineFit:
        """The fitted smooth on this design's basis at grid weight ``index``,
        with that weight's edf, the given coefficients, residuals and GCV."""
        return PenalizedSplineFit(
            basis=self.basis,
            coefficients=coefficients,
            lam=float(self.lambdas[index]),
            edf=float(self.edf[index]),
            residuals=residuals,
            gcv=float(gcv),
        )


def _checked_inputs(y, covariates) -> tuple[np.ndarray, list[np.ndarray]]:
    """The response and covariates through ``check_vector``; covariates that
    are not a sequence, no covariate, a NaN or infinite value or a length
    mismatch raise FrontdoorLabError."""
    y = check_vector("response", y)
    if not np.all(np.isfinite(y)):
        raise FrontdoorLabError("response values must be finite")
    if not np.iterable(covariates):  # a number or None is no sequence of columns
        raise FrontdoorLabError(f"covariates must be a sequence of vectors, got {covariates!r}")
    columns = [check_vector("covariate", c) for c in covariates]
    if not columns:
        raise FrontdoorLabError("need at least one covariate")
    for column in columns:
        if not np.all(np.isfinite(column)):
            raise FrontdoorLabError("covariate values must be finite")
        if len(column) != len(y):
            raise FrontdoorLabError("covariates must match the response length")
    return y, columns


def fit_penalized(
    y: np.ndarray, x: np.ndarray, basis: SplineBasis, lam: float
) -> PenalizedSplineFit:
    """Minimize ||y - B beta||^2 + lam * beta' P beta for one penalty weight.

    Raises NumericError for a constant covariate, and for ``lam = 0`` when
    the data leave some basis direction undetermined, as with fewer distinct
    covariate values than basis columns.
    """
    lam = check_real("penalty weight", lam)
    if lam < 0:
        raise FrontdoorLabError(f"penalty weight must be finite and nonnegative, got {lam}")
    y, (x,) = _checked_inputs(y, [x])
    if len(y) < basis.dim:
        raise FrontdoorLabError(
            f"need at least {basis.dim} observations for a {basis.dim}-dim basis"
        )
    # a caller's basis skips build_basis's check; a basis has dim >= 2
    if not x.min() < x.max():
        raise NumericError("need >= 2 distinct covariate values, got 1")
    # a grid of one weight, which GCV picks
    return _PenalizedDesign(basis, x, [lam]).fit(y)


def select_lambda(
    y: np.ndarray, x: np.ndarray, n_knots: int = DEFAULT_N_KNOTS
) -> PenalizedSplineFit:
    """Fit over ``LAMBDA_GRID`` and return the GCV minimizer.

    The basis is ``build_basis(x, n_knots)`` and the design an additive
    term's on ``x`` (``_design_for``).  Ties go to the larger penalty weight.
    The returned fit is identical to ``fit_penalized`` on that basis at the
    winning weight.
    """
    y, (x,) = _checked_inputs(y, [x])
    check_int("n_knots", n_knots, 4)
    return _design_for(x.tobytes(), n_knots).fit(y)


# One chained-equation cycle fits five covariate columns: the mediator and the
# outcome on the rows with observed treatment, then treatment magnitude, sign
# and the outcome on the rows with observed mediator.  Holding five designs
# keeps the two outcome columns, fixed across cycles and chains, and lets the
# sign and magnitude fits of one cycle share theirs.
_DESIGN_MEMO_SIZE = 5


# its callers check n_knots first, so only an exact int reaches the cache
@functools.lru_cache(maxsize=_DESIGN_MEMO_SIZE)
def _design_for(column: bytes, n_knots: int) -> _PenalizedDesign:
    """The GCV design of every fit on the float64 column with these bytes, reused
    while it is among the ``_DESIGN_MEMO_SIZE`` most recently used."""
    x = np.frombuffer(column)
    return _PenalizedDesign(build_basis(x, n_knots), x, LAMBDA_GRID)


# The sign and magnitude fits of one chained-equation cycle run back to back and
# share both designs, so the second finds its matrices in this one entry.  The
# entry holds its designs alive, and designs compare by identity: never stale.
@functools.lru_cache(maxsize=1)
def _joint_normal_matrix(designs: tuple[_PenalizedDesign, ...]):
    """(M, blocks, G, spans): the read-only matrix of the unpenalized normal
    equations of the stacked design [1, B_1 T_1, ..., B_k T_k] and each term's
    slice of it; and the read-only Gram of the raw stacked design
    [1, B_1, ..., B_k] and each term's slice of that.

    Row and column 0 of both are the intercept's.  The terms' blocks follow in
    their order, in ``M`` each as wide as its ``T_j``, which drops term j's
    constant direction (the intercept column carries it), and in ``G`` as wide
    as its basis.  ``G`` holds the column sums, each term's ``B_j'B_j`` and the
    cross products ``B_i'B_j``; ``M`` is assembled from the same blocks as
    ``T_i' B_i'B_j T_j``.  The stacked design is never formed, and neither
    matrix depends on the response.
    """
    bounds = np.cumsum([1] + [d._T.shape[1] for d in designs])
    blocks = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
    raw_bounds = np.cumsum([1] + [d.basis.dim for d in designs])
    spans = tuple(slice(lo, hi) for lo, hi in zip(raw_bounds[:-1], raw_bounds[1:]))
    M = np.empty((bounds[-1], bounds[-1]))
    G = np.empty((raw_bounds[-1], raw_bounds[-1]))
    M[0, 0] = G[0, 0] = designs[0].n
    for i, (design, block, span) in enumerate(zip(designs, blocks, spans)):
        G[0, span] = G[span, 0] = design._col_sums
        G[span, span] = design._BtB
        M[0, block] = M[block, 0] = design._col_sums @ design._T
        M[block, block] = design._T.T @ design._BtB @ design._T
        later = zip(designs[i + 1 :], blocks[i + 1 :], spans[i + 1 :])
        for other, other_block, other_span in later:
            shape = (design.basis.dim, other.basis.dim)
            G[span, other_span] = cross = _gram(design._rows, other._rows, shape)
            G[other_span, span] = cross.T
            M[block, other_block] = design._T.T @ cross @ other._T
            M[other_block, block] = M[block, other_block].T
    M.setflags(write=False)
    G.setflags(write=False)
    return M, blocks, G, spans


def _joint_fit(normal, rhs: np.ndarray, designs, indices: Sequence[int]):
    """Solve all terms at once for fixed per-term penalty weights.

    ``normal`` is ``_joint_normal_matrix(designs)`` and ``rhs`` the right-hand
    side ``[sum y, T_1' B_1'y, ..., T_k' B_k'y]``.  Term j's penalty at its grid
    weight ``indices[j]`` is added to its block past the block's first column,
    the unpenalized slope.  Without their constant directions the penalized
    system is nonsingular.  Returns the intercept and the per-term coefficient
    vectors in the original basis coordinates.
    """
    M, blocks, _, _ = normal
    M = M.copy()
    for design, index, block in zip(designs, indices, blocks):
        penalized = slice(block.start + 1, block.stop)
        M[penalized, penalized] += design.lambdas[index] * design._S
    try:
        lower = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        try:
            lower = np.linalg.cholesky(M + 1e-10 * np.trace(M) * np.eye(len(M)))
        except np.linalg.LinAlgError as exc:
            raise NumericError("joint additive system is singular") from exc
    coef = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    return float(coef[0]), [d._T @ coef[block] for d, block in zip(designs, blocks)]


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
    component moved more than ``BACKFIT_TOL``, or returns the last iterate
    with ``converged=False`` after ``BACKFIT_MAX_CYCLES``.  The joint re-solves
    cannot replace this loop: when a pick changes, a joint re-solve moves every
    term at once, and on a small imputation fit the picks can alternate between
    two sets indefinitely (the known weak spot of performance iteration; Gu
    1992, JCGS).  Backfitting moves one term at a time and reaches a fixed point of
    the per-term selections, usually in one cycle after the joint start.

    Every pick and selection works in coefficient space, as backfitting linear
    smoothers is Gauss-Seidel on the stacked normal equations (Buja, Hastie and
    Tibshirani 1989, Ann. Statist.): a term's partial residual enters its GCV
    score only through ``B_j'r_j`` and ``r_j'r_j``, which follow from the Gram
    of [1, B_1, ..., B_k] that the joint start caches and from the products
    ``B_j'(y - mean)``, formed once per term; the sums are taken about the
    mean so that ``r_j'r_j`` is not a small difference of squares of the
    offset.  Only those products, each accepted term's values ``B_j beta_j``,
    which the convergence check and the recentering read, and the final
    residuals touch the n rows.
    """
    y, columns = _checked_inputs(y, covariates)
    check_int("n_knots", n_knots, 4)
    designs = tuple(_design_for(column.tobytes(), n_knots) for column in columns)
    n_terms = len(designs)
    gcvs = [np.inf] * n_terms
    normal = _joint_normal_matrix(designs)
    _, _, gram, spans = normal
    # the response about its mean: its sum, each B_j'(y - mean) and its
    # squared norm, which an einsum forms without a threaded BLAS ddot
    mean = float(np.mean(y))
    centered = y - mean
    moments = np.concatenate([[np.sum(centered)], *(d._Bt(centered) for d in designs)])
    yty = np.einsum("i,i->", centered, centered)

    def partial_moments(j):
        """(B_j'r_j, r_j'r_j) for term j's partial residual
        r_j = y - intercept - sum_{k != j} B_k beta_k, from the Gram and the
        moments above, without forming r_j."""
        others = np.concatenate([[offset], *betas])
        others[spans[j]] = 0.0
        product = gram @ others
        rtr = yty - 2.0 * (moments @ others) + others @ product
        return moments[spans[j]] - product[spans[j]], rtr

    def recentered(beta, values):
        """The term moved to mean zero; its mean goes into the intercept."""
        nonlocal offset
        center = float(np.mean(values))
        # shifting every coefficient shifts the in-span fit by the same
        # constant (the basis sums to one), so centering is exact
        offset += center
        return beta - center, values - center

    # joint start: joint solves until the per-term penalty picks stabilize;
    # they fit the centered response, so ``offset`` is the intercept less the mean
    chosen = [design.pick(moments[span], yty) for design, span in zip(designs, spans)]
    rhs = np.concatenate([moments[:1], *(d._T.T @ moments[s] for d, s in zip(designs, spans))])
    for _ in range(5):
        offset, betas = _joint_fit(normal, rhs, designs, chosen)
        fitted = [_combine(b, *d._rows) for d, b in zip(designs, betas)]
        for j in range(n_terms):
            betas[j], fitted[j] = recentered(betas[j], fitted[j])
        picks = [design.pick(*partial_moments(j)) for j, design in enumerate(designs)]
        if picks == chosen:
            break
        chosen = picks

    converged = False
    for _ in range(BACKFIT_MAX_CYCLES):
        max_change = 0.0
        for j, design in enumerate(designs):
            index, beta, gcv = design.select(*partial_moments(j))
            beta, values = recentered(beta, _combine(beta, *design._rows))
            max_change = max(max_change, float(np.max(np.abs(values - fitted[j]))))
            fitted[j] = values
            betas[j] = beta
            chosen[j] = index
            gcvs[j] = gcv
        if max_change < BACKFIT_TOL:
            converged = True
            break

    intercept = mean + offset
    residuals = y - (intercept + sum(fitted))
    residuals.setflags(write=False)  # every term holds this one array
    terms = tuple(d._term(i, b, residuals, g) for d, i, b, g in zip(designs, chosen, betas, gcvs))
    return AdditiveFit(
        terms=terms, intercept=intercept, residuals=residuals, converged=converged
    )


# ------------------------------------------------------------- prediction


def _spline_values(fit: PenalizedSplineFit, points: np.ndarray) -> np.ndarray:
    """The fitted smooth at the float64 vector ``points``, by Horner's rule on
    each point's interval of its piecewise-polynomial form and continued
    linearly beyond the span; a NaN point gives NaN and an infinite or
    overflowing one an infinite value."""
    knots, taylor = fit.basis.knots, fit._taylor
    lo, hi = float(knots[0]), float(knots[-1])
    dx = np.clip(points, lo, hi)
    interval = fit.basis._de_boor.interval(dx)
    dx -= np.take(knots, interval)
    values = np.take(taylor[-1], interval)
    term = np.empty(len(points))
    for row in taylor[-2::-1]:
        values *= dx
        # with out=, the default mode would buffer the whole gather
        np.take(row, interval, out=term, mode="clip")
        values += term
    below = points < lo
    above = points > hi
    if below.any() or above.any():
        slope_lo, slope_hi = taylor[1, [0, -1]]
        # a huge finite point overflows to the infinity an infinite one gives
        with np.errstate(over="ignore"):
            if below.any():
                values[below] += (points[below] - lo) * slope_lo
            if above.any():
                values[above] += (points[above] - hi) * slope_hi
    return values


def predict(fit: PenalizedSplineFit | AdditiveFit, points) -> np.ndarray:
    """Evaluate a fitted smooth or additive model.

    For a single smooth, ``points`` is a vector of covariate values.  For an
    additive fit, ``points`` is an (n, k) array or a sequence of k column
    vectors, one per term.  A number counts as a vector of one, not as the
    columns; anything but a vector of numbers (``check_vector``), such as a
    2-d array for a single smooth, raises FrontdoorLabError.  Beyond the knot
    span the prediction continues linearly with the end slope.
    """
    if isinstance(fit, PenalizedSplineFit):
        return _spline_values(fit, _point_vector("points", points))
    if isinstance(fit, AdditiveFit):
        if isinstance(points, np.ndarray) and points.ndim == 2:
            points = points.T
        if not np.iterable(points):  # a number or None is no sequence of columns
            raise FrontdoorLabError(f"expected {len(fit.terms)} covariate columns, got {points!r}")
        columns = [_point_vector("covariate column", c) for c in points]
        if len(columns) != len(fit.terms):
            raise FrontdoorLabError(
                f"expected {len(fit.terms)} covariate columns, got {len(columns)}"
            )
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise FrontdoorLabError(f"covariate columns must have equal lengths, got {lengths}")
        total = np.full(len(columns[0]), fit.intercept)
        for term, column in zip(fit.terms, columns):
            total += _spline_values(term, column)
        return total
    raise FrontdoorLabError(f"cannot predict from {type(fit).__name__}")


def _point_vector(name: str, points) -> np.ndarray:
    """``check_vector`` of ``points``, a number counting as a vector of one."""
    return check_vector(name, np.atleast_1d(check_numbers(name, points, "a vector")))


# ------------------------------------------------------------- serialization


def _smooth_fields(fit: PenalizedSplineFit) -> dict:
    return {
        "degree": fit.basis.degree,
        "knots": fit.basis.knots.tolist(),
        "coefficients": fit.coefficients.tolist(),
        "lambda": float(fit.lam),
        "edf": float(fit.edf),
        "gcv": float(fit.gcv),
    }


def fit_to_json(fit: PenalizedSplineFit | AdditiveFit) -> str:
    """One line of JSON for a fitted smooth, or for an additive fit with its
    residuals once, not per term.  Floats are written by ``repr``: ``fit_from_json``
    gives back every bit.  Both refuse a non-finite number with FrontdoorLabError."""
    if isinstance(fit, AdditiveFit):
        fields = {
            "intercept": float(fit.intercept),
            "converged": bool(fit.converged),
            "terms": [_smooth_fields(term) for term in fit.terms],
        }
    else:
        fields = _smooth_fields(fit)
    fields["residuals"] = fit.residuals.tolist()
    try:
        return json.dumps(fields, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FrontdoorLabError(f"fitted model: {exc}") from None


def _number(value) -> float:
    # a JSON true or false is a bool, which check_real refuses
    try:
        return check_real("number", value)
    except FrontdoorLabError:
        raise ValueError(f"expected a finite number, got {value!r}") from None


def _vector(values) -> np.ndarray:
    if not isinstance(values, list):
        raise TypeError(f"expected a list of numbers, got {type(values).__name__}")
    return np.array([_number(v) for v in values], dtype=float)


def _smooth_from_fields(fields: dict, residuals: np.ndarray) -> PenalizedSplineFit:
    return PenalizedSplineFit(
        basis=SplineBasis(knots=_vector(fields["knots"]), degree=fields["degree"]),
        coefficients=_vector(fields["coefficients"]),
        lam=_number(fields["lambda"]),
        edf=_number(fields["edf"]),
        residuals=residuals,
        gcv=_number(fields["gcv"]),
    )


def fit_from_json(text: str) -> PenalizedSplineFit | AdditiveFit:
    """The smooth or additive fit that ``fit_to_json`` wrote; its additive terms
    share the fit's read-only residuals, as ``fit_additive`` gives them.  Malformed
    text, a missing field or a non-finite number raises FrontdoorLabError."""
    try:
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise TypeError(f"expected a JSON object, got {type(fields).__name__}")
        residuals = _vector(fields["residuals"])
        if "terms" not in fields:
            return _smooth_from_fields(fields, residuals)
        terms = fields["terms"]
        if not isinstance(terms, list) or not terms:
            raise ValueError("'terms' must be a non-empty list")
        if not isinstance(fields["converged"], bool):
            raise TypeError("'converged' must be true or false")
        residuals.setflags(write=False)
        return AdditiveFit(
            terms=tuple(_smooth_from_fields(term, residuals) for term in terms),
            intercept=_number(fields["intercept"]),
            residuals=residuals,
            converged=fields["converged"],
        )
    except KeyError as exc:
        raise FrontdoorLabError(f"fitted model: missing field {exc}") from None
    except (FrontdoorLabError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise FrontdoorLabError(f"fitted model: {exc}") from None
