import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.linalg import cho_factor, cho_solve, eigh

from frontdoor_lab import spline_smooth
from frontdoor_lab.errors import FrontdoorLabError, NumericError
from frontdoor_lab.scm_sim import ScmConfig, generate_population, std_normal_cdf, std_normal_pdf
from frontdoor_lab.spline_smooth import (
    LAMBDA_GRID,
    AdditiveFit,
    PenalizedSplineFit,
    SplineBasis,
    _combine,
    _gram,
    _spline_values,
    build_basis,
    design_matrix,
    fit_additive,
    fit_from_json,
    fit_penalized,
    fit_to_json,
    penalty_matrix,
    predict,
    select_lambda,
)
from oracles import backfit_on_residuals, kernel_csr, score_on_residuals, select_on_residuals


def make_xy(n=400, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = np.sin(2 * x) + noise * rng.standard_normal(n)
    return x, y


def response_moments(design, y):
    """``B'y`` and ``y'y``, the two moments a design's GCV score reads."""
    return design._Bt(y), float(np.einsum("i,i->", y, y))


def four_valued_data(seed=12):
    """A cubic basis on four distinct covariate values: six columns, rank four."""
    rng = np.random.default_rng(seed)
    x = np.repeat([0.0, 1.0, 2.0, 3.0], 30)
    basis = SplineBasis(knots=np.unique(x), degree=3)
    return x, x**2 + rng.standard_normal(len(x)), basis


class TestBuildBasis:
    def test_quantile_knots_on_uniform_data(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 1000)
        basis = build_basis(x, n_knots=10)
        assert len(basis.knots) == 10
        assert basis.dim == 10 + 3 - 1
        assert np.allclose(basis.knots, np.linspace(0, 1, 10), atol=0.05)

    def test_constant_covariate_rejected(self):
        with pytest.raises(NumericError, match="^need >= 2 distinct covariate values, got 1$"):
            build_basis(np.ones(100), n_knots=4)

    def test_duplicates_use_dedup_then_quantile(self):
        rng = np.random.default_rng(2)
        distinct = np.sort(rng.uniform(0, 1, 25))
        x = np.concatenate([distinct, distinct, distinct[:5]])
        basis = build_basis(x, n_knots=8)
        expected = np.quantile(np.unique(x), np.linspace(0, 1, 8))
        assert np.allclose(basis.knots, expected)

    def test_too_few_distinct(self):
        # two or three distinct values: a linear basis on those values
        basis = build_basis(np.array([1.0, 2.0, 3.0] * 10), n_knots=4)
        assert basis.degree == 1
        assert np.array_equal(basis.knots, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n_distinct", [4, 9, 14])
    def test_fewer_distinct_than_knots_uses_every_value(self, n_distinct):
        rng = np.random.default_rng(n_distinct)
        distinct = np.sort(rng.uniform(-2, 2, n_distinct))
        basis = build_basis(np.concatenate([distinct, distinct[::-1]]), n_knots=15)
        assert basis.degree == 3
        assert basis.dim == n_distinct + 2
        assert np.allclose(basis.knots, distinct, rtol=0, atol=1e-12)

    def test_small_n_knots_rejected(self):
        with pytest.raises(FrontdoorLabError):
            build_basis(np.linspace(0, 1, 50), n_knots=3)

    @pytest.mark.parametrize("n_knots", [4.5, 20.0, True, np.int64(20)], ids=repr)
    def test_n_knots_must_be_an_int(self, n_knots):
        with pytest.raises(FrontdoorLabError, match=r"^n_knots must be int, got "):
            build_basis(np.linspace(0, 1, 50), n_knots)

    @pytest.mark.parametrize(
        "degree, message",
        [(0, "degree must be >= 1, got 0"), (-1, "degree must be >= 1, got -1"),
         (2.5, "degree must be int, got 2.5"), (True, "degree must be int, got True")],
        ids=["0", "-1", "2.5", "True"],
    )
    def test_degree_must_be_a_positive_int(self, degree, message):
        with pytest.raises(FrontdoorLabError, match=f"^{message}$"):
            SplineBasis(np.linspace(-1, 1, 6), degree=degree)

    @pytest.mark.parametrize(
        "knots, message",
        [(["a", "b"], "knots must be a vector of numbers, got dtype <U1"),
         ([0.0, 1.0, np.inf], "knots must be finite"),
         ([0.0, np.nan, 1.0], "knots must be finite")],
        ids=["text", "inf", "nan"],
    )
    def test_unusable_knots_rejected(self, knots, message):
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            SplineBasis(knots, 3)

    def test_knots_are_a_copy(self):
        knots = np.linspace(-1.0, 1.0, 6)
        basis = SplineBasis(knots=knots, degree=3)
        assert knots.flags.writeable and not basis.knots.flags.writeable
        knots[0] = -2.0
        assert basis.knots[0] == -1.0


class TestDesignMatrix:
    def test_rows_sum_to_one_on_the_closed_span(self):
        x = np.linspace(0, 1, 50)
        B = design_matrix(build_basis(x, 8), x)
        assert B.shape == (50, 10)
        assert np.allclose(B.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([0.2, 1.5, 0.7], "within the knot span"),
            ([0.2, np.nan, 0.7], "within the knot span"),
            ([], "at least one"),
            (np.zeros((2, 2)), r"^design points must be a vector, got shape \(2, 2\)$"),
            ([[0.1]], r"^design points must be a vector, got shape \(1, 1\)$"),
            (0.5, r"^design points must be a vector, got shape \(\)$"),
        ],
        ids=["out_of_span", "nan", "empty", "matrix", "nested", "scalar"],
    )
    def test_unusable_points_raise_frontdoor_error(self, points, message):
        basis = build_basis(np.linspace(0, 1, 50), 8)
        with pytest.raises(FrontdoorLabError, match=message):
            design_matrix(basis, points)


class TestFitPenalized:
    def test_affine_null_space(self):
        # affine responses sit in the penalty null space: reproduced for any weight
        x, _ = make_xy(300, seed=3)
        basis = build_basis(x, 12)
        y = 0.7 - 1.3 * x
        for lam in (0.0, 1e-3, 1.0, 1e6, 1e12):
            fit = fit_penalized(y, x, basis, lam)
            assert np.max(np.abs(fit.residuals)) < 1e-8

    def test_huge_penalty_gives_least_squares_line(self):
        x, y = make_xy(500, seed=4)
        basis = build_basis(x, 15)
        fit = fit_penalized(y, x, basis, 1e12)
        slope, intercept = np.polyfit(x, y, 1)
        ols_line = intercept + slope * x
        fitted = y - fit.residuals
        assert np.max(np.abs(fitted - ols_line)) < 1e-6
        assert fit.edf == pytest.approx(2.0, abs=1e-4)

    def test_zero_penalty_full_basis_interpolates(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 1, 12))
        y = rng.standard_normal(12)
        basis = build_basis(x, n_knots=10)  # dimension 12 == n
        fit = fit_penalized(y, x, basis, 0.0)
        assert np.max(np.abs(fit.residuals)) < 1e-6

    def test_mean_residual_vanishes(self):
        x, y = make_xy(600, seed=6)
        basis = build_basis(x, 20)
        for lam in (1e-4, 1.0, 1e4):
            fit = fit_penalized(y, x, basis, lam)
            assert abs(float(np.mean(fit.residuals))) < 1e-8

    def test_edf_monotone_in_penalty(self):
        x, y = make_xy(500, seed=7)
        basis = build_basis(x, 15)
        edfs = [fit_penalized(y, x, basis, lam).edf for lam in np.logspace(-6, 6, 13)]
        diffs = np.diff(edfs)
        assert np.all(diffs <= 1e-9)
        assert edfs[0] > edfs[-1] + 1

    def test_edf_bounds(self):
        x, y = make_xy(500, seed=8)
        basis = build_basis(x, 15)
        for lam in (1e-6, 1.0, 1e6):
            fit = fit_penalized(y, x, basis, lam)
            assert 1.0 <= fit.edf <= basis.dim + 1e-9

    @pytest.mark.parametrize(
        "case, lam",
        [("smooth", 1e-6), ("smooth", 2.5), ("smooth", 1e6), ("four_valued", 1.0)],
        ids=["tiny_penalty", "moderate_penalty", "huge_penalty", "rank_deficient"],
    )
    def test_influence_trace_two_ways(self, case, lam):
        if case == "smooth":
            x, y = make_xy(150, seed=9)
            basis = build_basis(x, 8)
        else:
            x, y, basis = four_valued_data()
        B = design_matrix(basis, x)
        P = penalty_matrix(basis)
        M = B.T @ B + lam * P
        trace_direct = float(np.trace(np.linalg.solve(M, B.T @ B)))
        leverages = np.einsum("ij,ij->i", B, np.linalg.solve(M, B.T).T)
        assert trace_direct == pytest.approx(float(leverages.sum()), abs=1e-6)
        fit = fit_penalized(y, x, basis, lam)
        assert fit.edf == pytest.approx(trace_direct, abs=1e-6)
        beta_direct = np.linalg.solve(M, B.T @ y)
        scale = float(np.max(np.abs(beta_direct)))
        assert np.max(np.abs(fit.coefficients - beta_direct)) < 1e-8 * scale

    def test_zero_penalty_rank_deficient_basis_is_singular(self):
        # two basis directions are determined neither by the data nor by a
        # zero penalty
        x, y, basis = four_valued_data()
        with pytest.raises(
            NumericError, match="^penalized normal equations are numerically singular$"
        ):
            fit_penalized(y, x, basis, 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_constant_covariate_rejected(self, lam):
        # a caller's basis skips build_basis's check on the column
        _, y = make_xy(50, seed=15)
        basis = build_basis(np.linspace(0.0, 1.0, 50))
        with pytest.raises(NumericError, match="^need >= 2 distinct covariate values, got 1$"):
            fit_penalized(y, np.full(50, 0.5), basis, lam)

    def test_length_mismatch(self):
        x, y = make_xy(100, seed=10)
        basis = build_basis(x, 8)
        with pytest.raises(FrontdoorLabError):
            fit_penalized(y[:-1], x, basis, 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_unusable_penalty_weight_rejected(self, lam):
        x, y = make_xy(100, seed=14)
        with pytest.raises(FrontdoorLabError, match="penalty weight must be finite"):
            fit_penalized(y, x, build_basis(x, 8), lam)

    @pytest.mark.parametrize("lam", ["1", b"1", None, True, np.zeros(1)], ids=repr)
    def test_non_number_penalty_weight_rejected(self, lam):
        x, y = make_xy(100, seed=14)
        message = f"^penalty weight must be a number, got {re.escape(repr(lam))}$"
        with pytest.raises(FrontdoorLabError, match=message):
            fit_penalized(y, x, build_basis(x, 8), lam)

    def test_numpy_scalar_penalty_weight_gives_the_same_fit(self):
        x, y = make_xy(100, seed=14)
        basis = build_basis(x, 8)
        fit = fit_penalized(y, x, basis, 1.0)
        for lam in (1, np.float64(1.0), np.int64(1), np.array(1.0)):
            assert_same_smooth(fit_penalized(y, x, basis, lam), fit)


class TestSelectLambda:
    def test_recovers_smooth_sine(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 2000)
        y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(2000)
        fit = select_lambda(y, x, 20)
        grid = np.linspace(0.02, 0.98, 200)
        rmse = np.sqrt(np.mean((predict(fit, grid) - np.sin(2 * np.pi * grid)) ** 2))
        assert rmse < 0.03

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_pure_noise_yields_near_constant_fit(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 2000)
        y = rng.standard_normal(2000)
        fit = select_lambda(y, x, 20)
        assert fit.edf < 4.0

    @pytest.mark.parametrize(
        "n_values", [None, 2, 3, 6], ids=["continuous", "binary", "three_valued", "six_valued"]
    )
    def test_selected_weight_is_grid_member_and_gcv_finite(self, n_values):
        x, y = make_xy(500, seed=13)
        if n_values is not None:
            # the same draws on a covariate with few distinct values
            x = np.round((x + 2) / 4 * (n_values - 1))
        basis = build_basis(x, 15)
        grid = LAMBDA_GRID
        fit = select_lambda(y, x, 15)
        assert fit.lam in grid
        assert np.isfinite(fit.gcv)
        # agree with a manual scan over fit_penalized
        manual = [fit_penalized(y, x, basis, lam) for lam in grid]
        best = min(range(len(grid)), key=lambda i: (manual[i].gcv, -grid[i]))
        assert fit.lam == grid[best]
        assert np.allclose(fit.coefficients, manual[best].coefficients)


# prints the text of one GCV selection on 20,000 rows, a size where OpenBLAS
# splits a vector dot product across its threads
_SELECT_20K = """
import numpy as np
from frontdoor_lab.spline_smooth import fit_to_json, select_lambda
rng = np.random.default_rng(0)
x = rng.uniform(-2, 2, 20000)
y = np.sin(2 * x) + 0.1 * rng.standard_normal(20000)
print(fit_to_json(select_lambda(y, x)), end="")
"""


class TestBlasThreads:
    def test_fit_text_does_not_depend_on_thread_count(self):
        """One selection gives the same text on one BLAS thread as on two.

        On a machine with one CPU OpenBLAS runs a single thread either way,
        so the test passes there without exercising the split.
        """
        src = str(Path(spline_smooth.__file__).resolve().parents[1])
        texts = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", _SELECT_20K],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            texts.append(done.stdout)
        assert texts[0].startswith('{"degree": 3, ')
        assert texts[0] == texts[1]


class TestPredict:
    def test_training_points_return_fitted_values(self):
        x, y = make_xy(400, seed=15)
        fit = select_lambda(y, x, 15)
        assert np.allclose(predict(fit, x), y - fit.residuals, atol=1e-10)

    def test_linear_extrapolation_beyond_boundary(self):
        x, y = make_xy(400, seed=16)
        fit = select_lambda(y, x, 15)
        # beyond the knot span the fit continues linearly
        hi = fit.basis.knots[-1]
        delta = 0.13
        v0, v1, v2 = predict(fit, np.array([hi, hi + delta, hi + 2 * delta]))
        slope = (v1 - v0) / delta
        assert v2 == pytest.approx(v0 + 2 * delta * slope, abs=1e-9)
        lo = fit.basis.knots[0]
        w0, w1, w2 = predict(fit, np.array([lo, lo - delta, lo - 2 * delta]))
        assert w2 == pytest.approx(w0 - 2 * delta * ((w0 - w1) / -delta) * -1, abs=1e-9)

    def test_mediator_model_extrapolation_accuracy(self):
        # smooth of the mediator on the treatment, evaluated in the sparse tail
        cfg = ScmConfig()
        pop = generate_population(cfg, 20000, seed=17)
        fit = select_lambda(pop.z, pop.x, 20)
        truth = 4 * std_normal_pdf(3.0)
        assert float(predict(fit, 3.0)[0]) == pytest.approx(truth, abs=0.05)

    def test_scalar_point(self):
        x, y = make_xy(200, seed=18)
        additive = fit_additive(y, [x, x**2])
        assert additive.converged
        # a smooth takes one scalar, an additive fit one scalar per term
        for fit, point in ((select_lambda(y, x, 10), 0.5), (additive, [0.5, 0.3])):
            assert predict(fit, point).shape == (1,)

    @pytest.mark.parametrize(
        "additive, points, message",
        [
            (False, ["a"], "points must be a vector of numbers, got dtype <U1"),
            (False, ["1.5"], "points must be a vector of numbers, got dtype <U3"),
            (False, [[1.0], [2.0, 3.0]], "points must be a vector, got a ragged sequence"),
            (False, np.zeros((2, 2)), r"points must be a vector, got shape \(2, 2\)"),
            (True, [["a"]], "covariate column must be a vector of numbers, got dtype <U1"),
            (True, [[0.5], ["0.3"]], "covariate column must be a vector of numbers, got dtype <U"),
            (True, np.zeros((2, 2, 2)), r"covariate column must be a vector, got shape \(2, 2\)"),
        ],
        ids=["text", "numeric_text", "ragged", "matrix", "additive_text",
             "additive_numeric_text", "additive_cube"],
    )
    def test_points_that_are_not_a_vector_of_numbers_rejected(self, additive, points, message):
        # a single smooth refuses a 2-d array rather than returning a 2-d result
        x, y = make_xy(200, seed=18)
        fit = fit_additive(y, [x, x**2]) if additive else select_lambda(y, x, 10)
        with pytest.raises(FrontdoorLabError, match=f"^{message}"):
            predict(fit, points)

    @pytest.mark.parametrize("points", [0.5, np.float64(0.5), np.array(0.5), None], ids=repr)
    def test_additive_fit_refuses_a_bare_number(self, points):
        # one number is no sequence of columns; a wrong column count raises alike
        x, y = make_xy(200, seed=18)
        fit = fit_additive(y, [x, x**2])
        with pytest.raises(FrontdoorLabError, match="^expected 2 covariate columns, got "):
            predict(fit, points)

    @pytest.mark.parametrize("lengths", [[3, 1], [1, 2], [2, 3]], ids=["3_1", "1_2", "2_3"])
    def test_additive_columns_of_unequal_length_rejected(self, lengths):
        rng = np.random.default_rng(20)
        x1, x2 = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
        fit = fit_additive(x1 + x2 + 0.1 * rng.standard_normal(200), [x1, x2])
        assert fit.converged
        columns = [np.linspace(-1, 1, length) for length in lengths]
        with pytest.raises(FrontdoorLabError, match=re.escape(f"equal lengths, got {lengths}")):
            predict(fit, columns)

    def test_non_finite_points(self):
        # the values SciPy's BSpline gave for this fit, with no warning: a NaN
        # point gives NaN, an infinite one the end slope's infinity
        x, y = make_xy(400, seed=0)
        fit = select_lambda(y, x)
        assert np.isnan(predict(fit, [np.nan])).all()
        inside, missing = predict(fit, [0.1, np.nan])
        assert inside.hex() == "0x1.8f4511bfef58dp-3"
        assert np.isnan(missing)
        assert predict(fit, [np.inf]).tolist() == [-np.inf]
        assert predict(fit, [-np.inf]).tolist() == [np.inf]

    def test_basis_geometry_is_computed_once_and_read_only(self):
        basis = build_basis(np.linspace(0, 1, 50), 8)
        for name in ("full_knots", "greville"):
            assert getattr(basis, name) is getattr(basis, name)
            assert not getattr(basis, name).flags.writeable


def scipy_spline_values(basis, coefficients, points):
    """The spline of ``_spline_values`` evaluated by SciPy's ``BSpline``."""
    lo, hi = basis.knots[0], basis.knots[-1]
    spline = BSpline(basis.full_knots, coefficients, basis.degree, extrapolate=False)
    values = spline(np.clip(points, lo, hi))
    slope = spline.derivative()
    below, above = points < lo, points > hi
    values[below] += (points[below] - lo) * slope(lo)
    values[above] += (points[above] - hi) * slope(hi)
    return values


def kernel_bases():
    """Bases of degree 1 and 3 with 4 to 30 knots, quantile and uneven, and
    one with two knots 1e-12 apart."""
    rng = np.random.default_rng(21)
    for degree in (1, 3):
        for n_knots in range(4, 31):
            quantiles = np.linspace(0, 1, n_knots)
            yield SplineBasis(np.quantile(rng.standard_normal(2000), quantiles), degree)
            yield SplineBasis(np.cumsum(rng.exponential(size=n_knots)), degree)
        knots = np.linspace(-1.0, 1.0, 12)
        yield SplineBasis(np.sort(np.append(knots, knots[5] + 1e-12)), degree)


class TestDeBoorAgainstScipy:
    """The de Boor kernel against SciPy's ``BSpline``, kept here as the reference:
    design rows and spline values match it bit for bit."""

    @staticmethod
    def span_points(basis, rng):
        lo, hi = basis.knots[0], basis.knots[-1]
        ends = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
        points = np.concatenate([rng.uniform(lo, hi, 300), basis.knots, ends])
        rng.shuffle(points)
        return points

    def test_design_rows(self):
        rng = np.random.default_rng(22)
        for basis in kernel_bases():
            x = self.span_points(basis, rng)
            expected = BSpline.design_matrix(x, basis.full_knots, basis.degree).toarray()
            assert design_matrix(basis, x).tobytes() == expected.tobytes(), basis

    def test_spline_values_and_extrapolation(self):
        rng = np.random.default_rng(23)
        for basis in kernel_bases():
            lo, hi = basis.knots[0], basis.knots[-1]
            beyond = rng.exponential(size=20)
            points = np.concatenate([self.span_points(basis, rng), lo - beyond, hi + beyond[::-1]])
            coefficients = rng.standard_normal(basis.dim)
            expected = scipy_spline_values(basis, coefficients, points)
            values = _spline_values(basis, coefficients, points)
            assert values.tobytes() == expected.tobytes(), basis

    def test_negative_zero_coefficients_sum_to_positive_zero(self):
        basis = SplineBasis(np.linspace(0.0, 1.0, 6), 3)
        points = np.array([0.0, 0.3, 1.0])
        coefficients = np.full(basis.dim, -0.0)
        values = _spline_values(basis, coefficients, points)
        assert values.tobytes() == scipy_spline_values(basis, coefficients, points).tobytes()
        assert values.tobytes() == np.zeros(3).tobytes()

    def test_close_knots_share_a_bucket(self):
        # so the tests above reach the search's comparison of several knots in one bucket
        *_, clustered = kernel_bases()
        assert len(clustered._de_boor._within) >= 2


class TestFitAdditive:
    def test_noise_free_additive_linear(self):
        rng = np.random.default_rng(19)
        x1 = rng.uniform(-1, 1, 500)
        x1 -= x1.mean()
        x2 = rng.uniform(-2, 2, 500)
        x2 -= x2.mean()
        y = 2.0 + x1 + x2
        fit = fit_additive(y, [x1, x2])
        assert fit.converged
        assert fit.intercept == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(fit.residuals)) < 1e-6
        # each component is affine: vanishing second differences on a grid
        from frontdoor_lab.spline_smooth import _spline_values

        for term in fit.terms:
            grid = np.linspace(term.basis.knots[0], term.basis.knots[-1], 40)
            vals = _spline_values(term.basis, term.coefficients, grid)
            second = np.diff(vals, 2)
            assert np.max(np.abs(second)) < 1e-7

    def test_terms_centered_over_training_data(self):
        rng = np.random.default_rng(20)
        x1 = rng.uniform(-1, 1, 800)
        x2 = rng.uniform(-1, 1, 800)
        y = np.sin(3 * x1) + x2**2 + 0.05 * rng.standard_normal(800)
        fit = fit_additive(y, [x1, x2])
        assert fit.converged
        from frontdoor_lab.spline_smooth import _spline_values

        for term, col in zip(fit.terms, (x1, x2)):
            component = _spline_values(term.basis, term.coefficients, col)
            assert abs(float(np.mean(component))) < 1e-6

    def test_recovers_structural_decomposition(self):
        # the conditional mean is additive: bump-plus-linear in z and the
        # confounder distortion in x, recoverable from a large sample
        cfg = ScmConfig()
        pop = generate_population(cfg, 20000, seed=21)
        fit = fit_additive(pop.y, [pop.x, pop.z])
        assert fit.converged

        def mean_u_given_x(x):
            num = std_normal_pdf(x - 2) - std_normal_pdf(x + 2)
            den = std_normal_cdf(x + 2) - std_normal_cdf(x - 2)
            return num / den

        from frontdoor_lab.spline_smooth import _spline_values

        xg = np.quantile(pop.x, np.linspace(0.01, 0.99, 120))
        truth_x = -0.1 * mean_u_given_x(xg)
        est_x = _spline_values(fit.terms[0].basis, fit.terms[0].coefficients, xg)
        gap_x = (est_x - est_x.mean()) - (truth_x - truth_x.mean())
        assert float(np.sqrt(np.mean(gap_x**2))) < 0.02

        zg = np.quantile(pop.z, np.linspace(0.01, 0.99, 120))
        truth_z = std_normal_pdf(zg - 0.5) + 0.3 * zg
        est_z = _spline_values(fit.terms[1].basis, fit.terms[1].coefficients, zg)
        gap_z = (est_z - est_z.mean()) - (truth_z - truth_z.mean())
        assert float(np.sqrt(np.mean(gap_z**2))) < 0.02

    def test_single_covariate_matches_select_lambda(self):
        x, y = make_xy(600, seed=22)
        additive = fit_additive(y, [x])
        assert additive.converged
        single = select_lambda(y, x, 20)
        assert np.allclose(
            predict(additive, [x]), predict(single, x), atol=1e-8
        )

    def test_binary_covariate_handled_as_linear_term(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, 500)
        s = np.where(rng.random(500) < 0.5, -1.0, 1.0)
        y = 0.5 * s + np.sin(2 * x) + 0.05 * rng.standard_normal(500)
        fit = fit_additive(y, [x, s])
        assert fit.converged
        assert fit.terms[1].basis.degree == 1
        from frontdoor_lab.spline_smooth import _spline_values

        gap = _spline_values(
            fit.terms[1].basis, fit.terms[1].coefficients, np.array([1.0])
        ) - _spline_values(fit.terms[1].basis, fit.terms[1].coefficients, np.array([-1.0]))
        assert float(gap[0]) == pytest.approx(1.0, abs=0.05)

    def test_backfitting_fixed_point(self):
        rng = np.random.default_rng(24)
        x1 = rng.uniform(-1, 1, 1000)
        x2 = rng.uniform(-1, 1, 1000)
        y = np.sin(3 * x1) + np.cos(2 * x2) + 0.1 * rng.standard_normal(1000)
        fit = fit_additive(y, [x1, x2])
        assert fit.converged
        # one more manual cycle moves every component by less than the tolerance
        from frontdoor_lab.spline_smooth import _spline_values

        components = [
            _spline_values(t.basis, t.coefficients, c)
            for t, c in zip(fit.terms, (x1, x2))
        ]
        for j, (term, col) in enumerate(zip(fit.terms, (x1, x2))):
            partial = y - fit.intercept - sum(
                components[k] for k in range(2) if k != j
            )
            refit = select_lambda(partial, col)
            refit_vals = predict(refit, col)
            refit_vals = refit_vals - refit_vals.mean()
            assert float(np.max(np.abs(refit_vals - components[j]))) < 1e-5

    def test_cycle_cap_reported_by_the_flag(self, monkeypatch):
        rng = np.random.default_rng(25)
        x1 = rng.uniform(-1, 1, 400)
        x2 = x1 + 1e-3 * rng.standard_normal(400)  # nearly collinear smooths
        y = np.sin(4 * x1) + 0.1 * rng.standard_normal(400)
        # an unreachable tolerance forces the cycle cap
        monkeypatch.setattr(spline_smooth, "BACKFIT_MAX_CYCLES", 1)
        monkeypatch.setattr(spline_smooth, "BACKFIT_TOL", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the flag alone reports it
            fit = fit_additive(y, [x1, x2])
        assert fit.converged is False

    def test_empty_covariates_rejected(self):
        with pytest.raises(FrontdoorLabError):
            fit_additive(np.zeros(10), [])

    @pytest.mark.parametrize("entry", ["fit_additive", "select_lambda"])
    def test_small_n_knots_rejected(self, entry):
        x, y = make_xy(200, seed=32)
        fits = {
            "fit_additive": lambda: fit_additive(y, [x], n_knots=3),
            "select_lambda": lambda: select_lambda(y, x, 3),
        }
        with pytest.raises(FrontdoorLabError, match="n_knots must be >= 4"):
            fits[entry]()

    @pytest.mark.parametrize("entry", ["fit_additive", "select_lambda"])
    @pytest.mark.parametrize("n_knots", [4.5, 5.5, 20.0, [4]])
    def test_non_int_n_knots_rejected(self, entry, n_knots):
        x, y = make_xy(200, seed=33)
        fits = {
            "fit_additive": lambda k: fit_additive(y, [x], n_knots=k),
            "select_lambda": lambda k: select_lambda(y, x, k),
        }
        # the int's design is cached, and a float equal to it must not find it;
        # a list, which the cache cannot hash, is refused before the cache
        fits[entry](int(np.sum(n_knots)))
        message = f"n_knots must be int, got {n_knots}"
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            fits[entry](n_knots)

    def test_repeated_columns_reuse_their_designs(self, monkeypatch):
        rng = np.random.default_rng(28)
        columns = [rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)]
        y = np.sin(2 * columns[0]) + columns[1] + 0.1 * rng.standard_normal(300)
        spline_smooth._design_for.cache_clear()
        built = []

        def counting_design_matrix(basis, x):
            built.append(len(x))
            return design_matrix(basis, x)

        monkeypatch.setattr(spline_smooth, "design_matrix", counting_design_matrix)
        first = fit_additive(y, columns)
        second = fit_additive(y, columns)
        assert first.converged and second.converged
        assert len(built) == len(columns)
        assert first.intercept == second.intercept
        assert np.array_equal(first.residuals, second.residuals)
        for a, b in zip(first.terms, second.terms):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert np.array_equal(a.residuals, b.residuals)
            assert (a.lam, a.edf, a.gcv) == (b.lam, b.edf, b.gcv)

        for _ in range(spline_smooth._DESIGN_MEMO_SIZE + 2):
            assert fit_additive(y, [rng.uniform(-1, 1, 300)]).converged
        assert spline_smooth._design_for.cache_info().currsize <= spline_smooth._DESIGN_MEMO_SIZE


class TestKernelRowProducts:
    """A design's products from the kernel's rows against SciPy's CSR products
    on a ``csr_array`` that the test builds from the same rows (``kernel_csr``).

    ``B beta`` sums each row as the CSR product does, so it has its bits.  The
    bincount sums of ``B'v``, the column sums and the cross Grams add each
    pair of value rows in turn, so they round differently: each entry is
    within 4e-15 of the CSR entry relative to the entry's sum of absolute
    products (observed: at most 9e-16)."""

    @staticmethod
    def columns_and_designs():
        rng = np.random.default_rng(31)
        x = rng.standard_normal(500)
        basis = build_basis(x, 20)
        # every knot, both span ends and the points next to them
        lo, hi = basis.knots[0], basis.knots[-1]
        ends = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
        cubic = np.concatenate([x, basis.knots, ends])
        sign = np.where(rng.standard_normal(len(cubic)) >= 0, 1.0, -1.0)
        columns = [cubic, sign]
        designs = [
            spline_smooth._PenalizedDesign(build_basis(c, 20), c, LAMBDA_GRID) for c in columns
        ]
        return columns, designs

    TOLERANCE = 4e-15

    def test_products_match_the_csr_products(self):
        columns, designs = self.columns_and_designs()
        assert [d.basis.degree for d in designs] == [3, 1]
        rng = np.random.default_rng(32)
        y = rng.standard_normal(len(columns[0]))
        y[::7] = -0.0
        for design, column in zip(designs, columns):
            reference = kernel_csr(design)
            assert reference.toarray().tobytes() == design_matrix(design.basis, column).tobytes()
            for beta in (rng.standard_normal(design.basis.dim), np.full(design.basis.dim, -0.0)):
                assert (_combine(beta, *design._rows)).tobytes() == (reference @ beta).tobytes()
            scale = abs(reference).T @ np.abs(y)
            assert np.all(np.abs(design._Bt(y) - reference.T @ y) <= self.TOLERANCE * scale)
        for a, b in (designs, designs[::-1]):
            cross = _gram(a._rows, b._rows, (a.basis.dim, b.basis.dim))
            reference = (kernel_csr(a).T @ kernel_csr(b)).toarray()
            scale = (abs(kernel_csr(a)).T @ abs(kernel_csr(b))).toarray()
            assert np.all(np.abs(cross - reference) <= self.TOLERANCE * scale)

    def test_design_rows_match_a_per_row_reference(self):
        columns, designs = self.columns_and_designs()
        for design, column in zip(designs, columns):
            basis = SplineBasis(design.basis.knots, design.basis.degree)
            first, values = basis._de_boor(column)
            reference = np.zeros((len(column), basis.dim))
            for r, start in enumerate(first):
                reference[r, start : start + len(values)] = values[:, r]
            assert design_matrix(basis, column).tobytes() == reference.tobytes()
            assert design_matrix(design.basis, column).tobytes() == reference.tobytes()

    def test_column_sums_match_the_dense_sums(self):
        # every basis value is >= 0, so each sum is its own sum of absolute values
        columns, designs = self.columns_and_designs()
        for design, column in zip(designs, columns):
            dense = design_matrix(design.basis, column)
            for reference in (dense.sum(axis=0), kernel_csr(design).T @ np.ones(len(column))):
                assert np.all(np.abs(design._col_sums - reference) <= self.TOLERANCE * reference)

    @staticmethod
    def responses(column, rng):
        """Noise, an affine response, noise with signed zeros, and all -0.0."""
        noise = rng.standard_normal(len(column))
        signed_zeros = noise.copy()
        signed_zeros[::5] = -0.0
        return {
            "noise": noise,
            "affine": 0.5 - 2.0 * column,
            "signed_zeros": signed_zeros,
            "negative_zeros": np.full(len(column), -0.0),
        }

    def test_pick_is_the_index_select_chooses(self):
        columns, designs = self.columns_and_designs()
        rng = np.random.default_rng(34)
        for design, column in zip(designs, columns):
            for y in self.responses(column, rng).values():
                bty, yty = response_moments(design, y)
                assert design.pick(bty, yty) == design.select(bty, yty)[0]

    def test_zero_weight_on_a_rank_deficient_design_raises(self):
        # when built, even beside a usable weight; fit_penalized's one-weight
        # case is TestFitPenalized's
        x, _, basis = four_valued_data()
        with pytest.raises(
            NumericError, match="^penalized normal equations are numerically singular$"
        ):
            spline_smooth._PenalizedDesign(basis, x, [0.0, 1.0])

    @pytest.mark.parametrize("lambdas", [[0.0], [0.0, 1.0]], ids=["alone", "beside_one"])
    def test_zero_weight_on_a_full_rank_design_builds(self, lambdas):
        # the data determine every direction, so a zero weight leaves nothing
        # undetermined: the check at build time lets it through
        x, y = make_xy(300, seed=35)
        design = spline_smooth._PenalizedDesign(build_basis(x, 8), x, lambdas)
        assert design.edf[0] == pytest.approx(design.basis.dim, abs=1e-6)
        bty, yty = response_moments(design, y - np.mean(y))
        assert design.pick(bty, yty) == design.select(bty, yty)[0]

    def test_joint_matrix_is_cached_and_read_only(self):
        columns, designs = self.columns_and_designs()
        spline_smooth._joint_normal_matrix.cache_clear()
        M, blocks, G, spans = spline_smooth._joint_normal_matrix(tuple(designs))
        again, blocks_again, G_again, spans_again = (
            spline_smooth._joint_normal_matrix(tuple(designs))
        )
        info = spline_smooth._joint_normal_matrix.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert again is M and blocks_again is blocks
        assert G_again is G and spans_again is spans
        assert not M.flags.writeable
        assert not G.flags.writeable
        assert M[0, 0] == G[0, 0] == len(columns[0])
        uncached, uncached_blocks, uncached_G, uncached_spans = (
            spline_smooth._joint_normal_matrix.__wrapped__(tuple(designs))
        )
        assert M.tobytes() == uncached.tobytes()
        assert uncached_blocks == blocks
        assert G.tobytes() == uncached_G.tobytes()
        assert uncached_spans == spans

    def test_joint_blocks_tile_the_matrix_in_term_order(self):
        columns, designs = self.columns_and_designs()
        for terms in (designs, designs[::-1], designs[:1]):
            M, blocks, G, spans = spline_smooth._joint_normal_matrix(tuple(terms))
            assert len(blocks) == len(spans) == len(terms)
            # row and column 0 are the intercept's; the blocks follow without gaps
            for matrix, slices in ((M, blocks), (G, spans)):
                assert [b.start for b in slices] == [1] + [b.stop for b in slices[:-1]]
                assert slices[-1].stop == len(matrix)
                assert all(b.step is None for b in slices)
            assert [b.stop - b.start for b in blocks] == [d._T.shape[1] for d in terms]
            assert [s.stop - s.start for s in spans] == [d.basis.dim for d in terms]
            # the raw Gram's blocks: the column sums, each B'B and the cross products
            for a, a_span in zip(terms, spans):
                assert G[0, a_span].tobytes() == G[a_span, 0].tobytes() == a._col_sums.tobytes()
                assert G[a_span, a_span].tobytes() == a._BtB.tobytes()
                for b, b_span in zip(terms, spans):
                    if b is not a:
                        cross = _gram(a._rows, b._rows, (a.basis.dim, b.basis.dim))
                        assert G[a_span, b_span].tobytes() == cross.tobytes()

    def test_whitened_eigenvectors_match_the_generalized_eigh(self):
        # against SciPy's eigh(K, S): the eigenvalues within 1e-12 of the
        # largest, and the penalized inverse W diag(1 / (mu + lam)) W' that
        # every fit reads within 1e-10 of its largest entry at each grid
        # weight, which holds however close two eigenvalues are
        # (observed: 6e-16 and 5e-13)
        columns, designs = self.columns_and_designs()
        x, _, basis = four_valued_data()
        cubic = spline_smooth._PenalizedDesign(basis, x, [1.0])
        for design in (*designs, cubic):
            K = design._Q2.T @ design._BtB @ design._Q2 - design._L @ design._A_inv @ design._L.T
            mu, W = eigh(K, design._S)
            assert np.all(np.abs(design._mu - np.clip(mu, 0.0, None)) <= 1e-12 * np.max(mu, initial=1.0))
            for lam in design.lambdas[design.lambdas > 0]:
                inverse = (design._W / (design._mu + lam)) @ design._W.T
                reference = (W / (np.clip(mu, 0.0, None) + lam)) @ W.T
                assert np.all(np.abs(inverse - reference) <= 1e-10 * np.max(np.abs(reference), initial=1.0))


class TestRecordedRows:
    """A design runs the kernel once and records its column's rows on its basis;
    design rows and spline values read them back only for that column's bits."""

    @staticmethod
    def basis_and_column(degree):
        rng = np.random.default_rng(41)
        if degree == 1:
            # a sign column: every point on a knot at one end of the span
            x = np.where(rng.standard_normal(300) >= 0, 1.0, -1.0)
        else:
            x = np.append(rng.standard_normal(300), 0.0)
        basis = build_basis(x, 20)
        assert basis.degree == degree
        # every knot, both span ends and the points next to them
        lo, hi = basis.knots[0], basis.knots[-1]
        ends = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
        return basis, np.concatenate([x, basis.knots, ends])

    @staticmethod
    def count_kernel_runs(monkeypatch) -> list[int]:
        runs = []
        kernel = spline_smooth._DeBoor.__call__

        def counting(self, x):
            runs.append(len(x))
            return kernel(self, x)

        monkeypatch.setattr(spline_smooth._DeBoor, "__call__", counting)
        return runs

    @pytest.mark.parametrize("degree", [3, 1])
    def test_recorded_rows_match_a_fresh_basis(self, degree):
        basis, column = self.basis_and_column(degree)
        spline_smooth._PenalizedDesign(basis, column, LAMBDA_GRID)
        fresh = SplineBasis(basis.knots, basis.degree)
        assert basis._recorded is not None and fresh._recorded is None
        coefficients = np.random.default_rng(42).standard_normal(basis.dim)
        assert design_matrix(basis, column).tobytes() == design_matrix(fresh, column).tobytes()
        values = _spline_values(basis, coefficients, column)
        assert values.tobytes() == _spline_values(fresh, coefficients, column).tobytes()

    def test_kernel_runs_once_per_design_and_never_at_its_column(self, monkeypatch):
        basis, column = self.basis_and_column(3)
        runs = self.count_kernel_runs(monkeypatch)
        design = spline_smooth._PenalizedDesign(basis, column, LAMBDA_GRID)
        assert runs == [len(column)]
        fit = design.fit(np.sin(column))
        predict(fit, column.copy())
        design_matrix(basis, column.copy())
        assert runs == [len(column)]

    def test_other_bits_of_the_same_length_run_the_kernel(self, monkeypatch):
        basis, column = self.basis_and_column(3)
        spline_smooth._PenalizedDesign(basis, column, LAMBDA_GRID)
        coefficients = np.random.default_rng(43).standard_normal(basis.dim)
        fresh = SplineBasis(basis.knots, basis.degree)
        negative_zero = column.copy()
        negative_zero[column == 0.0] = -0.0
        last_differs = column.copy()
        last_differs[-1] = column[-2]
        others = [column[::-1].copy(), negative_zero, last_differs]
        # equal values, other bits: only the sign of one zero differs
        assert np.array_equal(negative_zero, column) and negative_zero[0] == column[0]
        runs = self.count_kernel_runs(monkeypatch)
        for other in others:
            values = _spline_values(basis, coefficients, other)
            assert values.tobytes() == _spline_values(fresh, coefficients, other).tobytes()
        assert len(runs) == 2 * len(others)

    def test_a_basis_reused_on_a_new_column_reads_only_that_column(self):
        x, y = make_xy(200, seed=44)
        basis = build_basis(x, 8)
        first = fit_penalized(y, x, basis, 1.0)
        other = np.sort(x)
        fit_penalized(y, other, basis, 1.0)
        x_fresh = fit_penalized(y, x, SplineBasis(basis.knots, basis.degree), 1.0)
        assert predict(first, x).tobytes() == predict(x_fresh, x).tobytes()

    def test_a_changed_caller_column_is_not_read_as_recorded(self):
        x, y = make_xy(200, seed=45)
        basis = build_basis(x, 8)
        fit = fit_penalized(y, x, basis, 1.0)
        fresh = SplineBasis(basis.knots, basis.degree)
        x[:] = x[::-1].copy()
        assert predict(fit, x).tobytes() == _spline_values(fresh, fit.coefficients, x).tobytes()


class TestJointFit:
    """The Gram-block joint start against the stacked penalized system."""

    @staticmethod
    def case(shape):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(600)
        if shape == "two_terms":
            z = x + rng.standard_normal(600)
            columns = [x, z]
            y = np.sin(x) + 0.5 * z + 0.1 * rng.standard_normal(600)
        else:
            outcome = x + rng.standard_normal(600)
            columns = [np.abs(x), np.where(x >= 0, 1.0, -1.0), outcome]
            y = x + 0.3 * outcome + 0.1 * rng.standard_normal(600)
        designs = tuple(
            spline_smooth._PenalizedDesign(build_basis(c, 20), c, LAMBDA_GRID)
            for c in columns
        )
        assert designs[1].basis.degree == (3 if shape == "two_terms" else 1)
        rhs = np.concatenate([[np.sum(y)], *(d._T.T @ d._Bt(y) for d in designs)])
        return y, columns, designs, rhs

    @staticmethod
    def stacked_solution(y, columns, designs, indices):
        # [1, B_1 T_1, ..., B_k T_k] formed and solved directly
        blocks = [np.ones((len(y), 1))]
        penalties = [np.zeros((1, 1))]
        transforms = []
        for column, design, index in zip(columns, designs, indices):
            T = np.column_stack([design._Q1[:, 1:], design._Q2])
            transforms.append(T)
            blocks.append(design_matrix(design.basis, column) @ T)
            penalties.append(design.lambdas[index] * T.T @ penalty_matrix(design.basis) @ T)
        G = np.hstack(blocks)
        M = G.T @ G
        offset = 0
        for pen in penalties:
            k = len(pen)
            M[offset : offset + k, offset : offset + k] += pen
            offset += k
        coef = np.linalg.solve(M, G.T @ y)
        betas, offset = [], 1
        for T in transforms:
            betas.append(T @ coef[offset : offset + T.shape[1]])
            offset += T.shape[1]
        return float(coef[0]), betas

    @staticmethod
    def offset_solution(M, rhs, designs, indices, solve=None):
        # the unpenalized matrix penalized and its solution split with explicit
        # offsets, term by term; by default solved as _joint_fit solves
        M = M.copy()
        offset = 1
        for design, index in zip(designs, indices):
            k = design._T.shape[1]
            M[offset + 1 : offset + k, offset + 1 : offset + k] += (
                design.lambdas[index] * design._S
            )
            offset += k
        if solve is None:
            lower = np.linalg.cholesky(M)
            coef = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
        else:
            coef = solve(M, rhs)
        betas, offset = [], 1
        for design in designs:
            k = design._T.shape[1]
            betas.append(design._T @ coef[offset : offset + k])
            offset += k
        return float(coef[0]), betas

    cases = pytest.mark.parametrize(
        "shape, indices",
        [("two_terms", [8, 14]), ("mediator_block", [10, 12, 3])],
        ids=["two_terms", "mediator_block"],
    )

    @cases
    def test_matches_stacked_system(self, shape, indices):
        y, columns, designs, rhs = self.case(shape)
        normal = spline_smooth._joint_normal_matrix(designs)
        intercept, betas = spline_smooth._joint_fit(normal, rhs, designs, indices)
        ref_intercept, ref_betas = self.stacked_solution(y, columns, designs, indices)
        got = np.concatenate([[intercept], *betas])
        want = np.concatenate([[ref_intercept], *ref_betas])
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    @cases
    def test_blocks_give_the_bits_of_explicit_offsets(self, shape, indices):
        _, _, designs, rhs = self.case(shape)
        normal = spline_smooth._joint_normal_matrix(designs)
        intercept, betas = spline_smooth._joint_fit(normal, rhs, designs, indices)
        ref_intercept, ref_betas = self.offset_solution(normal[0], rhs, designs, indices)
        assert np.float64(intercept).tobytes() == np.float64(ref_intercept).tobytes()
        assert len(betas) == len(ref_betas) == len(designs)
        for beta, ref_beta in zip(betas, ref_betas):
            assert beta.tobytes() == ref_beta.tobytes()

    @cases
    def test_solve_matches_scipy_cho_solve(self, shape, indices):
        # the numpy Cholesky solve against SciPy's cho_factor and cho_solve:
        # within 1e-10 of the largest coefficient (observed: at most 4e-14)
        _, _, designs, rhs = self.case(shape)
        normal = spline_smooth._joint_normal_matrix(designs)
        intercept, betas = spline_smooth._joint_fit(normal, rhs, designs, indices)
        solve = lambda M, b: cho_solve(cho_factor(M), b)  # noqa: E731
        ref_intercept, ref_betas = self.offset_solution(normal[0], rhs, designs, indices, solve)
        got = np.concatenate([[intercept], *betas])
        want = np.concatenate([[ref_intercept], *ref_betas])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_singular_system_retried_with_jitter(self, monkeypatch):
        # b and 1 - b span the same direction beside the intercept, so the
        # joint matrix is singular until the jittered retry; with 64 rows in
        # each group the two terms' entries are exactly 64 and -64, and the
        # elimination leaves an exact zero pivot however the factorization rounds
        b = np.tile([0.0, 1.0], 64)
        y = 1.0 + 2.0 * b + np.random.default_rng(31).standard_normal(len(b))
        outcomes = []
        cholesky = np.linalg.cholesky

        def spy(M, *args, **kwargs):
            try:
                factor = cholesky(M, *args, **kwargs)
            except np.linalg.LinAlgError:
                outcomes.append("singular")
                raise
            outcomes.append("factored")
            return factor

        # the designs, which factor their penalties, are built and cached
        # first, so the spy sees only the joint solves
        for column in (b, 1 - b):
            spline_smooth._design_for(column.tobytes(), spline_smooth.DEFAULT_N_KNOTS)
        monkeypatch.setattr(np.linalg, "cholesky", spy)
        fit = fit_additive(y, [b, 1 - b])
        assert outcomes[:2] == ["singular", "factored"]
        assert fit.converged
        means = [np.mean(y[b == 0]), np.mean(y[b == 1])]
        got = predict(fit, [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        np.testing.assert_allclose(got, means, rtol=0, atol=1e-12)


class TestAgainstResidualReference:
    """Coefficient-space scoring against the O(n) reference in ``oracles``, which
    forms every partial residual, ``B'r``, ``B beta_affine`` and the RSS on the
    n rows."""

    def test_scores_match_the_reference(self):
        columns, designs = TestKernelRowProducts.columns_and_designs()
        rng = np.random.default_rng(34)
        for design, column in zip(designs, columns):
            for name, y in TestKernelRowProducts.responses(column, rng).items():
                bty, yty = response_moments(design, y)
                index, _, _, gcv = design._score(bty, yty)
                ref_index, _, _, ref_gcv = score_on_residuals(design, y)
                finite = np.isfinite(ref_gcv)
                assert np.array_equal(np.isfinite(gcv), finite)
                # relative to the entry or, for an exact fit, the response's
                # mean square, the GCV of the zero fit
                scale = np.maximum(np.abs(ref_gcv[finite]), yty / len(y))
                assert np.all(np.abs(gcv[finite] - ref_gcv[finite]) <= 1e-12 * scale), name
                if name == "affine" and design.basis.degree == 3:
                    # every weight reproduces the response, so both curves are
                    # zero to rounding: the reference's pick, where its RSS
                    # leaves 0.0 for 5e-32, is rounding's, and this one is the
                    # tie rule's largest weight; the fits agree
                    assert np.all(ref_gcv <= 1e-12 * yty / len(y))
                    assert index == len(design.lambdas) - 1
                    beta = design.select(bty, yty)[1]
                    ref_beta = select_on_residuals(design, y)[1]
                    assert np.max(np.abs(beta - ref_beta)) <= 1e-12 * np.max(np.abs(ref_beta))
                else:
                    assert index == ref_index, name

    @staticmethod
    def mice_shaped_case():
        # the mediator's imputation model: z on (|x|, sign of x, y)
        pop = generate_population(ScmConfig(), 2000, seed=5)
        columns = [np.abs(pop.x), np.where(pop.x >= 0, 1.0, -1.0), pop.y]
        designs = tuple(
            spline_smooth._PenalizedDesign(build_basis(c, 20), c, LAMBDA_GRID) for c in columns
        )
        return pop.z, columns, designs

    @pytest.mark.parametrize("shape", ["two_terms", "mediator_block", "mice_shaped"])
    def test_additive_fit_matches_the_reference_loop(self, shape):
        if shape == "mice_shaped":
            y, columns, designs = self.mice_shaped_case()
        else:
            y, columns, designs, _ = TestJointFit.case(shape)
        fit = fit_additive(y, columns)
        intercept, betas, picks, converged = backfit_on_residuals(y, designs)
        assert [term.lam for term in fit.terms] == [LAMBDA_GRID[i] for i in picks]
        assert fit.converged is converged is True
        got = np.concatenate([[fit.intercept], *(term.coefficients for term in fit.terms)])
        want = np.concatenate([[intercept], *betas])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_large_offset_leaves_the_scores(self):
        # the moments are taken about the response's mean, so r'r never holds
        # the offset's square, against which the RSS would be rounding noise
        rng = np.random.default_rng(26)
        x1, x2 = rng.uniform(-1, 1, 800), rng.uniform(-1, 1, 800)
        y = np.sin(3 * x1) + x2**2 + 0.1 * rng.standard_normal(800)
        for fit, shifted in (
            (select_lambda(y, x1), select_lambda(y + 1e6, x1)),
            (fit_additive(y, [x1, x2]), fit_additive(y + 1e6, [x1, x2])),
        ):
            pairs = zip(getattr(fit, "terms", [fit]), getattr(shifted, "terms", [shifted]))
            for term, shifted_term in pairs:
                assert shifted_term.lam == term.lam
                assert shifted_term.gcv == pytest.approx(term.gcv, rel=1e-8)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "entry, target, value",
        [
            ("select_lambda", "response", np.nan),
            ("fit_penalized", "response", np.nan),
            ("fit_additive", "response", np.nan),
            ("fit_additive", "covariate", np.nan),
            ("fit_additive", "covariate", np.inf),
        ],
        ids=[
            "select_lambda-nan_response",
            "fit_penalized-nan_response",
            "fit_additive-nan_response",
            "fit_additive-nan_covariate",
            "fit_additive-inf_covariate",
        ],
    )
    def test_rejected_with_frontdoor_error(self, entry, target, value):
        x, y = make_xy(200, seed=31)
        basis = build_basis(x, 20)
        (y if target == "response" else x)[17] = value
        fits = {
            "select_lambda": lambda: select_lambda(y, x, 20),
            "fit_penalized": lambda: fit_penalized(y, x, basis, 1.0),
            "fit_additive": lambda: fit_additive(y, [x]),
        }
        with pytest.raises(FrontdoorLabError, match=f"{target} values must be finite"):
            fits[entry]()


class TestVectorInput:
    # one entry point, called with x, y and a basis on x, and the message it raises
    CASES = {
        "fit_additive-matrix_covariate": (
            lambda x, y, basis: fit_additive(y, [x[:, None]]),
            r"covariate must be a vector, got shape \(200, 1\)",
        ),
        "fit_additive-matrix_response": (
            lambda x, y, basis: fit_additive(y[:, None], [x]),
            r"response must be a vector, got shape \(200, 1\)",
        ),
        "fit_additive-ragged_covariate": (
            lambda x, y, basis: fit_additive(y[:2], [[[1.0], [2.0, 3.0]]]),
            "covariate must be a vector, got a ragged sequence",
        ),
        "select_lambda-matrix_covariate": (
            lambda x, y, basis: select_lambda(y, x[:, None], 20),
            r"covariate must be a vector, got shape \(200, 1\)",
        ),
        "select_lambda-text_cells": (
            lambda x, y, basis: select_lambda([str(v) for v in y], x, 20),
            r"response must be a vector of numbers, got dtype <U\d+",
        ),
        "fit_penalized-scalar_response": (
            lambda x, y, basis: fit_penalized(1.0, x, basis, 1.0),
            r"response must be a vector, got shape \(\)",
        ),
        "build_basis-matrix_covariate": (
            lambda x, y, basis: build_basis(x.reshape(100, 2), 20),
            r"covariate must be a vector, got shape \(100, 2\)",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected_with_frontdoor_error(self, case):
        x, y = make_xy(200, seed=31)
        run, message = self.CASES[case]
        with pytest.raises(FrontdoorLabError, match=f"^{message}$"):
            run(x, y, build_basis(x, 20))

    def test_bool_response_counts_as_zero_and_one(self):
        x, y = make_xy(200, seed=31)
        flags = y > 0
        assert_same_smooth(select_lambda(flags, x, 8), select_lambda(flags.astype(float), x, 8))

    def test_float64_vector_is_the_callers_own_array(self):
        # so the column bytes that key the design cache are the caller's
        from frontdoor_lab.errors import check_vector

        x = np.linspace(0.0, 1.0, 7)
        assert check_vector("covariate", x) is x
        every_other = x[::2]
        assert check_vector("covariate", every_other) is every_other


def assert_same_smooth(back: PenalizedSplineFit, fit: PenalizedSplineFit):
    """Every field of the two smooths equal bit for bit."""
    assert type(back.basis.degree) is int and back.basis.degree == fit.basis.degree
    vectors = [
        (back.basis.knots, fit.basis.knots),
        (back.coefficients, fit.coefficients),
        (back.residuals, fit.residuals),
    ]
    for got, want in vectors:
        assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
    scalars = [(back.lam, fit.lam), (back.edf, fit.edf), (back.gcv, fit.gcv)]
    for got, want in scalars:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestSerialization:
    def test_spline_round_trip(self):
        x, y = make_xy(200, seed=26)
        fit = select_lambda(y, x, 10)
        text = fit_to_json(fit)
        back = fit_from_json(text)
        assert isinstance(back, PenalizedSplineFit)
        assert_same_smooth(back, fit)
        assert fit_to_json(back) == text

    def test_additive_round_trip(self):
        rng = np.random.default_rng(27)
        x1 = rng.uniform(-1, 1, 300)
        x2 = rng.uniform(-1, 1, 300)
        y = np.sin(2 * x1) + x2 + 0.1 * rng.standard_normal(300)
        fit = fit_additive(y, [x1, x2])
        assert fit.converged
        text = fit_to_json(fit)
        back = fit_from_json(text)
        assert isinstance(back, AdditiveFit)
        assert np.float64(back.intercept).tobytes() == np.float64(fit.intercept).tobytes()
        assert back.converged is fit.converged is True
        assert back.residuals.tobytes() == fit.residuals.tobytes()
        assert len(back.terms) == len(fit.terms) == 2
        for back_term, term in zip(back.terms, fit.terms):
            assert_same_smooth(back_term, term)
        # the residuals are written once, not once per term
        assert text.count('"residuals"') == 1
        assert fit_to_json(back) == text

    @pytest.mark.parametrize("source", ["fit_additive", "fit_from_json"])
    def test_terms_hold_the_fits_read_only_residuals(self, source):
        rng = np.random.default_rng(27)
        x1, x2 = rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)
        fit = fit_additive(np.sin(2 * x1) + x2 + 0.1 * rng.standard_normal(300), [x1, x2])
        assert fit.converged
        if source == "fit_from_json":
            fit = fit_from_json(fit_to_json(fit))
        assert all(term.residuals is fit.residuals for term in fit.terms)
        assert not fit.residuals.flags.writeable
        with pytest.raises(ValueError):
            fit.residuals[0] = 0.0

    def test_non_finite_field_refused_on_writing(self):
        # as many rows as basis columns: the unpenalized fit has n - edf = 0
        x = np.linspace(-1, 1, 12)
        fit = fit_penalized(np.sin(x), x, build_basis(x, 10), 0.0)
        assert fit.gcv == np.inf
        message = "^fitted model: Out of range float values are not JSON compliant"
        with pytest.raises(FrontdoorLabError, match=message):
            fit_to_json(fit)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("additive_missing_field", "^fitted model: missing field 'converged'$"),
            ("spline_bad_degree", "^fitted model: degree must be int, got 2.5$"),
            ("empty_terms", "^fitted model: 'terms' must be a non-empty list$"),
            ("bad_coefficients", "^fitted model: expected a finite number, got nan$"),
            ("huge_int_coefficient", "^fitted model: expected a finite number, got 1000"),
            ("bool_lambda", "^fitted model: expected a finite number, got True$"),
            ("deep_nesting", "^fitted model: maximum recursion depth exceeded"),
        ],
        ids=["additive_missing_field", "spline_bad_degree", "empty_terms", "bad_coefficients",
             "huge_int_coefficient", "bool_lambda", "deep_nesting"],
    )
    def test_malformed_text_raises_frontdoor_error(self, case, message):
        x, y = make_xy(120, seed=29)
        spline_text = fit_to_json(select_lambda(y, x, 8))
        additive = fit_additive(y, [x])
        assert additive.converged
        additive_text = fit_to_json(additive)
        text = {
            "additive_missing_field": additive_text.replace('"converged": true, ', ""),
            "spline_bad_degree": spline_text.replace('"degree": 3,', '"degree": 2.5,'),
            "empty_terms": re.sub(r'("terms": \[).*(\], "residuals")', r"\1\2", additive_text),
            "bad_coefficients": re.sub(r'("coefficients": \[)[^,]*', r"\1NaN", spline_text),
            "huge_int_coefficient": re.sub(
                r'("coefficients": \[)[^,]*', r"\g<1>1" + "0" * 400, spline_text
            ),
            "bool_lambda": re.sub(r'("lambda": )[^,]*', r"\1true", spline_text),
            "deep_nesting": "[" * 100000,
        }[case]
        assert text not in (spline_text, additive_text)
        with pytest.raises(FrontdoorLabError, match=message):
            fit_from_json(text)
