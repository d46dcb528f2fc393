import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frontdoor_lab import spline_smooth
from frontdoor_lab.errors import FrontdoorLabError, SingularSystem, TooFewDistinctValues
from frontdoor_lab.scm_sim import ScmConfig, generate_population, std_normal_cdf, std_normal_pdf
from frontdoor_lab.spline_smooth import (
    LAMBDA_GRID,
    AdditiveFit,
    NoConvergenceWarning,
    SplineBasis,
    additive_fit_from_text,
    additive_fit_to_text,
    build_basis,
    design_matrix,
    fit_additive,
    fit_penalized,
    penalty_matrix,
    predict,
    select_lambda,
    spline_fit_from_text,
    spline_fit_to_text,
)


def make_xy(n=400, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = np.sin(2 * x) + noise * rng.standard_normal(n)
    return x, y


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
        with pytest.raises(TooFewDistinctValues):
            build_basis(np.ones(100), n_knots=4)

    def test_duplicates_use_dedup_then_quantile(self):
        rng = np.random.default_rng(2)
        distinct = np.sort(rng.uniform(0, 1, 25))
        x = np.concatenate([distinct, distinct, distinct[:5]])
        basis = build_basis(x, n_knots=8)
        expected = np.quantile(np.unique(x), np.linspace(0, 1, 8))
        assert np.allclose(basis.knots, expected)

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctValues):
            build_basis(np.array([1.0, 2.0, 3.0] * 10), n_knots=4)

    def test_small_n_knots_rejected(self):
        with pytest.raises(FrontdoorLabError):
            build_basis(np.linspace(0, 1, 50), n_knots=3)


class TestDesignMatrix:
    def test_rows_sum_to_one_on_the_closed_span(self):
        x = np.linspace(0, 1, 50)
        B = design_matrix(build_basis(x, 8), x)
        assert B.shape == (50, 10)
        assert np.allclose(B.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "bad, message",
        [(1.5, "within the knot span"), (np.nan, "within the knot span"), (None, "at least one")],
        ids=["out_of_span", "nan", "empty"],
    )
    def test_unusable_points_raise_frontdoor_error(self, bad, message):
        basis = build_basis(np.linspace(0, 1, 50), 8)
        points = np.array([]) if bad is None else np.array([0.2, bad, 0.7])
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
        with pytest.raises(SingularSystem):
            fit_penalized(y, x, basis, 0.0)

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


class TestSelectLambda:
    def test_recovers_smooth_sine(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 2000)
        y = np.sin(2 * np.pi * x) + 0.1 * rng.standard_normal(2000)
        fit = select_lambda(y, x, build_basis(x, 20))
        grid = np.linspace(0.02, 0.98, 200)
        rmse = np.sqrt(np.mean((predict(fit, grid) - np.sin(2 * np.pi * grid)) ** 2))
        assert rmse < 0.03

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_pure_noise_yields_near_constant_fit(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 2000)
        y = rng.standard_normal(2000)
        fit = select_lambda(y, x, build_basis(x, 20))
        assert fit.edf < 4.0

    def test_selected_weight_is_grid_member_and_gcv_finite(self):
        x, y = make_xy(500, seed=13)
        basis = build_basis(x, 15)
        grid = LAMBDA_GRID
        fit = select_lambda(y, x, basis)
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
from frontdoor_lab.spline_smooth import build_basis, select_lambda, spline_fit_to_text
rng = np.random.default_rng(0)
x = rng.uniform(-2, 2, 20000)
y = np.sin(2 * x) + 0.1 * rng.standard_normal(20000)
print(spline_fit_to_text(select_lambda(y, x, build_basis(x))), end="")
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
        assert texts[0].startswith("penalized_spline\n")
        assert texts[0] == texts[1]


class TestPredict:
    def test_training_points_return_fitted_values(self):
        x, y = make_xy(400, seed=15)
        fit = select_lambda(y, x, build_basis(x, 15))
        assert np.allclose(predict(fit, x), y - fit.residuals, atol=1e-10)

    def test_linear_extrapolation_beyond_boundary(self):
        x, y = make_xy(400, seed=16)
        fit = select_lambda(y, x, build_basis(x, 15))
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
        fit = select_lambda(pop.z, pop.x, build_basis(pop.x, 20))
        truth = 4 * std_normal_pdf(3.0)
        assert float(predict(fit, 3.0)[0]) == pytest.approx(truth, abs=0.05)

    def test_scalar_point(self):
        x, y = make_xy(200, seed=18)
        fit = select_lambda(y, x, build_basis(x, 10))
        out = predict(fit, 0.5)
        assert out.shape == (1,)


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
        single = select_lambda(y, x, build_basis(x, 20))
        assert np.allclose(
            predict(additive, [x]), predict(single, x), atol=1e-8
        )

    def test_binary_covariate_handled_as_linear_term(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, 500)
        s = np.where(rng.random(500) < 0.5, -1.0, 1.0)
        y = 0.5 * s + np.sin(2 * x) + 0.05 * rng.standard_normal(500)
        fit = fit_additive(y, [x, s])
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
            refit = select_lambda(partial, col, term.basis)
            refit_vals = predict(refit, col)
            refit_vals = refit_vals - refit_vals.mean()
            assert float(np.max(np.abs(refit_vals - components[j]))) < 1e-5

    def test_cycle_cap_warns(self, monkeypatch):
        rng = np.random.default_rng(25)
        x1 = rng.uniform(-1, 1, 400)
        x2 = x1 + 1e-3 * rng.standard_normal(400)  # nearly collinear smooths
        y = np.sin(4 * x1) + 0.1 * rng.standard_normal(400)
        # an unreachable tolerance forces the cycle cap
        monkeypatch.setattr(spline_smooth, "BACKFIT_MAX_CYCLES", 1)
        monkeypatch.setattr(spline_smooth, "BACKFIT_TOL", 0.0)
        with pytest.warns(NoConvergenceWarning):
            fit = fit_additive(y, [x1, x2])
        assert fit.converged is False

    def test_empty_covariates_rejected(self):
        with pytest.raises(FrontdoorLabError):
            fit_additive(np.zeros(10), [])

    def test_repeated_columns_reuse_their_designs(self, monkeypatch):
        rng = np.random.default_rng(28)
        columns = [rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)]
        y = np.sin(2 * columns[0]) + columns[1] + 0.1 * rng.standard_normal(300)
        spline_smooth._design_memo.clear()
        built = []

        def counting_design_matrix(basis, x):
            built.append(len(x))
            return design_matrix(basis, x)

        monkeypatch.setattr(spline_smooth, "design_matrix", counting_design_matrix)
        first = fit_additive(y, columns)
        second = fit_additive(y, columns)
        assert len(built) == len(columns)
        assert first.intercept == second.intercept
        assert np.array_equal(first.residuals, second.residuals)
        for a, b in zip(first.terms, second.terms):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert np.array_equal(a.residuals, b.residuals)
            assert (a.lam, a.edf, a.gcv) == (b.lam, b.edf, b.gcv)

        for _ in range(spline_smooth._DESIGN_MEMO_SIZE + 2):
            fit_additive(y, [rng.uniform(-1, 1, 300)])
        assert len(spline_smooth._design_memo) <= spline_smooth._DESIGN_MEMO_SIZE


class TestJointFit:
    """The Gram-block joint start against the stacked penalized system."""

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

    @pytest.mark.parametrize(
        "shape, indices",
        [("two_terms", [8, 14]), ("mediator_block", [10, 12, 3])],
        ids=["two_terms", "mediator_block"],
    )
    def test_matches_stacked_system(self, shape, indices):
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
        designs = [
            spline_smooth._PenalizedDesign(
                spline_smooth._basis_for_covariate(c, 20), c, LAMBDA_GRID
            )
            for c in columns
        ]
        assert designs[1].basis.degree == (3 if shape == "two_terms" else 1)
        normal = spline_smooth._joint_normal_equations(y, designs)
        intercept, betas = spline_smooth._joint_fit(normal, designs, indices)
        ref_intercept, ref_betas = self.stacked_solution(y, columns, designs, indices)
        got = np.concatenate([[intercept], *betas])
        want = np.concatenate([[ref_intercept], *ref_betas])
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


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
            "select_lambda": lambda: select_lambda(y, x, basis),
            "fit_penalized": lambda: fit_penalized(y, x, basis, 1.0),
            "fit_additive": lambda: fit_additive(y, [x]),
        }
        with pytest.raises(FrontdoorLabError, match=f"{target} values must be finite"):
            fits[entry]()


class TestSerialization:
    def test_spline_round_trip(self):
        x, y = make_xy(200, seed=26)
        fit = select_lambda(y, x, build_basis(x, 10))
        back = spline_fit_from_text(spline_fit_to_text(fit))
        pts = np.linspace(-3, 3, 50)
        assert np.array_equal(predict(back, pts), predict(fit, pts))
        assert back.lam == fit.lam and back.edf == fit.edf
        assert np.array_equal(back.residuals, fit.residuals)

    def test_text_with_a_field_no_longer_written_loads(self):
        # model files of earlier versions hold a "boundary" line
        x, y = make_xy(200, seed=26)
        fit = select_lambda(y, x, build_basis(x, 10))
        text = spline_fit_to_text(fit).replace("\nknots ", "\nboundary -2.2 2.2\nknots ", 1)
        assert "boundary" in text
        back = spline_fit_from_text(text)
        pts = np.linspace(-3, 3, 50)
        assert np.array_equal(predict(back, pts), predict(fit, pts))

    def test_additive_round_trip(self):
        rng = np.random.default_rng(27)
        x1 = rng.uniform(-1, 1, 300)
        x2 = rng.uniform(-1, 1, 300)
        y = np.sin(2 * x1) + x2 + 0.1 * rng.standard_normal(300)
        fit = fit_additive(y, [x1, x2])
        back = additive_fit_from_text(additive_fit_to_text(fit))
        pts = np.column_stack([np.linspace(-1, 1, 40), np.linspace(-1, 1, 40)])
        assert np.array_equal(predict(back, pts), predict(fit, pts))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("additive_missing_field", "missing field 'converged'"),
            ("spline_bad_degree", "bad field 'degree'"),
            ("trailing_term", "malformed term block"),
            ("bad_coefficients", "bad field 'coefficients'"),
        ],
        ids=["additive_missing_field", "spline_bad_degree", "trailing_term", "bad_coefficients"],
    )
    def test_malformed_text_raises_frontdoor_error(self, case, message):
        x, y = make_xy(120, seed=29)
        spline_text = spline_fit_to_text(select_lambda(y, x, build_basis(x, 8)))
        additive_text = additive_fit_to_text(fit_additive(y, [x]))
        reader, text = {
            "additive_missing_field": (additive_fit_from_text, "additive_fit\nintercept 1\n"),
            "spline_bad_degree": (spline_fit_from_text, "penalized_spline\ndegree x\n"),
            "trailing_term": (additive_fit_from_text, additive_text + "term\n"),
            "bad_coefficients": (
                spline_fit_from_text,
                re.sub(r"(?m)^coefficients .*$", "coefficients a b", spline_text),
            ),
        }[case]
        with pytest.raises(FrontdoorLabError, match=message):
            reader(text)
