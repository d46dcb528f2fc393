import dataclasses
import functools
import re

import numpy as np
import pytest

from frontdoor_lab import frontdoor_estimator, spline_smooth
from frontdoor_lab._seeds import mix_seed, rng_from
from frontdoor_lab.dataset import Dataset
from frontdoor_lab.errors import FrontdoorLabError, NumericError
from frontdoor_lab.frontdoor_estimator import (
    EffectEstimate,
    FittedPair,
    ace_at,
    complete_case_effect,
    distribution_at,
    effect_from_csv,
    effect_to_csv,
    estimate_effect,
    fit_pair,
)
from frontdoor_lab.mi_engine import CompletedDatasets
from frontdoor_lab.scm_sim import (
    ScmConfig,
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    std_normal_cdf,
    std_normal_pdf,
)
from frontdoor_lab.spline_smooth import DEFAULT_N_KNOTS, design_matrix, predict

from oracles import mean_u_given_x_quadrature

SCM = ScmConfig()


def complete_dataset(x, z, y):
    return Dataset(x_star=x, z_star=z, y_star=y)


def assert_converged(pair):
    """An ``on_pair`` callback: the outcome's backfitting converged."""
    assert pair.outcome.converged


def fit_converged(data, n_knots=DEFAULT_N_KNOTS):
    """``fit_pair`` whose outcome's backfitting converged."""
    pair = fit_pair(data, n_knots)
    assert_converged(pair)
    return pair


@pytest.fixture(scope="module")
def scm_pair():
    """One fitted pair on fully observed simulator output at desk scale."""
    pop = generate_population(SCM, 20000, seed=50)
    data = complete_dataset(pop.x, pop.z, pop.y)
    return fit_converged(data)


class TestEstimatorConfig:
    """The estimator's settings, which both estimate entry points check
    before any fit."""

    @pytest.fixture
    def entries(self, no_fitting):
        data = complete_dataset(*np.zeros((3, 3)))
        return [
            functools.partial(estimate_effect, [data], [0.0]),
            functools.partial(complete_case_effect, data, [0.0]),
        ]

    @pytest.mark.parametrize(
        "name, value",
        [("n_knots", "20"), ("n_knots", 20.0), ("n_knots", True), ("seed", 1.5),
         ("seed", np.int64(1))],
        ids=repr,
    )
    def test_non_int_setting_rejected(self, entries, name, value):
        for entry in entries:
            with pytest.raises(FrontdoorLabError, match=f"^{name} must be int, got "):
                entry(**{name: value})

    def test_too_few_knots_rejected(self, entries):
        for entry in entries:
            with pytest.raises(FrontdoorLabError, match="^n_knots must be >= 4, got 3$"):
                entry(n_knots=3)

    def test_knots_checked_before_seed(self, entries):
        for entry in entries:
            with pytest.raises(FrontdoorLabError, match="^n_knots must be >= 4, got 3$"):
                entry(n_knots=3, seed=1.5)


class TestFitPair:
    def test_noise_free_mediator_residuals(self):
        rng = np.random.default_rng(52)
        x = rng.uniform(-3, 3, 4000)
        z = 4 * std_normal_pdf(x)
        y = std_normal_pdf(z - 0.5) + 0.3 * z
        pair = fit_converged(complete_dataset(x, z, y))
        assert float(np.std(pair.mediator.residuals)) < 1e-3

    def test_mediator_prediction_at_center(self, scm_pair):
        from frontdoor_lab.spline_smooth import predict

        value = float(predict(scm_pair.mediator, 0.0)[0])
        assert value == pytest.approx(4 * std_normal_pdf(0.0), abs=0.01)

    def test_outcome_prediction_at_center(self, scm_pair):
        from frontdoor_lab.spline_smooth import predict

        # E(U | X = 0) vanishes by symmetry, checked against quadrature
        assert mean_u_given_x_quadrature(0.0) == pytest.approx(0.0, abs=1e-9)
        z0 = 4 * std_normal_pdf(0.0)
        truth = std_normal_pdf(z0 - 0.5) + 0.3 * z0
        value = float(predict(scm_pair.outcome, [np.array([0.0]), np.array([z0])])[0])
        assert value == pytest.approx(truth, abs=0.01)

    def test_conditional_mean_u_closed_form_matches_quadrature(self):
        for x in (-2.0, -0.5, 1.0, 2.5):
            closed = (std_normal_pdf(x - 2) - std_normal_pdf(x + 2)) / (
                std_normal_cdf(x + 2) - std_normal_cdf(x - 2)
            )
            assert closed == pytest.approx(mean_u_given_x_quadrature(x), abs=1e-7)

    def test_incomplete_data_rejected(self):
        pop = generate_population(SCM, 500, seed=53)
        data = apply_missingness(SCM, pop, seed=53)
        if data.is_complete():  # pragma: no cover - astronomically unlikely
            pytest.skip("masking produced no missing cells")
        with pytest.raises(FrontdoorLabError):
            fit_pair(data)

    def test_mediator_and_outcome_share_the_treatment_design(self, monkeypatch):
        rng = np.random.default_rng(54)
        x = rng.uniform(-3, 3, 500)
        z = 4 * std_normal_pdf(x) + 0.1 * rng.standard_normal(500)
        y = std_normal_pdf(z - 0.5) + 0.3 * z + 0.1 * rng.standard_normal(500)
        built = []

        def counting_design_matrix(basis, points, *, rows=None):
            built.append(len(points))
            return design_matrix(basis, points, rows=rows)

        monkeypatch.setattr(spline_smooth, "design_matrix", counting_design_matrix)
        fit_converged(complete_dataset(x, z, y))
        # one design for the treatment column, one for the mediator column
        assert built == [500, 500]

    @pytest.mark.parametrize(
        "n_knots, message",
        [("20", "must be int, got '20'"), (20.0, "must be int, got 20.0"),
         (True, "must be int, got True"), (3, "must be >= 4, got 3"),
         ([4], "must be int, got [4]")],
        ids=repr,
    )
    def test_bad_knot_count_rejected(self, n_knots, message):
        x = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(FrontdoorLabError, match=f"^n_knots {re.escape(message)}$"):
            fit_pair(complete_dataset(x, x, x), n_knots)

    def test_treatment_with_fewer_values_than_knots(self):
        rng = np.random.default_rng(55)
        x = rng.choice(np.linspace(-2, 2, 10), 600)
        z = 4 * std_normal_pdf(x) + 0.1 * rng.standard_normal(600)
        y = std_normal_pdf(z - 0.5) + 0.3 * z + 0.1 * rng.standard_normal(600)
        pair = fit_converged(complete_dataset(x, z, y), n_knots=20)
        assert np.allclose(pair.mediator.basis.knots, np.unique(x), rtol=0, atol=1e-12)
        assert np.array_equal(pair.mediator.basis.knots, pair.outcome.terms[0].basis.knots)


@pytest.fixture
def no_fitting(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit_pair reached")

    monkeypatch.setattr(frontdoor_estimator, "fit_pair", refuse)


BAD_GRIDS = [
    pytest.param([np.nan], id="nan"),
    pytest.param([0.0, np.inf], id="inf"),
    pytest.param([-np.inf, 0.0], id="-inf"),
    pytest.param([1.0, -1.0], id="unsorted"),
    pytest.param([[0.0, 1.0]], id="matrix"),
    pytest.param(["0", "1"], id="text"),
]


class TestTreatmentPart:
    def test_outcome_needs_two_terms(self, scm_pair):
        one_term = dataclasses.replace(
            scm_pair.outcome, terms=scm_pair.outcome.terms[:1]
        )
        with pytest.raises(FrontdoorLabError, match="treatment and mediator"):
            FittedPair(
                mediator=scm_pair.mediator, outcome=one_term, x_train=scm_pair.x_train
            )

    def test_evaluated_once_per_pair(self, scm_pair, monkeypatch):
        calls = []
        evaluate = frontdoor_estimator._spline_values

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(frontdoor_estimator, "_spline_values", counting)
        pair = FittedPair(scm_pair.mediator, scm_pair.outcome, scm_pair.x_train)
        for j, x in enumerate((-1.0, 0.0, 2.5)):
            ace_at(pair, x)
            distribution_at(pair, x, seed=j)
        assert len(calls) == 1
        assert pair.treatment_part is pair.treatment_part

    def test_read_only(self, scm_pair):
        part = scm_pair.treatment_part
        assert part.shape == scm_pair.x_train.shape
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0.0

    def test_mean_cached_once(self, scm_pair):
        pair = FittedPair(scm_pair.mediator, scm_pair.outcome, scm_pair.x_train)
        assert pair.treatment_mean == float(np.mean(pair.treatment_part))
        assert type(pair.treatment_mean) is float
        assert pair.treatment_mean is pair.treatment_mean


@pytest.fixture(scope="module")
def small_pair():
    """A fitted pair small enough for the n x n front-door double sum."""
    pop = generate_population(SCM, 300, seed=57)
    return fit_converged(complete_dataset(pop.x, pop.z, pop.y))


def mediator_draws_of(pair, x, seed, monkeypatch):
    """The mediator values ``distribution_at`` feeds the outcome's mediator term."""
    seen = []

    def recording(model, points):
        if model is pair.outcome.terms[1]:
            seen.append(np.array(points))
        return predict(model, points)

    monkeypatch.setattr(frontdoor_estimator, "predict", recording)
    distribution_at(pair, x, seed)
    [draws] = seen
    return draws


class TestFullOutcomeReference:
    """ace_at and distribution_at agree with the full additive prediction.

    ``ace_at`` is checked against the n x n front-door double sum over every
    (row, mediator residual) pair; ``distribution_at`` bit for bit against the
    same random stream evaluated by ``predict(outcome, [x_train, z_draws])`` in
    one call.
    """

    # 7.0 lies beyond the mediator's knots: the centre extrapolates, and so
    # does the outcome's mediator term at some of the shifted values
    TARGETS = (-3.5, 0.2, 7.0)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_ace_at(self, small_pair, copies):
        # an exact mean is unchanged when the rows and both residual pools
        # are repeated, so every copy count meets the same double sum
        replicated = FittedPair(
            mediator=dataclasses.replace(
                small_pair.mediator,
                residuals=np.tile(small_pair.mediator.residuals, copies),
            ),
            outcome=dataclasses.replace(
                small_pair.outcome,
                residuals=np.tile(small_pair.outcome.residuals, copies),
            ),
            x_train=np.tile(small_pair.x_train, copies),
        )
        n = len(small_pair.x_train)
        for x in self.TARGETS:
            center = float(predict(small_pair.mediator, x)[0])
            mediator = center + small_pair.mediator.residuals
            points = [np.repeat(small_pair.x_train, n), np.tile(mediator, n)]
            expected = float(np.mean(predict(small_pair.outcome, points)))
            assert ace_at(replicated, x) == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_distribution_at(self, scm_pair, copies):
        # with the rows and both pools repeated, one draw per repeated row,
        # each from the whole of its repeated pool
        pair = FittedPair(
            mediator=dataclasses.replace(
                scm_pair.mediator,
                residuals=np.tile(scm_pair.mediator.residuals, copies),
            ),
            outcome=dataclasses.replace(
                scm_pair.outcome,
                residuals=np.tile(scm_pair.outcome.residuals, copies),
            ),
            x_train=np.tile(scm_pair.x_train, copies),
        )
        n = len(pair.x_train)
        mediator_pool, outcome_pool = pair.mediator.residuals, pair.outcome.residuals
        for j, x in enumerate(self.TARGETS):
            rng = rng_from(j, "distribution")
            center = float(predict(pair.mediator, x)[0])
            z_draws = center + mediator_pool[rng.integers(0, len(mediator_pool), n)]
            values = predict(pair.outcome, [pair.x_train, z_draws])
            expected = values + outcome_pool[rng.integers(0, len(outcome_pool), n)]
            assert np.array_equal(distribution_at(pair, x, j), expected)


class TestDrawMediator:
    """The mediator under the intervention: the prediction at x plus a
    residual of the mediator pool, summed over in ``ace_at`` and drawn in
    ``distribution_at``."""

    def test_zero_residual_pool_returns_prediction(self, scm_pair, monkeypatch):
        degenerate = FittedPair(
            mediator=dataclasses.replace(
                scm_pair.mediator, residuals=np.zeros_like(scm_pair.mediator.residuals)
            ),
            outcome=dataclasses.replace(
                scm_pair.outcome, residuals=np.zeros_like(scm_pair.outcome.residuals)
            ),
            x_train=scm_pair.x_train,
        )
        center = predict(scm_pair.mediator, 1.0)
        mediator_term = float(predict(scm_pair.outcome.terms[1], center)[0])
        expected = float(np.mean(scm_pair.treatment_part)) + mediator_term
        assert ace_at(degenerate, 1.0) == pytest.approx(expected, rel=0, abs=1e-12)
        draws = mediator_draws_of(degenerate, 1.0, 54, monkeypatch)
        assert np.array_equal(draws, np.full(len(scm_pair.x_train), center[0]))

    def test_draw_mean_matches_prediction(self, scm_pair, monkeypatch):
        draws = mediator_draws_of(scm_pair, 0.5, 55, monkeypatch)
        pool_sd = float(np.std(scm_pair.mediator.residuals))
        center = float(predict(scm_pair.mediator, 0.5)[0])
        assert float(np.mean(draws)) == pytest.approx(
            center, abs=3 * pool_sd / np.sqrt(len(draws))
        )

    def test_draw_spread_matches_mediator_noise(self, scm_pair, monkeypatch):
        draws = mediator_draws_of(scm_pair, 1.0, 56, monkeypatch)
        assert float(np.std(draws)) == pytest.approx(SCM.sigma_z, abs=0.01)

    def test_empty_pool_rejected(self, scm_pair):
        with pytest.raises(NumericError, match="^fitted pair has no training rows$"):
            FittedPair(
                mediator=dataclasses.replace(scm_pair.mediator, residuals=np.array([])),
                outcome=dataclasses.replace(scm_pair.outcome, residuals=np.array([])),
                x_train=np.array([]),
            )


class TestAceAt:
    def test_constant_outcome_fit(self):
        rng = np.random.default_rng(58)
        x = rng.uniform(-1, 1, 500)
        z = rng.uniform(-1, 1, 500)
        y = np.full(500, 2.5)
        pair = fit_converged(complete_dataset(x, z, y))
        for target in (-0.7, 0.0, 1.3):
            assert ace_at(pair, target) == pytest.approx(2.5, abs=1e-7)

    def test_unconfounded_linear_mechanism(self):
        rng = np.random.default_rng(60)
        n = 20000
        x = rng.uniform(-2, 2, n)
        z = x + 0.1 * rng.standard_normal(n)
        y = 0.3 * z + 0.05 * rng.standard_normal(n)
        pair = fit_converged(complete_dataset(x, z, y))
        for target in (-1.0, 0.5, 1.0):
            assert ace_at(pair, target) == pytest.approx(0.3 * target, abs=0.01)

    def test_matches_oracle_on_complete_data(self, scm_pair):
        assert ace_at(scm_pair, 3.0) == pytest.approx(
            oracle_ace(SCM, 3.0), abs=0.05
        )
        assert ace_at(scm_pair, 0.0) == pytest.approx(
            oracle_ace(SCM, 0.0), abs=0.03
        )

    def test_row_permutation_invariance(self):
        pop = generate_population(SCM, 6000, seed=64)
        data = complete_dataset(pop.x, pop.z, pop.y)
        rng = np.random.default_rng(65)
        perm = rng.permutation(len(pop))
        shuffled = complete_dataset(pop.x[perm], pop.z[perm], pop.y[perm])
        a = ace_at(fit_converged(data), 1.0)
        b = ace_at(fit_converged(shuffled), 1.0)
        assert a == pytest.approx(b, rel=0, abs=1e-12)


NON_FINITE = pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf], ids=repr)
NOT_A_NUMBER = pytest.mark.parametrize(
    "target",
    ["abc", "1.5", b"1.5", None, np.zeros(2), True],
    ids=["str", "numeric_str", "bytes", "None", "vector", "bool"],
)
NOT_A_NUMBER_MESSAGE = "^target treatment value must be a number, got "


class TestTargetChecks:
    @NON_FINITE
    def test_ace_at_rejects_non_finite_target(self, scm_pair, target):
        with pytest.raises(FrontdoorLabError, match="^target treatment value must be finite"):
            ace_at(scm_pair, target)

    @NON_FINITE
    def test_distribution_at_rejects_non_finite_target(self, scm_pair, target):
        with pytest.raises(FrontdoorLabError, match="^target treatment value must be finite"):
            distribution_at(scm_pair, target, seed=1)

    @NOT_A_NUMBER
    def test_ace_at_rejects_non_number_target(self, scm_pair, target):
        with pytest.raises(FrontdoorLabError, match=NOT_A_NUMBER_MESSAGE):
            ace_at(scm_pair, target)

    @NOT_A_NUMBER
    def test_distribution_at_rejects_non_number_target(self, scm_pair, target):
        with pytest.raises(FrontdoorLabError, match=NOT_A_NUMBER_MESSAGE):
            distribution_at(scm_pair, target, seed=1)

    def test_numpy_scalar_targets_accepted(self, scm_pair):
        expected = ace_at(scm_pair, 0.5)
        assert ace_at(scm_pair, np.float64(0.5)) == expected
        assert ace_at(scm_pair, np.array(0.5)) == expected
        assert np.array_equal(
            distribution_at(scm_pair, np.array(0.5), seed=1),
            distribution_at(scm_pair, 0.5, seed=1),
        )

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", True, None, np.int64(1)], ids=repr)
    def test_distribution_at_rejects_non_int_seed(self, scm_pair, seed):
        with pytest.raises(FrontdoorLabError, match="^seed must be int, got "):
            distribution_at(scm_pair, 0.0, seed)


class TestDistributionAt:
    def test_degenerate_pools_and_constant_fit(self):
        rng = np.random.default_rng(81)
        x = rng.uniform(-1, 1, 400)
        z = rng.uniform(-1, 1, 400)
        pair = fit_converged(complete_dataset(x, z, np.full(400, 1.5)))
        frozen = FittedPair(
            mediator=dataclasses.replace(
                pair.mediator, residuals=np.zeros_like(pair.mediator.residuals)
            ),
            outcome=dataclasses.replace(
                pair.outcome, residuals=np.zeros_like(pair.outcome.residuals)
            ),
            x_train=pair.x_train,
        )
        draws = distribution_at(frozen, 0.3, seed=82)
        assert np.allclose(draws, 1.5, atol=1e-7)

    def test_fresh_writable_array_leaves_its_inputs(self, small_pair):
        inputs = (
            small_pair.treatment_part,
            small_pair.mediator.residuals,
            small_pair.outcome.residuals,
        )
        before = [array.tobytes() for array in inputs]
        draws = distribution_at(small_pair, 0.4, seed=92)
        assert draws.flags.writeable and draws.flags.owndata
        assert not any(np.shares_memory(draws, array) for array in inputs)
        assert [array.tobytes() for array in inputs] == before
        draws += 1.0  # the caller may sort or edit it in place
        assert [array.tobytes() for array in inputs] == before

    def test_seed_fixes_the_draws(self, small_pair):
        draws = distribution_at(small_pair, 0.4, seed=90)
        assert draws.tobytes() == distribution_at(small_pair, 0.4, seed=90).tobytes()
        assert not np.array_equal(draws, distribution_at(small_pair, 0.4, seed=91))

    def test_quantile_monotonicity(self, scm_pair):
        for target in (-2.0, 0.0, 2.0):
            draws = distribution_at(scm_pair, target, seed=83)
            q05, q50, q95 = np.quantile(draws, [0.05, 0.5, 0.95])
            assert q05 <= q50 <= q95

    def test_quantiles_match_interventional_truth(self, scm_pair):
        draws = distribution_at(scm_pair, 0.0, seed=84)
        truth = intervene_generate(SCM, 0.0, 10**6, seed=85)
        assert float(np.quantile(draws, 0.05)) == pytest.approx(
            float(np.quantile(truth, 0.05)), abs=0.05
        )
        assert float(np.quantile(draws, 0.95)) == pytest.approx(
            float(np.quantile(truth, 0.95)), abs=0.05
        )

    def test_zeroed_outcome_pool_narrows_spread(self, scm_pair):
        narrowed = FittedPair(
            mediator=scm_pair.mediator,
            outcome=dataclasses.replace(
                scm_pair.outcome, residuals=np.zeros_like(scm_pair.outcome.residuals)
            ),
            x_train=scm_pair.x_train,
        )
        wide = distribution_at(scm_pair, 0.0, seed=86)
        narrow = distribution_at(narrowed, 0.0, seed=86)
        spread_wide = np.quantile(wide, 0.95) - np.quantile(wide, 0.05)
        spread_narrow = np.quantile(narrow, 0.95) - np.quantile(narrow, 0.05)
        assert spread_narrow < spread_wide


class TestBandShortcuts:
    """The bands' sorted draws give the same bits as the unsorted draws."""

    def test_band_quantiles_match_unsorted_draws(self, small_pair):
        grid = np.linspace(-2.0, 2.0, 7)
        _, q05, q95 = frontdoor_estimator._curves_for_pair(small_pair, grid, 89, "imp0")
        for j, x in enumerate(grid):
            seed = mix_seed(89, "imp0", "dist", j)
            draws = distribution_at(small_pair, float(x), seed)
            expected = np.quantile(draws, [0.05, 0.95])
            assert np.array([q05[j], q95[j]]).tobytes() == expected.tobytes()

    def test_band_is_numpys_default_quantile(self):
        # _band restates numpy's default (type 7) rule on sorted draws; a
        # numpy release that changes that rule fails here
        rng = np.random.default_rng(93)
        sizes = [*range(1, 301), 8000, 18423, 20000]
        for n in sizes:
            ordered = np.sort(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4))
            expected = np.quantile(ordered, [0.05, 0.95])
            got = np.array(frontdoor_estimator._band(ordered))
            assert got.tobytes() == expected.tobytes(), (
                f"numpy's quantile rule changed: n = {n}, {got} != {expected}"
            )

    @pytest.mark.parametrize(
        "ordered",
        [[-0.0], [-0.0, -0.0, -0.0], [1.0, 1.0], [1.0, 2.0, np.nan], [-np.inf, 0.0, 1.0]],
        ids=repr,
    )
    def test_band_edge_values(self, ordered):
        ordered = np.array(ordered)
        with np.errstate(invalid="ignore"):
            expected = np.quantile(ordered, [0.05, 0.95])
            got = np.array(frontdoor_estimator._band(ordered))
        assert got.tobytes() == expected.tobytes()


class TestEstimateEffect:
    def make_bundle(self, n=20000, m=3, seed=87):
        pop = generate_population(SCM, n, seed=seed)
        data = complete_dataset(pop.x, pop.z, pop.y)
        return [data] * m

    def test_identical_copies_pool_tightly(self):
        bundle = self.make_bundle()
        grid = np.array([-1.0, 0.0, 1.0])
        est = estimate_effect(bundle, grid, seed=88, on_pair=assert_converged)
        for i in range(est.m):
            assert np.max(np.abs(est.per_imputation_ace[i] - est.pooled_ace)) < 0.01

    def test_pooled_is_exact_mean(self):
        bundle = self.make_bundle(n=3000)
        est = estimate_effect(
            bundle, np.array([0.0, 1.0]), seed=89, on_pair=assert_converged
        )
        assert np.array_equal(est.pooled_ace, est.per_imputation_ace.mean(axis=0))

    def test_single_point_grid(self):
        bundle = self.make_bundle(n=3000, m=2)
        est = estimate_effect(
            bundle, np.array([0.5]), seed=90, on_pair=assert_converged
        )
        assert est.pooled_ace.shape == (1,)
        assert est.q05.shape == (1,)

    def test_single_copy_pool_is_that_curve(self):
        bundle = self.make_bundle(n=3000, m=1)
        est = estimate_effect(
            bundle, np.array([-1.0, 1.0]), seed=91, on_pair=assert_converged
        )
        assert np.array_equal(est.pooled_ace, est.per_imputation_ace[0])

    def test_seed_moves_only_the_quantile_bands(self):
        bundle = self.make_bundle(n=3000, m=2)
        grid = np.array([-1.0, 0.5])
        a = estimate_effect(bundle, grid, seed=1, on_pair=assert_converged)
        b = estimate_effect(bundle, grid, seed=2, on_pair=assert_converged)
        assert np.array_equal(a.per_imputation_ace, b.per_imputation_ace)
        assert not np.array_equal(a.q05, b.q05)

    @pytest.mark.parametrize("copies", [[], iter(())], ids=["list", "iterator"])
    def test_no_copy_rejected(self, copies):
        with pytest.raises(FrontdoorLabError, match="^need at least one completed dataset$"):
            estimate_effect(copies, np.array([0.0]), seed=92)

    @pytest.mark.parametrize("copies", [5, None], ids=["number", "none"])
    def test_non_iterable_rejected(self, copies):
        with pytest.raises(FrontdoorLabError,
                           match=f"^datasets must be an iterable of datasets, got {copies}$"):
            estimate_effect(copies, np.array([0.0]), seed=92)

    def test_incomplete_copy_rejected(self):
        data = complete_dataset([0.0, np.nan, 1.0], [0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        with pytest.raises(FrontdoorLabError, match="^fit_pair needs a fully observed dataset$"):
            estimate_effect([data], np.array([0.0]), seed=92)

    def test_unsorted_grid_rejected(self):
        bundle = self.make_bundle(n=3000, m=2)
        with pytest.raises(FrontdoorLabError):
            estimate_effect(bundle, np.array([1.0, -1.0]), seed=92)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_rejected_before_fitting(self, grid, no_fitting):
        bundle = self.make_bundle(n=300, m=2)
        with pytest.raises(FrontdoorLabError, match="grid must be"):
            estimate_effect(bundle, np.array(grid), seed=92)

    def test_frontdoor_agrees_with_direct_regression_when_unconfounded(self):
        # without the latent confounder both routes estimate the same curve
        cfg_unconfounded = ScmConfig(u_coef=0.0)
        pop = generate_population(cfg_unconfounded, 20000, seed=93)
        data = complete_dataset(pop.x, pop.z, pop.y)
        grid = np.linspace(-2, 2, 9)
        est = estimate_effect([data], grid, seed=94, on_pair=assert_converged)

        from frontdoor_lab.spline_smooth import predict, select_lambda

        direct = select_lambda(pop.y, pop.x, 20)
        gap = est.pooled_ace - predict(direct, grid)
        assert float(np.max(np.abs(gap))) < 0.02


class TestCompleteCase:
    def test_no_missing_matches_estimate_effect(self):
        pop = generate_population(SCM, 8000, seed=95)
        data = complete_dataset(pop.x, pop.z, pop.y)
        grid = np.array([-1.0, 0.0, 1.0])
        cc = complete_case_effect(data, grid, seed=96, on_pair=assert_converged)
        mi = estimate_effect([data], grid, seed=97, on_pair=assert_converged)
        assert np.max(np.abs(cc.pooled_ace - mi.pooled_ace)) < 0.01

    def test_too_few_complete_rows(self):
        rng = np.random.default_rng(98)
        n = 400
        x = rng.uniform(-1, 1, n)
        z = rng.uniform(-1, 1, n)
        y = rng.standard_normal(n)
        z[100:] = np.nan  # 100 complete rows, < 10 x basis dimension
        data = Dataset(x_star=x, z_star=z, y_star=y)
        with pytest.raises(
            NumericError, match=r"^complete-case analysis needs >= 220 complete rows, got 100$"
        ):
            complete_case_effect(data, np.array([0.0]), seed=99)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_rejected_before_fitting(self, grid, no_fitting):
        pop = generate_population(SCM, 300, seed=95)
        data = complete_dataset(pop.x, pop.z, pop.y)
        with pytest.raises(FrontdoorLabError, match="grid must be"):
            complete_case_effect(data, np.array(grid), seed=96)


class TestOnPair:
    GRID = np.array([-1.0, 1.0])

    def make_bundle(self, m=3, n=3000):
        # the copies fill a quarter of the mediator cells differently, so each
        # pair can be traced to the copy it was fitted on
        pop = generate_population(SCM, n, seed=100)
        masked = np.arange(n) % 4 == 0
        source = complete_dataset(pop.x, np.where(masked, np.nan, pop.z), pop.y)
        imputed_z = [np.roll(pop.z, k)[masked] for k in range(m)]
        return CompletedDatasets(source, np.empty((m, 0)), imputed_z)

    @pytest.fixture
    def fitted(self, monkeypatch):
        """(dataset, pair) of every fit_pair call, in call order."""
        calls = []

        def recording(data, n_knots):
            pair = fit_converged(data, n_knots)
            calls.append((data, pair))
            return pair

        monkeypatch.setattr(frontdoor_estimator, "fit_pair", recording)
        return calls

    def test_sees_each_fitted_pair_once_in_copy_order(self, fitted):
        bundle = self.make_bundle()
        seen = []
        estimate_effect(bundle, self.GRID, seed=104, on_pair=seen.append)
        assert len(fitted) == len(seen) == bundle.m == 3
        for copy, (data, pair), passed in zip(bundle, fitted, seen, strict=True):
            for name in ("x_star", "z_star", "y_star"):
                assert np.array_equal(getattr(data, name), getattr(copy, name))
            assert passed is pair
        assert len({id(data) for data, _ in fitted}) == 3

    def test_completed_datasets_give_the_estimate_of_their_copies(self):
        bundle = self.make_bundle(m=2)
        lazily = estimate_effect(bundle, self.GRID, seed=108)
        listed = estimate_effect(list(bundle), self.GRID, seed=108)
        for name in ("per_imputation_ace", "q05", "q95"):
            assert np.array_equal(getattr(lazily, name), getattr(listed, name)), name

    def test_complete_case_calls_back_once(self, fitted):
        data = next(iter(self.make_bundle(m=1)))
        seen = []
        complete_case_effect(data, self.GRID, seed=105, on_pair=seen.append)
        assert len(fitted) == len(seen) == 1
        assert seen[0] is fitted[0][1]

    @pytest.mark.parametrize("complete_case", [False, True], ids=["mi", "cc"])
    def test_estimate_unchanged_by_the_callback(self, complete_case):
        bundle = self.make_bundle(m=2)

        def run(**on_pair):
            if complete_case:
                return complete_case_effect(next(iter(bundle)), self.GRID, seed=106, **on_pair)
            return estimate_effect(bundle, self.GRID, seed=106, **on_pair)

        plain, called_back = run(), run(on_pair=assert_converged)
        for name in ("grid", "per_imputation_ace", "pooled_ace", "q05", "q95"):
            assert np.array_equal(getattr(called_back, name), getattr(plain, name)), name

    def test_pairs_stream_one_at_a_time(self, monkeypatch):
        # each pair's curves are computed before the next copy is fitted, so
        # only one pair is alive at a time
        events = []

        def logged(name, function):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                events.append(name)
                return result

            return wrapper

        monkeypatch.setattr(frontdoor_estimator, "fit_pair", logged("fit", fit_converged))
        monkeypatch.setattr(frontdoor_estimator, "ace_at", logged("ace", ace_at))
        estimate_effect(
            self.make_bundle(),
            self.GRID,
            seed=107,
            on_pair=lambda pair: events.append("pair"),
        )
        assert events == ["fit", "pair", "ace", "ace"] * 3


def curve(grid, per):
    """An estimate from per-copy curves, with bands one below and above."""
    per = np.atleast_2d(per)
    return EffectEstimate(
        grid=grid,
        per_imputation_ace=per,
        pooled_ace=per.mean(axis=0),
        q05=np.full(len(grid), -1.0),
        q95=np.full(len(grid), 1.0),
    )


class TestEffectCsv:
    def test_round_trip(self, tmp_path):
        pop = generate_population(SCM, 3000, seed=100)
        data = complete_dataset(pop.x, pop.z, pop.y)
        grid = np.linspace(-1, 1, 5)
        mi = estimate_effect([data, data], grid, seed=101, on_pair=assert_converged)
        cc = complete_case_effect(data, grid, seed=102, on_pair=assert_converged)
        oracle = oracle_ace(SCM, grid)
        path = tmp_path / "effects.csv"
        effect_to_csv(mi, cc, oracle, path)
        mi_back, cc_back, oracle_back = effect_from_csv(path)
        for back, est in ((mi_back, mi), (cc_back, cc)):
            for name in ("grid", "per_imputation_ace", "pooled_ace", "q05", "q95"):
                assert np.array_equal(getattr(back, name), getattr(est, name)), name
        assert np.array_equal(oracle_back, oracle)

    def test_round_trip_many_imputations(self, tmp_path):
        # ten rows: the pooled-mean identity must survive the file layout
        rng = np.random.default_rng(104)
        grid = np.linspace(-3, 3, 41)
        mi = curve(grid, rng.standard_normal((10, len(grid))))
        path = tmp_path / "effects.csv"
        effect_to_csv(mi, curve(grid, np.zeros(len(grid))), np.zeros(len(grid)), path)
        back, _, _ = effect_from_csv(path)
        assert np.array_equal(back.pooled_ace, mi.pooled_ace)
        assert np.array_equal(back.per_imputation_ace, mi.per_imputation_ace)

    def test_header_contract(self, tmp_path):
        grid = np.array([0.0])
        path = tmp_path / "effects.csv"
        effect_to_csv(curve(grid, [[1.0], [2.0]]), curve(grid, [3.0]), np.zeros(1), path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "x,oracle_ace,mi_pooled_ace,mi_ace_1,mi_ace_2,mi_q05,mi_q95,cc_ace,cc_q05,cc_q95"
        )

    @pytest.mark.parametrize(
        "cc_grid, cc_per, oracle_len",
        [([-1.0, 0.5], [[0.0, 0.0]], 2), ([-1.0, 1.0], [[0.0, 0.0]] * 2, 2),
         ([-1.0, 1.0], [[0.0, 0.0]], 3)],
        ids=["grids_differ", "cc_two_curves", "oracle_shape"],
    )
    def test_writer_refuses_curves_that_do_not_fit_one_table(
        self, tmp_path, cc_grid, cc_per, oracle_len
    ):
        grid = np.array([-1.0, 1.0])
        mi = curve(grid, [[0.0, 1.0], [1.0, 2.0]])
        cc = curve(np.array(cc_grid), np.array(cc_per))
        path = tmp_path / "effects.csv"
        with pytest.raises(FrontdoorLabError):
            effect_to_csv(mi, cc, np.zeros(oracle_len), path)
        assert not path.exists()


class TestEffectEstimateInvariants:
    def test_band_ordering_enforced(self):
        with pytest.raises(FrontdoorLabError):
            EffectEstimate(
                grid=np.array([0.0]),
                per_imputation_ace=np.array([[1.0]]),
                pooled_ace=np.array([1.0]),
                q05=np.array([2.0]),
                q95=np.array([1.0]),
            )

    @pytest.mark.parametrize(
        "name, value, message",
        [("pooled_ace", [1.0], "pooled_ace must hold one value per grid point"),
         ("q05", [0.0], "q05 must hold one value per grid point"),
         ("q95", [2.0], "q95 must hold one value per grid point"),
         ("q95", [2.0, [3.0]], "q95 must be a vector, got a ragged sequence")],
        ids=["pooled_ace", "q05", "q95", "ragged"],
    )
    def test_curve_that_does_not_match_the_grid_rejected(self, name, value, message, tmp_path):
        grid = np.array([0.0, 1.0])
        cc = EffectEstimate(grid, np.array([[1.0, 2.0]]), np.array([1.0, 2.0]), grid, grid + 2)
        fields = {"grid": grid, "per_imputation_ace": np.array([[1.0, 2.0]]),
                  "pooled_ace": np.array([1.0, 2.0]), "q05": grid, "q95": grid + 2, name: value}
        path = tmp_path / "effects.csv"
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            effect_to_csv(EffectEstimate(**fields), cc, grid, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "per, message",
        [(1.0, r"^per_imputation_ace must be an \(m, 2\) matrix with m >= 1, got shape \(\)$"),
         ([1.0, 2.0], r"must be an \(m, 2\) matrix with m >= 1, got shape \(2,\)$"),
         (np.empty((0, 2)), r"must be an \(m, 2\) matrix with m >= 1, got shape \(0, 2\)$"),
         ([[1.0, 2.0, 3.0]], r"must be an \(m, 2\) matrix with m >= 1, got shape \(1, 3\)$"),
         ([["a", "b"]], "^per_imputation_ace must be a matrix of numbers, got dtype <U1$"),
         ([[1.0, 2.0], [3.0]], "^per_imputation_ace must be a matrix, got a ragged sequence$")],
        ids=["number", "vector", "no_rows", "wide", "text", "ragged"],
    )
    def test_per_imputation_curves_not_a_matrix_rejected(self, per, message):
        grid = np.array([0.0, 1.0])
        with pytest.raises(FrontdoorLabError, match=message):
            EffectEstimate(grid, per, np.array([1.0, 2.0]), grid, grid + 2)

    def test_arrays_kept_as_read_only_copies(self, tmp_path):
        # an edit of the caller's per-copy curves after construction must not
        # reach the file, which effect_from_csv would refuse: its pooled curve
        # would no longer be the per-imputation mean
        grid = np.array([0.0, 1.0])
        per = np.array([[1.0, 2.0], [3.0, 4.0]])
        fields = {"grid": grid, "per_imputation_ace": per, "pooled_ace": per.mean(axis=0),
                  "q05": grid - 5.0, "q95": grid + 5.0}
        mi = EffectEstimate(**fields)
        per[0, 0] = 9.0
        path = tmp_path / "effects.csv"
        effect_to_csv(mi, curve(grid, [0.0, 0.0]), np.zeros(2), path)
        back, _, _ = effect_from_csv(path)
        assert np.array_equal(back.per_imputation_ace, [[1.0, 2.0], [3.0, 4.0]])
        for name, array in fields.items():
            kept = getattr(mi, name)
            assert kept is not array and not kept.flags.writeable, name

    def test_pooled_mismatch_rejected(self):
        with pytest.raises(FrontdoorLabError):
            EffectEstimate(
                grid=np.array([0.0]),
                per_imputation_ace=np.array([[1.0], [2.0]]),
                pooled_ace=np.array([1.2]),
                q05=np.array([0.0]),
                q95=np.array([1.0]),
            )


def test_array_holding_values_compare_and_hash_by_identity(small_pair):
    # comparing fields would compare arrays, whose truth value is ambiguous
    pop = generate_population(SCM, 300, seed=57)
    data = complete_dataset(pop.x, pop.z, pop.y)
    one = np.array([1.0])
    estimate = EffectEstimate(
        grid=np.array([0.0]), per_imputation_ace=np.array([[1.0]]), pooled_ace=one, q05=one,
        q95=one,
    )
    values = [
        data,
        pop,
        small_pair.mediator.basis,
        small_pair.mediator,
        small_pair.outcome,
        small_pair,
        estimate,
        CompletedDatasets(data, np.empty((1, 0)), np.empty((1, 0))),
    ]
    for value in values:
        same_fields = dataclasses.replace(value)
        assert value == value and not value != value, type(value).__name__
        assert value != same_fields and not value == same_fields, type(value).__name__
        assert len({value, same_fields, value}) == 2, type(value).__name__
