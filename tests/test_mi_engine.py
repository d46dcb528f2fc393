import re

import numpy as np
import pytest
from scipy.stats import ks_2samp

from frontdoor_lab import mi_engine
from frontdoor_lab._seeds import mix_seed
from frontdoor_lab.dataset import Dataset
from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.mi_engine import (
    DIAGNOSTICS_HEADER,
    CompletedDatasets,
    _ks_statistic,
    _nearest_donor_values,
    decompose_x,
    diagnostics_to_csv,
    imputation_diagnostics,
    impute_sign,
    initialize,
    pmm_impute,
    run_mice,
)
from frontdoor_lab.runconfig import RunConfig
from frontdoor_lab.scm_sim import ScmConfig, apply_missingness, generate_population

SCM = ScmConfig()


def make_incomplete(n=2000, seed=1):
    pop = generate_population(SCM, n, seed=seed)
    data = apply_missingness(SCM, pop, seed=seed)
    return pop, data


def complete_dataset(x, z, y):
    return Dataset(x_star=x, z_star=z, y_star=y)


class TestDecompose:
    def test_positive(self):
        assert decompose_x(2.5) == (2.5, 1.0)

    def test_negative(self):
        assert decompose_x(-0.3) == (0.3, -1.0)

    def test_zero_sign_convention(self):
        assert decompose_x(0.0) == (0.0, 1.0)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        magnitude, sign = decompose_x(x)
        assert np.array_equal(sign * magnitude, x)

    @pytest.mark.parametrize("x", ["a", ["a", "b"], None], ids=repr)
    def test_non_numbers_rejected(self, x):
        with pytest.raises(FrontdoorLabError, match="^treatment must be a number or an array"):
            decompose_x(x)


class TestInitialize:
    def test_no_missing_returned_unchanged(self):
        pop = generate_population(SCM, 50, seed=2)
        data = complete_dataset(pop.x, pop.z, pop.y)
        out = initialize(data, seed=3)
        assert np.array_equal(out.x_star, data.x_star)
        assert np.array_equal(out.z_star, data.z_star)

    def test_missing_cell_filled_from_observed_pool(self):
        x = np.array([1.0, 2.0, 3.0, np.nan])
        data = Dataset(
            x_star=x,
            z_star=np.array([0.1, 0.2, 0.3, 0.4]),
            y_star=np.zeros(4),
        )
        out = initialize(data, seed=4)
        assert out.is_complete()
        assert out.x_star[3] in {1.0, 2.0, 3.0}
        assert np.array_equal(out.x_star[:3], x[:3])

    def test_all_missing_column_rejected(self):
        data = Dataset(
            x_star=np.full(3, np.nan),
            z_star=np.array([1.0, 2.0, 3.0]),
            y_star=np.zeros(3),
        )
        with pytest.raises(FrontdoorLabError, match="^column x has no observed values$"):
            initialize(data, seed=5)

    def test_deterministic(self):
        _, data = make_incomplete(300, seed=6)
        a = initialize(data, seed=7)
        b = initialize(data, seed=7)
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.z_star, b.z_star)


def stable_sort_donor_values(obs_values, obs_pred, miss_pred, donors, rng):
    """The reference for ``_nearest_donor_values``: its form with one stable sort."""
    donors = min(donors, len(obs_values))
    order = np.argsort(obs_pred, kind="stable")
    sorted_pred = obs_pred[order]
    sorted_values = obs_values[order]
    pos = np.searchsorted(sorted_pred, miss_pred)
    window = np.arange(-donors, donors)
    candidates = pos[:, None] + window[None, :]
    out_of_range = (candidates < 0) | (candidates >= len(sorted_pred))
    candidates = np.clip(candidates, 0, len(sorted_pred) - 1)
    distance = np.abs(miss_pred[:, None] - sorted_pred[candidates])
    distance[out_of_range] = np.inf
    nearest = np.argsort(distance, axis=1, kind="stable")[:, :donors]
    choice = rng.integers(0, donors, size=len(miss_pred))
    rows = np.arange(len(miss_pred))
    picked = candidates[rows, nearest[rows, choice]]
    return sorted_values[picked]


class TestNearestDonorValues:
    """The default sort with a stable fallback picks the donors of one stable sort."""

    @staticmethod
    def predictions(case):
        rng = np.random.default_rng(51)
        obs_pred, miss_pred = rng.standard_normal(2000), rng.standard_normal(300)
        if case == "rounded":
            # many ties, which the default sort may order either way
            obs_pred, miss_pred = np.round(obs_pred, 1), np.round(miss_pred, 1)
        elif case == "straddling":
            # runs of seven equal predictions, longer than the six-row window,
            # with missing predictions on them and between them
            obs_pred = rng.permutation(np.repeat(np.arange(286.0), 7)[:2000])
            miss_pred = np.arange(0.0, 150.0, 0.5)
        return obs_pred, miss_pred

    @pytest.mark.parametrize("case", ["distinct", "rounded", "straddling"])
    def test_matches_the_stable_sort(self, case):
        obs_pred, miss_pred = self.predictions(case)
        ties = np.count_nonzero(np.diff(np.sort(obs_pred)) == 0)
        assert (ties == 0) == (case == "distinct")
        obs_values = np.random.default_rng(52).permutation(len(obs_pred)).astype(float)
        picked = _nearest_donor_values(
            obs_values, obs_pred, miss_pred, 3, np.random.default_rng(53)
        )
        expected = stable_sort_donor_values(
            obs_values, obs_pred, miss_pred, 3, np.random.default_rng(53)
        )
        assert picked.tobytes() == expected.tobytes()


class TestPmmImpute:
    def test_constant_target(self):
        target = np.array([3.0] * 8 + [np.nan] * 2)
        observed = np.array([True] * 8 + [False] * 2)
        pred = np.linspace(0, 1, 10)
        values, converged = pmm_impute(target, observed, [pred], donors=3, seed=8)
        assert converged
        assert np.all(values == 3.0)

    def test_single_donor_noise_free_linear(self):
        # ten-row toy: target = 2 * predictor, nearest donor is hand-checkable
        pred = np.arange(10.0)
        target = 2.0 * pred
        observed = np.ones(10, dtype=bool)
        observed[[2, 5, 9]] = False
        values, converged = pmm_impute(target, observed, [pred], donors=1, seed=9)
        assert converged
        # row 2 -> nearest observed predictor is 1 or 3; 5 -> 4 or 6; 9 -> 8
        assert values[0] in (2.0, 6.0)
        assert values[1] in (8.0, 12.0)
        assert values[2] == 16.0

    def test_imputed_values_in_observed_support(self):
        pop, data = make_incomplete(3000, seed=10)
        values, converged = pmm_impute(
            data.z_star, data.m_z, [np.abs(pop.x), np.sign(pop.x), pop.y],
            donors=5, seed=11,
        )
        assert converged
        support = set(data.z_star[data.m_z].tolist())
        assert all(v in support for v in values.tolist())

    def test_mediator_imputation_distribution_matches_truth(self):
        # the simulator keeps ground truth for masked cells
        pop, data = make_incomplete(20000, seed=12)
        magnitude, sign = np.abs(pop.x), np.sign(pop.x)
        values, converged = pmm_impute(
            data.z_star, data.m_z, [magnitude, sign, pop.y], donors=5, seed=13
        )
        assert converged
        truth = pop.z[~data.m_z]
        assert ks_2samp(values, truth).statistic < 0.08

    def test_nothing_to_impute(self):
        with pytest.raises(FrontdoorLabError, match="needs both observed and missing entries$"):
            pmm_impute(np.ones(5), np.ones(5, dtype=bool), [np.arange(5.0)], 3, 1)

    @pytest.mark.parametrize(
        "donors, message",
        [(0, "donors must be >= 1, got 0"), (-2, "donors must be >= 1, got -2"),
         (2.5, "donors must be int, got 2.5"), (True, "donors must be int, got True")],
        ids=["zero", "negative", "float", "bool"],
    )
    def test_unusable_donor_count_rejected(self, donors, message):
        target = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
        observed = np.array([True, True, True, True, False])
        with pytest.raises(FrontdoorLabError, match=f"^{message}$"):
            pmm_impute(target, observed, [np.arange(5.0)], donors=donors, seed=1)

    def test_incomplete_predictor_rejected(self):
        target = np.array([1.0, 0.0, np.nan])
        observed = np.array([True, True, False])
        # a gap on an observed row, then one on the row to impute
        for bad in (np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, np.nan])):
            with pytest.raises(FrontdoorLabError, match="predictors must be complete"):
                pmm_impute(target, observed, [bad], donors=1, seed=1)
            with pytest.raises(FrontdoorLabError, match="predictors must be complete"):
                impute_sign(target, observed, [bad], seed=1)


# (target, mask, predictors) from a valid five-row input, and the message; {name}
# stands for the step's name of its target
NOT_VECTORS_OF_ONE_LENGTH = {
    "short_predictor": (
        lambda t, m, p: (t, m, [p[:4]]),
        "^the mask and predictors must be vectors as long as the {name}$",
    ),
    "short_mask": (
        lambda t, m, p: (t, m[:4], [p]),
        "^the mask and predictors must be vectors as long as the {name}$",
    ),
    "matrix_mask": (
        lambda t, m, p: (t, m[:, None], [p]),
        "^the mask and predictors must be vectors as long as the {name}$",
    ),
    "matrix_target": (
        lambda t, m, p: (t[:, None], m, [p]),
        r"^{name} must be a vector, got shape \(5, 1\)$",
    ),
    "matrix_predictor": (
        lambda t, m, p: (t, m, [p[:, None]]),
        r"^predictor must be a vector, got shape \(5, 1\)$",
    ),
    "text_predictor": (
        lambda t, m, p: (t, m, [list("abcde")]),
        "^predictor must be a vector of numbers, got dtype <U1$",
    ),
    "number_predictors": (
        lambda t, m, p: (t, m, 1.5),
        "^predictors must be a sequence of vectors, got 1.5$",
    ),
    "none_predictors": (
        lambda t, m, p: (t, m, None),
        "^predictors must be a sequence of vectors, got None$",
    ),
    "ragged_mask": (
        lambda t, m, p: (t, [m[:2], m[2:]], [p]),
        "^observed mask must be a vector, got a ragged sequence$",
    ),
    "text_mask": (
        lambda t, m, p: (t, ["yes"] * 5, [p]),
        "^observed mask must be a vector of numbers, got dtype <U3$",
    ),
}


@pytest.mark.parametrize("case", list(NOT_VECTORS_OF_ONE_LENGTH))
@pytest.mark.parametrize("step, name", [("pmm_impute", "target"), ("impute_sign", "sign target")])
def test_inputs_that_are_not_vectors_of_one_length_rejected(step, name, case):
    inputs, message = NOT_VECTORS_OF_ONE_LENGTH[case]
    target, observed, predictors = inputs(
        np.array([1.0, 0.0, 1.0, 0.0, np.nan]),
        np.array([True, True, True, True, False]),
        np.arange(5.0),
    )
    run = {
        "pmm_impute": lambda: pmm_impute(target, observed, predictors, 1, seed=1),
        "impute_sign": lambda: impute_sign(target, observed, predictors, seed=1),
    }[step]
    with pytest.raises(FrontdoorLabError, match=message.format(name=name)):
        run()


@pytest.mark.parametrize(
    "seed", [1.5, True, "x", np.int64(1)], ids=["float", "bool", "str", "numpy_int"]
)
@pytest.mark.parametrize("step", ["initialize", "pmm_impute", "impute_sign"])
def test_seed_that_is_not_an_int_rejected(step, seed):
    target = np.array([1.0, 0.0, 1.0, 0.0, np.nan])
    observed = np.array([True, True, True, True, False])
    predictors = [np.arange(5.0)]
    run = {
        "initialize": lambda: initialize(make_incomplete(300)[1], seed),
        "pmm_impute": lambda: pmm_impute(target, observed, predictors, 1, seed),
        "impute_sign": lambda: impute_sign(target, observed, predictors, seed),
    }[step]
    message = f"^seed must be int, got {re.escape(repr(seed))}$"
    with pytest.raises(FrontdoorLabError, match=message):
        run()


class TestImputeSign:
    def test_all_positive_observed_signs(self):
        rng = np.random.default_rng(14)
        n = 200
        pred = rng.uniform(-1, 1, n + 10)
        sign01 = np.ones(n + 10)
        observed = np.array([True] * n + [False] * 10)
        out, converged = impute_sign(sign01, observed, [pred], seed=15)
        assert converged
        assert np.all(out == 1.0)  # clamp keeps a 1% flip chance; seed draws none

    def test_symmetric_point_is_a_coin_flip(self):
        # at the mediator mode with the outcome at its conditional mean, the
        # treatment sign carries no information
        from frontdoor_lab.scm_sim import std_normal_pdf

        pop = generate_population(SCM, 20000, seed=16)
        n_extra = 4000
        z_point = 4 * std_normal_pdf(0.0)  # mediator mode
        y_point = std_normal_pdf(z_point - 0.5) + 0.3 * z_point
        sign01 = np.concatenate([(pop.x >= 0).astype(float), np.zeros(n_extra)])
        observed = np.concatenate([np.ones(len(pop.x), bool), np.zeros(n_extra, bool)])
        z = np.concatenate([pop.z, np.full(n_extra, z_point)])
        y = np.concatenate([pop.y, np.full(n_extra, y_point)])
        out, converged = impute_sign(sign01, observed, [z, y], seed=17)
        assert converged
        assert float(np.mean(out == 1.0)) == pytest.approx(0.5, abs=0.05)

    def test_separable_toy(self):
        rng = np.random.default_rng(18)
        n, n_miss = 800, 400
        z_obs = np.concatenate([rng.uniform(-2, -1, n // 2), rng.uniform(1, 2, n // 2)])
        z_miss = np.concatenate([rng.uniform(-2, -1, n_miss // 2), rng.uniform(1, 2, n_miss // 2)])
        z = np.concatenate([z_obs, z_miss])
        sign01 = np.concatenate([(z_obs > 0).astype(float), np.zeros(n_miss)])
        observed = np.concatenate([np.ones(n, bool), np.zeros(n_miss, bool)])
        out, converged = impute_sign(sign01, observed, [z], seed=19)
        assert converged
        expected = np.where(z_miss > 0, 1.0, -1.0)
        assert float(np.mean(out == expected)) >= 0.96


class TestRunMice:
    @pytest.fixture
    def no_chains(self, monkeypatch):
        """A dataset with missing cells, on which starting a chain fails the test."""

        def refuse(*args):
            raise AssertionError("a chain started")

        monkeypatch.setattr(mi_engine, "initialize", refuse)
        return make_incomplete(200, seed=45)[1]

    def test_no_missing_gives_identical_copies(self):
        pop = generate_population(SCM, 400, seed=20)
        data = complete_dataset(pop.x, pop.z, pop.y)
        result = run_mice(data, m=3, cycles=2, seed=21)
        assert result.nonconverged_fits == 0
        assert result.m == 3
        for copy in result:
            assert np.array_equal(copy.x_star, data.x_star)
            assert np.array_equal(copy.z_star, data.z_star)
        assert result.trace == ()

    def test_observed_cells_untouched_and_support_respected(self):
        pop, data = make_incomplete(2500, seed=22)
        result = run_mice(data, m=2, cycles=3, seed=23)
        assert result.nonconverged_fits == 0
        magnitude_pool = set(np.abs(data.x_star[data.m_x]).tolist())
        z_pool = set(data.z_star[data.m_z].tolist())
        for copy in result:
            assert np.array_equal(copy.x_star[data.m_x], data.x_star[data.m_x])
            assert np.array_equal(copy.z_star[data.m_z], data.z_star[data.m_z])
            assert all(abs(v) in magnitude_pool for v in copy.x_star[~data.m_x].tolist())
            assert all(v in z_pool for v in copy.z_star[~data.m_z].tolist())

    def test_between_imputation_variance_positive(self):
        _, data = make_incomplete(2500, seed=24)
        result = run_mice(data, m=4, cycles=3, seed=25)
        assert result.nonconverged_fits == 0
        means = [float(np.mean(c.x_star[~data.m_x])) for c in result]
        assert float(np.var(means)) > 0

    def test_deterministic(self):
        _, data = make_incomplete(1200, seed=26)
        a = run_mice(data, m=2, cycles=2, seed=27)
        b = run_mice(data, m=2, cycles=2, seed=27)
        assert a.nonconverged_fits == b.nonconverged_fits == 0
        for ca, cb in zip(a, b, strict=True):
            assert np.array_equal(ca.x_star, cb.x_star)
            assert np.array_equal(ca.z_star, cb.z_star)
        assert a.trace == b.trace

    def test_pooled_imputed_mediator_mean_close_to_truth(self):
        pop, data = make_incomplete(20000, seed=28)
        result = run_mice(data, m=4, cycles=6, seed=29)
        assert result.nonconverged_fits == 0
        truth = float(np.mean(pop.z[~data.m_z]))
        pooled = float(
            np.mean([np.mean(c.z_star[~data.m_z]) for c in result])
        )
        assert pooled == pytest.approx(truth, abs=0.02)

    def test_chains_exchangeable(self):
        # relabeling chains cannot move the pooled estimate, and independent
        # seedings agree within Monte Carlo tolerance
        pop, data = make_incomplete(8000, seed=42)
        first = run_mice(data, m=4, cycles=4, seed=43)
        second = run_mice(data, m=4, cycles=4, seed=44)
        assert first.nonconverged_fits == second.nonconverged_fits == 0

        def pooled_mean(result):
            return float(
                np.mean([np.mean(c.z_star[~data.m_z]) for c in result])
            )

        shuffled = CompletedDatasets(
            source=first.source, imputed_x=first.imputed_x[::-1],
            imputed_z=first.imputed_z[::-1], trace=first.trace,
        )
        assert pooled_mean(shuffled) == pytest.approx(pooled_mean(first), abs=1e-12)
        assert pooled_mean(second) == pytest.approx(pooled_mean(first), abs=0.03)

    def test_trace_shape(self):
        _, data = make_incomplete(1000, seed=30)
        result = run_mice(data, m=2, cycles=3, seed=31)
        assert result.nonconverged_fits == 0
        assert len(result.trace) == 2 * 3 * 2  # chains x cycles x variables
        assert {variable for _, _, variable, *_ in result.trace} == {"x", "z"}

    def test_small_run_backfitting_converges(self):
        # the 140-row fits of this run need the backfitting loop: joint
        # re-solves alone alternate between two sets of penalty picks
        cfg = RunConfig(seed=6, n=150, m=2)
        population = generate_population(
            cfg.scm, cfg.n, mix_seed(cfg.seed, "population")
        )
        data = apply_missingness(cfg.scm, population, mix_seed(cfg.seed, "missingness"))
        result = run_mice(
            data, m=cfg.m, cycles=cfg.cycles, donors=cfg.donors,
            seed=mix_seed(cfg.seed, "impute"), n_knots=cfg.n_knots,
        )
        assert result.m == 2
        assert result.nonconverged_fits == 0

    @pytest.mark.parametrize(
        "name, value, minimum",
        [("m", 1, 2), ("m", -1, 2), ("cycles", 0, 1), ("donors", 0, 1), ("n_knots", 3, 4)],
        ids=repr,
    )
    def test_setting_below_its_minimum_rejected(self, name, value, minimum, no_chains):
        with pytest.raises(FrontdoorLabError, match=f"^{name} must be >= {minimum}, got {value}$"):
            run_mice(no_chains, **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("m", 2.5), ("cycles", 1.5), ("donors", 2.5), ("n_knots", 20.0), ("m", True),
         ("seed", 1.0), ("cycles", np.int64(2)), ("cycles", True), ("donors", False),
         ("seed", True), ("n_knots", True)],
        ids=repr,
    )
    def test_non_int_setting_rejected(self, name, value, no_chains):
        with pytest.raises(FrontdoorLabError, match=f"^{name} must be int, got "):
            run_mice(no_chains, **{name: value})

    def test_settings_checked_in_order(self, no_chains):
        with pytest.raises(FrontdoorLabError, match="^cycles must be >= 1, got 0$"):
            run_mice(no_chains, cycles=0, donors=0, seed=1.5, n_knots=3)


class TestCompletedDatasets:
    def make(self, n=200, seed=32):
        """A source with both columns missing and one filled-in imputation."""
        _, data = make_incomplete(n, seed=seed)
        filled = initialize(data, seed=seed + 1)
        return data, [filled.x_star[~data.m_x]], [filled.z_star[~data.m_z]]

    def test_copies_are_the_source_with_each_row_filled_in(self):
        _, data = make_incomplete(300, seed=47)
        rows_x = [np.arange(1.0, 1.0 + (~data.m_x).sum()) * k for k in (1, 2, 3)]
        rows_z = [np.arange(0.5, 0.5 + (~data.m_z).sum()) * k for k in (1, 2, 3)]
        result = CompletedDatasets(data, rows_x, rows_z)
        copies = list(result)
        assert result.m == len(copies) == 3
        for copy, row_x, row_z in zip(copies, rows_x, rows_z):
            assert copy.is_complete()
            assert data.observed_cells_match(copy.x_star, copy.z_star, copy.y_star)
            assert np.array_equal(copy.x_star[~data.m_x], row_x)
            assert np.array_equal(copy.z_star[~data.m_z], row_z)
        # each pass builds new copies, and the source is left as it was
        assert list(result)[0] is not copies[0]
        assert not data.is_complete()

    def test_modified_observed_cell_rejected(self):
        # a copy cannot differ from the source in an observed cell: the arrays
        # hold only the missing cells, and a copy's arrays are read-only
        data, rows_x, rows_z = self.make()
        result = CompletedDatasets(source=data, imputed_x=rows_x, imputed_z=rows_z)
        copy = next(iter(result))
        with pytest.raises(ValueError, match="read-only"):
            copy.x_star[np.argmax(data.m_x)] += 1.0
        assert data.observed_cells_match(copy.x_star, copy.z_star, copy.y_star)

    def test_arrays_are_read_only_copies(self):
        data, rows_x, rows_z = self.make()
        x = np.array(rows_x)
        result = CompletedDatasets(data, x, rows_z)
        kept = x[0, 0]
        x[0, 0] += 1.0
        assert result.imputed_x[0, 0] == kept
        for name in ("imputed_x", "imputed_z"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name)[0, 0] = 0.0

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_incomplete_copy_rejected(self, cell):
        # a non-finite imputation would leave a copy incomplete or unwritable
        data, rows_x, rows_z = self.make()
        rows_z[0][0] = cell
        with pytest.raises(FrontdoorLabError, match="^imputed_z must be finite, of shape"):
            CompletedDatasets(source=data, imputed_x=rows_x, imputed_z=rows_z)

    @pytest.mark.parametrize(
        "change",
        [
            lambda x: x[0][:-1],  # a vector, not one row per imputation
            lambda x: [x[0][:-1]],  # one cell short
            lambda x: [np.append(x[0], 1.0)],  # one cell too many
            lambda x: 1.5,
            lambda x: None,
            lambda x: [[x[0][0]], [x[0][0], x[0][0]]],  # ragged
            lambda x: [["a"] * len(x[0])],
            lambda x: np.array(x)[None],  # three dimensions
        ],
        ids=["vector", "short", "long", "number", "none", "ragged", "text", "3d"],
    )
    def test_malformed_imputations_rejected(self, change):
        data, rows_x, rows_z = self.make()
        with pytest.raises(FrontdoorLabError, match="^imputed_x must be"):
            CompletedDatasets(data, change(rows_x), rows_z)

    @pytest.mark.parametrize("m_x, m_z", [(0, 0), (1, 2), (2, 1)])
    def test_imputation_counts_must_agree(self, m_x, m_z):
        data, rows_x, rows_z = self.make()
        with pytest.raises(FrontdoorLabError, match="the same m >= 1 rows$"):
            CompletedDatasets(data, rows_x * m_x or np.empty((0, len(rows_x[0]))),
                              rows_z * m_z or np.empty((0, len(rows_z[0]))))


@pytest.fixture(scope="module")
def three_copies():
    """An m = 3 imputation with both variables missing and its diagnostics,
    counting the ``np.quantile`` calls that the diagnostics make."""
    _, data = make_incomplete(1500, seed=37)
    result = run_mice(data, m=3, cycles=2, seed=38)
    assert result.nonconverged_fits == 0
    quantile, calls = np.quantile, []

    def counted(*args, **kwargs):
        calls.append(1)
        return quantile(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mi_engine.np, "quantile", counted)
        rows = imputation_diagnostics(result)
    return result, rows, len(calls)


class TestDiagnostics:
    def test_no_missing_gives_empty_report(self):
        pop = generate_population(SCM, 300, seed=35)
        data = complete_dataset(pop.x, pop.z, pop.y)
        result = run_mice(data, m=2, cycles=1, seed=36)
        assert result.nonconverged_fits == 0
        assert imputation_diagnostics(result) == []

    def test_report_shape_on_default_run(self, three_copies):
        _, rows, _ = three_copies
        groups = {(variable, k) for variable, k, *_ in rows}
        assert len(groups) == 3 * 2  # m copies x 2 variables
        assert len(rows) == 3 * 2 * 2  # observed and imputed side each

    def test_rows_come_copy_by_copy(self, three_copies):
        _, rows, _ = three_copies
        assert [row[:3] for row in rows] == [
            (variable, k, side)
            for k in (1, 2, 3)
            for variable in ("x", "z")
            for side in ("observed", "imputed")
        ]
        assert all(len(row) == len(DIAGNOSTICS_HEADER) for row in rows)
        assert all(type(k) is int for _, k, *_ in rows)
        assert all(type(value) is float for row in rows for value in row[3:])

    def test_observed_side_is_the_source_summarised_once(self, three_copies):
        result, rows, quantile_calls = three_copies
        source = result.source
        probs = np.linspace(0.1, 0.9, 9)
        for variable, cells in (("x", source.x_star[source.m_x]),
                                ("z", source.z_star[source.m_z])):
            expected = (float(np.mean(cells)), float(np.std(cells)),
                        *np.quantile(cells, probs).tolist())
            observed = [row[3:-1] for row in rows if row[0] == variable and row[2] == "observed"]
            assert observed == [expected] * 3
        # once per variable for the observed side, once per copy and variable
        # for the imputed side
        assert quantile_calls == 2 + 3 * 2

    def test_variable_without_observed_cells_rejected(self):
        pop = generate_population(SCM, 200, seed=46)
        source = complete_dataset(np.full(200, np.nan), pop.z, pop.y)
        result = CompletedDatasets(source, [pop.x], np.empty((1, 0)))
        with pytest.raises(FrontdoorLabError, match="^column x has no observed values$"):
            imputation_diagnostics(result)

    def test_mean_imputation_negative_control(self):
        # a broken imputer that writes the column mean everywhere should light
        # up the diagnostics: tiny imputed sd, large KS distance
        pop, data = make_incomplete(2000, seed=39)
        x_means = np.full((1, (~data.m_x).sum()), np.nanmean(data.x_star))
        z_means = np.full((1, (~data.m_z).sum()), np.nanmean(data.z_star))
        result = CompletedDatasets(source=data, imputed_x=x_means, imputed_z=z_means)
        sd_and_ks = {
            (variable, side): (sd, ks)
            for variable, _, side, _, sd, *_, ks in imputation_diagnostics(result)
        }
        for variable in ("x", "z"):
            observed_sd, _ = sd_and_ks[variable, "observed"]
            imputed_sd, imputed_ks = sd_and_ks[variable, "imputed"]
            assert imputed_sd < 0.2 * observed_sd
            assert imputed_ks > 0.3

    def test_csv_emission(self, tmp_path):
        _, data = make_incomplete(800, seed=40)
        result = run_mice(data, m=2, cycles=1, seed=41)
        assert result.nonconverged_fits == 0
        rows = imputation_diagnostics(result)
        path = tmp_path / "diag.csv"
        diagnostics_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "variable,dataset_index,side,mean,sd,d1,d2,d3,d4,d5,d6,d7,d8,d9,ks"
        )
        assert len(lines) == 1 + len(rows)


class TestKsStatistic:
    """``_ks_statistic`` against scipy's ``ks_2samp``, kept here as the reference."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0]),
            ([0.0], [0.0]),
            ([5.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            ([0.5, 0.5, 1.5, 2.5, 2.5, 2.5, 3.0], [0.5, 1.0, 2.5, 4.0]),
        ],
        ids=["ties", "one-each-equal", "one-against-six", "ties-unequal-sizes"],
    )
    def test_equals_exact_ks_2samp(self, a, b):
        assert _ks_statistic(a, b) == ks_2samp(a, b, method="exact").statistic

    def test_equals_exact_ks_2samp_on_random_tied_samples(self):
        rng = np.random.default_rng(50)
        for n_a, n_b in [(7, 13), (20, 9), (31, 31), (12, 40)]:
            a = rng.integers(0, 6, n_a).astype(float)
            b = rng.integers(1, 8, n_b).astype(float)
            assert _ks_statistic(a, b) == ks_2samp(a, b, method="exact").statistic

    def test_matches_default_ks_2samp_at_desk_sizes(self):
        # about the observed and imputed mediator cells of one desk copy
        rng = np.random.default_rng(51)
        observed = rng.normal(size=18400)
        imputed = np.round(rng.normal(0.05, 1.0, size=1600), 2)
        expected = ks_2samp(observed, imputed).statistic
        assert abs(_ks_statistic(observed, imputed) - expected) <= 1e-15

    def test_symmetric_and_in_unit_interval(self):
        rng = np.random.default_rng(52)
        for n_a, n_b in [(1, 1), (3, 50), (200, 17)]:
            a = rng.normal(size=n_a)
            b = np.round(rng.normal(0.3, 2.0, size=n_b), 1)
            d = _ks_statistic(a, b)
            assert d == _ks_statistic(b, a)
            assert 0.0 <= d <= 1.0
        assert _ks_statistic([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert _ks_statistic([1.0, 2.0], [3.0, 4.0]) == 1.0

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([], [])])
    def test_empty_sample_rejected(self, a, b):
        with pytest.raises(FrontdoorLabError):
            _ks_statistic(a, b)
