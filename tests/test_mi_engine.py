import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from frontdoor_lab._seeds import mix_seed
from frontdoor_lab.dataset import Dataset
from frontdoor_lab.errors import AllMissingColumn, FrontdoorLabError, NothingToImpute
from frontdoor_lab.mi_engine import (
    CompletedDatasets,
    ImputationConfig,
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
from frontdoor_lab.spline_smooth import NoConvergenceWarning

SCM = ScmConfig()


def make_incomplete(n=2000, seed=1):
    pop = generate_population(SCM, n, seed=seed)
    data = apply_missingness(SCM, pop, seed=seed)
    return pop, data


def complete_dataset(x, z, y):
    n = len(y)
    return Dataset(
        x_star=x, z_star=z, y_star=y,
        m_x=np.ones(n, dtype=bool), m_z=np.ones(n, dtype=bool),
    )


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
            m_x=np.array([True, True, True, False]),
            m_z=np.ones(4, dtype=bool),
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
            m_x=np.zeros(3, dtype=bool),
            m_z=np.ones(3, dtype=bool),
        )
        with pytest.raises(AllMissingColumn):
            initialize(data, seed=5)

    def test_deterministic(self):
        _, data = make_incomplete(300, seed=6)
        a = initialize(data, seed=7)
        b = initialize(data, seed=7)
        assert np.array_equal(a.x_star, b.x_star)
        assert np.array_equal(a.z_star, b.z_star)


class TestPmmImpute:
    def test_constant_target(self):
        target = np.array([3.0] * 8 + [np.nan] * 2)
        observed = np.array([True] * 8 + [False] * 2)
        pred = np.linspace(0, 1, 10)
        values = pmm_impute(target, observed, [pred], donors=3, seed=8)
        assert np.all(values == 3.0)

    def test_single_donor_noise_free_linear(self):
        # ten-row toy: target = 2 * predictor, nearest donor is hand-checkable
        pred = np.arange(10.0)
        target = 2.0 * pred
        observed = np.ones(10, dtype=bool)
        observed[[2, 5, 9]] = False
        values = pmm_impute(target, observed, [pred], donors=1, seed=9)
        # row 2 -> nearest observed predictor is 1 or 3; 5 -> 4 or 6; 9 -> 8
        assert values[0] in (2.0, 6.0)
        assert values[1] in (8.0, 12.0)
        assert values[2] == 16.0

    def test_imputed_values_in_observed_support(self):
        pop, data = make_incomplete(3000, seed=10)
        values = pmm_impute(
            data.z_star, data.m_z, [np.abs(pop.x), np.sign(pop.x), pop.y],
            donors=5, seed=11,
        )
        support = set(data.z_star[data.m_z].tolist())
        assert all(v in support for v in values.tolist())

    def test_mediator_imputation_distribution_matches_truth(self):
        # the simulator keeps ground truth for masked cells
        pop, data = make_incomplete(20000, seed=12)
        magnitude, sign = np.abs(pop.x), np.sign(pop.x)
        values = pmm_impute(
            data.z_star, data.m_z, [magnitude, sign, pop.y], donors=5, seed=13
        )
        truth = pop.z[~data.m_z]
        assert ks_2samp(values, truth).statistic < 0.08

    def test_nothing_to_impute(self):
        with pytest.raises(NothingToImpute):
            pmm_impute(np.ones(5), np.ones(5, dtype=bool), [np.arange(5.0)], 3, 1)

    def test_incomplete_predictor_rejected(self):
        target = np.array([1.0, 2.0, np.nan])
        observed = np.array([True, True, False])
        bad = np.array([1.0, np.nan, 3.0])
        with pytest.raises(FrontdoorLabError):
            pmm_impute(target, observed, [bad], donors=1, seed=1)


class TestImputeSign:
    def test_all_positive_observed_signs(self):
        rng = np.random.default_rng(14)
        n = 200
        pred = rng.uniform(-1, 1, n + 10)
        sign01 = np.ones(n + 10)
        observed = np.array([True] * n + [False] * 10)
        out = impute_sign(sign01, observed, [pred], seed=15)
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
        out = impute_sign(sign01, observed, [z, y], seed=17)
        assert float(np.mean(out == 1.0)) == pytest.approx(0.5, abs=0.05)

    def test_separable_toy(self):
        rng = np.random.default_rng(18)
        n, n_miss = 800, 400
        z_obs = np.concatenate([rng.uniform(-2, -1, n // 2), rng.uniform(1, 2, n // 2)])
        z_miss = np.concatenate([rng.uniform(-2, -1, n_miss // 2), rng.uniform(1, 2, n_miss // 2)])
        z = np.concatenate([z_obs, z_miss])
        sign01 = np.concatenate([(z_obs > 0).astype(float), np.zeros(n_miss)])
        observed = np.concatenate([np.ones(n, bool), np.zeros(n_miss, bool)])
        out = impute_sign(sign01, observed, [z], seed=19)
        expected = np.where(z_miss > 0, 1.0, -1.0)
        assert float(np.mean(out == expected)) >= 0.96


class TestRunMice:
    def test_no_missing_gives_identical_copies(self):
        pop = generate_population(SCM, 400, seed=20)
        data = complete_dataset(pop.x, pop.z, pop.y)
        result = run_mice(data, ImputationConfig(m=3, cycles=2, seed=21))
        assert result.m == 3
        for copy in result.completed:
            assert np.array_equal(copy.x_star, data.x_star)
            assert np.array_equal(copy.z_star, data.z_star)
        assert result.trace == ()

    def test_observed_cells_untouched_and_support_respected(self):
        pop, data = make_incomplete(2500, seed=22)
        result = run_mice(data, ImputationConfig(m=2, cycles=3, seed=23))
        magnitude_pool = set(np.abs(data.x_star[data.m_x]).tolist())
        z_pool = set(data.z_star[data.m_z].tolist())
        for copy in result.completed:
            assert np.array_equal(copy.x_star[data.m_x], data.x_star[data.m_x])
            assert np.array_equal(copy.z_star[data.m_z], data.z_star[data.m_z])
            assert all(abs(v) in magnitude_pool for v in copy.x_star[~data.m_x].tolist())
            assert all(v in z_pool for v in copy.z_star[~data.m_z].tolist())

    def test_between_imputation_variance_positive(self):
        _, data = make_incomplete(2500, seed=24)
        result = run_mice(data, ImputationConfig(m=4, cycles=3, seed=25))
        means = [float(np.mean(c.x_star[~data.m_x])) for c in result.completed]
        assert float(np.var(means)) > 0

    def test_deterministic(self):
        _, data = make_incomplete(1200, seed=26)
        cfg = ImputationConfig(m=2, cycles=2, seed=27)
        a = run_mice(data, cfg)
        b = run_mice(data, cfg)
        for ca, cb in zip(a.completed, b.completed):
            assert np.array_equal(ca.x_star, cb.x_star)
            assert np.array_equal(ca.z_star, cb.z_star)
        assert a.trace == b.trace

    def test_pooled_imputed_mediator_mean_close_to_truth(self):
        pop, data = make_incomplete(20000, seed=28)
        result = run_mice(data, ImputationConfig(m=4, cycles=6, seed=29))
        truth = float(np.mean(pop.z[~data.m_z]))
        pooled = float(
            np.mean([np.mean(c.z_star[~data.m_z]) for c in result.completed])
        )
        assert pooled == pytest.approx(truth, abs=0.02)

    def test_chains_exchangeable(self):
        # relabeling chains cannot move the pooled estimate, and independent
        # seedings agree within Monte Carlo tolerance
        pop, data = make_incomplete(8000, seed=42)
        first = run_mice(data, ImputationConfig(m=4, cycles=4, seed=43))
        second = run_mice(data, ImputationConfig(m=4, cycles=4, seed=44))

        def pooled_mean(result):
            return float(
                np.mean([np.mean(c.z_star[~data.m_z]) for c in result.completed])
            )

        shuffled = CompletedDatasets(
            source=first.source, completed=first.completed[::-1], trace=first.trace
        )
        assert pooled_mean(shuffled) == pytest.approx(pooled_mean(first), abs=1e-12)
        assert pooled_mean(second) == pytest.approx(pooled_mean(first), abs=0.03)

    def test_trace_shape(self):
        _, data = make_incomplete(1000, seed=30)
        cfg = ImputationConfig(m=2, cycles=3, seed=31)
        result = run_mice(data, cfg)
        assert len(result.trace) == 2 * 3 * 2  # chains x cycles x variables
        assert {t.variable for t in result.trace} == {"x", "z"}

    def test_small_run_backfitting_converges(self):
        # the 140-row fits of this run need the backfitting loop: joint
        # re-solves alone alternate between two sets of penalty picks
        cfg = RunConfig(seed=6, n=150, m=2)
        population = generate_population(
            cfg.scm, cfg.n, mix_seed(cfg.seed, "population")
        )
        data = apply_missingness(cfg.scm, population, mix_seed(cfg.seed, "missingness"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NoConvergenceWarning)
            result = run_mice(data, cfg.imputation_config())
        assert result.m == 2

    def test_config_validation(self):
        with pytest.raises(FrontdoorLabError):
            ImputationConfig(m=1)
        with pytest.raises(FrontdoorLabError):
            ImputationConfig(donors=0)


class TestCompletedDatasets:
    def test_modified_observed_cell_rejected(self):
        pop, data = make_incomplete(200, seed=32)
        filled = initialize(data, seed=33)
        tampered = np.array(filled.x_star)
        tampered[np.argmax(data.m_x)] += 1.0
        bad = complete_dataset(tampered, np.array(filled.z_star), np.array(filled.y_star))
        with pytest.raises(FrontdoorLabError):
            CompletedDatasets(source=data, completed=(bad,))

    def test_incomplete_copy_rejected(self):
        _, data = make_incomplete(200, seed=34)
        with pytest.raises(FrontdoorLabError):
            CompletedDatasets(source=data, completed=(data,))


class TestDiagnostics:
    def test_no_missing_gives_empty_report(self):
        pop = generate_population(SCM, 300, seed=35)
        data = complete_dataset(pop.x, pop.z, pop.y)
        result = run_mice(data, ImputationConfig(m=2, cycles=1, seed=36))
        assert imputation_diagnostics(result) == []

    def test_report_shape_on_default_run(self):
        _, data = make_incomplete(1500, seed=37)
        result = run_mice(data, ImputationConfig(m=3, cycles=2, seed=38))
        rows = imputation_diagnostics(result)
        groups = {(r.variable, r.dataset_index) for r in rows}
        assert len(groups) == 3 * 2  # m copies x 2 variables
        assert len(rows) == 3 * 2 * 2  # observed and imputed side each

    def test_mean_imputation_negative_control(self):
        # a broken imputer that writes the column mean everywhere should light
        # up the diagnostics: tiny imputed sd, large KS distance
        pop, data = make_incomplete(2000, seed=39)
        x_mean_filled = np.where(data.m_x, data.x_star, np.nanmean(data.x_star))
        z_mean_filled = np.where(data.m_z, data.z_star, np.nanmean(data.z_star))
        broken = complete_dataset(x_mean_filled, z_mean_filled, np.array(data.y_star))
        result = CompletedDatasets(source=data, completed=(broken,))
        rows = imputation_diagnostics(result)
        for variable in ("x", "z"):
            observed = next(
                r for r in rows if r.variable == variable and r.side == "observed"
            )
            imputed = next(
                r for r in rows if r.variable == variable and r.side == "imputed"
            )
            assert imputed.sd < 0.2 * observed.sd
            assert imputed.ks > 0.3

    def test_csv_emission(self, tmp_path):
        _, data = make_incomplete(800, seed=40)
        result = run_mice(data, ImputationConfig(m=2, cycles=1, seed=41))
        rows = imputation_diagnostics(result)
        path = tmp_path / "diag.csv"
        diagnostics_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "variable,dataset_index,side,mean,sd,d1,d2,d3,d4,d5,d6,d7,d8,d9,ks"
        )
        assert len(lines) == 1 + len(rows)
