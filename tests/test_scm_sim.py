import csv
import re
import warnings
from dataclasses import FrozenInstanceError
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from frontdoor_lab import scm_sim

from frontdoor_lab.dataset import Dataset, dataset_from_csv, dataset_to_csv, datasets_to_csv
from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.frontdoor_estimator import EffectEstimate, effect_to_csv
from frontdoor_lab.scm_sim import (
    Population,
    ScmConfig,
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    oracle_quantiles,
    population_from_csv,
    population_to_csv,
    std_normal_cdf,
    std_normal_pdf,
)

from oracles import (
    interventional_quantile_bisection,
    missingness_rates_quadrature,
    normal_cdf_exact,
    normal_cdf_series,
    trapezoid_integral,
)

CFG = ScmConfig()


class TestDensities:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_pdf_at_three(self):
        # frozen from direct evaluation of exp(-9/2)/sqrt(2 pi)
        assert std_normal_pdf(3.0) == pytest.approx(0.0044318484119380075, abs=1e-12)

    def test_pdf_symmetric(self):
        assert std_normal_pdf(-1.0) == std_normal_pdf(1.0)

    def test_pdf_integrates_to_one(self):
        total = trapezoid_integral(std_normal_pdf, -10.0, 10.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_standard_quantile(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert std_normal_cdf(1.959964) == pytest.approx(
            normal_cdf_series(1.959964), abs=1e-12
        )

    def test_cdf_tail(self):
        assert std_normal_cdf(-8.0) < 1e-14

    def test_cdf_matches_series_oracle_on_grid(self):
        for x in np.linspace(-3, 3, 25):
            assert std_normal_cdf(x) == pytest.approx(normal_cdf_series(x), abs=1e-12)

    def test_cdf_is_running_integral_of_pdf(self):
        for a, b in ((-2.0, 1.0), (0.0, 0.5), (-1.5, 2.5)):
            quad = trapezoid_integral(std_normal_pdf, a, b, n=40001)
            assert std_normal_cdf(b) - std_normal_cdf(a) == pytest.approx(quad, abs=1e-6)

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.0])
        assert std_normal_pdf(xs).shape == (3,)
        assert std_normal_cdf(xs).shape == (3,)

    def test_cdf_matches_scipy_ndtr_on_a_dense_grid(self):
        # SciPy's ndtr as the reference: within 2.3e-16 absolute everywhere,
        # and within 2.5e-13 relative wherever Phi > 1e-300 (observed:
        # 2.2e-16 and 5.7e-14, the second near x = -33; both take erfc at the
        # same rounded x sqrt(1/2), so only the two erfc differ; the deep
        # tail is below 1e-300)
        xs = np.linspace(-40.0, 40.0, 160001)
        got, want = std_normal_cdf(xs), ndtr(xs)
        assert np.max(np.abs(got - want)) <= 2.3e-16
        normal = want > 1e-300
        assert np.max(np.abs(got - want)[normal] / want[normal]) <= 2.5e-13

    def test_cdf_matches_the_exact_oracle(self):
        # Phi correctly rounded from decimal arithmetic: within 2.3e-16
        # absolute, and within 2.5e-13 relative wherever Phi > 1e-300
        # (observed: 1.1e-16, and 1.8e-13 near x = -36.4, where the rounding
        # of x sqrt(1/2) is amplified by erfc's exp(-x^2 / 2))
        xs = np.linspace(-37.5, 8.0, 4551)
        want = np.array([normal_cdf_exact(x) for x in xs.tolist()])
        error = np.abs(std_normal_cdf(xs) - want)
        assert np.max(error) <= 2.3e-16
        normal = want > 1e-300
        assert np.max(error[normal] / want[normal]) <= 2.5e-13

    def test_cdf_at_infinities_and_nan(self):
        got = std_normal_cdf([-np.inf, np.inf, np.nan])
        assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2])
        assert std_normal_cdf(-np.inf) == 0.0 and std_normal_cdf(np.inf) == 1.0
        assert np.isnan(std_normal_cdf(np.nan))

    def test_cdf_of_huge_finite_input_warns_nothing(self):
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = std_normal_cdf([-big, -1e300, -41.0, 41.0, 1e300, big])
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


class TestGeneratePopulation:
    def test_rejects_bad_count(self):
        with pytest.raises(FrontdoorLabError, match="^n must be >= 1, got 0$"):
            generate_population(CFG, 0, seed=1)

    def test_mediator_noise_within_six_sigma(self):
        pop = generate_population(CFG, 20000, seed=5)
        gap = pop.z - CFG.z_amplitude * std_normal_pdf(pop.x)
        assert np.all(np.abs(gap) <= 6 * CFG.sigma_z)

    def test_mean_x_near_zero(self):
        pop = generate_population(CFG, 20000, seed=11)
        assert abs(float(np.mean(pop.x))) < 0.03

    def test_noise_free_composition(self):
        cfg = ScmConfig(sigma_z=1e-12, u_coef=0.0)
        pop = generate_population(cfg, 500, seed=2)
        expected = std_normal_pdf(4 * std_normal_pdf(pop.x) - 0.5) + 1.2 * std_normal_pdf(pop.x)
        assert np.allclose(pop.y, expected, atol=1e-9)

    def test_reproducible(self):
        a = generate_population(CFG, 300, seed=42)
        b = generate_population(CFG, 300, seed=42)
        for name in ("u", "x", "z", "y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = generate_population(CFG, 300, seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_sequence_protocol(self):
        pop = generate_population(CFG, 5, seed=1)
        assert len(pop) == 5


class TestIntervene:
    def test_mean_at_three(self):
        draws = intervene_generate(CFG, 3.0, 10**6, seed=9)
        assert float(np.mean(draws)) == pytest.approx(0.359, abs=0.002)

    def test_degenerate_noise(self):
        cfg = ScmConfig(sigma_z=1e-12, u_coef=0.0)
        draws = intervene_generate(cfg, 1.0, 100, seed=3)
        m = 4 * std_normal_pdf(1.0)
        expected = std_normal_pdf(m - 0.5) + 0.3 * m
        assert np.allclose(draws, expected, atol=1e-9)

    def test_spread_matches_delta_method(self):
        # local linearization: sd ~ sqrt(sigma_z^2 g^2 + u_coef^2) with
        # g the slope of phi(z - shift) + lin * z at z = amplitude * phi(x)
        for x in (3.0, 0.0):
            m = CFG.z_amplitude * std_normal_pdf(x)
            g = -(m - CFG.y_shift) * std_normal_pdf(m - CFG.y_shift) + CFG.y_linear
            delta_sd = np.sqrt(CFG.sigma_z**2 * g**2 + CFG.u_coef**2)
            draws = intervene_generate(CFG, x, 200000, seed=21)
            assert float(np.std(draws)) == pytest.approx(delta_sd, abs=0.005)

    def test_rejects_bad_count(self):
        with pytest.raises(FrontdoorLabError, match="^n must be >= 1, got 0$"):
            intervene_generate(CFG, 0.0, 0, seed=1)

    @pytest.mark.parametrize("x", ["abc", "1.5", b"1.5", None, True, np.zeros(2)], ids=repr)
    def test_rejects_a_target_that_is_not_a_number(self, x):
        message = f"^x must be a number, got {re.escape(repr(x))}$"
        with pytest.raises(FrontdoorLabError, match=message):
            intervene_generate(CFG, x, 5, seed=1)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=repr)
    def test_rejects_a_target_that_is_not_finite(self, x):
        with pytest.raises(FrontdoorLabError, match=f"^x must be finite, got {x}$"):
            intervene_generate(CFG, x, 5, seed=1)

    def test_numpy_scalar_targets_give_the_same_draws(self):
        draws = intervene_generate(CFG, 0.5, 20, seed=4)
        for x in (np.float64(0.5), np.array(0.5), np.float32(0.5)):
            assert np.array_equal(intervene_generate(CFG, x, 20, seed=4), draws)


class TestOracleAce:
    def test_frozen_values(self):
        # frozen from the Gaussian convolution closed form, cross-checked
        # against the Monte Carlo oracle below
        assert oracle_ace(CFG, 3.0) == pytest.approx(0.3591068207309027, abs=1e-12)
        assert oracle_ace(CFG, 0.0) == pytest.approx(0.697809366196441, abs=1e-12)

    def test_matches_monte_carlo(self):
        for i, x in enumerate(np.linspace(-3, 3, 7)):
            draws = intervene_generate(CFG, float(x), 200000, seed=100 + i)
            se = float(np.std(draws)) / np.sqrt(len(draws))
            assert abs(float(np.mean(draws)) - oracle_ace(CFG, float(x))) < 4 * se

    def test_degenerate_sigma_limit(self):
        cfg = ScmConfig(sigma_z=1e-9)
        for x in (-2.0, 0.0, 1.5):
            m = 4 * std_normal_pdf(x)
            limit = std_normal_pdf(m - 0.5) + 1.2 * std_normal_pdf(x)
            assert oracle_ace(cfg, x) == pytest.approx(limit, abs=1e-9)

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda x: oracle_ace(CFG, x),
            std_normal_pdf,
            std_normal_cdf,
            lambda x: oracle_quantiles(CFG, x, [0.5]),
            lambda x: oracle_quantiles(CFG, [0.5], x).ravel(),
        ],
        ids=["oracle_ace", "pdf", "cdf", "quantiles_x", "quantiles_probs"],
    )
    def test_rejects_input_that_is_not_numbers(self, oracle):
        # numeric text is text: "1.5" is not read as 1.5
        for value in ("1.5", "abc", [0.5, "abc"], None):
            with pytest.raises(FrontdoorLabError, match="must be a number or an array of numbers"):
                oracle(value)
        with pytest.raises(FrontdoorLabError, match="must be a number or an array, got a ragged"):
            oracle([[0.5], [0.5, 0.5]])

    def test_vectorized(self):
        xs = np.linspace(-2, 2, 5)
        curve = oracle_ace(CFG, xs)
        assert curve.shape == (5,)
        assert curve[2] == pytest.approx(oracle_ace(CFG, 0.0))


class TestOracleQuantiles:
    @pytest.mark.parametrize(
        "cfg",
        [CFG, ScmConfig(sigma_z=0.5), ScmConfig(sigma_z=2.0, u_coef=0.01)],
        ids=["default", "sigma_z_0.5", "sigma_z_2_u_coef_0.01"],
    )
    def test_matches_bisection_reference(self, cfg):
        # sigma_z = 2, u_coef = 0.01 is where Gauss-Hermite over Z breaks down
        probs = (0.05, 0.5, 0.95)
        for x in (-2.0, 0.0, 1.5):
            reference = [interventional_quantile_bisection(cfg, x, p) for p in probs]
            assert np.allclose(oracle_quantiles(cfg, x, probs), reference, rtol=0, atol=1e-4)

    def test_noise_free_outcome_maps_mediator_quantiles(self):
        # with u_coef = 0 and h increasing (y_linear = 0.3), the p-quantile of
        # Y = h(Z) is h at the p-quantile of Z
        cfg = ScmConfig(u_coef=0.0)
        probs = (0.05, 0.3, 0.95)
        for x in (-2.0, 0.0, 1.5):
            m = cfg.z_amplitude * std_normal_pdf(x)
            z = np.array([m + cfg.sigma_z * NormalDist().inv_cdf(p) for p in probs])
            expected = std_normal_pdf(z - 0.5) + 0.3 * z
            assert np.allclose(oracle_quantiles(cfg, x, probs), expected, rtol=0, atol=1e-4)

    def test_degenerate_noise(self):
        cfg = ScmConfig(sigma_z=1e-12, u_coef=0.0)
        m = 4 * std_normal_pdf(1.0)
        expected = std_normal_pdf(m - 0.5) + 0.3 * m
        assert np.allclose(oracle_quantiles(cfg, 1.0, (0.05, 0.95)), expected, rtol=0, atol=1e-9)

    def test_matches_monte_carlo(self):
        # the share of draws below each oracle quantile is p within 4 binomial SE
        probs = np.array([0.05, 0.5, 0.95])
        n = 200000
        for i, x in enumerate((-3.0, 0.0, 1.0)):
            draws = intervene_generate(CFG, x, n, seed=300 + i)
            quantiles = oracle_quantiles(CFG, x, probs)
            below = np.mean(draws[:, None] <= quantiles[None, :], axis=0)
            assert np.all(np.abs(below - probs) < 4 * np.sqrt(probs * (1 - probs) / n))

    def test_scalar_and_array_x(self):
        xs = np.linspace(-2, 2, 5)
        bands = oracle_quantiles(CFG, xs, (0.05, 0.95))
        assert bands.shape == (5, 2)
        assert np.all(bands[:, 0] < bands[:, 1])
        single = oracle_quantiles(CFG, 0.0, (0.05, 0.95))
        assert single.shape == (2,)
        assert np.array_equal(single, bands[2])

    def test_strata_quantiles_match_scipy_ndtri(self):
        # Phi^-1 at the strata midpoints from statistics.NormalDist, against
        # SciPy's ndtri: within 1e-15 relative (observed: 6.8e-16)
        k = scm_sim._QUANTILE_STRATA
        midpoints = (np.arange(k) + 0.5) / k
        got = np.array([scm_sim._STANDARD_NORMAL.inv_cdf(p) for p in midpoints.tolist()])
        want = ndtri(midpoints)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("cfg", [CFG, ScmConfig(sigma_z=0.5)], ids=["default", "sigma_z_0.5"])
    def test_matches_the_rule_with_scipy_normal_functions(self, cfg, monkeypatch):
        # the same rule with SciPy's ndtr and ndtri for Phi and Phi^-1: within
        # 1e-12 (observed: 2.2e-16)
        xs, probs = np.linspace(-3.0, 3.0, 13), (0.05, 0.5, 0.95)
        got = oracle_quantiles(cfg, xs, probs)

        class ScipyNormal:
            @staticmethod
            def inv_cdf(p):
                return float(ndtri(p))

        monkeypatch.setattr(scm_sim, "_normal_cdf", ndtr)
        monkeypatch.setattr(scm_sim, "_STANDARD_NORMAL", ScipyNormal)
        assert np.max(np.abs(got - oracle_quantiles(cfg, xs, probs))) <= 1e-12

    def test_bisection_steps_solve_the_rule(self):
        # with |u_coef| far below the gaps between neighbouring h values the
        # CDF is nearly a staircase, and Newton steps leave the bracket (here
        # 1001 bisection steps); each quantile still solves the rule's own
        # equation mean_k Phi((q - h_k) / |u_coef|) = p over the strata
        # (observed: within 7.5e-16), with SciPy's ndtr as Phi
        cfg = ScmConfig(sigma_z=2.0, u_coef=1e-4)
        xs, probs = np.linspace(-3.0, 3.0, 41), np.array([0.05, 0.5, 0.95])
        quantiles = oracle_quantiles(cfg, xs, probs)
        k = scm_sim._QUANTILE_STRATA
        noise = cfg.sigma_z * ndtri((np.arange(k) + 0.5) / k)
        for x, q in zip(xs, quantiles):
            z = cfg.z_amplitude * std_normal_pdf(x) + noise
            h = std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z
            cdf = np.mean(ndtr((q[:, None] - h) / abs(cfg.u_coef)), axis=1)
            assert np.all(np.abs(cdf - probs) <= 1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, float("nan")])
    def test_rejects_probability_outside_unit_interval(self, p):
        with pytest.raises(FrontdoorLabError, match="probabilities"):
            oracle_quantiles(CFG, 0.0, (0.5, p))


class TestApplyMissingness:
    def test_masking_probability_at_pivot_y(self):
        # y = 2 puts the X-retention probability exactly at Phi(0) = 1/2
        n = 20000
        pop = Population(u=np.zeros(n), x=np.zeros(n), z=np.zeros(n), y=np.full(n, 2.0))
        data = apply_missingness(CFG, pop, seed=4)
        assert float(np.mean(data.m_x)) == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(n))

        pop = Population(u=np.zeros(n), x=np.zeros(n), z=np.zeros(n), y=np.full(n, 0.25))
        data = apply_missingness(CFG, pop, seed=4)
        assert float(np.mean(data.m_z)) == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(n))

    def test_empirical_rates_match_mechanism_expectation(self):
        # the expected rate is the mean retention probability over realized y
        pop = generate_population(CFG, 20000, seed=8)
        data = apply_missingness(CFG, pop, seed=8)
        p_miss_x = float(np.mean(1 - std_normal_cdf(2 - pop.y)))
        p_miss_z = float(np.mean(1 - std_normal_cdf(4 * pop.y - 1)))
        n = len(pop)
        for observed, expected in (
            (1 - np.mean(data.m_x), p_miss_x),
            (1 - np.mean(data.m_z), p_miss_z),
        ):
            tol = 3 * np.sqrt(expected * (1 - expected) / n)
            assert float(observed) == pytest.approx(expected, abs=tol)

    def test_quadrature_rates_match_population_draw(self):
        # the oracle behind acceptance criterion 1, checked against the mean
        # hiding probability over a large draw of y from the simulator
        rates = missingness_rates_quadrature(CFG)
        # the default config's rates; doubling the nodes moves them by < 1e-11
        assert rates == pytest.approx((0.080491, 0.130836, 0.007796), abs=1e-6)
        pop = generate_population(CFG, 10**6, seed=21)
        hide_x = 1 - std_normal_cdf(2 - pop.y)
        hide_z = 1 - std_normal_cdf(4 * pop.y - 1)
        for sample, expected in zip((hide_x, hide_z, hide_x * hide_z), rates):
            se = float(np.std(sample)) / np.sqrt(len(sample))
            assert float(np.mean(sample)) == pytest.approx(expected, abs=4 * se)

    def test_y_always_observed_and_masked_cells_hidden(self):
        pop = generate_population(CFG, 2000, seed=3)
        data = apply_missingness(CFG, pop, seed=3)
        assert np.all(np.isfinite(data.y_star))
        assert np.all(np.isnan(data.x_star[~data.m_x]))
        assert np.all(np.isnan(data.z_star[~data.m_z]))
        # observed cells agree with the latent truth
        assert np.array_equal(data.x_star[data.m_x], pop.x[data.m_x])
        assert np.array_equal(data.z_star[data.m_z], pop.z[data.m_z])

    def test_reproducible(self):
        pop = generate_population(CFG, 1000, seed=6)
        a = apply_missingness(CFG, pop, seed=6)
        b = apply_missingness(CFG, pop, seed=6)
        assert np.array_equal(a.m_x, b.m_x) and np.array_equal(a.m_z, b.m_z)

    def test_rejects_empty(self):
        empty = Population(u=np.array([]), x=np.array([]), z=np.array([]), y=np.array([]))
        with pytest.raises(FrontdoorLabError, match="^population must be nonempty$"):
            apply_missingness(CFG, empty, seed=1)


class TestPopulation:
    @pytest.mark.parametrize(
        "column, message",
        [
            ({"x": ["a"]}, "column x must be a vector of numbers, got dtype <U1"),
            ({"u": [np.inf]}, "column u must hold only finite values"),
            ({"z": [np.nan]}, "column z must hold only finite values"),
            ({"y": [0.0, 1.0]}, "column y must be of length 1"),
        ],
        ids=["text", "inf", "nan", "length"],
    )
    def test_column_its_reader_would_refuse_rejected(self, column, message):
        columns = {"u": [0.0], "x": [0.0], "z": [0.0], "y": [0.0], **column}
        with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
            Population(**columns)

    def test_columns_kept_as_read_only_copies(self, tmp_path):
        # a NaN put into the caller's x after construction must not reach the
        # file, which population_from_csv would refuse at line 2
        columns = {name: np.arange(3.0) for name in ("u", "x", "z", "y")}
        pop = Population(**columns)
        columns["x"][0] = np.nan
        path = tmp_path / "population.csv"
        population_to_csv(pop, path)
        assert np.array_equal(population_from_csv(path).x, np.arange(3.0))
        for name, column in columns.items():
            assert getattr(pop, name) is not column and not getattr(pop, name).flags.writeable


class TestScmConfigValidation:
    def test_sigma_positive(self):
        with pytest.raises(FrontdoorLabError):
            ScmConfig(sigma_z=0.0)

    def test_range_ordering(self):
        message = "^x_prime_low must be below x_prime_high, with a finite width$"
        for low, high in [(2.0, -2.0), (1.0, 1.0), (-1e308, 1e308)]:
            with pytest.raises(FrontdoorLabError, match=message):
                ScmConfig(x_prime_low=low, x_prime_high=high)

    @pytest.mark.parametrize(
        "name, value",
        [("sigma_z", "0.1"), ("sigma_z", None), ("sigma_z", True), ("y_shift", [0.5])],
        ids=["str", "none", "bool", "list"],
    )
    def test_rejects_a_value_that_is_not_a_number(self, name, value):
        with pytest.raises(FrontdoorLabError, match=f"^{name} must be a number, got "):
            ScmConfig(**{name: value})

    @pytest.mark.parametrize(
        "value, shown",
        [(float("inf"), "inf"), (float("nan"), "nan"), (10**400, "an int past the float range"),
         (-(10**5000), "an int past the float range")],
        ids=["inf", "nan", "huge_int", "huge_negative_int"],
    )
    def test_rejects_a_value_that_is_not_finite(self, value, shown):
        with pytest.raises(FrontdoorLabError, match=f"^sigma_z must be finite, got {shown}$"):
            ScmConfig(sigma_z=value)


class TestIntSettings:
    # each simulator entry point, called with a population size and a seed
    ENTRY_POINTS = {
        "generate_population": lambda n, seed: generate_population(CFG, n, seed),
        "apply_missingness": lambda n, seed: apply_missingness(
            CFG, generate_population(CFG, n, 1), seed
        ),
        "intervene_generate": lambda n, seed: intervene_generate(CFG, 0.0, n, seed),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("seed", [1.5, np.int64(3), True], ids=["float", "int64", "bool"])
    def test_seed_must_be_an_int(self, entry, seed):
        message = re.escape(f"seed must be int, got {seed!r}")
        with pytest.raises(FrontdoorLabError, match=f"^{message}$"):
            self.ENTRY_POINTS[entry](10, seed)

    @pytest.mark.parametrize("entry", ["generate_population", "intervene_generate"])
    @pytest.mark.parametrize(
        "n, message",
        [(2.5, "n must be int, got 2.5"), (True, "n must be int, got True"),
         (-3, "n must be >= 1, got -3")],
        ids=["float", "bool", "negative"],
    )
    def test_count_must_be_a_positive_int(self, entry, n, message):
        with pytest.raises(FrontdoorLabError, match=f"^{message}$"):
            self.ENTRY_POINTS[entry](n, 1)

    def test_negative_seed_is_accepted(self):
        assert len(generate_population(CFG, 5, -7)) == 5


class TestDataset:
    def test_masked_cell_returns_none(self):
        data = Dataset(
            x_star=np.array([1.0, np.nan]),
            z_star=np.array([3.0, 4.0]),
            y_star=np.array([5.0, 6.0]),
        )
        assert data.m_x.tolist() == [True, False]
        assert data.complete_mask().tolist() == [True, False]

    def test_masks_are_read_off_the_columns(self):
        x = np.array([1.0, np.nan, 3.0])
        data = Dataset(x_star=x, z_star=x[::-1], y_star=np.zeros(3))
        assert np.array_equal(data.m_x, ~np.isnan(data.x_star))
        assert np.array_equal(data.m_z, ~np.isnan(data.z_star))
        with pytest.raises(FrozenInstanceError):
            data.m_x = np.ones(3, dtype=bool)
        with pytest.raises(ValueError):
            data.m_z[0] = False
        with pytest.raises(TypeError):
            Dataset(x_star=x, z_star=x, y_star=np.zeros(3), m_x=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("column", ["x_star", "z_star", "y_star"])
    def test_infinite_cell_rejected(self, column):
        columns = {name: np.zeros(2) for name in ("x_star", "z_star", "y_star")}
        columns[column] = np.array([0.0, -np.inf])
        with pytest.raises(FrontdoorLabError, match="infinite"):
            Dataset(**columns)

    def test_y_must_be_complete(self):
        with pytest.raises(FrontdoorLabError):
            Dataset(
                x_star=np.array([1.0]),
                z_star=np.array([1.0]),
                y_star=np.array([np.nan]),
            )

    def test_columns_are_immutable(self):
        data = Dataset(
            x_star=np.array([1.0]),
            z_star=np.array([1.0]),
            y_star=np.array([1.0]),
        )
        with pytest.raises(ValueError):
            data.x_star[0] = 9.0

    @pytest.mark.parametrize("column", ["x_star", "z_star", "y_star"])
    def test_text_cells_rejected(self, column):
        columns = {name: [1.0] for name in ("x_star", "z_star", "y_star")}
        columns[column] = ["a"]
        message = f"^column {column} must be a vector of numbers, got dtype <U1$"
        with pytest.raises(FrontdoorLabError, match=message):
            Dataset(**columns)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FrontdoorLabError):
            Dataset(
                x_star=np.array([1.0, 2.0]),
                z_star=np.array([1.0]),
                y_star=np.array([1.0]),
            )


class TestCsvRoundTrips:
    def test_dataset_round_trip(self, tmp_path):
        pop = generate_population(CFG, 500, seed=12)
        data = apply_missingness(CFG, pop, seed=12)
        path = tmp_path / "observed.csv"
        dataset_to_csv(data, path)
        text = path.read_text()
        assert text.splitlines()[0] == "x,z,y"
        assert "NA" in text
        back = dataset_from_csv(path)
        assert np.array_equal(back.m_x, data.m_x)
        assert np.array_equal(back.m_z, data.m_z)
        assert np.array_equal(back.y_star, data.y_star)
        assert np.array_equal(back.x_star[back.m_x], data.x_star[data.m_x])

    def test_population_round_trip(self, tmp_path):
        pop = generate_population(CFG, 100, seed=1)
        path = tmp_path / "population.csv"
        population_to_csv(pop, path)
        back = population_from_csv(path)
        for name in ("u", "x", "z", "y"):
            assert np.array_equal(getattr(back, name), getattr(pop, name))

    def test_csv_write_is_deterministic(self, tmp_path):
        pop = generate_population(CFG, 50, seed=2)
        data = apply_missingness(CFG, pop, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset_to_csv(data, p1)
        dataset_to_csv(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_writers_match_csv_module(self, tmp_path):
        # the format the tables had when each writer ran its own csv.writer
        # loop: repr cells, NA for a masked cell, CRLF line ends
        edge = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e16])
        observed = np.array([True, False, True, False])

        def reference(header, rows):
            path = tmp_path / "reference.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
            return path.read_bytes()

        def cell(value, seen=True):
            return repr(float(value)) if seen else "NA"

        data = Dataset(
            x_star=np.where(observed, edge, np.nan),
            z_star=np.where(~observed, edge[::-1], np.nan),
            y_star=edge,
        )
        dataset_to_csv(data, tmp_path / "observed.csv")
        assert (tmp_path / "observed.csv").read_bytes() == reference(
            ["x", "z", "y"],
            [
                [cell(x, mx), cell(z, mz), cell(y)]
                for x, z, y, mx, mz in zip(edge, edge[::-1], edge, observed, ~observed)
            ],
        )

        pop = Population(u=edge, x=edge[::-1], z=-edge, y=edge + 1.0)
        population_to_csv(pop, tmp_path / "population.csv")
        assert (tmp_path / "population.csv").read_bytes() == reference(
            ["u", "x", "z", "y"],
            [[cell(v) for v in row] for row in zip(pop.u, pop.x, pop.z, pop.y)],
        )

        per = np.vstack([edge, 3.0 * edge])
        mi = EffectEstimate(
            grid=edge, per_imputation_ace=per, pooled_ace=per.mean(axis=0),
            q05=edge - 1.0, q95=edge + 1.0,
        )
        cc = EffectEstimate(
            grid=edge, per_imputation_ace=-edge[None, :], pooled_ace=-edge,
            q05=-edge - 2.0, q95=-edge + 2.0,
        )
        oracle = edge[::-1]
        effect_to_csv(mi, cc, oracle, tmp_path / "effects.csv")
        header = "x,oracle_ace,mi_pooled_ace,mi_ace_1,mi_ace_2,mi_q05,mi_q95,cc_ace,cc_q05,cc_q95"
        columns = (
            edge, oracle, per.mean(axis=0), edge, 3.0 * edge, edge - 1.0, edge + 1.0,
            -edge, -edge - 2.0, -edge + 2.0,
        )
        assert (tmp_path / "effects.csv").read_bytes() == reference(
            header.split(","), [[cell(v) for v in row] for row in zip(*columns)]
        )


class TestDatasetsToCsv:
    """Datasets written together by ``datasets_to_csv`` reuse the first one's
    row text; each file must hold the bytes its dataset gives alone."""

    FIRST = Dataset(
        x_star=np.array([0.0, np.nan, 1.5, -2.25]),
        z_star=np.array([1.0, 2.0, np.nan, 0.1 + 0.2]),
        y_star=np.array([3.0, -0.0, 5e-324, 1e16]),
    )

    @staticmethod
    def reference(data: Dataset) -> bytes:
        """The table written cell by cell, as the csv module would."""
        def cell(value):
            return "NA" if np.isnan(value) else repr(float(value))

        rows = zip(data.x_star, data.z_star, data.y_star)
        body = "".join(",".join(map(cell, row)) + "\r\n" for row in rows)
        return ("x,z,y\r\n" + body).encode()

    def variants(self):
        first = self.FIRST
        x, z, y = (np.array(column) for column in (first.x_star, first.z_star, first.y_star))
        signed_zero = Dataset(x_star=np.where(x == 0.0, -0.0, x), z_star=z, y_star=y)
        y_zero = y.copy()
        y_zero[1] = 0.0  # -0.0 in the first dataset
        filled = Dataset(x_star=np.where(np.isnan(x), 0.5, x), z_star=z, y_star=y_zero)
        moved_na = Dataset(x_star=x, z_star=np.where(np.isnan(z), 7.0, np.nan), y_star=y)
        shorter = Dataset(x_star=x[:2], z_star=z[:2], y_star=y[:2])
        longer = Dataset(
            x_star=np.append(x, [np.nan, 4.0]),
            z_star=np.append(z, [1.0, np.nan]),
            y_star=np.append(y, [0.0, -0.0]),
        )
        return [first, signed_zero, filled, moved_na, shorter, longer, first]

    def test_each_file_holds_its_datasets_own_bytes(self, tmp_path):
        datasets = self.variants()
        paths = [tmp_path / f"copy_{i}.csv" for i in range(len(datasets))]
        datasets_to_csv(datasets, paths)
        for data, path in zip(datasets, paths):
            dataset_to_csv(data, tmp_path / "alone.csv")
            assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()
            assert path.read_bytes() == self.reference(data)

    def test_signed_zero_row_is_reformatted(self, tmp_path):
        datasets = self.variants()[:2]
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        datasets_to_csv(datasets, paths)
        assert paths[0].read_text().splitlines()[1] == "0.0,1.0,3.0"
        assert paths[1].read_text().splitlines()[1] == "-0.0,1.0,3.0"

    def test_single_dataset(self, tmp_path):
        datasets_to_csv([self.FIRST], [tmp_path / "one.csv"])
        assert (tmp_path / "one.csv").read_bytes() == self.reference(self.FIRST)
