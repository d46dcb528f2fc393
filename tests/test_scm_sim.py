import numpy as np
import pytest

from frontdoor_lab.dataset import Dataset, dataset_from_csv, dataset_to_csv
from frontdoor_lab.errors import FrontdoorLabError, InvalidCount
from frontdoor_lab.scm_sim import (
    Population,
    ScmConfig,
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    population_from_csv,
    population_to_csv,
    std_normal_cdf,
    std_normal_pdf,
)

from oracles import missingness_rates_quadrature, normal_cdf_series, trapezoid_integral

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


class TestGeneratePopulation:
    def test_rejects_bad_count(self):
        with pytest.raises(InvalidCount):
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
        with pytest.raises(InvalidCount):
            intervene_generate(CFG, 0.0, 0, seed=1)


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

    def test_vectorized(self):
        xs = np.linspace(-2, 2, 5)
        curve = oracle_ace(CFG, xs)
        assert curve.shape == (5,)
        assert curve[2] == pytest.approx(oracle_ace(CFG, 0.0))


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
        with pytest.raises(InvalidCount):
            apply_missingness(CFG, empty, seed=1)


class TestScmConfigValidation:
    def test_sigma_positive(self):
        with pytest.raises(FrontdoorLabError):
            ScmConfig(sigma_z=0.0)

    def test_range_ordering(self):
        with pytest.raises(FrontdoorLabError):
            ScmConfig(x_prime_range=(2.0, -2.0))


class TestDataset:
    def test_masked_cell_returns_none(self):
        data = Dataset(
            x_star=np.array([1.0, 2.0]),
            z_star=np.array([3.0, 4.0]),
            y_star=np.array([5.0, 6.0]),
            m_x=np.array([True, False]),
            m_z=np.array([True, True]),
        )
        assert data.x_value(0) == 1.0
        assert data.x_value(1) is None
        assert np.isnan(data.x_star[1])  # true value physically absent
        assert data.observed_x().tolist() == [1.0]
        assert data.complete_mask().tolist() == [True, False]

    def test_y_must_be_complete(self):
        with pytest.raises(FrontdoorLabError):
            Dataset(
                x_star=np.array([1.0]),
                z_star=np.array([1.0]),
                y_star=np.array([np.nan]),
                m_x=np.array([True]),
                m_z=np.array([True]),
            )

    def test_columns_are_immutable(self):
        data = Dataset(
            x_star=np.array([1.0]),
            z_star=np.array([1.0]),
            y_star=np.array([1.0]),
            m_x=np.array([True]),
            m_z=np.array([True]),
        )
        with pytest.raises(ValueError):
            data.x_star[0] = 9.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(FrontdoorLabError):
            Dataset(
                x_star=np.array([1.0, 2.0]),
                z_star=np.array([1.0]),
                y_star=np.array([1.0]),
                m_x=np.array([True]),
                m_z=np.array([True]),
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
