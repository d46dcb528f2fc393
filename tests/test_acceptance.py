"""Acceptance suite: every shipping criterion at desk scale.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  Statistical criteria run at n = 20000 rows with m = 10
imputations from the canonical root seed; the oracle self-check (criterion 8)
gates the estimator criteria.

Criterion 1 checks the missingness rates measured over five seeds against
the rates the required masking equations imply for the config under test,
computed by quadrature in ``oracles.missingness_rates_quadrature`` (8.05 /
13.08 / 0.78 % for treatment / mediator / both at the defaults), within four
binomial standard errors.  The paper's reported 6 / 26 / 1.5 % cannot be
reached from those equations and is printed for reference only.
"""

import itertools

import numpy as np
import pytest

from frontdoor_lab.causal_graph import (
    Dag,
    frontdoor_dag,
    frontdoor_design_dag,
    frontdoor_identifiable,
    mar_holds,
)
from frontdoor_lab.frontdoor_estimator import complete_case_effect, estimate_effect
from frontdoor_lab.mi_engine import run_mice
from frontdoor_lab.scm_sim import (
    ScmConfig,
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    oracle_quantiles,
)
from frontdoor_lab.spline_smooth import LAMBDA_GRID, build_basis, fit_penalized

from oracles import d_separated_bruteforce, missingness_rates_quadrature, random_dag
from frontdoor_lab.causal_graph import d_separated

DESK_N = 20000
DESK_M = 10
ROOT_SEED = 1  # canonical acceptance seed = the package default
SCM = ScmConfig()


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})")


@pytest.fixture(scope="module")
def oracle_gate():
    """Criterion 8, run first: the closed-form mean must match Monte Carlo.

    Gates criteria 2-5; they are meaningless if the oracle itself is wrong.
    """
    grid = np.linspace(-3.0, 3.0, 41)
    worst = 0.0
    for j, x in enumerate(grid):
        draws = intervene_generate(SCM, float(x), 10**6, seed=9000 + j)
        se = float(np.std(draws)) / np.sqrt(len(draws))
        gap = abs(float(np.mean(draws)) - oracle_ace(SCM, float(x)))
        worst = max(worst, gap / se)
    passed = worst < 3.0
    report(8, "oracle self-check", passed, f"worst |gap|/se = {worst:.2f} over 41 points")
    assert passed, "closed-form oracle disagrees with Monte Carlo"
    return worst


@pytest.fixture(scope="module")
def desk_run(oracle_gate):
    """One full pipeline run at desk scale from the canonical seed."""
    grid = np.append(np.linspace(-2.0, 2.0, 21), 3.0)
    population = generate_population(SCM, DESK_N, seed=ROOT_SEED)
    data = apply_missingness(SCM, population, seed=ROOT_SEED)
    completed = run_mice(data, m=DESK_M, cycles=10, donors=5, seed=ROOT_SEED)
    assert completed.nonconverged_fits == 0
    converged = []  # one flag per outcome fit, as estimate counts them

    def on_pair(pair):
        converged.append(pair.outcome.converged)

    mi = estimate_effect(completed, grid, seed=ROOT_SEED, on_pair=on_pair)
    cc = complete_case_effect(data, grid, seed=ROOT_SEED, on_pair=on_pair)
    assert converged.count(False) == 0
    return {
        "grid": grid,
        "inner": slice(0, 21),
        "oracle": oracle_ace(SCM, grid),
        "mi": mi,
        "cc": cc,
    }


def test_criterion_8_oracle_self_check(oracle_gate):
    assert oracle_gate < 3.0


def test_criterion_1_missingness_rates():
    rates = []
    for k in range(5):
        population = generate_population(SCM, DESK_N, seed=2000 + k)
        data = apply_missingness(SCM, population, seed=2000 + k)
        rates.append(
            (
                float(np.mean(~data.m_x)),
                float(np.mean(~data.m_z)),
                float(np.mean(~data.m_x & ~data.m_z)),
            )
        )
    x_rate, z_rate, both_rate = (float(np.mean(col)) for col in zip(*rates))
    # the rates the masking equations imply; pooled rows are i.i.d., so each
    # measured rate has binomial standard error sqrt(p (1 - p) / rows)
    rows = 5 * DESK_N
    checks = []
    for name, measured, expected in zip(
        ("x", "z", "both"), (x_rate, z_rate, both_rate), missingness_rates_quadrature(SCM)
    ):
        tol = 4.0 * np.sqrt(expected * (1.0 - expected) / rows)
        checks.append((name, measured, expected, tol, abs(measured - expected) <= tol))
    passed = all(ok for *_, ok in checks)
    report(
        1,
        "missingness rates",
        passed,
        ", ".join(
            f"{name}={measured:.4f} (mechanism {expected:.4f}±{tol:.4f})"
            for name, measured, expected, tol, _ in checks
        )
        + ", 5-seed average; paper reports 0.06/0.26/0.015",
    )
    for name, measured, expected, tol, ok in checks:
        assert ok, f"{name} missingness {measured:.4f} outside {expected:.4f}±{tol:.4f}"


def test_criterion_2_extrapolation_point(desk_run):
    j = len(desk_run["grid"]) - 1
    assert desk_run["grid"][j] == 3.0
    gap = float(desk_run["mi"].pooled_ace[j] - desk_run["oracle"][j])
    passed = abs(gap) <= 0.06
    report(
        2,
        "pooled estimate at x=3",
        passed,
        f"estimate {desk_run['mi'].pooled_ace[j]:.4f} vs oracle "
        f"{desk_run['oracle'][j]:.4f}, error {gap:+.4f} (tol ±0.06)",
    )
    assert passed


def test_criterion_3_bias_free_region(desk_run):
    inner = desk_run["inner"]
    errors = desk_run["mi"].pooled_ace[inner] - desk_run["oracle"][inner]
    max_abs = float(np.max(np.abs(errors)))
    mean_abs = float(np.mean(np.abs(errors)))
    passed = max_abs < 0.05 and mean_abs < 0.03
    report(
        3,
        "bias-free region [-2, 2]",
        passed,
        f"max |err| = {max_abs:.4f} (tol 0.05), mean |err| = {mean_abs:.4f} (tol 0.03)",
    )
    assert max_abs < 0.05
    assert mean_abs < 0.03


def test_criterion_4_complete_case_bias(desk_run):
    inner = desk_run["inner"]
    cc_errors = desk_run["cc"].pooled_ace[inner] - desk_run["oracle"][inner]
    mi_errors = desk_run["mi"].pooled_ace[inner] - desk_run["oracle"][inner]
    cc_signed = float(np.mean(cc_errors))
    mi_mean_abs = float(np.mean(np.abs(mi_errors)))
    positive = cc_signed > 0
    dominates = cc_signed > 2.0 * mi_mean_abs
    report(
        4,
        "complete-case bias",
        positive and dominates,
        f"cc mean signed = {cc_signed:+.4f}, mi mean |err| = {mi_mean_abs:.4f}, "
        f"ratio = {cc_signed / mi_mean_abs:.2f} (needs > 2)",
    )
    assert positive, "complete-case analysis should over-estimate"
    assert dominates, (
        f"complete-case signed error {cc_signed:.4f} does not exceed twice the "
        f"imputation mean absolute error {mi_mean_abs:.4f}"
    )


def test_criterion_5_quantile_bands(desk_run):
    grid = desk_run["grid"]
    worst = 0.0
    details = []
    for x in (-1.0, 0.0, 1.0):
        j = int(np.argmin(np.abs(grid - x)))
        t05, t95 = oracle_quantiles(SCM, x, (0.05, 0.95))
        e05 = float(desk_run["mi"].q05[j]) - t05
        e95 = float(desk_run["mi"].q95[j]) - t95
        worst = max(worst, abs(e05), abs(e95))
        details.append(f"x={x:+.0f}: q05 err {e05:+.4f}, q95 err {e95:+.4f}")
    passed = worst <= 0.06
    report(5, "interventional quantile bands", passed,
           "; ".join(details) + f"; worst {worst:.4f} (tol 0.06)")
    assert passed


def test_criterion_6_identifiability_suite():
    base = frontdoor_dag()
    confounded = Dag(
        [("U", "latent"), ("X", "observed"), ("Z", "observed"), ("Y", "observed")],
        [("U", "X"), ("U", "Y"), ("U", "Z"), ("X", "Z"), ("Z", "Y")],
    )
    design = frontdoor_design_dag()
    ok = (
        frontdoor_identifiable(base, "X") is True
        and frontdoor_identifiable(confounded, "X") is False
        and mar_holds(design, "X", "M_X", {"Y"}) is True
        and mar_holds(design, "Z", "M_Z", {"Y"}) is True
        and mar_holds(design, "X", "M_X", set()) is False
        and mar_holds(design, "Z", "M_Z", set()) is False
    )
    report(6, "identifiability suite", ok,
           "frontdoor criterion and MAR verdicts on both bundled graphs")
    assert ok


def test_criterion_7_property_suites():
    # (a) separation queries against the path-enumeration oracle
    rng = np.random.default_rng(77)
    graphs = 0
    queries = 0
    for i in range(520):
        n_nodes = 2 + i % 5
        g = random_dag(
            rng, n_nodes, p_edge=float(rng.uniform(0.15, 0.75)), p_latent=0.3
        )
        graphs += 1
        names = sorted(g.node_names)
        for a, b in itertools.permutations(names, 2):
            conditioning = [set()] + [{c} for c in names if c not in (a, b)]
            for cond in conditioning:
                assert d_separated(g, {a}, {b}, cond) == d_separated_bruteforce(
                    g, {a}, {b}, cond
                ), (g, a, b, cond)
                queries += 1
    assert graphs >= 500

    # (b) spline penalty null space and the heavy-penalty limit
    rng = np.random.default_rng(78)
    x = rng.uniform(-2, 2, 600)
    basis = build_basis(x, 15)
    affine = 1.3 - 0.8 * x
    null_worst = max(
        float(np.max(np.abs(fit_penalized(affine, x, basis, lam).residuals)))
        for lam in [*LAMBDA_GRID, 1e12]
    )
    assert null_worst <= 1e-8
    noisy = affine + rng.standard_normal(600)
    heavy = fit_penalized(noisy, x, basis, 1e12)
    slope, intercept = np.polyfit(x, noisy, 1)
    ols_gap = float(np.max(np.abs((noisy - heavy.residuals) - (intercept + slope * x))))
    assert ols_gap <= 1e-6

    # (c) imputation invariants: support membership, observed cells
    #     untouched, bit-identical reruns
    population = generate_population(SCM, 2500, seed=79)
    data = apply_missingness(SCM, population, seed=79)
    first = run_mice(data, m=3, cycles=4, seed=80)
    second = run_mice(data, m=3, cycles=4, seed=80)
    assert first.nonconverged_fits == second.nonconverged_fits == 0
    magnitude_pool = set(np.abs(data.x_star[data.m_x]).tolist())
    z_pool = set(data.z_star[data.m_z].tolist())
    for one, two in zip(first.completed, second.completed):
        assert np.array_equal(one.x_star, two.x_star)
        assert np.array_equal(one.z_star, two.z_star)
        assert np.array_equal(one.x_star[data.m_x], data.x_star[data.m_x])
        assert np.array_equal(one.z_star[data.m_z], data.z_star[data.m_z])
        assert all(abs(v) in magnitude_pool for v in one.x_star[~data.m_x].tolist())
        assert all(v in z_pool for v in one.z_star[~data.m_z].tolist())

    report(
        7,
        "property suites",
        True,
        f"{graphs} graphs / {queries} separation queries vs oracle; spline null "
        f"space {null_worst:.1e} <= 1e-8; heavy-penalty OLS gap {ols_gap:.1e} <= 1e-6; "
        "imputation support/determinism checks",
    )
