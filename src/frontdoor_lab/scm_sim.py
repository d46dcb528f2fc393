"""Simulator for a nonlinear mediation model with outcome-dependent missingness.

The generative mechanism, with ``phi`` the standard normal density and all
noise terms independent::

    U  ~ N(0, 1)
    X' ~ Uniform(x_prime_low, x_prime_high)
    X  = X' + U
    Z  = z_amplitude * phi(X) + eps_Z,   eps_Z ~ N(0, sigma_z^2)
    Y  = phi(Z - y_shift) + y_linear * Z + u_coef * U

Recorded copies of X and Z are masked by indicators drawn per row from the
realized outcome: M_X ~ Bernoulli(Phi(a_x + b_x * y)) and
M_Z ~ Bernoulli(Phi(a_z + b_z * y)) with indicator 1 meaning observed; Y is
always recorded.

The module also provides the interventional ground truth used to benchmark
the estimators: Monte Carlo draws of Y under do(X = x), the closed-form mean
response and the quantiles of Y by quadrature over the mediator noise.  Phi
comes from the standard library's ``math.erfc`` and Phi^-1 from
``statistics.NormalDist``.
Generation is a pure function of (config, n, seed); normal variates come from
numpy's Generator (ziggurat sampling) with the draw order frozen, so
identical inputs reproduce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .dataset import Dataset, read_table, write_table
from .errors import FrontdoorLabError, check_int, check_numbers, check_real, check_vector

_TWO_PI = 2.0 * np.pi

# substream tags so the per-purpose generators never overlap
_STREAM_POPULATION = 11
_STREAM_MISSINGNESS = 13
_STREAM_INTERVENTION = 17

# oracle_quantiles: equal-probability strata of the mediator noise, and the
# cap on bracketed Newton steps per quantile (bisection alone needs about 50)
_QUANTILE_STRATA = 2048
_NEWTON_MAX_STEPS = 100

POPULATION_HEADER = ["u", "x", "z", "y"]

_STANDARD_NORMAL = NormalDist()


def _rng(seed: int, stream: int) -> np.random.Generator:
    check_int("seed", seed)
    return np.random.default_rng([seed % 2**63, stream])


@dataclass(frozen=True)
class ScmConfig:
    """Parameters of the structural mechanism and the missingness model."""

    sigma_z: float = 0.1
    z_amplitude: float = 4.0
    y_shift: float = 0.5
    y_linear: float = 0.3
    u_coef: float = -0.1
    x_prime_low: float = -2.0
    x_prime_high: float = 2.0
    miss_x_a: float = 2.0
    miss_x_b: float = -1.0
    miss_z_a: float = -1.0
    miss_z_b: float = 4.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            # not isinstance: True is an int
            if type(value) not in (int, float):
                raise FrontdoorLabError(f"{field.name} must be a number, got {value!r}")
            check_real(field.name, value)
        if not self.sigma_z > 0:
            raise FrontdoorLabError("sigma_z must be positive")
        low, high = self.x_prime_low, self.x_prime_high
        # a width past the float range is what Generator.uniform cannot draw from
        if not (low < high and math.isfinite(float(high) - float(low))):
            raise FrontdoorLabError("x_prime_low must be below x_prime_high, with a finite width")


@dataclass(frozen=True, eq=False)
class Population:
    """Latent population draws (u, x, z, y), stored columnwise."""

    u: np.ndarray
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # what population_to_csv writes, population_from_csv reads back; each
        # column a read-only copy, so no later edit of the caller's array
        # reaches the file
        for name in POPULATION_HEADER:
            column = np.array(check_vector(f"column {name}", getattr(self, name)))
            if len(column) != len(self.u):
                raise FrontdoorLabError(f"column {name} must be of length {len(self.u)}")
            if not np.isfinite(column).all():
                raise FrontdoorLabError(f"column {name} must hold only finite values")
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.u)


def std_normal_pdf(x):
    """Standard normal density (1/sqrt(2 pi)) exp(-x^2/2); accepts arrays."""
    x = check_numbers("x", x)
    # past |x| ~ 1.3e154 the square overflows to inf, and exp gives the exact 0.0
    with np.errstate(over="ignore"):
        out = np.exp(-0.5 * x * x) / np.sqrt(_TWO_PI)
    return float(out) if out.ndim == 0 else out

def std_normal_cdf(x):
    """Standard normal CDF Phi(x), from ``_normal_cdf`` like every Phi here.

    It is 0.0, 1.0 and NaN at -inf, +inf and NaN, and takes any finite input
    without a warning.  The tests hold it to Phi correctly rounded from
    decimal arithmetic over [-37.5, 8]: within 2.3e-16 absolute, and within
    2.5e-13 relative wherever Phi exceeds 1e-300, the lower tail included.
    The relative error grows with x^2, as erfc's exp(-x^2/2) amplifies the
    rounding of x sqrt(1/2); it is largest near x = -37.
    """
    x = check_numbers("x", x)
    out = _normal_cdf(x)
    return float(out) if out.ndim == 0 else out


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi at every element of the float array x, as erfc(-x sqrt(1/2)) / 2
    with the standard library's ``math.erfc``, one element at a time."""
    t = np.ravel(x) * -math.sqrt(0.5)
    out = np.fromiter(map(math.erfc, t.tolist()), float, t.size).reshape(np.shape(x))
    out *= 0.5
    return out


def generate_population(cfg: ScmConfig, n: int, seed: int) -> Population:
    """Draw n i.i.d. rows from the structural mechanism.

    Draw order is frozen: U, then X', then eps_Z, each as one block.  Raises
    FrontdoorLabError when the parameters push Z or Y past the float range.
    """
    check_int("n", n, 1)
    rng = _rng(seed, _STREAM_POPULATION)
    u = rng.standard_normal(n)
    x_prime = rng.uniform(cfg.x_prime_low, cfg.x_prime_high, n)
    # z and y are checked below; a huge x is exact, its density underflows to 0
    with np.errstate(over="ignore", invalid="ignore"):
        eps_z = cfg.sigma_z * rng.standard_normal(n)
        x = x_prime + u
        z = cfg.z_amplitude * std_normal_pdf(x) + eps_z
        y = std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z + cfg.u_coef * u
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise FrontdoorLabError("the mechanism overflows the float range: z or y is not finite")
    return Population(u=u, x=x, z=z, y=y)


def intervene_generate(cfg: ScmConfig, x: float, n: int, seed: int) -> np.ndarray:
    """Monte Carlo draws of Y under do(X = x).

    Setting X severs its dependence on U and X'; Z and Y keep their own
    mechanisms.  This is the sampling oracle for the interventional
    distribution of Y.  ``x`` must be a finite number (``check_real``).
    """
    x = check_real("x", x)
    check_int("n", n, 1)
    rng = _rng(seed, _STREAM_INTERVENTION)
    u = rng.standard_normal(n)
    eps_z = cfg.sigma_z * rng.standard_normal(n)
    z = cfg.z_amplitude * std_normal_pdf(x) + eps_z
    return std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z + cfg.u_coef * u


def oracle_ace(cfg: ScmConfig, x):
    """Exact mean of Y under do(X = x).

    With m = z_amplitude * phi(x), Z is N(m, sigma_z^2) under the
    intervention, and the Gaussian convolution identity
    E phi(Z - s) = N(s; m, 1 + sigma_z^2) gives

        E(Y | do(x)) = exp(-(m - s)^2 / (2 v)) / sqrt(2 pi v) + y_linear * m

    with s = y_shift and v = 1 + sigma_z^2; the confounder term has mean
    zero.  Accepts a number or an array of numbers (``check_numbers``).
    """
    m = cfg.z_amplitude * std_normal_pdf(x)
    v = 1.0 + cfg.sigma_z**2
    bump = np.exp(-((m - cfg.y_shift) ** 2) / (2.0 * v)) / np.sqrt(_TWO_PI * v)
    out = np.asarray(bump + cfg.y_linear * m)
    return float(out) if out.ndim == 0 else out


def oracle_quantiles(cfg: ScmConfig, x, probs) -> np.ndarray:
    """Exact quantiles of Y under do(X = x) at the probabilities ``probs``.

    Given Z, Y is normal with mean h(Z) = phi(Z - y_shift) + y_linear * Z and
    sd |u_coef|, so its CDF is F(y) = E Phi((y - h(Z)) / |u_coef|) with
    Z ~ N(z_amplitude * phi(x), sigma_z^2).  The expectation is a mean over
    equal-probability strata of Z, each represented by its midpoint
    Phi^-1((k + 1/2) / K), with Phi^-1 from ``statistics.NormalDist`` and Phi
    from ``math.erfc`` (``_normal_cdf``).  F(y) = p is solved by Newton steps
    kept inside the bracket [min h, max h] + |u_coef| Phi^-1(p), starting from
    the quantile of the moment-matched normal.  With u_coef = 0, F is a step
    function and the quantile interpolates the sorted h values between the
    strata midpoints.

    Over 161 points on [-3, 3] and the probabilities 0.05, 0.25, ..., 0.95,
    the result is within 9.0e-6 of the same rule with 16 times the strata at
    the default mechanism, 1.8e-5 at sigma_z = 0.5 and 8.7e-8 at u_coef = 0.
    When |u_coef| is nonzero but far below the gap between neighbouring h
    values, F is nearly a staircase and the error grows towards that gap
    (3.3e-4 at sigma_z = 2, u_coef = 1e-4).

    Returns an array of shape ``shape(x) + shape(probs)``; ``x`` and
    ``probs`` are numbers or arrays of numbers (``check_numbers``), and each
    probability must lie in (0, 1).
    """
    probs = check_numbers("probs", probs)
    if not np.all((probs > 0) & (probs < 1)):
        raise FrontdoorLabError(f"probabilities must lie in (0, 1), got {probs}")
    xs = check_numbers("x", x)
    midpoints = (np.arange(_QUANTILE_STRATA) + 0.5) / _QUANTILE_STRATA
    noise = cfg.sigma_z * np.array([_STANDARD_NORMAL.inv_cdf(p) for p in midpoints.tolist()])
    scale = abs(cfg.u_coef)
    out = np.empty(xs.shape + probs.shape)
    for index in np.ndindex(xs.shape):
        z = cfg.z_amplitude * std_normal_pdf(xs[index]) + noise
        h = np.sort(std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z)
        if scale == 0:
            out[index] = np.interp(probs, midpoints, h)
        else:
            out[index] = [_normal_mixture_quantile(h, scale, p) for p in probs]
    return out


def _normal_mixture_quantile(h: np.ndarray, scale: float, p: float) -> float:
    """The y with mean(Phi((y - h) / scale)) = p, for sorted h and scale > 0."""
    quantile = _STANDARD_NORMAL.inv_cdf(p)
    shift = scale * quantile
    lo, hi = h[0] + shift, h[-1] + shift  # F(lo) <= p <= F(hi)
    y = min(max(np.mean(h) + np.sqrt(np.var(h) + scale**2) * quantile, lo), hi)
    for _ in range(_NEWTON_MAX_STEPS):
        t = (y - h) / scale
        gap = np.mean(_normal_cdf(t)) - p
        if gap == 0:
            return y
        if gap < 0:
            lo = y
        else:
            hi = y
        slope = np.mean(np.exp(-0.5 * t * t) / np.sqrt(_TWO_PI)) / scale
        # the Newton step if it stays inside the bracket, else bisection
        if slope * (y - hi) < gap < slope * (y - lo):
            step = y - gap / slope
        else:
            step = 0.5 * (lo + hi)
        if abs(step - y) <= 1e-12 * max(1.0, abs(y)):
            return step
        y = step
    return y


def apply_missingness(cfg: ScmConfig, population: Population, seed: int) -> Dataset:
    """Mask the recorded copies of X and Z from the realized outcomes.

    Each row keeps X with probability Phi(a_x + b_x * y) and Z with
    probability Phi(a_z + b_z * y), independently; Y is always kept.  A
    masked cell is stored as NaN; this is the only code that hides a value.
    Raises FrontdoorLabError when a + b * y passes the float range for some row.
    """
    if len(population) == 0:
        raise FrontdoorLabError("population must be nonempty")
    rng = _rng(seed, _STREAM_MISSINGNESS)
    y = population.y
    kept = []
    for a, b in ((cfg.miss_x_a, cfg.miss_x_b), (cfg.miss_z_a, cfg.miss_z_b)):
        with np.errstate(over="ignore", invalid="ignore"):
            index = a + b * y
        if not np.isfinite(index).all():
            raise FrontdoorLabError(
                "missingness overflows the float range: a + b * y is not finite"
            )
        kept.append(rng.random(len(y)) < _normal_cdf(index))
    m_x, m_z = kept
    return Dataset(
        x_star=np.where(m_x, population.x, np.nan),
        z_star=np.where(m_z, population.z, np.nan),
        y_star=y,
    )


# ----------------------------------------------------------------- population io


def population_to_csv(population: Population, path) -> None:
    write_table(path, POPULATION_HEADER, [getattr(population, name) for name in POPULATION_HEADER])


def population_from_csv(path) -> Population:
    return Population(*read_table(path, "population", lambda h: h == POPULATION_HEADER))
