"""Simulator for a nonlinear mediation model with outcome-dependent missingness.

The generative mechanism, with ``phi`` the standard normal density and all
noise terms independent::

    U  ~ N(0, 1)
    X' ~ Uniform(x_prime_range)
    X  = X' + U
    Z  = z_amplitude * phi(X) + eps_Z,   eps_Z ~ N(0, sigma_z^2)
    Y  = phi(Z - y_shift) + y_linear * Z + u_coef * U

Recorded copies of X and Z are masked by indicators drawn per row from the
realized outcome: M_X ~ Bernoulli(Phi(a_x + b_x * y)) and
M_Z ~ Bernoulli(Phi(a_z + b_z * y)) with indicator 1 meaning observed; Y is
always recorded.

The module also provides the interventional ground truth: Monte Carlo draws
of Y under do(X = x) and the closed-form mean response, used to benchmark
the estimators.  Generation is a pure function of (config, n, seed); normal
variates come from numpy's Generator (ziggurat sampling) with the draw order
frozen, so identical inputs reproduce identical outputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .dataset import Dataset
from .errors import FrontdoorLabError, InvalidCount

_TWO_PI = 2.0 * np.pi

# substream tags so the per-purpose generators never overlap
_STREAM_POPULATION = 11
_STREAM_MISSINGNESS = 13
_STREAM_INTERVENTION = 17


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream])


@dataclass(frozen=True)
class ScmConfig:
    """Parameters of the structural mechanism and the missingness model."""

    sigma_z: float = 0.1
    z_amplitude: float = 4.0
    y_shift: float = 0.5
    y_linear: float = 0.3
    u_coef: float = -0.1
    x_prime_range: tuple[float, float] = (-2.0, 2.0)
    miss_x_params: tuple[float, float] = (2.0, -1.0)
    miss_z_params: tuple[float, float] = (-1.0, 4.0)

    def __post_init__(self):
        if not self.sigma_z > 0:
            raise FrontdoorLabError("sigma_z must be positive")
        low, high = self.x_prime_range
        if not low < high:
            raise FrontdoorLabError("x_prime_range must satisfy low < high")


@dataclass(frozen=True)
class Population:
    """Latent population draws (u, x, z, y), stored columnwise."""

    u: np.ndarray
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.u)


def std_normal_pdf(x):
    """Standard normal density (1/sqrt(2 pi)) exp(-x^2/2); accepts arrays."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / np.sqrt(_TWO_PI)
    return float(out) if out.ndim == 0 else out

def std_normal_cdf(x):
    """Standard normal CDF via the erf identity Phi(x) = (1 + erf(x/sqrt 2))/2.

    erf is evaluated by scipy's libm binding, accurate to a few ulp, well
    inside the 1e-7 absolute tolerance this module promises.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    return float(out) if out.ndim == 0 else out


def generate_population(cfg: ScmConfig, n: int, seed: int) -> Population:
    """Draw n i.i.d. rows from the structural mechanism.

    Draw order is frozen: U, then X', then eps_Z, each as one block.
    """
    if n < 1:
        raise InvalidCount(f"population size must be >= 1, got {n}")
    rng = _rng(seed, _STREAM_POPULATION)
    u = rng.standard_normal(n)
    x_prime = rng.uniform(cfg.x_prime_range[0], cfg.x_prime_range[1], n)
    eps_z = cfg.sigma_z * rng.standard_normal(n)
    x = x_prime + u
    z = cfg.z_amplitude * std_normal_pdf(x) + eps_z
    y = std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z + cfg.u_coef * u
    return Population(u=u, x=x, z=z, y=y)


def intervene_generate(cfg: ScmConfig, x: float, n: int, seed: int) -> np.ndarray:
    """Monte Carlo draws of Y under do(X = x).

    Setting X severs its dependence on U and X'; Z and Y keep their own
    mechanisms.  This is the sampling oracle for the interventional
    distribution of Y.
    """
    if n < 1:
        raise InvalidCount(f"draw count must be >= 1, got {n}")
    rng = _rng(seed, _STREAM_INTERVENTION)
    u = rng.standard_normal(n)
    eps_z = cfg.sigma_z * rng.standard_normal(n)
    z = cfg.z_amplitude * std_normal_pdf(float(x)) + eps_z
    return std_normal_pdf(z - cfg.y_shift) + cfg.y_linear * z + cfg.u_coef * u


def oracle_ace(cfg: ScmConfig, x):
    """Exact mean of Y under do(X = x).

    With m = z_amplitude * phi(x), Z is N(m, sigma_z^2) under the
    intervention, and the Gaussian convolution identity
    E phi(Z - s) = N(s; m, 1 + sigma_z^2) gives

        E(Y | do(x)) = exp(-(m - s)^2 / (2 v)) / sqrt(2 pi v) + y_linear * m

    with s = y_shift and v = 1 + sigma_z^2; the confounder term has mean
    zero.  Accepts a scalar or an array of x values.
    """
    m = cfg.z_amplitude * std_normal_pdf(x)
    v = 1.0 + cfg.sigma_z**2
    bump = np.exp(-((m - cfg.y_shift) ** 2) / (2.0 * v)) / np.sqrt(_TWO_PI * v)
    out = np.asarray(bump + cfg.y_linear * m)
    return float(out) if out.ndim == 0 else out


def apply_missingness(cfg: ScmConfig, population: Population, seed: int) -> Dataset:
    """Mask the recorded copies of X and Z from the realized outcomes.

    Each row keeps X with probability Phi(a_x + b_x * y) and Z with
    probability Phi(a_z + b_z * y), independently; Y is always kept.
    """
    if len(population) == 0:
        raise InvalidCount("population must be nonempty")
    rng = _rng(seed, _STREAM_MISSINGNESS)
    ax, bx = cfg.miss_x_params
    az, bz = cfg.miss_z_params
    y = population.y
    m_x = rng.random(len(y)) < std_normal_cdf(ax + bx * y)
    m_z = rng.random(len(y)) < std_normal_cdf(az + bz * y)
    return Dataset(
        x_star=population.x,
        z_star=population.z,
        y_star=y,
        m_x=m_x,
        m_z=m_z,
    )


# ----------------------------------------------------------------- population io


def population_to_csv(population: Population, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["u", "x", "z", "y"])
        for i in range(len(population)):
            writer.writerow(
                [
                    repr(float(population.u[i])),
                    repr(float(population.x[i])),
                    repr(float(population.z[i])),
                    repr(float(population.y[i])),
                ]
            )


def population_from_csv(path) -> Population:
    columns = {"u": [], "x": [], "z": [], "y": []}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["u", "x", "z", "y"]:
            raise FrontdoorLabError(f"unexpected population header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise FrontdoorLabError(
                    f"malformed population row in {path} line {reader.line_num}: {row}"
                )
            try:
                for name, value in zip(("u", "x", "z", "y"), row):
                    columns[name].append(float(value))
            except ValueError as exc:
                raise FrontdoorLabError(
                    f"malformed population row in {path} line {reader.line_num}: {exc}"
                ) from exc
    return Population(**{k: np.array(v) for k, v in columns.items()})
