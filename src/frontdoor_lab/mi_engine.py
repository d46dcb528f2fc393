"""Multiple imputation by chained equations with predictive mean matching.

Missing treatment and mediator cells are filled m times by independent
chains.  Each chain starts from random draws of the observed values and then
cycles variable by variable: an additive spline model predicts the target
from the other (currently complete) variables, and every missing cell
receives the observed value of a donor row whose model prediction is among
the closest.  Imputed values therefore always come from the observed
empirical support.

Because the conditional distribution of the treatment given the mediator is
bimodal (the mediator is a symmetric function of the treatment), the
treatment is imputed in a sign/magnitude reparameterization: a clamped
linear-probability additive model draws the sign, predictive mean matching
fills the magnitude, and the product reconstructs the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import ks_2samp

from ._seeds import mix_seed, rng_from
from .dataset import Dataset, _write_table
from .errors import AllMissingColumn, ConfigError, FrontdoorLabError, NothingToImpute
from .spline_smooth import DEFAULT_N_KNOTS, fit_additive, predict

SIGN_PROB_CLAMP = (0.01, 0.99)


@dataclass(frozen=True)
class ImputationConfig:
    m: int = 10
    cycles: int = 10
    donors: int = 5
    seed: int = 0
    n_knots: int = DEFAULT_N_KNOTS

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"need at least two imputations, got m = {self.m}")
        if self.cycles < 1 or self.donors < 1:
            raise ConfigError(
                f"cycles and donors must be >= 1, got {self.cycles} and {self.donors}"
            )
        if self.n_knots < 4:
            raise ConfigError(f"n_knots must be >= 4, got {self.n_knots}")


@dataclass(frozen=True)
class TraceRow:
    """Mean and sd of one variable's imputed cells after one cycle of one
    chain; chain k (from 1) fills completed copy k, cycles count from 1."""

    chain: int
    cycle: int
    variable: str
    mean: float
    sd: float


@dataclass(frozen=True)
class CompletedDatasets:
    """The m completed copies of one incomplete dataset, plus chain traces."""

    source: Dataset
    completed: tuple[Dataset, ...]
    trace: tuple[TraceRow, ...] = ()

    def __post_init__(self):
        if len(self.completed) == 0:
            raise FrontdoorLabError("need at least one completed dataset")
        for copy in self.completed:
            if copy.n != self.source.n:
                raise FrontdoorLabError("completed copy has wrong length")
            if not copy.is_complete():
                raise FrontdoorLabError("completed copy still has missing cells")
            same_x = np.array_equal(
                copy.x_star[self.source.m_x], self.source.x_star[self.source.m_x]
            )
            same_z = np.array_equal(
                copy.z_star[self.source.m_z], self.source.z_star[self.source.m_z]
            )
            same_y = np.array_equal(copy.y_star, self.source.y_star)
            if not (same_x and same_z and same_y):
                raise FrontdoorLabError("observed cells were modified by imputation")

    @property
    def m(self) -> int:
        return len(self.completed)


def decompose_x(x):
    """Split into (magnitude, sign) with sign(0) fixed as +1.

    The product sign * magnitude recovers the input exactly.
    """
    x = np.asarray(x, dtype=float)
    magnitude = np.abs(x)
    sign = np.where(x >= 0, 1.0, -1.0)
    if x.ndim == 0:
        return float(magnitude), float(sign)
    return magnitude, sign


def initialize(data: Dataset, seed: int) -> Dataset:
    """Fill every missing cell with a uniform draw from its observed column."""
    rng = rng_from(seed, "mi-init")
    filled = {}
    for name, values, mask in (
        ("x", data.x_star, data.m_x),
        ("z", data.z_star, data.m_z),
    ):
        pool = values[mask]
        if len(pool) == 0:
            raise AllMissingColumn(f"column {name} has no observed values")
        out = np.array(values)
        n_miss = int((~mask).sum())
        if n_miss:
            out[~mask] = rng.choice(pool, size=n_miss, replace=True)
        filled[name] = out
    n = data.n
    return Dataset(
        x_star=filled["x"],
        z_star=filled["z"],
        y_star=np.array(data.y_star),
        m_x=np.ones(n, dtype=bool),
        m_z=np.ones(n, dtype=bool),
    )


def _nearest_donor_values(
    obs_values: np.ndarray,
    obs_pred: np.ndarray,
    miss_pred: np.ndarray,
    donors: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """For each missing prediction, draw one of the `donors` nearest observed rows.

    Works on predictions sorted once; the nearest donors by predicted mean lie
    within `donors` positions of the insertion point, so a fixed window
    suffices.
    """
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


def _complete_columns(predictors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The predictors as float columns; a NaN or infinite cell raises."""
    columns = [np.asarray(p, dtype=float) for p in predictors]
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise FrontdoorLabError("predictors must be complete")
    return columns


def pmm_impute(
    target: np.ndarray,
    observed: np.ndarray,
    predictors: Sequence[np.ndarray],
    donors: int,
    seed: int,
    n_knots: int = DEFAULT_N_KNOTS,
) -> np.ndarray:
    """Predictive-mean-matching imputations for the missing entries of target.

    Fits an additive spline model of the target on the predictors over the
    observed rows, computes predicted means everywhere, and imputes each
    missing row with the observed target value of one of the `donors`
    nearest rows by predicted mean, drawn uniformly.  Returns one value per
    missing row, in row order; every value belongs to the observed support.
    """
    observed = np.asarray(observed, dtype=bool)
    target = np.asarray(target, dtype=float)
    missing = ~observed
    if not missing.any() or not observed.any():
        raise NothingToImpute("target needs both observed and missing entries")
    columns = _complete_columns(predictors)

    fit = fit_additive(target[observed], [c[observed] for c in columns], n_knots)
    obs_pred = predict(fit, [c[observed] for c in columns])
    miss_pred = predict(fit, [c[missing] for c in columns])
    rng = rng_from(seed, "pmm")
    return _nearest_donor_values(target[observed], obs_pred, miss_pred, donors, rng)


def impute_sign(
    sign01: np.ndarray,
    observed: np.ndarray,
    predictors: Sequence[np.ndarray],
    seed: int,
    n_knots: int = DEFAULT_N_KNOTS,
) -> np.ndarray:
    """Draw +-1 signs for the missing rows from a clamped additive model.

    The 0/1-coded sign is regressed on the predictors over observed rows;
    predictions are clamped to [0.01, 0.99] and used as Bernoulli success
    probabilities.
    """
    observed = np.asarray(observed, dtype=bool)
    sign01 = np.asarray(sign01, dtype=float)
    missing = ~observed
    if not missing.any() or not observed.any():
        raise NothingToImpute("sign target needs both observed and missing entries")
    columns = _complete_columns(predictors)
    fit = fit_additive(sign01[observed], [c[observed] for c in columns], n_knots)
    prob = np.clip(
        predict(fit, [c[missing] for c in columns]), SIGN_PROB_CLAMP[0], SIGN_PROB_CLAMP[1]
    )
    rng = rng_from(seed, "sign")
    return np.where(rng.random(len(prob)) < prob, 1.0, -1.0)


def run_mice(data: Dataset, cfg: ImputationConfig) -> CompletedDatasets:
    """Run m independent chained-equation chains and collect the completions.

    Each chain initializes from observed-value draws, then repeats for the
    configured number of cycles: impute the treatment sign and magnitude from
    (mediator, outcome) and reconstruct it, then impute the mediator from
    (treatment magnitude, treatment sign, outcome).  Missingness masks come
    from the source dataset; observed cells are never touched.
    """
    miss_x = ~data.m_x
    miss_z = ~data.m_z
    y = np.array(data.y_star)
    completed = []
    trace: list[TraceRow] = []
    for chain in range(cfg.m):
        start = initialize(data, mix_seed(cfg.seed, "chain", chain))
        x_work = np.array(start.x_star)
        z_work = np.array(start.z_star)
        for cycle in range(cfg.cycles):
            if miss_x.any():
                signs = impute_sign(
                    (np.sign(x_work) >= 0).astype(float),
                    data.m_x,
                    [z_work, y],
                    mix_seed(cfg.seed, chain, cycle, "sign"),
                    cfg.n_knots,
                )
                magnitudes = pmm_impute(
                    np.abs(x_work),
                    data.m_x,
                    [z_work, y],
                    cfg.donors,
                    mix_seed(cfg.seed, chain, cycle, "magnitude"),
                    cfg.n_knots,
                )
                x_work[miss_x] = signs * magnitudes
            if miss_z.any():
                magnitude, sign = decompose_x(x_work)
                z_work[miss_z] = pmm_impute(
                    z_work,
                    data.m_z,
                    [magnitude, sign, y],
                    cfg.donors,
                    mix_seed(cfg.seed, chain, cycle, "mediator"),
                    cfg.n_knots,
                )
            for name, work, miss in (("x", x_work, miss_x), ("z", z_work, miss_z)):
                if miss.any():
                    trace.append(
                        TraceRow(
                            chain=chain + 1,
                            cycle=cycle + 1,
                            variable=name,
                            mean=float(np.mean(work[miss])),
                            sd=float(np.std(work[miss])),
                        )
                    )
        completed.append(
            Dataset(
                x_star=x_work.copy(),
                z_star=z_work.copy(),
                y_star=y.copy(),
                m_x=np.ones(data.n, dtype=bool),
                m_z=np.ones(data.n, dtype=bool),
            )
        )
    return CompletedDatasets(source=data, completed=tuple(completed), trace=tuple(trace))


# ------------------------------------------------------------- diagnostics


@dataclass(frozen=True)
class DiagnosticRow:
    variable: str
    dataset_index: int
    side: str
    mean: float
    sd: float
    deciles: tuple[float, ...]
    ks: float


def imputation_diagnostics(result: CompletedDatasets) -> list[DiagnosticRow]:
    """Observed-versus-imputed summaries per variable and completed copy.

    For every variable that had missing cells: mean, sd, the nine deciles and
    the two-sample Kolmogorov-Smirnov statistic between observed and imputed
    values.  Variables with nothing imputed produce no rows.
    """
    source = result.source
    rows: list[DiagnosticRow] = []
    probs = np.linspace(0.1, 0.9, 9)
    for k, copy in enumerate(result.completed, start=1):
        for name, values, mask in (
            ("x", copy.x_star, source.m_x),
            ("z", copy.z_star, source.m_z),
        ):
            imputed = values[~mask]
            if len(imputed) == 0:
                continue
            observed = values[mask]
            ks = float(ks_2samp(observed, imputed).statistic)
            for side, sample in (("observed", observed), ("imputed", imputed)):
                rows.append(
                    DiagnosticRow(
                        variable=name,
                        dataset_index=k,
                        side=side,
                        mean=float(np.mean(sample)),
                        sd=float(np.std(sample)),
                        deciles=tuple(float(q) for q in np.quantile(sample, probs)),
                        ks=ks,
                    )
                )
    return rows


_DECILES = [f"d{i}" for i in range(1, 10)]
DIAGNOSTICS_HEADER = ["variable", "dataset_index", "side", "mean", "sd", *_DECILES, "ks"]


def diagnostics_to_csv(rows: Sequence[DiagnosticRow], path) -> None:
    table = [
        [row.variable, str(row.dataset_index), row.side]
        + [repr(v) for v in (row.mean, row.sd, *row.deciles, row.ks)]
        for row in rows
    ]
    _write_table(path, DIAGNOSTICS_HEADER, zip(*table))


TRACE_HEADER = ["chain", "cycle", "variable", "mean", "sd"]


def trace_to_csv(rows: Sequence[TraceRow], path) -> None:
    table = [
        [str(row.chain), str(row.cycle), row.variable, repr(row.mean), repr(row.sd)]
        for row in rows
    ]
    _write_table(path, TRACE_HEADER, zip(*table))
