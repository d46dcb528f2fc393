"""Frontdoor plug-in estimation of interventional means and quantiles.

For a complete dataset the estimator fits two regressions: the mediator on
the treatment (one penalized smooth) and the outcome on treatment and
mediator (an additive fit), both keeping their training residual pools.  The
interventional mean at a target treatment value x is then

    mean over rows i of  E_hat(Y | X = x_i, Z = z_i~)

where each z_i~ is the mediator prediction at the *target* x plus a residual
resampled from the mediator pool, while the outcome model is evaluated at the
*observed* x_i.  Averaging over the rows integrates the empirical treatment
distribution; the mediator draws integrate the mediator distribution under
the intervention.  Adding resampled outcome residuals to the same plug-in
values yields draws whose empirical quantiles estimate the quantiles of the
interventional outcome distribution.

With multiply imputed data the procedure runs once per completed copy and the
curves are pooled by averaging; a complete-case variant drops every row with
a missing cell first and serves as the biased benchmark.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._seeds import mix_seed, rng_from
from .dataset import Dataset
from .errors import EmptyResidualPool, FrontdoorLabError, TooFewCompleteRows
from .mi_engine import CompletedDatasets
from .spline_smooth import (
    AdditiveFit,
    PenalizedSplineFit,
    build_basis,
    fit_additive,
    predict,
    select_lambda,
)


@dataclass(frozen=True)
class EstimatorConfig:
    n_knots: int = 20
    mediator_draws_per_row: int = 1
    distribution_draws: int | None = None  # None: one pass over the rows
    seed: int = 0

    def __post_init__(self):
        if self.mediator_draws_per_row < 1:
            raise FrontdoorLabError("mediator_draws_per_row must be >= 1")


class MethodTag(Enum):
    MULTIPLE_IMPUTATION = "MultipleImputation"
    COMPLETE_CASE = "CompleteCase"


@dataclass(frozen=True)
class FittedPair:
    """Mediator and outcome regressions trained on one completed dataset."""

    mediator: PenalizedSplineFit
    outcome: AdditiveFit
    x_train: np.ndarray

    def __post_init__(self):
        if not (
            len(self.mediator.residuals)
            == len(self.outcome.residuals)
            == len(self.x_train)
        ):
            raise FrontdoorLabError("mediator and outcome must share training rows")


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) < 0):
        raise FrontdoorLabError("grid must be a nonempty sorted vector")
    return grid


@dataclass(frozen=True)
class EffectEstimate:
    """Estimated interventional mean curve and outcome quantile bands."""

    grid: np.ndarray
    per_imputation_ace: np.ndarray  # (m, len(grid))
    pooled_ace: np.ndarray
    q05: np.ndarray
    q95: np.ndarray
    method: MethodTag

    def __post_init__(self):
        grid = _checked_grid(self.grid)
        per = np.asarray(self.per_imputation_ace, dtype=float)
        if per.shape != (per.shape[0], len(grid)):
            raise FrontdoorLabError("per-imputation matrix shape mismatch")
        if not np.array_equal(np.asarray(self.pooled_ace), per.mean(axis=0)):
            raise FrontdoorLabError("pooled curve must be the per-imputation mean")
        if np.any(np.asarray(self.q05) > np.asarray(self.q95)):
            raise FrontdoorLabError("lower quantile band exceeds upper band")

    @property
    def m(self) -> int:
        return self.per_imputation_ace.shape[0]


def fit_pair(data: Dataset, config: EstimatorConfig | None = None) -> FittedPair:
    """Fit the mediator smooth and the additive outcome model on complete data."""
    config = config or EstimatorConfig()
    if not data.is_complete():
        raise FrontdoorLabError("fit_pair needs a fully observed dataset")
    x = np.array(data.x_star)
    z = np.array(data.z_star)
    y = np.array(data.y_star)
    mediator = select_lambda(z, x, build_basis(x, config.n_knots))
    outcome = fit_additive(y, [x, z], config.n_knots)
    return FittedPair(mediator=mediator, outcome=outcome, x_train=x)


def _mediator_draws(
    pair: FittedPair, x: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    pool = pair.mediator.residuals
    if len(pool) == 0:
        raise EmptyResidualPool("mediator residual pool is empty")
    center = float(predict(pair.mediator, float(x))[0])
    return center + pool[rng.integers(0, len(pool), n)]


def draw_mediator(pair: FittedPair, x: float, n: int, seed: int) -> np.ndarray:
    """Mediator draws under the intervention: prediction at x plus resampled
    training residuals."""
    if n < 1:
        raise FrontdoorLabError("draw count must be >= 1")
    return _mediator_draws(pair, x, n, rng_from(seed, "mediator-draws"))


def ace_at(
    pair: FittedPair, x: float, seed: int, draws_per_row: int = 1
) -> float:
    """Plug-in interventional mean at one target treatment value.

    One mediator draw per dataset row (or ``draws_per_row`` averaged), with
    the outcome model evaluated at the observed row treatments.
    """
    rng = rng_from(seed, "ace")
    n = len(pair.x_train)
    total = 0.0
    for _ in range(draws_per_row):
        z_draws = _mediator_draws(pair, x, n, rng)
        total += float(np.mean(predict(pair.outcome, [pair.x_train, z_draws])))
    return total / draws_per_row


def distribution_at(
    pair: FittedPair, x: float, n_draws: int, seed: int
) -> np.ndarray:
    """Draws from the estimated interventional outcome distribution at x.

    Cycles over the dataset rows, pairing each with a fresh mediator draw and
    a resampled outcome residual; empirical quantiles of the result estimate
    the interventional quantiles.
    """
    if n_draws < 1:
        raise FrontdoorLabError("draw count must be >= 1")
    pool = pair.outcome.residuals
    if len(pool) == 0:
        raise EmptyResidualPool("outcome residual pool is empty")
    rng = rng_from(seed, "distribution")
    rows = np.arange(n_draws) % len(pair.x_train)
    z_draws = _mediator_draws(pair, x, n_draws, rng)
    values = predict(pair.outcome, [pair.x_train[rows], z_draws])
    return values + pool[rng.integers(0, len(pool), n_draws)]


def _curves_for_pair(
    pair: FittedPair, grid: np.ndarray, config: EstimatorConfig, label
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_draws = config.distribution_draws or len(pair.x_train)
    ace = np.empty(len(grid))
    q05 = np.empty(len(grid))
    q95 = np.empty(len(grid))
    for j, x in enumerate(grid):
        ace[j] = ace_at(
            pair,
            float(x),
            mix_seed(config.seed, label, "ace", j),
            config.mediator_draws_per_row,
        )
        draws = distribution_at(
            pair, float(x), n_draws, mix_seed(config.seed, label, "dist", j)
        )
        q05[j] = float(np.quantile(draws, 0.05))
        q95[j] = float(np.quantile(draws, 0.95))
    return ace, q05, q95


def estimate_effect(
    datasets: CompletedDatasets,
    grid: np.ndarray,
    config: EstimatorConfig | None = None,
) -> EffectEstimate:
    """Fit and estimate on every completed copy, pooling curves by averaging."""
    config = config or EstimatorConfig()
    grid = _checked_grid(grid)
    ace_rows, q05_rows, q95_rows = [], [], []
    for i, completed in enumerate(datasets.completed):
        pair = fit_pair(completed, config)
        ace, q05, q95 = _curves_for_pair(pair, grid, config, f"imp{i}")
        ace_rows.append(ace)
        q05_rows.append(q05)
        q95_rows.append(q95)
    per_imputation = np.vstack(ace_rows)
    return EffectEstimate(
        grid=grid,
        per_imputation_ace=per_imputation,
        pooled_ace=per_imputation.mean(axis=0),
        q05=np.vstack(q05_rows).mean(axis=0),
        q95=np.vstack(q95_rows).mean(axis=0),
        method=MethodTag.MULTIPLE_IMPUTATION,
    )


def complete_case_effect(
    data: Dataset,
    grid: np.ndarray,
    config: EstimatorConfig | None = None,
) -> EffectEstimate:
    """Benchmark estimate using only the rows with no missing cells."""
    config = config or EstimatorConfig()
    keep = data.complete_mask()
    basis_dim = config.n_knots + 2
    if int(keep.sum()) < 10 * basis_dim:
        raise TooFewCompleteRows(
            f"complete-case analysis needs >= {10 * basis_dim} complete rows, "
            f"got {int(keep.sum())}"
        )
    complete = Dataset(
        x_star=data.x_star[keep],
        z_star=data.z_star[keep],
        y_star=data.y_star[keep],
        m_x=np.ones(int(keep.sum()), dtype=bool),
        m_z=np.ones(int(keep.sum()), dtype=bool),
    )
    grid = _checked_grid(grid)
    pair = fit_pair(complete, config)
    ace, q05, q95 = _curves_for_pair(pair, grid, config, "cc")
    per_imputation = ace[None, :]
    return EffectEstimate(
        grid=grid,
        per_imputation_ace=per_imputation,
        pooled_ace=per_imputation.mean(axis=0),
        q05=q05,
        q95=q95,
        method=MethodTag.COMPLETE_CASE,
    )


# ----------------------------------------------------------------- CSV


def effect_to_csv(estimate: EffectEstimate, oracle: np.ndarray, path) -> None:
    """Write the curve table consumed by the evaluation and plot stages."""
    oracle = np.asarray(oracle, dtype=float)
    if oracle.shape != estimate.grid.shape:
        raise FrontdoorLabError("oracle curve must match the grid")
    m = estimate.m
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["x", "pooled_ace"]
            + [f"ace_imp_{i + 1}" for i in range(m)]
            + ["q05", "q95", "oracle_ace", "method"]
        )
        for j in range(len(estimate.grid)):
            writer.writerow(
                [repr(float(estimate.grid[j])), repr(float(estimate.pooled_ace[j]))]
                + [repr(float(v)) for v in estimate.per_imputation_ace[:, j]]
                + [
                    repr(float(estimate.q05[j])),
                    repr(float(estimate.q95[j])),
                    repr(float(oracle[j])),
                    estimate.method.value,
                ]
            )


def effect_from_csv(path) -> tuple[EffectEstimate, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "x" or "oracle_ace" not in header:
            raise FrontdoorLabError(f"unexpected effect-curve header in {path}")
        m = sum(1 for name in header if name.startswith("ace_imp_"))
        table, methods = [], []
        for row in reader:
            if not row:
                continue
            try:
                table.append([float(v) for v in row[: 5 + m]])
                methods.append(MethodTag(row[5 + m]))
            except (ValueError, IndexError) as exc:
                raise FrontdoorLabError(
                    f"malformed effect-curve row in {path} line {reader.line_num}: {row}"
                ) from exc
    if not table:
        raise FrontdoorLabError(f"no effect-curve rows in {path}")
    # one contiguous row per column, so ``per`` has the (m, grid) layout that
    # makes the pooled-mean identity reproduce the writer's summation order
    columns = np.ascontiguousarray(np.array(table).T)
    grid, pooled, per = columns[0], columns[1], columns[2 : 2 + m]
    q05, q95, oracle = columns[2 + m], columns[3 + m], columns[4 + m]
    estimate = EffectEstimate(
        grid=grid,
        per_imputation_ace=per,
        pooled_ace=pooled,
        q05=q05,
        q95=q95,
        method=methods[0],
    )
    return estimate, oracle
