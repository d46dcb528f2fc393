"""Frontdoor plug-in estimation of interventional means and quantiles.

For a complete dataset the estimator fits two regressions: the mediator on
the treatment (one penalized smooth) and the outcome on treatment and
mediator (an additive fit ``T(x) + f_z(z)``), both keeping their training
residual pools.  The plug-in interventional mean at a target treatment value
x is the front-door double sum (Pearl, *Causality*, 2009, section 3.3.2)

    mean over rows i and mediator residuals e_j of  E_hat(Y | X = x_i, Z = c(x) + e_j)

where ``c(x)`` is the mediator prediction at the *target* x, while the
outcome model is evaluated at the *observed* x_i.  Averaging over the rows
integrates the empirical treatment distribution; averaging over the whole
residual pool integrates the mediator distribution under the intervention.
Because the outcome model is additive, the n x n sum splits into
``mean_i T(x_i) + mean_j f_z(c(x) + e_j)`` and costs O(n); it draws nothing.

The quantile bands do draw: each row is paired with a mediator residual and
an outcome residual resampled from their pools, and the empirical quantiles
of those plug-in values estimate the quantiles of the interventional outcome
distribution.  The draws are sorted before their quantiles are taken: a
quantile depends only on the order statistics, so the bands are the same
bits, and the selection inside ``np.quantile`` is cheaper on sorted input.

Because the outcome model sees the observed x_i, its intercept plus treatment
term at the training rows does not depend on the target x: each fitted pair
evaluates it once (``FittedPair.treatment_part``), and each grid point
evaluates only the outcome's mediator term.

With multiply imputed data the procedure runs once per completed copy and the
curves are pooled by averaging; a complete-case variant drops every row with
a missing cell first and serves as the biased benchmark.  Both curves and the
true mean go to one table per run (:func:`effect_to_csv`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from ._seeds import mix_seed, rng_from
from .dataset import Dataset, read_table, write_table
from .errors import FrontdoorLabError, NumericError, check_int, check_real, check_vector
from .mi_engine import CompletedDatasets
from .spline_smooth import (
    DEFAULT_N_KNOTS,
    AdditiveFit,
    PenalizedSplineFit,
    _spline_values,
    fit_additive,
    predict,
    select_lambda,
)


@dataclass(frozen=True, eq=False)
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
        # the lengths agree, so this keeps both residual pools non-empty
        if len(self.x_train) == 0:
            raise NumericError("fitted pair has no training rows")
        if len(self.outcome.terms) != 2:
            raise FrontdoorLabError(
                "outcome model needs treatment and mediator terms, got "
                f"{len(self.outcome.terms)} terms"
            )

    @cached_property
    def treatment_part(self) -> np.ndarray:
        """Outcome intercept plus treatment term at the training rows (read-only).

        Summed in ``predict``'s order, so adding the mediator term gives the
        full outcome prediction bit for bit.
        """
        treatment = self.outcome.terms[0]
        part = np.full(len(self.x_train), self.outcome.intercept)
        part += _spline_values(treatment.basis, treatment.coefficients, self.x_train)
        part.flags.writeable = False
        return part


def _checked_grid(grid) -> np.ndarray:
    grid = check_vector("grid", grid)
    if len(grid) == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0):
        raise FrontdoorLabError("grid must be a nonempty sorted vector of finite values")
    return grid


@dataclass(frozen=True, eq=False)
class EffectEstimate:
    """Estimated interventional mean curve and outcome quantile bands; the
    pooled curve and each band hold one value per grid point."""

    grid: np.ndarray
    per_imputation_ace: np.ndarray  # (m, len(grid))
    pooled_ace: np.ndarray
    q05: np.ndarray
    q95: np.ndarray

    def __post_init__(self):
        # read-only copies, as Dataset keeps, so no later edit of the caller's
        # arrays reaches what effect_to_csv writes
        grid = np.array(_checked_grid(self.grid))
        per = np.array(self.per_imputation_ace, dtype=float)
        if per.shape != (per.shape[0], len(grid)):
            raise FrontdoorLabError("per-imputation matrix shape mismatch")
        arrays = {"grid": grid, "per_imputation_ace": per}
        for name in ("pooled_ace", "q05", "q95"):
            arrays[name] = np.array(check_vector(name, getattr(self, name)))
            if arrays[name].shape != grid.shape:
                raise FrontdoorLabError(f"{name} must hold one value per grid point")
        if not np.array_equal(arrays["pooled_ace"], per.mean(axis=0)):
            raise FrontdoorLabError("pooled curve must be the per-imputation mean")
        if np.any(arrays["q05"] > arrays["q95"]):
            raise FrontdoorLabError("lower quantile band exceeds upper band")
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def m(self) -> int:
        return self.per_imputation_ace.shape[0]


def fit_pair(data: Dataset, n_knots: int = DEFAULT_N_KNOTS) -> FittedPair:
    """Fit the mediator smooth and the additive outcome model on complete data."""
    if not data.is_complete():
        raise FrontdoorLabError("fit_pair needs a fully observed dataset")
    x = np.array(data.x_star)
    z = np.array(data.z_star)
    y = np.array(data.y_star)
    mediator = select_lambda(z, x, n_knots)
    outcome = fit_additive(y, [x, z], n_knots)
    return FittedPair(mediator=mediator, outcome=outcome, x_train=x)


def ace_at(pair: FittedPair, x: float) -> float:
    """Plug-in interventional mean at one target treatment value.

    The exact mean over every (row, mediator residual) pair: the rows'
    treatment part plus the outcome's mediator term averaged over the
    prediction at x shifted by each residual of the mediator pool.
    """
    center = float(predict(pair.mediator, check_real("target treatment value", x))[0])
    mediator_term = predict(pair.outcome.terms[1], center + pair.mediator.residuals)
    return float(np.mean(pair.treatment_part)) + float(np.mean(mediator_term))


def distribution_at(pair: FittedPair, x: float, seed: int) -> np.ndarray:
    """Draws from the estimated interventional outcome distribution at x.

    One draw per training row, pairing the row with a mediator draw (the
    prediction at x plus a resampled mediator residual) and a resampled
    outcome residual; empirical quantiles of the result estimate the
    interventional quantiles.
    """
    x = check_real("target treatment value", x)
    mediator_pool, outcome_pool = pair.mediator.residuals, pair.outcome.residuals
    n = len(pair.x_train)
    rng = rng_from(seed, "distribution")
    center = float(predict(pair.mediator, x)[0])
    z_draws = center + mediator_pool[rng.integers(0, len(mediator_pool), n)]
    values = pair.treatment_part + predict(pair.outcome.terms[1], z_draws)
    return values + outcome_pool[rng.integers(0, len(outcome_pool), n)]


def _curves_for_pair(
    pair: FittedPair, grid: np.ndarray, seed: int, label
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ace = np.empty(len(grid))
    q05 = np.empty(len(grid))
    q95 = np.empty(len(grid))
    for j, x in enumerate(grid):
        ace[j] = ace_at(pair, float(x))
        draws = distribution_at(pair, float(x), mix_seed(seed, label, "dist", j))
        draws.sort()  # the same quantiles, and a cheaper selection inside np.quantile
        q05[j], q95[j] = np.quantile(draws, [0.05, 0.95])
    return ace, q05, q95


def _pooled_effect(
    copies: Iterable[tuple[Dataset, str]],
    grid: np.ndarray,
    seed: int,
    n_knots: int,
    on_pair: Callable[[FittedPair], object] | None,
) -> EffectEstimate:
    """Fit each (dataset, label), hand the pair to ``on_pair``, then compute
    its curves; pools the curves by averaging, holding one pair at a time."""
    grid = _checked_grid(grid)
    ace_rows, q05_rows, q95_rows = [], [], []
    for data, label in copies:
        pair = fit_pair(data, n_knots)
        if on_pair is not None:
            on_pair(pair)
        ace, q05, q95 = _curves_for_pair(pair, grid, seed, label)
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
    )


def estimate_effect(
    datasets: CompletedDatasets,
    grid: np.ndarray,
    *,
    seed: int = 0,
    n_knots: int = DEFAULT_N_KNOTS,
    on_pair: Callable[[FittedPair], object] | None = None,
) -> EffectEstimate:
    """Fit and estimate on every completed copy, pooling curves by averaging;
    ``on_pair`` gets each copy's :class:`FittedPair` in copy order, after its
    fit and before its curves.  Only one pair is held at a time.  ``seed``
    seeds the band draws and ``n_knots`` sizes each spline basis; both are
    exact ints, and ``n_knots`` is at least 4."""
    check_int("n_knots", n_knots, 4)
    check_int("seed", seed)
    copies = ((completed, f"imp{i}") for i, completed in enumerate(datasets.completed))
    return _pooled_effect(copies, grid, seed, n_knots, on_pair)


def complete_case_effect(
    data: Dataset,
    grid: np.ndarray,
    *,
    seed: int = 0,
    n_knots: int = DEFAULT_N_KNOTS,
    on_pair: Callable[[FittedPair], object] | None = None,
) -> EffectEstimate:
    """Benchmark estimate using only the rows with no missing cells; ``on_pair``
    gets its one pair after the fit and before the curves; ``seed`` and
    ``n_knots`` as in :func:`estimate_effect`."""
    check_int("n_knots", n_knots, 4)
    check_int("seed", seed)
    keep = data.complete_mask()
    basis_dim = n_knots + 2
    if int(keep.sum()) < 10 * basis_dim:
        raise NumericError(
            f"complete-case analysis needs >= {10 * basis_dim} complete rows, "
            f"got {int(keep.sum())}"
        )
    complete = Dataset(
        x_star=data.x_star[keep], z_star=data.z_star[keep], y_star=data.y_star[keep]
    )
    return _pooled_effect([(complete, "cc")], grid, seed, n_knots, on_pair)


# ----------------------------------------------------------------- CSV


def _effect_header(m: int) -> list[str]:
    per_copy = [f"mi_ace_{i + 1}" for i in range(m)]
    mi = ["mi_pooled_ace", *per_copy, "mi_q05", "mi_q95"]
    return ["x", "oracle_ace", *mi, "cc_ace", "cc_q05", "cc_q95"]


def effect_to_csv(mi: EffectEstimate, cc: EffectEstimate, oracle: np.ndarray, path) -> None:
    """Write the run's one curve table, read by the evaluation and plot stages.

    One row per grid point holds the true interventional mean, the pooled
    and per-copy imputation curves with their bands, and the complete-case
    curve with its bands.  Curves on different grids, a complete-case
    estimate of more than one curve or an oracle of another shape raise.
    """
    oracle = np.asarray(oracle, dtype=float)
    if not np.array_equal(mi.grid, cc.grid):
        raise FrontdoorLabError("imputation and complete-case curves must share one grid")
    if cc.m != 1:
        raise FrontdoorLabError(f"complete-case estimate must hold one curve, got {cc.m}")
    if oracle.shape != mi.grid.shape:
        raise FrontdoorLabError("oracle curve must match the grid")
    numbers = (mi.grid, oracle, mi.pooled_ace, *mi.per_imputation_ace, mi.q05, mi.q95)
    numbers += (cc.pooled_ace, cc.q05, cc.q95)
    write_table(path, _effect_header(mi.m), numbers)


def effect_from_csv(path) -> tuple[EffectEstimate, EffectEstimate, np.ndarray]:
    """Read a curve table as ``(mi, cc, oracle)``; the header's width gives
    ``m``, and a non-finite number raises."""
    # ``per`` gets the (m, grid) layout that makes the pooled-mean identity
    # reproduce the writer's summation order
    grid, oracle, pooled, *per, q05, q95, cc_ace, cc_q05, cc_q95 = read_table(
        path, "effect-curve", lambda h: h == _effect_header(len(h) - 8)
    )
    mi = EffectEstimate(grid, np.array(per), pooled, q05, q95)
    return mi, EffectEstimate(grid, cc_ace[None, :], cc_ace, cc_q05, cc_q95), oracle
