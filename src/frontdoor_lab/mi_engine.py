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

The result keeps only what the chains imputed, as *mice*'s ``mids`` object
does (van Buuren and Groothuis-Oudshoorn, JSS 45(3), 2011): per column, one
row per chain and one value per missing cell.  A completed copy is built
from the source when it is asked for, so no copy can differ from the source
in an observed cell, and ``imputation_diagnostics`` reads the imputed values
without building any copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._seeds import mix_seed, rng_from
from .dataset import Dataset, read_table, write_table
from .errors import FrontdoorLabError, check_int, check_numbers, check_vector
from .spline_smooth import DEFAULT_N_KNOTS, fit_additive, predict

SIGN_PROB_CLAMP = (0.01, 0.99)


@dataclass(frozen=True, eq=False)
class CompletedDatasets:
    """The m imputations of an incomplete dataset, kept as *mice* keeps them:
    read-only (m, missing cells) arrays ``imputed_x`` and ``imputed_z``, a
    column per missing cell of ``source`` in row order.  Iterating yields
    copies 1..m, ``source`` with row k filled in.  ``trace`` has a tuple per
    imputed variable, cycle and chain (from 1; chain k fills copy k) in
    ``TRACE_HEADER``'s order, with the mean and sd of its cells after the cycle."""

    source: Dataset
    imputed_x: np.ndarray
    imputed_z: np.ndarray
    trace: tuple[tuple, ...] = ()
    nonconverged_fits: int = 0

    def __post_init__(self):
        for name, mask in (("imputed_x", self.source.m_x), ("imputed_z", self.source.m_z)):
            values = np.array(check_numbers(name, getattr(self, name)))
            if values.shape[1:] != ((~mask).sum(),) or not np.isfinite(values).all():
                raise FrontdoorLabError(f"{name} must be finite, of shape (m, {(~mask).sum()})")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if not len(self.imputed_x) == len(self.imputed_z) >= 1:
            raise FrontdoorLabError("imputed_x and imputed_z must hold the same m >= 1 rows")

    @property
    def m(self) -> int:
        return len(self.imputed_x)

    def __iter__(self) -> Iterator[Dataset]:
        for x_row, z_row in zip(self.imputed_x, self.imputed_z):
            x, z = np.array(self.source.x_star), np.array(self.source.z_star)
            x[~self.source.m_x], z[~self.source.m_z] = x_row, z_row
            yield Dataset(x_star=x, z_star=z, y_star=self.source.y_star)


def decompose_x(x):
    """Split into (magnitude, sign) with sign(0) fixed as +1.

    The product sign * magnitude recovers the input exactly.  ``x`` is a
    number or an array of numbers (``check_numbers``).
    """
    x = check_numbers("treatment", x)
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
            raise FrontdoorLabError(f"column {name} has no observed values")
        out = np.array(values)
        n_miss = int((~mask).sum())
        if n_miss:
            out[~mask] = rng.choice(pool, size=n_miss, replace=True)
        filled[name] = out
    return Dataset(x_star=filled["x"], z_star=filled["z"], y_star=data.y_star)


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
    suffices.  The sort is the default one, and a stable sort replaces it only
    when two sorted predictions are not strictly increasing: distinct values
    have one sorted order, so the donors are those of a stable sort always.
    """
    donors = min(donors, len(obs_values))
    order = np.argsort(obs_pred)
    sorted_pred = obs_pred[order]
    # a tie or a NaN fails the strict check, and only then may the orders differ
    if not np.all(sorted_pred[1:] > sorted_pred[:-1]):
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


def _observed_fit(
    target: np.ndarray,
    observed: np.ndarray,
    predictors: Sequence[np.ndarray],
    n_knots: int,
    name: str,
):
    """The additive model of ``target`` on the predictors fitted over the observed
    rows, the observed target values, and the predictor columns at the observed
    and at the missing rows.  Raises FrontdoorLabError unless the target, mask and
    predictors are vectors of one length, ``name`` has both observed and missing
    entries and every predictor is complete."""
    target = check_vector(name, target)
    observed = check_numbers("observed mask", observed, "a vector") != 0
    if not np.iterable(predictors):  # a number or None is no sequence of columns
        raise FrontdoorLabError(f"predictors must be a sequence of vectors, got {predictors!r}")
    columns = [check_vector("predictor", p) for p in predictors]
    if any(v.shape != target.shape for v in (observed, *columns)):
        raise FrontdoorLabError(f"the mask and predictors must be vectors as long as the {name}")
    missing = ~observed
    if not missing.any() or not observed.any():
        raise FrontdoorLabError(f"{name} needs both observed and missing entries")
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise FrontdoorLabError("predictors must be complete")
    known = target[observed]
    at_obs = [c[observed] for c in columns]
    fit = fit_additive(known, at_obs, n_knots)
    return fit, known, at_obs, [c[missing] for c in columns]


def pmm_impute(
    target: np.ndarray,
    observed: np.ndarray,
    predictors: Sequence[np.ndarray],
    donors: int,
    seed: int,
    n_knots: int = DEFAULT_N_KNOTS,
) -> tuple[np.ndarray, bool]:
    """Predictive-mean-matching imputations for the missing entries of target.

    Fits an additive spline model of the target on the predictors over the
    observed rows and imputes each missing row with the observed target value
    of one of the `donors` nearest rows by predicted mean, drawn uniformly.
    Returns one value per missing row, in row order, each from the observed
    support, and whether the fit converged.  ``donors`` must be an int >= 1.
    """
    check_int("donors", donors, 1)
    rng = rng_from(seed, "pmm")
    fit, known, at_obs, at_miss = _observed_fit(target, observed, predictors, n_knots, "target")
    obs_pred = predict(fit, at_obs)
    miss_pred = predict(fit, at_miss)
    return _nearest_donor_values(known, obs_pred, miss_pred, donors, rng), fit.converged


def impute_sign(
    sign01: np.ndarray,
    observed: np.ndarray,
    predictors: Sequence[np.ndarray],
    seed: int,
    n_knots: int = DEFAULT_N_KNOTS,
) -> tuple[np.ndarray, bool]:
    """Draw +-1 signs for the missing rows from a clamped additive model.

    The 0/1-coded sign is regressed on the predictors over observed rows; its
    predictions, clamped to [0.01, 0.99], are Bernoulli success probabilities.
    Returns the signs and whether the fit converged.
    """
    rng = rng_from(seed, "sign")
    fit, _, _, at_miss = _observed_fit(sign01, observed, predictors, n_knots, "sign target")
    prob = np.clip(predict(fit, at_miss), SIGN_PROB_CLAMP[0], SIGN_PROB_CLAMP[1])
    return np.where(rng.random(len(prob)) < prob, 1.0, -1.0), fit.converged


def run_mice(
    data: Dataset, *, m: int = 10, cycles: int = 10, donors: int = 5, seed: int = 0,
    n_knots: int = DEFAULT_N_KNOTS,
) -> CompletedDatasets:
    """Run ``m`` independent chained-equation chains and collect the completions.

    Each chain initializes from observed-value draws, then repeats ``cycles``
    times: impute the treatment sign and magnitude from (mediator, outcome)
    and reconstruct it, then impute the mediator from (treatment magnitude,
    treatment sign, outcome), each cell from one of its ``donors`` nearest
    rows.  Missingness masks come from the source dataset; observed cells are
    never touched.  ``trace`` gets a row per chain, cycle and imputed variable,
    in that nesting (see :class:`CompletedDatasets`), and ``nonconverged_fits``
    counts the fits that stopped at the backfitting cap.  Each setting is an
    exact ``int``; ``m`` is at least 2, ``cycles`` and ``donors`` at least 1,
    and ``n_knots`` at least 4.
    """
    for name, value, minimum in (("m", m, 2), ("cycles", cycles, 1), ("donors", donors, 1),
                                 ("seed", seed, None), ("n_knots", n_knots, 4)):
        check_int(name, value, minimum)
    miss_x = ~data.m_x
    miss_z = ~data.m_z
    y = np.array(data.y_star)
    imputed_x, imputed_z = [], []
    trace: list[tuple] = []
    converged: list[bool] = []  # one flag per imputation fit
    for chain in range(m):
        start = initialize(data, mix_seed(seed, "chain", chain))
        x_work = np.array(start.x_star)
        z_work = np.array(start.z_star)
        for cycle in range(cycles):
            if miss_x.any():
                magnitude, sign = decompose_x(x_work)
                signs, sign_converged = impute_sign(
                    (sign > 0).astype(float),
                    data.m_x,
                    [z_work, y],
                    mix_seed(seed, chain, cycle, "sign"),
                    n_knots,
                )
                magnitudes, magnitude_converged = pmm_impute(
                    magnitude,
                    data.m_x,
                    [z_work, y],
                    donors,
                    mix_seed(seed, chain, cycle, "magnitude"),
                    n_knots,
                )
                x_work[miss_x] = signs * magnitudes
                converged += [sign_converged, magnitude_converged]
            if miss_z.any():
                magnitude, sign = decompose_x(x_work)
                z_work[miss_z], z_converged = pmm_impute(
                    z_work,
                    data.m_z,
                    [magnitude, sign, y],
                    donors,
                    mix_seed(seed, chain, cycle, "mediator"),
                    n_knots,
                )
                converged.append(z_converged)
            for name, work, miss in (("x", x_work, miss_x), ("z", z_work, miss_z)):
                if miss.any():
                    imputed = work[miss]
                    trace.append((chain + 1, cycle + 1, name, float(np.mean(imputed)),
                                  float(np.std(imputed))))
        imputed_x.append(x_work[miss_x])
        imputed_z.append(z_work[miss_z])
    return CompletedDatasets(data, imputed_x, imputed_z, tuple(trace), converged.count(False))


# ------------------------------------------------------------- diagnostics


def imputation_diagnostics(result: CompletedDatasets) -> list[tuple]:
    """Observed-versus-imputed summaries per completed copy and variable.

    One row per copy, variable that had missing cells, and side (``observed``,
    then ``imputed``), in that nesting, its fields in ``DIAGNOSTICS_HEADER``'s
    order: the variable, the copy's ``dataset_index`` (from 1), the side, that
    side's mean, sd and nine deciles, and the two-sample Kolmogorov-Smirnov
    statistic ``ks`` between observed and imputed values, ``max_t |F_obs(t) -
    F_imp(t)|`` over the empirical CDFs, rounded once from the exact rational
    (see :func:`_ks_statistic`).  The observed cells are the source's in every
    copy, so they are summarised once and every copy's ``observed`` row holds
    that summary.  Variables with nothing imputed produce no rows.
    """
    source = result.source
    probs = np.linspace(0.1, 0.9, 9)

    def summary(sample: np.ndarray) -> tuple:
        deciles = np.quantile(sample, probs).tolist()
        return (float(np.mean(sample)), float(np.std(sample)), *deciles)

    variables = []  # (name, observed cells, their summary)
    for name, values, mask in (("x", source.x_star, source.m_x), ("z", source.z_star, source.m_z)):
        if mask.all():
            continue
        if not mask.any():
            raise FrontdoorLabError(f"column {name} has no observed values")
        variables.append((name, values[mask], summary(values[mask])))
    rows = []
    for k in range(1, result.m + 1):
        for name, observed, observed_summary in variables:
            imputed = getattr(result, f"imputed_{name}")[k - 1]
            ks = _ks_statistic(observed, imputed)
            rows += [(name, k, "observed", *observed_summary, ks),
                     (name, k, "imputed", *summary(imputed), ks)]
    return rows


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``max_t |F_a(t) - F_b(t)|``.

    The empirical CDFs change only at sample values, so the supremum is a
    maximum over the pooled values.  With right-side ``searchsorted`` counts
    ``c_a``, ``c_b`` it is the exact rational ``max |n_b c_a - n_a c_b| / (n_a n_b)``:
    the integer gaps are exact in int64 and the one division rounds once.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise FrontdoorLabError("the KS statistic needs two nonempty samples")
    pooled = np.concatenate([a, b])
    gap = n_b * np.searchsorted(a, pooled, side="right") - n_a * np.searchsorted(
        b, pooled, side="right"
    )
    return float(np.abs(gap).max() / (n_a * n_b))


_DECILES = [f"d{i}" for i in range(1, 10)]
DIAGNOSTICS_HEADER = ["variable", "dataset_index", "side", "mean", "sd", *_DECILES, "ks"]
TRACE_HEADER = ["chain", "cycle", "variable", "mean", "sd"]


def _write_rows(path, header: list[str], rows: Sequence[tuple]) -> None:
    """Write ``rows``, tuples in ``header``'s order, as the table's columns; a
    row of another width raises before the file is opened."""
    if any(len(row) != len(header) for row in rows):
        raise FrontdoorLabError(f"{path}: each row must hold {len(header)} fields")
    write_table(path, header, list(zip(*rows, strict=True)))


def diagnostics_to_csv(rows: Sequence[tuple], path) -> None:
    """Write :func:`imputation_diagnostics` rows under ``DIAGNOSTICS_HEADER``;
    no rows give a table of the header alone."""
    _write_rows(path, DIAGNOSTICS_HEADER, rows)


def diagnostics_from_csv(path) -> list[tuple]:
    """The rows ``diagnostics_to_csv`` wrote, as tuples in ``DIAGNOSTICS_HEADER``'s
    order with an ``int`` ``dataset_index`` and Python floats, none when nothing
    was imputed; a ``dataset_index`` that is not a whole number from 1 raises."""
    variable, index, side, *numbers = read_table(
        path, "imputation diagnostics", lambda h: h == DIAGNOSTICS_HEADER,
        text=("variable", "side"), empty_ok=True,
    )
    if not all(k >= 1 and k.is_integer() for k in index.tolist()):
        raise FrontdoorLabError(f"{path}: dataset_index must hold whole numbers from 1")
    return [
        (name, int(k), which, *values)
        for name, k, which, values in zip(
            variable, index.tolist(), side, np.column_stack(numbers).tolist()
        )
    ]


def trace_to_csv(rows: Sequence[tuple], path) -> None:
    """Write ``CompletedDatasets.trace`` rows under ``TRACE_HEADER``; no rows
    give a table of the header alone."""
    _write_rows(path, TRACE_HEADER, rows)
