"""The three pipeline figures, emitted as standalone SVG documents.

* a scatterplot matrix of a subsample of the observed data,
* the true interventional mean against the observational conditional mean,
  with a second panel showing controlled-treatment draws,
* the estimated effect curves (imputation-pooled versus complete-case) with
  the 5/95 percent interventional quantile bands.
"""

from __future__ import annotations

import numpy as np

from ._seeds import rng_from
from .dataset import Dataset
from .errors import check_int
from .frontdoor_estimator import EffectEstimate
from .scm_sim import ScmConfig, intervene_generate, oracle_ace
from .spline_smooth import predict, select_lambda
from .svgfig import Axes, Canvas, _text

TRUTH_COLOR = "#222222"
MI_COLOR = "#1f6fb4"
CC_COLOR = "#d1602a"
POINT_COLOR = "#7a7a7a"
CONDITIONAL_COLOR = "#2a8f4e"
DRAWS_PER_X = 8  # controlled-treatment draws per value of the lower truth panel
_PAD = 0.06  # share of the data span added on each side of an axis
_TWO_PANEL_SIZE = (560, 580)  # the canvas of a figure with an upper and a lower panel
_UPPER_RECT = (60, 40, 470, 200)
_LOWER_RECT = (60, 300, 470, 200)


def _widened(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """``(lo - pad, hi + pad)``, or, where rounding loses that pad and leaves a
    zero-width axis, the range padded by ``_PAD`` of its larger magnitude."""
    if lo - pad < hi + pad:
        return lo - pad, hi + pad
    pad = _PAD * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _padded_limits(values: np.ndarray) -> tuple[float, float]:
    if len(values) == 0:  # a subsample with no observed cell in the column
        values = np.array([-1.0, 1.0])
    lo = float(np.nanmin(values))
    hi = float(np.nanmax(values))
    return _widened(lo, hi, _PAD * ((hi - lo) or 1.0))


def scatter_matrix_svg(data: Dataset, subsample: int, seed: int) -> str:
    """Pairwise scatterplots of the observed columns on one subsample."""
    check_int("subsample", subsample, 1)
    rng = rng_from(seed, "scatter-subsample")
    rows = rng.choice(data.n, size=min(subsample, data.n), replace=False)
    columns = {
        "x": (data.x_star[rows], data.m_x[rows]),
        "z": (data.z_star[rows], data.m_z[rows]),
        "y": (data.y_star[rows], np.ones(len(rows), dtype=bool)),
    }
    names = list(columns)
    panel, margin, gap = 170, 60, 26
    size = margin + 3 * panel + 2 * gap + 30
    canvas = Canvas(size, size)
    limits = {
        name: _padded_limits(values[mask])
        for name, (values, mask) in columns.items()
    }
    for i, yname in enumerate(names):
        for j, xname in enumerate(names):
            rect = (
                margin + j * (panel + gap),
                40 + i * (panel + gap),
                panel,
                panel,
            )
            if i == j:
                axes = Axes(canvas, rect, (0, 1), (0, 1))
                axes.frame()
                canvas.add(_text(*axes.px(0.5, 0.5), 22, xname))
                continue
            axes = Axes(canvas, rect, limits[xname], limits[yname])
            axes.frame(xlabel=xname if i == 2 else "", ylabel=yname if j == 0 else "")
            xv, xm = columns[xname]
            yv, ym = columns[yname]
            both = xm & ym
            axes.scatter(
                xv[both], yv[both], fill=POINT_COLOR,
                css_class=f"scatter-{xname}-{yname}",
            )
    return canvas.to_string()


def truth_vs_conditional_svg(cfg: ScmConfig, data: Dataset, subsample: int, seed: int) -> str:
    """True mean response under intervention versus the observational trend.

    Upper panel: observed (x, y) subsample, the conditional-mean smooth and
    the true interventional mean.  Lower panel: the same curves over draws
    from controlled-treatment experiments at a grid of treatment values.
    """
    check_int("subsample", subsample, 1)
    usable = np.flatnonzero(data.m_x)
    rng = rng_from(seed, "truth-panel")
    rows = rng.choice(usable, size=min(subsample, len(usable)), replace=False)
    xs = data.x_star[rows]
    ys = data.y_star[rows]

    grid = np.linspace(-3.0, 3.0, 121)
    truth = oracle_ace(cfg, grid)
    cond_fit = select_lambda(data.y_star[data.m_x], data.x_star[data.m_x])
    conditional = predict(cond_fit, grid)

    exp_grid = np.linspace(-3.0, 3.0, 25)
    exp_x = np.repeat(exp_grid, DRAWS_PER_X)
    exp_y = np.concatenate([
        intervene_generate(cfg, float(x), DRAWS_PER_X, seed=i * 7919 + seed)
        for i, x in enumerate(exp_grid)
    ])

    canvas = Canvas(*_TWO_PANEL_SIZE)
    ylim = _padded_limits(np.concatenate([ys, exp_y, truth]))
    xlim = _padded_limits(np.concatenate([xs, exp_x]))

    upper = Axes(canvas, _UPPER_RECT, xlim, ylim, title="observational data")
    upper.frame(xlabel="", ylabel="y")
    upper.scatter(xs, ys, fill=POINT_COLOR, css_class="scatter-points")
    upper.polyline(grid, conditional, stroke=CONDITIONAL_COLOR, dash="6,4")
    upper.polyline(grid, truth, stroke=TRUTH_COLOR, width=2.0)
    upper.legend(
        [
            ("mean response under intervention", TRUTH_COLOR, "line"),
            ("conditional mean of y given x", CONDITIONAL_COLOR, "dash"),
            ("observations", POINT_COLOR, "dot"),
        ]
    )

    lower = Axes(canvas, _LOWER_RECT, xlim, ylim, title="controlled treatment draws")
    lower.frame(xlabel="x", ylabel="y")
    lower.scatter(exp_x, exp_y, fill=POINT_COLOR, css_class="experiment-points")
    lower.polyline(grid, conditional, stroke=CONDITIONAL_COLOR, dash="6,4")
    lower.polyline(grid, truth, stroke=TRUTH_COLOR, width=2.0)
    return canvas.to_string()


def effect_curves_svg(
    mi: EffectEstimate,
    cc: EffectEstimate,
    oracle: np.ndarray,
    true_q05: np.ndarray,
    true_q95: np.ndarray,
) -> str:
    """Estimated mean curves and quantile bands against the ground truth."""
    grid = mi.grid
    canvas = Canvas(*_TWO_PANEL_SIZE)
    xlim = _widened(float(grid[0]), float(grid[-1]), 0.1)

    stacked = np.concatenate([mi.pooled_ace, cc.pooled_ace, oracle])
    upper = Axes(
        canvas, _UPPER_RECT, xlim, _padded_limits(stacked),
        title="mean response under intervention",
    )
    upper.frame(xlabel="", ylabel="mean y")
    upper.polyline(grid, oracle, stroke=TRUTH_COLOR, width=2.0)
    upper.polyline(grid, mi.pooled_ace, stroke=MI_COLOR, width=1.8)
    upper.polyline(cc.grid, cc.pooled_ace, stroke=CC_COLOR, width=1.8, dash="6,4")
    upper.legend(
        [
            ("truth", TRUTH_COLOR, "line"),
            ("imputation-pooled estimate", MI_COLOR, "line"),
            ("complete-case estimate", CC_COLOR, "dash"),
        ]
    )

    band_stack = np.concatenate([mi.q05, mi.q95, true_q05, true_q95])
    lower = Axes(
        canvas, _LOWER_RECT, xlim, _padded_limits(band_stack),
        title="5 and 95 percent quantiles",
    )
    lower.frame(xlabel="x", ylabel="y quantiles")
    lower.band(grid, mi.q05, mi.q95, fill=MI_COLOR)
    lower.polyline(grid, true_q05, stroke=TRUTH_COLOR, width=1.5)
    lower.polyline(grid, true_q95, stroke=TRUTH_COLOR, width=1.5)
    lower.polyline(grid, mi.q05, stroke=MI_COLOR, width=1.5, dash="5,4")
    lower.polyline(grid, mi.q95, stroke=MI_COLOR, width=1.5, dash="5,4")
    lower.legend(
        [
            ("true quantiles", TRUTH_COLOR, "line"),
            ("estimated quantiles", MI_COLOR, "dash"),
        ]
    )
    return canvas.to_string()
