"""The exact SVG markup of every drawing layer, pinned to the text it writes,
and the figures' argument checks."""

import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from frontdoor_lab.dataset import Dataset
from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.figures import (
    _padded_limits,
    effect_curves_svg,
    scatter_matrix_svg,
    truth_vs_conditional_svg,
)
from frontdoor_lab.frontdoor_estimator import EffectEstimate
from frontdoor_lab.scm_sim import ScmConfig
from frontdoor_lab.svgfig import Axes, Canvas

EXPECTED = """\
<svg xmlns="http://www.w3.org/2000/svg" width="200" height="160" viewBox="0 0 200 160">
<rect x="0" y="0" width="200" height="160" fill="white"/>
<text x="115.00" y="14.00" font-family="sans-serif" font-size="12" text-anchor="middle">panel</text>
<rect x="40.00" y="20.00" width="150.00" height="100.00" fill="none" stroke="black" stroke-width="1"/>
<line x1="40.00" y1="120.00" x2="40.00" y2="124.00" stroke="black" stroke-width="1"/>
<text x="40.00" y="136.00" font-family="sans-serif" font-size="10" text-anchor="middle">0</text>
<line x1="77.50" y1="120.00" x2="77.50" y2="124.00" stroke="black" stroke-width="1"/>
<text x="77.50" y="136.00" font-family="sans-serif" font-size="10" text-anchor="middle">0.5</text>
<line x1="115.00" y1="120.00" x2="115.00" y2="124.00" stroke="black" stroke-width="1"/>
<text x="115.00" y="136.00" font-family="sans-serif" font-size="10" text-anchor="middle">1</text>
<line x1="152.50" y1="120.00" x2="152.50" y2="124.00" stroke="black" stroke-width="1"/>
<text x="152.50" y="136.00" font-family="sans-serif" font-size="10" text-anchor="middle">1.5</text>
<line x1="190.00" y1="120.00" x2="190.00" y2="124.00" stroke="black" stroke-width="1"/>
<text x="190.00" y="136.00" font-family="sans-serif" font-size="10" text-anchor="middle">2</text>
<line x1="36.00" y1="120.00" x2="40.00" y2="120.00" stroke="black" stroke-width="1"/>
<text x="33.00" y="123.00" font-family="sans-serif" font-size="10" text-anchor="end">-1</text>
<line x1="36.00" y1="95.00" x2="40.00" y2="95.00" stroke="black" stroke-width="1"/>
<text x="33.00" y="98.00" font-family="sans-serif" font-size="10" text-anchor="end">-0.5</text>
<line x1="36.00" y1="70.00" x2="40.00" y2="70.00" stroke="black" stroke-width="1"/>
<text x="33.00" y="73.00" font-family="sans-serif" font-size="10" text-anchor="end">0</text>
<line x1="36.00" y1="45.00" x2="40.00" y2="45.00" stroke="black" stroke-width="1"/>
<text x="33.00" y="48.00" font-family="sans-serif" font-size="10" text-anchor="end">0.5</text>
<line x1="36.00" y1="20.00" x2="40.00" y2="20.00" stroke="black" stroke-width="1"/>
<text x="33.00" y="23.00" font-family="sans-serif" font-size="10" text-anchor="end">1</text>
<text x="115.00" y="152.00" font-family="sans-serif" font-size="11" text-anchor="middle">x</text>
<text x="2.00" y="70.00" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 2.00 70.00)">y</text>
<polyline points="40.00,120.00 115.00,45.00 190.00,20.00" fill="none" stroke="#222222" stroke-width="2.0"/>
<polyline points="40.00,70.00 190.00,57.50" fill="none" stroke="red" stroke-width="1.5" stroke-dasharray="6,4"/>
<g class="scatter-x-y">
<circle cx="77.50" cy="70.00" r="2.00" fill="gray" fill-opacity="0.5"/>
<circle cx="152.50" cy="95.00" r="2.00" fill="gray" fill-opacity="0.5"/>
</g>
<g>
<circle cx="115.00" cy="32.50" r="2.00" fill="blue" fill-opacity="0.5"/>
</g>
<g>
</g>
<polygon points="40.00,95.00 115.00,82.50 190.00,70.00 190.00,20.00 115.00,32.50 40.00,45.00" fill="green" fill-opacity="0.25" stroke="none"/>
<line x1="40.00" y1="31.00" x2="64.00" y2="31.00" stroke="black" stroke-width="2"/>
<text x="70.00" y="34.00" font-family="sans-serif" font-size="10">truth</text>
<line x1="40.00" y1="46.00" x2="64.00" y2="46.00" stroke="blue" stroke-width="2" stroke-dasharray="5,4"/>
<text x="70.00" y="49.00" font-family="sans-serif" font-size="10">estimate</text>
<circle cx="52.00" cy="61.00" r="3" fill="gray"/>
<text x="70.00" y="64.00" font-family="sans-serif" font-size="10">points</text>
</svg>
"""


def test_every_layer_writes_its_exact_markup():
    canvas = Canvas(200, 160)
    axes = Axes(canvas, (40, 20, 150, 100), (0.0, 2.0), (-1.0, 1.0), title="panel")
    axes.frame(xlabel="x", ylabel="y")
    axes.polyline([0.0, 1.0, 2.0], [-1.0, 0.5, 1.0], stroke="#222222", width=2.0)
    axes.polyline([0.0, 2.0], [0.0, 0.25], stroke="red", dash="6,4")
    # the third point lies right of the x limits and the fourth is NaN: neither is drawn
    axes.scatter(
        [0.5, 1.5, 2.5, np.nan], [0.0, -0.5, 0.0, 0.0], fill="gray", css_class="scatter-x-y"
    )
    axes.scatter([1.0], [0.75], fill="blue")
    axes.scatter([3.0], [0.0], fill="blue")  # every point clipped: an empty group
    axes.band([0.0, 1.0, 2.0], [-0.5, -0.25, 0.0], [0.5, 0.75, 1.0], fill="green")
    axes.legend(
        [("truth", "black", "line"), ("estimate", "blue", "dash"), ("points", "gray", "dot")]
    )
    assert canvas.to_string() == EXPECTED


def test_markup_characters_in_text_and_attributes_are_escaped():
    canvas = Canvas(200, 160)
    axes = Axes(canvas, (40, 20, 150, 100), (0.0, 1.0), (0.0, 1.0), title="a<b & c")
    axes.legend([('x > "y"', "black", "line")])
    axes.scatter([0.5], [0.5], fill="gray", css_class='say "&"')
    root = ET.fromstring(canvas.to_string())
    texts = [element.text for element in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a<b & c", 'x > "y"']
    [group] = root.iter("{http://www.w3.org/2000/svg}g")
    assert group.get("class") == 'say "&"'


DATA = Dataset(
    x_star=np.array([0.1, np.nan, 0.3, 0.4]),
    z_star=np.array([0.2, 0.5, np.nan, 0.1]),
    y_star=np.array([1.0, 2.0, 3.0, 4.0]),
)
FIGURES = {
    "scatter_matrix": lambda subsample, seed=1: scatter_matrix_svg(DATA, subsample, seed),
    "truth_vs_conditional": lambda subsample, seed=1: truth_vs_conditional_svg(
        ScmConfig(), DATA, subsample, seed
    ),
}


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("subsample", [-1, 0, 2.5, True], ids=["neg", "zero", "float", "bool"])
def test_figures_refuse_a_subsample_that_is_not_a_positive_int(figure, subsample):
    with pytest.raises(FrontdoorLabError, match="subsample"):
        FIGURES[figure](subsample)


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize(
    "seed", [1.5, True, "x", np.int64(1)], ids=["float", "bool", "str", "numpy_int"]
)
def test_figures_refuse_a_seed_that_is_not_an_int(figure, seed):
    message = f"^seed must be int, got {re.escape(repr(seed))}$"
    with pytest.raises(FrontdoorLabError, match=message):
        FIGURES[figure](2, seed)


def test_padded_limits_keep_a_width():
    # the pad is a share of the span, or of 1.0 for one value; where rounding
    # loses that pad, a share of the value's magnitude
    assert _padded_limits(np.array([0.0, 1.0])) == (0.0 - 0.06, 1.0 + 0.06)
    assert _padded_limits(np.array([2.0])) == (2.0 - 0.06, 2.0 + 0.06)
    assert _padded_limits(np.array([1e200])) == (1e200 - 6e198, 1e200 + 6e198)
    assert _padded_limits(np.array([-1e200])) == (-1e200 - 6e198, -1e200 + 6e198)


@pytest.mark.parametrize("x", [0.0, 1e200], ids=["zero", "huge"])
def test_effect_figure_on_one_grid_point(x):
    def estimate(value):
        return EffectEstimate([x], [[value]], [value], [value - 1.0], [value + 1.0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = effect_curves_svg(estimate(x), estimate(2.0 * x), [x], [x - 1.0], [x + 1.0])
    ET.fromstring(svg)
    assert "nan" not in svg.lower()
