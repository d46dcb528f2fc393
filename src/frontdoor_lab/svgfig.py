"""Static SVG figures built from drawing primitives, no plotting dependency.

A :class:`Canvas` accumulates SVG elements; an :class:`Axes` maps one data
rectangle onto a pixel rectangle and offers the handful of layers the
pipeline figures need (frame with ticks, polylines, scatter points, shaded
bands, legends).  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np


N_TICKS = 5  # per axis
POINT_RADIUS = 2.0
POINT_OPACITY = 0.5
BAND_OPACITY = 0.25


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _label(value: float) -> str:
    return f"{value:.3g}"


class Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._elements: list[str] = []

    def add(self, element: str) -> None:
        self._elements.append(element)

    def to_string(self) -> str:
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        background = (
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
            'fill="white"/>'
        )
        return "\n".join([header, background, *self._elements, "</svg>"]) + "\n"


class Axes:
    """One panel: data-to-pixel mapping plus drawing layers."""

    def __init__(self, canvas: Canvas, rect, xlim, ylim, title: str = ""):
        self.canvas = canvas
        self.x0, self.y0, self.w, self.h = rect
        self.xlim = xlim
        self.ylim = ylim
        if title:
            canvas.add(
                f'<text x="{_fmt(self.x0 + self.w / 2)}" y="{_fmt(self.y0 - 6)}" '
                'font-family="sans-serif" font-size="12" text-anchor="middle">'
                f"{title}</text>"
            )

    def px(self, x: float, y: float) -> tuple[float, float]:
        fx = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        fy = (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.x0 + fx * self.w, self.y0 + (1.0 - fy) * self.h

    def frame(self, xlabel: str = "", ylabel: str = "") -> None:
        add = self.canvas.add
        add(
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" width="{_fmt(self.w)}" '
            f'height="{_fmt(self.h)}" fill="none" stroke="black" stroke-width="1"/>'
        )
        for tick in np.linspace(self.xlim[0], self.xlim[1], N_TICKS):
            px, py = self.px(tick, self.ylim[0])
            add(
                f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(py + 4)}" stroke="black" stroke-width="1"/>'
            )
            add(
                f'<text x="{_fmt(px)}" y="{_fmt(py + 16)}" font-family="sans-serif" '
                f'font-size="10" text-anchor="middle">{_label(tick)}</text>'
            )
        for tick in np.linspace(self.ylim[0], self.ylim[1], N_TICKS):
            px, py = self.px(self.xlim[0], tick)
            add(
                f'<line x1="{_fmt(px - 4)}" y1="{_fmt(py)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
            )
            add(
                f'<text x="{_fmt(px - 7)}" y="{_fmt(py + 3)}" font-family="sans-serif" '
                f'font-size="10" text-anchor="end">{_label(tick)}</text>'
            )
        if xlabel:
            add(
                f'<text x="{_fmt(self.x0 + self.w / 2)}" y="{_fmt(self.y0 + self.h + 32)}" '
                f'font-family="sans-serif" font-size="11" text-anchor="middle">{xlabel}</text>'
            )
        if ylabel:
            cx, cy = self.x0 - 38, self.y0 + self.h / 2
            add(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle" '
                f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{ylabel}</text>'
            )

    def _clip(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (
            np.isfinite(xs)
            & np.isfinite(ys)
            & (xs >= self.xlim[0]) & (xs <= self.xlim[1])
            & (ys >= self.ylim[0]) & (ys <= self.ylim[1])
        )
        return xs, ys, keep

    def polyline(self, xs, ys, stroke: str, width: float = 1.5, dash: str = "") -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        points = " ".join(
            _fmt(px) + "," + _fmt(py)
            for px, py in (self.px(x, y) for x, y in zip(xs, ys))
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.canvas.add(
            f'<polyline points="{points}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def scatter(self, xs, ys, fill: str, css_class: str = "") -> None:
        xs, ys, keep = self._clip(xs, ys)
        class_attr = f' class="{css_class}"' if css_class else ""
        group = [f"<g{class_attr}>"]
        for x, y in zip(xs[keep], ys[keep]):
            px, py = self.px(x, y)
            group.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(POINT_RADIUS)}" '
                f'fill="{fill}" fill-opacity="{POINT_OPACITY}"/>'
            )
        group.append("</g>")
        self.canvas.add("\n".join(group))

    def band(self, xs, lower, upper, fill: str) -> None:
        xs = np.asarray(xs, dtype=float)
        forward = [self.px(x, y) for x, y in zip(xs, np.asarray(lower, dtype=float))]
        backward = [self.px(x, y) for x, y in zip(xs[::-1], np.asarray(upper, dtype=float)[::-1])]
        points = " ".join(_fmt(px) + "," + _fmt(py) for px, py in forward + backward)
        self.canvas.add(
            f'<polygon points="{points}" fill="{fill}" '
            f'fill-opacity="{BAND_OPACITY}" stroke="none"/>'
        )

    def legend(self, entries: list[tuple[str, str, str]]) -> None:
        """entries: (label, color, style) with style 'line', 'dash' or 'dot'."""
        lx = self.x0 + self.w - 150
        ly = self.y0 + 14
        for i, (label, color, style) in enumerate(entries):
            y = ly + 15 * i
            if style == "dot":
                self.canvas.add(
                    f'<circle cx="{_fmt(lx + 12)}" cy="{_fmt(y - 3)}" r="3" fill="{color}"/>'
                )
            else:
                dash = ' stroke-dasharray="5,4"' if style == "dash" else ""
                self.canvas.add(
                    f'<line x1="{_fmt(lx)}" y1="{_fmt(y - 3)}" x2="{_fmt(lx + 24)}" '
                    f'y2="{_fmt(y - 3)}" stroke="{color}" stroke-width="2"{dash}/>'
                )
            self.canvas.add(
                f'<text x="{_fmt(lx + 30)}" y="{_fmt(y)}" font-family="sans-serif" '
                f'font-size="10">{label}</text>'
            )
