"""Static SVG figures built from drawing primitives, no plotting dependency.

A :class:`Canvas` accumulates SVG elements; an :class:`Axes` maps one data
rectangle onto a pixel rectangle and offers the handful of layers the
pipeline figures need (frame with ticks, polylines, scatter points, shaded
bands, legends).  Every element is written by one writer, ``_element``, and
its two shorthands ``_text`` and ``_line``; it escapes text and attribute
values, so a title or label may hold any character.  Elements are drawn in
the order they are added, so a later layer covers an earlier one.  Output is
deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np


N_TICKS = 5  # per axis
POINT_RADIUS = 2.0
POINT_OPACITY = 0.5
BAND_OPACITY = 0.25


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str, quote: bool = False) -> str:
    """``text`` with ``&``, ``<`` and ``>``, and with ``quote`` also ``"``, as
    XML entities (not ``xml.sax.saxutils``, whose import costs the command
    line about 15 ms)."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.replace('"', "&quot;") if quote else text


def _element(tag: str, body: str | list[str] | None = None, **attributes) -> str:
    """One SVG element, its attributes in the order given: a keyword's ``_`` is
    written ``-``, a None value is left out and a value is escaped.  A string
    body is escaped text, a list body is child elements, one per line; without
    a body the element closes itself."""
    attrs = "".join(
        f' {key.replace("_", "-")}="{_escape(str(value), quote=True)}"'
        for key, value in attributes.items()
        if value is not None
    )
    if body is None:
        return f"<{tag}{attrs}/>"
    if isinstance(body, str):
        return f"<{tag}{attrs}>{_escape(body)}</{tag}>"
    children = "".join(f"\n{child}" for child in body)
    return f"<{tag}{attrs}>{children}\n</{tag}>"


def _text(x, y, size: int, body: str, anchor: str | None = "middle", **attributes) -> str:
    return _element(
        "text", body, x=_fmt(x), y=_fmt(y), font_family="sans-serif",
        font_size=size, text_anchor=anchor, **attributes,
    )


def _line(x1, y1, x2, y2, stroke: str = "black", width: int = 1, dash: str | None = None) -> str:
    return _element(
        "line", x1=_fmt(x1), y1=_fmt(y1), x2=_fmt(x2), y2=_fmt(y2),
        stroke=stroke, stroke_width=width, stroke_dasharray=dash,
    )


def _points(xs, ys) -> str:
    return " ".join(_fmt(x) + "," + _fmt(y) for x, y in zip(xs, ys))


class Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._elements: list[str] = []

    def add(self, element: str) -> None:
        self._elements.append(element)

    def to_string(self) -> str:
        background = _element("rect", x=0, y=0, width=self.width, height=self.height, fill="white")
        return _element(
            "svg", [background, *self._elements],
            xmlns="http://www.w3.org/2000/svg", width=self.width, height=self.height,
            viewBox=f"0 0 {self.width} {self.height}",
        ) + "\n"


class Axes:
    """One panel: data-to-pixel mapping plus drawing layers."""

    def __init__(self, canvas: Canvas, rect, xlim, ylim, title: str = ""):
        self.canvas = canvas
        self.x0, self.y0, self.w, self.h = rect
        self.xlim = xlim
        self.ylim = ylim
        if title:
            canvas.add(_text(self.x0 + self.w / 2, self.y0 - 6, 12, title))

    def px(self, x, y):
        """Pixel coordinates of data coordinates, scalars or whole arrays."""
        fx = (np.asarray(x, dtype=float) - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        fy = (np.asarray(y, dtype=float) - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.x0 + fx * self.w, self.y0 + (1.0 - fy) * self.h

    def frame(self, xlabel: str = "", ylabel: str = "") -> None:
        add = self.canvas.add
        add(_element(
            "rect", x=_fmt(self.x0), y=_fmt(self.y0), width=_fmt(self.w),
            height=_fmt(self.h), fill="none", stroke="black", stroke_width=1,
        ))
        ticks = np.linspace(self.xlim[0], self.xlim[1], N_TICKS)
        xs, py = self.px(ticks, self.ylim[0])
        for tick, px in zip(ticks, xs):
            add(_line(px, py, px, py + 4))
            add(_text(px, py + 16, 10, f"{tick:.3g}"))
        ticks = np.linspace(self.ylim[0], self.ylim[1], N_TICKS)
        px, ys = self.px(self.xlim[0], ticks)
        for tick, py in zip(ticks, ys):
            add(_line(px - 4, py, px, py))
            add(_text(px - 7, py + 3, 10, f"{tick:.3g}", anchor="end"))
        if xlabel:
            add(_text(self.x0 + self.w / 2, self.y0 + self.h + 32, 11, xlabel))
        if ylabel:
            cx, cy = self.x0 - 38, self.y0 + self.h / 2
            add(_text(cx, cy, 11, ylabel, transform=f"rotate(-90 {_fmt(cx)} {_fmt(cy)})"))

    def polyline(self, xs, ys, stroke: str, width: float = 1.5, dash: str | None = None) -> None:
        self.canvas.add(_element(
            "polyline", points=_points(*self.px(xs, ys)), fill="none",
            stroke=stroke, stroke_width=width, stroke_dasharray=dash,
        ))

    def scatter(self, xs, ys, fill: str, css_class: str | None = None) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (
            np.isfinite(xs) & np.isfinite(ys)
            & (xs >= self.xlim[0]) & (xs <= self.xlim[1])
            & (ys >= self.ylim[0]) & (ys <= self.ylim[1])
        )
        style = dict(r=_fmt(POINT_RADIUS), fill=fill, fill_opacity=POINT_OPACITY)
        circles = [
            _element("circle", cx=_fmt(px), cy=_fmt(py), **style)
            for px, py in zip(*self.px(xs[keep], ys[keep]))
        ]
        self.canvas.add(_element("g", circles, **{"class": css_class}))

    def band(self, xs, lower, upper, fill: str) -> None:
        xs, upper = np.asarray(xs), np.asarray(upper)
        outline = self.px(np.concatenate([xs, xs[::-1]]), np.concatenate([lower, upper[::-1]]))
        self.canvas.add(_element(
            "polygon", points=_points(*outline), fill=fill, fill_opacity=BAND_OPACITY,
            stroke="none",
        ))

    def legend(self, entries: list[tuple[str, str, str]]) -> None:
        """entries: (label, color, style) with style 'line', 'dash' or 'dot'."""
        add = self.canvas.add
        lx = self.x0 + self.w - 150
        for i, (label, color, style) in enumerate(entries):
            y = self.y0 + 14 + 15 * i
            if style == "dot":
                add(_element("circle", cx=_fmt(lx + 12), cy=_fmt(y - 3), r=3, fill=color))
            else:
                add(_line(lx, y - 3, lx + 24, y - 3, color, 2, "5,4" if style == "dash" else None))
            add(_text(lx + 30, y, 10, label, anchor=None))
