"""Deterministic SVG line charts, no plotting dependencies.

The output is a plain string assembled from fixed-precision coordinates, so
the same series always produce byte-identical files. One <polyline> per
series; axes, ticks, and legend use other primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .errors import EmptySeriesError, ValidationError

# color-blind-friendly fixed palette, cycled per series
PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#222222",
)

_WIDTH = 720
_HEIGHT = 420
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 168
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 52


@dataclass
class Series:
    label: str
    xs: List[float]
    ys: List[float]


@dataclass
class AxesSpec:
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    log_x: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def emit_svg_linechart(series: Sequence[Series], axes: AxesSpec) -> str:
    """Render one or more line series to an SVG document string.

    Every series needs at least two finite points (plot a single run over
    at least two epochs, or drop it before calling). With log_x all x
    values must be positive.
    """
    if not series:
        raise EmptySeriesError("no series to plot")
    for s in series:
        if len(s.xs) != len(s.ys):
            raise ValidationError(f"series {s.label!r} has mismatched x/y lengths")
        if len(s.xs) < 2:
            raise EmptySeriesError(f"series {s.label!r} has fewer than two points")
        if not all(math.isfinite(v) for v in s.xs) or not all(math.isfinite(v) for v in s.ys):
            raise ValidationError(f"series {s.label!r} contains non-finite values")
        if axes.log_x and any(v <= 0 for v in s.xs):
            raise ValidationError(f"series {s.label!r} has non-positive x on a log axis")

    def tx(v: float) -> float:
        return math.log10(v) if axes.log_x else v

    all_x = [tx(v) for s in series for v in s.xs]
    all_y = [v for s in series for v in s.ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    # five percent padding on the value axis so lines stay off the frame
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    def line(x1, y1, x2, y2, stroke: str = "#333333", width: int = 1) -> None:
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   f'stroke="{stroke}" stroke-width="{width}"/>')

    def text(x, y, size: int, body: str, anchor: str = "middle", transform: str = "") -> None:
        anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
        transform_attr = f' transform="{transform}"' if transform else ""
        out.append(f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
                   f'font-size="{size}"{transform_attr}>{body}</text>')

    if axes.title:
        text(_WIDTH // 2, 24, 15, _escape(axes.title))

    # frame
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP + plot_h
    out.append(
        f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    # ticks: five per axis, equally spaced in plot coordinates
    n_ticks = 5
    for k in range(n_ticks):
        frac = k / (n_ticks - 1)
        gx = x_lo + frac * (x_hi - x_lo)
        x_pix = _fmt(_MARGIN_LEFT + frac * plot_w)
        line(x_pix, y1, x_pix, y1 + 5)
        text(x_pix, y1 + 18, 11, _tick_label(10.0 ** gx if axes.log_x else gx))
        y_pix = y1 - frac * plot_h
        line(x0 - 5, _fmt(y_pix), x0, _fmt(y_pix))
        text(x0 - 8, _fmt(y_pix + 4), 11, _tick_label(y_lo + frac * (y_hi - y_lo)), "end")

    if axes.x_label:
        text(_MARGIN_LEFT + plot_w // 2, _HEIGHT - 14, 12, _escape(axes.x_label))
    if axes.y_label:
        y_mid = _MARGIN_TOP + plot_h // 2
        text(16, y_mid, 12, _escape(axes.y_label), transform=f"rotate(-90 16 {y_mid})")

    # data series
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    # legend, to the right of the plot
    legend_x = x1 + 14
    for si, s in enumerate(series):
        ly = _MARGIN_TOP + 12 + si * 18
        line(legend_x, ly, legend_x + 18, ly, PALETTE[si % len(PALETTE)], 2)
        text(legend_x + 24, ly + 4, 11, _escape(s.label), anchor="")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def history_chart(histories, title: str) -> str:
    """Training-loss-per-epoch chart, one series per optimizer run.

    Runs with fewer than two recorded epochs are left out; emit_svg_linechart
    raises EmptySeriesError if that leaves nothing to plot.
    """
    series = [
        Series(label=h.optimizer, xs=[float(e) for e in h.epochs],
               ys=[float(v) for v in h.train_loss])
        for h in histories
        if len(h.train_loss) >= 2
    ]
    return emit_svg_linechart(series, AxesSpec(title=title, x_label="epoch", y_label="train loss"))


def lr_chart(probes, title: str) -> str:
    """Final-loss-versus-learning-rate chart on a log x axis.

    Diverged probes are excluded; emit_svg_linechart raises EmptySeriesError
    unless at least two survive.
    """
    xs = [p.learning_rate for p in probes if not p.diverged]
    ys = [p.final_loss for p in probes if not p.diverged]
    return emit_svg_linechart(
        [Series(label="final train loss", xs=xs, ys=ys)],
        AxesSpec(title=title, x_label="learning rate", y_label="final train loss", log_x=True),
    )
