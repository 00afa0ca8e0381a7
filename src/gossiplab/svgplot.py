"""Tiny SVG line charts for convergence curves, on numpy alone.

Data emission is CSV-first; this writer exists so a sweep or trajectory
can be eyeballed without any plotting stack.  The x axis is linear, the
y axis linear or log10, ticks are chosen crudely, and that is the whole
feature list.
"""
from __future__ import annotations

import math
import re

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44
_WIDTH, _HEIGHT = 640, 420


def line_chart(series, *, title="", xlabel="", ylabel="",
               log_y=False) -> str:
    """Render labeled (label, xs, ys) series to an SVG string.  Only the
    points with finite x and y are drawn, and with log_y only those with
    y > 0.  The points are filtered and scaled as float arrays."""
    if not series:
        raise ValueError("no series to plot")
    pts = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series length mismatch")
        xy = np.array((xs, ys), dtype=float)
        xy = xy[:, np.isfinite(xy).all(0) & ((xy[1] > 0) | (not log_y))]
        if log_y:       # math.log10 per value: its bits, not np.log10's
            xy[1] = [math.log10(b) for b in xy[1].tolist()]
        pts.append(xy)
    drawn = [xy for xy in pts if xy.size]
    if not drawn:
        raise ValueError("no finite points to plot")
    x0, y0 = np.min([xy.min(1) for xy in drawn], 0).tolist()
    x1, y1 = np.max([xy.max(1) for xy in drawn], 0).tolist()
    # a single value spans +1.0, or 2**-20 of itself toward zero where
    # adding 1.0 leaves it unchanged
    if x1 == x0:
        x0, x1 = sorted((x0, x0 + 1.0 if x0 + 1.0 != x0 else x0 - x0 / 2**20))
    if y1 == y0:
        y0, y1 = sorted((y0, y0 + 1.0 if y0 + 1.0 != y0 else y0 - y0 / 2**20))
    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x0) / (x1 - x0) * iw

    def py(y):
        return _MARGIN_T + ih - (y - y0) / (y1 - y0) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle">{title}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xl = f"{xv:.3g}"
        yl = f"1e{yv:.1f}" if log_y else f"{yv:.3g}"
        out.append(f'<line x1="{px(xv):.1f}" y1="{_MARGIN_T + ih}" x2="{px(xv):.1f}" '
                   f'y2="{_MARGIN_T + ih + 4}" stroke="#333"/>')
        out.append(f'<text x="{px(xv):.1f}" y="{_MARGIN_T + ih + 16}" '
                   f'text-anchor="middle">{xl}</text>')
        out.append(f'<line x1="{_MARGIN_L - 4}" y1="{py(yv):.1f}" x2="{_MARGIN_L}" '
                   f'y2="{py(yv):.1f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{py(yv) + 3:.1f}" '
                   f'text-anchor="end">{yl}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN_L + iw / 2:.1f}" y="{_HEIGHT - 8}" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{_MARGIN_T + ih / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 14 {_MARGIN_T + ih / 2:.1f})">{ylabel}</text>')
    for i, ((label, _, _), curve) in enumerate(zip(series, pts)):
        color = _PALETTE[i % len(_PALETTE)]
        if curve.size:
            path = " ".join(map("{:.2f},{:.2f}".format, px(curve[0]).tolist(),
                                py(curve[1]).tolist()))
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        lx = _MARGIN_L + iw - 8
        ly = _MARGIN_T + 14 + 14 * i
        out.append(f'<line x1="{lx - 30}" y1="{ly - 4}" x2="{lx - 10}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx - 34}" y="{ly}" text-anchor="end">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_chart(path, series, header_lines=(), **kwargs) -> None:
    """Write a chart; header lines become XML comments before the root.
    XML forbids "--" in a comment, so a space goes between any two
    hyphens of a line, and the space before "-->" keeps a line that ends
    in "-" from ending the comment with it."""
    with open(path, "w") as f:
        for ln in header_lines:
            f.write(f"<!-- {re.sub('-(?=-)', '- ', ln)} -->\n")
        f.write(line_chart(series, **kwargs))
