"""Minimal self-contained SVG line plots, no plotting dependency.

Deterministic output: fixed palette, fixed float formatting, no
timestamps, so identical data yields byte-identical text.
"""

from __future__ import annotations

import math

__all__ = ["line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    n = 5  # ticks per axis
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """SVG text of a line plot, 640 x 420 pixels.

    ``series`` is a list of (label, xs, ys) triples; axes are scaled to
    the joint data range with a small margin.
    """
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 64, 16, 32, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(sx(tx))}" y1="{margin_t + plot_h}" '
            f'x2="{_fmt(sx(tx))}" y2="{margin_t + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(tx))}" y="{margin_t + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt(tx)}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{margin_l - 4}" y1="{_fmt(sy(ty))}" x2="{margin_l}" '
            f'y2="{_fmt(sy(ty))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{_fmt(sy(ty) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 16 * i
        parts.append(
            f'<line x1="{margin_l + plot_w - 110}" y1="{ly - 4}" '
            f'x2="{margin_l + plot_w - 90}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin_l + plot_w - 84}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
