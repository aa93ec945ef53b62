"""Minimal SVG emission: 2-d scatters and energy-vs-n line charts.

Plain text output keeps the artifact free of plotting dependencies.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_SIZE = 480
_MARGIN = 40


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values) - lo) * (out_hi - out_lo) / span


def _canvas(title: str, *marks: str) -> list:
    """The opening <svg> and white <rect> tags, then ``marks``, then the title
    <text> when there is one: the start of a chart's list of tags."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        *marks,
    ]
    if title:
        parts.append(f'<text x="{_SIZE // 2}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">{title}</text>')
    return parts


def scatter_svg(points: np.ndarray, labels: Optional[Sequence[int]] = None,
                title: str = "") -> str:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("scatter needs (n, 2) points")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    pad = 0.05 * max(float((hi - lo).max()), 1e-9)
    lo, hi = lo - pad, hi + pad
    xs = _scale(points[:, 0], lo[0], hi[0], _MARGIN, _SIZE - _MARGIN)
    ys = _scale(points[:, 1], lo[1], hi[1], _SIZE - _MARGIN, _MARGIN)
    parts = _canvas(title)
    for i in range(len(points)):
        color = _PALETTE[(labels[i] if labels is not None else 0) % len(_PALETTE)]
        parts.append(f'<circle cx="{xs[i]:.2f}" cy="{ys[i]:.2f}" r="3" '
                     f'fill="{color}" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart_svg(xs: Sequence[float], series: dict, title: str = "") -> str:
    """Each series against log2 of xs; a None or non-finite value is left
    out of both the y-range and the line."""
    xs = np.log2(np.asarray(xs, dtype=float))
    ys_all = [float(y) for ys in series.values() for y in ys
              if y is not None and math.isfinite(y)]
    y_lo, y_hi = min(ys_all, default=0.0), max(ys_all, default=0.0)
    pad = 0.05 * max(y_hi - y_lo, 1e-9)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(xs.min()), float(xs.max())
    parts = _canvas(title,
                    f'<line x1="{_MARGIN}" y1="{_SIZE - _MARGIN}" x2="{_SIZE - _MARGIN}" '
                    f'y2="{_SIZE - _MARGIN}" stroke="black"/>',
                    f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
                    f'y2="{_SIZE - _MARGIN}" stroke="black"/>')
    for idx, (name, ys) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            (float(_scale(x, x_lo, x_hi, _MARGIN, _SIZE - _MARGIN)),
             float(_scale(y, y_lo, y_hi, _SIZE - _MARGIN, _MARGIN)))
            for x, y in zip(xs, ys) if y is not None and math.isfinite(y)
        ]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{_SIZE - _MARGIN}" y="{_MARGIN + 14 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
