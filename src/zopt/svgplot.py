"""Minimal self-contained SVG line charts with log-log axes.

Presentation-only: the CSV files are the exact record, these charts exist so
an experiment directory can be inspected without any plotting stack.  Points
with nonpositive coordinates are dropped (log scale).
"""

from __future__ import annotations

import math

__all__ = ["write_log_log_chart"]

_WIDTH = 820
_HEIGHT = 560
_MARGIN_L = 80
_MARGIN_R = 30
_MARGIN_T = 50
_MARGIN_B = 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_X_LABEL = "iteration (log)"
_Y_LABEL = "value (log)"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape does this, but importing it loads urllib.request
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _decades(lo: float, hi: float) -> range:
    return range(math.ceil(lo), math.floor(hi) + 1)


def write_log_log_chart(
    path,
    curves: list[tuple[str, list[float], list[float]]],
    title: str,
) -> None:
    """Write an SVG chart; curves is a list of (label, xs, ys)."""
    cleaned = []
    for label, xs, ys in curves:
        pts = [
            (math.log10(x), math.log10(y))
            for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise ValueError("no positive finite points to plot")

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.03 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(lx: float) -> float:
        return _MARGIN_L + (lx - x_lo) / (x_hi - x_lo) * plot_w

    def sy(ly: float) -> float:
        return _MARGIN_T + (y_hi - ly) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    # frame
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )

    for d in _decades(x_lo, x_hi):
        px = sx(d)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">1e{d}</text>'
        )
    for d in _decades(y_lo, y_hi):
        py = sy(d)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{py:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">1e{d}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 16}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{_X_LABEL}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{_Y_LABEL}</text>'
    )

    for idx, (label, pts) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(lx):.2f},{sy(ly):.2f}" for lx, ly in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.6"/>'
        )
        ly = _MARGIN_T + 16 + 18 * idx
        lx = _MARGIN_L + plot_w - 190
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
