"""Small self-contained SVG line plots; no plotting dependency."""
from __future__ import annotations

import numpy as np

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 640.0, 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 36.0, 56.0
_PALETTE = ("#1f6fb2", "#c03a2b", "#2e8b57", "#8a5cb8", "#b8860b", "#444444")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    # XML text content, as xml.sax.saxutils.escape writes it; importing that
    # module loads urllib.request, http.client and ssl, ~2 MB of peak RSS
    # per run.  "&" goes first, so the entities added after it stay intact.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return list(np.linspace(lo, hi, count))


def line_plot(
    x: "np.ndarray | list[float]",
    series: dict[str, "np.ndarray | list[float]"],
    xlabel: str,
    ylabel: str,
    title: str = "",
    logy: bool = False,
) -> str:
    """Render one or more named curves over a shared x grid.

    With logy, y values must be positive and the axis shows the raw values
    on a log10 scale.  Output is a standalone <svg> document string; the
    title, the axis labels and the series names are escaped as XML text.
    """
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("x must be a nonempty 1-d array")
    curves: dict[str, np.ndarray] = {}
    for name, ys in series.items():
        arr = np.asarray(ys, dtype=np.float64)
        if arr.shape != xs.shape:
            raise ValueError(f"series {name!r} length differs from x")
        if logy and np.any(arr <= 0.0):
            raise ValueError(f"series {name!r} must be positive for logy")
        curves[name] = arr

    def ty(v: np.ndarray) -> np.ndarray:
        return np.log10(v) if logy else v

    all_y = np.concatenate([ty(a) for a in curves.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    # No padding where the padded axis or its length is not a finite
    # double (values near DBL_MAX), or every point would be placed at nan.
    if np.isfinite((y_hi + pad) - (y_lo - pad)):
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(v: float) -> float:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} '
        f'{_HEIGHT:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    axis = (
        f'<path d="M {_fmt(_LEFT)} {_fmt(_TOP)} L {_fmt(_LEFT)} '
        f'{_fmt(_TOP + plot_h)} L {_fmt(_LEFT + plot_w)} {_fmt(_TOP + plot_h)}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(axis)
    for tx in _ticks(x_lo, x_hi):
        gx = px(tx)
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(_TOP + plot_h)}" x2="{_fmt(gx)}" '
            f'y2="{_fmt(_TOP + plot_h + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{_fmt(_TOP + plot_h + 20)}" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        gy = py(tv)
        label = 10.0 ** tv if logy else tv
        parts.append(
            f'<line x1="{_fmt(_LEFT - 5)}" y1="{_fmt(gy)}" x2="{_fmt(_LEFT)}" '
            f'y2="{_fmt(gy)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(_LEFT - 9)}" y="{_fmt(gy + 4)}" '
            f'text-anchor="end">{label:.3g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 12)}" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(_TOP + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(_TOP + plot_h / 2)})">{_escape(ylabel)}</text>'
    )
    for k, (name, ys) in enumerate(curves.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px(float(a)))},{_fmt(py(float(b)))}" for a, b in zip(xs, ty(ys))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for a, b in zip(xs, ty(ys)):
            parts.append(
                f'<circle cx="{_fmt(px(float(a)))}" cy="{_fmt(py(float(b)))}" '
                f'r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_fmt(_LEFT + plot_w - 6)}" y="{_fmt(_TOP + 14 + 16 * k)}" '
            f'text-anchor="end" fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
