"""Minimal self-contained SVG step plot for survival curves.

Emits axes, the right-continuous survival step path, and small tick
marks at censoring times.  Intentionally dependency-free: a survival
curve is just a step line.
"""

from __future__ import annotations

from html import escape

from .survival import KMCurve

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 60
_MARGIN_R = 20
_MARGIN_T = 36
_MARGIN_B = 48


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


def km_svg(curve: KMCurve, title: str = "Survival of injected sequences") -> str:
    """Render one Kaplan-Meier curve as an SVG document string."""
    t_max = float(curve.times.max(initial=1.0))

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(t: float) -> float:
        return _MARGIN_L + plot_w * (t / t_max)

    def sy(s: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - s)

    # step path: start at S(0) = 1, horizontal to each event, then drop
    path = [f"M {sx(0):.2f} {sy(1.0):.2f}"]
    level = 1.0
    event = curve.n_event > 0
    for t, s in zip(curve.times[event], curve.survival[event]):
        path.append(f"L {sx(float(t)):.2f} {sy(level):.2f}")
        path.append(f"L {sx(float(t)):.2f} {sy(float(s)):.2f}")
        level = float(s)
    path.append(f"L {sx(t_max):.2f} {sy(level):.2f}")

    # a censoring tick sits on the curve after any event at its time
    censored = curve.n_censored > 0
    censor_marks = []
    for t, s in zip(curve.times[censored].tolist(),
                    curve.survival[censored].tolist()):
        y = sy(s)
        x = sx(t)
        censor_marks.append(
            f'<line x1="{x:.2f}" y1="{y - 5:.2f}" x2="{x:.2f}" '
            f'y2="{y + 5:.2f}" stroke="#444" stroke-width="1"/>'
        )

    x_ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * t_max
        x = sx(t)
        x_ticks.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h:.2f}" '
            f'x2="{x:.2f}" y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#000"/>'
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20:.2f}" '
            f'text-anchor="middle" font-size="11">{_fmt(t)}</text>'
        )
    y_ticks = []
    for s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = sy(s)
        y_ticks.append(
            f'<line x1="{_MARGIN_L - 5:.2f}" y1="{y:.2f}" '
            f'x2="{_MARGIN_L:.2f}" y2="{y:.2f}" stroke="#000"/>'
            f'<text x="{_MARGIN_L - 9:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end" font-size="11">{_fmt(s)}</text>'
        )

    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">
<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>
<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="14">{escape(title, quote=False)}</text>
<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_MARGIN_T + plot_h}" stroke="#000"/>
<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" stroke="#000"/>
{''.join(x_ticks)}
{''.join(y_ticks)}
<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" font-size="12">flow index</text>
<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})">survival probability</text>
<path d="{' '.join(path)}" fill="none" stroke="#1f6fb2" stroke-width="2"/>
{''.join(censor_marks)}
</svg>
"""
