"""Static SVG chart of mean overhead vs. call chain depth.

One polyline per configuration through its (depth, mean) points, with a
translucent band spanning mean ± stddev around each curve. Output is
plain SVG text built deterministically: identical input produces
byte-identical output.
"""

from __future__ import annotations

from .stats import SummaryStats

__all__ = ["render_depth_chart"]

_WIDTH = 860
_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 190
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 55
_TITLE = "Mean overhead vs. call chain depth"

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_depth_chart(results: dict[tuple[str, int], SummaryStats]) -> str:
    """Render sweep results keyed by (config_id, depth) as SVG text."""
    if not results:
        raise ValueError("no results to plot")
    configs: list[str] = []
    for config_id, _ in results:
        if config_id not in configs:
            configs.append(config_id)
    depths = sorted({d for _, d in results})
    if len(depths) < 2:
        raise ValueError(f"need at least 2 depths to plot, got {len(depths)}")

    series: dict[str, list[tuple[int, float, float]]] = {}
    for config_id in configs:
        points = [(d, results[(config_id, d)].mean, results[(config_id, d)].stddev)
                  for d in depths if (config_id, d) in results]
        if len(points) < 2:
            raise ValueError(f"config {config_id!r} has fewer than 2 depth points")
        series[config_id] = points

    x_min, x_max = min(depths), max(depths)
    y_max = max(mean + sd for pts in series.values() for _, mean, sd in pts)
    y_min = 0.0
    if y_max <= y_min:
        y_max = y_min + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(depth: float) -> float:
        return _MARGIN_LEFT + (depth - x_min) / (x_max - x_min) * plot_w

    def sy(value: float) -> float:
        return _MARGIN_TOP + (1.0 - (value - y_min) / (y_max - y_min)) * plot_h

    svg = []
    svg.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">'
    )
    svg.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    svg.append(
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{_TITLE}</text>'
    )

    # Axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    svg.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#333"/>')
    svg.append(f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="#333"/>')
    svg.append(
        f'<text x="{x0 + plot_w // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">call chain depth</text>'
    )
    svg.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h // 2})">mean overhead (µs)</text>'
    )

    # X ticks at each measured depth
    for d in depths:
        x = sx(d)
        svg.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 5}" stroke="#333"/>')
        svg.append(
            f'<text x="{_fmt(x)}" y="{y0 + 20}" text-anchor="middle" font-size="11">{d}</text>'
        )

    # Y ticks: 5 evenly spaced gridlines
    for i in range(6):
        value = y_min + (y_max - y_min) * i / 5
        y = sy(value)
        svg.append(
            f'<line x1="{x0}" y1="{_fmt(y)}" x2="{x0 + plot_w}" y2="{_fmt(y)}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        svg.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11">{value:.2f}</text>'
        )

    # Bands then curves (curves drawn on top)
    for idx, config_id in enumerate(configs):
        color = _PALETTE[idx % len(_PALETTE)]
        points = series[config_id]
        upper = [(sx(d), sy(mean + sd)) for d, mean, sd in points]
        lower = [(sx(d), sy(max(mean - sd, y_min))) for d, mean, sd in points]
        band = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in upper + lower[::-1])
        svg.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.2" stroke="none"/>')
    for idx, config_id in enumerate(configs):
        color = _PALETTE[idx % len(_PALETTE)]
        points = series[config_id]
        line = " ".join(f"{_fmt(sx(d))},{_fmt(sy(mean))}" for d, mean, _ in points)
        svg.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for d, mean, _ in points:
            svg.append(
                f'<circle cx="{_fmt(sx(d))}" cy="{_fmt(sy(mean))}" r="3" fill="{color}"/>'
            )

    # Legend
    lx = _WIDTH - _MARGIN_RIGHT + 15
    for idx, config_id in enumerate(configs):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = _MARGIN_TOP + 10 + idx * 20
        svg.append(f'<rect x="{lx}" y="{ly - 9}" width="14" height="10" fill="{color}"/>')
        svg.append(f'<text x="{lx + 20}" y="{ly}" font-size="12">{config_id}</text>')

    svg.append("</svg>")
    return "\n".join(svg) + "\n"
