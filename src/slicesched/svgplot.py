"""Dependency-free SVG rendering of line charts, step CDFs and bars.

Output is deterministic text: identical specs produce byte-identical
documents, so figures are diff-able in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple  # ((x, y), ...)


@dataclass(frozen=True)
class ChartSpec:
    kind: str                      # "line" | "cdf" | "bar"
    series: tuple                  # tuple[Series, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    v_refs: tuple = ()             # dashed vertical reference x positions
    h_refs: tuple = ()             # dashed horizontal reference y positions

    def __post_init__(self) -> None:
        if self.kind not in ("line", "cdf", "bar"):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if not self.series or any(not s.points for s in self.series):
            raise ValueError("chart needs at least one non-empty series")
        if self.kind == "bar" and len({len(s.points) for s in self.series}) > 1:
            raise ValueError("bar series need one point per group each")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _extent(spec: ChartSpec) -> tuple[float, float, float, float]:
    xs = [p[0] for s in spec.series for p in s.points] + list(spec.v_refs)
    ys = [p[1] for s in spec.series for p in s.points] + list(spec.h_refs)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    # 5% padding; degenerate ranges widen to a unit span
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return x0 - 0.05 * dx, x1 + 0.05 * dx, y0 - 0.05 * dy, y1 + 0.05 * dy


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_svg(spec: ChartSpec) -> str:
    x0, x1, y0, y1 = _extent(spec)
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * pw

    def sy(y: float) -> float:
        return MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333"/>',
    ]
    if spec.title:
        parts.append(f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{spec.title}</text>')
    if spec.kind == "bar":
        # bars stand in groups by point index, not at their x value: one tick
        # per group, labelled with its x value, at the centre of its bars
        # (series si spans (si + 0.5) to (si + 1.4) bar widths into the slot)
        groups = spec.series[0].points
        slot_w = pw / len(groups)
        bar_w = slot_w / (len(spec.series) + 1)
        center = bar_w * (len(spec.series) + 0.9) / 2
        x_ticks = [(MARGIN_L + bi * slot_w + center, x)
                   for bi, (x, _) in enumerate(groups)]
    else:
        x_ticks = [(sx(tx), tx) for tx in _ticks(x0, x1)]
    for px, tx in x_ticks:
        parts.append(f'<line x1="{_fmt(px)}" y1="{MARGIN_T + ph}" '
                     f'x2="{_fmt(px)}" y2="{MARGIN_T + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{MARGIN_T + ph + 18}" '
                     f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y0, y1):
        py = sy(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end">{_fmt(ty)}</text>')
    if spec.x_label:
        parts.append(f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 10}" '
                     f'text-anchor="middle">{spec.x_label}</text>')
    if spec.y_label:
        cy = MARGIN_T + ph // 2
        parts.append(f'<text x="18" y="{cy}" text-anchor="middle" '
                     f'transform="rotate(-90 18 {cy})">{spec.y_label}</text>')

    for xr in spec.v_refs:
        px = sx(xr)
        parts.append(f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" '
                     f'y2="{MARGIN_T + ph}" stroke="#555" '
                     'stroke-dasharray="6,4" class="ref-v"/>')
    for yr in spec.h_refs:
        py = sy(yr)
        parts.append(f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" '
                     f'x2="{MARGIN_L + pw}" y2="{_fmt(py)}" stroke="#555" '
                     'stroke-dasharray="6,4" class="ref-h"/>')

    for si, series in enumerate(spec.series):
        color = PALETTE[si % len(PALETTE)]
        pts = list(series.points)
        if spec.kind == "line":
            if len(pts) == 1:
                x, y = pts[0]
                parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                             f'r="3" fill="{color}" class="marker"/>')
            else:
                coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
                parts.append(f'<polyline points="{coords}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        elif spec.kind == "cdf":
            coords = []
            prev_y = 0.0
            for x, y in pts:
                coords.append(f"{_fmt(sx(x))},{_fmt(sy(prev_y))}")
                coords.append(f"{_fmt(sx(x))},{_fmt(sy(y))}")
                prev_y = y
            if len(pts) == 1:
                x, y = pts[0]
                parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                             f'r="3" fill="{color}" class="marker"/>')
            parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        else:  # bar: slot_w and bar_w as for the ticks
            for bi, (x, y) in enumerate(pts):
                bx = MARGIN_L + bi * slot_w + (si + 0.5) * bar_w
                by = sy(y)
                base = sy(max(y0, 0.0))
                top = min(by, base)
                parts.append(f'<rect x="{_fmt(bx)}" y="{_fmt(top)}" '
                             f'width="{_fmt(bar_w * 0.9)}" '
                             f'height="{_fmt(abs(base - by))}" fill="{color}"/>')
        lx = WIDTH - MARGIN_R + 12
        ly = MARGIN_T + 16 + 18 * si
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="9" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}">{series.label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
