"""Plot-free reporting: ASCII charts.

The benchmark harness runs in terminals without display servers, so the
"figures" of this reproduction are rendered as monospace charts:
:func:`ascii_chart` draws a scatter/line chart on linear or log axes,
multi-series, suitable for the time-vs-n and time-vs-r sweeps.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

Number = float | int


def _transform(value: float, log: bool) -> float:
    if not log:
        return value
    if value <= 0:
        raise ValueError(f"log axis requires positive values, got {value}")
    return math.log10(value)


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 18,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more (x, y) series as a monospace chart.

    Each series gets a distinct marker; series points are plotted on a
    ``width × height`` grid with optional log axes.  Returns the chart as
    a multi-line string.
    """
    if not series or all(not points for points in series.values()):
        return f"{title}\n(no data)"
    markers = "•x+o#@%&"
    all_points = [p for points in series.values() for p in points]
    xs = [_transform(x, log_x) for x, _ in all_points]
    ys = [_transform(y, log_y) for _, y in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in points:
            column = round((_transform(x, log_x) - x_min) / x_span * (width - 1))
            row = round((_transform(y, log_y) - y_min) / y_span * (height - 1))
            grid[height - 1 - row][column] = marker

    def fmt(value: float, log: bool) -> str:
        real = 10**value if log else value
        return f"{real:.3g}"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top={fmt(y_max, log_y)}, bottom={fmt(y_min, log_y)})")
    border = "+" + "-" * width + "+"
    lines.append(border)
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append(border)
    lines.append(
        f"{x_label}: {fmt(x_min, log_x)} .. {fmt(x_max, log_x)}"
        + ("  [log-log]" if log_x and log_y else "")
    )
    legend = "  ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)

