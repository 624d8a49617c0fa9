"""Plain-text rendering helpers for experiment results.

The paper's figures are bar charts; these helpers render comparable
ASCII bars so results can be eyeballed in a terminal or pasted into
EXPERIMENTS.md without a plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["bar", "bar_chart", "histogram"]


def bar(value: float, scale: float, width: int = 40, fill: str = "#") -> str:
    """One bar of ``value`` out of ``scale``, ``width`` chars at full scale."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = int(round(min(max(value / scale, 0.0), 1.0) * width))
    return fill * n


def bar_chart(
    data: Mapping[str, float],
    width: int = 40,
    fmt: str = "{:.3f}",
) -> str:
    """Horizontal bar chart of label -> value.

    >>> print(bar_chart({"a": 2.0, "b": 1.0}, width=4))
    a 2.000 ####
    b 1.000 ##
    """
    if not data:
        return "(no data)"
    top = max(data.values())
    if top <= 0:
        top = 1.0
    label_w = max(len(k) for k in data)
    lines = []
    for k, v in data.items():
        lines.append(
            f"{k:<{label_w}} {fmt.format(v)} {bar(v, top, width)}"
        )
    return "\n".join(lines)


def histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 30,
) -> str:
    """Text histogram of a sample (e.g. read latencies)."""
    if not values:
        return "(no data)"
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = min(values), max(values)
    if hi == lo:
        return f"[{lo:.6g}] x{len(values)}"
    span = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / span), bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, c in enumerate(counts):
        left = lo + i * span
        lines.append(
            f"[{left:10.6g}, {left + span:10.6g}) {c:>6} {bar(c, peak, width)}"
        )
    return "\n".join(lines)
