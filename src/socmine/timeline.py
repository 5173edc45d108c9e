"""Per-tag cumulative daily series and curve-shape classification.

Shapes: 'linear' (constant use over the whole window), 'stepwise' (one or
few dominant single-day jumps, typical for media accounts), 'burst' (mass
concentrated around one event), 'other'. A document counts on the UTC day
of its epoch-second timestamp, floored, so a time before 1970 falls on
the day it names. A series is its tag, the window's days and its running
totals, one a day; the series of one window share one tuple of days.
"""

from __future__ import annotations

from datetime import date
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

from .corpus import _DAY, _EPOCH_ORDINAL, Corpus
from .ngrams import _writer_text

# Thresholds calibrated on the synthetic fixtures.
STEP_THRESHOLD = 0.4
BURST_THRESHOLD = 0.6
BURST_DAYS = 7
LINEAR_R2 = 0.95
MIN_TOTAL = 10


class CumulativeSeries(NamedTuple):
    """Running total of a tag's daily usage across the corpus window, which
    holds at least one day: totals[i] counts its documents up to days[i]."""

    tag: str
    days: tuple[date, ...]
    totals: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.totals[-1]

    def increments(self) -> list[int]:
        totals = self.totals
        return [totals[0]] + [b - a for a, b in zip(totals, totals[1:])]


class ShapeVerdict(NamedTuple):
    shape: str
    linearity_r2: float
    max_step_fraction: float
    burst_mass_fraction: float
    burst_window: tuple[date, date]
    reason: str | None = None


def cumulative_series_bulk(corpus: Corpus, tags: Iterable[str]) -> dict[str, CumulativeSeries]:
    """Build series for many tags in one corpus pass (one increment per
    document carrying the tag, bucketed on the document's UTC day)."""
    wanted = set(tags)
    first_day, last_day = (ts // _DAY for ts in corpus.window)
    days = tuple(date.fromordinal(_EPOCH_ORDINAL + day) for day in range(first_day, last_day + 1))
    increments: dict[str, list[int]] = {tag: [0] * len(days) for tag in wanted}
    for doc in corpus.documents:
        for tag in wanted.intersection(doc.hashtags):
            increments[tag][doc.timestamp // _DAY - first_day] += 1

    return {tag: CumulativeSeries(tag, days, tuple(accumulate(increments[tag]))) for tag in wanted}


def _r_squared(values: Sequence[int]) -> float:
    """r^2 of the least-squares line through (index, cumulative value)."""
    n = len(values)
    if n < 2:
        return 1.0
    mean_x = (n - 1) / 2
    mean_y = sum(values) / n
    sxx = sum((i - mean_x) ** 2 for i in range(n))
    sxy = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(values))
    ss_tot = sum((y - mean_y) ** 2 for y in values)
    if ss_tot == 0:
        return 1.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * i)) ** 2 for i, y in enumerate(values))
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def classify_shape(series: CumulativeSeries) -> ShapeVerdict:
    """Classify a cumulative curve.

    Precedence: stepwise beats burst beats linear, because a single step
    trivially inflates the burst mass and a near-step curve can still fit
    a line well.
    """
    days = series.days
    total = series.total
    increments = series.increments()

    window = min(BURST_DAYS, len(increments))
    mass = sum(increments[:window])
    best_mass, best_start = mass, 0
    for i in range(1, len(increments) - window + 1):
        mass += increments[i + window - 1] - increments[i - 1]
        if mass > best_mass:
            best_mass, best_start = mass, i
    burst_window = (days[best_start], days[best_start + window - 1])

    if total == 0:
        return ShapeVerdict("other", 0.0, 0.0, 0.0, burst_window, "series has no events")

    r2 = _r_squared(series.totals)
    max_step = max(increments) / total
    burst_mass = best_mass / total

    if total < MIN_TOTAL:
        return ShapeVerdict(
            "other", r2, max_step, burst_mass, burst_window,
            f"total {total} below minimum {MIN_TOTAL}",
        )
    if max_step >= STEP_THRESHOLD:
        shape = "stepwise"
    elif burst_mass >= BURST_THRESHOLD:
        shape = "burst"
    elif r2 >= LINEAR_R2:
        shape = "linear"
    else:
        shape = "other"
    return ShapeVerdict(shape, r2, max_step, burst_mass, burst_window)


def export_timeline(series: Sequence[CumulativeSeries], fmt: str = "csv") -> str:
    """Render series, one or more over one window, as CSV (date column + one
    column per tag) or an SVG chart (fmt "svg"). Columns, lines and legend
    entries keep the order of series."""
    return _export_csv(series) if fmt == "csv" else _export_svg(series)


def _export_csv(series: Sequence[CumulativeSeries]) -> str:
    dates = (day.isoformat() for day in series[0].days)
    columns = (s.totals for s in series)
    return _writer_text(chain([["date", *(s.tag for s in series)]], zip(dates, *columns)))


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_VIEW_W, _VIEW_H = 800, 400
_PLOT = {"left": 55, "right": 640, "top": 20, "bottom": 360}


def _escape(text: str) -> str:
    """XML character data: a tag may hold '&', '<' or '>'."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _export_svg(series: Sequence[CumulativeSeries]) -> str:
    axis = series[0].days
    max_value = max(1, max(s.total for s in series))
    span_x = _PLOT["right"] - _PLOT["left"]
    span_y = _PLOT["bottom"] - _PLOT["top"]
    steps = max(1, len(axis) - 1)

    def x_of(i: int) -> float:
        return _PLOT["left"] + span_x * i / steps

    def y_of(value: int) -> float:
        return _PLOT["bottom"] - span_y * value / max_value

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<line x1="{_PLOT["left"]}" y1="{_PLOT["bottom"]}" x2="{_PLOT["right"]}" '
        f'y2="{_PLOT["bottom"]}" stroke="black"/>',
        f'<line x1="{_PLOT["left"]}" y1="{_PLOT["top"]}" x2="{_PLOT["left"]}" '
        f'y2="{_PLOT["bottom"]}" stroke="black"/>',
        f'<text x="{_PLOT["left"]}" y="{_PLOT["bottom"] + 16}" font-size="11">'
        f"{axis[0].isoformat()}</text>",
        f'<text x="{_PLOT["right"] - 60}" y="{_PLOT["bottom"] + 16}" font-size="11">'
        f"{axis[-1].isoformat()}</text>",
        f'<text x="4" y="{_PLOT["top"] + 4}" font-size="11">{max_value}</text>',
        f'<text x="4" y="{_PLOT["bottom"] + 4}" font-size="11">0</text>',
    ]
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x_of(i):.2f},{y_of(cum):.2f}" for i, cum in enumerate(s.totals)
        )
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        legend_y = _PLOT["top"] + 8 + 18 * idx
        lines.append(
            f'<line x1="{_PLOT["right"] + 12}" y1="{legend_y}" x2="{_PLOT["right"] + 36}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{_PLOT["right"] + 42}" y="{legend_y + 4}" font-size="12">'
            f"{_escape(s.tag)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
