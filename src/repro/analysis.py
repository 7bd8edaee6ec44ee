"""Scaling analysis helpers for the experiments.

EXPERIMENTS.md claims are about *shapes*: "preprocessing is pseudo-linear",
"lookups are flat in n".  :func:`fit_exponent` turns a measured series
into the exponent ``e`` of the best least-squares fit ``y ~ c * x^e``
(log-log regression), and :func:`flatness` quantifies how constant a
series is.  Pure Python — no numpy dependency in the library proper.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of ``y = c * x^e`` in log-log space.

    Returns ``(e, c)``.  Needs at least two distinct positive x values.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    points = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(points) < 2 or len({x for x, _ in points}) < 2:
        raise ValueError("need at least two distinct positive samples")
    log_x = [math.log(x) for x, _ in points]
    log_y = [math.log(y) for _, y in points]
    n = len(points)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((lx - mean_x) ** 2 for lx in log_x)
    if sxx <= 0.0:
        # distinct floats can share a log (e.g. adjacent values near 1e300)
        raise ValueError("need at least two distinct positive x values")
    sxy = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    exponent = sxy / sxx
    constant = math.exp(mean_y - exponent * mean_x)
    return exponent, constant


def flatness(ys: Sequence[float]) -> float:
    """``max / min`` of a positive series — 1.0 means perfectly constant.

    The experiments call a query-time series "constant in n" when its
    flatness stays within a small factor while n grows 16x.
    """
    positive = [y for y in ys if y > 0]
    if not positive:
        raise ValueError("need at least one positive sample")
    return max(positive) / min(positive)
