"""Delay-reliability machinery: the exponential violation surrogate, the
non-negative dual multiplier, and empirical reliability statistics over a
delay histogram: distinct delays and the number of packets at each.

The surrogate maps per-slot arrival/service imbalance to a differentiable
violation signal.  At perfect balance it equals the reliability target
chi_h, not 0, so the engine takes the excess over chi_h as the violation:
the dual ascends on, and the reward penalizes, only its positive part,
which appears only when arrivals outpace service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


EXP_CAP = 50.0      # the surrogate's exponent is capped here


def surrogate_y(arrivals: float, service: float, packet_bits: int,
                d_max_s: float, d_proc_s: float, chi_h: float) -> float:
    """Exponential delay-violation surrogate for one user and slot.

    ``arrivals`` and ``service`` are packet counts for the slot; the exponent
    is capped at ``EXP_CAP`` before exponentiation to avoid overflow.
    """
    if not d_max_s > d_proc_s:
        raise ValueError("d_max_s must exceed d_proc_s")
    exponent = ((arrivals - service) / packet_bits) * (d_max_s - d_proc_s)
    exponent = min(exponent, EXP_CAP)
    return math.exp(exponent) - (1.0 - chi_h)


@dataclass
class DualVariable:
    """Projected-ascent Lagrange multiplier; never negative."""

    value: float
    step: float

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("dual step must be > 0")
        self.value = max(self.value, 0.0)

    def update(self, y: float) -> float:
        """Ascend on positive violation only; project back to [0, inf)."""
        self.value = max(self.value + self.step * max(y, 0.0), 0.0)
        return self.value


# A delay age*slot_s + d_proc_s can round a few ulps above a deadline that it
# meets exactly (13 * 1e-3 + 5e-3 > 0.018); a relative tolerance far below one
# slot keeps such packets on time.
_ON_TIME_RTOL = 1e-9


def reliability(delays_s, counts, d_max_s: float) -> float:
    """Fraction of packets within the deadline, up to float rounding, from
    distinct delays ``delays_s`` and the number of packets at each; nan
    when there are no packets."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        return float("nan")
    on_time = np.asarray(delays_s, dtype=float) <= d_max_s * (1.0 + _ON_TIME_RTOL)
    return float(counts[on_time].sum() / total)


def delay_cdf(delays_s, counts) -> list[tuple[float, float]]:
    """Empirical CDF as (delay, cumulative fraction) pairs at the distinct
    delays ``delays_s``, ascending, with ``counts`` packets at each; empty
    when there are none."""
    counts = np.asarray(counts)
    cum = np.cumsum(counts) / counts.sum()
    return list(zip(np.asarray(delays_s, dtype=float).tolist(), cum.tolist()))
