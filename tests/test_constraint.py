import math

import numpy as np
import pytest

from slicesched.constraint import (EXP_CAP, DualVariable, delay_cdf,
                                   reliability, surrogate_y)


def test_surrogate_balance_point():
    # arrivals == service -> exponent 0 -> 1 - (1 - chi)
    assert surrogate_y(7, 7, 1000, 20e-3, 5e-3, 0.98) == pytest.approx(0.98)


def test_surrogate_unit_exponent():
    # packet size 1 and a 1-second margin make the exponent exactly A - r
    y = surrogate_y(1, 0, 1, 1.0 + 5e-3, 5e-3, 0.98)
    assert y == pytest.approx(math.e - 0.02)


def test_surrogate_large_service_limit():
    y = surrogate_y(0, 10_000_000, 1000, 20e-3, 5e-3, 0.98)
    assert y == pytest.approx(-0.02, abs=1e-9)


def test_surrogate_exponent_cap():
    y = surrogate_y(10**12, 0, 1, 1.0 + 5e-3, 5e-3, 0.98)
    assert y == pytest.approx(math.exp(EXP_CAP) - 0.02)
    assert math.isfinite(y)


def test_surrogate_monotone_in_excess():
    prev = -np.inf
    for excess in range(-5, 6):
        y = surrogate_y(excess, 0, 1, 1.0 + 5e-3, 5e-3, 0.98)
        assert y > prev
        prev = y


def test_surrogate_monotone_in_margin():
    lo = surrogate_y(3, 0, 1, 0.5, 0.0, 0.98)
    hi = surrogate_y(3, 0, 1, 1.0, 0.0, 0.98)
    assert hi > lo


def test_surrogate_requires_positive_margin():
    with pytest.raises(ValueError):
        surrogate_y(1, 1, 1000, 5e-3, 5e-3, 0.98)


def test_dual_single_ascent_step():
    dv = DualVariable(value=0.5, step=0.1)
    assert dv.update(0.98) == pytest.approx(0.598)


def test_dual_ignores_negative_violation():
    dv = DualVariable(value=0.0, step=0.1)
    assert dv.update(-0.02) == 0.0
    dv2 = DualVariable(value=0.3, step=0.1)
    assert dv2.update(0.0) == pytest.approx(0.3)


def test_dual_never_negative_under_random_updates():
    dv = DualVariable(value=0.0, step=0.05)
    rng = np.random.default_rng(0)
    for y in rng.normal(0.0, 3.0, 10_000):
        assert dv.update(float(y)) >= 0.0


def test_dual_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        DualVariable(value=0.0, step=0.0)


def test_dual_clips_negative_initial_value():
    assert DualVariable(value=-1.0, step=0.1).value == 0.0


def _hist(delays):
    """Distinct delays and their counts, as the delay histogram gives them."""
    return np.unique(np.asarray(delays, dtype=float), return_counts=True)


def test_reliability_counting():
    assert reliability([10e-3, 15e-3, 30e-3], [1, 1, 1], 20e-3) == \
        pytest.approx(2 / 3)
    assert reliability([1e-3, 2e-3], [1, 1], 20e-3) == 1.0
    assert reliability([1e-3, 2e-3], [1, 1], 0.0) == 0.0
    # each distinct delay weighs as many packets as it counts
    assert reliability([10e-3, 30e-3], [3, 1], 20e-3) == 0.75


def test_reliability_counts_rounded_on_time_delays():
    # 13 slots of 1 ms plus 5 ms processing is 0.018000000000000002 in float
    assert reliability([13 * 1e-3 + 5e-3], [1], 0.018) == 1.0
    assert reliability([14 * 1e-3 + 5e-3], [1], 0.018) == 0.0
    for d_max_ms in (9, 13, 14, 18, 22, 23, 26, 30, 31):
        d_max = float(f"{d_max_ms}e-3")
        age = d_max_ms - 5
        assert reliability([age * 1e-3 + 5e-3], [1], d_max) == 1.0, d_max_ms
        assert reliability([(age + 1) * 1e-3 + 5e-3], [1], d_max) == 0.0, \
            d_max_ms


def test_reliability_empty_sample():
    assert math.isnan(reliability([], [], 20e-3))
    assert delay_cdf([], []) == []


def test_delay_cdf_reference():
    cdf = delay_cdf([5e-3, 10e-3], [2, 1])
    assert cdf[0] == (pytest.approx(5e-3), pytest.approx(2 / 3))
    assert cdf[1] == (pytest.approx(10e-3), pytest.approx(1.0))


def test_delay_cdf_single_sample():
    assert delay_cdf([7e-3], [1]) == [(pytest.approx(7e-3), pytest.approx(1.0))]


def test_delay_cdf_monotone_and_bounded():
    rng = np.random.default_rng(1)
    cdf = delay_cdf(*_hist(rng.exponential(10e-3, 500)))
    fracs = [f for _, f in cdf]
    assert fracs == sorted(fracs)
    assert 0.0 < fracs[0] <= 1.0 and fracs[-1] == pytest.approx(1.0)


def test_delay_cdf_consistent_with_reliability():
    rng = np.random.default_rng(2)
    values, counts = _hist(rng.exponential(10e-3, 1000))
    d_max = 20e-3
    cdf = delay_cdf(values, counts)
    at_threshold = max((f for d, f in cdf if d <= d_max), default=0.0)
    assert at_threshold == pytest.approx(reliability(values, counts, d_max))
