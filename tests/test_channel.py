import numpy as np
import pytest

from slicesched.channel import (all_user_rates, derive_prb_bandwidth,
                                draw_channel, rate_matrix)
from slicesched.config import ScenarioConfig
from slicesched.engine import CHANNEL, stream
from slicesched.schedulers import Allocation

CFG = ScenarioConfig()      # mean SNR 10, 25 PRBs of 400 kHz
SNR, B_K = CFG.mean_snr_linear, derive_prb_bandwidth(CFG)


# scalar oracles for rate_matrix and all_user_rates

def prb_rate(gain_sq: float, mean_snr: float, b_k_hz: float) -> float:
    """Achievable rate on one PRB in bits/s: B_k * log2(1 + snr*|h|^2)."""
    return b_k_hz * np.log2(1.0 + mean_snr * gain_sq)


def user_rate(gain_sq: np.ndarray, alloc: Allocation, user: int) -> float:
    """Total bits/s for a user: sum of its assigned PRBs' rates."""
    prbs = [j for j, u in enumerate(alloc.assignment) if u == user]
    if not prbs:
        return 0.0
    return float(sum(prb_rate(gain_sq[user, j], SNR, B_K) for j in prbs))


def test_draw_shapes_and_nonnegativity(default_cfg):
    gain_sq = draw_channel(default_cfg, np.random.default_rng(0), 3)
    assert gain_sq.shape == (3, default_cfg.num_users, default_cfg.num_prbs)
    assert np.all(gain_sq >= 0)


def test_draw_unit_mean_exponential(default_cfg):
    gain_sq = draw_channel(default_cfg, np.random.default_rng(1), 6)
    total, n = gain_sq.sum(), gain_sq.size
    big = np.random.default_rng(2).exponential(1.0, size=1_000_000)
    assert big.mean() == pytest.approx(1.0, abs=0.01)
    assert total / n == pytest.approx(1.0, abs=0.1)


def test_draw_deterministic_per_seed(default_cfg):
    a = draw_channel(default_cfg, stream(9, CHANNEL), 4)
    b = draw_channel(default_cfg, stream(9, CHANNEL), 4)
    assert np.array_equal(a, b)


def test_prb_rate_reference_points():
    assert prb_rate(1.0, 1.0, 4e5) == pytest.approx(4e5)     # log2(2) = 1
    assert prb_rate(0.0, 10.0, 4e5) == 0.0                   # deep fade
    assert prb_rate(3.0, 1.0, 4e5) == pytest.approx(8e5)     # log2(4) = 2


def test_prb_rate_monotone():
    r0 = prb_rate(1.0, 10.0, 4e5)
    assert prb_rate(2.0, 10.0, 4e5) > r0
    assert prb_rate(1.0, 20.0, 4e5) > r0
    assert prb_rate(1.0, 10.0, 8e5) > r0


def test_rate_matrix_matches_scalar_rate():
    gain_sq = np.random.default_rng(3).exponential(1.0, size=(3, 4))
    mat = rate_matrix(CFG, gain_sq)
    for u in range(3):
        for j in range(4):
            assert mat[u, j] == pytest.approx(prb_rate(gain_sq[u, j], 10.0, 4e5))


def test_user_rate_empty_and_additive():
    gain_sq = np.array([[1.0, 1.0, 3.0], [0.5, 0.2, 0.1]])
    alloc = Allocation(np.array([0, 0, 0]))
    assert user_rate(gain_sq, alloc, 1) == 0.0
    expected = 4e5 * (2 * np.log2(1 + 10.0) + np.log2(1 + 30.0))
    assert user_rate(gain_sq, alloc, 0) == pytest.approx(expected)


def test_total_rate_partition_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        gains = rng.exponential(1.0, size=(5, 8))
        assignment = rng.integers(0, 5, size=8)
        alloc = Allocation(assignment)
        total_by_user = sum(user_rate(gains, alloc, u) for u in range(5))
        mat = rate_matrix(CFG, gains)
        total_by_prb = sum(mat[assignment[j], j] for j in range(8))
        assert total_by_user == pytest.approx(total_by_prb)
        achieved = all_user_rates(mat, assignment)
        assert np.allclose(achieved, [user_rate(gains, alloc, u) for u in range(5)])
        # bit-exact against accumulation in PRB order
        oracle = np.zeros(5)
        for j, u in enumerate(assignment):
            oracle[u] += mat[u, j]
        assert np.array_equal(achieved, oracle)
