"""Rayleigh fading draws and Shannon achievable rates per PRB.

Transmit power and noise variance are folded into a single configured mean
SNR (equal power per PRB); only their product enters the rate formula.
Fading is i.i.d. across users, PRBs and slots.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig


def derive_prb_bandwidth(cfg: ScenarioConfig) -> float:
    """PRB width in Hz: total bandwidth split evenly over the PRB grid."""
    return cfg.total_bandwidth_hz / cfg.num_prbs


def draw_channel(cfg: ScenarioConfig, rng: np.random.Generator, slots: int) -> np.ndarray:
    """Fresh i.i.d. Rayleigh draws: the (S, U, K) block of squared gains,
    |h|^2 ~ Exp(1) per slot per user per PRB."""
    return rng.exponential(1.0, size=(slots, cfg.num_users, cfg.num_prbs))


def rate_matrix(cfg: ScenarioConfig, gain_sq: np.ndarray) -> np.ndarray:
    """Per-PRB achievable rates in bits/s, elementwise on the squared gains:
    bandwidth * log2(1 + snr * |h|^2), built in one buffer."""
    rates = np.multiply(gain_sq, cfg.mean_snr_linear)
    rates += 1.0
    np.log2(rates, out=rates)
    rates *= derive_prb_bandwidth(cfg)
    return rates


def all_user_rates(rates: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Achieved bits/s per user: each user's sum of its assigned PRBs' rates
    in the (U, K) ``rates`` matrix, accumulated in PRB order."""
    num_users, num_prbs = rates.shape
    return np.bincount(assignment, weights=rates[assignment, np.arange(num_prbs)],
                       minlength=num_users)
