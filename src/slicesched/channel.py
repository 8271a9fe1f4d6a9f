"""Rayleigh fading draws and Shannon achievable rates per PRB.

Transmit power and noise variance are folded into a single configured mean
SNR (equal power per PRB); only their product enters the rate formula.
Fading is i.i.d. across users, PRBs and slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, derive_prb_bandwidth


@dataclass(frozen=True)
class ChannelSlot:
    """One slot's fading snapshot: squared gains for every (user, PRB) pair."""

    gain_sq: np.ndarray          # (U, K), |h|^2, unit-mean exponential
    mean_snr_linear: float
    prb_bandwidth_hz: float

    def __post_init__(self) -> None:
        if self.gain_sq.ndim != 2:
            raise ValueError("gain_sq must be a (users x PRBs) matrix")
        if not np.all(np.isfinite(self.gain_sq)) or np.any(self.gain_sq < 0):
            raise ValueError("gains must be finite and non-negative")


def draw_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> ChannelSlot:
    """Fresh i.i.d. Rayleigh draw: |h|^2 ~ Exp(1) per user per PRB."""
    gain_sq = rng.exponential(1.0, size=(cfg.num_users, cfg.num_prbs))
    return ChannelSlot(gain_sq=gain_sq,
                       mean_snr_linear=cfg.mean_snr_linear,
                       prb_bandwidth_hz=derive_prb_bandwidth(cfg))


def rate_matrix(slot: ChannelSlot) -> np.ndarray:
    """(U, K) matrix of per-PRB achievable rates in bits/s."""
    return slot.prb_bandwidth_hz * np.log2(1.0 + slot.mean_snr_linear * slot.gain_sq)


def all_user_rates(rates: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Achieved bits/s per user: each user's sum of its assigned PRBs' rates
    in the (U, K) ``rates`` matrix, accumulated in PRB order."""
    num_users, num_prbs = rates.shape
    return np.bincount(assignment, weights=rates[assignment, np.arange(num_prbs)],
                       minlength=num_users)
