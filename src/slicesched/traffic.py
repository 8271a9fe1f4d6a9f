"""Arrival processes: eMBB Poisson and dexterity-modulated two-state MMPP.

HRLLC command traffic follows a two-state Markov-modulated Poisson process
(slow / bursty).  The continuous-time chain is discretized per slot with
exact exponential holding probabilities.  The task dexterity index (DXI)
reduces the instantaneous intensity: a harder task means the operator issues
fewer command updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig


class DegenerateChainError(ValueError):
    """Both transition rates are zero: no stationary distribution."""


def stationary_probs(alpha: float, beta: float) -> tuple[float, float]:
    """Stationary (pi1, pi2) of the two-state chain with rates alpha, beta."""
    if alpha + beta <= 0:
        raise DegenerateChainError("alpha + beta must be > 0")
    return beta / (alpha + beta), alpha / (alpha + beta)


def effective_intensity(lam_state: float, beta_dex: float, dxi: float) -> float:
    """Task-coupled intensity, clamped at zero (a Poisson mean cannot be negative)."""
    return max(lam_state - beta_dex * dxi, 0.0)


@dataclass
class MmppChain:
    """Per-user modulating chain, stepped once per slot by its owner."""

    alpha: float
    beta: float
    lambda_by_state: tuple[float, float]
    slot_duration_s: float
    state: int = 1

    def __post_init__(self) -> None:
        if self.state not in (1, 2):
            raise ValueError(f"state must be 1 or 2, got {self.state}")
        # exact discretization of the exponential holding times
        self.p_1_to_2 = 1.0 - np.exp(-self.alpha * self.slot_duration_s)
        self.p_2_to_1 = 1.0 - np.exp(-self.beta * self.slot_duration_s)

    @property
    def intensity(self) -> float:
        return self.lambda_by_state[self.state - 1]

    def step(self, rng: np.random.Generator) -> int:
        """Advance one slot; always consumes exactly one uniform draw."""
        u = rng.random()
        if self.state == 1:
            if u < self.p_1_to_2:
                self.state = 2
        else:
            if u < self.p_2_to_1:
                self.state = 1
        return self.state


def init_state_stationary(alpha: float, beta: float, rng: np.random.Generator) -> int:
    """Draw an initial chain state from the stationary distribution."""
    pi1, _ = stationary_probs(alpha, beta)
    return 1 if rng.random() < pi1 else 2


def sample_hrllc_arrivals(chain: MmppChain, beta_dex: float, dxi: float,
                          rng: np.random.Generator) -> int:
    """Poisson arrivals at the chain's current dexterity-adjusted intensity;
    a zero intensity draws nothing from ``rng``."""
    return int(rng.poisson(effective_intensity(chain.intensity, beta_dex, dxi)))


def sample_embb_arrivals(lam: float, rng: np.random.Generator, slots: int) -> np.ndarray:
    """One user's Poisson arrivals in each of ``slots`` slots."""
    return rng.poisson(lam, slots)


class DexterityProfile:
    """Per-HRLLC-user DXI schedule over a global slot horizon: each user has
    one level outside the middle third of the horizon (``dxi_levels``) and
    one inside it (``dxi_middle``, or the same level when that is empty)."""

    def __init__(self, cfg: ScenarioConfig, total_slots: int):
        # two-step change points at thirds of the run
        self.step_a = total_slots // 3
        self.step_b = (2 * total_slots) // 3
        # a one-value tuple applies to every user
        self._outer = np.full(cfg.num_hrllc, cfg.dxi_levels, dtype=float)
        self._inner = np.full(cfg.num_hrllc, cfg.dxi_middle or cfg.dxi_levels,
                              dtype=float)
        # the first user whose two levels differ, or user 0 if none does
        self.stepped_user = int(np.argmax(self._outer != self._inner))

    def vector(self, slots: np.ndarray) -> np.ndarray:
        """The users' levels, one new row per global slot index in ``slots``."""
        inside = (self.step_a <= slots) & (slots < self.step_b)
        return np.where(np.expand_dims(inside, -1), self._inner, self._outer)
