"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from slicesched.agents import TEMPLATES, a2c_grads, a2c_heads, trunk_mlp
from slicesched.config import ScenarioConfig, parse_config_values
from slicesched.net import save_arrays, softmax
from slicesched.schedulers import SchedulerContext, slot_dtype
from slicesched.traffic import stationary_probs


def mean_rate(alpha: float, beta: float, lam1: float, lam2: float) -> float:
    """Long-run mean arrival intensity pi1*lam1 + pi2*lam2 (packets/slot)."""
    pi1, pi2 = stationary_probs(alpha, beta)
    return pi1 * lam1 + pi2 * lam2


def parse_config_text(text: str) -> ScenarioConfig:
    """The defaults with the text's values on top, validated."""
    return ScenarioConfig(**parse_config_values(text))


def windowed_slope(series, window: int) -> np.ndarray:
    """Per-position slope over a trailing window: (x[i] - x[i-w]) / w."""
    x = np.asarray(series, dtype=float)
    if x.size <= window:
        raise ValueError("series shorter than window")
    return (x[window:] - x[:-window]) / window


def save_split_a2c_checkpoint(path, agent) -> None:
    """An a2c checkpoint of the former layout, with its metadata: an actor
    net with the logit heads and a critic net with the value, each on its
    own trunk."""
    rng = np.random.default_rng(21)
    actor = trunk_mlp(agent.obs_dim, agent.n_kh + len(TEMPLATES), rng)
    critic = trunk_mlp(agent.obs_dim, 1, rng)
    save_arrays(path, actor.params + critic.params,
                {"kind": "a2c", "shared": False, "obs_dim": agent.obs_dim,
                 "n_kh": agent.n_kh})


def a2c_grad_rows(net, n_kh, obs, actions, rew, next_obs, gamma, beta):
    """``a2c_grads`` for the decision at ``obs`` under the current
    parameters: the (2, P) actor and critic gradient rows, and the
    diagnostics."""
    logits_h, logits_e, value, trace = a2c_heads(net, n_kh, obs)
    probs = np.concatenate([softmax(logits_h), softmax(logits_e)])
    grads = np.full((2, net.flat.size), np.nan)
    diag = a2c_grads(net, (probs, value, trace), actions, rew, next_obs,
                     gamma, beta, tuple(net.views(row) for row in grads))
    return grads, diag


def make_context(rng: np.random.Generator, num_embb: int = 4,
                 num_hrllc: int = 3, num_prbs: int = 25,
                 gain_sq=None) -> SchedulerContext:
    """Random but well-formed scheduler context for property tests."""
    num_users = num_embb + num_hrllc
    if gain_sq is None:
        gain_sq = rng.exponential(1.0, size=(num_users, num_prbs))
    rates = 4e5 * np.log2(1.0 + 10.0 * gain_sq)
    return SchedulerContext(
        num_embb=num_embb,
        work=rng.integers(0, 20, num_users) + rng.integers(0, 5, num_users),
        gain_sq=gain_sq,
        rate_matrix=rates,
        dxi=rng.uniform(0.0, 10.0, num_hrllc),
    )


def pooled_hrllc_delays(records, cfg: ScenarioConfig) -> np.ndarray:
    """Reference for the delay histogram: every HRLLC packet delay of the
    records as one float array, each episode's in departure order (by slot,
    then user, then FIFO position), the episodes concatenated."""
    delays = []
    for record in records:
        arrived = np.cumsum(record.slots.arrivals[:, cfg.num_embb:], axis=0)
        departed = np.cumsum(record.slots.departures[:, cfg.num_embb:], axis=0)
        came, left = [], []
        for a, d in zip(arrived.T, departed.T):
            j = np.arange(d[-1])
            came.append(np.searchsorted(a, j, side="right"))
            left.append(np.searchsorted(d, j, side="right"))
        came, left = np.concatenate(came), np.concatenate(left)
        order = np.argsort(left, kind="stable")
        delays.append((left[order] - came[order]) * cfg.slot_duration_s
                      + cfg.d_proc_s)
    return np.concatenate(delays)


def pooled_reliability(delays: np.ndarray, d_max_s: float) -> float:
    """Reference: the share of pooled delays within the deadline (with the
    relative tolerance ``constraint.reliability`` applies)."""
    return float(np.mean(delays <= d_max_s * (1.0 + 1e-9)))


def pooled_delay_cdf(delays: np.ndarray) -> list[tuple[float, float]]:
    """Reference: the empirical CDF of pooled delays at their distinct
    values."""
    values, counts = np.unique(delays, return_counts=True)
    return list(zip(values.tolist(), (np.cumsum(counts) / delays.size).tolist()))


def slot_row(cfg: ScenarioConfig, **fields) -> np.void:
    """A row of ``cfg``'s slot table: zero but for ``fields``."""
    row = np.zeros((), slot_dtype(cfg))[()]
    for name, value in fields.items():
        row[name] = value
    return row


@pytest.fixture
def default_cfg() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture
def tiny_cfg() -> ScenarioConfig:
    """Scenario small enough for fast end-to-end runs."""
    return ScenarioConfig(episodes=3, slots_per_episode=25,
                          eval_episodes=2)
