"""Scenario configuration: defaults, key=value file parsing, validation.

Config files are flat text: one ``key = value`` per line, ``#`` starts a
comment, blank lines ignored.  Dotted keys (``traffic.lambda_slow``) are
accepted and mapped to the flat field name after the last dot, so files can
be organized into visual sections without a nested format.  A key may be set
once per file, dotted or not.

Every field is overridable from the CLI via ``--set key=value``, with the
same keys; the last setting of a field wins.  Values are parsed by the
declared field type; tuples are comma-separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    """Raised on config parse failures (carries the offending line number)."""


class ValidationError(ValueError):
    """Raised when a config violates a documented invariant."""


@dataclass(frozen=True)
class ScenarioConfig:
    # --- radio system ---
    total_bandwidth_hz: float = 10e6
    num_prbs: int = 25
    num_embb: int = 4
    num_hrllc: int = 3
    slot_duration_s: float = 1e-3
    packet_size_bits: int = 1000
    mean_snr_linear: float = 10.0

    # --- delay / reliability targets ---
    d_max_s: float = 20e-3
    d_proc_s: float = 5e-3
    chi_h: float = 0.98

    # --- traffic ---
    mmpp_alpha: float = 0.2          # state 1 -> 2 transition rate, 1/s
    mmpp_beta: float = 0.2           # state 2 -> 1 transition rate, 1/s
    lambda_slow: float = 2.0         # packets/slot in state 1
    lambda_burst: float = 8.0        # packets/slot in state 2
    beta_dex: float = 0.2            # packets/slot intensity drop per unit DXI
    lambda_embb: float = 3.0         # packets/slot per eMBB user

    # --- dexterity schedule: one level, or one per HRLLC user ---
    dxi_levels: tuple[float, ...] = (2.5,)   # outside the run's middle third
    dxi_middle: tuple[float, ...] = ()       # during it; empty: no step

    # --- control objective ---
    lyapunov_v: float = 1.0
    dual_step: float = 0.01

    # --- learning ---
    episodes: int = 300
    slots_per_episode: int = 200

    # --- DQN baseline ---
    dqn_replay_capacity: int = 10000
    dqn_batch_size: int = 64

    # --- evaluation ---
    eval_episodes: int = 20

    # --- misc ---
    master_seed: int = 12345

    def __post_init__(self) -> None:
        validate(self)

    @property
    def num_users(self) -> int:
        return self.num_embb + self.num_hrllc


def _positive(cfg: ScenarioConfig, *names: str) -> None:
    for n in names:
        if not getattr(cfg, n) > 0:
            raise ValidationError(f"{n} must be strictly positive, got {getattr(cfg, n)}")


def _nonneg(cfg: ScenarioConfig, *names: str) -> None:
    for n in names:
        if getattr(cfg, n) < 0:
            raise ValidationError(f"{n} must be >= 0, got {getattr(cfg, n)}")


def _finite(cfg: ScenarioConfig) -> None:
    # a nan passes the ordered comparisons below, an inf fails only mid-run
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in items if isinstance(v, float)):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")


def validate(cfg: ScenarioConfig) -> None:
    """Check every documented invariant; raise ValidationError naming the first violation."""
    _finite(cfg)
    _positive(
        cfg, "total_bandwidth_hz", "num_prbs", "num_embb", "num_hrllc",
        "slot_duration_s", "packet_size_bits", "mean_snr_linear", "d_max_s",
        "d_proc_s", "lyapunov_v", "dual_step", "episodes",
        "slots_per_episode", "eval_episodes",
        "dqn_replay_capacity", "dqn_batch_size",
    )
    _nonneg(cfg, "mmpp_alpha", "mmpp_beta", "lambda_slow", "lambda_burst",
            "beta_dex", "lambda_embb", "master_seed")
    if cfg.dqn_replay_capacity < cfg.dqn_batch_size:
        raise ValidationError(
            f"dqn_replay_capacity ({cfg.dqn_replay_capacity}) must be >= "
            f"dqn_batch_size ({cfg.dqn_batch_size}), or DQN never updates")
    if cfg.num_prbs < cfg.num_users:
        raise ValidationError(
            f"num_prbs ({cfg.num_prbs}) must be >= num_embb + num_hrllc "
            f"({cfg.num_users}) so every user can hold one PRB")
    if not cfg.mmpp_alpha + cfg.mmpp_beta > 0:
        raise ValidationError(
            "mmpp_alpha + mmpp_beta must be > 0, or the chain has no "
            "stationary distribution")
    if not cfg.lambda_burst > cfg.lambda_slow:
        raise ValidationError(
            f"lambda_burst ({cfg.lambda_burst}) must exceed lambda_slow ({cfg.lambda_slow})")
    if not 0.0 < cfg.chi_h < 1.0:
        raise ValidationError(f"chi_h must be in (0,1), got {cfg.chi_h}")
    if not cfg.d_proc_s < cfg.d_max_s:
        raise ValidationError(
            f"d_proc_s ({cfg.d_proc_s}) must be below d_max_s ({cfg.d_max_s})")
    if not (len(cfg.dxi_levels) in (1, cfg.num_hrllc)
            and len(cfg.dxi_middle) in (0, 1, cfg.num_hrllc)):
        raise ValidationError(
            f"dxi_levels and a non-empty dxi_middle need one level or one per "
            f"HRLLC user ({cfg.num_hrllc}), got {cfg.dxi_levels}, {cfg.dxi_middle}")
    if any(v < 0 for v in cfg.dxi_levels + cfg.dxi_middle):
        raise ValidationError("dxi_levels and dxi_middle must be non-negative")


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _setting(key: str, raw: str) -> tuple[str, Any]:
    """The field a ``key = raw`` setting names and the value it parses to."""
    name = key.strip().split(".")[-1]
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key.strip()!r}")
    ftype = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if ftype == "int":
            return name, int(raw)
        if ftype == "float":
            return name, float(raw)
        return name, tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from exc


def parse_config_values(text: str) -> dict[str, Any]:
    """The values a config text sets, by field name, not yet validated."""
    values: dict[str, Any] = {}
    set_on: dict[str, int] = {}      # key -> line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        try:
            name, value = _setting(*body.split("=", 1))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        if name in set_on:
            raise ConfigError(f"line {lineno}: key {name!r} already set on "
                              f"line {set_on[name]}")
        set_on[name] = lineno
        values[name] = value
    return values


def load_config_values(path: str | Path) -> dict[str, Any]:
    """The values a key=value config file sets, not yet validated."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from exc
    return parse_config_values(text)


def _format_value(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize so that the values parsed back from the text, with
    ``parse_config_values``, rebuild ``cfg``."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(ScenarioConfig)]
    return "\n".join(lines) + "\n"


def parse_overrides(items: list[tuple[str, str]]) -> dict[str, Any]:
    """The values of CLI ``--set key=value`` overrides, given as (key, value)
    pairs in order, so the last setting of a field wins; not yet
    validated."""
    return dict(_setting(key, raw) for key, raw in items)
