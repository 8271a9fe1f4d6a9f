import ast
import dataclasses
import re
from pathlib import Path

import pytest

import slicesched
from slicesched.channel import derive_prb_bandwidth
from slicesched.config import (ConfigError, ScenarioConfig, ValidationError,
                               config_to_text, parse_config_values,
                               parse_overrides)
from conftest import parse_config_text

# the observation scales, now constants of the encoder, the three
# dexterity schedules, now the one dxi_levels / dxi_middle pair, and the
# learner and baseline settings, now constants of agents and schedulers
DELETED_KEYS = ("q_ref", "r_ref_mbps", "l_ref", "y_clip", "obs_clip",
                "dexterity_profile", "dxi_level", "dxi_low", "dxi_high",
                "dxi_step_user", "dxi_values", "eps_cost", "surrogate_exp_cap",
                "smooth_window", "reward_scale", "entropy_coef", "grad_clip",
                "pf_ewma", "dqn_eps_start", "dqn_eps_end",
                "dqn_eps_decay_slots", "dqn_target_sync")


def test_defaults_are_valid():
    cfg = ScenarioConfig()
    assert cfg.num_users == cfg.num_embb + cfg.num_hrllc
    assert cfg.num_prbs >= cfg.num_users


def test_prb_bandwidth_derivation():
    cfg = ScenarioConfig()
    assert derive_prb_bandwidth(cfg) == pytest.approx(
        cfg.total_bandwidth_hz / cfg.num_prbs)


def test_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_prbs = 30  # type: ignore[misc]


def test_replace_returns_new_instance():
    cfg = ScenarioConfig()
    other = dataclasses.replace(cfg, num_prbs=30)
    assert other.num_prbs == 30 and cfg.num_prbs == 25


def test_round_trip_serialization():
    cfg = ScenarioConfig(mean_snr_linear=7.25,
                         trunk_hidden=(32, 16))
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_parse_comments_blanks_and_dotted_keys():
    cfg = parse_config_text(
        "# scenario\n"
        "\n"
        "traffic.lambda_slow = 1.5   # slow intensity\n"
        "num_prbs = 30\n")
    assert cfg.lambda_slow == 1.5
    assert cfg.num_prbs == 30


def test_parse_unknown_key_reports_line_number():
    for key in ("not_a_key", *DELETED_KEYS):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config_text(f"num_prbs = 30\n{key} = 1\n")


def test_parse_repeated_key_reports_both_line_numbers():
    # a dotted key sets the same field as its bare name
    with pytest.raises(ConfigError, match="line 3: key 'd_max_s' already set on line 1"):
        parse_config_text("d_max_s = 0.02\n# deadline\ntraffic.d_max_s = 0.05\n")
    with pytest.raises(ConfigError, match="line 2: .* line 1"):
        parse_config_text("num_prbs = 30\nnum_prbs = 30\n")


def test_parse_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("num_prbs = many\n")


def test_parse_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("num_prbs 30\n")


def test_parse_tuple_fields():
    cfg = parse_config_text("trunk_hidden = 32, 16\ndxi_levels = 1,2,3\n")
    assert cfg.trunk_hidden == (32, 16)
    assert cfg.dxi_levels == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("overrides", [
    {"num_prbs": 5},                      # fewer PRBs than users
    {"lambda_burst": 1.0},                # burst below slow intensity
    {"chi_h": 1.5},
    {"gamma": 0.0},
    {"d_proc_s": 0.05},                   # processing above the deadline
    {"dxi_levels": (1.0, 2.0)},           # neither one level nor one per user
    {"dxi_middle": (1.0, 2.0)},
    {"dxi_levels": ()},                   # only dxi_middle may be empty
    {"beta_dex": float("nan")},           # a nan passes ordered comparisons
    {"total_bandwidth_hz": float("inf")},
    {"lr_actor": 0.0},
    {"slots_per_episode": 0},
    {"episodes": 0},
    {"gamma": 1.0},
    {"trunk_hidden": (64, 0)},
    {"dxi_levels": (float("nan"),)},
    {"lambda_embb": float("nan")},
    {"lambda_embb": float("inf")},
    {"mmpp_alpha": float("nan")},
    {"lr_critic": float("nan")},
    {"dxi_levels": (0.0, float("nan"), 1.0)},
    {"dual_step": 0.0},                   # the dual never moves
    {"lyapunov_v": -1.0},                 # the learner would maximise cost
    {"chi_h": 0.0},
    {"master_seed": -1},                  # no SeedSequence takes it
    {"mmpp_alpha": 0.0, "mmpp_beta": 0.0},   # no stationary distribution
    {"dxi_levels": (-1.0,)},
    {"dxi_middle": (0.0, -1.0, 0.0)},
    {"num_hrllc": 2, "dxi_levels": (0.0, 1.0, 2.0)},
])
def test_invariant_violations_rejected(overrides):
    with pytest.raises(ValidationError):
        ScenarioConfig(**overrides)


def test_replay_smaller_than_batch_rejected():
    # a replay that never holds a batch would leave DQN without updates
    with pytest.raises(ValidationError,
                       match="dqn_replay_capacity.*dqn_batch_size"):
        ScenarioConfig(dqn_replay_capacity=4, dqn_batch_size=8)
    ScenarioConfig(dqn_replay_capacity=8, dqn_batch_size=8)


def test_apply_overrides():
    # applied in order: the last setting of a field wins, whatever its
    # spelling
    values = parse_overrides([("mean_snr_linear", "5"),
                              ("traffic.lambda_slow", "1"), ("dxi_middle", ""),
                              ("lambda_slow", "3"), ("traffic.lambda_slow", "2")])
    assert values == {"mean_snr_linear": 5.0, "lambda_slow": 2.0,
                      "dxi_middle": ()}


def test_apply_overrides_unknown_key():
    # the config file's message, without its line number
    for key in ("snr", "traffic.snr", *DELETED_KEYS):
        with pytest.raises(ConfigError, match=f"^unknown key '{key}'$"):
            parse_overrides([(key, "5")])


def test_config_values_hold_only_the_keys_set():
    # a caller layers them over the defaults, so an unset key stays unset;
    # they are validated only together, once every layer is applied
    assert parse_config_values("num_hrllc = 2\n# dxi\n") == {"num_hrllc": 2}
    layered = {**parse_config_values("num_hrllc = 2\n"),
               **parse_overrides([("dxi_levels", "1,2")])}
    assert ScenarioConfig(**layered).dxi_levels == (1.0, 2.0)


def test_readme_scenario_examples_parse():
    # a README example that names a deleted key would fail here
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        parse_config_text(block)


def test_readme_field_count_is_current():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.findall(r"for\s+all\s+(\d+)\s+fields", text)
    assert stated == [str(len(dataclasses.fields(ScenarioConfig)))]


def test_every_field_is_read_outside_config():
    # a key that no module reads would be a knob that changes nothing
    package = Path(slicesched.__file__).parent
    read = {node.attr for path in package.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(ScenarioConfig)
              if f.name not in read]
    assert unread == []
