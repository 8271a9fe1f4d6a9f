import json

import numpy as np
import pytest

from slicesched.agents import A2CAgent
from slicesched.cli import main
from slicesched.config import ScenarioConfig
from conftest import save_split_a2c_checkpoint

TINY = ["--set", "episodes=2", "--set", "slots_per_episode=20",
        "--set", "eval_episodes=2"]


def _train(tmp_path, name="run", agent="a2c", extra=()):
    out = tmp_path / name
    code = main(["train", "--agent", agent, "--out", str(out),
                 *TINY, *extra])
    assert code == 0
    return out


def test_train_emits_all_artifacts(tmp_path):
    out = _train(tmp_path)
    for artifact in ("checkpoint.bin", "training.csv", "trace.csv",
                     "return_curve.svg", "queues.svg", "drift.svg",
                     "config.txt", "manifest.json"):
        assert (out / artifact).exists(), artifact
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_snapshot"] == "config.txt"
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_train_repeat_is_byte_identical(tmp_path):
    a = _train(tmp_path, "a")
    b = _train(tmp_path, "b")
    for name in ("training.csv", "trace.csv", "return_curve.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_dqn_schema_differs(tmp_path):
    out = _train(tmp_path, "dqn-run", agent="dqn")
    header = (out / "training.csv").read_text().splitlines()[0]
    assert header == "episode,return,td_loss,dual"


def test_train_set_override_lands_in_snapshot(tmp_path):
    out = _train(tmp_path, extra=["--set", "mean_snr_linear=5.5"])
    assert "mean_snr_linear = 5.5" in (out / "config.txt").read_text()


def test_config_file_loading(tmp_path):
    cfg_file = tmp_path / "scenario.txt"
    cfg_file.write_text("episodes = 2\nslots_per_episode = 15\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert "slots_per_episode = 15" in (out / "config.txt").read_text()


def test_compare_baselines(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--policies", "rr,pf", "--out", str(out), *TINY])
    assert code == 0
    lines = (out / "reliability.csv").read_text().splitlines()
    assert lines[0] == "policy,reliability_at_dmax"
    assert len(lines) == 3
    for line in lines[1:]:
        name, value = line.split(",")
        assert name in ("rr", "pf")
        assert 0.0 <= float(value) <= 1.0
    returns = (out / "returns.csv").read_text().splitlines()
    assert returns[0] == "episode,rr,pf"
    assert (out / "delay_cdf.svg").exists()


def test_compare_with_trained_checkpoint(tmp_path):
    train_out = _train(tmp_path)
    out = tmp_path / "cmp"
    code = main(["compare", "--policies", "a2c,rr",
                 "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--out", str(out), *TINY])
    assert code == 0
    assert "a2c," in (out / "reliability.csv").read_text()


def test_compare_learned_policy_requires_checkpoint(tmp_path):
    code = main(["compare", "--policies", "a2c,rr",
                 "--out", str(tmp_path / "x"), *TINY])
    assert code == 2


def test_checkpoint_without_learned_policy_is_usage_error(tmp_path):
    # rejected before the run directory is made, not silently ignored
    assert main(["compare", "--policies", "rr,pf", "--checkpoint",
                 str(tmp_path / "missing.bin"), "--out", str(tmp_path / "x"),
                 *TINY]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("problem", ["wrong-kind", "corrupt", "missing",
                                     "other-scenario", "split-nets"])
def test_compare_unloadable_checkpoint_leaves_no_run_dir(tmp_path, problem):
    ckpt = tmp_path / "checkpoint.bin"
    learned = "dqn"
    if problem == "wrong-kind":
        ckpt = _train(tmp_path) / "checkpoint.bin"    # an a2c checkpoint
    elif problem == "corrupt":
        ckpt.write_bytes(b"not a checkpoint")
    elif problem == "other-scenario":
        learned = "a2c"
        ckpt = _train(tmp_path, extra=("--set", "num_embb=2")) / "checkpoint.bin"
    elif problem == "split-nets":
        learned = "a2c"
        save_split_a2c_checkpoint(
            ckpt, A2CAgent(ScenarioConfig(), np.random.default_rng(0)))
    assert main(["compare", "--policies", f"rr,{learned}", "--checkpoint",
                 str(ckpt), "--out", str(tmp_path / "x"), *TINY]) == 3
    assert not (tmp_path / "x").exists()


# two-learned: the one --checkpoint holds one kind, so a2c and dqn cannot
# both load it
@pytest.mark.parametrize("policies", ["rr,oracle", ",", "rr,rr", "a2c,dqn"],
                         ids=["unknown", "empty", "duplicate", "two-learned"])
def test_unknown_policy_is_usage_error(tmp_path, policies):
    # rejected before the run directory is made
    assert main(["compare", "--policies", policies, "--checkpoint", "any.bin",
                 "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_negative_eval_seed_is_usage_error(tmp_path):
    # rejected before the run directory is made
    assert main(["compare", "--policies", "rr", "--eval-seed", "-1",
                 "--out", str(tmp_path / "x"), *TINY]) == 1
    assert not (tmp_path / "x").exists()


def test_missing_out_is_usage_error():
    assert main(["train"]) == 1


def test_unknown_experiment_is_usage_error(tmp_path):
    assert main(["experiment", "--name", "nope",
                 "--out", str(tmp_path / "x")]) == 1


def test_bad_set_key_is_config_error(tmp_path):
    assert main(["train", "--out", str(tmp_path / "x"),
                 "--set", "snr=10"]) == 2


def test_invalid_config_value_is_config_error(tmp_path):
    assert main(["train", "--out", str(tmp_path / "x"),
                 "--set", "gamma=2.0"]) == 2


@pytest.mark.parametrize("setting", ["beta_dex=nan", "total_bandwidth_hz=inf",
                                     "dxi_levels=0,nan,1"])
def test_non_finite_config_value_is_config_error(tmp_path, setting):
    assert main(["compare", "--policies", "rr", "--out", str(tmp_path / "x"),
                 *TINY, "--set", setting]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("settings", [
    ["dqn_replay_capacity=32", "dqn_batch_size=64"], ["num_prbs=6"],
    ["lambda_slow=8", "lambda_burst=2"], ["d_proc_s=0.02", "d_max_s=0.01"],
    ["mmpp_alpha=0", "mmpp_beta=0"]])
def test_invariant_violation_is_config_error(tmp_path, settings):
    # rejected before the run directory is made, not mid-run
    sets = [arg for s in settings for arg in ("--set", s)]
    assert main(["train", "--out", str(tmp_path / "x"), *TINY, *sets]) == 2
    assert not (tmp_path / "x").exists()


def test_deleted_observation_scale_is_config_error(tmp_path):
    # the scales are constants of the encoder, so no run can change the
    # input format a checkpoint was trained on
    ckpt = _train(tmp_path) / "checkpoint.bin"
    assert main(["compare", "--policies", "a2c,rr", "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "x"), *TINY, "--set", "q_ref=1"]) == 2
    assert not (tmp_path / "x").exists()
    path = tmp_path / "scenario.txt"
    path.write_text("episodes = 2\nobs_clip = 1000\n")
    assert main(["compare", "--policies", "rr", "--config", str(path),
                 "--out", str(tmp_path / "y")]) == 2
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("key", [
    "eps_cost", "surrogate_exp_cap", "smooth_window", "reward_scale",
    "entropy_coef", "grad_clip", "pf_ewma", "dqn_eps_start", "dqn_eps_end",
    "dqn_eps_decay_slots", "dqn_target_sync"])
def test_deleted_constant_is_config_error(tmp_path, capsys, key):
    # constants beside their one reader now, no longer settings: an older
    # run's config.txt that names one fails until the line is dropped
    assert main(["train", "--out", str(tmp_path / "x"), *TINY,
                 "--set", f"{key}=1"]) == 2
    assert not (tmp_path / "x").exists()
    assert f"unknown key '{key}'" in capsys.readouterr().err
    path = tmp_path / "scenario.txt"
    path.write_text(f"episodes = 2\n{key} = 1\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "y")]) == 2
    assert not (tmp_path / "y").exists()
    assert f"line 2: unknown key '{key}'" in capsys.readouterr().err


def test_unreadable_config_file_is_config_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_experiment_two_step(tmp_path):
    out = tmp_path / "two-step"
    code = main(["experiment", "--name", "two-step-dex", "--out", str(out),
                 *TINY])
    assert code == 0
    summary = json.loads((out / "step_response.json").read_text())
    for key in ("before_step_a", "after_step_a", "before_step_b",
                "after_step_b"):
        assert "mean_arrivals" in summary[key]
        assert "mean_prbs" in summary[key]
    assert (out / "step_rate.svg").exists()


def test_experiment_two_step_needs_three_slots(tmp_path):
    # with fewer, the window before the first change point is empty
    assert main(["experiment", "--name", "two-step-dex",
                 "--out", str(tmp_path / "x"), "--set", "episodes=1",
                 "--set", "slots_per_episode=2"]) == 2
    assert not (tmp_path / "x").exists()


def test_experiment_dex_sensitivity(tmp_path):
    out = tmp_path / "sens"
    code = main(["experiment", "--name", "dex-sensitivity", "--out", str(out),
                 *TINY])
    assert code == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "user,dxi,mean_arrivals,mean_departures,mean_prbs"
    dxis = [float(line.split(",")[1]) for line in lines[1:6]]
    assert dxis == sorted(dxis)
    assert lines[-1].startswith("# rank_correlation_dxi_prbs,")
    # the scenario pins five HRLLC users at spread-out dexterity levels
    assert "num_hrllc = 5" in (out / "config.txt").read_text()


@pytest.mark.parametrize("name", ["two-step-dex", "dex-sensitivity"])
def test_experiment_preset_levels_must_match_user_count(tmp_path, name):
    # the preset's dxi_levels name 3 or 5 users, not the 2 asked for
    assert main(["experiment", "--name", name, "--out", str(tmp_path / "x"),
                 *TINY, "--set", "num_hrllc=2"]) == 2
    assert not (tmp_path / "x").exists()


def test_experiment_user_keys_override_preset(tmp_path):
    # the same keys through --set and through --config give the same run,
    # and config.txt records them: lambda_embb is no longer clamped to 1.0
    keys = {"num_hrllc": "2", "dxi_levels": "1.0,2.0", "lambda_embb": "3.0"}
    sets = [arg for k, v in keys.items() for arg in ("--set", f"{k}={v}")]
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    outs = [tmp_path / "set", tmp_path / "file"]
    assert main(["experiment", "--name", "dex-sensitivity",
                 "--out", str(outs[0]), *TINY, *sets]) == 0
    assert main(["experiment", "--name", "dex-sensitivity", "--config",
                 str(scenario), "--out", str(outs[1]), *TINY]) == 0
    for out in outs:
        config = (out / "config.txt").read_text()
        for k, v in keys.items():
            assert f"{k} = {v}\n" in config
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:-1]] == [
            ["0", "1.0"], ["1", "2.0"]]
    for name in ("config.txt", "sensitivity.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_experiment_drl_compare(tmp_path):
    out = tmp_path / "drl"
    code = main(["experiment", "--name", "drl-compare", "--out", str(out),
                 *TINY])
    assert code == 0
    lines = (out / "drl_returns.csv").read_text().splitlines()
    assert lines[0] == "episode,a2c,dqn"
    assert len(lines) == 3
    assert (out / "drl_returns.svg").exists()


def test_repeated_config_file_key_is_config_error(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("d_max_s = 0.02\ntraffic.d_max_s = 0.05\n")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_repeated_set_keeps_the_last(tmp_path):
    # the last setting in argv order, whatever each one's spelling
    for name, sets, last in (
            ("two", ["d_max_s=0.05", "traffic.d_max_s=0.03"], "0.03"),
            ("three", ["d_max_s=0.05", "traffic.d_max_s=0.03", "d_max_s=0.04"],
             "0.04")):
        out = tmp_path / name
        assert main(["train", "--out", str(out), *TINY,
                     *(arg for s in sets for arg in ("--set", s))]) == 0
        assert f"d_max_s = {last}\n" in (out / "config.txt").read_text()
