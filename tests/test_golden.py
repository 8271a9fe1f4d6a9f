"""Golden pins: sha256 digests of the output files of small runs.

Criterion 10 compares two runs of the same code with each other; these pins
compare the outputs across versions of the code, so a refactor that claims
to be behaviour-preserving must leave every digest unchanged.  A change
that alters behaviour on purpose re-pins the digests and says why.

The digests are of float64 results formatted with ``repr``, and of the raw
bytes of the pooled HRLLC delays, which ``delay_cdf.svg`` shows only to six
significant digits; they were recorded with Python 3.11 and NumPy 2.4 on
x86-64.  The pooled delays come from the reference in ``conftest``, which
``tests/test_metrics.py`` checks the program's delay histogram against.
"""

import dataclasses
import hashlib

import pytest

from slicesched import agents
from slicesched.cli import main
from slicesched.config import ScenarioConfig
from slicesched.engine import (export_diagnostics_csv, export_trace_csv,
                               run_training, trace_csv, training_row)

from conftest import pooled_hrllc_delays

# Each case: the policy, its config overrides and the constants of agents
# it patches.  dqn: a small batch, target sync and replay capacity so that
# updates, target syncs and replay wrap-around all happen within 75 slots,
# and a short epsilon decay so that greedy decisions happen too
CASES = {
    "a2c-shared": ("a2c", {}, {}),
    "dqn": ("dqn", {"dqn_batch_size": 8, "dqn_replay_capacity": 40},
            {"DQN_TARGET_SYNC": 10, "DQN_EPS_DECAY_SLOTS": 30,
             "DQN_EPS_END": 0.2}),
    "rr": ("rr", {}, {}),
    "pf": ("pf", {}, {}),
}


def golden_case(case, tiny_cfg, monkeypatch):
    """The case's policy name and scenario, its constants patched."""
    agent, overrides, constants = CASES[case]
    for name, value in constants.items():
        monkeypatch.setattr(agents, name, value)
    return agent, dataclasses.replace(tiny_cfg, **overrides)


GOLDEN = {
    "a2c-shared": {
        "trace.csv": "595c7eed311008c04625dc3b481625b8902f4343be6ea7ca9623532a5dab8447",
        "training.csv": "bb92aff4a72cacb58b1071c6a605a848d11edac30183afaed4fbddfd5d6e87a9",
        "checkpoint.bin": "3ae7a85fa9319976a392eaecc885afbd8827132991052595c5698ea39dad7ae7",
        "delays_s": "9965605ec287c04cda7bed88c0322356261cd3c4fbad853f1c2d36f61607b703",
    },
    "dqn": {
        "trace.csv": "7920ad64295563f39ad8babda841dcd594e808ed6f6a7e4894dee51bdf9d3131",
        "training.csv": "b5c5a718e0f99428b3be0d6951502d275bfb8ad07f9b3d572721b3231f0d41bc",
        "checkpoint.bin": "9eca3a152f8b8a2270cd60c301933aea11b3e386a69ed18f073c5c6d769b512f",
        "delays_s": "cd1cd75771c53fe3642a84991af94e72ff9934284e9d0d2c1ff5060c895bffc1",
    },
    "pf": {
        "trace.csv": "a2c844622203e43733a249de5bd3be1c434d0e533c87a19d2dd87f57a2f382ae",
        "training.csv": "f5baac22963a359e4c6063a9a2cfbc97985e680b2cfa261d897bd5dd3a1db299",
        "delays_s": "a4ed94d6f74ca62c6a2a572e9ffa24cf2dfeb82dc4d76e8de9e80a044f76bb48",
    },
    "rr": {
        "trace.csv": "a4f65c0dbca2f97960f4ba81cc33eade5e33567937b23dda951905a537917d43",
        "training.csv": "4274870427f8e7c7f6bd156d37c561a914503d4f25a9e38bb383c65cf9d5b86d",
        "delays_s": "39826994a5618d819eacb7b7314ebcbd7a00f069e3a94e74dd009482b1e309e4",
    },
}


def _digests(cfg, agent, out_dir) -> dict:
    records = []
    policy = run_training(cfg, agent, records.append)
    # the delay pin must also cover packets still queued when an episode ends
    assert any(r.slots.backlogs[-1, cfg.num_embb:].any() for r in records)
    files = {"trace.csv": out_dir / "trace.csv",
             "training.csv": out_dir / "training.csv"}
    with trace_csv(files["trace.csv"], cfg) as trace:
        for record in records:
            export_trace_csv(record, cfg, trace)
    export_diagnostics_csv([training_row(r) for r in records],
                           files["training.csv"])
    if hasattr(policy, "save"):
        files["checkpoint.bin"] = out_dir / "checkpoint.bin"
        policy.save(files["checkpoint.bin"])
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    delays = pooled_hrllc_delays(records, cfg)
    digests["delays_s"] = hashlib.sha256(delays.tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tiny_cfg, tmp_path, monkeypatch):
    agent, cfg = golden_case(case, tiny_cfg, monkeypatch)
    got = _digests(cfg, agent, tmp_path)
    assert got == GOLDEN[case]


# One full-size episode per case, in training mode so that the dual moves:
# the slot table's raw bytes and the return.  The tiny runs above never have
# 8 or more users, where NumPy's pairwise float sums part from a left-to-right
# sum, and seldom reach PF's feasibility repair; 9 + 9 users on 30 PRBs do
# both (PF repairs in 199 of its 200 slots there, and in 59 at the defaults).
LARGE = {"num_embb": 9, "num_hrllc": 9, "num_prbs": 30}

EPISODE_CASES = {
    "rr-default": ("rr", {}),
    "pf-default": ("pf", {}),
    "pf-9x9-30prb": ("pf", LARGE),
    "a2c-9x9-30prb": ("a2c", LARGE),
}

EPISODE_GOLDEN = {
    "rr-default": (
        "726e773d492d6646b830c5db5a9d06e617113d2107dfb2654f31506fd8f27c31",
        "-245150.9514574562"),
    "pf-default": (
        "520361bfc392dfc8baa3a3288a05312ec59035b6d5910cf34c4d80e277df2f31",
        "-31827.05504372516"),
    "pf-9x9-30prb": (
        "b5c20e07fd05dd5d6eb4f6aec7e79c4f630945561c6873a137f9988c882cebf7",
        "-2538375.90511084"),
    "a2c-9x9-30prb": (
        "3e65095b251ee08b4ad7cef5d90c147b7c7cc140179d9f030898c715f4e6a496",
        "-1588951.7843619175"),
}


@pytest.mark.parametrize("case", sorted(EPISODE_CASES))
def test_golden_episode(case):
    agent, overrides = EPISODE_CASES[case]
    cfg = ScenarioConfig(episodes=1, **overrides)
    records = []
    policy = run_training(cfg, agent, records.append)
    (record,) = records
    assert policy.training and len(record.slots) == 200
    got = (hashlib.sha256(record.slots.tobytes()).hexdigest(),
           repr(record.episodic_return))
    assert got == EPISODE_GOLDEN[case]


# The benchmark's training runs at their own shape: the default scenario
# (batch 64 for dqn, clip 5, tanh trunk of the default widths), here two
# 200-slot episodes.  The slot tables' bytes and the checkpoint.  A2C's Adam
# takes 400 steps, past t = 356 where 1 - 0.9**t rounds to 1.0; DQN's 337.
LEARNER_GOLDEN = {
    "a2c": ("5fb87e5db9c43a6cf22119375f0b822cd863a7934e67388a4400fffd1ffe7635",
            "8731583f8997af6bd5c9c833b9562d9be2bb97a32f943a09c0a8ef6fe7e7ddf7"),
    "dqn": ("f80f97fef956574725f67f16819d5e71c5c3387a566388e0a0fa9f6f74915887",
            "cd008b2059cd1333433b5942464f460959443fd6faadd32c5fcdfe0e2a1efbdd"),
}


@pytest.mark.parametrize("agent", sorted(LEARNER_GOLDEN))
def test_golden_default_learner(agent, tmp_path):
    records = []
    policy = run_training(ScenarioConfig(episodes=2), agent,
                          records.append)
    assert [len(r.slots) for r in records] == [200, 200]
    slots = hashlib.sha256()
    for record in records:
        slots.update(record.slots.tobytes())
    policy.save(tmp_path / "checkpoint.bin")
    got = (slots.hexdigest(),
           hashlib.sha256((tmp_path / "checkpoint.bin").read_bytes()).hexdigest())
    assert got == LEARNER_GOLDEN[agent]


# The CLI's summary-derived outputs: figures and tables computed from the
# episode records by the reducers of metrics, compare_policies,
# step_response_summary and moving_average.  Forty slots per episode
# make every per-episode and per-window mean long enough (>= 8 terms) for
# NumPy's unrolled pairwise summation to differ from a plain running sum.
CLI_TINY = ["--set", "episodes=4", "--set", "slots_per_episode=40",
            "--set", "eval_episodes=2"]

CLI_CASES = {
    "train": ["train", "--agent", "a2c"],
    "compare": ["compare", "--policies", "a2c,rr,pf"],
    "two-step-dex": ["experiment", "--name", "two-step-dex"],
    "dex-sensitivity": ["experiment", "--name", "dex-sensitivity"],
    "drl-compare": ["experiment", "--name", "drl-compare"],
}

CLI_GOLDEN = {
    "compare": {
        "reliability.csv": "03627f2eb5a48950af9a8c15bb898ca3c5d371e6e4abd189ddafc8fcd69d53b1",
        "returns.csv": "bfeeaf35c3f6cbb64327154ca2d3bd4527f1e428044847fab94ca702690d9c31",
        "delay_cdf.svg": "8da76dad2f77e68708b51473bf89b7b242d4e438d7dfb9bc112f260886da879e",
    },
    "dex-sensitivity": {
        "sensitivity.csv": "ab1c8eba0e0a38af3de1469213dbdb58c60f8a0f723644986d1b45bc009b0871",
        "sensitivity.svg": "8e6e4e60f1afc667c90fcf7c36a05c324e21cdd389615550aea6226e4059b2fd",
    },
    "drl-compare": {
        "drl_returns.csv": "05d6d42af2cbd936c3a804fbf0eef32a186cd3b81a4f18b8bc02bab513df1dbf",
        "drl_returns.svg": "ac183a03184b530da6ed01e60626b4739d8cfb32b9df3c4450dc2013a3dcda6f",
        "a2c_training.csv": "ca303d7d210a5e6884fae761aa7a2e1bee42a51ec684345b9ea950a0293deda3",
        "dqn_training.csv": "d806b86b09054d9b01ec2a78aaa70a07167bc64b14c36d1e2028d7328b44147d",
    },
    "train": {
        "return_curve.svg": "6f49e378021ea0677c0800bf62eb23558a495765187b09b75b1294f6cbdeb5f1",
        "queues.svg": "93ecb08c3a0faee2cdbf609c8ea0baf1c18024e94e9781be3775fb3ae83750c9",
        "drift.svg": "c3a59f7682c8f68d68ce14a8b1f7f540347f8d4e208d57e5b377b94bc6e4e90a",
    },
    "two-step-dex": {
        "step_response.json": "f210419b8be0cc27ac7c162bb5bf4f87db912ebeb8df929a1800ff6d1ff03267",
        "step_rate.svg": "338b7e3d223c48fc7bdc6f7c453c1488595df38c8363af4004cb330d390bba2c",
    },
}


def _cli_argv(case, work):
    """The case's argv without ``--out``; compare first trains the a2c
    checkpoint it evaluates."""
    argv = CLI_CASES[case] + CLI_TINY
    if case == "compare":
        train = work / "train"
        assert main(["train", "--agent", "a2c", *CLI_TINY,
                     "--out", str(train)]) == 0
        argv += ["--checkpoint", str(train / "checkpoint.bin")]
    return argv


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_golden_cli_outputs(case, tmp_path):
    out = tmp_path / "run"
    assert main(_cli_argv(case, tmp_path) + ["--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in CLI_GOLDEN[case]}
    assert got == CLI_GOLDEN[case]
