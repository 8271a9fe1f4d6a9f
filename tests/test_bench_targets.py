"""The benchmark in ``perfbench/`` wraps slicesched functions by name.

This reads the names from ``perfbench/worker.py`` without importing it and
checks that each one still resolves, so that renaming or moving a wrapped
function fails here rather than in a benchmark run.  It also checks the
work counters (``COUNTERS``): each one counts at a traced span and reads
only positional arguments that the wrapped functions have, since a counter
that reads a missing argument fails only in a traced run.  Last, it runs
the worker itself on tiny commands, since its output checks read results
of the library (the run's config and dual, the episode records, the
summary) that no name lookup covers, and reads one of its work counters and
the HRLLC delay statistics it reports.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slicesched.agents import a2c_net, obs_length
from slicesched.config import ScenarioConfig
from slicesched.engine import build_policy, run_evaluation

from conftest import pooled_hrllc_delays, pooled_reliability

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
NAMES = ("TRACED", "POLICY_ALLOCATE", "COUNTERS")


def _assignments() -> dict[str, ast.expr]:
    nodes = {}
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in NAMES:
            nodes[node.targets[0].id] = node.value
    assert set(nodes) == set(NAMES)
    return nodes


NODES = _assignments()
TRACED = ast.literal_eval(NODES["TRACED"])


def _targets() -> list[str]:
    return [target for _, target in TRACED] + ast.literal_eval(
        NODES["POLICY_ALLOCATE"])


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    assert module_name.split(".")[0] == "slicesched"
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the benchmark wraps a method where its class defines it
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def _counters() -> dict[str, set[int]]:
    """Span name -> the positional indices ``a[k]`` its counter reads."""
    out = {}
    for key, fn in zip(NODES["COUNTERS"].keys, NODES["COUNTERS"].values):
        assert isinstance(fn, ast.Lambda)
        args = fn.args.args[1].arg          # fn(counts, args, result)
        out[ast.literal_eval(key)] = {
            node.slice.value for node in ast.walk(fn.body)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == args
            and isinstance(node.slice, ast.Constant)}
    assert out
    return out


@pytest.mark.parametrize("target", _targets())
def test_benchmark_target_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("span, indices", sorted(_counters().items()))
def test_benchmark_counter_reads_wrapped_arguments(span, indices):
    targets = [target for name, target in TRACED if name == span]
    assert targets, f"counter {span!r} names no traced span"
    for target in targets:
        params = inspect.signature(_resolve(target)).parameters.values()
        kinds = [p.kind for p in params]
        if inspect.Parameter.VAR_POSITIONAL in kinds:
            continue
        positional = kinds.count(inspect.Parameter.POSITIONAL_ONLY) + \
            kinds.count(inspect.Parameter.POSITIONAL_OR_KEYWORD)
        assert max(indices, default=-1) < positional, (target, indices)


@pytest.mark.parametrize("command, episodes_key", [
    (["train", "--agent", "a2c"], "episodes"),
    (["train", "--agent", "dqn"], "episodes"),
    (["compare", "--policies", "pf"], "eval_episodes"),
], ids=["a2c-train", "dqn-train", "pf-eval"])
def test_benchmark_worker_runs_clean(tmp_path, command, episodes_key):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = {}
    for mode in ("plain", "trace"):
        work = tmp_path / mode
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--mode", mode, "--dir", str(work),
             "--episodes", "2", "--", *command, "--set", "master_seed=5",
             "--set", f"{episodes_key}=2", "--set", "slots_per_episode=20"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        result = json.loads((work / "result.json").read_text())
        assert proc.returncode == 0, result["errors"] or proc.stderr
        assert result["errors"] == []
        results[mode] = result
    assert results["plain"]["digests"] == results["trace"]["digests"]
    if command[0] == "compare":
        # the delay statistics the benchmark reads, against the pooled
        # reference on the same world (compare's eval seed is master_seed + 1)
        cfg = ScenarioConfig(master_seed=5, eval_episodes=2,
                             slots_per_episode=20)
        records = []
        run_evaluation(cfg, 6, [(build_policy("pf", cfg, 6), records.append)])
        pooled = pooled_hrllc_delays(records, cfg)
        values, counts = np.unique(pooled, return_counts=True)
        for result in results.values():
            simulated = result["simulated"]
            assert simulated["hrllc_delay_hist_s"] == [values.tolist(),
                                                       counts.tolist()]
            assert simulated["hrllc_reliability"] == pooled_reliability(
                pooled, cfg.d_max_s)
            assert simulated["hrllc_packets"] == pooled.size > 0
    # the engine computes each slot's achieved rates once, for every policy
    layers = results["trace"]["layers"]
    assert layers["channel.all_user_rates.calls_per_slot"] == 1.0
    if command[-1] == "a2c":
        # both of A2C's optimizers step every parameter of its one net
        # each slot: 2 x 7 447 floats at the default sizes
        cfg = ScenarioConfig()
        net = a2c_net(obs_length(cfg), cfg.num_prbs - cfg.num_users + 1,
                      np.random.default_rng(0))
        assert layers["net.Adam.step.floats_per_slot"] == 2 * net.flat.size \
            == 14_894
