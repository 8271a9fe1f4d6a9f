"""Tests of the benchmark's wrappers: they measure without changing what the
program does, and they leave every ``slicesched.*`` name as they found it.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import worker  # noqa: E402
from tracer import CallTimer, EpisodeTimer, Patcher, Tracer  # noqa: E402

EPISODES = 2
TINY = ["--set", "master_seed=3", "--set", "slots_per_episode=20"]
COMMANDS = {
    "a2c": ["train", "--agent", "a2c", "--set", f"episodes={EPISODES}", *TINY],
    "dqn": ["train", "--agent", "dqn", "--set", f"episodes={EPISODES}",
            "--set", "dqn_batch_size=8", *TINY],
    "pf": ["compare", "--policies", "pf", "--set", f"eval_episodes={EPISODES}", *TINY],
}


def bindings() -> dict:
    """Identity of every global and class attribute in slicesched.*."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "slicesched":
            continue
        for key, value in vars(module).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, f"{key}.{attr}")] = id(member)
    return out


@pytest.mark.parametrize("policy", sorted(COMMANDS))
def test_traced_plain_and_memory_runs_write_identical_outputs(policy, tmp_path):
    results = {mode: worker.run(mode, tmp_path / mode, EPISODES, COMMANDS[policy])
               for mode in ("plain", "trace", "memory")}
    for mode, result in results.items():
        assert result["errors"] == [], (mode, result["errors"])
    digests = {mode: r["digests"] for mode, r in results.items()}
    assert digests["plain"] == digests["trace"] == digests["memory"]
    assert results["plain"]["simulated"] == results["trace"]["simulated"]
    assert len(results["plain"]["decide_ns"]) == EPISODES * 20
    assert results["memory"]["record_bytes_per_slot"] > 0

    layers = results["trace"]["layers"]
    assert layers["channel.rate_matrix.calls_per_slot"] == 2.0
    assert layers["schedulers.Allocation.validate.calls_per_slot"] == 1.0
    assert 0.0 < layers["trace.coverage"] < 1.0
    if policy == "pf":
        assert layers["net.Mlp.forward.calls_per_slot"] == 0.0
    assert (tmp_path / "trace" / "spans.csv").is_file()


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from slicesched import cli  # noqa: F401 - load every module first
    before = bindings()
    result = worker.run("trace", tmp_path, EPISODES, COMMANDS["a2c"])
    assert result["errors"] == []
    assert bindings() == before


def test_wrappers_are_removed_when_the_run_raises():
    from slicesched import channel, engine, net
    originals = (engine.rate_matrix, net.clip_grads, net.Mlp.forward)
    before = bindings()
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            worker.install(patcher, EpisodeTimer(), CallTimer(), Tracer())
            assert engine.rate_matrix is channel.rate_matrix is not originals[0]
            raise RuntimeError("run failed")
    assert (engine.rate_matrix, net.clip_grads, net.Mlp.forward) == originals
    assert bindings() == before


def test_untraced_run_installs_only_the_episode_and_allocate_timers():
    with Patcher() as patcher:
        worker.install(patcher, EpisodeTimer(), CallTimer(), None)
        assert patcher.patched == {
            ("Simulation", "run_episode"), ("A2CAgent", "allocate"),
            ("DqnAgent", "allocate"), ("RoundRobinPolicy", "allocate"),
            ("ProportionalFairPolicy", "allocate")}


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        leaf()
        time.sleep(0.002)

    def outer():
        middle()
        leaf()

    leaf = tracer("leaf")(leaf)
    middle = tracer("middle")(middle)
    outer = tracer("outer")(outer)
    outer()
    s = tracer.summary()
    assert [s[n]["calls"] for n in ("outer", "middle", "leaf")] == [1, 1, 2]
    # outer's children: middle, and the one leaf call that is not middle's
    assert s["outer"]["covered_ns"] == (s["middle"]["total_ns"] + s["leaf"]["total_ns"]
                                        - s["middle"]["covered_ns"])
    assert s["leaf"]["self_ns"] == s["leaf"]["total_ns"]
    for n in ("outer", "middle"):
        assert s[n]["self_ns"] == pytest.approx(s[n]["total_ns"] - s[n]["covered_ns"])
        assert s[n]["self_ns"] > 0
