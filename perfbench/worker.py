"""One workload process of the benchmark.

Runs one ``slicesched`` CLI command (``train`` or ``compare``) in this fresh
process under the benchmark's wrappers, checks the files it wrote, and
writes what it measured to ``DIR/result.json``:

    python3 perfbench/worker.py --mode plain --dir DIR -- train --agent a2c \
        --set master_seed=7 --set episodes=10

The command's outputs go to ``DIR/run``.  Modes:

- ``plain``: only the per-episode timer and the per-``allocate`` timer.
- ``trace``: also one span per call at every layer boundary in ``TRACED``;
  the spans are written to ``DIR/spans.csv``.
- ``memory``: tracemalloc on from the start of the last episode, to measure
  the bytes that episode's record retains.

All wrappers are removed before the checks run, whatever the command did.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from tracer import CallTimer, EpisodeTimer, Patcher, Tracer

# span name -> definition it wraps (every slicesched global bound to the same
# object is wrapped as well).  Two functions may share a span name.
TRACED = [
    ("engine.Simulation.run_episode", "slicesched.engine:Simulation.run_episode"),
    ("traffic.MmppChain.step", "slicesched.traffic:MmppChain.step"),
    ("traffic.DexterityProfile.vector", "slicesched.traffic:DexterityProfile.vector"),
    ("traffic.sample_arrivals", "slicesched.traffic:sample_hrllc_arrivals"),
    ("traffic.sample_arrivals", "slicesched.traffic:sample_embb_arrivals"),
    ("channel.draw_channel", "slicesched.channel:draw_channel"),
    ("channel.rate_matrix", "slicesched.channel:rate_matrix"),
    ("channel.all_user_rates", "slicesched.channel:all_user_rates"),
    ("agents.A2CAgent.allocate", "slicesched.agents:A2CAgent.allocate"),
    ("agents.DqnAgent.allocate", "slicesched.agents:DqnAgent.allocate"),
    ("schedulers.ProportionalFairPolicy.allocate",
     "slicesched.schedulers:ProportionalFairPolicy.allocate"),
    ("schedulers.proportional_fair", "slicesched.schedulers:proportional_fair"),
    ("agents.encode_observation", "slicesched.agents:encode_observation"),
    ("agents.a2c_grads", "slicesched.agents:a2c_grads"),
    ("agents.softmax_categorical", "slicesched.net:softmax_categorical"),
    ("agents.decode_action", "slicesched.agents:decode_action"),
    ("schedulers.intra_slice_divide", "slicesched.schedulers:intra_slice_divide"),
    ("schedulers.materialize_assignment",
     "slicesched.schedulers:materialize_assignment"),
    ("schedulers.Allocation.validate", "slicesched.schedulers:Allocation.validate"),
    ("net.Mlp.forward", "slicesched.net:Mlp.forward"),
    ("net.Mlp.backward", "slicesched.net:Mlp.backward"),
    ("net.clip_grads", "slicesched.net:clip_grads"),
    ("net.Adam.step", "slicesched.net:Adam.step"),
    ("queueing.UserQueue.update", "slicesched.queueing:UserQueue.update"),
    ("queueing.packet_delays", "slicesched.queueing:packet_delays"),
    ("queueing.LyapunovState.advance", "slicesched.queueing:LyapunovState.advance"),
    ("constraint.surrogate_y", "slicesched.constraint:surrogate_y"),
    ("agents.step_cost", "slicesched.agents:step_cost"),
    ("agents.reward", "slicesched.agents:reward"),
    ("engine.export_trace_csv", "slicesched.engine:export_trace_csv"),
    ("engine.export_diagnostics_csv", "slicesched.engine:export_diagnostics_csv"),
    ("metrics.summarize", "slicesched.metrics:summarize"),
    ("metrics.compare_policies", "slicesched.metrics:compare_policies"),
    ("constraint.delay_cdf", "slicesched.constraint:delay_cdf"),
    ("svgplot.render_svg", "slicesched.svgplot:render_svg"),
    ("net.save_arrays", "slicesched.net:save_arrays"),
]

POLICY_ALLOCATE = [
    "slicesched.agents:A2CAgent.allocate",
    "slicesched.agents:DqnAgent.allocate",
    "slicesched.schedulers:RoundRobinPolicy.allocate",
    "slicesched.schedulers:ProportionalFairPolicy.allocate",
]


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


# work counted at the same boundaries as the spans: fn(counts, args, result)
COUNTERS = {
    "net.Mlp.forward": lambda c, a, r: _add(
        c, "net.Mlp.forward.rows", 1 if np.ndim(a[1]) == 1 else len(a[1])),
    "net.Adam.step": lambda c, a, r: _add(
        c, "net.Adam.step.floats", sum(p.size for p in a[1])),
    "net.clip_grads": lambda c, a, r: _add(
        c, "net.clip_grads.active", r is not a[0]),
    "queueing.UserQueue.update": lambda c, a, r: _add(
        c, "queueing.packets_moved", a[1] + len(r)),
    "agents.reward": lambda c, a, r: _add(
        c, "constraint.violation_positive", a[4] > 0),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def check_outputs(run_dir: Path, command: str, cfg, records) -> list[str]:
    """Output checks; returns one message per failed check."""
    from slicesched.metrics import summarize
    from slicesched.net import load_arrays

    errors = []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for name in manifest["outputs"]:
        if not (run_dir / name).is_file() or (run_dir / name).stat().st_size == 0:
            errors.append(f"{name} listed in manifest.json but missing or empty")
    if errors:
        return errors
    if command == "train":
        n_episodes = cfg.episodes
        head, trace = _csv(run_dir / "trace.csv")
        col = {name: i for i, name in enumerate(head)}
        alloc = trace[:, [col[f"a_{u}"] for u in range(cfg.num_users)]]
        rates = trace[:, [col[f"r_{u}"] for u in range(cfg.num_users)]]
        backlogs = trace[:, [i for n, i in col.items() if n[:2] in ("G_", "F_")]]
        if len(trace) != n_episodes * cfg.slots_per_episode:
            errors.append(f"trace.csv has {len(trace)} slot rows")
        elif not np.array_equal(trace[:, col["slot"]], np.arange(len(trace))):
            errors.append("trace.csv slot column is not 0..n-1")
        if not np.all(alloc.sum(axis=1) == cfg.num_prbs) or np.any(alloc < 1):
            errors.append("trace.csv has an allocation that is not feasible")
        if not np.all(np.isfinite(trace)) or np.any(rates < 0) or np.any(backlogs < 0):
            errors.append("trace.csv has a negative or non-finite rate or backlog")
        _, training = _csv(run_dir / "training.csv")
        returns = [math.fsum(trace[trace[:, col["episode"]] == e, col["reward"]])
                   for e in range(n_episodes)]
        if len(training) != n_episodes or not np.allclose(
                training[:, 1], returns, rtol=1e-9, atol=1e-9):
            errors.append("training.csv returns do not sum trace.csv rewards")
        _, meta = load_arrays(run_dir / "checkpoint.bin")
        argv = manifest["command"]
        if meta.get("kind") != argv[argv.index("--agent") + 1]:
            errors.append(f"checkpoint.bin holds a {meta.get('kind')!r} policy")
    else:
        n_episodes = cfg.eval_episodes
        _, returns = _csv(run_dir / "returns.csv")
        if returns[:, 1].tolist() != [r.episodic_return for r in records]:
            errors.append("returns.csv differs from the episode returns")
        rel_line = (run_dir / "reliability.csv").read_text().splitlines()[1]
        if float(rel_line.split(",")[1]) != summarize(records, cfg).reliability_at_dmax:
            errors.append("reliability.csv differs from metrics.summarize")
        if not (run_dir / "delay_cdf.svg").read_text().startswith("<svg"):
            errors.append("delay_cdf.svg is not an SVG document")
    if len(records) != n_episodes:
        errors.append(f"{len(records)} episodes ran, {n_episodes} expected")
    return errors


def simulated(records, cfg) -> dict:
    """Simulated outcomes through the library's public API; exact per seed."""
    from slicesched.metrics import summarize

    summ = summarize(records, cfg)
    delays = summ.delays_s
    values, counts = np.unique(delays, return_counts=True)
    embb = [s.rates[:cfg.num_embb] for r in records for s in r.slots]
    return {
        "hrllc_packets": int(delays.size),
        "hrllc_reliability": summ.reliability_at_dmax,
        "hrllc_delay_hist_s": [values.tolist(), counts.tolist()],
        "embb_bits_per_s_sum": float(np.sum(embb)),
        "embb_user_slots": int(np.size(embb)),
        "hrllc_backlog_mean": float(np.mean(summ.mean_queue_hrllc)),
    }


def layer_stats(tracer: Tracer, slots: int) -> dict:
    """Per-span ``ns_per_slot``, ``self_ns_per_slot``, ``calls_per_slot``
    and ``ms``, plus the counted work and ``trace.coverage``."""
    out = {}
    summary = tracer.summary()
    for name, s in summary.items():
        out[f"{name}.ns_per_slot"] = s["total_ns"] / slots
        out[f"{name}.self_ns_per_slot"] = s["self_ns"] / slots
        out[f"{name}.calls_per_slot"] = s["calls"] / slots
        out[f"{name}.ms"] = s["total_ns"] / 1e6
    counts = tracer.counts
    out["net.Mlp.forward.rows_per_slot"] = counts.get("net.Mlp.forward.rows", 0) / slots
    out["net.Adam.step.floats_per_slot"] = counts.get("net.Adam.step.floats", 0) / slots
    out["net.clip_grads.active_frac"] = (counts.get("net.clip_grads.active", 0)
                                         / max(summary["net.clip_grads"]["calls"], 1))
    out["queueing.packets_moved_per_slot"] = counts.get("queueing.packets_moved", 0) / slots
    out["constraint.violation_positive_frac"] = (
        counts.get("constraint.violation_positive", 0) / slots)
    episode = summary["engine.Simulation.run_episode"]
    out["trace.coverage"] = episode["covered_ns"] / episode["total_ns"]
    return out


def install(patcher: Patcher, episodes: EpisodeTimer, decide: CallTimer,
            tracer: Tracer | None) -> None:
    """The per-episode and per-``allocate`` timers, plus, when tracing, the
    spans; the tracer goes on first so that the timers enclose it."""
    if tracer is not None:
        for name, target in TRACED:
            patcher.wrap(target, tracer(name))
    patcher.wrap("slicesched.engine:Simulation.run_episode", episodes)
    for target in POLICY_ALLOCATE:
        patcher.wrap(target, decide)


def run(mode: str, work: Path, n_episodes: int, cli_args: list[str]) -> dict:
    from slicesched import cli

    episodes, decide = EpisodeTimer(), CallTimer()
    if mode == "memory":
        episodes.before = lambda i: tracemalloc.start() if i == n_episodes - 1 else None
    tracer = Tracer(COUNTERS) if mode == "trace" else None
    run_dir = work / "run"
    argv = cli_args + ["--out", str(run_dir)]
    with Patcher() as patcher:
        install(patcher, episodes, decide, tracer)
        status = cli.main(argv)
        returned_ns = time.monotonic_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records, sim = episodes.records, episodes.sim
    result = {"status": status, "episodes": len(records), "errors": []}
    if status != 0 or sim is None:
        result["errors"].append(f"slicesched exited with status {status}")
        return result
    cfg = sim.cfg
    slots = len(records) * cfg.slots_per_episode
    result["errors"] = check_outputs(run_dir, cli_args[0], cfg, records)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    result["digests"] = {name: sha256(run_dir / name)
                         for name in sorted(manifest["outputs"])}
    result.update(
        slots=slots,
        first_episode_start_ns=episodes.starts[0],
        episode_phase_s=(episodes.ends[-1] - episodes.starts[0]) / 1e9,
        export_s=(returned_ns - episodes.ends[-1]) / 1e9,
        peak_rss_mb=peak_rss_mb,
        decide_ns=decide.samples_ns,
        dual_final=sim.dual.value,
        simulated=simulated(records, cfg),
    )
    if tracer is not None:
        result["layers"] = layer_stats(tracer, slots)
        tracer.write(work / "spans.csv")
    if mode == "memory":
        # only the last episode's allocations are traced, so releasing every
        # record frees exactly the bytes that one record retains
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del records
        episodes.records.clear()
        gc.collect()
        result["record_bytes_per_slot"] = ((held - tracemalloc.get_traced_memory()[0])
                                           / cfg.slots_per_episode)
        tracemalloc.stop()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--episodes", required=True, type=int,
                        help="episodes the command runs")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        result = run(args.mode, args.dir, args.episodes, cli_args)
    except Exception:  # noqa: BLE001 - reported to the runner as a failed process
        result = {"status": None, "episodes": 0, "errors": [traceback.format_exc()]}
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
