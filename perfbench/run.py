"""Benchmark runner for slicesched.

    python3 perfbench/run.py --workload a2c-train --seed 1 --seconds 30 --trace 0

Runs the workload as a sequence of fresh worker processes, one at a time,
each a complete ``slicesched`` CLI command on its own world seed.  Prints a
line per process (world seed, timings, output digests), the environment, the
metrics by name with their units, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer ones.

A run's work depends only on ``--seed`` and ``--seconds``, never on how fast
the host is: ``--seconds`` sets the number of processes (seconds divided by
the workload's nominal process time on the reference host, see README.md),
and the seed sets their world seeds.  So at a fixed seed every run simulates
exactly the same slots and writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
HELD_OUT_SEED = 7919      # kept out of tuning; a claimed gain must hold on it
SEED_STRIDE = 10**6       # world seed of process i is seed * SEED_STRIDE + i
WORKER_TIMEOUT_S = 60    # a worker normally ends within 10 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    cli: tuple[str, ...]       # slicesched command, without --out and --set
    episodes_key: str          # config key that sets the episode count
    episodes: int              # episodes per process (200 slots each)
    process_s: float           # nominal process time on the reference host


WORKLOADS = {
    "a2c-train": Workload(
        ("train", "--agent", "a2c"), "episodes", 10, 3.0),
    "dqn-train": Workload(
        ("train", "--agent", "dqn"), "episodes", 10, 3.0),
    "pf-eval": Workload(
        ("compare", "--policies", "pf"), "eval_episodes", 20, 1.5),
}


def benchmark_spec() -> tuple[dict, dict, dict]:
    """(why per workload, unit per end-to-end metric, unit per layer metric)
    from BENCHMARK.json, which names every metric the runner reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"]: w["why"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    env = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": {k: "1" for k in THREAD_ENV},
        "git_commit": "unknown (not a git checkout)",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["git_commit"] = ref
    return env


def run_process(workload: Workload, mode: str, world_seed: int, work: Path) -> dict:
    """Launch one worker and wait for it; returns its result plus setup_s."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--dir", str(work), "--episodes", str(workload.episodes),
           "--", *workload.cli,
           "--set", f"master_seed={world_seed}",
           "--set", f"{workload.episodes_key}={workload.episodes}"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{k: "1" for k in THREAD_ENV})
    launched_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"episodes": 0, "errors": [f"worker timed out after {WORKER_TIMEOUT_S} s"],
                "mode": mode, "world_seed": world_seed}
    result_file = work / "result.json"
    if result_file.is_file():
        result = json.loads(result_file.read_text())
    else:
        result = {"episodes": 0, "errors": [f"worker exited {proc.returncode}"]}
    if proc.returncode != 0 and not result["errors"]:
        result["errors"].append(f"worker exited {proc.returncode}")
    if result["errors"] and proc.stderr:
        result["errors"].append(proc.stderr[-2000:])
    if "first_episode_start_ns" in result:
        result["setup_s"] = (result["first_episode_start_ns"] - launched_ns) / 1e9
        decide_us = np.array(result.pop("decide_ns")) / 1e3
        result["decide_samples"] = len(decide_us)
        for q in (50, 90, 99):
            result[f"decide_us_p{q}"] = float(np.percentile(decide_us, q))
    result.update(mode=mode, world_seed=world_seed)
    return result


def pooled_simulated(results: list[dict]) -> dict:
    """Simulated outcomes pooled over the processes' packets and slots."""
    sims = [r["simulated"] for r in results]
    packets = sum(s["hrllc_packets"] for s in sims)
    values = np.concatenate([s["hrllc_delay_hist_s"][0] for s in sims])
    counts = np.concatenate([s["hrllc_delay_hist_s"][1] for s in sims])
    delays_ms = np.repeat(values, counts.astype(int)) * 1e3
    return {
        "hrllc_reliability": sum(s["hrllc_reliability"] * s["hrllc_packets"]
                                 for s in sims) / packets,
        "hrllc_delay_ms_mean": float(np.mean(delays_ms)),
        "hrllc_delay_ms_p99": float(np.percentile(delays_ms, 99)),
        "embb_mbps": sum(s["embb_bits_per_s_sum"] for s in sims)
                     / sum(s["embb_user_slots"] for s in sims) / 1e6,
        "hrllc_backlog_mean": float(np.mean([s["hrllc_backlog_mean"] for s in sims])),
    }


def slots_per_s(r: dict) -> float:
    return r["slots"] / r["episode_phase_s"]


def end_to_end(ok: list[dict], attempted: int, failed: int) -> dict:
    """Host times are those of the run's slowest process.  This host's speed
    drifts by up to 2x, in states that last from seconds to many minutes; its
    slow state recurs in nearly every run, its fast state does not, so the
    slowest process is the figure that repeats from run to run.  A change
    that moves work into or out of a phase moves every process with it."""
    sim = pooled_simulated(ok)
    return {
        "slots_per_s": min(slots_per_s(r) for r in ok),
        "decide_us_p50": max(r["decide_us_p50"] for r in ok),
        "decide_us_p90": max(r["decide_us_p90"] for r in ok),
        "setup_s": max(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "hrllc_reliability": sim["hrllc_reliability"],
        "embb_mbps": sim["embb_mbps"],
        "episodes_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(plain: list[dict], traced: list[dict], memory: list[dict]) -> dict:
    out = {name: float(statistics.median(r["layers"][name] for r in traced))
           for name in traced[0]["layers"]}
    sim = pooled_simulated(traced)
    for name in ("hrllc_backlog_mean", "hrllc_delay_ms_mean", "hrllc_delay_ms_p99"):
        out[f"queueing.{name}"] = sim[name]
    for q in (50, 99):
        out[f"schedulers.Policy.allocate.us_p{q}"] = float(
            statistics.median(r[f"decide_us_p{q}"] for r in plain))
    out["cli.export_s"] = float(statistics.median(r["export_s"] for r in plain))
    out["constraint.dual_final"] = float(statistics.median(r["dual_final"] for r in traced))
    # each traced process ran right next to a plain one on the same world seed
    plain_sps = {r["world_seed"]: slots_per_s(r) for r in plain}
    out["trace.overhead_frac"] = 1.0 - statistics.median(
        slots_per_s(r) / plain_sps[r["world_seed"]] for r in traced)
    out["engine.record_bytes_per_slot"] = memory[0]["record_bytes_per_slot"]
    return out


def plan(workload: Workload, seed: int, seconds: int, trace: bool) -> list[tuple[str, int]]:
    """(mode, world seed) per process, in launch order."""
    n = max(3, round(seconds / workload.process_s))
    seeds = [seed * SEED_STRIDE + i for i in range(n)]
    if not trace:
        return [("plain", s) for s in seeds]
    # plain/traced pairs on the same world seed, alternating which goes first,
    # then one tracemalloc process; all of a seed's digests must agree
    steps = []
    for i, s in enumerate(seeds[:max(2, n // 3)]):
        pair = [("plain", s), ("trace", s)]
        steps += pair if i % 2 == 0 else pair[::-1]
    return steps + [("memory", seeds[0])]


def main() -> int:
    parser = argparse.ArgumentParser(description="slicesched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "slicesched" / "__init__.py").is_file():
        print(f"error: no slicesched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    whys, e2e_units, layer_units = benchmark_spec()
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"workload {args.workload}: {whys[args.workload]}")
    print("environment " + json.dumps(env, sort_keys=True))

    results = []
    for i, (mode, world_seed) in enumerate(plan(workload, args.seed, args.seconds,
                                                bool(args.trace))):
        work = OUT / "work" / f"{tag}-{i}"
        r = run_process(workload, mode, world_seed, work)
        if mode == "trace" and not r["errors"]:
            shutil.copyfile(work / "spans.csv", OUT / f"spans-{args.workload}.csv")
        shutil.rmtree(work, ignore_errors=True)
        results.append(r)
        line = f"process {i} {mode} world_seed={world_seed}"
        if not r["errors"]:
            line += (f" slots/s={slots_per_s(r):.1f} setup_s={r['setup_s']:.3f}"
                     f" export_s={r['export_s']:.3f}")
        print(line)
        for name, digest in r.get("digests", {}).items():
            print(f"  sha256 {digest}  {name}")
        for err in r["errors"]:
            print(f"  FAILED: {err}")

    # a world seed's outputs must be identical whatever wrappers were on
    by_seed: dict[int, list[dict]] = {}
    for r in results:
        if not r["errors"]:
            by_seed.setdefault(r["world_seed"], []).append(r)
    for group in by_seed.values():
        if any(r["digests"] != group[0]["digests"] for r in group):
            print(f"  FAILED: outputs of world seed {group[0]['world_seed']} "
                  "differ between processes")
            for r in group:
                r["errors"].append("digest mismatch")

    attempted = workload.episodes * len(results)
    failed = sum(workload.episodes for r in results if r["errors"])
    ok = [r for r in results if not r["errors"]]
    by_mode = {m: [r for r in ok if r["mode"] == m] for m in ("plain", "trace", "memory")}
    correct = failed == 0
    if args.trace:
        units = layer_units
        metrics = per_layer(by_mode["plain"], by_mode["trace"], by_mode["memory"]) \
            if correct else {}
    else:
        units = e2e_units
        metrics = end_to_end(ok, attempted, failed) if ok else {}
    missing = sorted(set(units) - set(metrics))
    if correct and missing:
        raise KeyError(f"metrics not measured: {missing}")
    metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    decide_samples = sum(r["decide_samples"] for r in by_mode["plain"])
    print(f"decide samples: {decide_samples} (one per slot, "
          f"{len(by_mode['plain'])} processes)")
    for name, m in metrics.items():
        print(f"  {name:55s} {m['value']:.6g} {m['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "decide_samples": decide_samples,
        "processes": [{k: v for k, v in r.items() if k != "layers"} for r in results],
        "correct": correct, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
