"""Command-line entry point: training runs, policy comparisons, and the
preconfigured experiments, each emitting CSV tables, SVG figures and a
manifest sufficient to reproduce the run.

Exit codes: 0 success, 1 usage error, 2 config/validation error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ScenarioConfig, ValidationError,
                     config_to_text, load_config_values, parse_overrides)
from .engine import (AGENT_NAMES, POLICY_NAMES, build_policy,
                     export_diagnostics_csv, export_trace_csv, run_evaluation,
                     run_training, step_response_summary, stepped_user_columns,
                     trace_csv, training_row, write_csv)
from .metrics import (DexteritySensitivity, RunSummary, Summarizer,
                      compare_policies)
from .svgplot import ChartSpec, Series, render_svg


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        raise UsageError(message)


def _load_cfg(args: argparse.Namespace, preset: dict) -> ScenarioConfig:
    """Defaults, then ``preset``, ``--config`` and ``--set`` on top; validated once."""
    values = dict(preset)
    if args.config:
        values.update(load_config_values(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
    values.update(parse_overrides([item.split("=", 1)
                                   for item in args.set or []]))
    return ScenarioConfig(**values)


class RunDir:
    """Output directory plus the manifest of everything written into it."""

    def __init__(self, out: str, run_id: str, cfg: ScenarioConfig,
                 command: list[str]):
        self.path = Path(out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self.cfg = cfg
        self.command = command
        self.outputs: list[str] = []
        self.write_text("config.txt", config_to_text(cfg))

    def file(self, name: str) -> Path:
        self.outputs.append(name)
        return self.path / name

    def write_text(self, name: str, text: str) -> None:
        self.file(name).write_text(text)

    def finalize(self) -> None:
        manifest = {
            "run_id": self.run_id,
            "command": self.command,
            "version": __version__,
            "seed": self.cfg.master_seed,
            "config_snapshot": "config.txt",
            "outputs": sorted(set(self.outputs)),
        }
        (self.path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _series(ys, label: str) -> Series:
    return Series(label=label, points=tuple((float(i), float(y))
                                            for i, y in enumerate(ys)))


def _write_training_figures(run: RunDir, summ: RunSummary) -> None:
    run.write_text("return_curve.svg", render_svg(ChartSpec(
        kind="line", title="Episodic return",
        series=(_series(summ.returns, "raw"),
                _series(summ.returns_smoothed, "smoothed")),
        x_label="episode", y_label="return")))
    run.write_text("queues.svg", render_svg(ChartSpec(
        kind="line", title="Mean queue backlog per episode",
        series=(_series(summ.mean_queue_embb, "eMBB"),
                _series(summ.mean_queue_hrllc, "HRLLC")),
        x_label="episode", y_label="packets")))
    run.write_text("drift.svg", render_svg(ChartSpec(
        kind="line", title="Mean per-slice drift per episode",
        series=(_series(summ.mean_drift_embb, "eMBB"),
                _series(summ.mean_drift_hrllc, "HRLLC")),
        x_label="episode", y_label="drift")))


def cmd_train(args: argparse.Namespace, argv: list[str]) -> int:
    cfg = _load_cfg(args, {})
    run = RunDir(args.out, f"train-{args.agent}-{cfg.master_seed}", cfg, argv)
    summarizer, rows = Summarizer(cfg), []
    with trace_csv(run.file("trace.csv"), cfg) as trace:
        def on_episode(record):
            export_trace_csv(record, cfg, trace)
            rows.append(training_row(record))
            summarizer.add(record)
        policy = run_training(cfg, args.agent, on_episode)
    policy.save(run.file("checkpoint.bin"))
    export_diagnostics_csv(rows, run.file("training.csv"))
    _write_training_figures(run, summarizer.summary())
    run.finalize()
    return 0


def cmd_compare(args: argparse.Namespace, argv: list[str]) -> int:
    cfg = _load_cfg(args, {})
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise UsageError(f"--policies names no policy; choose from {POLICY_NAMES}")
    for p in policies:
        if p not in POLICY_NAMES:
            raise UsageError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
        if policies.count(p) > 1:
            raise UsageError(f"policy {p!r} is listed more than once")
    learned = [p for p in policies if p in AGENT_NAMES]
    if len(learned) > 1:
        raise UsageError(f"--policies names learned policies {learned}; "
                         "one --checkpoint can load only one of them")
    if learned and not args.checkpoint:
        raise ValidationError(
            f"policy {learned[0]!r} needs --checkpoint with trained parameters")
    if args.checkpoint and not learned:
        raise UsageError("--checkpoint needs a learned policy in --policies")
    eval_seed = args.eval_seed if args.eval_seed is not None \
        else cfg.master_seed + 1
    if eval_seed < 0:
        raise UsageError(f"--eval-seed must be >= 0, got {eval_seed}")
    # build and load every policy first: a bad checkpoint leaves no run dir
    built = {name: build_policy(name, cfg, eval_seed) for name in policies}
    for name in learned:
        built[name].load(args.checkpoint)
    run = RunDir(args.out, f"compare-{cfg.master_seed}", cfg, argv)
    summarizers = {name: Summarizer(cfg) for name in policies}
    run_evaluation(cfg, eval_seed,
                   [(built[name], summarizers[name].add) for name in policies])
    table = compare_policies({name: summarizer.summary()
                              for name, summarizer in summarizers.items()})
    write_csv(run.file("reliability.csv"), ["policy", "reliability_at_dmax"],
              [policies, [table["reliability"][p] for p in policies]])
    write_csv(run.file("returns.csv"), ["episode", *policies],
              [range(cfg.eval_episodes),
               *(table["returns"][p] for p in policies)])

    cdf_series = tuple(
        Series(label=name, points=tuple(table["cdf"][name]))
        for name in policies if table["cdf"][name])
    if cdf_series:
        run.write_text("delay_cdf.svg", render_svg(ChartSpec(
            kind="cdf", title="HRLLC delay CDF", series=cdf_series,
            x_label="delay (s)", y_label="cumulative fraction",
            v_refs=(cfg.d_max_s,), h_refs=(cfg.chi_h,))))
    run.finalize()
    return 0


def _experiment_two_step(args, argv, cfg: ScenarioConfig) -> int:
    if cfg.episodes * cfg.slots_per_episode < 3:
        raise ValidationError(
            "two-step-dex needs episodes * slots_per_episode >= 3, so that "
            "a window precedes the first change point")
    run = RunDir(args.out, f"two-step-dex-{cfg.master_seed}", cfg, argv)
    summarizer, parts = Summarizer(cfg), []
    with trace_csv(run.file("trace.csv"), cfg) as trace:
        def on_episode(record):
            export_trace_csv(record, cfg, trace)
            summarizer.add(record)
            parts.append(stepped_user_columns(record, cfg))
        run_training(cfg, "a2c", on_episode)
    stepped = np.concatenate(parts)
    summary = step_response_summary(stepped, cfg)
    run.write_text("step_response.json", json.dumps(summary, indent=2,
                                                    sort_keys=True) + "\n")
    _write_training_figures(run, summarizer.summary())
    step = max(len(stepped) // 2000, 1)        # decimate for plotting
    times = [float(t) for t in range(0, len(stepped), step)]  # from slot 0
    stepped = stepped[::step]
    mbps = (stepped["rates"] / 1e6).tolist()
    dxi = stepped["dxi"].tolist()
    run.write_text("step_rate.svg", render_svg(ChartSpec(
        kind="line", title="Stepped user: achieved rate and DXI",
        series=(Series("rate (Mbit/s)", tuple(zip(times, mbps))),
                Series("DXI", tuple(zip(times, dxi)))),
        x_label="slot", y_label="value")))
    run.finalize()
    return 0


def _experiment_dex_sensitivity(args, argv, cfg: ScenarioConfig) -> int:
    run = RunDir(args.out, f"dex-sensitivity-{cfg.master_seed}", cfg, argv)
    steady = DexteritySensitivity(cfg, cfg.episodes // 2)  # the final half
    run_training(cfg, "a2c", steady.add)
    table = steady.table()
    keys = ["user", "dxi", "mean_arrivals", "mean_departures", "mean_prbs"]
    write_csv(run.file("sensitivity.csv"), keys,
              [[row[k] for row in table["rows"]] for k in keys],
              [["# rank_correlation_dxi_prbs"],
               [table["rank_correlation_dxi_prbs"]]])
    run.write_text("sensitivity.svg", render_svg(ChartSpec(
        kind="bar", title="Per-user arrivals / departures / PRBs vs DXI",
        series=(Series("arrivals", tuple((r["dxi"], r["mean_arrivals"])
                                         for r in table["rows"])),
                Series("departures", tuple((r["dxi"], r["mean_departures"])
                                           for r in table["rows"])),
                Series("PRBs", tuple((r["dxi"], r["mean_prbs"])
                                     for r in table["rows"]))),
        x_label="dexterity index", y_label="mean per slot")))
    run.finalize()
    return 0


def _experiment_drl_compare(args, argv, cfg: ScenarioConfig) -> int:
    run = RunDir(args.out, f"drl-compare-{cfg.master_seed}", cfg, argv)
    curves = {}
    for kind in AGENT_NAMES:
        summarizer, rows = Summarizer(cfg), []
        def on_episode(record):
            rows.append(training_row(record))
            summarizer.add(record)
        run_training(cfg, kind, on_episode)
        curves[kind] = summarizer.summary().returns_smoothed
        export_diagnostics_csv(rows, run.file(f"{kind}_training.csv"))
    run.write_text("drl_returns.svg", render_svg(ChartSpec(
        kind="line", title="Smoothed episodic return",
        series=tuple(_series(curves[k], k.upper()) for k in AGENT_NAMES),
        x_label="episode", y_label="return")))
    write_csv(run.file("drl_returns.csv"), ["episode", *AGENT_NAMES],
              [range(cfg.episodes), *(curves[k] for k in AGENT_NAMES)])
    run.finalize()
    return 0


# name -> (runner, its scenario beneath the user's --config and --set)
EXPERIMENTS = {
    "two-step-dex": (_experiment_two_step, {      # user 0 steps 0 -> 5 -> 0
        "dxi_levels": (0.0, 2.5, 2.5), "dxi_middle": (5.0, 2.5, 2.5)}),
    "dex-sensitivity": (_experiment_dex_sensitivity, {
        "num_hrllc": 5, "dxi_levels": (0.0, 2.5, 5.0, 7.5, 10.0),
        "lambda_embb": 1.0}),
    "drl-compare": (_experiment_drl_compare, {}),
}


def cmd_experiment(args: argparse.Namespace, argv: list[str]) -> int:
    run, preset = EXPERIMENTS[args.name]
    return run(args, argv, _load_cfg(args, preset))


def build_parser() -> _Parser:
    parser = _Parser(prog="slicesched",
                     description="PRB slicing simulator and schedulers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value scenario file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", required=True, help="output directory")

    p_train = sub.add_parser("train", help="train a scheduling agent")
    common(p_train)
    p_train.add_argument("--agent", choices=AGENT_NAMES, default="a2c")

    p_cmp = sub.add_parser("compare", help="evaluate policies on shared seeds")
    common(p_cmp)
    p_cmp.add_argument("--policies", default="a2c,rr,pf",
                       help="comma list from: " + ",".join(POLICY_NAMES)
                       + "; at most one learned policy")
    p_cmp.add_argument("--checkpoint",
                       help="trained parameters of the learned policy")
    p_cmp.add_argument("--eval-seed", type=int, default=None)

    p_exp = sub.add_parser("experiment", help="run a preconfigured scenario")
    common(p_exp)
    p_exp.add_argument("--name", required=True, choices=EXPERIMENTS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args, argv)
        if args.command == "compare":
            return cmd_compare(args, argv)
        return cmd_experiment(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
