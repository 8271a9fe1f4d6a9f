"""Aggregation of episode records into the quantities worth plotting:
smoothed return curves, queue/drift traces, delay CDFs with reliability at
the deadline, policy overlays, and dexterity sensitivity tables.

All functions are pure over their record inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .constraint import delay_cdf, reliability
from .engine import EpisodeRecord, concat_slots
from .queueing import hrllc_delays

SMOOTH_WINDOW = 10      # episodes in a smoothed return curve's trailing mean


def moving_average(series, window: int) -> np.ndarray:
    """Trailing mean; the first k points average only the first k samples."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    cum = np.cumsum(x)
    # cum[i] - cum[i - window] once the window is full, cum[i] - 0.0 before
    before = np.zeros_like(x)
    before[window:] = cum[:-window]
    counts = np.minimum(np.arange(1, x.size + 1), window)
    return (cum - before) / counts


@dataclass
class RunSummary:
    returns: np.ndarray            # per-episode raw returns
    returns_smoothed: np.ndarray
    mean_queue_embb: np.ndarray    # per-episode mean total backlog, eMBB
    mean_queue_hrllc: np.ndarray
    mean_drift_embb: np.ndarray    # per-episode mean drift per slice
    mean_drift_hrllc: np.ndarray
    delays_s: np.ndarray           # pooled per-packet HRLLC delays
    reliability_at_dmax: float


def episode_series(records: list[EpisodeRecord], cfg: ScenarioConfig
                   ) -> dict[str, np.ndarray]:
    """The per-episode curves of a summary, by field name."""
    returns = np.array([r.episodic_return for r in records])
    n_e = cfg.num_embb
    return {
        "returns": returns,
        "returns_smoothed": moving_average(returns, SMOOTH_WINDOW),
        "mean_queue_embb": np.array(
            [r.slots.backlogs[:, :n_e].sum(axis=1).mean() for r in records]),
        "mean_queue_hrllc": np.array(
            [r.slots.backlogs[:, n_e:].sum(axis=1).mean() for r in records]),
        "mean_drift_embb": np.array([r.slots.drift_embb.mean() for r in records]),
        "mean_drift_hrllc": np.array(
            [r.slots.drift_hrllc.mean() for r in records])}


def summarize(records: list[EpisodeRecord], cfg: ScenarioConfig) -> RunSummary:
    delays = np.concatenate([hrllc_delays(r.slots, cfg.num_embb,
                                          cfg.slot_duration_s, cfg.d_proc_s)
                             for r in records])
    rel = reliability(delays, cfg.d_max_s) if delays.size else float("nan")
    return RunSummary(**episode_series(records, cfg), delays_s=delays,
                      reliability_at_dmax=rel)


def compare_policies(records_by_policy: dict[str, list[EpisodeRecord]],
                     cfg: ScenarioConfig) -> dict:
    """Aligned per-episode return table, per-policy delay CDFs, and the
    reliability at the deadline for each policy."""
    lengths = {name: len(recs) for name, recs in records_by_policy.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"mismatched run lengths: {lengths}")
    out = {"returns": {}, "cdf": {}, "reliability": {}}
    for name, recs in records_by_policy.items():
        summ = summarize(recs, cfg)
        out["returns"][name] = summ.returns
        out["cdf"][name] = (delay_cdf(summ.delays_s) if summ.delays_s.size
                            else [])
        out["reliability"][name] = summ.reliability_at_dmax
    return out


def spearman_rank_correlation(x, y) -> float:
    """Rank correlation in [-1, 1] (average ranks on ties)."""
    def ranks(v: np.ndarray) -> np.ndarray:
        # a value's rank is the mean of the first and last sorted positions
        # its ties span
        _, inverse = np.unique(v, return_inverse=True)
        counts = np.bincount(inverse)
        last = np.cumsum(counts) - 1
        return ((last - counts + 1 + last) / 2.0)[inverse]

    rx, ry = ranks(np.asarray(x, float)), ranks(np.asarray(y, float))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def dexterity_sensitivity(records: list[EpisodeRecord], cfg: ScenarioConfig
                          ) -> dict:
    """Per-HRLLC-user steady-state table sorted by DXI, with the rank
    correlation between DXI and mean allocated PRBs; every mean is over the
    records' slots."""
    slots = concat_slots(records)
    dxi = slots.dxi.mean(axis=0).tolist()
    arrivals, departures, prbs = (
        column[:, cfg.num_embb:].mean(axis=0).tolist()
        for column in (slots.arrivals, slots.departures, slots.counts))
    rows = [{"user": u, "dxi": dxi[u], "mean_arrivals": arrivals[u],
             "mean_departures": departures[u], "mean_prbs": prbs[u]}
            for u in range(cfg.num_hrllc)]
    rows.sort(key=lambda r: r["dxi"])
    corr = spearman_rank_correlation([r["dxi"] for r in rows],
                                     [r["mean_prbs"] for r in rows])
    return {"rows": rows, "rank_correlation_dxi_prbs": corr}
