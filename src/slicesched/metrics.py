"""Aggregation of a run's episodes into the quantities worth plotting:
smoothed return curves, queue/drift traces, delay CDFs with reliability at
the deadline, policy overlays, and dexterity sensitivity tables.

Each of the two reducers, ``Summarizer`` and ``DexteritySensitivity``,
folds one finished ``EpisodeRecord`` at a time (``add``) and keeps only
what its outputs read, never a slot table: per-episode scalars and the
HRLLC delays as counts per integer age, or per-user sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .constraint import delay_cdf, reliability
from .engine import EpisodeRecord
from .queueing import hrllc_age_counts, packet_delays

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
    delay_values: np.ndarray       # distinct HRLLC packet delays, ascending
    delay_counts: np.ndarray       # packets with each of those delays
    reliability_at_dmax: float

    @property
    def delays_s(self) -> np.ndarray:
        """Every HRLLC packet delay, ascending: the histogram expanded."""
        return np.repeat(self.delay_values, self.delay_counts)


class Summarizer:
    """A run's per-episode curves and its HRLLC packet delays, the latter
    kept as counts per integer age: a delay is ``age * slot_s + d_proc_s``,
    so the ages with packets give the distinct delays and their counts."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rows = []   # per episode: its curves' values, in RunSummary's order
        self.age_counts = np.zeros(cfg.slots_per_episode, dtype=np.int64)

    def add(self, record: EpisodeRecord) -> None:
        s, n_e = record.slots, self.cfg.num_embb
        self.rows.append((record.episodic_return,
                          s.backlogs[:, :n_e].sum(axis=1).mean(),
                          s.backlogs[:, n_e:].sum(axis=1).mean(),
                          s.drift_embb.mean(), s.drift_hrllc.mean()))
        self.age_counts += hrllc_age_counts(s, n_e)

    def summary(self) -> RunSummary:
        cfg = self.cfg
        returns, *curves = (np.array(column) for column in zip(*self.rows))
        ages = np.flatnonzero(self.age_counts)
        values = packet_delays(ages, cfg.slot_duration_s, cfg.d_proc_s)
        counts = self.age_counts[ages]
        rel = reliability(values, counts, cfg.d_max_s)
        return RunSummary(returns, moving_average(returns, SMOOTH_WINDOW),
                          *curves, values, counts, rel)


def summarize(records: list[EpisodeRecord], cfg: ScenarioConfig) -> RunSummary:
    """The summary of a list of records, folded in order."""
    summarizer = Summarizer(cfg)
    for record in records:
        summarizer.add(record)
    return summarizer.summary()


def compare_policies(summaries: dict[str, RunSummary]) -> dict:
    """Aligned per-episode return table, per-policy delay CDFs, and the
    reliability at the deadline for each policy."""
    lengths = {name: len(summ.returns) for name, summ in summaries.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"mismatched run lengths: {lengths}")
    out = {"returns": {}, "cdf": {}, "reliability": {}}
    for name, summ in summaries.items():
        out["returns"][name] = summ.returns
        out["cdf"][name] = delay_cdf(summ.delay_values, summ.delay_counts)
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


class DexteritySensitivity:
    """Per-HRLLC-user steady state of a run, folded from episode ``first``
    on: the users' summed arrivals, departures and PRB counts, exact in any
    order, and their recorded DXI summed row by row in slot order, the
    order in which NumPy's ``mean(axis=0)`` sums a (slots, users) block of
    two or more users."""

    def __init__(self, cfg: ScenarioConfig, first: int):
        self.num_embb, self.first, self.slots = cfg.num_embb, first, 0
        self.sums = np.zeros((3, cfg.num_hrllc), dtype=np.int64)
        self.dxi = np.full(cfg.num_hrllc, -0.0)    # -0.0 + x is x, bit for bit

    def add(self, record: EpisodeRecord) -> None:
        if record.episode >= self.first:
            s, n_e = record.slots, self.num_embb
            self.sums += [column[:, n_e:].sum(axis=0)
                          for column in (s.arrivals, s.departures, s.counts)]
            self.dxi = np.add.reduce(np.vstack((self.dxi, s.dxi)), axis=0)
            self.slots += len(s)

    def table(self) -> dict:
        """Rows sorted by DXI, with the rank correlation between DXI and
        mean allocated PRBs; every mean is over the folded slots."""
        dxi = (self.dxi / self.slots).tolist()
        arrivals, departures, prbs = (self.sums / self.slots).tolist()
        rows = [{"user": u, "dxi": dxi[u], "mean_arrivals": arrivals[u],
                 "mean_departures": departures[u], "mean_prbs": prbs[u]}
                for u in range(len(dxi))]
        rows.sort(key=lambda r: r["dxi"])
        corr = spearman_rank_correlation([r["dxi"] for r in rows],
                                         [r["mean_prbs"] for r in rows])
        return {"rows": rows, "rank_correlation_dxi_prbs": corr}
