"""Per-user packet queues with FIFO timestamps, plus the quadratic Lyapunov
energy of the backlog state and its one-step drift.

Arrivals of slot t are eligible for service in slot t (arrival and service
terms share the slot index in the queue recursion).  Delays are measured per
packet from FIFO enqueue/dequeue stamps: only per-packet delays make the
threshold-violation probability well-defined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


def service_capacity(rate_bits_per_s: float, slot_s: float, packet_bits: int) -> int:
    """Whole packets deliverable in one slot at the given rate (floored)."""
    if rate_bits_per_s < 0 or slot_s < 0 or packet_bits <= 0:
        raise ValueError("rates and durations must be >= 0, packet size > 0")
    return int(rate_bits_per_s * slot_s // packet_bits)


@dataclass
class UserQueue:
    fifo: deque = field(default_factory=deque)   # enqueue slot index per packet
    total_arrivals: int = 0
    total_departures: int = 0
    # fractional service credit, only accumulated when the carry toggle is on
    credit: float = 0.0

    @property
    def backlog(self) -> int:
        return len(self.fifo)

    def update(self, arrivals: int, served: int, slot: int) -> list[int]:
        """Apply one slot: append arrivals, serve head-first, return the
        enqueue stamps of the departed packets."""
        if arrivals < 0 or served < 0:
            raise ValueError("arrivals and served must be >= 0")
        self.fifo.extend([slot] * arrivals)
        self.total_arrivals += arrivals
        departures = min(len(self.fifo), served)
        stamps = [self.fifo.popleft() for _ in range(departures)]
        self.total_departures += departures
        return stamps

    def audit_conservation(self) -> None:
        if self.total_arrivals != self.total_departures + self.backlog:
            raise AssertionError(
                f"queue conservation violated: {self.total_arrivals} arrivals vs "
                f"{self.total_departures} departures + {self.backlog} backlog")


def packet_delays(stamps: list[int], slot: int, slot_s: float, d_proc_s: float) -> list[float]:
    """End-to-end delay per departed packet: queueing time plus processing."""
    return [(slot - s) * slot_s + d_proc_s for s in stamps]


def lyapunov_value(backlogs_f: np.ndarray, backlogs_g: np.ndarray) -> float:
    """Quadratic congestion energy: half the sum of squared backlogs."""
    f = np.asarray(backlogs_f, dtype=float)
    g = np.asarray(backlogs_g, dtype=float)
    return 0.5 * (float(np.sum(f * f)) + float(np.sum(g * g)))


@dataclass
class LyapunovState:
    """Tracks L(t) and its per-slice split so drifts can be read per slot."""

    value_embb: float = 0.0
    value_hrllc: float = 0.0
    drift_embb: float = 0.0
    drift_hrllc: float = 0.0

    @property
    def value(self) -> float:
        return self.value_embb + self.value_hrllc

    @property
    def drift(self) -> float:
        return self.drift_embb + self.drift_hrllc

    def advance(self, backlogs_f: np.ndarray, backlogs_g: np.ndarray) -> float:
        """Move to the new backlog state; returns the total one-step drift."""
        new_h = lyapunov_value(backlogs_f, [])
        new_e = lyapunov_value([], backlogs_g)
        self.drift_hrllc = new_h - self.value_hrllc
        self.drift_embb = new_e - self.value_embb
        self.value_hrllc = new_h
        self.value_embb = new_e
        return self.drift
