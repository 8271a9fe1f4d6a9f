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


def service_capacity(rates_bits_per_s, slot_s: float, packet_bits: int) -> np.ndarray:
    """Whole packets deliverable in one slot at each rate (floored)."""
    rates = np.asarray(rates_bits_per_s, dtype=float)
    # the negated test also rejects NaN rates
    if not np.all((rates >= 0) & (rates < np.inf)) or slot_s < 0 or packet_bits <= 0:
        raise ValueError("rates must be finite and >= 0, durations >= 0, "
                         "packet size > 0")
    return (rates * slot_s // packet_bits).astype(np.int64)


@dataclass
class UserQueue:
    fifo: deque = field(default_factory=deque)   # enqueue slot index per packet
    total_arrivals: int = 0
    total_departures: int = 0

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

    def advance(self, backlogs: np.ndarray, num_embb: int) -> float:
        """Move to the new backlog state, eMBB users first on the one user
        axis; returns the total one-step drift.  Each slice's energy is half
        its sum of squared backlogs."""
        b = np.asarray(backlogs, dtype=float)
        e, h = b[:num_embb], b[num_embb:]
        new_e = 0.5 * float(np.dot(e, e))
        new_h = 0.5 * float(np.dot(h, h))
        self.drift_embb = new_e - self.value_embb
        self.drift_hrllc = new_h - self.value_hrllc
        self.value_embb = new_e
        self.value_hrllc = new_h
        return self.drift
