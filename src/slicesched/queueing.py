"""Whole-packet service, HRLLC packet FIFOs with the episode conservation
audit, and the quadratic Lyapunov energy of the backlog state and its drift.

Arrivals of slot t are eligible for service in slot t (arrival and service
terms share the slot index in the queue recursion).  HRLLC delays are
measured per packet from FIFO stamps, which makes the threshold-violation
probability well-defined; nothing reads eMBB delays, so eMBB has no FIFO.
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
    """One HRLLC user's packets, oldest first."""

    fifo: deque = field(default_factory=deque)   # enqueue slot index per packet

    def update(self, arrivals: int, served: int, slot: int) -> list[int]:
        """Apply one slot: append arrivals, serve head-first, return the
        enqueue stamps of the departed packets."""
        if arrivals < 0 or served < 0:
            raise ValueError("arrivals and served must be >= 0")
        self.fifo.extend([slot] * arrivals)
        departures = min(len(self.fifo), served)
        return [self.fifo.popleft() for _ in range(departures)]


def audit_conservation(slots: np.recarray, fifos: list[UserQueue]) -> None:
    """Check an episode's slot table (queues start empty): per user, arrivals
    equal departures plus the final backlog, and each FIFO (the HRLLC users,
    last on the user axis) holds its user's final backlog."""
    final = slots.backlogs[-1]
    arrived = slots.arrivals.sum(axis=0)
    accounted = slots.departures.sum(axis=0) + final
    if not np.array_equal(arrived, accounted):
        raise AssertionError(
            f"queue conservation violated: arrivals {arrived.tolist()} vs "
            f"departures + backlog {accounted.tolist()}")
    lengths = [len(q.fifo) for q in fifos]
    if lengths != final[len(final) - len(fifos):].tolist():
        raise AssertionError(
            f"HRLLC FIFO lengths {lengths} differ from backlogs "
            f"{final.tolist()}")


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
