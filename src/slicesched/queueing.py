"""Whole-packet service, an episode's backlogs in Lindley's closed form,
the episode conservation audit, HRLLC packet ages and delays from the slot
table, and the quadratic Lyapunov energy of the backlogs.

Arrivals of slot t are eligible for service in slot t (arrival and service
terms share the slot index in the queue recursion).  Queues are FIFO, so a
packet's delay is the horizontal distance between its user's cumulative
arrival and departure curves; nothing reads eMBB delays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np


def service_capacity(rates_bits_per_s, slot_s: float, packet_bits: int) -> np.ndarray:
    """Whole packets deliverable in one slot at each rate (floored)."""
    rates = np.asarray(rates_bits_per_s, dtype=float)
    flat = rates.ravel().tolist()
    # the negated test also rejects NaN rates
    if not all(0.0 <= r < math.inf for r in flat) or slot_s < 0 or packet_bits <= 0:
        raise ValueError("rates must be finite and >= 0, durations >= 0, "
                         "packet size > 0")
    # Python's float floor division is NumPy's, one rate at a time; the
    # whole floats it leaves cast to int64 exactly
    return np.array([r * slot_s // packet_bits for r in flat],
                    dtype=np.int64).reshape(rates.shape)


@dataclass
class UserQueue:
    """One user's packets, oldest first: the FIFO hrllc_age_counts must match."""

    fifo: deque = field(default_factory=deque)   # enqueue slot index per packet

    def update(self, arrivals: int, served: int, slot: int) -> list[int]:
        """Apply one slot: append arrivals, serve head-first, return the
        enqueue stamps of the departed packets."""
        if arrivals < 0 or served < 0:
            raise ValueError("arrivals and served must be >= 0")
        self.fifo.extend([slot] * arrivals)
        departures = min(len(self.fifo), served)
        return [self.fifo.popleft() for _ in range(departures)]


def lindley_backlogs(arrivals: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Backlogs after each slot of queues that start empty, slots on axis 0:
    the recursion b_t = max(b_{t-1} + a_t - s_t, 0) in Lindley's closed
    form, the running sum of a - s less its running minimum (with 0, the
    empty start, among the terms)."""
    backlogs = np.cumsum(np.subtract(arrivals, served), axis=0)
    low = np.minimum.accumulate(backlogs, axis=0)
    backlogs -= np.minimum(low, 0, out=low)
    return backlogs


def audit_conservation(slots: np.recarray) -> None:
    """Check an episode's slot table (queues start empty): in every row, each
    user's backlog equals its cumulative arrivals minus cumulative departures
    and is >= 0, so no packet leaves before it arrived."""
    flow = np.cumsum(slots.arrivals, axis=0) - np.cumsum(slots.departures, axis=0)
    bad = np.flatnonzero(((slots.backlogs != flow) | (slots.backlogs < 0)).any(axis=1))
    if bad.size:
        raise AssertionError(f"queue conservation violated in row {bad[0]}: "
                             f"backlogs {slots.backlogs[bad[0]].tolist()}")


def packet_delays(ages, slot_s: float, d_proc_s: float) -> np.ndarray:
    """Queueing plus processing delay of packets that left ``ages`` slots
    after the slot they arrived in, elementwise."""
    return np.asarray(ages) * slot_s + d_proc_s


def hrllc_age_counts(slots: np.recarray, num_embb: int) -> np.ndarray:
    """One episode's HRLLC packets (users after the eMBB ones) counted by
    age, departure row minus arrival row: entry a counts the packets that
    left a slots after they arrived.  Packet j of a user arrives in the first
    row whose cumulative arrivals exceed j and leaves in the first whose
    cumulative departures exceed j; a packet still queued at the end has no
    age."""
    arrived = np.cumsum(slots.arrivals[:, num_embb:], axis=0)
    departed = np.cumsum(slots.departures[:, num_embb:], axis=0)
    counts = np.zeros(len(slots), dtype=np.int64)
    for a, d in zip(arrived.T, departed.T):
        j = np.arange(d[-1])
        counts += np.bincount(np.searchsorted(d, j, side="right")
                              - np.searchsorted(a, j, side="right"),
                              minlength=len(slots))
    return counts


def slice_energies(backlogs, num_embb: int) -> tuple:
    """Each slice's Lyapunov energy, half its sum of squared backlogs, over
    the last axis (users, eMBB first): one pair of floats for one slot, or
    one pair of per-slot arrays for a (slots, users) block."""
    sq = np.square(backlogs)
    # integer squares sum exactly in any order, and halve exactly
    return (np.add.reduce(sq[..., :num_embb], -1) / 2,
            np.add.reduce(sq[..., num_embb:], -1) / 2)


@dataclass
class LyapunovState:
    """Tracks L(t) and its per-slice split so drifts can be read per slot."""

    value_embb: float = 0.0
    value_hrllc: float = 0.0
    drift_embb: float = 0.0
    drift_hrllc: float = 0.0

    @property
    def drift(self) -> float:
        return self.drift_embb + self.drift_hrllc

    def advance(self, backlogs: np.ndarray, num_embb: int) -> None:
        """Move to the new backlog state, eMBB users first on the one user
        axis, and set the slices' one-step drifts.  Each slice's energy is
        half its sum of squared backlogs."""
        new_e, new_h = map(float, slice_energies(backlogs, num_embb))
        self.drift_embb = new_e - self.value_embb
        self.drift_hrllc = new_h - self.value_hrllc
        self.value_embb = new_e
        self.value_hrllc = new_h
