"""The policy contract plus the Round-Robin / Proportional-Fair baselines.

A policy decides from a ``SchedulerContext``, the slot's decision inputs,
and then observes the slot's row of the slot table (``slot_dtype``), as
``Policy`` sets out.  Every scheduling decision is an ``Allocation``: the
PRB -> user assignment of all K PRBs, in which every user holds at least
one PRB.  Per-user PRB counts are derived from it.  All ties anywhere are
broken by the lowest index so seed replays are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ScenarioConfig


def slot_dtype(cfg: ScenarioConfig) -> np.dtype:
    """One row of an episode's slot table: what one slot did, with the
    queues as they stand after it."""
    n_h, n_u = (cfg.num_hrllc,), (cfg.num_users,)
    return np.dtype([
        ("mmpp_states", np.int64, n_h),
        ("dxi", np.float64, n_h),
        ("arrivals", np.int64, n_u),           # eMBB users first
        ("counts", np.int64, n_u),             # allocated PRBs
        ("rates", np.float64, n_u),            # achieved bits/s
        ("departures", np.int64, n_u),         # actual departures
        ("backlogs", np.int64, n_u),           # after the slot
        ("drift_embb", np.float64),
        ("drift_hrllc", np.float64),
        ("cost", np.float64),
        ("y_mean", np.float64),
        ("dual", np.float64),
        ("reward", np.float64),
    ])


@dataclass(frozen=True)
class Allocation:
    assignment: np.ndarray   # (K,) user index owning each PRB

    @property
    def counts(self) -> np.ndarray:
        """(U,) PRBs per user, for an assignment that uses every user."""
        return np.bincount(self.assignment)

    def validate(self, num_prbs: int, num_users: int) -> np.ndarray:
        """Check the assignment; returns its (U,) counts."""
        if self.assignment.shape != (num_prbs,):
            raise AssertionError("assignment has wrong shape")
        counts = self.counts
        if counts.shape != (num_users,):
            raise AssertionError(f"assignment names users 0..{len(counts) - 1}, "
                                 f"not 0..{num_users - 1}")
        if 0 in counts.tolist():         # bincount counts are >= 0
            raise AssertionError("every user must hold at least one PRB")
        return counts


@dataclass
class SchedulerContext:
    """A slot's decision inputs; ``work`` only for a policy that reads the
    queues."""

    num_embb: int                  # users 0..num_embb-1 are eMBB, then HRLLC
    gain_sq: np.ndarray            # (U, K)
    rate_matrix: np.ndarray        # (U, K) achievable bits/s per PRB
    dxi: np.ndarray                # (n_h,)
    work: np.ndarray | None = None  # (U,) backlog at slot start + arrivals

    @property
    def num_users(self) -> int:
        return self.gain_sq.shape[0]

    @property
    def num_prbs(self) -> int:
        return self.gain_sq.shape[1]

    @cached_property
    def mean_gain(self) -> np.ndarray:
        """(U,) each user's mean gain over the PRBs, computed once."""
        return np.add.reduce(self.gain_sq, axis=1) / self.num_prbs  # = mean


def proportional_fair(ctx: SchedulerContext, ewma: np.ndarray) -> Allocation:
    """Greedy per-PRB argmax of rate/ewma with a >=1-PRB feasibility repair.

    ``ewma`` holds each user's smoothed throughput in bits/s.  Repair moves
    the donor's worst-gain PRB from the currently most-loaded user to each
    empty user.
    """
    if ewma is None or any(w <= 0 for w in ewma.tolist()):
        raise ValueError("EWMA throughputs must be initialized > 0")
    metric = ctx.rate_matrix / ewma[:, None]
    assignment = metric.argmax(axis=0)      # ties go to the lowest index
    counts = np.bincount(assignment, minlength=ctx.num_users).tolist()
    for user in range(len(counts)):
        while counts[user] == 0:
            donor = counts.index(max(counts))     # the first most-loaded user
            donor_prbs = np.flatnonzero(assignment == donor)
            worst = donor_prbs[ctx.rate_matrix[donor, donor_prbs].argmin()]
            assignment[worst] = user
            counts[donor] -= 1
            counts[user] += 1
    return Allocation(assignment)


def intra_slice_divide(slice_prbs: int, weights: list[float] | np.ndarray
                       ) -> list[int]:
    """One PRB each, then largest-remainder apportionment of the rest by
    weight; returns the slice's per-user PRB counts.

    ``weights`` holds one finite entry >= 0 per user of the slice.  All-zero
    weights degrade to a uniform split with remainders going to the lowest
    indices.
    """
    weights = np.asarray(weights, dtype=float)
    w = weights.tolist()
    # the negated test also rejects NaN weights
    if weights.ndim != 1 or not all(0.0 <= x < math.inf for x in w):
        raise ValueError("weights must be finite and >= 0, one per user")
    num_users = len(w)
    if slice_prbs < num_users:
        raise ValueError(f"slice needs >= {num_users} PRBs, got {slice_prbs}")
    extra = slice_prbs - num_users
    total = float(np.add.reduce(weights))    # NumPy's summation order
    quota = [(1.0 / num_users if total == 0 else x / total) * extra for x in w]
    counts = [1 + math.floor(q) for q in quota]
    remainder = slice_prbs - sum(counts)
    if remainder > 0:
        # largest remainder first; ties to the lowest index (stable sort)
        frac = [q - math.floor(q) for q in quota]
        for u in sorted(range(num_users), key=lambda v: -frac[v])[:remainder]:
            counts[u] += 1
    return counts


def materialize_assignment(counts: list[int] | np.ndarray,
                           gain_sq: np.ndarray) -> np.ndarray:
    """Turn per-user counts into a PRB -> user map.

    Users draft PRBs one at a time in rounds.  Every round, each user with
    PRBs still to take drafts one, in descending remaining-count order (ties:
    lowest index), picking its personally best unassigned PRB (gain ties:
    lowest PRB index).  Every active user's remaining count drops by one per
    round, so the draft order is fixed by the initial counts.
    """
    num_users, num_prbs = gain_sq.shape
    counts = [int(c) for c in counts]
    if sum(counts) != num_prbs:
        raise ValueError("counts must sum to the PRB grid size")
    if min(counts) < 0:
        raise ValueError("counts must be non-negative")
    # each user's PRBs best first, ties to the lowest PRB index
    prefs = np.argsort(-gain_sq, axis=1, kind="stable").tolist()
    order = sorted(range(num_users), key=lambda u: -counts[u])  # stable
    nxt = [0] * num_users        # first preference not yet known to be taken
    taken = [False] * num_prbs
    assignment = [0] * num_prbs
    for rnd in range(max(counts)):
        for user in order:
            if counts[user] <= rnd:
                break            # so are all users after it in the order
            pref, k = prefs[user], nxt[user]
            while taken[pref[k]]:
                k += 1
            prb = pref[k]
            taken[prb] = True
            assignment[prb] = user
            nxt[user] = k + 1
    return np.array(assignment)


class Policy:
    """What the engine calls of a policy, three hooks per episode:
    ``allocate(ctx)`` decides each slot, ``observe(row)`` then sees the
    slot's row of the slot table (``slot_dtype``), and ``end_episode()``
    closes the episode and returns its diagnostics, name -> value.

    A policy that reads the queues (``reads_queues``) decides from a
    context with ``work`` and observes each slot's full row once the slot
    is done.  One that does not decides from a context without ``work``
    and observes a row of just the slot's ``counts`` and ``rates``, so the
    engine can account for the queues of a whole episode after its
    decisions."""

    training = True      # False freezes learning and the engine's dual
    reads_queues = True  # False: decisions never read ``ctx.work``

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        raise NotImplementedError

    def observe(self, row: np.void) -> None:
        pass

    def end_episode(self) -> dict:
        return {}


class RoundRobinPolicy(Policy):
    """Channel-agnostic cyclic sharing with a persistent cursor."""

    reads_queues = False

    def __init__(self) -> None:
        self.cursor = 0

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        """Deal PRBs cyclically from the cursor, which advances past them;
        counts differ by at most one."""
        start, num_users, num_prbs = self.cursor, ctx.num_users, ctx.num_prbs
        self.cursor = (start + num_prbs) % num_users
        return Allocation(np.arange(start, start + num_prbs) % num_users)


PF_EWMA = 0.1       # weight of the slot's rate in PF's throughput average


class ProportionalFairPolicy(Policy):
    """PF priority rule over all users with an EWMA throughput tracker."""

    reads_queues = False

    def __init__(self, num_users: int) -> None:
        self.ewma = np.full(num_users, 1.0)  # 1 bit/s floor avoids div by zero

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        return proportional_fair(ctx, self.ewma)

    def observe(self, row: np.void) -> None:
        self.ewma = (1.0 - PF_EWMA) * self.ewma + PF_EWMA * row["rates"]
        np.maximum(self.ewma, 1.0, out=self.ewma)
