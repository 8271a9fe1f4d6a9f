"""Allocation contract plus the Round-Robin / Proportional-Fair baselines.

Every scheduling decision is an ``Allocation``: the PRB -> user assignment
of all K PRBs, in which every user holds at least one PRB.  Per-user PRB
counts are derived from it.  All ties anywhere are broken by the lowest
index so seed replays are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import all_user_rates


@dataclass(frozen=True)
class Allocation:
    assignment: np.ndarray   # (K,) user index owning each PRB

    @property
    def counts(self) -> np.ndarray:
        """(U,) PRBs per user, for an assignment that uses every user."""
        return np.bincount(self.assignment)

    def validate(self, num_prbs: int, num_users: int) -> None:
        if self.assignment.shape != (num_prbs,):
            raise AssertionError("assignment has wrong shape")
        counts = self.counts
        if counts.shape != (num_users,):
            raise AssertionError(f"assignment names users 0..{len(counts) - 1}, "
                                 f"not 0..{num_users - 1}")
        if np.any(counts < 1):
            raise AssertionError("every user must hold at least one PRB")


@dataclass
class SchedulerContext:
    """Uniform input surface: every policy sees identical information."""

    num_embb: int                  # users 0..num_embb-1 are eMBB, then HRLLC
    work: np.ndarray               # (U,) backlog at slot start + arrivals
    gain_sq: np.ndarray            # (U, K)
    rate_matrix: np.ndarray        # (U, K) achievable bits/s per PRB
    dxi: np.ndarray                # (n_h,)
    prev_rates: np.ndarray         # (U,) previous-slot achieved bits/s
    prev_drift_embb: float
    prev_drift_hrllc: float
    prev_y: float

    @property
    def num_users(self) -> int:
        return self.gain_sq.shape[0]

    @property
    def num_prbs(self) -> int:
        return self.gain_sq.shape[1]


def round_robin(ctx: SchedulerContext, cursor: int) -> tuple[Allocation, int]:
    """Deal PRBs cyclically from the cursor; counts differ by at most one.

    Channel-agnostic by construction.  Returns the allocation and the
    advanced cursor for the next slot.
    """
    num_users, num_prbs = ctx.num_users, ctx.num_prbs
    assignment = np.array([(cursor + j) % num_users for j in range(num_prbs)])
    return Allocation(assignment), (cursor + num_prbs) % num_users


def proportional_fair(ctx: SchedulerContext, ewma: np.ndarray) -> Allocation:
    """Greedy per-PRB argmax of rate/ewma with a >=1-PRB feasibility repair.

    ``ewma`` holds each user's smoothed throughput in bits/s.  Repair moves
    the donor's worst-gain PRB from the currently most-loaded user to each
    empty user.
    """
    if ewma is None or np.any(ewma <= 0):
        raise ValueError("EWMA throughputs must be initialized > 0")
    num_users = ctx.num_users
    metric = ctx.rate_matrix / ewma[:, None]
    assignment = np.argmax(metric, axis=0)   # ties go to the lowest index
    counts = np.bincount(assignment, minlength=num_users)
    for user in range(num_users):
        while counts[user] == 0:
            donor = int(np.argmax(counts))
            donor_prbs = np.flatnonzero(assignment == donor)
            worst = donor_prbs[int(np.argmin(ctx.rate_matrix[donor, donor_prbs]))]
            assignment[worst] = user
            counts[donor] -= 1
            counts[user] += 1
    return Allocation(assignment)


def intra_slice_divide(slice_prbs: int, weights: np.ndarray) -> np.ndarray:
    """One PRB each, then largest-remainder apportionment of the rest by weight.

    ``weights`` holds one entry per user of the slice.  All-zero weights
    degrade to a uniform split with remainders going to the lowest indices.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or np.any(weights < 0):
        raise ValueError("weights must be non-negative, one per user")
    num_users = len(weights)
    if slice_prbs < num_users:
        raise ValueError(f"slice needs >= {num_users} PRBs, got {slice_prbs}")
    counts = np.ones(num_users, dtype=int)
    extra = slice_prbs - num_users
    if extra == 0:
        return counts
    total = weights.sum()
    shares = (np.full(num_users, 1.0 / num_users) if total == 0
              else weights / total)
    quota = shares * extra
    base = np.floor(quota).astype(int)
    counts += base
    remainder = extra - int(base.sum())
    if remainder > 0:
        frac = quota - base
        # largest remainder first; ties to the lowest index (stable mergesort)
        order = np.argsort(-frac, kind="stable")
        counts[order[:remainder]] += 1
    return counts


def materialize_assignment(counts: np.ndarray, gain_sq: np.ndarray) -> np.ndarray:
    """Turn per-user counts into a PRB -> user map.

    Users draft PRBs one at a time in rounds.  Every round, each user with
    PRBs still to take drafts one, in descending remaining-count order (ties:
    lowest index), picking its personally best unassigned PRB (gain ties:
    lowest PRB index).  Every active user's remaining count drops by one per
    round, so the draft order is fixed by the initial counts.
    """
    num_users, num_prbs = gain_sq.shape
    if int(np.sum(counts)) != num_prbs:
        raise ValueError("counts must sum to the PRB grid size")
    counts = np.asarray(counts, dtype=int).tolist()
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
    """Common hook surface; learning agents override the learning hooks."""

    name = "policy"
    training = True      # False freezes learning and the engine's dual

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        raise NotImplementedError

    def begin_episode(self) -> None:
        pass

    def observe_reward(self, reward: float) -> None:
        pass

    def end_episode(self) -> None:
        pass

    def set_training(self, training: bool) -> None:
        self.training = training

    def diagnostics(self) -> dict:
        """The current episode's learning diagnostics, name -> value."""
        return {}


class RoundRobinPolicy(Policy):
    """Channel-agnostic cyclic sharing with a persistent cursor."""

    name = "rr"

    def __init__(self) -> None:
        self.cursor = 0

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        alloc, self.cursor = round_robin(ctx, self.cursor)
        return alloc


class ProportionalFairPolicy(Policy):
    """PF priority rule over all users with an EWMA throughput tracker."""

    name = "pf"

    def __init__(self, num_users: int, ewma_factor: float) -> None:
        self.ewma_factor = ewma_factor
        self.ewma = np.full(num_users, 1.0)  # 1 bit/s floor avoids div by zero

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        alloc = proportional_fair(ctx, self.ewma)
        achieved = all_user_rates(ctx.rate_matrix, alloc.assignment)
        self.ewma = (1.0 - self.ewma_factor) * self.ewma + self.ewma_factor * achieved
        np.maximum(self.ewma, 1.0, out=self.ewma)
        return alloc
