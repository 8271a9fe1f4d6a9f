import numpy as np
import pytest

from slicesched.channel import all_user_rates
from slicesched.config import ScenarioConfig
from slicesched.schedulers import (PF_EWMA, Allocation, ProportionalFairPolicy,
                                   RoundRobinPolicy, intra_slice_divide,
                                   materialize_assignment, proportional_fair)
from conftest import make_context, slot_row


def test_allocation_validate_accepts_consistent():
    alloc = Allocation(np.array([0, 1, 0]))
    assert alloc.counts.tolist() == [2, 1]
    alloc.validate(3, 2)


def test_allocation_validate_returns_bincount():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        users = int(rng.integers(1, 13))
        prbs = users + int(rng.integers(0, 25))
        assignment = np.concatenate([np.arange(users),
                                     rng.integers(0, users, prbs - users)])
        alloc = Allocation(rng.permutation(assignment))
        got = alloc.validate(prbs, users)
        want = np.bincount(alloc.assignment)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("assignment", [[0, 1], [0, 0, 0], [0, 1, 2],
                                        [1, 1, 1]],
                         ids=["wrong-length", "user-without-prb",
                              "user-index-out-of-range", "user-0-without-prb"])
def test_allocation_validate_rejects(assignment):
    with pytest.raises(AssertionError):
        Allocation(np.array(assignment)).validate(3, 2)


def round_robin(ctx, cursor):
    """A Round-Robin decision from ``cursor``: the allocation, the next cursor."""
    policy = RoundRobinPolicy()
    policy.cursor = cursor
    return policy.allocate(ctx), policy.cursor


def test_round_robin_even_split():
    ctx = make_context(np.random.default_rng(0), num_embb=1, num_hrllc=1,
                       num_prbs=4)
    alloc, cursor = round_robin(ctx, 0)
    assert alloc.counts.tolist() == [2, 2]
    assert cursor == 0


def test_round_robin_cursor_rotates_remainder():
    ctx = make_context(np.random.default_rng(0), num_embb=1, num_hrllc=1,
                       num_prbs=5)
    alloc, cursor = round_robin(ctx, 1)
    assert alloc.counts.tolist() == [2, 3]     # starting user gets the extra
    assert cursor == 0
    alloc2, _ = round_robin(ctx, cursor)
    assert alloc2.counts.tolist() == [3, 2]    # extra rotates to the other user


def test_round_robin_floor_case():
    ctx = make_context(np.random.default_rng(0), num_embb=2, num_hrllc=2,
                       num_prbs=4)
    alloc, _ = round_robin(ctx, 0)
    assert alloc.counts.tolist() == [1, 1, 1, 1]


def test_round_robin_channel_agnostic():
    rng = np.random.default_rng(1)
    ctx = make_context(rng)
    a, _ = round_robin(ctx, 3)
    ctx.gain_sq = ctx.gain_sq[:, ::-1].copy()
    b, _ = round_robin(ctx, 3)
    assert np.array_equal(a.assignment, b.assignment)


def test_proportional_fair_dominant_user():
    ctx = make_context(np.random.default_rng(2), num_embb=1, num_hrllc=1,
                       num_prbs=3,
                       gain_sq=np.array([[5.0, 6.0, 7.0], [1.0, 1.0, 1.0]]))
    alloc = proportional_fair(ctx, np.array([1.0, 1.0]))
    assert alloc.counts.tolist() == [2, 1]     # K-(U-1) vs forced minimum


def test_proportional_fair_tie_breaks_lowest_index():
    ctx = make_context(np.random.default_rng(3), num_embb=1, num_hrllc=1,
                       num_prbs=2, gain_sq=np.ones((2, 2)))
    alloc = proportional_fair(ctx, np.array([1.0, 1.0]))
    # per-PRB argmax picks user 0 on every tie; the repair then hands the
    # donor's lowest-index PRB to the empty user 1
    assert alloc.counts.tolist() == [1, 1]
    assert alloc.assignment.tolist() == [1, 0]


def test_proportional_fair_requires_positive_ewma():
    ctx = make_context(np.random.default_rng(4))
    with pytest.raises(ValueError):
        proportional_fair(ctx, None)
    with pytest.raises(ValueError):
        proportional_fair(ctx, np.zeros(ctx.num_users))


def test_proportional_fair_feasibility_property():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        ctx = make_context(rng, num_embb=2, num_hrllc=2, num_prbs=6)
        ewma = rng.uniform(0.5, 2.0, ctx.num_users)
        proportional_fair(ctx, ewma).validate(6, 4)


def _pf_oracle(ctx, ewma):
    """The per-PRB argmax loop that ``proportional_fair`` replaced, with the
    same feasibility repair."""
    metric = ctx.rate_matrix / ewma[:, None]
    assignment = np.empty(ctx.num_prbs, dtype=int)
    for j in range(ctx.num_prbs):
        assignment[j] = int(np.argmax(metric[:, j]))
    counts = np.bincount(assignment, minlength=ctx.num_users)
    for user in range(ctx.num_users):
        while counts[user] == 0:
            donor = int(np.argmax(counts))
            donor_prbs = np.flatnonzero(assignment == donor)
            worst = donor_prbs[int(np.argmin(ctx.rate_matrix[donor, donor_prbs]))]
            assignment[worst] = user
            counts[donor] -= 1
            counts[user] += 1
    return assignment


@pytest.mark.parametrize("case", ["random", "duplicate_rows", "equal_ewma"])
def test_proportional_fair_matches_oracle(case):
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n_e, n_h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        users = n_e + n_h
        prbs = users + int(rng.integers(0, 25))
        gains = rng.exponential(1.0, size=(users, prbs))
        ewma = rng.uniform(0.5, 2.0, users)
        if case == "duplicate_rows":      # exact ties between two users
            src, dst = rng.integers(0, users, 2)
            gains[dst] = gains[src]
            ewma[dst] = ewma[src]
        elif case == "equal_ewma":        # many gain ties, zeros included
            gains = rng.integers(0, 3, size=(users, prbs)).astype(float)
            ewma = np.full(users, 1.5)
        ctx = make_context(rng, n_e, n_h, prbs, gain_sq=gains)
        got = proportional_fair(ctx, ewma).assignment
        want = _pf_oracle(ctx, ewma)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_intra_slice_divide_largest_remainder():
    assert intra_slice_divide(3, np.array([10.0, 0.0])) == [2, 1]
    assert intra_slice_divide(6, [1.0, 1.0, 1.0]) == [2, 2, 2]
    # all-zero weights: uniform with the remainder at the lowest indices
    assert intra_slice_divide(8, np.zeros(3)) == [3, 3, 2]


def test_intra_slice_divide_errors():
    with pytest.raises(ValueError):
        intra_slice_divide(2, np.ones(3))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            intra_slice_divide(4, np.array([1.0, bad]))
    with pytest.raises(ValueError):
        intra_slice_divide(4, np.ones((2, 2)))


def _divide_oracle(slice_prbs, weights):
    """The NumPy body that ``intra_slice_divide`` replaced."""
    weights = np.asarray(weights, dtype=float)
    num_users = len(weights)
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
        order = np.argsort(-frac, kind="stable")
        counts[order[:remainder]] += 1
    return counts


@pytest.mark.parametrize("kind", ["uniform", "zero", "integer", "gain_mean"])
def test_intra_slice_divide_matches_numpy_oracle(kind):
    rng = np.random.default_rng(14)
    for _ in range(5000):
        users = int(rng.integers(1, 13))
        prbs = users + int(rng.integers(0, 30))
        if kind == "uniform":
            weights = rng.uniform(0.0, 5.0, users)
        elif kind == "zero":
            weights = np.zeros(users)
        elif kind == "integer":          # work counts: many ties and zeros
            weights = rng.integers(0, 4, users) * rng.integers(0, 50)
        else:                            # the channel template's weights
            weights = rng.exponential(1.0, (users, prbs)).mean(axis=1)
        got = intra_slice_divide(prbs, weights)
        want = _divide_oracle(prbs, weights)
        assert all(type(c) is int for c in got) and got == want.tolist()


def test_intra_slice_divide_conserves_total():
    rng = np.random.default_rng(6)
    for _ in range(500):
        users = int(rng.integers(1, 6))
        prbs = users + int(rng.integers(0, 10))
        counts = intra_slice_divide(prbs, rng.uniform(0, 5, users))
        assert sum(counts) == prbs and min(counts) >= 1


def test_materialize_single_user():
    gains = np.random.default_rng(7).exponential(1.0, size=(1, 5))
    assert materialize_assignment(np.array([5]), gains).tolist() == [0] * 5


def test_materialize_tie_gives_lower_index_first_pick():
    gains = np.array([[2.0, 1.0], [2.0, 1.0]])
    assignment = materialize_assignment(np.array([1, 1]), gains)
    assert assignment.tolist() == [0, 1]   # user 0 drafts the shared best PRB


def test_materialize_counts_mismatch():
    with pytest.raises(ValueError):
        materialize_assignment(np.array([1, 1]), np.ones((2, 3)))


def test_materialize_property_every_prb_once():
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        users = int(rng.integers(1, 5))
        prbs = users + int(rng.integers(0, 6))
        extra = np.bincount(rng.integers(0, users, prbs - users),
                            minlength=users)
        counts = np.ones(users, dtype=int) + extra
        gains = rng.exponential(1.0, size=(users, prbs))
        assignment = materialize_assignment(counts, gains)
        assert np.array_equal(np.sort(np.bincount(assignment,
                                                  minlength=users)),
                              np.sort(counts))
        assert np.array_equal(np.bincount(assignment, minlength=users), counts)


def _materialize_oracle(counts, gain_sq):
    """The per-PRB numpy draft that ``materialize_assignment`` replaced."""
    num_users, num_prbs = gain_sq.shape
    remaining = np.asarray(counts, dtype=int).copy()
    taken = np.zeros(num_prbs, dtype=bool)
    assignment = np.full(num_prbs, -1, dtype=int)
    while remaining.sum() > 0:
        order = np.argsort(-remaining, kind="stable")
        for user in order:
            if remaining[user] == 0:
                continue
            gains = np.where(taken, -np.inf, gain_sq[user])
            best = int(np.argmax(gains))
            assignment[best] = user
            taken[best] = True
            remaining[user] -= 1
    return assignment


@pytest.mark.parametrize("gain_kind", ["exponential", "small_int", "constant"])
def test_materialize_matches_oracle(gain_kind):
    rng = np.random.default_rng(11)
    for _ in range(2000):
        users = int(rng.integers(1, 9))
        prbs = users + int(rng.integers(0, 25))
        counts = np.bincount(rng.integers(0, users, prbs), minlength=users)
        if rng.random() < 0.7:   # the schedulers' case: everyone holds one
            counts = np.ones(users, dtype=int) + np.bincount(
                rng.integers(0, users, prbs - users), minlength=users)
        if gain_kind == "exponential":
            gains = rng.exponential(1.0, size=(users, prbs))
        elif gain_kind == "small_int":   # many gain ties, zeros included
            gains = rng.integers(0, 3, size=(users, prbs)).astype(float)
        else:
            gains = np.zeros((users, prbs))
        got = materialize_assignment(counts, gains)
        want = _materialize_oracle(counts, gains)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_materialize_rejects_negative_counts():
    with pytest.raises(ValueError):
        materialize_assignment(np.array([3, -1]), np.ones((2, 2)))


def test_pf_policy_achieved_rates_accumulate_in_prb_order():
    rng = np.random.default_rng(12)
    policy = ProportionalFairPolicy(num_users=7)
    for _ in range(20):
        ctx = make_context(rng)
        before = policy.ewma.copy()
        alloc = policy.allocate(ctx)
        policy.observe(slot_row(ScenarioConfig(), rates=all_user_rates(
            ctx.rate_matrix, alloc.assignment)))
        achieved = np.zeros(ctx.num_users)
        for j, u in enumerate(alloc.assignment):
            achieved[u] += ctx.rate_matrix[u, j]
        expected = np.maximum((1.0 - PF_EWMA) * before + PF_EWMA * achieved,
                              1.0)
        assert np.array_equal(policy.ewma, expected)


def test_round_robin_policy_cursor_persists():
    policy = RoundRobinPolicy()
    ctx = make_context(np.random.default_rng(9), num_embb=1, num_hrllc=1,
                       num_prbs=5)
    a = policy.allocate(ctx)
    b = policy.allocate(ctx)
    assert a.counts.tolist() != b.counts.tolist()   # remainder rotates


def test_pf_policy_updates_ewma():
    rng = np.random.default_rng(10)
    policy = ProportionalFairPolicy(num_users=7)
    before = policy.ewma.copy()
    ctx = make_context(rng)
    alloc = policy.allocate(ctx)
    assert np.array_equal(policy.ewma, before)      # only observe moves it
    rates = all_user_rates(ctx.rate_matrix, alloc.assignment)
    rates[0] = 0.0                     # decays below the 1 bit/s floor
    policy.observe(slot_row(ScenarioConfig(), rates=rates))
    assert not np.array_equal(policy.ewma, before)
    assert np.all(policy.ewma >= 1.0)
    assert policy.ewma[0] == 1.0
