import numpy as np
import pytest

from slicesched.queueing import (LyapunovState, UserQueue, audit_conservation,
                                 hrllc_age_counts, lindley_backlogs,
                                 packet_delays, service_capacity,
                                 slice_energies)


def test_service_capacity_reference_points():
    assert service_capacity(4e5, 1e-3, 1000) == 0    # floor(0.4)
    assert service_capacity(2e6, 1e-3, 1000) == 2
    assert service_capacity(999.0, 1.0, 1000) == 0   # just under one packet
    assert service_capacity(1000.0, 1.0, 1000) == 1


def _service_capacity_oracle(rates_bits_per_s, slot_s, packet_bits):
    """The NumPy body that ``service_capacity`` replaced."""
    rates = np.asarray(rates_bits_per_s, dtype=float)
    if not np.all((rates >= 0) & (rates < np.inf)) or slot_s < 0 or packet_bits <= 0:
        raise ValueError("rates must be finite and >= 0, durations >= 0, "
                         "packet size > 0")
    return (rates * slot_s // packet_bits).astype(np.int64)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (12,), (3, 4), (200, 18)])
def test_service_capacity_matches_numpy_oracle(shape):
    rng = np.random.default_rng(16)
    for _ in range(200):
        rates = rng.uniform(0.0, 3e7, shape)
        got = service_capacity(rates, 1e-3, 1000)
        want = _service_capacity_oracle(rates, 1e-3, 1000)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        for bad in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
            broken = rates.copy()
            broken.flat[rng.integers(rates.size)] = bad
            for fn in (service_capacity, _service_capacity_oracle):
                with pytest.raises(ValueError):
                    fn(broken, 1e-3, 1000)
    for fn in (service_capacity, _service_capacity_oracle):
        assert fn(-0.0, 1e-3, 1000) == 0


def test_service_capacity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        service_capacity(-1.0, 1e-3, 1000)
    with pytest.raises(ValueError):
        service_capacity(1.0, 1e-3, 0)
    with pytest.raises(ValueError):
        service_capacity(1.0, -1e-3, 1000)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            service_capacity(np.array([1e6, bad]), 1e-3, 1000)


@pytest.mark.parametrize("slot_s, packet_bits", [(1e-3, 1000), (1e-3, 1500),
                                                 (0.5e-3, 12000), (1.0, 7)])
def test_service_capacity_matches_scalar_floor(slot_s, packet_bits):
    """The vectorized floor equals Python's per-rate float floor division,
    also at whole-packet boundaries and one ulp either side of them."""
    rng = np.random.default_rng(3)
    step = packet_bits / slot_s               # rate of one packet per slot
    drawn = np.concatenate([rng.uniform(0.0, 60e6, 10_000),
                             rng.exponential(step, 2_000)])
    multiples = step * np.arange(0, 200)
    rates = np.concatenate([
        drawn, [0.0], multiples,
        np.nextafter(multiples, np.inf), np.nextafter(multiples[1:], 0.0)])
    got = service_capacity(rates, slot_s, packet_bits)
    want = [int(r * slot_s // packet_bits) for r in rates.tolist()]
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_queue_truncation_case():
    q = UserQueue()
    q.update(5, 0, 0)                      # preload backlog 5
    stamps = q.update(3, 10, 1)
    assert len(q.fifo) == 0
    assert len(stamps) == 8                # all 5 old + 3 new departed


def test_queue_partial_service():
    q = UserQueue()
    q.update(5, 0, 0)
    stamps = q.update(3, 2, 1)
    assert len(q.fifo) == 6
    assert len(stamps) == 2
    assert stamps == [0, 0]                # FIFO: oldest first


def test_queue_empty_noop():
    q = UserQueue()
    assert q.update(0, 7, 0) == []
    assert len(q.fifo) == 0


def test_queue_rejects_negative():
    q = UserQueue()
    with pytest.raises(ValueError):
        q.update(-1, 0, 0)
    with pytest.raises(ValueError):
        q.update(0, -1, 0)


def _episode_table(slots=50):
    """A slot table for one eMBB and one HRLLC user, with the HRLLC FIFO:
    the backlog recursion on the user axis, the FIFO beside it."""
    rng = np.random.default_rng(0)
    table = np.recarray(slots, dtype=[("arrivals", np.int64, (2,)),
                                      ("departures", np.int64, (2,)),
                                      ("backlogs", np.int64, (2,))])
    fifo, backlogs = UserQueue(), np.zeros(2, dtype=np.int64)
    for t in range(slots):
        arrivals, served = rng.integers(0, 5, 2), rng.integers(0, 4, 2)
        work = backlogs + arrivals
        departures = np.minimum(work, served)
        backlogs = work - departures
        stamps = fifo.update(int(arrivals[1]), int(served[1]), t)
        assert list(fifo.fifo) == sorted(fifo.fifo)
        assert len(stamps) == departures[1] and len(fifo.fifo) == backlogs[1]
        table[t] = (arrivals, departures, backlogs)
    return table, fifo


def test_queue_fifo_stamps_nondecreasing():
    table, _ = _episode_table()
    audit_conservation(table)


def test_queue_conservation_audit_detects_tampered_departures():
    table, _ = _episode_table()
    table.departures[7, 0] += 1
    with pytest.raises(AssertionError):
        audit_conservation(table)


def test_queue_conservation_audit_detects_tampered_middle_backlog():
    # the last row still conserves packets; only row 25 is wrong
    table, _ = _episode_table()
    table.backlogs[25, 1] += 1
    with pytest.raises(AssertionError, match="row 25"):
        audit_conservation(table)


@pytest.mark.parametrize("slots", [1, 2, 200])
def test_lindley_backlogs_match_the_recursion(slots):
    """The closed form equals b_t = max(b_{t-1} + a_t - s_t, 0) from empty
    queues, for light, heavy and zero service, and for one slot."""
    rng = np.random.default_rng(slots)
    for high in (0, 1, 4, 9, 30):
        arrivals = rng.integers(0, 10, (slots, 5))
        served = rng.integers(0, high + 1, (slots, 5))
        backlogs, want = np.zeros(5, dtype=np.int64), []
        for a, s in zip(arrivals, served):
            backlogs = np.maximum(backlogs + a - s, 0)
            want.append(backlogs)
        got = lindley_backlogs(arrivals, served)
        assert got.dtype == np.int64
        assert got.tobytes() == np.array(want).tobytes()


def test_slice_energies_of_a_block_match_each_slot():
    rng = np.random.default_rng(4)
    for num_embb in (0, 3, 9):
        backlogs = rng.integers(0, 10**6, (40, 18))
        block = slice_energies(backlogs, num_embb)
        for t, row in enumerate(backlogs):
            st = LyapunovState()
            st.advance(row, num_embb)
            assert (block[0][t], block[1][t]) == (st.value_embb, st.value_hrllc)
            assert [type(x) for x in slice_energies(row, num_embb)] == \
                [np.float64, np.float64]


def test_queue_conservation_audit_detects_negative_backlog():
    # a packet served one slot before it arrived: every row still equals
    # cumulative arrivals minus cumulative departures
    table = np.recarray(3, dtype=[("arrivals", np.int64, (1,)),
                                  ("departures", np.int64, (1,)),
                                  ("backlogs", np.int64, (1,))])
    table.arrivals[:, 0] = [0, 1, 2]
    table.departures[:, 0] = [1, 0, 2]
    table.backlogs[:, 0] = [-1, 0, 0]
    with pytest.raises(AssertionError, match="row 0"):
        audit_conservation(table)
    table.departures[:, 0] = [0, 1, 2]
    table.backlogs[:, 0] = 0
    audit_conservation(table)


def test_packet_delays_reference():
    # enqueued slot 3, dequeued slot 7, 1 ms slots, 5 ms processing -> 9 ms
    assert packet_delays([7 - 3], 1e-3, 5e-3).tolist() == [pytest.approx(9e-3)]
    # same-slot service -> processing delay only
    assert packet_delays([0], 1e-3, 5e-3).tolist() == [pytest.approx(5e-3)]
    # elementwise
    assert packet_delays(np.array([2, 0]), 1.0, 0.5).tolist() == [2.5, 0.5]


def test_packet_delays_fifo_order():
    # packets enqueued in slots 1, 2 and 5 and all served in slot 5
    delays = packet_delays(5 - np.array([1, 2, 5]), 1e-3, 5e-3).tolist()
    assert delays == sorted(delays, reverse=True)


def _random_table(rng):
    """A random slot table for 0-2 eMBB and 1-5 HRLLC users under the backlog
    recursion, and the HRLLC packet ages (departure slot minus enqueue slot)
    of a packet-level FIFO replay of it.

    Each user draws a regime: idle, light, loaded or overloaded arrivals,
    and service capacity from none to far above its work."""
    n_e, n_h = int(rng.integers(0, 3)), int(rng.integers(1, 6))
    n_u, slots = n_e + n_h, int(rng.integers(1, 40))
    lam = rng.choice([0.0, 0.5, 2.0, 6.0], n_u)
    cap = rng.choice([0, 1, 3, 20], n_u)
    table = np.recarray(slots, dtype=[("arrivals", np.int64, (n_u,)),
                                      ("departures", np.int64, (n_u,)),
                                      ("backlogs", np.int64, (n_u,))])
    fifos, backlogs = [UserQueue() for _ in range(n_h)], np.zeros(n_u, np.int64)
    want, over_served = [], False
    for t in range(slots):
        arrivals = rng.poisson(lam)
        served = rng.integers(0, cap + 1)
        work = backlogs + arrivals
        departures = np.minimum(work, served)
        backlogs = work - departures
        over_served |= bool(np.any(served[n_e:] > work[n_e:]))
        for u, q in enumerate(fifos):
            stamps = q.update(int(arrivals[n_e + u]), int(served[n_e + u]), t)
            want += [t - stamp for stamp in stamps]
        table[t] = (arrivals, departures, backlogs)
    return (table, n_e, want,
            {"idle": bool(np.any(table.arrivals[:, n_e:].sum(axis=0) == 0)),
             "queued at end": bool(np.any(backlogs[n_e:])),
             "service above work": over_served})


def test_hrllc_delays_match_fifo_replay():
    """The packet ages counted from the slot table equal those of a
    packet-level FIFO replay, age by age."""
    rng = np.random.default_rng(11)
    seen = {"idle": 0, "queued at end": 0, "service above work": 0}
    packets = 0
    for _ in range(1000):
        table, n_e, want, cases = _random_table(rng)
        audit_conservation(table)
        got = hrllc_age_counts(table, n_e)
        assert got.dtype == np.int64 and got.shape == (len(table),)
        assert got.tobytes() == np.bincount(
            want, minlength=len(table)).astype(np.int64).tobytes()
        packets += int(got.sum())
        for name, hit in cases.items():
            seen[name] += hit
    assert packets > 10_000 and all(seen.values()), (packets, seen)


def _energy(f, g) -> float:
    """Quadratic congestion energy of two backlog vectors, in Python."""
    return 0.5 * (sum(float(x) ** 2 for x in f) + sum(float(x) ** 2 for x in g))


def test_lyapunov_state_value_reference():
    st = LyapunovState()
    st.advance(np.array([4, 3, 0]), 1)               # eMBB [4], HRLLC [3, 0]
    assert (st.value_embb, st.value_hrllc) == (8.0, 4.5)
    assert st.value_embb + st.value_hrllc == 12.5
    st.advance(np.zeros(3, dtype=int), 1)
    assert st.value_embb + st.value_hrllc == 0.0
    st.advance(np.ones(7), 0)                        # no eMBB users
    assert (st.value_embb, st.value_hrllc) == (0.0, 3.5)


def test_lyapunov_drift():
    st = LyapunovState()
    st.advance(np.array([4, 3, 0]), 1)               # L = 12.5
    assert st.value_embb + st.value_hrllc == 12.5
    st.advance(np.array([0, 4, 0]), 1)               # L = 8.0
    assert st.drift == -4.5
    assert (st.drift_embb, st.drift_hrllc) == (-8.0, 3.5)
    assert st.drift_embb + st.drift_hrllc == st.drift
    st.advance(np.array([0, 4, 0]), 1)
    assert st.drift == 0.0


def _advance_oracle(state, backlogs, num_embb):
    """The NumPy body that ``LyapunovState.advance`` replaced."""
    b = np.asarray(backlogs, dtype=float)
    e, h = b[:num_embb], b[num_embb:]
    new_e = 0.5 * float(np.dot(e, e))
    new_h = 0.5 * float(np.dot(h, h))
    state.drift_embb = new_e - state.value_embb
    state.drift_hrllc = new_h - state.value_hrllc
    state.value_embb = new_e
    state.value_hrllc = new_h


def test_lyapunov_advance_matches_numpy_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        users = int(rng.integers(1, 25))
        num_embb = int(rng.integers(0, users + 1))
        got, want = LyapunovState(), LyapunovState()
        for high in (10, 10_000, 10**7, 10, 0):
            backlogs = rng.integers(0, high + 1, users)
            got.advance(backlogs, num_embb)
            _advance_oracle(want, backlogs, num_embb)
            assert got == want and got.drift == want.drift


def test_lyapunov_incremental_matches_recompute():
    st = LyapunovState()
    rng = np.random.default_rng(1)
    prev_e = prev_h = 0.0
    for _ in range(200):
        backlogs = rng.integers(0, 3000, 7)
        e, h = backlogs[:4], backlogs[4:]
        st.advance(backlogs, 4)
        assert st.value_embb == _energy(e, []) and st.value_hrllc == _energy([], h)
        assert st.value_embb + st.value_hrllc == _energy(e, h)
        assert st.drift_embb == _energy(e, []) - prev_e
        assert st.drift_hrllc == _energy([], h) - prev_h
        prev_e, prev_h = _energy(e, []), _energy([], h)
