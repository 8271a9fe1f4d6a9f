import numpy as np
import pytest

from slicesched.queueing import (LyapunovState, UserQueue, lyapunov_value,
                                 packet_delays, service_capacity)


def test_service_capacity_reference_points():
    assert service_capacity(4e5, 1e-3, 1000) == 0    # floor(0.4)
    assert service_capacity(2e6, 1e-3, 1000) == 2
    assert service_capacity(999.0, 1.0, 1000) == 0   # just under one packet
    assert service_capacity(1000.0, 1.0, 1000) == 1


def test_service_capacity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        service_capacity(-1.0, 1e-3, 1000)
    with pytest.raises(ValueError):
        service_capacity(1.0, 1e-3, 0)


def test_queue_truncation_case():
    q = UserQueue()
    q.update(5, 0, 0)                      # preload backlog 5
    stamps = q.update(3, 10, 1)
    assert q.backlog == 0
    assert len(stamps) == 8                # all 5 old + 3 new departed


def test_queue_partial_service():
    q = UserQueue()
    q.update(5, 0, 0)
    stamps = q.update(3, 2, 1)
    assert q.backlog == 6
    assert len(stamps) == 2
    assert stamps == [0, 0]                # FIFO: oldest first


def test_queue_empty_noop():
    q = UserQueue()
    assert q.update(0, 7, 0) == []
    assert q.backlog == 0


def test_queue_rejects_negative():
    q = UserQueue()
    with pytest.raises(ValueError):
        q.update(-1, 0, 0)
    with pytest.raises(ValueError):
        q.update(0, -1, 0)


def test_queue_fifo_stamps_nondecreasing():
    q = UserQueue()
    rng = np.random.default_rng(0)
    for t in range(200):
        q.update(int(rng.integers(0, 5)), int(rng.integers(0, 4)), t)
        assert list(q.fifo) == sorted(q.fifo)
        assert q.backlog == len(q.fifo)
    q.audit_conservation()


def test_queue_conservation_audit_detects_tampering():
    q = UserQueue()
    q.update(3, 1, 0)
    q.total_departures += 1
    with pytest.raises(AssertionError):
        q.audit_conservation()


def test_packet_delays_reference():
    # enqueued slot 3, dequeued slot 7, 1 ms slots, 5 ms processing -> 9 ms
    assert packet_delays([3], 7, 1e-3, 5e-3) == [pytest.approx(9e-3)]
    # same-slot service -> processing delay only
    assert packet_delays([4], 4, 1e-3, 5e-3) == [pytest.approx(5e-3)]


def test_packet_delays_fifo_order():
    delays = packet_delays([1, 2, 5], 5, 1e-3, 5e-3)
    assert delays == sorted(delays, reverse=True)


def test_lyapunov_value_reference():
    assert lyapunov_value([3, 0], [4]) == pytest.approx(12.5)
    assert lyapunov_value([0, 0], [0]) == 0.0
    assert lyapunov_value(np.ones(7), []) == pytest.approx(3.5)


def test_lyapunov_drift():
    st = LyapunovState()
    st.advance(np.array([3, 0]), np.array([4]))      # L = 12.5
    assert st.value == pytest.approx(12.5)
    drift = st.advance(np.array([4, 0]), np.array([0]))  # L = 8.0
    assert drift == pytest.approx(-4.5)
    assert st.drift_embb + st.drift_hrllc == pytest.approx(st.drift)
    assert st.advance(np.array([4, 0]), np.array([0])) == pytest.approx(0.0)


def test_lyapunov_incremental_matches_recompute():
    st = LyapunovState()
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = rng.integers(0, 30, 3)
        g = rng.integers(0, 30, 4)
        st.advance(f, g)
        assert st.value == pytest.approx(lyapunov_value(f, g))
