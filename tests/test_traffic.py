import numpy as np
import pytest

from slicesched.config import ScenarioConfig
from slicesched.traffic import (DegenerateChainError, DexterityProfile,
                                MmppChain, effective_intensity,
                                init_state_stationary, sample_embb_arrivals,
                                sample_hrllc_arrivals, stationary_probs)
from conftest import mean_rate


def test_stationary_probs_symmetric():
    assert stationary_probs(0.2, 0.2) == pytest.approx((0.5, 0.5))


def test_stationary_probs_closed_form():
    # pi1 = beta/(alpha+beta) = 0.1/0.4
    assert stationary_probs(0.3, 0.1) == pytest.approx((0.25, 0.75))


def test_stationary_probs_absorbing():
    assert stationary_probs(0.0, 0.5) == pytest.approx((1.0, 0.0))


def test_stationary_probs_degenerate():
    with pytest.raises(DegenerateChainError):
        stationary_probs(0.0, 0.0)


def test_mean_rate_weighted():
    assert mean_rate(0.2, 0.2, 2.0, 8.0) == pytest.approx(5.0)


def test_mean_rate_equal_intensities():
    assert mean_rate(0.7, 0.3, 4.0, 4.0) == pytest.approx(4.0)


def test_mean_rate_stuck_in_state_one():
    assert mean_rate(0.0, 0.5, 2.0, 8.0) == pytest.approx(2.0)


def _chain(alpha=0.2, beta=0.2, slot=1e-3, state=1):
    return MmppChain(alpha=alpha, beta=beta, lambda_by_state=(2.0, 8.0),
                     slot_duration_s=slot, state=state)


def test_chain_transition_probabilities():
    c = _chain()
    assert c.p_1_to_2 == pytest.approx(1.0 - np.exp(-2e-4))
    assert 0.0 <= c.p_1_to_2 <= 1.0 and 0.0 <= c.p_2_to_1 <= 1.0


def test_chain_zero_rate_never_leaves_state_one():
    c = _chain(alpha=0.0)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        assert c.step(rng) == 1


def test_chain_huge_rate_leaves_immediately():
    c = _chain(alpha=1e9)
    assert c.step(np.random.default_rng(0)) == 2


def test_chain_invalid_state_rejected():
    with pytest.raises(ValueError):
        _chain(state=3)


def test_chain_step_is_deterministic_per_stream():
    a, b = _chain(alpha=100.0, beta=100.0), _chain(alpha=100.0, beta=100.0)
    ra, rb = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(500):
        assert a.step(ra) == b.step(rb)


def test_chain_step_consumes_one_uniform_per_slot():
    # After N steps two different chains leave the stream at the same point.
    fast, slow = _chain(alpha=500.0, beta=500.0), _chain(alpha=0.0)
    ra, rb = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(100):
        fast.step(ra)
        slow.step(rb)
    assert ra.random() == rb.random()


def test_effective_intensity():
    assert effective_intensity(8.0, 0.2, 10.0) == pytest.approx(6.0)
    assert effective_intensity(8.0, 0.2, 0.0) == pytest.approx(8.0)
    assert effective_intensity(2.0, 0.5, 10.0) == 0.0  # clamped


def test_effective_intensity_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam, bd, d = rng.uniform(0, 10, 3)
        assert effective_intensity(lam, bd, d + 1.0) <= \
            effective_intensity(lam, bd, d)
        assert effective_intensity(lam + 1.0, bd, d) >= \
            effective_intensity(lam, bd, d)


def test_hrllc_arrivals_zero_intensity():
    c = _chain(state=1)
    rng, same = np.random.default_rng(0), np.random.default_rng(0)
    # beta_dex * dxi exceeds the slow intensity -> clamp to 0 arrivals,
    # drawing nothing from the stream that the chain shares
    assert all(sample_hrllc_arrivals(c, 1.0, 5.0, rng) == 0
               for _ in range(100))
    assert rng.random() == same.random()


def test_hrllc_arrivals_poisson_moments():
    c = _chain(alpha=0.0, state=1)  # frozen in state 1, intensity 2
    rng = np.random.default_rng(1)
    draws = np.array([sample_hrllc_arrivals(c, 0.2, 0.0, rng)
                      for _ in range(200_000)])
    assert draws.mean() == pytest.approx(2.0, abs=0.02)
    assert draws.var() == pytest.approx(2.0, abs=0.05)
    assert np.all(draws >= 0)


def test_embb_arrivals():
    rng = np.random.default_rng(2)
    assert sample_embb_arrivals(0.0, rng, 5).tolist() == [0] * 5
    draws = sample_embb_arrivals(3.0, rng, 200_000)
    assert draws.mean() == pytest.approx(3.0, abs=0.03)
    for lam in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            sample_embb_arrivals(lam, rng, 1)


def test_embb_arrivals_deterministic_per_seed():
    a = sample_embb_arrivals(3.0, np.random.default_rng(5), 50)
    b = sample_embb_arrivals(3.0, np.random.default_rng(5), 50)
    assert a.shape == (50,) and np.array_equal(a, b)


def test_init_state_stationary_distribution():
    rng = np.random.default_rng(0)
    states = [init_state_stationary(0.3, 0.1, rng) for _ in range(20_000)]
    assert set(states) <= {1, 2}
    assert np.mean(np.array(states) == 1) == pytest.approx(0.25, abs=0.02)


def test_sample_state_path_occupancy():
    # with a slot as long as 1 s the exact-exponential transition
    # probabilities give a discrete chain whose stationary occupancy
    # differs slightly from the continuous-time beta/(alpha+beta)
    c = _chain(alpha=0.3, beta=0.1, slot=1.0)
    p_on = 1.0 - np.exp(-0.1)
    p_off = 1.0 - np.exp(-0.3)
    expected = p_on / (p_on + p_off)
    rng = np.random.default_rng(4)
    path = np.array([c.step(rng) for _ in range(200_000)])
    assert np.mean(path == 1) == pytest.approx(expected, abs=0.02)


def test_dexterity_profile_constant():
    cfg = ScenarioConfig(dxi_levels=(4.0,))
    prof = DexterityProfile(cfg, 900)
    for slot in (0, 300, 450, 599, 899):      # outer and middle thirds
        assert prof.vector(slot).tolist() == [4.0, 4.0, 4.0]


def test_dexterity_profile_per_user():
    cfg = ScenarioConfig(dxi_levels=(0.0, 2.0, 7.0))
    prof = DexterityProfile(cfg, 100)
    for slot in (0, 33, 50, 66, 99):          # outer and middle thirds
        assert prof.vector(slot).tolist() == [0.0, 2.0, 7.0]


def test_dexterity_profile_two_step():
    cfg = ScenarioConfig(dxi_levels=(3.0, 1.0, 3.0),
                         dxi_middle=(3.0, 6.0, 3.0))
    prof = DexterityProfile(cfg, 900)
    assert prof.step_a == 300 and prof.step_b == 600
    assert prof.vector(0)[1] == 1.0         # before the first change point
    assert prof.vector(299)[1] == 1.0
    assert prof.vector(300)[1] == 6.0       # middle third
    assert prof.vector(599)[1] == 6.0
    assert prof.vector(600)[1] == 1.0       # after the second change point
    # other users stay at the constant level throughout
    for slot in (0, 300, 450, 599, 899):
        assert prof.vector(slot)[0] == 3.0
        assert prof.vector(slot)[2] == 3.0


def test_dexterity_profile_array_of_slots():
    # one row per global slot index, equal to the scalar lookups
    cfg = ScenarioConfig(dxi_levels=(3.0, 1.0, 3.0),
                         dxi_middle=(3.0, 6.0, 3.0))
    prof = DexterityProfile(cfg, 900)
    slots = np.arange(250, 650)
    levels = prof.vector(slots)
    assert levels.shape == (400, 3)
    assert levels.tolist() == [prof.vector(int(t)).tolist() for t in slots]
    assert levels[:, 1].tolist() == [1.0] * 50 + [6.0] * 300 + [1.0] * 50
    # a new array each call: changing one leaves the profile as it was
    levels[:] = -1.0
    assert prof.vector(slots[:1]).tolist() == [[3.0, 1.0, 3.0]]


def test_dexterity_profile_one_value_applies_to_every_user():
    one = DexterityProfile(ScenarioConfig(
        dxi_levels=(1.5,), dxi_middle=(4.0,)), 900)
    repeated = DexterityProfile(ScenarioConfig(
        dxi_levels=(1.5, 1.5, 1.5), dxi_middle=(4.0, 4.0, 4.0)), 900)
    slots = np.arange(900)
    assert one.vector(slots).tolist() == repeated.vector(slots).tolist()
    assert one.vector(450).tolist() == [4.0, 4.0, 4.0]


def test_dexterity_profile_steps_every_user_that_differs():
    cfg = ScenarioConfig(dxi_levels=(2.0, 1.0, 3.0),
                         dxi_middle=(2.0, 6.0, 0.5))
    prof = DexterityProfile(cfg, 900)
    assert prof.vector(0).tolist() == [2.0, 1.0, 3.0]
    assert prof.vector(300).tolist() == [2.0, 6.0, 0.5]
    assert prof.vector(600).tolist() == [2.0, 1.0, 3.0]
    assert prof.stepped_user == 1            # the first user that steps


@pytest.mark.parametrize("levels, middle, user", [
    ((0.0, 2.5, 2.5), (5.0, 2.5, 2.5), 0),
    ((2.5, 2.5, 0.0), (2.5, 2.5, 5.0), 2),
    ((1.0, 2.0, 3.0), (), 0),               # no step: user 0
    ((1.0,), (1.0,), 0),
])
def test_dexterity_profile_stepped_user(levels, middle, user):
    cfg = ScenarioConfig(dxi_levels=levels, dxi_middle=middle)
    assert DexterityProfile(cfg, 30).stepped_user == user
