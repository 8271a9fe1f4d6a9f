import dataclasses
import warnings

import numpy as np
import pytest

from slicesched.config import ScenarioConfig
from slicesched.constraint import delay_cdf, reliability
from slicesched.engine import build_policy, run_evaluation, run_training
from slicesched.metrics import (DexteritySensitivity, compare_policies,
                                moving_average, spearman_rank_correlation,
                                summarize)
from slicesched.traffic import DexterityProfile
from conftest import (pooled_delay_cdf, pooled_hrllc_delays,
                      pooled_reliability, windowed_slope)
from test_golden import CASES as GOLDEN_CASES, golden_case


def test_moving_average_reference_points():
    assert np.allclose(moving_average([5, 5, 5], 2), [5, 5, 5])
    assert np.allclose(moving_average([3, 1, 4], 1), [3, 1, 4])
    assert np.allclose(moving_average([0, 10], 2), [0, 5])


def test_moving_average_shrinking_start():
    out = moving_average([2, 4, 6, 8], 3)
    assert np.allclose(out, [2, 3, 4, 6])


def test_moving_average_preserves_bounds():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    sm = moving_average(x, 10)
    assert sm.min() >= x.min() and sm.max() <= x.max()
    assert len(sm) == len(x)


def _moving_average_loop(x, window):
    """Reference: each trailing window's sum from the cumulative sum, one
    element at a time."""
    cum = np.cumsum(x)
    out = np.empty_like(x)
    for i in range(x.size):
        lo = max(i - window + 1, 0)
        total = cum[i] - (cum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


def test_moving_average_matches_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = rng.normal(scale=rng.uniform(0.1, 100.0),
                       size=int(rng.integers(1, 60)))
        window = int(rng.integers(1, 70))
        assert np.array_equal(moving_average(x, window),
                              _moving_average_loop(x, window))


def test_moving_average_errors():
    with pytest.raises(ValueError):
        moving_average([], 3)
    with pytest.raises(ValueError):
        moving_average([1.0], 0)


def test_windowed_slope():
    out = windowed_slope([0, 1, 2, 3, 4], 2)
    assert np.allclose(out, [1, 1, 1])
    with pytest.raises(ValueError):
        windowed_slope([1, 2], 5)


def _tiny_records(name="rr", seed=None):
    cfg = ScenarioConfig(episodes=3, slots_per_episode=25)
    records = []
    run_training(cfg, name, records.append)
    return records, cfg


def test_summarize_shapes():
    records, cfg = _tiny_records()
    summ = summarize(records, cfg)
    assert summ.returns.shape == (3,)
    assert summ.returns_smoothed.shape == (3,)
    assert summ.mean_queue_embb.shape == (3,)
    if summ.delays_s.size:
        assert 0.0 <= summ.reliability_at_dmax <= 1.0


def test_compare_policies_self_comparison():
    records, cfg = _tiny_records()
    summ = summarize(records, cfg)
    table = compare_policies({"a": summ, "b": summ})
    assert np.array_equal(table["returns"]["a"], table["returns"]["b"])
    assert table["reliability"]["a"] == table["reliability"]["b"]
    assert table["cdf"]["a"] == table["cdf"]["b"]


def test_compare_policies_mismatched_lengths():
    records, cfg = _tiny_records()
    with pytest.raises(ValueError, match="mismatched"):
        compare_policies({"a": summarize(records, cfg),
                          "b": summarize(records[:-1], cfg)})


def test_compare_policies_cdf_consistent_with_reliability():
    records, cfg = _tiny_records()
    summ = summarize(records, cfg)
    table = compare_policies({"rr": summ})
    if summ.delay_counts.size:
        at = max((f for d, f in table["cdf"]["rr"] if d <= cfg.d_max_s),
                 default=0.0)
        assert at == pytest.approx(reliability(
            summ.delay_values, summ.delay_counts, cfg.d_max_s))


def test_spearman_reference_values():
    assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == \
        pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3], [5, 3, 1]) == \
        pytest.approx(-1.0)
    assert spearman_rank_correlation([1, 1, 1], [4, 5, 6]) == 0.0
    # monotone but nonlinear relation still gives rank correlation 1
    assert spearman_rank_correlation([1, 2, 3, 4], [1, 8, 27, 64]) == \
        pytest.approx(1.0)


def test_spearman_tie_handling():
    r = spearman_rank_correlation([1, 2, 2, 3], [1, 2, 2, 3])
    assert r == pytest.approx(1.0)


def _loop_ranks(v):
    """Average ranks by walking each tie group of the sorted values."""
    order = np.argsort(v, kind="stable")
    r = np.empty(len(v), dtype=float)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        r[order[i:j + 1]] = (i + j) / 2.0
        i = j + 1
    return r


def _loop_spearman(x, y):
    rx, ry = _loop_ranks(np.asarray(x, float)), _loop_ranks(np.asarray(y, float))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def test_spearman_matches_tie_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        # few distinct values give many ties; continuous draws give none
        draw = ((lambda: rng.integers(0, 4, n)) if rng.random() < 0.5
                else (lambda: rng.normal(size=n)))
        x, y = draw(), draw()
        assert spearman_rank_correlation(x, y) == _loop_spearman(x, y)


def test_dexterity_sensitivity_table():
    cfg = ScenarioConfig(episodes=2, slots_per_episode=30,
                         dxi_levels=(9.0, 0.0, 4.0))
    records, steady = [], DexteritySensitivity(cfg, 0)
    run_training(cfg, "rr", lambda r: (records.append(r), steady.add(r)))
    table = steady.table()
    dxis = [row["dxi"] for row in table["rows"]]
    assert dxis == sorted(dxis)
    assert dxis == [0.0, 4.0, 9.0]
    assert -1.0 <= table["rank_correlation_dxi_prbs"] <= 1.0
    for row in table["rows"]:
        assert row["mean_prbs"] >= 1.0
        assert row["mean_arrivals"] >= 0.0
    # the HRLLC users' mean PRBs plus the eMBB users' fill the grid
    slots = np.concatenate([r.slots for r in records]).view(np.recarray)
    embb = slots.counts[:, :cfg.num_embb].mean(axis=0).sum()
    assert embb + sum(r["mean_prbs"] for r in table["rows"]) == pytest.approx(
        cfg.num_prbs)
    for u, row in enumerate(sorted(table["rows"], key=lambda r: r["user"])):
        col = cfg.num_embb + u
        assert row["mean_arrivals"] == slots.arrivals[:, col].mean()
        assert row["mean_departures"] == slots.departures[:, col].mean()
        assert row["mean_prbs"] == slots.counts[:, col].mean()


def test_dexterity_sensitivity_reads_the_recorded_dxi_of_an_evaluation():
    """An evaluation's DXI schedule spans its own ``eval_episodes``, not the
    training horizon: user 0 steps 0 -> 5 -> 0 at 30 and 60 of 90 slots."""
    cfg = ScenarioConfig(episodes=9, eval_episodes=3, slots_per_episode=30,
                         dxi_levels=(0.0, 2.5, 5.0), dxi_middle=(5.0, 2.5, 0.0))
    records, steady = [], DexteritySensitivity(cfg, 0)
    run_evaluation(cfg, 5, [(build_policy("rr", cfg, 5),
                             lambda r: (records.append(r), steady.add(r)))])
    recorded = np.concatenate([r.slots for r in records]).view(np.recarray)
    want = recorded.dxi.mean(axis=0)
    assert want.tolist() == [5.0 / 3.0, 2.5, 10.0 / 3.0]
    for row in steady.table()["rows"]:
        assert row["dxi"] == want[row["user"]]


def _profile_rebuild_table(cfg, first, sums):
    """The reference table of a training run: the DXI schedule rebuilt from
    ``cfg`` over the training horizon, and the folded slots taken to be
    every episode from ``first`` on."""
    n_s = cfg.slots_per_episode
    lo = first * n_s
    hi = lo + max(cfg.episodes - first, 0) * n_s
    profile = DexterityProfile(cfg, cfg.episodes * n_s)
    dxi = profile.vector(np.arange(lo, hi)).mean(axis=0).tolist()
    arrivals, departures, prbs = (sums / (hi - lo)).tolist()
    rows = [{"user": u, "dxi": dxi[u], "mean_arrivals": arrivals[u],
             "mean_departures": departures[u], "mean_prbs": prbs[u]}
            for u in range(cfg.num_hrllc)]
    rows.sort(key=lambda r: r["dxi"])
    corr = spearman_rank_correlation([r["dxi"] for r in rows],
                                     [r["mean_prbs"] for r in rows])
    return {"rows": rows, "rank_correlation_dxi_prbs": corr}


@pytest.mark.parametrize("episodes,slots,first,values", [
    (7, 30, 3, {"dxi_levels": (0.1, 0.3, 0.7), "dxi_middle": (1.1, 0.2, 0.3)}),
    (5, 13, 2, {"dxi_levels": (1 / 3, 2 / 7, 0.9), "dxi_middle": (0.9,)}),
    (4, 13, 1, {"dxi_levels": (-0.0,)}),
    (4, 13, 0, {"dxi_levels": (0.1, -0.0, 0.3), "dxi_middle": (-0.0,)}),
    (2, 200, 1, {"num_hrllc": 5, "dxi_levels": (0.0, 2.5, 5.0, 7.5, 10.0),
                 "lambda_embb": 1.0}),      # the dex-sensitivity preset
    (1, 1, 0, {"dxi_levels": (0.1, 0.3, 0.7)}),
    (7, 1, 2, {"dxi_levels": (0.1, 0.3, 0.7), "dxi_middle": (1 / 3,)}),
    (3, 13, 3, {"dxi_levels": (0.1, 0.3, 0.7)}),     # nothing folded
])
def test_dexterity_sensitivity_matches_profile_rebuild_on_training(
        episodes, slots, first, values):
    """On a training run the recorded DXI is the rebuilt schedule, and the
    table is the same to the last bit, ``repr`` for ``repr``."""
    cfg = ScenarioConfig(episodes=episodes, slots_per_episode=slots, **values)
    steady = DexteritySensitivity(cfg, first)
    run_training(cfg, "rr", steady.add)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # an empty fold's 0/0
        want = _profile_rebuild_table(cfg, first, steady.sums)
        got = steady.table()
    assert repr(got) == repr(want)
    if first >= episodes:
        assert all(np.isnan(v) for row in got["rows"] for k, v in row.items()
                   if k != "user")


def _assert_summary_matches_pooled(records, cfg):
    """The delay histogram against the pooled reference, byte for byte: the
    reliability, the CDF pairs (also through ``compare_policies``) and the
    sorted expansion."""
    pooled = pooled_hrllc_delays(records, cfg)
    summ = summarize(records, cfg)
    assert summ.delays_s.dtype == pooled.dtype
    assert summ.delays_s.tobytes() == np.sort(pooled).tobytes()
    cdf = compare_policies({"p": summ})["cdf"]["p"]
    if pooled.size:
        want = pooled_reliability(pooled, cfg.d_max_s)
        assert summ.reliability_at_dmax == want
        assert reliability(summ.delay_values, summ.delay_counts,
                           cfg.d_max_s) == want
        assert cdf == pooled_delay_cdf(pooled)
        assert delay_cdf(summ.delay_values, summ.delay_counts) == cdf
    else:
        assert np.isnan(summ.reliability_at_dmax) and cdf == []
    return pooled.size


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_delay_histogram_matches_pooled_reference(case, tiny_cfg,
                                                  monkeypatch):
    """On the golden configs, and with an episode inserted that has no HRLLC
    departure while its packets stay queued (zero service)."""
    agent, cfg = golden_case(case, tiny_cfg, monkeypatch)
    records = []
    run_training(cfg, agent, records.append)
    assert any(r.slots.backlogs[-1, cfg.num_embb:].any() for r in records)
    assert _assert_summary_matches_pooled(records, cfg) > 0
    starved = []
    run_training(dataclasses.replace(cfg, episodes=1, mean_snr_linear=1e-15),
                 agent, starved.append)
    (idle,) = starved
    assert idle.slots.departures[:, cfg.num_embb:].sum() == 0
    assert idle.slots.backlogs[-1, cfg.num_embb:].any()
    assert _assert_summary_matches_pooled(records[:1] + starved + records[1:],
                                          cfg) > 0
    assert _assert_summary_matches_pooled(starved, cfg) == 0


def test_delay_histogram_matches_pooled_reference_at_full_size():
    """Full-size rr and pf evaluation episodes, whose overloaded HRLLC
    queues give delays up to the episode length."""
    cfg = ScenarioConfig(eval_episodes=3, mmpp_alpha=20.0,
                         mmpp_beta=20.0)
    for name in ("rr", "pf"):
        records = []
        run_evaluation(cfg, 3, [(build_policy(name, cfg, 3), records.append)])
        assert _assert_summary_matches_pooled(records, cfg) > 1000
