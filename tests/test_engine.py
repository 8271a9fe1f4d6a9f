import numpy as np
import pytest

from slicesched.config import ScenarioConfig, ValidationError
from slicesched.engine import (Simulation, build_policy, concat_slots,
                               export_diagnostics_csv,
                               export_trace_csv, run_evaluation, run_training,
                               slot_dtype, step_response_summary,
                               trace_columns, POLICY_NAMES)
from slicesched.metrics import summarize
from slicesched.queueing import service_capacity


def _sim(cfg, policy_name="rr", seed=None, **kwargs):
    policy = build_policy(policy_name, cfg, seed or cfg.master_seed)
    return Simulation(cfg, policy, master_seed=seed, **kwargs)


def test_build_policy_names():
    cfg = ScenarioConfig()
    for name in POLICY_NAMES:
        assert build_policy(name, cfg, 1) is not None
    with pytest.raises(ValueError):
        build_policy("oracle", cfg, 1)


def test_zero_arrival_fixed_point():
    # Clamp all arrival intensities to zero: backlogs stay empty, drift zero.
    cfg = ScenarioConfig().replace(lambda_embb=0.0, beta_dex=10.0,
                                   dxi_level=100.0, episodes=1,
                                   slots_per_episode=40)
    rec = _sim(cfg).run_episode()
    for s in rec.slots:
        assert s.backlogs.sum() == 0
        assert s.drift_embb + s.drift_hrllc == 0.0
        assert s.arrivals.sum() == 0
    assert summarize([rec], cfg).delays_s.size == 0


def test_zero_service_accumulates_arrivals_exactly():
    # A vanishing SNR gives zero whole-packet service; backlog must equal the
    # running arrival sum for every user at every slot.
    cfg = ScenarioConfig().replace(mean_snr_linear=1e-15, episodes=1,
                                   slots_per_episode=30)
    rec = _sim(cfg).run_episode()
    totals = np.zeros(cfg.num_users)
    assert service_capacity(rec.slots.rates, cfg.slot_duration_s,
                            cfg.packet_size_bits).sum() == 0
    for s in rec.slots:
        totals += s.arrivals
        assert np.array_equal(s.backlogs, totals)


def test_return_is_sum_of_slot_rewards(tiny_cfg):
    rec = _sim(tiny_cfg, "pf").run_episode()
    assert rec.episodic_return == pytest.approx(
        sum(s.reward for s in rec.slots))


def test_episode_reset_clears_queues(tiny_cfg):
    sim = _sim(tiny_cfg, "rr")
    sim.run_episode()
    rec2 = sim.run_episode()
    first = rec2.slots[0]
    # First-slot backlogs can only contain that slot's unserved arrivals.
    assert np.all(first.backlogs <= first.arrivals)


def test_queue_conservation_over_run(tiny_cfg):
    records, _ = run_training(tiny_cfg, "rr")
    arrivals = sum(s.arrivals.sum() for r in records for s in r.slots)
    departures = sum(s.departures.sum() for r in records for s in r.slots)
    final = records[-1].slots[-1]
    # Per-episode queues reset, so cross-run conservation needs per-episode
    # backlogs at episode ends.
    leftovers = sum(r.slots[-1].backlogs.sum() for r in records)
    assert arrivals == departures + leftovers
    assert final.backlogs.sum() >= 0


def test_allocation_feasibility_every_slot(tiny_cfg):
    for name in POLICY_NAMES:
        records, _ = run_training(tiny_cfg, name)
        for r in records:
            for s in r.slots:
                assert s.counts.sum() == tiny_cfg.num_prbs
                assert s.counts.min() >= 1


def test_training_replay_is_deterministic(tiny_cfg):
    a, _ = run_training(tiny_cfg, "a2c")
    b, _ = run_training(tiny_cfg, "a2c")
    assert [r.episodic_return for r in a] == [r.episodic_return for r in b]
    for ra, rb in zip(a, b):
        for sa, sb in zip(ra.slots, rb.slots):
            assert np.array_equal(sa.counts, sb.counts)
            assert sa.reward == sb.reward


def test_single_episode_run():
    cfg = ScenarioConfig().replace(episodes=1, slots_per_episode=10)
    records, _ = run_training(cfg, "rr")
    assert len(records) == 1
    assert len(records[0].slots) == 10


def test_world_randomness_identical_across_policies(tiny_cfg):
    """Shared-seed evaluations expose the same arrivals and channel to every
    policy, so observed traffic must match element-wise."""
    recs = {}
    for name in ("rr", "pf"):
        policy = build_policy(name, tiny_cfg, 999)
        recs[name] = run_evaluation(tiny_cfg.replace(eval_episodes=2),
                                    policy, eval_seed=999)
    for ra, rb in zip(recs["rr"], recs["pf"]):
        for sa, sb in zip(ra.slots, rb.slots):
            assert np.array_equal(sa.arrivals, sb.arrivals)
            assert np.array_equal(sa.mmpp_states, sb.mmpp_states)


def test_evaluation_freezes_dual(tiny_cfg):
    policy = build_policy("rr", tiny_cfg, 5)
    recs = run_evaluation(tiny_cfg.replace(eval_episodes=2), policy,
                          eval_seed=5)
    assert all(s.dual == 0.0 for r in recs for s in r.slots)


def test_dual_never_negative_and_updates_on_cadence(tiny_cfg):
    # the dual takes one projected ascent step on each slot's violation
    records, _ = run_training(tiny_cfg, "rr")
    slots = concat_slots(records)
    expected, dual = [], 0.0
    for y in slots.y_mean:
        dual += tiny_cfg.dual_step * max(y - tiny_cfg.chi_h, 0.0)
        expected.append(dual)
    assert np.all(slots.dual >= 0.0)
    assert np.allclose(slots.dual, expected)


def test_trace_csv_round(tmp_path, tiny_cfg):
    records, _ = run_training(tiny_cfg, "rr")
    path = tmp_path / "trace.csv"
    export_trace_csv(records, tiny_cfg, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == trace_columns(tiny_cfg)
    expected_rows = sum(len(r.slots) for r in records)
    assert len(lines) == 1 + expected_rows
    export_trace_csv(records, tiny_cfg, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_episode_slot_table(tiny_cfg):
    records, _ = run_training(tiny_cfg, "pf")
    for r in records:
        assert r.slots.dtype == slot_dtype(tiny_cfg)
        assert len(r.slots) == tiny_cfg.slots_per_episode
    # per-user fields share one user axis, eMBB users first; per-slice
    # per-user fields are gone
    fields = slot_dtype(tiny_cfg).fields
    users, hrllc = (tiny_cfg.num_users,), (tiny_cfg.num_hrllc,)
    for name in ("arrivals", "counts", "rates", "departures", "backlogs"):
        assert fields[name][0].shape == users, name
    for name in ("mmpp_states", "dxi"):
        assert fields[name][0].shape == hrllc, name
    for name in ("drift_embb", "drift_hrllc", "cost", "y_mean", "dual",
                 "reward"):
        assert fields[name][0].shape == (), name
    # what the record's episode number or other columns already determine
    assert not {"episode", "slot", "served"} & set(fields)
    assert not [n for n in fields if n.endswith(("_embb", "_hrllc"))
                and fields[n][0].shape]


def test_slot_rows_match_trace_csv_rates(tmp_path, tiny_cfg):
    # rows are read one by one, as the benchmark's simulated outcomes read them
    records, _ = run_training(tiny_cfg, "pf")
    export_trace_csv(records, tiny_cfg, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    head = lines[0].split(",")
    cols = [head.index(f"r_{u}") for u in range(tiny_cfg.num_users)]
    rows = [s for r in records for s in r.slots]
    assert len(rows) == len(lines) - 1
    for s, line in zip(rows, lines[1:]):
        fields = line.split(",")
        assert s.rates.tolist() == [float(fields[c]) for c in cols]


def test_diagnostics_csv_schemas(tmp_path, tiny_cfg):
    # each policy names its own diagnostics; the engine adds the dual
    headers = {"a2c": "episode,return,actor_loss,critic_loss,entropy,dual",
               "dqn": "episode,return,td_loss,dual",
               "rr": "episode,return,dual"}
    for name, header in headers.items():
        records, _ = run_training(tiny_cfg, name)
        path = tmp_path / f"{name}.csv"
        export_diagnostics_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + tiny_cfg.episodes
        assert all(len(line.split(",")) == header.count(",") + 1
                   for line in lines[1:])


def test_step_response_null_experiment():
    # Constant dexterity: the windows around the change points must agree to
    # within traffic noise.
    cfg = ScenarioConfig().replace(episodes=20, slots_per_episode=50,
                                   mmpp_alpha=50.0, mmpp_beta=50.0)
    records, _ = run_training(cfg, "rr")
    summary = step_response_summary(records, cfg)
    da = (summary["after_step_a"]["mean_arrivals"]
          - summary["before_step_a"]["mean_arrivals"])
    assert abs(da) < 1.5
    assert summary["before_step_a"]["mean_dxi"] == \
        summary["after_step_a"]["mean_dxi"]


def test_step_response_on_evaluation_records():
    # The change points are those of the records' own horizon: 3 evaluation
    # episodes of 50 slots step at slots 50 and 100, whatever cfg.episodes.
    cfg = ScenarioConfig().replace(dexterity_profile="two_step", episodes=30,
                                   slots_per_episode=50, eval_episodes=3)
    records = run_evaluation(cfg, build_policy("rr", cfg, 1), eval_seed=7)
    summary = step_response_summary(records, cfg)
    assert (summary["step_a_slot"], summary["step_b_slot"]) == (50, 100)
    assert summary["window_slots"] == 15
    for name, dxi in (("before_step_a", cfg.dxi_low),
                      ("after_step_a", cfg.dxi_high),
                      ("before_step_b", cfg.dxi_high),
                      ("after_step_b", cfg.dxi_low)):
        stats = summary[name]
        assert stats["mean_dxi"] == dxi
        assert all(np.isfinite(v) for v in stats.values())


def test_slots_per_episode_must_be_positive():
    with pytest.raises(ValidationError):
        ScenarioConfig().replace(slots_per_episode=0)
