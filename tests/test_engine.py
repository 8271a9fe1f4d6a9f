import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from slicesched import engine
from slicesched.channel import (all_user_rates, derive_prb_bandwidth,
                                rate_matrix)
from slicesched.config import ScenarioConfig, ValidationError
from slicesched.constraint import surrogate_y
from slicesched.engine import (CHAIN_INIT, CHANNEL, TRAFFIC_EMBB,
                               TRAFFIC_HRLLC, Simulation, build_policy,
                               draw_worlds, export_diagnostics_csv,
                               export_trace_csv,
                               run_evaluation, run_training,
                               step_response_summary, stepped_user_columns,
                               stream, trace_csv, training_row, write_csv,
                               POLICY_NAMES)
from slicesched.metrics import summarize
from slicesched.queueing import lindley_backlogs, service_capacity
from slicesched.schedulers import (ProportionalFairPolicy,
                                   RoundRobinPolicy, slot_dtype)
from slicesched.traffic import (DexterityProfile, MmppChain,
                                effective_intensity, init_state_stationary)

from conftest import make_context, slot_row


def _sim(cfg, policy_name="rr"):
    return Simulation(cfg, build_policy(policy_name, cfg, cfg.master_seed))


def _worlds(cfg):
    """The episodes' worlds of a training run on ``cfg``."""
    return draw_worlds(cfg, cfg.master_seed, cfg.episodes)


def _first_episode(cfg, policy_name="rr"):
    """The first episode's record of a training run on ``cfg``."""
    return _sim(cfg, policy_name).run_episode(next(_worlds(cfg)))


def _train(cfg, policy_name):
    """The records of a training run, collected from its callback."""
    records = []
    run_training(cfg, policy_name, records.append)
    return records


def _evaluate(cfg, policy, eval_seed):
    records = []
    run_evaluation(cfg, eval_seed, [(policy, records.append)])
    return records


def _concat(records):
    """The slot tables of consecutive records as one table, in slot order."""
    return np.concatenate([r.slots for r in records]).view(np.recarray)


def _export(records, cfg, trace_path, training_path=None):
    """A run's trace.csv, and its training.csv when a path is given."""
    with trace_csv(trace_path, cfg) as trace:
        for record in records:
            export_trace_csv(record, cfg, trace)
    if training_path is not None:
        export_diagnostics_csv([training_row(r) for r in records],
                               training_path)


def test_build_policy_names():
    cfg = ScenarioConfig()
    for name in POLICY_NAMES:
        assert build_policy(name, cfg, 1) is not None
    with pytest.raises(ValueError):
        build_policy("oracle", cfg, 1)


def test_zero_arrival_fixed_point():
    # Clamp all arrival intensities to zero: backlogs stay empty, drift zero.
    cfg = ScenarioConfig(lambda_embb=0.0, beta_dex=10.0,
                         dxi_levels=(100.0,), episodes=1,
                         slots_per_episode=40)
    rec = _first_episode(cfg)
    for s in rec.slots:
        assert s.backlogs.sum() == 0
        assert s.drift_embb + s.drift_hrllc == 0.0
        assert s.arrivals.sum() == 0
    assert summarize([rec], cfg).delays_s.size == 0


def test_zero_service_accumulates_arrivals_exactly():
    # A vanishing SNR gives zero whole-packet service; backlog must equal the
    # running arrival sum for every user at every slot.
    cfg = ScenarioConfig(mean_snr_linear=1e-15, episodes=1,
                         slots_per_episode=30)
    rec = _first_episode(cfg)
    totals = np.zeros(cfg.num_users)
    assert service_capacity(rec.slots.rates, cfg.slot_duration_s,
                            cfg.packet_size_bits).sum() == 0
    for s in rec.slots:
        totals += s.arrivals
        assert np.array_equal(s.backlogs, totals)


def test_return_is_sum_of_slot_rewards(tiny_cfg):
    rec = _first_episode(tiny_cfg, "pf")
    assert rec.episodic_return == pytest.approx(
        sum(s.reward for s in rec.slots))


def test_episode_reset_clears_queues(tiny_cfg):
    sim, worlds = _sim(tiny_cfg, "rr"), _worlds(tiny_cfg)
    sim.run_episode(next(worlds))
    rec2 = sim.run_episode(next(worlds))
    first = rec2.slots[0]
    # First-slot backlogs can only contain that slot's unserved arrivals.
    assert np.all(first.backlogs <= first.arrivals)


def test_queue_conservation_over_run(tiny_cfg):
    records = _train(tiny_cfg, "rr")
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
        records = _train(tiny_cfg, name)
        for r in records:
            for s in r.slots:
                assert s.counts.sum() == tiny_cfg.num_prbs
                assert s.counts.min() >= 1


def test_training_replay_is_deterministic(tiny_cfg):
    a = _train(tiny_cfg, "a2c")
    b = _train(tiny_cfg, "a2c")
    assert [r.episodic_return for r in a] == [r.episodic_return for r in b]
    for ra, rb in zip(a, b):
        for sa, sb in zip(ra.slots, rb.slots):
            assert np.array_equal(sa.counts, sb.counts)
            assert sa.reward == sb.reward


def test_single_episode_run():
    cfg = ScenarioConfig(episodes=1, slots_per_episode=10)
    records = _train(cfg, "rr")
    assert len(records) == 1
    assert len(records[0].slots) == 10


def test_run_memory_does_not_grow_with_episodes():
    """A run whose callback drops each record still holds, once it returns,
    no more traced bytes after 200 episodes than after 20: nothing of a
    finished episode outlives its callback."""
    cfg = ScenarioConfig(slots_per_episode=10)
    # a first run allocates what the process keeps after any run
    run_training(dataclasses.replace(cfg, episodes=1), "rr",
                 lambda record: None)
    held = {}
    for episodes in (20, 200):
        gc.collect()
        tracemalloc.start()
        try:
            policy = run_training(dataclasses.replace(cfg, episodes=episodes),
                                  "rr", lambda record: None)
            gc.collect()
            held[episodes] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert isinstance(policy, RoundRobinPolicy)
    # a tenth of what the 180 more slot tables would hold if kept
    assert held[200] - held[20] < 18 * 10 * slot_dtype(cfg).itemsize, held


def test_shared_evaluation_matches_each_policy_alone(tiny_cfg):
    """One evaluation of rr, pf and frozen a2c and dqn runs them all on each
    episode's one world, and gives each policy the slot tables and
    diagnostics of its own one-policy evaluation, byte for byte."""
    names = ("rr", "pf", "a2c", "dqn")
    shared = {name: [] for name in names}
    run_evaluation(tiny_cfg, 999, [(build_policy(name, tiny_cfg, 999),
                                    shared[name].append) for name in names])
    for name in names:
        alone = _evaluate(tiny_cfg, build_policy(name, tiny_cfg, 999), 999)
        assert len(alone) == len(shared[name]) == tiny_cfg.eval_episodes
        for ra, rb in zip(alone, shared[name]):
            assert ra.episode == rb.episode
            assert ra.slots.tobytes() == rb.slots.tobytes(), name
            assert ra.diagnostics == rb.diagnostics, name
        for ra, rb in zip(shared["rr"], shared[name]):
            for field in ("mmpp_states", "dxi", "arrivals"):
                assert ra.slots[field].tobytes() == rb.slots[field].tobytes()


def test_evaluation_freezes_dual(tiny_cfg):
    policy = build_policy("rr", tiny_cfg, 5)
    recs = _evaluate(dataclasses.replace(tiny_cfg, eval_episodes=2), policy,
                     eval_seed=5)
    assert all(s.dual == 0.0 for r in recs for s in r.slots)


def test_dual_steps_only_while_the_policy_trains(tiny_cfg):
    duals = {}
    for training in (True, False):
        policy = RoundRobinPolicy()
        policy.training = training
        sim = Simulation(tiny_cfg, policy)
        duals[training] = _concat(
            [sim.run_episode(world) for world in _worlds(tiny_cfg)]).dual
    assert np.any(duals[True] > 0.0)
    assert np.all(duals[False] == 0.0)


def test_dual_never_negative_and_updates_on_cadence(tiny_cfg):
    # the dual takes one projected ascent step on each slot's violation
    slots = _concat(_train(tiny_cfg, "rr"))
    expected, dual = [], 0.0
    for y in slots.y_mean:
        dual += tiny_cfg.dual_step * max(y - tiny_cfg.chi_h, 0.0)
        expected.append(dual)
    assert np.all(slots.dual >= 0.0)
    assert np.allclose(slots.dual, expected)


def test_trace_csv_round(tmp_path, tiny_cfg):
    records = _train(tiny_cfg, "rr")
    path = tmp_path / "trace.csv"
    _export(records, tiny_cfg, path)
    lines = path.read_text().splitlines()
    n_e, n_h, n_u = tiny_cfg.num_embb, tiny_cfg.num_hrllc, tiny_cfg.num_users
    assert lines[0].split(",") == [
        "episode", "slot", *(f"G_{i}" for i in range(n_e)),
        *(f"F_{i}" for i in range(n_h)), *(f"a_{i}" for i in range(n_u)),
        *(f"r_{i}" for i in range(n_u)), "drift_embb", "drift_hrllc", "cost",
        "y", "dual", "reward", *(f"dxi_{i}" for i in range(n_h)),
        *(f"mmpp_{i}" for i in range(n_h))]
    expected_rows = sum(len(r.slots) for r in records)
    assert len(lines) == 1 + expected_rows
    _export(records, tiny_cfg, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("chunks, body", [
    # floats in their shortest round-trip form, up to 17 significant digits
    ([[[0.1 + 0.2, 1 / 3], np.array([2**0.5, 1e-310])]],
     "0.30000000000000004,1.4142135623730951\n0.3333333333333333,1e-310\n"),
    ([[[float("nan"), -0.0, float("-inf")]]], "nan\n-0.0\n-inf\n"),
    ([[range(3), [7, -2**40, 0]]], "0,7\n1,-1099511627776\n2,0\n"),
    ([[["pf", "# rank_correlation"], ["a2c", ""]]],
     "pf,a2c\n# rank_correlation,\n"),
    # NumPy scalars print as the Python value they convert to
    ([[[np.float32(0.1)], [np.int64(7)], [np.float64(0.1)], [np.bool_(1)]]],
     "0.10000000149011612,7,0.1,True\n"),
    ([[[1, 2], [3.5, 4.5]], [], [[5], ["x"]]], "1,3.5\n2,4.5\n5,x\n"),
    ([], ""),
], ids=["float-digits", "nan-signed-zero", "ints", "strings", "numpy-scalars",
        "chunks", "no-chunks"])
def test_write_csv(tmp_path, chunks, body):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], *chunks)
    assert path.read_text() == "a,b\n" + body


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])


def test_episode_slot_table(tiny_cfg):
    records = _train(tiny_cfg, "pf")
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


@pytest.mark.parametrize("policy_name, overrides", [
    ("rr", {}), ("pf", {"num_embb": 9, "num_hrllc": 9, "num_prbs": 30})])
def test_slot_violation_signal_is_numpy_mean(policy_name, overrides):
    """Each row's ``y_mean`` equals ``np.mean`` of the per-user surrogates,
    also with 9 HRLLC users, where NumPy sums pairwise."""
    cfg = ScenarioConfig(episodes=1, slots_per_episode=40,
                         **overrides)
    slots = _first_episode(cfg, policy_name).slots
    n_e = cfg.num_embb
    served = service_capacity(slots.rates, cfg.slot_duration_s,
                              cfg.packet_size_bits)
    for row, served_row in zip(slots, served):
        y_users = [surrogate_y(a, s, cfg.packet_size_bits, cfg.d_max_s,
                               cfg.d_proc_s, cfg.chi_h)
                   for a, s in zip(row.arrivals[n_e:].tolist(),
                                   served_row[n_e:].tolist())]
        assert row.y_mean == float(np.mean(y_users))


def test_slot_rows_match_trace_csv_rates(tmp_path, tiny_cfg):
    # rows are read one by one, as the benchmark's simulated outcomes read them
    records = _train(tiny_cfg, "pf")
    _export(records, tiny_cfg, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    head = lines[0].split(",")
    cols = [head.index(f"r_{u}") for u in range(tiny_cfg.num_users)]
    rows = [s for r in records for s in r.slots]
    assert len(rows) == len(lines) - 1
    for s, line in zip(rows, lines[1:]):
        fields = line.split(",")
        assert s.rates.tolist() == [float(fields[c]) for c in cols]


def test_diagnostics_csv_schemas(tmp_path, tiny_cfg):
    # each policy names its own diagnostics; the episode's final dual ends
    # the row
    headers = {"a2c": "episode,return,actor_loss,critic_loss,entropy,dual",
               "dqn": "episode,return,td_loss,dual",
               "rr": "episode,return,dual"}
    for name, header in headers.items():
        path = tmp_path / f"{name}.csv"
        export_diagnostics_csv([training_row(r) for r in _train(tiny_cfg, name)],
                               path)
        lines = path.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + tiny_cfg.episodes
        assert all(len(line.split(",")) == header.count(",") + 1
                   for line in lines[1:])


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_training_csv_derives_from_trace_csv(tmp_path, tiny_cfg, policy_name):
    """Each training.csv row's return is the in-order sum of its episode's
    trace rewards and its dual the episode's last trace dual, both exactly
    as written."""
    _export(_train(tiny_cfg, policy_name), tiny_cfg, tmp_path / "trace.csv",
            tmp_path / "training.csv")
    head, *trace = [line.split(",") for line in
                    (tmp_path / "trace.csv").read_text().splitlines()]
    names, *rows = [line.split(",") for line in
                    (tmp_path / "training.csv").read_text().splitlines()]
    assert len(rows) == tiny_cfg.episodes
    for row in rows:
        episode = [t for t in trace if t[head.index("episode")] == row[0]]
        rewards = [float(t[head.index("reward")]) for t in episode]
        assert row[names.index("return")] == str(sum(rewards))
        assert row[names.index("dual")] == episode[-1][head.index("dual")]


def _stepped(records, cfg):
    return np.concatenate([stepped_user_columns(r, cfg) for r in records])


def test_step_response_null_experiment():
    # Constant dexterity: the windows around the change points must agree to
    # within traffic noise.
    cfg = ScenarioConfig(episodes=20, slots_per_episode=50,
                         mmpp_alpha=50.0, mmpp_beta=50.0)
    summary = step_response_summary(_stepped(_train(cfg, "rr"), cfg), cfg)
    da = (summary["after_step_a"]["mean_arrivals"]
          - summary["before_step_a"]["mean_arrivals"])
    assert abs(da) < 1.5
    assert summary["before_step_a"]["mean_dxi"] == \
        summary["after_step_a"]["mean_dxi"]


def test_step_response_on_evaluation_records():
    # The change points are those of the records' own horizon: 3 evaluation
    # episodes of 50 slots step at slots 50 and 100, whatever cfg.episodes.
    cfg = ScenarioConfig(dxi_levels=(0.0, 2.5, 2.5),
                         dxi_middle=(5.0, 2.5, 2.5), episodes=30,
                         slots_per_episode=50, eval_episodes=3)
    records = _evaluate(cfg, build_policy("rr", cfg, 1), eval_seed=7)
    summary = step_response_summary(_stepped(records, cfg), cfg)
    assert (summary["step_a_slot"], summary["step_b_slot"]) == (50, 100)
    assert summary["window_slots"] == 15
    for name, dxi in (("before_step_a", cfg.dxi_levels[0]),
                      ("after_step_a", cfg.dxi_middle[0]),
                      ("before_step_b", cfg.dxi_middle[0]),
                      ("after_step_b", cfg.dxi_levels[0])):
        stats = summary[name]
        assert stats["mean_dxi"] == dxi
        assert all(np.isfinite(v) for v in stats.values())


def test_slots_per_episode_must_be_positive():
    with pytest.raises(ValidationError):
        ScenarioConfig(slots_per_episode=0)


# --- the episode's world against the per-slot draw loop ----------------------

def per_slot_world(cfg, seed, episodes):
    """The draw loop the slot loop used to run: per slot, step each chain,
    read DXI, draw each user's arrivals, then the (U, K) channel.  Returns
    per-slot chain states, DXI, arrivals, squared gains and rates."""
    n_s = cfg.slots_per_episode
    rng_h = [stream(seed, TRAFFIC_HRLLC, u) for u in range(cfg.num_hrllc)]
    rng_e = [stream(seed, TRAFFIC_EMBB, u) for u in range(cfg.num_embb)]
    rng_c, rng_init = stream(seed, CHANNEL), stream(seed, CHAIN_INIT)
    profile = DexterityProfile(cfg, cfg.episodes * n_s)
    chains = [MmppChain(alpha=cfg.mmpp_alpha, beta=cfg.mmpp_beta,
                        lambda_by_state=(cfg.lambda_slow, cfg.lambda_burst),
                        slot_duration_s=cfg.slot_duration_s)
              for _ in range(cfg.num_hrllc)]
    cols = {k: [] for k in ("states", "dxi", "arrivals", "gain_sq", "rates")}
    for episode in range(episodes):
        for chain in chains:
            chain.state = init_state_stationary(cfg.mmpp_alpha, cfg.mmpp_beta,
                                                rng_init)
        for i in range(n_s):
            t = episode * n_s + i
            for u, chain in enumerate(chains):
                chain.step(rng_h[u])
            dxi = (profile._inner if profile.step_a <= t < profile.step_b
                   else profile._outer)
            arr_h = []
            for u, chain in enumerate(chains):
                lam = effective_intensity(chain.intensity, cfg.beta_dex, dxi[u])
                arr_h.append(int(rng_h[u].poisson(lam)) if lam > 0 else 0)
            lam = cfg.lambda_embb
            arr_e = [int(rng.poisson(lam)) if lam > 0 else 0 for rng in rng_e]
            gain_sq = rng_c.exponential(1.0, size=(cfg.num_users, cfg.num_prbs))
            cols["states"].append([c.state for c in chains])
            cols["dxi"].append(dxi)
            cols["arrivals"].append(arr_e + arr_h)
            cols["gain_sq"].append(gain_sq)
            cols["rates"].append(derive_prb_bandwidth(cfg) * np.log2(
                1.0 + cfg.mean_snr_linear * gain_sq))
    return {"states": np.array(cols["states"], dtype=np.int64),
            "dxi": np.array(cols["dxi"], dtype=float),
            "arrivals": np.array(cols["arrivals"], dtype=np.int64),
            "gain_sq": np.array(cols["gain_sq"]),
            "rates": np.array(cols["rates"])}


WORLD_CASES = {
    "defaults": {},
    # horizon 100: the DXI steps at slots 33 and 66, inside episodes 1 and 2
    "two-step": {"dxi_levels": (0.0, 2.5, 2.5), "dxi_middle": (5.0, 2.5, 2.5)},
    # slow-state intensity clamped to 0 while the chain keeps stepping
    "clamped": {"beta_dex": 1.0, "dxi_levels": (2.0,), "mmpp_alpha": 200.0,
                "mmpp_beta": 200.0},
    "no-embb-traffic": {"lambda_embb": 0.0},
    "one-hrllc": {"num_hrllc": 1},
}


@pytest.mark.parametrize("case", sorted(WORLD_CASES))
def test_episode_world_matches_per_slot_draws(case):
    cfg = ScenarioConfig(episodes=4, slots_per_episode=25,
                         **WORLD_CASES[case])
    seed = 2024
    expected = per_slot_world(cfg, seed, cfg.episodes)
    # the episodes' columns, each concatenated in slot order
    got = dict(zip(expected, map(np.concatenate,
                                 zip(*draw_worlds(cfg, seed, cfg.episodes)))))
    for name, column in expected.items():
        assert column.dtype == got[name].dtype, name
        assert column.tobytes() == got[name].tobytes(), name
    if case == "clamped":
        states, hrllc = got["states"], got["arrivals"][:, cfg.num_embb:]
        assert np.all(hrllc[states == 1] == 0)
        assert hrllc[states == 2].sum() > 0


def test_world_is_drawn_once_per_episode(monkeypatch, tiny_cfg):
    """A training run draws each episode's world once, and so does an
    evaluation of every policy, which all run on the one draw; a run keeps
    its policy, dual and episode count, and nothing of the world."""
    calls = {}

    def count(name, fn):
        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return counted

    for name in ("draw_channel", "rate_matrix", "sample_embb_arrivals",
                 "sample_hrllc_arrivals"):
        monkeypatch.setattr(engine, name, count(name, getattr(engine, name)))
    monkeypatch.setattr(DexterityProfile, "vector",
                        count("vector", DexterityProfile.vector))
    n_s = tiny_cfg.slots_per_episode

    def per_episode(n_ep):
        return {"draw_channel": n_ep, "rate_matrix": n_ep, "vector": n_ep,
                "sample_embb_arrivals": n_ep * tiny_cfg.num_embb,
                "sample_hrllc_arrivals": n_ep * n_s * tiny_cfg.num_hrllc}

    _train(tiny_cfg, "rr")
    assert calls == per_episode(tiny_cfg.episodes)
    calls.clear()
    run_evaluation(tiny_cfg, 5, [(build_policy(name, tiny_cfg, 5),
                                  lambda record: None) for name in POLICY_NAMES])
    assert calls == per_episode(tiny_cfg.eval_episodes)
    assert set(vars(_sim(tiny_cfg))) == {"cfg", "policy", "dual", "_episode"}


def test_each_world_is_freed_before_the_next_is_drawn(monkeypatch, tiny_cfg):
    """Training and evaluation drop an episode's world before the next
    episode's rates are drawn, so a run holds one world at a time."""
    earlier, alive = [], []

    def tracked(cfg, gain_sq):
        alive.append([ref() is not None for ref in earlier])
        rates = rate_matrix(cfg, gain_sq)
        earlier.extend((weakref.ref(gain_sq), weakref.ref(rates)))
        return rates

    monkeypatch.setattr(engine, "rate_matrix", tracked)
    for name in POLICY_NAMES:
        _train(tiny_cfg, name)
    run_evaluation(tiny_cfg, 5, [(build_policy(name, tiny_cfg, 5),
                                  lambda record: None) for name in POLICY_NAMES])
    assert len(alive) == 4 * tiny_cfg.episodes + tiny_cfg.eval_episodes
    assert not any(any(refs) for refs in alive)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_no_policy_writes_the_world(tiny_cfg, policy_name):
    """Every policy, training or frozen, runs an episode on world columns
    that raise on a write, as an evaluation that shares them needs; the
    record holds the world's chain states, DXI and arrivals."""
    world = next(_worlds(tiny_cfg))
    for column in world:
        column.flags.writeable = False
    for training in (True, False):
        policy = build_policy(policy_name, tiny_cfg, 3)
        policy.training = training
        slots = Simulation(tiny_cfg, policy).run_episode(world).slots
        for field, column in zip(("mmpp_states", "dxi", "arrivals"), world):
            assert np.array_equal(slots[field], column), field


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_observes_each_slot_as_recorded(policy_name):
    """A learner observes each slot's full row as recorded.  rr and pf do not
    read the queues, and the engine fills the queue fields only after the
    episode's decisions: they observe each slot's ``counts`` and ``rates``
    as recorded, and reading any other field of their row raises."""
    cfg = ScenarioConfig()
    sim = _sim(cfg, policy_name)
    policy, calls = sim.policy, []
    allocate, observe = policy.allocate, policy.observe
    hidden = set(slot_dtype(cfg).names) - {"counts", "rates"}

    def recording_allocate(ctx):
        calls.append("allocate")
        return allocate(ctx)

    def recording_observe(row):
        # the row's bytes as observe gets them, field by field
        calls.append({name: row[name].tobytes() for name in row.dtype.names})
        if not policy.reads_queues:
            for name in hidden:
                with pytest.raises((KeyError, ValueError)):
                    row[name]
        observe(row)

    policy.allocate, policy.observe = recording_allocate, recording_observe
    slots = sim.run_episode(next(_worlds(cfg))).slots
    assert len(calls) == 2 * cfg.slots_per_episode
    for i, row in enumerate(slots):
        assert calls[2 * i] == "allocate"
        seen = calls[2 * i + 1]
        if policy.reads_queues:
            assert {"rates", "reward", "drift_embb", "drift_hrllc",
                    "y_mean"} <= set(seen)
        else:
            assert set(seen) == {"counts", "rates"}
        assert seen == {name: row[name].tobytes() for name in seen}


@pytest.mark.parametrize("policy_name", ["rr", "pf"])
def test_queue_blind_policies_decide_without_work(policy_name):
    """rr and pf make the same decisions from contexts with and without
    ``work``, whatever the work, so the engine may leave it out."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(8)
    blind, shown = (build_policy(policy_name, cfg, 1) for _ in range(2))
    assert not blind.reads_queues
    for t in range(60):
        ctx = make_context(rng, cfg.num_embb, cfg.num_hrllc, cfg.num_prbs)
        ctx.work *= (0, 1, 10**6)[t % 3]
        alloc = shown.allocate(ctx)
        ctx_blind = dataclasses.replace(ctx, work=None)
        assert blind.allocate(ctx_blind).assignment.tobytes() == \
            alloc.assignment.tobytes()
        row = slot_row(cfg, counts=alloc.counts,
                       rates=all_user_rates(ctx.rate_matrix, alloc.assignment))
        shown.observe(row)
        blind.observe(row)


# --- the queue-blind episode pass against the per-slot loop -------------------

class SlotLoopRR(RoundRobinPolicy):
    reads_queues = True      # so the engine runs it slot by slot


class SlotLoopPF(ProportionalFairPolicy):
    reads_queues = True


BATCH_WORLDS = {
    "defaults": {},
    # NumPy sums 9 terms pairwise; PF's repair runs in most slots
    "9+9-users": {"num_embb": 9, "num_hrllc": 9, "num_prbs": 30},
    "zero-service": {"mean_snr_linear": 1e-15},
    # overloaded, with a surrogate far above chi_h: the dual climbs; the
    # arrivals' excess over service spans dozens of packets, some of whose
    # exponentials np.exp and math.exp round apart
    "dual-rises": {"total_bandwidth_hz": 3e6, "d_max_s": 2.0,
                   "lambda_slow": 15.0, "lambda_burst": 30.0,
                   "dual_step": 1.0},
    "1-slot": {"slots_per_episode": 1, "episodes": 4},
}


@pytest.mark.parametrize("training", [True, False], ids=["training", "frozen"])
@pytest.mark.parametrize("policy_name", ["rr", "pf"])
@pytest.mark.parametrize("world", sorted(BATCH_WORLDS))
def test_batch_pass_matches_slot_loop(world, policy_name, training):
    """The queue-blind episode (decisions, then one accounting pass) writes
    the slot tables, diagnostics and dual that the per-slot loop writes,
    byte for byte, episode after episode."""
    cfg = ScenarioConfig(**{"episodes": 3, "slots_per_episode": 50,
                            **BATCH_WORLDS[world]})
    loop = {"rr": SlotLoopRR(),
            "pf": SlotLoopPF(cfg.num_users)}[policy_name]
    sims = []
    for policy in (build_policy(policy_name, cfg, 1), loop):
        policy.training = training
        sims.append(Simulation(cfg, policy))
    for world in draw_worlds(cfg, 77, cfg.episodes):
        batch, slot_by_slot = (sim.run_episode(world) for sim in sims)
        assert batch.slots.tobytes() == slot_by_slot.slots.tobytes()
        assert batch.diagnostics == slot_by_slot.diagnostics
    assert sims[0].dual.value == sims[1].dual.value
    slots = batch.slots
    if world == "zero-service":
        assert not slots.departures.any()
    if world == "dual-rises":
        assert (np.diff(slots.dual) > 0).any() == training
        assert (slots.y_mean > cfg.chi_h).mean() > 0.5


def _lindley_off_by_one(arrivals, served):
    """``lindley_backlogs`` with the running minimum read one row ahead:
    backlogs that are never negative, but too large wherever the next slot
    drains the queue below every earlier slot."""
    net = np.cumsum(np.subtract(arrivals, served), axis=0)
    low = np.minimum.accumulate(net, axis=0)
    low[:-1] = low[1:].copy()
    return net - np.minimum(low, 0)


def test_batch_pass_backlogs_are_audited(monkeypatch):
    """Departures come from each slot's work and service, not from the
    backlogs, so backlogs from a wrong Lindley pass fail the conservation
    audit even where none is negative."""
    cfg = ScenarioConfig(episodes=1, slots_per_episode=50)
    wrong = []

    def off_by_one(arrivals, served):
        backlogs = _lindley_off_by_one(arrivals, served)
        wrong.append(backlogs.min() >= 0 and not np.array_equal(
            backlogs, lindley_backlogs(arrivals, served)))
        return backlogs

    _first_episode(cfg, "pf")
    monkeypatch.setattr(engine, "lindley_backlogs", off_by_one)
    with pytest.raises(AssertionError, match="conservation"):
        _first_episode(cfg, "pf")
    assert wrong == [True]


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_each_policy_runs_its_accounting_form(monkeypatch, policy_name):
    """Every policy's slots compute their rates one slot at a time; a policy
    that does not read the queues gets its service and cost in one pass over
    the episode, and one that does gets them slot by slot.  Both forms write
    the same table, so only the calls show which one ran."""
    cfg = ScenarioConfig(episodes=1, slots_per_episode=20)
    calls = {"all_user_rates": 0, "service_capacity": 0, "step_cost": 0}

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(engine, name, count(name, getattr(engine, name)))
    _first_episode(cfg, policy_name)
    n_s = cfg.slots_per_episode
    per_episode = {"a2c": n_s, "dqn": n_s, "rr": 1, "pf": 1}[policy_name]
    assert calls == {"all_user_rates": n_s, "service_capacity": per_episode,
                     "step_cost": per_episode}
