"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and prints
a single ``criterion N (...): PASS/FAIL`` line with the measured values.
The expensive training runs are session-scoped fixtures shared by several
criteria.  Run with ``-s`` (the repo default) to see the lines as they pass.
"""

import time

import numpy as np
import pytest

from slicesched.agents import a2c_heads, a2c_net
from slicesched.cli import main as cli_main
from slicesched.config import ScenarioConfig
from slicesched.constraint import DualVariable, surrogate_y
from slicesched.engine import (build_policy, run_evaluation, run_training,
                               step_response_summary, stepped_user_columns)
from slicesched.metrics import (SMOOTH_WINDOW, DexteritySensitivity,
                                Summarizer, moving_average,
                                spearman_rank_correlation, summarize)
from slicesched.net import Mlp, softmax
from slicesched.traffic import MmppChain, sample_hrllc_arrivals
from conftest import a2c_grad_rows, mean_rate, windowed_slope


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


# --- shared long runs -------------------------------------------------------

@pytest.fixture(scope="session")
def default_a2c():
    cfg = ScenarioConfig()
    t0 = time.time()
    records = []
    policy = run_training(cfg, "a2c", records.append)
    return cfg, records, policy, time.time() - t0


@pytest.fixture(scope="session")
def default_dqn():
    cfg = ScenarioConfig()
    records = []
    policy = run_training(cfg, "dqn", records.append)
    return cfg, records, policy


def _final_first_means(records):
    sm = moving_average([r.episodic_return for r in records], SMOOTH_WINDOW)
    k = max(len(sm) // 10, 1)
    return float(sm[:k].mean()), float(sm[-k:].mean()), sm


def _plateau_ratio(sm):
    slopes = windowed_slope(sm, 50)
    return float(abs(slopes[-1]) / np.abs(slopes).max())


# --- criterion 1: gradient oracle ------------------------------------------

def test_criterion_1_gradient_oracle():
    t0 = time.time()
    step = 1e-5
    worst = 0.0
    rng = np.random.default_rng(42)

    def numeric(net, loss):
        out = []
        for arr in net.params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + step
                hi = loss()
                arr[i] = orig - step
                lo = loss()
                arr[i] = orig
                g[i] = (hi - lo) / (2 * step)
                it.iternext()
            out.append(g)
        return np.concatenate([g.ravel() for g in out])

    # 24 random nets: tanh hidden layers, a linear output
    for _ in range(24):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)] + [3]
        net = Mlp(sizes, rng)
        x = rng.normal(size=(2, sizes[0]))
        w = rng.normal(size=3)

        def scalar_loss():
            out, _ = net.forward(x)
            return float(np.sum(np.tanh(out) @ w))

        out, trace = net.forward(x)
        dout = (1.0 - np.tanh(out) ** 2) * w
        analytic = np.empty(net.flat.size)
        net.backward(trace, dout, net.views(analytic))
        fd = numeric(net, scalar_loss)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(rel.max()))

    # composite actor-critic loss on the one actor-critic net
    cfg = ScenarioConfig(num_embb=1, num_hrllc=1, num_prbs=4,
                         trunk_hidden=(6,))
    n_kh = 3          # k_h in {1, 2, 3}
    for trial in range(4):
        net = a2c_net(cfg, 5, n_kh, rng)
        obs, nxt = rng.normal(size=5), rng.normal(size=5)
        actions, rew, gamma, beta = (1, 2), 0.7, 0.99, 0.01

        def value(x):
            return a2c_heads(net, n_kh, x)[2]

        delta = rew + gamma * value(nxt) - value(obs)
        target = rew + gamma * value(nxt)

        def actor_loss():
            lh, le, _, _ = a2c_heads(net, n_kh, obs)
            ph, pe = softmax(lh), softmax(le)
            ent = (-np.sum(ph * np.log(ph + 1e-300))
                   - np.sum(pe * np.log(pe + 1e-300)))
            return float(-delta * (np.log(ph[actions[0]] + 1e-300)
                                   + np.log(pe[actions[1]] + 1e-300))
                         - beta * ent)

        def critic_loss():
            d = target - value(obs)
            return float(d * d)

        (ga, gc), _ = a2c_grad_rows(net, n_kh, obs, actions, rew, nxt,
                                    gamma, beta)
        for loss, fa in ((actor_loss, ga), (critic_loss, gc)):
            fd = numeric(net, loss)
            rel = np.abs(fa - fd) / np.maximum(np.abs(fd), 1e-4)
            worst = max(worst, float(rel.max()))

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    assert _report(1, "gradient oracle",
                   ok, f"max rel err {worst:.2e}, {elapsed:.1f}s, 28 nets")


# --- criterion 2: MMPP statistics ------------------------------------------

def test_criterion_2_mmpp_statistics():
    # a 1 s slot keeps the exact-exponential discretization while giving the
    # chain a short mixing time, so 1e6 slots pin the occupancy tightly
    cfg = ScenarioConfig()
    chain = MmppChain(alpha=0.2, beta=0.2,
                      lambda_by_state=(cfg.lambda_slow, cfg.lambda_burst),
                      slot_duration_s=1.0)
    n = 10 ** 6
    # the engine's per-slot path: step the chain, then draw the slot's
    # arrivals (no dexterity reduction), both from the one stream
    rng = np.random.default_rng(2024)
    slots_in_one = arrivals = 0
    for _ in range(n):
        slots_in_one += chain.step(rng) == 1
        arrivals += sample_hrllc_arrivals(chain, 0.0, 0.0, rng)
    occupancy = slots_in_one / n
    arrival_mean = arrivals / n
    expected = mean_rate(chain.alpha, chain.beta, *chain.lambda_by_state)
    mean_err = abs(arrival_mean - expected) / expected
    ok = abs(occupancy - 0.5) <= 0.02 and mean_err <= 0.02
    assert _report(2, "MMPP statistics", ok,
                   f"occupancy {occupancy:.4f} (target 0.5±0.02), "
                   f"arrival mean {arrival_mean:.4f} vs {expected:.1f} "
                   f"({100 * mean_err:.2f}%)")


# --- criterion 3: feasibility invariants -----------------------------------

def _check_feasibility(records, cfg):
    for rec in records:
        cum = np.zeros(cfg.num_users, dtype=np.int64)
        for s in rec.slots:
            assert s.counts.sum() == cfg.num_prbs
            assert s.counts.min() >= 1
            cum += s.arrivals - s.departures.astype(np.int64)
        assert np.array_equal(cum, rec.slots[-1].backlogs)


def test_criterion_3_feasibility(default_a2c, default_dqn):
    cfg, records, policy, _ = default_a2c
    _check_feasibility(records, cfg)
    _check_feasibility(default_dqn[1], cfg)
    ev = []
    run_evaluation(cfg, 7, [(build_policy("rr", cfg, cfg.master_seed),
                             ev.append)])
    _check_feasibility(ev, cfg)
    n_slots = sum(len(r.slots) for r in records) \
        + sum(len(r.slots) for r in default_dqn[1]) \
        + sum(len(r.slots) for r in ev)
    assert _report(3, "feasibility invariants", True,
                   f"sum=K, min>=1 and exact conservation over "
                   f"{n_slots} slots")


# --- criterion 4: learning progress ----------------------------------------

def test_criterion_4_learning_progress(default_a2c):
    cfg, records, _, elapsed = default_a2c
    first, final, sm = _final_first_means(records)
    ratio = _plateau_ratio(sm)
    ok = final > first and ratio < 0.1 and elapsed < 600.0
    assert _report(4, "learning progress", ok,
                   f"first10% {first:.1f} < final10% {final:.1f}, "
                   f"plateau ratio {ratio:.4f} < 0.1, train {elapsed:.0f}s")


# --- criterion 5: stability -------------------------------------------------

def test_criterion_5_stability(default_a2c):
    cfg, records, _, _ = default_a2c
    summ = summarize(records, cfg)
    details, ok = [], True
    for name, queue, drift in (
            ("embb", summ.mean_queue_embb, summ.mean_drift_embb),
            ("hrllc", summ.mean_queue_hrllc, summ.mean_drift_hrllc)):
        win = moving_average(queue, 20)
        tail = win[len(win) - len(win) // 3:]
        slope = np.polyfit(np.arange(len(tail)), tail, 1)[0]
        net_change = slope * (len(tail) - 1)
        band = 0.1 * float(win.max())
        q_ok = net_change <= band
        d = np.abs(drift)
        d_tail = d[len(d) - len(d) // 3:]
        d_ok = d_tail.mean() < 0.25 * d.max()
        ok = ok and q_ok and d_ok
        details.append(f"{name}: queue trend {net_change:+.3f} <= {band:.3f}, "
                       f"final-third |drift| {d_tail.mean():.3f} < "
                       f"{0.25 * d.max():.3f}")
    assert _report(5, "stability", ok, "; ".join(details))


# --- criterion 6: reliability comparison -----------------------------------

def test_criterion_6_reliability(default_a2c):
    cfg, _, policy, _ = default_a2c
    wins, details = 0, []
    for seed in (101, 102, 103, 104, 105):
        pols = {"a2c": policy, "rr": build_policy("rr", cfg, cfg.master_seed),
                "pf": build_policy("pf", cfg, cfg.master_seed)}
        summarizers = {name: Summarizer(cfg) for name in pols}
        run_evaluation(cfg, seed, [(pol, summarizers[name].add)
                                   for name, pol in pols.items()])
        rels = {name: s.summary().reliability_at_dmax
                for name, s in summarizers.items()}
        good = (rels["a2c"] >= rels["rr"] and rels["a2c"] >= rels["pf"]
                and rels["a2c"] >= 0.95)
        wins += good
        details.append(f"seed {seed}: a2c {rels['a2c']:.3f} "
                       f"rr {rels['rr']:.3f} pf {rels['pf']:.3f}")
    ok = wins >= 4
    assert _report(6, "reliability comparison", ok,
                   f"{wins}/5 seeds; " + "; ".join(details))


# --- criterion 7: dexterity step response ----------------------------------

def test_criterion_7_step_response():
    # fast-switching chain so each pre/post window sees both traffic states
    cfg = ScenarioConfig(dxi_levels=(0.0, 2.5, 2.5),
                         dxi_middle=(5.0, 2.5, 2.5),
                         mmpp_alpha=200.0, mmpp_beta=200.0,
                         beta_dex=0.4, episodes=150)
    parts = []
    run_training(cfg, "a2c",
                 lambda record: parts.append(stepped_user_columns(record, cfg)))
    s = step_response_summary(np.concatenate(parts), cfg)
    expected = cfg.beta_dex * (cfg.dxi_middle[0] - cfg.dxi_levels[0])
    da = (s["after_step_a"]["mean_arrivals"]
          - s["before_step_a"]["mean_arrivals"])
    db = (s["after_step_b"]["mean_arrivals"]
          - s["before_step_b"]["mean_arrivals"])
    pa = s["after_step_a"]["mean_prbs"] - s["before_step_a"]["mean_prbs"]
    pb = s["after_step_b"]["mean_prbs"] - s["before_step_b"]["mean_prbs"]
    arr_ok = (abs(da + expected) <= 0.1 * expected
              and abs(db - expected) <= 0.1 * expected)
    prb_ok = np.sign(pa) == np.sign(da) and np.sign(pb) == np.sign(db)
    ok = arr_ok and prb_ok
    assert _report(7, "dexterity step response", ok,
                   f"arrival deltas {da:+.3f}/{db:+.3f} vs ±{expected:.1f} "
                   f"(10% tol); PRB deltas {pa:+.3f}/{pb:+.3f} same sign")


# --- criterion 8: dexterity sensitivity ------------------------------------

def test_criterion_8_dexterity_sensitivity():
    cfg = ScenarioConfig(num_hrllc=5,
                         dxi_levels=(0.0, 2.5, 5.0, 7.5, 10.0),
                         lambda_embb=1.0, episodes=240)
    steady = DexteritySensitivity(cfg, cfg.episodes // 2)  # the final half
    run_training(cfg, "a2c", steady.add)
    table = steady.table()
    corr = table["rank_correlation_dxi_prbs"]
    ratios = [row["mean_departures"] / max(row["mean_arrivals"], 1e-9)
              for row in table["rows"]]
    serve_ok = all(abs(r - 1.0) <= 0.15 for r in ratios)
    ok = corr <= -0.7 and serve_ok
    assert _report(8, "dexterity sensitivity", ok,
                   f"rank corr {corr:.3f} <= -0.7; dep/arr ratios "
                   + ", ".join(f"{r:.3f}" for r in ratios))


# --- criterion 9: DRL comparison -------------------------------------------

def test_criterion_9_drl_comparison(default_a2c, default_dqn):
    cfg, a2c_records, _, _ = default_a2c
    _, dqn_records, _ = default_dqn
    _, a2c_final, _ = _final_first_means(a2c_records)
    dqn_first, dqn_final, dqn_sm = _final_first_means(dqn_records)
    dqn_ratio = _plateau_ratio(dqn_sm)
    dqn_plateau_fails = not (dqn_final > dqn_first and dqn_ratio < 0.1)
    ok = a2c_final > dqn_final or dqn_plateau_fails
    assert _report(9, "DRL comparison", ok,
                   f"recorded: a2c final10% {a2c_final:.2f}, dqn final10% "
                   f"{dqn_final:.2f}, dqn plateau ratio {dqn_ratio:.4f} "
                   f"(dqn {'fails' if dqn_plateau_fails else 'passes'} "
                   f"plateau)")


# --- criterion 10: determinism ---------------------------------------------

def test_criterion_10_determinism(tmp_path):
    args = ["--set", "episodes=3", "--set", "slots_per_episode=40",
            "--set", "eval_episodes=2"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--agent", "a2c",
                         "--out", str(out), *args]) == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in csvs)
    assert _report(10, "determinism", same,
                   f"byte-identical rerun of {', '.join(csvs)}")


# --- criterion 11: surrogate unit properties -------------------------------

def test_criterion_11_surrogate_properties():
    cfg = ScenarioConfig()
    exact = all(
        surrogate_y(a, a, cfg.packet_size_bits, cfg.d_max_s, cfg.d_proc_s,
                    cfg.chi_h) == cfg.chi_h
        for a in (0.0, 1.0, 7.0, 123.0))
    gaps = np.linspace(-40.0, 40.0, 401)
    ys = [surrogate_y(g, 0.0, cfg.packet_size_bits, cfg.d_max_s,
                      cfg.d_proc_s, cfg.chi_h) for g in gaps]
    monotone = bool(np.all(np.diff(ys) > 0))
    rng = np.random.default_rng(11)
    never_negative = True
    for _ in range(10):
        dual = DualVariable(value=float(rng.uniform(0, 2)),
                            step=float(rng.uniform(0.001, 0.5)))
        for y in rng.uniform(-5.0, 5.0, 10 ** 4):
            if dual.update(float(y)) < 0.0:
                never_negative = False
    ok = exact and monotone and never_negative
    assert _report(11, "surrogate properties", ok,
                   f"y(A=r)=chi_h exact: {exact}; strictly monotone in A-r: "
                   f"{monotone}; dual >= 0 over 1e5 updates: {never_negative}")
