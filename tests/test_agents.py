import copy
import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from slicesched import agents
from slicesched.agents import (EPS_COST, L_REF, OBS_CLIP, Q_REF, R_REF_BPS,
                               TEMPLATES, Y_CLIP, A2CAgent, DqnAgent,
                               a2c_grads, a2c_heads, a2c_net, decode_action,
                               encode_observation, obs_length, reward,
                               step_cost)
from slicesched.config import ScenarioConfig
from slicesched.engine import Simulation, draw_worlds
from slicesched.net import Mlp, save_arrays, softmax
from conftest import (a2c_grad_rows, make_context, save_split_a2c_checkpoint,
                      slot_row)


def test_action_space_defaults():
    cfg = ScenarioConfig()
    assert A2CAgent(cfg, np.random.default_rng(0)).n_kh == 19
    assert DqnAgent(cfg, np.random.default_rng(0)).n_joint == 57
    assert len(TEMPLATES) == 3


def test_learner_constants_meet_the_former_config_checks():
    assert 0.0 < agents.GAMMA < 1.0
    for lr in (agents.LR_ACTOR, agents.LR_CRITIC):
        assert math.isfinite(lr) and lr > 0.0
    assert agents.TRUNK_HIDDEN and all(
        isinstance(h, int) and h > 0 for h in agents.TRUNK_HIDDEN)


def test_action_space_index_round_trip():
    cfg = ScenarioConfig()
    agent = DqnAgent(cfg, np.random.default_rng(0))
    agent.training = False  # epsilon path disabled
    ctx = make_context(np.random.default_rng(1))
    # joint indices run over templates fastest, then PRB splits
    for joint in range(agent.n_joint):
        params = [np.zeros_like(p) for p in agent.net.params]
        params[-1][joint] = 100.0
        agent.net.set_params(params)
        expected = decode_action(joint // 3, joint % 3, ctx)
        assert np.array_equal(agent.allocate(ctx).assignment,
                              expected.assignment)


def test_obs_length_formula():
    cfg = ScenarioConfig()
    # 3 per eMBB user + slice drift + 3 per HRLLC user + slice drift
    # + violation signal + one DXI entry per HRLLC user
    assert obs_length(cfg) == 3 * 4 + 1 + 3 * 3 + 1 + 1 + 3 == 27
    small = dataclasses.replace(cfg, num_embb=2, num_hrllc=2, num_prbs=10)
    assert obs_length(small) == 6 + 1 + 6 + 1 + 1 + 2


def _empty_context(cfg):
    ctx = make_context(np.random.default_rng(0), cfg.num_embb, cfg.num_hrllc,
                       cfg.num_prbs)
    ctx.work = np.zeros(cfg.num_users, dtype=int)
    ctx.gain_sq = np.zeros((cfg.num_users, cfg.num_prbs))
    ctx.dxi = np.array([1.0, 2.0, 3.0])
    return ctx


def test_encode_empty_system_is_zero_except_dxi():
    cfg = ScenarioConfig()
    obs = encode_observation(_empty_context(cfg), slot_row(cfg), cfg)
    assert obs.shape == (obs_length(cfg),)
    assert np.array_equal(obs[-cfg.num_hrllc:], [1.0, 2.0, 3.0])
    assert np.all(obs[:-cfg.num_hrllc] == 0.0)


def test_encode_queue_features_scale_linearly():
    cfg = ScenarioConfig()
    ctx = _empty_context(cfg)
    ctx.work = np.array([10, 0, 0, 0, 0, 0, 0])
    one = encode_observation(ctx, slot_row(cfg), cfg)
    ctx.work = np.array([20, 0, 0, 0, 0, 0, 0])
    two = encode_observation(ctx, slot_row(cfg), cfg)
    assert two[0] == pytest.approx(2 * one[0])


def test_encode_clips_extremes():
    cfg = ScenarioConfig()
    ctx = _empty_context(cfg)
    ctx.work = np.array([10**9, 0, 0, 0, 0, 0, 0])
    obs = encode_observation(ctx, slot_row(cfg, drift_hrllc=-1e12), cfg)
    assert obs.max() <= OBS_CLIP and obs.min() >= -OBS_CLIP


def _encode_oracle(ctx, prev, cfg):
    """``encode_observation`` as one NumPy concatenate and clip."""
    n_e = cfg.num_embb
    queue = ctx.work / Q_REF
    mean_gain = ctx.gain_sq.mean(axis=1)
    rates = prev["rates"] / R_REF_BPS
    feats = np.concatenate([
        queue[:n_e], mean_gain[:n_e], rates[:n_e], [prev["drift_embb"] / L_REF],
        queue[n_e:], mean_gain[n_e:], rates[n_e:], [prev["drift_hrllc"] / L_REF],
        [np.clip(prev["y_mean"], -1.0, Y_CLIP)], ctx.dxi])
    return np.clip(feats, -OBS_CLIP, OBS_CLIP)


def test_encode_observation_matches_numpy_oracle():
    """Byte for byte, clipped features, signed zeros and a NaN included."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(24)
    for i in range(2000):
        ctx = make_context(rng)
        ctx.work = ctx.work * int(rng.choice([0, 1, 100]))
        ctx.gain_sq = ctx.gain_sq * rng.choice([0.0, 1.0, 1e4])
        prev = slot_row(cfg, rates=rng.exponential(1e7, cfg.num_users)
                        * rng.choice([0.0, 1.0, 100.0]))
        for name in ("drift_embb", "drift_hrllc", "y_mean"):
            prev[name] = rng.choice([0.0, -0.0, np.nan, rng.normal(scale=5e3),
                                     rng.normal(scale=2.0)])
        want = _encode_oracle(ctx, prev, cfg)
        got = encode_observation(ctx, prev, cfg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i


def test_learner_encodes_the_previous_row(monkeypatch):
    """Each slot's observation encodes the row the learner last observed:
    zeros at an episode's first slot, then row i - 1's rates, drifts and
    violation signal.  Each update learns from its own slot's row: its
    ``reward`` times ``REWARD_SCALE``, the value the DQN ring stores too."""
    cfg = ScenarioConfig(slots_per_episode=6)
    agent = A2CAgent(cfg, np.random.default_rng(3))
    observations, learned = [], []

    def recording_encode(*args):
        observations.append(encode_observation(*args))
        return observations[-1]

    def recording_grads(net, heads, actions, rew, *args):
        learned.append(rew)
        return a2c_grads(net, heads, actions, rew, *args)

    monkeypatch.setattr(agents, "encode_observation", recording_encode)
    monkeypatch.setattr(agents, "a2c_grads", recording_grads)
    sim = Simulation(cfg, agent)
    slots = np.concatenate([sim.run_episode(world).slots
                            for world in draw_worlds(cfg, 4, 2)])
    assert np.any(slots["reward"] != 0.0)
    assert learned == (slots["reward"] * agents.REWARD_SCALE).tolist()
    assert len(observations) == len(slots)
    n_e, n_h = cfg.num_embb, cfg.num_hrllc
    h = 3 * n_e + 1                       # start of the HRLLC block
    for t, obs in enumerate(observations):
        first = t % cfg.slots_per_episode == 0
        prev = slot_row(cfg) if first else slots[t - 1]
        want = np.clip([*prev["rates"][:n_e] / R_REF_BPS,
                        prev["drift_embb"] / L_REF,
                        *prev["rates"][n_e:] / R_REF_BPS,
                        prev["drift_hrllc"] / L_REF,
                        np.clip(prev["y_mean"], -1.0, Y_CLIP)],
                       -OBS_CLIP, OBS_CLIP)
        got = np.r_[obs[2 * n_e:h], obs[h + 2 * n_h:h + 3 * n_h + 2]]
        assert got.tobytes() == want.tobytes(), t
        assert first or np.any(got != 0.0)


def test_decode_action_extreme_slices():
    cfg = ScenarioConfig()
    ctx = make_context(np.random.default_rng(1))
    low = decode_action(0, 0, ctx)            # k_h = 3
    assert low.counts[cfg.num_embb:].tolist() == [1, 1, 1]
    high = decode_action(18, 0, ctx)          # k_h = 21
    assert high.counts[:cfg.num_embb].tolist() == [1, 1, 1, 1]


def test_decode_action_exhaustive_feasibility():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(2)
    for trial in range(5):
        ctx = make_context(rng)
        for kh_idx in range(19):
            for t_idx in range(3):
                alloc = decode_action(kh_idx, t_idx, ctx)
                alloc.validate(cfg.num_prbs, cfg.num_users)
                assert alloc.counts[cfg.num_embb:].sum() == 3 + kh_idx


def test_step_cost_reference():
    # eMBB users first: 1 Mbit/s HRLLC, 2 Mbit/s eMBB
    assert step_cost([2e6, 1e6], 1) == pytest.approx(1.25, rel=1e-6)
    assert step_cost([0.0, 0.0], 1) == pytest.approx(2.0 / EPS_COST)


def test_step_cost_monotone():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.uniform(0.5e6, 5e6, 4)
        base = step_cost(r, 2)
        bumped = r.copy()
        bumped[3] *= 1.5
        assert step_cost(bumped, 2) < base


def _step_cost_oracle(rates_hrllc, rates_embb):
    """The NumPy body that ``step_cost`` replaced."""
    rh = np.asarray(rates_hrllc, dtype=float) / 1e6
    re = np.asarray(rates_embb, dtype=float) / 1e6
    return float(np.sum(1.0 / (rh * rh + EPS_COST))
                 + np.sum(1.0 / (re * re + EPS_COST)))


def test_step_cost_matches_numpy_oracle():
    rng = np.random.default_rng(15)
    for _ in range(5000):
        n_h, n_e = rng.integers(1, 13, 2)
        rates = rng.uniform(0.0, 3e7, n_h + n_e)
        rates[rng.random(rates.size) < 0.1] = 0.0    # users left unserved
        got = step_cost(rates, n_e)
        assert type(got) is float
        assert got == _step_cost_oracle(rates[n_e:], rates[:n_e])


def test_step_cost_of_a_block_matches_each_slot():
    """A (slots, users) block of rates gives each slot's cost as the one-slot
    call does, also with 9 users a slice, where NumPy sums pairwise."""
    rng = np.random.default_rng(16)
    for n_e, n_h in ((4, 3), (9, 9), (12, 1)):
        rates = rng.uniform(0.0, 3e7, (50, n_e + n_h))
        rates[rng.random(rates.shape) < 0.1] = 0.0
        assert step_cost(rates, n_e) == [step_cost(r, n_e) for r in rates]


def test_reward_reference():
    assert reward(-4.5, 1.25, 1.0, 0.0, 0.5) == pytest.approx(3.25)
    # inactive constraint: negative violation contributes nothing
    assert reward(1.0, 2.0, 1.0, 5.0, -0.3) == pytest.approx(-3.0)
    # growing dual with positive violation strictly decreases the reward
    assert reward(0.0, 0.0, 1.0, 2.0, 0.5) < reward(0.0, 0.0, 1.0, 1.0, 0.5)


def test_reward_translation_consistent():
    base = reward(1.0, 2.0, 3.0, 0.5, 0.1)
    assert reward(1.0 + 7.0, 2.0, 3.0, 0.5, 0.1) == pytest.approx(base - 7.0)


def test_a2c_gradients_match_finite_differences(monkeypatch):
    """Composite actor+critic gradients against central differences with the
    bootstrapped target and advantage held constant (semi-gradient)."""
    monkeypatch.setattr(agents, "TRUNK_HIDDEN", (6,))
    n_kh = 3          # one user per slice on 4 PRBs: k_h in {1, 2, 3}
    obs_dim = 5
    rng = np.random.default_rng(5)
    net = a2c_net(obs_dim, n_kh, rng)
    obs = rng.normal(size=obs_dim)
    next_obs = rng.normal(size=obs_dim)
    actions = (1, 2)
    rew, gamma, beta = 0.7, 0.99, 0.01

    def value(x):
        return a2c_heads(net, n_kh, x)[2]

    delta = rew + gamma * value(next_obs) - value(obs)
    target = rew + gamma * value(next_obs)

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

    (grads_a, grads_c), diag = a2c_grad_rows(net, n_kh, obs, actions, rew,
                                             next_obs, gamma, beta)
    assert diag["delta"] == pytest.approx(delta)

    step = 1e-6
    for which, scalar_loss, analytic in (("actor", actor_loss, grads_a),
                                         ("critic", critic_loss, grads_c)):
        flat_analytic = analytic
        numeric = []
        for arr in net.params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                hi = scalar_loss()
                arr[idx] = orig - step
                lo = scalar_loss()
                arr[idx] = orig
                g[idx] = (hi - lo) / (2 * step)
                it.iternext()
            numeric.append(g)
        flat_numeric = np.concatenate([g.ravel() for g in numeric])
        denom = np.maximum(np.abs(flat_numeric), 1e-5)
        assert np.max(np.abs(flat_analytic - flat_numeric) / denom) < 1e-3


def test_a2c_grads_terminal_delta(monkeypatch):
    monkeypatch.setattr(agents, "TRUNK_HIDDEN", (6,))
    n_kh = 3          # one user per slice on 4 PRBs: k_h in {1, 2, 3}
    net = a2c_net(5, n_kh, np.random.default_rng(6))
    net.set_params([np.zeros_like(p) for p in net.params])
    _, diag = a2c_grad_rows(net, n_kh, np.zeros(5), (0, 0), 1.0, None, 0.99,
                            0.0)
    assert diag["delta"] == pytest.approx(1.0)   # V(s)=0, terminal bootstrap 0


def test_a2c_agent_eval_mode_is_deterministic():
    cfg = ScenarioConfig()
    agent = A2CAgent(cfg, np.random.default_rng(7))
    agent.training = False
    ctx = make_context(np.random.default_rng(8))
    a = agent.allocate(ctx)
    b = agent.allocate(ctx)
    assert np.array_equal(a.counts, b.counts)


def test_a2c_checkpoint_round_trip(tmp_path):
    cfg = ScenarioConfig()
    agent = A2CAgent(cfg, np.random.default_rng(9))
    path = tmp_path / "a2c.bin"
    agent.save(path)
    other = A2CAgent(cfg, np.random.default_rng(10))
    other.load(path)
    for a, b in zip(agent.net.params, other.net.params):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["a2c", "dqn"])
def test_checkpoint_in_older_format_loads_bit_exactly(kind, tmp_path):
    """Checkpoints that also record their shapes in the metadata (and, for
    a2c, the one-trunk flag) load: extra metadata keys are ignored."""
    cfg = ScenarioConfig()
    agent = {"a2c": A2CAgent, "dqn": DqnAgent}[kind](cfg, np.random.default_rng(19))
    shapes = ({"shared": True, "n_kh": agent.n_kh} if kind == "a2c"
              else {"n_joint": agent.n_joint})
    path = tmp_path / f"{kind}.bin"
    save_arrays(path, agent.net.params,
                {"kind": kind, "obs_dim": agent.obs_dim, **shapes})
    other = type(agent)(cfg, np.random.default_rng(20))
    other.load(path)
    for a, b in zip(agent.net.params, other.net.params):
        assert a.tobytes() == b.tobytes()
    if kind == "dqn":
        assert other.target.flat.tobytes() == agent.net.flat.tobytes()


def test_a2c_checkpoint_split_nets_rejected(tmp_path):
    agent = A2CAgent(ScenarioConfig(), np.random.default_rng(18))
    path = tmp_path / "a2c.bin"
    save_split_a2c_checkpoint(path, agent)
    before = agent.net.flat.copy()
    with pytest.raises(ValueError, match="parameter shapes .* do not match net"):
        agent.load(path)
    assert np.array_equal(agent.net.flat, before)


def test_a2c_checkpoint_scenario_mismatch(tmp_path):
    agent = A2CAgent(ScenarioConfig(), np.random.default_rng(11))
    path = tmp_path / "a2c.bin"
    agent.save(path)
    smaller = ScenarioConfig(num_embb=2)
    with pytest.raises(ValueError, match="parameter shapes .* do not match net"):
        A2CAgent(smaller, np.random.default_rng(12)).load(path)


def test_dqn_checkpoint_kind_mismatch(tmp_path):
    cfg = ScenarioConfig()
    a2c = A2CAgent(cfg, np.random.default_rng(13))
    path = tmp_path / "a2c.bin"
    a2c.save(path)
    with pytest.raises(ValueError, match="dqn"):
        DqnAgent(cfg, np.random.default_rng(14)).load(path)


def test_dqn_epsilon_schedule():
    agent = DqnAgent(ScenarioConfig(), np.random.default_rng(15))
    start, end = agents.DQN_EPS_START, agents.DQN_EPS_END
    assert agent.epsilon == pytest.approx(start)
    agent.count = agents.DQN_EPS_DECAY_SLOTS
    assert agent.epsilon == pytest.approx(end)
    agent.count = agents.DQN_EPS_DECAY_SLOTS * 10
    assert agent.epsilon == pytest.approx(end)
    agent.count = agents.DQN_EPS_DECAY_SLOTS // 2
    assert agent.epsilon == pytest.approx((start + end) / 2)


def test_dqn_greedy_action_follows_q_values():
    cfg = ScenarioConfig()
    agent = DqnAgent(cfg, np.random.default_rng(16))
    agent.training = False  # epsilon path disabled
    # bias the last layer so one joint action dominates
    params = [np.zeros_like(p) for p in agent.net.params]
    joint = 17
    params[-1][joint] = 100.0
    agent.net.set_params(params)
    ctx = make_context(np.random.default_rng(17))
    alloc = agent.allocate(ctx)
    assert alloc.counts[cfg.num_embb:].sum() == cfg.num_hrllc + joint // 3


class _RecordingRng:
    """A generator that keeps the population size each ``choice`` call is
    given and the indices it returns."""

    def __init__(self, rng):
        self._rng = rng
        self.populations, self.picks = [], []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, population, *args, **kwargs):
        idx = self._rng.choice(population, *args, **kwargs)
        self.populations.append(population)
        self.picks.append(idx)
        return idx


def test_dqn_replay_ring_samples_the_kept_transitions(monkeypatch):
    """Replay index i is the i-th oldest of the last ``capacity`` stored
    transitions, across two wraps of the ring and an episode boundary, each
    record holds its slot's reward, action and end flag, and the row after
    it holds its next observation."""
    cap, slots = 5, 7
    cfg = ScenarioConfig(dqn_replay_capacity=cap, dqn_batch_size=2)
    agent = DqnAgent(cfg, np.random.default_rng(18))
    agent.rng = rng = _RecordingRng(agent.rng)
    kept = deque(maxlen=cap)        # the oracle: the last cap observations
    expected, fed, rows = [], [], []
    observations, joints = [], []   # every slot's, in decision order
    learn, forward = agent._learn, agent.net.forward

    def recording_encode(*args):
        observations.append(encode_observation(*args))
        return observations[-1]

    def recording_decode(kh_idx, template_idx, ctx):
        joints.append(kh_idx * len(TEMPLATES) + template_idx)
        return decode_action(kh_idx, template_idx, ctx)

    def recording_learn(next_obs):
        kept.append(agent._pending[0].copy())
        picked = len(rng.picks)
        # this transition's slot, counted from the first one stored
        slot = agent.count
        last = slot % slots == slots - 1
        learn(next_obs)
        n = len(agent.replay)
        newest = agent.replay[(agent.count - 1) % n]
        # the transition's reward: its slot row's, the last one observed
        assert newest["rew"] == rows[-1]["reward"] * agents.REWARD_SCALE
        # the next slot's observation, or its own at an episode's end, in
        # the obs of the row after it
        assert agent.replay["obs"][agent.count % n].tobytes() == \
            observations[slot if last else slot + 1].tobytes()
        assert newest["done"] == (1.0 if last else 0.0)
        assert newest["act"] == joints[slot]
        for idx in rng.picks[picked:]:
            expected.append(np.array([kept[i] for i in idx]))

    def recording_forward(x):
        if np.ndim(x) == 2:         # a replay batch, not a decision
            fed.append(np.array(x))
        return forward(x)

    monkeypatch.setattr(agents, "encode_observation", recording_encode)
    monkeypatch.setattr(agents, "decode_action", recording_decode)
    agent._learn = recording_learn
    agent.net.forward = recording_forward
    ctx_rng = np.random.default_rng(19)
    stored = 0
    for episode in range(2):
        for slot in range(slots):
            agent.allocate(make_context(ctx_rng))
            rows.append(slot_row(cfg, reward=-float(slot)))
            agent.observe(rows[-1])
        agent.end_episode()
        stored += slots
    assert stored >= 13 > 2 * cap
    # an update follows every store once the ring holds a batch
    assert len(expected) == len(fed) == stored - 1
    for want, got in zip(expected, fed):
        assert got.tobytes() == want.tobytes()


def test_dqn_terminal_target_is_its_reward_and_the_row_ahead_is_unsampled():
    """A terminal transition's TD target equals its reward bit for bit,
    both while the row after it holds the transition's own observation and
    after the next episode's first store overwrites that row; and the row
    written ahead, count % n, is never sampled, across wraps of the ring."""
    cfg = ScenarioConfig(dqn_replay_capacity=6, dqn_batch_size=3,
                         slots_per_episode=5)
    agent = DqnAgent(cfg, np.random.default_rng(41))
    agent.rng = rng = _RecordingRng(agent.rng)
    n = len(agent.replay)
    learn, update = agent._learn, agent._update
    terminals, checked = [], []

    def td_target(row):
        q_next, _ = agent.target.forward(agent.replay["obs"][(row + 1) % n])
        return (agent.replay["rew"][[row]] + agents.GAMMA
                * (1.0 - agent.replay["done"][[row]]) * q_next.max(axis=1))

    def assert_target_is_reward(row):
        rew = agent.replay["rew"][row]
        assert agent.replay["done"][row] == 1.0 and rew != 0.0
        assert td_target(row).tobytes() == np.array([rew]).tobytes()

    def checked_learn(next_obs):
        obs = agent._pending[0].copy()
        learn(next_obs)
        if terminals and terminals[-1] == (agent.count - 2) % n:
            # the next episode's first store, into the row after the terminal
            assert agent.replay["obs"][(terminals[-1] + 1) % n].tobytes() == \
                obs.tobytes()
            assert_target_is_reward(terminals[-1])
            checked.append(terminals[-1])
        if next_obs is None:
            terminals.append((agent.count - 1) % n)
            # the row after it holds the transition's own observation
            assert agent.replay["obs"][agent.count % n].tobytes() == \
                obs.tobytes()
            assert_target_is_reward(terminals[-1])

    def checked_update():
        update()
        # the rows the update sampled, from the window it drew them in
        stored, idx = rng.populations[-1], rng.picks[-1]
        assert agent.count % n not in (agent.count - stored + idx) % n

    agent._learn, agent._update = checked_learn, checked_update
    _run(cfg, agent, 4)
    assert agent.count == 4 * cfg.slots_per_episode > 2 * n
    assert len(terminals) == 4 and len(checked) == 3


def test_dqn_replay_stays_below_the_huge_page_threshold():
    """NumPy advises huge pages for allocations of 4 MiB or more, and a short
    run that touched part of such a ring could then hold a whole 2 MiB page
    of it; at the defaults the ring is 10 001 records of 240 B."""
    agent = DqnAgent(ScenarioConfig(), np.random.default_rng(0))
    assert agent.replay.dtype.names == ("obs", "act", "rew", "done")
    assert len(agent.replay) == ScenarioConfig().dqn_replay_capacity + 1
    assert agent.replay.nbytes == 2400240 < 1 << 22


# --- the learners against their list-based form -----------------------------
# Before the learners kept their gradients in one buffer of rows, backward
# returned a fresh array per parameter, each gradient list was clipped on its
# own, and A2C stepped its net with two single-row optimizers, the actor's
# first.  These are that code, kept as the oracle for the buffer form.

def _list_backward(net, trace, dout):
    dout = np.atleast_2d(np.asarray(dout, dtype=float))
    grads = [None] * (2 * len(net.weights))
    delta = dout
    for layer in reversed(range(len(net.weights))):
        inp = trace[layer]
        grads[2 * layer] = inp.T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (1.0 - inp * inp)
    return grads


def _list_clip(grads, max_norm):
    """The clipped list and whether it was clipped."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total <= max_norm:
        return grads, False
    scale = max_norm / total
    return [g * scale for g in grads], True


class _RowAdam:
    """A single-row optimizer over a flat buffer, stepped from a gradient
    list: its float operations, on fresh arrays."""

    def __init__(self, flat):
        self.flat = flat
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, grads, lr):
        g = np.concatenate([a.ravel() for a in grads])
        self.t += 1
        bc1 = 1.0 - 0.9 ** self.t
        bc2 = 1.0 - 0.999 ** self.t
        self.m = 0.9 * self.m + (1.0 - 0.9) * g
        self.v = 0.999 * self.v + ((1.0 - 0.999) * g) * g
        self.flat -= (lr * (self.m / bc1)) / (np.sqrt(self.v / bc2) + 1e-8)


def _list_a2c_grads(net, n_kh, obs, actions, rew, next_obs, gamma, beta):
    """Actor and critic gradient lists, each head's softmax recomputed from
    the logits."""
    logits_h, logits_e, value, trace = a2c_heads(net, n_kh, obs)
    v_next = 0.0
    if next_obs is not None:
        v_next = float(net.forward(next_obs)[0][0, -1])
    delta = rew + gamma * v_next - value
    douts = []
    for logits, a in zip((logits_h, logits_e), actions):
        probs = softmax(logits)
        one = np.zeros_like(probs)
        one[a] = 1.0
        logp = np.log(probs + 1e-300)
        entropy = -float(np.sum(probs * logp))
        douts.append(-delta * (one - probs) - beta * (-probs * (logp + entropy)))
    dout_actor = np.concatenate([*douts, [0.0]])[None, :]
    dout_critic = np.zeros_like(dout_actor)
    dout_critic[0, -1] = -2.0 * delta
    return (_list_backward(net, trace, dout_actor),
            _list_backward(net, trace, dout_critic))


def _oracle_net(net):
    oracle = Mlp(net.sizes, np.random.default_rng(0))
    oracle.flat[...] = net.flat
    return oracle


def _run(cfg, agent, episodes):
    sim = Simulation(cfg, agent)
    for world in draw_worlds(cfg, 29, episodes):
        sim.run_episode(world)


def test_a2c_learner_bit_exact_against_list_oracle():
    """Over 450 A2C updates, three of them terminal, with each row clipped
    in some updates and not in others, the net's buffer and both rows of
    moments match the list form byte for byte after every update."""
    cfg = ScenarioConfig(slots_per_episode=150)
    agent = A2CAgent(cfg, np.random.default_rng(31))
    oracle = _oracle_net(agent.net)
    opts = _RowAdam(oracle.flat), _RowAdam(oracle.flat)
    learn = agent._learn
    clipped, terminals = [], 0

    def checked_learn(next_obs):
        nonlocal terminals
        obs, actions, _ = agent._pending
        rows = _list_a2c_grads(oracle, agent.n_kh, obs, actions,
                               agent._reward(), next_obs, agents.GAMMA,
                               agents.ENTROPY_COEF)
        was_clipped = []
        for opt, grads, lr in zip(opts, rows,
                                  (agents.LR_ACTOR, agents.LR_CRITIC)):
            grads, hit = _list_clip(grads, agents.GRAD_CLIP)
            opt.step(grads, lr)
            was_clipped.append(hit)
        clipped.append(was_clipped)
        terminals += next_obs is None
        learn(next_obs)
        assert agent.net.flat.tobytes() == oracle.flat.tobytes()
        assert agent.opt.t == opts[0].t
        for r, opt in enumerate(opts):
            assert agent.opt.m[r].tobytes() == opt.m.tobytes()
            assert agent.opt.v[r].tobytes() == opt.v.tobytes()

    agent._learn = checked_learn
    _run(cfg, agent, 3)
    assert len(clipped) == 450 and terminals == 3
    for row in zip(*clipped):            # the actor's, then the critic's
        assert set(row) == {True, False}


def test_dqn_learner_bit_exact_against_list_oracle():
    """Over 435 DQN updates, some of whose batches hold terminal
    transitions, clipped in some updates and not in others, the net's buffer
    and its moments match the list form byte for byte after every update."""
    cfg = ScenarioConfig(slots_per_episode=150, dqn_batch_size=16)
    agent = DqnAgent(cfg, np.random.default_rng(32))
    oracle = _oracle_net(agent.net)
    opt = _RowAdam(oracle.flat)
    update = agent._update
    clipped, terminal_batches = [], 0

    def checked_update():
        nonlocal terminal_batches
        batch, n = cfg.dqn_batch_size, len(agent.replay)
        stored = min(agent.count, n - 1)
        # the batch the update is about to draw, from a copy of its stream
        idx = copy.deepcopy(agent.rng).choice(stored, size=batch, replace=False)
        rows = (agent.count - stored + idx) % n
        acts = agent.replay["act"][rows]
        q, trace = oracle.forward(agent.replay["obs"][rows])
        q_next, _ = agent.target.forward(agent.replay["obs"][(rows + 1) % n])
        done = agent.replay["done"][rows]
        targets = (agent.replay["rew"][rows]
                   + agents.GAMMA * (1.0 - done) * q_next.max(axis=1))
        err = q[np.arange(batch), acts] - targets
        dout = np.zeros_like(q)
        dout[np.arange(batch), acts] = 2.0 * err / batch
        grads, hit = _list_clip(_list_backward(oracle, trace, dout),
                                agents.GRAD_CLIP)
        opt.step(grads, agents.LR_CRITIC)
        clipped.append(hit)
        terminal_batches += bool(done.any())
        update()
        assert agent.net.flat.tobytes() == oracle.flat.tobytes()
        assert agent.opt.t == opt.t
        assert agent.opt.m[0].tobytes() == opt.m.tobytes()
        assert agent.opt.v[0].tobytes() == opt.v.tobytes()

    agent._update = checked_update
    _run(cfg, agent, 3)
    assert len(clipped) == 435 and set(clipped) == {True, False}
    assert terminal_batches > 0
