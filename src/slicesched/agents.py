"""Learning schedulers: observation encoding, the factorized discrete action
space, the drift-plus-penalty reward, and the actor-critic / DQN agents.

Action factorization: an action is two indices.  One categorical head picks
the slice-size index, and the HRLLC slice holds k_h = n_h + index PRBs, in
{n_h, ..., K - n_e}; the other picks the eMBB intra-slice template
(uniform, backlog-proportional, channel-greedy).  Per-user division inside
each slice is deterministic (largest-remainder by backlog+arrival weight for
HRLLC), which keeps the action space small while letting per-user PRB shares
track task-driven demand.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import ScenarioConfig
from .net import (Adam, Mlp, clip_grads, load_arrays, save_arrays,
                  softmax_categorical)
from .schedulers import (Allocation, Policy, SchedulerContext,
                         intra_slice_divide, materialize_assignment, slot_dtype)

TEMPLATES = ("uniform", "backlog", "channel")


def obs_length(cfg: ScenarioConfig) -> int:
    """Feature count: 3 per eMBB user + slice drift, 3 per HRLLC user + slice
    drift + violation signal + one DXI entry per HRLLC user."""
    return 3 * cfg.num_embb + 1 + 3 * cfg.num_hrllc + 1 + 1 + cfg.num_hrllc


# observation scales: constants, so a checkpoint's shapes fix its input format
Q_REF, R_REF_BPS, L_REF = 100.0, 20e6, 500.0    # packets, bits/s, drift
Y_CLIP, OBS_CLIP = 5.0, 10.0     # clips: violation signal, every feature


def encode_observation(ctx: SchedulerContext, prev: np.void,
                       cfg: ScenarioConfig) -> np.ndarray:
    """Normalized feature vector, eMBB block then HRLLC block.

    Queue features are the slot's work, arrivals included (they are
    eligible for same-slot service, so they are part of the workload the
    action must cover).  Rates, drifts and the violation signal come from
    ``prev``, the previous slot's row of the slot table: this slot's do not
    exist until after the action.
    """
    n_e = cfg.num_embb
    # the IEEE divisions and clips of the NumPy forms, on Python floats
    queue = [w / Q_REF for w in ctx.work.tolist()]
    mean_gain = ctx.mean_gain.tolist()
    rates = [r / R_REF_BPS for r in prev["rates"].tolist()]
    obs = np.array([
        *queue[:n_e],
        *mean_gain[:n_e],
        *rates[:n_e],
        prev["drift_embb"] / L_REF,
        *queue[n_e:],
        *mean_gain[n_e:],
        *rates[n_e:],
        prev["drift_hrllc"] / L_REF,
        min(max(prev["y_mean"], -1.0), Y_CLIP),
        *ctx.dxi.tolist(),
    ])
    # np.clip's NaN-propagating bounds, in place
    return np.minimum(np.maximum(obs, -OBS_CLIP, out=obs), OBS_CLIP, out=obs)


def decode_action(kh_idx: int, template_idx: int,
                  ctx: SchedulerContext) -> Allocation:
    """Expand a (slice-size index, template index) pair into a feasible
    Allocation whose HRLLC slice holds ``k_h = n_h + kh_idx`` PRBs."""
    k_h = ctx.num_users - ctx.num_embb + kh_idx
    template = TEMPLATES[template_idx]
    n_e, work = ctx.num_embb, ctx.work.tolist()
    counts_h = intra_slice_divide(k_h, work[n_e:])
    if template == "uniform":
        weights_e = [0.0] * n_e
    elif template == "backlog":
        weights_e = work[:n_e]
    else:                                    # "channel"
        weights_e = ctx.mean_gain[:n_e]
    counts_e = intra_slice_divide(ctx.num_prbs - k_h, weights_e)
    return Allocation(materialize_assignment(counts_e + counts_h, ctx.gain_sq))


EPS_COST = 1e-6     # keeps step_cost finite at a zero rate


def step_cost(rates, num_embb: int) -> float | list[float]:
    """Inverse-square rate cost; rates enter in Mbit/s so the cost has a
    usable dynamic range against the drift term.  Users run along the last
    axis, eMBB first: one slot's rates give its cost, a (slots, users)
    block of rates the list of the slots' costs."""
    terms = np.divide(rates, 1e6)
    terms *= terms
    terms += EPS_COST
    np.divide(1.0, terms, out=terms)
    # each slice summed in np.sum's order, HRLLC first
    return (np.add.reduce(terms[..., num_embb:], -1)
            + np.add.reduce(terms[..., :num_embb], -1)).tolist()


def reward(drift: float, cost: float, v: float, dual: float, y: float) -> float:
    """Negative drift-plus-penalty with the dual scaling only positive
    violation: ``y`` is the surrogate's excess over chi_h, its value at
    arrival/service balance, so only arrivals outpacing service cost."""
    return -(drift + v * cost + dual * max(y, 0.0))


TRUNK_HIDDEN = (64, 64)     # the learners' hidden-layer widths


def trunk_mlp(obs_dim: int, out_dim: int, rng: np.random.Generator) -> Mlp:
    """The learners' net: tanh layers of ``TRUNK_HIDDEN`` widths, then a
    linear output layer of ``out_dim`` columns."""
    return Mlp([obs_dim, *TRUNK_HIDDEN, out_dim], rng)


def a2c_net(obs_dim: int, n_kh: int, rng: np.random.Generator) -> Mlp:
    """Actor-critic net on one trunk.  Output columns: the ``n_kh`` slice-size
    logits, then the template logits, then the state value."""
    return trunk_mlp(obs_dim, n_kh + len(TEMPLATES) + 1, rng)


def a2c_heads(net: Mlp, n_kh: int, obs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float, list]:
    """(logits_h, logits_e, value, trace) for a single observation."""
    out, trace = net.forward(obs)
    row = out[0]
    return row[:n_kh], row[n_kh:-1], float(row[-1]), trace


def a2c_grads(net: Mlp, decision: tuple, actions: tuple[int, int], rew: float,
              next_obs: Optional[np.ndarray], gamma: float, entropy_coef: float,
              grads: tuple[list, list]) -> dict:
    """One transition's actor and critic gradients, both backpropagated
    through the one trace of ``net`` and written into ``grads``, the actor's
    then the critic's ``net.views`` of a gradient row; returns diagnostics.

    ``decision`` is (probs, value, trace) of the transition's observation
    under the current parameters: both heads' softmax probabilities in one
    row (slice size, then template), the state value and the forward trace.
    The bootstrapped target and the advantage are treated as constants
    (semi-gradient TD); terminal transitions bootstrap with zero.
    """
    probs, value, trace = decision
    v_next = 0.0
    if next_obs is not None:
        v_next = float(net.forward(next_obs)[0][0, -1])
    target = rew + gamma * v_next
    delta = target - value

    n_kh = len(probs) - len(TEMPLATES)
    a_h, a_e = actions
    one = np.zeros_like(probs)
    one[[a_h, n_kh + a_e]] = 1.0
    # each head's entropy H = -sum(p log p) and its logit gradient
    # -p (log p + H), the heads' sums taken over their own slices
    logp = np.log(probs + 1e-300)
    plogp = probs * logp
    ent_h = -float(np.add.reduce(plogp[:n_kh]))
    ent_e = -float(np.add.reduce(plogp[n_kh:]))
    dent = -probs * (logp + np.array([ent_h] * n_kh + [ent_e] * len(TEMPLATES)))
    # actor loss: -delta*(log pi_h + log pi_e) - beta*(H_h + H_e)
    # critic loss: delta^2, on the output's last column
    dout = np.zeros((2, len(probs) + 1))
    dout[0, :-1] = -delta * (one - probs) - entropy_coef * dent
    dout[1, -1] = -2.0 * delta
    net.backward(trace, dout[:1], grads[0])
    net.backward(trace, dout[1:], grads[1])
    return {
        "delta": delta,
        "critic_loss": delta * delta,
        "actor_loss": (-delta * (logp[a_h] + logp[n_kh + a_e])
                       - entropy_coef * (ent_h + ent_e)),
        "entropy": ent_h + ent_e,
    }


REWARD_SCALE = 0.01     # the learners' reward per unit of slot reward
GAMMA = 0.99            # the learners' discount
LR_ACTOR = LR_CRITIC = 1e-4     # Adam steps; DQN steps at LR_CRITIC
GRAD_CLIP = 5.0         # global-norm bound on each gradient row


class Learner(Policy):
    """A policy that learns from one-step transitions (s, a, r, s').

    ``allocate`` opens the slot's transition in ``_pending``: the
    observation and the action.  ``observe`` keeps the slot's row, in
    ``_prev``, for the next observation (a zero row before an episode's
    first slot) and for the transition's reward, ``_reward()``.  The next
    slot's observation, or ``None`` at the end of an episode, completes the
    transition, and ``_learn(next_obs)`` learns from it, only while
    ``training`` (the flag ``Policy`` keeps), in one ``_step`` per update.
    Subclasses own one net, ``self.net``, which is what a checkpoint holds,
    and a ``name``, the checkpoint's kind.
    """

    # per-update quantities whose episode means end_episode() reports
    diagnostic_names: tuple[str, ...] = ()

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        # HRLLC slice sizes n_h .. K - n_e, one per slice-size index
        self.n_kh = cfg.num_prbs - cfg.num_users + 1
        self.obs_dim = obs_length(cfg)
        self._new_episode()

    def _new_episode(self) -> None:
        """No open transition, a zero previous row, no updates tallied."""
        self._pending: Optional[list] = None     # [obs, action, ...]
        self._prev = np.zeros((), slot_dtype(self.cfg))[()]
        self._sums = dict.fromkeys(self.diagnostic_names, 0.0)
        self._updates = 0

    def _optimizer(self, lrs: tuple[float, ...]) -> None:
        """One gradient row per learning rate, laid out like ``net.flat``, and
        an ``Adam`` that steps the net by each row with moments of its own."""
        self.grads = np.zeros((len(lrs), self.net.flat.size))
        self._grad_views = tuple(self.net.views(row) for row in self.grads)
        self.opt = Adam(self.net.flat, lrs)

    def _step(self, diag: dict) -> None:
        """Clip and apply the gradient rows; tally the update's diagnostics."""
        self.opt.step(clip_grads(self.grads, GRAD_CLIP, self.net.splits))
        for name in self._sums:
            self._sums[name] += diag[name]
        self._updates += 1

    def _observation(self, ctx: SchedulerContext) -> np.ndarray:
        """This slot's observation, after learning from the transition it
        completes."""
        obs = encode_observation(ctx, self._prev, self.cfg)
        if self.training and self._pending is not None:
            self._learn(obs)
        return obs

    def observe(self, row: np.void) -> None:
        self._prev = row

    def _reward(self) -> float:
        """The open transition's scaled reward, from the row it observed."""
        return self._prev["reward"] * REWARD_SCALE

    def end_episode(self) -> dict:
        if self.training and self._pending is not None:
            self._learn(None)
        n = max(self._updates, 1)      # the episode's mean per update
        diag = {name: total / n for name, total in self._sums.items()}
        self._new_episode()
        return diag

    def _learn(self, next_obs: Optional[np.ndarray]) -> None:
        """Learn from ``_pending``; ``next_obs`` is None at a terminal."""
        raise NotImplementedError

    # --- checkpointing ---
    def save(self, path) -> None:
        save_arrays(path, self.net.params, {"kind": self.name})

    def load(self, path) -> None:
        """Load a checkpoint of this kind; ``set_params`` rejects arrays of
        any other shapes, such as another scenario's net."""
        arrays, meta = load_arrays(path)
        if meta.get("kind") != self.name:
            raise ValueError(f"checkpoint kind {meta.get('kind')!r} "
                             f"is not {self.name!r}")
        self.net.set_params(arrays)


ENTROPY_COEF = 0.01     # weight of the actor's entropy bonus


class A2CAgent(Learner):
    """Two-head advantage actor-critic scheduler, updated every slot."""

    name = "a2c"
    diagnostic_names = ("actor_loss", "critic_loss", "entropy")

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.net = a2c_net(self.obs_dim, self.n_kh, rng)
        # the actor's gradient row, then the critic's, stepped in that order
        self._optimizer((LR_ACTOR, LR_CRITIC))

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        obs = self._observation(ctx)
        logits_h, logits_e, value, trace = a2c_heads(self.net, self.n_kh, obs)
        probs = None
        if self.training:
            a_h, probs_h = softmax_categorical(logits_h, self.rng)
            a_e, probs_e = softmax_categorical(logits_e, self.rng)
            probs = np.concatenate((probs_h, probs_e))
        else:
            a_h = int(np.argmax(logits_h))
            a_e = int(np.argmax(logits_e))
        # no update runs between here and _learn, so the decision is still
        # current there
        self._pending = [obs, (a_h, a_e), (probs, value, trace)]
        return decode_action(a_h, a_e, ctx)

    def _learn(self, next_obs: Optional[np.ndarray]) -> None:
        _, actions, decision = self._pending
        diag = a2c_grads(self.net, decision, actions, self._reward(), next_obs,
                         GAMMA, ENTROPY_COEF, self._grad_views)
        self._step(diag)


# epsilon falls linearly from START to END over the first DECAY_SLOTS
# training slots; the target net syncs every TARGET_SYNC updates
DQN_EPS_START, DQN_EPS_END, DQN_EPS_DECAY_SLOTS = 1.0, 0.05, 30000
DQN_TARGET_SYNC = 500


class DqnAgent(Learner):
    """Value-based baseline over the flattened joint action index."""

    name = "dqn"
    diagnostic_names = ("td_loss",)

    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        # joint index = kh_idx * len(TEMPLATES) + template_idx
        self.n_joint = self.n_kh * len(TEMPLATES)
        self.net = trunk_mlp(self.obs_dim, self.n_joint, rng)
        self.target = trunk_mlp(self.obs_dim, self.n_joint, rng)
        self._sync_target()
        self._optimizer((LR_CRITIC,))
        # replay ring, one record per transition (the count-th in row count %
        # n, n = capacity + 1), read field by field so each batch gathers
        # contiguously; a transition's next observation is the obs of the row
        # after it, written ahead when the transition is stored
        self.replay = np.empty(cfg.dqn_replay_capacity + 1, dtype=[
            ("obs", float, (self.obs_dim,)), ("act", int), ("rew", float),
            ("done", float)])
        self.count = 0

    def _sync_target(self) -> None:
        self.target.flat[...] = self.net.flat

    @property
    def epsilon(self) -> float:
        """Exploration rate after ``count`` stored transitions.  It is read
        right after the previous slot's transition is stored, so ``count``
        is then the number of training slots decided before this one."""
        frac = min(self.count / DQN_EPS_DECAY_SLOTS, 1.0)
        return DQN_EPS_START + frac * (DQN_EPS_END - DQN_EPS_START)

    def allocate(self, ctx: SchedulerContext) -> Allocation:
        obs = self._observation(ctx)
        if self.training and self.rng.random() < self.epsilon:
            joint = int(self.rng.integers(self.n_joint))
        else:
            q, _ = self.net.forward(obs)
            joint = int(np.argmax(q[0]))
        self._pending = [obs, joint]
        return decode_action(*divmod(joint, len(TEMPLATES)), ctx)

    def _learn(self, next_obs: Optional[np.ndarray]) -> None:
        """Store the transition in the replay ring, then update once the
        ring holds a batch."""
        obs, joint = self._pending
        row = self.count % len(self.replay)
        self.count += 1
        self.replay[row] = (obs, joint, self._reward(), next_obs is None)
        # at a terminal the bootstrap weight 1 - done is 0, so any finite
        # observation serves; the transition's own is at hand
        self.replay["obs"][(row + 1) % len(self.replay)] = (
            obs if next_obs is None else next_obs)
        if self.count >= self.cfg.dqn_batch_size:
            self._update()

    def _update(self) -> None:
        batch = self.cfg.dqn_batch_size
        n = len(self.replay)
        # of the `stored` kept transitions, age i is in row count - stored + i;
        # row count % n, the newest next observation, is never among them
        stored = min(self.count, n - 1)
        idx = self.rng.choice(stored, size=batch, replace=False)
        rows = (self.count - stored + idx) % n
        acts = self.replay["act"][rows]
        q, trace = self.net.forward(self.replay["obs"][rows])
        q_next, _ = self.target.forward(self.replay["obs"][(rows + 1) % n])
        targets = (self.replay["rew"][rows] + GAMMA
                   * (1.0 - self.replay["done"][rows]) * q_next.max(axis=1))
        chosen = q[np.arange(batch), acts]
        err = chosen - targets
        dout = np.zeros_like(q)
        dout[np.arange(batch), acts] = 2.0 * err / batch
        self.net.backward(trace, dout, self._grad_views[0])
        self._step({"td_loss": float(np.mean(err * err))})
        # one update follows each store from the batch-th on, so this is
        # update number count - batch + 1
        if (self.count - batch + 1) % DQN_TARGET_SYNC == 0:
            self._sync_target()

    def load(self, path) -> None:
        super().load(path)
        self._sync_target()
