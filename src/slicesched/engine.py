"""Per-episode closed loop with full trace recording: draw the episode's
world, then run each slot's action -> service -> queues -> reward -> learning.

No allocation changes the world, so it is drawn before the slot loop: (1)
the chains' states and DXI, (2) arrivals, (3) the channel's squared gains
and per-PRB rates.  Each slot reads its row and runs (4-6) build the
context and let the policy allocate, (7) rates and packet service, (8)
queue update, (9) Lyapunov drift, cost, violation surrogate and reward,
(10) dual ascent on this slot's violation while the policy trains, (11)
the slot's recorded row to the policy's ``observe``.  The context holds
only the decision's inputs; a learner keeps the row it last observed for
the previous slot's rates, drifts and violation signal, since this slot's
do not exist before the action.

A learner's update for slot t needs slot t+1's observation, so it runs
inside slot t+1's ``allocate``, once that observation is encoded; the last
slot's update runs in ``end_episode``.  The time of a learner's decision
therefore includes one update.

Episodes reset queues and build fresh chains in stationary states; learned
parameters, the dual and any baseline scheduler state persist.  Queues are
one backlog vector on the user axis; a row's global slot index and the
HRLLC packet delays are derived from the episode's slot table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import A2CAgent, DqnAgent, reward as compute_reward, step_cost
from .channel import all_user_rates, draw_channel, rate_matrix
from .config import ScenarioConfig
from .constraint import DualVariable, surrogate_y
from .queueing import LyapunovState, audit_conservation, service_capacity
from .schedulers import (Policy, ProportionalFairPolicy, RoundRobinPolicy,
                         SchedulerContext, slot_dtype)
from .traffic import (DexterityProfile, MmppChain, init_state_stationary,
                      sample_embb_arrivals, sample_hrllc_arrivals)

# purpose tags of the random streams (stable; changing one invalidates
# recorded golden traces)
TRAFFIC_HRLLC = 0
TRAFFIC_EMBB = 1
CHANNEL = 2
POLICY = 3
CHAIN_INIT = 4


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key).

    A stream is identified by a purpose tag plus optional sub-indices (user
    id, ...).  Streams with distinct keys are statistically independent, and
    the traffic and channel tags are separate from the policy tag, so
    different policies can replay identical world randomness.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


_LEARNERS = {agent.name: agent for agent in (A2CAgent, DqnAgent)}
AGENT_NAMES = tuple(_LEARNERS)            # the learned policies: a2c, dqn
POLICY_NAMES = AGENT_NAMES + ("rr", "pf")


@dataclass
class EpisodeRecord:
    episode: int
    slots: np.recarray            # one row per slot, dtype slot_dtype(cfg)
    diagnostics: dict             # the policy's

    @property
    def episodic_return(self) -> float:
        """The slot rewards summed left to right."""
        return sum(self.slots.reward.tolist())


def concat_slots(records: list[EpisodeRecord]) -> np.recarray:
    """The slot tables of consecutive records as one table, in slot order."""
    return np.concatenate([r.slots for r in records]).view(np.recarray)


def build_policy(name: str, cfg: ScenarioConfig, master_seed: int) -> Policy:
    if name in _LEARNERS:
        return _LEARNERS[name](cfg, stream(master_seed, POLICY))
    if name == "rr":
        return RoundRobinPolicy()
    if name == "pf":
        return ProportionalFairPolicy(cfg.num_users, cfg.pf_ewma)
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


class Simulation:
    """One world of ``episodes`` episodes seeded by ``seed``: owns the rng
    streams, the dual and the episode count.  The dexterity profile spans
    all ``episodes`` episodes, and the dual steps only while
    ``policy.training`` holds, so a frozen policy leaves it where it is."""

    def __init__(self, cfg: ScenarioConfig, policy: Policy, seed: int,
                 episodes: int):
        self.cfg = cfg
        self.policy = policy
        self.rng_hrllc = [stream(seed, TRAFFIC_HRLLC, u)
                          for u in range(cfg.num_hrllc)]
        self.rng_embb = [stream(seed, TRAFFIC_EMBB, u)
                         for u in range(cfg.num_embb)]
        self.rng_channel = stream(seed, CHANNEL)
        self.rng_chain_init = stream(seed, CHAIN_INIT)
        self.dex_profile = DexterityProfile(
            cfg, episodes * cfg.slots_per_episode)
        self.dual = DualVariable(value=0.0, step=cfg.dual_step)
        self._episode = 0

    def _draw_world(self) -> tuple[np.ndarray, ...]:
        """The next episode's exogenous columns, one row per slot: chain states,
        DXI, arrivals (eMBB users first), squared gains, per-PRB rates."""
        cfg, n_s = self.cfg, self.cfg.slots_per_episode
        alpha, beta = cfg.mmpp_alpha, cfg.mmpp_beta
        dxi = self.dex_profile.vector(self._episode * n_s + np.arange(n_s))
        hrllc = []              # per user, per slot: chain state, arrivals
        for u, rng in enumerate(self.rng_hrllc):
            # the chain step and the Poisson draw share the user's stream
            state = init_state_stationary(alpha, beta, self.rng_chain_init)
            chain = MmppChain(alpha, beta, (cfg.lambda_slow, cfg.lambda_burst),
                              cfg.slot_duration_s, state)
            for level in dxi[:, u].tolist():
                hrllc += (chain.step(rng),
                          sample_hrllc_arrivals(chain, cfg.beta_dex, level, rng))
        states, arr_h = np.array(hrllc, dtype=np.int64).reshape(-1, n_s, 2).T
        arrivals = np.column_stack([*(sample_embb_arrivals(cfg.lambda_embb, rng, n_s)
                                      for rng in self.rng_embb), arr_h])
        gain_sq = draw_channel(cfg, self.rng_channel, n_s)
        return states, dxi, arrivals, gain_sq, rate_matrix(cfg, gain_sq)

    def run_episode(self) -> EpisodeRecord:
        cfg, n_e = self.cfg, self.cfg.num_embb
        states, dxi, arrivals, gain_sq, prb_rates = self._draw_world()
        arr_h = arrivals[:, n_e:].tolist()
        lyap = LyapunovState()
        backlogs = np.zeros(cfg.num_users, dtype=int)
        self.policy.begin_episode()
        slots = np.recarray(cfg.slots_per_episode, dtype=slot_dtype(cfg))
        slots.mmpp_states, slots.dxi, slots.arrivals = states, dxi, arrivals
        # a view of the fields after the world's three, written slot by slot
        outcome = slots.view(np.ndarray)[list(slots.dtype.names[3:])]

        for i in range(cfg.slots_per_episode):
            # (4-6) context, decision
            work = backlogs + arrivals[i]
            ctx = SchedulerContext(num_embb=n_e, work=work, gain_sq=gain_sq[i],
                                   rate_matrix=prb_rates[i], dxi=dxi[i])
            alloc = self.policy.allocate(ctx)
            counts = alloc.validate(cfg.num_prbs, cfg.num_users)
            # (7) achieved rates and whole-packet service
            rates = all_user_rates(ctx.rate_matrix, alloc.assignment)
            served = service_capacity(rates, cfg.slot_duration_s,
                                      cfg.packet_size_bits)
            # (8) queue updates
            departures = np.minimum(work, served)
            backlogs = work - departures
            # (9) drift, cost, violation signal, reward
            lyap.advance(backlogs, n_e)
            rates_l = rates.tolist()
            cost = step_cost(rates_l[n_e:], rates_l[:n_e])
            y_users = [surrogate_y(a, s, cfg.packet_size_bits, cfg.d_max_s,
                                   cfg.d_proc_s, cfg.chi_h)
                       for a, s in zip(arr_h[i], served[n_e:].tolist())]
            y_mean = float(np.add.reduce(y_users) / len(y_users))  # = np.mean
            # The surrogate equals chi_h at arrival/service balance, so the
            # penalty and the dual ascend on the excess over that neutral
            # level: positive only when arrivals genuinely outpace service.
            violation = y_mean - cfg.chi_h
            rew = compute_reward(lyap.drift, cost, cfg.lyapunov_v,
                                 self.dual.value, violation)
            # (10) dual ascent
            if self.policy.training:
                self.dual.update(violation)
            outcome[i] = (counts, rates, departures, backlogs, lyap.drift_embb,
                          lyap.drift_hrllc, cost, y_mean, self.dual.value, rew)
            # (11) the slot's recorded row for the policy
            self.policy.observe(outcome[i])

        self.policy.end_episode()
        audit_conservation(slots)
        record = EpisodeRecord(self._episode, slots, self.policy.diagnostics())
        self._episode += 1
        return record


def run_training(cfg: ScenarioConfig, agent_kind: str
                 ) -> tuple[list[EpisodeRecord], Policy]:
    """Train (or just run, for rr/pf) a policy for cfg.episodes episodes."""
    policy = build_policy(agent_kind, cfg, cfg.master_seed)
    sim = Simulation(cfg, policy, cfg.master_seed, cfg.episodes)
    records = [sim.run_episode() for _ in range(cfg.episodes)]
    return records, policy


def run_evaluation(cfg: ScenarioConfig, policy: Policy, eval_seed: int
                   ) -> list[EpisodeRecord]:
    """Frozen-policy rollout of cfg.eval_episodes episodes on a fresh world
    seeded by eval_seed.

    Traffic and channel streams depend only on (eval_seed, user), so
    different policies evaluated with the same eval_seed face identical
    randomness.
    """
    policy.set_training(False)
    sim = Simulation(cfg, policy, eval_seed, cfg.eval_episodes)
    return [sim.run_episode() for _ in range(cfg.eval_episodes)]


def step_response_summary(records: list[EpisodeRecord], cfg: ScenarioConfig
                          ) -> dict:
    """Pre/post statistics around the two dexterity change points for the
    profile's ``stepped_user``: mean arrivals, PRBs and achieved rate per
    window.  The profile spans the records' own slots."""
    slots = concat_slots(records)
    total = len(slots)
    profile = DexterityProfile(cfg, total)
    user = profile.stepped_user
    col = cfg.num_embb + user
    w = max(total // 10, 1)

    def window_stats(lo: int, hi: int) -> dict:
        part = slots[max(lo, 0):min(hi, total)]
        return {
            "mean_arrivals": float(np.mean(part.arrivals[:, col])),
            "mean_prbs": float(np.mean(part.counts[:, col])),
            "mean_rate_bps": float(np.mean(part.rates[:, col])),
            "mean_dxi": float(np.mean(part.dxi[:, user])),
        }

    return {
        "step_a_slot": profile.step_a,
        "step_b_slot": profile.step_b,
        "window_slots": w,
        "before_step_a": window_stats(profile.step_a - w, profile.step_a),
        "after_step_a": window_stats(profile.step_a, profile.step_a + w),
        "before_step_b": window_stats(profile.step_b - w, profile.step_b),
        "after_step_b": window_stats(profile.step_b, profile.step_b + w),
    }


# --- CSV export -------------------------------------------------------------

def write_csv(path: str | Path, header: list[str], *chunks) -> None:
    """Write the ``header`` line, then each chunk's rows.  A chunk is a
    sequence of equal-length columns, each converted as one NumPy array; a
    value is written as ``str`` of its Python form (``tolist``), so a float
    is its shortest round-trip repr.  Each chunk becomes text only when its
    turn comes, so a run's trace is never held as text all at once."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for columns in chunks:
            text = [map(str, np.asarray(c).tolist()) for c in columns]
            f.writelines(",".join(row) + "\n" for row in zip(*text, strict=True))


def export_trace_csv(records: list[EpisodeRecord], cfg: ScenarioConfig,
                     path: str | Path) -> None:
    """One CSV per run with a stable column order for downstream plotting,
    written one episode at a time."""
    def named(prefix: str, block: np.ndarray) -> dict:
        return {f"{prefix}_{i}": c for i, c in enumerate(block.T)}

    def columns(rec: EpisodeRecord) -> dict[str, np.ndarray]:
        s, n, n_e = rec.slots, len(rec.slots), cfg.num_embb
        return {"episode": np.full(n, rec.episode),
                "slot": rec.episode * n + np.arange(n),
                **named("G", s.backlogs[:, :n_e]),
                **named("F", s.backlogs[:, n_e:]), **named("a", s.counts),
                **named("r", s.rates), "drift_embb": s.drift_embb,
                "drift_hrllc": s.drift_hrllc, "cost": s.cost, "y": s.y_mean,
                "dual": s.dual, "reward": s.reward, **named("dxi", s.dxi),
                **named("mmpp", s.mmpp_states)}

    tables = [columns(rec) for rec in records]
    write_csv(path, list(tables[0]), *(t.values() for t in tables))


def export_diagnostics_csv(records: list[EpisodeRecord],
                           path: str | Path) -> None:
    """One row per episode: ``episode,return``, then the record's
    diagnostics in their order, then the dual at the episode's end."""
    names = list(records[0].diagnostics) if records else []
    write_csv(path, ["episode", "return", *names, "dual"],
              [[r.episode for r in records], [r.episodic_return for r in records],
               *([r.diagnostics[n] for r in records] for n in names),
               [r.slots.dual[-1] for r in records]])
