"""Per-episode closed loop with full trace recording: draw the episode's
world, then run each slot's action -> service -> queues -> reward -> learning.

No allocation changes the world, so ``draw_worlds`` draws it beforehand: (1)
the chains' states and DXI, (2) arrivals, (3) the channel's squared gains
and per-PRB rates.  One loop then runs every slot: (4-6) build the context
and let the policy allocate, (7) the achieved rates, and (11) the slot's
recorded row to the policy's ``observe``.  The context holds only the
decision's inputs; a learner keeps the row it last observed for the
previous slot's rates, drifts and violation signal, since this slot's do
not exist before the action.

The rest of a slot is its accounting: (7) packet service, (8) queue
update, (9) Lyapunov drift, cost, violation surrogate and reward, (10)
dual ascent on the slot's violation while the policy trains.  For a policy
that reads the queues (``Policy.reads_queues``) it runs inside the loop,
before ``observe``.  For one that does not, the loop records only each
slot's ``counts`` and ``rates``, and the accounting is one pass over the
episode's table after it: service over the (slots, users) rate block,
backlogs in Lindley's closed form and departures as min(work, service),
the slices' energies, drifts and cost over the block, with the forms the
loop calls for one slot, then the violation surrogate, reward and dual
slot by slot.  Both forms write the same table, byte for byte.

A learner's update for slot t needs slot t+1's observation, so it runs
inside slot t+1's ``allocate``, once that observation is encoded; the last
slot's update runs in ``end_episode``.  The time of a learner's decision
therefore includes one update.

Episodes reset queues and build fresh chains in stationary states; learned
parameters, the dual and any baseline scheduler state persist.  Queues are
one backlog vector on the user axis; a row's global slot index and the
HRLLC packet delays are derived from the episode's slot table.

A run hands each finished episode's record to a callback and keeps none:
the callback folds it into whatever outputs it feeds (a trace writer, a
reducer of ``metrics``), so memory does not grow with the episode count.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import A2CAgent, DqnAgent, reward as compute_reward, step_cost
from .channel import all_user_rates, draw_channel, rate_matrix
from .config import ScenarioConfig
from .constraint import DualVariable, surrogate_y
from .queueing import (LyapunovState, audit_conservation, lindley_backlogs,
                       service_capacity, slice_energies)
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
    the traffic and channel tags are separate from the policy tag, so a
    world drawn from them does not depend on the policy run on it.
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


def build_policy(name: str, cfg: ScenarioConfig, master_seed: int) -> Policy:
    if name in _LEARNERS:
        return _LEARNERS[name](cfg, stream(master_seed, POLICY))
    if name == "rr":
        return RoundRobinPolicy()
    if name == "pf":
        return ProportionalFairPolicy(cfg.num_users)
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


class Simulation:
    """One policy's run: the policy, its dual and its episode count.  The
    dual steps only while ``policy.training`` holds, so a frozen policy
    leaves it where it is."""

    def __init__(self, cfg: ScenarioConfig, policy: Policy):
        self.cfg = cfg
        self.policy = policy
        self.dual = DualVariable(value=0.0, step=cfg.dual_step)
        self._episode = 0

    def run_episode(self, world: tuple[np.ndarray, ...]) -> EpisodeRecord:
        """The next episode, on ``world`` (``draw_worlds``' columns, read only)."""
        cfg, n_e, policy = self.cfg, self.cfg.num_embb, self.policy
        states, dxi, arrivals, gain_sq, prb_rates = world
        slots = np.recarray(cfg.slots_per_episode, dtype=slot_dtype(cfg))
        slots.mmpp_states, slots.dxi, slots.arrivals = states, dxi, arrivals
        queued = policy.reads_queues
        # the fields written slot by slot: after the world's three, or only
        # the decision's for a policy that does not read the queues
        fields = slots.dtype.names[3:] if queued else ("counts", "rates")
        outcome = slots.view(np.ndarray)[list(fields)]
        lyap = LyapunovState()
        backlogs = np.zeros(cfg.num_users, dtype=int)
        for i, arrivals in enumerate(slots.arrivals):
            # (4-6) context, decision
            work = backlogs + arrivals if queued else None
            ctx = SchedulerContext(num_embb=n_e, gain_sq=gain_sq[i],
                                   rate_matrix=prb_rates[i], dxi=dxi[i],
                                   work=work)
            alloc = policy.allocate(ctx)
            counts = alloc.validate(cfg.num_prbs, cfg.num_users)
            # (7) achieved rates
            rates = all_user_rates(ctx.rate_matrix, alloc.assignment)
            if queued:
                # (7) whole-packet service, (8) queue updates
                served = service_capacity(rates, cfg.slot_duration_s,
                                          cfg.packet_size_bits)
                departures = np.minimum(work, served)
                backlogs = work - departures
                # (9) drift, cost, violation signal; (9-10) reward, dual
                lyap.advance(backlogs, n_e)
                cost = step_cost(rates, n_e)
                y_mean = float(mean_surrogate(cfg, arrivals[n_e:], served[n_e:]))
                rew, dual = self._reward_and_dual(lyap.drift, cost, y_mean)
                outcome[i] = (counts, rates, departures, backlogs,
                              lyap.drift_embb, lyap.drift_hrllc, cost, y_mean,
                              dual, rew)
            else:
                outcome[i] = (counts, rates)
            # (11) the slot's recorded row for the policy
            policy.observe(outcome[i])
        if not queued:
            self._account(slots)
        audit_conservation(slots)
        record = EpisodeRecord(self._episode, slots, policy.end_episode())
        self._episode += 1
        return record

    def _account(self, slots: np.recarray) -> None:
        """(7-10) of a whole episode whose counts and rates are recorded, in
        one pass that writes what the loop's per-slot form would: service,
        queues, drifts and cost over the (S, U) block, then the violation
        signal, reward and dual slot by slot."""
        cfg, n_e = self.cfg, self.cfg.num_embb
        table = slots.view(np.ndarray)
        arrivals, rates = table["arrivals"], table["rates"]
        served = service_capacity(rates, cfg.slot_duration_s,
                                  cfg.packet_size_bits)
        backlogs = table["backlogs"]
        backlogs[...] = lindley_backlogs(arrivals, served)
        # each slot's work is its arrivals plus the backlog it starts with;
        # departures come from it, not from the backlogs, so that
        # audit_conservation checks the backlogs
        work = arrivals.copy()
        work[1:] += backlogs[:-1]
        np.minimum(work, served, out=table["departures"])
        drifts = [np.diff(energy, prepend=0.0)
                  for energy in slice_energies(backlogs, n_e)]
        table["drift_embb"], table["drift_hrllc"] = drifts
        table["cost"] = step_cost(rates, n_e)
        table["y_mean"] = mean_surrogate(cfg, arrivals[:, n_e:], served[:, n_e:])
        rows = zip((drifts[0] + drifts[1]).tolist(), table["cost"].tolist(),
                   table["y_mean"].tolist())
        table["reward"], table["dual"] = zip(*[self._reward_and_dual(*row)
                                               for row in rows])

    def _reward_and_dual(self, drift: float, cost: float, y_mean: float
                         ) -> tuple[float, float]:
        """(9-10) of one slot: its reward, then the dual's ascent on its
        violation while the policy trains; returns the reward and the dual
        after the step."""
        # The surrogate equals chi_h at arrival/service balance, so the
        # penalty and the dual ascend on the excess over that neutral
        # level: positive only when arrivals genuinely outpace service.
        violation = y_mean - self.cfg.chi_h
        rew = compute_reward(drift, cost, self.cfg.lyapunov_v,
                             self.dual.value, violation)
        if self.policy.training:
            self.dual.update(violation)
        return rew, self.dual.value


def draw_worlds(cfg: ScenarioConfig, seed: int, episodes: int
                ) -> Iterator[tuple[np.ndarray, ...]]:
    """Each of ``episodes`` episodes' exogenous columns in turn, one row per
    slot: chain states, DXI, arrivals (eMBB users first), squared gains,
    per-PRB rates.  The streams are seeded by ``seed``, and the dexterity
    profile spans all ``episodes`` episodes."""
    n_s, alpha, beta = cfg.slots_per_episode, cfg.mmpp_alpha, cfg.mmpp_beta
    rng_hrllc = [stream(seed, TRAFFIC_HRLLC, u) for u in range(cfg.num_hrllc)]
    rng_embb = [stream(seed, TRAFFIC_EMBB, u) for u in range(cfg.num_embb)]
    rng_channel, rng_chain_init = stream(seed, CHANNEL), stream(seed, CHAIN_INIT)
    profile = DexterityProfile(cfg, episodes * n_s)
    for episode in range(episodes):
        dxi = profile.vector(episode * n_s + np.arange(n_s))
        hrllc = []              # per user, per slot: chain state, arrivals
        for u, rng in enumerate(rng_hrllc):
            # the chain step and the Poisson draw share the user's stream
            state = init_state_stationary(alpha, beta, rng_chain_init)
            chain = MmppChain(alpha, beta, (cfg.lambda_slow, cfg.lambda_burst),
                              cfg.slot_duration_s, state)
            for level in dxi[:, u].tolist():
                hrllc += (chain.step(rng),
                          sample_hrllc_arrivals(chain, cfg.beta_dex, level, rng))
        states, arr_h = np.array(hrllc, dtype=np.int64).reshape(-1, n_s, 2).T
        arrivals = np.column_stack([*(sample_embb_arrivals(cfg.lambda_embb, rng, n_s)
                                      for rng in rng_embb), arr_h])
        gain_sq = draw_channel(cfg, rng_channel, n_s)
        yield states, dxi, arrivals, gain_sq, rate_matrix(cfg, gain_sq)


def mean_surrogate(cfg: ScenarioConfig, arrivals_h: np.ndarray,
                   served_h: np.ndarray):
    """``np.mean`` over the last axis (HRLLC users) of the users'
    ``surrogate_y``: one slot's violation signal, or an array of them for a
    (slots, users) block.  Each surrogate is taken one user and slot at a
    time, since ``np.exp`` and the surrogate's ``math.exp`` can differ in
    the last bit."""
    y = [surrogate_y(a, s, cfg.packet_size_bits, cfg.d_max_s, cfg.d_proc_s,
                     cfg.chi_h)
         for a, s in zip(arrivals_h.ravel().tolist(), served_h.ravel().tolist())]
    return (np.add.reduce(np.array(y).reshape(arrivals_h.shape), -1)
            / arrivals_h.shape[-1])


def run_training(cfg: ScenarioConfig, agent_kind: str,
                 on_episode: Callable[[EpisodeRecord], None]) -> Policy:
    """Train (or just run, for rr/pf) a policy for cfg.episodes episodes,
    handing each finished episode's record to ``on_episode``."""
    policy = build_policy(agent_kind, cfg, cfg.master_seed)
    sim = Simulation(cfg, policy)
    for world in draw_worlds(cfg, cfg.master_seed, cfg.episodes):
        on_episode(sim.run_episode(world))
        del world               # freed before the next world is drawn
    return policy


def run_evaluation(cfg: ScenarioConfig, eval_seed: int,
                   runs: Sequence[tuple[Policy, Callable[[EpisodeRecord], None]]]
                   ) -> None:
    """Frozen-policy rollouts of cfg.eval_episodes episodes on a fresh world
    seeded by eval_seed, one per ``(policy, on_episode)`` pair of ``runs``:
    each episode's world is drawn once and every policy runs on it in turn,
    handing its record to its ``on_episode`` as if it ran alone."""
    for policy, _ in runs:
        policy.training = False
    sims = [(Simulation(cfg, policy), on_episode) for policy, on_episode in runs]
    for world in draw_worlds(cfg, eval_seed, cfg.eval_episodes):
        for sim, on_episode in sims:
            on_episode(sim.run_episode(world))
        del world               # freed before the next world is drawn


def stepped_user_columns(record: EpisodeRecord, cfg: ScenarioConfig
                         ) -> np.ndarray:
    """What ``step_response_summary`` reads of an episode, a copy that
    outlives its slot table: per slot, the dexterity profile's stepped
    user's arrivals, PRB count, achieved rate and DXI."""
    user = DexterityProfile(cfg, len(record.slots)).stepped_user
    col, s = cfg.num_embb + user, record.slots
    return np.rec.fromarrays(
        [s.arrivals[:, col], s.counts[:, col], s.rates[:, col], s.dxi[:, user]],
        names=["arrivals", "counts", "rates", "dxi"])


def step_response_summary(columns: np.ndarray, cfg: ScenarioConfig) -> dict:
    """Pre/post statistics around the two dexterity change points for the
    profile's ``stepped_user``: mean arrivals, PRBs and achieved rate per
    window.  ``columns`` are consecutive episodes' ``stepped_user_columns``
    in slot order, and the profile spans them."""
    total = len(columns)
    profile = DexterityProfile(cfg, total)
    w = max(total // 10, 1)

    def window_stats(lo: int, hi: int) -> dict:
        part = columns[max(lo, 0):min(hi, total)]
        return {
            "mean_arrivals": float(np.mean(part["arrivals"])),
            "mean_prbs": float(np.mean(part["counts"])),
            "mean_rate_bps": float(np.mean(part["rates"])),
            "mean_dxi": float(np.mean(part["dxi"])),
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

class CsvWriter:
    """A CSV file written a chunk at a time: the ``header`` line, then each
    chunk's rows.  A chunk is a sequence of equal-length columns, each
    converted as one NumPy array; a value is written as ``str`` of its
    Python form (``tolist``), so a float is its shortest round-trip repr.
    Each chunk becomes text only when it is written, so a run's trace is
    never held as text all at once."""

    def __init__(self, path: str | Path, header: list[str]):
        self._file = open(path, "w")
        self._file.write(",".join(header) + "\n")

    def write(self, columns) -> None:
        text = [map(str, np.asarray(c).tolist()) for c in columns]
        self._file.writelines(",".join(row) + "\n"
                              for row in zip(*text, strict=True))

    def __enter__(self) -> "CsvWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()


def write_csv(path: str | Path, header: list[str], *chunks) -> None:
    """Write the ``header`` line, then each chunk's rows (``CsvWriter``)."""
    with CsvWriter(path, header) as out:
        for columns in chunks:
            out.write(columns)


def trace_columns(episode: int, slots: np.ndarray, cfg: ScenarioConfig
                  ) -> dict[str, np.ndarray]:
    """An episode's rows of a run's trace, by column, in the stable column
    order that downstream plotting reads."""
    def named(prefix: str, block: np.ndarray) -> dict:
        return {f"{prefix}_{i}": c for i, c in enumerate(block.T)}

    s, n, n_e = slots, len(slots), cfg.num_embb
    return {"episode": np.full(n, episode), "slot": episode * n + np.arange(n),
            **named("G", s.backlogs[:, :n_e]), **named("F", s.backlogs[:, n_e:]),
            **named("a", s.counts), **named("r", s.rates),
            "drift_embb": s.drift_embb, "drift_hrllc": s.drift_hrllc,
            "cost": s.cost, "y": s.y_mean, "dual": s.dual, "reward": s.reward,
            **named("dxi", s.dxi), **named("mmpp", s.mmpp_states)}


def trace_csv(path: str | Path, cfg: ScenarioConfig) -> CsvWriter:
    """A run's trace CSV, open with its header, for ``export_trace_csv``."""
    empty = np.recarray(0, dtype=slot_dtype(cfg))
    return CsvWriter(path, list(trace_columns(0, empty, cfg)))


def export_trace_csv(record: EpisodeRecord, cfg: ScenarioConfig,
                     out: CsvWriter) -> None:
    """Append one episode's rows to a run's trace (``trace_csv``)."""
    out.write(trace_columns(record.episode, record.slots, cfg).values())


def training_row(record: EpisodeRecord) -> dict:
    """An episode's row of a run's training table: ``episode,return``, then
    the record's diagnostics in their order, then the dual at the episode's
    end."""
    return {"episode": record.episode, "return": record.episodic_return,
            **record.diagnostics, "dual": record.slots.dual[-1]}


def export_diagnostics_csv(rows: list[dict], path: str | Path) -> None:
    """One row per episode, each a ``training_row``."""
    names = list(rows[0])
    write_csv(path, names, [[row[n] for row in rows] for n in names])
