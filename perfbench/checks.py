"""Output checks run after the measured phase.

Each check compares the program's output with a computation made apart
from it, or with a property the method must have, and returns a list of
failure messages (empty when the output is right). The self-test feeds
them corrupted outputs to show each one can fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

from dogfight.nn.networks import PolicyNetwork
from dogfight.train.buffer import RolloutBuffer, compute_gae
from dogfight.train.ppo import _gather_batch, _minibatch_loss

RATIO_TOLERANCE = 1e-6  # a few float32 ulps at 1; seen: below 2e-8
GAE_TOLERANCE = 1e-9
GRAD_TOLERANCE = 1e-4  # relative, as in nn.gradcheck
REROLL_SIGMAS = 5.0


# -- semi-MDP GAE --------------------------------------------------------------


def reference_gae(transitions, gamma: float, lam: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Advantages (normalized) and returns from the closed form
    A_t = sum_j (prod_{t<=i<j} lam * gamma**d_i) * delta_j over each
    (episode, agent) stream, with delta_j = r_j + gamma**d_j V_{j+1} - V_j
    and no bootstrap past a done transition."""
    n = len(transitions)
    adv = np.zeros(n)
    streams: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(transitions):
        streams.setdefault((t.episode, t.agent_id), []).append(i)
    for idx in streams.values():
        r = np.array([transitions[i].reward for i in idx], dtype=float)
        v = np.array([transitions[i].value for i in idx], dtype=float)
        d = np.array([transitions[i].duration for i in idx], dtype=float)
        done = np.array([transitions[i].done for i in idx], dtype=bool)
        v_next = np.append(v[1:], 0.0)
        live = ~done
        delta = r + np.where(live, gamma ** d * v_next, 0.0) - v
        carry = np.where(live, lam * gamma ** d, 0.0)  # weight from t to t+1
        for a in range(len(idx)):
            weight, total = 1.0, 0.0
            for j in range(a, len(idx)):
                total += weight * delta[j]
                weight *= carry[j]
                if weight == 0.0:
                    break
            adv[idx[a]] = total
    values = np.array([t.value for t in transitions], dtype=float)
    returns = adv + values
    return (adv - adv.mean()) / (adv.std() + 1e-8), returns


def gae_matches(transitions, gamma: float, lam: float,
                advantages: np.ndarray, returns: np.ndarray) -> list[str]:
    ref_adv, ref_ret = reference_gae(transitions, gamma, lam)
    out = []
    for label, got, want in (("advantages", advantages, ref_adv),
                             ("returns", returns, ref_ret)):
        err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
        if not err <= GAE_TOLERANCE:
            out.append(f"compute_gae {label} differ from the closed form by "
                       f"{err:.3e}")
    return out


# -- PPO update statistics -----------------------------------------------------


def update_records(records: list[dict], arities) -> list[str]:
    """First-epoch ratio 1, finite losses, entropy in (0, sum log arity]."""
    if not records:
        return ["no PPO update was logged"]
    cap = sum(math.log(a) for a in arities)
    out = []
    for rec in records:
        u = rec["update"]
        if not abs(rec["mean_ratio_first_epoch"] - 1.0) <= RATIO_TOLERANCE:
            out.append(f"update {u}: mean_ratio_first_epoch "
                       f"{rec['mean_ratio_first_epoch']!r} is not 1")
        for key in ("policy_loss", "value_loss"):
            if not math.isfinite(rec[key]):
                out.append(f"update {u}: {key} {rec[key]!r} is not finite")
        if not 0.0 < rec["entropy"] <= cap * (1.0 + 1e-7):
            out.append(f"update {u}: entropy {rec['entropy']!r} outside "
                       f"(0, {cap:.4f}]")
    return out


def training_checks(state) -> list[str]:
    buffer = RolloutBuffer(transitions=list(state.last_buffer))
    advantages, returns = compute_gae(buffer, state.gamma, state.lam)
    return (gae_matches(state.last_buffer, state.gamma, state.lam,
                        advantages, returns)
            + update_records(state.run_dir.read_metrics(), state.arities))


# -- gradient of the PPO loss -------------------------------------------------


def ppo_loss64(policy: PolicyNetwork, transitions, ppo, rows: int = 64):
    """A float64 copy of `policy` and the PPO minibatch loss on the first
    `rows` transitions of one network instance, as a function of it."""
    net = PolicyNetwork(dataclasses.replace(policy.config, dtype="float64"))
    net.store.load_arrays(policy.store.state_arrays())
    buffer = RolloutBuffer(transitions=list(transitions))
    advantages, returns = compute_gae(buffer, ppo.gamma, ppo.gae_lambda)
    instance = buffer.instances()[0]
    idx = buffer.indices_for(instance)[:rows]
    batch = _gather_batch(buffer, idx, instance, advantages, returns, np.float64)

    def loss():
        return _minibatch_loss(net, batch, ppo.clip_eps, ppo.value_coef,
                               ppo.entropy_coef)[0]

    return net, loss


def ppo_gradient_probe(policy: PolicyNetwork, transitions, ppo) -> list[str]:
    """Central finite differences of the PPO minibatch loss at float64
    against the analytic backward pass."""
    net, loss = ppo_loss64(policy, transitions, ppo)
    net.store.zero_grad()
    loss().backward()
    return grad_probe(net, lambda: loss().item())


def grad_probe(net: PolicyNetwork, loss_value, h: float = 1e-4) -> list[str]:
    """Compare the stored gradient with central differences of `loss_value`
    at the largest-gradient coordinate of every fourth parameter array."""
    out = []
    names = [n for n in sorted(net.store.params)
             if net.store[n].grad is not None][::4]
    for name in names:
        tensor = net.store[name]
        flat = int(np.argmax(np.abs(tensor.grad)))
        coord = np.unravel_index(flat, tensor.data.shape)
        analytic = float(tensor.grad[coord])
        original = tensor.data[coord]
        tensor.data[coord] = original + h
        up = loss_value()
        tensor.data[coord] = original - h
        down = loss_value()
        tensor.data[coord] = original
        numeric = (up - down) / (2.0 * h)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if not err <= GRAD_TOLERANCE:
            out.append(f"PPO loss gradient {name}{[int(c) for c in coord]}: analytic "
                       f"{analytic:.6e} vs finite difference {numeric:.6e}")
    if not names:
        out.append("PPO loss produced no parameter gradients")
    return out


# -- commander ---------------------------------------------------------------


def option_durations(durations, horizon: int) -> list[str]:
    bad = [d for d in durations if not 1 <= d <= horizon]
    if not durations:
        return ["no commander transitions were collected"]
    return ([f"{len(bad)} option durations outside [1, {horizon}], e.g. {bad[0]}"]
            if bad else [])


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


LEAGUE_ENTRIES = (("fight", ("fight", "L5")), ("escape", ("escape", "")))


def frozen_league(archive, recorded: dict[str, str], trainer) -> list[str]:
    """League files keep the sha256 taken when set-up wrote them, and the
    frozen networks keep their parameter checksums."""
    out = []
    for name, key in LEAGUE_ENTRIES:
        now = sha256_of(archive.path(*key))
        if now != recorded[name] or now != archive.sha256(*key):
            out.append(f"league file {name} changed: sha256 {now}")
    for kind, actor in (("fight", trainer.fight_actor),
                        ("escape", trainer.escape_actor)):
        if actor.policy.store.checksum() != trainer.frozen_checksums[kind]:
            out.append(f"frozen {kind} parameters drifted during training")
    return out


# -- evaluation sweep ----------------------------------------------------------

_KILLS = ("CannonKill", "RocketKill")


def replay_episode(roster: dict, events) -> dict:
    """Counters and outcome of one episode from its event log alone."""
    rec = {"kills": {"AC1": 0, "AC2": 0}, "deaths": {"AC1": 0, "AC2": 0},
           "friendly_kills": {"AC1": 0, "AC2": 0}}
    dead: set[int] = set()
    for event in events:
        kind = type(event).__name__
        if kind in _KILLS:
            shooter_team, shooter_type = roster[event.shooter]
            victim = event.victim
        elif kind == "OutOfBounds":
            shooter_team = shooter_type = None
            victim = event.aircraft
        else:
            continue
        victim_team, victim_type = roster[victim]
        dead.add(victim)
        if shooter_team == "agent":
            key = "kills" if victim_team == "opponent" else "friendly_kills"
            rec[key][shooter_type] += 1
        if victim_team == "agent":
            rec["deaths"][victim_type] += 1
    agents = {i for i, (team, _) in roster.items() if team == "agent"}
    opponents = set(roster) - agents
    agents_left, opponents_left = agents - dead, opponents - dead
    if not agents_left and not opponents_left:
        rec["outcome"] = "draw"
    elif not opponents_left:
        rec["outcome"] = "win"
    elif not agents_left:
        rec["outcome"] = "loss"
    else:
        rec["outcome"] = "draw"  # horizon reached
    rec["escaped_episodes"] = int(not agents & dead)
    rec["kill_episodes"] = int(bool(opponents & dead))
    rec["killed_episodes"] = int(bool(agents & dead))
    return rec


def replay_episodes(episodes, reports) -> list[str]:
    """Each one-episode report against the replay of its event log."""
    out = []
    if not reports or len(episodes) != len(reports):
        return [f"{len(episodes)} episode logs for {len(reports)} reports"]
    for i, ((roster, events, outcome), report) in enumerate(zip(episodes, reports)):
        rec = replay_episode(roster, events)
        got = {"outcome": outcome, "kills": report.kills,
               "deaths": report.deaths, "friendly_kills": report.friendly_kills,
               "escaped_episodes": report.escaped_episodes,
               "kill_episodes": report.kill_episodes,
               "killed_episodes": report.killed_episodes}
        for key, want in rec.items():
            if got[key] != want:
                out.append(f"episode {i}: {key} {got[key]!r}, replay gives {want!r}")
        results = {"win": report.wins, "loss": report.losses, "draw": report.draws}
        if report.episodes != 1 or sum(results.values()) != report.episodes:
            out.append(f"episode {i}: wins + losses + draws "
                       f"{sum(results.values())} != episodes {report.episodes}")
        elif results[rec["outcome"]] != 1:
            out.append(f"episode {i}: report counts {results}, replay gives "
                       f"{rec['outcome']}")
    return out


def reroll_share(rerolls: int, fights: int, p_fight: float) -> list[str]:
    """Fight share of the opponents' option-boundary re-rolls within
    REROLL_SIGMAS binomial standard deviations of p_o."""
    if rerolls == 0:
        return ["opponents were never re-rolled"]
    sd = math.sqrt(rerolls * p_fight * (1.0 - p_fight))
    if abs(fights - rerolls * p_fight) > REROLL_SIGMAS * sd:
        return [f"{fights} of {rerolls} re-rolls chose fight; p_o is {p_fight}"]
    return []
