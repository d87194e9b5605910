"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py

Runs one operation of each workload under the tracer, then shows that the
tracer's call counts equal the program's env-step counter (CombatEnv.step
calls = env steps, step_round calls = env steps x rounds_per_step), that
every output check passes on the program's outputs, and that each check
rejects a copy of those outputs with one value corrupted. Prints one PASS or
FAIL line per case; exits 1 if any case fails.
"""

import run  # noqa: I001 - sets one BLAS thread before numpy is imported

import copy
import dataclasses
import math
import sys
import tempfile
from pathlib import Path

SEED = 0


def main() -> int:
    run.import_program()
    from dogfight.train.buffer import RolloutBuffer, compute_gae
    from perfbench import checks, layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, StepCounter

    results = []

    def expect(label: str, failures: list[str], should_fail: bool):
        ok = bool(failures) == should_fail
        detail = f" ({failures[0]})" if failures else ""
        print(f"{'PASS' if ok else 'FAIL'} {label}{detail}")
        results.append(ok)

    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        states = {name: wl.build(SEED, Path(tmp) / name)
                  for name, wl in WORKLOADS.items()}

        tracer, counter = Tracer(), StepCounter()
        tracer.install()
        counter.install()
        before = {name: wl.env_steps(states[name]) for name, wl in WORKLOADS.items()}
        tracer.mark("measure_start")
        for name, wl in WORKLOADS.items():
            wl.op(states[name])
        tracer.mark("measure_end")
        counter.uninstall()
        tracer.uninstall()
        program_steps = sum(wl.env_steps(states[name]) - before[name]
                            for name, wl in WORKLOADS.items())
        (rounds,) = {wl.scenario(states[name]).rounds_per_step
                     for name, wl in WORKLOADS.items()}
        expect(f"tracer: {program_steps} env steps, CombatEnv.step and "
               f"step_round call counts exact",
               layers.exact_counts(tracer, program_steps, counter.steps, rounds),
               False)
        expect("tracer: count check rejects one env step more",
               layers.exact_counts(tracer, program_steps + 1,
                                   counter.steps + 1, rounds), True)

        for name, wl in WORKLOADS.items():
            expect(f"{name}: every output check passes",
                   wl.check(states[name]), False)

        # -- training outputs ------------------------------------------------
        for name in ("train-fight-2v2", "train-commander-3v3"):
            st = states[name]
            transitions = st.last_buffer
            adv, ret = compute_gae(RolloutBuffer(transitions=list(transitions)),
                                   st.gamma, st.lam)
            bad = adv.copy()
            bad[len(bad) // 2] += 1e-3
            expect(f"{name}: GAE check rejects one changed advantage",
                   checks.gae_matches(transitions, st.gamma, st.lam, bad, ret),
                   True)
            bad = ret.copy()
            bad[-1] -= 1e-3
            expect(f"{name}: GAE check rejects one changed return",
                   checks.gae_matches(transitions, st.gamma, st.lam, adv, bad),
                   True)
            records = st.run_dir.read_metrics()
            for key, value in (("mean_ratio_first_epoch", 1.001),
                               ("policy_loss", float("nan")),
                               ("value_loss", float("inf")),
                               ("entropy", 0.0),
                               ("entropy", 1e-5 + sum(
                                   math.log(a) for a in st.arities))):
                bad = copy.deepcopy(records)
                bad[-1][key] = value
                expect(f"{name}: update check rejects {key} = {value:.6g}",
                       checks.update_records(bad, st.arities), True)

        commander = states["train-commander-3v3"]
        one_step = [dataclasses.replace(t, duration=1)
                    for t in commander.last_buffer]
        adv, ret = compute_gae(RolloutBuffer(transitions=one_step),
                               commander.gamma, commander.lam)
        expect("train-commander-3v3: GAE check rejects advantages that ignore "
               "option durations",
               checks.gae_matches(commander.last_buffer, commander.gamma,
                                  commander.lam, adv, ret), True)
        horizon = commander.trainer.scenario.option_horizon
        for bad_duration in (0, horizon + 1):
            expect(f"train-commander-3v3: duration check rejects {bad_duration}",
                   checks.option_durations(commander.durations + [bad_duration],
                                           horizon), True)
        league_file = commander.archive.path("fight", "L5")
        original = league_file.read_bytes()
        league_file.write_bytes(original + b"\0")
        expect("train-commander-3v3: league check rejects a changed file",
               checks.frozen_league(commander.archive, commander.league_files,
                                    commander.trainer), True)
        league_file.write_bytes(original)
        weights = next(iter(commander.trainer.fight_actor.policy.store.params.values()))
        weights.data = weights.data + 1e-3
        expect("train-commander-3v3: league check rejects drifted parameters",
               checks.frozen_league(commander.archive, commander.league_files,
                                    commander.trainer), True)

        fight = states["train-fight-2v2"]
        net, loss = checks.ppo_loss64(fight.trainer.policy, fight.last_buffer,
                                      fight.trainer.ppo)
        net.store.zero_grad()
        loss().backward()
        probed = [n for n in sorted(net.store.params)
                  if net.store[n].grad is not None][0]
        net.store[probed].grad *= 1.001
        expect(f"train-fight-2v2: gradient probe rejects a 0.1% error in "
               f"{probed}", checks.grad_probe(net, lambda: loss().item()), True)

        # -- sweep outputs ---------------------------------------------------
        sweep = states["sweep-15v15"]

        def corrupted(edit):
            reports = copy.deepcopy(sweep.reports)
            episodes = copy.deepcopy(sweep.episodes)
            edit(reports[0], episodes)
            return checks.replay_episodes(episodes, reports)

        cases = {
            "one more AC1 kill": lambda r, e: r.kills.__setitem__("AC1", r.kills["AC1"] + 1),
            "one more AC2 death": lambda r, e: r.deaths.__setitem__("AC2", r.deaths["AC2"] + 1),
            "one friendly kill": lambda r, e: r.friendly_kills.__setitem__("AC1", r.friendly_kills["AC1"] + 1),
            "a flipped escaped count": lambda r, e: setattr(r, "escaped_episodes", 1 - r.escaped_episodes),
            "a flipped killed count": lambda r, e: setattr(r, "killed_episodes", 1 - r.killed_episodes),
            "a flipped kill count": lambda r, e: setattr(r, "kill_episodes", 1 - r.kill_episodes),
            "one more draw": lambda r, e: setattr(r, "draws", r.draws + 1),
            "a changed outcome": lambda r, e: e.__setitem__(0, e[0][:2] + (
                "loss" if e[0][2] != "loss" else "win",)),
        }
        for label, edit in cases.items():
            expect(f"sweep-15v15: replay rejects {label}", corrupted(edit), True)
        n, p = sweep.rerolls, sweep.scenario.opponent_fight_prob
        expect(f"sweep-15v15: re-roll check accepts {round(n * p)} fights of {n}",
               checks.reroll_share(n, round(n * p), p), False)
        expect(f"sweep-15v15: re-roll check rejects {n} fights of {n}",
               checks.reroll_share(n, n, p), True)

    passed = sum(results)
    print(f"{passed}/{len(results)} cases passed")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
