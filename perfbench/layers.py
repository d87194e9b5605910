"""Per-layer metrics from a traced run, and the tracer's exact-count checks.

Call counts and self times cover the measured phase, except the set-up
layers (orthogonal init, checkpoint save and load, league loads), which are
taken from the set-up phase. "Rollout" spans are those outside any
`ppo_update`; "decisions" are the rows passed through `forward_actor` by
rollout or evaluation code, i.e. aircraft decisions made by a network.
"""

from __future__ import annotations

from .tracer import empty_record

SETUP_LAYERS = (
    "nn.params.orthogonal_init",
    "nn.params.save_checkpoint",
    "nn.params.load_checkpoint",
    "train.league.LeagueArchive.load",
)

SELF_TIMES = (
    "simcore.step_round", "simcore.fire_cannon", "observations.build_obs",
    "observations.build_critic_input", "observations.closest_opponents",
    "rewards.option_terminated", "scripted.ScriptedController",
    "env.CombatEnv.step", "nn.networks.forward_actor",
    "nn.networks.forward_critic", "nn.networks.sample_action",
    "nn.networks.log_prob_entropy", "nn.autodiff.backward",
    "nn.params.adam_step", "nn.params.clip_grad_norm",
    "train.buffer.compute_gae", "train.ppo.ppo_update",
    "train.policies.CTDEDriver.act", "train.policies.SnapshotController",
    "train.commander.CommanderTrainer.run_episode", "evaluation.evaluate",
    "evaluation.HierarchyEvalActor.actions",
) + SETUP_LAYERS
CALLS = (
    "simcore.step_round", "observations.closest_opponents",
    "rewards.option_terminated", "env.CombatEnv.step",
    "nn.networks.forward_actor", "nn.autodiff.backward",
)
UPDATE = "train.ppo.ppo_update"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, steps: int, aircraft: int,
                      clock) -> dict[str, dict]:
    measured = tracer.summarize("measure_start", "measure_end")
    setup = tracer.summarize("setup_start", "setup_end")

    def span(name: str) -> dict:
        source = setup if name in SETUP_LAYERS else measured
        return source.get(name) or empty_record()

    actor = span("nn.networks.forward_actor")
    update = span(UPDATE)
    decisions = actor["rollout_extra"]
    rollout_tensors = (tracer.tensors_between("measure_start", "measure_end")
                       - update["tensors"])
    out = {}

    def put(name: str, value: float, unit: str):
        out[name] = {"value": value, "unit": unit}

    for name in CALLS:
        put(f"{name}.calls", span(name)["calls"], "count")
    for name in SELF_TIMES:
        put(f"{name}.self_s", span(name)["self_s"], "s")
    put("observations.build_obs.calls_per_decision",
        _ratio(span("observations.build_obs")["rollout_calls"], decisions),
        "calls/decision")
    put("nn.networks.forward_actor.rows_per_call",
        _ratio(decisions, actor["rollout_calls"]), "rows/call")
    put("nn.networks.forward_critic.calls_per_env_step",
        _ratio(span("nn.networks.forward_critic")["rollout_calls"], steps),
        "calls/step")
    put("nn.autodiff.tensors_per_decision", _ratio(rollout_tensors, decisions),
        "tensors/decision")
    put(f"{UPDATE}.s_per_1k_transitions",
        _ratio(update["total_s"], update["extra"] / 1000.0), "s/1k")
    put("phase.update_s", update["total_s"], "s")
    put("phase.rollout_s", clock.wall_s - update["total_s"], "s")
    put("trace.aircraft_steps_per_s", _ratio(aircraft, clock.normalised_s), "1/s")
    return out


def exact_counts(tracer, program_steps: int, counted_steps: int,
                 rounds_per_step: int) -> list[str]:
    """The tracer's counts against the program's own step counter."""
    measured = tracer.summarize("measure_start", "measure_end")
    env_calls = measured.get("env.CombatEnv.step", {}).get("calls", 0)
    round_calls = measured.get("simcore.step_round", {}).get("calls", 0)
    out = []
    if not env_calls == counted_steps == program_steps:
        out.append(f"CombatEnv.step traced {env_calls} calls; the program "
                   f"counted {program_steps} env steps, the benchmark "
                   f"{counted_steps}")
    if round_calls != program_steps * rounds_per_step:
        out.append(f"step_round traced {round_calls} calls for {program_steps} "
                   f"env steps x {rounds_per_step} rounds")
    return out
