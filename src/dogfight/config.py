"""Run configuration: scenario recipes, tactical thresholds, config parsing.

All tunable distances/angles carry their standard defaults here so a single
JSON file (see docs/config_schema.json) can reconfigure an entire run. Flag
overrides use dotted keys, e.g. ``scenario.map_size=40``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .simcore import SimConfig

LOW_LEVEL_MAP_KM = 30.0
HIGH_LEVEL_MAP_KM = 50.0


@dataclass
class ScenarioConfig:
    """Episode generation recipe plus the tactical thresholds used by
    rewards and option termination."""

    n_agents: int = 2
    n_opponents: int = 2
    map_size: float = LOW_LEVEL_MAP_KM
    horizon: int = 200  # env decision steps per episode
    rounds_per_step: int = 10  # sim rounds per env decision (1 s)
    agent_cannon: int = 200
    agent_rockets: int = 5
    opponent_cannon: int = 400
    opponent_rockets: int = 8
    opponent_fight_prob: float = 0.75  # p_o: fight vs escape assignment
    seed: int = 0
    spawn_margin: float = 2.0  # km clearance from boundaries at spawn

    # tactical thresholds (favorable situation, escape shaping, options)
    favorable_distance: float = 5.0  # km
    favorable_ata: float = 15.0  # deg
    escape_away_ata: float = 30.0  # deg
    near_distance: float = 6.0  # km, escape proximity penalty
    far_distance: float = 13.0  # km, escape distance bonus
    slow_speed: float = 300.0  # kn
    fast_speed: float = 600.0  # kn
    boundary_margin: float = 5.0  # km, option termination
    option_horizon: int = 10  # T_l, env steps per option
    share_fraction: float = 0.5  # rho for the shared-fraction reward

    commander_senses: int = 2  # sensed opponents: 2 (N2) or 3 (N3)

    def __post_init__(self):
        if self.n_agents < 1 or self.n_opponents < 1:
            raise ValueError("team sizes must be at least 1")
        if self.horizon <= 0 or self.map_size <= 0:
            raise ValueError("horizon and map_size must be positive")
        if not 0.0 <= self.opponent_fight_prob <= 1.0:
            raise ValueError("opponent_fight_prob must be in [0, 1]")
        if self.commander_senses not in (2, 3):
            raise ValueError("commander_senses must be 2 or 3")

    @classmethod
    def commander_training(cls, **kw) -> "ScenarioConfig":
        """3-vs-3 on the large map with equalized ammunition."""
        base = dict(
            n_agents=3, n_opponents=3, map_size=HIGH_LEVEL_MAP_KM,
            horizon=500, agent_cannon=300, agent_rockets=8,
            opponent_cannon=300, opponent_rockets=8,
        )
        base.update(kw)
        return cls(**base)


@dataclass(frozen=True)
class ScriptConfig:
    """Knobs for the rule-based opponents (constants not fixed anywhere
    authoritative; these defaults are the shipped baseline). Frozen, as
    SimConfig is, so one instance can serve as a default."""

    flee_probability: float = 0.05  # per decision
    flee_duration: int = 5  # decisions
    fire_ata_scale: float = 45.0  # deg; fire prob = max(0, 1 - ata/scale)
    l2_fire_prob: float = 0.1
    full_speed_distance: float = 10.0  # km: at/beyond -> full speed
    min_speed_fraction: float = 0.4  # of max speed, at close_distance
    close_distance: float = 1.0  # km

    def __post_init__(self):
        for name in ("flee_probability", "l2_fire_prob", "min_speed_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def parse_config(raw: dict, scenario) -> dict:
    """Typed sections from a raw config dict, a missing one at its defaults.
    `scenario` builds the scenario section: ScenarioConfig, or a recipe such
    as ScenarioConfig.commander_training whose defaults the section's keys
    override. An unknown key raises the dataclass's TypeError."""
    return {**raw, "scenario": scenario(**raw.get("scenario", {})),
            "script": ScriptConfig(**raw.get("script", {})),
            "sim": SimConfig(**raw.get("sim", {}))}


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        dotted, value = item.split("=", 1)
        parts = dotted.split(".")
        node = raw
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = json.loads(value) if _is_json(value) else value
    return raw


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
        return True
    except json.JSONDecodeError:
        return False
