"""Shared builders for environment-level tests."""

import math
from typing import NamedTuple

import numpy as np

from dogfight.nn.autodiff import Tensor
from dogfight.simcore import (
    AircraftState,
    SimConfig,
    TEAM_AGENT,
    World,
    make_spec,
)


class XY(NamedTuple):
    """A point (km) for the geometry functions, which read `.x` and `.y`."""

    x: float
    y: float

    def __add__(self, other):
        return XY(self.x + other.x, self.y + other.y)


def heading_vector(heading_deg: float) -> XY:
    """Unit vector pointing along a compass heading."""
    rad = math.radians(heading_deg)
    return XY(math.sin(rad), math.cos(rad))


def make_aircraft(aid, type_id="AC1", team=TEAM_AGENT, pos=(15.0, 15.0),
                  heading=0.0, speed=None, cannon=200, rockets=None):
    spec = make_spec(type_id)
    if rockets is None:
        rockets = 5 if spec.has_rockets else 0
    return AircraftState(
        id=aid, team=team, spec=spec, x=pos[0], y=pos[1],
        heading=heading, target_heading=heading,
        speed=speed if speed is not None else spec.min_speed,
        cannon_ammo=cannon, rockets=rockets,
    )


class FullTurn:
    """A generator stub whose every uniform draw is 1.0: L3 turns by its
    whole antenna train angle toward the target."""

    def random(self):
        return 1.0


def make_world(aircraft, map_size=30.0, seed=0, cfg=None):
    return World(aircraft=aircraft, map_size=map_size,
                 rng=np.random.default_rng(seed),
                 cfg=cfg or SimConfig())


def count_tensors(monkeypatch) -> list[int]:
    """A one-element list counting the Tensors constructed from now on."""
    count = [0]
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    return count


def play(envs, actor, seeds):
    """One episode per seed of `seeds`, in order, on the env slots `envs`
    through `play_episodes`; returns their events by episode index."""
    from dogfight.train.policies import play_episodes

    ended = {index: events for index, _, events in play_episodes(
        envs, actor, lambda env, k: seeds[k] if k < len(seeds) else None)}
    return [ended[k] for k in range(len(seeds))]
