"""The documented config schema against the config dataclasses."""

import dataclasses
import json
from pathlib import Path

import pytest

from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.simcore import SimConfig
from dogfight.train import PPOConfig

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "config_schema.json"


@pytest.mark.parametrize("section, cls", [
    ("scenario", ScenarioConfig), ("script", ScriptConfig),
    ("sim", SimConfig), ("ppo", PPOConfig)])
def test_schema_keys_and_defaults_match_dataclass(section, cls):
    properties = json.loads(SCHEMA.read_text())["properties"][section]["properties"]
    documented = {key: spec["default"] for key, spec in properties.items()}
    assert documented == {f.name: f.default for f in dataclasses.fields(cls)}
