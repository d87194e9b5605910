"""PPO training: buffers, updates, curriculum, league, commander."""

from .buffer import RolloutBuffer, Transition, compute_gae
from .commander import (
    CommanderTrainer,
    CommanderVariant,
    commander_network,
    train_commander,
)
from .league import LOW_LEVELS, LeagueArchive
from .policies import (
    CTCEDriver,
    CTDEDriver,
    SnapshotController,
    make_low_level_policy,
)
from .ppo import PPOConfig, UpdateStats, ppo_update
from .runs import RunDir
from .trainer import (
    LowLevelTrainer,
    TrainMode,
    curriculum_horizon,
    run_curriculum,
    train_escape,
    train_standard_baseline,
)

__all__ = [
    "CTCEDriver",
    "CTDEDriver",
    "CommanderTrainer",
    "CommanderVariant",
    "LOW_LEVELS",
    "LeagueArchive",
    "LowLevelTrainer",
    "PPOConfig",
    "RolloutBuffer",
    "RunDir",
    "SnapshotController",
    "TrainMode",
    "Transition",
    "UpdateStats",
    "commander_network",
    "compute_gae",
    "curriculum_horizon",
    "make_low_level_policy",
    "ppo_update",
    "run_curriculum",
    "train_commander",
    "train_escape",
    "train_standard_baseline",
]
