"""Run assembly for one (model, protocol, fold, ADA, seed) cell of the grid.

:func:`prepare_run` is the one chain split -> channel statistics -> target
statistics -> batch sources -> seeded network; the CLI's ``train`` command
and ``scripts/paper_claims.py`` build their runs with it.  The paper's table
columns are defined once here, in :data:`PAPER_COLUMNS`.
"""

from __future__ import annotations

import dataclasses

from . import datapipe, splits, synthgen
from .errors import DataError
from .network import CELL_TYPES, Network, NetworkConfig
from .numerics import derive_rng
from .training import TargetStats, TrainConfig

__all__ = ["TrainRunConfig", "Run", "prepare_run", "checkpoint_name", "synthesize",
           "PAPER_COLUMNS"]

# the paper's result-table columns in its order: (title, protocol, ADA)
PAPER_COLUMNS = (
    ("Intra session", "intra-session", False),
    ("Inter session", "inter-session", False),
    ("Inter session ADA", "inter-session", True),
    ("Inter subjects", "inter-subject", False),
    ("Inter subjects ADA", "inter-subject", True),
)


@dataclasses.dataclass
class TrainRunConfig:
    """One run's settings; each field is a --config key, a MYOGRASP_* name and a flag."""

    model: str = NetworkConfig.cell_type
    protocol: str = "intra"
    fold: int = 0
    ada: bool = NetworkConfig.use_discriminator
    seed: int = TrainConfig.seed
    hidden: int = NetworkConfig.hidden_size
    predictor_hidden: int = NetworkConfig.predictor_hidden
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    batch_size: int = TrainConfig.batch_size

    def __post_init__(self):
        # ValueError becomes ConfigError (exit 2) in cli.resolve_config
        if self.model not in CELL_TYPES:
            raise ValueError(f"model must be one of {CELL_TYPES}, got {self.model!r}")
        protocol = splits.canonical_protocol(self.protocol)
        if self.ada and protocol == "intra-session":
            raise ValueError("ada requires a multi-domain protocol "
                             "(inter-session or inter-subject)")
        for name in ("hidden", "predictor_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fold < 0:
            raise ValueError(f"fold must be >= 0, got {self.fold}")
        self.train_config()   # checks the training-loop settings

    def train_config(self) -> TrainConfig:
        """The training-loop settings; TrainConfig checks them."""
        return TrainConfig(
            learning_rate=self.learning_rate, max_epochs=self.max_epochs,
            patience=self.patience, batch_size=self.batch_size, seed=self.seed)


@dataclasses.dataclass
class Run:
    """Everything ``training.train`` needs, plus what a checkpoint stores."""

    plan: splits.SplitPlan
    stats: datapipe.NormStats
    target_stats: TargetStats
    train_src: datapipe.WindowSource
    val_src: datapipe.WindowSource
    net: Network
    train_config: TrainConfig


def prepare_run(window_set: datapipe.WindowSet, sessions: list,
                cfg: TrainRunConfig) -> Run:
    """Split, fit statistics on the training split and seed the network."""
    plan = splits.make_split(cfg.protocol, window_set, sessions, cfg.fold, cfg.seed)
    train_idx = plan.indices(splits.TRAIN)
    val_idx = plan.indices(splits.VALIDATION)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise DataError(f"split produced empty train ({len(train_idx)}) or "
                        f"validation ({len(val_idx)}) set")

    stats = datapipe.channel_stats(window_set, train_idx)
    domains = plan.domain_labels[train_idx] if cfg.ada else None
    net_cfg = NetworkConfig(
        cell_type=cfg.model, hidden_size=cfg.hidden, predictor_hidden=cfg.predictor_hidden,
        output_angles=window_set.n_angles, use_discriminator=cfg.ada,
        num_domains=plan.num_domains if cfg.ada else 0)
    return Run(
        plan=plan, stats=stats, target_stats=TargetStats.fit(window_set.targets(train_idx)),
        train_src=datapipe.WindowSource(window_set, train_idx, stats, domains),
        val_src=datapipe.WindowSource(window_set, val_idx, stats),
        net=Network.init(net_cfg, derive_rng(cfg.seed, "init")),
        train_config=cfg.train_config())


def checkpoint_name(model: str, protocol: str, fold: int, seed: int, ada: bool) -> str:
    """File stem of a run's checkpoint and report; any protocol alias works."""
    tag = "_ada" if ada else ""
    return f"{model}_{splits.canonical_protocol(protocol)}_fold{fold}_seed{seed}{tag}"


def synthesize(cfg: synthgen.SynthConfig, stride: int):
    """generate -> preprocess_session -> concat_windows, all in memory.

    Returns (WindowSet, session table, linear-baseline NRMSE floor of the
    first session).  The CLI's ``generate`` + ``preprocess`` build the same
    structures, except that their streams pass through 6-decimal CSV files.
    """
    sets, floor = [], None
    for emg, angles, _ in synthgen.generate(cfg):
        if floor is None:
            floor = synthgen.linear_baseline_nrmse(emg, angles)
        sets.append(datapipe.preprocess_session(emg, angles, stride=stride)[0])
    window_set = datapipe.concat_windows(sets)
    return window_set, datapipe.session_table(window_set.recordings), floor
