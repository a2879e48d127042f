"""Pipeline configuration: one JSON file, strict keys, full echo.

Unknown keys and values of the wrong type are rejected anywhere in the
tree.  Every run writes the fully resolved configuration (defaults
materialized, master seed propagated into stage seeds that were not set
explicitly) next to its outputs, so two artifacts with equal resolved
configs are comparable.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .env import N_ACTIONS, EnvConfig
from .model import ModelConfig
from .quant import Q_MAX
from .training import SELECTION_SEED, PpoConfig, SftConfig


class ConfigError(ValueError):
    pass


def _require(ok, rule, value):
    """A section's value check: ValueError stating ``rule`` and ``value``."""
    if not ok:
        raise ValueError(f"{rule}, got {value}")


@dataclass
class DemoSection:
    episodes_per_task: int = 50
    seed: int = None

    def __post_init__(self):
        _require(self.episodes_per_task >= 1, "episodes_per_task must be >= 1",
                 self.episodes_per_task)


@dataclass
class PruneSection:
    ratio: float = 0.9
    exempt_layers: list = None  # None -> first and last
    # rows scored by taylor_importance; scored a chunk at a time, the rows
    # sized to the model's widths, so the batch size does not set peak memory
    calib_batch: int = 256
    seed: int = None

    def __post_init__(self):
        _require(0.0 <= self.ratio < 1.0, "ratio must be in [0, 1)", self.ratio)
        _require(self.calib_batch >= 1, "calib_batch must be >= 1", self.calib_batch)


@dataclass
class QuantSection:
    bits: int = 4
    block_size: int = 64

    def __post_init__(self):
        _require(self.bits in Q_MAX, f"bits must be one of {sorted(Q_MAX)}", self.bits)
        _require(self.block_size >= 1, "block_size must be >= 1", self.block_size)


@dataclass
class EvalSection:
    episodes_per_task: int = 10
    seed: int = 7

    def __post_init__(self):
        _require(self.episodes_per_task >= 1, "episodes_per_task must be >= 1",
                 self.episodes_per_task)
        _require(self.seed != SELECTION_SEED, "seed must differ from the trainers' "
                 f"selection seed training.SELECTION_SEED = {SELECTION_SEED}", self.seed)


def _check_types(cls, data):
    """An ``int`` field holds an int, not a bool or float; a ``float`` field
    a finite int or float, not a bool; a ``str`` field a string; a ``list``
    field a list of ints, or null where that is its default."""
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type is int:
            _require(type(value) is int, f"{f.name} must be an int", value)
        elif f.type is float:
            _require(type(value) in (int, float) and math.isfinite(value),
                     f"{f.name} must be a finite number", value)
        elif f.type is str:
            _require(isinstance(value, str), f"{f.name} must be a string", value)
        elif f.type is list and not (value is None and f.default is None):
            _require(isinstance(value, list) and all(type(i) is int for i in value),
                     f"{f.name} must be a list of ints", value)


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or 'root'} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section {path or 'root'}")
    try:
        _check_types(cls, data)
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad values in section {path or 'root'}: {e}") from e


@dataclass
class PipelineConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    demos: DemoSection = field(default_factory=DemoSection)
    prune: PruneSection = field(default_factory=PruneSection)
    sft: SftConfig = field(default_factory=SftConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    quant: QuantSection = field(default_factory=QuantSection)
    eval: EvalSection = field(default_factory=EvalSection)
    seed: int = 0
    output_dir: str = "runs/default"

    _SECTIONS = {
        "model": ModelConfig, "env": EnvConfig, "demos": DemoSection,
        "prune": PruneSection, "sft": SftConfig, "ppo": PpoConfig,
        "quant": QuantSection, "eval": EvalSection,
    }
    # the sections whose seed, when not set, follows the master seed
    _SEEDED = ("model", "demos", "prune", "sft", "ppo")

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(cls._SECTIONS) - {"seed", "output_dir"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in section root")
        try:
            _check_types(cls, raw)
        except ValueError as e:
            raise ConfigError(f"bad values in section root: {e}") from e
        seed = raw.get("seed", 0)
        kw = {"seed": seed, "output_dir": raw.get("output_dir", "runs/default")}
        for name, section_cls in cls._SECTIONS.items():
            data = raw.get(name, {})
            # a section that is not an object reaches _build unchanged, to be named there
            if name in cls._SEEDED and isinstance(data, dict) and data.get("seed") is None:
                data = {**data, "seed": seed}
            kw[name] = _build(section_cls, data, name)
        return cls(**kw)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    @classmethod
    def default(cls, seed=0):
        return cls.from_dict({"seed": seed})

    def __post_init__(self):
        env, model, exempt = self.env, self.model, self.prune.exempt_layers
        for bad, msg in (
            (env.obs_vocab > model.observation_vocab,
             f"env.obs_vocab {env.obs_vocab} exceeds model.observation_vocab "
             f"{model.observation_vocab}"),
            (env.obs_len + 1 > model.max_seq_len,
             f"env.obs_len + 1 = {env.obs_len + 1} (observation and action marker) "
             f"exceeds model.max_seq_len {model.max_seq_len}"),
            (model.action_vocab != N_ACTIONS,
             f"model.action_vocab {model.action_vocab} != env.N_ACTIONS {N_ACTIONS}"),
            (any(not 0 <= li < model.n_layers for li in exempt or ()),
             f"prune.exempt_layers {exempt} outside [0, model.n_layers = {model.n_layers})"),
        ):
            if bad:
                raise ConfigError(f"sections disagree: {msg}")

    def override_seed(self, seed):
        """Re-resolve with a new master seed (CLI --seed).

        A stage seed equal to the old master seed followed it, and follows
        the new one; any other stage seed was set explicitly and is kept.
        """
        raw = self.to_dict()
        for name in self._SEEDED:
            if raw[name]["seed"] == self.seed:
                raw[name]["seed"] = None
        raw["seed"] = seed
        return PipelineConfig.from_dict(raw)

    def to_dict(self):
        return dataclasses.asdict(self)

    def write_resolved(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
