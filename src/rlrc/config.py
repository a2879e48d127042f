"""Pipeline configuration: one JSON file, strict keys, full echo.

Unknown keys are rejected anywhere in the tree.  Every run writes the
fully resolved configuration (defaults materialized, master seed
propagated into stage seeds that were not set explicitly) next to its
outputs, so two artifacts with equal resolved configs are comparable.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .env import EnvConfig
from .model import ModelConfig
from .training import PpoConfig, SftConfig


class ConfigError(ValueError):
    pass


@dataclass
class DemoSection:
    episodes_per_task: int = 50
    seed: int = None


@dataclass
class PruneSection:
    ratio: float = 0.9
    exempt_layers: list = None  # None -> first and last
    calib_batch: int = 256
    seed: int = None


@dataclass
class QuantSection:
    enabled: bool = True
    bits: int = 4
    block_size: int = 64


@dataclass
class EvalSection:
    episodes_per_task: int = 10
    seed: int = 7


@dataclass
class BenchSection:
    batch_sizes: list = field(default_factory=lambda: [1, 16])
    warmup_iters: int = 10
    timed_iters: int = 50

    def __post_init__(self):
        if self.warmup_iters < 10:
            raise ValueError(f"warmup_iters must be >= 10, got {self.warmup_iters}")
        if self.timed_iters < 50:
            raise ValueError(f"timed_iters must be >= 50, got {self.timed_iters}")


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"section {path or 'root'} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section {path or 'root'}")
    try:
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
    bench: BenchSection = field(default_factory=BenchSection)
    seed: int = 0
    output_dir: str = "runs/default"

    _SECTIONS = {
        "model": ModelConfig, "env": EnvConfig, "demos": DemoSection,
        "prune": PruneSection, "sft": SftConfig, "ppo": PpoConfig,
        "quant": QuantSection, "eval": EvalSection, "bench": BenchSection,
    }

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(cls._SECTIONS) - {"seed", "output_dir"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in section root")
        seed = raw.get("seed", 0)
        kw = {"seed": seed, "output_dir": raw.get("output_dir", "runs/default")}
        for name, section_cls in cls._SECTIONS.items():
            data = dict(raw.get(name, {}))
            # stage seeds default to the master seed
            if name in ("demos", "prune", "sft", "ppo") and data.get("seed") is None:
                data["seed"] = seed
            if name == "model" and data.get("seed") is None:
                data["seed"] = seed
            kw[name] = _build(section_cls, data, name)
        return cls(**kw)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    @classmethod
    def default(cls, seed=0):
        return cls.from_dict({"seed": seed})

    def override_seed(self, seed):
        """Re-resolve with a new master seed (CLI --seed)."""
        raw = self.to_dict()
        raw["seed"] = seed
        for name in ("model", "demos", "prune", "sft", "ppo"):
            raw[name]["seed"] = None
        return PipelineConfig.from_dict(raw)

    def to_dict(self):
        out = {"seed": self.seed, "output_dir": self.output_dir}
        for name in self._SECTIONS:
            out[name] = dataclasses.asdict(getattr(self, name))
        return out

    def write_resolved(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
