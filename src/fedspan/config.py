"""Experiment configuration: JSON schema, defaults and validation.

Defaults follow the reference training recipe: 50 rounds of 5 local epochs,
prototype momentum 0.9, alignment weight 0.002 and separation weight 0.00025.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

from .encoder import ConfigError, Range  # ConfigError re-exported: validation raises it
from .model import TaggerConfig
from .synth import DEFAULT_CORPUS_SEED


@dataclass(frozen=True)
class ExperimentConfig(TaggerConfig):
    """The model's hyperparameters (``TaggerConfig``) plus orchestration,
    data and output settings."""

    # Orchestration
    mode: Literal["single", "merged", "federated"] = "federated"
    aggregation: Literal["uniform", "f1_weighted"] = "f1_weighted"
    rounds: Annotated[int, Range(0)] = 50
    local_epochs: Annotated[int, Range(1)] = 5
    track_test_matrix: bool = True
    # Seeds: `seed` is the experiment's data seed, from which each client's
    # model seed is derived; `corpus_seed` drives the synthetic corpus draw.
    seed: Annotated[int, Range(0)] = 2
    corpus_seed: Annotated[int, Range(0)] = DEFAULT_CORPUS_SEED
    # Data source: explicit corpus directories, or the synthetic generator.
    corpus_dirs: list[str] = field(default_factory=list)
    synth_config: str | None = None  # path to a synth JSON; None = builtin default
    dedup_case_sensitive: bool = True
    # Output
    output_dir: str = "runs/exp"

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def override(self, **updates) -> "ExperimentConfig":
        """New config with the given fields replaced (None values ignored)."""
        real = {k: v for k, v in updates.items() if v is not None}
        unknown = set(real) - set(self.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = dataclasses.replace(self, **real)
        config.validate()
        return config

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def model_kwargs(self, data_seed) -> dict:
        """Constructor arguments for the SpanTagger trained on one client:
        this config's ``TaggerConfig`` fields, with ``seed`` replaced by the
        client's data seed."""
        kwargs = {f.name: getattr(self, f.name) for f in dataclasses.fields(TaggerConfig)}
        kwargs["seed"] = data_seed
        return kwargs
