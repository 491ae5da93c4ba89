"""Flat run configuration: one JSON-loadable record drives every stage.

Defaults describe the bundled synthetic scale (16 places, 64 tokens per
scale, 512-d descriptors) and a learning rate that converges on it within
minutes; full-scale training recipes typically run far smaller rates over
many more steps, so override ``lr`` and ``epochs`` together when scaling up.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .model import ModelConfig
from .tokens import SynthConfig
from .training import LossWeights, MiningThresholds, TrainSettings


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    epochs: int = 40
    batch_size: int = 16
    lr: float = 1e-3
    margin: float = 0.1
    w_triplet: float = 1.0
    w_aux: float = 1.0
    w_shift: float = 1e-3
    tau_p: float = 10.0
    tau_n: float = 25.0
    eval_radius: float = 25.0
    eval_ks: tuple[int, ...] = (1, 5, 10)
    aggregator: str = "ode-vlaq"
    alpha: float = 0.1
    raw_dim: int = 96
    proj_dim: int = 128
    num_queries: int = 64
    out_dim: int = 512
    fuse_dim: int = 64
    num_scales: int = 4
    ode_steps: int = 4
    horizon: float = 1.0
    msg_hidden: int = 64
    dyn_hidden: int = 64
    cond_hidden: int = 64
    activation: str = "tanh"
    num_places: int = 16
    place_spacing: float = 50.0
    train_per_place: int = 4
    test_per_place: int = 2
    tokens_per_scale: int = 64
    latent_dim: int = 16
    noise: float = 0.1
    modality_tag: str = "satellite"

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        self.model_config().validate()
        self.train_settings().validate()
        self.synth_config().validate()

    def model_config(self) -> ModelConfig:
        return _fill(ModelConfig, self)

    def train_settings(self) -> TrainSettings:
        return _fill(
            TrainSettings,
            self,
            weights=LossWeights(triplet=self.w_triplet, aux=self.w_aux, shift=self.w_shift),
            thresholds=_fill(MiningThresholds, self),
            eval_ks=tuple(self.eval_ks),
        )

    def synth_config(self) -> SynthConfig:
        return _fill(SynthConfig, self, token_dim=self.raw_dim)

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["eval_ks"] = list(payload["eval_ks"])
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fill(component: type, run: RunConfig, **given):
    """An instance of the dataclass ``component``: fields named in ``given``
    take those values, every other field the RunConfig field of its name."""
    names = [f.name for f in dataclasses.fields(component) if f.name not in given]
    return component(**{name: getattr(run, name) for name in names}, **given)


def _check_type(name: str, value, default) -> object:
    """Coerce a JSON value to the field's type or fail loudly."""
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"config field {name!r} must be an integer")
        return value
    if isinstance(default, float):
        # NaN, the infinities and ints past the float range fail the bound
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigurationError(f"config field {name!r} must be a finite number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigurationError(f"config field {name!r} must be a string")
        return value
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigurationError(f"config field {name!r} must be a list of integers")
        return tuple(value)
    raise ConfigurationError(f"config field {name!r} has unsupported type")


def config_from_mapping(data: dict, source: str = "config") -> RunConfig:
    """Strictly typed RunConfig from a plain mapping; unknown keys rejected."""
    defaults = RunConfig()
    known = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(f"{source}: unknown config keys {unknown}")
    values = {
        name: _check_type(name, value, known[name]) for name, value in data.items()
    }
    config = dataclasses.replace(defaults, **values)
    config.validate()
    return config


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides.

    Unknown keys in the file are rejected rather than ignored, so typos in
    experiment configs fail immediately. Overrides with value None are
    treated as absent.
    """
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
    for name, value in overrides.items():
        if value is not None:
            data[name] = value
    return config_from_mapping(data, source=str(path) if path else "overrides")
