"""The run-config contract: the config.json bytes, and one RunConfig field
behind every field of the component configs it builds."""

from __future__ import annotations

import dataclasses

import pytest

from magvlaq.config import RunConfig
from magvlaq.errors import ConfigurationError
from magvlaq.model import ModelConfig
from magvlaq.tokens import SynthConfig
from magvlaq.training import LossWeights, MiningThresholds, TrainSettings

DEFAULT_JSON = (
    '{"activation":"tanh","aggregator":"ode-vlaq","alpha":0.1,"batch_size":16,'
    '"cond_hidden":64,"dyn_hidden":64,"epochs":40,"eval_ks":[1,5,10],'
    '"eval_radius":25.0,"fuse_dim":64,"horizon":1.0,"latent_dim":16,"lr":0.001,'
    '"margin":0.1,"modality_tag":"satellite","msg_hidden":64,"noise":0.1,'
    '"num_places":16,"num_queries":64,"num_scales":4,"ode_steps":4,"out_dim":512,'
    '"place_spacing":50.0,"proj_dim":128,"raw_dim":96,"seed":7,"tau_n":25.0,'
    '"tau_p":10.0,"test_per_place":2,"tokens_per_scale":64,"train_per_place":4,'
    '"w_aux":1.0,"w_shift":0.001,"w_triplet":1.0}'
)

# (component, its field) -> the RunConfig field it is built from, where the
# names differ. Every other component field comes from the RunConfig field of
# its own name. TrainSettings.weights and .thresholds are the nested
# LossWeights and MiningThresholds.
RENAMES = {
    (SynthConfig, "token_dim"): "raw_dim",
    (LossWeights, "triplet"): "w_triplet",
    (LossWeights, "aux"): "w_aux",
    (LossWeights, "shift"): "w_shift",
}
NESTED = {(TrainSettings, "weights"), (TrainSettings, "thresholds")}
COMPONENTS = (ModelConfig, SynthConfig, TrainSettings, LossWeights, MiningThresholds)
# RunConfig fields that only the run itself reads.
RUN_ONLY = {"seed", "epochs"}


def _source_fields():
    """(component, field, RunConfig field) for every leaf component field."""
    for component in COMPONENTS:
        for f in dataclasses.fields(component):
            if (component, f.name) not in NESTED:
                yield component, f.name, RENAMES.get((component, f.name), f.name)


def _built(run: RunConfig) -> dict[type, object]:
    settings = run.train_settings()
    return {
        ModelConfig: run.model_config(),
        SynthConfig: run.synth_config(),
        TrainSettings: settings,
        LossWeights: settings.weights,
        MiningThresholds: settings.thresholds,
    }


def _other(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, tuple):
        return value + (99,)
    if isinstance(value, str):
        return value + "-other"
    return value + 1 if isinstance(value, int) else value + 0.5


def test_default_config_json_bytes_are_pinned():
    assert RunConfig().to_json() == DEFAULT_JSON


def test_every_component_field_has_one_run_field_with_an_equal_default():
    run_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    assert len(run_fields) == 34
    used = set()
    for component, name, source in _source_fields():
        assert source in run_fields, f"{component.__name__}.{name} has no RunConfig field"
        assert getattr(component(), name) == getattr(RunConfig(), source), (
            f"{component.__name__}.{name} default differs from RunConfig.{source}"
        )
        used.add(source)
    assert used | RUN_ONLY == set(run_fields)


def test_builders_take_every_value_from_its_run_field():
    defaults = RunConfig()
    run = RunConfig(**{
        f.name: _other(getattr(defaults, f.name)) for f in dataclasses.fields(RunConfig)
    })
    built = _built(run)
    for component, name, source in _source_fields():
        assert getattr(built[component], name) == getattr(run, source), (
            f"{component.__name__}.{name} is not built from RunConfig.{source}"
        )
    assert isinstance(built[TrainSettings].eval_ks, tuple)


@pytest.mark.parametrize("field, value, message", [
    ("num_queries", 0, "vlaq dims must be positive"),
    ("proj_dim", 0, "vlaq dims must be positive"),
    ("out_dim", 0, "vlaq dims must be positive"),
    ("fuse_dim", 0, "fusion needs positive dims"),
    ("num_scales", 0, "fusion needs positive dims"),
    ("ode_steps", 0, "integration needs >= 1 step"),
    ("horizon", 0.0, "integration horizon must be > 0"),
    ("horizon", float("nan"), "integration horizon must be > 0"),
])
def test_model_config_rejects_each_bad_dimension(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        ModelConfig(**{field: value}).validate()
    with pytest.raises(ConfigurationError, match=message):
        RunConfig(**{field: value}).validate()
