"""The benchmark's traced run rebinds functions by name; keep those names."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from magvlaq import tokens, training, vlaq
from magvlaq.model import ModelConfig, PlaceModel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODEL = ModelConfig(raw_dim=12, proj_dim=10, num_queries=4, out_dim=16, fuse_dim=6,
                    num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8)
SYNTH = tokens.SynthConfig(num_places=3, place_spacing=40.0, train_per_place=2,
                           test_per_place=1, num_scales=2, tokens_per_scale=8,
                           token_dim=12, latent_dim=5, noise=0.1)
THRESH = training.MiningThresholds(tau_p=10.0, tau_n=25.0)


def test_every_traced_function_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, class_name, fn_name in spans.TRACED:
        owner = importlib.import_module(f"magvlaq.{module_name}")
        if class_name is not None:
            owner = owner.__dict__.get(class_name)
        if owner is None or not callable(vars(owner).get(fn_name)):
            missing.append(f"{module_name}.{class_name or ''}.{fn_name}")
    assert not missing, f"traced functions not found: {missing}"


def test_traced_aggregation_steps_run_in_every_embedding_and_training_pass(monkeypatch):
    """The benchmark times assignment and residual aggregation by rebinding
    these two names, so the node must call them through the module."""
    model = PlaceModel(MODEL, seed=3)
    dataset = tokens.generate_synthetic_dataset(SYNTH, 3)
    calls = Counter()
    for name in ("assignment_weights", "residual_aggregate"):
        def counted(*args, _name=name, _fn=getattr(vlaq, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(vlaq, name, counted)
    train = dataset.split_ground("train")
    geos = [ref.geo for ref in dataset.aerial]
    anchor = next(o for o in train if all(training.mine_pairs(o.geo, geos, THRESH)))
    pos, neg = training.mine_pairs(anchor.geo, geos, THRESH)
    passes = {
        "embed_ground": lambda: model.embed_ground(train),
        "embed_aerial": lambda: model.embed_aerial(dataset.aerial),
        "batch_loss": lambda: training.batch_loss(
            model, [anchor], [dataset.aerial[pos[0]]], [dataset.aerial[neg[0]]],
            training.TrainSettings(thresholds=THRESH)),
    }
    for name, run in passes.items():
        calls.clear()
        run()
        assert calls["assignment_weights"] > 0 and calls["residual_aggregate"] > 0, name
