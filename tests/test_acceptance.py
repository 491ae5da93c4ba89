"""Acceptance gate: ten numbered checks covering oracles, identities,
end-to-end learnability, and the evaluation protocol.

Each check records one ``[PASS]``/``[FAIL]`` verdict line (with its wall
time); the conftest hook replays them in the terminal summary so they
survive output capture. Checks with a stated runtime budget fail when they
exceed it. The synthetic benchmark check trains two full models and shares
its artifacts with the sensor-masking check.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from magvlaq import autodiff as ad
from magvlaq import cli, config, fusion, retrieval, tokens, training, vlaq
from magvlaq.config import RunConfig
from magvlaq.model import GroundBatch, ModelConfig, PlaceModel
from magvlaq.tokens import SynthConfig
from magvlaq.training import MiningThresholds, TrainSettings
from oracles import (
    brute_force_vlaq,
    constant,
    finite_difference_grad,
    layer_norm,
    matmul,
    mlp_forward,
)

ARTIFACTS: dict[str, dict] = {}
VERDICTS: list[str] = []


def _record(line: str) -> None:
    VERDICTS.append(line)
    print(line, flush=True)


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _record(f"[FAIL] criterion {num}: {description} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        _record(
            f"[FAIL] criterion {num}: {description} "
            f"({elapsed:.1f}s exceeded the {budget:.0f}s budget)"
        )
        raise AssertionError(
            f"criterion {num} finished correctly but took {elapsed:.1f}s "
            f"(budget {budget:.0f}s)"
        )
    _record(f"[PASS] criterion {num}: {description} ({elapsed:.1f}s)")


def test_aggregation_matches_independent_reference():
    with criterion(
        1, "aggregation matches the loop-based reference on 100 random instances",
        budget=5.0,
    ):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            s = int(rng.integers(1, 9))
            d = int(rng.integers(1, 9))
            out_dim = int(rng.integers(1, 13))
            toks = rng.standard_normal((n, d)).astype(np.float32)
            protos = rng.standard_normal((s, d)).astype(np.float32)
            proj = rng.standard_normal((s * d, out_dim)).astype(np.float32)
            got = vlaq.vlaq_descriptor(
                ad.Tensor(toks), ad.Tensor(protos), ad.Tensor(proj)
            ).value
            ref = brute_force_vlaq(toks, protos, proj)
            np.testing.assert_allclose(got, ref, atol=1e-5)


TOY_MODEL = ModelConfig(
    raw_dim=10, proj_dim=8, num_queries=4, out_dim=12, fuse_dim=8,
    num_scales=2, ode_steps=4, horizon=1.0, alpha=0.1, aggregator="ode-vlaq",
    msg_hidden=8, dyn_hidden=8, cond_hidden=8,
)
TOY_SYNTH = SynthConfig(
    num_places=2, place_spacing=40.0, train_per_place=2, test_per_place=1,
    num_scales=2, tokens_per_scale=6, token_dim=10, latent_dim=4, noise=0.1,
)


def test_every_parameter_gradient_matches_finite_differences():
    with criterion(
        2, "all trainable-parameter gradients match finite differences "
        "(rel err < 1e-3)", budget=60.0,
    ):
        model = PlaceModel(TOY_MODEL, seed=11, dtype=np.float64)
        dataset = tokens.generate_synthetic_dataset(TOY_SYNTH, 11)
        settings = TrainSettings(batch_size=2)
        geos = [r.geo for r in dataset.aerial]
        anchors, positives, negatives = [], [], []
        for obs in dataset.split_ground("train")[:2]:
            pos, neg = training.mine_pairs(obs.geo, geos, settings.thresholds)
            assert pos and neg
            anchors.append(obs)
            positives.append(dataset.aerial[pos[0]])
            negatives.append(dataset.aerial[neg[0]])

        def objective() -> float:
            return training.batch_loss(
                model, anchors, positives, negatives, settings
            )[3].item()

        _, _, _, total = training.batch_loss(
            model, anchors, positives, negatives, settings
        )
        ad.backward(total)
        analytic = {name: p.grad.copy() for name, p in model.store.items()}
        model.store.zero_grads()

        worst = 0.0
        for name, p in model.store.items():
            numeric = finite_difference_grad(objective, p.value, h=1e-4)
            denom = max(
                float(np.abs(analytic[name]).max()),
                float(np.abs(numeric).max()),
                1e-12,
            )
            rel = float(np.abs(analytic[name] - numeric).max()) / denom
            worst = max(worst, rel)
            assert rel < 1e-3, f"parameter {name}: rel err {rel:.3e}"
        assert worst < 1e-3


def test_integrator_shows_fourth_order_convergence():
    with criterion(
        3, "integrator error contracts by 12-20x per step doubling", budget=1.0,
    ):
        errors = {}
        for steps in (2, 4, 8, 16):
            # y' = y as one linear layer, which is exact in float64
            end = fusion.rk4_integrate(
                ad.Tensor(np.array([[1.0]])),
                [(ad.Tensor(np.eye(1)), ad.Tensor(np.zeros((1, 1))))],
                steps,
                1.0,
            )
            errors[steps] = abs(end.item() - math.e)
        for coarse, fine in ((2, 4), (4, 8), (8, 16)):
            ratio = errors[coarse] / errors[fine]
            assert 12.0 <= ratio <= 20.0, f"{coarse}->{fine} ratio {ratio:.2f}"


def test_zero_conditioning_strength_collapses_to_static_aggregation(
    tmp_path_factory,
):
    with criterion(
        4, "zero-strength conditioning is bit-identical to the static "
        "aggregator (descriptors and training traces)", budget=30.0,
    ):
        synth = SynthConfig(
            num_places=10, place_spacing=50.0, train_per_place=8,
            test_per_place=2, num_scales=2, tokens_per_scale=8, token_dim=16,
            latent_dim=6, noise=0.1,
        )
        dataset = tokens.generate_synthetic_dataset(synth, 21)
        base = ModelConfig(
            raw_dim=16, proj_dim=12, num_queries=6, out_dim=24, fuse_dim=8,
            num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8,
        )
        import dataclasses

        conditioned = PlaceModel(
            dataclasses.replace(base, aggregator="ode-vlaq", alpha=0.0), seed=4
        )
        static = PlaceModel(
            dataclasses.replace(base, aggregator="static-vlaq"), seed=4
        )
        assert len(dataset.ground) == 100
        with ad.no_grad():
            for obs in dataset.ground:
                a = conditioned.ground_forward(obs).descriptor.value
                b = static.ground_forward(obs).descriptor.value
                assert a.tobytes() == b.tobytes(), obs.id

        run_cfg = {
            "seed": 5, "epochs": 3, "batch_size": 4, "num_places": 3,
            "place_spacing": 40.0, "train_per_place": 2, "test_per_place": 1,
            "num_scales": 2, "tokens_per_scale": 8, "raw_dim": 12,
            "latent_dim": 5, "proj_dim": 10, "num_queries": 4, "out_dim": 16,
            "fuse_dim": 6, "msg_hidden": 8, "dyn_hidden": 8, "cond_hidden": 8,
        }
        root = tmp_path_factory.mktemp("collapse")
        traces = {}
        for name, extra in (
            ("ode", {"aggregator": "ode-vlaq", "alpha": 0.0}),
            ("static", {"aggregator": "static-vlaq"}),
        ):
            cfg_path = root / f"{name}.json"
            cfg_path.write_text(json.dumps({**run_cfg, **extra}))
            out = root / name
            assert cli.main(
                ["train", "--config", str(cfg_path), "--out", str(out)]
            ) == 0
            lines = (out / "trace.csv").read_text().splitlines()
            traces[name] = [line.rsplit(",", 1)[0] for line in lines]
        assert traces["ode"] == traces["static"]


def test_zero_dynamics_reduce_fusion_to_message_sum():
    with criterion(
        5, "zeroed flow dynamics reduce fusion to the plain message sum (1e-6)"
    ):
        cfg = ModelConfig(
            raw_dim=16, proj_dim=12, num_queries=6, out_dim=24, fuse_dim=8,
            num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8,
        )
        model = PlaceModel(cfg, seed=6)
        for name, p in model.store.items():
            if name.startswith("fuse.dyn."):
                p.value[...] = 0.0
        synth = SynthConfig(
            num_places=2, place_spacing=40.0, train_per_place=1,
            test_per_place=1, num_scales=2, tokens_per_scale=8, token_dim=16,
            latent_dim=6, noise=0.1,
        )
        dataset = tokens.generate_synthetic_dataset(synth, 6)
        with ad.no_grad():
            for obs in dataset.ground:
                fused = model.fusion_embedding(GroundBatch(model, [obs])).value
                expected = np.zeros((1, cfg.fuse_dim), dtype=np.float64)
                for idx in range(cfg.num_scales):
                    for modality in ("image", "lidar"):
                        ts = obs.image if modality == "image" else obs.lidar
                        pooled = ad.mean_rows(layer_norm(
                            matmul(constant(ts.scales[idx]), model.proj[modality]),
                            *model.ln[modality],
                        ))
                        expected += mlp_forward(
                            pooled,
                            model.msg_layers[modality][idx],
                            activation=cfg.activation,
                        ).value.astype(np.float64)
                np.testing.assert_allclose(fused, expected, atol=1e-6)


def test_assignment_columns_sum_to_one():
    with criterion(6, "soft-assignment columns each sum to one (1e-6)"):
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(1, 12))
            d = int(rng.integers(1, 10))
            scale = float(rng.uniform(0.1, 30.0))
            alpha = vlaq.assignment_weights(
                (scale * rng.standard_normal((n, d))).astype(np.float32),
                rng.standard_normal((s, d)).astype(np.float32),
            ).astype(np.float32)
            assert alpha.shape == (n, s)
            np.testing.assert_allclose(
                alpha.sum(axis=0), np.ones(s), atol=1e-6
            )
            assert (alpha >= 0.0).all()

        # the contract also holds on real model-projected tokens
        model = PlaceModel(
            ModelConfig(
                raw_dim=16, proj_dim=12, num_queries=6, out_dim=24, fuse_dim=8,
                num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8,
            ),
            seed=6,
        )
        synth = SynthConfig(
            num_places=2, place_spacing=40.0, train_per_place=1,
            test_per_place=1, num_scales=2, tokens_per_scale=8, token_dim=16,
            latent_dim=6, noise=0.1,
        )
        dataset = tokens.generate_synthetic_dataset(synth, 8)
        heat = model.assignment_heatmap(dataset.ground[0])
        np.testing.assert_allclose(heat.sum(axis=0), np.ones(6), atol=1e-6)


def test_synthetic_benchmark_learnable_and_beats_pooling(tmp_path_factory):
    with criterion(
        7, "default synthetic benchmark reaches recall@1 >= 0.95 and the "
        "pooling baseline scores strictly lower", budget=600.0,
    ):
        root = tmp_path_factory.mktemp("benchmark")
        finals = {}
        for aggregator in ("ode-vlaq", "pooling"):
            out = root / aggregator
            rc = cli.main([
                "train", "--epochs", "16", "--aggregator", aggregator,
                "--out", str(out),
            ])
            assert rc == 0
            rows = (out / "trace.csv").read_text().splitlines()
            assert len(rows) == 17
            finals[aggregator] = float(rows[-1].split(",")[5])
        assert finals["ode-vlaq"] >= 0.95, finals
        assert finals["pooling"] < finals["ode-vlaq"], finals
        ARTIFACTS["benchmark"] = {
            "checkpoint": root / "ode-vlaq" / "checkpoint.magt",
            "root": root,
            "finals": finals,
        }


def test_single_sensor_queries_beat_chance():
    with criterion(
        8, "single-sensor (image-only / lidar-only) recall@1 beats the "
        "0.01 chance floor"
    ):
        bench = ARTIFACTS.get("benchmark")
        assert bench is not None, (
            "needs the checkpoint trained by the synthetic benchmark check"
        )
        for mask in ("image-only", "lidar-only"):
            report_path = bench["root"] / f"report-{mask}.json"
            rc = cli.main([
                "eval", "--checkpoint", str(bench["checkpoint"]),
                "--modality-mask", mask, "--out", str(report_path),
            ])
            assert rc == 0
            report = json.loads(report_path.read_text())
            assert report["evaluated"] > 0
            assert report["excluded_no_relevant"] == 0
            assert report["recalls"]["1"] > 0.01, (mask, report)


def test_random_descriptors_hit_chance_floor():
    with criterion(
        9, "random unit descriptors score recall@1 = 0.01 +/- 0.02 over "
        "1000 trials"
    ):
        rng = np.random.default_rng(909)
        m, dim, trials = 100, 32, 1000
        ids = [f"r{i:03d}" for i in range(m)]
        geos = np.stack([np.arange(m) * 100.0, np.zeros(m)], axis=1)
        query_geo = np.zeros((1, 2))  # only reference 0 is within radius
        hits = 0.0
        for _ in range(trials):
            vecs = rng.standard_normal((m, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            q = rng.standard_normal((1, dim))
            q /= np.linalg.norm(q)
            db = retrieval.DescriptorDatabase(ids=ids, geos=geos, vectors=vecs)
            report = retrieval.recall_at_k(q, query_geo, db, ks=(1,), radius=25.0)
            assert report.evaluated == 1
            hits += report.recalls[1]
        rate = hits / trials
        assert abs(rate - 0.01) <= 0.02, f"chance recall@1 was {rate:.4f}"


def test_mining_zones_and_eval_radius_protocol():
    with criterion(
        10, "mining partitions the 10/25 m zones exactly and evaluation uses "
        "an inclusive 25 m radius"
    ):
        thresholds = MiningThresholds(tau_p=10.0, tau_n=25.0)
        pos, neg = training.mine_pairs(
            (0.0, 0.0), [(5.0, 0.0), (15.0, 0.0), (30.0, 0.0)], thresholds
        )
        assert pos == [0]  # 5 m: positive zone
        assert neg == [2]  # 30 m: negative zone; 15 m stays unused
        for boundary in (10.0, 25.0):
            pos, neg = training.mine_pairs(
                (0.0, 0.0), [(boundary, 0.0)], thresholds
            )
            assert pos == [] and neg == []  # both comparisons are strict

        assert TrainSettings().thresholds == thresholds
        assert TrainSettings().eval_radius == 25.0
        assert RunConfig().eval_radius == 25.0
        assert config.RunConfig().tau_p == 10.0 and RunConfig().tau_n == 25.0

        db = retrieval.DescriptorDatabase(
            ids=["near", "far"],
            geos=np.array([[25.0, 0.0], [100.0, 0.0]]),
            vectors=np.eye(2, dtype=np.float32),
        )
        report = retrieval.recall_at_k(
            np.eye(2, dtype=np.float32)[:1], np.zeros((1, 2)), db,
            ks=(1,), radius=25.0,
        )
        assert report.recalls[1] == 1.0  # exactly 25 m still counts
