"""End-to-end command-line flows on a miniature synthetic run."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from magvlaq import cli, config, magt, retrieval, tokens
from magvlaq.errors import ConfigurationError
from magvlaq.model import PlaceModel

TINY = {
    "seed": 5,
    "epochs": 2,
    "batch_size": 4,
    "num_places": 3,
    "place_spacing": 40.0,
    "train_per_place": 2,
    "test_per_place": 1,
    "num_scales": 2,
    "tokens_per_scale": 8,
    "raw_dim": 12,
    "latent_dim": 5,
    "proj_dim": 10,
    "num_queries": 4,
    "out_dim": 16,
    "fuse_dim": 6,
    "msg_hidden": 8,
    "dyn_hidden": 8,
    "cond_hidden": 8,
}


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture(scope="module")
def trained(tiny_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(["train", "--config", str(tiny_config_path), "--out", str(out)])
    assert rc == 0
    return out


def _trace_without_seconds(path):
    lines = path.read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_generate_then_inspect_then_load(tiny_config_path, tmp_path, capsys):
    data = tmp_path / "tiny.magt"
    assert cli.main(["generate", "--config", str(tiny_config_path),
                     "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "9 ground observations" in out and "3 aerial references" in out

    assert cli.main(["inspect", str(data)]) == 0
    out = capsys.readouterr().out
    assert "21 entries" in out  # 9 observations x 2 modalities + 3 references
    assert "g000_00#image kind=ground-image split=train" in out

    ds = tokens.load_token_file(data)
    assert len(ds.ground) == 9 and len(ds.aerial) == 3


def test_train_writes_config_trace_and_checkpoint(trained, capsys):
    saved_cfg = json.loads((trained / "config.json").read_text())
    for key, value in TINY.items():
        assert saved_cfg[key] == value

    lines = (trained / "trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,l_tri,l_aux,l_q,total,recall1,recall5,recall10,seconds"
    assert len(lines) == 1 + TINY["epochs"]
    for epoch, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(epoch)
        assert len(cells) == 9
        assert all(np.isfinite(float(c)) for c in cells[1:])

    run_cfg, model = cli.load_checkpoint(trained / "checkpoint.magt")
    assert run_cfg.epochs == TINY["epochs"]
    assert model.store.step > 0


def test_train_rerun_is_identical_except_timing(tiny_config_path, trained,
                                                tmp_path, capsys):
    again = tmp_path / "again"
    assert cli.main(["train", "--config", str(tiny_config_path),
                     "--out", str(again)]) == 0
    assert _trace_without_seconds(again / "trace.csv") == _trace_without_seconds(
        trained / "trace.csv"
    )
    assert (again / "checkpoint.magt").read_bytes() == (
        trained / "checkpoint.magt"
    ).read_bytes()


def test_checkpoint_roundtrip_preserves_optimizer_state(tmp_path):
    cfg = config.config_from_mapping(dict(TINY))
    model = PlaceModel(cfg.model_config(), seed=cfg.seed)
    rng = np.random.default_rng(9)
    from magvlaq.training import adam_step

    for _ in range(2):
        for _, p in model.store.items():
            p.accumulate_grad(rng.standard_normal(p.value.shape))
        adam_step(model.store, lr=1e-3)

    path = tmp_path / "ckpt.magt"
    cli.save_checkpoint(model, cfg, path)
    loaded_cfg, loaded = cli.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded.store.step == 2
    for name, p in model.store.items():
        np.testing.assert_array_equal(loaded.store[name].value, p.value)
        np.testing.assert_array_equal(
            loaded.store.first_moment[name], model.store.first_moment[name]
        )
        np.testing.assert_array_equal(
            loaded.store.second_moment[name], model.store.second_moment[name]
        )


def test_load_values_converts_other_dtypes_and_adopts_matching_ones():
    cfg = config.config_from_mapping(dict(TINY))
    store = PlaceModel(cfg.model_config(), seed=cfg.seed).store
    rng = np.random.default_rng(3)
    wide = {name: rng.standard_normal(p.value.shape) for name, p in store.items()}
    store.load_values(wide)
    for name, p in store.items():
        assert p.value.dtype == np.float32
        np.testing.assert_array_equal(p.value, wide[name].astype(np.float32))
    narrow = {name: p.value.copy() for name, p in store.items()}
    store.load_values(narrow)
    for name, p in store.items():
        assert p.value is narrow[name]


def test_loaded_checkpoint_evaluates_like_the_model_that_saved_it(tmp_path, capsys):
    cfg = config.config_from_mapping(dict(TINY))
    model = PlaceModel(cfg.model_config(), seed=cfg.seed)
    rng = np.random.default_rng(4)
    for _, p in model.store.items():
        p.value = p.value + (0.1 * rng.standard_normal(p.value.shape)).astype(p.value.dtype)
    path = tmp_path / "ckpt.magt"
    cli.save_checkpoint(model, cfg, path)

    assert cli.main(["eval", "--checkpoint", str(path), "--split", "all"]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
    db = retrieval.DescriptorDatabase(
        ids=[ref.id for ref in dataset.aerial],
        geos=np.array([ref.geo for ref in dataset.aerial], dtype=np.float64),
        vectors=model.embed_aerial(dataset.aerial),
    )
    ground_vecs = model.embed_ground(dataset.ground)
    query_geos = np.array([obs.geo for obs in dataset.ground], dtype=np.float64)
    report = retrieval.recall_at_k(ground_vecs, query_geos, db,
                                   ks=cfg.eval_ks, radius=cfg.eval_radius)
    assert printed == report.to_json()

    out = tmp_path / "descriptors.magt"
    assert cli.main(["export", "--checkpoint", str(path), "--out", str(out)]) == 0
    exported = np.concatenate(
        [e.tensors["descriptor"] for e in magt.read_container(out)]
    )
    np.testing.assert_array_equal(exported, np.concatenate([ground_vecs, db.vectors]))


def test_eval_report_masks_and_heatmap(tiny_config_path, trained, tmp_path, capsys):
    ckpt = str(trained / "checkpoint.magt")
    report_path = tmp_path / "report.json"
    heat_path = tmp_path / "heat.csv"
    rc = cli.main([
        "eval", "--checkpoint", ckpt, "--k", "1,3", "--out", str(report_path),
        "--heatmap", str(heat_path), "--query", "g000_00",
    ])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    report = json.loads(printed[0])
    assert set(report["recalls"]) == {"1", "3"}
    assert report["num_queries"] == 3  # one test observation per place
    assert json.loads(report_path.read_text()) == report
    assert f"wrote heatmap for g000_00 to {heat_path}" in printed[1]

    heat_lines = heat_path.read_text().splitlines()
    assert heat_lines[0] == "token_index," + ",".join(
        f"q{j}" for j in range(TINY["num_queries"])
    )
    # ground tokens at the deepest scale: image block plus lidar block
    assert len(heat_lines) == 1 + 2 * TINY["tokens_per_scale"]

    for mask in ("image-only", "lidar-only"):
        assert cli.main(["eval", "--checkpoint", ckpt,
                         "--modality-mask", mask]) == 0
        masked = json.loads(capsys.readouterr().out.splitlines()[0])
        assert set(masked["recalls"]) == {"1", "5", "10"}


def test_eval_accepts_external_dataset_file(tiny_config_path, trained,
                                            tmp_path, capsys):
    data = tmp_path / "tiny.magt"
    assert cli.main(["generate", "--config", str(tiny_config_path),
                     "--out", str(data)]) == 0
    capsys.readouterr()
    ckpt = str(trained / "checkpoint.magt")
    assert cli.main(["eval", "--checkpoint", ckpt]) == 0
    implicit = capsys.readouterr().out.splitlines()[0]
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", str(data)]) == 0
    explicit = capsys.readouterr().out.splitlines()[0]
    assert implicit == explicit  # same seed, same synthetic dataset


def test_export_writes_unit_descriptors(trained, tmp_path, capsys):
    out = tmp_path / "descriptors.magt"
    assert cli.main(["export", "--checkpoint",
                     str(trained / "checkpoint.magt"), "--out", str(out)]) == 0
    entries = magt.read_container(out)
    assert len(entries) == 12  # 9 ground + 3 aerial
    branches = {e.meta["branch"] for e in entries}
    assert branches == {"ground", "aerial"}
    for entry in entries:
        vec = entry.tensors["descriptor"]
        assert vec.shape == (1, TINY["out_dim"])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-5
        assert entry.meta["kind"] == "descriptor"
        assert len(entry.meta["geo"]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "warp_factor": 9}))
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "warp_factor" in capsys.readouterr().err


def test_bad_k_argument_exits_2(trained, capsys):
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--k", "one,five"])
    assert rc == 2
    assert "--k" in capsys.readouterr().err


def test_missing_files_exit_3(tmp_path, capsys):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "none.magt")]) == 3
    assert cli.main(["inspect", str(tmp_path / "none.magt")]) == 3
    garbage = tmp_path / "garbage.magt"
    garbage.write_bytes(b"not a container at all")
    assert cli.main(["inspect", str(garbage)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("records", [
    [{"name": [1], "rows": 1, "cols": 1, "offset": 0}],
    [{"name": "w", "rows": 1, "cols": 1, "offset": 0},
     {"name": "w", "rows": 1, "cols": 1, "offset": 4}],
], ids=["unhashable-name", "duplicate-name"])
def test_malformed_tensor_records_exit_3(tmp_path, capsys, records):
    header = json.dumps({"entries": [{"id": "x", "tensors": records}]}).encode()
    path = tmp_path / "crafted.magt"
    path.write_bytes(struct.pack("<4sIQ", magt.MAGIC, magt.VERSION, len(header))
                     + header + b"\x00" * 8)
    assert cli.main(["inspect", str(path)]) == 3
    assert "tensor" in capsys.readouterr().err


def test_checkpoint_validation_rejects_wrong_container(tmp_path, capsys):
    path = tmp_path / "notckpt.magt"
    magt.write_container(
        [magt.ContainerEntry(meta={"id": "x", "kind": "other"},
                             tensors={"t": np.zeros((1, 1), dtype=np.float32)})],
        path,
    )
    assert cli.main(["eval", "--checkpoint", str(path)]) == 3
    assert "not a checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["param.prototypes", "adam_m.prototypes",
                                 "adam_v.prototypes"])
def test_wrong_shaped_checkpoint_tensor_exits_3(trained, tmp_path, capsys, key):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    # (1, D) would broadcast into the (S, D) buffer if shapes went unchecked
    entry.tensors[key] = entry.tensors[key][:1]
    path = tmp_path / "corrupt.magt"
    magt.write_container([entry], path)
    assert cli.main(["eval", "--checkpoint", str(path)]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["param.agg.proj.w", "adam_m.agg.proj.w",
                                 "adam_v.agg.proj.w"])
def test_non_finite_checkpoint_tensor_exits_3(trained, tmp_path, capsys, key):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    entry.tensors[key] = entry.tensors[key].copy()
    entry.tensors[key][0, 0] = np.nan
    path = tmp_path / "corrupt.magt"
    magt.write_container([entry], path)
    assert cli.main(["eval", "--checkpoint", str(path)]) == 3
    assert key in capsys.readouterr().err


def test_config_defaults_and_json_roundtrip():
    cfg = config.RunConfig()
    cfg.validate()
    back = config.config_from_mapping(json.loads(cfg.to_json()))
    assert back == cfg


def test_config_loader_is_strict(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lr": "fast"}))
    with pytest.raises(ConfigurationError, match="number"):
        config.load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="object"):
        config.load_config(path)
    path.write_text("{nope")
    with pytest.raises(ConfigurationError, match="JSON"):
        config.load_config(path)
    assert config.load_config(None, seed=3).seed == 3
    assert config.load_config(None, seed=None).seed == config.RunConfig().seed


def test_cli_overrides_beat_config_file(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "static"
    rc = cli.main(["train", "--config", str(tiny_config_path), "--out", str(out),
                   "--epochs", "1", "--aggregator", "static-vlaq", "--seed", "6"])
    assert rc == 0
    capsys.readouterr()
    saved = json.loads((out / "config.json").read_text())
    assert saved["epochs"] == 1
    assert saved["aggregator"] == "static-vlaq"
    assert saved["seed"] == 6
    assert len((out / "trace.csv").read_text().splitlines()) == 2
