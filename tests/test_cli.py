"""End-to-end command-line flows on a miniature synthetic run."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magvlaq import cli, config, magt, retrieval, tokens, training
from magvlaq.errors import (
    ConfigurationError,
    ContractError,
    DatasetValidationError,
    TokenFileError,
)
from magvlaq.model import PlaceModel
from magvlaq.params import ParamStore

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


def test_a_sourced_model_adopts_its_arrays_in_registration_order():
    cfg = config.config_from_mapping(dict(TINY))
    fresh = PlaceModel(cfg.model_config(), seed=cfg.seed).store
    given = {}

    def source(name, shape, dtype):
        assert (shape, dtype) == (fresh[name].value.shape, fresh[name].value.dtype)
        given[name] = tuple(np.full(shape, i, dtype=dtype) for i in range(3))
        return given[name]

    store = PlaceModel.from_source(cfg.model_config(), source).store
    assert list(store.params) == list(fresh.params) == list(given)
    for name, p in store.items():
        value, first, second = given[name]
        assert p.value is value
        assert store.first_moment[name] is first
        assert store.second_moment[name] is second


def test_a_sourced_store_never_calls_init():
    def refuse(value):
        raise AssertionError("init called")

    store = ParamStore(lambda name, shape, dtype: (np.ones(shape, dtype),) * 3)
    assert store.register("w", (2, 3), np.float32, refuse).value.shape == (2, 3)


def test_loaded_checkpoint_tensors_are_views_of_one_read(trained):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    _, model = cli.load_checkpoint(trained / "checkpoint.magt")
    store = model.store
    arrays = []
    for name, p in store.items():
        for key, arr in ((f"param.{name}", p.value), (f"adam_m.{name}", store.first_moment[name]),
                         (f"adam_v.{name}", store.second_moment[name])):
            assert arr.tobytes() == entry.tensors[key].tobytes(), key
            assert arr.dtype == np.float32 and arr.flags.c_contiguous and arr.flags.writeable
            arrays.append(arr)
    assert arrays[0].base is not None
    assert all(arr.base is arrays[0].base for arr in arrays)


def test_load_checkpoint_peaks_below_one_and_a_quarter_file_sizes(tmp_path):
    cfg = config.RunConfig()
    path = tmp_path / "ckpt.magt"
    size = cli.save_checkpoint(PlaceModel(cfg.model_config(), seed=cfg.seed), cfg, path)
    tracemalloc.start()
    try:
        cli.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size, f"peak {peak / size:.2f}x the file size"


def test_a_lean_load_reads_the_moments_but_keeps_only_the_parameters(trained):
    path = trained / "checkpoint.magt"
    _, full = cli.load_checkpoint(path)
    _, lean = cli.load_checkpoint(path, moments=False)
    values = [p.value for _, p in lean.store.items()]
    assert values[0].base.nbytes == sum(v.nbytes for v in values)
    assert all(v.base is values[0].base for v in values)
    for name, p in full.store.items():
        assert lean.store[name].value.tobytes() == p.value.tobytes()
        assert lean.store.first_moment[name] is None
        assert lean.store.second_moment[name] is None


def test_lean_load_checkpoint_peaks_below_the_parameters_plus_2_mb(tmp_path):
    cfg = config.RunConfig()
    model = PlaceModel(cfg.model_config(), seed=cfg.seed)
    param_bytes = sum(p.value.nbytes for _, p in model.store.items())
    path = tmp_path / "ckpt.magt"
    cli.save_checkpoint(model, cfg, path)
    del model
    tracemalloc.start()
    try:
        cli.load_checkpoint(path, moments=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param_bytes + 2 * 2**20, f"{peak - param_bytes} bytes over the parameters"


def test_adam_step_on_a_store_loaded_without_moments_raises(trained):
    _, model = cli.load_checkpoint(trained / "checkpoint.magt", moments=False)
    before = {name: p.value.tobytes() for name, p in model.store.items()}
    for _, p in model.store.items():
        p.accumulate_grad(np.ones_like(p.value))
    step = model.store.step
    with pytest.raises(ContractError, match="without its Adam moments"):
        training.adam_step(model.store, lr=1e-3)
    assert model.store.step == step
    assert {name: p.value.tobytes() for name, p in model.store.items()} == before


def test_save_checkpoint_copies_no_tensor(tmp_path):
    """A default checkpoint is ~57 MiB; its tensors go to the file from their
    own memory, so the save allocates little beyond the JSON header."""
    cfg = config.RunConfig()
    model = PlaceModel(cfg.model_config(), seed=cfg.seed)
    path = tmp_path / "ckpt.magt"
    tracemalloc.start()
    try:
        size = cli.save_checkpoint(model, cfg, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 50 * 2**20
    assert peak < 2**20, peak


def test_export_onto_a_directory_exits_3_and_leaves_no_partial_file(trained, tmp_path,
                                                                    capsys):
    out = tmp_path / "descriptors"
    out.mkdir()
    assert cli.main(["export", "--checkpoint", str(trained / "checkpoint.magt"),
                     "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["descriptors"]
    assert not any(out.iterdir())


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


def test_eval_with_an_unknown_heatmap_query_exits_3_before_any_output(trained, tmp_path,
                                                                      capsys):
    report_path = tmp_path / "report.json"
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--out", str(report_path), "--heatmap", str(tmp_path / "heat.csv"),
                   "--query", "nowhere"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == "" and "unknown query id 'nowhere'" in captured.err
    assert not report_path.exists() and not (tmp_path / "heat.csv").exists()


def test_eval_heatmap_of_a_pooling_checkpoint_exits_2_before_any_output(tmp_path, capsys):
    cfg = config.config_from_mapping({**TINY, "aggregator": "pooling"})
    ckpt = tmp_path / "pooling.magt"
    cli.save_checkpoint(PlaceModel(cfg.model_config(), seed=cfg.seed), cfg, ckpt)
    report_path = tmp_path / "report.json"
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(report_path),
                   "--heatmap", str(tmp_path / "heat.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and "no assignment matrix" in captured.err
    assert not report_path.exists() and not (tmp_path / "heat.csv").exists()


@pytest.mark.parametrize("flag", ["--out", "--heatmap"])
def test_eval_into_a_directory_exits_3_before_loading_or_output(trained, tmp_path, capsys,
                                                                monkeypatch, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    monkeypatch.setattr(PlaceModel, "embed_ground", refuse)
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   flag, str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == "" and "Is a directory" in captured.err


def test_eval_of_a_token_file_with_no_aerial_reference_reports_null(trained, tmp_path,
                                                                     capsys):
    cfg = config.config_from_mapping(dict(TINY))
    full = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
    test_only = tokens.TokenDataset(ground=full.split_ground("test"), aerial=[])
    data = tmp_path / "no-aerial.magt"
    tokens.save_token_file(test_only, data, tau_p=cfg.tau_p)
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--data", str(data), "--k", "1,5"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    report = json.loads(captured.out)
    n = len(test_only.ground)
    assert n > 0 and report["num_queries"] == n
    assert report["evaluated"] == 0 and report["excluded_no_relevant"] == n
    assert report["recalls"] == {"1": None, "5": None}


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


@pytest.mark.parametrize("k", ["0", "1,-5", "5,0,10"])
def test_non_positive_k_exits_2_before_loading_or_embedding(trained, capsys, monkeypatch, k):
    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(cli, "load_checkpoint", refuse)
    monkeypatch.setattr(PlaceModel, "embed_ground", refuse)
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"), "--k", k])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --k recall cutoffs must be positive")


@pytest.mark.parametrize("radius", ["-5", "nan", "inf"])
def test_bad_radius_override_exits_2(trained, capsys, radius):
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--radius-m", radius])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "radius" in captured.err


def test_eval_with_no_in_radius_reference_prints_null_recalls(trained, capsys):
    """A zero radius leaves no query with a relevant reference: every recall
    is undefined and prints as null, which strict JSON accepts."""
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--split", "all", "--radius-m", "0"])
    assert rc == 0

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    report = json.loads(capsys.readouterr().out.splitlines()[0], parse_constant=reject)
    assert report["evaluated"] == 0
    assert report["excluded_no_relevant"] == report["num_queries"] > 0
    assert report["recalls"] == {"1": None, "10": None, "5": None}


@pytest.mark.parametrize("key,value", [
    ("eval_radius", -1.0),
    ("eval_radius", float("nan")),
    ("w_triplet", float("nan")),
    ("w_aux", float("inf")),
    ("w_shift", float("-inf")),
])
def test_bad_radius_or_loss_weight_in_config_exits_2(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, key: value}))
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert not (tmp_path / "run").exists()
    err = capsys.readouterr().err
    # a non-finite number fails the type check, which names the field
    assert ("radius" if value == -1.0 else f"{key!r} must be a finite number") in err


FLOAT_FIELDS = [f.name for f in dataclasses.fields(config.RunConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_non_finite_number_in_config_exits_2_before_any_output(tmp_path, capsys, key):
    """JSON's Infinity and NaN (and a literal past the float range) are
    rejected with the config, before config.json or trace.csv is written."""
    assert {"lr", "horizon", "alpha", "eval_radius"} <= set(FLOAT_FIELDS)
    bad = tmp_path / "bad.json"
    for literal in ("Infinity", "-Infinity", "NaN", "1e999"):
        bad.write_text(json.dumps(TINY)[:-1] + f', "{key}": {literal}}}')
        rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert rc == 2, literal
        assert not (tmp_path / "run").exists()
        assert f"{key!r} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train"])
def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"modality_tag": "a\u00e9rien"}'.encode("latin-1"))  # 0xe9 alone
    rc = cli.main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(bad) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ks", [[], [0], [1, -5]])
def test_bad_recall_cutoffs_in_config_exit_2_before_training(tmp_path, capsys, ks):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "eval_ks": ks}))
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "recall cutoff" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("generate", ["--seed", "-1"]),
    ("train", ["--seed", "-5"]),
    ("train", ["--config", "negative-seed.json"]),
], ids=["generate-flag", "train-flag", "config-file"])
def test_a_negative_seed_exits_2_before_any_output(tmp_path, capsys, command, flags):
    (tmp_path / "negative-seed.json").write_text(json.dumps({**TINY, "seed": -3}))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    rc = cli.main([command, *flags, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_checkpoint_whose_run_config_has_a_negative_seed_exits_2(trained, tmp_path,
                                                                  capsys):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    entry.meta["run_config"]["seed"] = -3
    path = tmp_path / "negative-seed.magt"
    magt.write_container([entry], path)
    assert cli.main(["eval", "--checkpoint", str(path)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind,key,value", [
    ("ground-image", "geo", ["x", 1.0]),
    ("aerial", "geo", [None, 1.0]),
    ("aerial", "geo", [10**400, 1.0]),
    ("aerial", "modality_tag", ["satellite"]),
], ids=["string-geo", "null-geo", "huge-int-geo", "list-modality-tag"])
def test_malformed_token_metadata_exits_3_naming_the_entry(trained, tiny_config_path,
                                                           tmp_path, capsys, kind, key, value):
    data = tmp_path / "data.magt"
    assert cli.main(["generate", "--config", str(tiny_config_path), "--out", str(data)]) == 0
    entries = magt.read_container(data)
    victim = next(e for e in entries if e.meta["kind"] == kind)
    victim.meta[key] = value
    magt.write_container(entries, data)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(trained / "checkpoint.magt"),
                   "--data", str(data)])
    assert rc == 3
    assert repr(victim.meta["id"]) in capsys.readouterr().err


def test_checkpoint_validation_rejects_wrong_container(tmp_path, capsys):
    path = tmp_path / "notckpt.magt"
    magt.write_container(
        [magt.ContainerEntry(meta={"id": "x", "kind": "other"},
                             tensors={"t": np.zeros((1, 1), dtype=np.float32)})],
        path,
    )
    assert cli.main(["eval", "--checkpoint", str(path)]) == 3
    assert "not a checkpoint" in capsys.readouterr().err


def _run_on_checkpoint(command, path, tmp_path):
    out = ["--out", str(tmp_path / "descriptors.magt")] if command == "export" else []
    return cli.main([command, "--checkpoint", str(path), *out])


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("key", ["param.prototypes", "adam_m.prototypes",
                                 "adam_v.prototypes"])
def test_wrong_shaped_checkpoint_tensor_exits_3(trained, tmp_path, capsys, key, command):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    # (1, D) would broadcast into the (S, D) buffer if shapes went unchecked
    entry.tensors[key] = entry.tensors[key][:1]
    path = tmp_path / "corrupt.magt"
    magt.write_container([entry], path)
    assert _run_on_checkpoint(command, path, tmp_path) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("key", ["param.agg.proj.w", "adam_m.agg.proj.w",
                                 "adam_v.agg.proj.w"])
def test_non_finite_checkpoint_tensor_exits_3(trained, tmp_path, capsys, key, command):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    entry.tensors[key] = entry.tensors[key].copy()
    entry.tensors[key][0, 0] = np.nan
    path = tmp_path / "corrupt.magt"
    magt.write_container([entry], path)
    assert _run_on_checkpoint(command, path, tmp_path) == 3
    assert key in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_checkpoint(trained, tiny_config_path, tmp_path_factory):
    """A directory with the tiny run's token file and its checkpoint's bytes."""
    root = tmp_path_factory.mktemp("ckpt-fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--config", str(tiny_config_path),
                         "--out", str(root / "data.magt")]) == 0
    return root, (trained / "checkpoint.magt").read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_checkpoints_exit_with_an_error_line_never_a_traceback(fuzz_checkpoint, data):
    """Damaged checkpoint bytes through the lean load of eval and export: a
    truncated file, or bytes the full load rejects, exit 3; no damage ever
    escapes as an exception."""
    root, valid = fuzz_checkpoint
    truncated = data.draw(st.booleans(), label="truncate")
    if truncated:
        damaged = bytearray(valid[: data.draw(st.integers(0, len(valid) - 1))])
    else:
        damaged = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 4))):
            damaged[data.draw(st.integers(0, len(valid) - 1))] = data.draw(st.integers(0, 255))
    path = root / "damaged.magt"
    path.write_bytes(damaged)
    try:
        cli.load_checkpoint(path)
        expected = None  # exit 0, or 3 if a damaged run config no longer fits the tokens
    except (TokenFileError, DatasetValidationError):
        expected = 3
    except ConfigurationError:
        expected = 2
    assert expected == 3 or not truncated
    for command in ("eval", "export"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--checkpoint", str(path), "--data",
                             str(root / "data.magt"), *(["--out", str(root / "d.magt")]
                                                        if command == "export" else [])])
        assert code == expected if expected else code in (0, 3)
        assert (code == 0) == (err.getvalue() == "") and (
            code == 0 or err.getvalue().startswith("error: ")), err.getvalue()


@pytest.mark.parametrize("step", [True, -1, "3"])
def test_bad_optimizer_step_exits_3(trained, tmp_path, capsys, step):
    (entry,) = magt.read_container(trained / "checkpoint.magt")
    entry.meta["step"] = step
    path = tmp_path / "bad-step.magt"
    magt.write_container([entry], path)
    assert cli.main(["eval", "--checkpoint", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "optimizer step" in err


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
