"""Dataset model: synthesis guarantees, validation rules, file round trips."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from magvlaq import cli, magt, tokens
from magvlaq.errors import ConfigurationError, DatasetValidationError

SMALL = tokens.SynthConfig(
    num_places=4,
    place_spacing=40.0,
    train_per_place=2,
    test_per_place=1,
    num_scales=2,
    tokens_per_scale=8,
    token_dim=12,
    latent_dim=5,
    noise=0.1,
    tau_n=25.0,
)


def test_generation_is_deterministic_and_seed_sensitive(tmp_path):
    a = tokens.generate_synthetic_dataset(SMALL, 3)
    b = tokens.generate_synthetic_dataset(SMALL, 3)
    c = tokens.generate_synthetic_dataset(SMALL, 4)
    pa, pb, pc = (tmp_path / n for n in ("a.magt", "b.magt", "c.magt"))
    tokens.save_token_file(a, pa)
    tokens.save_token_file(b, pb)
    tokens.save_token_file(c, pc)
    assert pa.read_bytes() == pb.read_bytes()
    assert pa.read_bytes() != pc.read_bytes()


def test_generated_dataset_shape_and_splits():
    ds = tokens.generate_synthetic_dataset(SMALL, 3)
    assert len(ds.ground) == SMALL.num_places * 3
    assert len(ds.aerial) == SMALL.num_places
    assert len(ds.split_ground("train")) == SMALL.num_places * 2
    assert len(ds.split_ground("test")) == SMALL.num_places * 1
    for obs in ds.ground:
        assert len(obs.image.scales) == SMALL.num_scales
        for arr in obs.image.scales + obs.lidar.scales:
            assert arr.shape == (SMALL.tokens_per_scale, SMALL.token_dim)
            assert arr.dtype == np.float32
    assert tokens.validate_dataset(ds) == []
    # every token matrix is a view of one block, allocated and freed as one
    mats = [m for obs in ds.ground for m in obs.image.scales + obs.lidar.scales]
    mats += [m for ref in ds.aerial for m in ref.token_set.scales]
    assert all(m.base is mats[0].base for m in mats)
    assert mats[0].base.nbytes == sum(m.nbytes for m in mats)


def test_noiseless_tokens_are_linear_in_the_place_latent():
    cfg = dataclasses.replace(SMALL, noise=0.0)
    ds, truth = tokens.generate_with_ground_truth(cfg, 9)
    for obs in ds.ground:
        k = truth.ground_place[obs.id]
        u = truth.place_latents[k]
        for s, arr in enumerate(obs.image.scales):
            expect = (truth.ground_maps["image"][s] @ u).reshape(arr.shape)
            np.testing.assert_allclose(arr, expect, atol=1e-5)
        # a least-squares fit onto the map recovers the latent essentially exactly
        stacked = np.concatenate([a.reshape(-1) for a in obs.lidar.scales])
        amat = np.concatenate(truth.ground_maps["lidar"], axis=0)
        fit, *_ = np.linalg.lstsq(amat, stacked, rcond=None)
        assert np.linalg.norm(amat @ fit - stacked) < 1e-5
        np.testing.assert_allclose(fit, u, atol=1e-4)
    for ref in ds.aerial:
        u = truth.place_latents[truth.aerial_place[ref.id]]
        expect = (truth.aerial_map @ u).reshape(ref.token_set.scales[0].shape)
        np.testing.assert_allclose(ref.token_set.scales[0], expect, atol=1e-5)


def test_latent_nearest_neighbor_is_a_perfect_oracle():
    ds, truth = tokens.generate_with_ground_truth(SMALL, 9)
    hits = 0
    for obs in ds.ground:
        k = truth.ground_place[obs.id]
        u = truth.place_latents[k]
        dists = np.linalg.norm(truth.place_latents - u, axis=1)
        hits += int(np.argmin(dists) == k)
    assert hits == len(ds.ground)


def test_noiseless_token_columns_sum_to_zero_over_tokens():
    """Tokens come in +/- pairs, so mean pooling sees no place signal."""
    cfg = dataclasses.replace(SMALL, noise=0.0)
    ds, _ = tokens.generate_with_ground_truth(cfg, 5)
    for obs in ds.ground:
        for arr in obs.image.scales + obs.lidar.scales:
            np.testing.assert_allclose(
                arr.sum(axis=0), np.zeros(arr.shape[1]), atol=1e-4
            )
    for ref in ds.aerial:
        np.testing.assert_allclose(
            ref.token_set.scales[0].sum(axis=0),
            np.zeros(cfg.token_dim),
            atol=1e-4,
        )


def test_geo_layout_respects_thresholds():
    ds, truth = tokens.generate_with_ground_truth(SMALL, 21)
    centers = truth.place_centers
    for obs in ds.ground:
        k = truth.ground_place[obs.id]
        d = math.hypot(obs.geo[0] - centers[k, 0], obs.geo[1] - centers[k, 1])
        assert d <= SMALL.tau_p / 2 + 1e-9
    for ref in ds.aerial:
        k = truth.aerial_place[ref.id]
        assert ref.geo == (centers[k, 0], centers[k, 1])
    # cross-place distances always exceed the negative threshold
    for i, obs in enumerate(ds.ground):
        for ref in ds.aerial:
            if truth.ground_place[obs.id] != truth.aerial_place[ref.id]:
                d = math.hypot(obs.geo[0] - ref.geo[0], obs.geo[1] - ref.geo[1])
                assert d > SMALL.tau_n


def test_synth_config_guards():
    with pytest.raises(ConfigurationError, match="spacing"):
        dataclasses.replace(SMALL, place_spacing=20.0).validate()
    with pytest.raises(ConfigurationError, match="at least 2"):
        dataclasses.replace(SMALL, num_places=1).validate()
    with pytest.raises(ConfigurationError, match="even"):
        dataclasses.replace(SMALL, tokens_per_scale=7).validate()
    with pytest.raises(ConfigurationError, match="noise"):
        dataclasses.replace(SMALL, noise=-0.5).validate()
    with pytest.raises(ConfigurationError, match="tau_n"):
        dataclasses.replace(SMALL, tau_n=5.0, place_spacing=40.0).validate()


def _tiny_dataset():
    return tokens.generate_synthetic_dataset(SMALL, 13)


def test_validation_flags_duplicate_ids():
    ds = _tiny_dataset()
    ds.ground[1].id = ds.ground[0].id
    rules = {(v.entry_id, v.rule) for v in tokens.validate_dataset(ds)}
    assert (ds.ground[0].id, "duplicate-id") in rules


def test_validation_flags_geo_mismatch_with_id():
    ds = _tiny_dataset()
    bad = ds.ground[2]
    bad.lidar.geo = (bad.lidar.geo[0] + 1.0, bad.lidar.geo[1])
    violations = tokens.validate_dataset(ds)
    assert tokens.Violation(bad.id, "geo-mismatch") in violations


def test_validation_flags_scale_count_mismatch():
    ds = _tiny_dataset()
    bad = ds.ground[0]
    bad.lidar.scales.append(bad.lidar.scales[0].copy())
    violations = tokens.validate_dataset(ds)
    assert tokens.Violation(bad.id, "scale-count-mismatch") in violations


def test_validation_flags_orphan_train_query():
    ds = _tiny_dataset()
    lonely = ds.split_ground("train")[0]
    lonely.image.geo = (9999.0, 9999.0)
    lonely.lidar.geo = (9999.0, 9999.0)
    violations = tokens.validate_dataset(ds)
    assert tokens.Violation(lonely.id, "orphan-query") in violations


def test_validation_flags_bad_split_and_kind():
    ds = _tiny_dataset()
    ds.ground[0].split = "holdout"
    ds.aerial[0].token_set.kind = "ground-image"
    rules = {(v.entry_id, v.rule) for v in tokens.validate_dataset(ds)}
    assert (ds.ground[0].id, "bad-split") in rules
    assert (ds.aerial[0].id, "wrong-kind") in rules


def test_validation_flags_non_finite_tokens():
    ds = _tiny_dataset()
    ds.ground[0].image.scales[0][0, 0] = np.nan
    rules = {(v.entry_id, v.rule) for v in tokens.validate_dataset(ds)}
    assert (ds.ground[0].id, "non-finite-tokens") in rules


def test_save_rejects_invalid_dataset(tmp_path):
    ds = _tiny_dataset()
    bad = ds.ground[0]
    bad.lidar.geo = (bad.lidar.geo[0] + 5.0, bad.lidar.geo[1])
    with pytest.raises(DatasetValidationError, match="geo-mismatch"):
        tokens.save_token_file(ds, tmp_path / "bad.magt")


def test_round_trip_preserves_everything(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    back = tokens.load_token_file(path)
    assert [g.id for g in back.ground] == [g.id for g in ds.ground]
    assert [a.id for a in back.aerial] == [a.id for a in ds.aerial]
    for orig, got in zip(ds.ground, back.ground):
        assert got.split == orig.split
        assert got.geo == orig.geo
        for a, b in zip(orig.image.scales, got.image.scales):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(orig.lidar.scales, got.lidar.scales):
            np.testing.assert_array_equal(a, b)
    for orig, got in zip(ds.aerial, back.aerial):
        assert got.modality_tag == orig.modality_tag
        np.testing.assert_array_equal(
            orig.token_set.scales[0], got.token_set.scales[0]
        )


def test_load_rejects_crafted_geo_mismatch_naming_the_id(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    entries = magt.read_container(path)
    victim = next(e for e in entries if e.meta["id"].endswith("#lidar"))
    victim.meta["geo"] = [victim.meta["geo"][0] + 3.0, victim.meta["geo"][1]]
    magt.write_container(entries, path)
    base = victim.meta["id"].rsplit("#", 1)[0]
    with pytest.raises(DatasetValidationError, match=base):
        tokens.load_token_file(path)


def test_load_rejects_missing_partner_entry(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    entries = magt.read_container(path)
    kept = [e for e in entries if not e.meta["id"].endswith("#lidar")
            or e.meta["id"] != f"{ds.ground[0].id}#lidar"]
    magt.write_container(kept, path)
    with pytest.raises(DatasetValidationError, match="missing its lidar"):
        tokens.load_token_file(path)


def test_load_rejects_unknown_kind(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    entries = magt.read_container(path)
    entries[0].meta["kind"] = "sonar"
    magt.write_container(entries, path)
    with pytest.raises(DatasetValidationError, match="unknown kind"):
        tokens.load_token_file(path)


def test_a_nan_in_a_token_file_exits_3_naming_the_entry_the_exact_scan_names(tmp_path,
                                                                           capsys):
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    entries = magt.read_container(path)
    for entry_id, scale in ((f"{ds.ground[3].id}#lidar", "scale_1"), (ds.aerial[0].id, "scale_0")):
        tensor = next(e for e in entries if e.meta["id"] == entry_id).tensors[scale]
        tensor[2, 3] = np.nan
    magt.write_container(entries, path)
    ds.ground[3].lidar.scales[1][2, 3] = np.nan
    ds.aerial[0].token_set.scales[0][2, 3] = np.nan
    first = tokens.validate_dataset(ds)[0]
    assert first == tokens.Violation(ds.ground[3].id, "non-finite-tokens")
    with pytest.raises(DatasetValidationError) as err:
        tokens.load_token_file(path)
    assert str(err.value) == f"{path}: non-finite-tokens on {first.entry_id!r}"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(path), "--out", str(tmp_path / "run")]) == 3
    assert f"non-finite-tokens on {first.entry_id!r}" in capsys.readouterr().err


def test_a_nan_between_tensors_costs_the_exact_scan_but_never_fails_the_file(tmp_path,
                                                                           monkeypatch):
    """One isfinite pass covers a loaded file's whole buffer. A NaN word in a
    gap between two tensors fails that pass, which falls back to the
    per-matrix scan, and the file still loads with the same tokens."""
    ds = _tiny_dataset()
    path = tmp_path / "ds.magt"
    tokens.save_token_file(ds, path)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: calls.append(x.shape) or isfinite(x))
    tokens.load_token_file(path)
    assert len(calls) == 1

    raw = path.read_bytes()
    head_len = struct.calcsize("<4sIQ")
    header_len = struct.unpack_from("<4sIQ", raw)[2]
    header = json.loads(raw[head_len : head_len + header_len])
    blob = raw[head_len + header_len :]
    records = [r for e in header["entries"] for r in e["tensors"]]
    gap = records[0]["offset"] + 4 * records[0]["rows"] * records[0]["cols"]
    for r in records[1:]:
        r["offset"] += 4
    header = json.dumps(header).encode()
    path.write_bytes(struct.pack("<4sIQ", magt.MAGIC, magt.VERSION, len(header)) + header
                     + blob[:gap] + np.float32(np.nan).tobytes() + blob[gap:])
    calls.clear()
    back = tokens.load_token_file(path)
    n_mats = sum(len(ts.scales) for g in ds.ground for ts in (g.image, g.lidar))
    n_mats += sum(len(a.token_set.scales) for a in ds.aerial)
    assert len(calls) == 1 + n_mats
    for orig, got in zip(ds.ground, back.ground):
        for a, b in zip(orig.image.scales + orig.lidar.scales, got.image.scales + got.lidar.scales):
            assert a.tobytes() == b.tobytes()
