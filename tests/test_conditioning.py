"""Model assembly: conditioning semantics, masks, shared parameter registry."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import oracles
from magvlaq import autodiff as ad
from magvlaq import params, tokens, vlaq
from magvlaq.errors import ConfigurationError, DimensionError
from magvlaq.model import GroundBatch, ModelConfig, PlaceModel, _mask_modalities

SYNTH = tokens.SynthConfig(
    num_places=3,
    place_spacing=40.0,
    train_per_place=1,
    test_per_place=1,
    num_scales=2,
    tokens_per_scale=8,
    token_dim=12,
    latent_dim=5,
    noise=0.1,
)
MODEL = ModelConfig(
    raw_dim=12,
    proj_dim=10,
    num_queries=4,
    out_dim=16,
    fuse_dim=6,
    num_scales=2,
    msg_hidden=8,
    dyn_hidden=8,
    cond_hidden=8,
)


@pytest.fixture(scope="module")
def dataset():
    return tokens.generate_synthetic_dataset(SYNTH, 31)


def test_same_seed_gives_bit_identical_parameters():
    a = PlaceModel(MODEL, seed=5)
    b = PlaceModel(MODEL, seed=5)
    assert a.store.names() == b.store.names()
    for name in a.store.names():
        assert a.store[name].value.tobytes() == b.store[name].value.tobytes()


def test_aggregator_choice_does_not_change_initialization():
    a = PlaceModel(MODEL, seed=5)
    b = PlaceModel(dataclasses.replace(MODEL, aggregator="pooling"), seed=5)
    for name in a.store.names():
        assert a.store[name].value.tobytes() == b.store[name].value.tobytes()


# sha256 over (name, value bytes) in name order of PlaceModel(ModelConfig(), seed=7)
FRESH_SEED_7 = {
    np.float32: "8fef72561c05dc74c972c487e82db60d8b887d95ee0879573f04a204cda427f4",
    np.float64: "ae373db78d7e5186c9299c349c767b4e55258aee21701f112a712c54a8fe515a",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("aggregator", ["ode-vlaq", "pooling"])
def test_fresh_default_model_draws_the_same_weights_as_always(aggregator, dtype):
    store = PlaceModel(ModelConfig(aggregator=aggregator), seed=7, dtype=dtype).store
    digest = hashlib.sha256()
    for name, p in store.items():
        digest.update(name.encode())
        digest.update(p.value.tobytes())
    assert digest.hexdigest() == FRESH_SEED_7[dtype]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_weight_draw_has_the_bits_of_one_whole_draw(dtype):
    fan_out = 1000
    fan_in = 3 * (params.DRAW_BLOCK // fan_out) + 5  # three whole blocks and a part
    blocked, whole = np.random.default_rng(3), np.random.default_rng(3)
    w = params.init_weight(params.ParamStore(), "w", fan_in, fan_out, blocked, dtype)
    want = whole.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)).astype(dtype)
    assert w.value.dtype == dtype and w.value.tobytes() == want.tobytes()
    assert blocked.random() == whole.random()  # the draws used the same stream


def test_a_fresh_default_model_draws_no_weight_sized_float64_copy(monkeypatch):
    register, overhead = params.ParamStore.register, {}

    def traced(store, name, shape, dtype, init):
        def draw(value):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            init(value)
            overhead[name] = tracemalloc.get_traced_memory()[1] - before
        return register(store, name, shape, dtype, init and draw)

    monkeypatch.setattr(params.ParamStore, "register", traced)
    tracemalloc.start()
    try:
        store = PlaceModel(ModelConfig(), seed=7).store
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    value_bytes = sum(p.value.nbytes for _, p in store.items())
    moment_bytes = sum(store.first_moment[name].nbytes for name in store.names())
    assert peak < 1.1 * (value_bytes + 2 * moment_bytes), peak / (3 * value_bytes)
    for name, p in store.items():  # a value and its moments are the rows of one block
        assert store.first_moment[name].base is p.value.base is store.second_moment[name].base
    # a draw writes into its value through one float64 block; a whole 8192 x 512 one is 32 MiB
    assert max(overhead.values()) < 8 * params.DRAW_BLOCK + 2**16, overhead


def test_prototype_shift_is_exactly_zero_at_init(dataset):
    m = PlaceModel(MODEL, seed=5)
    obs = dataset.ground[0]
    with ad.no_grad():
        shifts = m.predict_query_shift(m.fusion_embedding(GroundBatch(m, [obs])))
    assert shifts.shape == (1, MODEL.num_queries * MODEL.proj_dim)
    assert np.count_nonzero(shifts.value) == 0
    bank = vlaq.shifted_bank(m.prototypes.value, shifts.value[0], m.config.alpha)
    assert bank.tobytes() == m.prototypes.value.tobytes()


def test_alpha_zero_collapses_to_static_bit_for_bit(dataset):
    static = PlaceModel(dataclasses.replace(MODEL, aggregator="static-vlaq"), seed=5)
    ode0 = PlaceModel(dataclasses.replace(MODEL, alpha=0.0), seed=5)
    # give the conditioner nonzero weights so a non-collapsed path would differ
    for m in (static, ode0):
        m.store["cond.1.w"].value[:] = 0.05
    with ad.no_grad():
        for obs in dataset.ground:
            a = static.ground_forward(obs).descriptor.value
            b = ode0.ground_forward(obs).descriptor.value
            assert a.tobytes() == b.tobytes()


def test_nonzero_alpha_with_trained_conditioner_changes_descriptors(dataset):
    ode = PlaceModel(MODEL, seed=5)
    ode.store["cond.1.w"].value[:] = 0.05
    static = PlaceModel(dataclasses.replace(MODEL, aggregator="static-vlaq"), seed=5)
    static.store["cond.1.w"].value[:] = 0.05
    obs = dataset.ground[0]
    with ad.no_grad():
        a = ode.ground_forward(obs).descriptor.value
        b = static.ground_forward(obs).descriptor.value
    assert not np.array_equal(a, b)


def test_aerial_descriptor_ignores_the_conditioner(dataset):
    m = PlaceModel(MODEL, seed=5)
    ref = dataset.aerial[0]
    with ad.no_grad():
        before = m.aerial_descriptor(ref).value
    m.store["cond.1.w"].value[:] = 7.0
    for idx in range(MODEL.num_scales):
        m.store[f"fuse.dyn.{idx}.1.w"].value[:] = 3.0
    with ad.no_grad():
        after = m.aerial_descriptor(ref).value
    assert before.tobytes() == after.tobytes()


def test_modality_mask_uses_only_the_unmasked_sensor(dataset):
    m = PlaceModel(MODEL, seed=5)
    obs = dataset.ground[0]
    with ad.no_grad():
        img_only = m.ground_forward(obs, mask="image-only").descriptor.value
    trashed = dataclasses.replace(obs)
    trashed.lidar.scales = [a + 100.0 for a in obs.lidar.scales]
    with ad.no_grad():
        img_only_after = m.ground_forward(trashed, mask="image-only").descriptor.value
        both_after = m.ground_forward(trashed).descriptor.value
    assert img_only.tobytes() == img_only_after.tobytes()
    assert not np.array_equal(img_only, both_after)


def test_masked_descriptors_differ_from_fused(dataset):
    m = PlaceModel(MODEL, seed=5)
    obs = dataset.ground[0]
    with ad.no_grad():
        both = m.ground_forward(obs).descriptor.value
        img = m.ground_forward(obs, mask="image-only").descriptor.value
        lid = m.ground_forward(obs, mask="lidar-only").descriptor.value
    assert not np.array_equal(both, img)
    assert not np.array_equal(img, lid)
    for v in (both, img, lid):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6


def test_descriptors_are_unit_norm_and_stated_size(dataset):
    m = PlaceModel(MODEL, seed=5)
    with ad.no_grad():
        g = m.ground_forward(dataset.ground[0]).descriptor.value
        a = m.aerial_descriptor(dataset.aerial[0]).value
    assert g.shape == (1, MODEL.out_dim)
    assert a.shape == (1, MODEL.out_dim)


def test_heatmap_shape_columns_and_pooling_refusal(dataset):
    m = PlaceModel(MODEL, seed=5)
    obs = dataset.ground[0]
    alpha = m.assignment_heatmap(obs)
    n_tokens = 2 * SYNTH.tokens_per_scale  # both modalities' last scale
    assert alpha.shape == (n_tokens, MODEL.num_queries)
    np.testing.assert_allclose(alpha.sum(axis=0), np.ones(MODEL.num_queries),
                               atol=1e-5)
    pool = PlaceModel(dataclasses.replace(MODEL, aggregator="pooling"), seed=5)
    with pytest.raises(ConfigurationError, match="pooling"):
        pool.assignment_heatmap(obs)


@pytest.mark.parametrize("aggregator", ["static-vlaq", "ode-vlaq"])
def test_heatmap_shows_the_bank_ground_forward_uses(dataset, aggregator):
    m = PlaceModel(dataclasses.replace(MODEL, aggregator=aggregator), seed=5)
    rng = np.random.default_rng(4)
    for name, p in m.store.items():
        if name.startswith(("cond.", "fuse.dyn.")) and name.endswith(".w"):
            p.value += rng.normal(0.0, 0.5, size=p.value.shape).astype(p.value.dtype)
    obs = dataset.ground[0]
    for mask in ("both", "lidar-only"):
        for conditioned in (None, False, True):
            with ad.no_grad():
                fwd = m.ground_forward(obs, mask=mask, conditioned=conditioned)
                shift = None if fwd.shift is None else fwd.shift.value[0]
                bank = vlaq.shifted_bank(m.prototypes.value, shift, m.config.alpha)
                toks, counts = GroundBatch(m, [obs]).tokens(_mask_modalities(mask))
                assert counts == [len(toks.value)]
                want = vlaq.assignment_weights(toks.value, bank).astype(np.float32)
            shifted = conditioned or (conditioned is None and aggregator == "ode-vlaq")
            assert (fwd.shift is not None) == shifted
            got = m.assignment_heatmap(obs, mask=mask, conditioned=conditioned)
            np.testing.assert_array_equal(got, want)


def test_wrong_raw_dim_names_the_observation(dataset):
    m = PlaceModel(dataclasses.replace(MODEL, raw_dim=99), seed=5)
    obs = dataset.ground[0]
    with pytest.raises(DimensionError, match=obs.id):
        m.ground_forward(obs)


def test_wrong_scale_count_is_rejected(dataset):
    m = PlaceModel(dataclasses.replace(MODEL, num_scales=3), seed=5)
    with pytest.raises(DimensionError, match="expected 3 scales"):
        m.ground_forward(dataset.ground[0])


def test_config_guards():
    with pytest.raises(ConfigurationError, match="aggregator"):
        dataclasses.replace(MODEL, aggregator="magic").validate()
    with pytest.raises(ConfigurationError, match="activation"):
        dataclasses.replace(MODEL, activation="gelu").validate()
    with pytest.raises(ConfigurationError, match="finite"):
        dataclasses.replace(MODEL, alpha=float("nan")).validate()
    with pytest.raises(ConfigurationError, match="mask"):
        _mask_modalities("thermal-only")


def test_pooling_descriptor_is_mean_projection():
    """The pooling baseline is exactly: project+normalize tokens, mean, linear, unit."""
    rng = np.random.default_rng(8)
    cfg = dataclasses.replace(MODEL, aggregator="pooling")
    m = PlaceModel(cfg, seed=5)
    ds = tokens.generate_synthetic_dataset(SYNTH, 31)
    obs = ds.ground[0]
    with ad.no_grad():
        got = m.ground_forward(obs).descriptor.value
        toks = np.concatenate(
            [
                oracles.layer_norm(
                    oracles.matmul(oracles.constant(getattr(obs, modality).scales[-1]),
                              m.proj[modality]),
                    *m.ln[modality],
                ).value
                for modality in ("image", "lidar")
            ]
        )
    pooled = toks.mean(axis=0, keepdims=True, dtype=np.float64).astype(np.float32)
    raw = pooled @ m.pool_proj.value
    expect = raw / np.linalg.norm(raw.astype(np.float64))
    np.testing.assert_allclose(got, expect, atol=1e-6)
