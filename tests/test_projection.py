"""Token projection: one node per (modality, scale) and batch, against the
composed matmul -> layer norm oracle, and its place in a training batch."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from magvlaq import autodiff as ad
from magvlaq import tokens
from magvlaq.errors import DimensionError
from magvlaq.model import LN_BLOCK, GroundBatch, ModelConfig, PlaceModel

MODALITIES = ("image", "lidar", "aerial")


def _model(dtype) -> PlaceModel:
    """A model with the default token and projection widths (96 -> 128) and
    a small bank, whose layer-norm gains and biases are not the identity, so
    the oracle comparison exercises the affine map."""
    model = PlaceModel(ModelConfig(num_queries=4, out_dim=16), seed=2, dtype=dtype)
    rng = np.random.default_rng(3)
    for gain, bias in model.ln.values():
        gain.value[...] = rng.uniform(0.5, 1.5, gain.value.shape)
        bias.value[...] = rng.normal(0.0, 0.1, bias.value.shape)
    return model


def _token_mats(batch: int, ragged: bool, seed: int) -> list[np.ndarray]:
    """Float32 token matrices, as containers hold them; one token each, or
    ragged counts that start with a single token."""
    rng = np.random.default_rng(seed)
    counts = [1, *rng.integers(1, 70, batch - 1)] if ragged else [1] * batch
    return [
        (rng.standard_normal((n, 96)) * 2.0 + rng.standard_normal()).astype(np.float32)
        for n in counts
    ]


def _oracle(model: PlaceModel, x: np.ndarray, modality: str) -> ad.Tensor:
    projected = oracles.matmul(oracles.constant(np.asarray(x, dtype=model.dtype)), model.proj[modality])
    if modality == "aerial":
        return projected
    return oracles.layer_norm(projected, *model.ln[modality])


def _bounds(mats):
    ends = np.cumsum([len(m) for m in mats])
    return [(int(e) - len(m), int(e)) for m, e in zip(mats, ends)]


def _assert_rows_match(model: PlaceModel, got: np.ndarray, mats, modality: str) -> None:
    """Each matrix's rows of a projection equal the composed oracle's bit for
    bit. A float32 layer norm works in float32 with float64 sums: its rows
    equal those of the matrix projected alone, and stay within
    ``oracles.layer_norm_float32_bounds`` of the float64 layer norm of the
    same float32 projection."""
    for x, (start, stop) in zip(mats, _bounds(mats)):
        rows = got[start:stop]
        if modality == "aerial" or model.dtype == np.float64:
            assert rows.tobytes() == _oracle(model, x, modality).value.tobytes()
            continue
        alone = model.project_tokens([x], modality, ["alone"]).value
        assert rows.tobytes() == alone.tobytes()
        projected = x @ model.proj[modality].value
        affine = [p.value for p in model.ln[modality]]
        want = oracles.layer_norm(*(ad.Tensor(a.astype(np.float64))
                                    for a in (projected, *affine))).value
        bound = oracles.layer_norm_float32_bounds(projected, *affine, np.zeros_like(projected))[0]
        assert (np.abs(rows - want) <= bound).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 17])
@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("modality", MODALITIES)
def test_projection_rows_match_the_composed_oracle_bit_for_bit(modality, ragged, batch,
                                                               dtype):
    model = _model(dtype)
    mats = _token_mats(batch, ragged, seed=batch)
    with ad.no_grad():
        got = model.project_tokens(mats, modality, [f"o{i}" for i in range(batch)]).value
        assert got.dtype == dtype and got.shape == (sum(map(len, mats)), 128)
        _assert_rows_match(model, got, mats, modality)


def _long_stack(dtype) -> list[np.ndarray]:
    """Token matrices whose stack spans several LN_BLOCK-row blocks; one of
    them is longer than a block and straddles two block boundaries."""
    rng = np.random.default_rng(11)
    counts = [100, 2 * LN_BLOCK + 9, 64, 1, LN_BLOCK, 200]
    return [(rng.standard_normal((n, 96)) * 2.0 + 0.5).astype(dtype) for n in counts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("modality", MODALITIES)
def test_a_stack_of_several_layer_norm_blocks_matches_the_oracle_bit_for_bit(modality,
                                                                            dtype):
    model = _model(dtype)
    mats = _long_stack(dtype)
    assert sum(map(len, mats)) > 4 * LN_BLOCK
    with ad.no_grad():
        got = model.project_tokens(mats, modality, [f"o{i}" for i in range(len(mats))]).value
        _assert_rows_match(model, got, mats, modality)


@pytest.mark.parametrize("stack", ["ragged", "long"])
@pytest.mark.parametrize("modality", MODALITIES)
def test_projection_gradients_match_the_composed_oracle(modality, stack):
    model = _model(np.float64)
    mats = _token_mats(5, ragged=True, seed=7) if stack == "ragged" else _long_stack(np.float32)
    upstream = np.random.default_rng(8).standard_normal((sum(map(len, mats)), 128))
    params = [model.proj[modality], *model.ln.get(modality, ())]
    grads = []
    for build in (
        lambda: model.project_tokens(mats, modality, ["o"] * len(mats)),
        lambda: ad.concat_rows([_oracle(model, x, modality) for x in mats],
                               [[len(x)] for x in mats]),
    ):
        model.store.zero_grads()
        ad.backward(oracles.sum_all(oracles.mul(build(), oracles.constant(upstream))))
        grads.append([p.grad.copy() for p in params])
    for got, want in zip(*grads):
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) <= 1e-9 * scale


def test_projection_names_the_owner_of_a_bad_matrix():
    model = _model(np.float32)
    mats = _token_mats(3, ragged=True, seed=1)
    mats[1] = mats[1][:, :95]
    with pytest.raises(DimensionError, match="o1: token matrix shape"):
        model.project_tokens(mats, "image", ["o0", "o1", "o2"])


def _nodes(root) -> list:
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_a_batch_projects_each_modality_and_scale_once():
    """With a tape, the fused and the unconditioned single-sensor views of a
    batch, as a training batch takes them, read one projection node per
    (modality, scale): the only nodes with a projection weight as parent."""
    cfg = ModelConfig(raw_dim=12, proj_dim=10, num_queries=4, out_dim=16, fuse_dim=6,
                      num_scales=3, msg_hidden=8, dyn_hidden=8, cond_hidden=8)
    synth = tokens.SynthConfig(num_places=3, place_spacing=40.0, train_per_place=2,
                               test_per_place=0, num_scales=3, tokens_per_scale=8,
                               token_dim=12, latent_dim=5, noise=0.1)
    model = PlaceModel(cfg, seed=3)
    batch = GroundBatch(model, tokens.generate_synthetic_dataset(synth, 3).ground)
    rows = [
        model.ground_rows(batch)[0],
        model.ground_rows(batch, "image-only", conditioned=False)[0],
        model.ground_rows(batch, "lidar-only", conditioned=False)[0],
    ]
    nodes = _nodes(model.head(rows))
    for modality in ("image", "lidar"):
        users = [n for n in nodes if any(p is model.proj[modality] for p in n._parents)]
        assert len(users) == cfg.num_scales


def test_embedding_64_default_observations_stays_under_15_mib():
    """The layer norm's scratch spans one LN_BLOCK-row block, not a
    whole (modality, scale) stack, so embedding a full chunk stays small."""
    dataset = tokens.generate_synthetic_dataset(tokens.SynthConfig(), 0)
    model = PlaceModel(ModelConfig(), seed=0)
    observations = dataset.ground[:64]
    model.embed_ground(observations[:2])
    tracemalloc.start()
    try:
        model.embed_ground(observations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(observations) == 64
    assert peak <= 15 * 2**20, peak


class _Reductions(np.ndarray):
    """An array view that counts the ufunc reductions run on it."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method.startswith("reduce"):
            _Reductions.count += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_embedding_64_default_observations_normalizes_and_pools_in_blocks(monkeypatch):
    """Each ground (modality, scale) node layer-normalizes its 64 x 64 token
    rows in 16 calls of LN_BLOCK rows, not 64 calls of one observation each,
    and pools its 64 equal segments with one reduction."""
    dataset = tokens.generate_synthetic_dataset(tokens.SynthConfig(), 0)
    model = PlaceModel(ModelConfig(), seed=0)
    ln_rows, pool_reductions = [], []
    layer_norm_values, mean_rows = ad.layer_norm_values, ad.mean_rows

    def counting_layer_norm(x, *args):
        ln_rows.append(len(x))
        return layer_norm_values(x, *args)

    def counting_mean_rows(a, counts=None):
        viewed = ad.Tensor(a.value)
        viewed.value = a.value.view(_Reductions)
        _Reductions.count = 0
        out = mean_rows(viewed, counts)
        pool_reductions.append((len(counts), _Reductions.count))
        return out

    monkeypatch.setattr(ad, "layer_norm_values", counting_layer_norm)
    monkeypatch.setattr(ad, "mean_rows", counting_mean_rows)
    model.embed_ground(dataset.ground[:64])
    nodes = 2 * model.config.num_scales
    assert ln_rows == [LN_BLOCK] * 16 * nodes
    assert pool_reductions == [(64, 1)] * nodes
