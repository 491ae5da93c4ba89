"""Mining zones, loss oracles, optimizer behavior, and the epoch loop."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magvlaq import autodiff as ad
from magvlaq import retrieval, tokens, training, vlaq
from magvlaq.config import RunConfig
from magvlaq.errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
)
from magvlaq.model import (
    EMBED_CHUNK,
    LN_BLOCK,
    MODALITY_MASKS,
    GroundBatch,
    ModelConfig,
    PlaceModel,
    _mask_modalities,
)
from magvlaq.params import ParamStore

THRESH = training.MiningThresholds(tau_p=10.0, tau_n=25.0)

SYNTH = tokens.SynthConfig(
    num_places=3,
    place_spacing=40.0,
    train_per_place=2,
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
SETTINGS = training.TrainSettings(batch_size=4, lr=1e-3)


def test_mine_pairs_three_zone_partition():
    refs = [(5.0, 0.0), (10.0, 0.0), (15.0, 0.0), (25.0, 0.0), (26.0, 0.0)]
    pos, neg = training.mine_pairs((0.0, 0.0), refs, THRESH)
    assert pos == [0]
    assert neg == [4]  # 10, 15, 25 all fall in the exclusion band


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(-60, 60),
    y=st.floats(-60, 60),
)
def test_mine_pairs_zones_are_exhaustive_and_exclusive(x, y):
    pos, neg = training.mine_pairs((0.0, 0.0), [(x, y)], THRESH)
    d = math.hypot(x, y)
    if d < THRESH.tau_p:
        assert (pos, neg) == ([0], [])
    elif d > THRESH.tau_n:
        assert (pos, neg) == ([], [0])
    else:
        assert (pos, neg) == ([], [])


def test_threshold_order_is_enforced():
    with pytest.raises(ConfigurationError):
        training.MiningThresholds(tau_p=30.0, tau_n=25.0).validate()


def _unit_rows(rng, n, d=6):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _distances(ground, refs):
    return oracles.pairwise_distance(ad.Tensor(np.asarray(ground)),
                                     ad.Tensor(np.asarray(refs))).value


def test_triplet_loss_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    a, p, n = _unit_rows(rng, 3), _unit_rows(rng, 3), _unit_rows(rng, 3)
    margin = 0.1
    got = training.triplet_loss(
        _distances(a, np.concatenate([p, n])), [0, 1, 2], [3, 4, 5], margin
    )[0].item()
    expect = np.mean(
        [
            max(
                0.0,
                margin
                + np.linalg.norm(a[i] - p[i])
                - np.linalg.norm(a[i] - n[i]),
            )
            for i in range(3)
        ]
    )
    assert abs(got - expect) < 1e-6


def test_triplet_loss_is_zero_when_margin_satisfied():
    a = np.array([[1.0, 0.0]])
    p = np.array([[1.0, 0.0]])
    n = np.array([[-1.0, 0.0]])
    got, grad = training.triplet_loss(_distances(a, np.concatenate([p, n])), [0], [1], 0.1)
    assert got.item() == 0.0 and not grad.any()


def test_triplet_loss_alignment_contract():
    with pytest.raises(ContractError):
        training.triplet_loss(np.ones((1, 2)), [0], [], 0.1)
    with pytest.raises(ContractError):
        training.triplet_loss(np.ones((0, 2)), [], [], 0.1)



def test_aux_consistency_matches_hand_computation():
    margin = 0.1
    anchor = np.array([[1.0, 0.0]])
    near_ref = np.array([[0.0, 1.0]])  # distance sqrt(2)
    far_ref = np.array([[1.0, 0.0]])  # distance 0
    got = training.aux_consistency_loss(
        _distances(anchor, np.concatenate([near_ref, far_ref])),
        [(0.0, 0.0)],
        [(5.0, 0.0), (30.0, 0.0)],
        THRESH,
        margin,
    )[0].item()
    close_term = max(0.0, math.sqrt(2.0) - margin)
    far_term = max(0.0, 2 * margin - 0.0)
    assert abs(got - (close_term + far_term) / 2.0) < 1e-6


def test_aux_consistency_band_only_pairs_contribute_nothing():
    anchor = np.ones((1, 2))
    ref = np.zeros((1, 2)) + 0.5
    got, grad = training.aux_consistency_loss(
        _distances(anchor, ref), [(0.0, 0.0)], [(15.0, 0.0)], THRESH, 0.1
    )
    assert got.item() == 0.0 and not grad.any()


def _objective(shifts, weights=training.LossWeights()):
    """The objective node on two anchors, one positive and one negative
    reference each, the anchors' other views in the band. The references sit
    at (0, 0) and (0.75, 0), so the ground rows are at distances (0.5, 0.25),
    (1, 0.25) and, four times, (0.5, 0.5) from them (up to the 1e-12 floor)."""
    band = [0.375, np.sqrt(0.25 - 0.375**2)]
    descriptors = ad.Tensor(np.array([[0.5, 0.0], [1.0, 0.0]] + [band] * 4
                                     + [[0.0, 0.0], [0.75, 0.0]]))
    ground_geos = [(0.0, 0.0), (40.0, 0.0)] + [(20.0, 15.0)] * 4
    settings = training.TrainSettings(weights=weights)
    return training.objective(descriptors, [0, 1], [1, 0], ground_geos,
                              [(0.0, 0.0), (40.0, 0.0)], shifts, settings)


def test_query_shift_regularizer_counts_zero_shifts_in_denominator():
    shifts = ad.Tensor(np.array([[2.0] * 4, [0.0] * 4]))  # squared norms 16 and 0
    assert abs(_objective(shifts)[2].item() - 8.0) < 1e-6
    assert _objective(None)[2].item() == 0.0
    # no ground row at all, and one descriptor row more than the geos place
    for rows, message in ((2, "at least one"), (3, r"\(3, 2\) do not match 0 ground and 2")):
        with pytest.raises(ContractError, match=message):
            training.objective(ad.Tensor(np.ones((rows, 2))), [], [], [],
                               [(0.0, 0.0), (40.0, 0.0)], None, training.TrainSettings())


def test_total_loss_weighting():
    w = training.LossWeights(triplet=2.0, aux=3.0, shift=0.5)
    l_tri, l_aux, l_q, total = _objective(ad.Tensor(np.array([[0.5] * 4, [0.0] * 4])), w)
    # hinges 0.35 and 0 on the triplets, 0.4, 0, 0, 0.15 on the zoned pairs
    np.testing.assert_allclose([l_tri.item(), l_aux.item(), l_q.item()], [0.175, 0.1375, 0.5])
    assert abs(total.item() - (2.0 * l_tri.item() + 3.0 * l_aux.item() + 0.5 * l_q.item())) \
        < 1e-12


def _objective_case(seed, dtype, case):
    """Random objective inputs: unit descriptor rows of 3 views per anchor
    and then of the references, zones from random geos, and a shift row per
    anchor of which some are zero (or, for "no-shift", None for all). For
    "no-aux-pair" every ground row sits in every reference's band."""
    rng = np.random.default_rng([seed, len(case)])
    anchors, refs = int(rng.integers(1, 7)), int(rng.integers(2, 8))
    descriptors = _unit_rows(rng, 3 * anchors + refs).astype(dtype)
    positives = rng.integers(refs, size=anchors)
    negatives = (positives + rng.integers(1, refs, size=anchors)) % refs
    if case == "no-aux-pair":
        reference_geos = [(0.0, 0.0)] * refs
        ground_geos = [(15.0 + 10.0 * rng.random(), 0.0) for _ in range(3 * anchors)]
    else:
        reference_geos = [tuple(g) for g in rng.uniform(-40.0, 40.0, (refs, 2))]
        ground_geos = [tuple(g) for g in rng.uniform(-40.0, 40.0, (anchors, 2))] * 3
    shifts = None if case == "no-shift" else np.stack([
        rng.standard_normal(20).astype(dtype) * (rng.random() < 0.7) for _ in range(anchors)
    ])
    settings = training.TrainSettings(
        margin=0.3, weights=training.LossWeights(triplet=1.3, aux=0.7, shift=0.05))
    return descriptors, positives.tolist(), negatives.tolist(), ground_geos, \
        reference_geos, shifts, settings


@pytest.mark.parametrize("case", ["mixed", "no-aux-pair", "no-shift"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_objective_node_matches_the_composed_oracle(dtype, case):
    """The four values bit for bit; the descriptor and shift gradients up to
    summation order."""
    tol = 1e-12 if dtype == np.float64 else 1e-6
    for seed in range(6):
        descriptors, pos, neg, ground_geos, reference_geos, shifts, settings = \
            _objective_case(seed, dtype, case)
        results = []
        for objective in (training.objective, oracles.objective):
            leaves = [ad.Tensor(descriptors.copy())]
            if shifts is not None:
                leaves.append(ad.Tensor(shifts.copy()))
            parts = objective(leaves[0], pos, neg, ground_geos, reference_geos,
                              leaves[1] if shifts is not None else None, settings)
            ad.backward(parts[3])
            results.append(([p.value for p in parts], [t.grad for t in leaves]))
        (got, got_grads), (want, want_grads) = results
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.shape == (1, 1)
            assert g.tobytes() == w.tobytes(), (seed, got, want)
        if case == "no-aux-pair":
            assert got[1].item() == 0.0
        if case == "no-shift":
            assert got[2].item() == 0.0 and len(got_grads) == 1
        for g, w in zip(got_grads, want_grads):
            scale = max(float(np.abs(w).max()), 1e-30)
            assert float(np.abs(g - w).max()) <= tol * scale, seed


def _add(store, name, value):
    """Register a parameter of ``store`` that starts at ``value``."""
    value = np.asarray(value, order="C")
    return store.register(name, value.shape, value.dtype, lambda out: np.copyto(out, value))


def _adam_reference(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam trajectory for a single parameter starting at zero."""
    p = np.zeros_like(grads[0])
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(1)
    grads = [rng.standard_normal((2, 3)) for _ in range(3)]
    store = ParamStore()
    p = _add(store, "w", np.zeros((2, 3), dtype=np.float64))
    for g in grads:
        p.accumulate_grad(g)
        training.adam_step(store, lr=0.01)
    np.testing.assert_allclose(p.value, _adam_reference(grads, 0.01), atol=1e-12)
    assert store.step == 3
    assert p._grad is None  # gradients cleared after each step


def test_adam_step_is_bit_identical_to_the_reference_formula():
    rng = np.random.default_rng(2)
    # "d" spans three full blocks and a ragged one; "e" is a single element
    shapes = {"a": (3, 4), "b": (1, 5), "c": (7, 2),
              "d": (1, 3 * training.ADAM_BLOCK + 17), "e": (1, 1)}
    stores = []
    for _ in range(2):
        store = ParamStore()
        for dtype in (np.float32, np.float64):
            for name, shape in shapes.items():
                init = np.random.default_rng([len(name), len(shape)]).standard_normal(shape)
                _add(store, f"{name}.{np.dtype(dtype).name}", init.astype(dtype))
        stores.append(store)
    fast, slow = stores
    for _ in range(8):
        for name, p in fast.items():
            g = rng.standard_normal(p.value.shape).astype(p.value.dtype)
            if name != "b.float32":  # one parameter keeps a None gradient
                p.accumulate_grad(g)
                slow[name].accumulate_grad(g)
        training.adam_step(fast, lr=3e-3)
        oracles.adam_step(slow, lr=3e-3)
    assert fast.step == slow.step == 8
    for name in fast.names():
        assert fast[name].value.tobytes() == slow[name].value.tobytes(), name
        assert fast.first_moment[name].tobytes() == slow.first_moment[name].tobytes()
        assert fast.second_moment[name].tobytes() == slow.second_moment[name].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_without_a_gradient_is_bit_identical_to_the_reference_formula(dtype):
    # "zero" starts with moments of signed zeros, "moving" with non-zero ones
    # (and a -0.0); neither has a gradient until the third step
    rng = np.random.default_rng(8)
    shape = (1, training.ADAM_BLOCK + 9)
    init = rng.standard_normal(shape).astype(dtype)
    first = rng.standard_normal(shape).astype(dtype)
    first[0, :3] = -0.0
    second = np.abs(rng.standard_normal(shape)).astype(dtype)
    signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    stores = []
    for _ in range(2):
        store = ParamStore()
        for name in ("zero", "moving"):
            _add(store, name, init.copy())
        store.first_moment["zero"][...] = signed_zeros
        store.second_moment["zero"][...] = signed_zeros
        store.first_moment["moving"][...] = first
        store.second_moment["moving"][...] = second
        stores.append(store)
    fast, slow = stores
    for step in range(3):
        if step == 2:
            g = rng.standard_normal(shape).astype(dtype)
            for store in stores:
                store["zero"].accumulate_grad(g)
        training.adam_step(fast, lr=3e-3)
        oracles.adam_step(slow, lr=3e-3)
        for name in ("zero", "moving"):
            assert fast[name].value.tobytes() == slow[name].value.tobytes(), (step, name)
            assert fast.first_moment[name].tobytes() == slow.first_moment[name].tobytes()
            assert fast.second_moment[name].tobytes() == slow.second_moment[name].tobytes()


def test_adam_builds_no_gradient_for_a_parameter_without_one():
    rng = np.random.default_rng(9)
    store = ParamStore()
    still = _add(store, "still", rng.standard_normal((1024, 1024)).astype(np.float32))
    _add(store, "moving", rng.standard_normal((1, 8)).astype(np.float32))
    store.first_moment["moving"][...] = 1e-3
    tracemalloc.start()
    try:
        training.adam_step(store, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 4 MiB zero gradient would show; the block scratch is 512 KiB
    assert peak < 2**20, peak
    assert still._grad is None


def test_adam_skips_nothing_but_zero_grads_are_no_ops():
    store = ParamStore()
    a = _add(store, "a", np.ones((1, 2), dtype=np.float32))
    b = _add(store, "b", np.ones((1, 2), dtype=np.float32))
    a.accumulate_grad(np.full((1, 2), 0.5))
    training.adam_step(store, lr=0.1)
    assert not np.array_equal(a.value, np.ones((1, 2)))
    np.testing.assert_array_equal(b.value, np.ones((1, 2)))


def test_non_finite_gradient_raises_before_any_mutation():
    store = ParamStore()
    a = _add(store, "healthy", np.ones((1, 2), dtype=np.float32))
    b = _add(store, "sick", np.ones((1, 2), dtype=np.float32))
    a.accumulate_grad(np.full((1, 2), 0.5))
    b.accumulate_grad(np.array([[np.nan, 1.0]]))
    with pytest.raises(DivergenceError, match="sick"):
        training.adam_step(store, lr=0.1)
    np.testing.assert_array_equal(a.value, np.ones((1, 2)))
    np.testing.assert_array_equal(b.value, np.ones((1, 2)))
    assert store.step == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_in_the_ragged_last_block_raises_before_any_mutation(bad):
    rng = np.random.default_rng(5)
    store = ParamStore()
    _add(store, "a.small", rng.standard_normal((2, 3)).astype(np.float32))
    _add(store, "z.large", rng.standard_normal((1, 2 * training.ADAM_BLOCK + 5)).astype(np.float32))
    for _, p in store.items():
        p.accumulate_grad(rng.standard_normal(p.value.shape))
    training.adam_step(store, lr=0.1)
    before = {
        name: (p.value.tobytes(), store.first_moment[name].tobytes(),
               store.second_moment[name].tobytes())
        for name, p in store.items()
    }
    for _, p in store.items():
        p.accumulate_grad(rng.standard_normal(p.value.shape))
    # "a.small" is updated first, so checking as the update goes would move it
    store["z.large"].grad[0, -1] = bad
    with pytest.raises(DivergenceError, match="z.large"):
        training.adam_step(store, lr=0.1)
    assert store.step == 1
    for name, p in store.items():
        after = (p.value.tobytes(), store.first_moment[name].tobytes(),
                 store.second_moment[name].tobytes())
        assert after == before[name], name


def _two_large_parameters():
    store = ParamStore()
    for name in ("a", "b"):
        _add(store, name, np.zeros((1024, 1024), dtype=np.float32))
    return store


# The default model's bound: the finiteness check builds no full-size mask
# (4 MiB for the head). The second: one 512 KiB block scratch for the whole
# step, where one per parameter left two alive at once (1 MiB).
@pytest.mark.parametrize("make_store,bound", [
    (lambda: PlaceModel(ModelConfig(), seed=0).store, 2**20),
    (_two_large_parameters, 600 * 2**10),
], ids=["default-model", "two-1024x1024"])
def test_adam_step_scratch_stays_below_half_the_largest_parameter(make_store, bound):
    store = make_store()
    rng = np.random.default_rng(6)
    for _, p in store.items():
        p.accumulate_grad(rng.standard_normal(p.value.shape).astype(p.value.dtype))
    largest = max(p.value.nbytes for _, p in store.items())
    tracemalloc.start()
    try:
        training.adam_step(store, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest / 2, (peak, largest)
    assert peak < bound, peak


@pytest.fixture(scope="module")
def tiny_dataset():
    return tokens.generate_synthetic_dataset(SYNTH, 17)


def test_train_epoch_runs_and_is_deterministic(tiny_dataset):
    rows = []
    for _ in range(2):
        m = PlaceModel(MODEL, seed=3)
        out = []
        for epoch in range(2):
            rng = np.random.default_rng([3, epoch])
            met = training.train_epoch(m, tiny_dataset, SETTINGS, epoch, rng)
            out.append(met.csv_row().rsplit(",", 1)[0])
        rows.append(out)
    assert rows[0] == rows[1]
    header_cols = training.CSV_HEADER.split(",")
    assert len(rows[0][0].split(",")) == len(header_cols) - 1  # seconds dropped


def test_train_epoch_improves_loss_on_tiny_task(tiny_dataset):
    m = PlaceModel(MODEL, seed=3)
    first = last = None
    for epoch in range(8):
        rng = np.random.default_rng([3, epoch])
        met = training.train_epoch(m, tiny_dataset, SETTINGS, epoch, rng)
        if first is None:
            first = met.total
        last = met.total
    assert math.isfinite(last)
    assert last < first


def test_metrics_csv_row_format():
    met = training.EpochMetrics(
        epoch=2, l_tri=0.5, l_aux=0.25, l_q=0.0, total=0.75,
        recalls={1: 0.5, 5: 1.0, 10: 1.0}, seconds=1.23456,
    )
    row = met.csv_row()
    assert row == "2,0.5,0.25,0,0.75,0.5,1,1,1.235"
    assert training.CSV_HEADER == (
        "epoch,l_tri,l_aux,l_q,total,recall1,recall5,recall10,seconds"
    )


def test_anchors_without_negatives_are_skipped():
    # Keep one place's observations and park every reference within a few
    # meters of its first anchor: all anchors see positives but the negative
    # zone (> tau_n) is empty, so mining skips the whole epoch. Without any
    # reference, every zone is empty.
    ds = tokens.generate_synthetic_dataset(SYNTH, 17)
    keep = ds.ground[: SYNTH.train_per_place + SYNTH.test_per_place]
    cx, cy = keep[0].geo
    aerial = ds.aerial[:2]
    aerial[0].token_set.geo = (cx + 2.0, cy)
    aerial[1].token_set.geo = (cx, cy + 3.0)
    band_ds = tokens.TokenDataset(ground=keep, aerial=aerial)
    no_refs = tokens.TokenDataset(ground=keep, aerial=[])
    m = PlaceModel(MODEL, seed=3)
    for dataset, epoch in [(band_ds, 0), (band_ds, 1), (no_refs, 0), (no_refs, 1)]:
        with pytest.raises(ConfigurationError, match="every anchor .* skipped"):
            training.train_epoch(m, dataset, SETTINGS, epoch, np.random.default_rng(0))


def _mined_epochs(model, dataset, settings, monkeypatch, epochs=2):
    """Per epoch: the (anchor, positive, negative) ids of each batch that
    train_epoch hands to batch_loss, the oracle's batches and skip count for
    the same model and rng, and the epoch's metrics."""
    seen = []
    real = training.batch_loss

    def recording(model, anchors, positives, negatives, settings):
        seen.append(tuple([item.id for item in part] for part in (anchors, positives, negatives)))
        return real(model, anchors, positives, negatives, settings)

    monkeypatch.setattr(training, "batch_loss", recording)
    out = []
    for epoch in range(epochs):
        expected, skipped = oracles.mine_epoch(model, dataset, settings, epoch,
                                               np.random.default_rng([5, epoch]))
        seen.clear()
        met = training.train_epoch(model, dataset, settings, epoch,
                                   np.random.default_rng([5, epoch]))
        out.append((list(seen), expected, skipped, met))
    return out


@pytest.mark.parametrize("config", ["tiny", "default"])
def test_train_epoch_mines_what_the_per_anchor_oracle_mines(config, tiny_dataset, monkeypatch):
    if config == "tiny":
        dataset, model, settings = tiny_dataset, PlaceModel(MODEL, seed=3), SETTINGS
    else:
        cfg = RunConfig()
        dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
        model, settings = PlaceModel(cfg.model_config(), seed=cfg.seed), cfg.train_settings()
    for seen, expected, skipped, met in _mined_epochs(model, dataset, settings, monkeypatch):
        assert seen == expected
        assert met.skipped_anchors == skipped == 0


def _placed(dataset, anchor_geos, reference_geos):
    """The dataset with its train observations and references moved to the
    given geo-positions, in order."""
    train = iter(anchor_geos)
    ground = [_moved(obs, next(train)) if obs.split == "train" else obs for obs in dataset.ground]
    aerial = [
        dataclasses.replace(ref, token_set=dataclasses.replace(ref.token_set, geo=geo))
        for ref, geo in zip(dataset.aerial, reference_geos, strict=True)
    ]
    return tokens.TokenDataset(ground=ground, aerial=aerial)


def test_train_epoch_skips_exactly_the_anchors_without_a_positive_or_a_negative(
        tiny_dataset, monkeypatch):
    # References at 0, 18 and 30 m on a line. The anchors at 9 and 12 m have
    # every reference within tau_n (no negative); the one at 100 m has no
    # positive. The other three have both.
    anchor_geos = [(-5.0, 0.0), (9.0, 0.0), (35.0, 0.0), (100.0, 0.0), (2.0, 0.0), (12.0, 0.0)]
    ds = _placed(tiny_dataset, anchor_geos, [(0.0, 0.0), (18.0, 0.0), (30.0, 0.0)])
    train = ds.split_ground("train")
    assert len(train) == len(anchor_geos)
    geos = [ref.geo for ref in ds.aerial]
    kept = {obs.id for obs in train if all(training.mine_pairs(obs.geo, geos, THRESH))}
    assert {obs.geo for obs in train if obs.id in kept} == {(-5.0, 0.0), (35.0, 0.0), (2.0, 0.0)}
    model = PlaceModel(MODEL, seed=3)
    for seen, expected, skipped, met in _mined_epochs(model, ds, SETTINGS, monkeypatch):
        assert seen == expected
        assert met.skipped_anchors == skipped == 3
        assert sorted(i for anchors, _, _ in seen for i in anchors) == sorted(kept)


def test_evaluate_recall_reports_nan_without_queries(tiny_dataset):
    ds = tokens.TokenDataset(ground=[], aerial=tiny_dataset.aerial)
    m = PlaceModel(MODEL, seed=3)
    rec = training.evaluate_recall(m, ds, SETTINGS)
    assert all(math.isnan(v) for v in rec.values())


def test_embed_lists_match_individual_forwards(tiny_dataset):
    m = PlaceModel(MODEL, seed=3)
    train_obs = tiny_dataset.split_ground("train")
    refs = tiny_dataset.aerial
    # Longer than two chunks with a one-item tail.
    n_long = 2 * EMBED_CHUNK + 1
    long_obs = (train_obs * n_long)[:n_long]
    long_refs = (refs * n_long)[:n_long]
    with ad.no_grad():
        for obs_list, mask in ((train_obs, "both"), (train_obs, "lidar-only"),
                               (train_obs[:1], "both"), (long_obs, "both")):
            rows = m.embed_ground(obs_list, mask=mask)
            assert rows.shape == (len(obs_list), MODEL.out_dim)
            for row, obs in zip(rows, obs_list):
                np.testing.assert_array_equal(
                    row, m.ground_forward(obs, mask=mask).descriptor.value[0]
                )
        for ref_list in (refs, refs[:1], long_refs):
            rows = m.embed_aerial(ref_list)
            assert rows.shape == (len(ref_list), MODEL.out_dim)
            for row, ref in zip(rows, ref_list):
                np.testing.assert_array_equal(row, m.aerial_descriptor(ref).value[0])
    assert m.embed_ground([]).shape == (0, MODEL.out_dim)
    assert m.embed_aerial([]).shape == (0, MODEL.out_dim)


def test_embed_lists_match_individual_forwards_at_the_default_config():
    """At the default config a chunk's many-row matmuls and a single item's
    one-row matmuls take different BLAS kernels, so the list and the single
    paths agree to float32 rounding, not bit for bit as on the tiny model."""
    dataset = tokens.generate_synthetic_dataset(tokens.SynthConfig(), 31)
    model = PlaceModel(ModelConfig(), seed=31)
    rng = np.random.default_rng([31, 1])  # non-zero flows and shifts
    for name, p in model.store.items():
        if name.startswith(("fuse.dyn.", "cond.")) and name.endswith(".w"):
            noise = rng.normal(0.0, 0.5 / math.sqrt(p.value.shape[0]), size=p.value.shape)
            p.value += noise.astype(p.value.dtype)
    observations = dataset.split_ground("train")[:EMBED_CHUNK]
    with ad.no_grad():
        single = [model.ground_forward(obs).descriptor.value[0] for obs in observations]
        np.testing.assert_allclose(model.embed_ground(observations), single, rtol=0, atol=1e-6)
        single = [model.aerial_descriptor(ref).value[0] for ref in dataset.aerial]
        np.testing.assert_allclose(model.embed_aerial(dataset.aerial), single, rtol=0, atol=1e-6)


def _threads(monkeypatch, n: int) -> None:
    """Cap the pool at n threads on a host that offers two CPUs, so that a
    map with n = 2 runs a helper thread on any machine."""
    monkeypatch.setattr(retrieval.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, str(n))


LIST_SIZES = [1, EMBED_CHUNK, EMBED_CHUNK + 1, 2 * EMBED_CHUNK + 1]


@pytest.mark.parametrize("n", LIST_SIZES)
def test_embed_lists_run_one_head_per_chunk(tiny_dataset, monkeypatch, n):
    """Up to EMBED_CHUNK items run one head on the calling thread; a longer
    list runs one head per EMBED_CHUNK // 2 items through one parallel_map."""
    m = PlaceModel(MODEL, seed=3)
    heads, maps = [], []
    real_head, real_map = PlaceModel.head, retrieval.parallel_map

    def counting_head(self, rows):
        heads.append(sum(len(block.value) for block in rows))
        return real_head(self, rows)

    def counting_map(fn, items):
        maps.append(len(items))
        return real_map(fn, items)

    def forbidden(*args, **kwargs):
        raise AssertionError("list embedding must not run one forward per item")

    monkeypatch.setattr(PlaceModel, "head", counting_head)
    monkeypatch.setattr(PlaceModel, "ground_forward", forbidden)
    monkeypatch.setattr(PlaceModel, "aerial_descriptor", forbidden)
    monkeypatch.setattr(retrieval, "parallel_map", counting_map)
    obs = (tiny_dataset.ground * n)[:n]
    refs = (tiny_dataset.aerial * n)[:n]
    for embed, items in ((m.embed_ground, obs), (m.embed_aerial, refs)):
        heads.clear()
        maps.clear()
        assert embed(items).shape == (n, MODEL.out_dim)
        if n <= EMBED_CHUNK:
            assert heads == [n] and maps == []
        else:
            chunks = math.ceil(n / (EMBED_CHUNK // 2))
            assert len(heads) == chunks and sum(heads) == n and maps == [chunks]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", LIST_SIZES)
def test_embed_lists_are_bit_identical_on_one_and_two_threads(tiny_dataset, monkeypatch,
                                                              dtype, n):
    m = PlaceModel(MODEL, seed=3, dtype=dtype)
    obs = (tiny_dataset.ground * n)[:n]
    refs = (tiny_dataset.aerial * n)[:n]
    results = []
    for threads in (1, 2):
        _threads(monkeypatch, threads)
        results.append([m.embed_ground(obs), m.embed_ground(obs, mask="lidar-only"),
                        m.embed_aerial(refs)])
    for serial, threaded in zip(*results):
        assert serial.dtype == dtype and serial.shape == (n, MODEL.out_dim)
        assert serial.tobytes() == threaded.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_embed_lists_raise_the_first_malformed_item_in_input_order(tiny_dataset, monkeypatch,
                                                                   threads):
    """Malformed token matrices in the second and the fourth chunk: the error
    names the second chunk's item, as the serial loop would."""
    _threads(monkeypatch, threads)
    m = PlaceModel(MODEL, seed=3)
    n = 2 * EMBED_CHUNK + 1
    obs = (tiny_dataset.ground * n)[:n]
    refs = (tiny_dataset.aerial * n)[:n]
    for at in (EMBED_CHUNK // 2 + 3, 3 * EMBED_CHUNK // 2 + 5):
        image = dataclasses.replace(obs[at].image, scales=[s[:, :-1] for s in obs[at].image.scales])
        obs[at] = dataclasses.replace(obs[at], id=f"bad-{at}", image=image)
        token_set = dataclasses.replace(refs[at].token_set,
                                        scales=[s[:, :-1] for s in refs[at].token_set.scales])
        refs[at] = dataclasses.replace(refs[at], id=f"bad-{at}", token_set=token_set)
    first = f"bad-{EMBED_CHUNK // 2 + 3}: token matrix shape"
    with pytest.raises(DimensionError, match=first):
        m.embed_ground(obs)
    with pytest.raises(DimensionError, match=first):
        m.embed_aerial(refs)


def test_a_multi_chunk_embed_records_no_tape_for_a_caller_with_gradients_on(tiny_dataset,
                                                                           monkeypatch):
    """The no-grad flag is a ContextVar, which a worker thread does not
    inherit: each chunk must turn it off itself."""
    _threads(monkeypatch, 2)
    m = PlaceModel(MODEL, seed=3)
    n = 2 * EMBED_CHUNK + 1
    seen = []
    real = vlaq.residual_features

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((ad.grad_enabled(), out._parents))
        return out

    monkeypatch.setattr(vlaq, "residual_features", recording)
    assert ad.grad_enabled()
    m.embed_ground((tiny_dataset.ground * n)[:n])
    m.embed_aerial((tiny_dataset.aerial * n)[:n])
    assert len(seen) == 2 * math.ceil(n / (EMBED_CHUNK // 2))
    assert all(taping is False and parents == () for taping, parents in seen)
    assert all(p._grad is None for _, p in m.store.items())


def test_batch_loss_components_are_finite_and_weighted(tiny_dataset):
    m = PlaceModel(MODEL, seed=3)
    train_obs = tiny_dataset.split_ground("train")
    geos = [r.geo for r in tiny_dataset.aerial]
    anchors, pos, neg = [], [], []
    for obs in train_obs[:2]:
        p, n = training.mine_pairs(obs.geo, geos, SETTINGS.thresholds)
        if p and n:
            anchors.append(obs)
            pos.append(tiny_dataset.aerial[p[0]])
            neg.append(tiny_dataset.aerial[n[0]])
    assert anchors, "synthetic layout should always yield minable anchors"
    l_tri, l_aux, l_q, total = training.batch_loss(m, anchors, pos, neg, SETTINGS)
    w = SETTINGS.weights
    expect = w.triplet * l_tri.item() + w.aux * l_aux.item() + w.shift * l_q.item()
    assert abs(total.item() - expect) < 1e-6
    for t in (l_tri, l_aux, l_q):
        assert math.isfinite(t.item()) and t.item() >= 0.0


def _moved(obs, geo):
    """A copy of a ground observation placed at another geo-location."""
    return dataclasses.replace(
        obs,
        image=dataclasses.replace(obs.image, geo=geo),
        lidar=dataclasses.replace(obs.lidar, geo=geo),
    )


def _oracle_batches(ds):
    """Two batches: in the first, reference 1 is anchor 0's negative and
    anchor 1's positive; the second adds an anchor halfway between the two
    references, in both of their bands, so it has no aux pair at all."""
    train = ds.split_ground("train")
    ref0, ref1 = ds.aerial[0], ds.aerial[1]
    geos = [r.geo for r in ds.aerial]
    at0 = next(o for o in train if training.mine_pairs(o.geo, geos, THRESH)[0] == [0])
    at1 = next(o for o in train if training.mine_pairs(o.geo, geos, THRESH)[0] == [1])
    mid = ((ref0.geo[0] + ref1.geo[0]) / 2, (ref0.geo[1] + ref1.geo[1]) / 2)
    band = _moved(at0, mid)
    pos, neg = training.mine_pairs(band.geo, [ref0.geo, ref1.geo], THRESH)
    assert pos == [] and neg == []
    return [
        ([at0, at1], [ref0, ref1], [ref1, ref0]),
        ([at0, band, at1], [ref0, ref0, ref1], [ref1, ref1, ref0]),
    ]


def _loss_and_grads(loss_fn, model, batch):
    parts = loss_fn(model, *batch, SETTINGS)
    ad.backward(parts[3])
    grads = {name: p.grad.copy() for name, p in model.store.items()}
    model.store.zero_grads()
    return [t.value for t in parts], grads


@pytest.mark.parametrize("aggregator", ["ode-vlaq", "static-vlaq", "pooling"])
def test_batched_loss_matches_list_based_oracle(tiny_dataset, aggregator):
    model = PlaceModel(dataclasses.replace(MODEL, aggregator=aggregator), seed=3,
                       dtype=np.float64)
    rng = np.random.default_rng(9)
    for name, p in model.store.items():
        if name.startswith(("cond.", "fuse.dyn.")) and name.endswith(".w"):
            p.value += rng.normal(0.0, 0.5, size=p.value.shape)
    for batch in _oracle_batches(tiny_dataset):
        want, want_grads = _loss_and_grads(oracles.batch_loss, model, batch)
        got, got_grads = _loss_and_grads(training.batch_loss, model, batch)
        assert [g.dtype for g in got] == [w.dtype for w in want] == [np.float64] * 4
        for g, w in zip(got, want):
            assert abs(g.item() - w.item()) <= 1e-10 * abs(w.item()), (got, want)
        assert got[2].item() > 0.0 if aggregator == "ode-vlaq" else got[2].item() == 0.0
        for name, w in want_grads.items():
            scale = max(float(np.abs(w).max()), 1e-300)
            assert float(np.abs(got_grads[name] - w).max()) <= 1e-9 * scale, name


def test_zero_pre_head_row_in_a_batch_is_degenerate(tiny_dataset):
    m = PlaceModel(MODEL, seed=3)
    good = m.aerial_rows(tiny_dataset.aerial[:1])
    zero = ad.Tensor(np.zeros_like(good.value))
    with pytest.raises(DegenerateInputError, match="row 1"):
        m.head([good, zero, good])


def _tape(root) -> list:
    """Every node reachable from root through its parents, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_each_views_residual_features_is_one_node(tiny_dataset):
    """In a training batch, the assignment, residuals and intra-norm of all
    token sets of a view are one node, whose parents are the stacked tokens,
    the prototypes and, for a conditioned view, the shifts. Row i is, bit
    for bit, what the package's kernels give set i over its bank alone."""
    model = PlaceModel(MODEL, seed=3)
    rng = np.random.default_rng(9)
    for name, p in model.store.items():
        if name.startswith(("cond.", "fuse.dyn.")) and name.endswith(".w"):
            p.value += rng.normal(0.0, 0.5, size=p.value.shape).astype(p.value.dtype)
    anchors, positives, _ = _oracle_batches(tiny_dataset)[1]
    batch = GroundBatch(model, anchors)
    views = [(*model.ground_rows(batch, mask, conditioned), _mask_modalities(mask))
             for mask in MODALITY_MASKS for conditioned in (True, False)]
    for rows, shifts, modalities in views:
        token_set, counts = batch.tokens(modalities)
        tokens, *bank = rows._parents
        assert tokens.value.tobytes() == token_set.value.tobytes()
        assert bank == [model.prototypes] + ([] if shifts is None else [shifts])
        assert rows.shape == (len(anchors), model.prototypes.value.size)
        want = oracles.per_set_residual_rows(tokens.value, counts, model.prototypes.value,
                                             None if shifts is None else shifts.value,
                                             model.config.alpha)
        assert rows.value.tobytes() == want.tobytes()
    conditioned = [shifts.value for _, shifts, _ in views if shifts is not None]
    assert len(conditioned) == 3 and all(np.abs(v).max(axis=1).min() > 0 for v in conditioned)
    rows = model.aerial_rows(positives)
    tokens, prototypes = rows._parents
    counts = [len(ref.token_set.scales[-1]) for ref in positives]
    assert prototypes is model.prototypes
    assert rows.value.tobytes() == \
        oracles.per_set_residual_rows(tokens.value, counts, prototypes.value).tobytes()


@pytest.mark.parametrize("aggregator", ["ode-vlaq", "static-vlaq"])
def test_the_batch_objective_is_one_node(tiny_dataset, monkeypatch, aggregator):
    """The total's parents are the head's descriptors (the anchors' three
    views, then the references) and, if the fused view is conditioned, the
    anchors' shifts; the other three parts are values off the tape."""
    model = PlaceModel(dataclasses.replace(MODEL, aggregator=aggregator), seed=3)
    calls = []
    real = training.objective

    def recorded(descriptors, *args):
        calls.append((descriptors, args[4]))
        return real(descriptors, *args)

    monkeypatch.setattr(training, "objective", recorded)
    anchors, positives, negatives = _oracle_batches(tiny_dataset)[1]
    parts = training.batch_loss(model, anchors, positives, negatives, SETTINGS)
    (descriptors, shifts), = calls
    live = [] if shifts is None else [shifts]
    assert len(live) == (aggregator == "ode-vlaq")
    assert all(s.shape == (len(anchors), model.prototypes.value.size) for s in live)
    assert descriptors.value.shape == (3 * len(anchors) + 2, MODEL.out_dim)
    assert len(descriptors._parents) == 5 and descriptors._parents[-1] is model.agg_proj
    assert parts[3]._parents == (descriptors, *live)
    assert all(p._parents == () and p._backward is None for p in parts[:3])


def _default_batch_total(aggregator: str, model: PlaceModel | None = None,
                         dataset: tokens.TokenDataset | None = None) -> ad.Tensor:
    """The total of a default-config training batch of 16 anchors, of a
    fresh model and dataset unless they are given."""
    dataset = dataset or tokens.generate_synthetic_dataset(tokens.SynthConfig(), 0)
    model = model or PlaceModel(ModelConfig(aggregator=aggregator), seed=0)
    settings = training.TrainSettings()
    geos = [ref.geo for ref in dataset.aerial]
    anchors = dataset.split_ground("train")[: settings.batch_size]
    mined = [training.mine_pairs(obs.geo, geos, settings.thresholds) for obs in anchors]
    assert len(anchors) == 16
    return training.batch_loss(
        model, anchors, [dataset.aerial[pos[0]] for pos, _ in mined],
        [dataset.aerial[neg[0]] for _, neg in mined], settings,
    )[3]


@pytest.mark.parametrize("aggregator,bound",
                         [("ode-vlaq", 44), ("static-vlaq", 10), ("pooling", 10)])
def test_default_training_batch_tape_stays_small(aggregator, bound):
    """A default-config batch of 16 anchors: one aggregation node per view,
    one projection node per (modality, scale), one head node and one
    objective node keep the nodes with a backward at or under 44 for
    ode-vlaq (it runs the fusion cascade and the conditioner) and 10 for
    the others."""
    swept = sum(node._backward is not None for node in _tape(_default_batch_total(aggregator)))
    assert swept <= bound, swept


def test_no_two_gradients_of_a_default_training_batch_share_memory():
    """Each node and parameter owns its gradient, though the head hands its
    blocks rows of one array: a sweep may pass a fresh array on only if no
    other node holds it. A node's gradient is recorded as its sweep receives
    it, since backward frees it after the sweep."""
    total = _default_batch_total("ode-vlaq")
    tape, grads = _tape(total), []
    leaves = [node for node in tape if node._backward is None]

    def recording(sweep):
        def run(node):
            grads.append(node._grad)
            sweep(node)
        return run

    for node in tape:
        if node._backward is not None:
            node._backward = recording(node._backward)
    ad.backward(total)
    grads = [g for g in grads + [node._grad for node in leaves] if g is not None]
    assert len(grads) > 40
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_backward_of_a_default_training_batch_copies_no_fresh_gradient():
    """A sweep hands the array it made for one parent over without a copy, so
    backward of a default ode-vlaq batch allocates at most 4 MiB beyond the
    gradients it leaves; the model stays alive, as in training, so those are
    the parameter gradients. Copying the head's 16 MiB weight gradient breaks
    this: that array would be held twice."""
    model = PlaceModel(ModelConfig(), seed=0)
    total = _default_batch_total("ode-vlaq", model)
    tracemalloc.start()
    try:
        ad.backward(total)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 4 * 2**20, (held, peak)


def test_backward_of_a_default_training_batch_frees_its_graph():
    """Once swept, a batch's graph holds no saved forward state and no
    interior gradient: with the model and the loss still referenced, forward
    and backward leave under 1 MiB traced beyond the parameter gradients
    (a graph kept whole after its sweep holds 27 MiB)."""
    dataset = tokens.generate_synthetic_dataset(tokens.SynthConfig(), 0)
    model = PlaceModel(ModelConfig(), seed=0)
    tracemalloc.start()
    try:
        total = _default_batch_total("ode-vlaq", model, dataset)
        ad.backward(total)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p._grad.nbytes for _, p in model.store.items() if p._grad is not None)
    assert total.value.size == 1 and grads > 16 * 2**20
    assert held - grads < 2**20, (held, grads)


def test_a_default_batch_sweeps_each_ground_projection_back_in_layer_norm_blocks(monkeypatch):
    """Backward of a default batch calls layer_norm_backward once per LN_BLOCK
    rows of each ground (modality, scale) projection node, over the state its
    forward saved block by block, not once per observation."""
    model = PlaceModel(ModelConfig(), seed=0)
    swept = []
    layer_norm_backward = ad.layer_norm_backward

    def counting(g, *args):
        swept.append(len(g))
        return layer_norm_backward(g, *args)

    monkeypatch.setattr(ad, "layer_norm_backward", counting)
    total = _default_batch_total("ode-vlaq", model)
    ground = [node for node in _tape(total)
              if any(p is model.proj[m] for m in ("image", "lidar") for p in node._parents)]
    assert len(ground) == 2 * model.config.num_scales
    want = [min(LN_BLOCK, len(node.value) - start)
            for node in ground for start in range(0, len(node.value), LN_BLOCK)]
    ad.backward(total)
    assert sorted(swept) == sorted(want)

