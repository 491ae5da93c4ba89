"""Continuous fusion: solver accuracy/order, the fused flow against the
unrolled oracle, cascade structure, divergence."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magvlaq import autodiff as ad
from magvlaq import fusion, tokens
from magvlaq.errors import ConfigurationError, DivergenceError
from magvlaq.model import GroundBatch, ModelConfig, PlaceModel
from oracles import (
    constant,
    finite_difference_grad,
    layer_norm,
    matmul,
    mlp_forward,
    mul,
    rk4_unrolled,
    sum_all,
)


def _linear(w, b=None) -> list[tuple[ad.Tensor, ad.Tensor]]:
    """One-layer dynamics y' = y @ w + b (b defaults to zero)."""
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros((1, w.shape[1])) if b is None else np.asarray(b, dtype=np.float64)
    return [(ad.Tensor(w), ad.Tensor(b))]


def _random_layers(rng, widths, dtype, gain=1.0):
    return [
        (
            ad.Tensor((rng.standard_normal((fan_in, fan_out)) * gain
                       / np.sqrt(fan_in)).astype(dtype)),
            ad.Tensor((rng.standard_normal((1, fan_out)) * 0.1).astype(dtype)),
        )
        for fan_in, fan_out in zip(widths, widths[1:])
    ]


def _oracle(state, layers, steps, horizon, activation):
    return rk4_unrolled(
        state, lambda y: mlp_forward(y, layers, activation), steps, horizon
    )


def _integrate_exp(steps):
    y0 = ad.Tensor(np.array([[1.0]], dtype=np.float64))
    return fusion.rk4_integrate(y0, _linear([[1.0]]), steps=steps, horizon=1.0)


def test_solver_is_fourth_order_on_exponential_growth():
    errors = [abs(_integrate_exp(s).value[0, 0] - np.e) for s in (2, 4, 8, 16)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0
    assert errors[-1] < 1e-6


def test_solver_matches_elementwise_exponential_oracle():
    rng = np.random.default_rng(0)
    rates = rng.uniform(-1.5, 1.5, size=(1, 6))
    y0 = rng.standard_normal((1, 6))
    out = fusion.rk4_integrate(
        ad.Tensor(y0), _linear(np.diag(rates[0])), steps=64, horizon=1.0
    ).value
    np.testing.assert_allclose(out, y0 * np.exp(rates), rtol=1e-8)


def test_solver_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    y0 = ad.Tensor(rng.standard_normal((1, 4)))
    layers = _random_layers(rng, (4, 5, 4), np.float64, gain=0.8)
    probe = rng.standard_normal((1, 4))

    def build():
        out = fusion.rk4_integrate(y0, layers, steps=4, horizon=1.0)
        return sum_all(mul(out, ad.Tensor(probe)))

    loss = build()
    ad.backward(loss)
    for p in (y0, *(t for layer in layers for t in layer)):
        got = p.grad.copy()
        fd = finite_difference_grad(lambda: build().item(), p.value, h=1e-5)
        np.testing.assert_allclose(got, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fused_forward_is_bit_identical_to_unrolled_oracle(activation, rows):
    """float32 at the model's default dims, weights scaled like a trained
    flow: the fused flow keeps the oracle's operation order exactly."""
    cfg = ModelConfig()
    rng = np.random.default_rng([rows, len(activation)])
    state = ad.Tensor(rng.standard_normal((rows, cfg.fuse_dim)).astype(np.float32))
    layers = _random_layers(
        rng, (cfg.fuse_dim, cfg.dyn_hidden, cfg.fuse_dim), np.float32, gain=0.5
    )
    with ad.no_grad():
        fused = fusion.rk4_integrate(state, layers, cfg.ode_steps, cfg.horizon,
                                     activation)
        want = _oracle(state, layers, cfg.ode_steps, cfg.horizon, activation)
    assert fused.value.dtype == np.float32
    np.testing.assert_array_equal(fused.value, want.value)
    taped = fusion.rk4_integrate(state, layers, cfg.ode_steps, cfg.horizon,
                                 activation)
    np.testing.assert_array_equal(taped.value, want.value)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fused_gradients_match_unrolled_oracle(activation, rows):
    """float64: the hand-written reverse sweep equals the tape's gradient of
    the unrolled solver up to summation order."""
    rng = np.random.default_rng([rows, len(activation), 7])
    state = ad.Tensor(rng.standard_normal((rows, 6)))
    layers = _random_layers(rng, (6, 7, 5, 6), np.float64, gain=0.9)
    probe = constant(rng.standard_normal((rows, 6)))
    leaves = [state, *(t for layer in layers for t in layer)]

    def grads(integrate):
        out = integrate(state, layers, 3, 1.5, activation)
        ad.backward(sum_all(mul(out, probe)))
        got = [p.grad.copy() for p in leaves]
        for p in leaves:
            p.zero_grad()
        return got

    for got, want in zip(grads(fusion.rk4_integrate), grads(_oracle)):
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) / scale < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 3),
    width=st.integers(1, 9),
    hidden=st.integers(1, 9),
    rows=st.integers(1, 12),
    steps=st.integers(1, 6),
    horizon=st.floats(0.05, 2.0),
    relu=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fused_forward_equals_oracle_bit_for_bit(depth, width, hidden, rows,
                                                 steps, horizon, relu, seed):
    rng = np.random.default_rng(seed)
    activation = "relu" if relu else "tanh"
    widths = (width, *([hidden] * (depth - 1)), width)
    layers = _random_layers(rng, widths, np.float32, gain=0.7)
    state = ad.Tensor(rng.standard_normal((rows, width)).astype(np.float32))
    with ad.no_grad():
        fused = fusion.rk4_integrate(state, layers, steps, horizon, activation)
        want = _oracle(state, layers, steps, horizon, activation)
    np.testing.assert_array_equal(fused.value, want.value)


def test_divergent_dynamics_name_the_step():
    """A one-layer float32 flow with a large rate overflows within a few
    steps, with a tape and without."""
    y0 = ad.Tensor(np.array([[1.0]], dtype=np.float32))
    layers = [(ad.Tensor(np.array([[1e3]], dtype=np.float32)),
               ad.Tensor(np.zeros((1, 1), dtype=np.float32)))]
    for mode in (contextlib.nullcontext, ad.no_grad):
        with mode(), np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match=r"step \d+ of 8"
        ):
            fusion.rk4_integrate(y0, layers, steps=8, horizon=4.0)


def test_zero_dynamics_collapse_cascade_to_message_sum():
    rng = np.random.default_rng(2)
    messages = [ad.Tensor(rng.standard_normal((1, 5))) for _ in range(3)]
    zero = _linear(np.zeros((5, 5)))
    out = fusion.fuse(messages, [zero] * 3, "tanh", steps=4, horizon=1.0).value
    expect = sum(m.value for m in messages)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_cascade_order_feeds_deep_flows_into_shallow_initials():
    """With constant dynamics each flow adds its rate once per unit horizon,
    so the cascade output exposes how many flows each message passed through."""
    m1 = ad.Tensor(np.array([[1.0]], dtype=np.float64))
    m2 = ad.Tensor(np.array([[10.0]], dtype=np.float64))
    bump = _linear([[0.0]], [[1.0]])
    out = fusion.fuse([m1, m2], [bump, bump], "tanh", steps=4, horizon=1.0).value
    # deepest: 10 + 1; shallow init: 1 + 11 = 12; shallow flow: +1 -> 13
    np.testing.assert_allclose(out, [[13.0]], atol=1e-12)


def test_fuse_checks_lengths_and_config():
    msgs = [ad.Tensor(np.zeros((1, 2)))] * 2
    identity = _linear(np.eye(2))
    with pytest.raises(ConfigurationError, match="expected 2"):
        fusion.fuse(msgs, [identity], "tanh", 4, 1.0)
    with pytest.raises(ConfigurationError, match="expected 0"):
        fusion.fuse([], [], "tanh", 4, 1.0)
    with pytest.raises(ConfigurationError):
        ModelConfig(ode_steps=0).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig(horizon=0.0).validate()
    state = ad.Tensor(np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        fusion.rk4_integrate(state, identity, steps=0, horizon=1.0)
    with pytest.raises(ConfigurationError, match="activation"):
        fusion.rk4_integrate(state, identity, 4, 1.0, activation="gelu")
    with pytest.raises(ConfigurationError, match="layer 0"):
        fusion.rk4_integrate(state, _linear(np.eye(3)), 4, 1.0)
    with pytest.raises(ConfigurationError, match="state width"):
        fusion.rk4_integrate(state, _linear(np.ones((2, 3))), 4, 1.0)


SMALL_MODEL = ModelConfig(
    raw_dim=12, proj_dim=10, num_queries=4, out_dim=16, fuse_dim=6,
    num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8,
)
SMALL_SYNTH = tokens.SynthConfig(
    num_places=2, place_spacing=40.0, train_per_place=1, test_per_place=0,
    num_scales=2, tokens_per_scale=8, token_dim=12, latent_dim=5, noise=0.1,
)


def test_fusion_embedding_at_init_sums_modality_messages():
    """Dynamics start at zero, so every flow is the identity and the cascade
    returns the sum of the per-scale messages of the unmasked sensors."""
    cfg = SMALL_MODEL
    model = PlaceModel(cfg, seed=3)
    obs = tokens.generate_synthetic_dataset(SMALL_SYNTH, 3).ground[0]
    for modalities in (("image", "lidar"), ("image",), ("lidar",)):
        with ad.no_grad():
            got = model.fusion_embedding(GroundBatch(model, [obs]), modalities).value
            want = sum(
                mlp_forward(
                    ad.mean_rows(layer_norm(
                        matmul(constant(getattr(obs, modality).scales[idx]),
                                  model.proj[modality]),
                        *model.ln[modality],
                    )),
                    model.msg_layers[modality][idx],
                ).value.astype(np.float64)
                for idx in range(cfg.num_scales)
                for modality in modalities
            )
        np.testing.assert_allclose(got, want, atol=1e-6)


def _graph_nodes(root) -> list:
    """Every node reachable from root through its parents."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_fusion_embedding_records_one_node_per_flow():
    """With a tape, each scale's flow is one graph node: the only node with
    that scale's dynamics weights as parents."""
    model = PlaceModel(SMALL_MODEL, seed=3)
    obs = tokens.generate_synthetic_dataset(SMALL_SYNTH, 3).ground[0]
    nodes = _graph_nodes(model.fusion_embedding(GroundBatch(model, [obs])))
    for layers in model.dyn_layers:
        params = {id(t) for layer in layers for t in layer}
        flows = [n for n in nodes if params & {id(p) for p in n._parents}]
        assert len(flows) == 1
        assert {id(p) for p in flows[0]._parents} >= params


def test_each_message_and_conditioner_mlp_is_one_node():
    """With a tape, each message MLP and the conditioner are one graph node
    apiece: the only node with that MLP's weights as parents."""
    model = PlaceModel(SMALL_MODEL, seed=3)
    obs = tokens.generate_synthetic_dataset(SMALL_SYNTH, 3).ground[0]
    nodes = _graph_nodes(
        model.predict_query_shift(model.fusion_embedding(GroundBatch(model, [obs])))
    )
    mlps = [*model.msg_layers["image"], *model.msg_layers["lidar"], model.cond_layers]
    assert len(mlps) == 2 * SMALL_MODEL.num_scales + 1
    for layers in mlps:
        params = {id(t) for layer in layers for t in layer}
        users = [n for n in nodes if params & {id(p) for p in n._parents}]
        assert len(users) == 1
        assert {id(p) for p in users[0]._parents} >= params
