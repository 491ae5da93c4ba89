"""Continuous fusion: solver accuracy/order, cascade structure, divergence."""

from __future__ import annotations

import numpy as np
import pytest

from magvlaq import autodiff as ad
from magvlaq import fusion, tokens
from magvlaq.errors import ConfigurationError, DivergenceError
from magvlaq.model import ModelConfig, PlaceModel


def _integrate_exp(steps):
    y0 = ad.Tensor(np.array([[1.0]], dtype=np.float64))
    return fusion.rk4_integrate(y0, lambda y: y, steps=steps, horizon=1.0)


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
        ad.Tensor(y0),
        lambda y: ad.mul(y, ad.Tensor(rates)),
        steps=64,
        horizon=1.0,
    ).value
    np.testing.assert_allclose(out, y0 * np.exp(rates), rtol=1e-8)


def test_solver_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    y0 = ad.Tensor(rng.standard_normal((1, 4)))
    w = ad.Tensor(rng.standard_normal((4, 4)) * 0.4)
    probe = rng.standard_normal((1, 4))

    def build():
        out = fusion.rk4_integrate(
            y0, lambda y: ad.tanh(ad.matmul(y, w)), steps=4, horizon=1.0
        )
        return ad.sum_all(ad.mul(out, ad.Tensor(probe)))

    loss = build()
    ad.backward(loss)
    for p in (y0, w):
        got = p.grad.copy()
        fd = ad.finite_difference_grad(lambda: build().item(), p.value, h=1e-5)
        np.testing.assert_allclose(got, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_divergent_dynamics_name_the_step():
    y0 = ad.Tensor(np.array([[10.0]], dtype=np.float64))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=r"step \d+ of 8"):
        fusion.rk4_integrate(y0, lambda y: ad.mul(ad.mul(y, y), y), steps=8,
                             horizon=4.0)


def test_zero_dynamics_collapse_cascade_to_message_sum():
    rng = np.random.default_rng(2)
    cfg = fusion.FusionConfig(fuse_dim=5, num_scales=3, steps=4, horizon=1.0)
    messages = [ad.Tensor(rng.standard_normal((1, 5))) for _ in range(3)]
    zero = lambda y: ad.scale(y, 0.0)
    out = fusion.fuse(messages, [zero] * 3, cfg).value
    expect = sum(m.value for m in messages)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_cascade_order_feeds_deep_flows_into_shallow_initials():
    """With constant dynamics each flow adds its rate once per unit horizon,
    so the cascade output exposes how many flows each message passed through."""
    cfg = fusion.FusionConfig(fuse_dim=1, num_scales=2, steps=4, horizon=1.0)
    m1 = ad.Tensor(np.array([[1.0]], dtype=np.float64))
    m2 = ad.Tensor(np.array([[10.0]], dtype=np.float64))
    bump = lambda y: ad.add(ad.scale(y, 0.0), ad.Tensor(np.array([[1.0]])))
    out = fusion.fuse([m1, m2], [bump, bump], cfg).value
    # deepest: 10 + 1; shallow init: 1 + 11 = 12; shallow flow: +1 -> 13
    np.testing.assert_allclose(out, [[13.0]], atol=1e-12)


def test_fuse_checks_lengths_and_config():
    cfg = fusion.FusionConfig(fuse_dim=2, num_scales=2)
    msgs = [ad.Tensor(np.zeros((1, 2)))]
    with pytest.raises(ConfigurationError, match="expected 2"):
        fusion.fuse(msgs, [lambda y: y], cfg)
    with pytest.raises(ConfigurationError):
        fusion.FusionConfig(steps=0).validate()
    with pytest.raises(ConfigurationError):
        fusion.FusionConfig(horizon=0.0).validate()
    with pytest.raises(ConfigurationError):
        fusion.rk4_integrate(ad.Tensor(np.zeros((1, 2))), lambda y: y, steps=0,
                             horizon=1.0)


def test_fusion_embedding_at_init_sums_modality_messages():
    """Dynamics start at zero, so every flow is the identity and the cascade
    returns the sum of the per-scale messages of the unmasked sensors."""
    cfg = ModelConfig(
        raw_dim=12, proj_dim=10, num_queries=4, out_dim=16, fuse_dim=6,
        num_scales=2, msg_hidden=8, dyn_hidden=8, cond_hidden=8,
    )
    synth = tokens.SynthConfig(
        num_places=2, place_spacing=40.0, train_per_place=1, test_per_place=0,
        num_scales=2, tokens_per_scale=8, token_dim=12, latent_dim=5, noise=0.1,
    )
    model = PlaceModel(cfg, seed=3)
    obs = tokens.generate_synthetic_dataset(synth, 3).ground[0]
    for modalities in (("image", "lidar"), ("image",), ("lidar",)):
        with ad.no_grad():
            got = model.fusion_embedding(obs, modalities).value
            want = sum(
                ad.mlp_forward(
                    ad.mean_rows(model.project_tokens(
                        getattr(obs, modality).scales[idx], modality
                    )),
                    model.msg_layers[modality][idx],
                ).value.astype(np.float64)
                for idx in range(cfg.num_scales)
                for modality in modalities
            )
        np.testing.assert_allclose(got, want, atol=1e-6)
