"""Aggregation core: oracle equivalence, softmax axis, invariances, gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magvlaq import autodiff as ad
from magvlaq import vlaq
from magvlaq.errors import ConfigurationError, DegenerateInputError, DimensionError
from magvlaq.model import ModelConfig
from oracles import brute_force_vlaq


def _instance(rng, n=None, s=None, d=None, out=None, dtype=np.float64):
    n = n or int(rng.integers(1, 17))
    s = s or int(rng.integers(1, 9))
    d = d or int(rng.integers(2, 9))
    out = out or int(rng.integers(4, 17))
    tokens = rng.standard_normal((n, d)).astype(dtype)
    protos = rng.standard_normal((s, d)).astype(dtype)
    proj = rng.standard_normal((s * d, out)).astype(dtype)
    return tokens, protos, proj


def test_descriptor_matches_brute_force_oracle_float64():
    rng = np.random.default_rng(0)
    for _ in range(25):
        tokens, protos, proj = _instance(rng)
        fast = vlaq.vlaq_descriptor(
            ad.Tensor(tokens), ad.Tensor(protos), ad.Tensor(proj)
        ).value
        slow = brute_force_vlaq(tokens, protos, proj)
        np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_descriptor_matches_brute_force_oracle_float32():
    rng = np.random.default_rng(1)
    for _ in range(25):
        tokens, protos, proj = _instance(rng, dtype=np.float32)
        fast = vlaq.vlaq_descriptor(
            ad.Tensor(tokens), ad.Tensor(protos), ad.Tensor(proj)
        ).value
        slow = brute_force_vlaq(tokens, protos, proj)
        np.testing.assert_allclose(fast, slow, atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 20), s=st.integers(1, 10))
def test_assignment_columns_sum_to_one(seed, n, s):
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((n, 6)) * 5.0
    protos = rng.standard_normal((s, 6))
    alpha = vlaq.assignment_weights(ad.Tensor(tokens), ad.Tensor(protos)).value
    assert alpha.shape == (n, s)
    np.testing.assert_allclose(alpha.sum(axis=0), np.ones(s), atol=1e-9)
    assert (alpha >= 0).all()


def test_single_token_gets_all_the_attention():
    rng = np.random.default_rng(2)
    tokens = rng.standard_normal((1, 4))
    protos = rng.standard_normal((3, 4))
    alpha = vlaq.assignment_weights(ad.Tensor(tokens), ad.Tensor(protos)).value
    np.testing.assert_allclose(alpha, np.ones((1, 3)))


def test_descriptor_is_invariant_to_token_order():
    rng = np.random.default_rng(3)
    tokens, protos, proj = _instance(rng, n=10)
    base = vlaq.vlaq_descriptor(ad.Tensor(tokens), ad.Tensor(protos), ad.Tensor(proj)).value
    perm = rng.permutation(10)
    shuffled = vlaq.vlaq_descriptor(
        ad.Tensor(tokens[perm]), ad.Tensor(protos), ad.Tensor(proj)
    ).value
    np.testing.assert_allclose(base, shuffled, atol=1e-12)


def test_residual_aggregate_matches_direct_sum():
    rng = np.random.default_rng(4)
    tokens = rng.standard_normal((7, 5))
    protos = rng.standard_normal((3, 5))
    alpha_t = vlaq.assignment_weights(ad.Tensor(tokens), ad.Tensor(protos))
    v = vlaq.residual_aggregate(ad.Tensor(tokens), ad.Tensor(protos), alpha_t).value
    alpha = alpha_t.value
    expect = np.zeros((3, 5))
    for s in range(3):
        for n in range(7):
            expect[s] += alpha[n, s] * (tokens[n] - protos[s])
    np.testing.assert_allclose(v, expect, atol=1e-12)


def test_descriptor_is_unit_norm():
    rng = np.random.default_rng(5)
    tokens, protos, proj = _instance(rng)
    out = vlaq.vlaq_descriptor(ad.Tensor(tokens), ad.Tensor(protos), ad.Tensor(proj)).value
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_tokens_equal_to_prototype_raise_degenerate():
    token = np.ones((1, 4))
    protos = np.ones((1, 4))
    proj = np.eye(4).repeat(1, axis=0)
    with pytest.raises(DegenerateInputError):
        vlaq.vlaq_descriptor(ad.Tensor(token), ad.Tensor(protos), ad.Tensor(proj))
    with pytest.raises(DegenerateInputError):
        brute_force_vlaq(token, protos, proj)


def test_dimension_mismatches_raise():
    with pytest.raises(DimensionError, match="prototype dim"):
        vlaq.assignment_weights(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((2, 5))))
    with pytest.raises(DimensionError, match="projection"):
        vlaq.vlaq_descriptor(
            ad.Tensor(np.ones((3, 4))),
            ad.Tensor(np.ones((2, 4))),
            ad.Tensor(np.ones((9, 6))),
        )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    tokens = ad.Tensor(rng.standard_normal((5, 4)))
    protos = ad.Tensor(rng.standard_normal((3, 4)))
    proj = ad.Tensor(rng.standard_normal((12, 6)))
    w = rng.standard_normal((1, 6))

    def build():
        return ad.sum_all(
            ad.mul(vlaq.vlaq_descriptor(tokens, protos, proj), ad.Tensor(w))
        )

    loss = build()
    ad.backward(loss)
    for p in (tokens, protos, proj):
        got = p.grad.copy()
        fd = ad.finite_difference_grad(lambda: build().item(), p.value, h=1e-5)
        np.testing.assert_allclose(got, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_prototype_init_scale_and_config_guard():
    protos = vlaq.init_prototypes(32, 64, np.random.default_rng(0))
    assert protos.shape == (32, 64)
    assert protos.dtype == np.float32
    observed = protos.std()
    assert 0.7 / np.sqrt(64) < observed < 1.3 / np.sqrt(64)
    with pytest.raises(ConfigurationError):
        ModelConfig(num_queries=0).validate()
