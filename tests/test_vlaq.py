"""Aggregation core: oracle equivalence, softmax axis, invariances, gradients.

``vlaq.residual_features`` is one tape node for a stack of token sets; the
per-set composed-op graph it replaced (``oracles.residual_features``, stacked
by ``oracles.stacked_residual_features``) is its reference.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magvlaq import autodiff as ad
from magvlaq import vlaq
from magvlaq.errors import ConfigurationError, DegenerateInputError, DimensionError
from magvlaq.model import ModelConfig
from oracles import brute_force_vlaq, finite_difference_grad


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
@given(seed=st.integers(0, 2**16), n=st.integers(1, 20), s=st.integers(1, 10),
       shift=st.floats(-30.0, 30.0))
def test_assignment_columns_sum_to_one_and_ignore_a_common_token_shift(seed, n, s, shift):
    """The softmax runs over the token axis in float64, so translating every
    token by one vector (a constant per logit column) changes nothing."""
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((n, 6)) * 5.0
    protos = rng.standard_normal((s, 6))
    alpha = vlaq.assignment_weights(tokens, protos)
    assert alpha.shape == (n, s) and alpha.dtype == np.float64
    np.testing.assert_allclose(alpha.sum(axis=0), np.ones(s), atol=1e-9)
    assert (alpha >= 0).all()
    moved = vlaq.assignment_weights(tokens + shift * rng.standard_normal((1, 6)), protos)
    np.testing.assert_allclose(moved, alpha, atol=1e-9)


def test_assignment_survives_huge_logits():
    tokens = np.array([[1e4, -1e4], [9.999e3, -1e4]])
    alpha = vlaq.assignment_weights(tokens, np.eye(2))
    assert np.isfinite(alpha).all()
    np.testing.assert_allclose(alpha.sum(axis=0), [1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,s", [(1, 2), (3, 8), (64, 128), (4096, 128)])
@pytest.mark.parametrize("logit_scale", [1.0, 1e3])
def test_assignment_matches_the_composed_oracle_bit_for_bit(logit_scale, n, s, dtype):
    """Float64 equals the oracle bit for bit; float32, whose softmax works
    in float32 with float64 column sums, stays within a stated bound of the
    float64 oracle on the same inputs."""
    rng = np.random.default_rng([n, s])
    tokens = rng.standard_normal((n, 16))
    protos = rng.standard_normal((s, 16))
    tokens *= logit_scale * 4.0 / np.abs(tokens @ protos.T).max()  # 4 = sqrt(D)
    tokens, protos = tokens.astype(dtype), protos.astype(dtype)
    got = vlaq.assignment_weights(tokens, protos)
    assert got.dtype == dtype
    if dtype == np.float32:
        want = oracles.assignment_weights(ad.Tensor(tokens.astype(np.float64)),
                                          ad.Tensor(protos.astype(np.float64))).value
        assert (np.abs(got - want) <= oracles.assignment_float32_bound(tokens, protos)).all()
        return
    want = oracles.assignment_weights(ad.Tensor(tokens), ad.Tensor(protos)).value
    assert got.tobytes() == want.tobytes()


def test_single_token_gets_all_the_attention():
    rng = np.random.default_rng(2)
    tokens = rng.standard_normal((1, 4))
    protos = rng.standard_normal((3, 4))
    np.testing.assert_allclose(vlaq.assignment_weights(tokens, protos), np.ones((1, 3)))


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
    alpha = vlaq.assignment_weights(tokens, protos)
    v = vlaq.residual_aggregate(tokens, protos, alpha)
    expect = np.zeros((3, 5))
    for s in range(3):
        for n in range(7):
            expect[s] += alpha[n, s] * (tokens[n] - protos[s])
    np.testing.assert_allclose(v, expect, atol=1e-12)


def _node_case(name, dtype):
    """Tokens (N x D) and a bank (S x D) for one oracle case."""
    n, s, d = {
        "one-token": (1, 5, 8),
        "one-prototype": (9, 1, 8),
        "default-size": (128, 64, 128),
        "huge-logits": (12, 4, 8),
        "zero-residual": (1, 3, 4),
    }[name]
    rng = np.random.default_rng([n, s, d])
    bank = rng.standard_normal((s, d)) / np.sqrt(d)
    tokens = rng.standard_normal((n, d))
    if name == "huge-logits":  # the largest logit x.c / sqrt(D) reaches 1e3
        tokens *= 1e3 * np.sqrt(d) / np.abs(tokens @ bank.T).max()
    if name == "zero-residual":
        bank[1] = tokens[0]  # the only token sits on prototype 1
    return tokens.astype(dtype), bank.astype(dtype)


NODE_CASES = ["one-token", "one-prototype", "default-size", "huge-logits", "zero-residual"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", NODE_CASES)
def test_residual_features_node_matches_composed_oracle(case, dtype):
    """Float64 rows equal the oracle's bit for bit and its gradients up to
    summation order; float32 rows stay within a stated bound of the float64
    oracle on the same inputs."""
    tokens, bank = _node_case(case, dtype)
    upstream = np.random.default_rng(7).standard_normal((1, bank.size)).astype(dtype)
    results = []
    for features in (vlaq.residual_features, oracles.stacked_residual_features):
        leaves = ad.Tensor(tokens.copy()), ad.Tensor(bank.copy())
        if features is oracles.stacked_residual_features:
            leaves = tuple(ad.Tensor(leaf.value.astype(np.float64)) for leaf in leaves)
        out = features(leaves[0], [len(tokens)], leaves[1])
        ad.backward(oracles.sum_all(oracles.mul(out, oracles.constant(upstream))))
        results.append([out.value, *(leaf.grad for leaf in leaves)])
    (got, *got_grads), (want, *want_grads) = results
    assert got.dtype == dtype
    if case == "zero-residual":
        assert not got.reshape(bank.shape)[1].any()
    if dtype == np.float32:
        error = np.abs(got - want).reshape(bank.shape).max(axis=1)
        assert (error <= oracles.residual_rows_float32_bound(tokens, bank)[0]).all(), case
        return
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-9 * np.abs(w).max(), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shifted", [False, True])
def test_stacked_token_sets_match_the_per_set_graph(shifted, dtype):
    """Sets of 1, 7 and 3 tokens, over the shared bank or each over the bank
    its shift row moves: the rows bit for bit against the package's kernels
    run set by set (and in float64 against the composed oracle too), and the
    token, prototype and shift gradients up to summation order."""
    rng = np.random.default_rng([3, shifted])
    counts, s, d, alpha = [1, 7, 3], 4, 6, 0.3
    tokens = rng.standard_normal((sum(counts), d)).astype(dtype)
    prototypes = (rng.standard_normal((s, d)) / np.sqrt(d)).astype(dtype)
    shifts = rng.standard_normal((len(counts), s * d)).astype(dtype) if shifted else None
    upstream = rng.standard_normal((len(counts), s * d)).astype(dtype)
    results = []
    for features in (vlaq.residual_features, oracles.stacked_residual_features):
        leaves = [ad.Tensor(a.copy()) for a in (tokens, prototypes, shifts) if a is not None]
        out = features(leaves[0], counts, leaves[1], leaves[2] if shifted else None, alpha)
        ad.backward(oracles.sum_all(oracles.mul(out, oracles.constant(upstream))))
        results.append([out.value, *(leaf.grad for leaf in leaves)])
    (got, *got_grads), (want, *want_grads) = results
    assert got.dtype == dtype and got.shape == (3, s * d)
    per_set = oracles.per_set_residual_rows(tokens, counts, prototypes, shifts, alpha)
    assert got.tobytes() == per_set.tobytes()
    if dtype == np.float64:
        assert got.tobytes() == want.tobytes()
    tol = 1e-9 if dtype == np.float64 else 1e-5
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= tol * np.abs(w).max()


def test_residual_features_is_one_node_and_keeps_nothing_without_a_tape():
    tokens, bank = (ad.Tensor(a) for a in _node_case("one-prototype", np.float64))
    shifts = ad.Tensor(np.ones((2, bank.value.size)))
    for given in (None, shifts):
        rows = vlaq.residual_features(tokens, [4, 5], bank, given, 0.5)
        assert rows._parents == (tokens, bank) + ((shifts,) if given else ())
        with ad.no_grad():
            rows = vlaq.residual_features(tokens, [4, 5], bank, given, 0.5)
        assert rows._parents == () and rows._backward is None


def test_zero_residual_rows_pass_gradient_zeros():
    tokens, bank = (ad.Tensor(a) for a in _node_case("zero-residual", np.float64))
    ad.backward(oracles.sum_all(vlaq.residual_features(tokens, [1], bank)))
    # prototype 1's residual is zero: its row of the bank gets no gradient
    assert not bank.grad[1].any() and bank.grad[[0, 2]].all()


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


def test_dimension_mismatches_and_empty_token_sets_raise():
    with pytest.raises(DimensionError, match=r"\(3, 4\) to prototypes of shape \(2, 5\)"):
        vlaq.assignment_weights(np.ones((3, 4)), np.ones((2, 5)))
    for empty in (np.ones((0, 4)), np.ones((3, 0))):
        with pytest.raises(DimensionError, match="cannot assign"):
            vlaq.residual_features(ad.Tensor(empty), [len(empty)],
                                   ad.Tensor(np.ones((2, empty.shape[1]))))
    with pytest.raises(DimensionError, match="projection"):
        vlaq.vlaq_descriptor(
            ad.Tensor(np.ones((3, 4))),
            ad.Tensor(np.ones((2, 4))),
            ad.Tensor(np.ones((9, 6))),
        )
    for blocks in ([], [np.ones((2, 8)), np.ones((1, 7))], [np.ones(8)]):
        with pytest.raises(DimensionError, match="projection expects 8 inputs"):
            vlaq.head([ad.Tensor(b) for b in blocks], ad.Tensor(np.ones((8, 3))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sizes", [[1], [6], [3, 1, 4, 2]],
                         ids=["one-row", "one-block", "four-blocks"])
def test_head_node_matches_the_composed_oracle(sizes, dtype):
    """Stack, project and normalize as one node: its rows and every block's
    and the projection's gradient equal the composed ops' bit for bit."""
    rng = np.random.default_rng(len(sizes))
    arrays = [rng.standard_normal((n, 12)).astype(dtype) for n in sizes]
    arrays.append(rng.standard_normal((12, 5)).astype(dtype))
    upstream = rng.standard_normal((sum(sizes), 5)).astype(dtype)
    results = []
    for head in (vlaq.head, oracles.head):
        leaves = [ad.Tensor(a.copy()) for a in arrays]
        out = head(leaves[:-1], leaves[-1])
        if head is vlaq.head:
            assert out._parents == tuple(leaves)
        ad.backward(oracles.sum_all(oracles.mul(out, oracles.constant(upstream))))
        results.append([out.value, *(leaf.grad for leaf in leaves)])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_head_reads_a_single_block_in_place():
    """An embedding chunk is one 32 x 8192 block: without a tape the head
    allocates its output and row-norm scratch, never a copy of the block."""
    rng = np.random.default_rng(11)
    block = ad.Tensor(rng.standard_normal((32, 8192)).astype(np.float32))
    proj = ad.Tensor(rng.standard_normal((8192, 512)).astype(np.float32))
    with ad.no_grad():
        vlaq.head([block], proj)
        tracemalloc.start()
        try:
            out = vlaq.head([block], proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (32, 512) and out._parents == ()
    assert peak < block.value.nbytes // 2, peak


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    tokens = ad.Tensor(rng.standard_normal((5, 4)))
    protos = ad.Tensor(rng.standard_normal((3, 4)))
    proj = ad.Tensor(rng.standard_normal((12, 6)))
    w = rng.standard_normal((1, 6))

    def build():
        return oracles.sum_all(
            oracles.mul(vlaq.vlaq_descriptor(tokens, protos, proj), ad.Tensor(w))
        )

    loss = build()
    ad.backward(loss)
    for p in (tokens, protos, proj):
        got = p.grad.copy()
        fd = finite_difference_grad(lambda: build().item(), p.value, h=1e-5)
        np.testing.assert_allclose(got, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_prototype_init_scale_and_config_guard():
    protos = vlaq.init_prototypes(32, 64, np.random.default_rng(0))
    assert protos.shape == (32, 64)
    assert protos.dtype == np.float32
    observed = protos.std()
    assert 0.7 / np.sqrt(64) < observed < 1.3 / np.sqrt(64)
    with pytest.raises(ConfigurationError):
        ModelConfig(num_queries=0).validate()
