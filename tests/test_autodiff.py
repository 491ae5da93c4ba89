"""Engine-level checks: forward oracles, gradient correctness, tape rules."""

from __future__ import annotations

import ast
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magvlaq import autodiff as ad
from magvlaq import vlaq
from magvlaq.errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def _fd_check(build, params, h=1e-5, tol=1e-6):
    """Compare backward() grads of a scalar graph against central differences."""
    loss = build()
    ad.backward(loss)
    got = [p.grad.copy() for p in params]
    for p, g in zip(params, got):
        fd = oracles.finite_difference_grad(lambda: build().item(), p.value, h=h)
        scale = max(np.abs(fd).max(), np.abs(g).max(), 1.0)
        np.testing.assert_allclose(g, fd, atol=tol * scale, rtol=0)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = _rand(rng, 4, 3)
    b = _rand(rng, 3, 5)
    out = oracles.matmul(ad.Tensor(a), ad.Tensor(b)).value
    expect = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            acc = 0.0
            for k in range(3):
                acc += a[i, k] * b[k, j]
            expect[i, j] = acc
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_matmul_shape_errors_name_both_operands():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        oracles.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(DimensionError, match="2-D"):
        oracles.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


def test_elementwise_and_matmul_gradients():
    rng = np.random.default_rng(1)
    x = ad.Tensor(_rand(rng, 3, 4))
    w = ad.Tensor(_rand(rng, 4, 2))
    b = ad.Tensor(_rand(rng, 1, 2))
    _fd_check(
        lambda: oracles.sum_all(oracles.tanh(oracles.add(oracles.matmul(x, w), b))),
        [x, w, b],
    )


def test_broadcast_gradients_unbroadcast_to_parameter_shape():
    """The oracles' broadcasting ``mul``; the package's ops do not broadcast."""
    rng = np.random.default_rng(2)
    col = ad.Tensor(_rand(rng, 3, 1))
    full = ad.Tensor(_rand(rng, 3, 4))
    _fd_check(lambda: oracles.sum_all(oracles.mul(col, full)), [col, full])
    assert col.grad.shape == (3, 1)


def test_diamond_graph_accumulates_both_paths():
    x = ad.Tensor(np.array([[2.0]]))
    loss = ad.add(oracles.mul(x, x), oracles.scale(x, 3.0))  # x^2 + 3x -> d/dx = 2x + 3
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [[7.0]])


def test_leaves_accumulate_across_two_graphs_and_a_graph_is_swept_once():
    x = ad.Tensor(np.array([[3.0]]))
    losses = [oracles.scale(oracles.mul(x, x), 2.0) for _ in range(2)]  # d/dx = 4x = 12
    for loss in losses:
        ad.backward(loss)
    np.testing.assert_allclose(x.grad, [[24.0]])  # leaves accumulate
    with pytest.raises(ContractError, match="rebuild the forward"):
        ad.backward(losses[0])
    np.testing.assert_allclose(x.grad, [[24.0]])


def test_backward_refuses_a_swept_graph_before_any_leaf_gradient_moves():
    """A swept node has dropped its saved state and parent links: a second
    sweep of the same loss, or a sweep of a new loss built on an interior node
    of a swept graph, raises before touching any gradient."""
    x, w = ad.Tensor(np.array([[3.0]])), ad.Tensor(np.array([[5.0]]))
    y = oracles.mul(x, x)
    loss = oracles.scale(y, 2.0)
    ad.backward(loss)
    assert y._parents == () and y._grad is None
    for again in (loss, ad.add(y, oracles.mul(w, w))):
        with pytest.raises(ContractError, match="swept.*rebuild the forward"):
            ad.backward(again)
        np.testing.assert_allclose(x.grad, [[12.0]])
        assert w._grad is None


def _factors(dtype, cols, rows=8192, n=80, seed=0):
    """The factors x (n x rows) and g (n x cols) of a held gradient x.T @ g."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, rows)).astype(dtype),
            rng.standard_normal((n, cols)).astype(dtype))


@pytest.mark.parametrize("dtype,cols,rows,n", [
    (np.float32, 512, 8192, 80), (np.float64, 512, 8192, 80),
    (np.float32, 300, 700, 80), (np.float64, 300, 700, 80), (np.float32, 512, 8192, 41),
])
def test_a_held_gradient_reads_as_its_product_bit_for_bit(dtype, cols, rows, n):
    """A first pair (x, g) is held as it is, not formed; ``.grad`` then forms
    x.T @ g once, with the one-call product's bits: at the head's shape, at
    a width that does not divide ADAM_BLOCK and at a ragged row count."""
    x, g = _factors(dtype, cols, rows, n)
    w = ad.Tensor(np.zeros((rows, cols), dtype))
    w.accumulate_grad((x, g))
    assert w._grad[0] is x and w._grad[1] is g
    assert w.grad.tobytes() == (x.T @ g).tobytes()
    assert w.grad is w._grad and w.grad.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_accumulating_onto_a_held_gradient_or_a_held_one_onto_a_dense_gives_the_dense_sums(dtype):
    """Dense then product, product then dense and product then product give,
    bit for bit, the sums of the dense products in arrival order; the dense
    gradient handed in is never written."""
    (x, g), (y, h) = _factors(dtype, 512, seed=1), _factors(dtype, 512, n=37, seed=2)
    d = np.random.default_rng(3).standard_normal((8192, 512)).astype(dtype)
    before = d.copy()
    cases = {"dense, product": ([d, (x, g)], [d, x.T @ g]),
             "product, dense": ([(x, g), d], [x.T @ g, d]),
             "product, product": ([(x, g), (y, h)], [x.T @ g, y.T @ h])}
    for case, (parts, dense) in cases.items():
        w = ad.Tensor(np.zeros((8192, 512), dtype))
        for part in parts:
            w.accumulate_grad(part)
        want = dense[0].copy()
        want += dense[1]
        assert w.grad.tobytes() == want.tobytes(), case
        assert not np.shares_memory(w.grad, d)
    assert d.tobytes() == before.tobytes()


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError, match="scalar"):
        ad.backward(ad.add(x, x))


def test_no_grad_builds_no_graph():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.add(x, x)
    assert y._parents == () and y._backward is None


def test_no_grad_in_one_thread_leaves_another_thread_taping():
    inside, done = threading.Event(), threading.Event()
    worker_parents = []

    def worker():
        with ad.no_grad():
            inside.set()
            done.wait(timeout=30)
            worker_parents.append(oracles.scale(ad.Tensor(np.ones((1, 1))), 2.0)._parents)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert inside.wait(timeout=30)
        x = ad.Tensor(np.array([[1.0, -2.0, 3.0]]))
        ad.backward(oracles.sum_all(oracles.mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2.0 * x.value)
    finally:
        done.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert worker_parents == [()]


def test_reshape_transpose_concat_gradients():
    rng = np.random.default_rng(3)
    a = ad.Tensor(_rand(rng, 2, 6))
    b = ad.Tensor(_rand(rng, 1, 6))

    def build():
        stacked = ad.concat_rows([a, b], [[2], [1]])
        return oracles.sum_all(oracles.mul(oracles.transpose(stacked), oracles.transpose(stacked)))

    _fd_check(build, [a, b])
    flat = oracles.reshape(a, (3, 4))
    assert flat.value.shape == (3, 4)


def test_concat_rows_interleaves_segments_of_each_block():
    """With counts, segment j of every block comes before segment j+1; the
    gradient of each block is its own rows of the output's."""
    rng = np.random.default_rng(5)
    a = ad.Tensor(_rand(rng, 5, 3))
    b = ad.Tensor(_rand(rng, 4, 3))
    counts = [[2, 0, 3], [1, 2, 1]]
    out = ad.concat_rows([a, b], counts)
    want = np.concatenate([a.value[:2], b.value[:1], b.value[1:3], a.value[2:], b.value[3:]])
    assert out.value.tobytes() == want.tobytes()
    w = _rand(rng, 9, 3)
    _fd_check(lambda: oracles.sum_all(oracles.mul(ad.concat_rows([a, b], counts),
                                                  ad.Tensor(w))), [a, b])
    for blocks, bad in (([a, b], [[2, 3], [4]]), ([a, b], [[5], [3]])):
        with pytest.raises(DimensionError, match="cannot cut"):
            ad.concat_rows(blocks, bad)


def test_slice_rows_value_gradient_and_bounds():
    rng = np.random.default_rng(4)
    a = ad.Tensor(_rand(rng, 5, 3))
    w = _rand(rng, 2, 3)
    np.testing.assert_array_equal(oracles.slice_rows(a, 1, 3).value, a.value[1:3])
    _fd_check(lambda: oracles.sum_all(oracles.mul(oracles.slice_rows(a, 1, 3), ad.Tensor(w))), [a])
    assert not a.grad[[0, 3, 4]].any()
    with pytest.raises(DimensionError):
        oracles.slice_rows(a, 3, 6)
    with pytest.raises(DimensionError):
        oracles.slice_rows(a, 2, 2)


def test_pairwise_distance_matches_numpy_and_finite_differences():
    rng = np.random.default_rng(12)
    a = ad.Tensor(_rand(rng, 4, 3))
    b = ad.Tensor(_rand(rng, 2, 3))
    expect = np.sqrt(
        ((a.value[:, None, :] - b.value[None, :, :]) ** 2).sum(axis=2) + 1e-12
    )
    np.testing.assert_allclose(oracles.pairwise_distance(a, b).value, expect, rtol=1e-12)
    w = _rand(rng, 4, 2)
    _fd_check(
        lambda: oracles.sum_all(oracles.mul(oracles.pairwise_distance(a, b), ad.Tensor(w))), [a, b]
    )
    with pytest.raises(DimensionError):
        oracles.pairwise_distance(a, ad.Tensor(np.ones((2, 4))))


def test_constant_leaves_hold_no_gradient_and_change_no_other():
    """The oracles' constant leaves, under package and oracle ops alike."""
    rng = np.random.default_rng(13)
    x, y = _rand(rng, 3, 4), _rand(rng, 3, 4)
    w = _rand(rng, 4, 2)
    grads = []
    for leaf in (ad.Tensor, oracles.constant):
        cx, cy, p = leaf(x), leaf(y), ad.Tensor(w)
        h = oracles.matmul(oracles.mul(oracles.sub(oracles.add(cx, cy), cy), cx), p)
        ad.backward(oracles.sum_all(oracles.mul(h, h)))
        grads.append(p.grad)
        if leaf is oracles.constant:
            assert cx._grad is None and cy._grad is None
    assert grads[0].tobytes() == grads[1].tobytes()


def test_add_takes_one_shape_and_sums_both_gradients():
    x = ad.Tensor(np.array([[1.0, -2.0]]))
    y = ad.Tensor(np.array([[0.5, 4.0]]))
    out = ad.add(x, y)
    np.testing.assert_array_equal(out.value, [[1.5, 2.0]])
    out.accumulate_grad(np.array([[3.0, -1.0]]))
    out._backward(out)
    np.testing.assert_array_equal(x.grad, [[3.0, -1.0]])
    np.testing.assert_array_equal(y.grad, [[3.0, -1.0]])
    for other in (np.ones((1, 1)), np.ones((2, 2)), np.ones(2)):
        with pytest.raises(DimensionError, match=r"one shape.*\(1, 2\)"):
            ad.add(x, ad.Tensor(other))


def test_mean_rows_value_and_empty_error():
    x = np.array([[1.0, 3.0], [5.0, 7.0]])
    np.testing.assert_allclose(ad.mean_rows(ad.Tensor(x)).value, [[3.0, 5.0]])
    with pytest.raises(DegenerateInputError):
        ad.mean_rows(ad.Tensor(np.empty((0, 4))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("counts", [[1, 5, 2, 17, 1], [64] * 9, [17] * 3, [1] * 4, [300]],
                         ids=["ragged", "64x9", "17x3", "1x4", "300"])
def test_segment_means_equal_stacked_single_segment_means(dtype, counts):
    rng = np.random.default_rng(13)
    x = (rng.standard_normal((sum(counts), 7)) * 3.0 + 1.0).astype(dtype)
    ends = np.cumsum(counts)
    want = np.concatenate(
        [ad.mean_rows(ad.Tensor(x[e - n : e])).value for n, e in zip(counts, ends)]
    )
    got = ad.mean_rows(ad.Tensor(x), counts).value
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    numpy_means = [x[e - n : e].mean(axis=0, keepdims=True, dtype=np.float64)
                   for n, e in zip(counts, ends)]
    assert got.tobytes() == np.concatenate(numpy_means).astype(dtype).tobytes()
    upstream = rng.standard_normal((len(counts), 7)).astype(dtype)
    grads = []
    for parts in ([ad.Tensor(x)], [ad.Tensor(x[e - n : e].copy()) for n, e in zip(counts, ends)]):
        means = (ad.mean_rows(parts[0], counts) if len(parts) == 1
                 else ad.concat_rows([ad.mean_rows(p) for p in parts], [[1]] * len(parts)))
        ad.backward(oracles.sum_all(oracles.mul(means, oracles.constant(upstream))))
        grads.append(np.concatenate([p.grad for p in parts]))
    assert grads[0].tobytes() == grads[1].tobytes()


def test_segment_means_reject_empty_or_mismatched_segments():
    x = ad.Tensor(np.ones((4, 3)))
    for counts in ([4, 0], [2, 1], [3, 2], []):
        with pytest.raises(DegenerateInputError, match="row counts"):
            ad.mean_rows(x, counts)


def _layer_norm(x, gain, bias):
    """The layer-norm pair as the projection node uses it, wrapped as a node."""
    out64, xhat, inv = ad.layer_norm_values(x.value, gain.value, bias.value)

    def bw(out):
        g_gain, g_bias = np.zeros(gain.value.size), np.zeros(bias.value.size)
        x.accumulate_grad(
            ad.layer_norm_backward(out.grad, xhat, inv, gain.value, g_gain, g_bias)
        )
        gain.accumulate_grad(g_gain.reshape(gain.value.shape))
        bias.accumulate_grad(g_bias.reshape(bias.value.shape))

    return ad.Tensor(out64.astype(x.value.dtype), (x, gain, bias), bw)


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(5)
    x = _rand(rng, 6, 16) * 3.0 + 2.0
    gain = ad.Tensor(np.ones((1, 16)))
    bias = ad.Tensor(np.zeros((1, 16)))
    out = _layer_norm(ad.Tensor(x), gain, bias).value
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(6), atol=1e-7)
    np.testing.assert_allclose(out.std(axis=1), np.ones(6), atol=1e-4)


def test_layer_norm_gradients_and_degenerate_width():
    rng = np.random.default_rng(6)
    x = ad.Tensor(_rand(rng, 3, 8))
    gain = ad.Tensor(_rand(rng, 1, 8))
    bias = ad.Tensor(_rand(rng, 1, 8))
    w = _rand(rng, 3, 8)
    _fd_check(
        lambda: oracles.sum_all(oracles.mul(_layer_norm(x, gain, bias), ad.Tensor(w))),
        [x, gain, bias],
        tol=1e-5,
    )
    with pytest.raises(DegenerateInputError):
        ad.layer_norm_values(np.ones((3, 1)), np.ones((1, 1)), np.zeros((1, 1)))


def test_l2_normalize_unit_norm_and_zero_rejection():
    rng = np.random.default_rng(7)
    x = ad.Tensor(_rand(rng, 1, 9))
    out = oracles.l2_normalize(x)
    assert abs(np.linalg.norm(out.value) - 1.0) < 1e-7
    with pytest.raises(DegenerateInputError):
        oracles.l2_normalize(ad.Tensor(np.zeros((1, 4))))
    rows = oracles.l2_normalize(ad.Tensor(np.array([[3.0, 4.0], [0.0, 2.0]])))
    np.testing.assert_allclose(rows.value, [[0.6, 0.8], [0.0, 1.0]])
    with pytest.raises(DegenerateInputError, match="row 1"):
        oracles.l2_normalize(ad.Tensor(np.array([[3.0, 4.0], [0.0, 0.0]])))


def test_l2_normalize_gradient_is_tangent():
    rng = np.random.default_rng(8)
    x = ad.Tensor(_rand(rng, 1, 6))
    w = _rand(rng, 1, 6)
    _fd_check(lambda: oracles.sum_all(oracles.mul(oracles.l2_normalize(x), ad.Tensor(w))), [x])
    # the gradient of any function of a unit direction is orthogonal to it
    radial = float((x.grad * x.value).sum()) / np.linalg.norm(x.value)
    assert abs(radial) < 1e-8


def _pass_through_rows(x):
    """The row-norm pair as the intra-norm uses it, wrapped as a node."""
    rows = ad.normalize_rows_values(x.value, strict=False)

    def bw(out):
        x.accumulate_grad(ad.normalize_rows_backward(out.grad, *rows))

    return ad.Tensor(rows[0].astype(x.value.dtype), (x,), bw)


def test_pass_through_row_norm_keeps_zero_rows_zero():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = _pass_through_rows(ad.Tensor(x))
    np.testing.assert_allclose(out.value, [[0.6, 0.8], [0.0, 0.0]])

    t = ad.Tensor(x.copy())
    loss = oracles.sum_all(_pass_through_rows(t))
    ad.backward(loss)
    np.testing.assert_allclose(t.grad[1], [0.0, 0.0])


LEAN_KERNELS = {
    "layer_norm": (_layer_norm, oracles.layer_norm),
    "l2_normalize": (oracles.l2_normalize, lambda x: oracles.normalize_rows(x, strict=True)),
    "pass_through_rows": (
        _pass_through_rows, lambda x: oracles.normalize_rows(x, strict=False)
    ),
}


def _kernel_inputs(name, shape, dtype, scale):
    rng = np.random.default_rng([*shape, len(name)])
    x = scale * rng.standard_normal(shape) + rng.standard_normal()
    if name == "pass_through_rows":
        x[1::3] = 0.0
    arrays = [x]
    if name == "layer_norm":
        arrays += [rng.standard_normal((1, shape[1])), rng.standard_normal((1, shape[1]))]
    return [a.astype(dtype) for a in arrays]


def _run_kernel(kernel, arrays, upstream):
    """A kernel's value and every input gradient for the given upstream."""
    inputs = [ad.Tensor(a.copy()) for a in arrays]
    out = kernel(*inputs)
    ad.backward(oracles.sum_all(oracles.mul(out, oracles.constant(upstream))))
    return [out.value, *(t.grad for t in inputs)]


def _layer_norm_within_bounds(arrays, upstream):
    """The float32 layer norm against the float64 oracle on the same inputs,
    within ``oracles.layer_norm_float32_bounds``."""
    got = _run_kernel(_layer_norm, arrays, upstream)
    want = _run_kernel(oracles.layer_norm, [a.astype(np.float64) for a in arrays],
                       upstream.astype(np.float64))
    bounds = oracles.layer_norm_float32_bounds(*arrays, upstream)
    for g, w, bound in zip(got, want, bounds):
        assert g.dtype == np.float32
        assert (np.abs(g - w) <= bound).all(), float((np.abs(g - w) / bound).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 2), (3, 8), (64, 128), (4096, 128)])
@pytest.mark.parametrize("name,scale", [
    ("layer_norm", 1.0),
    ("l2_normalize", 1.0),
    ("pass_through_rows", 1.0),
])
def test_float64_kernels_match_their_oracles_bit_for_bit(name, scale, shape, dtype):
    """Values and input gradients equal the oracles' bit for bit, except the
    float32 layer norm: it works elementwise in float32 with float64 sums,
    and stays within a stated bound of the float64 oracle."""
    arrays = _kernel_inputs(name, shape, dtype, scale)
    upstream = np.random.default_rng(shape).standard_normal(shape).astype(dtype)
    if name == "layer_norm" and dtype == np.float32:
        _layer_norm_within_bounds(arrays, upstream)
        return
    results = [_run_kernel(kernel, arrays, upstream) for kernel in LEAN_KERNELS[name]]
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("offset", [1e3, -3e4])
@pytest.mark.parametrize("shape", [(3, 8), (64, 128)])
def test_layer_norm_rows_with_a_large_common_offset(shape, offset, dtype):
    """Rows whose mean is far from zero next to their spread: float64 still
    equals the oracle bit for bit; float32 rounds the mean once, and its
    bound grows with |mean| / deviation."""
    rng = np.random.default_rng([*shape, int(abs(offset))])
    x = rng.standard_normal(shape) * rng.uniform(0.5, 4.0, (shape[0], 1)) + offset
    arrays = [a.astype(dtype) for a in (x, rng.standard_normal((1, shape[1])),
                                        rng.standard_normal((1, shape[1])))]
    upstream = rng.standard_normal(shape).astype(dtype)
    if dtype == np.float32:
        _layer_norm_within_bounds(arrays, upstream)
        return
    got, want = (_run_kernel(k, arrays, upstream) for k in LEAN_KERNELS["layer_norm"])
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_head_names_the_same_degenerate_row_as_its_oracle(dtype):
    """Through an identity projection, which keeps every entry exact."""
    x = np.array([[3.0, 4.0], [1e-13, 0.0], [0.0, 0.0]], dtype=dtype)
    with pytest.raises(DegenerateInputError) as lean:
        vlaq.head([ad.Tensor(x)], ad.Tensor(np.eye(2, dtype=dtype)))
    with pytest.raises(DegenerateInputError) as oracle:
        oracles.normalize_rows(ad.Tensor(x), strict=True)
    assert str(lean.value) == str(oracle.value)
    assert "row 1" in str(lean.value)


def test_layer_norm_peaks_at_three_float32_copies_forward_and_two_backward():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.standard_normal((4096, 128)).astype(np.float32))
    gain = ad.Tensor(np.ones((1, 128), dtype=np.float32))
    bias = ad.Tensor(np.zeros((1, 128), dtype=np.float32))
    upstream = rng.standard_normal((4096, 128)).astype(np.float32)
    copy, slack = x.value.nbytes, 256 * 1024  # slack: per-row float64 sums and small scratch
    tracemalloc.start()
    try:
        out = _layer_norm(x, gain, bias)
        forward_peak = tracemalloc.get_traced_memory()[1]
        out.accumulate_grad(upstream)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out._backward(out)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward_peak <= 3 * copy + slack, forward_peak
    assert backward_peak <= 2 * copy + slack, backward_peak


def test_sqrt_with_eps_is_differentiable_at_zero():
    x = ad.Tensor(np.array([[0.0]]))
    out = oracles.sqrt(x, eps=1e-12)
    ad.backward(out)
    assert np.isfinite(x.grad).all()


def test_mlp_forward_single_layer_is_affine():
    rng = np.random.default_rng(9)
    x = _rand(rng, 2, 3)
    w = _rand(rng, 3, 4)
    b = _rand(rng, 1, 4)
    out = ad.mlp_forward(
        ad.Tensor(x), [(ad.Tensor(w), ad.Tensor(b))], activation="tanh"
    ).value
    np.testing.assert_allclose(out, x @ w + b, rtol=1e-12)


def test_mlp_forward_rejects_bad_chain_and_activation():
    x = ad.Tensor(np.ones((1, 3)))
    w = ad.Tensor(np.ones((4, 2)))
    b = ad.Tensor(np.zeros((1, 2)))
    with pytest.raises(ConfigurationError, match="layer 0"):
        ad.mlp_forward(x, [(w, b)])
    with pytest.raises(ConfigurationError, match="activation"):
        ad.mlp_forward(x, [(ad.Tensor(np.ones((3, 2))), b)], activation="gelu")
    with pytest.raises(ConfigurationError, match="at least one"):
        ad.mlp_forward(x, [])


@pytest.mark.parametrize("rows", [1, 5, 64])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_forward_matches_the_composed_oracle(dtype, activation, depth, rows):
    """One node equals the matmul/add/activation chain: the value bit for
    bit, the input and every W/b gradient exactly (up to the sign of zero)."""
    rng = np.random.default_rng([rows, depth, len(activation)])
    widths = (6, *([7] * (depth - 1)), 5)
    x = ad.Tensor(rng.standard_normal((rows, widths[0])).astype(dtype))
    layers = [
        (ad.Tensor((rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(dtype)),
         ad.Tensor((rng.standard_normal((1, fan_out)) * 0.5).astype(dtype)))
        for fan_in, fan_out in zip(widths, widths[1:])
    ]
    probe = oracles.constant(rng.standard_normal((rows, widths[-1])).astype(dtype))
    leaves = [x, *(t for layer in layers for t in layer)]

    def run(mlp):
        out = mlp(x, layers, activation)
        ad.backward(oracles.sum_all(oracles.mul(out, probe)))
        grads = [p.grad.copy() for p in leaves]
        for p in leaves:
            p.zero_grad()
        return out.value, grads

    (got, got_grads), (want, want_grads) = run(ad.mlp_forward), run(oracles.mlp_forward)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def test_relu_mlp_gradient():
    rng = np.random.default_rng(10)
    x = ad.Tensor(_rand(rng, 2, 5))
    layers = [
        (ad.Tensor(_rand(rng, 5, 7)), ad.Tensor(_rand(rng, 1, 7))),
        (ad.Tensor(_rand(rng, 7, 3)), ad.Tensor(_rand(rng, 1, 3))),
    ]
    params = [x, *[t for pair in layers for t in pair]]
    _fd_check(
        lambda: oracles.sum_all(ad.mlp_forward(x, layers, activation="relu")), params
    )


def test_finite_difference_rejects_silly_step_sizes():
    with pytest.raises(ContractError):
        oracles.finite_difference_grad(lambda: 0.0, np.zeros(2), h=1.0)
    with pytest.raises(ContractError):
        oracles.finite_difference_grad(lambda: 0.0, np.zeros(2), h=1e-9)


def test_float32_is_default_and_float64_is_preserved():
    assert ad.Tensor(np.ones((1, 1), dtype=np.int64)).value.dtype == np.float32
    assert ad.Tensor(np.ones((1, 1), dtype=np.float64)).value.dtype == np.float64
    out = ad.add(ad.Tensor(np.ones((1, 1), dtype=np.float64)),
                 ad.Tensor(np.ones((1, 1), dtype=np.float64)))
    assert out.value.dtype == np.float64


def test_every_public_autodiff_name_has_a_caller_elsewhere_in_src():
    """Oracles live in tests/: a public name of autodiff.py that no other
    module of the package reads through ``ad.`` is dead code."""
    source = Path(ad.__file__)
    defined = set()
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    others = "\n".join(p.read_text() for p in source.parent.glob("*.py") if p != source)
    unused = sorted(
        name for name in defined
        if not name.startswith("_") and not re.search(rf"\bad\.{name}\b", others)
    )
    assert not unused, unused
