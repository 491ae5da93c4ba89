"""Independent reference implementations the tests compare the model against."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from magvlaq import autodiff as ad
from magvlaq import retrieval, training, vlaq
from magvlaq.autodiff import Tensor, as_tensor
from magvlaq.errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
)
from magvlaq.model import PlaceModel
from magvlaq.params import ParamStore
from magvlaq.tokens import TokenDataset


def brute_force_vlaq(tokens: np.ndarray, prototypes: np.ndarray,
                     proj_w: np.ndarray) -> np.ndarray:
    """Reference aggregation with explicit loops and naive exp; for testing.

    Mirrors vlaq_descriptor including the degenerate-row conventions, but
    shares none of its code path.
    """
    n, d = tokens.shape
    s = prototypes.shape[0]
    logits = [[0.0] * s for _ in range(n)]
    for i in range(n):
        for q in range(s):
            acc = 0.0
            for j in range(d):
                acc += float(tokens[i, j]) * float(prototypes[q, j])
            logits[i][q] = acc / math.sqrt(d)

    alpha = [[0.0] * s for _ in range(n)]
    for q in range(s):
        peak = max(logits[i][q] for i in range(n))
        denom = 0.0
        for i in range(n):
            denom += math.exp(logits[i][q] - peak)
        for i in range(n):
            alpha[i][q] = math.exp(logits[i][q] - peak) / denom

    residuals = [[0.0] * d for _ in range(s)]
    for q in range(s):
        for j in range(d):
            acc = 0.0
            for i in range(n):
                acc += alpha[i][q] * (float(tokens[i, j]) - float(prototypes[q, j]))
            residuals[q][j] = acc

    for q in range(s):
        norm = math.sqrt(sum(residuals[q][j] ** 2 for j in range(d)))
        if norm <= 1e-12:
            for j in range(d):
                residuals[q][j] = 0.0
        else:
            for j in range(d):
                residuals[q][j] /= norm

    flat = [residuals[q][j] for q in range(s) for j in range(d)]
    out_dim = proj_w.shape[1]
    out = [0.0] * out_dim
    for k in range(out_dim):
        acc = 0.0
        for m in range(s * d):
            acc += flat[m] * float(proj_w[m, k])
        out[k] = acc

    norm = math.sqrt(sum(v * v for v in out))
    if norm <= 1e-12:
        raise DegenerateInputError("descriptor norm vanished in reference aggregation")
    return np.array([[v / norm for v in out]], dtype=np.float64)


def finite_difference_grad(
    f: Callable[[], float], param: np.ndarray, h: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient estimate of f with respect to param.

    ``param`` is perturbed in place entry by entry and restored afterwards;
    ``f`` must be deterministic and read the array by reference.
    """
    if not 1e-5 <= h <= 1e-2:
        raise ContractError(f"step size {h} outside [1e-5, 1e-2]")
    grad = np.zeros(param.shape, dtype=np.float64)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + h
        f_plus = f()
        flat[k] = saved - h
        f_minus = f()
        flat[k] = saved
        gflat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


# Constant leaves and the broadcasting elementwise ops, scaling and reshaping
# the composed oracles below are built from; the package's own ``add`` takes
# same-shape operands.


class _Constant(Tensor):
    """A leaf whose gradient is never computed or stored."""

    __slots__ = ()

    def accumulate_grad(self, g, fresh: bool = False) -> None:
        pass


def constant(value) -> Tensor:
    """Wrap an array as a leaf that no backward pass differentiates; the ops
    here skip the gradient work for such operands."""
    return _Constant(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward op."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_value = a.value + b.value

    def bw(out):
        g = out.grad
        if not isinstance(a, _Constant):
            a.accumulate_grad(_unbroadcast(g, a.value.shape))
        if not isinstance(b, _Constant):
            b.accumulate_grad(_unbroadcast(g, b.value.shape))

    return Tensor(out_value, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_value = a.value - b.value

    def bw(out):
        g = out.grad
        if not isinstance(a, _Constant):
            a.accumulate_grad(_unbroadcast(g, a.value.shape))
        if not isinstance(b, _Constant):
            b.accumulate_grad(-_unbroadcast(g, b.value.shape))

    return Tensor(out_value, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_value = a.value * b.value

    def bw(out):
        g = out.grad
        if not isinstance(a, _Constant):
            a.accumulate_grad(_unbroadcast(g * b.value, a.value.shape))
        if not isinstance(b, _Constant):
            b.accumulate_grad(_unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_value, (a, b), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_value = np.maximum(a.value, 0)

    def bw(out):
        a.accumulate_grad(out.grad * (a.value > 0))

    return Tensor(out_value, (a,), bw)


def scale(a, k: float) -> Tensor:
    a = as_tensor(a)
    k = float(k)

    def bw(out):
        a.accumulate_grad(out.grad * k)

    return Tensor(a.value * k, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def bw(out):
        a.accumulate_grad(out.grad.reshape(a.value.shape))

    return Tensor(a.value.reshape(shape), (a,), bw)


def sum_all(a) -> Tensor:
    """The sum of every entry as a 1 x 1 matrix, accumulated in float64."""
    a = as_tensor(a)
    out_value = np.array([[a.value.sum(dtype=np.float64)]], dtype=a.value.dtype)

    def bw(out):
        a.accumulate_grad(np.full_like(a.value, out.grad.reshape(())))

    return Tensor(out_value, (a,), bw)


# The generic ops the head and objective nodes replaced. vlaq.head must
# match l2_normalize(matmul(stacked rows, W)) bit for bit in its value, and
# training.objective the composed ``objective`` below, whose distances are
# pairwise_distance of two slice_rows of the descriptors.


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(
            f"matmul needs 2-D operands, got {a.value.shape} and {b.value.shape}"
        )
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.value.shape} x {b.value.shape}"
        )
    out_value = a.value @ b.value

    def bw(out):
        g = out.grad
        a.accumulate_grad(g @ b.value.T)
        b.accumulate_grad(a.value.T @ g)

    return Tensor(out_value, (a, b), bw)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 of a 2-D matrix; the gradient flows back into them."""
    a = as_tensor(a)
    if a.value.ndim != 2 or not 0 <= start < stop <= a.value.shape[0]:
        raise DimensionError(
            f"cannot take rows {start}:{stop} of a matrix of shape {a.value.shape}"
        )
    out_value = a.value[start:stop]

    def bw(out):
        a.grad[start:stop] += out.grad

    return Tensor(out_value, (a,), bw)


def l2_normalize(x) -> Tensor:
    """Normalize each row of a 2-D matrix to unit Euclidean norm with the
    package's row-norm kernel pair; a row with norm at most 1e-12 raises
    DegenerateInputError naming the row."""
    x = as_tensor(x)
    rows = ad.normalize_rows_values(x.value, strict=True)

    def bw(out):
        x.accumulate_grad(ad.normalize_rows_backward(out.grad, *rows))

    return Tensor(rows[0].astype(x.value.dtype), (x,), bw)


def pairwise_distance(a, b, eps: float = 1e-12) -> Tensor:
    """Euclidean distances between the rows of a (n x d) and b (m x d).

    Entry (i, j) is sqrt(sum_k (a[i, k] - b[j, k])^2 + eps), taken from the
    explicit differences and summed in float64; ``eps`` keeps the gradient
    finite where two rows coincide.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise DimensionError(
            f"pairwise_distance needs n x d and m x d rows, got {a.value.shape} "
            f"and {b.value.shape}"
        )
    diff = a.value.astype(np.float64)[:, None, :] - b.value.astype(np.float64)[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + eps)
    out_value = dist.astype(a.value.dtype)

    def bw(out):
        w = out.grad.astype(np.float64) / dist
        a.accumulate_grad(np.einsum("ij,ijk->ik", w, diff))
        b.accumulate_grad(-np.einsum("ij,ijk->jk", w, diff))

    return Tensor(out_value, (a, b), bw)


def head(blocks: Sequence[Tensor], proj_w: Tensor) -> Tensor:
    """vlaq.head as the three nodes it replaced: stack, project, normalize."""
    stacked = ad.concat_rows(blocks, [[len(b.value)] for b in blocks])
    return l2_normalize(matmul(stacked, proj_w))


# The float64 kernels as they ran with a fresh array per intermediate: in a
# float64 graph, autodiff's layer norm and the row normalization behind the
# head and the intra-norm must match them bit for bit, values and every input
# gradient, and so must the column softmax of vlaq.assignment_weights. A
# float32 layer norm and softmax stay within the bounds further down.


def softmax_columns(e) -> Tensor:
    """Column-wise softmax of an N x S matrix: each column sums to 1.

    Normalization runs over the row (token) axis with max-subtraction and a
    float64 denominator for stability under large-magnitude logits.
    """
    e = as_tensor(e)
    if e.value.ndim != 2 or e.value.size == 0:
        raise DimensionError(
            f"softmax_columns needs a non-empty 2-D matrix, got shape {e.value.shape}"
        )
    shifted = e.value.astype(np.float64)
    shifted -= shifted.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    out64 = ex / ex.sum(axis=0, keepdims=True)
    out_value = out64.astype(e.value.dtype)

    def bw(out):
        g = out.grad.astype(np.float64)
        dot = (out64 * g).sum(axis=0, keepdims=True)
        e.accumulate_grad(out64 * (g - dot))

    return Tensor(out_value, (e,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the feature axis, then an affine map.

    Each row is shifted to mean 0 and scaled to unit variance (population
    variance plus ``eps``) before ``gain``/``bias`` are applied.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.value.ndim != 2:
        raise DimensionError(f"layer_norm needs a 2-D input, got shape {x.value.shape}")
    cols = x.value.shape[1]
    if cols < 2:
        raise DegenerateInputError(
            f"layer_norm over {cols} feature(s) is degenerate; need at least 2"
        )
    if gain.value.size != cols or bias.value.size != cols:
        raise DimensionError(
            f"gain/bias sizes {gain.value.size}/{bias.value.size} do not match {cols} columns"
        )
    g_row = gain.value.reshape(1, cols)
    b_row = bias.value.reshape(1, cols)

    x64 = x.value.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x64 - mu) * inv
    out_value = (xhat * g_row + b_row).astype(x.value.dtype)

    def bw(out):
        g = out.grad.astype(np.float64)
        gxhat = g * g_row
        m1 = gxhat.mean(axis=1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
        x.accumulate_grad(inv * (gxhat - m1 - xhat * m2))
        gain.accumulate_grad((g * xhat).sum(axis=0).reshape(gain.value.shape))
        bias.accumulate_grad(g.sum(axis=0).reshape(bias.value.shape))

    return Tensor(out_value, (x, gain, bias), bw)


def normalize_rows(x, strict: bool) -> Tensor:
    x = as_tensor(x)
    if x.value.ndim != 2:
        raise DimensionError(f"row normalization needs a 2-D input, got {x.value.shape}")
    x64 = x.value.astype(np.float64)
    norms = np.sqrt((x64**2).sum(axis=1, keepdims=True))
    live = norms > 1e-12
    if strict and not live.all():
        row = int(np.flatnonzero(~live)[0])
        raise DegenerateInputError(
            f"cannot normalize row {row} with norm {float(norms[row, 0]):.3e}"
        )
    safe = np.where(live, norms, 1.0)
    out64 = np.where(live, x64 / safe, 0.0)
    out_value = out64.astype(x.value.dtype)

    def bw(out):
        g = out.grad.astype(np.float64)
        proj = (out64 * g).sum(axis=1, keepdims=True)
        x.accumulate_grad(np.where(live, (g - out64 * proj) / safe, 0.0))

    return Tensor(out_value, (x,), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.value.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D operand, got {a.value.shape}")
    out_value = a.value.T.copy()

    def bw(out):
        a.accumulate_grad(out.grad.T)

    return Tensor(out_value, (a,), bw)


# How far a float32 kernel may land from its float64 oracle run on the same
# float32 inputs. The kernels work elementwise in float32 with float64 sums,
# so each entry takes a few float32 roundings (unit roundoff U32), and the
# bounds below are those roundings propagated, times a safety factor of 8
# over the first-order analysis. Rounding a row mean to float32 shifts the
# whole row by up to U32 * |mean|, which the row's deviation then divides:
# that is kappa = 1 + |mean| / deviation, the layer norm's condition number.

U32 = 2.0**-24


def layer_norm_float32_bounds(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                              g: np.ndarray, eps: float = 1e-5) -> list[np.ndarray]:
    """Bounds on |float32 layer norm - float64 oracle| for input rows x, the
    affine map and the upstream gradient g: the output, then the x, gain and
    bias gradients."""
    x, gain, bias, g = (np.asarray(a, np.float64) for a in (x, gain, bias, g))
    mean = x.mean(axis=1, keepdims=True)
    var = np.square(x - mean).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    kappa = 1.0 + np.abs(mean) * inv
    xhat = np.abs(x - mean) * inv
    gg = np.abs(g * gain).max(axis=1, keepdims=True)
    return [
        8 * U32 * (np.abs(gain) * (kappa + xhat) + np.abs(bias)),
        8 * U32 * inv * np.square(kappa + xhat.max(axis=1, keepdims=True)) * gg,
        8 * U32 * (np.abs(g) * (kappa + xhat)).sum(axis=0, keepdims=True),
        8 * U32 * np.abs(g).sum(axis=0, keepdims=True),
    ]


def assignment_float32_bound(tokens: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Bound on |float32 soft assignment - float64 oracle|, N x S. A float32
    logit is off by at most D * U32 times its sum of |products| (the matmul)
    plus U32 * |logit| (the scaling), delta per column at most; a weight
    moves by its relative share of twice that, plus a few roundings of its
    exp, its shift by the column max and its division. A weight that float32
    flushes to zero may be off by up to float32's smallest normal."""
    t, p = np.asarray(tokens, np.float64), np.asarray(prototypes, np.float64)
    d = t.shape[1]
    logits = t @ p.T / math.sqrt(d)
    delta = (d * U32 * (np.abs(t) @ np.abs(p).T) / math.sqrt(d)
             + U32 * np.abs(logits)).max(axis=0, keepdims=True)
    gap = logits.max(axis=0, keepdims=True) - logits
    want = assignment_weights(Tensor(t), Tensor(p)).value
    return 8 * want * np.expm1(2 * delta + U32 * (gap + 4)) + np.finfo(np.float32).tiny


def residual_rows_float32_bound(tokens: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Bound on |float32 residual-features row - float64 oracle| of one token
    set over one bank, a 1 x S bound per intra-normalized query row. The
    residual v_s = sum_n w[n, s] (x_n - c_s) moves by its weights' errors and
    by float32 sums of N terms (N * U32 each) over |x_n| + |c_s|; its unit
    row moves by twice that over |v_s|, plus the normalization's roundings.
    A zero residual stays zero."""
    t, p = np.asarray(tokens, np.float64), np.asarray(prototypes, np.float64)
    w = assignment_weights(Tensor(t), Tensor(p)).value
    slack = assignment_float32_bound(t, p) + 8 * (len(t) + 2) * U32 * w
    moved = np.linalg.norm(slack.T @ np.abs(t) + slack.sum(axis=0)[:, None] * np.abs(p), axis=1)
    norms = np.linalg.norm(residual_aggregate(Tensor(t), Tensor(p), Tensor(w)).value, axis=1)
    live = norms > 1e-12
    return np.where(live, 2 * moved / np.where(live, norms, 1.0) + 32 * U32, 0.0)[None, :]


# A token set's residual features composed of generic ops, about a dozen
# nodes: vlaq.residual_features must match its value bit for bit, and its
# token and bank gradients up to summation order.


def assignment_weights(tokens: Tensor, prototypes: Tensor) -> Tensor:
    """Soft-assignment matrix alpha (N x S); every column sums to one."""
    n_dim = tokens.value.shape[1]
    s_dim = prototypes.value.shape[1]
    if n_dim != s_dim:
        raise DimensionError(
            f"token dim {n_dim} does not match prototype dim {s_dim}"
        )
    logits = scale(matmul(tokens, transpose(prototypes)), 1.0 / math.sqrt(n_dim))
    return softmax_columns(logits)


def residual_aggregate(tokens: Tensor, prototypes: Tensor, alpha: Tensor) -> Tensor:
    """Aggregate v_s = sum_n alpha[n, s] * (x_n - c_s), one row per query."""
    n = tokens.value.shape[0]
    weighted = matmul(transpose(alpha), tokens)
    ones = constant(np.ones((1, n), dtype=tokens.value.dtype))
    col_mass = transpose(matmul(ones, alpha))
    return sub(weighted, mul(prototypes, col_mass))


def residual_features(tokens: Tensor, prototypes: Tensor) -> Tensor:
    """Pre-head row of one token set: tokens (N x D) -> 1 x (S*D)."""
    s, d = prototypes.value.shape
    alpha = assignment_weights(tokens, prototypes)
    residuals = residual_aggregate(tokens, prototypes, alpha)
    return reshape(normalize_rows(residuals, strict=False), (1, s * d))


def shifted_bank(prototypes: Tensor, shift: Tensor, alpha: float) -> Tensor:
    """The bank of one token set: prototypes + alpha * its 1 x (S*D) shift."""
    return ad.add(prototypes, scale(reshape(shift, prototypes.value.shape), alpha))


def stacked_residual_features(tokens: Tensor, counts: Sequence[int], prototypes: Tensor,
                              shifts: Tensor | None = None, alpha: float = 1.0) -> Tensor:
    """vlaq.residual_features as the per-set graph it replaced: slices of the
    token stack and of the shifts, a bank per set and one row per set."""
    rows, start = [], 0
    for i, n in enumerate(counts):
        bank = prototypes if shifts is None else \
            shifted_bank(prototypes, slice_rows(shifts, i, i + 1), alpha)
        rows.append(residual_features(slice_rows(tokens, start, start + n), bank))
        start += n
    return ad.concat_rows(rows, [[1]] * len(rows))


def per_set_residual_rows(tokens: np.ndarray, counts: Sequence[int], prototypes: np.ndarray,
                          shifts: np.ndarray | None = None, alpha: float = 1.0) -> np.ndarray:
    """vlaq.residual_features's rows one token set at a time, through the
    package's own assignment, aggregation and intra-norm kernels: a node over
    stacked sets must give every set these bits, in either dtype."""
    rows, start = [], 0
    for i, n in enumerate(counts):
        x, start = tokens[start : start + n], start + n
        bank = prototypes if shifts is None else \
            prototypes + shifts[i].reshape(prototypes.shape) * alpha
        residuals = vlaq.residual_aggregate(x, bank, vlaq.assignment_weights(x, bank))
        rows.append(ad.normalize_rows_values(residuals, strict=False)[0].reshape(1, -1))
    return np.concatenate(rows).astype(tokens.dtype)


# The MLP and the ops it was composed of before it became one node:
# autodiff.mlp_forward must match this composition bit for bit in its value,
# and in every gradient up to the sign of zero. sqrt has no caller in
# the package; pair_distance below uses it.


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_value = np.tanh(a.value)

    def bw(out):
        a.accumulate_grad(out.grad * (1.0 - out.value * out.value))

    return Tensor(out_value, (a,), bw)


def sqrt(a, eps: float = 0.0) -> Tensor:
    """Elementwise sqrt(a + eps); eps > 0 keeps the gradient finite at 0."""
    a = as_tensor(a)
    out_value = np.sqrt(a.value + eps)

    def bw(out):
        a.accumulate_grad(out.grad * 0.5 / out.value)

    return Tensor(out_value, (a,), bw)


def mlp_forward(x, layers: Sequence, activation: str = "tanh") -> Tensor:
    """Apply a stack of (weight, bias) layers; the final layer has no activation.

    ``layers`` holds (W, b) pairs with W of shape (in, out) and b of shape
    (1, out); consecutive widths must chain with the input's column count.
    """
    if activation not in ("tanh", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    act = tanh if activation == "tanh" else relu
    h = as_tensor(x)
    n_layers = len(layers)
    if n_layers == 0:
        raise ConfigurationError("mlp_forward needs at least one layer")
    for i, (w, b) in enumerate(layers):
        w, b = as_tensor(w), as_tensor(b)
        if h.value.shape[1] != w.value.shape[0]:
            raise ConfigurationError(
                f"layer {i}: input width {h.value.shape[1]} does not chain with "
                f"weight shape {w.value.shape}"
            )
        h = add(matmul(h, w), b)
        if i < n_layers - 1:
            h = act(h)
    return h


# RK4 unrolled on the autodiff tape with arbitrary dynamics: about 30 nodes
# per step. fusion.rk4_integrate must match its output bit for bit when the
# dynamics are the same MLP, and its gradients up to summation order.


def rk4_unrolled(state: ad.Tensor, dynamics: Callable[[ad.Tensor], ad.Tensor],
                 steps: int, horizon: float) -> ad.Tensor:
    """Integrate y' = dynamics(y) from 0 to horizon with classic RK4.

    Raises DivergenceError naming the first step whose state stops being
    finite.
    """
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    h = horizon / steps
    y = state
    for i in range(steps):
        k1 = dynamics(y)
        k2 = dynamics(ad.add(y, scale(k1, h / 2.0)))
        k3 = dynamics(ad.add(y, scale(k2, h / 2.0)))
        k4 = dynamics(ad.add(y, scale(k3, h)))
        increment = ad.add(ad.add(k1, scale(k2, 2.0)), ad.add(scale(k3, 2.0), k4))
        y = ad.add(y, scale(increment, h / 6.0))
        if not np.isfinite(y.value).all():
            raise DivergenceError(
                f"non-finite state after integration step {i + 1} of {steps}"
            )
    return y


# The list-based training loss: one sub-tape per descriptor and one
# pair_distance subgraph per compared pair. The batched training.batch_loss
# must agree with it up to summation order.


def _const(value: float, like: ad.Tensor) -> ad.Tensor:
    return ad.as_tensor(np.array([[value]], dtype=like.value.dtype))


def pair_distance(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Differentiable Euclidean distance between two descriptor rows."""
    diff = sub(a, b)
    return sqrt(sum_all(mul(diff, diff)), eps=1e-12)


def _mean(terms: list[ad.Tensor]) -> ad.Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return scale(total, 1.0 / len(terms))


def triplet_loss(anchors: list[ad.Tensor], positives: list[ad.Tensor],
                 negatives: list[ad.Tensor], margin: float) -> ad.Tensor:
    """Mean hinge on (margin + d_pos - d_neg) over aligned triplets."""
    if not (len(anchors) == len(positives) == len(negatives)):
        raise ContractError(
            f"triplet lists must align, got {len(anchors)}/{len(positives)}/{len(negatives)}"
        )
    if not anchors:
        raise ContractError("triplet loss needs at least one triplet")
    terms = []
    for a, p, n in zip(anchors, positives, negatives):
        gap = ad.add(sub(pair_distance(a, p), pair_distance(a, n)), _const(margin, a))
        terms.append(relu(gap))
    return _mean(terms)


def aux_consistency_loss(domain_descriptors: dict[str, list[ad.Tensor]],
                         anchor_geos: list[tuple[float, float]],
                         aerial_descriptors: list[ad.Tensor],
                         aerial_geos: list[tuple[float, float]],
                         thresholds: training.MiningThresholds,
                         margin: float) -> ad.Tensor:
    """Cross-domain contrastive consistency against in-batch references.

    Every (ground domain, anchor, reference) pair contributes a hinge pulling
    geo-close pairs under the margin and pushing geo-far pairs past twice the
    margin; band pairs contribute nothing. Returns zero if no pair lands in
    either zone.
    """
    terms: list[ad.Tensor] = []
    for descs in domain_descriptors.values():
        if len(descs) != len(anchor_geos):
            raise ContractError("one descriptor per anchor required in every domain")
        for a_desc, a_geo in zip(descs, anchor_geos):
            for r_desc, r_geo in zip(aerial_descriptors, aerial_geos):
                d_geo = math.hypot(a_geo[0] - r_geo[0], a_geo[1] - r_geo[1])
                if d_geo < thresholds.tau_p:
                    dist = pair_distance(a_desc, r_desc)
                    terms.append(relu(sub(dist, _const(margin, dist))))
                elif d_geo > thresholds.tau_n:
                    dist = pair_distance(a_desc, r_desc)
                    terms.append(relu(sub(_const(2.0 * margin, dist), dist)))
    if not terms:
        return constant(np.zeros((1, 1), dtype=aerial_descriptors[0].value.dtype))
    return _mean(terms)


def batch_loss(model: PlaceModel, anchors: list, positives: list, negatives: list,
               settings: training.TrainSettings) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor, ad.Tensor]:
    """Forward pass of one training batch; returns (l_tri, l_aux, l_q, total).

    ``anchors`` are ground observations; ``positives``/``negatives`` are the
    aerial references mined for them, aligned by position. The union of the
    mined references also serves as the in-batch set for the consistency
    loss.
    """
    ref_pairs: list[tuple[str, object]] = []
    seen: set[str] = set()
    for ref in [*positives, *negatives]:
        if ref.id not in seen:
            seen.add(ref.id)
            ref_pairs.append((ref.id, ref))
    ref_pairs.sort(key=lambda pair: pair[0])
    ref_descs = {rid: model.aerial_descriptor(ref) for rid, ref in ref_pairs}

    fused = [model.ground_forward(obs) for obs in anchors]
    domain_descriptors = {
        "fused": [f.descriptor for f in fused],
        "image": [
            model.ground_forward(obs, mask="image-only", conditioned=False).descriptor
            for obs in anchors
        ],
        "lidar": [
            model.ground_forward(obs, mask="lidar-only", conditioned=False).descriptor
            for obs in anchors
        ],
    }

    l_tri = triplet_loss(
        domain_descriptors["fused"],
        [ref_descs[ref.id] for ref in positives],
        [ref_descs[ref.id] for ref in negatives],
        settings.margin,
    )
    l_aux = aux_consistency_loss(
        domain_descriptors,
        [obs.geo for obs in anchors],
        [ref_descs[rid] for rid, _ in ref_pairs],
        [ref.geo for _, ref in ref_pairs],
        settings.thresholds,
        settings.margin,
    )
    l_q = query_shift_regularizer([f.shift for f in fused], model.dtype)
    return l_tri, l_aux, l_q, total_loss(l_tri, l_aux, l_q, settings.weights)


def mine_epoch(model: PlaceModel, dataset: TokenDataset, settings: training.TrainSettings,
               epoch: int, rng: np.random.Generator
               ) -> tuple[list[tuple[list, list, list]], int]:
    """Per-anchor mining of one epoch, as training.train_epoch mines it.

    Returns the (anchor, positive, negative) id lists of each batch that
    reaches the loss, in order, and the skipped-anchor count. Anchors are
    shuffled by ``rng.permutation``; an anchor with no positive or no
    negative is skipped. The positive is the geo-nearest positive. Epoch 0
    draws the negative with one ``rng.integers`` per kept anchor; later
    epochs take the negative nearest by float64 descriptor distance. ``min``
    breaks ties by the lowest reference index.
    """
    train_obs = dataset.split_ground("train")
    refs = dataset.aerial
    if epoch > 0:
        hard_ground = model.embed_ground(train_obs).astype(np.float64)
        hard_aerial = model.embed_aerial(refs).astype(np.float64)
    order = rng.permutation(len(train_obs))
    batches, skipped = [], 0
    for start in range(0, len(order), settings.batch_size):
        anchors, positives, negatives = [], [], []
        for oi in order[start : start + settings.batch_size]:
            obs = train_obs[oi]
            pos, neg = training.mine_pairs(obs.geo, [r.geo for r in refs], settings.thresholds)
            if not pos or not neg:
                skipped += 1
                continue
            best_pos = min(pos, key=lambda j: math.hypot(obs.geo[0] - refs[j].geo[0],
                                                         obs.geo[1] - refs[j].geo[1]))
            if epoch == 0:
                chosen = neg[int(rng.integers(len(neg)))]
            else:
                chosen = min(neg, key=lambda j: float(np.linalg.norm(hard_ground[oi]
                                                                     - hard_aerial[j])))
            anchors.append(obs.id)
            positives.append(refs[best_pos].id)
            negatives.append(refs[chosen].id)
        if anchors:
            batches.append((anchors, positives, negatives))
    return batches, skipped


# The batch objective composed of generic ops, about 60 nodes for 16
# anchors: training.objective must match its four values bit for bit, and
# its gradients up to summation order.


def matrix_triplet_loss(distances: Tensor, positives: Sequence[int],
                        negatives: Sequence[int], margin: float) -> Tensor:
    """Mean hinge on (margin + d_pos - d_neg) over the rows of an anchors x
    references matrix; row i's positive and negative are the columns
    ``positives[i]`` and ``negatives[i]``."""
    rows = distances.value.shape[0]
    dtype = distances.value.dtype
    sign = np.zeros(distances.value.shape, dtype=dtype)
    sign[np.arange(rows), positives] = 1.0
    sign[np.arange(rows), negatives] = -1.0
    ones = constant(np.ones((sign.shape[1], 1), dtype=dtype))
    gap = matmul(mul(distances, constant(sign)), ones)
    hinge = relu(add(gap, constant(np.full((1, 1), margin, dtype=dtype))))
    return ad.mean_rows(hinge)


def matrix_aux_consistency_loss(distances: Tensor,
                                ground_geos: Sequence[tuple[float, float]],
                                reference_geos: Sequence[tuple[float, float]],
                                thresholds: training.MiningThresholds,
                                margin: float) -> Tensor:
    """Mean hinge over the zoned pairs of a ground x reference matrix: under
    the margin for geo-close pairs, past twice the margin for geo-far ones."""
    near, far = training.geo_zones(ground_geos, reference_geos, thresholds)
    count = int(near.sum() + far.sum())
    dtype = distances.value.dtype
    if count == 0:
        return constant(np.zeros((1, 1), dtype=dtype))
    sign = near.astype(dtype) - far.astype(dtype)
    offset = (np.where(near, -margin, 0.0) + np.where(far, 2.0 * margin, 0.0)).astype(dtype)
    hinge = relu(add(mul(distances, constant(sign)), constant(offset)))
    return scale(sum_all(hinge), 1.0 / count)


def query_shift_regularizer(deltas: list[Tensor | None], dtype) -> Tensor:
    """Mean squared Frobenius norm of the per-anchor prototype shifts;
    anchors without a shift count in the denominator."""
    terms = [sum_all(mul(d, d)) for d in deltas if d is not None]
    if not terms:
        return constant(np.zeros((1, 1), dtype=dtype))
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return scale(total, 1.0 / len(deltas))


def total_loss(l_tri: Tensor, l_aux: Tensor, l_q: Tensor,
               weights: training.LossWeights) -> Tensor:
    return add(
        add(scale(l_tri, weights.triplet), scale(l_aux, weights.aux)),
        scale(l_q, weights.shift),
    )


def objective(descriptors: Tensor, positives: Sequence[int], negatives: Sequence[int],
              ground_geos: Sequence[tuple[float, float]],
              reference_geos: Sequence[tuple[float, float]],
              shifts: Tensor | None, settings: training.TrainSettings
              ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(l_tri, l_aux, l_q, total) with training.objective's arguments."""
    n = len(ground_geos)
    distances = pairwise_distance(slice_rows(descriptors, 0, n),
                                  slice_rows(descriptors, n, len(descriptors.value)))
    deltas = [None if shifts is None else slice_rows(shifts, i, i + 1)
              for i in range(len(positives))]
    l_tri = matrix_triplet_loss(slice_rows(distances, 0, len(positives)),
                                positives, negatives, settings.margin)
    l_aux = matrix_aux_consistency_loss(distances, ground_geos, reference_geos,
                                        settings.thresholds, settings.margin)
    l_q = query_shift_regularizer(deltas, distances.value.dtype)
    return l_tri, l_aux, l_q, total_loss(l_tri, l_aux, l_q, settings.weights)


# Adam with a fresh array per intermediate; training.adam_step must match
# it bit for bit.


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    All gradients are validated before any parameter moves, so a divergent
    batch leaves the store at its last finite state. Gradients are cleared
    after the update.
    """
    for name, p in store.items():
        if p._grad is not None and not np.isfinite(p._grad).all():
            raise DivergenceError(f"non-finite gradient in parameter {name!r}")
    store.step += 1
    t = store.step
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    for name, p in store.items():
        g = p.grad
        m = store.first_moment[name]
        v = store.second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / correct1) / (np.sqrt(v / correct2) + eps)
        p.value -= lr * update.astype(p.value.dtype)
    store.zero_grads()


# Exact search as it ran before the database cached its squared norms and id
# ranks: both are recomputed on every call. retrieval.knn_search must match it
# bit for bit, indices and distances.


def knn_search(query_vecs: np.ndarray, db: retrieval.DescriptorDatabase,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference indices and distances per query, exact and stable.

    Equal distances are ordered by ascending reference id, so the ranking is
    a pure function of the inputs.
    """
    if not 1 <= k <= len(db):
        raise ContractError(f"k must be in [1, {len(db)}], got {k}")
    dists = retrieval.distance_matrix(query_vecs, db.vectors)
    id_rank = np.argsort(np.argsort(db.ids, kind="stable"), kind="stable")
    indices = np.empty((dists.shape[0], k), dtype=np.int64)
    out_d = np.empty((dists.shape[0], k), dtype=np.float64)
    for qi in range(dists.shape[0]):
        order = np.lexsort((id_rank, dists[qi]))[:k]
        indices[qi] = order
        out_d[qi] = dists[qi, order]
    return indices, out_d
