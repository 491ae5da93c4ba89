"""Reverse-mode automatic differentiation over dense numpy matrices.

Every differentiable operation builds a node in a dynamic graph that is
rebuilt on each forward pass. Values are float32 by default (float64 graphs
are supported and used by the gradient-check oracles). The layer norm works
elementwise in its input's dtype and keeps its state in it, but takes every
row or column sum with ``dtype=np.float64`` (a mean as ``sum / n``); the row
normalization works on one float64 copy. A row-wise kernel gives a row the
same bits in any block of rows, so a token projection normalizes and sweeps
back a batch's rows in blocks. The MLP, the layer norm and the row
normalization are numpy values/backward pairs, reused by the nodes that fuse
several steps; ``add`` of two same-shape matrices is the only elementwise op.
A node owns its gradient: the first one is copied unless the sweep made it
for that node alone (``fresh``). ``backward`` sweeps a graph once, freeing
each interior node's saved state and gradient as it goes; leaves accumulate.
Every public function here has a caller elsewhere in the package; the
composed ops the nodes replaced are the tests' oracles."""

from __future__ import annotations

import contextvars
import itertools
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
)

DEFAULT_DTYPE = np.float32

# Per thread (and per asyncio task): no_grad in one cannot switch off
# graph construction in another.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph construction (inference mode)
    in the current thread."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def grad_enabled() -> bool:
    """Whether ops in the current thread record the graph (False under no_grad)."""
    return _grad_enabled.get()


class Tensor:
    """A dense array with an accumulated gradient and backward recipe.

    ``value`` is the forward result; ``grad`` has the same shape and holds
    d(loss)/d(self) after ``backward()`` has run, for a leaf: a leaf's
    gradient accumulates across graphs until cleared, while an interior
    node's is freed with the rest of its state once its sweep has run.
    """

    __slots__ = ("value", "_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        arr = np.asarray(value)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.value = arr
        self._grad = None
        if _grad_enabled.get():
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def accumulate_grad(self, g, fresh: bool = False) -> None:
        """Add g, of this node's shape, into the gradient. A first g is copied
        unless ``fresh`` says the sweep made it for this node alone (not handed
        to another node, not a view): a C-contiguous g of this dtype is adopted."""
        if self._grad is not None:
            self._grad += g
        elif fresh and g.flags.c_contiguous and g.dtype == self.value.dtype:
            self._grad = g
        else:
            self._grad = np.array(g, dtype=self.value.dtype, copy=True)

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.value.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.value.shape}")
        return float(self.value.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a, b) -> Tensor:
    """Elementwise sum of two matrices of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add needs one shape, got {a.value.shape} and {b.value.shape}")

    def bw(out):
        a.accumulate_grad(out.grad)
        b.accumulate_grad(out.grad)

    return Tensor(a.value + b.value, (a, b), bw)


def concat_rows(parts: Sequence, counts: Sequence[Sequence[int]]) -> Tensor:
    """Stack 2-D blocks along the row axis; a single block is returned as is.

    Block k is cut into consecutive segments of counts[k] rows, and segment
    j of every block comes before segment j+1 of any."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one block")
    if len(parts) == 1:
        return parts[0]
    if (len({len(c) for c in counts}) > 1
            or [sum(c) for c in counts] != [len(p.value) for p in parts]):
        raise DimensionError(f"cannot cut blocks of {[p.value.shape for p in parts]} into {counts}")
    blocks = [[p.value[stop - n : stop] for stop, n in zip(itertools.accumulate(c), c)]
              for p, c in zip(parts, counts)]
    out_value = np.concatenate([b for segment in zip(*blocks) for b in segment])

    def bw(out):
        sizes = [n for segment in zip(*counts) for n in segment]
        g = np.split(out.grad, np.cumsum(sizes)[:-1])
        for k, p in enumerate(parts):
            p.accumulate_grad(np.concatenate(g[k :: len(parts)]), fresh=True)

    return Tensor(out_value, tuple(parts), bw)


def mean_rows(a, counts: Sequence[int] | None = None) -> Tensor:
    """Mean over the row axis of a 2-D matrix: one 1 x cols row, or with
    ``counts`` one row per consecutive segment of that many rows."""
    a = as_tensor(a)
    counts = list(a.value.shape[:1] if counts is None else counts)
    if a.value.ndim != 2 or min(counts, default=0) < 1 or sum(counts) != len(a.value):
        raise DegenerateInputError(
            f"mean_rows needs non-empty row segments of a 2-D matrix, got shape "
            f"{a.value.shape} and row counts {counts}"
        )
    out_value = np.empty((len(counts), a.value.shape[1]), a.value.dtype)
    if len(set(counts)) == 1:  # one float64 reduction, np.mean's bits per segment
        sums = a.value.reshape(len(counts), counts[0], -1).sum(axis=1, dtype=np.float64)
        out_value[...] = sums / counts[0]
    else:
        for row, n, stop in zip(out_value, counts, itertools.accumulate(counts)):
            row[...] = a.value[stop - n : stop].mean(axis=0, dtype=np.float64)

    def bw(out):
        g = out.grad / np.asarray(counts, dtype=out.grad.dtype)[:, None]
        a.accumulate_grad(np.repeat(g, counts, axis=0), fresh=True)

    return Tensor(out_value, (a,), bw)


def layer_norm_values(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of the rows of the 2-D x, elementwise in x's dtype: each row
    is shifted to mean 0 and scaled to unit variance (population variance plus
    ``eps``; both are float64 sums, rounded once), then the 1 x cols ``gain``
    and ``bias`` are applied. Returns the output and, for layer_norm_backward,
    the normalized rows and their inverse deviations, all in x's dtype."""
    cols = x.shape[1]
    if cols < 2:
        raise DegenerateInputError(
            f"layer_norm over {cols} feature(s) is degenerate; need at least 2"
        )
    xhat = x - (x.sum(axis=1, keepdims=True, dtype=np.float64) / cols).astype(x.dtype)
    scratch = np.square(xhat)
    var = scratch.sum(axis=1, keepdims=True, dtype=np.float64) / cols
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat *= inv
    np.multiply(xhat, gain, out=scratch)
    scratch += bias
    return scratch, xhat, inv


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                        gain: np.ndarray, g_gain: np.ndarray, g_bias: np.ndarray
                        ) -> np.ndarray:
    """Reverse sweep of ``layer_norm_values`` for the output gradient g, in
    xhat's dtype with float64 sums: adds the gain and bias gradients into the
    caller's float64 buffers and returns the gradient at x, a fresh array."""
    cols = xhat.shape[1]
    scratch = g * xhat
    g_gain += scratch.sum(axis=0, dtype=np.float64)
    g_bias += g.sum(axis=0, dtype=np.float64)
    g = g * gain
    np.multiply(g, xhat, out=scratch)
    g -= (g.sum(axis=1, keepdims=True, dtype=np.float64) / cols).astype(g.dtype)
    dot = (scratch.sum(axis=1, keepdims=True, dtype=np.float64) / cols).astype(g.dtype)
    g -= np.multiply(xhat, dot, out=scratch)
    g *= inv
    return g


def normalize_rows_values(x: np.ndarray, strict: bool
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the 2-D x at unit Euclidean norm in float64, each row's divisor,
    and the mask of rows with norm at most 1e-12: those raise
    DegenerateInputError naming the row if ``strict``, else pass as zeros.
    The three arrays are what ``normalize_rows_backward`` takes after g."""
    if x.ndim != 2:
        raise DimensionError(f"row normalization needs a 2-D input, got {x.shape}")
    out64 = x.astype(np.float64)
    norms = np.sqrt(np.square(out64).sum(axis=1, keepdims=True))
    live = norms > 1e-12
    if strict and not live.all():
        row = int(np.flatnonzero(~live)[0])
        raise DegenerateInputError(
            f"cannot normalize row {row} with norm {float(norms[row, 0]):.3e}"
        )
    safe = np.where(live, norms, 1.0)
    dead = ~live[:, 0]
    out64 /= safe
    out64[dead] = 0.0
    return out64, safe, dead


def normalize_rows_backward(g: np.ndarray, out64: np.ndarray, safe: np.ndarray,
                            dead: np.ndarray) -> np.ndarray:
    """Reverse sweep of ``normalize_rows_values`` for the output gradient g,
    returned in float64."""
    g = g.astype(np.float64)
    scratch = out64 * g
    g -= np.multiply(out64, scratch.sum(axis=1, keepdims=True), out=scratch)
    g /= safe
    g[dead] = 0.0
    return g


def check_mlp(x: np.ndarray, weights: Sequence, activation: str) -> int:
    """Validate an MLP on the 2-D input x: the activation and the width chain
    of its (W, b) arrays. Returns the MLP's output width."""
    if activation not in ("tanh", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    if not weights:
        raise ConfigurationError("an MLP needs at least one layer")
    if x.ndim != 2:
        raise DimensionError(f"an MLP input must be 2-D, got shape {x.shape}")
    width = x.shape[1]
    for i, (w, _) in enumerate(weights):
        if w.ndim != 2 or w.shape[0] != width:
            raise ConfigurationError(
                f"layer {i}: input width {width} does not chain with weight "
                f"shape {w.shape}"
            )
        width = w.shape[1]
    return width


def mlp_values(x: np.ndarray, weights: Sequence, activation: str
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """An MLP's value at x, and the input of each of its layers: ``weights``
    holds (W, b) arrays, and the activation sits between layers."""
    inputs = [x]
    for w, b in weights[:-1]:
        x = x @ w + b
        x = np.tanh(x, out=x) if activation == "tanh" else np.maximum(x, 0, out=x)
        inputs.append(x)
    w, b = weights[-1]
    return x @ w + b, inputs


def mlp_backward(weights: Sequence, inputs: Sequence[np.ndarray], g: np.ndarray,
                 g_w: Sequence[np.ndarray], g_b: Sequence[np.ndarray],
                 activation: str) -> np.ndarray:
    """Reverse sweep of ``mlp_values`` for the output gradient g: adds each
    layer's gradients into the caller's buffers g_w[j] and g_b[j], and
    returns the gradient at the MLP's input."""
    for j in range(len(weights) - 1, -1, -1):
        x = inputs[j]
        g_w[j] += x.T @ g
        g_b[j] += g.sum(axis=0)
        g = g @ weights[j][0].T
        if j:
            g = g * (1.0 - x * x) if activation == "tanh" else g * (x > 0)
    return g


def mlp_forward(x, layers: Sequence, activation: str = "tanh") -> Tensor:
    """Apply a stack of (weight, bias) layers as one node; the final layer
    has no activation.

    ``layers`` holds (W, b) pairs with W of shape (in, out) and b of shape
    (1, out); consecutive widths must chain with the input's column count.
    """
    x = as_tensor(x)
    params = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    weights = [(w.value, b.value) for w, b in params]
    check_mlp(x.value, weights, activation)
    out_value, inputs = mlp_values(x.value, weights, activation)

    def bw(out):
        g_w = [np.zeros_like(w) for w, _ in weights]
        g_b = [np.zeros_like(b) for _, b in weights]
        x.accumulate_grad(mlp_backward(weights, inputs, out.grad, g_w, g_b, activation))
        for (w, b), gw, gb in zip(params, g_w, g_b):
            w.accumulate_grad(gw, fresh=True)
            b.accumulate_grad(gb, fresh=True)

    return Tensor(out_value, (x, *(t for layer in params for t in layer)), bw)


def _topo_order(root: Tensor) -> list:
    """Parents-first ordering of the graph reachable from root (iterative DFS)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _swept(node):
    raise ContractError("this node's graph was already swept")


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar loss depends on, sweeping
    the graph once: each interior node drops its saved forward state, parent
    links and gradient as soon as its sweep has run. Leaves keep accumulating
    across graphs until cleared (the optimizer step clears parameters).
    """
    if loss.value.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    if any(node._backward is _swept for node in order):
        raise ContractError("backward reached a node of a graph it already swept and "
                            "freed; rebuild the forward to differentiate it again")
    loss.accumulate_grad(np.ones_like(loss.value))
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node)
            node._backward, node._parents, node._grad = _swept, (), None
