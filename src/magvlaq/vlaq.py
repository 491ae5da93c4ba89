"""Query-residual token aggregation.

A bank of S learned query prototypes soft-assigns the N input tokens via a
scaled-dot-product softmax over the *token* axis, aggregates weighted
residuals against each prototype, intra-normalizes per query, and projects
the flattened result to a fixed-size L2-normalized descriptor.

Assignment and aggregation are numpy functions of arrays. ``residual_features``
runs them and the intra-norm over stacked token sets as one autodiff node, with
a hand-written reverse sweep for the tokens, the bank and its per-set shifts.
``head`` projects and L2-normalizes blocks of pre-head rows as one node.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import DimensionError


def init_prototypes(num_queries: int, proj_dim: int, rng: np.random.Generator,
                    dtype: np.dtype = ad.DEFAULT_DTYPE) -> np.ndarray:
    """Draw the initial S x D query bank, entries N(0, 1/sqrt(D))."""
    scale = 1.0 / math.sqrt(proj_dim)
    return rng.normal(0.0, scale, size=(num_queries, proj_dim)).astype(dtype)


def assignment_weights(tokens: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Soft-assignment matrix alpha (N x S) in the tokens' dtype: a softmax over
    the token axis of the token-prototype dot products scaled by 1/sqrt(D), so
    each query spreads one unit of attention across the tokens. It works
    elementwise in the tokens' dtype; each column's denominator is a float64
    sum, rounded once.
    """
    if tokens.shape[1] != prototypes.shape[1] or 0 in tokens.shape + prototypes.shape:
        raise DimensionError(
            f"cannot assign tokens of shape {tokens.shape} to prototypes of shape "
            f"{prototypes.shape}"
        )
    alpha = tokens @ prototypes.T.copy()
    alpha *= 1.0 / math.sqrt(tokens.shape[1])
    alpha -= alpha.max(axis=0, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=0, keepdims=True, dtype=np.float64).astype(alpha.dtype)
    return alpha


def residual_aggregate(tokens: np.ndarray, prototypes: np.ndarray,
                       alpha: np.ndarray) -> np.ndarray:
    """Aggregate v_s = sum_n alpha[n, s] * (x_n - c_s), one row per query,
    with alpha in the tokens' dtype."""
    residuals = alpha.T.copy() @ tokens
    residuals -= prototypes * (np.ones((1, len(tokens)), tokens.dtype) @ alpha).T
    return residuals


def shifted_bank(prototypes: np.ndarray, shift: np.ndarray | None, alpha: float) -> np.ndarray:
    """One token set's S x D bank: ``prototypes`` moved by ``alpha`` times its
    flat S*D ``shift``, or the shared ``prototypes`` if that is None."""
    return prototypes if shift is None else prototypes + shift.reshape(prototypes.shape) * alpha


def residual_features(tokens: ad.Tensor, counts: Sequence[int], prototypes: ad.Tensor,
                      shifts: ad.Tensor | None = None, alpha: float = 1.0) -> ad.Tensor:
    """Pre-head rows of stacked token sets as one node, n x (S*D) for n
    ``counts``: set i is the next counts[i] rows of ``tokens``, and its bank
    is ``shifted_bank`` of row i of ``shifts``. Per set: soft assignment,
    residual aggregation, per-query intra-norm (a zero residual passes
    through as zeros) and a row-major flatten."""
    x, c, alpha = tokens.value, prototypes.value, float(alpha)
    out = np.empty((len(counts), c.size), x.dtype)
    saved = []  # with a tape, each set's rows, bank, weights and intra-norm state
    for i, (stop, n) in enumerate(zip(itertools.accumulate(counts), counts)):
        rows = slice(stop - n, stop)
        bank = shifted_bank(c, None if shifts is None else shifts.value[i], alpha)
        weights = assignment_weights(x[rows], bank)
        norm = ad.normalize_rows_values(residual_aggregate(x[rows], bank, weights), strict=False)
        out[i] = norm[0].reshape(-1)
        if ad.grad_enabled():
            saved.append((rows, bank, weights, norm))

    def bw(node):
        g_tokens, g_prototypes, g_shifts = np.empty_like(x), np.zeros_like(c), []
        for i, (rows, bank, weights, norm) in enumerate(saved):
            g = ad.normalize_rows_backward(node.grad[i].reshape(c.shape), *norm)
            g = g.astype(x.dtype, copy=False)
            # The mass sum_n w[n, s] is one for every prototype, so its term
            # sends gradient to the bank alone: on the weights w it would be
            # a constant per column, which the softmax sweep cancels.
            g_logits = x[rows] @ g.T
            dot = (weights * g_logits).sum(axis=0, keepdims=True, dtype=np.float64)
            g_logits -= dot.astype(x.dtype)
            g_logits *= weights
            g_logits *= 1.0 / math.sqrt(x.shape[1])
            g_tokens[rows] = weights @ g + g_logits @ bank
            g_bank = g_logits.T @ x[rows] - g
            g_prototypes += g_bank
            if shifts is not None:
                g_shifts.append((g_bank * alpha).reshape(-1))
        tokens.accumulate_grad(g_tokens, fresh=True)
        prototypes.accumulate_grad(g_prototypes, fresh=True)
        if shifts is not None:
            shifts.accumulate_grad(np.stack(g_shifts), fresh=True)

    return ad.Tensor(out, (tokens, prototypes, *([] if shifts is None else [shifts])), bw)


def head(blocks: Sequence[ad.Tensor], proj_w: ad.Tensor) -> ad.Tensor:
    """Unit descriptors of blocks of pre-head rows as one node, a row per
    pre-head row in block order: the stacked rows (a single block as it is,
    not copied) times the bias-free projection ``proj_w``, then a row-wise L2
    norm that raises DegenerateInputError naming a row that projects to zero.
    The reverse sweep hands each block its rows of the input gradient."""
    w = proj_w.value
    if not blocks or any(b.value.ndim != 2 or b.value.shape[1] != len(w) for b in blocks):
        raise DimensionError(f"projection expects {len(w)} inputs, got blocks of "
                             f"{[b.value.shape for b in blocks]}")
    x = blocks[0].value if len(blocks) == 1 else np.concatenate([b.value for b in blocks])
    projected = x @ w
    rows = ad.normalize_rows_values(projected, strict=True)

    def bw(node):
        g = ad.normalize_rows_backward(node.grad, *rows).astype(projected.dtype)
        g_x = g @ w.T
        proj_w.accumulate_grad(x.T @ g, fresh=True)
        for block, stop in zip(blocks, itertools.accumulate(len(b.value) for b in blocks)):
            block.accumulate_grad(g_x[stop - len(block.value) : stop])

    return ad.Tensor(rows[0].astype(projected.dtype), (*blocks, proj_w), bw)


def vlaq_descriptor(tokens: ad.Tensor, prototypes: ad.Tensor,
                    proj_w: ad.Tensor) -> ad.Tensor:
    """Full aggregation: tokens (N x D) -> unit descriptor (1 x out_dim).

    The residual features of the tokens, then the head: a bias-free
    projection and a global L2 norm. Raises DegenerateInputError if the
    projected descriptor is all zeros.
    """
    return head([residual_features(tokens, [len(tokens.value)], prototypes)], proj_w)
