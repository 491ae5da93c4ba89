"""Query-residual token aggregation.

A bank of S learned query prototypes soft-assigns the N input tokens via a
scaled-dot-product softmax over the *token* axis, aggregates weighted
residuals against each prototype, intra-normalizes per query, and projects
the flattened result to a fixed-size L2-normalized descriptor.

Assignment and aggregation are numpy functions of arrays. ``residual_features``
runs them and the intra-norm as one autodiff node per token set, with a
hand-written reverse sweep for the tokens and the bank.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import DimensionError


def init_prototypes(num_queries: int, proj_dim: int, rng: np.random.Generator,
                    dtype: np.dtype = ad.DEFAULT_DTYPE) -> np.ndarray:
    """Draw the initial S x D query bank, entries N(0, 1/sqrt(D))."""
    scale = 1.0 / math.sqrt(proj_dim)
    return rng.normal(0.0, scale, size=(num_queries, proj_dim)).astype(dtype)


def assignment_weights(tokens: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Soft-assignment matrix alpha (N x S) in float64; every column sums to one.

    Logits are token-prototype dot products scaled by 1/sqrt(D), in the
    tokens' dtype. The softmax runs over the token axis in float64, so each
    query spreads one unit of attention across the tokens.
    """
    if tokens.shape[1] != prototypes.shape[1] or 0 in tokens.shape + prototypes.shape:
        raise DimensionError(
            f"cannot assign tokens of shape {tokens.shape} to prototypes of shape "
            f"{prototypes.shape}"
        )
    logits = tokens @ prototypes.T.copy()
    logits *= 1.0 / math.sqrt(tokens.shape[1])
    alpha = logits.astype(np.float64)
    alpha -= alpha.max(axis=0, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=0, keepdims=True)
    return alpha


def residual_aggregate(tokens: np.ndarray, prototypes: np.ndarray,
                       alpha: np.ndarray) -> np.ndarray:
    """Aggregate v_s = sum_n alpha[n, s] * (x_n - c_s), one row per query,
    with alpha in the tokens' dtype."""
    residuals = alpha.T.copy() @ tokens
    residuals -= prototypes * (np.ones((1, len(tokens)), tokens.dtype) @ alpha).T
    return residuals


def residual_features(tokens: ad.Tensor, bank: ad.Tensor) -> ad.Tensor:
    """Pre-head row of one token set, tokens (N x D) -> 1 x (S*D), as one node:
    soft assignment, residual aggregation, per-query intra-norm (a zero
    residual passes through as zeros) and a row-major flatten."""
    x, c = tokens.value, bank.value
    alpha = assignment_weights(x, c).astype(x.dtype)
    rows = ad.normalize_rows_values(residual_aggregate(x, c, alpha), strict=False)

    def bw(out):
        g = ad.normalize_rows_backward(out.grad.reshape(c.shape), *rows)
        g = g.astype(x.dtype, copy=False)
        # The mass sum_n alpha[n, s] is one for every prototype, so its term
        # sends gradient to the bank alone: on alpha it would be a constant
        # per column, which the softmax sweep cancels.
        alpha64 = alpha.astype(np.float64, copy=False)
        g_logits = (x @ g.T).astype(np.float64, copy=False)
        g_logits -= (alpha64 * g_logits).sum(axis=0, keepdims=True)
        g_logits *= alpha64
        g_logits = (g_logits * (1.0 / math.sqrt(x.shape[1]))).astype(x.dtype, copy=False)
        tokens.accumulate_grad(alpha @ g + g_logits @ c)
        bank.accumulate_grad(g_logits.T @ x - g)

    return ad.Tensor(rows[0].astype(x.dtype).reshape(1, -1), (tokens, bank), bw)


def vlaq_descriptor(tokens: ad.Tensor, prototypes: ad.Tensor,
                    proj_w: ad.Tensor) -> ad.Tensor:
    """Full aggregation: tokens (N x D) -> unit descriptor (1 x out_dim).

    The residual features of the tokens, then a bias-free projection and a
    global L2 norm. Raises DegenerateInputError if the projected descriptor
    is all zeros.
    """
    s, d = prototypes.value.shape
    if proj_w.value.shape[0] != s * d:
        raise DimensionError(
            f"projection expects {s * d} inputs, got {proj_w.value.shape[0]}"
        )
    return ad.l2_normalize(ad.matmul(residual_features(tokens, prototypes), proj_w))
