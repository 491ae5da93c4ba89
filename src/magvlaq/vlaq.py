"""Query-residual token aggregation.

A bank of S learned query prototypes soft-assigns the N input tokens via a
scaled-dot-product softmax over the *token* axis, aggregates weighted
residuals against each prototype, intra-normalizes per query, and projects
the flattened result to a fixed-size L2-normalized descriptor.
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


def assignment_weights(tokens: ad.Tensor, prototypes: ad.Tensor) -> ad.Tensor:
    """Soft-assignment matrix alpha (N x S); every column sums to one.

    Logits are token-prototype dot products scaled by 1/sqrt(D); the softmax
    runs over the token axis, so each query distributes one unit of attention
    across the tokens rather than each token across the queries.
    """
    n_dim = tokens.value.shape[1]
    s_dim = prototypes.value.shape[1]
    if n_dim != s_dim:
        raise DimensionError(
            f"token dim {n_dim} does not match prototype dim {s_dim}"
        )
    logits = ad.scale(ad.matmul(tokens, ad.transpose(prototypes)), 1.0 / math.sqrt(n_dim))
    return ad.softmax_columns(logits)


def residual_aggregate(tokens: ad.Tensor, prototypes: ad.Tensor,
                       alpha: ad.Tensor) -> ad.Tensor:
    """Aggregate v_s = sum_n alpha[n, s] * (x_n - c_s), one row per query."""
    n = tokens.value.shape[0]
    weighted = ad.matmul(ad.transpose(alpha), tokens)
    ones = ad.constant(np.ones((1, n), dtype=tokens.value.dtype))
    col_mass = ad.transpose(ad.matmul(ones, alpha))
    return ad.sub(weighted, ad.mul(prototypes, col_mass))


def residual_features(tokens: ad.Tensor, prototypes: ad.Tensor) -> ad.Tensor:
    """Pre-head row of one token set: tokens (N x D) -> 1 x (S*D).

    Steps: soft assignment, residual aggregation, per-query intra-norm,
    row-major flatten. Rows of many token sets share one projection head.
    """
    s, d = prototypes.value.shape
    alpha = assignment_weights(tokens, prototypes)
    residuals = residual_aggregate(tokens, prototypes, alpha)
    return ad.reshape(ad.l2_normalize_rows(residuals), (1, s * d))


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
