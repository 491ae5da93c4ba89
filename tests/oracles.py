"""Independent reference implementations the tests compare the model against."""

from __future__ import annotations

import math

import numpy as np

from magvlaq.errors import DegenerateInputError


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
