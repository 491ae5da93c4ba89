"""Output checks that share no code with magvlaq's retrieval module.

Distances are computed directly as float64 differences (the program expands
the square), and rankings break equal distances by ascending reference id.
Two rankings agree when each rank holds a reference at the same distance up
to TIE_TOL, which absorbs only the rounding difference of the two formulas.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-12
NORM_TOL = 1e-5


def id_ranks(ids: list[str]) -> np.ndarray:
    """Position of each id in ascending id order."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[np.argsort(np.array(ids), kind="stable")] = np.arange(len(ids))
    return ranks


def distances(query: np.ndarray, refs: np.ndarray) -> np.ndarray:
    diff = np.asarray(refs, dtype=np.float64) - query.astype(np.float64).reshape(1, -1)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def exact_ranking(query: np.ndarray, refs: np.ndarray, ranks: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k nearest references and all distances to the query."""
    d = distances(query, refs)
    return np.lexsort((ranks, d))[:k], d


def topk_agrees(got: np.ndarray, query: np.ndarray, refs: np.ndarray,
                ranks: np.ndarray) -> bool:
    """True iff ``got`` is the exact top-len(got) ranking of query in refs."""
    got = np.asarray(got, dtype=np.int64)
    if len(set(got.tolist())) != len(got) or got.min() < 0 or got.max() >= len(refs):
        return False
    want, d = exact_ranking(query, refs, ranks, len(got))
    if np.array_equal(got, want):
        return True
    return bool(np.all(np.abs(d[got] - d[want]) <= TIE_TOL))


def unit_rows(vectors: np.ndarray) -> bool:
    """Every row finite with L2 norm one (float32 tolerance)."""
    if not np.isfinite(vectors).all():
        return False
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= NORM_TOL))


def exact_recall(query_vecs: np.ndarray, query_geos: np.ndarray,
                 ref_vecs: np.ndarray, ref_geos: np.ndarray, ref_ids: list[str],
                 ks: tuple[int, ...], radius: float) -> dict:
    """Recall@k over queries with an in-radius (inclusive) reference.

    Returns the fields of magvlaq's eval report that depend on the ranking.
    """
    ranks = id_ranks(ref_ids)
    k_max = min(max(ks), len(ref_ids))
    hits = {k: 0 for k in ks}
    evaluated = 0
    for qv, qg in zip(query_vecs, query_geos):
        geo_d = np.sqrt(((ref_geos - qg.reshape(1, 2)) ** 2).sum(axis=1))
        relevant = geo_d <= radius
        if not relevant.any():
            continue
        evaluated += 1
        top, _ = exact_ranking(qv, ref_vecs, ranks, k_max)
        for k in ks:
            hits[k] += bool(relevant[top[:k]].any())
    return {
        "num_queries": len(query_vecs),
        "evaluated": evaluated,
        "excluded_no_relevant": len(query_vecs) - evaluated,
        "recalls": {str(k): (hits[k] / evaluated if evaluated else float("nan"))
                    for k in ks},
    }
