"""Exact descriptor retrieval and geo-thresholded recall evaluation.

The reference database is searched by brute force (no approximate index):
Euclidean distances between unit descriptors, a sort of the shortlist that
ends at the k-th distance, ties broken by ascending reference id so results
are reproducible across platforms.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError

T = TypeVar("T")
U = TypeVar("U")

THREAD_ENV_VAR = "MAGVLAQ_THREADS"


def max_workers() -> int:
    """Worker count for embarrassingly parallel evaluation work.

    Defaults to the CPUs this process may run on, else the CPU count; the
    MAGVLAQ_THREADS environment variable caps it (values below 1 mean serial).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    raw = os.environ.get(THREAD_ENV_VAR)
    if raw is None:
        return cpus
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ContractError(f"{THREAD_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(1, min(cpus, cap))


def parallel_map(fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
    """Order-preserving map over items on up to max_workers() threads, the
    calling thread among them. Workers take items in input order and take no
    more once one fails, so the map raises the exception of the first failing
    item in input order, as the serial loop does. One worker or item is serial."""
    workers = min(max_workers(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    order, lock = iter(range(len(items))), threading.Lock()

    def work() -> None:
        while True:
            with lock:  # one taker at a time, so items go in input order
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again on the calling thread
                errors[i] = exc

    with ThreadPoolExecutor(workers - 1) as pool:  # its exit joins the helpers
        for _ in range(workers - 1):
            pool.submit(work)  # work keeps each exception, so no future holds one
        work()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass
class DescriptorDatabase:
    """Aligned reference ids, geo-positions (M x 2), and descriptors (M x D).

    Construction also computes what every search reuses: the descriptors in
    float64 (``vectors64``), each one's squared norm (``sq_norms``) and its
    position in ascending id order (``id_rank``). Changing ``vectors`` or
    ``ids`` in place afterwards is unsupported; build a new database instead.
    """

    ids: list[str]
    geos: np.ndarray
    vectors: np.ndarray
    vectors64: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    id_rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.ids)
        if self.geos.shape != (m, 2) or self.vectors.ndim != 2 or self.vectors.shape[0] != m:
            raise DimensionError(
                f"database misaligned: {m} ids, geos {self.geos.shape}, "
                f"vectors {self.vectors.shape}"
            )
        if len(set(self.ids)) != m:
            raise ContractError("database ids must be unique")
        row = _first_non_finite_row(self.vectors)
        if row is not None:
            raise DegenerateInputError(
                f"reference row {row} (id {self.ids[row]!r}) has a non-finite value"
            )
        self.vectors64 = self.vectors.astype(np.float64)
        self.sq_norms = squared_norms(self.vectors64)
        self.id_rank = np.argsort(np.argsort(self.ids, kind="stable"), kind="stable")

    def __len__(self) -> int:
        return len(self.ids)


def _first_non_finite_row(vectors: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, if any."""
    finite = np.isfinite(vectors)
    if finite.all():
        return None
    return int(np.argwhere(~finite)[0, 0])


def squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 norms (M,) computed in float64."""
    return (vectors.astype(np.float64, copy=False) ** 2).sum(axis=1)


def distance_matrix(queries: np.ndarray, refs: np.ndarray, *,
                    ref_sq_norms: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances (Q x M) computed in float64.

    ``ref_sq_norms`` are the references' ``squared_norms``, if the caller
    already holds them; otherwise they are computed here.
    """
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise DimensionError(
            f"incompatible descriptor shapes {queries.shape} and {refs.shape}"
        )
    if ref_sq_norms is None:
        ref_sq_norms = squared_norms(refs)
    elif ref_sq_norms.shape != (refs.shape[0],):
        raise DimensionError(
            f"{ref_sq_norms.shape} squared norms for {refs.shape[0]} references"
        )
    q = queries.astype(np.float64)
    r = refs.astype(np.float64, copy=False)
    sq = squared_norms(q)[:, None] + ref_sq_norms[None, :] - 2.0 * (q @ r.T)
    return np.sqrt(np.maximum(sq, 0.0))


def knn_search(query_vecs: np.ndarray, db: DescriptorDatabase,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k reference indices and distances per query, exact and stable.

    Equal distances are ordered by ascending reference id, so the ranking is
    a pure function of the inputs. A query row with a NaN or an infinity is
    rejected rather than ranked.
    """
    if not 1 <= k <= len(db):
        raise ContractError(f"k must be in [1, {len(db)}], got {k}")
    row = _first_non_finite_row(query_vecs)
    if row is not None:
        raise DegenerateInputError(f"query row {row} has a non-finite value")
    dists = distance_matrix(query_vecs, db.vectors64, ref_sq_norms=db.sq_norms)
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    indices = np.empty((dists.shape[0], k), dtype=np.int64)
    out_d = np.empty((dists.shape[0], k), dtype=np.float64)
    for qi in range(dists.shape[0]):
        # every reference tied with the k-th distance stays, so ties break by id
        shortlist = np.flatnonzero(dists[qi] <= kth[qi])
        order = shortlist[np.lexsort((db.id_rank[shortlist], dists[qi, shortlist]))[:k]]
        indices[qi] = order
        out_d[qi] = dists[qi, order]
    return indices, out_d


@dataclass
class EvalReport:
    """Recall@K over queries that have at least one in-radius reference;
    with no such query every recall is NaN, and null in the JSON."""

    recalls: dict[int, float]
    num_queries: int
    evaluated: int
    excluded_no_relevant: int
    radius: float

    def to_json(self) -> str:
        payload = {
            "num_queries": self.num_queries,
            "evaluated": self.evaluated,
            "excluded_no_relevant": self.excluded_no_relevant,
            "radius_m": self.radius,
            "recalls": {str(k): None if np.isnan(v) else v
                        for k, v in sorted(self.recalls.items())},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)


def recall_at_k(query_vecs: np.ndarray, query_geos: np.ndarray,
                db: DescriptorDatabase, ks: Iterable[int] = (1, 5, 10),
                radius: float = 25.0) -> EvalReport:
    """Fraction of queries whose top-k contains a reference within ``radius``.

    A retrieved reference counts as correct iff its geo-distance to the
    query is at most ``radius`` meters. Queries with no in-radius reference
    at all cannot be answered correctly and are excluded from the
    denominator; their count is reported instead of silently vanishing.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ContractError(f"recall cutoffs must be positive, got {ks}")
    if query_geos.shape != (query_vecs.shape[0], 2):
        raise DimensionError(
            f"query geos shape {query_geos.shape} does not match {query_vecs.shape[0]} queries"
        )
    k_max = min(max(ks), len(db))
    indices, _ = knn_search(query_vecs, db, k_max)
    geo_d = np.sqrt(
        ((query_geos[:, None, :] - db.geos[None, :, :]) ** 2).sum(axis=2)
    )
    relevant = geo_d <= radius

    evaluated = 0
    excluded = 0
    hits = {k: 0 for k in ks}
    for qi in range(query_vecs.shape[0]):
        if not relevant[qi].any():
            excluded += 1
            continue
        evaluated += 1
        hit_ranks = relevant[qi, indices[qi]]
        for k in ks:
            if hit_ranks[: min(k, k_max)].any():
                hits[k] += 1
    recalls = {
        k: (hits[k] / evaluated if evaluated else float("nan")) for k in ks
    }
    return EvalReport(
        recalls=recalls,
        num_queries=int(query_vecs.shape[0]),
        evaluated=evaluated,
        excluded_no_relevant=excluded,
        radius=float(radius),
    )


def dump_assignment_heatmap(alpha: np.ndarray, path: str | Path) -> None:
    """Write a token-by-query assignment matrix as CSV (one row per token)."""
    if alpha.ndim != 2:
        raise DimensionError(f"heatmap needs a 2-D matrix, got shape {alpha.shape}")
    lines = ["token_index," + ",".join(f"q{j}" for j in range(alpha.shape[1]))]
    for i in range(alpha.shape[0]):
        lines.append(f"{i}," + ",".join(f"{v:.9g}" for v in alpha[i]))
    Path(path).write_text("\n".join(lines) + "\n")
