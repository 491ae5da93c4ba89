"""Exact search, geo-thresholded recall, and evaluation plumbing."""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from magvlaq import retrieval
from magvlaq.errors import ContractError, DegenerateInputError, DimensionError


def _db(vectors, geos=None, ids=None):
    m = vectors.shape[0]
    return retrieval.DescriptorDatabase(
        ids=ids or [f"r{i:03d}" for i in range(m)],
        geos=np.zeros((m, 2)) if geos is None else np.asarray(geos, dtype=np.float64),
        vectors=vectors,
    )


def _naive_knn(query_vecs, db, k):
    """Full sort per query with (distance, id) as the comparison key."""
    out = []
    for q in query_vecs.astype(np.float64):
        keyed = [
            (float(np.linalg.norm(q - db.vectors[j].astype(np.float64))), db.ids[j], j)
            for j in range(len(db))
        ]
        keyed.sort()
        out.append([j for _, _, j in keyed[:k]])
    return np.array(out, dtype=np.int64)


def test_distance_matrix_matches_loops():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((5, 7))
    r = rng.standard_normal((9, 7))
    got = retrieval.distance_matrix(q, r)
    for i in range(5):
        for j in range(9):
            assert abs(got[i, j] - np.linalg.norm(q[i] - r[j])) < 1e-10


def test_distance_matrix_zero_on_identical_rows():
    v = np.ones((3, 4))
    d = retrieval.distance_matrix(v, v)
    np.testing.assert_array_equal(np.diag(d), np.zeros(3))
    assert (d >= 0).all()


def test_distance_matrix_shape_guard():
    with pytest.raises(DimensionError):
        retrieval.distance_matrix(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(DimensionError):
        retrieval.distance_matrix(np.ones(3), np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    nq=st.integers(1, 5),
    m=st.integers(1, 12),
    d=st.integers(1, 6),
)
def test_knn_matches_naive_full_sort(data, nq, m, d):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    # quantized values force frequent exact distance ties
    q = rng.integers(-2, 3, size=(nq, d)).astype(np.float32)
    r = rng.integers(-2, 3, size=(m, d)).astype(np.float32)
    db = _db(r)
    k = data.draw(st.integers(1, m))
    idx, dist = retrieval.knn_search(q, db, k)
    np.testing.assert_array_equal(idx, _naive_knn(q, db, k))
    for qi in range(nq):
        assert (np.diff(dist[qi]) >= -1e-12).all()


def test_distance_matrix_with_given_norms_is_bit_identical():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((6, 9)).astype(np.float32)
    r64 = rng.standard_normal((11, 9))
    for r in (r64.astype(np.float32), r64):
        norms = retrieval.squared_norms(r)
        np.testing.assert_array_equal(
            retrieval.distance_matrix(q, r, ref_sq_norms=norms),
            retrieval.distance_matrix(q, r),
        )
        with pytest.raises(DimensionError):
            retrieval.distance_matrix(q, r, ref_sq_norms=norms[:-1])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 64), d=st.integers(1, 8))
def test_cached_search_is_bit_identical_to_the_per_call_oracle(data, m, d):
    seed = data.draw(st.integers(0, 2**31 - 1))
    step = data.draw(st.sampled_from([1.0, 0.1, 0.37]))
    rng = np.random.default_rng(seed)

    def quantized(rows):
        # a few levels force frequent exact distance ties; a step of 0.1 or
        # 0.37 makes float32 and float64 squared norms differ
        return (step * rng.integers(-2, 3, size=(rows, d))).astype(np.float32)

    db = _db(quantized(m), ids=[f"r{i:03d}" for i in rng.permutation(m)])
    batches = [quantized(1) for _ in range(3)]
    batches.append(quantized(data.draw(st.integers(2, 9))))
    for q in batches:
        k = data.draw(st.integers(1, m))
        idx, dist = retrieval.knn_search(q, db, k)
        want_idx, want_dist = oracles.knn_search(q, db, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)


@pytest.mark.parametrize("k", [1, 7, 40, 59, 60, 61, 100])
def test_many_ties_at_the_kth_distance_break_by_id_as_in_the_oracle(k):
    # 60 copies of one reference at distance 1 from the query, 10 nearer and
    # 30 farther, under shuffled ids: the k-th distance is often a tie
    rng = np.random.default_rng(11)
    d = 6
    query = np.zeros((2, d), dtype=np.float32)
    query[1, 0] = 1.0  # the second query sits on top of the tied copies
    near = (0.5 * np.eye(d, dtype=np.float32))[rng.integers(0, d, size=10)]
    tied = np.tile(np.eye(d, dtype=np.float32)[:1], (60, 1))
    far = 2.0 + rng.random((30, d)).astype(np.float32)
    vectors = np.concatenate([near, tied, far])[rng.permutation(100)]
    db = _db(vectors, ids=[f"r{i:03d}" for i in rng.permutation(100)])
    idx, dist = retrieval.knn_search(query, db, k)
    want_idx, want_dist = oracles.knn_search(query, db, k)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(dist, want_dist)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reference_is_rejected_by_row(bad):
    vectors = np.eye(4, dtype=np.float32)
    vectors[2, 1] = bad
    vectors[3, 0] = bad
    with pytest.raises(DegenerateInputError, match=r"reference row 2 \(id 'r002'\)"):
        _db(vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected_by_row(bad):
    db = _db(np.eye(4, dtype=np.float32))
    queries = np.eye(4, dtype=np.float32)[:3].copy()
    queries[1, 3] = bad
    queries[2, 0] = bad
    with pytest.raises(DegenerateInputError, match="query row 1 "):
        retrieval.knn_search(queries, db, 2)
    with pytest.raises(DegenerateInputError, match="query row 0 "):
        retrieval.recall_at_k(queries[1:], np.zeros((2, 2)), db, ks=(1,))


def test_knn_breaks_ties_by_ascending_id():
    vectors = np.zeros((4, 3), dtype=np.float32)  # all distances identical
    db = _db(vectors, ids=["zeta", "alpha", "mid", "beta"])
    idx, _ = retrieval.knn_search(np.zeros((1, 3), dtype=np.float32), db, 4)
    assert [db.ids[j] for j in idx[0]] == ["alpha", "beta", "mid", "zeta"]


def test_knn_k_bounds():
    db = _db(np.ones((3, 2), dtype=np.float32))
    q = np.ones((1, 2), dtype=np.float32)
    for bad in (0, 4, -1):
        with pytest.raises(ContractError):
            retrieval.knn_search(q, db, bad)
    idx, _ = retrieval.knn_search(q, db, 3)
    assert idx.shape == (1, 3)


def test_database_alignment_and_unique_ids():
    with pytest.raises(DimensionError):
        _db(np.ones((3, 2)), geos=np.zeros((2, 2)))
    with pytest.raises(ContractError):
        _db(np.ones((2, 2)), ids=["a", "a"])


def test_recall_hand_built_scenario():
    # refs on a line at x = 0, 30, 60; queries sit on refs geographically but
    # the descriptor of query 1 points at the wrong reference.
    ref_vecs = np.eye(3, dtype=np.float32)
    db = _db(ref_vecs, geos=[[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
    query_vecs = np.stack([ref_vecs[0], ref_vecs[2]])
    query_geos = np.array([[0.0, 0.0], [30.0, 0.0]])
    report = retrieval.recall_at_k(query_vecs, query_geos, db, ks=(1, 2), radius=25.0)
    assert report.recalls[1] == 0.5  # query 0 right, query 1 retrieves ref 2
    assert report.recalls[2] == 0.5  # ref 1 is only reachable at rank 3
    assert report.evaluated == 2
    assert report.excluded_no_relevant == 0


def test_recall_radius_is_inclusive():
    db = _db(
        np.eye(2, dtype=np.float32), geos=[[25.0, 0.0], [100.0, 0.0]]
    )
    q = np.eye(2, dtype=np.float32)[:1]
    report = retrieval.recall_at_k(q, np.zeros((1, 2)), db, ks=(1,), radius=25.0)
    assert report.recalls[1] == 1.0  # exactly 25 m counts
    report = retrieval.recall_at_k(q, np.zeros((1, 2)), db, ks=(1,), radius=24.999)
    assert report.excluded_no_relevant == 1
    assert math.isnan(report.recalls[1])


def test_recall_excludes_and_counts_unanswerable_queries():
    db = _db(np.eye(2, dtype=np.float32), geos=[[0.0, 0.0], [10.0, 0.0]])
    query_vecs = np.stack([np.eye(2, dtype=np.float32)[0]] * 3)
    query_geos = np.array([[0.0, 0.0], [500.0, 0.0], [5.0, 0.0]])
    report = retrieval.recall_at_k(query_vecs, query_geos, db, ks=(1,), radius=25.0)
    assert report.num_queries == 3
    assert report.evaluated == 2
    assert report.excluded_no_relevant == 1
    assert report.recalls[1] == 1.0


def test_recall_k_larger_than_database_is_clamped():
    db = _db(np.eye(2, dtype=np.float32), geos=[[0.0, 0.0], [10.0, 0.0]])
    report = retrieval.recall_at_k(
        np.eye(2, dtype=np.float32)[:1], np.zeros((1, 2)), db, ks=(1, 10), radius=25.0
    )
    assert report.recalls[10] == 1.0


def test_recall_rejects_bad_cutoffs_and_geo_shape():
    db = _db(np.eye(2, dtype=np.float32))
    with pytest.raises(ContractError):
        retrieval.recall_at_k(np.ones((1, 2)), np.zeros((1, 2)), db, ks=(0,))
    with pytest.raises(DimensionError):
        retrieval.recall_at_k(np.ones((1, 2)), np.zeros((2, 2)), db, ks=(1,))


def test_eval_report_json_is_sorted_and_compact():
    report = retrieval.EvalReport(
        recalls={5: 1.0, 1: 0.5}, num_queries=4, evaluated=3,
        excluded_no_relevant=1, radius=25.0,
    )
    text = report.to_json()
    assert json.loads(text) == {
        "num_queries": 4,
        "evaluated": 3,
        "excluded_no_relevant": 1,
        "radius_m": 25.0,
        "recalls": {"1": 0.5, "5": 1.0},
    }
    assert ": " not in text and text.index('"1"') < text.index('"5"')


def _cpus(monkeypatch, *cpus: int) -> None:
    """Let the process run on exactly these CPUs."""
    monkeypatch.setattr(retrieval.os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def test_parallel_map_preserves_order(monkeypatch):
    _cpus(monkeypatch, 0, 1)
    items = list(range(37))
    assert retrieval.parallel_map(lambda x: x * x, items) == [x * x for x in items]
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "1")
    assert retrieval.parallel_map(lambda x: -x, items) == [-x for x in items]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_parallel_map_raises_the_first_failing_items_exception(monkeypatch, threads):
    """Item 3 fails late, after another worker has seen item 7 fail; the map
    still raises item 3's exception, as the serial loop does."""
    _cpus(monkeypatch, 0, 1)
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, threads)
    ran = []

    def fn(x):
        ran.append(x)
        if x == 3:
            time.sleep(0.05)
        if x in (3, 7):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as info:
        retrieval.parallel_map(fn, list(range(40)))
    assert info.value.args == (3,)
    assert set(range(4)) <= set(ran) and len(ran) < 40  # no item taken after a failure


def test_parallel_map_runs_on_the_calling_thread_and_one_helper(monkeypatch):
    _cpus(monkeypatch, 0, 1)
    monkeypatch.delenv(retrieval.THREAD_ENV_VAR, raising=False)
    caller = threading.get_ident()

    def fn(x):
        time.sleep(0.01)
        return threading.get_ident()

    assert retrieval.parallel_map(fn, [0]) == [caller]  # one item is serial
    ran_on = set(retrieval.parallel_map(fn, list(range(8))))
    assert caller in ran_on and len(ran_on) == 2
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "1")
    assert set(retrieval.parallel_map(fn, list(range(8)))) == {caller}


def test_thread_env_cap(monkeypatch):
    monkeypatch.delenv(retrieval.THREAD_ENV_VAR, raising=False)
    default = retrieval.max_workers()
    assert default >= 1
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "1")
    assert retrieval.max_workers() == 1
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "0")
    assert retrieval.max_workers() == 1  # below 1 means serial
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "10000")
    assert retrieval.max_workers() == default
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "many")
    with pytest.raises(ContractError):
        retrieval.max_workers()


def test_worker_count_follows_the_cpu_affinity_mask(monkeypatch):
    """Under `taskset -c 0` the process may use one CPU however many the
    machine has, so the pool starts no helper thread."""
    monkeypatch.setattr(retrieval.os, "cpu_count", lambda: 8)
    _cpus(monkeypatch, 0)
    monkeypatch.delenv(retrieval.THREAD_ENV_VAR, raising=False)
    assert retrieval.max_workers() == 1
    monkeypatch.setenv(retrieval.THREAD_ENV_VAR, "2")
    assert retrieval.max_workers() == 1
    _cpus(monkeypatch, 0, 2, 5)
    assert retrieval.max_workers() == 2  # the variable still caps the count
    monkeypatch.delenv(retrieval.THREAD_ENV_VAR)
    assert retrieval.max_workers() == 3


def test_heatmap_csv_format(tmp_path):
    alpha = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    out = tmp_path / "heat.csv"
    retrieval.dump_assignment_heatmap(alpha, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "token_index,q0,q1"
    assert lines[1] == "0,0.25,0.75"
    assert len(lines) == 4
    parsed = np.array(
        [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    )
    np.testing.assert_allclose(parsed, alpha)
    with pytest.raises(DimensionError):
        retrieval.dump_assignment_heatmap(np.ones(3), out)
