"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from magvlaq import retrieval  # noqa: E402

TINY = dict(raw_dim=8, proj_dim=8, num_queries=4, out_dim=8, fuse_dim=4,
            num_scales=2, ode_steps=1, msg_hidden=4, dyn_hidden=4, cond_hidden=4,
            tokens_per_scale=4, latent_dim=4)

TINY_WORKLOADS = {
    "train-ode": lambda: workloads.TrainOde(epochs=3, **TINY),
    "query-stream": lambda: workloads.QueryStream(num_places=16, **TINY),
    "batch-eval": lambda: workloads.BatchEval(num_places=4, **TINY),
}

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_every_workload_is_defined_and_listed():
    assert sorted(TINY_WORKLOADS) == sorted(workloads.WORKLOADS)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_untraced_smoke_run_is_correct_and_installs_nothing(name, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    metrics, counts, attempted, failed, _, _ = run.run_untraced(
        TINY_WORKLOADS[name](), seed=3, seconds=0.05, workdir=tmp_path)
    assert attempted >= 2 and failed == 0
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"] and value > 0


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    out = tmp_path / "spans.jsonl"
    metrics, _, attempted, failed, _, _ = run.run_traced(
        TINY_WORKLOADS[name](), seed=3, seconds=0.05, workdir=tmp_path, spans_path=out)
    assert failed == 0 and attempted >= 4
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in BENCHMARK["per_layer"]]
    first = json.loads(out.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "request"}
    assert metrics["fusion.rk4_integrate.calls_in_aerial"][0] == 0
    backward = metrics["autodiff.backward.calls"][0]
    assert (backward > 0) == (name == "train-ode")
    if name == "batch-eval":
        assert metrics["magt.read_bytes"][0] > 0 and metrics["magt.write_bytes"][0] > 0


def _owners():
    for module_name, class_name, fn_name in spans.TRACED:
        module = importlib.import_module(f"magvlaq.{module_name}")
        yield (getattr(module, class_name) if class_name else module), fn_name


def test_wrappers_are_restored():
    originals = [owner.__dict__[fn] for owner, fn in _owners()]
    tracer = spans.Tracer()
    with tracer.installed():
        wrapped = [owner.__dict__[fn] for owner, fn in _owners()]
        assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(owner.__dict__[fn] is o for (owner, fn), o in zip(_owners(), originals))


def test_wrappers_are_restored_after_an_error():
    originals = [owner.__dict__[fn] for owner, fn in _owners()]
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("workload failed")
    assert all(owner.__dict__[fn] is o for (owner, fn), o in zip(_owners(), originals))


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        spans.Span(1, "root", 0.0, 10.0, None, "r"),
        spans.Span(2, "a", 1.0, 3.0, 1, "r"),
        spans.Span(3, "b", 2.0, 5.0, 1, "r"),   # overlaps a (another thread)
        spans.Span(4, "c", 8.0, 9.0, 1, "r"),
        spans.Span(5, "leaf", 2.5, 4.0, 3, "r"),
        spans.Span(6, "late", 9.5, 11.0, 1, "r"),  # runs past its parent
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({1: 10.0 - 4.0 - 1.0 - 0.5, 2: 2.0, 3: 3.0 - 1.5,
                                 4: 1.0, 5: 1.5, 6: 1.5})


def test_layer_metrics_aggregate_self_time_and_calls():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(1, spans.REQUEST, 0.0, 10.0, None, "query:0"),
        spans.Span(2, "retrieval.knn_search", 4.0, 9.0, 1, "query:0"),
        spans.Span(3, "retrieval.distance_matrix", 4.0, 6.0, 2, "query:0"),
        spans.Span(4, "model.aerial_descriptor", 20.0, 22.0, None, "refs"),
        spans.Span(5, "fusion.rk4_integrate", 20.5, 21.0, 4, "refs"),
    ]
    values, counts = tracer.layer_metrics()
    assert values["retrieval.knn_search.s"] == pytest.approx(3.0)
    assert values["retrieval.distance_matrix.s"] == pytest.approx(2.0)
    assert values["retrieval.request_share"] == pytest.approx(0.5)
    assert values["fusion.rk4_integrate.calls_in_aerial"] == 1
    assert counts["retrieval.knn_search.s"] == 1


def test_ranking_check_accepts_the_exact_top_k_and_catches_a_permutation():
    rng = np.random.default_rng(0)
    refs = rng.normal(size=(64, 16)).astype(np.float32)
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)
    query = refs[5] + 0.1 * rng.normal(size=16).astype(np.float32)
    ids = [f"a{i:03d}" for i in range(64)]
    ranks = checks.id_ranks(ids)
    db = retrieval.DescriptorDatabase(ids=ids, geos=np.zeros((64, 2)), vectors=refs)
    top, _ = retrieval.knn_search(query[None, :], db, 10)
    assert checks.topk_agrees(top[0], query, refs, ranks)
    swapped = top[0].copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    assert not checks.topk_agrees(swapped, query, refs, ranks)
    assert not checks.topk_agrees(top[0][::-1], query, refs, ranks)
    outsider = top[0].copy()
    outsider[-1] = next(i for i in range(64) if i not in set(top[0].tolist()))
    assert not checks.topk_agrees(outsider, query, refs, ranks)


def test_ranking_check_breaks_exact_ties_by_id():
    refs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    ranks = checks.id_ranks(["c", "b", "a"])
    query = np.array([1.0, 0.0], dtype=np.float32)
    assert checks.topk_agrees(np.array([2, 0]), query, refs, ranks)
    assert checks.topk_agrees(np.array([0, 2]), query, refs, ranks)  # equal distance
    want, _ = checks.exact_ranking(query, refs, ranks, 2)
    assert want.tolist() == [2, 0]


def test_exact_recall_matches_the_program_report():
    rng = np.random.default_rng(1)
    refs = rng.normal(size=(12, 8))
    queries = refs[[0, 3, 7]] + 0.3 * rng.normal(size=(3, 8))
    ref_geos = np.array([[50.0 * i, 0.0] for i in range(12)])
    query_geos = ref_geos[[0, 3, 7]] + 1.0
    ids = [f"a{i:02d}" for i in range(12)]
    db = retrieval.DescriptorDatabase(ids=ids, geos=ref_geos, vectors=refs)
    report = json.loads(retrieval.recall_at_k(queries, query_geos, db).to_json())
    want = checks.exact_recall(queries, query_geos, refs, ref_geos, ids, (1, 5, 10), 25.0)
    assert {k: report[k] for k in want} == want
