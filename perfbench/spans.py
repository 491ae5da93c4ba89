"""Span tracing for the benchmark's traced run.

The tracer rebinds public functions of the magvlaq modules to wrappers that
record one span per call: name, start, end, parent span and request id.
Spans are kept in memory and written out when the run ends. Nothing here is
installed during an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, class or None, function): each becomes a span named
# "<module>.<function>".
TRACED = (
    ("autodiff", None, "backward"),
    ("model", "PlaceModel", "project_tokens"),
    ("model", "PlaceModel", "fusion_embedding"),
    ("model", "PlaceModel", "predict_query_shift"),
    ("model", "PlaceModel", "ground_forward"),
    ("model", "PlaceModel", "aerial_descriptor"),
    ("fusion", None, "rk4_integrate"),
    ("vlaq", None, "assignment_weights"),
    ("vlaq", None, "residual_aggregate"),
    ("vlaq", None, "vlaq_descriptor"),
    ("training", None, "mine_pairs"),
    ("training", None, "batch_loss"),
    ("training", None, "triplet_loss"),
    ("training", None, "aux_consistency_loss"),
    ("training", None, "adam_step"),
    ("training", None, "evaluate_recall"),
    ("training", None, "train_epoch"),
    ("retrieval", None, "distance_matrix"),
    ("retrieval", None, "knn_search"),
    ("retrieval", None, "recall_at_k"),
    ("retrieval", None, "parallel_map"),
    ("tokens", None, "generate_synthetic_dataset"),
    ("tokens", None, "load_token_file"),
    ("tokens", None, "validate_dataset"),
    ("magt", None, "read_container"),
    ("magt", None, "write_container"),
    ("cli", None, "load_checkpoint"),
    ("cli", None, "save_checkpoint"),
)

# Per-layer metrics of the traced run, in BENCHMARK.json order. A ".s" name
# is the summed self time of that span, a ".calls" name its call count.
LAYER_METRICS = (
    ("autodiff.backward.s", "s"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.tape_nodes", "count"),
    ("model.project_tokens.s", "s"),
    ("model.project_tokens.calls", "count"),
    ("model.fusion_embedding.s", "s"),
    ("model.predict_query_shift.s", "s"),
    ("model.ground_forward.s", "s"),
    ("model.ground_forward.calls", "count"),
    ("model.aerial_descriptor.s", "s"),
    ("model.aerial_descriptor.calls", "count"),
    ("fusion.rk4_integrate.s", "s"),
    ("fusion.rk4_integrate.calls", "count"),
    ("fusion.rk4_integrate.calls_in_aerial", "count"),
    ("vlaq.assignment_weights.s", "s"),
    ("vlaq.residual_aggregate.s", "s"),
    ("vlaq.vlaq_descriptor.s", "s"),
    ("training.mine_pairs.s", "s"),
    ("training.batch_loss.s", "s"),
    ("training.triplet_loss.s", "s"),
    ("training.aux_consistency_loss.s", "s"),
    ("training.adam_step.s", "s"),
    ("training.evaluate_recall.s", "s"),
    ("training.train_epoch.s", "s"),
    ("training.skipped_anchors_ratio", "ratio"),
    ("retrieval.distance_matrix.s", "s"),
    ("retrieval.knn_search.s", "s"),
    ("retrieval.recall_at_k.s", "s"),
    ("retrieval.parallel_map.s", "s"),
    ("retrieval.request_share", "ratio"),
    ("tokens.generate_synthetic_dataset.s", "s"),
    ("tokens.load_token_file.s", "s"),
    ("tokens.validate_dataset.s", "s"),
    ("magt.read_container.s", "s"),
    ("magt.read_bytes", "bytes"),
    ("magt.write_container.s", "s"),
    ("magt.write_bytes", "bytes"),
    ("cli.load_checkpoint.s", "s"),
    ("cli.save_checkpoint.s", "s"),
    ("trace.overhead_ms", "ms"),
)

# Spans the workloads open around each timed operation (an epoch, a query or
# a CLI call); retrieval.request_share is measured against their time.
REQUEST = "request"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children may overlap (spans from worker threads), so their intervals are
    merged before they are subtracted.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cur_start = cur_end = None
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[span.id] = (span.end - span.start) - covered
    return out


def count_graph_nodes(root) -> int:
    """Number of autodiff nodes reachable from root through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class NullTracer:
    """Stand-in used by untraced runs: opens no spans, installs nothing."""

    def span(self, name: str, request: str | None = None, steps: bool = False):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    """Records spans from wrapped magvlaq functions and benchmark phases."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ----- per-thread context ------------------------------------------------

    def _ctx(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.request, local.step, local.paused = [], "setup", None, False
        return local

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None, steps: bool = False):
        """Record one span; ``request`` opens a new request id for its extent.

        With ``steps`` the id also counts completed optimizer steps
        ("epoch:3/step:2"), so each training batch gets its own id.
        """
        local = self._ctx()
        if local.paused:
            yield
            return
        saved = local.request, local.step
        if request is not None:
            local.request, local.step = request, (0 if steps else None)
        rid = local.request if local.step is None else f"{local.request}/step:{local.step}"
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, rid))
            local.request, local.step = saved

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        local = self._ctx()
        saved, local.paused = local.paused, True
        try:
            yield
        finally:
            local.paused = saved

    def _adopt(self, fn):
        """Run fn in a worker thread as a child of the caller's current span."""
        local = self._ctx()
        inherited = ([local.stack[-1]] if local.stack else [], local.request,
                     local.step, local.paused)

        @functools.wraps(fn)
        def child(*args, **kwargs):
            ctx = self._ctx()
            saved = ctx.stack, ctx.request, ctx.step, ctx.paused
            ctx.stack, ctx.request, ctx.step, ctx.paused = (list(inherited[0]),
                                                            *inherited[1:])
            try:
                return fn(*args, **kwargs)
            finally:
                ctx.stack, ctx.request, ctx.step, ctx.paused = saved

        return child

    # ----- installing the wrappers -------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "retrieval.parallel_map":
                with tracer.span(name):
                    return fn(tracer._adopt(args[0]), *args[1:], **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            local = tracer._ctx()
            if local.paused:
                return result
            if name == "training.adam_step" and local.step is not None:
                local.step += 1
            elif name == "training.batch_loss":
                # Its own span, so the walk is not charged to train_epoch.
                with tracer.span("trace.tape_walk"):
                    tracer.samples["tape_nodes"].append(count_graph_nodes(result[3]))
            elif name == "training.train_epoch":
                tracer.samples["skipped_anchors"].append(result.skipped_anchors)
                tracer.samples["anchors"].append(len(args[1].split_ground("train")))
            elif name == "magt.read_container":
                tracer.samples["read_bytes"].append(os.path.getsize(args[0]))
            elif name == "magt.write_container":
                tracer.samples["write_bytes"].append(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, fn_name in TRACED:
            module = importlib.import_module(f"magvlaq.{module_name}")
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[fn_name]
            self._saved.append((owner, fn_name, original))
            setattr(owner, fn_name, self._wrap(f"{module_name}.{fn_name}", original))

    def restore(self) -> None:
        for owner, fn_name, original in reversed(self._saved):
            setattr(owner, fn_name, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ----- results -----------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Values and sample counts of every per-layer metric except
        trace.overhead_ms, which needs an untraced run to compare with."""
        selfs = self_times(self.spans)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        by_id = {span.id: span for span in self.spans}
        rk4_in_aerial = 0
        request_s = retrieval_s = 0.0
        for span in self.spans:
            self_s[span.name] += selfs[span.id]
            calls[span.name] += 1
            if span.name == REQUEST:
                request_s += span.end - span.start
            elif span.name == "fusion.rk4_integrate":
                rk4_in_aerial += _has_ancestor(span, "model.aerial_descriptor", by_id)
            elif span.name == "retrieval.knn_search" and _has_ancestor(span, REQUEST, by_id):
                retrieval_s += span.end - span.start
        samples = self.samples
        anchors = sum(samples["anchors"])
        values: dict[str, float] = {}
        counts: dict[str, int] = {}
        for name, _unit in LAYER_METRICS:
            span_name = name.rsplit(".", 1)[0]
            if name.endswith(".s"):
                values[name], counts[name] = self_s[span_name], calls[span_name]
            elif name.endswith(".calls"):
                values[name], counts[name] = float(calls[span_name]), calls[span_name]
        nodes = samples["tape_nodes"]
        values["autodiff.tape_nodes"] = float(statistics.median(nodes)) if nodes else 0.0
        values["fusion.rk4_integrate.calls_in_aerial"] = float(rk4_in_aerial)
        values["training.skipped_anchors_ratio"] = (
            sum(samples["skipped_anchors"]) / anchors if anchors else 0.0
        )
        values["retrieval.request_share"] = retrieval_s / request_s if request_s else 0.0
        values["magt.read_bytes"] = float(sum(samples["read_bytes"]))
        values["magt.write_bytes"] = float(sum(samples["write_bytes"]))
        counts.update({
            "autodiff.tape_nodes": len(nodes),
            "fusion.rk4_integrate.calls_in_aerial": calls["fusion.rk4_integrate"],
            "training.skipped_anchors_ratio": anchors,
            "retrieval.request_share": calls[REQUEST],
            "magt.read_bytes": len(samples["read_bytes"]),
            "magt.write_bytes": len(samples["write_bytes"]),
        })
        return values, counts

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        if node.name == name:
            return True
        parent = node.parent
    return False
