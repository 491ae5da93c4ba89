"""The benchmark's workloads: train-ode, query-stream and batch-eval.

Each workload is a closed loop with one client in one process. ``setup``
builds its inputs from the seed; ``measure`` runs its operation until the
run time is spent, times each operation and checks every output. The
workloads call only public magvlaq functions, through their modules, so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from magvlaq import autodiff as ad
from magvlaq import cli, config, magt, retrieval, tokens, training
from magvlaq.model import PlaceModel

import checks
from spans import REQUEST


@dataclass
class Measurement:
    """What one timed phase did: operations, their wall times, throughput."""

    attempted: int = 0
    failed: int = 0
    op_s: list[float] = field(default_factory=list)
    # items_per_s is items / items_s: train anchors per second of epoch time,
    # answered queries per second of request time, exported descriptors per
    # second of export time.
    items: int = 0
    items_s: float = 0.0
    # The workload's own named figures for the summary: name -> (value, unit, n).
    summary: dict[str, tuple[float, str, int]] = field(default_factory=dict)


def perturb_fusion(model: PlaceModel, seed: int) -> None:
    """Give dynamics and conditioner non-zero weights, seeded.

    Their final layers start at zero, which makes every flow the identity
    and every prototype shift zero; a trained model has neither.
    """
    rng = np.random.default_rng([seed, 1])
    for name, p in model.store.items():
        if name.startswith(("fuse.dyn.", "cond.")) and name.endswith(".w"):
            noise = rng.normal(0.0, 0.5 / math.sqrt(p.value.shape[0]), size=p.value.shape)
            p.value += noise.astype(p.value.dtype)


def _failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc()


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.array(values) * 1000.0, q))


class TrainOde:
    """ode-vlaq trained from the seed at the default RunConfig, epoch by epoch,
    in the loop of ``magvlaq train``."""

    name = "train-ode"
    op = "epoch"
    # Epoch 0 is run and checked but not timed: it draws its negatives at
    # random and skips the descriptor snapshot of every later epoch, so it
    # does about a fifth less forward work than the epochs that are timed.
    warmup_epochs = 1
    min_timed_epochs = 2

    def __init__(self, **overrides) -> None:
        self.overrides = overrides

    def setup(self, seed: int, workdir: Path):
        cfg = config.RunConfig(seed=seed, **self.overrides)
        dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
        return cfg, dataset, PlaceModel(cfg.model_config(), seed=cfg.seed)

    def measure(self, state, seconds: float, tracer) -> Measurement:
        cfg, dataset, model = state
        settings = cfg.train_settings()
        m = Measurement()
        anchors = len(dataset.split_ground("train"))
        deadline = time.perf_counter() + seconds
        last = None
        epoch = 0
        while epoch < cfg.epochs and (
            epoch < self.warmup_epochs + self.min_timed_epochs
            or time.perf_counter() < deadline
        ):
            rng = np.random.default_rng([cfg.seed, epoch])
            m.attempted += 1
            try:
                with tracer.span(REQUEST, request=f"epoch:{epoch}", steps=True):
                    started = time.perf_counter()
                    last = training.train_epoch(model, dataset, settings, epoch, rng)
                    elapsed = time.perf_counter() - started
            except Exception:
                _failure(f"epoch {epoch}")
                m.failed += 1
                last = None
                break
            if epoch >= self.warmup_epochs:
                m.op_s.append(elapsed)
                m.items += anchors
                m.items_s += elapsed
            recalls = [last.recalls[k] for k in sorted(last.recalls)]
            losses = [last.l_tri, last.l_aux, last.l_q, last.total]
            if not (all(map(math.isfinite, losses))
                    and all(0.0 <= r <= 1.0 for r in recalls)
                    and recalls == sorted(recalls)):
                m.failed += 1
            epoch += 1
        if last is not None:
            with tracer.paused():
                if not self._recall_reproduces(model, dataset, settings, last.recalls):
                    m.failed += 1
        if m.op_s:
            m.summary["epoch_s"] = (float(np.median(m.op_s)), "s", len(m.op_s))
        return m

    @staticmethod
    def _recall_reproduces(model, dataset, settings, recalls) -> bool:
        """The epoch's test recall equals an independent float64 evaluation."""
        queries = dataset.split_ground("test")
        with ad.no_grad():
            qv = np.stack([model.ground_forward(o).descriptor.value[0] for o in queries])
            rv = np.stack([model.aerial_descriptor(r).value[0] for r in dataset.aerial])
        want = checks.exact_recall(
            qv, np.array([o.geo for o in queries]), rv,
            np.array([r.geo for r in dataset.aerial]), [r.id for r in dataset.aerial],
            tuple(settings.eval_ks), settings.eval_radius,
        )
        return {str(k): v for k, v in recalls.items()} == want["recalls"]


class QueryStream:
    """Serve ground queries one at a time against an aerial database that is
    embedded first."""

    name = "query-stream"
    op = "query"
    top_k = 10
    min_queries = 20

    def __init__(self, num_places: int = 2048, **overrides) -> None:
        self.num_places = num_places
        self.overrides = overrides

    def setup(self, seed: int, workdir: Path):
        cfg = config.RunConfig(seed=seed, num_places=self.num_places,
                               train_per_place=1, test_per_place=0, **self.overrides)
        dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
        model = PlaceModel(cfg.model_config(), seed=cfg.seed)
        perturb_fusion(model, seed)
        return cfg, dataset, model

    def measure(self, state, seconds: float, tracer) -> Measurement:
        cfg, dataset, model = state
        m = Measurement()
        started = time.perf_counter()
        deadline = started + seconds
        m.attempted += 1
        with tracer.span("phase.refs", request="refs"), ad.no_grad():
            vectors = np.stack([model.aerial_descriptor(r).value[0] for r in dataset.aerial])
        refs_s = time.perf_counter() - started
        if not checks.unit_rows(vectors):
            m.failed += 1
        ids = [r.id for r in dataset.aerial]
        db = retrieval.DescriptorDatabase(
            ids=ids, geos=np.array([r.geo for r in dataset.aerial]), vectors=vectors
        )
        order = np.random.default_rng([cfg.seed, 2]).permutation(len(dataset.ground))
        answers = []
        i = 0
        while i < self.min_queries or time.perf_counter() < deadline:
            obs = dataset.ground[order[i % len(order)]]
            m.attempted += 1
            try:
                with tracer.span(REQUEST, request=f"query:{i}"):
                    t0 = time.perf_counter()
                    with ad.no_grad():
                        query = model.ground_forward(obs).descriptor.value
                    top, _ = retrieval.knn_search(query, db, self.top_k)
                    m.op_s.append(time.perf_counter() - t0)
                answers.append((query[0], top[0]))
            except Exception:
                _failure(f"query {i}")
                m.failed += 1
            i += 1
        # Checked after the timed phase, so that the checks' large temporaries
        # do not disturb the requests' caches and allocations.
        refs = vectors.astype(np.float64)
        ranks = checks.id_ranks(ids)
        m.failed += sum(
            1 for query, top in answers
            if not (checks.unit_rows(query[None, :])
                    and checks.topk_agrees(top, query, refs, ranks))
        )
        n = len(m.op_s)
        m.summary["query_ms_p50"] = (_percentile_ms(m.op_s, 50), "ms", n)
        m.summary["query_ms_p99"] = (_percentile_ms(m.op_s, 99), "ms", n)
        m.items, m.items_s = n, sum(m.op_s)
        m.summary["refs_per_s"] = (len(vectors) / refs_s, "1/s", len(vectors))
        return m


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class BatchEval:
    """``magvlaq eval --split all`` then ``magvlaq export`` on files."""

    name = "batch-eval"
    op = "eval"

    def __init__(self, num_places: int = 96, **overrides) -> None:
        self.num_places = num_places
        self.overrides = overrides

    def setup(self, seed: int, workdir: Path):
        cfg = config.RunConfig(seed=seed, num_places=self.num_places,
                               train_per_place=1, test_per_place=2, **self.overrides)
        dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
        data = workdir / "data.magt"
        tokens.save_token_file(dataset, data, tau_p=cfg.tau_p)
        model = PlaceModel(cfg.model_config(), seed=cfg.seed)
        perturb_fusion(model, seed)
        ckpt = workdir / "checkpoint.magt"
        cli.save_checkpoint(model, cfg, ckpt)
        return cfg, workdir, data, ckpt, len(dataset.ground) + len(dataset.aerial)

    def measure(self, state, seconds: float, tracer) -> Measurement:
        cfg, workdir, data, ckpt, n_descriptors = state
        m = Measurement()
        common = ["--checkpoint", str(ckpt), "--data", str(data)]
        exports: list[Path] = []
        report_path = workdir / "report.json"
        reports: list[dict] = []
        export_s: list[float] = []
        deadline = time.perf_counter() + seconds
        cycle = 0
        while cycle < 2 or time.perf_counter() < deadline:
            out = workdir / f"export-{cycle}.magt"
            for command, argv in (
                ("eval", ["eval", "--split", "all", "--out", str(report_path)]),
                ("export", ["export", "--out", str(out)]),
            ):
                m.attempted += 1
                try:
                    with tracer.span(REQUEST, request=f"{command}:{cycle}"):
                        t0 = time.perf_counter()
                        code = _run_cli(argv + common)
                        elapsed = time.perf_counter() - t0
                except Exception:
                    _failure(f"{command} {cycle}")
                    code = None
                if code != 0:
                    m.failed += 1
                elif command == "eval":
                    m.op_s.append(elapsed)
                    reports.append(json.loads(report_path.read_text()))
                else:
                    export_s.append(elapsed)
                    m.items += n_descriptors
                    m.items_s += elapsed
                    exports.append(out)
            cycle += 1
        m.failed += sum(
            1 for out in exports[1:] if not filecmp.cmp(exports[0], out, shallow=False)
        )
        with tracer.paused():
            want = self._recall_from_export(exports[0], cfg) if exports else None
        m.failed += sum(
            1 for r in reports
            if want is None or {k: r[k] for k in want} != want
        )
        m.summary["eval_s"] = (float(np.median(m.op_s)) if m.op_s else math.nan, "s",
                               len(m.op_s))
        m.summary["export_s"] = (float(np.median(export_s)) if export_s else math.nan, "s",
                                 len(export_s))
        return m

    @staticmethod
    def _recall_from_export(path: Path, cfg: config.RunConfig) -> dict | None:
        """Eval report fields recomputed from an exported descriptor container;
        None when the export's descriptors are not finite unit vectors."""
        ground, aerial = [], []
        for entry in magt.read_container(path):
            (ground if entry.meta["branch"] == "ground" else aerial).append(entry)
        qv = np.concatenate([e.tensors["descriptor"] for e in ground])
        rv = np.concatenate([e.tensors["descriptor"] for e in aerial])
        if not (checks.unit_rows(qv) and checks.unit_rows(rv)):
            return None
        return checks.exact_recall(
            qv, np.array([e.meta["geo"] for e in ground], dtype=np.float64),
            rv, np.array([e.meta["geo"] for e in aerial], dtype=np.float64),
            [e.meta["id"] for e in aerial], tuple(cfg.eval_ks), cfg.eval_radius,
        )


WORKLOADS = {w.name: w for w in (TrainOde, QueryStream, BatchEval)}
