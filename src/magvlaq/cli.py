"""Command-line front end: generate, train, eval, export, inspect.

Exit codes: 0 on success, 2 for configuration/usage problems, 3 for data or
numerical integrity failures (unreadable containers, invalid datasets,
divergent training).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import magt, retrieval, tokens, training
from .errors import (
    ConfigurationError,
    ContractError,
    DatasetValidationError,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    TokenFileError,
)
from .model import AGGREGATORS, MODALITY_MASKS, PlaceModel
from .tokens import TokenDataset

CHECKPOINT_KIND = "params"


def save_checkpoint(model: PlaceModel, run_config: config_mod.RunConfig,
                    path: str | Path) -> int:
    """Write parameters, Adam moments, and the run config to one container."""
    store = model.store
    tensors: dict[str, np.ndarray] = {}
    for name, p in store.items():
        tensors[f"param.{name}"] = p.value
        tensors[f"adam_m.{name}"] = store.first_moment[name]
        tensors[f"adam_v.{name}"] = store.second_moment[name]
    entry = magt.ContainerEntry(
        meta={
            "id": "model",
            "kind": CHECKPOINT_KIND,
            "step": store.step,
            "run_config": json.loads(run_config.to_json()),
        },
        tensors=tensors,
    )
    return magt.write_container([entry], path)


def load_checkpoint(path: str | Path, moments: bool = True
                    ) -> tuple[config_mod.RunConfig, PlaceModel]:
    """Rebuild the model (and optimizer moments) saved by save_checkpoint.

    Parameters and moments are validated as the model registers them, and
    then adopted as they are: views of the buffer the container was read into.
    With ``moments=False`` the Adam moments are read and validated but not
    kept: the buffer holds the parameters alone, and the store's moments are
    None, so it cannot take an optimizer step.
    """
    entries = magt.read_container(
        path, keep=None if moments else lambda key: key.startswith("param."))
    if len(entries) != 1 or entries[0].meta.get("kind") != CHECKPOINT_KIND:
        raise DatasetValidationError(
            f"{path}: not a checkpoint container"
        )
    entry = entries[0]
    raw_cfg = entry.meta.get("run_config")
    if not isinstance(raw_cfg, dict):
        raise DatasetValidationError(f"{path}: checkpoint lacks its run config")
    run_config = config_mod.config_from_mapping(raw_cfg, source=str(path))
    step = entry.meta.get("step")
    # bool is a subclass of int: a JSON true must not load as step 1
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise DatasetValidationError(f"{path}: bad optimizer step {step!r}")

    def adopt(name: str, shape: tuple[int, ...], dtype: np.dtype):
        arrays = []
        for key in (f"param.{name}", f"adam_m.{name}", f"adam_v.{name}"):
            arr = entry.tensors.get(key)
            if arr is None and key not in entry.skipped:
                raise DatasetValidationError(f"{path}: checkpoint missing tensor {key!r}")
            got, finite = (arr.shape, None) if arr is not None else entry.skipped[key]
            if got != shape:
                raise DatasetValidationError(
                    f"{path}: checkpoint tensor {key!r} has shape "
                    f"{got}, expected {shape}"
                )
            if not (finite if arr is None else magt.all_finite(arr)):
                raise DatasetValidationError(
                    f"{path}: checkpoint tensor {key!r} has a non-finite value"
                )
            arrays.append(arr if arr is None else np.asarray(arr, dtype=dtype))
        return tuple(arrays)

    model = PlaceModel.from_source(run_config.model_config(), adopt)
    model.store.step = step
    return run_config, model


def _parse_ks(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"--k expects comma-separated integers, got {raw!r}") from exc
    if not ks:
        raise ConfigurationError("--k must name at least one cutoff")
    if min(ks) < 1:
        raise ConfigurationError(f"--k recall cutoffs must be positive, got {raw!r}")
    return ks


def _build_config(args: argparse.Namespace) -> config_mod.RunConfig:
    overrides = {
        name: getattr(args, name, None)
        for name in ("seed", "epochs", "aggregator", "alpha")
    }
    if getattr(args, "k", None) is not None:
        overrides["eval_ks"] = _parse_ks(args.k)
    if getattr(args, "radius_m", None) is not None:
        overrides["eval_radius"] = args.radius_m
    return config_mod.load_config(getattr(args, "config", None), **overrides)


def _load_or_generate(args: argparse.Namespace,
                      cfg: config_mod.RunConfig) -> TokenDataset:
    data = getattr(args, "data", None)
    if data:
        return tokens.load_token_file(data, tau_p=cfg.tau_p)
    return tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    dataset = tokens.generate_synthetic_dataset(cfg.synth_config(), cfg.seed)
    n_bytes = tokens.save_token_file(dataset, args.out, tau_p=cfg.tau_p)
    print(
        f"wrote {args.out}: {len(dataset.ground)} ground observations, "
        f"{len(dataset.aerial)} aerial references, {n_bytes} bytes"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    dataset = _load_or_generate(args, cfg)
    model = PlaceModel(cfg.model_config(), seed=cfg.seed)
    settings = cfg.train_settings()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(cfg.to_json() + "\n")

    trace_path = out_dir / "trace.csv"
    last = None
    with trace_path.open("w") as trace:
        trace.write(training.CSV_HEADER + "\n")
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng([cfg.seed, epoch])
            metrics = training.train_epoch(model, dataset, settings, epoch, rng)
            row = metrics.csv_row()
            trace.write(row + "\n")
            trace.flush()
            print(row)
            last = metrics

    ckpt_path = out_dir / "checkpoint.magt"
    save_checkpoint(model, cfg, ckpt_path)
    assert last is not None
    print(
        f"finished {cfg.epochs} epochs ({cfg.aggregator}); "
        f"test recall@1 {last.recalls.get(1, float('nan')):.3f}; "
        f"checkpoint {ckpt_path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ks = _parse_ks(args.k)
    run_config, model = load_checkpoint(args.checkpoint, moments=False)
    if args.radius_m is not None:
        run_config = dataclasses.replace(run_config, eval_radius=args.radius_m)
        run_config.validate()
    ks = ks or tuple(run_config.eval_ks)
    dataset = _load_or_generate(args, run_config)
    queries = dataset.ground if args.split == "all" else dataset.split_ground(args.split)
    if not queries:
        raise DatasetValidationError(f"no ground observations in split {args.split!r}")

    if args.heatmap:  # fails before any embedding or output
        target = args.query or queries[0].id
        by_id = {obs.id: obs for obs in dataset.ground}
        if target not in by_id:
            raise DatasetValidationError(f"unknown query id {target!r} for heatmap")
        alpha = model.assignment_heatmap(by_id[target], mask=args.modality_mask)

    report = training.recall_report(model, queries, dataset.aerial, ks,
                                    run_config.eval_radius, args.modality_mask)
    line = report.to_json()
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    if args.heatmap:
        retrieval.dump_assignment_heatmap(alpha, args.heatmap)
        print(f"wrote heatmap for {target} to {args.heatmap}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    run_config, model = load_checkpoint(args.checkpoint, moments=False)
    dataset = _load_or_generate(args, run_config)
    entries = [
        magt.ContainerEntry(
            meta={
                "id": item.id,
                "kind": "descriptor",
                "branch": branch,
                "geo": [item.geo[0], item.geo[1]],
                "split": item.split if branch == "ground" else "db",
            },
            tensors={"descriptor": vec[None, :]},
        )
        for branch, items, vecs in (
            ("ground", dataset.ground, model.embed_ground(dataset.ground)),
            ("aerial", dataset.aerial, model.embed_aerial(dataset.aerial)),
        )
        for item, vec in zip(items, vecs)
    ]
    n_bytes = magt.write_container(entries, args.out)
    print(f"wrote {len(entries)} descriptors to {args.out} ({n_bytes} bytes)")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    entries = magt.read_container(path)
    print(f"{path}: {len(entries)} entries, {path.stat().st_size} bytes")
    for entry in entries:
        meta = entry.meta
        head = f"  {meta.get('id', '?')} kind={meta.get('kind', '?')}"
        if "split" in meta:
            head += f" split={meta['split']}"
        if "step" in meta:
            head += f" step={meta['step']}"
        print(head)
        for name, arr in entry.tensors.items():
            print(f"    {name}: {arr.shape[0]}x{arr.shape[1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magvlaq",
        description="Cross-modal place descriptors: synthesize, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser, with_epochs: bool = False) -> None:
        p.add_argument("--config", help="JSON run config; unknown keys are rejected")
        p.add_argument("--seed", type=int, help="override the config seed")
        if with_epochs:
            p.add_argument("--epochs", type=int, help="override the epoch count")
            p.add_argument(
                "--aggregator",
                choices=AGGREGATORS,
                help="descriptor aggregation variant",
            )
            p.add_argument(
                "--alpha", type=float, help="prototype shift strength (ode-vlaq)"
            )

    p_gen = sub.add_parser("generate", help="synthesize a token dataset file")
    add_config_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output dataset path (.magt)")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    add_config_flags(p_train, with_epochs=True)
    p_train.add_argument("--data", help="dataset file; omitted = synthesize from config")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="recall@K of a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset file; omitted = regenerate from the "
                                       "checkpoint's config")
    p_eval.add_argument("--split", choices=("train", "test", "all"), default="test")
    p_eval.add_argument(
        "--modality-mask", choices=MODALITY_MASKS, default="both",
        help="drop a ground sensor at query time",
    )
    p_eval.add_argument("--k", help="comma-separated recall cutoffs, e.g. 1,5,10")
    p_eval.add_argument("--radius-m", type=float, help="geo radius for a correct match")
    p_eval.add_argument("--out", help="also write the JSON report here")
    p_eval.add_argument("--heatmap", help="write a token-query assignment CSV here")
    p_eval.add_argument("--query", help="ground observation id for --heatmap")
    p_eval.set_defaults(func=cmd_eval)

    p_export = sub.add_parser("export", help="write all descriptors to a container")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--data", help="dataset file; omitted = regenerate")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export)

    p_inspect = sub.add_parser("inspect", help="summarize any container file")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        TokenFileError,
        DatasetValidationError,
        DivergenceError,
        DegenerateInputError,
        DimensionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
