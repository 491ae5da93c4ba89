"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train-ode --seed 1 --seconds 20 --trace 0

Run from the root of a magvlaq checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
perfbench/README.md). Scratch files go to ``.perfbench-work/`` and are
removed; results and spans are kept in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYER_METRICS, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
THREAD_VARS = ("MAGVLAQ_THREADS", "OPENBLAS_NUM_THREADS")
BLAS_THREADS = "1"
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


def pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds at the values its dynamic rule
    reaches in a warmed-up process (32 and 64 MiB).

    Left dynamic, the thresholds depend on which large blocks the process
    happened to free before. When they are low, the megabyte-sized temporaries
    of every search and backward pass are mapped and page-faulted anew; in
    trials query latency then read about 18 ms instead of about 10 ms, from
    one run to the next of the same code.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD):
        return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={2 * MMAP_THRESHOLD}"
    return "default"


def pin_blas_threads() -> dict[str, str | None]:
    """Run OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise;
    return the thread variables as found. Call before numpy is imported.

    On two shared CPUs OpenBLAS's second thread brings no speed (five
    ode-vlaq epochs took 40.7 s with it and 40.9 s without) but doubles the
    CPU time, and its spinning threads stall whenever another process holds
    a CPU: with one busy-looping process beside it, an epoch took 15.4 s
    instead of 7.3 s. One thread took 7.3-7.8 s either way.
    """
    found = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    return found


def environment(allocator: str, found: dict[str, str | None]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "allocator": allocator,
        **found,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics: the median of several set-ups, then one timed phase."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before building the next
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - started)
    m = workload.measure(state, seconds, NullTracer())
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms_p50": (_median_ms(m.op_s), "ms"),
        "items_per_s": (m.items / m.items_s if m.items_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counts = {"setup_s": len(setup_s), "op_ms_p50": len(m.op_s),
              "items_per_s": m.items, "peak_rss_mb": 1}
    samples = {"setup_s": setup_s, "op_s": m.op_s}
    return metrics, counts, m.attempted, m.failed, m.summary, samples


def run_traced(workload, seed: int, seconds: float, workdir: Path, spans_path: Path):
    """Per-layer metrics: an untraced pass, then the same pass traced."""
    base = workload.measure(workload.setup(seed, workdir), seconds, NullTracer())
    gc.collect()
    tracer = Tracer()
    with tracer.installed():
        traced = workload.measure(workload.setup(seed, workdir), seconds, tracer)
    tracer.write_spans(spans_path)
    values, counts = tracer.layer_metrics()
    values["trace.overhead_ms"] = _median_ms(traced.op_s) - _median_ms(base.op_s)
    counts["trace.overhead_ms"] = len(traced.op_s)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    summary = {
        **traced.summary,
        f"untraced_{workload.op}_ms_p50": (_median_ms(base.op_s), "ms", len(base.op_s)),
        f"traced_{workload.op}_ms_p50":
            (_median_ms(traced.op_s), "ms", len(traced.op_s)),
    }
    samples = {"untraced_op_s": base.op_s, "traced_op_s": traced.op_s}
    return (metrics, counts, base.attempted + traced.attempted,
            base.failed + traced.failed, summary, samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    found = pin_blas_threads()
    allocator = pin_allocator()

    if not (SRC / "magvlaq" / "__init__.py").is_file():
        print(f"perfbench: magvlaq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = environment(allocator, found)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench-work"))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, workdir,
                                out_dir / f"{stem}.spans.jsonl")
        else:
            result = run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, counts, attempted, failed, summary, samples = result
    summary["error_rate"] = (failed / attempted, "ratio", attempted)

    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={counts[name]}")
    for name, (value, unit, n) in summary.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")

    correct = failed == 0
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "workload": workload.name, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "result": line,
         "counts": counts, "samples": samples,
         "summary": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in summary.items()}},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
