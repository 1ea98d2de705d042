#!/usr/bin/env python3
"""entgeo benchmark: closed-loop workloads, output gates, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

One caller, BLAS pinned to one thread.  Inputs come from ``--seed`` only.
Calls run until their summed duration reaches ``--seconds`` (the unit in
progress is finished).  Every output is checked; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  Any failed item makes the exit code 1.  Earlier stdout lines
carry the run context; ``bench/results/`` receives the same plus, for traced
runs, every span as JSON lines.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("campaign", "state3", "wide")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_MIN_BEYOND = 10


def _use_source_tree() -> None:
    if not (SRC / "entgeo" / "__init__.py").is_file():
        sys.exit(f"error: no entgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(math.ceil(p / 100 * n), 1)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def run_context(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "entgeo").glob("*.py"))
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "callers": 1,
        "loop": "closed",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# set-up time: a fresh interpreter imports entgeo and finishes one warm-up item


def setup_probe(workload: str, workdir: Path) -> int:
    t0 = time.perf_counter()
    import entgeo  # noqa: F401
    import entgeo.cli  # noqa: F401
    imported = time.perf_counter() - t0
    import workloads

    wl = workloads.make(workload, seed=0, workdir=workdir)
    call = wl.warmup_call()
    t1 = time.perf_counter()
    out = wl.execute(call)
    warm = time.perf_counter() - t1
    failed, reasons = wl.check(call, out)
    if failed:
        print(f"warm-up item failed: {reasons}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": imported + warm, "import_s": imported, "warmup_s": warm}))
    return 0


def measure_setup(workload: str, workdir: Path) -> dict:
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(v["setup_s"] for v in values),
        "import_s": statistics.median(v["import_s"] for v in values),
        "warmup_s": statistics.median(v["warmup_s"] for v in values),
        "probes": len(values),
    }


# --------------------------------------------------------------------------
# the measured loop


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop over units until the summed call time reaches ``seconds``.

    With a tracer, every call runs twice on the same inputs, untraced and
    traced, in alternating order, so the two ``items_per_s`` figures differ
    only by the tracing; wrappers are installed only around traced calls.
    """
    sides = ("plain",) if tracer is None else ("plain", "traced")
    side = {s: {"busy": 0.0, "items": 0} for s in sides}
    latencies, reasons = [], []
    attempted = failed = out_bytes = 0
    k = n = 0
    while sum(v["busy"] for v in side.values()) < seconds:
        for call in wl.unit(k):
            for name in sides if n % 2 == 0 else sides[::-1]:
                traced = name == "traced"
                if traced:
                    tracer.request += 1
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out, error = wl.execute(call), None
                except Exception as exc:  # the library raised: every item of the call failed
                    out, error = None, f"{type(exc).__name__}: {exc}"
                finally:
                    dt = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                side[name]["busy"] += dt
                if not traced:
                    latencies.append(dt)
                attempted += call.items
                if error is not None:
                    failed += call.items
                    reasons.append(error)
                    continue
                side[name]["items"] += call.items
                if traced and hasattr(wl, "out_bytes"):
                    out_bytes += wl.out_bytes(out)
                n_failed, why = wl.check(call, out)
                failed += n_failed
                reasons += why
            n += 1
        k += 1
    return {"side": side, "latencies": latencies, "attempted": attempted,
            "failed": failed, "reasons": reasons, "out_bytes": out_bytes}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(run: dict, setup: dict) -> tuple[dict, dict]:
    plain = run["side"]["plain"]
    lat_ms = [1000.0 * x for x in run["latencies"]]
    pct, tail = tail_percentile(lat_ms)
    metrics = {
        "items_per_s": metric(plain["items"] / plain["busy"], "1/s"),
        "call_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "call_ms_tail": metric(tail, "ms"),
        "pass_frac": metric(1.0 - run["failed"] / run["attempted"], "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(setup["setup_s"], "s"),
    }
    details = {"call_ms_tail": {"percentile": pct, "calls": len(lat_ms)},
               "fail_frac": run["failed"] / run["attempted"], "setup": setup,
               "items": plain["items"], "busy_s": plain["busy"]}
    return metrics, details


def per_layer(run: dict, tracer) -> tuple[dict, dict]:
    plain, traced = run["side"]["plain"], run["side"]["traced"]
    metrics = tracer.layer_metrics(traced["items"])
    rate_plain = plain["items"] / plain["busy"] if plain["busy"] else 0.0
    rate_traced = traced["items"] / traced["busy"] if traced["busy"] else 0.0
    metrics["cli.out_bytes"] = metric(run["out_bytes"] / max(traced["items"], 1), "bytes/item")
    metrics["trace.items_per_s_untraced"] = metric(rate_plain, "1/s")
    metrics["trace.items_per_s_traced"] = metric(rate_traced, "1/s")
    metrics["trace.overhead_frac"] = metric(
        1.0 - rate_traced / rate_plain if rate_plain else 0.0, "frac")
    details = {"traced_items": traced["items"], "untraced_items": plain["items"],
               "fail_frac": run["failed"] / run["attempted"]}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_source_tree()
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.workdir)
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            import tracer as tracing

            tr = tracing.Tracer()
            run = measure(wl, args.seconds, tr)
            metrics, details = per_layer(run, tr)
            tr.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            setup = measure_setup(args.workload, workdir)
            run = measure(wl, args.seconds)
            metrics, details = end_to_end(run, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = run_context(args)
    context.update(details)
    context["failures"] = run["reasons"][:20]
    record = {"context": context, "correct": run["failed"] == 0,
              "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
