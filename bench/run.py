"""gridperc benchmark: seeded build, verify and search workloads, with checks.

    python3 bench/run.py [--workload build|verify|search|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source tree; the package is imported from ``src/``.
Every workload runs in its own fresh worker process, one after the other,
on one thread.  Set-up time comes from further fresh workers that only
import gridperc and build a ``Builder``.  Every time is scaled to a quiet
host by the reference computation in ``hostspeed.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an untraced
pass and a traced pass over the same inputs in two workers and prints the
per-layer metrics, including ``trace.overhead.*`` (traced over untraced).
Spans are written to ``.bench_out/``.  Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 if any output check fails,
an exact-repeat count differs between passes, or a request raises an
undocumented error; it is 2 if the tree holds no ``src/gridperc``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("build", "verify", "search")

# End-to-end figures, printed by name with their unit for every workload
# (sims_per_s on search only).
FIGURES = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cells_per_s": "cells/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "share",
    "sims_per_s": "1/s",
}
# The figures in the JSON result, and so in BENCHMARK.json: non-zero on every
# workload and steady across seeds.  On a shared 2-vCPU host the 10-seed spread
# of op_p50_ms and op_tail_ms reached 0.27-0.29 (IQR over median), above any
# bound a metric may have, so they are printed but not in the JSON.
END_TO_END = ("setup_s", "ops_per_s", "cells_per_s", "peak_rss_mb")
# figures compared between the traced and the untraced run
OVERHEAD = ("setup_s", "ops_per_s", "cells_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_WORKERS = 5  # before the measuring worker, and as many after it
MIN_PASSES = 2
DEADLINE_S = 170.0  # one workload, set-up included, ends within this


LAYER_UNITS = {
    "engine.fixed_point_mask.cell_steps": "cell-steps",
    "engine.fixed_point_mask.cell_steps_per_s": "cell-steps/s",
    "engine.percolate.cells": "cells",
    "engine.percolate.cells_per_s": "cells/s",
    "engine.percolate.scaling_exp": "ratio",
    "gridtext.bytes": "B",
    "gridtext.bytes_per_s": "B/s",
    "combine.tries_per_call": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.startswith("trace.overhead."):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 when nothing completed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """End-to-end figures of one worker's passes, and notes on how they were taken.

    Every pass serves the same requests in the same order from the same fresh
    state, so each request's latency is taken as its median over the passes:
    a burst of load elsewhere on the machine during one pass then weighs
    little.  Outcomes, and so completions and cells, repeat exactly between
    passes (the repeat check enforces it).
    """
    passes = result["passes"]
    latencies = [median(lat) for lat in zip(*(p["latencies"] for p in passes))]
    time = sum(latencies)
    # latency of requests that delivered; failures show in the rates
    delivered = [lat for lat, ok in zip(latencies, passes[0]["delivered"]) if ok]
    tail_p = tail_percentile(len(delivered))
    tail = percentile(delivered, tail_p)
    figures = {
        "setup_s": setup_s,
        "ops_per_s": median(p["completed"] for p in passes) / time,
        "cells_per_s": median(p["cells"] for p in passes) / time,
        "op_p50_ms": 1000.0 * percentile(delivered, 50.0),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed = sum(p["uncovered"] + len(p["errors"]) for p in passes)
    figures["error_rate"] = failed / sum(len(p["latencies"]) for p in passes)
    sims = sum(p["work"].get("at_bound_sims", 0) for p in passes)
    if sims:
        figures["sims_per_s"] = sims / sum(p["work"]["at_bound_sims_time"] for p in passes)
    notes = {
        "passes": len(passes),
        "requests_per_pass": result["requests"],
        "latency_samples": len(delivered),
        "op_tail_percentile": tail_p,
        "samples_beyond_tail": sum(1 for t in delivered if t > tail),
        "dependency_errors": sum(p["uncovered"] for p in passes),
        "host_factor_per_pass": [round(p["host_factor"], 4) for p in passes],
        "host_samples_per_pass": [p["host_samples"] for p in passes],
        "unscaled_ops_per_s": median(p["completed"] for p in passes) / median(p["raw_time"] for p in passes),
    }
    return figures, notes


EXACT_LAYER_COUNTS = (
    ".calls", "find_at_bound.sims", "discover_family.sims", "min_exhaustive.nodes",
    "combine.tries", "tries_per_call", "dependency_errors", ".cell_steps", "percolate.cells",
    "gridtext.bytes",
)


def repeat_counts(passes: list[dict], layers: list[dict] | None = None) -> list[dict]:
    """Per pass: the counts that must not change between passes over the same inputs."""
    out = []
    for k, p in enumerate(passes):
        counts = dict(p["tally"])
        counts.update({key: v for key, v in p["work"].items() if not key.endswith("_time")})
        if layers is not None:
            counts.update({key: v for key, v in layers[k].items() if key.endswith(EXACT_LAYER_COUNTS)})
        out.append(counts)
    return out


def count_mismatches(counts: list[dict]) -> list[str]:
    """Passes whose counts differ from the first pass on a key both have."""
    out = []
    for k, other in enumerate(counts[1:], start=1):
        shared = other.keys() & counts[0].keys()
        if any(other[key] != counts[0][key] for key in shared):
            out.append(f"pass {k} counts {json.dumps(other, sort_keys=True)} differ from pass 0")
    return out


def _line(workload: str, name: str, value: float, unit: str) -> str:
    return f"{workload:<7} {name:<42} {value:>18.6f} {unit}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result record and the lines for people."""
    deadline = monotonic() + DEADLINE_S
    _worker(["--setup-only"], deadline)  # fills the bytecode cache; not counted
    # set-up is timed at both ends of the run, so a spell of load elsewhere on
    # the machine at its start does not decide the figure
    setups = [_worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_WORKERS)]

    common = ["--workload", workload, "--seed", str(seed)]
    budget = ["--seconds", str(seconds / 2), "--min-passes", "1"] if trace else [
        "--seconds", str(seconds), "--min-passes", str(MIN_PASSES)]
    plain = _worker(common + budget, deadline)
    setups += [_worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_WORKERS)]
    setup_s = median(setups)
    figures, notes = end_to_end(plain, setup_s)
    metrics = {name: figures[name] for name in END_TO_END}
    runs = [plain]
    counts = repeat_counts(plain["passes"])

    lines = [_line(workload, name, value, FIGURES[name]) for name, value in figures.items()]
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        traced = _worker(common + ["--passes", str(len(plain["passes"])), "--trace-out", str(spans_path)], deadline)
        runs.append(traced)
        counts += repeat_counts(traced["passes"], traced["layers"])
        traced_figures, _ = end_to_end(traced, setup_s)
        layers = traced["layers"]
        metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
        metrics["catalog.load_s"] = traced["catalog_load_s"]
        for name in OVERHEAD:
            metrics[f"trace.overhead.{name}"] = (
                traced["setup_overhead"] if name == "setup_s" else traced_figures[name] / figures[name])
        # the untraced lines stay: they are the bases of trace.overhead.*
        lines += [_line(workload, name, value, layer_unit(name)) for name, value in metrics.items()]
        notes["spans"] = str(spans_path.relative_to(ROOT))
    lines.append(f"{workload:<7} notes {json.dumps(notes, sort_keys=True)}")
    lines.append(f"{workload:<7} counts per pass {json.dumps(counts[0], sort_keys=True)}")

    problems = [e for run in runs for p in run["passes"] for e in p["errors"]]
    problems += count_mismatches(counts)
    lines += [f"{workload:<7} FAILED {problem}" for problem in problems[:20]]
    record = {
        "correct": not problems,
        "attempted": sum(len(p["latencies"]) for run in runs for p in run["passes"]),
        "failed": sum(len(p["errors"]) for run in runs for p in run["passes"]),
        "metrics": {
            name: {"value": value, "unit": layer_unit(name) if trace else FIGURES[name]}
            for name, value in metrics.items()
        },
    }
    return record, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridperc" / "__init__.py").is_file():
        print(f"error: no gridperc package under {ROOT / 'src'}; run from a source tree", file=sys.stderr)
        return 2

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for workload in selected:
        try:
            record, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        records[workload] = record

    if len(selected) == 1:
        final = records[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{name}": v for w, r in records.items() for name, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
