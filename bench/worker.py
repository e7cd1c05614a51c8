"""One benchmark worker: a fresh process that measures one workload.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload W --seed N (--seconds S | --passes K) [--trace-out PATH]

It first times ``import gridperc`` plus ``Builder()`` (set-up), then, unless
``--setup-only``, generates the workload's inputs from the seed and makes
passes over them: at least ``--min-passes``, and no further pass once
another as long as the last would take the unscaled request time past
``--seconds``; or exactly ``--passes``.  Each pass starts from fresh state;
its outputs are checked after the pass, outside the timed region.  Between
requests, also outside it, the reference computation of ``hostspeed`` is
timed, and every time the worker reports is divided by the host factor it
gives (each pass's unscaled total is reported too).  With ``--trace-out``
every pass is traced and the spans are written to that file at the end.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Time the import and a Builder; the package must come from this tree's src."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import gridperc

    gridperc.Builder()
    setup_s = perf_counter() - start
    if Path(gridperc.__file__).resolve().parent != SRC / "gridperc":
        raise SystemExit(f"gridperc imported from {gridperc.__file__}, not from {SRC}")
    return gridperc, setup_s


def run_pass(workload, inputs, tracer=None) -> dict:
    """Serve every request once, timed one by one, then check the outputs."""
    state = workload.new_state()
    results = []
    samples = [hostspeed.sample()]
    since_sample = 0.0
    for i, req in enumerate(inputs):
        if tracer is not None:
            tracer.request = i
            tracer.active = True
        start = perf_counter()
        try:
            out, kind = workload.run(req, state), "ok"
        except Exception as exc:  # every outcome is recorded; undocumented ones fail the run
            out, kind = exc, ("documented" if workload.documented(exc) else "error")
        latency = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        results.append((kind, out, latency))
        since_sample += latency
        if since_sample >= hostspeed.SAMPLE_EVERY_S:
            samples.append(hostspeed.sample())
            since_sample = 0.0
    samples.append(hostspeed.sample())
    host_factor = hostspeed.factor(samples)

    summary = {
        "time": 0.0, "raw_time": 0.0, "host_factor": host_factor, "host_samples": len(samples),
        "completed": 0, "uncovered": 0, "cells": 0, "errors": [],
        "tally": {}, "work": {}, "latencies": [], "delivered": [],
    }
    tally, work = summary["tally"], summary["work"]
    for req, (kind, out, raw_latency) in zip(inputs, results):
        latency = raw_latency / host_factor
        summary["raw_time"] += raw_latency
        summary["time"] += latency
        summary["latencies"].append(latency)
        delivered = False
        if kind == "ok":
            problem = workload.check(req, out)
            if problem is not None:
                summary["errors"].append(f"{req!r:.120}: {problem}")
                key = "check_failed"
            else:
                delivered = True
                key = workload.tally(req, out)
                for name, value in workload.work(req, out).items():
                    work[name] = work.get(name, 0) + value
                    work[name + "_time"] = work.get(name + "_time", 0.0) + latency
        elif kind == "documented":
            key = type(out).__name__
            if workload.counts_as_failure:
                summary["uncovered"] += 1
            else:
                delivered = True
        else:
            summary["errors"].append(f"{req!r:.120}: {type(out).__name__}: {out}")
            key = "error." + type(out).__name__
        if delivered:
            summary["completed"] += 1
            summary["cells"] += workload.cells(req)
        summary["delivered"].append(delivered)
        tally[key] = tally.get(key, 0) + 1
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    before = [hostspeed.sample() for _ in range(2)] if args.setup_only else []
    gridperc, setup_s = _import_program()
    if args.setup_only:
        host_factor = hostspeed.factor(before + [hostspeed.sample() for _ in range(2)])
        print(json.dumps({"setup_s": setup_s / host_factor}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    tracer = None
    setup_spans: list = []
    setup_overhead = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        plain, traced = [], []
        for _ in range(3):
            start = perf_counter()
            gridperc.Builder()
            plain.append(perf_counter() - start)
            tracer.active = True
            start = perf_counter()
            gridperc.Builder()
            traced.append(perf_counter() - start)
            tracer.active = False
        setup_overhead = median(traced) / median(plain)
        setup_spans, tracer.spans = tracer.spans, []

    passes, span_passes = [], [setup_spans]
    measured = 0.0
    while True:
        # the last pass's state (a Builder and its memo) is garbage with
        # cycles; freeing it here keeps its collection out of the next pass's
        # time and the peak memory independent of the number of passes
        gc.collect()
        summary = run_pass(workload, inputs, tracer)
        passes.append(summary)
        measured += summary["raw_time"]
        if tracer is not None:
            span_passes.append(tracer.spans)
            tracer.spans = []
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif len(passes) >= args.min_passes and measured + summary["raw_time"] > args.seconds:
            break  # another pass as long as this one would end past --seconds

    result = {
        "requests": len(inputs),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import dump, layer_metrics

        tracer.uninstall()
        dump(args.trace_out, span_passes)
        loads = sorted(end - start for name, start, end, *_ in setup_spans if name == "catalog.loads")
        result["catalog_load_s"] = median(loads)
        result["setup_overhead"] = setup_overhead
        result["layers"] = [layer_metrics(spans) for spans in span_passes[1:]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
