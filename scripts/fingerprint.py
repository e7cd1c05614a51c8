#!/usr/bin/env python3
"""Fingerprint gridperc's observable results, to check that a change keeps them.

Imports ``gridperc`` from ``--src`` (a directory holding the package, such as
a checkout's ``src``) and runs it on the benchmark's seeded inputs, read from
this repository's ``bench/workloads.py`` and left unchanged.  Writes one JSON
document to ``--out`` and prints its SHA-256; two trees with the same hash
gave the same results.  The document holds:

- ``repr(Builder().plan(d, s))`` for every sorted grid with sides <= 30 and
  both statuses;
- every ``build`` request's witness (or error message) at seeds 1 and 2;
- every ``search`` request's result (or error message) at seeds 1 and 2:
  ``find_at_bound`` and ``min_exhaustive`` results and the discovery messages;
- the unbudgeted 2x5 discovery at rng seed 1 (acceptance criterion 5);
- per ``verify`` input at seeds 1 and 2: status, ``percolates``,
  ``steps_taken``, the audit, ``render_trace``, milestones, ``infection_time``
  and ``neighbours_at_infection``;
- every built-in family pattern's ``seed_set(c)`` for k = 0..20 block
  copies, and the pattern ``_pattern_from_masks`` cuts back out of its
  minimal instance;
- every built-in catalog entry under each of the 48 box isometries;
- ``thickness1_entry(k)`` for k = 1..9;
- ``render_trace`` of runs longer than any verify input: paths 1x1x300 at
  r = 1 and 2 and 1x1x40 at r = 1, each seeded at one end;
- ``render_trace`` of runs whose fronts turn narrow enough for ``percolate``
  to step cell by cell: the 1x255x255 thickness-1 doubling at r = 3, and
  1x127x127 at r = 1 seeded in one corner.

Prints the hash of that document, then, as ``extended``, the hash of the
document written, which adds under ``extended``:

- per ``verify`` family input at seeds 1 and 2, the milestone of a
  predicate region, the cells with an even coordinate sum;
- the two narrow runs above rendered at r = 8, where no cell turns.

Masks are written in hex.  Takes about 20 s on a 2-vCPU VM.

Usage: python scripts/fingerprint.py [--src PATH] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import permutations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
PLAN_MAX_SIDE = 30
FAMILY_MAX_COPIES = 20
THICKNESS1_MAX_K = 9
LONG_TRACES = ((300, 1), (300, 2), (40, 1))  # (path length, r), seeded at one end
NARROW_DOUBLING_K = 8  # the 1x255x255 doubling
NARROW_SEEDED_SIDE = 127  # 1xNxN at r = 1 from one corner


def _mask(cset) -> str | None:
    return None if cset is None else format(cset.mask, "x")


def plans(gp) -> list:
    builder = gp.Builder()
    n = PLAN_MAX_SIDE
    return [
        [[a, b, c], str(status), repr(builder.plan(gp.GridDims(a, b, c), status))]
        for a in range(1, n + 1) for b in range(a, n + 1) for c in range(b, n + 1)
        for status in (gp.Status.PERFECT, gp.Status.OPTIMAL)
    ]


def builds(gp, workload, seed: int) -> list:
    builder = workload.new_state()
    out = []
    for req in workload.make_inputs(seed):
        try:
            entry, text = workload.run(req, builder)
        except gp.DependencyError as exc:
            out.append([list(req), "error", str(exc)])
            continue
        out.append([list(req), str(entry.status), entry.provenance, _mask(entry.seeds), text])
    return out


def searches(gp, workload, seed: int) -> list:
    out = []
    for req in workload.make_inputs(seed):
        try:
            result = workload.run(req, None)
        except gp.SearchError as exc:
            out.append([list(req), "error", str(exc)])
            continue
        if req[0] == "discover":
            out.append([list(req), repr(result)])
        else:
            out.append([list(req), str(result.mode), result.min_size, result.nodes_explored,
                        _mask(result.witness)])
    return out


def verifies(gp, workload, seed: int) -> list:
    """The workload's verify steps (trace first), then every status attribute."""
    out = []
    for req in workload.make_inputs(seed):
        dims, seeds = gp.parse_set(req["text"])
        result = gp.classify(dims, seeds)
        audit = gp.perfect_audit(result.trace, seeds)
        rendered = gp.render_trace(result.trace)
        milestones = None
        if req["family"]:
            regions = [gp.Region.full(dims)] + [gp.Region.layer(x) for x in range(1, dims.a + 1)]
            milestones = [[m.region, m.time] for m in gp.extract_milestones(result.trace, regions)]
        trace = result.trace
        out.append({
            "label": req["label"],
            "status": str(result.status),
            "percolates": result.percolates,
            "steps_taken": result.steps_taken,
            "final": _mask(result.final),
            "audit": [audit.seeds_independent, audit.all_exactly_three, audit.no_adjacent_simultaneous,
                      list(audit.excess_infections), [list(p) for p in audit.adjacent_same_step]],
            "render": rendered,
            "milestones": milestones,
            "infection_time": list(trace.infection_time),
            "neighbours_at_infection": list(trace.neighbours_at_infection),
        })
    return out


def parity_milestones(gp, workload, seed: int) -> list:
    """The even-coordinate-sum milestone of every family verify input."""
    even = gp.Region("even cells", lambda cell: sum(cell) % 2 == 0)
    out = []
    for req in workload.make_inputs(seed):
        if req["family"]:
            dims, seeds = gp.parse_set(req["text"])
            [milestone] = gp.extract_milestones(gp.percolate(dims, 3, seeds), [even])
            out.append([req["label"], milestone.time])
    return out


def long_traces(gp) -> list:
    """Renders whose times pass 35, 63 and 255, and one that never spreads."""
    out = []
    for c, r in LONG_TRACES:
        dims = gp.GridDims(1, 1, c)
        out.append([c, r, gp.render_trace(gp.percolate(dims, r, gp.CellSet(dims, 1)))])
    return out


def narrow_traces(gp, doubling_r: int = 3, corner_r: int = 1) -> list:
    """Renders of the runs whose fronts turn narrow at r = 3 and 1: the
    doubling at ``doubling_r``, the corner seed at ``corner_r``."""
    doubling = gp.thickness1_entry(NARROW_DOUBLING_K).seeds
    corner = gp.GridDims(1, NARROW_SEEDED_SIDE, NARROW_SEEDED_SIDE)
    return [
        gp.render_trace(gp.percolate(doubling.dims, doubling_r, doubling)),
        gp.render_trace(gp.percolate(corner, corner_r, gp.CellSet(corner, 1))),
    ]


def families(gp) -> dict:
    """Each pattern's instances and the pattern cut back out of its minimal one."""
    out = {}
    for fid, p in sorted(gp.builtin_patterns().items()):
        instances = [_mask(p.seed_set(p.min_c + 6 * k)) for k in range(FAMILY_MAX_COPIES + 1)]
        cut = gp.families._pattern_from_masks(
            fid, p.a, p.b, p.residue, p.min_c, p.left.dims.c,
            p.seed_set(p.min_c).mask, p.block.mask, p.rng_seed,
        )
        out[fid] = [instances, [_mask(part) for part in (cut.left, cut.block, cut.right)]]
    return out


def orientations(gp) -> dict:
    """Every catalog entry under every (perm, flips) isometry of its box."""
    isometries = list(product(permutations(range(3)), product((False, True), repeat=3)))
    return {
        key: [_mask(gp.grid.orient_set(entry.seeds, o)) for o in isometries]
        for key, entry in sorted(gp.builtin_catalog().entries.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the gridperc package")
    parser.add_argument("--out", default="fingerprint.json", help="where to write the JSON document")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import gridperc as gp
    import workloads

    if Path(gp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"gridperc imported from {gp.__file__}, not from {src}")
    w = workloads.WORKLOADS
    doc = {
        "plans": plans(gp),
        "build": {seed: builds(gp, w["build"], seed) for seed in SEEDS},
        "search": {seed: searches(gp, w["search"], seed) for seed in SEEDS},
        "discover_live": repr(gp.discover_family(2, 5, 5, 5, rng_seed=1, family_id="2x5",
                                                 params=gp.families.DiscoveryParams())),
        "verify": {seed: verifies(gp, w["verify"], seed) for seed in SEEDS},
        "families": families(gp),
        "orientations": orientations(gp),
        "thickness1": [_mask(gp.thickness1_entry(k).seeds) for k in range(1, THICKNESS1_MAX_K + 1)],
        "long_traces": long_traces(gp),
        "narrow_traces": narrow_traces(gp),
    }
    base = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc["extended"] = {
        "parity_milestones": {seed: parity_milestones(gp, w["verify"], seed) for seed in SEEDS},
        "narrow_traces_r8": narrow_traces(gp, 8, 8),
    }
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    Path(args.out).write_bytes(data)
    print(hashlib.sha256(base).hexdigest())
    print(hashlib.sha256(data).hexdigest(), "extended")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
