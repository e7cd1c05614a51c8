"""Command-line interface.

Subcommands: bound, simulate, verify, combine, build, search, family, render.
Exit codes: 0 success/verified, 1 not-percolating or failed search, 2 usage
or parse errors.  ``--machine`` switches to one JSON record per line with
deterministic key order, suitable for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import Classification, Status, classify, lower_bound, perfect_precondition
from .catalog import Catalog, CatalogEntry, CatalogError, builtin_catalog
from .combine import CombineError, combine
from .engine import SimulationTruncated
from .families import (
    DiscoveryParams,
    FamilyError,
    assemble_family,
    builtin_patterns,
    discover_family,
    load_patterns,
    write_patterns,
)
from .grid import CellSet, GridDims, GridError
from .gridtext import ParseError, parse_set, render_trace, write_set
from .pipelines import Builder, DependencyError
from .search import (
    AnnealParams,
    SearchError,
    SearchMode,
    find_at_bound,
    min_exhaustive,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _emit(args, record: dict, human: str) -> None:
    if args.machine:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _classify_seed_file(path: str, r: int = 3, max_steps: int | None = None) -> Classification:
    text = Path(path).read_text(encoding="utf-8") if path != "-" else sys.stdin.read()
    return classify(*parse_set(text), r=r, max_steps=max_steps)


def _write_witness(args, entry_seeds: CellSet) -> None:
    text = write_set(entry_seeds)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif not args.machine:
        print(text, end="")


# --- subcommand handlers ----------------------------------------------------


def cmd_bound(args) -> int:
    dims = GridDims(args.a, args.b, args.c)
    exact, ceil = lower_bound(dims)
    record = {
        "record": "bound",
        "dims": str(dims),
        "exact": str(exact),
        "ceil": ceil,
        "perfect_possible": perfect_precondition(dims),
    }
    _emit(args, record,
          f"{dims}: lower bound {exact} (ceiling {ceil}), "
          f"perfect {'possible' if record['perfect_possible'] else 'impossible'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    result = _classify_seed_file(args.seedfile, args.r, args.max_steps)
    dims = result.dims
    # a printed trace is read first, so the status below is read off it
    rendered = render_trace(result.trace) if args.trace and not args.machine else None
    record = {
        "record": "simulate",
        "dims": str(dims),
        "size": result.size,
        "steps": result.steps_taken,
        "percolated": result.percolates,
        "status": str(result.status),
    }
    _emit(args, record,
          f"{dims}: {result.size} seeds, {'percolated' if result.percolates else 'stuck'} "
          f"after {result.steps_taken} steps, status {result.status}")
    if rendered is not None:
        print(rendered, end="")
    return EXIT_OK if result.percolates else EXIT_FAILED


def cmd_verify(args) -> int:
    result = _classify_seed_file(args.seedfile, args.r, args.max_steps)
    dims = result.dims
    record = {
        "record": "verify",
        "dims": str(dims),
        "size": result.size,
        "status": str(result.status),
        "lower_bound_ceil": result.lower_bound_ceil,
        "percolated": result.percolates,
    }
    _emit(args, record, f"{dims}: size {result.size}, status {result.status}")
    return EXIT_OK if result.percolates else EXIT_FAILED


def cmd_render(args) -> int:
    result = _classify_seed_file(args.seedfile, args.r, args.max_steps)
    text = render_trace(result.trace)
    if args.machine:
        print(json.dumps({
            "record": "render",
            "dims": str(result.dims),
            "status": str(result.status),
            "grid": text,
        }, sort_keys=True))
    else:
        print(text, end="")
    return EXIT_OK


def cmd_combine(args) -> int:
    parts = []
    for path in (args.p1, args.p2, args.p3, args.p4):
        result = _classify_seed_file(path)
        if result.status < Status.OPTIMAL:
            print(f"error: part {path} ({result.dims}) classifies as {result.status}",
                  file=sys.stderr)
            return EXIT_FAILED
        parts.append(CatalogEntry(result.dims, result.seeds, result.status, f"file {path}"))
    entry = combine(*parts)
    record = {
        "record": "combine",
        "dims": str(entry.dims),
        "size": entry.size,
        "status": str(entry.status),
        "children": list(entry.children),
    }
    _emit(args, record, f"combined {entry.dims}: size {entry.size}, status {entry.status}")
    _write_witness(args, entry.seeds)
    return EXIT_OK


def cmd_build(args) -> int:
    catalog = Catalog.load(args.catalog) if args.catalog else builtin_catalog()
    dims = GridDims(args.a, args.b, args.c)
    entry = getattr(Builder(catalog=catalog), args.kind)(dims)
    # the Builder verified the witness by simulation at this status
    record = {
        "record": "build",
        "dims": str(dims),
        "kind": args.kind,
        "size": entry.size,
        "status": str(entry.status),
        "provenance": entry.provenance,
    }
    _emit(args, record,
          f"built {dims}: size {entry.size}, status {entry.status} ({entry.provenance})")
    _write_witness(args, entry.seeds)
    return EXIT_OK


def cmd_search(args) -> int:
    dims = GridDims(args.a, args.b, args.c)
    if args.mode == "exhaustive":
        result = min_exhaustive(dims, r=args.r, node_budget=args.budget)
        record = {
            "record": "search",
            "mode": result.mode.value,
            "dims": str(dims),
            "min_size": result.min_size,
            "nodes": result.nodes_explored,
        }
        human = (f"{dims}: minimum percolating set size {result.min_size} "
                 f"({result.nodes_explored} nodes)")
    else:
        target = args.target if args.target is not None else lower_bound(dims)[1]
        result = find_at_bound(
            dims, target, r=args.r, rng_seed=args.rng_seed,
            node_budget=args.budget,
            params=AnnealParams(restarts=args.restarts, iterations=args.iterations),
        )
        record = {
            "record": "search",
            "mode": result.mode.value,
            "dims": str(dims),
            "target": target,
            "nodes": result.nodes_explored,
            "rng_seed": result.rng_seed,
            "found": result.found,
        }
        human = (f"{dims}: target {target} -> {result.mode.value} "
                 f"({result.nodes_explored} simulations)")
    _emit(args, record, human)
    if result.witness is not None:
        _write_witness(args, result.witness)
        if args.catalog_out:
            # the catalog holds 3-neighbour witnesses, whatever r the search ran at
            status = classify(dims, result.witness).status
            if status >= Status.OPTIMAL:
                provenance = ("searched-exhaustive"
                              if result.mode is SearchMode.EXHAUSTIVE_PROVEN
                              else "searched-heuristic")
                cat = (Catalog.load(args.catalog_out)
                       if Path(args.catalog_out).exists() else Catalog())
                cat.add(CatalogEntry(dims, result.witness, status, provenance,
                                     rng_seed=result.rng_seed, verified=True),
                        replace=True)
                cat.save(args.catalog_out)
            else:
                print(f"note: witness is only {status}; not recorded in the catalog",
                      file=sys.stderr)
    return EXIT_OK if result.mode is not SearchMode.FAILED else EXIT_FAILED


def cmd_family(args) -> int:
    patterns = load_patterns(args.patterns) if args.patterns else builtin_patterns()
    if args.action == "list":
        for fid, p in sorted(patterns.items()):
            record = {
                "record": "family",
                "id": fid,
                "section": f"{p.a}x{p.b}",
                "residue": p.residue,
                "min_c": p.min_c,
            }
            _emit(args, record,
                  f"{fid}: ({p.a},{p.b},c) for c ≡ {p.residue} (mod 6), c >= {p.min_c}")
        return EXIT_OK

    if args.id is None or (args.action == "assemble" and args.c is None):
        print("error: family action needs an id (and c for assemble)", file=sys.stderr)
        return EXIT_USAGE
    p = patterns.get(args.id)
    if p is None:
        print(f"error: unknown family {args.id}", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "assemble":
        try:
            entry = assemble_family(p, args.c)
        except FamilyError as exc:
            if p.admissible(args.c):
                raise  # the pattern failed verification
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        record = {
            "record": "family",
            "id": args.id,
            "dims": str(entry.dims),
            "size": entry.size,
            "status": str(entry.status),
        }
        _emit(args, record, f"{args.id} at c={args.c}: {entry.dims}, size {entry.size}, "
                            f"status {entry.status}")
        _write_witness(args, entry.seeds)
        return EXIT_OK

    # discover
    try:
        pattern = discover_family(
            p.a, p.b, p.residue, p.min_c, rng_seed=args.rng_seed, family_id=args.id,
            node_budget=args.budget,
            params=DiscoveryParams(),
        )
    except SearchError as exc:
        print(f"discovery failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    record = {
        "record": "family",
        "id": args.id,
        "discovered": True,
        "seam": pattern.left.dims.c,
        "rng_seed": pattern.rng_seed,
    }
    _emit(args, record, f"discovered {args.id} (seam {pattern.left.dims.c})")
    if args.out:
        Path(args.out).write_text(write_patterns([pattern]), encoding="utf-8")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridperc",
        description="3-neighbour bootstrap percolation on a x b x c grids",
    )
    parser.add_argument("--machine", action="store_true",
                        help="JSON record output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_r(p):
        p.add_argument("--r", type=int, default=3, help="infection threshold")

    def add_out(p):
        p.add_argument("--out", "-o", help="write the witness/seed text here")

    def add_dims(p):
        for side in ("a", "b", "c"):
            p.add_argument(side, type=int)

    p = sub.add_parser("bound", help="lower bound and perfectness precondition")
    add_dims(p)
    p.set_defaults(func=cmd_bound)

    def add_seed_file_command(name, func, help_text):
        # these simulate a seed file, so they alone take a step cap
        p = sub.add_parser(name, help=help_text)
        p.add_argument("seedfile")
        add_r(p)
        p.add_argument("--max-steps", type=int, default=None)
        p.set_defaults(func=func)
        return p

    p = add_seed_file_command("simulate", cmd_simulate, "run the process on a seed file")
    p.add_argument("--trace", action="store_true", help="print infection times")
    add_seed_file_command("verify", cmd_verify, "classify a seed file")
    add_seed_file_command("render", cmd_render, "infection-time rendering of a seed file")

    p = sub.add_parser("combine", help="compose four part witnesses")
    for name in ("p1", "p2", "p3", "p4"):
        p.add_argument(name)
    add_out(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("build", help="construct a perfect/optimal witness")
    p.add_argument("kind", choices=["perfect", "optimal"])
    add_dims(p)
    p.add_argument("--catalog", help="witness catalog path (default: built-in)")
    add_out(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("search", help="exhaustive or stochastic search")
    p.add_argument("mode", choices=["exhaustive", "atbound"])
    add_dims(p)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--iterations", type=int, default=20_000)
    p.add_argument("--catalog-out", help="record the witness in this catalog file")
    add_r(p)
    add_out(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("family", help="periodic family patterns")
    p.add_argument("action", choices=["list", "assemble", "discover"])
    p.add_argument("id", nargs="?", help="family id, e.g. 2x5")
    p.add_argument("c", nargs="?", type=int, help="parameter for assemble")
    p.add_argument("--patterns", help="pattern store path (default: built-in)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    add_out(p)
    p.set_defaults(func=cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, CatalogError, GridError, SearchError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DependencyError, CombineError, FamilyError, SimulationTruncated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
