#!/usr/bin/env python3
"""Regenerate the frozen witness catalog (src/gridperc/data/catalog.txt).

Runs the stochastic search for every leaf witness the construction pipelines
rely on and freezes the results.  Idempotent and resumable: existing entries
are kept, each new find is saved immediately.  Every witness is re-verified
by simulation before it is written.

Usage: python scripts/build_catalog.py [--only AxBxC] [--hard]
"""

import argparse
import sys
import time
from pathlib import Path

from gridperc.bounds import Status, lower_bound
from gridperc.catalog import Catalog, CatalogEntry, entry_key
from gridperc.grid import GridDims
from gridperc.search import AnnealParams, SearchMode, find_at_bound

CATALOG_PATH = Path(__file__).resolve().parent.parent / "src" / "gridperc" / "data" / "catalog.txt"

SEED_LADDER = list(range(1, 9))

# (dims, status): perfect targets sit exactly at the bound, optimal at its ceiling.
PERFECT_LEAVES = [
    (3, 3, 3), (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 3, 8), (3, 3, 9),
    (3, 4, 6), (3, 4, 9), (3, 5, 9), (3, 6, 9), (3, 7, 9),
    (2, 3, 6), (2, 3, 9), (2, 5, 8), (2, 6, 9), (2, 8, 11),
    (4, 4, 4),
    (2, 2, 2), (2, 2, 5), (3, 5, 6), (5, 5, 5), (5, 6, 6),
    (3, 6, 6), (5, 6, 9),
]
HARD_PERFECT_LEAVES = [
    (4, 6, 9), (4, 9, 9), (2, 9, 12),
]
# small optimal (non-perfect) grids used as recursion leaves
OPTIMAL_LEAVES = [
    (2, 3, 4), (2, 3, 5), (2, 4, 4), (2, 4, 5), (2, 4, 6), (2, 4, 7),
    (2, 5, 6), (2, 5, 7), (2, 6, 7),
    (3, 4, 4), (3, 4, 5), (3, 4, 7), (3, 5, 5), (3, 5, 7),
    (4, 4, 5), (4, 4, 6), (4, 5, 5), (4, 5, 6), (4, 5, 7), (4, 6, 7), (4, 4, 8),
    (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 2, 7),
    (5, 5, 6), (5, 5, 7), (5, 6, 7), (5, 7, 7),
]

EASY = AnnealParams(restarts=40, iterations=40_000, stagnation=8_000)
HARD = AnnealParams(restarts=200, iterations=400_000, stagnation=40_000)


def freeze(catalog: Catalog, dims_t: tuple, status: Status, hard: bool) -> bool:
    dims = GridDims(*dims_t)
    if entry_key(dims, status) in catalog.entries:
        print(f"  {dims} {status}: already frozen")
        return True
    exact, ceil = lower_bound(dims)
    target = int(exact) if status is Status.PERFECT else ceil
    params = HARD if hard else EASY
    t0 = time.perf_counter()
    for seed in SEED_LADDER:
        res = find_at_bound(dims, target, rng_seed=seed, params=params)
        if res.mode is SearchMode.HEURISTIC_WITNESS:
            entry = CatalogEntry(
                dims=dims,
                seeds=res.witness,
                status=status,
                provenance="searched-heuristic",
                rng_seed=res.rng_seed,
            ).verify()
            catalog.add(entry)
            catalog.save(CATALOG_PATH)
            dt = time.perf_counter() - t0
            print(f"  {dims} {status}: size {entry.size}, seed {seed}, "
                  f"{res.nodes_explored} sims, {dt:.1f}s")
            return True
        print(f"  {dims} {status}: seed {seed} failed ({res.nodes_explored} sims)")
    print(f"  {dims} {status}: NOT FOUND")
    return False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--only", help="freeze a single grid, e.g. 4x9x9")
    parser.add_argument("--hard", action="store_true", help="use the long schedule")
    parser.add_argument("--status", default="perfect", choices=["perfect", "optimal"])
    args = parser.parse_args()

    catalog = Catalog.load(CATALOG_PATH) if CATALOG_PATH.exists() else Catalog()
    CATALOG_PATH.parent.mkdir(parents=True, exist_ok=True)

    if args.only:
        dims = GridDims.parse(args.only)
        ok = freeze(catalog, dims.as_tuple(), Status.parse(args.status), args.hard)
        return 0 if ok else 1

    failures = []
    print("perfect leaves:")
    for dims_t in PERFECT_LEAVES:
        if not freeze(catalog, dims_t, Status.PERFECT, hard=False):
            failures.append(dims_t)
    print("optimal leaves:")
    for dims_t in OPTIMAL_LEAVES:
        if not freeze(catalog, dims_t, Status.OPTIMAL, hard=False):
            failures.append(dims_t)
    print("hard perfect leaves:")
    for dims_t in HARD_PERFECT_LEAVES:
        if not freeze(catalog, dims_t, Status.PERFECT, hard=True):
            failures.append(dims_t)
    if failures:
        print("FAILED:", failures)
        return 1
    print("catalog complete:", CATALOG_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
