#!/usr/bin/env python3
"""Regenerate the frozen family pattern store (src/gridperc/data/families.txt).

Runs pattern discovery for each periodic family and freezes the results.
Idempotent and resumable; every discovered pattern has already been validated
on seven instances by discover_family itself.

Usage: python scripts/build_families.py [--only FAMILY_ID]
"""

import argparse
import sys
import time
from pathlib import Path

from gridperc.families import (
    DiscoveryParams,
    assemble_family,
    discover_family,
    load_patterns,
    save_patterns,
)
from gridperc.search import SearchError

STORE_PATH = Path(__file__).resolve().parent.parent / "src" / "gridperc" / "data" / "families.txt"

SEED_LADDER = list(range(1, 7))

# The families to discover, by id: (a, b, residue mod 6, minimum c).
FAMILIES = {
    "2x5": (2, 5, 5, 5),
    "2x6": (2, 6, 0, 6),
    "2x8": (2, 8, 2, 8),
    "4x4c1": (4, 4, 1, 7),
    "4x4c4": (4, 4, 4, 10),
    "4x7c1": (4, 7, 1, 7),
    "4x7c4": (4, 7, 4, 10),
}


def freeze(patterns: dict, fid: str) -> bool:
    if fid in patterns:
        print(f"  {fid}: already frozen")
        return True
    a, b, residue, min_c = FAMILIES[fid]
    t0 = time.perf_counter()
    for seed in SEED_LADDER:
        try:
            pattern = discover_family(
                a, b, residue, min_c, rng_seed=seed, family_id=fid,
                params=DiscoveryParams(restarts=10, iterations=150_000, stagnation=25_000),
            )
        except SearchError as exc:
            print(f"  {fid}: seed {seed} failed ({exc})")
            continue
        # freeze only after an independent assembly check on the acceptance range
        for k in range(4):
            assemble_family(pattern, min_c + 6 * k)
        patterns[fid] = pattern
        save_patterns(patterns, STORE_PATH)
        print(f"  {fid}: seam {pattern.left.dims.c}, seed {seed}, "
              f"{time.perf_counter() - t0:.1f}s")
        return True
    print(f"  {fid}: NOT FOUND")
    return False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--only", help="discover a single family id, e.g. 4x7c1")
    args = parser.parse_args()

    patterns = load_patterns(STORE_PATH) if STORE_PATH.exists() else {}
    STORE_PATH.parent.mkdir(parents=True, exist_ok=True)

    ids = [args.only] if args.only else list(FAMILIES)
    failures = [fid for fid in ids if not freeze(patterns, fid)]
    if failures:
        print("FAILED:", failures)
        return 1
    print("pattern store complete:", STORE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
