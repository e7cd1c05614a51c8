"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Perfect witnesses produced by the construction criteria are collected
and re-audited wholesale by criterion 8.
"""

import random
import subprocess
import sys
import time

import pytest

from gridperc.bounds import Status, classify, lower_bound, perfect_audit, surface_sum
from gridperc.catalog import builtin_catalog
from gridperc.combine import combine, thickness1_entry
from gridperc.engine import degree_pair_sum, percolate, surface_quantity
from gridperc.families import (
    DiscoveryParams,
    assemble_family,
    builtin_patterns,
    discover_family,
)
from gridperc.grid import CellSet, GridDims
from gridperc.gridtext import parse_set, write_set
from gridperc.pipelines import Builder, DependencyError
from gridperc.search import min_22c, min_exhaustive
from oracle import FAMILY_SPECS

# Perfect witnesses produced while the suite runs; criterion 8 audits them.
PERFECT_WITNESSES: list[tuple[GridDims, CellSet]] = []


def _report(number: int, description: str):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.perf_counter() - self.t0
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number}: {verdict} ({dt:.1f}s) - {description}")
            return False

    return _Ctx()


def _note_perfect(dims: GridDims, seeds: CellSet) -> None:
    PERFECT_WITNESSES.append((dims, seeds))


def test_criterion_1_pair_sum_closed_form():
    with _report(1, "n(full grid) = 6abc-2ab-2ac-2bc for all sides in 1..6"):
        for a in range(1, 7):
            for b in range(1, 7):
                for c in range(1, 7):
                    dims = GridDims(a, b, c)
                    expected = 6 * a * b * c - 2 * (a * b + a * c + b * c)
                    assert degree_pair_sum(dims, CellSet.full(dims)) == expected


def test_criterion_2_monotone_surface_quantity():
    with _report(2, "surface quantity never increases over 1000 random simulations"):
        rng = random.Random(0xACCE)
        runs = 0
        while runs < 1000:
            dims = GridDims(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5))
            cells = [cell for cell in dims.cells() if rng.random() < rng.uniform(0.05, 0.7)]
            seeds = CellSet.from_cells(dims, cells)
            trace = percolate(dims, 3, seeds)
            values = [surface_quantity(dims, CellSet(dims, m)) for m in trace.frames]
            assert all(x >= y for x, y in zip(values, values[1:])), (dims, cells)
            runs += 1


def test_criterion_3_oracle_values():
    with _report(3, "exhaustive minima: (2,3,3)->8, (1,3,3)->5, (3,3,3)->9, "
                    "(2,2,c)->min_22c(c) = 4, 6, 7, 8 for c in 2..5"):
        mismatches = []
        for dims_t, expected in [((2, 3, 3), 8), ((1, 3, 3), 5), ((3, 3, 3), 9)]:
            got = min_exhaustive(GridDims(*dims_t)).min_size
            if got != expected:
                mismatches.append((dims_t, got, expected))
        for c in (2, 3, 4, 5):
            got = min_exhaustive(GridDims(2, 2, c)).min_size
            expected = min_22c(c)
            if got != expected:
                mismatches.append(((2, 2, c), got, expected))
        assert not mismatches, f"(dims, exhaustive, expected): {mismatches}"


def test_criterion_4_combiner_466(builder):
    with _report(4, "combine((1,3,3),(3,3,3),(3,3,3),(1,3,3)) -> Perfect (4,6,6) of size 28"):
        p133 = builder.perfect(GridDims(1, 3, 3))
        p333 = builder.perfect(GridDims(3, 3, 3))
        entry = combine(p133, p333, p333, p133)
        assert entry.dims == GridDims(4, 6, 6)
        assert entry.size == 28
        result = classify(entry.dims, entry.seeds)
        assert result.status is Status.PERFECT
        _note_perfect(entry.dims, entry.seeds)


def test_criterion_5_families():
    with _report(5, "periodic families: four smallest instances per family, "
                    "exact bound sizes, plus one live discovery"):
        patterns = builtin_patterns()
        for fid, (a, b, residue, min_c) in sorted(FAMILY_SPECS.items()):
            for k in range(4):
                c = min_c + 6 * k
                entry = assemble_family(patterns[fid], c)
                assert entry.dims == GridDims(a, b, c)
                assert 3 * entry.size == surface_sum(entry.dims)
                assert classify(entry.dims, entry.seeds).status is Status.PERFECT
                _note_perfect(entry.dims, entry.seeds)
        # the discovery path itself, on the smallest family
        live = discover_family(2, 5, 5, 5, rng_seed=1, family_id="2x5",
                               params=DiscoveryParams())
        for c in (5, 11, 17):
            entry = assemble_family(live, c)
            assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_criterion_6_perfect_thickness4_sweep(builder):
    with _report(6, "thickness-4 pipeline sweep: (4,b,c) perfect for all "
                    "4 <= b <= c <= 16 with b ≡ c ≡ 0 or 1 (mod 3)"):
        count = 0
        for b in range(4, 17):
            for c in range(b, 17):
                if b % 3 != c % 3 or b % 3 not in (0, 1):
                    continue
                entry = builder.build_perfect_4(b, c)
                assert entry.dims == GridDims(4, b, c)
                assert 3 * entry.size == surface_sum(entry.dims)
                assert classify(entry.dims, entry.seeds).status is Status.PERFECT
                _note_perfect(entry.dims, entry.seeds)
                count += 1
        assert count == 25


def test_criterion_7_optimal_samples(builder):
    with _report(7, "optimal pipeline: (7,7,11)=68, (7,7,17), (8,9,10), "
                    "(9,10,11), (10,10,10) at the ceiling"):
        samples = [(7, 7, 11), (7, 7, 17), (8, 9, 10), (9, 10, 11), (10, 10, 10)]
        gaps = []
        for dims_t in samples:
            dims = GridDims(*dims_t)
            try:
                entry = builder.build_optimal(*dims_t)
            except DependencyError as exc:
                # an unreachable ingredient must be named exactly, never silent
                assert str(exc.dims) in str(exc)
                gaps.append((dims_t, str(exc)))
                continue
            result = classify(entry.dims, entry.seeds)
            assert result.percolates
            assert result.status >= Status.OPTIMAL
            assert entry.size == lower_bound(dims)[1]
            if result.status is Status.PERFECT:
                _note_perfect(entry.dims, entry.seeds)
        assert (7, 7, 11) not in [g[0] for g in gaps]
        assert not gaps, f"documented ingredient gaps: {gaps}"


def test_criterion_8_perfect_audit_equivalence(builder):
    with _report(8, "every perfect witness produced in this suite passes the "
                    "independence / exactly-3 / no-simultaneous-adjacent audit"):
        pool = list(PERFECT_WITNESSES)
        for entry in builtin_catalog().entries.values():
            if entry.status is Status.PERFECT:
                pool.append((entry.dims, entry.seeds))
        for k in range(1, 5):
            entry = thickness1_entry(k)
            pool.append((entry.dims, entry.seeds))
        assert len(pool) > 60
        violations = []
        for dims, seeds in pool:
            trace = percolate(dims, 3, seeds)
            report = perfect_audit(trace, seeds)
            if not (trace.percolated and report.all_pass):
                violations.append(dims)
        assert not violations, f"audit violations: {violations}"


def test_criterion_9_roundtrip_and_determinism():
    with _report(9, "200 parse/write round-trips and byte-identical CLI reruns"):
        rng = random.Random(1234)
        for _ in range(200):
            dims = GridDims(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
            cells = [cell for cell in dims.cells() if rng.random() < rng.uniform(0, 0.8)]
            cset = CellSet.from_cells(dims, cells)
            parsed_dims, parsed = parse_set(write_set(cset))
            assert parsed_dims == dims and parsed.mask == cset.mask
        cmd = [
            sys.executable, "-m", "gridperc.cli", "--machine",
            "search", "atbound", "3", "3", "3", "--rng-seed", "4",
        ]
        first = subprocess.run(cmd, capture_output=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, timeout=120)
        assert first.returncode == 0
        assert first.stdout == second.stdout
