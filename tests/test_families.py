from importlib import resources

import pytest

from gridperc.bounds import Status, classify, perfect_audit, surface_sum
from gridperc.engine import percolate
from gridperc.families import (
    FamilyError,
    FamilyPattern,
    assemble_family,
    builtin_patterns,
    discover_family,
    parse_patterns,
    write_patterns,
)
from gridperc.grid import CellSet, GridDims
from gridperc.gridtext import ParseError
from gridperc.search import SearchError
from oracle import FAMILY_SPECS


@pytest.fixture(scope="module")
def patterns():
    return builtin_patterns()


def test_store_covers_all_families(patterns):
    assert set(patterns) == set(FAMILY_SPECS)


def test_block_cell_count_invariant(patterns):
    for fid, pattern in patterns.items():
        assert len(pattern.block) == 2 * (pattern.a + pattern.b)
        assert pattern.block.dims.c == 6


def test_bad_block_count_rejected():
    a, b = 2, 5
    left = CellSet.from_cells(GridDims(a, b, 1), [(1, 1, 1)])
    right = CellSet.empty(GridDims(a, b, 4))
    block = CellSet.from_cells(GridDims(a, b, 6), [(1, 1, 1)])  # 1 cell, needs 14
    with pytest.raises(FamilyError):
        FamilyPattern("2x5", a, b, 5, 5, left, block, right)


def test_duplicate_pattern_rejected(patterns):
    # 1 header, 2 blank, 3 the first record; the copy starts after it
    record = write_patterns([patterns["2x5"]])
    second = record.count("\n") + 2
    with pytest.raises(ParseError) as err:
        parse_patterns(record + record.partition("\n")[2])
    assert "duplicate pattern '2x5'" in str(err.value)
    assert str(err.value).endswith(f"(line {second})")


def test_per_period_increment_matches_bound():
    # inserting one 6-column block keeps the assembly exactly at the bound:
    # bound(c+6) - bound(c) = 2(a+b) = block size, symbolically for all (a,b)
    for fid, (a, b, _, _) in FAMILY_SPECS.items():
        for c in range(3, 40):
            d1 = surface_sum(GridDims(a, b, c + 6)) - surface_sum(GridDims(a, b, c))
            assert d1 == 6 * (a + b) == 3 * (2 * (a + b))


def test_assembly_sizes_and_status(patterns):
    for fid, (a, b, residue, min_c) in FAMILY_SPECS.items():
        for k in (0, 1, 2):
            c = min_c + 6 * k
            entry = assemble_family(patterns[fid], c)
            assert entry.dims == GridDims(a, b, c)
            assert 3 * entry.size == surface_sum(entry.dims)
            assert entry.status is Status.PERFECT


def test_assembly_is_audit_clean(patterns):
    entry = assemble_family(patterns["2x6"], 18)
    report = perfect_audit(percolate(entry.dims, 3, entry.seeds), entry.seeds)
    assert report.all_pass


def test_inadmissible_c_rejected(patterns):
    with pytest.raises(FamilyError):
        assemble_family(patterns["2x5"], 6)   # wrong residue
    with pytest.raises(FamilyError):
        assemble_family(patterns["4x4c4"], 4)  # below the minimum


def test_pattern_store_roundtrip(patterns):
    text = write_patterns(list(patterns.values()))
    back = parse_patterns(text)
    assert set(back) == set(patterns)
    for fid in patterns:
        assert back[fid] == patterns[fid]


def test_minimal_instance_has_no_blocks(patterns):
    pattern = patterns["2x5"]
    minimal = pattern.seed_set(pattern.min_c)
    boundary_only = pattern.left.dims.c + pattern.right.dims.c
    assert minimal.dims.c == boundary_only == pattern.min_c


def test_committed_pattern_store_round_trips_byte_for_byte():
    data = resources.files("gridperc.data").joinpath("families.txt").read_bytes()
    text = data.decode("utf-8")
    assert write_patterns(list(parse_patterns(text).values())).encode("utf-8") == data


@pytest.mark.parametrize("rng_seed,uninfected", [(1, 6), (2, 7)])
def test_budgeted_discovery_stream_is_pinned(rng_seed, uninfected):
    with pytest.raises(SearchError, match=rf"best so far: {uninfected} uninfected\)"):
        discover_family(2, 5, 5, 5, rng_seed=rng_seed, node_budget=1000)
