import pytest

from gridperc.bounds import Status, classify, perfect_audit, surface_sum
from gridperc.catalog import CatalogEntry
from gridperc.combine import CombineError, combine, thickness1_entry
from gridperc.engine import percolate
from gridperc.grid import CellSet, GridDims, GridError


def test_thickness1_sizes_and_status():
    for k in range(1, 5):
        entry = thickness1_entry(k)
        m = (1 << k) - 1
        assert entry.dims == GridDims(1, m, m)
        assert entry.size == (4**k - 1) // 3
        assert entry.verified
        result = classify(entry.dims, entry.seeds)
        assert result.status is Status.PERFECT


def test_thickness1_k2_matches_exhaustive_existence():
    # the 126 five-subsets of (1,3,3) contain a percolating one; our generator
    # reproduces a witness of that exact size
    from itertools import combinations

    from gridperc.engine import fixed_point_mask

    dims = GridDims(1, 3, 3)
    full = (1 << 9) - 1
    found = []
    for combo in combinations(range(9), 5):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if fixed_point_mask(dims, 3, mask)[0] == full:
            found.append(mask)
    assert found
    assert thickness1_entry(2).seeds.mask in found


def test_thickness1_audit_is_clean():
    entry = thickness1_entry(3)
    report = perfect_audit(percolate(entry.dims, 3, entry.seeds), entry.seeds)
    assert report.all_pass


def test_combine_466_route(builder):
    p133 = builder.perfect(GridDims(1, 3, 3))
    p333 = builder.perfect(GridDims(3, 3, 3))
    entry = combine(p133, p333, p333, p133)
    assert entry.dims == GridDims(4, 6, 6)
    assert entry.size == 28 == surface_sum(entry.dims) // 3
    assert entry.status is Status.PERFECT
    assert len(entry.children) == 4
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_combine_size_additivity(builder):
    p133 = builder.perfect(GridDims(1, 3, 3))
    p333 = builder.perfect(GridDims(3, 3, 3))
    entry = combine(p133, p333, p333, p133)
    assert entry.size == 2 * p133.size + 2 * p333.size


def test_combine_optimal_origin_part(builder):
    # one optimal corner + three perfect parts combine to an optimal grid
    p344 = builder.optimal(GridDims(3, 4, 4))
    p334 = builder.perfect(GridDims(3, 3, 4))
    p343 = builder.perfect(GridDims(3, 4, 3))
    p333 = builder.perfect(GridDims(3, 3, 3))
    entry = combine(p344, p334, p343, p333)
    assert entry.dims == GridDims(6, 7, 7)
    assert entry.status is Status.OPTIMAL
    assert classify(entry.dims, entry.seeds).status is Status.OPTIMAL


def test_combine_rejects_non_perfect_parts():
    dims = GridDims(1, 1, 4)
    junk = CatalogEntry(dims, CellSet.full(dims), Status.PERCOLATING, "unit-test")
    with pytest.raises(GridError):
        combine(junk, junk, junk, junk)


def test_combine_rejects_dimension_mismatch(builder):
    p133 = builder.perfect(GridDims(1, 3, 3))
    p333 = builder.perfect(GridDims(3, 3, 3))
    with pytest.raises(GridError):
        combine(p133, p333, p133, p333)


def test_combine_failure_is_loud():
    # a fake "perfect" part that cannot actually percolate its octant makes
    # the placement fail and the error carries diagnostics
    dims = GridDims(1, 3, 3)
    dead = CellSet.from_cells(dims, [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2)])
    fake = CatalogEntry(dims, dead, Status.PERFECT, "unit-test")
    with pytest.raises(CombineError) as err:
        combine(fake, fake, fake, fake)
    assert "never infected" in str(err.value)
