"""The fixed-point kernel and the search layer against the brute-force oracle.

``fixed_point_mask`` counts neighbours with full adders over shifted bitsets
and compares the counts with r bit by bit; ``min_exhaustive`` prunes every
partial set whose union with all later cells does not percolate.  These
tests hold both to ``tests/oracle.py``.
"""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from gridperc.engine import _axis_shifts, _count_planes, count_planes, fixed_point_mask, neighbour_masks
from gridperc.grid import CellSet, GridDims
from gridperc.search import fixed_point_scored, min_exhaustive

from oracle import fixed_point_brute, min_percolating_brute, neighbour_masks_brute, neighbours_brute
from test_trace_properties import PROPERTY, seeded_grids


def _counts(dims, seeds):
    """Per cell, in index order, the number of its neighbours in ``seeds``."""
    cells = set(seeds.cells())
    return [sum(nb in cells for nb in neighbours_brute(dims, cell)) for cell in dims.cells()]


@PROPERTY
@given(seeded_grids(max_sides=(4, 4, 4)), st.integers(0, 8))
def test_fixed_point_matches_brute_for_every_r(grid, r):
    dims, seeds = grid
    got, steps = fixed_point_mask(dims, r, seeds.mask)
    want, want_steps = fixed_point_brute(dims, r, set(seeds.cells()))
    assert set(CellSet(dims, got).cells()) == want
    assert steps == want_steps


@PROPERTY
@given(seeded_grids(max_sides=(4, 4, 4)))
def test_count_planes_are_neighbour_counts(grid):
    dims, seeds = grid
    b0, b1, b2 = _count_planes(seeds.mask, _axis_shifts(dims))
    got = [(b0 >> i & 1) | (b1 >> i & 1) << 1 | (b2 >> i & 1) << 2 for i in range(dims.volume)]
    assert got == _counts(dims, seeds)
    assert count_planes(dims, seeds.mask) == (b0, b1, b2)


def test_length_one_axes_have_empty_shifts():
    sz, zlo, zhi, sy, ylo, yhi, sx, xlo, xhi = _axis_shifts(GridDims(1, 1, 3))
    assert (sy, ylo, yhi) == (sx, xlo, xhi) == (0, 0, 0)
    assert (sz, zlo, zhi) == (1, 0b110, 0b011)
    assert _axis_shifts(GridDims(2, 1, 1)) == (0, 0, 0, 0, 0, 0, 1, 0b11, 0b11)


@PROPERTY
@given(seeded_grids(max_sides=(5, 5, 5)), st.integers(1, 6))
def test_progress_is_saturated_count_over_the_hole(grid, r):
    dims, seeds = grid
    final, uninfected, progress = fixed_point_scored(dims, r, seeds.mask)
    assert final == fixed_point_mask(dims, r, seeds.mask)[0]
    infected = CellSet(dims, final)
    counts = _counts(dims, infected)
    hole = [i for i in range(dims.volume) if not final >> i & 1]
    assert uninfected == len(hole)
    assert progress == sum(min(counts[i], r - 1) for i in hole)


def test_min_exhaustive_equals_brute_minimum_on_volume_up_to_12():
    for r in (2, 3):
        for a in range(1, 13):
            for b in range(a, 13):
                for c in range(b, 13):
                    if a * b * c > 12:
                        continue
                    dims = GridDims(a, b, c)
                    result = min_exhaustive(dims, r=r)
                    assert result.min_size == min_percolating_brute(dims, r), (dims, r)
                    final, _ = fixed_point_brute(dims, r, set(result.witness.cells()))
                    assert len(final) == dims.volume
                    assert len(result.witness) == result.min_size


def test_neighbour_masks_match_the_per_cell_masks():
    for sides in product(range(1, 6), repeat=3):
        dims = GridDims(*sides)
        assert neighbour_masks(dims) == neighbour_masks_brute(dims), dims
