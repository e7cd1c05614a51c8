"""Milestones read off the time planes against per-cell references.

``extract_milestones`` reads every region as a bitset against the trace's
time planes and final mask.  ``Region.box``, ``Region.layer`` and
``Region.full`` carry their corners and build the bitset from their rows;
a region given by its predicate alone builds it from the cells the
predicate admits.  Both are held to each other and to a per-cell walk over
the brute-force infection times.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.engine import percolate
from gridperc.grid import CellSet, GridDims
from gridperc.milestones import Region, extract_milestones

from oracle import trace_brute
from test_trace_properties import PROPERTY, seeded_grids

# corners may lie outside a grid of sides <= 5, or cross each other
coords = st.tuples(*(st.integers(0, 6) for _ in range(3)))


@PROPERTY
@given(seeded_grids(max_sides=(5, 5, 5)), st.lists(st.tuples(coords, coords), max_size=4))
def test_box_regions_match_the_predicate_walk(grid, boxes):
    dims, seeds = grid
    trace = percolate(dims, 3, seeds)
    regions = [Region.full(dims)] + [Region.layer(x) for x in range(7)]
    regions += [Region.box(f"box {k}", lo, hi) for k, (lo, hi) in enumerate(boxes)]
    assert all(region.corners is not None for region in regions)
    walked = [Region(region.name, region.predicate) for region in regions]
    assert extract_milestones(trace, regions) == extract_milestones(trace, walked)


def _predicate_regions(x, subset):
    return [
        Region("empty", lambda cell: False),
        Region("parity", lambda cell: sum(cell) % 2 == 0),
        Region("one layer", lambda cell: cell[0] == x),
        Region("subset", subset.__contains__),
    ]


@settings(PROPERTY, max_examples=50)
@given(seeded_grids(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_predicate_regions_match_a_per_cell_walk(grid, x, rng):
    dims, seeds = grid
    regions = _predicate_regions(x, {cell for cell in dims.cells() if rng.random() < 0.3})
    times, _ = trace_brute(dims, 3, set(seeds.cells()))
    want = {}
    for region in regions:
        run = [t for cell, t in zip(dims.cells(), times) if region.predicate(cell)]
        want[region.name] = None if None in run else max(run, default=0)
    trace = percolate(dims, 3, seeds)
    assert {m.region: m.time for m in extract_milestones(trace, regions)} == want


def test_predicate_regions_build_no_per_cell_times():
    dims = GridDims(3, 4, 5)
    trace = percolate(dims, 3, CellSet.from_cells(dims, [(1, 1, 1), (2, 2, 2), (3, 3, 3)]))
    extract_milestones(trace, _predicate_regions(2, {(1, 1, 1), (3, 4, 5)}))
    assert "infection_time" not in trace.__dict__


def _long_traces():
    """A 1x1x300 path from one end at r = 1, times 0..299, and a 1x3x280
    strip at r = 2, its first row and one more cell seeded, whose middle row
    turns one cell per step up to 279 while the third row never turns."""
    path = GridDims(1, 1, 300)
    strip = GridDims(1, 3, 280)
    strip_seeds = [(1, 1, z) for z in range(1, 281)] + [(1, 2, 1)]
    return [
        percolate(path, 1, CellSet(path, 1)),
        percolate(strip, 2, CellSet.from_cells(strip, strip_seeds)),
    ]


LONG_TRACES = _long_traces()


def _box_time_reference(trace, lo, hi):
    times = [
        t for cell, t in zip(trace.dims.cells(), trace.infection_time)
        if all(lo[i] <= cell[i] <= hi[i] for i in range(3))
    ]
    return None if None in times else max(times, default=0)


# corners from one step outside each side of the long traces' grids
long_coords = st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 301))


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(LONG_TRACES), st.lists(st.tuples(long_coords, long_coords), min_size=1, max_size=4))
def test_box_milestones_read_times_past_255_off_the_planes(trace, boxes):
    assert len(trace.time_planes) >= 9
    regions = [Region.box(f"box {k}", lo, hi) for k, (lo, hi) in enumerate(boxes)]
    got = {m.region: m.time for m in extract_milestones(trace, regions)}
    assert got == {f"box {k}": _box_time_reference(trace, lo, hi) for k, (lo, hi) in enumerate(boxes)}
