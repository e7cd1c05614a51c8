"""Box regions read as index slices against the per-cell predicate walk.

``Region.box``, ``Region.layer`` and ``Region.full`` carry their corners, and
``extract_milestones`` reads them as slices of the infection times; the same
region given by its predicate alone is walked cell by cell.
"""

from hypothesis import given
from hypothesis import strategies as st

from gridperc.engine import percolate
from gridperc.milestones import Region, extract_milestones

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
