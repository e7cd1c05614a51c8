"""Seed text round trips, and the surface quantity along a traced run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.engine import percolate, surface_quantity
from gridperc.grid import CellSet, GridDims
from gridperc.gridtext import parse_set, render_trace, strip_times, write_set

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def random_sets(draw, max_side=5):
    dims = GridDims(*(draw(st.integers(1, max_side)) for _ in range(3)))
    return CellSet(dims, draw(st.integers(0, (1 << dims.volume) - 1)))


@PROPERTY
@given(random_sets())
def test_parse_inverts_write(cset):
    assert parse_set(write_set(cset)) == (cset.dims, cset)


@PROPERTY
@given(random_sets(), st.integers(1, 6))
def test_stripping_times_recovers_the_seed_text(seeds, r):
    trace = percolate(seeds.dims, r, seeds)
    assert strip_times(render_trace(trace)) == write_set(seeds)


@PROPERTY
@given(random_sets())
def test_surface_quantity_never_increases(seeds):
    dims = seeds.dims
    values = [surface_quantity(dims, CellSet(dims, m)) for m in percolate(dims, 3, seeds).frames]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
