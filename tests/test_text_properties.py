"""Seed text round trips, the '0'/'1' cell text behind them, and the surface
quantity along a traced run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.engine import percolate, surface_quantity
from gridperc.grid import CellSet, GridDims, mask_indices, mask_text, text_mask, text_rows
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
@given(random_sets())
def test_mask_text_is_one_character_per_cell(cset):
    text = mask_text(cset.mask, cset.dims.volume)
    assert len(text) == cset.dims.volume
    assert text_mask(text) == cset.mask
    assert [i for i, ch in enumerate(text) if ch == "1"] == mask_indices(cset.mask)


@PROPERTY
@given(st.text("01"), st.integers(1, 12))
def test_text_rows_join_back(text, width):
    rows = text_rows(text, width)
    assert "".join(rows) == text
    assert all(len(row) == width for row in rows[:-1])


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
