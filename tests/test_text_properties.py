"""Seed text round trips, the '0'/'1' cell text behind them, rendered traces
against a per-cell reference, and the surface quantity along a traced run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.engine import percolate, surface_quantity
from gridperc.grid import CellSet, GridDims, mask_indices, mask_text, text_mask, text_rows
from gridperc.gridtext import parse_set, render_trace, strip_times, write_set

from oracle import render_brute, strip_times_brute, trace_brute
from test_trace_properties import seeded_grids

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
@given(seeded_grids(), st.integers(1, 6))
def test_render_matches_per_cell_reference(grid, r):
    dims, seeds = grid
    times, _ = trace_brute(dims, r, set(seeds.cells()))
    assert render_trace(percolate(dims, r, seeds)) == render_brute(dims, times)


@pytest.mark.parametrize(
    "sides, r, seeds, times",
    [
        # cell z of a path seeded at z = 1 turns at step z - 1: times cross
        # 36, 64 and 256, nine time planes
        ((1, 1, 300), 1, [(1, 1, 1)], tuple(range(300))),
        ((1, 1, 40), 1, [(1, 1, 1)], tuple(range(40))),
        # row 1 seeded and row 2 from one end: row 2 turns one cell a step,
        # row 3 never has two infected neighbours
        ((1, 3, 300), 2, [(1, 1, z) for z in range(1, 301)] + [(1, 2, 1)],
         (0,) * 300 + tuple(range(300)) + (None,) * 300),
        # r = 2 from one end of a path: nothing turns
        ((1, 1, 300), 2, [(1, 1, 1)], (0,) + (None,) * 299),
    ],
)
def test_render_long_runs_match_per_cell_reference(sides, r, seeds, times):
    dims = GridDims(*sides)
    trace = percolate(dims, r, CellSet.from_cells(dims, seeds))
    assert trace.infection_time == times
    assert render_trace(trace) == render_brute(dims, times)


TEXT_PIECES = ["X", ".", "+", "#", "1", "z", "?", "\u00e9", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\u2028"]


@PROPERTY
@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=80).map("".join))
def test_strip_times_matches_per_character_reference(text):
    assert strip_times(text) == strip_times_brute(text)


@PROPERTY
@given(random_sets())
def test_surface_quantity_never_increases(seeds):
    dims = seeds.dims
    values = [surface_quantity(dims, CellSet(dims, m)) for m in percolate(dims, 3, seeds).frames]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
