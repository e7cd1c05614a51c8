"""The traced engine against the brute-force oracle, and laziness of traces.

``percolate`` reads infection times, counts and audit masks off bit planes;
these tests hold it to ``tests/oracle.py``, which counts neighbours per cell
on explicit coordinates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridperc.bounds
from gridperc.bounds import classify, perfect_audit
from gridperc.catalog import builtin_catalog
from gridperc.combine import combine
from gridperc.engine import _cell_values, percolate
from gridperc.families import assemble_family, builtin_patterns
from gridperc.grid import CellSet, GridDims, embed, mask_indices
from gridperc.pipelines import Builder

from oracle import audit_lists_brute, from_indices, step_brute, trace_brute

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def seeded_grids(draw, max_sides=(4, 4, 5)):
    dims = GridDims(*(draw(st.integers(1, side)) for side in max_sides))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0.05, 0.8))
    return dims, from_indices(dims, (i for i in range(dims.volume) if rng.random() < density))


@PROPERTY
@given(seeded_grids(), st.integers(1, 6))
def test_percolate_matches_trace_brute(grid, r):
    dims, seeds = grid
    trace = percolate(dims, r, seeds)
    times, counts = trace_brute(dims, r, set(seeds.cells()))
    assert trace.infection_time == times
    assert trace.neighbours_at_infection == counts
    assert trace.steps_taken == max((t for t in times if t is not None), default=0)
    assert trace.percolated == (None not in times)


@PROPERTY
@given(seeded_grids())
def test_frames_are_the_stepwise_masks(grid):
    dims, seeds = grid
    trace = percolate(dims, 3, seeds)
    current = set(seeds.cells())
    for frame in trace.frames:
        assert set(CellSet(dims, frame).cells()) == current
        current = step_brute(dims, 3, current)
    assert len(trace.frames) == trace.steps_taken + 1
    assert trace.frames[-1] == trace.final.mask


def _audit_matches_reference(dims, seeds):
    trace = percolate(dims, 3, seeds)
    report = perfect_audit(trace, seeds)
    excess, pairs = audit_lists_brute(dims, *trace_brute(dims, 3, set(seeds.cells())))
    assert list(report.excess_infections) == excess
    assert list(report.adjacent_same_step) == pairs
    assert report.all_exactly_three == (not excess)
    assert report.no_adjacent_simultaneous == (not pairs)
    return report


@PROPERTY
@given(seeded_grids())
def test_audit_lists_match_per_cell_reference(grid):
    _audit_matches_reference(*grid)


def test_audit_matches_reference_on_passing_sets():
    passing = 0
    for entry in builtin_catalog().entries.values():
        if entry.dims.volume <= 64:
            passing += _audit_matches_reference(entry.dims, entry.seeds).all_pass
    assert passing > 0


def test_long_runs_use_wide_time_lanes():
    # r = 1 from one end of a path: cell z turns at step z - 1, past one byte
    dims = GridDims(1, 1, 300)
    trace = percolate(dims, 1, CellSet(dims, 1))
    assert trace.infection_time == tuple(range(300))
    assert trace.neighbours_at_infection == (0,) + (1,) * 299
    assert trace.adjacent_masks == ((1, 0),)


@pytest.mark.parametrize("bits", [3, 8, 9, 16, 17])
def test_cell_values_every_lane_width(bits):
    rng = random.Random(bits)
    values = [rng.randrange(1 << bits) for _ in range(37)]
    planes = [sum(1 << i for i, v in enumerate(values) if v >> k & 1) for k in range(bits)]
    assert _cell_values(planes, len(values)) == values


@PROPERTY
@given(st.integers(0, 1 << 600))
def test_mask_indices_lists_set_bits(mask):
    assert mask_indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@PROPERTY
@given(seeded_grids(), st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
def test_embed_matches_shifted_cells(grid, offset):
    sub, cset = grid
    target = GridDims(*(side + off + 1 for side, off in zip(sub.as_tuple(), offset)))
    shifted = [tuple(v + off for v, off in zip(cell, offset)) for cell in cset.cells()]
    assert embed(cset, target, offset) == CellSet.from_cells(target, shifted)


def test_status_callers_never_trace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("percolate called")

    monkeypatch.setattr(gridperc.bounds, "percolate", refuse)
    builder = Builder()
    p1 = builder.optimal(GridDims(3, 4, 4)).verify()
    perfect = [builder.perfect(GridDims(*d)).verify() for d in ((3, 3, 4), (3, 4, 3), (3, 3, 3))]
    entry = combine(p1, *perfect)
    family = assemble_family(builtin_patterns()["2x5"], 17)
    result = classify(entry.dims, entry.seeds)
    assert result.status >= p1.status
    assert family.verified
    monkeypatch.undo()
    trace = result.trace
    assert trace.percolated and trace.steps_taken == result.steps_taken
    assert result.trace is trace
