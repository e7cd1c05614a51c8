"""One simulation per classified set, and per-cell values built only when read.

A ``Classification`` reads its status off its trace when the trace is read
first, and off the untraced fixed point otherwise; a ``PercolationTrace``
keeps its infection times as bit planes until ``infection_time`` or
``neighbours_at_infection`` is read.  These tests hold both orders to each other and to
``tests/oracle.py``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridperc.bounds
from gridperc.bounds import classify, perfect_audit
from gridperc.engine import percolate
from gridperc.gridtext import render_trace
from gridperc.milestones import Region, extract_milestones

from oracle import fixed_point_brute, trace_brute
from test_trace_properties import PROPERTY, seeded_grids


def _outcome(result):
    return result.status, result.percolates, result.final, result.steps_taken


def _refuse(*args, **kwargs):
    raise AssertionError("fixed_point_mask called")


@PROPERTY
@given(seeded_grids())
def test_trace_first_never_runs_the_fixed_point(grid):
    dims, seeds = grid
    want = _outcome(classify(dims, seeds))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridperc.bounds, "fixed_point_mask", _refuse)
        result = classify(dims, seeds)
        trace = result.trace
        assert _outcome(result) == want
    assert result.trace is trace


@PROPERTY
@given(seeded_grids(max_sides=(4, 4, 4)), st.integers(1, 6))
def test_trace_first_and_status_first_agree(grid, r):
    dims, seeds = grid
    status_first = classify(dims, seeds, r)
    got = _outcome(status_first)
    trace_first = classify(dims, seeds, r)
    trace = trace_first.trace
    assert _outcome(trace_first) == got
    assert (trace.final_mask, trace.steps_taken) == (got[2].mask, got[3])
    final, steps = fixed_point_brute(dims, r, set(seeds.cells()))
    assert (set(status_first.final.cells()), status_first.steps_taken) == (final, steps)
    assert status_first.percolates == (len(final) == dims.volume)


@PROPERTY
@given(seeded_grids())
def test_neighbour_counts_are_built_only_when_read(grid):
    dims, seeds = grid
    trace = percolate(dims, 3, seeds)
    perfect_audit(trace, seeds)
    render_trace(trace)
    extract_milestones(trace, [Region.full(dims), Region.layer(1)])
    assert "neighbours_at_infection" not in trace.__dict__
    _, counts = trace_brute(dims, 3, set(seeds.cells()))
    assert trace.neighbours_at_infection == counts
    assert trace.neighbours_at_infection is trace.neighbours_at_infection



@PROPERTY
@given(seeded_grids())
def test_verify_path_builds_no_per_cell_tuples(grid):
    dims, seeds = grid
    trace = percolate(dims, 3, seeds)
    perfect_audit(trace, seeds)
    render_trace(trace)
    assert "infection_time" not in trace.__dict__
    assert "neighbours_at_infection" not in trace.__dict__
    extract_milestones(trace, [Region.full(dims), Region.layer(1)])
    assert "infection_time" not in trace.__dict__
    times, _ = trace_brute(dims, 3, set(seeds.cells()))
    assert trace.infection_time == times
