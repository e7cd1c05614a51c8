"""``percolate`` steps a narrow front cell by cell and a wide one as a bitset.

Every trace field, the derived counts, same-step masks and excess included,
must equal ``oracle.percolate_bitset``, which takes every step over the
whole grid, and the same-step masks must equal ``oracle.same_step_masks``,
the eager pass over the reference's time planes.
The inputs are chosen to enter the cell-by-cell mode: the thickness-1
doubling, whose fronts shrink to four cells, single seeds whose fronts widen
past the mode's limit, and corridors where one cell turns per step at each
r from 1 to 5.  A recorder on ``engine._cell_steps`` checks that each input
really entered the mode.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridperc.engine
from gridperc.combine import thickness1_entry
from gridperc.engine import SimulationTruncated, percolate
from gridperc.grid import CellSet, GridDims, neighbours

from oracle import percolate_bitset, same_step_masks
from test_trace_properties import PROPERTY, seeded_grids

FIELDS = (
    "r", "seeds", "percolated", "steps_taken", "final_mask", "time_planes", "adjacent_masks",
    "count_planes", "excess_mask",
)


@pytest.fixture
def phases(monkeypatch):
    """Per cell-by-cell run, the widths of the fronts it returned; empty for
    a run that returned none or raised."""
    runs = []
    inner = gridperc.engine._cell_steps

    def record(*args):
        runs.append([])
        fronts = inner(*args)
        runs[-1] = [len(front) for front in fronts]
        return fronts

    monkeypatch.setattr(gridperc.engine, "_cell_steps", record)
    return runs


def assert_matches_reference(dims, r, seeds, max_steps=None):
    got = percolate(dims, r, seeds, max_steps)
    want = percolate_bitset(dims, r, seeds, max_steps)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.adjacent_masks == same_step_masks(want)
    return got


def corridor(a: int, b: int) -> tuple[GridDims, CellSet]:
    """An a x b x c grid of just over 4096 cells, seeded everywhere but one
    line along z, whose first cell is seeded.  Each cell of the line has
    s = 0, 1, 2, 3 or 4 seeded side neighbours for an a x b cross section of
    1x1, 1x2, 1x3, 2x3 or 3x3, so at r = s + 1 the line turns one cell per
    step, at a smaller r all at once, and at a larger r never."""
    dims = GridDims(a, b, 4200 // (a * b))
    x, y = (a + 1) // 2, (b + 1) // 2
    line = sum(1 << dims.index((x, y, z)) for z in range(2, dims.c + 1))
    return dims, CellSet(dims, ((1 << dims.volume) - 1) ^ line)


def test_doubling_and_its_perturbations_match_the_bitset_steps(phases):
    seeds = thickness1_entry(8).seeds
    dims = seeds.dims
    rng = random.Random(8)
    for flip in [None] + [rng.randrange(dims.volume) for _ in range(3)]:
        mask = seeds.mask if flip is None else seeds.mask ^ 1 << flip
        phases.clear()
        assert_matches_reference(dims, 3, CellSet(dims, mask))
        assert phases and sum(map(sum, phases)) > 0
    assert percolate(dims, 3, seeds).percolated


@pytest.mark.parametrize("sides", [(1, 127, 127), (4, 40, 40)])
@pytest.mark.parametrize("r", range(-1, 10))
def test_single_seeds_match_the_bitset_steps(phases, sides, r):
    # a corner, the centre, and a cell on each side of each edge test the
    # cell-by-cell step makes for a neighbour
    a, b, c = sides
    cells = {(1, 1, 1), ((a + 1) // 2, (b + 1) // 2, (c + 1) // 2), (1, 2, 1), (min(a, 2), 1, 1),
             (1, 1, c), (1, b, 1), (a, 1, 1)}
    dims = GridDims(*sides)
    for cell in sorted(cells):
        phases.clear()
        trace = assert_matches_reference(dims, r, CellSet.from_cells(dims, [cell]))
        if r <= 0:
            assert trace.steps_taken == 1 and not phases  # every cell turns at once
        elif r == 1:
            # narrow, then wide
            assert trace.percolated and phases[0][-1] > dims.volume >> gridperc.engine._NARROW_SHIFT
        else:
            assert trace.steps_taken == 0 and phases == [[]]


@pytest.mark.parametrize("section", [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)])
def test_corridors_match_the_bitset_steps_for_every_r(phases, section):
    dims, seeds = corridor(*section)
    chain = {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 3): 4, (3, 3): 5}[section]
    for r in range(1, 7):
        phases.clear()
        trace = assert_matches_reference(dims, r, seeds)
        assert trace.steps_taken == (dims.c - 1 if r == chain else r < chain)
        if r == chain:
            assert len(phases) == 1 and sum(phases[0]) > dims.c - 64


@pytest.mark.parametrize("max_steps", [0, 31, 32, 200, 464, 465])
def test_max_steps_inside_the_cell_steps(phases, max_steps):
    dims, seeds = corridor(3, 3)  # 465 steps at r = 5, all but the first 31 cell by cell
    assert dims.c == 466
    if max_steps < 465:
        with pytest.raises(SimulationTruncated) as got:
            percolate(dims, 5, seeds, max_steps)
        with pytest.raises(SimulationTruncated) as want:
            percolate_bitset(dims, 5, seeds, max_steps)
        assert str(got.value) == str(want.value)
    else:
        assert_matches_reference(dims, 5, seeds, max_steps)
    assert bool(phases) == (max_steps >= 32)


@pytest.mark.parametrize("r", range(1, 7))
def test_counts_add_up_over_one_step(phases, r):
    # r seeds around one cell: its count reaches r only after the last of
    # them adds one, within the first step
    dims = GridDims(3, 100, 100)
    centre = (2, 50, 50)
    seeds = CellSet.from_cells(dims, neighbours(dims, centre)[:r])
    trace = assert_matches_reference(dims, r, seeds)
    assert trace.infection_time[dims.index(centre)] == 1
    assert phases and phases[0][0] >= 1


@settings(PROPERTY, max_examples=50)
@given(seeded_grids(), st.integers(1, 4))
def test_same_step_masks_match_the_eager_pass(grid, r):
    dims, seeds = grid
    trace = percolate(dims, r, seeds)
    assert trace.adjacent_masks == same_step_masks(trace)
