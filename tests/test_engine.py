import random

import pytest

from gridperc.engine import (
    SimulationTruncated,
    degree_pair_sum,
    fixed_point_mask,
    percolate,
    surface_quantity,
)
from gridperc.grid import CellSet, GridDims

from oracle import fixed_point_brute, pair_sum_brute, step, step_brute, time_of

DIAMOND = [(1, 1, 1), (1, 1, 3), (1, 2, 2), (1, 3, 1), (1, 3, 3)]


def random_sets(max_side=5, count=50, seed=0xBEEF):
    rng = random.Random(seed)
    for _ in range(count):
        dims = GridDims(rng.randint(1, max_side), rng.randint(1, max_side), rng.randint(1, max_side))
        density = rng.uniform(0.05, 0.6)
        cells = [c for c in dims.cells() if rng.random() < density]
        yield dims, CellSet.from_cells(dims, cells)


def test_step_fixed_points():
    dims = GridDims(2, 3, 4)
    full = CellSet.full(dims)
    assert step(dims, 3, full).mask == full.mask
    empty = CellSet.empty(dims)
    assert step(dims, 3, empty).mask == 0


def test_step_diamond_example():
    # each added cell has exactly three seed neighbours
    dims = GridDims(1, 3, 3)
    seeds = CellSet.from_cells(dims, DIAMOND)
    after = step(dims, 3, seeds)
    added = set(after.cells()) - set(seeds.cells())
    assert added == {(1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2)}
    assert step_brute(dims, 3, set(seeds.cells())) == set(after.cells())


def test_step_matches_bruteforce_randomized():
    for dims, seeds in random_sets(count=40):
        got = set(step(dims, 3, seeds).cells())
        want = step_brute(dims, 3, set(seeds.cells()))
        assert got == want, (dims, seeds.cells())


def test_percolate_diamond():
    dims = GridDims(1, 3, 3)
    trace = percolate(dims, 3, CellSet.from_cells(dims, DIAMOND))
    assert trace.percolated
    assert trace.steps_taken == 1


def test_path_never_percolates():
    # max degree 2 < 3: nothing can ever turn
    dims = GridDims(1, 1, 6)
    seeds = CellSet.from_cells(dims, [(1, 1, 1), (1, 1, 3), (1, 1, 5)])
    trace = percolate(dims, 3, seeds)
    assert not trace.percolated
    assert trace.steps_taken == 0


def test_seven_seeds_never_percolate_233():
    rng = random.Random(7)
    dims = GridDims(2, 3, 3)
    cells = list(dims.cells())
    for _ in range(40):
        seeds = CellSet.from_cells(dims, rng.sample(cells, 7))
        assert not percolate(dims, 3, seeds).percolated


def test_trace_times_and_audit_counts():
    dims = GridDims(1, 3, 3)
    seeds = CellSet.from_cells(dims, DIAMOND)
    trace = percolate(dims, 3, seeds)
    for cell in dims.cells():
        t = time_of(trace, cell)
        i = dims.index(cell)
        if cell in seeds:
            assert t == 0
            assert trace.neighbours_at_infection[i] == 0
        else:
            assert t == 1
            assert trace.neighbours_at_infection[i] == 3


def test_time_consistency_randomized():
    # every non-seed infected cell saw >= r strictly earlier neighbours
    from gridperc.grid import neighbours

    for dims, seeds in random_sets(count=25, seed=99):
        trace = percolate(dims, 3, seeds)
        for cell in dims.cells():
            t = time_of(trace, cell)
            if t is None or t == 0:
                continue
            earlier = sum(
                1
                for nb in neighbours(dims, cell)
                if time_of(trace, nb) is not None and time_of(trace, nb) < t
            )
            assert earlier >= 3
            assert trace.neighbours_at_infection[dims.index(cell)] == earlier


def test_truncation_is_loud():
    dims = GridDims(1, 3, 3)
    seeds = CellSet.from_cells(dims, DIAMOND)  # would percolate in one step
    with pytest.raises(SimulationTruncated):
        percolate(dims, 3, seeds, max_steps=0)


# per r, a seed set that needs several steps: a diagonal of a 5x5 layer at
# r = 2, and the cells of 3x3x3 with x + y + z divisible by 3 at r = 3
SLOW_FILLS = {
    2: (GridDims(1, 5, 5), [(1, i, i) for i in range(1, 6)]),
    3: (GridDims(3, 3, 3), [c for c in GridDims(3, 3, 3).cells() if sum(c) % 3 == 0]),
}


@pytest.mark.parametrize("r", sorted(SLOW_FILLS))
def test_fixed_point_truncation_at_max_steps(r):
    dims, cells = SLOW_FILLS[r]
    mask = CellSet.from_cells(dims, cells).mask
    final, steps = fixed_point_mask(dims, r, mask)
    assert steps >= 2
    assert steps == fixed_point_brute(dims, r, set(cells))[1]
    assert fixed_point_mask(dims, r, mask, max_steps=steps) == (final, steps)
    with pytest.raises(SimulationTruncated):
        fixed_point_mask(dims, r, mask, max_steps=steps - 1)


def test_fixed_point_soundness():
    for dims, seeds in random_sets(count=30, seed=4242):
        final, steps = fixed_point_mask(dims, 3, seeds.mask)
        again = step(dims, 3, CellSet(dims, final))
        assert again.mask == final


def test_superset_monotonicity():
    rng = random.Random(31337)
    for dims, seeds in random_sets(count=25, seed=31337):
        extra = [c for c in dims.cells() if rng.random() < 0.1]
        bigger = seeds | CellSet.from_cells(dims, extra)
        fp_small, _ = fixed_point_mask(dims, 3, seeds.mask)
        fp_big, _ = fixed_point_mask(dims, 3, bigger.mask)
        assert fp_small & ~fp_big == 0


def test_degree_pair_sum_closed_form_exhaustive():
    # n(full grid) = 6abc - 2ab - 2ac - 2bc for every side in 1..6
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                dims = GridDims(a, b, c)
                got = degree_pair_sum(dims, CellSet.full(dims))
                assert got == 6 * a * b * c - 2 * (a * b + a * c + b * c)


def test_degree_pair_sum_examples():
    dims = GridDims(1, 1, 5)  # path: 2(c-1)
    assert degree_pair_sum(dims, CellSet.full(dims)) == 8
    singleton = CellSet.from_cells(GridDims(3, 3, 3), [(2, 2, 2)])
    assert degree_pair_sum(GridDims(3, 3, 3), singleton) == 0


def test_degree_pair_sum_matches_bruteforce():
    for dims, seeds in random_sets(count=30, seed=555):
        assert degree_pair_sum(dims, seeds) == pair_sum_brute(dims, set(seeds.cells()))


def test_surface_quantity_values():
    dims = GridDims(2, 3, 4)
    assert surface_quantity(dims, CellSet.full(dims)) == 2 * (6 + 8 + 12)
    assert surface_quantity(dims, CellSet.empty(dims)) == 0
    independent = CellSet.from_cells(dims, [(1, 1, 1), (1, 2, 3), (2, 3, 2)])
    assert surface_quantity(dims, independent) == 18


def test_surface_quantity_monotone_along_process():
    for dims, seeds in random_sets(count=60, seed=2024):
        trace = percolate(dims, 3, seeds)
        values = [surface_quantity(dims, CellSet(dims, m)) for m in trace.frames]
        assert all(x >= y for x, y in zip(values, values[1:])), (dims, values)


def test_bruteforce_fixed_point_agreement():
    for dims, seeds in random_sets(max_side=4, count=15, seed=808):
        got, _ = fixed_point_mask(dims, 3, seeds.mask)
        want, _ = fixed_point_brute(dims, 3, set(seeds.cells()))
        assert set(CellSet(dims, got).cells()) == want


def test_r_parameter_two_dimensional():
    # r=2 on a thickness-1 grid: one full row spreads everywhere
    dims = GridDims(1, 4, 4)
    seeds = CellSet.from_cells(dims, [(1, 1, z) for z in range(1, 5)] + [(1, y, 1) for y in range(2, 5)])
    trace = percolate(dims, 2, seeds)
    assert trace.percolated
