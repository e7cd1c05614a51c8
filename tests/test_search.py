import random

import pytest

import gridperc.search
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.bounds import Status, classify, lower_bound
from gridperc.engine import edge_count_mask, neighbour_masks
from gridperc.grid import CellSet, GridDims, automorphisms, mask_indices, orient_set
from gridperc.search import (
    AnnealParams,
    SearchError,
    SearchMode,
    find_at_bound,
    greedy_fill,
    min_22c,
    min_exhaustive,
    random_bit,
)

from oracle import independent_fill_brute

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@pytest.mark.parametrize(
    "dims,expected",
    [
        ((1, 1, 4), 4),   # no cell has three neighbours: all cells needed
        ((2, 2, 2), 4),
        ((1, 3, 3), 5),
        ((2, 2, 3), 6),
        ((2, 3, 3), 8),
        ((3, 3, 3), 9),
    ],
)
def test_min_exhaustive_values(dims, expected):
    result = min_exhaustive(GridDims(*dims))
    assert result.mode is SearchMode.EXHAUSTIVE_PROVEN
    assert result.min_size == expected
    check = classify(GridDims(*dims), result.witness)
    assert check.percolates


def test_min_exhaustive_respects_bound_all_tiny_grids():
    # oracle consistency for every grid of volume <= 24
    for a in range(1, 25):
        for b in range(a, 25):
            for c in range(b, 25):
                if a * b * c > 24:
                    continue
                dims = GridDims(a, b, c)
                result = min_exhaustive(dims)
                assert result.mode is SearchMode.EXHAUSTIVE_PROVEN
                assert result.min_size >= lower_bound(dims)[1], dims


def test_min_exhaustive_cell_cap():
    with pytest.raises(SearchError):
        min_exhaustive(GridDims(4, 4, 4))


def test_min_exhaustive_budget():
    result = min_exhaustive(GridDims(3, 3, 3), node_budget=10)
    assert result.mode is SearchMode.FAILED
    assert result.witness is None


def test_min_22c_formula():
    assert [min_22c(c) for c in (2, 3, 4, 5, 8)] == [4, 6, 7, 8, 13]
    for c in range(1, 1001):
        assert min_22c(c) >= lower_bound(GridDims(2, 2, c))[1], c
    with pytest.raises(SearchError):
        min_22c(0)


def test_min_22c_against_exhaustive():
    # c = 7 is the largest (2,2,c) within the exhaustive cell cap
    for c in range(1, 8):
        assert min_exhaustive(GridDims(2, 2, c)).min_size == min_22c(c), c


def test_find_at_bound_perfect_333():
    dims = GridDims(3, 3, 3)
    result = find_at_bound(dims, 9, rng_seed=1)
    assert result.mode is SearchMode.HEURISTIC_WITNESS
    assert classify(dims, result.witness).status is Status.PERFECT


def test_find_at_bound_optimal_344():
    dims = GridDims(3, 4, 4)
    result = find_at_bound(dims, 14, rng_seed=1)
    assert result.found
    assert classify(dims, result.witness).status is Status.OPTIMAL


def test_find_at_bound_target_below_bound_rejected():
    with pytest.raises(SearchError):
        find_at_bound(GridDims(3, 3, 3), 8, rng_seed=1)


def test_find_at_bound_deterministic():
    dims = GridDims(2, 3, 6)
    a = find_at_bound(dims, 12, rng_seed=77)
    b = find_at_bound(dims, 12, rng_seed=77)
    assert a == b
    c = find_at_bound(dims, 12, rng_seed=78)
    assert c.found  # different stream, still a witness


def test_find_at_bound_budget():
    result = find_at_bound(GridDims(2, 5, 5), 15, rng_seed=5, node_budget=3)
    assert result.mode is SearchMode.FAILED
    assert result.nodes_explored <= 3


def test_find_at_bound_simulates_through_the_traced_name(monkeypatch):
    # a tracer wraps the name the search module binds; every node is one call
    calls = 0
    original = gridperc.search.fixed_point_mask

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gridperc.search, "fixed_point_mask", counted)
    result = find_at_bound(GridDims(4, 4, 5), 19, rng_seed=2, node_budget=300)
    assert result.mode is SearchMode.FAILED and result.nodes_explored == 300
    assert calls == result.nodes_explored


def test_automorphisms_preserve_percolation():
    # soundness of symmetry pruning: images of a percolating set percolate
    dims = GridDims(2, 3, 3)
    witness = min_exhaustive(dims).witness
    for g in automorphisms(dims):
        image = orient_set(witness, g)
        assert classify(image.dims, image).percolates


@pytest.mark.parametrize(
    "rng_seed,nodes,mask",
    [(0, 8, 71615756), (1, 130, 71615756), (2, 36, 89134241), (3, 939, 42341460)],
)
def test_find_at_bound_seeded_stream_is_pinned(rng_seed, nodes, mask):
    # seeded witnesses, and the frozen stores' rng-seed provenance, rest on
    # this stream: any change to the draws or to the acceptance test shows here
    result = find_at_bound(GridDims(3, 3, 3), 9, rng_seed=rng_seed, node_budget=1000)
    assert result.mode is SearchMode.HEURISTIC_WITNESS
    assert (result.nodes_explored, result.witness.mask) == (nodes, mask)


def _random_bit_masks():
    rng = random.Random(17)
    yield 1
    yield 1 << 200  # a single bit, and it is the top one
    yield (1 << 64) - 1  # dense
    yield (1 << 729) - 1
    for n in (7, 64, 729, 4096):
        for density in (0.02, 0.5, 0.98):
            mask = sum(1 << i for i in range(n) if rng.random() < density)
            yield mask | 1 << (n - 1)  # the top bit set


def test_random_bit_is_the_drawn_set_bit_by_one_draw():
    rng = random.Random(2024)
    for mask in _random_bit_masks():
        indices = mask_indices(mask)
        for _ in range(50):
            clone = random.Random()
            clone.setstate(rng.getstate())
            k = clone.randrange(len(indices))
            assert random_bit(rng, mask) == indices[k]
            assert rng.getstate() == clone.getstate()  # exactly one draw


@st.composite
def fill_cases(draw):
    """A grid up to 4x4x5, a target up to its volume, an edge allowance up to
    the full grid's edge count, and an rng seed."""
    dims = GridDims(*(draw(st.integers(1, side)) for side in (4, 4, 5)))
    full_edges = edge_count_mask(dims, (1 << dims.volume) - 1)
    target, max_edges = draw(st.integers(1, dims.volume)), draw(st.integers(0, full_edges))
    return dims, target, max_edges, draw(st.integers(0, 2**32))


@PROPERTY
@given(fill_cases())
def test_greedy_fill_meets_target_within_allowance(case):
    dims, target, max_edges, seed = case
    fill = greedy_fill(random.Random(seed), neighbour_masks(dims), target, max_edges)
    if fill is None:
        # any target cells fit an allowance that holds every edge of the grid
        assert max_edges < edge_count_mask(dims, (1 << dims.volume) - 1)
        return
    picked, mask, edges = fill
    assert len(picked) == len(set(picked)) == target
    assert sum(1 << i for i in picked) == mask
    assert edge_count_mask(dims, mask) == edges <= max_edges


@PROPERTY
@given(fill_cases())
def test_greedy_fill_without_allowance_is_the_independent_fill(case):
    dims, target, _, seed = case
    rng, ref = random.Random(seed), random.Random(seed)
    fill = greedy_fill(rng, neighbour_masks(dims), target, 0)
    assert (None if fill is None else fill[1]) == independent_fill_brute(ref, dims, target)
    assert rng.getstate() == ref.getstate()
