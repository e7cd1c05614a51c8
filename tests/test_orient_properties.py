"""Box isometries against the per-cell reference in ``tests/oracle.py``, and
the octant lemma that lets ``combine`` place each part as given."""

from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.bounds import Status, classify
from gridperc.combine import combine, octant_parts
from gridperc.grid import (
    CellSet,
    GridDims,
    automorphisms,
    orient_indices,
    orient_set,
    orientations,
)
from gridperc.pipelines import Combine

from oracle import orient_cell_brute

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def random_sets(draw, max_side=5):
    dims = GridDims(*(draw(st.integers(1, max_side)) for _ in range(3)))
    return CellSet(dims, draw(st.integers(0, (1 << dims.volume) - 1)))


def every_orientation(src: GridDims):
    """Each orientation from ``src`` onto each permutation of its sides."""
    for sides in sorted(set(permutations(src.as_tuple()))):
        yield from orientations(src, GridDims(*sides))


def inverse(orientation):
    perm, flips = orientation
    back = [0, 0, 0]
    for j, p in enumerate(perm):
        back[p] = j
    return tuple(back), tuple(flips[back[k]] for k in range(3))


@PROPERTY
@given(random_sets())
def test_orient_set_matches_per_cell_reference(cset):
    src = cset.dims
    for g in every_orientation(src):
        image = orient_set(cset, g)
        dst = image.dims
        assert dst.as_tuple() == tuple(src.as_tuple()[p] for p in g[0])
        assert image == CellSet.from_cells(dst, (orient_cell_brute(c, src, g) for c in cset.cells()))


@PROPERTY
@given(random_sets())
def test_orient_indices_is_the_inverse_map(cset):
    src = cset.dims
    for g in every_orientation(src):
        table = orient_indices(src, g)
        dst = GridDims(*(src.as_tuple()[p] for p in g[0]))
        assert sorted(table) == list(range(src.volume))
        for i in range(src.volume):
            assert table[dst.index(orient_cell_brute(src.cell(i), src, g))] == i


@PROPERTY
@given(random_sets())
def test_inverse_orientation_restores_the_set(cset):
    for g in every_orientation(cset.dims):
        assert orient_set(orient_set(cset, g), inverse(g)) == cset


@pytest.fixture(scope="module")
def combine_plans(builder):
    """Every distinct combine plan on sorted grids with sides <= 9."""
    plans = []
    for a in range(1, 10):
        for b in range(a, 10):
            for c in range(b, 10):
                for status in (Status.PERFECT, Status.OPTIMAL):
                    plan = builder.plan(GridDims(a, b, c), status)
                    if isinstance(plan, Combine) and plan not in plans:
                        plans.append(plan)
    return plans


@PROPERTY
@given(st.data())
def test_combine_takes_parts_in_any_automorphic_image(builder, combine_plans, data):
    # the octant lemma: each part fills its own octant whatever its
    # orientation, so one placement percolates and no retry is needed
    plan = data.draw(st.sampled_from(combine_plans))
    parts = []
    for child, sides in zip(plan.children, octant_parts(plan.split)):
        dims = GridDims(*sides)
        part = builder.perfect(dims) if child.status is Status.PERFECT else builder.optimal(dims)
        g = data.draw(st.sampled_from(automorphisms(dims)))
        parts.append(replace(part, seeds=orient_set(part.seeds, g)))
    entry = combine(*parts)
    assert entry.dims == plan.dims
    assert entry.size == sum(part.size for part in parts)
    assert classify(entry.dims, entry.seeds).status >= plan.status
