import pytest

from gridperc.grid import (
    CELL_CAP,
    CellSet,
    GridDims,
    GridError,
    automorphisms,
    embed,
    neighbours,
    orbit_minima,
    orient_set,
    orientations,
)

from oracle import issubset, neighbours_brute


def test_dims_validation():
    with pytest.raises(GridError):
        GridDims(0, 3, 3)
    with pytest.raises(GridError):
        GridDims(-1, 1, 1)
    with pytest.raises(GridError):
        GridDims(300, 300, 300)  # over the cell cap
    assert GridDims(1, 1, 1).volume == 1
    assert GridDims(2, 3, 4).thickness == 2


def test_index_roundtrip():
    dims = GridDims(3, 4, 5)
    seen = set()
    for cell in dims.cells():
        i = dims.index(cell)
        assert dims.cell(i) == cell
        seen.add(i)
    assert seen == set(range(dims.volume))


def test_neighbour_counts_examples():
    assert len(neighbours(GridDims(3, 3, 3), (2, 2, 2))) == 6  # interior
    assert len(neighbours(GridDims(3, 3, 3), (1, 1, 1))) == 3  # corner
    assert set(neighbours(GridDims(1, 1, 5), (1, 1, 3))) == {(1, 1, 2), (1, 1, 4)}


def test_neighbours_outside_grid():
    with pytest.raises(GridError):
        neighbours(GridDims(2, 2, 2), (3, 1, 1))


def test_neighbours_match_bruteforce_and_symmetry():
    for dims in (GridDims(1, 3, 4), GridDims(2, 2, 2), GridDims(3, 4, 2)):
        for cell in dims.cells():
            nbs = neighbours(dims, cell)
            assert len(set(nbs)) == len(nbs)
            assert sorted(nbs) == sorted(neighbours_brute(dims, cell))
            for nb in nbs:
                assert cell in neighbours(dims, nb)


def test_cellset_basics():
    dims = GridDims(2, 3, 3)
    s = CellSet.from_cells(dims, [(1, 1, 1), (2, 3, 3)])
    assert len(s) == 2
    assert (1, 1, 1) in s and (2, 3, 3) in s and (1, 2, 2) not in s
    assert s.cells() == [(1, 1, 1), (2, 3, 3)]
    with pytest.raises(GridError):
        CellSet.from_cells(dims, [(3, 1, 1)])
    full = CellSet.full(dims)
    assert len(full) == dims.volume
    assert issubset(s, full)


def test_automorphism_group_sizes():
    assert len(automorphisms(GridDims(3, 3, 3))) == 48  # full cube symmetry
    assert len(automorphisms(GridDims(1, 3, 3))) == 16
    assert len(automorphisms(GridDims(2, 3, 4))) == 8   # reflections only


def test_orientations_between_boxes():
    maps = orientations(GridDims(2, 3, 4), GridDims(4, 3, 2))
    assert maps
    src = CellSet.from_cells(GridDims(2, 3, 4), [(1, 2, 4), (2, 1, 1)])
    out = orient_set(src, maps[0])
    assert out.dims == GridDims(4, 3, 2)
    assert len(out) == 2
    assert orientations(GridDims(2, 3, 4), GridDims(2, 3, 5)) == []


def test_orbit_minima_are_canonical():
    dims = GridDims(3, 3, 3)
    minima = orbit_minima(dims)
    # corner, edge-centre, face-centre, body-centre
    assert sorted(minima) == [0, 1, 4, 13]


def test_embed_offsets_and_bounds():
    small = CellSet.from_cells(GridDims(1, 2, 2), [(1, 1, 1), (1, 2, 2)])
    big = GridDims(2, 4, 4)
    placed = embed(small, big, (1, 2, 2))
    assert placed.cells() == [(2, 3, 3), (2, 4, 4)]
    with pytest.raises(GridError):
        embed(small, big, (2, 0, 0))
