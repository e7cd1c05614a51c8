"""Independent brute-force reference implementations for cross-checking.

Everything here works on explicit (x, y, z) coordinates and Python sets; no
bitsets, no shift tricks.  Deliberately slow and obvious.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from gridperc.bounds import Status
from gridperc.grid import CellSet, GridDims, embed, neighbours


@lru_cache(maxsize=None)
def neighbours_brute(dims: GridDims, cell) -> tuple:
    """All cells at Hamming-style distance one inside the box."""
    out = []
    for other in dims.cells():
        diffs = [abs(a - b) for a, b in zip(cell, other)]
        if sorted(diffs) == [0, 0, 1]:
            out.append(other)
    return tuple(out)


def step_brute(dims: GridDims, r: int, infected: set) -> set:
    """One synchronous step by per-cell neighbour counting."""
    new = set(infected)
    for cell in dims.cells():
        if cell in infected:
            continue
        count = sum(1 for nb in neighbours_brute(dims, cell) if nb in infected)
        if count >= r:
            new.add(cell)
    return new


def fixed_point_brute(dims: GridDims, r: int, infected: set) -> tuple[set, int]:
    current = set(infected)
    steps = 0
    while True:
        nxt = step_brute(dims, r, current)
        if nxt == current:
            return current, steps
        current = nxt
        steps += 1


def pair_sum_brute(dims: GridDims, cells: set) -> int:
    """Sum over members of their in-set neighbour counts (twice the edges)."""
    return sum(
        1
        for cell in cells
        for nb in neighbours_brute(dims, cell)
        if nb in cells
    )


def trace_brute(dims: GridDims, r: int, seeds: set) -> tuple[tuple, tuple]:
    """(infection times, neighbours infected strictly before) per cell, in
    ``dims.cells()`` order; None for cells never infected, 0 and 0 for seeds."""
    time = {cell: 0 for cell in seeds}
    current = set(seeds)
    t = 0
    while True:
        nxt = step_brute(dims, r, current)
        if nxt == current:
            break
        t += 1
        for cell in nxt - current:
            time[cell] = t
        current = nxt
    times = tuple(time.get(cell) for cell in dims.cells())
    counts = tuple(
        None if cell not in time
        else sum(1 for nb in neighbours_brute(dims, cell) if nb in time and time[nb] < time[cell])
        for cell in dims.cells()
    )
    return times, counts


def audit_lists_brute(dims: GridDims, times: tuple, counts: tuple) -> tuple[list, list]:
    """The perfectness audit's cell lists by per-cell scanning.

    Excess: infected non-seeds whose count is not 3, by increasing index.
    Adjacent: non-seed pairs (i, j) that turned at the same step, j the +z,
    then +y, then +x neighbour of i, by increasing i.
    """
    cells = list(dims.cells())
    index = {cell: i for i, cell in enumerate(cells)}
    excess = [i for i, t in enumerate(times) if t and counts[i] != 3]
    pairs = []
    for i, (x, y, z) in enumerate(cells):
        if not times[i]:
            continue
        for nb in ((x, y, z + 1), (x, y + 1, z), (x + 1, y, z)):
            if nb in index and times[index[nb]] == times[i]:
                pairs.append((i, index[nb]))
    return excess, pairs


def min_percolating_brute(dims: GridDims, r: int) -> int:
    """Smallest size of a set whose fixed point is the whole grid, by trying
    every subset in order of increasing size."""
    cells = list(dims.cells())
    for size in range(len(cells) + 1):
        for subset in combinations(cells, size):
            final, _ = fixed_point_brute(dims, r, set(subset))
            if len(final) == len(cells):
                return size
    raise AssertionError("the whole grid always percolates")


def orient_cell_brute(cell, src: GridDims, orientation) -> tuple:
    """Image of one cell under an orientation (perm, flips): coordinate j of
    the image reads source coordinate perm[j], mirrored when flips[j]."""
    perm, flips = orientation
    sides = src.as_tuple()
    return tuple(
        sides[perm[j]] + 1 - cell[perm[j]] if flips[j] else cell[perm[j]]
        for j in range(3)
    )


def family_seed_set_brute(pattern, c: int) -> CellSet:
    """A family instance by embedding each part at its column offset: the
    left boundary, then k = (c - min_c) / 6 block copies, then the right
    boundary, one whole-grid ``embed`` per part."""
    dims = GridDims(pattern.a, pattern.b, c)
    reps = (c - pattern.min_c) // 6
    out = embed(pattern.left, dims, (0, 0, 0))
    z = pattern.left.dims.c
    for _ in range(reps):
        out = out | embed(pattern.block, dims, (0, 0, z))
        z += 6
    return out | embed(pattern.right, dims, (0, 0, z))


def neighbour_masks_brute(dims: GridDims) -> list[int]:
    """Per cell index, the bitmask of its grid neighbours, cell by cell."""
    out = []
    for i in range(dims.volume):
        m = 0
        for nb in neighbours(dims, dims.cell(i)):
            m |= 1 << dims.index(nb)
        out.append(m)
    return out


def generic_splits_brute(t: tuple[int, int, int], status: Status) -> list:
    """The planner's generic splits by generating every split and filtering.

    Each axis is walked middle-out (a perfect plan takes only a1 <= a2 and
    b1 <= b2); a split is kept when 3 divides the surface ab + ac + bc of
    each of its parts (a2, b2, c1), (a2, b1, c2) and (a1, b2, c2).
    """
    a, b, c = t

    def middle_out(n):
        return sorted(range(1, n), key=lambda i: abs(2 * i - n))

    if status is Status.PERFECT:
        firsts = (range(a // 2, 0, -1), range(b // 2, 0, -1), middle_out(c))
    else:
        firsts = (middle_out(a), middle_out(b), middle_out(c))
    out = []
    for a1, b1, c1 in product(*firsts):
        a2, b2, c2 = a - a1, b - b1, c - c1
        parts = ((a2, b2, c1), (a2, b1, c2), (a1, b2, c2))
        if all((x * y + x * z + y * z) % 3 == 0 for x, y, z in parts):
            out.append(((a1, a2), (b1, b2), (c1, c2)))
    return out
