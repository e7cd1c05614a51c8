"""Independent brute-force reference implementations for cross-checking.

Everything here works on explicit (x, y, z) coordinates and Python sets; no
bitsets, no shift tricks.  Deliberately slow and obvious.  The exceptions are
``step``, the engine's ``step_mask`` on a cell set, which the engine tests
compare against ``step_brute``, the small helpers after it that only the
tests call (``count_planes``, ``from_indices``, ``issubset``, ``time_of``,
``verify_all``), and ``percolate_bitset``, the traced engine with every step
taken over the whole grid.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

from gridperc.bounds import Status
from gridperc.catalog import Catalog
from gridperc.engine import (
    PercolationTrace,
    SimulationTruncated,
    _axis_shifts,
    _count_planes,
    at_least,
    step_mask,
)
from gridperc.grid import CellSet, GridDims, GridError, embed, neighbours

_BUILD_FAMILIES = Path(__file__).resolve().parent.parent / "scripts" / "build_families.py"


def _regeneration_spec() -> dict[str, tuple[int, int, int, int]]:
    spec = importlib.util.spec_from_file_location("build_families", _BUILD_FAMILIES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.FAMILIES


# The families the store is regenerated from, by id: (a, b, residue mod 6,
# minimum c), as scripts/build_families.py lists them.
FAMILY_SPECS = _regeneration_spec()


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


def step(dims: GridDims, r: int, current: CellSet) -> CellSet:
    """A_t from A_{t-1} as a cell set, by the engine's ``step_mask``: a
    superset of the input, idempotent at the fixed point."""
    if current.dims != dims:
        raise GridError("cell set belongs to a different grid")
    return CellSet(dims, step_mask(dims, r, current.mask))


def count_planes(dims: GridDims, mask: int) -> tuple[int, int, int]:
    """Bit planes (b0, b1, b2) of each cell's count of neighbours in ``mask``."""
    return _count_planes(mask, _axis_shifts(dims))


def from_indices(dims: GridDims, indices) -> CellSet:
    """The cell set of the given cell indices; GridError on one outside the grid."""
    return CellSet.from_cells(dims, map(dims.cell, indices))


def issubset(inner: CellSet, outer: CellSet) -> bool:
    """Whether the two sets share a grid and every cell of ``inner`` is in ``outer``."""
    return inner.dims == outer.dims and all(cell in outer for cell in inner.cells())


def time_of(trace: PercolationTrace, cell) -> int | None:
    """Infection time of one cell: None if never infected, 0 for a seed."""
    return trace.infection_time[trace.dims.index(cell)]


def percolate_bitset(dims: GridDims, r: int, seeds: CellSet, max_steps: int | None = None) -> PercolationTrace:
    """``engine.percolate`` with every step a bitset step over the whole grid,
    whatever the width of the front: ``_count_planes`` and ``at_least`` over
    the previous mask, the new cells ORed into the bit planes of their
    infection time."""
    n = dims.volume
    limit = n if max_steps is None else max_steps
    shifts = _axis_shifts(dims)
    full = (1 << n) - 1

    mask = seeds.mask
    time_planes: list[int] = []
    t = 0
    while True:
        nxt = mask | at_least(r, _count_planes(mask, shifts), full)
        if nxt == mask:
            break
        if t >= limit:
            raise SimulationTruncated(f"no fixed point within {limit} steps on {dims}")
        t += 1
        new = nxt ^ mask
        if t & (t - 1) == 0:
            time_planes.append(0)
        for k, plane in enumerate(time_planes):
            if t >> k & 1:
                time_planes[k] = plane | new
        mask = nxt

    turned = mask ^ seeds.mask
    adjacent = []
    for shift, down, up in zip(shifts[::3], shifts[1::3], shifts[2::3]):
        if not up:
            continue
        both = turned & (turned & down) >> shift
        differ = 0
        for plane in time_planes:
            differ |= plane ^ (plane >> shift)
        adjacent.append((shift, both ^ (both & differ)))

    return PercolationTrace(
        dims=dims,
        r=r,
        seeds=seeds,
        percolated=mask == full,
        steps_taken=t,
        final_mask=mask,
        time_planes=tuple(time_planes),
        adjacent_masks=tuple(adjacent),
    )


def verify_all(catalog: Catalog) -> None:
    """Re-verify every entry by simulation, in key order, keeping the verified copies."""
    for key in sorted(catalog.entries):
        catalog.entries[key] = catalog.entries[key].verify()


def independent_fill_brute(rng, dims: GridDims, target: int) -> int | None:
    """Mask of a random independent ``target``-cell set, or None if it falls short.

    One shuffle of the cell indices, then each cell with no neighbour taken
    yet, until ``target`` are taken: family discovery's block seeding, cell
    by cell, the reference for ``search.greedy_fill`` at ``max_edges`` 0.
    """
    cells = list(dims.cells())
    order = list(range(dims.volume))
    rng.shuffle(order)
    taken: set = set()
    for i in order:
        if len(taken) == target:
            break
        if not any(nb in taken for nb in neighbours_brute(dims, cells[i])):
            taken.add(cells[i])
    return CellSet.from_cells(dims, taken).mask if len(taken) == target else None


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


def render_brute(dims: GridDims, times: tuple) -> str:
    """A rendered trace by per-cell glyph lookup, in ``dims.cells()`` order of
    ``times``: X for a seed, the time's base-36 digit up to 35, + from 36 on,
    # for never infected; rows of c glyphs, layers of b rows, a blank line
    between layers."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"

    def glyph(t):
        if t is None:
            return "#"
        if t == 0:
            return "X"
        return digits[t] if t < 36 else "+"

    layers = []
    for x in range(1, dims.a + 1):
        rows = [
            "".join(glyph(times[dims.index((x, y, z))]) for z in range(1, dims.c + 1))
            for y in range(1, dims.b + 1)
        ]
        layers.append("\n".join(rows))
    return "\n\n".join(layers) + "\n"


def strip_times_brute(text: str) -> str:
    """A rendered trace back to seed text, line by line and glyph by glyph:
    whitespace-only lines become empty, X stays, every other glyph becomes '.'."""
    out_lines = []
    for line in text.splitlines():
        if line.strip() == "":
            out_lines.append("")
        else:
            out_lines.append("".join("X" if g == "X" else "." for g in line))
    return "\n".join(out_lines) + "\n"


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


def axis_keep_masks_brute(dims: GridDims) -> tuple[int, ...]:
    """The engine's per-axis shift masks, cell by cell from coordinates.

    Per axis z, y, x: the index step along the axis, the cells with a
    neighbour one step down it, and the cells with one a step up.  A shift
    down the outermost axis x runs off the end of the grid rather than into
    another row, so its down mask holds every cell, and a length-1 x axis
    steps by the whole volume.  A z or y axis of length 1 is (0, 0, 0).
    """
    sides = dims.as_tuple()
    out: tuple[int, ...] = ()
    for axis, step in ((2, 1), (1, dims.c), (0, dims.b * dims.c)):
        if sides[axis] == 1 and axis:
            out += (0, 0, 0)
            continue
        down = up = 0
        for i in range(dims.volume):
            coord = dims.cell(i)[axis]
            if axis == 0 or coord > 1:
                down |= 1 << i
            if coord < sides[axis]:
                up |= 1 << i
        out += (step, down, up)
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
