"""Synchronous r-neighbour bootstrap process on 3-dimensional grids.

One step infects, simultaneously, every cell with at least ``r`` infected
neighbours; infection is permanent.  The engine works on int bitsets: the six
axis neighbours of every cell are reached with two shifts per axis, and the
neighbour counts of all cells are three bit planes filled by three full
adders, so a step costs a few dozen big-int operations regardless of grid
size.  At r = 3, the paper's threshold, the status-only fixed point needs
only the first two adders: "at least 3 of 6" is read off their sums and
carries.

A grid's shift table holds, per axis z, y, x, ``(shift, down, up)``: the index
step along the axis, the cells with a neighbour one step down it and those
with one a step up.  A set's neighbours up the axis are ``(m & up) << shift``
and those down it ``(m & down) >> shift``, so the mask is applied to the
source and a missing axis, all zeros, costs an AND with 0.  A shift down
the outermost axis x falls off the end of the grid, so x's ``down`` holds
every cell and the kernels write that shift as a bare ``m >> shift``; a
missing x axis takes the volume as its shift, which makes that 0 as well.

At a fixed point no uninfected cell has r infected neighbours, so the
infected neighbours of the uninfected cells, each count saturated at r - 1,
add up to the grid edges with exactly one end infected: ``cut_count_mask``.

A traced run (``percolate``) keeps only bit planes of each cell's infection
time, ORing each step's new cells into them.  It steps in one of two modes,
picked by the width of the front, the cells infected in the last step.  A
wide front takes the bitset step above, whose cost is the grid's size.  A
front of at most volume >> 12 cells, such as the few cells a thickness-1
doubling infects per step for most of its run, steps cell by cell: each
front cell adds one to its uninfected neighbours' counts, which start from
the bitset counts taken on entering.  The run switches back to bitset steps
when the front widens again.  A trace derives the rest on first read: the counts of
neighbours infected strictly earlier, by a bit-sliced compare of the time
planes with their neighbours' and the same adders, and the per-cell tuples
by widening the planes to byte lanes.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .grid import CellSet, GridDims, GridError, mask_indices, mask_of_indices, text_mask


class SimulationTruncated(RuntimeError):
    """Fixed point not reached within max_steps; never silently reported."""


def _axis_shifts(dims: GridDims) -> tuple[int, ...]:
    """Per axis z, y, x: (shift, down, up), flattened.

    ``(m & up) << shift`` marks cells whose neighbour one step down the axis
    is in ``m``, ``(m & down) >> shift`` those whose neighbour one step up is;
    masking the source stops shifts from wrapping across rows and layers.  A
    z or y axis of length 1 is (0, 0, 0), so both of its shifted masks are
    empty at the cost of an AND with 0.  On x, ``down`` is every cell and
    ``up`` every cell below the top layer; a length-1 x takes the volume as
    its shift, so ``m >> shift`` is empty too.
    Cached by the side lengths, which hash in C; the frozen dims would run
    their generated ``__hash__`` and ``__eq__`` on every call.
    """
    return _side_shifts(dims.a, dims.b, dims.c)


@lru_cache(maxsize=512)
def _side_shifts(a: int, b: int, c: int) -> tuple[int, ...]:
    full = (1 << a * b * c) - 1
    col_first = text_mask(("1" + "0" * (c - 1)) * (a * b))  # z == 1
    col_last = col_first << (c - 1)
    row_first = text_mask(("1" * c + "0" * ((b - 1) * c)) * a)  # y == 1
    row_last = row_first << ((b - 1) * c)

    z = (1, full & ~col_first, full & ~col_last) if c > 1 else (0, 0, 0)
    y = (c, full & ~row_first, full & ~row_last) if b > 1 else (0, 0, 0)
    x = (b * c, full, full >> b * c)
    return z + y + x


def neighbour_masks(dims: GridDims) -> list[int]:
    """Per cell index, the bitmask of its grid neighbours.

    A cell's bit, kept by each direction's source mask from ``_axis_shifts``,
    moved one step along that direction.
    """
    shifts = _axis_shifts(dims)
    axes = list(zip(shifts[::3], shifts[1::3], shifts[2::3]))
    out = []
    for i in range(dims.volume):
        bit = 1 << i
        m = 0
        for shift, down, up in axes:
            m |= (bit & up) << shift | (bit & down) >> shift
        out.append(m)
    return out


def _sum6(z0: int, z1: int, y0: int, y1: int, x0: int, x1: int) -> tuple[int, int, int]:
    """Bit planes (b0, b1, b2) of how many of six masks hold each cell.

    Two full adders over the six masks, then one over their carries and the
    carry of the two sums; a count is at most 6, so three planes never
    overflow.
    """
    p = z0 ^ z1
    s1 = p ^ y0
    c1 = z0 & z1 | p & y0
    q = y1 ^ x0
    s2 = q ^ x1
    c2 = y1 & x0 | q & x1
    h = s1 & s2
    u = c1 ^ c2
    return s1 ^ s2, u ^ h, c1 & c2 | u & h


def _count_planes(mask: int, shifts: tuple[int, ...]) -> tuple[int, int, int]:
    """Bit planes (b0, b1, b2) of each cell's count of neighbours in ``mask``:
    ``_sum6`` over the six shifted masks."""
    sz, zdown, zup, sy, ydown, yup, sx, _, xup = shifts
    return _sum6(
        (mask & zup) << sz,
        (mask & zdown) >> sz,
        (mask & yup) << sy,
        (mask & ydown) >> sy,
        (mask & xup) << sx,
        mask >> sx,
    )


def at_least(r: int, planes: tuple[int, int, int], full: int) -> int:
    """Cells whose count, bit k in ``planes[k]``, is at least r.

    Compared from the low bit up: where r has a 1 the count needs it too and
    the lower bits must already qualify; where r has a 0, a 1 in the count
    wins outright.  A count is at least 0 and at most 6, so r <= 0 admits
    every cell and r >= 8 none.
    """
    if r <= 0:
        return full
    if r >= 8:
        return 0
    b0, b1, b2 = planes
    ge = b0 if r & 1 else full
    ge = b1 & ge if r & 2 else b1 | ge
    return b2 & ge if r & 4 else b2 | ge


def step_mask(dims: GridDims, r: int, mask: int) -> int:
    """One synchronous step on a raw bitset."""
    return mask | at_least(r, _count_planes(mask, _axis_shifts(dims)), (1 << dims.volume) - 1)


def fixed_point_mask(dims: GridDims, r: int, mask: int, max_steps: int | None = None) -> tuple[int, int]:
    """Iterate to the fixed point; returns (final mask, steps taken).

    Raises SimulationTruncated if max_steps productive steps do not reach it.
    At r = 3 a step is the shifts of ``_count_planes`` and the two full
    adders of ``_sum6`` written out in place, and "at least 3 of 6" is read
    straight off their sums s1, s2 and carries c1, c2: two carries make at
    least 4, one carry and a sum at least 3.  That is a few dozen big-int operations and no
    call.  Every other r steps by ``step_mask``.
    """
    if r >= 8:
        return mask, 0  # a count is at most 6: no cell ever turns
    limit = dims.volume if max_steps is None else max_steps
    sz, zdown, zup, sy, ydown, yup, sx, _, xup = _axis_shifts(dims)
    steps = 0
    while True:
        if r == 3:
            z0 = (mask & zup) << sz
            z1 = (mask & zdown) >> sz
            y0 = (mask & yup) << sy
            y1 = (mask & ydown) >> sy
            x0 = (mask & xup) << sx
            x1 = mask >> sx
            p = z0 ^ z1
            s1 = p ^ y0
            c1 = z0 & z1 | p & y0
            q = y1 ^ x0
            s2 = q ^ x1
            c2 = y1 & x0 | q & x1
            nxt = mask | c1 & c2 | (c1 | c2) & (s1 | s2)
        else:
            nxt = step_mask(dims, r, mask)
        if nxt == mask:
            return mask, steps
        if steps >= limit:
            raise SimulationTruncated(f"no fixed point within {limit} steps on {dims}")
        mask = nxt
        steps += 1


# byte width of a lane -> (text encoding that widens one character to it, array code)
_LANE_FORMATS = {1: ("ascii", "B"), 2: ("utf-16-be", "H"), 4: ("utf-32-be", "I")}
_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


def cell_lanes(planes: Sequence[int], n: int, width: int = 1) -> bytes:
    """n little-endian lanes of ``width`` bytes, lane i holding the integer
    whose bit k is cell i's bit in ``planes[k]``.

    Each plane is written as one '0'/'1' character per cell, widened to a
    lane by a text encoding and summed into one big int, so the work is
    C-level and linear in n for each plane.  The digits run from cell n - 1
    down, as ``format`` writes them, and are read as a big-endian number,
    which puts cell i in lane i without reversing the text.
    """
    encoding = _LANE_FORMATS[width][0]
    total = 0
    for k, plane in enumerate(planes):
        digits = format(plane, f"0{n}b").encode(encoding).translate(_ASCII_BIT)
        total |= int.from_bytes(digits, "big") << k
    return total.to_bytes(n * width, "little")


def _cell_values(planes: Sequence[int], n: int) -> list[int]:
    """Per-cell integers whose bit k is the cell's bit in ``planes[k]``."""
    width = 1 if len(planes) <= 8 else 2 if len(planes) <= 16 else 4
    values = array(_LANE_FORMATS[width][1], cell_lanes(planes, n, width))
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


@dataclass(frozen=True)
class PercolationTrace:
    """Full history of one simulation, kept as bit planes of infection time.

    A trace keeps ``time_planes`` (bit k of each infected cell's infection
    time in plane k, 0 for seeds and for never-infected cells), the final
    mask, the step count and ``adjacent_masks``: per direction (+z, +y, +x,
    as an index offset), the non-seeds whose neighbour in that direction
    turned at the same step.  Everything else per cell is derived from those
    planes the first time it is read:

    - ``count_planes``: bit k, per cell that turned, of how many neighbours
      were infected strictly before it (seeds and never-infected cells 0):
      simultaneous adjacent infections do not see each other, which is
      exactly what the perfectness audit needs;
    - ``excess_mask``: the cells that turned with a count other than 3;
    - ``infection_time[i]``: None for never-infected cells, 0 for seeds;
    - ``neighbours_at_infection[i]``: the count, None for never-infected
      cells.
    """

    dims: GridDims
    r: int
    seeds: CellSet
    percolated: bool
    steps_taken: int
    final_mask: int = field(repr=False)
    time_planes: tuple[int, ...] = field(repr=False)
    adjacent_masks: tuple[tuple[int, int], ...] = field(repr=False)

    @cached_property
    def count_planes(self) -> tuple[int, int, int]:
        """``_sum6`` over the six neighbour directions of "neighbour infected
        and its time below mine", each a bit-sliced compare of the time
        planes, top plane first, against the same planes shifted from that
        neighbour."""
        shifts = _axis_shifts(self.dims)
        final = self.final_mask
        turned = final ^ self.seeds.mask
        planes = self.time_planes[::-1]
        earlier = []
        for shift, down, up in zip(shifts[::3], shifts[1::3], shifts[2::3]):
            # each plane and the final mask as seen from the neighbour down
            # the axis, then from the one up it
            views = (
                [(m & up) << shift for m in (final, *planes)],
                [(m & down) >> shift for m in (final, *planes)],
            )
            for infected, *theirs in views:
                # equal on every plane so far, and below at the first that differs
                same = turned & infected
                below = 0
                for mine, other in zip(planes, theirs):
                    first = same & (mine ^ other)
                    below |= first & mine
                    same ^= first
                earlier.append(below)
        return _sum6(*earlier)

    @cached_property
    def excess_mask(self) -> int:
        c0, c1, c2 = self.count_planes
        exactly_three = c0 & c1
        exactly_three ^= exactly_three & c2
        return self.final_mask ^ self.seeds.mask ^ exactly_three

    def _per_cell(self, planes: Sequence[int]) -> tuple[int | None, ...]:
        n = self.dims.volume
        values: list[int | None] = _cell_values(planes, n)
        for i in mask_indices(((1 << n) - 1) ^ self.final_mask):
            values[i] = None
        return tuple(values)

    @cached_property
    def infection_time(self) -> tuple[int | None, ...]:
        return self._per_cell(self.time_planes)

    @cached_property
    def neighbours_at_infection(self) -> tuple[int | None, ...]:
        return self._per_cell(self.count_planes)

    @property
    def final(self) -> CellSet:
        return CellSet(self.dims, self.final_mask)

    @property
    def frames(self) -> tuple[int, ...]:
        """Infected mask after each step, seeds first; re-stepped on demand."""
        mask = self.seeds.mask
        frames = [mask]
        for _ in range(self.steps_taken):
            mask = step_mask(self.dims, self.r, mask)
            frames.append(mask)
        return tuple(frames)


# A front of at most volume >> _NARROW_SHIFT cells steps cell by cell.
_NARROW_SHIFT = 12


def _cell_steps(
    dims: GridDims, r: int, flags: bytearray, known: Sequence[bytes], front: list[int], t: int, limit: int
) -> list[list[int]]:
    """Steps t + 1, t + 2, ... one front cell at a time, from ``front``, the
    cells infected at step t; returns the fronts of the steps taken.

    Bit i of ``flags``, little-endian bytes like ``int.to_bytes``, is set
    once cell i is infected.  Bit i of ``known[k]`` is bit k of cell i's
    count of infected neighbours outside the front, enough bits for every
    uninfected cell's count, which is below r.  Each front cell adds one to
    the count of every uninfected neighbour, read from ``known`` on first
    touch; a count that reaches r puts its cell in the next front.  A
    neighbour past the grid's edge is replaced by the front cell itself,
    which is infected.  Stops after a front wider than volume >>
    ``_NARROW_SHIFT`` cells, left to the bitset step, or when no cell turns;
    raises SimulationTruncated like ``percolate`` when a step past ``limit``
    would infect a cell.
    """
    n = dims.volume
    c = dims.c
    bc = dims.b * c
    narrow = n >> _NARROW_SHIFT
    top_z, top_y, top_x = c - 1, bc - c, n - bc
    counts: dict[int, int] = {}
    fronts = []
    while True:
        nxt = []
        for i in front:
            z = i % c
            yz = i % bc
            for j in (
                i - 1 if z else i,
                i + 1 if z < top_z else i,
                i - c if yz >= c else i,
                i + c if yz < top_y else i,
                i - bc if i >= bc else i,
                i + bc if i < top_x else i,
            ):
                q = j >> 3
                bit = 1 << (j & 7)
                if flags[q] & bit:
                    continue
                v = counts.get(j)
                if v is None:
                    v = 0
                    for k, plane in enumerate(known):
                        if plane[q] & bit:
                            v |= 1 << k
                v += 1
                if v == r:
                    flags[q] |= bit
                    nxt.append(j)
                else:
                    counts[j] = v
        if not nxt:
            return fronts
        if t >= limit:
            raise SimulationTruncated(f"no fixed point within {limit} steps on {dims}")
        t += 1
        fronts.append(nxt)
        if len(nxt) > narrow:
            return fronts
        front = nxt


def percolate(dims: GridDims, r: int, seeds: CellSet, max_steps: int | None = None) -> PercolationTrace:
    """Run to the fixed point, recording infection times as bit planes.

    max_steps defaults to a*b*c, which always suffices: every productive step
    infects at least one cell.  Hitting max_steps before the fixed point
    raises SimulationTruncated rather than reporting a bogus fixed point.

    Each step picks its mode by the width of the front, the cells infected
    in the last step (the seeds before the first):

    - a front of more than volume >> ``_NARROW_SHIFT`` cells takes a bitset
      step over the whole grid, a fixed number of big-int operations as in
      ``fixed_point_mask``: at r = 3 "at least 3" read off two full adders,
      otherwise ``_count_planes`` and ``at_least``.  Its new cells are ORed
      into the bit planes of their infection time;
    - a narrower front steps cell by cell (``_cell_steps``) until the front
      widens again or no cell turns.  On entering, the infected mask and
      the low bit planes of ``_count_planes`` become byte strings, so a
      cell's flag and count are read in constant time; on leaving, the mask
      is read back from the flags.

    Counting a front's cells costs about a quarter of a bitset step, so a
    run of bitset steps counts it only every 32nd step, and a narrow mode
    starts up to 31 steps late.  Where the mode is entered does not change
    the trace, only the time it takes.  At r <= 0 every cell turns in the
    first step however narrow the seeds, so there is no narrow mode.

    The cell-by-cell steps' infection times are ORed into the time planes
    once, at the end, and the same-step masks are read off those planes;
    counts and per-cell values only when the trace's properties are read.
    """
    if seeds.dims != dims:
        raise GridError("seed set belongs to a different grid")
    n = dims.volume
    limit = n if max_steps is None else max_steps
    shifts = _axis_shifts(dims)
    sz, zdown, zup, sy, ydown, yup, sx, _, xup = shifts
    full = (1 << n) - 1
    narrow = n >> _NARROW_SHIFT if r > 0 else 0

    mask = seeds.mask
    front = mask
    time_planes: list[int] = []  # bit k of each cell's infection time
    cell_fronts: list[tuple[int, list[int]]] = []  # (time, cells) of the steps taken cell by cell
    t = 0
    while True:
        if narrow and t & 31 == 0 and 0 < front.bit_count() <= narrow:
            size = (n + 7) >> 3
            flags = bytearray(mask.to_bytes(size, "little"))
            # an uninfected cell's count is below r: its low bits suffice
            planes = _count_planes(mask ^ front, shifts)[:(r - 1).bit_length()]
            known = [plane.to_bytes(size, "little") for plane in planes]
            fronts = _cell_steps(dims, r, flags, known, mask_indices(front), t, limit)
            cell_fronts += enumerate(fronts, t + 1)
            t += len(fronts)
            time_planes += [0] * (t.bit_length() - len(time_planes))
            mask = int.from_bytes(flags, "little")
            if not fronts or len(fronts[-1]) <= narrow:
                break  # no cell turned
        if r == 3:
            z0 = (mask & zup) << sz
            z1 = (mask & zdown) >> sz
            y0 = (mask & yup) << sy
            y1 = (mask & ydown) >> sy
            x0 = (mask & xup) << sx
            x1 = mask >> sx
            p = z0 ^ z1
            s1 = p ^ y0
            c1 = z0 & z1 | p & y0
            q = y1 ^ x0
            s2 = q ^ x1
            c2 = y1 & x0 | q & x1
            nxt = mask | c1 & c2 | (c1 | c2) & (s1 | s2)
        else:
            nxt = mask | at_least(r, _count_planes(mask, shifts), full)
        if nxt == mask:
            break
        if t >= limit:
            raise SimulationTruncated(f"no fixed point within {limit} steps on {dims}")
        t += 1
        front = nxt ^ mask
        if t & (t - 1) == 0:
            time_planes.append(0)
        for k, plane in enumerate(time_planes):
            if t >> k & 1:
                time_planes[k] = plane | front
        mask = nxt

    if cell_fronts:
        # per time plane, the cells stepped cell by cell with that bit set
        turned_at: list[list[int]] = [[] for _ in time_planes]
        for s, cells in cell_fronts:
            for k, plane_cells in enumerate(turned_at):
                if s >> k & 1:
                    plane_cells += cells
        time_planes = [
            plane | mask_of_indices(n, cells) if cells else plane for plane, cells in zip(time_planes, turned_at)
        ]

    turned = mask ^ seeds.mask
    adjacent = []
    for shift, down, up in zip(shifts[::3], shifts[1::3], shifts[2::3]):
        if not up:
            continue  # a length-1 axis
        # non-seed pairs one step of shift apart whose time planes all agree
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


def edge_count_mask(dims: GridDims, mask: int) -> int:
    """Grid edges with both ends in a raw bitset."""
    sz, zdown, _, sy, ydown, _, sx, _, _ = _axis_shifts(dims)
    # each internal edge, seen from its lower end
    return (
        ((mask & zdown) >> sz & mask).bit_count()
        + ((mask & ydown) >> sy & mask).bit_count()
        + (mask >> sx & mask).bit_count()
    )


def cut_count_mask(dims: GridDims, mask: int) -> int:
    """Grid edges with exactly one end in a raw bitset."""
    sz, zdown, zup, sy, ydown, yup, sx, _, xup = _axis_shifts(dims)
    # each edge seen from its lower end, whose upper neighbour differs
    return (
        ((mask & zdown) >> sz ^ mask & zup).bit_count()
        + ((mask & ydown) >> sy ^ mask & yup).bit_count()
        + (mask >> sx ^ mask & xup).bit_count()
    )


def degree_pair_sum(dims: GridDims, cset: CellSet) -> int:
    """n(A) = sum over x in A of |N(x) ∩ A|, i.e. twice the internal edges."""
    if cset.dims != dims:
        raise GridError("cell set belongs to a different grid")
    return 2 * edge_count_mask(dims, cset.mask)


def surface_quantity(dims: GridDims, cset: CellSet) -> int:
    """6|A| - n(A); nonincreasing along the 3-neighbour process."""
    return 6 * len(cset) - degree_pair_sum(dims, cset)
