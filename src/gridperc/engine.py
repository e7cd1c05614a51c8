"""Synchronous r-neighbour bootstrap process on 3-dimensional grids.

One step infects, simultaneously, every cell with at least ``r`` infected
neighbours; infection is permanent.  The engine works on int bitsets: the six
axis neighbours of every cell are reached with two shifts per axis, and the
neighbour counts of all cells are three bit planes filled by three full
adders, so a step costs a few dozen big-int operations regardless of grid
size.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from .grid import CellSet, GridDims, GridError, mask_indices


class SimulationTruncated(RuntimeError):
    """Fixed point not reached within max_steps; never silently reported."""


def _axis_shifts(dims: GridDims) -> tuple[int, ...]:
    """Per axis z, y, x: (shift, keep for ``<<``, keep for ``>>``), flattened.

    ``(m << shift) & keep_lo`` marks cells whose neighbour one step down the
    axis is in ``m``, ``(m >> shift) & keep_hi`` those whose neighbour one step
    up is; the masks stop shifts from wrapping across rows and layers.  An
    axis of length 1 is (0, 0, 0), so both of its shifted masks are empty.
    Cached by the side lengths, which hash in C; the frozen dims would run
    their generated ``__hash__`` and ``__eq__`` on every call.
    """
    return _side_shifts(dims.a, dims.b, dims.c)


@lru_cache(maxsize=512)
def _side_shifts(a: int, b: int, c: int) -> tuple[int, ...]:
    n = a * b * c
    full = (1 << n) - 1

    col_first = 0  # z == 1
    for k in range(a * b):
        col_first |= 1 << (k * c)
    col_last = col_first << (c - 1)

    row_block = (1 << c) - 1  # y == 1, one layer
    row_first = 0
    for k in range(a):
        row_first |= row_block << (k * b * c)
    row_last = row_first << ((b - 1) * c)

    z = (1, full & ~col_first, full & ~col_last) if c > 1 else (0, 0, 0)
    y = (c, full & ~row_first, full & ~row_last) if b > 1 else (0, 0, 0)
    x = (b * c, full, full) if a > 1 else (0, 0, 0)
    return z + y + x


def neighbour_masks(dims: GridDims) -> list[int]:
    """Per cell index, the bitmask of its grid neighbours.

    A cell's bit moved one step along each axis direction and kept by that
    direction's mask from ``_axis_shifts``.
    """
    shifts = _axis_shifts(dims)
    axes = list(zip(shifts[::3], shifts[1::3], shifts[2::3]))
    out = []
    for i in range(dims.volume):
        bit = 1 << i
        m = 0
        for shift, keep_lo, keep_hi in axes:
            m |= bit << shift & keep_lo | bit >> shift & keep_hi
        out.append(m)
    return out


def _count_planes(mask: int, shifts: tuple[int, ...]) -> tuple[int, int, int]:
    """Bit planes (b0, b1, b2) of each cell's count of neighbours in ``mask``.

    Two full adders over the six shifted masks, then one over their carries
    and the carry of the two sums; a count is at most 6, so three planes
    never overflow.
    """
    sz, zlo, zhi, sy, ylo, yhi, sx, xlo, xhi = shifts
    z0 = mask << sz & zlo
    z1 = mask >> sz & zhi
    y0 = mask << sy & ylo
    y1 = mask >> sy & yhi
    x0 = mask << sx & xlo
    x1 = mask >> sx & xhi
    p = z0 ^ z1
    s1 = p ^ y0
    c1 = z0 & z1 | p & y0
    q = y1 ^ x0
    s2 = q ^ x1
    c2 = y1 & x0 | q & x1
    h = s1 & s2
    u = c1 ^ c2
    return s1 ^ s2, u ^ h, c1 & c2 | u & h


def at_least(r: int, planes: tuple[int, int, int], full: int) -> int:
    """Cells whose count, bit k in ``planes[k]``, is at least r.

    Compared from the low bit up: where r has a 1 the count needs it too and
    the lower bits must already qualify; where r has a 0, a 1 in the count
    wins outright.  A count is at most 6, so r >= 8 admits no cell.
    """
    if r >= 8:
        return 0
    b0, b1, b2 = planes
    ge = b0 if r & 1 else full
    ge = b1 & ge if r & 2 else b1 | ge
    return b2 & ge if r & 4 else b2 | ge


def count_planes(dims: GridDims, mask: int) -> tuple[int, int, int]:
    """Bit planes (b0, b1, b2) of each cell's count of neighbours in ``mask``."""
    return _count_planes(mask, _axis_shifts(dims))


def step_mask(dims: GridDims, r: int, mask: int) -> int:
    """One synchronous step on a raw bitset."""
    return mask | at_least(r, _count_planes(mask, _axis_shifts(dims)), (1 << dims.volume) - 1)


def fixed_point_mask(dims: GridDims, r: int, mask: int, max_steps: int | None = None) -> tuple[int, int]:
    """Iterate to the fixed point; returns (final mask, steps taken).

    Raises SimulationTruncated if max_steps productive steps do not reach it.
    The loop is ``_count_planes`` and ``at_least`` written out in place, so
    a step is a few dozen big-int operations and no call.
    """
    if r >= 8:
        return mask, 0  # a count is at most 6: no cell ever turns
    n = dims.volume
    limit = n if max_steps is None else max_steps
    sz, zlo, zhi, sy, ylo, yhi, sx, xlo, xhi = _axis_shifts(dims)
    full = (1 << n) - 1
    r0, r1, r2 = r & 1, r & 2, r & 4
    steps = 0
    while True:
        z0 = mask << sz & zlo
        z1 = mask >> sz & zhi
        y0 = mask << sy & ylo
        y1 = mask >> sy & yhi
        x0 = mask << sx & xlo
        x1 = mask >> sx & xhi
        p = z0 ^ z1
        s1 = p ^ y0
        c1 = z0 & z1 | p & y0
        q = y1 ^ x0
        s2 = q ^ x1
        c2 = y1 & x0 | q & x1
        h = s1 & s2
        u = c1 ^ c2
        b1 = u ^ h
        b2 = c1 & c2 | u & h
        ge = s1 ^ s2 if r0 else full
        ge = b1 & ge if r1 else b1 | ge
        nxt = mask | (b2 & ge if r2 else b2 | ge)
        if nxt == mask:
            return mask, steps
        if steps >= limit:
            raise SimulationTruncated(f"no fixed point within {limit} steps on {dims}")
        mask = nxt
        steps += 1


def step(dims: GridDims, r: int, current: CellSet) -> CellSet:
    """A_t from A_{t-1}: superset of the input, idempotent at the fixed point."""
    if current.dims != dims:
        raise GridError("cell set belongs to a different grid")
    return CellSet(dims, step_mask(dims, r, current.mask))


# byte width of a lane -> (text encoding that widens one character to it, array code)
_LANE_FORMATS = {1: ("ascii", "B"), 2: ("utf-16-le", "H"), 4: ("utf-32-le", "I")}
_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _cell_values(planes: list[int], n: int) -> list[int]:
    """Per-cell integers whose bit k is the cell's bit in ``planes[k]``.

    Each plane is written as one '0'/'1' character per cell, widened to a
    1-, 2- or 4-byte lane by a text encoding and summed into one big int, so
    the work is C-level and linear in n for each plane.
    """
    width = 1 if len(planes) <= 8 else 2 if len(planes) <= 16 else 4
    encoding, code = _LANE_FORMATS[width]
    total = 0
    for k, plane in enumerate(planes):
        digits = format(plane, f"0{n}b")[::-1].encode(encoding).translate(_ASCII_BIT)
        total |= int.from_bytes(digits, "little") << k
    values = array(code, total.to_bytes(n * width, "little"))
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist()


@dataclass(frozen=True)
class PercolationTrace:
    """Full history of one simulation plus per-cell audit quantities.

    ``infection_time[i]`` is None for never-infected cells, 0 for seeds.
    ``neighbours_at_infection[i]`` counts neighbours infected strictly before
    the cell turned (0 for seeds): simultaneous adjacent infections do not see
    each other, which is exactly what the perfectness audit needs.

    The audit masks: ``excess_mask`` holds the infected non-seeds whose count
    is not 3, and ``adjacent_masks`` holds, per direction (+z, +y, +x, as an
    index offset), the non-seeds whose neighbour in that direction turned at
    the same step.
    """

    dims: GridDims
    r: int
    seeds: CellSet
    infection_time: tuple[int | None, ...]
    neighbours_at_infection: tuple[int | None, ...]
    percolated: bool
    steps_taken: int
    final_mask: int = field(repr=False)
    excess_mask: int = field(repr=False)
    adjacent_masks: tuple[tuple[int, int], ...] = field(repr=False)

    def time_of(self, cell) -> int | None:
        return self.infection_time[self.dims.index(cell)]

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


def percolate(dims: GridDims, r: int, seeds: CellSet, max_steps: int | None = None) -> PercolationTrace:
    """Run to the fixed point, recording infection times and audit counts.

    max_steps defaults to a*b*c, which always suffices: every productive step
    infects at least one cell.  Hitting max_steps before the fixed point
    raises SimulationTruncated rather than reporting a bogus fixed point.

    A step costs a fixed number of big-int operations, as in
    ``fixed_point_mask``: the neighbour counts come from bit planes over the
    previous mask, and the new cells are ORed into bit planes of their
    infection time and of their count.  The per-cell tuples and the audit
    masks are read off those planes once, at the end.
    """
    if seeds.dims != dims:
        raise GridError("seed set belongs to a different grid")
    n = dims.volume
    limit = n if max_steps is None else max_steps
    shifts = _axis_shifts(dims)
    full = (1 << n) - 1

    mask = seeds.mask
    time_planes: list[int] = []  # bit k of each cell's infection time
    c0 = c1 = c2 = 0  # bits of each cell's count when it turned
    t = 0
    while True:
        b0, b1, b2 = _count_planes(mask, shifts)
        nxt = mask | at_least(r, (b0, b1, b2), full)
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
        c0 |= new & b0
        c1 |= new & b1
        c2 |= new & b2
        mask = nxt

    times: list[int | None] = _cell_values(time_planes, n)
    counts: list[int | None] = _cell_values([c0, c1, c2], n)
    for i in mask_indices(full ^ mask):
        times[i] = counts[i] = None

    turned = mask ^ seeds.mask
    exactly_three = c0 & c1
    exactly_three ^= exactly_three & c2
    adjacent = []
    for shift, keep in zip(shifts[::3], shifts[2::3]):
        if not shift:
            continue
        # non-seed pairs one step of shift apart whose time planes all agree
        both = turned & (turned >> shift) & keep
        differ = 0
        for plane in time_planes:
            differ |= plane ^ (plane >> shift)
        adjacent.append((shift, both ^ (both & differ)))

    return PercolationTrace(
        dims=dims,
        r=r,
        seeds=seeds,
        infection_time=tuple(times),
        neighbours_at_infection=tuple(counts),
        percolated=mask == full,
        steps_taken=t,
        final_mask=mask,
        excess_mask=turned ^ exactly_three,
        adjacent_masks=tuple(adjacent),
    )


def degree_pair_sum(dims: GridDims, cset: CellSet) -> int:
    """n(A) = sum over x in A of |N(x) ∩ A|, i.e. twice the internal edges."""
    if cset.dims != dims:
        raise GridError("cell set belongs to a different grid")
    m = cset.mask
    shifts = _axis_shifts(dims)
    # each internal edge, seen from its upper end; n(A) counts both ends
    edges = sum((m >> shift & keep & m).bit_count() for shift, keep in zip(shifts[::3], shifts[2::3]))
    return 2 * edges


def surface_quantity(dims: GridDims, cset: CellSet) -> int:
    """6|A| - n(A); nonincreasing along the 3-neighbour process."""
    return 6 * len(cset) - degree_pair_sum(dims, cset)
