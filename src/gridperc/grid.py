"""Grid geometry: dimensions, cell indexing, neighbourhoods, box symmetries.

Cells of an ``a x b x c`` grid are 1-based triples ``(x, y, z)`` read as
(layer, row, column).  Internally a cell is a single integer index into the
linearized grid, and a set of cells is one Python int used as a bitset, which
keeps membership, counting and the percolation engine O(machine words).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from typing import Iterable, Iterator

Cell = tuple[int, int, int]

# Hard cap on addressable cells; larger grids are rejected at construction.
CELL_CAP = 1 << 24


class GridError(ValueError):
    """Invalid dimensions or a cell outside the grid."""


# bit offsets of each byte value, and a table flagging nonzero bytes
_BYTE_BITS = tuple(tuple(k for k in range(8) if value >> k & 1) for value in range(256))
_NONZERO = bytes([0] + [1] * 255)


def mask_indices(mask: int) -> list[int]:
    """Set bits of a non-negative int in increasing order.

    One ``to_bytes`` copy, and ``bytes.find`` over a nonzero-byte map to skip
    empty stretches, so the Python work is per set bit and per nonzero byte,
    never per bit of the whole mask.
    """
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    find = data.translate(_NONZERO).find
    out = []
    append = out.append
    p = find(1)
    while p >= 0:
        base = p << 3
        for k in _BYTE_BITS[data[p]]:
            append(base + k)
        p = find(1, p + 1)
    return out


def mask_text(mask: int, n: int) -> str:
    """An n-cell set as one '0'/'1' character per cell, cell 0 first.

    This text is the cell layout's one owner: a grid's cells run in rows of
    ``c``, rows in layers of ``b``, so a row is a slice of ``c`` characters.
    """
    return format(mask, f"0{n}b")[::-1]


def text_mask(text: str) -> int:
    """The bitset of a '0'/'1' text, cell 0 first: the inverse of ``mask_text``."""
    return int(text[::-1], 2)


def text_rows(text: str, width: int) -> list[str]:
    """The text cut into rows of ``width`` characters."""
    return [text[i:i + width] for i in range(0, len(text), width)]


def mask_of_indices(volume: int, indices: Iterable[int]) -> int:
    """Bitset of in-range indices, set in a byte buffer (linear in volume):
    the inverse of ``mask_indices``."""
    buf = bytearray((volume + 7) >> 3)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True, order=True)
class GridDims:
    """Side lengths (a, b, c) of the grid graph P_a x P_b x P_c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for side in (self.a, self.b, self.c):
            if not isinstance(side, int) or side < 1:
                raise GridError(f"side lengths must be positive integers, got {self}")
        if self.a * self.b * self.c > CELL_CAP:
            raise GridError(f"grid {self} exceeds the {CELL_CAP}-cell cap")

    @property
    def volume(self) -> int:
        return self.a * self.b * self.c

    @property
    def thickness(self) -> int:
        return min(self.a, self.b, self.c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def sorted(self) -> "GridDims":
        """Canonical form: sides in nondecreasing order."""
        return GridDims(*sorted(self.as_tuple()))

    def contains(self, cell: Cell) -> bool:
        x, y, z = cell
        return 1 <= x <= self.a and 1 <= y <= self.b and 1 <= z <= self.c

    def index(self, cell: Cell) -> int:
        if not self.contains(cell):
            raise GridError(f"cell {cell} outside grid {self}")
        x, y, z = cell
        return (x - 1) * self.b * self.c + (y - 1) * self.c + (z - 1)

    def cell(self, index: int) -> Cell:
        if not 0 <= index < self.volume:
            raise GridError(f"index {index} outside grid {self}")
        x, rest = divmod(index, self.b * self.c)
        y, z = divmod(rest, self.c)
        return (x + 1, y + 1, z + 1)

    def cells(self) -> Iterator[Cell]:
        return product(range(1, self.a + 1), range(1, self.b + 1), range(1, self.c + 1))

    def __str__(self) -> str:
        return f"{self.a}x{self.b}x{self.c}"

    @staticmethod
    def parse(text: str) -> "GridDims":
        parts = text.replace("x", " ").split()
        if len(parts) != 3:
            raise GridError(f"cannot parse dimensions from {text!r}")
        return GridDims(*(int(p) for p in parts))


def neighbours(dims: GridDims, cell: Cell) -> list[Cell]:
    """All grid-adjacent cells of ``cell`` (between 3 and 6 of them)."""
    if not dims.contains(cell):
        raise GridError(f"cell {cell} outside grid {dims}")
    x, y, z = cell
    out = []
    if x > 1:
        out.append((x - 1, y, z))
    if x < dims.a:
        out.append((x + 1, y, z))
    if y > 1:
        out.append((x, y - 1, z))
    if y < dims.b:
        out.append((x, y + 1, z))
    if z > 1:
        out.append((x, y, z - 1))
    if z < dims.c:
        out.append((x, y, z + 1))
    return out


@dataclass(frozen=True)
class CellSet:
    """An infected/seed set: immutable bitset over the cells of ``dims``."""

    dims: GridDims
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.dims.volume:
            raise GridError("mask has bits outside the grid")

    @staticmethod
    def empty(dims: GridDims) -> "CellSet":
        return CellSet(dims, 0)

    @staticmethod
    def full(dims: GridDims) -> "CellSet":
        return CellSet(dims, (1 << dims.volume) - 1)

    @staticmethod
    def from_cells(dims: GridDims, cells: Iterable[Cell]) -> "CellSet":
        return CellSet(dims, mask_of_indices(dims.volume, map(dims.index, cells)))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, cell: Cell) -> bool:
        return self.dims.contains(cell) and (self.mask >> self.dims.index(cell)) & 1 == 1

    def __or__(self, other: "CellSet") -> "CellSet":
        if other.dims != self.dims:
            raise GridError("cannot combine sets over different grids")
        return CellSet(self.dims, self.mask | other.mask)

    def cells(self) -> list[Cell]:
        return [self.dims.cell(i) for i in mask_indices(self.mask)]


# --- box symmetries -----------------------------------------------------------
#
# An orientation is (perm, flips): coordinate j of the image reads source
# coordinate perm[j], then flips[j] mirrors it.  Orientations are exactly the
# isometries between boxes, so they carry percolating sets to percolating sets.

Orientation = tuple[tuple[int, int, int], tuple[bool, bool, bool]]

IDENTITY: Orientation = ((0, 1, 2), (False, False, False))


def orientations(src: GridDims, dst: GridDims) -> list[Orientation]:
    """All orientations mapping a ``src`` box onto a ``dst`` box.

    Empty when the side multisets differ.  Identity comes first when it
    applies, then the rest in sorted order: ``CatalogEntry.reoriented`` uses
    the first, so which witness a lookup returns is fixed.
    """
    src_t = src.as_tuple()
    dst_t = dst.as_tuple()
    out = []
    for perm in permutations(range(3)):
        if tuple(src_t[perm[j]] for j in range(3)) != dst_t:
            continue
        for flips in product((False, True), repeat=3):
            out.append((perm, flips))
    out.sort(key=lambda o: (o != IDENTITY, o))
    return out


def _source_rows(dims: GridDims, orientation: Orientation) -> Iterator[slice]:
    """Per row of the oriented box, in index order, the slice of the source's
    index order that the row reads.

    Rows run along the image's last axis, which reads one source axis at a
    fixed stride, negated when that axis is mirrored.
    """
    perm, flips = orientation
    sides = dims.as_tuple()
    strides = (dims.b * dims.c, dims.c, 1)
    steps = [-strides[p] if f else strides[p] for p, f in zip(perm, flips)]
    origin = sum((sides[p] - 1) * strides[p] for p, f in zip(perm, flips) if f)
    n0, n1, n2 = (sides[p] for p in perm)
    for x, y in product(range(n0), range(n1)):
        start = origin + x * steps[0] + y * steps[1]
        stop = start + n2 * steps[2]
        yield slice(start, stop if stop >= 0 else None, steps[2])


def orient_set(cset: CellSet, orientation: Orientation) -> CellSet:
    """Apply a box isometry to a whole cell set, one row at a time."""
    perm, _ = orientation
    src_t = cset.dims.as_tuple()
    dst = GridDims(src_t[perm[0]], src_t[perm[1]], src_t[perm[2]])
    src = mask_text(cset.mask, cset.dims.volume)
    return CellSet(dst, text_mask("".join(src[s] for s in _source_rows(cset.dims, orientation))))


def orient_indices(dims: GridDims, orientation: Orientation) -> list[int]:
    """For each index of the oriented box, the ``dims`` index it reads: the
    inverse of the map ``orient_set`` applies to cells."""
    cells = range(dims.volume)
    return list(chain.from_iterable(cells[s] for s in _source_rows(dims, orientation)))


def automorphisms(dims: GridDims) -> list[Orientation]:
    """The grid's own symmetry group (up to 48 elements)."""
    return orientations(dims, dims)


@lru_cache(maxsize=256)
def orbit_minima(dims: GridDims) -> frozenset[int]:
    """Indices that are the smallest in their orbit under automorphisms.

    Used to restrict the first chosen cell in exhaustive search: the
    lexicographically least automorphic image of any set starts at an
    orbit-minimal cell.  The group holds every inverse, so the inverse maps
    from ``orient_indices`` trace the same orbits, and the least image of
    each index is the minimum of its orbit.
    """
    return frozenset(map(min, *(orient_indices(dims, g) for g in automorphisms(dims))))


def embed(cset: CellSet, target: GridDims, offset: tuple[int, int, int]) -> CellSet:
    """Copy a cell set into a larger grid, shifted by ``offset`` cells."""
    dx, dy, dz = offset
    sub = cset.dims
    if dx < 0 or dy < 0 or dz < 0 or sub.a + dx > target.a or sub.b + dy > target.b or sub.c + dz > target.c:
        raise GridError(f"{sub} at offset {offset} does not fit in {target}")
    # rows of c cells are copied into the target's rows, so the work is per
    # row and never per cell
    src = iter(text_rows(mask_text(cset.mask, sub.volume), sub.c))
    left, right = "0" * dz, "0" * (target.c - sub.c - dz)
    rows = ["0" * target.c] * (target.a * target.b)
    for x in range(dx, dx + sub.a):
        for y in range(dy, dy + sub.b):
            rows[x * target.b + y] = left + next(src) + right
    return CellSet(target, text_mask("".join(rows)))
