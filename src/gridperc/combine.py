"""Recursive witness composition.

Four witnesses for boxes (a1,b1,c1), (a2,b2,c1), (a2,b1,c2), (a1,b2,c2) are
placed in alternating corner octants of the (a1+a2, b1+b2, c1+c2) grid; each
empty octant then borders three fully infected faces and fills in a diagonal
wave.  When the three off-origin parts are perfect, the combined set is
perfect if the origin part is perfect, optimal if it is optimal, and its size
is the sum of the part sizes (octants are disjoint).

The thickness-1 doubling also lives here: four (1, m, m) witnesses in the
quadrants of the (1, 2m+1, 2m+1) grid plus one centre seed.
"""

from __future__ import annotations

from .bounds import Status, classify
from .catalog import CatalogEntry, check_size
from .grid import CellSet, GridDims, GridError, embed


class CombineError(RuntimeError):
    """The placed parts do not percolate the summed grid at p1's status."""


def octant_parts(split: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int, int], ...]:
    """Sides of the parts p1..p4 for split ((a1, a2), (b1, b2), (c1, c2))."""
    (a1, a2), (b1, b2), (c1, c2) = split
    return (a1, b1, c1), (a2, b2, c1), (a2, b1, c2), (a1, b2, c2)


def combine(
    p1: CatalogEntry,
    p2: CatalogEntry,
    p3: CatalogEntry,
    p4: CatalogEntry,
) -> CatalogEntry:
    """Compose four part witnesses into one for the summed grid.

    Parts must match the octant pattern: p1 on (a1,b1,c1), p2 on (a2,b2,c1),
    p3 on (a2,b1,c2), p4 on (a1,b2,c2); p2..p4 perfect, p1 perfect or optimal.
    Each part is placed as given: by monotonicity it still fills its octant,
    and each empty octant then borders three full ones and fills, so no other
    orientation of a part is ever needed.  The union is simulated once.
    """
    parts = (p1, p2, p3, p4)
    for part in parts[1:]:
        if part.status is not Status.PERFECT:
            raise GridError(f"part {part.key} must be perfect")
    if p1.status not in (Status.PERFECT, Status.OPTIMAL):
        raise GridError(f"origin part {p1.key} must be perfect or optimal")

    a1, b1, c1 = p1.dims.as_tuple()
    a2 = p2.dims.a
    b2 = p2.dims.b
    if p2.dims.c != c1:
        raise GridError(f"p2 {p2.dims} must share c={c1} with p1")
    if p3.dims.as_tuple() != (a2, b1, p3.dims.c):
        raise GridError(f"p3 {p3.dims} must be ({a2},{b1},c2)")
    c2 = p3.dims.c
    if p4.dims.as_tuple() != (a1, b2, c2):
        raise GridError(f"p4 {p4.dims} must be ({a1},{b2},{c2})")

    target = GridDims(a1 + a2, b1 + b2, c1 + c2)
    status = p1.status
    offsets = ((0, 0, 0), (a1, b1, 0), (a1, 0, c1), (0, b1, c1))
    union = CellSet.empty(target)
    for part, offset in zip(parts, offsets):
        union = union | embed(part.seeds, target, offset)
    if len(union) != sum(part.size for part in parts):
        raise GridError("octants overlap; placement is inconsistent")
    result = classify(target, union)
    if result.status < status:
        raise CombineError(
            f"combined {target} from parts {[p.key for p in parts]} classifies as "
            f"{result.status}: {target.volume - len(result.final)} cells never infected"
        )
    entry = CatalogEntry(
        dims=target,
        seeds=union,
        status=status,
        provenance="combined",
        children=tuple(part.key for part in parts),
        verified=True,
    )
    if not check_size(entry):
        raise CombineError(
            f"combined {target} witness has size {entry.size}, "
            f"inconsistent with status {status}"
        )
    return entry


def thickness1_entry(k: int) -> CatalogEntry:
    """Perfect witness for (1, 2^k - 1, 2^k - 1), size (4^k - 1) / 3.

    Recursive doubling: four copies of the (2^(k-1) - 1) witness in the
    quadrants plus one centre seed; the centre lets the separating cross fill
    after the quadrants complete.  Every level is verified by simulation.
    """
    if k < 1:
        raise GridError("k must be >= 1")
    m = (1 << k) - 1
    dims = GridDims(1, m, m)

    if k == 1:
        seeds = CellSet.from_cells(dims, [(1, 1, 1)])
    else:
        prev = thickness1_entry(k - 1)
        pm = (1 << (k - 1)) - 1
        quads = CellSet.empty(dims)
        for dy, dz in ((0, 0), (0, pm + 1), (pm + 1, 0), (pm + 1, pm + 1)):
            quads = quads | embed(prev.seeds, dims, (0, dy, dz))
        centre = CellSet.from_cells(dims, [(1, pm + 1, pm + 1)])
        seeds = quads | centre

    entry = CatalogEntry(
        dims=dims,
        seeds=seeds,
        status=Status.PERFECT,
        provenance=f"thickness1 k={k}",
        verified=False,
    )
    return entry.verify()
