"""Construction pipelines: one memoized planner over octant composition.

``Builder.plan(dims, status)`` decides how a perfect or optimal witness for
dims is built and returns the decision as a tree: a ``Leaf`` (thickness-1
doubling, frozen catalog entry or periodic family) or a ``Combine`` of four
child plans placed in the octants of a split.  Plans are memoized over sorted
dims, so deciding that a grid is buildable and building it are one search:
``Builder.perfect``/``optimal`` execute the plan, and every witness they
return has been verified by simulation.

The paper's routes are the splits tried first: the thickness-4 congruence
splits with a1 = a2 = 2, the thickness-7/8/9 offsets with their collision
patch, and (6,7,7) as (3+3, 4+3, 4+3).  The generic search follows.  A split
can carry a witness only when the three parts off the origin have integral
bounds, and for fixed a1 and b1 that depends only on c1 mod 3; so the
generic search walks each axis middle-out and, for each (a1, b1), only the
residue classes of c1 that keep all three parts integral.  An optimal plan
is the perfect plan when the bound is an integer, else a catalog entry, else
an optimal corner combined with three perfect parts, over all corners.  A
grid no route reaches raises DependencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .bounds import Status
from .catalog import Catalog, CatalogEntry, builtin_catalog
from .combine import combine, octant_parts, thickness1_entry
from .families import FamilyPattern, assemble_family, builtin_patterns
from .grid import GridDims

Split = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


class DependencyError(RuntimeError):
    """No route produces a witness for the requested grid; names the grid."""

    def __init__(self, dims: GridDims, status: Status, detail: str = ""):
        self.dims = dims
        self.status = status
        suffix = f": {detail}" if detail else ""
        super().__init__(f"no {str(status).lower()} witness available for {dims}{suffix}")


@dataclass(frozen=True)
class Leaf:
    """A witness used whole: ``route`` is "thickness1" (``arg`` = k),
    "catalog", or "family" (``arg`` = (family id, c))."""

    dims: GridDims
    status: Status
    route: str
    arg: object = None


@dataclass(frozen=True)
class Combine:
    """Child plans for the four octant parts of ``split``, origin part first."""

    dims: GridDims
    status: Status
    split: Split
    children: tuple[Plan, Plan, Plan, Plan]


Plan = Leaf | Combine


@dataclass
class Builder:
    """Memoized planning and witness resolution over a catalog and family patterns.

    The catalog's keys and the patterns' sections are read once, here.
    """

    catalog: Catalog = field(default_factory=builtin_catalog)
    patterns: dict[str, FamilyPattern] = field(default_factory=builtin_patterns)

    def __post_init__(self) -> None:
        self._plans: dict[tuple[tuple[int, int, int], Status], Plan | None] = {}
        self._resolved: dict[tuple[tuple[int, int, int], Status], CatalogEntry] = {}
        self._catalogued = {(e.dims.sorted().as_tuple(), e.status) for e in self.catalog.entries.values()}
        self._sections: dict[tuple[int, int], list[str]] = {}
        for fid, pattern in self.patterns.items():
            self._sections.setdefault((pattern.a, pattern.b), []).append(fid)

    def perfect(self, dims: GridDims) -> CatalogEntry:
        """A verified perfect witness for dims, oriented to match them."""
        return self._build(dims, Status.PERFECT)

    def optimal(self, dims: GridDims) -> CatalogEntry:
        """A verified witness of status >= Optimal for dims."""
        return self._build(dims, Status.OPTIMAL)

    def build_perfect_4(self, b: int, c: int) -> CatalogEntry:
        """Thickness-4 perfect witness for (4, b, c), b <= c (swapped if not).

        Admissible when b >= 4 and b ≡ c ≡ 0 or 1 (mod 3); the planner tries
        the paper's (2+2, b1+b2, c1+c2) congruence split first.
        """
        b, c = sorted((b, c))
        if b < 4:
            raise DependencyError(GridDims(4, b, c), Status.PERFECT, "needs b >= 4")
        return self.perfect(GridDims(4, b, c))

    def build_optimal(self, a: int, b: int, c: int) -> CatalogEntry:
        """Optimal witness for thickness >= 7, on the sorted dims."""
        dims = GridDims(*sorted((a, b, c)))
        if dims.a < 7:
            raise DependencyError(dims, Status.OPTIMAL, "needs thickness >= 7")
        return self.optimal(dims)

    def plan(self, dims: GridDims, status: Status) -> Plan | None:
        """How to build a witness of status (Perfect or Optimal) for the
        sorted dims, or None when no route exists."""
        if status not in (Status.PERFECT, Status.OPTIMAL):
            raise ValueError(f"plans exist for Perfect and Optimal witnesses, not {status}")
        return self._plan(dims.sorted().as_tuple(), status)

    def _build(self, dims: GridDims, status: Status) -> CatalogEntry:
        plan = self.plan(dims, status)
        if plan is None:
            integral = _integral(*dims.as_tuple())
            detail = "bound is not an integer" if status is Status.PERFECT and not integral else ""
            raise DependencyError(dims, status, detail)
        return self._execute(plan).reoriented(dims)

    def _execute(self, plan: Plan) -> CatalogEntry:
        key = (plan.dims.as_tuple(), plan.status)
        if key in self._resolved:
            return self._resolved[key]
        if isinstance(plan, Combine):
            parts = octant_parts(plan.split)
            entry = combine(*(
                self._execute(child).reoriented(GridDims(*part))
                for child, part in zip(plan.children, parts)
            ))
        elif plan.route == "thickness1":
            entry = thickness1_entry(plan.arg)
        elif plan.route == "family":
            fid, c = plan.arg
            entry = assemble_family(self.patterns[fid], c).reoriented(plan.dims)
        else:
            entry = self.catalog.get(plan.dims, plan.status)
            entry = entry if entry.verified else entry.verify()
        self._resolved[key] = entry
        return entry

    def _family_match(self, t: tuple[int, int, int]) -> tuple[str, int] | None:
        """Family id and parameter c when some axis pairing matches a loaded pattern."""
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            for fid in self._sections.get((t[i], t[j]), ()):
                if self.patterns[fid].admissible(t[k]):
                    return fid, t[k]
        return None

    def _plan(self, t: tuple[int, int, int], status: Status) -> Plan | None:
        key = (t, status)
        if key not in self._plans:
            # parts are strictly smaller than the whole, so no cycle can occur
            self._plans[key] = self._search(t, status)
        return self._plans[key]

    def _search(self, t: tuple[int, int, int], status: Status) -> Plan | None:
        a, b, c = t
        integral = _integral(a, b, c)
        if status is Status.OPTIMAL and integral:
            return self._plan(t, Status.PERFECT)
        if status is Status.PERFECT:
            if not integral:
                return None
            if a == 1 and b == c and (b + 1) & b == 0:
                return Leaf(GridDims(a, b, c), status, "thickness1", b.bit_length())
        if (t, status) in self._catalogued:
            return Leaf(GridDims(a, b, c), status, "catalog")
        family = self._family_match(t) if status is Status.PERFECT else None
        if family is not None:
            return Leaf(GridDims(a, b, c), status, "family", family)
        plans = self._plans
        statuses = (Status.PERFECT,) * 3 + (status,)
        paper = [split for split in _paper_splits(t, status) if _integral_parts(split)]
        for split in chain(paper, _generic_splits(t, status)):
            children = []
            for part, part_status in zip(octant_parts(split)[::-1], statuses):
                key = (tuple(sorted(part)), part_status)
                child = plans[key] if key in plans else self._plan(*key)
                if child is None:
                    break
                children.append(child)
            else:
                return Combine(GridDims(a, b, c), status, split, tuple(children[::-1]))
        return None


def _integral(x: int, y: int, z: int) -> bool:
    """Whether an x*y*z grid has an integral bound (xy + xz + yz) / 3."""
    return (x * y + x * z + y * z) % 3 == 0


def _integral_parts(split: Split) -> bool:
    """Whether the three parts off the origin have integral bounds; the
    origin part's surface is then ≡ the whole's (mod 3)."""
    return all(_integral(*part) for part in octant_parts(split)[1:])


def _paper_splits(t: tuple[int, int, int], status: Status) -> list[Split]:
    """The paper's split for t, if it has one; tried before the generic search."""
    a, b, c = t
    if status is Status.PERFECT:
        if t == (4, 6, 6):
            return [((1, 3), (3, 3), (3, 3))]
        if a == 4 and b > 4 and c >= 10:
            # thickness-2 parts, chosen by the congruence and parity of b, c
            if b % 3 == 0:
                b1, c1 = (6, 6) if b != 6 and b % 2 != c % 2 else (3, 6)
            else:
                b1, c1 = (5, 8) if b % 2 == c % 2 and (b, c) != (10, 10) else (5, 5)
            return [((2, 2), (b1, b - b1), (c1, c - c1))]
        return []
    if t == (6, 7, 7):
        return [((3, 3), (4, 3), (4, 3))]
    if a == b == 7 and c % 6 == 5:
        c1 = 5 if c == 11 else 8
        return [((4, 3), (4, 3), (c1, c - c1))]
    if 7 <= a <= 9:
        # an optimal (a-3, b1, c1) corner; b - b1 ≡ c - c1 ≡ 3 (mod 6)
        allowed = (2, 4, 5, 7) if a == 9 else range(2, 8)
        b1, c1 = (next(v for v in allowed if (x - v) % 6 == 3) for x in (b, c))
        if b - b1 == 3 and c1 == 2:
            b1 -= 3  # collision: (3, b2, c1) would be the non-perfect (2,3,3)
        return [((a - 3, 3), (b1, b - b1), (c1, c - c1))]
    return []


def _generic_splits(t: tuple[int, int, int], status: Status):
    """Every split of t with ``_integral_parts``, middle-out on each axis.

    Swapping the halves of two axes permutes the four parts, so a perfect
    plan needs only a1 <= a2 and b1 <= b2; an optimal one, whose origin part
    is special, tries every corner.  For fixed a1 and b1 the surfaces of the
    parts (a2, b2, c1), (a2, b1, c2) and (a1, b2, c2) mod 3 depend only on
    c1 mod 3, so c1 walks only the admissible residue classes, in the same
    middle-out order.
    """
    a, b, c = t
    if status is Status.PERFECT:
        a_firsts, b_firsts = range(a // 2, 0, -1), range(b // 2, 0, -1)
    else:
        a_firsts, b_firsts = _middle_out(a)[0b111], _middle_out(b)[0b111]
    if not (a_firsts and b_firsts):
        return  # a thickness-1 grid: no split, and no ordering of 1 .. c-1 to build
    c_classes = _middle_out(c)
    for a1 in a_firsts:
        a2 = a - a1
        for b1 in b_firsts:
            b2 = b - b1
            keep = 0
            for r in range(3):
                if _integral(a2, b2, r) and _integral(a2, b1, c - r) and _integral(a1, b2, c - r):
                    keep |= 1 << r
            for c1 in c_classes[keep]:
                yield (a1, a2), (b1, b2), (c1, c - c1)


@lru_cache(maxsize=64)
def _middle_out(n: int) -> tuple[tuple[int, ...], ...]:
    """1 .. n-1 from the middle outwards, restricted to each set of residues
    mod 3: entry ``keep`` holds the i with bit ``i % 3`` of keep set, so
    entry 0b111 is the whole order."""
    order = sorted(range(1, n), key=lambda i: abs(2 * i - n))
    return tuple(tuple(i for i in order if keep >> i % 3 & 1) for keep in range(8))
