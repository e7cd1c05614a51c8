"""One-parameter periodic seed families.

A family pattern for cross-section (a, b) is a left boundary of wL columns,
a repeating block of exactly 6 columns carrying exactly 2(a+b) seeds, and a
right boundary of wR columns, with wL + wR = min_c.  Assembling k block
copies between the boundaries gives a seed set on (a, b, min_c + 6k) whose
size stays exactly at the (ab+ac+bc)/3 bound: the bound grows by
(6a+6b)/3 = 2(a+b) per six columns, which is one block's worth of seeds.

Patterns are discovered, not transcribed: simulated annealing runs directly
in pattern space, scoring each candidate by assembling and simulating the
three smallest admissible instances, so only patterns that actually repeat
survive.  Discovered patterns are frozen into a plain-text store.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .bounds import Status, classify, perfect_precondition, surface_sum
from .catalog import CatalogEntry
from .engine import edge_count_mask, neighbour_masks
from .grid import CellSet, GridDims, mask_text, text_mask, text_rows
from .gridtext import ParseError, read_records, write_record
from .search import (
    AnnealParams,
    Schedule,
    SearchError,
    SearchMode,
    find_at_bound,
    fixed_point_scored,
    greedy_fill,
    random_bit,
)


class FamilyError(ValueError):
    """Bad pattern, inadmissible c, or an assembly that fails verification."""


@dataclass(frozen=True)
class FamilyPattern:
    """Boundary columns plus a 6-column periodic block."""

    family_id: str
    a: int
    b: int
    residue: int
    min_c: int
    left: CellSet    # over (a, b, wL)
    block: CellSet   # over (a, b, 6)
    right: CellSet   # over (a, b, wR)
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if self.block.dims != GridDims(a, b, 6):
            raise FamilyError(f"block must span 6 columns of {a}x{b}, got {self.block.dims}")
        if len(self.block) != 2 * (a + b):
            raise FamilyError(
                f"block carries {len(self.block)} cells, needs exactly {2 * (a + b)}"
            )
        wl, wr = self.left.dims.c, self.right.dims.c
        if wl + wr != self.min_c:
            raise FamilyError(f"boundary widths {wl}+{wr} must equal min_c {self.min_c}")
        for part in (self.left, self.right):
            if part.dims.a != a or part.dims.b != b:
                raise FamilyError(f"boundary {part.dims} does not match {a}x{b}")
        if self.min_c % 6 != self.residue:
            raise FamilyError(f"min_c {self.min_c} not in residue class {self.residue} (mod 6)")

    def admissible(self, c: int) -> bool:
        return c >= self.min_c and c % 6 == self.residue

    def seed_set(self, c: int) -> CellSet:
        """Left boundary + repeated blocks + right boundary on (a, b, c)."""
        if not self.admissible(c):
            raise FamilyError(
                f"c={c} not admissible for family {self.family_id} "
                f"(needs c ≡ {self.residue} (mod 6), c >= {self.min_c})"
            )
        k = (c - self.min_c) // 6
        rows = zip(*(text_rows(mask_text(p.mask, p.dims.volume), p.dims.c)
                     for p in (self.left, self.block, self.right)))
        text = "".join([left + block * k + right for left, block, right in rows])
        return CellSet(GridDims(self.a, self.b, c), text_mask(text))


def _cut(mask: int, dims: GridDims, seam: int) -> list[tuple[str, str, int]]:
    """Per row of a set on ``dims``: its columns before ``seam``, its columns
    from ``seam`` on, and where the row's block row starts in a block's text."""
    rows = text_rows(mask_text(mask, dims.volume), dims.c)
    return [(row[:seam], row[seam:], 6 * i) for i, row in enumerate(rows)]


def _seam_touch(cuts: list[tuple[str, str, int]]) -> int:
    """Block cells beside a boundary seed in the one-copy instance of a cut
    witness: column 1 next to the left part's last column, column 6 next to
    the right part's first.  The parts of a perfect witness are independent
    and sit 6 columns apart, so a block makes that instance dependent exactly
    when it meets this mask or has an internal edge."""
    return text_mask("".join([f"{left[-1]}0000{right[0]}" for left, right, _ in cuts]))


def assemble_family(pattern: FamilyPattern, c: int) -> CatalogEntry:
    """Assembled, size-checked, simulation-verified perfect witness."""
    seeds = pattern.seed_set(c)
    dims = seeds.dims
    if not perfect_precondition(dims):
        raise FamilyError(f"bound for {dims} is not an integer; bad family residue")
    expected = surface_sum(dims) // 3
    if len(seeds) != expected:
        raise FamilyError(
            f"assembled size {len(seeds)} differs from the bound {expected} on {dims}"
        )
    result = classify(dims, seeds)
    if result.status is not Status.PERFECT:
        raise FamilyError(
            f"assembly of family {pattern.family_id} at c={c} is not perfect "
            f"({result.status}); pattern is bad"
        )
    entry = CatalogEntry(
        dims=dims,
        seeds=seeds,
        status=Status.PERFECT,
        provenance=f"family {pattern.family_id} c={c}",
        rng_seed=pattern.rng_seed,
        verified=True,
    )
    return entry


# The block annealer cools from T_START to T_END, and a move places a seed
# under an uninfected cell with probability FRONTIER_BIAS.  A hit is checked on
# VALIDATE_REPS further instances before it is returned.
T_START = 2.0
T_END = 0.02
FRONTIER_BIAS = 0.7
VALIDATE_REPS = 4


@dataclass(frozen=True)
class DiscoveryParams:
    restarts: int = 12
    iterations: int = 120_000
    stagnation: int = 20_000


def discover_family(
    a: int,
    b: int,
    residue: int,
    min_c: int,
    rng_seed: int = 0,
    params: DiscoveryParams | None = None,
    node_budget: int | None = None,
    family_id: str | None = None,
) -> FamilyPattern:
    """Search pattern space until the three smallest instances percolate perfectly.

    Two phases per restart.  First a perfect witness for the minimal instance
    (a, b, min_c) is found with the plain at-bound annealer; this pins the
    boundary columns.  Then, for each seam position splitting that witness
    into left/right boundaries, a 6-column block with exactly 2(a+b) seeds is
    annealed against the c = min_c+6 assembly, with placement biased into the
    block columns where it still has uninfected cells.  A hit must also
    percolate at c = min_c+12, and is then validated on further instances;
    a failure at either check resumes the search.
    """
    params = params or DiscoveryParams()
    if min_c % 6 != residue % 6:
        raise SearchError(f"min_c {min_c} not in residue class {residue} (mod 6)")
    fid = family_id or f"{a}x{b}"
    rng = random.Random(rng_seed)

    mdims = GridDims(a, b, min_c)  # minimal instance
    bdims = GridDims(a, b, 6)
    b_n = bdims.volume
    if not perfect_precondition(mdims):
        raise SearchError(f"minimal instance {mdims} has non-integral bound")
    m_target = surface_sum(mdims) // 3
    b_target = 2 * (a + b)

    inst_dims = [GridDims(a, b, min_c + 6 * k) for k in (1, 2)]
    scale = 2 * inst_dims[-1].volume + 1
    dependent = (scale * inst_dims[0].volume, inst_dims[0].volume, 0)
    nodes = 0
    bnm = neighbour_masks(bdims)

    def evaluate(cuts: list[tuple[str, str, int]], b_mask: int, k: int) -> tuple[int, int, int]:
        """(objective, uninfected count, hole mask) of the instance with k
        block copies between the witness's cut rows."""
        nonlocal nodes
        dims = inst_dims[k - 1]
        block = mask_text(b_mask, b_n)
        # this runs on every move the seam screen passes; an f-string builds a
        # row in one step, which beat `left + ... + right` measurably here
        mask = text_mask("".join([f"{left}{block[at:at + 6] * k}{right}" for left, right, at in cuts]))
        if edge_count_mask(dims, mask):
            # dependent assembly can never be perfect; heavy penalty
            return scale * dims.volume, dims.volume, 0
        final, uninf, prog = fixed_point_scored(dims, 3, mask)
        nodes += 1
        return uninf * scale - prog, uninf, ~final & ((1 << dims.volume) - 1)

    def hole_to_block(hole_cell: int, seam: int) -> int | None:
        """Map an uninfected cell of the one-copy instance into block coordinates."""
        c = inst_dims[0].c
        x, rest = divmod(hole_cell, b * c)
        y, z = divmod(rest, c)
        if seam <= z < seam + 6:
            return x * b * 6 + y * 6 + z - seam
        return None

    seams = list(range(1, min_c))

    for restart in range(params.restarts):
        # phase 1: pin the boundary with a fresh perfect minimal witness
        m_res = find_at_bound(
            mdims, m_target, rng_seed=rng.getrandbits(30),
            params=AnnealParams(restarts=20, iterations=40_000, stagnation=8_000),
        )
        if m_res.mode is not SearchMode.HEURISTIC_WITNESS:
            continue
        m_mask = m_res.witness.mask

        # phase 2: per seam, anneal the block on the one-copy instance
        for seam in seams:
            fill = greedy_fill(rng, bnm, b_target, 0)  # an independent block
            if fill is None:
                continue
            b_cells, b_mask, b_edges = fill
            b_cells.sort()
            cuts = _cut(m_mask, mdims, seam)
            touch = _seam_touch(cuts)
            obj, uninf, hole = evaluate(cuts, b_mask, 1)
            schedule = Schedule(T_START, T_END, params.iterations, scale)
            for _ in range(params.iterations):
                if node_budget is not None and nodes >= node_budget:
                    raise SearchError(
                        f"family discovery budget exhausted for {fid} "
                        f"(best so far: {uninf} uninfected)"
                    )
                si = rng.randrange(len(b_cells))  # the si-th set bit of b_mask
                old = b_cells[si]
                new = None
                if hole and rng.random() < FRONTIER_BIAS:
                    new = hole_to_block(random_bit(rng, hole), seam)
                if new is None:
                    new = rng.randrange(b_n)
                if new == old or (b_mask >> new) & 1:
                    continue
                base = b_mask ^ 1 << old
                t_edges = b_edges - (bnm[old] & base).bit_count() + (bnm[new] & base).bit_count()
                trial = base | 1 << new
                if trial & touch or t_edges:
                    t_obj, t_uninf, t_hole = dependent  # what evaluate would return
                else:
                    t_obj, t_uninf, t_hole = evaluate(cuts, trial, 1)
                if schedule.step(rng, obj, t_obj):
                    del b_cells[si]
                    insort(b_cells, new)
                    b_mask, b_edges = trial, t_edges
                    obj, uninf, hole = t_obj, t_uninf, t_hole
                    if uninf == 0:
                        if evaluate(cuts, b_mask, 2)[1] != 0:
                            # no progress, and no stagnation check until the next move
                            schedule.since += 1
                            continue
                        pattern = _pattern_from_masks(
                            fid, a, b, residue, min_c, seam, m_mask, b_mask, rng_seed
                        )
                        if _validate(pattern):
                            return pattern
                if schedule.since > params.stagnation:
                    break  # this seam looks hopeless with this witness

    raise SearchError(f"no pattern found for family {fid} within budget")


def _pattern_from_masks(
    fid: str, a: int, b: int, residue: int, min_c: int,
    seam: int, m_mask: int, b_mask: int, rng_seed: int,
) -> FamilyPattern:
    left, right, _ = zip(*_cut(m_mask, GridDims(a, b, min_c), seam))
    return FamilyPattern(
        family_id=fid, a=a, b=b, residue=residue, min_c=min_c,
        left=CellSet(GridDims(a, b, seam), text_mask("".join(left))),
        block=CellSet(GridDims(a, b, 6), b_mask),
        right=CellSet(GridDims(a, b, min_c - seam), text_mask("".join(right))),
        rng_seed=rng_seed,
    )


def _validate(pattern: FamilyPattern) -> bool:
    for k in range(3, 3 + VALIDATE_REPS):
        c = pattern.min_c + 6 * k
        try:
            assemble_family(pattern, c)
        except FamilyError:
            return False
    return True


# --- pattern store --------------------------------------------------------


_PARTS = ("left", "block", "right")


def write_patterns(patterns: list[FamilyPattern]) -> str:
    return "# gridperc family pattern store v1\n" + "".join(
        write_record("pattern", p.family_id, {
            "section": f"{p.a} {p.b}",
            "residue": f"{p.residue} mod 6",
            "min-c": p.min_c,
            "rng-seed": p.rng_seed,
        }, dict(zip(_PARTS, (p.left, p.block, p.right))))
        for p in sorted(patterns, key=lambda p: p.family_id)
    )


def parse_patterns(text: str) -> dict[str, FamilyPattern]:
    patterns: dict[str, FamilyPattern] = {}
    records = read_records(
        text, "pattern", _PARTS, required=("section", "residue", "min-c"), optional=("rng-seed",)
    )
    for line, fid, headers, parts in records:
        if fid in patterns:
            raise ParseError(f"duplicate pattern {fid!r}", line)
        try:
            a, b = (int(v) for v in headers["section"].split())
            rng_seed = headers.get("rng-seed")
            patterns[fid] = FamilyPattern(
                family_id=fid, a=a, b=b, residue=int(headers["residue"].split()[0]),
                min_c=int(headers["min-c"]), **parts,
                rng_seed=None if rng_seed is None else int(rng_seed),
            )
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad pattern record {fid!r}: {exc}", line) from None
    return patterns


def builtin_patterns() -> dict[str, FamilyPattern]:
    """Patterns shipped with the package (discovered and frozen)."""
    text = resources.files("gridperc.data").joinpath("families.txt").read_text(encoding="utf-8")
    return parse_patterns(text)


def load_patterns(path: str | Path) -> dict[str, FamilyPattern]:
    return parse_patterns(Path(path).read_text(encoding="utf-8"))


def save_patterns(patterns: dict[str, FamilyPattern], path: str | Path) -> None:
    Path(path).write_text(write_patterns(list(patterns.values())), encoding="utf-8")
