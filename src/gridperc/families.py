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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .bounds import Status, classify, surface_sum
from .catalog import CatalogEntry
from .engine import degree_pair_sum, neighbour_masks
from .grid import CellSet, GridDims
from .gridtext import ParseError, read_records, write_record
from .search import (
    AnnealParams,
    Schedule,
    SearchError,
    SearchMode,
    find_at_bound,
    fixed_point_scored,
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
        left, right = self.left, self.right
        mask = _splice(self.a * self.b, left.mask, left.dims.c, self.block.mask,
                       (c - self.min_c) // 6, right.mask, right.dims.c)
        return CellSet(GridDims(self.a, self.b, c), mask)


def _cut(mask: int, rows: int, width: int, seam: int) -> tuple[int, int]:
    """Each ``width``-bit row of ``mask`` split at column ``seam``: the left
    parts packed ``seam`` bits a row, and the right parts packed
    ``width - seam`` bits a row."""
    left = right = 0
    wr = width - seam
    for row in range(rows):
        bits = mask >> (row * width) & ((1 << width) - 1)
        left |= (bits & ((1 << seam) - 1)) << (row * seam)
        right |= bits >> seam << (row * wr)
    return left, right


def _splice(rows: int, left: int, wl: int, block: int, k: int, right: int, wr: int) -> int:
    """Per row, the row of ``left`` (``wl`` bits), k copies of the row of
    ``block`` (6 bits), then the row of ``right`` (``wr`` bits).  Any part
    may be 0, so parts can be spliced apart and OR-ed together."""
    c = wl + 6 * k + wr
    repeat = ((1 << 6 * k) - 1) // 63 << wl  # bit wl+6j set for j < k: k copies of a 6-bit row
    left_row, right_row, right_at = (1 << wl) - 1, (1 << wr) - 1, wl + 6 * k
    mask = 0
    for at in range(0, rows * c, c):
        mask |= (left & left_row | (block & 63) * repeat | (right & right_row) << right_at) << at
        left >>= wl
        block >>= 6
        right >>= wr
    return mask


def assemble_family(pattern: FamilyPattern, c: int) -> CatalogEntry:
    """Assembled, size-checked, simulation-verified perfect witness."""
    seeds = pattern.seed_set(c)
    dims = seeds.dims
    expected = surface_sum(dims) // 3
    if 3 * expected != surface_sum(dims):
        raise FamilyError(f"bound for {dims} is not an integer; bad family residue")
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
    m_target = surface_sum(mdims) // 3
    if 3 * m_target != surface_sum(mdims):
        raise SearchError(f"minimal instance {mdims} has non-integral bound")
    b_target = 2 * (a + b)
    rows = a * b

    inst_dims = [GridDims(a, b, min_c + 6 * k) for k in (1, 2)]
    scale = 2 * inst_dims[-1].volume + 1
    nodes = 0
    bnm = neighbour_masks(bdims)
    witness_parts: dict[tuple[int, int, int], int] = {}

    def assemble_mask(m_mask: int, b_mask: int, seam: int, k: int) -> int:
        """The witness cut at the seam column with k block copies spliced in.

        The witness's part is cached, since the witness stays pinned.
        """
        wr = min_c - seam
        part = witness_parts.get((m_mask, seam, k))
        if part is None:
            left, right = _cut(m_mask, rows, min_c, seam)
            part = witness_parts[(m_mask, seam, k)] = _splice(rows, left, seam, 0, k, right, wr)
        return part | _splice(rows, 0, seam, b_mask, k, 0, wr)

    def evaluate(m_mask: int, b_mask: int, seam: int, k: int) -> tuple[int, int, int]:
        """(objective, uninfected count, hole mask) of the k-copy instance."""
        nonlocal nodes
        dims = inst_dims[k - 1]
        mask = assemble_mask(m_mask, b_mask, seam, k)
        if degree_pair_sum(dims, CellSet(dims, mask)) > 0:
            # dependent assembly can never be perfect; heavy penalty
            return scale * dims.volume, dims.volume, 0
        final, uninf, prog = fixed_point_scored(dims, 3, mask)
        nodes += 1
        return uninf * scale - prog, uninf, ~final & ((1 << dims.volume) - 1)

    def random_block() -> int | None:
        order = list(range(b_n))
        rng.shuffle(order)
        mask = 0
        got = 0
        for i in order:
            if got == b_target:
                break
            if bnm[i] & mask == 0:
                mask |= 1 << i
                got += 1
        return mask if got == b_target else None

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
            b_mask = random_block()
            if b_mask is None:
                continue
            obj, uninf, hole = evaluate(m_mask, b_mask, seam, 1)
            schedule = Schedule(T_START, T_END, params.iterations, scale)
            for _ in range(params.iterations):
                if node_budget is not None and nodes >= node_budget:
                    raise SearchError(
                        f"family discovery budget exhausted for {fid} "
                        f"(best so far: {uninf} uninfected)"
                    )
                old = random_bit(rng, b_mask)
                new = None
                if hole and rng.random() < FRONTIER_BIAS:
                    new = hole_to_block(random_bit(rng, hole), seam)
                if new is None:
                    new = rng.randrange(b_n)
                if new == old or (b_mask >> new) & 1:
                    continue
                trial = (b_mask & ~(1 << old)) | (1 << new)
                t_obj, t_uninf, t_hole = evaluate(m_mask, trial, seam, 1)
                if schedule.step(rng, obj, t_obj):
                    b_mask = trial
                    obj, uninf, hole = t_obj, t_uninf, t_hole
                    if uninf == 0:
                        if evaluate(m_mask, b_mask, seam, 2)[1] != 0:
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
    left, right = _cut(m_mask, a * b, min_c, seam)
    return FamilyPattern(
        family_id=fid, a=a, b=b, residue=residue, min_c=min_c,
        left=CellSet(GridDims(a, b, seam), left),
        block=CellSet(GridDims(a, b, 6), b_mask),
        right=CellSet(GridDims(a, b, min_c - seam), right),
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


# The families with frozen patterns, by id: (a, b, residue mod 6, minimum c).
FAMILY_SPECS: dict[str, tuple[int, int, int, int]] = {
    fid: (p.a, p.b, p.residue, p.min_c) for fid, p in builtin_patterns().items()
}
