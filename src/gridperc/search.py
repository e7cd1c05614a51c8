"""Independent search oracles.

Two modes: exhaustive enumeration with pruning, proving exact minimum
percolating set sizes on tiny grids, and simulated annealing over fixed-size
seed sets, producing at-bound witnesses on mid-size grids (no minimality
claim).  Both are deterministic given their inputs and rng seed.

Pruning rests on the surface argument: 6|A|-n(A) never increases along the
r>=3 process, and equals 2(ab+ac+bc) on the full grid, so a percolating set
of size s satisfies n(A_0) <= 6s - 2(ab+ac+bc).  In particular an exact-bound
set must be independent, and a ceiling-bound set carries at most (ab+ac+bc)
mod 3 internal edges.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .bounds import lower_bound, surface_sum
from .engine import at_least, count_planes, fixed_point_mask, neighbour_masks
from .grid import (
    CellSet,
    GridDims,
    Orientation,
    automorphisms,
    orbit_minima,
    orient_indices,
)

EXHAUSTIVE_CELL_CAP = 30


class SearchError(ValueError):
    """Precondition violation (grid too large, target below the bound)."""


class SearchMode(enum.Enum):
    EXHAUSTIVE_PROVEN = "ExhaustiveProven"
    HEURISTIC_WITNESS = "HeuristicWitness"
    FAILED = "Failed"


@dataclass(frozen=True)
class SearchResult:
    dims: GridDims
    mode: SearchMode
    min_size: int | None
    witness: CellSet | None
    nodes_explored: int
    rng_seed: int | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def min_22c(c: int) -> int:
    """Minimum percolating set size on (2,2,c) grids.

    The closed form ceil((3c+1)/2), clipped from below at the surface lower
    bound ceil((4c+4)/3); the clip matters only at c = 3 (5 -> 6).  At c = 1
    the answer is the whole grid.  Proven by exhaustive search for c <= 7;
    from c = 8 on it is the closed form, which is not proven here.
    """
    if c < 1:
        raise SearchError("c must be positive")
    if c == 1:
        return 4  # 2x2x1 has maximum degree 2: no cell is ever infected
    return max((3 * c + 2) // 2, lower_bound(GridDims(2, 2, c))[1])


def min_exhaustive(dims: GridDims, r: int = 3, node_budget: int | None = None) -> SearchResult:
    """Proven minimum percolating set size, by enumeration with pruning.

    Candidate sizes run upward from the surface lower bound (for r >= 3;
    from 1 otherwise).  Subsets are enumerated in lexicographic cell order,
    pruned by the internal-edge allowance, by canonical-form symmetry checks
    on the first two chosen cells, and by closure: a partial set whose union
    with every later cell does not percolate has no percolating completion,
    since percolation is monotone.  ``nodes_explored`` counts the nodes left
    after pruning.  The first percolating candidate at the current size
    proves the minimum, since every smaller size was refuted (by the bound
    or exhaustively).
    """
    n = dims.volume
    if n > EXHAUSTIVE_CELL_CAP:
        raise SearchError(f"{dims} has {n} cells; exhaustive cap is {EXHAUSTIVE_CELL_CAP}")

    full = (1 << n) - 1
    nmasks = neighbour_masks(dims)
    # inverse maps, one per automorphism: the group holds every inverse
    autos = [orient_indices(dims, g) for g in automorphisms(dims)]
    first_cells = sorted(orbit_minima(dims))
    surface = 2 * surface_sum(dims)

    start = lower_bound(dims)[1] if r >= 3 else 1
    start = max(1, min(start, n))
    nodes = 0

    def pair_ok(i1: int, i2: int) -> bool:
        # no automorphism may map {i1, i2} to a lexicographically smaller pair
        for table in autos:
            a1, a2 = table[i1], table[i2]
            if a1 > a2:
                a1, a2 = a2, a1
            if (a1, a2) < (i1, i2):
                return False
        return True

    for size in range(start, n + 1):
        allowance = 6 * size - surface if r >= 3 else None
        if allowance is not None and allowance < 0:
            continue
        chosen: list[int] = []

        def extend(mask: int, pairs: int, last: int) -> int | None:
            """Returns a percolating mask or None; counts nodes via closure."""
            nonlocal nodes
            depth = len(chosen)
            if depth == size:
                nodes += 1
                final, _ = fixed_point_mask(dims, r, mask)
                return mask if final == full else None
            # candidates after `last`, leaving room for the rest
            for v in range(last + 1, n - (size - depth) + 1):
                if depth == 0 and v not in first_cells:
                    continue
                if depth == 1 and not pair_ok(chosen[0], v):
                    continue
                if allowance is not None:
                    delta = 2 * (nmasks[v] & mask).bit_count()
                    if pairs + delta > allowance:
                        continue
                else:
                    delta = 0
                if depth + 1 < size and fixed_point_mask(dims, r, mask | (full >> v << v))[0] != full:
                    # not even every cell from v on completes this set, and
                    # later v only shrink that superset: nothing below percolates
                    return None
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise _BudgetExhausted
                chosen.append(v)
                hit = extend(mask | (1 << v), pairs + delta, v)
                chosen.pop()
                if hit is not None:
                    return hit
            return None

        try:
            hit = extend(0, 0, -1)
        except _BudgetExhausted:
            return SearchResult(dims, SearchMode.FAILED, None, None, nodes)
        if hit is not None:
            return SearchResult(
                dims, SearchMode.EXHAUSTIVE_PROVEN, size, CellSet(dims, hit), nodes
            )
    # unreachable: the full grid always percolates
    raise AssertionError("enumeration exhausted without finding the full grid")


class _BudgetExhausted(Exception):
    pass


def fixed_point_scored(dims: GridDims, r: int, mask: int) -> tuple[int, int, int]:
    """(final mask, uninfected count, progress score).

    Progress counts, over uninfected cells at the fixed point, how many
    infected neighbours they already have (saturated at r-1); it breaks the
    plateaus of the raw uninfected count.  It is read off the neighbour count
    planes of the fixed point as the sum over j = 1..r-1 of the uninfected
    cells with at least j infected neighbours.
    """
    final, _ = fixed_point_mask(dims, r, mask)
    n = dims.volume
    uninfected = n - final.bit_count()
    if uninfected == 0:
        return final, 0, 0
    full = (1 << n) - 1
    hole = full ^ final
    planes = count_planes(dims, final)
    progress = 0
    for j in range(1, r):
        progress += (hole & at_least(j, planes, full)).bit_count()
    return final, uninfected, progress


def random_bit(rng: random.Random, mask: int) -> int:
    """Index of a uniformly chosen set bit of a nonzero mask (one rng draw)."""
    for _ in range(rng.randrange(mask.bit_count())):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


class Schedule:
    """Geometric cooling from t_start to t_end over ``iterations`` moves and the
    Metropolis test on integer objectives in units of ``scale``.  ``since``
    counts evaluated moves since the last strict improvement."""

    def __init__(self, t_start: float, t_end: float, iterations: int, scale: int):
        self.t_start = t_start
        self.temp = t_start
        self.cooling = (t_end / t_start) ** (1.0 / max(1, iterations - 1))
        self.scale = scale
        self.since = 0

    def step(self, rng: random.Random, obj: int, t_obj: int) -> bool:
        """Accept or reject a move from objective ``obj`` to ``t_obj``, then cool."""
        accept = t_obj <= obj
        if not accept and self.temp > 1e-9:
            # the hand-typed constant keeps seeded results (and the frozen
            # stores' rng-seed provenance) reproducible; math.e could flip one
            accept = rng.random() < pow(2.718281828, (obj - t_obj) / (self.scale * self.temp))
        self.since = 0 if accept and t_obj < obj else self.since + 1
        self.temp *= self.cooling
        return accept

    def reheat(self) -> None:
        """Raise the temperature to at least half of t_start and reset ``since``."""
        self.temp = max(self.temp, self.t_start * 0.5)
        self.since = 0


# The at-bound annealer cools from T_START to T_END, and a move resettles a
# seed inside the uninfected region with probability FRONTIER_BIAS.
T_START = 3.0
T_END = 0.05
FRONTIER_BIAS = 0.65


@dataclass(frozen=True)
class AnnealParams:
    """Annealing budget; defaults find (3,3,3) at bound in well under a second.

    On stagnation the temperature is reheated to half of T_START rather than
    restarting, up to the per-restart iteration budget.
    """

    restarts: int = 40
    iterations: int = 20_000
    stagnation: int = 4_000


def _orbits_under(dims: GridDims, symmetry: Orientation | None) -> list[tuple[int, ...]]:
    """Cell orbits under one involutive symmetry (singletons when None)."""
    if symmetry is None:
        return [(i,) for i in range(dims.volume)]
    if symmetry not in automorphisms(dims):
        raise SearchError(f"symmetry {symmetry} is not an automorphism of {dims}")
    image = orient_indices(dims, symmetry)
    if any(image[j] != i for i, j in enumerate(image)):
        raise SearchError(f"symmetry {symmetry} is not an involution")
    return [(i,) if j == i else (i, j) for i, j in enumerate(image) if j >= i]


def find_at_bound(
    dims: GridDims,
    target: int,
    r: int = 3,
    rng_seed: int = 0,
    params: AnnealParams | None = None,
    node_budget: int | None = None,
    symmetry: Orientation | None = None,
) -> SearchResult:
    """Stochastic local search for a percolating set of exactly ``target`` cells.

    Moves relocate one seed, preferring resettlement inside the uninfected
    region; candidates violating the internal-edge allowance are never
    generated.  Acceptance follows a geometric cooling schedule with restarts.
    Deterministic for a fixed rng_seed.

    With ``symmetry`` (an involutive grid automorphism), only seed sets fixed
    by it are explored and moves relocate whole cell orbits: half the search
    dimensions, at the cost of missing asymmetric witnesses.  Any other
    orientation raises SearchError: its cell pairs would not be orbits.
    """
    n = dims.volume
    _, ceil = lower_bound(dims)
    if r >= 3 and target < ceil:
        raise SearchError(f"target {target} below the lower bound ceiling {ceil} for {dims}")
    if target > n:
        raise SearchError(f"target {target} exceeds the {n}-cell grid")
    params = params or AnnealParams()
    max_edges = 3 * target - surface_sum(dims) if r >= 3 else None

    rng = random.Random(rng_seed)
    nmasks = neighbour_masks(dims)
    orbits = _orbits_under(dims, symmetry)
    orbit_mask = [sum(1 << i for i in orb) for orb in orbits]
    orbit_of = [0] * n
    for oi, orb in enumerate(orbits):
        for i in orb:
            orbit_of[i] = oi
    nodes = 0
    scale = 2 * n + 1  # objective = uninfected*scale - progress, all integer

    def added_edges(om: int, mask: int) -> int:
        # edges created by adding orbit bits `om` to `mask` (internal pairs too)
        total = 0
        m = om
        seen = 0
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            total += (nmasks[i] & (mask | seen)).bit_count()
            seen |= low
        return total

    def random_state() -> tuple[list[int], int, int] | None:
        """Greedy random fill by orbits: (orbit ids, mask, edge count)."""
        order = list(range(len(orbits)))
        rng.shuffle(order)
        picked: list[int] = []
        mask = 0
        edges = 0
        budget = max_edges if max_edges is not None else 3 * n
        # independent-first pass, then relax to the allowance
        for relax in (False, True):
            for oi in order:
                om = orbit_mask[oi]
                if om & mask:
                    continue
                size = om.bit_count()
                if mask.bit_count() + size > target:
                    continue
                delta = added_edges(om, mask)
                if (not relax and delta) or edges + delta > budget:
                    continue
                picked.append(oi)
                mask |= om
                edges += delta
                if mask.bit_count() == target:
                    return picked, mask, edges
        return None

    for _ in range(params.restarts):
        state = random_state()
        if state is None:
            continue
        picked, mask, edges = state
        final, uninf, prog = fixed_point_scored(dims, r, mask)
        nodes += 1
        obj = uninf * scale - prog
        if uninf == 0:
            return SearchResult(dims, SearchMode.HEURISTIC_WITNESS, None, CellSet(dims, mask), nodes, rng_seed)

        schedule = Schedule(T_START, T_END, params.iterations, scale)
        hole = ~final & ((1 << n) - 1)
        for _ in range(params.iterations):
            if node_budget is not None and nodes >= node_budget:
                break
            # propose: swap one chosen orbit for an unchosen one of equal size
            si = rng.randrange(len(picked))
            old_oi = picked[si]
            base = mask & ~orbit_mask[old_oi]
            base_edges = edges - added_edges(orbit_mask[old_oi], base)
            if hole and rng.random() < FRONTIER_BIAS:
                new_cell = random_bit(rng, hole)
            else:
                new_cell = rng.randrange(n)
            new_oi = orbit_of[new_cell]
            om = orbit_mask[new_oi]
            if new_oi == old_oi or om & base:
                continue
            if om.bit_count() != orbit_mask[old_oi].bit_count():
                continue  # keep the target size exact
            delta = added_edges(om, base)
            if max_edges is not None and base_edges + delta > max_edges:
                continue
            trial_mask = base | om
            t_final, t_uninf, t_prog = fixed_point_scored(dims, r, trial_mask)
            nodes += 1
            t_obj = t_uninf * scale - t_prog
            if schedule.step(rng, obj, t_obj):
                picked[si] = new_oi
                mask = trial_mask
                edges = base_edges + delta
                obj = t_obj
                hole = ~t_final & ((1 << n) - 1)
                if t_uninf == 0:
                    return SearchResult(
                        dims, SearchMode.HEURISTIC_WITNESS, None, CellSet(dims, mask), nodes, rng_seed
                    )
            if schedule.since > params.stagnation:
                schedule.reheat()
        if node_budget is not None and nodes >= node_budget:
            break

    return SearchResult(dims, SearchMode.FAILED, None, None, nodes, rng_seed)
