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
from .engine import cut_count_mask, fixed_point_mask, neighbour_masks
from .grid import CellSet, GridDims, automorphisms, orbit_minima, orient_indices

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
    from 1 for r = 1, 2, and from 0 for r <= 0, where the empty set fills
    the grid in one step).  Subsets are enumerated in lexicographic cell order,
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

    start = lower_bound(dims)[1] if r >= 3 else 1 if r >= 1 else 0
    start = min(start, n)
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
    plateaus of the raw uninfected count.  At a fixed point no uninfected
    cell has r infected neighbours, so nothing saturates and the sum is the
    number of grid edges with exactly one end infected, for every r.
    """
    final, _ = fixed_point_mask(dims, r, mask)
    return final, dims.volume - final.bit_count(), cut_count_mask(dims, final)


def random_bit(rng: random.Random, mask: int) -> int:
    """Index of a uniformly chosen set bit of a nonzero mask (one rng draw).

    The draw k picks the k-th set bit from the bottom, found by halving the
    mask: its low half keeps that bit if it holds more than k set bits, else
    the mask drops that half and k drops by its count.  At k = 0 the bit is
    the lowest one left.
    """
    k = rng.randrange(mask.bit_count())
    index = 0
    while k:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        count = low.bit_count()
        if k < count:
            mask = low
        else:
            k -= count
            mask >>= half
            index += half
    return index + (mask & -mask).bit_length() - 1


def greedy_fill(
    rng: random.Random, nmasks: list[int], target: int, max_edges: int
) -> tuple[list[int], int, int] | None:
    """A random ``target``-cell set with at most ``max_edges`` internal edges,
    as (cells in pick order, mask, edge count), or None if the fill falls short.

    One shuffle of the cells orders two passes: the first takes each cell with
    no neighbour taken yet, the second each cell the allowance still admits.
    At ``max_edges`` 0 the second pass takes nothing, since a cell's neighbour
    count in the set only grows, so the set is independent.
    """
    order = list(range(len(nmasks)))
    rng.shuffle(order)
    picked: list[int] = []
    mask = 0
    edges = 0
    for relax in (False, True):
        for i in order:
            if mask >> i & 1:
                continue
            delta = (nmasks[i] & mask).bit_count()
            if (not relax and delta) or edges + delta > max_edges:
                continue
            picked.append(i)
            mask |= 1 << i
            edges += delta
            if len(picked) == target:
                return picked, mask, edges
    return None


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


def find_at_bound(
    dims: GridDims,
    target: int,
    r: int = 3,
    rng_seed: int = 0,
    params: AnnealParams | None = None,
    node_budget: int | None = None,
) -> SearchResult:
    """Stochastic local search for a percolating set of exactly ``target`` cells.

    Moves relocate one seed, preferring resettlement inside the uninfected
    region; candidates violating the internal-edge allowance are never
    generated.  Acceptance follows a geometric cooling schedule with restarts.
    Deterministic for a fixed rng_seed.
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
    nodes = 0
    scale = 2 * n + 1  # objective = uninfected*scale - progress, all integer

    for _ in range(params.restarts):
        fill = greedy_fill(rng, nmasks, target, 3 * n if max_edges is None else max_edges)
        if fill is None:
            continue
        picked, mask, edges = fill
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
            # propose: move one chosen cell to an unchosen one
            si = rng.randrange(len(picked))
            old_cell = picked[si]
            base = mask & ~(1 << old_cell)
            base_edges = edges - (nmasks[old_cell] & base).bit_count()
            if hole and rng.random() < FRONTIER_BIAS:
                new_cell = random_bit(rng, hole)
            else:
                new_cell = rng.randrange(n)
            if new_cell == old_cell or base >> new_cell & 1:
                continue
            delta = (nmasks[new_cell] & base).bit_count()
            if max_edges is not None and base_edges + delta > max_edges:
                continue
            trial_mask = base | 1 << new_cell
            t_final, t_uninf, t_prog = fixed_point_scored(dims, r, trial_mask)
            nodes += 1
            t_obj = t_uninf * scale - t_prog
            if schedule.step(rng, obj, t_obj):
                picked[si] = new_cell
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
