"""Lower bound, divisibility precondition, and seed-set classification.

A percolating set under the 3-neighbour process has at least (ab+ac+bc)/3
cells.  A grid is perfect when some percolating set meets the bound exactly,
optimal when some percolating set meets its ceiling.  All arithmetic here is
exact (integers / Fraction): no floats anywhere near the bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .engine import PercolationTrace, degree_pair_sum, fixed_point_mask, percolate
from .grid import CellSet, GridDims, GridError, mask_indices


class Status(enum.IntEnum):
    """Ordered: Perfect implies Optimal implies Percolating."""

    NOT_PERCOLATING = 0
    PERCOLATING = 1
    OPTIMAL = 2
    PERFECT = 3

    def __str__(self) -> str:
        return {
            Status.NOT_PERCOLATING: "NotPercolating",
            Status.PERCOLATING: "Percolating",
            Status.OPTIMAL: "Optimal",
            Status.PERFECT: "Perfect",
        }[self]

    @staticmethod
    def parse(text: str) -> "Status":
        for status in Status:
            if str(status).lower() == text.strip().lower():
                return status
        raise ValueError(f"unknown status {text!r}")


def surface_sum(dims: GridDims) -> int:
    """ab + ac + bc."""
    a, b, c = dims.as_tuple()
    return a * b + a * c + b * c


def lower_bound(dims: GridDims) -> tuple[Fraction, int]:
    """Exact (ab+ac+bc)/3 and its ceiling."""
    s = surface_sum(dims)
    return Fraction(s, 3), -(-s // 3)


def has_integral_bound(a: int, b: int, c: int) -> bool:
    """Whether 3 | ab+ac+bc, on plain side lengths."""
    return (a * b + a * c + b * c) % 3 == 0


def perfect_precondition(dims: GridDims) -> bool:
    """Whether 3 | ab+ac+bc, which holds exactly when two of a, b, c are
    divisible by three or all three lie in the same class mod 3.
    """
    return has_integral_bound(*dims.as_tuple())


@dataclass(frozen=True)
class Classification:
    """Outcome of simulating a seed set and comparing its size to the bound.

    ``status`` speaks only about this set: OPTIMAL means the set's size equals
    the ceiling of the bound, not that no smaller set exists (grid-level
    minimality is the search module's job).

    The set is simulated once, on first need.  When ``trace`` is read first,
    ``status``, ``percolates``, ``final`` and ``steps_taken`` are read off it;
    when one of those is read first, they come from the untraced fixed point,
    and ``trace`` is simulated only if it is read later.
    """

    dims: GridDims
    size: int
    lower_bound_exact: Fraction
    lower_bound_ceil: int
    seeds: CellSet = field(repr=False)
    r: int = field(repr=False)
    max_steps: int | None = field(repr=False)

    @cached_property
    def trace(self) -> PercolationTrace:
        return percolate(self.dims, self.r, self.seeds, self.max_steps)

    @cached_property
    def _outcome(self) -> tuple[int, int]:
        """(final mask, steps taken), off the trace if it was already read."""
        trace = self.__dict__.get("trace")
        if trace is not None:
            return trace.final_mask, trace.steps_taken
        return fixed_point_mask(self.dims, self.r, self.seeds.mask, self.max_steps)

    @property
    def percolates(self) -> bool:
        return self._outcome[0] == (1 << self.dims.volume) - 1

    @property
    def final(self) -> CellSet:
        return CellSet(self.dims, self._outcome[0])

    @property
    def steps_taken(self) -> int:
        return self._outcome[1]

    @property
    def status(self) -> Status:
        if not self.percolates:
            return Status.NOT_PERCOLATING
        if self.size == self.lower_bound_exact:
            return Status.PERFECT
        if self.size == self.lower_bound_ceil:
            return Status.OPTIMAL
        return Status.PERCOLATING


def classify(dims: GridDims, seeds: CellSet, r: int = 3, max_steps: int | None = None) -> Classification:
    """Size and bound now, the simulation on first need.

    Truncation raises (never silently NotPercolating): a run bounded by
    ``max_steps`` is simulated here, so it raises from this call.
    """
    if seeds.dims != dims:
        raise GridError("seed set belongs to a different grid")
    exact, ceil = lower_bound(dims)
    result = Classification(dims, len(seeds), exact, ceil, seeds, r, max_steps)
    if max_steps is not None:
        result.steps_taken  # simulated now, so a truncated run raises here
    return result


@dataclass(frozen=True)
class AuditReport:
    """Equality analysis of the surface quantity along one simulation.

    The three conditions hold together exactly when 6|A|-n(A) stays constant,
    which for a percolating set happens exactly at the size bound:
      (i)  the seeds form an independent set,
      (ii) every infected non-seed turned with exactly 3 previously infected
           neighbours,
      (iii) no two adjacent cells turned at the same step.
    """

    seeds_independent: bool
    all_exactly_three: bool
    no_adjacent_simultaneous: bool
    excess_infections: tuple[int, ...]  # cells that turned with > 3 prior neighbours
    adjacent_same_step: tuple[tuple[int, int], ...]

    @property
    def all_pass(self) -> bool:
        return self.seeds_independent and self.all_exactly_three and self.no_adjacent_simultaneous


def perfect_audit(trace: PercolationTrace, seeds: CellSet) -> AuditReport:
    """Check the three equality conditions on a finished r=3 trace.

    Each condition is a test on a mask: the seeds' internal edges, and the
    excess and same-step masks the trace keeps; the cell lists are built only
    for a condition that fails.
    """
    independent = degree_pair_sum(trace.dims, seeds) == 0
    excess = mask_indices(trace.excess_mask)
    # increasing i, then the +z, +y, +x neighbour: offsets grow in that order
    adjacent_pairs = sorted(
        (i, i + shift) for shift, plane in trace.adjacent_masks for i in mask_indices(plane)
    )
    return AuditReport(
        seeds_independent=independent,
        all_exactly_three=not excess,
        no_adjacent_simultaneous=not adjacent_pairs,
        excess_infections=tuple(excess),
        adjacent_same_step=tuple(adjacent_pairs),
    )
