"""Infection timeline extraction.

A milestone is the first step at which a named region of the grid is fully
infected.  For one-parameter families, milestones measured on several
instances are fitted to an exact affine function of the parameter (rational
coefficients, exact fit required), matching how the constructions' timelines
scale with the long side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .engine import PercolationTrace
from .grid import CELL_CAP, Cell, GridDims, text_mask

RegionPredicate = Callable[[Cell], bool]


@dataclass(frozen=True)
class Region:
    """A named set of cells given by a membership predicate.

    A box region also carries its inclusive corners (lo, hi), which may reach
    past the grid; extraction then reads it as a bitset, clipped to the
    grid, against the trace's time planes instead of asking the predicate
    cell by cell.
    """

    name: str
    predicate: RegionPredicate
    corners: tuple[Cell, Cell] | None = None

    @staticmethod
    def box(name: str, lo: Cell, hi: Cell) -> "Region":
        def inside(cell: Cell) -> bool:
            return all(lo[i] <= cell[i] <= hi[i] for i in range(3))

        return Region(name, inside, (lo, hi))

    @staticmethod
    def layer(x: int) -> "Region":
        return Region(f"layer {x}", lambda cell: cell[0] == x, ((x, 1, 1), (x, CELL_CAP, CELL_CAP)))

    @staticmethod
    def full(dims: GridDims) -> "Region":
        return Region("full grid", lambda cell: True, ((1, 1, 1), (CELL_CAP,) * 3))


@dataclass(frozen=True)
class Milestone:
    """First time a region is fully infected; None when it never is."""

    region: str
    time: int | None

    @property
    def completed(self) -> bool:
        return self.time is not None


def extract_milestones(trace: PercolationTrace, regions: Sequence[Region]) -> list[Milestone]:
    """Completion time per region, ordered by time (incomplete regions last).

    A box region is read off the trace's bit planes: it is incomplete if it
    meets a never-infected cell, and otherwise completes at the largest
    time in it, taken plane by plane from the top.  A predicate region is
    walked cell by cell over ``infection_time``.
    """
    out = []
    for region in regions:
        if region.corners is None:
            inside = region.predicate
            run = [t for cell, t in zip(trace.dims.cells(), trace.infection_time) if inside(cell)]
            time = None if None in run else max(run, default=0)
        else:
            box = _box_mask(trace.dims, region.corners)
            time = None if box & ~trace.final_mask else _max_time(trace.time_planes, box)
        out.append(Milestone(region.name, time))
    out.sort(key=lambda m: (m.time is None, m.time if m.time is not None else 0))
    return out


def _max_time(time_planes: Sequence[int], cells: int) -> int:
    """The largest time among ``cells``, bit k in ``time_planes[k]``: from the
    top plane down, keep the cells with the bit set whenever any has it."""
    time = 0
    for k in range(len(time_planes) - 1, -1, -1):
        high = cells & time_planes[k]
        if high:
            time |= 1 << k
            cells = high
    return time


def _box_mask(dims: GridDims, corners: tuple[Cell, Cell]) -> int:
    """The bitset of the cells between corners, clipped to the grid, from
    the '0'/'1' text of its rows."""
    pieces = []
    at = 0
    for start, stop in _box_runs(dims, corners):
        pieces += ("0" * (start - at), "1" * (stop - start))
        at = stop
    return text_mask("".join(pieces) or "0")


def _box_runs(dims: GridDims, corners: tuple[Cell, Cell]) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of the cells between corners, clipped to
    the grid, one per row; rows that meet end to end are merged."""
    sides = dims.as_tuple()
    lo = [max(v, 1) for v in corners[0]]
    hi = [min(v, side) for v, side in zip(corners[1], sides)]
    if any(l > h for l, h in zip(lo, hi)):
        return []
    _, b, c = sides
    runs: list[tuple[int, int]] = []
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            row = ((x - 1) * b + y - 1) * c
            start, stop = row + lo[2] - 1, row + hi[2]
            if runs and runs[-1][1] == start:
                start = runs.pop()[0]
            runs.append((start, stop))
    return runs


@dataclass(frozen=True)
class AffineFit:
    """Exact t(c) = slope * c + intercept over the sampled parameters."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, c: int) -> Fraction:
        return self.slope * c + self.intercept

    def __str__(self) -> str:
        return f"t(c) = {self.slope}*c + {self.intercept}"


def fit_affine(samples: Sequence[tuple[int, int]]) -> AffineFit:
    """Degree-1 rational fit through all samples; raises unless exact.

    Needs at least two samples; every further sample must land exactly on the
    line, otherwise the milestone does not scale affinely and ValueError says
    which sample broke.
    """
    if len(samples) < 2:
        raise ValueError("need at least two (parameter, time) samples")
    (c0, t0), (c1, t1) = samples[0], samples[1]
    if c0 == c1:
        raise ValueError("samples must have distinct parameters")
    slope = Fraction(t1 - t0, c1 - c0)
    intercept = Fraction(t0) - slope * c0
    fit = AffineFit(slope, intercept)
    for c, t in samples[2:]:
        if fit(c) != t:
            raise ValueError(
                f"sample (c={c}, t={t}) is off the line {fit}; fit is not exact"
            )
    return fit
