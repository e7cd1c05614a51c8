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
from .grid import Cell, GridDims

RegionPredicate = Callable[[Cell], bool]


@dataclass(frozen=True)
class Region:
    """A named set of cells given by a membership predicate."""

    name: str
    predicate: RegionPredicate

    @staticmethod
    def box(name: str, lo: Cell, hi: Cell) -> "Region":
        def inside(cell: Cell) -> bool:
            return all(lo[i] <= cell[i] <= hi[i] for i in range(3))

        return Region(name, inside)

    @staticmethod
    def layer(x: int) -> "Region":
        return Region(f"layer {x}", lambda cell: cell[0] == x)

    @staticmethod
    def full(dims: GridDims) -> "Region":
        return Region("full grid", lambda cell: True)


@dataclass(frozen=True)
class Milestone:
    """First time a region is fully infected; None when it never is."""

    region: str
    time: int | None

    @property
    def completed(self) -> bool:
        return self.time is not None


def extract_milestones(trace: PercolationTrace, regions: Sequence[Region]) -> list[Milestone]:
    """Completion time per region, ordered by time (incomplete regions last)."""
    out = []
    for region in regions:
        inside = region.predicate
        times = [t for cell, t in zip(trace.dims.cells(), trace.infection_time) if inside(cell)]
        out.append(Milestone(region.name, None if None in times else max(times, default=0)))
    out.sort(key=lambda m: (m.time is None, m.time if m.time is not None else 0))
    return out


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
