"""The planner's split enumeration against the generate-and-filter oracle.

``_generic_splits`` walks only the residue classes of c1 mod 3 that keep the
three parts off the origin integral.  The first split whose parts all plan
decides the witness, so the order of the splits is checked as well as their
set, and so are whole plan trees.
"""

import pytest

from gridperc import pipelines
from gridperc.bounds import Status
from gridperc.grid import GridDims
from gridperc.pipelines import Builder, _generic_splits

from oracle import generic_splits_brute

STATUSES = (Status.PERFECT, Status.OPTIMAL)


def _sorted_grids(n):
    return [(a, b, c) for a in range(1, n + 1) for b in range(a, n + 1) for c in range(b, n + 1)]


@pytest.mark.parametrize("status", STATUSES, ids=str)
def test_generic_splits_are_the_filtered_brute_list_in_order(status):
    for t in _sorted_grids(14):
        assert list(_generic_splits(t, status)) == generic_splits_brute(t, status), t


def test_plans_equal_plans_through_the_brute_enumeration(monkeypatch):
    grids = [GridDims(*t) for t in _sorted_grids(16)]
    fast = Builder()
    plans = [fast.plan(d, s) for d in grids for s in STATUSES]
    monkeypatch.setattr(pipelines, "_generic_splits", generic_splits_brute)
    brute = Builder()
    assert plans == [brute.plan(d, s) for d in grids for s in STATUSES]
