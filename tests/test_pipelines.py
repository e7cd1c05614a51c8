from dataclasses import replace

import pytest

from gridperc.bounds import Status, classify, lower_bound, surface_sum
from gridperc.families import builtin_patterns
from gridperc.grid import GridDims
from gridperc.pipelines import Builder, Combine, DependencyError, Leaf


def test_perfect_resolves_thickness1(builder):
    entry = builder.perfect(GridDims(1, 7, 7))
    assert entry.size == 21
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_perfect_rejects_bad_thickness1(builder):
    with pytest.raises(DependencyError):
        builder.perfect(GridDims(1, 5, 5))


def test_perfect_rejects_nondivisible(builder):
    with pytest.raises(DependencyError):
        builder.perfect(GridDims(2, 3, 4))  # bound 26/3 is not an integer


def test_perfect_reorients_to_requested_dims(builder):
    entry = builder.perfect(GridDims(9, 2, 12))
    assert entry.dims == GridDims(9, 2, 12)
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_perfect_family_route(builder):
    entry = builder.perfect(GridDims(2, 5, 11))
    assert entry.provenance.startswith("family 2x5")
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_build_perfect_4_requires_congruence(builder):
    with pytest.raises(DependencyError):
        builder.build_perfect_4(5, 5)
    with pytest.raises(DependencyError):
        builder.build_perfect_4(6, 7)


@pytest.mark.parametrize(
    "b,c",
    [(6, 6), (10, 10), (9, 12), (4, 10), (7, 13), (12, 15)],
)
def test_build_perfect_4_cases(builder, b, c):
    entry = builder.build_perfect_4(b, c)
    assert entry.dims == GridDims(4, b, c)
    assert 3 * entry.size == surface_sum(entry.dims)
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_build_perfect_4_case1_even_odd_split(builder):
    # b=9, c=12 goes through the (6,6) split with four thickness-2 parts
    entry = builder.build_perfect_4(9, 12)
    assert entry.provenance == "combined"
    assert len(entry.children) == 4


def test_build_optimal_thickness_guard(builder):
    with pytest.raises(DependencyError):
        builder.build_optimal(6, 8, 9)


@pytest.mark.parametrize(
    "dims,size",
    [
        ((7, 7, 11), 68),
        ((8, 9, 10), 81),
        ((9, 10, 11), 100),
        ((10, 10, 10), 100),
    ],
)
def test_build_optimal_samples(builder, dims, size):
    entry = builder.build_optimal(*dims)
    result = classify(entry.dims, entry.seeds)
    assert result.status >= Status.OPTIMAL
    assert entry.size == size == lower_bound(GridDims(*dims))[1]


def test_build_optimal_677_special(builder):
    entry = builder.optimal(GridDims(6, 7, 7))
    assert entry.size == 45 == lower_bound(GridDims(6, 7, 7))[1]
    assert classify(entry.dims, entry.seeds).status is Status.OPTIMAL


def test_optimal_returns_perfect_when_divisible(builder):
    entry = builder.optimal(GridDims(9, 9, 9))
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def test_dependency_error_names_missing_grid(builder):
    # (3,15,15) is perfect-eligible but outside every route we have
    with pytest.raises(DependencyError) as err:
        builder.perfect(GridDims(3, 15, 15))
    assert err.value.dims.sorted() == GridDims(3, 15, 15)
    assert "3x15x15" in str(err.value)


def test_perfect_thickness5_substitute(builder):
    # thickness >= 5 perfect grids assemble recursively from the catalog
    entry = builder.perfect(GridDims(6, 6, 9))
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT
    entry = builder.perfect(GridDims(5, 6, 9))
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT


def _agreement_grids():
    """a <= b <= c <= 12 with an integer bound, then (4, b, c) up to c = 30."""
    grids = [
        (a, b, c) for a in range(1, 13) for b in range(a, 13) for c in range(b, 13)
    ]
    grids += [(4, b, c) for c in range(13, 31) for b in range(4, c + 1)]
    return [d for d in grids if surface_sum(GridDims(*d)) % 3 == 0]


def test_plan_agrees_with_builder(builder):
    # deciding that a grid is buildable and building it are one search
    for d in _agreement_grids():
        dims = GridDims(*d)
        planned = builder.plan(dims, Status.PERFECT) is not None
        try:
            entry = builder.perfect(dims)
        except DependencyError:
            built = False
        else:
            built = entry.dims == dims and 3 * entry.size == surface_sum(dims)
        assert planned == built, d


@pytest.mark.parametrize(
    "dims", [(20, 20, 21), (20, 21, 22), (30, 31, 32), (4, 6, 18)]
)
def test_former_gaps_build(builder, dims):
    dims = GridDims(*dims)
    entry = builder.optimal(dims)
    assert entry.size == lower_bound(dims)[1]
    assert classify(entry.dims, entry.seeds).status >= Status.OPTIMAL


def test_plan_reaches_cube_40(builder):
    plan = builder.plan(GridDims(40, 40, 40), Status.OPTIMAL)
    assert isinstance(plan, Combine)
    assert plan.status is Status.PERFECT


@pytest.mark.parametrize(
    "build,children",
    [
        (lambda b: b.build_perfect_4(9, 12),
         ("2x6x6:perfect", "2x3x6:perfect", "2x6x6:perfect", "2x3x6:perfect")),
        (lambda b: b.build_optimal(7, 7, 11),
         ("4x4x5:optimal", "3x3x5:perfect", "3x4x6:perfect", "3x4x6:perfect")),
        (lambda b: b.optimal(GridDims(6, 7, 7)),
         ("3x4x4:optimal", "3x3x4:perfect", "3x3x4:perfect", "3x3x3:perfect")),
    ],
    ids=["perfect-4x9x12", "optimal-7x7x11", "optimal-6x7x7"],
)
def test_paper_routes_are_preferred(builder, build, children):
    entry = build(builder)
    assert entry.provenance == "combined"
    assert entry.children == children


def test_builder_plans_a_family_from_a_custom_store():
    # the family list is the loaded store: an id the built-in store lacks is used
    copy = replace(builtin_patterns()["2x5"], family_id="2x5copy")
    builder = Builder(patterns={"2x5copy": copy})
    dims = GridDims(2, 5, 11)
    assert builder.plan(dims, Status.PERFECT) == Leaf(dims, Status.PERFECT, "family", ("2x5copy", 11))
    entry = builder.perfect(dims)
    assert entry.provenance == "family 2x5copy c=11"
    assert classify(entry.dims, entry.seeds).status is Status.PERFECT
