"""Family assembly against the per-part reference in ``tests/oracle.py``.

``seed_set`` splices each row as left | block x k | right, and discovery cuts
its pinned witness at the seam with the same row-wise code; these tests hold
both to ``family_seed_set_brute``, which embeds one part at a time.
Discovery's seam screen is held to the edge count of the instance it skips.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.engine import edge_count_mask, neighbour_masks
from gridperc.families import FamilyPattern, _cut, _pattern_from_masks, _seam_touch, builtin_patterns
from gridperc.grid import CellSet, GridDims

from oracle import family_seed_set_brute, from_indices

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def test_builtin_seed_sets_match_brute():
    for fid, pattern in sorted(builtin_patterns().items()):
        for c in range(pattern.min_c, pattern.min_c + 6 * 20 + 1, 6):
            assert pattern.seed_set(c) == family_seed_set_brute(pattern, c), (fid, c)


@st.composite
def random_patterns(draw):
    """Random boundary masks of width 1..6 and a random block with exactly
    2(a+b) seeds on a section up to 4x7.  A part must span at least one
    column, since a grid side is at least 1."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    wl, wr = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    left, right = (
        CellSet(GridDims(a, b, w), draw(st.integers(0, (1 << a * b * w) - 1))) for w in (wl, wr)
    )
    cells = draw(st.permutations(range(a * b * 6)))[: 2 * (a + b)]
    block = from_indices(GridDims(a, b, 6), cells)
    min_c = wl + wr
    return FamilyPattern("random", a, b, min_c % 6, min_c, left, block, right)


@PROPERTY
@given(random_patterns(), st.integers(0, 6))
def test_seed_set_matches_brute(pattern, k):
    c = pattern.min_c + 6 * k
    assert pattern.seed_set(c) == family_seed_set_brute(pattern, c)


@PROPERTY
@given(random_patterns())
def test_minimal_instance_cuts_back_into_its_pattern(pattern):
    cut = _pattern_from_masks(
        pattern.family_id, pattern.a, pattern.b, pattern.residue, pattern.min_c,
        pattern.left.dims.c, pattern.seed_set(pattern.min_c).mask, pattern.block.mask, None,
    )
    assert cut == pattern


def _draw_set(draw, dims: GridDims, independent: bool) -> int:
    """A mask on ``dims`` drawn cell by cell, thinned in index order to an
    independent set when asked."""
    cells = draw(st.lists(st.booleans(), min_size=dims.volume, max_size=dims.volume))
    nbrs = neighbour_masks(dims)
    mask = 0
    for i, pick in enumerate(cells):
        if pick and not (independent and nbrs[i] & mask):
            mask |= 1 << i
    return mask


@st.composite
def seam_cases(draw):
    """A section up to 4x7, a witness on (a, b, min_c) that is independent,
    as discovery's pinned perfect witness is, a seam inside it, and a block
    that is independent or not."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    min_c = draw(st.integers(2, 12))
    witness = _draw_set(draw, GridDims(a, b, min_c), True)
    block = _draw_set(draw, GridDims(a, b, 6), draw(st.booleans()))
    return a, b, min_c, witness, draw(st.integers(1, min_c - 1)), block


@PROPERTY
@given(seam_cases())
def test_seam_screen_rejects_exactly_the_dependent_instances(case):
    a, b, min_c, witness, seam, block = case
    touch = _seam_touch(_cut(witness, GridDims(a, b, min_c), seam))
    screened = bool(block & touch) or edge_count_mask(GridDims(a, b, 6), block) > 0
    # the one-copy instance, cell by cell: six block columns inserted at the seam
    cells = [(x, y, z if z <= seam else z + 6) for x, y, z in CellSet(GridDims(a, b, min_c), witness).cells()]
    cells += [(x, y, z + seam) for x, y, z in CellSet(GridDims(a, b, 6), block).cells()]
    inst_dims = GridDims(a, b, min_c + 6)
    assert screened == (edge_count_mask(inst_dims, CellSet.from_cells(inst_dims, cells).mask) > 0)
