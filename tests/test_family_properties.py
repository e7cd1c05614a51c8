"""Family assembly against the per-part reference in ``tests/oracle.py``.

``seed_set`` splices each row as left | block x k | right, and discovery cuts
its pinned witness at the seam with the same row-wise code; these tests hold
both to ``family_seed_set_brute``, which embeds one part at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridperc.families import FamilyPattern, _pattern_from_masks, builtin_patterns
from gridperc.grid import CellSet, GridDims

from oracle import family_seed_set_brute

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
    block = CellSet.from_indices(GridDims(a, b, 6), cells)
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
