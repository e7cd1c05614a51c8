import random

import pytest

from gridperc.bounds import Status
from gridperc.catalog import Catalog, CatalogEntry, CatalogError
from gridperc.engine import percolate
from gridperc.families import builtin_patterns, parse_patterns, write_patterns
from gridperc.grid import CellSet, GridDims
from gridperc.gridtext import (
    ParseError,
    parse_set,
    render_trace,
    strip_times,
    write_set,
)

DIAMOND = [(1, 1, 1), (1, 1, 3), (1, 2, 2), (1, 3, 1), (1, 3, 3)]


def test_write_parse_identity_randomized():
    rng = random.Random(200)
    for _ in range(200):
        dims = GridDims(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 6))
        cells = [c for c in dims.cells() if rng.random() < rng.uniform(0, 0.7)]
        cset = CellSet.from_cells(dims, cells)
        parsed_dims, parsed = parse_set(write_set(cset))
        assert parsed_dims == dims
        assert parsed.mask == cset.mask


def test_layer_block_layout():
    dims = GridDims(2, 2, 3)
    cset = CellSet.from_cells(dims, [(1, 1, 1), (2, 2, 3)])
    assert write_set(cset) == "X..\n...\n\n...\n..X\n"


@pytest.mark.parametrize(
    "text",
    [
        "",                      # empty
        "X..\n..\n",             # ragged row
        "X.Q\n...\n",            # unknown glyph
        "X..\n...\n\n...\n",     # inconsistent layer shape
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_set(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_set("X..\n.?.\n")
    assert err.value.line == 2


def test_render_glyphs_and_strip_roundtrip():
    dims = GridDims(1, 3, 3)
    seeds = CellSet.from_cells(dims, DIAMOND)
    text = render_trace(percolate(dims, 3, seeds))
    assert text == "X1X\n1X1\nX1X\n"
    stripped_dims, stripped = parse_set(strip_times(text))
    assert stripped_dims == dims
    assert stripped.mask == seeds.mask


def test_render_never_infected_glyph():
    dims = GridDims(1, 1, 3)
    seeds = CellSet.from_cells(dims, [(1, 1, 2)])
    text = render_trace(percolate(dims, 3, seeds))
    assert text == "#X#\n"


def test_render_base36_and_overflow():
    # a long path under r=1 infects one cell per step: times grow past 9 and 35
    dims = GridDims(1, 1, 40)
    seeds = CellSet.from_cells(dims, [(1, 1, 1)])
    text = render_trace(percolate(dims, 1, seeds)).strip()
    assert text[0] == "X"
    assert text[10] == "a"      # time 10
    assert text[35] == "z"      # time 35
    assert text[36] == "+"      # overflow glyph
    stripped_dims, stripped = parse_set(strip_times(text + "\n"))
    assert stripped.mask == seeds.mask


def _catalog_store() -> str:
    # 1 header, 2 blank, 3 entry, 4 provenance, 5 grid, 6-8 rows, 9 end
    dims = GridDims(1, 3, 3)
    catalog = Catalog()
    catalog.add(CatalogEntry(dims, CellSet.from_cells(dims, DIAMOND), Status.PERFECT, "unit-test"))
    return catalog.dump()


def _pattern_store() -> str:
    # 1 header, 2 blank, 3 pattern, 4 section, 5 residue, 6 min-c, 7 rng-seed,
    # 8 left, 9.. its rows
    return write_patterns([builtin_patterns()["2x5"]])


STORES = {
    "catalog": (_catalog_store, Catalog.loads, CatalogError),
    "patterns": (_pattern_store, parse_patterns, ParseError),
}


@pytest.mark.parametrize(
    "store,lineno,replacement,fragment,reported",
    [
        ("catalog", 7, ".X", "row has 2 cells, expected 3", 7),
        ("catalog", 8, "X?X", "unknown glyph '?'", 8),
        ("catalog", 4, "bogus line", "unknown header 'bogus line'", 4),
        ("catalog", 9, "", "missing 'end'", 5),
        ("catalog", 3, "entry 1x3x4:perfect", "does not match key", 3),
        ("catalog", 4, "rng-seed x", "bad rng-seed 'x' for 1x3x3:perfect", 3),
        ("patterns", 10, "Q.", "bad left block for 2x5: unknown glyph 'Q'", 10),
        ("patterns", 6, "", "pattern '2x5' has no 'min-c' header", 3),
        ("patterns", 5, "residue x mod 6", "bad pattern record '2x5'", 3),
        ("patterns", 4, "bogus 1", "unknown header 'bogus 1'", 4),
    ],
)
def test_store_errors_name_the_file_line_once(store, lineno, replacement, fragment, reported):
    make, load, error = STORES[store]
    lines = make().splitlines()
    lines[lineno - 1] = replacement
    with pytest.raises(error) as err:
        load("\n".join(lines) + "\n")
    message = str(err.value)
    assert fragment in message
    assert message.endswith(f"(line {reported})")
    assert message.count("(line ") == 1
