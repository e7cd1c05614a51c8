from importlib import resources

import pytest

from gridperc.bounds import Status
from gridperc.catalog import (
    Catalog,
    CatalogEntry,
    CatalogError,
    builtin_catalog,
    check_size,
    entry_key,
)
from gridperc.grid import CellSet, GridDims

from oracle import verify_all

DIAMOND = [(1, 1, 1), (1, 1, 3), (1, 2, 2), (1, 3, 1), (1, 3, 3)]


def diamond_entry() -> CatalogEntry:
    dims = GridDims(1, 3, 3)
    return CatalogEntry(
        dims, CellSet.from_cells(dims, DIAMOND), Status.PERFECT, "unit-test"
    )


def test_entry_verify():
    entry = diamond_entry().verify()
    assert entry.verified
    assert check_size(entry)


def test_entry_verify_rejects_wrong_status():
    dims = GridDims(1, 1, 4)
    bogus = CatalogEntry(
        dims, CellSet.from_cells(dims, [(1, 1, 1)]), Status.PERFECT, "unit-test"
    )
    with pytest.raises(CatalogError):
        bogus.verify()


def test_catalog_dump_load_roundtrip():
    cat = Catalog()
    cat.add(diamond_entry())
    text = cat.dump()
    back = Catalog.loads(text)
    assert set(back.entries) == set(cat.entries)
    entry = back.entries[entry_key(GridDims(1, 3, 3), Status.PERFECT)]
    assert entry.seeds.mask == diamond_entry().seeds.mask
    assert back.dump() == text


def test_catalog_duplicate_rejected():
    cat = Catalog()
    cat.add(diamond_entry())
    with pytest.raises(CatalogError):
        cat.add(diamond_entry())
    cat.add(diamond_entry(), replace=True)


def test_catalog_canonicalizes_dims():
    dims = GridDims(3, 1, 3)
    entry = CatalogEntry(
        dims,
        CellSet.from_cells(dims, [(1, 1, 1), (3, 1, 1), (2, 1, 2), (1, 1, 3), (3, 1, 3)]),
        Status.PERFECT,
        "unit-test",
    )
    cat = Catalog()
    stored = cat.add(entry)
    assert stored.dims == GridDims(1, 3, 3)
    reoriented = cat.get(GridDims(3, 3, 1), Status.PERFECT)
    assert reoriented is not None
    assert reoriented.dims == GridDims(3, 3, 1)
    assert reoriented.verify().verified
    with pytest.raises(CatalogError):
        stored.reoriented(GridDims(1, 3, 4))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("entry zzz\ngrid\nX\nend\n", "bad entry key"),
        ("entry 1x1x1:perfect\ngrid\nX\n", "missing 'end'"),
        ("entry 1x1x1:perfect\nbogus line\ngrid\nX\nend\n", "unknown header"),
        ("entry 1x1x2:perfect\ngrid\nX\nend\n", "does not match key"),
        ("wat\n", "expected 'entry'"),
    ],
)
def test_catalog_parse_errors(text, fragment):
    with pytest.raises(CatalogError) as err:
        Catalog.loads(text)
    assert fragment in str(err.value)


def test_builtin_catalog_verifies_and_sizes():
    cat = builtin_catalog()
    assert len(cat.entries) > 40
    verify_all(cat)
    for entry in cat.entries.values():
        assert entry.verified
        assert check_size(entry)


def test_builtin_catalog_dump_is_stable():
    cat = builtin_catalog()
    assert Catalog.loads(cat.dump()).dump() == cat.dump()


def test_committed_catalog_round_trips_byte_for_byte():
    data = resources.files("gridperc.data").joinpath("catalog.txt").read_bytes()
    assert Catalog.loads(data.decode("utf-8")).dump().encode("utf-8") == data
