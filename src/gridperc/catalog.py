"""Persistent witness catalog.

A catalog is a plain-text document of verified seed-set witnesses, committed
to the repository so construction pipelines never depend on re-running
searches.  Entries are keyed by canonical (sorted) dimensions plus status;
lookups for permuted dimensions reorient the stored set on the fly.

Each entry is an ``entry <dims>:<status>`` record with ``provenance``,
``children`` and ``rng-seed`` headers and one ``grid`` (record layout: see
gridtext).  ``verify`` re-simulates every entry: a catalog is data, not
trusted code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .bounds import Status, classify, lower_bound, surface_sum
from .grid import CellSet, GridDims, orient_set, orientations
from .gridtext import ParseError, read_records, write_record


class CatalogError(ValueError):
    """Unknown entry, bad record, or an entry that fails re-verification."""


@dataclass(frozen=True)
class CatalogEntry:
    """A witness seed set with its claimed status and provenance."""

    dims: GridDims
    seeds: CellSet
    status: Status
    provenance: str
    children: tuple[str, ...] = ()
    rng_seed: int | None = None
    verified: bool = False

    @property
    def key(self) -> str:
        return entry_key(self.dims, self.status)

    @property
    def size(self) -> int:
        return len(self.seeds)

    def verify(self) -> "CatalogEntry":
        """Re-simulate; raises unless the witness earns at least its status."""
        result = classify(self.dims, self.seeds)
        if result.status < self.status:
            raise CatalogError(
                f"{self.key}: stored witness classifies as {result.status}, "
                f"claimed {self.status}"
            )
        return CatalogEntry(
            self.dims, self.seeds, self.status, self.provenance,
            self.children, self.rng_seed, verified=True,
        )

    def reoriented(self, dims: GridDims) -> "CatalogEntry":
        """The same witness on ``dims``, a permutation of its sides."""
        if dims == self.dims:
            return self
        maps = orientations(self.dims, dims)
        if not maps:
            raise CatalogError(f"{self.key}: cannot reorient {self.dims} to {dims}")
        return replace(self, dims=dims, seeds=orient_set(self.seeds, maps[0]))


def entry_key(dims: GridDims, status: Status) -> str:
    return f"{dims.sorted()}:{str(status).lower()}"


@dataclass
class Catalog:
    """In-memory entry store with text (de)serialization."""

    entries: dict[str, CatalogEntry] = field(default_factory=dict)

    def add(self, entry: CatalogEntry, replace: bool = False) -> CatalogEntry:
        canonical = _canonicalize(entry)
        if not replace and canonical.key in self.entries:
            raise CatalogError(f"duplicate entry {canonical.key}")
        self.entries[canonical.key] = canonical
        return canonical

    def get(self, dims: GridDims, status: Status) -> CatalogEntry | None:
        """Entry for these dims (any axis order), reoriented to match them."""
        entry = self.entries.get(entry_key(dims, status))
        return None if entry is None else entry.reoriented(dims)

    def dump(self) -> str:
        return "# gridperc witness catalog v1\n" + "".join(
            write_record("entry", key, {
                "provenance": entry.provenance,
                "children": " ".join(entry.children) or None,
                "rng-seed": entry.rng_seed,
            }, {"grid": entry.seeds})
            for key, entry in sorted(self.entries.items(), key=lambda item: _key_order(item[0]))
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dump(), encoding="utf-8")

    @staticmethod
    def loads(text: str) -> "Catalog":
        catalog = Catalog()
        records = read_records(text, "entry", ("grid",), optional=("provenance", "children", "rng-seed"))
        try:
            for line, key, headers, grids in records:
                try:
                    dims_text, status_text = key.split(":")
                    dims = GridDims.parse(dims_text)
                    status = Status.parse(status_text)
                except ValueError as exc:
                    raise ParseError(f"bad entry key {key!r}: {exc}", line) from None
                seeds = grids["grid"]
                if seeds.dims != dims:
                    raise ParseError(f"grid block shape {seeds.dims} does not match key {key}", line)
                rng_seed = headers.get("rng-seed")
                try:
                    rng_seed = None if rng_seed is None else int(rng_seed)
                except ValueError:
                    raise ParseError(f"bad rng-seed {rng_seed!r} for {key}", line) from None
                entry = CatalogEntry(
                    dims, seeds, status, headers.get("provenance", ""),
                    tuple(headers.get("children", "").split()), rng_seed,
                )
                if entry.key in catalog.entries:
                    raise ParseError(f"duplicate entry {entry.key}", line)
                catalog.entries[entry.key] = entry
        except ParseError as exc:
            raise CatalogError(str(exc)) from None
        return catalog

    @staticmethod
    def load(path: str | Path) -> "Catalog":
        return Catalog.loads(Path(path).read_text(encoding="utf-8"))


def _canonicalize(entry: CatalogEntry) -> CatalogEntry:
    return entry.reoriented(entry.dims.sorted())


def _key_order(key: str) -> tuple:
    dims_text, status = key.split(":")
    dims = GridDims.parse(dims_text)
    return (dims.volume, dims.as_tuple(), status)


def builtin_catalog() -> Catalog:
    """The witnesses shipped with the package (searched and frozen)."""
    text = resources.files("gridperc.data").joinpath("catalog.txt").read_text(encoding="utf-8")
    return Catalog.loads(text)


def check_size(entry: CatalogEntry) -> bool:
    """Size consistency: perfect == exact bound, optimal == its ceiling."""
    s = surface_sum(entry.dims)
    if entry.status is Status.PERFECT:
        return 3 * entry.size == s
    if entry.status is Status.OPTIMAL:
        return entry.size == lower_bound(entry.dims)[1]
    return True
