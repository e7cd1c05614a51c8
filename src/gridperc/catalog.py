"""Persistent witness catalog.

A catalog is a plain-text document of verified seed-set witnesses, committed
to the repository so construction pipelines never depend on re-running
searches.  Entries are keyed by canonical (sorted) dimensions plus status;
lookups for permuted dimensions reorient the stored set on the fly.

Record layout::

    entry 4x6x6:perfect
    provenance combined 1x3x3:perfect 3x3x3:perfect 3x3x3:perfect 1x3x3:perfect
    grid
    X.X...
    ...
    end

with the seed set in layered text (see gridtext).  ``verify`` re-simulates
every entry: a catalog is data, not trusted code.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .bounds import Status, classify, lower_bound, surface_sum
from .grid import CellSet, GridDims, orient_set, orientations
from .gridtext import ParseError, parse_set, write_set


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

    def verify(self, r: int = 3) -> "CatalogEntry":
        """Re-simulate; raises unless the witness earns at least its status."""
        result = classify(self.dims, self.seeds, r=r)
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

    def best(self, dims: GridDims, at_least: Status = Status.OPTIMAL) -> CatalogEntry | None:
        """Highest-status entry for dims meeting the floor, if any."""
        for status in (Status.PERFECT, Status.OPTIMAL):
            if status < at_least:
                break
            hit = self.get(dims, status)
            if hit is not None:
                return hit
        return None

    def verify_all(self, r: int = 3) -> None:
        for key in sorted(self.entries):
            self.entries[key] = self.entries[key].verify(r=r)

    def dump(self) -> str:
        out = io.StringIO()
        out.write("# gridperc witness catalog v1\n")
        for key in sorted(self.entries, key=_key_order):
            entry = self.entries[key]
            out.write(f"\nentry {key}\n")
            out.write(f"provenance {entry.provenance}\n")
            if entry.children:
                out.write("children " + " ".join(entry.children) + "\n")
            if entry.rng_seed is not None:
                out.write(f"rng-seed {entry.rng_seed}\n")
            out.write("grid\n")
            out.write(write_set(entry.seeds))
            out.write("end\n")
        return out.getvalue()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dump(), encoding="utf-8")

    @staticmethod
    def loads(text: str) -> "Catalog":
        catalog = Catalog()
        lines = text.splitlines()
        i = 0
        n = len(lines)

        def fail(msg: str, lineno: int) -> CatalogError:
            return CatalogError(f"{msg} (line {lineno})")

        while i < n:
            line = lines[i].strip()
            if line == "" or line.startswith("#"):
                i += 1
                continue
            if not line.startswith("entry "):
                raise fail(f"expected 'entry', got {line!r}", i + 1)
            key = line.split(None, 1)[1]
            try:
                dims_text, status_text = key.split(":")
                dims = GridDims.parse(dims_text)
                status = Status.parse(status_text)
            except (ValueError, IndexError) as exc:
                raise fail(f"bad entry key {key!r}: {exc}", i + 1)
            i += 1
            provenance = ""
            children: tuple[str, ...] = ()
            rng_seed = None
            while i < n and lines[i].strip() != "grid":
                header = lines[i].strip()
                if header.startswith("provenance "):
                    provenance = header[len("provenance "):]
                elif header.startswith("children "):
                    children = tuple(header.split()[1:])
                elif header.startswith("rng-seed "):
                    rng_seed = int(header.split()[1])
                elif header == "":
                    pass
                else:
                    raise fail(f"unknown header {header!r}", i + 1)
                i += 1
            if i >= n:
                raise fail("missing 'grid' section", i)
            i += 1  # past 'grid'
            grid_start = i
            while i < n and lines[i].strip() != "end":
                i += 1
            if i >= n:
                raise fail("missing 'end'", grid_start)
            grid_text = "\n".join(lines[grid_start:i]) + "\n"
            i += 1  # past 'end'
            try:
                parsed_dims, seeds = parse_set(grid_text)
            except ParseError as exc:
                raise fail(f"bad grid block for {key}: {exc}", grid_start + 1)
            if parsed_dims != dims:
                raise fail(
                    f"grid block shape {parsed_dims} does not match key {key}", grid_start + 1
                )
            entry = CatalogEntry(dims, seeds, status, provenance, children, rng_seed)
            if entry.key in catalog.entries:
                raise fail(f"duplicate entry {entry.key}", grid_start)
            catalog.entries[entry.key] = entry
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
