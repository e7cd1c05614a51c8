"""Layered text format for seed sets and rendered traces.

A set over an a x b x c grid is written as ``a`` blocks (layers), each with
``b`` lines of ``c`` glyphs, blocks separated by one blank line.  ``X`` marks
a seed and ``.`` an empty cell.  Rendered traces reuse the same geometry with
infection times as glyphs: 1-9, then base-36 letters for 10-35, ``+`` for
times 36 and beyond, ``#`` for never infected.  Stripping times (any glyph
other than X back to ``.``) round-trips with the seed format.

The catalog and the family pattern store are sequences of records: a
keyword line naming the record, ``key value`` headers, and named grids, each
closed by ``end``::

    entry 4x6x6:perfect
    provenance combined 1x3x3:perfect 3x3x3:perfect 3x3x3:perfect 1x3x3:perfect
    grid
    X.X...
    ...
    end

Blank lines and ``#`` comments may stand anywhere outside a grid.
"""

from __future__ import annotations

from collections.abc import Iterator

from .engine import PercolationTrace, cell_lanes
from .grid import CellSet, GridDims, mask_text, text_mask, text_rows

SEED_GLYPH = "X"
EMPTY_GLYPH = "."
NEVER_GLYPH = "#"
OVERFLOW_GLYPH = "+"

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
# a clamped time byte -> its glyph: 0 a seed, 36 and on '+', 63 never infected
_TIME_GLYPHS = (SEED_GLYPH + _DIGITS[1:] + OVERFLOW_GLYPH * 27 + NEVER_GLYPH).encode().ljust(256)


class ParseError(ValueError):
    """Malformed layered text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)


def _layered(cells: str, dims: GridDims) -> str:
    """One glyph per cell, in index order, cut into rows and layers."""
    layers = text_rows(cells, dims.b * dims.c)
    return "\n\n".join("\n".join(text_rows(layer, dims.c)) for layer in layers) + "\n"


_SEED_GLYPHS = str.maketrans("01", EMPTY_GLYPH + SEED_GLYPH)
_SEED_BITS = str.maketrans(EMPTY_GLYPH + SEED_GLYPH, "01")
_NOT_GLYPHS = str.maketrans("", "", EMPTY_GLYPH + SEED_GLYPH)


def write_set(cset: CellSet) -> str:
    """Seed set as layered text (no header; dims are implicit in the shape)."""
    dims = cset.dims
    return _layered(mask_text(cset.mask, dims.volume).translate(_SEED_GLYPHS), dims)


def parse_set(text: str) -> tuple[GridDims, CellSet]:
    """Parse layered text back into (dims, seed set); strict round-trip."""
    lines = text.splitlines()
    # split into blocks of consecutive non-blank lines
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
            continue
        current.append((lineno, line))
    if current:
        blocks.append(current)
    if not blocks:
        raise ParseError("empty grid text")

    a = len(blocks)
    b = len(blocks[0])
    c = len(blocks[0][0][1])
    for block in blocks:
        if len(block) != b:
            raise ParseError(
                f"layer has {len(block)} rows, expected {b}", block[0][0]
            )
        for lineno, line in block:
            if len(line) != c:
                raise ParseError(f"row has {len(line)} cells, expected {c}", lineno)

    dims = GridDims(a, b, c)
    for block in blocks:
        for lineno, line in block:
            bad = line.translate(_NOT_GLYPHS)
            if bad:
                raise ParseError(f"unknown glyph {bad[0]!r}", lineno)
    cells = "".join(line for block in blocks for _, line in block)
    return dims, CellSet(dims, text_mask(cells.translate(_SEED_BITS)))


def read_records(
    text: str,
    keyword: str,
    grids: tuple[str, ...],
    required: tuple[str, ...] = (),
    optional: tuple[str, ...] = (),
) -> Iterator[tuple[int, str, dict[str, str], dict[str, CellSet]]]:
    """Yield (line, name, headers, grids) for each ``keyword`` record of a store.

    ``line`` is the record's first line; a record ends once every grid in
    ``grids`` is read.  Errors name the offending line of ``text``.
    """
    lines = text.splitlines()
    n = len(lines)
    known = {*required, *optional}
    i = 0
    while i < n:
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        start = i
        word, _, name = line.partition(" ")
        if word != keyword or not name:
            raise ParseError(f"expected {keyword!r}, got {line!r}", start)
        headers: dict[str, str] = {}
        sets: dict[str, CellSet] = {}
        while len(sets) < len(grids):
            if i == n:
                raise ParseError(f"missing {next(g for g in grids if g not in sets)!r} section", start)
            line = lines[i].strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            if line in grids:
                first = i
                while i < n and lines[i].strip() != "end":
                    i += 1
                if i == n:
                    raise ParseError("missing 'end'", first)
                try:
                    sets[line] = parse_set("\n".join(lines[first:i]) + "\n")[1]
                except ParseError as exc:
                    raise ParseError(
                        f"bad {line} block for {name}: {exc.reason}", first + (exc.line or 0)
                    ) from None
                i += 1
                continue
            key, _, value = line.partition(" ")
            if key not in known:
                raise ParseError(f"unknown header {line!r}", i)
            headers[key] = value
        for key in required:
            if key not in headers:
                raise ParseError(f"{keyword} {name!r} has no {key!r} header", start)
        yield start, name, headers, sets


def write_record(
    keyword: str, name: str, headers: dict[str, object], grids: dict[str, CellSet]
) -> str:
    """One store record, opened by a blank line; headers valued None are left out."""
    out = [f"\n{keyword} {name}\n"]
    out += (f"{key} {value}\n" for key, value in headers.items() if value is not None)
    for grid_name, cset in grids.items():
        out += (f"{grid_name}\n", write_set(cset), "end\n")
    return "".join(out)


def render_trace(trace: PercolationTrace) -> str:
    """Trace as layered text with per-cell infection times.

    Read off the trace's time planes as one byte per cell, clamped to six
    bits: times from 36 on become 36 and never-infected cells 63, and one
    ``bytes.translate`` maps each byte to its glyph.
    """
    n = trace.dims.volume
    planes = (list(trace.time_planes) + [0] * 6)[:6]
    over = 0  # time >= 36 = 0b100100: a bit past the sixth, or bit 5 and one of 2..4
    for plane in trace.time_planes[6:]:
        over |= plane
    over |= planes[5] & (planes[2] | planes[3] | planes[4])
    never = ((1 << n) - 1) ^ trace.final_mask
    clamped = [
        (plane | over if k in (2, 5) else plane ^ (plane & over)) | never
        for k, plane in enumerate(planes)
    ]
    cells = cell_lanes(clamped, n).translate(_TIME_GLYPHS).decode("ascii")
    return _layered(cells, trace.dims)


def strip_times(text: str) -> str:
    """Reduce a rendered trace to plain seed text (X stays, all else to '.').

    Whitespace-only lines become empty; the others are translated in one
    pass over the joined text.
    """
    joined = "\n".join(line if line.strip() else "" for line in text.splitlines())
    table = dict.fromkeys(map(ord, set(joined) - {SEED_GLYPH, "\n"}), EMPTY_GLYPH)
    return joined.translate(table) + "\n"
