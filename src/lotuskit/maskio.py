"""Mask export and inspection: GDSII streams, SVG previews, layout stats.

Writes honeycomb layouts and gradient designs as standards-conformant GDSII
stream files, reads them back for round-trip verification, renders SVG
previews, and summarizes layouts numerically.  A gradient design is written
as its zones, one per run of equal walls, as a layout is written as its
zones.

Conventions
-----------
* Geometry source coordinates are integer nanometers and the database unit
  is 1 nm, so every coordinate is written as is.
* Mask hexagons are emitted whole (never clipped): a cell belongs to the
  zone containing its center, so abutting zones tile seamlessly
  without double-drawing, and edge hexagons may protrude up to half a comb
  diameter past the extent.  SVG previews draw the same whole hexagons.
* ``arrayed`` mode writes one hexagon structure per distinct opening size
  plus two array references per zone (even rows and the
  half-pitch-shifted odd rows), tiled at 32,767; GDSII arrays are
  rectangular, and the triangular lattice is exactly two interleaved
  rectangular grids.  ``flat`` mode writes every hexagon as an explicit
  boundary — fine for crops, enormous for full zones.
* Output bytes depend only on inputs and options: timestamps are always
  zeroed, the library is ``LOTUS`` and the top cell is ``TOP``.
* Resist polarity: by default the hexagonal *openings* are the drawn
  regions.  ``polarity="walls"`` instead marks the solid field: each extent
  is drawn as a background rectangle on the base datatype with the openings
  on datatype + 1, for downstream XOR.
"""

from __future__ import annotations

import numbers
import struct
import sys
from array import array as _array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from lotuskit.gdsii import (
    AREF,
    BGNLIB,
    BGNSTR,
    BOUNDARY,
    COLROW,
    DATATYPE,
    ENDEL,
    ENDLIB,
    ENDSTR,
    HEADER,
    LAYER,
    LIBNAME,
    SNAME,
    SREF,
    STRNAME,
    UNITS,
    XY,
    GdsParseError,
    Record,
    _record_at,
    encode_ascii,
    encode_real8,
    pack_record,
    record_name,
    validate_cell_name,
)
from lotuskit.wetting import WATER_ON_PMMA, Material, cassie_apparent_angle

# numpy is imported where arrays are built (the read-back and expand), and
# lattice and gradient by the writers and layout_stats: every writer runs
# without numpy, and the read-back loads neither lattice nor gradient.
if TYPE_CHECKING:
    import numpy as np

    from lotuskit.gradient import GradientDesign
    from lotuskit.lattice import LatticeArray, Layout, Zone

    Target = Union[Layout, Zone, GradientDesign]

__all__ = [
    "CellArray",
    "MaskCell",
    "MaskGeometry",
    "write_gdsii",
    "read_gdsii",
    "write_svg",
    "layout_stats",
]

_INT16_MAX = 32767

# The most polygons that expand() places in one cell, its own and those of
# its references together: 2**22, about 400 MB of int64 hexagon vertices.
# One AREF of 32,767 x 32,767 instances would ask for 1.07e9.
_EXPAND_BUDGET = 2**22


# --------------------------------------------------------------------------
# Parsed-geometry model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellArray:
    """Rectangular array placement of a named cell.

    Instance (i, j) for 0 <= i < cols, 0 <= j < rows sits at
    ``origin + i * col_vector + j * row_vector``.  A single placement
    (SREF) is the 1 x 1 array ``CellArray(cell, origin, 1, 1, (0, 0), (0, 0))``.
    """

    cell: str
    origin: tuple[int, int]
    cols: int
    rows: int
    col_vector: tuple[int, int]
    row_vector: tuple[int, int]


# A run of polygons sharing layer, datatype and vertex count: the
# (n, k, 2) points block of n consecutive polygons.
_Run = tuple[int, int, "np.ndarray"]


@dataclass
class MaskCell:
    """One structure: its polygons and the references it places.

    ``runs`` holds the cell's own polygons in stream order as
    ``(layer, datatype, points)`` runs, each ``points`` an ``(n, k, 2)``
    block of n polygons of k vertices, closure vertex not repeated.
    ``srefs`` holds the single placements as 1 x 1 arrays, ``arefs`` the
    array placements, each in stream order.
    """

    name: str
    runs: list[_Run] = field(default_factory=list)
    srefs: list[CellArray] = field(default_factory=list)
    arefs: list[CellArray] = field(default_factory=list)


@dataclass
class MaskGeometry:
    """A parsed GDSII library: named cells plus unit metadata."""

    library_name: str
    db_unit_in_user_units: float
    database_unit: float
    cells: dict[str, MaskCell]

    def top_cell_names(self) -> list[str]:
        """Cells never referenced by another cell, in definition order."""
        referenced = {
            ref.cell
            for cell in self.cells.values()
            for ref in (*cell.srefs, *cell.arefs)
        }
        return [name for name in self.cells if name not in referenced]

    def expand(self, cell_name: str | None = None) -> list[tuple[int, int, np.ndarray]]:
        """Flatten a cell (default: the sole top cell) to absolute polygons.

        Each polygon is a ``(layer, datatype, points)`` tuple, ``points`` a
        ``(k, 2)`` int64 vertex list, closure vertex not repeated: the form
        of one polygon of a :attr:`MaskCell.runs` entry.  The order is that
        of a depth-first walk: a cell's own runs, then its SREFs, then its
        AREFs, each array instance by instance (column index outer, row
        index inner).  Each cell is flattened once, and each reference is
        placed in one broadcast over its ``cols * rows`` instance offsets.
        Nested references are followed recursively with cycle detection.
        The returned vertices never alias the cells' own runs or an earlier
        result.  Before each reference is placed, the cell's count so far is
        checked: a reference that would bring it above ``2**22`` polygons
        raises ValueError, and nothing of it is placed.
        """
        import numpy as np

        if cell_name is None:
            tops = self.top_cell_names()
            if len(tops) != 1:
                raise ValueError(
                    f"library has {len(tops)} top cells {tops!r}; "
                    f"pass cell_name explicitly"
                )
            cell_name = tops[0]
        flattened: dict[str, list[_Run]] = {}

        def flatten(name: str, stack: frozenset[str]) -> list[_Run]:
            if name not in self.cells:
                raise ValueError(f"reference to undefined cell {name!r}")
            if name in stack:
                raise ValueError(f"reference cycle through cell {name!r}")
            if name in flattened:
                return flattened[name]
            below = stack | {name}
            cell = self.cells[name]
            refs = [ref for ref in (*cell.srefs, *cell.arefs) if ref.cols > 0 and ref.rows > 0]
            # Own runs are copied, in the dtype that adding int64 offsets gives.
            runs = [
                (layer, datatype, block.astype(np.result_type(block.dtype, np.int64)))
                for layer, datatype, block in cell.runs
            ]
            placed = sum(len(block) for _, _, block in runs)
            for ref in refs:
                child_runs = flatten(ref.cell, below)
                polygons = sum(len(block) for _, _, block in child_runs)
                if not polygons:
                    continue
                placed += polygons * ref.cols * ref.rows
                if placed > _EXPAND_BUDGET:
                    raise ValueError(
                        f"expanding cell {name!r} places {placed} polygons, over "
                        f"the budget of {_EXPAND_BUDGET}"
                    )
                i, j = np.divmod(np.arange(ref.cols * ref.rows, dtype=np.int64), ref.rows)
                offsets = ref.origin + np.outer(i, ref.col_vector) + np.outer(j, ref.row_vector)
                runs += _placed(child_runs, offsets)
            flattened[name] = runs
            return runs

        return [
            (layer, datatype, points)
            for layer, datatype, block in flatten(cell_name, frozenset())
            for points in block
        ]


def _placed(cell_runs: list[_Run], offsets: np.ndarray) -> list[_Run]:
    """Translated copies of a flattened cell, one per (m, 2) instance offset.

    Each run is moved to every instance in one broadcast.  Each instance
    holds all of the cell's runs in order, so a one-run cell stays one run.
    """
    moved = [
        (layer, datatype, block + offsets[:, None, None, :])
        for layer, datatype, block in cell_runs
    ]
    if len(moved) == 1:
        layer, datatype, blocks = moved[0]
        return [(layer, datatype, blocks.reshape(-1, *blocks.shape[2:]))]
    return [
        (layer, datatype, blocks[index])
        for index in range(len(offsets))
        for layer, datatype, blocks in moved
    ]


# --------------------------------------------------------------------------
# Geometry enumeration shared by the writers
# --------------------------------------------------------------------------

def _as_layout(target: Layout | Zone) -> Layout:
    from lotuskit.lattice import Layout, Zone

    if isinstance(target, Zone):
        return Layout(zones=(target,), label="zone")
    if isinstance(target, Layout):
        return target
    raise TypeError(
        f"expected Layout, Zone, or GradientDesign, got {type(target).__name__}"
    )


def _emitted(target: Target) -> tuple[list[LatticeArray], list[tuple[int, int, int, int]]]:
    """The lattice arrays a target is written as, and its extent rectangles.

    A layout is its zones and a design is its runs' zones, so both are
    written as the arrays of :func:`~lotuskit.lattice.lattice_arrays`, zone
    by zone on the target's own ``fabrication_grid``.  A design has one
    extent, its whole ramp; a layout one per zone.  The rectangles are
    ``(x, y, x_max, y_max)``.
    """
    from lotuskit.gradient import GradientDesign
    from lotuskit.lattice import lattice_arrays

    if isinstance(target, GradientDesign):
        zones, grid = target.zones, target.fabrication_grid
        rects = [(0, 0, target.length_nm, target.spec.lateral_width)]
    else:
        layout = _as_layout(target)
        zones, grid = layout.zones, layout.fabrication_grid
        rects = [(z.extent.x, z.extent.y, z.extent.x_max, z.extent.y_max) for z in zones]
    return [array for zone in zones for array in lattice_arrays(zone, grid)], rects


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------

_ZERO_STAMPS = bytes(24)  # BGNLIB/BGNSTR modification and access times

#: Every stream's head: version 600, zeroed stamps, library ``LOTUS``, and
#: units of 1 nm per database unit and 1000 database units per user unit.
_STREAM_HEAD = (
    pack_record(HEADER, struct.pack(">h", 600))
    + pack_record(BGNLIB, _ZERO_STAMPS)
    + pack_record(LIBNAME, encode_ascii("LOTUS"))
    + pack_record(UNITS, encode_real8(1e-3) + encode_real8(1e-9))
)


def _coordinate_overflow(detail: str) -> ValueError:
    return ValueError(
        f"coordinate overflow: XY values must fit signed 32-bit database units ({detail})"
    )


def _xy_payload(points: list[tuple[int, int]]) -> bytes:
    flat: list[int] = []
    for x, y in points:
        flat.append(x)
        flat.append(y)
    try:
        return struct.pack(f">{len(flat)}i", *flat)
    except struct.error as exc:
        raise _coordinate_overflow(str(exc)) from None


def _boundary_bytes(layer: int, datatype: int, points: list[tuple[int, int]]) -> bytes:
    closed = [*points, points[0]]
    return (
        pack_record(BOUNDARY)
        + pack_record(LAYER, struct.pack(">h", layer))
        + pack_record(DATATYPE, struct.pack(">h", datatype))
        + pack_record(XY, _xy_payload(closed))
        + pack_record(ENDEL)
    )


#: An AREF's COLROW, XY and ENDEL records, after its AREF and SNAME records:
#: each record header (as pack_record writes it) is a 4-byte field, then the
#: column and row counts and the origin, column-end and row-end points.
_AREF_BODY = struct.Struct(">4s2h4s6i4s")
_AREF_HEADERS = (
    pack_record(COLROW, bytes(4))[:4],
    pack_record(XY, bytes(24))[:4],
    pack_record(ENDEL),
)


def _aref_bytes(head: bytes, array: LatticeArray) -> bytes:
    """The AREFs of ``array``: each is ``head`` (AREF and SNAME), then a body.

    COLROW counts are 16-bit, so an array of more than 32,767 columns or rows
    is written as tiles of at most 32,767 x 32,767, column tiles outer.
    """
    (x0, y0), (cx, cy), (rx, ry) = array.origin, array.col_vector, array.row_vector
    colrow, xy, endel = _AREF_HEADERS
    elements = []
    try:
        for i in range(0, array.cols, _INT16_MAX):
            cols = min(array.cols - i, _INT16_MAX)
            for j in range(0, array.rows, _INT16_MAX):
                rows = min(array.rows - j, _INT16_MAX)
                x, y = x0 + i * cx + j * rx, y0 + i * cy + j * ry
                elements.append(head + _AREF_BODY.pack(
                    colrow, cols, rows, xy,
                    x, y, x + cols * cx, y + cols * cy, x + rows * rx, y + rows * ry,
                    endel,
                ))
    except struct.error as exc:
        raise _coordinate_overflow(str(exc)) from None
    return b"".join(elements)


_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_BIG_ENDIAN = sys.byteorder == "big"
assert _array("i").itemsize == 4, "the flat writer needs 4-byte array('i') words"


def _int32_words(first: int, step: int, count: int) -> _array:
    """The int32 words ``first + k * step``, ``0 <= k < count``, in stream order."""
    if step:
        words = _array("i", range(first, first + count * step, step))
    else:
        words = _array("i", [first]) * count
    if not _BIG_ENDIAN:
        words.byteswap()
    return words


def _write_flat_array(out: bytearray, array: LatticeArray, layer: int, datatype: int) -> None:
    """Append one boundary per cell of ``array``, in row-major order.

    A row of cells is one buffer of ``cols`` copies of the boundary bytes of
    the hexagon centered at the origin, as int32 words (every record here is
    a multiple of 4 bytes).  The word of one vertex coordinate in every cell
    of the row is one strided slice of the buffer, filled with that
    coordinate's progression along the row; a slice is refilled for the
    next row only if the row vector moves its axis.  The corner centers, in
    exact integers, show whether every word fits int32: on each axis they
    bound every cell's center.
    """
    from lotuskit.lattice import hexagon_vertices

    hexagon = hexagon_vertices(array.comb)
    cols, rows = array.cols, array.rows
    origin, col_vector, row_vector = array.origin, array.col_vector, array.row_vector
    corners = [
        [origin[axis] + i * col_vector[axis] + j * row_vector[axis] for axis in (0, 1)]
        for i in (0, cols - 1)
        for j in (0, rows - 1)
    ]
    low, high = (
        [bound(corner[axis] for corner in corners) for axis in (0, 1)] for bound in (min, max)
    )
    if not all(
        _INT32_MIN <= offset + bound <= _INT32_MAX
        for point in hexagon
        for axis, offset in enumerate(point)
        for bound in (low[axis], high[axis])
    ):
        raise _coordinate_overflow(f"cell centers span {low} to {high} nm")

    template = _array("i", _boundary_bytes(layer, datatype, hexagon))
    size = len(template)
    # Words 0-4: BOUNDARY, LAYER, DATATYPE and the XY header; then the
    # closed vertex list as x, y pairs; the last word is ENDEL.
    slots = [
        (5 + 2 * vertex + axis, axis, offset)
        for vertex, point in enumerate([*hexagon, hexagon[0]])
        for axis, offset in enumerate(point)
    ]
    row = template * cols
    for j in range(rows):
        for slot, axis, offset in slots:
            if j == 0 or row_vector[axis]:
                first = origin[axis] + j * row_vector[axis] + offset
                row[slot::size] = _int32_words(first, col_vector[axis], cols)
        out += row


def write_gdsii(
    target: Target,
    *,
    layer: int = 1,
    datatype: int = 0,
    mode: str = "arrayed",
    polarity: str = "openings",
) -> bytes:
    """Emit a layout or gradient design as a GDSII stream.

    Parameters
    ----------
    target:
        A :class:`Layout`, single :class:`Zone`, or :class:`GradientDesign`.
    layer, datatype:
        Layer/datatype pair for drawn polygons, each an integer in 0..255;
        a ``bool`` is refused, a numpy integer accepted.
    mode:
        ``"arrayed"`` (default) writes one hexagon structure per opening
        size plus two array references per zone (a gradient design has
        one zone per run of equal walls), tiled at 32,767 columns and
        rows; ``"flat"`` writes every hexagon as an explicit boundary.
    polarity:
        ``"openings"`` (default) draws the hexagonal openings;
        ``"walls"`` additionally draws each extent as a background rectangle
        on the base datatype and moves the openings to datatype + 1.

    Returns
    -------
    bytes
        The complete stream, byte-reproducible for identical inputs.
    """
    for name, value in (("layer", layer), ("datatype", datatype)):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or not 0 <= value <= 255
        ):
            raise ValueError(f"{name} must be an integer in 0..255, got {value!r}")
    if mode not in ("flat", "arrayed"):
        raise ValueError(f"mode must be 'flat' or 'arrayed', got {mode!r}")
    if polarity not in ("openings", "walls"):
        raise ValueError(f"polarity must be 'openings' or 'walls', got {polarity!r}")
    layer, datatype = int(layer), int(datatype)  # datatype + 1 must not wrap
    opening_datatype = datatype + (1 if polarity == "walls" else 0)
    if opening_datatype > 255:
        raise ValueError(
            f"walls polarity places openings on datatype {opening_datatype}, "
            f"beyond 255; pick a lower base datatype"
        )

    from lotuskit.lattice import hexagon_vertices

    out = bytearray(_STREAM_HEAD)

    def open_structure(name: str) -> None:
        out.extend(pack_record(BGNSTR, _ZERO_STAMPS))
        out.extend(pack_record(STRNAME, encode_ascii(validate_cell_name(name))))

    def close_structure() -> None:
        out.extend(pack_record(ENDSTR))

    arrays, rects = _emitted(target)
    background = rects if polarity == "walls" else []
    arrayed = mode == "arrayed"

    heads: dict[int, bytes] = {}  # each comb's AREF and SNAME records
    if arrayed:
        for comb in sorted({array.comb for array in arrays}):
            name = f"HEX_{comb}"
            open_structure(name)
            out += _boundary_bytes(layer, opening_datatype, hexagon_vertices(comb))
            close_structure()
            heads[comb] = pack_record(AREF) + pack_record(SNAME, encode_ascii(name))
    open_structure("TOP")
    for x0, y0, x1, y1 in background:
        out += _boundary_bytes(layer, datatype, [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    for array in arrays:
        if arrayed:
            out += _aref_bytes(heads[array.comb], array)
        else:
            _write_flat_array(out, array, layer, opening_datatype)
    close_structure()

    out += pack_record(ENDLIB)
    return bytes(out)


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------

class _RecordCursor:
    """Strict record walk over a stream, at a byte offset a decoder may move."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0  # the next record's offset

    def next(self, context: str) -> Record:
        record = _record_at(self.data, self.offset)
        if record is None:
            raise GdsParseError(
                f"unexpected end of stream while reading {context}", len(self.data)
            )
        self.offset += 4 + len(record.payload)
        return record

    def take(self, record_type: int) -> Record:
        """The next record, which must be of ``record_type``."""
        record = self.next(record_name(record_type))
        if record.record_type != record_type:
            raise record.error(f"expected {record_name(record_type)}, found {record.name}")
        return record


def read_gdsii(data: bytes) -> MaskGeometry:
    """Parse a GDSII stream into cells, references, and unit metadata.

    Array references are kept unexpanded; use :meth:`MaskGeometry.expand`
    to flatten.  Malformed streams raise :class:`GdsParseError` naming the
    byte offset and record type.

    Records are read one at a time at a byte offset, each checked by
    :func:`~lotuskit.gdsii._record_at`.  The boundaries that follow a parsed
    boundary with byte-identical framing (every byte outside the XY
    payload) are decoded as one numpy block, see :func:`_boundary_run`, and
    the offset moves past them.  Each such block becomes one entry of the
    cell's :attr:`MaskCell.runs`.
    """
    cursor = _RecordCursor(data)

    header = cursor.take(HEADER)
    if not header.int16s():
        raise header.error("HEADER carries no version")
    cursor.take(BGNLIB)
    library_name = cursor.take(LIBNAME).text()
    units_record = cursor.take(UNITS)
    units = units_record.reals()
    if len(units) != 2:
        raise units_record.error(f"UNITS must carry 2 reals, found {len(units)}")
    if min(units) <= 0.0:
        raise units_record.error(f"UNITS must be positive, got {units!r}")

    cells: dict[str, MaskCell] = {}
    while True:
        record = cursor.next("BGNSTR or ENDLIB")
        if record.record_type == ENDLIB:
            extra = _record_at(data, cursor.offset)
            if extra is None:
                break
            raise extra.error("records after ENDLIB")
        if record.record_type != BGNSTR:
            raise record.error(f"expected BGNSTR, found {record.name}")
        name_record = cursor.take(STRNAME)
        name = name_record.text()
        if name in cells:
            raise name_record.error(f"duplicate structure {name!r}")
        cell = MaskCell(name=name)
        while True:
            element = cursor.next(f"element in structure {name!r}")
            if element.record_type == ENDSTR:
                break
            if element.record_type == BOUNDARY:
                layer, datatype, xy = _parse_boundary(cursor)
                size = cursor.offset - element.offset
                block = _boundary_run(data, element.offset, size, xy)
                cursor.offset = element.offset + len(block) * size
                cell.runs.append((layer, datatype, block))
            elif element.record_type == SREF:
                cell.srefs.append(_parse_sref(cursor))
            elif element.record_type == AREF:
                cell.arefs.append(_parse_aref(cursor))
            else:
                raise element.error(f"unexpected {element.name} inside structure {name!r}")
        cells[name] = cell

    return MaskGeometry(
        library_name=library_name,
        db_unit_in_user_units=units[0],
        database_unit=units[1],
        cells=cells,
    )


def _xy_coords(record: Record) -> tuple[int, ...]:
    """An XY record's coordinates, x and y alternating."""
    values = record.int32s()
    if len(values) % 2:
        raise record.error("XY carries an odd number of coordinates")
    return values


def _int16_value(record: Record) -> int:
    """The first value of a LAYER or DATATYPE record."""
    values = record.int16s()
    if not values:
        raise record.error(f"{record.name} carries no value")
    return values[0]


def _parse_boundary(cursor: _RecordCursor) -> tuple[int, int, Record]:
    """Layer, datatype and checked XY record of a boundary after BOUNDARY."""
    layer = _int16_value(cursor.take(LAYER))
    datatype = _int16_value(cursor.take(DATATYPE))
    xy = cursor.take(XY)
    coords = _xy_coords(xy)
    if len(coords) < 8:
        raise xy.error(
            f"boundary needs at least 4 points (closed triangle), got {len(coords) // 2}"
        )
    if coords[:2] != coords[-2:]:
        raise xy.error(_UNCLOSED)
    cursor.take(ENDEL)
    return layer, datatype, xy


_UNCLOSED = "boundary is not closed (first point must repeat last)"
_RUN_PROBE = 64  # elements compared by the first framing check of a run


def _boundary_run(data: bytes, start: int, size: int, xy: Record) -> np.ndarray:
    """Decode the run of boundaries framed like the ``size`` bytes at ``start``.

    The element at ``start`` has been parsed strictly.  Every following
    element whose bytes outside the XY payload equal that element's passes
    every framing, record-type, data-type, LAYER, DATATYPE and point-count
    check identically, so only closure is left to test, and it is tested on
    the whole run at once; the first unclosed element raises the record walk's
    error at its XY record.  The run ends at the first element that
    differs, which the record walk then parses.  Returns the run's
    ``(n, k, 2)`` points block, the parsed element's open points first.
    """
    import numpy as np

    xy_start = xy.offset + 4 - start
    xy_end = xy_start + len(xy.payload)
    available = (len(data) - start) // size
    elements = np.frombuffer(data, np.uint8, available * size, start).reshape(
        available, size
    )
    count, probe = 1, _RUN_PROBE
    while count < available:
        block = elements[count : count + probe]
        same = (block[:, :xy_start] == elements[0, :xy_start]).all(axis=1) & (
            block[:, xy_end:] == elements[0, xy_end:]
        ).all(axis=1)
        if not same.all():
            count += int(np.argmin(same))
            break
        count, probe = count + len(block), 2 * probe

    payload = np.ascontiguousarray(elements[:count, xy_start:xy_end])
    points = payload.view(">i4").astype(np.int64).reshape(count, -1, 2)
    closed = (points[:, 0] == points[:, -1]).all(axis=1)
    if not closed.all():
        offset = start + int(np.argmin(closed)) * size + xy_start - 4
        raise GdsParseError(_UNCLOSED, offset, XY)
    return points[:, :-1]


def _parse_sref(cursor: _RecordCursor) -> CellArray:
    """An SREF after its SREF record, as a 1 x 1 array."""
    name = cursor.take(SNAME).text()
    xy = cursor.take(XY)
    origin = _xy_coords(xy)
    if len(origin) != 2:
        raise xy.error(f"SREF XY must carry exactly 1 point, got {len(origin) // 2}")
    cursor.take(ENDEL)
    return CellArray(name, origin, 1, 1, (0, 0), (0, 0))


def _parse_aref(cursor: _RecordCursor) -> CellArray:
    """An AREF after its AREF record."""
    name = cursor.take(SNAME).text()
    colrow = cursor.take(COLROW)
    counts = colrow.int16s()
    if len(counts) != 2 or counts[0] < 1 or counts[1] < 1:
        raise colrow.error(f"COLROW must carry two positive counts, got {counts!r}")
    xy = cursor.take(XY)
    coords = _xy_coords(xy)
    if len(coords) != 6:
        raise xy.error(f"AREF XY must carry exactly 3 points, got {len(coords) // 2}")
    (cols, rows), (x0, y0, col_x, col_y, row_x, row_y) = counts, coords
    col_dx, col_dy, row_dx, row_dy = col_x - x0, col_y - y0, row_x - x0, row_y - y0
    if col_dx % cols or col_dy % cols or row_dx % rows or row_dy % rows:
        raise xy.error("AREF spacing is not an integer number of database units")
    cursor.take(ENDEL)
    col_vector, row_vector = (col_dx // cols, col_dy // cols), (row_dx // rows, row_dy // rows)
    return CellArray(name, (x0, y0), cols, rows, col_vector, row_vector)


# --------------------------------------------------------------------------
# SVG preview
# --------------------------------------------------------------------------

_SVG_BACKGROUND = "#3b4252"  # solid structure tops
_SVG_OPENING = "#a3d5ff"  # air-filled openings


def write_svg(target: Target, max_cells: int = 20000) -> str:
    """Render a layout or gradient design as an SVG 1.1 document.

    One ``<path>`` element per opening over a solid background rectangle
    per extent.  Openings are drawn as whole hexagons — exactly the
    polygons :func:`write_gdsii` emits — so the preview shows the mask
    content faithfully (including cells straddling zone boundaries);
    the viewBox crops the visual at the extents.  The drawing is about
    800 px wide, at ``max(width / 800, 1)`` nm per pixel.

    Parameters
    ----------
    max_cells:
        Rendering guard, an integer of at least 1 (a ``bool`` is refused):
        exceeding it raises with a suggestion to crop.
    """
    from lotuskit.lattice import _as_count, hexagon_vertices

    max_cells = _as_count(max_cells, "max_cells", 1)
    total = layout_stats(target)["total_cells"]
    if total > max_cells:
        raise ValueError(
            f"{total} cells exceed max_cells={max_cells}; render a cropped "
            f"extent or raise max_cells"
        )
    arrays, rects = _emitted(target)

    if not rects:
        min_x = min_y = 0
        max_x = max_y = 1
    else:
        min_x = min(r[0] for r in rects)
        min_y = min(r[1] for r in rects)
        max_x = max(r[2] for r in rects)
        max_y = max(r[3] for r in rects)
    scale = max((max_x - min_x) / 800.0, 1.0)

    def px(x: int) -> float:
        return (x - min_x) / scale

    def py(y: int) -> float:
        return (max_y - y) / scale

    width = (max_x - min_x) / scale
    height = (max_y - min_y) / scale
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    for x0, y0, x1, y1 in rects:
        parts.append(
            f'<rect x="{px(x0):.3f}" y="{py(y1):.3f}" '
            f'width="{(x1 - x0) / scale:.3f}" height="{(y1 - y0) / scale:.3f}" '
            f'fill="{_SVG_BACKGROUND}"/>'
        )

    # Each distinct integer coordinate is formatted once.
    x_text: dict[int, str] = {}
    y_text: dict[int, str] = {}
    for array in arrays:
        hexagon = hexagon_vertices(array.comb)
        for center_x, center_y in array.centers():
            coords = []
            for dx, dy in hexagon:
                x, y = center_x + dx, center_y + dy
                if x not in x_text:
                    x_text[x] = f"{px(x):.3f}"
                if y not in y_text:
                    y_text[y] = f"{py(y):.3f}"
                coords.append(f"{x_text[x]},{y_text[y]}")
            parts.append(f'<path d="M {" L ".join(coords)} Z" fill="{_SVG_OPENING}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------

def layout_stats(target: Target, material: Material = WATER_ON_PMMA) -> dict:
    """Numeric summary of a layout or gradient design.

    For layouts: per-zone extents, cell counts, both fraction measures,
    aspect ratios, and predicted composite-state contact angles for the
    given material.  For gradient designs: the column census and endpoint
    geometry/fractions/angles.  Output is a plain JSON-ready dict.
    Counts and the row pitch are those of the mask that :func:`write_gdsii`
    and :func:`write_svg` emit for the same target.
    """
    from lotuskit.gradient import GradientDesign
    from lotuskit.lattice import (
        aspect_ratio,
        honeycomb_area_fraction,
        honeycomb_linear_ratio,
        lattice_arrays,
        row_pitch,
    )

    theta = material.theta_flat
    if isinstance(target, GradientDesign):
        spec = target.spec
        # Every zone spans the same rows, and each of its columns holds one
        # cell per row: even rows at x = k*pitch, odd rows at k*pitch + pitch/2.
        rows = sum(a.rows for a in lattice_arrays(target.zones[0], target.fabrication_grid))
        return {
            "kind": "gradient",
            "material": material.name,
            "theta_flat_deg": theta,
            "measure": spec.measure.value,
            "columns": target.n_columns,
            "pitch_nm": spec.pitch,
            "length_nm": target.length_nm,
            "lateral_width_nm": spec.lateral_width,
            "height_nm": spec.height,
            "row_pitch_nm": row_pitch(spec.pitch, target.fabrication_grid),
            "lattice_rows": rows,
            "total_cells": target.n_columns * rows,
            "wall_start_nm": target.runs[0][1],
            "wall_end_nm": target.runs[-1][1],
            "fraction_start": target.fractions[0],
            "fraction_end": target.fractions[-1],
            "cassie_angle_start_deg": cassie_apparent_angle(target.fractions[0], theta),
            "cassie_angle_end_deg": cassie_apparent_angle(target.fractions[-1], theta),
        }

    layout = _as_layout(target)
    grid = layout.fabrication_grid
    zones = []
    for zone in layout.zones:
        spec = zone.spec
        linear = honeycomb_linear_ratio(spec)
        area = honeycomb_area_fraction(spec)
        zones.append(
            {
                "origin_nm": [zone.extent.x, zone.extent.y],
                "size_nm": [zone.extent.width, zone.extent.height],
                "pitch_nm": spec.pitch,
                "wall_nm": spec.wall,
                "comb_diameter_nm": spec.comb_diameter,
                "height_nm": spec.height,
                "cell_count": sum(a.cols * a.rows for a in lattice_arrays(zone, grid)),
                "linear_ratio": linear,
                "area_fraction": area,
                "aspect_ratio": aspect_ratio(spec),
                "cassie_angle_linear_deg": cassie_apparent_angle(linear, theta),
                "cassie_angle_area_deg": cassie_apparent_angle(area, theta),
            }
        )
    return {
        "kind": "layout",
        "label": layout.label,
        "material": material.name,
        "theta_flat_deg": theta,
        "zone_count": len(zones),
        "total_cells": sum(z["cell_count"] for z in zones),
        "zones": zones,
    }
