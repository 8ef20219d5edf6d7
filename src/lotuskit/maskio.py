"""Mask export and inspection: GDSII streams, SVG previews, layout stats.

Writes honeycomb layouts and gradient designs as standards-conformant GDSII
stream files, reads them back for round-trip verification, renders SVG
previews, and summarizes layouts numerically.

Conventions
-----------
* Geometry source coordinates are integer nanometers; the default database
  unit is 1 nm, so quantization is exact.  Other database units must divide
  1 nm evenly.
* Mask hexagons are emitted whole (never clipped): a cell belongs to the
  zone or column containing its center, so abutting zones tile seamlessly
  without double-drawing, and edge hexagons may protrude up to half a comb
  diameter past the extent.  SVG previews draw the same whole hexagons.
* ``arrayed`` mode writes one hexagon structure per distinct opening size
  plus two array references per zone or column (even rows and the
  half-pitch-shifted odd rows); GDSII arrays are rectangular, and the
  triangular lattice is exactly two interleaved rectangular grids.  ``flat``
  mode writes every hexagon as an explicit boundary — fine for crops,
  enormous for full zones.
* Output bytes depend only on inputs and options: structure timestamps are
  zeroed unless an explicit timestamp option is set.
* Resist polarity: by default the hexagonal *openings* are the drawn
  regions.  ``polarity="walls"`` instead marks the solid field: each extent
  is drawn as a background rectangle on the base datatype with the openings
  on datatype + 1, for downstream XOR.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby
from typing import Union

import numpy as np

from lotuskit.gdsii import (
    AREF,
    BGNLIB,
    BGNSTR,
    BOUNDARY,
    COLROW,
    DATA_ASCII,
    DATA_INT16,
    DATA_INT32,
    DATA_NONE,
    DATA_REAL8,
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
    encode_ascii,
    encode_real8,
    iter_records,
    pack_record,
    record_name,
    validate_cell_name,
)
from lotuskit.gradient import GradientDesign
from lotuskit.lattice import (
    HoneycombSpec,
    LatticeArray,
    Layout,
    Rect,
    Zone,
    aspect_ratio,
    cell_counts,
    hexagon_offsets,
    honeycomb_area_fraction,
    honeycomb_linear_ratio,
    lattice_arrays,
    row_pitch,
)
from lotuskit.wetting import WATER_ON_PMMA, Material, cassie_apparent_angle

__all__ = [
    "GdsMode",
    "GdsOptions",
    "MaskBoundary",
    "CellRef",
    "CellArray",
    "MaskCell",
    "MaskGeometry",
    "write_gdsii",
    "read_gdsii",
    "write_svg",
    "layout_stats",
]

_GDS_VERSION = 600
_MAX_BOUNDARY_POINTS = 8191  # coordinate pairs per boundary, closure included
_INT16_MAX = 32767

Target = Union[Layout, Zone, GradientDesign]


class GdsMode(Enum):
    """How geometry is laid down in the stream."""

    FLAT = "flat"
    ARRAYED = "arrayed"


@dataclass(frozen=True)
class GdsOptions:
    """Knobs of the GDSII writer.

    Attributes
    ----------
    database_unit:
        Physical size of one database unit in meters (default 1 nm).  Must
        divide 1 nm evenly, since source geometry is integer nanometers.
    user_unit_in_db_units:
        Database units per user unit (default 1000: user unit = 1 um).
    layer, datatype:
        Layer/datatype pair for drawn polygons, each 0..255.
    mode:
        ``arrayed`` (compact, hierarchical) or ``flat`` (explicit polygons).
    library_name, top_cell_name:
        ASCII names written to LIBNAME / the top structure.
    timestamp:
        Optional (year, month, day, hour, minute, second) stamped into
        BGNLIB/BGNSTR; None (default) writes zeros so output is
        byte-reproducible.
    """

    database_unit: float = 1e-9
    user_unit_in_db_units: float = 1000.0
    layer: int = 1
    datatype: int = 0
    mode: GdsMode = GdsMode.ARRAYED
    library_name: str = "LOTUS"
    top_cell_name: str = "TOP"
    timestamp: tuple[int, int, int, int, int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", GdsMode(self.mode))
        if not self.database_unit > 0.0:
            raise ValueError(f"database_unit must be > 0 m, got {self.database_unit!r}")
        if not self.user_unit_in_db_units > 0.0:
            raise ValueError(
                f"user_unit_in_db_units must be > 0, got {self.user_unit_in_db_units!r}"
            )
        for name in ("layer", "datatype"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value <= 255:
                raise ValueError(f"{name} must be an integer in 0..255, got {value!r}")
        if not self.library_name:
            raise ValueError("library_name must be non-empty")
        try:
            self.library_name.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ValueError(
                f"library_name must be ASCII, got {self.library_name!r}"
            ) from exc
        validate_cell_name(self.top_cell_name)
        if self.timestamp is not None:
            stamp = tuple(self.timestamp)
            if len(stamp) != 6 or not all(isinstance(part, int) for part in stamp):
                raise ValueError(
                    f"timestamp must be six integers (y, m, d, h, m, s), got "
                    f"{self.timestamp!r}"
                )
            object.__setattr__(self, "timestamp", stamp)


# --------------------------------------------------------------------------
# Parsed-geometry model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MaskBoundary:
    """One polygon: layer, datatype, open vertex list in database units."""

    layer: int
    datatype: int
    points: np.ndarray  # (k, 2) int64, closure vertex not repeated

    def translated(self, dx: int, dy: int) -> "MaskBoundary":
        return MaskBoundary(self.layer, self.datatype, self.points + (dx, dy))


@dataclass(frozen=True)
class CellRef:
    """Single placement of a named cell."""

    cell: str
    origin: tuple[int, int]


@dataclass(frozen=True)
class CellArray:
    """Rectangular array placement of a named cell.

    Instance (i, j) for 0 <= i < cols, 0 <= j < rows sits at
    ``origin + i * col_vector + j * row_vector``.
    """

    cell: str
    origin: tuple[int, int]
    cols: int
    rows: int
    col_vector: tuple[int, int]
    row_vector: tuple[int, int]


@dataclass
class MaskCell:
    """One structure: its polygons and the references it places."""

    name: str
    boundaries: list[MaskBoundary] = field(default_factory=list)
    srefs: list[CellRef] = field(default_factory=list)
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

    def expand(self, cell_name: str | None = None) -> list[MaskBoundary]:
        """Flatten a cell (default: the sole top cell) to absolute polygons.

        The order is that of a depth-first walk: a cell's own boundaries,
        then its SREFs, then its AREFs, each array instance by instance
        (column index outer, row index inner).  Each cell is flattened
        once, and array instances are placed by broadcasting; nested
        references are followed recursively with cycle detection.  Every
        returned polygon owns a fresh points array.
        """
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
            placements = [
                (flatten(ref.cell, below), np.array([ref.origin], dtype=np.int64))
                for ref in cell.srefs
            ]
            arrays = [array for array in cell.arefs if array.cols > 0 and array.rows > 0]
            placements += zip(
                [flatten(array.cell, below) for array in arrays],
                _instance_offsets(arrays),
            )
            runs = _own_runs(cell.boundaries) + _placed(placements)
            flattened[name] = runs
            return runs

        return [
            boundary
            for layer, datatype, block in flatten(cell_name, frozenset())
            for boundary in _boundaries(layer, datatype, block)
        ]


# A run of polygons sharing layer, datatype and vertex count: the
# (n, k, 2) points block of n consecutive polygons.
_Run = tuple[int, int, np.ndarray]


def _boundaries(layer: int, datatype: int, block: np.ndarray) -> list[MaskBoundary]:
    return [MaskBoundary(layer, datatype, points) for points in block]


def _own_runs(boundaries: list[MaskBoundary]) -> list[_Run]:
    """A cell's boundaries as runs, copied, in order.

    Blocks take the dtype that adding int64 offsets gives, as translating
    each polygon did.
    """
    runs = []
    for (layer, datatype, _, dtype), group in groupby(boundaries, key=_boundary_key):
        points = [boundary.points for boundary in group]
        runs.append((layer, datatype, np.array(points, np.result_type(dtype, np.int64))))
    return runs


def _boundary_key(boundary: MaskBoundary) -> tuple:
    return boundary.layer, boundary.datatype, boundary.points.shape, boundary.points.dtype


def _instance_offsets(arrays: list[CellArray]) -> list[np.ndarray]:
    """Each array's (cols * rows, 2) instance origins, column index outer.

    All arrays of a cell are unrolled in one broadcast, then split.
    """
    if not arrays:
        return []
    counts = np.array([array.cols * array.rows for array in arrays])
    owner = np.repeat(np.arange(len(arrays)), counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = np.divmod(index, np.array([array.rows for array in arrays])[owner])
    origin, col_vector, row_vector = (
        np.array([getattr(array, name) for array in arrays], dtype=np.int64)[owner]
        for name in ("origin", "col_vector", "row_vector")
    )
    offsets = origin + i[:, None] * col_vector + j[:, None] * row_vector
    return np.split(offsets, np.cumsum(counts)[:-1])


def _placed(placements: list[tuple[list[_Run], np.ndarray]]) -> list[_Run]:
    """Translated copies of flattened cells, placement after placement.

    A placement is a flattened cell and its (m, 2) instance offsets; each
    instance holds all of the cell's runs in order.  Consecutive placements
    of single-run cells with the same layer, datatype and block layout are
    gathered into one run by a single fancy index.
    """
    runs: list[_Run] = []
    for key, group in groupby(placements, key=_single_run_key):
        group = list(group)
        if key is None:
            for cell_runs, offsets in group:
                moved = [
                    (layer, datatype, block + offsets[:, None, None, :])
                    for layer, datatype, block in cell_runs
                ]
                runs += [
                    (layer, datatype, blocks[index])
                    for index in range(len(offsets))
                    for layer, datatype, blocks in moved
                ]
            continue
        blocks = [cell_runs[0][2] for cell_runs, _ in group]
        lengths = [len(block) for block in blocks]
        counts = [len(offsets) for _, offsets in group]
        offsets = np.concatenate([offsets for _, offsets in group])
        # Per instance: its block's polygon count and first row in the
        # concatenated blocks; then per output polygon: its instance.
        sizes = np.repeat(lengths, counts)
        firsts = np.repeat(np.cumsum([0, *lengths[:-1]]), counts)
        instance = np.repeat(np.arange(len(offsets)), sizes)
        within = np.arange(len(instance)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        block = np.concatenate(blocks)[firsts[instance] + within]
        block += offsets[instance, None, :]
        runs.append((key[0], key[1], block))
    return runs


def _single_run_key(placement: tuple[list[_Run], np.ndarray]) -> tuple | None:
    cell_runs, _ = placement
    if len(cell_runs) != 1:
        return None
    layer, datatype, block = cell_runs[0]
    return layer, datatype, block.shape[1:], block.dtype


# --------------------------------------------------------------------------
# Geometry enumeration shared by the writers
# --------------------------------------------------------------------------

def _classify(target: Target) -> tuple[str, Union[Layout, GradientDesign]]:
    if isinstance(target, Zone):
        return "layout", Layout(zones=(target,), label="zone")
    if isinstance(target, Layout):
        return "layout", target
    if isinstance(target, GradientDesign):
        return "design", target
    raise TypeError(
        f"expected Layout, Zone, or GradientDesign, got {type(target).__name__}"
    )


def _column_zone(design: GradientDesign, x_nm: int, wall: int) -> Zone:
    """A design column ``[x, x + pitch) x [0, lateral_width)`` as a zone."""
    spec = design.spec
    return Zone(
        spec=HoneycombSpec(pitch=spec.pitch, wall=wall, height=spec.height),
        extent=Rect(x_nm, 0, spec.pitch, spec.lateral_width),
    )


def _fabrication_grid(obj: Union[Layout, GradientDesign]) -> int:
    """The grid that row pitches snap to: a design's own, else 10 nm.

    A layout carries no grid of its own, so its writers and its census use
    10 nm whatever the project rules say.
    """
    return obj.fabrication_grid if isinstance(obj, GradientDesign) else 10


def _target_arrays(kind: str, obj: Union[Layout, GradientDesign]) -> list[LatticeArray]:
    """Every zone's (or design column's) lattice arrays, in zone order.

    Design columns share pitch and width, so column k's arrays are column
    0's shifted by ``k * pitch`` with its own comb.
    """
    grid = _fabrication_grid(obj)
    if kind == "layout":
        return [array for zone in obj.zones for array in lattice_arrays(zone, grid)]
    pitch = obj.spec.pitch
    first = lattice_arrays(_column_zone(obj, *obj.columns[0]), grid)
    return [
        replace(
            array, comb=pitch - wall, origin=(array.origin[0] + k * pitch, array.origin[1])
        )
        for k, (_, wall) in enumerate(obj.columns)
        for array in first
    ]


def _background_rects(kind: str, obj: Union[Layout, GradientDesign]) -> list[tuple[int, int, int, int]]:
    """Extent rectangles (x, y, x_max, y_max) for walls-polarity output."""
    if kind == "layout":
        return [
            (z.extent.x, z.extent.y, z.extent.x_max, z.extent.y_max)
            for z in obj.zones
        ]
    return [(0, 0, obj.length_nm, obj.spec.lateral_width)]


# --------------------------------------------------------------------------
# Writer
# --------------------------------------------------------------------------

def _db_scale(database_unit: float) -> int:
    """Integer database units per nanometer (source geometry is integer nm)."""
    ratio = 1e-9 / database_unit
    scale = round(ratio)
    if scale < 1 or abs(ratio - scale) > 1e-6 * scale:
        raise ValueError(
            f"database_unit {database_unit!r} m must evenly divide 1 nm"
        )
    return scale


def _xy_payload(points: list[tuple[int, int]]) -> bytes:
    flat: list[int] = []
    for x, y in points:
        flat.append(x)
        flat.append(y)
    try:
        return struct.pack(f">{len(flat)}i", *flat)
    except struct.error as exc:
        raise ValueError(
            f"coordinate overflow: XY values must fit signed 32-bit database "
            f"units ({exc})"
        ) from None


def _boundary_bytes(layer: int, datatype: int, points: list[tuple[int, int]]) -> bytes:
    closed = [*points, points[0]]
    if len(closed) > _MAX_BOUNDARY_POINTS:
        raise ValueError(
            f"boundary with {len(closed)} points exceeds the "
            f"{_MAX_BOUNDARY_POINTS}-point record limit"
        )
    return (
        pack_record(BOUNDARY, DATA_NONE)
        + pack_record(LAYER, DATA_INT16, struct.pack(">h", layer))
        + pack_record(DATATYPE, DATA_INT16, struct.pack(">h", datatype))
        + pack_record(XY, DATA_INT32, _xy_payload(closed))
        + pack_record(ENDEL, DATA_NONE)
    )


def _aref_bytes(array: LatticeArray, cell_name: str, scale: int) -> bytes:
    if array.cols > _INT16_MAX or array.rows > _INT16_MAX:
        raise ValueError(
            f"array of {array.cols} x {array.rows} exceeds the 16-bit "
            f"column/row limit; split the extent"
        )
    origin = (array.origin[0] * scale, array.origin[1] * scale)
    col_end = (
        origin[0] + array.cols * array.col_vector[0] * scale,
        origin[1] + array.cols * array.col_vector[1] * scale,
    )
    row_end = (
        origin[0] + array.rows * array.row_vector[0] * scale,
        origin[1] + array.rows * array.row_vector[1] * scale,
    )
    return (
        pack_record(AREF, DATA_NONE)
        + pack_record(SNAME, DATA_ASCII, encode_ascii(cell_name))
        + pack_record(COLROW, DATA_INT16, struct.pack(">2h", array.cols, array.rows))
        + pack_record(XY, DATA_INT32, _xy_payload([origin, col_end, row_end]))
        + pack_record(ENDEL, DATA_NONE)
    )


def _hexagon_cell_points(comb: int, scale: int) -> list[tuple[int, int]]:
    offsets = np.rint(hexagon_offsets(comb)).astype(np.int64) * scale
    return [(int(x), int(y)) for x, y in offsets]


_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_FLAT_BLOCK_CELLS = 8192  # cells encoded per numpy block in flat mode


def _write_flat_array(
    out: bytearray, array: LatticeArray, layer: int, datatype: int, scale: int
) -> None:
    """Append one boundary per cell of ``array``, in row-major order.

    The boundary bytes of the hexagon centered at the origin are a template
    of big-endian int32 words (every record here is a multiple of 4 bytes):
    each cell adds its scaled center to the template's XY words.  The
    extreme centers, scaled in exact integers, show whether every word
    fits int32; otherwise the array is encoded cell by cell, which raises
    the coordinate-overflow error at the first cell that overflows.
    """
    hexagon = _hexagon_cell_points(array.comb, scale)
    centers = array.centers()
    low, high = centers.min(axis=0).tolist(), centers.max(axis=0).tolist()
    if not all(
        _INT32_MIN <= offset + bound * scale <= _INT32_MAX
        for point in hexagon
        for axis, offset in enumerate(point)
        for bound in (low[axis], high[axis])
    ):
        for center_x, center_y in centers.tolist():
            out += _boundary_bytes(
                layer,
                datatype,
                [(x + center_x * scale, y + center_y * scale) for x, y in hexagon],
            )
        return

    template = np.frombuffer(
        _boundary_bytes(layer, datatype, hexagon), dtype=">i4"
    ).astype(np.int64)
    # Words 0-4: BOUNDARY, LAYER, DATATYPE and the XY header; then the
    # closed vertex list as x, y pairs; the last word is ENDEL.
    xy_end = 5 + 2 * (len(hexagon) + 1)
    along_x = np.zeros_like(template)
    along_x[5:xy_end:2] = 1
    along_y = np.zeros_like(template)
    along_y[6:xy_end:2] = 1

    scaled = centers * scale
    for first in range(0, len(scaled), _FLAT_BLOCK_CELLS):
        block = scaled[first : first + _FLAT_BLOCK_CELLS]
        words = template + block[:, :1] * along_x + block[:, 1:] * along_y
        out += words.astype(">i4").data


def write_gdsii(
    target: Target, options: GdsOptions | None = None, polarity: str = "openings"
) -> bytes:
    """Emit a layout or gradient design as a GDSII stream.

    Parameters
    ----------
    target:
        A :class:`Layout`, single :class:`Zone`, or :class:`GradientDesign`.
    options:
        Units, layer, mode, and naming; see :class:`GdsOptions`.
    polarity:
        ``"openings"`` (default) draws the hexagonal openings;
        ``"walls"`` additionally draws each extent as a background rectangle
        on the base datatype and moves the openings to datatype + 1.

    Returns
    -------
    bytes
        The complete stream, byte-reproducible for identical inputs.
    """
    if options is None:
        options = GdsOptions()
    if polarity not in ("openings", "walls"):
        raise ValueError(f"polarity must be 'openings' or 'walls', got {polarity!r}")
    kind, obj = _classify(target)
    scale = _db_scale(options.database_unit)

    opening_datatype = options.datatype + (1 if polarity == "walls" else 0)
    if opening_datatype > 255:
        raise ValueError(
            f"walls polarity places openings on datatype {opening_datatype}, "
            f"beyond 255; pick a lower base datatype"
        )

    stamp = options.timestamp if options.timestamp is not None else (0, 0, 0, 0, 0, 0)
    begin_payload = struct.pack(">12h", *(stamp * 2))  # modification + access

    out = bytearray()
    out += pack_record(HEADER, DATA_INT16, struct.pack(">h", _GDS_VERSION))
    out += pack_record(BGNLIB, DATA_INT16, begin_payload)
    out += pack_record(LIBNAME, DATA_ASCII, encode_ascii(options.library_name))
    out += pack_record(
        UNITS,
        DATA_REAL8,
        encode_real8(1.0 / options.user_unit_in_db_units)
        + encode_real8(options.database_unit),
    )

    def open_structure(name: str) -> None:
        out.extend(pack_record(BGNSTR, DATA_INT16, begin_payload))
        out.extend(pack_record(STRNAME, DATA_ASCII, encode_ascii(validate_cell_name(name))))

    def close_structure() -> None:
        out.extend(pack_record(ENDSTR, DATA_NONE))

    background = _background_rects(kind, obj) if polarity == "walls" else []
    arrays = _target_arrays(kind, obj)
    arrayed = options.mode is GdsMode.ARRAYED

    if arrayed:
        for comb in sorted({array.comb for array in arrays}):
            open_structure(f"HEX_{comb}")
            out += _boundary_bytes(
                options.layer, opening_datatype, _hexagon_cell_points(comb, scale)
            )
            close_structure()
    open_structure(options.top_cell_name)
    for x0, y0, x1, y1 in background:
        out += _boundary_bytes(
            options.layer,
            options.datatype,
            [(x0 * scale, y0 * scale), (x1 * scale, y0 * scale),
             (x1 * scale, y1 * scale), (x0 * scale, y1 * scale)],
        )
    for array in arrays:
        if arrayed:
            out += _aref_bytes(array, f"HEX_{array.comb}", scale)
        else:
            _write_flat_array(out, array, options.layer, opening_datatype, scale)
    close_structure()

    out += pack_record(ENDLIB, DATA_NONE)
    return bytes(out)


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------

def _expect(record: Record, wanted: int) -> Record:
    if record.record_type != wanted:
        raise GdsParseError(
            f"expected {record_name(wanted)}, found {record.name}",
            record.offset,
            record.record_type,
        )
    return record


class _RecordCursor:
    """Strict record walk over a stream that can skip past decoded bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.end = 0  # offset just past the last record returned
        self._records = iter_records(data)

    def next(self, context: str) -> Record:
        try:
            record = next(self._records)
        except StopIteration:
            raise GdsParseError(
                f"unexpected end of stream while reading {context}", len(self.data)
            ) from None
        self.end = record.offset + 4 + len(record.payload)
        return record

    def skip_to(self, offset: int) -> None:
        self._records = iter_records(self.data, offset)
        self.end = offset

    def extra(self) -> Record | None:
        """The next record, or None at the end of the stream."""
        return next(self._records, None)


def read_gdsii(data: bytes) -> MaskGeometry:
    """Parse a GDSII stream into cells, references, and unit metadata.

    Array references are kept unexpanded; use :meth:`MaskGeometry.expand`
    to flatten.  Malformed streams raise :class:`GdsParseError` naming the
    byte offset and record type.

    Records are walked one at a time, except that the boundaries following
    a parsed boundary with byte-identical framing (every byte outside the
    XY payload) are decoded as one numpy block; see :func:`_boundary_run`.
    """
    cursor = _RecordCursor(data)
    next_record = cursor.next

    header = _expect(next_record("HEADER"), HEADER)
    if not header.int16s():
        raise GdsParseError("HEADER carries no version", header.offset, HEADER)
    _expect(next_record("BGNLIB"), BGNLIB)
    library_name = _expect(next_record("LIBNAME"), LIBNAME).text()
    units_record = _expect(next_record("UNITS"), UNITS)
    units = units_record.reals()
    if len(units) != 2:
        raise GdsParseError(
            f"UNITS must carry 2 reals, found {len(units)}", units_record.offset, UNITS
        )

    cells: dict[str, MaskCell] = {}
    while True:
        record = next_record("BGNSTR or ENDLIB")
        if record.record_type == ENDLIB:
            extra = cursor.extra()
            if extra is None:
                break
            raise GdsParseError(
                "records after ENDLIB", extra.offset, extra.record_type
            )
        _expect(record, BGNSTR)
        name_record = _expect(next_record("STRNAME"), STRNAME)
        name = name_record.text()
        if name in cells:
            raise GdsParseError(
                f"duplicate structure {name!r}", name_record.offset, STRNAME
            )
        cell = MaskCell(name=name)
        while True:
            element = next_record(f"element in structure {name!r}")
            if element.record_type == ENDSTR:
                break
            if element.record_type == BOUNDARY:
                boundary, xy = _parse_boundary(element, next_record)
                run = _boundary_run(data, element.offset, cursor.end, xy, boundary)
                if run:
                    size = cursor.end - element.offset
                    cursor.skip_to(element.offset + len(run) * size)
                cell.boundaries += run or [boundary]
            elif element.record_type == SREF:
                cell.srefs.append(_parse_sref(next_record))
            elif element.record_type == AREF:
                cell.arefs.append(_parse_aref(next_record))
            else:
                raise GdsParseError(
                    f"unexpected {element.name} inside structure {name!r}",
                    element.offset,
                    element.record_type,
                )
        cells[name] = cell

    return MaskGeometry(
        library_name=library_name,
        db_unit_in_user_units=units[0],
        database_unit=units[1],
        cells=cells,
    )


def _parse_xy_pairs(record: Record) -> np.ndarray:
    values = record.int32s()
    if len(values) % 2:
        raise GdsParseError(
            "XY carries an odd number of coordinates", record.offset, XY
        )
    return np.asarray(values, dtype=np.int64).reshape(-1, 2)


def _parse_boundary(start: Record, next_record) -> tuple[MaskBoundary, Record]:
    """One boundary element after its BOUNDARY record, plus its XY record."""
    layer_record = _expect(next_record("LAYER"), LAYER)
    layer = layer_record.int16s()
    if not layer:
        raise GdsParseError("LAYER carries no value", layer_record.offset, LAYER)
    datatype_record = _expect(next_record("DATATYPE"), DATATYPE)
    datatype = datatype_record.int16s()
    if not datatype:
        raise GdsParseError(
            "DATATYPE carries no value", datatype_record.offset, DATATYPE
        )
    xy = _expect(next_record("XY"), XY)
    points = _parse_xy_pairs(xy)
    if len(points) < 4:
        raise GdsParseError(
            f"boundary needs at least 4 points (closed triangle), got {len(points)}",
            xy.offset,
            XY,
        )
    if len(points) > _MAX_BOUNDARY_POINTS:
        raise GdsParseError(
            f"boundary with {len(points)} points exceeds the "
            f"{_MAX_BOUNDARY_POINTS}-point limit",
            xy.offset,
            XY,
        )
    if not np.array_equal(points[0], points[-1]):
        raise GdsParseError(_UNCLOSED, xy.offset, XY)
    _expect(next_record("ENDEL"), ENDEL)
    boundary = MaskBoundary(layer=layer[0], datatype=datatype[0], points=points[:-1])
    return boundary, xy


_UNCLOSED = "boundary is not closed (first point must repeat last)"
_RUN_PROBE = 64  # elements compared by the first framing check of a run


def _boundary_run(
    data: bytes, start: int, end: int, xy: Record, first: MaskBoundary
) -> list[MaskBoundary]:
    """Decode the run of boundaries framed like the one at ``start:end``.

    The element at ``start`` has been parsed strictly.  Every following
    element whose bytes outside the XY payload equal that element's passes
    every framing, record-type, LAYER, DATATYPE and point-count check
    identically, so only closure is left to test, and it is tested on the
    whole run at once; the first unclosed element raises the record walk's
    error at its XY record.  The run ends at the first element that
    differs, which the record walk then parses.  Returns the run's
    boundaries, ``first``'s element included, or an empty list when the
    next element differs.
    """
    size = end - start
    xy_start = xy.offset + 4 - start
    xy_end = xy_start + len(xy.payload)
    head, tail = data[start : start + xy_start], data[start + xy_end : end]
    if (
        data[end : end + xy_start] != head
        or data[end + xy_end : end + size] != tail
    ):
        return []
    available = (len(data) - start) // size
    elements = np.frombuffer(data, np.uint8, available * size, start).reshape(
        available, size
    )
    count, probe = 2, _RUN_PROBE
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
    return _boundaries(first.layer, first.datatype, points[:, :-1])


def _parse_sref(next_record) -> CellRef:
    name = _expect(next_record("SNAME"), SNAME).text()
    xy = _expect(next_record("XY"), XY)
    points = _parse_xy_pairs(xy)
    if len(points) != 1:
        raise GdsParseError(
            f"SREF XY must carry exactly 1 point, got {len(points)}", xy.offset, XY
        )
    _expect(next_record("ENDEL"), ENDEL)
    return CellRef(cell=name, origin=(int(points[0, 0]), int(points[0, 1])))


def _parse_aref(next_record) -> CellArray:
    name = _expect(next_record("SNAME"), SNAME).text()
    colrow = _expect(next_record("COLROW"), COLROW)
    counts = colrow.int16s()
    if len(counts) != 2 or counts[0] < 1 or counts[1] < 1:
        raise GdsParseError(
            f"COLROW must carry two positive counts, got {counts!r}",
            colrow.offset,
            COLROW,
        )
    cols, rows = counts
    xy = _expect(next_record("XY"), XY)
    points = _parse_xy_pairs(xy)
    if len(points) != 3:
        raise GdsParseError(
            f"AREF XY must carry exactly 3 points, got {len(points)}", xy.offset, XY
        )
    origin = (int(points[0, 0]), int(points[0, 1]))
    col_span = (int(points[1, 0]) - origin[0], int(points[1, 1]) - origin[1])
    row_span = (int(points[2, 0]) - origin[0], int(points[2, 1]) - origin[1])
    if col_span[0] % cols or col_span[1] % cols or row_span[0] % rows or row_span[1] % rows:
        raise GdsParseError(
            "AREF spacing is not an integer number of database units",
            xy.offset,
            XY,
        )
    _expect(next_record("ENDEL"), ENDEL)
    return CellArray(
        cell=name,
        origin=origin,
        cols=cols,
        rows=rows,
        col_vector=(col_span[0] // cols, col_span[1] // cols),
        row_vector=(row_span[0] // rows, row_span[1] // rows),
    )


# --------------------------------------------------------------------------
# SVG preview
# --------------------------------------------------------------------------

_SVG_BACKGROUND = "#3b4252"  # solid structure tops
_SVG_OPENING = "#a3d5ff"  # air-filled openings


def write_svg(
    target: Target, scale: float | None = None, max_cells: int = 20000
) -> str:
    """Render a layout or gradient design as an SVG 1.1 document.

    One ``<path>`` element per opening over a solid background rectangle
    per extent.  Openings are drawn as whole hexagons — exactly the
    polygons :func:`write_gdsii` emits — so the preview shows the mask
    content faithfully (including cells straddling zone boundaries);
    the viewBox crops the visual at the extents.

    Parameters
    ----------
    scale:
        Nanometers per pixel; default sizes the drawing to ~800 px wide.
    max_cells:
        Rendering guard: exceeding it raises with a suggestion to crop.
    """
    kind, obj = _classify(target)
    arrays = _target_arrays(kind, obj)
    total = sum(array.cols * array.rows for array in arrays)
    if total > max_cells:
        raise ValueError(
            f"{total} cells exceed max_cells={max_cells}; render a cropped "
            f"extent or raise max_cells"
        )

    rects = _background_rects(kind, obj)
    if not rects:
        min_x = min_y = 0
        max_x = max_y = 1
    else:
        min_x = min(r[0] for r in rects)
        min_y = min(r[1] for r in rects)
        max_x = max(r[2] for r in rects)
        max_y = max(r[3] for r in rects)
    if scale is None:
        scale = max((max_x - min_x) / 800.0, 1.0)
    if not scale > 0:
        raise ValueError(f"scale must be > 0 nm per pixel, got {scale!r}")

    def px(x: float) -> float:
        return (x - min_x) / scale

    def py(y: float) -> float:
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
    hexagons: dict[int, list[tuple[int, int]]] = {}
    for array in arrays:
        if array.comb not in hexagons:
            hexagons[array.comb] = _hexagon_cell_points(array.comb, 1)
        hexagon = hexagons[array.comb]
        for center_x, center_y in array.centers().tolist():
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

    For layouts: per-zone extents, cell counts (closed form), both fraction
    measures, aspect ratios, and predicted composite-state contact angles
    for the given material.  For gradient designs: the column census and
    endpoint geometry/fractions/angles.  Output is a plain JSON-ready dict.
    Counts and the row pitch are those of the mask that :func:`write_gdsii`
    and :func:`write_svg` emit for the same target.
    """
    kind, obj = _classify(target)
    grid = _fabrication_grid(obj)
    theta = material.theta_flat
    if kind == "layout":
        zones = []
        for zone in obj.zones:
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
                    "cell_count": cell_counts(zone, grid).total,
                    "linear_ratio": linear,
                    "area_fraction": area,
                    "aspect_ratio": aspect_ratio(spec),
                    "cassie_angle_linear_deg": cassie_apparent_angle(linear, theta),
                    "cassie_angle_area_deg": cassie_apparent_angle(area, theta),
                }
            )
        return {
            "kind": "layout",
            "label": obj.label,
            "material": material.name,
            "theta_flat_deg": theta,
            "zone_count": len(zones),
            "total_cells": sum(z["cell_count"] for z in zones),
            "zones": zones,
        }

    design = obj
    column = cell_counts(_column_zone(design, *design.columns[0]), grid)
    first_wall = design.columns[0][1]
    last_wall = design.columns[-1][1]
    return {
        "kind": "gradient",
        "material": material.name,
        "theta_flat_deg": theta,
        "measure": design.spec.measure.value,
        "columns": design.n_columns,
        "pitch_nm": design.spec.pitch,
        "length_nm": design.length_nm,
        "lateral_width_nm": design.spec.lateral_width,
        "height_nm": design.spec.height,
        "row_pitch_nm": row_pitch(design.spec.pitch, grid),
        "lattice_rows": column.levels,
        "total_cells": design.n_columns * column.total,
        "wall_start_nm": first_wall,
        "wall_end_nm": last_wall,
        "fraction_start": design.fractions[0],
        "fraction_end": design.fractions[-1],
        "cassie_angle_start_deg": cassie_apparent_angle(design.fractions[0], theta),
        "cassie_angle_end_deg": cassie_apparent_angle(design.fractions[-1], theta),
    }
