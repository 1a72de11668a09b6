"""Scenario and dataset serialization.

This module owns the scenario and dataset formats and the errors for bad
input (``model.json`` belongs to ``models``, ``manifest.json`` to ``cli``
and config files to ``config``): ``write_csv`` is the one CSV writer,
``CsvTable`` the one CSV reader, ``read_json_object`` the one JSON reader
and ``json_field`` the one checker of a JSON field that holds numbers (the
metadata, checkpoint descriptors and config values). A scenario lives in
its own directory (the import format for real captures too):

  rssi.csv    t,p0,...,p{M-1}   one row per frame, consecutive t
  lidar.csv   t,angle,depth     zero or more points per frame
  truth.csv   t,x,y,blocked     optional; x,y blank when unknown
  meta.json                     codebook, channel, link, region, threshold

Blockage flags are not stored: ``label`` derives them from meta.json's
power threshold. In memory a scenario is one ``ScenarioBundle`` of
columns, with no per-row or per-scan object: ``t`` (T,) and ``rssi`` (T,
M), ``truth`` a ``Truth`` of (R,) times, (R, 2) positions (NaN where
blank) and (R,) flags, and ``lidar`` a ``Lidar`` of lidar.csv's (P,) times
and (P, 2) points in time order; the rows at one t are that frame's scan.
The bundle's one rule table says what a valid scenario is; ``load_scenario``
only adds the file and line of the first broken row.

A dataset holds the training windows of one drive (format 5). Its two
bulk float64 blocks are ``.npy`` arrays, written with ``np.save`` and read
with ``np.load``, both with ``allow_pickle=False``; the scenario stays CSV.
The window ending at step t covers steps t-T0+1 .. t, so each power frame
is stored once and a window finds its frames by its time:

  frames.npy    (F, M)         the frame of every step that some window
                               covers, once each, in step order
  rasters.npy   (n, bins)      the LiDAR raster at each window's t, one row
                               per samples.csv row
  samples.csv   t,f0,...,f{2N-1},b0,...,b{N-1}
                               one row per window, t rising row by row; f
                               the next N centroids (x, y), b their
                               blockage flags
  dataset.json                 preprocessing settings, the drive's link and
                               splits

Window i is frames.npy rows start_i .. start_i+T0-1, where start_i counts
the covered steps before its first one. A save refuses windows whose
times do not rise, or two windows with other float64 bytes (-0.0 and 0.0
differ) for a step they share, so every file set it writes is the only
one for its windows: the arrays keep their bits, the CSV floats are
written with repr, and a load after save is bit-identical, as is a save
after load. A load refuses a t that does not rise, naming its line. An
array's header is checked before its data is read: dtype float64, the
shape that dataset.json and samples.csv give, and then finite values. In
memory a dataset is one ``preprocess.WindowSet``, frames.npy's array as it
is plus each window's start_i and an array per other field, and the splits'
row indices; no (n, T0, M) window tensor is built.

``write_csv`` takes a table as column blocks (arrays or lists) and formats
each numeric block once per distinct value: one ``repr`` per float64 bit
pattern, one ``str`` per integer or flag, then a gather. The scenario and
dataset files repeat their values a lot (lidar angles and depths, the
raster's max-range fill), so most cells cost an index, not a ``repr``.

``CsvTable`` reads the other way: each loader names its columns' types
(float, int, 0/1 flag, or float-or-blank), and the reader casts a
chunk of about ``CHUNK_CELLS`` cells at a time into typed arrays and drops
its strings. A load's memory is its output arrays plus one chunk of text,
and its values and ParseErrors are those of casting the whole file at once.
Like the writer, it handles a repeated value once: when a chunk's distinct
strings of one column type are at most half of its cells, each is parsed
once and the values are gathered (``lidar.csv``); other chunks are cast
cell by cell.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SchemaError, ensure_finite
from .preprocess import LabeledSample, WindowSet
from .scene import TWO_PI

SCENARIO_FORMAT_VERSION = 1
DATASET_FORMAT_VERSION = 5


class Truth(NamedTuple):
    """Ground-truth rows as columns, row i of each for one step."""

    t: np.ndarray        # (R,) int64 frame times
    pos: np.ndarray      # (R, 2) object centre, world frame; NaN where unknown
    blocked: np.ndarray  # (R,) bool


class Lidar(NamedTuple):
    """lidar.csv's rows in time order, the rows at one t (its scan) in file order."""

    t: np.ndarray       # (P,) int64 frame times, not decreasing
    points: np.ndarray  # (P, 2) angle [rad] in [0, 2*pi), depth [m] > 0


def _times(values, what: str) -> np.ndarray:
    """``values`` as int64 times. A float that is not an integer within int64
    is refused, naming ``what``, as ``load_scenario`` refuses ``1.5``: the
    cast alone would truncate it."""
    values = np.asarray(values)
    if values.dtype.kind != "f":
        return np.asarray(values, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN, inf and overflows cast to junk, refused below
        times = values.astype(np.int64)
    bad = times != values
    if bad.any():
        raise SchemaError(f"{what} time t={float(values[bad][0])} is not an integer within int64")
    return times


@dataclass
class ScenarioBundle:
    """One recorded drive as columns: row i of ``rssi`` is the frame at time
    ``t[i]``; lidar and truth rows name their frame by its time. Past the
    shapes, ``_rules`` is the one table of scenario rules, ``load_scenario``'s
    too, so a bundle saves and loads back bit for bit; the first rule broken
    raises naming its first broken row's t, with ``table`` and ``row`` set."""

    scenario_id: str
    t: np.ndarray     # (T,) int64, consecutive
    rssi: np.ndarray  # (T, M) per-beam power, linear units
    lidar: Lidar
    truth: Truth | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rssi = ensure_finite("powers", self.rssi)
        self.t = _times(self.t, "RSSI frame")
        if self.rssi.ndim != 2 or self.t.shape != self.rssi.shape[:1]:
            raise ValueError("powers must be a (T, M) array with one time t per row")
        scan_t, points = self.lidar
        scan_t, points = self.lidar = Lidar(_times(scan_t, "lidar row"),
                                            np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 2 or scan_t.shape != points.shape[:1]:
            raise ValueError("lidar must hold (n,) times and points of shape (n, 2)")
        ensure_finite("points", points)
        if self.truth is not None:
            t, pos, blocked = self.truth
            t, pos, blocked = self.truth = Truth(_times(t, "truth row"),
                                                 np.asarray(pos, dtype=np.float64),
                                                 np.asarray(blocked, dtype=bool))
            if pos.shape != (len(t), 2) or blocked.shape != (len(t),):
                raise ValueError("truth must hold (R,) times, (R, 2) positions and (R,) flags")
        for table, broken, error, message in self._rules():
            if np.any(broken):
                row = int(np.argmax(broken)) if np.ndim(broken) else None
                times = {"rssi": self, "lidar": self.lidar, "truth": self.truth}[table].t
                fault = error(message if row is None else message.format(times[row]))
                fault.table, fault.row = table, row
                raise fault

    def _rules(self):
        """The rules in order, each (table, broken, error, message): ``broken``
        flags the rows of ``rssi``, ``lidar`` or ``truth`` (one flag for a
        whole-table rule, row None). Each is worked out only once those before
        it hold, so other times meet consecutive frames."""
        t, rssi, (scan_t, points) = self.t, self.rssi, self.lidar
        yield ("rssi", 0 in rssi.shape, SchemaError,
               f"scenario has no RSSI frames or no beams: {rssi.shape}")
        yield "rssi", (rssi < 0).any(axis=1), ValueError, "RSSI frame at t={} has a negative power"
        yield ("rssi", np.diff(t, prepend=t[:1] - 1) != 1, SchemaError,
               "RSSI frames are not in time order: t={} must follow the row above by 1")
        yield ("lidar", (scan_t < t[0]) | (scan_t > t[-1]), SchemaError,
               "lidar scan at t={} has no matching RSSI frame")
        yield ("lidar", np.diff(scan_t, prepend=scan_t[:1]) < 0, SchemaError,
               "lidar rows are not in time order: t={} must not fall below the row above")
        yield ("lidar", (points[:, 0] < 0) | (points[:, 0] >= TWO_PI), ValueError,
               "lidar point at t={}: angles must lie in [0, 2*pi)")
        yield ("lidar", points[:, 1] <= 0, ValueError,
               "lidar point at t={}: depths must be positive")
        if self.truth is not None:
            truth_t, xy, _ = self.truth
            yield ("truth", ~(np.isfinite(xy).all(axis=1) | np.isnan(xy).all(axis=1)), SchemaError,
                   "truth row at t={}: x and y must be finite, or blank (NaN) together")
            yield ("truth", (truth_t < t[0]) | (truth_t > t[-1]), SchemaError,
                   "truth row at t={} has no matching RSSI frame")
            repeated = np.ones(len(truth_t), dtype=bool)
            repeated[np.unique(truth_t, return_index=True)[1]] = False  # each time's first row
            yield "truth", repeated, SchemaError, "truth time repeats an earlier row's t: t={}"


def _parse_float(path: Path, line_no: int, cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(str(path), line_no, f"bad float {cell!r} in column {column}") from None
    if not math.isfinite(value):
        raise ParseError(str(path), line_no, f"non-finite value in column {column}")
    return value


def _parse_int(path: Path, line_no: int, cell: str, column: str) -> int:
    try:
        value = int(cell)
        if -(2**63) <= value < 2**63:
            return value
    except ValueError:
        pass
    raise ParseError(str(path), line_no, f"bad integer {cell!r} in column {column}")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(int(value))


# Cells are formatted and written, or read and cast, per chunk of whole
# rows, so no file's whole text, nor a string per cell of it, is held at
# once. Chunks of this size (about 300 KB of text) write as fast as larger
# ones, and the short-lived strings keep the run's peak RSS down.
CHUNK_CELLS = 16384


def _block(path, block) -> np.ndarray:
    """A column block as a 2-D array: a float, integer or bool ndarray as it
    is, anything else (a list, or an array of str, None or mixed cells) as
    the strings of its cells, formatted by ``_cell`` one by one; a cell
    holding a separator is a SchemaError."""
    numeric = isinstance(block, np.ndarray) and block.dtype.kind in "fbiu"
    values = block if numeric else np.array(block, dtype=object)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise SchemaError(f"{path}: a column block must be 1-D or 2-D, got {values.ndim}-D")
    if numeric:
        return values
    strings = [_cell(v) for v in values.ravel().tolist()]
    text = "".join(strings)
    if "," in text or "\n" in text or "\r" in text:
        bad = next(s for s in strings if "," in s or "\n" in s or "\r" in s)
        raise SchemaError(f"{path}: cell {bad!r} holds a comma or a line break")
    return np.array(strings, dtype=object).reshape(values.shape)


def _formatted(values: np.ndarray) -> np.ndarray:
    """The cell strings of a 2-D block, each distinct value formatted once:
    ``repr`` per float64 bit pattern (so -0.0 and 0.0, and NaN payloads,
    stay apart), ``str`` per integer or flag, then a gather."""
    kind = values.dtype.kind
    if kind == "O":
        return values
    if kind == "f":
        keys = values.astype(np.float64, copy=False).view(np.uint64)
    else:
        keys = values.view(np.uint8) if kind == "b" else values
    distinct, index = np.unique(keys, return_inverse=True)
    if kind == "f":
        strings = list(map(repr, distinct.view(np.float64).tolist()))
    else:
        strings = list(map(str, distinct.tolist()))
    return np.array(strings, dtype=object)[index.reshape(values.shape)]


def write_csv(path, header: list[str], columns) -> None:
    """Write ``header``, then the table held in ``columns``: a list of column
    blocks, each one column (a 1-D array or a list) or several (a 2-D array),
    with ``len(header)`` columns in all and the same number of rows each.

    Numeric blocks are formatted chunk by chunk of rows, each distinct value
    of a chunk once: floats with ``repr`` (bit-exact on reload), integers
    and flags (0/1) with ``str``. Other cells go one by one: str as they
    are, None blank. Each chunk of about ``CHUNK_CELLS`` cells is joined
    into lines and written. A column count other than ``len(header)``,
    blocks of unequal length, or a str cell holding ``,``, ``\n`` or ``\r``
    is a SchemaError, raised before the file is opened."""
    blocks = [_block(path, block) for block in columns]
    width = sum(block.shape[1] for block in blocks)
    if width != len(header):
        raise SchemaError(f"{path}: {width} columns for a header of {len(header)}")
    lengths = sorted({block.shape[0] for block in blocks})
    if len(lengths) > 1:
        raise SchemaError(f"{path}: column blocks of unequal length {lengths}")
    step = max(1, CHUNK_CELLS // max(1, width))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, lengths[0] if lengths else 0, step):
            cells = np.concatenate([_formatted(b[lo:lo + step]) for b in blocks], axis=1)
            fh.write("\n".join(map(",".join, cells.tolist())) + "\n")


# The array type of each CsvTable column type.
_DTYPES = {"f": np.float64, "o": np.float64, "i": np.int64, "b": bool}


def _cast(kind: str, cells: np.ndarray) -> np.ndarray | None:
    """Text cells of one column type as its array, cast one by one, or None
    when a cell is rejected: no number for ``float`` / ``int``, outside
    int64, or not finite. Blank cells of a float-or-blank column read as NaN."""
    try:
        if kind == "o":
            values = np.full(cells.shape, np.nan)
            filled = cells != ""
            values[filled] = checked = cells[filled].astype(np.float64)
        else:
            values = checked = cells.astype(np.float64 if kind == "f" else np.int64)
    except (ValueError, OverflowError):
        return None
    return values if kind in "ib" or np.isfinite(checked).all() else None


def _try_cast(kind: str, cells: np.ndarray) -> np.ndarray | None:
    """``_cast`` of the cells, parsing each distinct string once when they
    are at most half of the cells, then gathering the values."""
    flat = cells.ravel().tolist()
    distinct = list(set(flat))
    if 2 * len(distinct) > len(flat):
        return _cast(kind, cells)
    values = _cast(kind, np.array(distinct, dtype=object))
    if values is None:
        return None
    parsed = dict(zip(distinct, values.tolist()))
    return np.fromiter(map(parsed.__getitem__, flat), values.dtype, len(flat)).reshape(cells.shape)


class CsvTable:
    """A CSV file's data rows as typed arrays, one per column type.

    ``types`` holds one letter per column: ``f`` a finite float, ``i`` an
    int64, ``b`` a 0/1 flag, ``o`` a finite float or a blank cell (NaN in
    the array). The file is read a chunk of lines at a time,
    about ``CHUNK_CELLS`` cells: blank lines are skipped, and the header
    and each row's cell count are checked. Then the chunk's cells of each
    type are cast in one call, which runs Python's ``float`` / ``int`` on
    each cell, or on each distinct string when those are at most half of
    the cells, and its strings are dropped: memory is the output arrays
    plus one chunk of text. When a cast rejects a cell, the scalar parsers
    scan that chunk's columns to name the first bad cell of each; its
    ParseError is raised by the accessor that reads its column. So a file
    with several faults reports the one that the loader's order of checks
    meets first, as if the whole file had been read before any cast.
    """

    def __init__(self, path: Path, header: list[str], types: str):
        if len(types) != len(header):
            raise ValueError(f"{len(types)} column types for a header of {len(header)}")
        if not path.exists():
            raise ParseError(str(path), 0, "file not found")
        self.path, self.header, self.types = path, header, types
        self._columns = {kind: [j for j, t in enumerate(types) if t == kind]
                         for kind in dict.fromkeys(types)}
        self._errors: dict[int, tuple[int, ParseError]] = {}  # column -> (row, first bad cell)
        self._not_flags: dict[int, int] = {}  # flag column -> first row holding neither 0 nor 1
        self._rows = 0
        chunks = {kind: [np.empty((0, len(cols)), _DTYPES[kind])]
                  for kind, cols in self._columns.items()}
        line_nos = [np.empty(0, np.int64)]
        step, first = max(1, CHUNK_CELLS // len(header)), 1  # first: number of the next line
        try:
            with path.open(encoding="utf-8") as fh:
                while lines := list(islice(fh, step)):
                    flat, numbers = self._data_rows(lines, first)
                    for kind, values in self._cast_chunk(flat, numbers).items():
                        chunks[kind].append(values)
                    line_nos.append(numbers)
                    first += len(lines)
        except UnicodeDecodeError:
            raise self._decode_fault() from None
        self.line_nos = np.concatenate(line_nos)
        # One type at a time, so its chunks are freed before the next is joined.
        self._arrays = {kind: np.concatenate(chunks.pop(kind)) for kind in self._columns}

    def _data_rows(self, lines: list[str], first: int) -> tuple[list[str], np.ndarray]:
        """The cells and line numbers of the data rows among ``lines``, the
        file's lines from number ``first`` on: a nonblank line 1 must be the
        header and is dropped, blank lines are dropped, and a row of the wrong
        cell count is a ParseError."""
        numbers = np.arange(first, first + len(lines))
        if first == 1 and lines[0] != "\n":
            got, expected = lines[0].rstrip("\n"), ",".join(self.header)
            if got != expected:
                raise ParseError(self.path, 1, f"expected header {expected!r}, got {got!r}")
            lines, numbers = lines[1:], numbers[1:]
        if "\n" in lines:
            keep = [i for i, line in enumerate(lines) if line != "\n"]
            lines, numbers = [lines[i] for i in keep], numbers[keep]
        width = len(self.header)
        commas = np.fromiter(map(str.count, lines, repeat(",")), np.int64, len(lines))
        if (commas != width - 1).any():
            k = int((commas != width - 1).argmax())
            raise ParseError(self.path, int(numbers[k]), f"expected {width} cells, got {commas[k] + 1}")
        text = "".join(lines).removesuffix("\n")  # each line ends in one "\n", the last maybe not
        return text.replace("\n", ",").split(",") if text else [], numbers

    def _decode_fault(self) -> ParseError:
        """The error of a file holding a byte that is not UTF-8: the first
        fault of a line decoded before it, as a line-by-line read meets them,
        or else the bad byte's line."""
        try:
            with self.path.open(encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    self._data_rows([line], line_no)
        except ParseError as exc:
            return exc
        except UnicodeDecodeError:
            pass
        return _not_utf8(self.path)

    def _cast_chunk(self, flat: list[str], line_nos: np.ndarray) -> dict[str, np.ndarray]:
        """The chunk's rows as one array per column type."""
        cells = np.array(flat, dtype=object).reshape(len(line_nos), len(self.header))
        typed = {}
        for kind, cols in self._columns.items():
            block = cells[:, cols]
            values = _try_cast(kind, block)
            if values is None:
                values = self._named_faults(kind, cols, block, line_nos)
            if kind == "b":
                faults = (values != 0) & (values != 1)
                for c in np.flatnonzero(faults.any(axis=0)).tolist():
                    self._not_flags.setdefault(cols[c], self._rows + int(faults[:, c].argmax()))
                values = values.astype(bool)
            typed[kind] = values
        self._rows += len(line_nos)
        return typed

    def _named_faults(self, kind, cols, block, line_nos) -> np.ndarray:
        """A chunk's block cast column by column; the first bad cell of each
        column that has one is kept as a ParseError, and the column's cells
        read 0 (blanks of a float-or-blank column stay NaN)."""
        values = np.where(block == "", np.nan, 0.0) if kind == "o" else np.zeros(
            block.shape, np.float64 if kind == "f" else np.int64)
        parse = _parse_int if kind in "ib" else _parse_float
        for c, col in enumerate(cols):
            column = _try_cast(kind, block[:, c])
            if column is not None:
                values[:, c] = column
                continue
            for r, (line_no, cell) in enumerate(zip(line_nos.tolist(), block[:, c].tolist())):
                if kind == "o" and cell == "":
                    continue
                try:
                    parse(self.path, line_no, cell, self.header[col])
                except ParseError as exc:
                    self._errors.setdefault(col, (self._rows + r, exc))
                    break
            else:
                raise AssertionError("the cast rejected a cell the scalar parsers accept")
        return values

    def _typed(self, lo: int, hi: int, kinds: str, checked: bool = True) -> np.ndarray:
        """Columns lo..hi-1, all of one type in ``kinds``, as a slice of that
        type's array; with ``checked``, the first bad cell among them in row
        order raises its ParseError."""
        kind = self.types[lo] if hi > lo else kinds[0]
        if kind not in kinds or self.types[lo:hi] != kind * (hi - lo):
            raise TypeError(f"{self.path}: columns {lo}..{hi - 1} are not all of type {kinds!r}")
        if checked:
            faults = [self._errors[col] for col in range(lo, hi) if col in self._errors]
            if faults:
                raise min(faults, key=lambda fault: fault[0])[1]
        start = sum(t == kind for t in self.types[:lo])
        values = self._arrays.get(kind, np.empty((self._rows, 0), _DTYPES[kind]))
        return values[:, start:start + hi - lo]

    def floats(self, lo: int, hi: int) -> np.ndarray:
        """Columns lo..hi-1, one row per data line, as finite float64 (NaN
        for the blanks of float-or-blank columns)."""
        return self._typed(lo, hi, "fo")

    def ints(self, lo: int, hi: int) -> np.ndarray:
        return self._typed(lo, hi, "i")

    def flags(self, lo: int, hi: int) -> np.ndarray:
        """Columns lo..hi-1 as bool; a cell other than 0 or 1 is a ParseError."""
        values = self._typed(lo, hi, "b")
        for col in range(lo, hi):
            if col in self._not_flags:
                raise ParseError(self.path, int(self.line_nos[self._not_flags[col]]),
                                 f"{self.header[col]} must be 0 or 1")
        return values

    def blanks(self, lo: int, hi: int) -> np.ndarray:
        """Where float-or-blank columns lo..hi-1 are blank; a bad cell among
        them is not raised here but by ``floats``."""
        return np.isnan(self._typed(lo, hi, "o", checked=False))

    def reject_rows(self, bad: np.ndarray, message: str) -> None:
        """A ParseError at the line of the first row where ``bad`` is set."""
        if bad.any():
            raise ParseError(self.path, int(self.line_nos[int(bad.argmax())]), message)


def _check_width(path: Path, width: int) -> None:
    """A ParseError unless the first nonblank line of ``path`` (the header,
    or the first row of a file without one) holds ``width`` cells. Loaders
    run this before they build a header of ``width`` names from a dimension
    read from JSON, so a huge dimension costs no more than the file does; a
    missing file is left to ``CsvTable`` to report."""
    if not path.exists():
        return
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        line_no, line = next(((i, line) for i, line in enumerate(fh, start=1) if line != "\n"),
                             (0, None))
    if line is not None and line.count(",") + 1 != width:
        raise ParseError(path, line_no, f"expected {width} cells, got {line.count(',') + 1}")


def _not_utf8(path: Path) -> ParseError:
    """A ParseError at the first line of ``path`` holding a byte that is not UTF-8."""
    # surrogateescape turns each such byte into a lone surrogate, which valid
    # UTF-8 never decodes to; the lines split as in CsvTable.
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return ParseError(path, line_no, f"byte 0x{byte:02x} is not UTF-8 text")
    return ParseError(path, 0, "not UTF-8 text")


def read_json_object(path) -> dict:
    """The JSON object in ``path``; anything else is an error naming the file."""
    path = Path(path)
    if not path.exists():
        raise ParseError(str(path), 0, "file not found")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.msg) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: must hold a JSON object")
    return payload


def json_field(obj: dict, key: str, path, shape: tuple = (), *, integer: bool = False,
               positive: bool = False, optional: bool = False, name: str | None = None):
    """``obj[key]`` checked against one JSON form: an integer within int64
    (``integer``, returned as an int), or a finite number or nested lists of
    them of ``shape`` (returned as a float or nested lists of floats); with
    ``positive``, every number is > 0. A bool, a string or an integer beyond
    int64 is no number, at any depth. Absent or null is None where
    ``optional``. Anything else is a SchemaError naming ``path`` and the key,
    as ``name`` when given (with ``path`` None, only the key), and quoting
    at most 200 characters of the value."""
    value = obj.get(key)
    if value is None and optional:
        return None
    cells = np.array(value, dtype=object)  # ragged lists stay lists, and fail the shape
    numbers = [v for v in cells.flat
               if type(v) is float or (type(v) is int and -2**63 <= v < 2**63)]
    floats = np.array(numbers, dtype=np.float64)
    ok = (cells.shape == (() if integer else shape) and len(numbers) == cells.size
          and np.isfinite(floats).all() and (not positive or (floats > 0).all())
          and (not integer or type(value) is int))
    if ok:
        return value if integer else floats.reshape(shape).tolist()
    if integer:
        what = ("a positive" if positive else "an") + " integer within int64"
    elif shape:
        what = f"a list of {' by '.join(map(str, shape))} numbers, all finite"
        what += " and positive" if positive else ""
    else:
        what = "a finite positive number" if positive else "a finite number"
    where = "" if path is None else f"{path}: "
    got = repr(value) if key in obj else "nothing"
    got = got if len(got) <= 200 else got[:200] + "..."
    raise SchemaError(f"{where}{name or key} must be {what}, got {got}")


def save_scenario(bundle: ScenarioBundle, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    num_beams = bundle.rssi.shape[1]

    write_csv(out / "rssi.csv", ["t"] + [f"p{m}" for m in range(num_beams)],
              [bundle.t, bundle.rssi])
    write_csv(out / "lidar.csv", ["t", "angle", "depth"], list(bundle.lidar))
    if bundle.truth is not None:
        times, pos, blocked = bundle.truth
        cells = pos.astype(object)
        cells[np.isnan(pos)] = None  # blank x,y where the position is unknown
        write_csv(out / "truth.csv", ["t", "x", "y", "blocked"], [times, cells, blocked])

    meta = {**bundle.meta, "format_version": SCENARIO_FORMAT_VERSION,
            "scenario_id": bundle.scenario_id, "num_beams": num_beams}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2), encoding="utf-8")
    return out


def load_scenario(scenario_dir) -> ScenarioBundle:
    """The scenario in ``scenario_dir``; a rule the bundle finds broken is a
    ParseError at its first broken row's file and line (line 0 for a
    whole-file rule), lidar rows mapped back through their stable time sort."""
    root = Path(scenario_dir)
    meta_path = root / "meta.json"
    meta = read_json_object(meta_path)
    if meta.get("format_version") != SCENARIO_FORMAT_VERSION:
        raise SchemaError(f"{meta_path}: unsupported format_version {meta.get('format_version')!r}")
    if "num_beams" not in meta or "scenario_id" not in meta:
        raise SchemaError(f"{meta_path}: missing num_beams or scenario_id")
    num_beams = json_field(meta, "num_beams", meta_path, integer=True, positive=True)

    _check_width(root / "rssi.csv", 1 + num_beams)
    rssi = CsvTable(root / "rssi.csv", ["t"] + [f"p{m}" for m in range(num_beams)],
                    "i" + "f" * num_beams)
    powers, frame_times = rssi.floats(1, num_beams + 1), rssi.ints(0, 1)[:, 0]
    lidar = CsvTable(root / "lidar.csv", ["t", "angle", "depth"], "iff")
    times, points = lidar.ints(0, 1)[:, 0], lidar.floats(1, 3)
    order = np.argsort(times, kind="stable") if (np.diff(times) < 0).any() else slice(None)
    lines, truth = {"rssi": rssi.line_nos, "lidar": lidar.line_nos[order]}, None
    if (root / "truth.csv").exists():
        table = CsvTable(root / "truth.csv", ["t", "x", "y", "blocked"], "ioob")
        truth = Truth(table.ints(0, 1)[:, 0], table.floats(1, 3), table.flags(3, 4)[:, 0])
        lines["truth"] = table.line_nos
    try:
        return ScenarioBundle(str(meta["scenario_id"]), frame_times, powers,
                              Lidar(times[order], points[order]), truth, meta)
    except (ValueError, SchemaError) as fault:  # a rule: the parsed columns have their shapes
        line = 0 if fault.row is None else int(lines[fault.table][fault.row])
        raise ParseError(root / f"{fault.table}.csv", line, str(fault)) from None


# ---------------------------------------------------------------------------
# Datasets of labeled windows
# ---------------------------------------------------------------------------

@dataclass
class DatasetFile:
    labeled: WindowSet
    splits: dict[str, list[int]]  # split name -> window indices
    meta: dict

    def _split(self, split: str) -> WindowSet:
        if split not in self.splits:
            raise KeyError(f"unknown split {split!r}; have {sorted(self.splits)}")
        idx = np.array(self.splits[split], dtype=np.int64)
        run = idx.size and (np.diff(idx) == 1).all()  # one ascending run: views, no copy
        return self.labeled.take(slice(idx[0], idx[-1] + 1) if run else idx)

    @property
    def samples(self) -> list[LabeledSample]:
        """Every window as a row view."""
        return self.labeled.rows()

    def subset(self, split: str) -> list[LabeledSample]:
        """The split's windows as row views."""
        return self._split(split).rows()

    def arrays(self, split: str) -> WindowSet:
        """The split's windows; an empty split is an error. One ascending run
        of indices, as ``split_dataset`` writes, gives views into ``labeled``,
        which callers must not write; any other split is copied."""
        windows = self._split(split)
        if not windows:
            raise ValueError(f"split {split!r} is empty")
        return windows


def split_dataset(
    labeled: WindowSet,
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    meta: dict | None = None,
) -> DatasetFile:
    """Cut one drive's windows, in time order, into contiguous
    train/val/test blocks.

    Windows overlap in time, so shuffling would leak nearly identical
    samples across splits; contiguous blocks keep evaluation honest.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(labeled)
    n_train = int(n * ratios[0] + 1e-9)
    cuts = [0, n_train, n_train + int(n * ratios[1] + 1e-9), n]
    splits = {name: list(range(lo, hi))
              for name, lo, hi in zip(("train", "val", "test"), cuts, cuts[1:])}
    return DatasetFile(labeled=labeled, splits=splits, meta=dict(meta or {}))


def _samples_header(horizon: int) -> list[str]:
    return ["t"] + [f"f{i}" for i in range(horizon * 2)] + [f"b{i}" for i in range(horizon)]


def _save_array(path: Path, values: np.ndarray) -> None:
    with path.open("wb") as fh:
        np.save(fh, np.asarray(values, dtype=np.float64), allow_pickle=False)


def _load_array(path: Path, shape: tuple) -> np.ndarray:
    """The finite float64 array of ``shape`` in the ``.npy`` file ``path``.
    The header is checked before any data is read, so a bogus dimension
    allocates nothing. Bytes that are no ``.npy`` file, or data longer or
    shorter than the header's shape, are a ParseError; another dtype (an
    object array too: nothing is unpickled), another shape or a non-finite
    value is a SchemaError. Each error names the file."""
    if not path.exists():
        raise ParseError(path, 0, "file not found")
    with path.open("rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # what np.save writes for any 2-D float64 array
                raise ValueError(f"format version {version}, expected (1, 0)")
            got, _, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ParseError(path, 0, f"not a .npy array: {exc}") from None
        if dtype != np.float64:
            raise SchemaError(f"{path}: dtype {dtype}, expected float64")
        if got != shape:
            raise SchemaError(f"{path}: shape {got}, expected {shape}")
        size, want = path.stat().st_size - fh.tell(), math.prod(got) * dtype.itemsize
        if size != want:
            raise ParseError(path, 0, f"{size} bytes of array data, expected {want} "
                                      f"for shape {got}")
        fh.seek(0)
        values = np.ascontiguousarray(np.load(fh, allow_pickle=False))
    bad = ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad)[0].tolist()
        raise SchemaError(f"{path}: non-finite value at row {row}, column {col}")
    return values


def _fresh_steps(t: np.ndarray, window_len: int) -> np.ndarray:
    """How many steps each window of rising times ``t`` covers that no
    window before it does: all ``window_len`` for the first, then
    min(gap, window_len). The gaps are taken modulo 2**64, so a rise beyond
    the int64 range still counts right."""
    return np.minimum(np.diff(t, prepend=t[:1] - window_len).astype(np.uint64), window_len)


def save_dataset(dataset: DatasetFile, out_dir) -> Path:
    """Write ``dataset`` to ``out_dir``. Windows whose times do not rise, or
    two windows with other bytes for a step they share, are a ValueError,
    raised before any file is written."""
    labeled, n = dataset.labeled, len(dataset.labeled)
    t, window_len, num_beams = labeled.t, labeled.window_len, labeled.frames.shape[1]
    horizon, raster_bins = labeled.blocked.shape[1], labeled.rasters.shape[1]
    falls = np.flatnonzero(t[1:] <= t[:-1])
    if falls.size:
        raise ValueError(f"window times must rise, but window {falls[0] + 1} ends at "
                         f"t={t[falls[0] + 1]}, not after t={t[falls[0]]}")

    fresh = _fresh_steps(t, window_len)
    rows = labeled.starts[:, None] + np.arange(window_len)  # each window's frame rows
    # Each covered step's row from the first window that covers it, in step
    # order; a window that reads another row for a step must hold its bytes.
    kept = rows[np.arange(window_len) >= window_len - fresh[:, None]]
    first = kept[(np.cumsum(fresh) - window_len).astype(np.int64)[:, None] + np.arange(window_len)]
    powers = np.asarray(labeled.frames, dtype=np.float64)
    moved = first != rows
    moved[moved] = (powers[first[moved]].view(np.uint64)
                    != powers[rows[moved]].view(np.uint64)).any(axis=1)
    if moved.any():
        i, k = np.argwhere(moved)[0].tolist()
        step = int(t[i]) - window_len + 1 + k
        raise ValueError(f"windows {int(np.searchsorted(t, step))} and {i} hold other "
                         f"frames for step {step}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_array(out / "frames.npy", powers[kept])
    _save_array(out / "rasters.npy", labeled.rasters)
    write_csv(out / "samples.csv", _samples_header(horizon), [
        t, labeled.futures.reshape(n, 2 * horizon), labeled.blocked,
    ])

    meta = {**dataset.meta, "format_version": DATASET_FORMAT_VERSION, "window_len": window_len,
            "num_beams": num_beams, "horizon": horizon, "raster_bins": raster_bins}
    payload = json.dumps({"meta": meta, "splits": dataset.splits}, sort_keys=True, indent=2)
    (out / "dataset.json").write_text(payload, encoding="utf-8")
    return out


def load_dataset(dataset_dir) -> DatasetFile:
    root = Path(dataset_dir)
    json_path = root / "dataset.json"
    payload = read_json_object(json_path)
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{json_path}: meta must be a JSON object")
    if meta.get("format_version") != DATASET_FORMAT_VERSION:
        raise SchemaError(f"{json_path}: unsupported format_version {meta.get('format_version')!r}")
    window_len, num_beams, horizon, raster_bins = (
        json_field(meta, key, json_path, integer=True, positive=True)
        for key in ("window_len", "num_beams", "horizon", "raster_bins")
    )

    _check_width(root / "samples.csv", 1 + 3 * horizon)
    header = _samples_header(horizon)
    table = CsvTable(root / "samples.csv", header, "i" + "f" * (2 * horizon) + "b" * horizon)
    t = table.ints(0, 1)[:, 0]
    table.reject_rows(np.concatenate([[False], t[1:] <= t[:-1]]),
                      "t must rise row by row: windows are stored in time order")
    fresh = _fresh_steps(t, window_len)
    # The header is checked against the count of covered steps, and no
    # (n, window_len) array is built, so a bogus window_len allocates nothing.
    frames = _load_array(root / "frames.npy", (sum(fresh.tolist()), num_beams))
    b = 1 + 2 * horizon  # end of the futures; the flags follow
    labeled = WindowSet(
        t=t, starts=(np.cumsum(fresh) - window_len).astype(np.int64),
        futures=table.floats(1, b).reshape(len(t), horizon, 2),
        blocked=table.flags(b, len(header)),
        rasters=_load_array(root / "rasters.npy", (len(t), raster_bins)),
        frames=frames, window_len=window_len,
    )

    splits = payload.get("splits", {})
    if not isinstance(splits, dict):
        raise SchemaError(f"{json_path}: splits must map names to lists of indices")
    for name, idxs in splits.items():
        # bool is an int subclass, and a JSON true is no index.
        if not isinstance(idxs, list) or any(type(i) is not int for i in idxs):
            raise SchemaError(f"{json_path}: split {name!r} must be a list of integer indices")
        idx = np.array(idxs, dtype=object)  # JSON integers of any size
        outside = (idx < 0) | (idx >= len(labeled))
        if outside.any():
            raise SchemaError(f"{json_path}: split {name!r} references sample {idx[outside][0]}")
    return DatasetFile(labeled=labeled, splits=splits, meta=meta)
