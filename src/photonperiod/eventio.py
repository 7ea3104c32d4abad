"""Event CSV format: header `time,energy,angle[,weight]`, '#' comments.

Times are printed with 17 significant digits so a write/read round trip is
exact in double precision.

`read_events` tries three readers in turn; each gives the columns of the
line-by-line parser bit for bit or declines the file.

1. Column-aligned files: each field of the first data row is
   `digits[.digits]` with 1 to 15 digits, fields are split by `,` and rows
   end in a line feed, and every data row has that row's layout: its length,
   a digit wherever it has a digit and its byte everywhere else (so no
   carriage return, sign, exponent, space, comment or blank line).  The rows
   are parsed in place over the fixed 2^16-row blocks of
   `detector._map_blocks`, each block read by its own positioned read.  A
   field is its digits as an integer M < 10^15, built by Horner steps in
   float64 (exact below 2^53), divided by 10^k for its k fraction digits,
   which is exact for k <= 22.  By Clinger's condition (both operands exact,
   one correctly rounded division) that is the double nearest the decimal,
   the value `float` gives.
2. `np.loadtxt` is handed the path, skipping the lines up to and including
   the header, after one search of the raw bytes for the characters on which
   numpy and `float` disagree.  It reads the files `write_events` writes
   (17 digits, variable width).  It declines where numpy rejects the rows,
   finds a column count other than the header's, or such a character is
   found (or the path has a suffix numpy decompresses).
3. The line-by-line parser reads the file from the top; it alone reports
   errors, each naming its `path:lineno`.

The three accept exactly the same files.
"""

import os
import warnings
from functools import partial

import numpy as np

from .detector import _map_blocks
from .simulator import EventList

__all__ = ["write_events", "read_events"]

_COLUMNS = ("time", "energy", "angle")
# ASCII information separators: np.loadtxt strips them from the ends of a
# field as whitespace, float() rejects them.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# np.loadtxt decompresses a path with one of these suffixes; open() does not.
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".xz", ".lzma")
# Digits of an aligned field: below 10^15 every Horner step is exact.
_MAX_DIGITS = 15


def write_events(path, events, weights=None, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write("# %s\n" % line)
        cols = "time,energy,angle" + (",weight" if weights is not None else "")
        fh.write(cols + "\n")
        rows = [events.t, events.energy, events.angle]
        if weights is not None:
            rows.append(np.asarray(weights, dtype=float))
        for vals in zip(*rows):
            fh.write(",".join("%.17g" % v for v in vals) + "\n")


def read_events(path):
    """Parse an event CSV.  Returns (EventList, weights-or-None), rows in
    stable time order, every column contiguous."""
    columns = (_read_columns_aligned(path) or _read_columns_fast(path)
               or _read_columns(path))
    _check_values(path, columns)
    t = columns["time"]  # finite here: no NaN can pass an unsorted pair
    if np.all(t[1:] >= t[:-1]):  # already sorted: no gathers
        for name, values in columns.items():
            columns[name] = np.ascontiguousarray(values)
    else:
        order = np.argsort(columns["time"], kind="stable")
        for name, values in columns.items():
            columns[name] = values[order]
    ev = EventList(t=columns["time"], energy=columns["energy"],
                   angle=columns["angle"])
    return ev, columns.get("weight")


def _header(path, lineno, line):
    """Column names of a header line, or ValueError."""
    names = tuple(c.strip() for c in line.split(","))
    if names[:3] != _COLUMNS or len(names) > 4 or (
        len(names) == 4 and names[3] != "weight"
    ):
        raise ValueError(
            "%s:%d: bad header %r; expected time,energy,angle"
            "[,weight]" % (path, lineno, line)
        )
    return names


def _aligned_layout(row, fields):
    """[(digit byte offsets, fraction digits)] per field of a data row,
    or None unless it is `fields` fields of `digits[.digits]` with 1 to
    _MAX_DIGITS digits ended by a newline."""
    if not row.endswith(b"\n"):
        return None
    layout, pos = [], 0
    for field in row[:-1].split(b","):
        whole, _, frac = field.partition(b".")
        digits = len(whole) + len(frac)
        if not 1 <= digits <= _MAX_DIGITS or not (whole + frac).isdigit():
            return None
        offsets = [pos + i for i, c in enumerate(field) if c != ord(".")]
        layout.append((offsets, len(frac)))
        pos += len(field) + 1
    return layout if len(layout) == fields else None


def _read_columns_aligned(path):
    """Column name -> values of a column-aligned file (module docstring),
    or None for any other file.  Bit-identical to _read_columns's columns
    for every worker count: each block's values depend on its bytes alone."""
    if not hasattr(os, "pread"):
        return None
    with open(path, "rb") as fh:
        names = None
        for lineno, raw in enumerate(fh, start=1):
            # ASCII without \r: the lines and strip() of the text-mode parser
            if b"\r" in raw or not raw.isascii():
                return None
            line = raw.decode("ascii").strip()
            if line and not line.startswith("#"):
                try:
                    names = _header(path, lineno, line)
                except ValueError:  # reported by _read_columns
                    return None
                break
        if names is None:
            return None
        start = fh.tell()
        row = fh.readline(len(names) * (_MAX_DIGITS + 2))
        layout = _aligned_layout(row, len(names))
        if layout is None:
            return None
        width = len(row)
        n, extra = divmod(os.fstat(fh.fileno()).st_size - start, width)
        if extra:
            return None
        # byte column j of a row, less lo[j] in uint8, is at most span[j]:
        # a digit (then its value) where the first row has a digit, and
        # that row's byte (then 0) everywhere else
        lo = np.frombuffer(row, dtype=np.uint8).copy()
        span = np.zeros(width, dtype=np.uint8)
        for offsets, _ in layout:
            lo[offsets] = ord("0")
            span[offsets] = 9
        lo, span = lo[:, None], span[:, None]
        columns = {name: np.empty(n) for name in names}
        rejected = []

        def parse(_, block):
            if rejected:  # another block already declined the file
                return
            rows = min(block.stop, n) - block.start
            data = os.pread(fh.fileno(), rows * width,
                            start + block.start * width)
            if len(data) != rows * width:
                rejected.append(block)
                return
            # one contiguous row per byte column: numpy threads and
            # vectorizes contiguous loops, not strided casting ones
            digits = np.frombuffer(data, dtype=np.uint8).reshape(rows, width).T
            digits = np.subtract(digits, lo, order="C")
            if not np.all(digits <= span):
                rejected.append(block)
                return
            for name, (offsets, frac) in zip(names, layout):
                # Horner: every partial sum is an integer below 10^15 < 2^53
                out = columns[name][block]
                np.copyto(out, digits[offsets[0]])
                for offset in offsets[1:]:
                    out *= 10
                    out += digits[offset]
                if frac:
                    out /= float(10 ** frac)

        _map_blocks(parse, n)
    return None if rejected else columns


def _read_columns_fast(path):
    """Column name -> values by np.loadtxt, or None wherever the result
    could differ from _read_columns's (which then reports the error)."""
    path = os.path.abspath(path)  # np.loadtxt would fetch a URL-like path
    if os.path.splitext(path)[1] in _NUMPY_DECOMPRESSES:
        return None
    try:
        with open(path) as fh:  # text mode: the lines np.loadtxt counts
            for skip, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    names = _header(path, skip, line)  # errors: see _read_columns
                    break
            else:
                return None
        # the separators are ASCII bytes, which never occur inside a UTF-8
        # multibyte sequence: search the raw bytes, header lines included
        with open(path, "rb") as fh:
            for chunk in iter(partial(fh.read, 1 << 20), b""):
                if any(c in chunk for c in _NUMPY_ONLY_SPACE):
                    return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on no rows
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              skiprows=skip)
    except (ValueError, Warning):
        return None
    if data.shape[1] != len(names):
        return None
    return dict(zip(names, data.T))


def _read_columns(path):
    """Column name -> values, line by line; errors name path:lineno."""
    t, energy, angle, weight = [], [], [], []
    names = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = _header(path, lineno, line)
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(
                    "%s:%d: expected %d fields, got %d: %r"
                    % (path, lineno, len(names), len(parts), line)
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ValueError("%s:%d: unparseable row: %r" % (path, lineno, line))
            t.append(vals[0])
            energy.append(vals[1])
            angle.append(vals[2])
            if len(vals) == 4:
                weight.append(vals[3])
    if not t:
        raise ValueError("%s: no event rows" % path)
    columns = dict(zip(names, (t, energy, angle, weight)))
    del t, energy, angle, weight
    for name, values in columns.items():
        columns[name] = np.asarray(values)  # frees each row list in turn
    return columns


def _check_values(path, columns):
    """Reject non-finite values and negative energies or angles, naming the
    first offending row.  Vectorized; the file is reread only to find the
    line number of a bad row."""
    first = []
    for col, (name, values) in enumerate(columns.items()):
        bad = ~np.isfinite(values)
        if name in ("energy", "angle"):
            bad |= values < 0
        if bad.any():
            first.append((int(np.argmax(bad)), col, name))
    if not first:
        return
    row, _, name = min(first)
    value = float(columns[name][row])
    need = "finite" if name in ("time", "weight") else "finite and >= 0"
    raise ValueError("%s:%d: %s must be %s, got %r"
                     % (path, _data_lineno(path, row), name, need, value))


def _data_lineno(path, row):
    """Line number of the row-th (0-based) data row of an event CSV."""
    left = row + 1  # the header is the first non-comment line
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                if not left:
                    return lineno
                left -= 1
