"""Event CSV format: header `time,energy,angle[,weight]`, '#' comments.

Times are printed with 17 significant digits so a write/read round trip is
exact in double precision.

`read_events` hands `np.loadtxt` the path, skipping the lines up to and
including the header, after one search of the raw bytes for the characters on
which numpy and `float` disagree.  Where numpy rejects the rows, finds a column
count other than the header's, or such a character is found (or the path has
a suffix numpy decompresses), the line-by-line parser reads the file again
from the top; it alone reports errors, each naming its `path:lineno`.  The two
accept exactly the same files and give bit-identical columns.
"""

import os
import warnings
from functools import partial

import numpy as np

from .simulator import EventList

__all__ = ["write_events", "read_events"]

_COLUMNS = ("time", "energy", "angle")
# ASCII information separators: np.loadtxt strips them from the ends of a
# field as whitespace, float() rejects them.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# np.loadtxt decompresses a path with one of these suffixes; open() does not.
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".xz", ".lzma")


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
    columns = _read_columns_fast(path)
    if columns is None:
        columns = _read_columns(path)
    _check_values(path, columns)
    if np.all(np.diff(columns["time"]) >= 0):  # already sorted: no gathers
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
    with open(path) as fh:
        numbered = [lineno for lineno, raw in enumerate(fh, start=1)
                    if raw.strip() and not raw.strip().startswith("#")]
    return numbered[row + 1]  # numbered[0] is the header
