"""Event CSV format: header `time,energy,angle[,weight]`, '#' comments.

Times are printed with 17 significant digits so a write/read round trip is
exact in double precision.
"""

import numpy as np

from .simulator import EventList

__all__ = ["write_events", "read_events"]

_COLUMNS = ("time", "energy", "angle")


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
    """Parse an event CSV.  Returns (EventList, weights-or-None)."""
    t, energy, angle, weight = [], [], [], []
    has_weight = None
    with open(path) as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = tuple(c.strip() for c in line.split(","))
                if header[:3] != _COLUMNS or len(header) > 4 or (
                    len(header) == 4 and header[3] != "weight"
                ):
                    raise ValueError(
                        "%s:%d: bad header %r; expected time,energy,angle"
                        "[,weight]" % (path, lineno, line)
                    )
                has_weight = len(header) == 4
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(
                    "%s:%d: expected %d fields, got %d: %r"
                    % (path, lineno, len(header), len(parts), line)
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ValueError("%s:%d: unparseable row: %r" % (path, lineno, line))
            t.append(vals[0])
            energy.append(vals[1])
            angle.append(vals[2])
            if has_weight:
                weight.append(vals[3])
    if header is None or not t:
        raise ValueError("%s: no event rows" % path)
    columns = {"time": t, "energy": energy, "angle": angle}
    if has_weight:
        columns["weight"] = weight
    del t, energy, angle, weight
    for name, values in columns.items():
        columns[name] = np.asarray(values)  # frees each row list in turn
    _check_values(path, columns)
    order = np.argsort(columns["time"], kind="stable")
    ev = EventList(
        t=columns["time"][order],
        energy=columns["energy"][order],
        angle=columns["angle"][order],
    )
    w = columns["weight"][order] if has_weight else None
    return ev, w


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
