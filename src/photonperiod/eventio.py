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
   `detector._map_blocks`, each block read by positioned reads of 2^15 rows,
   as 8-byte words (`_RowWords`): every byte is checked against the first
   row's layout by word-wide masks, and each run of at most 8 consecutive
   digits becomes its integer by three SWAR multiply-shift-mask steps.  A
   field's runs join into its digits as an integer M < 10^15, exact in a
   double (below 2^53), divided by 10^k for its k fraction digits, which is
   exact for k <= 22.  By Clinger's condition (both operands exact, one
   correctly rounded division) that is the double nearest the decimal, the
   value `float` gives.  So each value is finite and >= 0, and
   `read_events` does not check these columns again.
2. `np.loadtxt` is handed the file, opened in text mode as the line parser
   opens it, at the line after the header, after one search of the raw
   bytes for the characters on which numpy and `float` disagree.  It reads
   the files `write_events` writes (17 digits, variable width).  It
   declines where numpy rejects the rows, finds a column count other than
   the header's, or such a character is found.
3. The line-by-line parser reads the file from the top; it alone reports
   errors, each naming its `path:lineno`.

The three accept exactly the same files.
"""

import os
import threading
import warnings
from functools import partial
from itertools import islice

import numpy as np

from .detector import _map_blocks
from .simulator import EventList

__all__ = ["write_events", "read_events"]

_COLUMNS = ("time", "energy", "angle")
# ASCII information separators: np.loadtxt strips them from the ends of a
# field as whitespace, float() rejects them.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Digits of an aligned field: its integer is below 10^15 < 2^53, exact in
# a double.
_MAX_DIGITS = 15
# Rows of an aligned file per positioned read, half a _map_blocks block: a
# thread's scratch for them is 5 MB for rows of three fields in 32 bytes.
_READ_ROWS = 1 << 15


def write_events(path, events, weights=None, header_comment=None):
    """Write events, and a weight per event if given, as CSV rows of 17
    significant digits (_write_csv).  ValueError, before the file is
    opened, where weights is not one value per event."""
    names, columns = list(_COLUMNS), [events.t, events.energy, events.angle]
    if weights is not None:
        columns.append(np.asarray(weights, dtype=float))
        if columns[-1].shape != (len(events),):
            raise ValueError("weights of shape %s for %d events"
                             % (columns[-1].shape, len(events)))
        names.append("weight")
    _write_csv(path, names, columns, header_comment)


def _write_csv(path, names, columns, comment=None):
    """'# ' comment lines, a header of names and a row of %.17g values per
    index of the 1-D columns, formatted from lists of 2^16 rows at a time."""
    with open(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write("# %s\n" % line)
        fh.write(",".join(names) + "\n")
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        step = 1 << 16
        for start in range(0, len(columns[0]), step):
            block = (c[start:start + step].tolist() for c in columns)
            fh.writelines(row % vals for vals in zip(*block))


def read_events(path):
    """Parse an event CSV.  Returns (EventList, weights-or-None), rows in
    stable time order, every column contiguous.

    Values must be finite, and energies, angles and weights >= 0
    (_check_values).
    The column-aligned reader's columns are not checked: a field of at most
    15 digits and one dot is finite and >= 0, so the check cannot fail on
    them."""
    columns = _read_columns_aligned(path)
    if columns is None:
        columns = _read_columns_fast(path) or _read_columns(path)
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


def _data_lines(lines):
    """(line number, stripped line) of each line that is neither blank nor a
    '#' comment: the header, then the data rows."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


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


def _digit_runs(offsets):
    """(first, end) byte offsets of the runs of at most 8 consecutive
    digits, in order, that make up the digits at offsets."""
    runs = []
    for offset in offsets:
        if runs and runs[-1][1] == offset and offset - runs[-1][0] < 8:
            runs[-1][1] += 1
        else:
            runs.append([offset, offset + 1])
    return [tuple(run) for run in runs]


def _run_terms(first, end):
    """[(word, byte mask, right shift, multiplier)] of the run of row bytes
    first..end-1 (_RowWords): the sum over them of ((x[word] & mask) >>
    shift) * multiplier, mod 2^64, is 2561 times the word whose top
    end - first bytes hold the run's digit values (its bytes' low nibbles),
    most significant lowest, above zero bytes: the first SWAR step.  The
    left shift that takes the word of the run's last byte there is folded
    into its multiplier."""
    terms = []
    for word in range(first // 8, (end - 1) // 8 + 1):
        lo = max(first, 8 * word) - 8 * word
        hi = min(end, 8 * word + 8) - 8 * word
        mask = (0x0F0F0F0F0F0F0F0F >> 8 * (8 - hi + lo)) << 8 * lo
        left = 8 * (8 * word + 8 - end)
        shift, mult = (0, (2561 << left) % 2**64) if left >= 0 else (-left, 2561)
        terms.append((word, np.uint64(mask), np.uint64(shift), np.uint64(mult)))
    return terms


def _swar_steps(run):
    """SWAR steps after the first that a run of digits needs: 0 for 1 or 2
    digits, 1 for 3 or 4, 2 for 5 to 8."""
    digits = run[1] - run[0]
    return (digits > 2) + (digits > 4)


class _RowWords:
    """Parser of the rows of a column-aligned file as 8-byte words (module
    docstring).

    Byte i of word j of a row is its byte 8 j + i, little-endian; a row's
    last word runs on past its end, into bytes that no check or value
    reads.  Every row is checked against the first one's layout by
    word-wide masks on OR and AND reductions of the rows' words (_fits).

    Each field is its runs of at most 8 consecutive digits, each run turned
    into its integer by the SWAR parse of Lemire, Softw. Pract. Exp.
    51:1700 (2021): each step multiplies the word by (10^n << b) + 1 and
    shifts it right by b, which leaves in every other lane of b bits the
    value of that lane and the one below (n digits each).  Three steps join
    8 digits; a run of at most 4 or 2 digits stops a step or two early.
    The runs are joined as M = M 10^k + run, integers below 10^15 < 2^53.
    """

    def __init__(self, row, layout):
        self.width = len(row)
        words = (self.width + 7) // 8
        # ref: the first row's bytes, 0x30 at each digit; keep: the bits of
        # a byte that every row shares with ref (all, or a digit's high
        # nibble); six: 0x06 at each digit, which carries into a digit's
        # high nibble 3 iff its low nibble is above 9
        ref, keep, six = np.zeros((3, 8 * words), dtype=np.uint8)
        ref[:self.width] = np.frombuffer(row, dtype=np.uint8)
        keep[:self.width] = 0xFF
        for offsets, _ in layout:
            ref[offsets], keep[offsets], six[offsets] = 0x30, 0xF0, 0x06
        ref, keep, six = (a.view("<u8").astype(np.uint64)
                          for a in (ref, keep, six))
        self.keep, self.six = keep, six[:, None]
        self.want = ref & keep
        # one row of the SWAR arrays per run, runs of 5 to 8 digits first,
        # then of 3 or 4, then of 1 or 2: each step is one numpy call
        field_runs = [_digit_runs(offsets) for offsets, _ in layout]
        runs = sorted((run for f in field_runs for run in f),
                      key=_swar_steps, reverse=True)
        steps = [_swar_steps(run) for run in runs]
        self.long, self.mid = steps.count(2), steps.count(2) + steps.count(1)
        self.terms = [_run_terms(*run) for run in runs]
        swar_row = {run: i for i, run in enumerate(runs)}
        # per field: fraction digits, [(SWAR row, digits)] of its runs
        self.fields = [(frac, [(swar_row[run], run[1] - run[0]) for run in f])
                       for f, (_, frac) in zip(field_runs, layout)]

    def scratch(self, rows):
        """Arrays for parse of up to rows rows: (bytes, words, swar)."""
        return (np.empty(rows * self.width + 8, dtype=np.uint8),
                np.empty((2, self.keep.size, rows), dtype=np.uint64),
                np.empty((len(self.terms) + 1, rows), dtype=np.uint64))

    def parse(self, rows, scratch, columns):
        """Values of the rows in the first rows * width bytes of scratch's
        bytes into columns (one slice per field); False, and no values,
        where a row does not have the layout."""
        buf, words, swar = scratch
        words, swar, tmp = words[:, :, :rows], swar[:-1, :rows], swar[-1, :rows]
        x = words[0]
        # word j of every row, one contiguous row of x per word
        np.copyto(x, np.ndarray(x.shape, dtype="<u8", buffer=buf,
                                strides=(8, self.width)))
        if not self._fits(words):
            return False
        for value, terms in zip(swar, self.terms):
            for i, (word, mask, shift, mult) in enumerate(terms):
                part = tmp if i else value
                np.bitwise_and(x[word], mask, out=part)
                if shift:
                    part >>= shift
                part *= mult
                if i:
                    value += tmp
        long, both = swar[:self.long], swar[:self.mid]
        swar[self.mid:] >>= np.uint64(56)
        both >>= np.uint64(8)
        both &= np.uint64(0x00FF00FF00FF00FF)
        both *= np.uint64(6553601)  # 100 << 16 | 1
        swar[self.long:self.mid] >>= np.uint64(48)
        long >>= np.uint64(16)
        long &= np.uint64(0x0000FFFF0000FFFF)
        long *= np.uint64(42949672960001)  # 10000 << 32 | 1
        long >>= np.uint64(32)
        for out, (frac, runs) in zip(columns, self.fields):
            value = swar[runs[0][0]]
            for i, digits in runs[1:]:
                value *= np.uint64(10 ** digits)
                value += swar[i]
            np.copyto(out, value.view(np.int64))
            if frac:
                out /= float(10 ** frac)
        return True

    def _fits(self, words):
        """Whether every row has the layout, words[0] being the rows' words
        (words[1] is scratch).

        The rows agree with ref on the bits of keep iff their OR and their
        AND both do.  Where every digit's high nibble is 3, adding six
        carries out of no byte, and into a digit's high nibble iff its low
        nibble is above 9; where one is not, the OR or the AND differs."""
        x, x_six = words
        np.add(x, self.six, out=x_six)
        return (np.array_equal(np.bitwise_and.reduce(x, axis=1) & self.keep,
                               self.want)
                and np.array_equal(np.bitwise_or.reduce(words, axis=2)
                                   & self.keep, [self.want, self.want]))


def _read_columns_aligned(path):
    """Column name -> values of a column-aligned file (module docstring),
    or None for any other file.  Bit-identical to _read_columns's columns
    for every worker count: each row's values depend on its bytes alone."""
    if not hasattr(os, "preadv"):
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
        parser = _RowWords(row, layout)
        columns = {name: np.empty(n) for name in names}
        rejected = []
        local = threading.local()

        def parse(_, block):
            if rejected:  # another block already declined the file
                return
            if not hasattr(local, "scratch"):
                # this thread's for all its blocks: fresh arrays would cost
                # a page fault per 4 KB
                local.scratch = parser.scratch(_READ_ROWS)
            stop = min(block.stop, n)
            for lo in range(block.start, stop, _READ_ROWS):
                rows = min(stop - lo, _READ_ROWS)
                read = os.preadv(fh.fileno(), [local.scratch[0][:rows * width]],
                                 start + lo * width)
                if read != rows * width or not parser.parse(
                        rows, local.scratch,
                        [values[lo:lo + rows] for values in columns.values()]):
                    rejected.append(block)
                    return

        _map_blocks(parse, n)
    return None if rejected else columns


def _read_columns_fast(path):
    """Column name -> values by np.loadtxt, or None wherever the result
    could differ from _read_columns's (which then reports the error)."""
    try:
        # the separators are ASCII bytes, which never occur inside a UTF-8
        # multibyte sequence: search the raw bytes, header lines included
        with open(path, "rb") as fh:
            for chunk in iter(partial(fh.read, 1 << 20), b""):
                if any(c in chunk for c in _NUMPY_ONLY_SPACE):
                    return None
        with open(path) as fh:  # text mode: the lines of _read_columns
            header = next(_data_lines(fh), None)
            if header is None:
                return None
            names = _header(path, *header)  # errors: see _read_columns
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on no rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
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
        for lineno, line in _data_lines(fh):
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
    """Reject non-finite values and negative energies, angles or weights,
    naming the first offending row.  Vectorized; the file is reread only to
    find the line number of a bad row."""
    first = []
    for col, (name, values) in enumerate(columns.items()):
        bad = ~np.isfinite(values)
        if name != "time":
            bad |= values < 0
        if bad.any():
            first.append((int(np.argmax(bad)), col, name))
    if not first:
        return
    row, _, name = min(first)
    value = float(columns[name][row])
    need = {"time": "finite", "weight": "finite and nonnegative"}.get(
        name, "finite and >= 0")
    raise ValueError("%s:%d: %s must be %s, got %r"
                     % (path, _data_lineno(path, row), name, need, value))


def _data_lineno(path, row):
    """Line number of the row-th (0-based) data row of an event CSV."""
    with open(path) as fh:
        # the header is the first non-comment line
        return next(islice(_data_lines(fh), row + 1, None))[0]
