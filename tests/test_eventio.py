import warnings

import numpy as np
import pytest

from photonperiod import detector, eventio, read_events, write_events
from photonperiod.simulator import EventList


def make_events(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return EventList(
        t=np.sort(rng.uniform(0, 100, n)),
        energy=rng.uniform(0.1, 10, n),
        angle=rng.uniform(0, 5, n),
    )


class TestRoundTrip:
    def test_exact_without_weights(self, tmp_path):
        ev = make_events()
        path = tmp_path / "ev.csv"
        write_events(path, ev)
        back, w = read_events(path)
        assert w is None
        assert np.array_equal(back.t, ev.t)
        assert np.array_equal(back.energy, ev.energy)
        assert np.array_equal(back.angle, ev.angle)

    def test_exact_with_weights(self, tmp_path):
        ev = make_events(seed=1)
        weights = np.random.default_rng(2).uniform(0, 1, len(ev))
        path = tmp_path / "ev.csv"
        write_events(path, ev, weights=weights)
        back, w = read_events(path)
        assert np.array_equal(w, weights)
        assert np.array_equal(back.t, ev.t)

    @pytest.mark.parametrize("weights", [np.ones(4), np.ones(11),
                                         np.ones((10, 1)), 1.0],
                             ids=["fewer", "more", "column", "scalar"])
    def test_weights_not_one_per_event_rejected(self, tmp_path, weights):
        """Rows were zipped: 10 events with 4 weights were written as 4."""
        path = tmp_path / "ev.csv"
        with pytest.raises(ValueError, match="for 10 events"):
            write_events(path, make_events(n=10), weights=weights)
        assert not path.exists()

    @pytest.mark.parametrize("weighted, comment, rows", [
        (False, None, 300), (True, None, 300), (False, "seed=3\nnote", 300),
        (True, "seed=3\nnote", 300), (True, None, (1 << 16) + 5)],
        ids=["plain", "weighted", "comment", "weighted-comment", "two-blocks"])
    def test_bytes_are_the_per_value_join(self, tmp_path, weighted, comment,
                                          rows):
        """Each row is its values' "%.17g" joined by commas, on random finite
        doubles of any sign and exponent, subnormals and 1e300 included."""
        rng = np.random.default_rng(11)
        cols = rng.integers(0, 2**64, (4, rows), dtype=np.uint64).view(float)
        cols[~np.isfinite(cols)] = 1.0
        cols[:, :4] = [5e-324, 1e300, -0.0, 0.1]  # in every column
        cols = list(cols if weighted else cols[:3])
        path = tmp_path / "ev.csv"
        write_events(path, EventList(*cols[:3]),
                     weights=cols[3] if weighted else None,
                     header_comment=comment)
        want = "".join("# %s\n" % line for line in (comment or "").splitlines())
        want += "time,energy,angle" + (",weight" if weighted else "") + "\n"
        want += "".join(",".join("%.17g" % v for v in row) + "\n"
                        for row in zip(*cols))
        assert path.read_bytes() == want.encode()

    def test_header_comment_preserved_on_read(self, tmp_path):
        ev = make_events(n=3)
        path = tmp_path / "ev.csv"
        write_events(path, ev, header_comment="seed=7\nnote")
        text = path.read_text()
        assert text.startswith("# seed=7\n# note\n")
        back, _ = read_events(path)
        assert len(back) == 3

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text(
            "time,energy,angle\n"
            "5.0,1.0,0.5\n"
            "1.0,2.0,0.25\n"
            "3.0,3.0,0.75\n"
        )
        ev, _ = read_events(path)
        assert np.array_equal(ev.t, [1.0, 3.0, 5.0])
        assert np.array_equal(ev.energy, [2.0, 3.0, 1.0])

    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_columns_are_the_stable_sort_and_contiguous(self, tmp_path, order):
        """Sorted or not, with tied times, every column is the file's
        gathered through a stable argsort of the times, and contiguous."""
        rng = np.random.default_rng(5)
        t = np.round(rng.uniform(0.0, 10.0, 200), 1)
        if order == "sorted":
            t = np.sort(t)
        cols = [t, rng.uniform(0.1, 10, 200), rng.uniform(0, 5, 200),
                rng.uniform(0, 1, 200)]
        path = tmp_path / "ev.csv"
        write_events(path, EventList(*cols[:3]), weights=cols[3])
        ev, w = read_events(path)
        stable = np.argsort(t, kind="stable")
        for got, want in zip((ev.t, ev.energy, ev.angle, w), cols):
            assert got.flags.c_contiguous
            assert np.array_equal(got, want[stable])


class TestErrors:
    def test_bad_header_names_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# comment\nenergy,time,angle\n1,2,3\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_events(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match=r":3:"):
            read_events(path)

    def test_unparseable_row_names_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle\n1.0,abc,3.0\n")
        with pytest.raises(ValueError, match=r":2: unparseable"):
            read_events(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no event rows"):
            read_events(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle\n")
        with pytest.raises(ValueError, match="no event rows"):
            read_events(path)


class TestValueChecks:
    @pytest.mark.parametrize("row, field", [
        ("nan,2.0,0.5", "time"),
        ("inf,2.0,0.5", "time"),
        ("3.0,nan,0.5", "energy"),
        ("3.0,-inf,0.5", "energy"),
        ("3.0,-1.0,0.5", "energy"),
        ("3.0,2.0,nan", "angle"),
        ("3.0,2.0,inf", "angle"),
        ("3.0,2.0,-0.3", "angle"),
    ])
    def test_bad_value_names_line_and_field(self, tmp_path, row, field):
        path = tmp_path / "ev.csv"
        path.write_text("# comment\ntime,energy,angle\n\n1.0,2.0,0.5\n"
                        + row + "\n5.0,2.0,0.5\n")
        with pytest.raises(ValueError, match=r"ev\.csv:5: %s must be" % field):
            read_events(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle,weight\n1.0,2.0,0.5,0.3\n"
                        "2.0,2.0,0.5,%s\n" % value)
        with pytest.raises(ValueError, match=r":3: weight must be finite"):
            read_events(path)

    def test_negative_weight_names_line(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# comment\ntime,energy,angle,weight\n1.0,2.0,0.5,0.3\n"
                        "\n2.0,2.0,0.5,-0.25\n3.0,2.0,0.5,1.0\n")
        with pytest.raises(ValueError, match=r"ev\.csv:5: weight must be "
                                             r"finite and nonnegative, got "
                                             r"-0\.25"):
            read_events(path)

    def test_first_bad_row_and_column_reported(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle\n1.0,2.0,-1.0\n"
                        "2.0,inf,-0.3\nnan,2.0,0.5\n")
        with pytest.raises(ValueError, match=r":2: angle must be finite "
                                             r"and >= 0, got -1\.0"):
            read_events(path)

    def test_zero_energy_and_angle_accepted(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("time,energy,angle\n1.0,0.0,0.0\n")
        ev, _ = read_events(path)
        assert ev.energy.tolist() == [0.0] and ev.angle.tolist() == [0.0]


HEAD = "time,energy,angle\n"
# (id, file text, whether np.loadtxt reads it; None: either way).  Every
# file must give read_events the same arrays, or the same message, as the
# line-by-line parser alone.
CORPUS = [
    ("plain", HEAD + "3.0,2.0,0.5\n1.0,1.0,0.25\n", True),
    ("weight column", "time,energy,angle,weight\n1,2,0.5,0.3\n0,2,0.5,1e-3\n",
     True),
    ("spaces in fields", HEAD + " 1.0 , 2.0 ,3.0 \n", True),
    ("crlf", "# c\r\ntime,energy,angle\r\n1.0,2.0,3.0\r\n2.0,2.0,3.0\r\n", True),
    ("lone cr", "time,energy,angle\r1.0,2.0,3.0\r2.0,2.0,3.0\r", True),
    # np.loadtxt skips the lines up to and including the header
    ("comments and blanks before header",
     "# a\n\n  \t\n# b,c\n" + HEAD + "1.0,2.0,3.0\n", True),
    ("crlf comments before header",
     "# a\r\n\r\n# b\r\ntime,energy,angle\r\n1.0,2.0,3.0\r\n", True),
    ("lone cr comments before header",
     "# a\r\r# b\rtime,energy,angle\r1.0,2.0,3.0\r2.0,2.0,3.0\r", True),
    ("mixed line ends before header",
     "# a\r\n\r# b\n" + HEAD + "1.0,2.0,3.0\r\n2.0,2.0,3.0\r", True),
    ("separator in a comment", "# a\x1c\n" + HEAD + "1.0,2.0,3.0\n", False),
    ("underscore digits", HEAD + "1_0,2.0,3.0\n", None),
    ("arabic-indic digit", HEAD + "\u0661,2.0,3.0\n", None),
    ("fullwidth digit", HEAD + "\uff11,2.0,3.0\n", None),
    ("comment after header", HEAD + "1.0,2.0,3.0\n# note\n2.0,2.0,3.0\n", None),
    ("blank line after header", HEAD + "\n1.0,2.0,3.0\n\n", None),
    ("whitespace line after header", HEAD + "1.0,2.0,3.0\n   \t\n", None),
    ("trailing comment on row", HEAD + "1.0,2.0,3.0 # note\n", None),
    ("empty field", HEAD + "1.0,,3.0\n", None),
    ("trailing comma", HEAD + "1.0,2.0,3.0,\n", None),
    ("short row", HEAD + "1.0,2.0,3.0\n1.0,2.0\n", None),
    ("hex", HEAD + "0x10,2.0,3.0\n", None),
    ("1e400", HEAD + "1e400,2.0,3.0\n", True),
    ("1e-400", HEAD + "1.0,1e-400,3.0\n", True),
    ("nan", HEAD + "1.0,nan,3.0\n", True),
    ("infinity", HEAD + "1.0,2.0,infinity\n", True),
    ("negative angle", HEAD + "1.0,2.0,-1e-300\n", True),
    # np.loadtxt strips U+001C..U+001F from a field's ends, float() does not
    ("separator inside row", HEAD + "1.0,2.0\x1c,3.0\n", False),
    ("separator at row end", HEAD + "1.0,2.0,3.0\x1f\n", False),
    ("unicode spaces", HEAD + "1.0,\u20002.0,3.0\xa0\n", True),
    ("nul", HEAD + "1.0,2.0,3.0\x00\n", None),
    ("empty file", "", False),
    ("header only", HEAD, False),
    ("comments and header", "# a\n# b\n" + HEAD + "# c\n", False),
    ("bad header", "# c\nenergy,time,angle\n1,2,3\n", False),
]


def _outcome(path):
    """read_events's arrays as bytes, or its error message."""
    try:
        ev, w = read_events(path)
    except ValueError as exc:
        return str(exc)
    return [a.tobytes() for a in (ev.t, ev.energy, ev.angle)] + [
        None if w is None else w.tobytes()]


def _assert_same_as_line_parser(path, columns):
    exact = eventio._read_columns(path)
    assert list(columns) == list(exact)
    for name, values in exact.items():
        assert columns[name].tobytes() == values.tobytes()


def _line_parser_only(monkeypatch):
    for reader in ("_read_columns_aligned", "_read_columns_fast"):
        monkeypatch.setattr(eventio, reader, lambda path: None)


class TestSameAsLineParser:
    @pytest.mark.parametrize("text, fast", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_corpus(self, tmp_path, monkeypatch, text, fast):
        path = tmp_path / "ev.csv"
        path.write_bytes(text.encode())
        columns = eventio._read_columns_fast(path)
        if fast is not None:
            assert (columns is not None) == fast
        for columns in (columns, eventio._read_columns_aligned(path)):
            if columns is not None:
                _assert_same_as_line_parser(path, columns)
        got = _outcome(path)
        _line_parser_only(monkeypatch)
        assert got == _outcome(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, monkeypatch,
                                            suffix):
        """np.loadtxt would decompress such a path; the readers read the
        plain text it holds."""
        path = tmp_path / ("ev.csv" + suffix)
        path.write_text(HEAD + "3.0,2.0,0.5\n1.0,1.0,0.25\n")
        ev, _ = read_events(path)
        assert ev.t.tolist() == [1.0, 3.0]

    def test_round_trip_of_random_doubles(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        n = 100_000

        def doubles():
            x = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
            x = np.where(np.isfinite(x), x, 1.0)
            x[:4] = [5e-324, 1e300, 2.2250738585072014e-308, 1e-310]
            return x

        ev = EventList(t=np.sort(doubles()), energy=np.abs(doubles()),
                       angle=np.abs(doubles()))
        weights = np.abs(doubles())  # a negative weight is rejected
        assert np.sum(np.abs(ev.t) < 2.2250738585072014e-308) > 2
        path = tmp_path / "ev.csv"
        write_events(path, ev, weights=weights)
        assert eventio._read_columns_fast(path) is not None
        back, w = read_events(path)
        for got, want in ((back.t, ev.t), (back.energy, ev.energy),
                          (back.angle, ev.angle), (w, weights)):
            assert got.tobytes() == want.tobytes()
        got = _outcome(path)
        _line_parser_only(monkeypatch)
        assert got == _outcome(path)


class TestNoWarnings:
    @pytest.mark.parametrize("text", [
        HEAD, "# a\n\n# b\n" + HEAD, HEAD + "\n  \n# c\n"])
    def test_no_rows_raise_without_numpy_warning(self, tmp_path, text):
        path = tmp_path / "ev.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no event rows"):
                read_events(path)


# (id, file text): column-aligned files the aligned reader must read
ALIGNED = [
    ("benchmark cells", HEAD + "00000.003348,00.191014,2.944889\n"
                               "00000.015083,00.187760,4.882283\n"),
    ("leading dot", HEAD + ".5,.25,.125\n.7,.00,.000\n"),
    ("trailing dot", HEAD + "5.,2.,3.\n0.,9.,1.\n"),
    ("integers", HEAD + "5,2,3\n0,9,1\n"),
    ("leading zeros", HEAD + "0001.50,000.0,0.1\n0000.00,009.9,0.0\n"),
    ("weight column", "time,energy,angle,weight\n1.5,2.0,0.5,0.30\n"
                      "2.5,2.0,0.5,1.00\n"),
    ("comments and blanks before header",
     "# a\n\n  \t\n# b\x1c\n" + HEAD + "1.0,2.0,3.0\n"),
    ("15-digit fields", HEAD + "123456789.012345,.999999999999999,"
                               "999999999999999\n"
                               "000000000.000001,.000000000000001,"
                               "100000000000000\n"),
]

# (id, file text): files the aligned reader must decline
UNALIGNED = [
    ("16-digit field", HEAD + "1234567890.123456,2.0,3.0\n"),
    ("16-digit integer", HEAD + "1234567890123456,2.0,3.0\n"),
    ("crlf", HEAD + "1.0,2.0,3.0\r\n2.0,2.0,3.0\r\n"),
    ("crlf before header", "# a\r\n" + HEAD + "1.0,2.0,3.0\n"),
    ("no final newline", HEAD + "1.0,2.0,3.0\n2.0,2.0,3.0"),
    ("minus sign", HEAD + "-1.0,2.0,3.0\n"),
    ("minus sign in a later row", HEAD + "11.0,2.0,3.0\n-1.0,2.0,3.0\n"),
    ("plus sign", HEAD + "11.0,2.0,3.0\n+1.0,2.0,3.0\n"),
    ("exponent", HEAD + "1e5,2.0,3.0\n"),
    ("exponent in a later row", HEAD + "1.0,2.0,3.0\n1e0,2.0,3.0\n"),
    ("row whose dot moves", HEAD + "1.25,2.0,3.0\n12.5,2.0,3.0\n"),
    ("longer row", HEAD + "1.0,2.0,3.0\n10.0,2.0,3.0\n"),
    ("space", HEAD + "1.0,2.0,3.0\n1.0,2.0, 30\n"),
    ("comment after header", HEAD + "1.0,2.0,3.0\n# note\n2.0,2.0,3.0\n"),
    ("blank line after header", HEAD + "1.0,2.0,3.0\n\n"),
    ("nul", HEAD + "1.0,2.0,3.0\n1.0,2.0,3\x000\n"),
    ("lone dot", HEAD + ".,2.0,3.0\n"),
    ("two dots", HEAD + "1.0.0,2.0,3.0\n"),
    ("empty field", HEAD + "1.0,,3.0\n"),
    ("four fields under three names", HEAD + "1.0,2.0,3.0,4.0\n"),
    ("non-ascii comment", "# \u00e9\n" + HEAD + "1.0,2.0,3.0\n"),
    ("arabic-indic digit", HEAD + "1.0,2.0,3.0\n\u0661.0,2.0,3.0\n"),
    ("header only", HEAD),
    ("bad header", "energy,time,angle\n1.0,2.0,3.0\n"),
    ("empty file", ""),
]


def _aligned_file(tmp_path, rows, bad_row=None):
    """HEAD plus rows of `t,e,a` cells 11 bytes wide; row bad_row has a
    minus sign in place of its first digit."""
    i = np.arange(rows)
    cells = [("%03d.%d,%d.%d,%d.%d\n" % (k % 1000, k % 10, k % 7, k % 3,
                                       k % 5, k % 9)).encode() for k in i]
    if bad_row is not None:
        cells[bad_row] = b"-" + cells[bad_row][1:]
    path = tmp_path / "ev.csv"
    path.write_bytes(HEAD.encode() + b"".join(cells))
    return path


class TestAlignedReader:
    @pytest.mark.parametrize("text", [c[1] for c in ALIGNED],
                             ids=[c[0] for c in ALIGNED])
    def test_reads_aligned_files_as_the_line_parser(self, tmp_path,
                                                    monkeypatch, text):
        path = tmp_path / "ev.csv"
        path.write_bytes(text.encode())
        columns = eventio._read_columns_aligned(path)
        assert columns is not None
        _assert_same_as_line_parser(path, columns)
        got = _outcome(path)
        _line_parser_only(monkeypatch)
        assert got == _outcome(path)

    @pytest.mark.parametrize("text", [c[1] for c in UNALIGNED],
                             ids=[c[0] for c in UNALIGNED])
    def test_declines_other_files(self, tmp_path, monkeypatch, text):
        path = tmp_path / "ev.csv"
        path.write_bytes(text.encode())
        assert eventio._read_columns_aligned(path) is None
        got = _outcome(path)
        _line_parser_only(monkeypatch)
        assert got == _outcome(path)

    def test_bad_byte_in_last_of_three_blocks(self, tmp_path, monkeypatch):
        rows = 2 * detector._AN_BLOCK + 100
        path = _aligned_file(tmp_path, rows, bad_row=rows - 3)
        assert eventio._read_columns_aligned(path) is None
        got = _outcome(path)
        assert np.frombuffer(got[0])[0] == -69.9  # row rows - 3
        _line_parser_only(monkeypatch)
        assert got == _outcome(path)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_layouts_match_the_line_parser(self, tmp_path, seed):
        """Random layouts of 3 or 4 fields, each with 1 to 15 digits of
        which 0 to 15 are fraction digits, all rows random digits."""
        rng = np.random.default_rng(seed)
        fields = int(rng.integers(3, 5))
        layout = []
        for _ in range(fields):
            digits = int(rng.integers(1, 16))
            frac = int(rng.integers(0, digits + 1))
            dot = frac > 0 or rng.random() < 0.5
            layout.append((digits - frac, frac, dot))
        rows = 3000
        digits = rng.integers(0, 10, (rows, sum(w + f for w, f, _ in layout)))
        digits[:10] = 9  # the largest mantissa of each field
        digits[10:20] = 0
        text = [",".join(HEAD.strip().split(",") + ["weight"][:fields - 3])]
        for row in digits.astype(str):
            cells, pos = [], 0
            for whole, frac, dot in layout:
                cells.append("".join(row[pos:pos + whole]) + "." * dot
                             + "".join(row[pos + whole:pos + whole + frac]))
                pos += whole + frac
            text.append(",".join(cells))
        path = tmp_path / "ev.csv"
        path.write_text("\n".join(text) + "\n")
        columns = eventio._read_columns_aligned(path)
        assert columns is not None
        _assert_same_as_line_parser(path, columns)
        eventio._check_values(path, columns)  # read_events skips it here

    def test_worker_count_moves_no_bit(self, tmp_path, monkeypatch):
        path = _aligned_file(tmp_path, 2 * detector._AN_BLOCK + 100)
        got = []
        for cpus in (1, 3):
            monkeypatch.setattr(detector, "_cpus", lambda: cpus)
            columns = eventio._read_columns_aligned(path)
            got.append([values.tobytes() for values in columns.values()])
        assert got[0] == got[1]
        _assert_same_as_line_parser(path, columns)

    def test_read_events_takes_aligned_columns_without_a_copy(
            self, tmp_path, monkeypatch):
        path = _aligned_file(tmp_path, 100)  # times in order
        read = []
        aligned = eventio._read_columns_aligned

        def spy(path):
            read.append(aligned(path))
            return read[0]

        monkeypatch.setattr(eventio, "_read_columns_aligned", spy)
        ev, w = read_events(path)
        assert w is None
        assert ev.t is read[0]["time"] and ev.angle is read[0]["angle"]


# (id, header, row template with '#' at each digit): row widths that are and
# are not multiples of 8, one shorter than a word, and 15-digit fields
WORD_LAYOUTS = [
    ("32-byte rows", HEAD, "#####.######,##.######,#.######\n"),
    ("23-byte rows", HEAD, "#########.######,#.#,#\n"),
    ("6-byte rows", HEAD, "#,#,#\n"),
    ("40-byte rows", "time,energy,angle,weight\n",
     "###############,.###############,##.#,#\n"),
]
# bytes put in place of a digit, and of a separator, dot or line feed: each
# makes a row that the aligned reader must decline
NOT_DIGITS = b"/: -\x80\xb5\xfa\xff\r"
NOT_OTHERS = b"07\x80\xae\r"


def _digit_rows(template, n, seed=0):
    """n rows of template, with a random digit at each '#'."""
    row = np.frombuffer(template.encode(), dtype=np.uint8)
    rows = np.tile(row, (n, 1))
    digits = row == ord("#")
    rows[:, digits] = np.random.default_rng(seed).integers(
        ord("0"), ord("9") + 1, (n, int(digits.sum())))
    return rows.tobytes()


def _bad_bytes(template):
    """(column, byte) of every corruption of a row of template."""
    return [(col, bytes([bad])) for col, c in enumerate(template)
            for bad in (NOT_DIGITS if c == "#" else NOT_OTHERS)]


class TestWordChecks:
    @pytest.mark.parametrize("header, template", [c[1:] for c in WORD_LAYOUTS],
                             ids=[c[0] for c in WORD_LAYOUTS])
    def test_bad_byte_of_a_short_file(self, tmp_path, monkeypatch, header,
                                      template):
        """Each bad byte in the first or the last of three rows: declined,
        and read_events gives the line parser's arrays or message."""
        text = bytearray(header.encode() + _digit_rows(template, 3))
        path = tmp_path / "ev.csv"
        path.write_bytes(text)
        assert eventio._read_columns_aligned(path) is not None
        got = {}
        for row in (0, 2):
            for col, bad in _bad_bytes(template):
                pos = len(header) + row * len(template) + col
                path.write_bytes(text[:pos] + bad + text[pos + 1:])
                assert eventio._read_columns_aligned(path) is None, (row, col, bad)
                got[row, col, bad] = _outcome(path)
        _line_parser_only(monkeypatch)
        for (row, col, bad), outcome in got.items():
            pos = len(header) + row * len(template) + col
            path.write_bytes(text[:pos] + bad + text[pos + 1:])
            assert outcome == _outcome(path), (row, col, bad)

    @pytest.mark.parametrize("header, template", [c[1:] for c in WORD_LAYOUTS],
                             ids=[c[0] for c in WORD_LAYOUTS])
    def test_bad_byte_at_block_edges(self, tmp_path, header, template):
        """Each bad byte in row 0, the last row of the first 2^16-row block,
        the first of the second, or the file's last row: declined."""
        n = detector._AN_BLOCK + 2
        path = tmp_path / "ev.csv"
        path.write_bytes(header.encode() + _digit_rows(template, n))
        assert eventio._read_columns_aligned(path) is not None
        with open(path, "r+b") as fh:
            for row in (0, detector._AN_BLOCK - 1, detector._AN_BLOCK, n - 1):
                for col, bad in _bad_bytes(template):
                    pos = len(header) + row * len(template) + col
                    fh.seek(pos)
                    good = fh.read(1)
                    fh.seek(pos)
                    fh.write(bad)
                    fh.flush()
                    assert eventio._read_columns_aligned(path) is None, (
                        row, col, bad)
                    fh.seek(pos)
                    fh.write(good)
                    fh.flush()
        assert eventio._read_columns_aligned(path) is not None
