import warnings

import numpy as np
import pytest

from photonperiod import eventio, read_events, write_events
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


class TestSameAsLineParser:
    @pytest.mark.parametrize("text, fast", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_corpus(self, tmp_path, monkeypatch, text, fast):
        path = tmp_path / "ev.csv"
        path.write_bytes(text.encode())
        columns = eventio._read_columns_fast(path)
        if fast is not None:
            assert (columns is not None) == fast
        if columns is not None:
            exact = eventio._read_columns(path)
            assert list(columns) == list(exact)
            for name, values in exact.items():
                assert columns[name].tobytes() == values.tobytes()
        got = _outcome(path)
        monkeypatch.setattr(eventio, "_read_columns_fast", lambda path: None)
        assert got == _outcome(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, monkeypatch,
                                            suffix):
        """np.loadtxt would decompress such a path; the line parser reads
        the plain text it holds."""
        path = tmp_path / ("ev.csv" + suffix)
        path.write_text(HEAD + "3.0,2.0,0.5\n1.0,1.0,0.25\n")
        assert eventio._read_columns_fast(path) is None
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
        weights = doubles()
        assert np.sum(np.abs(ev.t) < 2.2250738585072014e-308) > 2
        path = tmp_path / "ev.csv"
        write_events(path, ev, weights=weights)
        assert eventio._read_columns_fast(path) is not None
        back, w = read_events(path)
        for got, want in ((back.t, ev.t), (back.energy, ev.energy),
                          (back.angle, ev.angle), (w, weights)):
            assert got.tobytes() == want.tobytes()
        got = _outcome(path)
        monkeypatch.setattr(eventio, "_read_columns_fast", lambda path: None)
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
