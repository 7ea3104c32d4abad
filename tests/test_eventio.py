import numpy as np
import pytest

from photonperiod import read_events, write_events
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
