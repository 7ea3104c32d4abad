import json
import os
import subprocess
import sys

import numpy as np
import pytest

import photonperiod
from photonperiod import (DetectionResult, EventList, detect, detector,
                          estimate_theta, read_events, scan, write_events)
from photonperiod.auxmodel import (AuxDensityPair, WeightFunction,
                                   cut_weight_fn, optimal_no_spectrum_fn,
                                   optimal_weight_fn, psf_gaussian_weight_fn)
from photonperiod.cli import _json_line, main
from photonperiod.config import Config


def base_config(**overrides):
    doc = {
        "phase": {"f": 5.0},
        "profile": {"eta": 1.0, "coeffs": [[0.5, 0.0]]},
        "template": {"amps_sq": [1.0]},
        "model": {"mu": 100.0, "theta": 0.5, "T": 100.0},
        "densities": {
            "geometry": {
                "R": 5.0,
                "rho": 1.0 / (2.0 * np.pi),
                "alpha_rate": 1.0,
                "sigma": 1.0,
            }
        },
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        code1, stdout1, _ = run(capsys, ["simulate", "--config", cfg,
                                         "--out", out1, "--seed", "3"])
        code2, _, _ = run(capsys, ["simulate", "--config", cfg,
                                   "--out", out2, "--seed", "3"])
        assert code1 == code2 == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()
        doc = json.loads(stdout1)
        assert doc["out"] == out1
        assert doc["theta"] == 0.5
        assert abs(doc["n_events"] - doc["mu0_T"]) < 5 * np.sqrt(doc["mu0_T"])

    def test_different_seeds_differ(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", out1, "--seed", "1"])
        run(capsys, ["simulate", "--config", cfg, "--out", out2, "--seed", "2"])
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() != f2.read()


class TestConfigErrors:
    def test_invalid_theta_names_field(self, tmp_path, capsys):
        doc = base_config()
        doc["model"]["theta"] = 1.5
        cfg = write_config(tmp_path, doc)
        code, _, err = run(capsys, ["simulate", "--config", cfg,
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "model.theta" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["simulate", "--config", str(path),
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "line" in err

    def test_missing_events_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        code, _, err = run(capsys, ["detect", "--config", cfg,
                                    "--events", str(tmp_path / "missing.csv")])
        assert code == 1


class TestDetect:
    def _simulated(self, tmp_path, capsys, doc=None, seed=5):
        cfg = write_config(tmp_path, doc or base_config())
        events = str(tmp_path / "events.csv")
        code, _, _ = run(capsys, ["simulate", "--config", cfg,
                                  "--out", events, "--seed", str(seed)])
        assert code == 0
        return cfg, events

    def test_strong_source_detected(self, tmp_path, capsys):
        cfg, events = self._simulated(tmp_path, capsys)
        code, out, _ = run(capsys, ["detect", "--config", cfg,
                                    "--events", events])
        assert code == 0
        doc = json.loads(out)
        assert doc["p_value"] < 1e-6
        assert doc["qt"] > 0
        assert doc["sum_w2"] == doc["n_events"]  # unit weights

    def test_optimal_weight_resolves_theta_mle(self, tmp_path, capsys):
        doc = base_config(weight={"kind": "optimal"})
        cfg, events = self._simulated(tmp_path, capsys, doc)
        code, out, err = run(capsys, ["detect", "--config", cfg,
                                      "--events", events])
        assert code == 0
        assert "theta MLE" in err
        res = json.loads(out)
        assert 0.3 < res["theta_used"] < 0.7
        assert res["p_value"] < 1e-6

    def test_precomputed_weights_pass_through(self, tmp_path, capsys):
        cfg, events = self._simulated(tmp_path, capsys)
        ev, _ = read_events(events)
        rng = np.random.default_rng(0)
        w = rng.uniform(0.2, 1.0, len(ev))
        from photonperiod import write_events
        weighted = str(tmp_path / "weighted.csv")
        write_events(weighted, ev, weights=w)
        cfg2 = write_config(tmp_path, base_config(weight={"kind": "precomputed"}),
                            name="cfg2.json")
        code, out, _ = run(capsys, ["detect", "--config", cfg2,
                                    "--events", weighted])
        assert code == 0
        doc = json.loads(out)
        assert doc["sum_w2"] == pytest.approx(float(np.sum(w * w)), rel=1e-12)

    def test_precomputed_without_column_fails(self, tmp_path, capsys):
        cfg, events = self._simulated(tmp_path, capsys)
        cfg2 = write_config(tmp_path, base_config(weight={"kind": "precomputed"}),
                            name="cfg2.json")
        code, _, err = run(capsys, ["detect", "--config", cfg2,
                                    "--events", events])
        assert code == 2
        assert "weight" in err


class TestOnePipeline:
    """detect and scan print exactly what detector.detect and scan.scan
    return on the same events, with the library's weights."""

    def _library(self, doc, events, weights, theta=None, densities=None):
        cfg = Config(doc)
        return _json_line(detect(events, weights, cfg.phase(), cfg.template(),
                                 theta=theta, densities=densities,
                                 T=cfg.model().T))

    def _detect(self, tmp_path, capsys, weight, events=None):
        doc = base_config(weight=weight)
        cfg = write_config(tmp_path, doc, name="detect.json")
        if events is None:
            events = str(tmp_path / "events.csv")
            run(capsys, ["simulate", "--config", cfg, "--out", events,
                         "--seed", "8"])
        code, out, _ = run(capsys, ["detect", "--config", cfg,
                                    "--events", events])
        assert code == 0
        ev, file_weights = read_events(events)
        return doc, ev, file_weights, out.strip()

    def test_unit_weights(self, tmp_path, capsys):
        doc, ev, _, out = self._detect(tmp_path, capsys, {"kind": "unit"})
        assert out == self._library(doc, ev, np.ones(len(ev)))

    def test_optimal_weights_theta_mle(self, tmp_path, capsys):
        doc, ev, _, out = self._detect(tmp_path, capsys, {"kind": "optimal"})
        dens = Config(doc).densities()
        assert out == self._library(doc, ev, None, densities=dens)

    def test_optimal_no_spectrum_theta_mle(self, tmp_path, capsys):
        doc, ev, _, out = self._detect(tmp_path, capsys,
                                       {"kind": "optimal-no-spectrum"})
        dens = Config(doc).densities()
        theta = estimate_theta(ev, dens)
        assert out == self._library(doc, ev, optimal_no_spectrum_fn(theta, dens),
                                    theta=theta)

    def test_precomputed_weights(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        plain = str(tmp_path / "plain.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", plain, "--seed", "8"])
        ev, _ = read_events(plain)
        weighted = str(tmp_path / "weighted.csv")
        write_events(weighted, ev,
                     weights=np.random.default_rng(1).uniform(0.0, 1.0, len(ev)))
        doc, ev, w, out = self._detect(tmp_path, capsys,
                                       {"kind": "precomputed"}, weighted)
        assert out == self._library(doc, ev, w)

    def test_configured_theta_one(self, tmp_path, capsys):
        """weight.theta = 1 weights background-only events 0, also where the
        PSF density underflows to 0 inside the disc."""
        doc = base_config(weight={"kind": "optimal", "theta": 1.0})
        doc["densities"]["geometry"]["sigma"] = 0.1
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "4"])
        ev, _ = read_events(events)
        dens = Config(doc).densities()
        assert np.any(dens.pdf_source(*ev.z) == 0)
        code, out, err = run(capsys, ["detect", "--config", cfg,
                                      "--events", events])
        assert code == 0, err
        assert out.strip() == self._library(
            doc, ev, optimal_weight_fn(1.0, dens), theta=1.0)

    def test_theta_mle_of_zero(self, tmp_path, capsys):
        """A source-free file whose theta MLE is 0 still gets weights."""
        doc = base_config(weight={"kind": "optimal"},
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
        doc["model"]["theta"] = 0.0
        doc["densities"]["geometry"]["rho"] = 0.159155
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "2"])
        ev, _ = read_events(events)
        config = Config(doc)
        dens = config.densities()
        assert estimate_theta(ev, dens) == 0.0

        code, out, err = run(capsys, ["detect", "--config", cfg,
                                      "--events", events])
        assert code == 0, err
        assert out.strip() == self._library(doc, ev, None, densities=dens)
        assert json.loads(out)["theta_used"] == 0.0

        code, out, err = run(capsys, ["scan", "--config", cfg,
                                      "--events", events])
        assert code == 0, err
        w = optimal_weight_fn(0.0, dens)(*ev.z)
        res = scan(ev, w, config.template(), 100.0, config.scan_spec(100.0))
        assert json.loads(out) == res.best

    def test_theta_mle_of_zero_in_four_score_passes(self, tmp_path, capsys,
                                                    monkeypatch):
        """test_theta_mle_of_zero's file: detect finds its MLE of 0 in at
        most 4 score passes over the events."""
        doc = base_config(weight={"kind": "optimal"})
        doc["model"]["theta"] = 0.0
        doc["densities"]["geometry"]["rho"] = 0.159155
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "2"])
        n = len(read_events(events)[0])
        passes = []
        score = detector._score

        def counted(diff, fb, theta):
            if diff.size == n:
                passes.append(theta)
            return score(diff, fb, theta)

        monkeypatch.setattr(detector, "_score", counted)
        code, out, err = run(capsys, ["detect", "--config", cfg,
                                      "--events", events])
        assert code == 0, err
        assert json.loads(out)["theta_used"] == 0.0
        assert 1 <= len(passes) <= 4

    @pytest.mark.parametrize("weight, library", [
        ({"kind": "unit"}, lambda ev, w, cfg: np.ones(len(ev))),
        ({"kind": "cut", "cut": {"e_lo": 1.5, "phi_max": 2.0}},
         lambda ev, w, cfg: cut_weight_fn(e_lo=1.5, phi_max=2.0)(*ev.z)),
        ({"kind": "psf-gaussian"},
         lambda ev, w, cfg: psf_gaussian_weight_fn(cfg.geometry())(*ev.z)),
        ({"kind": "optimal"}, lambda ev, w, cfg: optimal_weight_fn(
            estimate_theta(ev, cfg.densities()), cfg.densities())(*ev.z)),
        ({"kind": "optimal", "theta": 0.3},
         lambda ev, w, cfg: optimal_weight_fn(0.3, cfg.densities())(*ev.z)),
        ({"kind": "optimal-no-spectrum"}, lambda ev, w, cfg: optimal_no_spectrum_fn(
            estimate_theta(ev, cfg.densities()), cfg.densities())(*ev.z)),
        ({"kind": "optimal-no-spectrum", "theta": 0.3},
         lambda ev, w, cfg: optimal_no_spectrum_fn(0.3, cfg.densities())(*ev.z)),
        ({"kind": "precomputed"}, lambda ev, w, cfg: w),
    ], ids=["unit", "cut", "psf-gaussian", "optimal", "optimal-theta",
            "optimal-no-spectrum", "optimal-no-spectrum-theta", "precomputed"])
    def test_scan(self, tmp_path, capsys, weight, library):
        doc = base_config(weight=weight,
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
        cfg = write_config(tmp_path, doc)
        plain, events = str(tmp_path / "plain.csv"), str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", plain, "--seed", "8"])
        ev, _ = read_events(plain)
        write_events(events, ev,
                     weights=np.random.default_rng(2).uniform(0.0, 1.0, len(ev)))
        code, out, err = run(capsys, ["scan", "--config", cfg, "--events", events])
        assert code == 0, err
        assert ("theta MLE" in err) == (
            weight["kind"].startswith("optimal") and "theta" not in weight)
        config = Config(doc)
        ev, w = read_events(events)
        res = scan(ev, library(ev, w, config), config.template(), 100.0,
                   config.scan_spec(100.0))
        assert out.strip() == json.dumps(res.best)


class TestOneWeightRoute:
    @pytest.mark.parametrize("command", ["detect", "scan"])
    def test_each_density_once_per_event(self, tmp_path, capsys, monkeypatch,
                                         command):
        """With theta by MLE, the optimal weight and the MLE come from one
        evaluation of both densities at the N events."""
        doc = base_config(weight={"kind": "optimal"},
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "8"])
        n = len(read_events(events)[0])
        points = {"pdf_source": 0, "pdf_background": 0}
        for name in points:
            def counted(self, e, phi, name=name, pdf=getattr(AuxDensityPair, name)):
                points[name] += np.size(e)
                return pdf(self, e, phi)

            monkeypatch.setattr(AuxDensityPair, name, counted)
        code, _, err = run(capsys, [command, "--config", cfg, "--events", events])
        assert code == 0, err
        assert "theta MLE" in err
        assert points == {"pdf_source": n, "pdf_background": n}


def _strict_json(text):
    """text parsed as strict JSON: NaN and the infinities are errors."""
    def constant(name):
        raise ValueError("not strict JSON: %s" % name)
    return json.loads(text, parse_constant=constant)


class TestStrictJson:
    @pytest.mark.parametrize("weight", [
        {"kind": "unit"}, {"kind": "cut", "cut": {"phi_max": 2.0}},
        {"kind": "psf-gaussian"}, {"kind": "optimal"},
        {"kind": "optimal-no-spectrum", "theta": 0.3}, {"kind": "precomputed"},
    ], ids=["unit", "cut", "psf-gaussian", "optimal", "optimal-no-spectrum",
            "precomputed"])
    def test_every_subcommand(self, tmp_path, capsys, weight):
        """Each subcommand's stdout is strict JSON: detect prints a theta_used
        of null where the weights use none."""
        doc = base_config(weight=weight,
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
        doc["model"] = {"mu": 50.0, "theta": 0.3, "T": 20.0}
        cfg = write_config(tmp_path, doc)
        plain, events = str(tmp_path / "plain.csv"), str(tmp_path / "events.csv")
        code, out, _ = run(capsys, ["simulate", "--config", cfg, "--out", plain])
        assert code == 0
        _strict_json(out)
        ev, _ = read_events(plain)
        write_events(events, ev, weights=np.ones(len(ev)))
        for argv in (["detect", "--events", events], ["scan", "--events", events],
                     ["power"], ["calibrate", "--replicates", "2"]):
            code, out, err = run(capsys, argv[:1] + ["--config", cfg] + argv[1:])
            if weight["kind"] == "precomputed" and argv[0] in ("power",
                                                              "calibrate"):
                assert (code, out) == (2, ""), err
                continue
            assert code == 0, err
            res = _strict_json(out)
            if argv[0] == "detect":
                has_theta = weight["kind"].startswith("optimal")
                assert (res["theta_used"] is not None) == has_theta

    @pytest.mark.parametrize("theta, printed", [(None, "null"), (0.25, "0.25")])
    def test_detect_line(self, theta, printed):
        """A DetectionResult prints its fields in order, arrays as lists and
        numpy scalars as numbers."""
        res = DetectionResult(qt=np.float64(12.5), an_sq=np.array([0.25, 3.0]),
                              sum_w2=7.0, p_value=1e-300, theta_used=theta,
                              n_events=np.int64(9))
        assert _json_line(res) == (
            '{"qt": 12.5, "an_sq": [0.25, 3.0], "sum_w2": 7.0, '
            '"p_value": 1e-300, "theta_used": %s, "n_events": 9}' % printed)

    @pytest.mark.parametrize("value", [
        float("nan"), np.float64("inf"), np.float32("nan"),
        np.array([1.0, -np.inf]), [0.5, float("nan")]],
        ids=["nan", "inf", "float32-nan", "array", "list"])
    def test_writer_refuses_nan_and_infinity(self, value):
        with pytest.raises(ValueError):
            _json_line({"value": value})

    def test_detect_fails_on_a_nan_result(self, tmp_path, capsys, monkeypatch):
        """detect prints its result through the strict writer: a NaN in it is
        a runtime failure, not a NaN on stdout."""
        cfg = write_config(tmp_path, base_config())
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events])
        nan = DetectionResult(qt=float("nan"), an_sq=np.ones(1), sum_w2=1.0,
                              p_value=0.5, theta_used=None, n_events=1)
        monkeypatch.setattr(detector, "detect", lambda *args, **kwargs: nan)
        code, out, err = run(capsys, ["detect", "--config", cfg,
                                      "--events", events])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


class TestCountFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--replicates", "1"), ("--replicates", "0"), ("--replicates", "-3"),
        ("--threads", "0"), ("--threads", "-2"),
    ])
    def test_below_the_least_is_a_usage_error(self, tmp_path, capsys, flag,
                                              value):
        """calibrate needs two replicates for a variance, and one thread."""
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--config", cfg, flag, value])
        assert exc.value.code == 2
        assert "argument %s: must be at least" % flag in capsys.readouterr().err

    def test_config_error_from_a_worker_process(self, tmp_path, capsys):
        """A worker's ConfigError reaches calibrate as a config error."""
        cfg = write_config(tmp_path, base_config(weight={"kind": "precomputed"}))
        code, out, err = run(capsys, ["calibrate", "--config", cfg,
                                      "--replicates", "2", "--threads", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("config error: config field 'weight': ")


class TestScanCommand:
    def test_finds_injected_frequency(self, tmp_path, capsys):
        doc = base_config(scan={"f_lo": 4.99, "f_hi": 5.01,
                                "oversample": 5, "m": 2})
        doc["template"] = {"amps_sq": [1.0, 0.2]}
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "6"])
        table = str(tmp_path / "scan.csv")
        code, out, _ = run(capsys, ["scan", "--config", cfg,
                                    "--events", events, "--out", table])
        assert code == 0
        best = json.loads(out)
        assert abs(best["f"] - 5.0) < 0.01
        assert best["p_value"] < 1e-10
        lines = open(table).read().strip().splitlines()
        assert lines[0] == "f,fdot,qt,p_value"
        assert len(lines) - 1 == best["trials"]

    def test_out_file_is_the_scan_result(self, tmp_path, capsys):
        """--out holds the header and one row of %.17g values per grid
        point of the library's ScanResult, fdot rows in turn, byte for
        byte."""
        doc = base_config(weight={"kind": "unit"},
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2,
                                "fdot": [-1e-4, 1e-4, 3]})
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", events, "--seed", "6"])
        table = tmp_path / "scan.csv"
        code, _, err = run(capsys, ["scan", "--config", cfg, "--events", events,
                                    "--out", str(table)])
        assert code == 0, err
        config = Config(doc)
        ev, _ = read_events(events)
        res = scan(ev, np.ones(len(ev)), config.template(), 100.0,
                   config.scan_spec(100.0))
        assert res.trials > 3 and len(set(res.fdot.tolist())) == 3
        rows = zip(res.f.tolist(), res.fdot.tolist(), res.qt.tolist(),
                   res.p.tolist())
        want = "f,fdot,qt,p_value\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
        assert table.read_bytes() == want.encode()

    @pytest.mark.parametrize("T, scan_section", [
        (1e8, {"f_lo": 1.0, "f_hi": 1000.0}),
        (100.0, {"f_lo": 1.0, "f_hi": 2.0, "fdot": [0.0, 1e-9, 1e12]}),
    ], ids=["frequencies", "fdot-steps"])
    def test_oversized_grid_is_an_error_line(self, tmp_path, capsys, T,
                                             scan_section):
        """A grid of terabytes is refused with one error line, before it is
        built, and no traceback."""
        doc = base_config(template={"kind": "z", "m": 10}, scan=scan_section)
        doc["model"]["T"] = T
        cfg = write_config(tmp_path, doc)
        events = str(tmp_path / "events.csv")
        zeros = np.zeros(3)
        write_events(events, EventList(t=[1.0, 2.0, 3.0], energy=zeros + 1.0,
                                       angle=zeros))
        code, out, err = run(capsys, ["scan", "--config", cfg,
                                      "--events", events])
        assert code == 1
        assert out == ""
        assert err.startswith("error: grid has ") and "points (max " in err
        assert "Traceback" not in err

    def test_negative_precomputed_weight_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        plain = str(tmp_path / "plain.csv")
        run(capsys, ["simulate", "--config", cfg, "--out", plain, "--seed", "8"])
        ev, _ = read_events(plain)
        w = np.ones(len(ev))
        w[3] = -0.5
        weighted = str(tmp_path / "weighted.csv")
        write_events(weighted, ev, weights=w)
        doc = base_config(weight={"kind": "precomputed"},
                          scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
        cfg2 = write_config(tmp_path, doc, name="cfg2.json")
        code, out, err = run(capsys, ["scan", "--config", cfg2,
                                      "--events", weighted])
        assert code == 1
        assert out == ""
        assert "finite and nonnegative" in err


class TestPowerCommand:
    def test_single_harmonic_efficiency_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        table = str(tmp_path / "eff.csv")
        code, out, _ = run(capsys, ["power", "--config", cfg, "--out", table])
        assert code == 0
        pred = json.loads(out)
        assert pred["snr"] > 0
        assert pred["efficiency_w"] == 1.0
        rows = [line.split(",") for line in
                open(table).read().strip().splitlines()[1:]]
        pct = {int(m): float(v) for m, v in rows}
        # single-harmonic source: a Z-test with m harmonics keeps 1/sqrt(m)
        assert pct[1] == pytest.approx(100.0, abs=0.01)
        assert pct[2] == pytest.approx(70.71, abs=0.01)
        assert pct[3] == pytest.approx(57.74, abs=0.01)

    @pytest.mark.parametrize("profile", [None, {"coeffs": [[0.0, 0.0]]}])
    def test_table_without_a_profile_fails_first(self, tmp_path, capsys,
                                                 profile):
        """--out needs the profile's spectrum: with none, power exits 2
        naming profile, before it prints or opens anything."""
        doc = base_config(profile=profile)
        if profile is None:
            del doc["profile"]
        cfg = write_config(tmp_path, doc)
        table = tmp_path / "eff.csv"
        code, out, err = run(capsys, ["power", "--config", cfg, "--out",
                                      str(table)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: config field 'profile': ")
        assert not table.exists()

    def test_weighted_prediction_uses_efficiency(self, tmp_path, capsys):
        doc = base_config(weight={"kind": "optimal", "theta": 0.5})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["power", "--config", cfg])
        assert code == 0
        pred = json.loads(out)
        assert pred["efficiency_w"] > 1.0

    def test_non_finite_weight_fails(self, tmp_path, capsys, monkeypatch):
        nan_far = WeightFunction(lambda e, p: np.where(p > 0.5, np.nan, 1.0))
        monkeypatch.setattr(Config, "weight", lambda self, theta=None: nan_far)
        cfg = write_config(tmp_path, base_config(weight={"kind": "custom"}))
        code, out, err = run(capsys, ["power", "--config", cfg])
        assert code == 1
        assert out == ""
        assert "not finite" in err


class TestUnusedFlags:
    @pytest.mark.parametrize("argv", [
        ["detect", "--events", "x.csv", "--threads", "2"],
        ["detect", "--events", "x.csv", "--seed", "1"],
        ["scan", "--events", "x.csv", "--replicates", "10"],
        ["power", "--seed", "1"],
        ["simulate", "--threads", "2"],
        ["simulate", "--replicates", "10"],
    ])
    def test_usage_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", cfg] + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParserBuiltOnce:
    def test_successive_calls_behave_as_fresh_processes(self, tmp_path,
                                                        capsys):
        """main builds its parser once a process.  Commands run one after
        another in this process, a different subcommand each time and
        usage errors among them, give the exit code, stdout and stderr that
        each gives in a fresh process."""
        cfg = write_config(tmp_path, base_config(
            scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2}))
        events = str(tmp_path / "events.csv")
        commands = [
            ["simulate", "--config", cfg, "--out", events, "--seed", "3"],
            ["detect", "--config", cfg, "--events", events, "--seed", "1"],
            ["detect", "--config", cfg, "--events", events],
            ["power", "--config", cfg],
            ["scan", "--config", cfg],
            ["scan", "--config", cfg, "--events", events],
            ["simulate", "--config", cfg, "--out", events],
        ]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        here = [in_process(argv) for argv in commands]
        assert [code for code, _, _ in here] == [0, 2, 0, 0, 2, 0, 0]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(photonperiod.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for argv, got in zip(commands, here):
            proc = subprocess.run([sys.executable, "-m", "photonperiod", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


class TestCalibrateCommand:
    def test_report_fields(self, tmp_path, capsys):
        doc = base_config()
        doc["model"] = {"mu": 50.0, "theta": 0.3, "T": 20.0}
        doc["template"] = {"amps_sq": [1.0, 1.0]}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["calibrate", "--config", cfg,
                                    "--replicates", "60", "--seed", "9"])
        assert code == 0
        rep = json.loads(out)
        assert rep["replicates"] == 60
        assert len(rep["per_harmonic"]) == 2
        for row in rep["per_harmonic"]:
            assert row["mean"] == pytest.approx(2.0, abs=0.6)
            assert row["ks_p_chi2_2dof"] > 1e-4
        assert rep["p_value_ks_uniform_p"] > 1e-4

    def test_multiprocess_matches_single(self, tmp_path, capsys):
        doc = base_config()
        doc["model"] = {"mu": 50.0, "theta": 0.3, "T": 20.0}
        cfg = write_config(tmp_path, doc)
        code1, out1, _ = run(capsys, ["calibrate", "--config", cfg,
                                      "--replicates", "20", "--seed", "4"])
        code2, out2, _ = run(capsys, ["calibrate", "--config", cfg,
                                      "--replicates", "20", "--seed", "4",
                                      "--threads", "2"])
        assert code1 == code2 == 0
        assert json.loads(out1)["qt_mean"] == pytest.approx(
            json.loads(out2)["qt_mean"], rel=1e-12)


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(photonperiod.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_m_photonperiod(tmp_path):
    """python -m photonperiod runs the CLI and exits with its code."""
    cfg = write_config(tmp_path, base_config())
    events = str(tmp_path / "events.csv")
    proc = subprocess.run([sys.executable, "-m", "photonperiod", "simulate",
                           "--config", cfg, "--out", events, "--seed", "3"],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["out"] == events
    assert doc["n_events"] == len(read_events(events)[0])


# Run in a fresh interpreter: the test modules import scipy themselves.  It
# takes JSON [[argv, ...], [argv, ...]]: the first commands must load no
# scipy module, numpy.ma or process pool, the second ones may.  It prints
# one JSON line.
_FRESH_PROCESS = """
import contextlib, io, json, sys
import photonperiod
from photonperiod.cli import _json_line, main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()

lean, later = json.loads(sys.argv[1])
first = [run(argv) for argv in lean]
scipy = sorted(k for k in sys.modules
               if k == "scipy" or k.startswith("scipy."))
unneeded = [k for k in ("numpy.ma", "concurrent.futures.process")
            if k in sys.modules]
print(json.dumps({"first": first, "scipy": scipy, "unneeded": unneeded,
                  "later": [run(argv) for argv in later]}))
"""


def test_scipy_loaded_only_where_called(tmp_path):
    """Importing the package and running simulate, detect (optimal weights,
    theta by MLE, a non-flat template and a flat one), scan and power with a
    cut weight loads no scipy module, and neither numpy.ma (which numpy's
    np.unique imports) nor the process pool of calibrate --threads.  The
    flat template's detect gives the values it gave with scipy's chi-square
    tail, and a power with the PSF weight, which does use scipy, gives the
    value it gave before."""
    lean = base_config(weight={"kind": "optimal"},
                       template={"amps_sq": [1.0, 0.25]},
                       scan={"f_lo": 4.99, "f_hi": 5.01, "oversample": 2})
    cut = base_config(weight={"kind": "cut", "cut": {"phi_max": 1.5}})
    flat = base_config(weight={"kind": "optimal"},
                       template={"kind": "z", "m": 2})
    del flat["profile"]  # the null: a p-value in the body of the tail
    psf = base_config(weight={"kind": "psf-gaussian"})
    cfg, cut, flat, psf = (write_config(tmp_path, doc, name)
                           for doc, name in ((lean, "lean.json"),
                                             (cut, "cut.json"),
                                             (flat, "flat.json"),
                                             (psf, "psf.json")))
    events, null = str(tmp_path / "events.csv"), str(tmp_path / "null.csv")
    steps = [[["simulate", "--config", cfg, "--out", events, "--seed", "4"],
              ["simulate", "--config", flat, "--out", null, "--seed", "4"],
              ["detect", "--config", cfg, "--events", events],
              ["scan", "--config", cfg, "--events", events],
              ["power", "--config", cut],
              ["detect", "--config", flat, "--events", null]],
             [["power", "--config", psf]]]
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS,
                           json.dumps(steps)], env=_package_env(),
                          capture_output=True, text=True, timeout=300,
                          check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert [code for code, _ in got["first"] + got["later"]] == [0] * 7
    assert got["scipy"] == []
    assert got["unneeded"] == []
    detect_flat, power_psf = (json.loads(out) for _, out in
                              (got["first"][-1], got["later"][0]))
    assert detect_flat["n_events"] == 10155
    assert detect_flat["qt"] == pytest.approx(284.03976090691884, rel=1e-12)
    assert detect_flat["p_value"] == pytest.approx(0.13518986964855872,
                                                   rel=1e-12)
    assert power_psf["efficiency_w"] == pytest.approx(1.4580509666186814,
                                                      rel=1e-12)
    assert power_psf["snr"] == pytest.approx(911.2818541366759, rel=1e-12)
