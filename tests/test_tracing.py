"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
name.  A refactor that drops or renames one of them fails here."""

import json
import sys
from pathlib import Path

import numpy as np

from photonperiod import auxmodel, cli, config, detector, eventio, simulator
from photonperiod.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402

SCAN_MODULE = sys.modules["photonperiod.scan"]

TRACED = [
    (config.Config, "densities"),
    (eventio, "read_events"),
    (detector, "estimate_theta"),
    (detector, "fourier_coefficients"),
    (detector, "p_value"),
    (detector, "weighted_chi2_sf"),
    (SCAN_MODULE, "weighted_chi2_sf"),
    (cli, "run_scan"),
    (simulator, "simulate"),
    (auxmodel.WeightFunction, "__call__"),
    (auxmodel, "weight_moments"),
]


def test_tracer_counts_detect_scan_and_power(tmp_path, capsys):
    doc = {
        "phase": {"f": 5.0},
        "profile": {"eta": 1.0, "coeffs": [[0.5, 0.0]]},
        "template": {"amps_sq": [1.0, 0.5]},
        "model": {"mu": 20.0, "theta": 0.5, "T": 50.0},
        "densities": {"geometry": {"R": 5.0, "rho": 1.0 / (2.0 * np.pi),
                                   "alpha_rate": 1.0, "sigma": 1.0}},
        "weight": {"kind": "optimal"},
        "scan": {"f_lo": 4.99, "f_hi": 5.01, "oversample": 2},
    }
    cfg = str(tmp_path / "config.json")
    Path(cfg).write_text(json.dumps(doc))
    # the scan step's own document, by a later --config: theta by MLE, then
    # the angle-only weight at it, calls estimate_theta and the weight function
    scan_cfg = str(tmp_path / "scan.json")
    Path(scan_cfg).write_text(json.dumps(
        dict(doc, weight={"kind": "optimal-no-spectrum"})))
    events = str(tmp_path / "events.csv")
    originals = [owner.__dict__[attr] for owner, attr in TRACED]

    with Tracer().installed() as tracer:
        for argv in (["simulate", "--out", events], ["detect", "--events", events],
                     ["scan", "--events", events, "--config", scan_cfg],
                     ["power"]):
            assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 0
    capsys.readouterr()

    assert [owner.__dict__[attr] for owner, attr in TRACED] == originals
    for span in ("config.densities", "eventio.read_events",
                 "detector.estimate_theta", "detector.fourier_coefficients",
                 "detector.p_value", "detector.sf", "scan.scan",
                 "simulator.simulate", "auxmodel.weight_call",
                 "auxmodel.weight_moments"):
        assert tracer.inclusive[span] > 0, span
    for key in ("config.densities_calls", "eventio.rows", "detector.an_terms",
                "scan.grid_points", "scan.phasor_terms", "simulator.events",
                "auxmodel.weight_points", "auxmodel.weight_moments_points"):
        assert tracer.counts[key] > 0, key
    # one tail call for detect's p-value, one vectorized call for the scan grid
    assert tracer.counts["detector.sf_calls"] == 2
