"""The config boundary: every field is checked, and errors name the field."""

import copy
import json
import pathlib
import re

import pytest

from photonperiod.auxmodel import FlatSpectrum, optimal_weight_fn
from photonperiod.cli import main
from photonperiod.config import Config, ConfigError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

FULL = {
    "phase": {"f": 5.0, "fdot": 0.0, "epoch": 0.0},
    "profile": {"eta": 1.0, "coeffs": [[0.5, 0.0]]},
    "template": {"amps_sq": [1.0]},
    "model": {"mu": 100.0, "theta": 0.5, "T": 100.0, "tau": 0.0},
    "densities": {"geometry": {"R": 5.0, "rho": 0.159155,
                               "alpha_rate": 1.0, "sigma": 1.0}},
    "scan": {"f_lo": 4.99, "f_hi": 5.01, "oversample": 2},
}

RAMP = {"kind": "ramp", "c0": 0.8, "c1": 1.2}
WINDOW = {"kind": "window", "t_on": 10.0, "t_off": 50.0, "level": 1.0}
SPECTRA = {"densities.source_spectrum": {"kind": "powerlaw", "index": 2.0},
           "densities.background_spectrum": {"kind": "powerlaw", "index": 2.7}}
CUT = {"kind": "cut", "cut": {"e_lo": 0.5, "e_hi": 5.0, "phi_max": 2.0}}

# (subcommand that reads the field, dotted field, context set before it)
NUMBER_FIELDS = (
    [("simulate", "phase." + k, {}) for k in ("f", "fdot", "epoch")]
    + [("simulate", "profile.eta", {})]
    + [("power", "template.m", {"template": {"kind": "z", "m": 2}})]
    + [("simulate", "model." + k, {}) for k in ("mu", "theta", "T", "tau")]
    + [("simulate", "model.sensitivity.level",
        {"model.sensitivity": {"kind": "constant"}})]
    + [("simulate", "model.sensitivity." + k, {"model.sensitivity": RAMP})
       for k in ("c0", "c1")]
    + [("simulate", "model.sensitivity." + k, {"model.sensitivity": WINDOW})
       for k in ("t_on", "t_off", "level")]
    + [("simulate", "densities.geometry." + k, {})
       for k in ("R", "rho", "alpha_rate", "sigma")]
    + [("simulate", "densities.%s_spectrum.%s" % (side, k), SPECTRA)
       for side in ("source", "background") for k in ("e_min", "e_max", "index")]
    + [("power", "weight.theta", {"weight": {"kind": "optimal", "theta": 0.3}})]
    + [("power", "weight.cut." + k, {"weight": CUT})
       for k in ("e_lo", "e_hi", "phi_max")]
    + [("scan", "scan." + k, {})
       for k in ("f_lo", "f_hi", "oversample", "max_points")]
)


def _set(doc, dotted, value):
    *parents, key = dotted.split(".")
    for p in parents:
        doc = doc.setdefault(p, {})
    doc[key] = value


def _run(tmp_path, capsys, command, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "events.csv")]
    if command == "scan":
        argv += ["--events", str(tmp_path / "missing.csv")]
    if command == "calibrate":
        argv += ["--replicates", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _doc(context, **top):
    doc = copy.deepcopy(FULL)
    doc.update(copy.deepcopy(top))
    for dotted, value in copy.deepcopy(context).items():
        _set(doc, dotted, value)
    return doc


@pytest.mark.parametrize("bad, message", [
    ("x", "expected a number, got 'x'"),
    ({"unit": "Hz"}, "quantity object needs a 'value' key"),
])
@pytest.mark.parametrize("command, field, context", NUMBER_FIELDS,
                         ids=[f for _, f, _ in NUMBER_FIELDS])
def test_bad_number_names_its_field(tmp_path, capsys, command, field, context,
                                    bad, message):
    doc = _doc(context)
    _set(doc, field, bad)
    code, out, err = _run(tmp_path, capsys, command, doc)
    assert code == 2
    assert out == ""
    assert "config field %r: %s\n" % (field, message) in err


def test_section_error_is_not_rewrapped(tmp_path, capsys):
    doc = _doc({"phase.f": "x"})
    code, _, err = _run(tmp_path, capsys, "simulate", doc)
    assert code == 2
    assert err == "config error: config field 'phase.f': expected a number, got 'x'\n"


@pytest.mark.parametrize("command, field, context", [
    ("power", "weight", {"weight": "optimal"}),
    ("power", "weight.cut", {"weight": {"kind": "cut", "cut": [1, 2]}}),
    ("simulate", "phase", {"phase": "f"}),
    ("simulate", "phase", {"phase": 5}),
    ("scan", "scan.fdot", {"scan.fdot": [None, 1, 2]}),
    ("scan", "scan.fdot", {"scan.fdot": ["a", 1, 2]}),
    ("power", "template.m", {"template": {"kind": "z", "m": 2.5}}),
    ("simulate", "phase.f", {"phase.f": float("nan")}),
    ("scan", "scan", {"scan.fdot": [0, 1, 0]}),
    ("power", "template.amps_sq", {"template.amps_sq": {"a": 1}}),
    ("power", "template.amps_sq", {"template.amps_sq": [None]}),
    ("power", "template.amps_sq", {"template.amps_sq": [float("nan")]}),
    ("power", "template.amps_sq", {"template.amps_sq": [float("inf")]}),
    ("power", "template.amps_sq", {"template.amps_sq": [True]}),
    ("power", "profile.coeffs", {"profile.coeffs": [[float("nan"), 0]]}),
    ("power", "profile.coeffs", {"profile.coeffs": [[0.5, float("-inf")]]}),
    ("simulate", "profile.coeffs", {"profile.coeffs": [[float("inf"), 0]]}),
    ("power", "profile.coeffs", {"profile.coeffs": [[True, 0]]}),
    ("power", "model.mu", {"model.mu": float("inf")}),
    ("simulate", "model.T", {"model.T": float("inf")}),
    ("simulate", "phase.fdot", {"phase.fdot": float("-inf")}),
    ("simulate", "profile.eta", {"profile.eta": {"value": float("inf")}}),
    ("power", "weight.theta",
     {"weight": {"kind": "optimal", "theta": float("inf")}}),
    ("scan", "scan.f_hi", {"scan.f_hi": float("inf")}),
    ("scan", "scan.fdot.hi", {"scan.fdot": [0, float("inf"), 2]}),
    ("power", "template.m", {"template": {"kind": "z", "m": float("inf")}}),
    ("simulate", "model.mu", {"model.mu": 10**400}),
    ("simulate", "phase.f", {"phase.f": 0.0}),
    ("power", "template.kind", {"template": {"kind": "sine"}}),
    ("power", "template.m", {"template": {"kind": "z", "m": 0}}),
    ("simulate", "model.T", {"model.T": 0.0}),
    ("simulate", "model.sensitivity.kind",
     {"model.sensitivity": {"kind": "step"}}),
    ("simulate", "densities.source_spectrum.kind",
     {"densities.source_spectrum": {"kind": "line"}}),
    ("power", "weight.kind", {"weight": {"kind": "magic"}}),
    ("power", "weight.theta", {"weight": {"kind": "optimal", "theta": 0.0}}),
    ("power", "weight.theta", {"weight": {"kind": "optimal", "theta": 1.5}}),
    ("scan", "scan.fdot", {"scan.fdot": [0, 1e-9]}),
    ("power", "profile.coeffs", {"profile.coeffs": [[0.5, 0.0, 1.0]]}),
    ("power", "profile.coeffs", {"profile.coeffs": [0.5]}),
    ("simulate", "phase.f", {"phase": {}}),
], ids=["weight-string", "cut-list", "phase-string", "phase-number",
        "fdot-null", "fdot-string", "m-fraction", "f-nan", "fdot-no-steps",
        "amps-object", "amps-null", "amps-nan", "amps-inf", "amps-bool",
        "coeffs-nan", "coeffs-minus-inf", "coeffs-inf-simulate", "coeffs-bool",
        "mu-inf", "T-inf", "fdot-minus-inf", "eta-quantity-inf",
        "weight-theta-inf", "f_hi-inf", "fdot-range-inf", "m-inf",
        "mu-beyond-double", "f-zero", "template-kind", "m-zero", "T-zero",
        "sensitivity-kind", "spectrum-kind", "weight-kind", "weight-theta-zero",
        "weight-theta-above-one", "fdot-two", "coeffs-triple",
        "coeffs-not-pairs", "f-missing"])
def test_malformed_input_names_its_field(tmp_path, capsys, command, field,
                                         context):
    code, out, err = _run(tmp_path, capsys, command, _doc(context))
    assert code == 2, err
    assert out == ""
    assert re.match(r"config error: config field '%s(\.[a-z_]+)?': "
                    % re.escape(field), err), err


@pytest.mark.parametrize("command", ["simulate", "scan", "power", "calibrate"])
@pytest.mark.parametrize("root", [[], 5.0, "x", None],
                         ids=["list", "number", "string", "null"])
def test_root_must_be_an_object(tmp_path, capsys, command, root):
    code, out, err = _run(tmp_path, capsys, command, root)
    assert code == 2
    assert out == ""
    assert err == ("config error: config field '<root>': config must be a "
                   "JSON object\n")


@pytest.mark.parametrize("edges", [{"e_hi": float("inf")},
                                   {"e_lo": float("-inf"), "e_hi": 5.0,
                                    "phi_max": float("inf")}])
def test_infinite_cut_edge_still_runs(tmp_path, capsys, edges):
    """A cut edge's unset value is infinite, so an explicit one is too."""
    code, out, err = _run(tmp_path, capsys, "power",
                          _doc({}, weight={"kind": "cut", "cut": edges}))
    assert code == 0, err
    assert json.loads(out)["snr"] > 0


@pytest.mark.parametrize("command", ["power", "calibrate"])
def test_precomputed_weight_needs_an_event_file(tmp_path, capsys, command):
    doc = _doc({}, weight={"kind": "precomputed"})
    code, out, err = _run(tmp_path, capsys, command, doc)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: config field 'weight': ")


def test_integral_float_is_an_integer():
    doc = _doc({"template": {"kind": "z", "m": 3.0},
                "scan.max_points": {"value": 1e4}, "scan.fdot": [0, 1e-9, 2.0]})
    cfg = Config(doc)
    assert cfg.template().m == 3
    spec = cfg.scan_spec()
    assert spec.max_points == 10**4 and spec.fdot == (0.0, 1e-9, 2)


def test_null_optional_sections_are_absent():
    doc = _doc({}, profile=None, weight=None)
    doc["model"]["sensitivity"] = None
    doc["densities"]["source_spectrum"] = None
    cfg = Config(doc)
    assert cfg.weight_kind() == "unit"
    assert cfg.model().sensitivity is None
    assert cfg.profile().eta == 0.0
    assert cfg.densities() == Config(FULL).densities()


def test_weight_theta_is_the_configured_else_the_fallback():
    dens = Config(FULL).densities()
    z = ([1.0, 2.0], [0.1, 3.0])
    configured = Config(_doc({}, weight={"kind": "optimal", "theta": 0.3}))
    fallback = Config(_doc({}, weight={"kind": "optimal"}))
    assert list(configured.weight(0.9)(*z)) == list(optimal_weight_fn(0.3, dens)(*z))
    assert list(fallback.weight(0.9)(*z)) == list(optimal_weight_fn(0.9, dens)(*z))
    with pytest.raises(ConfigError, match="weight.theta"):
        fallback.weight(None)


@pytest.mark.parametrize("spectrum", [{"kind": "flat"}, {}],
                         ids=["flat", "default-kind"])
def test_flat_spectrum(spectrum):
    """A spectrum of kind 'flat', the default kind, is a FlatSpectrum on
    [e_min, e_max]; the background takes the source's."""
    spectrum = dict(spectrum, e_min=0.5, e_max=4.0)
    dens = Config(_doc({"densities.source_spectrum": spectrum})).densities()
    assert dens.source_energy == FlatSpectrum(0.5, 4.0)
    assert dens.background_energy == FlatSpectrum(0.5, 4.0)


def test_readme_example_reads_in_every_section():
    text = README.read_text()
    block = re.search(r"A config is one JSON document:\s*```json\n(.*?)```",
                      text, re.S)
    cfg = Config(json.loads(block.group(1)))
    model = cfg.model()
    assert cfg.phase().f == 5.0
    assert cfg.profile().eta == 1.0
    assert cfg.template().m == 2
    assert model.sensitivity is not None
    assert cfg.tau() == 0.0
    assert cfg.geometry().R == 5.0
    assert cfg.densities() is not None
    assert cfg.weight_kind() == "optimal"
    assert cfg.detect_theta() == 0.3
    assert cfg.weight() is not None
    assert cfg.scan_spec().f_lo == 4.95
