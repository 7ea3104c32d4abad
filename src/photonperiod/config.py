"""JSON configuration parsing for the CLI.

A config is a single JSON document with sections
{model, profile, phase, template, densities, weight, scan}.  Physical
quantities may be written as bare numbers or as {"value": x, "unit": "..."}
objects; units are declarative (recorded, never converted).
"""

import json

import numpy as np

from . import auxmodel, lightcurve, simulator
from .scan import ScanSpec

__all__ = ["ConfigError", "Config", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__("config field %r: %s" % (field, message))


def _value(obj, field):
    if isinstance(obj, dict):
        if "value" not in obj:
            raise ConfigError(field, "quantity object needs a 'value' key")
        obj = obj["value"]
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ConfigError(field, "expected a number, got %r" % (obj,))
    return float(obj)


def _get(section, key, field, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(field, "missing")
        return default
    return section[key]


class Config:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        self.doc = doc
        self._densities = None

    # -- sections -----------------------------------------------------------

    def phase(self):
        sec = _get(self.doc, "phase", "phase", required=True)
        f = _value(_get(sec, "f", "phase.f", required=True), "phase.f")
        if f <= 0:
            raise ConfigError("phase.f", "must be positive")
        fdot = _value(_get(sec, "fdot", "phase.fdot", default=0.0), "phase.fdot")
        epoch = _value(_get(sec, "epoch", "phase.epoch", default=0.0), "phase.epoch")
        return lightcurve.PhaseModel(f=f, fdot=fdot, epoch=epoch)

    def profile(self):
        sec = _get(self.doc, "profile", "profile")
        if sec is None:
            return lightcurve.LightCurveProfile.constant()
        eta = _value(_get(sec, "eta", "profile.eta", default=1.0), "profile.eta")
        raw = _get(sec, "coeffs", "profile.coeffs", required=True)
        try:
            coeffs = np.array([complex(re, im) for re, im in raw])
        except (TypeError, ValueError):
            raise ConfigError("profile.coeffs", "expected [[re, im], ...]")
        try:
            return lightcurve.LightCurveProfile(coeffs, eta=eta)
        except ValueError as exc:
            raise ConfigError("profile", str(exc))

    def template(self):
        sec = _get(self.doc, "template", "template", required=True)
        if "amps_sq" in sec:
            try:
                return lightcurve.HarmonicTemplate(
                    np.asarray(sec["amps_sq"], dtype=float))
            except ValueError as exc:
                raise ConfigError("template.amps_sq", str(exc))
        kind = _get(sec, "kind", "template.kind", default="z")
        m = int(_value(_get(sec, "m", "template.m", default=10), "template.m"))
        if kind != "z":
            raise ConfigError("template.kind", "unknown kind %r" % kind)
        if m < 1:
            raise ConfigError("template.m", "must be >= 1")
        return lightcurve.HarmonicTemplate.z_test(m)

    def model(self):
        sec = _get(self.doc, "model", "model", required=True)
        mu = _value(_get(sec, "mu", "model.mu", required=True), "model.mu")
        theta = _value(_get(sec, "theta", "model.theta", required=True),
                       "model.theta")
        if not 0 <= theta <= 1:
            raise ConfigError("model.theta", "must lie in [0, 1]")
        T = _value(_get(sec, "T", "model.T", required=True), "model.T")
        if T <= 0:
            raise ConfigError("model.T", "must be positive")
        sens = self._sensitivity(_get(sec, "sensitivity", "model.sensitivity"), T)
        try:
            return simulator.RateModel(mu=mu, theta=theta, profile=self.profile(),
                                       phase=self.phase(), T=T, sensitivity=sens)
        except ValueError as exc:
            raise ConfigError("model", str(exc))

    def tau(self):
        sec = _get(self.doc, "model", "model", default={})
        return _value(_get(sec, "tau", "model.tau", default=0.0), "model.tau")

    def _sensitivity(self, sec, T):
        if sec is None:
            return None
        kind = _get(sec, "kind", "model.sensitivity.kind", required=True)
        if kind == "constant":
            level = _value(_get(sec, "level", "model.sensitivity.level",
                                default=1.0), "model.sensitivity.level")
            return simulator.sensitivity_constant(level)
        if kind == "ramp":
            c0 = _value(_get(sec, "c0", "model.sensitivity.c0", required=True),
                        "model.sensitivity.c0")
            c1 = _value(_get(sec, "c1", "model.sensitivity.c1", required=True),
                        "model.sensitivity.c1")
            return simulator.sensitivity_ramp(c0, c1, T)
        if kind == "window":
            t_on = _value(_get(sec, "t_on", "model.sensitivity.t_on",
                               required=True), "model.sensitivity.t_on")
            t_off = _value(_get(sec, "t_off", "model.sensitivity.t_off",
                                required=True), "model.sensitivity.t_off")
            level = _value(_get(sec, "level", "model.sensitivity.level",
                                default=1.0), "model.sensitivity.level")
            return simulator.sensitivity_window(t_on, t_off, level)
        raise ConfigError("model.sensitivity.kind", "unknown kind %r" % kind)

    def _spectrum(self, sec, field):
        kind = _get(sec, "kind", field + ".kind", default="flat")
        e_min = _value(_get(sec, "e_min", field + ".e_min", default=0.1),
                       field + ".e_min")
        e_max = _value(_get(sec, "e_max", field + ".e_max", default=10.0),
                       field + ".e_max")
        if kind == "flat":
            return auxmodel.FlatSpectrum(e_min, e_max)
        if kind == "powerlaw":
            index = _value(_get(sec, "index", field + ".index", required=True),
                           field + ".index")
            return auxmodel.PowerLawSpectrum(index, e_min, e_max)
        raise ConfigError(field + ".kind", "unknown kind %r" % kind)

    def geometry(self):
        sec = _get(self.doc, "densities", "densities", required=True)
        geo = _get(sec, "geometry", "densities.geometry", required=True)
        try:
            return auxmodel.DiskGeometry(
                R=_value(_get(geo, "R", "densities.geometry.R", required=True),
                         "densities.geometry.R"),
                rho=_value(_get(geo, "rho", "densities.geometry.rho",
                                required=True), "densities.geometry.rho"),
                alpha_rate=_value(
                    _get(geo, "alpha_rate", "densities.geometry.alpha_rate",
                         required=True), "densities.geometry.alpha_rate"),
                sigma=_value(_get(geo, "sigma", "densities.geometry.sigma",
                                  required=True), "densities.geometry.sigma"),
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("densities.geometry", str(exc))

    def densities(self):
        """The AuxDensityPair, built (and its normalization checked) once."""
        if self._densities is not None:
            return self._densities
        sec = _get(self.doc, "densities", "densities", required=True)
        geom = self.geometry()
        src = _get(sec, "source_spectrum", "densities.source_spectrum")
        bkg = _get(sec, "background_spectrum", "densities.background_spectrum")
        src_spec = self._spectrum(src, "densities.source_spectrum") if src else None
        bkg_spec = self._spectrum(bkg, "densities.background_spectrum") if bkg else src_spec
        try:
            self._densities = geom.density_pair(src_spec, bkg_spec)
        except ValueError as exc:
            raise ConfigError("densities", str(exc))
        return self._densities

    def weight(self, theta=None):
        """Build the configured WeightFunction.

        Returns None for kind 'precomputed' (the caller takes weights from the
        event file), and for the optimal kinds when no theta is configured or
        given (the caller resolves it from the theta MLE).  theta overrides
        the configured weight theta.
        """
        sec = _get(self.doc, "weight", "weight", default={"kind": "unit"})
        kind = _get(sec, "kind", "weight.kind", default="unit")
        if kind == "precomputed":
            return None
        if kind == "unit":
            return auxmodel.unit_weight()
        if kind == "cut":
            cut = _get(sec, "cut", "weight.cut", required=True)
            try:
                return auxmodel.cut_weight_fn(
                    e_lo=_value(_get(cut, "e_lo", "weight.cut.e_lo",
                                     default=-np.inf), "weight.cut.e_lo"),
                    e_hi=_value(_get(cut, "e_hi", "weight.cut.e_hi",
                                     default=np.inf), "weight.cut.e_hi"),
                    phi_max=_value(_get(cut, "phi_max", "weight.cut.phi_max",
                                        default=np.inf), "weight.cut.phi_max"),
                )
            except ValueError as exc:
                if isinstance(exc, ConfigError):
                    raise
                raise ConfigError("weight.cut", str(exc))
        if kind == "psf-gaussian":
            return auxmodel.psf_gaussian_weight_fn(self.geometry())
        if kind in ("optimal", "optimal-no-spectrum"):
            th = self.detect_theta() if theta is None else theta
            if th is None:
                return None
            build = (auxmodel.optimal_weight_fn if kind == "optimal"
                     else auxmodel.optimal_no_spectrum_fn)
            return build(th, self.densities())
        raise ConfigError("weight.kind", "unknown kind %r" % kind)

    def weight_kind(self):
        sec = _get(self.doc, "weight", "weight", default={"kind": "unit"})
        return _get(sec, "kind", "weight.kind", default="unit")

    def detect_theta(self):
        sec = _get(self.doc, "weight", "weight", default={})
        if "theta" in sec:
            th = _value(sec["theta"], "weight.theta")
            if not 0 < th <= 1:
                raise ConfigError("weight.theta", "must lie in (0, 1]")
            return th
        return None

    def scan_spec(self, T):
        sec = _get(self.doc, "scan", "scan", required=True)
        fdot = _get(sec, "fdot", "scan.fdot", default=0.0)
        if isinstance(fdot, list):
            if len(fdot) != 3:
                raise ConfigError("scan.fdot", "range needs [lo, hi, steps]")
            fdot = (float(fdot[0]), float(fdot[1]), int(fdot[2]))
        else:
            fdot = _value(fdot, "scan.fdot")
        try:
            return ScanSpec(
                f_lo=_value(_get(sec, "f_lo", "scan.f_lo", required=True),
                            "scan.f_lo"),
                f_hi=_value(_get(sec, "f_hi", "scan.f_hi", required=True),
                            "scan.f_hi"),
                fdot=fdot,
                oversample=_value(_get(sec, "oversample", "scan.oversample",
                                       default=10.0), "scan.oversample"),
                max_points=int(_value(_get(sec, "max_points", "scan.max_points",
                                           default=10**7), "scan.max_points")),
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("scan", str(exc))


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", "line %d: %s" % (exc.lineno, exc.msg))
    return Config(doc)
