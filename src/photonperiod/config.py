"""JSON configuration parsing for the CLI.

A config is a single JSON document with sections
{model, profile, phase, template, densities, weight, scan}.  Physical
quantities may be written as bare numbers or as {"value": x, "unit": "..."}
objects; units are declarative (recorded, never converted).
"""

import json
from contextlib import contextmanager

import numpy as np

from . import auxmodel, lightcurve, simulator
from .scan import _DEFAULT_MAX_POINTS, ScanSpec

__all__ = ["ConfigError", "Config", "load_config"]

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field, message):
        self.field, self.message = field, message
        super().__init__("config field %r: %s" % (field, message))

    def __reduce__(self):  # so that it reaches calibrate from a worker
        return ConfigError, (self.field, self.message)


@contextmanager
def _as_config_error(field):
    """Report a ValueError from building a value as a ConfigError on field."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(field, str(exc))


class _Section:
    """The JSON object at a dotted path; each read names its field."""

    def __init__(self, obj, path):
        if not isinstance(obj, dict):
            raise ConfigError(path, "expected a JSON object, got %r" % (obj,))
        self.obj = obj
        self.path = path

    def field(self, key):
        return "%s.%s" % (self.path, key) if self.path else key

    def get(self, key, default=_REQUIRED):
        if key in self.obj:
            return self.obj[key]
        if default is _REQUIRED:
            raise ConfigError(self.field(key), "missing")
        return default

    def section(self, key, optional=False):
        """The sub-object at key; None if optional and absent or null."""
        obj = self.get(key, None if optional else _REQUIRED)
        return None if optional and obj is None else _Section(obj, self.field(key))

    def number(self, key, default=_REQUIRED, infinite=False):
        """A finite float, or also +-inf where infinite is set; a quantity
        object {"value": x, "unit": u} gives x."""
        obj, field = self.get(key, default), self.field(key)
        if isinstance(obj, dict):
            if "value" not in obj:
                raise ConfigError(field, "quantity object needs a 'value' key")
            obj = obj["value"]
        if not isinstance(obj, (int, float)) or isinstance(obj, bool) or obj != obj:
            raise ConfigError(field, "expected a number, got %r" % (obj,))
        try:
            value = float(obj)
        except OverflowError:  # an integer beyond the double range
            value = np.inf if obj > 0 else -np.inf
        if not (infinite or np.isfinite(value)):
            raise ConfigError(field, "expected a finite number, got %r" % (obj,))
        return value

    def integer(self, key, default=_REQUIRED):
        value = self.number(key, default)
        if not value.is_integer():
            raise ConfigError(self.field(key), "expected an integer, got %r" % value)
        return int(value)

    def finite_list(self, key):
        """A list of finite numbers, each read as the field itself."""
        raw, field = self.get(key), self.field(key)
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(field, "expected a list, got %r" % (raw,))
        return [_Section({key: x}, self.path).number(key) for x in raw]


class Config:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        self.doc = doc
        self._root = _Section(doc, "")
        self._densities = None

    # -- sections -----------------------------------------------------------

    def phase(self):
        sec = self._root.section("phase")
        f = sec.number("f")
        if f <= 0:
            raise ConfigError("phase.f", "must be positive")
        return lightcurve.PhaseModel(f=f, fdot=sec.number("fdot", 0.0),
                                     epoch=sec.number("epoch", 0.0))

    def profile(self):
        sec = self._root.section("profile", optional=True)
        if sec is None:
            return lightcurve.LightCurveProfile.constant()
        eta = sec.number("eta", 1.0)
        pairs = sec.get("coeffs")
        if not isinstance(pairs, (list, tuple)) or any(
                not isinstance(p, (list, tuple)) or len(p) != 2 for p in pairs):
            raise ConfigError("profile.coeffs", "expected [[re, im], ...]")
        coeffs = [complex(*_Section({"coeffs": p}, sec.path).finite_list("coeffs"))
                  for p in pairs]
        with _as_config_error("profile"):
            return lightcurve.LightCurveProfile(coeffs, eta=eta)

    def template(self):
        sec = self._root.section("template")
        if "amps_sq" in sec.obj:
            amps_sq = sec.finite_list("amps_sq")
            with _as_config_error("template.amps_sq"):
                return lightcurve.HarmonicTemplate(amps_sq)
        kind = sec.get("kind", "z")
        m = sec.integer("m", 10)
        if kind != "z":
            raise ConfigError("template.kind", "unknown kind %r" % kind)
        if m < 1:
            raise ConfigError("template.m", "must be >= 1")
        return lightcurve.HarmonicTemplate.z_test(m)

    def model(self):
        sec = self._root.section("model")
        mu = sec.number("mu")
        theta = sec.number("theta")
        if not 0 <= theta <= 1:
            raise ConfigError("model.theta", "must lie in [0, 1]")
        T = sec.number("T")
        if T <= 0:
            raise ConfigError("model.T", "must be positive")
        sens = self._sensitivity(sec.section("sensitivity", optional=True), T)
        with _as_config_error("model"):
            return simulator.RateModel(mu=mu, theta=theta, profile=self.profile(),
                                       phase=self.phase(), T=T, sensitivity=sens)

    def tau(self):
        sec = self._root.section("model", optional=True)
        return 0.0 if sec is None else sec.number("tau", 0.0)

    def _sensitivity(self, sec, T):
        if sec is None:
            return None
        kind = sec.get("kind")
        if kind == "constant":
            return simulator.sensitivity_constant(sec.number("level", 1.0))
        if kind == "ramp":
            return simulator.sensitivity_ramp(sec.number("c0"), sec.number("c1"), T)
        if kind == "window":
            return simulator.sensitivity_window(
                sec.number("t_on"), sec.number("t_off"), sec.number("level", 1.0))
        raise ConfigError(sec.field("kind"), "unknown kind %r" % kind)

    def _spectrum(self, sec):
        kind = sec.get("kind", "flat")
        e_min, e_max = sec.number("e_min", 0.1), sec.number("e_max", 10.0)
        if kind == "flat":
            return auxmodel.FlatSpectrum(e_min, e_max)
        if kind == "powerlaw":
            return auxmodel.PowerLawSpectrum(sec.number("index"), e_min, e_max)
        raise ConfigError(sec.field("kind"), "unknown kind %r" % kind)

    def geometry(self):
        geo = self._root.section("densities").section("geometry")
        with _as_config_error("densities.geometry"):
            return auxmodel.DiskGeometry(
                R=geo.number("R"), rho=geo.number("rho"),
                alpha_rate=geo.number("alpha_rate"), sigma=geo.number("sigma"))

    def densities(self):
        """The AuxDensityPair, built once."""
        if self._densities is not None:
            return self._densities
        sec = self._root.section("densities")
        # a null or empty spectrum is absent; bkg defaults to src
        src, bkg = [self._spectrum(sec.section(key)) if sec.get(key, None) else None
                    for key in ("source_spectrum", "background_spectrum")]
        with _as_config_error("densities"):
            self._densities = self.geometry().density_pair(src, bkg or src)
        return self._densities

    def _weight(self):
        """The weight section (empty if absent), its kind and its theta."""
        sec = self._root.section("weight", optional=True) or _Section({}, "weight")
        theta = sec.number("theta") if "theta" in sec.obj else None
        if theta is not None and not 0 < theta <= 1:
            raise ConfigError("weight.theta", "must lie in (0, 1]")
        return sec, sec.get("kind", "unit"), theta

    def weight_kind(self):
        return self._weight()[1]

    def detect_theta(self):
        """The configured weight.theta, or None."""
        return self._weight()[2]

    def weight(self, theta=None):
        """Build the configured WeightFunction.

        The optimal kinds use weight.theta if set, else the fallback theta;
        with neither, ConfigError on weight.theta.  Kind 'precomputed' has
        none: its weights are an event file's column.
        """
        sec, kind, configured = self._weight()
        if kind == "precomputed":
            raise ConfigError("weight", "'precomputed' weights need an event file")
        if kind == "unit":
            return auxmodel.unit_weight()
        if kind == "cut":
            cut = sec.section("cut")
            with _as_config_error("weight.cut"):
                return auxmodel.cut_weight_fn(
                    # an unset edge is infinite: so may a set one be
                    e_lo=cut.number("e_lo", -np.inf, infinite=True),
                    e_hi=cut.number("e_hi", np.inf, infinite=True),
                    phi_max=cut.number("phi_max", np.inf, infinite=True))
        if kind == "psf-gaussian":
            return auxmodel.psf_gaussian_weight_fn(self.geometry())
        if kind in ("optimal", "optimal-no-spectrum"):
            th = theta if configured is None else configured
            if th is None:
                raise ConfigError("weight.theta", "kind %r needs a theta" % kind)
            build = (auxmodel.optimal_weight_fn if kind == "optimal"
                     else auxmodel.optimal_no_spectrum_fn)
            return build(th, self.densities())
        raise ConfigError("weight.kind", "unknown kind %r" % kind)

    def scan_spec(self):
        sec = self._root.section("scan")
        fdot = sec.get("fdot", 0.0)
        if isinstance(fdot, list):
            if len(fdot) != 3:
                raise ConfigError("scan.fdot", "range needs [lo, hi, steps]")
            rng = _Section(dict(zip(("lo", "hi", "steps"), fdot)), "scan.fdot")
            fdot = (rng.number("lo"), rng.number("hi"), rng.integer("steps"))
        else:
            fdot = sec.number("fdot", 0.0)
        with _as_config_error("scan"):
            return ScanSpec(
                f_lo=sec.number("f_lo"), f_hi=sec.number("f_hi"), fdot=fdot,
                oversample=sec.number("oversample", 10.0),
                max_points=sec.integer("max_points", _DEFAULT_MAX_POINTS))


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", "line %d: %s" % (exc.lineno, exc.msg))
    return Config(doc)
