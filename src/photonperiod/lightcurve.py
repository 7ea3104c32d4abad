"""Periodic light-curve templates and source profiles as truncated Fourier series.

Profiles are stored with positive-frequency coefficients only; the negative
harmonics are implied by conjugate symmetry, so every sum over nonzero
harmonics carries a factor of two.
"""

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HarmonicTemplate",
    "LightCurveProfile",
    "PhaseModel",
    "eval_profile",
    "phase_of",
    "template_efficiency",
    "estimate_profile_coeffs",
]

_VALIDATION_GRID = 1024
_NONNEG_TOL = -1e-9


@dataclass(frozen=True)
class HarmonicTemplate:
    """Target harmonic spectrum |alpha_n|^2 for n = 1..m."""

    amps_sq: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps_sq, dtype=float)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("template needs at least one harmonic")
        if np.any(amps < 0):
            raise ValueError("harmonic powers must be nonnegative")
        if not np.any(amps > 0):
            raise ValueError("empty spectrum")
        object.__setattr__(self, "amps_sq", amps)

    @property
    def m(self):
        return self.amps_sq.size

    @classmethod
    def z_test(cls, m):
        """Flat template |alpha_n|^2 = 1 for n <= m (the Z_m^2 spectrum)."""
        return cls(np.ones(m))

    @classmethod
    def rayleigh(cls):
        return cls.z_test(1)

    @classmethod
    def from_profile(cls, profile):
        """Template proportional to the profile's power spectrum."""
        return cls(np.abs(profile.coeffs) ** 2)

    def to_json(self):
        return json.dumps({"m": self.m, "amps_sq": self.amps_sq.tolist()})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(np.asarray(obj["amps_sq"], dtype=float))


@dataclass(frozen=True)
class LightCurveProfile:
    """Source pulse shape 1 + eta * sum_{n != 0} gamma_n e^{2 pi i n t}.

    Only n >= 1 coefficients are stored; gamma_{-n} = conj(gamma_n).  The
    evaluated profile scales a Poisson rate, so construction rejects
    (eta, gamma) combinations that dip below zero anywhere on a 1024-point
    phase grid.
    """

    coeffs: np.ndarray
    eta: float = 1.0
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("profile needs at least one coefficient")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)
        if self._validate:
            grid = np.arange(_VALIDATION_GRID) / _VALIDATION_GRID
            vals = eval_profile(self, grid)
            if np.min(vals) < _NONNEG_TOL:
                raise ValueError(
                    "profile is negative (min %.3g); eta too large for these "
                    "coefficients" % np.min(vals)
                )

    @property
    def m(self):
        return self.coeffs.size

    @classmethod
    def constant(cls):
        """Unpulsed profile (eta = 0)."""
        return cls(np.zeros(1, dtype=complex), eta=0.0)

    @classmethod
    def unchecked(cls, coeffs, eta=1.0):
        """Build without the nonnegativity check.

        Empirically estimated spectra are used for template matching, not as
        rate profiles, and need not be admissible rates.
        """
        return cls(coeffs, eta=eta, _validate=False)

    def amps_sq(self):
        """|gamma_n|^2 for n = 1..m."""
        return np.abs(self.coeffs) ** 2

    def to_json(self):
        return json.dumps(
            {
                "m": self.m,
                "eta": self.eta,
                "coeffs": [[c.real, c.imag] for c in self.coeffs],
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
        return cls(coeffs, eta=float(obj["eta"]))


@dataclass(frozen=True)
class PhaseModel:
    """Phase function phi(t) = f (t - epoch) + fdot (t - epoch)^2 / 2."""

    f: float
    fdot: float = 0.0
    epoch: float = 0.0

    def __post_init__(self):
        if self.f <= 0:
            raise ValueError("frequency must be positive")


def phase_of(model, t):
    """Cumulative phase at time t, in cycles.  Not reduced mod 1."""
    dt = np.asarray(t, dtype=float) - model.epoch
    return model.f * dt + 0.5 * model.fdot * dt * dt


def _times_and_weights(events, weights):
    """Event times (an EventList or bare times) and their checked weights."""
    times = np.asarray(getattr(events, "t", events), dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != times.shape:
        raise ValueError("events and weights have different lengths")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    return times, w


def _unit_phasors(phase):
    """e^{2 pi i phase}, reduced mod 1 first so no angle error grows with it."""
    z = 2j * np.pi * (phase % 1.0)
    return np.exp(z, out=z)


def _harmonic_sums(w, z, m):
    """sum_j w_j z_j^n for n = 1..m, z unit phasors, by the recurrence z^n.

    u = 2^-53.  A phasor from _unit_phasors is within 20 u of e^{2 pi i phi}
    at its rounded phase, so z^n is within 20 n u; w z and each multiply add
    3 u (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5);
    numpy's blocked pairwise sum adds (2 log2 N + 20) u sum_j w_j (section
    4.2).  So A_n is within (23 n + 2 log2 N + 20) u sum_j w_j of exact.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    term = w * z
    an = [term.sum()]
    for _ in range(1, m):
        term *= z
        an.append(term.sum())
    return np.array(an)


def eval_profile(profile, phase):
    """Evaluate the profile at a phase (cycles; reduced mod 1 internally).

    Accepts scalars or arrays.  nan wherever the phase is not finite.
    """
    phase = np.asarray(phase, dtype=float)
    if profile.eta == 0 and np.all(np.isfinite(profile.coeffs)):
        # a constant light curve: 1 + 0 * (a finite sum) is 1 exactly
        out = np.where(np.isfinite(phase), 1.0, np.nan)
        return out if out.ndim else float(out)
    n = np.arange(1, profile.m + 1)
    # 1 + eta * 2 Re(sum gamma_n e^{2 pi i n phase})
    phasors = np.exp(2j * np.pi * np.multiply.outer(phase, n))
    out = 1.0 + 2.0 * profile.eta * np.real(phasors @ profile.coeffs)
    return out if out.ndim else float(out)


def template_efficiency(template, source):
    """Fraction of the optimal-template SNR attained by `template` on `source`.

    Equals 1 exactly when |alpha_n|^2 is proportional to |gamma_n|^2; bounded
    by 1 through Cauchy-Schwarz.
    """
    a = np.asarray(template.amps_sq, dtype=float)
    g = source.amps_sq() if hasattr(source, "amps_sq") else np.asarray(source, float)
    if not np.any(a > 0) or not np.any(g > 0):
        raise ValueError("empty spectrum")
    k = min(a.size, g.size)
    num = np.dot(g[:k], a[:k])
    den = np.sqrt(np.sum(a * a)) * np.sqrt(np.sum(g * g))
    return float(num / den)


def estimate_profile_coeffs(events, model, m, weights=None):
    """Empirical Fourier spectrum of an event list as a LightCurveProfile.

    Coefficients are proportional to A_n = sum_j w_j e^{2 pi i n phi(t_j)},
    normalized so sum_n |gamma_n|^2 = 1, with eta = 1.  The result is a
    spectrum for template matching and skips the rate-profile
    nonnegativity check.
    """
    if weights is None:
        weights = np.ones(np.shape(getattr(events, "t", events)))
    times, w = _times_and_weights(events, weights)
    if times.size == 0:
        raise ValueError("empty event list")
    if not np.any(w > 0):
        raise ValueError("no weighted events")
    an = _harmonic_sums(w, _unit_phasors(phase_of(model, times)), m)
    power = np.abs(an) ** 2
    if np.sum(power) / np.sum(w) ** 2 < 1e-9:
        raise ValueError("no harmonic content")
    coeffs = an / np.sqrt(np.sum(power))
    return LightCurveProfile.unchecked(coeffs, eta=1.0)
