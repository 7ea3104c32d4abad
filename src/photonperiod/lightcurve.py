"""Periodic light-curve templates and source profiles as truncated Fourier series.

Profiles are stored with positive-frequency coefficients only; the negative
harmonics are implied by conjugate symmetry, so every sum over nonzero
harmonics carries a factor of two.
"""

import math
import threading
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
    def from_profile(cls, profile):
        """Template proportional to the profile's power spectrum."""
        return cls(np.abs(profile.coeffs) ** 2)


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


# pi = _PI_HI + _PI_LO: _PI_HI is pi to 33 bits, so k _PI_HI is exact for
# k < 2^20, and _PI_LO (math.pi's remainder plus pi - math.pi) is within
# 1e-25 of the rest
_PI_HI = math.ldexp(round(math.ldexp(math.pi, 31)), -31)
_PI_LO = (math.pi - _PI_HI) + 1.2246467991473532e-16
# Table points per cycle of _unit_phasors, and phases per scratch chunk.
_TABLE_SIZE = 1024
_CHUNK = 1 << 14


def _phasor_table():
    """e^{2 pi i k / 1024} for k = 0..1024, as (real parts, imaginary parts).

    The angle k pi / 512 is hi + lo with hi = k _PI_HI / 512 exact; cos and
    sin at hi, corrected to second order in lo (|lo| < 3e-10), are taken in
    long double.  Where long double has a 64-bit mantissa (x86-64) each part
    is within 0.5 u + 2^-11 u of exact, u = 2^-53; where it is double,
    within 1 u.
    """
    k = np.arange(_TABLE_SIZE + 1, dtype=np.longdouble)
    hi = k * np.longdouble(_PI_HI / 512)
    lo = k * np.longdouble(_PI_LO / 512)
    c, s = np.cos(hi), np.sin(hi)
    return ((c - (s * lo + 0.5 * c * lo * lo)).astype(float),
            (s + (c * lo - 0.5 * s * lo * lo)).astype(float))


_TABLE_RE, _TABLE_IM = _phasor_table()
_scratch = threading.local()


def _phasor_chunk(phase, re, im):
    """e^{2 pi i phase} into re and im, for at most _CHUNK phases.

    x = phase - floor(phase) is phase % 1.0 bit for bit, in [0, 1].  With
    k = rint(1024 x) and r = 1024 x - k, exact in [-1/2, 1/2], the phasor is
    T_k (1 + (cos t - 1) + i sin t), t = 2 pi r / 1024, where T_k is the
    table's and cos t - 1 and sin t are Taylor polynomials of degree 4 and
    5 (|t| <= pi / 1024: remainders below 2e-18).  The correction terms are
    below 4e-3 of T_k, so their rounding adds under 0.02 u, and each part
    ends in one rounded addition: each part is within 1.1 u of e^{2 pi i x},
    and the phasor within 2 u.  x is exact but for a phase in (-1/2, 0),
    where it rounds by up to u / 2, which adds up to pi u.  The intermediates
    live in this thread's scratch, kept for its later calls: fresh arrays
    here would cost a page fault per 4 KB.
    """
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None:
        bufs = _scratch.bufs = (np.empty((4, _CHUNK)),
                                np.empty(_CHUNK, dtype=np.intp))
    n = phase.size
    a, b, c, d = bufs[0][:, :n]
    k = bufs[1][:n]
    np.floor(phase, out=a)
    np.subtract(phase, a, out=a)
    np.multiply(a, _TABLE_SIZE, out=a)
    np.rint(a, out=b)
    np.copyto(k, b, casting="unsafe")
    np.subtract(a, b, out=a)                 # r
    np.multiply(a, 2.0 * math.pi / _TABLE_SIZE, out=a)   # t
    np.multiply(a, a, out=b)
    np.multiply(b, 1.0 / 120.0, out=c)
    c -= 1.0 / 6.0
    c *= b
    c *= a
    c += a                                   # sin t
    np.multiply(b, 1.0 / 24.0, out=a)
    a -= 0.5
    a *= b                                   # cos t - 1
    # a nan phase casts to an index out of range: clipped, its phasor is nan
    np.take(_TABLE_RE, k, out=b, mode="clip")
    np.take(_TABLE_IM, k, out=d, mode="clip")
    # Re: Re T_k + (Re T_k (cos t - 1) - Im T_k sin t)
    np.multiply(b, a, out=re)
    np.multiply(d, c, out=im)
    re -= im
    re += b
    # Im: Im T_k + (Im T_k (cos t - 1) + Re T_k sin t)
    a *= d
    c *= b
    np.add(a, c, out=im)
    im += d


def _unit_phasors(phase):
    """e^{2 pi i phase}, reduced mod 1 first so no angle error grows with
    it: within 2 u (u = 2^-53) of e^{2 pi i phase} at the rounded phase,
    and within 6 u for a phase in (-1/2, 0) (_phasor_chunk)."""
    phase = np.asarray(phase, dtype=float)
    z = np.empty(phase.shape, dtype=complex)
    flat, out = phase.reshape(-1), z.reshape(-1)
    with np.errstate(invalid="ignore"):  # nan at a nan or infinite phase
        for start in range(0, flat.size, _CHUNK):
            chunk = out[start:start + _CHUNK]
            _phasor_chunk(flat[start:start + _CHUNK], chunk.real, chunk.imag)
    return z


def _harmonic_sums(w, z, m):
    """sum_j w_j z_j^n for n = 1..m, z unit phasors, by the recurrence z^n.

    u = 2^-53.  A phasor from _unit_phasors is within 6 u of e^{2 pi i phi}
    at its rounded phase (2 u but for phases in (-1/2, 0)), so z^n is within
    6 n u; w z and each multiply add 3 u (Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.5); numpy's blocked pairwise sum adds
    (2 log2 N + 20) u sum_j w_j (section 4.2).  So A_n is within
    (9 n + 2 log2 N + 20) u sum_j w_j of exact.  m >= 1: callers take m
    from fourier_coefficients, which checks it, or from a HarmonicTemplate.
    """
    term = w * z
    an = [term.sum()]
    for _ in range(1, m):
        term *= z
        an.append(term.sum())
    return np.array(an)


def eval_profile(profile, phase):
    """Evaluate the profile at a phase (cycles; reduced mod 1 internally).

    Accepts scalars or arrays.  nan wherever the phase is not finite.
    The value is 1 + 2 eta Re(sum_n gamma_n z^n), with z = e^{2 pi i phase}
    from _unit_phasors and z^n by the recurrence z^n = z^{n-1} z.  With
    u = 2^-53: z^n is within 6 n u of e^{2 pi i n phase} at the rounded
    phase (_harmonic_sums), each product gamma_n z^n adds 3 u |gamma_n|
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5) and
    the m - 1 additions at most m u |gamma_n| each, so the sum is within
    sum_n |gamma_n| (6 n + m + 3) u of exact.  The value is within 2 eta
    times that, plus 2 eta u sum_n |gamma_n| + 2 u |value|.
    """
    phase = np.asarray(phase, dtype=float)
    if profile.eta == 0 and np.all(np.isfinite(profile.coeffs)):
        # a constant light curve: 1 + 0 * (a finite sum) is 1 exactly
        out = np.where(np.isfinite(phase), 1.0, np.nan)
        return out if out.ndim else float(out)
    z = _unit_phasors(phase)
    zn = z.copy()
    total = profile.coeffs[0] * zn
    for gamma in profile.coeffs[1:]:
        zn *= z
        total += gamma * zn
    out = 1.0 + 2.0 * profile.eta * total.real
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

    Coefficients are proportional to A_n = sum_j w_j e^{2 pi i n phi(t_j)}
    from detector.fourier_coefficients, within its kernel's rounding bound
    and with bits that no permutation of the events changes, normalized so
    sum_n |gamma_n|^2 = 1, with eta = 1.  The result is a spectrum for
    template matching and skips the rate-profile nonnegativity check.
    """
    from .detector import _weighted_events, fourier_coefficients  # a cycle

    times = np.asarray(getattr(events, "t", events), dtype=float)
    if times.size == 0:
        raise ValueError("empty event list")
    ordered, _ = _weighted_events(
        times, np.ones(times.shape) if weights is None else weights)
    an = fourier_coefficients(ordered, ordered.w, model, m)
    power = np.abs(an) ** 2
    if np.sum(power) / np.sum(ordered.w) ** 2 < 1e-9:
        raise ValueError("no harmonic content")
    coeffs = an / np.sqrt(np.sum(power))
    return LightCurveProfile.unchecked(coeffs, eta=1.0)
