"""Frequency-grid evaluation of Q_T.

The grid step is 1 / (oversample * m * T), m the template's harmonic count,
so the phase error of the highest retained harmonic between adjacent grid
points stays below one cycle (|m Delta| < 1 for Delta the offset in units of
1/T).

A_n along the grid is computed by progressive phasor rotation: one complex
multiply per event per grid point instead of a fresh exponential, which keeps
a 1e4-point scan over 1e4 events around a second.
"""

from dataclasses import dataclass

import numpy as np

from .detector import _fsum, _times_and_weights, weighted_chi2_sf
from .lightcurve import PhaseModel

__all__ = ["ScanSpec", "ScanResult", "frequency_grid", "scan"]

_DEFAULT_MAX_POINTS = 10**7


@dataclass(frozen=True)
class ScanSpec:
    f_lo: float
    f_hi: float
    fdot: object = 0.0  # fixed value, or (fdot_lo, fdot_hi, steps)
    oversample: float = 10.0
    max_points: int = _DEFAULT_MAX_POINTS

    def __post_init__(self):
        if not self.f_lo < self.f_hi:
            raise ValueError("need f_lo < f_hi")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")

    def fdot_values(self):
        if np.isscalar(self.fdot):
            return np.array([float(self.fdot)])
        lo, hi, steps = self.fdot
        return np.linspace(lo, hi, int(steps))


@dataclass(frozen=True)
class ScanResult:
    f: np.ndarray
    fdot: np.ndarray
    qt: np.ndarray
    p: np.ndarray
    trials: int

    @property
    def best(self):
        """The max-Q_T point; p is non-increasing in Q_T over one grid."""
        i = int(np.argmax(self.qt))
        return {
            "f": float(self.f[i]),
            "fdot": float(self.fdot[i]),
            "qt": float(self.qt[i]),
            "p_value": float(self.p[i]),
            "trials": self.trials,
        }


def frequency_grid(spec, T, m):
    """Frequencies f_lo + k / (oversample m T) up to f_hi, m harmonics."""
    step = 1.0 / (spec.oversample * m * T)
    n = int(np.floor((spec.f_hi - spec.f_lo) / step)) + 1
    return spec.f_lo + step * np.arange(n)


def scan(events, weights, template, T, spec, epoch=0.0):
    """Q_T and raw p-value on the (f, fdot) grid.

    Raw per-point p-values only; the trials count is reported and no
    multiplicity correction is applied.
    """
    freqs = frequency_grid(spec, T, template.m)
    fdots = spec.fdot_values()
    total = freqs.size * fdots.size
    if total > spec.max_points:
        raise ValueError(
            "grid has %d points (max %d); narrow the range or reduce "
            "oversampling" % (total, spec.max_points)
        )
    times, w = _times_and_weights(events, weights)
    m = template.m
    amps = template.amps_sq
    sum_w2 = _fsum(w * w)
    if sum_w2 <= 0:
        raise ValueError("no weighted events")

    q = times - epoch
    n_vec = np.arange(1, m + 1)[:, None]
    step = freqs[1] - freqs[0] if freqs.size > 1 else 0.0
    rot = np.exp(2j * np.pi * n_vec * step * q[None, :])

    qt = np.empty(total)
    f_out = np.empty(total)
    fdot_out = np.empty(total)
    idx = 0
    for fd in fdots:
        base = w[None, :] * np.exp(
            2j * np.pi * n_vec * (freqs[0] * q + 0.5 * fd * q * q)[None, :]
        )
        for k in range(freqs.size):
            an = base.sum(axis=1)
            qt[idx] = 2.0 / T * np.dot(amps, np.abs(an) ** 2)
            f_out[idx] = freqs[k]
            fdot_out[idx] = fd
            idx += 1
            if k + 1 < freqs.size:
                base *= rot

    p = weighted_chi2_sf(qt * T, amps * sum_w2)
    return ScanResult(f=f_out, fdot=fdot_out, qt=qt, p=p, trials=total)
