"""Frequency-grid evaluation of Q_T.

The grid step is 1 / (oversample * m * T), m the template's harmonic count,
so the phase error of the highest retained harmonic between adjacent grid
points stays below one cycle (|m Delta| < 1 for Delta the offset in units of
1/T).

A_n on the grid is detect's kernel, detector._an_sums, one row per fdot,
within the rounding bound stated there, of detect's events and sum_j w_j^2
(detector._weighted_events).  So each fdot row's first point has the Q_T of
detector.fourier_coefficients at (f_lo, fdot, epoch), and each point's p is
detector.p_value at its Q_T, bit for bit, for any number of CPUs.
"""

from dataclasses import dataclass

import numpy as np

from .detector import (_an_sums, _weighted_events, qt_statistic,
                       weighted_chi2_sf)

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
        if not np.isscalar(self.fdot) and self.fdot[2] < 1:
            raise ValueError("fdot steps must be >= 1")

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
    """Frequencies f_lo + k / (oversample m T) up to f_hi, m harmonics.

    The grid's points, these frequencies times spec's fdot rows, are counted
    from spec's numbers first: more than spec.max_points raises ValueError
    before either axis is built."""
    step = 1.0 / (spec.oversample * m * T)
    n = int(np.floor((spec.f_hi - spec.f_lo) / step)) + 1
    total = n * (1 if np.isscalar(spec.fdot) else int(spec.fdot[2]))
    if total > spec.max_points:
        raise ValueError(
            "grid has %d points (max %d); narrow the range or reduce "
            "oversampling" % (total, spec.max_points)
        )
    return spec.f_lo + step * np.arange(n)


def scan(events, weights, template, T, spec, epoch=0.0):
    """Q_T and raw p-value on the (f, fdot) grid, whose size frequency_grid
    checks against spec.max_points before building it.

    Raw per-point p-values only; the trials count is reported and no
    multiplicity correction is applied.
    """
    freqs = frequency_grid(spec, T, template.m)
    fdots = spec.fdot_values()
    total = freqs.size * fdots.size
    (times, w), sum_w2 = _weighted_events(events, weights)
    # the step from the grid's span: freqs[1] - freqs[0] carries the
    # rounding of freqs[1], which k rotations would multiply by k
    step = np.ptp(freqs) / max(freqs.size - 1, 1)
    an = _an_sums(times, w, template.m, freqs[0], fdots, epoch, step,
                  freqs.size)
    qt = qt_statistic(an.reshape(total, template.m), template, T)
    p = weighted_chi2_sf(qt * T, template.amps_sq * sum_w2)
    return ScanResult(f=np.tile(freqs, fdots.size),
                      fdot=np.repeat(fdots, freqs.size), qt=qt, p=p,
                      trials=total)
