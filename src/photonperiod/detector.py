"""Weighted Fourier statistics, the Q_T detection statistic, and p-values.

The statistic Q_T = (1/T) sum_{n != 0} |alpha_n|^2 |A_n|^2 with
A_n = sum_j w_j exp(2 pi i n phi(t_j)).  Under the null (no periodic
component) 2 |A_n|^2 / sum_j w_j^2 is approximately chi-square(2) and the
A_n are approximately independent, so Q_T T is a weighted sum of
independent chi-square(2) variables with coefficients |alpha_n|^2 sum_w2;
p-values invert that distribution.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import chi2

from .auxmodel import optimal_weight_fn
from .lightcurve import eval_profile, phase_of

__all__ = [
    "DetectionResult",
    "fourier_coefficients",
    "qt_statistic",
    "score_at_tau",
    "estimate_theta",
    "weighted_chi2_sf",
    "p_value",
    "detect",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DetectionResult:
    an_sq: np.ndarray  # |A_n|^2, n = 1..m
    qt: float
    sum_w2: float
    p_value: float
    theta_used: float
    n_events: int

    def to_json(self):
        return json.dumps(
            {
                "qt": self.qt,
                "an_sq": np.asarray(self.an_sq).tolist(),
                "sum_w2": self.sum_w2,
                "p_value": self.p_value,
                "theta_used": self.theta_used,
                "n_events": self.n_events,
            }
        )


def _fsum(values):
    # exact-rounding compensated sum; result is order-independent
    return math.fsum(np.asarray(values, dtype=float).tolist())


def fourier_coefficients(events, weights, model, m):
    """A_n = sum_j w_j e^{2 pi i n phi(t_j)} for n = 1..m, compensated.

    Accepts an EventList or a bare array of times.
    """
    times = np.asarray(getattr(events, "t", events), dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != times.shape:
        raise ValueError("events and weights have different lengths")
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")
    if times.size == 0:
        return np.zeros(m, dtype=complex)
    ang = 2.0 * np.pi * phase_of(model, times)
    out = np.empty(m, dtype=complex)
    for n in range(1, m + 1):
        out[n - 1] = complex(_fsum(w * np.cos(n * ang)),
                             _fsum(w * np.sin(n * ang)))
    return out


def qt_statistic(an, template, T):
    """(2/T) sum_{n=1..m} |alpha_n|^2 |A_n|^2 (factor 2 for the n < 0 twins)."""
    if T <= 0:
        raise ValueError("T must be positive")
    an = np.asarray(an)
    if template.m > an.size:
        raise ValueError("template has more harmonics than supplied A_n")
    power = np.abs(an[: template.m]) ** 2
    return float(2.0 / T * np.dot(template.amps_sq, power))


def score_at_tau(events, weights, model, profile, tau):
    """Score statistic S(tau) = sum_j w_j (nu_tau(phi(t_j)) - 1).

    The deterministic integral term of the score is dropped; it is negligible
    when phi(T) >> 1 and the sensitivity varies slowly.
    """
    times = np.asarray(getattr(events, "t", events), dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != times.shape:
        raise ValueError("events and weights have different lengths")
    if times.size == 0:
        return 0.0
    nu = eval_profile(profile, phase_of(model, times) + tau)
    return _fsum(w * (np.atleast_1d(nu) - 1.0))


def estimate_theta(z_values, densities, tol=1e-8):
    """Maximum-likelihood source fraction from auxiliary data alone.

    Maximizes sum_j log[(1 - theta) f_B(z_j) + theta f_S(z_j)] over [0, 1].
    The objective is concave, so golden-section search finds the unique
    maximum; boundary solutions are detected from one-sided derivative signs.
    """
    if hasattr(z_values, "z"):
        e, phi = z_values.z
    else:
        e, phi = z_values
    fs = np.asarray(densities.pdf_source(e, phi), dtype=float)
    fb = np.asarray(densities.pdf_background(e, phi), dtype=float)
    if fs.size == 0:
        raise ValueError("no observations")
    if np.any((fs <= 0) & (fb <= 0)):
        raise ValueError("z outside support of both densities")
    if np.allclose(fs, fb, rtol=1e-12, atol=0):
        raise ValueError("theta not identifiable: f_S = f_B at every observation")

    diff = fs - fb

    def dll(theta):
        denom = (1.0 - theta) * fb + theta * fs
        with np.errstate(divide="ignore"):
            terms = diff / denom
        return np.sum(terms)

    if dll(0.0) <= 0:
        return 0.0
    if dll(1.0) >= 0:
        return 1.0

    def ll(theta):
        return np.sum(np.log((1.0 - theta) * fb + theta * fs))

    a, b = 0.0, 1.0
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ll(x1), ll(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ll(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ll(x1)
    return 0.5 * (a + b)


def _imhof_sf(q, lam):
    """Survival function of sum_r lam_r X_r, X_r iid chi-square(2), at q.

    Numerical inversion of the characteristic function (Imhof's integral)
    with tracked error bound, absolute error <= 1e-8.  The oscillatory
    integrand sin(theta(u)) / (u rho(u)) is integrated directly over a finite
    head and then, past the point where the phase is dominated by the linear
    -qu/2 term, as a pair of Fourier (QAWF) tail integrals.
    """
    scale = float(np.max(lam))
    lam = lam / scale
    q = q / scale

    def phase_arc(u):
        return float(np.sum(np.arctan(lam * u)))

    def envelope(u):
        return float(np.exp(-0.5 * np.sum(np.log1p((lam * u) ** 2)))) / u

    def integrand(u):
        if u < 1e-14:
            return float(np.sum(lam)) - 0.5 * q
        return math.sin(phase_arc(u) - 0.5 * q * u) * envelope(u)

    m = lam.size
    # |integrand| <= 1 / (prod lam_r u^{m+1}); tail beyond u_env is < 1e-10
    u_env = float((1.0 / (m * np.prod(lam) * 1e-10)) ** (1.0 / m))
    cut = min(80.0 * np.pi / q, u_env)
    val, err = integrate.quad(integrand, 0.0, cut, epsabs=1e-10, epsrel=1e-10,
                              limit=500)
    if cut < u_env:
        half_q = 0.5 * q
        t1, e1 = integrate.quad(
            lambda u: math.sin(phase_arc(u)) * envelope(u),
            cut, np.inf, weight="cos", wvar=half_q, epsabs=1e-11)
        t2, e2 = integrate.quad(
            lambda u: math.cos(phase_arc(u)) * envelope(u),
            cut, np.inf, weight="sin", wvar=half_q, epsabs=1e-11)
        val += t1 - t2
        err += e1 + e2
    else:
        err += 1e-10
    if err > 1e-8 * np.pi:
        raise RuntimeError("Imhof integration error %.3g exceeds 1e-8"
                           % (err / np.pi))
    return 0.5 + val / np.pi


def weighted_chi2_sf(q, lam):
    """P(sum_r lam_r X_r > q) for X_r iid chi-square(2), lam_r > 0.

    q may be a scalar or an array; the result has its shape.  Closed forms for
    a single coefficient and for all-equal coefficients; Imhof integration,
    one value at a time, otherwise.
    """
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0]
    if lam.size == 0:
        raise ValueError("all coefficients zero")
    q = np.asarray(q, dtype=float)
    if lam.size == 1:
        p = np.minimum(1.0, np.exp(-q / (2.0 * lam[0])))
    elif np.ptp(lam) <= 1e-12 * lam[0]:
        p = chi2.sf(q / lam[0], df=2 * lam.size)
    else:
        p = np.array([1.0 if x <= 0 else _imhof_sf(x, lam) for x in q.flat])
        p = np.clip(p, 0.0, 1.0).reshape(q.shape)
    return p if p.ndim else float(p)


def p_value(qt, sum_w2, template, T):
    """Tail probability of Q_T under the null, calibrated by sum_w2."""
    if T <= 0:
        raise ValueError("T must be positive")
    if sum_w2 <= 0:
        raise ValueError("sum of squared weights must be positive")
    if not np.any(template.amps_sq > 0):
        raise ValueError("all template weights zero")
    lam = template.amps_sq * sum_w2
    return weighted_chi2_sf(qt * T, lam)


def detect(events, weight_fn, model, template, theta=None, densities=None,
           T=None):
    """Full pipeline: weights -> A_n -> Q_T -> p-value.

    weight_fn: a function w(E, phi), an array of per-event weights, or None
    for the optimal posterior weight built from (theta_used, densities).
    theta: known source fraction, or None to take the MLE from the auxiliary
    data (requires densities).
    """
    if T is None or T <= 0:
        raise ValueError("T must be positive")
    if model.f * T < 100:
        warnings.warn(
            "f*T = %.3g < 100: the dropped deterministic score term may not "
            "be negligible" % (model.f * T),
            stacklevel=2,
        )
    if theta is not None:
        theta_used = float(theta)
    elif densities is not None:
        theta_used = estimate_theta(events, densities)
    else:
        theta_used = float("nan")
    if weight_fn is None:
        if densities is None or not np.isfinite(theta_used):
            raise ValueError("optimal weights need theta (or its MLE) and densities")
        weight_fn = optimal_weight_fn(theta_used, densities)

    w = weight_fn(*events.z) if callable(weight_fn) else weight_fn
    w = np.asarray(w, dtype=float)
    sum_w2 = _fsum(w * w)
    if sum_w2 <= 0:
        raise ValueError("no weighted events")

    an = fourier_coefficients(events, w, model, template.m)
    qt = qt_statistic(an, template, T)
    p = p_value(qt, sum_w2, template, T)
    return DetectionResult(
        an_sq=np.abs(an) ** 2,
        qt=qt,
        sum_w2=sum_w2,
        p_value=p,
        theta_used=theta_used,
        n_events=len(events),
    )
