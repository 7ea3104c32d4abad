"""Analytic detection-power predictions and simulation-backed mismatch scans.

The predicted signal-to-noise ratio of Q_T is

    snr = theta^2 T mu0 E(w) * sum_{n != 0} |g_n|^2 |alpha_n|^2
          / sqrt(2 sum_{n != 0} |alpha_n|^4)

with |g_n|^2 = eta^2 |gamma_n|^2 the effective source spectrum (eta folded
in) and E(w) the weight efficiency.  All n != 0 sums use the conjugate
factor of two.

The denominator is the null standard deviation of Q_T.  Because
|A_n|^2 = |A_{-n}|^2 exactly (conjugate pairs are perfectly correlated,
not independent), the null variance is

    Var_H(Q_T) = 2 [E(W^2) mu0]^2 sum_{n != 0} |alpha_n|^4,

i.e. the weighted-chi-square model with one chi-square(2) term per n >= 1
and coefficient |alpha_n|^2 E(W^2) mu0 T.  Monte Carlo confirms this
variance; treating the +-n pair as independent would halve it.

The mismatch functions index one Monte Carlo table of the |A_n|^2 excess,
each replicate simulated and put in (t, w) order once for every harmonic and
offset; mismatch_scan alone divides it into the retained factors.
"""

from dataclasses import dataclass

import numpy as np

from .detector import _canonical, fourier_coefficients
from .lightcurve import PhaseModel
from .simulator import expected_count, simulate

__all__ = [
    "PowerPrediction",
    "null_moments",
    "predicted_snr",
    "threshold_theta",
    "mismatch_factor",
    "fit_mismatch_kappa",
    "mismatch_scan",
]


@dataclass(frozen=True)
class PowerPrediction:
    snr: float
    efficiency_w: float
    template_match: float
    theta: float
    T: float
    mu0: float


def _match_ratio(template, source):
    """sum_{n != 0} |g_n|^2 |alpha_n|^2 / sqrt(2 sum_{n != 0} |alpha_n|^4)."""
    a = np.asarray(template.amps_sq, dtype=float)
    if not np.any(a > 0):
        raise ValueError("empty template")
    g = source.amps_sq() * source.eta**2
    k = min(a.size, g.size)
    num = 2.0 * np.dot(g[:k], a[:k])
    den = 2.0 * np.sqrt(np.sum(a * a))
    return num / den


def null_moments(template, T, expected_sum_w2):
    """Null mean and variance of Q_T for a given calibration scale.

    mean = (sum_w2 / T) sum_{n != 0} |alpha_n|^2 and the variance follows the
    per-harmonic chi-square(2) model (conjugate pairs fully correlated).
    """
    a = np.asarray(template.amps_sq, dtype=float)
    scale = expected_sum_w2 / T
    mean = scale * 2.0 * np.sum(a)
    var = scale**2 * 4.0 * np.sum(a * a)
    return float(mean), float(var)


def predicted_snr(theta, T, mu0, eff_w, template, source):
    """Predicted (E_K - E_H) / sigma_H of Q_T in the weak-signal regime."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    if T <= 0 or mu0 <= 0 or eff_w <= 0:
        raise ValueError("need T > 0, mu0 > 0, eff_w > 0")
    match = _match_ratio(template, source)
    snr = theta**2 * T * mu0 * eff_w * match
    return PowerPrediction(snr=float(snr), efficiency_w=float(eff_w),
                           template_match=float(match), theta=float(theta),
                           T=float(T), mu0=float(mu0))


def threshold_theta(T, mu0, eff_w, template, source, target_snr):
    """Source fraction needed to reach target_snr; scales as T^(-1/2)."""
    if target_snr < 0:
        raise ValueError("target_snr must be nonnegative")
    match = _match_ratio(template, source)
    if match <= 0:
        raise ValueError("orthogonal template")
    return float(np.sqrt(target_snr / (T * mu0 * eff_w * match)))


def _check_offsets(mode, deltas):
    if mode not in ("f-only", "f-and-fdot"):
        raise ValueError("unknown mode %r" % mode)
    if any(abs(d) >= 1.0 for d in deltas):
        raise ValueError("outside regime: need |Delta| < 1")


def _offset_phase(phase, delta, T, mode):
    fdot = phase.fdot + (delta / T**2 if mode == "f-and-fdot" else 0.0)
    return PhaseModel(f=phase.f + delta / T, fdot=fdot, epoch=phase.epoch)


def _excess(model, densities, harmonics, deltas, mode, replicates, seed, tau):
    """Mean |A_n|^2 excess over the null level, and its Monte Carlo stderr,
    arrays of shape (len(harmonics), len(deltas)).

    Each replicate is simulated once, from the model's own (true) phase, for
    every harmonic and offset, and analyzed at the phase offset by each delta
    with unit weights, so the null E|A_n|^2 is the expected event count.
    Each entry sees the replicates that the seed gives that pair alone.
    """
    _check_offsets(mode, deltas)
    if min(harmonics, default=1) < 1:
        raise ValueError("harmonics must be >= 1")
    phases = [_offset_phase(model.phase, d, model.T, mode) for d in deltas]
    m = max(harmonics, default=1)
    # replicates last: each (n, Delta) reduces one contiguous row
    powers = np.empty((len(harmonics), len(deltas), replicates))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        ev = simulate(model, densities, tau=tau, seed=child)
        # checked and ordered once for every offset; an empty replicate has
        # no A_n power
        events = _canonical(ev, np.ones(len(ev)))
        for j, phase in enumerate(phases):
            an = fourier_coefficients(events, events.w, phase, m)
            # scalar ** 2 (libm pow) and numpy's array x * x can differ
            powers[:, j, i] = [np.abs(an[n - 1]) ** 2 for n in harmonics]
    se = np.std(powers, axis=-1, ddof=1) / np.sqrt(replicates)
    return np.mean(powers, axis=-1) - expected_count(model), se


def mismatch_factor(model, densities, n, delta, mode="f-only",
                    replicates=400, seed=0, tau=0.0):
    """Fractional signal power retained at frequency offset Delta / T:
    mismatch_scan's factor for (n, Delta), the mean |A_n|^2 excess of events
    simulated at the true phase and analyzed at f = f0 + Delta/T (and
    fdot = fdot0 + Delta/T^2 in f-and-fdot mode) over the Delta = 0 excess.
    Delta = 0 gives 1 without simulating; a zero Delta = 0 excess raises
    ZeroDivisionError, as in mismatch_scan.
    """
    _check_offsets(mode, [delta])
    if delta == 0.0:
        return 1.0
    [(_, _, factor, _)] = mismatch_scan(model, densities, [n], [delta], mode,
                                        replicates, seed, tau)
    return factor


def fit_mismatch_kappa(model, densities, n, mode="f-only", replicates=400,
                       seed=0, tau=0.0, deltas=(0.05, 0.1, 0.15, 0.2)):
    """Least-squares kappa in factor(Delta) = 1 - kappa (n Delta)^2, from
    mismatch_scan's factors."""
    rows = mismatch_scan(model, densities, [n], deltas, mode, replicates,
                         seed, tau)
    x = np.array([(n * d) ** 2 for d in deltas])
    y = 1.0 - np.array([factor for _, _, factor, _ in rows])
    kappa = float(np.dot(x, y) / np.dot(x, x))
    resid = y - kappa * x
    se = float(np.sqrt(np.sum(resid**2) / max(1, x.size - 1) / np.dot(x, x)))
    return kappa, se


def mismatch_scan(model, densities, harmonics, deltas, mode="f-only",
                  replicates=400, seed=0, tau=0.0):
    """Table of (n, Delta, factor, mc_stderr) rows over a grid of offsets."""
    excess, stderr = _excess(model, densities, harmonics, [0.0, *deltas], mode,
                             replicates, seed, tau)
    rows = []
    for n, (base, *exc), (base_se, *se) in zip(harmonics, excess.tolist(),
                                               stderr.tolist()):
        for d, e, s in zip(deltas, exc, se):
            if d == 0.0:
                rows.append((n, d, 1.0, 0.0))
                continue
            factor = e / base
            rel = np.hypot(s / e if e else np.inf, base_se / base)
            rows.append((n, d, factor, float(abs(factor) * rel)))
    return rows
