"""Weighted Fourier statistics, the Q_T detection statistic, and p-values.

The statistic Q_T = (1/T) sum_{n != 0} |alpha_n|^2 |A_n|^2 with
A_n = sum_j w_j exp(2 pi i n phi(t_j)).  One kernel, _an_sums, sums A_n for detect
(fourier_coefficients, one point) and scan (a grid) over fixed blocks of 2^16
events on every CPU the process may use, with its rounding bound and bits
that do not depend on how many.  A_n and sum_j w_j^2, a pairwise sum, take
the events in one canonical (t, w) order (_weighted_events), so no
permutation of the events changes a bit of either.  Under the null (no
periodic component) 2 |A_n|^2 / sum_j w_j^2 is approximately chi-square(2)
and the A_n are approximately independent, so Q_T T is a weighted sum of
independent chi-square(2) variables with coefficients |alpha_n|^2 sum_w2;
p-values are its exact survival function (`weighted_chi2_sf`): the
hypoexponential closed form in log space, with the phase-type matrix
exponential where ties or cancellation defeat it.  They are accurate to 1e-10
relative down to P_FLOOR (~2.2e-308), below which they are 0.0.
"""

import math
import os
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .auxmodel import _check_support, _posterior, _weight_theta
from .lightcurve import _harmonic_sums, _unit_phasors, eval_profile, phase_of

__all__ = [
    "DetectionResult",
    "fourier_coefficients",
    "qt_statistic",
    "score_at_tau",
    "estimate_theta",
    "weighted_chi2_sf",
    "p_value",
    "event_weights",
    "detect",
]

@dataclass(frozen=True)
class DetectionResult:
    qt: float
    an_sq: np.ndarray  # |A_n|^2, n = 1..m
    sum_w2: float
    p_value: float
    theta_used: float | None  # None where the weights use no theta
    n_events: int


# Events per block of the A_n sum: block edges depend on N alone.
_AN_BLOCK = 1 << 16


class _Canonical(NamedTuple):
    """Event times and checked weights in _canonical's (t, w) order.
    fourier_coefficients takes one as its events, with its w as the
    weights, without checking or ordering them again."""
    t: np.ndarray
    w: np.ndarray


def _canonical(events, weights):
    """Event times (an EventList or bare times) and their checked weights,
    sorted by time, ties by weight: the order in which A_n and sum w^2 are
    summed, so that no permutation of the events changes a bit of either.
    The weights must be one per event, finite and nonnegative, else
    ValueError.  Input already in that order is returned as it is; input in
    time order keeps its times, with a copy of w whose tied runs alone are
    reordered (equal times do not show which of them moved)."""
    times = np.asarray(getattr(events, "t", events), dtype=float)
    times, w = np.atleast_1d(times, np.asarray(weights, dtype=float))
    if w.shape != times.shape:
        raise ValueError("events and weights have different lengths")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    if not np.all(times[1:] >= times[:-1]):  # false on a nan
        tw = np.empty(times.shape, dtype=complex)
        tw.real, tw.imag = times, w
        tw.sort(kind="stable")  # numpy orders complex numbers by (real, imag)
        return _Canonical(tw.real, tw.imag)
    tie = np.flatnonzero(times[1:] == times[:-1])
    if np.all(w[tie + 1] >= w[tie]):
        return _Canonical(times, w)
    # equal times are adjacent: order the events of tied runs by (t, w),
    # stably, as the full sort would, and leave the rest
    runs = np.union1d(tie, tie + 1)
    w = w.copy()
    w[runs] = w[runs[np.lexsort((w[runs], times[runs]))]]
    return _Canonical(times, w)


def _sum_w2(w):
    """sum_j w_j^2 by numpy's pairwise sum of the rounded squares, within
    (2 log2 N + 20) u sum_j w_j^2 of exact (u = 2^-53; Higham, Accuracy and
    Stability of Numerical Algorithms, section 4.2).  Its bits depend on the
    order of w: pass it in _canonical's."""
    return float(np.sum(np.square(w)))


def _weighted_events(events, weights):
    """Checked (t, w)-ordered events and sum_j w_j^2 > 0, else ValueError."""
    ordered = _canonical(events, weights)
    sum_w2 = _sum_w2(ordered.w)
    if sum_w2 <= 0:
        raise ValueError("no weighted events")
    return ordered, sum_w2


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, n, rows=1):
    """[fn(row, block) for row in range(rows) for block in the fixed
    _AN_BLOCK slices of n events], in that order.

    The tasks run on min(tasks, _cpus()) threads, each taking the next task
    left, and overlap where numpy releases the GIL (array arithmetic, exp,
    sums); with one task or one CPU they run inline.  Each result depends
    only on its (row, block), so the list is bit-identical for any worker
    count.  The calling thread is one of the workers, so one malloc arena
    fewer keeps block temporaries, and the pool is joined within the call:
    no thread outlives it (calibrate forks worker processes).
    """
    tasks = [(row, slice(start, start + _AN_BLOCK)) for row in range(rows)
             for start in range(0, n, _AN_BLOCK)]
    workers = min(len(tasks), _cpus())
    if workers <= 1:
        return [fn(row, block) for row, block in tasks]
    results = [None] * len(tasks)
    todo = queue.SimpleQueue()
    for i in range(len(tasks)):
        todo.put(i)

    def work():
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            results[i] = fn(*tasks[i])

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


# phase_of's model of one _an_sums row: not a PhaseModel, whose f > 0 check
# would reject a scan grid from f <= 0
_Row = NamedTuple("_Row", [("f", float), ("fdot", float), ("epoch", float)])


def _an_sums(times, w, m, f0, fdots, epoch, step=0.0, k=1):
    """A_n, n = 1..m, at f0 + i step, i < k, for each fdot, shape
    (len(fdots), k, m), of events in _canonical's order.

    One _map_blocks task per (fdot, block of B = 2^16 events) takes a unit
    phasor z_j per event at phase_of (f0, fdot, epoch) and, for k > 1,
    rotates it by e^{2 pi i step (t_j - epoch)} from point to point; A_n is
    the recurrence z^n (lightcurve._harmonic_sums).  A row's block sums are
    added in block order, so no worker count changes a bit.  A block's sum
    is within (9 n + 2 log2 B + 20) u of its sum_j w_j (u = 2^-53), each
    rotation adds at most 16 u while step |t - epoch| <= 1, and adding the
    block sums (N / B + 1) u sum_j w_j: at a row's i-th point A_n is within
    ((9 + 16 i) n + 2 log2 min(N, B) + 21 + N / B) u sum_j w_j of exact at
    the rounded first phase plus i step (t - epoch)."""

    def block_sums(row, block):
        t, wb = times[block], w[block]
        z = _unit_phasors(phase_of(_Row(f0, fdots[row], epoch), t))
        if k == 1:
            return _harmonic_sums(wb, z, m)
        rot = _unit_phasors(step * (t - epoch))
        an = np.empty((k, m), dtype=complex)
        for i in range(k):
            an[i] = _harmonic_sums(wb, z, m)
            z *= rot
        return an

    an = np.zeros((len(fdots), k, m), dtype=complex)
    blocks = -(-times.size // _AN_BLOCK)
    for j, sums in enumerate(_map_blocks(block_sums, times.size, len(fdots))):
        an[j // blocks] += sums  # each row's blocks in block order
    return an


def fourier_coefficients(events, weights, model, m):
    """A_n = sum_j w_j e^{2 pi i n phi(t_j)}, n = 1..m, of events or times:
    _an_sums at one point, within its bound at i = 0, summed in (t, w)
    order so that no permutation of the events changes a bit."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # detect's events come checked and in (t, w) order
    if not (isinstance(events, _Canonical) and weights is events.w):
        events = _canonical(events, weights)
    return _an_sums(*events, m, model.f, (model.fdot,), model.epoch)[0, 0]


def qt_statistic(an, template, T):
    """(2/T) sum_{n=1..m} |alpha_n|^2 |A_n|^2 (factor 2 for the n < 0 twins),
    A_n along the last axis of an: a 2-D an gives one Q_T a row, each with
    the bits of that row's own Q_T (one dot product a row)."""
    if T <= 0:
        raise ValueError("T must be positive")
    an = np.asarray(an)
    if template.m > an.shape[-1]:
        raise ValueError("template has more harmonics than supplied A_n")
    qt = 2.0 / T * np.vecdot(np.abs(an[..., : template.m]) ** 2,
                             template.amps_sq)
    return qt if qt.ndim else float(qt)


def score_at_tau(events, weights, model, profile, tau):
    """Score statistic S(tau) = sum_j w_j (nu_tau(phi(t_j)) - 1).

    The deterministic integral term of the score is dropped; it is negligible
    when phi(T) >> 1 and the sensitivity varies slowly.
    """
    times, w = _canonical(events, weights)
    if times.size == 0:
        return 0.0
    nu = eval_profile(profile, phase_of(model, times) + tau)
    # exactly rounded; fsum reads the buffer through a memoryview: no list of
    # Python floats is built
    return math.fsum(memoryview(w * (np.atleast_1d(nu) - 1.0)))


def estimate_theta(z_values, densities):
    """Maximum-likelihood source fraction from auxiliary data alone.

    Maximizes sum_j log D_j over [0, 1], D_j = (1 - theta) f_B(z_j)
    + theta f_S(z_j) = f_B(z_j) + theta d_j with d = f_S - f_B.  The objective
    is concave, so its score sum_j d_j / D_j decreases in theta: the MLE is 0
    where the score at 0 is <= 0, 1 where the score at 1 is >= 0, and
    otherwise the score's root.  The root is found by Newton's method, with
    Hessian -sum_j (d_j / D_j)^2, inside a sign bracket.  Each pass over the
    observations (_score) sums the score and the Hessian by numpy's pairwise
    sum per fixed block, with no BLAS call, so the MLE's bits depend on no
    thread count.  It starts from the MLE of every 64th observation, found
    the same way to 1e-4, when there are at least 4096 observations and f_S
    and f_B differ on those; else from 1/2.  The score at 0 or 1 is
    evaluated only where an iterate would leave the bracket through that
    end, or the bracket closes against it.
    The bracket is bisected instead where a Newton step would leave it
    through an evaluated end, or where the Newton step before did not halve
    |score|; so, but for the first step after each bisection, every step
    halves the bracket or |score|.  A Newton step shorter than _TOL / 2
    (1e-8 / 2) is stretched to _TOL / 2, which closes the bracket once Newton
    has converged.  The result is the Newton estimate from the last point if
    it lies in the final bracket, whose ends are both evaluated and narrower
    than _TOL, or else the bracket's midpoint.
    """
    return _theta_mle(*_densities_at(z_values, densities))


def _densities_at(z_values, densities):
    """f_S and f_B at the observations, events or an (e, phi) pair, as 1-D
    arrays.

    The density callables are called on the fixed _AN_BLOCK-event slices of
    the observations, from worker threads where several CPUs are free
    (_map_blocks): they must be elementwise and thread-safe.
    """
    e, phi = z_values.z if hasattr(z_values, "z") else z_values
    e = np.asarray(e, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    fs, fb = np.empty(e.size), np.empty(e.size)

    def block(_, b):
        fs[b] = densities.pdf_source(e[b], phi[b])
        fb[b] = densities.pdf_background(e[b], phi[b])

    _map_blocks(block, e.size)
    return fs, fb


def _identifiable(diff, fb):
    """Whether f_S = f_B + diff differs from f_B by more than 1e-12 relative
    at some observation (np.allclose's test), block by block: most data
    answer in the first block."""
    for start in range(0, diff.size, _AN_BLOCK):
        b = slice(start, start + _AN_BLOCK)
        if not np.all(np.abs(diff[b]) <= 1e-12 * np.abs(fb[b])):
            return True
    return False


def _score(diff, fb, theta):
    """The score sum_j d_j / D_j at theta and its Newton step, score /
    sum_j (d_j / D_j)^2: one pass over the observations on the fixed
    _AN_BLOCK-event blocks of _map_blocks.  Each block's two sums are
    numpy's pairwise sums, added in block order, so no BLAS call is made
    and the bits do not depend on any thread count."""

    def block_sums(_, b):
        d = diff[b]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = d * theta
            r += fb[b]  # D
            np.divide(d, r, out=r)
            s = np.sum(r)
            r *= r
            return s, np.sum(r)

    s = h = 0.0
    for block_s, block_h in _map_blocks(block_sums, diff.size):
        s += block_s
        h += block_h
    with np.errstate(divide="ignore", invalid="ignore"):
        return s, s / h


# The theta MLE is found to _TOL, from the MLE of every _SUBSAMPLE-th
# observation, found to _START_TOL, where there are at least _SUBSAMPLE_MIN
# observations.
_SUBSAMPLE = 64
_SUBSAMPLE_MIN = 4096
_TOL = 1e-8
_START_TOL = 1e-4


def _theta_mle(fs, fb):
    """estimate_theta from f_S and f_B at the observations."""
    if fs.size == 0:
        raise ValueError("no observations")
    _check_support(fs, fb)
    diff = fs - fb
    if not _identifiable(diff, fb):
        raise ValueError("theta not identifiable: f_S = f_B at every observation")
    start = 0.5
    if diff.size >= _SUBSAMPLE_MIN:
        sub_diff = np.ascontiguousarray(diff[::_SUBSAMPLE])
        sub_fb = np.ascontiguousarray(fb[::_SUBSAMPLE])
        if _identifiable(sub_diff, sub_fb):
            start = _newton(sub_diff, sub_fb, start, _START_TOL)
    return _newton(diff, fb, start, _TOL)


def _newton(diff, fb, theta, tol):
    """The score's root in [0, 1] from theta, or the end where the score
    does not change sign (estimate_theta)."""
    lo, hi = 0.0, 1.0  # score(lo) > 0 > score(hi) where evaluated
    lo_seen = hi_seen = False
    bound = np.inf
    while True:
        s, newton = _score(diff, fb, theta)
        if s > 0:
            if theta == 1.0:
                return 1.0
            lo, lo_seen = theta, True
        elif s < 0:
            if theta == 0.0:
                return 0.0
            hi, hi_seen = theta, True
        else:
            return float(theta)
        step = theta + newton
        if hi - lo < tol:
            if lo_seen and hi_seen:
                return float(step if lo <= step <= hi else 0.5 * (lo + hi))
            # an end the bracket closed against: evaluate it
            theta, bound = (hi if lo_seen else lo), np.inf
        # theta is lo or hi; the tests fail on a nan or infinite step too
        elif lo < step < hi and abs(s) <= bound:
            bound = 0.5 * abs(s)
            # a step shorter than tol / 2 is stretched to tol / 2, past the
            # root if Newton is right, so that the bracket closes
            theta += math.copysign(max(abs(newton), 0.5 * tol), newton)
        elif step <= lo and not lo_seen:
            theta, bound = lo, np.inf
        elif step >= hi and not hi_seen:
            theta, bound = hi, np.inf
        else:
            theta, bound = 0.5 * (lo + hi), np.inf


_EPS = np.finfo(float).eps
# Smallest normal double: a tail probability below it is reported as 0.0.
P_FLOOR = np.finfo(float).tiny
# Closed-form points whose rounding bound exceeds this go to the exact form.
_CLOSED_FORM_RTOL = 1e-12
# Points per block, which bounds the (points, k, k) arrays of the exact form.
_BLOCK = 4096


def _closed_form_sf(q, lam):
    """Hypoexponential closed form sum_r c_r e^{-q / 2 lam_r} at q > 0.

    c_r = prod_{s != r} lam_r / (lam_r - lam_s), summed in log space with a
    max shift.  Each term's exponent carries a rounding error of about eps
    times its parts, so eps sum_r |t_r| (k + sum_s |log ratio_rs| + q r_r) /
    sum_r t_r bounds the relative error; points where that bound exceeds
    _CLOSED_FORM_RTOL (cancellation, near ties) or the sum is not positive
    (exact ties) come back as nan.
    """
    gap = lam[:, None] - lam[None, :]
    np.fill_diagonal(gap, lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(lam[:, None] / np.abs(gap))
        sign = np.where(np.sum(gap < 0, axis=1) % 2, -1.0, 1.0)
        qr = np.multiply.outer(q, 0.5 / lam)
        a = log_ratio.sum(axis=1) - qr
        a_max = a.max(axis=1)
        t = np.exp(a - a_max[:, None])
        s = (t * sign).sum(axis=1)
        parts = lam.size + np.abs(log_ratio).sum(axis=1) + qr
        rounding = _EPS * (t * parts).sum(axis=1)
        ok = (s > 0) & (rounding <= _CLOSED_FORM_RTOL * s)
        return np.where(ok, np.exp(a_max + np.log(s)), np.nan)


def _phase_type_sf(q, lam):
    """Phase-type form e^{-r_min q} e_1 expm((S + r_min I) q) 1 at q > 0.

    S is the upper-bidiagonal generator of the exponential phases, rates
    r = 1 / (2 lam) in ascending order, so ties need no special case.  The
    matrix exponential is a uniformized Taylor series at q / 2^s, a sum of
    nonnegative terms, with its diagonal set to the exact e^{-(r - r_min) h},
    then squared s times.  Nothing cancels: the relative error is a few eps
    per step.
    """
    r = np.sort(0.5 / lam)
    k = r.size
    lo, hi = r[0], r[-1]
    gen = np.diag(hi - r) + np.diag(r[:-1], 1)  # S + hi I, nonnegative
    squarings = np.maximum(0, np.ceil(np.log2(q * hi)) + 1).astype(int)
    h = np.ldexp(q, -squarings)  # hi h <= 1/2
    step = gen * h[:, None, None]
    term = np.broadcast_to(np.eye(k), step.shape).copy()
    e = term.copy()
    # ||step|| <= hi h <= 1/2, and each entry of the row sum needs at most
    # k - 1 superdiagonal steps, so k + 20 terms leave a remainder below
    # 2^-20 / 20! of every entry
    for j in range(1, k + 21):
        term = term @ step / j
        e += term
    e *= np.exp(-(hi - lo) * h)[:, None, None]
    diag = np.arange(k)
    e[:, diag, diag] = np.exp(-np.multiply.outer(h, r - lo))
    for n in range(squarings.max(initial=0)):
        more = squarings > n
        e[more] = e[more] @ e[more]
    with np.errstate(divide="ignore"):
        return np.exp(np.log(e[:, 0, :].sum(axis=1)) - lo * q)


def _erlang_sf(y, k):
    """Erlang survival e^{-y} sum_{i<k} y^i / i! at y > 0, in log space.

    The terms are positive and their exponents i log y - log i! - y carry a
    rounding error of a few eps y: about 1e-12 relative down to P_FLOOR,
    where y < 750.
    """
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, k)))])
    a = np.multiply.outer(np.log(y), np.arange(k)) - log_fact
    a_max = a.max(axis=1)
    s = np.exp(a - a_max[:, None]).sum(axis=1)
    return np.exp(a_max + np.log(s) - y)


def weighted_chi2_sf(q, lam):
    """P(sum_r lam_r X_r > q) for X_r iid chi-square(2), lam_r > 0.

    q may be a scalar or an array; the result has its shape.  lam_r X_r is
    exponential with rate 1 / (2 lam_r), so the sum is hypoexponential.  All
    coefficients equal: the Erlang (chi-square(2k)) survival in log space.
    Otherwise the closed form in log space, and the exact phase-type form
    wherever the closed form's rounding bound is too large (ties, near ties,
    cancellation in the body).
    The relative error is below 1e-10 down to P_FLOOR, the smallest normal
    double; a tail below it is reported as 0.0.  q = +inf gives 0.0 and a nan
    q raises ValueError.
    """
    lam = np.asarray(lam, dtype=float)
    lam = lam[lam > 0]
    if lam.size == 0:
        raise ValueError("all coefficients zero")
    q = np.asarray(q, dtype=float)
    if np.isnan(q).any():
        raise ValueError("statistic is nan")
    p = np.where(q > 0, 0.0, 1.0)
    flat = p.reshape(-1)
    inner = np.flatnonzero((q > 0) & (q < np.inf))
    equal = np.all(lam == lam[0])
    for start in range(0, inner.size, _BLOCK):
        i = inner[start:start + _BLOCK]
        x = q.flat[i]
        if equal:
            flat[i] = _erlang_sf(x / (2.0 * lam[0]), lam.size)
        else:
            pi = _closed_form_sf(x, lam)
            bad = np.isnan(pi)
            if bad.any():
                pi[bad] = _phase_type_sf(x[bad], lam)
            flat[i] = pi
    p = np.minimum(p, 1.0)
    p = np.where(p < P_FLOOR, 0.0, p)
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


def event_weights(events, weight_fn, theta=None, densities=None):
    """Per-event weights and the source fraction they use, (w, theta_used).

    weight_fn: a function w(E, phi), an array of per-event weights, or None
    for the optimal posterior weight at theta_used, from one evaluation of
    both densities at the events that also gives the MLE.
    theta: known source fraction, or None: the optimal weight then takes
    the MLE from the auxiliary data (requires densities), and a given
    weight_fn reports theta_used None (densities go unused).
    """
    if weight_fn is not None:
        w = weight_fn(*events.z) if callable(weight_fn) else weight_fn
        return w, None if theta is None else float(theta)
    if densities is None:
        raise ValueError("optimal weights need theta (or its MLE) and densities")
    fs, fb = _densities_at(events, densities)
    if theta is None:
        theta_used = _theta_mle(fs, fb)  # checks the support
    else:
        _check_support(fs, fb)
        theta_used = float(theta)
    w = np.empty_like(fs)
    w_theta = _weight_theta(theta_used)

    def weights(_, b):
        w[b] = _posterior(w_theta, fs[b], fb[b])

    _map_blocks(weights, w.size)
    return w, theta_used


def detect(events, weight_fn, model, template, theta=None, densities=None,
           T=None):
    """Full pipeline: weights (event_weights) -> A_n -> Q_T -> p-value."""
    if T is None or T <= 0:
        raise ValueError("T must be positive")
    if model.f * T < 100:
        warnings.warn(
            "f*T = %.3g < 100: the dropped deterministic score term may not "
            "be negligible" % (model.f * T),
            stacklevel=2,
        )
    w, theta_used = event_weights(events, weight_fn, theta, densities)

    # checked and sorted once: fourier_coefficients takes them as they are
    ordered, sum_w2 = _weighted_events(events, w)
    an = fourier_coefficients(ordered, ordered.w, model, template.m)
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
