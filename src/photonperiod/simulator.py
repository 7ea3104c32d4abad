"""Synthetic photon streams from the superposed background + source model.

The arrival process is an inhomogeneous Poisson process with rate
lambda(t) = mu c(t) [(1 - theta) + theta nu_tau(phi(t))], sampled exactly by
thinning a dominating homogeneous process.  Auxiliary variables are drawn
from the source or background density according to the event's (latent)
origin, independently of the arrival time.

Randomness uses numpy's PCG64 generator; the four sampling stages (arrival,
accept, label, z) run on sub-streams spawned from one SeedSequence, so
altering one stage leaves the others untouched.
"""

from dataclasses import dataclass

import numpy as np

from .auxmodel import _integral, _posterior
from .lightcurve import LightCurveProfile, eval_profile, phase_of

__all__ = [
    "RateModel",
    "EventList",
    "sensitivity_constant",
    "sensitivity_ramp",
    "sensitivity_window",
    "simulate",
    "expected_count",
]

_NU_GRID = 4096
# Rounding lets a rate read up to (8 m + 16) u above rate_bound, m harmonics
# (eval_profile, u = 2^-53): simulate allows this much for m < 10^6.
_RATE_RTOL = 1e-9


def sensitivity_constant(level=1.0):
    def c(t):
        return np.full_like(np.asarray(t, dtype=float), level)
    return c


def sensitivity_ramp(c0, c1, T):
    """Linear ramp from c0 at t = 0 to c1 at t = T."""
    def c(t):
        t = np.asarray(t, dtype=float)
        return c0 + (c1 - c0) * t / T
    return c


def sensitivity_window(t_on, t_off, level=1.0):
    """level on [t_on, t_off), 0 elsewhere; c.edges = (t_on, t_off)."""
    def c(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= t_on) & (t < t_off), level, 0.0)
    c.edges = (t_on, t_off)
    return c


@dataclass(frozen=True)
class RateModel:
    """Rate lambda(t) = mu c(t) [(1 - theta) + theta nu_tau(phi(t))] on [0, T]."""

    mu: float
    theta: float
    profile: LightCurveProfile
    phase: object
    T: float
    sensitivity: object = None  # callable c(t) on [0, T]; None means c = 1

    def __post_init__(self):
        if self.mu <= 0 or self.T <= 0:
            raise ValueError("need mu > 0 and T > 0")
        if not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1]")

    def c(self, t):
        if self.sensitivity is None:
            return np.ones_like(np.asarray(t, dtype=float))
        return np.asarray(self.sensitivity(t), dtype=float)

    @property
    def mu0(self):
        """mu times the time-averaged sensitivity."""
        return expected_count(self) / self.T

    def nu(self, t, tau=0.0):
        return eval_profile(self.profile, phase_of(self.phase, t) + tau)

    def rate(self, t, tau=0.0):
        return self.mu * self.c(t) * ((1.0 - self.theta) + self.theta * self.nu(t, tau))

    def rate_bound(self):
        """An upper bound on lambda(t) over [0, T], for thinning.

        The profile maximum uses the triangle inequality
        nu <= 1 + 2 eta sum|gamma_n| (a true bound).  The sensitivity
        maximum is c's on a 4096-point grid plus its edges (as in
        expected_count), which need not bound c: simulate raises where a
        rate exceeds the bound.
        """
        nu_max = 1.0 + 2.0 * self.profile.eta * float(
            np.sum(np.abs(self.profile.coeffs)))
        if self.sensitivity is None:
            c_max = 1.0
        else:
            grid = np.append(np.linspace(0.0, self.T, _NU_GRID), np.clip(
                getattr(self.sensitivity, "edges", ()), 0.0, self.T))
            c_max = float(np.max(self.c(grid)))
        bound = self.mu * c_max * ((1.0 - self.theta) + self.theta * nu_max)
        if not np.isfinite(bound) or bound <= 0:
            raise ValueError("non-finite or degenerate rate bound")
        return bound


@dataclass(frozen=True)
class EventList:
    """Photon events sorted by arrival time, with simulation truth tags.

    The is_source flags record the latent origin of each simulated event and
    are never consulted by detection code.
    """

    t: np.ndarray
    energy: np.ndarray
    angle: np.ndarray
    is_source: np.ndarray = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "energy", np.asarray(self.energy, dtype=float))
        object.__setattr__(self, "angle", np.asarray(self.angle, dtype=float))
        if self.is_source is not None:
            object.__setattr__(self, "is_source",
                               np.asarray(self.is_source, dtype=bool))

    def __len__(self):
        return self.t.size

    @property
    def z(self):
        return (self.energy, self.angle)


def simulate(model, densities, tau=0.0, seed=0):
    """Draw one event stream.  Deterministic given (model, densities, tau, seed)."""
    lam_max = model.rate_bound()
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    # the children a first seed.spawn(4) gives, without advancing seed's
    # count of spawned children: a second call with seed draws the same
    rng_arrival, rng_accept, rng_label, rng_z = (
        np.random.default_rng(np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (i,),
            pool_size=seed.pool_size))
        for i in range(4))

    n_cand = rng_arrival.poisson(lam_max * model.T)
    t_cand = np.sort(rng_arrival.uniform(0.0, model.T, size=n_cand))

    nu = model.nu(t_cand, tau)
    lam = model.mu * model.c(t_cand) * ((1.0 - model.theta) + model.theta * nu)
    if np.any(~np.isfinite(lam)):
        raise ValueError("non-finite rate encountered")
    if np.any(lam > lam_max * (1.0 + _RATE_RTOL)):  # thinning would clip it
        raise ValueError("rate above the bound of rate_bound")
    keep = rng_accept.uniform(size=n_cand) * lam_max < lam
    t = t_cand[keep]
    nu = np.atleast_1d(nu)[keep]

    # the posterior source probability, nu and 1 in place of f_S and f_B
    is_source = rng_label.uniform(size=t.size) < _posterior(model.theta, nu, 1.0)

    energy = np.empty(t.size)
    angle = np.empty(t.size)
    n_src = int(np.count_nonzero(is_source))
    if n_src:
        e_s, a_s = densities.sample_source(rng_z, n_src)
        energy[is_source], angle[is_source] = e_s, a_s
    if t.size - n_src:
        e_b, a_b = densities.sample_background(rng_z, t.size - n_src)
        energy[~is_source], angle[~is_source] = e_b, a_b

    return EventList(t=t, energy=energy, angle=angle, is_source=is_source)


def expected_count(model):
    """mu * integral of c(t) over [0, T]; exact when c is constant.

    A sensitivity's edges attribute, as sensitivity_window sets it, lists its
    jumps: the quadrature splits there, so no jump hides between its nodes.
    """
    if model.sensitivity is None:
        return model.mu * model.T
    edges = getattr(model.sensitivity, "edges", ())
    return model.mu * float(_integral(model.c, 0.0, model.T, points=edges))
