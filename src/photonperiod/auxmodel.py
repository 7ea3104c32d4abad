"""Auxiliary-variable densities, event weight functions, and their efficiencies.

Per-photon auxiliary data z = (E, phi) (energy, incidence angle) carries
information about source vs background origin.  Densities factorize as an
energy marginal times an angle conditional; weight functions map z to a
weight, the principled choice being the posterior source probability.
Weight moments and efficiencies are nested adaptive Gauss-Kronrod integrals
over energy and angle, to 1e-9 relative: each pass of the energy integral
splits all its unresolved intervals at once and takes one angle integral
over all of its new energy nodes.  An interval is split around its largest
step between neighbouring nodes, at the midpoints of the node gaps on either
side of it (never at a node next to it, where a cut edge could hide in the
child's end gap), so a cut edge is found in a few passes, not one bisection
per bit.  Both integrals start from breakpoints: the ends of the densities'
supports and the weight's jumps, so a cut converges in the passes a smooth
weight takes (QUADPACK's dqagp).  Where no jump can lie inside a piece
(closed-form densities, every jump a breakpoint) a one-piece integral starts as
three pieces, wasting no first pass (_integral's start rule).  A cut weight
carries its edges (WeightFunction.jumps), and a weight built from closed-form
parts declares it has none.  A weight of unknown shape is probed for them
first: the probe reads the weight on a coarse (E, phi) grid whose end probes
lie 1e-9 of the width inside the ends, and narrows each bracket where a value
jumps to within floating-point resolution (_breakpoints).  The jumps it finds
at one place on two probe lines are breakpoints, so an edge in an end gap,
which no node of the first pass sees, is found unless it lies within the
probe's end offset.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlatSpectrum",
    "PowerLawSpectrum",
    "CustomSpectrum",
    "GaussianPsfAngle",
    "UniformDiscAngle",
    "CustomAngle",
    "AuxDensityPair",
    "DiskGeometry",
    "WeightFunction",
    "WeightMoments",
    "unit_weight",
    "constant_weight",
    "optimal_weight_fn",
    "optimal_no_spectrum_fn",
    "psf_gaussian_weight_fn",
    "cut_weight_fn",
    "optimal_weight",
    "psf_gaussian_weight",
    "weight_moments",
    "weight_efficiency",
    "optimal_efficiency",
    "correlation_efficiency",
]

# Tolerances of the adaptive Gauss-Kronrod integrals: relative, and absolute
# for integrals that vanish.
_RTOL = 1e-9
_ATOL = 1e-13
# Most intervals one integral may hold; past it the integral has not converged.
_MAX_INTERVALS = 10_000
# Equal pieces a one-piece integral starts from under _integral's start rule.
# One Kronrod piece over a whole support seldom meets _RTOL, and a discarded
# outer pass costs a whole inner integral: on the power benchmark (2 vCPUs),
# 3 pieces cut the PSF and optimal weights' calls from 4 to 1 and op_s 45 %.
_START_PIECES = 3

# The 21-point Kronrod rule on [-1, 1] (QUADPACK dqk21): nodes, weights, and
# the weights of the 10-point Gauss rule it embeds at the odd-indexed nodes.
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_NODES = np.concatenate([-_GK_NODES, _GK_NODES[-2::-1]])
_K_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G_WEIGHTS = np.zeros(11)
_G_WEIGHTS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
# (21, 2): Kronrod and Gauss weights, one column each
_GK_WEIGHTS = np.stack([np.concatenate([w, w[-2::-1]])
                        for w in (_K_WEIGHTS, _G_WEIGHTS)], axis=1)


def _cut_table():
    """Where _integral splits an interval, in its own coordinates on [-1, 1],
    by the index j of the interval's largest step, between nodes j and j + 1.

    The cuts are the midpoints of the node gaps before node j and after node
    j + 1 (the gaps to -1 and 1 count), and 0 unless 0 lies between them, as
    a node next to the step.  Row j of the first table holds the three cuts
    in order, one repeated where 0 is not cut; row j of the second marks the
    pieces between -1, the cuts and 1 that are not empty.
    """
    edges = np.concatenate([[-1.0], _GK_NODES, [1.0]])
    gap_mid = 0.5 * (edges[:-1] + edges[1:])
    before, after = gap_mid[:-2], gap_mid[2:]
    middle = np.where((before < 0) & (0 < after), before, 0.0)
    cuts = np.sort(np.stack([before, after, middle], axis=1), axis=1)
    return cuts, np.diff(cuts, axis=1, prepend=-1.0, append=1.0) > 0


_CUTS, _CHILDREN = _cut_table()


class QuadratureError(RuntimeError):
    pass


def _gauss_kronrod(fn, lo, hi, tol=None):
    """Kronrod estimates and |Kronrod - Gauss| errors, (intervals, components),
    of fn on the intervals [lo, hi], from one call of fn at all their nodes,
    and the index of each interval's largest step between neighbouring nodes,
    a step measured per component relative to tol (by default, the tolerance
    of the summed estimates)."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    vals = np.asarray(fn(x.ravel()), dtype=float)
    shape = vals.shape[1:]
    vals = vals.reshape(lo.size, _GK_NODES.size, -1)
    kg = vals.transpose(0, 2, 1) @ _GK_WEIGHTS * half[:, None, None]
    est = kg[..., 0]
    if tol is None:
        tol = _ATOL + _RTOL * np.abs(est.sum(axis=0))
    step = np.abs(np.diff(vals, axis=1))
    step /= tol
    largest = np.argmax(step.max(axis=2), axis=1)
    return est, np.abs(est - kg[..., 1]), largest, shape


def _unconverged(total, total_err):
    return QuadratureError(
        "quadrature did not converge: achieved abs error %.3g on value %.3g"
        % (np.max(total_err), np.max(np.abs(total))))


def _integral(fn, a, b, points=(), split_start=False):
    """Integral over [a, b] of fn(x), an array per node of the 1-D array x.

    Adaptive 21-point Gauss-Kronrod by levels, from the pieces of [a, b]
    between the breakpoints points (QUADPACK's dqagp): those strictly inside
    (a, b) are used, once each, and the rest ignored.  The start rule,
    split_start, starts a one-piece [a, b] as _START_PIECES equal pieces, off
    by default: each piece's end gaps hide a jump from every node, so it is
    for integrands whose jumps are all breakpoints.  Each pass splits every
    interval whose error, in any component, exceeds that interval's width
    share of the tolerance _ATOL + _RTOL |estimate|, and evaluates fn once at
    all the new nodes.  An interval is cut around its largest step between
    neighbouring nodes (_gauss_kronrod), at the midpoints of the node gaps on
    either side of that step (_cut_table), and at its midpoint unless that
    node lies next to the step; no child is more than half the interval.  A
    jump in the step ends in a child of two or three node gaps, which
    shrinks by 5-10x a pass instead of 2x, and lies at least half a node gap
    from both of that child's ends.  A cut at a node next to the step could
    leave the jump just past the child's end node, inside the child's small
    end gap, where none of its nodes sees it and Kronrod and Gauss agree on
    the wrong value.  The rule reads only the node values.  It stops when
    every component's summed error is within the tolerance, and raises
    QuadratureError where the error is not finite, an interval can no longer
    be split in floating point or the intervals would pass _MAX_INTERVALS.
    """
    points = np.sort(np.asarray(points, dtype=float))
    inside = points[(a < points) & (points < b)]
    # each once, without np.unique, whose first call imports numpy.ma
    edges = np.concatenate([[a], inside[np.diff(inside, prepend=a) > 0], [b]])
    if split_start and edges.size == 2:
        edges = np.linspace(a, b, _START_PIECES + 1)
    lo, hi = edges[:-1], edges[1:]
    est, err, step, shape = _gauss_kronrod(fn, lo, hi)
    while True:
        total, total_err = est.sum(axis=0), err.sum(axis=0)
        if not np.isfinite(total_err).all():
            raise _unconverged(total, total_err)
        tol = _ATOL + _RTOL * np.abs(total)
        if np.all(total_err <= tol):
            return total.reshape(shape)
        ratio = err / tol
        split = np.any(ratio > ((hi - lo) / (b - a))[:, None], axis=1)
        if not split.any():  # the shares' rounding: split the worst interval
            split = np.arange(lo.size) == np.argmax(np.max(ratio, axis=1))
        half = 0.5 * (hi[split] - lo[split])
        mid = 0.5 * (lo[split] + hi[split])
        ends = np.column_stack([lo[split], mid[:, None] + half[:, None] *
                                _CUTS[step[split]], hi[split]])
        children = _CHILDREN[step[split]]
        new_lo, new_hi = ends[:, :-1][children], ends[:, 1:][children]
        if (lo.size - mid.size + new_lo.size > _MAX_INTERVALS
                or not np.all(new_lo < new_hi)):
            raise _unconverged(total, total_err)
        new_est, new_err, new_step, _ = _gauss_kronrod(fn, new_lo, new_hi, tol)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        est = np.concatenate([est[keep], new_est])
        err = np.concatenate([err[keep], new_err])
        step = np.concatenate([step[keep], new_step])


# ---------------------------------------------------------------------------
# Energy marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatSpectrum:
    e_min: float
    e_max: float

    def __post_init__(self):
        if not self.e_min < self.e_max:
            raise ValueError("need e_min < e_max")

    @property
    def support(self):
        return (self.e_min, self.e_max)

    def pdf(self, e):
        e = np.asarray(e, dtype=float)
        inside = (e >= self.e_min) & (e <= self.e_max)
        return np.where(inside, 1.0 / (self.e_max - self.e_min), 0.0)

    def sample(self, rng, n):
        return rng.uniform(self.e_min, self.e_max, size=n)


@dataclass(frozen=True)
class PowerLawSpectrum:
    """pdf(E) proportional to E^-index on [e_min, e_max]."""

    index: float
    e_min: float
    e_max: float

    def __post_init__(self):
        if not 0 < self.e_min < self.e_max:
            raise ValueError("need 0 < e_min < e_max")

    @property
    def support(self):
        return (self.e_min, self.e_max)

    def _norm(self):
        """The integral of E^-index over the support, accurate at every
        index: e_max^g - e_min^g would lose the digits that expm1 keeps
        near index 1."""
        g = 1.0 - self.index
        log_ratio = np.log(self.e_max / self.e_min)
        if g == 0:
            return log_ratio
        return self.e_min**g * np.expm1(g * log_ratio) / g

    def pdf(self, e):
        e = np.asarray(e, dtype=float)
        inside = (e >= self.e_min) & (e <= self.e_max)
        vals = np.where(inside, e, self.e_min) ** (-self.index) / self._norm()
        return np.where(inside, vals, 0.0)

    def sample(self, rng, n):
        """Inverse-CDF draws by log1p and expm1, as _norm: e_max^g - e_min^g
        would round them to fewer values near index 1."""
        u = rng.uniform(size=n)
        g = 1.0 - self.index
        if g == 0:
            return self.e_min * (self.e_max / self.e_min) ** u
        log_ratio = np.log(self.e_max / self.e_min)
        return self.e_min * np.exp(np.log1p(u * np.expm1(g * log_ratio)) / g)


@dataclass(frozen=True)
class CustomSpectrum:
    pdf_fn: callable
    sampler: callable
    e_min: float
    e_max: float

    @property
    def support(self):
        return (self.e_min, self.e_max)

    def pdf(self, e):
        return np.asarray(self.pdf_fn(np.asarray(e, dtype=float)))

    def sample(self, rng, n):
        return self.sampler(rng, n)


# ---------------------------------------------------------------------------
# Angle conditionals
# ---------------------------------------------------------------------------


def _sigma_at(sigma, e):
    """PSF width at energy e, for a constant or callable sigma(E)."""
    s = np.asarray(sigma(e) if callable(sigma) else sigma, dtype=float)
    if np.any(s <= 0):
        raise ValueError("sigma(E) must be positive")
    return s


@dataclass(frozen=True)
class GaussianPsfAngle:
    """Radial density of a bivariate circular Gaussian PSF, truncated at r_max.

    sigma may be a constant or a callable sigma(E).  The density is
    renormalized over [0, r_max]; for sigma <= r_max / 5 the truncated mass is
    below 4e-6, so this is numerically the untruncated form.
    """

    sigma: object
    r_max: float

    def _mass(self, s):
        return -np.expm1(-self.r_max**2 / (2.0 * s * s))

    def pdf(self, phi, e):
        phi = np.asarray(phi, dtype=float)
        s = _sigma_at(self.sigma, e)
        inside = (phi >= 0) & (phi <= self.r_max)
        vals = phi / (s * s) * np.exp(-(phi * phi) / (2.0 * s * s)) / self._mass(s)
        return np.where(inside, vals, 0.0)

    def sample(self, rng, e):
        e = np.asarray(e, dtype=float)
        s = _sigma_at(self.sigma, e)
        u = rng.uniform(size=e.shape)
        return np.sqrt(-2.0 * s * s * np.log1p(-u * self._mass(s)))


@dataclass(frozen=True)
class UniformDiscAngle:
    """Incidence angle of spatially uniform background on a disc: 2 phi / R^2."""

    r_max: float

    def pdf(self, phi, e):
        phi = np.asarray(phi, dtype=float)
        inside = (phi >= 0) & (phi <= self.r_max)
        return np.where(inside, 2.0 * phi / self.r_max**2, 0.0)

    def sample(self, rng, e):
        e = np.asarray(e, dtype=float)
        return self.r_max * np.sqrt(rng.uniform(size=e.shape))


@dataclass(frozen=True)
class CustomAngle:
    pdf_fn: callable  # pdf(phi, e)
    sampler: callable  # sampler(rng, e) -> phi array
    r_max: float

    def pdf(self, phi, e):
        return np.asarray(self.pdf_fn(np.asarray(phi, dtype=float), e))

    def sample(self, rng, e):
        return self.sampler(rng, e)


# ---------------------------------------------------------------------------
# Density pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxDensityPair:
    """Factorized source and background densities of z = (E, phi).

    FlatSpectrum, PowerLawSpectrum, GaussianPsfAngle and UniformDiscAngle
    are normalized in closed form.  A CustomSpectrum must integrate to 1
    over its support, and a CustomAngle at 5 energies across its energy
    marginal's support, each within 1e-6, or ValueError is raised.
    jumps, as WeightFunction.jumps, is ((), ()) when every part is closed
    form (a GaussianPsfAngle's sigma a number): then f_S, f_B and their
    posteriors step only at the supports' ends.  Otherwise None, unknown.
    """

    source_energy: object
    source_angle: object
    background_energy: object
    background_angle: object

    def __post_init__(self):
        for marg, cond in ((self.source_energy, self.source_angle),
                           (self.background_energy, self.background_angle)):
            if isinstance(marg, CustomSpectrum):
                total = _integral(marg.pdf, *marg.support)
                if abs(total - 1.0) > 1e-6:
                    raise ValueError("energy marginal integrates to %.8f, not 1"
                                     % total)
            if not isinstance(cond, CustomAngle):
                continue
            nodes = np.linspace(*marg.support, 5)
            totals = _integral(
                lambda p: cond.pdf(*np.broadcast_arrays(p[:, None], nodes)),
                0.0, cond.r_max)
            for e, total in zip(nodes, totals):
                if abs(total - 1.0) > 1e-6:
                    raise ValueError(
                        "angle conditional at E=%.4g integrates to %.8f, not 1"
                        % (e, total))

    @property
    def jumps(self):
        closed = (FlatSpectrum, PowerLawSpectrum, UniformDiscAngle, GaussianPsfAngle)
        return ((), ()) if all(isinstance(p, closed) and not callable(getattr(
            p, "sigma", None)) for p in vars(self).values()) else None

    def pdf_source(self, e, phi):
        return self.source_energy.pdf(e) * self.source_angle.pdf(phi, e)

    def pdf_background(self, e, phi):
        return self.background_energy.pdf(e) * self.background_angle.pdf(phi, e)

    def sample_source(self, rng, n):
        e = self.source_energy.sample(rng, n)
        return e, self.source_angle.sample(rng, e)

    def sample_background(self, rng, n):
        e = self.background_energy.sample(rng, n)
        return e, self.background_angle.sample(rng, e)


# ---------------------------------------------------------------------------
# Disc geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskGeometry:
    """Source in a uniform-background disc of radius R with a Gaussian PSF.

    rho is the background rate per unit area, alpha_rate the source photon
    rate, sigma the PSF width (constant or sigma(E)).
    """

    R: float
    rho: float
    alpha_rate: float
    sigma: object

    def __post_init__(self):
        if self.R <= 0 or self.rho < 0 or self.alpha_rate <= 0:
            raise ValueError("need R > 0, rho >= 0, alpha_rate > 0")
        if not callable(self.sigma):
            if self.sigma <= 0:
                raise ValueError("sigma must be positive")
            if self.sigma > self.R / 5.0:
                raise ValueError("sigma must satisfy sigma <= R/5 (narrow PSF)")

    @property
    def beta(self):
        return 2.0 * np.pi * self.rho / self.alpha_rate

    @property
    def mu(self):
        return np.pi * self.R**2 * self.rho + self.alpha_rate

    @property
    def theta(self):
        return self.alpha_rate / self.mu

    def density_pair(self, source_spectrum=None, background_spectrum=None):
        """AuxDensityPair with Gaussian-PSF source and uniform-disc background."""
        src = source_spectrum if source_spectrum is not None else FlatSpectrum(0.1, 10.0)
        bkg = background_spectrum if background_spectrum is not None else src
        return AuxDensityPair(
            source_energy=src,
            source_angle=GaussianPsfAngle(self.sigma, self.R),
            background_energy=bkg,
            background_angle=UniformDiscAngle(self.R),
        )


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """Event weight w(E, phi) on float arrays.

    jumps, ((energies), (angles)), are where w may step, each at one place
    whatever the other variable: weight_moments' integrals start from them.
    Each is the least float at which w takes its value above the step, where
    the probe would locate it, so that the moments equal those of w probed.
    Cuts give their edges; constant, PSF (numeric sigma, no spectra) and
    optimal weights on closed-form densities give ((), ()).  None where they
    are not known, and the integrals probe w for its jumps (_breakpoints).
    """

    fn: callable
    jumps: tuple = None

    def __call__(self, e, phi):
        return np.asarray(self.fn(np.asarray(e, dtype=float),
                                   np.asarray(phi, dtype=float)))


def unit_weight():
    return constant_weight(1.0)


def constant_weight(c):
    return WeightFunction(
        lambda e, phi: np.full(np.broadcast(e, phi).shape, float(c)), ((), ()))


# Posterior weights are built at theta >= _THETA_FLOOR.  At a theta MLE of 0
# they would vanish everywhere; at the floor they stay proportional to
# f_S / f_B, and the test statistic's p-value does not depend on their scale.
_THETA_FLOOR = 1e-12


def _weight_theta(theta):
    if not 0 <= theta <= 1:
        raise ValueError("theta must be in [0, 1]")
    return max(theta, _THETA_FLOOR)


def _check_support(fs, fb):
    """Reject observations where f_S and f_B both vanish."""
    if np.any((fs <= 0) & (fb <= 0)):
        raise ValueError("z outside support of both densities")


def _posterior(theta, fs, fb):
    """theta f_S / ((1 - theta) f_B + theta f_S), the source probability,
    where f_S and f_B have passed _check_support.

    0 where f_S = 0 < f_B, which at theta = 1 is the limit of a 0 / 0.
    """
    return theta * fs / np.where(fs > 0, (1.0 - theta) * fb + theta * fs, 1.0)


def _checked_posterior(theta, fs, fb):
    """_posterior of f_S and f_B as float arrays, after _check_support."""
    fs, fb = np.asarray(fs, dtype=float), np.asarray(fb, dtype=float)
    _check_support(fs, fb)
    return _posterior(theta, fs, fb)


def optimal_weight(z, theta, densities):
    """Posterior probability that an event at z = (E, phi) is from the source."""
    e, phi = z
    out = _checked_posterior(theta, densities.pdf_source(e, phi),
                             densities.pdf_background(e, phi))
    return out if np.ndim(out) else float(out)


def optimal_weight_fn(theta, densities):
    """optimal_weight as a WeightFunction; theta in [0, 1], floored at 1e-12."""
    theta = _weight_theta(theta)
    return WeightFunction(
        lambda e, phi: optimal_weight((e, phi), theta, densities), densities.jumps)


def optimal_no_spectrum_fn(theta, densities):
    """Optimal weight from angle conditionals only (energy spectra unknown)."""
    theta = _weight_theta(theta)
    return WeightFunction(lambda e, phi: _checked_posterior(
        theta, densities.source_angle.pdf(phi, e),
        densities.background_angle.pdf(phi, e)), densities.jumps)


def psf_gaussian_weight(e, phi, geom, spectra=None):
    """Closed-form disc weight 1 / (1 + beta sigma(E)^2 exp(phi^2 / 2 sigma^2)).

    This is the posterior source probability of the densities that
    geom.density_pair() builds, up to their truncated PSF mass.

    With (f_S(E), f_B(E)) spectra supplied, the spectral ratio multiplies the
    background term.  Evaluated in log space so large angles underflow to 0
    instead of overflowing.
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0):
        raise ValueError("incidence angle must be nonnegative")
    var = _sigma_at(geom.sigma, e) ** 2
    log_bg = np.log(geom.beta * var) + phi * phi / (2.0 * var)
    if spectra is not None:
        f_s, f_b = spectra
        fs = np.asarray(f_s(np.asarray(e, dtype=float)), dtype=float)
        fb = np.asarray(f_b(np.asarray(e, dtype=float)), dtype=float)
        if np.any(fs <= 0):
            raise ValueError("source spectrum must be positive on support")
        log_bg = log_bg + np.log(fb) - np.log(fs)
    # imported here: importing the package loads no scipy
    from scipy.special import expit
    out = expit(-log_bg)
    return out if out.ndim else float(out)


def psf_gaussian_weight_fn(geom, spectra=None):
    smooth = spectra is None and not callable(geom.sigma)
    return WeightFunction(lambda e, phi: psf_gaussian_weight(e, phi, geom, spectra),
                          ((), ()) if smooth else None)


def cut_weight_fn(e_lo=-np.inf, e_hi=np.inf, phi_max=np.inf):
    """Indicator weight: 1 iff E in [e_lo, e_hi] and phi <= phi_max (closed),
    edges checked once, here.  Its jumps are e_lo and the floats just above
    e_hi and phi_max, the infinite edges left out."""
    if e_lo > e_hi:
        raise ValueError("cut has e_lo > e_hi")
    # the closed upper edges step just above themselves
    jumps = tuple(tuple(float(x) for x in edges if np.isfinite(x))
                  for edges in ((e_lo, np.nextafter(e_hi, np.inf)),
                                (np.nextafter(phi_max, np.inf),)))
    return WeightFunction(
        lambda e, phi: ((e >= e_lo) & (e <= e_hi) & (phi <= phi_max)).astype(float),
        jumps)


# ---------------------------------------------------------------------------
# Moments and efficiency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMoments:
    """First and second weight moments under background and source densities."""

    beta1: float
    beta2: float
    zeta1: float
    zeta2: float
    theta: float

    @property
    def ew(self):
        return (1.0 - self.theta) * self.beta1 + self.theta * self.zeta1

    @property
    def ew2(self):
        return (1.0 - self.theta) * self.beta2 + self.theta * self.zeta2


# The probe that finds a weight's jumps before the nested integral
# (_breakpoints): probes an axis, the end probes' distance inside the ends as
# a fraction of the width, sections of each narrowing step, and the smallest
# difference, relative to its component's largest value, that can be a jump.
_PROBES = 33
_END_OFFSET = 1e-9
_SECTIONS = 32
_JUMP_FLOOR = 1e-6
# Floating-point steps within which a located jump is too near another
# breakpoint to be one: a piece that narrow could hold a jump its nodes see
# and could not be split for as many passes as its integral may take.
_APART = 2**16


def _steps(vals, live, scale):
    """Differences between neighbouring points along the last axis of vals,
    (k, ..., n), each relative to its component's scale and the largest of
    the k taken; 0 where either point lies outside both densities."""
    inv = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
    d = np.abs(np.diff(vals, axis=-1)) * inv.reshape((-1,) + (1,) * (vals.ndim - 1))
    return np.where(live[..., 1:] & live[..., :-1], d.max(axis=0), 0.0)


class _Breakpoints(tuple):
    """Energy and angle breakpoints, a pair; whole is False where the probe
    declined a jump that it located, which may then lie inside a piece."""
    whole = True


def _breakpoints(values, ranges, ends):
    """Breakpoints of the integrals along energy and along angle: the ends
    of the densities' supports on each axis, ends, and the jumps of g found
    from its values.

    values(e, phi) returns g's values (k, n) at the 1-D point arrays and
    whether a density is nonzero at each point.  g is probed on a grid of
    _PROBES points on each axis of ranges, ((e_lo, e_hi), (0, r_max)), with
    the end probes _END_OFFSET of the width inside the ends, and read along
    energy at every probe angle and along angle at every probe energy.  A
    difference between neighbouring probes (_steps) above _JUMP_FLOOR and
    above twice each neighbouring difference brackets a candidate.  Each
    weight call cuts every candidate's bracket into _SECTIONS and keeps the
    piece of the largest difference while that difference is at least half
    the bracket's: a jump's difference stays, a smooth function's shrinks
    _SECTIONS-fold, and such a candidate is dropped.  A bracket of two
    neighbouring floats is a jump, at its upper float: the least at which g
    takes its value above the jump, as WeightFunction.jumps gives it, so
    that a cut probed and a cut given have the same breakpoints.  A jump is a
    breakpoint where two probe lines find it at the same place, so that it
    holds across the other axis, or where one line finds it and the lines
    beside it none, so that it bounds a band too narrow for two lines; unless
    it lies within _APART floating-point steps of an end or of a jump already
    taken.  Not found: a jump within the end offset of an end, a jump whose
    bracket holds a larger change or a second jump, and a jump that moves
    along the other axis, which the integrals find as before.  Returns the
    energy and angle breakpoints as _Breakpoints, not whole where a located
    jump failed the probe-line test: an edge that moves, or one seen on one
    line while the lines beside it see others.
    """
    grid = []
    for a, b in ranges:
        x = np.linspace(a, b, _PROBES)
        x[[0, -1]] += _END_OFFSET * (b - a) * np.array([1.0, -1.0])
        grid.append(x)
    vals, live = values(*(x.ravel() for x in np.meshgrid(*grid, indexing="ij")))
    vals = vals.reshape(-1, _PROBES, _PROBES)
    live = live.reshape(_PROBES, _PROBES)
    scale = np.abs(vals).max(axis=(1, 2))
    # each candidate: its axis, probe line, bracket and difference
    axis, line, lo, hi, diff = [], [], [], [], []
    for ax in (0, 1):
        d = _steps(np.moveaxis(vals, 1 + ax, -1), np.moveaxis(live, ax, -1),
                   scale)
        pad = np.pad(d, ((0, 0), (1, 1)))
        row, i = np.nonzero((d > _JUMP_FLOOR) & (d > 2.0 * pad[:, :-2])
                            & (d > 2.0 * pad[:, 2:]))
        axis.append(np.full(row.size, ax))
        line.append(row)
        lo.append(grid[ax][i])
        hi.append(grid[ax][i + 1])
        diff.append(d[row, i])
    axis, line, lo, hi, diff = map(np.concatenate, (axis, line, lo, hi, diff))
    fractions = np.linspace(0.0, 1.0, _SECTIONS + 1)
    found = [(np.empty(0, int), np.empty(0, int), np.empty(0))]
    while lo.size:
        t = np.minimum(lo[:, None] + (hi - lo)[:, None] * fractions, hi[:, None])
        along_e = (axis == 0)[:, None]
        other = np.where(along_e, grid[1][line, None], grid[0][line, None])
        vals, live = values(np.where(along_e, t, other).ravel(),
                            np.where(along_e, other, t).ravel())
        d = _steps(vals.reshape((-1,) + t.shape), live.reshape(t.shape), scale)
        rows, j = np.arange(lo.size), np.argmax(d, axis=1)
        keep = d[rows, j] >= 0.5 * diff
        lo, hi, diff = t[rows, j], t[rows, j + 1], d[rows, j]
        located = keep & (hi <= np.nextafter(lo, np.inf))
        found.append((axis[located], line[located], hi[located]))
        keep &= ~located
        axis, line, lo, hi, diff = (x[keep] for x in (axis, line, lo, hi, diff))
    found_axis, found_line, found_at = map(np.concatenate, zip(*found))
    points, whole = [], True
    for ax in (0, 1):
        on = found_axis == ax
        at, first, lines = np.unique(found_at[on], return_index=True,
                                     return_counts=True)
        # jumps found on each probe line, padded with a line of none at each
        # end, so that line k's neighbours are k and k + 2
        busy = np.pad(np.bincount(found_line[on], minlength=_PROBES), 1)
        k = found_line[on][first]
        kept = list(ends[ax])
        taken = (lines >= 2) | ((busy[k] == 0) & (busy[k + 2] == 0))
        whole &= bool(taken.all())
        for x in at[taken]:
            if np.all(np.abs(x - np.array(kept)) > _APART * np.spacing(abs(x))):
                kept.append(x)
        points.append(np.array(kept))
    points = _Breakpoints(points)
    points.whole = whole
    return points


def _expectations(g, densities, jumps=None):
    """Integrals of g(E, phi) against f_B (row 0) and f_S (row 1), in one pass.

    g maps node arrays (e, phi) to a sequence of k value arrays.  The outer
    integral runs over the union of the energy supports; each of its passes
    takes one inner integral over [0, max r_max] for all of its new nodes.
    Both start from the pieces between their breakpoints: the ends of the
    densities' supports and the jumps of g, ((energies), (angles)) as in
    WeightFunction.jumps, or where jumps is None those the probe finds
    (_breakpoints), so a cut's edges are not hunted by every integral.  Both
    take _integral's start rule where no jump can lie inside a piece: the
    densities are closed form (AuxDensityPair.jumps), and g's jumps declared
    or none that the probe located declined, one rule for g declared and
    probed.  g is evaluated not where both densities vanish.  Returns (2, k).
    """
    pdfs = (densities.pdf_background, densities.pdf_source)
    lows, highs = zip(densities.background_energy.support,
                      densities.source_energy.support)
    r_maxes = (densities.background_angle.r_max, densities.source_angle.r_max)
    e_range, phi_range = (min(lows), max(highs)), (0.0, max(r_maxes))

    def weight_values(e, phi):
        """Densities (2, n), g's values (k, n), 0 where both densities
        vanish, and where they do not (n,), at the 1-D arrays e and phi."""
        dens = np.stack([pdf(e, phi) for pdf in pdfs])
        live = np.any(dens != 0, axis=0)
        if live.all():  # no gathers: g takes every point
            vals = np.array(g(e, phi), dtype=float)
            inside = vals
        else:
            inside = np.array(g(e[live], phi[live]), dtype=float)
            vals = np.zeros(inside.shape[:1] + e.shape)
            vals[:, live] = inside
        if not np.isfinite(inside).all():
            raise ValueError("weight is not finite inside the density support")
        return dens, vals, live

    def integrand(phi, e):
        grid_e, grid_phi = np.broadcast_arrays(e[None, :], phi[:, None])
        dens, vals, _ = weight_values(grid_e.ravel(), grid_phi.ravel())
        # (nodes, 2, k): each entry one product
        prod = dens.T[:, :, None] * vals.T[:, None, :]
        return prod.reshape(grid_e.shape + prod.shape[1:])

    ends = (lows + highs, r_maxes)
    if jumps is None:
        points = _breakpoints(
            lambda e, phi: weight_values(e, phi)[1:], (e_range, phi_range), ends)
    else:
        points = _Breakpoints(end + tuple(jump) for end, jump in zip(ends, jumps))
    split_start = points.whole and densities.jumps == ((), ())
    e_points, phi_points = points
    return _integral(
        lambda e: _integral(lambda phi: integrand(phi, e), *phi_range, phi_points,
                            split_start),
        *e_range, e_points, split_start)


def weight_moments(w, theta, densities):
    """beta1, beta2, zeta1, zeta2 by nested adaptive Gauss-Kronrod integrals
    (_integral), one call of w per pass of the inner angle integral, from
    w's jumps where it declares them (WeightFunction.jumps: cuts, and the
    smooth weights built from closed-form parts), else, for a weight of
    unknown shape, after one call of w per step of the probe (_breakpoints)."""

    def g(e, p):
        v = w(e, p)
        return v, v * v

    # rows (beta1, beta2) and (zeta1, zeta2), in WeightMoments' field order
    moments = _expectations(g, densities, getattr(w, "jumps", None))
    return WeightMoments(*moments.ravel().tolist(), theta)


def weight_efficiency(m, theta):
    """SNR multiplier zeta1^2 / [(1-theta) beta2 + theta zeta2].

    Scale-invariant in w; equals 1 for unit weights.
    """
    denom = (1.0 - theta) * m.beta2 + theta * m.zeta2
    if denom <= 0:
        raise ValueError("degenerate weight")
    return m.zeta1**2 / denom


def optimal_efficiency(theta, densities):
    """Efficiency of the posterior-probability weight, by direct quadrature."""
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    _, (zeta1,) = _expectations(
        lambda e, p: (optimal_weight((e, p), theta, densities),), densities,
        densities.jumps)
    return float(zeta1) / theta


def correlation_efficiency(w, theta, densities):
    """Efficiency via correlation with the optimal weight: [E(W W_opt)]^2 /
    E(W^2) under the marginal density of z, divided by theta^2, identical
    to weight_efficiency; w's jumps are breakpoints, as in weight_moments."""

    def g(e, p):
        v = w(e, p)
        return v * optimal_weight((e, p), theta, densities), v * v

    bg, src = _expectations(g, densities, getattr(w, "jumps", None))
    e_wwopt, e_w2 = (1.0 - theta) * bg + theta * src
    if e_w2 <= 0:
        raise ValueError("degenerate weight")
    return e_wwopt**2 / e_w2 / theta**2
