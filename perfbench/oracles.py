"""Reference computations made apart from photonperiod.

Nothing here imports the package under test.  The event generator, the
densities, the theta score root, the direct A_n sums, the exact null tail and
the closed-form cut efficiencies are written from the model's definitions, so
a fault in the program cannot hide behind the same fault in its check.
"""

import math

import mpmath
import numpy as np
from scipy.optimize import brentq

# CSV cells carry this many decimals; the generator rounds to them first, so
# the values the program parses are exactly the values the oracles use.
DECIMALS = 6


# ---------------------------------------------------------------------------
# Densities of z = (E, phi): power-law spectra, Gaussian PSF, uniform disc
# ---------------------------------------------------------------------------


class Densities:
    """Source: E^-src_index spectrum, Gaussian PSF truncated at R.
    Background: E^-bkg_index spectrum, spatially uniform on the disc of
    radius R (angle density 2 phi / R^2)."""

    def __init__(self, R, sigma, src_index, bkg_index, e_min, e_max):
        self.R, self.sigma = R, sigma
        self.src_index, self.bkg_index = src_index, bkg_index
        self.e_min, self.e_max = e_min, e_max
        self.psf_mass = -math.expm1(-R * R / (2.0 * sigma * sigma))

    def config(self):
        """The `densities` section of a photonperiod config for these densities."""
        def spectrum(index):
            return {"kind": "powerlaw", "index": index,
                    "e_min": self.e_min, "e_max": self.e_max}
        # rho and alpha_rate only enter the closed-form PSF weight
        return {"geometry": {"R": self.R, "rho": 1.0 / (2.0 * math.pi),
                             "alpha_rate": 1.0, "sigma": self.sigma},
                "source_spectrum": spectrum(self.src_index),
                "background_spectrum": spectrum(self.bkg_index)}

    def band_fraction(self, index, lo, hi):
        """Probability that an E^-index energy falls in [lo, hi]."""
        g = 1.0 - index
        return (hi ** g - lo ** g) / (self.e_max ** g - self.e_min ** g)

    def _spectrum_pdf(self, e, index):
        g = 1.0 - index
        return e ** (-index) * g / (self.e_max ** g - self.e_min ** g)

    def pdf_source(self, e, phi):
        s2 = self.sigma * self.sigma
        angle = phi / s2 * np.exp(-phi * phi / (2.0 * s2)) / self.psf_mass
        return self._spectrum_pdf(e, self.src_index) * angle

    def pdf_background(self, e, phi):
        return self._spectrum_pdf(e, self.bkg_index) * 2.0 * phi / self.R ** 2

    def _sample_energy(self, rng, n, index):
        g = 1.0 - index
        lo, hi = self.e_min ** g, self.e_max ** g
        return (lo + rng.uniform(size=n) * (hi - lo)) ** (1.0 / g)

    def sample(self, rng, is_source):
        """(E, phi) per event, from the source or background density."""
        n = is_source.size
        e = np.where(is_source, self._sample_energy(rng, n, self.src_index),
                     self._sample_energy(rng, n, self.bkg_index))
        u = rng.uniform(size=n)
        s2 = self.sigma * self.sigma
        phi_src = np.sqrt(-2.0 * s2 * np.log1p(-u * self.psf_mass))
        phi_bkg = self.R * np.sqrt(u)
        return e, np.where(is_source, phi_src, phi_bkg)


# ---------------------------------------------------------------------------
# Event generator
# ---------------------------------------------------------------------------


def profile_value(phase, coeffs, eta):
    """nu(phase) = 1 + 2 eta Re sum_n gamma_n e^{2 pi i n phase}."""
    acc = np.zeros(np.shape(phase))
    for n, g in enumerate(coeffs, start=1):
        acc += g.real * np.cos(2.0 * np.pi * n * phase) \
            - g.imag * np.sin(2.0 * np.pi * n * phase)
    return 1.0 + 2.0 * eta * acc


def generate_events(rng, n, T, theta, f, coeffs, eta, dens, epoch=0.0,
                    batch=1 << 18):
    """Exactly n events of the pulsed-source-plus-background process on [0, T].

    Given the count, arrival times are independent with density proportional
    to (1 - theta) + theta nu(phase(t)); they are drawn by thinning uniform
    candidates against that rate's upper bound.  Each event is labelled
    source with its posterior probability theta nu / rate, and (E, phi) is
    drawn from the labelled density.  Values are rounded to DECIMALS places,
    as they are written to CSV.  Returns (t sorted, E, phi).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    bound = (1.0 - theta) + theta * (1.0 + 2.0 * eta * np.sum(np.abs(coeffs)))
    times, labels = [], []
    have = 0
    while have < n:
        t = rng.uniform(0.0, T, size=batch)
        nu = profile_value(f * (t - epoch), coeffs, eta)
        rate = (1.0 - theta) + theta * nu
        keep = rng.uniform(size=batch) * bound < rate
        t, nu, rate = t[keep], nu[keep], rate[keep]
        labels.append(rng.uniform(size=t.size) * rate < theta * nu)
        times.append(t)
        have += t.size
    t = np.concatenate(times)[:n]
    is_source = np.concatenate(labels)[:n]
    e, phi = dens.sample(rng, is_source)
    order = np.argsort(t, kind="stable")
    return tuple(quantize(x[order]) for x in (t, e, phi))


def quantize(x):
    """x rounded to DECIMALS places, as float() parses its CSV text."""
    return np.rint(x * 10.0 ** DECIMALS) / 10.0 ** DECIMALS


def write_csv(path, columns, int_digits, chunk=1 << 17):
    """Write `time,energy,angle` rows of fixed-width, zero-padded decimals.

    columns are nonnegative arrays already quantized; int_digits gives the
    integer width of each.  Builds the bytes with integer arithmetic, which
    is ~50x faster than per-value string formatting at 1e6 rows.
    """
    widths = [d + 1 + DECIMALS for d in int_digits]
    row = sum(widths) + len(widths)  # separators plus newline
    scale = 10 ** DECIMALS
    with open(path, "wb") as fh:
        fh.write(b"time,energy,angle\n")
        n = columns[0].size
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            buf = np.empty((hi - lo, row), dtype=np.uint8)
            pos = 0
            for col, digits, width in zip(columns, int_digits, widths):
                k = np.rint(col[lo:hi] * scale).astype(np.int64)
                if np.any(k < 0) or np.any(k >= 10 ** (digits + DECIMALS)):
                    raise ValueError("value outside the fixed-width field")
                place = pos + width - 1
                for i in range(digits + DECIMALS):
                    if i == DECIMALS:
                        buf[:, place] = ord(".")
                        place -= 1
                    buf[:, place] = 48 + k % 10
                    k //= 10
                    place -= 1
                buf[:, pos + width] = ord(",")
                pos += width + 1
            buf[:, row - 1] = ord("\n")
            fh.write(buf.tobytes())


# ---------------------------------------------------------------------------
# Weights, theta, A_n, Q_T
# ---------------------------------------------------------------------------


def optimal_weights(e, phi, theta, dens):
    fs = dens.pdf_source(e, phi)
    fb = dens.pdf_background(e, phi)
    return theta * fs / ((1.0 - theta) * fb + theta * fs)


def theta_score_root(e, phi, dens):
    """Root in (0, 1) of the score sum (f_S - f_B) / ((1-theta) f_B + theta f_S)
    and its Fisher standard error 1 / sqrt(sum (f_S - f_B)^2 / denom^2)."""
    fs = dens.pdf_source(e, phi)
    fb = dens.pdf_background(e, phi)
    diff = fs - fb

    def score(theta):
        return float(np.sum(diff / ((1.0 - theta) * fb + theta * fs)))

    root = brentq(score, 1e-9, 1.0 - 1e-9, xtol=1e-13)
    info = float(np.sum((diff / ((1.0 - root) * fb + root * fs)) ** 2))
    return root, 1.0 / math.sqrt(info)


def direct_an(t, w, m, f, fdot=0.0, epoch=0.0, chunk=1 << 17):
    """A_n = sum_j w_j exp(2 pi i n phase(t_j)), n = 1..m, summed directly."""
    out = np.zeros(m, dtype=complex)
    for lo in range(0, t.size, chunk):
        dt = t[lo:lo + chunk] - epoch
        phase = f * dt + 0.5 * fdot * dt * dt
        ww = w[lo:lo + chunk]
        for n in range(1, m + 1):
            out[n - 1] += np.sum(ww * np.exp(2j * np.pi * n * phase))
    return out


def qt_value(an, amps_sq, T):
    """Q_T = (2 / T) sum_n |alpha_n|^2 |A_n|^2."""
    return 2.0 / T * float(np.dot(amps_sq, np.abs(an) ** 2))


# ---------------------------------------------------------------------------
# Exact null tail
# ---------------------------------------------------------------------------


def exact_sf(q, lam, dps=60):
    """P(sum_r lam_r X_r > q), X_r iid chi-square(2), for distinct lam_r.

    lam_r X_r is exponential with mean 2 lam_r, so the sum is hypoexponential
    with survival sum_r prod_{s != r} lam_r / (lam_r - lam_s) e^{-q / 2 lam_r}.
    Evaluated in mpmath at `dps` digits, which absorbs the cancellation
    between terms.  Returns an mpmath number (it may lie below the double
    range).
    """
    with mpmath.workdps(dps):
        lam = [mpmath.mpf(float(x)) for x in lam]
        if len(set(lam)) != len(lam):
            raise ValueError("hypoexponential tail needs distinct coefficients")
        q = mpmath.mpf(float(q))
        total = mpmath.mpf(0)
        for r, lr in enumerate(lam):
            coef = mpmath.mpf(1)
            for s, ls in enumerate(lam):
                if s != r:
                    coef *= lr / (lr - ls)
            total += coef * mpmath.exp(-q / (2 * lr))
        return +total


def rel_err(value, exact):
    """|value - exact| / exact, with exact an mpmath number."""
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(float(value)) - exact) / exact)


# ---------------------------------------------------------------------------
# Weight efficiency and template match
# ---------------------------------------------------------------------------


def cut_efficiency(dens, theta, e_lo, e_hi, phi_max):
    """zeta1^2 / [(1 - theta) beta2 + theta zeta2] for the indicator weight of
    the band [e_lo, e_hi] times {phi <= phi_max}.  An indicator equals its
    square, so beta2 = beta1 and zeta2 = zeta1; with a constant PSF width the
    angle fraction does not depend on E."""
    lo, hi = max(e_lo, dens.e_min), min(e_hi, dens.e_max)
    s2 = dens.sigma * dens.sigma
    src_angle = -math.expm1(-phi_max * phi_max / (2.0 * s2)) / dens.psf_mass
    bkg_angle = (phi_max / dens.R) ** 2
    zeta1 = dens.band_fraction(dens.src_index, lo, hi) * src_angle
    beta1 = dens.band_fraction(dens.bkg_index, lo, hi) * bkg_angle
    return zeta1 ** 2 / ((1.0 - theta) * beta1 + theta * zeta1)


def template_match(coeffs, eta, amps_sq):
    """sum_{n != 0} |g_n|^2 |alpha_n|^2 / sqrt(2 sum_{n != 0} |alpha_n|^4)
    with |g_n|^2 = eta^2 |gamma_n|^2, summing both signs of n explicitly."""
    g = {n: eta ** 2 * abs(c) ** 2 for n, c in enumerate(coeffs, start=1)}
    a = {n: float(x) for n, x in enumerate(amps_sq, start=1)}
    num = 0.0
    den = 0.0
    for n in list(a) + [-k for k in a]:
        num += g.get(abs(n), 0.0) * a[abs(n)]
        den += a[abs(n)] ** 2
    return num / math.sqrt(2.0 * den)
