import mpmath
import numpy as np
import pytest
from scipy import stats

from photonperiod import auxmodel as am
from photonperiod.auxmodel import (
    AuxDensityPair,
    CustomAngle,
    CustomSpectrum,
    DiskGeometry,
    GaussianPsfAngle,
    UniformDiscAngle,
    WeightFunction,
    correlation_efficiency,
    cut_weight_fn,
    optimal_efficiency,
    optimal_no_spectrum_fn,
    optimal_weight,
    optimal_weight_fn,
    psf_gaussian_weight,
    unit_weight,
    weight_efficiency,
    weight_moments,
)

THETA_GEOM = 2.0 / 27.0  # alpha / (pi R^2 rho + alpha) for the xi=1 disc below


def xi1_geometry():
    # beta = 2 pi rho / alpha = 1 and sigma = 1, so xi = beta sigma = 1
    return DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0, sigma=1.0)


def xi1_densities():
    return xi1_geometry().density_pair()


def uniform_angles(r_max=1.0):
    return CustomAngle(
        pdf_fn=lambda phi, e: np.where((phi >= 0) & (phi <= r_max), 1.0 / r_max, 0.0),
        sampler=lambda rng, e: rng.uniform(0, r_max, size=np.shape(e)),
        r_max=r_max,
    )


def flat_pair(src_lo, src_hi, bkg_lo, bkg_hi):
    """Density pair differing only in (possibly disjoint) energy bands."""

    def band(a, b):
        return CustomSpectrum(
            pdf_fn=lambda e: np.where((e >= a) & (e <= b), 1.0 / (b - a), 0.0),
            sampler=lambda rng, n: rng.uniform(a, b, size=n),
            e_min=a, e_max=b,
        )

    return AuxDensityPair(
        source_energy=band(src_lo, src_hi),
        source_angle=uniform_angles(),
        background_energy=band(bkg_lo, bkg_hi),
        background_angle=uniform_angles(),
    )


class TestOptimalWeight:
    def test_equal_densities_give_theta(self):
        dens = flat_pair(0.0, 1.0, 0.0, 1.0)
        assert optimal_weight((0.5, 0.5), 0.3, dens) == pytest.approx(0.3)

    def test_known_likelihood_ratio(self):
        # f_S(E) = (2 - E)/2 and f_B(E) = 1/2 on [0, 2]; at E = 0 the ratio
        # is 2, so w = theta * 2 / (1 - theta + 2 theta)
        dens = AuxDensityPair(
            source_energy=CustomSpectrum(
                pdf_fn=lambda e: np.where((e >= 0) & (e <= 2), (2.0 - e) / 2.0, 0.0),
                sampler=lambda rng, n: 2.0 * (1.0 - np.sqrt(rng.uniform(size=n))),
                e_min=0.0, e_max=2.0),
            source_angle=uniform_angles(),
            background_energy=CustomSpectrum(
                pdf_fn=lambda e: np.where((e >= 0) & (e <= 2), 0.5, 0.0),
                sampler=lambda rng, n: rng.uniform(0, 2, size=n),
                e_min=0.0, e_max=2.0),
            background_angle=uniform_angles(),
        )
        assert optimal_weight((0.0, 0.5), 0.5, dens) == pytest.approx(2.0 / 3.0)

    def test_pure_source_region(self):
        dens = flat_pair(0.0, 1.0, 2.0, 3.0)
        assert optimal_weight((0.5, 0.5), 0.25, dens) == pytest.approx(1.0)

    def test_outside_support(self):
        dens = flat_pair(0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="outside support"):
            optimal_weight((1.5, 0.5), 0.25, dens)

    def test_theta_one_where_source_density_underflows(self):
        """At theta = 1 the weight is the limit 0 where f_S = 0 < f_B, and
        the only error left is z outside both supports."""
        dens = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                            sigma=0.1).density_pair()
        assert dens.pdf_source(1.0, 4.0) == 0.0 < dens.pdf_background(1.0, 4.0)
        for build in (optimal_weight_fn, optimal_no_spectrum_fn):
            w = build(1.0, dens)(np.array([1.0, 1.0, 1.0]),
                                 np.array([4.0, 0.05, 0.3]))
            assert w.tolist() == [0.0, 1.0, 1.0]
            with pytest.raises(ValueError, match="outside support"):
                build(1.0, dens)(1.0, 5.5)
        assert optimal_weight((1.0, 4.0), 1.0, dens) == 0.0

    def test_no_spectrum_form_equals_full_form_for_equal_spectra(self):
        dens = DiskGeometry(R=5.0, rho=0.3, alpha_rate=2.0, sigma=0.7).density_pair(
            am.PowerLawSpectrum(2.2, 0.5, 8.0))
        rng = np.random.default_rng(6)
        e = rng.uniform(0.5, 8.0, 200)
        phi = rng.uniform(0.0, 5.0, 200)
        w = optimal_no_spectrum_fn(0.15, dens)(e, phi)
        assert np.allclose(w, optimal_weight((e, phi), 0.15, dens),
                           rtol=1e-12, atol=0)


class TestPsfGaussianWeight:
    def test_two_sigma_at_xi_one(self):
        w = psf_gaussian_weight(1.0, 2.0, xi1_geometry())
        assert w == pytest.approx(1.0 / (1.0 + np.e**2), rel=1e-6)
        assert w == pytest.approx(0.1192, abs=5e-5)

    def test_three_sigma_weak_background(self):
        geom = DiskGeometry(R=5.0, rho=0.01 / (2 * np.pi), alpha_rate=1.0, sigma=1.0)
        assert psf_gaussian_weight(1.0, 3.0, geom) == pytest.approx(0.5263, abs=5e-5)

    def test_on_source(self):
        assert psf_gaussian_weight(1.0, 0.0, xi1_geometry()) == pytest.approx(0.5)

    def test_spectral_ratio_included(self):
        geom = xi1_geometry()
        spectra = (lambda e: np.full_like(np.asarray(e, float), 2.0),
                   lambda e: np.full_like(np.asarray(e, float), 1.0))
        w = psf_gaussian_weight(1.0, 0.0, geom, spectra)
        assert w == pytest.approx(2.0 / 3.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            DiskGeometry(R=5.0, rho=1.0, alpha_rate=1.0, sigma=-1.0)
        geom = DiskGeometry(R=5.0, rho=1.0, alpha_rate=1.0, sigma=lambda e: -1.0)
        with pytest.raises(ValueError, match="sigma"):
            psf_gaussian_weight(1.0, 0.5, geom)

    def test_posterior_of_disc_densities(self):
        """The closed form is the posterior of geom.density_pair() at
        geom.theta, up to the truncated PSF mass (below 4e-6 at sigma <= R/5)."""
        phi = np.array([0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0])
        e = np.full_like(phi, 1.0)
        for sigma in (0.5, 0.8, 1.0):
            geom = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                                sigma=sigma)
            inside = phi > 0  # both densities vanish at phi = 0
            opt = optimal_weight((e[inside], phi[inside]), geom.theta,
                                 geom.density_pair())
            w = psf_gaussian_weight(e, phi, geom)
            assert np.allclose(w[inside], opt, rtol=4e-6, atol=0)
        geom = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                            sigma=0.5)
        assert psf_gaussian_weight(1.0, 0.2, geom) == pytest.approx(0.787, abs=5e-4)

    def test_no_overflow_at_huge_angle(self):
        geom = DiskGeometry(R=500.0, rho=1 / (2 * np.pi), alpha_rate=1.0, sigma=1.0)
        assert psf_gaussian_weight(1.0, 60.0, geom) == 0.0


class TestCutWeight:
    def test_inside(self):
        assert cut_weight_fn(e_lo=0.5, e_hi=2.0, phi_max=1.0)(1.0, 0.5) == 1.0

    def test_angle_excluded(self):
        assert cut_weight_fn(e_lo=0.5, e_hi=2.0, phi_max=1.0)(1.0, 1.5) == 0.0

    def test_boundary_included(self):
        assert cut_weight_fn(e_lo=0.5, e_hi=2.0, phi_max=1.0)(2.0, 1.0) == 1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            cut_weight_fn(e_lo=2.0, e_hi=1.0)


class TestWeightMoments:
    def test_unit_weight(self):
        m = weight_moments(unit_weight(), 0.3, xi1_densities())
        for v in (m.beta1, m.beta2, m.zeta1, m.zeta2):
            assert v == pytest.approx(1.0, rel=1e-6)

    def test_constant_weight(self):
        m = weight_moments(am.constant_weight(0.4), 0.3, xi1_densities())
        assert m.beta1 == pytest.approx(0.4, rel=1e-6)
        assert m.zeta1 == pytest.approx(0.4, rel=1e-6)
        assert m.beta2 == pytest.approx(0.16, rel=1e-6)
        assert m.zeta2 == pytest.approx(0.16, rel=1e-6)
        assert m.ew == pytest.approx(0.4, rel=1e-6)
        assert m.ew2 == pytest.approx(0.16, rel=1e-6)

    def test_disjoint_supports(self):
        dens = flat_pair(0.0, 1.0, 2.0, 3.0)
        m = weight_moments(optimal_weight_fn(0.25, dens), 0.25, dens)
        assert m.zeta1 == pytest.approx(1.0, rel=1e-6)
        assert m.zeta2 == pytest.approx(1.0, rel=1e-6)
        assert m.beta1 == pytest.approx(0.0, abs=1e-9)
        assert m.beta2 == pytest.approx(0.0, abs=1e-9)


def cut_moments_closed_form(sigma, e_lo, phi_max, R=5.0, index_s=2.0,
                            index_b=2.7, e_min=1.0, e_max=5.0):
    """(beta1, zeta1) of the cut E >= e_lo, phi <= phi_max for power-law
    spectra on [e_min, e_max], a Gaussian PSF truncated at R and a uniform
    disc of radius R.  An indicator equals its square, so beta2 = beta1 and
    zeta2 = zeta1."""

    def band(index):
        g = 1.0 - index
        return (e_max**g - max(e_lo, e_min) ** g) / (e_max**g - e_min**g)

    def psf_mass(r):
        return -np.expm1(-r * r / (2.0 * sigma * sigma))

    psf = psf_mass(phi_max) / psf_mass(R)
    return band(index_b) * (phi_max / R) ** 2, band(index_s) * psf


def bare(wf):
    """wf as a bare callable, which carries no jumps: the integrals probe it."""
    return lambda e, p: wf(e, p)


# a cut weight as built, its edges given to the integrals, and as a bare
# callable, its edges found by the probe
WEIGHT_FORMS = pytest.mark.parametrize(
    "form", [lambda wf: wf, bare], ids=["weight-function", "bare-callable"])


class TestCutClosedForm:
    @WEIGHT_FORMS
    @pytest.mark.parametrize("sigma, e_lo, phi_max", [
        (1.0, 4.3, 2.0),    # the benchmark's power densities and cut
        (0.1, 1.37, 0.23),  # a narrow PSF with the cut edges inside its core
    ])
    def test_moments_and_efficiency(self, sigma, e_lo, phi_max, form):
        theta = 0.1
        dens = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                            sigma=sigma).density_pair(
            am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))
        m = weight_moments(form(cut_weight_fn(e_lo=e_lo, phi_max=phi_max)),
                           theta, dens)
        beta1, zeta1 = cut_moments_closed_form(sigma, e_lo, phi_max)
        eff = zeta1**2 / ((1.0 - theta) * beta1 + theta * zeta1)
        assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.beta2 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert m.zeta2 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert weight_efficiency(m, theta) == pytest.approx(eff, rel=1e-8, abs=0)

    @WEIGHT_FORMS
    @pytest.mark.parametrize("cut", [
        {"phi_max": 0.01}, {"e_lo": 4.995},
        {"e_lo": 4.9, "phi_max": 0.01}, {"e_lo": 4.99, "phi_max": 0.01},
    ], ids=["phi_max=0.01", "e_lo=4.995", "e_lo=4.9,phi_max=0.01",
            "e_lo=4.99,phi_max=0.01"])
    def test_edges_in_the_end_gaps_of_the_first_intervals(self, cut, form):
        """Edges outside the outermost Kronrod nodes of [0, 5] (0.0109) and
        of [1, 5] (4.9913), which no node of the integrals' first pass
        sees: the cut weight hands them to the integrals, and the probe
        finds them from the bare callable's values.  In the last two cuts
        each edge bounds a band that one probe line alone crosses."""
        theta = 0.1
        m = weight_moments(form(cut_weight_fn(**cut)), theta,
                           benchmark_power_densities())
        beta1, zeta1 = cut_moments_closed_form(
            1.0, cut.get("e_lo", 1.0), cut.get("phi_max", 5.0))
        eff = zeta1**2 / ((1.0 - theta) * beta1 + theta * zeta1)
        assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.beta2 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert m.zeta2 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert weight_efficiency(m, theta) == pytest.approx(eff, rel=1e-8, abs=0)

    def test_bare_callable_matches_weight_function(self):
        """The integral reads only the weight's values, never its params."""
        dens = xi1_densities()
        wf = cut_weight_fn(e_lo=2.2, phi_max=2.0)
        assert weight_moments(lambda e, p: wf(e, p), 0.2, dens) == \
            weight_moments(wf, 0.2, dens)

    @pytest.mark.parametrize("cut", [
        {"phi_max": 2.0}, {"e_lo": 4.3, "phi_max": 2.0},
        {"e_lo": 1.5, "e_hi": 3.25, "phi_max": 0.7}, {"e_hi": np.pi},
    ], ids=["angle", "energy-angle", "band", "e_hi=pi"])
    def test_probed_edges_are_the_given_ones(self, cut):
        """The probe locates each edge at the float the cut's jumps give,
        the least past its step, closed upper edges included: a bare
        callable's moments equal the WeightFunction's bit for bit."""
        wf = cut_weight_fn(**cut)
        dens = benchmark_power_densities()
        assert weight_moments(bare(wf), 0.1, dens) == weight_moments(wf, 0.1, dens)

    def test_edge_within_the_probe_end_offset(self):
        """E >= 5 - 3e-9: within the probe's end offset of the end of [1, 5],
        where no probe sees the edge.  The cut hands it to the integrals."""
        theta = 0.1
        m = weight_moments(cut_weight_fn(e_lo=5.0 - 3e-9), theta,
                           benchmark_power_densities())
        beta1, zeta1 = cut_moments_closed_form(1.0, 5.0 - 3e-9, 5.0)
        for got, exact in ((m.beta1, beta1), (m.beta2, beta1),
                           (m.zeta1, zeta1), (m.zeta2, zeta1)):
            assert abs(got - exact) <= am._ATOL + am._RTOL * exact
        assert np.isfinite(weight_efficiency(m, theta))


def benchmark_power_densities():
    """The power benchmark's densities: sigma = 1, R = 5, E^-2 source and
    E^-2.7 background spectra on [1, 5]."""
    return DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                        sigma=1.0).density_pair(
        am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))


class TestIntegral:
    """The adaptive Gauss-Kronrod integral behind every weight moment."""

    def test_step_at_non_dyadic_edge(self):
        edge = np.pi / 9  # no bisection of [0, 1] lands on it
        value = am._integral(lambda x: np.where(x <= edge, 2.0, 0.5), 0.0, 1.0)
        assert value == pytest.approx(0.5 + 1.5 * edge, rel=1e-9, abs=0)

    def test_vanishing_components_converge_on_the_absolute_tolerance(self):
        # the second integrand is identically zero, the third integrates to
        # 0 by symmetry, so that no relative tolerance can be met for it
        value = am._integral(
            lambda x: np.stack([np.exp(x), np.zeros_like(x),
                                np.sin(2.0 * np.pi * x)], axis=1), 0.0, 2.0)
        assert value[0] == pytest.approx(np.expm1(2.0), rel=1e-9, abs=0)
        assert value[1] == 0.0
        assert abs(value[2]) <= am._ATOL

    @pytest.mark.parametrize("fn", [
        lambda x: 1.0 / x,
        lambda x: np.full_like(x, np.inf),
    ], ids=["inverse", "infinite"])
    def test_divergent_integral_raises(self, fn):
        calls = []

        def counted(x):
            calls.append(x.size)
            return fn(x)

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(am.QuadratureError, match="did not converge"):
            am._integral(counted, 0.0, 1.0)
        # one call a pass; 1,100 passes would bisect [0, 1] below 2^-1074
        assert len(calls) < 1100
        assert max(calls) <= 21 * am._MAX_INTERVALS

    def test_step_at_a_breakpoint_converges_in_one_call(self):
        edge = np.pi / 9
        calls = []

        def fn(x):
            calls.append(x.size)
            return np.where(x <= edge, 2.0, 0.5)

        value = am._integral(fn, 0.0, 1.0, points=[edge])
        assert calls == [42]
        assert value == pytest.approx(0.5 + 1.5 * edge, rel=1e-9, abs=0)

    def test_breakpoints_of_a_smooth_integrand_agree_within_the_contract(self):
        def fn(x):
            return np.stack([np.exp(x), np.sin(3.0 * x)], axis=1)

        plain = am._integral(fn, 0.0, 2.0)
        pieces = am._integral(fn, 0.0, 2.0, points=[0.3, np.sqrt(2.0), 1.9])
        assert np.all(np.abs(pieces - plain) <= am._ATOL + am._RTOL * np.abs(plain))

    def test_breakpoints_outside_at_the_ends_or_repeated_are_ignored(self):
        edge = np.pi / 9
        calls = []

        def fn(x):
            calls.append(x.copy())
            return np.where(x <= edge, 2.0, 0.5)

        def run(points):
            calls.clear()
            value = am._integral(fn, 0.0, 1.0, points)
            return value, [c.tolist() for c in calls]

        assert run([-1.0, 0.0, 1.0, 2.0, np.nan]) == run(())
        assert run([edge, 1.0, edge, 0.0, 3.0]) == run([edge])

    def test_benchmark_energy_angle_cut_calls(self):
        """The power benchmark's E >= 4.3, phi <= 2 cut: one weight call per
        inner pass over all the energy nodes of an outer pass, from the
        cut's edges.  1 call; the bound, kept from the probe's 11 calls and
        its margin of 5, still holds the 12 of a bare callable, probed."""
        assert benchmark_weight_calls(cut_weight_fn(e_lo=4.3, phi_max=2.0)) <= 16

    @pytest.mark.parametrize("weight, most", [
        (lambda: cut_weight_fn(phi_max=2.0), 1),
        (lambda: am.psf_gaussian_weight_fn(xi1_geometry()), 1),
        (lambda: optimal_weight_fn(0.1, benchmark_power_densities()), 1),
    ], ids=["angle-cut", "psf", "optimal"])
    def test_benchmark_weight_calls(self, weight, most):
        """The benchmark's other weights: 1 call each, the angle cut from
        its edge and the smooth weights from their declared absence of
        jumps, without the probe, and each integral over a support of one
        piece from _integral's start pieces, so that no first pass over the
        whole support is thrown away."""
        assert benchmark_weight_calls(weight()) <= most


def benchmark_weight_calls(wf, densities=benchmark_power_densities):
    """Calls of wf by weight_moments on the densities (by default the power
    benchmark's), whose moments must equal those of wf uncounted."""
    calls = []

    def counted(e, phi):
        calls.append(np.size(e))
        return wf(e, phi)

    m = weight_moments(WeightFunction(counted, wf.jumps), 0.1, densities())
    assert m == weight_moments(wf, 0.1, densities())
    return len(calls)


def sigma_fn_geometry():
    """The power benchmark's geometry, its sigma = 1 given as a function of E."""
    return DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                        sigma=lambda e: np.ones(np.shape(e)))


def flat_densities():
    return flat_pair(1.0, 3.0, 2.0, 5.0)


def sigma_fn_densities():
    return sigma_fn_geometry().density_pair(
        am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))


@pytest.fixture
def probes(monkeypatch):
    """Counts the calls of the jump probe, _breakpoints."""
    calls = []
    probe = am._breakpoints

    def counted(*args):
        calls.append(args)
        return probe(*args)

    monkeypatch.setattr(am, "_breakpoints", counted)
    return calls


DENSITIES = pytest.mark.parametrize(
    "densities", [benchmark_power_densities, xi1_densities],
    ids=["power-benchmark", "xi1"])


class TestDeclaredJumps:
    """Weights built from closed-form parts declare that they have no jumps,
    and their integrals skip the probe; weights of unknown shape are probed."""

    @DENSITIES
    @pytest.mark.parametrize("build", [
        lambda dens: unit_weight(),
        lambda dens: am.psf_gaussian_weight_fn(xi1_geometry()),
        lambda dens: optimal_weight_fn(0.1, dens),
        lambda dens: optimal_no_spectrum_fn(0.1, dens),
    ], ids=["unit", "psf", "optimal", "optimal-no-spectrum"])
    def test_moments_equal_the_probed_ones(self, build, densities, probes):
        """The probe finds no jump inside their supports: the moments equal
        those of the weight as a bare callable, probed, bit for bit."""
        dens = densities()
        wf = build(dens)
        assert dens.jumps == wf.jumps == ((), ())
        assert weight_moments(wf, 0.1, dens) == weight_moments(bare(wf), 0.1, dens)
        assert len(probes) == 1  # the bare callable's

    @DENSITIES
    def test_optimal_efficiency_equals_the_probed_one(self, densities, probes):
        dens = densities()
        _, (zeta1,) = am._expectations(
            lambda e, p: (optimal_weight((e, p), 0.1, dens),), dens)
        assert optimal_efficiency(0.1, dens) == float(zeta1) / 0.1
        assert len(probes) == 1  # the probed reference's

    @pytest.mark.parametrize("weight, densities", [
        (lambda dens: optimal_weight_fn(0.1, dens),
         lambda: flat_pair(1.0, 3.0, 2.0, 5.0)),
        (lambda dens: optimal_weight_fn(0.1, dens),
         lambda: sigma_fn_geometry().density_pair(
             am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))),
        (lambda dens: am.psf_gaussian_weight_fn(sigma_fn_geometry()),
         benchmark_power_densities),
        (lambda dens: am.psf_gaussian_weight_fn(
            xi1_geometry(), (lambda e: e**-2.0, lambda e: e**-2.7)),
         benchmark_power_densities),
    ], ids=["custom-densities", "sigma-fn-densities", "psf-sigma-fn",
            "psf-spectra"])
    def test_weights_of_unknown_shape_are_probed(self, weight, densities, probes):
        """Custom densities, a sigma(E) or spectra given as functions may
        step anywhere: such a weight's jumps are unknown, None, and it is
        probed, in more calls than the declared PSF weight takes on the same
        densities without it."""
        wf = weight(densities())
        assert wf.jumps is None
        declared = benchmark_weight_calls(
            am.psf_gaussian_weight_fn(xi1_geometry()), densities)
        assert benchmark_weight_calls(wf, densities) > declared
        assert len(probes) == 2  # the counted and the uncounted moments


def gk_nodes(a, b):
    """The 21 Kronrod nodes of [a, b], in ascending order."""
    return 0.5 * (a + b) + 0.5 * (b - a) * am._GK_NODES


def past_nodes(x, delta=1e-3):
    """Points a fraction delta of a node gap past each of the nodes x but
    the last, toward the next one."""
    return x[:-1] + delta * np.diff(x)


def step_integral(edge, calls=None):
    """_integral over [0, 1] of 2 up to edge and 0.5 past it, its error
    against the closed form, and the error allowed by _integral's contract.
    calls, if given, collects the nodes of each call."""

    def fn(x):
        if calls is not None:
            calls.append(np.sort(x.reshape(-1, 21), axis=1))
        return np.where(x <= edge, 2.0, 0.5)

    exact = 0.5 + 1.5 * edge
    return am._integral(fn, 0.0, 1.0) - exact, am._ATOL + am._RTOL * exact


# Edges of a step in the end gap of [0, 1], outside its outermost nodes, read
# the same at every node of the first pass: no rule that reads the node
# values can find them, so none is tested.
_STEP_EDGES = np.concatenate([past_nodes(gk_nodes(0.0, 1.0)),
                              past_nodes(gk_nodes(0.0, 1.0)[::-1])])


class TestSplitRule:
    """Steps placed just beside the nodes where the interval would be split
    if it were cut at nodes: each must still be found to the tolerance."""

    @pytest.mark.parametrize("edge", _STEP_EDGES,
                             ids=["%.6f" % e for e in _STEP_EDGES])
    def test_step_beside_nodes_of_the_interval_and_its_first_children(
            self, edge):
        calls = []
        err, tol = step_integral(edge, calls)
        assert abs(err) <= tol
        # the first children: the intervals of the second call
        lo, hi = gk_nodes(0.0, 1.0)[[0, -1]]
        for nodes in calls[1]:
            for e in past_nodes(nodes):
                if lo < e < hi:
                    err, tol = step_integral(e)
                    assert abs(err) <= tol, (edge, e, err)

    def test_seeded_random_edges(self):
        lo, hi = gk_nodes(0.0, 1.0)[[0, -1]]
        for edge in np.random.default_rng(14).uniform(lo, hi, 300):
            err, tol = step_integral(edge)
            assert abs(err) <= tol, (edge, err)

    @pytest.mark.parametrize("e_node", [3, 10])
    def test_narrow_psf_cut_edges_beside_nodes(self, e_node):
        """The nested case: a sigma = 0.1 PSF, E >= e_lo and phi <= phi_max
        each just past a node of the outer integral over [1, 5] and of the
        inner one over [0, 5] or its first children, in the PSF core."""
        sigma, theta = 0.1, 0.1
        dens = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                            sigma=sigma).density_pair(
            am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))
        inner = gk_nodes(0.0, 5.0)
        phi_edges = list(past_nodes(inner)[:4])
        calls = []

        def indicator(x):
            calls.append(np.sort(x.reshape(-1, 21), axis=1))
            return (x <= phi_edges[1]).astype(float)

        # the first children of [0, 5] for an edge in the PSF core
        am._integral(indicator, 0.0, 5.0)
        for nodes in calls[1]:
            if inner[0] < nodes[0] and nodes[-1] < 0.6:
                phi_edges += list(past_nodes(nodes))
        e_lo = past_nodes(gk_nodes(1.0, 5.0))[e_node]
        for phi_max in phi_edges:
            m = weight_moments(cut_weight_fn(e_lo=e_lo, phi_max=phi_max),
                               theta, dens)
            beta1, zeta1 = cut_moments_closed_form(sigma, e_lo, phi_max)
            assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0), phi_max
            assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0), phi_max


class TestMovingCutEdge:
    def test_edge_linear_in_energy_against_mpmath(self):
        """The cut phi <= a + b E has its angle edge at a different place at
        every energy node: the level-wise bisection finds them all without
        being told where they are."""
        a, b = 0.7, 0.37
        theta = 0.1
        m = weight_moments(lambda e, phi: (phi <= a + b * e).astype(float),
                           theta, benchmark_power_densities())
        with mpmath.workdps(30):
            def spectrum(index):
                g = 1 - mpmath.mpf(index)
                return lambda e: e ** -mpmath.mpf(index) * g / (5 ** g - 1)

            f_s, f_b = spectrum(2.0), spectrum(2.7)
            psf_mass = -mpmath.expm1(-mpmath.mpf(25) / 2)
            beta1 = float(mpmath.quad(
                lambda e: f_b(e) * ((a + b * e) / 5) ** 2, [1, 5]))
            zeta1 = float(mpmath.quad(
                lambda e: f_s(e) * -mpmath.expm1(-(a + b * e) ** 2 / 2) / psf_mass,
                [1, 5]))
        assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.beta2 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert m.zeta2 == pytest.approx(zeta1, rel=1e-8, abs=0)


    @pytest.mark.parametrize("edge, e_lo, phi_max", [
        (lambda e, phi: phi <= 0.7 + 1e-15 * e, 1.0, 0.7),
        (lambda e, phi: e >= 1.23 + 1e-14 * phi, 1.23, 5.0),
    ], ids=["angle", "energy"])
    def test_edge_moving_by_a_few_floating_point_steps(self, edge, e_lo, phi_max):
        """The probe lines locate such an edge at places a few floating-point
        steps apart; a piece between two of them would hold the edge and
        could not be split.  Against the fixed cut, 1e-13 relative away."""
        theta = 0.1
        dens = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0,
                            sigma=0.1).density_pair(
            am.PowerLawSpectrum(2.0, 1.0, 5.0), am.PowerLawSpectrum(2.7, 1.0, 5.0))
        m = weight_moments(lambda e, phi: edge(e, phi).astype(float), theta, dens)
        beta1, zeta1 = cut_moments_closed_form(0.1, e_lo, phi_max)
        assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0)


class TestBreakpoints:
    def test_fixed_edges_are_located_and_moving_ones_left_to_the_integrals(self):
        def values(e, phi):
            fixed = (e >= 4.3) & (phi <= 2.0)
            moving = phi <= 0.7 + 0.37 * e
            return np.stack([fixed, moving]).astype(float), np.ones(e.size, bool)

        e_points, phi_points = am._breakpoints(
            values, ((1.0, 5.0), (0.0, 5.0)), ((1.0, 5.0), (5.0,)))
        assert e_points[:2].tolist() == [1.0, 5.0]
        assert phi_points[:1].tolist() == [5.0]
        assert e_points[2:] == pytest.approx([4.3], rel=1e-14, abs=0)
        assert phi_points[1:] == pytest.approx([2.0], rel=1e-14, abs=0)

    def test_values_outside_both_densities_are_not_read(self):
        # g steps from 1 to 0 across a gap between the supports: the values
        # in the gap, where g would step to 5 and back, do not count
        def values(e, phi):
            live = (e <= 2.0) | (e >= 3.0)
            w = np.where(e <= 2.0, 1.0, np.where(e >= 3.0, 0.0, 5.0))
            return w[None, :], live

        e_points, phi_points = am._breakpoints(
            values, ((1.0, 4.0), (0.0, 1.0)), ((1.0, 4.0), (1.0,)))
        assert e_points.tolist() == [1.0, 4.0]
        assert phi_points.tolist() == [1.0]

    def test_a_declined_jump_leaves_the_breakpoints_not_whole(self):
        """A moving edge is located on every probe line at a different
        place and declined: the breakpoints say so, and the integrals take
        no start pieces.  Fixed edges alone leave them whole."""

        def values(e, phi, moving=True):
            w = [(e >= 4.3) & (phi <= 2.0)]
            if moving:
                w.append(phi <= 0.7 + 0.37 * e)
            return np.stack(w).astype(float), np.ones(e.size, bool)

        ranges, ends = ((1.0, 5.0), (0.0, 5.0)), ((1.0, 5.0), (5.0,))
        assert not am._breakpoints(values, ranges, ends).whole
        assert am._breakpoints(
            lambda e, phi: values(e, phi, moving=False), ranges, ends).whole


def start_gap_edges(a, b):
    """Points in the end gaps on either side of each inner boundary of the
    start pieces of [a, b]: a fraction 1e-3 of the gap past the last node
    of the piece before it and before the first node of the piece after."""
    edges = np.linspace(a, b, am._START_PIECES + 1)
    out = []
    for lo, mid, hi in zip(edges[:-2], edges[1:-1], edges[2:]):
        last, first = gk_nodes(lo, mid)[-1], gk_nodes(mid, hi)[0]
        out += [last + 1e-3 * (mid - last), first - 1e-3 * (first - mid)]
    return out


_START_GAP_CUTS = ([{"e_lo": x} for x in start_gap_edges(1.0, 5.0)]
                   + [{"phi_max": x} for x in start_gap_edges(0.0, 5.0)])


class TestStartPieces:
    """Integrals over a support of one piece start from _START_PIECES equal
    pieces only where no jump can hide in the end gaps that they make."""

    @WEIGHT_FORMS
    @pytest.mark.parametrize(
        "cut", _START_GAP_CUTS,
        ids=["%s=%.6f" % next(iter(c.items())) for c in _START_GAP_CUTS])
    def test_cut_edges_in_the_end_gaps_of_start_pieces(self, cut, form):
        """Edges that no node of the start pieces sees, beside their inner
        boundaries on the power benchmark's densities: a cut hands them to
        the integrals, and the probe finds them from the bare callable."""
        m = weight_moments(form(cut_weight_fn(**cut)), 0.1,
                           benchmark_power_densities())
        beta1, zeta1 = cut_moments_closed_form(
            1.0, cut.get("e_lo", 1.0), cut.get("phi_max", 5.0))
        assert m.beta1 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.beta2 == pytest.approx(beta1, rel=1e-8, abs=0)
        assert m.zeta1 == pytest.approx(zeta1, rel=1e-8, abs=0)
        assert m.zeta2 == pytest.approx(zeta1, rel=1e-8, abs=0)

    def test_moving_edge_takes_no_start_pieces(self, monkeypatch):
        """The edge phi <= 0.7 + 0.37 E of TestMovingCutEdge is declined by
        the probe: the first call after it reads the angle nodes of [0, 5]
        and the energy nodes of [1, 5], each as one piece."""
        calls, probed = [], []
        probe = am._breakpoints

        def counted_probe(*args):
            points = probe(*args)
            probed.append(len(calls))
            return points

        def w(e, phi):
            calls.append((np.unique(e), np.unique(phi)))
            return (phi <= 0.7 + 0.37 * e).astype(float)

        monkeypatch.setattr(am, "_breakpoints", counted_probe)
        weight_moments(w, 0.1, benchmark_power_densities())
        e, phi = calls[probed[0]]
        assert phi.tolist() == np.sort(gk_nodes(0.0, 5.0)).tolist()
        assert e.tolist() == np.sort(gk_nodes(1.0, 5.0)).tolist()

    @pytest.mark.parametrize("densities, weight, declared, probed", [
        (flat_densities, "optimal", 12, 12),
        (flat_densities, "psf", 1, 2),
        (flat_densities, "cut", 1, 12),
        (flat_densities, "unit", 1, 2),
        (sigma_fn_densities, "optimal", 5, 5),
        (sigma_fn_densities, "psf", 4, 5),
        (sigma_fn_densities, "cut", 1, 13),
        (sigma_fn_densities, "unit", 4, 5),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_densities_not_closed_form_take_no_start_pieces(
            self, densities, weight, declared, probed):
        """Custom densities and a sigma(E) may step anywhere: their weights
        keep the calls they took before the start rule, declared and as
        bare callables, probed."""
        wf = {"optimal": lambda: optimal_weight_fn(0.1, densities()),
              "psf": lambda: am.psf_gaussian_weight_fn(xi1_geometry()),
              "cut": lambda: cut_weight_fn(e_lo=2.5, phi_max=0.5),
              "unit": unit_weight}[weight]()
        assert densities().jumps is None
        assert benchmark_weight_calls(wf, densities) == declared
        assert benchmark_weight_calls(WeightFunction(wf.fn), densities) == probed


class TestMomentsAgainstMpmath:
    # (beta1, beta2, zeta1, zeta2) on the power benchmark's densities, by
    # the script in the test's docstring
    PSF = (0.05545147631309737483415, 0.01545177444424010975906,
           0.3068539629714052082004, 0.11370606262316832312)
    OPTIMAL = (0.06850722784481367926201, 0.0229233952314540959739,
               0.3834349493966768866419, 0.1771243923135900228768)

    @pytest.mark.parametrize("weight, exact", [
        (lambda dens: am.psf_gaussian_weight_fn(xi1_geometry()), PSF),
        (lambda dens: optimal_weight_fn(0.1, dens), OPTIMAL),
    ], ids=["psf", "optimal"])
    def test_smooth_weights_on_the_power_benchmark(self, weight, exact):
        """The PSF and optimal weights' moments, from start pieces, against
        2-D mpmath quadrature, frozen: each value takes 1-5 s to compute.
        They were made at 25 digits, and agree to 22 with 30 digits on the
        pieces split at E = 3 and phi = 1, 2, 3:

            import mpmath
            mpmath.mp.dps = 25
            theta, mass = mpmath.mpf(1) / 10, -mpmath.expm1(-mpmath.mpf(25) / 2)

            def spectrum(index):
                g = 1 - mpmath.mpf(index)
                return lambda e: e ** -mpmath.mpf(index) * g / (5 ** g - 1)

            s_e, b_e = spectrum(2), spectrum("2.7")
            f_s = lambda e, p: s_e(e) * p * mpmath.exp(-p * p / 2) / mass
            f_b = lambda e, p: b_e(e) * 2 * p / 25
            psf = lambda e, p: 1 / (1 + mpmath.exp(p * p / 2))
            optimal = lambda e, p: theta * f_s(e, p) / (
                (1 - theta) * f_b(e, p) + theta * f_s(e, p))
            for w in (psf, optimal):
                print([mpmath.quad(lambda e, p: f(e, p) * w(e, p) ** k,
                                   [1, 5], [0, 5])
                       for f in (f_b, f_s) for k in (1, 2)])
        """
        dens = benchmark_power_densities()
        m = weight_moments(weight(dens), 0.1, dens)
        got = (m.beta1, m.beta2, m.zeta1, m.zeta2)
        assert got == pytest.approx(exact, rel=1e-9, abs=0)


class TestEfficiency:
    def test_unit_weight_is_one(self):
        m = weight_moments(unit_weight(), 0.17, xi1_densities())
        assert weight_efficiency(m, 0.17) == pytest.approx(1.0, rel=1e-6)

    def test_disjoint_supports_inverse_theta(self):
        dens = flat_pair(0.0, 1.0, 2.0, 3.0)
        m = weight_moments(optimal_weight_fn(0.25, dens), 0.25, dens)
        assert weight_efficiency(m, 0.25) == pytest.approx(4.0, rel=1e-6)
        assert optimal_efficiency(0.25, dens) == pytest.approx(4.0, rel=1e-6)

    def test_uninformative_densities_give_one(self):
        dens = flat_pair(0.0, 1.0, 0.0, 1.0)
        assert optimal_efficiency(0.3, dens) == pytest.approx(1.0, rel=1e-6)
        m = weight_moments(optimal_weight_fn(0.3, dens), 0.3, dens)
        assert weight_efficiency(m, 0.3) == pytest.approx(1.0, rel=1e-6)

    def test_quadrature_matches_frozen_mc_oracle(self):
        # independent 1e6-draw Monte Carlo integral of the optimal-weight
        # efficiency at theta=0.1 in the xi=1 disc, computed from the raw
        # density formulas (truncated-Rayleigh inverse CDF, seed 20260824)
        mc_value, mc_se = 3.732077, 0.001594
        quad = optimal_efficiency(0.1, xi1_densities())
        assert abs(quad - mc_value) <= 3 * mc_se

    def test_scale_invariance_exact(self):
        dens = xi1_densities()
        wf = am.psf_gaussian_weight_fn(xi1_geometry())
        scaled = WeightFunction(lambda e, p: 7.3 * wf(e, p))
        m1 = weight_moments(wf, 0.2, dens)
        m2 = weight_moments(scaled, 0.2, dens)
        e1, e2 = weight_efficiency(m1, 0.2), weight_efficiency(m2, 0.2)
        assert e2 == pytest.approx(e1, rel=1e-10)

    def test_correlation_form_identity_piecewise(self):
        dens = xi1_densities()
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.05, 1.0, size=8)
        e_edges = np.linspace(0.1, 10.0, 3)
        p_edges = np.linspace(0.0, 5.0, 5)

        def w(e, phi):
            i = np.clip(np.digitize(e, e_edges[1:-1]), 0, 1)
            j = np.clip(np.digitize(phi, p_edges[1:-1]), 0, 3)
            return vals.reshape(2, 4)[i, j]

        wf = WeightFunction(w)
        theta = 0.2
        direct = weight_efficiency(weight_moments(wf, theta, dens), theta)
        corr = correlation_efficiency(wf, theta, dens)
        assert corr == pytest.approx(direct, rel=1e-5)

    def test_correlation_form_at_optimum(self):
        dens = xi1_densities()
        theta = 0.2
        wopt = optimal_weight_fn(theta, dens)
        assert correlation_efficiency(wopt, theta, dens) == pytest.approx(
            optimal_efficiency(theta, dens), rel=1e-5)

    def test_correlation_efficiency_takes_the_cut_edges(self):
        """correlation_efficiency hands a cut's edges to the quadrature: the
        power benchmark's energy-and-angle cut takes 1 weight call, where
        the probe takes more, for the same value, bit for bit."""
        dens, wf = benchmark_power_densities(), cut_weight_fn(e_lo=4.3, phi_max=2.0)
        calls = []

        def counted(e, phi):
            calls.append(np.size(e))
            return wf(e, phi)

        eff = correlation_efficiency(WeightFunction(counted, wf.jumps), 0.1, dens)
        assert len(calls) == 1
        probed = correlation_efficiency(counted, 0.1, dens)  # no jumps
        assert len(calls) > 2
        assert eff == probed

    def test_optimal_dominates_other_weights(self):
        dens = xi1_densities()
        theta = THETA_GEOM
        best = optimal_efficiency(theta, dens)
        rng = np.random.default_rng(17)
        candidates = [
            unit_weight(),
            am.psf_gaussian_weight_fn(xi1_geometry()),
            cut_weight_fn(phi_max=1.0),
            cut_weight_fn(phi_max=2.0),
            cut_weight_fn(phi_max=3.0),
        ]
        for _ in range(3):
            vals = rng.uniform(0.05, 1.0, size=8)
            edges = np.linspace(0.0, 5.0, 9)

            def w(e, phi, vals=vals):
                return vals[np.clip(np.digitize(phi, edges[1:-1]), 0, 7)]

            candidates.append(WeightFunction(w))
        for wf in candidates:
            eff = weight_efficiency(weight_moments(wf, theta, dens), theta)
            assert eff <= best * (1 + 1e-5)

    def test_non_finite_weight_rejected(self):
        nan_far = WeightFunction(lambda e, p: np.where(p > 0.5, np.nan, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            weight_moments(nan_far, 0.3, xi1_densities())
        with pytest.raises(ValueError, match="not finite"):
            correlation_efficiency(nan_far, 0.3, xi1_densities())

    def test_degenerate_weight_rejected(self):
        dens = xi1_densities()
        m = weight_moments(am.constant_weight(0.0), 0.3, dens)
        with pytest.raises(ValueError, match="degenerate"):
            weight_efficiency(m, 0.3)


@pytest.mark.parametrize("call, message", [
    (lambda: am.FlatSpectrum(2.0, 1.0), "need e_min < e_max"),
    (lambda: am.PowerLawSpectrum(2.0, 0.0, 1.0), "need 0 < e_min < e_max"),
    (lambda: am.PowerLawSpectrum(2.0, 3.0, 1.0), "need 0 < e_min < e_max"),
    (lambda: DiskGeometry(R=0.0, rho=1.0, alpha_rate=1.0, sigma=0.1), "R > 0"),
    (lambda: DiskGeometry(R=5.0, rho=-1.0, alpha_rate=1.0, sigma=1.0),
     "rho >= 0"),
    (lambda: DiskGeometry(R=5.0, rho=1.0, alpha_rate=0.0, sigma=1.0),
     "alpha_rate > 0"),
    (lambda: optimal_weight_fn(1.5, xi1_densities()), r"theta must be in \[0, 1\]"),
    (lambda: optimal_weight_fn(-0.1, xi1_densities()), r"theta must be in \[0, 1\]"),
    (lambda: psf_gaussian_weight(1.0, -0.1, xi1_geometry()),
     "incidence angle must be nonnegative"),
    (lambda: psf_gaussian_weight(1.0, 0.5, xi1_geometry(),
                                 (lambda e: 0.0 * e, lambda e: 1.0 + 0.0 * e)),
     "source spectrum must be positive"),
    (lambda: cut_weight_fn(e_lo=2.0, e_hi=1.0), "e_lo > e_hi"),
    (lambda: optimal_efficiency(0.0, xi1_densities()), r"theta must be in \(0, 1\)"),
    (lambda: optimal_efficiency(1.0, xi1_densities()), r"theta must be in \(0, 1\)"),
    (lambda: correlation_efficiency(am.constant_weight(0.0), 0.3,
                                    xi1_densities()), "degenerate weight"),
], ids=["flat-bounds", "powerlaw-zero-min", "powerlaw-bounds", "geometry-R",
        "geometry-rho", "geometry-alpha", "theta-above-1", "theta-below-0",
        "psf-negative-angle", "psf-source-spectrum", "cut-bounds",
        "optimal-efficiency-0", "optimal-efficiency-1",
        "correlation-degenerate"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestDensities:
    def test_probability_weights_bounded(self):
        dens = xi1_densities()
        rng = np.random.default_rng(2)
        e = rng.uniform(0.1, 10.0, 10**4)
        phi = rng.uniform(0.0, 5.0, 10**4)
        for wf in (optimal_weight_fn(0.3, dens),
                   am.psf_gaussian_weight_fn(xi1_geometry())):
            w = wf(e, phi)
            assert np.all(w >= 0) and np.all(w <= 1)

    def test_disc_background_angle_density_normalized(self):
        ang = UniformDiscAngle(5.0)
        phi = np.linspace(0, 5, 100001)
        assert np.trapezoid(ang.pdf(phi, 1.0), phi) == pytest.approx(1.0, abs=1e-8)

    def test_unnormalized_density_rejected(self):
        bad = CustomSpectrum(pdf_fn=lambda e: np.full_like(np.asarray(e, float), 0.7),
                             sampler=lambda rng, n: rng.uniform(0, 1, n),
                             e_min=0.0, e_max=1.0)
        with pytest.raises(ValueError, match="integrates"):
            AuxDensityPair(bad, uniform_angles(), bad, uniform_angles())

    def test_unnormalized_custom_angle_rejected(self):
        spec = am.PowerLawSpectrum(2.0, 1.0, 5.0)
        # integrates to 1 at E = 1 only
        bad = CustomAngle(pdf_fn=lambda phi, e: np.where(phi <= 1.0, e, 0.0),
                          sampler=lambda rng, e: rng.uniform(0, 1, np.shape(e)),
                          r_max=1.0)
        with pytest.raises(ValueError, match="angle conditional at E=2 "
                                             "integrates to 2.00000000"):
            AuxDensityPair(spec, uniform_angles(), spec, bad)

    @pytest.mark.parametrize("marginal", [
        am.FlatSpectrum(0.1, 10.0),
        *(am.PowerLawSpectrum(index, 1.0, 5.0)
          for index in (1.0 - 2e-12, 1.0, 1.0 + 2e-12, 1.0 + 1e-11,
                        1.0 + 1e-9, 2.0, 2.7)),
    ], ids=lambda m: "%s(%r)" % (type(m).__name__, getattr(m, "index", "")))
    def test_closed_form_energy_marginals_integrate_to_one(self, marginal):
        """Built without a numeric check, so each must be normalized: also
        power laws within 1e-11 of index 1, where E^g - 1 loses digits."""
        AuxDensityPair(marginal, uniform_angles(), marginal, uniform_angles())
        assert abs(am._integral(marginal.pdf, *marginal.support) - 1.0) <= 1e-12

    @pytest.mark.parametrize("angle", [
        UniformDiscAngle(5.0), GaussianPsfAngle(1.0, 5.0),
        GaussianPsfAngle(lambda e: 0.2 + 0.1 * np.asarray(e), 5.0),
    ], ids=["uniform-disc", "psf", "psf-sigma(E)"])
    def test_closed_form_angle_conditionals_integrate_to_one(self, angle):
        spec = am.PowerLawSpectrum(2.0, 1.0, 5.0)
        AuxDensityPair(spec, angle, spec, angle)
        e = np.linspace(1.0, 5.0, 9)
        totals = am._integral(
            lambda p: angle.pdf(*np.broadcast_arrays(p[:, None], e)),
            0.0, angle.r_max)
        assert np.all(np.abs(totals - 1.0) <= 1e-12)

    def test_geometry_derived_quantities(self):
        geom = xi1_geometry()
        assert geom.beta == pytest.approx(1.0)
        assert geom.theta == pytest.approx(THETA_GEOM)
        assert geom.mu == pytest.approx(np.pi * 25.0 / (2 * np.pi) + 1.0)

    def test_wide_psf_rejected(self):
        with pytest.raises(ValueError, match="R/5"):
            DiskGeometry(R=5.0, rho=1.0, alpha_rate=1.0, sigma=2.0)

    def test_psf_sampler_matches_density(self):
        psf = GaussianPsfAngle(sigma=1.0, r_max=5.0)
        rng = np.random.default_rng(3)
        phi = psf.sample(rng, np.ones(10**5))
        assert np.all(phi <= 5.0)
        # mean of Rayleigh(1) is sqrt(pi/2)
        assert np.mean(phi) == pytest.approx(np.sqrt(np.pi / 2), abs=0.01)

    @pytest.mark.parametrize("index", [1.0 - 1e-11, 1.0, 1.0 + 1e-11,
                                       1.0 + 1e-9, 2.0, 2.7])
    def test_power_law_draws_fit_the_cdf(self, index):
        """Inverse-CDF draws keep their resolution near index 1, where
        e_min^g + u (e_max^g - e_min^g) rounds to about 143,000 values in
        200,000, and follow the CDF near index 1 and away from it."""
        spec = am.PowerLawSpectrum(index, 0.1, 10.0)
        draws = spec.sample(np.random.default_rng(0), 200_000)
        assert np.unique(draws).size == 200_000
        assert np.all((draws >= 0.1) & (draws <= 10.0))
        g, span = 1.0 - index, np.log(100.0)

        def cdf(e):
            x = np.log(e / 0.1)
            return x / span if g == 0 else np.expm1(g * x) / np.expm1(g * span)

        assert stats.kstest(draws, cdf).pvalue > 1e-3

    def test_power_law_spectrum(self):
        spec = am.PowerLawSpectrum(2.0, 1.0, 10.0)
        e = np.linspace(1, 10, 100001)
        assert np.trapezoid(spec.pdf(e), e) == pytest.approx(1.0, abs=1e-6)
        rng = np.random.default_rng(4)
        draws = spec.sample(rng, 10**5)
        assert np.all((draws >= 1.0) & (draws <= 10.0))
        # analytic mean of E^-2 on [1, 10]: ln(10) / (1 - 1/10)
        assert np.mean(draws) == pytest.approx(np.log(10) / 0.9, rel=0.02)
