import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonperiod import (
    HarmonicTemplate,
    LightCurveProfile,
    PhaseModel,
    RateModel,
    estimate_profile_coeffs,
    eval_profile,
    phase_of,
    simulate,
    template_efficiency,
)
from photonperiod import lightcurve
from photonperiod.auxmodel import DiskGeometry
from photonperiod.detector import fourier_coefficients
from photonperiod.lightcurve import _unit_phasors


def single_harmonic(gamma=0.5, eta=1.0):
    return LightCurveProfile(np.array([gamma], dtype=complex), eta=eta)


class TestEvalProfile:
    def test_constant_profile(self):
        prof = LightCurveProfile(np.array([0.3 + 0.1j]), eta=0.0)
        assert eval_profile(prof, 0.37) == pytest.approx(1.0)

    def test_constant_profile_equals_the_general_path(self):
        """eta = 0 skips the phasors and gives the general path's value,
        1 + 2 eta Re(sum_n gamma_n e^{2 pi i n phase}), exactly: 1 at every
        finite phase and nan at a nan or infinite one."""
        prof = LightCurveProfile(np.array([0.3 + 0.1j, -0.2j]), eta=0.0)
        phase = np.array([0.0, 0.37, -12.5, 3e8, np.nan, np.inf, -np.inf])
        n = np.arange(1, prof.m + 1)
        with np.errstate(invalid="ignore"):
            general = 1.0 + 2.0 * prof.eta * np.real(
                np.exp(2j * np.pi * np.multiply.outer(phase, n)) @ prof.coeffs)
        got = eval_profile(prof, phase)
        assert got[:4].tolist() == general[:4].tolist() == [1.0] * 4
        assert np.isnan(got[4:]).all() and np.isnan(general[4:]).all()
        assert eval_profile(prof, 0.37) == 1.0
        assert np.isnan(eval_profile(prof, np.nan))
        assert eval_profile(prof, phase.reshape(7, 1)).shape == (7, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_recurrence_within_its_bound_of_complex_exp(self, seed):
        """The z^n recurrence on _unit_phasors against complex exp on the
        N x m phase array: apart by no more than the sum of the two forms'
        rounding bounds, in u = 2^-53.  The recurrence's is in eval_profile's
        docstring; complex exp's angle 2 pi n phase is rounded by up to
        3 u |2 pi n phase| and its exp and sum by (m + 4) u |gamma_n| each."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        n = np.arange(1, m + 1)
        gamma = (rng.normal(size=m) + 1j * rng.normal(size=m)) * 0.05 / n
        prof = LightCurveProfile.unchecked(gamma, eta=rng.uniform(0.1, 2.0))
        phase = np.concatenate([rng.uniform(-3.0, 10.0, 2000),
                                rng.uniform(-1e4, 1e4, 200), [0.0, 0.5]])
        want = 1.0 + 2.0 * prof.eta * np.real(
            np.exp(2j * np.pi * np.multiply.outer(phase, n)) @ gamma)
        got = eval_profile(prof, phase)
        a, u = np.abs(gamma), 2.0**-53
        own = (2 * prof.eta * np.sum(a * (6 * n + m + 4)) + 2 * np.abs(got))
        ref = 2 * prof.eta * (
            np.abs(phase) * np.sum(a * 3 * 2 * np.pi * n) + np.sum(a) * (m + 4))
        assert np.all(np.abs(got - want) <= (own + ref) * u)

    def test_cosine_peak(self):
        assert eval_profile(single_harmonic(), 0.0) == pytest.approx(2.0)

    def test_cosine_trough(self):
        assert eval_profile(single_harmonic(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_periodicity_exact(self):
        prof = LightCurveProfile(np.array([0.2 + 0.1j, 0.05 - 0.02j]), eta=0.8)
        x = np.linspace(0, 1, 57)
        assert np.max(np.abs(eval_profile(prof, x) - eval_profile(prof, x + 1.0))) < 1e-12

    def test_unit_mean_over_period(self):
        prof = LightCurveProfile(np.array([0.2 + 0.1j, 0.05 - 0.02j]), eta=0.8)
        x = np.linspace(0, 1, 4097)
        integral = np.trapezoid(eval_profile(prof, x), x)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LightCurveProfile(np.array([0.5 + 0j]), eta=1.5)


class TestPhaseModel:
    def test_linear(self):
        assert phase_of(PhaseModel(f=2.0), 0.75) == pytest.approx(1.5)

    def test_with_drift(self):
        assert phase_of(PhaseModel(f=1.0, fdot=0.2), 2.0) == pytest.approx(2.4)

    def test_epoch_origin(self):
        assert phase_of(PhaseModel(f=1.0, epoch=3.0), 3.0) == 0.0

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            PhaseModel(f=0.0)


class TestTemplateEfficiency:
    def test_proportional_is_one(self):
        tpl = HarmonicTemplate([1.0])
        src = LightCurveProfile.unchecked(np.array([1.0 + 0j]))
        assert template_efficiency(tpl, src) == pytest.approx(1.0)

    def test_half_power_captured(self):
        tpl = HarmonicTemplate([1.0, 0.0])
        src = LightCurveProfile.unchecked(np.sqrt([0.5, 0.5]).astype(complex))
        assert template_efficiency(tpl, src) == pytest.approx(0.7071, abs=5e-5)

    def test_average_pulsar_coefficients_self_match(self):
        coeffs = np.sqrt([0.35, 0.77, 0.43, 0.17, 0.26]).astype(complex)
        src = LightCurveProfile.unchecked(coeffs)
        tpl = HarmonicTemplate([0.35, 0.77, 0.43, 0.17, 0.26])
        assert template_efficiency(tpl, src) == pytest.approx(1.0)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError, match="empty spectrum"):
            HarmonicTemplate([0.0, 0.0])

    @given(
        a=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                   min_size=1, max_size=8),
        g=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                   min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_cauchy_schwarz_bound(self, a, g):
        if not (any(x > 0 for x in a) and any(x > 0 for x in g)):
            return
        tpl = HarmonicTemplate(a)
        src = LightCurveProfile.unchecked(np.sqrt(g).astype(complex))
        assert template_efficiency(tpl, src) <= 1.0 + 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: HarmonicTemplate([]), "at least one harmonic"),
    (lambda: HarmonicTemplate([1.0, -0.5]), "nonnegative"),
    (lambda: LightCurveProfile([]), "at least one coefficient"),
    (lambda: LightCurveProfile([0.1], eta=-1.0), "eta must be nonnegative"),
    (lambda: template_efficiency(HarmonicTemplate([1.0]), [0.0, 0.0]),
     "empty spectrum"),
], ids=["template-empty", "template-negative", "profile-empty",
        "profile-eta", "efficiency-empty-source"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestEstimateProfileCoeffs:
    def test_single_event(self):
        prof = estimate_profile_coeffs(np.array([0.0]), PhaseModel(f=1.0), m=2)
        assert prof.amps_sq() == pytest.approx([0.5, 0.5])

    def test_uniform_grid_has_no_harmonics(self):
        t = np.arange(1024) / 1024.0
        with pytest.raises(ValueError, match="no harmonic content"):
            estimate_profile_coeffs(t, PhaseModel(f=1.0), m=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_profile_coeffs(np.array([]), PhaseModel(f=1.0), m=2)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        """Profile estimation checks weights as detect does."""
        t = np.linspace(0.0, 10.0, 50)
        w = np.ones(50)
        w[7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            estimate_profile_coeffs(t, PhaseModel(f=1.3), m=2, weights=w)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="no weighted events"):
            estimate_profile_coeffs(np.linspace(0.0, 10.0, 50), PhaseModel(f=1.3),
                                    m=2, weights=np.zeros(50))

    def test_sums_of_fourier_coefficients_in_any_order(self):
        """More than one block of events, shuffled: the bits of time order,
        which are fourier_coefficients' A_n normalized."""
        rng = np.random.default_rng(5)
        n = (1 << 16) + 4321
        t = np.sort(rng.uniform(0.0, 300.0, n))
        w = rng.uniform(0.0, 1.0, n)
        model = PhaseModel(f=1.7, fdot=1e-6)
        want = estimate_profile_coeffs(t, model, m=3, weights=w)
        an = fourier_coefficients(t, w, model, 3)
        assert np.array_equal(want.coeffs, an / np.sqrt(np.sum(np.abs(an) ** 2)))
        order = rng.permutation(n)
        got = estimate_profile_coeffs(t[order], model, m=3, weights=w[order])
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.eta == 1.0

    def test_simulation_round_trip(self):
        phase = PhaseModel(f=7.0)
        model = RateModel(mu=2000.0, theta=1.0, profile=single_harmonic(),
                          phase=phase, T=50.0)
        geom = DiskGeometry(R=5.0, rho=1 / (2 * np.pi), alpha_rate=1.0, sigma=1.0)
        ev = simulate(model, geom.density_pair(), seed=11)
        assert len(ev) > 5e4
        prof = estimate_profile_coeffs(ev, phase, m=4)
        amps = prof.amps_sq()
        assert amps[0] / amps.sum() >= 0.95
        # efficiency vs the generating profile approaches 1 with event count
        assert template_efficiency(HarmonicTemplate(amps), single_harmonic()) > 0.99


def _edge_phases():
    """Phases at the kernel's edges: signed zeros, a tiny negative phase,
    the last double below 1, table points and their neighbours, midpoints
    between table points and large phases with fractions."""
    k = np.arange(1025) / 1024
    big = np.array([1e10, -1e10])[:, None] + np.array([0.0, 0.25, 0.3, 0.5,
                                                       0.7, 0.999])
    return np.concatenate([
        [0.0, -0.0, -1e-20, 1.0 - 2.0**-53, -0.5, -0.3, -2.0**-60],
        k, np.nextafter(k, 2.0), np.nextafter(k, -1.0),
        (np.arange(1024) + 0.5) / 1024, big.ravel()])


def _mp_phasor_errors(phase):
    """|_unit_phasors(phase) - e^{2 pi i phase}| / u, the oracle at 100
    digits and the exact double phase."""
    u = 2.0**-53
    z = _unit_phasors(phase)
    with mpmath.workdps(100):
        return np.array([
            float(abs(mpmath.mpc(zj.real, zj.imag)
                      - mpmath.expjpi(2 * mpmath.mpf(float(p))))) / u
            for zj, p in zip(z, phase)])


class TestUnitPhasors:
    def test_within_two_u_of_mpmath(self):
        """Within 2 u of e^{2 pi i phase}, and 6 u for a phase in (-1/2, 0),
        where phase % 1.0 rounds."""
        rng = np.random.default_rng(31)
        phase = np.concatenate([rng.uniform(0.0, 1.0, 4000),
                                rng.uniform(-1.0, 1.0, 2000),
                                rng.uniform(-1e6, 1e6, 4000),
                                _edge_phases()])
        errors = _mp_phasor_errors(phase)
        rounds = (phase > -0.5) & (phase < 0)
        assert errors[~rounds].max() <= 2.0
        assert errors[rounds].max() <= 6.0

    def test_table_within_half_an_ulp(self):
        """Each part of the 1025-point table within 0.5 u + 2^-11 u of
        exact where long double has a 64-bit mantissa, else 1 u."""
        u = 2.0**-53
        bound = 0.5 + 2.0**-11 if np.finfo(np.longdouble).nmant >= 63 else 1.0
        with mpmath.workdps(100):
            for k in range(1025):
                exact = mpmath.expjpi(mpmath.mpf(k) / 512)
                assert abs(lightcurve._TABLE_RE[k] - exact.real) <= bound * u
                assert abs(lightcurve._TABLE_IM[k] - exact.imag) <= bound * u

    def test_reduction_is_mod_one_bit_for_bit(self):
        rng = np.random.default_rng(32)
        phase = np.concatenate([_edge_phases(), rng.uniform(-1e6, 1e6, 1000),
                                rng.uniform(-1.0, 1.0, 1000),
                                -1e-300 * rng.uniform(size=10),
                                [2.0**60, -2.0**60, 1e300, -1e300]])
        reduced = phase - np.floor(phase)
        assert np.array_equal(reduced.view(np.int64), (phase % 1.0).view(np.int64))

    def test_non_finite_phase_gives_nan(self):
        z = _unit_phasors(np.array([np.nan, np.inf, -np.inf, 0.25]))
        assert np.isnan(z[:3]).all()
        assert z[3] == pytest.approx(1j, abs=1e-26)

    def test_elementwise_across_chunks_and_shapes(self):
        """Bits of a phasor depend on its phase alone: not on the chunk it
        falls in, the array's length or shape."""
        rng = np.random.default_rng(33)
        phase = rng.uniform(-1e4, 1e4, 3 * lightcurve._CHUNK + 5)
        whole = _unit_phasors(phase)
        parts = np.concatenate([_unit_phasors(phase[i:i + 1000])
                                for i in range(0, phase.size, 1000)])
        assert np.array_equal(whole, parts)
        assert np.array_equal(_unit_phasors(phase[:6].reshape(2, 3)),
                              whole[:6].reshape(2, 3))
        assert _unit_phasors(phase[7]) == whole[7]

    def test_threads_share_no_scratch(self):
        """Many threads at once, each with its own phases, get the serial
        bits: no thread writes into another's scratch."""
        rng = np.random.default_rng(34)
        phases = [rng.uniform(-1e3, 1e3, 2 * lightcurve._CHUNK + 17)
                  for _ in range(8)]
        want = [_unit_phasors(p) for p in phases]
        same = [None] * len(phases)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run(i):
                same[i] = all(np.array_equal(_unit_phasors(phases[i]), want[i])
                              for _ in range(5))
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(phases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(same)
