import types

import numpy as np
import pytest

from photonperiod import (
    HarmonicTemplate,
    LightCurveProfile,
    PhaseModel,
    RateModel,
    mismatch_factor,
    null_moments,
    predicted_snr,
    threshold_theta,
)
from photonperiod import power
from photonperiod.auxmodel import DiskGeometry
from photonperiod.cli import _json_line
from photonperiod.detector import fourier_coefficients
from photonperiod.power import fit_mismatch_kappa, mismatch_scan
from photonperiod.simulator import expected_count, simulate

GEOM = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0, sigma=1.0)
DENS = GEOM.density_pair()

SRC = LightCurveProfile(np.array([0.5 + 0j]), eta=1.0)
TPL = HarmonicTemplate([1.0])


class TestPredictedSnr:
    def test_hand_computed_single_harmonic(self):
        # match = 2 g a / (2 sqrt(a^2)) = g = 0.25; snr = theta^2 T mu0 eff g
        res = predicted_snr(0.1, 1000.0, 5.0, 2.0, TPL, SRC)
        assert res.snr == pytest.approx(0.01 * 1000.0 * 5.0 * 2.0 * 0.25)
        assert res.template_match == pytest.approx(0.25)

    def test_zero_theta_gives_zero(self):
        assert predicted_snr(0.0, 1000.0, 5.0, 1.0, TPL, SRC).snr == 0.0

    def test_linear_in_duration(self):
        s1 = predicted_snr(0.1, 100.0, 5.0, 1.0, TPL, SRC).snr
        s2 = predicted_snr(0.1, 300.0, 5.0, 1.0, TPL, SRC).snr
        assert s2 == pytest.approx(3.0 * s1)

    def test_quadratic_in_theta(self):
        s1 = predicted_snr(0.1, 100.0, 5.0, 1.0, TPL, SRC).snr
        s2 = predicted_snr(0.2, 100.0, 5.0, 1.0, TPL, SRC).snr
        assert s2 == pytest.approx(4.0 * s1)

    def test_monotone_in_efficiency(self):
        s1 = predicted_snr(0.1, 100.0, 5.0, 1.0, TPL, SRC).snr
        s2 = predicted_snr(0.1, 100.0, 5.0, 4.0, TPL, SRC).snr
        assert s2 == pytest.approx(4.0 * s1)

    def test_matched_template_is_optimal(self):
        """Among templates with the same L2 norm of amplitudes, the one
        proportional to the source harmonic powers maximizes the snr."""
        src = LightCurveProfile.unchecked(
            np.sqrt([0.35, 0.77, 0.43, 0.17, 0.26]).astype(complex), eta=0.8)
        g = src.amps_sq() * src.eta**2
        best = predicted_snr(0.1, 100.0, 5.0, 1.0, HarmonicTemplate(g), src).snr
        rng = np.random.default_rng(11)
        norm_g = np.sqrt(np.sum(g * g))
        for _ in range(50):
            a = g + rng.normal(scale=0.1, size=5)
            a = np.clip(a, 1e-6, None)
            a *= norm_g / np.sqrt(np.sum(a * a))
            snr = predicted_snr(0.1, 100.0, 5.0, 1.0, HarmonicTemplate(a), src).snr
            assert snr <= best * (1 + 1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            predicted_snr(1.5, 100.0, 5.0, 1.0, TPL, SRC)
        with pytest.raises(ValueError):
            predicted_snr(0.1, -1.0, 5.0, 1.0, TPL, SRC)
        with pytest.raises(ValueError):
            predicted_snr(0.1, 100.0, 5.0, 0.0, TPL, SRC)

    def test_json(self):
        import json
        res = predicted_snr(0.1, 100.0, 5.0, 1.0, TPL, SRC)
        doc = json.loads(_json_line(res))
        assert doc["snr"] == res.snr
        assert doc["theta"] == 0.1


class TestNullMoments:
    def test_single_harmonic(self):
        mean, var = null_moments(TPL, 10.0, 5.0)
        # scale = 0.5; mean = 2 * scale, var = 4 * scale^2
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(1.0)

    def test_multi_harmonic(self):
        tpl = HarmonicTemplate([1.0, 0.5])
        mean, var = null_moments(tpl, 1.0, 1.0)
        assert mean == pytest.approx(2.0 * 1.5)
        assert var == pytest.approx(4.0 * 1.25)


class TestThresholdTheta:
    def test_inverts_snr(self):
        th = threshold_theta(1000.0, 5.0, 2.0, TPL, SRC, target_snr=5.0)
        assert predicted_snr(th, 1000.0, 5.0, 2.0, TPL, SRC).snr == pytest.approx(5.0)

    def test_quadruple_duration_halves_threshold(self):
        t1 = threshold_theta(100.0, 5.0, 1.0, TPL, SRC, target_snr=5.0)
        t4 = threshold_theta(400.0, 5.0, 1.0, TPL, SRC, target_snr=5.0)
        assert t4 == pytest.approx(0.5 * t1, rel=1e-12)

    def test_orthogonal_template_rejected(self):
        tpl = HarmonicTemplate([0.0, 1.0])  # no overlap with single-harmonic source
        with pytest.raises(ValueError, match="orthogonal"):
            threshold_theta(100.0, 5.0, 1.0, tpl, SRC, target_snr=5.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            threshold_theta(100.0, 5.0, 1.0, TPL, SRC, target_snr=-1.0)


@pytest.mark.parametrize("call, message", [
    # a HarmonicTemplate has a positive power: bare powers reach the check
    (lambda: predicted_snr(0.1, 100.0, 5.0, 1.0,
                           types.SimpleNamespace(amps_sq=np.zeros(2)), SRC),
     "empty template"),
    (lambda: mismatch_scan(_model(), DENS, [0, 1], [0.1], replicates=2),
     "harmonics must be >= 1"),
], ids=["empty-template", "harmonic-below-1"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _model(theta=1.0, mu=50.0, T=200.0, gamma=0.45):
    prof = LightCurveProfile(np.array([gamma], dtype=complex), eta=1.0)
    return RateModel(mu=mu, theta=theta, profile=prof, phase=PhaseModel(f=5.0), T=T)


class TestMismatch:
    def test_zero_offset_is_one(self):
        m = _model()
        assert mismatch_factor(m, DENS, 1, 0.0, replicates=2, seed=0) == 1.0
        # answered before simulating: no densities are needed
        assert mismatch_factor(m, None, 1, 0.0) == 1.0

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            mismatch_factor(_model(), DENS, 1, 1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mismatch_factor(_model(), DENS, 1, 0.1, mode="nonsense")

    def test_factor_tracks_sinc_squared(self):
        m = _model()
        f = mismatch_factor(m, DENS, 1, 0.3, replicates=60, seed=1)
        expected = np.sinc(0.3) ** 2  # numpy sinc(x) = sin(pi x)/(pi x)
        assert f == pytest.approx(expected, abs=0.12)

    def test_kappa_near_pi_sq_over_three(self):
        # 1 - sinc^2(x) ~ (pi^2 / 3) x^2 for small x
        kappa, se = fit_mismatch_kappa(_model(), DENS, 1, replicates=60, seed=3)
        assert kappa == pytest.approx(np.pi**2 / 3.0, abs=1.2)

    def test_scan_table_shape(self):
        rows = mismatch_scan(_model(), DENS, [1, 2], [0.0, 0.2],
                             replicates=20, seed=4)
        assert len(rows) == 4
        assert rows[0] == (1, 0.0, 1.0, 0.0)
        for n, d, factor, se in rows:
            assert n in (1, 2) and d in (0.0, 0.2)
            assert se >= 0.0
            assert type(factor) is float and type(se) is float
        # mismatch_factor is the table's factor, bit for bit
        assert mismatch_factor(_model(), DENS, 2, 0.2, replicates=20,
                               seed=4) == rows[3][2]

    def test_unknown_mode_and_regime_rejected_everywhere(self):
        # checked before any simulation: no densities are needed
        m = _model()
        with pytest.raises(ValueError, match="unknown mode"):
            fit_mismatch_kappa(m, None, 1, mode="nonsense", replicates=2)
        with pytest.raises(ValueError, match="unknown mode"):
            mismatch_scan(m, None, [1], [0.1], mode="nonsense", replicates=2)
        with pytest.raises(ValueError, match="regime"):
            mismatch_scan(m, None, [1], [0.1, 1.5], replicates=2)
        with pytest.raises(ValueError, match="regime"):
            fit_mismatch_kappa(m, None, 1, replicates=2, deltas=(0.1, -1.0))
        with pytest.raises(ValueError, match="unknown mode"):
            mismatch_factor(m, None, 1, 0.0, mode="nonsense")


def _count_simulations(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(power, "simulate", counting)
    return calls


@pytest.mark.parametrize("run", [
    lambda m, r: mismatch_factor(m, DENS, 2, 0.2, replicates=r, seed=5),
    lambda m, r: fit_mismatch_kappa(m, DENS, 2, replicates=r, seed=5),
    lambda m, r: mismatch_scan(m, DENS, [1, 2, 3], [0.0, 0.1, -0.2],
                               mode="f-and-fdot", replicates=r, seed=5),
], ids=["factor", "kappa", "scan"])
def test_each_replicate_is_simulated_once(monkeypatch, run):
    calls = _count_simulations(monkeypatch)
    run(_model(T=50.0), 7)
    assert len(calls) == 7


@pytest.mark.parametrize("mode", ["f-only", "f-and-fdot"])
def test_excess_table_equals_one_pair_at_a_time(mode):
    """Each (n, Delta) entry of the table is, bit for bit, the estimate from
    simulating the replicates again for that pair alone."""
    model, harmonics, deltas = _model(T=50.0), [1, 2, 3], [0.0, 0.15, -0.3]
    replicates, seed = 6, 9
    excess, stderr = power._excess(model, DENS, harmonics, deltas, mode,
                                   replicates, seed, 0.0)
    assert excess.shape == stderr.shape == (3, 3)
    for i, n in enumerate(harmonics):
        for j, d in enumerate(deltas):
            fdot = d / model.T**2 if mode == "f-and-fdot" else 0.0
            phase = PhaseModel(f=5.0 + d / model.T, fdot=0.0 + fdot)
            powers = []
            for child in np.random.SeedSequence(seed).spawn(replicates):
                ev = simulate(model, DENS, seed=child)
                an = fourier_coefficients(ev, np.ones(len(ev)), phase, n)
                powers.append(np.abs(an[n - 1]) ** 2)
            powers = np.array(powers)
            assert excess[i, j] == np.mean(powers) - expected_count(model)
            assert stderr[i, j] == np.std(powers, ddof=1) / np.sqrt(replicates)


def test_replicates_without_events_have_no_power():
    """A replicate of no events adds 0 to the mean |A_n|^2, not an error."""
    model = _model(mu=1e-6, T=50.0)  # 5e-5 events expected
    excess, _ = power._excess(model, DENS, [1, 2], [0.0, 0.1], "f-only", 4,
                              0, 0.0)
    assert np.all(excess == -expected_count(model))
