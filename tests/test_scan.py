import math
import threading

import numpy as np
import pytest
from scipy import stats

from photonperiod import (
    HarmonicTemplate,
    LightCurveProfile,
    PhaseModel,
    RateModel,
    ScanSpec,
    fourier_coefficients,
    p_value,
    qt_statistic,
    scan,
    simulate,
)
from photonperiod import detector
from photonperiod.auxmodel import DiskGeometry
from photonperiod.detector import _canonical, _sum_w2
from photonperiod.lightcurve import phase_of
from photonperiod.scan import ScanResult, frequency_grid

GEOM = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0, sigma=1.0)
DENS = GEOM.density_pair()


class TestGrid:
    def test_step_arithmetic(self):
        spec = ScanSpec(f_lo=1.0, f_hi=1.01, oversample=10.0)
        grid = frequency_grid(spec, 1e4, 10)
        assert grid.size == 10001
        assert grid[1] - grid[0] == pytest.approx(1e-6, rel=1e-12)
        assert grid[0] == 1.0
        assert grid[-1] <= 1.01 + 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(f_lo=2.0, f_hi=1.0)
        with pytest.raises(ValueError):
            ScanSpec(f_lo=1.0, f_hi=2.0, oversample=0.5)
        with pytest.raises(ValueError, match="fdot steps"):
            ScanSpec(f_lo=1.0, f_hi=2.0, fdot=(0.0, 1e-9, 0))

    def test_fdot_range(self):
        spec = ScanSpec(f_lo=1.0, f_hi=2.0, fdot=(-1e-6, 1e-6, 5))
        vals = spec.fdot_values()
        assert vals.size == 5
        assert vals[0] == -1e-6 and vals[-1] == 1e-6

    def test_grid_too_large_rejected(self):
        spec = ScanSpec(f_lo=1.0, f_hi=2.0, max_points=10)
        t = np.array([0.5])
        with pytest.raises(ValueError, match="grid"):
            scan(t, np.array([1.0]), HarmonicTemplate([1.0]), 100.0, spec)


class TestScanResult:
    def test_best_is_max_qt_when_p_values_tie(self):
        res = ScanResult(f=np.array([1.0, 1.1, 1.2, 1.3, 1.4]),
                         fdot=np.zeros(5),
                         qt=np.array([40.0, 90.0, 150.0, 120.0, 95.0]),
                         p=np.array([1e-12, 0.0, 0.0, 0.0, 0.0]), trials=5)
        assert res.best == {"f": 1.2, "fdot": 0.0, "qt": 150.0,
                            "p_value": 0.0, "trials": 5}


class TestScan:
    def _signal_events(self, f=5.0, seed=0):
        prof = LightCurveProfile(np.array([0.5 + 0j]), eta=1.0)
        model = RateModel(mu=100.0, theta=0.5, profile=prof,
                          phase=PhaseModel(f=f), T=100.0)
        return simulate(model, DENS, seed=seed)

    def test_recovers_injected_frequency(self):
        ev = self._signal_events(f=5.0)
        w = np.ones(len(ev))
        spec = ScanSpec(f_lo=4.99, f_hi=5.01, oversample=5.0)
        res = scan(ev, w, HarmonicTemplate([1.0, 0.2]), 100.0, spec)
        assert abs(res.best["f"] - 5.0) < 1.0 / 100.0
        assert res.best["p_value"] < 1e-10
        assert res.best["trials"] == res.trials == res.f.size

    def test_progressive_rotation_matches_direct(self):
        """Q_T along the grid agrees with a fresh per-point evaluation."""
        ev = self._signal_events(seed=1)
        w = np.ones(len(ev))
        tpl = HarmonicTemplate([1.0, 0.3, 0.1])
        spec = ScanSpec(f_lo=4.995, f_hi=5.005, oversample=3.0)
        res = scan(ev, w, tpl, 100.0, spec)
        for k in range(0, res.f.size, max(1, res.f.size // 7)):
            an = fourier_coefficients(ev, w, PhaseModel(f=res.f[k]), 3)
            assert res.qt[k] == pytest.approx(qt_statistic(an, tpl, 100.0),
                                              rel=1e-8)

    def test_long_grid_drift_within_stated_bound(self):
        """Over 1e4 rotations A_n stays within the scan's stated bound of a
        direct evaluation at the grid frequency: drift (23 + 30 k) n u sum w,
        the direct sum's own (23 n + 2 log2 N + 20) u sum w, and the rounding
        of f_k and of both phases, under 12 u |phi| cycles a term."""
        u = 2.0**-53
        T, fdot, epoch = 1e4, 1e-8, -20.0
        rng = np.random.default_rng(8)
        t = rng.uniform(0.0, T, 1000)
        w = rng.uniform(0.0, 1.0, 1000)
        tpl = HarmonicTemplate([1.0, 0.5])
        spec = ScanSpec(f_lo=1.0, f_hi=1.5, fdot=fdot, oversample=1.0)
        res = scan(t, w, tpl, T, spec, epoch=epoch)
        assert res.trials == 10001
        sum_w = w.sum()
        log_n = np.log2(t.size)
        for k in list(range(0, res.trials, 500)) + [res.trials - 1]:
            model = PhaseModel(f=res.f[k], fdot=fdot, epoch=epoch)
            phi_max = np.abs(phase_of(model, t)).max()
            an = fourier_coefficients(t, w, model, tpl.m)
            n = np.arange(1, tpl.m + 1)
            eps = ((23 + 30 * k) * n + 2 * log_n + 20 + 23 * n + 2 * log_n
                   + 20 + 2 * np.pi * n * 12 * phi_max) * u * sum_w
            slack = 2.0 / T * np.dot(tpl.amps_sq, 2 * np.abs(an) * eps + eps**2)
            assert abs(res.qt[k] - qt_statistic(an, tpl, T)) <= slack

    def test_fdot_plane(self):
        ev = self._signal_events(seed=2)
        w = np.ones(len(ev))
        spec = ScanSpec(f_lo=4.999, f_hi=5.001, fdot=(-1e-5, 1e-5, 3),
                        oversample=2.0)
        res = scan(ev, w, HarmonicTemplate([1.0]), 100.0, spec)
        n_f = frequency_grid(spec, 100.0, 1).size
        assert res.trials == 3 * n_f
        assert abs(res.best["fdot"]) <= 1e-5

    def test_epoch_invariance_of_power(self):
        ev = self._signal_events(seed=3)
        w = np.ones(len(ev))
        spec = ScanSpec(f_lo=4.999, f_hi=5.001, oversample=2.0)
        tpl = HarmonicTemplate([1.0])
        r0 = scan(ev, w, tpl, 100.0, spec)
        r1 = scan(ev, w, tpl, 100.0, spec, epoch=31.7)
        assert np.allclose(r1.qt, r0.qt, rtol=1e-7)

    def test_bright_injection_p_values_distinct(self):
        """Deep in the tail every grid point keeps its own p-value: none is
        0, and p falls strictly as Q_T rises."""
        ev = self._signal_events(f=5.0)
        spec = ScanSpec(f_lo=4.99, f_hi=5.01, oversample=5.0)
        res = scan(ev, np.ones(len(ev)), HarmonicTemplate([1.0, 0.3]), 100.0,
                   spec)
        assert res.p.min() < 1e-200
        assert np.all(res.p > 0)
        rising = np.argsort(res.qt)
        assert np.all(np.diff(res.qt[rising]) > 0)
        assert np.all(np.diff(res.p[rising]) < 0)

    def test_p_equals_p_value_at_each_point(self):
        """scan sums w^2 as detect does, pairwise in (t, w) order, so every
        grid point's p is p_value at its Q_T and detect's sum w^2, bit for
        bit."""
        rng = np.random.default_rng(6)
        t = rng.uniform(0.0, 100.0, 9845)
        w = rng.uniform(0.0, 1.0, 9845)
        sum_w2 = _sum_w2(_canonical(t, w)[1])
        # an exactly rounded sum would round differently
        assert sum_w2 != math.fsum(w * w)
        tpl = HarmonicTemplate([1.0, 0.4, 0.1])
        res = scan(t, w, tpl, 100.0, ScanSpec(f_lo=1.0, f_hi=1.1,
                                             oversample=2.0))
        assert res.p.tolist() == [p_value(q, sum_w2, tpl, 100.0)
                                  for q in res.qt]

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="weighted"):
            scan(np.array([1.0]), np.array([0.0]), HarmonicTemplate([1.0]),
                 10.0, ScanSpec(f_lo=1.0, f_hi=1.1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            scan(np.array([1.0, 2.0]), np.array([1.0]), HarmonicTemplate([1.0]),
                 10.0, ScanSpec(f_lo=1.0, f_hi=1.1))

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_weight_rejected(self, bad):
        """scan checks weights as detect does, before any tail probability."""
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 100.0, 200))
        w = np.ones(200)
        w[17] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scan(t, w, HarmonicTemplate([1.0]), 100.0,
                 ScanSpec(f_lo=1.0, f_hi=1.02))


class TestBlocks:
    """3 blocks of 2^16 events and 5 more, on 3 fdot rows."""

    T, EPOCH = 1e3, 311.0
    TPL = HarmonicTemplate([1.0, 0.4, 0.1])
    SPEC = ScanSpec(f_lo=2.0, f_hi=2.0011, fdot=(-1e-6, 1e-6, 3),
                    oversample=1.0)

    def _events(self):
        rng = np.random.default_rng(41)
        n = 3 * 2**16 + 5
        return rng.uniform(0.0, self.T, n), rng.uniform(0.0, 1.0, n)

    def _scan(self, t, w):
        return scan(t, w, self.TPL, self.T, self.SPEC, epoch=self.EPOCH)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_independent_of_worker_count(self, monkeypatch, workers):
        """Q_T and p are bit-identical on the default workers (every CPU) and
        on `workers`, and no thread outlives a call."""
        t, w = self._events()
        threads = threading.active_count()
        default = self._scan(t, w)
        assert threading.active_count() == threads
        monkeypatch.setattr(detector, "_cpus", lambda: workers)
        res = self._scan(t, w)
        assert threading.active_count() == threads
        assert res.qt.tolist() == default.qt.tolist()
        assert res.p.tolist() == default.p.tolist()

    def test_first_point_of_each_row_is_detects(self):
        """Each fdot row's first point sums detect's blocks in detect's
        order: its Q_T is qt_statistic of fourier_coefficients, bit for
        bit."""
        t, w = self._events()
        res = self._scan(t, w)
        n_f = frequency_grid(self.SPEC, self.T, self.TPL.m).size
        assert res.trials == 3 * n_f and n_f > 1
        for i, fdot in enumerate(self.SPEC.fdot_values()):
            model = PhaseModel(f=self.SPEC.f_lo, fdot=fdot, epoch=self.EPOCH)
            an = fourier_coefficients(t, w, model, self.TPL.m)
            assert res.qt[i * n_f] == qt_statistic(an, self.TPL, self.T)


    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_frequency_rows_are_detects(self, monkeypatch, workers):
        """A grid of one frequency (f_hi - f_lo below one step) is the
        kernel's one-point path: each row's Q_T and p are qt_statistic and
        p_value of fourier_coefficients, bit for bit, on any worker
        count."""
        monkeypatch.setattr(detector, "_cpus", lambda: workers)
        spec = ScanSpec(f_lo=2.0, f_hi=2.0001, fdot=(-1e-6, 1e-6, 3),
                        oversample=1.0)
        assert frequency_grid(spec, self.T, self.TPL.m).size == 1
        t, w = self._events()
        res = scan(t, w, self.TPL, self.T, spec, epoch=self.EPOCH)
        assert res.trials == 3
        sum_w2 = _sum_w2(_canonical(t, w)[1])
        for i, fdot in enumerate(spec.fdot_values()):
            model = PhaseModel(f=spec.f_lo, fdot=fdot, epoch=self.EPOCH)
            qt = qt_statistic(fourier_coefficients(t, w, model, self.TPL.m),
                              self.TPL, self.T)
            assert res.qt[i] == qt
            assert res.p[i] == p_value(qt, sum_w2, self.TPL, self.T)


class TestNullScanCalibration:
    def test_minimum_p_follows_trials_count(self):
        """With N independent grid points the smallest raw p-value is
        Beta(1, N); spacing 1/T makes adjacent points nearly independent."""
        T = 100.0
        n_grid = 256
        spec = ScanSpec(f_lo=1.0, f_hi=1.0 + (n_grid - 1) / T + 1e-9,
                        oversample=1.0)
        tpl = HarmonicTemplate([1.0])
        rng = np.random.default_rng(2026)
        min_ps = []
        for _ in range(200):
            n = rng.poisson(2000)
            t = rng.uniform(0, T, n)
            res = scan(t, np.ones(n), tpl, T, spec)
            assert res.trials == n_grid
            min_ps.append(res.p.min())
        ks = stats.kstest(np.asarray(min_ps),
                          lambda x: 1.0 - (1.0 - x) ** n_grid)
        assert ks.pvalue > 0.001
