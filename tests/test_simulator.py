import numpy as np
import pytest
from scipy import stats

from photonperiod import (
    LightCurveProfile,
    PhaseModel,
    RateModel,
    expected_count,
    simulate,
)
from photonperiod.auxmodel import DiskGeometry
from photonperiod.simulator import (
    sensitivity_constant,
    sensitivity_ramp,
    sensitivity_window,
)

GEOM = DiskGeometry(R=5.0, rho=1.0 / (2.0 * np.pi), alpha_rate=1.0, sigma=1.0)
DENS = GEOM.density_pair()


def make_model(mu, theta, T, f=3.0, gamma=0.5, eta=1.0, sensitivity=None):
    profile = LightCurveProfile(np.array([gamma], dtype=complex), eta=eta)
    return RateModel(mu=mu, theta=theta, profile=profile,
                     phase=PhaseModel(f=f), T=T, sensitivity=sensitivity)


class TestExpectedCount:
    def test_constant(self):
        assert expected_count(make_model(7.0, 0.2, 30.0)) == pytest.approx(210.0)

    def test_explicit_constant_sensitivity(self):
        m = make_model(7.0, 0.2, 30.0, sensitivity=sensitivity_constant(0.5))
        assert expected_count(m) == pytest.approx(105.0, rel=1e-8)

    def test_ramp_averages(self):
        m = make_model(10.0, 0.0, 20.0, sensitivity=sensitivity_ramp(0.5, 1.5, 20.0))
        assert expected_count(m) == pytest.approx(200.0, rel=1e-8)

    def test_window(self):
        m = make_model(10.0, 0.0, 100.0, sensitivity=sensitivity_window(25.0, 75.0))
        assert expected_count(m) == pytest.approx(500.0, rel=1e-6)

    def test_window_edges_off_the_nodes(self):
        m = make_model(10.0, 0.0, 100.0, sensitivity=sensitivity_window(13.7, 61.3))
        assert expected_count(m) == pytest.approx(10.0 * (61.3 - 13.7), rel=1e-9)

    @pytest.mark.parametrize("window", [(0.0, 9.99), (0.01, 10.0)])
    def test_window_edge_in_an_end_gap(self, window):
        """An edge 1e-3 of T from an end of [0, T], outside the outermost
        Kronrod node of one interval, is found from the window's edges."""
        m = make_model(100.0, 0.0, 10.0, sensitivity=sensitivity_window(*window))
        assert expected_count(m) == pytest.approx(999.0, rel=1e-9)

    def test_mu0_time_average(self):
        m = make_model(10.0, 0.0, 20.0, sensitivity=sensitivity_ramp(0.5, 1.5, 20.0))
        assert m.mu0 == pytest.approx(10.0, rel=1e-8)


class TestRateBound:
    def test_bound_dominates_rate(self):
        m = make_model(5.0, 0.7, 50.0, gamma=0.3 + 0.2j, eta=0.9)
        t = np.linspace(0.0, 50.0, 20001)
        assert np.all(m.rate(t) <= m.rate_bound() + 1e-12)

    def test_bound_with_phase_offset(self):
        m = make_model(5.0, 0.7, 50.0, gamma=0.3 + 0.2j, eta=0.9)
        t = np.linspace(0.0, 50.0, 20001)
        assert np.all(m.rate(t, tau=0.37) <= m.rate_bound() + 1e-12)

    def test_narrow_window_is_found_at_its_edges(self):
        """A window narrower than the grid spacing, between grid points."""
        m = make_model(50.0, 0.3, 1e4,
                       sensitivity=sensitivity_window(100.2, 101.0))
        assert expected_count(m) == pytest.approx(40.0, rel=1e-9)
        assert m.rate_bound() == pytest.approx(65.0)
        ev = simulate(m, DENS, seed=1)
        assert 0 < len(ev) and np.all((ev.t >= 100.2) & (ev.t < 101.0))

    @staticmethod
    def _bump(edges=True):
        """5 on [100.2, 101), 1 elsewhere."""
        def c(t):
            t = np.asarray(t, dtype=float)
            return np.where((t >= 100.2) & (t < 101.0), 5.0, 1.0)
        if edges:
            c.edges = (100.2, 101.0)
        return c

    def test_narrow_bump_is_found_at_its_edges(self):
        m = make_model(50.0, 0.0, 1e4, sensitivity=self._bump())
        assert m.rate_bound() == 250.0
        ev = simulate(m, DENS, seed=2)
        inside = np.count_nonzero((ev.t >= 100.2) & (ev.t < 101.0))
        # 200 expected in the bump; a bound of 50 would clip it to 40
        assert inside > 150

    def test_rate_above_the_bound_raises(self):
        m = make_model(50.0, 0.0, 1e4, sensitivity=self._bump(edges=False))
        assert m.rate_bound() == 50.0  # the grid misses the bump
        with pytest.raises(ValueError, match="above the bound"):
            simulate(m, DENS, seed=2)

    def test_rate_at_the_triangle_bound_accepted(self):
        """One harmonic at its peak at every time (f so small that every
        phasor is 1 to the last bit), theta = 1: the rate is the bound."""
        profile = LightCurveProfile(np.array([0.5 + 0j]), eta=1.0)
        m = RateModel(mu=20.0, theta=1.0, profile=profile,
                      phase=PhaseModel(f=1e-300), T=10.0)
        assert np.all(m.rate(np.linspace(0.0, 10.0, 11)) == m.rate_bound())
        ev = simulate(m, DENS, seed=3)
        assert len(ev) > 0

    @pytest.mark.parametrize("model, message", [
        (make_model(50.0, 0.3, 10.0, sensitivity=sensitivity_constant(0.0)),
         "degenerate rate bound"),
        (make_model(50.0, 0.3, 10.0,
                    sensitivity=sensitivity_constant(np.inf)),
         "non-finite or degenerate rate bound"),
        # phase overflows past t = 1.4: the rate is nan there
        pytest.param(RateModel(mu=50.0, theta=0.3,
                               profile=LightCurveProfile(np.array([0.5 + 0j])),
                               phase=PhaseModel(f=1.0, fdot=1e308), T=10.0),
                     "non-finite rate encountered",
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["zero-bound", "infinite-bound", "nan-rate"])
    def test_rate_checks(self, model, message):
        with pytest.raises(ValueError, match=message):
            simulate(model, DENS, seed=1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_model(-1.0, 0.2, 10.0)
        with pytest.raises(ValueError):
            make_model(1.0, 1.5, 10.0)


class TestCounts:
    def test_mean_count_over_seeds(self):
        m = make_model(50.0, 0.3, 10.0)
        n_rep = 500
        counts = [len(simulate(m, DENS, seed=s)) for s in range(n_rep)]
        expected = expected_count(m)
        se = np.sqrt(expected / n_rep)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_count_variance_is_poisson(self):
        m = make_model(50.0, 0.3, 10.0)
        counts = np.array([len(simulate(m, DENS, seed=s)) for s in range(500)])
        # Poisson: variance equals the mean; chi-square dispersion test
        disp = np.sum((counts - counts.mean()) ** 2) / counts.mean()
        lo, hi = stats.chi2.ppf([0.0005, 0.9995], df=counts.size - 1)
        assert lo < disp < hi

    def test_zero_sensitivity_gives_no_events(self):
        m = make_model(100.0, 0.3, 100.0, sensitivity=sensitivity_window(25.0, 75.0))
        ev = simulate(m, DENS, seed=1)
        assert np.all((ev.t >= 25.0) & (ev.t < 75.0))

    def test_piecewise_sensitivity_segment_counts(self):
        levels = np.array([0.5, 1.5, 1.0, 0.0])

        def c(t):
            idx = np.clip((np.asarray(t, float) / 25.0).astype(int), 0, 3)
            return levels[idx]

        m = make_model(20.0, 0.0, 100.0, sensitivity=c)
        ev = simulate(m, DENS, seed=2)
        obs = np.histogram(ev.t, bins=[0.0, 25.0, 50.0, 75.0, 100.0])[0]
        exp = 20.0 * levels * 25.0
        assert obs[3] == 0
        chi2_stat = np.sum((obs[:3] - exp[:3]) ** 2 / exp[:3])
        assert stats.chi2.sf(chi2_stat, df=3) > 0.001


class TestPhaseDistribution:
    def test_null_phases_uniform(self):
        m = make_model(1000.0, 0.0, 100.0, f=3.137)
        ev = simulate(m, DENS, seed=3)
        phases = (3.137 * ev.t) % 1.0
        assert stats.kstest(phases, "uniform").pvalue > 0.001

    def test_pure_source_phase_histogram(self):
        # theta = 1, nu(phi) = 1 + cos(2 pi phi); integer number of periods
        m = make_model(500.0, 1.0, 200.0, f=5.0)
        ev = simulate(m, DENS, seed=4)
        phases = (5.0 * ev.t) % 1.0
        edges = np.linspace(0.0, 1.0, 65)
        obs = np.histogram(phases, bins=edges)[0]
        probs = np.diff(edges) + (np.sin(2 * np.pi * edges[1:])
                                  - np.sin(2 * np.pi * edges[:-1])) / (2 * np.pi)
        res = stats.chisquare(obs, f_exp=obs.sum() * probs)
        assert res.pvalue > 0.001

    def test_phase_offset_shifts_profile(self):
        m = make_model(500.0, 1.0, 200.0, f=5.0)
        ev = simulate(m, DENS, tau=0.25, seed=5)
        phases = (5.0 * ev.t + 0.25) % 1.0
        edges = np.linspace(0.0, 1.0, 65)
        obs = np.histogram(phases, bins=edges)[0]
        probs = np.diff(edges) + (np.sin(2 * np.pi * edges[1:])
                                  - np.sin(2 * np.pi * edges[:-1])) / (2 * np.pi)
        assert stats.chisquare(obs, f_exp=obs.sum() * probs).pvalue > 0.001


class TestAuxiliaryVariables:
    def test_source_fraction_matches_theta(self):
        m = make_model(100.0, 0.3, 100.0)
        ev = simulate(m, DENS, seed=6)
        n_src = int(np.count_nonzero(ev.is_source))
        expected = 0.3 * expected_count(m)
        assert abs(n_src - expected) < 4 * np.sqrt(expected)

    def test_source_angles_follow_psf(self):
        m = make_model(200.0, 1.0, 100.0)
        ev = simulate(m, DENS, seed=7)
        phi = ev.angle[ev.is_source]
        # truncated Rayleigh(1) on [0, 5]: mean is sqrt(pi/2) to 5 digits
        se = np.std(phi) / np.sqrt(phi.size)
        assert abs(np.mean(phi) - np.sqrt(np.pi / 2)) < 4 * se

    def test_background_angles_follow_disc(self):
        m = make_model(200.0, 0.0, 100.0)
        ev = simulate(m, DENS, seed=8)
        phi = ev.angle
        # 2 phi / R^2 on [0, 5] has mean 2R/3
        se = np.std(phi) / np.sqrt(phi.size)
        assert abs(np.mean(phi) - 10.0 / 3.0) < 4 * se

    def test_aux_independent_of_phase_within_class(self):
        m = make_model(500.0, 0.5, 100.0, f=5.0)
        ev = simulate(m, DENS, seed=9)
        for mask in (ev.is_source, ~ev.is_source):
            phi = ev.angle[mask]
            cphase = np.cos(2 * np.pi * 5.0 * ev.t[mask])
            r = np.corrcoef(phi, cphase)[0, 1]
            assert abs(r) < 4.0 / np.sqrt(phi.size)

    def test_times_sorted(self):
        ev = simulate(make_model(100.0, 0.3, 50.0), DENS, seed=10)
        assert np.all(np.diff(ev.t) >= 0)


class TestReproducibility:
    def test_identical_seeds_identical_streams(self):
        m = make_model(100.0, 0.4, 20.0)
        a = simulate(m, DENS, seed=12345)
        b = simulate(m, DENS, seed=12345)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.energy, b.energy)
        assert np.array_equal(a.angle, b.angle)
        assert np.array_equal(a.is_source, b.is_source)

    def test_seed_sequence_accepted(self):
        m = make_model(100.0, 0.4, 20.0)
        a = simulate(m, DENS, seed=np.random.SeedSequence(77))
        b = simulate(m, DENS, seed=np.random.SeedSequence(77))
        assert np.array_equal(a.t, b.t)

    def test_one_seed_sequence_object_twice(self):
        """simulate does not advance the SeedSequence it is given: a second
        call with the same object draws the same events, the ones a fresh
        SeedSequence of the same entropy and spawn key draws."""
        m = make_model(100.0, 0.4, 20.0)
        for seed in (np.random.SeedSequence(77),
                     np.random.SeedSequence(77).spawn(3)[2]):
            fresh = np.random.SeedSequence(seed.entropy,
                                           spawn_key=seed.spawn_key)
            a = simulate(m, DENS, seed=seed)
            b = simulate(m, DENS, seed=seed)
            c = simulate(m, DENS, seed=fresh)
            for x, y in ((a, b), (a, c)):
                assert np.array_equal(x.t, y.t)
                assert np.array_equal(x.energy, y.energy)
                assert np.array_equal(x.angle, y.angle)
                assert np.array_equal(x.is_source, y.is_source)
            assert seed.n_children_spawned == 0

    def test_streams_are_the_first_four_spawned_children(self):
        """The arrival and accept streams are the first two children that
        spawn(4) gives, so calibrate's replicates keep their events."""
        m = make_model(100.0, 0.4, 20.0)
        a = simulate(m, DENS, seed=np.random.SeedSequence(91).spawn(2)[1])
        children = np.random.SeedSequence(91).spawn(2)[1].spawn(4)
        arrival, accept = map(np.random.default_rng, children[:2])
        n_cand = arrival.poisson(m.rate_bound() * m.T)
        t_cand = np.sort(arrival.uniform(0.0, m.T, size=n_cand))
        keep = accept.uniform(size=n_cand) * m.rate_bound() < m.rate(t_cand)
        assert np.array_equal(a.t, t_cand[keep])

    def test_different_seeds_differ(self):
        m = make_model(100.0, 0.4, 20.0)
        a = simulate(m, DENS, seed=0)
        b = simulate(m, DENS, seed=1)
        assert not (len(a) == len(b) and np.array_equal(a.t, b.t))
