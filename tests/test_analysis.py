import numpy as np
import pytest

from evostab import (DaeLaw, DecayFit, EvolutionaryProblem, Signal, TimeGrid,
                     causality_check, fit_decay_rate, gaussian_pulse,
                     profile_to_csv, solve, verify_stability,
                     weighted_norm_profile)


def exp_signal(grid, rate, amp=1.0):
    return Signal(grid, amp * np.exp(-rate * grid.times)[:, None])


def dae_solve_fn(sig, rho=0.5):
    return solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, rho, sig))


class TestFitDecayRate:
    def test_pure_exponential_is_exact(self):
        g = TimeGrid(0.0, 1 / 32, 256)
        fit = fit_decay_rate(exp_signal(g, 0.7), (1.0, 5.0))
        assert fit.rate == pytest.approx(0.7, abs=1e-10)
        assert fit.rms_residual <= 1e-12

    def test_two_modes_tail_is_slow_mode(self):
        g = TimeGrid(0.0, 1 / 32, 512)
        t = g.times
        u = Signal(g, (np.exp(-t) - np.exp(-2.0 * t))[:, None])
        fit = fit_decay_rate(u, (4.0, 8.0))
        assert fit.rate == pytest.approx(1.0, abs=0.02)

    def test_constant_signal(self):
        g = TimeGrid(0.0, 1 / 32, 256)
        fit = fit_decay_rate(Signal(g, np.ones((256, 1))), (1.0, 5.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-10)

    def test_too_few_samples(self):
        g = TimeGrid(0.0, 1 / 32, 256)
        with pytest.raises(ValueError):
            fit_decay_rate(exp_signal(g, 0.7), (1.0, 1.1))

    def test_floor_excludes_noise(self):
        g = TimeGrid(0.0, 1 / 32, 512)
        t = g.times
        clean = np.exp(-3.0 * t)
        u = Signal(g, np.maximum(clean, 1e-12)[:, None])  # noise floor at 1e-12
        fit = fit_decay_rate(u, (0.0, 16.0), floor=1e-11)
        assert fit.rate == pytest.approx(3.0, abs=1e-6)

    def test_fields(self):
        g = TimeGrid(0.0, 1 / 32, 256)
        fit = fit_decay_rate(exp_signal(g, 0.7), (1.0, 5.0))
        assert isinstance(fit, DecayFit)
        assert fit.window == (1.0, 5.0)
        assert fit.samples_used >= 8


class TestWeightedNormProfile:
    def test_zero_signal(self):
        g = TimeGrid(0.0, 1 / 16, 128)
        prof = weighted_norm_profile(Signal.zeros(g, 2), [-1.0, 0.0, 1.0])
        assert [norm for _, norm in prof] == [0.0, 0.0, 0.0]

    def test_decaying_exponential_integral(self):
        # |e^{-t}|_{mu=-0.5}^2 = integral of e^{-2t} e^{t} over t >= 0 = 1;
        # jump at 0 sampled mid-cell so the Riemann sum is midpoint-accurate
        dt = 1 / 64
        g = TimeGrid(dt / 2 - 1.0, dt, 1024)
        u = Signal(g, np.where(g.times >= 0, np.exp(-g.times), 0.0)[:, None])
        (mu, norm), = weighted_norm_profile(u, [-0.5])
        assert mu == -0.5
        assert norm == pytest.approx(1.0, abs=1e-3)

    def test_profile_stable_under_grid_doubling(self):
        dt = 1 / 64
        norms = []
        for n in (1024, 2048):
            g = TimeGrid(dt / 2 - 1.0, dt, n)
            u = Signal(g, np.where(g.times >= 0, np.exp(-g.times), 0.0)[:, None])
            norms.append(weighted_norm_profile(u, [-0.5])[0][1])
        assert abs(norms[1] - norms[0]) < 1e-3

    def test_csv_output(self, tmp_path):
        path = tmp_path / "profile.csv"
        profile_to_csv([(-0.5, 1.25), (0.0, 0.5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu,norm"
        assert lines[1].startswith("-0.5,1.25")
        assert len(lines) == 3

    @pytest.mark.parametrize("profile", [[], [(-0.5, 1.25), (0.0, 0.1), (1e-5, 2.0 / 3.0)]])
    def test_csv_matches_savetxt(self, tmp_path, profile):
        profile_to_csv(profile, tmp_path / "new.csv")
        np.savetxt(tmp_path / "old.csv", profile, fmt="%.17g", delimiter=",",
                   header="mu,norm", comments="")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestCausalityCheck:
    def test_identical_forcings(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        assert causality_check(dae_solve_fn, f, f, 4.0) == 0.0

    def test_late_difference_invisible_early(self):
        g = TimeGrid(-2.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=2.0, width=0.2)
        h = Signal(g, f.values + gaussian_pulse(g, center=5.0, width=0.15).values)
        assert causality_check(dae_solve_fn, f, h, 4.0) <= 1e-7

    def test_pointwise_family_is_exact(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=2.0, width=0.2)
        h = Signal(g, f.values + gaussian_pulse(g, center=5.0, width=0.15).values)

        def algebraic(sig):
            return solve(EvolutionaryProblem(DaeLaw([[0.0]], [[2.0]]), None, 0.5, sig))

        assert causality_check(algebraic, f, h, 4.0) <= 1e-15

    def test_early_difference_rejected(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        h = gaussian_pulse(g, center=1.5, width=0.2)
        with pytest.raises(ValueError):
            causality_check(dae_solve_fn, f, h, 4.0)


class TestVerifyStability:
    def test_scalar_family_passes_at_certified_rate(self):
        g = TimeGrid(-2.0, 1 / 64, 1024)
        u = dae_solve_fn(gaussian_pulse(g, center=0.5, width=0.1))
        passed, fit = verify_stability(u, 2.0)
        assert passed
        assert fit.rate == pytest.approx(2.0, abs=0.01)

    def test_slow_decay_fails(self):
        g = TimeGrid(0.0, 1 / 32, 512)
        passed, fit = verify_stability(exp_signal(g, 0.3), 1.0)
        assert not passed
        assert fit.rate == pytest.approx(0.3, abs=1e-6)

    def test_explicit_margin(self):
        g = TimeGrid(0.0, 1 / 32, 512)
        passed, _ = verify_stability(exp_signal(g, 0.9), 1.0, margin=0.2)
        assert passed
        passed, _ = verify_stability(exp_signal(g, 0.9), 1.0, margin=0.05)
        assert not passed
