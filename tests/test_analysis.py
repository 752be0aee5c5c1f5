import numpy as np
import pytest
from _oracles import causality_check

from evostab import (DaeLaw, DecayFit, EvolutionaryProblem, Signal, TimeGrid,
                     fit_decay_rate, gaussian_pulse, solve, verify_stability)


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


class TestCausalityCheck:
    def test_identical_forcings(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        assert causality_check(dae_solve_fn, f, f, 4.0) == 0.0
        zero = Signal.zeros(g)  # a zero solution has nothing to compare
        assert causality_check(dae_solve_fn, zero, zero, 4.0) == 0.0

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
