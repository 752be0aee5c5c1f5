"""Acceptance suite: one test per headline guarantee, at desk scale.

Each criterion gets a single test (c01..c12) so a verbose run reads as a
12-line scorecard.  Solves executed anywhere in this file register their
relative residuals in RESIDUALS, which c11 then audits.  Tolerances are
stated inline; grid choices keep the whole file comfortably under a minute.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from evostab import (DaeLaw, DelayLaw, EvolutionaryProblem, IntegroLaw,
                     Kernel, KernelMode, Signal, TimeGrid,
                     build_mixed_type_system, check_kernel_conditions,
                     convolve_time, fourier_laplace, gaussian_pulse,
                     indicators_from_intervals, inverse_fourier_laplace,
                     ivp_solve, kernel_hat, solve, solve_integro, step_exp,
                     translate, verify_stability, weighted_inner)
from evostab.signals import SpectralSignal

RESIDUALS: list = []


def tracked(u: Signal) -> Signal:
    RESIDUALS.append(u.meta["residual"])
    return u


def random_signal(grid, dim, rng):
    vals = rng.standard_normal((grid.n_steps, dim)) + 1j * rng.standard_normal((grid.n_steps, dim))
    return Signal(grid, vals)


def test_c01_transform_roundtrip_and_plancherel():
    # 50 random signals across the weight set; both identities to 1e-12
    g = TimeGrid(-1.0, 1 / 128, 256)
    rng = np.random.default_rng(2026)
    rhos = [-1.0, 0.0, 0.5, 2.0]
    for i in range(50):
        rho = rhos[i % len(rhos)]
        f = random_signal(g, 3, rng)
        F = fourier_laplace(f, rho)
        back = inverse_fourier_laplace(F)
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() <= 1e-12 * scale
        spectral = np.sum(np.abs(F.values) ** 2) * g.dxi
        direct = weighted_inner(f, f, rho).real
        assert spectral == pytest.approx(direct, rel=1e-12)


def test_c02_scalar_dae_matches_ode_oracle():
    # u' + 2u = step(t) e^{-t}  =>  u = e^{-t} - e^{-2t}; jump mid-cell
    dt = 1 / 128
    g = TimeGrid(-dt / 2, dt, 4096)
    f = step_exp(g, start=0.0, rate=1.0)
    prob = EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 1e-4, f)
    u = tracked(solve(prob))
    t = g.times
    exact = np.where(t >= 0.0, np.exp(-t) - np.exp(-2.0 * t), 0.0)
    n = g.n_steps
    interior = slice(n // 10, n - n // 10)
    assert np.abs(u.values[:, 0] - exact)[interior].max() <= 1e-6


def test_c03_closed_form_rates_match_oracles():
    assert DaeLaw(np.eye(2), 2.0 * np.eye(2)).rate() == 2.0

    # bisection on nu + e^nu = 2 (|M0| = 1, h = -1, c = 2)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid + np.exp(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    got = DelayLaw([[1.0]], [[2.0]], -1.0).rate()
    assert abs(got - root) <= 1e-9
    assert abs(got - 0.442854) <= 1e-4

    # quadratic nu^2 - 2 nu + 0.75 = 0, smaller root
    k = Kernel(modes=(KernelMode([[0.25]], 1.0),), nu0=0.5)
    quad = 1.0 - np.sqrt(1.0 - 0.75)
    assert abs(IntegroLaw(k, 1.0).rate() - quad) <= 1e-8


def test_c04_three_families_are_causal():
    # forcing supported in [2.5, 3.5]; nothing may leak below t = 2
    g = TimeGrid(-2.0, 1 / 64, 1024)
    f = gaussian_pulse(g, center=3.0, width=0.1, dim=2)
    runs = [
        tracked(solve(EvolutionaryProblem(
            DaeLaw(np.eye(2), 2.0 * np.eye(2)), None, 0.5, f))),
        tracked(solve(EvolutionaryProblem(
            DelayLaw(np.eye(2), 2.0 * np.eye(2), -0.5), None, 0.5, f))),
    ]
    g2 = TimeGrid(-2.0, 1 / 64, 2048)
    f2 = gaussian_pulse(g2, center=3.0, width=0.1, dim=2)
    k = Kernel(modes=(KernelMode(0.25 * np.eye(2), 1.0),), nu0=0.7)
    runs.append(tracked(solve_integro(k, 1.0, None, f2, 0.5)))
    for u in runs:
        before = u.grid.times < 2.0
        leak = np.abs(u.values[before]).max() / u.magnitudes().max()
        assert leak <= 1e-7


def test_c05_solution_independent_of_rho():
    g = TimeGrid(-2.0, 1 / 128, 1024)
    f = gaussian_pulse(g, center=1.0, width=0.15, dim=2)
    law = DaeLaw(np.eye(2), 2.0 * np.eye(2))
    ua = tracked(solve(EvolutionaryProblem(law, None, 0.5, f)))
    ub = tracked(solve(EvolutionaryProblem(law, None, 2.0, f)))
    n = g.n_steps
    interior = slice(n // 10, n - n // 10)
    diff = np.abs(ua.values - ub.values)[interior].max()
    assert diff <= 1e-6 * np.abs(ua.values).max()


def test_c06_mixed_system_verifies_certified_rate():
    p = 48
    ind0, ind1 = indicators_from_intervals(p, (0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0))
    sys_ = build_mixed_type_system(p, 1.0 / (p + 1), ind0, ind1, 1.0)
    assert DaeLaw(sys_.M0, sys_.M1).rate() == pytest.approx(1.0)
    g = TimeGrid(-2.0, 1 / 64, 1024)
    f = gaussian_pulse(g, center=0.5, width=0.1, dim=2 * p + 1)
    u = tracked(solve(EvolutionaryProblem(sys_.law(), sys_.A, 0.05, f)))
    passed, fit = verify_stability(u, 1.0)  # margin defaults to 5% + 0.01
    assert passed
    assert fit.rate >= 0.94


def test_c07_convolution_spectral_vs_quadrature():
    k = Kernel(modes=(KernelMode([[0.8]], 3.0),), nu0=0.5)
    rho = 1.0
    errs = []
    for dt_inv in (128, 256):
        g = TimeGrid(-2.0, 1 / dt_inv, 8 * dt_inv)
        u = gaussian_pulse(g, center=1.5, width=0.2)
        direct = convolve_time(k, u)
        u_hat = fourier_laplace(u, rho)
        mult = np.sqrt(2 * np.pi) * np.array(
            [kernel_hat(k, x - 1j * rho)[0, 0] for x in g.frequencies])
        spectral = inverse_fourier_laplace(
            SpectralSignal(g, rho, mult[:, None] * u_hat.values))
        errs.append(np.abs(spectral.values - direct.values).max()
                    / np.abs(direct.values).max())
    assert errs[1] <= 1e-4
    assert 3.0 <= errs[0] / errs[1] <= 5.0  # trapezoid is O(dt^2)


def test_c08_translation_spectral_equals_index_shift():
    g = TimeGrid(-1.0, 0.125, 64)
    rng = np.random.default_rng(7)
    for rho in (0.25, 1.0):
        for m in (1, 3, 17):
            f = random_signal(g, 2, rng)
            a = translate(f, -m * g.dt, rho, mode="spectral")
            b = translate(f, -m * g.dt, rho, mode="index")
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(f.values).max()


def test_c09_kernel_conditions_and_injected_violations():
    good = Kernel(modes=(KernelMode(np.diag([0.25, 0.1]), 1.0),
                         KernelMode(np.diag([0.05, 0.2]), 2.0)), nu0=0.4)
    assert check_kernel_conditions(good).passed

    non_hermitian = Kernel(modes=(KernelMode([[0.0, 0.1], [0.0, 0.0]], 1.0),),
                           nu0=0.5)
    rep = check_kernel_conditions(non_hermitian)
    assert not rep.hermitian_ok and not rep.passed

    a = np.diag([1.0, 2.0])
    b = np.array([[2.0, 1.0], [1.0, 2.0]])
    non_commuting = Kernel(modes=(KernelMode(0.05 * a, 2.0),
                                  KernelMode(0.05 * b, 3.0)), nu0=0.5)
    rep = check_kernel_conditions(non_commuting)
    assert not rep.commuting_ok and not rep.passed

    sign_flipped = Kernel(modes=(KernelMode([[-0.25]], 1.0),), nu0=0.5)
    rep = check_kernel_conditions(sign_flipped)
    assert not rep.sign_ok and not rep.passed


def test_c10_ivp_initial_gap_shrinks_linearly_in_dt():
    gaps = []
    for dt_inv in (64, 128, 256):
        g = TimeGrid(-4.0, 1 / dt_inv, 16 * dt_inv)
        q = EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.5, Signal.zeros(g, 1))
        u, gap = ivp_solve(q, [1.0])
        tracked(u)
        assert gap <= 10.0 / dt_inv + 1e-12  # 10 * dt * |M0 u0|
        gaps.append(gap)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_c11_all_solves_report_tiny_residuals():
    if not RESIDUALS:  # running this test alone still checks something
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        tracked(solve(EvolutionaryProblem(
            DaeLaw(np.eye(2), 2.0 * np.eye(2)), None, 0.5, f)))
    assert max(RESIDUALS) <= 1e-10
    assert len(RESIDUALS) >= 1


def test_c12_cli_verify_is_byte_deterministic(tmp_path, package_env):
    cfg = {
        "family": "mixed1d",
        "mixed": {"p": 48, "c": 1.0, "omega0": [0.0, 1.0 / 3.0],
                  "omega1": [1.0 / 3.0, 2.0 / 3.0]},
        "grid": {"t0": -2.0, "dt": 0.015625, "n_steps": 1024},
        "rho": 0.05,
        "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1},
    }
    cfg_path = tmp_path / "mixed.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "evostab.cli", "verify",
             "--config", str(cfg_path), "--out", out],
            capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
    for name in ("solution.csv", "decay.kv", "metadata.kv", "report.kv",
                 "config_echo.json"):
        b1 = open(os.path.join(outs[0], name), "rb").read()
        b2 = open(os.path.join(outs[1], name), "rb").read()
        assert b1 == b2, f"{name} differs between identical runs"
