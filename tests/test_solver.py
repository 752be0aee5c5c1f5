import math

import numpy as np
import pytest
from _oracles import dae_stepper, delay_stepper, volterra_integro_stepper
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evostab import (CertificationError, CustomLaw, DaeLaw, DelayLaw, EdgeMassError,
                     EdgeMassWarning, EvolutionaryProblem, IntegroLaw,
                     Kernel, KernelAdmissibilityError, KernelMode,
                     Signal, SingularFrequencyError, SpatialOperator, TimeGrid,
                     apply_forward, build_mixed_type_system, convolve_time,
                     fourier_laplace, gaussian_pulse,
                     indicators_from_intervals, inverse_fourier_laplace,
                     ivp_solve, kernel_hat, solve, solve_integro, step_exp,
                     support_lower_bound, weighted_norm)
from evostab.material import frequency_operator_stack
from evostab.signals import SpectralSignal
from evostab.solver import _band_order, _banded_solve, _chunks, _pencil_solve


def scalar_kernel(gamma=0.25, beta=1.0, nu0=0.5):
    return Kernel(modes=(KernelMode([[gamma]], beta),), nu0=nu0)


def dae_problem(f, rho=0.5):
    m1 = 2 * np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]])
    return EvolutionaryProblem(DaeLaw(np.eye(2), m1), None, rho, f)


def defective_dae(n=12, seed=21):
    """DaeLaw(I, U (3I + 1.9 N) U*) with U a seeded random unitary and N the
    shift matrix: H(M1) >= 3 - 1.9 cos(pi/(n+1)) > 0 certifies it (1.155 at
    n = 12), while K = (rho E + F)^-1 E is a single Jordan block."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DaeLaw(np.eye(n), u @ (3.0 * np.eye(n) + 1.9 * np.eye(n, k=1)) @ u.conj().T)


class TestSolve:
    def test_zero_forcing(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        u = solve(dae_problem(Signal.zeros(g, 2)))
        assert np.all(u.values == 0)
        assert u.meta["residual"] == 0.0

    def test_algebraic_family_is_pointwise(self):
        # M0 = 0 makes the equation (M1 + A) u = f at each sample
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        prob = EvolutionaryProblem(DaeLaw([[0.0]], [[2.0]]), None, 0.5, f)
        u = solve(prob)
        assert np.abs(u.values - f.values / 2.0).max() <= 1e-10

    def test_meta_and_residual(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        u = solve(dae_problem(gaussian_pulse(g, center=1.0, width=0.2, dim=2)))
        assert u.meta["residual"] <= 1e-10
        assert u.meta["family"] == "dae"
        assert u.meta["rho"] == 0.5
        assert 0.0 <= u.meta["edge_mass_rhs"] < 1e-8
        assert u.meta["warnings"] == ()

    def test_linearity(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        h = Signal(g, gaussian_pulse(g, center=2.5, width=0.4, dim=2).values * [1.0, -1.0])
        ua = solve(dae_problem(f + 2.0 * h))
        ub = solve(dae_problem(f))
        uc = solve(dae_problem(h))
        combo = ub.values + 2.0 * uc.values
        scale = np.abs(combo).max()
        assert np.abs(ua.values - combo).max() <= 1e-12 * scale

    def test_causality_support_bound(self):
        g = TimeGrid(-2.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=3.0, width=0.1, dim=2)
        u = solve(dae_problem(f))
        slb_f = support_lower_bound(f, 1e-7)
        slb_u = support_lower_bound(u, 1e-7)
        assert slb_u is not None and slb_u >= slb_f - 2.0 * g.dt - 1e-12
        pre = g.times < 2.0
        assert np.abs(u.values[pre]).max() <= 1e-7 * u.magnitudes().max()

    def test_delay_solution_matches_time_stepper(self):
        # method-of-steps trapezoid integration of
        # m0 u'(t) + u(t - 0.5) + m1 u(t) = f(t) with zero history
        g = TimeGrid(-2.0, 1 / 256, 4096)
        f = gaussian_pulse(g, center=3.0, width=0.3)
        law = DelayLaw([[1.0]], [[2.0]], -0.5)
        u = solve(EvolutionaryProblem(law, None, 0.5, f))
        ref = delay_stepper(1.0, 2.0, -0.5, f.values[:, 0].real, g.dt)
        n = g.n_steps
        inner = slice(n // 10, -n // 10)
        err = np.abs(u.values[inner, 0] - ref[inner]).max() / np.abs(ref).max()
        assert err <= 1e-4
        assert u.meta["residual"] <= 1e-10

    def test_dense_core_over_chunks_matches_direct_solve(self):
        # a delay law with non-diagonal M0 takes the dense core, here over
        # four chunks of frequencies; one LU solve of the whole stack agrees
        g = TimeGrid(-2.0, 1 / 64, 4096)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        law = DelayLaw([[1.0, 0.5], [0.5, 1.0]], 3.0 * np.eye(2), -0.5)
        u = solve(EvolutionaryProblem(law, None, 0.5, f))
        assert u.meta["core"] == "dense"
        assert len(_chunks(g.n_steps, 4)) == 4
        stack = frequency_operator_stack(law, g.frequencies, 0.5)
        x = np.linalg.solve(stack, fourier_laplace(f, 0.5).values[:, :, None])[:, :, 0]
        ref = inverse_fourier_laplace(SpectralSignal(g, 0.5, x)).values
        assert np.abs(u.values - ref).max() <= 1e-14 * np.abs(ref).max()
        assert u.meta["residual"] <= 1e-14

    def test_certification_gate(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        prob = EvolutionaryProblem(DaeLaw([[1.0]], [[-1.0]]), None, 0.5, f)
        with pytest.raises(CertificationError):
            solve(prob)
        u = solve(prob, check_certified=False)  # override still solves
        assert u.meta["residual"] <= 1e-10

    def test_singular_frequency(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        prob = EvolutionaryProblem(DaeLaw([[0.0]], [[0.0]]), None, 0.5, f)
        with pytest.raises(SingularFrequencyError) as exc:
            solve(prob, check_certified=False)
        assert hasattr(exc.value, "frequency")

    def test_singular_pencil(self):
        # det(lambda*M0 + M1) = 0 for every lambda although M0 != 0
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        law = DaeLaw(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        with pytest.raises(SingularFrequencyError) as exc:
            solve(EvolutionaryProblem(law, None, 0.5, f), check_certified=False)
        assert exc.value.index == 0

    def test_singular_frequency_on_the_dense_path(self):
        # lambda * M(1/lambda) = lambda - 0.5 vanishes at xi = 0 for rho = 0.5:
        # the batched LU fails and the per-frequency retry names the sample
        g = TimeGrid(-2.0, 1 / 16, 64)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        law = CustomLaw(1, lambda z: (1 - 0.5 * z) * np.eye(1))
        with pytest.raises(SingularFrequencyError) as exc:
            solve(EvolutionaryProblem(law, None, 0.5, f), check_certified=False)
        assert exc.value.index == 32
        assert exc.value.frequency == 0.0

    def test_edge_mass_warning_points_at_caller(self):
        # the pencil path, the dense path, solve_integro and ivp_solve all
        # attribute the warning to the line that called them
        g = TimeGrid(0.0, 1 / 16, 64)
        vals = np.exp(-(((g.times - 2.0) / 0.3) ** 2))[:, None].astype(complex)
        vals[-1, 0] = 1e-5
        f = Signal(g, vals)
        calls = [
            lambda: solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.1, f)),
            lambda: solve(EvolutionaryProblem(DelayLaw([[1.0]], [[2.0]], -0.5), None, 0.1, f)),
            lambda: solve_integro(scalar_kernel(), 1.0, None, f, 0.1),
            lambda: ivp_solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.1, f), [0.0]),
        ]
        for call in calls:
            with pytest.warns(EdgeMassWarning) as rec:
                call()
            assert [w.filename for w in rec] == [__file__]

    def test_edge_mass_warning_and_error(self):
        g = TimeGrid(0.0, 1 / 16, 64)
        vals = np.exp(-(((g.times - 2.0) / 0.3) ** 2))[:, None].astype(complex)
        vals_warn = vals.copy()
        vals_warn[-1, 0] = 1e-5
        prob = EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.1,
                                   Signal(g, vals_warn))
        with pytest.warns(EdgeMassWarning):
            u = solve(prob)
        assert len(u.meta["warnings"]) == 1

        vals_fail = vals.copy()
        vals_fail[-1, 0] = 0.5
        bad = EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.1,
                                  Signal(g, vals_fail))
        with pytest.raises(EdgeMassError):
            solve(bad)

    def test_solution_edge_mass_gate(self):
        # clean forcing; u' + m1 u = f decays too slowly for an 8-unit grid
        # at rho = 0.05, so the weighted solution keeps weight at the edges
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=0.5, width=0.1)
        with pytest.warns(EdgeMassWarning, match="solution edge mass"):
            u = solve(EvolutionaryProblem(DaeLaw([[1.0]], [[0.3]]), None, 0.05, f))
        assert u.meta["edge_mass_rhs"] < 1e-8
        assert len(u.meta["warnings"]) == 1
        # edge mass 0.73: the weighted solution has barely decayed in the grid
        with pytest.raises(EdgeMassError, match="solution mass"):
            solve(EvolutionaryProblem(DaeLaw([[1.0]], [[0.01]]), None, 0.05, f))

    def test_problem_validation(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        with pytest.raises(ValueError):
            EvolutionaryProblem(DaeLaw(np.eye(2), np.eye(2)), None, 0.0, f)
        with pytest.raises(ValueError):
            EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.5, f)  # dim
        with pytest.raises(ValueError):
            EvolutionaryProblem(DaeLaw(np.eye(2), np.eye(2)),
                                SpatialOperator(np.eye(3)), 0.5, f)

    @pytest.mark.parametrize("t0, end", [(0.0, 255.75), (-255.75, -255.75), (-100.0, 155.75)],
                             ids=["last", "first", "both"])
    def test_problem_refuses_overflowing_weights(self, t0, end):
        # at rho = 8, exp(rho t) overflows at the last sample, exp(-rho t) at
        # the first, or both; edge_mass was nan there, so the forcing gate
        # passed and the transform failed on inf
        g = TimeGrid(t0, 0.25, 1024)
        with pytest.raises(ValueError, match=rf"rho = 8.0 and the grid end t = {end}"):
            EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 8.0, Signal.zeros(g, 1))


def off_diagonal(m) -> bool:
    return bool(np.count_nonzero(m - np.diag(np.diagonal(m))))


class TestPencilPath:
    """DAE laws with non-diagonal M0 and integro laws with rotated modes are
    solved through one QZ factorisation; the dense operator stack and
    apply_forward are its oracles."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), rho=st.floats(0.05, 1.0))
    def test_matches_dense_lu(self, data, dim, rho):
        # M0 Hermitian PSD of rank 0..dim; M1 with positive definite
        # Hermitian part plus a skew part; A skew plus PSD (monotone)
        rank = data.draw(st.integers(0, dim))
        entries = hnp.arrays(float, (9, dim, dim), elements=st.floats(-1.0, 1.0))
        g_re, g_im, p_re, p_im, s_re, s_im, w, r, d = data.draw(entries)
        g = (g_re + 1j * g_im)[:, :rank]
        m0 = g @ g.conj().T
        p, sk = p_re + 1j * p_im, s_re + 1j * s_im
        m1 = p @ p.conj().T + 0.5 * np.eye(dim) + (sk - sk.conj().T)
        a = (w - w.T) + r @ r.T
        grid = TimeGrid(-2.0, 1 / 16, 128)
        pulse = gaussian_pulse(grid, center=1.0, width=0.3, dim=dim)
        f = Signal(grid, pulse.values * (d[0] + 0.1))
        law = DaeLaw(m0, m1)
        u = solve(EvolutionaryProblem(law, a, rho, f), check_certified=False)
        if off_diagonal(m0):  # a diagonal M0 may take the banded core
            assert u.meta["core"] == "pencil"

        xi = grid.frequencies
        stack = frequency_operator_stack(law, xi, rho) + a
        x = np.linalg.solve(stack, fourier_laplace(f, rho).values[:, :, None])[:, :, 0]
        ref = inverse_fourier_laplace(SpectralSignal(grid, rho, x)).values
        assert np.abs(u.values - ref).max() <= 1e-10 * np.abs(ref).max()
        assert u.meta["residual"] <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), n_modes=st.integers(1, 3),
           c=st.floats(0.5, 3.0), rho=st.floats(0.05, 1.0))
    def test_integro_matches_dense_lu(self, data, dim, n_modes, c, rho):
        # modes Q diag(d_j) Q* with one random unitary Q, beta_j > nu0 and
        # weighted L1 norm at nu0 at most 0.9; A skew plus PSD (monotone).
        # Compared in the rho-weighted norm the solver works in: unweighting
        # scales round-off by up to exp(14 rho) on this grid
        nu0 = 0.5
        entries = hnp.arrays(float, (5, dim, dim), elements=st.floats(-1.0, 1.0))
        q_re, q_im, w, r, d = data.draw(entries)
        q, _ = np.linalg.qr(q_re + 1j * q_im + 3.0 * np.eye(dim))
        diags = data.draw(hnp.arrays(float, (n_modes, dim), elements=st.floats(-1.0, 1.0)))
        gaps = data.draw(hnp.arrays(float, n_modes, elements=st.floats(0.1, 3.0)))
        l1 = np.sum(np.abs(diags).max(axis=1) / gaps)
        diags = diags * (0.9 / l1 if l1 > 0.9 else 1.0)
        modes = []
        for d_j, gap in zip(diags, gaps):
            g = (q * d_j) @ q.conj().T
            modes.append(KernelMode(0.5 * (g + g.conj().T), nu0 + gap))
        kernel = Kernel(tuple(modes), nu0)
        a = (w - w.T) + r @ r.T
        grid = TimeGrid(-2.0, 1 / 16, 256)
        pulse = gaussian_pulse(grid, center=1.0, width=0.3, dim=dim)
        f = Signal(grid, pulse.values * (d[0] + 0.1))
        law = IntegroLaw(kernel, c)
        xi = grid.frequencies
        lam = 1j * xi + rho
        stack = frequency_operator_stack(law, xi, rho) + a
        f_hat = fourier_laplace(f, rho).values
        w_lam = np.eye(dim) - sum(m.gamma / (m.beta + lam)[:, None, None] for m in modes)
        weight = np.exp(-rho * grid.times)[:, None]

        def dense(rhs):
            x = np.linalg.solve(stack, rhs[:, :, None])[:, :, 0]
            return weight * inverse_fourier_laplace(SpectralSignal(grid, rho, x)).values

        for u, ref in [
            (solve(EvolutionaryProblem(law, a, rho, f), check_certified=False), dense(f_hat)),
            (solve_integro(kernel, c, a, f, rho),
             dense(np.linalg.solve(w_lam, f_hat[:, :, None])[:, :, 0])),
        ]:
            assert np.abs(weight * u.values - ref).max() <= 1e-10 * np.abs(ref).max()
            assert u.meta["residual"] <= 1e-12
            if any(off_diagonal(m.gamma) for m in modes):  # diagonal modes may be banded
                assert u.meta["core"] == "pencil"

    def test_apply_forward_inverts_integro_solve(self):
        kernel = Kernel(modes=(KernelMode(np.diag([0.2, 0.1]), 1.0),
                               KernelMode(np.diag([0.05, 0.1]), 2.0)), nu0=0.5)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        g = TimeGrid(-2.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=0.5, width=0.1, dim=2)
        prob = EvolutionaryProblem(IntegroLaw(kernel, 1.0), a, 0.05, f)
        back = apply_forward(prob, solve(prob))
        assert np.abs(back.values - f.values).max() <= 1e-10 * np.abs(f.values).max()

    def test_apply_forward_inverts_mixed_system(self):
        p = 24
        ind0, ind1 = indicators_from_intervals(p, (0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0))
        sys_ = build_mixed_type_system(p, 1.0 / (p + 1), ind0, ind1, 1.0)
        g = TimeGrid(-2.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=0.5, width=0.1, dim=2 * p + 1)
        prob = EvolutionaryProblem(sys_.law(), sys_.A, 0.05, f)
        back = apply_forward(prob, solve(prob))
        assert np.abs(back.values - f.values).max() <= 1e-10 * np.abs(f.values).max()


def full_band(data, n, b, phase=np.pi):
    """An n x n complex matrix whose entries with |i - j| <= b all have
    modulus in [0.1, 1] and argument in [-phase, phase]; the rest are zero."""
    mod = data.draw(hnp.arrays(float, (n, n), elements=st.floats(0.1, 1.0)))
    arg = data.draw(hnp.arrays(float, (n, n), elements=st.floats(-phase, phase)))
    i, j = np.indices((n, n))
    return np.where(np.abs(i - j) <= b, mod * np.exp(1j * arg), 0.0)


def coercive_band(data, n, margin, max_b):
    """(H, S): H Hermitian with lambda_min(H) >= margin by diagonal dominance
    and S skew, both with the full band of a random bandwidth b <= max_b,
    and both turned by one random permutation that hides the band."""
    b = data.draw(st.integers(0, min(n - 1, max_b)))
    g = full_band(data, n, b, phase=1.0)  # Re g > 0, so no entry of H cancels
    h = 0.5 * (g + g.conj().T)
    np.fill_diagonal(h, np.abs(h).sum(axis=1) - np.abs(np.diagonal(h)) + margin)
    k = full_band(data, n, b)
    perm = np.array(data.draw(st.permutations(range(n))))
    return h[np.ix_(perm, perm)], (k - k.conj().T)[np.ix_(perm, perm)]


def diagonal_psd(data, n):
    """A diagonal M0 >= 0 of any rank."""
    entries = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
    return np.diag(data.draw(hnp.arrays(float, n, elements=entries)))


class TestBandedCore:
    """Laws whose frequency operator is diag d(lambda) + C with C banded and
    a positive coercivity floor take the pivot-free banded core; the QZ
    pencil and dense LU on the operator stack are its oracles, at the
    bounds of TestPencilPath.  Compared in the rho-weighted norm the solver
    works in."""

    @staticmethod
    def check(u, law, a, rho, f, pencil=None, rhs=None):
        grid, xi = f.grid, f.grid.frequencies
        f_hat = fourier_laplace(f, rho).values
        rhs = f_hat if rhs is None else rhs
        stack = frequency_operator_stack(law, xi, rho) + a
        refs = [np.linalg.solve(stack, rhs[:, :, None])[:, :, 0]]
        if pencil is not None:
            refs.append(_pencil_solve(*pencil, rho, xi, f_hat)[0])
        weight = np.exp(-rho * grid.times)[:, None]
        for x in refs:
            ref = weight * inverse_fourier_laplace(SpectralSignal(grid, rho, x)).values
            assert np.abs(weight * u.values - ref).max() <= 1e-10 * np.abs(ref).max()
        assert u.meta["core"] == "banded"
        assert u.meta["residual"] <= 1e-12
        assert u.meta["coercivity_ratio"] <= 1.0 + 1e-12

    @staticmethod
    def pulse(data, n):
        direction = data.draw(hnp.arrays(float, n, elements=st.floats(0.1, 1.0)))
        grid = TimeGrid(-2.0, 1 / 16, 128)
        return Signal(grid, gaussian_pulse(grid, center=1.0, width=0.3, dim=n).values * direction)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), rho=st.floats(0.05, 1.0))
    def test_dae_matches_pencil_and_dense_lu(self, data, n, rho):
        # C = M1 + a: positive definite Hermitian part plus a skew part; with
        # a pencil to fall back on, the banded core takes b <= 1 at n <= 8
        h, s = coercive_band(data, n, 0.5, 1)
        law, a = DaeLaw(diagonal_psd(data, n), h + 0.5 * s), 0.5 * s
        f = self.pulse(data, n)
        u = solve(EvolutionaryProblem(law, a, rho, f), check_certified=False)
        self.check(u, law, a, rho, f, pencil=law.frequency_form(a)[0])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), n_modes=st.integers(1, 3),
           c=st.floats(0.5, 3.0), rho=st.floats(0.05, 1.0))
    def test_integro_matches_pencil_and_dense_lu(self, data, n, n_modes, c, rho):
        # diagonal modes gamma_j >= 0 with beta_j > nu0 and weighted L1 norm
        # at nu0 at most 0.9, so Re(lambda / w_i) > 0; a PSD plus skew, banded
        nu0 = 0.5
        diags = data.draw(hnp.arrays(float, (n_modes, n), elements=st.floats(0.0, 1.0)))
        gaps = data.draw(hnp.arrays(float, n_modes, elements=st.floats(0.1, 3.0)))
        l1 = np.sum(diags.max(axis=1) / gaps)
        diags = diags * (0.9 / l1 if l1 > 0.9 else 1.0)
        modes = [KernelMode(np.diag(d_j), nu0 + gap) for d_j, gap in zip(diags, gaps)]
        kernel = Kernel(tuple(modes), nu0)
        h, s = coercive_band(data, n, 0.0, 1)
        law, a = IntegroLaw(kernel, c), h + s
        f = self.pulse(data, n)
        self.check(solve(EvolutionaryProblem(law, a, rho, f), check_certified=False),
                   law, a, rho, f, pencil=law.frequency_form(a)[0])
        # solve_integro: (lambda W^-1 + c I + a) x = W^-1 f_hat
        lam = 1j * f.grid.frequencies + rho
        w_lam = np.eye(n) - sum(m.gamma / (m.beta + lam)[:, None, None] for m in modes)
        f_hat = fourier_laplace(f, rho).values
        e, f_mat, _ = law.frequency_form(a)[0]
        self.check(solve_integro(kernel, c, a, f, rho), law, a, rho, f,
                   pencil=(e, f_mat, np.eye(len(e), n)),
                   rhs=np.linalg.solve(w_lam, f_hat[:, :, None])[:, :, 0])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), rho=st.floats(0.05, 1.0),
           h=st.floats(-2.0, -0.1))
    def test_delay_matches_dense_lu(self, data, n, rho, h):
        # |exp(lambda h)| < 1, so a Hermitian part of C above 1.5 keeps the
        # floor above 0.5; delay laws have no pencil, and the banded core
        # takes their wider bands, here up to b = 3
        hm, s = coercive_band(data, n, 1.5, math.isqrt(n))
        law, a = DelayLaw(diagonal_psd(data, n), hm + 0.5 * s, h), 0.5 * s
        f = self.pulse(data, n)
        self.check(solve(EvolutionaryProblem(law, a, rho, f), check_certified=False),
                   law, a, rho, f)

    def test_band_order_interleaves_the_mixed_system(self):
        # nodes then fluxes: in the interleaved order M1 + A is tridiagonal
        p = 24
        ind0, ind1 = indicators_from_intervals(p, (0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0))
        sys_ = build_mixed_type_system(p, 1.0 / (p + 1), ind0, ind1, 1.0)
        order, b = _band_order(sys_.M1 + sys_.A.matrix)
        assert b == 1
        assert sorted(order) == list(range(2 * p + 1))

    def test_floor_failing_in_a_later_chunk_falls_back(self):
        # 2048 frequencies are two chunks; the floor fails only at the last
        # one, so the first chunk is solved and then the whole solve is
        # handed to the fallback
        xi = np.arange(2048.0)
        f_hat = np.ones((2048, 2), dtype=complex)

        def d(lam):
            return np.where(lam.imag == xi[-1], -10.0, 1.0)[:, None] * np.ones(2)

        calls = []

        def fallback(xi_, f_hat_):
            calls.append((xi_, f_hat_))
            return "fallback", {}

        c = np.array([[2.0, 1.0], [-1.0, 2.0]])
        x, _ = _banded_solve(d, c, np.arange(2), 1, 0.5, None, fallback, xi, f_hat)
        assert x == "fallback"
        assert len(calls) == 1 and calls[0][0] is xi and calls[0][1] is f_hat

    # U diag(d) U* with U = [[0.6, 0.8i], [0.8i, 0.6]]: Hermitian commuting
    # modes that are not diagonal
    ROTATED = Kernel((KernelMode([[0.136, -0.048j], [0.048j, 0.164]], 1.0),
                      KernelMode([[0.082, 0.024j], [-0.024j, 0.068]], 2.0)), nu0=0.5)

    @pytest.mark.filterwarnings("ignore::evostab.EdgeMassWarning")
    @pytest.mark.parametrize("law, core", [
        (DaeLaw([[1.0]], [[-1.0]]), "pencil"),
        (DaeLaw(np.eye(3), 2.0 * np.eye(3) + np.triu(np.ones((3, 3)), 1)), "pencil"),
        (DaeLaw([[1.0, 0.5], [0.5, 1.0]], 2.0 * np.eye(2)), "pencil"),
        (IntegroLaw(ROTATED, 1.0), "pencil"),
        (CustomLaw(1, lambda z: (1 + 2 * z) * np.eye(1)), "dense"),
        (DelayLaw([[1.0, 0.5], [0.5, 1.0]], 3.0 * np.eye(2), -0.5), "dense"),
        (DelayLaw(np.eye(6), 3.0 * np.eye(6) + np.triu(np.ones((6, 6)), 1), -0.5), "dense"),
        (defective_dae(), "pencil"),
    ], ids=["negative-floor", "wide-band", "dense-m0", "rotated-modes", "custom", "dense-delay",
            "wide-delay", "defective-pencil"])
    def test_other_laws_keep_their_core(self, law, core):
        # floor 0.5 - 1 < 0 at rho = 0.5; bandwidth 2 at n = 3, above 1 and
        # n/25; M0 or the modes not diagonal; no diagonal form and no pencil;
        # bandwidth 5 at n = 6, with 5^2 > 4n; bandwidth 11 at n = 12, where
        # the pencil's K is a Jordan block that QZ still solves to rounding
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=law.dim)
        u = solve(EvolutionaryProblem(law, None, 0.5, f), check_certified=False)
        assert u.meta["core"] == core
        assert "coercivity_ratio" not in u.meta
        assert u.meta["residual"] <= 1e-10
        if law.family == "integro":
            assert solve_integro(law.kernel, law.c, None, f, 0.5).meta["core"] == core


class TestApplyForward:
    def test_inverts_solve(self):
        g = TimeGrid(-2.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=2.0, width=0.3, dim=2)
        prob = dae_problem(f)
        back = apply_forward(prob, solve(prob))
        assert np.abs(back.values - f.values).max() <= 1e-10 * np.abs(f.values).max()

    def test_exponential_eigenfunction(self):
        # u = e^{rho t} c has a one-bin weighted spectrum, so the forward
        # operator reduces to the matrix (rho*M0 + M1 + A)
        g = TimeGrid(-2.0, 1 / 64, 1024)
        rho = 0.5
        c0 = np.array([1.0, -0.5])
        u = Signal(g, np.exp(rho * g.times)[:, None] * c0[None, :])
        m1 = 2 * np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]])
        prob = EvolutionaryProblem(DaeLaw(np.eye(2), m1), None, rho, u)
        out = apply_forward(prob, u)
        expected = u.values @ (rho * np.eye(2) + m1).T
        assert np.abs(out.values - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_dimension_guard(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        prob = dae_problem(Signal.zeros(g, 2))
        with pytest.raises(ValueError):
            apply_forward(prob, Signal.zeros(g, 1))


class TestSolveIntegro:
    def test_zero_kernel_reduces_to_polynomial_family(self):
        g = TimeGrid(-2.0, 1 / 128, 1024)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        kz = Kernel(modes=(KernelMode([[0.0]], 1.0),), nu0=0.5)
        ui = solve_integro(kz, 2.0, None, f, 0.8)
        ud = solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.8, f))
        assert np.abs(ui.values - ud.values).max() <= 1e-12 * np.abs(ud.values).max()

    def test_matches_volterra_stepper(self):
        # independent trapezoid integration of u' + u - C*(u) = f from the
        # grid start, compared away from the wrap-prone edges
        dt = 1 / 128
        g = TimeGrid(-dt / 2, dt, 4096)
        f = step_exp(g, start=0.0, rate=1.0)
        u = solve_integro(scalar_kernel(), 1.0, None, f, 0.05)
        ref = volterra_integro_stepper(0.25, 1.0, 1.0, f.values[:, 0].real, dt)
        n = g.n_steps
        inner = slice(n // 10, -n // 10)
        err = np.abs(u.values[inner, 0] - ref[inner]).max() / np.abs(ref).max()
        assert err <= 1e-4
        assert u.meta["residual"] <= 1e-10

    def test_causality(self):
        g = TimeGrid(-2.0, 1 / 64, 2048)
        f = gaussian_pulse(g, center=3.0, width=0.1)
        u = solve_integro(scalar_kernel(nu0=0.7), 1.0, None, f, 0.5)
        before = g.times < 2.0
        leak = np.abs(u.values[before]).max() / u.magnitudes().max()
        assert leak <= 1e-8

    def test_guards(self):
        g = TimeGrid(-2.0, 1 / 64, 256)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        with pytest.raises(ValueError):
            solve_integro(scalar_kernel(), 1.0, None, f, 0.0)  # rho
        with pytest.raises(KernelAdmissibilityError):
            solve_integro(Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5),
                          1.0, None, f, 0.5)
        with pytest.raises(ValueError):
            solve_integro(scalar_kernel(), 1.0, None,
                          gaussian_pulse(g, center=1.0, width=0.2, dim=2), 0.5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_integro(scalar_kernel(), 1.0, np.zeros((2, 2)), f, 0.5)


class TestConvolveTime:
    def test_zero(self):
        g = TimeGrid(0.0, 1 / 32, 128)
        out = convolve_time(scalar_kernel(), Signal.zeros(g, 1))
        assert np.all(out.values == 0)

    def test_step_closed_form_second_order(self):
        gam, beta = 0.8, 3.0
        k = Kernel(modes=(KernelMode([[gam]], beta),), nu0=0.5)
        errs = []
        for dt_inv in (128, 256):
            g = TimeGrid(0.0, 1 / dt_inv, 8 * dt_inv)
            ones = Signal(g, np.ones((g.n_steps, 1)))
            got = convolve_time(k, ones).values[:, 0]
            expected = gam * (1.0 - np.exp(-beta * g.times)) / beta
            errs.append(np.abs(got - expected).max())
            assert errs[-1] <= 1e-4
        assert 3.0 <= errs[0] / errs[1] <= 5.0  # O(dt^2)

    def test_matches_spectral_multiplier(self):
        k = Kernel(modes=(KernelMode([[0.8]], 3.0),), nu0=0.5)
        rho = 1.0
        g = TimeGrid(-2.0, 1 / 256, 2048)
        u = gaussian_pulse(g, center=1.5, width=0.2)
        direct = convolve_time(k, u)
        u_hat = fourier_laplace(u, rho)
        mult = np.sqrt(2 * np.pi) * np.array(
            [kernel_hat(k, x - 1j * rho)[0, 0] for x in g.frequencies])
        spectral = inverse_fourier_laplace(
            SpectralSignal(g, rho, mult[:, None] * u_hat.values))
        err = np.abs(spectral.values - direct.values).max() / np.abs(direct.values).max()
        assert err <= 1e-4

    def test_dimension_guard(self):
        g = TimeGrid(0.0, 1 / 32, 128)
        with pytest.raises(ValueError):
            convolve_time(scalar_kernel(), Signal.zeros(g, 2))


def scalar_ivp(m0, m1, f, rho):
    return EvolutionaryProblem(DaeLaw(m0, m1), None, rho, f)


SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


def pulse2(t):
    """The forcing of the two-state initial-value tests, exact at any t."""
    return np.exp(-(((np.asarray(t) - 1.0) / 0.2) ** 2))[..., None] * np.array([1.0, 0.5])


class TestIvp:
    @pytest.mark.parametrize("s", [1.0, 0.75])
    @pytest.mark.parametrize("m0, a", [
        (np.diag([1.0, 0.0]), None),
        (np.array([[1.0, 0.3], [0.3, 0.5]]), SKEW),
    ], ids=["singular-diagonal", "non-diagonal-skew"])
    def test_solution_solves_the_reduced_equation(self, m0, a, s):
        # v = u - phi*u0 solves (d/dt M0 + M1 + A) v
        # = f + (chi/s) M0 u0 - phi (M1 + A) u0, with phi 1 on [0, s],
        # 2 - t/s on (s, 2s) and 0 elsewhere, and chi the indicator of (s, 2s)
        g = TimeGrid(-2.0, 1 / 64, 512)
        t, rho = g.times, 0.5
        m1, u0 = np.diag([2.0, 1.5]), np.array([1.0, -0.5])
        f = Signal(g, pulse2(t))
        q = EvolutionaryProblem(DaeLaw(m0, m1), a, rho, f)
        u, _ = ivp_solve(q, u0, phi_scale=s)
        phi = np.clip(2.0 - t / s, 0.0, 1.0) * (t >= 0)
        chi = ((t > s) & (t < 2 * s)).astype(float)
        k = m1 if a is None else m1 + a
        expected = f.values + np.outer(chi / s, m0 @ u0) - np.outer(phi, k @ u0)
        got = apply_forward(q, Signal(g, u.values - np.outer(phi, u0)))
        err = Signal(g, got.values - expected)
        assert weighted_norm(err, rho) <= 1e-12 * weighted_norm(Signal(g, expected), rho)

    @pytest.mark.parametrize("m0", [
        np.eye(2), np.array([[1.0, 0.3], [0.3, 1.0]]), np.diag([1.0, 0.0]),
    ], ids=["diagonal", "non-diagonal", "singular"])
    def test_agrees_with_a_time_stepper(self, m0):
        # against a theta-method from u(0) = u0, in the rho-weighted max norm
        # on t >= 0 and 4 dt away from the cut-off's kinks and jumps at 0, s
        # and 2s: the spectral error grows like e^{rho t} and is first order
        # next to them, so it must fall about 4x from dt = 1/64 to 1/256; the
        # half-cell grid offset keeps nodes off those jumps, where a sampled
        # forcing would lose half a cell and the error would be O(dt) after 0
        m1, rho, u0 = np.diag([2.0, 1.5]), 0.5, np.array([1.0, -0.5])
        errs = []
        for dt in (1 / 64, 1 / 256):
            g = TimeGrid(dt / 2 - 1.0, dt, int(8 / dt))
            u, _ = ivp_solve(EvolutionaryProblem(DaeLaw(m0, m1), SKEW, rho,
                                                 Signal(g, pulse2(g.times))), u0)
            after = g.times >= 0
            t = g.times[after]
            ref = dae_stepper(m0, m1 + SKEW, pulse2, u0, t)
            keep = np.all([np.abs(t - spot) > 4 * dt for spot in (0.0, 1.0, 2.0)], axis=0)
            weighted = np.abs(u.values[after] - ref).max(axis=1) * np.exp(-rho * t)
            errs.append(weighted[keep].max())
        assert errs[0] <= 1e-3
        assert errs[1] <= errs[0] / 3

    def test_decaying_solution(self):
        # u' + 2u = 0, u(0) = 1: compare with e^{-2t} away from the one-cell
        # spikes the auxiliary rhs jumps leave at t = 0, s, 2s
        dt = 1 / 256
        g = TimeGrid(dt / 2 - 2.0, dt, 2048)
        q = scalar_ivp(np.eye(1), 2 * np.eye(1), Signal.zeros(g, 1), 0.5)
        u, gap = ivp_solve(q, [1.0])
        t = g.times
        keep = t >= 0
        for spot in (0.0, 1.0, 2.0):
            keep &= np.abs(t - spot) > 4 * dt
        err = np.abs(u.values[keep, 0] - np.exp(-2 * t[keep])).max()
        assert err <= 1e-4
        assert gap <= 10.0 * dt

    def test_zero_initial_state_equals_plain_solve(self):
        g = TimeGrid(-2.0, 1 / 128, 1024)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        u_ivp, gap = ivp_solve(scalar_ivp([[1.0]], [[2.0]], f, 0.5), [0.0])
        plain = solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.5, f))
        assert np.array_equal(u_ivp.values, plain.values)

    def test_certification_gate_and_override(self):
        # u' - u/2 = 0 fails the nu = 0 positivity gate; without it the
        # solution is e^{t/2} from u(0) = 1
        dt = 1 / 64
        g = TimeGrid(dt / 2 - 2.0, dt, 1024)
        q = scalar_ivp([[1.0]], [[-0.5]], Signal.zeros(g, 1), 1.0)
        with pytest.raises(CertificationError, match="check_certified=False"):
            ivp_solve(q, [1.0])
        with pytest.warns(EdgeMassWarning):
            u, gap = ivp_solve(q, [1.0], check_certified=False)
        t = g.times
        keep = (t >= 0) & (t <= 6.0)
        for spot in (0.0, 1.0, 2.0):
            keep &= np.abs(t - spot) > 4 * dt
        exact = np.exp(0.5 * t[keep])
        assert np.abs(u.values[keep, 0] - exact).max() <= 2e-3 * exact.max()
        assert gap <= 10.0 * dt

    def test_algebraic_part_has_no_gap(self):
        g = TimeGrid(-2.0, 1 / 128, 1024)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        u, gap = ivp_solve(scalar_ivp([[0.0]], [[2.0]], f, 0.5), [3.0])
        assert gap == 0.0

    def test_validation(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        early = gaussian_pulse(g, center=-1.0, width=0.1)
        with pytest.raises(ValueError):
            ivp_solve(scalar_ivp([[1.0]], [[2.0]], early, 0.5), [1.0])  # f before 0
        with pytest.raises(ValueError):
            ivp_solve(scalar_ivp([[1.0]], [[2.0]], f, 0.5), [1.0, 2.0])
        with pytest.raises(ValueError):
            ivp_solve(scalar_ivp([[1.0]], [[2.0]], f, -0.5), [1.0])
        with pytest.raises(ValueError, match="phi_scale must be positive"):
            ivp_solve(scalar_ivp([[1.0]], [[2.0]], f, 0.5), [1.0], phi_scale=0.0)
        with pytest.raises(ValueError, match="u0 must have finite entries"):
            ivp_solve(scalar_ivp([[1.0]], [[2.0]], f, 0.5), [np.nan])

    @pytest.mark.parametrize("law", [
        DelayLaw([[1.0]], [[2.0]], -0.5),
        IntegroLaw(scalar_kernel(), 1.0),
        CustomLaw(1, lambda z: (1 + 2 * z) * np.eye(1)),
    ], ids=["delay", "integro", "custom"])
    def test_refuses_laws_that_are_not_dae(self, law):
        g = TimeGrid(-2.0, 1 / 64, 512)
        q = EvolutionaryProblem(law, None, 0.5, Signal.zeros(g, 1))
        with pytest.raises(ValueError, match="DAE law"):
            ivp_solve(q, [1.0])

    def test_grid_before_zero_is_refused_before_the_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before the grid check")

        monkeypatch.setattr("evostab.solver.solve", no_solve)
        g = TimeGrid(-10.0, 1 / 64, 512)  # ends at t = -2
        q = scalar_ivp([[1.0]], [[2.0]], Signal.zeros(g, 1), 0.5)
        with pytest.raises(ValueError, match="t >= 0"):
            ivp_solve(q, [1.0])
