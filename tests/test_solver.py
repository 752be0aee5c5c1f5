import numpy as np
import pytest
from _oracles import delay_stepper, volterra_integro_stepper
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evostab import (CertificationError, CustomLaw, DaeLaw, DelayLaw, EdgeMassError,
                     EdgeMassWarning, EvolutionaryProblem, IntegroLaw,
                     IvpProblem, Kernel, KernelAdmissibilityError, KernelMode,
                     Signal, SingularFrequencyError, SpatialOperator, TimeGrid,
                     apply_forward, build_mixed_type_system, convolve_time,
                     cutoff_phi, fourier_laplace, gaussian_pulse,
                     indicators_from_intervals, inverse_fourier_laplace,
                     ivp_assemble_rhs, ivp_solve, kernel_hat, solve,
                     solve_integro, step_exp, support_lower_bound)
from evostab.material import frequency_operator_stack
from evostab.signals import SpectralSignal


def scalar_kernel(gamma=0.25, beta=1.0, nu0=0.5):
    return Kernel(modes=(KernelMode([[gamma]], beta),), nu0=nu0)


def dae_problem(f, rho=0.5):
    m1 = 2 * np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]])
    return EvolutionaryProblem(DaeLaw(np.eye(2), m1), None, rho, f)


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
        h = gaussian_pulse(g, center=2.5, width=0.4, dim=2, direction=[1.0, -1.0])
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

    def test_threads_bitwise_identical(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2, dim=2)
        u1 = solve(dae_problem(f), threads=1)
        u2 = solve(dae_problem(f), threads=2)
        assert np.array_equal(u1.values, u2.values)
        assert u1.meta["residual"] == u2.meta["residual"]
        # delay: the dense path (and its pool) over four chunks; DAE laws
        # take the QZ pencil path, which has no pool
        gi = TimeGrid(-2.0, 1 / 64, 4096)
        fd = gaussian_pulse(gi, center=1.0, width=0.2, dim=2)
        prob = EvolutionaryProblem(DelayLaw(np.eye(2), 3.0 * np.eye(2), -0.5), None, 0.5, fd)
        w1 = solve(prob, threads=1)
        w2 = solve(prob, threads=2)
        assert np.array_equal(w1.values, w2.values)
        assert w1.meta["residual"] == w2.meta["residual"]

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
        # the pencil path, the dense path and solve_integro all attribute
        # the warning to the line that called them
        g = TimeGrid(0.0, 1 / 16, 64)
        vals = np.exp(-(((g.times - 2.0) / 0.3) ** 2))[:, None].astype(complex)
        vals[-1, 0] = 1e-5
        f = Signal(g, vals)
        calls = [
            lambda: solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.1, f)),
            lambda: solve(EvolutionaryProblem(DelayLaw([[1.0]], [[2.0]], -0.5), None, 0.1, f)),
            lambda: solve_integro(scalar_kernel(), 1.0, None, f, 0.1),
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


class TestPencilPath:
    """DAE laws are solved through one QZ factorisation; the dense
    operator stack and apply_forward are its oracles."""

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
        f = gaussian_pulse(grid, center=1.0, width=0.3, dim=dim, direction=d[0] + 0.1)
        law = DaeLaw(m0, m1)
        u = solve(EvolutionaryProblem(law, a, rho, f), check_certified=False)

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
        f = gaussian_pulse(grid, center=1.0, width=0.3, dim=dim, direction=d[0] + 0.1)
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


class TestCutoffPhi:
    def test_values(self):
        assert cutoff_phi(0.0) == 1.0
        assert cutoff_phi(1.0) == 1.0
        assert cutoff_phi(1.5) == 0.5
        assert cutoff_phi(2.0) == 0.0
        assert cutoff_phi(-0.3) == 0.0
        assert cutoff_phi(3.0, scale=2.0) == 0.5

    def test_array_and_guard(self):
        out = cutoff_phi(np.array([-1.0, 0.5, 1.25, 5.0]))
        assert np.allclose(out, [0.0, 1.0, 0.75, 0.0])
        with pytest.raises(ValueError):
            cutoff_phi(1.0, scale=0.0)


class TestIvp:
    def test_rhs_unchanged_without_initial_state(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        q = IvpProblem([[1.0]], [[2.0]], None, [0.0], f, 0.5)
        assert np.array_equal(ivp_assemble_rhs(q).values, f.values)

    def test_rhs_correction_terms(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        t = g.times
        q = IvpProblem([[1.0]], [[2.0]], None, [1.0], Signal.zeros(g, 1), 0.5)
        got = ivp_assemble_rhs(q).values[:, 0]
        chi = ((t > 1.0) & (t < 2.0)).astype(float)
        phi = cutoff_phi(t)
        assert np.abs(got - (chi - 2.0 * phi)).max() <= 1e-14
        assert np.all(got[t >= 2.0] == 0.0)

    def test_decaying_solution(self):
        # u' + 2u = 0, u(0) = 1: compare with e^{-2t} away from the one-cell
        # spikes the auxiliary rhs jumps leave at t = 0, s, 2s
        dt = 1 / 256
        g = TimeGrid(dt / 2 - 2.0, dt, 2048)
        q = IvpProblem(np.eye(1), 2 * np.eye(1), None, [1.0], Signal.zeros(g, 1), 0.5)
        u, gap = ivp_solve(q)
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
        u_ivp, gap = ivp_solve(IvpProblem([[1.0]], [[2.0]], None, [0.0], f, 0.5))
        plain = solve(EvolutionaryProblem(DaeLaw([[1.0]], [[2.0]]), None, 0.5, f))
        assert np.array_equal(u_ivp.values, plain.values)

    def test_certification_gate_and_override(self):
        # u' - u/2 = 0 fails the nu = 0 positivity gate; without it the
        # solution is e^{t/2} from u(0) = 1
        dt = 1 / 64
        g = TimeGrid(dt / 2 - 2.0, dt, 1024)
        q = IvpProblem([[1.0]], [[-0.5]], None, [1.0], Signal.zeros(g, 1), 1.0)
        with pytest.raises(CertificationError, match="check_certified=False"):
            ivp_solve(q)
        with pytest.warns(EdgeMassWarning):
            u, gap = ivp_solve(q, check_certified=False)
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
        u, gap = ivp_solve(IvpProblem([[0.0]], [[2.0]], None, [3.0], f, 0.5))
        assert gap == 0.0

    def test_validation(self):
        g = TimeGrid(-2.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=1.0, width=0.2)
        early = gaussian_pulse(g, center=-1.0, width=0.1)
        with pytest.raises(ValueError):
            IvpProblem([[1.0]], [[2.0]], None, [1.0], early, 0.5)  # f before 0
        with pytest.raises(ValueError):
            IvpProblem([[1.0]], [[2.0]], None, [1.0, 2.0], f, 0.5)
        with pytest.raises(ValueError):
            IvpProblem([[1.0]], [[2.0]], None, [1.0], f, -0.5)
        with pytest.raises(ValueError):
            IvpProblem([[1.0]], [[2.0]], None, [1.0], f, 0.5, phi_scale=0.0)
