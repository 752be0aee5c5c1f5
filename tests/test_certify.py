import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from _oracles import (delay_rate_oracle, dense_positivity_scan, integro_rate_oracle,
                      pencil_spectral_rate, scan_rows, shifted_bounded_oracle,
                      sign_defects_oracle, unscreened_positivity_min)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evostab import (CustomLaw, DaeLaw, DelayLaw, EvolutionaryProblem, IntegroLaw, Kernel,
                     KernelAdmissibilityError, KernelMode, NonFiniteSymbolError,
                     SamplingConfig, TimeGrid, build_mixed_type_system, certify,
                     check_kernel_conditions, closed_form_rate, gaussian_pulse,
                     indicators_from_intervals, kernel_hat, solvability_constant,
                     solvability_lower_bound, solve)
from evostab.certify import _check_shifted_bounded, _shift_points, _sigma_grid
from evostab.material import _last_nonnegative, _scan_batches

SQRT_2PI = np.sqrt(2 * np.pi)


def scalar_kernel(gamma=0.25, beta=1.0, nu0=0.5):
    return Kernel(modes=(KernelMode([[gamma]], beta),), nu0=nu0)


class TestRates:
    def test_dae_rate_values(self):
        assert DaeLaw(np.eye(2), 2 * np.eye(2)).rate() == pytest.approx(2.0)
        assert DaeLaw(np.diag([1.0, 0.0]), 2 * np.eye(2)).rate() == pytest.approx(2.0)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert DaeLaw(np.eye(2), 2 * np.eye(2) + skew).rate() == pytest.approx(2.0)

    def test_dae_rate_mixed_system(self):
        sys = build_mixed_type_system(8, 1.0 / 9, np.ones(8), np.zeros(8), 1.0)
        assert DaeLaw(sys.M0, sys.M1).rate() == pytest.approx(1.0)

    def test_dae_rate_algebraic_sentinel(self):
        assert DaeLaw(np.zeros((2, 2)), np.eye(2)).rate() == math.inf

    def test_dae_rate_needs_positive_m1(self):
        with pytest.raises(ValueError):
            DaeLaw(np.eye(2), np.diag([1.0, 0.0])).rate()

    def test_delay_rate_against_root_finder(self):
        got = DelayLaw([[1.0]], [[2.0]], -1.0).rate()
        assert got == pytest.approx(delay_rate_oracle(1.0, -1.0, 2.0), abs=1e-9)
        assert got == pytest.approx(0.4428544010, abs=1e-9)

    def test_delay_rate_without_m0(self):
        assert DelayLaw([[0.0]], [[2.0]], -1.0).rate() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_delay_rate_needs_c_above_one(self):
        with pytest.raises(ValueError):
            DelayLaw([[1.0]], [[1.0]], -1.0).rate()

    def test_integro_rate_hits_nu0(self):
        assert IntegroLaw(scalar_kernel(), 1.0).rate() == pytest.approx(0.5, abs=1e-8)

    def test_integro_rate_zero_kernel(self):
        k = Kernel(modes=(KernelMode([[0.0]], 1.0),), nu0=0.5)
        assert IntegroLaw(k, 1.0).rate() == pytest.approx(0.5, abs=1e-9)
        assert IntegroLaw(k, 0.3).rate() == pytest.approx(0.3, abs=1e-9)

    def test_integro_rate_interior_root(self):
        got = IntegroLaw(scalar_kernel(), 0.2).rate()
        oracle = integro_rate_oracle(0.25, 1.0, 0.2, 0.5)
        assert got == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("gamma, beta, c", [(-0.6, 2.0, 0.5), (-0.2, 1.0, 1.0)])
    def test_integro_bound_needs_the_sign_condition(self, gamma, beta, c):
        # the bound c - nu/(1 - L1(nu)) rests on t Im Chat(t + i nu0) <= 0,
        # which a negative mode breaks: it claimed c(0) = 0.5 for the first
        # law, whose Re z^-1 M(z) tends to -0.1, and c(0.3) = 0.58 for the
        # second, whose infimum is 0.5
        law = IntegroLaw(Kernel(modes=(KernelMode([[gamma]], beta),), nu0=0.5), c)
        assert law.kernel.conditions.structural_ok and not law.kernel.conditions.sign_ok
        assert [law.lower_bound(nu) for nu in (0.0, 0.3, 0.5)] == [None] * 3
        rep = certify(law, 0.0, SamplingConfig(tau_max=5.0))
        assert rep.certificate == "sampled" and rep.c_nu == rep.c_nu_sampled
        assert rep.warnings == ("closed-form rate unavailable: "
                                + "; ".join(law.kernel.conditions.problems()),)

    def test_integro_rate_rejects_bad_kernel(self):
        with pytest.raises(KernelAdmissibilityError):
            IntegroLaw(Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5), 1.0).rate()

    def test_closed_form_rate_dispatch(self):
        assert closed_form_rate(DaeLaw([[1.0]], [[2.0]])) == pytest.approx(2.0)
        assert closed_form_rate(CustomLaw(1, lambda z: np.eye(1))) is None

    @pytest.mark.parametrize("law, expected", [
        ("DelayLaw([[0.0]], [[2.0]], -5e-5)", math.log(2.0) / 5e-5),
        ("IntegroLaw(Kernel((KernelMode([[0.1]], 2e6),), nu0=1e6), 1e6)", 999999.9),
    ], ids=["delay", "integro"])
    def test_rate_where_tol_is_below_float_spacing(self, package_env, law, expected):
        # the bisection tolerance (1e-12 delay, 1e-10 integro) is below the
        # float spacing at these roots (1.8e-12 at 13863, 1.2e-10 at 1e6); the
        # bisection once looped forever there, so it runs in a child process
        code = (f"from evostab import *\nlaw = {law}\nr = law.rate()\n"
                "print(repr(r), law.lower_bound(r) >= 0)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        rate, nonnegative = proc.stdout.split()
        assert float(rate) == pytest.approx(expected, rel=1e-12)
        assert nonnegative == "True"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 4, 8]),
       h=st.one_of(st.just(0.5), st.floats(0.1, 2.0)))
def test_delay_rate_keeps_the_bound_nonnegative(data, dim, h):
    # the rate is the bisection's lower end, where the bound was found >= 0;
    # the bracket's midpoint, which it was before, can lie past the root
    m0, m1 = draw_pencil(data, dim, 1.5)
    law = DelayLaw(m0, m1, -h)
    assert law.lower_bound(law.rate()) >= 0


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), c=st.floats(0.05, 0.5))
def test_integro_rate_keeps_the_bound_nonnegative(data, dim, c):
    kernel = TestStructuredMinima.rotated_integro_law(data, dim).kernel
    assume(kernel.conditions.sign_ok)  # which negative modes can break
    law = IntegroLaw(kernel, c)
    assert law.lower_bound(law.rate()) >= 0


_BOUND_SHAPES = {
    # decreasing from bound(0) > 0 with bound(nu) >= 0 exactly for nu <= root
    "linear": lambda root: lambda nu: root - nu,
    "step": lambda root: lambda nu: 1.0 if nu <= root else -1.0,
    "curved": lambda root: lambda nu: (root - nu) * (1.0 + nu * nu),
}


@settings(max_examples=300, deadline=None)
@given(root=st.floats(1e-6, 1e15), spread=st.floats(1.0, 8.0),
       tol=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8, 1e-4]),
       shape=st.sampled_from(sorted(_BOUND_SHAPES)))
def test_last_nonnegative_ends_next_to_the_root(root, spread, tol, shape):
    calls = []

    def bound(nu):
        # a bisection over [0, 8e15] down to one ulp takes about 1100 steps
        # at most; more calls mean the loop does not end
        calls.append(nu)
        assert len(calls) <= 1200, "the bisection does not end"
        return _BOUND_SHAPES[shape](root)(nu)

    got = _last_nonnegative(bound, root * spread, tol)
    assert abs(got - root) <= max(tol, math.ulp(root))
    if tol < math.ulp(root):
        # no float within tol of the root but the root's neighbours: the last
        # point known to have bound >= 0 is returned
        assert bound(got) >= 0


class TestSolvability:
    def test_dae_grid_inset(self):
        # sigma starts at -nu + nu/n_sigma, so the sampled minimum sits one
        # grid step above the closed-form bound c - nu
        law = DaeLaw([[1.0]], [[2.0]])
        c = solvability_constant(law, 1.0, n_sigma=1000)
        assert c == pytest.approx(1.001, abs=1e-9)

    def test_dae_nu_zero(self):
        c = solvability_constant(DaeLaw([[1.0]], [[2.0]]), 0.0)
        assert 2.0 < c <= 2.1

    def test_delay_nu_zero_near_one(self):
        c = solvability_constant(DelayLaw([[1.0]], [[2.0]], -1.0), 0.0, n_sigma=1000)
        assert c == pytest.approx(1.0, abs=0.03)

    def test_custom_double_loop_matches_dae_fast_path(self):
        m0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        m1 = np.array([[1.5, 1.0], [-1.0, 3.0]])
        dae = DaeLaw(m0, m1)
        custom = CustomLaw(2, lambda z: m0 + z * m1)
        kw = dict(sigma_max=5.0, tau_max=20.0, n_sigma=50, n_tau=21)
        a = solvability_constant(dae, 0.5, **kw)
        b = solvability_constant(custom, 0.5, **kw)
        assert a == pytest.approx(b, abs=1e-12)

    def test_nonfinite_sample_is_an_error(self):
        # NaN at tau = 0 must not be dropped from the sampled minimum
        law = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z if z.imag else np.nan]]))
        with pytest.raises(ValueError, match="not finite"):
            solvability_constant(law, 0.5, sigma_max=5.0, tau_max=20.0, n_sigma=10, n_tau=21)

    # nu = 0 or nu >= 1e-3: for tinier nu the first sigma row passes within
    # nu of lambda = 0, where z = 1/lambda overflows and the custom scan
    # raises (see test_nonfinite_sample_is_an_error)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 3),
           nu=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    def test_sampled_custom_scan_matches_dae_branch(self, data, dim, nu):
        # Hermitian positive-definite M0; M1 with positive Hermitian part
        entries = hnp.arrays(float, (4, dim, dim), elements=st.floats(-1.0, 1.0))
        g, s, q_re, q_im = data.draw(entries)
        m0 = g @ g.T + 0.1 * np.eye(dim)
        q = q_re + 1j * q_im
        m1 = q @ q.conj().T + 0.1 * np.eye(dim) + (s - s.T)
        kw = dict(sigma_max=10.0, tau_max=100.0, n_sigma=10, n_tau=21)
        dae = solvability_constant(DaeLaw(m0, m1), nu, **kw)
        custom = solvability_constant(CustomLaw(dim, lambda z: m0 + z * m1), nu, **kw)
        assert custom == pytest.approx(dae, rel=1e-9, abs=1e-9)

    def test_lower_bound_values(self):
        assert solvability_lower_bound(DaeLaw([[1.0]], [[2.0]]), 1.5) == pytest.approx(0.5)
        got = solvability_lower_bound(DelayLaw([[1.0]], [[2.0]], -0.5), 0.4)
        assert got == pytest.approx(2.0 - 0.4 - math.exp(0.2), abs=1e-12)
        law = IntegroLaw(scalar_kernel(), 1.0)
        assert solvability_lower_bound(law, 0.0) == pytest.approx(1.0)
        l1 = 0.25 / 0.6
        assert solvability_lower_bound(law, 0.4) == pytest.approx(1.0 - 0.4 / (1 - l1), abs=1e-10)
        assert solvability_lower_bound(law, 0.6) is None
        assert solvability_lower_bound(CustomLaw(1, lambda z: np.eye(1)), 0.1) is None

    def test_delay_lower_bound_past_exp_overflow(self):
        # exp(-nu*h) overflows a float at nu*|h| > 709.78; the bound is -inf
        assert solvability_lower_bound(DelayLaw([[1.0]], [[3.0]], -1.0), 710.0) == -math.inf

    def test_lower_bound_below_sample(self):
        rng = np.random.default_rng(41)
        kw = dict(sigma_max=5.0, tau_max=30.0, n_sigma=60, n_tau=61)
        for _ in range(5):
            q = rng.standard_normal((2, 2))
            m0 = q @ q.T + 0.1 * np.eye(2)
            m1 = 3 * np.eye(2) + rng.standard_normal((2, 2))
            nu = float(rng.uniform(0.0, 0.3))
            for law in (DaeLaw(m0, m1), DelayLaw(m0, m1, h=float(-rng.uniform(0.2, 1.0)))):
                bound = solvability_lower_bound(law, nu)
                sampled = solvability_constant(law, nu, **kw)
                assert bound <= sampled + 1e-9

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            solvability_constant(DaeLaw([[1.0]], [[2.0]]), -0.2)


def random_unitary(re, im):
    q, r = np.linalg.qr(re + 1j * im)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# The structured minima against the dense scan.  Both sides round; the scan's
# eigenvalues carry an absolute error of a few ulps of ||z^-1 M(z)||, hence
# the abs floor next to rel 1e-12 for minima near zero.
MATCH = dict(rel=1e-12, abs=1e-12)


class TestStructuredMinima:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4),
           nu=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    def test_pencil_families_match_dense_scan(self, data, dim, nu):
        # M0 >= 0, rank-deficient for rank < dim (diagonal M0 keeps its zero
        # eigenvalues exact); M1 with positive Hermitian part
        entries = hnp.arrays(float, (4, dim, dim), elements=st.floats(-1.0, 1.0))
        g, s, q_re, q_im = data.draw(entries)
        rank = data.draw(st.integers(0, dim))
        if data.draw(st.booleans()):
            m0 = np.diag(np.abs(np.diag(g)) * (np.arange(dim) < rank))
        else:
            m0 = g[:, :rank] @ g[:, :rank].T
            m0 = 0.5 * (m0 + m0.T)
        q = q_re + 1j * q_im
        m1 = q @ q.conj().T + 0.1 * np.eye(dim) + (s - s.T)
        kw = dict(sigma_max=10.0, tau_max=50.0, n_sigma=20, n_tau=41)
        dae = DaeLaw(m0, m1)
        assert solvability_constant(dae, nu, **kw) == pytest.approx(
            dense_positivity_scan(dae, nu, **kw), **MATCH)
        # tau_max below pi/(2|h|) keeps cos_min > 0 and the sigma sweep;
        # above it, and past the first critical value pi/|h|, cos_min <= 0
        h = -data.draw(st.floats(0.1, 2.0))
        kw["tau_max"] = data.draw(st.sampled_from([0.25, 0.75, 1.5, 4.0])) * math.pi / abs(h)
        delay = DelayLaw(m0, m1 + 1.5 * np.eye(dim), h)
        assert solvability_constant(delay, nu, **kw) == pytest.approx(
            dense_positivity_scan(delay, nu, **kw), **MATCH)

    def test_slightly_negative_m0_keeps_the_sweep(self):
        # M0 may have eigenvalues down to -STRUCT_TOL; then lambda_min falls
        # with sigma and the first sigma row is not the minimum
        law = DaeLaw([[-1e-12]], [[2.0]])
        kw = dict(sigma_max=10.0, tau_max=50.0, n_sigma=20, n_tau=41)
        assert solvability_constant(law, 0.0, **kw) == pytest.approx(
            dense_positivity_scan(law, 0.0, **kw), **MATCH)

    @pytest.mark.filterwarnings("error")  # the error, with no numpy warning before it
    def test_integro_pole_on_the_grid_is_an_error(self):
        # nu = 2 puts the sigma row -1 = -beta (tau = 0) on the grid
        law = IntegroLaw(scalar_kernel(), 1.0)
        with pytest.raises(NonFiniteSymbolError, match="sigma = -1"):
            solvability_constant(law, 2.0, sigma_max=3.5, tau_max=10.0, n_sigma=8, n_tau=21)

    @staticmethod
    def rotated_integro_law(data, dim, rotate=True):
        """Modes Q diag(d_j) Q* with a random unitary Q, or Q = I; the
        diagonals take few distinct values, so joint eigenvalues repeat."""
        n_modes = data.draw(st.integers(1, 3))
        q = np.eye(dim)
        if rotate:
            mats = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
            q = random_unitary(mats[0] + 2.0 * np.eye(dim), mats[1])
        levels = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        modes = []
        for _ in range(n_modes):
            beta = data.draw(st.floats(1.0, 3.0))
            d = np.array(data.draw(st.lists(levels, min_size=dim, max_size=dim)))
            # weighted L1 at nu0 = 0.5 stays below 0.3
            d *= 0.3 * (beta - 0.5) / n_modes
            modes.append(KernelMode(q @ np.diag(d) @ q.conj().T, beta))
        kernel = Kernel(tuple(modes), nu0=0.5)
        return IntegroLaw(kernel, data.draw(st.floats(0.2, 2.0)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=st.floats(0.0, 0.5))
    def test_integro_matches_dense_scan(self, data, dim, nu):
        law = self.rotated_integro_law(data, dim)
        kw = dict(sigma_max=10.0, tau_max=100.0, n_sigma=20, n_tau=41)
        assert solvability_constant(law, nu, **kw) == pytest.approx(
            dense_positivity_scan(law, nu, **kw), **MATCH)


def hermitian(a):
    return 0.5 * (a + a.conj().T)


def draw_pencil(data, dim, floor):
    """(M0, M1): M0 = G G* >= 0 with G complex of a random rank, zero
    included, so a nonzero M0 is in general not diagonal; M1 with Hermitian
    part Q Q* + floor I plus a skew part."""
    g, s, q = (a + 1j * b for a, b in data.draw(
        hnp.arrays(float, (3, 2, dim, dim), elements=st.floats(-1.0, 1.0))))
    rank = data.draw(st.integers(0, dim))
    m0 = g[:, :rank] @ g[:, :rank].conj().T
    return hermitian(m0), q @ q.conj().T + floor * np.eye(dim) + (s - s.conj().T)


class TestPencilRates:
    """The DAE and delay bounds are lambda_min(H(M1) - nu M0) (less
    exp(-nu h) for delays), and their rates its exact root; no certified rate
    exceeds the spectral rate of the pencil lambda M0 + (M1 + A) with A
    monotone."""

    def test_spectral_oracle_matches_scipy_on_mixed1d(self):
        p = 24
        ind = np.arange(p) * 3 // p
        sys_ = build_mixed_type_system(p, 1.0 / (p + 1), ind == 0, ind == 1, 1.0)
        f = sys_.M1 + sys_.A.matrix
        finite = scipy.linalg.eigvals(-f, sys_.M0)
        finite = finite[np.isfinite(finite)]
        assert len(finite) == np.count_nonzero(sys_.M0)
        assert pencil_spectral_rate(sys_.M0, f, 0.05) == pytest.approx(
            -finite.real.max(), rel=1e-10)
        assert pencil_spectral_rate(np.zeros((2, 2)), np.eye(2), 0.5) == math.inf

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 8), rho=st.sampled_from([0.05, 1.0]))
    def test_certified_rate_is_at_most_spectral_dae(self, data, dim, rho):
        m0, m1 = draw_pencil(data, dim, data.draw(st.floats(0.01, 2.0)))
        b, g = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
        a = b - b.T + (g @ g.T if data.draw(st.booleans()) else 0.0)  # monotone
        rate = DaeLaw(m0, m1).rate()
        assert rate <= pencil_spectral_rate(m0, m1 + a, rho) * (1.0 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 8), c=st.floats(0.05, 4.0), data=st.data())
    def test_certified_rate_is_at_most_spectral_mixed1d(self, p, c, data):
        kind = np.array(data.draw(st.lists(st.integers(0, 2), min_size=p, max_size=p)))
        sys_ = build_mixed_type_system(p, 1.0 / (p + 1), kind == 0, kind == 1, c)
        rate = sys_.law().rate()
        assert rate <= pencil_spectral_rate(sys_.M0, sys_.M1 + sys_.A.matrix, 0.05) * (1.0 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 5), nu=st.floats(0.0, 3.0),
           h=st.floats(0.1, 2.0))
    def test_bound_is_the_exact_infimum(self, data, dim, nu, h):
        m0, m1 = draw_pencil(data, dim, 0.1)
        exact = np.linalg.eigvalsh(hermitian(m1) - nu * m0)[0]
        assert DaeLaw(m0, m1).lower_bound(nu) == pytest.approx(exact, rel=1e-12, abs=1e-12)
        exact = np.linalg.eigvalsh(hermitian(m1 + 1.5 * np.eye(dim)) - nu * m0)[0]
        assert DelayLaw(m0, m1 + 1.5 * np.eye(dim), -h).lower_bound(nu) == pytest.approx(
            exact - math.exp(nu * h), rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 5))
    def test_dae_rate_is_the_generalized_eigenvalue(self, data, dim):
        m0, m1 = draw_pencil(data, dim, 0.1)
        top = scipy.linalg.eigh(m0, hermitian(m1), eigvals_only=True)[-1]
        assume(top > 1e-6)
        law = DaeLaw(m0, m1)
        rate = law.rate()
        assert rate == pytest.approx(1.0 / top, rel=1e-12)
        assert law.lower_bound(rate * (1 - 1e-9)) >= 0 > law.lower_bound(rate * (1 + 1e-9))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), h=st.floats(0.1, 2.0))
    def test_delay_rate_is_the_root(self, data, dim, h):
        # c >= 1.5, ||M0|| <= 32 and |h| <= 2 put the root above 0.01, where
        # 1e-9 of it is well outside the bisection's 1e-12
        m0, m1 = draw_pencil(data, dim, 1.5)
        law = DelayLaw(m0, m1, -h)
        rate = law.rate()
        assert law.lower_bound(rate * (1 - 1e-9)) >= 0 > law.lower_bound(rate * (1 + 1e-9))

    def test_diagonal_dae_rate_is_exact(self):
        # min h_i / m_i; the Cholesky form reads 2.0000000000000004 for the
        # first and 11.999999999999996 for the last
        assert DaeLaw(np.diag([1.0, 0.5]), np.diag([2.0, 3.0])).rate() == 2.0
        assert DaeLaw(np.diag([1.0, 0.5]), np.diag([3.0, 1.0])).rate() == 2.0
        assert DaeLaw(np.diag([0.0, 0.25]), np.diag([1.0, 3.0])).rate() == 12.0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), h=st.floats(0.1, 2.0),
           factor=st.sampled_from([0.5, 1.5]), nu=st.floats(0.0, 1.0))
    def test_unitary_conjugation_keeps_certificates(self, data, dim, h, factor, nu):
        m0, m1 = draw_pencil(data, dim, 1.5)
        re, im = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
        u = random_unitary(re + 2.0 * np.eye(dim), im)
        for law, turned in ((DaeLaw(m0, m1), DaeLaw(u @ m0 @ u.conj().T, u @ m1 @ u.conj().T)),
                            (DelayLaw(m0, m1, -h),
                             DelayLaw(u @ m0 @ u.conj().T, u @ m1 @ u.conj().T, -h))):
            rate = law.rate()
            # the delay rate is a bisection to 1e-12 absolute
            assert turned.rate() == pytest.approx(rate, rel=1e-12, abs=1e-12)
            assert turned.lower_bound(nu) == pytest.approx(law.lower_bound(nu),
                                                           rel=1e-12, abs=1e-12)
            finite = math.isfinite(rate)  # M0 = 0: every rate is certified
            at = factor * rate if finite else 1.0
            expected = factor < 1 or not finite
            assert certify(turned, at).passed == certify(law, at).passed == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), h=st.floats(0.1, 2.0),
           a=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_time_rescaling_scales_the_rate(self, data, dim, h, a):
        # t -> t/a maps M0 to M0/a and h to h/a; each bisection ends at its
        # bracket's lower end, less than its 1e-12 below its root, so the
        # scaled rate and a times the rate both lie in (a root - 1e-12 max(1, a), a root]
        m0, m1 = draw_pencil(data, dim, 1.5)
        assert DaeLaw(m0 / a, m1).rate() == pytest.approx(a * DaeLaw(m0, m1).rate(), rel=1e-12)
        assert DelayLaw(m0 / a, m1, -h / a).rate() == pytest.approx(
            a * DelayLaw(m0, m1, -h).rate(), rel=0.0, abs=1e-12 * max(1.0, a))


def pole_law(m0, m1, g, a, singularities=None, tally=None, k=None):
    """M(z) = M0 + z M1 + z/(1 + a z) G + z^2 K, its pole -1/a declared
    unless ``singularities`` says otherwise; ``tally[0]`` counts eval_fn
    calls.  A nonzero K is a pole of z^-1 M(z) at z = infinity, lambda = 0,
    that the analyticity check does not see."""
    k = np.zeros_like(m0) if k is None else k

    def eval_fn(z):
        if tally is not None:
            tally[0] += 1
        return m0 + z * m1 + (z / (1.0 + a * z)) * g + z * z * k

    def shifted_fn(nu, z):
        with np.errstate(divide="ignore", invalid="ignore"):  # z = 1/nu: inf unless K = 0
            far = np.where(k == 0, 0.0, z * z * k / (1.0 - nu * z))
        return (1.0 - nu * z) * m0 + z * m1 + (z * (1.0 - nu * z) / (1.0 + (a - nu) * z)) * g + far

    poles = (-1.0 / a,) if singularities is None else singularities
    return CustomLaw(len(m0), eval_fn, poles, shifted_fn)


def scan_counts(monkeypatch, module, tally):
    """The eval_fn calls of each ``solvability_constant`` call that
    ``module`` makes, in order."""
    module = sys.modules[module]  # evostab.certify is also a function's name
    scan, counts = module.solvability_constant, []

    def counted(*args, **kwargs):
        start = tally[0]
        value = scan(*args, **kwargs)
        counts.append(tally[0] - start)
        return value

    monkeypatch.setattr(module, "solvability_constant", counted)
    return counts


class TestBoundaryScan:
    """Where the law is analytic, the scan samples the rows with sigma <= 0
    and the boundary of the rest of the rectangle only: a subset of the full
    grid of the oracle, holding its minimum."""

    @staticmethod
    def analytic_pole_law(data, dim, nu):
        # the pole lambda = -a lies left of the rectangle: a >= nu keeps -1/a
        # inside the excluded ball, and nu = 0 needs a > 0 only.  A z^2 K
        # term, Hermitian K of either sign, puts a pole at lambda = 0
        g, s, q_re, q_im, h_re, h_im, k_re, k_im = data.draw(
            hnp.arrays(float, (8, dim, dim), elements=st.floats(-1.0, 1.0)))
        m0 = g @ g.T
        q = q_re + 1j * q_im
        m1 = q @ q.conj().T + 0.1 * np.eye(dim) + (s - s.T)
        h = h_re + 1j * h_im
        k = (k_re + 1j * k_im) * data.draw(st.sampled_from([0.0, 0.01, 1.0]))
        a = max(nu, 0.1) * data.draw(st.floats(1.0, 10.0))
        return pole_law(m0, m1, h + h.conj().T, a, k=k + k.conj().T)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           nu=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    def test_custom_boundary_holds_the_grid_minimum(self, data, dim, nu):
        law = self.analytic_pole_law(data, dim, nu)
        assert law.analyticity(nu)[0]
        kw = dict(sigma_max=10.0, tau_max=data.draw(st.sampled_from([5.0, 50.0])),
                  n_sigma=20, n_tau=41)
        got, oracle = solvability_constant(law, nu, **kw), dense_positivity_scan(law, nu, **kw)
        assert got >= oracle
        assert got == pytest.approx(oracle, **MATCH)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=st.floats(0.0, 0.5))
    def test_integro_boundary_holds_the_grid_minimum(self, data, dim, nu):
        law = TestStructuredMinima.rotated_integro_law(data, dim)
        kw = dict(sigma_max=10.0, tau_max=100.0, n_sigma=20, n_tau=41)
        got = solvability_constant(law, nu, **kw)
        # the same joint-eigenbasis scan over every grid point and the same
        # graded tau samples, one row at a time
        full = min(law.positivity_min(np.array([sigma]), taus, boundary=False)
                   for sigma, taus in scan_rows(law, nu, **kw))
        assert got >= full
        assert got == pytest.approx(dense_positivity_scan(law, nu, **kw), **MATCH)

    # n_sigma = 1 at nu > 0 is the row sigma = 0, which holds lambda = 0
    # with an odd n_tau: both scans leave that point out
    @pytest.mark.parametrize("n_sigma, n_tau, tau_max", [
        (1, 40, 20.0), (2, 40, 20.0), (1, 41, 20.0), (2, 41, 20.0), (3, 1, 20.0),
        (3, 2, 20.0), (1, 1, 20.0), (2, 2, 20.0), (20, 1, 20.0), (20, 2, 20.0),
        (20, 41, 0.0), (3, 41, 0.0)])
    def test_degenerate_grids_equal_the_oracle(self, n_sigma, n_tau, tau_max):
        # every point is on the boundary, or every point of a row is one point
        rng = np.random.default_rng(7)
        g, s = rng.uniform(-1.0, 1.0, (2, 2, 2))
        custom = pole_law(g @ g.T, np.eye(2) + (s - s.T),
                          np.array([[0.5, 0.2j], [-0.2j, -0.4]]), 3.0)
        kernel = Kernel((KernelMode(np.diag([0.2, -0.1]), 1.0),
                         KernelMode(np.diag([0.05, 0.1]), 2.0)), nu0=0.5)
        integro = IntegroLaw(kernel, 1.0)
        kw = dict(sigma_max=10.0, tau_max=tau_max, n_sigma=n_sigma, n_tau=n_tau)
        cfg = SamplingConfig(**kw)
        sigmas, taus = _sigma_grid(0.3, cfg), np.linspace(-tau_max, tau_max, n_tau)
        assert solvability_constant(custom, 0.3, **kw) == dense_positivity_scan(custom, 0.3, **kw)
        # the joint-eigenbasis scan against itself over every grid point
        full = integro.positivity_min(sigmas, taus, boundary=False)
        got = solvability_constant(integro, 0.3, **kw)
        assert got == full
        assert got == pytest.approx(dense_positivity_scan(integro, 0.3, **kw), **MATCH)

    @pytest.mark.parametrize("nu, kw, expected", [
        (0.3, dict(n_sigma=1, n_tau=41), 2.0),
        (1.5, dict(sigma_max=1.0, n_sigma=3, n_tau=41), 1.0),
    ], ids=["one-row", "rows-minus-one-zero-one"])
    def test_lambda_zero_is_left_out(self, nu, kw, expected):
        # lambda M(1/lambda) = lambda + 2 is finite at lambda = 0, but the
        # custom stack evaluates M at z = 1/lambda: the scan leaves it out
        law = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z]]),
                        shifted_fn=lambda nu, z: np.array([[1.0 - nu * z + 2.0 * z]]))
        assert 0.0 in _sigma_grid(nu, SamplingConfig(**kw))
        rep = certify(law, nu, SamplingConfig(**kw))
        assert rep.c_nu_sampled == pytest.approx(expected, abs=1e-12)
        assert rep.c_nu_sampled == dense_positivity_scan(law, nu, **kw)

    def test_a_grid_of_lambda_zero_alone_is_refused(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z]]))
        with pytest.raises(ValueError, match="holds no point but lambda = 0"):
            solvability_constant(law, 0.3, tau_max=0.0, n_sigma=1, n_tau=1)

    @pytest.mark.parametrize("singularities", [(), (3.0,)], ids=["boundary", "full-grid"])
    def test_nonfinite_edge_point_names_its_sigma(self, singularities):
        # NaN at tau = tau_max of the eighth sigma row only, a row end that
        # the boundary scan samples in a batch of 21 points in ascending
        # sigma, which holds points of other rows too
        kw = dict(sigma_max=5.0, tau_max=20.0, n_sigma=10, n_tau=21)
        sigmas = _sigma_grid(0.5, SamplingConfig(**kw))
        bad = 1.0 / complex(sigmas[7], 20.0)

        def eval_fn(z):
            return np.array([[np.nan if abs(z - bad) < 1e-9 * abs(bad) else 1.0 + 2.0 * z]])

        law = CustomLaw(1, eval_fn, singularities)
        assert law.analyticity(0.5)[0] == (not singularities)
        with pytest.raises(NonFiniteSymbolError, match=re.escape(f"sigma = {sigmas[7]:.6g}")):
            solvability_constant(law, 0.5, **kw)

    def test_certify_scans_the_boundary_of_an_analytic_law(self, monkeypatch):
        tally = [0]
        counts = scan_counts(monkeypatch, "evostab.certify", tally)
        law = pole_law(np.eye(2), 3.0 * np.eye(2), 0.2 * np.eye(2), 2.0, tally=tally)
        report = certify(law, 0.8)
        assert report.analyticity.passed
        # one eval_fn call per point of the boundary scan of the 200 x 401
        # grid at nu = 0.8: the first and last rows in full, the tau = +-100
        # ends of the 198 rows between, and the 5 taus |tau| <= 1 (two tau
        # steps) of the 33 other rows with |sigma| < 1 and of the next row
        # above them; the other 268 points are graded tau samples around
        # lambda = 0 and the declared pole's lambda = -2
        sigmas, taus = _sigma_grid(0.8, SamplingConfig()), np.linspace(-100.0, 100.0, 401)
        points = np.concatenate([lam for _, lam in _scan_batches(sigmas, taus, True,
                                                                 law.scan_singularities)])
        assert np.isin(points.imag, taus).sum() == 2 * 401 + 198 * 2 + 34 * 5
        assert counts == [len(points)] == [1636]
        assert report.sample_grid == SamplingConfig().describe(
            0.8, "graded tau samples at the singularities")

    @pytest.mark.parametrize("m1, g, k, nu, sampling, shifted, c_sampled", [
        (1.0, 0.0, 0.02, 0.04, SamplingConfig(sigma_max=1.0), True, -5.2),
        (1.0, 0.0, 0.1, 0.5, SamplingConfig(), False, -3.40),
        (-0.8, 1.0, 0.025, 0.0, SamplingConfig(), True, -0.18)])
    def test_pole_at_infinity_fails_positivity(self, m1, g, k, nu, sampling, shifted, c_sampled):
        # M(z) = m1 z + g z/(1 + z/10) + k z^2 passes analyticity, but
        # z^-1 M(z) has the pole k/lambda at lambda = 0, z = infinity.  In
        # the first two Re z^-1 M(z) = 1 + k sigma/|lambda|^2 is unbounded
        # below on the rows with sigma <= 0.  In the third it dips below 0
        # between the tau samples of the first row, sigma = 0.05, to -0.18
        # at tau = -0.075, which the graded tau samples around lambda = 0
        # reach (the grid's row sigma = 0.15 alone read -0.05).  The
        # boundedness spot check misses z = 1/nu = 25 of the first.
        law = pole_law(np.zeros((1, 1)), m1 * np.eye(1), g * np.eye(1), 0.1,
                       None if g else (), k=k * np.eye(1))
        report = certify(law, nu, sampling)
        assert report.analyticity.passed
        assert report.shifted_bounded.passed == shifted
        assert not report.positivity.passed and not report.passed
        grid = dict(sigma_max=sampling.sigma_max, tau_max=sampling.tau_max,
                    n_sigma=sampling.n_sigma, n_tau=sampling.n_tau)
        assert report.c_nu_sampled == dense_positivity_scan(law, nu, **grid)
        assert report.c_nu_sampled == pytest.approx(c_sampled, abs=0.01)

    def test_a_dip_between_tau_samples_fails_positivity(self):
        # M(z) = -0.7 z + z/(1 + z/10) + 0.025 z^2, its pole -10 declared:
        # Re z^-1 M(z) = -0.7 + Re lambda/(lambda + 0.1) + 0.025 Re 1/lambda
        # is -0.0795 at lambda = 0.05 - 0.075i, between the first row's tau
        # samples 0 and -0.5, and at least 0.05 at every grid point.  The
        # graded tau samples around lambda = 0 reach the dip
        law = pole_law(np.zeros((1, 1)), -0.7 * np.eye(1), np.eye(1), 0.1, k=0.025 * np.eye(1))
        report = certify(law, 0.0)
        assert report.analyticity.passed and report.shifted_bounded.passed
        assert not report.positivity.passed and not report.passed
        assert report.c_nu_sampled == dense_positivity_scan(law, 0.0) < -0.079
        grid = _sigma_grid(0.0, SamplingConfig()), np.linspace(-100.0, 100.0, 401)
        assert law.positivity_min(*grid, boundary=False) == pytest.approx(0.05, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           nu=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
           n_sigma=st.sampled_from([10, 20, 40]), n_tau=st.sampled_from([21, 41]),
           tau_max=st.sampled_from([5.0, 50.0]), kind=st.sampled_from(["pole", "z+z^2"]))
    def test_boxed_scan_holds_the_meshed_grid_minimum(self, data, dim, nu, n_sigma, n_tau,
                                                      tau_max, kind):
        # the boundary scan against every grid point plus the same graded
        # tau samples.  z + z^2 at nu = 0.3: Re z^-1 M(z) = 1 + sigma/|lambda|^2
        # is smallest at tau = 0 on the last row with sigma < 0, inside the
        # box around lambda = 0
        kw = dict(sigma_max=10.0, tau_max=tau_max, n_sigma=n_sigma, n_tau=n_tau)
        if kind == "pole":
            law = self.analytic_pole_law(data, dim, nu)
        else:
            law, nu = CustomLaw(1, lambda z: np.array([[z + z * z]])), 0.3
        assert law.analyticity(nu)[0]
        got, oracle = solvability_constant(law, nu, **kw), dense_positivity_scan(law, nu, **kw)
        assert got >= oracle
        assert got == pytest.approx(oracle, **MATCH)
        if kind != "pole":
            below = max(s for s in _sigma_grid(nu, SamplingConfig(**kw)) if s < 0)
            assert got == oracle == pytest.approx(1.0 + 1.0 / below, rel=1e-12)

    def test_certify_scans_the_full_grid_where_analyticity_fails(self, monkeypatch):
        # a declared singularity at z = 0.5 lies outside the excluded ball
        tally = [0]
        counts = scan_counts(monkeypatch, "evostab.certify", tally)
        law = pole_law(np.eye(2), 3.0 * np.eye(2), 0.2 * np.eye(2), 2.0, (0.5,), tally)
        report = certify(law, 0.8)
        assert not report.analyticity.passed
        assert counts == [200 * 401]

    def test_solve_gate_scans_the_boundary(self, monkeypatch):
        tally = [0]
        counts = scan_counts(monkeypatch, "evostab.solver", tally)
        law = pole_law(np.eye(1), 3.0 * np.eye(1), 0.2 * np.eye(1), 2.0, tally=tally)
        f = gaussian_pulse(TimeGrid(-2.0, 1 / 16, 256), center=1.0, width=0.2)
        solve(EvolutionaryProblem(law, None, 0.5, f))
        # of the 40 x 81 grid at nu = 0 with tau_max = 50: the first and
        # last rows in full, the tau = +-50 ends of the 38 rows between, and
        # the 5 taus |tau| <= 2.5 (two tau steps) of the 8 other rows with
        # sigma < 2.5 and of the next row; the other 76 points are graded tau
        # samples around lambda = 0 and the declared pole's lambda = -2
        sigmas = _sigma_grid(0.0, SamplingConfig(10.0, 50.0, 40, 81))
        taus = np.linspace(-50.0, 50.0, 81)
        points = np.concatenate([lam for _, lam in _scan_batches(sigmas, taus, True,
                                                                 law.scan_singularities)])
        assert np.isin(points.imag, taus).sum() == 2 * 81 + 38 * 2 + 9 * 5
        assert counts == [len(points)] == [359]


def screen_law(data, dim, kind, scale):
    """A custom law for the screened positivity scan, its values times
    ``scale``:

    * ``positive``: M0 + z M1 + z^2 K, M0 >= 0, H(M1) > 0 and K Hermitian
      of either sign, a pole of z^-1 M(z) at lambda = 0, or zero;
    * ``negative``: M0 + z M1 with Hermitian M0 and H(M1) of either sign;
    * ``tie``: z K, whose lambda M(1/lambda) is K at every point up to the
      rounding of lambda (1/lambda), so the points tie within a few ulps,
      and exactly where those roundings agree;
    * ``tight``: z (a I + b R), R the reversal permutation, whose smallest
      eigenvalue a - |b| is Gershgorin's bound itself, so LAPACK's may lie
      below the bound by its rounding;
    * ``heavy``: M0 + z M1 with off-diagonal entries of M1 up to 50 times
      its unit diagonal, where Gershgorin's discs reach below every point's
      smallest eigenvalue and the screen keeps every point.
    """
    g, s, q_re, q_im, k_re, k_im = data.draw(
        hnp.arrays(float, (6, dim, dim), elements=st.floats(-1.0, 1.0)))
    q, k = q_re + 1j * q_im, k_re + 1j * k_im
    if kind == "positive":
        m0, m1 = g @ g.T, q @ q.conj().T + 0.1 * np.eye(dim) + (s - s.T)
        k = (k + k.conj().T) * data.draw(st.sampled_from([0.0, 0.01, 1.0]))
    elif kind == "negative":
        m0, m1, k = g + g.T, q + (s - s.T), 0.0 * k
    elif kind == "tie":
        m0, m1, k = 0.0 * g, k + k.conj().T, 0.0 * k
    elif kind == "tight":
        a, b = data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0))
        m0, m1, k = 0.0 * g, a * np.eye(dim) + b * np.eye(dim)[::-1], 0.0 * k
    else:
        m0, m1 = g @ g.T, np.eye(dim) + data.draw(st.floats(1.0, 50.0)) * (q + q.conj().T)
        np.fill_diagonal(m1, 1.0)
        k = 0.0 * k
    return CustomLaw(dim, lambda z: scale * (m0 + z * m1 + z * z * k))


class TestPositivityScreen:
    """The dense positivity scan calls LAPACK only on the points that its
    Gershgorin screen keeps, and its minimum is the unscreened scan's, bit
    for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6),
           nu=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
           kind=st.sampled_from(["positive", "negative", "tie", "tight", "heavy"]),
           scale=st.sampled_from([1e-150, 1.0, 1e150]),
           n_tau=st.sampled_from([1, 2, 41]))
    def test_screened_scan_is_the_unscreened_scan(self, data, dim, nu, kind, scale, n_tau):
        law = screen_law(data, dim, kind, scale)
        self.assert_same_minimum(law, _sigma_grid(nu, SamplingConfig(n_sigma=20)),
                                 np.linspace(-50.0, 50.0, n_tau))

    @staticmethod
    def assert_same_minimum(law, sigmas, taus):
        """The screened and unscreened scans give the same bits, on the
        full grid and on the boundary scan."""
        for boundary in (False, True):
            got = law.positivity_min(sigmas, taus, boundary)
            assert got.hex() == unscreened_positivity_min(law, sigmas, taus, boundary).hex()

    @staticmethod
    def counted_scan(monkeypatch, law, *grid):
        """(minimum, LAPACK eigenvalue problems) of ``law.positivity_min``,
        with numpy.linalg.eigvalsh as evostab.material calls it wrapped."""
        linalg, calls = sys.modules["evostab.material"].np.linalg, []
        eigvalsh = linalg.eigvalsh
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "eigvalsh", lambda h: calls.append(len(h)) or eigvalsh(h))
            value = law.positivity_min(*grid)
        return value, sum(calls)

    def test_screen_spares_eigenvalue_problems(self, monkeypatch):
        # every point of certify's grid at nu = 0.5, the scan of a law that
        # fails the analyticity check, on a law whose points' smallest
        # eigenvalues lie far apart compared with their Gershgorin radii.
        # Its Hermitian part sigma M0 + H(M1) does not depend on tau, so the
        # first row's 401 points tie and are all solved: on the boundary
        # scan they are more than a quarter of its points
        m0 = np.array([[1.0, 0.1], [0.1, 2.0]])
        m1 = np.array([[3.0, 0.2 + 0.1j], [0.4 - 0.3j, 4.0]])
        law = CustomLaw(2, lambda z: m0 + z * m1)
        grid = (_sigma_grid(0.5, SamplingConfig()), np.linspace(-100.0, 100.0, 401), False)
        points = sum(len(lam) for _, lam in _scan_batches(*grid, law.scan_singularities))
        value, problems = self.counted_scan(monkeypatch, law, *grid)
        assert 4 * problems < points
        assert value.hex() == unscreened_positivity_min(law, *grid).hex()

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_a_tight_gershgorin_bound_keeps_the_minimum(self, scale, nu):
        # the Hermitian part is about K, whose smallest eigenvalue 1 - b is
        # Gershgorin's bound: at 1e-150 LAPACK scales K and puts it 1-4 ulps
        # below the bound at some points, and only the slack keeps them
        b = 0.7830663077426994
        k = np.array([[1.0, b], [b, 1.0]])
        law = CustomLaw(2, lambda z: scale * (z * k))
        self.assert_same_minimum(law, _sigma_grid(nu, SamplingConfig(n_sigma=20)),
                                 np.linspace(-50.0, 50.0, 41))

    def test_tied_points_keep_the_minimum(self):
        # lambda M(1/lambda) is K up to rounding: on certify's grid at
        # nu = 0.5, ten points share the smallest of nine distinct values
        k = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
        law = CustomLaw(2, lambda z: z * k)
        grid = (_sigma_grid(0.5, SamplingConfig()), np.linspace(-100.0, 100.0, 401), True)
        value = law.positivity_min(*grid)
        assert value.hex() == unscreened_positivity_min(law, *grid).hex()
        assert value == pytest.approx(np.linalg.eigvalsh(k)[0], rel=1e-14)


def assert_same_result(got, expected):
    """Equal HypothesisResults, with the values compared bit for bit."""
    assert (got.passed, got.evidence) == (expected.passed, expected.evidence)
    bits = [None if r.value is None else r.value.hex() for r in (got, expected)]
    assert bits[0] == bits[1]


# nu = 0 and nu <= 0.05 keep 1/nu out of every ball B(r, r), r <= 10; larger
# nu put the removable point 1/nu inside B(10, 10) at least
SHIFT_NUS = st.one_of(st.just(0.0), st.floats(1e-3, 0.05), st.floats(0.0501, 2.0))


INTEGRO_MODES = (([0.2, 0.1], 1.0), ([0.05, 0.1], 2.0))
ROT = np.array([[0.6, 0.8j], [0.8j, 0.6]])


class TestShiftedBounded:
    """The screened shifted-symbol check against the dense loop."""

    @settings(max_examples=60, deadline=None)
    @given(nu=st.one_of(SHIFT_NUS, st.just(0.05), st.floats(0.0501, 1e3)))
    def test_removable_point_is_checked_once(self, nu):
        # 1/nu lies in B(10, 10) for nu > 0.05, and in the smaller balls too
        # for nu > 0.5 and nu > 1; it is one point all the same
        assert len(_shift_points(nu)) == (481 if nu > 0.05 else 480)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=SHIFT_NUS)
    def test_diagonal_pencil_laws_match_dense_loop(self, data, dim, nu):
        d0, d1, e = data.draw(hnp.arrays(float, (3, dim), elements=st.floats(-2.0, 2.0)))
        m0, m1 = np.diag(np.abs(d0)), np.diag(d1 + 1j * e)
        # |h| >= 5000 puts Re(lambda h) = (Re 1/z - nu) |h| past the floor's
        # 700 at the points near z = 20 once nu > 0.05 + 700/|h|
        h = -data.draw(st.one_of(st.floats(0.1, 2.0), st.floats(5e3, 2e4)))
        for law in (DaeLaw(m0, m1), DelayLaw(m0, m1, h)):
            assert_same_result(_check_shifted_bounded(law, nu), shifted_bounded_oracle(law, nu))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), rotate=st.booleans(),
           nu=st.one_of(SHIFT_NUS, st.floats(0.5, 1.0)))
    def test_integro_laws_match_dense_loop(self, data, dim, rotate, nu):
        # nu0 = 0.5: nu above it is refused by the shifted symbol
        law = TestStructuredMinima.rotated_integro_law(data, dim, rotate)
        assert_same_result(_check_shifted_bounded(law, nu), shifted_bounded_oracle(law, nu))

    @pytest.mark.parametrize("law, nu, evidence", [
        (DelayLaw([[1.0]], [[2.0]], -1e4), 0.5, "shifted symbol unavailable: Re(1/z) - nu = "),
        # largest Re(lambda h) 705, past the floor but below exp's overflow at 709.78
        (DelayLaw([[1.0]], [[2.0]], -1567.0), 0.5, "shifted symbol unavailable: Re(1/z) - nu = "),
        (IntegroLaw(scalar_kernel(), 1.0), 0.6, "shifted symbol unavailable: shifted symbol needs"),
    ])
    def test_refused_points_keep_the_dense_evidence(self, law, nu, evidence):
        got = _check_shifted_bounded(law, nu)
        assert not got.passed and got.evidence.startswith(evidence)
        assert_same_result(got, shifted_bounded_oracle(law, nu))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=SHIFT_NUS,
           fault=st.sampled_from([None, "inf", "nan", "overflow", "raise", "row", "cube", "error",
                                  "inf+error"]),
           error=st.sampled_from([ZeroDivisionError, OverflowError, TypeError]),
           chunk=st.sampled_from([None, 1, 7]), scale=st.sampled_from([1e-3, 1e3]))
    def test_custom_laws_match_dense_loop(self, data, dim, nu, fault, error, chunk, scale):
        # one drawn point, often one of the last, where the norms are
        # largest, is inf, nan (an SVD that fails), so large that its norm
        # overflows, or refused; or it does not stack with the others: its
        # first row alone, times scale, which has a finite norm, or a stack
        # of one matrix, which has no 2-norm; or it raises an error that is
        # not a refusal, alone or at a later point than an inf.  A chunk of
        # one or seven points, not the default all, puts it in a later chunk
        # than the first
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m0, m1 = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        pts = _shift_points(nu)
        at = data.draw(st.one_of(st.integers(0, len(pts) - 1), st.integers(len(pts) - 20, len(pts) - 1)))
        bad = complex(pts[at])
        later = complex(pts[data.draw(st.integers(min(at + 1, len(pts) - 1), len(pts) - 1))])
        raises = {"error": bad, "inf+error": later}.get(fault)
        scalar = dim == 1 and data.draw(st.booleans())  # a 0-d value for a 1 x 1 law

        def value(nu, z):
            if z == bad and fault == "raise":
                raise ValueError(f"refused at z = {z}")
            entry = {"inf": np.inf, "nan": np.nan, "overflow": 1.5e308, "inf+error": np.inf}.get(fault)
            if z == bad and entry is not None:
                return np.full((dim, dim), entry)
            if z == raises:
                raise error(f"failed at z = {z}")
            m = (1.0 - nu * z) * m0 + z * m1
            if z == bad and fault == "cube":
                return m[None]
            if z == bad and fault == "row":
                return scale * m[:1]
            return m[0, 0] if scalar else m

        def outcome(check):
            try:
                return check(law, nu)
            except Exception as exc:
                return type(exc), str(exc)

        law = CustomLaw(dim, lambda z: value(0.0, z), shifted_fn=value)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(sys.modules["evostab.certify"], "_NORM_CHUNK", chunk * dim * dim)
            got = outcome(_check_shifted_bounded)
        want = outcome(shifted_bounded_oracle)
        if fault == "error":
            assert got == want == (error, f"failed at z = {bad}")
            return
        assert_same_result(got, want)
        if fault in ("inf", "nan", "raise", "cube", "inf+error") or (fault == "overflow" and dim > 1):
            assert not got.passed
        if fault == "inf+error":  # the point as listed: the removable 1/nu is a float
            assert got.evidence == f"shifted symbol not finite at z = {pts[at]}"

    @pytest.mark.parametrize("fault, at, chunk", [
        ("row", 479, 5), ("cube", 10, 5), ("cube", 11, 5), ("cube", 10, 1)])
    def test_points_that_do_not_stack_are_normed_alone(self, fault, at, chunk):
        # M(z) = M0 + z M1 in chunks of five points or one, the largest norm
        # at point 448 (z near 20): a first row alone after it must not lose
        # it, and a stack of one matrix, first in its chunk, after it or
        # alone in it, has no 2-norm
        rng = np.random.default_rng(1)
        m0, m1 = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        bad = complex(_shift_points(0.0)[at])

        def value(z):
            m = m0 + z * m1
            if z != bad:
                return m
            return 1e-3 * m[:1] if fault == "row" else m[None]

        law = CustomLaw(2, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["evostab.certify"], "_NORM_CHUNK", chunk * 4)
            got = _check_shifted_bounded(law, 0.0)
        assert_same_result(got, shifted_bounded_oracle(law, 0.0))
        assert got.passed == (fault != "cube")

    def test_large_law_stacks_its_norms_in_bounded_chunks(self):
        # a dim-101 DAE law with a non-diagonal M1 has no screen: all 481
        # points are evaluated, in 2^20-entry stacks of 102 points (16.6 MB),
        # not one 78.5 MB stack
        m1 = 2.0 * np.eye(101) + np.diag(np.full(100, 0.3), 1) - np.diag(np.full(100, 0.2j), -1)
        law = DaeLaw(np.eye(101), m1)
        shifted, calls = DaeLaw.shifted, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DaeLaw, "shifted", lambda self, nu, z: calls.append(z) or shifted(self, nu, z))
            tracemalloc.start()
            try:
                got = _check_shifted_bounded(law, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(calls) == 481 and peak < 32e6
        assert_same_result(got, shifted_bounded_oracle(law, 0.5))

    @staticmethod
    def dense_points(law, nu):
        """(report, number of points at which certify evaluated the shifted
        symbol): check (b) alone calls ``law.shifted``, once per point it
        takes a dense 2-norm at."""
        shifted, calls = type(law).shifted, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(law), "shifted", lambda self, nu, z: calls.append(z) or shifted(self, nu, z))
            report = certify(law, nu, SamplingConfig(n_sigma=4, n_tau=5))
        return report, len(calls)

    def test_mixed1d_law_takes_a_handful_of_dense_norms(self):
        ind0, ind1 = indicators_from_intervals(50, (0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0))
        mixed = build_mixed_type_system(50, 1.0 / 51, ind0, ind1, 1.0)
        law = DaeLaw(mixed.M0, mixed.M1)
        for nu in (0.0, 0.5):
            report, calls = self.dense_points(law, nu)
            assert calls <= 4
            assert_same_result(report.shifted_bounded, shifted_bounded_oracle(law, nu))

    # the digest configs' delay law and integro kernel, the latter also turned
    # by a complex unitary into modes that are not diagonal
    @pytest.mark.parametrize("law", [
        DelayLaw(np.diag([1.0, 0.5]), np.diag([3.0, 2.5]), h=-1.0),
        IntegroLaw(Kernel(tuple(KernelMode(np.diag(d), b) for d, b in INTEGRO_MODES), 0.5), 1.0),
        IntegroLaw(Kernel(tuple(KernelMode(ROT @ np.diag(d) @ ROT.conj().T, b)
                                for d, b in INTEGRO_MODES), 0.5), 1.0),
    ], ids=["delay", "integro", "integro-rot"])
    def test_structured_laws_take_a_handful_of_dense_norms(self, law):
        for nu in (0.0, 0.3):
            report, calls = self.dense_points(law, nu)
            assert calls <= 4
            assert_same_result(report.shifted_bounded, shifted_bounded_oracle(law, nu))

    def test_laws_without_structure_evaluate_every_point(self):
        dense = DaeLaw([[1.0, 0.3], [0.3, 0.5]], [[2.0, 1.0], [0.0, 1.5]])
        custom = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z]]),
                           shifted_fn=lambda nu, z: np.array([[1.0 - nu * z + 2.0 * z]]))
        for law in (dense, custom):
            report, calls = self.dense_points(law, 0.5)  # 1/nu = 2 lies in B(10, 10)
            assert report.shifted_bounded.passed and calls == 481


class TestKernelConditions:
    def test_single_mode_passes(self):
        rep = check_kernel_conditions(scalar_kernel())
        assert rep.passed
        assert rep.sign_defect <= 1e-12

    def test_sign_condition_matches_formula(self):
        # t * Im Chat(t + i*nu0) = -gamma t^2 / (sqrt(2 pi)((beta-nu0)^2+t^2))
        k = scalar_kernel()
        for t in (0.3, 1.0, 7.0):
            ch = kernel_hat(k, complex(t, k.nu0))[0, 0]
            got = t * ch.imag
            expected = -0.25 * t * t / (SQRT_2PI * ((1.0 - 0.5) ** 2 + t * t))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_non_hermitian_detected(self):
        rep = check_kernel_conditions(Kernel(modes=(KernelMode([[0, 0.1], [0, 0]], 1.0),), nu0=0.5))
        assert not rep.hermitian_ok and not rep.passed
        assert any("Hermitian" in p for p in rep.problems())

    def test_non_commuting_detected(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        rep = check_kernel_conditions(
            Kernel(modes=(KernelMode(0.05 * a, 2.0), KernelMode(0.05 * b, 3.0)), nu0=0.5))
        assert not rep.commuting_ok and not rep.passed

    def test_sign_flip_detected(self):
        rep = check_kernel_conditions(scalar_kernel(gamma=-0.25))
        assert rep.hermitian_ok and rep.commuting_ok and not rep.sign_ok
        assert any("sign" in p for p in rep.problems())

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           kind=st.sampled_from(["commuting", "non-commuting", "sign-violating"]))
    def test_batched_sign_defects_match_pointwise(self, data, dim, kind):
        # one batched expression over every sampled (rho, t) against the
        # per-point loop, equal because the arithmetic is the same; commuting
        # modes share a random unitary eigenbasis, non-commuting ones are
        # independent PSD matrices, and sign-violating ones have eigenvalues
        # of both signs
        mats = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
        q, _ = np.linalg.qr(mats[0] + 2.0 * np.eye(dim) + 1j * mats[1])
        lo = -1.0 if kind == "sign-violating" else 0.0
        modes = []
        for _ in range(data.draw(st.integers(1, 3))):
            beta = data.draw(st.floats(0.6, 3.0))
            if kind == "non-commuting":
                r = data.draw(hnp.arrays(float, (dim, dim), elements=st.floats(-1.0, 1.0)))
                gamma = 0.2 * r @ r.T
            else:
                d = data.draw(hnp.arrays(float, dim, elements=st.floats(lo, 1.0)))
                gamma = q @ np.diag(0.2 * d) @ q.conj().T
            modes.append(KernelMode(gamma, beta))
        kernel = Kernel(tuple(modes), nu0=0.5)
        rep = check_kernel_conditions(kernel)
        base, lines = sign_defects_oracle(kernel)
        # the base line is the first of the sampled lines, so one defect holds both
        assert base <= lines
        assert rep.sign_defect == lines
        assert rep.sign_ok == (lines <= 1e-10)


class TestCertify:
    def test_dae_pass_and_fail(self):
        law = DaeLaw([[1.0]], [[2.0]])
        ok = certify(law, 1.5)
        assert ok.passed and ok.certificate == "closed_form"
        assert ok.c_nu == pytest.approx(0.5, abs=1e-12)
        bad = certify(law, 2.5)
        assert not bad.passed
        assert bad.analyticity.passed and bad.shifted_bounded.passed
        assert not bad.positivity.passed

    def test_delay_pass(self):
        rep = certify(DelayLaw([[1.0]], [[2.0]], -1.0), 0.4)
        assert rep.passed
        assert rep.c_nu == pytest.approx(2.0 - 0.4 - math.exp(0.4), abs=1e-12)
        assert rep.closed_form_rate == pytest.approx(0.4428544010, abs=1e-9)

    def test_integro_pass_and_analyticity_fail(self):
        law = IntegroLaw(scalar_kernel(), 1.0)
        ok = certify(law, 0.4)
        assert ok.passed
        beyond = certify(law, 0.6)
        assert not beyond.passed and not beyond.analyticity.passed
        assert beyond.certificate == "sampled"

    def test_custom_uses_sampling(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z]]),
                        shifted_fn=lambda nu, z: np.array([[1.0 - nu * z + 2.0 * z]]))
        rep = certify(law, 0.5, SamplingConfig(5.0, 20.0, 50, 21))
        assert rep.certificate == "sampled"
        assert rep.passed
        assert rep.closed_form_rate is None

    @pytest.mark.parametrize("singularity, nu, passed", [
        (-0.5, 0.5, True),       # inside the excluded ball B(-1, 1)
        (-3.0, 0.5, False),      # outside it
        (0.2 + 1j, 0.0, False),  # positive real part at nu = 0
    ])
    def test_custom_analyticity(self, singularity, nu, passed):
        law = CustomLaw(1, lambda z: np.array([[1.0 + 2.0 * z]]), (singularity,),
                        lambda nu, z: np.array([[1.0 - nu * z + 2.0 * z]]))
        rep = certify(law, nu, SamplingConfig(5.0, 20.0, 10, 11))
        assert rep.analyticity.passed is passed
        assert ("inside the excluded ball" in rep.analyticity.evidence) is passed

    def test_report_kv_pairs_structure(self):
        rep = certify(DaeLaw([[1.0]], [[2.0]]), 1.0)
        pairs = rep.kv_pairs()
        keys = [k for k, _ in pairs]
        assert keys[:6] == ["family", "nu", "pass", "analyticity",
                            "shifted_bounded", "positivity"]
        assert keys[-1] == "warnings"
        assert dict(pairs)["certificate"] == "closed_form"
        assert "PASS" in rep.to_text()

    def test_only_delay_grids_name_critical_values(self):
        kw = SamplingConfig(n_sigma=4, n_tau=5)
        grid = "sigma in [2.5, 10] x 4, tau in [-100, 100] x 5"
        assert certify(DaeLaw([[1.0]], [[2.0]]), 0.0, kw).sample_grid == grid
        assert certify(DelayLaw([[1.0]], [[2.0]], -1.0), 0.0, kw).sample_grid == \
            grid + " plus critical values"
        # the boundary scan of an analytic law takes graded tau samples; the
        # full grid, of a law that fails the check or of fewer than three
        # taus, does not
        graded = grid + " plus graded tau samples at the singularities"
        assert certify(IntegroLaw(scalar_kernel(), 1.0), 0.0, kw).sample_grid == graded
        assert certify(IntegroLaw(scalar_kernel(), 1.0), 0.6, kw).sample_grid == \
            "sigma in [-0.45, 10] x 4, tau in [-100, 100] x 5"
        two = SamplingConfig(n_sigma=4, n_tau=2)
        assert certify(IntegroLaw(scalar_kernel(), 1.0), 0.0, two).sample_grid == \
            "sigma in [2.5, 10] x 4, tau in [-100, 100] x 2"

    def test_single_sigma_grid_names_the_sampled_sigma(self):
        # n_sigma = 1 at nu = 0.3 samples sigma = -nu + nu/1 = 0 alone
        cfg = SamplingConfig(n_sigma=1, n_tau=5)
        assert _sigma_grid(0.3, cfg).tolist() == [0.0]
        grid = "sigma in [0, 0] x 1, tau in [-100, 100] x 5"
        assert certify(DaeLaw([[1.0]], [[2.0]]), 0.3, cfg).sample_grid == grid

    @pytest.mark.parametrize("law, problem", [
        (DaeLaw([[1.0]], [[-1.0]]),
         "Hermitian part of M1 must be positive definite, min eig = -1"),
        (DelayLaw([[1.0]], [[1.0]], -1.0),
         "need min eig of Hermitian part of M1 above 1, got 1"),
    ], ids=["dae-indefinite-m1", "delay-m1-at-one"])
    def test_missing_rate_is_a_warning(self, law, problem):
        rep = certify(law, 0.0, SamplingConfig(n_sigma=4, n_tau=5))
        assert rep.closed_form_rate is None and "closed_form_rate" not in dict(rep.kv_pairs())
        assert rep.certificate == "closed_form" and not rep.passed
        assert rep.warnings == (f"closed-form rate unavailable: {problem}",)

    def test_sampled_minimum_can_contradict_a_claimed_bound(self):
        # a bound that a law claims is checked against the sampled minimum:
        # M(z) = -z has z^-1 M(z) = -1 everywhere
        class ClaimedBound(CustomLaw):
            def lower_bound(self, nu):
                return 1.0

        law = ClaimedBound(1, lambda z: np.array([[-z]]))
        rep = certify(law, 0.0, SamplingConfig(n_sigma=4, n_tau=5))
        assert rep.certificate == "closed_form" and rep.c_nu == 1.0
        assert rep.c_nu_sampled == pytest.approx(-1.0)
        assert not rep.positivity.passed and not rep.passed
        assert rep.warnings == ("sampled minimum contradicts the closed-form bound",)

    @pytest.mark.parametrize("law, nu, warning", [
        (IntegroLaw(Kernel((KernelMode([[-0.6]], 2.0),), 0.5), 0.5), 0.3,
         "closed-form rate unavailable: transform sign condition violated (defect 0.239)"),
        (IntegroLaw(scalar_kernel(), 1.0), 0.6,
         "no closed-form positivity bound at this nu; sampled evidence only"),
    ], ids=["no-sign-condition", "integro-beyond-nu0"])
    def test_warnings_are_rendered(self, law, nu, warning):
        # each warning is a "  warning: " line of the text report and the
        # value of the kv report's "warnings" key
        rep = certify(law, nu, SamplingConfig(n_sigma=4, n_tau=5))
        assert rep.warnings == (warning,)
        assert f"\n  warning: {warning}\n" in rep.to_text()
        assert rep.to_text().count("warning:") == 1
        assert dict(rep.kv_pairs())["warnings"] == warning

    def test_rate_cap_for_algebraic_law(self):
        rep = certify(DaeLaw([[0.0]], [[2.0]]), 1.0)
        got = dict(rep.kv_pairs())
        assert got["closed_form_rate"] == pytest.approx(1e6)
        assert got["rate_capped"] is True

    @pytest.mark.parametrize("m0, m1, rate, capped", [(1e-7, 1.0, 1e7, True),
                                                      (1.0, 2.0, 2.0, False)],
                             ids=["above-cap", "below-cap"])
    def test_finite_rate_is_flagged_when_capped(self, m0, m1, rate, capped):
        # the finite rate 1e7 is reported as the cap 1e6, and flagged
        rep = certify(DaeLaw([[m0]], [[m1]]), 0.0)
        assert rep.closed_form_rate == pytest.approx(rate)
        assert rep.capped_rate == min(rate, 1e6)
        got = dict(rep.kv_pairs())
        assert got["closed_form_rate"] == rep.capped_rate
        assert got["rate_capped"] is capped
        assert ("(capped)" in rep.to_text()) is capped

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            certify(DaeLaw([[1.0]], [[2.0]]), -1.0)

    @pytest.mark.parametrize("kw", [{"n_sigma": 0}, {"n_tau": -3}, {"n_sigma": 2.5},
                                    {"sigma_max": -1.0}, {"sigma_max": 0.0},
                                    {"sigma_max": float("inf")}, {"tau_max": float("nan")},
                                    {"tau_max": -1.0}])
    def test_bad_sampling_rejected(self, kw):
        with pytest.raises(ValueError):
            SamplingConfig(**kw)
        with pytest.raises(ValueError):
            solvability_constant(DaeLaw([[1.0]], [[2.0]]), 0.5, **kw)
