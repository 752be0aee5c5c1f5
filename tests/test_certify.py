import math
import sys

import numpy as np
import pytest
from _oracles import (delay_rate_oracle, dense_positivity_scan, integro_rate_oracle,
                      sign_defects_oracle)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evostab import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel,
                     KernelAdmissibilityError, KernelMode, NonFiniteSymbolError,
                     SamplingConfig, build_mixed_type_system, certify,
                     check_kernel_conditions, closed_form_rate, kernel_hat,
                     solvability_constant, solvability_lower_bound)

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

    def test_integro_rate_rejects_bad_kernel(self):
        with pytest.raises(KernelAdmissibilityError):
            IntegroLaw(Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5), 1.0).rate()

    def test_closed_form_rate_dispatch(self):
        assert closed_form_rate(DaeLaw([[1.0]], [[2.0]])) == pytest.approx(2.0)
        assert closed_form_rate(CustomLaw(1, lambda z: np.eye(1))) is None


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

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_integro_pole_on_the_grid_is_an_error(self):
        # nu = 2 puts the sigma row -1 = -beta (tau = 0) on the grid
        law = IntegroLaw(scalar_kernel(), 1.0)
        with pytest.raises(NonFiniteSymbolError, match="sigma = -1"):
            solvability_constant(law, 2.0, sigma_max=3.5, tau_max=10.0, n_sigma=8, n_tau=21)

    @staticmethod
    def rotated_integro_law(data, dim):
        """Modes Q diag(d_j) Q* with a random unitary Q; the diagonals take
        few distinct values, so joint eigenvalues repeat."""
        n_modes = data.draw(st.integers(1, 3))
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

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=st.floats(0.0, 0.5))
    def test_integro_fallback_is_the_dense_scan(self, data, dim, nu):
        law = self.rotated_integro_law(data, dim)
        kw = dict(sigma_max=10.0, tau_max=100.0, n_sigma=20, n_tau=41)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["evostab.material"], "_mode_eigenvalues", lambda kernel: None)
            got = solvability_constant(law, nu, **kw)
        assert got == dense_positivity_scan(law, nu, **kw)


class TestKernelConditions:
    def test_single_mode_passes(self):
        rep = check_kernel_conditions(scalar_kernel())
        assert rep.passed
        assert rep.sign_defect_base <= 1e-12

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
        assert (rep.sign_defect_base, rep.sign_defect_lines) == (base, lines)
        assert rep.sign_ok == (base <= 1e-10 and lines <= 1e-10)


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

    def test_rate_cap_for_algebraic_law(self):
        rep = certify(DaeLaw([[0.0]], [[2.0]]), 1.0)
        got = dict(rep.kv_pairs())
        assert got["closed_form_rate"] == pytest.approx(1e6)
        assert got["rate_capped"] is True

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
