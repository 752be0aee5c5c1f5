import warnings

import numpy as np
import pytest
from _oracles import custom_stack_oracle, kernel_l1_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from evostab import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel,
                     KernelAdmissibilityError, KernelMode, QuadratureError,
                     check_kernel_conditions, hermitian_part_min_eig, kernel_eval,
                     kernel_hat, kernel_weighted_l1, shifted_symbol)
from evostab.material import _mode_eigenvalues, frequency_operator_stack

SQRT_2PI = np.sqrt(2 * np.pi)


def scalar_kernel(gamma=0.25, beta=1.0, nu0=0.5):
    return Kernel(modes=(KernelMode(np.array([[gamma]]), beta),), nu0=nu0)


class TestHermitianPart:
    def test_values(self):
        assert hermitian_part_min_eig(2 * np.eye(3)) == pytest.approx(2.0)
        assert hermitian_part_min_eig(np.array([[0, 1], [-1, 0]])) == pytest.approx(0.0, abs=1e-14)
        assert hermitian_part_min_eig(np.array([[1, 1], [-1, 3]])) == pytest.approx(1.0)


class TestKernel:
    def test_eval_causal(self):
        k = scalar_kernel()
        assert kernel_eval(k, -0.5)[0, 0] == 0.0
        assert kernel_eval(k, 0.0)[0, 0] == pytest.approx(0.25)
        assert kernel_eval(k, np.log(2.0))[0, 0] == pytest.approx(0.125)

    def test_hat_values(self):
        k = scalar_kernel()
        assert kernel_hat(k, 0.0)[0, 0] == pytest.approx(0.25 / SQRT_2PI)
        got = kernel_hat(k, 1.0 + 0.5j)[0, 0]
        assert got == pytest.approx(0.25 / (SQRT_2PI * (0.5 + 1.0j)), abs=1e-14)

    def test_hat_strip_guard(self):
        k = scalar_kernel()
        with pytest.raises(ValueError):
            kernel_hat(k, 1j * 0.6)

    def test_weighted_l1_single_mode(self):
        k = scalar_kernel()
        assert kernel_weighted_l1(k, 0.5) == pytest.approx(0.5, abs=1e-10)
        assert kernel_weighted_l1(k, 0.0) == pytest.approx(0.25, abs=1e-10)

    def test_weighted_l1_zero_kernel(self):
        k = Kernel(modes=(KernelMode(np.zeros((2, 2)), 1.0),), nu0=0.5)
        assert kernel_weighted_l1(k, 0.3) == 0.0

    def test_weighted_l1_two_modes_vs_analytic(self):
        # positive scalar modes: the norm of the sum is the sum, so the
        # quadrature must match gamma1/(b1-nu) + gamma2/(b2-nu)
        k = Kernel(modes=(KernelMode([[0.2]], 1.5), KernelMode([[0.1]], 3.0)), nu0=0.5)
        nu = 0.4
        expected = 0.2 / (1.5 - nu) + 0.1 / (3.0 - nu)
        assert kernel_weighted_l1(k, nu) == pytest.approx(expected, abs=1e-9)

    def test_weighted_l1_divergence_guard(self):
        with pytest.raises(ValueError):
            kernel_weighted_l1(scalar_kernel(), 1.0)

    def test_structural_violations(self):
        assert scalar_kernel().conditions.problems() == []
        bad_h = Kernel(modes=(KernelMode([[0, 1], [0, 0]], 1.0),), nu0=0.5)
        assert any("Hermitian" in p for p in bad_h.conditions.problems())
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        bad_c = Kernel(modes=(KernelMode(0.1 * a, 2.0), KernelMode(0.1 * b, 3.0)), nu0=0.5)
        assert any("commut" in p for p in bad_c.conditions.problems())
        # a pole of Chat in the strip: neither the L1 norm nor the sign is evaluated
        slow = Kernel(modes=(KernelMode([[0.25]], 1.0),), nu0=1.0)
        assert slow.conditions.problems() == ["beta_min = 1 must exceed nu0 = 1"]
        assert slow.conditions.weighted_l1 == slow.conditions.sign_defect_base == np.inf
        heavy = Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5)
        assert any("L1" in p for p in heavy.conditions.problems())
        for kernel in (bad_h, bad_c, slow, heavy):
            assert not kernel.conditions.structural_ok and not kernel.conditions.passed

    def test_second_integro_law_reuses_the_report(self, monkeypatch):
        calls = []

        def counted(kernel, nu):
            calls.append(nu)
            return kernel_weighted_l1(kernel, nu)

        monkeypatch.setattr("evostab.material.kernel_weighted_l1", counted)
        kernel = Kernel(modes=(KernelMode(np.diag([0.2, 0.1]), 1.0),
                               KernelMode(np.diag([0.05, 0.1]), 2.0)), nu0=0.5)
        IntegroLaw(kernel, c=1.0)
        assert calls == [0.5]
        IntegroLaw(kernel, c=0.3)
        assert calls == [0.5]
        assert check_kernel_conditions(kernel) is kernel.conditions

    def test_mode_eigenvalues(self):
        # commuting modes in a rotated basis: the joint eigenvalues come back
        # in one common order; non-commuting modes have no joint eigenbasis
        q = np.array([[3.0, -4.0], [4.0, 3.0]]) / 5.0
        d1, d2 = np.array([0.1, -0.2]), np.array([0.3, 0.3])
        k = Kernel(modes=(KernelMode(q @ np.diag(d1) @ q.T, 1.0),
                          KernelMode(q @ np.diag(d2) @ q.T, 2.0)), nu0=0.5)
        g = _mode_eigenvalues(k)
        order = np.argsort(g[0])
        assert np.allclose(g[:, order], [np.sort(d1), d2[np.argsort(d1)]], atol=1e-15)
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert _mode_eigenvalues(Kernel(modes=(KernelMode(a, 2.0), KernelMode(b, 3.0)),
                                        nu0=0.5)) is None
        assert _mode_eigenvalues(Kernel(modes=(), nu0=0.5, dim=2)).shape == (0, 2)

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            KernelMode([[1.0]], 0.0)
        with pytest.raises(ValueError):
            Kernel(modes=(KernelMode([[1.0]], 1.0),), nu0=0.0)
        with pytest.raises(ValueError):
            Kernel(modes=(KernelMode([[1.0]], 1.0), KernelMode(np.eye(2), 2.0)), nu0=0.5)
        with pytest.raises(ValueError):
            Kernel(modes=(), nu0=0.5)
        assert Kernel(modes=(), nu0=0.5, dim=3).dim == 3


# Two diagonal modes whose curves s_1 = 0.3 e^{-2t} + 0.02 e^{-0.8t} and
# s_2 = 0.05 e^{-2t} + 0.1 e^{-0.8t} cross once: ||C(t)|| has a kink there.
CROSSING_JOINT = np.array([[0.3, 0.05], [0.02, 0.1]])
CROSSING_BETAS = (2.0, 0.8)


def crossing_kernel():
    return Kernel(tuple(KernelMode(np.diag(d), b) for d, b in zip(CROSSING_JOINT, CROSSING_BETAS)),
                  nu0=0.5)


class TestKernelL1:
    """The Gauss-Legendre kernel L1 norm against scipy quad told the kinks."""

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5])
    def test_crossing_curves_match_oracle_without_warning(self, nu):
        kernel = crossing_kernel()
        expected = kernel_l1_oracle(kernel, nu, CROSSING_JOINT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_weighted_l1(kernel, nu)
        assert abs(got - expected) <= 1e-12

    def test_kink_next_to_a_panel_end(self):
        # the curves cross 6.4e-5 before the end of a bisected panel, closer
        # than the last Gauss node of both the panel's rule and its halves'
        # rules, so those two agree while both miss the kink by 1.2e-10
        joint = np.array([[0.10550804693430005, 0.0], [0.0, 0.41558039525419777]])
        betas = (0.9378402262758108, 2.2188819843835685)
        kernel = Kernel(tuple(KernelMode(np.diag(d), b) for d, b in zip(joint, betas)), nu0=0.5)
        nu = 0.06484621689933778
        assert abs(kernel_weighted_l1(kernel, nu) - kernel_l1_oracle(kernel, nu, joint)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4), nu=st.floats(0.0, 0.5))
    def test_commuting_psd_modes_match_oracle(self, data, dim, nu):
        mats = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
        q, r = np.linalg.qr(mats[0] + 2.0 * np.eye(dim) + 1j * mats[1])
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        joint = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 3)), dim),
                                     elements=st.floats(0.0, 1.0)))
        modes = tuple(KernelMode(q @ np.diag(d) @ q.conj().T, data.draw(st.floats(0.6, 3.0)))
                      for d in joint)
        kernel = Kernel(modes, nu0=0.5)
        assert abs(kernel_weighted_l1(kernel, nu) - kernel_l1_oracle(kernel, nu, joint)) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), nu=st.floats(0.0, 0.5))
    def test_noncommuting_fallback_matches_oracle(self, data, dim, nu):
        roots = data.draw(hnp.arrays(float, (data.draw(st.integers(2, 3)), dim, dim),
                                     elements=st.floats(-1.0, 1.0)))
        modes = tuple(KernelMode(r @ r.T / dim, data.draw(st.floats(0.6, 3.0))) for r in roots)
        kernel = Kernel(modes, nu0=0.5)
        assume(_mode_eigenvalues(kernel) is None)
        assert abs(kernel_weighted_l1(kernel, nu) - kernel_l1_oracle(kernel, nu)) <= 1e-12

    def test_normal_non_hermitian_modes_keep_their_phase(self):
        # |0.2i e^{-t} + 0.1 e^{-2t}|: the imaginary mode is not rounded away
        kernel = Kernel((KernelMode([[0.2j]], 1.0), KernelMode([[0.1]], 2.0)), nu0=0.5)
        expected, _ = quad(lambda t: abs(0.2j * np.exp(-t) + 0.1 * np.exp(-2.0 * t)),
                           0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        assert abs(kernel_weighted_l1(kernel, 0.0) - expected) <= 1e-12

    def test_non_normal_modes_take_singular_values(self):
        # C(t) = [[0, e^{-t}], [0.5 e^{-2t}, 0]] has norm e^{-t}, so L1(0) = 1
        kernel = Kernel((KernelMode([[0, 1], [0, 0]], 1.0), KernelMode([[0, 0], [0.5, 0]], 2.0)),
                        nu0=0.5)
        assert _mode_eigenvalues(kernel) is None
        assert abs(kernel_weighted_l1(kernel, 0.0) - 1.0) <= 1e-12

    def test_level_cap_raises_instead_of_a_partial_sum(self, monkeypatch):
        monkeypatch.setattr("evostab.material._L1_MAX_LEVELS", 1)
        with pytest.raises(QuadratureError, match="did not converge within 1 bisection"):
            kernel_weighted_l1(crossing_kernel(), 0.3)


class TestLawConstruction:
    def test_dae_guards(self):
        with pytest.raises(ValueError):
            DaeLaw(np.array([[0, 1], [0, 0]]), np.eye(2))  # M0 not Hermitian
        with pytest.raises(ValueError):
            DaeLaw(-np.eye(2), np.eye(2))  # M0 negative
        with pytest.raises(ValueError):
            DaeLaw(np.eye(2), np.eye(3))

    def test_delay_guards(self):
        with pytest.raises(ValueError):
            DelayLaw(np.eye(2), np.eye(2), h=0.5)
        with pytest.raises(ValueError):
            DelayLaw(np.eye(2), np.eye(2), h=0.0)

    def test_integro_guards(self):
        with pytest.raises(ValueError):
            IntegroLaw(scalar_kernel(), c=0.0)
        with pytest.raises(KernelAdmissibilityError):
            IntegroLaw(Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5), c=1.0)

    def test_family_tags(self):
        assert DaeLaw(np.eye(1), np.eye(1)).family == "dae"
        assert DelayLaw(np.eye(1), np.eye(1), -1.0).family == "delay"
        assert IntegroLaw(scalar_kernel(), 1.0).family == "integro"
        assert CustomLaw(1, lambda z: np.eye(1)).family == "custom"


class TestEvalSymbol:
    def test_dae_value(self):
        law = DaeLaw([[1.0]], [[2.0]])
        assert law.symbol(complex(0.5))[0, 0] == pytest.approx(2.0)
        assert law.symbol(complex(0.0))[0, 0] == pytest.approx(1.0)  # z=0 fine here

    def test_delay_value(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        got = law.symbol(complex(1.0))[0, 0]
        assert got == pytest.approx(1.0 + np.exp(-1.0) + 2.0, abs=1e-12)

    def test_delay_overflow_guard(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        with pytest.raises(ValueError):
            law.symbol(complex(-1e-3))

    def test_integro_value(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        assert law.symbol(complex(1.0))[0, 0] == pytest.approx(1.0 / 0.875 + 1.0, abs=1e-12)

    def test_integro_singular_ball(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)  # ball center -1, radius 1
        with pytest.raises(ValueError):
            law.symbol(complex(-0.5))
        law.symbol(complex(0.5))  # outside the ball

    def test_z_zero_rejected_for_nonpolynomial(self):
        with pytest.raises(ValueError):
            DelayLaw([[1.0]], [[2.0]], -1.0).symbol(complex(0.0))
        with pytest.raises(ValueError):
            IntegroLaw(scalar_kernel(), 1.0).symbol(complex(0.0))

    def test_custom_singularity(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 / z]]), singularities=(0.0,))
        with pytest.raises(ValueError):
            law.symbol(complex(0.0))
        assert law.symbol(complex(2.0))[0, 0] == pytest.approx(0.5)


class TestFrequencyOperator:
    def test_dae_point(self):
        law = DaeLaw([[1.0]], [[2.0]])
        assert frequency_operator_stack(law, [0.0], 1.0)[0][0, 0] == pytest.approx(3.0)

    def laws(self):
        m0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        m1 = np.array([[1.0, 1.0], [-1.0, 3.0]])
        kern = Kernel(modes=(KernelMode(0.25 * np.eye(2), 1.0),), nu0=0.5)
        return [
            DaeLaw(m0, m1),
            DelayLaw(m0, m1, h=-0.7),
            IntegroLaw(kern, c=1.2),
            CustomLaw(2, lambda z: m0 + z * m1 + z * z * np.eye(2)),
        ]

    def test_stack_matches_symbol(self):
        rng = np.random.default_rng(21)
        xi = rng.uniform(-40, 40, size=17)
        for law in self.laws():
            for rho in (0.3, 1.0):
                stack = frequency_operator_stack(law, xi, rho)
                for k, x in enumerate(xi):
                    lam = 1j * x + rho
                    direct = lam * law.symbol(complex(1.0 / lam))
                    assert np.abs(stack[k] - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_integro_rho_guard(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        with pytest.raises(ValueError):
            frequency_operator_stack(law, [0.0], -0.5)


def custom_law(dim: int, singularities=()) -> CustomLaw:
    """M(z) = M0 + z M1 + z^2 I with fixed non-Hermitian M0 and M1; no
    Python complex division, so no z raises inside the symbol."""
    rng = np.random.default_rng(dim)
    m0, m1 = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    return CustomLaw(dim, lambda z: m0 + z * m1 + (z * z) * np.eye(dim), singularities)


class TestCustomStack:
    # |lambda| below ~1e-308 makes 1/lambda overflow to inf (lambda = 0 to inf + nan i)
    _parts = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-306, 1e-306))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), sigma=_parts,
           taus=hnp.arrays(float, st.integers(0, 40), elements=_parts))
    def test_stack_is_bitwise_the_per_point_loop(self, dim, sigma, taus):
        law, lam = custom_law(dim), sigma + 1j * taus
        with np.errstate(all="ignore"):
            got, want = law.stack(lam), custom_stack_oracle(law, lam)
        assert got.shape == want.shape == (lam.size, dim, dim)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_python_scalar_symbol_stacks_for_dim_one(self):
        lam = np.array([0.5 + 2j, 1.0, -3j])
        stack = CustomLaw(1, lambda z: 1.0 + z).stack(lam)
        assert stack.shape == (3, 1, 1)
        assert np.array_equal(stack[:, 0, 0], lam * (1.0 + 1.0 / lam))

    def test_vector_symbol_is_refused_for_dim_two(self):
        # a (dim,) value used to be broadcast into every row of the matrix
        with pytest.raises(ValueError):
            CustomLaw(2, lambda z: np.array([1.0, z])).stack(np.array([1.0 + 1j, 2.0]))

    def test_row_through_a_declared_singularity_raises(self):
        law = custom_law(2, singularities=(-1.0,))
        with pytest.raises(ValueError, match="declared singularity"):
            law.stack(-1.0 + 1j * np.linspace(-1.0, 1.0, 5))  # tau = 0 gives z = -1


class TestShiftedSymbol:
    def test_nu_zero_is_plain_symbol(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        z = 0.4 + 0.3j
        assert np.abs(shifted_symbol(law, 0.0, z) - law.symbol(complex(z))).max() <= 1e-15

    def test_dae_removable_point(self):
        # at z = 1/nu the prefactor vanishes and only z*M1 survives
        law = DaeLaw([[1.0]], [[2.0]])
        assert shifted_symbol(law, 1.0, 1.0)[0, 0] == pytest.approx(2.0)

    def test_matches_unshifted_composition(self):
        m0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        m1 = np.array([[1.0, 1.0], [-1.0, 3.0]])
        laws = [
            DaeLaw(m0, m1),
            DelayLaw(m0, m1, h=-0.7),
            IntegroLaw(Kernel(modes=(KernelMode(0.25 * np.eye(2), 1.0),), nu0=0.5), c=1.2),
        ]
        rng = np.random.default_rng(22)
        for law in laws:
            nu = 0.3
            for _ in range(10):
                z = complex(rng.uniform(0.05, 0.5), rng.uniform(-0.3, 0.3))
                w = z / (1.0 - nu * z)
                if law.family == "integro":
                    r = 1.0 / (2 * law.kernel.nu0)
                    if abs(w + r) <= r + 1e-6:
                        continue
                direct = (1.0 - nu * z) * law.symbol(complex(w))
                got = shifted_symbol(law, nu, z)
                assert np.abs(got - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_integro_nu_guard(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        with pytest.raises(ValueError):
            shifted_symbol(law, 0.6, 0.5)

    def test_custom_needs_rule(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 + z]]))
        with pytest.raises(ValueError):
            shifted_symbol(law, 0.5, 1.0)
        with_rule = CustomLaw(1, lambda z: np.array([[1.0 + z]]),
                              shifted_fn=lambda nu, z: np.array([[1.0 - nu * z + z]]))
        assert shifted_symbol(with_rule, 0.5, 1.0)[0, 0] == pytest.approx(1.5)

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            shifted_symbol(DaeLaw([[1.0]], [[2.0]]), -0.1, 1.0)
