import numpy as np
import pytest

from evostab import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel,
                     KernelAdmissibilityError, KernelMode, eval_symbol,
                     hermitian_part_min_eig, kernel_eval, kernel_hat,
                     kernel_weighted_l1, law_family, shifted_symbol)
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
        assert scalar_kernel().structural_violations() == []
        bad_h = Kernel(modes=(KernelMode([[0, 1], [0, 0]], 1.0),), nu0=0.5)
        assert any("Hermitian" in p for p in bad_h.structural_violations())
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        bad_c = Kernel(modes=(KernelMode(0.1 * a, 2.0), KernelMode(0.1 * b, 3.0)), nu0=0.5)
        assert any("commut" in p for p in bad_c.structural_violations())
        slow = Kernel(modes=(KernelMode([[0.25]], 1.0),), nu0=1.0)
        assert any("beta_min" in p for p in slow.structural_violations())
        heavy = Kernel(modes=(KernelMode([[0.8]], 1.0),), nu0=0.5)
        assert any("L1" in p for p in heavy.structural_violations())

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
        assert law_family(DaeLaw(np.eye(1), np.eye(1))) == "dae"
        assert law_family(DelayLaw(np.eye(1), np.eye(1), -1.0)) == "delay"
        assert law_family(IntegroLaw(scalar_kernel(), 1.0)) == "integro"
        assert law_family(CustomLaw(1, lambda z: np.eye(1))) == "custom"


class TestEvalSymbol:
    def test_dae_value(self):
        law = DaeLaw([[1.0]], [[2.0]])
        assert eval_symbol(law, 0.5)[0, 0] == pytest.approx(2.0)
        assert eval_symbol(law, 0.0)[0, 0] == pytest.approx(1.0)  # z=0 fine here

    def test_delay_value(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        got = eval_symbol(law, 1.0)[0, 0]
        assert got == pytest.approx(1.0 + np.exp(-1.0) + 2.0, abs=1e-12)

    def test_delay_overflow_guard(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        with pytest.raises(ValueError):
            eval_symbol(law, -1e-3)

    def test_integro_value(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        assert eval_symbol(law, 1.0)[0, 0] == pytest.approx(1.0 / 0.875 + 1.0, abs=1e-12)

    def test_integro_singular_ball(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)  # ball center -1, radius 1
        with pytest.raises(ValueError):
            eval_symbol(law, -0.5)
        eval_symbol(law, 0.5)  # outside the ball

    def test_z_zero_rejected_for_nonpolynomial(self):
        with pytest.raises(ValueError):
            eval_symbol(DelayLaw([[1.0]], [[2.0]], -1.0), 0.0)
        with pytest.raises(ValueError):
            eval_symbol(IntegroLaw(scalar_kernel(), 1.0), 0.0)

    def test_custom_singularity(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 / z]]), singularities=(0.0,))
        with pytest.raises(ValueError):
            eval_symbol(law, 0.0)
        assert eval_symbol(law, 2.0)[0, 0] == pytest.approx(0.5)


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
                    direct = lam * eval_symbol(law, 1.0 / lam)
                    assert np.abs(stack[k] - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_integro_rho_guard(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        with pytest.raises(ValueError):
            frequency_operator_stack(law, [0.0], -0.5)


class TestShiftedSymbol:
    def test_nu_zero_is_plain_symbol(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        z = 0.4 + 0.3j
        assert np.abs(shifted_symbol(law, 0.0, z) - eval_symbol(law, z)).max() <= 1e-15

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
                if law_family(law) == "integro":
                    r = 1.0 / (2 * law.kernel.nu0)
                    if abs(w + r) <= r + 1e-6:
                        continue
                direct = (1.0 - nu * z) * eval_symbol(law, w)
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
