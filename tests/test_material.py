import sys
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from _oracles import custom_stack_oracle, kernel_l1_oracle
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from evostab import (CustomLaw, DaeLaw, DelayLaw, EvolutionaryProblem, IntegroLaw, Kernel,
                     KernelAdmissibilityError, KernelMode, QuadratureError, SpatialOperator,
                     TimeGrid, build_mixed_type_system, certify, check_kernel_conditions,
                     gaussian_pulse, hermitian_part_min_eig, indicators_from_intervals,
                     kernel_hat, kernel_weighted_l1, solve)
from evostab.certify import SHIFT_RADII, solvability_constant
from evostab.material import _eigvalsh, frequency_operator_stack

SQRT_2PI = np.sqrt(2 * np.pi)


def scalar_kernel(gamma=0.25, beta=1.0, nu0=0.5):
    return Kernel(modes=(KernelMode(np.array([[gamma]]), beta),), nu0=nu0)


class TestHermitianPart:
    def test_values(self):
        assert hermitian_part_min_eig(2 * np.eye(3)) == pytest.approx(2.0)
        assert hermitian_part_min_eig(np.array([[0, 1], [-1, 0]])) == pytest.approx(0.0, abs=1e-14)
        assert hermitian_part_min_eig(np.array([[1, 1], [-1, 3]])) == pytest.approx(1.0)


# Every double, subnormals and both zeros included, and a moderate range
# whose draws mostly sit where the diagonal rule sorts.
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
_MODERATE = st.floats(-1e3, 1e3)
_DIMS = st.just(2) | st.integers(1, 101)
_STACKS = st.none() | st.integers(0, 3)


def diagonal_stack(d: np.ndarray, complex_dtype: bool) -> np.ndarray:
    """The matrices diag(d[..., :]) in float64 or complex128."""
    n = d.shape[-1]
    h = np.zeros(d.shape + (n,), dtype=complex if complex_dtype else float)
    h[..., np.arange(n), np.arange(n)] = d
    return h


@contextmanager
def eigvalsh_calls():
    """The list of arrays numpy.linalg.eigvalsh is called with in the block."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
        yield calls


def eigvalsh_outcome(h) -> tuple:
    """(outcome of _eigvalsh(h), numpy.linalg.eigvalsh calls it made)."""
    with eigvalsh_calls() as calls:
        return lapack_outcome(lambda: _eigvalsh(h)), len(calls)


def lapack_outcome(run) -> tuple:
    """The shape, dtype and float.hex of every eigenvalue ``run()`` returns,
    so that the sign of zero counts, or the name of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            w = run()
    except np.linalg.LinAlgError as exc:
        return type(exc).__name__
    return w.shape, w.dtype.str, [x.hex() for x in w.ravel().tolist()]


class TestEigvalsh:
    """_eigvalsh is np.linalg.eigvalsh bit for bit; it sorts the diagonal
    of finite diagonal matrices without -0.0 inside LAPACK's unscaled
    range, and hands everything else to LAPACK."""

    @staticmethod
    def sorts(d: np.ndarray) -> bool:
        """Inside the rule with the range rounded inward to [1.5e-146, 7e145]."""
        top = np.abs(d).max(axis=-1, initial=0.0)
        return (not np.signbit(d[d == 0]).any()
                and ((top == 0) | ((top >= 1.5e-146) & (top <= 7e145))).all())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=_DIMS, stack=_STACKS, complex_dtype=st.booleans(),
           wide=st.booleans())
    def test_diagonal_matches_lapack(self, data, n, stack, complex_dtype, wide):
        shape = (n,) if stack is None else (stack, n)
        d = data.draw(hnp.arrays(np.float64, shape, elements=_DOUBLES if wide else _MODERATE))
        h = diagonal_stack(d, complex_dtype)
        got, calls = eigvalsh_outcome(h)
        event("LAPACK" if calls else "sorted")
        assert got == lapack_outcome(lambda: np.linalg.eigvalsh(h))
        if self.sorts(d):
            assert calls == 0

    @pytest.mark.parametrize("d", [
        # ?heevd rescales these, and its result need not be the sorted diagonal
        *(top * np.linspace(-1.0, 0.9, 101) for top in (1e-147, 1e-146, 1e146, 1e200, 5e-324)),
        # the blocked ?hetrd (n > 32) turns -0.0 into +0.0
        np.where(np.arange(40) % 2, -0.0, np.linspace(-1.0, 1.0, 40)),
    ])
    @pytest.mark.parametrize("complex_dtype", [False, True])
    def test_rescaled_or_signed_zero_takes_lapack(self, d, complex_dtype):
        h = diagonal_stack(d, complex_dtype)
        got, calls = eigvalsh_outcome(h)
        assert calls == 1 and got == lapack_outcome(lambda: np.linalg.eigvalsh(h))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=_DIMS, stack=_STACKS, complex_dtype=st.booleans(),
           kind=st.sampled_from(["off-diagonal", "non-finite", "non-finite-imaginary"]))
    def test_other_input_takes_lapack(self, data, n, stack, complex_dtype, kind):
        assume(stack != 0 and (n >= 2 or kind == "non-finite"))
        complex_dtype = complex_dtype or kind == "non-finite-imaginary"
        shape = (n,) if stack is None else (stack, n)
        h = diagonal_stack(data.draw(hnp.arrays(np.float64, shape, elements=_MODERATE)),
                           complex_dtype)
        i = data.draw(st.integers(0, n - 1))
        if kind == "off-diagonal":
            j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
            h[..., i, j] = h[..., j, i] = data.draw(_DOUBLES.filter(bool))
        else:
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            h[..., i, i] += bad if kind == "non-finite" else 1j * bad
        got, calls = eigvalsh_outcome(h)
        assert calls == 1 and got == lapack_outcome(lambda: np.linalg.eigvalsh(h))

    @staticmethod
    def certify_and_solve(build) -> tuple:
        """(eigvalsh calls, calls on M0, core) of ``build()``, which returns
        a law and its operator A, certifying the law at nu = 0.5 and solving
        one pulse.

        Patching numpy.linalg sees every call while no evostab module binds
        eigvalsh by name, which is checked first.  The package attribute
        evostab.certify is the function, which shadows the submodule, so the
        modules are read from sys.modules.
        """
        for name, module in list(sys.modules.items()):
            if name.startswith("evostab"):
                assert not hasattr(module, "eigvalsh"), name
        grid = TimeGrid(t0=-1.0, dt=1.0 / 32.0, n_steps=512)
        with eigvalsh_calls() as calls, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # edge-mass warnings are not under test
            law, a = build()
            assert certify(law, 0.5).passed
            f = gaussian_pulse(grid, center=0.5, width=0.1, dim=law.dim)
            u = solve(EvolutionaryProblem(law, a, 0.5, f))
        on_m0 = sum(np.array_equal(h, law.M0) for h in calls)
        return len(calls), on_m0, u.meta["core"]

    def test_mixed_type_law_makes_no_lapack_eigenvalue_call(self):
        ind0, ind1 = indicators_from_intervals(50, (0.0, 0.3), (0.3, 0.7))

        def build():
            mixed = build_mixed_type_system(50, 1.0 / 51, ind0, ind1, 1.0)
            return mixed.law(), mixed.A

        assert self.certify_and_solve(build) == (0, 0, "banded")

    def test_non_diagonal_m0_keeps_lapack_and_solves_m0_once(self):
        q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))[0]
        m0 = q @ np.diag([0.0, 1.0, 2.0]) @ q.T
        m0 = 0.5 * (m0 + m0.T)  # exactly symmetric
        m1 = 2.0 * np.eye(3) + np.triu(np.ones((3, 3)), 1)
        calls, on_m0, core = self.certify_and_solve(lambda: (DaeLaw(m0, m1), None))
        assert calls > on_m0 == 1 and core == "pencil"


class TestKernel:
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
        assert slow.conditions.weighted_l1 == slow.conditions.sign_defect == np.inf
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

    def test_rate_reads_the_reported_l1_at_nu0(self, monkeypatch):
        # the rate's first bound is at nu0, where the report already holds L1
        kernel = Kernel(modes=(KernelMode(np.diag([0.2, 0.1]), 1.0),
                               KernelMode(np.diag([0.05, 0.1]), 2.0)), nu0=0.5)
        law = IntegroLaw(kernel, c=1.0)
        l1 = kernel_weighted_l1(kernel, 0.5)
        calls = []
        monkeypatch.setattr("evostab.material.kernel_weighted_l1",
                            lambda kernel, nu: calls.append(nu) or l1)
        assert law.lower_bound(0.5) == 1.0 - 0.5 / (1.0 - l1)
        assert law.rate() == 0.5
        assert calls == []
        law.lower_bound(0.25)
        assert calls == [0.25]
        # L1 = 1 below nu0 leaves no bound there (c - nu / (1 - L1) would
        # divide by zero), and the certificate falls back to sampling
        monkeypatch.setattr("evostab.material.kernel_weighted_l1",
                            lambda kernel, nu: 1.0 if nu < 0.5 else l1)
        assert law.lower_bound(0.25) is None
        assert certify(law, 0.25).certificate == "sampled"

    def test_one_mode_needs_its_eigenbasis_too(self):
        # a Hermitian mode of norm ~1e6 that eigh leaves off-diagonal by more
        # than STRUCT_TOL: its L1 norm has a closed form, but the integro
        # law's scan works in the joint eigenbasis, so the report holds none
        a = np.random.default_rng(1).standard_normal((4, 4))
        gamma = 1e5 * (a @ a.T)
        kernel = Kernel((KernelMode(gamma, 1e7),), nu0=0.5)
        assert kernel.joint_eigenvalues is None
        assert kernel_weighted_l1(kernel, 0.5) == np.linalg.norm(gamma, 2) / (1e7 - 0.5)
        assert kernel.conditions.hermitian_ok and np.isnan(kernel.conditions.weighted_l1)
        with pytest.raises(KernelAdmissibilityError,
                           match="^the modes have no joint eigenbasis, so the weighted L1"):
            IntegroLaw(kernel, c=1.0)

    def test_mode_eigenvalues(self):
        # commuting modes in a rotated basis: the joint eigenvalues come back
        # in one common order; non-commuting modes have no joint eigenbasis
        q = np.array([[3.0, -4.0], [4.0, 3.0]]) / 5.0
        d1, d2 = np.array([0.1, -0.2]), np.array([0.3, 0.3])
        k = Kernel(modes=(KernelMode(q @ np.diag(d1) @ q.T, 1.0),
                          KernelMode(q @ np.diag(d2) @ q.T, 2.0)), nu0=0.5)
        g = k.joint_eigenvalues
        order = np.argsort(g[0])
        assert np.allclose(g[:, order], [np.sort(d1), d2[np.argsort(d1)]], atol=1e-15)
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert Kernel(modes=(KernelMode(a, 2.0), KernelMode(b, 3.0)),
                      nu0=0.5).joint_eigenvalues is None
        assert Kernel(modes=(KernelMode(b, 3.0),), nu0=0.5).joint_eigenvalues.shape == (1, 2)

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            KernelMode([[1.0]], 0.0)
        with pytest.raises(ValueError):
            Kernel(modes=(KernelMode([[1.0]], 1.0),), nu0=0.0)
        with pytest.raises(ValueError, match=r"all of one dimension; got \[1, 2\]"):
            Kernel(modes=(KernelMode([[1.0]], 1.0), KernelMode(np.eye(2), 2.0)), nu0=0.5)
        with pytest.raises(ValueError, match=r"needs modes, all of one dimension; got \[\]"):
            Kernel(modes=(), nu0=0.5)
        with pytest.raises(TypeError):  # dim is read from the modes
            Kernel(modes=(KernelMode(np.eye(3), 1.0),), nu0=0.5, dim=3)
        assert Kernel(modes=(KernelMode(np.eye(3), 1.0),), nu0=0.5).dim == 3


# Two diagonal modes whose curves s_1 = 0.3 e^{-2t} + 0.02 e^{-0.8t} and
# s_2 = 0.05 e^{-2t} + 0.1 e^{-0.8t} cross once: ||C(t)|| has a kink there.
CROSSING_JOINT = np.array([[0.3, 0.05], [0.02, 0.1]])
CROSSING_BETAS = (2.0, 0.8)


def gram_modes(roots, betas):
    """PSD modes r r^T / n, one per n x n root r, with the given decays."""
    return tuple(KernelMode(r @ r.T / len(r), b) for r, b in zip(roots, betas))


def block_roots(entry):
    """Roots of two block-diagonal modes that do not commute: the largest
    eigenvalue of the {1, 2} block crosses the {0} block's."""
    r1 = np.zeros((4, 4))
    r1[1, :2], r1[2, 1] = (0.875, entry), entry
    r2 = np.zeros((4, 4))
    r2[0, 0], r2[2, 1] = 0.875, 0.5
    return r1, r2


def avoided_crossing_roots():
    """Roots of two modes whose sorted eigenvalues come within 1.1e-8 of each
    other at t ~ 4.1588831 without crossing."""
    r0 = np.full((4, 4), 1e-5)
    r0[0, 0] = 1.0
    r1 = np.full((4, 4), 1e-5)
    r1[1, 0] = 0.125
    return r0, r1


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

    def test_normal_non_hermitian_modes_keep_their_phase(self):
        # |0.2i e^{-t} + 0.1 e^{-2t}|: the imaginary mode is not rounded away
        kernel = Kernel((KernelMode([[0.2j]], 1.0), KernelMode([[0.1]], 2.0)), nu0=0.5)
        expected, _ = quad(lambda t: abs(0.2j * np.exp(-t) + 0.1 * np.exp(-2.0 * t)),
                           0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        assert abs(kernel_weighted_l1(kernel, 0.0) - expected) <= 1e-12

    @pytest.mark.parametrize("modes", [
        gram_modes(np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3)), (1.5, 0.8, 2.5)),
        gram_modes(block_roots(1.0), (2.0, 0.75)),
        gram_modes(block_roots(0.25), (2.0, 0.75)),
        gram_modes(avoided_crossing_roots(), (2.0, 1.0)),
        # non-normal modes: C(t) = [[0, e^{-t}], [0.5 e^{-2t}, 0]]
        (KernelMode([[0, 1], [0, 0]], 1.0), KernelMode([[0, 0], [0.5, 0]], 2.0)),
    ], ids=["noncommuting", "sorted-crossing-1.0", "sorted-crossing-0.25", "avoided-crossing",
            "non-normal"])
    def test_no_joint_eigenbasis_has_no_l1_norm(self, modes):
        # the quadrature works in the modes' joint eigenbasis; without one
        # the norm raises, and the report leaves it unevaluated (nan)
        kernel = Kernel(modes, nu0=0.5)
        assert kernel.joint_eigenvalues is None
        with pytest.raises(ValueError, match="the modes have no joint eigenbasis"):
            kernel_weighted_l1(kernel, 0.0)
        assert np.isnan(kernel.conditions.weighted_l1)
        assert "the modes have no joint eigenbasis, so the weighted L1 norm is not evaluated" in (
            kernel.conditions.problems())
        assert not any("L1 norm at nu0" in p for p in kernel.conditions.problems())

    @pytest.mark.parametrize("mode, nu0", [
        (KernelMode([[0.25]], 2e-310), 1e-310),
        (KernelMode([[1e308]], 1e-3), 0.5e-3),
    ], ids=["subnormal-decay", "huge-gamma"])
    def test_overflowing_l1_norm_is_reported_as_too_large(self, mode, nu0):
        # ||gamma|| / (beta - nu0) overflows to an evaluated inf, and so does
        # Chat on the sign lines: both fail as values, without a numpy warning
        # and without naming a joint eigenbasis, which a 1 x 1 mode always has
        kernel = Kernel((mode,), nu0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = kernel.conditions
        assert report.weighted_l1 == report.sign_defect == np.inf
        assert report.problems() == ["weighted L1 norm at nu0 is inf >= 1",
                                     "transform sign condition violated (defect inf)"]
        with pytest.raises(KernelAdmissibilityError, match="inf >= 1"):
            IntegroLaw(kernel, c=1.0)

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

    @pytest.mark.parametrize("build, refusal", [
        (lambda: DaeLaw(np.ones((2, 3)), np.eye(2)),
         r"M0 must be a square matrix, got shape \(2, 3\)"),
        (lambda: KernelMode(np.ones((2, 2, 2)), 1.0),
         r"gamma must be a square matrix, got shape \(2, 2, 2\)"),
        (lambda: DaeLaw(np.eye(1), np.eye(1)).shifted(0.5, 0.0), "z = 0 is not in the domain"),
        (lambda: IntegroLaw(scalar_kernel(), 1.0).shifted(0.3, 0j), "z = 0 is not in the domain"),
        (lambda: SpatialOperator([[np.nan]]), "matrix must have finite entries"),
        (lambda: DaeLaw([[1.0]], [[np.nan]]), "M1 must have finite entries"),
        (lambda: DaeLaw([[1.0]], [[np.inf]]), "M1 must have finite entries"),
        (lambda: DaeLaw([[np.nan]], [[1.0]]), "M0 must have finite entries"),
        (lambda: KernelMode([[np.nan]], 1.0), "gamma must have finite entries"),
        (lambda: KernelMode([[0.25]], np.inf), "mode decay beta must be positive and finite, got inf"),
        (lambda: DaeLaw(np.zeros((0, 0)), np.zeros((0, 0))), "M0 must not be empty"),
        (lambda: SpatialOperator(np.zeros((0, 0))), "matrix must not be empty"),
        (lambda: CustomLaw(0, lambda z: np.zeros((0, 0))),
         "custom law dim must be an integer >= 1, got 0"),
        (lambda: CustomLaw(True, lambda z: np.eye(1)),
         "custom law dim must be an integer >= 1, got True"),
        (lambda: CustomLaw(1.0, lambda z: np.eye(1)),
         r"custom law dim must be an integer >= 1, got 1\.0"),
        (lambda: DelayLaw(np.eye(1), np.eye(1), -np.inf),
         "delay shift h must be negative, got -inf"),
        (lambda: IntegroLaw(scalar_kernel(), np.inf), "c must be positive, got inf"),
        (lambda: certify(DaeLaw([[1.0]], [[2.0]]), np.nan), "nu must be nonnegative, got nan"),
        (lambda: solvability_constant(DaeLaw([[1.0]], [[2.0]]), np.inf),
         "nu must be nonnegative, got inf"),
        (lambda: DaeLaw([[1.0]], [[2.0]]).shifted(np.nan, 0.5), "nu must be nonnegative, got nan"),
        (lambda: IntegroLaw(scalar_kernel(), 1.0).shifted(np.inf, 0.5),
         "nu must be nonnegative, got inf"),
    ], ids=["non-square-m0", "3d-gamma", "dae-shifted-at-zero", "integro-shifted-at-zero",
            "nan-operator", "nan-m1", "inf-m1", "nan-m0", "nan-gamma", "infinite-beta", "empty-m0",
            "empty-operator", "custom-dim-zero", "custom-dim-bool", "custom-dim-float", "infinite-h",
            "infinite-c",
            "certify-nan-nu", "sampled-inf-nu", "shifted-nan-nu", "shifted-inf-nu"])
    def test_refusals(self, build, refusal):
        # a matrix that is not square, empty or has a non-finite entry, a
        # custom law's dim that is not a positive integer, a non-finite
        # scalar, and z = 0 for nu > 0, where the shifted symbol
        # (1 - nu z) M(z / (1 - nu z)) is M at infinity
        with pytest.raises(ValueError, match=refusal):
            build()

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


LAW_FAMILIES = ["dae", "dae-dense", "delay", "delay-dense", "integro", "integro-rot"]


def draw_law(data, dim, family):
    """A structured law of one of ``LAW_FAMILIES``: DAE and delay laws with
    diagonal M0 and M1, or with a Hermitian nonnegative M0 and an M1 that are
    not diagonal (``-dense``); integro laws with nu0 = 0.5 and modes that are
    diagonal, or turned by a random unitary (``-rot``)."""
    if family.startswith(("dae", "delay")):
        if family.endswith("-dense"):
            re, im, m1r, m1i = data.draw(hnp.arrays(float, (4, dim, dim),
                                                    elements=st.floats(-1.0, 1.0)))
            a = re + 1j * im
            m0, m1 = a @ a.conj().T, 2.0 * (m1r + 1j * m1i)
            m0 = 0.5 * (m0 + m0.conj().T)
        else:
            d0, d1, e = data.draw(hnp.arrays(float, (3, dim), elements=st.floats(-2.0, 2.0)))
            m0, m1 = np.diag(np.abs(d0)), np.diag(d1 + 1j * e)
        return (DaeLaw(m0, m1) if family.startswith("dae")
                else DelayLaw(m0, m1, -data.draw(st.floats(0.1, 2.0))))
    q = np.eye(dim)
    if family == "integro-rot":
        re, im = data.draw(hnp.arrays(float, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
        q = np.linalg.qr(re + 2.0 * np.eye(dim) + 1j * im)[0]
    modes = []
    for beta in data.draw(st.lists(st.floats(1.0, 3.0), min_size=1, max_size=3)):
        d = data.draw(hnp.arrays(float, dim, elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])))
        modes.append(KernelMode(q @ np.diag(0.1 * (beta - 0.5) * d) @ q.conj().T, beta))
    return IntegroLaw(Kernel(tuple(modes), nu0=0.5), data.draw(st.floats(0.2, 2.0)))


class TestShiftedSymbol:
    def test_nu_zero_is_plain_symbol(self):
        law = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        z = 0.4 + 0.3j
        assert np.abs(law.shifted(0.0, z) - law.symbol(complex(z))).max() <= 1e-15

    def test_dae_removable_point(self):
        # at z = 1/nu the prefactor vanishes and only z*M1 survives
        law = DaeLaw([[1.0]], [[2.0]])
        assert law.shifted(1.0, 1.0)[0, 0] == pytest.approx(2.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), family=st.sampled_from(LAW_FAMILIES),
           nu=st.floats(1e-3, 0.5), r=st.sampled_from(SHIFT_RADII),
           s=st.sampled_from([0.25, 0.5, 0.8, 0.95, 0.999]), theta=st.floats(0.0, 2.0 * np.pi))
    def test_matches_unshifted_composition(self, data, dim, family, nu, r, s, theta):
        # z on a spot-check circle, nu in (0, nu0]; symbol is the independent
        # definition of the z * stack(1/z - nu) that shifted evaluates
        law = draw_law(data, dim, family)
        z = complex(r + s * r * np.exp(1j * theta))
        assume(1.0 - nu * z != 0)
        direct = (1.0 - nu * z) * law.symbol(z / (1.0 - nu * z))
        got = law.shifted(nu, z)
        assert np.abs(got - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())
        assert np.isfinite(law.shifted(nu, 1.0 / nu)).all()  # the removable point

    def test_integro_nu_guard(self):
        law = IntegroLaw(scalar_kernel(), c=1.0)
        with pytest.raises(ValueError):
            law.shifted(0.6, 0.5)

    def test_integro_nu0_is_one_boundary(self):
        # analyticity, the shifted symbol and the closed-form bound all hold
        # for nu <= nu0 exactly, so they agree next to nu0 as well
        law = IntegroLaw(scalar_kernel(), c=1.0)
        assert law.analyticity(0.5)[0]
        assert np.isfinite(law.shifted(0.5, 0.5)).all()
        assert law.lower_bound(0.5) is not None
        for nu in (np.nextafter(0.5, 1.0), 0.5 + 5e-13):
            assert not law.analyticity(nu)[0]
            with pytest.raises(ValueError, match="shifted symbol needs nu <= nu0"):
                law.shifted(nu, 0.5)
            assert law.lower_bound(nu) is None

    def test_custom_needs_rule(self):
        law = CustomLaw(1, lambda z: np.array([[1.0 + z]]))
        with pytest.raises(ValueError):
            law.shifted(0.5, 1.0)
        with_rule = CustomLaw(1, lambda z: np.array([[1.0 + z]]),
                              shifted_fn=lambda nu, z: np.array([[1.0 - nu * z + z]]))
        assert with_rule.shifted(0.5, 1.0)[0, 0] == pytest.approx(1.5)

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            DaeLaw([[1.0]], [[2.0]]).shifted(-0.1, 1.0)


class TestDomainFloor:
    """rho_floor is where each law stops: symbol, shifted and
    frequency_operator_stack answer just above it and refuse just below it,
    and stack_eigenvalues is None within |rho_floor| / 700 above it."""

    @pytest.mark.parametrize("law", [
        DelayLaw(np.diag([1.0, 0.5]), np.diag([3.0, 2.5]), h=-1.0),  # floor Re(lambda h) = 700
        IntegroLaw(scalar_kernel(), c=1.0),  # floor -nu0 = -0.5
    ], ids=["delay", "integro"])
    def test_every_evaluation_stops_at_the_floor(self, law):
        floor, nu, tau = law.rho_floor, 0.3, 2.0
        for rho, inside in ((floor * (1.0 - 1e-9), True), (floor * (1.0 + 1e-9), False)):
            lam = complex(rho, tau)
            evaluations = (lambda: law.symbol(1.0 / lam),
                           lambda: law.shifted(nu, 1.0 / (lam + nu)),
                           lambda: frequency_operator_stack(law, [tau], rho))
            for evaluate in evaluations:
                if inside:
                    assert np.isfinite(evaluate()).all()
                else:
                    with pytest.raises(ValueError):
                        evaluate()
            assert law.stack_eigenvalues(np.array([lam])) is None
        lam = np.array([complex(floor * (1.0 - 2.0 / 700.0), tau)])
        values, slack = law.stack_eigenvalues(lam)
        eig = np.linalg.eigvals(law.stack(lam)[0])
        gap = np.abs(np.sort_complex(values[0]) - np.sort_complex(eig)).max()
        assert gap <= np.max(slack) + 1e-12 * np.abs(eig).max()


class TestShiftedNorms:
    """law.stack_eigenvalues: the eigenvalues of lambda M(1/lambda) in one
    unitary basis, which give the 2-norm of the shifted symbol at z as |z|
    times their largest modulus at lambda = 1/z - nu; or None where the law
    has no such basis or ``shifted`` may refuse a point."""

    Z = np.array([0.3 + 0.2j, 1.0, 2.0 - 1.5j, 19.99])
    Q = np.array([[0.6, 0.8j], [0.8j, 0.6]])

    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_structured_norms_match_dense(self, nu):
        modes = tuple(KernelMode(self.Q @ np.diag(d) @ self.Q.conj().T, b)
                      for d, b in (([0.2, 0.1], 1.0), ([0.05, 0.1], 2.0)))
        laws = [DaeLaw(np.diag([1.0, 0.0]), np.diag([2.0, 1.0 + 1.0j])),
                DelayLaw(np.diag([1.0, 0.5]), np.diag([3.0, 2.5]), h=-1.0),
                IntegroLaw(Kernel(modes, nu0=0.5), c=1.2)]
        for law in laws:
            values, slack = law.stack_eigenvalues(1.0 / self.Z - nu)
            # the shifted symbol at z is z * stack(1/z - nu)
            norms, slack = np.abs(self.Z) * np.abs(values).max(axis=1), np.abs(self.Z) * slack
            dense = [np.linalg.norm(law.shifted(nu, z), 2) for z in self.Z]
            assert np.all(np.abs(norms - dense) <= slack + 1e-14 * np.max(dense))

    def test_none_without_structure_or_where_shifted_refuses(self):
        lam = 1.0 / self.Z - 0.3
        for m0, m1 in (([[1.0, 0.1], [0.1, 1.0]], np.eye(2)),
                       (np.eye(2), [[2.0, 1e-300], [0.0, 2.0]])):
            assert DaeLaw(m0, m1).stack_eigenvalues(lam) is None
            assert DelayLaw(m0, m1, h=-1.0).stack_eigenvalues(lam) is None
        assert CustomLaw(1, lambda z: np.array([[1.0 + z]])).stack_eigenvalues(lam) is None
        delay = DelayLaw([[1.0]], [[2.0]], h=-1.0)
        assert delay.stack_eigenvalues(1.0 / np.array([1e-3 + 0j, 1.0]) - 0.3) is not None
        with pytest.raises(ValueError, match="rho_floor"):
            delay.shifted(0.3, -1.4e-3)  # Re(lambda h) = 714.6
        assert delay.stack_eigenvalues(1.0 / np.array([-1.4e-3 + 0j, 1.0]) - 0.3) is None
        noncommuting = Kernel((KernelMode([[1.0, 0.0], [0.0, 2.0]], 2.0),
                               KernelMode([[2.0, 1.0], [1.0, 2.0]], 3.0)), nu0=0.5)
        assert noncommuting.joint_eigenvalues is None
        # commuting to 1e-13, so admissible, but a 1e-11 split of the first
        # mode's eigenvalues leaves it off-diagonal in the second's eigenbasis
        nearly = Kernel((KernelMode(np.diag([0.1, 0.1 + 1e-11]), 1.0),
                         KernelMode([[0.0, 0.01], [0.01, 0.0]], 2.0)), nu0=0.5)
        assert nearly.joint_eigenvalues is None
        # so it has no L1 norm in its report, and no integro law
        with pytest.raises(KernelAdmissibilityError, match="the modes have no joint eigenbasis"):
            IntegroLaw(nearly, c=1.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4),
           family=st.sampled_from(["dae", "delay", "integro", "integro-rot"]))
    def test_values_are_the_stack_eigenvalues(self, data, dim, family):
        law = draw_law(data, dim, family)
        lam = (data.draw(hnp.arrays(float, 5, elements=st.floats(-0.45, 10.0)))
               + 1j * data.draw(hnp.arrays(float, 5, elements=st.floats(-50.0, 50.0))))
        values, slack = law.stack_eigenvalues(lam)
        slack = np.broadcast_to(slack, lam.shape)
        for k, stack in enumerate(law.stack(lam)):
            eig = np.linalg.eigvals(stack)
            tol = slack[k] + 1e-12 * max(1.0, np.abs(eig).max())
            gaps = np.abs(eig[:, None] - values[k][None, :])
            assert gaps.min(axis=1).max() <= tol and gaps.min(axis=0).max() <= tol
