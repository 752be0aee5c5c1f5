"""Material-law symbols M(z) and exponential-sum convolution kernels.

A material law is a holomorphic matrix-valued function of
z = 1/(i*xi + rho).  Each family is one class deriving from
:class:`MaterialLaw` and carries everything that differs between families:
the operator lambda * M(1/lambda) for an array of lambda with, where the
family's structure gives them, its eigenvalues in one unitary basis, the
pointwise symbol, the domain floor, the analyticity check, the sampled
positivity minimum, the closed-form positivity bound and the decay rate
derived from it.  Callers ask the law itself: ``law.family``,
``law.symbol(z)``, ``law.shifted(nu, z)``, ``law.rate()``.  The module
function :func:`frequency_operator_stack` maps frequencies to lambda and
guards the floor.

The solver evaluates lambda * M(1/lambda) at lambda = i*xi + rho, the
certificate's positivity scan at lambda = sigma + i*tau, where its
Hermitian part is Re z^-1 M(z), and its boundedness check at
lambda = 1/z - nu: with w = z / (1 - nu z), 1/w = lambda and

    (1 - nu z) M(w) = z * lambda M(1/lambda),

so the nu-shifted symbol is z times the same operator (``law.stack``),
finite at the removable point z = 1/nu, lambda = 0.  A law is defined for
Re lambda above its ``rho_floor`` (-inf for DAE and custom laws, where
Re(lambda h) = 700 for a delay law, -nu0 for an integro law):
:func:`frequency_operator_stack`, the symbol, the shifted symbol and the
stack eigenvalues all stop there, and ``stack`` itself has no guard.

``Chat`` is the half-line Fourier transform of an exponential-sum kernel
C(t) = sum_j gamma_j exp(-beta_j t) for t >= 0: for Im z <= nu0,

    Chat(z) = (1/sqrt(2 pi)) sum_j gamma_j / (beta_j + i z),

so that W(lambda) = I - sqrt(2 pi) Chat(-i lambda) = I - sum_j gamma_j /
(beta_j + lambda).  :func:`_kernel_w` is the one place that forms this sum,
for the integro law's stack and symbol, its positivity scan
in the modes' joint eigenbasis, the diagonal of its frequency form, the
transform sign condition and :func:`kernel_hat`.

Kernel admissibility is one :class:`KernelConditionReport` per kernel,
:attr:`Kernel.conditions` (also returned by :func:`check_kernel_conditions`):
Hermitian commuting modes, beta_min > nu0, the weighted L1 norm at nu0
below one (:func:`kernel_weighted_l1`, an adaptive composite Gauss-Legendre
rule in numpy) and the transform sign condition, evaluated once per kernel.
The L1 norm is evaluated in the modes' joint eigenbasis
(:attr:`Kernel.joint_eigenvalues`), which Hermitian commuting modes have; a
kernel without one has no L1 norm in its report and no integro law, so every
integro law's scan and stack eigenvalues work in that basis.

Hermitian spectra go through :func:`_eigvalsh`, ``np.linalg.eigvalsh`` bit
for bit, which sorts the real diagonal of a diagonal matrix or stack instead
of calling LAPACK when the diagonal is finite, holds no -0.0 and each
matrix's largest |entry| is 0 or inside LAPACK's unscaled range (about
[1.4e-146, 7.1e145]).  The mixed-type example makes every Hermitian matrix
whose spectrum is asked for diagonal (M0, H(A), H(M1), sigma*M0 + H(M1),
H(M1 + A)), and each LAPACK call on them left the idle workers of a
threaded BLAS spinning.  The dense positivity scan calls LAPACK only on the
points that its Gershgorin screen keeps (:func:`_screen`), and every 2-norm
calls LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import KernelAdmissibilityError, NonFiniteSymbolError, QuadratureError
from .signals import SQRT_2PI

# Absolute tolerance for Hermiticity / commutation checks (matrix 2-norm).
STRUCT_TOL = 1e-12

# Relative rounding window of the two screens that spare LAPACK calls, times
# a bound on the norms they compare: between the 2-norms that a law's stack
# eigenvalues give and the dense 2-norm (check (b) in evostab.certify), and
# between the Gershgorin and diagonal bounds of a Hermitian matrix and its
# LAPACK eigenvalues (the dense positivity scan, :func:`_screen`).  LAPACK's
# errors are a few ulps of the norm (Golub & Van Loan, Matrix Computations,
# 4th ed., 7.2 and 8.1; LAPACK Users' Guide, 3rd ed., 4.7); 1e-12 is about
# 4500 ulps.
SCREEN_RTOL = 1e-12

# ?heevd rescales a matrix whose largest |entry| lies outside [sqrt(s), 1/sqrt(s)],
# s = safe minimum / eps, and its eigenvalues then need not be the diagonal's
# bits.  LAPACK builds take eps = 2**-52 or 2**-53; 2**-53 gives the narrower
# range, about [1.4e-146, 7.1e145], inside both.
_SMLNUM = np.finfo(float).tiny / 2.0 ** -53
_UNSCALED = (math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM))

# Tolerance for the sign condition t * Im Chat(t + i nu0) <= 0, and its
# samples: 63 log-spaced t on each of 7 lines Im z = -rho, rho in [-nu0, 5].
SIGN_TOL = 1e-10
_SIGN_TS = np.concatenate([-np.geomspace(1e-3, 1e3, 31)[::-1], [0.0], np.geomspace(1e-3, 1e3, 31)])
_SIGN_LINES = 7

_OFF_DOMAIN = "z = 0 is not in the domain of this family"
_NO_JOINT_BASIS = "the modes have no joint eigenbasis"

# Stack eigenvalues are given only where Re lambda is above rho_floor by more
# than this fraction of |rho_floor|: nearer, rounding may decide whether the
# shifted symbol refuses (for a delay law, Re(lambda h) above 699).
_FLOOR_CLEARANCE = 1.0 / 700.0

# Composite Gauss-Legendre rule of the kernel L1 norm: nodes and weights on
# [-1, 1], start panels on [0, T], and the most bisection rounds a panel may
# take before the rule gives up.
_GL_NODES, _GL_WEIGHTS = leggauss(12)
_L1_PANELS = 16
_L1_MAX_LEVELS = 48


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix in a stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def hermitian_part_min_eig(a) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A*)/2."""
    return float(_eigvalsh(hermitian_part(a))[0])


def _eigvalsh(h) -> np.ndarray:
    """``np.linalg.eigvalsh(h)`` of a Hermitian matrix or stack, bit for bit.

    A diagonal matrix's eigenvalues are its sorted real diagonal, and LAPACK
    returns exactly that (?hetrd leaves the matrix as it is, dsterf splits
    it into 1x1 blocks, dlasrt sorts them) when the diagonal is finite,
    holds no -0.0 (a blocked ?hetrd update may turn it into +0.0) and each
    matrix's largest |entry| is 0 or inside ``_UNSCALED``, where ?heevd does
    not rescale.  Such stacks are sorted here, with no LAPACK call; every
    other input goes to LAPACK.
    """
    h = np.asarray(h)
    if (h.dtype in (np.float64, np.complex128) and h.ndim >= 2
            and h.shape[-1] == h.shape[-2] and _is_diagonal(h)):
        diag = np.diagonal(h, axis1=-2, axis2=-1)
        d = diag.real
        if np.isfinite(diag).all() and not np.signbit(d[d == 0]).any():
            top = np.abs(d).max(axis=-1, initial=0.0)
            if ((top == 0) | ((top >= _UNSCALED[0]) & (top <= _UNSCALED[1]))).all():
                return np.sort(d, axis=-1)
    return np.linalg.eigvalsh(h)


def _norm2(a) -> float:
    return float(np.linalg.norm(np.atleast_2d(a), 2))


def _is_diagonal(a: np.ndarray) -> bool:
    """True when the square matrix ``a``, or every matrix of a stack, has no
    nonzero off-diagonal entry."""
    return not np.count_nonzero(a[..., ~np.eye(a.shape[-1], dtype=bool)])


def _as_matrix(a, name: str) -> np.ndarray:
    """A read-only complex copy of ``a``, refused unless it is a nonempty
    square matrix of finite entries: a nan entry fails every comparison, so
    the checks that follow would pass it, and a 0 x 0 matrix has no
    spectrum to check."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must have finite entries")
    m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class KernelMode:
    """One exponential mode gamma * exp(-beta*t) of a convolution kernel,
    with a finite decay beta > 0: at beta = inf, exp(-beta*t) is nan at
    t = 0."""

    gamma: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _as_matrix(self.gamma, "gamma"))
        if not 0 < self.beta < math.inf:
            raise ValueError(f"mode decay beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class KernelConditionReport:
    """The five admissibility conditions of a kernel, worded once.

    Structural: Hermitian modes, commuting modes, beta_min > nu0 and the
    weighted L1 norm at nu0 below one.  Sign: t * Im Chat(t + i nu0) <= 0 as
    a Hermitian matrix inequality, checked on a log-spaced grid of t along
    the base line Im z = nu0 and, as corroborating evidence, along sampled
    lines Im z = -rho for rho in (-nu0, 5].  ``sign_defect`` is the largest
    eigenvalue of t * Im Chat over all of them, the base line included.

    When beta_min <= nu0, Chat has a pole in the half-plane Im z <= nu0,
    and the L1 norm and the sign defect are both inf, not evaluated.  When
    the modes have no joint eigenbasis (:attr:`Kernel.joint_eigenvalues`),
    the L1 norm alone is nan, not evaluated: its quadrature works in that
    basis.  Hermitian commuting modes have one, up to rounding, so the
    report states its absence as a problem of its own.  Otherwise an L1 norm
    of inf was evaluated and overflowed, and it fails as ">= 1"; a sign
    defect that is not finite is reported as inf, so it fails too.
    """

    hermitian_defect: float
    commutation_defect: float
    beta_min: float
    nu0: float
    weighted_l1: float
    sign_defect: float

    @property
    def hermitian_ok(self) -> bool:
        return self.hermitian_defect <= STRUCT_TOL

    @property
    def commuting_ok(self) -> bool:
        return self.commutation_defect <= STRUCT_TOL

    @property
    def structural_ok(self) -> bool:
        return self.hermitian_ok and self.commuting_ok and self.weighted_l1 < 1.0

    @property
    def sign_ok(self) -> bool:
        return self.sign_defect <= SIGN_TOL

    @property
    def passed(self) -> bool:
        return self.structural_ok and self.sign_ok

    def problems(self) -> list:
        """Every failed condition.  beta_min <= nu0 is the one problem
        reported for the L1 norm and the sign, which it leaves unevaluated,
        and a missing joint eigenbasis the one reported for the L1 norm."""
        evaluated = self.beta_min > self.nu0
        return [message for ok, message in (
            (self.hermitian_ok, f"non-Hermitian mode (defect {self.hermitian_defect:.3g})"),
            (self.commuting_ok, f"non-commuting modes (defect {self.commutation_defect:.3g})"),
            (evaluated, f"beta_min = {self.beta_min:.6g} must exceed nu0 = {self.nu0:.6g}"),
            (not math.isnan(self.weighted_l1),
             f"{_NO_JOINT_BASIS}, so the weighted L1 norm is not evaluated"),
            (not evaluated or not self.weighted_l1 >= 1.0,
             f"weighted L1 norm at nu0 is {self.weighted_l1:.6g} >= 1"),
            (not evaluated or self.sign_ok,
             f"transform sign condition violated (defect {self.sign_defect:.3g})"),
        ) if not ok]


@dataclass(frozen=True)
class Kernel:
    """Exponential-sum kernel C(t) = sum_j gamma_j exp(-beta_j t), t >= 0,
    with at least one mode; ``dim`` is the modes' common dimension.  Without
    memory the integro law's M(z) = I + c z is ``DaeLaw(I, c I)``.

    ``nu0`` is the declared admissibility weight.  The admissibility
    conditions are *not* enforced at construction, so that they can be
    reported on violating kernels; :attr:`conditions` evaluates them once,
    and :class:`IntegroLaw` raises on them.
    """

    modes: tuple
    nu0: float

    def __post_init__(self):
        modes = tuple(m if isinstance(m, KernelMode) else KernelMode(*m) for m in self.modes)
        object.__setattr__(self, "modes", modes)
        if not self.nu0 > 0:
            raise ValueError(f"nu0 must be positive, got {self.nu0}")
        dims = {m.gamma.shape[0] for m in modes}
        if len(dims) != 1:
            raise ValueError(f"kernel needs modes, all of one dimension; got {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.modes[0].gamma.shape[0]

    @property
    def beta_min(self) -> float:
        return min(m.beta for m in self.modes)

    @cached_property
    def joint_eigenvalues(self) -> np.ndarray | None:
        """Joint eigenvalues g[j, i] = (U* gamma_j U)_ii of the modes, shape
        (modes, dim), or None when one unitary U does not diagonalise them all.

        U comes from ``eigh`` of a fixed, seeded real combination of the modes,
        which for Hermitian commuting modes separates their joint eigenspaces;
        None means some U* gamma_j U is off-diagonal by more than STRUCT_TOL.
        g is complex: its imaginary part is roundoff for Hermitian modes, and the
        eigenvalues themselves for normal non-Hermitian ones.  Evaluated once
        per kernel, like :attr:`conditions`, for the L1 norm's curves, the
        positivity scan and :meth:`IntegroLaw.stack_eigenvalues`.  Without it
        the report holds no L1 norm, so :class:`IntegroLaw` refuses the
        kernel: every integro law has this basis.
        """
        n = self.dim
        gammas = np.array([m.gamma for m in self.modes], dtype=complex)
        weights = np.random.default_rng(0).standard_normal(len(gammas))
        _, u = np.linalg.eigh(np.tensordot(weights, gammas, axes=1))
        rotated = u.conj().T @ gammas @ u
        g = np.diagonal(rotated, axis1=1, axis2=2)  # a read-only view
        off = rotated - g[:, :, None] * np.eye(n)
        if max(_norm2(o) for o in off) > STRUCT_TOL:
            return None
        return g

    @cached_property
    def conditions(self) -> KernelConditionReport:
        """The admissibility report, evaluated once per kernel: the modes are
        read-only and the fields frozen, so the cache cannot go stale.

        The L1 norm at nu0 is evaluated where beta_min > nu0 and the modes
        have a joint eigenbasis, a single mode included: the positivity scan
        and the stack eigenvalues of :class:`IntegroLaw` work in that basis,
        so a kernel whose one mode no unitary diagonalises to STRUCT_TOL is
        refused too; without that basis the L1 norm is nan.  The sign
        condition is one batched expression: Chat(t - i rho) at
        lambda = rho + i t for every sampled (rho, t), and one batched
        Hermitian eigenvalue call, whose largest value over every line is
        the report's one sign defect.  Where Chat overflows, that value is
        not finite and is reported as inf.
        """
        herm = max(_norm2(m.gamma - m.gamma.conj().T) for m in self.modes)
        comm = max((_norm2(a.gamma @ b.gamma - b.gamma @ a.gamma)
                    for a, b in combinations(self.modes, 2)), default=0.0)
        l1 = sign = math.inf
        if self.beta_min > self.nu0:
            l1 = math.nan if self.joint_eigenvalues is None else kernel_weighted_l1(self, self.nu0)
            rhos = np.linspace(-self.nu0, 5.0, _SIGN_LINES)
            lam = (rhos[:, None] + 1j * _SIGN_TS)[..., None, None]
            with np.errstate(over="ignore", invalid="ignore"):  # overflow: reported as inf
                chat = _kernel_w(self, lam, np.zeros((self.dim, self.dim))) / -SQRT_2PI
                im = hermitian_part(-1j * chat)  # (Chat - Chat*) / 2i, one per (line, t)
                sign = float(np.linalg.eigvalsh(lam.imag * im)[..., -1].max())
            sign = sign if math.isfinite(sign) else math.inf
        return KernelConditionReport(herm, comm, self.beta_min, self.nu0, l1, sign)


def _kernel_w(kernel: Kernel, lam, one, gammas=None):
    """one - sum_j gammas[j] / (beta_j + lam), subtracting one mode at a time.

    ``lam`` is a Python complex or an array shaped to broadcast against
    ``one``.  With one = I and the modes' gamma_j (the default) this is
    W(lambda); with one = 0 it is -sqrt(2 pi) Chat(-i lambda); with one = 1
    and the joint eigenvalues g[j] of :attr:`Kernel.joint_eigenvalues` it is
    the diagonal of U* W(lambda) U, and with one = 1 and the modes' own
    diagonals it is the diagonal of a diagonal W(lambda).
    """
    gammas = [m.gamma for m in kernel.modes] if gammas is None else gammas
    w = one
    for g, m in zip(gammas, kernel.modes):
        w = w - g / (m.beta + lam)
    return w


def kernel_hat(kernel: Kernel, z: complex) -> np.ndarray:
    """Half-line Fourier transform Chat(z), valid for Im z <= nu0."""
    z = complex(z)
    if z.imag > kernel.nu0 + 1e-12:
        raise ValueError(f"Chat is defined for Im z <= nu0 = {kernel.nu0}, got Im z = {z.imag}")
    return _kernel_w(kernel, 1j * z, np.zeros((kernel.dim, kernel.dim))) / -SQRT_2PI


def _panel_rules(curves: Callable, a: np.ndarray, b: np.ndarray) -> tuple:
    """Gauss-Legendre rules on every panel [a_k, b_k]: (coarse, fine, smooth,
    spread).

    ``coarse`` is the 12-point rule on the panel, ``fine`` the sum of the
    rules on its two halves.  From the same samples plus the panel's ends
    and midpoint, ``smooth`` says that one curve stays within 1e-14 times
    the panel's largest value of the integrand at every sample, so no kink
    was seen, and ``spread`` is the range of the sampled integrand.
    """
    mid, quarter = 0.5 * (a + b), 0.25 * (b - a)
    centres = np.stack([mid, 0.5 * (a + mid), 0.5 * (mid + b)], axis=1)
    halves = np.stack([2.0 * quarter, quarter, quarter], axis=1)
    nodes = centres[:, :, None] + halves[:, :, None] * _GL_NODES
    t = np.concatenate([nodes.reshape(len(a), -1), np.stack([a, mid, b], axis=1)], axis=1)
    c = np.abs(curves(t.ravel())).reshape(*t.shape, -1)
    f = c.max(axis=-1)
    rules = halves * (f[:, :nodes[0].size].reshape(nodes.shape) @ _GL_WEIGHTS)
    top = f.max(axis=1)
    smooth = ((c - f[:, :, None]).min(axis=1) >= -1e-14 * top[:, None]).any(axis=1)
    return rules[:, 0], rules[:, 1] + rules[:, 2], smooth, top - f.min(axis=1)


def kernel_weighted_l1(kernel: Kernel, nu: float) -> float:
    """Integral of ||C(t)||_2 * exp(nu*t) over t >= 0 (finite for nu < beta_min).

    One mode gives the closed form ||gamma|| / (beta - nu).  More modes need
    their joint eigenbasis (:attr:`Kernel.joint_eigenvalues`), in which C(t)
    is diagonal: ||C(t)||_2 exp(nu t) = max_i |c_i(t)| with the smooth
    curves c_i(t) = sum_j g_ji exp(-(beta_j - nu) t), scalar arithmetic over
    all t at once, so the integrand has kinks only where the largest |c_i|
    hands over to another.  Without that basis this raises ValueError.

    Composite Gauss-Legendre on [0, T] plus an analytic bound for the dropped
    tail, with T chosen so the tail is below 1e-12.  A panel is accepted,
    with the finer of its two values, when its tolerance 1e-15 + 1e-14
    |value| holds in one of two ways:

    * no kink was seen on it and its coarse rule agrees with the sum of the
      rules on its two halves;
    * its width times the spread of its samples is below it, which bounds
      both the rule's and the integral's distance from one another up to
      the curvature between samples.  Only panels holding a kink, where two
      curves |c_i| cross, are settled this way.

    The other panels are bisected.  A panel still open after
    ``_L1_MAX_LEVELS`` rounds raises :class:`QuadratureError`; no partial
    sum is returned.
    """
    modes = kernel.modes
    norms = [_norm2(m.gamma) for m in modes]  # one SVD per mode
    if not any(norms):
        return 0.0
    if not nu < kernel.beta_min:
        raise ValueError(f"weighted L1 integral diverges for nu = {nu} >= beta_min = {kernel.beta_min}")

    if len(modes) == 1:
        return norms[0] / (modes[0].beta - nu)
    g = kernel.joint_eigenvalues
    if g is None:
        raise ValueError(f"{_NO_JOINT_BASIS}, which the weighted L1 norm of two or more modes needs")

    decay = np.array([m.beta - nu for m in modes])
    tail_tol = 1e-12 / len(modes)
    t_cut = max([1.0] + [np.log(max(n / (a * tail_tol), 1.0)) / a for n, a in zip(norms, decay) if n > 0])

    def curves(t):
        return np.exp(-np.outer(t, decay)) @ g

    edges = np.linspace(0.0, t_cut, _L1_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    val = 0.0
    for _ in range(_L1_MAX_LEVELS):
        coarse, fine, smooth, spread = _panel_rules(curves, a, b)
        tol = 1e-15 + 1e-14 * np.abs(fine)
        done = (smooth & (np.abs(fine - coarse) <= tol)) | ((b - a) * spread <= tol)
        val += float(fine[done].sum())
        if done.all():
            break
        a, b = a[~done], b[~done]
        mid = 0.5 * (a + b)
        a, b = np.r_[a, mid], np.r_[mid, b]
    else:
        raise QuadratureError(
            f"kernel L1 quadrature at nu = {nu:.6g} did not converge within "
            f"{_L1_MAX_LEVELS} bisection rounds on {a.size} panels")
    tail = sum(n * np.exp(-a * t_cut) / a for n, a in zip(norms, decay))
    return float(val + tail)


def check_kernel_conditions(kernel: Kernel) -> KernelConditionReport:
    """The kernel's admissibility report (:attr:`Kernel.conditions`); failures
    are reported, never raised."""
    return kernel.conditions


def _nonfinite_line(sigma: float) -> NonFiniteSymbolError:
    return NonFiniteSymbolError(f"z^-1 M(z) is not finite on the sampled line sigma = {sigma:.6g}")


def _scan_batches(sigmas: np.ndarray, taus: np.ndarray, boundary: bool):
    """The points lambda = sigma + i*tau of a positivity scan, in batches of
    (sigma, lam): ``lam`` a 1-D array of points and ``sigma`` the sigma of
    each, in ascending sigma.

    The full grid is one batch per sigma row, less the point lambda = 0,
    z = infinity, which is not in the domain; a row left empty is skipped.
    The boundary scan keeps in full every row with sigma at most one grid
    step, the larger of the sigma and tau spacings.  Those rows pass through
    or near lambda = 0, where the analyticity check says nothing, and near
    the line Re lambda = -nu, where the singularities it allows can lie; the
    tau spacing need not resolve the symbol there.  Of the other rows, at
    least a step from every possible singularity, it takes the boundary of
    their rectangle: the first and last in full and, in one batch between
    them, the tau = +-tau_max ends of every other row.  With fewer than three
    rows or three taus in all, or fewer than three of those other rows, every
    row is scanned in full.
    """
    full = len(sigmas)
    if boundary and len(sigmas) >= 3 and len(taus) >= 3:
        step = max(sigmas[1] - sigmas[0], taus[1] - taus[0])
        full = int(np.searchsorted(sigmas, step, side="right"))
        if len(sigmas) - full < 3:
            full = len(sigmas)
    for sigma in sigmas[:full]:
        lam = sigma + 1j * taus
        lam = lam[lam != 0]
        if len(lam):
            yield sigma, lam
    upper = sigmas[full:]
    if len(upper):
        inner = upper[1:-1]
        yield upper[0], upper[0] + 1j * taus
        yield np.repeat(inner, 2), (inner[:, None] + 1j * taus[[0, -1]]).ravel()
        yield upper[-1], upper[-1] + 1j * taus


def _scan_min(batches, evaluate) -> float:
    """Smallest value over the batches of :func:`_scan_batches`, where
    ``evaluate(lam, best)``, ``best`` the smallest value of the batches
    before (inf for the first), gives (checked, smallest): arrays whose
    first axis runs over the batch's points and that must be finite, and a
    function that then gives values of the batch, possibly none, whose
    smallest is the batch's smallest wherever that is below ``best``.  So a
    scan may leave out the points that cannot go below ``best``
    (:func:`_screen`), and the minimum is the same.  The first point that is
    not finite raises, naming its sigma, with no numpy warning before it;
    every point is checked before any is left out, and only a batch that is
    not finite is checked point by point."""
    best = np.inf
    for sigma, lam in batches:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            checked, smallest = evaluate(lam, best)
            if not all(np.isfinite(a).all() for a in checked):
                finite = np.logical_and.reduce(
                    [np.isfinite(a).reshape(len(lam), -1).all(axis=1) for a in checked])
                raise _nonfinite_line(float(np.broadcast_to(sigma, lam.shape)[np.argmin(finite)]))
            best = min(best, float(smallest().min(initial=np.inf)))
    if best == np.inf:  # no batch: the grid is lambda = 0 alone
        raise ValueError("the positivity grid holds no point but lambda = 0, "
                         "z = infinity, which is not in the domain")
    return best


def _screen(herm: np.ndarray, best: float) -> np.ndarray:
    """Which matrices of a finite Hermitian stack can hold an eigenvalue that
    LAPACK puts at or below both ``best`` and every matrix's smallest one.

    With d the real diagonal, a matrix's smallest eigenvalue lies in
    [min_i (d_i - sum_{j != i} |h_ij|), min_i d_i]: Gershgorin's discs, and
    the Rayleigh quotient of a unit vector.  LAPACK's differs from it by a
    few ulps of the matrix's 2-norm, which is at most the largest absolute
    row sum.  Both bounds are widened by the slack SCREEN_RTOL
    times that row sum, which covers LAPACK's error and the rounding of the
    bounds, plus the smallest normal float, which covers a matrix whose
    entries are subnormal.  A matrix whose LAPACK eigenvalue is the batch's
    smallest and below ``best`` has its lower bound at or below both, so it
    is kept, and the minimum keeps its bits.
    """
    # |h_ij| as (dim, dim, points) and d as (dim, points), contiguous: each
    # sum and min below is a few vector operations over the batch's points
    a = np.ascontiguousarray(np.abs(herm).transpose(1, 2, 0))
    d = np.ascontiguousarray(np.diagonal(herm, axis1=-2, axis2=-1).real.T)
    rows = a.sum(axis=1)
    slack = SCREEN_RTOL * rows.max(axis=0) + np.finfo(float).tiny
    lo = (d - (rows - np.abs(d))).min(axis=0) - slack
    return lo <= min(best, float((d.min(axis=0) + slack).min()))


def _last_nonnegative(bound, hi: float, tol: float) -> float:
    """Largest nu in [0, hi] with bound(nu) >= 0, for a bound that decreases
    from bound(0) > 0: hi itself when bound(hi) >= 0, else bisection to tol.

    The bracket keeps bound(lo) >= 0 > bound(hi).  Where tol is below the
    float spacing near the root, it shrinks to two adjacent floats, and lo is
    returned."""
    if bound(hi) >= 0:
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float lies strictly between them
            return lo
        if bound(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class MaterialLaw:
    """A material-law family.  Each family sets the ``family`` tag and ``dim``
    and implements, with z a Python complex:

    * ``stack(lam)``: lambda * M(1/lambda) for a 1-D array of complex lambda,
      shape (len(lam), dim, dim), from the hand-simplified family form.  No
      domain guard: callers keep Re lambda above ``rho_floor``;
    * ``symbol(z)``: the pointwise M(z);
    * ``analyticity(nu)``: (passed, evidence) for holomorphy of M outside the
      closed ball of radius 1/(2 nu) centred at -1/(2 nu).

    The shifted symbol defaults to z times ``stack`` (``_shifted``), which
    only custom laws replace.  The other defaults below serve laws without
    structure: no domain floor, the dense positivity scan, no closed-form
    bound or rate and no structured frequency form (``frequency_form``), so
    the solver builds the dense operator stack and no eigenvalues of the
    stack (``stack_eigenvalues``), so the boundedness check takes a dense
    2-norm at every point.
    """

    # The law is defined for Re lambda above this floor, which is negative
    # or -inf: a weight rho at or below it puts lambda = i*xi + rho outside.
    rho_floor = -math.inf

    # What the positivity scan samples besides its sigma x tau grid, for the
    # report's sample grid; None when it samples the grid alone.
    extra_samples = None

    def frequency_form(self, a: np.ndarray) -> tuple:
        """(pencil, diagonal): the structured forms of the frequency operator
        B(lambda) = lambda M(1/lambda) + a that the solver can use, each None
        when the law does not have it.

        ``pencil`` is constant matrices (E, F, L) with B(lambda) x = f
        equivalent to (lambda E + F) X = L f, x the first ``dim`` entries of
        X.  ``diagonal`` is (d, C) with B(lambda) = diag d(lambda) + C
        exactly: ``d`` maps a 1-D array of lambda to an array of shape
        (len(lam), dim), and C is a constant dim x dim matrix.
        """
        return None, None

    def shifted(self, nu: float, z: complex) -> np.ndarray:
        """Analytic extension of (1 - nu*z) * M(z / (1 - nu*z)) for nu >= 0:
        M(z) itself at nu = 0, else ``_shifted`` at z != 0."""
        if not 0 <= nu < math.inf:
            raise ValueError(f"nu must be nonnegative, got {nu}")
        z = complex(z)
        if nu == 0.0:
            return self.symbol(z)
        if z == 0:
            raise ValueError(_OFF_DOMAIN)
        return self._shifted(nu, z)

    def _shifted(self, nu: float, z: complex) -> np.ndarray:
        """z * stack(lambda) at lambda = 1/z - nu, refused where Re lambda is
        at or below ``rho_floor`` by more than 1e-12."""
        lam = 1.0 / z - nu
        if lam.real <= self.rho_floor - 1e-12:
            raise ValueError(f"Re(1/z) - nu = {lam.real:.6g} at z = {z} is at or below "
                             f"the law's rho_floor = {self.rho_floor:.6g}")
        return z * self.stack(np.array([lam]))[0]

    def stack_eigenvalues(self, lam: np.ndarray) -> tuple | None:
        """(values, slack) for a 1-D array of lambda, or None.

        ``values[k]`` are the eigenvalues of ``stack(lam)[k]`` in one unitary
        basis, and ``slack`` (an array or a scalar, inf where no bound holds)
        bounds the 2-norm of what that basis leaves off the diagonal, so the
        2-norm of ``stack(lam)[k]`` is max_i |values[k, i]| within ``slack``,
        and that of the shifted symbol at z, lambda = 1/z - nu, |z| times it.

        None where some Re lambda is within ``_FLOOR_CLEARANCE`` |rho_floor|
        of the floor or below it, and where the law has no such basis
        (``_stack_eigenvalues``).  None means the caller takes dense 2-norms.
        """
        if (lam.real <= self.rho_floor * (1.0 - _FLOOR_CLEARANCE)).any():
            return None
        return self._stack_eigenvalues(lam)

    def _stack_eigenvalues(self, lam: np.ndarray) -> tuple | None:
        """This default reads the frequency form diag d(lambda) + C at a = 0:
        with C diagonal the values are d(lambda) + diag C, exactly, else
        None."""
        diagonal = self.frequency_form(np.zeros((self.dim, self.dim)))[1]
        if diagonal is None or not _is_diagonal(diagonal[1]):
            return None
        d, c = diagonal
        return d(lam) + np.diagonal(c), 0.0

    def positivity_min(self, sigmas: np.ndarray, taus: np.ndarray, boundary: bool) -> float:
        """Smallest eigenvalue of the Hermitian part of z^-1 M(z) over
        z^-1 = lambda = sigma + i*tau for every sampled pair, or, with
        ``boundary``, for the pairs of the boundary scan of
        :func:`_scan_batches`.  ``certify.solvability_constant`` decides
        ``boundary`` from the analyticity check, which the scan relies on.

        This is the dense scan: stack(lambda) one batch of
        :func:`_scan_batches` at a time, and one batched Hermitian
        eigenvalue call per batch on the points that the Gershgorin screen
        (:func:`_screen`) keeps: those whose lower bound, less its slack,
        reaches the running minimum and every point's upper bound plus its
        slack.  The point that holds the minimum is always kept, and LAPACK
        gives each matrix the same bits alone or in a stack, so the minimum
        is the unscreened scan's, bit for bit.  ``stack`` has no domain
        guard, so a row past the family's domain (an integro nu above nu0)
        is reported, not raised; :class:`NonFiniteSymbolError`, naming the
        sigma of the first point that is not finite, when a batch is not
        finite, checked at every point before the screen.
        """
        def evaluate(lam, best):
            herm = hermitian_part(self.stack(lam))
            return (herm,), lambda: np.linalg.eigvalsh(herm[_screen(herm, best)])[:, 0]

        return _scan_min(_scan_batches(sigmas, taus, boundary), evaluate)

    def lower_bound(self, nu: float) -> float | None:
        """Closed-form lower bound on Re z^-1 M(z) over Re z^-1 > -nu, or None."""
        return None

    def rate(self) -> float | None:
        """Largest nu at which ``lower_bound`` stays nonnegative, or None.

        Raises ValueError when the family's structural requirements fail.
        """
        return None


@dataclass(frozen=True)
class _PencilLaw(MaterialLaw):
    """Shared M0/M1 fields of the DAE and delay families: M0 Hermitian and
    nonnegative, M1 of the same shape.

    Their operator stack starts from lambda M0 + M1, which is the DAE law's
    whole ``stack`` and to which the delay law adds its delay term.  Their
    Hermitian part of z^-1 M(z) at lambda = sigma + i*tau is
    sigma*M0 + H(M1) plus, for delays, a multiple of I: i*tau*M0 is skew.
    Their ``positivity_min`` is the whole grid's from that structure, one
    sigma sweep, and ignores ``boundary``.  The closed-form bound at nu is
    that minimum on the one line sigma = -nu over every tau: M0 >= 0 makes
    sigma*M0 + H(M1) nondecreasing in sigma, so it is the exact infimum over
    Re lambda > -nu, lambda_min(H(M1) - nu*M0), less exp(-nu*h) for delays.
    """

    M0: np.ndarray
    M1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M0", _as_matrix(self.M0, "M0"))
        object.__setattr__(self, "M1", _as_matrix(self.M1, "M1"))
        if self.M0.shape != self.M1.shape:
            raise ValueError("M0 and M1 must have matching shapes")
        if _norm2(self.M0 - self.M0.conj().T) > STRUCT_TOL:
            raise ValueError("M0 must be Hermitian")
        if self._m0_min_eig < -STRUCT_TOL:
            raise ValueError("M0 must have nonnegative spectrum")

    @property
    def dim(self) -> int:
        return self.M0.shape[0]

    def stack(self, lam: np.ndarray) -> np.ndarray:
        return lam[:, None, None] * self.M0 + self.M1

    @cached_property
    def _m0_min_eig(self) -> float:
        """Smallest eigenvalue of M0, shared by the spectrum check and the
        sigma sweep."""
        return float(_eigvalsh(self.M0)[0])

    @cached_property
    def _m0_diagonal(self) -> np.ndarray | None:
        """diag M0 when M0 has no nonzero off-diagonal entry, else None."""
        return np.diagonal(self.M0) if _is_diagonal(self.M0) else None

    def _sigma_sweep(self, sigmas: np.ndarray, monotone: bool) -> tuple:
        """(sigmas, smallest eigenvalue of sigma*M0 + H(M1) at each sigma).

        M0 >= 0 makes the sweep nondecreasing in sigma; when the caller's
        extra term is nondecreasing too (``monotone``), only the first sigma
        is kept.  An M0 with an eigenvalue in [-STRUCT_TOL, 0) sweeps them all.
        """
        if monotone and self._m0_min_eig >= 0:
            sigmas = sigmas[:1]
        stack = sigmas[:, None, None] * self.M0 + hermitian_part(self.M1)
        return sigmas, _eigvalsh(stack)[:, 0]

    def lower_bound(self, nu: float) -> float:
        # the DAE sweep reads no tau; the delay scan reads tau_max = inf as
        # cos(tau h) = -1, and an overflowing exp(-nu h) as -inf
        return self.positivity_min(np.array([-nu]), np.array([math.inf]), False)


@dataclass(frozen=True)
class DaeLaw(_PencilLaw):
    """M(z) = M0 + z*M1 with M0 Hermitian and nonnegative; entire.

    ``stack`` is the pencil lambda M0 + M1 of :class:`_PencilLaw`.  The
    bound lambda_min(H(M1) - nu*M0) gives the rate, the largest nu with
    H(M1) - nu*M0 >= 0, unchanged by skew perturbations of M1: the smallest
    h_i / m_i over m_i > 0 when M0 and H(M1) are diagonal, else
    1 / lambda_max(L^-1 M0 L^-*) with H(M1) = L L*.  An M0 with no positive
    eigenvalue (M0 = 0, a purely algebraic problem, every rate is
    admissible) gives the +inf sentinel.
    """

    family = "dae"

    def symbol(self, z: complex) -> np.ndarray:
        return self.M0 + z * self.M1

    def frequency_form(self, a: np.ndarray) -> tuple:
        """The pencil (M0, M1 + a, I); with diagonal M0 also
        d(lambda) = lambda diag M0 and C = M1 + a."""
        d0, c = self._m0_diagonal, self.M1 + a
        diagonal = None if d0 is None else (lambda lam: lam[:, None] * d0, c)
        return (self.M0, c, np.eye(self.dim)), diagonal

    def analyticity(self, nu: float) -> tuple:
        return True, "polynomial symbol, entire"

    def positivity_min(self, sigmas: np.ndarray, taus: np.ndarray, boundary: bool) -> float:
        return float(self._sigma_sweep(sigmas, True)[1].min())

    def rate(self) -> float:
        h1 = hermitian_part(self.M1)
        c = float(_eigvalsh(h1)[0])
        if c <= 0:
            raise ValueError(f"Hermitian part of M1 must be positive definite, min eig = {c:.6g}")
        if self._m0_diagonal is not None and _is_diagonal(h1):
            m, h = np.diagonal(self.M0).real, np.diagonal(h1).real
            return float(min(h[m > 0] / m[m > 0], default=math.inf))
        inv = np.linalg.inv(np.linalg.cholesky(h1))
        top = np.linalg.eigvalsh(inv @ self.M0 @ inv.conj().T)[-1]
        return math.inf if top <= 0 else float(1.0 / top)


@dataclass(frozen=True)
class DelayLaw(_PencilLaw):
    """M(z) = M0 + z*exp(h/z)*I + z*M1 with shift h < 0.

    ``stack`` is the pencil's lambda M0 + M1 plus exp(lambda h) I.  The
    delay term adds exp(sigma*h) cos(tau*h) I to the Hermitian part,
    nondecreasing in sigma exactly when cos_min <= 0 over the sampled tau;
    cos(tau*h) attains its extremes on multiples of pi/|h|, so cos_min is -1
    once the sampled range reaches pi/|h|, and the smallest sampled value
    below that.  The bound lambda_min(H(M1) - nu*M0) - exp(-nu*h) falls
    strictly with nu and is nonnegative up to its unique root, the rate,
    which needs c = lambda_min(H(M1)) > 1; lambda_min(H(M1) - nu*M0) <= c
    puts the root at or below ln(c)/|h|, where exp(-nu*h) = c.
    """

    h: float
    family = "delay"
    extra_samples = "critical values"  # tau = k pi/|h|, where cos(tau h) = +-1

    def __post_init__(self):
        super().__post_init__()
        if not -math.inf < self.h < 0:
            raise ValueError(f"delay shift h must be negative, got {self.h}")

    def stack(self, lam: np.ndarray) -> np.ndarray:
        return super().stack(lam) + np.exp(lam * self.h)[:, None, None] * np.eye(self.dim)

    def frequency_form(self, a: np.ndarray) -> tuple:
        """No pencil; with diagonal M0 the diagonal form
        d(lambda) = lambda diag M0 + exp(lambda h) and C = M1 + a."""
        d0 = self._m0_diagonal
        if d0 is None:
            return None, None
        return None, (lambda lam: lam[:, None] * d0 + np.exp(lam * self.h)[:, None], self.M1 + a)

    @property
    def rho_floor(self) -> float:
        """Re(lambda h) = 700, near where exp(lambda h) overflows."""
        return 700.0 / self.h

    def symbol(self, z: complex) -> np.ndarray:
        if z == 0:
            raise ValueError(_OFF_DOMAIN)
        if (1.0 / z).real <= self.rho_floor:
            raise ValueError(f"delay term exp(h/z) overflows at z = {z}")
        return self.M0 + z * np.exp(self.h / z) * np.eye(self.dim) + z * self.M1

    def analyticity(self, nu: float) -> tuple:
        return True, "holomorphic away from 0, which lies in the excluded ball"

    def positivity_min(self, sigmas: np.ndarray, taus: np.ndarray, boundary: bool) -> float:
        if float(np.abs(taus).max()) / (math.pi / abs(self.h)) >= 1.0:
            cos_min = -1.0  # cos(tau*h) at tau = pi/|h|
        else:
            cos_min = float(np.cos(taus * self.h).min())
        sigmas, base = self._sigma_sweep(sigmas, cos_min <= 0)
        # sigma*h > 709.78 gives an infinite term: reported by the scan, and
        # -inf as the bound at nu = -sigma, which is below every float there
        with np.errstate(over="ignore"):
            return float(np.min(base + np.exp(sigmas * self.h) * cos_min))

    def rate(self) -> float:
        c = hermitian_part_min_eig(self.M1)
        if c <= 1.0:
            raise ValueError(f"need min eig of Hermitian part of M1 above 1, got {c:.6g}")
        return _last_nonnegative(self.lower_bound, math.log(c) / abs(self.h), 1e-12)


@dataclass(frozen=True)
class IntegroLaw(MaterialLaw):
    """M(z) = (I - sqrt(2 pi)*Chat(-i/z))^-1 + c*z with an admissible kernel.

    With W(lambda) = I - sum_j gamma_j / (beta_j + lambda),
    lambda * M(1/lambda) = lambda W(lambda)^-1 + c I; ``stack`` inverts
    W(lambda) at each lambda and is the dense oracle of the solver.  The
    solver instead uses ``frequency_form``: with K = c I + a and memory
    states y_j = (K x - f) / (beta_j + lambda), B(lambda) x = f is the
    constant pencil (lambda I + F) X = L f of size dim * (modes + 1), which
    encodes lambda x + W(lambda) (K x - f) = 0 without inverting W.  When
    no mode has a nonzero off-diagonal entry, W(lambda) is diagonal
    (``_w_diagonal``) and B(lambda) = diag(lambda / w(lambda)) + K is
    the diagonal form too; rotated modes have the pencil only, because
    their joint eigenbasis is exact only to STRUCT_TOL.  An admissible
    kernel has that basis (:attr:`Kernel.joint_eigenvalues`): one unitary U
    diagonalises every W(lambda), with diagonal w_i(lambda), and the
    positivity minimum is c + min_i Re(lambda / w_i(lambda)): one n x n
    eigendecomposition plus scalar arithmetic over the sampled points, one
    batch of :func:`_scan_batches` at a time.

    The bound c - nu (1 - L1(nu))^-1 holds for nu <= nu0 while the weighted
    L1 norm L1(nu) stays below one and the transform sign condition
    t Im Chat(t + i nu0) <= 0 holds: its derivation needs both, so without
    the sign condition ``lower_bound`` is None at every nu, and the
    certificate is the sampled one.  The analyticity check, the shifted
    symbol and the bound each take nu <= nu0 exactly, with no tolerance, so
    they agree at every nu.  The rate is nu0 when the bound is
    nonnegative there, else its root in (0, nu0].  Construction raises on
    the structural conditions of :attr:`Kernel.conditions` and the rate on
    its transform sign condition.
    """

    kernel: Kernel
    c: float
    family = "integro"

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.kernel.conditions.structural_ok:
            raise KernelAdmissibilityError("; ".join(self.kernel.conditions.problems()))

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def rho_floor(self) -> float:
        return -self.kernel.nu0

    def stack(self, lam: np.ndarray) -> np.ndarray:
        w = _kernel_w(self.kernel, lam[:, None, None], np.eye(self.dim))
        return lam[:, None, None] * np.linalg.inv(w) + self.c * np.eye(self.dim)

    @cached_property
    def _mode_diagonals(self) -> list | None:
        """diag gamma_j of every mode when no mode has a nonzero off-diagonal
        entry, else None."""
        gammas = [m.gamma for m in self.kernel.modes]
        return [np.diagonal(g) for g in gammas] if all(map(_is_diagonal, gammas)) else None

    def _w_diagonal(self, lam: np.ndarray) -> np.ndarray:
        """The diagonal of W(lambda) for a 1-D array of lambda, shape
        (len(lam), dim); only for modes without off-diagonal entries."""
        return _kernel_w(self.kernel, lam[:, None], np.ones(self.dim), self._mode_diagonals)

    def frequency_form(self, a: np.ndarray) -> tuple:
        """The lifted pencil E = I, F = [[K, -gamma_1, ...], [-K, beta_1 I,
        0, ...], ...], L = [I; -I; ...; -I], with K = c I + a; with diagonal
        modes also d(lambda) = lambda / w(lambda) and C = K."""
        n, modes = self.dim, self.kernel.modes
        eye = np.eye(n)
        k = self.c * eye + a
        f = np.kron(np.diag([0.0] + [m.beta for m in modes]), eye).astype(complex)
        f[:n] = np.hstack([k] + [-m.gamma for m in modes])
        f[n:, :n] = np.tile(-k, (len(modes), 1))
        pencil = np.eye(len(f)), f, np.kron(np.r_[1.0, -np.ones(len(modes))][:, None], eye)
        if self._mode_diagonals is None:
            return pencil, None
        return pencil, (lambda lam: lam[:, None] / self._w_diagonal(lam), k)

    def symbol(self, z: complex) -> np.ndarray:
        if z == 0:
            raise ValueError(_OFF_DOMAIN)
        lam = 1.0 / z
        if lam.real <= self.rho_floor:  # Re 1/z <= -nu0: |z + r| <= r, r = 1/(2 nu0)
            raise ValueError(f"z = {z} lies in the singular ball of radius "
                             f"{-0.5 / self.rho_floor:.6g} centered at {0.5 / self.rho_floor:.6g}")
        # the paper's form I - sqrt(2 pi) Chat(-i lambda) of W(lambda)
        eye = np.eye(self.dim)
        chat = _kernel_w(self.kernel, lam, np.zeros((self.dim, self.dim))) / -SQRT_2PI
        return np.linalg.inv(eye - SQRT_2PI * chat) + (self.c * z) * eye

    def _shifted(self, nu: float, z: complex) -> np.ndarray:
        nu0 = self.kernel.nu0
        if nu > nu0:
            raise ValueError(f"shifted symbol needs nu <= nu0 = {nu0}, got {nu}")
        return super()._shifted(nu, z)

    def analyticity(self, nu: float) -> tuple:
        nu0 = self.kernel.nu0
        if nu <= nu0:
            return True, f"singular ball of kernel (nu0 = {nu0:.6g}) is contained in the excluded ball"
        return False, f"requested nu = {nu:.6g} exceeds kernel nu0 = {nu0:.6g}"

    def _stack_eigenvalues(self, lam: np.ndarray) -> tuple:
        """In the modes' joint eigenbasis U, lambda M(1/lambda) is
        U diag(lambda / w_i + c) U* with w_i = w_i(lambda), the diagonal of
        U* W U.  U* gamma_j U is diagonal only up to its off-diagonal part
        O_j, ||O_j|| <= STRUCT_TOL, so W = U (diag(w) - D) U* with
        ||D|| <= d = STRUCT_TOL sum_j 1/|beta_j + lambda|; by the Neumann
        series lambda W^-1 moves by at most |lambda| a^2 d / (1 - a d),
        a = max_i 1/|w_i|: the slack.
        """
        w = _kernel_w(self.kernel, lam[:, None], np.ones(self.dim), self.kernel.joint_eigenvalues)
        a = 1.0 / np.abs(w).min(axis=1)
        d = STRUCT_TOL * sum(1.0 / np.abs(m.beta + lam) for m in self.kernel.modes)
        return lam[:, None] / w + self.c, np.abs(lam) * a * a * d / np.maximum(1.0 - a * d, 0.0)

    def positivity_min(self, sigmas: np.ndarray, taus: np.ndarray, boundary: bool) -> float:
        g = self.kernel.joint_eigenvalues.real

        def evaluate(lam, _):  # no screen: these values cost no eigenvalue call
            w = _kernel_w(self.kernel, lam[:, None], np.ones(self.dim), g)
            values = (lam[:, None] / w).real + self.c
            return (w, values), lambda: values

        return _scan_min(_scan_batches(sigmas, taus, boundary), evaluate)

    def lower_bound(self, nu: float) -> float | None:
        conditions = self.kernel.conditions
        if nu > self.kernel.nu0 or not conditions.sign_ok:
            return None
        if nu == 0.0:
            return self.c
        # the report holds L1(nu0), from the same call
        l1 = conditions.weighted_l1 if nu == conditions.nu0 else kernel_weighted_l1(self.kernel, nu)
        if l1 >= 1.0:
            return None
        return self.c - nu / (1.0 - l1)

    def rate(self) -> float:
        if not self.kernel.conditions.passed:
            raise KernelAdmissibilityError("; ".join(self.kernel.conditions.problems()))
        return _last_nonnegative(self.lower_bound, self.kernel.nu0, 1e-10)


@dataclass(frozen=True)
class CustomLaw(MaterialLaw):
    """Caller-supplied symbol of ``dim`` x ``dim`` matrices, ``dim`` an
    integer >= 1, with declared singularities.

    ``shifted_fn(nu, z)``, when given, evaluates the analytic extension of
    (1 - nu*z) * M(z/(1 - nu*z)); without it only nu = 0 is available.  The
    positivity minimum is the dense scan, which solves a LAPACK eigenvalue
    problem only at the points whose Gershgorin bound can reach the running
    minimum, with the bits of the unscreened scan
    (:meth:`MaterialLaw.positivity_min`), and there is no closed-form bound
    or rate.  The analyticity check trusts ``singularities``: where it
    passes, the scan skips most of the interior of its rectangle
    (:func:`_scan_batches`), so a singularity left undeclared can hide
    inside it.  The check says nothing about z = infinity, lambda = 0:
    M(z) = z + z^2 passes it, and its Re z^-1 M(z) = 1 + sigma/|lambda|^2
    is unbounded below there, so the rows near lambda = 0 are scanned in
    full.  ``stack`` is one
    expression over a batch of points: 1/lambda for the whole batch,
    ``eval_fn`` once per point in order, then one multiplication by lambda.
    A law with declared singularities, or a batch that holds lambda =
    infinity, goes through ``symbol`` and its guards point by point;
    otherwise ``eval_fn``'s values are converted to one complex array
    together, so a value that does not convert raises after the batch's
    calls.  The values are kept until the batch is stacked, so ``eval_fn``
    must return a new value at each call: a buffer that it overwrites would
    give every point its last value.  ``eval_fn`` takes one Python complex;
    there is no vectorised form.
    """

    dim: int
    eval_fn: Callable[[complex], np.ndarray]
    singularities: tuple = ()
    shifted_fn: Callable[[float, complex], np.ndarray] | None = None
    family = "custom"

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"custom law dim must be an integer >= 1, got {self.dim!r}")

    def stack(self, lam: np.ndarray) -> np.ndarray:
        z = 1.0 / lam
        # converted to complex once, as a batch, where symbol's guards cannot refuse a point
        values = np.array(list(map(self.symbol if self.singularities or (z == 0).any() else self.eval_fn,
                                   z.tolist())), dtype=complex)
        return lam[:, None, None] * values.reshape(lam.size, self.dim, self.dim)

    def symbol(self, z: complex) -> np.ndarray:
        if z == 0:
            raise ValueError(_OFF_DOMAIN)
        for s in self.singularities:
            if abs(z - s) < 1e-12:
                raise ValueError(f"z = {z} is a declared singularity")
        return np.asarray(self.eval_fn(z), dtype=complex)

    def _shifted(self, nu: float, z: complex) -> np.ndarray:
        if self.shifted_fn is None:
            raise ValueError("custom law has no shifted-extension rule; only nu = 0 is available")
        return np.asarray(self.shifted_fn(nu, z), dtype=complex)

    def analyticity(self, nu: float) -> tuple:
        if not self.singularities:
            return True, "no declared singularities"
        for s in self.singularities:
            s = complex(s)
            if nu > 0:
                r = 1.0 / (2.0 * nu)
                if abs(s + r) > r + 1e-12:
                    return False, f"declared singularity {s} lies outside the excluded ball"
            elif s.real > 1e-12:
                return False, f"declared singularity {s} has positive real part"
        return True, "all declared singularities inside the excluded ball"


def frequency_operator_stack(law: MaterialLaw, xi, rho: float) -> np.ndarray:
    """(i*xi + rho) * M(1/(i*xi + rho)) for an array of frequencies.

    A function rather than ``law.stack``: it guards the rho floor, which
    ``stack`` leaves to its callers, and maps frequencies to lambda.
    Returns an array of shape (len(xi), dim, dim).  rho must exceed the
    law's ``rho_floor``: -nu0 for the integro family, so that the line stays
    clear of the kernel's poles, and 700/h for the delay family.
    """
    if rho <= law.rho_floor:
        raise ValueError(f"need rho > {law.rho_floor:.6g}, got {rho}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return law.stack(1j * xi + rho)

