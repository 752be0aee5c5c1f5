"""Material-law symbols M(z) and exponential-sum convolution kernels.

Four families are supported, each a holomorphic matrix-valued function of
z = 1/(i*xi + rho):

* ``DaeLaw``      M(z) = M0 + z*M1
* ``DelayLaw``    M(z) = M0 + z*exp(h/z)*I + z*M1          (h < 0)
* ``IntegroLaw``  M(z) = (I - sqrt(2 pi) Chat(-i/z))^-1 + c*z
* ``CustomLaw``   caller-supplied pointwise evaluation

``Chat`` is the half-line Fourier transform of an exponential-sum kernel
C(t) = sum_j gamma_j exp(-beta_j t) for t >= 0: for Im z <= nu0,

    Chat(z) = (1/sqrt(2 pi)) sum_j gamma_j / (beta_j + i z).

The operator lambda * M(1/lambda) is built for an array of complex lambda
by one private per-family builder, ``_lambda_stack``.  The solver evaluates
it at lambda = i*xi + rho (through :func:`frequency_operator_stack`, which
adds the family's domain guard) and the certificate's positivity scan at
lambda = sigma + i*tau, where its Hermitian part is Re z^-1 M(z).  The
integro factor W(lambda) = I - sum_j gamma_j / (beta_j + lambda) is
inverted in one place, ``_integro_w_inv``, shared with the integro solver.

The shifted symbol (1 - nu*z) * M(z/(1 - nu*z)) is evaluated through
hand-simplified per-family formulas, so the removable point z = 1/nu needs
no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad

from .errors import KernelAdmissibilityError

SQRT_2PI = np.sqrt(2.0 * np.pi)

# Absolute tolerance for Hermiticity / commutation checks (matrix 2-norm).
STRUCT_TOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix in a stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def hermitian_part_min_eig(a) -> float:
    """Smallest eigenvalue of the Hermitian part (A + A*)/2."""
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def _norm2(a) -> float:
    return float(np.linalg.norm(np.atleast_2d(a), 2))


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class KernelMode:
    """One exponential mode gamma * exp(-beta*t) of a convolution kernel."""

    gamma: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _as_matrix(self.gamma, "gamma"))
        if not self.beta > 0:
            raise ValueError(f"mode decay beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class Kernel:
    """Exponential-sum kernel C(t) = sum_j gamma_j exp(-beta_j t), t >= 0.

    ``nu0`` is the declared admissibility weight: the structural requirements
    (Hermitian commuting modes, beta_min > nu0, weighted L1 norm at nu0 below
    one) are *not* enforced at construction so that diagnostic checks can be
    run on violating kernels; entry points that rely on them call
    :meth:`require_admissible`.
    """

    modes: tuple
    nu0: float
    dim: int | None = None

    def __post_init__(self):
        modes = tuple(m if isinstance(m, KernelMode) else KernelMode(*m) for m in self.modes)
        object.__setattr__(self, "modes", modes)
        if not self.nu0 > 0:
            raise ValueError(f"nu0 must be positive, got {self.nu0}")
        dims = {m.gamma.shape[0] for m in modes}
        if len(dims) > 1:
            raise ValueError(f"kernel modes have mixed dimensions {sorted(dims)}")
        if dims:
            d = dims.pop()
            if self.dim is not None and self.dim != d:
                raise ValueError(f"declared dim {self.dim} != mode dim {d}")
            object.__setattr__(self, "dim", d)
        elif self.dim is None:
            raise ValueError("kernel without modes needs an explicit dim")

    @property
    def beta_min(self) -> float:
        return min((m.beta for m in self.modes), default=np.inf)

    def structural_violations(self) -> list:
        """Structural admissibility defects, empty when admissible."""
        problems = []
        worst_h, worst_c = _mode_defects(self)
        if worst_h > STRUCT_TOL:
            problems.append(f"non-Hermitian mode (defect {worst_h:.3g})")
        if worst_c > STRUCT_TOL:
            problems.append(f"non-commuting modes (defect {worst_c:.3g})")
        if not self.beta_min > self.nu0:
            problems.append(f"beta_min = {self.beta_min:.6g} must exceed nu0 = {self.nu0:.6g}")
        else:
            l1 = kernel_weighted_l1(self, self.nu0)
            if not l1 < 1.0:
                problems.append(f"weighted L1 norm at nu0 is {l1:.6g} >= 1")
        return problems

    def require_admissible(self):
        problems = self.structural_violations()
        if problems:
            raise KernelAdmissibilityError("; ".join(problems))


def _mode_defects(kernel: Kernel) -> tuple:
    """(Hermitian defect, commutation defect) of the kernel modes, 2-norm."""
    herm = max((_norm2(m.gamma - m.gamma.conj().T) for m in kernel.modes), default=0.0)
    comm = max((_norm2(a.gamma @ b.gamma - b.gamma @ a.gamma)
                for a, b in combinations(kernel.modes, 2)), default=0.0)
    return herm, comm


def _mode_eigenvalues(kernel: Kernel) -> np.ndarray | None:
    """Joint eigenvalues g[j, i] = (U* gamma_j U)_ii of the kernel modes, shape
    (modes, dim), or None when one unitary U does not diagonalise them all.

    U comes from ``eigh`` of a fixed, seeded real combination of the modes,
    which for Hermitian commuting modes separates their joint eigenspaces;
    None means some U* gamma_j U is off-diagonal by more than STRUCT_TOL.
    """
    n = kernel.dim
    gammas = np.array([m.gamma for m in kernel.modes], dtype=complex).reshape(-1, n, n)
    weights = np.random.default_rng(0).standard_normal(len(gammas))
    _, u = np.linalg.eigh(np.tensordot(weights, gammas, axes=1))
    rotated = u.conj().T @ gammas @ u
    g = np.diagonal(rotated, axis1=1, axis2=2)
    off = rotated - g[:, :, None] * np.eye(n)
    if max((_norm2(o) for o in off), default=0.0) > STRUCT_TOL:
        return None
    return g.real


def kernel_eval(kernel: Kernel, t: float) -> np.ndarray:
    """C(t) for t >= 0; zero matrix for t < 0 (causal kernel)."""
    n = kernel.dim
    out = np.zeros((n, n), dtype=complex)
    if t < 0:
        return out
    for m in kernel.modes:
        out += m.gamma * np.exp(-m.beta * t)
    return out


def kernel_hat(kernel: Kernel, z: complex) -> np.ndarray:
    """Half-line Fourier transform Chat(z), valid for Im z <= nu0."""
    z = complex(z)
    if z.imag > kernel.nu0 + 1e-12:
        raise ValueError(f"Chat is defined for Im z <= nu0 = {kernel.nu0}, got Im z = {z.imag}")
    n = kernel.dim
    out = np.zeros((n, n), dtype=complex)
    for m in kernel.modes:
        out += m.gamma / (m.beta + 1j * z)
    return out / SQRT_2PI


def kernel_weighted_l1(kernel: Kernel, nu: float) -> float:
    """Integral of ||C(t)||_2 * exp(nu*t) over t >= 0 (finite for nu < beta_min).

    Adaptive quadrature on [0, T] plus an analytic bound for the dropped
    tail, with T chosen so the tail is below 1e-12.
    """
    modes = kernel.modes
    if not modes or all(_norm2(m.gamma) == 0.0 for m in modes):
        return 0.0
    if not nu < kernel.beta_min:
        raise ValueError(f"weighted L1 integral diverges for nu = {nu} >= beta_min = {kernel.beta_min}")

    tail_tol = 1e-12 / len(modes)
    t_cut = 1.0
    for m in modes:
        a = m.beta - nu
        g = _norm2(m.gamma)
        if g > 0:
            t_cut = max(t_cut, np.log(max(g / (a * tail_tol), 1.0)) / a)

    if len(modes) == 1:
        g = _norm2(modes[0].gamma)
        return g / (modes[0].beta - nu)

    def integrand(t):
        acc = modes[0].gamma * np.exp(-(modes[0].beta - nu) * t)
        for m in modes[1:]:
            acc = acc + m.gamma * np.exp(-(m.beta - nu) * t)
        return _norm2(acc)

    val, _ = quad(integrand, 0.0, t_cut, epsabs=1e-13, epsrel=1e-12, limit=400)
    tail = sum(_norm2(m.gamma) * np.exp(-(m.beta - nu) * t_cut) / (m.beta - nu) for m in modes)
    return float(val + tail)


@dataclass(frozen=True)
class _PencilLaw:
    """Shared M0/M1 fields of the DAE and delay families: M0 Hermitian and
    nonnegative, M1 of the same shape."""

    M0: np.ndarray
    M1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M0", _as_matrix(self.M0, "M0"))
        object.__setattr__(self, "M1", _as_matrix(self.M1, "M1"))
        if self.M0.shape != self.M1.shape:
            raise ValueError("M0 and M1 must have matching shapes")
        if _norm2(self.M0 - self.M0.conj().T) > STRUCT_TOL:
            raise ValueError("M0 must be Hermitian")
        if np.linalg.eigvalsh(self.M0)[0] < -STRUCT_TOL:
            raise ValueError("M0 must have nonnegative spectrum")

    @property
    def dim(self) -> int:
        return self.M0.shape[0]


@dataclass(frozen=True)
class DaeLaw(_PencilLaw):
    """M(z) = M0 + z*M1 with M0 Hermitian and nonnegative."""


@dataclass(frozen=True)
class DelayLaw(_PencilLaw):
    """M(z) = M0 + z*exp(h/z)*I + z*M1 with shift h < 0."""

    h: float

    def __post_init__(self):
        super().__post_init__()
        if not self.h < 0:
            raise ValueError(f"delay shift h must be negative, got {self.h}")


@dataclass(frozen=True)
class IntegroLaw:
    """M(z) = (I - sqrt(2 pi)*Chat(-i/z))^-1 + c*z with an admissible kernel."""

    kernel: Kernel
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        self.kernel.require_admissible()

    @property
    def dim(self) -> int:
        return self.kernel.dim


@dataclass(frozen=True)
class CustomLaw:
    """Caller-supplied symbol with declared singularities.

    ``shifted_fn(nu, z)``, when given, evaluates the analytic extension of
    (1 - nu*z) * M(z/(1 - nu*z)); without it only nu = 0 is available.
    """

    dim: int
    eval_fn: Callable[[complex], np.ndarray]
    singularities: tuple = ()
    shifted_fn: Callable[[float, complex], np.ndarray] | None = None


MaterialLaw = Union[DaeLaw, DelayLaw, IntegroLaw, CustomLaw]


def law_family(law: MaterialLaw) -> str:
    if isinstance(law, DaeLaw):
        return "dae"
    if isinstance(law, DelayLaw):
        return "delay"
    if isinstance(law, IntegroLaw):
        return "integro"
    if isinstance(law, CustomLaw):
        return "custom"
    raise TypeError(f"not a material law: {type(law)!r}")


def _check_integro_domain(law: IntegroLaw, z: complex):
    r = 1.0 / (2.0 * law.kernel.nu0)
    if abs(z + r) <= r + 1e-15:
        raise ValueError(
            f"z = {z} lies in the singular ball of radius {r:.6g} centered at {-r:.6g}")


def eval_symbol(law: MaterialLaw, z: complex) -> np.ndarray:
    """Pointwise M(z).  z = 0 is only admissible for the polynomial family."""
    z = complex(z)
    if isinstance(law, DaeLaw):
        return law.M0 + z * law.M1
    if z == 0:
        raise ValueError("z = 0 is not in the domain of this family")
    if isinstance(law, DelayLaw):
        w = law.h / z
        if w.real > 700.0:
            raise ValueError(f"delay term exp(h/z) overflows at z = {z}")
        eye = np.eye(law.dim)
        return law.M0 + z * np.exp(w) * eye + z * law.M1
    if isinstance(law, IntegroLaw):
        _check_integro_domain(law, z)
        eye = np.eye(law.dim)
        w = eye - SQRT_2PI * kernel_hat(law.kernel, -1j / z)
        return np.linalg.inv(w) + (law.c * z) * eye
    if isinstance(law, CustomLaw):
        for s in law.singularities:
            if abs(z - s) < 1e-12:
                raise ValueError(f"z = {z} is a declared singularity")
        return np.asarray(law.eval_fn(z), dtype=complex)
    raise TypeError(f"not a material law: {type(law)!r}")


def _integro_w_inv(kernel: Kernel, lam: np.ndarray) -> np.ndarray:
    """W(lambda)^-1 with W(lambda) = I - sum_j gamma_j / (beta_j + lambda),
    for a 1-D array of lambda; W(lambda) = I - sqrt(2 pi) Chat(-i lambda)."""
    n = kernel.dim
    w = np.broadcast_to(np.eye(n), (lam.size, n, n)).astype(complex).copy()
    for m in kernel.modes:
        w -= m.gamma[None, :, :] / (m.beta + lam)[:, None, None]
    return np.linalg.inv(w)


def _lambda_stack(law: MaterialLaw, lam: np.ndarray) -> np.ndarray:
    """lambda * M(1/lambda) for a 1-D array of complex lambda, shape
    (len(lam), dim, dim), from the hand-simplified per-family forms.

    No domain guard: callers keep lambda inside the family's domain.
    """
    eye = np.eye(law.dim)
    if isinstance(law, DaeLaw):
        return lam[:, None, None] * law.M0 + law.M1
    if isinstance(law, DelayLaw):
        return (lam[:, None, None] * law.M0 + law.M1
                + np.exp(lam * law.h)[:, None, None] * eye)
    if isinstance(law, IntegroLaw):
        return lam[:, None, None] * _integro_w_inv(law.kernel, lam) + law.c * eye
    if isinstance(law, CustomLaw):
        out = np.empty((lam.size, law.dim, law.dim), dtype=complex)
        for k, l in enumerate(lam):
            out[k] = l * eval_symbol(law, 1.0 / l)
        return out
    raise TypeError(f"not a material law: {type(law)!r}")


def frequency_operator_stack(law: MaterialLaw, xi, rho: float) -> np.ndarray:
    """(i*xi + rho) * M(1/(i*xi + rho)) for an array of frequencies.

    Returns an array of shape (len(xi), dim, dim).  The integro family needs
    rho > -nu0 so that the line stays clear of the kernel's poles.
    """
    if isinstance(law, IntegroLaw) and rho <= -law.kernel.nu0:
        raise ValueError(f"need rho > -nu0 = {-law.kernel.nu0}, got {rho}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return _lambda_stack(law, 1j * xi + rho)


def shifted_symbol(law: MaterialLaw, nu: float, z: complex) -> np.ndarray:
    """Analytic extension of (1 - nu*z) * M(z / (1 - nu*z)).

    Evaluated through closed per-family forms that stay finite at the
    removable point z = 1/nu.  For nu = 0 this is M(z) itself.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    z = complex(z)
    if isinstance(law, DaeLaw):
        return (1.0 - nu * z) * law.M0 + z * law.M1
    if nu == 0.0:
        return eval_symbol(law, z)
    if z == 0:
        raise ValueError("z = 0 is not in the domain of this family")
    if isinstance(law, DelayLaw):
        w = (1.0 / z - nu) * law.h
        if w.real > 700.0:
            raise ValueError(f"delay term overflows at z = {z}")
        eye = np.eye(law.dim)
        return (1.0 - nu * z) * law.M0 + z * np.exp(w) * eye + z * law.M1
    if isinstance(law, IntegroLaw):
        if nu > law.kernel.nu0 + 1e-12:
            raise ValueError(f"shifted symbol needs nu <= nu0 = {law.kernel.nu0}, got {nu}")
        eye = np.eye(law.dim)
        w = eye - SQRT_2PI * kernel_hat(law.kernel, -1j * (1.0 / z - nu))
        return (1.0 - nu * z) * np.linalg.inv(w) + (law.c * z) * eye
    if isinstance(law, CustomLaw):
        if law.shifted_fn is None:
            raise ValueError("custom law has no shifted-extension rule; only nu = 0 is available")
        return np.asarray(law.shifted_fn(nu, z), dtype=complex)
    raise TypeError(f"not a material law: {type(law)!r}")
