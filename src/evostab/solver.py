"""Frequency-domain solution of linear evolutionary equations.

The equation (d/dt applied to M0-type content plus memory plus A) u = f is
solved by transforming to the weighted frequency domain, inverting the
frequency operator

    B(xi) = (i*xi + rho) * M(1/(i*xi + rho)) + A

sample by sample, and transforming back.  Because the discrete transform
pair is exactly unitary, the relative residual of the returned solution is
limited only by the conditioning of the per-frequency solves.

:func:`solve` and :func:`solve_integro` are thin entry points over one
spectral core that gates the edge mass of the forcing and of the solution,
applies the two transforms, refuses a non-finite solution transform and
assembles ``meta``; only the per-frequency solve differs:

* Laws with a constant linearisation (``MaterialLaw.linearization``) turn
  B(xi) x = f_hat, lambda = i*xi + rho, into one fixed matrix pencil
  (lambda*E + F) X = L f_hat.  One complex QZ factorisation of (E, F)
  reduces every frequency to a triangular back-substitution, vectorised
  over all frequencies: O(n^3 + N n^2), with no (N, n, n) operator stack.
  ``scipy.linalg.qz`` is the package's only SciPy call, imported on the
  first pencil solve, so importing the package and certifying never load
  SciPy.
  DAE laws (and with them the mixed-type example and :func:`ivp_solve`)
  are the pencil (M0, M1 + A) itself; integro laws lift to a pencil of size
  n(m+1) whose extra entries are the m kernel modes' memory states.
* Delay and custom laws build the operator stack chunk by chunk and solve
  it by batched dense LU, optionally on a thread pool.  :func:`apply_forward`
  walks the same frequency chunks with the dense stack for every family, so
  it stays an independent check of both solve paths.

Wrap-around policy: the time grid is circular, so weighted mass at its first
or last sample leaks across the ends (:func:`~evostab.signals.edge_mass`).
The spectral core gates the *forcing*: it escalates to
:class:`~evostab.errors.EdgeMassError` above ``EDGE_FAIL`` and warns above
``EDGE_WARN``.  When the forcing passes, it gates the *solution* too: it warns
above ``EDGE_FAIL`` and is refused above ``SOLUTION_EDGE_FAIL``, so a solution
that has not decayed inside the grid does not pass silently.  When the
forcing already warned, the solution's edge mass, which then carries the
response to the forcing's, is only recorded (``meta['edge_mass_solution']``).

An initial-value problem is the :class:`EvolutionaryProblem` of a DAE law,
the same one :func:`solve` takes, plus an initial state u0; it is reduced to
a forced equation on the whole line: with phi the plateau cutoff from
:func:`cutoff_phi`, v = u - phi * u0 satisfies the same equation with the
modified right-hand side assembled by :func:`ivp_assemble_rhs`, and u is
recovered as v + phi * u0.  The jump of u at t = 0 is carried by phi
exactly, so the achieved initial value can be read off the first grid point
at or after zero.
"""

from __future__ import annotations

import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (CertificationError, EdgeMassError, EdgeMassWarning,
                     SingularFrequencyError)
from .material import IntegroLaw, Kernel, MaterialLaw, frequency_operator_stack
from .certify import solvability_constant, solvability_lower_bound
from .signals import (Signal, SpectralSignal, edge_mass, fourier_laplace,
                      inverse_fourier_laplace, support_lower_bound)
from .spatial import SpatialOperator

# Edge-mass thresholds: warn / refuse-to-solve.
EDGE_WARN = 1e-8
EDGE_FAIL = 1e-3
# A solution warns above EDGE_FAIL and is refused above this: its edges also
# hold the ringing of a forcing that jumps next to the grid start (up to 0.26
# on the short test grids), while a weighted solution that keeps half its
# peak at the edges has not decayed inside the grid.
SOLUTION_EDGE_FAIL = 0.5


def _as_operator(a, dim: int) -> SpatialOperator:
    if a is None:
        return SpatialOperator.zeros(dim)
    if isinstance(a, SpatialOperator):
        return a
    return SpatialOperator(a)


@dataclass(frozen=True)
class EvolutionaryProblem:
    """Symbol, monotone spatial operator, weight rho > 0 and forcing; the
    weights exp(-rho t) and exp(rho t) must be finite on the forcing's grid."""

    symbol: MaterialLaw
    A: SpatialOperator
    rho: float
    f: Signal

    def __post_init__(self):
        object.__setattr__(self, "A", _as_operator(self.A, self.symbol.dim))
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        # exp(-rho t) peaks at the first sample and exp(rho t) at the last:
        # both are finite exactly when exp(rho |t|) is at the grid end
        # farthest from 0, else the transforms see inf and nan
        end = max(self.f.grid.times[[0, -1]], key=abs)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(self.rho * abs(end))):
                raise ValueError(f"the weight exp(-rho t) or exp(rho t) is not finite at "
                                 f"rho = {self.rho} and the grid end t = {end}; "
                                 "lower rho or move the grid closer to t = 0")
        n = self.symbol.dim
        if self.A.dim != n or self.f.dim != n:
            raise ValueError(
                f"dimension mismatch: symbol {n}, operator {self.A.dim}, forcing {self.f.dim}")


def _check_edges(signal: Signal, rho: float, what: str, warn: float, fail: float,
                 meta_warnings: list) -> float:
    em = edge_mass(signal, rho)
    if em > fail:
        raise EdgeMassError(
            f"weighted {what} mass at the grid edges is {em:.3g} (limit {fail:g}); "
            "enlarge the grid or raise rho")
    if em > warn:
        msg = f"weighted {what} edge mass {em:.3g} above {warn:g}; wrap-around may pollute the solution"
        meta_warnings.append(msg)
        _warnings.warn(msg, EdgeMassWarning, stacklevel=4)
    return em


def _chunks(n_samples: int, dim: int) -> list:
    """Frequency-index slices; keeps per-chunk scratch near 256 MB."""
    step = max(16, min(1024, (1 << 24) // max(dim * dim, 1)))
    return [slice(k, min(k + step, n_samples)) for k in range(0, n_samples, step)]


def _relative(res_sq: float, rhs_sq: float) -> float:
    return float(np.sqrt(res_sq / rhs_sq)) if rhs_sq > 0 else 0.0


def _dense_solve(law: MaterialLaw, a: np.ndarray, rho: float, threads: int, xi, f_hat) -> tuple:
    """One batched LU solve of the operator stack B(xi) = lambda M(1/lambda) + a
    per chunk of frequencies, optionally on a thread pool."""
    x = np.empty_like(f_hat)
    slices = _chunks(*f_hat.shape)
    res_parts = np.zeros(len(slices))
    rhs_parts = np.zeros(len(slices))

    def work(idx):
        sl = slices[idx]
        stack, rhs = frequency_operator_stack(law, xi[sl], rho) + a, f_hat[sl]
        try:
            sol = np.linalg.solve(stack, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            sol = np.empty_like(rhs)
            for k in range(stack.shape[0]):
                try:
                    sol[k] = np.linalg.solve(stack[k], rhs[k])
                except np.linalg.LinAlgError as exc:
                    j = sl.start + k
                    raise SingularFrequencyError(j, float(xi[j]), str(exc)) from exc
        x[sl] = sol
        err = np.einsum("kij,kj->ki", stack, sol) - rhs
        res_parts[idx] = np.sum(np.abs(err) ** 2)
        rhs_parts[idx] = np.sum(np.abs(rhs) ** 2)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(slices))))
    else:
        for idx in range(len(slices)):
            work(idx)
    return x, _relative(float(res_parts.sum()), float(rhs_parts.sum()))


def _pencil_solve(e: np.ndarray, f: np.ndarray, lift: np.ndarray, rho: float, xi, f_hat) -> tuple:
    """Solve (lambda*E + F) X = L f_hat at every lambda = i*xi + rho through
    one complex QZ factorisation E = Q S Z*, F = Q T Z*; return the first
    f_hat.shape[1] entries of X.

    (lambda*S + T) is upper triangular, so one back-substitution over its
    rows, vectorised over all frequencies and written over the transformed
    right-hand side, costs O(n^3 + N n^2) and never forms an (N, n, n) stack.
    The residual is measured against the lifted pencil, not the triangular
    factors, one chunk of frequencies at a time.
    """
    from scipy.linalg import qz  # imported here to keep SciPy off the package's import path

    s, t, q, z = qz(e, f, output="complex")
    lam = 1j * xi + rho
    y = (q.conj().T @ lift) @ f_hat.T  # row i: (Q* L f_hat)_i at every frequency
    coef = np.stack([s, t], axis=1)  # coef[i] holds row i of S and of T
    for i in reversed(range(len(y))):
        sy, ty = coef[i, :, i + 1:] @ y[i + 1:]
        y[i] = (y[i] - lam * sy - ty) / (lam * s[i, i] + t[i, i])
    x = np.empty_like(f_hat)
    res_sq = rhs_sq = 0.0
    for sl in _chunks(len(xi), len(e)):
        lifted = y[:, sl].T @ z.T
        x[sl] = lifted[:, :x.shape[1]]
        rhs = f_hat[sl] @ lift.T
        err = lam[sl, None] * (lifted @ e.T) + lifted @ f.T - rhs
        res_sq += np.sum(np.abs(err) ** 2)
        rhs_sq += np.sum(np.abs(rhs) ** 2)
    return x, _relative(res_sq, rhs_sq)


def _spectral_solve(f: Signal, rho: float, solve_hat, family: str) -> Signal:
    """Transform ``f``, solve B(xi) x = rhs at every frequency, transform back.

    ``solve_hat(xi, f_hat)`` gets all frequencies and the forcing transform
    and returns the solution transform and its relative residual.  A
    non-finite solution transform raises :class:`SingularFrequencyError` at
    its first bad sample.
    """
    meta_warnings: list = []
    em_rhs = _check_edges(f, rho, "forcing", EDGE_WARN, EDGE_FAIL, meta_warnings)
    f_hat = fourier_laplace(f, rho).values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, residual = solve_hat(f.grid.frequencies, f_hat)
    bad = np.nonzero(~np.isfinite(x).all(axis=1))[0]
    if bad.size:
        j = int(bad[0])
        raise SingularFrequencyError(j, float(f.grid.frequencies[j]), "solution not finite")
    u = inverse_fourier_laplace(SpectralSignal(f.grid, rho, x))
    if em_rhs > EDGE_WARN:
        # The forcing's edge mass is already reported, and the solution's
        # edges carry the response to it: one cause, one warning.
        em_u = edge_mass(u, rho)
    else:
        em_u = _check_edges(u, rho, "solution", EDGE_FAIL, SOLUTION_EDGE_FAIL, meta_warnings)
    u.meta.update({
        "residual": residual,
        "edge_mass_rhs": em_rhs,
        "edge_mass_solution": em_u,
        "rho": rho,
        "family": family,
        "warnings": tuple(meta_warnings),
    })
    return u


def _well_posed_gate(symbol: MaterialLaw):
    bound = solvability_lower_bound(symbol, 0.0)
    if bound is None:
        bound = solvability_constant(symbol, 0.0, sigma_max=10.0, tau_max=50.0,
                                     n_sigma=40, n_tau=81)
    if not bound > 0:
        raise CertificationError(
            f"symbol failed the positivity gate at nu = 0 (bound {bound:.6g}); "
            "pass check_certified=False to override")


def solve(problem: EvolutionaryProblem, *, check_certified: bool = True,
          threads: int = 1) -> Signal:
    """Solve the evolutionary equation for the given forcing.

    The result carries ``meta['residual']`` (relative, measured in the
    rho-weighted norm against B(xi) itself; identical to the time-domain
    residual of :func:`apply_forward` by unitarity), the edge masses of
    forcing and solution, and any wrap-around warnings.

    A law with a constant linearisation (DAE and integro laws) is solved
    through the QZ pencil, other laws through the dense operator stack.
    For integro laws the residual is measured against the lifted pencil of
    size n(m+1).  ``threads`` sets the thread pool of the dense path only,
    so it affects delay and custom laws.
    """
    symbol, rho = problem.symbol, problem.rho
    if check_certified:
        _well_posed_gate(symbol)
    a = problem.A.matrix
    pencil = symbol.linearization(a)
    solve_hat = (partial(_dense_solve, symbol, a, rho, threads) if pencil is None
                 else partial(_pencil_solve, *pencil, rho))
    return _spectral_solve(problem.f, rho, solve_hat, symbol.family)


def apply_forward(problem: EvolutionaryProblem, u: Signal) -> Signal:
    """Apply the forward operator: transform, multiply by B(xi), transform back."""
    if u.dim != problem.symbol.dim:
        raise ValueError(f"dimension mismatch: symbol {problem.symbol.dim}, signal {u.dim}")
    rho = problem.rho
    u_hat = fourier_laplace(u, rho)
    xi = u.grid.frequencies
    a = problem.A.matrix
    out = np.empty_like(u_hat.values)
    for sl in _chunks(u.grid.n_steps, u.dim):
        stack = frequency_operator_stack(problem.symbol, xi[sl], rho) + a
        out[sl] = np.einsum("kij,kj->ki", stack, u_hat.values[sl])
    return inverse_fourier_laplace(SpectralSignal(u.grid, rho, out))


def solve_integro(kernel: Kernel, c: float, A, f: Signal, rho: float) -> Signal:
    """Solve the integro-differential equation u' + B u - C * (B u) = f with
    B = c*I + A.

    In the frequency domain this is lambda x + W(lambda) B x = f_hat with
    W(lambda) = I - sqrt(2 pi) Chat(-i lambda): the integro law's pencil
    (``IntegroLaw.linearization``) with the forcing lifted into the first
    block only, L = [I; 0; ...; 0].  The residual is measured against that
    lifted pencil.  The arguments are validated as
    ``EvolutionaryProblem(IntegroLaw(kernel, c), A, rho, f)``, so a bad c,
    kernel, rho or dimension raises ``ValueError``; no positivity gate runs.
    """
    problem = EvolutionaryProblem(IntegroLaw(kernel, c), A, rho, f)
    e, f_mat, _ = problem.symbol.linearization(problem.A.matrix)
    lift = np.eye(len(e), problem.symbol.dim)
    return _spectral_solve(f, rho, partial(_pencil_solve, e, f_mat, lift, rho), "integro")


def convolve_time(kernel: Kernel, u: Signal) -> Signal:
    """Causal convolution (C * u)(t_k) by trapezoid quadrature from the grid
    start: dt * (half-weighted first and last samples, full in between).

    This is the time-domain counterpart of multiplying the weighted
    transform by sqrt(2 pi) * Chat(xi - i rho) and serves as its oracle.
    The running sums for each exponential mode are accumulated recursively,
    which evaluates the same quadrature sum in O(n_steps).
    """
    if u.dim != kernel.dim:
        raise ValueError(f"dimension mismatch: kernel {kernel.dim}, signal {u.dim}")
    n_steps = u.grid.n_steps
    dt = u.grid.dt
    vals = u.values
    out = np.zeros_like(vals)
    for m in kernel.modes:
        r = np.exp(-m.beta * dt)
        prefix = np.empty_like(vals)
        acc = vals[0].copy()
        prefix[0] = acc
        for k in range(1, n_steps):
            acc = r * acc + vals[k]
            prefix[k] = acc
        # trapezoid: halve the l = 0 and l = k endpoint contributions
        decay0 = np.exp(-m.beta * dt * np.arange(n_steps))[:, None]
        trap = prefix - 0.5 * decay0 * vals[0][None, :] - 0.5 * vals
        out += dt * trap @ m.gamma.T
    out[0] = 0.0  # zero-length integral at the first grid point
    return Signal(u.grid, out)


def cutoff_phi(t, scale: float = 1.0):
    """Plateau cutoff: 1 on [0, scale], linear down to 0 on (scale, 2*scale),
    zero elsewhere.  Accepts scalars or arrays."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    t = np.asarray(t, dtype=float)
    out = np.where((t >= 0) & (t <= scale), 1.0,
                   np.where((t > scale) & (t < 2 * scale), 2.0 - t / scale, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def ivp_assemble_rhs(problem: EvolutionaryProblem, u0, phi_scale: float = 1.0) -> Signal:
    """Right-hand side for v = u - phi*u0 in the initial-value problem
    (d/dt M0 + M1 + A) u = f on t > 0 with M0 u(0+) = M0 u0:
    g = f + (1/s) chi_(s,2s) M0 u0 - phi M1 u0 - phi A u0.

    ``problem.symbol`` must be a DAE law M(z) = M0 + z*M1, ``u0`` a vector of
    its dimension, ``problem.f`` must vanish before t = 0 and its grid must
    hold a point t >= 0; otherwise ValueError, as for ``phi_scale <= 0``.
    """
    law, f, s = problem.symbol, problem.f, phi_scale
    if law.family != "dae":
        raise ValueError(f"initial-value data need a DAE law M0 + z*M1, got the {law.family} family")
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.shape != (law.dim,):
        raise ValueError(f"u0 must have length {law.dim}, got {u0.shape}")
    slb = support_lower_bound(f, 1e-8)
    if slb is not None and slb < 0:
        raise ValueError(f"forcing must vanish before t = 0, support starts at {slb:.6g}")
    t = f.grid.times
    if not t[-1] >= 0.0:
        raise ValueError("grid does not contain t >= 0")
    phi = cutoff_phi(t, s)
    chi = ((t > s) & (t < 2 * s)).astype(float)
    m0u = law.M0 @ u0
    rest = (law.M1 + problem.A.matrix) @ u0
    corr = (chi / s)[:, None] * m0u[None, :] - phi[:, None] * rest[None, :]
    return Signal(f.grid, f.values + corr)


def ivp_solve(problem: EvolutionaryProblem, u0, *, phi_scale: float = 1.0,
              check_certified: bool = True) -> tuple:
    """Solve the initial-value problem of :func:`ivp_assemble_rhs`, whose
    checks run before the solve; returns (u, initial_gap).

    ``initial_gap`` is |M0 u(t+) - M0 u0| at the first grid point >= 0 and
    shrinks linearly with dt.  The law is a DAE law, so :func:`solve` takes
    the QZ pencil path, which runs no thread pool; ``check_certified`` is
    passed on to it.
    """
    g = ivp_assemble_rhs(problem, u0, phi_scale)
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    v = solve(replace(problem, f=g), check_certified=check_certified)
    t = g.grid.times
    phi = cutoff_phi(t, phi_scale)
    u = Signal(g.grid, v.values + phi[:, None] * u0[None, :], meta=dict(v.meta))
    k = int(np.argmax(t >= 0.0))
    gap = float(np.linalg.norm(problem.symbol.M0 @ (u.values[k] - u0)))
    u.meta["initial_gap"] = gap
    u.meta["initial_time"] = float(t[k])
    return u, gap
