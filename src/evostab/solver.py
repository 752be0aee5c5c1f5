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
assembles ``meta``; only the per-frequency solve of B(xi) x = rhs,
lambda = i*xi + rho, differs.  It is one of three cores, chosen from the
law's ``MaterialLaw.frequency_form`` with no family branch, in this order:

* **banded**, when the law has a diagonal form B(lambda) = diag d(lambda) + C
  (DAE and delay laws with diagonal M0, and so the mixed-type example and
  :func:`ivp_solve`; integro laws whose modes are diagonal), C has a
  bandwidth b in a reverse Cuthill-McKee order of its sparsity at which
  the band beats the fallback core as timed (:func:`_band_pays`: b <= 1
  or b <= n/25 against the pencil, b^2 <= 4n against dense LU), and the
  coercivity floor
  s(xi) = min_i Re d_i(lambda) + lambda_min((C + C*)/2) is positive at
  every sampled frequency.  The floor bounds the Hermitian part of B(lambda)
  below by s(xi) > 0, so Gaussian elimination without pivoting exists and
  is stable, with growth bounded by the skew part (Golub and Van Loan,
  "Unsymmetric positive definite linear systems", 1979), and
  ||B(lambda)^-1|| <= 1/s(xi).  One elimination and back-substitution over
  the band, vectorised over a chunk of frequencies, costs O(N n b^2) and
  needs no SciPy.  The floor is tested on the frequencies themselves, one
  chunk ahead of its elimination, not taken from the positivity gate, so
  it holds for :func:`solve_integro` and under ``check_certified=False``
  too; where it fails, the whole solve goes to the next core.
* **pencil**, otherwise, when the law has a constant pencil: B(xi) x = f_hat
  becomes (lambda*E + F) X = L f_hat.  One complex QZ factorisation of
  (E, F) reduces every frequency to a triangular back-substitution,
  vectorised over all frequencies: O(n^3 + N n^2), with no (N, n, n)
  operator stack.  DAE laws are the pencil (M0, M1 + A) itself; integro
  laws lift to a pencil of size n(m+1) whose extra entries are the m kernel
  modes' memory states.  ``scipy.linalg.qz`` is the package's only SciPy
  call, imported on the first pencil solve, so importing the package,
  certifying and banded solves never load SciPy.
* **dense**, for every other law (delay laws with non-diagonal M0, custom
  laws): the operator stack is built chunk by chunk and solved by batched
  dense LU.  :func:`apply_forward` walks the same frequency chunks with the
  dense stack for every family, so it stays an independent check of all
  three cores.

``meta['core']`` names the core that ran.  The banded core also records
``meta['coercivity_ratio']``, the largest ||x(xi)|| s(xi) / ||rhs(xi)||:
coercivity bounds it by 1, so a value above 1 plus rounding is a solver
fault.

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
the same one :func:`solve` takes, plus an initial state u0.
:func:`ivp_solve` states the reduction in one place: v = u - phi * u0, with
phi a plateau cut-off, solves the same equation on the whole line with a
modified right-hand side, and u is recovered as v + phi * u0.  The jump of u
at t = 0 is carried by phi exactly, so the achieved initial value can be
read off the first grid point at or after zero.
"""

from __future__ import annotations

import os
import sys
import warnings as _warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (CertificationError, EdgeMassError, EdgeMassWarning,
                     SingularFrequencyError)
from .material import (IntegroLaw, Kernel, MaterialLaw, frequency_operator_stack,
                       hermitian_part_min_eig)
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

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


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
        # attribute the warning to the first frame outside the package
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        _warnings.warn(msg, EdgeMassWarning, stacklevel=level)
    return em


def _chunks(n_samples: int, entries: int) -> list:
    """Frequency-index slices for ``entries`` complex scratch entries per
    frequency (n^2 for an n x n stack); keeps per-chunk scratch near 256 MB."""
    step = max(16, min(1024, (1 << 24) // max(entries, 1)))
    return [slice(k, min(k + step, n_samples)) for k in range(0, n_samples, step)]


def _relative(res_sq: float, rhs_sq: float) -> float:
    return float(np.sqrt(res_sq / rhs_sq)) if rhs_sq > 0 else 0.0


def _dense_solve(law: MaterialLaw, a: np.ndarray, rho: float, xi, f_hat) -> tuple:
    """One batched LU solve of the operator stack B(xi) = lambda M(1/lambda) + a
    per chunk of frequencies."""
    x = np.empty_like(f_hat)
    res_sq = rhs_sq = 0.0
    for sl in _chunks(len(f_hat), f_hat.shape[1] ** 2):
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
        res_sq += np.sum(np.abs(err) ** 2)
        rhs_sq += np.sum(np.abs(rhs) ** 2)
        del stack  # free it before the next chunk's stack is built
    return x, {"residual": _relative(res_sq, rhs_sq), "core": "dense"}


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
    for sl in _chunks(len(xi), len(e) ** 2):
        lifted = y[:, sl].T @ z.T
        x[sl] = lifted[:, :x.shape[1]]
        rhs = f_hat[sl] @ lift.T
        err = lam[sl, None] * (lifted @ e.T) + lifted @ f.T - rhs
        res_sq += np.sum(np.abs(err) ** 2)
        rhs_sq += np.sum(np.abs(rhs) ** 2)
    return x, {"residual": _relative(res_sq, rhs_sq), "core": "pencil"}


def _band_order(c: np.ndarray) -> tuple:
    """(order, b): a reverse Cuthill-McKee order of the sparsity graph of
    ``c`` and the bandwidth of ``c`` in that order.

    Each connected component is walked breadth first from a vertex of least
    degree, neighbours by increasing degree, and the whole order is
    reversed (Cuthill and McKee 1969, George 1971).
    """
    adj = (c != 0) | (c != 0).T
    np.fill_diagonal(adj, False)
    degree = adj.sum(axis=1)
    seen = np.zeros(len(c), dtype=bool)
    order = []
    for start in np.argsort(degree, kind="stable"):
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            nbrs = np.flatnonzero(adj[order[head]] & ~seen)
            nbrs = nbrs[np.argsort(degree[nbrs], kind="stable")]
            seen[nbrs] = True
            order.extend(nbrs)
            head += 1
    order = np.array(order[::-1], dtype=int)
    position = np.argsort(order)
    rows, cols = np.nonzero(adj)
    return order, int(np.abs(position[rows] - position[cols]).max(initial=0))


def _banded_solve(d, c: np.ndarray, order, b: int, rho: float, w, fallback,
                  xi, f_hat) -> tuple:
    """Solve (diag d(lambda) + C) x = rhs at every lambda = i*xi + rho by
    Gaussian elimination without pivoting over the band; ``c`` is C in the
    band order ``order``, and rhs is f_hat, or f_hat / w(lambda) when ``w``
    is given.

    One chunk of frequencies at a time, the chunk's coercivity floor
    s(xi) = min_i Re d_i(lambda) + lambda_min((C + C*)/2) is tested first;
    where it is not positive and finite, the whole solve goes to
    ``fallback``.  Row i of the chunk's operators sits in
    ``band[i, t] = B[i, i - b + t]`` with the frequency axis last, so the
    scratch is O(chunk * n * b) and entry (i, j) is row 2b*i + j + b of the
    band flattened over its first two axes: each elimination step updates
    its (m, m) block through one strided view, O(n) numpy calls per chunk.
    The residual is measured against diag d + C itself as a banded
    product, not against the factors, so growth in the elimination shows
    in it.
    """
    n, lam = len(c), 1j * xi + rho
    width, step = 2 * b + 1, 2 * b
    offsets = range(-b, b + 1)
    c_band = np.zeros((n, width), dtype=complex)
    for t, o in enumerate(offsets):
        c_band[max(0, -o):n - max(0, o), t] = np.diagonal(c, o)
    c_floor = hermitian_part_min_eig(c)
    inverse = np.argsort(order)
    x = np.empty_like(f_hat)
    res_sq = rhs_sq = ratio = 0.0
    for sl in _chunks(len(xi), n * width):
        d_sl = d(lam[sl])
        floor = d_sl.real.min(axis=1) + c_floor
        if not (np.isfinite(floor).all() and floor.min() > 0):
            return fallback(xi, f_hat)
        rhs = f_hat[sl] if w is None else f_hat[sl] / w(lam[sl])
        rhs = rhs.T[order]  # (n, chunk)
        diag = d_sl.T[order]
        band = np.repeat(c_band[:, :, None], rhs.shape[1], axis=2)
        band[:, b] += diag
        flat = band.reshape(n * width, -1)
        # win[q, :, j] is flat[q + j]
        win = sliding_window_view(flat, max(b, 1), axis=0, writeable=True)
        inv = np.empty_like(rhs)  # reciprocal pivots
        y = rhs.copy()
        for k in range(n):  # eliminate column k from the rows below
            inv[k] = 1.0 / band[k, b]
            m, p = min(b, n - 1 - k), width * k + b  # flat[p] is entry (k, k)
            if m:
                mult = flat[p + step:p + step * m + 1:step] * inv[k]  # (k + r, k)
                # entries (k + r, k + 1 + j) for r, j < m
                win[p + step + 1:p + step * m + 2:step, :, :m] -= (
                    mult[:, :, None] * flat[p + 1:p + 1 + m].T)
                y[k + 1:k + 1 + m] -= mult * y[k]
        for k in reversed(range(n)):  # back-substitute column k into the rows above
            y[k] *= inv[k]
            m, p = min(b, k), width * k + b
            if m:
                y[k - m:k] -= flat[p - step * m:p:step] * y[k]  # (k - j, k)
        err = diag * y - rhs
        for t, o in enumerate(offsets):
            lo, hi = max(0, -o), n - max(0, o)
            err[lo:hi] += c_band[lo:hi, t, None] * y[lo + o:hi + o]
        rhs_norm = np.linalg.norm(rhs, axis=0)
        res_sq += float(np.sum(np.linalg.norm(err, axis=0) ** 2))
        rhs_sq += float(np.sum(rhs_norm ** 2))
        # ||y|| s / ||rhs|| per frequency, 0 where rhs = 0 (then y = 0)
        scaled = np.linalg.norm(y, axis=0) * floor / np.where(rhs_norm > 0, rhs_norm, np.inf)
        ratio = max(ratio, float(scaled.max()))
        x[sl] = y[inverse].T
    return x, {"residual": _relative(res_sq, rhs_sq), "core": "banded",
               "coercivity_ratio": ratio}


def _band_pays(n: int, b: int, has_pencil: bool) -> bool:
    """Whether the banded core beats the fallback at bandwidth b and size n.

    Timed in process at N = 4096 frequencies on a 2-core host with OpenBLAS
    on 2 threads, for n from 2 to 400: against the QZ pencil the banded core
    breaks even between b = n/16 and n/25 (b = 2 at n = 49, 12 at n = 256,
    about 21 at n = 400), and at b <= 1 it is within a few milliseconds
    below n = 32 and faster above, while a pencil solve also imports SciPy
    once; against dense LU on 2 threads it breaks even between b^2 = 3n and
    8n.  Both limits sit at or below the measured break-even.
    """
    return b <= 1 or 25 * b <= n if has_pencil else b * b <= 4 * n


def _frequency_core(form: tuple, rho: float, dense=None):
    """The per-frequency solve for (pencil, diagonal) from a law's
    ``frequency_form``: the banded core when :func:`_band_pays` at the
    bandwidth b of C in :func:`_band_order` and the coercivity floor holds
    at every frequency, else the QZ pencil when there is one, else
    ``dense``.  ``diagonal`` is (d, C), or (d, C, w) for the right-hand
    side f_hat / w(lambda)."""
    pencil, diagonal = form
    fallback = dense if pencil is None else partial(_pencil_solve, *pencil, rho)
    if diagonal is None:
        return fallback
    d, c, w = (*diagonal, None)[:3]
    order, b = _band_order(c)
    if not _band_pays(len(c), b, pencil is not None):
        return fallback
    return partial(_banded_solve, d, c[np.ix_(order, order)], order, b, rho, w, fallback)


def _spectral_solve(f: Signal, rho: float, solve_hat, family: str) -> Signal:
    """Transform ``f``, solve B(xi) x = rhs at every frequency, transform back.

    ``solve_hat(xi, f_hat)`` gets all frequencies and the forcing transform
    and returns the solution transform and a dict of its ``meta`` entries:
    the relative ``residual``, the ``core`` and any core diagnostics.  A
    non-finite solution transform raises :class:`SingularFrequencyError` at
    its first bad sample.
    """
    meta_warnings: list = []
    em_rhs = _check_edges(f, rho, "forcing", EDGE_WARN, EDGE_FAIL, meta_warnings)
    f_hat = fourier_laplace(f, rho).values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, core_meta = solve_hat(f.grid.frequencies, f_hat)
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
        **core_meta,
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


def solve(problem: EvolutionaryProblem, *, check_certified: bool = True) -> Signal:
    """Solve the evolutionary equation for the given forcing.

    The result carries ``meta['residual']`` (relative, measured in the
    rho-weighted norm against the core's own form of B(xi); identical to
    the time-domain residual of :func:`apply_forward` by unitarity), the
    edge masses of forcing and solution, any wrap-around warnings and
    ``meta['core']``.

    The core follows the module's rule: banded when the law's diagonal
    form has a band narrow enough for :func:`_band_pays` and its
    coercivity floor is positive at every frequency (then also
    ``meta['coercivity_ratio']``), else the QZ pencil when the law has one
    (DAE laws with non-diagonal M0, rotated integro laws, and the laws
    whose band is too wide or whose floor fails, with the residual measured
    against the lifted pencil of size n(m+1) for integro laws), else the
    dense operator stack (delay laws with non-diagonal M0 or a wide band,
    and custom laws).
    """
    symbol, rho = problem.symbol, problem.rho
    if check_certified:
        _well_posed_gate(symbol)
    a = problem.A.matrix
    solve_hat = _frequency_core(symbol.frequency_form(a), rho,
                                partial(_dense_solve, symbol, a, rho))
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
    for sl in _chunks(u.grid.n_steps, u.dim ** 2):
        stack = frequency_operator_stack(problem.symbol, xi[sl], rho) + a
        out[sl] = np.einsum("kij,kj->ki", stack, u_hat.values[sl])
    return inverse_fourier_laplace(SpectralSignal(u.grid, rho, out))


def solve_integro(kernel: Kernel, c: float, A, f: Signal, rho: float) -> Signal:
    """Solve the integro-differential equation u' + B u - C * (B u) = f with
    B = c*I + A.

    In the frequency domain this is lambda x + W(lambda) B x = f_hat with
    W(lambda) = I - sqrt(2 pi) Chat(-i lambda), that is
    (lambda W(lambda)^-1 + B) x = W(lambda)^-1 f_hat.  The core follows the
    rule of :func:`solve` on the integro law's ``frequency_form``: with
    diagonal modes, W(lambda) = diag w(lambda) and the banded core solves
    (diag(lambda / w) + B) x = f_hat / w, its residual measured against that
    system; otherwise the law's pencil with the forcing lifted into the
    first block only, L = [I; 0; ...; 0], its residual measured against the
    lifted pencil.  The arguments are validated as
    ``EvolutionaryProblem(IntegroLaw(kernel, c), A, rho, f)``, so a bad c,
    kernel, rho or dimension raises ``ValueError``; no positivity gate runs,
    and the banded core's floor test does not need one.
    """
    problem = EvolutionaryProblem(IntegroLaw(kernel, c), A, rho, f)
    law = problem.symbol
    (e, f_mat, _), diagonal = law.frequency_form(problem.A.matrix)
    pencil = e, f_mat, np.eye(len(e), law.dim)
    if diagonal is not None:
        diagonal = (*diagonal, law._w_diagonal)
    solve_hat = _frequency_core((pencil, diagonal), rho)
    return _spectral_solve(f, rho, solve_hat, "integro")


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


def ivp_solve(problem: EvolutionaryProblem, u0, *, phi_scale: float = 1.0,
              check_certified: bool = True) -> tuple:
    """Solve (d/dt M0 + M1 + A) u = f on t > 0 with M0 u(0+) = M0 u0;
    returns (u, initial_gap).

    The initial-value problem is the forced equation of :func:`solve` on the
    whole line for v = u - phi*u0.  With s = ``phi_scale``, phi the plateau
    cut-off (1 on [0, s], 2 - t/s on (s, 2s), 0 elsewhere) and chi the
    indicator of (s, 2s), v solves

        (d/dt M0 + M1 + A) v = f + (chi/s) M0 u0 - phi (M1 + A) u0,

    and u = v + phi*u0 carries the jump at t = 0 exactly.  The law is a DAE
    law, so :func:`solve` takes the banded core (diagonal M0, narrow band of
    M1 + A, positive floor) or the QZ pencil; ``check_certified`` is passed
    on to it.

    ``problem.symbol`` must be a DAE law M(z) = M0 + z*M1, ``phi_scale``
    positive, ``u0`` a finite vector of the law's dimension, ``problem.f``
    must vanish before t = 0 and its grid must hold a point t >= 0;
    otherwise ValueError, raised before the solve.  ``initial_gap`` is
    |M0 u(t+) - M0 u0| at the first grid point t+ >= 0 and shrinks linearly
    with dt; ``u.meta`` holds it as ``initial_gap`` and t+ as
    ``initial_time``.
    """
    law, f, s = problem.symbol, problem.f, phi_scale
    if law.family != "dae":
        raise ValueError(f"initial-value data need a DAE law M0 + z*M1, got the {law.family} family")
    if not s > 0:
        raise ValueError(f"phi_scale must be positive, got {s}")
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.shape != (law.dim,):
        raise ValueError(f"u0 must have length {law.dim}, got {u0.shape}")
    if not np.isfinite(u0).all():
        raise ValueError("u0 must have finite entries")
    slb = support_lower_bound(f, 1e-8)
    if slb is not None and slb < 0:
        raise ValueError(f"forcing must vanish before t = 0, support starts at {slb:.6g}")
    t = f.grid.times
    if not t[-1] >= 0.0:
        raise ValueError("grid does not contain t >= 0")
    phi = np.where((t >= 0) & (t <= s), 1.0, np.where((t > s) & (t < 2 * s), 2.0 - t / s, 0.0))
    chi = ((t > s) & (t < 2 * s)).astype(float)
    corr = (chi / s)[:, None] * (law.M0 @ u0) - phi[:, None] * ((law.M1 + problem.A.matrix) @ u0)
    v = solve(replace(problem, f=Signal(f.grid, f.values + corr)), check_certified=check_certified)
    u = v.values + phi[:, None] * u0[None, :]
    k = int(np.argmax(t >= 0.0))
    gap = float(np.linalg.norm(law.M0 @ (u[k] - u0)))
    return Signal(f.grid, u, meta=dict(v.meta, initial_gap=gap, initial_time=float(t[k]))), gap
