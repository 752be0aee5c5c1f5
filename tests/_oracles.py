"""Independent numerical oracles used by the test suite.

Rates come from scipy root finding on the scalar defining equations, and the
integro/delay solvers are plain time steppers, so agreement with the library
is evidence rather than tautology.  The positivity scan is the brute-force
definition of the sampled minimum: it shares only the sigma grid and the
law's lambda * M(1/lambda) builder with the structured minima it checks,
and samples a delay law's critical tau values and the graded tau samples of
a boundary scan itself, every point of every row.
The kernel L1 norm is scipy ``quad`` told where the integrand's kinks are.
The transform sign condition is evaluated one sampled point at a time, with
Chat summed from its defining formula, and a custom law's lambda * M(1/lambda)
one point at a time into a preallocated array.  The dense positivity scan
of a law without structure is checked bit for bit against the same scan
without its Gershgorin screen, one LAPACK eigenvalue problem at every
point.  The shifted-symbol check is
the dense loop, one 2-norm at every spot-check point.  The spectral calculus
of :mod:`evostab.signals` is checked in the time domain: the antiderivative
against a cumulative trapezoid sum, the translation against a circular index
shift of the weighted samples.  The transform pair is checked bit for bit
against its plain form, which centres the FFT with ``fftshift`` and
``ifftshift`` copies.  The kernel transform is checked against a
causal convolution by trapezoid quadrature in the time domain, and the
solver's causality by solving for two forcings that agree up to a time and
comparing the solutions there.  An initial-value solve is checked against
a theta-method time stepper that starts from u0 at t = 0.  The spectral
decay rate of a DAE pencil lambda M0 + (M1 + A), the bound that no certified
rate may exceed, comes from the eigenvalues of one shifted and inverted
matrix.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from evostab.certify import SHIFT_RADII, HypothesisResult, SamplingConfig, _sigma_grid
from evostab.material import (_SIGN_LINES, _SIGN_TS, MESH_RATIO, Kernel, _norm2, _scan_batches,
                              _scan_min, hermitian_part)
from evostab.signals import Signal, SpectralSignal

SQRT_2PI = np.sqrt(2.0 * np.pi)


def trapezoid_antiderivative(f: Signal) -> Signal:
    """Cumulative trapezoid integral of ``f`` from the left grid edge: the
    antiderivative for rho > 0 when the signal vanishes near t0."""
    v = f.values
    seg = 0.5 * (v[1:] + v[:-1]) * f.grid.dt
    out = np.zeros_like(v)
    np.cumsum(seg, axis=0, out=out[1:])
    return Signal(f.grid, out)


def index_translate(f: Signal, h: float, rho: float) -> Signal:
    """f(t + h) for h = -m*dt, m >= 0 an integer: the weighted samples rolled
    by m places, then re-weighted."""
    m = int(round(-h / f.grid.dt))
    g = f.values * np.exp(-rho * f.grid.times)[:, None]
    g = np.roll(g, m, axis=0)
    out = g * (np.exp(rho * f.grid.times) * np.exp(rho * h))[:, None]
    return Signal(f.grid, out)


def fftshift_fourier_laplace(f: Signal, rho: float) -> SpectralSignal:
    """The weighted transform with its FFT centred by an ``fftshift`` copy."""
    grid = f.grid
    g = f.values * np.exp(-rho * grid.times)[:, None]
    spec = np.fft.fftshift(np.fft.fft(g, axis=0), axes=0)
    phase = np.exp(-1j * grid.frequencies * grid.t0)
    vals = (grid.dt / SQRT_2PI) * phase[:, None] * spec
    return SpectralSignal(grid, rho, vals)


def ifftshift_inverse_fourier_laplace(F: SpectralSignal) -> Signal:
    """The inverse weighted transform, un-centred by an ``ifftshift`` copy."""
    grid = F.grid
    h = F.values * np.exp(1j * grid.frequencies * grid.t0)[:, None]
    g = np.fft.ifft(np.fft.ifftshift(h, axes=0), axis=0) * grid.n_steps
    vals = (grid.dxi / SQRT_2PI) * g * np.exp(F.rho * grid.times)[:, None]
    return Signal(grid, vals)


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


def causality_check(solve_fn: Callable[[Signal], Signal], f: Signal, g: Signal,
                    a: float) -> float:
    """Relative discrepancy of two solutions before time ``a`` for forcings
    that agree there.

    Causal solution maps cannot see post-``a`` differences before ``a``, so
    the returned value is pure numerical leakage.
    """
    f._check_compatible(g)
    t = f.grid.times
    before = t < a
    pre_diff = np.abs(f.values[before] - g.values[before]).max() if before.any() else 0.0
    scale = max(np.abs(f.values).max(), np.abs(g.values).max(), 1e-300)
    if pre_diff > 1e-12 * scale:
        raise ValueError(f"forcings differ before t = {a} (max diff {pre_diff:.3g})")
    uf = solve_fn(f)
    ug = solve_fn(g)
    denom = uf.magnitudes().max()
    if denom == 0.0:
        return 0.0
    num = np.linalg.norm((uf.values - ug.values)[before], axis=1).max() if before.any() else 0.0
    return float(num / denom)


def scan_rows(law, nu: float, **grid) -> list:
    """(sigma, taus) for every sigma row of the certify grid: the row's tau
    grid plus, where the law's scan takes them, its graded tau samples.

    For a delay law the tau grid also holds the multiples of pi/|h| in
    [-tau_max, tau_max], where cos(tau h) takes its extremes.  A custom or
    integro law whose analyticity check passes on a grid of at least three
    sigmas and three taus takes, on its first row and on the rows with
    |sigma| below two grid steps (the larger of the two spacings), the
    samples tau = Im p +- d sinh(k ln(1 + MESH_RATIO)) for k = 0, 1, ...
    while they are closer than a tau step to the sample before, around
    p = 0 and p = 1/s for each declared singularity s != 0, with
    d = |sigma - Re p| but at least 1e-3 grid steps; those of the rows after
    the first only where |tau| is at most two grid steps.  Each is one loop
    over k with ``math.sinh``."""
    cfg = SamplingConfig(**grid)
    sigmas = _sigma_grid(nu, cfg)
    taus = np.linspace(-cfg.tau_max, cfg.tau_max, cfg.n_tau)
    if law.family == "delay":
        step = np.pi / abs(law.h)
        k_max = int(np.floor(cfg.tau_max / step))
        taus = np.unique(np.concatenate([taus, step * np.arange(-k_max, k_max + 1)]))
    rows = [(sigma, taus) for sigma in sigmas]
    if (law.family not in ("custom", "integro") or not law.analyticity(nu)[0]
            or cfg.n_sigma < 3 or cfg.n_tau < 3):
        return rows
    step = max(sigmas[1] - sigmas[0], taus[1] - taus[0])
    poles = [0j] + [1.0 / complex(s) for s in getattr(law, "singularities", ()) if s != 0]
    a = math.log1p(MESH_RATIO)
    for i, sigma in enumerate(sigmas):
        if i and not abs(sigma) < 2.0 * step:
            continue
        extra = []
        for p in poles:
            d = max(abs(sigma - p.real), 1e-3 * step)
            k = 0
            while k == 0 or d * (math.sinh(k * a) - math.sinh((k - 1) * a)) < taus[1] - taus[0]:
                extra += [p.imag + d * math.sinh(k * a), p.imag - d * math.sinh(k * a)]
                k += 1
        extra = [t for t in extra if taus[0] <= t <= taus[-1] and (i == 0 or abs(t) <= 2.0 * step)]
        rows[i] = (sigma, np.unique(np.concatenate([taus, extra])))
    return rows


def dense_positivity_scan(law, nu: float, **grid) -> float:
    """Smallest eigenvalue of the Hermitian part of z^-1 M(z) over every
    point of :func:`scan_rows`, one sigma row at a time, less
    lambda = sigma + i tau = 0, where z = 1/lambda is not finite."""
    best = np.inf
    for sigma, taus in scan_rows(law, nu, **grid):
        lam = sigma + 1j * taus
        lam = lam[lam != 0]
        if not len(lam):
            continue
        stack = law.stack(lam)
        herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
        best = min(best, float(np.linalg.eigvalsh(herm)[:, 0].min()))
    return best


def unscreened_positivity_min(law, sigmas: np.ndarray, taus: np.ndarray, boundary: bool) -> float:
    """``MaterialLaw.positivity_min`` without its Gershgorin screen: the same
    batches and finiteness checks, and one LAPACK eigenvalue problem at every
    point of every batch."""
    def evaluate(lam, best):
        herm = hermitian_part(law.stack(lam))
        return (herm,), lambda: np.linalg.eigvalsh(herm)[:, 0]

    return _scan_min(_scan_batches(sigmas, taus, boundary, law.scan_singularities), evaluate)


def kernel_l1_oracle(kernel, nu: float, joint) -> float:
    """Integral of ||C(t)||_2 exp(nu t) over t >= 0 for modes with the joint
    eigenvalues ``joint`` (modes, dim), which the caller knows.

    ||C(t)||_2 = max_i |c_i(t)| with the smooth curves c_i, the exponential
    sums sum_j joint[j, i] exp(-beta_j t).  The kinks, where the largest
    |c_i| hands over to another, are located by brentq between the
    fine-grid points where the argmax changes and handed to ``quad`` as
    break points.  Each piece between break points is integrated by its own
    ``quad`` call.
    [0, T] leaves out less than 1e-17, which is bounded analytically.
    """
    rates = np.array([m.beta - nu for m in kernel.modes])
    norms = np.array([np.linalg.norm(m.gamma, 2) for m in kernel.modes])
    t_end = max(np.log(max(n * len(rates) / (a * 1e-17), 1.0)) / a
                for n, a in zip(norms, rates))

    def curves(t):
        return np.exp(-np.outer(np.atleast_1d(t), rates)) @ np.asarray(joint)

    def gap(t, i, k):
        ct = np.abs(curves(t)[0])
        return ct[i] - ct[k]

    grid = np.linspace(0.0, t_end, 20001)
    top = np.abs(curves(grid)).argmax(axis=1)
    kinks = []
    for j in np.nonzero(top[:-1] != top[1:])[0]:
        args = (top[j], top[j + 1])
        if gap(grid[j], *args) * gap(grid[j + 1], *args) < 0:
            kinks.append(brentq(gap, grid[j], grid[j + 1], args=args, xtol=1e-15))

    def integrand(t):
        return float(np.abs(curves(t)).max())

    # one quad per piece: given the break points at once, QUADPACK's QAGP
    # stops on a roundoff alarm next to an avoided crossing (gap 9.4e-7,
    # 3.7e-11 off), where each piece alone converges to 2e-16
    edges = [0.0, *sorted(kinks), t_end]
    val = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=1000)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    return val + float(np.sum(norms * np.exp(-rates * t_end) / rates))


def sign_defects_oracle(kernel) -> tuple:
    """(base, lines) defects of the sign condition t * Im Chat(t - i rho) <= 0:
    its largest eigenvalue over the sampled t on the line rho = -nu0, and over
    every sampled line rho in [-nu0, 5], one point at a time."""
    n = kernel.dim

    def defect(rho):
        worst = -np.inf
        for t in _SIGN_TS:
            z = complex(t, -rho)
            ch = np.zeros((n, n), dtype=complex)
            for m in kernel.modes:
                ch += m.gamma / (m.beta + 1j * z)
            ch /= SQRT_2PI
            im = (ch - ch.conj().T) / 2j
            worst = max(worst, float(np.linalg.eigvalsh(t * im)[-1]))
        return worst

    lines = np.linspace(-kernel.nu0, 5.0, _SIGN_LINES)
    return defect(-kernel.nu0), max(defect(rho) for rho in lines)


def shifted_bounded_oracle(law, nu: float) -> HypothesisResult:
    """Check (b) of the certificate with one dense 2-norm at each of the 480
    points (481 when 1/nu falls inside a ball: once, after the smallest
    such ball), in their report order."""
    worst = 0.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
    radii_frac = (0.25, 0.5, 0.8, 0.95, 0.999)
    # the smallest ball B(q, q) holding 1/nu, or None
    first = min((q for q in SHIFT_RADII if nu > 0 and abs(1.0 / nu - q) < q), default=None)
    try:
        for r in SHIFT_RADII:
            pts = [r + s * r * np.exp(1j * th) for s in radii_frac for th in thetas]
            if r == first:
                pts.append(1.0 / nu)  # removable point of the substitution
            for z in pts:
                norm = _norm2(law.shifted(nu, z))
                if not math.isfinite(norm):
                    return HypothesisResult(False, f"shifted symbol not finite at z = {z}")
                worst = max(worst, norm)
    except ValueError as exc:
        return HypothesisResult(False, f"shifted symbol unavailable: {exc}")
    return HypothesisResult(True, f"finite on sampled balls B(r, r), r in {SHIFT_RADII}; max norm {worst:.6g}", worst)


def custom_stack_oracle(law, lam: np.ndarray) -> np.ndarray:
    """lambda * M(1/lambda) of a :class:`CustomLaw` for a 1-D array of complex
    lambda, one numpy-scalar 1/lambda and one symbol call per point."""
    out = np.empty((lam.size, law.dim, law.dim), dtype=complex)
    for k, l in enumerate(lam):
        out[k] = l * law.symbol(complex(1.0 / l))
    return out


def delay_rate_oracle(norm_m0: float, h: float, c: float) -> float:
    """Root of nu*|M0| + exp(-nu*h) = c via brentq (h < 0)."""
    def g(nu):
        return nu * norm_m0 + np.exp(-nu * h) - c
    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return brentq(g, 0.0, hi, xtol=1e-14)


def pencil_spectral_rate(e, f, rho: float) -> float:
    """-max Re lambda over the finite eigenvalues lambda of the pencil
    lambda E + F, inf when it has none.

    The eigenvalues mu of K = (rho E + F)^-1 E are 1/(rho - lambda), and an
    infinite lambda gives mu = 0; the mu with |mu| <= 1e-10 max |mu| are
    taken for those.  rho must not be an eigenvalue.
    """
    mu = np.linalg.eigvals(np.linalg.solve(rho * np.asarray(e) + f, e))
    mu = mu[np.abs(mu) > 1e-10 * np.abs(mu).max(initial=0.0)]
    return -float(np.max((rho - 1.0 / mu).real)) if len(mu) else math.inf


def integro_rate_oracle(gamma: float, beta: float, c: float, nu0: float) -> float:
    """Largest nu in (0, nu0] with nu/(1 - gamma/(beta-nu)) <= c via brentq.

    Only valid where the weighted L1 norm gamma/(beta-nu) stays below 1.
    """
    def g(nu):
        return nu / (1.0 - gamma / (beta - nu)) - c
    limit = min(nu0, beta - gamma)  # L1 < 1 requires nu < beta - gamma
    if g(limit - 1e-13) <= 0:
        return limit
    return brentq(g, 1e-13, limit - 1e-13, xtol=1e-14)


def volterra_integro_stepper(gamma: float, beta: float, b: float,
                             f_samples: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid time stepper for u' + b*u - (C * (b*u)) = f, C(t)=gamma*exp(-beta*t).

    Starts from rest at the first sample (zero history).  Quadratic accuracy
    in dt; kept scalar because the oracles only need the scalar cases.

    With s_k = sum_{l<k} gamma e^{-beta(k-l)dt} b u_l the trapezoid memory is
    conv_k = dt*(s_k + gamma*b*u_k/2), and s obeys s_k = e^{-beta dt}(s_{k-1}
    + gamma b u_{k-1}); the u_k term moves to the left side of the implicit
    trapezoid update.
    """
    f = np.asarray(f_samples, dtype=float).reshape(-1)
    n = f.size
    u = np.zeros(n)
    decay = np.exp(-beta * dt)
    s = 0.0
    lhs = 1.0 + 0.5 * dt * b - 0.25 * dt * dt * gamma * b
    for k in range(1, n):
        conv_prev = dt * (s + 0.5 * gamma * b * u[k - 1])
        g_prev = f[k - 1] - b * u[k - 1] + conv_prev
        s = decay * (s + gamma * b * u[k - 1])
        u[k] = (u[k - 1] + 0.5 * dt * (g_prev + f[k] + dt * s)) / lhs
    return u


def delay_stepper(m0: float, m1: float, h: float, f_samples: np.ndarray,
                  dt: float) -> np.ndarray:
    """Implicit-trapezoid stepper for m0 u'(t) + u(t+h) + m1 u(t) = f(t).

    Requires h to be a negative integer multiple of dt so the lagged value
    sits exactly on a node; history is zero.
    """
    f = np.asarray(f_samples, dtype=float).reshape(-1)
    lag = int(round(-h / dt))
    if abs(lag * dt + h) > 1e-12:
        raise ValueError("h must be a negative multiple of dt")
    n = f.size
    u = np.zeros(n)

    def lagged(k):
        j = k - lag
        return u[j] if j >= 0 else 0.0

    for k in range(1, n):
        g_prev = (f[k - 1] - lagged(k - 1) - m1 * u[k - 1]) / m0
        # m0-normalized implicit trapezoid; the lagged term at step k is known
        rhs = u[k - 1] + 0.5 * dt * (g_prev + (f[k] - lagged(k)) / m0)
        u[k] = rhs / (1.0 + 0.5 * dt * m1 / m0)
    return u


def dae_stepper(m0, k, f, u0, times, substeps: int = 4) -> np.ndarray:
    """theta-method for (M0 u)' + K u = f(t) from u(0) = u0, one row per
    entry of the increasing, positive ``times``.

    Each interval from 0 to the first time, and between consecutive times,
    is split into ``substeps`` equal steps, at which the callable ``f`` is
    evaluated exactly.  For M0 > 0 this is the trapezoid rule (theta = 1/2).
    A singular M0 leaves u0 inconsistent with the algebraic rows, where the
    trapezoid rule rings undamped; there it is implicit Euler (theta = 1),
    which lands on them in one step, with Richardson's 2 u_{h/2} - u_h for
    second order (Hairer and Wanner, Solving ODEs II).
    """
    m0, k = np.asarray(m0, dtype=complex), np.asarray(k, dtype=complex)
    nodes = np.concatenate([[0.0], times])

    def march(parts, theta):
        steps = nodes[:-1, None] + np.diff(nodes)[:, None] * np.arange(parts) / parts
        steps = np.append(steps.ravel(), nodes[-1])
        x, out = np.asarray(u0, dtype=complex), []
        for j in range(1, len(steps)):
            h = steps[j] - steps[j - 1]
            rhs = (m0 - (1 - theta) * h * k) @ x + h * (theta * f(steps[j])
                                                       + (1 - theta) * f(steps[j - 1]))
            x = np.linalg.solve(m0 + theta * h * k, rhs)
            if j % parts == 0:
                out.append(x)
        return np.array(out)

    if np.linalg.eigvalsh(m0)[0] > 0:
        return march(substeps, 0.5)
    return 2 * march(2 * substeps, 1.0) - march(substeps, 1.0)
