"""Independent numerical oracles used by the test suite.

Rates come from scipy root finding on the scalar defining equations, and the
integro/delay solvers are plain time steppers, so agreement with the library
is evidence rather than tautology.  The positivity scan is the brute-force
definition of the sampled minimum: it shares only the sampling grid and the
lambda * M(1/lambda) builder with the structured minima it checks.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from evostab.certify import SamplingConfig, _sigma_grid, _tau_grid
from evostab.material import _lambda_stack

SQRT_2PI = np.sqrt(2.0 * np.pi)


def dense_positivity_scan(law, nu: float, **grid) -> float:
    """Smallest eigenvalue of the Hermitian part of z^-1 M(z) over every
    sampled (sigma, tau) of the certify grid, one sigma row at a time."""
    cfg = SamplingConfig(**grid)
    taus = _tau_grid(law, cfg)
    best = np.inf
    for sigma in _sigma_grid(nu, cfg):
        stack = _lambda_stack(law, sigma + 1j * taus)
        herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
        best = min(best, float(np.linalg.eigvalsh(herm)[:, 0].min()))
    return best


def delay_rate_oracle(norm_m0: float, h: float, c: float) -> float:
    """Root of nu*|M0| + exp(-nu*h) = c via brentq (h < 0)."""
    def g(nu):
        return nu * norm_m0 + np.exp(-nu * h) - c
    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return brentq(g, 0.0, hi, xtol=1e-14)


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
