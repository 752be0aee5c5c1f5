"""Empirical decay-rate estimation and causality diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecayFitError
from .signals import Signal, _write_csv, weighted_norm


@dataclass(frozen=True)
class DecayFit:
    """Log-linear least-squares fit of |u(t)| over a window."""

    rate: float
    intercept: float
    window: tuple
    rms_residual: float
    samples_used: int


def fit_decay_rate(u: Signal, window, floor: float = 1e-13) -> DecayFit:
    """Fit ln|u(t)| ~ intercept - rate*t on samples inside ``window`` whose
    magnitude exceeds ``floor`` (absolute).  Needs at least 8 such samples,
    else raises :class:`DecayFitError`."""
    t_a, t_b = window
    t = u.grid.times
    mags = u.magnitudes()
    keep = (t >= t_a) & (t <= t_b) & (mags > floor)
    n_used = int(keep.sum())
    if n_used < 8:
        raise DecayFitError(f"only {n_used} usable samples in window [{t_a}, {t_b}] above floor {floor:g}")
    ts = t[keep]
    ys = np.log(mags[keep])
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    return DecayFit(rate=float(-slope), intercept=float(intercept),
                    window=(float(t_a), float(t_b)),
                    rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                    samples_used=n_used)


def weighted_norm_profile(u: Signal, mu_values) -> list:
    """Weighted norms of ``u`` over a list of weights mu.

    Finite-grid surrogate for membership in the scale of weighted spaces:
    a signal decaying like exp(-nu*t) keeps a stable profile for mu > -nu
    and blows up with grid length past it.
    """
    return [(float(mu), weighted_norm(u, float(mu))) for mu in mu_values]


def profile_to_csv(profile, path) -> None:
    """Write a (mu, norm) profile as CSV with a ``mu,norm`` header, each
    float as ``'%.17g'``; an empty profile writes the header line only."""
    _write_csv(path, profile, "mu,norm")


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


def default_margin(nu: float) -> float:
    """Accept fitted rates down to nu minus this slack (5% plus 0.01)."""
    return 0.05 * nu + 0.01


def auto_tail_window(u: Signal) -> tuple:
    """Fit window [t_peak + 0.2*(T - t_peak), T - 0.1*(T - t_peak)] placed
    after the response peak and clear of the wrap-prone grid end."""
    t = u.grid.times
    t_peak = float(t[int(np.argmax(u.magnitudes()))])
    t_max = float(t[-1])
    rest = t_max - t_peak
    return (t_peak + 0.2 * rest, t_max - 0.1 * rest)


def verify_stability(u: Signal, nu_certified: float, margin: float | None = None) -> tuple:
    """Fit the tail decay of ``u`` and compare against a certified rate.

    Returns (passed, fit); passes when the fitted rate reaches
    nu_certified - margin.
    """
    if margin is None:
        margin = default_margin(nu_certified)
    fit = fit_decay_rate(u, auto_tail_window(u))
    return (fit.rate >= nu_certified - margin, fit)
