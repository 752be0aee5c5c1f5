"""Exponential-stability certification for material-law symbols.

A symbol M certifies decay rate nu > 0 when three checks pass:

(a) analyticity: M extends holomorphically outside the closed ball of
    radius 1/(2 nu) centered at -1/(2 nu);
(b) boundedness: the shifted symbol (1 - nu z) M(z (1 - nu z)^-1) stays
    bounded on balls B(r, r) (spot-checked at 480 points of the balls with
    r in {0.5, 1, 10}, plus 1/nu once when a ball holds it).  It is
    ``law.shifted(nu, z)``, z times the operator lambda M(1/lambda) of
    ``law.stack`` at lambda = 1/z - nu, refused where Re lambda is at or
    below the law's ``rho_floor``.  The reported maximum is a dense 2-norm,
    taken in batched SVDs; where the law gives the eigenvalues of that
    operator in one unitary basis (``law.stack_eigenvalues``), only the
    points that can hold the maximum are evaluated densely, each once;
(c) positivity: Re z^-1 M(z) >= c(nu) > 0 outside the ball, parametrized
    by z^-1 = sigma + i tau with sigma > -nu.  Where (a) passes, the smallest
    eigenvalue of that Hermitian part is superharmonic in z^-1 away from
    z^-1 = 0, which (a) does not cover, and takes its minimum over any
    rectangle that avoids z^-1 = 0 on that rectangle's boundary.  So the
    rows with sigma at most one grid step, and the boundary of the rest,
    are sampled; where (a) fails every grid point is
    (:func:`solvability_constant`).

For the three structured families (c) has closed-form lower bounds derived
from the defining matrices, exact for DAE and delay laws, which are
authoritative; the sampled minimum over a (sigma, tau) rectangle is reported
as corroborating evidence and is the only certificate available for custom
symbols.  Each family's closed-form rate is the largest nu at which its
bound on c(nu) stays nonnegative.

The family-specific parts (analyticity, the sampled minimum, the bound and
the rate) are methods of the law classes in :mod:`evostab.material`, where
each family documents its own; a family's rate is ``law.rate()``.  The
functions here are the sampled scan, which builds its grids, the report
assembly, and three names kept for ``perfbench/spans.py``, which times them
here.  Kernel admissibility is one :class:`KernelConditionReport` per
kernel, evaluated once and cached on the kernel next to which it lives in
:mod:`evostab.material`; the integro law raises on its structural
conditions when built and on its sign condition in the rate, and without
the sign condition it has no closed-form bound, so its certificate is the
sampled one.
:func:`check_kernel_conditions` returns that report and is re-exported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

# KernelConditionReport, check_kernel_conditions and kernel_weighted_l1 are
# re-exported: kernel admissibility is part of the certificate's public API.
# SCREEN_RTOL is the one rounding window of check (b)'s screen and the
# positivity scan's.
from .material import (SCREEN_RTOL, KernelConditionReport, MaterialLaw, _norm2,
                       check_kernel_conditions, kernel_weighted_l1)

# Cap on reported rates: unbounded ones (M0 = 0, purely algebraic problems)
# and finite ones above it are reported as RATE_CAP and flagged as capped.
RATE_CAP = 1e6

# Spot-check radii for the shifted-symbol boundedness check.
SHIFT_RADII = (0.5, 1.0, 10.0)

# Complex entries per stack of the dense check's batched 2-norms: every point
# of a small law in one stack, and a bounded stack (16 MB) for a large one.
_NORM_CHUNK = 1 << 20


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling rectangle for the positivity scan (z^-1 = sigma + i tau)."""

    sigma_max: float = 10.0
    tau_max: float = 100.0
    n_sigma: int = 200
    n_tau: int = 401

    def __post_init__(self):
        for name in ("n_sigma", "n_tau"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        for name in ("sigma_max", "tau_max"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, Real):
                raise ValueError(f"{name} must be a real number, got {x!r}")
        if not (math.isfinite(self.sigma_max) and self.sigma_max > 0):
            raise ValueError(f"sigma_max must be finite and positive, got {self.sigma_max!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max >= 0):
            raise ValueError(f"tau_max must be finite and >= 0, got {self.tau_max!r}")

    def describe(self, nu: float, extra: str | None = None) -> str:
        """The grid at nu, its first and last sigma as sampled, plus
        ``extra``, what the scan samples besides it."""
        sigmas = _sigma_grid(nu, self)
        grid = (f"sigma in [{sigmas[0]:.6g}, {sigmas[-1]:.6g}] x {self.n_sigma}, "
                f"tau in [{-self.tau_max:.6g}, {self.tau_max:.6g}] x {self.n_tau}")
        return grid if extra is None else f"{grid} plus {extra}"


def _sigma_grid(nu: float, cfg: SamplingConfig) -> np.ndarray:
    delta = (nu if nu > 0 else cfg.sigma_max) / cfg.n_sigma
    return np.linspace(-nu + delta, cfg.sigma_max, cfg.n_sigma)


def solvability_constant(law: MaterialLaw, nu: float, sigma_max: float = SamplingConfig.sigma_max,
                         tau_max: float = SamplingConfig.tau_max,
                         n_sigma: int = SamplingConfig.n_sigma,
                         n_tau: int = SamplingConfig.n_tau) -> float:
    """Sampled min over the rectangle of the smallest eigenvalue of the
    Hermitian part of z^-1 M(z), z^-1 = sigma + i tau.

    A function rather than ``law.positivity_min``: it checks the rectangle,
    builds the sigma and tau grids and decides which of their points to
    sample.  Where ``law.analyticity(nu)`` passes, M is holomorphic outside
    the excluded ball, so lambda M(1/lambda) is holomorphic on
    Re lambda > -nu except perhaps at lambda = 0, z = infinity, which the
    check does not cover (M(z) = z + z^2 passes it and has a pole there).
    Away from lambda = 0 the map lambda -> min eig Re lambda M(1/lambda),
    an infimum of the harmonic functions Re <lambda M(1/lambda) x, x>, is
    superharmonic and takes its minimum over a rectangle that avoids
    lambda = 0 on the rectangle's boundary (the minimum principle).  So the
    rows with sigma at most one grid step (the larger of the sigma and tau
    spacings) are sampled in full: they pass through or near lambda = 0 and
    the singularities on Re lambda <= -nu, where the tau spacing need not
    resolve the symbol.  Of the other rows only the first and last and the
    tau = +-tau_max ends of the rows between are sampled: 5188 points of the
    default 200 x 401 at nu = 0 and 8779 at nu = 0.5, where all 80,200 were
    (``material._scan_batches``).  Elsewhere, as for an integro law at
    nu > nu0, whose kernel poles can lie inside the rectangle, every grid
    point is.  The value is that of the dense scan, one Hermitian eigenvalue
    problem per sampled point; the structured families compute it from
    their structure (``positivity_min`` of each law class): scalar
    arithmetic in the modes' joint eigenbasis at each sampled point for
    integro laws, and one eigenvalue problem for the whole grid of most DAE
    and delay laws.  A delay law also counts the critical values
    tau = k pi/|h| inside the rectangle, where cos(tau h) = +-1 (the "plus
    critical values" of the report).

    The scans that sample point by point (the dense one and the integro
    one) leave out lambda = 0, which is not in the domain and which a row
    sigma = 0 holds when ``n_tau`` is odd (``n_sigma = 1`` at nu > 0, for
    one); a grid of that point alone is a ValueError.  Raises
    :class:`NonFiniteSymbolError`, naming the sigma of the first point that
    is not finite, when z^-1 M(z) is not finite at a sampled point.
    """
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    cfg = SamplingConfig(sigma_max, tau_max, n_sigma, n_tau)
    taus = np.linspace(-cfg.tau_max, cfg.tau_max, cfg.n_tau)
    return law.positivity_min(_sigma_grid(nu, cfg), taus, boundary=law.analyticity(nu)[0])


def solvability_lower_bound(law: MaterialLaw, nu: float) -> float | None:
    """Closed-form lower bound on Re z^-1 M(z) over sigma > -nu, or None.

    ``law.lower_bound(nu)``, kept as a function because ``perfbench/spans.py``
    times it under this name here and in :mod:`evostab.solver`.
    """
    return law.lower_bound(nu)


@dataclass(frozen=True)
class HypothesisResult:
    passed: bool
    evidence: str
    value: float | None = None


@dataclass(frozen=True)
class CertificationReport:
    family: str
    nu: float
    c_nu: float
    c_nu_sampled: float
    sample_grid: str
    closed_form_rate: float | None
    analyticity: HypothesisResult
    shifted_bounded: HypothesisResult
    positivity: HypothesisResult
    certificate: str  # "closed_form" or "sampled"
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        return (self.analyticity.passed and self.shifted_bounded.passed
                and self.positivity.passed)

    @property
    def capped_rate(self) -> float | None:
        """The closed-form rate, at most ``RATE_CAP``; None without one."""
        return None if self.closed_form_rate is None else min(self.closed_form_rate, RATE_CAP)

    def kv_pairs(self) -> list:
        def flag(r):
            return "pass" if r.passed else "fail"
        pairs = [
            ("family", self.family),
            ("nu", self.nu),
            ("pass", self.passed),
            ("analyticity", flag(self.analyticity)),
            ("shifted_bounded", flag(self.shifted_bounded)),
            ("positivity", flag(self.positivity)),
            ("c_nu", self.c_nu),
            ("c_nu_sampled", self.c_nu_sampled),
            ("certificate", self.certificate),
        ]
        if self.closed_form_rate is not None:
            pairs.append(("closed_form_rate", self.capped_rate))
            pairs.append(("rate_capped", self.closed_form_rate > RATE_CAP))
        if self.shifted_bounded.value is not None:
            pairs.append(("shifted_max_norm", self.shifted_bounded.value))
        pairs.append(("sample_grid", self.sample_grid))
        pairs.append(("warnings", ";".join(self.warnings) if self.warnings else "none"))
        return pairs

    def to_text(self) -> str:
        lines = [f"stability certification: family={self.family} nu={self.nu:.12g}",
                 f"  overall: {'PASS' if self.passed else 'FAIL'} ({self.certificate} certificate)"]
        for name, res in (("analyticity", self.analyticity),
                          ("shifted symbol bounded", self.shifted_bounded),
                          ("positivity", self.positivity)):
            lines.append(f"  {name}: {'pass' if res.passed else 'fail'} - {res.evidence}")
        lines.append(f"  c(nu) = {self.c_nu:.12g} (sampled min {self.c_nu_sampled:.12g})")
        if self.closed_form_rate is not None:
            suffix = " (capped)" if self.closed_form_rate > RATE_CAP else ""
            lines.append(f"  closed-form rate = {self.capped_rate:.12g}{suffix}")
        lines.append(f"  sampling: {self.sample_grid}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines) + "\n"


def _shift_points(nu: float) -> list:
    """The spot-check points: 32 angles on five circles inside each ball
    B(r, r), ball by ball, plus the removable point 1/nu once, after the
    first ball that holds it (nu > 0.05): 480 or 481 points."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
    radii_frac = (0.25, 0.5, 0.8, 0.95, 0.999)
    pts, held = [], False
    for r in SHIFT_RADII:
        pts += [r + s * r * np.exp(1j * th) for s in radii_frac for th in thetas]
        if nu > 0 and not held and abs(1.0 / nu - r) < r:
            pts.append(1.0 / nu)  # removable point of the substitution
            held = True
    return pts


def _dense_shifted_max(law: MaterialLaw, nu: float, pts: list) -> HypothesisResult:
    """The dense check: the 2-norm of ``law.shifted(nu, z)`` at every point,
    failing at the first point that is not finite or that the shifted symbol
    refuses.

    The points are evaluated in order, a chunk of about ``_NORM_CHUNK``
    entries at a time, and each chunk's matrices take their 2-norms in one
    batched SVD, the same LAPACK call per matrix as one ``_norm2`` each.  A
    chunk with a point that raises (a refusal, or any other error), a
    matrix that does not stack with the chunk's first or a norm that is not
    finite is evaluated again, with the points after it, one point at a time
    (:func:`_pointwise_shifted_max`), which names the first bad point or
    raises where the point loop raises.
    """
    worst, start = 0.0, 0
    while start < len(pts):
        norms = _stacked_norms(law, nu, pts, start)
        if norms is None:
            return _pointwise_shifted_max(law, nu, pts[start:], worst)
        worst, start = max(worst, float(norms.max())), start + norms.size
    return _bounded(worst)


def _stacked_norms(law: MaterialLaw, nu: float, pts: list, start: int) -> np.ndarray | None:
    """2-norms of the shifted symbol at the chunk of ``pts`` from ``start``,
    as many points as keep the stack near ``_NORM_CHUNK`` entries; None where
    a point raises, does not stack or has a norm that is not finite."""
    try:
        first = np.atleast_2d(law.shifted(nu, pts[start]))
        if first.ndim != 2:
            return None
        chunk = pts[start:start + max(1, _NORM_CHUNK // max(1, first.size))]
        stack = np.empty((len(chunk),) + first.shape, complex)  # every law's symbol is complex
        stack[0] = first
        for k, z in enumerate(chunk[1:], 1):
            a = np.atleast_2d(law.shifted(nu, z))
            if a.shape != first.shape:
                return None
            stack[k] = a
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
    except Exception:  # any error, refusals included: the point loop meets it again in order
        return None
    return norms if np.isfinite(norms).all() else None


def _pointwise_shifted_max(law: MaterialLaw, nu: float, pts: list, worst: float) -> HypothesisResult:
    """The dense check one ``_norm2`` at a time, from the largest norm
    ``worst`` of the points before ``pts``."""
    try:
        for z in pts:
            norm = _norm2(law.shifted(nu, z))
            if not math.isfinite(norm):
                return HypothesisResult(False, f"shifted symbol not finite at z = {z}")
            worst = max(worst, norm)
    except ValueError as exc:
        return HypothesisResult(False, f"shifted symbol unavailable: {exc}")
    return _bounded(worst)


def _bounded(worst: float) -> HypothesisResult:
    return HypothesisResult(True, f"finite on sampled balls B(r, r), r in {SHIFT_RADII}; max norm {worst:.6g}", worst)


def _check_shifted_bounded(law: MaterialLaw, nu: float) -> HypothesisResult:
    """Check (b) at every point of :func:`_shift_points`, with the result of
    the dense check over all of them.

    The shifted symbol at z is z * law.stack(lambda), lambda = 1/z - nu, so
    where the law gives its eigenvalues (``law.stack_eigenvalues``) its
    2-norm is |z| max_i |values_i| within |z| slack.  Where those norms are
    all finite, only the points whose norm, widened by its slack and
    SCREEN_RTOL times the largest norm, can reach the largest lower bound
    are evaluated densely, once: the point of the dense maximum is among
    them.  ``stack_eigenvalues`` answers only clear of the law's
    ``rho_floor``, where ``shifted`` refuses no point; the one refusal left
    there, an integro nu above nu0, is the same at every point and names
    none.  Without a screen, or with a norm that is not finite, every point
    is evaluated.  The points kept are evaluated in order and take their
    dense 2-norms in batches (:func:`_dense_shifted_max`), with the result
    of one ``_norm2`` per point.
    """
    pts = _shift_points(nu)
    z = np.array(pts)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # not finite: dense
        screen = law.stack_eigenvalues(1.0 / z - nu)
        if screen is not None:
            norms, slack = np.abs(z) * np.abs(screen[0]).max(axis=1), np.abs(z) * screen[1]
    if screen is not None and np.isfinite(norms).all():
        keep = norms + slack >= (norms - slack).max() - SCREEN_RTOL * norms.max()
        pts = [p for p, k in zip(pts, keep) if k]
    return _dense_shifted_max(law, nu, pts)


def closed_form_rate(law: MaterialLaw) -> float | None:
    """Family decay rate from the defining matrices; None for custom symbols.

    ``law.rate()``, kept as a function because ``perfbench/spans.py`` times
    it under this name.  Raises ValueError when the family's structural
    requirements (positive Hermitian part, c > 1 for delays, kernel
    admissibility) fail.
    """
    return law.rate()


def certify(law: MaterialLaw, nu: float, sampling: SamplingConfig | None = None) -> CertificationReport:
    """Run the three checks at the requested rate nu and assemble a report.

    Closed-form positivity bounds are authoritative for the structured
    families; sampling is the certificate for custom symbols.
    """
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    cfg = sampling or SamplingConfig()
    warnings = []

    analyticity = HypothesisResult(*law.analyticity(nu))
    shifted = _check_shifted_bounded(law, nu)

    c_sampled = solvability_constant(law, nu, cfg.sigma_max, cfg.tau_max, cfg.n_sigma, cfg.n_tau)
    bound = solvability_lower_bound(law, nu)
    contradiction = bound is not None and bound > 0 and c_sampled <= 0
    if contradiction:
        warnings.append("sampled minimum contradicts the closed-form bound")
    if bound is not None:
        c_nu = bound
        certificate = "closed_form"
    else:
        c_nu = c_sampled
        certificate = "sampled"
        if law.lower_bound(0.0) is not None:  # a bound exists, but not at this nu
            warnings.append("no closed-form positivity bound at this nu; sampled evidence only")
    positivity = HypothesisResult(c_nu > 0 and not contradiction,
                                  f"c(nu) = {c_nu:.6g} via {certificate} route", c_nu)

    rate = None
    try:
        rate = closed_form_rate(law)
    except ValueError as exc:
        warnings.append(f"closed-form rate unavailable: {exc}")

    return CertificationReport(
        family=law.family,
        nu=nu,
        c_nu=c_nu,
        c_nu_sampled=c_sampled,
        sample_grid=cfg.describe(nu, law.extra_samples),
        closed_form_rate=rate,
        analyticity=analyticity,
        shifted_bounded=shifted,
        positivity=positivity,
        certificate=certificate,
        warnings=tuple(warnings),
    )
