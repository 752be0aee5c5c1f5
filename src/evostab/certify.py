"""Exponential-stability certification for material-law symbols.

A symbol M certifies decay rate nu > 0 when three checks pass:

(a) analyticity: M extends holomorphically outside the closed ball of
    radius 1/(2 nu) centered at -1/(2 nu);
(b) boundedness: the shifted symbol (1 - nu z) M(z (1 - nu z)^-1) stays
    bounded on balls B(r, r) (spot-checked at r in {0.5, 1, 10});
(c) positivity: Re z^-1 M(z) >= c(nu) > 0 outside the ball, parametrized
    by z^-1 = sigma + i tau with sigma > -nu.

For the three structured families (c) has closed-form lower bounds derived
from the defining matrices, which are authoritative; the sampled minimum
over a (sigma, tau) rectangle is reported as corroborating evidence and is
the only certificate available for custom symbols.  Each family's closed-form
rate is the largest nu at which its bound on c(nu) stays nonnegative.

The family-specific parts (analyticity, the sampled minimum, the bound and
the rate) are methods of the law classes in :mod:`evostab.material`, where
each family documents its own; a family's rate is ``law.rate()``.  The
functions here are the sampled scan, which builds its grids, the report
assembly, and three names kept for ``perfbench/spans.py``, which times them
here.  Kernel admissibility is one :class:`KernelConditionReport` per
kernel, evaluated once and cached on the kernel next to which it lives in
:mod:`evostab.material`; the integro law raises on its structural
conditions when built and on its sign condition in the rate.
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
from .material import (KernelConditionReport, MaterialLaw, _norm2, check_kernel_conditions,
                       kernel_weighted_l1, shifted_symbol)

# Sentinel cap for unbounded rates (M0 = 0, purely algebraic problems).
RATE_CAP = 1e6

# Spot-check radii for the shifted-symbol boundedness check.
SHIFT_RADII = (0.5, 1.0, 10.0)


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

    def describe(self, nu: float) -> str:
        return (f"sigma in [{_sigma_grid(nu, self)[0]:.6g}, {self.sigma_max:.6g}] x {self.n_sigma}, "
                f"tau in [{-self.tau_max:.6g}, {self.tau_max:.6g}] x {self.n_tau} plus critical values")


def _sigma_grid(nu: float, cfg: SamplingConfig) -> np.ndarray:
    delta = (nu if nu > 0 else cfg.sigma_max) / cfg.n_sigma
    return np.linspace(-nu + delta, cfg.sigma_max, cfg.n_sigma)


def solvability_constant(law: MaterialLaw, nu: float, sigma_max: float = SamplingConfig.sigma_max,
                         tau_max: float = SamplingConfig.tau_max,
                         n_sigma: int = SamplingConfig.n_sigma,
                         n_tau: int = SamplingConfig.n_tau) -> float:
    """Sampled min over the rectangle of the smallest eigenvalue of the
    Hermitian part of z^-1 M(z), z^-1 = sigma + i tau.

    A function rather than ``law.positivity_min``: it checks the rectangle
    and builds the sigma and tau grids.  The value is that of the dense
    scan, one Hermitian eigenvalue problem per sampled point; the structured
    families compute it from their structure (``positivity_min`` of each law
    class): one eigenvalue problem for most DAE and delay laws, scalar
    arithmetic in the modes' joint eigenbasis for integro laws.  A delay law
    also counts the critical values tau = k pi/|h| inside the rectangle,
    where cos(tau h) = +-1 (the "plus critical values" of the report).

    Raises :class:`NonFiniteSymbolError` when z^-1 M(z) is not finite on a
    sampled line.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    cfg = SamplingConfig(sigma_max, tau_max, n_sigma, n_tau)
    taus = np.linspace(-cfg.tau_max, cfg.tau_max, cfg.n_tau)
    return law.positivity_min(_sigma_grid(nu, cfg), taus)


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
            capped = min(self.closed_form_rate, RATE_CAP)
            pairs.append(("closed_form_rate", capped))
            pairs.append(("rate_capped", not math.isfinite(self.closed_form_rate)))
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
            rate = min(self.closed_form_rate, RATE_CAP)
            suffix = " (capped)" if not math.isfinite(self.closed_form_rate) else ""
            lines.append(f"  closed-form rate = {rate:.12g}{suffix}")
        lines.append(f"  sampling: {self.sample_grid}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines) + "\n"


def _check_shifted_bounded(law: MaterialLaw, nu: float) -> HypothesisResult:
    worst = 0.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
    radii_frac = (0.25, 0.5, 0.8, 0.95, 0.999)
    try:
        for r in SHIFT_RADII:
            pts = [r + s * r * np.exp(1j * th) for s in radii_frac for th in thetas]
            if nu > 0 and abs(1.0 / nu - r) < r:
                pts.append(1.0 / nu)  # removable point of the substitution
            for z in pts:
                norm = _norm2(shifted_symbol(law, nu, z))
                if not math.isfinite(norm):
                    return HypothesisResult(False, f"shifted symbol not finite at z = {z}")
                worst = max(worst, norm)
    except ValueError as exc:
        return HypothesisResult(False, f"shifted symbol unavailable: {exc}")
    return HypothesisResult(True, f"finite on sampled balls B(r, r), r in {SHIFT_RADII}; max norm {worst:.6g}", worst)


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
    if nu < 0:
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
        sample_grid=cfg.describe(nu),
        closed_form_rate=rate,
        analyticity=analyticity,
        shifted_bounded=shifted,
        positivity=positivity,
        certificate=certificate,
        warnings=tuple(warnings),
    )
