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
the only certificate available for custom symbols.  The sampled minimum is
the value of the dense scan, one Hermitian eigenvalue problem per point,
but only custom symbols pay for that scan; the structured families get the
same number from their structure (lambda = sigma + i tau):

* DAE and delay: the Hermitian part is sigma M0 + H(M1) [+ exp(sigma h)
  cos(tau h) I], so tau enters through cos_min alone and the scan is a sweep
  over sigma.  M0 >= 0 makes the sweep nondecreasing, and for delays so does
  cos_min <= 0, so it costs one eigenvalue problem of size n.  An M0 with an
  eigenvalue in [-STRUCT_TOL, 0) or a delay with cos_min > 0 sweeps all
  n_sigma values.
* Integro: the modes are Hermitian and commute, so one unitary U diagonalises
  every W(lambda) = I - sum_j gamma_j / (beta_j + lambda), with diagonal
  w_i(lambda), and the minimum is c + min_i Re(lambda / w_i(lambda)).  That is
  one n x n eigendecomposition plus O(n_sigma n_tau n m) scalar arithmetic
  (m modes), taken one sigma row at a time so the scratch stays
  (n_tau, n).  Modes that U does not diagonalise to STRUCT_TOL fall back to
  the dense scan.
* Custom, and the integro fallback: the dense scan, which builds z^-1 M(z)
  row by row through the material module's lambda-builder (no domain guard,
  so an integro nu above nu0 is reported rather than raised) and takes one
  batched Hermitian eigenvalue call per sigma.

Closed-form decay rates:

* ``dae_rate``     c / ||M0||              (c = min eig of Hermitian part of M1)
* ``delay_rate``   unique root of  nu ||M0|| + exp(-nu h) = c,  needs c > 1
* ``integro_rate`` largest nu1 in (0, nu0] with nu1 (1 - L1(nu1))^-1 <= c
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import KernelAdmissibilityError, NonFiniteSymbolError
from .material import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel,
                       MaterialLaw, hermitian_part, hermitian_part_min_eig,
                       kernel_hat, kernel_weighted_l1, law_family, _norm2,
                       _lambda_stack, _mode_defects, _mode_eigenvalues,
                       shifted_symbol, STRUCT_TOL)

# Sentinel cap for unbounded rates (M0 = 0, purely algebraic problems).
RATE_CAP = 1e6

# Spot-check radii for the shifted-symbol boundedness check.
SHIFT_RADII = (0.5, 1.0, 10.0)

# Tolerance for the sign condition t * Im Chat(t + i nu0) <= 0.
SIGN_TOL = 1e-10


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
        if not self.sigma_max > 0:
            raise ValueError(f"sigma_max must be positive, got {self.sigma_max!r}")

    def describe(self, nu: float) -> str:
        delta = (nu if nu > 0 else self.sigma_max) / self.n_sigma
        return (f"sigma in [{-nu + delta:.6g}, {self.sigma_max:.6g}] x {self.n_sigma}, "
                f"tau in [{-self.tau_max:.6g}, {self.tau_max:.6g}] x {self.n_tau} plus critical values")


def _sigma_grid(nu: float, cfg: SamplingConfig) -> np.ndarray:
    delta = (nu if nu > 0 else cfg.sigma_max) / cfg.n_sigma
    return np.linspace(-nu + delta, cfg.sigma_max, cfg.n_sigma)


def _tau_grid(law: MaterialLaw, cfg: SamplingConfig) -> np.ndarray:
    taus = np.linspace(-cfg.tau_max, cfg.tau_max, cfg.n_tau)
    if isinstance(law, DelayLaw):
        # cos(tau*h) attains its extremes on multiples of pi/|h|.
        step = math.pi / abs(law.h)
        k_max = int(math.floor(cfg.tau_max / step))
        crit = step * np.arange(-k_max, k_max + 1)
        taus = np.unique(np.concatenate([taus, crit]))
    return taus


def solvability_constant(law: MaterialLaw, nu: float,
                         sigma_max: float = 10.0, tau_max: float = 100.0,
                         n_sigma: int = 200, n_tau: int = 401) -> float:
    """Sampled min over the rectangle of the smallest eigenvalue of the
    Hermitian part of z^-1 M(z), z^-1 = sigma + i tau.

    The value is that of the dense scan, one Hermitian eigenvalue problem
    per sampled point; the structured families compute it from their
    structure (see the module docstring):

    * DAE and delay: one eigenvalue problem when M0 >= 0 (and, for delays,
      cos_min <= 0) makes the sigma sweep nondecreasing, else n_sigma of them;
    * integro: c + min_i Re(lambda / w_i(lambda)) in the modes' joint
      eigenbasis, one sigma row at a time; the dense scan when the modes
      have no joint eigenbasis to STRUCT_TOL;
    * custom: the dense scan.

    Raises :class:`NonFiniteSymbolError` when z^-1 M(z) is not finite on a
    sampled line.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    cfg = SamplingConfig(sigma_max, tau_max, n_sigma, n_tau)
    sigmas = _sigma_grid(nu, cfg)
    taus = _tau_grid(law, cfg)

    if isinstance(law, (DaeLaw, DelayLaw)):
        # z^-1 M(z) = (sigma + i tau) M0 + M1 [+ exp(lambda h) I]; i tau M0 is skew.
        monotone = np.linalg.eigvalsh(law.M0)[0] >= 0
        if isinstance(law, DelayLaw):
            # Hermitian part of the delay term: exp(sigma h) cos(tau h) I,
            # nondecreasing in sigma (h < 0) exactly when cos_min <= 0.
            cos_min = float(np.cos(taus * law.h).min())
            monotone = monotone and cos_min <= 0
        if monotone:
            sigmas = sigmas[:1]
        stack = sigmas[:, None, None] * law.M0 + hermitian_part(law.M1)
        base = np.linalg.eigvalsh(stack)[:, 0]
        if isinstance(law, DaeLaw):
            return float(base.min())
        return float(np.min(base + np.exp(sigmas * law.h) * cos_min))

    g = _mode_eigenvalues(law.kernel) if isinstance(law, IntegroLaw) else None
    best = np.inf
    for sigma in sigmas:
        lam = sigma + 1j * taus
        if g is None:
            herm = hermitian_part(_lambda_stack(law, lam))
            finite = np.isfinite(herm).all()
            row = np.linalg.eigvalsh(herm)[:, 0] if finite else None
        else:
            w = np.ones((lam.size, law.dim), dtype=complex)
            for g_j, mode in zip(g, law.kernel.modes):
                w -= g_j / (mode.beta + lam)[:, None]
            row = (lam[:, None] / w).real + law.c
            finite = np.isfinite(w).all() and np.isfinite(row).all()
        if not finite:
            raise NonFiniteSymbolError(
                f"z^-1 M(z) is not finite on the sampled line sigma = {sigma:.6g}")
        best = min(best, float(row.min()))
    return best


def solvability_lower_bound(law: MaterialLaw, nu: float) -> float | None:
    """Closed-form lower bound on Re z^-1 M(z) over sigma > -nu, or None."""
    if isinstance(law, (DaeLaw, DelayLaw)):
        bound = hermitian_part_min_eig(law.M1) - nu * _norm2(law.M0)
        return bound if isinstance(law, DaeLaw) else bound - math.exp(-nu * law.h)
    if isinstance(law, IntegroLaw):
        if nu > law.kernel.nu0:
            return None
        if nu == 0.0:
            return law.c
        l1 = kernel_weighted_l1(law.kernel, nu)
        if l1 >= 1.0:
            return None
        return law.c - nu / (1.0 - l1)
    return None


def _bisect(fn, lo: float, hi: float, tol: float) -> float:
    """Plain bisection for an increasing sign change on [lo, hi]."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dae_rate(M0, M1) -> float:
    """Decay rate c / ||M0|| for the polynomial family.

    Skew perturbations of M1 do not change the rate.  M0 = 0 returns the
    +inf sentinel (purely algebraic problem; every rate is admissible).
    """
    law = DaeLaw(M0, M1)  # validates M0
    c = hermitian_part_min_eig(law.M1)
    if c <= 0:
        raise ValueError(f"Hermitian part of M1 must be positive definite, min eig = {c:.6g}")
    n0 = _norm2(law.M0)
    if n0 == 0.0:
        return math.inf
    return c / n0


def delay_rate(M0, M1, h: float) -> float:
    """Unique root of nu*||M0|| + exp(-nu*h) = c, requiring c > 1 and h < 0."""
    law = DelayLaw(M0, M1, h)
    c = hermitian_part_min_eig(law.M1)
    if c <= 1.0:
        raise ValueError(f"need min eig of Hermitian part of M1 above 1, got {c:.6g}")
    n0 = _norm2(law.M0)

    def g(nu):
        # g is strictly increasing with g(0) = 1 - c < 0.
        e = -nu * h
        return nu * n0 + (math.inf if e > 709.0 else math.exp(e)) - c

    hi = c / max(n0, 1e-12) + abs(math.log(c)) / abs(h) + 1.0
    return _bisect(g, 0.0, hi, 1e-12)


def integro_rate(kernel: Kernel, c: float) -> float:
    """Largest nu1 in (0, nu0] with nu1 * (1 - L1(nu1))^-1 <= c.

    The kernel must pass the full admissibility checks (structure and the
    transform sign condition).
    """
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    kernel.require_admissible()
    report = check_kernel_conditions(kernel)
    if not report.passed:
        raise KernelAdmissibilityError("; ".join(report.problems()))

    def phi(nu):
        if nu == 0.0:
            return 0.0
        return nu / (1.0 - kernel_weighted_l1(kernel, nu))

    nu0 = kernel.nu0
    if phi(nu0) <= c:
        return nu0
    # phi is strictly increasing on (0, nu0], phi(0) = 0 < c.
    return _bisect(lambda nu: phi(nu) - c, 0.0, nu0, 1e-10)


@dataclass(frozen=True)
class KernelConditionReport:
    """Outcome of the three kernel admissibility conditions.

    Condition 3 is the sign requirement t * Im Chat(t + i nu0) <= 0 (as a
    Hermitian matrix inequality), checked on a log-spaced grid of t and, as
    corroborating evidence, along sampled lines Im z = -rho for
    rho in [-nu0, 5].
    """

    hermitian_defect: float
    commutation_defect: float
    sign_defect_base: float
    sign_defect_lines: float
    hermitian_ok: bool
    commuting_ok: bool
    sign_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.commuting_ok and self.sign_ok

    def problems(self) -> list:
        out = []
        if not self.hermitian_ok:
            out.append(f"modes not Hermitian (defect {self.hermitian_defect:.3g})")
        if not self.commuting_ok:
            out.append(f"modes not commuting (defect {self.commutation_defect:.3g})")
        if not self.sign_ok:
            defect = max(self.sign_defect_base, self.sign_defect_lines)
            out.append(f"transform sign condition violated (defect {defect:.3g})")
        return out


def _sign_defect(kernel: Kernel, rho: float, ts: np.ndarray) -> float:
    worst = -math.inf
    for t in ts:
        ch = kernel_hat(kernel, complex(t, -rho))
        im = (ch - ch.conj().T) / 2j
        worst = max(worst, float(np.linalg.eigvalsh(t * im)[-1]))
    return worst


def check_kernel_conditions(kernel: Kernel) -> KernelConditionReport:
    """Report the three admissibility conditions; failures are reported,
    never raised."""
    herm, comm = _mode_defects(kernel)

    pos = np.geomspace(1e-3, 1e3, 31)
    ts = np.concatenate([-pos[::-1], [0.0], pos])
    base = _sign_defect(kernel, -kernel.nu0, ts)
    lines = max(_sign_defect(kernel, rho, ts)
                for rho in np.linspace(-kernel.nu0, 5.0, 7))

    return KernelConditionReport(
        hermitian_defect=herm,
        commutation_defect=comm,
        sign_defect_base=base,
        sign_defect_lines=lines,
        hermitian_ok=herm <= STRUCT_TOL,
        commuting_ok=comm <= STRUCT_TOL,
        sign_ok=base <= SIGN_TOL and lines <= SIGN_TOL,
    )


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


def _check_analyticity(law: MaterialLaw, nu: float) -> HypothesisResult:
    if isinstance(law, DaeLaw):
        return HypothesisResult(True, "polynomial symbol, entire")
    if isinstance(law, DelayLaw):
        return HypothesisResult(True, "holomorphic away from 0, which lies in the excluded ball")
    if isinstance(law, IntegroLaw):
        nu0 = law.kernel.nu0
        if nu <= nu0 + 1e-15:
            return HypothesisResult(True, f"singular ball of kernel (nu0 = {nu0:.6g}) is contained in the excluded ball")
        return HypothesisResult(False, f"requested nu = {nu:.6g} exceeds kernel nu0 = {nu0:.6g}")
    if isinstance(law, CustomLaw):
        if not law.singularities:
            return HypothesisResult(True, "no declared singularities")
        for s in law.singularities:
            s = complex(s)
            if nu > 0:
                r = 1.0 / (2.0 * nu)
                if abs(s + r) > r + 1e-12:
                    return HypothesisResult(False, f"declared singularity {s} lies outside the excluded ball")
            elif s.real > 1e-12:
                return HypothesisResult(False, f"declared singularity {s} has positive real part")
        return HypothesisResult(True, "all declared singularities inside the excluded ball")
    raise TypeError(f"not a material law: {type(law)!r}")


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

    Raises ValueError when the family's structural requirements (positive
    Hermitian part, c > 1 for delays, kernel admissibility) fail.
    """
    if isinstance(law, DaeLaw):
        return dae_rate(law.M0, law.M1)
    if isinstance(law, DelayLaw):
        return delay_rate(law.M0, law.M1, law.h)
    if isinstance(law, IntegroLaw):
        return integro_rate(law.kernel, law.c)
    return None


def certify(law: MaterialLaw, nu: float, sampling: SamplingConfig | None = None) -> CertificationReport:
    """Run the three checks at the requested rate nu and assemble a report.

    Closed-form positivity bounds are authoritative for the structured
    families; sampling is the certificate for custom symbols.
    """
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    cfg = sampling or SamplingConfig()
    warnings = []

    analyticity = _check_analyticity(law, nu)
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
        if isinstance(law, IntegroLaw):
            warnings.append("no closed-form positivity bound at this nu; sampled evidence only")
    positivity = HypothesisResult(c_nu > 0 and not contradiction,
                                  f"c(nu) = {c_nu:.6g} via {certificate} route", c_nu)

    rate = None
    try:
        rate = closed_form_rate(law)
    except ValueError as exc:
        warnings.append(f"closed-form rate unavailable: {exc}")

    return CertificationReport(
        family=law_family(law),
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
