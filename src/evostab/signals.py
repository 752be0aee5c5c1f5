"""Exponentially weighted signals on uniform time grids.

The continuous model is the Hilbert space of ``C^n``-valued functions on the
real line that are square integrable against ``exp(-2*rho*t) dt``; the inner
product is conjugate linear in the *first* argument.  On a finite uniform
grid the weighted transform pair below is exactly unitary, so Plancherel,
roundtrip and derivative/antiderivative inversion hold to rounding error.

Grid and transform conventions::

    t_k  = t0 + k*dt,                 k = 0 .. n-1   (n a power of two)
    xi_j = 2*pi*(j - n/2) / (n*dt),   j = 0 .. n-1

    forward:  F(xi_j) = dt/sqrt(2*pi)  * sum_k exp(-i xi_j t_k) exp(-rho t_k) f(t_k)
    inverse:  f(t_k)  = exp(rho t_k) * dxi/sqrt(2*pi) * sum_j exp(i xi_j t_k) F(xi_j)

Both sums are evaluated by FFT with phase corrections for ``t0`` and the
centered frequency grid.

Wrap-around policy: the grid is circular, so weighted mass at the first or
last sample leaks across the ends under any transform-based operation.  Every
such operation records the edge-mass ratio in the result's ``meta`` dict.
The solvers gate the *forcing*: they escalate to
:class:`~evostab.errors.EdgeMassError` above ``EDGE_FAIL`` and warn above
``EDGE_WARN``.  When the forcing passes, they gate the *solution* too: it warns
above ``EDGE_FAIL`` and is refused above ``SOLUTION_EDGE_FAIL``, so a solution
that has not decayed inside the grid no longer passes silently.  When the
forcing already warned, the solution's edge mass, which then carries the
response to the forcing's, is only recorded (``meta['edge_mass_solution']``).

CSV I/O is the ``np.savetxt`` / ``np.loadtxt`` pair: :func:`signal_to_csv`
writes the time column followed by interleaved re/im columns with 17
significant digits, and :func:`signal_from_csv` reads them back and rebuilds
the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

SQRT_2PI = np.sqrt(2.0 * np.pi)

# Edge-mass thresholds: warn / refuse-to-solve.
EDGE_WARN = 1e-8
EDGE_FAIL = 1e-3
# A solution warns above EDGE_FAIL and is refused above this: its edges also
# hold the ringing of a forcing that jumps next to the grid start (up to 0.26
# on the short test grids), while a weighted solution that keeps half its
# peak at the edges has not decayed inside the grid.
SOLUTION_EDGE_FAIL = 0.5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt with a power-of-two sample count."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        n = self.n_steps
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_steps must be a power of two >= 8, got {n}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps)

    @property
    def span(self) -> float:
        return self.dt * self.n_steps

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / (self.n_steps * self.dt)

    @property
    def frequencies(self) -> np.ndarray:
        """Centered frequency samples xi_j = dxi*(j - n/2)."""
        return self.dxi * (np.arange(self.n_steps) - self.n_steps // 2)


def _as_values(values, n_steps: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != n_steps:
        raise ValueError(f"values must have shape (n_steps, dim), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("signal values must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class Signal:
    """Grid samples of a C^dim-valued function of time.

    ``meta`` carries diagnostics (edge masses, residuals) attached by
    operations; it never influences equality or arithmetic.
    """

    grid: TimeGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n_steps))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def magnitudes(self) -> np.ndarray:
        """Pointwise Euclidean norm over the state dimension."""
        return np.linalg.norm(self.values, axis=1)

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int = 1) -> "Signal":
        return cls(grid, np.zeros((grid.n_steps, dim), dtype=complex))

    def _check_compatible(self, other: "Signal"):
        if self.grid != other.grid or self.dim != other.dim:
            raise GridMismatchError("signals live on different grids or dimensions")

    def __add__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        return Signal(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return Signal(self.grid, -self.values)


@dataclass(frozen=True)
class SpectralSignal:
    """Frequency samples produced by :func:`fourier_laplace` at a fixed rho."""

    grid: TimeGrid
    rho: float
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n_steps))

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def weighted_inner(f: Signal, g: Signal, rho: float) -> complex:
    """Discrete weighted inner product sum_k <f(t_k)|g(t_k)> exp(-2 rho t_k) dt.

    Conjugate linear in ``f``, linear in ``g``.
    """
    f._check_compatible(g)
    w = np.exp(-2.0 * rho * f.grid.times)
    return complex(np.sum(np.conj(f.values) * g.values * w[:, None]) * f.grid.dt)


def weighted_norm(f: Signal, rho: float) -> float:
    w = np.exp(-2.0 * rho * f.grid.times)
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2 * w[:, None]) * f.grid.dt))


def edge_mass(f: Signal, rho: float) -> float:
    """Ratio of the weighted magnitude at the first/last sample to its max.

    Zero signals return 0.  Values near 1 mean the weighted signal has not
    decayed inside the grid and circular wrap-around will corrupt transforms.
    """
    g = np.linalg.norm(f.values, axis=1) * np.exp(-rho * f.grid.times)
    peak = g.max()
    if peak == 0.0:
        return 0.0
    return float(max(g[0], g[-1]) / peak)


def fourier_laplace(f: Signal, rho: float) -> SpectralSignal:
    """Weighted Fourier transform of ``f`` evaluated on the centered xi grid."""
    grid = f.grid
    g = f.values * np.exp(-rho * grid.times)[:, None]
    spec = np.fft.fftshift(np.fft.fft(g, axis=0), axes=0)
    phase = np.exp(-1j * grid.frequencies * grid.t0)
    vals = (grid.dt / SQRT_2PI) * phase[:, None] * spec
    return SpectralSignal(grid, rho, vals, meta={"edge_mass": edge_mass(f, rho)})


def inverse_fourier_laplace(F: SpectralSignal, rho: float | None = None) -> Signal:
    """Inverse of :func:`fourier_laplace`; uses the rho carried by ``F``."""
    if rho is not None and rho != F.rho:
        raise ValueError(f"rho mismatch: signal carries {F.rho}, got {rho}")
    grid = F.grid
    h = F.values * np.exp(1j * grid.frequencies * grid.t0)[:, None]
    g = np.fft.ifft(np.fft.ifftshift(h, axes=0), axis=0) * grid.n_steps
    vals = (grid.dxi / SQRT_2PI) * g * np.exp(F.rho * grid.times)[:, None]
    return Signal(grid, vals, meta=dict(F.meta))


def derivative(f: Signal, rho: float) -> Signal:
    """Weighted time derivative: spectral multiplication by (i*xi + rho)."""
    F = fourier_laplace(f, rho)
    mult = 1j * f.grid.frequencies + rho
    return inverse_fourier_laplace(SpectralSignal(f.grid, rho, mult[:, None] * F.values, meta=dict(F.meta)))


def antiderivative(f: Signal, rho: float, mode: str = "spectral") -> Signal:
    """Inverse of :func:`derivative` for rho != 0.

    ``mode="spectral"`` divides by (i*xi + rho).  ``mode="time_domain"``
    (rho > 0 only) integrates cumulatively from the left grid edge with the
    trapezoid rule, a valid stand-in for integration from -infinity when the
    signal vanishes near t0.  The two agree to quadrature accuracy and serve
    as mutual checks.
    """
    if rho == 0.0:
        raise ValueError("antiderivative is unbounded at rho = 0 (0 lies in the continuous spectrum)")
    if mode == "spectral":
        F = fourier_laplace(f, rho)
        mult = 1.0 / (1j * f.grid.frequencies + rho)
        return inverse_fourier_laplace(SpectralSignal(f.grid, rho, mult[:, None] * F.values, meta=dict(F.meta)))
    if mode == "time_domain":
        if rho <= 0:
            raise ValueError("time_domain mode implements forward integration and needs rho > 0")
        v = f.values
        seg = 0.5 * (v[1:] + v[:-1]) * f.grid.dt
        out = np.zeros_like(v)
        np.cumsum(seg, axis=0, out=out[1:])
        return Signal(f.grid, out)
    raise ValueError(f"unknown mode {mode!r}")


def translate(f: Signal, h: float, rho: float, mode: str = "spectral") -> Signal:
    """Time shift (translate(f))(t) = f(t + h) for h a nonpositive integer
    multiple of dt.

    ``mode="index"`` circularly shifts the weighted samples and re-weights;
    ``mode="spectral"`` multiplies the transform by exp((i*xi + rho)*h).
    Both are exact circular operations and agree to rounding.
    """
    dt = f.grid.dt
    if h > 1e-12 * dt:
        raise ValueError(f"only nonpositive shifts are supported, got h = {h}")
    m_real = -h / dt
    m = int(round(m_real))
    if abs(m_real - m) > 1e-9 * max(1.0, abs(m_real)):
        raise ValueError(f"shift h = {h} is not an integer multiple of dt = {dt}")
    if m == 0:
        return Signal(f.grid, f.values, meta=dict(f.meta))
    if mode == "index":
        g = f.values * np.exp(-rho * f.grid.times)[:, None]
        g = np.roll(g, m, axis=0)
        out = g * (np.exp(rho * f.grid.times) * np.exp(rho * h))[:, None]
        return Signal(f.grid, out)
    if mode == "spectral":
        F = fourier_laplace(f, rho)
        mult = np.exp((1j * f.grid.frequencies + rho) * h)
        return inverse_fourier_laplace(SpectralSignal(f.grid, rho, mult[:, None] * F.values, meta=dict(F.meta)))
    raise ValueError(f"unknown mode {mode!r}")


def support_lower_bound(f: Signal, floor: float) -> float | None:
    """Earliest grid time where |f| exceeds ``floor`` relative to its peak.

    Returns None for the zero signal.
    """
    if not floor > 0:
        raise ValueError("floor must be positive")
    mags = f.magnitudes()
    peak = mags.max()
    if peak == 0.0:
        return None
    idx = np.nonzero(mags > floor * peak)[0]
    if idx.size == 0:
        return None
    return float(f.grid.times[idx[0]])


def gaussian_pulse(grid: TimeGrid, center: float, width: float, dim: int = 1,
                   amplitude: float = 1.0, direction=None) -> Signal:
    """Smooth bump amplitude*exp(-((t-center)/width)^2) along ``direction``
    (all-ones by default)."""
    if direction is None:
        direction = np.ones(dim)
    direction = np.asarray(direction, dtype=complex).reshape(-1)
    env = amplitude * np.exp(-(((grid.times - center) / width) ** 2))
    return Signal(grid, env[:, None] * direction[None, :])


def step_exp(grid: TimeGrid, start: float = 0.0, rate: float = 1.0, dim: int = 1,
             direction=None) -> Signal:
    """Causal decaying step: exp(-rate*(t-start)) for t >= start, zero before."""
    if direction is None:
        direction = np.ones(dim)
    direction = np.asarray(direction, dtype=complex).reshape(-1)
    t = grid.times
    env = np.where(t >= start, np.exp(-rate * (t - start)), 0.0)
    return Signal(grid, env[:, None] * direction[None, :])


def signal_to_csv(f: Signal, path) -> None:
    """Write ``t,re_0,im_0,...`` rows with 17 significant digits."""
    header = "t," + ",".join(f"re_{i},im_{i}" for i in range(f.dim))
    np.savetxt(path, np.column_stack([f.grid.times, f.values.view(float)]),
               fmt="%.17g", delimiter=",", header=header, comments="")


def signal_from_csv(path) -> Signal:
    """Read a signal written by :func:`signal_to_csv`, rebuilding its grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    n = t.size
    if n < 2:
        raise ValueError("need at least two samples to reconstruct a grid")
    dt = t[1] - t[0]
    grid = TimeGrid(float(t[0]), float(dt), n)
    if np.max(np.abs(grid.times - t)) > 1e-9 * max(1.0, np.max(np.abs(t))):
        raise ValueError("CSV time column is not a uniform grid")
    pairs = data[:, 1:]
    if pairs.shape[1] % 2 != 0:
        raise ValueError("expected re/im column pairs after the time column")
    vals = pairs[:, 0::2] + 1j * pairs[:, 1::2]
    return Signal(grid, vals)
