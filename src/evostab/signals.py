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

The calculus is spectral: :func:`derivative`, :func:`antiderivative` and
:func:`translate` each multiply the transform by one function of
``i*xi + rho`` (itself, its inverse, and ``exp((i*xi + rho)*h)``), as the
weighted time derivative becomes multiplication by ``i*xi + rho`` under the
Fourier-Laplace transform.  The test oracles check the last two against a
trapezoid sum and an index shift in the time domain.

The grid is circular, so weighted mass at the first or last sample leaks
across the ends under any transform-based operation; :func:`edge_mass`
measures it, and :mod:`evostab.solver` holds the wrap-around policy that
gates on it.

CSV I/O: :func:`signal_to_csv` writes the time column followed by
interleaved re/im columns with 17 significant digits, the exact bytes of
``np.savetxt(..., fmt="%.17g")``, but with the digits computed in numpy
rather than by Python's per-float ``%`` formatting; :func:`signal_from_csv`
reads them back with ``np.loadtxt`` and rebuilds the grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt with a power-of-two sample count, a
    finite start t0 and a finite step dt > 0: a nan fails every comparison,
    so the checks would otherwise pass it and every time would be nan."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive, got {self.dt}")
        n = self.n_steps
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_steps must be a power of two >= 8, got {n}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps)

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / (self.n_steps * self.dt)

    @property
    def frequencies(self) -> np.ndarray:
        """Centered frequency samples xi_j = dxi*(j - n/2)."""
        return self.dxi * (np.arange(self.n_steps) - self.n_steps // 2)


def _as_values(values, n_steps: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
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

    ``meta`` carries diagnostics (edge masses, residuals) attached by the
    solvers; it never influences equality or arithmetic.
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


@dataclass(frozen=True)
class SpectralSignal:
    """Frequency samples produced by :func:`fourier_laplace` at a fixed rho."""

    grid: TimeGrid
    rho: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n_steps))


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
    return SpectralSignal(grid, rho, vals)


def inverse_fourier_laplace(F: SpectralSignal) -> Signal:
    """Inverse of :func:`fourier_laplace`; uses the rho carried by ``F``."""
    grid = F.grid
    h = F.values * np.exp(1j * grid.frequencies * grid.t0)[:, None]
    g = np.fft.ifft(np.fft.ifftshift(h, axes=0), axis=0) * grid.n_steps
    vals = (grid.dxi / SQRT_2PI) * g * np.exp(F.rho * grid.times)[:, None]
    return Signal(grid, vals)


def _multiply(f: Signal, rho: float, mult: np.ndarray) -> Signal:
    """Inverse transform of mult(xi_j) * F(xi_j)."""
    F = fourier_laplace(f, rho)
    return inverse_fourier_laplace(SpectralSignal(f.grid, rho, mult[:, None] * F.values))


def derivative(f: Signal, rho: float) -> Signal:
    """Weighted time derivative: spectral multiplication by (i*xi + rho)."""
    return _multiply(f, rho, 1j * f.grid.frequencies + rho)


def antiderivative(f: Signal, rho: float) -> Signal:
    """Inverse of :func:`derivative` for rho != 0: spectral division by
    (i*xi + rho), that is integration from -infinity for rho > 0 and from
    +infinity for rho < 0, on the circular grid."""
    if rho == 0.0:
        raise ValueError("antiderivative is unbounded at rho = 0 (0 lies in the continuous spectrum)")
    return _multiply(f, rho, 1.0 / (1j * f.grid.frequencies + rho))


def translate(f: Signal, h: float, rho: float) -> Signal:
    """Time shift (translate(f))(t) = f(t + h) for h a nonpositive integer
    multiple of dt: spectral multiplication by exp((i*xi + rho)*h), an exact
    circular shift of the weighted samples.  h = 0 returns a copy."""
    dt = f.grid.dt
    if h > 1e-12 * dt:
        raise ValueError(f"only nonpositive shifts are supported, got h = {h}")
    m_real = -h / dt
    m = int(round(m_real))
    if abs(m_real - m) > 1e-9 * max(1.0, abs(m_real)):
        raise ValueError(f"shift h = {h} is not an integer multiple of dt = {dt}")
    if m == 0:
        return Signal(f.grid, f.values, meta=dict(f.meta))
    return _multiply(f, rho, np.exp((1j * f.grid.frequencies + rho) * h))


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
                   amplitude: float = 1.0) -> Signal:
    """Smooth bump amplitude*exp(-((t-center)/width)^2) in each of the ``dim``
    components; ``width`` must be positive and finite.  A pulse along a
    direction d is ``Signal(grid, gaussian_pulse(grid, center, width,
    dim=len(d)).values * d)``."""
    if not 0.0 < width < np.inf:
        raise ValueError(f"pulse width must be positive and finite, got {width!r}")
    env = amplitude * np.exp(-(((grid.times - center) / width) ** 2))
    return Signal(grid, env[:, None] * np.ones(dim, dtype=complex))


def step_exp(grid: TimeGrid, start: float = 0.0, rate: float = 1.0, dim: int = 1) -> Signal:
    """Causal decaying step exp(-rate*(t-start)) for t >= start, zero before,
    in each of the ``dim`` components."""
    t = grid.times
    env = np.where(t >= start, np.exp(-rate * (t - start)), 0.0)
    return Signal(grid, env[:, None] * np.ones(dim, dtype=complex))


# ``'%.17g' % x`` in numpy.  A normal x != 0 is written from D, the integer
# nearest to |x| * 10^(16-k) where k = floor(log10|x|), that is its 17
# significant digits, and from the decimal exponent X = k of the rounded
# value (k + 1 when D rounds up to 10^17).  10^(16-k) = 5^j * 2^j with
# j = 16 - k: |x| * 2^j is exact for every normal x, and 5^j is held as a
# double-double hi + lo (hi Dekker-split), so TwoProduct gives |x| * 10^j as
# p + t to about 4e-15 with p integer-valued (p >= 10^16 > 2^53).
_CSV_BLOCK = 1 << 15  # cells formatted at a time; bounds the transients to a few MB
_J0, _J1 = -300, 330  # the range of j = 16 - k over every normal |x|, with margin


def _split(x):
    """Dekker's split x = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _pow5_table():
    """5^j for j in [_J0, _J1] as (hi split, lo), hi and lo correctly rounded."""
    hi, lo = [], []
    for j in range(_J0, _J1 + 1):
        a, b = (5 ** j, 1) if j >= 0 else (1, 5 ** -j)
        h = a / b
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((a * den - num * b) / (b * den))
    return (*_split(np.array(hi)), np.array(lo))


_P5_HH, _P5_HL, _P5_LO = _pow5_table()
# "0000" .. "9999" as 4 bytes each, and the number of trailing '0's of each.
_QUAD_BYTES = np.empty((10, 10, 10, 10, 4), np.uint8)
for _i in range(4):
    _QUAD_BYTES[..., _i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - _i))
_QUAD_BYTES = _QUAD_BYTES.reshape(10000, 4)
_QUADS = _QUAD_BYTES.view(np.uint32).ravel()
_QUAD_TZ = np.zeros(10000, np.int64)
for _i in (10, 100, 1000, 10000):
    _QUAD_TZ[::_i] += 1
# "e-330" .. "e+330" at row exponent + _EXP_OFF; below 100 the hundreds digit
# is a 0, so "e+05" keeps two digits as in %.17g.
_EXP_OFF = 330
_EXPONENT = np.frombuffer(b"".join(b"e%+04d" % e for e in range(-_EXP_OFF, _EXP_OFF + 1)),
                          np.uint8).reshape(-1, 5).copy()
_EXPONENT[np.abs(np.arange(-_EXP_OFF, _EXP_OFF + 1)) < 100, 2] = 0
# Row 2*last + fixed zeroes the columns after ``last`` up to 18 in a
# scientific cell (the exponent stays) or up to 23 in a fixed one.
_COL = np.arange(25)
_KEEP = np.where((_COL > np.arange(24)[:, None, None])
                 & (_COL <= np.array([18, 23])[:, None]), 0, 255).astype(np.uint8).reshape(48, 25)
_LEAD = np.frombuffer(b"0.000", np.uint8)


def _floor_frac(a, k):
    """Floor and fractional part of a * 10^(16-k): the floor exact and the
    fraction to about 4e-15 where the product lies in [2^53, 2^63), which
    holds for k within one of floor(log10 a) unless it is one too large;
    then the product is below 10^16 and so is the floor, if one low."""
    j = (16 - k).astype(np.int32)
    x = np.ldexp(a, j)
    xh, xl = _split(x)
    j -= _J0
    hh, hl = _P5_HH.take(j), _P5_HL.take(j)
    p = x * (hh + hl)
    t = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * _P5_LO.take(j)
    ft = np.floor(t)
    return p.astype(np.int64) + ft.astype(np.int64), t - ft


def _g17_cells(v, ncols: int) -> bytes:
    """``'%.17g' % x`` of every float in the flat C-order block ``v`` of whole
    rows of ``ncols``, the cells joined by commas and each row ended by a
    newline.

    Each cell is laid out in a row of a (n, 25) byte matrix, first in
    scientific form, then in fixed form for -4 <= X <= 16; every byte that
    ``%.17g`` drops (an absent sign, trailing zero digits, a point with no
    fraction, a hundreds digit of the exponent below 100) is a 0, and the
    cells are the matrix's nonzero bytes (the separator column holds the
    comma or the newline).  Subnormals, non-finite values and
    |frac - 1/2| <= 1e-6 (an exact tie such as 1 + 2**-17 rounds half to
    even, which the ~4e-15 error above cannot decide) go to Python's own
    ``%``.
    """
    n = v.size
    a = np.abs(v)
    zero = a == 0.0
    fallback = ~zero & ~((a >= np.finfo(float).tiny) & (a <= np.finfo(float).max))
    a = np.where(zero | fallback, 1.0, a)
    k = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _floor_frac(a, k)
    # log10 can miss by one next to a power of ten.  Judge k on the exact
    # floor, not on the rounded p: 9.9999999999999998e-266 is not 1e-265.
    # One step corrects; the second pass only confirms.
    for _ in range(2):
        off = (D >= 10 ** 17).astype(np.int64) - (D < 10 ** 16)
        bad = np.flatnonzero(off)
        if not bad.size:
            break
        k[bad] += off[bad]
        D[bad], frac[bad] = _floor_frac(a[bad], k[bad])
    fallback |= np.abs(frac - 0.5) <= 1e-6
    D += frac > 0.5
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    D[zero] = 0
    k[zero] = 0
    digits = []  # d0, then four groups of four digits
    for s in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
        digits.append(D // s)
        D = D - digits[-1] * s
    digits.append(D)
    tz = np.zeros(n, np.int64)  # trailing zero digits of D
    run = np.ones(n, bool)
    for g in digits[:0:-1]:
        tz += run * _QUAD_TZ.take(g)
        run &= g == 0
    tz += run & (digits[0] == 0)

    B = np.empty((n, 25), np.uint8)
    B[:, 0] = np.signbit(v) * np.uint8(45)
    B[:, 1] = digits[0] + 48
    B[:, 2] = 46
    B[:, 3:19] = _QUADS.take(np.stack(digits[1:], axis=1)).view(np.uint8)
    B[:, 19:24] = _EXPONENT.take(k + _EXP_OFF, axis=0)
    B[:, 24] = 44
    B[ncols - 1::ncols, 24] = 10
    last = 18 - tz  # the column of the last fraction digit kept
    last[last < 3] = 1  # no fraction digit left: drop the point too
    fixed = (k >= -4) & (k <= 16)
    fx = np.flatnonzero(fixed)
    kx = k[fx]
    for X in np.unique(kx):
        rows = fx[kx == X]
        if X > 0:  # d0..dX, point, fraction
            B[rows, 2:X + 2] = B[rows, 3:X + 3]
            B[rows, X + 2] = 46
            last[rows] = np.where(last[rows] >= X + 3, last[rows], X + 1)
        elif X < 0:  # 0.000d0d1...
            B[rows, 3 - X:19 - X] = B[rows, 3:19]
            B[rows, 2 - X] = B[rows, 1]
            B[rows, 1:2 - X] = _LEAD[:1 - X]
            last[rows] = 18 - X - tz[rows]
    B &= _KEEP.take(2 * last + fixed, axis=0)
    for i in np.flatnonzero(fallback):
        B[i, :24] = np.frombuffer((b"%.17g" % v[i]).ljust(24, b"\0"), np.uint8)
    return B.tobytes().translate(None, b"\0")


def signal_to_csv(f: Signal, path) -> None:
    """Write ``t,re_0,im_0,...`` rows with 17 significant digits.

    The file is byte for byte what ``np.savetxt(path, rows, fmt="%.17g",
    delimiter=",", header=..., comments="")`` writes: each float is
    ``'%.17g' % x``.  The digits are computed in numpy; a subnormal, a
    non-finite value or a value within 1e-6 of a decimal tie in its 17th
    digit is formatted by Python's ``%`` instead.
    """
    header = "t," + ",".join(f"re_{i},im_{i}" for i in range(f.dim))
    rows = np.column_stack([f.grid.times, f.values.view(float)])
    step = max(1, _CSV_BLOCK // rows.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.encode("latin1") + b"\n")
        for r in range(0, f.grid.n_steps, step):
            fh.write(_g17_cells(np.ravel(rows[r:r + step]), rows.shape[1]))


def _times_close(times: np.ndarray, ref: np.ndarray) -> bool:
    """True when two time columns have one length and agree within
    1e-9 * max(1, max |ref|), the tolerance of :func:`signal_from_csv`."""
    return (times.shape == ref.shape
            and np.max(np.abs(times - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref))))


def signal_from_csv(path) -> Signal:
    """Read a signal written by :func:`signal_to_csv`, rebuilding its grid.

    A file with fewer than two data rows is refused with a ValueError, and
    numpy's warning that a header-only file holds no data is silenced."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    n = t.size
    if n < 2:
        raise ValueError("need at least two samples to reconstruct a grid")
    dt = t[1] - t[0]
    grid = TimeGrid(float(t[0]), float(dt), n)
    if not _times_close(grid.times, t):
        raise ValueError("CSV time column is not a uniform grid")
    pairs = data[:, 1:]
    if pairs.shape[1] % 2 != 0:
        raise ValueError("expected re/im column pairs after the time column")
    vals = pairs[:, 0::2] + 1j * pairs[:, 1::2]
    return Signal(grid, vals)
