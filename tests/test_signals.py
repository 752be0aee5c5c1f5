import math

import numpy as np
import pytest
from _oracles import index_translate, trapezoid_antiderivative
from hypothesis import given, settings
from hypothesis import strategies as st

from evostab import signals
from evostab import (GridMismatchError, Signal, TimeGrid, antiderivative,
                     derivative, edge_mass, fourier_laplace, gaussian_pulse,
                     inverse_fourier_laplace, signal_from_csv, signal_to_csv,
                     step_exp, support_lower_bound, translate, weighted_inner,
                     weighted_norm)


def random_signal(grid, dim, rng):
    vals = rng.standard_normal((grid.n_steps, dim)) + 1j * rng.standard_normal((grid.n_steps, dim))
    return Signal(grid, vals)


class TestTimeGrid:
    def test_basic_fields(self):
        g = TimeGrid(-1.0, 0.25, 16)
        assert g.times[0] == -1.0
        assert g.times[-1] == pytest.approx(-1.0 + 15 * 0.25)
        # dt * dxi * n = 2 pi exactly up to rounding
        assert g.dt * g.dxi * g.n_steps == pytest.approx(2 * np.pi, rel=1e-15)

    def test_frequencies_centered(self):
        g = TimeGrid(0.0, 0.5, 8)
        xi = g.frequencies
        assert xi[len(xi) // 2] == 0.0
        assert np.all(np.diff(xi) > 0)

    @pytest.mark.parametrize("n", [0, 6, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, n)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(0.0, -0.5, 16)


class TestWeightedInner:
    def test_constant_one_riemann_sum(self):
        # grid covering [0,1) with dt=1/8: the rho=0 inner product is sum dt = 1
        g = TimeGrid(0.0, 1 / 8, 8)
        f = Signal(g, np.ones((8, 1)))
        assert weighted_inner(f, f, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_pointwise_orthogonal(self):
        g = TimeGrid(0.0, 1 / 8, 8)
        f = Signal(g, np.tile([1.0, 0.0], (8, 1)))
        h = Signal(g, np.tile([0.0, 1.0], (8, 1)))
        assert weighted_inner(f, h, 0.3) == 0.0

    def test_exponential_weight_cancels(self):
        g = TimeGrid(-1.0, 1 / 256, 1024)
        t = g.times
        vals = np.where((t >= 0) & (t < 1), np.exp(t), 0.0)[:, None]
        f = Signal(g, vals)
        assert weighted_inner(f, f, 1.0) == pytest.approx(1.0, abs=1e-2)

    def test_conjugate_linear_first_argument(self):
        g = TimeGrid(0.0, 0.1, 16)
        rng = np.random.default_rng(7)
        f, h = random_signal(g, 2, rng), random_signal(g, 2, rng)
        lhs = weighted_inner(1j * f, h, 0.5)
        assert lhs == pytest.approx(-1j * weighted_inner(f, h, 0.5), abs=1e-12)
        assert weighted_inner(f, 1j * h, 0.5) == pytest.approx(
            1j * weighted_inner(f, h, 0.5), abs=1e-12)


class TestWeightedNorm:
    def test_zero_signal(self):
        g = TimeGrid(0.0, 1 / 16, 128)
        assert [weighted_norm(Signal.zeros(g, 2), mu) for mu in (-1.0, 0.0, 1.0)] == [0.0] * 3

    def test_decaying_exponential_integral(self):
        # |e^{-t}|_{mu=-0.5}^2 = integral of e^{-2t} e^{t} over t >= 0 = 1;
        # jump at 0 sampled mid-cell so the Riemann sum is midpoint-accurate
        dt = 1 / 64
        g = TimeGrid(dt / 2 - 1.0, dt, 1024)
        u = Signal(g, np.where(g.times >= 0, np.exp(-g.times), 0.0)[:, None])
        assert weighted_norm(u, -0.5) == pytest.approx(1.0, abs=1e-3)

    def test_stable_under_grid_doubling(self):
        dt = 1 / 64
        norms = []
        for n in (1024, 2048):
            g = TimeGrid(dt / 2 - 1.0, dt, n)
            u = Signal(g, np.where(g.times >= 0, np.exp(-g.times), 0.0)[:, None])
            norms.append(weighted_norm(u, -0.5))
        assert abs(norms[1] - norms[0]) < 1e-3


class TestTransformPair:
    def test_zero_maps_to_zero(self):
        g = TimeGrid(0.0, 0.1, 32)
        F = fourier_laplace(Signal.zeros(g, 2), 0.5)
        assert np.all(F.values == 0)
        assert np.all(inverse_fourier_laplace(F).values == 0)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, 0.5, 2.0])
    def test_roundtrip_and_plancherel(self, rho):
        # short span keeps the weight's dynamic range ~e^4, so the discrete
        # pair stays unitary to machine precision
        g = TimeGrid(-1.0, 1 / 128, 256)
        rng = np.random.default_rng(42)
        for _ in range(10):
            f = random_signal(g, 3, rng)
            F = fourier_laplace(f, rho)
            back = inverse_fourier_laplace(F)
            scale = np.abs(f.values).max()
            assert np.abs(back.values - f.values).max() <= 1e-12 * scale
            spectral = np.sum(np.abs(F.values) ** 2) * g.dxi
            direct = weighted_inner(f, f, rho).real
            assert spectral == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(t0=st.floats(-50.0, 50.0), dt=st.floats(1e-3, 1.0), k=st.integers(3, 10),
           rho_frac=st.floats(-1.0, 1.0), dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_and_plancherel_on_random_grids(self, t0, dt, k, rho_frac, dim, seed):
        # |rho * t| <= 50 keeps exp(-+2 rho t) and the squared errors of the
        # roundtrip far from overflow; both checks are in the weighted norm,
        # the one the pair is unitary in
        g = TimeGrid(t0, dt, 2 ** k)
        rho = rho_frac * min(1.0, 50.0 / np.abs(g.times).max())
        f = random_signal(g, dim, np.random.default_rng(seed))
        F = fourier_laplace(f, rho)
        norm = weighted_norm(f, rho)
        assert weighted_norm(inverse_fourier_laplace(F) - f, rho) <= 1e-12 * norm
        assert np.sum(np.abs(F.values) ** 2) * g.dxi == pytest.approx(norm ** 2, rel=1e-12)

    def test_pulse_recovered(self):
        g = TimeGrid(-4.0, 1 / 64, 512)
        f = gaussian_pulse(g, center=0.0, width=0.3)
        back = inverse_fourier_laplace(fourier_laplace(f, 1.0))
        assert np.abs(back.values - f.values).max() <= 1e-12

    def test_composition_other_order(self):
        g = TimeGrid(-1.0, 0.1, 64)
        rng = np.random.default_rng(3)
        F = fourier_laplace(random_signal(g, 1, rng), 0.7)
        again = fourier_laplace(inverse_fourier_laplace(F), 0.7)
        assert np.abs(again.values - F.values).max() <= 1e-12 * np.abs(F.values).max()


class TestDerivative:
    def test_exponential_eigenfunction(self):
        # e^{rho t} c0 has a one-bin weighted spectrum, so the derivative is
        # exactly rho * f on the grid
        g = TimeGrid(-1.0, 1 / 32, 128)
        rho = 0.8
        vals = np.exp(rho * g.times)[:, None] * np.array([[1.0, -2.0]])
        f = Signal(g, vals)
        df = derivative(f, rho)
        assert np.abs(df.values - rho * vals).max() <= 1e-8 * np.abs(vals).max()

    def test_gaussian_matches_analytic(self):
        g = TimeGrid(-8.0, 1 / 64, 1024)
        c, w = 0.0, 0.5
        f = gaussian_pulse(g, center=c, width=w)
        df = derivative(f, 1.0)
        t = g.times
        expected = (-2 * (t - c) / w ** 2)[:, None] * f.values
        inner = slice(64, -64)
        assert np.abs(df.values[inner] - expected[inner]).max() <= 1e-6

    def test_inverse_of_antiderivative(self):
        g = TimeGrid(-2.0, 1 / 32, 128)
        f = gaussian_pulse(g, center=0.0, width=0.3)
        back = derivative(antiderivative(f, 1.5), 1.5)
        assert np.abs(back.values - f.values).max() <= 1e-10


class TestAntiderivative:
    def test_indicator_ramp(self):
        # jumps sit mid-cell so the sampled step aliases benignly
        dt = 1 / 128
        g = TimeGrid(dt / 2 - 2, dt, 1024)
        t = g.times
        vals = ((t >= 0) & (t < 1)).astype(float)[:, None]
        F = antiderivative(Signal(g, vals), 1.0)
        ramp = np.minimum(np.maximum(t, 0.0), 1.0)[:, None]
        assert np.abs(F.values - ramp).max() <= 1e-3

    def test_two_modes_agree(self):
        g = TimeGrid(-4.0, 1 / 64, 1024)
        f = gaussian_pulse(g, center=0.0, width=0.3)
        a = antiderivative(f, 1.0)
        b = trapezoid_antiderivative(f)
        assert np.abs(a.values - b.values).max() <= 1e-3

    def test_zero(self):
        g = TimeGrid(0.0, 0.1, 16)
        assert np.all(antiderivative(Signal.zeros(g, 1), 1.0).values == 0)

    def test_rho_zero_rejected(self):
        g = TimeGrid(0.0, 0.1, 16)
        f = Signal(g, np.ones((16, 1)))
        with pytest.raises(ValueError):
            antiderivative(f, 0.0)


class TestTranslate:
    def test_h_zero_identity(self):
        g = TimeGrid(-1.0, 0.125, 64)
        rng = np.random.default_rng(11)
        f = random_signal(g, 2, rng)
        assert np.abs(translate(f, 0.0, 0.5).values - f.values).max() <= 1e-13

    @pytest.mark.parametrize("rho", [0.25, 1.0])
    def test_spectral_equals_index(self, rho):
        g = TimeGrid(-1.0, 0.125, 64)
        rng = np.random.default_rng(12)
        for m in (1, 3, 17):
            f = random_signal(g, 2, rng)
            a = translate(f, -m * g.dt, rho)
            b = index_translate(f, -m * g.dt, rho)
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_delta_pulse_shifts(self):
        g = TimeGrid(0.0, 0.25, 32)
        vals = np.zeros((32, 1))
        vals[0, 0] = 1.0
        out = translate(Signal(g, vals), -3 * g.dt, 1.0)
        assert np.argmax(np.abs(out.values[:, 0])) == 3

    def test_operator_norm_factor(self):
        # |translate(f, h)|_rho = e^{rho h} |f|_rho for the circular shift
        g = TimeGrid(-2.0, 0.0625, 128)
        rng = np.random.default_rng(13)
        f = random_signal(g, 1, rng)
        rho, h = 0.7, -4 * g.dt
        ratio = weighted_norm(translate(f, h, rho), rho) / weighted_norm(f, rho)
        assert ratio == pytest.approx(np.exp(rho * h), rel=1e-10)

    def test_off_grid_shift_rejected(self):
        g = TimeGrid(0.0, 0.25, 32)
        f = Signal(g, np.ones((32, 1)))
        with pytest.raises(ValueError):
            translate(f, -0.3, 1.0)


class TestSupportAndEdges:
    def test_spike_location(self):
        g = TimeGrid(0.0, 0.25, 32)
        vals = np.zeros((32, 1))
        vals[8, 0] = 1.0  # t = 2.0
        assert support_lower_bound(Signal(g, vals), 1e-8) == pytest.approx(2.0)

    def test_zero_signal_has_no_support(self):
        g = TimeGrid(0.0, 0.25, 32)
        assert support_lower_bound(Signal.zeros(g, 1), 1e-8) is None

    def test_noise_below_floor_ignored(self):
        g = TimeGrid(0.0, 1 / 16, 64)
        t = g.times
        vals = (((t >= 1) & (t < 2)).astype(float) + 1e-15)[:, None]
        assert support_lower_bound(Signal(g, vals), 1e-8) == pytest.approx(1.0)

    def test_floor_at_the_peak_has_no_support(self):
        # no sample exceeds the peak itself
        f = gaussian_pulse(TimeGrid(-1.0, 0.125, 16), center=0.0, width=0.3)
        assert support_lower_bound(f, 1.0) is None

    def test_edge_mass_of_interior_pulse_is_small(self):
        g = TimeGrid(-4.0, 1 / 32, 256)
        f = gaussian_pulse(g, center=0.0, width=0.2)
        assert edge_mass(f, 0.5) < 1e-10


class TestSignalBasics:
    def test_algebra(self):
        g = TimeGrid(0.0, 0.1, 16)
        rng = np.random.default_rng(5)
        f, h = random_signal(g, 2, rng), random_signal(g, 2, rng)
        s = 2.0 * f + h - f
        assert np.allclose(s.values, f.values + h.values)

    def test_grid_mismatch_rejected(self):
        f = Signal(TimeGrid(0.0, 0.1, 16), np.ones((16, 1)))
        h = Signal(TimeGrid(0.0, 0.2, 16), np.ones((16, 1)))
        with pytest.raises(GridMismatchError):
            f + h

    def test_values_read_only(self):
        g = TimeGrid(0.0, 0.1, 16)
        f = Signal(g, np.ones((16, 1)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 3.0

    def test_non_finite_rejected(self):
        g = TimeGrid(0.0, 0.1, 16)
        bad = np.ones((16, 1))
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Signal(g, bad)

    def test_csv_roundtrip(self, tmp_path):
        g = TimeGrid(-1.0, 0.125, 64)
        rng = np.random.default_rng(9)
        f = random_signal(g, 3, rng)
        path = tmp_path / "sig.csv"
        signal_to_csv(f, path)
        back = signal_from_csv(path)
        assert back.grid == g
        assert np.abs(back.values - f.values).max() <= 1e-15

    def test_csv_exact_text(self, tmp_path):
        g = TimeGrid(-0.5, 0.25, 8)
        re = np.array([[-0.0, 1 / 3], [1.0, 0.1], [0.0, 1e22], [2.5, -1.0],
                       [1e-5, 0.0], [0.0, 0.0], [-1e22, 1.0], [0.0, 0.5]])
        im = np.array([[1e-300, 1e22], [-1.0, -0.0], [1 / 3, 0.0], [0.0, 0.0],
                       [0.0, 1e-300], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]])
        vals = np.empty((8, 2), dtype=complex)
        vals.real, vals.imag = re, im
        path = tmp_path / "sig.csv"
        signal_to_csv(Signal(g, vals), path)
        assert path.read_bytes().decode("ascii") == (
            "t,re_0,im_0,re_1,im_1\n"
            "-0.5,-0,1e-300,0.33333333333333331,1e+22\n"
            "-0.25,1,-1,0.10000000000000001,-0\n"
            "0,0,0.33333333333333331,1e+22,0\n"
            "0.25,2.5,0,-1,0\n"
            "0.5,1.0000000000000001e-05,0,0,1e-300\n"
            "0.75,0,0,0,0\n"
            "1,-1e+22,0,1,0\n"
            "1.25,0,0.25,0.5,0\n")

    def test_step_exp_values(self):
        g = TimeGrid(-1.0, 0.25, 16)
        f = step_exp(g, start=0.0, rate=2.0)
        t = g.times
        expected = np.where(t >= 0, np.exp(-2.0 * t), 0.0)[:, None]
        assert np.allclose(f.values, expected)

    @pytest.mark.parametrize("width", [0.0, -0.1, np.inf, np.nan])
    def test_gaussian_pulse_refuses_width_not_positive_and_finite(self, width):
        # width 0 gave 0/0 on a grid point and a zero pulse off it, and a
        # negative width was silently used as |width|
        with pytest.raises(ValueError, match="pulse width must be positive and finite"):
            gaussian_pulse(TimeGrid(-1.0, 0.125, 16), 0.51, width)


_GRID8 = TimeGrid(0.0, 0.5, 8)


@pytest.mark.parametrize("call, refusal", [
    (lambda path: Signal(_GRID8, np.ones(8)), r"shape \(n_steps, dim\), got \(8,\)"),
    (lambda path: Signal(_GRID8, np.ones((8, 1, 1))), r"shape \(n_steps, dim\), got \(8, 1, 1\)"),
    (lambda path: Signal(_GRID8, np.ones((4, 1))), r"shape \(n_steps, dim\), got \(4, 1\)"),
    (lambda path: translate(Signal.zeros(_GRID8), 0.5, 0.1),
     "only nonpositive shifts are supported, got h = 0.5"),
    (lambda path: support_lower_bound(Signal.zeros(_GRID8), 0.0), "floor must be positive"),
    (lambda path: TimeGrid(np.nan, 0.5, 8), "t0 must be finite, got nan"),
    (lambda path: TimeGrid(0.0, np.inf, 8), "dt must be positive, got inf"),
], ids=["1d-values", "3d-values", "short-values", "positive-shift", "zero-floor", "nan-t0",
        "inf-dt"])
def test_refusals(tmp_path, call, refusal):
    # values are (n_steps, dim) with no promotion of a 1-D column, shifts
    # look back, support floors are relative and positive, and a grid's start
    # and step are finite
    with pytest.raises(ValueError, match=refusal):
        call(tmp_path)


# --- the %.17g CSV writer --------------------------------------------------

def _bits(b: int) -> float:
    return float(np.uint64(b).view(np.float64))


def _power_of_ten_neighbour(k: int, step: int) -> float:
    """10^k, or the float one ulp above (step 1) or below (step -1) it."""
    x = float(f"1e{k}")
    return float(np.nextafter(x, step * math.inf)) if step else x


def _decimal_tie(k: int, i: int) -> float:
    """M * 2^(k-17) for an odd M whose exact decimal M * 5^(17-k) has 18
    digits ending in 5: a tie at 17 significant digits."""
    five = 5 ** (17 - k)
    lo = -(-10 ** 17 // five) | 1
    hi = min((10 ** 18 - 1) // five, 2 ** 53 - 1)
    return float(lo + 2 * (i % ((hi - lo) // 2 + 1))) * 2.0 ** (k - 17)


_G17_FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits).filter(math.isfinite),
    st.sampled_from([0.0, -0.0]),
    st.integers(1, 2 ** 52 - 1).map(lambda m: m * 5e-324),  # subnormals
    st.builds(_power_of_ten_neighbour, st.integers(-323, 308), st.sampled_from([-1, 0, 1])),
    st.builds(_decimal_tie, st.integers(0, 15), st.integers(0, 2 ** 60)),
).flatmap(lambda x: st.sampled_from([x, -x]))


class TestCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_G17_FLOATS, min_size=1, max_size=40))
    def test_cells_match_percent_format(self, xs):
        text = signals._g17_cells(np.array(xs), len(xs))
        assert text == (",".join("%.17g" % x for x in xs) + "\n").encode()

    def test_fallback_row(self):
        # a subnormal and two exact ties (half to even: down, then up) sit in
        # one row with cells the numpy digits handle
        row = np.array([5e-324, 1 + 2 ** -17, 0.1, 1 + 3 * 2 ** -17, -2.5e-300])
        assert signals._g17_cells(np.concatenate([row, row[::-1]]), 5) == (
            b"4.9406564584124654e-324,1.0000076293945312,0.10000000000000001,"
            b"1.0000228881835938,-2.5e-300\n"
            b"-2.5e-300,1.0000228881835938,0.10000000000000001,"
            b"1.0000076293945312,4.9406564584124654e-324\n")

    def test_signal_longer_than_a_block_matches_savetxt(self, tmp_path):
        g = TimeGrid(-3.0, 2.0 ** -10, 8192)
        assert g.n_steps > signals._CSV_BLOCK // 5  # two re/im pairs and t
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((g.n_steps, 2)) * 10.0 ** rng.integers(-25, 25, (g.n_steps, 2))
        vals = vals + 1j * np.where(rng.random((g.n_steps, 2)) < 0.1, 0.0, vals[::-1])
        f = Signal(g, vals)
        signal_to_csv(f, tmp_path / "new.csv")
        np.savetxt(tmp_path / "old.csv", np.column_stack([g.times, f.values.view(float)]),
                   fmt="%.17g", delimiter=",", header="t,re_0,im_0,re_1,im_1", comments="")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
