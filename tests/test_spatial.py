import numpy as np
import pytest

from evostab import (SpatialOperator, build_grad_1d, build_mixed_type_system,
                     hermitian_part_min_eig, indicators_from_intervals)


class TestGrad1d:
    def test_p2_exact(self):
        g, d = build_grad_1d(2, 1.0)
        assert np.array_equal(g, np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))
        assert np.array_equal(d, -g.T)

    def test_block_is_skew(self):
        p = 7
        g, d = build_grad_1d(p, 1.0 / (p + 1))
        n = 2 * p + 1
        a = np.zeros((n, n))
        a[:p, p:] = d
        a[p:, :p] = g
        assert np.abs(a + a.T).max() <= 1e-13

    def test_sine_derivative_second_order_at_midpoints(self):
        errs = []
        for p in (32, 64):
            dx = 1.0 / (p + 1)
            g, _ = build_grad_1d(p, dx)
            nodes = np.arange(1, p + 1) * dx
            mids = (np.arange(p + 1) + 0.5) * dx
            got = g @ np.sin(np.pi * nodes)
            errs.append(np.abs(got - np.pi * np.cos(np.pi * mids)).max())
            assert errs[-1] <= dx  # comfortably first order at least
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_guards(self):
        with pytest.raises(ValueError):
            build_grad_1d(0, 0.5)
        with pytest.raises(ValueError):
            build_grad_1d(3, 0.0)


class TestMonotone:
    def test_values(self):
        assert hermitian_part_min_eig(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-15)
        skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert hermitian_part_min_eig(skew) == pytest.approx(0.0, abs=1e-13)
        assert hermitian_part_min_eig(np.eye(2) + skew) == pytest.approx(1.0)

    def test_operator_accepts_and_records_margin(self):
        SpatialOperator(np.eye(2))  # the Hermitian part's minimum is 1
        assert SpatialOperator.zeros(4).dim == 4

    def test_operator_rejects_negative(self):
        with pytest.raises(ValueError):
            SpatialOperator(-np.eye(2))


class TestMixedTypeSystem:
    def test_all_wave_region(self):
        p = 5
        sys = build_mixed_type_system(p, 1.0 / (p + 1), np.ones(p), np.zeros(p), 1.0)
        assert np.array_equal(sys.M0, np.eye(2 * p + 1))
        assert np.array_equal(sys.M1, np.eye(2 * p + 1))

    def test_edge_rule(self):
        # an edge keeps its derivative only when both neighbours are wave
        # nodes; boundary edges follow their single neighbour
        p = 4
        ind0 = np.array([1.0, 1.0, 0.0, 0.0])
        ind1 = np.array([0.0, 0.0, 1.0, 0.0])
        sys = build_mixed_type_system(p, 0.2, ind0, ind1, 1.0)
        diag = np.diag(sys.M0)
        assert np.array_equal(diag[:p], [1, 1, 1, 0])  # nodes: ind0 + ind1
        assert np.array_equal(diag[p:], [1, 1, 0, 0, 0])

    def test_block_structure(self):
        p = 6
        sys = build_mixed_type_system(p, 1.0 / (p + 1), np.ones(p), np.zeros(p), 0.5)
        a = sys.A.matrix
        assert np.abs(a + a.conj().T).max() <= 1e-13
        assert np.all(a[:p, :p] == 0)
        assert np.all(a[p:, p:] == 0)
        assert sys.M0.shape[0] == 2 * p + 1
        law = sys.law()
        assert law.M0.shape == (sys.M0.shape[0], sys.M0.shape[0])

    def test_guards(self):
        p = 4
        with pytest.raises(ValueError):
            build_mixed_type_system(p, 0.2, np.ones(p), np.ones(p), 1.0)  # overlap
        with pytest.raises(ValueError):
            build_mixed_type_system(p, 0.2, 0.5 * np.ones(p), np.zeros(p), 1.0)
        with pytest.raises(ValueError):
            build_mixed_type_system(p, 0.2, np.ones(3), np.zeros(p), 1.0)
        with pytest.raises(ValueError):
            build_mixed_type_system(p, 0.2, np.ones(p), np.zeros(p), 0.0)

    def test_indicators_from_thirds(self):
        p = 48
        ind0, ind1 = indicators_from_intervals(p, (0.0, 1 / 3), (1 / 3, 2 / 3))
        assert ind0.sum() == 16
        assert ind1.sum() == 16
        assert np.all(ind0 * ind1 == 0)
        # first third occupies the leading nodes
        assert np.all(ind0[:16] == 1) and np.all(ind0[16:] == 0)

    def test_random_blocks_stay_skew(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = int(rng.integers(2, 30))
            sys = build_mixed_type_system(
                p, 1.0 / (p + 1),
                (rng.random(p) < 0.4).astype(float),
                np.zeros(p), 1.0)
            assert hermitian_part_min_eig(sys.A.matrix) >= -1e-13
