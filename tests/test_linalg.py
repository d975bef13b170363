import numpy as np
import pytest

from sentinel.linalg import Tolerance, matrix_exponential, numerical_rank
from sentinel.plant import msd_benchmark

from oracles import characteristic_polynomial


def taylor_expm(m, terms=60):
    """Independent oracle: plain order-`terms` series, no scaling."""
    n = m.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


class TestTolerance:
    def test_defaults_positive(self):
        tol = Tolerance()
        assert tol.rank_rel == 1e-11
        assert tol.residual_abs > 0 and tol.residual_rel > 0
        assert tol.nonzero_abs > 0 and tol.nonzero_rel > 0

    @pytest.mark.parametrize("field", ["rank_rel", "residual_abs", "residual_rel",
                                       "nonzero_abs", "nonzero_rel"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerance(**{field: 0.0})


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 4))) == 0

    def test_proportional_rows(self):
        assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerical_rank([[1.0, np.nan]])

    def test_row_permutation_and_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.uniform(-1, 1, (rng.integers(2, 6), rng.integers(2, 6)))
            r = numerical_rank(m)
            perm = rng.permutation(m.shape[0])
            assert numerical_rank(m[perm]) == r
            scale = rng.uniform(0.1, 10.0) * (1 if rng.uniform() < 0.5 else -1)
            assert numerical_rank(scale * m) == r


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_logs(self):
        e = matrix_exponential(np.diag([np.log(2.0), np.log(3.0)]))
        np.testing.assert_allclose(e, np.diag([2.0, 3.0]), rtol=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.ones((2, 3)))

    def test_benchmark_against_series_oracle(self):
        a = msd_benchmark().A * 1.3
        ours = matrix_exponential(a)
        oracle = taylor_expm(a, terms=60)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ours - oracle)) < 1e-12 * scale

    def test_inverse_pairing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.uniform(-1, 1, (4, 4))
            prod = matrix_exponential(m) @ matrix_exponential(-m)
            assert np.max(np.abs(prod - np.eye(4))) < 1e-10


class TestCharacteristicPolynomial:
    def test_scalar(self):
        np.testing.assert_allclose(characteristic_polynomial([[0.5]]), [-0.5])

    def test_identity_2x2(self):
        # (x - 1)^2 = x^2 - 2x + 1
        np.testing.assert_allclose(characteristic_polynomial(np.eye(2)), [1.0, -2.0])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            characteristic_polynomial(np.ones((2, 3)))

    @staticmethod
    def cayley_hamilton_residual(a):
        n = a.shape[0]
        coeffs = characteristic_polynomial(a)
        acc = np.linalg.matrix_power(a, n)
        for i in range(n):
            acc = acc + coeffs[i] * np.linalg.matrix_power(a, i)
        return np.max(np.abs(acc))

    def test_benchmark_cayley_hamilton(self):
        from sentinel.plant import discretize_zoh
        a = np.asarray(discretize_zoh(msd_benchmark(), 1.3).A)
        bound = 1e-8 * np.max(np.abs(a)) ** a.shape[0]
        assert self.cayley_hamilton_residual(a) < max(bound, 1e-14)

    def test_cayley_hamilton_on_seeded_matrices(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1, 1, (n, n))
            bound = 1e-8 * max(np.max(np.abs(a)), 1e-2) ** n
            assert self.cayley_hamilton_residual(a) < bound
