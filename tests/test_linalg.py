import numpy as np
import pytest

from sentinel.linalg import (
    NONZERO_ABS,
    Tolerance,
    as_integer,
    as_matrix,
    as_vector,
    first_nonzero,
    matrix_exponential,
    numerical_rank,
)
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
        assert tol.residual > 0

    @pytest.mark.parametrize("field", ["rank_rel", "residual"])
    def test_rejects_nonpositive(self, field):
        # an infinite slack would clear every step and an infinite rank
        # cutoff would read every matrix as rank 0
        for value in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                Tolerance(**{field: value})


class TestAsVectorAndMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_at_every_position(self, bad):
        for position in range(4):
            v = np.arange(4.0)
            v[position] = bad
            with pytest.raises(ValueError, match="^v contains non-finite entries$"):
                as_vector(v, 4, "v")
            m = np.arange(8.0).reshape(2, 4)
            m.flat[2 * position + 1] = bad
            with pytest.raises(ValueError, match="^m contains non-finite entries$"):
                as_matrix(m, "m")

    def test_largest_finite_values_accepted(self):
        # a finiteness test built on a sum or on squares would overflow here
        huge = [1e308, -1e308, 1e308, np.finfo(float).max]
        np.testing.assert_array_equal(as_vector(huge, 4), huge)
        np.testing.assert_array_equal(as_matrix([huge, huge[::-1]]), [huge, huge[::-1]])

    def test_shape_errors_have_their_own_messages(self):
        with pytest.raises(ValueError, match="^v must have length 3, got 2$"):
            as_vector([1.0, 2.0], 3, "v")
        with pytest.raises(ValueError, match="^v must have length 3, got 0$"):
            as_vector([], 3, "v")
        with pytest.raises(ValueError, match=r"^m must be 2-D, got shape \(3,\)$"):
            as_matrix([1.0, 2.0, 3.0], "m")
        with pytest.raises(ValueError, match=r"^m must be 2-D, got shape \(1, 1, 2\)$"):
            as_matrix([[[1.0, 2.0]]], "m")
        with pytest.raises(ValueError, match="^m must be nonempty$"):
            as_matrix(np.zeros((0, 3)), "m")

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3)])
    def test_vector_accepts_any_shape_of_dim_entries(self, shape):
        v = as_vector(np.array([1.0, -2.0, 3.5]).reshape(shape), 3)
        assert v.shape == (3,) and v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, -2.0, 3.5])

    def test_real_inputs_of_other_types_become_float64(self):
        assert as_vector([1, 2, 3], 3).dtype == np.float64
        np.testing.assert_array_equal(as_vector(np.array([1, 2], dtype=np.float32), 2), [1, 2])
        assert as_matrix([[True, False]]).dtype == np.float64

    @pytest.mark.parametrize("values", [np.array([1 + 2j, 2, 3]), [1 + 2j, 2, 3],
                                        np.array([1, 2, 3], dtype=np.complex64)])
    def test_complex_input_rejected(self, values):
        # a cast to float would keep [1, 2, 3] and drop the imaginary part
        with pytest.raises(ValueError, match="^v must be real, got complex dtype"):
            as_vector(values, 3, "v")
        with pytest.raises(ValueError, match="^m must be real, got complex dtype"):
            as_matrix(np.asarray(values).reshape(1, 3), "m")


class TestAsInteger:
    @pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (-2, -2)])
    def test_integers_and_integral_floats(self, value, expected):
        assert as_integer(value) == expected and type(as_integer(value)) is int

    @pytest.mark.parametrize("value", ["3", "-2", "", 1.5, True, None, [3], float("nan")])
    def test_everything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="is not an integer"):
            as_integer(value)


class TestFirstNonzero:
    def test_relative_cutoff_is_scale_invariant(self):
        values = np.array([0.0, 0.009, 0.011, 1.0])
        for scale in (1e-6, 1.0, 1e6, -3.0):
            assert first_nonzero(scale * values) == 2

    def test_absolute_floor(self):
        assert first_nonzero([0.0, 0.9 * NONZERO_ABS, 2 * NONZERO_ABS]) == 2
        assert first_nonzero([0.5 * NONZERO_ABS, 0.9 * NONZERO_ABS]) is None

    def test_all_zero_is_none(self):
        assert first_nonzero(np.zeros(8)) is None
        assert first_nonzero([]) is None


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
