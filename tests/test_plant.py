import itertools

import numpy as np
import pytest

from sentinel.linalg import NONZERO_ABS, NONZERO_REL
from sentinel.plant import (
    ContinuousStateSpace,
    StateSpace,
    discretize_zoh,
    is_controllable,
    is_observable,
    load_state_space,
    msd_benchmark,
    random_test_system,
    relative_degree,
    save_state_space,
    simulate,
    spectral_radius,
)

from oracles import ArxModel, extended_state_space, reference_simulate, ss_to_arx


def benchmark_dt(scale_c=1.0):
    css = msd_benchmark()
    if scale_c != 1.0:
        css = ContinuousStateSpace(css.A, css.B, css.C * scale_c)
    return discretize_zoh(css, 1.3)


def fine_step_zoh(css, ts, splits=14):
    """Independent discretization oracle: order-4 small-step matrices
    composed by step doubling, no matrix exponential involved."""
    h = ts / (2 ** splits)
    a_c, b_c = np.asarray(css.A), np.asarray(css.B)
    n = a_c.shape[0]
    a = np.eye(n)
    term = np.eye(n)
    bsum = np.zeros_like(a)
    for k in range(1, 5):
        bsum = bsum + term * h / k  # integral of the series, term by term
        term = term @ (a_c * h) / k
        a = a + term
    b = bsum @ b_c
    for _ in range(splits):
        b = a @ b + b
        a = a @ a
    return a, b


def arx_recursion_residual(arx: ArxModel, z, u):
    """Naive double-loop evaluation of the lag-n recursion."""
    n = arx.order
    worst = 0.0
    for k in range(n, z.shape[1]):
        pred = np.zeros(arx.output_dim)
        for i in range(n):
            pred = pred + arx.out_coeffs[i] @ z[:, k - n + i]
            pred = pred + arx.in_coeffs[i] @ u[:, k - n + i]
        worst = max(worst, float(np.max(np.abs(z[:, k] - pred))))
    return worst


class TestDiscretizeZoh:
    def test_integrator(self):
        css = ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]])
        ss = discretize_zoh(css, 2.0)
        np.testing.assert_allclose(ss.A, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(ss.B, [[2.0]], atol=1e-13)

    def test_scalar_decay(self):
        css = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]])
        ss = discretize_zoh(css, 1.0)
        np.testing.assert_allclose(ss.A, [[np.exp(-1.0)]], rtol=1e-12)
        np.testing.assert_allclose(ss.B, [[1.0 - np.exp(-1.0)]], rtol=1e-12)

    def test_benchmark_against_fine_step_oracle(self):
        css = msd_benchmark()
        ss = discretize_zoh(css, 1.3)
        a_ref, b_ref = fine_step_zoh(css, 1.3)
        assert np.max(np.abs(ss.A - a_ref)) < 1e-9
        assert np.max(np.abs(ss.B - b_ref)) < 1e-9

    def test_rejects_nonpositive_ts(self):
        with pytest.raises(ValueError):
            discretize_zoh(msd_benchmark(), 0.0)


class TestSimulate:
    def test_frozen_dynamics(self):
        ss = StateSpace(np.eye(2), np.zeros((2, 1)), np.eye(2))
        states, _ = simulate(ss, [1.0, 0.0], np.zeros((1, 5)))
        for k in range(6):
            np.testing.assert_array_equal(states[:, k], [1.0, 0.0])

    def test_equilibrium_outputs_zero(self):
        ss = benchmark_dt()
        _, outputs = simulate(ss, np.zeros(6), np.zeros((1, 10)))
        assert np.all(outputs == 0.0)

    def test_scalar_hand_recursion(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        states, outputs = simulate(ss, [0.0], [[1.0, 0.0]])
        np.testing.assert_allclose(outputs, [[0.0, 1.0]])
        np.testing.assert_allclose(states[:, 2], [0.5])

    def test_dimension_checks(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            simulate(ss, [0.0, 0.0], [[1.0]])
        with pytest.raises(ValueError):
            simulate(ss, [0.0], np.ones((2, 3)))

    def test_complex_input_rejected(self):
        # a cast to float would drop the imaginary parts and simulate on
        with pytest.raises(ValueError, match="A must be real"):
            StateSpace([[0.5 + 1j]], [[1.0]], [[1.0]])
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="u must be real"):
            simulate(ss, [0.0], np.array([[1.0, 2j]]))
        with pytest.raises(ValueError, match="x0 must be real"):
            simulate(ss, np.array([1j]), [[1.0]])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_column_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, m, n_sensors = int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(2, 8))
        ss = random_test_system(rng, n, m, n_sensors, 1)
        x0 = rng.uniform(-1.0, 1.0, n)
        u = rng.uniform(-1.0, 1.0, (m, int(rng.integers(1, 200))))
        for got, want in zip(simulate(ss, x0, u), reference_simulate(ss, x0, u)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRelativeDegree:
    def test_direct_coupling_gives_one(self):
        ss = StateSpace([[0.5]], [[1.0]], [[2.0]])
        assert relative_degree(ss, 1) == 1

    def test_benchmark_scaled_outputs(self):
        ss = benchmark_dt(0.1)
        assert [relative_degree(ss, j) for j in (1, 2, 3)] == [1, 2, 1]

    def test_benchmark_unscaled_matches(self):
        ss = benchmark_dt()
        assert [relative_degree(ss, j) for j in (1, 2, 3)] == [1, 2, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        ss = benchmark_dt()
        for _ in range(10):
            scale = float(rng.uniform(0.01, 100.0))
            scaled = StateSpace(ss.A, ss.B, np.asarray(ss.C) * scale)
            for j in (1, 2, 3):
                assert relative_degree(scaled, j) == relative_degree(ss, j)

    def test_silent_sensor_returns_none(self):
        ss = StateSpace(np.eye(2) * 0.5, [[1.0], [0.0]], [[0.0, 1.0]])
        assert relative_degree(ss, 1) is None

    def test_multi_input_rejected(self):
        ss = StateSpace(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            relative_degree(ss, 1)


class TestStructuralChecks:
    def test_unobservable_pair(self):
        assert not is_observable(np.eye(2), [[1.0, 0.0]])

    def test_chain_observable_from_head(self):
        assert is_observable([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])

    def test_benchmark_two_sensor_observable(self):
        ss = benchmark_dt()
        for combo in itertools.combinations(range(3), 2):
            assert is_observable(ss.A, np.asarray(ss.C)[list(combo)])

    def test_controllable_cases(self):
        assert is_controllable(np.zeros((2, 2)), np.eye(2))
        assert not is_controllable(np.eye(2), np.zeros((2, 1)))
        ss = benchmark_dt()
        assert is_controllable(ss.A, ss.B)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError, match="^C_sub column count must equal the state "
                                             "dimension$"):
            is_observable(np.eye(2), [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^B row count must equal the state dimension$"):
            is_controllable(np.eye(2), np.ones((3, 1)))


class TestBenchmarkBuilder:
    def test_parameter_entries(self):
        css = msd_benchmark()
        a, b, c = np.asarray(css.A), np.asarray(css.B), np.asarray(css.C)
        assert a[1, 0] == -2.0  # -k1/m1
        assert b[1, 0] == 1.0   # 1/m1
        np.testing.assert_array_equal(c[0], [0, 0, 1, 0, 0, 0])
        assert a.shape == (6, 6) and b.shape == (6, 1) and c.shape == (3, 6)


class TestArx:
    def test_scalar_system(self):
        ss = StateSpace([[0.7]], [[2.0]], [[3.0]])
        arx = ss_to_arx(ss)
        np.testing.assert_allclose(arx.out_coeffs[0], [[0.7]])
        np.testing.assert_allclose(arx.in_coeffs[0], [[6.0]])

    def test_nilpotent_trivial(self):
        # A = 0: no output feedback, newest input coefficient is C @ B
        rng = np.random.default_rng(2)
        b = rng.uniform(-1, 1, (3, 1))
        c = rng.uniform(-1, 1, (1, 3))
        # A = 0 is not observable from one row for n=3, so use the
        # recursion directly through a 1-state version plus a 3-state check
        # with distinct diagonal instead; the all-zero coefficient claim is
        # exercised with n = 1.
        ss = StateSpace([[0.0]], [[1.5]], [[2.0]])
        arx = ss_to_arx(ss)
        np.testing.assert_allclose(arx.out_coeffs[0], [[0.0]], atol=1e-15)
        np.testing.assert_allclose(arx.in_coeffs[0], [[3.0]])

    def test_benchmark_subset_recursion(self):
        ss = benchmark_dt()
        sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[[0, 1]])
        arx = ss_to_arx(sub)
        u = np.random.default_rng(17).uniform(-1, 1, (1, 60))
        _, z = simulate(sub, np.zeros(6), u)
        residual = arx_recursion_residual(arx, z, u)
        assert residual < 1e-8 * (1 + np.max(np.abs(z)))

    def test_unobservable_rejected(self):
        ss = StateSpace(np.eye(2) * 0.5, [[1.0], [1.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            ss_to_arx(ss)

    def test_random_systems_recursion(self):
        for i in range(20):
            rng = np.random.default_rng([41, i])
            n = int(rng.integers(1, 5))
            ss = random_test_system(rng, n, 1, 2, 2)
            sub = StateSpace(ss.A, ss.B, np.asarray(ss.C))
            arx = ss_to_arx(sub)
            u = rng.uniform(-1, 1, (1, 60))
            _, z = simulate(sub, np.zeros(n), u)
            assert arx_recursion_residual(arx, z, u) < 1e-8 * (1 + np.max(np.abs(z)))


class TestExtendedStateSpace:
    def test_smallest_instance(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        ext = extended_state_space(ss_to_arx(ss))
        np.testing.assert_allclose(ext.A_ext, [[0.5, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(ext.B_ext, [[0.0], [1.0]])

    def test_zero_recursion_is_pure_shift(self):
        n, q, m = 3, 2, 1
        zeros_q = tuple(np.zeros((q, q)) for _ in range(n))
        zeros_m = tuple(np.zeros((q, m)) for _ in range(n))
        ext = extended_state_space(ArxModel(n, q, m, zeros_q, zeros_m))
        a = ext.A_ext
        # output-history shifts
        for i in range(n - 1):
            np.testing.assert_array_equal(a[i * q:(i + 1) * q, (i + 1) * q:(i + 2) * q],
                                          np.eye(q))
        # newest-output row all zero
        assert np.all(a[(n - 1) * q: n * q, :] == 0.0)
        # input-history shifts and input feed
        for i in range(n - 1):
            np.testing.assert_array_equal(
                a[n * q + i * m: n * q + (i + 1) * m,
                  n * q + (i + 1) * m: n * q + (i + 2) * m], np.eye(m))
        assert np.all(ext.B_ext[:-m] == 0.0)
        np.testing.assert_array_equal(ext.B_ext[-m:], np.eye(m))

    @staticmethod
    def stacked_history(z, u, n, k):
        return np.concatenate([z[:, k - n: k].T.reshape(-1), u[:, k - n: k].T.reshape(-1)])

    def test_benchmark_subset_trajectory_match(self):
        ss = benchmark_dt()
        sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[[0, 1]])
        ext = extended_state_space(ss_to_arx(sub))
        u = np.random.default_rng(23).uniform(-1, 1, (1, 50))
        _, z = simulate(sub, np.zeros(6), u)
        n = 6
        for k in range(n, 49):
            current = self.stacked_history(z, u, n, k)
            advanced = ext.A_ext @ current + ext.B_ext @ u[:, k]
            expected = self.stacked_history(z, u, n, k + 1)
            assert np.max(np.abs(advanced - expected)) < 1e-9

    def test_random_systems_trajectory_match(self):
        for i in range(20):
            rng = np.random.default_rng([59, i])
            n = int(rng.integers(1, 5))
            ss = random_test_system(rng, n, 1, 3, 2)
            sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[[0, 1]])
            ext = extended_state_space(ss_to_arx(sub))
            u = rng.uniform(-1, 1, (1, 40))
            _, z = simulate(sub, np.zeros(n), u)
            worst = 0.0
            for k in range(n, 39):
                advanced = ext.A_ext @ self.stacked_history(z, u, n, k) + ext.B_ext @ u[:, k]
                worst = max(worst, float(np.max(np.abs(
                    advanced - self.stacked_history(z, u, n, k + 1)))))
            assert worst < 1e-8 * (1 + np.max(np.abs(z)))


class TestImpulseTiming:
    def test_first_nonzero_output_at_relative_degree(self):
        ss = benchmark_dt(0.1)
        u = np.zeros((1, 20))
        u[0, 0] = 0.1
        _, y = simulate(ss, np.zeros(6), u)
        for j in (1, 2, 3):
            r = relative_degree(ss, j)
            row = np.abs(y[j - 1])
            threshold = max(NONZERO_ABS, NONZERO_REL * row[1:].max())
            assert np.all(row[:r] <= threshold)
            assert row[r] > threshold


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        ss = benchmark_dt()
        path = tmp_path / "plant.json"
        save_state_space(ss, path)
        loaded = load_state_space(path)
        np.testing.assert_array_equal(loaded.A, ss.A)
        np.testing.assert_array_equal(loaded.B, ss.B)
        np.testing.assert_array_equal(loaded.C, ss.C)

    @pytest.mark.parametrize("field", ["n", "m", "N"])
    def test_string_integer_field_rejected(self, tmp_path, field):
        import json
        path = tmp_path / "plant.json"
        payload = {"n": 1, "m": 1, "N": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}
        payload[field] = "1"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="plant file has a field of the wrong type: "
                                             "'1' is not an integer"):
            load_state_space(path)

    @pytest.mark.parametrize("content, kind", [
        ("[]", "list"), ("123", "number"), ("null", "null"), ('"x"', "string"),
    ], ids=["empty-list", "number", "null", "string"])
    def test_file_not_an_object_rejected(self, tmp_path, content, kind):
        path = tmp_path / "plant.json"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^plant file holds a JSON {kind}, not an object$"):
            load_state_space(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        payload = {"n": 2, "m": 1, "N": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"^plant file field n=2 disagrees with matrix "
                                             r"shapes \(1\)$"):
            load_state_space(path)

    def test_missing_matrix_rejected(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "N": 1, "B": [[1.0]], "C": [[1.0]]}))
        with pytest.raises(ValueError, match="^plant file has no field 'A'$"):
            load_state_space(path)


class TestRandomTestSystem:
    def test_properties_and_determinism(self):
        ss1 = random_test_system(np.random.default_rng(77), 4, 1, 3, 2)
        ss2 = random_test_system(np.random.default_rng(77), 4, 1, 3, 2)
        np.testing.assert_array_equal(ss1.A, ss2.A)
        assert spectral_radius(ss1.A) <= 0.95 + 1e-12
        assert is_controllable(ss1.A, ss1.B)
        for combo in itertools.combinations(range(3), 2):
            assert is_observable(ss1.A, np.asarray(ss1.C)[list(combo)])
