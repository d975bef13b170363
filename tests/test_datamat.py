import numpy as np
import pytest

from sentinel.attacks import SensorSubset, enumerate_subsets
from sentinel.datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    WindowError,
    build_subset_matrices,
    excitation_rank,
    generate_pe_input,
    hankel,
    is_persistently_exciting,
    load_trajectory,
    save_trajectory,
    stack_history,
)
from sentinel.plant import discretize_zoh, msd_benchmark, simulate


def naive_hankel(sig, start, depth, cols):
    """Double-loop oracle for the block-Hankel layout."""
    sig = np.asarray(sig, dtype=float)
    d = sig.shape[0]
    out = np.zeros((d * depth, cols))
    for r in range(depth):
        for c in range(cols):
            out[r * d:(r + 1) * d, c] = sig[:, start + r + c]
    return out


def benchmark_run(seed=7, length=48):
    ss = discretize_zoh(msd_benchmark(), 1.3)
    u = np.random.default_rng(seed).uniform(-1, 1, (1, length))
    _, y = simulate(ss, np.zeros(6), u)
    return Trajectory(u, y)


class TestHankel:
    def test_scalar_definition_unrolled(self):
        h = hankel([[1.0, 2.0, 3.0, 4.0]], 0, 2, 3)
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4]])

    def test_depth_one_is_column_slice(self):
        sig = np.arange(10.0).reshape(2, 5)
        np.testing.assert_array_equal(hankel(sig, 1, 1, 3), sig[:, 1:4])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        sig = rng.uniform(-1, 1, (2, 8))
        np.testing.assert_array_equal(hankel(sig, 1, 2, 2), naive_hankel(sig, 1, 2, 2))
        np.testing.assert_array_equal(hankel(sig, 0, 3, 5), naive_hankel(sig, 0, 3, 5))

    def test_out_of_range_window(self):
        with pytest.raises(WindowError) as err:
            hankel([[1.0, 2.0, 3.0]], 1, 2, 3)
        assert "[1, 4]" in str(err.value)

    def test_block_row_consistency(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(-1, 1, (2, 20))
        depth = 4
        cols = 20 - depth + 1
        h = hankel(u, 0, depth, cols)
        for r in range(depth):
            np.testing.assert_array_equal(h[r * 2:(r + 1) * 2], u[:, r: r + cols])


class TestPersistencyOfExcitation:
    def test_constant_signal_fails_order_two(self):
        assert not is_persistently_exciting(np.ones((1, 30)), 2)

    def test_zero_signal_fails(self):
        assert not is_persistently_exciting(np.zeros((1, 30)), 1)

    def test_seeded_signal_passes(self):
        u = np.random.default_rng(4).uniform(-1, 1, (1, 50))
        assert is_persistently_exciting(u, 5)

    def test_excitation_rank_counts_hankel_rank(self):
        assert excitation_rank(np.ones((1, 30)), 2) == 1
        assert excitation_rank(np.zeros((1, 30)), 3) == 0
        assert excitation_rank(np.random.default_rng(4).uniform(-1, 1, (2, 50)), 5) == 10
        with pytest.raises(WindowError):
            excitation_rank(np.ones((1, 3)), 4)

    def test_monotonic_in_order(self):
        for i in range(10):
            rng = np.random.default_rng([33, i])
            m = int(rng.integers(1, 3))
            u = rng.uniform(-1, 1, (m, 40))
            top = int(rng.integers(2, 8))
            if is_persistently_exciting(u, top):
                for lower in range(1, top):
                    assert is_persistently_exciting(u, lower)


class TestGeneratePEInput:
    def test_benchmark_order(self):
        sig = generate_pe_input(1, 41, 19, 7)
        assert sig.u.shape == (1, 41)
        assert is_persistently_exciting(sig.u, 19)

    def test_deterministic(self):
        a = generate_pe_input(1, 41, 19, 7)
        b = generate_pe_input(1, 41, 19, 7)
        np.testing.assert_array_equal(a.u, b.u)
        assert a.seed == b.seed

    def test_single_sample_order_one(self):
        sig = generate_pe_input(1, 1, 1, 3)
        assert is_persistently_exciting(sig.u, 1)

    def test_infeasible_length(self):
        with pytest.raises(ExcitationError):
            generate_pe_input(1, 10, 19, 0)

    def test_records_order(self):
        sig = generate_pe_input(2, 30, 4, 11)
        assert sig.order == 4 and sig.u.shape == (2, 30)


class TestBuildSubsetMatrices:
    def test_tiny_example_unrolled(self):
        traj = Trajectory([[10.0, 11.0, 12.0]], [[1.0, 2.0, 3.0]])
        subset = SensorSubset(1, (1,))
        mats = build_subset_matrices(traj, subset, 1, 2)
        np.testing.assert_array_equal(mats.u_now, [[11.0, 12.0]])
        np.testing.assert_array_equal(mats.states, [[1.0, 2.0], [10.0, 11.0]])
        np.testing.assert_array_equal(mats.states_next, [[2.0, 3.0], [11.0, 12.0]])

    def test_shift_invariant(self):
        traj = benchmark_run()
        subset = enumerate_subsets(3, 1)[0]
        mats = build_subset_matrices(traj, subset, 6, 41)
        np.testing.assert_array_equal(mats.states_next[:, :-1], mats.states[:, 1:])

    def test_benchmark_dimensions(self):
        traj = benchmark_run()
        for subset in enumerate_subsets(3, 1):
            mats = build_subset_matrices(traj, subset, 6, 41)
            assert mats.u_now.shape == (1, 41)
            assert mats.states.shape == (18, 41)
            assert mats.states_next.shape == (18, 41)

    def test_too_short_raises_with_minimum(self):
        traj = Trajectory([[1.0, 2.0]], [[1.0, 2.0]])
        with pytest.raises(TrajectoryLengthError) as err:
            build_subset_matrices(traj, SensorSubset(1, (1,)), 1, 2)
        assert err.value.required == 3

    def test_matches_stack_history(self):
        traj = benchmark_run()
        subset = SensorSubset(1, (1, 2))
        n = 6
        mats = build_subset_matrices(traj, subset, n, 10)
        z = traj.y[[0, 1], :]
        for col in range(3):
            expected = stack_history(z[:, col: col + n], traj.u[:, col: col + n])
            np.testing.assert_array_equal(mats.states[:, col], expected)


class TestTrajectory:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.ones((1, 3)), np.ones((2, 4)))

    def test_immutable_payload(self):
        traj = Trajectory(np.ones((1, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            traj.u[0, 0] = 2.0


class TestTrajectoryFile:
    def test_roundtrip_exact(self, tmp_path):
        traj = benchmark_run(seed=5, length=20)
        path = tmp_path / "run.csv"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        np.testing.assert_array_equal(loaded.u, traj.u)
        np.testing.assert_array_equal(loaded.y, traj.y)
        assert loaded.start_index == 0

    def test_header_layout(self, tmp_path):
        traj = Trajectory(np.ones((2, 2)), np.ones((3, 2)), start_index=4)
        path = tmp_path / "run.csv"
        save_trajectory(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "k,u_1,u_2,y_1,y_2,y_3"
        loaded = load_trajectory(path)
        assert loaded.start_index == 4

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,u_1,y_1\n0,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_gap_in_time_column_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("k,u_1,y_1\n0,1.0,2.0\n2,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)
