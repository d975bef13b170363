import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sentinel.attacks import enumerate_subsets
from sentinel.datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    WindowError,
    build_subset_matrices,
    excitation_rank,
    generate_pe_input,
    hankel,
    hankel_rows,
    is_persistently_exciting,
    load_trajectory,
    save_trajectory,
    trajectory_hankel,
)
from sentinel.plant import discretize_zoh, msd_benchmark, simulate

from oracles import (
    gathered_stacks,
    reference_hankel_rows,
    reference_history,
    reference_save_trajectory,
)

# subnormal, signed-zero and extreme float64 values a round trip must keep
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e-05]


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


class TestBuildSubsetMatrices:
    def test_tiny_example_unrolled(self):
        traj = Trajectory([[10.0, 11.0, 12.0]], [[1.0, 2.0, 3.0]])
        subset = (1,)
        mats = build_subset_matrices(traj, (subset,), 1, 2)
        assert mats.subsets == (subset,)
        regressors, targets = gathered_stacks(mats)
        np.testing.assert_array_equal(regressors, [[[11.0, 12.0], [1.0, 2.0], [10.0, 11.0]]])
        np.testing.assert_array_equal(targets, [[[2.0, 3.0], [11.0, 12.0]]])

    def test_shift_invariant(self):
        traj = benchmark_run()
        mats = build_subset_matrices(traj, enumerate_subsets(3, 1), 6, 41)
        regressors, targets = gathered_stacks(mats)
        np.testing.assert_array_equal(targets[..., :-1], regressors[:, 1:, 1:])

    def test_benchmark_dimensions(self):
        traj = benchmark_run()
        mats = build_subset_matrices(traj, enumerate_subsets(3, 1), 6, 41)
        assert mats.hankel.shape == ((3 + 1) * (6 + 1), 41)
        assert mats.regressor.shape == (3, 1 + 18) and mats.input_dim == 1
        regressors, targets = gathered_stacks(mats)
        np.testing.assert_array_equal(regressors[:, 0], np.broadcast_to(traj.u[:, 6:47], (3, 41)))

    def test_too_short_raises_with_minimum(self):
        traj = Trajectory([[1.0, 2.0]], [[1.0, 2.0]])
        with pytest.raises(TrajectoryLengthError) as err:
            build_subset_matrices(traj, ((1,),), 1, 2)
        assert err.value.required == 3

    def test_no_subsets_rejected(self):
        with pytest.raises(ValueError, match="no sensor subsets"):
            build_subset_matrices(benchmark_run(), (), 6, 41)

    @pytest.mark.parametrize("subsets, message", [
        (((),), "non-empty tuple of integers"),
        (((2, 1),), r"strictly increasing and >= 1, got \(2, 1\)"),
        (((0, 1),), r"strictly increasing and >= 1, got \(0, 1\)"),
        (((1, 1),), r"strictly increasing and >= 1, got \(1, 1\)"),
        (((1, 2), (3, 2)), r"strictly increasing and >= 1, got \(3, 2\)"),
        (((1, 2), (1,)), "same number of sensors"),
        (((1,), (1, 2, 3)), "same number of sensors"),
        (((1.0, 2.0),), "non-empty tuple of integers"),
    ])
    def test_malformed_subset_rejected(self, subsets, message):
        with pytest.raises(ValueError, match=message):
            build_subset_matrices(benchmark_run(), subsets, 6, 41)

    def test_subsets_are_kept_as_tuples(self):
        mats = build_subset_matrices(benchmark_run(), [[1, 3], (2, 3)], 6, 41)
        assert mats.subsets == ((1, 3), (2, 3))
        np.testing.assert_array_equal(mats.regressor,
                                      hankel_rows(3, ((1, 3), (2, 3)), 6, 1))

    def test_sensor_beyond_recording_rejected(self):
        traj = benchmark_run()
        with pytest.raises(ValueError, match="beyond the 3 recorded"):
            build_subset_matrices(traj, enumerate_subsets(4, 1), 6, 41)

    def test_matches_stack_history(self):
        traj = benchmark_run()
        n = 6
        subsets = enumerate_subsets(3, 1)
        regressors, targets = gathered_stacks(build_subset_matrices(traj, subsets, n, 10))
        for j, subset in enumerate(subsets):
            z = traj.y[[i - 1 for i in subset], :]
            for col in range(3):
                expected = reference_history(z[:, col: col + n], traj.u[:, col: col + n])
                np.testing.assert_array_equal(regressors[j, 1:, col], expected)
                following = reference_history(z[:, col + 1: col + n + 1],
                                              traj.u[:, col + 1: col + n + 1])
                np.testing.assert_array_equal(targets[j, :, col], following)


class TestHankelRows:
    def test_picks_each_subset_out_of_the_all_sensor_hankel(self):
        rng = np.random.default_rng(4)
        n, cols = 3, 5
        for m in (1, 2):
            traj = Trajectory(rng.standard_normal((m, n + cols)),
                              rng.standard_normal((4, n + cols)))
            hankel_all = trajectory_hankel(traj, 0, n + 1, cols)
            subsets = enumerate_subsets(4, 2)
            regressor = hankel_rows(4, subsets, n, m)
            target = reference_hankel_rows(4, subsets, n, m)[1]
            assert regressor.shape == (6, m + (2 + m) * n) and target.shape == (6, (2 + m) * n)
            for j, subset in enumerate(subsets):
                z = traj.y[[i - 1 for i in subset]]
                for c in range(cols):
                    history = reference_history(z[:, c: c + n], traj.u[:, c: c + n])
                    np.testing.assert_array_equal(hankel_all[regressor[j], c],
                                                  np.concatenate([traj.u[:, c + n], history]))
                    np.testing.assert_array_equal(
                        hankel_all[target[j], c],
                        reference_history(z[:, c + 1: c + n + 1], traj.u[:, c + 1: c + n + 1]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_subset_at_a_time_reference(self, data):
        n_sensors = data.draw(st.integers(2, 10), label="N")
        max_attacked = data.draw(st.integers(0, n_sensors - 1), label="M")
        n, m = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 3), label="m")
        subsets = enumerate_subsets(n_sensors, max_attacked)
        rows = hankel_rows(n_sensors, subsets, n, m)
        expected = reference_hankel_rows(n_sensors, subsets, n, m)[0]
        assert rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)


class TestTrajectory:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.ones((1, 3)), np.ones((2, 4)))

    def test_complex_input_rejected(self):
        with pytest.raises(ValueError, match="y must be real"):
            Trajectory(np.ones((1, 3)), np.ones((2, 3)) + 1j)

    def test_immutable_payload(self):
        traj = Trajectory(np.ones((1, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            traj.u[0, 0] = 2.0


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


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

    @pytest.mark.parametrize("header", ["time,u_1,y_1", "k,y_1,u_1,y_2", "k,u_1,y_2,y_1",
                                        "k,u_1,y_1,y_1"],
                             ids=["time", "input-after-sensor", "sensors-swapped",
                                  "sensor-repeated"])
    def test_bad_header_rejected(self, tmp_path, header):
        # a header other than k,u_1..u_m,y_1..y_N would load its columns as
        # the wrong signals
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0{',1.0' * header.count(',')}\n")
        with pytest.raises(ValueError, match=r"unrecognized trajectory header \["):
            load_trajectory(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="trajectory file is empty"):
            load_trajectory(path)

    def test_gap_in_time_column_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("k,u_1,y_1\n0,1.0,2.0\n2,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_time_column_wrapping_int64_rejected(self, tmp_path):
        # consecutive modulo 2**64 only: the int64 difference wraps to 1
        path = tmp_path / "wrap.csv"
        path.write_text("k,u_1,y_1\n9223372036854775807,1.0,2.0\n-9223372036854775808,1.0,2.0\n")
        with pytest.raises(ValueError, match="time column must be consecutive"):
            load_trajectory(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("k,u_1,y_1\r\n")
        with pytest.raises(ValueError, match="trajectory file has no samples"):
            load_trajectory(path)

    @pytest.mark.parametrize("fields", ["0.1,0.2,0.3,9.9", "0.1,0.2", "0.1,0.2,0.3,"],
                             ids=["extra-field", "missing-field", "trailing-comma"])
    @pytest.mark.parametrize("bad_row", [0, 1], ids=["first-row", "second-row"])
    def test_row_field_count_must_match_header(self, tmp_path, fields, bad_row):
        rows = [f"{k},0.1,0.2,0.3" for k in range(2)]
        rows[bad_row] = f"{bad_row},{fields}"
        path = tmp_path / "fields.csv"
        path.write_text("k,u_1,y_1,y_2\n" + "\n".join(rows) + "\n")
        count = fields.count(",") + 2
        with pytest.raises(ValueError, match=f"^trajectory line {bad_row + 2} has {count} "
                                             "fields, the header has 4$") as err:
            load_trajectory(path)
        assert "usecols" not in str(err.value)

    @pytest.mark.parametrize("k", ["1.0", "1.5", "1e0", "9223372036854775808", ""])
    def test_time_column_must_be_int64(self, tmp_path, k):
        path = tmp_path / "k.csv"
        path.write_text(f"k,u_1,y_1\n{k},1.0,2.0\n")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_blank_first_line_is_a_bad_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\nk,u_1,y_1\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="unrecognized trajectory header"):
            load_trajectory(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), p=st.integers(1, 4), length=st.integers(1, 50),
           start=st.integers(-2 ** 63, 2 ** 63 - 50))
    def test_roundtrip_property(self, roundtrip_dir, data, m, p, length, start):
        values = data.draw(arrays(np.float64, (m + p, length), elements=st.one_of(
            st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))))
        traj = Trajectory(values[:m], values[m:], start_index=start)
        path, reference = roundtrip_dir / "run.csv", roundtrip_dir / "reference.csv"
        save_trajectory(traj, path)
        reference_save_trajectory(traj, reference)
        assert path.read_bytes() == reference.read_bytes()
        loaded = load_trajectory(path)
        assert loaded.start_index == start and type(loaded.start_index) is int
        assert loaded.u.tobytes() == traj.u.tobytes()
        assert loaded.y.tobytes() == traj.y.tobytes()
