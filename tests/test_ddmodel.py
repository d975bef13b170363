import numpy as np
import pytest

from sentinel.attacks import ReplayAttack, SensorSubset, apply_attack, enumerate_subsets
from sentinel.datamat import Trajectory, build_subset_matrices, generate_pe_input
from sentinel.ddmodel import (
    LearningError,
    certifying_rank,
    learn_lambda,
    learn_model,
    load_learned_model,
    predict,
    rank_condition,
    save_learned_model,
)
from sentinel.linalg import DEFAULT_TOL, Tolerance
from sentinel.plant import StateSpace, discretize_zoh, msd_benchmark, random_test_system, simulate

from oracles import extended_state_space, rank_obsv_oracle, ss_to_arx


def benchmark_plant():
    return discretize_zoh(msd_benchmark(), 1.3)


def excited_benchmark_run(seed=7, n=6, columns=41):
    ss = benchmark_plant()
    sig = generate_pe_input(1, columns, (1 + 2) * n + 1, seed)
    fill = np.random.default_rng(seed + 1).uniform(-1, 1, (1, n + 1))
    u = np.hstack([fill[:, :n], sig.u, fill[:, n:]])
    _, y = simulate(ss, np.zeros(6), u)
    return ss, Trajectory(u, y)


def generator_matrices(ss, subset_rows):
    """[input matrix | transition matrix] of the stacked-history companion
    form, the model-based route the learner is checked against."""
    sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[subset_rows])
    ext = extended_state_space(ss_to_arx(sub))
    return np.hstack([ext.B_ext, ext.A_ext])


class TestRankCondition:
    def test_benchmark_clean_holds_at_certifying_rank(self):
        _, traj = excited_benchmark_run()
        for subset in enumerate_subsets(3, 1):
            report = rank_condition(build_subset_matrices(traj, subset, 6, 41))
            assert report.required == certifying_rank(1, 6) == 13
            assert report.rows == 19
            assert report.observed == 13
            assert report.holds

    def test_zero_input_fails(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        report = rank_condition(build_subset_matrices(traj, SensorSubset(1, (1, 2)), 6, 41))
        assert report.observed == 0 and not report.holds

    def test_replay_attacked_fails_per_subset(self):
        _, traj = excited_benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        observed = {}
        for subset in enumerate_subsets(3, 1):
            report = rank_condition(build_subset_matrices(attacked, subset, 6, 41))
            observed[subset.indices] = (report.observed, report.holds)
        assert observed[(1, 2)] == (13, True)
        # constant rows both collapse directions and add one the plant
        # cannot produce, so attacked subsets miss 13 from either side
        assert observed[(1, 3)][0] < 13 and not observed[(1, 3)][1]
        assert observed[(2, 3)][0] != 13 and not observed[(2, 3)][1]


class TestLearnLambda:
    def test_scalar_system_frozen_value(self):
        # one-state plant A=0.5, B=1, C=1: the predictor maps
        # (u[k], y[k-1], u[k-1]) to (y[k], u[k]) with y[k] = 0.5 y[k-1] + u[k-1]
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        u = np.random.default_rng(0).uniform(-1, 1, (1, 12))
        _, y = simulate(ss, np.zeros(1), u)
        mats = build_subset_matrices(Trajectory(u, y), SensorSubset(1, (1,)), 1, 10)
        entry = learn_lambda(mats)
        expected = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(entry.lam, expected, atol=1e-8)
        np.testing.assert_allclose(entry.lam, generator_matrices(ss, [0]), atol=1e-8)
        assert entry.report.holds and entry.report.observed == 3

    def test_generator_recovery_from_full_rank_data(self):
        # columns drawn freely in history space (not one plant run) make the
        # stacked data full row rank, and the learner must return the
        # companion matrices exactly
        rng = np.random.default_rng(21)
        ss = random_test_system(rng, 3, 1, 3, 2)
        gen = generator_matrices(ss, [0, 1])
        rows = gen.shape[1]
        regressors = rng.uniform(-1, 1, (rows, 3 * rows))
        targets = gen @ regressors
        lam = targets @ np.linalg.pinv(regressors)
        assert np.max(np.abs(lam - gen)) < 1e-8

    def test_rank_failure_embeds_report(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        mats = build_subset_matrices(traj, SensorSubset(1, (1, 2)), 6, 41)
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        assert err.value.report.observed == 0
        assert err.value.subset.indices == (1, 2)

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4"])
    def test_one_svd_matches_pinv_and_rank_condition(self, plant):
        if plant == "benchmark":
            _, traj = excited_benchmark_run()
            n_sensors, max_attacked, columns = 3, 1, 41
        else:
            n_sensors, max_attacked, columns = 10, 4, 86
            ss = random_test_system(np.random.default_rng(0), 6, 1, n_sensors, 6)
            sig = generate_pe_input(1, columns, 43, 3)
            u = np.hstack([np.full((1, 6), 0.5), sig.u, np.full((1, 1), -0.5)])
            traj = Trajectory(u, simulate(ss, np.zeros(6), u)[1])
        for subset in enumerate_subsets(n_sensors, max_attacked):
            mats = build_subset_matrices(traj, subset, 6, columns)
            stacked = np.vstack([mats.u_now, mats.states])
            entry = learn_lambda(mats)
            pinv = np.linalg.pinv(stacked, rcond=DEFAULT_TOL.rank_rel * max(stacked.shape))
            assert np.array_equal(entry.lam, mats.states_next @ pinv)
            assert entry.report == rank_condition(mats)

    def test_benchmark_fit_and_validation(self):
        ss, traj = excited_benchmark_run()
        subset = SensorSubset(1, (1, 2))
        entry = learn_lambda(build_subset_matrices(traj, subset, 6, 41))
        assert entry.residual < 1e-9
        # fresh run from the same plant: one-step predictions stay exact
        u2 = np.random.default_rng(1234).uniform(-1, 1, (1, 47))
        _, y2 = simulate(ss, np.zeros(6), u2)
        mats2 = build_subset_matrices(Trajectory(u2, y2), subset, 6, 40)
        pred = entry.lam @ np.vstack([mats2.u_now, mats2.states])
        err = np.max(np.abs(pred - mats2.states_next))
        assert err < 1e-8 * (1 + np.max(np.abs(mats2.states_next)))

    def test_relearning_gives_same_predictor(self):
        _, traj_a = excited_benchmark_run(seed=7)
        _, traj_b = excited_benchmark_run(seed=99)
        subset = SensorSubset(1, (1, 2))
        lam_a = learn_lambda(build_subset_matrices(traj_a, subset, 6, 41)).lam
        lam_b = learn_lambda(build_subset_matrices(traj_b, subset, 6, 41)).lam
        assert np.max(np.abs(lam_a - lam_b)) < 1e-8

    def test_single_sensor_subsets_match_generator(self):
        # with one retained sensor the stacked data has full row rank, so
        # the learned map equals the companion matrices entry by entry
        for i in range(30):
            rng = np.random.default_rng([71, i])
            n = int(rng.integers(1, 5))
            ss = random_test_system(rng, n, 1, 2, 1)
            columns = 2 * ((1 + 1) * n + 1) + 4
            u = rng.uniform(-1, 1, (1, n + columns))
            _, y = simulate(ss, np.zeros(n), u)
            for sensor in (1, 2):
                mats = build_subset_matrices(Trajectory(u, y),
                                             SensorSubset(sensor, (sensor,)), n, columns)
                entry = learn_lambda(mats)
                gen = generator_matrices(ss, [sensor - 1])
                assert np.max(np.abs(entry.lam - gen)) < 1e-8

    def test_multi_sensor_subsets_match_generator_on_regressors(self):
        # with two or more retained sensors the data cannot span the full
        # history space; the learned map then agrees with the companion
        # matrices on every regressor the plant can actually produce
        for i in range(10):
            rng = np.random.default_rng([72, i])
            n = int(rng.integers(1, 4))
            ss = random_test_system(rng, n, 1, 3, 2)
            columns = 2 * ((1 + 2) * n + 1) + 4
            u = rng.uniform(-1, 1, (1, n + columns))
            _, y = simulate(ss, np.zeros(n), u)
            subset = SensorSubset(1, (1, 2))
            entry = learn_lambda(build_subset_matrices(Trajectory(u, y), subset, n, columns))
            gen = generator_matrices(ss, [0, 1])
            u2 = rng.uniform(-1, 1, (1, n + 20))
            _, y2 = simulate(ss, np.zeros(n), u2)
            mats2 = build_subset_matrices(Trajectory(u2, y2), subset, n, 20)
            regressors = np.vstack([mats2.u_now, mats2.states])
            gap = (entry.lam - gen) @ regressors
            assert np.max(np.abs(gap)) < 1e-8 * (1 + np.max(np.abs(mats2.states_next)))


class TestPredict:
    def test_zero_map(self):
        np.testing.assert_array_equal(predict(np.zeros((4, 5)), [1.0], np.ones(4)),
                                      np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.zeros((4, 5)), [1.0, 2.0], np.ones(4))

    def test_prediction_tail_carries_input(self):
        # bottom input-block of a learned one-step prediction is u[k]
        ss, traj = excited_benchmark_run()
        subset = SensorSubset(1, (1, 2))
        entry = learn_lambda(build_subset_matrices(traj, subset, 6, 41))
        u2 = np.random.default_rng(5).uniform(-1, 1, (1, 20))
        _, y2 = simulate(ss, np.zeros(6), u2)
        mats2 = build_subset_matrices(Trajectory(u2, y2), subset, 6, 10)
        out = predict(entry.lam, mats2.u_now[:, 0], mats2.states[:, 0])
        np.testing.assert_allclose(out[-1:], mats2.u_now[:, 0], atol=1e-9)


class TestLearnModel:
    def test_benchmark_model(self):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 3, 1, 6, 41, pe_seed=7)
        assert len(model.predictors) == 3
        assert all(entry.report.holds for entry in model.predictors)
        assert model.pe_seed == 7

    def test_zero_input_error_lists_every_subset_below_rank(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        with pytest.raises(LearningError) as err:
            learn_model(traj, 3, 1, 6, 41)
        assert [s.indices for s, _, _ in err.value.failures] == [(1, 2), (1, 3), (2, 3)]
        assert err.value.subset.indices == (1, 2) and err.value.report.observed == 0
        assert str(err.value).count("data rank 0 is below the certifying rank 13") == 3

    def test_output_noise_error_says_rank_is_above(self):
        _, traj = excited_benchmark_run()
        noise = 1e-8 * np.random.default_rng(0).standard_normal(traj.y.shape)
        with pytest.raises(LearningError) as err:
            learn_model(Trajectory(traj.u, traj.y + noise), 3, 1, 6, 41)
        assert err.value.report.observed == 19
        for subset, report, _ in err.value.failures:
            assert report.observed > report.required == 13
            assert f"subset {subset.indices}: rank certificate failed: data rank " \
                f"{report.observed} is above the certifying rank 13" in str(err.value)

    def test_misfit_error_says_rank_holds(self):
        _, traj = excited_benchmark_run()
        with pytest.raises(LearningError) as err:
            learn_model(traj, 3, 1, 6, 41, tol=Tolerance(residual_abs=1e-30))
        assert len(err.value.failures) == 3 and err.value.report.holds
        assert str(err.value).count("meets the certifying rank, but the training misfit") == 3

    def test_sensor_count_mismatch(self):
        _, traj = excited_benchmark_run()
        with pytest.raises(ValueError):
            learn_model(traj, 4, 1, 6, 41)


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 3, 1, 6, 41, pe_seed=7)
        path = tmp_path / "model.json"
        save_learned_model(model, path)
        loaded = load_learned_model(path)
        assert loaded.n == 6 and loaded.m == 1 and loaded.columns == 41
        assert loaded.n_sensors == 3 and loaded.max_attacked == 1
        assert loaded.pe_seed == 7
        for orig, back in zip(model.predictors, loaded.predictors):
            assert back.subset == orig.subset
            np.testing.assert_array_equal(back.lam, orig.lam)
            assert back.residual == orig.residual

    def test_predictor_lookup(self, tmp_path):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 3, 1, 6, 41)
        assert model.predictor(2).subset.indices == (1, 3)
        with pytest.raises(KeyError):
            model.predictor(9)


class TestRankOracle:
    def test_benchmark_observability_factor(self):
        ss, traj = excited_benchmark_run()
        report = rank_obsv_oracle(ss, SensorSubset(1, (1, 2)), 6, traj, columns=41)
        assert report.rank_obs == 6
        assert report.bound_holds

    def test_unobservable_pair_rank_deficient(self):
        # two sensors sharing a left-eigenvector row: the pair's depth-n
        # output Hankel cannot reach full row rank when n < q + 1
        rng = np.random.default_rng(15)
        a = np.array([[0.5, 0.3], [0.0, -0.6]])
        b = rng.uniform(-1, 1, (2, 1))
        c = np.vstack([[0.0, 1.0], [0.0, 1.0], rng.uniform(-1, 1, (1, 2))])
        ss = StateSpace(a, b, c)
        u = rng.uniform(-1, 1, (1, 30))
        _, y = simulate(ss, np.zeros(2), u)
        traj = Trajectory(u, y)
        report = rank_obsv_oracle(ss, SensorSubset(1, (1, 2)), 2, traj)
        n, q = 2, 2
        assert report.rank_obs < n
        assert report.observed_rank < n * q
        assert report.bound_holds

    def test_depth_one_toeplitz_is_zero(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0], [2.0]])
        u = np.random.default_rng(3).uniform(-1, 1, (1, 10))
        _, y = simulate(ss, np.zeros(1), u)
        report = rank_obsv_oracle(ss, SensorSubset(1, (1, 2)), 1, Trajectory(u, y))
        assert np.all(report.toeplitz == 0.0)
        assert report.rank_toeplitz == 0

    def test_subadditivity_on_random_systems(self):
        for i in range(15):
            rng = np.random.default_rng([81, i])
            n = int(rng.integers(1, 5))
            ss = random_test_system(rng, n, 1, 3, 2)
            u = rng.uniform(-1, 1, (1, n + 40))
            _, y = simulate(ss, np.zeros(n), u)
            traj = Trajectory(u, y)
            for subset in enumerate_subsets(3, 1):
                report = rank_obsv_oracle(ss, subset, n, traj)
                assert report.observed_rank <= report.predicted_max_rank
                assert report.predicted_max_rank == report.rank_obs + report.rank_toeplitz
