import base64
import dataclasses
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import datamat, ddmodel
from sentinel.attacks import ReplayAttack, SensorSubset, apply_attack, enumerate_subsets
from sentinel.datamat import (
    BLOCK_BYTES,
    Trajectory,
    build_subset_matrices,
    generate_pe_input,
    hankel_rows,
)
from sentinel.ddmodel import (
    DataDrivenModel,
    LearningError,
    RankReport,
    _factor,
    certifying_rank,
    learn_lambda,
    learn_model,
    load_learned_model,
    predict,
    rank_condition,
    save_learned_model,
)
from sentinel.linalg import DEFAULT_TOL, Tolerance, numerical_rank, rank_cutoff
from sentinel.plant import StateSpace, discretize_zoh, msd_benchmark, random_test_system, simulate

from oracles import (
    extended_state_space,
    gathered_stacks,
    model_lambda,
    predictors,
    rank_obsv_oracle,
    ss_to_arx,
)


def benchmark_plant():
    return discretize_zoh(msd_benchmark(), 1.3)


def excited_benchmark_run(seed=7, n=6, columns=41):
    ss = benchmark_plant()
    sig = generate_pe_input(1, columns, (1 + 2) * n + 1, seed)
    fill = np.random.default_rng(seed + 1).uniform(-1, 1, (1, n + 1))
    u = np.hstack([fill[:, :n], sig.u, fill[:, n:]])
    _, y = simulate(ss, np.zeros(6), u)
    return ss, Trajectory(u, y)


def random_10x4_run(columns=86):
    """Recording of a fixed random 6-state plant with N = 10 sensors (M = 4)."""
    ss = random_test_system(np.random.default_rng(0), 6, 1, 10, 6)
    sig = generate_pe_input(1, columns, 43, 3)
    u = np.hstack([np.full((1, 6), 0.5), sig.u, np.full((1, 1), -0.5)])
    return Trajectory(u, simulate(ss, np.zeros(6), u)[1])


def subset_run(plant):
    """(recording, N, M, columns) of the benchmark, random-10x4 or random-6x2 plant."""
    if plant == "benchmark":
        return excited_benchmark_run()[1], 3, 1, 41
    if plant == "random-10x4":
        return random_10x4_run(86), 10, 4, 86
    ss = random_test_system(np.random.default_rng(5), 6, 1, 6, 4)
    u = np.random.default_rng(6).uniform(-1, 1, (1, 6 + 40))
    return Trajectory(u, simulate(ss, np.zeros(6), u)[1]), 6, 2, 40


def learned_lambda(mats, tol=DEFAULT_TOL):
    """learn_lambda with its predictors as one S x d x (d + m) stack:
    (lam, residuals, reports, basis), lam = basis[target] @ coef, the
    stack predictors(basis, ...) gives."""
    coef, residuals, reports, basis = learn_lambda(mats, tol)
    return basis[mats.target] @ coef, residuals, reports, basis


def generator_matrices(ss, subset_rows):
    """[input matrix | transition matrix] of the stacked-history companion
    form, the model-based route the learner is checked against."""
    sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[subset_rows])
    ext = extended_state_space(ss_to_arx(sub))
    return np.hstack([ext.B_ext, ext.A_ext])


class TestRankCondition:
    def test_benchmark_clean_holds_at_certifying_rank(self):
        _, traj = excited_benchmark_run()
        reports = rank_condition(build_subset_matrices(traj, enumerate_subsets(3, 1), 6, 41))
        assert len(reports) == 3
        for report in reports:
            assert report.required == certifying_rank(1, 6) == 13
            assert report.rows == 19
            assert report.observed == 13
            assert report.holds

    def test_holds_derives_from_the_counts(self):
        assert [f.name for f in dataclasses.fields(RankReport)] == ["observed", "required",
                                                                    "rows"]
        assert RankReport(13, 13, 19).holds and not RankReport(12, 13, 19).holds
        assert not RankReport(14, 13, 19).holds
        with pytest.raises(TypeError):
            RankReport(13, 13, 19, True)
        with pytest.raises(AttributeError):
            RankReport(13, 13, 19).holds = False

    def test_zero_input_fails(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        (report,) = rank_condition(
            build_subset_matrices(traj, (SensorSubset(1, (1, 2)),), 6, 41))
        assert report.observed == 0 and not report.holds

    def test_replay_attacked_fails_per_subset(self):
        _, traj = excited_benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        mats = build_subset_matrices(attacked, enumerate_subsets(3, 1), 6, 41)
        observed = {}
        for j, report in enumerate(rank_condition(mats)):
            assert report.observed == numerical_rank(gathered_stacks(mats)[0][j])
            observed[mats.subsets[j].indices] = (report.observed, report.holds)
        assert observed[(1, 2)] == (13, True)
        # constant rows both collapse directions and add one the plant
        # cannot produce, so attacked subsets miss 13 from either side
        assert observed[(1, 3)][0] < 13 and not observed[(1, 3)][1]
        assert observed[(2, 3)][0] != 13 and not observed[(2, 3)][1]

    @pytest.mark.parametrize("wide", [False, True], ids=["T<W", "T>=W"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reports_equal_per_subset_svd(self, wide, data):
        # the ranks read off one QR and one SVD of the all-sensor Hankel are
        # those of each subset's own gathered stack, with fewer or more columns
        # than the Hankel has rows W, on clean data and with one sensor pinned,
        # from cutoffs far above rounding level down to below it
        tol = Tolerance(rank_rel=data.draw(st.sampled_from((1e-16, 1e-13, 1e-11, 1e-8, 1e-3)),
                                           label="rank_rel"))
        n_sensors = data.draw(st.integers(2, 5), label="N")
        max_attacked = data.draw(st.integers(1, n_sensors - 1), label="M")
        n = data.draw(st.integers(1, 4), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        ss = random_test_system(rng, n, 1, n_sensors, n_sensors - max_attacked)
        width = (n_sensors + 1) * (n + 1)
        columns = data.draw(st.integers(width, 2 * width) if wide else
                            st.integers(1, width - 1), label="T")
        u = rng.uniform(-1, 1, (1, n + columns))
        clean = Trajectory(u, simulate(ss, np.zeros(n), u)[1])
        pinned = ReplayAttack({data.draw(st.integers(1, n_sensors), label="pinned"): 0.01})
        subsets = enumerate_subsets(n_sensors, max_attacked)
        for traj in (clean, apply_attack(clean, pinned, max_attacked=max_attacked)):
            mats = build_subset_matrices(traj, subsets, n, columns)
            assert [report.observed for report in rank_condition(mats, tol)] == [
                numerical_rank(stacked, tol) for stacked in gathered_stacks(mats)[0]]

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_cutoff_on_a_singular_value_falls_back(self, plant, monkeypatch):
        # a cutoff placed on one subset's 6th singular value lies within
        # rounding of it, which the truncated factor cannot resolve: the
        # values are then taken from the subsets' rows of the whole factor
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor = _factor(mats)
        sigma = np.linalg.svd(factor[mats.regressor], compute_uv=False)
        shape = (mats.regressor.shape[1], mats.columns)
        tol = Tolerance(rank_rel=sigma[-1, 5] / (max(shape) * sigma[-1, 0]))
        operands = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
        reports = rank_condition(mats, tol)
        monkeypatch.undo()
        assert operands[-1] == (len(mats.subsets), *mats.regressor.shape[1:], factor.shape[1])
        assert [report.observed for report in reports] == (
            sigma > rank_cutoff(sigma, shape, tol)).sum(axis=1).tolist()

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["truncated", "fallback"])
    def test_chunked_gathers_give_the_same_reports(self, plant, fallback, monkeypatch):
        # the certificate gathers the subsets' rows in chunks of about
        # BLOCK_BYTES; a batched SVD takes each matrix of a stack on its own,
        # so chunks of one or a few subsets give the values of one call, bit
        # for bit, on the rank-rho rows and on the fallback's rows of R^T
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor = _factor(mats)
        sigma = np.linalg.svd(factor[mats.regressor], compute_uv=False)
        tol = DEFAULT_TOL
        if fallback:  # a cutoff on a singular value, as in the test above
            shape = (mats.regressor.shape[1], mats.columns)
            tol = Tolerance(rank_rel=sigma[-1, 5] / (max(shape) * sigma[-1, 0]))
        expected = rank_condition(mats, tol)
        width = mats.regressor.shape[1]
        for block in (1, 3 * width * factor.shape[1] * 8):
            operands = []
            svd = np.linalg.svd
            monkeypatch.setattr(datamat, "BLOCK_BYTES", block)
            chunked = ddmodel._regressor_singular_values(factor, mats.regressor)
            monkeypatch.setattr(np.linalg, "svd",
                                lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
            reports = rank_condition(mats, tol)
            monkeypatch.undo()
            assert reports == expected
            assert chunked.tobytes() == sigma.tobytes()
            # one SVD of the factor, then chunks of one subset or of at most
            # `block` bytes, the last of them from the whole factor on fallback
            gathers = operands[1:]
            assert all(count * rows * cols * 8 <= block or count == 1
                       for count, rows, cols in gathers)
            if block == 1:
                assert len(gathers) == len(mats.subsets) * (2 if fallback else 1)
            assert (gathers[-1][2] == factor.shape[1]) == fallback

    def test_cutoff_below_the_truncated_tail_falls_back(self):
        # G's 14th singular value, 0.7 of the rounding level max(W, T) eps
        # sigma_1, is cut from the factor; a cutoff between the subsets' share
        # of it and the noise below still counts it, as the whole factor does
        _, traj = excited_benchmark_run()
        mats = build_subset_matrices(traj, enumerate_subsets(3, 1), 6, 41)
        width, columns = mats.hankel.shape
        rng = np.random.default_rng(0)
        left = np.linalg.qr(rng.standard_normal((width, width)))[0]
        right = np.linalg.qr(rng.standard_normal((columns, width)))[0]
        level = max(width, columns) * np.finfo(float).eps
        values = np.r_[np.ones(13), 0.7 * level, np.zeros(width - 14)]
        mats = dataclasses.replace(mats, hankel=(left * values) @ right.T)
        sigma = np.linalg.svd(_factor(mats)[mats.regressor], compute_uv=False)
        shape = (mats.regressor.shape[1], columns)
        tol = Tolerance(rank_rel=np.sqrt(sigma[:, 13].min() * sigma[:, 14].max())
                        / (max(shape) * sigma[:, 0].max()))
        assert (sigma > rank_cutoff(sigma, shape, tol)).sum(axis=1).tolist() == [14] * 3
        assert [report.observed for report in rank_condition(mats, tol)] == [14] * 3


class TestLearnLambda:
    def test_scalar_system_frozen_value(self):
        # one-state plant A=0.5, B=1, C=1: the predictor maps
        # (u[k], y[k-1], u[k-1]) to (y[k], u[k]) with y[k] = 0.5 y[k-1] + u[k-1]
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        u = np.random.default_rng(0).uniform(-1, 1, (1, 12))
        _, y = simulate(ss, np.zeros(1), u)
        mats = build_subset_matrices(Trajectory(u, y), (SensorSubset(1, (1,)),), 1, 10)
        (lam,), _, (report,), _ = learned_lambda(mats)
        expected = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(lam, expected, atol=1e-8)
        np.testing.assert_allclose(lam, generator_matrices(ss, [0]), atol=1e-8)
        assert report.holds and report.observed == 3

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
        mats = build_subset_matrices(traj, (SensorSubset(1, (1, 2)),), 6, 41)
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        assert err.value.report.observed == 0
        assert err.value.subset.indices == (1, 2)

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_one_svd_matches_pinv_and_rank_condition(self, plant):
        # lam = lift coef and the per-subset pinv solution agree on the data:
        # since (lam - lam_p) A = (lam A - B) - (lam_p A - B), the gap is at
        # most the two training misfits. learn_lambda's lift (coef A) and the
        # computed lam here are within g(d + m + r) |lift| |coef| |A| of the
        # exact products, lam_p A and (lam - lam_p) A within g(d + m) |.| |A|,
        # g(k) = k u / (1 - k u), and each subtraction adds a relative u,
        # which the eps terms below cover.
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        coef, residuals, reports, basis = learn_lambda(mats)
        lift = basis[mats.target]
        lam = lift @ coef
        assert reports == rank_condition(mats)
        eps = np.finfo(float).eps
        for j, (stacked, target) in enumerate(zip(*gathered_stacks(mats))):
            pinv = np.linalg.pinv(stacked, rcond=DEFAULT_TOL.rank_rel * max(stacked.shape))
            lam_p = target @ pinv
            misfit_p = np.max(np.abs(target - lam_p @ stacked))
            rounding = (stacked.shape[0] + coef.shape[1] + 2) * eps * np.max(
                (np.abs(lift[j]) @ np.abs(coef[j]) + np.abs(lam_p)) @ np.abs(stacked))
            gap = np.max(np.abs((lam[j] - lam_p) @ stacked))
            assert gap <= (residuals[j] + misfit_p) * (1 + eps) + rounding
            assert reports[j].observed == numerical_rank(stacked)

    def test_one_svd_of_the_factor_decides_every_rank(self, monkeypatch):
        # learning factors the all-sensor Hankel's R^T once with vectors, takes
        # the basis from it, and reads every subset rank from one batched
        # values-only SVD of operands narrower than R^T
        traj, n_sensors, max_attacked, columns = subset_run("random-10x4")
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor = _factor(mats)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs:
                            calls.append((a.shape, kwargs)) or svd(a, **kwargs))
        _, _, reports, basis = learn_lambda(mats)
        monkeypatch.undo()
        width = min(mats.hankel.shape)
        assert calls[0] == ((mats.hankel.shape[0], width), {"full_matrices": False})
        (shape, kwargs), = calls[1:]
        assert kwargs == {"compute_uv": False}
        assert shape[:2] == mats.regressor.shape and shape[2] < width
        assert np.array_equal(basis, np.linalg.svd(factor, full_matrices=False)[0][
            :, :reports[0].required])
        assert reports == rank_condition(mats)

    def test_benchmark_fit_and_validation(self):
        ss, traj = excited_benchmark_run()
        subset = SensorSubset(1, (1, 2))
        (lam,), (residual,), _, _ = learned_lambda(build_subset_matrices(traj, (subset,), 6, 41))
        assert residual < 1e-9
        # fresh run from the same plant: one-step predictions stay exact
        u2 = np.random.default_rng(1234).uniform(-1, 1, (1, 47))
        _, y2 = simulate(ss, np.zeros(6), u2)
        (regressors,), (targets,) = gathered_stacks(
            build_subset_matrices(Trajectory(u2, y2), (subset,), 6, 40))
        err = np.max(np.abs(lam @ regressors - targets))
        assert err < 1e-8 * (1 + np.max(np.abs(targets)))

    def test_relearning_gives_same_predictor(self):
        _, traj_a = excited_benchmark_run(seed=7)
        _, traj_b = excited_benchmark_run(seed=99)
        subset = SensorSubset(1, (1, 2))
        lam_a = learned_lambda(build_subset_matrices(traj_a, (subset,), 6, 41))[0][0]
        lam_b = learned_lambda(build_subset_matrices(traj_b, (subset,), 6, 41))[0][0]
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
            mats = build_subset_matrices(Trajectory(u, y), enumerate_subsets(2, 1), n, columns)
            for lam, subset in zip(learned_lambda(mats)[0], mats.subsets):
                gen = generator_matrices(ss, [subset.indices[0] - 1])
                assert np.max(np.abs(lam - gen)) < 1e-8

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
            lam = learned_lambda(build_subset_matrices(Trajectory(u, y), (subset,), n,
                                                       columns))[0][0]
            gen = generator_matrices(ss, [0, 1])
            u2 = rng.uniform(-1, 1, (1, n + 20))
            _, y2 = simulate(ss, np.zeros(n), u2)
            (regressors,), (targets,) = gathered_stacks(
                build_subset_matrices(Trajectory(u2, y2), (subset,), n, 20))
            gap = (lam - gen) @ regressors
            assert np.max(np.abs(gap)) < 1e-8 * (1 + np.max(np.abs(targets)))


class TestLearningAtScale:
    """Learning and the rank test factor the all-sensor Hankel once and take
    the training misfit in column blocks of datamat.BLOCK_BYTES."""

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_failures_follow_subset_order(self, plant):
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        attacked = apply_attack(traj, ReplayAttack({2: 0.01}), max_attacked=max_attacked)
        mats = build_subset_matrices(attacked, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        reports = rank_condition(mats)
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        failures = err.value.failures
        assert 0 < len(failures) < len(mats.subsets)
        positions = [mats.subsets.index(subset) for subset, _, _ in failures]
        assert positions == sorted(positions)
        assert [report for _, report, _ in failures] == [reports[j] for j in positions]

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_misfit_blocks_cover_every_column(self, plant, monkeypatch):
        # 1e-9 noise on every output makes each column's misfit differ far
        # above rounding, so a block that skipped or repeated columns would
        # move the largest one; rank_rel 1e-8 still cuts the noise directions
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        noisy = traj.y + 1e-9 * np.random.default_rng(3).standard_normal(traj.y.shape)
        mats = build_subset_matrices(Trajectory(traj.u, noisy),
                                     enumerate_subsets(n_sensors, max_attacked), 6, columns)
        tol = Tolerance(rank_rel=1e-8, residual=1e-3)
        coef, residuals, reports, basis = learn_lambda(mats, tol)
        lift = basis[mats.target]
        regressors, targets = gathered_stacks(mats)
        misfit = np.abs(targets - lift @ (coef @ regressors)).max(axis=(1, 2))
        # both evaluations of lift (coef x), one column at a time or in a block,
        # are within g(d + m + r) |lift| |coef| |regressors| of the exact one
        rounding = ((regressors.shape[1] + coef.shape[1] + 2) * np.finfo(float).eps
                    * np.max(np.abs(lift) @ (np.abs(coef) @ np.abs(regressors)), axis=(1, 2)))
        column_bytes = len(mats.subsets) * regressors.shape[1] * 8
        for block in (1, 5, 16, columns - 1, columns):
            monkeypatch.setattr(datamat, "BLOCK_BYTES", block * column_bytes)
            blocked_coef, blocked_residuals, blocked_reports, _ = learn_lambda(mats, tol)
            assert blocked_coef.tobytes() == coef.tobytes() and blocked_reports == reports
            assert np.all(np.abs(np.array(blocked_residuals) - misfit) <= 2 * rounding)
        assert np.all(np.abs(np.array(residuals) - misfit) <= 2 * rounding)

    def test_learning_memory_is_bounded(self):
        # 6 sensors, M = 2, n = 6, T = 10,000: each S-stack of the data is about
        # 37 MB, and learning them all at once peaked at about 180 MB here
        ss = random_test_system(np.random.default_rng(0), 6, 1, 6, 4)
        columns = 10_000
        u = np.hstack([np.full((1, 6), 0.5), generate_pe_input(1, columns, 31, 1).u,
                       np.full((1, 1), -0.5)])
        traj = Trajectory(u, simulate(ss, np.zeros(6), u)[1])
        tracemalloc.start()
        try:
            mats = build_subset_matrices(traj, enumerate_subsets(6, 2), 6, columns)
            learn_lambda(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the Hankel: its two halves while it is assembled, or the copy
        # the QR factors, or one misfit block: the gathered regressors, at most
        # BLOCK_BYTES, their r-row product, and two S x d blocks, each smaller
        # (the new misfit and the last one, or the misfit and the gathered
        # targets); with r = 13 and d = 30 the r-row product (0.42 BLOCK_BYTES)
        # fits in the room the Hankel's second term leaves
        assert peak < 2 * mats.hankel.nbytes + 3 * BLOCK_BYTES


class TestPredict:
    def test_zero_map(self):
        np.testing.assert_array_equal(
            predict(np.zeros((1, 3, 5)), np.ones((1, 4, 3)), np.ones((1, 5))), np.zeros((1, 4)))

    @pytest.mark.parametrize("coef, lift, regressor", [
        ((3, 5), (4, 3), (6,)),
        ((3, 5), (4, 3), (6, 2)),
        ((3, 5), (4, 2), (5,)),
        ((3, 5), (3, 4, 3), (5,)),
        ((5,), (4, 3), (5,)),
        ((3, 5), (4, 3), (1, 5, 2)),
        ((2, 3, 5), (3, 4, 3), (2, 5)),
        ((2, 3, 5), (2, 4, 3), (5,)),
        ((2, 3, 5), (2, 4, 3), (3, 5)),
        ((2, 3, 5), (2, 4, 3), (2, 5, 2, 1)),
        ((3, 5), (4, 3), (5,)),
        ((3, 5), (4, 3), (5, 2)),
    ], ids=["long-regressor", "long-block", "lift-rank", "lift-stacked", "coef-vector",
            "block-stacked", "lift-count", "stack-unstacked", "regressor-count", "block-4d",
            "unstacked", "unstacked-block"])
    def test_shape_mismatch(self, coef, lift, regressor):
        with pytest.raises(ValueError, match="cannot take a regressor of shape"):
            predict(np.zeros(coef), np.zeros(lift), np.zeros(regressor))

    def test_stacked_factors_match_one_at_a_time(self):
        rng = np.random.default_rng(3)
        coef, lift = rng.standard_normal((5, 3, 6)), rng.standard_normal((5, 4, 3))
        regressors, blocks = rng.standard_normal((5, 6)), rng.standard_normal((5, 6, 7))
        stacked, blocked = predict(coef, lift, regressors), predict(coef, lift, blocks)
        assert stacked.shape == (5, 4) and blocked.shape == (5, 4, 7)
        for j in range(5):
            one = slice(j, j + 1)
            np.testing.assert_array_equal(stacked[j],
                                          predict(coef[one], lift[one], regressors[one])[0])
            np.testing.assert_array_equal(stacked[j], lift[j] @ (coef[j] @ regressors[j]))
            np.testing.assert_array_equal(blocked[j], predict(coef[one], lift[one], blocks[one])[0])
            np.testing.assert_array_equal(blocked[j], lift[j] @ (coef[j] @ blocks[j]))
            # a block is its columns taken one at a time, to rounding
            np.testing.assert_allclose(blocked[j], np.stack(
                [predict(coef[one], lift[one], column[None])[0] for column in blocks[j].T],
                axis=1), rtol=0, atol=1e-13)
            np.testing.assert_allclose(stacked[j], (lift[j] @ coef[j]) @ regressors[j],
                                       rtol=0, atol=1e-13)
        with pytest.raises(ValueError):
            predict(coef, lift, regressors[:4])
        with pytest.raises(ValueError):
            predict(coef, lift, regressors[0])

    def test_prediction_tail_carries_input(self):
        # bottom input-block of a learned one-step prediction is u[k]
        ss, traj = excited_benchmark_run()
        subset = SensorSubset(1, (1, 2))
        mats = build_subset_matrices(traj, (subset,), 6, 41)
        (coef,), _, _, basis = learn_lambda(mats)
        u2 = np.random.default_rng(5).uniform(-1, 1, (1, 20))
        _, y2 = simulate(ss, np.zeros(6), u2)
        (regressors,), _ = gathered_stacks(
            build_subset_matrices(Trajectory(u2, y2), (subset,), 6, 10))
        lift = basis[mats.target[0]]
        np.testing.assert_allclose(predict(coef[None], lift[None], regressors[None, :, 0])[0, -1:],
                                   regressors[:1, 0], atol=1e-9)
        np.testing.assert_allclose(predict(coef[None], lift[None], regressors[None])[0, -1:],
                                   regressors[:1], atol=1e-9)


class TestLearnModel:
    def test_benchmark_model(self):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 3, 1, 6, 41, pe_seed=7)
        assert model.coef.shape == (3, 13, 19) and model.lift.shape == (3, 18, 13)
        # both factors are attributes set at construction; no lambda stack is kept,
        # and nothing per subset is stored: the reports derive from the shape
        assert {"coef", "lift"} <= vars(model).keys()
        assert {"residuals", "reports"}.isdisjoint(vars(model))
        assert all(np.shape(value) != (3, 18, 19) for value in vars(model).values())
        assert model.reports == (RankReport(13, 13, 19),) * 3
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
            learn_model(traj, 3, 1, 6, 41, tol=Tolerance(residual=1e-30))
        assert len(err.value.failures) == 3 and err.value.report.holds
        assert str(err.value).count("meets the certifying rank, but the training misfit") == 3

    def test_sensor_count_mismatch(self):
        _, traj = excited_benchmark_run()
        with pytest.raises(ValueError):
            learn_model(traj, 4, 1, 6, 41)


def recode_basis(payload, edit):
    """Store edit(basis) in a benchmark model file, the basis decoded as its
    28 x 13 float64 matrix; an edit that drops entries changes the byte count."""
    basis = np.frombuffer(base64.b64decode(payload["basis"]), "<f8").reshape(28, 13)
    payload["basis"] = base64.b64encode(np.ascontiguousarray(edit(basis)).tobytes()).decode()


# the per-subset records of the benchmark model file in the layout that stored
# one shared basis plus each subset's id, indices, rank and residual
SUBSET_RECORDS = [
    {"id": 1, "indices": [1, 2], "rank": 13, "residual": 0.0},
    {"id": 2, "indices": [1, 3], "rank": 13, "residual": 0.0},
    {"id": 3, "indices": [2, 3], "rank": 13, "residual": 0.0},
]


def to_records_format(payload):
    """Rewrite a benchmark model file in the older layout with one rank and
    residual record per subset next to the basis."""
    payload["subsets"] = SUBSET_RECORDS


def to_lambda_format(payload):
    """Rewrite a benchmark model file in the older format: one base64 lambda
    per subset and no basis."""
    basis = np.frombuffer(base64.b64decode(payload.pop("basis")), "<f8").reshape(28, 13)
    lam = predictors(basis, *hankel_rows(3, enumerate_subsets(3, 1), 6, 1))
    to_records_format(payload)
    payload["subsets"] = [dict(entry, **{"lambda": base64.b64encode(matrix.tobytes()).decode()})
                          for entry, matrix in zip(SUBSET_RECORDS, lam)]


def without_sensors(basis, sensors, n_sensors=3, n=6):
    """basis with the Hankel rows of the given sensors zeroed."""
    cut = basis.copy()
    cut[[t * n_sensors + i - 1 for t in range(n + 1) for i in sensors]] = 0.0
    return cut


def learned(plant):
    """The model learned from subset_run(plant)."""
    traj, n_sensors, max_attacked, columns = subset_run(plant)
    return learn_model(traj, n_sensors, max_attacked, 6, columns, pe_seed=7)


@pytest.fixture(scope="module")
def models():
    return {plant: learned(plant) for plant in ("benchmark", "random-10x4", "random-6x2")}


class TestModelFile:
    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4"])
    def test_roundtrip(self, tmp_path, plant):
        model = learned(plant)
        path = tmp_path / "model.json"
        save_learned_model(model, path)
        loaded = load_learned_model(path)
        assert (loaded.n, loaded.m, loaded.columns, loaded.pe_seed) == (6, 1, model.columns, 7)
        assert (loaded.n_sensors, loaded.max_attacked) == (model.n_sensors, model.max_attacked)
        assert loaded.subsets == model.subsets
        np.testing.assert_array_equal(loaded.basis, model.basis)
        np.testing.assert_array_equal(loaded.lift, model.lift)
        np.testing.assert_array_equal(loaded.coef, model.coef)
        assert loaded.reports == model.reports

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_model_factors_are_the_learned_factors(self, plant, monkeypatch):
        # learning and the model derive the factors from the basis with one function
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        coef, _, _, basis = learn_lambda(mats)
        calls = []
        pinv = ddmodel._regressor_pinv
        monkeypatch.setattr(ddmodel, "_regressor_pinv",
                            lambda *args: calls.append(args) or pinv(*args))
        model = learn_model(traj, n_sensors, max_attacked, 6, columns)
        assert model.basis.tobytes() == np.ascontiguousarray(basis).tobytes()
        assert (model.regressor == mats.regressor).all() and (model.target == mats.target).all()
        # learn_model hands learn_lambda's coef to the model, which derives no
        # second one; a copy derives its own
        assert len(calls) == 1 and model.coef.tobytes() == coef.tobytes()
        assert dataclasses.replace(model).coef.tobytes() == coef.tobytes() and len(calls) == 2
        assert model.lift.tobytes() == basis[mats.target].tobytes()
        # the model's lambda, lift @ coef, is the stack predictors() gives
        assert (model_lambda(model).tobytes()
                == predictors(basis, mats.regressor, mats.target).tobytes())

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_replaced_basis_derives_its_own_coef(self, models, plant):
        # a model built from another basis of the column space, not orthonormal,
        # holds the factors derived from that basis, not the learned ones
        model = models[plant]
        rank = model.basis.shape[1]
        mixing = np.linalg.qr(np.random.default_rng(4).standard_normal((rank, rank)))[0]
        basis = model.basis @ (mixing * np.geomspace(1, 1e2, rank))
        moved = dataclasses.replace(model, basis=basis)
        assert moved.coef.tobytes() == ddmodel._regressor_pinv(basis, model.regressor).tobytes()
        assert moved.lift.tobytes() == basis[model.target].tobytes()
        assert moved.coef.tobytes() != model.coef.tobytes()

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_basis_of_the_column_space_gives_lambda(self, models, plant, data):
        # lambda depends on the column space alone: U M, M invertible, gives
        # it back within (d + m) eps cond(U[regressor_j]) cond(M) ||lam_j||_F
        # per entry, the first-order error of a minimum-norm solution with
        # the QR's and the products' accumulation folded into d + m
        model = models[plant]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        rank = model.basis.shape[1]
        left, right = (np.linalg.qr(rng.standard_normal((rank, rank)))[0] for _ in range(2))
        spread = np.geomspace(1, data.draw(st.floats(1, 1e3), label="cond"), rank)
        mixing = left @ np.diag(spread) @ right * data.draw(st.floats(1e-3, 1e3), label="scale")
        moved = dataclasses.replace(model, basis=model.basis @ mixing)
        lam = model_lambda(model)
        width = lam.shape[2]
        bound = (width * np.finfo(float).eps * np.linalg.cond(mixing)
                 * np.linalg.cond(model.basis[model.regressor])
                 * np.linalg.norm(lam, axis=(1, 2)))
        assert (np.abs(model_lambda(moved) - lam).max(axis=(1, 2)) <= bound).all()

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_learned_basis_is_orthonormal_well_within_the_load_bound(self, models, plant):
        # a load rejects max |U^T U - I| above 10 W eps; a learned basis sits
        # at least ten times below that
        basis = models[plant].basis
        error = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
        assert error <= basis.shape[0] * np.finfo(float).eps

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4"])
    def test_save_load_save_is_byte_stable(self, tmp_path, plant):
        model = learned(plant)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_learned_model(model, first)
        save_learned_model(load_learned_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_holds_seven_fields_under_12_kb(self, tmp_path):
        # one W x r basis and nothing per subset; the 210 base64 lambdas took
        # 4.1 MB, the per-subset records on top of the basis 49 kB
        path = tmp_path / "model.json"
        save_learned_model(learned("random-10x4"), path)
        assert set(json.loads(path.read_text())) == {"N", "M", "n", "m", "T", "pe_seed",
                                                     "basis"}
        assert path.stat().st_size < 12 * 1024

    @pytest.mark.parametrize("tamper, message", [
        (lambda payload: recode_basis(payload, lambda basis: basis.ravel()[:-1]),
         "field basis is not a 28 x 13 matrix"),
        (lambda payload: recode_basis(payload, lambda basis: basis[:-1]),
         "field basis is not a 28 x 13 matrix"),
        (lambda payload: recode_basis(
            payload, lambda basis: np.concatenate([[np.nan], basis.ravel()[1:]])),
         "basis must be a finite 28 x 13 matrix"),
        (lambda payload: recode_basis(payload, lambda basis: basis[:, :-1]),
         "field basis is not a 28 x 13 matrix"),
        (lambda payload: payload.update(basis=payload["basis"][:-1]),
         "field basis is not a 28 x 13 matrix"),
        (lambda payload: payload.update(basis="not base64!"),
         "field basis is not a 28 x 13 matrix of base64 float64"),
        (lambda payload: payload.update(basis=[[0.0] * 13] * 28),
         "field basis is not a 28 x 13 matrix of base64 float64"),
        (lambda payload: recode_basis(payload, lambda basis: without_sensors(basis, (2, 3))),
         "subset id 3: the basis is rank-deficient on its regressor rows"),
        (lambda payload: recode_basis(payload, lambda basis: basis * (1 + 1e-12)),
         r"model file field basis is not orthonormal: max \|U\^T U - I\| is 2e-12, above "
         r"10 W eps = 6\.22e-14"),
        (to_lambda_format, "model file lists its subsets, an older format that is no longer "
                           "read: re-learn the model"),
        (to_records_format, "model file lists its subsets, an older format that is no longer "
                            "read: re-learn the model"),
        (lambda payload: payload.pop("basis"), "model file has no field 'basis'"),
    ], ids=["short-basis", "missing-row", "nan", "missing-column", "truncated", "not-base64",
            "nested-lists", "rank-deficient", "scaled-basis", "lambda-format", "records-format",
            "no-basis"])
    def test_inconsistent_file_rejected(self, tmp_path, tamper, message):
        _, traj = excited_benchmark_run()
        path = tmp_path / "model.json"
        save_learned_model(learn_model(traj, 3, 1, 6, 41), path)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_learned_model(path)

    @pytest.mark.parametrize("field, value", [
        ("N", 3.5), ("M", True), ("n", 6.5), ("m", 1.5), ("T", True), ("pe_seed", 7.9),
        ("N", "3"), ("M", "1"), ("n", "6"), ("m", "1"), ("T", "41"), ("pe_seed", "7"),
    ], ids=["N-fraction", "M-bool", "n-fraction", "m-fraction", "T-bool", "pe_seed-fraction",
            "N-string", "M-string", "n-string", "m-string", "T-string", "pe_seed-string"])
    def test_non_integral_integer_field_rejected(self, tmp_path, field, value):
        _, traj = excited_benchmark_run()
        path = tmp_path / "model.json"
        save_learned_model(learn_model(traj, 3, 1, 6, 41, pe_seed=7), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="model file has a field of the wrong type: "
                                             ".* is not an integer"):
            load_learned_model(path)

    def test_in_memory_model_checks_its_basis(self, models):
        model = models["benchmark"]
        bad = model.basis.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="basis must be a finite 28 x 13 matrix"):
            dataclasses.replace(model, basis=bad)
        with pytest.raises(ValueError, match=r"basis must be a finite 28 x 13 matrix, "
                                             r"got shape \(28, 12\)"):
            dataclasses.replace(model, basis=model.basis[:, 1:])
        # coef is derived at construction, so that is where a rank-deficient basis
        # fails, as does a handed-in coef that is not finite
        with pytest.raises(ValueError, match="subset id 2: the basis is rank-deficient"):
            dataclasses.replace(model, basis=without_sensors(model.basis, (1, 3)))
        coef = model.coef.copy()
        coef[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="subset id 2: the basis is rank-deficient"):
            DataDrivenModel(model.basis, model.n, model.m, model.n_sensors,
                            model.max_attacked, model.columns, None, coef)

    @pytest.mark.parametrize("name", ["residuals", "reports"])
    def test_model_takes_no_per_subset_argument(self, models, name):
        # a model is its basis and its shape: nothing per subset is handed in
        model = models["benchmark"]
        value = (0.0,) * len(model.subsets) if name == "residuals" else model.reports
        assert list(inspect.signature(DataDrivenModel).parameters) == [
            "basis", "n", "m", "n_sensors", "max_attacked", "columns", "pe_seed", "learned_coef"]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            DataDrivenModel(model.basis, model.n, model.m, model.n_sensors,
                            model.max_attacked, model.columns, **{name: value})
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            dataclasses.replace(model, **{name: value})

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_derived_reports_are_the_learned_reports(self, models, plant):
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        _, _, reports, _ = learn_lambda(mats)
        assert models[plant].reports == reports

    @pytest.mark.parametrize("content, kind", [
        ("[]", "list"), ('["subsets"]', "list"), ("123", "number"), ("null", "null"),
        ('"x"', "string"),
    ], ids=["empty-list", "subsets-list", "number", "null", "string"])
    def test_file_not_an_object_rejected(self, tmp_path, content, kind):
        path = tmp_path / "model.json"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^model file holds a JSON {kind}, not an object$"):
            load_learned_model(path)

    @pytest.mark.parametrize("columns", [-5, 0])
    def test_column_count_below_one_rejected(self, tmp_path, columns):
        _, traj = excited_benchmark_run()
        path = tmp_path / "model.json"
        save_learned_model(learn_model(traj, 3, 1, 6, 41), path)
        payload = json.loads(path.read_text())
        payload["T"] = columns
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file field T is {columns}; it must be "
                                             "at least 1"):
            load_learned_model(path)

    def test_predictor_lookup(self):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 3, 1, 6, 41)
        assert model.subsets == tuple(enumerate_subsets(3, 1))


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
