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
from sentinel.attacks import ReplayAttack, apply_attack, enumerate_subsets
from sentinel.datamat import (
    BLOCK_BYTES,
    Trajectory,
    build_subset_matrices,
    generate_pe_input,
)
from sentinel.ddmodel import (
    DataDrivenModel,
    LearningError,
    _decoder,
    _factor,
    certifying_rank,
    learn_lambda,
    learn_model,
    load_learned_model,
    predict,
    rank_condition,
    save_learned_model,
)
from sentinel.identify import identify_injection
from sentinel.linalg import DEFAULT_TOL, Tolerance, numerical_rank, rank_cutoff
from sentinel.plant import StateSpace, discretize_zoh, msd_benchmark, random_test_system, simulate

from oracles import (
    extended_state_space,
    gathered_stacks,
    model_lambda,
    predictors,
    rank_obsv_oracle,
    reference_hankel_rows,
    regressor_rows,
    ss_to_arx,
    target_rows,
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
    """learn_lambda with every subset's predictor as one S x d x (d + m)
    stack, the one predictors(basis, ...) gives."""
    return predictors(learn_lambda(mats, tol), regressor_rows(mats), target_rows(mats))


# output noise levels of the learning contract (TestLearnModel)
NOISE = (0.0, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8)


def generator_matrices(ss, subset_rows):
    """[input matrix | transition matrix] of the stacked-history companion
    form, the model-based route the learner is checked against."""
    sub = StateSpace(ss.A, ss.B, np.asarray(ss.C)[subset_rows])
    ext = extended_state_space(ss_to_arx(sub))
    return np.hstack([ext.B_ext, ext.A_ext])


class TestRankCondition:
    def test_benchmark_clean_holds_at_certifying_rank(self):
        _, traj = excited_benchmark_run()
        mats = build_subset_matrices(traj, enumerate_subsets(3, 1), 6, 41)
        ranks = rank_condition(mats)
        assert regressor_rows(mats).shape[1] == 19
        assert ranks == (certifying_rank(1, 6),) * 3 == (13,) * 3
        assert all(type(rank) is int for rank in ranks)

    def test_zero_input_fails(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        (rank,) = rank_condition(
            build_subset_matrices(traj, ((1, 2),), 6, 41))
        assert rank == 0 != certifying_rank(1, 6)

    def test_replay_attacked_fails_per_subset(self):
        _, traj = excited_benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        mats = build_subset_matrices(attacked, enumerate_subsets(3, 1), 6, 41)
        observed = {}
        for j, rank in enumerate(rank_condition(mats)):
            assert rank == numerical_rank(gathered_stacks(mats)[0][j])
            observed[mats.subsets[j]] = (rank, rank == certifying_rank(1, 6))
        assert observed[(1, 2)] == (13, True)
        # constant rows both collapse directions and add one the plant
        # cannot produce, so attacked subsets miss 13 from either side
        assert observed[(1, 3)][0] < 13 and not observed[(1, 3)][1]
        assert observed[(2, 3)][0] != 13 and not observed[(2, 3)][1]

    @pytest.mark.parametrize("wide", [False, True], ids=["T<W", "T>=W"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_ranks_equal_per_subset_svd(self, wide, data):
        # the ranks read off one QR and one SVD of the all-sensor Hankel are
        # those of each subset's own gathered stack, with fewer or more columns
        # than the Hankel has rows W, on clean data and with one sensor pinned,
        # from cutoffs far above rounding level down to below it; output noise
        # lifts the factor's rank rho above r, which skips the single-sensor
        # pass, and single-sensor subsets (M = N - 1) of a plant observable
        # only from larger ones leave subsets no certified sensor covers
        tol = Tolerance(rank_rel=data.draw(st.sampled_from((1e-16, 1e-13, 1e-11, 1e-8, 1e-3)),
                                           label="rank_rel"))
        n_sensors = data.draw(st.integers(2, 5), label="N")
        max_attacked = data.draw(st.integers(1, n_sensors - 1) | st.just(n_sensors - 1),
                                 label="M")
        observable = data.draw(st.integers(n_sensors - max_attacked, n_sensors),
                               label="observable from")
        n = data.draw(st.integers(1, 4), label="n")
        sigma = data.draw(st.sampled_from(NOISE), label="noise")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        ss = random_test_system(rng, n, 1, n_sensors, observable)
        width = (n_sensors + 1) * (n + 1)
        columns = data.draw(st.integers(width, 2 * width) if wide else
                            st.integers(1, width - 1), label="T")
        u = rng.uniform(-1, 1, (1, n + columns))
        y = simulate(ss, np.zeros(n), u)[1]
        clean = Trajectory(u, y + sigma * rng.standard_normal(y.shape))
        pinned = ReplayAttack({data.draw(st.integers(1, n_sensors), label="pinned"): 0.01})
        subsets = enumerate_subsets(n_sensors, max_attacked)
        for traj in (clean, apply_attack(clean, pinned, max_attacked=max_attacked)):
            mats = build_subset_matrices(traj, subsets, n, columns)
            assert list(rank_condition(mats, tol)) == [
                numerical_rank(stacked, tol) for stacked in gathered_stacks(mats)[0]]

    def test_unobservable_single_sensor_takes_the_subset_path(self, monkeypatch):
        # the benchmark's sensor 1 sees 4 of its 6 states, so it does not
        # certify alone, and at budget M = 2 subset (1,) holds no certified
        # sensor: after the three single-sensor row sets its rank comes from
        # its own rows, and learning names it with the same text as before
        _, traj = excited_benchmark_run()
        mats = build_subset_matrices(traj, enumerate_subsets(3, 2), 6, 41)
        operands = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        monkeypatch.undo()
        assert operands[1:] == [(3, 13, 13), (1, 13, 13)]
        reason = ("rank certificate failed: data rank 11 is below the certifying rank 13 "
                  "(stacked rows: 13)")
        assert err.value.failures == (((1,), 11, reason),)
        assert str(err.value) == f"subset (1,): {reason}"
        assert list(rank_condition(mats)) == [11, 13, 13] == [
            numerical_rank(stacked) for stacked in gathered_stacks(mats)[0]]

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_cutoff_on_a_singular_value_falls_back(self, plant, monkeypatch):
        # a cutoff placed on one subset's 6th singular value lies within
        # rounding of it, which the truncated factor cannot resolve: the
        # values are then taken from the subsets' rows of the whole factor
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor, regressor = _factor(mats), regressor_rows(mats)
        sigma = np.linalg.svd(factor[regressor], compute_uv=False)
        shape = (regressor.shape[1], columns)
        tol = Tolerance(rank_rel=sigma[-1, 5] / (max(shape) * sigma[-1, 0]))
        operands = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
        ranks = rank_condition(mats, tol)
        monkeypatch.undo()
        assert operands[-1] == (len(mats.subsets), *regressor.shape[1:], factor.shape[1])
        assert list(ranks) == (
            sigma > rank_cutoff(sigma, shape, tol)).sum(axis=1).tolist()

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    @pytest.mark.parametrize("fallback", [False, True], ids=["truncated", "fallback"])
    def test_chunked_gathers_give_the_same_ranks(self, plant, fallback, monkeypatch):
        # the certificate gathers the subsets' rows in chunks of about
        # BLOCK_BYTES; a batched SVD takes each matrix of a stack on its own,
        # so chunks of one or a few subsets give the values of one call, bit
        # for bit, on the rank-rho rows and on the fallback's rows of R^T
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor, regressor = _factor(mats), regressor_rows(mats)
        sigma = np.linalg.svd(factor[regressor], compute_uv=False)
        tol = DEFAULT_TOL
        if fallback:  # a cutoff on a singular value, as in the test above
            shape = (regressor.shape[1], columns)
            tol = Tolerance(rank_rel=sigma[-1, 5] / (max(shape) * sigma[-1, 0]))
        expected = rank_condition(mats, tol)
        width = regressor.shape[1]
        for block in (1, 3 * width * factor.shape[1] * 8):
            operands = []
            svd = np.linalg.svd
            monkeypatch.setattr(datamat, "BLOCK_BYTES", block)
            chunked = ddmodel._regressor_singular_values(factor, regressor)
            monkeypatch.setattr(np.linalg, "svd",
                                lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
            ranks = rank_condition(mats, tol)
            monkeypatch.undo()
            assert ranks == expected
            assert chunked.tobytes() == sigma.tobytes()
            # one SVD of the factor, then chunks of one matrix or of at most
            # `block` bytes: the N single-sensor r x r row sets (rho = r), then
            # the subsets no certified sensor covers, none of them here without
            # fallback and all of them with it, the last from the whole factor
            gathers = operands[1:]
            assert all(count * rows * cols * 8 <= block or count == 1
                       for count, rows, cols in gathers)
            if block == 1:
                rank = certifying_rank(1, 6)
                assert gathers[:n_sensors] == [(1, rank, rank)] * n_sensors
                assert len(gathers) == n_sensors + (2 * len(mats.subsets) if fallback else 0)
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
        regressor = regressor_rows(mats)
        sigma = np.linalg.svd(_factor(mats)[regressor], compute_uv=False)
        shape = (regressor.shape[1], columns)
        tol = Tolerance(rank_rel=np.sqrt(sigma[:, 13].min() * sigma[:, 14].max())
                        / (max(shape) * sigma[:, 0].max()))
        assert (sigma > rank_cutoff(sigma, shape, tol)).sum(axis=1).tolist() == [14] * 3
        assert rank_condition(mats, tol) == (14,) * 3


class TestLearnLambda:
    def test_scalar_system_frozen_value(self):
        # one-state plant A=0.5, B=1, C=1: the predictor maps
        # (u[k], y[k-1], u[k-1]) to (y[k], u[k]) with y[k] = 0.5 y[k-1] + u[k-1]
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        u = np.random.default_rng(0).uniform(-1, 1, (1, 12))
        _, y = simulate(ss, np.zeros(1), u)
        mats = build_subset_matrices(Trajectory(u, y), ((1,),), 1, 10)
        (lam,) = learned_lambda(mats)
        expected = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(lam, expected, atol=1e-8)
        np.testing.assert_allclose(lam, generator_matrices(ss, [0]), atol=1e-8)
        assert rank_condition(mats) == (certifying_rank(1, 1),) == (3,)

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

    def test_rank_failure_embeds_rank(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        mats = build_subset_matrices(traj, ((1, 2),), 6, 41)
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        assert err.value.rank == 0
        assert err.value.subset == (1, 2)

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_one_svd_matches_pinv_and_rank_condition(self, plant):
        # the predictors of the learned basis and the per-subset pinv solution
        # agree on the data: since (lam - lam_p) A = (lam A - B) - (lam_p A -
        # B), the gap is at most the two training misfits. Each product with A
        # is within g(d + m) |.| |A| of exact, g(k) = k u / (1 - k u), and each
        # subtraction adds a relative u, which the eps terms below cover.
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        lam = learned_lambda(mats)
        assert rank_condition(mats) == (certifying_rank(1, 6),) * len(mats.subsets)
        eps = np.finfo(float).eps
        for j, (stacked, target) in enumerate(zip(*gathered_stacks(mats))):
            pinv = np.linalg.pinv(stacked, rcond=DEFAULT_TOL.rank_rel * max(stacked.shape))
            lam_p = target @ pinv
            misfit = np.max(np.abs(target - lam[j] @ stacked))
            misfit_p = np.max(np.abs(target - lam_p @ stacked))
            rounding = (stacked.shape[0] + 2) * eps * np.max(
                (np.abs(lam[j]) + np.abs(lam_p)) @ np.abs(stacked))
            gap = np.max(np.abs((lam[j] - lam_p) @ stacked))
            assert gap <= (misfit + misfit_p) * (1 + eps) + rounding
            assert numerical_rank(stacked) == certifying_rank(1, 6)

    def test_one_svd_of_the_factor_decides_every_rank(self, monkeypatch):
        # learning factors the all-sensor Hankel's R^T once with vectors, takes
        # the basis from it, and settles every subset rank from one batched
        # values-only SVD of the N single-sensor r x rho row sets of its
        # rank-rho part: every sensor certifies, so no subset's rows are taken
        traj, n_sensors, max_attacked, columns = subset_run("random-10x4")
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        factor = _factor(mats)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs:
                            calls.append((a.shape, kwargs)) or svd(a, **kwargs))
        basis = learn_lambda(mats)
        monkeypatch.undo()
        width = min(mats.hankel.shape)
        assert calls[0] == ((mats.hankel.shape[0], width), {"full_matrices": False})
        ((shape, kwargs),) = calls[1:]
        assert kwargs == {"compute_uv": False}
        assert shape == (n_sensors, certifying_rank(1, 6), certifying_rank(1, 6)) and (
            shape[2] < width)
        assert np.array_equal(basis, np.linalg.svd(factor, full_matrices=False)[0][
            :, :certifying_rank(1, 6)])
        assert rank_condition(mats) == (certifying_rank(1, 6),) * len(mats.subsets)

    def test_benchmark_fit_and_validation(self):
        ss, traj = excited_benchmark_run()
        subset = (1, 2)
        mats = build_subset_matrices(traj, (subset,), 6, 41)
        (lam,) = learned_lambda(mats)
        (stacked,), (following,) = gathered_stacks(mats)
        assert np.max(np.abs(lam @ stacked - following)) < 1e-9
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
        subset = (1, 2)
        lam_a = learned_lambda(build_subset_matrices(traj_a, (subset,), 6, 41))[0]
        lam_b = learned_lambda(build_subset_matrices(traj_b, (subset,), 6, 41))[0]
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
            for lam, subset in zip(learned_lambda(mats), mats.subsets):
                gen = generator_matrices(ss, [subset[0] - 1])
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
            subset = (1, 2)
            lam = learned_lambda(build_subset_matrices(Trajectory(u, y), (subset,), n,
                                                       columns))[0]
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
        ranks = rank_condition(mats)
        with pytest.raises(LearningError) as err:
            learn_lambda(mats)
        failures = err.value.failures
        assert 0 < len(failures) < len(mats.subsets)
        positions = [mats.subsets.index(subset) for subset, _, _ in failures]
        assert positions == sorted(positions)
        assert [rank for _, rank, _ in failures] == [ranks[j] for j in positions]

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_misfit_blocks_cover_every_column(self, plant, monkeypatch):
        # learn_model decodes the training columns in blocks of about
        # BLOCK_BYTES, each against its own slacks: the blocks hold every
        # column once, in order, and learning fails just when the largest
        # |a_i| / s_i over all columns exceeds 1. 1e-9 noise on every output
        # makes each column's ratio differ far above rounding; rank_rel 1e-8
        # still cuts the noise directions, and the slack's residual leaves the
        # basis alone, so the ratios scale as 1 / residual
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        noisy = Trajectory(traj.u, traj.y + 1e-9 * np.random.default_rng(3).standard_normal(
            traj.y.shape))
        hankel = build_subset_matrices(noisy, enumerate_subsets(n_sensors, max_attacked), 6,
                                       columns).hankel
        model = learn_model(noisy, max_attacked, 6, columns,
                            Tolerance(rank_rel=1e-8, residual=1e-3))
        unit = Tolerance(rank_rel=1e-8, residual=1.0)
        worst = (np.abs(model.decoder @ hankel) / model.slacks(hankel, unit)).max()
        width = hankel.shape[0]
        slacks = DataDrivenModel.slacks
        for block in (1, 5, 16, columns - 1, columns):
            windows = []
            monkeypatch.setattr(datamat, "BLOCK_BYTES", block * width * 8)
            monkeypatch.setattr(DataDrivenModel, "slacks", lambda self, window, tol:
                                windows.append(window) or slacks(self, window, tol))
            above = Tolerance(rank_rel=1e-8, residual=worst * (1 + 1e-6))
            assert learn_model(noisy, max_attacked, 6, columns, above).basis.tobytes() == (
                model.basis.tobytes())
            assert len(windows) == -(-columns // block)
            assert np.array_equal(np.hstack(windows), hankel)
            below = Tolerance(rank_rel=1e-8, residual=worst * (1 - 1e-6))
            with pytest.raises(LearningError, match="but the training misfit"):
                learn_model(noisy, max_attacked, 6, columns, below)

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
            learn_model(traj, 2, 6, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the Hankel: its two halves while it is assembled, or the copy
        # the QR factors; a block of the training fit decodes N rows and takes
        # the slacks of N n rows of the Hankel's W, each under BLOCK_BYTES
        hankel_bytes = (6 + 1) * (6 + 1) * columns * 8
        assert peak < 2 * hankel_bytes + 3 * BLOCK_BYTES


class TestPredict:
    def test_zero_map(self):
        np.testing.assert_array_equal(predict(np.zeros((3, 5)), np.ones(5)), np.zeros(3))

    @pytest.mark.parametrize("decoder, column", [
        ((3, 5), (6,)),
        ((3, 5), (6, 2)),
        ((5,), (5,)),
        ((2, 3, 5), (5,)),
        ((3, 5), (1, 5, 2)),
        ((3, 5), ()),
    ], ids=["long-column", "long-block", "decoder-vector", "decoder-stacked",
            "block-3d", "scalar"])
    def test_shape_mismatch(self, decoder, column):
        with pytest.raises(ValueError, match="cannot take a column of shape"):
            predict(np.zeros(decoder), np.zeros(column))

    def test_block_is_its_columns(self):
        rng = np.random.default_rng(3)
        decoder, block = rng.standard_normal((4, 6)), rng.standard_normal((6, 7))
        blocked = predict(decoder, block)
        assert blocked.shape == (4, 7) and predict(decoder, block[:, 0]).shape == (4,)
        np.testing.assert_array_equal(blocked, decoder @ block)
        # a block is its columns taken one at a time, to rounding
        np.testing.assert_allclose(blocked, np.stack(
            [predict(decoder, column) for column in block.T], axis=1), rtol=0, atol=1e-13)

    def test_decode_reads_the_newest_output_deviation(self, models):
        # a Hankel column of the plant decodes to zero; adding d to sensor i's
        # newest output decodes to d on sensor i and zero on the others
        ss = benchmark_plant()
        model = models["benchmark"]
        u = np.random.default_rng(5).uniform(-1, 1, (1, 20))
        _, y = simulate(ss, np.zeros(6), u)
        column = datamat.trajectory_hankel(Trajectory(u, y), 10, 7, 1)[:, 0]
        # the screen's rounding bound W eps ||K_i|| ||h||
        bound = 28 * np.finfo(float).eps * np.linalg.norm(model.decoder, axis=1) * np.linalg.norm(
            column)
        assert (np.abs(predict(model.decoder, column)) <= bound).all()
        for sensor in range(3):
            moved = column.copy()
            moved[18 + sensor] += 0.25
            expected = np.where(np.arange(3) == sensor, 0.25, 0.0)
            np.testing.assert_allclose(predict(model.decoder, moved), expected, atol=1e-14)


class TestLearnModel:
    def test_benchmark_model(self):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 1, 6, 41, pe_seed=7)
        assert model.basis.shape == (28, 13) and model.decoder.shape == (3, 28)
        # the basis and the decoder, set at construction, are the only
        # arrays; no lambda stack or membership matrix is kept, and nothing
        # per subset is learned
        assert {name for name, value in vars(model).items()
                if isinstance(value, np.ndarray)} == {"basis", "decoder"}
        assert {"residuals", "reports", "regressor", "target", "members"}.isdisjoint(
            vars(model))
        assert all(np.shape(value) != (3, 18, 19) for value in vars(model).values())
        assert not hasattr(model, "reports")
        mats = build_subset_matrices(traj, model.subsets, 6, 41)
        assert rank_condition(mats) == (model.basis.shape[1],) * 3
        assert model.subsets == ((1, 2), (1, 3), (2, 3))
        assert model.pe_seed == 7

    def test_zero_input_error_lists_every_subset_below_rank(self):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        with pytest.raises(LearningError) as err:
            learn_model(traj, 1, 6, 41)
        assert [s for s, _, _ in err.value.failures] == [(1, 2), (1, 3), (2, 3)]
        assert err.value.subset == (1, 2) and err.value.rank == 0
        assert str(err.value).count("data rank 0 is below the certifying rank 13") == 3
        assert str(err.value).startswith("subset (1, 2): rank certificate failed: data rank 0 ")

    def test_output_noise_error_says_rank_is_above(self):
        _, traj = excited_benchmark_run()
        noise = 1e-8 * np.random.default_rng(0).standard_normal(traj.y.shape)
        with pytest.raises(LearningError) as err:
            learn_model(Trajectory(traj.u, traj.y + noise), 1, 6, 41)
        assert err.value.rank == 19
        for subset, rank, _ in err.value.failures:
            assert rank > certifying_rank(1, 6) == 13
            assert f"subset {subset}: rank certificate failed: data rank " \
                f"{rank} is above the certifying rank 13" in str(err.value)

    @pytest.mark.parametrize("columns, sigma, outcome", [
        *zip([41] * 8, NOISE, ["pass"] * 4 + ["rank"] * 4),
        *zip([400] * 8, NOISE, ["pass"] * 5 + ["misfit"] + ["rank"] * 2)])
    def test_output_noise_limit(self, columns, sigma, outcome):
        # learning's contract under N(0, sigma^2) output noise on the seed-7
        # recording: T = 41 learns up to 1e-10, and noise lifts the data rank
        # above 13 from 3e-10; T = 400 learns up to 3e-10, its training misfit
        # exceeds the slack at 1e-9, and its rank is lifted from 3e-9
        _, traj = excited_benchmark_run(columns=columns)
        noise = sigma * np.random.default_rng(3).standard_normal(traj.y.shape)
        noisy = Trajectory(traj.u, traj.y + noise)
        if outcome == "pass":
            model = learn_model(noisy, 1, 6, columns)
            assert model.columns == columns and identify_injection(model, noisy).all_clear
            return
        with pytest.raises(LearningError) as err:
            learn_model(noisy, 1, 6, columns)
        expected = {"rank": "rank certificate failed: data rank 1",
                    "misfit": "meets the certifying rank, but the training misfit"}[outcome]
        assert all(expected in line for line in str(err.value).splitlines())

    def test_misfit_error_says_rank_holds(self):
        _, traj = excited_benchmark_run()
        with pytest.raises(LearningError) as err:
            learn_model(traj, 1, 6, 41, tol=Tolerance(residual=1e-30))
        assert len(err.value.failures) == 3 and err.value.rank == certifying_rank(1, 6)
        assert str(err.value).count("meets the certifying rank, but the training misfit") == 3

    def test_a_misfit_that_is_not_a_number_fails(self, monkeypatch):
        # a NaN ratio is not within the slack: it fails every subset that
        # holds its sensor, as a ratio above 1 does
        _, traj = excited_benchmark_run()
        slacks = DataDrivenModel.slacks

        def nan_for_sensor_2(self, columns, tol):
            values = slacks(self, columns, tol)
            values[1] = np.nan
            return values

        monkeypatch.setattr(DataDrivenModel, "slacks", nan_for_sensor_2)
        with pytest.raises(LearningError) as err:
            learn_model(traj, 1, 6, 41)
        reason = ("data rank 13 meets the certifying rank, but the training misfit of sensor 2 "
                  "reaches nan times its slack")
        assert err.value.failures == (((1, 2), 13, reason), ((2, 3), 13, reason))

    @pytest.mark.parametrize("case, rank, reasons", [
        ("zero-input", 0, ["rank certificate failed: data rank 0 is below the certifying "
                           "rank 13 (stacked rows: 19)"] * 3),
        ("noise-1e-8", 19, ["rank certificate failed: data rank 19 is above the certifying "
                            "rank 13 (stacked rows: 19)"] * 3),
        ("misfit", 13, [f"data rank 13 meets the certifying rank, but the training misfit of "
                        f"sensor {sensor} reaches {ratio} times its slack"
                        for sensor, ratio in ((1, "4.24e+13"), (1, "4.24e+13"),
                                              (2, "8.22e+13"))]),
    ])
    def test_error_is_pinned(self, case, rank, reasons):
        # the whole error, as sentinel learn prints it, of a learn below the
        # certifying rank, one above it and one that fails the misfit check:
        # the (subset, rank, reason) failures and the message they make
        _, traj = excited_benchmark_run()
        noise = 1e-8 * np.random.default_rng(0).standard_normal(traj.y.shape)
        learn = {"zero-input": lambda: learn_model(
                     Trajectory(np.zeros((1, 48)), np.zeros((3, 48))), 1, 6, 41),
                 "noise-1e-8": lambda: learn_model(Trajectory(traj.u, traj.y + noise), 1, 6, 41),
                 "misfit": lambda: learn_model(traj, 1, 6, 41, tol=Tolerance(residual=1e-30))}
        with pytest.raises(LearningError) as err:
            learn[case]()
        subsets = ((1, 2), (1, 3), (2, 3))
        assert err.value.failures == tuple(zip(subsets, (rank,) * 3, reasons))
        assert all(type(entry[1]) is int for entry in err.value.failures)
        assert (err.value.subset, err.value.rank) == ((1, 2), rank)
        assert str(err.value) == "\n".join(
            f"subset {subset}: {reason}" for subset, reason in zip(subsets, reasons))

    def test_model_that_alarms_on_its_training_columns_is_rejected(self):
        # noise that lifts one training column's decode of sensor 2 just
        # above that column's slack, the rule the monitor names a sensor by:
        # a model learned from it would name sensor 2 attacked on this
        # attack-free recording, so learning refuses it
        u = np.hstack([np.zeros((1, 6)), generate_pe_input(1, 1000, 19, 2).u,
                       np.zeros((1, 1))])
        y = simulate(benchmark_plant(), np.zeros(6), u)[1]
        noisy = Trajectory(u, y + 3e-10 * np.random.default_rng(102).standard_normal(y.shape))
        with pytest.raises(LearningError) as err:
            learn_model(noisy, 1, 6, 1000)
        assert [subset for subset, _, _ in err.value.failures] == [(1, 2), (2, 3)]
        assert str(err.value).count("meets the certifying rank, but the training misfit of "
                                    "sensor 2 reaches 1.") == 2

    def test_one_learn_derives_one_decoder(self, monkeypatch):
        # learning builds its matrices and certifies once, and checks the
        # training fit with the decoder of the model it returns
        _, traj = excited_benchmark_run()
        calls = dict.fromkeys(("build_subset_matrices", "learn_lambda", "_decoder"), 0)
        for name in calls:
            def counted(*args, _name=name, _function=getattr(ddmodel, name), **kwargs):
                calls[_name] += 1
                return _function(*args, **kwargs)
            monkeypatch.setattr(ddmodel, name, counted)
        learn_model(traj, 1, 6, 41)
        assert calls == {"build_subset_matrices": 1, "learn_lambda": 1, "_decoder": 1}

    def test_a_generic_learn_takes_n_plus_one_certificate_svds(self, monkeypatch):
        # a random (10, 4) learn: the SVD of R^T, one stack of the N
        # single-sensor r x r row sets, and the decoder's SVD; no S-stack
        traj, n_sensors, max_attacked, columns = subset_run("random-10x4")
        operands = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kwargs: operands.append(a.shape) or svd(a, **kwargs))
        model = learn_model(traj, max_attacked, 6, columns)
        monkeypatch.undo()
        width = (n_sensors + 1) * 7
        rank = certifying_rank(1, 6)
        assert len(model.subsets) == 210
        assert operands == [(width, min(width, columns)), (n_sensors, rank, rank),
                            (width, n_sensors)]


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
    lam = predictors(basis, *reference_hankel_rows(3, enumerate_subsets(3, 1), 6, 1))
    to_records_format(payload)
    payload["subsets"] = [dict(entry, **{"lambda": base64.b64encode(matrix.tobytes()).decode()})
                          for entry, matrix in zip(SUBSET_RECORDS, lam)]


def with_newest_output(basis, sensor=1, n_sensors=3, n=6):
    """An orthonormal basis of the span of basis' first r - 1 columns and the
    unit vector at sensor's newest output row, N n + sensor - 1: a basis
    that leaves that output undetermined, sigma_min(P E) = 0 to rounding."""
    unit = np.zeros(basis.shape[0])
    unit[n_sensors * n + sensor - 1] = 1.0
    return np.linalg.qr(np.column_stack([unit, basis[:, :-1]]))[0]


def learned(plant):
    """The model learned from subset_run(plant)."""
    traj, n_sensors, max_attacked, columns = subset_run(plant)
    return learn_model(traj, max_attacked, 6, columns, pe_seed=7)


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
        np.testing.assert_array_equal(loaded.decoder, model.decoder)

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_model_decoder_is_derived_from_the_learned_basis(self, plant):
        # the model holds learning's basis and derives its decoder from it; its
        # predictors, which it never forms, are the stack predictors() gives
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        basis = learn_lambda(mats)
        model = learn_model(traj, max_attacked, 6, columns)
        assert model.basis.tobytes() == np.ascontiguousarray(basis).tobytes()
        assert model.decoder.tobytes() == _decoder(basis, n_sensors, 6).tobytes()
        assert dataclasses.replace(model).decoder.tobytes() == model.decoder.tobytes()
        assert (model_lambda(model).tobytes()
                == predictors(basis, regressor_rows(mats), target_rows(mats)).tobytes())

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
        regressor, target = reference_hankel_rows(model.n_sensors, model.subsets, model.n,
                                                  model.m)
        lam = model_lambda(model)
        width = lam.shape[2]
        bound = (width * np.finfo(float).eps * np.linalg.cond(mixing)
                 * np.linalg.cond(model.basis[regressor])
                 * np.linalg.norm(lam, axis=(1, 2)))
        moved = predictors(model.basis @ mixing, regressor, target)
        assert (np.abs(moved - lam).max(axis=(1, 2)) <= bound).all()

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_learned_basis_is_orthonormal_well_within_the_load_bound(self, models, plant):
        # a model rejects max |U^T U - I| above 10 W eps; a learned basis sits
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
        (lambda payload: recode_basis(payload, with_newest_output),
         r"model file field basis leaves the newest outputs undetermined: sigma_min\(P E\) "
         r"is .*, at most W eps = 6\.22e-15"),
        (lambda payload: recode_basis(payload, lambda basis: basis * (1 + 1e-12)),
         r"model file field basis is not orthonormal: max \|U\^T U - I\| is 2e-12, above "
         r"10 W eps = 6\.22e-14"),
        (to_lambda_format, "model file lists its subsets, an older format that is no longer "
                           "read: re-learn the model"),
        (to_records_format, "model file lists its subsets, an older format that is no longer "
                            "read: re-learn the model"),
        (lambda payload: payload.pop("basis"), "model file has no field 'basis'"),
    ], ids=["short-basis", "missing-row", "nan", "missing-column", "truncated", "not-base64",
            "nested-lists", "newest-output", "scaled-basis", "lambda-format", "records-format",
            "no-basis"])
    def test_inconsistent_file_rejected(self, tmp_path, tamper, message):
        _, traj = excited_benchmark_run()
        path = tmp_path / "model.json"
        save_learned_model(learn_model(traj, 1, 6, 41), path)
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
        save_learned_model(learn_model(traj, 1, 6, 41, pe_seed=7), path)
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

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_one_basis_rule_for_models_and_files(self, models, tmp_path, plant, loaded):
        # the decoder is a projection only for an orthonormal basis, and it
        # exists only where P E has full column rank: the constructor rejects
        # a scaled or mixed basis and one holding a newest-output unit vector,
        # and a load does so through it, naming the file's field
        model = models[plant]
        rank = model.basis.shape[1]
        mixing = np.linalg.qr(np.random.default_rng(4).standard_normal((rank, rank)))[0]
        cases = [(model.basis @ (mixing * np.geomspace(1, 1e2, rank)), "is not orthonormal"),
                 (2 * model.basis, "is not orthonormal"),
                 (model.basis @ mixing, None),
                 (with_newest_output(model.basis, model.n_sensors, model.n_sensors, 6),
                  r"leaves the newest outputs undetermined: sigma_min\(P E\) is \S+, at most "
                  r"W eps")]
        for basis, message in cases:
            if message is None:  # another orthonormal basis of the span decodes as this one
                moved = dataclasses.replace(model, basis=basis)
                assert np.abs(moved.decoder - model.decoder).max() < 1e-13
                continue
            with pytest.raises(ValueError, match=f"^basis {message}"):
                dataclasses.replace(model, basis=basis)
            if loaded:
                payload = {"N": model.n_sensors, "M": model.max_attacked, "n": 6, "m": 1,
                           "T": model.columns, "pe_seed": None,
                           "basis": base64.b64encode(basis.astype("<f8").tobytes()).decode()}
                path = tmp_path / "model.json"
                path.write_text(json.dumps(payload))
                with pytest.raises(ValueError, match=f"^model file field basis {message}"):
                    load_learned_model(path)

    @pytest.mark.parametrize("name", ["residuals", "reports"])
    def test_model_takes_no_per_subset_argument(self, models, name):
        # a model is its basis and its shape: nothing per subset is handed in
        model = models["benchmark"]
        value = (0.0 if name == "residuals" else 13,) * len(model.subsets)
        assert list(inspect.signature(DataDrivenModel).parameters) == [
            "basis", "n", "m", "n_sensors", "max_attacked", "columns", "pe_seed"]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            DataDrivenModel(model.basis, model.n, model.m, model.n_sensors,
                            model.max_attacked, model.columns, **{name: value})
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            dataclasses.replace(model, **{name: value})

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-6x2"])
    def test_model_rank_is_every_subset_rank(self, models, plant):
        # a learned model exists only when every subset certifies: each
        # subset's rank is the basis' column count
        traj, n_sensors, max_attacked, columns = subset_run(plant)
        mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), 6,
                                     columns)
        model = models[plant]
        assert rank_condition(mats) == (model.basis.shape[1],) * len(model.subsets)

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
        save_learned_model(learn_model(traj, 1, 6, 41), path)
        payload = json.loads(path.read_text())
        payload["T"] = columns
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file field T is {columns}; it must be "
                                             "at least 1"):
            load_learned_model(path)

    @pytest.mark.parametrize("field, value", [("n", 0), ("m", 0), ("n", -1)])
    def test_order_and_input_count_below_one_rejected(self, tmp_path, field, value):
        # N = 3, M = 1 with an orthonormal basis of the shape the fields give,
        # clear of the newest output rows, which would load if n or m were not checked
        _, traj = excited_benchmark_run()
        path = tmp_path / "model.json"
        save_learned_model(learn_model(traj, 1, 6, 41), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        n, m = payload["n"], payload["m"]
        if n >= 0:
            width, rank = (3 + m) * (n + 1), m * (n + 1) + n
            basis = np.eye(width)[:, width - rank:] if n == 0 else np.eye(width)[:, :rank]
            payload["basis"] = base64.b64encode(basis.astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file field {field} is {value}; it must be "
                                             "at least 1"):
            load_learned_model(path)

    def test_predictor_lookup(self):
        _, traj = excited_benchmark_run()
        model = learn_model(traj, 1, 6, 41)
        assert model.subsets == tuple(enumerate_subsets(3, 1))


class TestRankOracle:
    def test_benchmark_observability_factor(self):
        ss, traj = excited_benchmark_run()
        report = rank_obsv_oracle(ss, (1, 2), 6, traj, columns=41)
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
        report = rank_obsv_oracle(ss, (1, 2), 2, traj)
        n, q = 2, 2
        assert report.rank_obs < n
        assert report.observed_rank < n * q
        assert report.bound_holds

    def test_depth_one_toeplitz_is_zero(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0], [2.0]])
        u = np.random.default_rng(3).uniform(-1, 1, (1, 10))
        _, y = simulate(ss, np.zeros(1), u)
        report = rank_obsv_oracle(ss, (1, 2), 1, Trajectory(u, y))
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
