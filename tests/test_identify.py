import contextlib
import dataclasses
import importlib.util
import io
import json
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    gathered_stacks,
    reference_history,
    reference_injection_bootstrap,
    reference_injection_step,
)

from sentinel.attacks import (
    DelayAttack,
    ReplayAttack,
    apply_attack,
    enumerate_subsets,
)
from sentinel.datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    build_subset_matrices,
    generate_pe_input,
    hankel_rows,
    load_trajectory,
    trajectory_hankel,
)
from sentinel import cli, datamat, identify
from sentinel.ddmodel import (
    DataDrivenModel,
    learn_model,
    load_learned_model,
    predict,
    save_learned_model,
)
from sentinel.identify import (
    IdentificationVerdict,
    InjectionMonitor,
    NoResponseError,
    first_response,
    identify_delay,
    identify_injection,
    identify_replay,
    injection_bootstrap,
    injection_step,
    run_injection,
    verdict_to_dict,
)
from sentinel.linalg import DEFAULT_TOL, Tolerance
from sentinel.plant import (
    StateSpace,
    discretize_zoh,
    msd_benchmark,
    random_test_system,
    relative_degree,
    simulate,
)


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_plant(scale_c=1.0):
    ss = discretize_zoh(msd_benchmark(), 1.3)
    if scale_c == 1.0:
        return ss
    return StateSpace(ss.A, ss.B, np.asarray(ss.C) * scale_c)


def excited_run(ss, n, columns, order, seed):
    sig = generate_pe_input(ss.input_dim, columns, order, seed)
    fill = np.random.default_rng(seed + 1).uniform(-1, 1, (ss.input_dim, n + 1))
    u = np.hstack([fill[:, :n], sig.u, fill[:, n:]])
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    return Trajectory(u, y)


def benchmark_model(seed=7):
    ss = benchmark_plant()
    traj = excited_run(ss, 6, 41, 19, seed)
    return ss, learn_model(traj, 1, 6, 41, pe_seed=seed)


def histories(monitor):
    """Every subset's stacked history in the monitor column, S x d."""
    model = monitor.model
    regressor = hankel_rows(model.n_sensors, model.subsets, model.n, model.m)
    return monitor.column[regressor][:, model.m:]


def decode_bound(model, column):
    """The screen's rounding bound beta_i = W eps ||K_i|| ||h|| of a decode of
    the Hankel column h, per sensor (identify._screen_clear_steps)."""
    width = model.basis.shape[0]
    return (width * np.finfo(float).eps * np.linalg.norm(model.decoder, axis=1)
            * np.linalg.norm(column))


def assert_same_verdict(verdict, expected, model, traj):
    """identify_injection's verdict against the step loop's: the same
    decisions. The screen hands the step loop's history over as recorded,
    while the step loop re-anchored it by its own decodes, which moved a
    decode by at most 0.11 beta_i on the benchmark streams; with both
    decodes' rounding each score, the norm of q = N - M decodes, is within
    4 sqrt(q) beta of the other at the verdict's step."""
    assert (verdict.k, verdict.mode, verdict.subsets, verdict.winners) == (
        expected.k, expected.mode, expected.subsets, expected.winners)
    assert type(verdict.k) is int
    column = trajectory_hankel(traj, verdict.k - 1 - model.n, model.n + 1, 1)[:, 0]
    bound = 4 * np.sqrt(model.n_sensors - model.max_attacked) * decode_bound(model, column).max()
    assert np.abs(np.subtract(verdict.scores, expected.scores)).max() <= bound


def online_setup(ss, model, seed=11):
    boot_u = np.random.default_rng(seed).uniform(-1, 1, (1, model.n))
    states, boot_y = simulate(ss, np.zeros(ss.state_dim), boot_u)
    monitor = injection_bootstrap(model, boot_u, boot_y)
    return monitor, states[:, -1]


class TestInjectionBootstrap:
    def test_scalar_state_layout(self):
        ss = StateSpace([[0.5]], [[1.0]], [[1.0]])
        u = np.random.default_rng(0).uniform(-1, 1, (1, 10))
        _, y = simulate(ss, np.zeros(1), u)
        model = learn_model(Trajectory(u, y), 0, 1, 8)
        monitor = injection_bootstrap(model, [[3.0]], [[4.0]])
        np.testing.assert_array_equal(histories(monitor)[0], [4.0, 3.0])
        assert monitor.k == 1

    def test_equilibrium_history_gives_zero_states(self):
        _, model = benchmark_model()
        monitor = injection_bootstrap(model, np.zeros((1, 6)), np.zeros((3, 6)))
        assert np.all(histories(monitor) == 0.0)

    def test_matches_data_matrix_columns(self):
        ss, model = benchmark_model()
        u = np.random.default_rng(2).uniform(-1, 1, (1, 10))
        _, y = simulate(ss, np.zeros(6), u)
        monitor = injection_bootstrap(model, u[:, :6], y[:, :6])
        mats = build_subset_matrices(Trajectory(u, y), model.subsets, 6, 4)
        np.testing.assert_array_equal(histories(monitor), gathered_stacks(mats)[0][:, 1:, 0])

    def test_history_shape_validation(self):
        _, model = benchmark_model()
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 5)), np.zeros((3, 6)))
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 6)), np.zeros((2, 6)))
        with pytest.raises(ValueError, match="y_history must be real"):
            injection_bootstrap(model, np.zeros((1, 6)), np.zeros((3, 6), dtype=complex))

    @pytest.mark.parametrize("attack", [False, True], ids=["clean", "attacked"])
    def test_directly_built_monitor_equals_bootstrapped(self, monitored_plants, attack):
        ss, model = monitored_plants["random-6x2"]
        attacked = (2, 5) if attack else ()
        u, y = monitor_stream(ss, model, 40, 19, attacked, onset=30)
        n = model.n
        direct = InjectionMonitor(model, trajectory_hankel(Trajectory(u, y), 0, n + 1, 1)[:, 0], n)
        booted = injection_bootstrap(model, u[:, :n], y[:, :n])
        for k in range(n, u.shape[1]):
            verdict = injection_step(direct, u[:, k], y[:, k])
            assert verdict == injection_step(booted, u[:, k], y[:, k])
            if not verdict.all_clear:
                break
        assert direct.k == booted.k
        assert verdict.all_clear != attack
        assert np.array_equal(direct.column, booted.column)

    def test_direct_monitor_keeps_its_own_column(self, monitored_plants):
        ss, model = monitored_plants["random-5x2-m2"]
        traj, n = offset_stream(ss, model, 10, 3), model.n
        column = trajectory_hankel(traj, 0, n + 1, 1)[:, 0]
        given_column = column.copy()
        monitor = InjectionMonitor(model, column, n)
        assert run_injection(monitor, traj.u[:, n:], traj.y[:, n:]).all_clear
        assert np.array_equal(column, given_column)
        assert not np.array_equal(monitor.column, given_column)

    def test_column_length_validation(self):
        _, model = benchmark_model()
        with pytest.raises(ValueError, match="column must have length 28"):
            InjectionMonitor(model, np.zeros(27), 6)


class TestInjectionStep:
    def test_clean_steps_stay_all_clear(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        rng = np.random.default_rng(3)
        for _ in range(30):
            y_k = ss.C @ x
            u_k = rng.uniform(-1, 1, 1)
            verdict = injection_step(monitor, u_k, y_k)
            x = ss.A @ x + ss.B @ u_k
            assert verdict.all_clear
            assert verdict.winners == (1, 2, 3)
            assert verdict.attack_free_sensors == (1, 2, 3)
            for score in verdict.scores:
                assert score < 1e-8

    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2"])
    def test_more_than_m_named_sensors_leave_no_winner(self, monitored_plants, name):
        # offsets on M + 1 sensors: every subset of N - M sensors holds one of
        # them, so none wins and no sensor is named attack-free
        ss, model = monitored_plants[name]
        attacked = tuple(range(1, model.max_attacked + 2))
        u, y = monitor_stream(ss, model, 30, 19, attacked, onset=20)
        verdict = step_loop_verdict(model, Trajectory(u, y))
        assert verdict.k == model.n + 21
        assert (verdict.winners, verdict.attack_free_sensors, verdict.all_clear) == ((), (), False)
        assert identify_injection(model, Trajectory(u, y)).winners == ()
        # with M of them offset, the winners are the subsets that avoid them
        u, y = monitor_stream(ss, model, 30, 19, attacked[:-1], onset=20)
        verdict = step_loop_verdict(model, Trajectory(u, y))
        assert verdict.attack_free_sensors == tuple(range(model.max_attacked + 1,
                                                          model.n_sensors + 1))

    def test_attacked_sample_isolates_clean_subset(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        rng = np.random.default_rng(4)
        # a few clean steps first
        for _ in range(5):
            u_k = rng.uniform(-1, 1, 1)
            injection_step(monitor, u_k, ss.C @ x)
            x = ss.A @ x + ss.B @ u_k
        delta = 0.8
        plant_y = ss.C @ x
        y_k = plant_y.copy()
        y_k[2] += delta
        verdict = injection_step(monitor, rng.uniform(-1, 1, 1), y_k)
        assert not verdict.all_clear
        assert verdict.winners == (1,)
        assert verdict.attack_free_sensors == (1, 2)
        by_id = dict(enumerate(verdict.scores, 1))
        assert by_id[1] < 1e-8
        assert by_id[2] >= delta * (1 - 1e-6)
        assert by_id[3] >= delta * (1 - 1e-6)
        # the alarm step re-anchors too: delta leaves the history, which ends
        # in the plant's own outputs
        n, n_sensors = model.n, model.n_sensors
        newest_history = monitor.column[n_sensors * (n - 1): n_sensors * n]
        bound = 4 * decode_bound(model, monitor.column).max()
        np.testing.assert_allclose(newest_history, plant_y, rtol=0, atol=bound)
        assert monitor.k == 12

    def test_zero_attack_sample_is_invisible(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        y_k = ss.C @ x
        y_k[2] += 0.0
        verdict = injection_step(monitor, [0.3], y_k)
        assert verdict.all_clear

    def test_soundness_over_random_attacks(self):
        # any nonzero corruption of one sensor puts its delta into every
        # subset containing it, verbatim, while clean subsets stay exact
        ss, model = benchmark_model()
        rng = np.random.default_rng(6)
        for trial in range(10):
            monitor, x = online_setup(ss, model, seed=100 + trial)
            sensor = int(rng.integers(1, 4))
            delta = float(rng.uniform(0.1, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            y_k = ss.C @ x
            y_k[sensor - 1] += delta
            verdict = injection_step(monitor, rng.uniform(-1, 1, 1), y_k)
            for subset, score in zip(verdict.subsets, verdict.scores):
                if sensor in subset:
                    assert score >= abs(delta) * (1 - 1e-6)
                else:
                    assert score < 1e-8

    def test_dimension_validation(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        with pytest.raises(ValueError):
            injection_step(monitor, [0.1, 0.2], ss.C @ x)
        with pytest.raises(ValueError):
            injection_step(monitor, [0.1], np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channel", ["u_k", "y_new"])
    def test_non_finite_sample_rejected_without_advancing(self, bad, channel):
        ss, model = benchmark_model()
        booted, x = online_setup(ss, model)
        direct = InjectionMonitor(model, booted.column, booted.k)
        u_k, y_k = np.array([0.2]), ss.C @ x
        if channel == "u_k":
            u_k[0] = bad
        else:
            y_k[0] = bad
        for monitor in (booted, direct):
            column = monitor.column.copy()
            with pytest.raises(ValueError, match=channel):
                injection_step(monitor, u_k, y_k)
            assert monitor.k == 6
            np.testing.assert_array_equal(monitor.column, column)
            # nothing of the rejected sample stays: a clean one scores as on a fresh monitor
            fresh, _ = online_setup(ss, model)
            assert (injection_step(monitor, [0.2], ss.C @ x)
                    == injection_step(fresh, [0.2], ss.C @ x))

    @pytest.mark.parametrize("channel", ["u_k", "y_new"])
    def test_complex_sample_rejected_without_advancing(self, channel):
        # a cast to float would drop the imaginary part and decode the rest
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        column = monitor.column.copy()
        sample = {"u_k": np.array([0.2]), "y_new": ss.C @ x}
        sample[channel] = sample[channel] + 1j
        with pytest.raises(ValueError, match=f"^{channel} must be real"):
            injection_step(monitor, sample["u_k"], sample["y_new"])
        assert monitor.k == 6
        np.testing.assert_array_equal(monitor.column, column)

    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2"])
    def test_step_calls_module_predict_once(self, monitored_plants, monkeypatch, name):
        # perfbench's tracer wraps sentinel.identify.predict and takes the median
        # of its spans over clean monitor steps: a clean step that bound predict
        # elsewhere, or skipped it, would leave that metric without a sample
        ss, model = monitored_plants[name]
        calls, steps = [], []

        def counting_predict(*args):
            calls.append(args)
            return predict(*args)

        def counting_step(*args):
            before = len(calls)
            verdict = step(*args)
            steps.append(len(calls) - before)
            return verdict

        monkeypatch.setattr(identify, "predict", counting_predict)
        u, y = monitor_stream(ss, model, 210, 5)
        n = model.n
        monitor = injection_bootstrap(model, u[:, :n], y[:, :n])
        for k in range(n, n + 200):
            assert injection_step(monitor, u[:, k], y[:, k]).all_clear
            assert len(calls) == k - n + 1
        # an alarm step and the steps after it, alarms or not, decode once each too
        y[0, n + 200: n + 205] += 0.9
        for k in range(n + 200, n + 210):
            assert injection_step(monitor, u[:, k], y[:, k]).all_clear == (k >= n + 205)
            assert len(calls) == k - n + 1
        # identify_injection's handover loop: one predict per step and none in
        # the screen, whether the screen hands over at the attack or (with a
        # slack under its rounding bound) at the first step
        step = identify.injection_step
        monkeypatch.setattr(identify, "injection_step", counting_step)
        attacked = offset_stream(ss, model, 200, 5, model.n_sensors, n + 150, 0.9)
        for tol in (DEFAULT_TOL, Tolerance(residual=1e-13)):
            calls.clear()
            steps.clear()
            verdict = identify_injection(model, attacked, tol)
            assert verdict.k == n + 151 and not verdict.all_clear
            assert steps == [1] * len(steps) and len(calls) == len(steps)
        assert len(steps) == 151


def closed_loop_stream(ss, x, steps, seed, attack_at=None):
    """Online samples from state x, with sensor 3 offset by 0.9 from attack_at on."""
    u = np.random.default_rng(seed).uniform(-1, 1, (1, steps))
    _, y = simulate(ss, x, u)
    if attack_at is not None:
        y[2, attack_at:] += 0.9
    return u, y


def plant_and_model(n_sensors, max_attacked, seed, n=6, m=1):
    """Random n-state, m-input plant (fixed draw per seed) and its learned model."""
    ss = random_test_system(np.random.default_rng(seed), n, m, n_sensors,
                            n_sensors - max_attacked)
    order = (m + n_sensors - max_attacked) * n + 1
    traj = excited_run(ss, n, (m + 1) * order, order, seed)
    return ss, learn_model(traj, max_attacked, n, (m + 1) * order)


@pytest.fixture(scope="module")
def monitored_plants():
    return {"benchmark": benchmark_model(),
            "random-10x4": plant_and_model(10, 4, 0),
            "random-6x2": plant_and_model(6, 2, 1),
            "random-5x2-m2": plant_and_model(5, 2, 2, n=3, m=2)}


def monitor_stream(ss, model, length, seed, attacked=(), onset=None):
    """n bootstrap samples then `length` online ones from equilibrium; the
    attacked sensors get uniform(0.5, 1) offsets from `onset` on."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, (1, model.n + length))
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    for sensor in attacked:
        y[sensor - 1, model.n + onset:] += rng.uniform(0.5, 1.0, length - onset)
    return u, y


def newest_rows(model):
    """The newest output rows of the model's Hankel column."""
    return slice(model.n_sensors * model.n, model.n_sensors * (model.n + 1))


def step_column(monitor, u_k, y_k):
    """A copy of the monitor's column with (u_k, y_k) written into its
    newest sample, the column the step that takes them decodes."""
    model = monitor.model
    column = monitor.column.copy()
    column[newest_rows(model)] = y_k
    column[-model.m:] = u_k
    return column


def score_bounds(monitor, reference, u_k, y_k):
    """Per subset, a bound on the gap between injection_step's score and the
    λ-form reference's at the step that takes (u_k, y_k). Both are within
    rounding of the exact deviation of their own histories: the decode
    within (W eps / 2) ||K_i|| ||h|| per sensor, the λ form within (d + m)
    eps ||lam_j||_F ||x_j||, x_j = [u_k; history_j]. Four times the
    decode's beta plus the λ term holds the sum of the two. The two
    histories differ by the two sides' earlier re-anchoring (the drift),
    which moves subset j's exact deviation by at most ||lam_j||_2 times
    the gap between the two histories before the step; that term is added
    as measured."""
    model = monitor.model
    column = step_column(monitor, u_k, y_k)
    lam = reference.lam
    states = np.array([reference.states[j] for j, _ in enumerate(model.subsets, 1)])
    regressors = np.hstack([np.broadcast_to(u_k, (len(states), model.m)), states])
    drift = (np.linalg.norm(lam, ord=2, axis=(1, 2))
             * np.linalg.norm(histories(monitor) - states, axis=1))
    return drift + 4 * (decode_bound(model, column).max() + lam.shape[2] * np.finfo(float).eps
                        * np.linalg.norm(lam, axis=(1, 2)) * np.linalg.norm(regressors, axis=1))


def step_both(monitor, reference, u_k, y_k):
    """One injection_step and one reference step on the same sample: the
    same decisions, and scores and histories within score_bounds. A step
    whose decode lies within that bound of a sensor's slack (only a slack at
    rounding level allows it) is decided by rounding, differently by either
    side: it is not taken, and None is returned."""
    bounds = score_bounds(monitor, reference, u_k, y_k)
    column = step_column(monitor, u_k, y_k)
    slack = monitor.model.slacks(column, monitor.tol)
    rounding = bounds.max() + (monitor.model.n + 2) * np.finfo(float).eps * slack
    if (np.abs(np.abs(monitor.model.decoder @ column) - slack) <= rounding).any():
        return None
    verdict = injection_step(monitor, u_k, y_k)
    expected = reference_injection_step(reference, u_k, y_k)
    assert (verdict.k, verdict.mode, verdict.subsets, verdict.winners) == (
        expected.k, expected.mode, expected.subsets, expected.winners)
    assert (np.abs(np.subtract(verdict.scores, expected.scores)) <= bounds).all()
    assert monitor.k == reference.k
    # every step, the alarm step included, advances (and re-anchors) the
    # history as the reference does
    for j, history in enumerate(histories(monitor), 1):
        assert (np.abs(history - reference.states[j]) <= bounds[j - 1]).all()
    return verdict


class TestContinuedMonitoring:
    """The monitor re-anchors every step, alarm or not, so each step decodes
    only its own sample's deviation: as attacks start and stop, every
    verdict names exactly the sensors attacked in that sample."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_named_sensors_follow_attack_windows(self, monitored_plants, data):
        ss, model = monitored_plants[data.draw(st.sampled_from(sorted(monitored_plants)),
                                               label="plant")]
        n, n_sensors = model.n, model.n_sensors
        length = data.draw(st.integers(1, 300), label="steps")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        u = rng.uniform(-1, 1, (model.m, n + length))
        _, y = simulate(ss, np.zeros(ss.state_dim), u)
        # windows that start, stop and overlap, each offset by ±uniform(0.5, 1)
        # per sample; a window that would put more than M sensors under
        # attack at once is left out
        windows = data.draw(st.lists(st.tuples(st.integers(1, n_sensors),
                                               st.integers(0, length - 1),
                                               st.integers(1, 150)), max_size=8),
                            label="windows (sensor, start, length)")
        offsets = np.zeros((n_sensors, length))
        for sensor, start, span in windows:
            stop = min(start + span, length)
            trial = offsets.copy()
            trial[sensor - 1, start:stop] = (rng.choice([-1.0, 1.0])
                                             * rng.uniform(0.5, 1.0, stop - start))
            if ((trial != 0).sum(axis=0) <= model.max_attacked).all():
                offsets = trial
        y[:, n:] += offsets
        monitor = injection_bootstrap(model, u[:, :n], y[:, :n])
        for k in range(length):
            verdict = injection_step(monitor, u[:, n + k], y[:, n + k])
            assert verdict.k == n + k + 1
            unattacked = tuple(int(i) + 1 for i in np.flatnonzero(offsets[:, k] == 0))
            if len(unattacked) == n_sensors:
                assert verdict.all_clear, k
            else:
                assert verdict.attack_free_sensors == unattacked, k

    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2",
                                      "random-5x2-m2"])
    def test_clean_continuation_after_an_alarm(self, monitored_plants, name):
        # one offset sample at the 21st step, then 5,000 clean steps: the
        # alarm leaves no trace in the history, and no later step alarms
        ss, model = monitored_plants[name]
        traj, n = offset_stream(ss, model, 5021, 37), model.n
        y = traj.y.copy()
        y[0, n + 20] += 0.9
        monitor = injection_bootstrap(model, traj.u[:, :n], y[:, :n])
        alarm = run_injection(monitor, traj.u[:, n:], y[:, n:])
        assert alarm.k == n + 21
        assert alarm.attack_free_sensors == tuple(range(2, model.n_sensors + 1))
        verdict = run_injection(monitor, traj.u[:, n + 21:], y[:, n + 21:])
        assert verdict.all_clear and verdict.k == n + 5021


def full_rule(monitor, u_k, y_k):
    """The (k, winners, all_clear) of the step that takes (u_k, y_k) by the
    full rule alone, without the floor test: sensor i is named when its
    decode |a_i| is not within its slack from model.slacks."""
    model = monitor.model
    column = step_column(monitor, u_k, y_k)
    named = ~(np.abs(predict(model.decoder, column)) <= model.slacks(column, monitor.tol))
    winners = tuple(j for j, s in enumerate(model.subsets, 1)
                    if not any(named[i - 1] for i in s))
    return monitor.k + 1, winners, not named.any()


ALL_PLANTS = ["benchmark", "random-10x4", "random-6x2", "random-5x2-m2"]


class TestFloorClear:
    """A step whose every |a_i| is within tol.residual clears without the
    slacks; that floor test decides no step differently from the full rule."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_named_set_equals_full_rule(self, monitored_plants, data):
        ss, model = monitored_plants[data.draw(st.sampled_from(ALL_PLANTS), label="plant")]
        tol = Tolerance(residual=data.draw(st.sampled_from([DEFAULT_TOL.residual, 1e-6]),
                                           label="residual"))
        n, floor = model.n, tol.residual
        traj = offset_stream(ss, model, data.draw(st.integers(1, 6), label="steps"),
                             data.draw(st.integers(0, 2**16), label="seed"))
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n], tol)
        for k in range(n, traj.length):
            u_k, y_k = traj.u[:, k], traj.y[:, k].copy()
            slack = model.slacks(step_column(monitor, u_k, y_k), tol)
            # offsets at and around the floor and the clean sample's slack,
            # one ulp either side of each included
            for sensor in data.draw(st.sets(st.integers(1, model.n_sensors)), label="sensors"):
                base = data.draw(st.sampled_from([floor, slack[sensor - 1]]), label="base")
                factor = data.draw(st.one_of(
                    st.sampled_from([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]),
                    st.floats(0.0, 3.0)), label="factor")
                y_k[sensor - 1] += data.draw(st.sampled_from([1.0, -1.0]), label="sign") * (
                    factor * base)
            expected = full_rule(monitor, u_k, y_k)
            verdict = injection_step(monitor, u_k, y_k)
            assert (verdict.k, verdict.winners, verdict.all_clear) == expected

    @pytest.mark.parametrize("name", ALL_PLANTS)
    def test_only_a_step_above_the_floor_takes_the_slacks(self, monitored_plants, monkeypatch,
                                                         name):
        ss, model = monitored_plants[name]
        calls = {"predict": 0, "slacks": 0}
        slacks = DataDrivenModel.slacks

        def counting_predict(*args):
            calls["predict"] += 1
            return predict(*args)

        def counting_slacks(self, *args):
            calls["slacks"] += 1
            return slacks(self, *args)

        monkeypatch.setattr(identify, "predict", counting_predict)
        monkeypatch.setattr(DataDrivenModel, "slacks", counting_slacks)
        traj, n = offset_stream(ss, model, 23, 5), model.n
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])

        def step(y_k, clear):
            before = dict(calls)
            assert injection_step(monitor, traj.u[:, monitor.k], y_k).all_clear == clear
            return calls["predict"] - before["predict"], calls["slacks"] - before["slacks"]

        for _ in range(20):
            assert step(traj.y[:, monitor.k], True) == (1, 0)
        # an alarm takes the slacks once
        y_k = traj.y[:, monitor.k] + 0.9
        assert step(y_k, False) == (1, 1)
        # so does an offset between the floor and the slack, which clears
        y_k = traj.y[:, monitor.k].copy()
        column = step_column(monitor, traj.u[:, monitor.k], y_k)
        y_k[0] += (DEFAULT_TOL.residual + slacks(model, column, DEFAULT_TOL)[0]) / 2
        assert step(y_k, True) == (1, 1)
        assert step(traj.y[:, monitor.k], True) == (1, 0)

    # A sample whose sensor 1 reads +-1e308, or whose every sensor reads
    # +-1e160 (finite decodes, every slack inf), overflows a slack; one whose
    # inputs read +-1e200 overflows the scores (finite slacks). The step
    # rejects it without a numpy warning, keeps k and the history, and the
    # clean sample of that time and those after it clear with finite
    # scores, as on a monitor that never saw it. identify_injection's screen
    # stops at that column and hands it to the step, which rejects it the
    # same way.
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("channel, rows, value", [
        ("y", slice(0, 1), 1e308), ("y", slice(None), 1e160), ("u", slice(None), 1e200)],
        ids=["sensor-1", "every-sensor", "inputs"])
    @pytest.mark.parametrize("name", ALL_PLANTS)
    def test_overflowing_sample_is_rejected(self, monitored_plants, name, channel, rows, value,
                                            sign):
        ss, model = monitored_plants[name]
        traj, n = offset_stream(ss, model, 10, 3), model.n
        u, y = traj.u.copy(), traj.y.copy()
        {"u": u, "y": y}[channel][rows, n + 3] = sign * value
        monitor = injection_bootstrap(model, traj.u[:, :n], y[:, :n])
        untouched = injection_bootstrap(model, traj.u[:, :n], y[:, :n])
        history = np.ones(len(monitor.column), dtype=bool)
        history[newest_rows(model)] = history[-model.m:] = False
        for j in range(n, n + 10):
            if j == n + 3:
                k, column = monitor.k, monitor.column.copy()
                with warnings.catch_warnings(), pytest.raises(ValueError, match="y_new"):
                    warnings.simplefilter("error")
                    injection_step(monitor, u[:, j], y[:, j])
                assert monitor.k == k
                assert np.array_equal(monitor.column[history], column[history])
            verdict = injection_step(monitor, traj.u[:, j], traj.y[:, j])
            assert verdict == injection_step(untouched, traj.u[:, j], traj.y[:, j])
            assert verdict.all_clear and verdict.k == j + 1
            assert np.isfinite(verdict.scores).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert identify._screen_clear_steps(model, Trajectory(u, y), DEFAULT_TOL) == n + 3
            with pytest.raises(ValueError, match="y_new"):
                identify_injection(model, Trajectory(u, y))


class TestBatchedMonitorMatchesReference:
    """The decoding step against the per-subset λ-form reference, step by step."""

    ATTACKED = {"benchmark": (3,), "random-10x4": (7, 8, 9, 10), "random-6x2": (2, 5)}

    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2"])
    @pytest.mark.parametrize("attack", [False, True], ids=["clean", "attacked"])
    def test_every_step_matches(self, monitored_plants, name, attack):
        ss, model = monitored_plants[name]
        attacked = self.ATTACKED[name] if attack else ()
        u, y = monitor_stream(ss, model, 40, 17, attacked, onset=30)
        n = model.n
        batched = injection_bootstrap(model, u[:, :n], y[:, :n])
        reference = reference_injection_bootstrap(model, u[:, :n], y[:, :n])
        for k in range(n, u.shape[1]):
            verdict = step_both(batched, reference, u[:, k], y[:, k])
            assert verdict is not None
            if not verdict.all_clear:
                break
        assert verdict.all_clear != attack
        if attack:
            assert verdict.k == n + 31
            assert set(verdict.attack_free_sensors).isdisjoint(attacked)

    def test_gather_equals_stack_history(self, monitored_plants):
        # the bootstrap's histories are the stacked histories, exactly; ten
        # all-clear steps later they are those of the recorded samples, to the
        # re-anchoring's rounding
        ss, model = monitored_plants["random-10x4"]
        u, y = monitor_stream(ss, model, 10, 23)
        n = model.n
        monitor = injection_bootstrap(model, u[:, :n], y[:, :n])
        for start in (0, 10):
            if start:
                assert run_injection(monitor, u[:, n:], y[:, n:]).all_clear
            bound = max((4 * decode_bound(model, column).max() for column in
                         trajectory_hankel(Trajectory(u, y), 0, n + 1, 10).T[:start]),
                        default=0.0)
            assert histories(monitor).shape == (len(model.subsets), (model.n_sensors
                                                                    - model.max_attacked + 1) * n)
            for j, subset in enumerate(model.subsets):
                rows = [i - 1 for i in subset]
                window = slice(start, start + n)
                np.testing.assert_allclose(histories(monitor)[j],
                                           reference_history(y[rows, window], u[:, window]),
                                           rtol=0, atol=bound)

    @pytest.mark.parametrize("name", ["benchmark", "random-6x2", "random-5x2-m2"])
    def test_all_clear_history_is_the_hankel_column(self, monitored_plants, name):
        # after each all-clear step the monitor's column holds the stream's
        # Hankel column at the step it now awaits: its inputs exactly, its
        # outputs re-anchored on the plant, which moved them by at most the
        # decodes that re-anchored them (each under 4 beta of its step)
        ss, model = monitored_plants[name]
        traj, n, n_sensors = offset_stream(ss, model, 25, 29), model.n, model.n_sensors
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        bound = 0.0
        for k in range(n, traj.length - 1):
            bound = max(bound, 4 * decode_bound(
                model, trajectory_hankel(traj, k - n, n + 1, 1)[:, 0]).max())
            assert injection_step(monitor, traj.u[:, k], traj.y[:, k]).all_clear
            column = trajectory_hankel(traj, monitor.k - n, n + 1, 1)[:, 0]
            outputs, inputs = slice(0, n_sensors * n), slice(n_sensors * (n + 1), -model.m)
            assert np.array_equal(monitor.column[inputs], column[inputs])
            assert (np.abs(monitor.column[outputs] - column[outputs]) <= bound).all()


class ReferenceDraw(NamedTuple):
    """One drawn plant, stream and tolerance for the reference property
    test: offsets holds (sensor, signed offset) pairs, added from onset on."""

    n_sensors: int
    max_attacked: int
    n: int
    m: int
    seed: int
    steps: int
    offsets: tuple[tuple[int, float], ...]
    onset: int
    log10_tol: float


@st.composite
def reference_draws(draw):
    n_sensors = draw(st.integers(2, 7))
    max_attacked = draw(st.integers(0, n_sensors - 1))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**16))
    steps = draw(st.integers(1, 30))
    targets = draw(st.lists(st.integers(1, n_sensors), unique=True))
    onset = draw(st.integers(0, steps - 1))
    offsets = []
    for sensor in targets:
        # zero, near the slack tol.residual * (1 + ||samples||), or plainly visible
        size = draw(st.one_of(st.just(0.0), st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e)))
        offsets.append((sensor, draw(st.sampled_from([-1.0, 1.0])) * size))
    # over the whole range, and dense around the default, where clean steps clear
    log10_tol = draw(st.one_of(st.floats(-300.0, 3.0), st.floats(-11.0, -7.0)))
    return ReferenceDraw(n_sensors, max_attacked, n, m, seed, steps, tuple(offsets), onset,
                         log10_tol)


class TestStepMatchesReferenceProperty:
    """The decoding step against the per-subset λ-form reference over drawn
    plants, attacks and tolerances, step by step up to the first alarm and
    one step past it."""

    @settings(max_examples=100, deadline=None)
    @given(draw=reference_draws())
    # twelve clean steps whose scores drift apart from the reference's by
    # 2.1105e-13 at k = 16, beyond the bound without its drift term (2.1085e-13)
    @example(draw=ReferenceDraw(4, 3, 4, 1, 9066, 12, (), 0, 0.0))
    def test_every_step_matches(self, draw):
        n, m, length = draw.n, draw.m, draw.steps
        ss, model = plant_and_model(draw.n_sensors, draw.max_attacked, draw.seed, n, m)
        u = np.random.default_rng(draw.seed).uniform(-1, 1, (m, n + length))
        _, y = simulate(ss, np.zeros(n), u)
        for sensor, offset in draw.offsets:
            y[sensor - 1, n + draw.onset:] += offset
        tol = Tolerance(residual=10.0 ** draw.log10_tol)
        batched = injection_bootstrap(model, u[:, :n], y[:, :n], tol)
        reference = reference_injection_bootstrap(model, u[:, :n], y[:, :n], tol)
        for k in range(n, n + length):
            verdict = step_both(batched, reference, u[:, k], y[:, k])
            if verdict is None or not verdict.all_clear:
                break
        if verdict is not None and not verdict.all_clear:
            step_both(batched, reference, u[:, -1], y[:, -1])


class TestNoLambdaStack:
    """Learning, the model file, the monitor and the screen hold the basis
    and the decoder and never form the S x d x (d + m) predictor stack."""

    def test_no_phase_allocates_a_lambda_stack(self, tmp_path):
        # random (10, 4) plant, n = 6, m = 1: S = 210, d = 42, r = 13. With
        # blocks of B = 4 KiB a phase holds the W x r basis, the N x W decoder,
        # the blocks and the chunks of the certificate, all small beside one
        # S x d x (d + m) float64 stack, 3.0 MB: no phase reaches a quarter
        # of it (learning peaked at 0.47 MB)
        n, m, n_sensors, max_attacked = 6, 1, 10, 4
        ss = random_test_system(np.random.default_rng(0), n, m, n_sensors,
                                n_sensors - max_attacked)
        order = (m + n_sensors - max_attacked) * n + 1
        traj = excited_run(ss, n, (m + 1) * order, order, 0)
        subsets, d = 210, (n_sensors - max_attacked + m) * n
        bound = 8 * subsets * d * (d + m) // 4
        path = tmp_path / "model.json"
        online = np.random.default_rng(9).uniform(-1, 1, (m, n + 200))
        stream = Trajectory(online, simulate(ss, np.zeros(n), online)[1])
        peaks = {}

        def traced(phase, run):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = run()
            peaks[phase] = tracemalloc.get_traced_memory()[1] - base
            return result

        def steps(model):
            monitor = injection_bootstrap(model, stream.u[:, :n], stream.y[:, :n])
            for k in range(n, n + 200):
                assert injection_step(monitor, stream.u[:, k], stream.y[:, k]).all_clear

        with mock.patch.object(datamat, "BLOCK_BYTES", 4096):
            tracemalloc.start()
            try:
                model = traced("learn", lambda: learn_model(traj, max_attacked, n,
                                                            (m + 1) * order))
                traced("save", lambda: save_learned_model(model, path))
                loaded = traced("load", lambda: load_learned_model(path))
                traced("steps", lambda: steps(loaded))
                verdict = traced("identify", lambda: identify_injection(loaded, stream))
            finally:
                tracemalloc.stop()
        assert len(model.subsets) == subsets
        assert verdict.all_clear and verdict.k == stream.length
        assert max(peaks.values()) < bound, peaks
        # the models keep the basis and the decoder and no S x d x (d + m) stack
        assert all(np.shape(value) != (subsets, d, d + m)
                   for kept in (model, loaded) for value in vars(kept).values())


class TestRunInjection:
    @pytest.mark.parametrize("attack_at", [None, 7])
    def test_matches_explicit_step_loop(self, attack_at):
        ss, model = benchmark_model()
        u, y = closed_loop_stream(ss, online_setup(ss, model)[1], 20, 5, attack_at)
        explicit, _ = online_setup(ss, model)
        for k in range(u.shape[1]):
            expected = injection_step(explicit, u[:, k], y[:, k])
            if not expected.all_clear:
                break
        looped, _ = online_setup(ss, model)
        verdict = run_injection(looped, u, y)
        assert verdict == expected
        assert looped.k == explicit.k
        assert np.array_equal(looped.column, explicit.column)
        assert verdict.all_clear == (attack_at is None)

    def test_mismatched_lengths_rejected(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        u, y = closed_loop_stream(ss, x, 5, 5)
        column = monitor.column.copy()
        with pytest.raises(ValueError):
            run_injection(monitor, u[:, :4], y)
        assert monitor.k == 6
        assert np.array_equal(monitor.column, column)


def step_loop_verdict(model, traj, tol=DEFAULT_TOL):
    """The explicit path: bootstrap on the first n samples, then run_injection."""
    n = model.n
    monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n], tol)
    return run_injection(monitor, traj.u[:, n:], traj.y[:, n:])


def offset_stream(ss, model, length, seed, sensor=None, at=None, amplitude=0.0):
    """n + length samples from equilibrium; from column `at` on, `sensor`
    reads `amplitude` above the plant."""
    u = np.random.default_rng(seed).uniform(-1, 1, (model.m, model.n + length))
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    if sensor is not None:
        y[sensor - 1, at:] += amplitude
    return Trajectory(u, y)


class TestIdentifyInjection:
    """identify_injection against the step loop it stands in for."""

    SCREENED = ["benchmark", "random-10x4", "random-5x2-m2"]

    @staticmethod
    def column_bytes(model):
        return model.basis.shape[0] * 8

    def block_sizes(self, model):
        """Screen block sizes in steps: small ones, then the BLOCK_BYTES default."""
        return [1, 5, 16, datamat.BLOCK_BYTES // self.column_bytes(model)]

    def screened(self, model, traj, block, tol=DEFAULT_TOL):
        """identify_injection with screen blocks of `block` steps."""
        with mock.patch.object(datamat, "BLOCK_BYTES", block * self.column_bytes(model)):
            return identify_injection(model, traj, tol)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(SCREENED),
           where=st.sampled_from(["first", "inside", "boundary", "last", "none"]))
    def test_equals_step_loop(self, monitored_plants, data, name, where):
        ss, model = monitored_plants[name]
        n = model.n
        length = data.draw(st.integers(1, 120), label="steps")
        # dense around the win bound, tol.residual * (1 + ||observed||), a few 1e-9
        amplitude = 10.0 ** data.draw(st.one_of(st.floats(-9.5, -7.5), st.floats(-10.0, 0.0)),
                                      label="log10 amplitude")
        sensor = data.draw(st.sampled_from([1, model.n_sensors]), label="sensor")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        for block in self.block_sizes(model):
            onset = {"first": 0, "inside": block // 2 + 1, "boundary": block,
                     "last": length - 1, "none": None}[where]
            if onset is not None:
                onset = min(onset, length - 1)
            traj = offset_stream(ss, model, length, seed, None if onset is None else sensor,
                                 None if onset is None else n + onset, amplitude)
            assert_same_verdict(self.screened(model, traj, block), step_loop_verdict(model, traj),
                                model, traj)

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_step_near_the_slack(self, monitored_plants, factor):
        # an offset of 0.75 slack on sensor 3: the screen stops at that step,
        # far past its rounding bound, the exact step calls it clear and
        # re-anchors it away, and so on at every later step; an offset of 1.5
        # slack ends the stream there, naming sensor 3
        ss, model = monitored_plants["benchmark"]
        n, at = model.n, model.n + 20
        clean = offset_stream(ss, model, 40, 5)
        column = trajectory_hankel(clean, at - n, n + 1, 1)[:, 0]
        # the offset moves the slack by under 1e-9 of itself
        slack = model.slacks(column, DEFAULT_TOL)[2]
        traj = offset_stream(ss, model, 40, 5, 3, at, factor * slack)
        assert identify._screen_clear_steps(model, traj, DEFAULT_TOL) == at
        monitor = InjectionMonitor(model, trajectory_hankel(traj, at - n, n + 1, 1)[:, 0], at)
        step = injection_step(monitor, traj.u[:, at], traj.y[:, at])
        holding = [j - 1 for j, s in enumerate(model.subsets, 1) if 3 in s]
        ratio = np.array(step.scores)[holding] / slack
        np.testing.assert_allclose(ratio, factor, rtol=1e-6)
        verdict = identify_injection(model, traj)
        assert_same_verdict(verdict, step_loop_verdict(model, traj), model, traj)
        if factor < 1:
            assert step.all_clear
            assert verdict.all_clear and verdict.k == traj.length
        else:
            assert not step.all_clear and step.attack_free_sensors == (1, 2)
            assert verdict == step

    @pytest.mark.parametrize("factor", [0.3, 0.75, 0.9, 1.25, 2.0])
    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2"])
    def test_offset_sensor_is_never_named_attack_free(self, monitored_plants, name, factor):
        # a constant offset of factor x the smallest per-subset slack
        # tol.residual (1 + ||next history||) of the subsets holding one
        # sensor, from step n + 20 on, for every sensor and seeds 0-4: an
        # alarm never names the offset sensor attack-free. Under the subset
        # rule the offset entered the accepted history, and a later alarm's
        # winners could hold the sensor; the decode re-anchors it away and
        # names sensors one by one. From factor 1.25 on, the offset is above
        # the sensor's own slack, so every case alarms at the offset's step.
        ss, model = monitored_plants[name]
        n, at = model.n, model.n + 20
        for seed in range(5):
            clean = offset_stream(ss, model, 60, seed)
            probe = injection_bootstrap(model, clean.u[:, at - n: at], clean.y[:, at - n: at])
            assert injection_step(probe, clean.u[:, at], clean.y[:, at]).all_clear
            slack = DEFAULT_TOL.residual * (1 + np.linalg.norm(histories(probe), axis=1))
            for sensor in range(1, model.n_sensors + 1):
                holding = [j - 1 for j, s in enumerate(model.subsets, 1) if sensor in s]
                traj = offset_stream(ss, model, 60, seed, sensor, at,
                                     factor * slack[holding].min())
                verdict = step_loop_verdict(model, traj)
                if not verdict.all_clear:
                    assert sensor not in verdict.attack_free_sensors
                if factor > 1:
                    assert verdict.k == at + 1 and not verdict.all_clear
                assert_same_verdict(identify_injection(model, traj), verdict, model, traj)

    @pytest.mark.parametrize("name", ["random-10x4", "random-5x2-m2"])
    def test_slack_under_the_rounding_bound_clears_nothing(self, monitored_plants, name):
        # a slack of 1e-13 (1 + ||samples||) holds the clean decodes but not
        # 16 times the screen's rounding bound: the step loop clears every
        # step, the screen vouches for none and leaves them all to it
        ss, model = monitored_plants[name]
        tol = Tolerance(residual=1e-13)
        traj = offset_stream(ss, model, 60, 4)
        expected = step_loop_verdict(model, traj, tol)
        assert expected.all_clear and expected.k == traj.length
        assert identify._screen_clear_steps(model, traj, tol) == model.n
        assert_same_verdict(identify_injection(model, traj, tol), expected, model, traj)

    @pytest.mark.parametrize("residual", [1e-300, 1e3])
    @pytest.mark.parametrize("name", SCREENED)
    @pytest.mark.parametrize("attack", [False, True], ids=["clean", "attacked"])
    def test_extreme_tolerance_equals_step_loop(self, monitored_plants, residual, name, attack):
        ss, model = monitored_plants[name]
        tol = Tolerance(residual=residual)
        traj = offset_stream(ss, model, 60, 9, model.n_sensors if attack else None,
                             model.n + 30, 0.9)
        expected = step_loop_verdict(model, traj, tol)
        for block in self.block_sizes(model):
            assert_same_verdict(self.screened(model, traj, block, tol), expected, model, traj)
        if residual == 1e3:
            assert expected.all_clear and expected.k == traj.length

    def test_validation(self, monitored_plants):
        ss, model = monitored_plants["benchmark"]
        traj = offset_stream(ss, model, 4, 1)
        with pytest.raises(TrajectoryLengthError):
            identify_injection(model, Trajectory(traj.u[:, :6], traj.y[:, :6]))
        with pytest.raises(ValueError, match="outputs"):
            identify_injection(model, Trajectory(traj.u, traj.y[:2]))


class TestScreen:
    """The screen's rule on clean streams of every output scale and on the
    benchmark's streams."""

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4", "random-5x2-m2",
                                       "random-6x2"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_output_scales(self, monitored_plants, plant, scale):
        ss, model = monitored_plants[plant]
        ss = StateSpace(ss.A, ss.B, np.asarray(ss.C) * scale)
        order = (model.m + model.n_sensors - model.max_attacked) * model.n + 1
        columns = (model.m + 1) * order
        model = learn_model(excited_run(ss, model.n, columns, order, 7), model.max_attacked,
                            model.n, columns)
        clean = offset_stream(ss, model, 80, 13)
        assert identify._screen_clear_steps(model, clean, DEFAULT_TOL) == clean.length - 1
        for traj in (clean, offset_stream(ss, model, 80, 13, 1, model.n + 40, 0.5 * scale)):
            assert_same_verdict(identify_injection(model, traj), step_loop_verdict(model, traj),
                                model, traj)

    @pytest.mark.parametrize("name, handover", [("msd-stream", 4981), ("wide-10x4", 181),
                                                ("longrec-6x2", 981)])
    def test_clears_every_clean_benchmark_step(self, tmp_path, name, handover):
        # the benchmark's seed-1 inputs, model and stream, made as one of its
        # rounds makes them: the injection adds zero at its onset, so the
        # screen must clear every step up to onset + 1, the first attacked one
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        w = workloads.WORKLOADS[name]
        files = workloads.set_up(w, 1, tmp_path)
        model_path, stream = tmp_path / "model.json", tmp_path / "stream.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["learn", str(files["offline.csv"]), "--n", str(workloads.ORDER),
                             "--max-attacked", str(w.max_attacked), "--horizon",
                             str(w.columns), "--out", str(model_path)]) == 0
            assert cli.main(["simulate", "--model", str(files["plant.json"]), "--scenario",
                             str(files["scenario.json"]), "--length", str(w.stream_len),
                             "--seed", "1", "--max-attacked", str(w.max_attacked),
                             "--out", str(stream)]) == 0
        onset = w.stream_len - workloads.ATTACK_LEAD
        assert handover == onset + 1
        assert identify._screen_clear_steps(load_learned_model(model_path),
                                            load_trajectory(stream), DEFAULT_TOL) == handover


class TestIdentifyReplay:
    def test_clean_window_all_winners(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        verdict = identify_replay(traj, 1, 6, 41)
        assert verdict.all_clear
        assert verdict.winners == (1, 2, 3)
        assert all(s == 13 for s in verdict.scores)

    def test_benchmark_replay_attack(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        verdict = identify_replay(attacked, 1, 6, 41)
        assert not verdict.all_clear
        assert verdict.winners == (1,)
        assert verdict.attack_free_sensors == (1, 2)
        by_id = {j: int(score) for j, score in enumerate(verdict.scores, 1)}
        assert by_id[1] == 13
        assert by_id[2] != 13 and by_id[3] != 13

    def test_rank_gap_property(self):
        # every subset hitting the attacked sensor misses the certifying
        # rank; every subset avoiding it reaches it (constants at plant
        # output scale; huge constants shrink the detection margin)
        ss = benchmark_plant()
        trial = 0
        for sensor in (2, 3):
            for constant in (0.01, -0.4, 1.7):
                traj = excited_run(ss, 6, 41, 19, 300 + trial)
                trial += 1
                attacked = apply_attack(traj, ReplayAttack({sensor: constant}))
                verdict = identify_replay(attacked, 1, 6, 41)
                for subset, score in zip(verdict.subsets, verdict.scores):
                    if sensor in subset:
                        assert score != 13, (sensor, constant, subset)
                    else:
                        assert score == 13, (sensor, constant, subset)

    @pytest.mark.parametrize("max_attacked", [3, 5, -1])
    def test_budget_checked_first(self, max_attacked):
        # an impossible budget M names itself before the window's excitation
        # checks, which would read a negative order or depth from it
        traj = excited_run(benchmark_plant(), 6, 41, 19, 21)
        with pytest.raises(ValueError,
                           match=rf"^need 0 < N - M <= N, got N=3, M={max_attacked}$"):
            identify_replay(traj, max_attacked, 6, 41)

    @pytest.mark.parametrize("n", [0, -1, -6])
    def test_order_checked_after_the_budget(self, n):
        # an order below 1 names itself before the excitation checks, which
        # would slice an empty or negative input window from it
        traj = excited_run(benchmark_plant(), 6, 41, 19, 21)
        with pytest.raises(ValueError,
                           match=rf"^order and columns must be positive, got {n}, 38$"):
            identify_replay(traj, 1, n, 38)
        with pytest.raises(ValueError, match=r"^need 0 < N - M <= N, got N=3, M=3$"):
            identify_replay(traj, 3, n, 38)

    def test_non_exciting_input_rejected(self):
        ss = benchmark_plant()
        u = np.zeros((1, 48))
        _, y = simulate(ss, np.zeros(6), u)
        with pytest.raises(ExcitationError) as err:
            identify_replay(Trajectory(u, y), 1, 6, 41)
        assert err.value.order == 19

    @pytest.mark.parametrize("tau", [1, 2, 3, 5])
    @pytest.mark.parametrize("sensor", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_delayed_sensor_is_named(self, seed, sensor, tau):
        # a sensor delayed by tau reads C_i x(k - tau), which depends on
        # inputs before the window: every subset holding it gains rank above
        # the certifying 13, as a replayed constant moves it, so the same
        # test names delayed sensors too (replay demo's excited window)
        ss = benchmark_plant()
        traj, _ = cli.excited_run(ss, 6, 41, 19, seed + cli.OFF_REPLAY_PE,
                                  seed + cli.OFF_REPLAY_FILL, DEFAULT_TOL)
        delays = tuple(tau if i == sensor else 0 for i in (1, 2, 3))
        verdict = identify_replay(apply_attack(traj, DelayAttack(delays)), 1, 6, 41)
        assert verdict.attack_free_sensors == tuple(i for i in (1, 2, 3) if i != sensor)

    def test_short_window_rejected(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        with pytest.raises(ExcitationError):
            identify_replay(traj, 1, 6, 30)

    def test_short_trajectory_rejected(self):
        traj = excited_run(benchmark_plant(), 6, 41, 19, 21)
        with pytest.raises(TrajectoryLengthError) as err:
            identify_replay(Trajectory(traj.u[:, :46], traj.y[:, :46]), 1, 6, 41)
        assert (err.value.length, err.value.required) == (46, 47)

    @pytest.mark.parametrize("n_sensors, max_attacked", [(4, 2), (2, 1)])
    def test_sensor_count_is_the_recording_output_count(self, n_sensors, max_attacked):
        # the subsets come from the recording's own output count: an
        # attack-free window of a plant with N outputs certifies every one of
        # the N-choose-(N - M) subsets
        ss = random_test_system(np.random.default_rng(5), 6, 1, n_sensors,
                                n_sensors - max_attacked)
        order = (1 + n_sensors - max_attacked) * 6 + 1
        verdict = identify_replay(excited_run(ss, 6, 2 * order, order, 5), max_attacked, 6,
                                  2 * order)
        assert verdict.subsets == enumerate_subsets(n_sensors, max_attacked)
        assert verdict.all_clear and verdict.winners == tuple(
            j for j, _ in enumerate(verdict.subsets, 1))


class TestFirstResponse:
    def test_skips_leading_zero_sample(self):
        assert first_response([0.0, 0.0, 1.0, 0.5]) == 2

    def test_relative_cutoff_suppresses_tiny_leader(self):
        assert first_response([0.0, 1e-6, 1.0, 0.5]) == 2

    def test_silent_signal(self):
        assert first_response(np.zeros(10)) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        assert first_response([0.0, 1e-6, 0.0, 1.0]) == 3
        with pytest.raises(ValueError, match="non-finite"):
            first_response([0.0, 1e-6, bad, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            identify_delay([[0.0, 1e-6, bad, 1.0]], [1])


class TestIdentifyDelay:
    def delayed_impulse(self, delays, alpha=0.1, window=25):
        ss = benchmark_plant(0.1)
        u = np.zeros((1, window))
        u[0, 0] = alpha
        _, y = simulate(ss, np.zeros(6), u)
        attacked = apply_attack(Trajectory(u, y), DelayAttack(delays))
        degrees = [relative_degree(ss, j) for j in (1, 2, 3)]
        return attacked.y, degrees

    def test_no_attack_all_clear(self):
        y, degrees = self.delayed_impulse((0, 0, 0))
        verdict = identify_delay(y, degrees)
        assert verdict.all_clear
        assert verdict.winners == (1, 2, 3)
        assert all(s == 0 for s in verdict.scores)

    def test_benchmark_delay_on_sensor_two(self):
        y, degrees = self.delayed_impulse((0, 5, 0))
        assert degrees == [1, 2, 1]
        assert [first_response(y[j]) for j in range(3)] == [1, 7, 1]
        verdict = identify_delay(y, degrees)
        assert verdict.winners == (1, 3)
        assert verdict.attack_free_sensors == (1, 3)
        by_id = dict(enumerate(verdict.scores, 1))
        assert (by_id[1], by_id[2], by_id[3]) == (0.0, 5.0, 0.0)

    def test_delay_on_first_sensor(self):
        y, degrees = self.delayed_impulse((1, 0, 0))
        verdict = identify_delay(y, degrees)
        assert verdict.winners == (2, 3)
        by_id = dict(enumerate(verdict.scores, 1))
        assert by_id[1] == 1.0

    def test_impulse_scale_invariance(self):
        y_small, degrees = self.delayed_impulse((0, 5, 0), alpha=0.1)
        y_large, _ = self.delayed_impulse((0, 5, 0), alpha=100.0)
        assert identify_delay(y_small, degrees).winners == \
            identify_delay(y_large, degrees).winners

    def test_timing_shift_property(self):
        _, degrees = self.delayed_impulse((0, 0, 0))
        clean, _ = self.delayed_impulse((0, 0, 0))
        for tau in (1, 3, 6):
            delayed, _ = self.delayed_impulse((0, tau, 0))
            assert first_response(delayed[1]) == first_response(clean[1]) + tau

    def test_all_silent_raises(self):
        with pytest.raises(NoResponseError):
            identify_delay(np.zeros((3, 10)), [1, 2, 1])

    def test_validation(self):
        y, degrees = self.delayed_impulse((0, 0, 0))
        with pytest.raises(ValueError):
            identify_delay(y, [1, 2])
        with pytest.raises(ValueError):
            identify_delay(y, [1, 0, 1])

    @pytest.mark.parametrize("degrees", [[1.5, 2, 1], [True, 2, 1], [1, 2.0, 1], [1, None, 1]])
    def test_non_integer_degrees_rejected(self, degrees):
        y, _ = self.delayed_impulse((0, 0, 0))
        with pytest.raises(ValueError, match="positive integers"):
            identify_delay(y, degrees)
        assert identify_delay(y, np.array([1, 2, 1])).all_clear
        with pytest.raises(ValueError):
            identify_delay(y[:, :2], [1, 2, 1])


class TestVerdictFields:
    SUBSETS = ((1, 2), (1, 3), (2, 3))

    def test_only_decisions_are_stored(self):
        # values holds the scores, or an injection step's decode with members
        assert [f.name for f in dataclasses.fields(IdentificationVerdict)] == [
            "k", "mode", "subsets", "values", "winners", "members"]
        for name in ("attack_free_sensors", "all_clear"):
            with pytest.raises(TypeError):
                IdentificationVerdict(1, "replay", self.SUBSETS, (13.0,) * 3, (1,),
                                      **{name: ()})

    @pytest.mark.parametrize("winners, sensors, all_clear", [
        ((1,), (1, 2), False), ((1, 2), (1, 2, 3), False), ((1, 2, 3), (1, 2, 3), True),
        ((), (), False)])
    def test_sensors_and_all_clear_derive_from_winners(self, winners, sensors, all_clear):
        verdict = IdentificationVerdict(1, "replay", self.SUBSETS, (13.0,) * 3, winners)
        assert (verdict.attack_free_sensors, verdict.all_clear) == (sensors, all_clear)
        for name in ("attack_free_sensors", "all_clear"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, ())

    def test_monitor_keeps_only_the_clear_winners(self):
        _, model = benchmark_model()
        monitor, _ = online_setup(benchmark_plant(), model)
        assert monitor.clear_winners == (1, 2, 3)
        assert not hasattr(monitor, "clear_sensors")
        assert not hasattr(monitor, "members")

    def test_injection_verdicts_share_the_model_subsets(self):
        # one tuple of index tuples, built once per model; ids are positions
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        u_k = np.array([0.3])
        verdict = injection_step(monitor, u_k, ss.C @ x)
        assert verdict.subsets is model.subsets == ((1, 2), (1, 3), (2, 3))
        assert verdict.winners == monitor.clear_winners == (1, 2, 3)


def loop_members(model):
    """The S x N membership matrix, built from the subsets one entry at a time."""
    return np.array([[i in s for i in range(1, model.n_sensors + 1)]
                     for s in model.subsets], dtype=float)


def decode_norms(model, decode):
    """tuple(sqrt(members @ (a * a))) of a decode a."""
    return tuple(np.sqrt(loop_members(model) @ (decode * decode)).tolist())


class TestLazyScores:
    """An injection verdict keeps the step's decode and the model's
    membership matrix, and computes its scores when first read."""

    @pytest.mark.parametrize("name", ALL_PLANTS)
    def test_scores_are_the_decode_norms(self, monitored_plants, name):
        ss, model = monitored_plants[name]
        traj, n = offset_stream(ss, model, 30, 8, 1, model.n + 20, 0.9), model.n
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        alarms = 0
        for k in range(n, traj.length):
            decode = predict(model.decoder, step_column(monitor, traj.u[:, k], traj.y[:, k]))
            verdict = injection_step(monitor, traj.u[:, k], traj.y[:, k])
            assert verdict.all_clear == (k < n + 20)
            alarms += not verdict.all_clear
            assert verdict.values == tuple(decode.tolist())
            assert verdict.members is model.members
            assert verdict.scores == decode_norms(model, decode)
        assert alarms == 10

    def test_membership_matrix_is_built_once_per_model(self, monitored_plants):
        ss, model = monitored_plants["random-10x4"]
        assert np.array_equal(model.members, loop_members(model))
        assert model.members.dtype == float
        assert not model.members.flags.writeable
        traj, n = offset_stream(ss, model, 3, 1), model.n
        first = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        second = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        for monitor in (first, second):
            assert injection_step(monitor, traj.u[:, n], traj.y[:, n]).members is model.members

    def test_clear_step_computes_no_scores(self, monitored_plants):
        # S = 210: a step that builds the S scores (an array of S * 8 = 1680
        # bytes and an S-tuple of floats) peaks at 6.8-9.3 kB here
        ss, model = monitored_plants["random-10x4"]
        traj, n = offset_stream(ss, model, 60, 3), model.n
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        verdicts, peaks = [], []
        tracemalloc.start()
        try:
            for k in range(n, traj.length):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                verdicts.append(injection_step(monitor, traj.u[:, k], traj.y[:, k]))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) < len(model.subsets) * 8, peaks
        for verdict in verdicts:
            assert verdict.all_clear and "scores" not in vars(verdict)
            assert verdict.scores == decode_norms(model, np.array(verdict.values))
            assert "scores" in vars(verdict)

    def test_equal_whether_or_not_the_scores_were_read(self, monitored_plants):
        ss, model = monitored_plants["random-6x2"]
        traj, n = offset_stream(ss, model, 12, 4, 2, model.n + 10, 0.9), model.n
        read = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        unread = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        for k in range(n, traj.length):
            verdict = injection_step(read, traj.u[:, k], traj.y[:, k])
            assert verdict.scores
            other = injection_step(unread, traj.u[:, k], traj.y[:, k])
            assert verdict == other and hash(verdict) == hash(other)
        assert not verdict.all_clear


class TestVerdictSerialization:
    def test_injection_dict(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        verdict = injection_step(monitor, [0.2], ss.C @ x)
        payload = verdict_to_dict(verdict)
        assert payload["mode"] == "injection"
        assert payload["all_clear"] is True
        assert payload["winners"] == [1, 2, 3]
        assert {entry["id"] for entry in payload["per_subset"]} == {1, 2, 3}
        assert all("residual" in entry for entry in payload["per_subset"])

    def test_non_finite_injection_score_is_null(self):
        subsets = ((1, 2), (1, 3))
        payload = verdict_to_dict(IdentificationVerdict(
            9, "injection", subsets, (float("inf"), 0.5), (2,)))
        assert [entry["residual"] for entry in payload["per_subset"]] == [None, 0.5]
        assert '"residual": null' in json.dumps(payload)

    def test_replay_dict_uses_integer_ranks(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        payload = verdict_to_dict(identify_replay(traj, 1, 6, 41))
        assert all(type(entry["rank"]) is int and entry["rank"] == 13
                   for entry in payload["per_subset"])

    def test_delay_dict(self):
        y, degrees = TestIdentifyDelay().delayed_impulse((0, 5, 0))
        payload = verdict_to_dict(identify_delay(y, degrees))
        slacks = {entry["id"]: entry["slack"] for entry in payload["per_subset"]}
        assert slacks == {1: 0, 2: 5, 3: 0}
        assert all(type(slack) is int for slack in slacks.values())
        assert [entry["indices"] for entry in payload["per_subset"]] == [[1], [2], [3]]
        assert payload["attack_free_sensors"] == [1, 3]
