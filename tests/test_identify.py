import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    gathered_stacks,
    reference_history,
    reference_injection_bootstrap,
    reference_injection_step,
)

from sentinel.attacks import DelayAttack, ReplayAttack, apply_attack
from sentinel.datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    build_subset_matrices,
    generate_pe_input,
    trajectory_hankel,
)
from sentinel import identify
from sentinel.ddmodel import learn_model, load_learned_model, predict, save_learned_model
from sentinel.identify import (
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
    return ss, learn_model(traj, 3, 1, 6, 41, pe_seed=seed)


def histories(monitor):
    """Every subset's stacked history in the monitor column, S x d."""
    return monitor.column[monitor.model.regressor][:, monitor.model.m:]


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
        model = learn_model(Trajectory(u, y), 1, 0, 1, 8)
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
        np.testing.assert_array_equal(monitor.model.regressor, mats.regressor)
        np.testing.assert_array_equal(monitor.model.target, mats.target)
        np.testing.assert_array_equal(histories(monitor), gathered_stacks(mats)[0][:, 1:, 0])

    def test_history_shape_validation(self):
        _, model = benchmark_model()
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 5)), np.zeros((3, 6)))
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 6)), np.zeros((2, 6)))

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
        assert (direct.k, direct.terminal) == (booted.k, booted.terminal)
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
        y_k = ss.C @ x
        y_k[2] += delta
        verdict = injection_step(monitor, rng.uniform(-1, 1, 1), y_k)
        assert not verdict.all_clear
        assert verdict.winners == (1,)
        assert verdict.attack_free_sensors == (1, 2)
        by_id = {s.id: score for s, score in zip(verdict.subsets, verdict.scores)}
        assert by_id[1] < 1e-8
        assert by_id[2] >= delta * (1 - 1e-6)
        assert by_id[3] >= delta * (1 - 1e-6)
        assert monitor.terminal

    def test_zero_attack_sample_is_invisible(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        y_k = ss.C @ x
        y_k[2] += 0.0
        verdict = injection_step(monitor, [0.3], y_k)
        assert verdict.all_clear

    def test_terminal_monitor_rejects_steps(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        y_k = ss.C @ x
        y_k[0] += 1.0
        verdict = injection_step(monitor, [0.1], y_k)
        assert not verdict.all_clear
        with pytest.raises(RuntimeError):
            injection_step(monitor, [0.1], ss.C @ x)

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
                if sensor in subset.indices:
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
            assert not monitor.terminal and monitor.k == 6
            np.testing.assert_array_equal(monitor.column, column)
            # nothing of the rejected sample stays: a clean one scores as on a fresh monitor
            fresh, _ = online_setup(ss, model)
            assert (injection_step(monitor, [0.2], ss.C @ x)
                    == injection_step(fresh, [0.2], ss.C @ x))

    def test_step_calls_module_predict_once(self, monkeypatch):
        # perfbench's tracer wraps sentinel.identify.predict to time the stacked
        # product; a step that bound predict elsewhere, or skipped it, would
        # leave that span empty
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        u, y = closed_loop_stream(ss, x, 10, 5, attack_at=7)
        calls = []

        def counting_predict(*args):
            calls.append(args)
            return predict(*args)

        monkeypatch.setattr(identify, "predict", counting_predict)
        for k in range(u.shape[1]):
            verdict = injection_step(monitor, u[:, k], y[:, k])
            assert len(calls) == k + 1
            if not verdict.all_clear:
                break
        assert verdict.k == 6 + 8 and monitor.terminal


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
    return ss, learn_model(traj, n_sensors, max_attacked, n, (m + 1) * order)


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


class TestBatchedMonitorMatchesReference:
    """The batched step against the per-subset reference, step by step."""

    ATTACKED = {"benchmark": (3,), "random-10x4": (7, 8, 9, 10), "random-6x2": (2, 5)}

    @pytest.mark.parametrize("name", ["benchmark", "random-10x4", "random-6x2"])
    @pytest.mark.parametrize("attack", [False, True], ids=["clean", "attacked"])
    def test_every_step_bit_equal(self, monitored_plants, name, attack):
        ss, model = monitored_plants[name]
        attacked = self.ATTACKED[name] if attack else ()
        u, y = monitor_stream(ss, model, 40, 17, attacked, onset=30)
        n = model.n
        batched = injection_bootstrap(model, u[:, :n], y[:, :n])
        reference = reference_injection_bootstrap(model, u[:, :n], y[:, :n])
        for k in range(n, u.shape[1]):
            verdict = injection_step(batched, u[:, k], y[:, k])
            expected = reference_injection_step(reference, u[:, k], y[:, k])
            assert np.array_equal(verdict.scores, expected.scores)
            assert verdict.winners == expected.winners
            assert (verdict.k, verdict.all_clear) == (expected.k, expected.all_clear)
            assert verdict == expected
            assert (batched.k, batched.terminal) == (reference.k, reference.terminal)
            if not verdict.all_clear:
                break
        # a terminal verdict freezes the history, as the reference's states
        for j, subset in enumerate(model.subsets):
            assert np.array_equal(histories(batched)[j], reference.states[subset.id])
        assert verdict.all_clear != attack
        if attack:
            assert verdict.k == n + 31
            assert set(verdict.attack_free_sensors).isdisjoint(attacked)

    def test_gather_equals_stack_history(self, monitored_plants):
        ss, model = monitored_plants["random-10x4"]
        u, y = monitor_stream(ss, model, 10, 23)
        n = model.n
        monitor = injection_bootstrap(model, u[:, :n], y[:, :n])
        for start in (0, 10):
            if start:
                run_injection(monitor, u[:, n:], y[:, n:])
            assert monitor.model.regressor.shape == (len(model.subsets), model.lam.shape[2])
            for j, subset in enumerate(model.subsets):
                rows = [i - 1 for i in subset.indices]
                window = slice(start, start + n)
                np.testing.assert_array_equal(histories(monitor)[j],
                                              reference_history(y[rows, window], u[:, window]))

    @pytest.mark.parametrize("name", ["benchmark", "random-6x2", "random-5x2-m2"])
    def test_all_clear_history_is_the_hankel_column(self, monitored_plants, name):
        # after each all-clear step the monitor's histories are the regressor
        # rows of the stream's Hankel column at the step it now awaits
        ss, model = monitored_plants[name]
        traj, n, m = offset_stream(ss, model, 25, 29), model.n, model.m
        monitor = injection_bootstrap(model, traj.u[:, :n], traj.y[:, :n])
        for k in range(n, traj.length - 1):
            assert injection_step(monitor, traj.u[:, k], traj.y[:, k]).all_clear
            column = trajectory_hankel(traj, monitor.k - n, n + 1, 1)[:, 0]
            assert np.array_equal(histories(monitor), column[monitor.model.regressor][:, m:])


class TestStepMatchesReferenceProperty:
    """The batched step against the per-subset reference over drawn plants,
    attacks and tolerances, step by step up to the terminal one."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_step_bit_equal(self, data):
        n_sensors = data.draw(st.integers(2, 7), label="N")
        max_attacked = data.draw(st.integers(0, n_sensors - 1), label="M")
        n, m = data.draw(st.integers(1, 4), label="n"), data.draw(st.integers(1, 2), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        ss, model = plant_and_model(n_sensors, max_attacked, seed, n, m)
        length = data.draw(st.integers(1, 30), label="steps")
        u = np.random.default_rng(seed).uniform(-1, 1, (m, n + length))
        _, y = simulate(ss, np.zeros(n), u)
        targets = data.draw(st.lists(st.integers(1, n_sensors), unique=True), label="targets")
        onset = data.draw(st.integers(0, length - 1), label="onset")
        for sensor in targets:
            # zero, near the slack tol.residual * (1 + ||observed||), or plainly visible
            size = data.draw(st.one_of(st.just(0.0),
                                       st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e)),
                             label="amplitude")
            y[sensor - 1, n + onset:] += data.draw(st.sampled_from([-1.0, 1.0])) * size
        # over the whole range, and dense around the default, where clean steps clear
        tol = Tolerance(residual=10.0 ** data.draw(
            st.one_of(st.floats(-300.0, 3.0), st.floats(-11.0, -7.0)), label="log10 tol"))
        batched = injection_bootstrap(model, u[:, :n], y[:, :n], tol)
        reference = reference_injection_bootstrap(model, u[:, :n], y[:, :n], tol)
        for k in range(n, n + length):
            verdict = injection_step(batched, u[:, k], y[:, k])
            expected = reference_injection_step(reference, u[:, k], y[:, k])
            assert verdict == expected
            assert np.array(verdict.scores).tobytes() == np.array(expected.scores).tobytes()
            assert (batched.k, batched.terminal) == (reference.k, reference.terminal)
            if not expected.all_clear:
                break
        if batched.terminal:
            with pytest.raises(RuntimeError):
                injection_step(batched, u[:, -1], y[:, -1])
        # all-clear steps advance the history as the reference does; the terminal one freezes it
        for j, subset in enumerate(model.subsets):
            assert np.array_equal(histories(batched)[j], reference.states[subset.id])


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
        assert looped.k == explicit.k and looped.terminal == explicit.terminal
        assert verdict.all_clear == (attack_at is None)

    def test_mismatched_lengths_rejected(self):
        ss, model = benchmark_model()
        monitor, x = online_setup(ss, model)
        u, y = closed_loop_stream(ss, x, 5, 5)
        with pytest.raises(ValueError):
            run_injection(monitor, u[:, :4], y)
        assert monitor.k == 6 and not monitor.terminal


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
        return (model.basis.shape[0] + len(model.subsets)) * 8

    def block_sizes(self, model):
        """Screen block sizes in steps: small ones, then the BLOCK_BYTES default."""
        return [1, 5, 16, identify.BLOCK_BYTES // self.column_bytes(model)]

    def screened(self, model, traj, block, tol=DEFAULT_TOL):
        """identify_injection with screen blocks of `block` steps."""
        with mock.patch.object(identify, "BLOCK_BYTES", block * self.column_bytes(model)):
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
            verdict = self.screened(model, traj, block)
            expected = step_loop_verdict(model, traj)
            assert verdict == expected
            assert type(verdict.k) is int
            assert (json.dumps(verdict_to_dict(verdict), sort_keys=True)
                    == json.dumps(verdict_to_dict(expected), sort_keys=True))

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_step_near_the_slack(self, monitored_plants, factor):
        # an offset of 0.75 slack: the screen stops at a step it cannot clear
        # by half the slack, the exact step calls it clear and the stream goes
        # on; an offset of 1.5 slack ends the stream there
        ss, model = monitored_plants["benchmark"]
        n, at = model.n, model.n + 20
        clean = offset_stream(ss, model, 40, 5)
        probe = injection_bootstrap(model, clean.u[:, at - n: at], clean.y[:, at - n: at])
        assert injection_step(probe, clean.u[:, at], clean.y[:, at]).all_clear
        # the offset leaves the observed norms, hence the slack, as they are
        slack = DEFAULT_TOL.residual * (1 + np.linalg.norm(histories(probe), axis=1))
        attacked = [s.id - 1 for s in model.subsets if 3 in s.indices]
        traj = offset_stream(ss, model, 40, 5, 3, at, factor * slack[attacked].min())
        assert identify._screen_clear_steps(model, traj, DEFAULT_TOL) == at
        monitor = InjectionMonitor(model, trajectory_hankel(traj, at - n, n + 1, 1)[:, 0], at)
        step = injection_step(monitor, traj.u[:, at], traj.y[:, at])
        ratio = (np.array(step.scores) / slack)[attacked].max()
        verdict = identify_injection(model, traj)
        assert verdict == step_loop_verdict(model, traj)
        if factor < 1:
            assert step.all_clear and 0.5 < ratio <= 1
            assert verdict.k > at + 1
        else:
            assert not step.all_clear and ratio > 1
            assert verdict == step

    @pytest.mark.parametrize("name", ["random-10x4", "random-5x2-m2"])
    def test_slack_under_the_rounding_bound_clears_nothing(self, monitored_plants, name):
        # a slack of 1e-13 (1 + ||observed||) holds the clean residuals' spread
        # but not the screen's rounding bound: the step loop clears every
        # step, the screen vouches for none and leaves them all to it
        ss, model = monitored_plants[name]
        tol = Tolerance(residual=1e-13)
        traj = offset_stream(ss, model, 60, 4)
        expected = step_loop_verdict(model, traj, tol)
        assert expected.all_clear and expected.k == traj.length
        assert identify._screen_clear_steps(model, traj, tol) == model.n
        assert identify_injection(model, traj, tol) == expected

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
            assert self.screened(model, traj, block, tol) == expected
        if residual == 1e3:
            assert expected.all_clear and expected.k == traj.length

    def test_validation(self, monitored_plants):
        ss, model = monitored_plants["benchmark"]
        traj = offset_stream(ss, model, 4, 1)
        with pytest.raises(TrajectoryLengthError):
            identify_injection(model, Trajectory(traj.u[:, :6], traj.y[:, :6]))
        with pytest.raises(ValueError, match="outputs"):
            identify_injection(model, Trajectory(traj.u, traj.y[:2]))


class TestResidualBounds:
    """The screen's bound on each step residual against the step it stands in for."""

    @staticmethod
    def step_scores(model, traj):
        """injection_step's scores at every step n .. L - 2, S x (L - 1 - n),
        each from a monitor on the step's Hankel column, so attacked steps
        are scored too."""
        n = model.n
        scores = []
        for k in range(n, traj.length - 1):
            monitor = InjectionMonitor(model, trajectory_hankel(traj, k - n, n + 1, 1)[:, 0], k)
            scores.append(injection_step(monitor, traj.u[:, k], traj.y[:, k]).scores)
        return np.array(scores).T

    @pytest.mark.parametrize("name", TestIdentifyInjection.SCREENED)
    @pytest.mark.parametrize("attack", [False, True], ids=["clean", "attacked"])
    def test_scores_within_the_bound(self, monitored_plants, name, attack):
        ss, model = monitored_plants[name]
        onset = model.n + 25
        traj = offset_stream(ss, model, 40, 8, model.n_sensors if attack else None, onset, 0.9)
        blocks = list(identify._residual_bounds(model, traj))
        assert [start for start, *_ in blocks] == [model.n]
        _, bound, rounding, observed = blocks[0]
        scores = self.step_scores(model, traj)
        assert bound.shape == scores.shape
        columns = trajectory_hankel(traj, 0, model.n + 1, traj.length - 1 - model.n)
        np.testing.assert_allclose(observed, np.linalg.norm(columns[model.target], axis=1),
                                   rtol=1e-14)
        assert (scores <= bound + rounding / 8).all()
        # not vacuous: the bound clears every clean step and stops at the attack
        expected = onset if attack else traj.length - 1
        assert identify._screen_clear_steps(model, traj, DEFAULT_TOL) == expected

    @pytest.mark.parametrize("factor", [0.8, 1.25])
    def test_clears_where_twice_the_bound_fits_the_slack(self, monitored_plants, factor):
        # the bound grows with an offset's size: scaled so that 2 D + b is
        # 0.8 of the slack the step is cleared, at 1.25 it is handed over
        ss, model = monitored_plants["benchmark"]
        at = model.n + 20

        def stream(amplitude):
            return offset_stream(ss, model, 40, 5, 3, at, amplitude)

        (_, bound, rounding, observed), = identify._residual_bounds(model, stream(1e-3))
        column = at - model.n
        ratio = ((2 * bound + rounding) / (DEFAULT_TOL.residual * (1 + observed)))[:, column]
        traj = stream(1e-3 * factor / ratio.max())
        handover = identify._screen_clear_steps(model, traj, DEFAULT_TOL)
        assert handover > at if factor < 1 else handover == at
        assert identify_injection(model, traj) == step_loop_verdict(model, traj)

    @pytest.mark.parametrize("name", TestIdentifyInjection.SCREENED)
    @pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
    def test_non_orthonormal_basis_equals_step_loop(self, monitored_plants, tmp_path, name,
                                                    loaded):
        # the bound holds for any basis of the column space: U M with
        # cond(M) = 1e3 leaves the verdicts to the step loop's; a model file
        # must hold an orthonormal basis, so its load rejects U M
        ss, model = monitored_plants[name]
        rng = np.random.default_rng(3)
        rank = model.basis.shape[1]
        left, right = (np.linalg.qr(rng.standard_normal((rank, rank)))[0] for _ in range(2))
        mixing = left @ np.diag(np.geomspace(1, 1e3, rank)) @ right
        moved = dataclasses.replace(model, basis=model.basis @ mixing)
        if loaded:
            save_learned_model(moved, tmp_path / "model.json")
            with pytest.raises(ValueError, match="model file field basis is not orthonormal"):
                load_learned_model(tmp_path / "model.json")
            return
        for sensor in (None, model.n_sensors):
            traj = offset_stream(ss, moved, 60, 12, sensor, moved.n + 30, 0.9)
            assert identify_injection(moved, traj) == step_loop_verdict(moved, traj)

    @pytest.mark.parametrize("plant", ["benchmark", "random-10x4"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_output_scales(self, monitored_plants, plant, scale):
        ss, model = monitored_plants[plant]
        ss = StateSpace(ss.A, ss.B, np.asarray(ss.C) * scale)
        order = (model.m + model.n_sensors - model.max_attacked) * model.n + 1
        model = learn_model(excited_run(ss, model.n, 2 * order, order, 7), model.n_sensors,
                            model.max_attacked, model.n, 2 * order)
        clean = offset_stream(ss, model, 80, 13)
        assert identify._screen_clear_steps(model, clean, DEFAULT_TOL) == clean.length - 1
        for traj in (clean, offset_stream(ss, model, 80, 13, 1, model.n + 40, 0.5 * scale)):
            assert identify_injection(model, traj) == step_loop_verdict(model, traj)


class TestIdentifyReplay:
    def test_clean_window_all_winners(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        verdict = identify_replay(traj, 3, 1, 6, 41)
        assert verdict.all_clear
        assert verdict.winners == (1, 2, 3)
        assert all(s == 13 for s in verdict.scores)

    def test_benchmark_replay_attack(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        verdict = identify_replay(attacked, 3, 1, 6, 41)
        assert not verdict.all_clear
        assert verdict.winners == (1,)
        assert verdict.attack_free_sensors == (1, 2)
        by_id = {s.id: int(score) for s, score in zip(verdict.subsets, verdict.scores)}
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
                verdict = identify_replay(attacked, 3, 1, 6, 41)
                for subset, score in zip(verdict.subsets, verdict.scores):
                    if sensor in subset.indices:
                        assert score != 13, (sensor, constant, subset)
                    else:
                        assert score == 13, (sensor, constant, subset)

    def test_non_exciting_input_rejected(self):
        ss = benchmark_plant()
        u = np.zeros((1, 48))
        _, y = simulate(ss, np.zeros(6), u)
        with pytest.raises(ExcitationError) as err:
            identify_replay(Trajectory(u, y), 3, 1, 6, 41)
        assert err.value.order == 19

    def test_short_window_rejected(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        with pytest.raises(ExcitationError):
            identify_replay(traj, 3, 1, 6, 30)

    @pytest.mark.parametrize("n_sensors, max_attacked", [(4, 2), (2, 1)])
    def test_sensor_count_mismatch_rejected(self, n_sensors, max_attacked):
        traj = excited_run(benchmark_plant(), 6, 41, 19, 21)
        with pytest.raises(ValueError, match=f"3 outputs, expected {n_sensors}"):
            identify_replay(traj, n_sensors, max_attacked, 6, 41)


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
        by_id = {s.id: score for s, score in zip(verdict.subsets, verdict.scores)}
        assert (by_id[1], by_id[2], by_id[3]) == (0.0, 5.0, 0.0)

    def test_delay_on_first_sensor(self):
        y, degrees = self.delayed_impulse((1, 0, 0))
        verdict = identify_delay(y, degrees)
        assert verdict.winners == (2, 3)
        by_id = {s.id: score for s, score in zip(verdict.subsets, verdict.scores)}
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

    def test_replay_dict_uses_integer_ranks(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        payload = verdict_to_dict(identify_replay(traj, 3, 1, 6, 41))
        assert all(entry["rank"] == 13 for entry in payload["per_subset"])

    def test_delay_dict(self):
        y, degrees = TestIdentifyDelay().delayed_impulse((0, 5, 0))
        payload = verdict_to_dict(identify_delay(y, degrees))
        slacks = {entry["id"]: entry["slack"] for entry in payload["per_subset"]}
        assert slacks == {1: 0, 2: 5, 3: 0}
        assert [entry["indices"] for entry in payload["per_subset"]] == [[1], [2], [3]]
        assert payload["attack_free_sensors"] == [1, 3]
