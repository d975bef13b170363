import numpy as np
import pytest

from sentinel.attacks import DelayAttack, ReplayAttack, apply_attack
from sentinel.datamat import (
    ExcitationError,
    Trajectory,
    build_subset_matrices,
    generate_pe_input,
)
from sentinel.ddmodel import learn_model
from sentinel.identify import (
    NoResponseError,
    first_response,
    identify_delay,
    identify_replay,
    injection_bootstrap,
    injection_step,
    run_injection,
    verdict_to_dict,
)
from sentinel.plant import (
    StateSpace,
    discretize_zoh,
    msd_benchmark,
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
        np.testing.assert_array_equal(monitor.states[1], [4.0, 3.0])
        assert monitor.k == 1

    def test_equilibrium_history_gives_zero_states(self):
        _, model = benchmark_model()
        monitor = injection_bootstrap(model, np.zeros((1, 6)), np.zeros((3, 6)))
        for state in monitor.states.values():
            assert np.all(state == 0.0)

    def test_matches_data_matrix_columns(self):
        ss, model = benchmark_model()
        u = np.random.default_rng(2).uniform(-1, 1, (1, 10))
        _, y = simulate(ss, np.zeros(6), u)
        monitor = injection_bootstrap(model, u[:, :6], y[:, :6])
        traj = Trajectory(u, y)
        for entry in model.predictors:
            mats = build_subset_matrices(traj, entry.subset, 6, 4)
            np.testing.assert_array_equal(monitor.states[entry.subset.id],
                                          mats.states[:, 0])

    def test_history_shape_validation(self):
        _, model = benchmark_model()
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 5)), np.zeros((3, 6)))
        with pytest.raises(ValueError):
            injection_bootstrap(model, np.zeros((1, 6)), np.zeros((2, 6)))


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
                assert score.value < 1e-8

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
        by_id = {s.id: s.value for s in verdict.scores}
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
            for score in verdict.scores:
                if sensor in score.indices:
                    assert score.value >= abs(delta) * (1 - 1e-6)
                else:
                    assert score.value < 1e-8

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
        monitor, x = online_setup(ss, model)
        u_k, y_k = np.array([0.2]), ss.C @ x
        if channel == "u_k":
            u_k[0] = bad
        else:
            y_k[0] = bad
        states = {j: v.copy() for j, v in monitor.states.items()}
        with pytest.raises(ValueError, match=channel):
            injection_step(monitor, u_k, y_k)
        assert not monitor.terminal and monitor.k == 6
        for j, state in monitor.states.items():
            np.testing.assert_array_equal(state, states[j])


def closed_loop_stream(ss, x, steps, seed, attack_at=None):
    """Online samples from state x, with sensor 3 offset by 0.9 from attack_at on."""
    u = np.random.default_rng(seed).uniform(-1, 1, (1, steps))
    _, y = simulate(ss, x, u)
    if attack_at is not None:
        y[2, attack_at:] += 0.9
    return u, y


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


class TestIdentifyReplay:
    def test_clean_window_all_winners(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        verdict = identify_replay(traj, 3, 1, 6, 41)
        assert verdict.all_clear
        assert verdict.winners == (1, 2, 3)
        assert all(s.value == 13 for s in verdict.scores)

    def test_benchmark_replay_attack(self):
        ss = benchmark_plant()
        traj = excited_run(ss, 6, 41, 19, 21)
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        verdict = identify_replay(attacked, 3, 1, 6, 41)
        assert not verdict.all_clear
        assert verdict.winners == (1,)
        assert verdict.attack_free_sensors == (1, 2)
        by_id = {s.id: int(s.value) for s in verdict.scores}
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
                for score in verdict.scores:
                    if sensor in score.indices:
                        assert score.value != 13, (sensor, constant, score)
                    else:
                        assert score.value == 13, (sensor, constant, score)

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


class TestFirstResponse:
    def test_skips_leading_zero_sample(self):
        assert first_response([0.0, 0.0, 1.0, 0.5]) == 2

    def test_relative_cutoff_suppresses_tiny_leader(self):
        assert first_response([0.0, 1e-6, 1.0, 0.5]) == 2

    def test_silent_signal(self):
        assert first_response(np.zeros(10)) is None


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
        assert all(s.value == 0 for s in verdict.scores)

    def test_benchmark_delay_on_sensor_two(self):
        y, degrees = self.delayed_impulse((0, 5, 0))
        assert degrees == [1, 2, 1]
        assert [first_response(y[j]) for j in range(3)] == [1, 7, 1]
        verdict = identify_delay(y, degrees)
        assert verdict.winners == (1, 3)
        assert verdict.attack_free_sensors == (1, 3)
        by_id = {s.id: s.value for s in verdict.scores}
        assert (by_id[1], by_id[2], by_id[3]) == (0.0, 5.0, 0.0)

    def test_delay_on_first_sensor(self):
        y, degrees = self.delayed_impulse((1, 0, 0))
        verdict = identify_delay(y, degrees)
        assert verdict.winners == (2, 3)
        by_id = {s.id: s.value for s in verdict.scores}
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
        assert payload["attack_free_sensors"] == [1, 3]
