import numpy as np
import pytest

from sentinel.attacks import (
    AttackBudgetError,
    DelayAttack,
    InjectionAttack,
    ReplayAttack,
    SensorSubset,
    apply_attack,
    enumerate_subsets,
    load_scenario,
    save_scenario,
    seeded_injection_signal,
)
from sentinel.datamat import Trajectory
from sentinel.plant import discretize_zoh, msd_benchmark, relative_degree, simulate


def benchmark_run(seed=7, length=30):
    ss = discretize_zoh(msd_benchmark(), 1.3)
    u = np.random.default_rng(seed).uniform(-1, 1, (1, length))
    _, y = simulate(ss, np.zeros(6), u)
    return ss, Trajectory(u, y)


class TestSensorSubset:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorSubset(1, ())
        with pytest.raises(ValueError):
            SensorSubset(1, (2, 1))
        with pytest.raises(ValueError):
            SensorSubset(1, (0, 1))

    def test_size(self):
        assert SensorSubset(2, (1, 3)).size == 2


class TestEnumerateSubsets:
    def test_three_choose_two(self):
        subs = enumerate_subsets(3, 1)
        assert [s.indices for s in subs] == [(1, 2), (1, 3), (2, 3)]
        assert [s.id for s in subs] == [1, 2, 3]

    def test_zero_budget_single_subset(self):
        subs = enumerate_subsets(4, 0)
        assert len(subs) == 1 and subs[0].indices == (1, 2, 3, 4)

    def test_binomial_count(self):
        assert len(enumerate_subsets(4, 2)) == 6

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            enumerate_subsets(3, 3)
        with pytest.raises(ValueError):
            enumerate_subsets(3, -1)


class TestInjection:
    def test_zero_signal_is_identity(self):
        _, traj = benchmark_run()
        scenario = InjectionAttack((3,), onset=5, signal=lambda sensor, k: 0.0)
        attacked = apply_attack(traj, scenario)
        np.testing.assert_array_equal(attacked.y, traj.y)
        np.testing.assert_array_equal(attacked.u, traj.u)

    def test_adds_only_after_onset_on_targets(self):
        _, traj = benchmark_run()
        scenario = InjectionAttack((2,), onset=10, signal=lambda sensor, k: 1.0)
        attacked = apply_attack(traj, scenario)
        np.testing.assert_array_equal(attacked.y[[0, 2], :], traj.y[[0, 2], :])
        np.testing.assert_array_equal(attacked.y[1, :10], traj.y[1, :10])
        np.testing.assert_allclose(attacked.y[1, 10:], traj.y[1, 10:] + 1.0)

    def test_onset_respects_start_index(self):
        traj = Trajectory(np.zeros((1, 4)), np.zeros((1, 4)), start_index=100)
        scenario = InjectionAttack((1,), onset=102, signal=lambda sensor, k: float(k))
        attacked = apply_attack(traj, scenario)
        np.testing.assert_array_equal(attacked.y, [[0.0, 0.0, 102.0, 103.0]])

    def test_onset_out_of_window(self):
        _, traj = benchmark_run(length=10)
        scenario = InjectionAttack((1,), onset=50, signal=lambda sensor, k: 1.0)
        with pytest.raises(ValueError):
            apply_attack(traj, scenario)


class TestDelay:
    def test_shift_with_zero_fill(self):
        _, traj = benchmark_run()
        attacked = apply_attack(traj, DelayAttack((0, 5, 0)))
        np.testing.assert_array_equal(attacked.y[1, :5], np.zeros(5))
        np.testing.assert_array_equal(attacked.y[1, 5:], traj.y[1, :-5])
        np.testing.assert_array_equal(attacked.y[[0, 2], :], traj.y[[0, 2], :])

    def test_zero_delays_identity(self):
        _, traj = benchmark_run()
        attacked = apply_attack(traj, DelayAttack((0, 0, 0)))
        np.testing.assert_array_equal(attacked.y, traj.y)

    def test_prehistory_fill(self):
        traj = Trajectory(np.zeros((1, 4)), np.arange(4.0).reshape(1, 4))
        pre = np.array([[10.0, 11.0]])
        attacked = apply_attack(traj, DelayAttack((2,)), prehistory=pre)
        np.testing.assert_array_equal(attacked.y, [[10.0, 11.0, 0.0, 1.0]])

    def test_short_prehistory_rejected(self):
        traj = Trajectory(np.zeros((1, 4)), np.arange(4.0).reshape(1, 4))
        with pytest.raises(ValueError):
            apply_attack(traj, DelayAttack((3,)), prehistory=np.ones((1, 2)))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayAttack((0, -1))

    def test_impulse_stays_zero_until_delay_plus_degree(self):
        ss, _ = benchmark_run()
        u = np.zeros((1, 20))
        u[0, 0] = 1.0
        _, y = simulate(ss, np.zeros(6), u)
        attacked = apply_attack(Trajectory(u, y), DelayAttack((0, 4, 0)))
        r2 = relative_degree(ss, 2)
        peak = np.max(np.abs(attacked.y[1]))
        assert np.all(np.abs(attacked.y[1, : 4 + r2]) <= 1e-2 * peak)


class TestReplay:
    def test_constant_row(self):
        _, traj = benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({3: 0.01}))
        np.testing.assert_array_equal(attacked.y[2, :], np.full(traj.length, 0.01))
        np.testing.assert_array_equal(attacked.y[[0, 1], :], traj.y[[0, 1], :])

    def test_empty_constants_identity(self):
        _, traj = benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({}))
        np.testing.assert_array_equal(attacked.y, traj.y)


class TestBudgetAndBounds:
    def test_budget_enforced(self):
        _, traj = benchmark_run()
        with pytest.raises(AttackBudgetError):
            apply_attack(traj, ReplayAttack({1: 0.0, 2: 0.0}), max_attacked=1)

    def test_out_of_range_sensor(self):
        _, traj = benchmark_run()
        with pytest.raises(ValueError):
            apply_attack(traj, ReplayAttack({7: 0.0}))

    def test_modified_rows_within_budget(self):
        _, traj = benchmark_run()
        for scenario in (InjectionAttack((3,), 5, lambda s, k: 2.0),
                         DelayAttack((0, 3, 0)), ReplayAttack({2: 5.0})):
            attacked = apply_attack(traj, scenario, max_attacked=1)
            changed = [i for i in range(3) if not np.array_equal(attacked.y[i], traj.y[i])]
            assert len(changed) <= 1

    def test_input_channel_never_touched(self):
        _, traj = benchmark_run()
        attacked = apply_attack(traj, ReplayAttack({1: 9.9}))
        np.testing.assert_array_equal(attacked.u, traj.u)


class TestSeededSignal:
    def test_zero_at_onset(self):
        signal = seeded_injection_signal(42, onset=7)
        assert signal(3, 7) == 0.0

    def test_deterministic_and_bounded(self):
        signal = seeded_injection_signal(42, onset=0)
        values = [signal(3, k) for k in range(1, 30)]
        assert values == [signal(3, k) for k in range(1, 30)]
        assert all(0.25 <= abs(v) <= 1.25 for v in values)

    def test_varies_per_sensor_and_step(self):
        signal = seeded_injection_signal(1, onset=0)
        assert signal(1, 5) != signal(2, 5)
        assert signal(1, 5) != signal(1, 6)


class TestScenarioFiles:
    def test_injection_roundtrip(self, tmp_path):
        onset = 4
        scenario = InjectionAttack((3,), onset, seeded_injection_signal(9, onset), seed=9)
        path = tmp_path / "inj.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert isinstance(loaded, InjectionAttack)
        assert loaded.targets == (3,) and loaded.onset == 4 and loaded.seed == 9
        for k in range(4, 12):
            assert loaded.signal(3, k) == scenario.signal(3, k)

    def test_unseeded_injection_rejected(self, tmp_path):
        scenario = InjectionAttack((1,), 0, lambda s, k: 1.0)
        with pytest.raises(ValueError):
            save_scenario(scenario, tmp_path / "x.json")

    def test_delay_roundtrip(self, tmp_path):
        path = tmp_path / "delay.json"
        save_scenario(DelayAttack((0, 5, 0)), path)
        loaded = load_scenario(path)
        assert isinstance(loaded, DelayAttack) and loaded.delays == (0, 5, 0)

    def test_replay_roundtrip(self, tmp_path):
        path = tmp_path / "replay.json"
        save_scenario(ReplayAttack({3: 0.01}), path)
        loaded = load_scenario(path)
        assert isinstance(loaded, ReplayAttack) and loaded.constants == {3: 0.01}

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"type": "switching"}')
        with pytest.raises(ValueError):
            load_scenario(path)
