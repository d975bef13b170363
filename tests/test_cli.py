import json

import numpy as np
import pytest

from sentinel.attacks import seeded_injection_signal
from sentinel.cli import benchmark_plant, build_parser, main
from sentinel.datamat import Trajectory, load_trajectory, save_trajectory
from sentinel.ddmodel import load_learned_model
from sentinel.identify import injection_bootstrap, injection_step
from sentinel.plant import save_state_space, simulate


@pytest.fixture(scope="module")
def injection_demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_injection")
    assert main(["demo", "injection", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def replay_demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_replay")
    assert main(["demo", "replay", "--seed", "7", "--out", str(out)]) == 0
    return out


class TestDemos:
    def test_injection_outputs(self, injection_demo):
        for name in ("offline.csv", "online.csv", "model.json", "verdict.json",
                     "scenario.json"):
            assert (injection_demo / name).exists()
        payload = json.loads((injection_demo / "verdict.json").read_text())
        assert payload["detection_steps"] == 2
        assert payload["verdict"]["winners"] == [1]
        assert payload["verdict"]["attack_free_sensors"] == [1, 2]

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_injection_demo_matches_interleaved_loop(self, seed, tmp_path):
        # the demo's seeded draws (offsets 202, 303, 404 of the seed), fed
        # one sample at a time: measure, step the monitor, advance the plant
        out = tmp_path / "demo"
        assert main(["demo", "injection", "--seed", str(seed), "--out", str(out)]) == 0
        ss, model = benchmark_plant(), load_learned_model(out / "model.json")
        onset = 16
        signal = seeded_injection_signal(seed + 404, onset)
        boot_u = np.random.default_rng(seed + 202).uniform(-1.0, 1.0, (1, 6))
        states, boot_y = simulate(ss, np.zeros(6), boot_u)
        monitor = injection_bootstrap(model, boot_u, boot_y)
        rng, x = np.random.default_rng(seed + 303), states[:, -1]
        u_cols, y_cols, detection_steps = [boot_u], [boot_y], None
        for k in range(6, 46):
            y_k = ss.C @ x
            if k >= onset:
                y_k[2] += signal(3, k)
            u_k = rng.uniform(-1.0, 1.0, 1)
            u_cols.append(u_k.reshape(-1, 1))
            y_cols.append(y_k.reshape(-1, 1))
            verdict = injection_step(monitor, u_k, y_k)
            x = ss.A @ x + ss.B @ u_k
            if not verdict.all_clear:
                detection_steps = verdict.k - onset
                break
        save_trajectory(Trajectory(np.hstack(u_cols), np.hstack(y_cols)), tmp_path / "loop.csv")
        assert (out / "online.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        payload = json.loads((out / "verdict.json").read_text())
        assert payload["detection_steps"] == detection_steps
        assert payload["verdict"]["winners"] == list(verdict.winners)

    def test_delay_demo(self, tmp_path):
        assert main(["demo", "delay", "--seed", "7", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verdict.json").read_text())
        assert payload["relative_degrees"] == [1, 2, 1]
        assert payload["verdict"]["attack_free_sensors"] == [1, 3]
        slacks = {e["id"]: e["slack"] for e in payload["verdict"]["per_subset"]}
        assert slacks == {1: 0, 2: 5, 3: 0}

    def test_replay_demo(self, replay_demo):
        payload = json.loads((replay_demo / "verdict.json").read_text())
        ranks = {e["id"]: e["rank"] for e in payload["verdict"]["per_subset"]}
        assert ranks[1] == 13
        assert ranks[2] != 13 and ranks[3] != 13
        assert payload["verdict"]["winners"] == [1]


class TestLearn:
    def test_learn_from_demo_recording(self, injection_demo, tmp_path):
        out = tmp_path / "model.json"
        code = main(["learn", str(injection_demo / "offline.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["subsets"]) == 3

    def test_zero_input_recording_fails_rank(self, tmp_path, capsys):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        path = tmp_path / "flat.csv"
        save_trajectory(traj, path)
        code = main(["learn", str(path), "--n", "6", "--max-attacked", "1",
                     "--horizon", "41", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "rank certificate failed" in capsys.readouterr().err

    def test_short_recording_is_usage_error(self, tmp_path):
        traj = Trajectory(np.zeros((1, 10)), np.zeros((3, 10)))
        path = tmp_path / "short.csv"
        save_trajectory(traj, path)
        code = main(["learn", str(path), "--n", "6", "--max-attacked", "1",
                     "--horizon", "41", "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_missing_file(self, tmp_path):
        code = main(["learn", str(tmp_path / "nope.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41"])
        assert code == 1


class TestIdentify:
    def test_injection_stream(self, injection_demo, capsys):
        code = main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(injection_demo / "model.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winners"] == [1]
        assert payload["all_clear"] is False

    def test_injection_requires_model(self, injection_demo):
        assert main(["identify", "injection", str(injection_demo / "online.csv")]) == 1

    def test_replay_stream(self, replay_demo, capsys):
        code = main(["identify", "replay", str(replay_demo / "online.csv"),
                     "--n", "6", "--max-attacked", "1", "--test-len", "41"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winners"] == [1]
        file_payload = json.loads((replay_demo / "verdict.json").read_text())
        assert payload == file_payload["verdict"]

    def test_replay_missing_flags(self, replay_demo):
        assert main(["identify", "replay", str(replay_demo / "online.csv")]) == 1

    def test_replay_non_exciting_stream(self, tmp_path):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        path = tmp_path / "flat.csv"
        save_trajectory(traj, path)
        code = main(["identify", "replay", str(path), "--n", "6",
                     "--max-attacked", "1", "--test-len", "41"])
        assert code == 1

    def test_delay_stream(self, tmp_path, capsys):
        assert main(["demo", "delay", "--seed", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()  # drop the demo summary line
        code = main(["identify", "delay", str(tmp_path / "online.csv"),
                     "--rel-deg", "1,2,1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_free_sensors"] == [1, 3]

    def test_delay_missing_flags(self, injection_demo):
        assert main(["identify", "delay", str(injection_demo / "online.csv")]) == 1


class TestCheckPE:
    def test_demo_offline_is_exciting(self, injection_demo, capsys):
        code = main(["check-pe", str(injection_demo / "offline.csv"),
                     "--order", "19"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_constant_input_fails(self, tmp_path, capsys):
        traj = Trajectory(np.ones((1, 30)), np.zeros((2, 30)))
        path = tmp_path / "const.csv"
        save_trajectory(traj, path)
        assert main(["check-pe", str(path), "--order", "2"]) == 2
        assert "fail" in capsys.readouterr().out

    def test_order_one_nonzero_passes(self, tmp_path):
        traj = Trajectory(np.ones((1, 30)), np.zeros((2, 30)))
        path = tmp_path / "const.csv"
        save_trajectory(traj, path)
        assert main(["check-pe", str(path), "--order", "1"]) == 0


class TestSimulate:
    def test_simulate_with_scenario(self, tmp_path, injection_demo):
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)
        out = tmp_path / "run.csv"
        code = main(["simulate", "--model", str(plant_path),
                     "--scenario", str(injection_demo / "scenario.json"),
                     "--length", "30", "--seed", "5", "--out", str(out),
                     "--max-attacked", "1"])
        assert code == 0
        traj = load_trajectory(out)
        assert traj.length == 30 and traj.output_dim == 3

    def test_simulate_deterministic(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--model", str(plant_path), "--length", "20",
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_plant(self, tmp_path):
        assert main(["simulate", "--model", str(tmp_path / "nope.json")]) == 1


class TestSeedPlumbing:
    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("SENTINEL_SEED", "123")
        parser = build_parser()
        args = parser.parse_args(["demo", "injection"])
        assert args.seed == 123

    def test_flag_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SENTINEL_SEED", "123")
        parser = build_parser()
        args = parser.parse_args(["demo", "injection", "--seed", "4"])
        assert args.seed == 4
