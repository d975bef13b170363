import base64
import hashlib
import json
import re

import numpy as np
import pytest

from sentinel.attacks import seeded_injection_signal
from sentinel import cli
from sentinel.cli import benchmark_plant, main
from sentinel.datamat import (
    Trajectory,
    load_trajectory,
    save_trajectory,
    trajectory_hankel,
    write_json,
)
from sentinel.ddmodel import load_learned_model
from sentinel.identify import injection_bootstrap, injection_step, verdict_to_dict
from sentinel.plant import save_state_space, simulate


# every flag each identify mode requires, with a value
MODE_FLAGS = {"injection": [["--model", "m.json"]],
              "replay": [["--n", "6"], ["--max-attacked", "1"], ["--test-len", "41"]],
              "delay": [["--rel-deg", "1,2,1"]]}


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


@pytest.fixture(scope="module")
def delay_demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_delay")
    assert main(["demo", "delay", "--seed", "7", "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("attack, line", [
        ("injection", "injection demo: winners=(1,) attack_free=(1, 2) detection_steps=2"),
        ("delay", "delay demo: relative degrees=(1, 2, 1) attack_free=(1, 3)"),
        ("replay", "replay demo: ranks={1: 13, 2: 12, 3: 14} winners=(1,) attack_free=(1, 2)"),
    ])
    def test_summary_line_and_files(self, tmp_path, capsys, attack, line):
        assert main(["demo", attack, "--seed", "7", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == line + " -> ok\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "offline.csv", "online.csv", "scenario.json", "verdict.json"]

    def test_unexpected_verdict_exits_two(self, tmp_path, capsys):
        # a slack of 1e3 hides the injection: the monitor never fires
        assert main(["demo", "injection", "--seed", "7", "--out", str(tmp_path),
                     "--res-tol", "1e3"]) == 2
        assert capsys.readouterr().out.endswith(" detection_steps=None -> UNEXPECTED\n")
        payload = json.loads((tmp_path / "verdict.json").read_text())
        assert payload["detection_steps"] is None and payload["verdict"]["all_clear"]

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
        # the demo learned from the same recording; learn records no excitation seed
        payload = json.loads(out.read_text())
        demo = json.loads((injection_demo / "model.json").read_text())
        assert payload == dict(demo, pe_seed=None)

    def test_flag_it_does_not_read_is_rejected_with_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "run.csv", "--n", "6", "--max-attacked", "1", "--horizon", "41",
                  "--model", "m.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: sentinel learn [-h] ")
        assert captured.err.endswith(
            "\nsentinel learn: error: unrecognized arguments: --model m.json\n")

    def test_zero_input_recording_fails_rank(self, tmp_path, capsys):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        path = tmp_path / "flat.csv"
        save_trajectory(traj, path)
        code = main(["learn", str(path), "--n", "6", "--max-attacked", "1",
                     "--horizon", "41", "--out", str(tmp_path / "m.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("learning failed: ")
        assert "rank certificate failed" in captured.err

    def test_short_recording_is_usage_error(self, tmp_path, capsys):
        traj = Trajectory(np.zeros((1, 10)), np.zeros((3, 10)))
        path = tmp_path / "short.csv"
        save_trajectory(traj, path)
        code = main(["learn", str(path), "--n", "6", "--max-attacked", "1",
                     "--horizon", "41", "--out", str(tmp_path / "m.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("trajectory too short: ")

    def test_out_of_order_header(self, tmp_path, capsys):
        # the u_1 column after y_1 was read as sensor 1, and y_1 as the input
        path = tmp_path / "swapped.csv"
        path.write_text("k,y_1,u_1,y_2\n0,1.0,2.0,3.0\n")
        code = main(["learn", str(path), "--n", "6", "--max-attacked", "1",
                     "--horizon", "41", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr() == ("", "cannot read trajectory: unrecognized trajectory "
                                           "header ['k', 'y_1', 'u_1', 'y_2']\n")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["learn", str(tmp_path / "nope.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cannot read trajectory: ")

    def test_non_positive_rank_tol_is_usage_error(self, injection_demo, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["learn", str(injection_demo / "offline.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41", "--out", str(out),
                     "--rank-tol", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("invalid tolerance: ")
        assert "rank_rel must be strictly positive" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestIdentify:
    def test_injection_stream(self, injection_demo, capsys):
        code = main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(injection_demo / "model.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winners"] == [1]
        assert payload["all_clear"] is False

    @pytest.mark.parametrize("tamper, message", [
        ("truncated", "model file field basis is not a 28 x 13 matrix"),
        ("nan", "basis must be a finite 28 x 13 matrix"),
        ("not-base64", "model file field basis is not a 28 x 13 matrix"),
        ("wrong-shape", "model file field basis is not a 28 x 13 matrix"),
        ("newest-output", "model file field basis leaves the newest outputs undetermined"),
        ("non-orthonormal", "model file field basis is not orthonormal"),
        ("lambda-format", "an older format that is no longer read: re-learn the model"),
        ("records-format", "an older format that is no longer read: re-learn the model"),
    ])
    def test_inconsistent_model_is_precondition_failure(self, injection_demo, tmp_path,
                                                        capsys, tamper, message):
        payload = json.loads((injection_demo / "model.json").read_text())
        basis = np.frombuffer(base64.b64decode(payload["basis"]), "<f8").reshape(28, 13).copy()
        # the layout that stored a rank and residual record per subset next to the basis
        records = [{"id": 1, "indices": [1, 2], "rank": 13, "residual": 0.0},
                   {"id": 2, "indices": [1, 3], "rank": 13, "residual": 0.0},
                   {"id": 3, "indices": [2, 3], "rank": 13, "residual": 0.0}]
        if tamper == "truncated":
            payload["basis"] = payload["basis"][:-1]
        elif tamper == "nan":
            basis[3, 5] = np.nan
            payload["basis"] = base64.b64encode(basis.tobytes()).decode()
        elif tamper == "not-base64":
            payload["basis"] = "not base64!"
        elif tamper == "wrong-shape":
            payload["basis"] = base64.b64encode(basis[:, :-1].tobytes()).decode()
        elif tamper == "newest-output":
            # an orthonormal basis that holds sensor 1's newest-output unit vector
            basis[:, 0] = np.eye(28)[18]
            basis = np.linalg.qr(basis)[0]
            payload["basis"] = base64.b64encode(basis.tobytes()).decode()
        elif tamper == "non-orthonormal":
            basis[:, -1] *= 2.0
            payload["basis"] = base64.b64encode(basis.tobytes()).decode()
        elif tamper == "lambda-format":
            del payload["basis"]
            lam = base64.b64encode(np.zeros((18, 19)).tobytes()).decode()
            payload["subsets"] = [dict(entry, **{"lambda": lam}) for entry in records]
        else:  # records-format
            payload["subsets"] = records
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(model)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition failed: ")
        assert message in captured.err and "Traceback" not in captured.err

    def test_file_with_training_residuals_still_loads(self, injection_demo, tmp_path, capsys):
        # files written before the model stopped storing anything per subset
        # also held each subset's training misfit; a load ignores the key
        path = injection_demo / "model.json"
        payload = json.loads(path.read_text())
        # the seed-7 demo's per-subset training misfits as that format stored them
        payload["residuals"] = [4.440892098500626e-16, 6.661338147750939e-16,
                                6.661338147750939e-16]
        older = tmp_path / "model.json"
        write_json(payload, older)
        # the seed-7 demo's model.json as that format wrote it
        assert hashlib.sha256(older.read_bytes()).hexdigest() == (
            "a935b0155be44164569f10b1cc7723239f98948bed747ede8c94cbdab754a83f")
        new, old = load_learned_model(path), load_learned_model(older)
        for name in ("basis", "decoder"):
            assert getattr(old, name).tobytes() == getattr(new, name).tobytes()
        outputs = []
        for model in (path, older):
            assert main(["identify", "injection", str(injection_demo / "online.csv"),
                         "--model", str(model)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ('{"N": 3}', "model file has no field"),
        ("[1, 2]", "model file holds a JSON list, not an object"),
        ("[]", "model file holds a JSON list, not an object"),
        ('["subsets"]', "model file holds a JSON list, not an object"),
        ("123", "model file holds a JSON number, not an object"),
        ("null", "model file holds a JSON null, not an object"),
        ('"x"', "model file holds a JSON string, not an object"),
    ], ids=["missing", "missing-field", "list", "empty-list", "subsets-list", "number", "null",
            "string"])
    def test_unreadable_model_is_precondition_failure(self, injection_demo, tmp_path, capsys,
                                                      content, message):
        model = tmp_path / "model.json"
        if content is not None:
            model.write_text(content)
        code = main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(model)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition failed: ")
        assert message in captured.err and "Traceback" not in captured.err

    def test_non_positive_res_tol_is_usage_error(self, injection_demo, capsys):
        code = main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(injection_demo / "model.json"), "--res-tol", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Tolerance.residual must be strictly positive" in captured.err
        assert "Traceback" not in captured.err

    def test_injection_stdout_equals_step_loop(self, injection_demo, capsys):
        # the step loop re-anchors the history the screen hands over as
        # recorded, so the residuals agree to rounding: within 4 sqrt(q) beta
        # of the verdict's step, beta = W eps max ||K_i|| ||h|| (the screen's)
        stream = load_trajectory(injection_demo / "online.csv")
        model = load_learned_model(injection_demo / "model.json")
        monitor = injection_bootstrap(model, stream.u[:, :6], stream.y[:, :6])
        for k in range(6, stream.length):
            expected = verdict_to_dict(injection_step(monitor, stream.u[:, k], stream.y[:, k]))
            if not expected["all_clear"]:
                break
        assert main(["identify", "injection", str(injection_demo / "online.csv"),
                     "--model", str(injection_demo / "model.json")]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        residuals = [[entry.pop("residual") for entry in verdict["per_subset"]]
                     for verdict in (payload, expected)]
        column = trajectory_hankel(stream, payload["k"] - 7, 7, 1)[:, 0]
        beta = 28 * np.finfo(float).eps * np.linalg.norm(model.decoder, axis=1).max() * (
            np.linalg.norm(column))
        assert payload == expected
        assert np.allclose(*residuals, rtol=0, atol=4 * np.sqrt(2) * beta)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name, digest", [
        ("verdict.json", "46f0c30c203f94a5c8dfa978c179be031a8f53dbe56e22c4819889a1c4fc1638"),
        ("online.csv", "c7855cb6dfbc1ffe690ca866fb68665ea6b4ec4a74810821e566655847ec388b"),
        ("model.json", "dbc0fc58b4ada1bb230653dc226ea06039da4ebf99f9766bbe8015eb2560357f"),
        ("offline.csv", "bb62bdcc27c6f1cb8136d5ae85c95d5be1ad34986aa8cd7e3298c94e11c3b06e"),
        ("delay/model.json",
         "5ed1088ace9d1f005eee058f8721e25486ffb5710699775ad30ac1c5d962d202"),
        ("delay/offline.csv",
         "dab75dc2dbf2567f9e438ec663792547251a8058f8fcebe66a45d21c6ad76513"),
        ("delay/verdict.json",
         "a6b7b1c39ff241f806a2092a4d246caf35c12b83d7c293db234ddffadc91a1da"),
        ("delay/online.csv", "fc83c283cb4bb5c051fd92c457e4e0a83fbc50b01efbcefdfdfa21bc138e30ae"),
        ("delay/scenario.json",
         "ca9449766e790155be6ee863a9f4ea50802cd8c1b498e0eafdd19484bcc8326d"),
        ("replay/verdict.json",
         "e8a5a3f76cde1487a1ce0b8121744119d1d485660182b3b22cf2adaf69d9a83f"),
        ("replay/online.csv",
         "2b20c80cbfae14a3d11b7b0329463708dc751c9519ccbcc2a720ff4c3bdada94"),
        ("replay/scenario.json",
         "dd9cc138d087b3dcfcfb3c122049a58e3aabcdf0a4da812cc7319c1293b5d20b"),
    ])
    def test_injection_demo_bytes(self, request, name, digest):
        # sha256 of the seed-7 demo files: the injection demo's as the
        # per-sample step loop wrote them, the delay and replay demos' (named
        # "<demo>/<file>") as the per-demo functions wrote them; each model.json
        # and offline.csv pin the learned model's bytes and the recording behind it
        demo, _, file = name.rpartition("/")
        out = request.getfixturevalue(f"{demo or 'injection'}_demo")
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest

    def test_injection_requires_model(self, injection_demo, capsys):
        self.assert_usage_error(["identify", "injection", str(injection_demo / "online.csv")],
                                capsys, "the following arguments are required: --model")

    def test_replay_stream(self, replay_demo, capsys):
        code = main(["identify", "replay", str(replay_demo / "online.csv"),
                     "--n", "6", "--max-attacked", "1", "--test-len", "41"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["winners"] == [1]
        file_payload = json.loads((replay_demo / "verdict.json").read_text())
        assert payload == file_payload["verdict"]

    def test_replay_missing_flags(self, replay_demo, capsys):
        self.assert_usage_error(
            ["identify", "replay", str(replay_demo / "online.csv")], capsys,
            "the following arguments are required: --n, --max-attacked, --test-len")

    @pytest.mark.parametrize("budget", ["3", "5", "-1"])
    def test_replay_budget_checked_first(self, replay_demo, capsys, budget):
        code = main(["identify", "replay", str(replay_demo / "online.csv"),
                     "--n", "6", "--max-attacked", budget, "--test-len", "41"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"precondition failed: need 0 < N - M <= N, got N=3, M={budget}\n")

    @pytest.mark.parametrize("order", ["0", "-1", "-6"])
    def test_replay_order_checked_first(self, replay_demo, capsys, order):
        code = main(["identify", "replay", str(replay_demo / "online.csv"),
                     "--n", order, "--max-attacked", "1", "--test-len", "38"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"precondition failed: order and columns must be positive, got {order}, 38\n")

    def test_replay_non_exciting_stream(self, tmp_path, capsys):
        traj = Trajectory(np.zeros((1, 48)), np.zeros((3, 48)))
        path = tmp_path / "flat.csv"
        save_trajectory(traj, path)
        code = main(["identify", "replay", str(path), "--n", "6",
                     "--max-attacked", "1", "--test-len", "41"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("precondition failed: ")
        assert "not persistently exciting" in captured.err

    def test_delay_stream(self, tmp_path, capsys):
        assert main(["demo", "delay", "--seed", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()  # drop the demo summary line
        code = main(["identify", "delay", str(tmp_path / "online.csv"),
                     "--rel-deg", "1,2,1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_free_sensors"] == [1, 3]

    @pytest.mark.parametrize("rel_deg", ["x", "1,,2", "1.5,2,1", ""])
    def test_malformed_rel_deg_is_usage_error(self, capsys, rel_deg):
        self.assert_usage_error(["identify", "delay", "run.csv", "--rel-deg", rel_deg], capsys,
                                "argument --rel-deg: not a comma-separated list of integers: "
                                f"{rel_deg!r}")

    @pytest.mark.parametrize("rel_deg, message", [
        ("1,0,1", "relative degrees must be positive integers, got [1, 0, 1]"),
        ("1,2", "need one relative degree per sensor (3), got 2"),
    ])
    def test_out_of_range_rel_deg_is_precondition_failure(self, delay_demo, capsys, rel_deg,
                                                          message):
        assert main(["identify", "delay", str(delay_demo / "online.csv"),
                     "--rel-deg", rel_deg]) == 1
        assert capsys.readouterr() == ("", f"precondition failed: {message}\n")

    def test_delay_missing_flags(self, injection_demo, capsys):
        self.assert_usage_error(["identify", "delay", str(injection_demo / "online.csv")],
                                capsys, "the following arguments are required: --rel-deg")

    @pytest.mark.parametrize("mode, foreign", [
        pytest.param(mode, flag, id=f"{mode}{flag[0]}") for mode in MODE_FLAGS
        for other, flags in MODE_FLAGS.items() if other != mode for flag in flags])
    def test_flag_of_another_mode_is_rejected(self, capsys, mode, foreign):
        # the mode's own flags are all given, so only the foreign one is wrong
        own = [a for flag in MODE_FLAGS[mode] for a in flag]
        err = self.assert_usage_error(["identify", mode, "run.csv", *own, *foreign], capsys,
                                      f"unrecognized arguments: {' '.join(foreign)}")
        # the mode's parser rejects it, with the mode's usage line
        assert err.startswith(f"usage: sentinel identify {mode} [-h] ")
        assert f"\nsentinel identify {mode}: error: unrecognized" in err

    @pytest.mark.parametrize("mode, tol", [("injection", "--res-tol"),
                                           ("replay", "--rank-tol"), ("delay", None)])
    def test_mode_help_lists_only_its_flags(self, capsys, mode, tol):
        with pytest.raises(SystemExit) as exc:
            main(["identify", mode, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == {flag for flag, _ in MODE_FLAGS[mode]} | ({tol} - {None})

    @staticmethod
    def assert_usage_error(argv, capsys, message) -> str:
        """The parser rejects argv: exit 2, nothing on stdout, message on stderr,
        which is returned."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.rstrip("\n").endswith(message)
        return captured.err


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

    def test_recording_shorter_than_order_fails(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        save_trajectory(Trajectory(np.ones((1, 3)), np.zeros((2, 3))), path)
        assert main(["check-pe", str(path), "--order", "5"]) == 2
        assert capsys.readouterr() == ("fail: 3 samples cannot be exciting of order 5\n", "")

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_non_positive_order_is_usage_error(self, injection_demo, capsys, order):
        assert main(["check-pe", str(injection_demo / "offline.csv"), "--order", order]) == 1
        assert capsys.readouterr() == ("", f"excitation order must be positive, got {order}\n")

    def test_order_one_nonzero_passes(self, tmp_path):
        traj = Trajectory(np.ones((1, 30)), np.zeros((2, 30)))
        path = tmp_path / "const.csv"
        save_trajectory(traj, path)
        assert main(["check-pe", str(path), "--order", "1"]) == 0


class TestEmptyTrajectoryFile:
    @pytest.mark.parametrize("argv, what", [
        (["learn", "{csv}", "--n", "6", "--max-attacked", "1", "--horizon", "41",
          "--out", "{dir}/m.json"], "trajectory"),
        (["identify", "delay", "{csv}", "--rel-deg", "1,2,1"], "stream"),
        (["check-pe", "{csv}", "--order", "19"], "input"),
    ], ids=["learn", "identify", "check-pe"])
    def test_exit_one_with_message(self, tmp_path, capsys, argv, what):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main([a.format(csv=path, dir=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {what}: trajectory file is empty")


class TestMalformedTrajectoryFile:
    @pytest.mark.parametrize("row", ["0,0.1,0.2,0.3,9.9", "0,0.1,0.2"],
                             ids=["extra-field", "missing-field"])
    @pytest.mark.parametrize("argv", [
        ["learn", "{csv}", "--n", "6", "--max-attacked", "1", "--horizon", "41",
         "--out", "{dir}/m.json"],
        ["identify", "delay", "{csv}", "--rel-deg", "1,2"],
        ["check-pe", "{csv}", "--order", "1"],
    ], ids=["learn", "identify", "check-pe"])
    def test_field_count_mismatch_exits_one(self, tmp_path, capsys, argv, row):
        path = tmp_path / "fields.csv"
        path.write_text(f"k,u_1,y_1,y_2\n{row}\n")
        assert main([a.format(csv=path, dir=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert f"trajectory line 2 has {row.count(',') + 1} fields, the header has 4" in err
        assert "usecols" not in err


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

    @pytest.mark.parametrize("scenario, field", [
        ({"type": "injection", "targets": [3], "onset": 5}, "'seed'"),
        ({"type": "delay"}, "'tau'"),
    ], ids=["injection", "delay"])
    def test_scenario_missing_field(self, tmp_path, capsys, scenario, field):
        plant_path, scenario_path = tmp_path / "plant.json", tmp_path / "scenario.json"
        save_state_space(benchmark_plant(), plant_path)
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "run.csv"
        assert main(["simulate", "--model", str(plant_path), "--scenario", str(scenario_path),
                     "--out", str(out)]) == 1
        assert f"scenario has no field {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, message", [
        ([1, 2], "scenario file holds a JSON list"),
        ({"type": "injection", "targets": 3, "onset": 5, "seed": 1}, "injection scenario"),
        ({"type": "delay", "tau": None}, "delay scenario"),
        ({"type": "replay", "constants": [1]}, "replay scenario"),
        ({"type": "injection", "targets": [3, 3], "onset": 5, "seed": 1},
         "injection targets must be distinct"),
    ], ids=["list", "injection", "delay", "replay", "repeated-target"])
    def test_scenario_wrong_type(self, tmp_path, capsys, scenario, message):
        plant_path, scenario_path = tmp_path / "plant.json", tmp_path / "scenario.json"
        save_state_space(benchmark_plant(), plant_path)
        scenario_path.write_text(json.dumps(scenario))
        assert main(["simulate", "--model", str(plant_path), "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "run.csv")]) == 1
        err = capsys.readouterr().err
        assert f"cannot apply scenario: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("plant", [{"n": None}, {"n": 6.4}, {"m": True}, {"N": 3.5}],
                             ids=["null-n", "n-fraction", "m-bool", "N-fraction"])
    def test_mistyped_plant_file(self, tmp_path, capsys, plant):
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)
        payload = json.loads(plant_path.read_text())
        plant_path.write_text(json.dumps({**payload, **plant}))
        assert main(["simulate", "--model", str(plant_path),
                     "--out", str(tmp_path / "run.csv")]) == 1
        err = capsys.readouterr().err
        assert "cannot read plant model: plant file has a field of the wrong type" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, kind", [
        ("[1, 2]", "list"), ("[]", "list"), ("123", "number"), ("null", "null"),
        ('"x"', "string"),
    ], ids=["list", "empty-list", "number", "null", "string"])
    def test_plant_file_not_an_object(self, tmp_path, capsys, content, kind):
        plant_path, out = tmp_path / "plant.json", tmp_path / "run.csv"
        plant_path.write_text(content)
        assert main(["simulate", "--model", str(plant_path), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"cannot read plant model: plant file holds a JSON {kind}, not an object\n")
        assert not out.exists()

    def test_plant_fields_disagree_with_matrices(self, tmp_path, capsys):
        plant_path, out = tmp_path / "plant.json", tmp_path / "run.csv"
        plant_path.write_text(json.dumps(
            {"n": 2, "m": 1, "N": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}))
        assert main(["simulate", "--model", str(plant_path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "cannot read plant model: plant file field n=2 "
                                           "disagrees with matrix shapes (1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_non_positive_length_is_usage_error(self, tmp_path, capsys, length):
        plant_path, out = tmp_path / "plant.json", tmp_path / "run.csv"
        save_state_space(benchmark_plant(), plant_path)
        assert main(["simulate", "--model", str(plant_path), "--length", length,
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"length must be positive, got {length}\n")
        assert not out.exists()

    def test_missing_plant(self, tmp_path, capsys):
        assert main(["simulate", "--model", str(tmp_path / "nope.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cannot read plant model: ")


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, message", [
        ("learn", "cannot write model: "), ("simulate", "cannot write trajectory: "),
        ("demo", "cannot write demo output: ")], ids=["learn", "simulate", "demo"])
    def test_exit_one_with_message(self, injection_demo, tmp_path, capsys, command, message):
        missing = str(tmp_path / "missing" / "out")
        save_state_space(benchmark_plant(), tmp_path / "plant.json")
        (tmp_path / "file").write_text("")
        argv = {"learn": ["learn", str(injection_demo / "offline.csv"), "--n", "6",
                          "--max-attacked", "1", "--horizon", "41", "--out", missing],
                "simulate": ["simulate", "--model", str(tmp_path / "plant.json"),
                             "--out", missing],
                "demo": ["demo", "injection", "--out", str(tmp_path / "file")]}[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("out", ["missing/m.json", "file/m.json"], ids=["missing", "file"])
    def test_learn_fails_before_learning(self, injection_demo, tmp_path, capsys, monkeypatch,
                                         out):
        def learn_model(*args, **kwargs):
            raise AssertionError("learn_model called")

        monkeypatch.setattr(cli, "learn_model", learn_model)
        (tmp_path / "file").write_text("")
        assert main(["learn", str(injection_demo / "offline.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41",
                     "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write model: ")
        assert str(tmp_path / out.split("/")[0]) in captured.err

    def test_failed_learn_keeps_existing_model(self, injection_demo, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes((injection_demo / "model.json").read_bytes())
        assert main(["learn", str(injection_demo / "offline.csv"), "--n", "6",
                     "--max-attacked", "1", "--horizon", "41", "--res-tol", "1e-30",
                     "--out", str(model)]) == 2
        assert capsys.readouterr().err.startswith("learning failed: ")
        assert model.read_bytes() == (injection_demo / "model.json").read_bytes()


class TestToleranceFlags:
    """Each tolerance flag a subcommand accepts is read: an extreme value changes the outcome."""

    @pytest.mark.parametrize("argv, extreme, before, after", [
        (["check-pe", "{inj}/offline.csv", "--order", "19"], ["--rank-tol", "0.5"],
         (0, "pass", ""), (2, "fail", "")),
        (["learn", "{inj}/offline.csv", "--n", "6", "--max-attacked", "1", "--horizon", "41",
          "--out", "{tmp}/m.json"], ["--res-tol", "1e-30"], (0, "learned", ""),
         (2, "", "learning failed: ")),
        (["identify", "replay", "{rep}/online.csv", "--n", "6", "--max-attacked", "1",
          "--test-len", "41"], ["--rank-tol", "0.5"], (0, '"winners"', ""),
         (1, "", "precondition failed: ")),
        (["identify", "injection", "{inj}/online.csv", "--model", "{inj}/model.json"],
         ["--res-tol", "1e3"], (0, '"all_clear": false', ""), (0, '"all_clear": true', "")),
        (["demo", "injection", "--seed", "7", "--out", "{tmp}/demo"], ["--res-tol", "1e-30"],
         (0, "-> ok", ""), (2, "", "learning failed: ")),
        *((["demo", attack, "--seed", "7", "--out", "{tmp}/demo"], ["--rank-tol", "0.5"],
           (0, "-> ok", ""), (2, "", "excitation failed: no exciting input of order 19"))
          for attack in ("injection", "delay", "replay")),
    ], ids=["check-pe-rank", "learn-res", "identify-replay-rank", "identify-injection-res",
            "demo-res", "demo-injection-rank", "demo-delay-rank", "demo-replay-rank"])
    def test_extreme_value_changes_outcome(self, injection_demo, replay_demo, tmp_path, capsys,
                                           argv, extreme, before, after):
        argv = [a.format(inj=injection_demo, rep=replay_demo, tmp=tmp_path) for a in argv]
        for extra, (code, out, err) in (([], before), (extreme, after)):
            assert main(argv + extra) == code
            captured = capsys.readouterr()
            assert out in captured.out and err in captured.err
            # a failure goes to stderr alone, a verdict to stdout alone
            assert not (captured.out and captured.err)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "plant.json", "--rank-tol", "1e-9"],
        ["simulate", "--model", "plant.json", "--res-tol", "1e-9"],
        ["check-pe", "run.csv", "--order", "2", "--res-tol", "1e-9"],
        ["identify", "injection", "run.csv", "--model", "m.json", "--rank-tol", "1e-300"],
        ["identify", "replay", "run.csv", "--n", "6", "--max-attacked", "1", "--test-len", "41",
         "--res-tol", "1e3"],
        ["identify", "delay", "run.csv", "--rel-deg", "1,2,1", "--rank-tol", "0.5"],
        ["identify", "delay", "run.csv", "--rel-deg", "1,2,1", "--res-tol", "1e3"],
    ], ids=["simulate-rank", "simulate-res", "check-pe-res", "identify-injection-rank",
            "identify-replay-res", "identify-delay-rank", "identify-delay-res"])
    def test_unread_flag_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["identify", "injection", "{inj}/online.csv", "--model", "{inj}/model.json",
         "--res-tol", "inf"],
        ["learn", "{inj}/offline.csv", "--n", "6", "--max-attacked", "1", "--horizon", "41",
         "--out", "{tmp}/m.json", "--rank-tol", "1e400"],
    ], ids=["identify-injection-res-inf", "learn-rank-1e400"])
    def test_infinite_tolerance_is_usage_error(self, injection_demo, tmp_path, capsys, argv):
        # an infinite slack called the attacked demo stream all-clear, and an
        # infinite rank cutoff failed learning as if the data had rank 0
        assert main([a.format(inj=injection_demo, tmp=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid tolerance" in captured.err and "finite" in captured.err
        assert not (tmp_path / "m.json").exists()


class TestSeedPlumbing:
    """--seed, else SENTINEL_SEED read when demo or simulate runs, else 7."""

    @staticmethod
    def demo_seeds(monkeypatch, tmp_path, runs):
        """Run `demo injection` once per (env, argv) pair with the demo itself
        stubbed out; return the seed each run handed it."""
        seen = []
        monkeypatch.setattr(cli, "_run_demo",
                            lambda attack, seed, tol, out: seen.append(seed) or 0)
        for env, argv in runs:
            if env is None:
                monkeypatch.delenv("SENTINEL_SEED", raising=False)
            else:
                monkeypatch.setenv("SENTINEL_SEED", env)
            assert main(["demo", "injection", "--out", str(tmp_path), *argv]) == 0
        return seen

    def test_env_seed_fallback(self, monkeypatch, tmp_path):
        assert self.demo_seeds(monkeypatch, tmp_path, [("123", []), (None, [])]) == [123, 7]

    def test_flag_overrides_env(self, monkeypatch, tmp_path):
        assert self.demo_seeds(monkeypatch, tmp_path, [("123", ["--seed", "4"])]) == [4]

    def test_env_change_between_calls_is_honoured(self, monkeypatch, tmp_path):
        assert self.demo_seeds(monkeypatch, tmp_path, [("1", []), ("2", [])]) == [1, 2]
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)

        def simulate_bytes(name, *argv):
            out = tmp_path / name
            assert main(["simulate", "--model", str(plant_path), "--length", "8",
                         "--out", str(out), *argv]) == 0
            return out.read_bytes()

        monkeypatch.setenv("SENTINEL_SEED", "1")
        first = simulate_bytes("env1.csv")
        monkeypatch.setenv("SENTINEL_SEED", "2")
        second = simulate_bytes("env2.csv")
        assert first == simulate_bytes("flag1.csv", "--seed", "1")
        assert second == simulate_bytes("flag2.csv", "--seed", "2")
        assert first != second

    def test_bad_env_rejected_by_seeded_commands(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("SENTINEL_SEED", "abc")
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)
        for argv in (["demo", "injection", "--out", str(tmp_path / "demo")],
                     ["simulate", "--model", str(plant_path), "--out", str(tmp_path / "r.csv")]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "SENTINEL_SEED must be an integer, got 'abc'\n")

    @pytest.mark.parametrize("command, env, flag, message", [
        ("demo", None, "-5", "--seed must be non-negative, got -5"),
        ("demo", "-900", None, "SENTINEL_SEED must be non-negative, got -900"),
        ("demo", "7", "-1", "--seed must be non-negative, got -1"),
        ("simulate", None, "-800", "--seed must be non-negative, got -800"),
        ("simulate", None, "-707", "--seed must be non-negative, got -707"),
        ("simulate", "-900", None, "SENTINEL_SEED must be non-negative, got -900"),
        ("simulate", "-1", None, "SENTINEL_SEED must be non-negative, got -1"),
    ])
    def test_negative_seed_rejected(self, monkeypatch, tmp_path, capsys, command, env, flag,
                                    message):
        """numpy takes no negative seed, and simulate's +707 offset must not
        let -707 .. -1 through: exit 1 with one stderr line, write nothing."""
        if env is None:
            monkeypatch.delenv("SENTINEL_SEED", raising=False)
        else:
            monkeypatch.setenv("SENTINEL_SEED", env)
        plant_path = tmp_path / "plant.json"
        save_state_space(benchmark_plant(), plant_path)
        out = tmp_path / "out"
        argv = {"demo": ["demo", "injection", "--out", str(out)],
                "simulate": ["simulate", "--model", str(plant_path), "--out", str(out)]}[command]
        assert main(argv + (["--seed", flag] if flag else [])) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plant.json"]

    def test_seed_zero_accepted(self, monkeypatch, tmp_path):
        runs = [("0", []), ("5", ["--seed", "0"])]
        assert self.demo_seeds(monkeypatch, tmp_path, runs) == [0, 0]

    @pytest.mark.parametrize("argv", [
        ["learn", "{inj}/offline.csv", "--n", "6", "--max-attacked", "1", "--horizon", "41",
         "--out", "{tmp}/m.json"],
        ["identify", "injection", "{inj}/online.csv", "--model", "{inj}/model.json"],
        ["check-pe", "{inj}/offline.csv", "--order", "19"],
    ], ids=["learn", "identify", "check-pe"])
    def test_bad_env_ignored_without_seed(self, monkeypatch, tmp_path, injection_demo, argv):
        monkeypatch.setenv("SENTINEL_SEED", "abc")
        assert main([a.format(inj=injection_demo, tmp=tmp_path) for a in argv]) == 0
