"""Command-line front end: benchmark demos, learning, identification, I/O.

All randomness derives from one seed (flag --seed, else the SENTINEL_SEED
environment variable, else 7). Distinct uses draw from fixed offsets of
that seed so every file a command writes is byte-reproducible:

    +0    excitation signal for offline data collection
    +101  offline prefix/tail samples around the excitation window
    +202  online bootstrap inputs (injection demo)
    +303  online test inputs (injection demo)
    +404  injection attack values
    +505  excitation signal for the replay test window
    +606  replay prefix/tail samples
    +707  input for the `simulate` command

Exit codes: 0 success (demos: the expected verdict), 1 usage or
precondition failure, 2 mathematical failure (rank certificate, learning,
or an unexpected demo verdict).
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    DelayAttack,
    InjectionAttack,
    ReplayAttack,
    apply_attack,
    load_scenario,
    save_scenario,
    seeded_injection_signal,
)
from .datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    excitation_rank,
    generate_pe_input,
    load_trajectory,
    save_trajectory,
    write_json,
)
from .ddmodel import LearningError, learn_model, load_learned_model, save_learned_model
from .identify import (
    NoResponseError,
    identify_delay,
    identify_injection,
    identify_replay,
    verdict_to_dict,
)
from .linalg import DEFAULT_TOL, Tolerance
from .plant import (
    ContinuousStateSpace,
    StateSpace,
    discretize_zoh,
    load_state_space,
    msd_benchmark,
    relative_degree,
    simulate,
)

DEFAULT_SEED = 7

# benchmark demo configuration
BENCH_TS = 1.3
BENCH_ORDER = 6
BENCH_COLUMNS = 41
BENCH_SENSORS = 3
BENCH_MAX_ATTACKED = 1
INJECTION_TARGET = 3
INJECTION_ONSET_OFFSET = 10
INJECTION_STEP_BUDGET = 40
DELAY_SAMPLES = (0, 5, 0)
DELAY_IMPULSE = 0.1
DELAY_OUTPUT_SCALE = 0.1
DELAY_WINDOW = 25
REPLAY_CONSTANT = 0.01

# seed offsets (see module docstring)
OFF_FILL, OFF_BOOT, OFF_TEST, OFF_ATTACK = 101, 202, 303, 404
OFF_REPLAY_PE, OFF_REPLAY_FILL, OFF_SIM = 505, 606, 707


def _excitation_order(m: int, q: int, n: int) -> int:
    return (m + q) * n + 1


def excited_run(ss: StateSpace, n: int, columns: int, order: int, seed: int,
                fill_seed: int, tol: Tolerance) -> tuple[Trajectory, int]:
    """Simulate the plant from equilibrium under a certified exciting input.

    The recording has n + columns + 1 samples; the window u[n .. n+columns-1]
    is exactly the generated exciting signal, the n prefix and single tail
    samples are seeded uniform fill. Returns the trajectory and the seed the
    excitation generator actually used.
    """
    m = ss.input_dim
    pe = generate_pe_input(m, columns, order, seed, tol)
    fill = np.random.default_rng(fill_seed).uniform(-1.0, 1.0, (m, n + 1))
    u_full = np.hstack([fill[:, :n], pe.u, fill[:, n:]])
    _, y = simulate(ss, np.zeros(ss.state_dim), u_full)
    return Trajectory(u_full, y), pe.seed


def benchmark_plant(output_scale: float = 1.0) -> StateSpace:
    """Discretized benchmark plant, optionally with rescaled outputs."""
    css = msd_benchmark()
    if output_scale != 1.0:
        css = ContinuousStateSpace(css.A, css.B, css.C * output_scale)
    return discretize_zoh(css, BENCH_TS)


def _demo_learn(ss: StateSpace, seed: int, tol: Tolerance, out: Path):
    order = _excitation_order(ss.input_dim, BENCH_SENSORS - BENCH_MAX_ATTACKED,
                              BENCH_ORDER)
    traj, pe_seed = excited_run(ss, BENCH_ORDER, BENCH_COLUMNS, order, seed,
                                seed + OFF_FILL, tol)
    save_trajectory(traj, out / "offline.csv")
    try:
        model = learn_model(traj, BENCH_SENSORS, BENCH_MAX_ATTACKED, BENCH_ORDER,
                            BENCH_COLUMNS, tol, pe_seed)
    except LearningError as exc:
        print(f"learning failed: {exc}")
        return None
    save_learned_model(model, out / "model.json")
    return model


def demo_injection(seed: int, tol: Tolerance, out: Path) -> int:
    ss = benchmark_plant()
    model = _demo_learn(ss, seed, tol, out)
    if model is None:
        return 2
    n = model.n
    onset = n + INJECTION_ONSET_OFFSET
    signal = seeded_injection_signal(seed + OFF_ATTACK, onset)
    scenario = InjectionAttack((INJECTION_TARGET,), onset, signal, seed + OFF_ATTACK)
    save_scenario(scenario, out / "scenario.json")

    boot_u = np.random.default_rng(seed + OFF_BOOT).uniform(-1.0, 1.0, (model.m, n))
    states, boot_y = simulate(ss, np.zeros(ss.state_dim), boot_u)
    test_u = np.random.default_rng(seed + OFF_TEST).uniform(
        -1.0, 1.0, (INJECTION_STEP_BUDGET, model.m)).T
    _, test_y = simulate(ss, states[:, -1], test_u)
    test = apply_attack(Trajectory(test_u, test_y, start_index=n), scenario)
    stream = Trajectory(np.hstack([boot_u, test.u]), np.hstack([boot_y, test.y]))
    verdict = identify_injection(model, stream, tol)
    detection_steps = None if verdict.all_clear else verdict.k - onset
    # the samples the monitor consumed: bootstrap window and steps up to k
    save_trajectory(Trajectory(stream.u[:, :verdict.k], stream.y[:, :verdict.k]),
                    out / "online.csv")
    payload = {
        "mode": "injection",
        "onset": onset,
        "detection_steps": detection_steps,
        "verdict": verdict_to_dict(verdict),
    }
    write_json(payload, out / "verdict.json")
    expected = (not verdict.all_clear and verdict.winners == (1,)
                and detection_steps is not None and detection_steps <= 2)
    print(f"injection demo: winners={verdict.winners} "
          f"attack_free={verdict.attack_free_sensors} "
          f"detection_steps={detection_steps} -> {'ok' if expected else 'UNEXPECTED'}")
    return 0 if expected else 2


def demo_delay(seed: int, tol: Tolerance, out: Path) -> int:
    ss = benchmark_plant(DELAY_OUTPUT_SCALE)
    model = _demo_learn(ss, seed, tol, out)
    if model is None:
        return 2
    degrees = [relative_degree(ss, j) for j in range(1, BENCH_SENSORS + 1)]
    if any(d is None for d in degrees):
        print(f"benchmark sensor never responds: relative degrees {degrees}")
        return 2
    scenario = DelayAttack(DELAY_SAMPLES)
    save_scenario(scenario, out / "scenario.json")
    u = np.zeros((1, DELAY_WINDOW))
    u[0, 0] = DELAY_IMPULSE
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    attacked = apply_attack(Trajectory(u, y), scenario,
                            max_attacked=BENCH_MAX_ATTACKED)
    save_trajectory(attacked, out / "online.csv")
    verdict = identify_delay(attacked.y, degrees)
    payload = {
        "mode": "delay",
        "relative_degrees": degrees,
        "verdict": verdict_to_dict(verdict),
    }
    write_json(payload, out / "verdict.json")
    expected = verdict.attack_free_sensors == (1, 3)
    print(f"delay demo: relative degrees={tuple(degrees)} "
          f"attack_free={verdict.attack_free_sensors} -> "
          f"{'ok' if expected else 'UNEXPECTED'}")
    return 0 if expected else 2


def demo_replay(seed: int, tol: Tolerance, out: Path) -> int:
    ss = benchmark_plant()
    model = _demo_learn(ss, seed, tol, out)
    if model is None:
        return 2
    scenario = ReplayAttack({INJECTION_TARGET: REPLAY_CONSTANT})
    save_scenario(scenario, out / "scenario.json")
    order = _excitation_order(model.m, BENCH_SENSORS - BENCH_MAX_ATTACKED, model.n)
    clean, _ = excited_run(ss, model.n, BENCH_COLUMNS, order, seed + OFF_REPLAY_PE,
                           seed + OFF_REPLAY_FILL, tol)
    attacked = apply_attack(clean, scenario, max_attacked=BENCH_MAX_ATTACKED)
    save_trajectory(attacked, out / "online.csv")
    verdict = identify_replay(attacked, BENCH_SENSORS, BENCH_MAX_ATTACKED,
                              model.n, BENCH_COLUMNS, tol)
    payload = {"mode": "replay", "verdict": verdict_to_dict(verdict)}
    write_json(payload, out / "verdict.json")
    expected = verdict.winners == (1,)
    ranks = {s.id: int(rank) for s, rank in zip(verdict.subsets, verdict.scores)}
    print(f"replay demo: ranks={ranks} winners={verdict.winners} "
          f"attack_free={verdict.attack_free_sensors} -> "
          f"{'ok' if expected else 'UNEXPECTED'}")
    return 0 if expected else 2


def cmd_demo(args) -> int:
    out = Path(args.out)
    runner = {"injection": demo_injection, "delay": demo_delay,
              "replay": demo_replay}[args.attack]
    # a demo reads no file, so every OSError is a failed write
    try:
        out.mkdir(parents=True, exist_ok=True)
        return runner(_seed(args), args.tol, out)
    except OSError as exc:
        print(f"cannot write demo output: {exc}", file=sys.stderr)
        return 1


def cmd_learn(args) -> int:
    try:
        traj = load_trajectory(args.trajectory)
    except (OSError, ValueError) as exc:
        print(f"cannot read trajectory: {exc}", file=sys.stderr)
        return 1
    try:
        model = learn_model(traj, traj.output_dim, args.max_attacked, args.n, args.horizon,
                            args.tol)
    except TrajectoryLengthError as exc:
        print(f"trajectory too short: {exc}", file=sys.stderr)
        return 1
    except LearningError as exc:
        print(f"learning failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        save_learned_model(model, args.out)
    except OSError as exc:
        print(f"cannot write model: {exc}", file=sys.stderr)
        return 1
    print(f"learned {len(model.subsets)} subset predictors -> {args.out}")
    return 0


def cmd_identify(args) -> int:
    try:
        stream = load_trajectory(args.stream)
    except (OSError, ValueError) as exc:
        print(f"cannot read stream: {exc}", file=sys.stderr)
        return 1
    try:
        if args.mode == "injection":
            verdict = identify_injection(load_learned_model(args.model), stream, args.tol)
        elif args.mode == "replay":
            verdict = identify_replay(stream, stream.output_dim, args.max_attacked, args.n,
                                      args.test_len, args.tol)
        else:
            degrees = [int(r) for r in args.rel_deg.split(",")]
            verdict = identify_delay(stream.y, degrees)
    except (TrajectoryLengthError, ExcitationError, NoResponseError, ValueError,
            OSError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(verdict_to_dict(verdict), indent=2, sort_keys=True))
    return 0


def cmd_check_pe(args) -> int:
    try:
        traj = load_trajectory(args.input)
    except (OSError, ValueError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    if args.order < 1:
        print(f"excitation order must be positive, got {args.order}", file=sys.stderr)
        return 1
    u = traj.u
    m, length = u.shape
    if length < args.order:
        print(f"fail: {length} samples cannot be exciting of order {args.order}")
        return 2
    observed = excitation_rank(u, args.order, args.tol)
    ok = observed == args.order * m
    print(f"{'pass' if ok else 'fail'}: order {args.order}, observed rank "
          f"{observed} of {args.order * m}")
    return 0 if ok else 2


def cmd_simulate(args) -> int:
    if args.length < 1:
        print(f"length must be positive, got {args.length}", file=sys.stderr)
        return 1
    try:
        ss = load_state_space(args.model)
    except (OSError, ValueError) as exc:
        print(f"cannot read plant model: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(_seed(args) + OFF_SIM)
    u = rng.uniform(-1.0, 1.0, (ss.input_dim, args.length))
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    traj = Trajectory(u, y)
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
            traj = apply_attack(traj, scenario, max_attacked=args.max_attacked)
        except (OSError, ValueError) as exc:
            print(f"cannot apply scenario: {exc}", file=sys.stderr)
            return 1
    try:
        save_trajectory(traj, args.out)
    except OSError as exc:
        print(f"cannot write trajectory: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {traj.length} samples -> {args.out}")
    return 0


def _tolerance(args) -> Tolerance:
    kwargs = {}
    if getattr(args, "rank_tol", None) is not None:
        kwargs["rank_rel"] = args.rank_tol
    if getattr(args, "res_tol", None) is not None:
        kwargs["residual"] = args.res_tol
    return Tolerance(**kwargs) if kwargs else DEFAULT_TOL


def _seed(args) -> int:
    """--seed, else SENTINEL_SEED read as the command runs, else DEFAULT_SEED."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SENTINEL_SEED", str(DEFAULT_SEED))
    try:
        return int(env)
    except ValueError as exc:
        raise SystemExit(f"SENTINEL_SEED must be an integer, got {env!r}") from exc


TOL_FLAGS = {"--rank-tol": "relative singular-value cutoff for rank decisions",
             "--res-tol": "residual slack (absolute and relative) for verdicts"}


# The tolerance flag each identify mode reads; main() rejects the other.
IDENTIFY_TOL_FLAG = {"injection": "--res-tol", "replay": "--rank-tol", "delay": None}


def _add_tol_flags(parser, *flags) -> None:
    """Add the given tolerance flags; each subcommand takes only those it reads."""
    for flag in flags:
        parser.add_argument(flag, type=float, default=None, help=TOL_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (about 1 ms) and only read after."""
    parser = argparse.ArgumentParser(
        prog="sentinel",
        description="Identify attack-free sensors of an LTI plant from data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run a benchmark attack scenario end to end")
    p_demo.add_argument("attack", choices=["injection", "delay", "replay"])
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", default="demo-out", help="output directory")
    _add_tol_flags(p_demo, "--rank-tol", "--res-tol")
    p_demo.set_defaults(func=cmd_demo)

    p_learn = sub.add_parser("learn", help="learn subset predictors from a recording")
    p_learn.add_argument("trajectory", help="attack-free recording (CSV)")
    p_learn.add_argument("--n", type=int, required=True, help="plant order")
    p_learn.add_argument("--max-attacked", type=int, required=True,
                         help="attack budget M")
    p_learn.add_argument("--horizon", type=int, required=True,
                         help="data-matrix column count")
    p_learn.add_argument("--out", default="model.json")
    _add_tol_flags(p_learn, "--rank-tol", "--res-tol")
    p_learn.set_defaults(func=cmd_learn)

    p_id = sub.add_parser("identify", help="run an identifier over a recorded stream")
    p_id.add_argument("mode", choices=["injection", "replay", "delay"])
    p_id.add_argument("stream", help="online recording (CSV)")
    p_id.add_argument("--model", help="learned model JSON (injection mode)")
    p_id.add_argument("--n", type=int, default=None, help="plant order (replay mode)")
    p_id.add_argument("--max-attacked", type=int, default=None)
    p_id.add_argument("--test-len", type=int, default=None,
                      help="test window length (replay mode)")
    p_id.add_argument("--rel-deg", default=None,
                      help="comma-separated per-sensor delays, e.g. 1,2,1 (delay mode)")
    _add_tol_flags(p_id, "--rank-tol", "--res-tol")
    p_id.set_defaults(func=cmd_identify)

    p_pe = sub.add_parser("check-pe", help="certify persistency of excitation")
    p_pe.add_argument("input", help="recording (CSV); the input columns are checked")
    p_pe.add_argument("--order", type=int, required=True)
    _add_tol_flags(p_pe, "--rank-tol")
    p_pe.set_defaults(func=cmd_check_pe)

    p_sim = sub.add_parser("simulate",
                           help="simulate a plant (optionally attacked) to a CSV")
    p_sim.add_argument("--model", required=True, help="plant model JSON")
    p_sim.add_argument("--scenario", default=None, help="attack scenario JSON")
    p_sim.add_argument("--length", type=int, default=64)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--max-attacked", type=int, default=None)
    p_sim.add_argument("--out", default="trajectory.csv")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "identify":
        for flag in TOL_FLAGS:
            given = getattr(args, flag[2:].replace("-", "_")) is not None
            if given and flag != IDENTIFY_TOL_FLAG[args.mode]:
                parser.error(f"identify {args.mode} does not take {flag}")
    try:
        args.tol = _tolerance(args)
    except ValueError as exc:
        print(f"invalid tolerance: {exc}", file=sys.stderr)
        return 1
    if args.command == "identify":
        if args.mode == "injection" and not args.model:
            print("identify injection requires --model", file=sys.stderr)
            return 1
        if args.mode == "replay" and None in (args.n, args.max_attacked, args.test_len):
            print("identify replay requires --n, --max-attacked and --test-len",
                  file=sys.stderr)
            return 1
        if args.mode == "delay" and not args.rel_deg:
            print("identify delay requires --rel-deg", file=sys.stderr)
            return 1
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
