"""Command-line front end: benchmark demos, learning, identification, I/O.

All randomness derives from one seed >= 0 (flag --seed, else the SENTINEL_SEED
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

Exit codes: 0 success (demos: the expected verdict), 1 precondition
failure (bad input, or a flag value out of range), 2 usage error (a flag
missing, malformed, unknown or not read by the subcommand or mode: the
parser exits) or mathematical failure (rank certificate, learning, or an
unexpected demo verdict). A failing command raises _Failure, and main() alone prints it on
stderr and returns its code; verdicts, including an unexpected one, go to
stdout.
"""

import argparse
import contextlib
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
    excitation_order,
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
from .linalg import Tolerance
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


class _Failure(Exception):
    """A failed command: main() prints the message on stderr and returns code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _failing(prefix: str, *errors: type, code: int = 1):
    """Raise the given library errors as _Failure(f"{prefix}: {exc}", code).
    Where these nest, the innermost that names an error handles it."""
    try:
        yield
    except errors as exc:
        raise _Failure(f"{prefix}: {exc}", code) from exc


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
    order = excitation_order(ss.input_dim, BENCH_SENSORS - BENCH_MAX_ATTACKED, BENCH_ORDER)
    traj, pe_seed = excited_run(ss, BENCH_ORDER, BENCH_COLUMNS, order, seed,
                                seed + OFF_FILL, tol)
    save_trajectory(traj, out / "offline.csv")
    model = learn_model(traj, BENCH_MAX_ATTACKED, BENCH_ORDER, BENCH_COLUMNS, tol, pe_seed)
    save_learned_model(model, out / "model.json")
    return model


def demo_injection(ss: StateSpace, model, seed: int, tol: Tolerance):
    onset = model.n + INJECTION_ONSET_OFFSET
    signal = seeded_injection_signal(seed + OFF_ATTACK, onset)
    scenario = InjectionAttack((INJECTION_TARGET,), onset, signal, seed + OFF_ATTACK)
    boot_u = np.random.default_rng(seed + OFF_BOOT).uniform(-1.0, 1.0, (model.m, model.n))
    test_u = np.random.default_rng(seed + OFF_TEST).uniform(
        -1.0, 1.0, (INJECTION_STEP_BUDGET, model.m)).T
    u = np.hstack([boot_u, test_u])
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    stream = apply_attack(Trajectory(u, y), scenario)
    verdict = identify_injection(model, stream, tol)
    detection_steps = None if verdict.all_clear else verdict.k - onset
    # the samples the monitor consumed: bootstrap window and steps up to k
    online = Trajectory(stream.u[:, :verdict.k], stream.y[:, :verdict.k])
    expected = not verdict.all_clear and verdict.winners == (1,) and detection_steps <= 2
    return (scenario, online, verdict, {"onset": onset, "detection_steps": detection_steps},
            expected, f"winners={verdict.winners} attack_free={verdict.attack_free_sensors} "
                      f"detection_steps={detection_steps}")


def demo_delay(ss: StateSpace, model, seed: int, tol: Tolerance):
    # the benchmark's relative degrees are (1, 2, 1): every sensor responds
    degrees = [relative_degree(ss, j) for j in range(1, BENCH_SENSORS + 1)]
    scenario = DelayAttack(DELAY_SAMPLES)
    u = np.zeros((1, DELAY_WINDOW))
    u[0, 0] = DELAY_IMPULSE
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    attacked = apply_attack(Trajectory(u, y), scenario,
                            max_attacked=BENCH_MAX_ATTACKED)
    verdict = identify_delay(attacked.y, degrees)
    return (scenario, attacked, verdict, {"relative_degrees": degrees},
            verdict.attack_free_sensors == (1, 3),
            f"relative degrees={tuple(degrees)} attack_free={verdict.attack_free_sensors}")


def demo_replay(ss: StateSpace, model, seed: int, tol: Tolerance):
    scenario = ReplayAttack({INJECTION_TARGET: REPLAY_CONSTANT})
    order = excitation_order(model.m, BENCH_SENSORS - BENCH_MAX_ATTACKED, model.n)
    clean, _ = excited_run(ss, model.n, BENCH_COLUMNS, order, seed + OFF_REPLAY_PE,
                           seed + OFF_REPLAY_FILL, tol)
    attacked = apply_attack(clean, scenario, max_attacked=BENCH_MAX_ATTACKED)
    verdict = identify_replay(attacked, BENCH_MAX_ATTACKED, model.n, BENCH_COLUMNS, tol)
    ranks = dict(enumerate(verdict.values, 1))
    return (scenario, attacked, verdict, {}, verdict.winners == (1,),
            f"ranks={ranks} winners={verdict.winners} "
            f"attack_free={verdict.attack_free_sensors}")


def _run_demo(attack: str, seed: int, tol: Tolerance, out: Path) -> int:
    """Learn on the attack's benchmark plant, run demo_<attack>, write its
    files into out and print its summary line. A demo returns (scenario,
    online trajectory, verdict, further verdict.json fields, whether the
    verdict is the expected one, summary details) and writes nothing."""
    demo, output_scale = {"injection": (demo_injection, 1.0),
                          "delay": (demo_delay, DELAY_OUTPUT_SCALE),
                          "replay": (demo_replay, 1.0)}[attack]
    ss = benchmark_plant(output_scale)
    # a demo reads no file, so every OSError is a failed write
    with _failing("cannot write demo output", OSError), \
            _failing("learning failed", LearningError, code=2), \
            _failing("excitation failed", ExcitationError, code=2):
        out.mkdir(parents=True, exist_ok=True)
        model = _demo_learn(ss, seed, tol, out)
        scenario, online, verdict, fields, expected, details = demo(ss, model, seed, tol)
        save_scenario(scenario, out / "scenario.json")
        save_trajectory(online, out / "online.csv")
        write_json({"mode": attack, **fields, "verdict": verdict_to_dict(verdict)},
                   out / "verdict.json")
    print(f"{attack} demo: {details} -> {'ok' if expected else 'UNEXPECTED'}")
    return 0 if expected else 2


def cmd_demo(args) -> int:
    return _run_demo(args.attack, _seed(args), args.tol, Path(args.out))


def cmd_learn(args) -> int:
    with _failing("cannot read trajectory", OSError, ValueError):
        traj = load_trajectory(args.trajectory)
    # fail before learning, not after it; the file itself is written only
    # once learning succeeds, so a failed learn leaves an existing model
    folder = os.path.dirname(os.path.abspath(args.out))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise _Failure(f"cannot write model: {folder} is not a writable directory")
    with _failing("invalid configuration", ValueError), \
            _failing("learning failed", LearningError, code=2), \
            _failing("trajectory too short", TrajectoryLengthError):
        model = learn_model(traj, args.max_attacked, args.n, args.horizon, args.tol)
    with _failing("cannot write model", OSError):
        save_learned_model(model, args.out)
    print(f"learned a model of {len(model.subsets)} sensor subsets -> {args.out}")
    return 0


def cmd_identify(args) -> int:
    with _failing("cannot read stream", OSError, ValueError):
        stream = load_trajectory(args.stream)
    with _failing("precondition failed", OSError, ValueError, NoResponseError):
        if args.mode == "injection":
            verdict = identify_injection(load_learned_model(args.model), stream, args.tol)
        elif args.mode == "replay":
            verdict = identify_replay(stream, args.max_attacked, args.n, args.test_len, args.tol)
        else:
            verdict = identify_delay(stream.y, args.rel_deg)
    print(json.dumps(verdict_to_dict(verdict), indent=2, sort_keys=True))
    return 0


def cmd_check_pe(args) -> int:
    with _failing("cannot read input", OSError, ValueError):
        u = load_trajectory(args.input).u
    if args.order < 1:
        raise _Failure(f"excitation order must be positive, got {args.order}")
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
        raise _Failure(f"length must be positive, got {args.length}")
    with _failing("cannot read plant model", OSError, ValueError):
        ss = load_state_space(args.model)
    rng = np.random.default_rng(_seed(args) + OFF_SIM)
    u = rng.uniform(-1.0, 1.0, (ss.input_dim, args.length))
    _, y = simulate(ss, np.zeros(ss.state_dim), u)
    traj = Trajectory(u, y)
    if args.scenario:
        with _failing("cannot apply scenario", OSError, ValueError):
            traj = apply_attack(traj, load_scenario(args.scenario),
                                max_attacked=args.max_attacked)
    with _failing("cannot write trajectory", OSError):
        save_trajectory(traj, args.out)
    print(f"wrote {traj.length} samples -> {args.out}")
    return 0


def _tolerance(args) -> Tolerance:
    given = {"rank_rel": getattr(args, "rank_tol", None),
             "residual": getattr(args, "res_tol", None)}
    return Tolerance(**{field: v for field, v in given.items() if v is not None})


def _seed(args) -> int:
    """--seed, else SENTINEL_SEED read as the command runs, else DEFAULT_SEED;
    numpy takes no negative seed, so one fails the command."""
    source, seed = "--seed", args.seed
    if seed is None:
        source, env = "SENTINEL_SEED", os.environ.get("SENTINEL_SEED", str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError as exc:
            raise _Failure(f"SENTINEL_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise _Failure(f"{source} must be non-negative, got {seed}")
    return seed


TOL_FLAGS = {"--rank-tol": "scales the rank cutoff, rank_tol * max(rows, cols) * sigma_max",
             "--res-tol": "residual slack (absolute and relative) for verdicts"}


def _add_tol_flags(parser, *flags) -> None:
    """Add the given tolerance flags; each subcommand or mode takes only those it reads."""
    for flag in flags:
        parser.add_argument(flag, type=float, default=None, help=TOL_FLAGS[flag])


def _integers(text: str) -> list[int]:
    """A comma-separated list of integers, such as --rel-deg 1,2,1."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


class _Subparser(argparse.ArgumentParser):
    """A sub-parser that rejects the flags it does not read, with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (about 1 ms) and only read after."""
    parser = argparse.ArgumentParser(
        prog="sentinel",
        description="Identify attack-free sensors of an LTI plant from data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    p_demo = sub.add_parser("demo", help="run a benchmark attack scenario end to end")
    p_demo.add_argument("attack", choices=["injection", "delay", "replay"])
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", default="demo-out", help="output directory")
    _add_tol_flags(p_demo, "--rank-tol", "--res-tol")
    p_demo.set_defaults(func=cmd_demo)

    p_learn = sub.add_parser("learn", help="learn the data basis and decoder from a recording")
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
    p_id.set_defaults(func=cmd_identify)
    modes = p_id.add_subparsers(dest="mode", required=True)
    p_inj = modes.add_parser("injection", help="residual monitor against a learned model")
    p_rep = modes.add_parser("replay", help="rank certificate over an excited test window")
    p_del = modes.add_parser("delay", help="first responses against relative degrees")
    for p_mode in (p_inj, p_rep, p_del):
        p_mode.add_argument("stream", help="online recording (CSV)")
    p_inj.add_argument("--model", required=True, help="learned model JSON")
    _add_tol_flags(p_inj, "--res-tol")
    p_rep.add_argument("--n", type=int, required=True, help="plant order")
    p_rep.add_argument("--max-attacked", type=int, required=True, help="attack budget M")
    p_rep.add_argument("--test-len", type=int, required=True, help="test window length")
    _add_tol_flags(p_rep, "--rank-tol")
    p_del.add_argument("--rel-deg", type=_integers, required=True,
                       help="comma-separated per-sensor delays, e.g. 1,2,1")

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
    args = build_parser().parse_args(argv)
    try:
        with _failing("invalid tolerance", ValueError):
            args.tol = _tolerance(args)
        return args.func(args)
    except _Failure as failure:
        print(failure, file=sys.stderr)
        return failure.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
