"""Benchmark of the sentinel pipeline: monitor-step latency, learning and the CLI.

One run measures one workload for a fixed time:

    python3 perfbench/run.py --workload wide-10x4 --seed 1 --seconds 28 --trace 0

It builds its inputs from --seed, repeats rounds of operations (the three
demos, `simulate`, `learn`, `identify injection|replay|delay` through
``sentinel.cli.main`` in-process, and the library monitor loop) until the
time is spent, checks every verdict, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}; "attempted" counts
operations and "failed" those with a nonzero exit code, a wrong verdict or
output bytes that differ from an earlier run of the same seed. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the public
functions of every layer are wrapped by perfbench/tracing.py and the
metrics are the per-layer ones.

Times are CPU time of the measuring thread (of the whole process for
set-up). The machine may run up to 2.5 times slower for seconds at a
time, so every measured time is scaled to a reference speed by the
readings of a reference kernel taken just before and after it (see
SpeedProbe in workloads.py for how, and by how much for each kind of
operation). An operation's time is the median of its scaled samples in
the run. Monitor-step percentiles are taken over all clean-prefix steps of
the run in stretches of steady speed near the run's usual speed; a run
collects at least MIN_STEPS of them, so that p99 has twenty samples
beyond it, or fails.

    python3 perfbench/run.py --all --seed 1 --seconds 28

runs every workload untraced and traced in child processes, one after the
other, prints every metric, counts as failed every output whose bytes
differ between the two processes, and writes
perfbench/results/BENCH_seed<seed>.json with the environment, the
workloads, both metric sets and the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("msd-stream", "wide-10x4", "longrec-6x2")
SETUP_REPS = 7
MIN_STEPS = 2000     # counted monitor steps a run needs for its p99
MIN_ROUNDS = 2       # so that learn and identify injection also run twice per seed
EXTRA_SECONDS = 60   # monitor passes past --seconds to reach MIN_STEPS, at most

END_TO_END = {
    "setup_s": "s",
    "monitor_step_us.p50": "us",
    "monitor_step_us.p99": "us",
    "learn_s": "s",
    "identify_injection_s": "s",
    "identify_replay_s": "s",
    "simulate_s": "s",
    "demos_s": "s",
}
PER_LAYER = {
    "identify.injection_step.self_us": "us",
    "identify.injection_step.us": "us",
    "ddmodel.predict.us": "us",
    "ddmodel.predict.calls_per_step": "count",
    "linalg.as_matrix.calls_per_step": "count",
    "ddmodel.lambda_bytes_per_step": "bytes",
    "ddmodel.rank_condition.calls_per_subset": "count",
    "linalg.numerical_rank.calls_per_subset": "count",
    "linalg.numerical_rank.s": "s",
    "ddmodel.learn_lambda.self_s": "s",
    "datamat.build_subset_matrices.s": "s",
    "ddmodel.save_learned_model.s": "s",
    "ddmodel.load_learned_model.s": "s",
    "ddmodel.model_json_bytes.count": "bytes",
    "datamat.load_trajectory.us_per_sample": "us",
    "datamat.save_trajectory.us_per_sample": "us",
    "attacks.apply_attack.us_per_sample": "us",
    "plant.simulate.us_per_sample": "us",
    "identify.identify_replay.s": "s",
    "identify.identify_delay.s": "s",
    "datamat.generate_pe_input.attempts": "count",
    "datamat.generate_pe_input.accepted": "count",
    "cli.self_s": "s",
    "env.ref_kernel_us": "us",
}


def pin_blas_threads() -> dict:
    """One BLAS thread: the process runs on one CPU at a time (SpeedProbe.settle)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: "1" for var in BLAS_THREAD_VARS}


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, threads: dict, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": threads,
    }


def step_count(rounds: list) -> int:
    return sum(len(r.prefix_steps()) for r in rounds)


def by_label(rounds: list, groups) -> dict:
    """Timed operations of the given groups, keyed by label, over all rounds."""
    out = {}
    for r in rounds:
        for op in r.ops:
            if op.group in groups:
                out.setdefault(op.label, []).append(op)
    return out


def group_seconds(rounds: list, group: str) -> float:
    """Time of a group in one round: the sum of its operations' median scaled times."""
    return sum(statistics.median(op.scaled for op in ops)
               for ops in by_label(rounds, {group}).values())


def end_to_end(np, rounds: list, setup_s: float) -> dict:
    steps_us = np.asarray([ns for r in rounds for ns in r.prefix_steps()], dtype=float) / 1e3
    return {
        "setup_s": setup_s,
        "monitor_step_us.p50": float(np.percentile(steps_us, 50)),
        "monitor_step_us.p99": float(np.percentile(steps_us, 99)),
        "learn_s": group_seconds(rounds, "learn"),
        "identify_injection_s": group_seconds(rounds, "identify_injection"),
        "identify_replay_s": group_seconds(rounds, "identify_replay"),
        "simulate_s": group_seconds(rounds, "simulate"),
        "demos_s": group_seconds(rounds, "demos"),
    }


def per_layer(np, table, rounds: list, w, work: Path, probe) -> dict:
    """Per-layer metrics: median scaled times per operation or call, exact counts.

    A span takes the scale factor of the operation it ran in; monitor steps
    and the predictions inside them take that of their stretch.
    """
    op_scale = {op.span: op.scale for r in rounds for op in r.ops}
    scale = np.array([op_scale.get(int(root), np.nan) for root in table.root])
    all_steps = table.under("identify.injection_step", "op.monitor")
    scale[all_steps] = [x for r in rounds for x in r.step_scales()]
    predicts = table.under("ddmodel.predict", "op.monitor")
    scale[predicts] = scale[table.parent[predicts]]
    dur, self_time = table.dur * scale, table.self_time * scale
    steps = all_steps[[counted for r in rounds for counted in r.step_counted()]]
    predicts_clean = predicts[np.isin(table.parent[predicts], steps)]
    learns = table.ids("op.learn").size
    subsets = len(w.subsets)
    round_of = {op.span: i for i, r in enumerate(rounds) for op in r.ops}

    def per_sample_us(name):
        idx = table.ids(name)
        rnd = np.array([round_of.get(int(root), -1) for root in table.root[idx]])
        idx, rnd = idx[rnd >= 0], rnd[rnd >= 0]
        total = np.bincount(rnd, weights=dur[idx], minlength=len(rounds))
        size = np.bincount(rnd, weights=table.size[idx], minlength=len(rounds))
        return float(np.median(total[size > 0] / size[size > 0])) * 1e6

    def per_op_s(name, op, values=dur):
        return float(np.median(table.per_root(name, f"op.{op}", values)))

    def call_s(name, op):
        return float(np.median(dur[table.under(name, f"op.{op}")]))

    pe_checks = table.ids("datamat.is_persistently_exciting")
    pe_calls = table.ids("datamat.generate_pe_input")
    cli_ops = by_label(rounds, {op.group for r in rounds for op in r.ops} - {"monitor"})
    return {
        "identify.injection_step.self_us": float(np.median(self_time[steps])) * 1e6,
        "identify.injection_step.us": float(np.median(dur[steps])) * 1e6,
        "ddmodel.predict.us": float(np.median(dur[predicts_clean])) * 1e6,
        "ddmodel.predict.calls_per_step": predicts.size / all_steps.size,
        "linalg.as_matrix.calls_per_step":
            statistics.median(r.counts_per_step["linalg.as_matrix"] for r in rounds),
        "ddmodel.lambda_bytes_per_step": w.lambda_bytes,
        "ddmodel.rank_condition.calls_per_subset":
            table.under("ddmodel.rank_condition", "op.learn").size / (subsets * learns),
        "linalg.numerical_rank.calls_per_subset":
            table.under("linalg.numerical_rank", "op.learn").size / (subsets * learns),
        "linalg.numerical_rank.s": per_op_s("linalg.numerical_rank", "learn"),
        "ddmodel.learn_lambda.self_s": per_op_s("ddmodel.learn_lambda", "learn", self_time),
        "datamat.build_subset_matrices.s": per_op_s("datamat.build_subset_matrices", "learn"),
        "ddmodel.save_learned_model.s": per_op_s("ddmodel.save_learned_model", "learn"),
        "ddmodel.load_learned_model.s":
            per_op_s("ddmodel.load_learned_model", "identify_injection"),
        "ddmodel.model_json_bytes.count": (work / "model.json").stat().st_size,
        "datamat.load_trajectory.us_per_sample": per_sample_us("datamat.load_trajectory"),
        "datamat.save_trajectory.us_per_sample": per_sample_us("datamat.save_trajectory"),
        "attacks.apply_attack.us_per_sample": per_sample_us("attacks.apply_attack"),
        "plant.simulate.us_per_sample": per_sample_us("plant.simulate"),
        "identify.identify_replay.s": call_s("identify.identify_replay", "identify_replay"),
        "identify.identify_delay.s": call_s("identify.identify_delay", "identify_delay"),
        "datamat.generate_pe_input.attempts":
            int(np.isin(table.parent[pe_checks], pe_calls).sum()) / len(rounds),
        "datamat.generate_pe_input.accepted": pe_calls.size / len(rounds),
        "cli.self_s": sum(statistics.median(self_time[op.span] for op in ops)
                          for ops in cli_ops.values()),
        "env.ref_kernel_us": statistics.median(probe.readings),
    }


def import_sentinel():
    """Import numpy and the sentinel sources of this checkout; return the
    benchmark modules and the import time, or None if sentinel is missing."""
    src = ROOT / "src"
    if not (src / "sentinel" / "__init__.py").is_file():
        print(f"sentinel sources not found under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    np = importlib.import_module("numpy")
    sentinel = importlib.import_module("sentinel")
    workloads = importlib.import_module("workloads")
    import_s = time.perf_counter() - start
    if Path(sentinel.__file__).resolve().parent != (src / "sentinel").resolve():
        print(f"imported sentinel from {sentinel.__file__}, not {src}", file=sys.stderr)
        return None
    return np, workloads, import_s


def set_up_once(args) -> int:
    """Child process: import, write the inputs, print the CPU seconds it took."""
    pin_blas_threads()
    imported = import_sentinel()
    if imported is None:
        return 2
    workloads = imported[1]
    workloads.set_up(workloads.WORKLOADS[args.workload], args.seed, Path(args.set_up_into))
    print(json.dumps({"seconds": time.process_time()}))
    return 0


def measure_setup(args, workloads, work: Path, probe) -> tuple:
    """Set up SETUP_REPS times, each in a fresh interpreter as a user would.

    Returns the median scaled set-up time, the input files of the last
    repetition, and whether all repetitions wrote the same bytes. The child
    runs on the CPU that settle() chose.
    """
    times, digests = [], []
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}"
        before = probe.settle()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--set-up-into", str(out)],
            capture_output=True, text=True, timeout=170, check=True)
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["seconds"]
        times.append(seconds * probe.scale(before, probe.read(), probe.OP_EXPONENT))
        files = sorted(out.iterdir())
        digests.append(list(workloads.digest(files).values()))
    inputs = {p.name: p for p in out.iterdir()}
    return statistics.median(times), inputs, all(d == digests[0] for d in digests)


def run_workload(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = pin_blas_threads()
    imported = import_sentinel()
    if imported is None:
        return 2
    np, workloads, import_s = imported
    tracing = importlib.import_module("tracing")

    w = workloads.WORKLOADS[args.workload]
    work = HERE / ".work" / f"{w.name}-{os.getpid()}"
    probe = workloads.SpeedProbe()
    try:
        for _ in range(10):
            probe.settle()
        setup_s, inputs, setup_same = measure_setup(args, workloads, work, probe)

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rounds, stream = [], None
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            r = workloads.Round(w, args.seed, inputs, work / "run", probe, tracer)
            stream = r.run(stream)
            rounds.append(r)
        # A slow or unsteady machine can leave too few counted steps for a
        # p99: add monitor passes, then give up rather than report a lower
        # percentile.
        while (step_count(rounds) < MIN_STEPS
               and time.perf_counter() < deadline + EXTRA_SECONDS):
            rounds[-1].monitor(stream, w.stream_len - workloads.ATTACK_LEAD)
        if tracer:
            tracer.uninstall()
        if step_count(rounds) < MIN_STEPS:
            print(f"only {step_count(rounds)} monitor steps ran in the clean prefix at a "
                  f"steady, usual speed, fewer than {MIN_STEPS}", file=sys.stderr)
            return 1

        failed, first = set(), {}
        for i, r in enumerate(rounds):
            for label, digests in r.outputs:
                if first.setdefault(label, digests) != digests:
                    r.failed.setdefault(label, []).append(
                        "outputs differ from an earlier run with the same seed")
            failed |= {(i, label) for label in r.failed}
            for label, whats in r.failed.items():
                for what in whats:
                    print(f"FAILED round {i} {label}: {what}", file=sys.stderr)
        if not setup_same:
            failed.add((-1, "set-up"))
            print("FAILED set-up: repetitions with one seed wrote different inputs",
                  file=sys.stderr)

        env = environment(np, threads, nproc)
        env.update(
            workload={"name": w.name, **w.describe()}, seed=args.seed, rounds=len(rounds),
            monitor_steps=step_count(rounds), ref_kernel_us=statistics.median(probe.readings),
            reference_us=probe.REFERENCE_US, import_s=import_s)
        print("environment " + json.dumps(env, sort_keys=True))
        outputs = {"set-up": workloads.digest(inputs.values()), **dict(rounds[0].outputs)}
        print("outputs " + json.dumps(
            {label: hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
             for label, d in outputs.items()}, sort_keys=True))
        if args.trace:
            values = per_layer(np, tracing.SpanTable(tracer), rounds, w, work / "run", probe)
            units = PER_LAYER
        else:
            values = end_to_end(np, rounds, setup_s)
            units = END_TO_END
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
        result = {
            "correct": not failed,
            "attempted": sum(r.attempted for r in rounds),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run_all(args) -> int:
    """Every workload untraced then traced, one child process at a time."""
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {},
              "left_out": "(N, M) = (8, 3), 56 subsets: wide-10x4 (210 subsets) and "
                          "longrec-6x2 (15 subsets) already bracket it"}
    for name in WORKLOAD_NAMES:
        entry, outputs = {}, {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return done.returncode or 1
            for line in lines:
                if line.startswith("environment "):
                    env = json.loads(line[len("environment "):])
                    entry["workload"] = env.pop("workload")
                    entry[f"run_trace{trace}"] = {
                        key: env.pop(key) for key in
                        ("rounds", "monitor_steps", "ref_kernel_us", "import_s")}
                    report["environment"] = env
                elif line.startswith("outputs "):
                    outputs[trace] = json.loads(line[len("outputs "):])
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = result
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"   {metric:42s} {v['value']:14.6g} {v['unit']}")
        differ = sorted(label for label in outputs[0].keys() | outputs[1].keys()
                        if outputs[0].get(label) != outputs[1].get(label))
        for label in differ:
            print(f"FAILED {name} {label}: outputs differ between two processes "
                  "with the same seed", file=sys.stderr)
        entry["outputs_differ_across_processes"] = differ
        entry["failed"] = entry["untraced"]["failed"] + entry["traced"]["failed"] + len(differ)
        untraced = entry["untraced"]["metrics"]["monitor_step_us.p50"]["value"]
        traced = entry["traced"]["metrics"]["identify.injection_step.us"]["value"]
        entry["tracing_overhead"] = {
            "monitor_step_us.p50": {"untraced": untraced, "traced": traced,
                                    "difference": traced - untraced, "unit": "us"}}
        print(f"   tracing overhead on monitor_step_us.p50: {traced - untraced:+.4g} us")
        report["workloads"][name] = entry
    out = HERE / "results" / f"BENCH_seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if any(e["failed"] for e in report["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, and write a report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.set_up_into:
        return set_up_once(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
