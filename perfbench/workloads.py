"""Workload definitions, input generation and one measured round of operations.

Each workload is a plant, an attack budget and the sizes of its recordings.
Set-up turns the benchmark seed into input files (plant JSON, offline
recording, injection scenario, replay test window). A round then runs the
operator pipeline through ``sentinel.cli.main`` in-process and the online
monitor through ``injection_bootstrap``/``injection_step``, and checks
every verdict against what the workload's construction implies.

The ROADMAP sweep point (N, M) = (8, 3) (56 subsets) is left out: wide-10x4
(210 subsets) and longrec-6x2 (15 subsets, long recording) already bracket
it on subset count.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns, thread_time_ns
from typing import Optional

import numpy as np

from sentinel import attacks, cli, datamat, ddmodel, identify, plant

ORDER = 6            # plant order n of every workload
INPUTS = 1           # input count m
ATTACK_LEAD = 20     # injection onset sits this many samples before the stream end
REPLAY_VALUE = 0.01  # constant a pinned sensor replays
PLANT_SEED = 0       # the random plants are one fixed draw; --seed varies the data
DELAY_REL_DEG = "1,2,1"  # relative degrees of the paper's plant (delay demo stream)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sensors: int
    max_attacked: int
    columns: int         # data-matrix columns of the offline recording
    stream_len: int      # samples of the injection stream
    injected: tuple      # sensors under injection near the stream end
    pinned: tuple        # sensors pinned in the replay test window
    paper_plant: bool    # True: the paper's mass-spring-damper plant; else random
    learn_repeats: int = 1   # CLI learn runs per round

    @property
    def subset_size(self) -> int:
        return self.n_sensors - self.max_attacked

    @property
    def subsets(self) -> list:
        """Sensor subsets in the package's id order (lexicographic, 1-based)."""
        return list(itertools.combinations(range(1, self.n_sensors + 1), self.subset_size))

    @property
    def excitation_order(self) -> int:
        return (INPUTS + self.subset_size) * ORDER + 1

    @property
    def test_len(self) -> int:
        return (INPUTS + 1) * self.excitation_order

    @property
    def lambda_bytes(self) -> int:
        """Computed, not counted: S predictors of d x (d + m) float64, d = (q + m) n."""
        d = (self.subset_size + INPUTS) * ORDER
        return len(self.subsets) * d * (d + INPUTS) * 8

    def expected_winners(self, attacked) -> list:
        """Ids of the subsets that avoid every attacked sensor."""
        return [j + 1 for j, combo in enumerate(self.subsets) if not set(combo) & set(attacked)]

    def describe(self) -> dict:
        return {"why": self.why, "N": self.n_sensors, "M": self.max_attacked, "n": ORDER,
                "S": len(self.subsets), "columns": self.columns,
                "stream_len": self.stream_len, "injected": list(self.injected),
                "pinned": list(self.pinned)}


WORKLOADS = {w.name: w for w in (
    Workload(
        "msd-stream",
        "With S tiny, time goes to per-step Python overhead, CSV I/O, apply_attack and "
        "simulate. A subset-batching change should not move it.",
        n_sensors=3, max_attacked=1, columns=41, stream_len=5_000,
        injected=(3,), pinned=(3,), paper_plant=True),
    Workload(
        "wide-10x4",
        "The subset count dominates learning, model I/O and every monitor step. This is "
        "where the subset-batched core should show.",
        n_sensors=10, max_attacked=4, columns=86, stream_len=200,
        injected=(7, 8, 9, 10), pinned=(9, 10), paper_plant=False, learn_repeats=2),
    Workload(
        "longrec-6x2",
        "Long recordings make Hankel assembly and wide SVDs the learning cost. S sits "
        "between the other two, so a batching change shows a crossover here.",
        n_sensors=6, max_attacked=2, columns=10_000, stream_len=1_000,
        injected=(2, 5), pinned=(1,), paper_plant=False),
)}


def _recording(ss, columns: int, order: int, seed: int) -> datamat.Trajectory:
    """Run from equilibrium: n seeded fill samples, a certified exciting
    window of `columns` samples, one fill sample."""
    pe = datamat.generate_pe_input(INPUTS, columns, order, seed)
    fill = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (INPUTS, ORDER + 1))
    u = np.hstack([fill[:, :ORDER], pe.u, fill[:, ORDER:]])
    _, y = plant.simulate(ss, np.zeros(ss.state_dim), u)
    return datamat.Trajectory(u, y)


def set_up(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files for `seed` into `out`; return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    if w.paper_plant:
        ss = cli.benchmark_plant()
    else:
        ss = plant.random_test_system(np.random.default_rng(PLANT_SEED), ORDER, INPUTS,
                                      w.n_sensors, w.subset_size)
    files = {name: out / name for name in
             ("plant.json", "offline.csv", "scenario.json", "replay.csv")}
    plant.save_state_space(ss, files["plant.json"])
    datamat.save_trajectory(_recording(ss, w.columns, w.excitation_order, seed),
                            files["offline.csv"])
    onset = w.stream_len - ATTACK_LEAD
    attack_seed = seed + 404
    attacks.save_scenario(
        attacks.InjectionAttack(w.injected, onset,
                                attacks.seeded_injection_signal(attack_seed, onset),
                                attack_seed),
        files["scenario.json"])
    clean = _recording(ss, w.test_len, w.excitation_order, seed + 505)
    replayed = attacks.apply_attack(
        clean, attacks.ReplayAttack({s: REPLAY_VALUE for s in w.pinned}),
        max_attacked=w.max_attacked)
    datamat.save_trajectory(replayed, files["replay.csv"])
    return files


def digest(paths) -> dict:
    """sha256 of each file, keyed by the file's directory and name."""
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


class SpeedProbe:
    """Times a fixed kernel that touches no sentinel code.

    The kernel mixes small mat-vecs, array building and Python arithmetic,
    as a monitor step does: on the machine below its time tracks that of a
    step more closely than a pure BLAS or pure Python kernel.

    All benchmark times are CPU time of the measuring thread, so that a
    vCPU the host takes away for a while does not count. On the shared
    2-vCPU machine this benchmark was sized on, the CPUs still run up to
    about 2.5 times slower than their fastest for seconds to minutes at a
    time, in CPU time too, and they change speed independently. So before
    each measured operation settle() moves the process to the allowed CPU
    that reads fastest, and each measured time is brought to a reference
    speed by scale(): multiplied by the ratio of REFERENCE_US to the mean
    of the readings taken just before and just after it, raised to an
    exponent. A monitor step slows down with the machine about as much as
    the kernel (log-log slopes of 0.93 to 0.96 were measured), so its
    exponent is 1. CLI operations and set-up, which spend more of their
    time in BLAS, file I/O and JSON, slow down less (slopes of 0.36 to
    0.86), so theirs is OP_EXPONENT. Where the exponent is off, the error
    grows with the distance of the readings from REFERENCE_US, which is
    therefore set between the readings of the fast phases (about 190 us)
    and the slow ones (about 370 us). A change to the program moves the
    measured time but not the readings.
    """

    REFERENCE_US = 270.0
    OP_EXPONENT = 0.6

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((6, 7))
        self._vec = rng.standard_normal(7)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.readings: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(50):
            a = self._mat @ self._vec
            acc += float(a[0]) + i
            acc += np.concatenate((a, a)).sum()
        return acc

    def _time(self) -> float:
        """Best of two timings of the kernel, in microseconds."""
        best = float("inf")
        for _ in range(2):
            start = thread_time_ns()
            self._kernel()
            best = min(best, (thread_time_ns() - start) / 1e3)
        return best

    def read(self) -> float:
        self.readings.append(self._time())
        return self.readings[-1]

    def settle(self) -> float:
        """Pin the process to the fastest-reading allowed CPU; return its reading."""
        readings = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            readings[cpu] = self._time()
        cpu = min(readings, key=readings.get)
        os.sched_setaffinity(0, {cpu})
        self.readings.append(readings[cpu])
        return readings[cpu]

    @classmethod
    def scale(cls, before: float, after: float, exponent: float = 1.0) -> float:
        """Factor that brings a time measured between two readings to the reference speed."""
        return (2 * cls.REFERENCE_US / (before + after)) ** exponent


@dataclass(frozen=True)
class OpSample:
    """One timed operation, its speed scale factor and its trace span index when traced."""

    group: str
    label: str
    seconds: float
    scale: float
    span: Optional[int]

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Round:
    """One pass over the workload's operations: times, failures, output digests.

    Operations are labelled ("demo injection", "learn", ...) and grouped
    into timed metrics ("demos", "learn", ...). `failed` maps a label to
    what went wrong; `outputs` lists (label, digests of what it wrote:
    files, and stdout for verdicts) so that runs of one seed can be
    compared byte for byte. The cheap operations run CHEAP_REPEATS times
    a round so that each run has enough samples of them. Each stretch of
    about SEGMENT_NS of monitor steps is bracketed by speed-probe readings,
    which give the scale factor of its steps. Steps count only in stretches
    whose two readings are within STEADY of each other and of the run's
    median reading. Where the speed changed inside a stretch, its scale
    factor is wrong. And the scale factor fits a step less well far from
    the speed the run mostly had: the share of such stretches would move
    the tail percentile from run to run.
    """

    CHEAP_REPEATS = 3
    SEGMENT_NS = 20_000_000
    STEADY = 1.25

    def __init__(self, w: Workload, seed: int, inputs: dict, work: Path, probe: SpeedProbe,
                 tracer=None):
        self.w = w
        self.seed = seed
        self.inputs = inputs
        self.work = work
        self.probe = probe
        self.tracer = tracer
        self.ops: list[OpSample] = []
        self.failed: dict[str, list[str]] = {}
        self.outputs: list[tuple[str, dict]] = []
        self.attempted = 0
        self.step_ns: list[int] = []        # every monitor step, in order
        self.step_segment: list[int] = []   # index into segments, per step
        self.step_clean: list[bool] = []    # per step: sample before the injection onset
        self.segments: list[tuple[float, float]] = []
        self.counts_per_step: dict[str, float] = {}

    def step_scales(self) -> list:
        """Per step: the scale factor of its stretch."""
        scales = [self.probe.scale(*segment) for segment in self.segments]
        return [scales[seg] for seg in self.step_segment]

    def step_counted(self) -> list:
        """Per step: before the onset and in a steady stretch at the run's usual speed."""
        usual = statistics.median(self.probe.readings)
        steady = [max(*seg, usual) <= self.STEADY * min(*seg, usual) for seg in self.segments]
        return [clean and steady[seg] for clean, seg in zip(self.step_clean, self.step_segment)]

    def prefix_steps(self) -> list:
        """Scaled latencies (ns) of the counted steps before the onset."""
        return [ns * scale for ns, scale, counted in
                zip(self.step_ns, self.step_scales(), self.step_counted()) if counted]

    @contextlib.contextmanager
    def _timed(self, group: str, label: str):
        before = self.probe.settle()
        span = self.tracer.open(f"op.{group}") if self.tracer else None
        start = thread_time_ns()
        try:
            yield
        finally:
            seconds = (thread_time_ns() - start) / 1e9
            if span is not None:
                self.tracer.close(span)
            scale = self.probe.scale(before, self.probe.read(), self.probe.OP_EXPONENT)
            self.ops.append(OpSample(group, label, seconds, scale, span))

    def _fail(self, label: str, what: str) -> None:
        self.failed.setdefault(label, []).append(what)

    def _cli(self, group: str, label: str, argv: list, writes=()) -> str:
        """Run one CLI command in-process; return its stdout ("" on failure)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with self._timed(group, label), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            self._fail(label, f"exit code {code}: {err.getvalue().strip()}")
            return ""
        text = out.getvalue()
        digests = digest(p for target in writes
                         for p in (sorted(target.iterdir()) if target.is_dir() else [target]))
        # stdout names the output paths, whose work directory differs per process
        neutral = text.replace(str(self.work.parent), "<work>")
        digests["stdout"] = hashlib.sha256(neutral.encode()).hexdigest()
        self.outputs.append((label, digests))
        return text

    def _check_injection(self, label: str, verdict: dict, onset: int) -> None:
        expected = self.w.expected_winners(self.w.injected)
        k = verdict["k"]
        if k <= onset:
            self._fail(label, f"false alarm at k={k} before the onset {onset}")
        elif verdict["all_clear"] or k - onset > 2:
            self._fail(label, f"injection at {onset} not detected within 2 steps (k={k})")
        if verdict["winners"] != expected:
            self._fail(label, f"winners {verdict['winners']} != {expected}")

    def run(self, stream_arrays=None):
        """Run every operation; return the parsed injection stream."""
        w, work, inputs = self.w, self.work, self.inputs
        stream, model = work / "stream.csv", work / "model.json"
        demo_dirs = {a: work / f"demo-{a}" for a in ("injection", "delay", "replay")}
        for _ in range(self.CHEAP_REPEATS):
            for attack, out in demo_dirs.items():
                self._cli("demos", f"demo {attack}",
                          ["demo", attack, "--seed", self.seed, "--out", out], writes=[out])
            self._cli("simulate", "simulate",
                      ["simulate", "--model", inputs["plant.json"], "--scenario",
                       inputs["scenario.json"], "--length", w.stream_len, "--seed", self.seed,
                       "--max-attacked", w.max_attacked, "--out", stream], writes=[stream])
            text = self._cli("identify_replay", "identify replay",
                             ["identify", "replay", inputs["replay.csv"], "--n", ORDER,
                              "--max-attacked", w.max_attacked, "--test-len", w.test_len])
            if text:
                winners, expected = json.loads(text)["winners"], w.expected_winners(w.pinned)
                if winners != expected:
                    self._fail("identify replay", f"winners {winners} != {expected}")
            text = self._cli("identify_delay", "identify delay",
                             ["identify", "delay", demo_dirs["delay"] / "online.csv",
                              "--rel-deg", DELAY_REL_DEG])
            if text:
                free = json.loads(text)["attack_free_sensors"]
                if free != [1, 3]:
                    self._fail("identify delay", f"attack-free sensors {free} != [1, 3]")
        for _ in range(w.learn_repeats):
            self._cli("learn", "learn",
                      ["learn", inputs["offline.csv"], "--n", ORDER, "--max-attacked",
                       w.max_attacked, "--horizon", w.columns, "--out", model], writes=[model])
        onset = w.stream_len - ATTACK_LEAD
        text = self._cli("identify_injection", "identify injection",
                         ["identify", "injection", stream, "--model", model])
        if text:
            self._check_injection("identify injection", json.loads(text), onset)
        if stream_arrays is None and stream.exists():
            recorded = datamat.load_trajectory(stream)
            stream_arrays = recorded.u, recorded.y
        self.monitor(stream_arrays, onset)
        return stream_arrays

    def monitor(self, stream_arrays, onset: int) -> None:
        """Closed loop with one client: each sample goes in after the previous verdict."""
        self.attempted += 1
        try:
            model = ddmodel.load_learned_model(self.work / "model.json")
            u, y = stream_arrays
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._fail("monitor", f"no model or stream: {exc}")
            return
        u_cols, y_cols = list(u.T), list(y.T)
        step_ns, step_segment, segments = [], self.step_segment, self.segments
        with self._timed("monitor", "monitor"):
            mon = identify.injection_bootstrap(model, u[:, :ORDER], y[:, :ORDER])
            counts = dict(self.tracer.counts) if self.tracer else {}
            # The pass stays on the CPU _timed chose: moving mid-pass would
            # leave the next steps with cold caches.
            before = self.probe.read()
            segment_start = perf_counter_ns()
            for k in range(ORDER, u.shape[1]):
                start = thread_time_ns()
                verdict = identify.injection_step(mon, u_cols[k], y_cols[k])
                step_ns.append(thread_time_ns() - start)
                step_segment.append(len(segments))
                if not verdict.all_clear:
                    break
                if perf_counter_ns() - segment_start > self.SEGMENT_NS:
                    after = self.probe.read()
                    segments.append((before, after))
                    before, segment_start = after, perf_counter_ns()
            segments.append((before, self.probe.read()))
        if self.tracer:
            self.counts_per_step = {
                name: (self.tracer.counts[name] - counts[name]) / len(step_ns)
                for name in counts}
        self._check_injection("monitor", identify.verdict_to_dict(verdict), onset)
        self.step_ns += step_ns
        self.step_clean += [ORDER + i < onset for i in range(len(step_ns))]

