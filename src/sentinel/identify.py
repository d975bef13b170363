"""Online identification of attack-free sensors.

Three detectors, one per attack shape:

* injection: every sensor's deviation from the plant, decoded from the
  newest sample with the learned model, in a moving-horizon loop that
  re-anchors each sample on the plant;
* replay: per-subset rank certificates over a freshly excited test window
  (no learned model needed);
* delay: first-response timing of each sensor against its known
  input-to-output delay after an impulse from equilibrium.

Verdicts share one shape: one tuple of per-entry values (a replay rank or
a delay offset per candidate, or an injection step's decode per sensor)
and the winner set, from which the union of the winners' sensor indices
and the all-clear flag derive. A clean injection step builds nothing per
subset, and an injection verdict's JSON form holds one record per sensor,
not per subset.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import enumerate_subsets
from .datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    blocks,
    build_subset_matrices,
    excitation_order,
    is_persistently_exciting,
    trajectory_hankel,
)
from .ddmodel import DataDrivenModel, certifying_rank, predict, rank_condition
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, first_nonzero


class NoResponseError(RuntimeError):
    """Every sensor stayed silent after the impulse."""


@dataclass(frozen=True)
class IdentificationVerdict:
    """Outcome of one identification step or batch test.

    subsets are the candidates (sensor subsets, or single sensors, as tuples
    of 1-based sensor indices); winners holds the ids, 1-based positions in
    subsets, of the candidates that pass the test. attack_free_sensors and
    all_clear derive from them.

    values holds one entry per candidate for replay and delay, values[j]
    the score of subsets[j]: an int for a replay rank or a finite delay
    offset, else a float. An injection verdict's values are the step's
    decode a, one entry per sensor. slacks holds every sensor's slack s_i
    where the step's full rule computed them, and is None where the step
    cleared every |a_i| at the floor tol.residual without them
    (injection_step), and for replay and delay.
    """

    k: int
    mode: str
    subsets: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]
    winners: tuple[int, ...]
    slacks: Optional[tuple[float, ...]] = None

    @property
    def attack_free_sensors(self) -> tuple[int, ...]:
        """The sorted union of the winners' sensor indices."""
        return tuple(sorted({i for j in self.winners for i in self.subsets[j - 1]}))

    @property
    def all_clear(self) -> bool:
        """True when every candidate wins, i.e. nothing looks attacked."""
        return len(self.winners) == len(self.subsets)


def _verdict(k: int, mode: str, subsets, values, wins) -> IdentificationVerdict:
    """Verdict over candidates in id order; wins[j] marks subsets[j] a winner."""
    return IdentificationVerdict(k, mode, tuple(subsets), tuple(values),
                                 tuple(j for j, won in enumerate(wins, 1) if won))


@dataclass
class InjectionMonitor:
    """Moving-horizon state of the injection detector.

    column is a column of the depth-(n + 1) all-sensor Hankel, laid out as
    trajectory_hankel(traj, k - n, n + 1, 1)[:, 0]; its oldest n samples
    are the history, and each step writes y_k and u_k into its newest
    sample. The monitor keeps its own copy of column and advances on every
    step, alarm or not, re-anchoring its newest outputs on the plant, so
    its history stays one the plant can produce. The bootstrap window must
    be attack-free; behavior under an attacked bootstrap is undefined.
    clear_winners, the winners of every all-clear verdict, are worked out
    when the monitor is built.
    """

    model: DataDrivenModel
    column: np.ndarray
    k: int
    tol: Tolerance = field(default_factory=lambda: DEFAULT_TOL)
    clear_winners: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        model = self.model
        width = (model.n_sensors + model.m) * (model.n + 1)
        self.column = as_vector(self.column, width, "column").copy()
        self.clear_winners = tuple(range(1, len(model.subsets) + 1))


def injection_bootstrap(model: DataDrivenModel, u_history, y_history,
                        tol: Tolerance = DEFAULT_TOL) -> InjectionMonitor:
    """Build the monitor state from n attack-free samples.

    u_history is m x n and y_history N x n, columns oldest first; the
    monitor starts at time n, i.e. the histories cover times 0..n-1.
    """
    u_hist = as_matrix(u_history, "u_history")
    y_hist = as_matrix(y_history, "y_history")
    n, m, n_sensors = model.n, model.m, model.n_sensors
    if u_hist.shape != (m, n):
        raise ValueError(f"u_history must be {m} x {n}, got {u_hist.shape}")
    if y_hist.shape != (n_sensors, n):
        raise ValueError(f"y_history must be {n_sensors} x {n}, got {y_hist.shape}")
    # the newest sample's slots stay zero until the first step writes them
    return InjectionMonitor(model, np.concatenate([y_hist.T.reshape(-1), np.zeros(n_sensors),
                                                   u_hist.T.reshape(-1), np.zeros(m)]), n, tol)


def injection_step(mon: InjectionMonitor, u_k, y_new) -> IdentificationVerdict:
    """Process one online sample pair (current input, newest measurement).

    y_new and u_k go into the newest sample's slots of the monitor column,
    and one predict call decodes every sensor's deviation a from the plant.
    Sensor i is named when |a_i| exceeds its slack s_i = tol.residual (1 +
    ||sensor i's samples at times 1 .. n of the column||), and the winners
    are the subsets that hold no named sensor. With at most M named sensors
    the winners' union is exactly the unnamed sensors; with more than M no
    subset wins: winners and attack_free_sensors are empty and the verdict
    is not all-clear. On every step, alarm or not, the newest outputs are
    then re-anchored on the plant, y - a, and the column drops its oldest
    sample, so the history stays one the plant can produce and the next
    step decodes only its own sample's deviation. The verdict keeps a, and
    the slacks where the full rule below computed them; an all-clear
    verdict takes the monitor's precomputed winners.

    A step whose every |a_i| is at most tol.residual is cleared without
    computing the slacks: each s_i is tol.residual plus a term that is
    never negative, so it is at least that floor, and no sensor can be
    named. The test is exact, not a second rule: a NaN decode fails it and
    takes the full rule. There a slack or the sum of the squared decodes
    that is not finite (a sample so large that the step overflows) raises
    ValueError, and k and the history stay as they were.
    """
    model = mon.model
    u_vec = as_vector(u_k, model.m, "u_k")
    y_vec = as_vector(y_new, model.n_sensors, "y_new")
    column, n_sensors, m = mon.column, model.n_sensors, model.m
    outputs, inputs = n_sensors * model.n, n_sensors * (model.n + 1)
    column[outputs:inputs] = y_vec
    column[-m:] = u_vec
    deviation = predict(model.decoder, column)
    magnitude = np.abs(deviation)
    named = slacks = None
    if np.count_nonzero(magnitude <= mon.tol.residual) != n_sensors:
        with np.errstate(over="ignore", invalid="ignore"):
            slack = model.slacks(column, mon.tol)
            energy = deviation @ deviation
        if not (np.isfinite(energy) and np.isfinite(slack).all()):
            raise ValueError("the sample (u_k, y_new) overflows the injection step: a slack "
                             "or the sum of the squared decodes is not finite")
        named = ~(magnitude <= slack)
        slacks = tuple(slack.tolist())
    column[outputs:inputs] -= deviation
    column[:outputs] = column[n_sensors:inputs]
    column[inputs:-m] = column[inputs + m:]
    mon.k += 1
    winners = mon.clear_winners
    if named is not None and np.count_nonzero(named):
        flagged = set((np.flatnonzero(named) + 1).tolist())
        winners = tuple(j for j, s in enumerate(model.subsets, 1) if flagged.isdisjoint(s))
    return IdentificationVerdict(mon.k, "injection", model.subsets, tuple(deviation.tolist()),
                                 winners, slacks)


def run_injection(mon: InjectionMonitor, u, y) -> IdentificationVerdict:
    """Feed the columns of u (m x L) and y (N x L) to injection_step in order.

    Stops at the first verdict that is not all-clear and returns it;
    otherwise returns the verdict of the last column.
    """
    u_arr = as_matrix(u, "u")
    y_arr = as_matrix(y, "y")
    if u_arr.shape[1] != y_arr.shape[1]:
        raise ValueError(
            f"u and y must share the time axis, got {u_arr.shape[1]} vs {y_arr.shape[1]} columns")
    for k in range(u_arr.shape[1]):
        verdict = injection_step(mon, u_arr[:, k], y_arr[:, k])
        if not verdict.all_clear:
            break
    return verdict


def identify_injection(model: DataDrivenModel, traj: Trajectory,
                       tol: Tolerance = DEFAULT_TOL) -> IdentificationVerdict:
    """The verdict of run_injection over a recorded stream, bootstrapped on
    its first n samples, without one Python-level step per sample.

    A screen decodes the all-clear prefix in column blocks
    (_screen_clear_steps); at the first step k the screen could not clear,
    a monitor is built on Hankel column k - n of the stream, whose oldest n
    samples are the history the step loop holds there to rounding (it
    re-anchors every step on the plant), and run_injection goes on from
    there to the first alarm, or to the stream's end.
    The verdict's k, winners and all_clear are the step loop's, and its
    decode is equal to rounding. k counts samples from the stream's first
    column, as with a bootstrap at k = n.
    """
    n = model.n
    if (traj.input_dim, traj.output_dim) != (model.m, model.n_sensors):
        raise ValueError(f"stream has {traj.input_dim} inputs and {traj.output_dim} outputs, "
                         f"the model needs {model.m} and {model.n_sensors}")
    if traj.length < n + 1:
        raise TrajectoryLengthError(traj.length, n + 1)
    k = _screen_clear_steps(model, traj, tol)
    monitor = InjectionMonitor(model, trajectory_hankel(traj, k - n, n + 1, 1)[:, 0], k, tol)
    return run_injection(monitor, traj.u[:, k:], traj.y[:, k:])


def _screen_clear_steps(model: DataDrivenModel, traj: Trajectory, tol: Tolerance) -> int:
    """Column of the first step from n on that the screen cannot clear, at
    most the last column, so run_injection always makes the final verdict.

    The screen decodes a = K h of the stream's Hankel columns h in blocks of
    about BLOCK_BYTES, K the model's decoder. It clears a step while every
    |a_i| <= beta_i = W eps ||K_i|| ||h|| (K_i row i of K) and 16 beta_i <=
    s_i, the step's slack (DataDrivenModel.slacks, by which learning checks
    its training columns too). beta_i bounds what a column the plant
    produced decodes to: the decode's rounding, gamma_W (|K| |h|)_i <= (W
    eps / 2) ||K_i|| ||h|| to first order, plus |(K P h)_i| <= ||K_i|| ||P
    h||, P h the column's distance from the learned basis (at most 9.5 eps
    ||h|| on the benchmark and test streams, whose decodes stayed under
    0.03 beta_i). The step loop holds h but for its history's re-anchoring
    by its own earlier decodes, which moved them by at most 0.11 beta_i
    there; with its own rounding the step's |a_i| stays under 2 beta_i, an
    eighth of s_i, so it clears too, its history the recorded one to
    rounding. A slack under 16 beta_i clears nothing; at the first step past
    beta, a deviation however small, the step loop takes over. So it does
    at a column whose slack overflows: there the step loop rejects the
    sample (injection_step).
    """
    n, width = model.n, model.basis.shape[0]
    decoder = model.decoder
    gain = width * np.finfo(float).eps * np.sqrt(np.einsum("iw,iw->i", decoder, decoder))
    for part in blocks(n, traj.length - 1, width * 8):
        window = trajectory_hankel(traj, part.start - n, n + 1, part.stop - part.start)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = gain[:, None] * np.sqrt(np.einsum("wb,wb->b", window, window))
            slack = model.slacks(window, tol)
            clear = (np.abs(decoder @ window) <= bound) & (16 * bound <= slack)
        unclear = ~(clear & np.isfinite(slack)).all(axis=0)
        if unclear.any():
            return part.start + int(unclear.argmax())
    return traj.length - 1


def identify_replay(traj: Trajectory, max_attacked: int, n: int, t1: int,
                    tol: Tolerance = DEFAULT_TOL) -> IdentificationVerdict:
    """Rank-certificate test over a fresh excited window, no model needed.

    The input window u[n .. n+t1-1] must be persistently exciting of order
    (m + q)n + 1 with t1 >= (m + 1) * order, q = N - M, N the recording's
    output count. Replayed-constant rows collapse a subset's history Hankel
    (or add directions the plant cannot produce), so exactly the
    attack-free subsets reach the certifying rank m(n + 1) + n; those are
    the winners, and each subset scores its observed rank. A delayed sensor
    reads samples that depend on inputs before the window, so the subsets
    holding it exceed the certifying rank: the test names delayed sensors
    too. An order n below 1 raises ValueError before any window is read.
    """
    n_sensors, m = traj.output_dim, traj.input_dim
    subsets = enumerate_subsets(n_sensors, max_attacked)
    if n < 1:
        raise ValueError(f"order and columns must be positive, got {n}, {t1}")
    order = excitation_order(m, n_sensors - max_attacked, n)
    if t1 < (m + 1) * order:
        raise ExcitationError(
            f"test window t1={t1} shorter than ({m + 1}) * order = {(m + 1) * order}", order)
    if traj.length < n + t1:
        raise TrajectoryLengthError(traj.length, n + t1)
    window = traj.u[:, n: n + t1]
    if not is_persistently_exciting(window, order, tol):
        raise ExcitationError(
            f"test input window is not persistently exciting of order {order}", order)
    ranks = rank_condition(build_subset_matrices(traj, subsets, n, t1), tol)
    required = certifying_rank(m, n)
    return _verdict(traj.start_index, "replay", subsets, ranks,
                    [rank == required for rank in ranks])


def first_response(signal) -> Optional[int]:
    """Index k >= 1 of the first sample that reads nonzero, else None.

    "Nonzero" is linalg.first_nonzero's rule over k >= 1, the rule
    relative_degree applies to Markov parameters, so the answer is
    invariant to input and output scaling. Non-finite samples raise
    ValueError.
    """
    first = first_nonzero(as_vector(signal, np.size(signal), "signal")[1:])
    return None if first is None else first + 1


def identify_delay(y_impulse, rel_degrees) -> IdentificationVerdict:
    """Timing test after an impulse from equilibrium.

    y_impulse is N x T (T at least the largest expected delay); entry j-1
    of rel_degrees is sensor j's known input-to-output delay. Each
    sensor's score is the int (first nonzero sample index) - (its delay),
    or inf for a sensor that stays silent; undelayed sensors score 0, so
    the argmin set is exactly the attack-free sensors when at least one
    sensor is honest.
    """
    y_arr = as_matrix(y_impulse, "y_impulse")
    n_sensors = y_arr.shape[0]
    if len(rel_degrees) != n_sensors:
        raise ValueError(
            f"need one relative degree per sensor ({n_sensors}), got {len(rel_degrees)}")
    if any(type(r) is not int and not isinstance(r, np.integer) or r < 1 for r in rel_degrees):
        raise ValueError(f"relative degrees must be positive integers, got {rel_degrees}")
    if y_arr.shape[1] <= max(rel_degrees):
        raise ValueError(
            f"impulse record of {y_arr.shape[1]} samples cannot cover a delay of "
            f"{max(rel_degrees)}")
    timings = [first_response(y_arr[j]) for j in range(n_sensors)]
    if all(t is None for t in timings):
        raise NoResponseError("no sensor responded to the impulse")
    slacks = [np.inf if t is None else int(t - r) for t, r in zip(timings, rel_degrees)]
    sensors = [(j,) for j in range(1, n_sensors + 1)]
    best = min(slacks)
    return _verdict(0, "delay", sensors, slacks, [s == best for s in slacks])


def _finite(value):
    """value, or None (JSON null) where it is not finite."""
    return value if value is not None and math.isfinite(value) else None


def verdict_to_dict(verdict: IdentificationVerdict) -> dict:
    """JSON-ready form of a verdict; a non-finite number is written as null.

    An injection verdict holds one per_sensor record per sensor i: its
    decode a_i, its slack s_i and whether the step named it, not |a_i| <=
    s_i. A step that cleared every |a_i| at the floor computed no slacks:
    there every slack is null and no sensor is named. A replay or delay
    verdict holds one per_subset record per candidate: its id, its sensor
    indices and its score, a rank or a timing offset.
    """
    if verdict.mode == "injection":
        slacks = verdict.slacks or (None,) * len(verdict.values)
        records = {"per_sensor": [
            {"sensor": i, "decode": _finite(a), "slack": _finite(s),
             "named": s is not None and not abs(a) <= s}
            for i, (a, s) in enumerate(zip(verdict.values, slacks), 1)]}
    else:
        key = {"replay": "rank", "delay": "slack"}[verdict.mode]
        records = {"per_subset": [{"id": j, "indices": list(verdict.subsets[j - 1]),
                                   key: _finite(value)}
                                  for j, value in enumerate(verdict.values, 1)]}
    return {
        "k": verdict.k,
        "mode": verdict.mode,
        **records,
        "winners": list(verdict.winners),
        "attack_free_sensors": list(verdict.attack_free_sensors),
        "all_clear": verdict.all_clear,
    }
