"""Online identification of attack-free sensors.

Three detectors, one per attack shape:

* injection: per-subset one-step residuals against the learned predictors,
  advanced in a moving-horizon loop while everything stays consistent;
* replay: per-subset rank certificates over a freshly excited test window
  (no learned model needed);
* delay: first-response timing of each sensor against its known
  input-to-output delay after an impulse from equilibrium.

Verdicts share one shape: per-entry scores, the winner set, the union of
winners' sensor indices, and an all-clear flag.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import enumerate_subsets
from .datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    build_subset_matrices,
    is_persistently_exciting,
    stack_history,
)
from .ddmodel import DataDrivenModel, predict, rank_condition
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector


class NoResponseError(RuntimeError):
    """Every sensor stayed silent after the impulse."""


@dataclass(frozen=True)
class SubsetScore:
    """Score of one candidate (a sensor subset, or a single sensor)."""

    id: int
    indices: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class IdentificationVerdict:
    """Outcome of one identification step or batch test.

    winners holds the ids of the best-scoring candidates at tolerance;
    attack_free_sensors is the union of their sensor indices. all_clear is
    True when every candidate wins, i.e. nothing looks attacked.
    """

    k: int
    mode: str
    scores: tuple[SubsetScore, ...]
    winners: tuple[int, ...]
    attack_free_sensors: tuple[int, ...]
    all_clear: bool


def _verdict(k: int, mode: str, scores: list[SubsetScore],
             winner_ids: list[int]) -> IdentificationVerdict:
    winners = tuple(sorted(winner_ids))
    free: set[int] = set()
    by_id = {s.id: s for s in scores}
    for j in winners:
        free.update(by_id[j].indices)
    return IdentificationVerdict(k, mode, tuple(scores), winners,
                                 tuple(sorted(free)), len(winners) == len(scores))


@dataclass
class InjectionMonitor:
    """Moving-horizon state of the injection detector.

    Holds one stacked history vector per subset, all derived from the same
    input/output window. The monitor only advances on all-clear steps; the
    first non-clear verdict is terminal and freezes the histories. The
    bootstrap window must be attack-free; behavior under an attacked
    bootstrap is undefined.
    """

    model: DataDrivenModel
    states: dict
    k: int
    tol: Tolerance = field(default_factory=lambda: DEFAULT_TOL)
    terminal: bool = False


def injection_bootstrap(model: DataDrivenModel, u_history, y_history,
                        k: Optional[int] = None,
                        tol: Tolerance = DEFAULT_TOL) -> InjectionMonitor:
    """Build per-subset history states from n attack-free samples.

    u_history is m x n and y_history N x n, columns oldest first; k tags
    the time at which the monitor starts (defaults to n, i.e. histories
    covering times 0..n-1).
    """
    u_hist = as_matrix(u_history, "u_history")
    y_hist = as_matrix(y_history, "y_history")
    n = model.n
    if u_hist.shape != (model.m, n):
        raise ValueError(f"u_history must be {model.m} x {n}, got {u_hist.shape}")
    if y_hist.shape != (model.n_sensors, n):
        raise ValueError(
            f"y_history must be {model.n_sensors} x {n}, got {y_hist.shape}")
    states = {}
    for entry in model.predictors:
        z_hist = y_hist[[i - 1 for i in entry.subset.indices], :]
        states[entry.subset.id] = stack_history(z_hist, u_hist)
    return InjectionMonitor(model, states, n if k is None else k, tol)


def injection_step(mon: InjectionMonitor, u_k, y_new) -> IdentificationVerdict:
    """Process one online sample pair (current input, newest measurement).

    For each subset the predictor advances the stored history and the
    received measurement is shifted in to form the observed history; the
    score is the 2-norm of their difference. Candidates within
    residual_abs + residual_rel * ||observed|| of the smallest score win.
    On all-clear the observed histories become the new monitor state;
    otherwise the verdict is terminal and the monitor freezes.
    """
    if mon.terminal:
        raise RuntimeError("monitor is terminal; no further steps accepted")
    model = mon.model
    u_vec = as_vector(u_k, model.m, "u_k")
    y_vec = as_vector(y_new, model.n_sensors, "y_new")
    n, m = model.n, model.m
    scores = []
    observed_states = {}
    slack = {}
    for entry in model.predictors:
        subset = entry.subset
        q = subset.size
        state = mon.states[subset.id]
        predicted = predict(entry.lam, u_vec, state)
        observed = np.empty_like(state)
        # shift the output block and append the newest subset measurement
        observed[: (n - 1) * q] = state[q: n * q]
        observed[(n - 1) * q: n * q] = y_vec[[i - 1 for i in subset.indices]]
        observed[n * q: n * q + (n - 1) * m] = state[n * q + m:]
        observed[n * q + (n - 1) * m:] = u_vec
        residual = float(np.linalg.norm(observed - predicted))
        scores.append(SubsetScore(subset.id, subset.indices, residual))
        observed_states[subset.id] = observed
        slack[subset.id] = mon.tol.residual_abs + mon.tol.residual_rel * float(
            np.linalg.norm(observed))
    best = min(s.value for s in scores)
    winner_ids = [s.id for s in scores if s.value <= best + slack[s.id]]
    verdict = _verdict(mon.k + 1, "injection", scores, winner_ids)
    if verdict.all_clear:
        mon.states = observed_states
        mon.k += 1
    else:
        mon.terminal = True
    return verdict


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


def identify_replay(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                    t1: int, tol: Tolerance = DEFAULT_TOL) -> IdentificationVerdict:
    """Rank-certificate test over a fresh excited window, no model needed.

    The input window u[n .. n+t1-1] must be persistently exciting of order
    (m + q)n + 1 with t1 >= (m + 1) * order, q = N - M. Replayed-constant
    rows collapse a subset's history Hankel (or add directions the plant
    cannot produce), so exactly the attack-free subsets report the
    certifying rank; those are the winners.
    """
    q = n_sensors - max_attacked
    m = traj.input_dim
    order = (m + q) * n + 1
    if t1 < (m + 1) * order:
        raise ExcitationError(
            f"test window t1={t1} shorter than ({m + 1}) * order = {(m + 1) * order}", order)
    if traj.length < n + t1:
        raise TrajectoryLengthError(traj.length, n + t1)
    window = traj.u[:, n: n + t1]
    if not is_persistently_exciting(window, order, tol):
        raise ExcitationError(
            f"test input window is not persistently exciting of order {order}", order)
    scores = []
    winner_ids = []
    for subset in enumerate_subsets(n_sensors, max_attacked):
        mats = build_subset_matrices(traj, subset, n, t1)
        report = rank_condition(mats, tol)
        scores.append(SubsetScore(subset.id, subset.indices, float(report.observed)))
        if report.holds:
            winner_ids.append(subset.id)
    return _verdict(traj.start_index, "replay", scores, winner_ids)


def first_response(signal, tol: Tolerance = DEFAULT_TOL) -> Optional[int]:
    """Index k >= 1 of the first sample that reads nonzero, else None.

    The cutoff is nonzero_rel times the signal's own peak over k >= 1
    (floored by nonzero_abs), making the answer invariant to input and
    output scaling.
    """
    values = np.abs(np.asarray(signal, dtype=float).reshape(-1))
    if values.size < 2:
        return None
    peak = float(values[1:].max())
    threshold = max(tol.nonzero_abs, tol.nonzero_rel * peak)
    for k in range(1, values.size):
        if values[k] > threshold:
            return k
    return None


def identify_delay(y_impulse, rel_degrees, tol: Tolerance = DEFAULT_TOL) -> IdentificationVerdict:
    """Timing test after an impulse from equilibrium.

    y_impulse is N x T (T at least the largest expected delay); entry j-1
    of rel_degrees is sensor j's known input-to-output delay. Each
    sensor's score is (first nonzero sample index) - (its delay); undelayed
    sensors score 0, so the argmin set is exactly the attack-free sensors
    when at least one sensor is honest.
    """
    y_arr = as_matrix(y_impulse, "y_impulse")
    n_sensors = y_arr.shape[0]
    if len(rel_degrees) != n_sensors:
        raise ValueError(
            f"need one relative degree per sensor ({n_sensors}), got {len(rel_degrees)}")
    if any(r is None or r < 1 for r in rel_degrees):
        raise ValueError(f"relative degrees must be positive integers, got {rel_degrees}")
    if y_arr.shape[1] <= max(rel_degrees):
        raise ValueError(
            f"impulse record of {y_arr.shape[1]} samples cannot cover a delay of "
            f"{max(rel_degrees)}")
    timings = [first_response(y_arr[j], tol) for j in range(n_sensors)]
    if all(t is None for t in timings):
        raise NoResponseError("no sensor responded to the impulse")
    scores = []
    slacks = []
    for j in range(n_sensors):
        slack = np.inf if timings[j] is None else float(timings[j] - rel_degrees[j])
        slacks.append(slack)
        scores.append(SubsetScore(j + 1, (j + 1,), slack))
    best = min(slacks)
    winner_ids = [j + 1 for j in range(n_sensors) if slacks[j] == best]
    return _verdict(0, "delay", scores, winner_ids)


def verdict_to_dict(verdict: IdentificationVerdict) -> dict:
    """JSON-ready form of a verdict."""
    key = {"injection": "residual", "replay": "rank", "delay": "slack"}[verdict.mode]
    per_subset = []
    for score in verdict.scores:
        value = score.value
        if verdict.mode == "replay":
            value = int(value)
        elif verdict.mode == "delay" and np.isfinite(value):
            value = int(value)
        elif not np.isfinite(value):
            value = None
        per_subset.append({"id": score.id, "indices": list(score.indices), key: value})
    return {
        "k": verdict.k,
        "mode": verdict.mode,
        "per_subset": per_subset,
        "winners": list(verdict.winners),
        "attack_free_sensors": list(verdict.attack_free_sensors),
        "all_clear": verdict.all_clear,
    }
