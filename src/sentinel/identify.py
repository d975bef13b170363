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

from .attacks import SensorSubset, enumerate_subsets
from .datamat import (
    ExcitationError,
    Trajectory,
    TrajectoryLengthError,
    build_subset_matrices,
    hankel,
    is_persistently_exciting,
    stack_history,
    subset_rows,
)
from .ddmodel import DataDrivenModel, predict, rank_condition
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, first_nonzero


# Bytes of the S x d x B stacked product one screening block of B steps may take.
SCREEN_BLOCK_BYTES = 4 << 20


class NoResponseError(RuntimeError):
    """Every sensor stayed silent after the impulse."""


@dataclass(frozen=True)
class IdentificationVerdict:
    """Outcome of one identification step or batch test.

    scores[j] is the score of candidate subsets[j] (a sensor subset, or a
    single sensor); winners holds the ids of the best-scoring candidates at
    tolerance, attack_free_sensors the union of their sensor indices.
    all_clear is True when every candidate wins, i.e. nothing looks attacked.
    """

    k: int
    mode: str
    subsets: tuple[SensorSubset, ...]
    scores: tuple[float, ...]
    winners: tuple[int, ...]
    attack_free_sensors: tuple[int, ...]
    all_clear: bool


def _verdict(k: int, mode: str, subsets, scores, wins) -> IdentificationVerdict:
    """Verdict over candidates in id order; wins[j] marks subsets[j] a winner."""
    winners = [s for s, won in zip(subsets, wins) if won]
    free = sorted({i for s in winners for i in s.indices})
    return IdentificationVerdict(k, mode, tuple(subsets), tuple(scores),
                                 tuple(s.id for s in winners), tuple(free),
                                 len(winners) == len(subsets))


@dataclass
class InjectionMonitor:
    """Moving-horizon state of the injection detector.

    history is the stack_history vector of all N sensors; history[index[j]]
    is that of model.subsets[j], whose predictor is model.lam[j]. The
    monitor only advances on all-clear steps; the first non-clear verdict
    is terminal and freezes the history. The bootstrap window must be
    attack-free; behavior under an attacked bootstrap is undefined.
    clear_winners and clear_sensors, the winners and attack_free_sensors
    of every all-clear verdict, are worked out from model.subsets when the
    monitor is built.
    """

    model: DataDrivenModel
    history: np.ndarray
    index: np.ndarray
    k: int
    tol: Tolerance = field(default_factory=lambda: DEFAULT_TOL)
    terminal: bool = False
    clear_winners: tuple[int, ...] = field(init=False, repr=False)
    clear_sensors: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        subsets = self.model.subsets
        self.clear_winners = tuple(s.id for s in subsets)
        self.clear_sensors = tuple(sorted({i for s in subsets for i in s.indices}))


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
    return InjectionMonitor(model, stack_history(y_hist, u_hist),
                            subset_rows(n_sensors, model.subsets, n, m),
                            n, tol)


def injection_step(mon: InjectionMonitor, u_k, y_new) -> IdentificationVerdict:
    """Process one online sample pair (current input, newest measurement).

    For each subset the predictor advances the stored history and the
    received measurement is shifted in to form the observed history; the
    score is the 2-norm of their difference. Candidates within
    residual + residual * ||observed|| of the smallest score win.
    On all-clear the shifted history becomes the new monitor state;
    otherwise the verdict is terminal and the monitor freezes. All subsets
    are scored at once: one gather, one stacked product, one shift, one
    dot product per row; an all-clear verdict takes the monitor's
    precomputed winners and sensors.
    """
    if mon.terminal:
        raise RuntimeError("monitor is terminal; no further steps accepted")
    model = mon.model
    u_vec = as_vector(u_k, model.m, "u_k")
    y_vec = as_vector(y_new, model.n_sensors, "y_new")
    n_sensors, outputs = model.n_sensors, model.n_sensors * model.n
    history = mon.history
    predicted = predict(model.lam, u_vec, history[mon.index])
    shifted = np.concatenate([history[n_sensors:outputs], y_vec,
                              history[outputs + model.m:], u_vec])
    observed = shifted[mon.index]
    diff = observed - predicted
    # row norms as one dot product per row: bit-equal to np.linalg.norm of a row
    residuals = np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    norms = np.sqrt(observed[:, None, :] @ observed[:, :, None])[:, 0, 0]
    wins = residuals <= residuals.min() + (mon.tol.residual + mon.tol.residual * norms)
    scores = tuple(residuals.tolist())
    if wins.all():
        mon.history = shifted
        mon.k += 1
        return IdentificationVerdict(mon.k, "injection", model.subsets, scores,
                                     mon.clear_winners, mon.clear_sensors, True)
    mon.terminal = True
    return _verdict(mon.k + 1, "injection", model.subsets, scores, wins.tolist())


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

    A screen runs the all-clear prefix in column blocks; the monitor is
    then bootstrapped on the n samples before the first step the screen
    could not clear, which is exactly the history the step loop holds
    there, and run_injection finishes the stream. k counts samples from
    the stream's first column, as with a bootstrap at k = n.
    """
    n = model.n
    if (traj.input_dim, traj.output_dim) != (model.m, model.n_sensors):
        raise ValueError(f"stream has {traj.input_dim} inputs and {traj.output_dim} outputs, "
                         f"the model needs {model.m} and {model.n_sensors}")
    if traj.length < n + 1:
        raise TrajectoryLengthError(traj.length, n + 1)
    k = _screen_clear_steps(model, traj, tol)
    monitor = injection_bootstrap(model, traj.u[:, k - n: k], traj.y[:, k - n: k], tol)
    monitor.k = k
    return run_injection(monitor, traj.u[:, k:], traj.y[:, k:])


def _residual_operator(model: DataDrivenModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The screen's residual operator E (S x d x W) and its S x W observed
    and regressor pick matrices, W = (N + m)(n + 1).

    Column c of the depth-(n + 1) all-sensor Hankel H = [hankel(y, s, n + 1, .);
    hankel(u, s, n + 1, .)] holds samples s + c .. s + c + n of every channel.
    Row (j, i) of E @ H[:, c] is entry i of subset j's next history minus
    lam[j][i] @ [u_k; history_j] at step k = s + c + n: E holds -lam[j] at
    the regressor's rows (subset_rows mapped into H's layout, and the u_k
    rows) and +1 at the next-history row, so 1 - lam where the two meet
    (every entry but the newest output samples). The pick matrices times
    H * H give the squared norms of the next histories and the regressors.
    """
    n, m, n_sensors = model.n, model.m, model.n_sensors
    n_subsets, d = model.lam.shape[:2]
    width = (n_sensors + m) * (n + 1)
    rows = subset_rows(n_sensors, model.subsets, n, m)
    # H has n + 1 output samples, so its input rows start N rows further down
    inputs = rows >= n_sensors * n
    history = rows + n_sensors * inputs
    following = rows + n_sensors + m * inputs
    u_now = np.broadcast_to(n_sensors * (n + 1) + n * m + np.arange(m), (n_subsets, m))
    regressor = np.concatenate([u_now, history], axis=1)
    operator = np.zeros((n_subsets, d, width))
    starts = width * np.arange(n_subsets * d).reshape(n_subsets, d, 1)
    flat = operator.reshape(-1)
    flat[(starts + regressor[:, None, :]).reshape(-1)] = -model.lam.reshape(-1)
    flat[(starts[..., 0] + following).reshape(-1)] += 1.0
    picks = np.zeros((2, n_subsets, width))
    np.put_along_axis(picks[0], following, 1.0, axis=1)
    np.put_along_axis(picks[1], regressor, 1.0, axis=1)
    return operator, picks[0], picks[1]


def _screen_clear_steps(model: DataDrivenModel, traj: Trajectory, tol: Tolerance) -> int:
    """Column of the first step from n on that the screen cannot clear, at
    most the last column, so run_injection always makes the final verdict.

    A block of B steps is one product E @ H of the residual operator
    (_residual_operator) with B Hankel columns, then one row norm per
    subset; blocks hold about SCREEN_BLOCK_BYTES of S x d x B product, so
    memory stays bounded on long streams. E itself takes (N + m)(n + 1) /
    (d + m) times the bytes of model.lam (1.5-1.8x on the benchmark
    workloads, 5.4 MB at N = 10, M = 4, n = 6) and is freed on return.

    A step is cleared only if every subset's residual sits below
    min + slack by at least half its slack, and by more than its own
    rounding bound plus the largest one (the minimum may be any subset's).
    The bound is b = 16 (d + m + 2) eps A, A = ||lam_j||_F ||x|| + ||o||
    for regressor x and next history o, and it is over twice what the two
    scores can differ by. With u = eps / 2, g(k) = k u / (1 - k u) and r
    the exact o - lam_j x:
    * a row e of E has at most d + m + 1 nonzeros, and zeros leave a sum
      exact in any order, so the product is within g(d + m + 1) |e| |H| of
      the rounded row's; the rounded 1 - lam entry adds u |e| |H|, and
      |e| |H| <= |o_i| + |lam_ji| |x|, so the screen's vector is within
      g(d + m + 2) A of r;
    * injection_step's o - lam_j x, a (d + m)-term product and one
      subtraction, is within g(d + m + 1) A of r;
    * each side's norm, a d-term sum of squares in its own order and a
      square root, is within g(d + 3) / 2 of its vector's norm, and
      both vectors' norms are at most A (1 + g(d + m + 2)).
    So the scores differ by at most about (3d + 2m + 6) u A, under
    1.5 (d + m + 2) eps A. The screen's A (the two norms as pick-matrix
    sums of H * H) falls short of the exact by a relative
    g(d (d + m) + 4) at most, under 1e-9 for d < 3000. The computed
    slacks differ by about g(d + 3) tol ||o||, and the margins, minima
    and sums carry a few u of rounding; the cleared margin, at least
    slack / 4 + (b_j + max b) / 2, covers both with room to spare, and
    covers underflow too for any normal tol.residual. A non-finite
    value clears nothing. So injection_step calls every cleared step
    clear too.
    """
    n, m = model.n, model.m
    lam = model.lam
    n_subsets, d = lam.shape[:2]
    operator, pick_observed, pick_regressor = _residual_operator(model)
    operator = operator.reshape(n_subsets * d, -1)
    lam_norms = np.sqrt(np.einsum("sij,sij->s", lam, lam))[:, None]
    ulps = 16 * (d + m + 2) * np.finfo(float).eps
    block = max(1, SCREEN_BLOCK_BYTES // (n_subsets * d * 8))
    last = traj.length - 1
    for start in range(n, last, block):
        cols = min(block, last - start)
        window = np.vstack([hankel(traj.y, start - n, n + 1, cols),
                            hankel(traj.u, start - n, n + 1, cols)])
        diff = (operator @ window).reshape(n_subsets, d, cols)
        residuals = np.sqrt(np.einsum("sdc,sdc->sc", diff, diff))
        squares = window * window
        observed = np.sqrt(pick_observed @ squares)
        rounding = ulps * (lam_norms * np.sqrt(pick_regressor @ squares) + observed)
        slack = tol.residual + tol.residual * observed
        margin = residuals.min(axis=0) + slack - residuals
        clear = (margin >= slack / 2) & (margin > rounding + rounding.max(axis=0))
        unclear = ~clear.all(axis=0)
        if unclear.any():
            return start + int(unclear.argmax())
    return last


def identify_replay(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                    t1: int, tol: Tolerance = DEFAULT_TOL) -> IdentificationVerdict:
    """Rank-certificate test over a fresh excited window, no model needed.

    The input window u[n .. n+t1-1] must be persistently exciting of order
    (m + q)n + 1 with t1 >= (m + 1) * order, q = N - M. Replayed-constant
    rows collapse a subset's history Hankel (or add directions the plant
    cannot produce), so exactly the attack-free subsets report the
    certifying rank; those are the winners.
    """
    if traj.output_dim != n_sensors:
        raise ValueError(f"trajectory has {traj.output_dim} outputs, expected {n_sensors}")
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
    subsets = enumerate_subsets(n_sensors, max_attacked)
    reports = rank_condition(build_subset_matrices(traj, subsets, n, t1), tol)
    return _verdict(traj.start_index, "replay", subsets,
                    [float(r.observed) for r in reports], [r.holds for r in reports])


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
    timings = [first_response(y_arr[j]) for j in range(n_sensors)]
    if all(t is None for t in timings):
        raise NoResponseError("no sensor responded to the impulse")
    slacks = [np.inf if t is None else float(t - r) for t, r in zip(timings, rel_degrees)]
    sensors = [SensorSubset(j, (j,)) for j in range(1, n_sensors + 1)]
    best = min(slacks)
    return _verdict(0, "delay", sensors, slacks, [s == best for s in slacks])


def verdict_to_dict(verdict: IdentificationVerdict) -> dict:
    """JSON-ready form of a verdict."""
    key = {"injection": "residual", "replay": "rank", "delay": "slack"}[verdict.mode]
    per_subset = []
    for subset, value in zip(verdict.subsets, verdict.scores):
        if verdict.mode == "replay":
            value = int(value)
        elif verdict.mode == "delay" and np.isfinite(value):
            value = int(value)
        elif not np.isfinite(value):
            value = None
        per_subset.append({"id": subset.id, "indices": list(subset.indices), key: value})
    return {
        "k": verdict.k,
        "mode": verdict.mode,
        "per_subset": per_subset,
        "winners": list(verdict.winners),
        "attack_free_sensors": list(verdict.attack_free_sensors),
        "all_clear": verdict.all_clear,
    }
