"""Online identification of attack-free sensors.

Three detectors, one per attack shape:

* injection: per-subset one-step residuals against the learned predictors,
  advanced in a moving-horizon loop while everything stays consistent;
* replay: per-subset rank certificates over a freshly excited test window
  (no learned model needed);
* delay: first-response timing of each sensor against its known
  input-to-output delay after an impulse from equilibrium.

Verdicts share one shape: per-entry scores and the winner set, from which
the union of the winners' sensor indices and the all-clear flag derive.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import SensorSubset, enumerate_subsets
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
from .ddmodel import DataDrivenModel, predict, rank_condition
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, first_nonzero


class NoResponseError(RuntimeError):
    """Every sensor stayed silent after the impulse."""


@dataclass(frozen=True)
class IdentificationVerdict:
    """Outcome of one identification step or batch test.

    scores[j] is the score of candidate subsets[j] (a sensor subset, or a
    single sensor); winners holds the ids of the best-scoring candidates at
    tolerance. attack_free_sensors and all_clear derive from them.
    """

    k: int
    mode: str
    subsets: tuple[SensorSubset, ...]
    scores: tuple[float, ...]
    winners: tuple[int, ...]

    @property
    def attack_free_sensors(self) -> tuple[int, ...]:
        """The sorted union of the winners' sensor indices."""
        won = set(self.winners)
        return tuple(sorted({i for s in self.subsets if s.id in won for i in s.indices}))

    @property
    def all_clear(self) -> bool:
        """True when every candidate wins, i.e. nothing looks attacked."""
        return len(self.winners) == len(self.subsets)


def _verdict(k: int, mode: str, subsets, scores, wins) -> IdentificationVerdict:
    """Verdict over candidates in id order; wins[j] marks subsets[j] a winner."""
    return IdentificationVerdict(k, mode, tuple(subsets), tuple(scores),
                                 tuple(s.id for s, won in zip(subsets, wins) if won))


@dataclass
class InjectionMonitor:
    """Moving-horizon state of the injection detector.

    column is a column of the depth-(n + 1) all-sensor Hankel, laid out as
    trajectory_hankel(traj, k - n, n + 1, 1)[:, 0]; its oldest n samples
    are the history, and each step writes y_k and u_k into its newest
    sample. With the model's hankel_rows, column[model.regressor[j]] is
    model.subsets[j]'s [u_k; history] and column[model.target[j]] its next
    history. The monitor keeps its own copy of column and only advances on
    all-clear steps; the first non-clear verdict is terminal and freezes
    the history. The bootstrap window must be attack-free; behavior under
    an attacked bootstrap is undefined. clear_winners, the winners of every
    all-clear verdict, are worked out when the monitor is built.
    """

    model: DataDrivenModel
    column: np.ndarray
    k: int
    tol: Tolerance = field(default_factory=lambda: DEFAULT_TOL)
    terminal: bool = False
    clear_winners: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        model = self.model
        width = (model.n_sensors + model.m) * (model.n + 1)
        self.column = as_vector(self.column, width, "column").copy()
        self.clear_winners = tuple(s.id for s in model.subsets)


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

    y_new and u_k go into the newest sample's slots of the monitor column;
    then, for each subset, the predictor, applied through its two factors,
    advances [u_k; history] and the score is the 2-norm of its difference
    from the observed next history.
    Candidates within residual + residual * ||observed|| of the smallest
    score win. On all-clear the column drops its oldest sample, so the
    observed histories become the new state; otherwise the verdict is
    terminal and the monitor freezes. All subsets are scored at once: two
    gathers, one predict call (two stacked products), one dot product per
    row; an all-clear verdict takes the monitor's precomputed winners.
    """
    if mon.terminal:
        raise RuntimeError("monitor is terminal; no further steps accepted")
    model = mon.model
    u_vec = as_vector(u_k, model.m, "u_k")
    y_vec = as_vector(y_new, model.n_sensors, "y_new")
    column, n_sensors, m = mon.column, model.n_sensors, model.m
    outputs, inputs = n_sensors * model.n, n_sensors * (model.n + 1)
    column[outputs:inputs] = y_vec
    column[-m:] = u_vec
    predicted = predict(model.coef, model.lift, column[model.regressor])
    observed = column[model.target]
    diff = observed - predicted
    # row norms as one dot product per row: bit-equal to np.linalg.norm of a row
    residuals = np.sqrt(diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    norms = np.sqrt(observed[:, None, :] @ observed[:, :, None])[:, 0, 0]
    wins = residuals <= residuals.min() + (mon.tol.residual + mon.tol.residual * norms)
    scores = tuple(residuals.tolist())
    if np.count_nonzero(wins) == wins.size:  # wins.all(), without a reduction's set-up
        column[:outputs] = column[n_sensors:inputs]
        column[inputs:-m] = column[inputs + m:]
        mon.k += 1
        return IdentificationVerdict(mon.k, "injection", model.subsets, scores,
                                     mon.clear_winners)
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

    A screen runs the all-clear prefix in column blocks; at the first step
    k the screen could not clear, a monitor is built on Hankel column k - n
    of the stream, whose oldest n samples are exactly the history the step
    loop holds there, and run_injection finishes the stream. k counts
    samples from the stream's first column, as with a bootstrap at k = n.
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

    A step is cleared when 2 D + b <= slack = tol.residual (1 + ||o||) for
    every subset, with _residual_bounds' D, b and ||o||; a non-finite slack
    clears nothing. D is looser than the exact residual, so a deviation
    just under the slack goes to the step loop sooner than an exact screen
    would send it; the verdict is the step loop's either way.
    """
    for start, bound, rounding, observed in _residual_bounds(model, traj):
        slack = tol.residual + tol.residual * observed
        unclear = ~((2 * bound + rounding <= slack) & np.isfinite(slack)).all(axis=0)
        if unclear.any():
            return start + int(unclear.argmax())
    return traj.length - 1


def _residual_bounds(model: DataDrivenModel, traj: Trajectory):
    """Bounds on every subset's step residual at steps n .. L - 2 of traj,
    in blocks of about BLOCK_BYTES of (W + S)-row columns: yields (start, D,
    b, ||o||), each S x B, for the B steps from start on.

    Column h of the depth-(n + 1) all-sensor Hankel holds one step; o =
    h[target_j] and x = h[regressor_j] are subset j's next history and [u_k;
    history]. Subset j's predictor is lam_j = L C, L = model.lift[j] =
    U[target_j] and C = model.coef[j] its factors, U the model's W x r
    basis. For any c and p = h - U c, o - lam_j x = (U[target_j] - lam_j
    U[regressor_j]) c + p[target_j] - lam_j p[regressor_j], and a row
    selection of p is at most ||p||, so its norm is at most delta_j ||c|| +
    (1 + kappa_j) ||p||, with delta_j = ||lam_j U[regressor_j] -
    U[target_j]||_F = ||L (C U[regressor_j] - I)||_F, whatever the basis,
    and kappa_j = ||L||_F ||C||_F >= ||lam_j||_F. With c = U^T h and an
    orthonormal U, data the plant can produce leave p and delta_j at
    rounding level and a deviation from the plant shows in p; another basis
    leaves p large, and little is cleared. So a step takes three
    whole-column norms, of h, p and c; only ||o||, for the slack, is per
    subset, a 0/1 target pick matrix times h * h. No S x d x (d + m) array
    is formed: delta_j takes the r x r C U[regressor_j] - I, and kappa_j the
    factors' own norms.

    D adds the rounding of p and delta_j. Let u = eps / 2, g(k) = k u / (1 -
    k u) and kappa = kappa_j; ||x||, ||o|| <= ||h||, and the Frobenius norms
    of U[regressor_j] and U[target_j] are at most ||U||_F. The bound holds
    for the computed c itself; the computed p is within g(r + 1) (|U| |c| +
    |h|) of h - U c entrywise, which moves the p term by g(r + 1) (1 + 1e-9)
    (1 + kappa) (||U||_F ||c|| + ||h||) at most; the computed C
    U[regressor_j] - I is within g(d + m + 1) (|C| |U[regressor_j]| + I) of
    exact, and the product with L adds g(r) |L| times its magnitude, so the
    computed delta_j is within g(d + m + r + 1) (1 + kappa) ||U||_F. D
    carries e (1 + kappa) (2 ||U||_F ||c|| + ||h||), e = (d + m + r + 2)
    eps, for both, and (3 + kappa + delta_j) sqrt(W 2^-1074) for what
    underflow can take off the screen's norms and the step's score.

    b = 16 e (1 + kappa) ||h||. injection_step's predict computes C x within
    g(d + m) |C| |x| and L (C x) within g(r) |L| |C x| more, and the
    difference from o adds a relative u, so its o - L (C x) is within g(d +
    m + r + 1) (kappa ||x|| + ||o||) <= g(d + m + r + 1) (1 + kappa) ||h||
    of the exact o - lam_j x, and its score exceeds the exact residual by
    under b / 8 beyond the relative rounding of a norm. Each norm, product
    and sum of non-negative terms here and in the slacks, kappa_j among
    them, is within a relative g((d + m)^2 + W r) < 1e-9 (for (d + m)^2 + W
    r < 9e6) of exact. So where 2 D + b <= slack, every score is under
    (slack - b) (1 + 1e-9) / 2 + b / 8, within the step's slack, and as the
    smallest score is at least 0, every subset wins.
    """
    n, m, basis, coef, lift = model.n, model.m, model.basis, model.coef, model.lift
    n_subsets, d, rank = lift.shape
    width = basis.shape[0]
    eps = np.finfo(float).eps
    picks = np.zeros((n_subsets, width))
    np.put_along_axis(picks, model.target, 1.0, axis=1)
    gain = 1 + np.sqrt(np.einsum("sij,sij->s", lift, lift)
                       * np.einsum("sij,sij->s", coef, coef))[:, None]  # 1 + kappa_j
    misfit = lift @ (coef @ basis[model.regressor] - np.eye(rank))
    deltas = np.sqrt(np.einsum("sij,sij->s", misfit, misfit))[:, None]
    ulps = (d + m + rank + 2) * eps
    slope = deltas + 2 * ulps * gain * np.sqrt(np.einsum("ij,ij->", basis, basis))
    floor = (2 + gain + deltas) * np.sqrt(width * np.finfo(float).smallest_subnormal)
    for part in blocks(n, traj.length - 1, (width + n_subsets) * 8):
        window = trajectory_hankel(traj, part.start - n, n + 1, part.stop - part.start)
        coords = basis.T @ window
        distance = window - basis @ coords
        column, far, near = (np.sqrt(np.einsum("ic,ic->c", a, a))
                             for a in (window, distance, coords))
        yield (part.start, slope * near + gain * (far + ulps * column) + floor,
               16 * ulps * gain * column, np.sqrt(picks @ (window * window)))


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
    m = traj.input_dim
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
    if any(type(r) is not int and not isinstance(r, np.integer) or r < 1 for r in rel_degrees):
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
