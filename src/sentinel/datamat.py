"""Trajectory records, block-Hankel windows and per-subset data matrices.

Conventions: signals are 2-D arrays whose columns are time steps, oldest
first. A stacked history vector for a sensor subset holds the previous n
subset outputs followed by the previous n inputs, each block oldest first;
the data matrices place those vectors side by side, one column per time
step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, numerical_rank

if TYPE_CHECKING:
    from .attacks import SensorSubset


class WindowError(ValueError):
    """A Hankel window reaches outside the recorded signal."""


class TrajectoryLengthError(ValueError):
    """A trajectory is too short for the requested data matrices."""

    def __init__(self, length: int, required: int):
        self.length = length
        self.required = required
        super().__init__(
            f"trajectory has {length} samples but at least {required} are required")


class ExcitationError(ValueError):
    """An input signal is not (or could not be made) sufficiently exciting."""

    def __init__(self, message: str, order: int | None = None):
        self.order = order
        super().__init__(message)


@dataclass(frozen=True)
class Trajectory:
    """Recorded input/output run: u is m x L, y is p x L, same L.

    start_index tags the time of the first column (the k of column 0).
    """

    u: np.ndarray
    y: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        u = as_matrix(self.u, "u").copy()
        y = as_matrix(self.y, "y").copy()
        if u.shape[1] != y.shape[1]:
            raise ValueError(
                f"u and y must share the time axis, got {u.shape[1]} vs {y.shape[1]} columns")
        u.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def input_dim(self) -> int:
        return self.u.shape[0]

    @property
    def output_dim(self) -> int:
        return self.y.shape[0]

    @property
    def length(self) -> int:
        return self.u.shape[1]


def hankel(signal, start: int, depth: int, cols: int) -> np.ndarray:
    """Block-Hankel window of a d x L signal.

    Block row r of column c is signal[:, start + r + c]; the result is
    (d * depth) x cols and is a pure copy, no arithmetic.
    """
    sig = as_matrix(signal, "signal")
    if depth < 1 or cols < 1:
        raise WindowError(f"depth and cols must be positive, got {depth}, {cols}")
    last = start + depth - 1 + cols - 1
    if start < 0 or last >= sig.shape[1]:
        raise WindowError(
            f"window [{start}, {last}] out of range for signal of length {sig.shape[1]}")
    return np.vstack([sig[:, start + r: start + r + cols] for r in range(depth)])


def excitation_rank(u, order: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of the depth-`order` Hankel of u (full rank: order * m).

    Raises WindowError when u has fewer than `order` samples.
    """
    u_arr = as_matrix(u, "u")
    return numerical_rank(hankel(u_arr, 0, order, u_arr.shape[1] - order + 1), tol)


def is_persistently_exciting(u, order: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the depth-`order` Hankel of u has full row rank order * m."""
    u_arr = as_matrix(u, "u")
    m, length = u_arr.shape
    return length >= order and excitation_rank(u_arr, order, tol) == order * m


@dataclass(frozen=True)
class ExcitationSignal:
    """A generated input with the seed that produced it."""

    u: np.ndarray
    seed: int
    order: int

    def __post_init__(self):
        self.u.setflags(write=False)


def generate_pe_input(m: int, length: int, order: int, seed: int,
                      tol: Tolerance = DEFAULT_TOL,
                      max_attempts: int = 16) -> ExcitationSignal:
    """Seeded uniform(-1, 1) input, certified persistently exciting.

    Regenerates with an incremented seed until the excitation check passes
    (at most max_attempts draws) and records the seed actually used.
    """
    if order < 1:
        raise ValueError(f"excitation order must be positive, got {order}")
    feasible = order * m + order - 1
    if length < feasible:
        raise ExcitationError(
            f"length {length} cannot be exciting of order {order} for {m} inputs "
            f"(needs at least {feasible} samples)", order)
    for attempt in range(max_attempts):
        used = seed + attempt
        u = np.random.default_rng(used).uniform(-1.0, 1.0, (m, length))
        if is_persistently_exciting(u, order, tol):
            return ExcitationSignal(u, used, order)
    raise ExcitationError(
        f"no exciting input of order {order} found in {max_attempts} seeded draws", order)


@dataclass(frozen=True)
class SubsetDataMatrices:
    """Data matrices of one sensor subset built from a single recording.

    u_now: inputs at the prediction instants (m x T).
    states: stacked-history columns at times n..n+T-1 ((q+m)n x T).
    states_next: the same columns one step later, times n+1..n+T.
    Column k of states_next equals column k+1 of states while they overlap.
    """

    subset: SensorSubset
    u_now: np.ndarray
    states: np.ndarray
    states_next: np.ndarray
    order: int
    columns: int

    def __post_init__(self):
        for arr in (self.u_now, self.states, self.states_next):
            arr.setflags(write=False)

    @property
    def output_dim(self) -> int:
        return len(self.subset.indices)

    @property
    def input_dim(self) -> int:
        return self.u_now.shape[0]


def build_subset_matrices(traj: Trajectory, subset: SensorSubset, n: int,
                          columns: int) -> SubsetDataMatrices:
    """Assemble the per-subset data matrices with `columns` snapshots.

    Requires n + columns recorded samples so that both the current and the
    shifted history matrices come from one recording.
    """
    if n < 1 or columns < 1:
        raise ValueError(f"order and columns must be positive, got {n}, {columns}")
    required = n + columns
    if traj.length < required:
        raise TrajectoryLengthError(traj.length, required)
    z = traj.y[[i - 1 for i in subset.indices], :]
    states = np.vstack([hankel(z, 0, n, columns), hankel(traj.u, 0, n, columns)])
    states_next = np.vstack([hankel(z, 1, n, columns), hankel(traj.u, 1, n, columns)])
    u_now = traj.u[:, n: n + columns].copy()
    return SubsetDataMatrices(subset, u_now, states, states_next, n, columns)


def stack_history(z_hist, u_hist) -> np.ndarray:
    """Stacked history vector from q x n outputs and m x n inputs
    (columns oldest first): outputs block first, then inputs.
    """
    z = as_matrix(z_hist, "z_hist")
    u = as_matrix(u_hist, "u_hist")
    if z.shape[1] != u.shape[1]:
        raise ValueError("output and input histories must cover the same window")
    return np.concatenate([z.T.reshape(-1), u.T.reshape(-1)])


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header k,u_1..u_m,y_1..y_N."""
    m, p = traj.input_dim, traj.output_dim
    header = ["k"] + [f"u_{i}" for i in range(1, m + 1)] + [f"y_{i}" for i in range(1, p + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.length):
            row = [str(traj.start_index + k)]
            row += [repr(float(v)) for v in traj.u[:, k]]
            row += [repr(float(v)) for v in traj.y[:, k]]
            writer.writerow(row)


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by save_trajectory."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for name in header if name.startswith("u_"))
        p = sum(1 for name in header if name.startswith("y_"))
        if header[0] != "k" or m == 0 or p == 0 or len(header) != 1 + m + p:
            raise ValueError(f"unrecognized trajectory header {header}")
        ks, us, ys = [], [], []
        for row in reader:
            if not row:
                continue
            ks.append(int(row[0]))
            us.append([float(v) for v in row[1:1 + m]])
            ys.append([float(v) for v in row[1 + m:1 + m + p]])
    if not ks:
        raise ValueError("trajectory file has no samples")
    start = ks[0]
    if ks != list(range(start, start + len(ks))):
        raise ValueError("trajectory time column must be consecutive")
    return Trajectory(np.array(us, dtype=float).T, np.array(ys, dtype=float).T, start)
