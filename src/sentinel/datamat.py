"""Trajectory records, block-Hankel windows and per-subset data matrices.

Conventions: signals are 2-D arrays whose columns are time steps, oldest
first. A stacked history vector for a sensor subset holds the previous n
subset outputs followed by the previous n inputs, each block oldest first;
the data matrices place those vectors side by side, one column per time
step.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, numerical_rank

if TYPE_CHECKING:
    from .attacks import SensorSubset

# seeded draws generate_pe_input makes before giving up
PE_MAX_ATTEMPTS = 16


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

    def __post_init__(self):
        self.u.setflags(write=False)


def generate_pe_input(m: int, length: int, order: int, seed: int,
                      tol: Tolerance = DEFAULT_TOL) -> ExcitationSignal:
    """Seeded uniform(-1, 1) input, certified persistently exciting.

    Regenerates with an incremented seed until the excitation check passes
    (at most PE_MAX_ATTEMPTS draws) and records the seed actually used.
    """
    if order < 1:
        raise ValueError(f"excitation order must be positive, got {order}")
    feasible = order * m + order - 1
    if length < feasible:
        raise ExcitationError(
            f"length {length} cannot be exciting of order {order} for {m} inputs "
            f"(needs at least {feasible} samples)", order)
    for attempt in range(PE_MAX_ATTEMPTS):
        used = seed + attempt
        u = np.random.default_rng(used).uniform(-1.0, 1.0, (m, length))
        if is_persistently_exciting(u, order, tol):
            return ExcitationSignal(u, used)
    raise ExcitationError(
        f"no exciting input of order {order} found in {PE_MAX_ATTEMPTS} seeded draws", order)


@dataclass(frozen=True)
class SubsetDataMatrices:
    """Data matrices of every sensor subset built from a single recording.

    u_now: inputs at the prediction instants (m x T), shared by all subsets.
    states: stacked-history columns at times n..n+T-1 (S x (q+m)n x T),
        states[j] those of subsets[j].
    states_next: the same columns one step later, times n+1..n+T.
    Column k of states_next equals column k+1 of states while they overlap.
    """

    subsets: tuple[SensorSubset, ...]
    u_now: np.ndarray
    states: np.ndarray
    states_next: np.ndarray
    order: int
    columns: int

    def __post_init__(self):
        for arr in (self.u_now, self.states, self.states_next):
            arr.setflags(write=False)


def subset_rows(n_sensors: int, subsets, n: int, m: int) -> np.ndarray:
    """S x (q+m)n indices: row j picks subsets[j]'s stacked history out of
    the all-sensor one. Time-major: sample t of sensor i sits at t * N + i - 1,
    and the n * m input entries follow the N * n output entries."""
    sensors = np.array([s.indices for s in subsets]) - 1
    outputs = (n_sensors * np.arange(n)[:, None] + sensors[:, None, :]).reshape(len(sensors), -1)
    inputs = np.broadcast_to(n_sensors * n + np.arange(n * m), (len(sensors), n * m))
    return np.concatenate([outputs, inputs], axis=1)


def build_subset_matrices(traj: Trajectory, subsets, n: int,
                          columns: int) -> SubsetDataMatrices:
    """Assemble the data matrices of every subset with `columns` snapshots.

    Gathers each subset's rows of the all-sensor Hankels with subset_rows.
    Requires n + columns recorded samples so that both the current and the
    shifted history matrices come from one recording.
    """
    if n < 1 or columns < 1:
        raise ValueError(f"order and columns must be positive, got {n}, {columns}")
    required = n + columns
    if traj.length < required:
        raise TrajectoryLengthError(traj.length, required)
    subsets = tuple(subsets)
    if any(i > traj.output_dim for s in subsets for i in s.indices):
        raise ValueError(f"a subset names a sensor beyond the {traj.output_dim} recorded")
    full = np.vstack([hankel(traj.y, 0, n, columns + 1), hankel(traj.u, 0, n, columns + 1)])
    gathered = full[subset_rows(traj.output_dim, subsets, n, traj.input_dim)]
    u_now = traj.u[:, n: n + columns].copy()
    return SubsetDataMatrices(subsets, u_now, gathered[..., :-1], gathered[..., 1:], n, columns)


def stack_history(z_hist, u_hist) -> np.ndarray:
    """Stacked history vector from q x n outputs and m x n inputs
    (columns oldest first): outputs block first, then inputs.
    """
    z = as_matrix(z_hist, "z_hist")
    u = as_matrix(u_hist, "u_hist")
    if z.shape[1] != u.shape[1]:
        raise ValueError("output and input histories must cover the same window")
    return np.concatenate([z.T.reshape(-1), u.T.reshape(-1)])


def write_json(payload, path) -> None:
    """Write payload as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header k,u_1..u_m,y_1..y_N: repr floats
    and CRLF line ends, the bytes csv.writer writes, so a load is bit-exact."""
    m, p = traj.input_dim, traj.output_dim
    header = ["k"] + [f"u_{i}" for i in range(1, m + 1)] + [f"y_{i}" for i in range(1, p + 1)]
    rows = np.vstack([traj.u, traj.y]).T.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(f"{k},{','.join(map(repr, row))}\r\n"
                      for k, row in enumerate(rows, traj.start_index))


def _check_field_counts(lines, fields: int) -> None:
    """Raise ValueError naming the first non-empty line after the header
    whose comma-separated field count is not `fields`."""
    for number, line in enumerate(lines, 1):
        line = line.rstrip("\r\n")
        count = line.count(",") + 1
        if number > 1 and line and count != fields:
            raise ValueError(f"trajectory line {number} has {count} fields, "
                             f"the header has {fields}")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by save_trajectory. A row without exactly the
    header's fields, or a k that is not a consecutive int64, raises ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("trajectory file is empty")
        m = sum(1 for name in header if name.startswith("u_"))
        p = sum(1 for name in header if name.startswith("y_"))
        if header[:1] != ["k"] or m == 0 or p == 0 or len(header) != 1 + m + p:
            raise ValueError(f"unrecognized trajectory header {header}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header only: "no samples" below
            try:
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                  dtype=[("k", "<i8"), ("v", "<f8", (m + p,))])
            except ValueError:
                fh.seek(0)
                _check_field_counts(fh, len(header))
                raise
    if rows.size == 0:
        raise ValueError("trajectory file has no samples")
    k = rows["k"]
    # int64 differences wrap, so also check the span in Python integers
    if (np.diff(k) != 1).any() or int(k[-1]) - int(k[0]) != k.size - 1:
        raise ValueError("trajectory time column must be consecutive")
    return Trajectory(rows["v"][:, :m].T, rows["v"][:, m:].T, int(k[0]))
