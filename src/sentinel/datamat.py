"""Trajectory records, block-Hankel windows and per-subset data matrices.

Conventions: signals are 2-D arrays whose columns are time steps, oldest
first. A sensor subset's history holds its previous n outputs, time-major,
followed by the previous n inputs, each block oldest first. Every subset's
data matrices are row selections of one depth-(n + 1) all-sensor
block-Hankel (hankel_rows), and the injection monitor's state is one of
its columns.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, numerical_rank

# seeded draws generate_pe_input makes before giving up
PE_MAX_ATTEMPTS = 16

# Bytes of the arrays over one block (see blocks): subsets' gathered rows in
# the rank certificate, W-row Hankel columns in the training misfit and the
# injection screen; so memory stays bounded however many columns or subsets
# there are.
BLOCK_BYTES = 8 << 20


def blocks(start: int, stop: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering start .. stop - 1, each of as many items
    of item_bytes bytes as take about BLOCK_BYTES (at least one item)."""
    step = max(1, BLOCK_BYTES // max(1, item_bytes))
    return [slice(first, min(first + step, stop)) for first in range(start, stop, step)]


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


def excitation_order(m: int, q: int, n: int) -> int:
    """Order (m + q)n + 1 of persistent excitation that certifies the rank
    of q-sensor subsets of an order-n plant with m inputs."""
    return (m + q) * n + 1


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

    index: the subsets as one S x q integer array, row j = subsets[j].
    hankel: the all-sensor Hankel G of depth n + 1 (trajectory_hankel),
        W x T with W = (N + m)(n + 1); column c holds samples c .. c + n.
    order: the plant order n; input_dim: the input count m. T is
        hankel.shape[1].
    Every subset's data are row selections of G (hankel_rows of its index
    row: G[rows] is its stacked data [u_now; history] at times
    n .. n + T - 1), so one factorization of G serves them all; the S
    gathered stacks are never built.
    """

    subsets: tuple[tuple[int, ...], ...]
    index: np.ndarray
    hankel: np.ndarray
    order: int
    input_dim: int

    def __post_init__(self):
        for arr in (self.index, self.hankel):
            arr.setflags(write=False)


def trajectory_hankel(traj: Trajectory, start: int, depth: int, cols: int) -> np.ndarray:
    """The all-sensor block-Hankel [hankel(y, ...); hankel(u, ...)]: sample t
    of sensor i sits at row t * N + i - 1, of input k at N depth + t m + k - 1."""
    return np.vstack([hankel(traj.y, start, depth, cols), hankel(traj.u, start, depth, cols)])


def hankel_rows(n_sensors: int, subsets, n: int, m: int) -> np.ndarray:
    """S x (d + m) regressor rows of the depth-(n + 1) trajectory_hankel:
    row j picks input sample n, then subsets[j]'s history: its sensors'
    samples 0 .. n - 1, time-major, then the inputs' samples 0 .. n - 1."""
    sensors = np.array(subsets) - 1
    count, q = sensors.shape
    outputs = (n_sensors * np.arange(n)[:, None] + sensors[:, None, :]).reshape(count, -1)
    inputs = np.broadcast_to(n_sensors * (n + 1) + np.arange((n + 1) * m), (count, (n + 1) * m))
    return np.concatenate([inputs[:, n * m:], outputs, inputs[:, :n * m]], axis=1)


def build_subset_matrices(traj: Trajectory, subsets, n: int,
                          columns: int) -> SubsetDataMatrices:
    """Assemble the all-sensor Hankel of every subset's data with `columns`
    snapshots, and the subsets' S x q index array.

    Each subset is a tuple of strictly increasing 1-based sensor indices, at
    most the recording's output count, and all hold the same number of
    sensors. Requires n + columns recorded samples so that both the current
    and the shifted history matrices come from one recording.
    """
    if n < 1 or columns < 1:
        raise ValueError(f"order and columns must be positive, got {n}, {columns}")
    required = n + columns
    if traj.length < required:
        raise TrajectoryLengthError(traj.length, required)
    subsets = tuple(map(tuple, subsets))
    if not subsets:
        raise ValueError("no sensor subsets given")
    if len({len(s) for s in subsets}) != 1:
        raise ValueError("sensor subsets must all hold the same number of sensors")
    index = np.array(subsets)
    if index.size == 0 or index.dtype.kind not in "iu":
        raise ValueError(f"a sensor subset must be a non-empty tuple of integers, "
                         f"got {subsets[0]}")
    ordered = (index[:, 0] >= 1) & (index[:, 1:] > index[:, :-1]).all(axis=1)
    if not ordered.all():
        raise ValueError(f"subset indices must be strictly increasing and >= 1, "
                         f"got {subsets[np.argmin(ordered)]}")
    if index[:, -1].max() > traj.output_dim:
        raise ValueError(f"a subset names a sensor beyond the {traj.output_dim} recorded")
    return SubsetDataMatrices(subsets, index, trajectory_hankel(traj, 0, n + 1, columns), n,
                              traj.input_dim)


def write_json(payload, path) -> None:
    """Write payload as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at path; a file holding any other JSON
    value raises ValueError naming it ("<what> file holds a JSON list, not
    an object")."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        kind = {list: "list", str: "string", bool: "boolean", type(None): "null"}
        raise ValueError(f"{what} file holds a JSON {kind.get(type(payload), 'number')}, "
                         "not an object")
    return payload


def _trajectory_header(m: int, p: int) -> list[str]:
    return ["k"] + [f"u_{i}" for i in range(1, m + 1)] + [f"y_{i}" for i in range(1, p + 1)]


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header k,u_1..u_m,y_1..y_N: repr floats
    and CRLF line ends, the bytes csv.writer writes, so a load is bit-exact."""
    header = _trajectory_header(traj.input_dim, traj.output_dim)
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
    """Read a trajectory written by save_trajectory. A header other than
    k,u_1..u_m,y_1..y_N (m, N >= 1), a row without exactly the header's
    fields, or a k that is not a consecutive int64 raises ValueError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("trajectory file is empty")
        m = sum(1 for name in header if name.startswith("u_"))
        p = len(header) - 1 - m
        if m == 0 or p < 1 or header != _trajectory_header(m, p):
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
