"""Model-based reference oracles the tests compare the pipeline against.

None of this is used by the sentinel package itself: each oracle needs the
plant's (A, B, C), which the data-driven pipeline never sees.

* characteristic_polynomial: Faddeev-LeVerrier coefficients of A;
* ArxModel / ss_to_arx: the lag-n input-output recursion of an
  observable, controllable plant;
* ExtendedStateSpace / extended_state_space: its stacked-history
  companion form, the generator a learned predictor must reproduce;
* RankOracleReport / rank_obsv_oracle: the observability/Toeplitz
  factorization that bounds a subset's output-Hankel rank;
* reference_history: one subset's stacked history built from its raw
  signals, the vector every monitor and data-matrix layout must reproduce;
* ReferenceMonitor / reference_injection_bootstrap /
  reference_injection_step: the injection monitor written one subset at a
  time with each subset's predictor (the λ form), whose decisions the
  package's decode must match, and its scores to rounding. It needs no
  plant, only the learned model;
* reference_save_trajectory / reference_simulate: the row-at-a-time CSV
  writer and column-at-a-time simulation loop, which the package's
  whole-array versions must match byte for byte;
* reference_hankel_rows: the subset-at-a-time regressor and target rows
  of the all-sensor Hankel; the package's broadcast hankel_rows must match
  its regressor rows entry and dtype, and the package never selects the
  target rows (target_rows gives those of a SubsetDataMatrices);
* gathered_stacks: every subset's stacked data and next histories as
  whole arrays, which the package never builds: it factors the all-sensor
  Hankel once instead;
* predictors / model_lambda: every subset's predictor as one S x d x
  (d + m) stack, from a basis or from a model's basis, which the package
  never forms: it decodes every sensor's deviation with one N x W matrix.
"""

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sentinel.datamat import SubsetDataMatrices, Trajectory, hankel
from sentinel.ddmodel import DataDrivenModel
from sentinel.identify import IdentificationVerdict, _verdict
from sentinel.linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector, numerical_rank
from sentinel.plant import StateSpace, is_controllable, is_observable


def characteristic_polynomial(mat) -> np.ndarray:
    """Monic characteristic polynomial coefficients a_0..a_{n-1}.

    p(x) = x^n + a_{n-1} x^{n-1} + ... + a_0, computed with the
    Faddeev-LeVerrier recursion (division-free except by integers), so the
    result is deterministic and needs no eigendecomposition.
    """
    a = as_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"characteristic_polynomial needs a square matrix, got {a.shape}")
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    work = a.copy()
    coeffs[n - 1] = -np.trace(work)
    eye = np.eye(n)
    for k in range(2, n + 1):
        work = a @ (work + coeffs[n - k + 1] * eye)
        coeffs[n - k] = -np.trace(work) / k
    return coeffs[:n]


@dataclass(frozen=True)
class ArxModel:
    """Lag-n recursion equivalent to an observable/controllable plant.

    With histories ordered oldest first, the recursion is

        z[k] = sum_i out_coeffs[i] @ z[k-n+i] + in_coeffs[i] @ u[k-n+i]

    for i = 0..n-1, where out_coeffs[i] = -a_i * I (a_i the characteristic
    polynomial coefficients of A, a_n = 1) and
    in_coeffs[i] = sum_{j=i+1..n} a_j * C A^{j-i-1} B.
    """

    order: int
    output_dim: int
    input_dim: int
    out_coeffs: tuple
    in_coeffs: tuple

    def __post_init__(self):
        if len(self.out_coeffs) != self.order or len(self.in_coeffs) != self.order:
            raise ValueError("coefficient count must equal the model order")
        q, m = self.output_dim, self.input_dim
        for blk in self.out_coeffs:
            if blk.shape != (q, q):
                raise ValueError(f"output coefficient blocks must be {q}x{q}")
        for blk in self.in_coeffs:
            if blk.shape != (q, m):
                raise ValueError(f"input coefficient blocks must be {q}x{m}")


@dataclass(frozen=True)
class ExtendedStateSpace:
    """Companion form of an ArxModel over the stacked-history state.

    The state stacks z[k-n..k-1] then u[k-n..k-1] (oldest first, outputs
    first). Rows are shifts except the newest-output row, which carries the
    recursion coefficients; the input matrix is zero except for an identity
    in the newest-input row.
    """

    A_ext: np.ndarray
    B_ext: np.ndarray
    order: int
    output_dim: int
    input_dim: int


def ss_to_arx(ss: StateSpace, tol: Tolerance = DEFAULT_TOL) -> ArxModel:
    """Equivalent lag-n recursion of an observable, controllable plant.

    The output (stacked sensors of ss.C) must make (A, C) observable and
    (A, B) controllable; otherwise a lag-n recursion need not exist and a
    ValueError is raised.
    """
    if not is_observable(ss.A, ss.C, tol):
        raise ValueError("ss_to_arx requires an observable (A, C) pair")
    if not is_controllable(ss.A, ss.B, tol):
        raise ValueError("ss_to_arx requires a controllable (A, B) pair")
    n = ss.state_dim
    q = ss.sensor_count
    m = ss.input_dim
    coeffs = characteristic_polynomial(ss.A)  # a_0..a_{n-1}, a_n = 1
    eye_q = np.eye(q)
    out_coeffs = tuple(-coeffs[i] * eye_q for i in range(n))
    powers = [np.eye(n)]
    for _ in range(n - 1):
        powers.append(ss.A @ powers[-1])
    in_coeffs = []
    for i in range(n):
        blk = np.zeros((q, m))
        for j in range(i + 1, n + 1):
            a_j = 1.0 if j == n else coeffs[j]
            blk += a_j * (ss.C @ powers[j - i - 1] @ ss.B)
        in_coeffs.append(blk)
    return ArxModel(n, q, m, out_coeffs, tuple(in_coeffs))


def extended_state_space(arx: ArxModel) -> ExtendedStateSpace:
    """Assemble the companion form of the lag-n recursion."""
    n, q, m = arx.order, arx.output_dim, arx.input_dim
    dim = (q + m) * n
    a_ext = np.zeros((dim, dim))
    b_ext = np.zeros((dim, m))
    # output-history shifts
    for i in range(n - 1):
        a_ext[i * q:(i + 1) * q, (i + 1) * q:(i + 2) * q] = np.eye(q)
    # newest-output row: recursion over the full stacked history
    row = slice((n - 1) * q, n * q)
    for i in range(n):
        a_ext[row, i * q:(i + 1) * q] = arx.out_coeffs[i]
        a_ext[row, n * q + i * m: n * q + (i + 1) * m] = arx.in_coeffs[i]
    # input-history shifts
    for i in range(n - 1):
        a_ext[n * q + i * m: n * q + (i + 1) * m,
              n * q + (i + 1) * m: n * q + (i + 2) * m] = np.eye(m)
    b_ext[n * q + (n - 1) * m:, :] = np.eye(m)
    return ExtendedStateSpace(a_ext, b_ext, n, q, m)


@dataclass(frozen=True)
class RankOracleReport:
    """Model-based factorization of one subset's output-Hankel rank.

    The depth-n output Hankel factors through [obs_matrix, toeplitz] acting
    on states and input histories, so its rank is bounded by
    rank(obs_matrix) + rank(toeplitz). Used only in tests, where the plant
    is known.
    """

    obs_matrix: np.ndarray
    toeplitz: np.ndarray
    rank_obs: int
    rank_toeplitz: int
    predicted_max_rank: int
    observed_rank: int
    bound_holds: bool


def rank_obsv_oracle(ss: StateSpace, subset: tuple[int, ...], n: int, traj: Trajectory,
                     columns: Optional[int] = None,
                     tol: Tolerance = DEFAULT_TOL) -> RankOracleReport:
    """Build the observability/Toeplitz factors of the depth-n output Hankel
    and compare their rank sum against the rank observed in the data.

    obs_matrix stacks C_sub A^i (i = 0..n-1); toeplitz block (i, l) is
    C_sub A^{i-l-1} B for l < i and zero otherwise (first block row and
    last block column are zero).
    """
    rows = [i - 1 for i in subset]
    c_sub = ss.C[rows, :]
    q = len(rows)
    if columns is None:
        columns = traj.length - n
    obs_blocks = []
    row = c_sub
    for _ in range(n):
        obs_blocks.append(row)
        row = row @ ss.A
    obs_matrix = np.vstack(obs_blocks)
    m = ss.input_dim
    toeplitz = np.zeros((q * n, n * m))
    markov = [c_sub @ np.linalg.matrix_power(ss.A, i) @ ss.B for i in range(max(n - 1, 0))]
    for i in range(n):
        for l in range(i):
            toeplitz[i * q:(i + 1) * q, l * m:(l + 1) * m] = markov[i - l - 1]
    z = traj.y[rows, :]
    z_hankel = hankel(z, 0, n, columns)
    rank_obs = numerical_rank(obs_matrix, tol)
    rank_toe = numerical_rank(toeplitz, tol) if np.any(toeplitz) else 0
    observed = numerical_rank(z_hankel, tol) if np.any(z_hankel) else 0
    predicted = rank_obs + rank_toe
    return RankOracleReport(obs_matrix, toeplitz, rank_obs, rank_toe,
                            predicted, observed, observed <= predicted)


def reference_history(z_hist, u_hist) -> np.ndarray:
    """Stacked history of q x n outputs and m x n inputs (columns oldest
    first): the outputs sample by sample, then the inputs sample by sample."""
    z = as_matrix(z_hist, "z_hist")
    u = as_matrix(u_hist, "u_hist")
    if z.shape[1] != u.shape[1]:
        raise ValueError("output and input histories must cover the same window")
    return np.concatenate([z.T.reshape(-1), u.T.reshape(-1)])


@dataclass
class ReferenceMonitor:
    """Per-subset injection monitor state: one stacked history per subset id,
    and the model's predictors as an S x d x (d + m) stack."""

    model: DataDrivenModel
    states: dict
    k: int
    lam: np.ndarray
    tol: Tolerance = field(default_factory=lambda: DEFAULT_TOL)


def reference_injection_bootstrap(model: DataDrivenModel, u_history, y_history,
                                  tol: Tolerance = DEFAULT_TOL) -> ReferenceMonitor:
    """One reference_history vector per subset from n attack-free samples."""
    u_hist = as_matrix(u_history, "u_history")
    y_hist = as_matrix(y_history, "y_history")
    states = {}
    for j, subset in enumerate(model.subsets, 1):
        z_hist = y_hist[[i - 1 for i in subset], :]
        states[j] = reference_history(z_hist, u_hist)
    return ReferenceMonitor(model, states, model.n, model_lambda(model), tol)


def reference_injection_step(mon: ReferenceMonitor, u_k, y_new) -> IdentificationVerdict:
    """The injection step subset by subset in the λ form: lam[j] @ [u_k;
    state] predicts subset j's next history, and the newest-output entries of
    its residual are its sensors' deviations. A sensor is named when its
    deviation in the first subset holding it exceeds tol.residual (1 + ||its
    samples in that subset's next history||); subset j scores the norm of
    its own deviations and wins when it holds no named sensor. On every
    step, alarm or not, each subset's next history takes its own predicted
    newest outputs (the re-anchoring) in a hand-written shift."""
    model = mon.model
    u_vec = as_vector(u_k, model.m, "u_k")
    y_vec = as_vector(y_new, model.n_sensors, "y_new")
    n, m = model.n, model.m
    scores, named, seen, observed_states = [], set(), set(), {}
    for j, subset in enumerate(model.subsets):
        q = len(subset)
        state = mon.states[j + 1]
        predicted = mon.lam[j] @ np.concatenate([u_vec, state])
        observed = np.empty_like(state)
        # shift the output block and append the newest subset measurement
        observed[: (n - 1) * q] = state[q: n * q]
        observed[(n - 1) * q: n * q] = y_vec[[i - 1 for i in subset]]
        observed[n * q: n * q + (n - 1) * m] = state[n * q + m:]
        observed[n * q + (n - 1) * m:] = u_vec
        newest = slice((n - 1) * q, n * q)
        deviation = observed[newest] - predicted[newest]
        scores.append(float(np.linalg.norm(deviation)))
        for position, sensor in enumerate(subset):
            if sensor not in seen:
                seen.add(sensor)
                samples = observed[position: n * q: q]
                slack = mon.tol.residual + mon.tol.residual * float(np.linalg.norm(samples))
                if not abs(deviation[position]) <= slack:
                    named.add(sensor)
        observed[newest] = predicted[newest]
        observed_states[j + 1] = observed
    mon.states = observed_states
    mon.k += 1
    wins = [named.isdisjoint(subset) for subset in model.subsets]
    return _verdict(mon.k, "injection", model.subsets, scores, wins)


def reference_save_trajectory(traj: Trajectory, path) -> None:
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


def reference_simulate(ss: StateSpace, x0, u) -> tuple[np.ndarray, np.ndarray]:
    """Roll the plant forward under the input sequence u (m x L).

    Returns (states, outputs): states is n x (L+1) including the final
    state, outputs is N x L with y[k] = C x[k].
    """
    u_arr = as_matrix(u, "u")
    if u_arr.shape[0] != ss.input_dim:
        raise ValueError(f"u must have {ss.input_dim} rows, got {u_arr.shape[0]}")
    x = as_vector(x0, ss.state_dim, "x0")
    steps = u_arr.shape[1]
    states = np.zeros((ss.state_dim, steps + 1))
    outputs = np.zeros((ss.sensor_count, steps))
    states[:, 0] = x
    for k in range(steps):
        outputs[:, k] = ss.C @ states[:, k]
        states[:, k + 1] = ss.A @ states[:, k] + ss.B @ u_arr[:, k]
    return states, outputs


def reference_hankel_rows(n_sensors: int, subsets, n: int,
                          m: int) -> tuple[np.ndarray, np.ndarray]:
    """hankel_rows built one np.concatenate per subset: sample t of sensor i
    is row t N + i - 1 of the depth-(n + 1) Hankel, sample t of input k row
    N (n + 1) + t m + k - 1."""
    regressor, target = [], []
    for subset in subsets:
        sensors = np.array(subset) - 1
        outputs = [n_sensors * t + sensors for t in range(n + 1)]
        inputs = [n_sensors * (n + 1) + t * m + np.arange(m) for t in range(n + 1)]
        regressor.append(np.concatenate([inputs[n]] + outputs[:n] + inputs[:n]))
        target.append(np.concatenate(outputs[1:] + inputs[1:]))
    return np.array(regressor), np.array(target)


def target_rows(mats: SubsetDataMatrices) -> np.ndarray:
    """S x d rows of mats' Hankel that hold each subset's history one step
    after its regressor rows (reference_hankel_rows)."""
    n_sensors = mats.hankel.shape[0] // (mats.order + 1) - mats.input_dim
    return reference_hankel_rows(n_sensors, mats.subsets, mats.order, mats.input_dim)[1]


def gathered_stacks(mats: SubsetDataMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Every subset's stacked data [u_now; history] (S x (d + m) x T) and its
    history one step later (S x d x T), gathered from the all-sensor Hankel."""
    return mats.hankel[mats.regressor], mats.hankel[target_rows(mats)]


def predictors(basis: np.ndarray, regressor: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Every subset's predictor U[target[j]] pinv(U[regressor[j]]) as one
    S x d x (d + m) stack, from a W x r basis U of the all-sensor Hankel's
    column space and reference_hankel_rows' regressor and target rows.

    If G = U C with C of full row rank, a U[regressor[j]] of full column
    rank gives G[target[j]] pinv(G[regressor[j]]) = U[target[j]]
    pinv(U[regressor[j]]): the minimum-norm fit of the subset's data,
    whichever basis of that column space U is. The pseudo-inverse is
    R^-1 Q^T from a batched QR of the regressor rows.
    """
    q, r = np.linalg.qr(basis[regressor])
    return basis[target] @ (np.linalg.inv(r) @ np.swapaxes(q, 1, 2))


def model_lambda(model: DataDrivenModel) -> np.ndarray:
    """The model's S x d x (d + m) predictor stack, from its basis."""
    return predictors(model.basis, *reference_hankel_rows(model.n_sensors, model.subsets,
                                                          model.n, model.m))
