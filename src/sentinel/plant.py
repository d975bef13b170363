"""LTI plant models: ZOH discretization, simulation, structural analysis.

Also hosts the benchmark plant (three interconnected mass-spring-damper
carts driven by a force on the first cart) and the seeded random-plant
generator the tests and the benchmark share.

Sensors are 1-based everywhere in the public API; each sensor is one row
of C.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .datamat import read_json_object, write_json
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_integer,
    as_matrix,
    as_vector,
    first_nonzero,
    matrix_exponential,
    numerical_rank,
)

# random_test_system: spectral-radius bound and number of draws
RANDOM_RADIUS = 0.95
RANDOM_MAX_TRIES = 64


def _freeze_abc(model) -> None:
    """Validate a model's (A, B, C) and store read-only float copies."""
    a = as_matrix(model.A, "A").copy()
    b = as_matrix(model.B, "B").copy()
    c = as_matrix(model.C, "C").copy()
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got {a.shape}")
    if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
        raise ValueError("inconsistent state dimensions in (A, B, C)")
    for name, arr in (("A", a), ("B", b), ("C", c)):
        arr.setflags(write=False)
        object.__setattr__(model, name, arr)


@dataclass(frozen=True)
class ContinuousStateSpace:
    """Continuous-time model dx/dt = A x + B u, y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    __post_init__ = _freeze_abc


@dataclass(frozen=True)
class StateSpace:
    """Discrete-time model x[k+1] = A x[k] + B u[k], y[k] = C x[k].

    Row i-1 of C is the scalar sensor i.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    __post_init__ = _freeze_abc

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def sensor_count(self) -> int:
        return self.C.shape[0]

    def sensor_row(self, sensor: int) -> np.ndarray:
        """C row of the given 1-based sensor."""
        if not 1 <= sensor <= self.sensor_count:
            raise ValueError(f"sensor {sensor} out of range 1..{self.sensor_count}")
        return self.C[sensor - 1: sensor, :]


def discretize_zoh(css: ContinuousStateSpace, ts: float) -> StateSpace:
    """Exact zero-order-hold discretization with sampling time ts.

    (A, B) are read off e^{[[Ac*ts, Bc*ts], [0, 0]]}; C is unchanged.
    """
    if not ts > 0:
        raise ValueError(f"sampling time must be positive, got {ts}")
    n = css.A.shape[0]
    m = css.B.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = css.A * ts
    block[:n, n:] = css.B * ts
    exp_block = matrix_exponential(block)
    return StateSpace(exp_block[:n, :n], exp_block[:n, n:], css.C.copy())


def simulate(ss: StateSpace, x0, u) -> tuple[np.ndarray, np.ndarray]:
    """Roll the plant forward under the input sequence u (m x L).

    Returns (states, outputs): states is n x (L+1) including the final
    state, outputs is N x L with y[k] = C x[k].
    """
    u_arr = as_matrix(u, "u")
    if u_arr.shape[0] != ss.input_dim:
        raise ValueError(f"u must have {ss.input_dim} rows, got {u_arr.shape[0]}")
    steps = u_arr.shape[1]
    # row-major buffers: each step's products land straight in contiguous rows
    states = np.zeros((steps + 1, ss.state_dim))
    outputs = np.zeros((steps, ss.sensor_count))
    states[0] = as_vector(x0, ss.state_dim, "x0")
    for x, x_next, y, u_k in zip(states, states[1:], outputs, np.ascontiguousarray(u_arr.T)):
        np.matmul(ss.C, x, out=y)
        np.add(ss.A @ x, ss.B @ u_k, out=x_next)
    return states.T.copy(), outputs.T.copy()


def markov_parameters(ss: StateSpace, sensor: int, count: int) -> np.ndarray:
    """First `count` values of C_j A^i B (i = 0..count-1) for one sensor."""
    row = ss.sensor_row(sensor)
    out = np.zeros(count)
    vec = ss.B.copy()
    for i in range(count):
        out[i] = (row @ vec).item()
        vec = ss.A @ vec
    return out


def relative_degree(ss: StateSpace, sensor: int):
    """Input-to-output delay of one sensor: 1 + index of its first nonzero
    Markov parameter.

    "Nonzero" is linalg.first_nonzero's rule, judged against the sensor's
    own Markov-parameter peak, so the answer is invariant under rescaling
    C or B. The search stops at i = 2n; if every parameter up to there
    reads as zero the sensor never responds and None is returned.
    """
    if ss.input_dim != 1:
        raise ValueError("relative_degree supports single-input systems only")
    first = first_nonzero(markov_parameters(ss, sensor, 2 * ss.state_dim + 1))
    return None if first is None else first + 1


def _krylov_full_rank(a, start, name: str, right: bool, tol: Tolerance) -> bool:
    """True iff the n-deep Krylov matrix of A from `start` has rank n:
    [S, A S, ..., A^{n-1} S] side by side when right, else S, S A, ...,
    S A^{n-1} stacked."""
    a_mat = as_matrix(a, "A")
    block = as_matrix(start, name)
    n = a_mat.shape[0]
    if block.shape[0 if right else 1] != n:
        raise ValueError(f"{name} {'row' if right else 'column'} count must equal "
                         "the state dimension")
    blocks = []
    for _ in range(n):
        blocks.append(block)
        block = a_mat @ block if right else block @ a_mat
    return numerical_rank((np.hstack if right else np.vstack)(blocks), tol) == n


def is_observable(a, c_sub, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the stacked n-deep observability matrix of (A, C_sub) has rank n."""
    return _krylov_full_rank(a, c_sub, "C_sub", False, tol)


def is_controllable(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff [B, AB, ..., A^{n-1}B] has rank n."""
    return _krylov_full_rank(a, b, "B", True, tol)


def msd_benchmark() -> ContinuousStateSpace:
    """Three interconnected mass-spring-damper carts, force input on cart 1.

    State is (l1, l1', l2, l2', l3, l3'); outputs are l2, l3 and l3'.
    Parameters (SI units): k1=2, m1=1, b1=3, k2=3, m2=2, b2=4, k3=1, m3=10,
    b3=2.
    """
    k1, m1, b1 = 2.0, 1.0, 3.0
    k2, m2, b2 = 3.0, 2.0, 4.0
    k3, m3, b3 = 1.0, 10.0, 2.0
    a = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [-k1 / m1, -b1 / m1, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [1.0 / m2, 0.0, -k2 / m2, -b2 / m2, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0 / m3, 0.0, -k3 / m3, -b3 / m3],
    ])
    b = np.array([[0.0], [1.0 / m1], [0.0], [0.0], [0.0], [0.0]])
    c = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    return ContinuousStateSpace(a, b, c)


def save_state_space(ss: StateSpace, path) -> None:
    """Write a discrete-time model as JSON {"n","m","N","A","B","C"}."""
    payload = {
        "n": ss.state_dim,
        "m": ss.input_dim,
        "N": ss.sensor_count,
        "A": ss.A.tolist(),
        "B": ss.B.tolist(),
        "C": ss.C.tolist(),
    }
    write_json(payload, path)


def load_state_space(path) -> StateSpace:
    """Read a discrete-time model written by save_state_space. A file that
    holds no JSON object, or a missing or mistyped field (a bool or fraction
    where an integer belongs too), raises ValueError."""
    payload = read_json_object(path, "plant")
    try:
        ss = StateSpace(np.array(payload["A"], dtype=float),
                        np.array(payload["B"], dtype=float),
                        np.array(payload["C"], dtype=float))
        for key, value in (("n", ss.state_dim), ("m", ss.input_dim), ("N", ss.sensor_count)):
            if as_integer(payload[key]) != value:
                raise ValueError(f"plant file field {key}={payload[key]} disagrees "
                                 f"with matrix shapes ({value})")
    except KeyError as exc:
        raise ValueError(f"plant file has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"plant file has a field of the wrong type: {exc}") from exc
    return ss


def spectral_radius(a) -> float:
    """Largest eigenvalue magnitude; used by test-system generators."""
    return float(np.max(np.abs(np.linalg.eigvals(as_matrix(a, "A")))))


def random_test_system(rng: np.random.Generator, n: int, m: int, n_sensors: int,
                       subset_size: int) -> StateSpace:
    """Seeded random plant, controllable and observable from every
    cardinality-`subset_size` sensor subset, spectral radius <= RANDOM_RADIUS.

    Entries are uniform(-1, 1); A is rescaled when its spectral radius
    exceeds RANDOM_RADIUS and the draw is repeated until the structural
    checks pass (generic, so a handful of tries suffices).
    """
    for _ in range(RANDOM_MAX_TRIES):
        a = rng.uniform(-1.0, 1.0, (n, n))
        rho = spectral_radius(a)
        if rho > RANDOM_RADIUS:
            a *= RANDOM_RADIUS / rho
        b = rng.uniform(-1.0, 1.0, (n, m))
        c = rng.uniform(-1.0, 1.0, (n_sensors, n))
        if not is_controllable(a, b):
            continue
        ok = all(
            is_observable(a, c[list(combo), :])
            for combo in itertools.combinations(range(n_sensors), subset_size)
        )
        if ok:
            return StateSpace(a, b, c)
    raise RuntimeError(
        f"no admissible random system found in {RANDOM_MAX_TRIES} draws "
        f"(n={n}, m={m}, sensors={n_sensors}, subset={subset_size})")
