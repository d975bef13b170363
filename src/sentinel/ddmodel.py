"""Learning one-step history predictors from recorded data.

For each sensor subset the learner regresses the shifted history matrix on
the stacked [current input; history] data. When the data matrix reaches
the certifying rank m(n+1) + n the minimum-norm solution reproduces the
plant exactly on every input/output sequence the plant can generate, and
it is independent of which informative recording produced it.

Note the certifying rank: the stacked matrix has m(n+1) + q*n rows, but
rows built from an n-state plant's outputs are linear combinations of the
n state rows and the input-history rows, so m(n+1) + n is the largest rank
attack-free data can attain (and does attain, given an exciting input, a
controllable plant and an observable subset). Observed rank differing from
the certifying value - in either direction - marks data the plant cannot
have produced, which is what the replay test exploits.

Certified data of every subset share one rank-(m(n + 1) + n) column space,
so one basis U of it is the whole learned model. With a trusted history
only the N newest output slots of a Hankel column h can deviate from the
plant, h = h0 + E a with h0 in span(U), so one N x W decoder K = pinv(P E),
P = I - U U^T, reads every sensor's deviation a = K h (the parity-space
residual of Chow & Willsky 1984); predict applies it. Subset j's one-step
predictor U[target_j] pinv(U[regressor_j]) is never formed.

Every subset's data are row selections of one all-sensor Hankel, so one QR
of it and one SVD of its factor serve every rank decision: learning and the
replay test read each subset's rank from that factor's rank-rho part, rho
being its rank above rounding level (_certificate), and learning takes the
basis from the same singular vectors. Where rho is the certifying rank, the
N single-sensor row sets of that part settle first every subset holding a
sensor that certifies alone (adding rows lowers no singular value), so a
generic learn takes N small SVDs instead of one per subset.
"""

import base64
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import enumerate_subsets
from .datamat import (
    SubsetDataMatrices,
    Trajectory,
    blocks,
    build_subset_matrices,
    hankel_rows,
    read_json_object,
    write_json,
)
from .linalg import DEFAULT_TOL, Tolerance, as_integer, rank_cutoff


class LearningError(RuntimeError):
    """Raised when data does not certify an exact predictor.

    failures holds one (subset, rank, reason) triple per failing subset,
    rank being its observed data rank; subset and rank name the first of them.
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.subset, self.rank = self.failures[0][:2]
        super().__init__("\n".join(
            f"subset {subset}: {reason}" for subset, _, reason in self.failures))


class _BasisError(ValueError):
    """A basis no model can hold; a load names it as the model file's field."""


def certifying_rank(m: int, n: int) -> int:
    """Largest rank attack-free data can attain: m(n+1) + n."""
    return m * (n + 1) + n


def _factor(mats: SubsetDataMatrices) -> np.ndarray:
    """R^T of one QR mats.hankel = R^T Q^T, W x k with k = min(W, T).

    Q^T has orthonormal rows, so a row selection A G of the Hankel has the
    singular values of A R^T, and G and R^T share their column space.
    """
    return np.linalg.qr(mats.hankel.T, mode="r").T


def _certificate(mats: SubsetDataMatrices, tol: Tolerance
                 ) -> tuple[np.ndarray, tuple[int, ...]]:
    """(U, ranks): the left singular vectors of R^T = U Sigma V^T, from one
    thin SVD of the factor, and every subset's observed rank, in position order.

    A rank counts the singular values of the subset's regressor rows
    A_j R^T above rank_cutoff of the data matrix's shape, (d + m) x T. They
    are read from the (d + m) x rho matrix (U_rho Sigma_rho)[regressor_j],
    rho being the number of sigma_i(R^T) above the rounding level
    l = max(W, T) eps sigma_1: A_j U_rho Sigma_rho V_rho^T has its singular
    values plus zeros, and differs from A_j R^T by A_j times the tail of
    R^T, of spectral norm at most delta = sigma_{rho+1}(R^T) <= l. By Weyl's
    inequality each subset singular value, the zeros past rho included,
    moves by at most delta, and so the cutoff tau sigma_max, with
    tau = rank_rel max(d + m, T), by at most tau delta. With l added for
    the rounding that separates the two computations, no count can change
    if every computed value s and cutoff c satisfy
    |s - c| > (1 + tau)(delta + l), and c does too, for the zeros past rho.

    Where rho is the certifying rank r, one batched SVD of the N r x rho
    single-sensor row sets (U_rho Sigma_rho)[hankel_rows of (i,)] settles
    most subsets first. A subset's rows hold those of each of its sensors,
    and adding rows lowers no singular value (interlacing), while no
    subset's sigma_max exceeds sigma_1(R^T). So where sensor i's sigma_r
    exceeds tau sigma_1(R^T) plus the margin and its own cutoff
    tau sigma_1 exceeds the margin, every subset holding sensor i passes
    the check above with its r values, all it has on rho = r columns: its
    rank is r. Only the subsets holding no such sensor, and every subset
    where rho != r, take the batched SVD of their own rows and the check.
    Where the check fails, their values are those of the rows of R^T
    themselves, as if rho were min(W, T). A zero factor has rho = 0 and
    every rank 0.
    """
    factor = _factor(mats)
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    shape = (mats.regressor.shape[1], mats.hankel.shape[1])
    level = max(mats.hankel.shape) * np.finfo(float).eps * s[0]
    rho = np.count_nonzero(s > level)
    delta = s[rho:rho + 1].sum()  # 0 where rho = min(W, T)
    margin = (1.0 + tol.rank_rel * max(shape)) * (delta + level)
    rows = u[:, :rho] * s[:rho]
    ranks = np.full(len(mats.subsets), rho)  # a covered subset's rank, r = rho
    uncovered = np.arange(len(mats.subsets))
    n, m = mats.order, mats.input_dim
    if rho == certifying_rank(m, n):
        n_sensors = mats.hankel.shape[0] // (n + 1) - m
        single = _regressor_singular_values(
            rows, hankel_rows(n_sensors, np.arange(1, n_sensors + 1)[:, None], n, m))
        certified = ((single[:, -1] > rank_cutoff(s, shape, tol) + margin)
                     & (rank_cutoff(single, shape, tol)[:, 0] > margin))
        uncovered = np.flatnonzero(~certified[np.array(mats.subsets) - 1].any(axis=1))
    if uncovered.size:
        regressor = mats.regressor[uncovered]
        sigma = _regressor_singular_values(rows, regressor)
        cutoff = rank_cutoff(sigma, shape, tol)
        if not ((np.abs(sigma - cutoff) > margin).all() and (cutoff > margin).all()):
            sigma = _regressor_singular_values(factor, regressor)
            cutoff = rank_cutoff(sigma, shape, tol)
        ranks[uncovered] = (sigma > cutoff).sum(axis=1)
    return u, tuple(ranks.tolist())


def rank_condition(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Observed rank of every subset's stacked data matrix, as ints in
    position order, from one QR of the Hankel, one SVD of its factor and
    batched SVDs of row sets of that factor's rank-rho part: the sensors'
    own where rho is the certifying rank, then the subsets' that no
    certified sensor covers (_certificate). A subset certifies when its rank
    is certifying_rank(m, n)."""
    return _certificate(mats, tol)[1]


def _regressor_singular_values(rows: np.ndarray, regressor: np.ndarray) -> np.ndarray:
    """Singular values of rows[regressor[j]] for every row set j (a subset's
    or a sensor's), S x min(width, columns), from one batched SVD per block
    of row sets (blocks); LAPACK takes each matrix of a stack on its own, so
    they are the values one SVD of the whole S-stack gives."""
    n_subsets, width = regressor.shape
    return np.concatenate([np.linalg.svd(rows[regressor[part]], compute_uv=False)
                           for part in blocks(0, n_subsets, width * rows.shape[1] * 8)])


def _decoder(basis: np.ndarray, n_sensors: int, n: int) -> np.ndarray:
    """K = pinv(P E), N x W, for an orthonormal W x r basis U of a
    depth-(n + 1) all-sensor Hankel's column space: P = I - U U^T, and E
    holds the identity's columns at the newest output rows N n .. N(n + 1) - 1
    (trajectory_hankel's layout). K h is the deviation of h's newest outputs
    from the plant when h's history and inputs are the plant's. A basis with
    sigma_min(P E) at most W eps, at rounding level (||P E|| <= 1), leaves
    those outputs undetermined and raises ValueError."""
    newest = slice(n_sensors * n, n_sensors * (n + 1))
    complement = basis @ -basis[newest].T
    complement[newest] += np.eye(n_sensors)
    left, sigma, right = np.linalg.svd(complement, full_matrices=False)
    bound = basis.shape[0] * np.finfo(float).eps
    if not sigma[-1] > bound:
        raise _BasisError(f"basis leaves the newest outputs undetermined: sigma_min(P E) is "
                          f"{sigma[-1]:.3g}, at most W eps = {bound:.3g}")
    decoder = (right.T / sigma) @ left.T
    # the left singular vectors leave rounding along span(U), which 1 / sigma
    # amplifies; K = pinv(P E) P, applied once more, takes it out
    return decoder - (decoder @ basis) @ basis.T


def learn_lambda(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Certify every subset and return the model's basis.

    One QR of the Hankel (_factor), one SVD of its factor R^T and batched
    SVDs of rows of R^T's rank-rho part give every subset's rank
    (_certificate): where rho is the certifying rank r = m(n + 1) + n, one
    SVD of the N single-sensor r x r row sets settles every subset holding a
    sensor that certifies alone, and only the others, or every subset where
    rho != r, take an SVD of their own rows. Data an n-state plant produced
    have rank r in G and in every certified subset's rows of it, so once
    every subset certifies, the top r left singular vectors of that same
    SVD are a basis of the one column space they share; subset j's
    predictor, the basis' rows of its next history times
    pinv(basis[regressor[j]]), is the minimum-norm fit of its data, exact
    on everything the plant can produce. Raises one LearningError listing
    every subset whose certificate fails; learn_model checks the fit.
    """
    u, ranks = _certificate(mats, tol)
    required = certifying_rank(mats.input_dim, mats.order)
    failures = [(subset, rank,
                 f"rank certificate failed: data rank {rank} is "
                 f"{'above' if rank > required else 'below'} the certifying rank {required} "
                 f"(stacked rows: {mats.regressor.shape[1]})")
                for subset, rank in zip(mats.subsets, ranks) if rank != required]
    if failures:
        raise LearningError(failures)
    return u[:, :required]


def predict(decoder, column) -> np.ndarray:
    """Every sensor's deviation a = K h from the plant: decoder K is N x W,
    column h one Hankel column (W entries, gives N) or a W x B block of them
    (gives N x B). Only shapes are checked: DataDrivenModel derives K from a
    checked basis.
    """
    k_arr = np.asarray(decoder, dtype=float)
    h_arr = np.asarray(column, dtype=float)
    if k_arr.ndim != 2 or h_arr.ndim not in (1, 2) or h_arr.shape[0] != k_arr.shape[1]:
        raise ValueError(f"a decoder of shape {k_arr.shape} cannot take a column of shape "
                         f"{h_arr.shape}")
    return k_arr @ h_arr


@dataclass(frozen=True)
class DataDrivenModel:
    """A learned model: one data basis and the model's shape (N, M, n, m, T,
    pe_seed); nothing per subset is learned or saved.

    basis, W x r with W = (N + m)(n + 1) and r = m(n + 1) + n, is an
    orthonormal basis of the column space of the all-sensor Hankel the
    model was learned from; it is the model's one source of truth. subsets
    = enumerate_subsets(N, M), their read-only S x N membership matrix
    members (1 where subset j holds sensor i + 1, else 0) and decoder =
    _decoder(basis, N, n), N x W, are derived when the model is built. A
    basis that is not a finite W x r matrix, is not orthonormal (max
    |U^T U - I| above 10 W eps; learning saves singular vectors, measured
    at most 13 eps for W <= 77) or leaves the newest outputs undetermined
    (_decoder) raises ValueError: the decoder is a projection only for an
    orthonormal basis.
    """

    basis: np.ndarray
    n: int
    m: int
    n_sensors: int
    max_attacked: int
    columns: int
    pe_seed: Optional[int] = None
    subsets: tuple[tuple[int, ...], ...] = field(init=False)
    members: np.ndarray = field(init=False, repr=False)
    decoder: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        subsets = enumerate_subsets(self.n_sensors, self.max_attacked)
        shape = ((self.n_sensors + self.m) * (self.n + 1), certifying_rank(self.m, self.n))
        basis = np.ascontiguousarray(self.basis, dtype=float)
        if basis.shape != shape or not np.isfinite(basis).all():
            raise _BasisError(f"basis must be a finite {shape[0]} x {shape[1]} matrix, "
                              f"got shape {basis.shape}")
        bound = 10 * shape[0] * np.finfo(float).eps
        error = np.abs(basis.T @ basis - np.eye(shape[1])).max()
        if not error <= bound:
            raise _BasisError(f"basis is not orthonormal: max |U^T U - I| is {error:.3g}, "
                              f"above 10 W eps = {bound:.3g}")
        sensors = np.array(subsets) - 1
        members = np.zeros((len(subsets), self.n_sensors))
        np.put_along_axis(members, sensors, 1.0, axis=1)
        members.flags.writeable = False
        for name, value in (("basis", basis), ("subsets", subsets), ("members", members),
                            ("decoder", _decoder(basis, self.n_sensors, self.n))):
            object.__setattr__(self, name, value)

    def slacks(self, columns: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Every sensor's slack s_i = tol.residual (1 + ||its samples at times
        1 .. n||) in one Hankel column (gives N) or in each of a W x B block
        (gives N x B): a decode |a_i| above s_i names sensor i."""
        n_sensors = self.n_sensors
        recent = columns[n_sensors:n_sensors * (self.n + 1)].reshape(
            self.n, n_sensors, *columns.shape[1:])
        return tol.residual + tol.residual * np.sqrt((recent * recent).sum(axis=0))


def learn_model(traj: Trajectory, max_attacked: int, n: int, columns: int,
                tol: Tolerance = DEFAULT_TOL, pe_seed: Optional[int] = None) -> DataDrivenModel:
    """Learn the model of every cardinality-(N - M) subset from one
    recording, N its output count.

    learn_lambda certifies every subset and gives the basis, from which the
    model derives its decoder K once. The model is kept only if at every
    training column h each sensor's decode |(K h)_i| stays within that
    column's slack s_i (DataDrivenModel.slacks), the rule by which the
    monitor names a sensor; the columns are decoded in blocks of about
    BLOCK_BYTES. One LearningError lists every subset that fails: its
    certificate, or else a sensor it holds whose largest |(K h)_i| / s_i
    exceeds 1 or is not a number.
    """
    mats = build_subset_matrices(traj, enumerate_subsets(traj.output_dim, max_attacked), n,
                                 columns)
    basis = learn_lambda(mats, tol)
    model = DataDrivenModel(basis, n, traj.input_dim, traj.output_dim, max_attacked, columns,
                            pe_seed)
    ratios = np.zeros(model.n_sensors)
    for part in blocks(0, columns, mats.hankel.shape[0] * 8):
        window = mats.hankel[:, part]
        ratio = np.abs(model.decoder @ window) / model.slacks(window, tol)
        np.maximum(ratios, ratio.max(axis=1), out=ratios)
    if (ratios <= 1.0).all():  # not so for a NaN ratio, which fails like one above 1
        return model
    rank = basis.shape[1]
    failures = []
    for subset in model.subsets:
        sensor = next((i for i in subset if not ratios[i - 1] <= 1.0), None)
        if sensor is not None:
            failures.append((subset, rank,
                             f"data rank {rank} meets the certifying rank, but the "
                             f"training misfit of sensor {sensor} reaches "
                             f"{ratios[sensor - 1]:.3g} times its slack"))
    raise LearningError(failures)  # every sensor is in some subset, so failures is not empty


def save_learned_model(model: DataDrivenModel, path) -> None:
    """Write a learned model as JSON: N, M, n, m, T, pe_seed and the basis, as
    base64 of its row-major little-endian float64 bytes, so a load gives it
    back bit for bit and rebuilds the same decoder with the same numpy and BLAS."""
    payload = {
        "N": model.n_sensors,
        "M": model.max_attacked,
        "n": model.n,
        "m": model.m,
        "T": model.columns,
        "pe_seed": model.pe_seed,
        "basis": base64.b64encode(model.basis.astype("<f8").tobytes()).decode("ascii"),
    }
    write_json(payload, path)


def load_learned_model(path) -> DataDrivenModel:
    """Read a learned model written by save_learned_model; other keys, such
    as the residuals list earlier files hold, are ignored. A file that holds
    no JSON object, a missing or mistyped field (a string, bool or fraction
    where an integer belongs), an n, m or T below 1, a basis that is not
    base64 float64 of W x r, a file in an older layout (one with a subsets
    list), or a model that breaks DataDrivenModel's conditions raise
    ValueError; a basis DataDrivenModel rejects is named as the file's field
    ("model file field basis is not orthonormal: ...")."""
    payload = read_json_object(path, "model")
    try:
        if "subsets" in payload:
            raise ValueError("model file lists its subsets, an older format that is no longer "
                             "read: re-learn the model")
        n, m, n_sensors, max_attacked, columns = (as_integer(payload[key])
                                                  for key in ("n", "m", "N", "M", "T"))
        for key, value in (("n", n), ("m", m), ("T", columns)):
            if value < 1:
                raise ValueError(f"model file field {key} is {value}; it must be at least 1")
        shape = ((n_sensors + m) * (n + 1), certifying_rank(m, n))
        try:
            basis = np.frombuffer(base64.b64decode(payload["basis"], validate=True),
                                  "<f8").reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model file field basis is not a {shape[0]} x {shape[1]} "
                             "matrix of base64 float64") from exc
        pe_seed = payload.get("pe_seed")
        model = DataDrivenModel(basis, n, m, n_sensors, max_attacked, columns,
                                None if pe_seed is None else as_integer(pe_seed))
    except KeyError as exc:
        raise ValueError(f"model file has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a field of the wrong type: {exc}") from exc
    except _BasisError as exc:
        raise ValueError(f"model file field {exc}") from exc
    return model
