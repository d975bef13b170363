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

Certified data of every subset share one rank-(m(n+1) + n) column space,
so one basis U of it fixes every subset's predictor U[target_j]
pinv(U[regressor_j]); a learned model stores that basis and derives from
it, once, each predictor's two factors, U[target_j] and
pinv(U[regressor_j]) (_regressor_pinv), which predict applies one after
the other without forming the predictor.

Every subset's data are row selections of one all-sensor Hankel, so one QR
of it and one SVD of its factor serve every rank decision: learning and the
replay test read each subset's rank from that factor's rank-rho part, rho
being its rank above rounding level (_certificate), and learning takes the
basis from the same singular vectors.
"""

import base64
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .attacks import SensorSubset, enumerate_subsets
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


@dataclass(frozen=True)
class RankReport:
    """Rank certificate for one subset's stacked data matrix.

    observed: numerical rank of [current inputs; histories].
    required: m(n+1) + n, the exactness-certifying rank.
    rows: m(n+1) + q*n, the row count (full row rank is unattainable for
        q >= 2; see module docstring).
    """

    observed: int
    required: int
    rows: int

    @property
    def holds(self) -> bool:
        """True when the data certify: observed == required."""
        return self.observed == self.required


class LearningError(RuntimeError):
    """Raised when data does not certify an exact predictor.

    failures holds one (subset, report, reason) triple per failing subset;
    subset and report name the first of them.
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        self.subset, self.report = self.failures[0][:2]
        super().__init__("\n".join(
            f"subset {subset.indices}: {reason}" for subset, _, reason in self.failures))


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
                 ) -> tuple[np.ndarray, tuple[RankReport, ...]]:
    """(U, reports): the left singular vectors of R^T = U Sigma V^T, from one
    thin SVD of the factor, and one report per subset.

    A report counts the singular values of the subset's regressor rows
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
    Where that fails, the values are those of the rows of R^T themselves,
    as if rho were min(W, T). A zero factor has rho = 0 and every rank 0.
    """
    factor = _factor(mats)
    u, s, _ = np.linalg.svd(factor, full_matrices=False)
    rows = mats.regressor.shape[1]
    shape = (rows, mats.columns)
    level = max(mats.hankel.shape) * np.finfo(float).eps * s[0]
    rho = np.count_nonzero(s > level)
    delta = s[rho:rho + 1].sum()  # 0 where rho = min(W, T)
    sigma = _regressor_singular_values(u[:, :rho] * s[:rho], mats.regressor)
    cutoff = rank_cutoff(sigma, shape, tol)
    margin = (1.0 + tol.rank_rel * max(shape)) * (delta + level)
    if not ((np.abs(sigma - cutoff) > margin).all() and (cutoff > margin).all()):
        sigma = _regressor_singular_values(factor, mats.regressor)
        cutoff = rank_cutoff(sigma, shape, tol)
    observed = (sigma > cutoff).sum(axis=1)
    required = certifying_rank(rows - mats.target.shape[1], mats.order)
    return u, tuple(RankReport(count, required, rows) for count in observed.tolist())


def rank_condition(mats: SubsetDataMatrices,
                   tol: Tolerance = DEFAULT_TOL) -> tuple[RankReport, ...]:
    """Rank certificates of every subset's stacked data matrix, in position
    order, from one QR of the Hankel, one SVD of its factor and one batched
    SVD of the subsets' rows of that factor's rank-rho part (_certificate)."""
    return _certificate(mats, tol)[1]


def _regressor_singular_values(rows: np.ndarray, regressor: np.ndarray) -> np.ndarray:
    """Singular values of rows[regressor[j]] for every subset j, S x
    min(d + m, columns), from one batched SVD per block of subsets (blocks);
    LAPACK takes each matrix of a stack on its own, so they are the values
    one SVD of the whole S-stack gives."""
    n_subsets, width = regressor.shape
    return np.concatenate([np.linalg.svd(rows[regressor[part]], compute_uv=False)
                           for part in blocks(0, n_subsets, width * rows.shape[1] * 8)])


def _regressor_pinv(basis: np.ndarray, regressor: np.ndarray) -> np.ndarray:
    """coef[j] = pinv(U[regressor[j]]) for every subset, S x r x (d + m),
    from a W x r basis U of the all-sensor Hankel's column space and
    hankel_rows' S x (d + m) regressor rows: the factor that, with lift[j] =
    U[target[j]], makes subset j's one-step predictor lift[j] @ coef[j].

    If G = U C with C of full row rank, a U[regressor[j]] of full column
    rank gives G[target[j]] pinv(G[regressor[j]]) = U[target[j]]
    pinv(U[regressor[j]]): the minimum-norm fit of the subset's data,
    whichever basis of that column space U is. The pseudo-inverse is
    R^-1 Q^T from a batched QR of the regressor rows and a batched inverse
    of the r x r triangular factors, taken over blocks of subsets. A subset
    whose R has a diagonal entry within (d + m) eps of its largest, so that
    its rows of U are numerically rank-deficient, gets a NaN coef.
    """
    n_subsets, width = regressor.shape
    rank = basis.shape[1]
    coef = np.empty((n_subsets, rank, width))
    for part in blocks(0, n_subsets, width * rank * 8):
        q, r = np.linalg.qr(basis[regressor[part]])
        diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2))
        deficient = (diagonal.min(axis=1)
                     <= width * np.finfo(float).eps * diagonal.max(axis=1))
        r[deficient] = np.eye(rank)
        block = coef[part]
        np.matmul(np.linalg.inv(r), np.swapaxes(q, 1, 2), out=block)
        block[deficient] = np.nan
    return coef


def learn_lambda(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL
                 ) -> tuple[np.ndarray, tuple[float, ...], tuple[RankReport, ...], np.ndarray]:
    """Fit every subset's one-step predictor: (coef, residuals, reports, basis).

    Subset j's predictor lam[j] = basis[target[j]] @ coef[j] maps
    [u[k]; history[k]] of subsets[j] to history[k+1]; residuals[j] is its
    max-abs training misfit, reports[j] its certificate.

    The predictors are the minimum-norm fits of the stacked data: with the
    certifying rank they are exact on everything the plant can produce and
    unique over informative recordings. One QR of the Hankel (_factor),
    one SVD of its factor R^T and one batched SVD of every subset's rows
    of R^T's rank-rho part give the rank reports (_certificate). Data an
    n-state plant produced have rank r = m(n + 1) + n in G and in every
    certified subset's rows of it, so once every subset certifies, the
    top r left singular vectors of that same SVD are a basis of the one
    column space they share, and lam[j] = lift[j] @ coef[j] with lift =
    basis[target] and coef = _regressor_pinv(basis, regressor). The misfit
    is taken on the data themselves with predict, in column blocks of about
    BLOCK_BYTES of S-stacked regressors; no S x d x (d + m) lam is formed.
    Raises one LearningError listing every subset whose certificate fails,
    or else every subset whose training misfit exceeds the residual slack
    (or is not a number). A shared basis fits only data on which every
    subset certifies, so misfits are taken only then.
    """
    u, reports = _certificate(mats, tol)
    failures = [(subset, report,
                 f"rank certificate failed: data rank {report.observed} is "
                 f"{'above' if report.observed > report.required else 'below'} the "
                 f"certifying rank {report.required} (stacked rows: {report.rows})")
                for subset, report in zip(mats.subsets, reports) if not report.holds]
    if failures:
        raise LearningError(failures)
    n_subsets, width = mats.regressor.shape
    basis = u[:, :reports[0].required]
    coef, lift = _regressor_pinv(basis, mats.regressor), basis[mats.target]
    residuals = np.zeros(n_subsets)
    for part in blocks(0, mats.columns, n_subsets * width * 8):
        window = mats.hankel[:, part]
        misfit = predict(coef, lift, window[mats.regressor])
        np.abs(np.subtract(window[mats.target], misfit, out=misfit), out=misfit)
        np.maximum(residuals, misfit.max(axis=(1, 2)), out=residuals)
    peaks = np.maximum(mats.hankel.max(axis=1), -mats.hankel.min(axis=1))
    slacks = tol.residual * (1.0 + peaks[mats.target].max(axis=1))
    failures = [(subset, report,
                 f"data rank {report.observed} meets the certifying rank, but the training "
                 f"misfit {residual:.3g} exceeds the slack {slack:.3g}")
                for subset, report, residual, slack in zip(mats.subsets, reports, residuals,
                                                           slacks)
                if not residual <= slack]
    if failures:
        raise LearningError(failures)
    return coef, tuple(residuals.tolist()), reports, basis


def predict(coef, lift, regressor) -> np.ndarray:
    """One-step predictions lift[j] @ (coef[j] @ regressor[j]) of S
    predictors, each applied through its two factors: coef S x r x (d + m),
    lift S x d x r, and per predictor one regressor [u_k; history] of d + m
    entries (S x (d + m)) or a (d + m) x B block of them (S x (d + m) x B).
    Gives d or d x B entries per predictor. Only shapes are checked:
    DataDrivenModel derives its factors from a checked basis.
    """
    coef_arr = np.asarray(coef, dtype=float)
    lift_arr = np.asarray(lift, dtype=float)
    x = np.asarray(regressor, dtype=float)
    vector = x.ndim == 2
    block = x[..., None] if vector else x
    try:
        # matmul checks the inner dimensions; stacks must match without broadcasting
        if not (lift_arr.ndim == block.ndim == coef_arr.ndim == 3
                and lift_arr.shape[0] == block.shape[0] == coef_arr.shape[0]):
            raise ValueError
        out = lift_arr @ (coef_arr @ block)
    except ValueError:
        raise ValueError(f"predictor factors of shapes {coef_arr.shape} and {lift_arr.shape} "
                         f"cannot take a regressor of shape {x.shape}") from None
    return out[..., 0] if vector else out


@dataclass(frozen=True)
class DataDrivenModel:
    """Per-subset predictors derived from one shared data basis, plus the
    learning metadata.

    basis, W x r with W = (N + m)(n + 1) and r = m(n + 1) + n, spans the
    column space of the all-sensor Hankel the model was learned from; it
    is the model's one source of truth. subsets = enumerate_subsets(N, M),
    regressor and target are their hankel_rows, and subset j's predictor
    U[target[j]] pinv(U[regressor[j]]) is held as its two factors, both
    derived when the model is built: lift[j] = U[target[j]] (lift is S x d
    x r, d = (N - M + m) n) and coef[j] = pinv(U[regressor[j]]) (coef is S
    x r x (d + m), _regressor_pinv, or learned_coef where learning, which
    derived it from this basis already, hands it in). Position j of coef,
    lift, regressor, target, residuals and reports belongs to subsets[j]:
    its predictor's factors, Hankel rows, training misfit and rank
    certificate; no S x d x (d + m) stack of predictors is formed. A basis
    that is not a finite W x r matrix or is rank-deficient on a subset's
    regressor rows, or residuals or reports not one per subset, raise
    ValueError.
    """

    basis: np.ndarray
    residuals: tuple[float, ...]
    reports: tuple[RankReport, ...]
    n: int
    m: int
    n_sensors: int
    max_attacked: int
    columns: int
    pe_seed: Optional[int] = None
    learned_coef: InitVar[Optional[np.ndarray]] = None
    subsets: tuple[SensorSubset, ...] = field(init=False)
    regressor: np.ndarray = field(init=False, repr=False)
    target: np.ndarray = field(init=False, repr=False)
    lift: np.ndarray = field(init=False, repr=False)
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, learned_coef):
        subsets = tuple(enumerate_subsets(self.n_sensors, self.max_attacked))
        if not len(self.residuals) == len(self.reports) == len(subsets):
            raise ValueError(f"N={self.n_sensors} and M={self.max_attacked} give "
                             f"{len(subsets)} subsets, but the model holds "
                             f"{len(self.residuals)} residuals and {len(self.reports)} reports")
        shape = ((self.n_sensors + self.m) * (self.n + 1), certifying_rank(self.m, self.n))
        basis = np.ascontiguousarray(self.basis, dtype=float)
        if basis.shape != shape or not np.isfinite(basis).all():
            raise ValueError(f"basis must be a finite {shape[0]} x {shape[1]} matrix, "
                             f"got shape {basis.shape}")
        regressor, target = hankel_rows(self.n_sensors, subsets, self.n, self.m)
        coef = _regressor_pinv(basis, regressor) if learned_coef is None else learned_coef
        finite = np.isfinite(coef).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"subset id {subsets[finite.argmin()].id}: the basis "
                             "is rank-deficient on its regressor rows")
        for name, value in (("basis", basis), ("subsets", subsets), ("regressor", regressor),
                            ("target", target), ("lift", basis[target]), ("coef", coef)):
            object.__setattr__(self, name, value)


def learn_model(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                columns: int, tol: Tolerance = DEFAULT_TOL,
                pe_seed: Optional[int] = None) -> DataDrivenModel:
    """Learn predictors for every cardinality-(N - M) subset from one recording.

    One LearningError lists every subset that fails.
    """
    if traj.output_dim != n_sensors:
        raise ValueError(f"trajectory has {traj.output_dim} outputs, expected {n_sensors}")
    mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), n, columns)
    coef, residuals, reports, basis = learn_lambda(mats, tol)
    return DataDrivenModel(basis, residuals, reports, n, traj.input_dim, n_sensors,
                           max_attacked, columns, pe_seed, coef)


def save_learned_model(model: DataDrivenModel, path) -> None:
    """Write a learned model as JSON: N, M, n, m, T, pe_seed, the basis and
    the residuals, residuals[j] being the training misfit of
    enumerate_subsets(N, M)[j]. The basis is base64 of its row-major
    little-endian float64 bytes, so a load gives it back bit for bit and
    rebuilds the same predictor factors with the same numpy and BLAS."""
    payload = {
        "N": model.n_sensors,
        "M": model.max_attacked,
        "n": model.n,
        "m": model.m,
        "T": model.columns,
        "pe_seed": model.pe_seed,
        "basis": base64.b64encode(model.basis.astype("<f8").tobytes()).decode("ascii"),
        "residuals": list(model.residuals),
    }
    write_json(payload, path)


def load_learned_model(path) -> DataDrivenModel:
    """Read a learned model written by save_learned_model. A file that holds no
    JSON object, a missing or mistyped field (a string, bool or fraction
    where an integer belongs), a basis that is not base64 float64 of W x r,
    residuals that are not a list of finite non-negative numbers, a T below
    1, a file in an older layout (one with a subsets list), a model that
    breaks DataDrivenModel's conditions, or a basis with max |U^T U - I|
    above 10 W eps (checked after the rank) raise ValueError. Every saved
    subset holds the certifying rank, so the load rebuilds the reports from
    n, m, N, M."""
    payload = read_json_object(path, "model")
    try:
        if "subsets" in payload:
            raise ValueError("model file lists its subsets, an older format that is no longer "
                             "read: re-learn the model")
        n, m, n_sensors, max_attacked = (as_integer(payload[key]) for key in ("n", "m", "N", "M"))
        shape = ((n_sensors + m) * (n + 1), certifying_rank(m, n))
        try:
            basis = np.frombuffer(base64.b64decode(payload["basis"], validate=True),
                                  "<f8").reshape(shape)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model file field basis is not a {shape[0]} x {shape[1]} "
                             "matrix of base64 float64") from exc
        residuals = payload["residuals"]
        if type(residuals) is not list:
            raise ValueError(f"model file field residuals is not a list: {residuals!r}")
        bad = [(j, value) for j, value in enumerate(residuals)
               if type(value) not in (int, float) or not 0.0 <= value < math.inf]
        if bad:
            raise ValueError(f"model file field residuals[{bad[0][0]}] is {bad[0][1]!r}, not "
                             "a finite non-negative number")
        columns = as_integer(payload["T"])
        if columns < 1:
            raise ValueError(f"model file field T is {columns}; it must be at least 1")
        pe_seed = payload.get("pe_seed")
        rows = m + (n_sensors - max_attacked + m) * n
        reports = (RankReport(shape[1], shape[1], rows),) * len(residuals)
        model = DataDrivenModel(basis, tuple(map(float, residuals)), reports, n, m, n_sensors,
                                max_attacked, columns,
                                None if pe_seed is None else as_integer(pe_seed))
    except KeyError as exc:
        raise ValueError(f"model file has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a field of the wrong type: {exc}") from exc
    # learning saves left singular vectors, orthonormal to O(W eps) (Householder
    # SVD; measured at most 13 eps for W <= 77); the injection screen's c = U^T h
    # is the projection only for an orthonormal basis
    bound = 10 * shape[0] * np.finfo(float).eps
    error = np.abs(basis.T @ basis - np.eye(shape[1])).max()
    if not error <= bound:
        raise ValueError(f"model file field basis is not orthonormal: max |U^T U - I| is "
                         f"{error:.3g}, above 10 W eps = {bound:.3g}")
    return model
