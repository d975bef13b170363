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
so one basis of it fixes every subset's predictor (predictors); a learned
model stores that basis and derives its predictors from it.
"""

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import SensorSubset, enumerate_subsets
from .datamat import (
    BLOCK_BYTES,
    SubsetDataMatrices,
    Trajectory,
    build_subset_matrices,
    hankel_rows,
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
    holds: observed == required.
    """

    observed: int
    required: int
    rows: int
    holds: bool


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


def _certificate(mats: SubsetDataMatrices, factor: np.ndarray,
                 tol: Tolerance) -> tuple[RankReport, ...]:
    """One report per subset from the singular values alone of its regressor
    rows of the factor, cut at rank_cutoff of the data matrix's shape,
    (d + m) x T."""
    sigma = np.linalg.svd(factor[mats.regressor], compute_uv=False)
    rows = mats.regressor.shape[1]
    observed = (sigma > rank_cutoff(sigma, (rows, mats.columns), tol)).sum(axis=1)
    required = certifying_rank(rows - mats.target.shape[1], mats.order)
    return tuple(RankReport(count, required, rows, count == required)
                 for count in observed.tolist())


def rank_condition(mats: SubsetDataMatrices,
                   tol: Tolerance = DEFAULT_TOL) -> tuple[RankReport, ...]:
    """Rank certificates of every subset's stacked data matrix, in position
    order, from one QR of the Hankel and one batched SVD of the small factors."""
    return _certificate(mats, _factor(mats), tol)


def predictors(basis: np.ndarray, regressor: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Every subset's one-step predictor U[target[j]] pinv(U[regressor[j]]),
    S x d x (d + m), from a W x r basis U of the all-sensor Hankel's column
    space and hankel_rows' S x (d + m) regressor and S x d target rows.

    If G = U C with C of full row rank, a U[regressor[j]] of full column
    rank gives G[target[j]] pinv(G[regressor[j]]) = U[target[j]]
    pinv(U[regressor[j]]): the minimum-norm fit of the subset's data,
    whichever basis of that column space U is. The pseudo-inverse is
    R^-1 Q^T from one batched QR of the regressor rows and one batched
    inverse of the r x r triangular factors. A subset whose R has a
    diagonal entry within (d + m) eps of its largest, so that its rows of
    U are numerically rank-deficient, gets a NaN predictor.
    """
    q, r = np.linalg.qr(basis[regressor])
    diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = (diagonal.min(axis=1)
                 <= regressor.shape[1] * np.finfo(float).eps * diagonal.max(axis=1))
    r[deficient] = np.eye(r.shape[1])
    lam = basis[target] @ np.linalg.inv(r) @ np.swapaxes(q, 1, 2)
    lam[deficient] = np.nan
    return lam


def learn_lambda(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL
                 ) -> tuple[np.ndarray, tuple[float, ...], tuple[RankReport, ...], np.ndarray]:
    """Fit every subset's one-step predictor: (lam, residuals, reports, basis).

    lam[j] maps [u[k]; history[k]] of subsets[j] to history[k+1];
    residuals[j] is its max-abs training misfit, reports[j] its certificate.

    The predictors are the minimum-norm fits of the stacked data: with the
    certifying rank they are exact on everything the plant can produce and
    unique over informative recordings. One QR of the Hankel (_factor) and
    the singular values of every subset's rows of R^T give the rank
    reports. Data an n-state plant produced have rank r = m(n + 1) + n in
    G and in every certified subset's rows of it, so once every subset
    certifies, the top r left singular vectors of R^T are a basis of the
    one column space they share, and predictors(basis, ...) gives every
    lam[j]. The misfit is taken on the data themselves, in column blocks
    of about BLOCK_BYTES of S-stacked regressors.
    Raises one LearningError listing every subset whose certificate fails,
    or else every subset whose training misfit exceeds the residual slack
    (or is not a number). A shared basis fits only data on which every
    subset certifies, so misfits are taken only then.
    """
    factor = _factor(mats)
    reports = _certificate(mats, factor, tol)
    failures = [(subset, report,
                 f"rank certificate failed: data rank {report.observed} is "
                 f"{'above' if report.observed > report.required else 'below'} the "
                 f"certifying rank {report.required} (stacked rows: {report.rows})")
                for subset, report in zip(mats.subsets, reports) if not report.holds]
    if failures:
        raise LearningError(failures)
    n_subsets, width = mats.regressor.shape
    basis = np.linalg.svd(factor, full_matrices=False)[0][:, :reports[0].required]
    lam = predictors(basis, mats.regressor, mats.target)
    residuals = np.zeros(n_subsets)
    block = max(1, BLOCK_BYTES // (n_subsets * width * 8))
    for start in range(0, mats.columns, block):
        window = mats.hankel[:, start: start + block]
        misfit = lam @ window[mats.regressor]
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
    return lam, tuple(residuals.tolist()), reports, basis


def predict(lam, regressor) -> np.ndarray:
    """One-step prediction lam @ regressor for one predictor (d x (d+m)) and
    regressor [u_k; history] (d + m), or a stack of S of each. Only shapes
    are checked: DataDrivenModel derives its lambdas from a checked basis.
    """
    lam_arr = np.asarray(lam, dtype=float)
    x = np.asarray(regressor, dtype=float)
    if lam_arr.ndim < 2 or lam_arr.shape[:-2] + lam_arr.shape[-1:] != x.shape:
        raise ValueError(f"predictor of shape {lam_arr.shape} cannot take a regressor "
                         f"of shape {x.shape}")
    return np.matmul(lam_arr, x[..., None])[..., 0]


@dataclass(frozen=True)
class DataDrivenModel:
    """Per-subset predictors derived from one shared data basis, plus the
    learning metadata.

    basis, W x r with W = (N + m)(n + 1) and r = m(n + 1) + n, spans the
    column space of the all-sensor Hankel the model was learned from; it
    is the model's one source of truth. subsets = enumerate_subsets(N, M),
    regressor and target are their hankel_rows, and lam (S x d x (d + m),
    d = (N - M + m) n) is derived from the basis on first use (a learned
    model starts with the lam its learning derived). Position j of lam,
    regressor, target, residuals and reports belongs to subsets[j]: its
    predictor, Hankel rows, training misfit and rank certificate. A basis
    that is not a finite W x r matrix, or residuals or reports not one per
    subset, raise ValueError.
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
    subsets: tuple[SensorSubset, ...] = field(init=False)
    regressor: np.ndarray = field(init=False, repr=False)
    target: np.ndarray = field(init=False, repr=False)
    # lam's store: a field, not a functools.cached_property, whose write into
    # the instance __dict__ slows every attribute read of a monitor step
    _lam: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self):
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
        for name, value in (("basis", basis), ("subsets", subsets), ("regressor", regressor),
                            ("target", target)):
            object.__setattr__(self, name, value)

    @property
    def lam(self) -> np.ndarray:
        """predictors(basis, regressor, target), derived on first use. A basis
        that is rank-deficient on a subset's regressor rows raises ValueError
        naming the first such subset."""
        if self._lam is None:
            lam = predictors(self.basis, self.regressor, self.target)
            finite = np.isfinite(lam).all(axis=(1, 2))
            if not finite.all():
                raise ValueError(f"subset id {self.subsets[finite.argmin()].id}: the basis "
                                 "is rank-deficient on its regressor rows")
            object.__setattr__(self, "_lam", lam)
        return self._lam


def learn_model(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                columns: int, tol: Tolerance = DEFAULT_TOL,
                pe_seed: Optional[int] = None) -> DataDrivenModel:
    """Learn predictors for every cardinality-(N - M) subset from one recording.

    One LearningError lists every subset that fails.
    """
    if traj.output_dim != n_sensors:
        raise ValueError(f"trajectory has {traj.output_dim} outputs, expected {n_sensors}")
    mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), n, columns)
    lam, residuals, reports, basis = learn_lambda(mats, tol)
    model = DataDrivenModel(basis, residuals, reports, n, traj.input_dim, n_sensors,
                            max_attacked, columns, pe_seed)
    # learn_lambda's lam is predictors of this basis and these rows, the value
    # model.lam would derive on first use
    object.__setattr__(model, "_lam", lam)
    return model


def save_learned_model(model: DataDrivenModel, path) -> None:
    """Write a learned model as JSON: N, M, n, m, T, pe_seed, the basis and
    the residuals, residuals[j] being the training misfit of
    enumerate_subsets(N, M)[j]. The basis is base64 of its row-major
    little-endian float64 bytes, so a load gives it back bit for bit and
    rebuilds the same predictors with the same numpy and BLAS."""
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
    """Read a learned model written by save_learned_model. A missing or
    mistyped field (a string, bool or fraction where an integer belongs),
    a basis that is not base64 float64 of W x r, residuals that are not a
    list of finite non-negative numbers, a T below 1, a file in an older
    layout (one with a subsets list), a model that breaks
    DataDrivenModel's conditions, or a basis with max |U^T U - I| above
    10 W eps (checked after the rank) raise ValueError. Every saved subset
    holds the certifying rank, so the load rebuilds the reports from n, m,
    N, M."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
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
        reports = (RankReport(shape[1], shape[1], rows, True),) * len(residuals)
        model = DataDrivenModel(basis, tuple(map(float, residuals)), reports, n, m, n_sensors,
                                max_attacked, columns,
                                None if pe_seed is None else as_integer(pe_seed))
    except KeyError as exc:
        raise ValueError(f"model file has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a field of the wrong type: {exc}") from exc
    model.lam  # derived now, so a basis rank-deficient on some subset fails the load
    # learning saves left singular vectors, orthonormal to O(W eps) (Householder
    # SVD; measured at most 13 eps for W <= 77); the injection screen's c = U^T h
    # is the projection only for an orthonormal basis
    bound = 10 * shape[0] * np.finfo(float).eps
    error = np.abs(basis.T @ basis - np.eye(shape[1])).max()
    if not error <= bound:
        raise ValueError(f"model file field basis is not orthonormal: max |U^T U - I| is "
                         f"{error:.3g}, above 10 W eps = {bound:.3g}")
    return model
