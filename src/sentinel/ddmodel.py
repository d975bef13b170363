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
"""

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import SensorSubset, enumerate_subsets
from .datamat import BLOCK_BYTES, SubsetDataMatrices, Trajectory, build_subset_matrices, write_json
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


def _reduced(mats: SubsetDataMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Every subset's regressor and target rows of R^T, S x (d + m) x k and
    S x d x k, from one QR mats.hankel = R^T Q^T, k = min(W, T).

    Q^T has orthonormal rows, so a row selection A G of the Hankel has the
    singular values of A R^T, and B G pinv(A G) = (B R^T) pinv(A R^T).
    """
    factor = np.linalg.qr(mats.hankel.T, mode="r").T
    return factor[mats.regressor], factor[mats.target]


def _certificate(mats: SubsetDataMatrices, sigma: np.ndarray,
                 tol: Tolerance) -> tuple[np.ndarray, tuple[RankReport, ...]]:
    """Mask of the singular values above rank_cutoff and one report per row
    of sigma; the cutoff takes the data matrix's shape, (d + m) x T."""
    rows = mats.regressor.shape[1]
    large = sigma > rank_cutoff(sigma, (rows, mats.columns), tol)
    required = certifying_rank(rows - mats.target.shape[1], mats.order)
    return large, tuple(RankReport(int(observed), required, rows, int(observed) == required)
                        for observed in large.sum(axis=1))


def rank_condition(mats: SubsetDataMatrices,
                   tol: Tolerance = DEFAULT_TOL) -> tuple[RankReport, ...]:
    """Rank certificates of every subset's stacked data matrix, in position
    order, from one QR of the Hankel and one batched SVD of the small factors."""
    return _certificate(mats, np.linalg.svd(_reduced(mats)[0], compute_uv=False), tol)[1]


def learn_lambda(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL
                 ) -> tuple[np.ndarray, tuple[float, ...], tuple[RankReport, ...]]:
    """Fit every subset's one-step predictor: (lam, residuals, reports).

    lam[j] maps [u[k]; history[k]] of subsets[j] to history[k+1];
    residuals[j] is its max-abs training misfit, reports[j] its certificate.

    Uses the Moore-Penrose pseudo-inverse of the stacked data: with the
    certifying rank this is exact on everything the plant can produce and
    unique over informative recordings. One QR of the Hankel and one
    batched SVD of the small factors (_reduced) give both the rank reports
    and lam[j] = (B R^T) pinv(A R^T), the pseudo-inverse built as
    np.linalg.pinv builds it but cut at the data matrix's rank_cutoff. The
    misfit is taken on the data themselves, in column blocks of about
    BLOCK_BYTES of S-stacked regressors.
    Raises one LearningError listing every subset whose certificate fails
    or whose training misfit exceeds the residual slack.
    """
    n_subsets, width = mats.regressor.shape
    stacked, target = _reduced(mats)
    u, sigma, vt = np.linalg.svd(stacked, full_matrices=False)
    large, reports = _certificate(mats, sigma, tol)
    inverse = np.divide(1, sigma, where=large, out=sigma)
    inverse[~large] = 0
    lam = target @ (np.swapaxes(vt, 1, 2) @ (inverse[..., None] * np.swapaxes(u, 1, 2)))
    residuals = np.zeros(n_subsets)
    block = max(1, BLOCK_BYTES // (n_subsets * width * 8))
    for start in range(0, mats.columns, block):
        window = mats.hankel[:, start: start + block]
        misfit = lam @ window[mats.regressor]
        np.abs(np.subtract(window[mats.target], misfit, out=misfit), out=misfit)
        np.maximum(residuals, misfit.max(axis=(1, 2)), out=residuals)
    peaks = np.maximum(mats.hankel.max(axis=1), -mats.hankel.min(axis=1))
    slacks = tol.residual * (1.0 + peaks[mats.target].max(axis=1))
    failures = []
    for subset, report, residual, slack in zip(mats.subsets, reports, residuals, slacks):
        if not report.holds:
            side = "above" if report.observed > report.required else "below"
            failures.append((subset, report,
                             f"rank certificate failed: data rank {report.observed} is "
                             f"{side} the certifying rank {report.required} "
                             f"(stacked rows: {report.rows})"))
        elif residual > slack:
            failures.append((subset, report,
                             f"data rank {report.observed} meets the certifying rank, "
                             f"but the training misfit {residual:.3g} exceeds the "
                             f"slack {slack:.3g}"))
    if failures:
        raise LearningError(failures)
    return lam, tuple(residuals.tolist()), tuple(reports)


def predict(lam, regressor) -> np.ndarray:
    """One-step prediction lam @ regressor for one predictor (d x (d+m)) and
    regressor [u_k; history] (d + m), or a stack of S of each. Only shapes
    are checked: DataDrivenModel checks its lambdas once, when it is built.
    """
    lam_arr = np.asarray(lam, dtype=float)
    x = np.asarray(regressor, dtype=float)
    if lam_arr.ndim < 2 or lam_arr.shape[:-2] + lam_arr.shape[-1:] != x.shape:
        raise ValueError(f"predictor of shape {lam_arr.shape} cannot take a regressor "
                         f"of shape {x.shape}")
    return np.matmul(lam_arr, x[..., None])[..., 0]


@dataclass(frozen=True)
class DataDrivenModel:
    """Stacked per-subset predictors plus the learning metadata.

    Position j of lam (S x d x (d + m), d = (N - M + m) n; given as one
    stack or S matrices), residuals and reports belongs to subsets[j] =
    enumerate_subsets(N, M)[j]: its predictor, training misfit and rank
    certificate. A wrong subset count, residuals or reports not aligned
    with lam, or a lambda that is not a finite d x (d + m) matrix raise
    ValueError, the last naming the first subset that breaks it.
    """

    lam: np.ndarray
    residuals: tuple[float, ...]
    reports: tuple[RankReport, ...]
    n: int
    m: int
    n_sensors: int
    max_attacked: int
    columns: int
    pe_seed: Optional[int] = None
    subsets: tuple[SensorSubset, ...] = field(init=False)

    def __post_init__(self):
        subsets = tuple(enumerate_subsets(self.n_sensors, self.max_attacked))
        if len(self.lam) != len(subsets):
            raise ValueError(f"model holds {len(self.lam)} subsets, N={self.n_sensors} "
                             f"and M={self.max_attacked} give {len(subsets)}")
        if not len(self.residuals) == len(self.reports) == len(subsets):
            raise ValueError(f"model holds {len(subsets)} predictors but "
                             f"{len(self.residuals)} residuals and {len(self.reports)} reports")
        d = (self.n_sensors - self.max_attacked + self.m) * self.n
        for subset, lam in zip(subsets, self.lam):
            if np.shape(lam) != (d, d + self.m) or not np.isfinite(lam).all():
                raise ValueError(f"subset id {subset.id}: lambda must be a finite "
                                 f"{d} x {d + self.m} matrix")
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "subsets", subsets)


def learn_model(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                columns: int, tol: Tolerance = DEFAULT_TOL,
                pe_seed: Optional[int] = None) -> DataDrivenModel:
    """Learn predictors for every cardinality-(N - M) subset from one recording.

    One LearningError lists every subset that fails.
    """
    if traj.output_dim != n_sensors:
        raise ValueError(f"trajectory has {traj.output_dim} outputs, expected {n_sensors}")
    mats = build_subset_matrices(traj, enumerate_subsets(n_sensors, max_attacked), n, columns)
    lam, residuals, reports = learn_lambda(mats, tol)
    return DataDrivenModel(lam, residuals, reports, n, traj.input_dim, n_sensors,
                           max_attacked, columns, pe_seed)


def save_learned_model(model: DataDrivenModel, path) -> None:
    """Write a learned model as JSON; each lambda is base64 of its row-major
    little-endian float64 bytes, so a load gives it back bit for bit."""
    payload = {
        "N": model.n_sensors,
        "M": model.max_attacked,
        "n": model.n,
        "m": model.m,
        "T": model.columns,
        "pe_seed": model.pe_seed,
        "subsets": [
            {
                "id": subset.id,
                "indices": list(subset.indices),
                "lambda": base64.b64encode(lam.astype("<f8").tobytes()).decode("ascii"),
                "rank": report.observed,
                "residual": residual,
            }
            for subset, lam, residual, report in zip(model.subsets, model.lam,
                                                     model.residuals, model.reports)
        ],
    }
    write_json(payload, path)


def load_learned_model(path) -> DataDrivenModel:
    """Read a learned model written by save_learned_model. A missing or
    mistyped field (a bool or fraction where an integer belongs, indices
    that are not a list), a lambda that is not base64 float64 of d rows, a
    rank other than the certifying one (every saved subset holds it), a
    residual that is not a finite non-negative number, a T below 1, subsets
    other than enumerate_subsets(N, M) in order, or a model that breaks
    DataDrivenModel's conditions raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        n, m, n_sensors, max_attacked = (as_integer(payload[key]) for key in ("n", "m", "N", "M"))
        d, required = (n_sensors - max_attacked + m) * n, certifying_rank(m, n)
        listed, lams, residuals = [], [], []
        for entry in payload["subsets"]:
            indices, residual = entry["indices"], entry["residual"]
            if type(indices) is not list or type(residual) not in (int, float):
                raise ValueError(f"subset id {entry['id']}: indices must be a list and residual "
                                 f"a number, got {indices!r} and {residual!r}")
            subset = SensorSubset(as_integer(entry["id"]), tuple(as_integer(i) for i in indices))
            try:
                lams.append(np.frombuffer(base64.b64decode(entry["lambda"], validate=True),
                                          "<f8").reshape(d, -1))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"subset id {subset.id}: lambda is not a matrix; it must be a "
                                 "base64 float64 string (re-learn decimal-format models)") from exc
            if type(entry["rank"]) is not int or entry["rank"] != required:
                raise ValueError(f"subset id {subset.id}: stored rank {entry['rank']!r} is "
                                 f"not the certifying rank {required}")
            if not 0.0 <= residual < math.inf:
                raise ValueError(f"subset id {subset.id}: stored residual {residual!r} "
                                 "is not a finite non-negative number")
            listed.append(subset)
            residuals.append(float(residual))
        columns = as_integer(payload["T"])
        if columns < 1:
            raise ValueError(f"model file field T is {columns}; it must be at least 1")
        pe_seed = payload.get("pe_seed")
        reports = (RankReport(required, required, m + d, True),) * len(lams)
        model = DataDrivenModel(lams, tuple(residuals), reports, n, m, n_sensors,
                                max_attacked, columns,
                                None if pe_seed is None else as_integer(pe_seed))
    except KeyError as exc:
        raise ValueError(f"model file has no field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"model file has a field of the wrong type: {exc}") from exc
    for subset, expected in zip(listed, model.subsets):
        if subset != expected:
            raise ValueError(f"subset id {subset.id} lists sensors {list(subset.indices)}, "
                             f"expected id {expected.id} with sensors {list(expected.indices)}")
    return model
