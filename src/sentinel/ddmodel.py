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

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attacks import SensorSubset, enumerate_subsets
from .datamat import SubsetDataMatrices, Trajectory, build_subset_matrices
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, numerical_rank, rank_cutoff


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


def stacked_data(mats: SubsetDataMatrices) -> np.ndarray:
    """[current inputs; history columns]: the regressor matrix."""
    return np.vstack([mats.u_now, mats.states])


def certifying_rank(m: int, n: int) -> int:
    """Largest rank attack-free data can attain: m(n+1) + n."""
    return m * (n + 1) + n


def _rank_report(mats: SubsetDataMatrices, observed: int) -> RankReport:
    m, n, q = mats.input_dim, mats.order, mats.output_dim
    required = certifying_rank(m, n)
    return RankReport(observed, required, m * (n + 1) + q * n, observed == required)


def rank_condition(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL) -> RankReport:
    """Rank certificate of the stacked data matrix for one subset."""
    return _rank_report(mats, numerical_rank(stacked_data(mats), tol))


@dataclass(frozen=True)
class SubsetPredictor:
    """Learned one-step predictor of one subset's stacked history.

    lam maps [u[k]; history[k]] to history[k+1]; residual is the max-abs
    training misfit recorded at learning time.
    """

    subset: SensorSubset
    lam: np.ndarray
    residual: float
    report: Optional[RankReport] = None


def learn_lambda(mats: SubsetDataMatrices, tol: Tolerance = DEFAULT_TOL) -> SubsetPredictor:
    """Fit the one-step predictor for one subset.

    Uses the Moore-Penrose pseudo-inverse of the stacked data: with the
    certifying rank this is exact on everything the plant can produce and
    unique over informative recordings. One SVD gives both the rank report
    and the pseudo-inverse, built as np.linalg.pinv builds it, so lam is
    bit-identical to states_next @ pinv(stacked, rank_rel * max(shape)).
    Raises LearningError (embedding the rank report) when the certificate
    fails or the training misfit exceeds the residual slack.
    """
    stacked = stacked_data(mats)
    u, sigma, vt = np.linalg.svd(stacked, full_matrices=False)
    large = sigma > rank_cutoff(sigma, stacked.shape, tol)
    report = _rank_report(mats, int(np.sum(large)))
    if not report.holds:
        side = "above" if report.observed > report.required else "below"
        raise LearningError([(mats.subset, report,
                              f"rank certificate failed: data rank {report.observed} is "
                              f"{side} the certifying rank {report.required} "
                              f"(stacked rows: {report.rows})")])
    inverse = np.divide(1, sigma, where=large, out=sigma)
    inverse[~large] = 0
    lam = mats.states_next @ (vt.T @ (inverse[:, None] * u.T))
    residual = float(np.max(np.abs(mats.states_next - lam @ stacked)))
    slack = tol.residual_abs * (1.0 + float(np.max(np.abs(mats.states_next))))
    if residual > slack:
        raise LearningError([(mats.subset, report,
                              f"data rank {report.observed} meets the certifying rank, "
                              f"but the training misfit {residual:.3g} exceeds the "
                              f"slack {slack:.3g}")])
    return SubsetPredictor(mats.subset, lam, residual, report)


def predict(lam, u_k, state) -> np.ndarray:
    """One-step prediction: lam @ [u_k; state]."""
    lam_arr = as_matrix(lam, "lam")
    u_vec = np.asarray(u_k, dtype=float).reshape(-1)
    x_vec = np.asarray(state, dtype=float).reshape(-1)
    if u_vec.size + x_vec.size != lam_arr.shape[1]:
        raise ValueError(
            f"predictor expects {lam_arr.shape[1]} entries, got {u_vec.size + x_vec.size}")
    return lam_arr @ np.concatenate([u_vec, x_vec])


@dataclass(frozen=True)
class DataDrivenModel:
    """Per-subset predictors plus the learning metadata."""

    predictors: tuple[SubsetPredictor, ...]
    n: int
    m: int
    n_sensors: int
    max_attacked: int
    columns: int
    pe_seed: Optional[int] = None

    def predictor(self, subset_id: int) -> SubsetPredictor:
        for entry in self.predictors:
            if entry.subset.id == subset_id:
                return entry
        raise KeyError(f"no predictor for subset id {subset_id}")


def learn_model(traj: Trajectory, n_sensors: int, max_attacked: int, n: int,
                columns: int, tol: Tolerance = DEFAULT_TOL,
                pe_seed: Optional[int] = None) -> DataDrivenModel:
    """Learn predictors for every cardinality-(N - M) subset from one recording.

    Every subset is tried; one LearningError lists all that fail.
    """
    if traj.output_dim != n_sensors:
        raise ValueError(
            f"trajectory has {traj.output_dim} outputs, expected {n_sensors}")
    predictors, failures = [], []
    for subset in enumerate_subsets(n_sensors, max_attacked):
        try:
            predictors.append(learn_lambda(build_subset_matrices(traj, subset, n, columns), tol))
        except LearningError as exc:
            failures += exc.failures
    if failures:
        raise LearningError(failures)
    return DataDrivenModel(tuple(predictors), n, traj.input_dim, n_sensors,
                           max_attacked, columns, pe_seed)


def save_learned_model(model: DataDrivenModel, path) -> None:
    """Write a learned model as JSON."""
    payload = {
        "N": model.n_sensors,
        "M": model.max_attacked,
        "n": model.n,
        "m": model.m,
        "T": model.columns,
        "pe_seed": model.pe_seed,
        "subsets": [
            {
                "id": entry.subset.id,
                "indices": list(entry.subset.indices),
                "lambda": entry.lam.tolist(),
                "residual": entry.residual,
            }
            for entry in model.predictors
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_learned_model(path) -> DataDrivenModel:
    """Read a learned model written by save_learned_model."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    predictors = tuple(
        SubsetPredictor(
            SensorSubset(int(entry["id"]), tuple(int(i) for i in entry["indices"])),
            np.array(entry["lambda"], dtype=float),
            float(entry["residual"]),
        )
        for entry in payload["subsets"]
    )
    pe_seed = payload.get("pe_seed")
    return DataDrivenModel(predictors, int(payload["n"]), int(payload["m"]),
                           int(payload["N"]), int(payload["M"]), int(payload["T"]),
                           None if pe_seed is None else int(pe_seed))
