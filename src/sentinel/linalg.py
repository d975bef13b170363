"""Dense real-matrix primitives shared by every other module.

All functions are pure and operate on float64 numpy arrays; inputs are
validated to be finite 2-D matrices. Thresholded decisions (rank, nonzero
tests) are driven by a single Tolerance record so the whole pipeline can be
re-tuned from one place.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used across the package.

    rank_rel: relative singular-value cutoff for rank decisions. Weakly
        observable directions of the benchmark sit near 1e-7 of the top
        singular value while round-off noise sits near 1e-16, so the
        default separates the two by several decades on each side.
    residual_abs / residual_rel: absolute / scale-relative slack when
        comparing prediction residuals.
    nonzero_abs: absolute floor below which a sample is considered zero.
    nonzero_rel: cutoff relative to a signal's peak magnitude; a sample
        counts as nonzero only if it exceeds nonzero_rel * peak as well as
        nonzero_abs. Sampling smears impulse responses, so leading samples
        a few orders of magnitude below the peak must read as zero for
        timing tests to be scale-invariant.
    """

    rank_rel: float = 1e-11
    residual_abs: float = 1e-9
    residual_rel: float = 1e-9
    nonzero_abs: float = 1e-12
    nonzero_rel: float = 1e-2

    def __post_init__(self):
        for name in ("rank_rel", "residual_abs", "residual_rel",
                     "nonzero_abs", "nonzero_rel"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Tolerance.{name} must be strictly positive")


DEFAULT_TOL = Tolerance()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite float64 2-D array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, dim: int, name: str = "vector") -> np.ndarray:
    """Validate and return `a` as a finite float64 1-D array of length dim."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def numerical_rank(mat, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above rank_cutoff."""
    m = as_matrix(mat)
    sigma = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sigma > rank_cutoff(sigma, m.shape, tol)))


def rank_cutoff(sigma, shape, tol: Tolerance = DEFAULT_TOL) -> float:
    """Singular-value cutoff rank_rel * max(rows, cols) * sigma_max.

    sigma is sorted descending, as an SVD returns it. The product is
    formed in np.linalg.pinv's order (rcond first), so a rank read off
    these singular values and a pseudo-inverse built from them agree.
    """
    return tol.rank_rel * max(shape) * sigma[0]


def matrix_exponential(mat) -> np.ndarray:
    """e^M by scaling-and-squaring with a 20-term truncated series.

    The matrix is scaled by 2**-s so its max-abs norm is at most 0.5, the
    series is summed to the x^20/20! term, and the result squared s times.
    """
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix_exponential needs a square matrix, got {m.shape}")
    norm = np.max(np.abs(m))
    squarings = 0
    while norm / (2.0 ** squarings) > 0.5:
        squarings += 1
    scaled = m / (2.0 ** squarings)
    n = m.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 21):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result
