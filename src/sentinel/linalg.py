"""Dense real-matrix primitives shared by every other module.

All functions are pure and operate on float64 numpy arrays; inputs are
validated to be finite real 2-D matrices. Rank and residual decisions are
driven by a single Tolerance record so the whole pipeline can be re-tuned
from one place; the nonzero test of the delay detector is fixed by
NONZERO_ABS and NONZERO_REL.
"""

from dataclasses import dataclass

import numpy as np

# A sample counts as nonzero only if it exceeds NONZERO_REL times its
# signal's peak as well as NONZERO_ABS. Sampling smears impulse responses,
# so leading samples a few orders of magnitude below the peak must read as
# zero for timing tests to be scale-invariant.
NONZERO_ABS = 1e-12
NONZERO_REL = 1e-2


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used across the package.

    rank_rel: scale of the rank cutoff rank_rel * max(rows, cols) *
        sigma_max (rank_cutoff), not a fraction of sigma_max. Weakly
        observable directions of the benchmark sit near 1e-7 of the top
        singular value while round-off noise sits near 1e-16, so the
        default separates the two by several decades on each side.
    residual: absolute and scale-relative slack when comparing prediction
        residuals.
    """

    rank_rel: float = 1e-11
    residual: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel", "residual"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"Tolerance.{name} must be strictly positive and finite, "
                                 f"got {getattr(self, name)!r}")


DEFAULT_TOL = Tolerance()


def _as_real(a, name: str) -> np.ndarray:
    """`a` as a float64 array; a complex one is rejected, as a cast to
    float would drop its imaginary part."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _check_finite(arr: np.ndarray, name: str) -> None:
    # counting the finite entries costs less per call than an .all()
    # reduction and, unlike a test on a sum or a sum of squares, cannot overflow
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} contains non-finite entries")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite real float64 2-D array."""
    m = _as_real(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    _check_finite(m, name)
    return m


def as_vector(a, dim: int, name: str = "vector") -> np.ndarray:
    """Validate and return `a` as a finite real float64 1-D array of length
    dim; any shape holding dim entries, (dim, 1) or (1, dim) say, is
    flattened."""
    v = _as_real(a, name).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    _check_finite(v, name)
    return v


def as_integer(value) -> int:
    """An int from an integer or an integral float, else TypeError: a
    string, even one of digits, a bool or a fraction is not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def first_nonzero(values) -> int | None:
    """Index of the first entry above max(NONZERO_ABS, NONZERO_REL * peak),
    peak being the largest magnitude in `values`, else None."""
    magnitudes = np.abs(np.asarray(values, dtype=float))
    above = magnitudes > max(NONZERO_ABS, NONZERO_REL * magnitudes.max(initial=0.0))
    return int(above.argmax()) if above.any() else None


def numerical_rank(mat, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above rank_cutoff."""
    m = as_matrix(mat)
    sigma = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sigma > rank_cutoff(sigma, m.shape, tol)))


def rank_cutoff(sigma, shape, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Singular-value cutoff rank_rel * max(rows, cols) * sigma_max.

    sigma is sorted descending along its last axis, as an SVD returns it,
    so a stack of S rows gets S cutoffs. The product is formed in
    np.linalg.pinv's order (rcond first), so a rank read off these singular
    values and a pseudo-inverse built from them agree.
    """
    return tol.rank_rel * max(shape) * sigma[..., :1]


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
