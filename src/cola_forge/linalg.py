"""Dense linear algebra kernels shared by every other module.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; there is
no wrapper class. :func:`svd` is the LAPACK SVD put into a canonical form
(descending values, roundoff-level values set to 0, fixed signs); a one-sided
Jacobi SVD is kept in the tests as the independent oracle it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "ConvergenceError",
    "SvdResult",
    "as_matrix",
    "svd",
    "frobenius_norm",
    "gaussian_matrix",
    "make_rng",
    "derive_seed",
]


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge."""


def as_matrix(w) -> np.ndarray:
    """Coerce input to a 2-D float64 C-order array, validating finiteness."""
    a = np.ascontiguousarray(w, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def frobenius_norm(w: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(np.asarray(w, dtype=np.float64)))))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of an n x m matrix, k = min(n, m).

    ``u`` is n x k with orthonormal columns, ``s`` the k singular values in
    descending order, ``v`` is m x k with orthonormal columns, and
    ``u @ diag(s) @ v.T`` reconstructs the input.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T

    def truncate(self, r: int) -> "SvdResult":
        """Keep the leading r singular triplets."""
        return SvdResult(self.u[:, :r], self.s[:r], self.v[:, :r])


def svd(w: np.ndarray) -> SvdResult:
    """Thin SVD through LAPACK, returned in canonical form.

    Singular values at or below ``max(n, m) * eps * s[0]`` are set to exactly
    0, and each (u, v) column pair is sign-fixed so that the largest-magnitude
    entry of the left singular vector is positive. ``u`` and ``v`` keep
    orthonormal columns for rank-deficient and zero inputs.

    Deterministic for a given BLAS/LAPACK build and thread count: equal inputs
    then produce identical factors. Across builds or thread counts the factors
    may differ at roundoff level, within eps * ||w|| / gap for the singular
    vectors.

    Raises ConvergenceError if LAPACK reports non-convergence.
    """
    a = as_matrix(w)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"LAPACK SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    s[s <= max(a.shape) * np.finfo(np.float64).eps * s[0]] = 0.0
    v = np.ascontiguousarray(vt.T)
    _fix_signs(u, v)
    return SvdResult(u=u, s=s, v=v)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip each (u, v) column pair so u's largest-magnitude entry is positive."""
    for col in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, col]))
        if u[pivot, col] < 0.0:
            u[:, col] = -u[:, col]
            v[:, col] = -v[:, col]


def gaussian_matrix(rows: int, cols: int, std: float,
                    rng: np.random.Generator) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, std^2) draws from ``rng``."""
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    if rows < 1 or cols < 1:
        raise ShapeError(f"invalid matrix shape ({rows}, {cols})")
    return rng.normal(0.0, std, size=(rows, cols))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds yield identical streams."""
    return np.random.default_rng(seed)


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble step; used to decorrelate derived seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Stable 64-bit child seed for a (seed, index...) coordinate.

    Grid cells, sweep cells and per-seed repetitions each get a disjoint
    stream by xor-folding scrambled coordinates into the base seed, so cells
    can run in any order (or in parallel) with identical results.
    """
    out = _splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    for i, part in enumerate(parts):
        out ^= _splitmix64((int(part) + 0x1000 * (i + 1)) & 0xFFFFFFFFFFFFFFFF)
        out = _splitmix64(out)
    return out
