"""Dense linear algebra kernels shared by every other module.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; there is
no wrapper class. :func:`svd` is the LAPACK SVD put into a canonical form
(descending values, roundoff-level values set to 0, fixed signs); a one-sided
Jacobi SVD is kept in the tests as the independent oracle it is checked
against.

It also owns the argument rules every other module calls, each raising an
error that names the argument: ``_check_count``, ``_check_positive``,
``_check_range``, ``_check_choice`` and ``_check_shape`` (a ShapeError). No
other module tells a bool from a number.
"""

from __future__ import annotations

import math
import numbers
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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_count(name: str, value, low: int | None = 1,
                 error: type[ValueError] = ValueError, high: int | None = None) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer, not a
    bool, of at least ``low`` and at most ``high`` (None sets no bound)."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")


def _check_real(name: str, value, error: type[ValueError]) -> None:
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")


def _check_positive(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a positive, finite real."""
    _check_real(name, value, error)
    if not value > 0:
        raise error(f"{name} must be positive, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")


def _check_range(name: str, value, low: float, high: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real in
    [``low``, ``high``]."""
    _check_real(name, value, ValueError)
    if not (low <= value <= high and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real in [{low}, {high}], got {value!r}")


def _check_choice(name: str, value, choices: tuple,
                  error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` equals one of ``choices``."""
    if value not in choices:
        raise error(f"{name} must be one of {choices}, got {value!r}")


def _check_shape(name: str, array: np.ndarray, shape: tuple[int, ...]) -> None:
    """Raise ShapeError naming ``name`` unless ``array`` has shape ``shape``."""
    if array.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {array.shape}")


def as_matrix(w, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 C-order array; complex input and NaN
    or Inf entries are refused by its ``name``."""
    a = np.ascontiguousarray(_as_real(w, name))
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _as_real(v, name: str) -> np.ndarray:
    """``v`` as a float64 array; complex input raises ValueError naming
    ``name``, where a cast would drop its imaginary part."""
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real, got complex entries")
    return np.asarray(v, dtype=np.float64)


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
    a = as_matrix(w, "w")
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
    """Flip each (u, v) column pair so u's largest-magnitude entry is positive.

    The pivot is the first entry of largest magnitude; a flip multiplies by
    -1.0 and the others by 1.0, which is exact, so this matches a per-column
    loop bit for bit (the tests keep that loop as the oracle).
    """
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    u *= signs
    v *= signs


def gaussian_matrix(rows: int, cols: int, std: float,
                    rng: np.random.Generator) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, std^2) draws from ``rng``."""
    _check_count("rows", rows, 1, ShapeError)
    _check_count("cols", cols, 1, ShapeError)
    _check_positive("std", std)
    return rng.normal(0.0, std, size=(rows, cols))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds yield identical streams."""
    _check_count("seed", seed, 0)
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
    can run in any order (or in parallel) with identical results. A negative
    seed or part is legal: each is masked to 64 bits.
    """
    _check_count("seed", seed, None)
    out = _splitmix64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    for i, part in enumerate(parts):
        _check_count(f"seed part {i}", part, None)
        out ^= _splitmix64((int(part) + 0x1000 * (i + 1)) & 0xFFFFFFFFFFFFFFFF)
        out = _splitmix64(out)
    return out
