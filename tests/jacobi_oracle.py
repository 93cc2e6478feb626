"""One-sided Jacobi SVD: the independent reference for ``cola_forge.linalg.svd``.

Production factors through LAPACK; this module keeps a second, deliberately
unrelated algorithm so the tests can check LAPACK's output against it.
Jacobi is the natural oracle because it computes singular values to high
relative accuracy (Demmel & Veselic 1992, "Jacobi's method is more accurate
than QR"). It returns the same canonical :class:`SvdResult` as production:
descending ``s``, roundoff-level values set to 0, orthonormal ``u``/``v``
completed for rank-deficient inputs, and the sign convention of
``_fix_signs``.
"""

from __future__ import annotations

import math

import numpy as np

from cola_forge.linalg import ConvergenceError, SvdResult, _fix_signs, as_matrix

# A column pair is rotated while its off-diagonal Gram entry exceeds
# JACOBI_REL_TOL relative to the two column norms; a clean pass over all
# pairs means convergence. 60 sweeps is far beyond what any non-pathological
# double-precision input needs (typical: 6-12).
JACOBI_MAX_SWEEPS = 60
JACOBI_REL_TOL = 1e-12


def jacobi_svd(w: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS,
               rel_tol: float = JACOBI_REL_TOL) -> SvdResult:
    """One-sided Jacobi SVD.

    Repeatedly applies plane rotations to column pairs of the (tall) working
    matrix until all columns are mutually orthogonal; the column norms are
    then the singular values. Pairs are visited in a fixed cyclic order.

    A pair is skipped when either column's norm is negligible next to the
    largest column norm (the absolute cutoff of LAPACK xGESVJ, Drmac &
    Veselic 2008): such a column lies in the numerical null space, and
    rotating it against a large column only trades roundoff back and forth,
    so the relative test alone never settles (e.g. on an exactly rank-1
    matrix).

    Raises ConvergenceError if the sweep cap is exhausted.
    """
    a = as_matrix(w)
    n, m = a.shape
    # Work on a tall matrix so the rotation count is driven by min(n, m).
    transposed = n < m
    g = a.T.copy() if transposed else a.copy()
    p, q = g.shape
    negligible = max(p, q) * np.finfo(np.float64).eps

    v = np.eye(q)
    converged = False
    for _ in range(max_sweeps):
        rotated = False
        floor = negligible**2 * np.max(np.sum(g * g, axis=0))
        for i in range(q - 1):
            for j in range(i + 1, q):
                gi = g[:, i]
                gj = g[:, j]
                aii = float(gi @ gi)
                ajj = float(gj @ gj)
                if min(aii, ajj) <= floor:
                    continue
                aij = float(gi @ gj)
                if abs(aij) <= rel_tol * math.sqrt(aii * ajj):
                    continue
                rotated = True
                # Rutishauser rotation zeroing the (i, j) Gram entry.
                zeta = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                g_new_i = c * gi - s * gj
                g_new_j = s * gi + c * gj
                g[:, i] = g_new_i
                g[:, j] = g_new_j
                v_new_i = c * v[:, i] - s * v[:, j]
                v_new_j = s * v[:, i] + c * v[:, j]
                v[:, i] = v_new_i
                v[:, j] = v_new_j
        if not rotated:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps "
            f"for a {n}x{m} matrix"
        )

    norms = np.sqrt(np.sum(g * g, axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    g = g[:, order]
    v = v[:, order]

    # Columns whose norm is negligible relative to the spectrum belong to the
    # null space; their left vectors are completed to an orthonormal basis.
    tiny = negligible * (norms[0] if norms[0] > 0 else 1.0)
    u = np.zeros((p, q))
    rank = int(np.sum(norms > tiny))
    if rank:
        u[:, :rank] = g[:, :rank] / norms[:rank]
    norms[rank:] = 0.0
    for col in range(rank, q):
        u[:, col] = _orthonormal_completion(u[:, :col], p)

    if transposed:
        u, v = v, u
    _fix_signs(u, v)
    return SvdResult(u=u, s=norms, v=v)


def _orthonormal_completion(basis: np.ndarray, dim: int) -> np.ndarray:
    """Deterministically extend ``basis`` (orthonormal columns) by one column."""
    for k in range(dim):
        cand = np.zeros(dim)
        cand[k] = 1.0
        if basis.shape[1]:
            cand -= basis @ (basis.T @ cand)
            cand -= basis @ (basis.T @ cand)  # second pass for orthogonality
        norm = np.linalg.norm(cand)
        if norm > 0.5:  # e_k was not (numerically) inside span(basis)
            return cand / norm
    raise ConvergenceError("failed to complete an orthonormal basis")
