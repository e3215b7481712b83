"""Dense Cholesky for the local Gram systems and PCG for the global system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

PIVOT_TOL = 1e-14
SYMMETRY_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix expected to be SPD has a non-positive pivot."""


@dataclass(frozen=True)
class CholeskyFactor:
    lower: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.lower)


def cholesky_factor(matrix: np.ndarray) -> CholeskyFactor:
    """Lower-triangular Cholesky factor of a dense SPD matrix.

    Every pivot, diag(L)^2, must exceed PIVOT_TOL times the largest diagonal
    entry (at least 1), so near-singular matrices are rejected too.
    """
    a = np.asarray(matrix, dtype=float)
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    try:
        lower = cholesky(a, lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    threshold = PIVOT_TOL * max(np.abs(np.diag(a)).max(), 1.0)
    small = np.flatnonzero(np.diag(lower) ** 2 <= threshold)
    if small.size:
        raise NotPositiveDefiniteError(f"non-positive pivot at index {small[0]}")
    return CholeskyFactor(lower)


def cholesky_solve(factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs for a vector or a matrix of columns."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != factor.dimension:
        raise ValueError("right-hand side has incompatible size")
    y = solve_triangular(factor.lower, rhs, lower=True)
    return solve_triangular(factor.lower.T, y, lower=False)


@dataclass(frozen=True)
class CgReport:
    iterations: int
    residual_norm: float  # the true residual ||rhs - A x||_2
    converged: bool


def cg_solve(a, rhs: np.ndarray, tol: float = 1e-12, max_iter: int | None = None):
    """Jacobi-preconditioned conjugate gradients for a sparse SPD system.

    Converged means the true residual ||rhs - A x||_2 <= tol * ||rhs||_2.  When
    the recursively updated residual meets tol, the true one is recomputed and
    CG restarts from it unless it meets tol too.  Stops unconverged at
    `max_iter` iterations, or when a restart fails to lower the true
    residual.  Deterministic for fixed inputs; raises on NaN breakdown.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    if max_iter is None:
        max_iter = 10 * n
    diag = np.asarray(a.diagonal() if hasattr(a, "diagonal") else np.diag(a), dtype=float)
    if np.any(diag <= 0.0):
        raise ValueError("matrix has non-positive diagonal entries")
    inv_diag = 1.0 / diag

    norm_rhs = np.linalg.norm(rhs)
    if norm_rhs == 0.0:
        return np.zeros(n), CgReport(0, 0.0, True)

    x = np.zeros(n)
    r = rhs.copy()
    res = restart_res = norm_rhs
    iterations = 0
    while True:
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        while res > tol * norm_rhs and iterations < max_iter:
            ap = a @ p
            alpha = rz / (p @ ap)
            if not np.isfinite(alpha):
                raise FloatingPointError("conjugate gradient breakdown (non-finite step)")
            x += alpha * p
            r -= alpha * ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
            res = np.linalg.norm(r)
            iterations += 1
        r = rhs - a @ x
        res = np.linalg.norm(r)
        if res <= tol * norm_rhs or iterations >= max_iter or not res < restart_res:
            break
        restart_res = res
    if not np.isfinite(res):
        raise FloatingPointError("conjugate gradient diverged")
    return x, CgReport(iterations, float(res), bool(res <= tol * norm_rhs))
