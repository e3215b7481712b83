"""Dense Cholesky for the local systems and factor-preconditioned CG for the trace system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.sparse.linalg import splu

PIVOT_TOL = 1e-14
SYMMETRY_TOL = 1e-12
# Columns per SuperLU panel.  The panels' dense workspace is part of the run's
# peak memory; a narrower panel than scipy's default leaves the fill as it is.
PANEL_SIZE = 4


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
    return cho_solve((factor.lower, True), rhs)


@dataclass(frozen=True)
class CgReport:
    iterations: int
    residual_norm: float  # the true residual ||rhs - A x||_2
    converged: bool


def cg_solve(a, rhs: np.ndarray, tol: float = 1e-12, max_iter: int | None = None):
    """Conjugate gradients for a sparse SPD system, preconditioned by its sparse LU factor.

    The factor is SuperLU's with a symmetric minimum-degree ordering and no
    pivoting off the diagonal, which an SPD matrix never needs.  It is exact
    up to rounding, so CG takes one step, and the steps after the first are
    iterative refinement with the same factor.  Converged means the true
    residual ||rhs - A x||_2 <= tol * ||rhs||_2.  When the recursively updated
    residual meets tol, the true one is recomputed and CG restarts from it
    unless it meets tol too.  Stops unconverged at `max_iter` iterations, or
    when a restart fails to lower the true residual.  Deterministic for fixed
    inputs; raises on NaN breakdown.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    if max_iter is None:
        max_iter = 10 * n
    diag = np.asarray(a.diagonal() if hasattr(a, "diagonal") else np.diag(a), dtype=float)
    if np.any(diag <= 0.0):
        raise ValueError("matrix has non-positive diagonal entries")

    norm_rhs = np.linalg.norm(rhs)
    if norm_rhs == 0.0:
        return np.zeros(n), CgReport(0, 0.0, True)
    # A CSR matrix's transpose is its CSC form without a copy; A is symmetric.
    csc = a.T if sp.issparse(a) and a.format == "csr" else sp.csc_matrix(a)
    try:
        factor = splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            panel_size=PANEL_SIZE,
            options=dict(SymmetricMode=True, DiagPivotThresh=0.0),
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NotPositiveDefiniteError(f"sparse factorisation failed: {exc}") from exc

    x = np.zeros(n)
    r = rhs.copy()
    res = restart_res = norm_rhs
    iterations = 0
    while True:
        z = factor.solve(r)
        p = z.copy()
        rz = r @ z
        while res > tol * norm_rhs and iterations < max_iter:
            ap = a @ p
            alpha = rz / (p @ ap)
            if not np.isfinite(alpha):
                raise FloatingPointError("conjugate gradient breakdown (non-finite step)")
            x += alpha * p
            r -= alpha * ap
            z = factor.solve(r)
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
