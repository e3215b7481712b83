"""Stacked dense Cholesky for the local systems; one solve by a sparse factor for the trace system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.sparse.linalg import splu

PIVOT_TOL = 1e-14
SYMMETRY_TOL = 1e-12
# Columns per SuperLU panel.  The panels' dense workspace is part of the run's
# peak memory; a narrower panel than scipy's default leaves the fill as it is.
PANEL_SIZE = 4


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix expected to be SPD has a non-positive pivot.

    `index` is the position of the first failing matrix in its stack.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def cholesky_factor(matrices: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factors of a stack of dense SPD matrices, shape (..., N, N).

    A single matrix is a stack of one.  Each matrix must be symmetric to
    SYMMETRY_TOL relative to its largest entry (at least 1), and each of its
    pivots, diag(L)^2, must exceed PIVOT_TOL times its largest diagonal entry
    (at least 1), so near-singular matrices are rejected too.  Errors name
    the first failing matrix of the stack, counted in C order.
    """
    a = np.asarray(matrices, dtype=float)
    stack = a.reshape(-1, *a.shape[-2:])
    if (stack != stack.mT).any():  # exactly symmetric stacks pass the tolerance test without it
        scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
        asymmetric = np.abs(stack - stack.mT).max(axis=(1, 2)) > SYMMETRY_TOL * scale
        if asymmetric.any():
            raise ValueError(f"matrix {np.argmax(asymmetric)} is not symmetric")
    try:
        lower = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:  # some matrix has no factor; factor one by one to find it
        lower = np.stack([_factor_or_nan(matrix) for matrix in stack])
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    threshold = PIVOT_TOL * np.maximum(np.abs(diagonal).max(axis=1), 1.0)
    failed = ~(np.diagonal(lower, axis1=1, axis2=2) ** 2 > threshold[:, None]).all(axis=1)  # NaN fails too
    if failed.any():
        matrix = int(np.argmax(failed))
        raise NotPositiveDefiniteError(f"matrix {matrix} is not positive definite", matrix)
    return lower.reshape(a.shape)


def _factor_or_nan(matrix: np.ndarray) -> np.ndarray:
    """The Cholesky factor of one matrix, or NaN where it has none."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def cholesky_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T X = rhs for factors L of `cholesky_factor`: LAPACK's `potrs` on each matrix.

    rhs has shape (..., N, K), stacked like `lower`.
    """
    return _solve_each(dpotrs, lower, rhs)


def triangular_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = rhs for factors L of `cholesky_factor`: LAPACK's `trtrs` on each matrix.

    Shapes as in `cholesky_solve`.
    """
    return _solve_each(dtrtrs, lower, rhs, trans=1)


def _solve_each(routine, lower: np.ndarray, rhs: np.ndarray, **options) -> np.ndarray:
    """`routine` on each factor of the stack `lower` and its right-hand side, one LAPACK call per matrix.

    numpy has no batched triangular solve, and `np.linalg.solve` would run a
    full LU of each triangular factor.  LAPACK is given each factor's
    transpose, the upper factor L^T, in the column-major layout it works in,
    without a copy, and solves in place in a column-major copy of the rhs.  A
    matrix's result does not depend on the stack it is in.
    """
    lower = np.asarray(lower, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = lower.shape[-1]
    if rhs.ndim < 2 or lower.shape[:-2] != rhs.shape[:-2] or rhs.shape[-2] != n:
        raise ValueError(f"factors {lower.shape} and right-hand sides {rhs.shape} do not match")
    x = np.array(rhs.mT, order="C")  # x[i].T is the column-major (N, K) rhs of matrix i
    for i, (factor, b) in enumerate(zip(lower.reshape(-1, n, n), x.reshape(-1, *x.shape[-2:]))):
        _, info = routine(factor.T, b.T, lower=0, overwrite_b=1, **options)
        if info != 0:
            name = routine.__name__.split()[-1]  # f2py's wrappers are named "function dtrtrs"
            raise ValueError(f"{name} failed on matrix {i} (info {info})")
    return x.mT


@dataclass(frozen=True)
class CgReport:
    iterations: int  # solves with the factor: 1, or 0 for a zero rhs
    residual_norm: float  # the true residual ||rhs - A x||_2
    converged: bool  # residual_norm <= tol ||rhs||_2
    backward_error: float  # omega of `backward_error`, for the returned x


def backward_error(a, x: np.ndarray, rhs: np.ndarray, r: np.ndarray) -> float:
    """The componentwise (Oettli-Prager) backward error of x, with r = rhs - A x.

    omega = max_i |r_i| / (|A| |x| + |rhs|)_i: the smallest relative change,
    entry by entry, of A and rhs that makes x an exact solution.  A row with
    a zero denominator has r_i = 0 and counts as 0.  |A| shares the sparsity
    arrays of A; only its values are copied.
    """
    a = sp.csr_matrix(a)
    magnitude = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
    scale = magnitude @ np.abs(x) + np.abs(rhs)
    ratios = np.divide(np.abs(r), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return float(ratios.max(initial=0.0))


def cg_solve(a, rhs: np.ndarray, tol: float = 1e-12):
    """Solve a sparse SPD system with one solve by its sparse LU factor.

    The factor is SuperLU's, in the matrix's own order (`NATURAL`) and with
    no pivoting off the diagonal, which an SPD matrix never needs.  It is
    exact up to rounding.  Its fill, and so its time and memory, come from
    the caller's numbering: the trace DOFs of `build_dof_map` are in
    nested-dissection order.  A matrix in any other order is solved as
    correctly, only with more fill.  x = LU^-1 rhs; converged means the true
    residual r = rhs - A x has ||r||_2 <= tol * ||rhs||_2.  The report's
    backward error is computed once the factor is freed, so it adds nothing
    to the solve's peak memory.  Deterministic for fixed inputs; raises on NaN.
    """
    rhs = np.asarray(rhs, dtype=float)
    if np.any(a.diagonal() <= 0.0):
        raise ValueError("matrix has non-positive diagonal entries")

    norm_rhs = np.linalg.norm(rhs)
    if norm_rhs == 0.0:
        return np.zeros(len(rhs)), CgReport(0, 0.0, True, 0.0)
    try:
        factor = splu(
            sp.csc_matrix(a.T),  # A is symmetric; a CSR matrix's transpose is its CSC form, without a copy
            permc_spec="NATURAL",
            panel_size=PANEL_SIZE,
            options=dict(SymmetricMode=True, DiagPivotThresh=0.0),
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NotPositiveDefiniteError(f"sparse factorisation failed: {exc}") from exc

    x = factor.solve(rhs)
    r = rhs - a @ x
    res = np.linalg.norm(r)
    if not np.isfinite(res):
        raise FloatingPointError("sparse solve gave a non-finite residual")
    del factor
    return x, CgReport(1, float(res), bool(res <= tol * norm_rhs), backward_error(a, x, rhs, r))
