"""Near-optimal test-function coefficients and the geometry-class index.

For each coarse cell the columns of C_K express the near-optimal test
functions in the test-search basis: B_K C_K = G_K.  With constant
coefficients the blocks depend on the cell only through the Jacobian of its
reference map, so congruent-up-to-translation cells form one geometry class
and share one solve.
"""

from __future__ import annotations

import numpy as np

from .fem import first_rows, row_ids
from .forms import TransportForm, local_saddle_blocks
from .mesh import MeshPair, TriMesh
from .solve import NotPositiveDefiniteError, cholesky_factor, cholesky_solve

KEY_DIGITS = 12


def geometry_classes(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Cells grouped by their Jacobian rounded to KEY_DIGITS digits.

    Returns `(representatives, inverse)`: `representatives[k]` is the first
    cell of class k and `inverse[cell]` is the class of `cell`.
    """
    inverse = row_ids(np.round(mesh.jacobians().reshape(mesh.n_cells, 4), KEY_DIGITS))
    return first_rows(inverse), inverse


def class_members(inverse: np.ndarray) -> list[np.ndarray]:
    """The cells of each class of `geometry_classes`, in cell order."""
    order = np.argsort(inverse, kind="stable")
    return np.split(order, np.cumsum(np.bincount(inverse))[:-1])


def compute_coefficients(b_k: np.ndarray, g_k: np.ndarray) -> np.ndarray:
    """C_K, (M test-search DOFs) x (N trial DOFs): solve B_K C_K = G_K by Cholesky."""
    return cholesky_solve(cholesky_factor(b_k), g_k)


def near_optimal_local_matrix(g_k, coefficients: np.ndarray) -> np.ndarray:
    """A_K = G_K^T C_K = G_K^T B_K^{-1} G_K; symmetrized against roundoff."""
    a_k = np.asarray(g_k).T @ coefficients
    return 0.5 * (a_k + a_k.T)


def cell_blocks(cell: int, mesh_pair: MeshPair, form: TransportForm) -> tuple[np.ndarray, np.ndarray]:
    """(C_K, A_K) for one coarse cell; the same for every cell of its geometry class."""
    b_k, g_k = local_saddle_blocks(form, cell, mesh_pair)
    try:
        coefficients = compute_coefficients(b_k, g_k)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"Gram matrix indefinite on cell {cell}: {exc}") from exc
    return coefficients, near_optimal_local_matrix(g_k, coefficients)
