"""Near-optimal test functions, stacked over geometry classes.

The columns of C_K = B_K^-1 G_K are a coarse cell's near-optimal test
functions in the test-search basis.  They reach the trace system only
through G_K^T C_K and the load map l_K C_K, and neither needs C_K: with
B_K = L_K L_K^T and a load l_K = c_K basis, as the factors of `local_load`
give it, both are blocks of H_K = Y_K^T Y_K, the Gram matrix of the columns
Y_K = L_K^-1 [G_K | basis^T].  One triangular solve gives Y_K; a constant
source has a basis of one row, so the solve takes one column more than G_K.
With constant coefficients the blocks depend on the cell only through the
Jacobian of its reference map, so congruent-up-to-translation cells form
one geometry class (`TriMesh.geometry_classes`) and share one solve.  The
classes are processed in chunks whose local blocks take at most
CHUNK_BYTES; each chunk's factors are one stacked call, and its solves one
LAPACK call per class.  A chunk's per-class operators reach the rows of
their member cells through `class_products`, one stacked product per member
count.
"""

from __future__ import annotations

import numpy as np

from .forms import TransportForm, local_saddle_blocks
from .mesh import MeshPair, TriMesh
from .solve import NotPositiveDefiniteError, cholesky_factor, triangular_solve

# Bytes of the stacked B_K and G_K of one chunk of geometry classes; a class
# whose blocks are larger forms a chunk of its own.
CHUNK_BYTES = 2**18


def class_chunks(mesh: TriMesh, test_size: int, trial_size: int):
    """The geometry classes of `mesh` in chunks whose B_K and G_K take at most CHUNK_BYTES.

    Yields `(classes, cells, members)` per chunk: a slice of class numbers,
    the classes' representative cells and their member cells (`TriMesh.class_members`).
    """
    representatives = mesh.geometry_classes[0]
    step = max(1, CHUNK_BYTES // (8 * test_size * (test_size + trial_size)))
    for start in range(0, len(representatives), step):
        classes = slice(start, start + step)
        yield classes, representatives[classes], mesh.class_members[classes]


def class_products(rows: np.ndarray, maps: np.ndarray, members):
    """rows[cells] @ maps[k] for the member cells of each class k of a chunk.

    Classes with the same number of members share one stacked matrix
    product.  Yields `(cells, products)` per member count: the member cells
    of those classes, shape (g, count), and their products, shape
    (g, count, maps.shape[-1]).  Each class's product is the one of its own
    (count, N) @ (N, M) matrix product, whatever the other classes are.
    """
    counts = [len(cells) for cells in members]
    for count in sorted(set(counts)):
        group = [k for k, size in enumerate(counts) if size == count]
        cells = np.stack([members[k] for k in group])
        yield cells, rows[cells] @ maps[group]


def factor_on_cells(matrices: np.ndarray, cells, what: str) -> np.ndarray:
    """`cholesky_factor` of one matrix per cell; a failure names the failing matrix's cell."""
    try:
        return cholesky_factor(matrices)
    except NotPositiveDefiniteError as exc:
        cell = np.ravel(cells)[exc.index]
        raise NotPositiveDefiniteError(f"{what} indefinite on cell {cell}: {exc}", exc.index) from exc


def _lift(b: np.ndarray, g: np.ndarray, basis: np.ndarray, cells, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(L_K, L_K^-1 [G_K | basis^T]), L_K L_K^T = B_K, one `trtrs` per class; a failing factor is named `what`."""
    lower = factor_on_cells(b, cells, what)
    columns = np.broadcast_to(basis.T, (*g.shape[:-1], len(basis)))
    return lower, triangular_solve(lower, np.concatenate([g, columns], axis=-1))


def compute_coefficients(b: np.ndarray, g: np.ndarray, basis: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """(L_K, Y_K = L_K^-1 [G_K | basis^T]) from the stacked blocks of `cells`, with L_K L_K^T = B_K.

    `basis` holds the r rows of the load basis of `local_load`, shared by
    every cell.  C_K = L_K^-T Z_K, with Z_K = L_K^-1 G_K the first columns of
    Y_K.  A cell's result is the same alone or in a stack.
    """
    return _lift(b, g, basis, cells, "Gram matrix")


def cell_blocks(cells, mesh_pair: MeshPair, form: TransportForm, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`compute_coefficients` of the coarse cells `cells`, one per geometry class they represent."""
    return compute_coefficients(*local_saddle_blocks(form, cells, mesh_pair), basis, cells)
