"""Near-optimal test-function coefficients, stacked over geometry classes.

For each coarse cell the columns of C_K express the near-optimal test
functions in the test-search basis: B_K C_K = G_K.  With constant
coefficients the blocks depend on the cell only through the Jacobian of its
reference map, so congruent-up-to-translation cells form one geometry class
(`TriMesh.geometry_classes`) and share one solve.  The classes are processed
in chunks whose local blocks take at most CHUNK_BYTES; each chunk's factors
are one stacked call, and its solves one LAPACK call per class.  A chunk's
per-class operators reach the rows of their member cells through
`class_products`, one stacked product per member count.
"""

from __future__ import annotations

import numpy as np

from .forms import TransportForm, local_saddle_blocks
from .mesh import MeshPair, TriMesh
from .solve import NotPositiveDefiniteError, cholesky_factor, cholesky_solve

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


def compute_coefficients(b: np.ndarray, g: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """(L_K, C_K) from the stacked blocks of `cells`: L_K L_K^T = B_K, and C_K solves B_K C_K = G_K."""
    lower = factor_on_cells(b, cells, "Gram matrix")
    return lower, cholesky_solve(lower, g)


def near_optimal_blocks(b: np.ndarray, g: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_K, C_K, A_K) from the stacked blocks (B_K, G_K) of `cells`.

    L_K and C_K are those of `compute_coefficients`, and A_K = G_K^T C_K =
    G_K^T B_K^-1 G_K is symmetrized against roundoff.  Each cell's result is
    the same whether it is computed alone or in a stack.
    """
    lower, coefficients = compute_coefficients(b, g, cells)
    a = g.mT @ coefficients
    return lower, coefficients, 0.5 * (a + a.mT)


def cell_blocks(cells, mesh_pair: MeshPair, form: TransportForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`near_optimal_blocks` of the coarse cells `cells`, one per geometry class they represent."""
    return near_optimal_blocks(*local_saddle_blocks(form, cells, mesh_pair), cells)
