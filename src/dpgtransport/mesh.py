"""Triangulations of the unit square and per-cell red refinement.

The coarse mesh splits the square into 2^level x 2^level squares, each cut
along the lower-left to upper-right diagonal.  Fine cells are obtained by
red (midpoint) refinement of every coarse cell; they are stored in the
coordinates of the unit reference triangle so that congruent coarse cells
share the same subdivision.  `row_ids` ranks rows of keys; it keys the
geometry classes of a mesh and the test-search sub-mesh's DOF numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

GEOM_TOL = 1e-12
# Digits of the rounded Jacobian entries that key a cell's geometry class.
KEY_DIGITS = 12

# Unit reference triangle with vertices (0,0), (1,0), (0,1).
REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# Edge k of a triangle runs from its vertex k to vertex NEXT_VERTEX[k].
NEXT_VERTEX = np.array([1, 2, 0])

# Red refinement's children, as indices into a triangle's vertices v0, v1, v2 and then its edge midpoints m01, m12,
# m20: the corner children at v0, v1, v2, then the middle one.  Their order numbers the test-search DOFs.
RED_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def row_ids(keys: np.ndarray) -> np.ndarray:
    """The lexicographic dense rank of each row of `keys`, as `np.unique(keys, axis=0)` numbers them.

    The columns are folded in one at a time with 1-D sorts: the rank of the
    leading columns times (largest column rank + 1) plus the rank of the next
    column orders the pairs lexicographically.  Both ranks stay below the row
    count, so the composite never overflows, whatever the size of the keys.
    """
    def rank(values):
        return np.unique(values, return_inverse=True)[1]

    columns = iter(np.asarray(keys).reshape(len(keys), -1).T)
    ids = rank(next(columns))
    for column in columns:
        ranks = rank(column)
        ids = rank(ids * (ranks.max() + 1) + ranks)
    return ids


def first_rows(ids: np.ndarray) -> np.ndarray:
    """The first row holding each id of `row_ids`, in id order."""
    return np.unique(ids, return_index=True)[1]


@dataclass(frozen=True)
class EdgeTable:
    """The mesh edges seen from the cells; edge k of a cell runs from its vertex k to vertex NEXT_VERTEX[k].

    Two cell edges share an id exactly when they share their two vertices.
    An edge is on the boundary when only one cell has it.  All arrays are
    read-only.
    """

    ids: np.ndarray  # mesh-edge id of each cell edge, (n_cells, 3), dense from 0
    boundary: np.ndarray  # bool, (n_cells, 3)
    vectors: np.ndarray  # end minus start vertex, (n_cells, 3, 2)
    lengths: np.ndarray  # (n_cells, 3)


class TriMesh:
    """Immutable triangle mesh: vertex table and CCW cells.

    The Jacobians of the cells' reference maps are computed once, with the
    mesh, and the geometry-class index, its members and the edge table on
    first use; all are read-only.
    """

    def __init__(self, vertices: np.ndarray, cells: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        v = self.vertices[self.cells]
        self._jacobians = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self._jacobians.setflags(write=False)
        if np.any(self.areas() <= 0.0):
            raise ValueError("all cells must be counter-clockwise with positive area")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def jacobians(self) -> np.ndarray:
        """Jacobians of every cell's reference map, shape (n_cells, 2, 2); read-only."""
        return self._jacobians

    def map_points(self, points: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Reference points (P, 2) mapped into the cells `cells` (any index of the cell axis), shape (n, P, 2).

        One matrix product: the cells' affine coefficients [v0 | J[:, :, 0] |
        J[:, :, 1]], shape (n, 6), times the points expanded to (6, 2P),
        whose columns x and y of point q are (1, 0, p_x, 0, p_y, 0) and
        (0, 1, 0, p_x, 0, p_y).
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        jac = self._jacobians[cells]
        coefficients = np.hstack([self.vertices[self.cells[cells, 0]], jac[:, :, 0], jac[:, :, 1]])
        expanded = np.kron(np.vstack([np.ones(len(points)), points.T]), np.eye(2))
        return (coefficients @ expanded).reshape(len(coefficients), len(points), 2)

    def areas(self) -> np.ndarray:
        jac = self._jacobians
        return 0.5 * (jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 1, 0] * jac[:, 0, 1])

    @cached_property
    def geometry_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cells grouped by their Jacobian rounded to KEY_DIGITS digits.

        `(representatives, inverse)`: `representatives[k]` is the first cell
        of class k and `inverse[cell]` is the class of `cell`.  Cells of one
        class are congruent up to translation.  Read-only.
        """
        inverse = row_ids(np.round(self._jacobians.reshape(self.n_cells, 4), KEY_DIGITS))
        representatives = first_rows(inverse)
        for a in (representatives, inverse):
            a.setflags(write=False)
        return representatives, inverse

    @cached_property
    def class_members(self) -> tuple[np.ndarray, ...]:
        """The cells of each class of `geometry_classes`, in cell order; read-only."""
        inverse = self.geometry_classes[1]
        order = np.argsort(inverse, kind="stable")
        order.setflags(write=False)  # the members are views of it
        return tuple(np.split(order, np.cumsum(np.bincount(inverse))[:-1]))

    @cached_property
    def edges(self) -> EdgeTable:
        """The `EdgeTable`: edge ids number the sorted vertex pairs lexicographically."""
        ends = self.cells[:, NEXT_VERTEX]
        pairs = np.minimum(self.cells, ends) * self.n_vertices + np.maximum(self.cells, ends)
        _, ids, counts = np.unique(pairs.ravel(), return_inverse=True, return_counts=True)
        ids = ids.reshape(self.n_cells, 3)
        v = self.vertices[self.cells]
        vectors = v[:, NEXT_VERTEX] - v
        table = EdgeTable(ids, counts[ids] == 1, vectors, np.hypot(vectors[..., 0], vectors[..., 1]))
        for a in vars(table).values():
            a.setflags(write=False)
        return table


def build_uniform_mesh(level: int) -> TriMesh:
    """Uniform triangulation of (0,1)^2 with mesh size H = 2^-level.

    Every square of the 2^level x 2^level grid is split along the
    lower-left to upper-right diagonal into two CCW triangles.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    n = 2**level
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left vertex of square (i, j), row by row; vertex (i, j) has id j (n + 1) + i
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v11, v01 = v00 + 1, v00 + n + 2, v00 + n + 1
    lower, upper = np.stack([v00, v10, v11], axis=-1), np.stack([v00, v11, v01], axis=-1)
    return TriMesh(vertices, np.stack([lower, upper], axis=1).reshape(-1, 3))


def refine_cell(coords: np.ndarray, levels: int) -> np.ndarray:
    """Red-refine a triangle `levels` times, returning (4^levels, 3, 2).

    Each step takes the `RED_CHILDREN` of every triangle's vertices and its edge midpoints, edge k's at index 3 + k.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    tris = np.asarray(coords, dtype=float).reshape(1, 3, 2)
    for _ in range(levels):
        points = np.concatenate([tris, 0.5 * (tris + tris[:, NEXT_VERTEX])], axis=1)
        tris = points[:, RED_CHILDREN].reshape(-1, 3, 2)
    return tris


@lru_cache(maxsize=None)
def reference_subcells(levels: int) -> np.ndarray:
    """Red refinement of the reference triangle; read-only, cached."""
    tris = refine_cell(REFERENCE_TRIANGLE, levels)
    tris.setflags(write=False)
    return tris


class MeshPair:
    """Coarse mesh plus uniform per-cell refinement to level `level`.

    Every coarse cell is split alike: subcell t of any cell is the image of
    `reference_subcells(level)[t]` under the cell's reference map.  A test
    space lives on it: l for the test-search space, 0 for the enriched one.
    """

    def __init__(self, coarse: TriMesh, level: int):
        if level < 0:
            raise ValueError("refinement level must be non-negative")
        self.coarse = coarse
        self.level = level

