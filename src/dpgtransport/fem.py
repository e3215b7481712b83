"""Reference-element Lagrange bases, quadrature, and degree-of-freedom maps."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import NEXT_VERTEX, REFERENCE_TRIANGLE, MeshPair, TriMesh, row_ids

MAX_BASIS_DEGREE = 5
MAX_QUADRATURE_DEGREE = 12

_INSIDE_TOL = 1e-9
# Cells per leaf of the nested dissection that numbers the trace DOFs, on a uniform mesh.
ND_LEAF_CELLS = 4


def _monomial_exponents(degree: int) -> np.ndarray:
    return np.array([(i, j) for total in range(degree + 1) for i in range(total, -1, -1) for j in (total - i,)])


def _lattice_nodes(degree: int) -> np.ndarray:
    """Uniform Lagrange nodes: the 3 vertices, the degree - 1 inner nodes of each edge, then the interior ones.

    With k = degree, the vertices are the corners c of k REFERENCE_TRIANGLE on the integer lattice, and edge e's
    inner nodes c_e + j (c_NEXT_VERTEX[e] - c_e) / k, j = 1 .. k - 1, run from vertex e to vertex NEXT_VERTEX[e].
    The interior nodes (i, j) follow, j outer.  The lattice is divided by k once, one rounding per coordinate.
    """
    if degree == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    k = degree
    corners = (k * REFERENCE_TRIANGLE).astype(int)
    edges = corners + np.arange(1, k)[:, None, None] * (corners[NEXT_VERTEX] - corners) // k  # (k - 1, 3, 2)
    interior = np.array([(i, j) for j in range(1, k) for i in range(1, k - j)], dtype=int).reshape(-1, 2)
    return np.concatenate([corners, edges.transpose(1, 0, 2).reshape(-1, 2), interior]) / k


class LocalBasis:
    """Nodal Lagrange basis of given degree on the reference triangle."""

    def __init__(self, degree: int):
        if not 0 <= degree <= MAX_BASIS_DEGREE:
            raise ValueError(f"basis degree must be in [0, {MAX_BASIS_DEGREE}]")
        self.degree = degree
        self.nodes = _lattice_nodes(degree)
        self.exponents = _monomial_exponents(degree)
        self.coeffs = np.linalg.inv(self._monomials(self.nodes))  # columns express basis in monomials

    @property
    def size(self) -> int:
        return len(self.nodes)

    def _monomials(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        ex = self.exponents
        return x[:, None] ** ex[:, 0] * y[:, None] ** ex[:, 1]

    @staticmethod
    def _inside(points) -> np.ndarray:
        """`points` as an (npts, 2) float array, each within _INSIDE_TOL of the reference triangle."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any(np.minimum(points.min(axis=1), 1.0 - points.sum(axis=1)) < -_INSIDE_TOL):
            raise ValueError("evaluation point outside the reference triangle")
        return points

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at reference points; shape (npts, size)."""
        return self._monomials(self._inside(points)) @ self.coeffs

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients at reference points; shape (npts, size, 2)."""
        x, y = self._inside(points).T
        ex = self.exponents
        # a term whose exponent is 0 has the factor 0; np.maximum keeps its power at x^0 or y^0
        dx = ex[:, 0] * x[:, None] ** np.maximum(ex[:, 0] - 1, 0) * y[:, None] ** ex[:, 1]
        dy = ex[:, 1] * x[:, None] ** ex[:, 0] * y[:, None] ** np.maximum(ex[:, 1] - 1, 0)
        return np.stack([dx @ self.coeffs, dy @ self.coeffs], axis=-1)


@lru_cache(maxsize=None)
def lagrange_basis(degree: int) -> LocalBasis:
    return LocalBasis(degree)


def skeleton_size(degree: int) -> int:
    """Trace DOFs per cell: the 3 vertex and 3 (degree - 1) edge nodes, which `_lattice_nodes` lists first."""
    return 3 * degree


@lru_cache(maxsize=None)
def edge_nodes(degree: int) -> np.ndarray:
    """Local nodes on each reference edge, shape (3, degree + 1); read-only.

    Row e lists the nodes of edge e, from vertex e to vertex NEXT_VERTEX[e],
    as `_lattice_nodes` orders them: (e, NEXT_VERTEX[e]), then the edge's
    degree - 1 inner nodes 3 + e (degree - 1), ..., 3 + (e + 1)(degree - 1) - 1.
    """
    inner = 3 + np.arange(3 * (degree - 1)).reshape(3, degree - 1)
    table = np.column_stack([np.arange(3), NEXT_VERTEX, inner])
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1]: (nodes, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def gauss_jacobi(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0, 1] for the weight 1 - t: (nodes, weights), nodes ascending.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    weight's orthogonal polynomials (Jacobi alpha = 1, beta = 0, moved from
    [-1, 1] to [0, 1]), and each weight is the weight's total mass, 1/2, times
    the squared first entry of its eigenvector.
    """
    k = np.arange(n)
    diagonal = 0.5 - 0.5 / ((2 * k + 1) * (2 * k + 3))
    k = k[1:]
    off = 0.5 * np.sqrt(k * (k + 1.0)) / (2 * k + 1)
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 0.5 * vectors[0] ** 2


@lru_cache(maxsize=None)
def make_quadrature(exactness_degree: int) -> QuadratureRule:
    """Conical-product rule on the reference triangle, exact to the given total degree."""
    if not 0 <= exactness_degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(f"quadrature exactness must be in [0, {MAX_QUADRATURE_DEGREE}]")
    n = exactness_degree // 2 + 1  # 2n-1 >= degree
    xg, wg = gauss_legendre(n)
    xj, wj = gauss_jacobi(n)
    xi, eta = np.meshgrid(xg, xj, indexing="ij")
    pts = np.column_stack([(xi * (1.0 - eta)).ravel(), eta.ravel()])
    wts = np.outer(wg, wj).ravel()
    return QuadratureRule(pts, wts)


class SpaceKind(enum.Enum):
    BROKEN_COARSE = "broken_coarse"  # discontinuous across coarse cells
    CONTINUOUS = "continuous"  # trace space on the skeleton: shared vertex and edge nodes


@dataclass(frozen=True)
class DofMap:
    kind: SpaceKind
    degree: int
    ndofs: int
    cell_dofs: np.ndarray = field(repr=False)  # (n_coarse, local size)


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of `keys` by first appearance: (numbers, first rows)."""
    _, first, inverse = np.unique(row_ids(keys), return_index=True, return_inverse=True)
    order = np.argsort(first)
    numbers = np.empty(len(first), dtype=int)
    numbers[order] = np.arange(len(first))
    return numbers[inverse], first[order]


def dissection_leaves(mesh: TriMesh) -> tuple[np.ndarray, int]:
    """Each cell's leaf in a nested dissection of `mesh`, and the dissection's depth D.

    D = ceil(log2(n_cells / ND_LEAF_CELLS)), at least 0.  The leaf is the
    top D bits of the Morton code of the cell's centroid: the centroids are
    quantised to a 2^ceil(D/2) grid over their bounding box, and the bits of
    y and x are interleaved, y above x.  Leaves l and l' lie in one subtree
    of height u exactly when l >> u == l' >> u, and each split halves its
    subtree's box, across y first, so horizontal cuts are the longer ones.
    They are the cheaper separators when beta is horizontal, since the
    inner nodes of characteristic edges are pinned, and the dearer ones
    when beta is vertical: there, at level 6, the factor fills 3 % more
    than under a minimum-degree ordering of first-appearance numbers.
    """
    depth = max(math.ceil(math.log2(mesh.n_cells / ND_LEAF_CELLS)), 0)
    bits = (depth + 1) // 2
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    low = centroids.min(axis=0)
    span = centroids.max(axis=0) - low
    grid = np.minimum((centroids - low) * (2**bits / np.where(span > 0.0, span, 1.0)), 2**bits - 1).astype(np.int64)
    code = np.zeros(mesh.n_cells, dtype=np.int64)
    for b in range(bits):
        code |= (grid[:, 1] >> b & 1) << (2 * b + 1) | (grid[:, 0] >> b & 1) << (2 * b)
    return code >> (2 * bits - depth), depth


def build_dof_map(kind: SpaceKind, mesh_pair: MeshPair, degree: int) -> DofMap:
    """Global numbering for one of the two space families.

    Continuous DOFs are the distinct Lagrange nodes on the mesh skeleton,
    the first `skeleton_size(degree)` nodes of each cell.  A vertex node is
    keyed by its vertex id; node j of the degree - 1 inside mesh edge e,
    counted from the edge's lower-numbered vertex, by n_vertices +
    (degree - 1) e + j, so every cell that shares the edge gives its nodes
    the same keys.  The keys are numbered in nested-dissection post-order,
    so a factor of the trace matrix in this order fills in little.  Let lo
    and hi be the smallest and largest leaf of `dissection_leaves`, of
    depth D, among the cells that hold a DOF.  The DOF lies on the
    separator u = bit_length(lo ^ hi) levels above the leaves, inside a
    leaf when u = 0, and its key is (lo | (2^u - 1)) (D + 1) + u: each
    subtree's DOFs come before its separator's.  Ties go by first
    appearance in the cell-major node list, so a mesh of at most
    ND_LEAF_CELLS cells is numbered in that order alone.
    """
    basis = lagrange_basis(degree)
    nloc = basis.size
    nc = mesh_pair.coarse.n_cells

    if kind is SpaceKind.BROKEN_COARSE:
        cell_dofs = np.arange(nc * nloc).reshape(nc, nloc)
        return DofMap(kind, degree, nc * nloc, cell_dofs)

    if kind is SpaceKind.CONTINUOUS:
        mesh = mesh_pair.coarse
        inner = np.arange(degree - 1)  # `_lattice_nodes` lists cell edge k's nodes from vertex k on
        along = np.where((mesh.cells < mesh.cells[:, NEXT_VERTEX])[..., None], inner, degree - 2 - inner)
        edge_keys = mesh.n_vertices + (degree - 1) * mesh.edges.ids[..., None] + along
        keys = np.concatenate([mesh.cells, edge_keys.reshape(nc, -1)], axis=1)
        flat = keys.ravel()
        n_keys = mesh.n_vertices + (degree - 1) * (int(mesh.edges.ids.max()) + 1)
        leaf, depth = dissection_leaves(mesh)
        leaves = np.repeat(leaf, keys.shape[1])
        # A key held by no cell (a vertex outside every cell) keeps lo = 2^D, hi = 0,
        # so u = D + 1 and it sorts after every held key.
        lo, hi, first = np.full(n_keys, 2**depth), np.zeros(n_keys, dtype=int), np.full(n_keys, flat.size)
        np.minimum.at(lo, flat, leaves)
        np.maximum.at(hi, flat, leaves)
        np.minimum.at(first, flat, np.arange(flat.size))
        u = np.frexp(lo ^ hi)[1]  # bit_length, exact below 2^53
        nested = (lo | ((1 << u) - 1)) * (depth + 1) + u
        numbers = np.empty(n_keys, dtype=int)
        numbers[np.argsort(nested * (flat.size + 1) + first)] = np.arange(n_keys)
        return DofMap(kind, degree, int(np.count_nonzero(first < flat.size)), numbers[keys])

    raise ValueError(f"unknown space kind: {kind}")
