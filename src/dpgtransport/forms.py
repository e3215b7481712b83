"""The ultra-weak transport form and its broken, reaction-scaled graph-norm inner product.

On a coarse cell K, with test functions v, w and the trial pair (phi, theta),
`InnerProduct.local_gram` returns the Gram matrix of the inner product and
`BilinearForm.local_matrix` the matrix of the form, for a whole stack of
cells at once; `local_saddle_blocks` returns both:

    B_K = (1 + c^2) (v, w)_K + (beta . grad v, beta . grad w)_K,
    G_K = [ (phi, c v - beta . grad v)_K  |  <theta, (beta . n) v>_dK ].

A test space is a degree on a `MeshPair`: continuous piecewise polynomials
on the level-times red-refined submesh of each coarse cell, level l for the
test-search space and 0 for the enriched estimator space, broken across
coarse cells only, so in the broken graph space prod_K H(beta; K).  phi is
one polynomial per coarse cell, and theta a polynomial on each edge of it.
Since v is continuous on K, the trace term is a volume integral (see
`_moments`), and G_K, like B_K, needs only the cell's Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fem import MAX_QUADRATURE_DEGREE, first_appearance, lagrange_basis, make_quadrature, skeleton_size
from .mesh import GEOM_TOL, MeshPair, reference_subcells


@lru_cache(maxsize=None)
def _subcell_maps(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps unit triangle -> subcell t of `reference_subcells(levels)`.

    Returns `(jacobians, offsets)`, shapes (pieces, 2, 2) and (pieces, 2), in
    coarse reference coordinates.  Read-only, cached.
    """
    subs = reference_subcells(levels)
    jacobians = np.stack([subs[:, 1] - subs[:, 0], subs[:, 2] - subs[:, 0]], axis=-1)
    offsets = subs[:, 0].copy()
    for a in (jacobians, offsets):
        a.setflags(write=False)
    return jacobians, offsets


@lru_cache(maxsize=None)
def submesh_dofs(degree: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Continuous degree-`degree` Lagrange space, degree >= 1, on the red-refined reference triangle.

    Returns `(table, nodes)`.  `table[t, i]` is the cell-local DOF of Lagrange
    node i of subcell t of `reference_subcells(levels)`; `nodes[d]` holds the
    reference coordinates of DOF d.  Nodes shared by neighbouring subcells
    get one DOF, numbered in order of first appearance, so `levels == 0`
    gives the identity table.  Read-only, cached.
    """
    basis = lagrange_basis(degree)
    jacobians, offsets = _subcell_maps(levels)
    lattice = degree * 2**levels  # every node lies on the 1/lattice grid
    points = basis.nodes @ jacobians.transpose(0, 2, 1) + offsets[:, None]
    keys = np.rint(points.reshape(-1, 2) * lattice).astype(np.int64)
    numbers, first = first_appearance(keys)
    table = numbers.reshape(len(jacobians), basis.size)
    nodes = keys[first] / lattice
    table.setflags(write=False)
    nodes.setflags(write=False)
    return table, nodes


@dataclass(frozen=True)
class TransportForm:
    """Ultra-weak form of beta . grad(phi) + c phi = f with trial parameter m.

    The trial pair is phi of degree m-1 on each coarse cell and theta of
    degree m on its edges; `beta` is a unit vector and `reaction` is c.  The
    test functions are continuous of degree `test_degree` on each coarse cell,
    piecewise on the refined cells of the `MeshPair` they are taken on.
    """

    degree: int
    beta: tuple[float, float]
    reaction: float
    test_degree: int


def transport_form(m: int, beta, reaction: float) -> TransportForm:
    """The transport form with the degree-(m+1) test-search space."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (2,) or not abs(np.hypot(*beta) - 1.0) <= GEOM_TOL:
        raise ValueError("beta must be a finite unit vector in the plane")
    return TransportForm(m, (float(beta[0]), float(beta[1])), float(reaction), m + 1)


@lru_cache(maxsize=None)
def _moments(test_degree: int, levels: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference-cell moment matrices from which B_K and G_K are combined per cell.

    With b = J^-1 beta in reference coordinates, J the cell's Jacobian:

        B_K = |det J| ((1 + c^2) M + b_0^2 S_00 + b_1^2 S_11 + b_0 b_1 (S_01 + S_10)),
        G_K = |det J| (c P + b_0 T_0 + b_1 T_1).

    P holds (phi, v) in the phi columns and zero in the theta columns; T_d
    holds -(phi, d_d v) in the phi columns and (d_d theta, v) + (theta, d_d v)
    in the theta columns.  theta is extended into the cell by the Lagrange
    basis functions of its vertex and edge nodes (those of the interior
    nodes vanish on dK), and every test function v is continuous on the
    cell, piecewise polynomial on its subcells; beta is constant, so the
    divergence theorem gives
    <theta, (beta . n) v>_dK = (div(beta theta v), 1)_K = (beta . grad theta, v)_K + (theta, beta . grad v)_K.

    Returns `(gram_terms, form_terms)`: (M, S_00, S_11, S_01 + S_10), shape
    (4, N, N), and (P, T_0, T_1), shape (3, N, n_phi + n_theta), with the phi
    columns first.  N is the test space's cell-local size, and theta has
    `skeleton_size(m)` columns.  One triangle rule of exactness min(2 deg + 2,
    MAX_QUADRATURE_DEGREE) on every subcell is exact for every product here, of
    degree at most 2 deg, or deg + m - 1 in T_d, for m <= 4.  Read-only, cached.
    """
    test, phi, theta = lagrange_basis(test_degree), lagrange_basis(m - 1), lagrange_basis(m)
    table, nodes = submesh_dofs(test_degree, levels)
    jacobians, offsets = _subcell_maps(levels)
    quad = make_quadrature(min(2 * test_degree + 2, MAX_QUADRATURE_DEGREE))

    weights = np.abs(np.linalg.det(jacobians))[:, None] * quad.weights  # (pieces, nq)
    values = test.eval(quad.points)  # (nq, nt), the same on every piece
    # gradients in coarse reference coordinates, (pieces, nq, nt, 2)
    grads = np.einsum("qid,sde->sqie", test.grad(quad.points), np.linalg.inv(jacobians))
    points = (np.einsum("qd,sed->sqe", quad.points, jacobians) + offsets[:, None]).reshape(-1, 2)
    shape = weights.shape + (-1,)
    phi_values = phi.eval(points).reshape(shape)
    theta_values = theta.eval(points)[:, : skeleton_size(m)].reshape(shape)
    theta_grads = theta.grad(points)[:, : skeleton_size(m)].reshape(shape + (2,))

    # per-piece blocks, summed into the cell-local DOFs through the table
    mass = np.einsum("sq,qi,qj->sij", weights, values, values)
    stiff = np.einsum("sq,sqid,sqje->desij", weights, grads, grads)
    gram_pieces = np.stack([mass, stiff[0, 0], stiff[1, 1], stiff[0, 1] + stiff[1, 0]])
    gram_terms = np.zeros((4, len(nodes), len(nodes)))
    np.add.at(gram_terms, (slice(None), table[:, :, None], table[:, None, :]), gram_pieces)
    gram_terms = 0.5 * (gram_terms + gram_terms.transpose(0, 2, 1))

    form_terms = np.zeros((3, len(nodes), phi.size + theta_values.shape[-1]))
    trial = np.concatenate([-phi_values, theta_values], axis=-1)  # against d_d v in T_d
    transport = np.einsum("sq,sqid,sqj->dsij", weights, grads, trial)
    transport[..., phi.size :] += np.einsum("sq,qi,sqjd->dsij", weights, values, theta_grads)
    np.add.at(form_terms[0, :, : phi.size], table, np.einsum("sq,qi,sqj->sij", weights, values, phi_values))
    np.add.at(form_terms[1:], (slice(None), table), transport)
    for a in (gram_terms, form_terms):
        a.setflags(write=False)
    return gram_terms, form_terms


def _weighted_sum(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_t weights[..., t] terms[t], added term by term in a fixed order.

    One unoptimised einsum: its C loop adds the terms of each entry in the
    order t = 0, 1, ..., so every cell's sum is the same floating-point
    sequence whether it is computed alone or in a stack of any size.  A
    contraction over t by a GEMM would not promise that.
    """
    return np.einsum("...t,tij->...ij", weights, terms)


def _cell_geometry(form: TransportForm, cells, mesh_pair: MeshPair):
    """(|det J|, b = J^-1 beta) of the coarse cells `cells`, shapes (..., 1) and (..., 2)."""
    jac = mesh_pair.coarse.jacobians()[cells]
    det = np.abs(np.linalg.det(jac))[..., None]
    return det, np.linalg.solve(jac, np.asarray(form.beta))


def _cell_moments(form: TransportForm, mesh_pair: MeshPair) -> tuple[np.ndarray, np.ndarray]:
    return _moments(form.test_degree, mesh_pair.level, form.degree)


@dataclass(frozen=True)
class InnerProduct:
    """The broken graph-norm inner product on the test space of `form`, its mass term weighted by 1 + c^2."""

    form: TransportForm

    def local_gram(self, cells, mesh_pair: MeshPair) -> np.ndarray:
        """B_K of the coarse cells `cells`, stacked; rows and columns in the DOF order of `submesh_dofs`."""
        det, b = _cell_geometry(self.form, cells, mesh_pair)
        b0, b1 = b[..., :1], b[..., 1:]
        mass = np.full_like(b0, 1.0 + self.form.reaction**2)  # exactly 1.0 at c = 0
        weights = det * np.concatenate([mass, b0 * b0, b1 * b1, b0 * b1], axis=-1)
        return _weighted_sum(weights, _cell_moments(self.form, mesh_pair)[0])


@dataclass(frozen=True)
class BilinearForm:
    """The ultra-weak transport form tested against the test space of `form`."""

    form: TransportForm

    def local_matrix(self, cells, mesh_pair: MeshPair) -> np.ndarray:
        """G_K of the coarse cells `cells`, stacked.

        Rows as in `InnerProduct.local_gram`; columns the phi DOFs, then the theta DOFs.
        """
        det, b = _cell_geometry(self.form, cells, mesh_pair)
        weights = det * np.concatenate([self.form.reaction * np.ones_like(det), b], axis=-1)
        return _weighted_sum(weights, _cell_moments(self.form, mesh_pair)[1])


def local_saddle_blocks(form: TransportForm, cells, mesh_pair: MeshPair) -> tuple[np.ndarray, np.ndarray]:
    """(B_K, G_K) of the coarse cells `cells`, over the cell-local test DOFs.

    For an array of n cells the blocks are stacked, shapes (n, N, N) and
    (n, N, n_phi + n_theta); a single cell gives the two matrices.
    """
    return InnerProduct(form).local_gram(cells, mesh_pair), BilinearForm(form).local_matrix(cells, mesh_pair)


@lru_cache(maxsize=None)
def _load_rule(degree: int, levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load quadrature on every piece of the `levels`-times refined reference triangle.

    Returns `(points, loads, column_sums)`: the quadrature points of all
    pieces in coarse reference coordinates, shape (P, 2), the reference load
    matrix, shape (P, N), and its column sums, shape (N,).  Row q of the
    matrix holds the weight of point q, scaled by its piece's area ratio,
    times the piece's basis values there, in the columns of their cell-local
    DOFs of `submesh_dofs`; so `f @ loads` is the load on the reference cell
    of the point values f, and `column_sums` that of f = 1.  Read-only, cached.
    """
    quad = make_quadrature(min(degree + 4, MAX_QUADRATURE_DEGREE))
    jacobians, offsets = _subcell_maps(levels)
    table, nodes = submesh_dofs(degree, levels)
    points = (np.einsum("qd,sed->sqe", quad.points, jacobians) + offsets[:, None]).reshape(-1, 2)
    weights = np.abs(np.linalg.det(jacobians))[:, None] * quad.weights  # (pieces, nq)
    # each row is one point of one piece, whose DOFs are distinct: no entry is hit twice
    loads = np.zeros((len(points), len(nodes)))
    rows = np.arange(len(points)).reshape(weights.shape)
    loads[rows[:, :, None], table[:, None, :]] = weights[:, :, None] * lagrange_basis(degree).eval(quad.points)
    column_sums = loads.sum(axis=0)
    for a in (points, loads, column_sums):
        a.setflags(write=False)
    return points, loads, column_sums


def local_load(rhs_f, mesh_pair: MeshPair, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (l_K)_j = int_K f z^j of all coarse cells, as factors `(coefficients, basis)`.

    The loads, shape (n_cells, N), are `coefficients @ basis`, shapes
    (n_cells, r) and (r, N).  z^j are the degree-`degree` test functions on
    the refined cells of `mesh_pair`, in the DOF order of `submesh_dofs`.
    `rhs_f` is either a real number, the constant source f, or a callable.
    A constant gives every cell the load (2 f |K|) l, with l the column sums
    of the reference load matrix: r = 1, the coefficients are 2 f |K| and
    the basis is l.  No point is mapped and f is never evaluated.  A callable
    is called once, with the quadrature points of all cells as one (P, 2)
    array, and must return f there; the loads are its coefficients, and I_N
    its basis.
    """
    mesh = mesh_pair.coarse
    points, loads, column_sums = _load_rule(degree, mesh_pair.level)
    if not callable(rhs_f):
        return 2.0 * float(rhs_f) * mesh.areas()[:, None], column_sums[None, :]
    f = np.asarray(rhs_f(mesh.map_points(points).reshape(-1, 2)), dtype=float).reshape(mesh.n_cells, -1)
    return (2.0 * mesh.areas())[:, None] * (f @ loads), np.eye(loads.shape[1])
