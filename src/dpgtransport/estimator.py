"""Localized a posteriori error estimator and exact-error tools.

The residual of the computed pair (phi_H, theta_H) is Riesz-lifted cell by
cell into an enriched broken polynomial space; the lift's norm squared,
rho_K^T Bbar_K^{-1} rho_K, is the local indicator.  Enriched test functions
are single polynomials per coarse cell, so all fine-face jumps cancel and
the cell form reduces to coarse-cell integrals.  The loads enter as the
factors of `local_load`, so a constant source adds one column to each lift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fem import DofMap, lagrange_basis, make_quadrature
from .forms import BilinearForm, InnerProduct, TransportForm, local_load
from .mesh import MeshPair
from .testspace import CHUNK_BYTES, _lift, class_chunks, class_products

ENRICHMENT_DEGREE = 5  # of the enriched space: degree 1 read eta/err 0.16-0.25 at levels 0-1 with m = 4


@dataclass(frozen=True)
class ErrorBreakdown:
    cell_indicators_sq: np.ndarray  # eta_K^2 per coarse cell
    eta: float


def a_posteriori_error(
    form: TransportForm,
    mesh_pair: MeshPair,
    dof_maps: tuple[DofMap, DofMap],
    solution: np.ndarray,
    rhs_f,
) -> ErrorBreakdown:
    """Per-cell indicators eta_K^2 = rho_K^T Bbar_K^{-1} rho_K and their total.

    With Bbar_K = L L^T and rho_K = Gbar_K u_K - l_K, eta_K^2 = |L^-1 rho_K|^2.
    The loads are l_K = c_K basis, the factors of `local_load`, so the lifts
    L^-1 [Gbar_K | -basis^T] are stacked per chunk of geometry classes and
    applied to the rows (u_K | c_K) of their classes' cells with one stacked
    matrix product per member count (`class_products`).
    """
    phi_map, theta_map = dof_maps
    n_phi = phi_map.ndofs
    if len(solution) != n_phi + theta_map.ndofs:
        raise ValueError("solution vector does not match the DOF maps")
    if not np.isfinite(solution).all():
        raise ValueError("solution vector is not finite")
    enriched = replace(form, test_degree=ENRICHMENT_DEGREE)
    whole_cells = MeshPair(mesh_pair.coarse, 0)  # one enriched polynomial per coarse cell
    u = solution[np.hstack([phi_map.cell_dofs, n_phi + theta_map.cell_dofs])]  # (n_cells, N)
    load_coefficients, basis = local_load(rhs_f, whole_cells, ENRICHMENT_DEGREE)
    cell_rows = np.hstack([u, load_coefficients])

    indicators = np.empty(mesh_pair.coarse.n_cells)
    for _, cells, members in class_chunks(mesh_pair.coarse, basis.shape[1], u.shape[1]):
        b_bar = InnerProduct(enriched).local_gram(cells, whole_cells)
        g_bar = BilinearForm(enriched).local_matrix(cells, whole_cells)
        lifts = _lift(b_bar, g_bar, -basis, cells, "enriched Gram matrix")[1].mT
        for member_cells, lifted in class_products(cell_rows, lifts, members):  # rows (L^-1 rho_K)^T
            indicators[member_cells] = np.einsum("...i,...i->...", lifted, lifted)
    return ErrorBreakdown(indicators, float(np.sqrt(indicators.sum())))


def exact_transport_solution(point, beta) -> np.ndarray:
    """Travel time to the inflow boundary along -beta; solves the f=1, c=0 ramp.

    Valid for strictly positive beta components, where the inflow boundary
    is {x=0} union {y=0} and the solution is min(x/beta_1, y/beta_2).
    """
    beta = np.asarray(beta, dtype=float)
    if beta[0] <= 0.0 or beta[1] <= 0.0:
        raise ValueError("the ramp formula requires strictly positive beta components")
    point = np.asarray(point, dtype=float)
    return np.minimum(point[..., 0] / beta[0], point[..., 1] / beta[1])


def l2_error(phi_coefficients: np.ndarray, exact, mesh_pair: MeshPair, phi_map: DofMap) -> float:
    """|| phi_H - exact ||_{L2} with degree-10 quadrature per coarse cell.

    The cells are taken in chunks whose mapped points take at most
    CHUNK_BYTES (455 cells at the rule's 36 points), so the memory held at
    once does not grow with the mesh.  `exact` is called once per chunk, on
    the chunk's points, shape (n, P, 2), and must act point by point on the
    last axis.  Each cell's weighted sum of squares is kept and the cells'
    sum taken once, at the end.
    """
    if len(phi_coefficients) != phi_map.ndofs:
        raise ValueError("coefficient vector does not match the phi space")
    basis = lagrange_basis(phi_map.degree)
    quad = make_quadrature(10)
    vals = basis.eval(quad.points)  # (nq, nloc), same on every cell

    mesh = mesh_pair.coarse
    step = max(1, CHUNK_BYTES // quad.points.nbytes)
    squares = np.empty(mesh.n_cells)  # sum over the points of weight * (phi_H - exact)^2, per cell
    for start in range(0, mesh.n_cells, step):
        cells = slice(start, start + step)
        diff = phi_coefficients[phi_map.cell_dofs[cells]] @ vals.T  # phi_H at the points, (n, nq)
        diff -= exact(mesh.map_points(quad.points, cells))
        squares[cells] = (diff * diff) @ quad.weights
    return float(np.sqrt(squares @ (2.0 * mesh.areas())))
