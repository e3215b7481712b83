"""Global assembly of the condensed trace system S theta = g and its free-DOF mask.

Global unknowns are blocked by trial variable: all phi DOFs first, then all
theta DOFs.  phi is broken, so the phi block of A is block-diagonal per cell
and is eliminated cell by cell before any global scatter.  The columns
Y_K = L_K^-1 [G_K | basis^T] of `compute_coefficients`, phi, theta and load
in turn, have the Gram matrix H_K = Y_K^T Y_K = [[P, Q, F_phi^T],
[Q^T, R, F_theta^T], [F_phi, F_theta, .]].  With W_K = P^-1 Q and c_K the
cell's load coefficients of `local_load`, the theta columns of the Schur
complement of P in H_K are S_K = R - Q^T W_K over the load map
F_theta - F_phi W_K, and

    y_K = c_K F_phi P^-1,    g_K = c_K (F_theta - F_phi W_K),    phi_K = y_K - W_K theta_K.

P, W_K, S_K and the maps from c_K to (y_K | g_K) depend only on the
geometry class.  Every constraint fixes a theta DOF to zero: the inflow
trace and the ill-posed characteristic trace.
Constraints only clear bits of the system's free mask over theta and leave
S and g as assembled; the solve restricts them to the free DOFs, where the
matrix is an SPD principal submatrix of S, scatters theta back with zeros on
the fixed DOFs and recovers phi with `back_substitute`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .fem import DofMap, SpaceKind, edge_nodes
from .forms import TransportForm, local_load
from .mesh import MeshPair, TriMesh
from .solve import cholesky_solve
from .testspace import cell_blocks, class_chunks, class_products, factor_on_cells

CHARACTERISTIC_TOL = 1e-10


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix  # condensed trace matrix S, n_theta x n_theta
    rhs: np.ndarray  # condensed trace load g
    free: np.ndarray  # bool over the theta DOFs; False where a constraint fixes the DOF to 0
    coupling: np.ndarray  # W_K = P^-1 Q per geometry class, (n_classes, phi size, theta size)
    classes: np.ndarray  # geometry class of each cell
    phi_load: np.ndarray  # y_K = P^-1 f_phi per cell, (n_cells, phi size)
    gram_cond: float  # largest (max diag L / min diag L)^2 over the test-search Gram factors


def assemble(
    form: TransportForm,
    mesh_pair: MeshPair,
    dof_maps: tuple[DofMap, DofMap],
    rhs_f,
) -> GlobalSystem:
    """S = sum_K scatter(S_K), g = sum_K scatter(g_K), one local solve and condensation per geometry class.

    The classes' local algebra is stacked per chunk of `class_chunks`: H_K
    once, and one solve with P against H_K's phi rows [Q | F_phi^T], theta
    size + r columns for a load basis of r rows.  The loads (y_K | g_K) of a
    class's cells are their load coefficients times the class's
    r x (phi size + theta size) map, one stacked matrix product per member
    count of `class_products`.
    """
    phi_map, theta_map = dof_maps
    k = phi_map.cell_dofs.shape[1]  # phi DOFs per cell, first in Y_K
    theta_dofs = theta_map.cell_dofs  # (n_cells, theta size)
    n_theta, size = theta_map.ndofs, theta_dofs.shape[1]
    representatives, inverse = mesh_pair.coarse.geometry_classes
    load_coefficients, basis = local_load(rhs_f, mesh_pair, form.test_degree)

    blocks = np.empty((len(representatives), size, size))
    coupling = np.empty((len(representatives), k, size))
    cell_loads = np.empty((mesh_pair.coarse.n_cells, k + size))  # (y_K | g_K) per cell
    gram_cond = 1.0
    for classes, cells, members in class_chunks(mesh_pair.coarse, basis.shape[1], k + size):
        lower, lifted = cell_blocks(cells, mesh_pair, form, basis)
        h = lifted.mT @ lifted  # H_K
        p_lower = factor_on_cells(h[:, :k, :k], cells, "phi block")
        solved = cholesky_solve(p_lower, h[:, :k, k:])  # P^-1 [Q | F_phi^T]
        w = solved[:, :, :size]
        schur = h[:, k:, k : k + size] - h[:, k:, :k] @ w  # theta columns of P's Schur complement
        s_k = schur[:, :size]
        blocks[classes] = 0.5 * (s_k + s_k.mT)
        coupling[classes] = w
        load_maps = np.concatenate([solved[:, :, size:].mT, schur[:, size:]], axis=2)
        for member_cells, products in class_products(load_coefficients, load_maps, members):
            cell_loads[member_cells] = products
        diagonal = np.diagonal(lower, axis1=1, axis2=2)
        gram_cond = max(gram_cond, float(((diagonal.max(axis=1) / diagonal.min(axis=1)) ** 2).max()))

    # scipy stores the indices of a matrix this size as int32; int64 ones would be copied to it twice
    indices = theta_dofs.astype(np.int32 if n_theta <= np.iinfo(np.int32).max else np.int64)
    rows, cols = np.repeat(indices, size, axis=1), np.tile(indices, size)
    matrix = sp.coo_matrix(
        (blocks[inverse].ravel(), (rows.ravel(), cols.ravel())), shape=(n_theta, n_theta)
    ).tocsr()  # canonical: duplicates summed, indices sorted
    rhs = np.bincount(theta_dofs.ravel(), weights=cell_loads[:, k:].ravel(), minlength=n_theta)
    return GlobalSystem(
        matrix,
        rhs,
        free=np.ones(n_theta, dtype=bool),
        coupling=coupling,
        classes=inverse,
        phi_load=cell_loads[:, :k],
        gram_cond=gram_cond,
    )


def back_substitute(system: GlobalSystem, dof_maps: tuple[DofMap, DofMap], theta: np.ndarray) -> np.ndarray:
    """The full solution (phi, theta), with phi_K = y_K - W_K theta_K on every cell."""
    phi_map, theta_map = dof_maps
    x = np.empty(phi_map.ndofs + theta_map.ndofs)
    x[phi_map.cell_dofs] = system.phi_load - np.einsum(
        "cij,cj->ci", system.coupling[system.classes], theta[theta_map.cell_dofs]
    )
    x[phi_map.ndofs :] = theta
    return x


def _fix_theta(system: GlobalSystem, dofs: np.ndarray) -> GlobalSystem:
    """`system` with the theta DOFs `dofs` (a mask or indices) taken off the free mask."""
    free = system.free.copy()
    free[dofs] = False
    return replace(system, free=free)


def _edge_flux(mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """beta . n on every cell edge, shape (n_cells, 3).

    The outward normal of a CCW triangle's edge vector t is (t_y, -t_x) / |t|.
    """
    edges = mesh.edges
    return (beta[0] * edges.vectors[..., 1] - beta[1] * edges.vectors[..., 0]) / edges.lengths


def _dofs_on_edges(theta_map: DofMap, edges: np.ndarray) -> np.ndarray:
    """Mark the theta DOFs on the cell edges flagged in `edges` (n_cells, 3)."""
    if theta_map.kind is not SpaceKind.CONTINUOUS:
        raise ValueError("edge DOFs need the continuous trace space")
    mask = np.zeros(theta_map.ndofs, dtype=bool)
    mask[theta_map.cell_dofs[:, edge_nodes(theta_map.degree)][edges]] = True
    return mask


def inflow_mask(theta_map: DofMap, mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """Mark theta DOFs on a boundary edge with beta . n < 0."""
    inflow = _edge_flux(mesh, beta) < -CHARACTERISTIC_TOL
    return _dofs_on_edges(theta_map, mesh.edges.boundary & inflow)


def apply_dirichlet(system: GlobalSystem, mask: np.ndarray) -> GlobalSystem:
    """Fix the marked theta DOFs to zero."""
    if len(mask) != len(system.free):
        raise ValueError("mask must be sized to the theta block")
    return _fix_theta(system, mask)


def characteristic_theta_dofs(theta_map: DofMap, mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """Theta DOFs all of whose supporting edges satisfy |beta . n| <= tol.

    A DOF's supporting edges are the mesh edges its Lagrange node lies on.
    """
    live = np.abs(_edge_flux(mesh, beta)) > CHARACTERISTIC_TOL
    return np.flatnonzero(~_dofs_on_edges(theta_map, live))


def pin_characteristic_dofs(
    system: GlobalSystem, theta_map: DofMap, mesh: TriMesh, beta: np.ndarray
) -> GlobalSystem:
    """Fix the ill-posed characteristic trace DOFs to zero."""
    return _fix_theta(system, characteristic_theta_dofs(theta_map, mesh, beta))
