"""Global assembly of the system A x = F and its free-DOF mask.

Global unknowns are blocked by trial variable: all phi DOFs first, then all
theta DOFs.  Every constraint fixes a theta DOF to zero: the inflow trace and
the ill-posed characteristic trace.  Constraints only clear bits of the
system's free-DOF mask and leave A and F as assembled; the solve restricts
them to the free DOFs, where the matrix is an SPD principal submatrix of A,
and scatters the solution back with zeros on the fixed DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .fem import DofMap, SpaceKind, edge_nodes
from .forms import TransportForm, local_load
from .mesh import NEXT_VERTEX, MeshPair, TriMesh, edge_flux
from .testspace import cell_blocks, class_members, geometry_classes

CHARACTERISTIC_TOL = 1e-10


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_phi: int
    n_theta: int
    free: np.ndarray  # bool over all DOFs; False where a constraint fixes the DOF to 0

    @property
    def size(self) -> int:
        return self.n_phi + self.n_theta


def assemble(
    form: TransportForm,
    mesh_pair: MeshPair,
    dof_maps: tuple[DofMap, DofMap],
    rhs_f,
) -> GlobalSystem:
    """A = sum_K scatter(A_K), F = sum_K scatter(C_K^T l_K), one local solve per geometry class."""
    phi_map, theta_map = dof_maps
    n_phi, n_theta = phi_map.ndofs, theta_map.ndofs
    n = n_phi + n_theta
    gdofs = np.hstack([phi_map.cell_dofs, n_phi + theta_map.cell_dofs])  # (n_cells, N)
    representatives, inverse = geometry_classes(mesh_pair.coarse)
    loads = local_load(rhs_f, mesh_pair, form.test_space)

    blocks = []
    tested_loads = np.empty(gdofs.shape)
    for cell, members in zip(representatives, class_members(inverse)):
        coefficients, a_k = cell_blocks(cell, mesh_pair, form)
        blocks.append(a_k)
        tested_loads[members] = loads[members] @ coefficients

    size = gdofs.shape[1]
    rows, cols = np.repeat(gdofs, size, axis=1), np.tile(gdofs, size)
    matrix = sp.coo_matrix(
        (np.stack(blocks)[inverse].ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    rhs = np.bincount(gdofs.ravel(), weights=tested_loads.ravel(), minlength=n)
    return GlobalSystem(matrix, rhs, n_phi, n_theta, np.ones(n, dtype=bool))


def _fix_theta(system: GlobalSystem, dofs: np.ndarray) -> GlobalSystem:
    """`system` with the theta DOFs `dofs` (a mask or indices) taken off the free mask."""
    free = system.free.copy()
    free[system.n_phi :][dofs] = False
    return replace(system, free=free)


def _edge_flux(mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """beta . n on every cell edge, shape (n_cells, 3)."""
    v = mesh.vertices[mesh.cells]
    t = v[:, NEXT_VERTEX] - v
    return edge_flux(t, np.asarray(beta, dtype=float)) / np.hypot(t[..., 0], t[..., 1])


def _dofs_on_edges(theta_map: DofMap, edges: np.ndarray) -> np.ndarray:
    """Mark the theta DOFs on the cell edges flagged in `edges` (n_cells, 3)."""
    if theta_map.kind is not SpaceKind.CONTINUOUS:
        raise ValueError("edge DOFs need the continuous trace space")
    mask = np.zeros(theta_map.ndofs, dtype=bool)
    mask[theta_map.cell_dofs[:, edge_nodes(theta_map.degree)][edges]] = True
    return mask


def inflow_mask(theta_map: DofMap, mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """Mark theta DOFs on a boundary edge with beta . n < 0."""
    pairs = np.sort(np.stack([mesh.cells, mesh.cells[:, NEXT_VERTEX]], axis=-1), axis=-1)
    _, inverse, counts = np.unique(
        pairs[..., 0] * mesh.n_vertices + pairs[..., 1], return_inverse=True, return_counts=True
    )
    boundary = counts[inverse] == 1
    inflow = _edge_flux(mesh, beta) < -CHARACTERISTIC_TOL
    return _dofs_on_edges(theta_map, boundary & inflow)


def apply_dirichlet(system: GlobalSystem, mask: np.ndarray) -> GlobalSystem:
    """Fix the marked theta DOFs to zero."""
    if len(mask) != system.n_theta:
        raise ValueError("mask must be sized to the theta block")
    return _fix_theta(system, mask)


def characteristic_theta_dofs(theta_map: DofMap, mesh: TriMesh, beta: np.ndarray) -> np.ndarray:
    """Theta DOFs all of whose supporting edges satisfy |beta . n| <= tol.

    A DOF's supporting edges are the mesh edges its Lagrange node lies on;
    interior nodes (no edge at all) carry no trace weight and are included.
    """
    live = np.abs(_edge_flux(mesh, beta)) > CHARACTERISTIC_TOL
    return np.flatnonzero(~_dofs_on_edges(theta_map, live))


def pin_characteristic_dofs(
    system: GlobalSystem, theta_map: DofMap, mesh: TriMesh, beta: np.ndarray
) -> GlobalSystem:
    """Fix the ill-posed characteristic trace DOFs to zero."""
    return _fix_theta(system, characteristic_theta_dofs(theta_map, mesh, beta))
