"""DPG solver for first-order linear transport with near-optimal test spaces."""

from .assembly import (
    GlobalSystem,
    apply_dirichlet,
    assemble,
    back_substitute,
    inflow_mask,
    pin_characteristic_dofs,
)
from .estimator import ErrorBreakdown, a_posteriori_error, exact_transport_solution, l2_error
from .fem import DofMap, SpaceKind, build_dof_map, lagrange_basis, make_quadrature
from .forms import TransportForm, local_load, local_saddle_blocks, transport_form
from .mesh import MeshPair, TriMesh, build_uniform_mesh, refine_cell
from .solve import CgReport, cg_solve, cholesky_factor, cholesky_solve

__all__ = [
    "CgReport",
    "DofMap",
    "ErrorBreakdown",
    "GlobalSystem",
    "MeshPair",
    "SpaceKind",
    "TransportForm",
    "TriMesh",
    "a_posteriori_error",
    "apply_dirichlet",
    "assemble",
    "back_substitute",
    "build_dof_map",
    "build_uniform_mesh",
    "cg_solve",
    "cholesky_factor",
    "cholesky_solve",
    "exact_transport_solution",
    "inflow_mask",
    "l2_error",
    "lagrange_basis",
    "local_load",
    "local_saddle_blocks",
    "make_quadrature",
    "pin_characteristic_dofs",
    "refine_cell",
    "transport_form",
]
