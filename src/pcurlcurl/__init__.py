"""Edge-element solver and verification lab for the power-law curl-curl
problem: find a divergence-free field B with zero tangential trace such
that curl(|curl B|^(p-2) curl B) matches a given source.

The package couples a lowest-order edge-element discretization on
structured box meshes with a damped-Newton continuation solver, a
discrete Helmholtz projection, and numerical certification of the
supporting vector-calculus facts (power-map inequalities, Friedrich
constant, Green identities, scalar potentials).
"""

from .assembly import (EdgeField, NodalField, PExponent, assemble_gradient_map,
                       assemble_jacobian, assemble_load, assemble_residual,
                       edge_interpolate, lp_norm_curl, lp_norm_field, power_map)
from .helmholtz import DivFreeProjector, edge_mass_matrix
from .linalg import LinearSolveReport, SparseMatrix, cg, csr_matrix_from_coo
from .mesh import Mesh, MeshError, build_box_mesh, classify_boundary
from .mms import ManufacturedCase, case_general_p, case_p2_sine, measure_error
from .solver import SolveConfig, SolveReport, SolverError, energy, solve
from .verify import (FriedrichReport, InequalityReport, check_green_formulas,
                     check_ineq1, check_ineq2, check_inequalities,
                     default_smooth_pair, extract_scalar_potential,
                     friedrich_constant)
from .whitney import (QuadratureRule, cell_geometry, eval_basis, quadrature,
                      triangle_quadrature)

__version__ = "0.1.0"

__all__ = [
    "EdgeField", "NodalField", "PExponent", "Mesh", "MeshError",
    "SparseMatrix", "LinearSolveReport", "SolveConfig", "SolveReport",
    "SolverError", "ManufacturedCase", "InequalityReport", "FriedrichReport",
    "QuadratureRule", "DivFreeProjector",
    "build_box_mesh", "classify_boundary", "cell_geometry", "quadrature",
    "eval_basis", "triangle_quadrature",
    "cg", "csr_matrix_from_coo",
    "power_map", "assemble_residual", "assemble_jacobian",
    "assemble_gradient_map", "assemble_load", "edge_interpolate",
    "lp_norm_curl", "lp_norm_field", "edge_mass_matrix",
    "energy", "solve", "case_p2_sine", "case_general_p", "measure_error",
    "check_ineq1", "check_ineq2", "check_inequalities", "friedrich_constant",
    "check_green_formulas", "default_smooth_pair", "extract_scalar_potential",
]
