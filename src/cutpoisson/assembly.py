"""Assembly of the stabilized Nitsche system on the active mesh.

The bilinear form combines the bulk stiffness on the cut domain, symmetric
Nitsche boundary terms with penalty beta/h, and the ghost-penalty face
stabilization with derivative jumps up to order p. Cut-cell and boundary
terms are Gram products B^T B of sparse point operators B; inside cells and
ghost faces scatter one shared local matrix. Every sum runs in a fixed
order, so assembly is deterministic and its matrices exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import QpBasis, eval_axis_derivative, eval_basis
from .errors import MeshError
from .mesh import ActiveMesh
from .quadrature import (
    CutBoundaryRule,
    VolumeRuleSet,
    build_boundary_rules,
    build_volume_rules,
    gauss_legendre_1d,
    rule_batches,
)

__all__ = [
    "PenaltyParameters",
    "penalty_parameters",
    "DofMap",
    "build_dofmap",
    "SparseSystem",
    "point_basis",
    "assemble_bulk",
    "assemble_nitsche_boundary",
    "assemble_ghost_penalty",
    "assemble_system",
    "symmetry_error",
]


@dataclass(frozen=True)
class PenaltyParameters:
    """Nitsche penalty beta = 25 p^2 and ghost-penalty weights gamma_1..gamma_p."""

    beta: float
    gamma: np.ndarray


def penalty_parameters(p: int) -> PenaltyParameters:
    if p not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {p}")
    gamma = np.array([0.01 / (math.factorial(j - 1) ** 2 * j) for j in range(1, p + 1)])
    return PenaltyParameters(beta=25.0 * p * p, gamma=gamma)


@dataclass
class DofMap:
    """Continuous global numbering of the active elements' tensor nodes.

    ``element_dofs[row]`` are the (p+1)^2 global dofs of the active element in
    local lattice order; ``row_of_cell`` maps a grid cell id to its row (-1
    for inactive cells). Dof ids are dense in [0, n_dofs).
    """

    element_dofs: np.ndarray
    row_of_cell: np.ndarray
    n_dofs: int
    dof_coords: np.ndarray


def build_dofmap(am: ActiveMesh, p: int) -> DofMap:
    grid = am.grid
    gnx = p * grid.nx + 1
    nloc = (p + 1) ** 2
    ex = am.active % grid.nx
    ey = am.active // grid.nx
    ixl = np.arange(nloc) % (p + 1)
    iyl = np.arange(nloc) // (p + 1)
    gx = p * ex[:, None] + ixl[None, :]
    gy = p * ey[:, None] + iyl[None, :]
    raw = gy * gnx + gx
    unique, inverse = np.unique(raw, return_inverse=True)
    element_dofs = inverse.reshape(raw.shape).astype(np.int64)
    row_of_cell = np.full(grid.n_cells, -1, dtype=np.int64)
    row_of_cell[am.active] = np.arange(len(am.active))
    node_spacing = grid.h / p
    coords = np.column_stack(
        (
            grid.origin[0] + (unique % gnx) * node_spacing,
            grid.origin[1] + (unique // gnx) * node_spacing,
        )
    )
    return DofMap(
        element_dofs=element_dofs,
        row_of_cell=row_of_cell,
        n_dofs=len(unique),
        dof_coords=coords,
    )


@dataclass
class SparseSystem:
    """Symmetric sparse matrix and load vector over the active dofs."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def symmetry_error(a: sp.spmatrix) -> float:
    """max |A - A^T| relative to max |A|."""
    d = (a - a.T).tocoo()
    num = np.max(np.abs(d.data)) if d.nnz else 0.0
    den = np.max(np.abs(a.tocoo().data)) if a.nnz else 1.0
    return float(num / den) if den else 0.0


def _scatter(dofs: np.ndarray, local: np.ndarray, n_dofs: int) -> sp.csr_matrix:
    """Sum of one local matrix (k, k) placed at every dof row of dofs (m, k)."""
    m, k = dofs.shape
    rows = np.repeat(dofs, k, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, k)).reshape(-1)
    data = np.tile(local.reshape(-1), m)
    return sp.coo_matrix((data, (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()


def point_basis(basis: QpBasis, dofmap: DofMap, grid, points: np.ndarray, cells: np.ndarray):
    """Basis at physical points, each evaluated in its owning cell.

    Returns the shape function values (q, k), physical gradients (q, k, 2) and
    the owning elements' global dofs (q, k) as int32, from one ``eval_basis``
    call over all points. An inactive owning cell raises MeshError.
    """
    rows = dofmap.row_of_cell[cells]
    if np.any(rows < 0):
        raise MeshError(f"cell {cells[np.argmax(rows < 0)]} is not active")
    vals, grads = eval_basis(basis, (points - grid.cell_origin(cells)) / grid.h, grid.h)
    return vals, grads, dofmap.element_dofs[rows].astype(np.int32)


def _gram(data: np.ndarray, dofs: np.ndarray, n_dofs: int) -> sp.spmatrix:
    """B^T B for the sparse (q, n_dofs) point operator B whose row i holds data[i] at dofs[i]."""
    q, k = dofs.shape
    indptr = np.arange(0, q * k + 1, k, dtype=np.int32)
    b = sp.csr_matrix((data.reshape(-1), dofs.reshape(-1), indptr), shape=(q, n_dofs))
    return b.T @ b


def assemble_bulk(
    am: ActiveMesh, basis: QpBasis, f, rules: VolumeRuleSet, dofmap: DofMap
) -> SparseSystem:
    """Stiffness (grad u, grad v) and load (f, v) over element ∩ domain.

    ``f`` must accept coordinate arrays (x, y) and return an array. Inside
    elements share one precomputed local stiffness; cut elements add G^T G,
    with G stacking both gradient components of each point times sqrt(w).
    Each load is a bincount of w f v over the points' dofs.
    """
    grid = am.grid
    h = grid.h
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((n, n))
    rhs = np.zeros(n)
    for cells, rule in rule_batches(rules.cut):
        vals, grads, dofs = point_basis(basis, dofmap, grid, rule.points, cells)
        sqrt_w = np.sqrt(rule.weights)[:, None, None]
        matrix += _gram(sqrt_w * grads.transpose(0, 2, 1), np.repeat(dofs, 2, axis=0), n)
        wf = rule.weights * f(rule.points[:, 0], rule.points[:, 1])
        rhs += np.bincount(dofs.reshape(-1), (wf[:, None] * vals).reshape(-1), minlength=n)

    inside = am.inside_ids
    if len(inside):
        ref_pts = rules.inside_ref_points
        w = rules.inside_ref_weights * h * h
        vals, grads = eval_basis(basis, ref_pts, h)
        k_loc = np.einsum("q,qid,qjd->ij", w, grads, grads)
        dofs_in = dofmap.element_dofs[dofmap.row_of_cell[inside]]
        matrix += _scatter(dofs_in, k_loc, n)
        origins = grid.cell_origin(inside)
        pts = origins[:, None, :] + h * ref_pts[None, :, :]
        fv = f(pts[:, :, 0], pts[:, :, 1])
        loc_rhs = np.einsum("eq,q,qi->ei", fv, w, vals)
        rhs += np.bincount(dofs_in.reshape(-1), loc_rhs.reshape(-1), minlength=n)

    return SparseSystem(matrix=matrix, rhs=rhs)


def assemble_nitsche_boundary(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    rules: dict[int, CutBoundaryRule],
    dofmap: DofMap,
) -> sp.csr_matrix:
    """Symmetric Nitsche boundary terms on the polygonal boundary.

    Adds (beta/h)(u, v) - (grad_n u, v) - (u, grad_n v) over the boundary
    pieces as P^T P - Q^T Q, with P = s V - Q and Q = D_n / s times sqrt(w)
    for the values V, normal derivatives D_n and s = sqrt(beta/h): Q^T Q is
    the system's only negative term. Homogeneous Dirichlet data, no load.
    """
    n = dofmap.n_dofs
    s = math.sqrt(params.beta / am.grid.h)
    matrix = sp.csr_matrix((n, n))
    for cells, rule in rule_batches(rules):
        vals, grads, dofs = point_basis(basis, dofmap, am.grid, rule.points, cells)
        sqrt_w = np.sqrt(rule.weights)[:, None]
        q = sqrt_w * np.einsum("qd,qid->qi", rule.normals, grads) / s
        matrix += _gram(s * sqrt_w * vals - q, dofs, n) - _gram(q, dofs, n)
    return matrix


def _face_jumps(am: ActiveMesh, basis: QpBasis, params: PenaltyParameters, dofmap: DofMap):
    """Weighted jump operator of the ghost faces, one face orientation at a time.

    Yields (dofs, jump) for the x-normal, then the y-normal faces: ``dofs``
    (m, 2k) holds each face's low element's dofs, then its high element's;
    row (j, l) of ``jump`` (p(p+1), 2k) is sqrt(gamma_j h^(2j-1) w_l) times
    the jump of the j-th normal derivative at face Gauss point l. The uniform
    grid makes ``jump`` the same for every face of one orientation, so
    s_h(v, v) is the sum over orientations of ||v[dofs] jump^T||^2.
    """
    h = am.grid.h
    rule = gauss_legendre_1d(basis.p + 1)
    t = 0.5 * (rule.points + 1.0)
    orders = range(1, basis.p + 1)
    penalty = [params.gamma[j - 1] * h ** (2 * j - 1) for j in orders]
    scale = np.sqrt(np.outer(penalty, 0.5 * h * rule.weights)).reshape(-1, 1)
    faces = am.ghost_faces_arr
    for axis in (0, 1):
        sel = faces[faces[:, 2] == axis]
        dofs = dofmap.element_dofs[dofmap.row_of_cell[sel[:, :2]]].reshape(-1, 2 * basis.n_local)
        # The face is x = 1 of the low and x = 0 of the high element (y for axis 1).
        lo, hi = (np.column_stack((np.full_like(t, x), t))[:, :: 1 - 2 * axis] for x in (1.0, 0.0))
        d_lo, d_hi = (
            np.vstack([eval_axis_derivative(basis, pts, axis, j, h) for j in orders])
            for pts in (lo, hi)
        )
        yield dofs, scale * np.hstack((d_lo, -d_hi))


def assemble_ghost_penalty(
    am: ActiveMesh, basis: QpBasis, params: PenaltyParameters, dofmap: DofMap
) -> sp.csr_matrix:
    """Ghost-penalty stabilization over the faces touching cut elements.

    Each face adds J^T J of its orientation's weighted jump operator J: the
    jumps of the j-th normal derivatives, j = 1..p, with weight gamma_j h^(2j-1).
    """
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((n, n))
    for dofs, jump in _face_jumps(am, basis, params, dofmap):
        matrix += _scatter(dofs, jump.T @ jump, n)
    return matrix


def ghost_penalty_form(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    dofmap: DofMap,
    coefficients: np.ndarray,
) -> float:
    """Evaluate s_h(v, v) directly from the derivative jumps.

    Equivalent to the quadratic form of the assembled ghost matrix but
    numerically exact on jump-free functions: the jump values are formed
    first and then squared, so roundoff enters quadratically.
    """
    return sum(
        float(np.sum((coefficients[dofs] @ jump.T) ** 2))
        for dofs, jump in _face_jumps(am, basis, params, dofmap)
    )


def assemble_system(
    am: ActiveMesh, basis: QpBasis, params: PenaltyParameters, f
) -> tuple[SparseSystem, DofMap]:
    """Assemble the full stabilized Nitsche system A u = l.

    Quadrature of order 2p, which is not exact on cut cells. Against higher
    orders, the p=2 cut-cell stiffness is off by up to 9.6e-10 of the largest
    entry and the p=1 Nitsche matrix by up to 4.0e-7. Returns (system, dofmap).
    """
    p = basis.p
    dofmap = build_dofmap(am, p)
    vrules = build_volume_rules(am, 2 * p)
    brules = build_boundary_rules(am, 2 * p)
    bulk = assemble_bulk(am, basis, f, vrules, dofmap)
    matrix = bulk.matrix + assemble_nitsche_boundary(am, basis, params, brules, dofmap)
    matrix += assemble_ghost_penalty(am, basis, params, dofmap)
    return SparseSystem(matrix=matrix.tocsr(), rhs=bulk.rhs), dofmap
