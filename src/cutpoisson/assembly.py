"""Assembly of the stabilized Nitsche system on the active mesh.

The bilinear form combines the bulk stiffness on the cut domain, symmetric
Nitsche boundary terms with penalty beta/h, and the ghost-penalty face
stabilization with derivative jumps up to order p. Cut-cell and boundary
terms are products of sparse point operators; inside cells and ghost faces
scatter one shared local matrix. Every sum runs in a fixed order, so
assembly is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import QpBasis, eval_basis
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
    return vals, grads, dofmap.element_dofs.astype(np.int32)[rows]


def _point_operator(data: np.ndarray, dofs: np.ndarray, n_dofs: int) -> sp.csr_matrix:
    """Sparse (q, n_dofs) operator whose row i holds data[i] at dofs[i]."""
    q, k = dofs.shape
    indptr = np.arange(0, q * k + 1, k, dtype=np.int32)
    return sp.csr_matrix((data.reshape(-1), dofs.reshape(-1), indptr), shape=(q, n_dofs))


def assemble_bulk(
    am: ActiveMesh, basis: QpBasis, f, rules: VolumeRuleSet, dofmap: DofMap
) -> SparseSystem:
    """Stiffness (grad u, grad v) and load (f, v) over element ∩ domain.

    ``f`` must accept coordinate arrays (x, y) and return an array. Inside
    elements share one precomputed local stiffness. Cut elements use the
    point operators G_d (gradient components) and V (values) of their rules:
    sum_d G_d^T W G_d and V^T (w f), with sqrt(w) folded into each factor.
    """
    grid = am.grid
    h = grid.h
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((n, n))
    rhs = np.zeros(n)
    for cells, rule in rule_batches(rules.cut):
        vals, grads, dofs = point_basis(basis, dofmap, grid, rule.points, cells)
        sqrt_w = np.sqrt(rule.weights)[:, None]
        for d in (0, 1):
            g = _point_operator(sqrt_w * grads[:, :, d], dofs, n)
            matrix += g.T @ g
        wf = rule.weights * f(rule.points[:, 0], rule.points[:, 1])
        rhs += _point_operator(vals, dofs, n).T @ wf

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
        np.add.at(rhs, dofs_in, loc_rhs)

    return SparseSystem(matrix=matrix, rhs=rhs)


def assemble_nitsche_boundary(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    rules: dict[int, CutBoundaryRule],
    dofmap: DofMap,
) -> SparseSystem:
    """Symmetric Nitsche boundary terms on the polygonal boundary.

    Adds -(grad_n u, v) - (u, grad_n v) + (beta/h)(u, v) over the boundary
    pieces: (beta/h) V^T W V - C - C^T with C = V^T W D_n for the point
    operators V (values) and D_n (normal derivatives). Homogeneous Dirichlet
    data, so there is no right-hand side contribution.
    """
    h = am.grid.h
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((n, n))
    for cells, rule in rule_batches(rules):
        vals, grads, dofs = point_basis(basis, dofmap, am.grid, rule.points, cells)
        sqrt_w = np.sqrt(rule.weights)[:, None]
        v = _point_operator(sqrt_w * vals, dofs, n)
        d_n = np.einsum("qd,qid->qi", rule.normals, grads)
        consistency = v.T @ _point_operator(sqrt_w * d_n, dofs, n)
        matrix += (params.beta / h) * (v.T @ v) - consistency - consistency.T
    return SparseSystem(matrix=matrix, rhs=np.zeros(n))


def _face_derivative_rows(basis: QpBasis, h: float, axis: int):
    """Face Gauss weights (p+1 points) and the normal-derivative rows of both sides.

    Per derivative order j = 1..p, (d_lo, d_hi), each (q, (p+1)^2), map the
    low and the high element's local dofs to the j-th normal derivative.
    """
    p = basis.p
    nloc = (p + 1) ** 2
    rule = gauss_legendre_1d(p + 1)
    t = 0.5 * (rule.points + 1.0)
    w_face = 0.5 * h * rule.weights
    tang = basis.lagrange_1d(t)  # (q, p+1) values along the face
    rows = []
    for j in range(1, p + 1):
        end_lo = basis.lagrange_1d(np.array([1.0]), j)[0] / h**j  # low element side
        end_hi = basis.lagrange_1d(np.array([0.0]), j)[0] / h**j  # high element side
        if axis == 0:
            # x-normal face: tangential direction is y, local k = iy*(p+1)+ix.
            d_lo = tang[:, :, None] * end_lo[None, None, :]
            d_hi = tang[:, :, None] * end_hi[None, None, :]
        else:
            # y-normal face: tangential direction is x.
            d_lo = end_lo[None, :, None] * tang[:, None, :]
            d_hi = end_hi[None, :, None] * tang[:, None, :]
        rows.append((d_lo.reshape(len(t), nloc), d_hi.reshape(len(t), nloc)))
    return w_face, rows


def _face_jump_matrix(
    basis: QpBasis, params: PenaltyParameters, h: float, axis: int
) -> np.ndarray:
    """Shared local ghost matrix for all faces with the given normal axis.

    The face couples the two adjacent elements' (p+1)^2 dofs; by translation
    invariance of the uniform grid the matrix is identical for every face of
    one orientation.
    """
    nloc = (basis.p + 1) ** 2
    w_face, rows = _face_derivative_rows(basis, h, axis)
    m = np.zeros((2 * nloc, 2 * nloc))
    for j, (d_lo, d_hi) in enumerate(rows, start=1):
        jump = np.concatenate((d_lo, -d_hi), axis=1)
        m += params.gamma[j - 1] * h ** (2 * j - 1) * (jump.T @ (w_face[:, None] * jump))
    return m


def assemble_ghost_penalty(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    dofmap: DofMap,
) -> SparseSystem:
    """Ghost-penalty stabilization over the faces touching cut elements.

    For each face and derivative order j = 1..p the jump of the j-th normal
    derivative is integrated along the full face with weight gamma_j h^(2j-1).
    """
    h = am.grid.h
    n = dofmap.n_dofs
    matrix = sp.csr_matrix((n, n))
    faces = am.ghost_faces_arr
    for axis in (0, 1):
        sel = faces[faces[:, 2] == axis]
        m_face = _face_jump_matrix(basis, params, h, axis)
        dofs_lo = dofmap.element_dofs[dofmap.row_of_cell[sel[:, 0]]]
        dofs_hi = dofmap.element_dofs[dofmap.row_of_cell[sel[:, 1]]]
        matrix += _scatter(np.concatenate((dofs_lo, dofs_hi), axis=1), m_face, n)
    return SparseSystem(matrix=matrix, rhs=np.zeros(n))


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
    h = am.grid.h
    faces = am.ghost_faces_arr
    total = 0.0
    for axis in (0, 1):
        sel = faces[faces[:, 2] == axis]
        if not len(sel):
            continue
        c_lo = coefficients[dofmap.element_dofs[dofmap.row_of_cell[sel[:, 0]]]]
        c_hi = coefficients[dofmap.element_dofs[dofmap.row_of_cell[sel[:, 1]]]]
        w_face, rows = _face_derivative_rows(basis, h, axis)
        for j, (d_lo, d_hi) in enumerate(rows, start=1):
            jumps = c_lo @ d_lo.T - c_hi @ d_hi.T  # (n_faces, q)
            total += params.gamma[j - 1] * h ** (2 * j - 1) * float(
                np.sum(jumps**2 @ w_face)
            )
    return total


def assemble_system(
    am: ActiveMesh, basis: QpBasis, params: PenaltyParameters, f
) -> tuple[SparseSystem, DofMap]:
    """Assemble the full stabilized Nitsche system A u = l.

    Quadrature of order 2p, exact for the bilinear form on the polygonal
    geometry. Returns the system and the dof map.
    """
    p = basis.p
    dofmap = build_dofmap(am, p)
    vrules = build_volume_rules(am, 2 * p)
    brules = build_boundary_rules(am, 2 * p)
    bulk = assemble_bulk(am, basis, f, vrules, dofmap)
    nitsche = assemble_nitsche_boundary(am, basis, params, brules, dofmap)
    ghost = assemble_ghost_penalty(am, basis, params, dofmap)
    matrix = (bulk.matrix + nitsche.matrix + ghost.matrix).tocsr()
    return SparseSystem(matrix=matrix, rhs=bulk.rhs), dofmap
