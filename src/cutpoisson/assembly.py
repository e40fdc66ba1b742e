"""Assembly of the stabilized Nitsche system on the active mesh.

The bilinear form combines the bulk stiffness on the cut domain, symmetric
Nitsche boundary terms with penalty beta/h, and the ghost-penalty face
stabilization with derivative jumps up to order p. All contributions are
accumulated as triplets in a fixed element order and summed into CSR form,
so assembly is deterministic.
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
)

__all__ = [
    "PenaltyParameters",
    "penalty_parameters",
    "DofMap",
    "build_dofmap",
    "SparseSystem",
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

    p: int
    element_ids: np.ndarray
    element_dofs: np.ndarray
    row_of_cell: np.ndarray
    n_dofs: int
    dof_coords: np.ndarray

    def dofs_of(self, cell_id: int) -> np.ndarray:
        row = self.row_of_cell[cell_id]
        if row < 0:
            raise MeshError(f"cell {cell_id} is not active")
        return self.element_dofs[row]


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
        p=p,
        element_ids=am.active.copy(),
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


class _TripletBuffer:
    def __init__(self, n_dofs: int):
        self.n = n_dofs
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.data: list[np.ndarray] = []

    def add_dense(self, dofs: np.ndarray, local: np.ndarray):
        """Scatter one dense local matrix (k, k) at dof vector (k,)."""
        k = len(dofs)
        self.rows.append(np.repeat(dofs, k))
        self.cols.append(np.tile(dofs, k))
        self.data.append(local.reshape(-1))

    def add_batch(self, dofs: np.ndarray, local: np.ndarray):
        """Scatter local matrices for a batch: dofs (m, k), local (m, k, k) or (k, k)."""
        m, k = dofs.shape
        rows = np.repeat(dofs, k, axis=1).reshape(-1)
        cols = np.tile(dofs, (1, k)).reshape(-1)
        if local.ndim == 2:
            data = np.tile(local.reshape(-1), m)
        else:
            data = local.reshape(-1)
        self.rows.append(rows)
        self.cols.append(cols)
        self.data.append(data)

    def to_csr(self) -> sp.csr_matrix:
        if not self.rows:
            return sp.csr_matrix((self.n, self.n))
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        data = np.concatenate(self.data)
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsr()


def assemble_bulk(
    am: ActiveMesh, basis: QpBasis, f, rules: VolumeRuleSet, dofmap: DofMap
) -> SparseSystem:
    """Stiffness (grad u, grad v) and load (f, v) over element ∩ domain.

    ``f`` must accept coordinate arrays (x, y) and return an array. Inside
    elements share one precomputed local stiffness; cut elements use their
    individual rules.
    """
    grid = am.grid
    h = grid.h
    buf = _TripletBuffer(dofmap.n_dofs)
    rhs = np.zeros(dofmap.n_dofs)

    inside = am.inside_ids
    if len(inside):
        ref_pts = rules.inside_ref_points
        w = rules.inside_ref_weights * h * h
        vals, grads = eval_basis(basis, ref_pts, h)
        k_loc = np.einsum("q,qid,qjd->ij", w, grads, grads)
        dofs_in = dofmap.element_dofs[dofmap.row_of_cell[inside]]
        buf.add_batch(dofs_in, k_loc)
        origins = grid.cell_origin(inside)
        pts = origins[:, None, :] + h * ref_pts[None, :, :]
        fv = f(pts[:, :, 0], pts[:, :, 1])
        loc_rhs = np.einsum("eq,q,qi->ei", fv, w, vals)
        np.add.at(rhs, dofs_in, loc_rhs)

    for eid in am.cut_ids:
        rule = rules.cut[int(eid)]
        if rule.weights.size == 0:
            continue
        origin = grid.cell_origin(int(eid))
        ref = (rule.points - origin) / h
        vals, grads = eval_basis(basis, ref, h)
        k_loc = np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)
        dofs = dofmap.dofs_of(int(eid))
        buf.add_dense(dofs, k_loc)
        fv = f(rule.points[:, 0], rule.points[:, 1])
        np.add.at(rhs, dofs, vals.T @ (fv * rule.weights))

    return SparseSystem(matrix=buf.to_csr(), rhs=rhs)


def assemble_nitsche_boundary(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    rules: dict[int, CutBoundaryRule],
    dofmap: DofMap,
) -> SparseSystem:
    """Symmetric Nitsche boundary terms on the polygonal boundary.

    Adds -(grad_n u, v) - (u, grad_n v) + (beta/h)(u, v) over the boundary
    pieces of each owning element. Homogeneous Dirichlet data, so there is no
    right-hand side contribution.
    """
    grid = am.grid
    h = grid.h
    buf = _TripletBuffer(dofmap.n_dofs)
    for eid in sorted(rules):
        rule = rules[eid]
        if rule.weights.size == 0:
            continue
        if dofmap.row_of_cell[eid] < 0:
            raise MeshError(f"boundary rule assigned to inactive cell {eid}")
        origin = grid.cell_origin(eid)
        ref = (rule.points - origin) / h
        vals, grads = eval_basis(basis, ref, h)
        normal_deriv = np.einsum("qd,qid->qi", rule.normals, grads)
        w = rule.weights
        consistency = vals.T @ (w[:, None] * normal_deriv)
        penalty = (params.beta / h) * (vals.T @ (w[:, None] * vals))
        local = penalty - consistency - consistency.T
        buf.add_dense(dofmap.dofs_of(eid), local)
    return SparseSystem(matrix=buf.to_csr(), rhs=np.zeros(dofmap.n_dofs))


def _face_derivative_rows(basis: QpBasis, h: float, axis: int, n_points: int):
    """Face Gauss weights and the normal-derivative rows of both face sides.

    Per derivative order j = 1..p, (d_lo, d_hi), each (q, (p+1)^2), map the
    low and the high element's local dofs to the j-th normal derivative.
    """
    p = basis.p
    nloc = (p + 1) ** 2
    rule = gauss_legendre_1d(n_points)
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
    basis: QpBasis, params: PenaltyParameters, h: float, axis: int, n_points: int
) -> np.ndarray:
    """Shared local ghost matrix for all faces with the given normal axis.

    The face couples the two adjacent elements' (p+1)^2 dofs; by translation
    invariance of the uniform grid the matrix is identical for every face of
    one orientation.
    """
    nloc = (basis.p + 1) ** 2
    w_face, rows = _face_derivative_rows(basis, h, axis, n_points)
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
    n_face_points: int | None = None,
) -> SparseSystem:
    """Ghost-penalty stabilization over the faces touching cut elements.

    For each face and derivative order j = 1..p the jump of the j-th normal
    derivative is integrated along the full face with weight gamma_j h^(2j-1).
    """
    if n_face_points is None:
        n_face_points = basis.p + 1
    h = am.grid.h
    buf = _TripletBuffer(dofmap.n_dofs)
    faces = am.ghost_faces_arr
    for axis in (0, 1):
        sel = faces[faces[:, 2] == axis]
        if not len(sel):
            continue
        m_face = _face_jump_matrix(basis, params, h, axis, n_face_points)
        dofs_lo = dofmap.element_dofs[dofmap.row_of_cell[sel[:, 0]]]
        dofs_hi = dofmap.element_dofs[dofmap.row_of_cell[sel[:, 1]]]
        buf.add_batch(np.concatenate((dofs_lo, dofs_hi), axis=1), m_face)
    return SparseSystem(matrix=buf.to_csr(), rhs=np.zeros(dofmap.n_dofs))


def ghost_penalty_form(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    dofmap: DofMap,
    coefficients: np.ndarray,
    n_face_points: int | None = None,
) -> float:
    """Evaluate s_h(v, v) directly from the derivative jumps.

    Equivalent to the quadratic form of the assembled ghost matrix but
    numerically exact on jump-free functions: the jump values are formed
    first and then squared, so roundoff enters quadratically.
    """
    if n_face_points is None:
        n_face_points = basis.p + 1
    h = am.grid.h
    faces = am.ghost_faces_arr
    total = 0.0
    for axis in (0, 1):
        sel = faces[faces[:, 2] == axis]
        if not len(sel):
            continue
        c_lo = coefficients[dofmap.element_dofs[dofmap.row_of_cell[sel[:, 0]]]]
        c_hi = coefficients[dofmap.element_dofs[dofmap.row_of_cell[sel[:, 1]]]]
        w_face, rows = _face_derivative_rows(basis, h, axis, n_face_points)
        for j, (d_lo, d_hi) in enumerate(rows, start=1):
            jumps = c_lo @ d_lo.T - c_hi @ d_hi.T  # (n_faces, q)
            total += params.gamma[j - 1] * h ** (2 * j - 1) * float(
                np.sum(jumps**2 @ w_face)
            )
    return total


def assemble_system(
    am: ActiveMesh,
    basis: QpBasis,
    params: PenaltyParameters,
    f,
    volume_order: int | None = None,
    boundary_order: int | None = None,
) -> tuple[SparseSystem, DofMap]:
    """Assemble the full stabilized Nitsche system A u = l.

    Quadrature orders default to 2p, exact for the bilinear form on the
    polygonal geometry. Returns the system and the dof map.
    """
    p = basis.p
    if volume_order is None:
        volume_order = 2 * p
    if boundary_order is None:
        boundary_order = 2 * p
    dofmap = build_dofmap(am, p)
    vrules = build_volume_rules(am, volume_order)
    brules = build_boundary_rules(am, boundary_order)
    bulk = assemble_bulk(am, basis, f, vrules, dofmap)
    nitsche = assemble_nitsche_boundary(am, basis, params, brules, dofmap)
    ghost = assemble_ghost_penalty(am, basis, params, dofmap)
    matrix = (bulk.matrix + nitsche.matrix + ghost.matrix).tocsr()
    return SparseSystem(matrix=matrix, rhs=bulk.rhs), dofmap
