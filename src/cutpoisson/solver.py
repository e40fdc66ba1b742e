"""Linear solve, reference solutions, and error norms on the cut domain.

The reference solutions are globally defined analytic expressions (a
truncated double series for the unit square with f = 1, a quadratic for the
unit disk), which also serve as the smooth extension when evaluating errors
on the perturbed domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (
    DofMap,
    PenaltyParameters,
    SparseSystem,
    ghost_penalty_form,
    penalty_parameters,
)
from .basis import QpBasis, eval_basis
from .errors import EvaluationError, SolverError
from .mesh import ActiveMesh
from .quadrature import build_boundary_rules, build_volume_rules

__all__ = [
    "solve_spd",
    "series_solution",
    "disk_solution",
    "ReferenceSolution",
    "DiscreteSolution",
    "ErrorNorms",
    "eval_discrete",
    "compute_error_norms",
    "galerkin_residual",
]

_RESIDUAL_TOL = 1e-12


def solve_spd(system: SparseSystem) -> np.ndarray:
    """Direct sparse solve with a relative residual contract of 1e-12.

    A residual above the tolerance after iterative refinement raises
    SolverError. The residual does not detect an indefinite matrix: LU solves
    an indefinite, nonsingular system to roundoff (the square on an unshifted
    grid has negative eigenvalues and a residual of 1e-15), so such a system
    is solved without error. See ROADMAP.md, open item 2.
    """
    a = system.matrix.tocsc()
    b = system.rhs
    if not np.all(np.isfinite(b)):
        raise SolverError("load vector contains non-finite entries")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    try:
        lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        x = lu.solve(b)
    except Exception as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    residual = np.linalg.norm(a @ x - b) / norm_b
    if residual > 0.1 * _RESIDUAL_TOL:
        # Iterative refinement with extended-precision residuals: on fine,
        # badly conditioned cut systems the double-precision residual
        # evaluation alone sits near the contract threshold.
        a_ext = a.astype(np.longdouble)
        b_ext = b.astype(np.longdouble)
        norm_b_ext = np.sqrt(np.sum(b_ext * b_ext))
        for _ in range(5):
            r_ext = b_ext - a_ext @ x.astype(np.longdouble)
            residual = float(np.sqrt(np.sum(r_ext * r_ext)) / norm_b_ext)
            if residual <= 0.1 * _RESIDUAL_TOL:
                break
            x = x + lu.solve(np.asarray(r_ext, dtype=np.float64))
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SolverError(f"relative residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    return x


def _sn_pair(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-safe sinh ratio S_n(t) and its derivative on [0, 1].

    S_n(t) = (sinh(n*pi*(1-t)) + sinh(n*pi*t)) / sinh(n*pi), written with
    exponentials of nonpositive argument so it never overflows.
    """
    a = n * np.pi
    e1 = np.exp(-a * t)
    e2 = np.exp(-a * (2.0 - t))
    e3 = np.exp(-a * (1.0 - t))
    e4 = np.exp(-a * (1.0 + t))
    den = 1.0 - np.exp(-2.0 * a)
    s = (e1 - e2 + e3 - e4) / den
    ds = a * (e3 + e4 - e1 - e2) / den
    return s, ds


def series_solution(points, n_terms: int = 50):
    """Truncated series solution of -Laplace(u) = 1 on the unit square.

    Sums the first ``n_terms`` odd-index terms. Returns (value, gradient)
    with shapes (m,) and (m, 2) for a batch, squeezed for a single point.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    val = (x * (1.0 - x) + y * (1.0 - y)) / 4.0
    gx = (1.0 - 2.0 * x) / 4.0
    gy = (1.0 - 2.0 * y) / 4.0
    for m in range(n_terms):
        n = 2 * m + 1
        c = 2.0 / (np.pi**3 * n**3)
        sx, dsx = _sn_pair(n, x)
        sy, dsy = _sn_pair(n, y)
        sin_x = np.sin(n * np.pi * x)
        cos_x = np.cos(n * np.pi * x)
        sin_y = np.sin(n * np.pi * y)
        cos_y = np.cos(n * np.pi * y)
        val -= c * (sy * sin_x + sx * sin_y)
        gx -= c * (sy * n * np.pi * cos_x + dsx * sin_y)
        gy -= c * (dsy * sin_x + sx * n * np.pi * cos_y)
    grad = np.column_stack((gx, gy))
    if np.asarray(points).ndim == 1:
        return float(val[0]), grad[0]
    return val, grad


def disk_solution(points):
    """u = (1 - x^2 - y^2)/4, the solution of -Laplace(u) = 1 on the unit disk."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    val = 0.25 * (1.0 - pts[:, 0] ** 2 - pts[:, 1] ** 2)
    grad = np.column_stack((-0.5 * pts[:, 0], -0.5 * pts[:, 1]))
    if np.asarray(points).ndim == 1:
        return float(val[0]), grad[0]
    return val, grad


class ReferenceSolution:
    """Exact solution with globally defined value and gradient."""

    def __init__(self, kind: str, value_fn, gradient_fn):
        self.kind = kind
        self._value = value_fn
        self._gradient = gradient_fn

    def value(self, points) -> np.ndarray:
        return self._value(np.atleast_2d(np.asarray(points, dtype=float)))

    def gradient(self, points) -> np.ndarray:
        return self._gradient(np.atleast_2d(np.asarray(points, dtype=float)))

    @classmethod
    def square_series(cls, n_terms: int = 50) -> "ReferenceSolution":
        if n_terms < 50:
            raise ValueError("square series reference requires at least 50 terms")
        return cls(
            kind=f"square_series_{n_terms}",
            value_fn=lambda p: series_solution(p, n_terms)[0],
            gradient_fn=lambda p: series_solution(p, n_terms)[1],
        )

    @classmethod
    def disk_quadratic(cls) -> "ReferenceSolution":
        return cls(
            kind="disk_quadratic",
            value_fn=lambda p: disk_solution(p)[0],
            gradient_fn=lambda p: disk_solution(p)[1],
        )

    @classmethod
    def from_callables(cls, value_fn, gradient_fn, kind: str = "custom"):
        """Reference from vectorized callables p -> (m,) and p -> (m, 2)."""
        return cls(kind=kind, value_fn=value_fn, gradient_fn=gradient_fn)


@dataclass
class DiscreteSolution:
    """Finite element coefficients tied to their dof map, basis, and mesh."""

    coefficients: np.ndarray
    dofmap: DofMap
    basis: QpBasis
    am: ActiveMesh

    def __post_init__(self):
        if len(self.coefficients) != self.dofmap.n_dofs:
            raise ValueError("coefficient vector length does not match dof count")


def _candidate_cells(am: ActiveMesh, x: float, y: float) -> list[int]:
    grid = am.grid
    gx = (x - grid.origin[0]) / grid.h
    gy = (y - grid.origin[1]) / grid.h
    tol = 1e-12 * max(1.0, abs(gx), abs(gy))

    def axis_candidates(g, n):
        base = int(np.floor(g))
        cands = {min(max(base, 0), n - 1)}
        if abs(g - round(g)) < tol:
            k = int(round(g))
            cands.update(c for c in (k - 1, k) if 0 <= c < n)
        return sorted(cands)

    return sorted(
        grid.cell_id(ix, iy)
        for ix in axis_candidates(gx, grid.nx)
        for iy in axis_candidates(gy, grid.ny)
    )


def eval_discrete(sol: DiscreteSolution, x):
    """Evaluate the discrete solution and its gradient at point(s).

    Points on shared element edges resolve to the lowest active element id;
    the value is identical from either side by continuity. Points outside the
    active mesh raise EvaluationError.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    grid = sol.am.grid
    vals = np.empty(len(pts))
    grads = np.empty((len(pts), 2))
    for i, (px, py) in enumerate(pts):
        eid = next(
            (
                c
                for c in _candidate_cells(sol.am, px, py)
                if sol.dofmap.row_of_cell[c] >= 0
            ),
            None,
        )
        if eid is None:
            raise EvaluationError(f"point ({px}, {py}) is outside the active mesh")
        origin = grid.cell_origin(eid)
        ref = (np.array([px, py]) - origin) / grid.h
        v, g = eval_basis(sol.basis, ref, grid.h)
        c = sol.coefficients[sol.dofmap.dofs_of(eid)]
        vals[i] = v @ c
        grads[i] = c @ g
    if np.asarray(x).ndim == 1:
        return float(vals[0]), grads[0]
    return vals, grads


@dataclass(frozen=True)
class ErrorNorms:
    """Energy norm, H1 seminorm, L2 norm, and the stabilization part.

    The energy norm is ||grad e||^2 + h ||grad_n e||^2 + (1/h) ||e||^2 + |e|_s^2
    over the cut domain and its polygonal boundary; the penalty weight beta is
    not included in the norm.
    """

    energy: float
    h1_semi: float
    l2: float
    stab_part: float


def galerkin_residual(system: SparseSystem, coefficients: np.ndarray) -> float:
    """max_i |A u - l|_i, to be compared against 1e-10 * ||l||."""
    r = system.matrix @ coefficients - system.rhs
    return float(np.max(np.abs(r))) if len(r) else 0.0


def compute_error_norms(
    sol: DiscreteSolution,
    ref: ReferenceSolution,
    params: PenaltyParameters | None = None,
    volume_order: int | None = None,
    boundary_order: int | None = None,
) -> ErrorNorms:
    """Error norms of e = u_exact - u_h over the polygonal domain ``sol.am.poly``.

    Error integrands exceed the assembly order, so the quadrature defaults to
    degree 2p+2. The stabilization part is s_h(u_h, u_h): the smooth exact
    solution has no derivative jumps across faces, so this equals the
    stabilization seminorm of the error.
    """
    am = sol.am
    basis = sol.basis
    p = basis.p
    h = am.grid.h
    if params is None:
        params = penalty_parameters(p)
    if volume_order is None:
        volume_order = 2 * p + 2
    if boundary_order is None:
        boundary_order = 2 * p + 2

    vrules = build_volume_rules(am, volume_order)
    grad_sq = 0.0
    val_sq = 0.0

    inside = am.inside_ids
    if len(inside):
        ref_pts = vrules.inside_ref_points
        w = vrules.inside_ref_weights * h * h
        vals, grads = eval_basis(basis, ref_pts, h)
        dofs_in = sol.dofmap.element_dofs[sol.dofmap.row_of_cell[inside]]
        coeff = sol.coefficients[dofs_in]
        origins = am.grid.cell_origin(inside)
        pts = (origins[:, None, :] + h * ref_pts[None, :, :]).reshape(-1, 2)
        uh_val = coeff @ vals.T  # (nE, q)
        uh_grad = np.einsum("ei,qid->eqd", coeff, grads)
        e_val = ref.value(pts).reshape(uh_val.shape) - uh_val
        e_grad = ref.gradient(pts).reshape(uh_grad.shape) - uh_grad
        val_sq += float(np.einsum("eq,q->", e_val**2, w))
        grad_sq += float(np.einsum("eqd,q->", e_grad**2, w))

    cut_pts, cut_slices = [], []
    for eid in am.cut_ids:
        rule = vrules.cut[int(eid)]
        if rule.weights.size:
            cut_pts.append(rule.points)
            cut_slices.append((int(eid), rule))
    if cut_pts:
        all_pts = np.concatenate(cut_pts)
        ref_val = ref.value(all_pts)
        ref_grad = ref.gradient(all_pts)
        pos = 0
        for eid, rule in cut_slices:
            q = len(rule.weights)
            origin = am.grid.cell_origin(eid)
            refc = (rule.points - origin) / h
            vals, grads = eval_basis(basis, refc, h)
            c = sol.coefficients[sol.dofmap.dofs_of(eid)]
            e_val = ref_val[pos : pos + q] - vals @ c
            e_grad = ref_grad[pos : pos + q] - np.einsum("i,qid->qd", c, grads)
            val_sq += float(np.sum(rule.weights * e_val**2))
            grad_sq += float(np.sum(rule.weights * np.sum(e_grad**2, axis=1)))
            pos += q

    brules = build_boundary_rules(am, boundary_order)
    flux_sq = 0.0
    trace_sq = 0.0
    if brules:
        bpts = np.concatenate([r.points for r in brules.values()])
        ref_val_b = ref.value(bpts)
        ref_grad_b = ref.gradient(bpts)
        pos = 0
        for eid in brules:
            rule = brules[eid]
            q = len(rule.weights)
            origin = am.grid.cell_origin(eid)
            refc = (rule.points - origin) / h
            vals, grads = eval_basis(basis, refc, h)
            c = sol.coefficients[sol.dofmap.dofs_of(eid)]
            e_val = ref_val_b[pos : pos + q] - vals @ c
            e_grad = ref_grad_b[pos : pos + q] - np.einsum("i,qid->qd", c, grads)
            e_flux = np.einsum("qd,qd->q", rule.normals, e_grad)
            trace_sq += float(np.sum(rule.weights * e_val**2))
            flux_sq += float(np.sum(rule.weights * e_flux**2))
            pos += q

    stab_sq = max(ghost_penalty_form(am, basis, params, sol.dofmap, sol.coefficients), 0.0)

    energy = float(np.sqrt(grad_sq + h * flux_sq + trace_sq / h + stab_sq))
    return ErrorNorms(
        energy=energy,
        h1_semi=float(np.sqrt(grad_sq)),
        l2=float(np.sqrt(val_sq)),
        stab_part=float(np.sqrt(stab_sq)),
    )
