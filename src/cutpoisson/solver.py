"""Linear solve, reference solutions, and error norms on the cut domain.

The reference solutions are globally defined analytic expressions (a
truncated double series for the unit square with f = 1, a quadratic for the
unit disk), which also serve as the smooth extension when evaluating errors
on the perturbed domain. A reference evaluates value and gradient together,
once per point set; the series steps its terms by multiplication. The
inside cells' points form a tensor lattice, on which the series factors
into per-axis tables and matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    DofMap,
    PenaltyParameters,
    SparseSystem,
    _scatter,
    ghost_penalty_form,
    point_basis,
)
from .basis import QpBasis, eval_basis
from .errors import EvaluationError, SolverError
from .mesh import ActiveMesh
from .quadrature import build_boundary_rules, build_volume_rules, rule_batches

__all__ = [
    "solve_spd",
    "series_solution",
    "series_on_lattice",
    "disk_solution",
    "ReferenceSolution",
    "DiscreteSolution",
    "ErrorNorms",
    "eval_discrete",
    "compute_error_norms",
    "galerkin_residual",
]

_RESIDUAL_TOL = 1e-12

# SuperLU arguments of the factor in solve_spd: the caller's numbering as
# the elimination order, with diagonal pivots only, so the factor A = L U
# keeps that numbering and its fill depends on it. build_dofmap numbers the
# dofs in nested-dissection order for this.
FACTOR_OPTIONS = {
    "permc_spec": "NATURAL",
    "options": {"SymmetricMode": True, "DiagPivotThresh": 0.0},
}


def condense(a: sp.csr_matrix, boxes: np.ndarray):
    """Eliminate the interiors of ``boxes`` (``DofMap.clean_boxes``) from the CSR matrix a.

    I is a box lattice's interior, B its outer ring. All boxes share the first's
    A_II = L L^T and A_IB; with Y = L^-1 A_IB, the Schur complement onto B is
    C = Y^T Y, symmetrized. Returns S = A[R, R] - the sum of the C blocks
    (exactly symmetric: a pair of B dofs lies in at most two boxes), the dofs
    R outside every I, the ``cho_factor`` of A_II, X = A_II^-1 A_IB, and the
    I and B dofs as (|I|, boxes) and (|B|, boxes) tables, row-major per box.
    """
    ring = np.pad(np.zeros(np.subtract(boxes.shape[1:], 2), dtype=bool), 1, constant_values=True)
    # Box-major (Fortran) tables: X^T b_I's BLAS path depends on rhs[inner]'s order.
    inner, outer = (np.asfortranarray(boxes[:, m].T) for m in (~ring, ring))
    a_i = a[inner[:, 0]]
    chol = scipy.linalg.cho_factor(a_i[:, inner[:, 0]].toarray(), lower=True)
    y = scipy.linalg.solve_triangular(chol[0], a_i[:, outer[:, 0]].toarray(), lower=True)
    c = y.T @ y
    kept = np.ones(a.shape[0], dtype=bool)
    kept[inner] = False
    rows = np.flatnonzero(kept)
    # A[R, R] in one masked pass: a removed row keeps no entry, so a kept row
    # starts at the count of kept entries before it.
    mask = np.repeat(kept, np.diff(a.indptr)) & kept[a.indices]
    indptr = np.concatenate(([0], np.cumsum(mask)))[a.indptr[np.append(rows, len(kept))]]
    new = np.cumsum(kept, dtype=a.indices.dtype) - 1
    a_rr = sp.csr_matrix((a.data[mask], new[a.indices[mask]], indptr), shape=(len(rows),) * 2)
    s = a_rr - _scatter(new[outer.T], 0.5 * (c + c.T), len(rows))
    x_ib = scipy.linalg.solve_triangular(chol[0], y, lower=True, trans="T")
    return s, rows, chol, x_ib, inner, outer


def solve_spd(system: SparseSystem) -> np.ndarray:
    """Direct sparse solve with a relative residual contract of 1e-12.

    With ``system.clean_boxes`` the factor is that of :func:`condense`'s S,
    and x_I = A_II^-1 b_I - X x_B recovers the interiors. SuperLU reads the
    CSR arrays of S (or A) as CSC: the transpose, the same exactly symmetric
    matrix, without a copy. The factor is L U with diagonal pivots in the
    matrix's own numbering (FACTOR_OPTIONS), which an SPD matrix always
    admits. The fill therefore depends on the numbering: ``build_dofmap``
    numbers the dofs in nested-dissection order, which S keeps. SuperLU
    swaps rows only where a diagonal pivot is exactly zero; the factor then
    has perm_r != perm_c, and SolverError is raised before the solve. An
    exactly singular factor, and a residual of the returned x on the full A
    above the tolerance after iterative refinement, raise SolverError too.

    No check detects an indefinite matrix with nonzero pivots: it is
    solved to roundoff without error (so is [[1, 2], [2, 1]], and so is the
    square on an unshifted grid, whose system has negative eigenvalues).
    """
    a = s = system.matrix.tocsr()
    b = system.rhs
    if not np.all(np.isfinite(b)):
        raise SolverError("load vector contains non-finite entries")
    if not np.any(b):
        return np.zeros_like(b)
    try:
        if system.clean_boxes is not None and len(system.clean_boxes):
            s, kept, chol, x_ib, inner, outer = condense(a, system.clean_boxes)
        s_as_csc = sp.csc_matrix((s.data, s.indices, s.indptr), shape=s.shape)
        lu = spla.splu(s_as_csc, **FACTOR_OPTIONS)
    except Exception as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("sparse factorization needed an off-diagonal pivot (zero diagonal pivot)")
    solve = lu.solve
    if s is not a:
        def solve(rhs):
            # S x_R = b_R - the sum of X^T b_I, as A_BI A_II^-1 = X^T.
            g = rhs - np.bincount(outer.ravel(), (x_ib.T @ rhs[inner]).ravel(), len(rhs))
            x = np.empty_like(rhs)
            x[kept] = lu.solve(g[kept])
            x[inner] = scipy.linalg.cho_solve(chol, rhs[inner]) - x_ib @ x[outer]
            return x

    x = solve(b)
    # Iterative refinement with extended-precision residuals of the full A, by
    # row blocks: on fine cut systems a double-precision residual alone sits
    # near the contract. x is stored in double precision, which floors the
    # residual: once a correction no longer halves it, the best x is returned.
    b_ext = b.astype(np.longdouble)
    norm_b_ext = np.sqrt(np.sum(b_ext * b_ext))
    best = (np.inf, x)
    for corrections in range(6):
        x_ext, r_ext = x.astype(np.longdouble), b_ext.copy()
        for lo in range(0, len(b), 8192):
            r_ext[lo : lo + 8192] -= a[lo : lo + 8192].astype(np.longdouble) @ x_ext
        residual = float(np.sqrt(np.sum(r_ext * r_ext)) / norm_b_ext)
        stalled = residual > 0.5 * best[0]
        best = min(best, (residual, x), key=lambda pair: pair[0])
        if stalled or residual <= 0.1 * _RESIDUAL_TOL or corrections == 5:
            break
        x = x + solve(np.asarray(r_ext, dtype=np.float64))
    residual, x = best
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SolverError(f"relative residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    return x


def _series_terms(t: np.ndarray, n_terms: int):
    """Yield the coefficients and per-axis factors of the terms n = 1, 3, ...

    Each item is (c, c n pi, S_n, S_n' / (n pi), sin(n pi t), cos(n pi t)),
    the factors shaped like t, both S factors without the 1 + e^{-n pi} that c
    holds. S_n(t) = (e^{-n pi t} + e^{-n pi (1-t)}) / (1 + e^{-n pi}). The two
    exponentials and cos + i sin(n pi t) step from n to n + 2 by
    multiplication, so the loop evaluates no transcendental. Outside [0, 1]
    the e^{-n pi t} factor grows and is stepped like any other: exact to
    roundoff for the studies' overshoot of <= 1%.
    """
    pit = np.pi * t
    e_lo = np.exp(-pit)  # e^{-n pi t}
    e_hi = np.exp(pit - np.pi)  # e^{-n pi (1-t)}
    rot = np.exp(1j * pit)  # cos(n pi t) + i sin(n pi t)
    step_lo, step_hi, step_rot = e_lo * e_lo, e_hi * e_hi, rot * rot
    n = np.arange(1, 2 * n_terms, 2)
    coef = 2.0 / (np.pi**3 * n**3 * (1.0 + np.exp(-np.pi * n)))
    for c, cn in zip(coef, coef * n * np.pi):
        yield c, cn, e_lo + e_hi, e_hi - e_lo, rot.imag, rot.real
        e_lo, e_hi, rot = e_lo * step_lo, e_hi * step_hi, rot * step_rot


def series_solution(points, n_terms: int = 50):
    """Truncated series solution of -Laplace(u) = 1 on the unit square.

    Sums the first ``n_terms`` odd-index terms. Returns (value, gradient) of
    shapes (m,) and (m, 2); a (2,) point gives arrays of length 1.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    val = (x * (1.0 - x) + y * (1.0 - y)) / 4.0
    gx = (1.0 - 2.0 * x) / 4.0
    gy = (1.0 - 2.0 * y) / 4.0
    for c, cn, s, ds, sin, cos in _series_terms(np.ascontiguousarray(pts.T), n_terms):
        # Row 0 holds the x axis' factors, row 1 the y axis'.
        val -= c * (s[1] * sin[0] + s[0] * sin[1])
        gx -= cn * (s[1] * cos[0] + ds[0] * sin[1])
        gy -= cn * (ds[1] * sin[0] + s[0] * cos[1])
    return val, np.column_stack((gx, gy))


def series_on_lattice(xs, ys, ix, iy, n_terms: int = 50):
    """``series_solution`` at the points (xs[ix], ys[iy]) of a tensor lattice.

    ``xs`` and ``ys`` are arrays, ``ix`` and ``iy`` index arrays of one
    shape. With the terms' per-axis factors as (n_terms, len(xs)) and
    (n_terms, len(ys)) tables, the whole lattice takes six matrix products.
    """
    c, cn, s, ds, sin, cos = map(np.array, zip(*_series_terms(xs, n_terms)))
    _, _, s_y, ds_y, sin_y, cos_y = map(np.array, zip(*_series_terms(ys, n_terms)))
    c, cn = c[:, None], cn[:, None]
    val = ((xs * (1.0 - xs))[:, None] + ys * (1.0 - ys)) / 4.0
    val -= (c * sin).T @ s_y + (c * s).T @ sin_y
    gx = ((1.0 - 2.0 * xs) / 4.0)[:, None] - (cn * cos).T @ s_y - (cn * ds).T @ sin_y
    gy = (1.0 - 2.0 * ys) / 4.0 - (cn * sin).T @ ds_y - (cn * s).T @ cos_y
    return val[ix, iy], np.stack((gx[ix, iy], gy[ix, iy]), axis=-1)


def disk_solution(points):
    """u = (1 - x^2 - y^2)/4, solving -Laplace(u) = 1 on the unit disk, and its
    gradient: (m,) and (m, 2), of length 1 for a (2,) point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return 0.25 * (1.0 - pts[:, 0] ** 2 - pts[:, 1] ** 2), -0.5 * pts


class ReferenceSolution:
    """Exact solution with globally defined value and gradient.

    ``evaluate(points)`` returns both for an (m, 2) batch. ``value`` and
    ``gradient`` share its last result through a one-slot memo keyed on a copy
    of the points, and each call returns arrays of its own. The optional
    ``lattice`` callable, if given, serves ``on_lattice``.
    """

    def __init__(self, kind: str, evaluate, lattice=None):
        self.kind = kind
        self._evaluate = evaluate
        self._lattice = lattice
        self._memo = None  # (points, value, gradient)

    def _at(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._memo is None or not np.array_equal(self._memo[0], pts):
            val, grad = self._evaluate(pts)
            self._memo = (pts.copy(), np.array(val, dtype=float), np.array(grad, dtype=float))
        return self._memo

    def value(self, points) -> np.ndarray:
        return self._at(points)[1].copy()

    def gradient(self, points) -> np.ndarray:
        return self._at(points)[2].copy()

    def on_lattice(self, xs, ys, ix, iy):
        """Value and gradient at the points (xs[ix], ys[iy]) of a tensor lattice,
        shaped like ``ix`` (plus a trailing axis of 2 for the gradient).

        Without a ``lattice`` callable, ``evaluate`` runs on exactly those points.
        """
        if self._lattice is not None:
            return self._lattice(xs, ys, ix, iy)
        pts = np.stack((xs[ix], ys[iy]), axis=-1)
        val, grad = (np.asarray(f, dtype=float) for f in self._evaluate(pts.reshape(-1, 2)))
        return val.reshape(pts.shape[:-1]), grad.reshape(pts.shape)

    @classmethod
    def square_series(cls, n_terms: int = 50) -> "ReferenceSolution":
        if n_terms < 50:
            raise ValueError("square series reference requires at least 50 terms")
        return cls(
            f"square_series_{n_terms}",
            lambda p: series_solution(p, n_terms),
            lambda xs, ys, ix, iy: series_on_lattice(xs, ys, ix, iy, n_terms),
        )

    @classmethod
    def disk_quadratic(cls) -> "ReferenceSolution":
        return cls("disk_quadratic", disk_solution)

    @classmethod
    def from_callables(cls, value_fn, gradient_fn, kind: str = "custom"):
        """Reference from vectorized callables p -> (m,) and p -> (m, 2)."""
        return cls(kind, lambda p: (value_fn(p), gradient_fn(p)))


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


def _discrete_at(sol: DiscreteSolution, points: np.ndarray, cells: np.ndarray):
    """Value (q,) and gradient (q, 2) of u_h at points in their owning cells."""
    vals, grads, dofs = point_basis(sol.basis, sol.dofmap, sol.am.grid, points, cells)
    c = sol.coefficients[dofs]
    return np.einsum("qk,qk->q", vals, c), np.einsum("qk,qkd->qd", c, grads)


def eval_discrete(sol: DiscreteSolution, x):
    """Evaluate the discrete solution and its gradient at points.

    Returns (m,) values and (m, 2) gradients, of length 1 for a (2,) point.
    Points within 1e-12 of shared edges resolve to the lowest active cell (u_h
    is continuous there); non-finite or outside points raise EvaluationError.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise EvaluationError("evaluation points must be finite")
    grid = sol.am.grid
    g = (pts - grid.origin) / grid.h
    # Per axis: the cells holding g - tol and g + tol, tol 1e-12 relative,
    # clamped to the grid; within tol of a gridline, both cells beside it.
    # A point farther than tol beyond the outer gridlines has no candidate.
    tol = 1e-12 * np.maximum(1.0, np.abs(g).max(axis=1, keepdims=True))
    n_cells_axis = np.array([grid.nx, grid.ny])
    beyond = np.any((g < -tol) | (g > n_cells_axis + tol), axis=1)
    cands = np.floor(np.stack((g - tol, g + tol), axis=2))
    cands = np.clip(cands, 0, n_cells_axis[:, None] - 1).astype(np.intp)
    ids = (cands[:, 1, :, None] * grid.nx + cands[:, 0, None, :]).reshape(len(pts), -1)
    eid = np.where(sol.dofmap.cell_dofs[ids, 0] >= 0, ids, grid.n_cells).min(axis=1)
    outside = beyond | (eid == grid.n_cells)
    if np.any(outside):
        px, py = pts[np.argmax(outside)]
        raise EvaluationError(f"point ({px}, {py}) is outside the active mesh")
    return _discrete_at(sol, pts, eid)


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
    params: PenaltyParameters,
) -> ErrorNorms:
    """Error norms of e = u_exact - u_h over the polygonal domain ``sol.am.poly``.

    Error integrands exceed the assembly order, so the quadrature has degree
    2p+2. The stabilization part is s_h(u_h, u_h): the smooth exact
    solution has no derivative jumps across faces, so this equals the
    stabilization seminorm of the error.
    """
    am = sol.am
    basis = sol.basis
    h = am.grid.h
    order = 2 * basis.p + 2

    vrules = build_volume_rules(am, order)
    grad_sq = 0.0
    val_sq = 0.0

    inside = am.inside_ids
    if len(inside):
        ref_pts = vrules.inside_ref_points
        w = vrules.inside_ref_weights * h * h
        vals, grads = eval_basis(basis, ref_pts, h)
        dofs_in = sol.dofmap.cell_dofs[inside]
        coeff = sol.coefficients[dofs_in]
        uh_val = coeff @ vals.T  # (nE, q)
        uh_grad = np.einsum("ei,qid->eqd", coeff, grads)
        # The points form a tensor lattice. Per axis: the cell origins plus h
        # times the rule's distinct abscissae, and each point's index there.
        axes = []
        for d, cell in enumerate(am.grid.cell_coords(inside)):
            cells, at_cell = np.unique(cell, return_inverse=True)
            r, at_r = np.unique(ref_pts[:, d], return_inverse=True)
            coords = ((am.grid.origin[d] + cells * h)[:, None] + h * r).ravel()
            axes.append((coords, at_cell[:, None] * len(r) + at_r))
        (xs, ix), (ys, iy) = axes
        ref_val, ref_grad = ref.on_lattice(xs, ys, ix, iy)
        e_val = ref_val - uh_val
        e_grad = ref_grad - uh_grad
        val_sq += float(np.einsum("eq,q->", e_val**2, w))
        grad_sq += float(np.einsum("eqd,q->", e_grad**2, w))

    def errors_at(rules):  # (rule, e, grad e) per batch of the rules' points
        for cells, rule in rule_batches(rules):
            uh_val, uh_grad = _discrete_at(sol, rule.points, cells)
            yield rule, ref.value(rule.points) - uh_val, ref.gradient(rule.points) - uh_grad

    for rule, e_val, e_grad in errors_at(vrules.cut):
        val_sq += float(np.sum(rule.weights * e_val**2))
        grad_sq += float(np.sum(rule.weights * np.sum(e_grad**2, axis=1)))

    flux_sq = trace_sq = 0.0
    for rule, e_val, e_grad in errors_at(build_boundary_rules(am, order)):
        trace_sq += float(np.sum(rule.weights * e_val**2))
        flux_sq += float(np.sum(rule.weights * np.einsum("qd,qd->q", rule.normals, e_grad) ** 2))

    stab_sq = ghost_penalty_form(am, basis, params, sol.dofmap, sol.coefficients)

    energy = float(np.sqrt(grad_sq + h * flux_sq + trace_sq / h + stab_sq))
    return ErrorNorms(
        energy=energy,
        h1_semi=float(np.sqrt(grad_sq)),
        l2=float(np.sqrt(val_sq)),
        stab_part=float(np.sqrt(stab_sq)),
    )
