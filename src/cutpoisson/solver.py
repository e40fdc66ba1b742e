"""Linear solve, reference solutions, and error norms on the cut domain.

The reference solutions are analytic expressions (a truncated double series for
the unit square with f = 1, a quadratic for the unit disk), evaluated as they
stand on the perturbed domain: the quadratic extends smoothly, but the series'
terms grow like e^(n pi s) at distance s outside the square. A reference
evaluates value and gradient together, once per point set; the series sums each
edge of the square as a complex power series by Horner's rule, without terms
below SERIES_CUTOFF. The inside cells' points form a tensor lattice, on which
the series factors into per-axis tables and matrix products.

The direct solve condenses the clean part of the bisection tree before the
sparse factor, which is nested dissection with the identical fronts of the
clean region computed once: each level of clean groups (boxes of 6, 12, 24, ...
inside cells) shares one dense Cholesky of its crosses, and SuperLU factors
only the Schur complement S on the remaining dofs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    DofMap,
    PenaltyParameters,
    SparseSystem,
    _owning_dofs,
    ghost_penalty_form,
)
from .basis import QpBasis, eval_basis
from .errors import EvaluationError, QuadratureError, SolverError
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

# series_solution drops a term once c_1 e^{-n pi t} < SERIES_CUTOFF. The term is
# then below SERIES_CUTOFF (3.3 SERIES_CUTOFF in the gradient), and each later
# one smaller by e^{-2 pi t} <= 0.62 for up to 100 terms, so a point's four
# dropped tails add up to less than 1e-20.
SERIES_CUTOFF = 1e-22
SERIES_CHUNK = 4096  # points per Horner pass, to keep its arrays in cache

# SuperLU arguments of the factor in solve_spd: the caller's numbering as
# the elimination order, with diagonal pivots only, so the factor A = L U
# keeps that numbering and its fill depends on it. build_dofmap numbers the
# dofs in nested-dissection order for this.
FACTOR_OPTIONS = {
    "permc_spec": "NATURAL",
    "options": {"SymmetricMode": True, "DiagPivotThresh": 0.0},
}


@functools.cache
def _lattice(n: int, nested: bool):
    """Masks of the cross and the ring (the outer nodes) of an n x n group lattice,
    and for a nested group the positions in X u B of its four children's rings."""
    ring = np.pad(np.zeros((n - 2, n - 2), dtype=bool), 1, constant_values=True)
    cross, half = ~ring, n // 2
    if not nested:
        return cross, ring, None
    mid = np.arange(n) == half
    cross &= mid | mid[:, None]  # less the children's interiors
    at = np.empty((n, n), dtype=np.intp)
    at[cross], at[ring] = np.split(np.arange(cross.sum() + ring.sum()), [cross.sum()])
    child_ring = _lattice(half + 1, False)[1]
    children = [at[y : y + half + 1, x : x + half + 1] for y in (0, half) for x in (0, half)]
    return cross, ring, np.array([child[child_ring] for child in children])


def _shared_blocks(a: sp.csr_matrix, groups):
    """Per level of ``groups``, the first group's ``cho_factor`` of M_XX, X = M_XX^-1 M_XB
    and Schur block C onto B, and all groups' X and B dofs (see :func:`condense`)."""
    levels = []
    for lattices in groups:
        cross, ring, child = _lattice(len(lattices[0]), bool(levels))
        # Group-major (Fortran) tables: X^T g_X's BLAS path depends on g[xs]'s order.
        xs, bs = (np.asfortranarray(lattices[:, m].T) for m in (cross, ring))
        nx, nodes = len(xs), np.concatenate((xs[:, 0], bs[:, 0]))
        m = a[xs[:, 0]][:, nodes].toarray(order="F")  # A[X, X u B]
        below = 0.0  # the four children's C, on X u B and then on B x B
        if levels:
            c = np.broadcast_to(levels[-1][2], (4,) + levels[-1][2].shape)
            flat = child[:, :, None] * len(nodes) + child[:, None, :]
            below = np.bincount(flat.ravel(), c.ravel(), len(nodes) ** 2).reshape(len(nodes), -1)
            m -= below[:nx]
            below = below[nx:, nx:]
        chol = scipy.linalg.cho_factor(m[:, :nx], lower=True)
        y = scipy.linalg.solve_triangular(chol[0], m[:, nx:], lower=True, overwrite_b=True)
        c = below + y.T @ y
        x_xb = scipy.linalg.solve_triangular(chol[0], y, lower=True, trans="T")
        levels.append((chol, x_xb, 0.5 * (c + c.T), xs, bs))
    return levels


def condense(a: sp.csr_matrix, groups):
    """Eliminate the interiors of the clean groups (``DofMap.clean_groups``) from the CSR matrix a.

    Level by level from the boxes up, X is a group lattice's cross (its
    interior less its four children's interiors; a box's whole interior) and
    B its ring (the outer nodes). A level's groups share the first's blocks:
    M is A[X, X u B] less the children's Schur blocks C on the X rows,
    M_XX = L L^T, Y = L^-1 M_XB, and the Schur block onto B is
    C = (the children's C on B x B) + Y^T Y, symmetrized. Returns the CSC
    S = A[R, R] - the sum of C over the rings of the maximal groups (those in
    no group of the next level), the dofs R outside every interior, and per
    level the ``cho_factor`` of M_XX, X = M_XX^-1 M_XB and the X and B dofs
    as (|X|, groups) and (|B|, groups) tables. A pair of ring dofs lies in at
    most two maximal groups, whose C add to the pair's A entry in the same
    order on both sides of the diagonal: S is exactly symmetric. Without
    groups, S has A's arrays (sorted, without duplicates) and R is every dof.
    """
    levels = _shared_blocks(a, groups)
    kept = np.ones(a.shape[0], dtype=bool)
    for *_, xs, _ in levels:
        kept[xs] = False
    rows = np.flatnonzero(kept)
    new = np.cumsum(kept, dtype=np.int32) - 1  # R's numbering; a removed dof's column is dropped
    new[~kept] = len(rows)
    a_r = a[rows]
    rings = [new[bs[:, kept[bs].all(axis=0)]] for *_, bs in levels]  # the maximal groups'
    # S's rows as segments of entries, each a column and the slot of its value
    # in ``values``: a kept row's entries of A, then per ring dof of a maximal
    # group, in group order, that group's ring with the dof's row of -C.
    # Written level by level, then gathered into row order.
    values = np.concatenate([a_r.data] + [-c.ravel() for _, _, c, _, _ in levels])
    seg_row = np.concatenate([np.arange(len(rows))] + [d.T.ravel() for d in rings])
    seg_len = np.concatenate([np.diff(a_r.indptr)] + [np.full(d.size, len(d)) for d in rings])
    slots, cols = np.empty((2, seg_len.sum()), dtype=np.int32)
    lo = slot = a_r.nnz
    slots[:lo], cols[:lo] = np.arange(lo), new[a_r.indices]
    del a_r
    for d, (_, _, block, _, _) in zip(rings, levels):
        (k, m), i = d.shape, np.arange(len(d), dtype=np.int32)
        at = slice(lo, lo + m * block.size)
        # Ring pair (b, e) reads C[e, b], so a row of S reads along a row of C.
        slots[at].reshape(m, k, k)[:] = slot + i * k + i[:, None]
        cols[at].reshape(m, k, k)[:] = d.T[:, None, :]
        lo, slot = at.stop, slot + block.size
    indptr = np.concatenate(([0], np.cumsum(seg_len)))
    segments = sp.csr_matrix((slots, cols, indptr), shape=(len(seg_len), len(rows) + 1))
    del slots, cols
    segments = segments[np.argsort(seg_row, kind="stable")]
    per_row = np.bincount(seg_row, minlength=len(rows))
    indptr = segments.indptr[np.append(np.cumsum(per_row) - per_row, len(seg_len))]
    shape = (len(rows), len(rows) + 1)
    segments = sp.csr_matrix((segments.data, segments.indices, indptr), shape=shape)
    # csr_tocsc sorts each column's rows; the removed columns' entries go to
    # the last column and are dropped. The rest are S's CSC arrays, with
    # duplicates in order.
    t = segments.tocsc()
    del segments
    data = np.empty(t.indptr[-2])
    for lo in range(0, len(data), 1 << 16):  # a gather by intp runs faster than by int32
        hi = min(lo + (1 << 16), len(data))
        data[lo:hi] = values[t.data[lo:hi].astype(np.intp)]
    s = sp.csc_matrix((data, t.indices[: len(data)], t.indptr[:-1]), shape=(len(rows),) * 2)
    s.has_sorted_indices, s.has_canonical_format = True, False  # only duplicates are left
    s.sum_duplicates()
    return s, rows, [(chol, x_xb, xs, bs) for chol, x_xb, _, xs, bs in levels]


def solve_spd(system: SparseSystem) -> np.ndarray:
    """Direct sparse solve with a relative residual contract of 1e-12.

    The factor is that of :func:`condense`'s S for ``system.clean_groups``,
    which is A itself when there are none. The load condenses bottom-up,
    g_B -= X^T g_X per group, and the eliminated nodes are recovered top-down,
    x_X = M_XX^-1 g_X - X x_B. SuperLU reads S's CSC arrays without a copy.
    The factor is L U with diagonal pivots in the matrix's own numbering
    (FACTOR_OPTIONS), which an SPD matrix always admits. The fill therefore
    depends on the numbering: ``build_dofmap`` numbers the dofs in
    nested-dissection order, which S keeps. SuperLU swaps rows only where a
    diagonal pivot is exactly zero; the factor then has perm_r != perm_c,
    and SolverError is raised before the solve. An exactly singular factor,
    and a residual of the returned x on the full A above the tolerance after
    iterative refinement, raise SolverError too.

    No check detects an indefinite matrix with nonzero pivots: it is
    solved to roundoff without error (so is [[1, 2], [2, 1]], and so is the
    square on an unshifted grid, whose system has negative eigenvalues).
    """
    a = system.matrix.tocsr()
    b = system.rhs
    if not np.all(np.isfinite(b)):
        raise SolverError("load vector contains non-finite entries")
    if not np.any(b):
        return np.zeros_like(b)
    try:
        s, kept, levels = condense(a, system.clean_groups)
        lu = spla.splu(s, **FACTOR_OPTIONS)
    except Exception as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("sparse factorization needed an off-diagonal pivot (zero diagonal pivot)")

    def solve(rhs):
        # Bottom-up, g_B -= X^T g_X per group, as M_BX M_XX^-1 = X^T;
        # then S x_R = g_R, and top-down x_X = M_XX^-1 g_X - X x_B.
        g = rhs.copy()
        for _, x_xb, xs, bs in levels:
            g -= np.bincount(bs.ravel(), (x_xb.T @ g[xs]).ravel(), len(g))
        x = np.empty_like(rhs)
        x[kept] = lu.solve(g[kept])
        for chol, x_xb, xs, bs in reversed(levels):
            x[xs] = scipy.linalg.cho_solve(chol, g[xs]) - x_xb @ x[bs]
        return x

    x = solve(b)
    # Iterative refinement with extended-precision residuals of the full A, by
    # row blocks: on fine cut systems a double-precision residual alone sits
    # near the contract. x is stored in double precision, which floors the
    # residual near f = eps/2 || |A| |x| || / ||b||: it stops at f/2, and once a
    # correction no longer halves the residual, the best x is returned.
    b_ext = b.astype(np.longdouble)
    norm_b_ext = np.sqrt(np.sum(b_ext * b_ext))
    best = (np.inf, x)
    for corrections in range(6):
        x_ext, r_ext, ax = x.astype(np.longdouble), b_ext.copy(), np.empty_like(b)
        for lo in range(0, len(b), 8192):
            # The block's rows as views of A's arrays; only the data is converted.
            rows, ptr = slice(lo, lo + 8192), a.indptr[lo : lo + 8193]
            nz, shape = slice(ptr[0], ptr[-1]), (len(ptr) - 1, len(b))
            cols, data, ptr = a.indices[nz], a.data[nz], ptr - ptr[0]
            r_ext[rows] -= sp.csr_matrix((data.astype(np.longdouble), cols, ptr), shape) @ x_ext
            ax[rows] = sp.csr_matrix((np.abs(data), cols, ptr), shape) @ np.abs(x)
        residual = float(np.sqrt(np.sum(r_ext * r_ext)) / norm_b_ext)
        floor = 0.5 * np.finfo(float).eps * np.linalg.norm(ax) / np.linalg.norm(b)
        stalled = residual > 0.5 * best[0]
        best = min(best, (residual, x), key=lambda pair: pair[0])
        if stalled or residual <= max(0.1 * _RESIDUAL_TOL, 0.5 * floor) or corrections == 5:
            break
        x = x + solve(np.asarray(r_ext, dtype=np.float64))
    residual, x = best
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SolverError(f"relative residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    return x


def _series_coefficients(n_terms: int):
    """The odd n <= 2 n_terms - 1 and c_n = 2 / (pi^3 n^3 (1 + e^{-n pi}))."""
    n = np.arange(1, 2 * n_terms, 2)
    return n, 2.0 / (np.pi**3 * n**3 * (1.0 + np.exp(-np.pi * n)))


def series_solution(points, n_terms: int = 50):
    """Truncated series solution of -Laplace(u) = 1 on the unit square.

    Sums the first ``n_terms`` odd-index terms. Returns (value, gradient) of
    shapes (m,) and (m, 2); a (2,) point gives arrays of length 1.

    Per edge, A(z) = sum c_n z^n and B(z) = sum c_n n pi z^n at z = e^{pi (i x - y)},
    e^{pi (i x - (1 - y))}, e^{pi (i y - x)} or e^{pi (i y - (1 - x))}, by Horner's
    rule in z^2. A sum keeps term n while c_1 e^{-n pi t} >= SERIES_CUTOFF, with t
    the distance to its edge (all terms for t <= 0). Sorted by kept count, the
    (point, edge) pairs of one Horner step are a prefix, updated in place.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    val = (x * (1.0 - x) + y * (1.0 - y)) / 4.0
    grad = np.column_stack(((1.0 - 2.0 * x) / 4.0, (1.0 - 2.0 * y) / 4.0))
    n, coef = _series_coefficients(n_terms)
    reach = np.log(coef[0] / SERIES_CUTOFF) / np.pi  # term n is kept while n t <= reach
    for lo in range(0, len(pts), SERIES_CHUNK):
        cx, cy = pts[lo : lo + SERIES_CHUNK].T  # m points of the chunk
        t = np.concatenate((cy, 1.0 - cy, cx, 1.0 - cx))  # pair j: edge j // m, point j % m
        kept = np.floor(0.5 * reach / np.fmax(t, reach / (2 * n_terms)) + 0.5)
        kept = kept.astype(np.min_scalar_type(n_terms))
        pairs = np.argsort(~kept, kind="stable")  # most kept terms first
        rot = np.repeat(np.exp(1j * np.pi * np.stack((cx, cy))), 2, axis=0).ravel()
        z = np.exp(-np.pi * t[pairs]) * rot[pairs]
        s = z * z
        above = len(t) - np.cumsum(np.bincount(kept, minlength=n_terms))  # pairs keeping > k
        a, b = ab = np.zeros((2, len(t)), dtype=complex)
        for k in range(n_terms - 1, -1, -1):
            head = slice(above[k])
            a[head] *= s[head]
            a[head] += coef[k]
            b[head] *= s[head]
            b[head] += coef[k] * n[k] * np.pi
        sa, sb = sums = np.empty_like(ab)
        sa[pairs], sb[pairs] = a * z, b * z  # the pairs back in edge-major order
        (a1, a2, a3, a4), (b1, b2, b3, b4) = sums.reshape(2, 4, len(cx))
        val[lo : lo + SERIES_CHUNK] -= (a1 + a2 + a3 + a4).imag
        grad[lo : lo + SERIES_CHUNK, 0] -= b1.real + b2.real - b3.imag + b4.imag
        grad[lo : lo + SERIES_CHUNK, 1] -= b2.imag - b1.imag + b3.real + b4.real
    return val, grad


def series_on_lattice(xs, ys, ix, iy, n_terms: int = 50):
    """``series_solution`` at the points (xs[ix], ys[iy]) of a tensor lattice.

    ``xs`` and ``ys`` are arrays, ``ix`` and ``iy`` index arrays of one
    shape. With the terms' per-axis factors as (n_terms, len(xs)) and
    (n_terms, len(ys)) tables, the whole lattice takes six matrix products.
    """
    n, c = (v[:, None] for v in _series_coefficients(n_terms))
    cn = c * n * np.pi
    arg = np.pi * n * np.concatenate((xs, ys))  # the two axes side by side
    e_lo, e_hi = np.exp(-arg), np.exp(arg - np.pi * n)  # e^{-n pi t}, e^{-n pi (1 - t)}
    tables = e_lo + e_hi, e_hi - e_lo, np.sin(arg), np.cos(arg)
    (s, s_y), (ds, ds_y), (sin, sin_y), (cos, cos_y) = (np.split(f, [len(xs)], 1) for f in tables)
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
    """Value (q,) and gradient (q, 2) of u_h at points in their owning cells: each
    cell's coefficient lattice [iy, ix] times 1D Lagrange factors along x, then y."""
    grid, basis, p = sol.am.grid, sol.basis, sol.basis.p
    c = sol.coefficients[_owning_dofs(sol.dofmap, cells)].reshape(-1, p + 1, p + 1)
    t = ((points - grid.cell_origin(cells)) / grid.h).T
    (lx, ly), (dx, dy) = ([basis.lagrange_1d(ti, j) / grid.h**j for ti in t] for j in (0, 1))
    cl, cd = np.einsum("qyx,qx->qy", c, lx), np.einsum("qyx,qx->qy", c, dx)
    gx, gy = np.einsum("qy,qy->q", ly, cd), np.einsum("qy,qy->q", dy, cl)
    return np.einsum("qy,qy->q", ly, cl), np.column_stack((gx, gy))


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
    """Energy norm, H1 seminorm, L2 norm, and the energy norm's other parts.

    The energy norm is ||grad e||^2 + h ||grad_n e||^2 + (1/h) ||e||^2 + |e|_s^2
    over the cut domain and its polygonal boundary; the penalty weight beta is
    not included in the norm. Its parts are ``h1_semi`` and the square roots
    of the other three terms: ``flux_part`` of h ||grad_n e||^2 and
    ``trace_part`` of (1/h) ||e||^2 on the boundary, ``stab_part`` of |e|_s^2.
    """

    energy: float
    h1_semi: float
    l2: float
    stab_part: float
    flux_part: float
    trace_part: float


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

    The volume rules are exact on Q_(2p+2), the polynomials of degree at
    most 2p + 2 in each variable: with the disk's quadratic reference, e^2
    and |grad e|^2 lie in Q_(2 max(p, 2)), so their volume integrals are
    exact. The boundary rules are exact to degree 2p + 2 along each piece.
    The stabilization part is s_h(u_h, u_h): the smooth exact
    solution has no derivative jumps across faces, so this equals the
    stabilization seminorm of the error. A squared sum that is negative (the
    cut cells' rules have negative weights) or not finite raises QuadratureError.
    """
    am, basis, h = sol.am, sol.basis, sol.am.grid.h
    order = 2 * basis.p + 2
    vrules = build_volume_rules(am, order)

    inside = am.inside_ids
    ref_pts = vrules.inside_ref_points
    w = vrules.inside_ref_weights * h * h
    vals, grads = eval_basis(basis, ref_pts, h)
    coeff = sol.coefficients[sol.dofmap.cell_dofs[inside]]
    uh_val = coeff @ vals.T  # (nE, q)
    uh_grad = np.moveaxis(coeff @ grads.T, 0, -1)  # (nE, q, 2)
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
    val_sq = float(np.einsum("eq,q->", e_val**2, w))
    grad_sq = float(np.einsum("eqd,q->", e_grad**2, w))

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

    for part, sq in (("L2", val_sq), ("H1", grad_sq), ("trace", trace_sq), ("flux", flux_sq)):
        if not 0.0 <= sq < np.inf:
            raise QuadratureError(f"squared {part} error sums to {sq:.3e}, not a finite value >= 0")
    energy = float(np.sqrt(grad_sq + h * flux_sq + trace_sq / h + stab_sq))
    return ErrorNorms(
        energy=energy,
        h1_semi=float(np.sqrt(grad_sq)),
        l2=float(np.sqrt(val_sq)),
        stab_part=float(np.sqrt(stab_sq)),
        flux_part=float(np.sqrt(h * flux_sq)),
        trace_part=float(np.sqrt(trace_sq / h)),
    )
