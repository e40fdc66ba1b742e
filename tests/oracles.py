"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are meant to check: polygon
integrals go through Green's theorem edge integrals, cut cells are clipped by
Sutherland-Hodgman half-planes rather than walked in strips, distances come
from closed forms, and the series reference is cross-checked against a finite
difference solve.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutpoisson import BoundaryPolygon, QuadratureError, eval_basis
from cutpoisson.quadrature import CutVolumeRule


def shoelace(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x = v[:, 0] - v[0, 0]
    y = v[:, 1] - v[0, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def greens_monomial_integral(vertices, a: int, b: int) -> float:
    """Integral of x^a y^b over a simple CCW polygon via a Green's theorem
    edge integral: int x^a y^b dA = 1/(a+1) * oint x^(a+1) y^b dy."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    n_gauss = (a + b + 3) // 2 + 1
    t, wt = np.polynomial.legendre.leggauss(n_gauss)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    total = 0.0
    for (x0, y0), (x1, y1) in zip(v, w):
        xs = x0 + t * (x1 - x0)
        ys = y0 + t * (y1 - y0)
        total += (y1 - y0) * np.sum(wt * xs ** (a + 1) * ys**b)
    return total / (a + 1)


def dist_to_unit_square_boundary(points) -> np.ndarray:
    """Exact distance from points to the boundary of (0,1)^2."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    inside = (
        (p[:, 0] >= 0) & (p[:, 0] <= 1) & (p[:, 1] >= 0) & (p[:, 1] <= 1)
    )
    d_edges = np.minimum.reduce(
        [np.abs(p[:, 0]), np.abs(1 - p[:, 0]), np.abs(p[:, 1]), np.abs(1 - p[:, 1])]
    )
    dx = np.maximum.reduce([-p[:, 0], p[:, 0] - 1, np.zeros(len(p))])
    dy = np.maximum.reduce([-p[:, 1], p[:, 1] - 1, np.zeros(len(p))])
    d_out = np.hypot(dx, dy)
    return np.where(inside, d_edges, d_out)


def polyline_length_in_box(vertices, box) -> float:
    """Total length of a closed polyline clipped to a closed box."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    x0, y0, x1, y1 = box
    total = 0.0
    for (ax, ay), (bx, by) in zip(v, w):
        t0, t1 = 0.0, 1.0
        ok = True
        for p0, d, lo, hi in ((ax, bx - ax, x0, x1), (ay, by - ay, y0, y1)):
            if d == 0.0:
                if p0 < lo or p0 > hi:
                    ok = False
                    break
            else:
                ta, tb = (lo - p0) / d, (hi - p0) / d
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
                if t0 > t1:
                    ok = False
                    break
        if ok:
            total += (t1 - t0) * np.hypot(bx - ax, by - ay)
    return total


def is_simple_polygon(vertices) -> bool:
    """Brute-force O(n^2) self-intersection check for small polygons."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)

    def cross2(u, w):
        return u[0] * w[1] - u[1] * w[0]

    def seg_intersect(p, q, r, s):
        d1 = cross2(q - p, r - p)
        d2 = cross2(q - p, s - p)
        d3 = cross2(s - r, p - r)
        d4 = cross2(s - r, q - r)
        return (d1 * d2 < 0) and (d3 * d4 < 0)

    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = v[j], v[(j + 1) % n]
            if seg_intersect(a, b, c, d):
                return False
    return True


def fd_square_center_value() -> float:
    """Richardson-extrapolated 5-point FD value of u(0.5, 0.5) for
    -Laplace(u) = 1 on the unit square with zero boundary values."""

    def center(n):
        h = 1.0 / n
        m = n - 1

        def idx(i, j):
            return (j - 1) * m + (i - 1)

        rows, cols, vals = [], [], []
        for j in range(1, n):
            for i in range(1, n):
                k = idx(i, j)
                rows.append(k)
                cols.append(k)
                vals.append(4.0)
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 1 <= ii <= m and 1 <= jj <= m:
                        rows.append(k)
                        cols.append(idx(ii, jj))
                        vals.append(-1.0)
        a = sp.coo_matrix((vals, (rows, cols)), shape=(m * m, m * m)).tocsr()
        u = spla.spsolve(a, np.full(m * m, h * h))
        return u[idx(n // 2, n // 2)]

    c1, c2 = center(128), center(256)
    return c2 + (c2 - c1) / 3.0


# ---------------------------------------------------------------------------
# Polygon clipping against an axis-aligned box
# ---------------------------------------------------------------------------


def _clip_halfplane(v: np.ndarray, f: np.ndarray, axis: int, value: float) -> np.ndarray:
    """One Sutherland-Hodgman stage keeping f >= 0; crossings snap to the plane."""
    inn = f >= 0.0
    if not inn.any():
        return v[:0]
    if inn.all():
        return v
    f_next = np.roll(f, -1)
    v_next = np.roll(v, -1, axis=0)
    inn_next = np.roll(inn, -1)
    cross = inn != inn_next
    denom = np.where(cross, f - f_next, 1.0)
    t = np.where(cross, f / denom, 0.0)
    x = v + t[:, None] * (v_next - v)
    x[:, axis] = value

    counts = cross.astype(np.intp) + inn_next.astype(np.intp)
    start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    out = np.empty((int(counts.sum()), 2))
    out[start[cross]] = x[cross]
    pos_after = start + cross
    out[pos_after[inn_next]] = v_next[inn_next]
    return out


def _dedupe_ring(v: np.ndarray, tol: float) -> np.ndarray:
    if len(v) == 0:
        return v
    d = np.roll(v, -1, axis=0) - v
    keep = np.hypot(d[:, 0], d[:, 1]) > tol
    return v[keep]


def _ring_area(v: np.ndarray) -> float:
    # Shift to a local origin first: the shoelace sum is translation
    # invariant, and local coordinates avoid cancellation for small polygons
    # far from the global origin.
    x = v[:, 0] - v[0, 0]
    y = v[:, 1] - v[0, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _split_bridges(v: np.ndarray, box, tol: float) -> list[np.ndarray]:
    """Split a possibly degenerate clip ring into simple CCW components.

    Clipping a region that meets the box in several components yields a single
    ring whose components are joined by pairs of overlapping edges running
    along the box boundary. Splitting every on-boundary edge at the endpoints
    of the other on-boundary edges turns each bridge into a repeated-vertex
    pinch, which is then separated recursively.
    """
    x0, y0, x1, y1 = box
    sides = ((0, x0), (0, x1), (1, y0), (1, y1))

    # Insert split points on edges lying exactly on a box side.
    n = len(v)
    nxt = np.roll(np.arange(n), -1)
    inserted: list[np.ndarray] = []
    changed = False
    for i in range(n):
        a, b = v[i], v[nxt[i]]
        inserts = []
        for axis, value in sides:
            if a[axis] == value and b[axis] == value:
                t_ax = 1 - axis
                lo, hi = (a[t_ax], b[t_ax]) if a[t_ax] < b[t_ax] else (b[t_ax], a[t_ax])
                cands = np.unique(
                    np.concatenate((v[v[:, 0] == value, t_ax], []))
                    if axis == 0
                    else np.concatenate((v[v[:, 1] == value, t_ax], []))
                )
                cands = cands[(cands > lo) & (cands < hi)]
                if len(cands):
                    order = np.argsort(cands) if a[t_ax] < b[t_ax] else np.argsort(-cands)
                    for c in cands[order]:
                        p = np.array([value, c]) if axis == 0 else np.array([c, value])
                        inserts.append(p)
                break
        inserted.append(a[None, :] if not inserts else np.vstack([a] + inserts))
        changed = changed or bool(inserts)
    ring = np.vstack(inserted) if changed else v

    # Recursive split at repeated vertices.
    def split(r: np.ndarray) -> list[np.ndarray]:
        seen: dict[bytes, int] = {}
        for i, p in enumerate(r):
            key = p.tobytes()
            if key in seen:
                j = seen[key]
                return split(r[j:i]) + split(np.vstack((r[i:], r[:j])))
            seen[key] = i
        return [r]

    out = []
    for r in split(ring):
        r = _dedupe_ring(r, tol)
        if len(r) < 3:
            continue
        area = _ring_area(r)
        area_tol = tol * max(x1 - x0, y1 - y0)
        if area > area_tol:
            out.append(r)
        elif area < -area_tol:
            raise QuadratureError("clipping produced a negatively oriented component")
    return out


def clip_polygon_to_box(poly, box) -> list[np.ndarray]:
    """Intersect a simple CCW polygon with a closed axis-aligned box.

    Returns the intersection as a list of disjoint simple CCW vertex arrays;
    the list is empty when the polygon misses the box.
    """
    v = poly.vertices if isinstance(poly, BoundaryPolygon) else np.asarray(poly, dtype=float)
    x0, y0, x1, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise QuadratureError("clip box must have positive extent")
    v = _clip_halfplane(v, v[:, 0] - x0, 0, x0)
    if len(v):
        v = _clip_halfplane(v, x1 - v[:, 0], 0, x1)
    if len(v):
        v = _clip_halfplane(v, v[:, 1] - y0, 1, y0)
    if len(v):
        v = _clip_halfplane(v, y1 - v[:, 1], 1, y1)
    tol = 1e-14 * max(x1 - x0, y1 - y0)
    v = _dedupe_ring(v, tol)
    if len(v) < 3:
        return []
    return _split_bridges(v, box, tol)


def cell_volume_rule(vrules, grid, eid: int) -> CutVolumeRule:
    """Volume rule of one active cell: its cut rule, or the inside-cell rule
    with points origin + h * inside_ref_points and weights h^2 * inside_ref_weights."""
    if eid in vrules.cut:
        return vrules.cut[eid]
    h = grid.h
    return CutVolumeRule(
        points=grid.cell_origin(eid)[None, :] + h * vrules.inside_ref_points,
        weights=h * h * vrules.inside_ref_weights,
    )


def per_cell_bulk_nitsche(am, basis, params, f, vrules, brules, dofmap):
    """Bulk stiffness, load and Nitsche matrix summed element by element.

    Every active element's rule goes through its own ``eval_basis`` call and
    einsum local matrices; returns (bulk matrix, load vector, Nitsche matrix).
    """
    grid, h, n = am.grid, am.grid.h, dofmap.n_dofs

    def local(eid, rule):
        vals, grads = eval_basis(basis, (rule.points - grid.cell_origin(eid)) / h, h)
        return vals, grads, dofmap.element_dofs[dofmap.row_of_cell[eid]]

    bulk, nitsche, rhs = [], [], np.zeros(n)
    for eid in am.active:
        rule = cell_volume_rule(vrules, grid, int(eid))
        vals, grads, dofs = local(eid, rule)
        bulk.append((dofs, np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)))
        fv = f(rule.points[:, 0], rule.points[:, 1])
        rhs[dofs] += np.einsum("q,qi->i", rule.weights * fv, vals)
    for eid, rule in brules.items():
        vals, grads, dofs = local(eid, rule)
        dn = np.einsum("qd,qid->qi", rule.normals, grads)
        c = np.einsum("q,qi,qj->ij", rule.weights, vals, dn)
        m = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
        nitsche.append((dofs, params.beta / h * m - c - c.T))

    def to_csr(blocks):
        rows = [np.repeat(d, len(d)) for d, _ in blocks]
        cols = [np.tile(d, len(d)) for d, _ in blocks]
        data = [m.reshape(-1) for _, m in blocks]
        coo = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        return coo.tocsr()

    return to_csr(bulk), rhs, to_csr(nitsche)


def lowest_active_cell(am, row_of_cell, x: float, y: float):
    """Cell that evaluates the point (x, y), found one point at a time.

    Candidates per axis are the cell holding the coordinate, clamped to the
    grid, and both cells beside a gridline within 1e-12 (relative) of it; the
    lowest active candidate id wins. None when no candidate is active.
    """
    grid = am.grid
    gx = (x - grid.origin[0]) / grid.h
    gy = (y - grid.origin[1]) / grid.h
    tol = 1e-12 * max(1.0, abs(gx), abs(gy))

    def axis_candidates(g, n):
        cands = {min(max(int(np.floor(g)), 0), n - 1)}
        if abs(g - round(g)) < tol:
            cands.update(c for c in (round(g) - 1, round(g)) if 0 <= c < n)
        return cands

    ids = sorted(
        grid.cell_id(ix, iy)
        for ix in axis_candidates(gx, grid.nx)
        for iy in axis_candidates(gy, grid.ny)
    )
    return next((c for c in ids if row_of_cell[c] >= 0), None)
