"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are meant to check: polygon
integrals go through Green's theorem edge integrals, cut cells are clipped by
Sutherland-Hodgman half-planes rather than reached through the gridline
split, distances come from closed forms, and the series reference is
cross-checked against a finite difference solve and against a direct
evaluation of every term. The cut geometry's pieces are checked against a
loop that splits one segment at a time. The level-set contour is checked
against a loop over one triangle at a time that chains the crossings through
dicts, and the Cut mask against a loop that clips one segment against one
candidate cell at a time with ``segment_box_interval``; all must agree bit
for bit. ``cut_volume_rule`` integrates over one given box with positive
weights: it clips the polygon's segments to the box and walks it in vertical
strips, one strip at a time, each strip's bottom state from a vertical ray
where the library's counts run along the gridlines. The ghost penalty is
checked against local matrices built from hand-broadcast face tensor
products, one derivative order at a time, and summed face by face. The dof
numbering is checked against a recursion over boxes of cells that filters
lists of nodes, with each node's reach taken from the set of cells it shares
entries with. The small helpers that only the tests use (cell ids and boxes,
the perimeter, the symmetry error, the basis at points and a reference from
callables) live here too.

The module also holds the random cut configurations that the property tests
draw: grid offsets including zero, so that square edges lie on gridlines;
perturbation amplitudes and phases; level-set contours, whose vertices lie on
cell edges; star polygons with coordinates within a few ulp of gridlines;
and disks on grids shifted by a fraction of a cell.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, settings
from hypothesis import strategies as st

from cutpoisson import (
    BoundaryPolygon,
    Disk,
    GeometryError,
    QuadratureError,
    eval_basis,
    extract_levelset_boundary,
)
from cutpoisson.assembly import _owning_dofs
from cutpoisson.geometry import _shoelace
from cutpoisson.mesh import BackgroundGrid, classify_elements
from cutpoisson.quadrature import CutVolumeRule, _gauss01, _points_for_degree
from cutpoisson.solver import ReferenceSolution

# Derandomized so that tier-1 runs the same examples every time.
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


def cell_id(grid, ix: int, iy: int) -> int:
    return iy * grid.nx + ix


def cell_box(grid, eid: int) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) of the closed element box."""
    ix, iy = int(eid) % grid.nx, int(eid) // grid.nx
    ox, oy = grid.origin
    return (ox + ix * grid.h, oy + iy * grid.h, ox + (ix + 1) * grid.h, oy + (iy + 1) * grid.h)


def perimeter(poly) -> float:
    d = np.roll(poly.vertices, -1, axis=0) - poly.vertices
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def symmetry_error(a: sp.spmatrix) -> float:
    """max |A - A^T| relative to max |A|."""
    d = (a - a.T).tocoo()
    num = np.max(np.abs(d.data)) if d.nnz else 0.0
    den = np.max(np.abs(a.tocoo().data)) if a.nnz else 1.0
    return float(num / den) if den else 0.0


def point_basis(basis, dofmap, grid, points: np.ndarray, cells: np.ndarray):
    """Basis at physical points, each evaluated in its owning cell.

    Returns the shape function values (q, k), physical gradients (q, k, 2) and
    the owning cells' global dofs (q, k) as int32, from one ``eval_basis``
    call over all points. An inactive owning cell raises MeshError naming it.
    """
    dofs = _owning_dofs(dofmap, cells)
    vals, grads = eval_basis(basis, (points - grid.cell_origin(cells)) / grid.h, grid.h)
    return vals, grads, dofs


def reference_from_callables(value_fn, gradient_fn, kind: str = "custom") -> ReferenceSolution:
    """Reference from vectorized callables p -> (m,) and p -> (m, 2)."""
    return ReferenceSolution(kind, lambda p: (value_fn(p), gradient_fn(p)))


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


def series_solution_direct(points, n_terms: int = 50):
    """The square's series reference with every term's exponentials and
    sines evaluated directly; same contract as ``series_solution``."""
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
    return val, np.column_stack((gx, gy))


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


def point_in_polygon_scalar(poly, point, h: float) -> bool:
    """Even-odd test of one point with the ray direction (1, 1e-9*h)."""
    px, py = float(point[0]), float(point[1])
    eps = 1e-9 * h
    a, b = poly.segments()
    va = (a[:, 1] - py) - eps * (a[:, 0] - px)
    vb = (b[:, 1] - py) - eps * (b[:, 0] - px)
    straddle = (va > 0.0) != (vb > 0.0)
    if not np.any(straddle):
        return False
    t = va[straddle] / (va[straddle] - vb[straddle])
    xs = a[straddle] + t[:, None] * (b[straddle] - a[straddle])
    forward = (xs[:, 0] - px) + eps * (xs[:, 1] - py) > 0.0
    return bool(np.count_nonzero(forward) % 2 == 1)


def inside_below_scalar(a, b, x: float, y: float) -> bool:
    """Even-odd test of the point just below (x, y), with the ray running
    straight down from it, against the segments a -> b.

    The ray stands for x + 0: a segment counts when x lies in [min x, max x)
    of its end points, its lower end lies below y, and its upper end lies at
    or below y or its height at x does. A segment that does not straddle y
    thus counts without any arithmetic.
    """
    span = (np.minimum(a[:, 0], b[:, 0]) <= x) & (x < np.maximum(a[:, 0], b[:, 0]))
    a, b = a[span], b[span]
    height = a[:, 1] + (x - a[:, 0]) / (b[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    lower, upper = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    return bool(np.count_nonzero((lower < y) & ((upper <= y) | (height < y))) % 2)


def strip_trapezoids_one_box(box, start, end, ring, h: float) -> np.ndarray:
    """Decompose box ∩ polygon into trapezoids over vertical strips, one strip at a time.

    ``start``/``end`` are the polygon's pieces in the closed box, in either
    direction. Returns rows (xl, xr, lo_l, lo_r, hl, hr): x in [xl, xr], y
    from lo_l + (lo_r - lo_l) u upwards by hl + (hr - hl) u with
    u = (x - xl)/(xr - xl), and hl, hr >= 0. The strip edges are the distinct abscissae of the box and the pieces,
    less each one within 1e-14*h of the one below it; an abscissa belongs to
    the nearest edge at or below it. Each strip's bottom state is
    ``inside_below_scalar`` at its bottom centre against the segments
    ``ring`` = (a, b): a vertical ray, where the library runs along the
    gridline. Its bounds, the bottom, its pieces by height and the top,
    alternate from there.
    """
    x0, y0, x1, y1 = box
    xs = np.unique(np.concatenate(([x0, x1], start[:, 0], end[:, 0])))
    xs = xs[np.diff(xs, prepend=-np.inf) > 1e-14 * h]
    ep = np.searchsorted(xs, start[:, 0], side="right") - 1
    eq = np.searchsorted(xs, end[:, 0], side="right") - 1
    rows = []
    for i, (xl, xr) in enumerate(zip(xs[:-1], xs[1:])):
        k = np.nonzero((np.minimum(ep, eq) <= i) & (i < np.maximum(ep, eq)))[0]
        p, d = start[k], end[k] - start[k]
        ya = np.clip(p[:, 1] + (xl - p[:, 0]) / d[:, 0] * d[:, 1], y0, y1)
        yb = np.clip(p[:, 1] + (xr - p[:, 0]) / d[:, 0] * d[:, 1], y0, y1)
        bounds = [(y0, y0), *sorted(zip(ya, yb), key=sum), (y1, y1)]
        inside = inside_below_scalar(*ring, 0.5 * (xl + xr), y0)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            height = np.maximum(np.subtract(hi, lo), 0.0)
            if inside and height.max() > 0.0:
                rows.append((xl, xr, *lo, *height))
            inside = not inside
    return np.array(rows).reshape(-1, 6)


def cut_geometry_loop(am):
    """The pieces of an active mesh's cut geometry, one segment at a time.

    Returns (seg, start, end, owner): the pieces and the cell owning each
    piece. A segment's points are its start vertex and its crossings with
    each gridline g = origin + j*h with min < g < max of its end
    coordinates, each with that coordinate set to g, in order along the
    segment; its pieces join each point to the next and the last to the
    segment's end vertex, and a piece is dropped only when its two end
    points are equal. ``mesh._build_cut_geometry`` must give the same arrays
    bit for bit.
    """
    grid = am.grid
    poly = am.poly
    ox, oy = grid.origin
    h = grid.h
    a_all, b_all = poly.segments()
    normals = poly.segment_normals()
    eps = 1e-9 * h

    def cell_of(x, y) -> int:
        ix = min(max(int(np.floor((x - ox) / h)), 0), grid.nx - 1)
        iy = min(max(int(np.floor((y - oy) / h)), 0), grid.ny - 1)
        return cell_id(grid, ix, iy)

    pieces = []
    owner = []
    for s in range(len(a_all)):
        a, b = a_all[s], b_all[s]
        d = b - a
        points = [(0.0, a)]
        for k, o in ((0, ox), (1, oy)):
            lo, hi = min(a[k], b[k]), max(a[k], b[k])
            for j in range(int(np.floor((lo - o) / h)) - 1, int(np.floor((hi - o) / h)) + 2):
                g = o + j * h
                if lo < g < hi:
                    t = (g - a[k]) / d[k]
                    assert 0.0 <= t <= 1.0
                    x = a + t * d
                    x[k] = g
                    points.append((t, x))
        # A stable sort: at equal t the x-gridline crossing stays first.
        ends = [x for _, x in sorted(points, key=lambda point: point[0])] + [b]
        nrm = normals[s]
        for p, q in zip(ends[:-1], ends[1:]):
            if np.array_equal(p, q):
                continue
            mid = 0.5 * (p + q)
            owner.append(cell_of(mid[0] - eps * nrm[0], mid[1] - eps * nrm[1]))
            pieces.append((s, p, q))

    seg = np.array([s for s, _, _ in pieces])
    start = np.array([p for _, p, _ in pieces])
    end = np.array([q for _, _, q in pieces])
    return seg, start, end, np.array(owner)


def levelset_boundary_loop(domain: Disk, grid) -> BoundaryPolygon:
    """Zero contour of the nodal signed-distance samples of a disk, one
    triangle at a time; ``extract_levelset_boundary`` must give the same
    vertices bit for bit.

    phi(x) = |x - c| - R is sampled at the grid nodes, each cell is split
    along its lower-left to upper-right diagonal, and the piecewise linear
    zero set is chained into one closed CCW polygon.
    """
    if not isinstance(domain, Disk):
        raise TypeError("level-set extraction is defined for Disk domains")
    if grid.h >= domain.radius / 4.0:
        raise GeometryError("grid too coarse to resolve the disk (need h < radius/4)")
    nx, ny, h = grid.nx, grid.ny, grid.h
    ox, oy = grid.origin
    xs = ox + h * np.arange(nx + 1)
    ys = oy + h * np.arange(ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cx, cy = domain.center
    phi = np.hypot(X - cx, Y - cy) - domain.radius
    # Nudge exact zeros so every crossing is a strict sign change.
    phi[phi == 0.0] = 1e-14 * h
    if np.any(phi[0, :] < 0) or np.any(phi[-1, :] < 0) or np.any(phi[:, 0] < 0) or np.any(phi[:, -1] < 0):
        raise GeometryError("zero level set is not strictly inside the grid")

    def node_id(ix, iy):
        return ix * (ny + 1) + iy

    # Crossing point on a mesh edge, computed once per edge so both adjacent
    # triangles chain through bitwise identical coordinates.
    crossing: dict[tuple[int, int], np.ndarray] = {}

    def edge_point(na, nb):
        key = (na, nb) if na < nb else (nb, na)
        p = crossing.get(key)
        if p is None:
            ia, ja = divmod(key[0], ny + 1)
            ib, jb = divmod(key[1], ny + 1)
            fa, fb = phi[ia, ja], phi[ib, jb]
            t = fa / (fa - fb)
            p = np.array(
                [xs[ia] + t * (xs[ib] - xs[ia]), ys[ja] + t * (ys[jb] - ys[ja])]
            )
            crossing[key] = p
        return key, p

    # Each triangle with a sign change contributes one segment between two of
    # its edges; the contour is the closed chain of those segments.
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add_segment(ka, kb):
        links.setdefault(ka, []).append(kb)
        links.setdefault(kb, []).append(ka)

    neg = phi < 0.0
    ix_arr, iy_arr = np.nonzero(
        neg[:-1, :-1] | neg[1:, :-1] | neg[:-1, 1:] | neg[1:, 1:]
    )
    for ix, iy in zip(ix_arr, iy_arr):
        n00 = node_id(ix, iy)
        n10 = node_id(ix + 1, iy)
        n01 = node_id(ix, iy + 1)
        n11 = node_id(ix + 1, iy + 1)
        for tri in ((n00, n10, n11), (n00, n11, n01)):
            signs = [phi[n // (ny + 1), n % (ny + 1)] < 0.0 for n in tri]
            if all(signs) or not any(signs):
                continue
            cross_edges = []
            for ea, eb in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                sa = phi[ea // (ny + 1), ea % (ny + 1)] < 0.0
                sb = phi[eb // (ny + 1), eb % (ny + 1)] < 0.0
                if sa != sb:
                    cross_edges.append(edge_point(ea, eb)[0])
            if len(cross_edges) != 2:
                raise GeometryError("degenerate level-set crossing pattern")
            add_segment(cross_edges[0], cross_edges[1])

    if not links:
        raise GeometryError("level set produced no contour segments")
    if any(len(nbrs) != 2 for nbrs in links.values()):
        raise GeometryError("level-set contour is open or self-touching")

    start = next(iter(links))
    chain = [start]
    prev, cur = None, start
    while True:
        a, b = links[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        chain.append(nxt)
        prev, cur = cur, nxt
    if len(chain) < len(crossing):
        raise GeometryError("level-set contour has multiple components")

    verts = np.array([crossing[k] for k in chain])
    # Merge near-coincident consecutive points (crossings close to a node).
    keep = np.ones(len(verts), dtype=bool)
    d = np.roll(verts, -1, axis=0) - verts
    keep[np.hypot(d[:, 0], d[:, 1]) < 1e-9 * h] = False
    verts = verts[keep]
    if _shoelace(verts) < 0.0:
        verts = verts[::-1]
    return BoundaryPolygon(verts)


def segment_box_interval(ax, ay, bx, by, x0, y0, x1, y1) -> tuple[float, float] | None:
    """Parameter range of segment (a, b) inside the closed box, or None."""
    t0, t1 = 0.0, 1.0
    for p0, d, lo, hi in ((ax, bx - ax, x0, x1), (ay, by - ay, y0, y1)):
        if d == 0.0:
            if p0 < lo or p0 > hi:
                return None
        else:
            ta, tb = (lo - p0) / d, (hi - p0) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                return None
    return t0, t1


def mark_cut_cells_loop(grid, poly) -> np.ndarray:
    """Boolean mask over all cells touched by a polygon segment, one candidate
    cell at a time. The Cut mask of ``mesh.classify_elements`` must equal it
    with the owner cells of ``cut_geometry_loop`` added."""
    a, b = poly.segments()
    ox, oy = grid.origin
    h = grid.h
    min_x = np.minimum(a[:, 0], b[:, 0])
    max_x = np.maximum(a[:, 0], b[:, 0])
    min_y = np.minimum(a[:, 1], b[:, 1])
    max_y = np.maximum(a[:, 1], b[:, 1])
    jx0 = np.floor((min_x - ox) / h).astype(int)
    jx1 = np.floor((max_x - ox) / h).astype(int)
    jy0 = np.floor((min_y - oy) / h).astype(int)
    jy1 = np.floor((max_y - oy) / h).astype(int)

    cut = np.zeros((grid.ny, grid.nx), dtype=bool)
    # Fast path: segment bounding box strictly interior to a single cell.
    interior = (
        (jx0 == jx1)
        & (jy0 == jy1)
        & (min_x > ox + jx0 * h)
        & (max_x < ox + (jx0 + 1) * h)
        & (min_y > oy + jy0 * h)
        & (max_y < oy + (jy0 + 1) * h)
    )
    cut[jy0[interior], jx0[interior]] = True
    # Remaining segments: exact test over a padded candidate range (padding
    # absorbs touches on gridlines and floating-point rounding of the floors).
    ix_lo = np.clip(jx0 - 1, 0, grid.nx - 1)
    ix_hi = np.clip(jx1 + 1, 0, grid.nx - 1)
    iy_lo = np.clip(jy0 - 1, 0, grid.ny - 1)
    iy_hi = np.clip(jy1 + 1, 0, grid.ny - 1)
    for s in np.nonzero(~interior)[0]:
        axs, ays, bxs, bys = a[s, 0], a[s, 1], b[s, 0], b[s, 1]
        for iy in range(iy_lo[s], iy_hi[s] + 1):
            yb0 = oy + iy * h
            for ix in range(ix_lo[s], ix_hi[s] + 1):
                if cut[iy, ix]:
                    continue
                xb0 = ox + ix * h
                hit = segment_box_interval(axs, ays, bxs, bys, xb0, yb0, xb0 + h, yb0 + h)
                if hit is not None:
                    cut[iy, ix] = True
    return cut.reshape(-1)


def _piece_endpoints(a_all, b_all, seg, t0, t1) -> tuple[np.ndarray, np.ndarray]:
    """End points of the pieces t0..t1 of polygon segments a -> b, each (k, 2);
    t = 1 gives the segment's end vertex itself, as t = 0 gives its start."""
    a = a_all[seg]
    d = b_all[seg] - a
    end = np.where((t1 == 1.0)[:, None], b_all[seg], a + t1[:, None] * d)
    return a + t0[:, None] * d, end


def _trapezoids_rule(traps: np.ndarray, order: int) -> CutVolumeRule:
    """Tensor Gauss rules mapped onto strip trapezoids, exact to the given degree.

    Across the strip the integrand is a polynomial of degree order + 1 (the
    trapezoid's lower and upper edges are linear), along it of degree order.
    All weights are nonnegative and all points lie in the trapezoids.
    """
    u, wu = _gauss01(_points_for_degree(order + 1))
    v, wv = _gauss01(_points_for_degree(order))
    xl, xr, lo_l, lo_r, hl, hr = traps.T
    width = xr - xl
    x = xl[:, None] + width[:, None] * u
    lo = lo_l[:, None] + (lo_r - lo_l)[:, None] * u
    height = hl[:, None] + (hr - hl)[:, None] * u
    y = lo[:, :, None] + height[:, :, None] * v
    w = (width[:, None] * wu * height)[:, :, None] * wv
    x = np.broadcast_to(x[:, :, None], y.shape)
    return CutVolumeRule(points=np.column_stack((x.ravel(), y.ravel())), weights=w.ravel())


def cut_volume_rule(box, poly, order: int) -> CutVolumeRule:
    """Quadrature for box ∩ polygon exact to the given polynomial degree.

    The polygon segments are clipped to the box one at a time, and the
    clipped pieces go through ``strip_trapezoids_one_box`` with the polygon
    segments for the ray. The rule is empty when the intersection is.
    """
    p = poly if isinstance(poly, BoundaryPolygon) else BoundaryPolygon(poly)
    a_all, b_all = p.segments()
    h = max(box[2] - box[0], box[3] - box[1])
    seg, t0, t1 = [], [], []
    for s, (a, b) in enumerate(zip(a_all, b_all)):
        iv = segment_box_interval(a[0], a[1], b[0], b[1], *box)
        if iv is not None and (iv[1] - iv[0]) * float(np.hypot(*(b - a))) >= 1e-14 * h:
            seg.append(s)
            t0.append(iv[0])
            t1.append(iv[1])
    seg = np.array(seg, dtype=int)
    start, end = _piece_endpoints(a_all, b_all, seg, np.array(t0), np.array(t1))
    start, end = np.clip(start, box[:2], box[2:]), np.clip(end, box[:2], box[2:])
    traps = strip_trapezoids_one_box(box, start, end, (a_all, b_all), h)
    return _trapezoids_rule(traps, order)


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
        return vals, grads, dofmap.cell_dofs[eid]

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

    return _blocks_to_csr(bulk, n), rhs, _blocks_to_csr(nitsche, n)


def _blocks_to_csr(blocks, n: int):
    """Sum of local matrices, each given as (dofs, matrix), into an (n, n) CSR."""
    rows = [np.repeat(d, len(d)) for d, _ in blocks]
    cols = [np.tile(d, len(d)) for d, _ in blocks]
    data = [m.reshape(-1) for _, m in blocks]
    coo = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return coo.tocsr()


def ghost_face_matrix(basis, params, h: float, axis: int) -> np.ndarray:
    """Local ghost matrix of one face with normal ``axis``, low element's dofs first.

    Per derivative order j the face rows are tensor products of the 1D
    Lagrange values along the face and the j-th derivatives at the low (1)
    and high (0) element ends, broadcast by hand; the weighted Gram matrices
    gamma_j h^(2j-1) J^T W J of the jumps are summed over j.
    """
    p = basis.p
    nloc = (p + 1) ** 2
    t, w = np.polynomial.legendre.leggauss(p + 1)
    t = 0.5 * (t + 1.0)
    w_face = 0.5 * h * w
    tang = basis.lagrange_1d(t)
    m = np.zeros((2 * nloc, 2 * nloc))
    for j in range(1, p + 1):
        end_lo = basis.lagrange_1d(np.array([1.0]), j)[0] / h**j
        end_hi = basis.lagrange_1d(np.array([0.0]), j)[0] / h**j
        if axis == 0:
            # x-normal face: tangential direction is y, local k = iy*(p+1)+ix.
            d_lo = tang[:, :, None] * end_lo[None, None, :]
            d_hi = tang[:, :, None] * end_hi[None, None, :]
        else:
            d_lo = end_lo[None, :, None] * tang[:, None, :]
            d_hi = end_hi[None, :, None] * tang[:, None, :]
        jump = np.concatenate((d_lo.reshape(len(t), nloc), -d_hi.reshape(len(t), nloc)), axis=1)
        m += params.gamma[j - 1] * h ** (2 * j - 1) * (jump.T @ (w_face[:, None] * jump))
    return m


def per_face_ghost_penalty(am, basis, params, dofmap):
    """Ghost-penalty matrix summed face by face from ``ghost_face_matrix``."""
    local = [ghost_face_matrix(basis, params, am.grid.h, axis) for axis in (0, 1)]
    blocks = []
    for lo, hi, axis in am.ghost_faces_arr:
        blocks.append((np.concatenate(dofmap.cell_dofs[[lo, hi]]), local[axis]))
    return _blocks_to_csr(blocks, dofmap.n_dofs)


def nested_dissection_loop(am, p: int):
    """Lattice nodes of the active cells in nested-dissection postorder, by recursion.

    A node's reach, per axis, is the largest lattice coordinate of the cells
    whose nodes share an entry with it: its own cells and, across a ghost
    face, the face's other cell. A box of cells with two or more cells along
    the axis of its depth (x at even depths, y at odd ones) is cut at its
    middle gridline g; the nodes with reach <= p g go to the low box, those
    above p g to the high box, and the rest form the separator. A box one
    cell wide along that axis passes its nodes on to depth + 1 as its low
    box, and a box one cell wide in both axes is a leaf. The nodes are
    listed low box, high box, separator, each part in row-major order.

    Returns the nodes as (m, 2) lattice coordinates, and each node's box as
    the tuple of the sides (0 low, 1 high) on its path from the root.
    """
    nx = am.grid.nx
    neighbors = {int(cell): {int(cell)} for cell in am.active}
    for lo, hi, _ in am.ghost_faces_arr:
        neighbors[int(lo)].add(int(hi))
        neighbors[int(hi)].add(int(lo))
    reach = {}
    for cell, near in neighbors.items():
        far = (p * (max(c % nx for c in near) + 1), p * (max(c // nx for c in near) + 1))
        for iy in range(p + 1):
            for ix in range(p + 1):
                node = (p * (cell % nx) + ix, p * (cell // nx) + iy)
                old = reach.get(node, (0, 0))
                reach[node] = (max(old[0], far[0]), max(old[1], far[1]))

    order, boxes = [], {}

    def split(nodes, box, depth, path):
        lo, hi = box[depth % 2]
        if not nodes:
            return
        if all(b - a < 2 for a, b in box):
            order.extend(nodes)
            boxes.update((node, path) for node in nodes)
            return
        if hi - lo < 2:
            split(nodes, box, depth + 1, path + (0,))
            return
        axis, mid = depth % 2, (lo + hi) // 2
        low_box, high_box = list(box), list(box)
        low_box[axis], high_box[axis] = (lo, mid), (mid, hi)
        split([n for n in nodes if reach[n][axis] <= p * mid], low_box, depth + 1, path + (0,))
        split([n for n in nodes if n[axis] > p * mid], high_box, depth + 1, path + (1,))
        separator = [n for n in nodes if n[axis] <= p * mid < reach[n][axis]]
        order.extend(separator)
        boxes.update((node, path) for node in separator)

    split(sorted(reach, key=lambda n: (n[1], n[0])), [(0, nx), (0, am.grid.ny)], 0, ())
    return np.array(order), [boxes[node] for node in order]


def lowest_active_cell(am, cell_dofs, x: float, y: float):
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
        cell_id(grid, ix, iy)
        for ix in axis_candidates(gx, grid.nx)
        for iy in axis_candidates(gy, grid.ny)
    )
    return next((c for c in ids if cell_dofs[c, 0] >= 0), None)


def perturbed_square(amplitude: float, phase: float, per_side: int = 16) -> BoundaryPolygon:
    """Unit square pushed out radially by amplitude*cos(5 theta + phase)."""
    s = np.arange(per_side) / per_side
    one, zero = np.ones_like(s), np.zeros_like(s)
    pts = np.concatenate(
        [
            np.column_stack((s, zero)),
            np.column_stack((one, s)),
            np.column_stack((1.0 - s, one)),
            np.column_stack((zero, 1.0 - s)),
        ]
    )
    r = pts - np.array([0.45, 0.35])
    theta = np.arctan2(r[:, 1], r[:, 0])
    rhat = r / np.hypot(r[:, 0], r[:, 1])[:, None]
    return BoundaryPolygon(pts + (amplitude * np.cos(5.0 * theta + phase))[:, None] * rhat)


def no_inside_cell_mesh():
    """A quadrilateral that cuts all four cells of a 2 x 2 grid with h = 0.5: no cell is inside."""
    grid = BackgroundGrid(origin=(0.0, 0.0), h=0.5, nx=2, ny=2)
    return classify_elements(grid, BoundaryPolygon([[0.1, 0.15], [0.85, 0.2], [0.9, 0.8], [0.2, 0.9]]))


offsets = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
amplitudes = st.one_of(st.just(0.0), st.floats(1e-3, 0.04))
phases = st.floats(0.0, 2.0 * np.pi)
cells = st.sampled_from([12, 18, 24])


@st.composite
def square_meshes(draw):
    n = draw(cells)
    h = 1.5 / n
    shift = draw(offsets) * h
    grid = BackgroundGrid(origin=(-0.25 - shift, -0.25 - shift), h=h, nx=n, ny=n)
    return classify_elements(grid, perturbed_square(draw(amplitudes), draw(phases)))


@st.composite
def levelset_meshes(draw):
    n = draw(st.sampled_from([18, 24, 30]))
    grid = BackgroundGrid(origin=(-1.25, -1.25), h=2.5 / n, nx=n, ny=n)
    center = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    disk = Disk(center=center, radius=draw(st.floats(0.7, 0.95)))
    return classify_elements(grid, extract_levelset_boundary(disk, grid))


meshes = st.one_of(square_meshes(), levelset_meshes())


@st.composite
def near_gridline_star_meshes(draw):
    """Star polygons around (0.5, 0.5) with 5 to 13 vertices on 8, 12 or 16
    cell grids over [-0.25, 1.25]^2, about half of their coordinates moved
    onto the nearest gridline and then up to 4 steps of 2e-16 off it; only
    polygons that stay simple and counterclockwise are kept."""
    n = draw(st.sampled_from([8, 12, 16]))
    h = 1.5 / n
    m = draw(st.integers(5, 13))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=m, max_size=m)))
    radii = np.array(draw(st.lists(st.floats(0.1, 0.5), min_size=m, max_size=m)))
    v = 0.5 + radii[:, None] * np.column_stack((np.cos(angles), np.sin(angles)))
    snap = np.array(draw(st.lists(st.booleans(), min_size=2 * m, max_size=2 * m)))
    ulps = np.array(draw(st.lists(st.integers(-4, 4), min_size=2 * m, max_size=2 * m)))
    gridline = -0.25 + np.round((v + 0.25) / h) * h + 2e-16 * ulps.reshape(m, 2)
    v = np.where(snap.reshape(m, 2), gridline, v)
    distinct = np.all(np.any(v != np.roll(v, -1, axis=0), axis=1))
    assume(distinct and is_simple_polygon(v) and _shoelace(v) > 0.0)
    return classify_elements(BackgroundGrid((-0.25, -0.25), h, n, n), BoundaryPolygon(v))


@st.composite
def disks_on_grids(draw):
    """A disk and a grid whose boundary nodes lie outside it, with the grid
    shifted by a fraction of a cell."""
    n = draw(st.integers(24, 48))
    h = 2.5 / n
    shift = draw(offsets) * h, draw(offsets) * h
    grid = BackgroundGrid(origin=(-1.25 - shift[0], -1.25 - shift[1]), h=h, nx=n + 1, ny=n + 1)
    center = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
    return Disk(center=center, radius=draw(st.floats(0.5, 1.0))), grid
