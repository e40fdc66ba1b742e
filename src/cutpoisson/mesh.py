"""Uniform background grid and extraction of the active mesh.

Classification splits all polygon segments at the gridlines, once per mesh.
The points of that split, the polygon vertices and the gridline crossings,
are the end points of the boundary pieces for every later use. An element
is Cut if its closed box holds one of the points, or if it owns a boundary
piece; Inside if it lies strictly within the polygon; excluded otherwise. A
cell the polygon touches only at a corner is Cut but owns no piece. The
ghost-penalty face set consists of the interior faces of the active mesh
touching at least one Cut element; it is computed on first use. The cut
geometry, computed once per active mesh for every quadrature order, reuses
the split and walks all Cut elements in strips, in one pass of array
operations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, QuadratureError
from .geometry import BoundaryPolygon

__all__ = [
    "BackgroundGrid",
    "ActiveMesh",
    "OUTSIDE",
    "INSIDE",
    "CUT",
    "CutGeometry",
    "classify_elements",
    "ghost_faces",
    "point_in_polygon",
    "strip_trapezoids",
]

OUTSIDE, INSIDE, CUT = 0, 1, 2


@dataclass(frozen=True)
class BackgroundGrid:
    """Axis-aligned grid of square cells of side h covering the mesh domain."""

    origin: tuple[float, float]
    h: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise MeshError("grid spacing h must be positive")
        if self.nx < 1 or self.ny < 1:
            raise MeshError("grid needs at least one cell per direction")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_id(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix

    def cell_coords(self, eid) -> tuple[np.ndarray, np.ndarray]:
        eid = np.asarray(eid)
        return eid % self.nx, eid // self.nx

    def cell_box(self, eid: int) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) of the closed element box."""
        ix, iy = int(eid) % self.nx, int(eid) // self.nx
        ox, oy = self.origin
        return (ox + ix * self.h, oy + iy * self.h, ox + (ix + 1) * self.h, oy + (iy + 1) * self.h)

    def cell_origin(self, eid) -> np.ndarray:
        ix, iy = self.cell_coords(eid)
        return np.stack(
            (self.origin[0] + ix * self.h, self.origin[1] + iy * self.h), axis=-1
        )

    @property
    def extent(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.nx * self.h, oy + self.ny * self.h)


@dataclass
class ActiveMesh:
    """Active elements with their classification and ghost-penalty faces.

    ``classification`` holds one of OUTSIDE/INSIDE/CUT per grid cell;
    ``active`` lists the active cell ids (Inside or Cut) in ascending order.
    ``ghost_faces_arr`` rows are (cell_low, cell_high, axis) with axis 0 for
    faces with an x-normal and 1 for a y-normal. The polygon used for the
    classification is retained so downstream assembly can build quadrature,
    and so is its gridline split: :func:`classify_elements` stores the split
    it classified with, and a mesh built from its fields splits on first use.
    """

    grid: BackgroundGrid
    poly: BoundaryPolygon
    classification: np.ndarray
    active: np.ndarray

    @property
    def inside_ids(self) -> np.ndarray:
        return self.active[self.classification[self.active] == INSIDE]

    @property
    def cut_ids(self) -> np.ndarray:
        return self.active[self.classification[self.active] == CUT]

    @functools.cached_property
    def ghost_faces_arr(self) -> np.ndarray:
        """The faces of :func:`ghost_faces`, computed on first use."""
        return ghost_faces(self)

    @functools.cached_property
    def _split(self) -> tuple:
        """The polygon split at the gridlines, computed on first use."""
        return _split_at_gridlines(self.grid, self.poly)

    @functools.cached_property
    def cut_geometry(self) -> "CutGeometry":
        """Boundary pieces and cut-cell trapezoids, shared by every quadrature order."""
        return _build_cut_geometry(self)


def _split_at_gridlines(grid: BackgroundGrid, poly: BoundaryPolygon):
    """Split every polygon segment at the gridlines, all segments in one batch.

    Returns (seg, start, end, owner, other, cut). The points are each
    segment's start vertex and its gridline crossings, in polygon order; a
    crossing's gridline coordinate is origin[k] + j*h, the arithmetic of the
    cell box edges. Piece i runs on segment seg[i] from one point to the
    next, so end[i] is start[i + 1] and end[-1] is start[0], bit for bit;
    only pieces whose two end points are equal are dropped. Piece i is owned
    by cell owner[i], which holds mid - 1e-9*h*normal (the inner side of the
    boundary), and other[i] holds mid + 1e-9*h*normal. ``cut`` marks the
    cells that own a piece or whose closed box, lo = origin + c*h to lo + h
    on each axis, holds a point.
    """
    origin, h = np.array(grid.origin), grid.h
    a, b = poly.segments()
    d = b - a
    n = len(a)

    # Every segment's start vertex (t = 0) and its gridline crossings 0 < t < 1.
    seg, t, points = [np.arange(n)], [np.zeros(n)], [a]
    for k, o in enumerate(origin):
        lo = np.floor((np.minimum(a[:, k], b[:, k]) - o) / h).astype(int) + 1
        hi = np.floor((np.maximum(a[:, k], b[:, k]) - o) / h).astype(int)
        s, j = _ranges(lo, hi - lo + 1)
        ts = (o + j * h - a[s, k]) / d[s, k]
        crossing = (ts > 0.0) & (ts < 1.0)
        s, j, ts = s[crossing], j[crossing], ts[crossing]
        x = a[s] + ts[:, None] * d[s]
        x[:, k] = o + j * h
        seg.append(s)
        t.append(ts)
        points.append(x)
    seg, t, points = np.concatenate(seg), np.concatenate(t), np.concatenate(points)
    order = np.lexsort((t, seg))
    seg, points = seg[order], points[order]
    following = np.roll(points, -1, axis=0)
    # A crossing on a vertex, or at a grid vertex that both axes find, can
    # give two equal points; the empty piece between them is dropped.
    piece = np.any(points != following, axis=1)
    seg, start, end = seg[piece], points[piece], following[piece]

    mid = 0.5 * (start + end)
    step = 1e-9 * h * poly.segment_normals()[seg]
    shape = np.array([grid.nx, grid.ny])

    def cell_of(x):
        ix, iy = np.clip(np.floor((x - origin) / h).astype(int), 0, shape - 1).T
        return iy * grid.nx + ix

    owner, other = cell_of(mid - step), cell_of(mid + step)

    # The closed boxes holding each point: per axis, the floor cell and its
    # two neighbours are the candidates (a point within rounding of a
    # gridline is in both cells beside it). The box's upper edge is lo + h,
    # not origin + (c + 1)*h: the two can differ in the last bit.
    cell = np.floor((points - origin) / h).astype(int)[:, :, None] + np.arange(-1, 2)
    lo = origin[:, None] + cell * h
    x = points[:, :, None]
    holds = (lo <= x) & (x <= lo + h) & (cell >= 0) & (cell < shape[:, None])
    p, i, j = np.nonzero(holds[:, 0, :, None] & holds[:, 1, None, :])
    cut = np.zeros(grid.n_cells, dtype=bool)
    cut[cell[p, 1, j] * grid.nx + cell[p, 0, i]] = True
    cut[owner] = True
    return seg, start, end, owner, other, cut


def _ranges(first, count) -> tuple[np.ndarray, np.ndarray]:
    """For each i the integers first[i] .. first[i] + count[i] - 1, concatenated,
    and the i of each of them."""
    i = np.repeat(np.arange(len(count)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + first[i]


def point_in_polygon(poly: BoundaryPolygon, points, h: float) -> np.ndarray:
    """Even-odd test of each point with the ray direction (1, 1e-9*h) to dodge vertex hits.

    ``points`` is (m, 2) or one point. The points are grouped by y, and each
    group is tested only against the segments whose y-range comes within
    twice the ray's largest rise over the x-extent of the points and vertices.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eps = 1e-9 * h
    a, b = poly.segments()
    reach = 2.0 * eps * np.ptp(np.concatenate((a[:, 0], pts[:, 0])))
    rows, row = np.unique(pts[:, 1], return_inverse=True)
    first_row = np.searchsorted(rows, np.minimum(a[:, 1], b[:, 1]) - reach)
    end_row = np.searchsorted(rows, np.maximum(a[:, 1], b[:, 1]) + reach, side="right")
    k, r = _ranges(first_row, end_row - first_row)
    # Expand each (segment, row) pair to the row's points.
    per_row = np.bincount(row, minlength=len(rows))
    pair, at = _ranges((np.cumsum(per_row) - per_row)[r], per_row[r])
    k, i = k[pair], np.argsort(row, kind="stable")[at]
    px, py = pts[i, 0], pts[i, 1]
    va = (a[k, 1] - py) - eps * (a[k, 0] - px)
    vb = (b[k, 1] - py) - eps * (b[k, 0] - px)
    straddle = (va > 0.0) != (vb > 0.0)
    k, i, va, vb = k[straddle], i[straddle], va[straddle], vb[straddle]
    t = va / (va - vb)
    xs = a[k] + t[:, None] * (b[k] - a[k])
    forward = (xs[:, 0] - pts[i, 0]) + eps * (xs[:, 1] - pts[i, 1]) > 0.0
    return np.bincount(i[forward], minlength=len(pts)) % 2 == 1


def strip_trapezoids(boxes, start, end, piece_box, poly: BoundaryPolygon, h: float):
    """Decompose each box ∩ polygon into trapezoids over vertical strips.

    ``boxes`` rows are (x0, y0, x1, y1). ``start``/``end`` are the boundary
    pieces inside the closed box ``boxes[piece_box]``, oriented like the CCW
    polygon; they are clamped onto that box. The strips of a box run between
    consecutive abscissae of the box and its pieces; an abscissa within
    1e-14*h of the next lower one joins its edge, since the two ends of a
    piece at a grid vertex can differ in their last bits. Going up a strip,
    a piece running in +x enters the domain and one running in -x leaves it
    (pieces go up by unclamped height at the strip centre); a strip no piece
    crosses is inside when its centre is. Returns rows (xl, xr, lo_l, lo_r,
    hl, hr) and the box of each row, grouped by box: x in [xl, xr], y from
    lo_l + (lo_r - lo_l) u upwards by hl + (hr - hl) u with
    u = (x - xl)/(xr - xl), and hl, hr >= 0.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    nb = len(boxes)
    p = np.clip(start, boxes[piece_box, :2], boxes[piece_box, 2:])
    q = np.clip(end, boxes[piece_box, :2], boxes[piece_box, 2:])
    # Strip edges: the abscissae of each box, sorted by (box, x) and merged.
    cand_box = np.concatenate((np.arange(nb), np.arange(nb), piece_box, piece_box))
    cand_x = np.concatenate((boxes[:, 0], boxes[:, 2], p[:, 0], q[:, 0]))
    order = np.lexsort((cand_x, cand_box))
    new = np.diff(cand_box[order], prepend=-1) != 0
    new |= np.diff(cand_x[order], prepend=-np.inf) > 1e-14 * h
    edge = np.empty(len(order), dtype=int)
    edge[order] = np.cumsum(new) - 1
    xs, xs_box = cand_x[order][new], cand_box[order][new]
    inner = xs_box[1:] == xs_box[:-1]
    xl, xr, strip_box = xs[:-1][inner], xs[1:][inner], xs_box[:-1][inner]
    y0, y1 = boxes[strip_box, 1], boxes[strip_box, 3]

    # A piece spans the strips from its left to its right edge; the strip
    # starting at edge i of box b is strip i - b.
    ep, eq = edge[2 * nb :].reshape(2, -1)
    k, s = _ranges(np.minimum(ep, eq) - piece_box, np.abs(eq - ep))
    dx = q[k, 0] - p[k, 0]
    dy = q[k, 1] - p[k, 1]
    ya = np.clip(p[k, 1] + (xl[s] - p[k, 0]) / dx * dy, y0[s], y1[s])
    yb = np.clip(p[k, 1] + (xr[s] - p[k, 0]) / dx * dy, y0[s], y1[s])
    # Unclamped heights order pieces that clamping onto one face made tie.
    d = end[k] - start[k]
    yc = start[k, 1] + (0.5 * (xl[s] + xr[s]) - start[k, 0]) / d[:, 0] * d[:, 1]
    order = np.lexsort((yc, s))
    s, enters = s[order], dx[order] > 0.0
    ys = np.column_stack((ya, yb))[order]
    first = np.diff(s, prepend=-1) != 0
    last = np.diff(s, append=len(xl)) != 0
    if np.any(~first[1:] & (enters[1:] == enters[:-1])):
        raise QuadratureError("boundary pieces do not alternate in a strip; polygon not simple")

    # Inside intervals: below each leaving piece down to the previous piece or
    # the box bottom, above a topmost entering piece up to the box top, and
    # whole strips that no piece crosses.
    leaves = ~enters
    top = enters & last
    below = np.where(first[:, None], y0[s, None], np.roll(ys, 1, axis=0))
    free = np.setdiff1d(np.arange(len(xl)), s)
    centres = np.column_stack((0.5 * (xl[free] + xr[free]), 0.5 * (y0[free] + y1[free])))
    free = free[point_in_polygon(poly, centres, h)]
    strip = np.concatenate((s[leaves], s[top], free))
    lo = np.concatenate((below[leaves], ys[top], np.repeat(y0[free, None], 2, axis=1)))
    hi = np.concatenate((ys[leaves], np.repeat(y1[strip[leaves.sum() :], None], 2, axis=1)))
    height = np.maximum(hi - lo, 0.0)
    keep = height.max(axis=1) > 0.0
    rows = np.column_stack((xl[strip], xr[strip], lo, height))[keep]
    row_box = strip_box[strip][keep]
    by_box = np.argsort(row_box, kind="stable")
    return rows[by_box], row_box[by_box]


@dataclass(frozen=True)
class CutGeometry:
    """Order-independent cut geometry of an active mesh.

    The polygon segments are split at the gridlines into pieces ``start`` to
    ``end`` on segments ``seg``, in polygon order: consecutive pieces share
    their end points, and a piece end that is not a polygon vertex lies
    exactly on a gridline, origin[k] + j*h. ``owned[eid]`` indexes the
    pieces whose boundary integrals belong to cell eid, in polygon order,
    with the cells in order of their first piece. ``trapezoids`` rows
    decompose the cut cells ∩ polygon as returned by :func:`strip_trapezoids`;
    ``trapezoid_cells`` holds the cell of each row, ascending.
    """

    seg: np.ndarray
    start: np.ndarray
    end: np.ndarray
    owned: dict[int, list[int]]
    trapezoids: np.ndarray
    trapezoid_cells: np.ndarray


def _build_cut_geometry(am: ActiveMesh) -> CutGeometry:
    """Walk the strips of all cut cells through the pieces of the gridline split.

    A piece on, or within 1e-9*h of, a face is listed for the walk of the
    cells on both sides of the face. QuadratureError is raised when the
    trapezoids and inside cells miss the polygon's area.
    """
    grid = am.grid
    seg, start, end, owner, other, _ = am._split
    cells, first, counts = np.unique(owner, return_index=True, return_counts=True)
    groups = np.split(np.argsort(owner, kind="stable"), np.cumsum(counts)[:-1])
    owned = {int(cells[i]): groups[i].tolist() for i in np.argsort(first)}

    ids = am.cut_ids
    box_of = np.full(grid.n_cells, -1)
    box_of[ids] = np.arange(len(ids))
    across = np.nonzero(other != owner)[0]
    piece = np.concatenate((np.arange(len(seg)), across))
    box = box_of[np.concatenate((owner, other[across]))]
    piece, box = piece[box >= 0], box[box >= 0]
    order = np.lexsort((piece, box))
    (ox, oy), h = grid.origin, grid.h
    ix, iy = grid.cell_coords(ids)
    boxes = np.column_stack((ox + ix * h, oy + iy * h, ox + (ix + 1) * h, oy + (iy + 1) * h))
    traps, row_box = strip_trapezoids(
        boxes, start[piece[order]], end[piece[order]], box[order], am.poly, h
    )
    # 1e-9 of the area lies far above roundoff (under 1e-14 on the study meshes) and far below
    # the miss of pieces that rounding misordered, as in a needle (5e-3 of the area and more).
    xl, xr, _, _, hl, hr = traps.T
    missed = 0.5 * np.sum((xr - xl) * (hl + hr)) + len(am.inside_ids) * h * h - am.poly.signed_area
    if abs(missed) > 1e-9 * am.poly.signed_area:
        raise QuadratureError(f"cut and inside cells miss the polygon area by {missed:.3e}")
    return CutGeometry(seg, start, end, owned, traps, ids[row_box])


def classify_elements(grid: BackgroundGrid, poly: BoundaryPolygon) -> ActiveMesh:
    """Classify all grid cells against the polygon and collect the active mesh.

    The Cut cells come from one gridline split of all segments, which the
    mesh keeps for its cut geometry. Each run of adjacent uncut cells in a
    grid row is inside or outside as a whole (the boundary cannot pass
    between two uncut neighbors), and one ray cast per run, all in one
    batch, decides which. The ghost faces and the cut geometry are left to
    the first access of ``ghost_faces_arr`` and ``cut_geometry``.
    """
    ext = grid.extent
    v = poly.vertices
    if (
        v[:, 0].min() <= ext[0]
        or v[:, 1].min() <= ext[1]
        or v[:, 0].max() >= ext[2]
        or v[:, 1].max() >= ext[3]
    ):
        raise MeshError("polygon must lie strictly inside the grid extent")

    split = _split_at_gridlines(grid, poly)
    uncut = ~split[-1]
    classification = np.where(uncut, OUTSIDE, CUT).astype(np.int8)
    starts = uncut & ((np.arange(grid.n_cells) % grid.nx == 0) | ~np.roll(uncut, 1))
    ix, iy = grid.cell_coords(np.nonzero(starts)[0])
    h = grid.h
    centres = np.column_stack((grid.origin[0] + (ix + 0.5) * h, grid.origin[1] + (iy + 0.5) * h))
    inside = np.concatenate(([False], point_in_polygon(poly, centres, h)))
    classification[uncut & inside[np.cumsum(starts)]] = INSIDE

    active = np.nonzero(classification != OUTSIDE)[0]
    am = ActiveMesh(grid=grid, poly=poly, classification=classification, active=active)
    am._split = split
    return am


def ghost_faces(am: ActiveMesh) -> np.ndarray:
    """Interior faces of the active mesh with at least one Cut neighbor.

    Returns an (m, 3) int array of (cell_low, cell_high, axis); axis 0 means
    the face normal points along x (vertical face), axis 1 along y.
    """
    grid = am.grid
    cls = am.classification.reshape(grid.ny, grid.nx)
    act = cls != OUTSIDE
    is_cut = cls == CUT

    faces = []
    # Faces with a normal along x (axis 0) join cell (ix, iy) to (ix + 1, iy),
    # those with a normal along y (axis 1) join it to (ix, iy + 1).
    for axis, low, high, step in (
        (0, np.s_[:, :-1], np.s_[:, 1:], 1),
        (1, np.s_[:-1], np.s_[1:], grid.nx),
    ):
        iy, ix = np.nonzero(act[low] & act[high] & (is_cut[low] | is_cut[high]))
        cell = iy * grid.nx + ix
        faces.append(np.column_stack((cell, cell + step, np.full_like(cell, axis))))
    return np.concatenate(faces, axis=0)
