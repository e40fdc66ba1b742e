"""Uniform background grid and extraction of the active mesh.

Classification splits all polygon segments at the gridlines, once per mesh.
The points of that split, the polygon vertices and the gridline crossings,
are the end points of the boundary pieces for every later use, and no piece
straddles a gridline. An element is Cut if its closed box holds one of the
points, or if it owns a boundary piece; Inside if it lies strictly within
the polygon; excluded otherwise. A cell the polygon touches only at a corner
is Cut but owns no piece. Every inside/outside question has one even-odd
answer: just below a gridline, a ray running left along it meets exactly the
pieces that end on the gridline from below (:func:`inside_below`). It gives
each uncut cell its class, and each strip of the cut cells its bottom state.
The ghost-penalty face set consists of the interior faces of the active
mesh touching at least one Cut element; it is computed on first use. The
cut geometry, computed once per active mesh for every quadrature order,
reuses the split and walks all Cut elements in vertical strips, in one pass
of array operations: going up a strip, the intervals between its bounds
(the box bottom, the pieces, the box top) alternate between inside and
outside.
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
    "inside_below",
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
        if not (0.0 < self.h < np.inf and np.all(np.isfinite(self.origin))):
            raise MeshError("grid spacing h must be positive, and h and origin finite")
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

    Returns (seg, start, end, owner, cut, key). The points are each segment's
    start vertex and its crossings with the gridlines strictly between its
    end coordinates, in polygon order. A gridline's coordinate is
    origin[k] + j*h, the arithmetic of the cell box edges; a crossing takes
    it exactly. Its parameter t along the segment stays in [0, 1], since
    rounding is monotone, and a t that rounds to 0 or 1 is kept.
    Piece i runs on segment seg[i] from one point to the next, so end[i] is
    start[i + 1] and end[-1] is start[0], bit for bit; only pieces whose two
    end points are equal are dropped. Piece i is owned by cell owner[i],
    which holds mid - 1e-9*h*normal (the inner side of the boundary).
    ``cut`` marks the cells that own a piece or whose closed box, lo =
    origin + c*h to lo + h on each axis, holds a point. ``key`` holds the
    pieces' sorted upper ends for :func:`inside_below`.
    """
    origin, h = np.array(grid.origin), grid.h
    a, b = poly.segments()
    d = b - a
    n = len(a)

    # Every segment's start vertex (t = 0) and its crossings with the
    # gridlines g, min < g < max.
    seg, t, points = [np.arange(n)], [np.zeros(n)], [a]
    for k, o in enumerate(origin):
        lo, hi = np.minimum(a[:, k], b[:, k]), np.maximum(a[:, k], b[:, k])
        first = _cell_index(lo, o, h) + 1
        s, j = _ranges(first, _cell_index(hi, o, h) - first + 1)
        g = o + j * h
        below = g < hi[s]
        s, g = s[below], g[below]
        ts = (g - a[s, k]) / d[s, k]
        x = a[s] + ts[:, None] * d[s]
        x[:, k] = g
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

    mid = 0.5 * (start + end) - 1e-9 * h * poly.segment_normals()[seg]
    shape = np.array([grid.nx, grid.ny])
    ix, iy = np.clip(np.floor((mid - origin) / h).astype(int), 0, shape - 1).T
    owner = iy * grid.nx + ix

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
    # The upper ends y + ix of the pieces that are not horizontal. Complex
    # numbers sort by real part, then imaginary part: by gridline, then by x.
    rising = start[:, 1] != end[:, 1]
    top = np.where((end[:, 1] > start[:, 1])[:, None], end, start)[rising]
    return seg, start, end, owner, cut, np.sort(top[:, 1] + 1j * top[:, 0])


def _cell_index(x, o, h):
    """The largest c with o + c*h <= x, in the arithmetic of the cell box edges."""
    c = np.floor((x - o) / h).astype(int)
    c -= o + c * h > x
    return c + (o + (c + 1) * h <= x)


def _ranges(first, count) -> tuple[np.ndarray, np.ndarray]:
    """For each i the integers first[i] .. first[i] + count[i] - 1, concatenated,
    and the i of each of them."""
    i = np.repeat(np.arange(len(count)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + first[i]


def inside_below(key, x, y) -> np.ndarray:
    """Whether the polygon holds the points just below each (x, y) on a gridline.

    ``key`` is the sorted upper ends of the pieces of the polygon's gridline
    split, as :func:`_split_at_gridlines` returns it. No piece straddles a
    gridline, so the ray running left just below (x, y) meets exactly the
    pieces whose upper end lies on the gridline y left of x and whose lower
    end lies below it; an odd count is inside.
    """
    met = np.searchsorted(key, y + 1j * x) - np.searchsorted(key.real, y)
    return met % 2 == 1


def strip_trapezoids(boxes, start, end, key, piece, piece_box, h: float):
    """Decompose each box ∩ polygon into trapezoids over vertical strips.

    ``boxes`` rows are (x0, y0, x1, y1). ``start``/``end`` are the pieces of
    the polygon's gridline split, in either direction, and ``key`` their
    sorted upper ends; the pieces ``piece`` lie in the closed boxes
    ``boxes[piece_box]``. The strips of a box run between consecutive
    abscissae of the box and its pieces; an abscissa within 1e-14*h of the
    next lower one joins its edge. Going up a strip, the intervals between
    its bounds (the box bottom, the pieces by height, the box top) alternate
    between inside and outside, starting from :func:`inside_below` at the
    strip's lower right corner. Returns rows
    (xl, xr, lo_l, lo_r, hl, hr) and the box of each row, grouped by box: x
    in [xl, xr], y from lo_l + (lo_r - lo_l) u upwards by hl + (hr - hl) u
    with u = (x - xl)/(xr - xl), and hl, hr >= 0.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    nb = len(boxes)
    p, q = start[piece], end[piece]
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

    # The bounds of every strip from the bottom up: the box bottom, the
    # pieces by height, the box top. Interval i of a strip, from its bound i
    # to bound i + 1, is inside when the strip's bottom is inside xor i is odd.
    m = len(xl)
    strip = np.concatenate((np.arange(m), s, np.arange(m)))
    order = np.lexsort((np.concatenate((np.full(m, -np.inf), ya + yb, np.full(m, np.inf))), strip))
    bound = np.column_stack((np.concatenate((y0, ya, y1)), np.concatenate((y0, yb, y1))))[order]
    strip = strip[order]
    i = np.arange(len(strip)) - np.searchsorted(strip, strip)
    bottom = inside_below(key, xr, y0)
    inside = (strip[1:] == strip[:-1]) & (bottom[strip[:-1]] != (i[:-1] % 2 == 1))
    strip, lo, hi = strip[:-1][inside], bound[:-1][inside], bound[1:][inside]
    height = np.maximum(hi - lo, 0.0)
    keep = height.max(axis=1) > 0.0
    rows = np.column_stack((xl[strip], xr[strip], lo, height))[keep]
    return rows, strip_box[strip][keep]


@dataclass(frozen=True)
class CutGeometry:
    """Order-independent cut geometry of an active mesh.

    The polygon segments are split at the gridlines into pieces ``start`` to
    ``end`` on segments ``seg``, in polygon order: consecutive pieces share
    their end points, and a piece end that is not a polygon vertex lies
    exactly on a gridline, origin[k] + j*h, so no piece straddles a
    gridline. ``owner[i]`` is the cell whose boundary integrals piece i
    belongs to, the split's owner on the inner side of the boundary.
    ``trapezoids`` rows decompose the cut cells ∩ polygon as
    returned by :func:`strip_trapezoids`, whose even-odd walk takes each
    piece in the cell holding its lower-left corner; ``trapezoid_cells``
    holds the cell of each row, ascending.
    """

    seg: np.ndarray
    start: np.ndarray
    end: np.ndarray
    owner: np.ndarray
    trapezoids: np.ndarray
    trapezoid_cells: np.ndarray


def _build_cut_geometry(am: ActiveMesh) -> CutGeometry:
    """Walk the strips of all cut cells through the pieces of the gridline split.

    Each piece lies in one closed cell box and is walked in the cell holding
    its lower-left corner, the largest c with origin + c*h <= x on each
    axis; a piece along a face thus lies on the box's left or bottom edge.
    QuadratureError is raised when the trapezoids and inside cells miss the
    polygon's area.
    """
    grid = am.grid
    seg, start, end, owner, _, key = am._split
    ids = am.cut_ids
    box_of = np.full(grid.n_cells, -1)
    box_of[ids] = np.arange(len(ids))
    origin, h = np.array(grid.origin), grid.h
    # A piece on the grid's top or right edge, as in a mesh fitted to the
    # grid, goes to the last row or column.
    c = np.minimum(_cell_index(np.minimum(start, end), origin, h), (grid.nx - 1, grid.ny - 1))
    box = box_of[c[:, 1] * grid.nx + c[:, 0]]
    piece = np.nonzero(box >= 0)[0]
    piece = piece[np.argsort(box[piece], kind="stable")]
    (ox, oy), (ix, iy) = grid.origin, grid.cell_coords(ids)
    boxes = np.column_stack((ox + ix * h, oy + iy * h, ox + (ix + 1) * h, oy + (iy + 1) * h))
    traps, row_box = strip_trapezoids(boxes, start, end, key, piece, box[piece], h)
    # 1e-9 of the area lies far above roundoff (under 1e-14 on the study meshes) and far below
    # the miss of a polygon that is not simple (1e-2 of the area for a figure-eight loop).
    xl, xr, _, _, hl, hr = traps.T
    missed = 0.5 * np.sum((xr - xl) * (hl + hr)) + len(am.inside_ids) * h * h - am.poly.signed_area
    if abs(missed) > 1e-9 * am.poly.signed_area:
        raise QuadratureError(f"cut and inside cells miss the polygon area by {missed:.3e}")
    return CutGeometry(seg, start, end, owner, traps, ids[row_box])


def classify_elements(grid: BackgroundGrid, poly: BoundaryPolygon) -> ActiveMesh:
    """Classify all grid cells against the polygon and collect the active mesh.

    The Cut cells come from one gridline split of all segments, which the
    mesh keeps for its cut geometry. The boundary does not meet an uncut
    cell's closed box, so :func:`inside_below` at its lower-left corner, all
    uncut cells in one batch, gives its class. The ghost faces and the cut
    geometry are left to the first access of ``ghost_faces_arr`` and
    ``cut_geometry``.
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
    *_, cut, key = split
    uncut = np.nonzero(~cut)[0]
    classification = np.full(grid.n_cells, CUT, dtype=np.int8)
    classification[uncut] = np.where(inside_below(key, *grid.cell_origin(uncut).T), INSIDE, OUTSIDE)

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
