"""Uniform background grid and extraction of the active mesh.

Classification splits all polygon segments at the gridlines, once per mesh.
The points of that split, the polygon vertices and the gridline crossings,
are the end points of the boundary pieces for every later use, and no piece
straddles a gridline. An element is Cut if its closed box holds one of the
points, or if it owns a boundary piece; Inside if it lies strictly within
the polygon; excluded otherwise. A cell the polygon touches only at a corner
is Cut but owns no piece. Every inside/outside question has one even-odd
answer, :func:`_inside_intervals`: just beside a gridline, a ray running left
along it meets exactly the pieces that end on the gridline from that side.
Over the pieces' upper ends, just below a gridline, it splits each cut
cell's top edge into inside and outside intervals and classifies each run of
uncut cells along a grid row at the bottom edge of the run's first cell;
over their lower ends, just above a gridline, it splits each cut cell's
bottom edge.
The ghost-penalty face set consists of the interior faces of the active
mesh touching at least one Cut element; it is computed on first use. The
cut geometry, computed once per active mesh for every quadrature order,
reuses the split in one pass of array operations: each Cut element gets the
bounding box of its part of the domain and the arcs of that part's boundary
along which Green's formula integrates: its pieces and the inside intervals
of its top and bottom edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
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

    def cell_coords(self, eid) -> tuple[np.ndarray, np.ndarray]:
        eid = np.asarray(eid)
        return eid % self.nx, eid // self.nx

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
        """Boundary pieces and cut-cell boxes and arcs, shared by every quadrature order."""
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
    pieces' sorted upper ends for :func:`_inside_intervals`.
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


@dataclass(frozen=True)
class CutGeometry:
    """Order-independent cut geometry of an active mesh.

    The polygon segments are split at the gridlines into pieces ``start`` to
    ``end`` on segments ``seg``, in polygon order: consecutive pieces share
    their end points, and a piece end that is not a polygon vertex lies
    exactly on a gridline, origin[k] + j*h, so no piece straddles a
    gridline. ``owner[i]`` is the cell whose boundary integrals piece i
    belongs to, the split's owner on the inner side of the boundary.
    ``cells`` lists, ascending, the cut cells K whose part of the domain,
    K ∩ Ω_h, has a bounding box ``boxes`` (rows x0, y0, x1, y1) of positive
    width and height. ``arcs`` rows (s0, t0, s1, t1) run counterclockwise
    along the boundary of K ∩ Ω_h, in the coordinates s, t that map box
    ``arc_box`` (ascending) onto [-1, 1]: the cell's pieces and the inside
    intervals of its top edge, from right to left, and of its bottom edge,
    from left to right. The rest of that boundary lies on the cell's left
    and right edges.
    """

    seg: np.ndarray
    start: np.ndarray
    end: np.ndarray
    owner: np.ndarray
    cells: np.ndarray
    boxes: np.ndarray
    arcs: np.ndarray
    arc_box: np.ndarray


def _build_cut_geometry(am: ActiveMesh) -> CutGeometry:
    """The boxes and arcs of all cut cells from the pieces of the gridline split.

    Each piece lies in one closed cell box and goes to the cell holding its
    lower-left corner, the largest c with origin + c*h <= x on each axis; a
    piece along a face thus lies on the box's left or bottom edge. The
    inside intervals of a cell's top edge lie just below it, where
    :func:`_inside_intervals` counts the pieces' upper ends; those of its
    bottom edge lie just above it, where the pieces' lower ends count. The arcs
    bound the cell's part of the domain, less the parts of its left and
    right edges, so their ends span its box.
    """
    grid = am.grid
    seg, start, end, owner, _, key = am._split
    origin, h = np.array(grid.origin), grid.h
    corner = np.minimum(start, end)
    c = _cell_index(corner, origin, h)
    # Per axis k: the piece lies on the gridline x_k = origin[k] + c*h.
    on_line = (start == end) & (corner == origin + c * h)
    # A piece on the grid's top or right edge, as in a mesh fitted to the
    # grid, goes to the last row or column.
    c = np.minimum(c, (grid.nx - 1, grid.ny - 1))
    cell = c[:, 1] * grid.nx + c[:, 0]

    ids = am.cut_ids
    (ox, oy), (ix, iy) = grid.origin, grid.cell_coords(ids)
    x0, x1 = ox + ix * h, ox + (ix + 1) * h
    low = np.where((end[:, 1] < start[:, 1])[:, None], end, start)[start[:, 1] != end[:, 1]]
    top, top_l, top_r = _inside_intervals(key, x0, x1, oy + (iy + 1) * h)
    bottom, bottom_l, bottom_r = _inside_intervals(
        np.sort(low[:, 1] + 1j * low[:, 0]), x0, x1, oy + iy * h
    )

    # A gridline piece along the bottom or top edge lies in an inside
    # interval of that edge or off the cell's part of the domain, and one
    # along the left edge bounds that part only when its inside lies in the
    # cell.
    keep = (am.classification[cell] == CUT) & ~on_line[:, 1] & ~(on_line[:, 0] & (owner != cell))
    arc_cell = np.concatenate((cell[keep], ids[top], ids[bottom]))
    order = np.argsort(arc_cell, kind="stable")
    arc_cell = arc_cell[order]
    p = np.concatenate((start[keep], top_r, bottom_l))[order]
    q = np.concatenate((end[keep], top_l, bottom_r))[order]
    first = np.flatnonzero(np.diff(arc_cell, prepend=-1))
    lo = np.minimum.reduceat(np.minimum(p, q), first)
    hi = np.maximum.reduceat(np.maximum(p, q), first)
    positive = np.all(hi > lo, axis=1)
    count = np.diff(first, append=len(arc_cell))
    arc = np.repeat(positive, count)
    arc_box = np.repeat(np.cumsum(positive) - 1, count)[arc]
    boxes = np.concatenate((lo, hi), axis=1)[positive]
    # 2 (x - lo) / (hi - lo) - 1, exactly -1 and 1 on the box's edges.
    lo, size = boxes[arc_box, :2], (boxes[:, 2:] - boxes[:, :2])[arc_box]
    arcs = (np.concatenate((p[arc], q[arc]), axis=1) - np.tile(lo, 2)) * 2 / np.tile(size, 2) - 1
    return CutGeometry(seg, start, end, owner, arc_cell[first][positive], boxes, arcs, arc_box)


def _inside_intervals(key, x0, x1, y):
    """The inside intervals of the edges from (x0, y) to (x1, y) on gridlines.

    ``key`` is the sorted ends y + ix, on one side of the gridlines, of the
    pieces that are not horizontal. No piece straddles a gridline, so just
    beside one, on that side, the polygon holds a point when an odd number
    of the ends on the gridline lie left of it. The ends within an edge
    split it into intervals that alternate from there. Returns the edge of
    each inside interval and its left and right end points.
    """
    first = np.searchsorted(key, y + 1j * x0, side="right")
    last = np.searchsorted(key, y + 1j * x1)
    edge, i = _ranges(first, last - first + 1)
    xs = np.append(key.imag, 0.0)
    left = np.where(i > first[edge], xs[i - 1], x0[edge])
    right = np.where(i < last[edge], xs[i], x1[edge])
    inside = (i - np.searchsorted(key.real, y)[edge]) % 2 == 1
    edge, y = edge[inside], y[edge[inside]]
    return edge, np.column_stack((left[inside], y)), np.column_stack((right[inside], y))


def classify_elements(grid: BackgroundGrid, poly: BoundaryPolygon) -> ActiveMesh:
    """Classify all grid cells against the polygon and collect the active mesh.

    The Cut cells come from one gridline split of all segments, which the
    mesh keeps for its cut geometry. No point of the split lies in an uncut
    cell's closed box, so a run of uncut cells along a grid row, edges
    included, lies on one side of the boundary: one batch of
    :func:`_inside_intervals` on the bottom edges of the runs' first cells,
    lo to lo + h as in the closed-box test, classifies them all. The ghost
    faces and the cut geometry are left to the first access of
    ``ghost_faces_arr`` and ``cut_geometry``.
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
    first = ~cut & ((np.arange(grid.n_cells) % grid.nx == 0) | np.roll(cut, 1))
    x, y = grid.cell_origin(np.flatnonzero(first)).T
    inside = np.zeros(len(x), dtype=bool)
    inside[_inside_intervals(key, x, x + grid.h, y)[0]] = True
    classification = np.full(grid.n_cells, CUT, dtype=np.int8)
    classification[~cut] = np.where(inside[np.cumsum(first)[~cut] - 1], INSIDE, OUTSIDE)

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
