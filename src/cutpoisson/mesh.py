"""Uniform background grid and extraction of the active mesh.

Elements are classified against the boundary polygon: Cut if a polygon
segment touches the closed element box, Inside if the element lies strictly
within the polygon, excluded otherwise. The ghost-penalty face set consists
of the interior faces of the active mesh touching at least one Cut element.
The cut geometry, computed once per active mesh for every quadrature order,
splits the polygon at the gridlines and walks each Cut element in strips.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

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
    "piece_endpoints",
    "point_in_polygon",
    "segment_box_interval",
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
    classification is retained so downstream assembly can build quadrature.
    """

    grid: BackgroundGrid
    poly: BoundaryPolygon
    classification: np.ndarray
    active: np.ndarray
    ghost_faces_arr: np.ndarray = field(default=None)

    @property
    def inside_ids(self) -> np.ndarray:
        return self.active[self.classification[self.active] == INSIDE]

    @property
    def cut_ids(self) -> np.ndarray:
        return self.active[self.classification[self.active] == CUT]

    @property
    def n_active(self) -> int:
        return len(self.active)

    @functools.cached_property
    def cut_geometry(self) -> "CutGeometry":
        """Boundary pieces and cut-cell trapezoids, shared by every quadrature order."""
        return _build_cut_geometry(self)


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


def _mark_cut_cells(grid: BackgroundGrid, poly: BoundaryPolygon) -> np.ndarray:
    """Boolean mask over all cells touched by a polygon segment."""
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


def point_in_polygon(poly: BoundaryPolygon, point, h: float) -> bool:
    """Even-odd test with the ray direction (1, 1e-9*h) to dodge vertex hits."""
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


def piece_endpoints(a_all, b_all, seg, t0, t1) -> tuple[np.ndarray, np.ndarray]:
    """End points of the pieces t0..t1 of polygon segments a -> b, each (k, 2).

    t = 1 returns the segment's end vertex itself (as t = 0 does its start),
    so consecutive pieces of a polygon share their end points exactly.
    """
    a = a_all[seg]
    d = b_all[seg] - a
    end = np.where((t1 == 1.0)[:, None], b_all[seg], a + t1[:, None] * d)
    return a + t0[:, None] * d, end


def strip_trapezoids(box, start, end, poly: BoundaryPolygon, h: float) -> np.ndarray:
    """Decompose box ∩ polygon into trapezoids over vertical strips.

    ``start``/``end`` are the boundary pieces inside the closed box, oriented
    like the CCW polygon; they are clamped onto the box. The strips run
    between consecutive piece abscissae. Going up a strip, a piece running in
    +x enters the domain and one running in -x leaves it; a strip no piece
    crosses is inside when its centre is. Returns rows (xl, xr, lo_l, lo_r,
    hl, hr): x in [xl, xr], y from lo_l + (lo_r - lo_l) u upwards by
    hl + (hr - hl) u with u = (x - xl)/(xr - xl), and hl, hr >= 0.
    """
    x0, y0, x1, y1 = box
    p = np.clip(start, (x0, y0), (x1, y1))
    q = np.clip(end, (x0, y0), (x1, y1))
    xs = np.unique(np.concatenate(([x0, x1], p[:, 0], q[:, 0])))
    xl, xr = xs[:-1], xs[1:]
    left = np.minimum(p[:, 0], q[:, 0])
    right = np.maximum(p[:, 0], q[:, 0])
    s, k = np.nonzero((left <= xl[:, None]) & (right >= xr[:, None]))

    dx = q[k, 0] - p[k, 0]
    dy = q[k, 1] - p[k, 1]
    ya = np.clip(p[k, 1] + (xl[s] - p[k, 0]) / dx * dy, y0, y1)
    yb = np.clip(p[k, 1] + (xr[s] - p[k, 0]) / dx * dy, y0, y1)
    order = np.lexsort((ya + yb, s))
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
    below = np.where(first[:, None], y0, np.roll(ys, 1, axis=0))
    free = np.setdiff1d(np.arange(len(xl)), s)
    yc = 0.5 * (y0 + y1)
    free = free[[point_in_polygon(poly, (0.5 * (xl[i] + xr[i]), yc), h) for i in free]]
    strip = np.concatenate((s[leaves], s[top], free))
    lo = np.concatenate((below[leaves], ys[top], np.full((len(free), 2), y0)))
    hi = np.concatenate((ys[leaves], np.full((top.sum() + len(free), 2), y1)))
    height = np.maximum(hi - lo, 0.0)
    keep = height.max(axis=1) > 0.0
    return np.column_stack((xl[strip], xr[strip], lo, height))[keep]


@dataclass(frozen=True)
class CutGeometry:
    """Order-independent cut geometry of an active mesh.

    The polygon segments are split at the gridlines into pieces ``seg``,
    ``t0``..``t1`` (parameter range along segment a -> b). ``owned[eid]``
    indexes the pieces whose boundary integrals belong to cell eid, in polygon
    order; ``trapezoids[eid]`` decomposes cut cell eid ∩ polygon as returned
    by :func:`strip_trapezoids`.
    """

    seg: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    owned: dict[int, list[int]]
    trapezoids: dict[int, np.ndarray]


def _build_cut_geometry(am: ActiveMesh) -> CutGeometry:
    """Split the polygon at the gridlines and walk the strips of every cut cell.

    A piece is owned by the cell holding mid - 1e-9*h*normal (the inner side
    of the boundary). A piece on, or within 1e-9*h of, a face is also listed
    for the walk of the cell on the face's other side.
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
        return grid.cell_id(ix, iy)

    pieces = []
    owned: dict[int, list[int]] = {}
    listed: dict[int, list[int]] = {}
    for s in range(len(a_all)):
        a, b = a_all[s], b_all[s]
        d = b - a
        cuts = [0.0, 1.0]
        for k, o in ((0, ox), (1, oy)):
            if d[k] != 0.0:
                lo = int(np.floor((min(a[k], b[k]) - o) / h)) + 1
                hi = int(np.floor((max(a[k], b[k]) - o) / h))
                for j in range(lo, hi + 1):
                    t = (o + j * h - a[k]) / d[k]
                    if 0.0 < t < 1.0:
                        cuts.append(t)
        cuts = np.unique(cuts)
        seg_len = float(np.hypot(d[0], d[1]))
        nrm = normals[s]
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            piece_len = (t1 - t0) * seg_len
            if piece_len < 1e-14 * h:
                continue
            tm = 0.5 * (t0 + t1)
            mid = a + tm * d
            eid = cell_of(mid[0] - eps * nrm[0], mid[1] - eps * nrm[1])
            other = cell_of(mid[0] + eps * nrm[0], mid[1] + eps * nrm[1])
            owned.setdefault(eid, []).append(len(pieces))
            listed.setdefault(eid, []).append(len(pieces))
            if other != eid:
                listed.setdefault(other, []).append(len(pieces))
            pieces.append((s, t0, t1))

    seg, t0, t1 = (np.array(column) for column in zip(*pieces))
    start, end = piece_endpoints(a_all, b_all, seg, t0, t1)
    trapezoids = {}
    for eid in map(int, am.cut_ids):
        ix = listed.get(eid, [])
        trapezoids[eid] = strip_trapezoids(grid.cell_box(eid), start[ix], end[ix], poly, h)
    return CutGeometry(seg, t0, t1, owned, trapezoids)


def classify_elements(grid: BackgroundGrid, poly: BoundaryPolygon) -> ActiveMesh:
    """Classify all grid cells against the polygon and collect the active mesh.

    Cut cells are found by exact segment/box tests; the remaining cells are
    grouped into connected components (the boundary cannot pass between two
    uncut neighbors), and one ray cast per component decides inside/outside.
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

    cut = _mark_cut_cells(grid, poly)
    classification = np.zeros(grid.n_cells, dtype=np.int8)
    classification[cut] = CUT

    uncut = ~cut.reshape(grid.ny, grid.nx)
    labels, n_comp = ndimage.label(uncut)
    labels = labels.reshape(-1)
    h = grid.h
    for comp in range(1, n_comp + 1):
        eid = int(np.argmax(labels == comp))
        ix, iy = eid % grid.nx, eid // grid.nx
        center = (
            grid.origin[0] + (ix + 0.5) * h,
            grid.origin[1] + (iy + 0.5) * h,
        )
        if point_in_polygon(poly, center, h):
            classification[labels == comp] = INSIDE

    active = np.nonzero(classification != OUTSIDE)[0]
    am = ActiveMesh(grid=grid, poly=poly, classification=classification, active=active)
    am.ghost_faces_arr = ghost_faces(am)
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
    # Vertical faces between (ix, iy) and (ix+1, iy): normal along x.
    pair_act = act[:, :-1] & act[:, 1:]
    pair_cut = is_cut[:, :-1] | is_cut[:, 1:]
    iy, ix = np.nonzero(pair_act & pair_cut)
    left = iy * grid.nx + ix
    faces.append(np.column_stack((left, left + 1, np.zeros_like(left))))
    # Horizontal faces between (ix, iy) and (ix, iy+1): normal along y.
    pair_act = act[:-1, :] & act[1:, :]
    pair_cut = is_cut[:-1, :] | is_cut[1:, :]
    iy, ix = np.nonzero(pair_act & pair_cut)
    low = iy * grid.nx + ix
    faces.append(np.column_stack((low, low + grid.nx, np.ones_like(low))))
    return np.concatenate(faces, axis=0)
