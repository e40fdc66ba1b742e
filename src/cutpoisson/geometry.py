"""Exact domains, perturbed polygonal boundaries, and geometric error measures.

The solver never sees the exact domain: it works on a high resolution polygon
approximating the boundary. This module produces those polygons (radial
perturbation maps around a square or circle, marching-triangles contours of a
nodal level-set) and measures how far a polygon deviates from the exact
boundary in location (delta) and in normal direction (delta_n). The level-set
contour finds the crossings of all triangles in array operations, then walks
the closed chain of crossings once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GeometryError

__all__ = [
    "UnitSquare",
    "Disk",
    "ExactDomain",
    "BoundaryPolygon",
    "GeometricErrors",
    "perturb_square_boundary",
    "perturb_circle_boundary",
    "extract_levelset_boundary",
    "closest_point",
    "measure_geometric_errors",
]


@dataclass(frozen=True)
class UnitSquare:
    """The open unit square (0,1)^2."""


@dataclass(frozen=True)
class Disk:
    """Disk of given radius around ``center``."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")


ExactDomain = Union[UnitSquare, Disk]


class BoundaryPolygon:
    """Simple closed polygon, counterclockwise, implicitly closed.

    Vertices are stored as an (n, 2) float array. Validation covers the cheap
    invariants (vertex count, finite coordinates, distinct consecutive vertices,
    positive shoelace area); simplicity is guaranteed by the module's constructors.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError(f"vertices must have shape (n, 2), got {v.shape}")
        if v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("vertices must be finite")
        d = np.roll(v, -1, axis=0) - v
        if np.any((d[:, 0] == 0.0) & (d[:, 1] == 0.0)):
            raise GeometryError("consecutive vertices must be distinct")
        if _shoelace(v) <= 0.0:
            raise GeometryError("polygon must be counterclockwise (shoelace area > 0)")
        self.vertices = v
        self.vertices.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def signed_area(self) -> float:
        return _shoelace(self.vertices)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of all segments, each (n, 2)."""
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    def segment_normals(self) -> np.ndarray:
        """Outward unit normal of each segment, (n, 2)."""
        a, b = self.segments()
        d = b - a
        lengths = np.hypot(d[:, 0], d[:, 1])
        return np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]

    def __repr__(self):
        return f"BoundaryPolygon(n_vertices={self.n_vertices})"


@dataclass(frozen=True)
class GeometricErrors:
    """Boundary location error (length) and normal error (dimensionless)."""

    delta: float
    delta_n: float


def _shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


# The unit square's corners, counterclockwise from the origin. Edge e runs
# from corner e to corner e + 1, in the tie-break order bottom, right, top,
# left, and _SQUARE_EDGE_NORMALS[e] is its outward normal.
_SQUARE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_SQUARE_EDGES = np.roll(_SQUARE_CORNERS, -1, axis=0) - _SQUARE_CORNERS
_SQUARE_EDGE_NORMALS = np.array(
    [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
)


def closest_point(domain: ExactDomain, x) -> tuple[np.ndarray, np.ndarray]:
    """Project points onto the exact boundary.

    Returns (q, n), each (m, 2) for m points: q the closest boundary point and
    n the outward unit normal at q; a (2,) point gives arrays of length 1.
    Square corners tie-break to the first attaining edge in the fixed order
    bottom, right, top, left.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(domain, Disk):
        c = np.asarray(domain.center, dtype=float)
        rel = pts - c
        r = np.hypot(rel[:, 0], rel[:, 1])
        if np.any(r == 0.0):
            raise GeometryError("closest point undefined at the disk center")
        n = rel / r[:, None]
        q = c + domain.radius * n
    elif isinstance(domain, UnitSquare):
        # Each edge's projection, exact: across the edge its own coordinate,
        # along it the coordinate clipped to [0, 1].
        across = _SQUARE_EDGE_NORMALS[:, None, :] != 0.0
        projs = np.where(across, _SQUARE_CORNERS[:, None, :], np.clip(pts, 0.0, 1.0))
        d = pts - projs
        best = np.argmin(np.hypot(d[..., 0], d[..., 1]), axis=0)  # first minimum wins the tie-break
        q = projs[best, np.arange(len(pts))]
        n = _SQUARE_EDGE_NORMALS[best]
    else:
        raise TypeError(f"unsupported domain type {type(domain).__name__}")
    return q, n


def perturb_square_boundary(delta: float, segments_per_side: int) -> BoundaryPolygon:
    """Sample the unit square boundary and push it out radially.

    Each boundary point x moves to x + delta*cos(5*theta)*rhat where
    (r, theta) are polar coordinates about (0.45, 0.35). delta=0 returns the
    exact square traced counterclockwise.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if segments_per_side < 16:
        raise ValueError("segments_per_side must be at least 16")
    t = (np.arange(segments_per_side) / segments_per_side)[:, None]
    pts = (_SQUARE_CORNERS[:, None] + t * _SQUARE_EDGES[:, None]).reshape(-1, 2)
    center = np.array([0.45, 0.35])
    rel = pts - center
    r = np.hypot(rel[:, 0], rel[:, 1])
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    amp = delta * np.cos(5.0 * theta)
    if np.any(r + amp <= 0.0):
        raise GeometryError("perturbation amplitude collapses the boundary")
    out = pts + amp[:, None] * (rel / r[:, None])
    return BoundaryPolygon(out)


def perturb_circle_boundary(
    delta: float, alpha_n: float, h: float, h0: float, n_vertices: int
) -> BoundaryPolygon:
    """Radially perturbed unit circle with mesh-dependent oscillation frequency.

    The frequency round(5*(h/h0)**(-alpha_n)) grows under refinement for
    alpha_n > 0, so the polygon's normals degrade at rate h**(-alpha_n)*delta
    while the location error stays at delta.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if h <= 0.0 or h0 <= 0.0:
        raise ValueError("h and h0 must be positive")
    freq = oscillation_frequency(alpha_n, h, h0)
    if n_vertices < 16 * freq:
        raise ValueError(
            f"n_vertices={n_vertices} does not resolve frequency {freq}; "
            f"need at least {16 * freq}"
        )
    if delta >= 1.0:
        raise GeometryError("perturbation amplitude collapses the boundary")
    theta = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    radius = 1.0 + delta * np.cos(freq * theta)
    out = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    return BoundaryPolygon(out)


def oscillation_frequency(alpha_n: float, h: float, h0: float) -> int:
    """Oscillation count round(5*(h/h0)**(-alpha_n)), rounded half up."""
    return int(math.floor(5.0 * (h / h0) ** (-alpha_n) + 0.5))


def extract_levelset_boundary(domain: Disk, grid) -> BoundaryPolygon:
    """Zero contour of the nodal signed-distance samples of a disk.

    phi(x) = |x - c| - R is sampled at the grid nodes, each cell is split
    along its lower-left to upper-right diagonal, and the piecewise linear
    zero set is chained into one closed CCW polygon. The triangles are taken
    all at once, and the crossing on a grid edge is computed once, so both
    triangles beside it chain through bitwise identical coordinates.
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

    # Triangles (n00, n10, n11) and (n00, n11, n01) of every cell, ix-major,
    # with node (ix, iy) numbered ix * (ny + 1) + iy, and their sign-change
    # edges in edge order 0-1, 1-2, 2-0, keyed by (lower node, higher node).
    # Three signs that are not all equal differ on exactly two edges.
    n00 = np.arange(nx * (ny + 1)).reshape(nx, ny + 1)[:, :-1].reshape(-1, 1)
    tri = (n00 + [0, ny + 1, ny + 2, 0, ny + 2, 1]).reshape(-1, 3)
    neg = (phi < 0.0).reshape(-1)[tri]
    change = neg != np.roll(neg, -1, axis=1)
    ea, eb = tri[change], np.roll(tri, -1, axis=1)[change]
    if len(ea) == 0:
        raise GeometryError("level set produced no contour segments")
    n_nodes = (nx + 1) * (ny + 1)
    keys, ends = np.unique(np.minimum(ea, eb) * n_nodes + np.maximum(ea, eb), return_inverse=True)
    lo, hi = np.divmod(keys, n_nodes)
    (ia, ib), (ja, jb) = np.divmod((lo, hi), ny + 1)
    f = phi.reshape(-1)
    t = f[lo] / (f[lo] - f[hi])
    crossing = np.column_stack((xs[ia] + t * (xs[ib] - xs[ia]), ys[ja] + t * (ys[jb] - ys[ja])))

    # Each triangle's segment joins ends[2i] and ends[2i + 1], so the partner
    # of position p is p ^ 1. The walk starts at the first segment's first
    # crossing and goes towards its second.
    if np.any(np.bincount(ends) != 2):
        raise GeometryError("level-set contour is open or self-touching")
    neighbours = ends[np.argsort(ends, kind="stable") ^ 1].reshape(-1, 2).tolist()
    start, cur = ends[:2].tolist()
    chain, prev = [start], start
    while cur != start:
        chain.append(cur)
        a, b = neighbours[cur]
        prev, cur = cur, b if a == prev else a
    if len(chain) < len(keys):
        raise GeometryError("level-set contour has multiple components")

    verts = crossing[chain]
    # Merge near-coincident consecutive points (crossings close to a node).
    d = np.roll(verts, -1, axis=0) - verts
    verts = verts[np.hypot(d[:, 0], d[:, 1]) >= 1e-9 * h]
    if _shoelace(verts) < 0.0:
        verts = verts[::-1]
    return BoundaryPolygon(verts)


def measure_geometric_errors(poly: BoundaryPolygon, domain: ExactDomain) -> GeometricErrors:
    """Measure delta and delta_n of a polygon against the exact boundary.

    Each segment is sampled at the 5 interior points t = k/6; delta is the
    max distance to the projected point, delta_n the max deviation between
    the exact normal at the projection and the segment normal.
    """
    a, b = poly.segments()
    s = 5
    t = (np.arange(1, s + 1) / (s + 1))[None, :, None]
    pts = (a[:, None, :] + t * (b - a)[:, None, :]).reshape(-1, 2)
    q, n_exact = closest_point(domain, pts)
    delta = float(np.max(np.hypot(pts[:, 0] - q[:, 0], pts[:, 1] - q[:, 1])))
    n_seg = np.repeat(poly.segment_normals(), s, axis=0)
    diff = n_exact - n_seg
    delta_n = float(np.max(np.hypot(diff[:, 0], diff[:, 1])))
    return GeometricErrors(delta=delta, delta_n=delta_n)
