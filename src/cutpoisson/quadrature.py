"""Reference Gauss rules and cut-cell quadrature.

The rules are built on the active mesh's cut geometry (``ActiveMesh.cut_geometry``;
:mod:`cutpoisson.mesh` describes the split and the strip walk): its boundary
pieces and cut-cell trapezoids, computed once per mesh for every quadrature
order. Boundary rules map 1D Gauss points onto the pieces' end points,
volume rules map tensor Gauss rules onto the trapezoids in one batch: all
weights are positive and all points lie in element ∩ domain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .mesh import ActiveMesh

__all__ = [
    "QuadRule1D",
    "CutVolumeRule",
    "CutBoundaryRule",
    "gauss_legendre_1d",
    "VolumeRuleSet",
    "build_volume_rules",
    "build_boundary_rules",
    "rule_batches",
]


@dataclass(frozen=True)
class QuadRule1D:
    """Gauss-Legendre abscissae and weights on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class CutVolumeRule:
    """Physical quadrature points and area weights for element ∩ domain."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)


@dataclass(frozen=True)
class CutBoundaryRule:
    """Physical points, arclength weights, and outward normals on the cut boundary."""

    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    normals: np.ndarray  # (n, 2)


def gauss_legendre_1d(n: int) -> QuadRule1D:
    """Standard n-point Gauss-Legendre rule on [-1, 1]."""
    if not 1 <= n <= 16:
        raise ValueError(f"gauss_legendre_1d supports 1 <= n <= 16, got {n}")
    pts, w = np.polynomial.legendre.leggauss(n)
    return QuadRule1D(points=pts, weights=w)


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = gauss_legendre_1d(n)
    return 0.5 * (rule.points + 1.0), 0.5 * rule.weights


def _points_for_degree(degree: int) -> int:
    """1D Gauss point count integrating polynomials of the given degree."""
    return max(1, degree // 2 + 1)


# ---------------------------------------------------------------------------
# Gauss rules on boundary pieces and strip trapezoids
# ---------------------------------------------------------------------------


def _pieces_rule(start, end, normals, order: int) -> CutBoundaryRule:
    """Mapped 1D Gauss rules on the pieces start -> end with the given normals.

    The points are start + s*(end - start) and the weights |end - start|*w
    for the Gauss rule (s, w) on [0, 1].
    """
    s, w = _gauss01(_points_for_degree(order))
    d = end - start
    return CutBoundaryRule(
        points=(start[:, None, :] + s[:, None] * d[:, None, :]).reshape(-1, 2),
        weights=(np.hypot(d[:, 0], d[:, 1])[:, None] * w).reshape(-1),
        normals=np.repeat(normals, len(s), axis=0),
    )


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


def _split_rule(rule, counts):
    """Split a rule into consecutive rules with the given numbers of points."""
    ends = np.cumsum(counts).tolist()
    arrays = [getattr(rule, f.name) for f in fields(rule)]
    return [type(rule)(*(a[i:j] for a in arrays)) for i, j in zip([0, *ends], ends)]


# Largest number of points in one batch of rule_batches. One batch of all
# points (arrays of 12-50 MB at the finest levels) left the heap fragmented
# for the sparse LU that follows, and the peak resident memory then varied
# from run to run by up to 45 MB.
POINT_BATCH = 1 << 14


def rule_batches(rules: dict):
    """The points of all rules, in dict order, in batches of POINT_BATCH.

    Yields (cells, rule): the owning cell of every point of the batch and one
    rule of the rules' type holding them. Nothing for an empty dict.
    """
    if not rules:
        return
    rule_type = type(next(iter(rules.values())))
    cells = np.repeat(list(rules), [r.weights.size for r in rules.values()])
    parts = ([getattr(r, f.name) for r in rules.values()] for f in fields(rule_type))
    arrays = list(map(np.concatenate, parts))
    for start in range(0, len(cells), POINT_BATCH):
        b = slice(start, start + POINT_BATCH)
        yield cells[b], rule_type(*(a[b] for a in arrays))


# ---------------------------------------------------------------------------
# Rule sets over the active mesh
# ---------------------------------------------------------------------------


@dataclass
class VolumeRuleSet:
    """Volume rules for all active elements of a mesh.

    Inside elements share one reference tensor rule (points on [0,1]^2 with
    weights summing to 1); cut elements carry individual physical rules.
    """

    inside_ref_points: np.ndarray
    inside_ref_weights: np.ndarray
    cut: dict[int, CutVolumeRule]


def build_volume_rules(am: ActiveMesh, order: int) -> VolumeRuleSet:
    """Volume rules of the given exactness degree for every active element.

    Cut elements map Gauss points onto the mesh's shared strip trapezoids.
    """
    ref = _trapezoids_rule(np.array([[0.0, 1.0, 0.0, 0.0, 1.0, 1.0]]), order)  # [0, 1]^2
    geo = am.cut_geometry
    ids = am.cut_ids
    rows = np.searchsorted(geo.trapezoid_cells, ids, side="right")
    counts = np.diff(rows, prepend=0)
    per_trap = _points_for_degree(order + 1) * _points_for_degree(order)
    rule = _trapezoids_rule(geo.trapezoids, order)
    cut = dict(zip(ids.tolist(), _split_rule(rule, per_trap * counts)))
    return VolumeRuleSet(inside_ref_points=ref.points, inside_ref_weights=ref.weights, cut=cut)


def build_boundary_rules(am: ActiveMesh, order: int) -> dict[int, CutBoundaryRule]:
    """Boundary rules per owning element for all polygon pieces.

    The pieces are the mesh's shared split of the segments at the gridlines,
    each owned by the cell of ``CutGeometry.owner``. One stable sort groups
    them by owner: the dict is in ascending cell order, and each cell's
    pieces are in polygon order.
    """
    geo = am.cut_geometry
    ix = np.argsort(geo.owner, kind="stable")
    cells, counts = np.unique(geo.owner, return_counts=True)
    rule = _pieces_rule(geo.start[ix], geo.end[ix], am.poly.segment_normals()[geo.seg[ix]], order)
    return dict(zip(cells.tolist(), _split_rule(rule, _points_for_degree(order) * counts)))
