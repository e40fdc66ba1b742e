"""Reference Gauss rules and cut-cell quadrature.

The cut geometry is computed once per active mesh (``ActiveMesh.cut_geometry``)
and shared by every quadrature order. The polygon segments are split at the
gridlines; each piece belongs to the element on the inner side of the
boundary, so a piece lying exactly on a shared face is counted once. Each cut
element is walked in vertical strips between the pieces' abscissae, and the
inside intervals of each strip are trapezoids. Boundary rules map 1D Gauss
points onto the pieces, volume rules map tensor Gauss rules onto the
trapezoids: all weights are positive and all points lie in element ∩ domain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import BoundaryPolygon
from .mesh import ActiveMesh, piece_endpoints, segment_box_interval, strip_trapezoids

__all__ = [
    "QuadRule1D",
    "CutVolumeRule",
    "CutBoundaryRule",
    "gauss_legendre_1d",
    "cut_volume_rule",
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


def _pieces_rule(a_all, b_all, normals, seg, t0, t1, order: int) -> CutBoundaryRule:
    """Mapped 1D Gauss rules on the pieces t0..t1 of polygon segments a -> b."""
    n1d = _points_for_degree(order)
    rule = gauss_legendre_1d(n1d)
    a = a_all[seg]
    d = b_all[seg] - a
    piece_len = (t1 - t0) * np.hypot(d[:, 0], d[:, 1])
    tq = (0.5 * (t0 + t1))[:, None] + (0.5 * (t1 - t0))[:, None] * rule.points
    return CutBoundaryRule(
        points=(a[:, None, :] + tq[:, :, None] * d[:, None, :]).reshape(-1, 2),
        weights=((0.5 * piece_len)[:, None] * rule.weights).reshape(-1),
        normals=np.repeat(normals[seg], n1d, axis=0),
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
    bounds = np.cumsum(counts)[:-1]
    parts = [np.split(getattr(rule, f.name), bounds) for f in fields(rule)]
    return [type(rule)(*arrays) for arrays in zip(*parts)]


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


def _box_pieces(box, poly: BoundaryPolygon):
    """Segment indices and parameter ranges of the polygon pieces in the closed box."""
    a_all, b_all = poly.segments()
    h = max(box[2] - box[0], box[3] - box[1])
    # Cheap bbox prefilter before exact interval clipping.
    cand = ~(
        (np.maximum(a_all[:, 0], b_all[:, 0]) < box[0])
        | (np.minimum(a_all[:, 0], b_all[:, 0]) > box[2])
        | (np.maximum(a_all[:, 1], b_all[:, 1]) < box[1])
        | (np.minimum(a_all[:, 1], b_all[:, 1]) > box[3])
    )
    seg, t0, t1 = [], [], []
    for s in np.nonzero(cand)[0]:
        a, b = a_all[s], b_all[s]
        iv = segment_box_interval(a[0], a[1], b[0], b[1], *box)
        if iv is None:
            continue
        seg_len = float(np.hypot(b[0] - a[0], b[1] - a[1]))
        if (iv[1] - iv[0]) * seg_len < 1e-14 * h:
            continue
        seg.append(s)
        t0.append(iv[0])
        t1.append(iv[1])
    return np.asarray(seg, dtype=np.intp), np.asarray(t0), np.asarray(t1)


def _as_polygon(poly) -> BoundaryPolygon:
    return poly if isinstance(poly, BoundaryPolygon) else BoundaryPolygon(poly)


def cut_volume_rule(box, poly, order: int) -> CutVolumeRule:
    """Quadrature for box ∩ polygon exact to the given polynomial degree.

    The polygon segments are clipped to the box and the intersection is
    decomposed into strip trapezoids, each covered by a mapped tensor Gauss
    rule. The rule is empty when the intersection is.
    """
    p = _as_polygon(poly)
    a_all, b_all = p.segments()
    start, end = piece_endpoints(a_all, b_all, *_box_pieces(box, p))
    h = max(box[2] - box[0], box[3] - box[1])
    return _trapezoids_rule(strip_trapezoids(box, start, end, p, h), order)


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
    ids = [int(eid) for eid in am.cut_ids]
    traps = [am.cut_geometry.trapezoids[eid] for eid in ids]
    per_trap = _points_for_degree(order + 1) * _points_for_degree(order)
    rule = _trapezoids_rule(np.concatenate(traps), order)
    cut = dict(zip(ids, _split_rule(rule, [per_trap * len(t) for t in traps])))
    return VolumeRuleSet(inside_ref_points=ref.points, inside_ref_weights=ref.weights, cut=cut)


def build_boundary_rules(am: ActiveMesh, order: int) -> dict[int, CutBoundaryRule]:
    """Boundary rules per owning element for all polygon pieces.

    The pieces are the mesh's shared split of the segments at the gridlines;
    each belongs to the cell on the inner side of its midpoint, which handles
    pieces lying exactly on shared element faces without double counting.
    """
    geo = am.cut_geometry
    a_all, b_all = am.poly.segments()
    ix = np.concatenate(list(geo.owned.values()))
    rule = _pieces_rule(
        a_all, b_all, am.poly.segment_normals(), geo.seg[ix], geo.t0[ix], geo.t1[ix], order
    )
    n1d = _points_for_degree(order)
    return dict(zip(geo.owned, _split_rule(rule, [n1d * len(v) for v in geo.owned.values()])))
