"""Reference Gauss rules and cut-cell quadrature.

The rules are built on the active mesh's cut geometry (``ActiveMesh.cut_geometry``;
:mod:`cutpoisson.mesh` describes the split): its boundary pieces, and each cut
cell's box and boundary arcs, computed once per mesh for every quadrature
order. Boundary rules map 1D Gauss points onto the pieces' end points. A cut
cell's volume rule is a Gauss lattice on the bounding box of element ∩ domain,
whose weights are fitted to its exact Legendre moments (moment fitting,
Müller, Kummer & Oberlack 2013), which Green's formula takes from Gauss
points on the arcs (Sommariva & Vianello 2007): the points lie in that box,
not always in the domain, and some weights are negative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np
import numpy.polynomial.legendre as leg

from .errors import QuadratureError
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
    """Physical points in the bounding box of element ∩ domain, and weights,
    some possibly negative, that integrate over element ∩ domain."""

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


@functools.cache
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = gauss_legendre_1d(n)
    return 0.5 * (rule.points + 1.0), 0.5 * rule.weights


def _points_for_degree(degree: int) -> int:
    """1D Gauss point count integrating polynomials of the given degree."""
    return max(1, degree // 2 + 1)


# ---------------------------------------------------------------------------
# Gauss rules on boundary pieces
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


def _split_rule(rule, counts):
    """Split a rule into consecutive rules with the given numbers of points."""
    ends = np.cumsum(counts).tolist()
    arrays = [getattr(rule, f.name) for f in fields(rule)]
    return [type(rule)(*(a[i:j] for a in arrays)) for i, j in zip([0, *ends], ends)]


# Largest number of points in one batch of rule_batches. One batch of all
# points saves no memory (the 5-level studies' peak moved by -0.2 to +1.5 MB)
# and made the in-process study about 3% slower on the perturbed square and
# circle, measured with one BLAS thread.
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


def _box_moments(geo, n: int) -> np.ndarray:
    """Legendre moments (cells, n, n) of the cut cells' parts of the domain.

    Entry [k, a, b] integrates P_a(s) P_b(t) over K ∩ Ω_h of cell
    ``geo.cells[k]``, where s and t map its box onto [-1, 1]. By Green's
    formula it is -Σ ∫ P_a(s) Q_b(t) ds over the cell's arcs, with
    Q_b = (P_(b+1) - P_(b-1)) / (2b + 1) and P_(-1) = -1, since ds = 0 on
    the rest of the boundary; Q_b(-1) = 0, so the arcs on the box's bottom
    edge add nothing. Along an arc the integrand is a polynomial of degree
    at most 2n - 1, so n Gauss points are exact. The arcs go in chunks of
    POINT_BATCH Gauss points and add up per cell in one segmented sum.
    """
    u, w = _gauss01(n)
    arcs = geo.arcs
    per_arc = np.empty((len(arcs), n, n))
    step = max(1, POINT_BATCH // n)
    for start in range(0, len(arcs), step):
        p, q = arcs[start : start + step, :2], arcs[start : start + step, 2:]
        s, t = (p[:, :, None] + (q - p)[:, :, None] * u).transpose(1, 0, 2)
        along = leg.legvander(s, n - 1) * ((q - p)[:, :1] * w)[:, :, None]
        v = leg.legvander(t, n)
        v[..., 2:] -= v[..., :-2]
        v[..., 1] += v[..., 0]
        across = v[..., 1:] / (2 * np.arange(n) + 1)
        per_arc[start : start + step] = np.matmul(along.transpose(0, 2, 1), across)
    first = np.flatnonzero(np.diff(geo.arc_box, prepend=-1))
    return -np.add.reduceat(per_arc, first, axis=0)


def _fitted_lattices(boxes: np.ndarray, moments: np.ndarray) -> CutVolumeRule:
    """Moment-fitted n x n Gauss lattices, n^2 points per box in one rule.

    With a box's Legendre moments M (a, b < n) in x and y and
    T_ia = w_i P_a(g_i) (2a + 1) / 2 for the Gauss rule (g, w) on [-1, 1],
    the weights W = T M T^T integrate Q_(n-1) over the box's part of the
    domain exactly: sum_ij W_ij P_c(g_i) P_d(g_j) = M_cd.
    """
    n = moments.shape[1]
    g, w = leg.leggauss(n)
    fit = w[:, None] * leg.legvander(g, n - 1) * (np.arange(n) + 0.5)
    weights = fit @ moments @ fit.T  # [cell, i (x), j (y)]
    lo, hi = boxes[:, :2, None], boxes[:, 2:, None]
    x, y = np.clip(0.5 * (lo + hi + (hi - lo) * g), lo, hi).transpose(1, 0, 2)
    points = np.stack(np.broadcast_arrays(x[:, :, None], y[:, None, :]), axis=-1)
    return CutVolumeRule(points=points.reshape(-1, 2), weights=weights.reshape(-1))


@dataclass
class VolumeRuleSet:
    """Volume rules for all active elements of a mesh.

    Inside elements share one reference tensor rule (points on [0,1]^2 with
    weights summing to 1); cut elements carry individual physical rules,
    moment-fitted Gauss lattices whose points lie in the bounding box of
    element ∩ domain and whose weights may be negative.
    """

    inside_ref_points: np.ndarray
    inside_ref_weights: np.ndarray
    cut: dict[int, CutVolumeRule]


def build_volume_rules(am: ActiveMesh, order: int) -> VolumeRuleSet:
    """Volume rules exact on Q_order for every active element.

    A cut element gets an (order + 1)^2 Gauss lattice on the bounding box of
    element ∩ domain, with weights fitted to its exact Legendre moments
    (:func:`_box_moments`, :func:`_fitted_lattices`): they integrate every
    polynomial of degree at most ``order`` in each variable exactly, and may
    be negative. A cut element whose box has zero width or height gets an
    empty rule. The inside elements' rule is the tensor of the 1D Gauss rule
    on [0, 1] with ``order // 2 + 1`` points, x-major. QuadratureError is
    raised when the cut and inside cells miss the polygon's area.
    """
    s, w = _gauss01(_points_for_degree(order))
    ref = np.column_stack((np.repeat(s, len(s)), np.tile(s, len(s))))
    geo = am.cut_geometry
    n = order + 1
    # The moments in x and y: M_ab |box| / 4, so that M_00 is the area.
    size = np.prod(geo.boxes[:, 2:] - geo.boxes[:, :2], axis=1)
    moments = _box_moments(geo, n) * (0.25 * size)[:, None, None]
    # 1e-9 of the area lies far above roundoff (under 1e-14 on the study meshes) and far below
    # the miss of a polygon that is not simple (1e-2 of the area for a figure-eight loop).
    missed = np.sum(moments[:, 0, 0]) + len(am.inside_ids) * am.grid.h**2 - am.poly.signed_area
    if abs(missed) > 1e-9 * am.poly.signed_area:
        raise QuadratureError(f"cut and inside cells miss the polygon area by {missed:.3e}")
    ids = am.cut_ids
    rule = _fitted_lattices(geo.boxes, moments)
    cut = dict(zip(ids.tolist(), _split_rule(rule, n * n * np.isin(ids, geo.cells))))
    return VolumeRuleSet(inside_ref_points=ref, inside_ref_weights=np.outer(w, w).ravel(), cut=cut)


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
