"""Property tests of the shared cut geometry and the strip-trapezoid rules.

Random cut configurations (grid offsets including zero, so that square edges
lie on gridlines; perturbation amplitudes and phases; level-set contours,
whose vertices lie on cell edges) are checked against the independent
clipping and Green's theorem oracles, and the vectorized geometry and Cut
mask against loops over one segment and one cell at a time, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from cutpoisson import (
    BoundaryPolygon,
    Disk,
    assemble_system,
    extract_levelset_boundary,
    penalty_parameters,
    qp_basis,
    solve_spd,
)
from cutpoisson import mesh
from cutpoisson.mesh import CUT, BackgroundGrid, classify_elements, point_in_polygon
from cutpoisson.quadrature import build_boundary_rules, build_volume_rules

from oracles import (
    PROPERTY,
    cell_volume_rule,
    clip_polygon_to_box,
    cut_geometry_loop,
    cut_volume_rule,
    greens_monomial_integral,
    mark_cut_cells_loop,
    meshes,
    perturbed_square,
    point_in_polygon_scalar,
    shoelace,
)

# The unshifted square: edges on gridlines, corners on grid vertices.
UNSHIFTED_SQUARE = classify_elements(
    BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12), perturbed_square(0.0, 0.0)
)
# Vertices just past gridlines: pieces of about 1e-11 h, which are kept, and
# of about 1e-15 h, which are dropped.
NEAR_GRIDLINES = classify_elements(
    BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12),
    BoundaryPolygon([[-1e-12, 0.3], [0.6, -1e-16], [0.9, 0.6], [0.4, 0.9]]),
)
_CONTOUR_GRID = BackgroundGrid(origin=(-1.25, -1.25), h=2.5 / 24, nx=24, ny=24)
CONTOUR = classify_elements(
    _CONTOUR_GRID, extract_levelset_boundary(Disk(center=(0.1, -0.05), radius=0.8), _CONTOUR_GRID)
)
# An acute vertex one ulp below the grid vertex (0.5, 0.5): the first piece
# of the segment leaving it is owned by cell 35, whose closed box holds
# neither a vertex nor a crossing.
_A = np.nextafter(0.5, 0.0)
ACUTE_VERTEX = classify_elements(
    BackgroundGrid((0.0, 0.0), 0.125, 8, 8), BoundaryPolygon([[_A, _A], [0.85, 0.51], [0.83, 0.61]])
)

# The oracle moment check is the slowest, so it gets fewer examples.
ORACLE = settings(PROPERTY, max_examples=5)


@PROPERTY
@given(meshes)
def test_volume_weights_sum_to_polygon_area(am):
    rules = build_volume_rules(am, 4)
    weights = [cell_volume_rule(rules, am.grid, int(e)).weights for e in am.active]
    total = sum(float(np.sum(w)) for w in weights)
    assert total == pytest.approx(shoelace(am.poly.vertices), rel=1e-10)


@PROPERTY
@given(meshes)
def test_weights_nonnegative_and_points_in_cell(am):
    rules = build_volume_rules(am, 4)
    for eid, rule in rules.cut.items():
        x0, y0, x1, y1 = am.grid.cell_box(eid)
        assert np.all(rule.weights >= 0.0)
        assert np.all((rule.points[:, 0] >= x0) & (rule.points[:, 0] <= x1))
        assert np.all((rule.points[:, 1] >= y0) & (rule.points[:, 1] <= y1))


def assert_moments_match_oracle(rule, box, poly, degree=6):
    h = box[2] - box[0]
    pieces = clip_polygon_to_box(poly, box)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = sum(greens_monomial_integral(p, a, b) for p in pieces)
            got = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert abs(got - exact) <= 1e-12 * h * h, (box, a, b, got, exact)


@ORACLE
@given(meshes)
def test_cut_cell_moments_match_clipping_oracle(am):
    rules = build_volume_rules(am, 6)
    for eid, rule in rules.cut.items():
        assert_moments_match_oracle(rule, am.grid.cell_box(eid), am.poly)


U_SHAPE = [
    [-1.0, 0.1], [2.0, 0.1], [2.0, 0.9], [-1.0, 0.9],
    [-1.0, 0.8], [1.5, 0.8], [1.5, 0.2], [-1.0, 0.2],
]  # fmt: skip
COMB = [
    [-1.0, 0.1], [2.0, 0.1], [2.0, 0.9], [-1.0, 0.9],
    [-1.0, 0.8], [1.5, 0.8], [1.5, 0.55], [-1.0, 0.55],
    [-1.0, 0.45], [1.5, 0.45], [1.5, 0.2], [-1.0, 0.2],
]  # fmt: skip


@pytest.mark.parametrize(("vertices", "area"), [(U_SHAPE, 0.2), (COMB, 0.3)])
def test_multi_component_cells(vertices, area):
    poly = BoundaryPolygon(vertices)
    box = (0.0, 0.0, 1.0, 1.0)
    rule = cut_volume_rule(box, poly, 6)
    assert np.all(rule.weights >= 0.0)
    assert np.sum(rule.weights) == pytest.approx(area, abs=1e-14)
    assert_moments_match_oracle(rule, box, poly)


def test_strip_walk_runs_once_per_mesh(monkeypatch):
    walked = []
    walk = mesh.strip_trapezoids

    def counting_walk(boxes, *args):
        walked.append(np.array(boxes))
        return walk(boxes, *args)

    monkeypatch.setattr(mesh, "strip_trapezoids", counting_walk)
    grid = BackgroundGrid(origin=(-0.3, -0.3), h=1.5 / 24, nx=24, ny=24)
    am = classify_elements(grid, perturbed_square(0.02, 1.0))
    p = 2
    for order in (2 * p, 2 * p + 2):
        build_volume_rules(am, order)
        build_boundary_rules(am, order)
    assert len(walked) == 1
    assert np.array_equal(walked[0], [grid.cell_box(e) for e in am.cut_ids])


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
@example(NEAR_GRIDLINES)
@example(CONTOUR)
def test_cut_geometry_matches_loop_bit_for_bit(am):
    geo = am.cut_geometry
    seg, t0, t1, owned, trapezoids = cut_geometry_loop(am)
    assert np.array_equal(geo.seg, seg)
    assert np.array_equal(geo.t0, t0)
    assert np.array_equal(geo.t1, t1)
    assert list(geo.owned) == list(owned)
    assert all(geo.owned[eid] == pieces for eid, pieces in owned.items())
    walked = [eid for eid, rows in trapezoids.items() if len(rows)]
    assert np.array_equal(np.unique(geo.trapezoid_cells), walked)
    for eid, rows in trapezoids.items():
        assert np.array_equal(geo.trapezoids[geo.trapezoid_cells == eid], rows), eid


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
@example(NEAR_GRIDLINES)
@example(ACUTE_VERTEX)
def test_cut_mask_matches_loop(am):
    # Cut: a segment touches the closed box, or the cell owns a piece.
    expected = mark_cut_cells_loop(am.grid, am.poly)
    expected[list(cut_geometry_loop(am)[3])] = True
    assert np.array_equal(am.classification == CUT, expected)


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
@example(NEAR_GRIDLINES)
@example(CONTOUR)
@example(ACUTE_VERTEX)
def test_every_piece_owner_is_cut(am):
    assert np.all(am.classification[list(am.cut_geometry.owned)] == CUT)


@pytest.mark.parametrize("p", [1, 2])
def test_acute_vertex_next_to_a_grid_vertex_solves(p):
    am = ACUTE_VERTEX
    system, dofmap = assemble_system(
        am, qp_basis(p), penalty_parameters(p), lambda x, y: np.ones_like(x)
    )
    u = solve_spd(system)
    assert u.shape == (dofmap.n_dofs,)
    assert np.all(np.isfinite(u))
    assert am.classification[35] == CUT
    assert 35 in am.cut_geometry.owned


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
def test_batched_point_in_polygon_matches_scalar(am):
    grid, poly, h = am.grid, am.poly, am.grid.h
    v = poly.vertices
    # Cell centres, the vertices themselves, and points at vertex heights.
    points = np.concatenate(
        (
            grid.cell_origin(np.arange(grid.n_cells)) + 0.5 * h,
            v,
            v - (0.5 * h, 0.0),
            v + (0.5 * h, 0.0),
            np.column_stack((np.full(len(v), grid.extent[0] + 0.5 * h), v[:, 1])),
        )
    )
    expected = [point_in_polygon_scalar(poly, x, h) for x in points]
    assert point_in_polygon(poly, points, h).tolist() == expected


def test_corner_touch_cell_is_cut_with_empty_rule():
    # Cell 13 is the box (-0.125, -0.125, 0, 0): the square meets it only at
    # its corner (0, 0). It is cut, but no boundary piece lies in it.
    am = UNSHIFTED_SQUARE
    assert am.grid.cell_box(13) == (-0.125, -0.125, 0.0, 0.0)
    assert am.classification[13] == CUT
    assert build_volume_rules(am, 4).cut[13].weights.size == 0
    assert 13 not in build_boundary_rules(am, 4)
