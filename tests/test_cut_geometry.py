"""Property tests of the shared cut geometry and the cut-cell rules built on it.

Random cut configurations (grid offsets including zero, so that square edges
lie on gridlines; perturbation amplitudes and phases; level-set contours,
whose vertices lie on cell edges) are checked against the independent
clipping and Green's theorem oracles, and the vectorized geometry and Cut
mask against loops over one segment and one cell at a time, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cutpoisson.mesh import CUT, INSIDE, BackgroundGrid, classify_elements
from cutpoisson.quadrature import _points_for_degree, build_boundary_rules, build_volume_rules

from oracles import (
    PROPERTY,
    cell_box,
    cell_volume_rule,
    clip_polygon_to_box,
    cut_geometry_loop,
    cut_volume_rule,
    disks_on_grids,
    greens_monomial_integral,
    levelset_meshes,
    mark_cut_cells_loop,
    meshes,
    near_gridline_star_meshes,
    perturbed_square,
    point_in_polygon_scalar,
    shoelace,
    square_meshes,
)

# The unshifted square: edges on gridlines, corners on grid vertices.
UNSHIFTED_SQUARE = classify_elements(
    BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12), perturbed_square(0.0, 0.0)
)
# Vertices just past gridlines: pieces of about 1e-11 h and of about
# 1e-15 h, both of which are kept.
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
# Polygons that are simple in exact arithmetic, with vertices within a few
# ulp of gridlines, so that some of their boundary pieces are a few ulp
# long; the cut-cell boxes and moments need every piece to meet its
# neighbours.
PENTAGON = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.125, 12, 12),
    BoundaryPolygon(
        [
            [0.6249999999999992, 1.0000000000000002],
            [0.1249999999999998, 0.834656537284972],
            [0.2500000000000005, 0.42615664371434236],
            [0.1250000000000003, 0.4004908132872358],
            [0.7806089494268272, 0.41751793588365216],
        ]
    ),
)
SLIVER_A = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.1875, 8, 8),
    BoundaryPolygon(
        [
            [0.6875000000000003, 0.6172599862591904],
            [0.5, 0.740627102627993],
            [0.48893692942687916, 0.8540053066250821],
            [0.36402510304921065, 0.6875000000000003],
            [0.25787971034552815, 0.5000000000000001],
            [0.12499999999999994, 0.4047887794619203],
            [0.016323943229604676, 0.3125000000000002],
            [-0.06250000000000004, 0.31249999999999983],
            [0.31250000000000006, 0.3125],
            [0.4878734038453841, 0.3125],
            [0.5290804113928342, 0.31249999999999983],
            [0.5000000000000003, 0.35621797663710186],
            [0.8750000000000004, 0.47701945858057],
        ]
    ),
)
SLIVER_B = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.1875, 8, 8),
    BoundaryPolygon(
        [
            [0.934597824289519, 0.5000000000000004],
            [0.7628432704993733, 0.5775869899027373],
            [0.3124999999999998, 0.4946953492659795],
            [0.12313144837991002, 0.3124999999999999],
            [0.12499999999999997, 0.2650161272398308],
            [0.3481043665389788, 0.33078445018930347],
            [0.5000000000000004, 0.1250000000000001],
            [0.6875000000000003, 0.06621394247999901],
            [0.7870063978597555, 0.3125000000000002],
            [0.8535838124736361, 0.2315287151703892],
            [0.8750000000000002, 0.4550473900230594],
            [0.6686925519372464, 0.49521033389525554],
        ]
    ),
)
# Simple in exact arithmetic: segment 8 runs left just below y = 0.5 into
# vertex 0, and segment 0 runs right along y = 0.5, enclosing an outside
# notch; their pieces beside the notch lie in cells 29 and 37, below and
# above y = 0.5. Segment 6 runs from y = 0.12499999999999999 to
# 0.1250000000000001 and so crosses the gridline y = 0.125, although
# (y - origin)/h of its lower end rounds onto that gridline.
CLAMPED_TIE = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.1875, 8, 8),
    BoundaryPolygon(
        [
            [0.6874999999999999, 0.5],
            [0.8532020763141357, 0.5],
            [0.6551556668754444, 0.6875],
            [0.12499999999999996, 0.42071198443462443],
            [0.191980361978431, 0.31250000000000006],
            [0.30450764315218426, 0.31249999999999983],
            [0.3125000000000002, 0.12499999999999999],
            [0.6874999999999996, 0.1250000000000001],
            [0.750582255268285, 0.49999999999999983],
        ]
    ),
)
# A needle: vertices 3 and 5 lie 8e-16 apart, so the pieces beside them
# nearly coincide, and rounding can order them either way across cell 71;
# Green's formula does not depend on their order.
NEEDLE = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.09375, 16, 16),
    BoundaryPolygon(
        [
            [0.7812500000000002, 0.5154220670399451],
            [0.9357869093866964, 0.6398236706341749],
            [0.27418408610246275, 0.44719508581249295],
            [0.4999999999999992, 0.21874999999999956],
            [0.4512370052551451, 0.20658019433500113],
            [0.5, 0.21874999999999975],
            [0.6345623236001965, 0.3124999999999997],
            [0.7602720720040277, 0.21404916449705896],
        ]
    ),
)
# Segment 2 crosses y = 0.6875 at x = 0.3125 - 2.3e-15 and ends 8e-16 below
# that gridline at the grid vertex's x, so cell 42 holds a sliver 2.3e-15
# wide beside the vertex.
GRID_VERTEX = classify_elements(
    BackgroundGrid((-0.25, -0.25), 0.1875, 8, 8),
    BoundaryPolygon(
        [
            [0.4999999999999992, 0.7831849001533696],
            [0.5000000000000006, 0.8749999999999992],
            [0.125, 0.750544556331469],
            [0.3125, 0.6874999999999992],
            [0.09996176893638303, 0.6874999999999992],
            [0.5000000000000002, 0.3605662665237366],
            [0.5000000000000004, 0.3124999999999992],
            [0.7053988611890222, 0.5000000000000004],
        ]
    ),
)
FIXTURES = [
    UNSHIFTED_SQUARE,
    NEAR_GRIDLINES,
    CONTOUR,
    ACUTE_VERTEX,
    PENTAGON,
    SLIVER_A,
    SLIVER_B,
    CLAMPED_TIE,
    NEEDLE,
    GRID_VERTEX,
]


def examples(fixtures):
    """Decorator adding each fixture as an ``@example`` of a property test."""

    def decorate(test):
        for am in reversed(fixtures):
            test = example(am)(test)
        return test

    return decorate


# The oracle moment checks are the slowest, so they get fewer examples.
ORACLE = settings(PROPERTY, max_examples=5)


@PROPERTY
@given(meshes | near_gridline_star_meshes())
@example(CLAMPED_TIE)
def test_volume_weights_sum_to_polygon_area(am):
    rules = build_volume_rules(am, 4)
    weights = [cell_volume_rule(rules, am.grid, int(e)).weights for e in am.active]
    total = sum(float(np.sum(w)) for w in weights)
    assert total == pytest.approx(shoelace(am.poly.vertices), rel=1e-10)


@ORACLE
@given(meshes)
@example(NEEDLE)
@example(GRID_VERTEX)
@example(CLAMPED_TIE)
def test_rules_exact_on_q_order_with_points_in_cell(am):
    # The fitted weights may be negative, so no sign is checked: each rule
    # must integrate x^a y^b, a, b <= order, as the clipping oracle does.
    orders = (2, 4, 6)
    rules = [build_volume_rules(am, order).cut for order in orders]
    for eid in rules[0]:
        box = cell_box(am.grid, eid)
        x0, y0, x1, y1 = box
        pieces = clip_polygon_to_box(am.poly, box)
        exact = np.array(
            [
                [sum(greens_monomial_integral(p, a, b) for p in pieces) for b in range(7)]
                for a in range(7)
            ]
        )
        for order, cut in zip(orders, rules):
            x, y = cut[eid].points.T
            assert np.all((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))
            k = np.arange(order + 1)[:, None]
            got = (cut[eid].weights * x**k) @ (y**k).T
            error = np.abs(got - exact[k, k.T])
            assert np.all(error <= 1e-12 * (x1 - x0) ** 2), (box, order, error.max())


def assert_moments_match_oracle(rule, box, poly, degree=6):
    h = box[2] - box[0]
    pieces = clip_polygon_to_box(poly, box)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = sum(greens_monomial_integral(p, a, b) for p in pieces)
            got = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert abs(got - exact) <= 1e-12 * h * h, (box, a, b, got, exact)


@ORACLE
@given(meshes | near_gridline_star_meshes())
@example(NEEDLE)
@example(GRID_VERTEX)
def test_cut_cell_moments_match_clipping_oracle(am):
    rules = build_volume_rules(am, 6)
    for eid, rule in rules.cut.items():
        assert_moments_match_oracle(rule, cell_box(am.grid, eid), am.poly)


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
    # The order-independent pass over the pieces runs once for both orders.
    built = []
    build = mesh._build_cut_geometry

    def counting_build(am):
        built.append(am)
        return build(am)

    monkeypatch.setattr(mesh, "_build_cut_geometry", counting_build)
    grid = BackgroundGrid(origin=(-0.3, -0.3), h=1.5 / 24, nx=24, ny=24)
    am = classify_elements(grid, perturbed_square(0.02, 1.0))
    p = 2
    for order in (2 * p, 2 * p + 2):
        build_volume_rules(am, order)
        build_boundary_rules(am, order)
    assert len(built) == 1 and built[0] is am
    assert np.all(np.isin(am.cut_geometry.cells, am.cut_ids))


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
@example(NEAR_GRIDLINES)
@example(CONTOUR)
@example(PENTAGON)
@example(SLIVER_A)
@example(SLIVER_B)
def test_cut_geometry_matches_loop_bit_for_bit(am):
    geo = am.cut_geometry
    seg, start, end, owner = cut_geometry_loop(am)
    assert np.array_equal(geo.seg, seg)
    assert np.array_equal(geo.start, start)
    assert np.array_equal(geo.end, end)
    assert np.array_equal(geo.owner, owner)


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
@example(PENTAGON)
@example(SLIVER_A)
@example(SLIVER_B)
def test_every_piece_owner_is_cut(am):
    assert np.all(am.classification[am.cut_geometry.owner] == CUT)


@PROPERTY
@given(meshes | near_gridline_star_meshes(), st.sampled_from([1, 2, 3]))
def test_boundary_rules_group_pieces_by_owner(am, p):
    rules = build_boundary_rules(am, 2 * p)
    owner = am.cut_geometry.owner
    assert list(rules) == np.unique(owner).tolist()
    n1d = _points_for_degree(2 * p)
    for eid, rule in rules.items():
        assert rule.weights.shape == (n1d * np.count_nonzero(owner == eid),)


@PROPERTY
@given(meshes)
@example(UNSHIFTED_SQUARE)
@example(NEAR_GRIDLINES)
@example(CONTOUR)
@example(ACUTE_VERTEX)
@example(PENTAGON)
@example(SLIVER_A)
@example(SLIVER_B)
def test_pieces_share_end_points_on_gridlines(am):
    geo = am.cut_geometry
    assert np.array_equal(geo.end[:-1], geo.start[1:])
    assert np.array_equal(geo.end[-1], geo.start[0])
    # Every end that is not a vertex has a coordinate exactly origin + j*h.
    origin, h = np.array(am.grid.origin), am.grid.h
    vertex = np.any(np.all(geo.end[:, None, :] == am.poly.vertices, axis=2), axis=1)
    ends = geo.end[~vertex]
    assert np.all(np.any(ends == origin + np.rint((ends - origin) / h) * h, axis=1))


def test_pieces_clamped_onto_one_face_are_ordered_by_unclamped_height():
    rules = build_volume_rules(CLAMPED_TIE, 2)
    for eid, rule in rules.cut.items():
        box = cell_box(CLAMPED_TIE.grid, eid)
        area = sum(shoelace(p) for p in clip_polygon_to_box(CLAMPED_TIE.poly, box))
        assert np.sum(rule.weights) == pytest.approx(area, rel=1e-12, abs=1e-15), eid


@PROPERTY
@given(meshes | near_gridline_star_meshes())
@examples(FIXTURES)
def test_every_piece_lies_in_one_closed_cell_box(am):
    # No gridline lies strictly between the two ends of a piece.
    geo = am.cut_geometry
    for k, o in enumerate(am.grid.origin):
        gridlines = o + np.arange((am.grid.nx, am.grid.ny)[k] + 1) * am.grid.h
        lo = np.minimum(geo.start[:, k], geo.end[:, k])
        hi = np.maximum(geo.start[:, k], geo.end[:, k])
        assert np.all(np.searchsorted(gridlines, hi) <= np.searchsorted(gridlines, lo, "right"))


@pytest.mark.parametrize(
    "am", [pytest.param(NEEDLE, id="needle"), pytest.param(GRID_VERTEX, id="grid_vertex")]
)
def test_pieces_within_rounding_match_clipping_oracle(am):
    rules = build_volume_rules(am, 6)
    for eid, rule in rules.cut.items():
        assert_moments_match_oracle(rule, cell_box(am.grid, eid), am.poly)


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
    assert 35 in am.cut_geometry.owner


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "am",
    [
        pytest.param(PENTAGON, id="pentagon"),
        pytest.param(SLIVER_A, id="sliver_a"),
        pytest.param(SLIVER_B, id="sliver_b"),
        pytest.param(NEEDLE, id="needle"),
        pytest.param(GRID_VERTEX, id="grid_vertex"),
    ],
)
def test_vertex_within_ulps_of_a_gridline_solves(am, p):
    system, dofmap = assemble_system(
        am, qp_basis(p), penalty_parameters(p), lambda x, y: np.ones_like(x)
    )
    u = solve_spd(system)
    assert u.shape == (dofmap.n_dofs,)
    assert np.all(np.isfinite(u))


@PROPERTY
@given(meshes | near_gridline_star_meshes())
@examples(FIXTURES)
def test_uncut_cells_match_point_in_polygon_at_their_centres(am):
    grid = am.grid
    uncut = np.nonzero(am.classification != CUT)[0]
    centres = grid.cell_origin(uncut) + 0.5 * grid.h
    expected = [point_in_polygon_scalar(am.poly, x, grid.h) for x in centres]
    assert (am.classification[uncut] == INSIDE).tolist() == expected


def test_corner_touch_cell_is_cut_with_empty_rule():
    # Cell 13 is the box (-0.125, -0.125, 0, 0): the square meets it only at
    # its corner (0, 0). It is cut, but no boundary piece lies in it.
    am = UNSHIFTED_SQUARE
    assert cell_box(am.grid, 13) == (-0.125, -0.125, 0.0, 0.0)
    assert am.classification[13] == CUT
    assert build_volume_rules(am, 4).cut[13].weights.size == 0
    assert 13 not in build_boundary_rules(am, 4)


def _ring(grid) -> list[int]:
    """The cells of the 12 x 12 grid just outside the unshifted square."""
    ix, iy = grid.cell_coords(np.arange(grid.n_cells))
    return np.nonzero(np.maximum(np.abs(ix - 5.5), np.abs(iy - 5.5)) == 4.5)[0].tolist()


@pytest.mark.parametrize(
    ("am", "empty"),
    [
        pytest.param(UNSHIFTED_SQUARE, _ring(UNSHIFTED_SQUARE.grid), id="unshifted_square"),
        pytest.param(NEAR_GRIDLINES, [], id="near_gridlines"),
        pytest.param(CONTOUR, [], id="contour"),
        pytest.param(ACUTE_VERTEX, [35], id="acute_vertex"),
        pytest.param(PENTAGON, [], id="pentagon"),
        pytest.param(SLIVER_A, [16, 24], id="sliver_a"),
        pytest.param(SLIVER_B, [], id="sliver_b"),
        pytest.param(CLAMPED_TIE, [44], id="clamped_tie"),
        pytest.param(NEEDLE, [], id="needle"),
        pytest.param(GRID_VERTEX, [41], id="grid_vertex"),
    ],
)
def test_cells_without_a_box_get_empty_rules(am, empty):
    # A cut cell gets an empty rule exactly when its part of the domain has
    # no box of positive width and height: the square's ring touches it only
    # along edges, and SLIVER_A's cell 16 holds only a horizontal pair of
    # pieces. Slivers a few ulp across keep their box and a rule.
    rules = build_volume_rules(am, 2).cut
    assert [e for e, rule in rules.items() if rule.weights.size == 0] == empty
    assert np.array_equal(np.setdiff1d(am.cut_ids, am.cut_geometry.cells), empty)


# A lobe in cell 6, [0.5, 0.75] x [0.25, 0.5], beside an edge on the gridline
# x = 0.5 whose inside lies in cell 5: cell 6's box starts at the lobe.
LOBE = classify_elements(
    BackgroundGrid((0.0, 0.0), 0.25, 4, 4),
    BoundaryPolygon(
        [[0.1, 0.1], [0.7, 0.1], [0.7, 0.45], [0.6, 0.45], [0.6, 0.15], [0.5, 0.15], [0.5, 0.9], [0.1, 0.9]]
    ),
)


@PROPERTY
@given(
    square_meshes()
    | levelset_meshes()
    | disks_on_grids().map(lambda dg: classify_elements(dg[1], extract_levelset_boundary(*dg)))
)
@example(LOBE)
def test_lattice_boxes_bound_the_clipped_cells(am):
    # The lattice of a cut cell lies in the bounding box of K ∩ Ω_h, so no
    # point lies farther than delta outside the domain.
    geo = am.cut_geometry
    boxes = dict(zip(geo.cells.tolist(), geo.boxes))
    for eid in am.cut_ids.tolist():
        pieces = clip_polygon_to_box(am.poly, cell_box(am.grid, eid))
        if not pieces:
            assert eid not in boxes
            continue
        v = np.concatenate(pieces)
        expected = np.concatenate((v.min(axis=0), v.max(axis=0)))
        assert np.all(np.abs(boxes[eid] - expected) <= 1e-12 * am.grid.h), eid
