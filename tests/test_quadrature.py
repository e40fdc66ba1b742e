import math

import numpy as np
import numpy.polynomial.legendre as leg
import pytest

from cutpoisson import (
    BoundaryPolygon,
    QuadratureError,
    gauss_legendre_1d,
    perturb_circle_boundary,
    perturb_square_boundary,
)
from cutpoisson.mesh import BackgroundGrid, classify_elements
from cutpoisson.quadrature import _box_moments, build_boundary_rules, build_volume_rules

from oracles import (
    _trapezoids_rule,
    cell_box,
    cell_id,
    cell_volume_rule,
    clip_polygon_to_box,
    cut_volume_rule,
    greens_monomial_integral,
    perimeter,
    polyline_length_in_box,
    shoelace,
)

UNIT_SQUARE = BoundaryPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestGauss1D:
    def test_two_point(self):
        rule = gauss_legendre_1d(2)
        assert np.allclose(sorted(rule.points), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert np.allclose(rule.weights, [1.0, 1.0])

    def test_odd_power_vanishes(self):
        rule = gauss_legendre_1d(2)
        assert abs(np.sum(rule.weights * rule.points**3)) < 1e-15

    def test_x4_with_three_points(self):
        rule = gauss_legendre_1d(3)
        assert np.sum(rule.weights * rule.points**4) == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_weights_positive_sum_two(self, n):
        rule = gauss_legendre_1d(n)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 17, -3])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            gauss_legendre_1d(n)


class TestTrapezoidRule:
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_monomial_exactness(self, degree):
        # The unit box holds the whole reference triangle: one strip whose
        # trapezoid has the hypotenuse as its upper edge.
        rule = cut_volume_rule((0.0, 0.0, 1.0, 1.0), [[0, 0], [1, 0], [0, 1]], degree)
        assert np.all(rule.weights > 0)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                # reference triangle integral: a! b! / (a+b+2)!
                exact = (
                    math.factorial(a)
                    * math.factorial(b)
                    / math.factorial(a + b + 2)
                )
                got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                assert got == pytest.approx(exact, abs=2e-14)


class TestInsideRule:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_tensor_gauss_rule_on_the_unit_square(self, order):
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.375, nx=4, ny=4)
        rules = build_volume_rules(classify_elements(grid, UNIT_SQUARE), order)
        # The strip rule on the one trapezoid [0, 1]^2, bit for bit.
        unit = _trapezoids_rule(np.array([[0.0, 1.0, 0.0, 0.0, 1.0, 1.0]]), order)
        assert np.array_equal(rules.inside_ref_points, unit.points)
        assert np.array_equal(rules.inside_ref_weights, unit.weights)
        x, y = rules.inside_ref_points.T
        for a in range(order + 1):
            for b in range(order + 1):
                got = np.sum(rules.inside_ref_weights * x**a * y**b)
                assert abs(got - 1.0 / ((a + 1) * (b + 1))) <= 1e-15


class TestClip:
    def test_quarter_box(self):
        pieces = clip_polygon_to_box(UNIT_SQUARE, (0.0, 0.0, 0.5, 0.5))
        assert len(pieces) == 1
        assert shoelace(pieces[0]) == pytest.approx(0.25, abs=1e-15)

    def test_disjoint(self):
        assert clip_polygon_to_box(UNIT_SQUARE, (2.0, 2.0, 3.0, 3.0)) == []

    def test_box_inside_polygon(self):
        pieces = clip_polygon_to_box(UNIT_SQUARE, (0.25, 0.25, 0.5, 0.5))
        assert len(pieces) == 1
        assert shoelace(pieces[0]) == pytest.approx(0.0625, abs=1e-16)

    def test_disconnected_intersection_splits(self):
        # U-shaped polygon; the box catches the two prongs separately
        poly = BoundaryPolygon(
            [
                [-1.0, 0.1],
                [2.0, 0.1],
                [2.0, 0.9],
                [-1.0, 0.9],
                [-1.0, 0.8],
                [1.5, 0.8],
                [1.5, 0.2],
                [-1.0, 0.2],
            ]
        )
        pieces = clip_polygon_to_box(poly, (0.0, 0.0, 1.0, 1.0))
        areas = sorted(shoelace(p) for p in pieces)
        assert len(pieces) == 2
        assert areas[0] == pytest.approx(0.1, abs=1e-14)
        assert areas[1] == pytest.approx(0.1, abs=1e-14)

    def test_tangential_touch(self):
        # polygon touching the box along an edge from outside: nothing kept
        poly = BoundaryPolygon([[0, -1], [1, -1], [1, 0], [0, 0]])
        pieces = clip_polygon_to_box(poly, (0.0, 0.0, 1.0, 1.0))
        assert sum(abs(shoelace(p)) for p in pieces) < 1e-14

    def test_three_pronged_intersection(self):
        # comb with three teeth crossing the box: three separate components
        poly = BoundaryPolygon(
            [
                [-1.0, 0.1],
                [2.0, 0.1],
                [2.0, 0.9],
                [-1.0, 0.9],
                [-1.0, 0.8],
                [1.5, 0.8],
                [1.5, 0.55],
                [-1.0, 0.55],
                [-1.0, 0.45],
                [1.5, 0.45],
                [1.5, 0.2],
                [-1.0, 0.2],
            ]
        )
        pieces = clip_polygon_to_box(poly, (0.0, 0.0, 1.0, 1.0))
        areas = sorted(shoelace(p) for p in pieces)
        assert len(pieces) == 3
        assert np.allclose(areas, [0.1, 0.1, 0.1], atol=1e-14)

    def test_random_partition_additivity(self):
        poly = perturb_square_boundary(0.04, 32)
        total = 0.0
        n = 5
        for i in range(n):
            for j in range(n):
                box = (
                    -0.25 + 1.5 * i / n,
                    -0.25 + 1.5 * j / n,
                    -0.25 + 1.5 * (i + 1) / n,
                    -0.25 + 1.5 * (j + 1) / n,
                )
                total += sum(shoelace(p) for p in clip_polygon_to_box(poly, box))
        assert total == pytest.approx(shoelace(poly.vertices), rel=1e-12)


def _cell_moments(vertices, box, n=5):
    """Box and Legendre moments (n, n) of the shape, the one cut cell of a 3 x 3
    grid whose middle cell is ``box``."""
    h = box[2] - box[0]
    grid = BackgroundGrid((box[0] - h, box[1] - h), h, 3, 3)
    geo = classify_elements(grid, BoundaryPolygon(vertices)).cut_geometry
    assert geo.cells.tolist() == [4]
    return geo.boxes[0], _box_moments(geo, n)[0]


def _oracle_moments(vertices, box, n=5):
    """The integrals of P_a(s) P_b(t) over the shape, with s, t mapping the box
    onto [-1, 1], from the Green's theorem monomial integrals."""
    lo, hi = np.array(box[:2]), np.array(box[2:])
    v = (np.asarray(vertices, dtype=float) - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    mono = np.array([[greens_monomial_integral(v, i, j) for j in range(n)] for i in range(n)])
    c = np.array([np.pad(leg.leg2poly(np.eye(n)[a]), (0, n))[:n] for a in range(n)])
    return c @ mono @ c.T


def _assert_cell_moments(vertices, box):
    """The shape's box is ``box``, its M_00 |box| / 4 its area, and its moments
    the Green's theorem integrals; returns the moments."""
    got_box, m = _cell_moments(vertices, box)
    assert np.array_equal(got_box, box)
    area = m[0, 0] * np.prod(np.subtract(box[2:], box[:2])) / 4
    assert area == pytest.approx(shoelace(vertices), rel=1e-14)
    # The oracle's change from monomials to Legendre polynomials costs about
    # two digits.
    assert np.max(np.abs(m - _oracle_moments(vertices, box))) <= 1e-13
    return m


class TestStripTrapezoids:
    """Cut-cell boxes and moments of whole shapes, from Green's formula over the
    boundary pieces and the top edge."""

    def test_square(self):
        m = _assert_cell_moments([[0, 0], [1, 0], [1, 1], [0, 1]], (0.0, 0.0, 1.0, 1.0))
        # The whole box: 4 at P_0 P_0 and zero elsewhere.
        assert np.max(np.abs(m.ravel()[1:])) <= 1e-15

    def test_triangle_identity(self):
        m = _assert_cell_moments([[0, 0], [1, 0], [0, 1]], (0.0, 0.0, 1.0, 1.0))
        # The half s + t <= 0 of the box: the integral of P_a(s) P_b(t) over
        # it is (-1)^(a+b) times that over the other half, and the two add up
        # to the whole box's moments.
        sign = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))
        whole = np.zeros((5, 5))
        whole[0, 0] = 4.0
        assert np.max(np.abs(m + sign * m - whole)) <= 1e-14

    def test_l_shaped_hexagon(self):
        _assert_cell_moments([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], (0.0, 0.0, 2.0, 2.0))

    def test_degenerate_rejected(self):
        # The unit square with a figure-eight loop in its bottom edge is not
        # simple; its trapezoids miss the polygon's area by 1.2e-2.
        poly = BoundaryPolygon(
            [[0, 0], [0.4, 0], [0.6, 0.2], [0.6, 0], [0.4, 0.2], [0.45, 0], [1, 0], [1, 1], [0, 1]]
        )
        am = classify_elements(BackgroundGrid((-0.25, -0.25), 0.125, 12, 12), poly)
        with pytest.raises(QuadratureError, match="polygon area"):
            build_volume_rules(am, 2)

    def test_collinear_chain_ok(self):
        poly = [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1.0], [0, 1]]
        _assert_cell_moments(poly, (0.0, 0.0, 1.0, 1.0))


class TestCutVolumeRule:
    def test_inside_box(self):
        h = 0.3
        rule = cut_volume_rule((0.2, 0.2, 0.2 + h, 0.2 + h), UNIT_SQUARE, 2)
        assert np.sum(rule.weights) == pytest.approx(h * h, rel=1e-13)

    def test_outside_box(self):
        rule = cut_volume_rule((2.0, 2.0, 2.5, 2.5), UNIT_SQUARE, 2)
        assert rule.weights.size == 0

    def test_bisected_box(self):
        # the hypotenuse x + y = 1 cuts the box through two opposite corners
        poly = BoundaryPolygon([[0, 0], [1, 0], [0, 1]])
        h = 0.1
        box = (0.45, 0.45, 0.45 + h, 0.45 + h)
        rule = cut_volume_rule(box, poly, 2)
        clipped = clip_polygon_to_box(poly, box)
        expected = sum(shoelace(p) for p in clipped)
        assert expected == pytest.approx(h * h / 2, rel=1e-12)
        assert np.sum(rule.weights) == pytest.approx(expected, rel=1e-12)

    def test_monomial_exactness_random_cuts(self):
        rng = np.random.default_rng(42)
        poly = perturb_square_boundary(0.03, 32)
        checked = 0
        while checked < 25:
            cx, cy = rng.uniform(-0.1, 1.1, size=2)
            h = rng.uniform(0.05, 0.2)
            box = (cx, cy, cx + h, cy + h)
            pieces = clip_polygon_to_box(poly, box)
            area = sum(shoelace(p) for p in pieces)
            if area < 1e-6 or abs(area - h * h) < 1e-9:
                continue  # want genuinely cut boxes
            rule = cut_volume_rule(box, poly, 6)
            assert np.all(rule.weights >= 0)
            for a in range(7):
                for b in range(7 - a):
                    exact = sum(greens_monomial_integral(p, a, b) for p in pieces)
                    got = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                    assert abs(got - exact) <= 1e-12 * h * h
            checked += 1

    def test_points_inside_box(self):
        poly = perturb_square_boundary(0.02, 32)
        box = (0.9, 0.4, 1.05, 0.55)
        rule = cut_volume_rule(box, poly, 4)
        assert np.all(rule.points[:, 0] >= box[0] - 1e-12)
        assert np.all(rule.points[:, 0] <= box[2] + 1e-12)


class TestCutBoundaryRule:
    def test_horizontal_crossing(self):
        h = 0.25
        grid = BackgroundGrid(origin=(-0.25, -0.1), h=h, nx=6, ny=5)
        rules = build_boundary_rules(classify_elements(grid, UNIT_SQUARE), 2)
        rule = rules[cell_id(grid, 2, 0)]  # box (0.25, -0.1, 0.5, 0.15)
        assert np.sum(rule.weights) == pytest.approx(h, rel=1e-13)
        assert np.allclose(rule.normals, [0.0, -1.0])

    def test_no_intersection(self):
        grid = BackgroundGrid(origin=(-0.5, -0.5), h=0.5, nx=6, ny=6)
        rules = build_boundary_rules(classify_elements(grid, UNIT_SQUARE), 2)
        assert rules
        assert cell_id(grid, 5, 5) not in rules  # box (2, 2, 2.5, 2.5)

    def test_arc_length_oracle(self):
        poly = perturb_circle_boundary(0.0, 0.0, 0.1, 0.1, 2048)
        grid = BackgroundGrid(origin=(-1.25, -1.25), h=0.3125, nx=8, ny=8)
        rules = build_boundary_rules(classify_elements(grid, poly), 4)
        for eid, rule in rules.items():
            expected = polyline_length_in_box(poly.vertices, cell_box(grid, eid))
            assert np.sum(rule.weights) == pytest.approx(expected, rel=1e-12)

    def test_normals_unit(self):
        poly = perturb_circle_boundary(0.01, 0.0, 0.1, 0.1, 512)
        grid = BackgroundGrid(origin=(-1.25, -1.25), h=0.3125, nx=8, ny=8)
        for rule in build_boundary_rules(classify_elements(grid, poly), 2).values():
            lens = np.hypot(rule.normals[:, 0], rule.normals[:, 1])
            assert np.allclose(lens, 1.0, atol=1e-13)

    def test_edges_just_outside_gridlines(self):
        # The square's edges lie 1.9e-15 outside the gridlines: every piece
        # sits in two closed cell boxes and belongs to the inner one.
        o = -0.2500000000000019
        grid = BackgroundGrid(origin=(o, o), h=0.125, nx=12, ny=12)
        rules = build_boundary_rules(classify_elements(grid, UNIT_SQUARE), 4)
        total = sum(float(np.sum(r.weights)) for r in rules.values())
        assert abs(total - 4.0) <= 1e-12


class TestGlobalConservation:
    def test_volume_and_perimeter(self):
        poly = perturb_square_boundary(0.015, 48)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=1.5 / 24, nx=24, ny=24)
        am = classify_elements(grid, poly)
        vrules = build_volume_rules(am, 4)
        total_area = sum(
            float(np.sum(cell_volume_rule(vrules, grid, int(e)).weights)) for e in am.active
        )
        assert total_area == pytest.approx(shoelace(poly.vertices), rel=1e-10)
        brules = build_boundary_rules(am, 4)
        total_len = sum(float(np.sum(r.weights)) for r in brules.values())
        assert total_len == pytest.approx(perimeter(poly), rel=1e-10)
        for rule in brules.values():
            assert np.all(rule.weights >= 0)
