"""Property tests of the shared cut geometry and the strip-trapezoid rules.

Random cut configurations (grid offsets including zero, so that square edges
lie on gridlines; perturbation amplitudes and phases; level-set contours,
whose vertices lie on cell edges) are checked against the independent
clipping and Green's theorem oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutpoisson import BoundaryPolygon, cut_volume_rule
from cutpoisson import mesh
from cutpoisson.mesh import BackgroundGrid, classify_elements
from cutpoisson.quadrature import build_boundary_rules, build_volume_rules

from oracles import (
    PROPERTY,
    cell_volume_rule,
    clip_polygon_to_box,
    greens_monomial_integral,
    meshes,
    perturbed_square,
    shoelace,
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


def test_strip_walk_runs_once_per_cut_cell(monkeypatch):
    walked = []
    walk = mesh.strip_trapezoids

    def counting_walk(box, *args):
        walked.append(box)
        return walk(box, *args)

    monkeypatch.setattr(mesh, "strip_trapezoids", counting_walk)
    grid = BackgroundGrid(origin=(-0.3, -0.3), h=1.5 / 24, nx=24, ny=24)
    am = classify_elements(grid, perturbed_square(0.02, 1.0))
    p = 2
    for order in (2 * p, 2 * p + 2):
        build_volume_rules(am, order)
        build_boundary_rules(am, order)
    assert sorted(walked) == sorted(grid.cell_box(e) for e in am.cut_ids)
