import numpy as np
import pytest

from cutpoisson import (
    BoundaryPolygon,
    MeshError,
    perturb_square_boundary,
)
from cutpoisson.mesh import (
    CUT,
    INSIDE,
    OUTSIDE,
    ActiveMesh,
    BackgroundGrid,
    classify_elements,
    ghost_faces,
    point_in_polygon,
)
from cutpoisson.quadrature import build_volume_rules

from oracles import cell_volume_rule, shoelace


def small_grid(n=6, h=0.25, origin=(-0.25, -0.25)):
    return BackgroundGrid(origin=origin, h=h, nx=n, ny=n)


class TestBackgroundGrid:
    def test_validation(self):
        with pytest.raises(MeshError):
            BackgroundGrid(origin=(0, 0), h=0.0, nx=2, ny=2)
        with pytest.raises(MeshError):
            BackgroundGrid(origin=(0, 0), h=0.5, nx=0, ny=2)

    def test_cell_box(self):
        g = small_grid()
        assert g.cell_box(0) == (-0.25, -0.25, 0.0, 0.0)
        assert g.cell_box(7) == (0.0, 0.0, 0.25, 0.25)


class TestClassification:
    def test_fully_inside_and_outside(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = small_grid(12, 0.125)
        am = classify_elements(grid, poly)
        center_cell = grid.cell_id(6, 6)  # box [0.5, 0.625]^2, interior
        assert am.classification[center_cell] == INSIDE
        corner_cell = grid.cell_id(0, 0)  # box around (-0.25,-0.25), outside
        assert am.classification[corner_cell] == OUTSIDE

    def test_crossed_cell_is_cut(self):
        poly = BoundaryPolygon([[0.1, 0.1], [0.9, 0.15], [0.9, 0.9], [0.1, 0.85]])
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
        am = classify_elements(grid, poly)
        # cell [0, 0.25]^2 is crossed by the first slanted segment
        assert am.classification[grid.cell_id(0, 0)] == CUT

    def test_tangential_touch_is_cut(self):
        # polygon edge collinear with a cell face
        poly = BoundaryPolygon([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
        am = classify_elements(grid, poly)
        # the outside cell below the bottom edge still touches the polygon
        assert am.classification[grid.cell_id(1, 0)] == CUT

    def test_polygon_outside_grid_rejected(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
        with pytest.raises(MeshError):
            classify_elements(grid, poly)

    def test_every_vertex_in_active_closed_box(self):
        poly = perturb_square_boundary(0.03, 32)
        grid = small_grid(12, 0.125)
        am = classify_elements(grid, poly)
        for v in poly.vertices:
            covered = False
            for eid in am.active:
                x0, y0, x1, y1 = grid.cell_box(int(eid))
                if x0 <= v[0] <= x1 and y0 <= v[1] <= y1:
                    covered = True
                    break
            assert covered

    def test_area_conservation(self):
        poly = perturb_square_boundary(0.02, 32)
        grid = small_grid(24, 0.0625)
        am = classify_elements(grid, poly)
        rules = build_volume_rules(am, 2)
        total = sum(float(np.sum(cell_volume_rule(rules, grid, int(e)).weights)) for e in am.active)
        area = shoelace(poly.vertices)
        assert abs(total - area) <= 1e-10 * area


class TestPointInPolygon:
    def test_basic(self):
        poly = BoundaryPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert point_in_polygon(poly, (0.5, 0.5), 1.0)
        assert not point_in_polygon(poly, (1.5, 0.5), 1.0)
        assert not point_in_polygon(poly, (-0.5, 0.5), 1.0)

    def test_nonconvex(self):
        poly = BoundaryPolygon(
            [[0, 0], [4, 0], [4, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]]
        )
        assert not point_in_polygon(poly, (1.5, 2.0), 1.0)  # inside the notch
        assert point_in_polygon(poly, (3.0, 2.0), 1.0)


def synthetic_mesh(classes, nx, ny):
    """ActiveMesh with prescribed per-cell classes (row-major array)."""
    grid = BackgroundGrid(origin=(0.0, 0.0), h=1.0, nx=nx, ny=ny)
    poly = BoundaryPolygon([[0.1, 0.1], [0.9, 0.1], [0.9, 0.9], [0.1, 0.9]])
    cls = np.asarray(classes, dtype=np.int8).reshape(-1)
    am = ActiveMesh(
        grid=grid,
        poly=poly,
        classification=cls,
        active=np.nonzero(cls != OUTSIDE)[0],
    )
    am.ghost_faces_arr = ghost_faces(am)
    return am


class TestGhostFaces:
    def test_no_cut_elements_empty(self):
        am = synthetic_mesh([INSIDE] * 9, 3, 3)
        assert len(ghost_faces(am)) == 0

    def test_center_cut_exactly_four_faces(self):
        cls = [INSIDE] * 9
        cls[4] = CUT  # center of the 3x3 block
        am = synthetic_mesh(cls, 3, 3)
        faces = ghost_faces(am)
        # oracle: enumerate all interior faces and apply the predicate
        expected = set()
        for iy in range(3):
            for ix in range(2):
                e1, e2 = iy * 3 + ix, iy * 3 + ix + 1
                if 4 in (e1, e2):
                    expected.add((e1, e2, 0))
        for iy in range(2):
            for ix in range(3):
                e1, e2 = iy * 3 + ix, (iy + 1) * 3 + ix
                if 4 in (e1, e2):
                    expected.add((e1, e2, 1))
        got = {tuple(int(v) for v in f) for f in faces}
        assert got == expected
        assert len(got) == 4

    def test_face_to_inactive_excluded(self):
        cls = [OUTSIDE] * 9
        cls[4] = CUT
        cls[5] = INSIDE  # only one active neighbor
        am = synthetic_mesh(cls, 3, 3)
        faces = ghost_faces(am)
        got = {tuple(int(v) for v in f) for f in faces}
        assert got == {(4, 5, 0)}

    def test_no_duplicates_and_ordered_pairs(self):
        poly = perturb_square_boundary(0.02, 32)
        am = classify_elements(small_grid(12, 0.125), poly)
        faces = [tuple(int(v) for v in f) for f in am.ghost_faces_arr]
        assert len(faces) == len(set(faces))
        assert all(f[0] < f[1] for f in faces)
