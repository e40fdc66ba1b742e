import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cutpoisson
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
)
from cutpoisson.quadrature import build_volume_rules

from oracles import cell_box, cell_id, cell_volume_rule, shoelace


def small_grid(n=6, h=0.25, origin=(-0.25, -0.25)):
    return BackgroundGrid(origin=origin, h=h, nx=n, ny=n)


class TestBackgroundGrid:
    def test_validation(self):
        with pytest.raises(MeshError):
            BackgroundGrid(origin=(0, 0), h=0.0, nx=2, ny=2)
        with pytest.raises(MeshError):
            BackgroundGrid(origin=(0, 0), h=0.5, nx=0, ny=2)

    @pytest.mark.parametrize(
        "origin, h",
        [((0.0, 0.0), np.nan), ((0.0, 0.0), np.inf), ((0.0, 0.0), -np.inf),
         ((np.nan, -0.25), 0.25), ((-0.25, np.inf), 0.25), ((-np.inf, -0.25), 0.25)],
    )  # fmt: skip
    def test_non_finite_spacing_or_origin_rejected(self, origin, h):
        with pytest.raises(MeshError, match="finite"):
            BackgroundGrid(origin=origin, h=h, nx=2, ny=2)

    def test_cell_box(self):
        g = small_grid()
        assert cell_box(g, 0) == (-0.25, -0.25, 0.0, 0.0)
        assert cell_box(g, 7) == (0.0, 0.0, 0.25, 0.25)


class TestClassification:
    def test_fully_inside_and_outside(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = small_grid(12, 0.125)
        am = classify_elements(grid, poly)
        center_cell = cell_id(grid, 6, 6)  # box [0.5, 0.625]^2, interior
        assert am.classification[center_cell] == INSIDE
        corner_cell = cell_id(grid, 0, 0)  # box around (-0.25,-0.25), outside
        assert am.classification[corner_cell] == OUTSIDE

    def test_crossed_cell_is_cut(self):
        poly = BoundaryPolygon([[0.1, 0.1], [0.9, 0.15], [0.9, 0.9], [0.1, 0.85]])
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
        am = classify_elements(grid, poly)
        # cell [0, 0.25]^2 is crossed by the first slanted segment
        assert am.classification[cell_id(grid, 0, 0)] == CUT

    def test_tangential_touch_is_cut(self):
        # polygon edge collinear with a cell face
        poly = BoundaryPolygon([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
        am = classify_elements(grid, poly)
        # the outside cell below the bottom edge still touches the polygon
        assert am.classification[cell_id(grid, 1, 0)] == CUT

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
                x0, y0, x1, y1 = cell_box(grid, int(eid))
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


def synthetic_mesh(classes, nx, ny):
    """ActiveMesh with prescribed per-cell classes (row-major array)."""
    grid = BackgroundGrid(origin=(0.0, 0.0), h=1.0, nx=nx, ny=ny)
    poly = BoundaryPolygon([[0.1, 0.1], [0.9, 0.1], [0.9, 0.9], [0.1, 0.9]])
    cls = np.asarray(classes, dtype=np.int8).reshape(-1)
    return ActiveMesh(
        grid=grid,
        poly=poly,
        classification=cls,
        active=np.nonzero(cls != OUTSIDE)[0],
    )


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


def test_import_leaves_scipy_ndimage_unloaded():
    # A fresh interpreter, so that modules other tests imported do not count.
    path = [str(Path(cutpoisson.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, cutpoisson; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
