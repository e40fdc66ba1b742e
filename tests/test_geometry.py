import numpy as np
import pytest
from hypothesis import example, given

from cutpoisson import (
    BoundaryPolygon,
    Disk,
    GeometryError,
    UnitSquare,
    closest_point,
    extract_levelset_boundary,
    measure_geometric_errors,
    perturb_circle_boundary,
    perturb_square_boundary,
)
from cutpoisson.geometry import oscillation_frequency
from cutpoisson.mesh import BackgroundGrid

from oracles import (
    PROPERTY,
    disks_on_grids,
    dist_to_unit_square_boundary,
    is_simple_polygon,
    levelset_boundary_loop,
    perimeter,
    shoelace,
)


class TestBoundaryPolygon:
    def test_caller_array_stays_writable(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        poly = BoundaryPolygon(v)
        v[0, 0] = 0.1
        assert v.flags.writeable
        assert poly.vertices[0, 0] == 0.0

    def test_validation(self):
        with pytest.raises(GeometryError):
            BoundaryPolygon([[0, 0], [1, 0]])
        with pytest.raises(GeometryError):
            BoundaryPolygon([[0, 0], [1, 0], [1, 0], [0, 1]])
        with pytest.raises(GeometryError):  # clockwise
            BoundaryPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        for bad in (np.nan, np.inf):
            with pytest.raises(GeometryError, match="finite"):
                BoundaryPolygon([[0, 0], [1, 0], [1, bad], [0, 1]])

    def test_area_perimeter(self):
        sq = BoundaryPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert sq.signed_area == pytest.approx(1.0, abs=1e-15)
        assert perimeter(sq) == pytest.approx(4.0, abs=1e-15)


class TestPerturbSquare:
    def test_delta_zero_is_exact_square(self):
        poly = perturb_square_boundary(0.0, 16)
        assert poly.n_vertices == 64
        d = dist_to_unit_square_boundary(poly.vertices)
        assert np.max(d) == 0.0
        assert poly.signed_area > 0

    def test_cos_zero_vertices_unmoved(self):
        delta = 0.01
        poly0 = perturb_square_boundary(0.0, 64)
        poly = perturb_square_boundary(delta, 64)
        center = np.array([0.45, 0.35])
        rel = poly0.vertices - center
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        quiet = np.abs(np.cos(5 * theta)) < 1e-12
        if np.any(quiet):
            assert np.allclose(poly.vertices[quiet], poly0.vertices[quiet])
        # and every vertex displacement has magnitude delta*|cos(5 theta)|
        disp = np.hypot(*(poly.vertices - poly0.vertices).T)
        assert np.allclose(disp, delta * np.abs(np.cos(5 * theta)), atol=1e-14)

    def test_max_vertex_distance_matches_delta(self):
        # dense sampling: max distance to the square boundary within 1%
        delta = 1e-3
        poly = perturb_square_boundary(delta, 256)
        d = np.max(dist_to_unit_square_boundary(poly.vertices))
        assert 0.99 * delta <= d <= delta * (1 + 1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            perturb_square_boundary(-0.1, 32)
        with pytest.raises(ValueError):
            perturb_square_boundary(0.0, 8)
        with pytest.raises(GeometryError):
            perturb_square_boundary(0.4, 32)  # collapses against (0.45, 0.35)

    def test_simple_for_study_amplitudes(self):
        poly = perturb_square_boundary(0.05, 24)
        assert is_simple_polygon(poly.vertices)


class TestPerturbCircle:
    @pytest.mark.parametrize(
        "alpha_n,h,h0,freq",
        [(0.0, 0.05, 0.1, 5), (1.0, 0.05, 0.1, 10), (0.5, 0.05, 0.2, 10)],
    )
    def test_frequency_formula(self, alpha_n, h, h0, freq):
        assert oscillation_frequency(alpha_n, h, h0) == freq

    def test_delta_zero_regular_ngon(self):
        poly = perturb_circle_boundary(0.0, 0.0, 0.1, 0.1, 128)
        r = np.hypot(poly.vertices[:, 0], poly.vertices[:, 1])
        assert np.allclose(r, 1.0, atol=1e-15)
        sides = np.hypot(*(np.roll(poly.vertices, -1, axis=0) - poly.vertices).T)
        assert np.allclose(sides, sides[0], atol=1e-14)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            perturb_circle_boundary(1e-3, 1.0, 0.025, 0.1, 100)  # freq 20 needs 320


class TestLevelset:
    def grid(self, n):
        return BackgroundGrid(origin=(-1.25, -1.25), h=2.5 / n, nx=n, ny=n)

    def test_vertices_on_crossing_edges(self):
        disk = Disk((0.0, 0.0), 1.0)
        grid = self.grid(12)
        poly = extract_levelset_boundary(disk, grid)
        # every vertex sits on a triangle edge between nodes of opposite sign
        phi = lambda p: np.hypot(p[..., 0], p[..., 1]) - 1.0
        for v in poly.vertices:
            # must be within the interpolation error of the circle
            assert abs(phi(v)) < 0.5 * grid.h
        assert poly.signed_area > 0

    def test_area_converges_to_pi(self):
        disk = Disk((0.0, 0.0), 1.0)
        for n in (12, 24, 48):
            poly = extract_levelset_boundary(disk, self.grid(n))
            h = 2.5 / n
            assert abs(shoelace(poly.vertices) - np.pi) < 2.0 * h * h

    def test_delta_second_order(self):
        disk = Disk((0.0, 0.0), 1.0)
        deltas = []
        for n in (12, 24, 48):
            poly = extract_levelset_boundary(disk, self.grid(n))
            deltas.append(measure_geometric_errors(poly, disk).delta)
        rate = np.log(deltas[0] / deltas[2]) / np.log(4.0)
        assert rate == pytest.approx(2.0, abs=0.3)

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(GeometryError):
            extract_levelset_boundary(Disk((0.0, 0.0), 1.0), self.grid(4))

    def test_levelset_outside_grid_rejected(self):
        grid = BackgroundGrid(origin=(-0.5, -0.5), h=1.0 / 24, nx=24, ny=24)
        with pytest.raises(GeometryError):
            extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid)


@PROPERTY
@given(disks_on_grids())
# Nodes exactly on the circle at (±1, 0) and (0, ±1).
@example((Disk((0.0, 0.0), 1.0), BackgroundGrid(origin=(-1.25, -1.25), h=0.125, nx=20, ny=20)))
def test_levelset_contour_matches_loop_bit_for_bit(disk_grid):
    got = extract_levelset_boundary(*disk_grid).vertices
    assert np.array_equal(got, levelset_boundary_loop(*disk_grid).vertices)


class TestClosestPoint:
    def test_disk_examples(self):
        q, n = closest_point(Disk((0.0, 0.0), 1.0), np.array([1.1, 0.0]))
        assert np.allclose(q, [1.0, 0.0]) and np.allclose(n, [1.0, 0.0])

    def test_square_examples(self):
        q, n = closest_point(UnitSquare(), np.array([0.5, -0.1]))
        assert np.allclose(q, [0.5, 0.0]) and np.allclose(n, [0.0, -1.0])
        q, n = closest_point(UnitSquare(), np.array([-0.1, -0.1]))
        assert np.allclose(q, [0.0, 0.0])

    def test_corner_tie_break(self):
        # equidistant to bottom and left edges: bottom (first in order) wins
        _, n = closest_point(UnitSquare(), np.array([0.1, 0.1]))
        assert np.allclose(n, [0.0, -1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for domain in (UnitSquare(), Disk((0.2, -0.1), 0.8)):
            pts = rng.uniform(-0.05, 1.05, size=(50, 2))
            q, _ = closest_point(domain, pts)
            q2, _ = closest_point(domain, q)
            assert np.max(np.hypot(*(q - q2).T)) < 1e-12

    def test_disk_distance_identity(self):
        rng = np.random.default_rng(3)
        c, r = np.array([0.3, 0.4]), 0.7
        pts = rng.uniform(-1, 1, size=(100, 2))
        pts = pts[np.hypot(*(pts - c).T) > 1e-6]
        q, _ = closest_point(Disk(tuple(c), r), pts)
        d = np.hypot(*(pts - q).T)
        expect = np.abs(np.hypot(*(pts - c).T) - r)
        assert np.max(np.abs(d - expect)) < 1e-12

    def test_disk_center_rejected(self):
        with pytest.raises(GeometryError):
            closest_point(Disk((0.0, 0.0), 1.0), np.array([0.0, 0.0]))


class TestSegmentNormal:
    def test_examples(self):
        poly = BoundaryPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert np.allclose(poly.segment_normals(), [[0, -1], [1, 0], [0, 1], [-1, 0]])

    def test_unit_length(self):
        rng = np.random.default_rng(11)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 20))
        r = rng.uniform(0.5, 2.0, 20)
        poly = BoundaryPolygon(np.column_stack((r * np.cos(theta), r * np.sin(theta))))
        n = poly.segment_normals()
        assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, rtol=0.0, atol=1e-14)


class TestMeasureGeometricErrors:
    def test_circle_construction_bound(self):
        # fine sampling keeps the chord sag far below the amplitude; the max
        # at inward troughs exceeds nominal by exactly that sag
        poly = perturb_circle_boundary(1e-3, 0.0, 0.1, 0.1, 8192)
        ge = measure_geometric_errors(poly, Disk((0.0, 0.0), 1.0))
        sag = (2 * np.pi / 8192) ** 2 / 8
        assert 0.99e-3 <= ge.delta <= 1.0e-3 + 2 * sag

    def test_inscribed_ngon_rates(self):
        # frozen constants: delta*n^2 -> pi^2/2, delta_n*n -> 2*pi/3
        for n in (64, 256):
            theta = 2 * np.pi * np.arange(n) / n
            poly = BoundaryPolygon(np.column_stack((np.cos(theta), np.sin(theta))))
            ge = measure_geometric_errors(poly, Disk((0.0, 0.0), 1.0))
            assert ge.delta <= 5.0 / n**2
            assert ge.delta_n <= 2.2 / n

    def test_exact_square_zero_delta(self):
        poly = perturb_square_boundary(0.0, 32)
        ge = measure_geometric_errors(poly, UnitSquare())
        assert ge.delta == 0.0

    def test_monotone_in_amplitude(self):
        deltas = []
        for amp in (1e-4, 5e-4, 1e-3, 2e-3):
            poly = perturb_circle_boundary(amp, 0.0, 0.1, 0.1, 256)
            deltas.append(measure_geometric_errors(poly, Disk((0.0, 0.0), 1.0)).delta)
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))

    def test_delta_n_tracks_normal_error(self):
        # higher frequency at the same amplitude worsens only the normals
        a = measure_geometric_errors(
            perturb_circle_boundary(1e-3, 0.0, 0.1, 0.1, 2048), Disk((0.0, 0.0), 1.0)
        )
        b = measure_geometric_errors(
            perturb_circle_boundary(1e-3, 2.0, 0.025, 0.1, 2048), Disk((0.0, 0.0), 1.0)
        )
        assert b.delta_n > 5.0 * a.delta_n
        assert abs(b.delta - a.delta) < 0.2e-3
