import numpy as np
import pytest
import scipy.sparse as sp

from cutpoisson import (
    BoundaryPolygon,
    DiscreteSolution,
    EvaluationError,
    ReferenceSolution,
    SolverError,
    assemble_system,
    build_dofmap,
    compute_error_norms,
    disk_solution,
    eval_basis,
    eval_discrete,
    galerkin_residual,
    penalty_parameters,
    perturb_square_boundary,
    qp_basis,
    series_solution,
    solve_spd,
)
from cutpoisson.assembly import SparseSystem
from cutpoisson.mesh import INSIDE, ActiveMesh, BackgroundGrid, classify_elements
from cutpoisson.solver import _sn_pair

from oracles import fd_square_center_value, lowest_active_cell


UNIT_SQUARE = BoundaryPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def fitted_square_solution(p=2, coeffs_from=None, n=12):
    poly = perturb_square_boundary(0.0, 32)
    grid = BackgroundGrid(origin=(-0.25, -0.25), h=1.5 / n, nx=n, ny=n)
    am = classify_elements(grid, poly)
    basis = qp_basis(p)
    dm = build_dofmap(am, p)
    if coeffs_from is None:
        c = np.zeros(dm.n_dofs)
    else:
        c = coeffs_from(dm.dof_coords[:, 0], dm.dof_coords[:, 1])
    return DiscreteSolution(coefficients=c, dofmap=dm, basis=basis, am=am)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        system = SparseSystem(matrix=sp.eye(3, format="csr"), rhs=b)
        assert np.allclose(solve_spd(system), b)

    def test_small_system(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = solve_spd(SparseSystem(matrix=a, rhs=np.array([3.0, 3.0])))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(50, 50))
        a = sp.csr_matrix(m @ m.T + 50 * np.eye(50))
        b = rng.normal(size=50)
        x = solve_spd(SparseSystem(matrix=a, rhs=b))
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            solve_spd(SparseSystem(matrix=a, rhs=np.array([1.0, 0.0])))


class TestSeriesSolution:
    def test_particular_part_at_center(self):
        # the n=1 term of the sum at the center is positive, so u < u_p = 0.125
        v, _ = series_solution(np.array([0.5, 0.5]), 50)
        assert v < 0.125

    def test_sn_boundary_identity(self):
        for n in (1, 7, 99, 199):
            s0, _ = _sn_pair(n, np.array([0.0]))
            s1, _ = _sn_pair(n, np.array([1.0]))
            assert s0[0] == pytest.approx(1.0, abs=1e-14)
            assert s1[0] == pytest.approx(1.0, abs=1e-14)

    def test_center_value_against_fd_oracle(self):
        v, _ = series_solution(np.array([0.5, 0.5]), 50)
        assert v == pytest.approx(0.0736713532815138, abs=1e-13)  # frozen
        assert abs(v - fd_square_center_value()) <= 1e-5

    def test_gradient_vs_finite_differences(self):
        pts = np.array([[0.3, 0.7], [0.6, 0.25], [0.1, 0.1]])
        _, grad = series_solution(pts, 50)
        step = 1e-6
        for k, pt in enumerate(pts):
            for ax in range(2):
                e = np.zeros(2)
                e[ax] = step
                vp, _ = series_solution(pt + e, 50)
                vm, _ = series_solution(pt - e, 50)
                assert grad[k, ax] == pytest.approx((vp - vm) / (2 * step), abs=1e-7)

    def test_boundary_values_small(self):
        # truncated series vanishes on the boundary up to the tail
        pts = np.array([[0.25, 0.0], [1.0, 0.7], [0.33, 1.0]])
        v, _ = series_solution(pts, 50)
        assert np.max(np.abs(v)) < 1e-6

    def test_symmetry(self):
        v1, _ = series_solution(np.array([0.3, 0.8]), 50)
        v2, _ = series_solution(np.array([0.8, 0.3]), 50)
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_nterms_validation(self):
        with pytest.raises(ValueError):
            series_solution(np.array([0.5, 0.5]), 0)


class TestDiskSolution:
    def test_values(self):
        v, g = disk_solution(np.array([0.0, 0.0]))
        assert v == pytest.approx(0.25)
        assert np.allclose(g, [0.0, 0.0])
        v, _ = disk_solution(np.array([1.0, 0.0]))
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_laplacian_is_minus_one(self):
        # -Lap u = 1 follows from the gradient being -x/2, -y/2
        pts = np.random.default_rng(2).normal(size=(10, 2))
        _, g = disk_solution(pts)
        assert np.allclose(g, -0.5 * pts, atol=1e-14)


class TestEvalDiscrete:
    def test_zero_coefficients(self):
        sol = fitted_square_solution()
        v, g = eval_discrete(sol, np.array([0.4, 0.6]))
        assert v == 0.0 and np.allclose(g, 0.0)

    def test_polynomial_reproduction(self):
        sol = fitted_square_solution(
            p=2, coeffs_from=lambda x, y: x**2 + 0.5 * x * y - y
        )
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        v, g = eval_discrete(sol, pts)
        assert np.allclose(v, pts[:, 0] ** 2 + 0.5 * pts[:, 0] * pts[:, 1] - pts[:, 1], atol=1e-12)
        assert np.allclose(g[:, 0], 2 * pts[:, 0] + 0.5 * pts[:, 1], atol=1e-11)

    def test_edge_continuity(self):
        sol = fitted_square_solution(
            p=2, coeffs_from=lambda x, y: np.sin(x) + np.cos(y)
        )
        # points exactly on interior gridlines
        h = sol.am.grid.h
        pts = np.array([[h * 4 - 0.25, 0.3], [0.5, h * 6 - 0.25]])
        v, _ = eval_discrete(sol, pts)
        assert np.all(np.isfinite(v))

    def test_outside_rejected(self):
        sol = fitted_square_solution()
        with pytest.raises(EvaluationError):
            eval_discrete(sol, np.array([-0.2, -0.2]))

    def test_one_outside_point_rejects_batch(self):
        sol = fitted_square_solution()
        pts = np.array([[0.4, 0.6], [0.5, 0.5], [-0.2, -0.2], [0.3, 0.3]])
        with pytest.raises(EvaluationError, match="outside"):
            eval_discrete(sol, pts)

    @staticmethod
    def fully_active_unit_grid():
        # All four cells of the 2x2 unit grid are active; u = x.
        grid = BackgroundGrid(origin=(0.0, 0.0), h=0.5, nx=2, ny=2)
        am = ActiveMesh(grid, UNIT_SQUARE, np.full(4, INSIDE), np.arange(4))
        dm = build_dofmap(am, 1)
        c = dm.dof_coords[:, 0].copy()
        return DiscreteSolution(coefficients=c, dofmap=dm, basis=qp_basis(1), am=am)

    @pytest.mark.parametrize(
        "point", [(-5.0, 0.5), (0.5, 7.0), (1.0 + 1e-9, 0.5), (0.5, -1e-9), (2.0, 2.0)]
    )
    def test_beyond_grid_rejected(self, point):
        sol = self.fully_active_unit_grid()
        with pytest.raises(EvaluationError, match="outside"):
            eval_discrete(sol, np.array(point))

    def test_outer_gridlines_and_corners_evaluate(self):
        sol = self.fully_active_unit_grid()
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.3], [1.0, 0.7],
             [0.4, 0.0], [0.6, 1.0], [1.0 + 1e-13, 0.5], [-1e-13, 1.0 + 1e-13]]
        )  # fmt: skip
        v, g = eval_discrete(sol, pts)
        assert np.allclose(v, pts[:, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(g, [1.0, 0.0], rtol=0.0, atol=1e-12)

    def test_cell_choice_matches_pointwise_search(self):
        # Random coefficients make the gradient jump across faces, so the
        # gradient shows which cell evaluated each point.
        sol = fitted_square_solution(p=2, n=12)
        sol.coefficients[:] = np.random.default_rng(3).normal(size=sol.dofmap.n_dofs)
        grid = sol.am.grid
        rng = np.random.default_rng(4)
        lines = grid.origin[0] + grid.h * np.arange(-1, grid.nx + 2)
        pts = np.concatenate(
            (
                rng.uniform(-0.4, 1.4, size=(200, 2)),
                np.column_stack((rng.choice(lines, 200), rng.uniform(-0.4, 1.4, 200))),
                np.column_stack((rng.choice(lines, 200), rng.choice(lines, 200))),
                rng.choice(lines, size=(200, 2)) + rng.choice([-1e-13, 1e-13, 1e-11], (200, 2)),
            )
        )
        cells = [lowest_active_cell(sol.am, sol.dofmap.row_of_cell, x, y) for x, y in pts]
        found = np.array([c is not None for c in cells])
        assert 300 < np.count_nonzero(found) < len(pts)
        _, grads = eval_discrete(sol, pts[found])
        for x, eid, g in zip(pts[found], [c for c in cells if c is not None], grads):
            _, dphi = eval_basis(sol.basis, (x - grid.cell_origin(eid)) / grid.h, grid.h)
            c = sol.coefficients[sol.dofmap.element_dofs[sol.dofmap.row_of_cell[eid]]]
            assert np.allclose(g, c @ dphi, rtol=1e-12, atol=1e-12)
        for x in pts[~found]:
            with pytest.raises(EvaluationError):
                eval_discrete(sol, x)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_qp_reproduction_on_gridlines(self, p):
        # u in Q_p is interpolated exactly; evaluate it where several cells
        # are candidates: on interior gridlines, on grid corners, and on the
        # faces between active and inactive cells.
        exps = [(a, b) for a in range(p + 1) for b in range(p + 1)]

        def u(x, y):
            return sum((a + 1.0) * x**a * (0.5 - y) ** b for a, b in exps)

        def du(x, y):
            dx = sum(a * (a + 1.0) * x ** max(a - 1, 0) * (0.5 - y) ** b for a, b in exps)
            dy = sum(-b * (a + 1.0) * x**a * (0.5 - y) ** max(b - 1, 0) for a, b in exps)
            return np.column_stack((dx, dy))

        sol = fitted_square_solution(p=p, coeffs_from=u)
        am, grid = sol.am, sol.am.grid
        ix, iy = grid.cell_coords(am.active)
        x0 = grid.origin[0] + ix * grid.h
        y0 = grid.origin[1] + iy * grid.h
        t = np.random.default_rng(p).uniform(0.1, 0.9, size=len(x0))
        corners = np.column_stack((x0, y0))
        lines = np.concatenate(
            (np.column_stack((x0, y0 + t * grid.h)), np.column_stack((x0 + t * grid.h, y0)))
        )
        right_inactive = (ix + 1 < grid.nx) & (sol.dofmap.row_of_cell[am.active + 1] < 0)
        faces = np.column_stack((x0 + grid.h, y0 + t * grid.h))[right_inactive]
        assert len(faces)
        for pts in (corners, lines, faces):
            v, g = eval_discrete(sol, pts)
            assert np.max(np.abs(v - u(pts[:, 0], pts[:, 1]))) <= 1e-12
            assert np.max(np.abs(g - du(pts[:, 0], pts[:, 1]))) <= 1e-10


class TestErrorNorms:
    def test_patch_configuration_exact(self):
        # nodal values of a polynomial of degree <= p on a fitted mesh
        u = lambda x, y: x * (1 - x) * y * (1 - y)
        sol = fitted_square_solution(p=2, coeffs_from=u)
        ref = ReferenceSolution.from_callables(
            lambda p: u(p[:, 0], p[:, 1]),
            lambda p: np.column_stack(
                (
                    (1 - 2 * p[:, 0]) * p[:, 1] * (1 - p[:, 1]),
                    p[:, 0] * (1 - p[:, 0]) * (1 - 2 * p[:, 1]),
                )
            ),
        )
        norms = compute_error_norms(sol, ref, params=penalty_parameters(2))
        assert norms.energy <= 1e-10
        assert norms.h1_semi <= 1e-10
        assert norms.l2 <= 1e-10

    def test_zero_against_zero(self):
        sol = fitted_square_solution()
        ref = ReferenceSolution.from_callables(
            lambda p: np.zeros(len(p)), lambda p: np.zeros((len(p), 2))
        )
        norms = compute_error_norms(sol, ref, params=penalty_parameters(2))
        assert norms.energy == 0.0 and norms.l2 == 0.0

    def test_l2_of_constant_one(self):
        sol = fitted_square_solution()
        ref = ReferenceSolution.from_callables(
            lambda p: np.ones(len(p)), lambda p: np.zeros((len(p), 2))
        )
        norms = compute_error_norms(sol, ref, params=penalty_parameters(2))
        assert norms.l2 == pytest.approx(1.0, abs=1e-10)

    def test_energy_dominates_h1(self):
        sol = fitted_square_solution(p=2, coeffs_from=lambda x, y: np.sin(3 * x) * y)
        ref = ReferenceSolution.square_series(50)
        norms = compute_error_norms(sol, ref, params=penalty_parameters(2))
        assert norms.energy >= norms.h1_semi
        assert norms.energy**2 >= norms.h1_semi**2 + norms.stab_part**2 - 1e-15


class TestGalerkinResidual:
    def test_after_solve(self):
        poly = perturb_square_boundary(0.01, 32)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        basis = qp_basis(2)
        system, dm = assemble_system(
            am, basis, penalty_parameters(2), lambda x, y: np.ones_like(x)
        )
        coeffs = solve_spd(system)
        assert galerkin_residual(system, coeffs) <= 1e-10 * np.linalg.norm(system.rhs)


class TestReferenceSolution:
    def test_square_series_minimum_terms(self):
        with pytest.raises(ValueError):
            ReferenceSolution.square_series(10)

    def test_disk_quadratic_kind(self):
        ref = ReferenceSolution.disk_quadratic()
        assert ref.kind == "disk_quadratic"
        assert ref.value(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.25)
