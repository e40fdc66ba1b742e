import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from cutpoisson import (
    BoundaryPolygon,
    Disk,
    assemble_bulk,
    assemble_ghost_penalty,
    assemble_nitsche_boundary,
    assemble_system,
    build_dofmap,
    extract_levelset_boundary,
    ghost_penalty_form,
    penalty_parameters,
    perturb_square_boundary,
    qp_basis,
)
from cutpoisson import quadrature
from cutpoisson.assembly import PenaltyParameters, symmetry_error
from cutpoisson.mesh import (
    CUT,
    ActiveMesh,
    BackgroundGrid,
    classify_elements,
    ghost_faces,
)
from cutpoisson.quadrature import build_boundary_rules, build_volume_rules
from cutpoisson.studies import SQUARE_SIDE, _grid, _square_origin

from oracles import per_cell_bulk_nitsche


def ones(x, y):
    return np.ones_like(x)


def box_mesh(x1=1.0, y1=1.0, nx=1, ny=1):
    """Single fitted block of cells whose union is the boundary polygon."""
    grid = BackgroundGrid(origin=(0.0, 0.0), h=x1 / nx, nx=nx, ny=ny)
    poly = BoundaryPolygon([[0, 0], [x1, 0], [x1, y1], [0, y1]])
    cls = np.full(grid.n_cells, CUT, dtype=np.int8)
    am = ActiveMesh(grid=grid, poly=poly, classification=cls, active=np.arange(grid.n_cells))
    am.ghost_faces_arr = ghost_faces(am)
    return am


class TestPenaltyParameters:
    def test_values(self):
        params = penalty_parameters(2)
        assert params.beta == 100.0
        assert np.allclose(params.gamma, [0.01, 0.005])
        params3 = penalty_parameters(3)
        assert params3.beta == 225.0
        assert params3.gamma[2] == pytest.approx(0.01 / 12.0, rel=1e-15)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            penalty_parameters(4)


class TestDofMap:
    def test_continuity_and_density(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        for p in (1, 2, 3):
            dm = build_dofmap(am, p)
            assert dm.element_dofs.min() == 0
            assert dm.element_dofs.max() == dm.n_dofs - 1
            # neighbors share the edge dofs
            e0 = am.active[0]
            right = e0 + 1
            if dm.row_of_cell[right] >= 0:
                d0 = dm.element_dofs[dm.row_of_cell[e0]].reshape(p + 1, p + 1)
                d1 = dm.element_dofs[dm.row_of_cell[right]].reshape(p + 1, p + 1)
                assert np.array_equal(d0[:, -1], d1[:, 0])


class TestBulk:
    def test_row_sums_vanish(self):
        am = box_mesh(nx=3, ny=3)
        basis = qp_basis(2)
        dm = build_dofmap(am, 2)
        rules = build_volume_rules(am, 4)
        bulk = assemble_bulk(am, basis, ones, rules, dm)
        row_sums = np.asarray(bulk.matrix.sum(axis=1)).reshape(-1)
        assert np.max(np.abs(row_sums)) < 1e-11

    def test_load_sum_is_area(self):
        poly = perturb_square_boundary(0.02, 32)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        rules = build_volume_rules(am, 2)
        bulk = assemble_bulk(am, basis, ones, rules, dm)
        assert np.sum(bulk.rhs) == pytest.approx(poly.signed_area, rel=1e-10)

    @pytest.mark.parametrize("h", [1.0, 0.37, 0.125])
    def test_single_element_diagonal(self, h):
        # corner shape (1-x)(1-y): integral of |grad|^2 over the element is 2/3
        am = box_mesh(x1=h, y1=h, nx=1, ny=1)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        rules = build_volume_rules(am, 2)
        bulk = assemble_bulk(am, basis, ones, rules, dm)
        diag = bulk.matrix.diagonal()
        assert diag[0] == pytest.approx(2.0 / 3.0, rel=1e-13)


class TestNitsche:
    def test_empty_rules_zero(self):
        am = box_mesh(nx=2, ny=2)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        nit = assemble_nitsche_boundary(am, basis, penalty_parameters(1), {}, dm)
        assert nit.matrix.nnz == 0

    def test_symmetric(self):
        poly = perturb_square_boundary(0.02, 32)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        basis = qp_basis(2)
        dm = build_dofmap(am, 2)
        rules = build_boundary_rules(am, 4)
        nit = assemble_nitsche_boundary(am, basis, penalty_parameters(2), rules, dm)
        assert symmetry_error(nit.matrix) < 1e-12

    def test_corner_penalty_diagonal(self):
        # fitted 1x1 element, p=1, beta=25: the beta-difference isolates the
        # penalty part; corner dof touches two unit edges with integral 1/3
        am = box_mesh(nx=1, ny=1)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        rules = build_boundary_rules(am, 2)
        n1 = assemble_nitsche_boundary(
            am, basis, PenaltyParameters(beta=25.0, gamma=np.array([0.01])), rules, dm
        )
        n2 = assemble_nitsche_boundary(
            am, basis, PenaltyParameters(beta=50.0, gamma=np.array([0.01])), rules, dm
        )
        penalty = (n2.matrix - n1.matrix).diagonal()  # equals 25/h * mass diag
        assert penalty[0] == pytest.approx(25.0 * 2.0 / 3.0, rel=1e-12)


class TestPointOperators:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_match_per_cell_oracle(self, p, monkeypatch):
        # The delta study's square on its 24 x 24 grid, delta = h^(p+1/2),
        # with batches small enough that the points span several of them.
        monkeypatch.setattr(quadrature, "POINT_BATCH", 1000)
        grid = _grid(_square_origin(None), SQUARE_SIDE, None, 1)
        poly = perturb_square_boundary(grid.h ** (p + 0.5), 16 * math.ceil(1.0 / grid.h))
        am = classify_elements(grid, poly)
        basis, params, dm = qp_basis(p), penalty_parameters(p), build_dofmap(am, p)
        vrules = build_volume_rules(am, 2 * p)
        brules = build_boundary_rules(am, 2 * p)

        def f(x, y):
            return 1.0 + x * y

        bulk = assemble_bulk(am, basis, f, vrules, dm)
        nit = assemble_nitsche_boundary(am, basis, params, brules, dm)
        k_ref, rhs_ref, nit_ref = per_cell_bulk_nitsche(am, basis, params, f, vrules, brules, dm)
        assert abs(bulk.matrix - k_ref).max() <= 1e-13 * abs(k_ref).max()
        assert np.max(np.abs(bulk.rhs - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs_ref))
        assert abs(nit.matrix - nit_ref).max() <= 1e-13 * abs(nit_ref).max()


class TestGhostPenalty:
    def test_hand_value(self):
        am = box_mesh(x1=2.0, y1=1.0, nx=2, ny=1)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        vals = {0.0: 0.0, 1.0: 1.0, 2.0: 0.0}
        c = np.array([vals[x] for x in dm.dof_coords[:, 0]])
        s = ghost_penalty_form(am, basis, penalty_parameters(1), dm, c)
        assert s == pytest.approx(0.04, rel=1e-13)
        ghost = assemble_ghost_penalty(am, basis, penalty_parameters(1), dm)
        assert c @ (ghost.matrix @ c) == pytest.approx(0.04, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_polynomial_kernel(self, p):
        poly = perturb_square_boundary(0.0, 16)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        basis = qp_basis(p)
        dm = build_dofmap(am, p)
        params = penalty_parameters(p)
        for a in range(p + 1):
            for b in range(p + 1 - a):
                c = dm.dof_coords[:, 0] ** a * dm.dof_coords[:, 1] ** b
                assert abs(ghost_penalty_form(am, basis, params, dm, c)) <= 1e-18

    def test_positive_semidefinite(self):
        am = box_mesh(nx=3, ny=3)
        basis = qp_basis(2)
        dm = build_dofmap(am, 2)
        ghost = assemble_ghost_penalty(am, basis, penalty_parameters(2), dm)
        assert symmetry_error(ghost.matrix) < 1e-12
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=dm.n_dofs)
            assert v @ (ghost.matrix @ v) >= -1e-14


class TestAssembleSystem:
    def cut_disk_system(self, n=8, p=1):
        grid = BackgroundGrid(origin=(-1.25, -1.25), h=2.5 / n, nx=n, ny=n)
        disk = Disk((0.0, 0.0), 1.0)
        poly = extract_levelset_boundary(disk, grid) if n >= 12 else None
        if poly is None:
            theta = 2 * np.pi * np.arange(256) / 256
            poly = BoundaryPolygon(np.column_stack((np.cos(theta), np.sin(theta))))
        am = classify_elements(grid, poly)
        basis = qp_basis(p)
        return assemble_system(am, basis, penalty_parameters(p), ones)

    def test_symmetry_and_spd(self):
        system, dm = self.cut_disk_system(8, 1)
        assert symmetry_error(system.matrix) <= 1e-12
        dense = system.matrix.toarray()
        scipy.linalg.cholesky(dense)  # raises LinAlgError if not SPD

    def test_dof_count(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        for p in (1, 2):
            _, dm = assemble_system(am, qp_basis(p), penalty_parameters(p), ones)
            # distinct global nodes of the active elements
            nodes = set()
            for eid in am.active:
                ex, ey = int(eid) % 12, int(eid) // 12
                for iy in range(p + 1):
                    for ix in range(p + 1):
                        nodes.add((p * ex + ix, p * ey + iy))
            assert dm.n_dofs == len(nodes)

    def test_sliver_conditioning_explodes_without_ghost(self):
        # diamond whose vertex pokes a cell corner: intersection area 1e-8 h^2
        n = 8
        h = 1.0 / n
        d = 1e-4 * h
        c, r = 0.4375, 0.1875 + d
        grid = BackgroundGrid(origin=(0.0, 0.0), h=h, nx=n, ny=n)
        poly = BoundaryPolygon([[c + r, c], [c, c + r], [c - r, c], [c, c - r]])
        am = classify_elements(grid, poly)
        basis = qp_basis(1)
        dm = build_dofmap(am, 1)
        vrules = build_volume_rules(am, 2)
        brules = build_boundary_rules(am, 2)
        bulk = assemble_bulk(am, basis, ones, vrules, dm)
        nit = assemble_nitsche_boundary(am, basis, penalty_parameters(1), brules, dm)
        ghost = assemble_ghost_penalty(am, basis, penalty_parameters(1), dm)
        stabilized = (bulk.matrix + nit.matrix + ghost.matrix).toarray()
        unstabilized = (bulk.matrix + nit.matrix).toarray()

        def cond(a):
            ev = np.abs(scipy.linalg.eigvalsh(a))
            return ev.max() / ev.min()

        ev_stab = scipy.linalg.eigvalsh(stabilized)
        assert ev_stab[0] > 0  # stabilized system stays positive definite
        assert cond(unstabilized) >= 1e3 * cond(stabilized)

    def test_condition_number_h_squared_scaling(self):
        # kappa grows ~4x per halving once the Poincare mode governs lam_min
        conds = []
        disk = Disk((0.0, 0.0), 1.0)
        for n in (96, 192, 384):
            grid = BackgroundGrid(origin=(-1.25, -1.25), h=2.5 / n, nx=n, ny=n)
            poly = extract_levelset_boundary(disk, grid)
            am = classify_elements(grid, poly)
            system, _ = assemble_system(am, qp_basis(1), penalty_parameters(1), ones)
            lam_min = spla.eigsh(
                system.matrix, k=1, sigma=0, which="LM", return_eigenvectors=False
            )[0]
            lam_max = spla.eigsh(
                system.matrix, k=1, which="LA", return_eigenvectors=False
            )[0]
            assert lam_min > 0
            conds.append(lam_max / lam_min)
        for c0, c1 in zip(conds, conds[1:]):
            assert 4.0 * 0.7 <= c1 / c0 <= 4.0 * 1.3
