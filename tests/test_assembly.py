import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import example, given
from hypothesis import strategies as st

from cutpoisson import (
    BoundaryPolygon,
    Disk,
    MeshError,
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
from cutpoisson.assembly import PenaltyParameters
from cutpoisson.mesh import (
    CUT,
    INSIDE,
    ActiveMesh,
    BackgroundGrid,
    CutGeometry,
    classify_elements,
)
from cutpoisson.quadrature import (
    CutVolumeRule,
    VolumeRuleSet,
    build_boundary_rules,
    build_volume_rules,
)
from cutpoisson.studies import CIRCLE_ORIGIN, CIRCLE_SIDE, SQUARE_SIDE, _grid, _square_origin

from oracles import (
    PROPERTY,
    cell_box,
    cut_volume_rule,
    meshes,
    near_gridline_star_meshes,
    nested_dissection_loop,
    no_inside_cell_mesh,
    per_cell_bulk_nitsche,
    per_face_ghost_penalty,
    point_basis,
    symmetry_error,
)


def ones(x, y):
    return np.ones_like(x)


def box_mesh(x1=1.0, y1=1.0, nx=1, ny=1):
    """Single fitted block of cells whose union is the boundary polygon."""
    grid = BackgroundGrid(origin=(0.0, 0.0), h=x1 / nx, nx=nx, ny=ny)
    poly = BoundaryPolygon([[0, 0], [x1, 0], [x1, y1], [0, y1]])
    cls = np.full(grid.n_cells, CUT, dtype=np.int8)
    return ActiveMesh(grid=grid, poly=poly, classification=cls, active=np.arange(grid.n_cells))


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
            assert dm.cell_dofs.shape == (grid.n_cells, (p + 1) ** 2)
            inactive = np.setdiff1d(np.arange(grid.n_cells), am.active)
            assert len(inactive) and np.all(dm.cell_dofs[inactive] == -1)
            # the active rows cover [0, n_dofs)
            assert np.array_equal(np.unique(dm.cell_dofs[am.active]), np.arange(dm.n_dofs))
            # neighbors share the edge dofs
            e0 = am.active[0]
            right = e0 + 1
            if dm.cell_dofs[right, 0] >= 0:
                d0 = dm.cell_dofs[e0].reshape(p + 1, p + 1)
                d1 = dm.cell_dofs[right].reshape(p + 1, p + 1)
                assert np.array_equal(d0[:, -1], d1[:, 0])

    def test_point_in_inactive_cell_raises(self):
        poly = perturb_square_boundary(0.0, 16)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        dm = build_dofmap(am, 1)
        cells = np.array([am.active[0], 0])  # cell 0 is outside the square
        points = grid.cell_origin(cells) + 0.5 * grid.h
        with pytest.raises(MeshError, match="cell 0 is not active"):
            point_basis(qp_basis(1), dm, grid, points, cells)


# A circle on a rectangular grid: the tree has more x levels than y levels.
_ANGLES = np.arange(96) * np.pi / 48
RECTANGLE = classify_elements(
    BackgroundGrid(origin=(-1.0, -0.7), h=0.1, nx=20, ny=14),
    BoundaryPolygon(0.6 * np.column_stack((np.cos(_ANGLES), np.sin(_ANGLES)))),
)


@PROPERTY
@given(meshes, st.sampled_from([1, 2, 3]))
@example(RECTANGLE, 2)
def test_dofs_are_numbered_in_dissection_order(am, p):
    # Every entry of A joins two dofs whose boxes are ancestor-related, so
    # eliminating in this order fills no entry between sibling subtrees.
    system, dm = assemble_system(am, qp_basis(p), penalty_parameters(p), ones)
    nodes, boxes = nested_dissection_loop(am, p)
    spacing = am.grid.h / p
    lattice = np.rint((dm.dof_coords - am.grid.origin) / spacing).astype(int)
    assert np.array_equal(lattice, nodes)
    ex, ey = am.grid.cell_coords(am.active)
    ix, iy = np.arange((p + 1) ** 2) % (p + 1), np.arange((p + 1) ** 2) // (p + 1)
    cell_nodes = np.stack((p * ex[:, None] + ix, p * ey[:, None] + iy), axis=-1)
    assert np.array_equal(lattice[dm.cell_dofs[am.active]], cell_nodes)

    box_ids = {box: k for k, box in enumerate(dict.fromkeys(boxes))}
    dof_box = np.array([box_ids[box] for box in boxes])
    a = system.matrix.tocoo()
    pairs = np.unique(np.column_stack((dof_box[a.row], dof_box[a.col])), axis=0)
    by_id = list(box_ids)
    for i, j in pairs:
        short, long = sorted((by_id[i], by_id[j]), key=len)
        assert long[: len(short)] == short, (short, long)


def test_clean_boxes_hold_no_cut_cell_or_ghost_face_element():
    # The level-set disk at level 2, p = 2: each box is 6 x 6 inside cells,
    # and the cells next to the cut band are elements of ghost faces.
    grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 2)
    am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
    dm = build_dofmap(am, 2)
    boxes = dm.clean_groups[0]
    assert len(boxes) and boxes.shape[1:] == (13, 13)
    assert boxes.dtype == np.int32
    coords = dm.dof_coords[boxes]
    lo, hi = coords.min(axis=(1, 2)), coords.max(axis=(1, 2))
    assert np.allclose(hi - lo, 6 * grid.h)
    # Each box is its node lattice at spacing h / p, indexed [iy, ix].
    k = np.arange(13) * grid.h / 2
    assert np.allclose(coords - lo[:, None, None], np.stack(np.meshgrid(k, k), axis=-1))
    # The lattice's interior holds none of the box's perimeter nodes.
    inner = coords[:, 1:-1, 1:-1].reshape(len(coords), -1, 2)
    assert np.all((inner > lo[:, None]) & (inner < hi[:, None]))
    excluded = np.union1d(am.cut_ids, am.ghost_faces_arr[:, :2])
    centers = grid.cell_origin(excluded) + grid.h / 2
    held = (centers > lo[:, None]) & (centers < hi[:, None])
    assert not np.any(held.all(axis=2))


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_load_sum_is_area_without_inside_cells(self, p):
        # The basis sums to 1.
        am = no_inside_cell_mesh()
        assert len(am.inside_ids) == 0
        dm = build_dofmap(am, p)
        bulk = assemble_bulk(am, qp_basis(p), ones, build_volume_rules(am, 2 * p), dm)
        assert np.sum(bulk.rhs) == pytest.approx(am.poly.signed_area, rel=1e-13)

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
        assert nit.nnz == 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_symmetric(self, p):
        # Mirrored blocks, and at most two of them on an off-diagonal entry.
        poly = perturb_square_boundary(0.02, 32)
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, poly)
        basis = qp_basis(p)
        dm = build_dofmap(am, p)
        rules = build_boundary_rules(am, 2 * p)
        nit = assemble_nitsche_boundary(am, basis, penalty_parameters(p), rules, dm)
        assert symmetry_error(nit) == 0.0

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
        penalty = (n2 - n1).diagonal()  # equals 25/h * mass diag
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
        assert abs(nit - nit_ref).max() <= 1e-13 * abs(nit_ref).max()


def product(x, y):
    return 1.0 + x * y


@PROPERTY
@given(meshes, st.sampled_from([1, 2, 3]))
def test_moments_match_per_cell_oracle(am, p):
    # Batches of 97 points, so most cut cells' points span two of them.
    basis, params, dm = qp_basis(p), penalty_parameters(p), build_dofmap(am, p)
    vrules = build_volume_rules(am, 2 * p)
    brules = build_boundary_rules(am, 2 * p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "POINT_BATCH", 97)
        bulk = assemble_bulk(am, basis, product, vrules, dm)
        nit = assemble_nitsche_boundary(am, basis, params, brules, dm)
    k_ref, rhs_ref, nit_ref = per_cell_bulk_nitsche(am, basis, params, product, vrules, brules, dm)
    assert abs(bulk.matrix - k_ref).max() <= 1e-13 * abs(k_ref).max()
    assert np.max(np.abs(bulk.rhs - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs_ref))
    assert abs(nit - nit_ref).max() <= 1e-13 * abs(nit_ref).max()
    assert symmetry_error(bulk.matrix) == 0.0
    assert symmetry_error(nit) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cut_cell_bulk_is_exact_on_the_levelset_disk(p):
    # The order-2p fitted rules are exact on the stiffness and the load, so
    # they match strip rules of order 2p + 6, which are exact there too.
    grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 1)
    am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
    basis, params, dm = qp_basis(p), penalty_parameters(p), build_dofmap(am, p)
    vrules = build_volume_rules(am, 2 * p)
    strips = {e: cut_volume_rule(cell_box(grid, e), am.poly, 2 * p + 6) for e in vrules.cut}
    exact = VolumeRuleSet(vrules.inside_ref_points, vrules.inside_ref_weights, strips)
    brules = build_boundary_rules(am, 2 * p)
    bulk = assemble_bulk(am, basis, product, vrules, dm)
    k_ref, rhs_ref, _ = per_cell_bulk_nitsche(am, basis, params, product, exact, brules, dm)
    assert abs(bulk.matrix - k_ref).max() <= 1e-13 * abs(k_ref).max()
    assert np.max(np.abs(bulk.rhs - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs_ref))


def test_whole_cell_as_cut_rule_gives_inside_matrix():
    # p = 3: the moments of the order-6 tensor rule times the tables give the
    # inside cells' Gram matrix, as a badly conditioned basis would not.
    p, h = 3, 0.37
    grid = BackgroundGrid(origin=(0.3, -0.2), h=h, nx=1, ny=1)
    poly = BoundaryPolygon([[0.3, -0.2], [0.3 + h, -0.2], [0.3 + h, h - 0.2], [0.3, h - 0.2]])
    basis = qp_basis(p)
    ref = build_volume_rules(box_mesh(), 2 * p)
    whole = CutVolumeRule(grid.origin + h * ref.inside_ref_points, h * h * ref.inside_ref_weights)
    systems = []
    for kind, cut in ((INSIDE, {}), (CUT, {0: whole})):
        am = ActiveMesh(grid, poly, np.array([kind], dtype=np.int8), np.arange(1))
        dm = build_dofmap(am, p)
        rules = VolumeRuleSet(ref.inside_ref_points, ref.inside_ref_weights, cut)
        systems.append(assemble_bulk(am, basis, product, rules, dm))
    inside, cut = systems
    assert abs(cut.matrix - inside.matrix).max() <= 1e-14 * abs(inside.matrix).max()
    assert np.max(np.abs(cut.rhs - inside.rhs)) <= 1e-14 * np.max(np.abs(inside.rhs))


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
        assert c @ (ghost @ c) == pytest.approx(0.04, rel=1e-12)

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
        assert symmetry_error(ghost) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=dm.n_dofs)
            assert v @ (ghost @ v) >= -1e-14

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_match_per_face_oracle(self, p):
        # The delta study's square on its 24 x 24 grid, delta = h^(p+1/2).
        grid = _grid(_square_origin(None), SQUARE_SIDE, None, 1)
        poly = perturb_square_boundary(grid.h ** (p + 0.5), 16 * math.ceil(1.0 / grid.h))
        am = classify_elements(grid, poly)
        basis, params, dm = qp_basis(p), penalty_parameters(p), build_dofmap(am, p)
        ghost = assemble_ghost_penalty(am, basis, params, dm)
        ref = per_face_ghost_penalty(am, basis, params, dm)
        assert abs(ghost - ref).max() <= 1e-14 * abs(ref).max()
        c = np.random.default_rng(11).normal(size=dm.n_dofs)
        quad = c @ (ghost @ c)
        assert abs(ghost_penalty_form(am, basis, params, dm, c) - quad) <= 1e-12 * quad

    def test_directly_built_mesh_assembles(self):
        # A mesh built without classify_elements, and so without its split,
        # finds its ghost faces on first use, splits for its cut geometry,
        # and assembles the same penalty as a classified one.
        grid = BackgroundGrid(origin=(-0.25, -0.25), h=0.125, nx=12, ny=12)
        am = classify_elements(grid, perturb_square_boundary(0.0, 16))
        direct = ActiveMesh(grid, am.poly, am.classification, am.active)
        assert direct.split is None and am.split is not None
        for f in fields(CutGeometry):
            got, want = getattr(direct.cut_geometry, f.name), getattr(am.cut_geometry, f.name)
            assert np.array_equal(got, want)
        basis, params = qp_basis(2), penalty_parameters(2)
        dm = build_dofmap(direct, 2)
        got = assemble_ghost_penalty(direct, basis, params, dm)
        want = assemble_ghost_penalty(am, basis, params, build_dofmap(am, 2))
        assert len(direct.ghost_faces_arr) > 0
        assert abs(got - want).max() == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
@PROPERTY
@given(am=meshes | near_gridline_star_meshes())
def test_every_term_is_exactly_symmetric(p, am):
    # Every term sums mirrored blocks, at most two on an off-diagonal entry,
    # or is a Gram product, so a_ij and a_ji are the same sum.
    basis, params, dm = qp_basis(p), penalty_parameters(p), build_dofmap(am, p)
    bulk = assemble_bulk(am, basis, ones, build_volume_rules(am, 2 * p), dm)
    nitsche = assemble_nitsche_boundary(am, basis, params, build_boundary_rules(am, 2 * p), dm)
    ghost = assemble_ghost_penalty(am, basis, params, dm)
    system, _ = assemble_system(am, basis, params, ones)
    for matrix in (bulk.matrix, nitsche, ghost, system.matrix):
        assert symmetry_error(matrix) == 0.0


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_exactly_symmetric(self, p):
        grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 1)
        am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
        system, _ = assemble_system(am, qp_basis(p), penalty_parameters(p), ones)
        assert symmetry_error(system.matrix) == 0.0

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
        stabilized = (bulk.matrix + nit + ghost).toarray()
        unstabilized = (bulk.matrix + nit).toarray()

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
