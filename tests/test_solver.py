import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cutpoisson import (
    BoundaryPolygon,
    DiscreteSolution,
    Disk,
    EvaluationError,
    ReferenceSolution,
    SolverError,
    assemble_system,
    build_dofmap,
    compute_error_norms,
    disk_solution,
    eval_basis,
    eval_discrete,
    extract_levelset_boundary,
    galerkin_residual,
    penalty_parameters,
    perturb_square_boundary,
    qp_basis,
    series_on_lattice,
    series_solution,
    solve_spd,
)
from cutpoisson import quadrature, solver
from cutpoisson.assembly import SparseSystem
from cutpoisson.errors import MeshError
from cutpoisson.mesh import INSIDE, ActiveMesh, BackgroundGrid, classify_elements
from cutpoisson.quadrature import build_boundary_rules, build_volume_rules, rule_batches
from cutpoisson.studies import CIRCLE_ORIGIN, CIRCLE_SIDE, SQUARE_SIDE, _grid, _square_origin

from oracles import (
    PROPERTY,
    _sn_pair,
    fd_square_center_value,
    lowest_active_cell,
    meshes,
    no_inside_cell_mesh,
    point_basis,
    reference_from_callables,
    series_solution_direct,
    symmetry_error,
)


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

    def test_zero_diagonal_pivot_rejected(self):
        # Nonsingular, but only a row swap can factor it.
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SolverError, match="off-diagonal pivot"):
            solve_spd(SparseSystem(matrix=a, rhs=np.array([1.0, 2.0])))


class _OffFactor:
    """A factor whose first solve is off by the factor 1 + first and every
    later one by 1 + later, so refinement scales the residual by -later."""

    def __init__(self, lu, first, later):
        self.lu, self.perm_r, self.perm_c = lu, lu.perm_r, lu.perm_c
        self.first, self.later = first, later
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        return self.lu.solve(rhs) * (1.0 + (self.first if self.calls == 1 else self.later))


def off_factor_solve(first, later):
    """solve_spd of a well-conditioned SPD system through an _OffFactor.
    Returns x (or the SolverError), the extended-precision relative residual
    of x, and the number of solves."""
    rng = np.random.default_rng(3)
    m = rng.normal(size=(50, 50))
    a = sp.csr_matrix(m @ m.T + 50 * np.eye(50))
    b = rng.normal(size=50)
    factors = []
    real_splu = spla.splu

    def splu(matrix, **options):
        factors.append(_OffFactor(real_splu(matrix, **options), first, later))
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver.spla, "splu", splu)
        try:
            x = solve_spd(SparseSystem(matrix=a, rhs=b))
        except SolverError as exc:
            return exc, None, factors[0].calls
    r = b.astype(np.longdouble) - a.astype(np.longdouble) @ x.astype(np.longdouble)
    b_ext = b.astype(np.longdouble)
    return x, float(np.sqrt(np.sum(r * r) / np.sum(b_ext * b_ext))), factors[0].calls


# ``first`` is the relative residual after the first solve, and each correction
# multiplies the residual by -``later``. With (6.5e-13, 1.1) four corrections
# stay within the contract and a fifth leaves it (1.05e-12); with (9e-13, 1.2)
# the first correction leaves it, and the uncorrected x must be returned.
@PROPERTY
@given(st.floats(2e-13, 2e-12), st.floats(-1.3, 1.3))
@example(6.5e-13, 1.1)
@example(6.5e-13, -1.1)
@example(9e-13, 1.2)
def test_refined_solution_meets_the_contract_or_raises(first, later):
    x, residual, _ = off_factor_solve(first, later)
    assert isinstance(x, SolverError) or residual <= 1e-12


@pytest.mark.parametrize(
    "first, later, solves, residual",
    [
        (1.5e-12, 0.6, 2, 0.9e-12),  # no halving: stop after one correction
        (2e-12, 0.3, 4, 5.4e-14),  # halving each time: stop below 1e-13
        (2e-12, -0.45, 5, 8.2e-14),  # alternating signs: four corrections
    ],
)
def test_refinement_stops_when_a_correction_does_not_halve(first, later, solves, residual):
    _, measured, calls = off_factor_solve(first, later)
    assert calls == solves
    assert measured == pytest.approx(residual, rel=0.02)


def test_refinement_that_stalls_above_the_contract_raises():
    x, _, calls = off_factor_solve(3e-12, 0.9)
    assert isinstance(x, SolverError) and calls == 2


def test_refinement_stops_at_the_rounding_floor():
    # The delta study's p = 2 square at level 3. Its first solve leaves a
    # residual above 1e-13; one correction brings it below f/2, where the
    # rounding floor f = eps/2 || |A| |x| || / ||b|| is about 6e-13 and no
    # later correction helps, so the loop stops after two solves, still
    # above 0.1 of the contract.
    grid = _grid(_square_origin(None), SQUARE_SIDE, None, 3)
    am = classify_elements(grid, perturb_square_boundary(grid.h**2.5, 16 * math.ceil(1.0 / grid.h)))
    system = unit_load_system(am, 2)
    factors = []
    real_splu = spla.splu

    def splu(matrix, **options):
        factors.append(_OffFactor(real_splu(matrix, **options), 0.0, 0.0))  # counts solves only
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver.spla, "splu", splu)
        x = solve_spd(system)
    a, b = system.matrix.astype(np.longdouble), system.rhs.astype(np.longdouble)
    r = b - a @ x.astype(np.longdouble)
    residual = float(np.sqrt(np.sum(r * r) / np.sum(b * b)))
    assert factors[0].calls == 2
    assert 1e-13 < residual <= 1e-12


def delta_study_mesh(p: int, n: int, offset: float):
    """The delta study's square with delta = h^(p + 1.5) on an n x n grid whose
    origin is -0.25 - offset*h: offset 0 puts the square's edges on gridlines."""
    h = SQUARE_SIDE / n
    grid = BackgroundGrid(origin=(-0.25 - offset * h,) * 2, h=h, nx=n, ny=n)
    return classify_elements(grid, perturb_square_boundary(h ** (p + 1.5), 16 * math.ceil(1.0 / h)))


# The unshifted cases have 3, 17 and 2 negative eigenvalues.
@PROPERTY
@given(meshes, st.sampled_from([1, 2]))
@example(delta_study_mesh(1, 12, 0.0), 1)
@example(delta_study_mesh(1, 24, 0.0), 1)
@example(delta_study_mesh(2, 24, 1e-3), 2)
def test_factor_pivots_count_negative_eigenvalues(am, p):
    # The diagonal-pivot factor is P A P^T = L D L^T up to the scaling of L
    # into U, so by Sylvester's law of inertia its nonpositive pivots count
    # the negative eigenvalues.
    system, dofmap = assemble_system(am, qp_basis(p), penalty_parameters(p), lambda x, y: np.ones_like(x))
    assume(dofmap.n_dofs <= 1500)
    dense = system.matrix.toarray()
    negative = int(np.sum(scipy.linalg.eigvalsh(dense) < 0.0))
    lu = spla.splu(system.matrix.tocsc(), **solver.FACTOR_OPTIONS)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int(np.sum(lu.U.diagonal() <= 0.0)) == negative
    if negative == 0:
        expected = np.linalg.solve(dense, system.rhs)
        x = solve_spd(system)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_factor_fill_is_no_larger_than_minimum_degree():
    # The level-set disk at level 3, p = 2 (19,481 dofs). The factor keeps
    # build_dofmap's nested-dissection numbering; minimum degree orders the
    # same matrix numbered row by row over the lattice.
    grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 3)
    am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
    system, dm = assemble_system(am, qp_basis(2), penalty_parameters(2), lambda x, y: np.ones_like(x))
    assert dm.n_dofs == 19481
    a = system.matrix.tocsc()
    row_major = np.lexsort((dm.dof_coords[:, 0], dm.dof_coords[:, 1]))
    minimum_degree = dict(solver.FACTOR_OPTIONS, permc_spec="MMD_AT_PLUS_A")
    fill = spla.splu(a, **solver.FACTOR_OPTIONS).nnz
    assert fill <= spla.splu(a[row_major][:, row_major], **minimum_degree).nnz


def unit_load_system(am, p):
    return assemble_system(am, qp_basis(p), penalty_parameters(p), lambda x, y: np.ones_like(x))[0]


def square_mesh(n):
    """The unit square on an n x n grid over [-0.25, 1.25]^2: with n = 24 it
    holds 4 clean boxes, with n = 18 none (18 cells bisect into no 6)."""
    grid = BackgroundGrid(origin=(-0.25, -0.25), h=1.5 / n, nx=n, ny=n)
    return classify_elements(grid, perturb_square_boundary(0.0, 32))


@PROPERTY
@given(meshes, st.sampled_from([1, 2, 3]))
@example(square_mesh(24), 3)
@example(square_mesh(18), 2)
def test_condensed_solve_matches_full_factor(am, p):
    system = unit_load_system(am, p)
    expected = spla.splu(system.matrix.tocsc(), **solver.FACTOR_OPTIONS).solve(system.rhs)
    x = solve_spd(system)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    assert symmetry_error(solver.condense(system.matrix, system.clean_groups)[0]) == 0.0


# square_mesh(96) bisects into boxes of 6, 12, 24 and 48 cells; the square
# holds 100 clean boxes, 16 clean groups of 12 cells and 4 of 24. square_mesh(18)
# holds none, and lists no level.
@pytest.mark.parametrize("n, counts", [(48, [16, 4]), (96, [100, 16, 4]), (18, [])])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_nested_condensation_matches_full_factor(n, counts, p):
    system = unit_load_system(square_mesh(n), p)
    assert [len(groups) for groups in system.clean_groups] == counts
    expected = spla.splu(system.matrix.tocsc(), **solver.FACTOR_OPTIONS).solve(system.rhs)
    x = solve_spd(system)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    assert symmetry_error(solver.condense(system.matrix, system.clean_groups)[0]) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_clean_boxes_share_their_blocks(p):
    # The level-set disk at level 2 has 16 clean boxes among cut cells, and
    # 4 clean groups of 12 cells. The rows of a box's interior, and of a
    # group's cross (its interior less its four boxes' interiors), are the
    # same on the box's or group's lattice in every box or group.
    grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 2)
    am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
    system = unit_load_system(am, p)
    boxes, groups, a = *system.clean_groups, system.matrix
    assert boxes.shape == (16, 6 * p + 1, 6 * p + 1) and groups.shape == (4, 12 * p + 1, 12 * p + 1)
    cross = np.zeros((12 * p + 1,) * 2, dtype=bool)
    cross[6 * p, 1:-1] = cross[1:-1, 6 * p] = True
    for lattices, rows in ((boxes, boxes[:, 1:-1, 1:-1]), (groups, groups[:, cross])):
        rows = rows.reshape(len(lattices), -1)
        blocks = np.array([a[i][:, nodes.ravel()].toarray() for i, nodes in zip(rows, lattices)])
        assert np.abs(blocks - blocks[0]).max() <= 1e-14 * np.abs(blocks).max()


def test_condensed_factor_fill_on_the_disk():
    # The level-set disk at level 3, p = 2 (19,481 dofs): 96 clean boxes, 16
    # groups of 12 cells and 4 of 24. Condensing every level leaves 6,773
    # dofs, whose factor has 855,552 entries (1,128,576 with the boxes alone).
    grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 3)
    am = classify_elements(grid, extract_levelset_boundary(Disk((0.0, 0.0), 1.0), grid))
    system = unit_load_system(am, 2)
    assert [len(groups) for groups in system.clean_groups] == [96, 16, 4]
    factors, real_splu = [], spla.splu

    def splu(matrix, **options):
        factors.append(real_splu(matrix, **options))
        return factors[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver.spla, "splu", splu)
        solve_spd(system)
    assert factors[0].shape == (6773, 6773) and factors[0].nnz == 855552


def test_factor_reads_the_matrix_without_a_copy():
    factored, condensed = [], []
    real_splu, real_condense = spla.splu, solver.condense

    def splu(matrix, **options):
        factored.append(matrix)
        return real_splu(matrix, **options)

    def condense(*args):
        result = real_condense(*args)
        condensed.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver.spla, "splu", splu)
        patch.setattr(solver, "condense", condense)
        for n in (18, 24):  # without and with clean boxes
            solve_spd(unit_load_system(square_mesh(n), 2))
            assert np.shares_memory(factored[-1].data, condensed[-1].data)
    assert len(factored) == 2 and len(condensed) == 2


# Level 0 of the square and disk studies has no clean box.
@pytest.mark.parametrize("geometry", ["square", "levelset"])
def test_condense_without_groups_returns_the_matrix(geometry):
    if geometry == "square":
        grid = _grid(_square_origin(None), SQUARE_SIDE, None, 0)
        poly = perturb_square_boundary(grid.h**2.5, 16 * math.ceil(1.0 / grid.h))
    else:
        grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, None, 0)
        poly = extract_levelset_boundary(Disk(), grid)
    system = unit_load_system(classify_elements(grid, poly), 2)
    assert system.clean_groups == ()
    a = system.matrix.tocsr()
    s, rows, levels = solver.condense(a, ())
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(s, name), getattr(a, name))
    assert np.array_equal(rows, np.arange(a.shape[0])) and levels == []


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


# Derandomized so that tier-1 runs the same examples every time. The points
# reach 1% beyond the square, past the overshoot of the studies' polygons.
SERIES = settings(max_examples=25, deadline=None, derandomize=True)
near_square = st.floats(-0.01, 1.01)
terms = st.sampled_from([50, 100])


# Points on each edge, the four corners, the centre, and 1% outside each edge.
EDGE_POINTS = np.array(
    [[0.3, 0.0], [0.0, 0.7], [1.0, 0.4], [0.6, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
     [1.0, 1.0], [0.5, 0.5], [0.5, -0.01], [0.5, 1.01], [-0.01, 0.5], [1.01, 0.5]]
)


@SERIES
@given(hnp.arrays(float, st.tuples(st.integers(1, 64), st.just(2)), elements=near_square), terms)
@example(EDGE_POINTS, 50)
@example(EDGE_POINTS, 100)
def test_series_matches_direct_oracle(points, n_terms):
    val, grad = series_solution(points, n_terms)
    val0, grad0 = series_solution_direct(points, n_terms)
    assert val.shape == val0.shape and grad.shape == grad0.shape
    assert np.max(np.abs(val - val0)) <= 1e-13
    assert np.max(np.abs(grad - grad0)) <= 1e-13


@st.composite
def lattices(draw):
    """Random lattice axes reaching 1% beyond the square, with one axis
    sometimes a single coordinate, and index arrays of one shape into them."""
    xs = draw(hnp.arrays(float, st.integers(1, 40), elements=near_square))
    ys = draw(hnp.arrays(float, st.integers(1, 40), elements=near_square))
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 16)))
    ix = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, len(xs) - 1)))
    iy = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, len(ys) - 1)))
    return xs, ys, ix, iy


# A single x and a single y, each against 9 coordinates on the other axis.
NINE = np.linspace(-0.01, 1.01, 9)
SINGLE_X = (np.array([0.37]), NINE, np.zeros((3, 3), np.intp), np.arange(9).reshape(3, 3))
SINGLE_Y = (NINE, np.array([1.01]), np.arange(9)[:, None], np.zeros((9, 1), np.intp))


def lattice_point_set(xs, ys, ix, iy):
    return np.column_stack((xs[ix].ravel(), ys[iy].ravel()))


@SERIES
@given(lattices(), terms)
@example(SINGLE_X, 50)
@example(SINGLE_Y, 100)
def test_series_lattice_matches_direct_oracle(lattice, n_terms):
    xs, ys, ix, iy = lattice
    val, grad = ReferenceSolution.square_series(n_terms).on_lattice(xs, ys, ix, iy)
    assert val.shape == ix.shape and grad.shape == ix.shape + (2,)
    val0, grad0 = series_solution_direct(lattice_point_set(*lattice), n_terms)
    assert np.max(np.abs(val.ravel() - val0)) <= 1e-14
    assert np.max(np.abs(grad.reshape(-1, 2) - grad0)) <= 1e-14


@SERIES
@given(lattices())
@example(SINGLE_X)
def test_lattice_without_factors_evaluates_exactly_its_points(lattice):
    points = lattice_point_set(*lattice)
    seen = []

    def value_fn(p):
        seen.append(p.copy())
        return np.sin(3.0 * p[:, 0]) * np.exp(p[:, 1])

    def gradient_fn(p):
        return np.column_stack((3.0 * np.cos(3.0 * p[:, 0]), np.sin(3.0 * p[:, 0]))) * np.exp(p[:, 1:])

    custom = reference_from_callables(value_fn, gradient_fn)
    for ref in (custom, ReferenceSolution.disk_quadratic()):
        val, grad = ref.on_lattice(*lattice)
        assert np.array_equal(val.ravel(), ref.value(points))
        assert np.array_equal(grad.reshape(-1, 2), ref.gradient(points))
    assert len(seen) == 2 and np.array_equal(seen[0], points)


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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_discrete_at_matches_point_basis(p):
    sol = fitted_square_solution(p, lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y)
    grid, rng = sol.am.grid, np.random.default_rng(p)
    cells = rng.choice(sol.am.active, 200)
    points = grid.cell_origin(cells) + grid.h * rng.uniform(0.0, 1.0, (200, 2))
    vals, grads, dofs = point_basis(sol.basis, sol.dofmap, grid, points, cells)
    c = sol.coefficients[dofs]
    val, grad = solver._discrete_at(sol, points, cells)
    assert np.max(np.abs(val - np.einsum("qk,qk->q", vals, c))) <= 1e-14
    scale = max(1.0, np.abs(grad).max())
    assert np.max(np.abs(grad - np.einsum("qk,qkd->qd", c, grads))) <= 1e-14 * scale
    with pytest.raises(MeshError, match="cell 0 is not active"):
        solver._discrete_at(sol, grid.cell_origin([0]) + 0.5 * grid.h, np.array([0]))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_point_rejected(self, bad, axis):
        sol = fitted_square_solution()
        point = np.array([0.5, 0.5])
        point[axis] = bad
        for pts in (point, np.array([[0.4, 0.6], point])):
            with pytest.raises(EvaluationError, match="finite"):
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
        cells = [lowest_active_cell(sol.am, sol.dofmap.cell_dofs, x, y) for x, y in pts]
        found = np.array([c is not None for c in cells])
        assert 300 < np.count_nonzero(found) < len(pts)
        _, grads = eval_discrete(sol, pts[found])
        for x, eid, g in zip(pts[found], [c for c in cells if c is not None], grads):
            _, dphi = eval_basis(sol.basis, (x - grid.cell_origin(eid)) / grid.h, grid.h)
            c = sol.coefficients[sol.dofmap.cell_dofs[eid]]
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
        right_inactive = (ix + 1 < grid.nx) & (sol.dofmap.cell_dofs[am.active + 1, 0] < 0)
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
        ref = reference_from_callables(
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
        ref = reference_from_callables(
            lambda p: np.zeros(len(p)), lambda p: np.zeros((len(p), 2))
        )
        norms = compute_error_norms(sol, ref, params=penalty_parameters(2))
        assert norms.energy == 0.0 and norms.l2 == 0.0

    def test_l2_of_constant_one(self):
        sol = fitted_square_solution()
        ref = reference_from_callables(
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

    def test_series_once_per_point_set(self, monkeypatch):
        # The delta study's p = 2 square at level 1, with batches small
        # enough that the cut and boundary points span several of them.
        monkeypatch.setattr(quadrature, "POINT_BATCH", 1000)
        grid = _grid(_square_origin(None), SQUARE_SIDE, None, 1)
        poly = perturb_square_boundary(grid.h**2.5, 16 * math.ceil(1.0 / grid.h))
        am = classify_elements(grid, poly)
        basis, params = qp_basis(2), penalty_parameters(2)
        system, dm = assemble_system(am, basis, params, lambda x, y: np.ones_like(x))
        sol = DiscreteSolution(coefficients=solve_spd(system), dofmap=dm, basis=basis, am=am)
        sizes, lattice_points = [], []

        def counted(points, n_terms):
            sizes.append(len(points))
            return series_solution(points, n_terms)

        def counted_lattice(xs, ys, ix, iy, n_terms):
            lattice_points.append(np.stack((xs[ix], ys[iy]), axis=-1))
            return series_on_lattice(xs, ys, ix, iy, n_terms)

        monkeypatch.setattr(solver, "series_solution", counted)
        monkeypatch.setattr(solver, "series_on_lattice", counted_lattice)
        norms = compute_error_norms(sol, ReferenceSolution.square_series(50), params)
        vrules = build_volume_rules(am, 6)
        # The inside cells' points, the same floats as cell origin + h * r,
        # in one lattice evaluation.
        inside_points = grid.cell_origin(am.inside_ids)[:, None, :] + grid.h * vrules.inside_ref_points
        assert len(lattice_points) == 1
        assert np.array_equal(lattice_points[0], inside_points)
        expected = [len(c) for c, _ in rule_batches(vrules.cut)]
        expected += [len(c) for c, _ in rule_batches(build_boundary_rules(am, 6))]
        assert len(expected) > 3
        assert sizes == expected

        direct = reference_from_callables(
            lambda p: series_solution_direct(p, 50)[0],
            lambda p: series_solution_direct(p, 50)[1],
        )
        oracle = compute_error_norms(sol, direct, params)
        for name in ("energy", "h1_semi", "l2", "stab_part"):
            assert getattr(norms, name) == pytest.approx(getattr(oracle, name), rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("ref", ["square_series", "disk_quadratic"])
def test_error_norms_without_inside_cells(p, ref):
    ref = getattr(ReferenceSolution, ref)()
    am = no_inside_cell_mesh()
    assert len(am.inside_ids) == 0
    basis, params = qp_basis(p), penalty_parameters(p)
    system, dm = assemble_system(am, basis, params, lambda x, y: np.ones_like(x))
    sol = DiscreteSolution(coefficients=solve_spd(system), dofmap=dm, basis=basis, am=am)
    norms = compute_error_norms(sol, ref, params)
    parts = norms.h1_semi**2 + norms.flux_part**2 + norms.trace_part**2 + norms.stab_part**2
    assert norms.l2 > 0.0 and norms.h1_semi > 0.0
    assert norms.energy**2 == pytest.approx(parts, rel=1e-12, abs=0.0)


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


def counted_reference():
    """Square-series reference through the direct oracle, and its calls."""
    calls = []

    def evaluate(points):
        calls.append(points.shape)
        return series_solution_direct(points, 50)

    return ReferenceSolution("counted", evaluate), calls


MEMO_POINTS = np.array([[0.2, 0.3], [0.7, 0.1], [0.5, 0.5], [1.004, -0.003]])


class TestReferenceMemo:
    def test_value_then_gradient_evaluate_once(self):
        ref, calls = counted_reference()
        val, grad = ref.value(MEMO_POINTS), ref.gradient(MEMO_POINTS)
        assert len(calls) == 1
        val0, grad0 = series_solution_direct(MEMO_POINTS, 50)
        assert np.array_equal(val, val0) and np.array_equal(grad, grad0)

    def test_from_callables_calls_each_once(self):
        counts = {"value": 0, "gradient": 0}

        def value_fn(p):
            counts["value"] += 1
            return p[:, 0] * p[:, 1]

        def gradient_fn(p):
            counts["gradient"] += 1
            return p[:, ::-1].copy()

        ref = reference_from_callables(value_fn, gradient_fn)
        ref.value(MEMO_POINTS)
        ref.gradient(MEMO_POINTS)
        assert counts == {"value": 1, "gradient": 1}

    def test_equal_content_copy_reuses_result(self):
        ref, calls = counted_reference()
        ref.value(MEMO_POINTS)
        grad = ref.gradient(MEMO_POINTS.copy())
        val = ref.value(MEMO_POINTS.tolist())
        assert len(calls) == 1
        val0, grad0 = series_solution_direct(MEMO_POINTS, 50)
        assert np.array_equal(val, val0) and np.array_equal(grad, grad0)

    @pytest.mark.parametrize(
        "change",
        [lambda p: p + 0.01, lambda p: p[:3], lambda p: p[:1].reshape(2)],
        ids=["other_points", "fewer_rows", "single_point"],
    )
    def test_other_points_evaluated_afresh(self, change):
        ref, calls = counted_reference()
        ref.value(MEMO_POINTS)
        other = change(MEMO_POINTS.copy())
        val, grad = ref.value(other), ref.gradient(other)
        val0, grad0 = series_solution_direct(np.atleast_2d(other), 50)
        assert np.array_equal(val, val0) and np.array_equal(grad, grad0)
        assert len(calls) == 2

    def test_points_mutated_in_place_evaluated_afresh(self):
        ref, calls = counted_reference()
        pts = MEMO_POINTS.copy()
        ref.value(pts)
        pts[2, 0] = 0.25
        val, grad = ref.value(pts), ref.gradient(pts)
        val0, grad0 = series_solution_direct(pts, 50)
        assert np.array_equal(val, val0) and np.array_equal(grad, grad0)
        assert len(calls) == 2

    def test_returned_arrays_are_the_callers(self):
        ref, calls = counted_reference()
        ref.value(MEMO_POINTS)[:] = 7.0
        ref.gradient(MEMO_POINTS)[:] = 7.0
        val0, grad0 = series_solution_direct(MEMO_POINTS, 50)
        assert np.array_equal(ref.gradient(MEMO_POINTS), grad0)
        assert np.array_equal(ref.value(MEMO_POINTS), val0)
        assert len(calls) == 1
