import numpy as np
import pytest

from cutpoisson import eval_axis_derivative, eval_basis, qp_basis


@pytest.mark.parametrize("p", [1, 2, 3])
class TestKroneckerAndUnity:
    def test_kronecker_at_nodes(self, p):
        basis = qp_basis(p)
        nodes = basis.nodes_1d
        for iy in range(p + 1):
            for ix in range(p + 1):
                vals, _ = eval_basis(basis, np.array([nodes[ix], nodes[iy]]), 0.7)
                k = iy * (p + 1) + ix
                expect = np.zeros(basis.n_local)
                expect[k] = 1.0
                assert np.allclose(vals, expect, atol=1e-12)

    def test_partition_of_unity(self, p):
        basis = qp_basis(p)
        rng = np.random.default_rng(p)
        pts = rng.uniform(0, 1, size=(100, 2))
        vals, grads = eval_basis(basis, pts, 0.3)
        assert np.allclose(np.sum(vals, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.sum(grads, axis=1), 0.0, atol=1e-12)

    def test_polynomial_reproduction(self, p):
        basis = qp_basis(p)
        h = 0.45
        rng = np.random.default_rng(100 + p)
        # nodal values of x^a y^b for total degree <= p on the scaled element
        nodes = basis.nodes_1d
        nx, ny = np.meshgrid(nodes, nodes, indexing="xy")
        node_pts = np.column_stack((nx.reshape(-1), ny.reshape(-1)))
        pts = rng.uniform(0, 1, size=(30, 2))
        vals, _ = eval_basis(basis, pts, h)
        for a in range(p + 1):
            for b in range(p + 1 - a):
                coeffs = node_pts[:, 0] ** a * node_pts[:, 1] ** b
                exact = pts[:, 0] ** a * pts[:, 1] ** b
                assert np.allclose(vals @ coeffs, exact, atol=1e-12)


class TestSpecificValues:
    def test_p1_corner_function(self):
        basis = qp_basis(1)
        vals, _ = eval_basis(basis, np.array([0.0, 0.0]), 1.0)
        assert vals.shape == (1, 4)
        assert vals[0, 0] == pytest.approx(1.0)

    def test_p2_center_node(self):
        basis = qp_basis(2)
        vals, _ = eval_basis(basis, np.array([0.5, 0.5]), 1.0)
        assert vals[0, 4] == pytest.approx(1.0, abs=1e-14)  # k = 1*(3)+1

    def test_p1_x_derivative(self):
        # (1-x)(1-y) has d/dx = -(1-y): at (0, 0.5) with h=1 this is -0.5
        basis = qp_basis(1)
        d = eval_axis_derivative(basis, np.array([0.0, 0.5]), 0, 1, 1.0)
        assert d.shape == (1, 4)
        assert d[0, 0] == pytest.approx(-0.5, abs=1e-14)

    def test_gradient_scaling(self):
        basis = qp_basis(2)
        _, g1 = eval_basis(basis, np.array([0.3, 0.7]), 1.0)
        _, g2 = eval_basis(basis, np.array([0.3, 0.7]), 0.5)
        assert np.allclose(g2, 2.0 * g1, atol=1e-13)


class TestAxisDerivative:
    def test_j_zero_matches_values(self):
        basis = qp_basis(2)
        pts = np.array([[0.2, 0.8], [0.6, 0.1]])
        vals, _ = eval_basis(basis, pts, 0.25)
        d0 = eval_axis_derivative(basis, pts, 0, 0, 0.25)
        assert np.allclose(d0, vals, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_order_above_p_rejected(self, p):
        basis = qp_basis(p)
        with pytest.raises(ValueError):
            eval_axis_derivative(basis, np.array([0.5, 0.5]), 0, p + 1, 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_first_derivative_vs_finite_difference(self, p, axis):
        basis = qp_basis(p)
        h = 0.37
        step = 1e-5
        pt = np.array([0.431, 0.617])
        e = np.array([step, 0.0]) if axis == 0 else np.array([0.0, step])
        vp, _ = eval_basis(basis, pt + e, h)
        vm, _ = eval_basis(basis, pt - e, h)
        fd = (vp - vm) / (2 * step * h)
        d1 = eval_axis_derivative(basis, pt, axis, 1, h)
        assert np.allclose(d1, fd, atol=1e-8)

    def test_p1_second_derivative_identically_zero(self):
        # excluded by contract; verified indirectly: j=1 derivative constant
        basis = qp_basis(1)
        d_a = eval_axis_derivative(basis, np.array([0.2, 0.5]), 0, 1, 1.0)
        d_b = eval_axis_derivative(basis, np.array([0.9, 0.5]), 0, 1, 1.0)
        assert np.allclose(d_a, d_b, atol=1e-14)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            qp_basis(4)
