"""Tensor-product Lagrange shape functions on axis-aligned square elements.

Degrees 1 to 3 with equispaced nodes on the reference square [0,1]^2; local
index k = iy*(p+1) + ix. Physical elements are translated and scaled copies
of the reference square, so derivatives only pick up powers of 1/h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QpBasis", "qp_basis", "eval_basis", "eval_axis_derivative"]


@dataclass(frozen=True)
class QpBasis:
    """Lagrange basis of degree p with (p+1)^2 local functions."""

    p: int
    nodes_1d: np.ndarray
    # coeffs[j][k, m]: coefficient of t^m in the j-th derivative of the k-th
    # 1D Lagrange polynomial.
    _deriv_coeffs: tuple[np.ndarray, ...] = field(repr=False, default=None)

    @property
    def n_local(self) -> int:
        return (self.p + 1) ** 2

    def lagrange_1d(self, t: np.ndarray, j: int = 0) -> np.ndarray:
        """Values of the j-th derivative of all 1D Lagrange polynomials.

        Returns an array of shape (len(t), p+1); derivatives of order above p
        are identically zero.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if j > self.p:
            return np.zeros((len(t), self.p + 1))
        return np.polynomial.polynomial.polyval(t, self._deriv_coeffs[j].T).T


def qp_basis(p: int) -> QpBasis:
    """Equispaced Lagrange basis of degree p in {1, 2, 3}."""
    if p not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {p}; use 1, 2 or 3")
    nodes = np.arange(p + 1) / p
    # Monomial coefficients from the inverse Vandermonde; fine for p <= 3.
    vander = np.vander(nodes, p + 1, increasing=True)
    coeffs = [np.linalg.inv(vander).T]
    for j in range(1, p + 1):
        prev = coeffs[-1]
        der = prev[:, 1:] * np.arange(1, prev.shape[1])[None, :]
        coeffs.append(der)
    return QpBasis(p=p, nodes_1d=nodes, _deriv_coeffs=tuple(coeffs))


def eval_basis(basis: QpBasis, ref_point, h: float):
    """Shape function values and physical gradients at reference points.

    Returns values (n, n_local) and gradients (n, n_local, 2) at n points of
    [0,1]^2 (n = 1 for one (2,) point); gradients are reference ones over h.
    """
    pts = np.atleast_2d(np.asarray(ref_point, dtype=float))
    nx = basis.lagrange_1d(pts[:, 0])
    ny = basis.lagrange_1d(pts[:, 1])
    dx = basis.lagrange_1d(pts[:, 0], 1) / h
    dy = basis.lagrange_1d(pts[:, 1], 1) / h
    values = (ny[:, :, None] * nx[:, None, :]).reshape(len(pts), basis.n_local)
    grads = np.empty((len(pts), basis.n_local, 2))
    grads[:, :, 0] = (ny[:, :, None] * dx[:, None, :]).reshape(len(pts), basis.n_local)
    grads[:, :, 1] = (dy[:, :, None] * nx[:, None, :]).reshape(len(pts), basis.n_local)
    return values, grads


def eval_axis_derivative(basis: QpBasis, ref_point, axis: int, j: int, h: float):
    """Physical j-th partial derivative along one axis of all local functions.

    ``axis`` is 0 (x) or 1 (y); the result is (n, n_local) as in ``eval_basis``.
    0 <= j <= p is required since higher derivatives vanish identically.
    """
    if not 0 <= j <= basis.p:
        raise ValueError(f"derivative order {j} outside 0..{basis.p}")
    pts = np.atleast_2d(np.asarray(ref_point, dtype=float))
    fx = basis.lagrange_1d(pts[:, 0], j if axis == 0 else 0)
    fy = basis.lagrange_1d(pts[:, 1], j if axis == 1 else 0)
    return (fy[:, :, None] * fx[:, None, :]).reshape(len(pts), basis.n_local) / h**j
