"""Tensor-product Lagrange shape functions on axis-aligned square elements.

Degrees 1 to 3 with equispaced nodes on the reference square [0,1]^2; local
index k = iy*(p+1) + ix. Physical elements are translated and scaled copies
of the reference square, so derivatives only pick up powers of 1/h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.legendre as leg

__all__ = ["QpBasis", "qp_basis", "eval_basis", "eval_axis_derivative"]


@dataclass(frozen=True)
class QpBasis:
    """Lagrange basis of degree p with (p+1)^2 local functions.

    ``legendre[j][k]``: Legendre coefficients in t = 2 xi - 1 of the j-th
    xi-derivative of the k-th 1D Lagrange polynomial, j = 0..p.
    """

    p: int
    nodes_1d: np.ndarray
    legendre: tuple[np.ndarray, ...] = field(repr=False)

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
        return leg.legval(2.0 * t - 1.0, self.legendre[j].T).T


def qp_basis(p: int) -> QpBasis:
    """Equispaced Lagrange basis of degree p in {1, 2, 3}: the one fit of the 1D
    Lagrange polynomials, which ``assembly``'s moment tables also read."""
    if p not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {p}; use 1, 2 or 3")
    nodes = np.arange(p + 1) / p
    coef = leg.legfit(2.0 * nodes - 1.0, np.eye(p + 1), p).T
    return QpBasis(p, nodes, tuple(leg.legder(coef, j, scl=2.0, axis=1) for j in range(p + 1)))


def eval_basis(basis: QpBasis, ref_point, h: float):
    """Shape function values and physical gradients at reference points.

    Returns values (n, n_local) and gradients (n, n_local, 2) at n points of
    [0,1]^2 (n = 1 for one (2,) point); gradients are reference ones over h.
    """
    grads = [eval_axis_derivative(basis, ref_point, axis, 1, h) for axis in (0, 1)]
    return eval_axis_derivative(basis, ref_point, 0, 0, h), np.stack(grads, axis=-1)


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
