"""Oracles that more than one test module reads."""

from rabictl.model import jacobian
from rabictl.optctl import _cost_gradient


def dense_adjoint(y, u, w, p):
    """The adjoint as the dense affine system lam' = G lam + g: G = -(df/dy)^T from
    ``model.jacobian``, (12, 12) or (n, 12, 12), and g = -dL/dy, (12,)."""
    T, I = jacobian(y, u, p)
    return (0.0 - (T + I)).swapaxes(-1, -2), _cost_gradient(w)  # 0.0 - keeps an empty cell +0.0
