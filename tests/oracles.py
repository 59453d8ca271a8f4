"""Oracles that more than one test module reads."""

from rabictl.model import ControlConst, StateVec, jacobian
from rabictl.optctl import _cost_gradient


def dense_adjoint(y, u, w, p):
    """The adjoint as the dense affine system lam' = G lam + g: G = -(df/dy)^T from
    ``model.jacobian``, (12, 12) or (n, 12, 12), and g = -dL/dy, (12,)."""
    T, I = jacobian(y, u, p)
    return (0.0 - (T + I)).swapaxes(-1, -2), _cost_gradient(w)  # 0.0 - keeps an empty cell +0.0


def reference_rk4_step(f, y, h, za, zm, zb, *args):
    """One classical RK4 step of ``f(y, z, *args)`` field by field, ``z`` being ``za``, ``zm``
    and ``zb`` at the step's start, midpoint and end; a negative ``h`` steps backward."""
    make = getattr(y, "_make", tuple)  # a NamedTuple, or an adjoint's plain tuple
    half = 0.5 * h
    k1 = f(y, za, *args)
    k2 = f(make(a + half * b for a, b in zip(y, k1)), zm, *args)
    k3 = f(make(a + half * b for a, b in zip(y, k2)), zm, *args)
    k4 = f(make(a + h * b for a, b in zip(y, k3)), zb, *args)
    sixth = h / 6.0
    return make(
        a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def reference_rk4_backward(f, state_traj, u_path, terminal):
    """The adjoint marched stage by stage from ``terminal`` at tf back to t0, each stage's
    ``f(lam, (y, u))`` read at a step's end nodes or their midpoint: the adjoint at each node."""
    grid = state_traj.grid
    h = grid.h
    ys = list(map(StateVec._make, state_traj.values.tolist()))
    us = [ControlConst(*row) for row in u_path.values.tolist()]
    out = [terminal]
    lam = terminal
    for i in range(grid.n_steps, 0, -1):
        ym = StateVec._make(0.5 * (a + b) for a, b in zip(ys[i], ys[i - 1]))
        um = ControlConst(*(0.5 * (a + b) for a, b in zip(us[i - 1], us[i])))
        lam = reference_rk4_step(f, lam, -h, (ys[i], us[i]), (ym, um), (ys[i - 1], us[i - 1]))
        out.append(lam)
    out.reverse()
    return out
