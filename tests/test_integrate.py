"""Forward and backward RK4 on the shared grid."""

import csv
import math

import numpy as np
import pytest

from rabictl.errors import ConfigError, IntegrationBlowupError
from rabictl.integrate import (
    MAX_STEPS,
    ControlPath,
    TimeGrid,
    Trajectory,
    _clamp_state,
    euler_forward,
    rk4_backward,
    rk4_forward,
    write_trajectory_csv,
)
from rabictl.model import ControlConst, StateVec, seeded_state
from rabictl.optctl import AdjointVec, Weights, adjoint_rhs

ZEROS12 = (0.0,) * 12
ZERO_LAM = AdjointVec(*ZEROS12)


def test_grid_validation():
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, 0)
    for t0, tf in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ConfigError, match="finite"):
            TimeGrid(t0, tf, 10)
    assert TimeGrid(0.0, 1.0, MAX_STEPS).n_nodes == MAX_STEPS + 1
    with pytest.raises(ConfigError, match="n_steps"):
        TimeGrid(0.0, 1.0, MAX_STEPS + 1)
    g = TimeGrid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert g.times() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert g.node_at(1.0) == 2
    with pytest.raises(ConfigError):
        g.node_at(2.5)


def test_control_path_enforces_mask_and_bounds():
    g = TimeGrid(0.0, 1.0, 2)
    path = ControlPath.constant(g, ControlConst(0.5, 0.5, 0.5, 0.5), mask=(True, False, True, False))
    assert np.array_equal(path.values[:, [1, 3]], np.zeros((g.n_nodes, 2)))
    with pytest.raises(ConfigError):
        ControlPath.constant(g, ControlConst(1.5, 0, 0, 0))


def test_control_path_is_read_only_array_that_keeps_bits():
    g = TimeGrid(0.0, 1.0, 2)
    path = ControlPath(g, [(-0.0, 0.25, 0.5, 1.0)] * 3, mask=(True, True, False, True))
    assert path.values.shape == (g.n_nodes, 4) and not path.values.flags.writeable
    assert np.signbit(path.values[:, 0]).all()  # the mask selects; it does not multiply
    assert np.array_equal(path.values[:, 2], np.zeros(g.n_nodes))
    with pytest.raises(ConfigError, match=r"control u4 must lie in \[0, 1\], got nan"):
        ControlPath(g, [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, float("nan")), (2.0, 0.0, 0.0, 0.0)])
    with pytest.raises(ConfigError, match="control path has 2 nodes for 3"):
        ControlPath(g, [(0.0,) * 4] * 2)


def test_dfe_is_stationary(p_est, grid_20y):
    y0 = seeded_state(p_est)
    traj = rk4_forward(p_est, ControlPath.constant(grid_20y), y0, grid_20y)
    drift = max(max(abs(a - b) for a, b in zip(s, y0)) for s in traj.states)
    assert drift < 1e-9


def test_infection_free_subspace_is_invariant(p_est):
    g = TimeGrid(0.0, 10.0, 500)
    y0 = seeded_state(p_est)._replace(S_H=1e4, R_H=50.0, R_D=10.0)
    traj = rk4_forward(p_est, ControlPath.constant(g), y0, g)
    for s in traj.states:
        assert s.E_H == s.I_H == s.E_F == s.I_F == s.E_D == s.I_D == s.M == 0.0


def test_population_caps(p_est, default_state, grid_20y):
    traj = rk4_forward(p_est, ControlPath.constant(grid_20y), default_state, grid_20y)
    y0 = default_state
    cap_h = max(y0.S_H + y0.E_H + y0.I_H + y0.R_H, p_est.theta1 / p_est.mu1)
    cap_f = max(y0.S_F + y0.E_F + y0.I_F, p_est.theta2 / p_est.mu2)
    cap_d = max(y0.S_D + y0.E_D + y0.I_D + y0.R_D, p_est.theta3 / p_est.mu3)
    cap_m = max(
        y0.M,
        p_est.theta1 * p_est.nu1 / (p_est.mu1 * p_est.mu4)
        + p_est.theta2 * p_est.nu2 / (p_est.mu2 * p_est.mu4)
        + p_est.theta3 * p_est.nu3 / (p_est.mu3 * p_est.mu4),
    )
    for s in traj.states:
        assert s.S_H + s.E_H + s.I_H + s.R_H <= cap_h + 1e-6
        assert s.S_F + s.E_F + s.I_F <= cap_f + 1e-6
        assert s.S_D + s.E_D + s.I_D + s.R_D <= cap_d + 1e-6
        assert s.M <= cap_m + 1e-6


def test_fourth_order_convergence(p_est, default_state):
    def endpoint(n):
        g = TimeGrid(0.0, 5.0, n)
        return rk4_forward(p_est, ControlPath.constant(g), default_state, g).states[-1]

    a, b, c = endpoint(20), endpoint(40), endpoint(80)
    e1 = max(abs(x - y) for x, y in zip(a, b))
    e2 = max(abs(x - y) for x, y in zip(b, c))
    assert 10.0 <= e1 / e2 <= 24.0


def test_determinism_bit_identical(p_est, default_state):
    g = TimeGrid(0.0, 5.0, 250)
    t1 = rk4_forward(p_est, ControlPath.constant(g), default_state, g)
    t2 = rk4_forward(p_est, ControlPath.constant(g), default_state, g)
    assert t1.states == t2.states


def test_blowup_raises_with_advice(p_est, default_state):
    g = TimeGrid(0.0, 20.0, 4)  # h = 5 years: far beyond stability
    with pytest.raises(IntegrationBlowupError, match="step size"):
        rk4_forward(p_est, ControlPath.constant(g), default_state, g)


def test_undershoot_clamping_rules():
    tiny = StateVec(*([1.0] * 11 + [-5e-10]))
    out, n = _clamp_state(tiny, 0.0)
    assert n == 0 and out.M == -5e-10  # within keep tolerance: left alone

    small = StateVec(*([1.0] * 11 + [-5e-7]))
    out, n = _clamp_state(small, 0.0)
    assert n == 1 and out.M == 0.0

    bad = StateVec(*([1.0] * 11 + [-5e-6]))
    with pytest.raises(IntegrationBlowupError):
        _clamp_state(bad, 0.0)


def test_nonfinite_state_aborts(p_base):
    # enormous transmission at a huge step overflows instead of going negative
    p = p_base.replace(kappa1=50.0)
    g = TimeGrid(0.0, 100.0, 4)
    y0 = seeded_state(p)._replace(I_F=1e4)
    with pytest.raises(IntegrationBlowupError):
        rk4_forward(p, ControlPath.constant(g), y0, g)


# --- backward pass ---------------------------------------------------------------


def test_backward_zero_rhs_stays_zero(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state, g)
    adj = rk4_backward(lambda t, lam, yu: ZEROS12, traj, path, ZERO_LAM)
    assert len(adj) == g.n_nodes
    assert all(all(v == 0.0 for v in lam) for lam in adj)


def test_backward_terminal_condition_exact(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state, g)
    terminal = AdjointVec(*(float(i) for i in range(12)))
    adj = rk4_backward(lambda t, lam, yu: ZEROS12, traj, path, terminal)
    assert adj[-1] == terminal


def test_backward_grid_mismatch(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    other = TimeGrid(0.0, 2.0, 50)
    traj = rk4_forward(p_est, ControlPath.constant(g), default_state, g)
    with pytest.raises(ConfigError, match="grid"):
        rk4_backward(lambda t, lam, yu: ZEROS12, traj, ControlPath.constant(other), ZERO_LAM)


def test_backward_non_finite_adjoint_raises(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state, g)
    with pytest.raises(IntegrationBlowupError, match="adjoint is not finite at t = 0"):
        rk4_backward(lambda t, lam, yu: (1e308,) * 12, traj, path, ZERO_LAM)


def test_backward_overflow_raises(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state, g)
    overflowing = lambda t, lam, yu: ((yu[0].S_H * 1e300) ** 2,) * 12  # float ** raises
    with pytest.raises(IntegrationBlowupError, match="adjoint is not finite at t = 0"):
        rk4_backward(overflowing, traj, path, ZERO_LAM)


def test_backward_step_halving_convergence(p_est, default_state):
    """lam(t0) for the model adjoint agrees with a half-step rerun to 1e-5."""
    w = Weights()
    u_const = ControlConst(0.2, 0.2, 0.2, 0.2)

    def lam0(n):
        g = TimeGrid(0.0, 20.0, n)
        path = ControlPath.constant(g, u_const)
        traj = rk4_forward(p_est, path, default_state, g)
        fn = lambda t, lam, yu: adjoint_rhs(yu[0], AdjointVec(*lam), yu[1], w, p_est)
        return rk4_backward(fn, traj, path, ZERO_LAM)[0]

    a, b = lam0(2000), lam0(4000)
    rel = max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(a, b))
    assert rel < 1e-5


def _reference_rk4_backward(adjoint_rhs, state_traj, u_path, terminal):
    """The adjoint RK4 loop as it was written before ``rk4_step`` was shared."""
    grid = state_traj.grid
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    times = grid.times()
    ys = state_traj.states
    us = [ControlConst(*u) for u in u_path.values.tolist()]

    def mid_control(ua, ub):
        return ControlConst(*(0.5 * (x + y) for x, y in zip(ua, ub)))

    out = [tuple(terminal)]
    lam = tuple(terminal)
    for i in range(grid.n_steps, 0, -1):
        t = times[i]
        ya, yb = ys[i], ys[i - 1]
        ua, ub = us[i], us[i - 1]
        ym = StateVec(*(0.5 * (a + b) for a, b in zip(ya, yb)))
        um = mid_control(ua, ub)
        k1 = adjoint_rhs(t, lam, ya, ua)
        k2 = adjoint_rhs(t - half, tuple(a - half * b for a, b in zip(lam, k1)), ym, um)
        k3 = adjoint_rhs(t - half, tuple(a - half * b for a, b in zip(lam, k2)), ym, um)
        k4 = adjoint_rhs(t - h, tuple(a - h * b for a, b in zip(lam, k3)), yb, ub)
        lam = tuple(
            a - sixth * (b + 2.0 * c + 2.0 * d + e)
            for a, b, c, d, e in zip(lam, k1, k2, k3, k4)
        )
        out.append(lam)
    out.reverse()
    return tuple(out)


def test_backward_is_bit_identical_to_reference_stage_loop(p_est, default_state):
    """The shared step run with -h reproduces the hand-written backward loop bit for bit."""
    g = TimeGrid(0.0, 20.0, 400)
    rng = np.random.default_rng(11)
    path = ControlPath(g, rng.uniform(0.0, 1.0, (g.n_nodes, 4)))
    traj = rk4_forward(p_est, path, default_state, g)
    w = Weights()
    fn = lambda t, lam, y, u: adjoint_rhs(y, AdjointVec(*lam), u, w, p_est)
    terminal = AdjointVec(*rng.uniform(-5.0, 5.0, 12).tolist())
    got = rk4_backward(lambda t, lam, yu: fn(t, lam, *yu), traj, path, terminal)
    want = _reference_rk4_backward(fn, traj, path, terminal)
    assert all(type(lam) is AdjointVec for lam in got)
    assert np.array_equal(np.array(got), np.array(want))
    assert np.abs(np.array(got)[0]).max() > 1.0  # the adjoint is far from trivial


# --- Euler companion and CSV ------------------------------------------------------


def test_euler_matches_rk4_for_small_steps(p_est, default_state):
    g_rk = TimeGrid(0.0, 2.0, 200)
    rk = rk4_forward(p_est, ControlPath.constant(g_rk), default_state, g_rk)
    g_eu = TimeGrid(0.0, 2.0, 20000)
    eu = euler_forward(p_est, default_state, g_eu)
    rel = max(
        abs(a - b) / max(1.0, abs(a)) for a, b in zip(rk.states[-1], eu.states[-1])
    )
    assert rel < 1e-3


def test_trajectory_csv_round_trip(tmp_path, p_est, default_state):
    g = TimeGrid(0.0, 1.0, 50)
    traj = rk4_forward(p_est, ControlPath.constant(g), default_state, g)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,S_H,E_H,I_H,R_H,S_F,E_F,I_F,S_D,E_D,I_D,R_D,M"
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert [row[0] for row in rows] == g.times()
    assert [tuple(row[1:]) for row in rows] == list(traj.states)  # full double precision


def test_trajectory_node_count_invariant(p_est):
    g = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ConfigError, match="states"):
        Trajectory(g, (seeded_state(p_est),) * 5)
