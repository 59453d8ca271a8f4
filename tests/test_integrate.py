"""Forward and backward RK4 on the shared grid."""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabictl import integrate
from rabictl.errors import ConfigError, IntegrationBlowupError
from rabictl.integrate import (
    BLOCK,
    CLAMP_TOL,
    KEEP_TOL,
    MAX_STEPS,
    ControlPath,
    TimeGrid,
    Trajectory,
    _clamp_state,
    euler_forward,
    rk4_backward,
    node_rows,
    rk4_forward,
    write_csv,
)
from rabictl.model import ControlConst, StateVec, rhs, seeded_state
from rabictl.optctl import Weights, adjoint_parts, adjoint_rhs
from rabictl.sensitivity import _simulate_rows

ZEROS12 = (0.0,) * 12
ZERO_LAM = ZEROS12


def test_grid_validation():
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, 0)
    for t0, tf in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ConfigError, match="finite"):
            TimeGrid(t0, tf, 10)
    # tf - t0 overflows to inf, and a step of 5e-324 / 2 rounds to 0: both are config errors
    for t0, tf, n_steps in ((-1e308, 1e308, 2000), (0.0, 5e-324, 2)):
        with pytest.raises(ConfigError, match="finite step"):
            TimeGrid(t0, tf, n_steps)
    assert TimeGrid(0.0, 5e-324, 1).h == 5e-324
    # steps of 1 and 1.2 where doubles lie 2 apart repeat nodes; with 1.2 both end steps
    # still separate theirs, so a check of t0 + h > t0 and tf - h < tf alone would pass it
    for tf, n_steps in ((1e16 + 4, 4), (1e16 + 6, 5)):
        with pytest.raises(ConfigError, match="separates the nodes"):
            TimeGrid(1e16, tf, n_steps)
    assert TimeGrid(0.0, 1.0, MAX_STEPS).n_nodes == MAX_STEPS + 1
    with pytest.raises(ConfigError, match="n_steps"):
        TimeGrid(0.0, 1.0, MAX_STEPS + 1)
    g = TimeGrid(0.0, 2.0, 4)
    assert g.h == 0.5
    assert g.times() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert g.node_at(1.0) == 2
    with pytest.raises(ConfigError):
        g.node_at(2.5)
    with pytest.raises(ConfigError, match="time nan outside grid span"):  # was round's ValueError
        g.node_at(math.nan)


def test_grid_step_count_is_an_integer():
    for n_steps in (2.5, 4.0, "4", None, True):  # a float count built a grid times() failed on
        with pytest.raises(ConfigError, match="grid needs 1 <= n_steps"):
            TimeGrid(0.0, 2.0, n_steps)
    for n_steps in (np.int64(4), np.int32(4)):  # a numpy count steps as an int
        assert type(TimeGrid(0.0, 2.0, n_steps).n_steps) is int
        assert TimeGrid(0.0, 2.0, n_steps) == TimeGrid(0.0, 2.0, 4)


@settings(max_examples=300, deadline=None)
@given(t0=st.floats(min_value=-1e300, max_value=1e300).filter(lambda t: t != 0.0),
       n_steps=st.integers(min_value=1, max_value=300),
       ulps=st.floats(min_value=0.5, max_value=16.0))
def test_accepted_grid_nodes_strictly_increase(t0, n_steps, ulps):
    """Spans of a few relative ulps per step, near the separation rule's limit of 4."""
    tf = t0 + n_steps * ulps * math.ulp(t0)
    try:
        times = TimeGrid(t0, tf, n_steps).times()
    except ConfigError:
        return
    assert all(a < b for a, b in zip(times, times[1:]))


def test_control_path_enforces_bounds():
    g = TimeGrid(0.0, 1.0, 2)
    path = ControlPath.constant(g, ControlConst(0.5, 0.5, 0.5, 0.5))
    assert np.array_equal(path.values, np.full((g.n_nodes, 4), 0.5))
    with pytest.raises(ConfigError):
        ControlPath.constant(g, ControlConst(1.5, 0, 0, 0))


def test_control_path_is_read_only_array_that_keeps_bits():
    g = TimeGrid(0.0, 1.0, 2)
    path = ControlPath(g, [(-0.0, 0.25, 0.5, 1.0)] * 3)
    assert path.values.shape == (g.n_nodes, 4) and not path.values.flags.writeable
    assert np.signbit(path.values[:, 0]).all()
    assert path.values.tolist() == [[0.0, 0.25, 0.5, 1.0]] * 3
    with pytest.raises(ConfigError, match=r"control u4 must lie in \[0, 1\], got nan"):
        ControlPath(g, [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, float("nan")), (2.0, 0.0, 0.0, 0.0)])
    with pytest.raises(ConfigError, match="control path has 2 nodes for 3"):
        ControlPath(g, [(0.0,) * 4] * 2)


@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (3,), (3, 1, 4)])
def test_control_path_needs_one_row_of_four_controls_per_node(shape):
    with pytest.raises(ConfigError, match=re.escape(f"its shape is {shape}, not (3, 4)")):
        ControlPath(TimeGrid(0.0, 1.0, 2), np.zeros(shape))


def test_dfe_is_stationary(p_est, grid_20y):
    y0 = seeded_state(p_est)
    traj = rk4_forward(p_est, ControlPath.constant(grid_20y), y0)
    drift = max(max(abs(a - b) for a, b in zip(s, y0)) for s in traj.values.tolist())
    assert drift < 1e-9


def test_infection_free_subspace_is_invariant(p_est):
    g = TimeGrid(0.0, 10.0, 500)
    y0 = seeded_state(p_est)._replace(S_H=1e4, R_H=50.0, R_D=10.0)
    traj = rk4_forward(p_est, ControlPath.constant(g), y0)
    for s in map(StateVec._make, traj.values.tolist()):
        assert s.E_H == s.I_H == s.E_F == s.I_F == s.E_D == s.I_D == s.M == 0.0


def test_population_caps(p_est, default_state, grid_20y):
    traj = rk4_forward(p_est, ControlPath.constant(grid_20y), default_state)
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
    for s in map(StateVec._make, traj.values.tolist()):
        assert s.S_H + s.E_H + s.I_H + s.R_H <= cap_h + 1e-6
        assert s.S_F + s.E_F + s.I_F <= cap_f + 1e-6
        assert s.S_D + s.E_D + s.I_D + s.R_D <= cap_d + 1e-6
        assert s.M <= cap_m + 1e-6


def test_fourth_order_convergence(p_est, default_state):
    def endpoint(n):
        g = TimeGrid(0.0, 5.0, n)
        return rk4_forward(p_est, ControlPath.constant(g), default_state).values[-1].tolist()

    a, b, c = endpoint(20), endpoint(40), endpoint(80)
    e1 = max(abs(x - y) for x, y in zip(a, b))
    e2 = max(abs(x - y) for x, y in zip(b, c))
    assert 10.0 <= e1 / e2 <= 24.0


def test_determinism_bit_identical(p_est, default_state):
    g = TimeGrid(0.0, 5.0, 250)
    t1 = rk4_forward(p_est, ControlPath.constant(g), default_state)
    t2 = rk4_forward(p_est, ControlPath.constant(g), default_state)
    assert t1.values.tobytes() == t2.values.tobytes()


def test_blowup_raises_with_advice(p_est, default_state):
    g = TimeGrid(0.0, 20.0, 4)  # h = 5 years: far beyond stability
    with pytest.raises(IntegrationBlowupError, match="step size"):
        rk4_forward(p_est, ControlPath.constant(g), default_state)


def test_undershoot_clamping_rules():
    tiny = StateVec(*([1.0] * 11 + [-5e-10]))
    out, n = _clamp_state(tiny, 0.0)
    assert n == 0 and out.M == -5e-10  # within keep tolerance: left alone

    small = StateVec(*([1.0] * 11 + [-5e-7]))
    out, n = _clamp_state(small, 0.0)
    assert n == 1 and out.M == 0.0

    bad = StateVec(*([1.0] * 11 + [-5e-6]))
    with pytest.raises(IntegrationBlowupError, match="M = -5.000e-06 at t = 0"):
        _clamp_state(bad, 0.0)

    # the same rule on a batch, one column per row: clamped, failed, untouched
    Y = np.ones((12, 3))
    Y[11, 0], Y[2, 1], Y[0, 2] = -5e-7, -5e-6, -5e-10
    before = Y.copy()
    out, n = _clamp_state(Y, 0.0)  # a failed row raises nothing
    assert type(out) is np.ndarray and np.array_equal(Y, before)  # the input is left as it was
    assert n.tolist() == [1, 0, 0]
    assert out[11, 0] == 0.0 and np.array_equal(out[:11, 0], np.ones(11))
    assert np.isnan(out[:, 1]).all()
    assert np.array_equal(out[:, 2], before[:, 2])
    assert -CLAMP_TOL < -5e-7 < -KEEP_TOL < -5e-10


def test_nonfinite_state_aborts(p_base):
    # enormous transmission at a huge step overflows instead of going negative
    p = p_base.replace(kappa1=50.0)
    g = TimeGrid(0.0, 100.0, 4)
    y0 = seeded_state(p)._replace(I_F=1e4)
    with pytest.raises(IntegrationBlowupError):
        rk4_forward(p, ControlPath.constant(g), y0)


# --- backward pass ---------------------------------------------------------------


def constant_system(G, g=ZEROS12):
    """lam' = G lam + g with the same G and g at every input point: no entry varies."""
    a = np.zeros((13, 13))
    a[:12, :12], a[:12, 12] = G, g
    return lambda y, u: (a, [])


ZERO_SYSTEM = constant_system(np.zeros((12, 12)))


def test_backward_zero_rhs_stays_zero(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state)
    adj = rk4_backward(ZERO_SYSTEM, traj, path, ZERO_LAM)
    assert adj.shape == (g.n_nodes, 12)
    assert (adj == 0.0).all()


def test_backward_terminal_condition_exact(p_est, default_state):
    """A zero system keeps the terminal value at every node, across block boundaries."""
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state)
    terminal = tuple(float(i) for i in range(12))
    adj = rk4_backward(ZERO_SYSTEM, traj, path, terminal)
    assert (adj == np.array(terminal)).all()


def test_backward_grid_mismatch(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    other = TimeGrid(0.0, 2.0, 50)
    traj = rk4_forward(p_est, ControlPath.constant(g), default_state)
    with pytest.raises(ConfigError, match="grid"):
        rk4_backward(ZERO_SYSTEM, traj, ControlPath.constant(other), ZERO_LAM)


def test_backward_non_finite_adjoint_raises(p_est, default_state):
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state)
    # each propagator is finite (P about e * I); lam grows by e a step and overflows on the way
    growing = constant_system(-50.0 * np.eye(12), (1e300,) * 12)
    with pytest.raises(IntegrationBlowupError, match="adjoint is not finite at t = 0"):
        rk4_backward(growing, traj, path, ZERO_LAM)


def test_backward_overflow_raises(p_est, default_state):
    """A propagator that overflows is an error even where a zero adjoint would hide it."""
    g = TimeGrid(0.0, 2.0, 100)
    path = ControlPath.constant(g)
    traj = rk4_forward(p_est, path, default_state)
    G = np.full((12, 12), 1e300)  # h G is finite; the propagator's h^2 G^2 / 2 term is not
    first_block = g.times()[g.n_steps - BLOCK]  # built first, it ends at tf
    with pytest.raises(IntegrationBlowupError, match=f"adjoint is not finite at t = {first_block}"):
        rk4_backward(constant_system(G), traj, path, ZERO_LAM)


def test_backward_step_halving_convergence(p_est, default_state):
    """lam(t0) for the model adjoint agrees with a half-step rerun to 1e-5."""
    w = Weights()
    u_const = ControlConst(0.2, 0.2, 0.2, 0.2)

    def lam0(n):
        g = TimeGrid(0.0, 20.0, n)
        path = ControlPath.constant(g, u_const)
        traj = rk4_forward(p_est, path, default_state)
        return rk4_backward(lambda y, u: adjoint_parts(y, u, w, p_est), traj, path, ZERO_LAM)[0]

    a, b = lam0(2000), lam0(4000)
    rel = max(abs(x - y) / max(1.0, abs(x)) for x, y in zip(a, b))
    assert rel < 1e-5


def test_backward_memory_stays_below_a_dense_generator_per_solve(p_est, default_state):
    """One solve keeps its varying entries per point, not a (2n+1, 13, 13) generator stack."""
    g = TimeGrid(0.0, 20.0, 2000)
    path = ControlPath.constant(g, ControlConst(0.2, 0.2, 0.2, 0.2))
    traj = rk4_forward(p_est, path, default_state)
    traj.values  # built and cached before the measure: the forward pass's, not the adjoint's
    system = lambda y, u: adjoint_parts(y, u, Weights(), p_est)
    tracemalloc.start()
    try:
        rk4_backward(system, traj, path, ZERO_LAM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * g.n_steps + 1) * 169 * 8


def _reference_rk4_backward(adjoint_rhs, state_traj, u_path, terminal):
    """The adjoint RK4 loop as it was written before ``rk4_step`` was shared."""
    grid = state_traj.grid
    h = grid.h
    half = 0.5 * h
    sixth = h / 6.0
    times = grid.times()
    ys = list(map(StateVec._make, state_traj.values.tolist()))
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


def test_backward_matches_reference_stage_loop(p_est, default_state):
    """The propagator march meets the hand-written stage loop to rounding, over several blocks."""
    g = TimeGrid(0.0, 20.0, 400)
    rng = np.random.default_rng(11)
    path = ControlPath(g, rng.uniform(0.0, 1.0, (g.n_nodes, 4)))
    traj = rk4_forward(p_est, path, default_state)
    w = Weights()
    fn = lambda t, lam, y, u: adjoint_rhs(y, lam, u, w, p_est)
    terminal = tuple(rng.uniform(-5.0, 5.0, 12).tolist())
    got = rk4_backward(lambda y, u: adjoint_parts(y, u, w, p_est), traj, path, terminal)
    want = np.array(_reference_rk4_backward(fn, traj, path, terminal))
    assert (np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0)).all()
    assert np.abs(got[0]).max() > 1.0  # the adjoint is far from trivial


# --- Euler companion and CSV ------------------------------------------------------


@pytest.mark.parametrize("march", ["rk4", "euler", "batch"])
def test_marches_call_rhs_once_per_stage(p_est, default_state, monkeypatch, march):
    """perfbench counts ``model.rhs.calls`` through the module global ``integrate.rhs``; a
    PRCC batch makes one call per stage for all of its rows."""
    calls = []

    def counting_rhs(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(integrate, "rhs", counting_rhs)
    grid = TimeGrid(0.0, 2.0, 37)
    if march == "rk4":
        rk4_forward(p_est, ControlPath.constant(grid, ControlConst(0.1, 0.2, 0.3, 0.4)),
                    default_state)
    elif march == "euler":
        euler_forward(p_est, default_state, grid)
    else:
        rows = _simulate_rows(np.array([[0.9 * p_est.tau1], [1.1 * p_est.tau1]]), ("tau1",),
                              p_est, default_state, grid, (0, 20, 37), ("I_H",))
        assert all(r is not None for r in rows)
    assert len(calls) == (1 if march == "euler" else 4) * grid.n_steps


def test_euler_matches_rk4_for_small_steps(p_est, default_state):
    g_rk = TimeGrid(0.0, 2.0, 200)
    rk = rk4_forward(p_est, ControlPath.constant(g_rk), default_state)
    g_eu = TimeGrid(0.0, 2.0, 20000)
    eu = euler_forward(p_est, default_state, g_eu)
    rk_end, eu_end = rk.values[-1].tolist(), eu.values[-1].tolist()
    rel = max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(rk_end, eu_end))
    assert rel < 1e-3


cells = st.one_of(
    st.integers(), st.floats().map(repr),
    st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
            min_size=1),
)


@settings(max_examples=100, deadline=None)
@given(header=st.lists(cells, min_size=1, max_size=5).map(tuple), data=st.data())
def test_write_csv_equals_csv_writer_bytes(tmp_path_factory, header, data):
    rows = data.draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)),
                              max_size=6))
    path = tmp_path_factory.mktemp("csv")
    integrate.write_csv(path / "got.csv", header, rows)
    with open(path / "want.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


@pytest.mark.parametrize("row", [["1", "a,b"], ["1", 'a"b'], ["1", "a\nb"], ["1", "a\rb"],
                                 ["1"], ["1", "2", "3"]])
def test_write_csv_rejects_a_cell_that_needs_quoting(tmp_path, row):
    with pytest.raises(ValueError, match="needs 2 cells, none holding"):
        integrate.write_csv(tmp_path / "t.csv", ("a", "b"), [row])
    assert not (tmp_path / "t.csv").exists()


def test_trajectory_csv_round_trip(tmp_path, p_est, default_state):
    g = TimeGrid(0.0, 1.0, 50)
    traj = rk4_forward(p_est, ControlPath.constant(g), default_state)
    path = tmp_path / "traj.csv"
    write_csv(path, ("t",) + StateVec._fields, node_rows(g, traj.values))
    header = path.read_text().splitlines()[0]
    assert header == "t,S_H,E_H,I_H,R_H,S_F,E_F,I_F,S_D,E_D,I_D,R_D,M"
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert [row[0] for row in rows] == g.times()
    assert [row[1:] for row in rows] == traj.values.tolist()  # full double precision


def test_trajectory_node_count_invariant(p_est):
    """A trajectory needs one row of 12 states per node, by ControlPath's rule and message."""
    g = TimeGrid(0.0, 1.0, 10)
    for values in ((seeded_state(p_est),) * 5, np.zeros((10, 12)), np.zeros((12, 12)),
                   np.zeros((11, 11)), np.zeros((11, 13)), np.zeros(11 * 12)):
        shape = np.shape(values)
        with pytest.raises(ConfigError, match=re.escape(
                f"trajectory has {shape[0]} nodes for 11: its shape is {shape}, not (11, 12)")):
            Trajectory(g, values)
