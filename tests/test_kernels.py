"""The kernels against their reference formulations.

``force_terms``, ``rhs``, the RK4 steps and the Euler step are written for speed:
every parameter read with one unpack of the per-set tuple ``p.rates``, shared
prefixes, and a trajectory stepped field by field (``_rk4_state_step`` and
``_euler_step``: each RK4 stage state passed to ``rhs`` as a tuple literal, and
one NamedTuple built per step without its constructor); ``rk4_step`` steps the
ensemble's batch as one stacked (12, N) array. They equal the plain
formulations below, which read named fields, bit for bit; floats are
compared through ``float.hex`` so that -0.0 and 0.0 count as different. The
adjoint is an affine system ``G lam + g`` and its march a recurrence of RK4
propagators, so they meet the hand-expanded adjoint and its stage-by-stage
march to rounding bounds instead. The ``reference_*`` functions are kept as
oracles.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabictl import integrate
from rabictl.errors import IntegrationBlowupError
from rabictl.integrate import (
    BLOCK, CLAMP_TOL, KEEP_TOL, ControlPath, TimeGrid, _clamp_state, _euler_step,
    _require_finite, _rk4_state_step, euler_forward, rk4_backward, rk4_forward, rk4_step,
)
from rabictl.model import (
    DEFAULT_SEEDING, ZERO_CONTROL, ControlConst, ForceTerms, StateVec, force_terms, jacobian, rhs,
    seeded_state,
)
from rabictl.optctl import (
    STRATEGY_MASKS, Weights, _cost_gradient, adjoint_parts, adjoint_rhs,
)
from rabictl.params import PARAM_NAMES, TABLE2_ESTIMATED, rates_of
from rabictl.sensitivity import _stacked_rhs


def reference_pressures(y, u, p):
    """The uncontrolled pressures f1, f2, f3, the clamped factors a1, a2 and lamM."""
    lamM = y.M / (y.M + p.C)
    a1 = 1.0 - (u.u1 + u.u3)
    if a1 < 0.0:
        a1 = 0.0
    a2 = 1.0 - (u.u1 + u.u2)
    if a2 < 0.0:
        a2 = 0.0
    f1 = p.tau1 * y.I_F + p.tau2 * y.I_D + p.tau3 * lamM
    f2 = p.kappa1 * y.I_F + p.kappa2 * y.I_D + p.kappa3 * lamM
    f3 = (
        p.psi1 * y.I_F / (1.0 + p.rho1)
        + p.psi2 * y.I_D / (1.0 + p.rho2)
        + p.psi3 * lamM / (1.0 + p.rho3)
    )
    return f1, f2, f3, a1, a2, lamM


def reference_force_terms(y, u, p):
    f1, f2, f3, a1, a2, lamM = reference_pressures(y, u, p)
    return ForceTerms(a1 * f1, f2, a2 * f3, a1, a2, lamM)


def reference_rhs(t, y, u, p):
    chi1, chi2, chi3, _, _, _ = reference_force_terms(y, u, p)

    dS_H = p.theta1 + p.beta3 * y.R_H - p.mu1 * y.S_H - chi1 * y.S_H
    dE_H = chi1 * y.S_H - (p.mu1 + p.beta1 + p.beta2 + u.u4) * y.E_H
    dI_H = p.beta1 * y.E_H - (p.sigma1 + p.mu1) * y.I_H
    dR_H = (p.beta2 + u.u4) * y.E_H - (p.beta3 + p.mu1) * y.R_H

    dS_F = p.theta2 - chi2 * y.S_F - p.mu2 * y.S_F
    dE_F = chi2 * y.S_F - (p.mu2 + p.gamma) * y.E_F
    dI_F = p.gamma * y.E_F - (p.mu2 + p.sigma2) * y.I_F

    dS_D = p.theta3 - p.mu3 * y.S_D - chi3 * y.S_D + p.gamma3 * y.R_D
    dE_D = chi3 * y.S_D - (p.mu3 + p.gamma1 + p.gamma2 + u.u4) * y.E_D
    dI_D = p.gamma1 * y.E_D - (p.mu3 + p.sigma3) * y.I_D
    dR_D = (p.gamma2 + u.u4) * y.E_D - (p.mu3 + p.gamma3) * y.R_D

    dM = p.nu1 * y.I_H + p.nu2 * y.I_F + p.nu3 * y.I_D - p.mu4 * y.M

    return StateVec(dS_H, dE_H, dI_H, dR_H, dS_F, dE_F, dI_F, dS_D, dE_D, dI_D, dR_D, dM)


def reference_adjoint_rhs(y, lam, u, w, p):
    f1, f2, f3, a1, a2, _ = reference_pressures(y, u, p)
    dlam_dM = p.C / (y.M + p.C) ** 2

    l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12 = lam

    d1 = (l1 - l2) * a1 * f1 + l1 * p.mu1
    d2 = -w.K2 + l2 * (p.mu1 + p.beta1 + p.beta2 + u.u4) - l3 * p.beta1 - l4 * (p.beta2 + u.u4)
    d3 = -w.K3 + l3 * (p.sigma1 + p.mu1) - l12 * p.nu1
    d4 = -l1 * p.beta3 + l4 * (p.beta3 + p.mu1)
    d5 = (l5 - l6) * f2 + l5 * p.mu2
    d6 = l6 * (p.mu2 + p.gamma) - l7 * p.gamma
    d7 = (
        (l1 - l2) * a1 * p.tau1 * y.S_H
        + (l5 - l6) * p.kappa1 * y.S_F
        + (l8 - l9) * a2 * p.psi1 * y.S_D / (1.0 + p.rho1)
        + l7 * (p.mu2 + p.sigma2)
        - l12 * p.nu2
    )
    d8 = w.K6 + (l8 - l9) * a2 * f3 + l8 * p.mu3
    d9 = (
        -w.K4
        + l9 * (p.mu3 + p.gamma1 + p.gamma2 + u.u4)
        - l10 * p.gamma1
        - l11 * (p.gamma2 + u.u4)
    )
    d10 = (
        -w.K5
        + (l1 - l2) * a1 * p.tau2 * y.S_H
        + (l5 - l6) * p.kappa2 * y.S_F
        + (l8 - l9) * a2 * p.psi2 * y.S_D / (1.0 + p.rho2)
        + l10 * (p.mu3 + p.sigma3)
        - l12 * p.nu3
    )
    d11 = -l8 * p.gamma3 + l11 * (p.mu3 + p.gamma3)
    d12 = (
        -w.K1
        + dlam_dM
        * (
            (l1 - l2) * a1 * p.tau3 * y.S_H
            + (l5 - l6) * p.kappa3 * y.S_F
            + (l8 - l9) * a2 * p.psi3 * y.S_D / (1.0 + p.rho3)
        )
        + l12 * p.mu4
    )
    return (d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12)


def reference_cost_gradient(w):
    """g = -dL/dy with the state weights and their signs written out by hand."""
    return np.array([0.0, -w.K2, -w.K3, 0.0, 0.0, 0.0, 0.0, w.K6, -w.K4, -w.K5, 0.0, -w.K1])


def dense_adjoint(y, u, w, p):
    """The adjoint as the dense affine system lam' = G lam + g: G = -(df/dy)^T from
    ``model.jacobian``, (12, 12) or (n, 12, 12), and g = -dL/dy, (12,)."""
    T, I = jacobian(y, u, p)
    return (0.0 - (T + I)).swapaxes(-1, -2), _cost_gradient(w)  # 0.0 - keeps an empty cell +0.0


def reference_rk4_step(f, y, t, h, za, zm, zb, *args):
    make = getattr(y, "_make", tuple)  # a NamedTuple, or an adjoint's plain tuple
    half = 0.5 * h
    k1 = f(t, y, za, *args)
    k2 = f(t + half, make(a + half * b for a, b in zip(y, k1)), zm, *args)
    k3 = f(t + half, make(a + half * b for a, b in zip(y, k2)), zm, *args)
    k4 = f(t + h, make(a + h * b for a, b in zip(y, k3)), zb, *args)
    sixth = h / 6.0
    return make(
        a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def reference_batch_step(Y, t, h, p):
    """The per-field batch step: the (12, N) states as twelve (N,) arrays through every
    stage, restacked after the step."""
    u = ZERO_CONTROL
    return np.array(reference_rk4_step(reference_rhs, StateVec(*Y), t, h, u, u, u, p))


def reference_euler_step(h, t, y, p, u=ZERO_CONTROL):
    return StateVec._make(a + h * b for a, b in zip(y, reference_rhs(t, y, u, p)))


def reference_march(step, y0, grid):
    """(states, clamped) with the clamp called after every step."""
    times = grid.times()
    states = [y0]
    y = y0
    clamped_total = 0
    for i in range(grid.n_steps):
        y, n_clamped = _clamp_state(step(i, times[i], y), times[i + 1])
        clamped_total += n_clamped
        states.append(y)
    _require_finite(y, "state", grid.tf)
    return states, clamped_total


def reference_rk4_forward(p, u_path, y0):
    grid = u_path.grid
    h = grid.h
    u = [ControlConst(*row) for row in u_path.values.tolist()]
    um = [ControlConst(*(0.5 * (a + b) for a, b in zip(ua, ub))) for ua, ub in zip(u, u[1:])]
    return reference_march(
        lambda i, t, y: reference_rk4_step(reference_rhs, y, t, h, u[i], um[i], u[i + 1], p),
        y0, grid,
    )


def reference_euler_forward(p, y0, grid):
    h = grid.h
    return reference_march(lambda i, t, y: reference_euler_step(h, t, y, p), y0, grid)


def reference_rk4_backward(f, state_traj, u_path, terminal):
    grid = state_traj.grid
    h, times = grid.h, grid.times()
    ys = list(map(StateVec._make, state_traj.values.tolist()))
    us = [ControlConst(*row) for row in u_path.values.tolist()]
    out = [terminal]
    lam = terminal
    for i in range(grid.n_steps, 0, -1):
        ym = StateVec._make(0.5 * (a + b) for a, b in zip(ys[i], ys[i - 1]))
        um = ControlConst(*(0.5 * (a + b) for a, b in zip(us[i - 1], us[i])))
        lam = reference_rk4_step(
            f, lam, times[i], -h, (ys[i], us[i]), (ym, um), (ys[i - 1], us[i - 1]))
        out.append(lam)
    out.reverse()
    return out


def hexes(values):
    """float.hex of every number in a tuple of floats or of (N,) arrays."""
    return [float(v).hex() for field in values for v in np.atleast_1d(field).tolist()]


def outcome(run, *args):
    """(states, clamped) of a march, the states an (n_nodes, 12) array (a trajectory's own),
    or the message of the IntegrationBlowupError it raised."""
    try:
        result = run(*args)
    except IntegrationBlowupError as err:
        return str(err)
    if isinstance(result, tuple):
        return np.array(result[0]), result[1]
    return result.values, result.clamped


def same_outcome(got, want):
    """The same message, or the same states, bit for bit, and clamp count."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    states, want_states = got[0], want[0]
    return (states.shape == want_states.shape and states.dtype == want_states.dtype
            and states.tobytes() == want_states.tobytes() and got[1] == want[1])


# --- inputs ---------------------------------------------------------------------------

log_factors = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                       min_size=len(PARAM_NAMES), max_size=len(PARAM_NAMES))
params = log_factors.map(lambda exps: TABLE2_ESTIMATED.replace(**{
    name: getattr(TABLE2_ESTIMATED, name) * 10.0 ** e for name, e in zip(PARAM_NAMES, exps)}))
unit = st.floats(min_value=0.0, max_value=1.0)
controls = st.builds(ControlConst, unit, unit, unit, unit)
component = st.floats(min_value=0.0, max_value=1e6)
states = st.builds(StateVec, *[component] * 12)
# a march's state between steps: also zero, subnormal, or in the band the clamp lets through
edge_states = st.builds(StateVec, *[component | st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1060])
                                    | st.floats(min_value=-CLAMP_TOL, max_value=-KEEP_TOL)] * 12)
# a failed ensemble row keeps stepping: its states go negative or overflow to inf and NaN
batch_states = st.builds(StateVec, *[st.floats(min_value=-1e6, max_value=1e6)
                                     | st.sampled_from([1e300, -1e300])] * 12)
adjoints = st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 12)
weights = st.builds(Weights, *[st.floats(min_value=0.0, max_value=10.0)] * 6,
                    *[st.floats(min_value=0.1, max_value=100.0)] * 4)
OVER_ONE = ControlConst(0.7, 0.6, 0.5, 0.2)  # u1 + u3 > 1 and u1 + u2 > 1: both factors clamp


# --- pointwise kernels ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(y=states, u=controls, p=params)
@example(y=seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), u=OVER_ONE, p=TABLE2_ESTIMATED)
def test_force_terms_and_rhs_equal_reference_bits(y, u, p):
    got = force_terms(y, u, p)
    assert type(got) is ForceTerms
    assert hexes(got) == hexes(reference_force_terms(y, u, p))
    got = rhs(0.0, y, u, p)
    assert type(got) is StateVec
    assert hexes(got) == hexes(reference_rhs(0.0, y, u, p))


@settings(max_examples=100, deadline=None)
@given(y=states, u=controls, p=params)
@example(y=seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), u=OVER_ONE, p=TABLE2_ESTIMATED)
def test_kernels_read_only_the_parameter_tuple(y, u, p):
    """An object that carries only ``rates`` gives the ParamSet's bits: the kernels read
    no field of their own, so the one tuple holds every parameter they use."""
    only = SimpleNamespace(rates=p.rates)
    assert hexes(force_terms(y, u, only)) == hexes(force_terms(y, u, p))
    assert hexes(rhs(0.0, y, u, only)) == hexes(rhs(0.0, y, u, p))
    # an RK4 stage's tuple, and a control row of ``ControlPath.values.tolist()``
    assert hexes(rhs(0.0, tuple(y), list(u), only)) == hexes(rhs(0.0, y, u, p))


def test_over_one_controls_clamp_both_factors():
    ft = force_terms(seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), OVER_ONE, TABLE2_ESTIMATED)
    assert ft.a1 == 0.0 and ft.a2 == 0.0


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(states, params), min_size=1, max_size=8), u=controls)
@example(rows=[(seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), TABLE2_ESTIMATED)], u=OVER_ONE)
def test_rhs_on_arrays_equals_reference_bits(rows, u):
    y = StateVec(*np.array([list(s) for s, _ in rows]).T)
    p = SimpleNamespace(**{name: np.array([getattr(q, name) for _, q in rows])
                           for name in PARAM_NAMES})
    p.rates = rates_of(p)
    got = rhs(0.0, y, u, p)
    assert type(got) is StateVec
    assert hexes(got) == hexes(reference_rhs(0.0, y, u, p))


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(batch_states, params), min_size=1, max_size=8),
       h=st.floats(min_value=1e-3, max_value=1.0))
@example(rows=[(seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), TABLE2_ESTIMATED),
               (StateVec(*[1e300] * 12), TABLE2_ESTIMATED),
               (StateVec(*[-1.0] * 12), TABLE2_ESTIMATED)], h=0.02)
def test_stacked_batch_step_equals_per_field_step_bits(rows, h):
    Y = np.array([list(s) for s, _ in rows]).T
    p = SimpleNamespace(**{name: np.array([getattr(q, name) for _, q in rows])
                           for name in PARAM_NAMES})
    p.rates = rates_of(p)
    u = ZERO_CONTROL
    with np.errstate(all="ignore"):
        got = rk4_step(_stacked_rhs, Y, 0.0, h, u, u, u, p)
        want = reference_batch_step(Y, 0.0, h, p)
    assert type(got) is np.ndarray and got.shape == Y.shape
    assert hexes(got) == hexes(want)


@settings(max_examples=200, deadline=None)
@given(y=edge_states, za=controls, zm=controls, zb=controls, p=params,
       t=st.floats(min_value=0.0, max_value=50.0), h=st.floats(min_value=1e-4, max_value=1.0))
@example(y=seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), za=OVER_ONE, zm=ZERO_CONTROL,
         zb=OVER_ONE, p=TABLE2_ESTIMATED, t=0.0, h=0.02)
@example(y=StateVec(-1e-6, -0.0, 5e-324, -1e-9, *[0.0] * 8), za=ZERO_CONTROL, zm=OVER_ONE,
         zb=ZERO_CONTROL, p=TABLE2_ESTIMATED, t=3.0, h=0.014)
def test_state_steps_equal_reference_steps_bits(y, za, zm, zb, p, t, h):
    """The field-by-field RK4 and Euler steps give the generic steps' bits, signed zeros
    included, on states at zero, subnormal or just inside the clamp band, stage controls as
    a march passes them (rows of floats) and any step."""
    rows = [list(u) for u in (za, zm, zb)]
    got = _rk4_state_step(rhs, y, t, h, *rows, p)
    assert type(got) is StateVec
    assert hexes(got) == hexes(reference_rk4_step(reference_rhs, y, t, h, za, zm, zb, p))
    got = _euler_step(rhs, y, t, h, *rows, p)
    assert type(got) is StateVec
    assert hexes(got) == hexes(reference_euler_step(h, t, y, p, za))


@settings(max_examples=200, deadline=None)
@given(y=states, lam=adjoints, u=controls, w=weights, p=params)
@example(y=seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), lam=(0.0,) * 12,
         u=OVER_ONE, w=Weights(), p=TABLE2_ESTIMATED)
def test_adjoint_rhs_within_rounding_of_reference(y, lam, u, w, p):
    """G lam + g differs from the hand-expanded adjoint by rounding only."""
    got = adjoint_rhs(y, lam, u, w, p)
    assert type(got) is tuple and len(got) == 12 and all(type(v) is float for v in got)
    G, g = dense_adjoint(y, u, w, p)
    scale = np.abs(G) @ np.abs(lam) + np.abs(g)
    # below the smallest normal double, rounding is absolute rather than relative
    bound = 1e-13 * scale + np.finfo(float).tiny
    assert (np.abs(np.subtract(got, reference_adjoint_rhs(y, lam, u, w, p))) <= bound).all()


@given(w=weights)
@example(w=Weights())
@example(w=Weights(K1=0.0, K2=0.0, K3=0.0, K4=0.0, K5=0.0))
def test_cost_gradient_equals_hand_written_reference(w):
    """``running_cost`` at the unit states gives the hand-written gradient: the same bits where
    a weight is positive, and +0.0 where a zero weight's -K gave -0.0."""
    got, want = _cost_gradient(w), reference_cost_gradient(w)
    assert (got == want).all()
    assert hexes(got) == [(v + 0.0).hex() for v in want.tolist()]


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(states, controls), min_size=1, max_size=8), w=weights, p=params)
@example(rows=[(seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), OVER_ONE)], w=Weights(),
         p=TABLE2_ESTIMATED)
def test_adjoint_system_on_arrays_equals_per_point_calls(rows, w, p):
    """``adjoint_parts`` on (n,) arrays gives, at each point, the bits of a call on floats."""
    y = StateVec(*np.array([s for s, _ in rows]).T)
    u = ControlConst(*np.array([c for _, c in rows]).T)
    a, flows = adjoint_parts(y, u, w, p)
    assert len(flows) == 14 and all(np.shape(d) == (len(rows),) for *_, d in flows)
    for i, (s, c) in enumerate(rows):
        a_point, flows_point = adjoint_parts(s, c, w, p)
        assert hexes([a.ravel()]) == hexes([a_point.ravel()])
        assert [f[:3] for f in flows] == [f[:3] for f in flows_point]
        assert hexes([d[i] for *_, d in flows]) == hexes([d for *_, d in flows_point])


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.tuples(states, controls), min_size=1, max_size=8), w=weights, p=params)
@example(rows=[(seeded_state(TABLE2_ESTIMATED, *DEFAULT_SEEDING), OVER_ONE)], w=Weights(),
         p=TABLE2_ESTIMATED)
def test_adjoint_parts_assemble_to_adjoint_system_bits(rows, w, p):
    """The constant part with each varying flow written in is the dense system's [[G, g],
    [0, 0]] from ``model.jacobian`` (``dense_adjoint``), signed zeros included."""
    y = StateVec(*np.array([s for s, _ in rows]).T)
    u = ControlConst(*np.array([c for _, c in rows]).T)
    a, flows = adjoint_parts(y, u, w, p)
    assert len({(j, c) for src, dst, j, _ in flows for c in (src, dst)}) == 28  # one write each
    dense = np.repeat(a[np.newaxis], len(rows), axis=0)
    for src, dst, j, d in flows:
        dense[:, j, src] = a[j, src] + d
        dense[:, j, dst] = a[j, dst] - d
    G, g = dense_adjoint(y, u, w, p)
    assert hexes([dense[:, :12, :12].ravel()]) == hexes([G.ravel()])
    assert hexes([dense[:, :12, 12].ravel()]) == hexes([np.tile(g, len(rows))])
    assert hexes([dense[:, 12].ravel()]) == hexes([np.zeros(13 * len(rows))])


# --- marches ----------------------------------------------------------------------------


grids = st.builds(TimeGrid, st.just(0.0), st.floats(min_value=1.0, max_value=20.0),
                  st.integers(min_value=5, max_value=200))


def random_path(grid, seed):
    return ControlPath(grid, np.random.default_rng(seed).uniform(0.0, 1.0, (grid.n_nodes, 4)))


@settings(max_examples=60, deadline=None)
@given(p=params, grid=grids, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rk4_forward_equals_reference_march(p, grid, seed):
    path = random_path(grid, seed)
    y0 = seeded_state(p, *DEFAULT_SEEDING)
    got = outcome(rk4_forward, p, path, y0)
    assert same_outcome(got, outcome(reference_rk4_forward, p, path, y0))


@settings(max_examples=60, deadline=None)
@given(p=params, grid=grids)
def test_euler_forward_equals_reference_march(p, grid):
    y0 = seeded_state(p, *DEFAULT_SEEDING)
    got = outcome(euler_forward, p, y0, grid)
    assert same_outcome(got, outcome(reference_euler_forward, p, y0, grid))


@settings(max_examples=30, deadline=None)
@given(p=params, w=weights, lam=adjoints, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rk4_backward_within_rounding_of_reference_march(p, w, lam, seed):
    """The propagator march meets the stage-by-stage RK4 march to 1e-12 of each column's size."""
    grid = TimeGrid(0.0, 5.0, 100)
    path = random_path(grid, seed)
    y0 = seeded_state(p, *DEFAULT_SEEDING)
    try:
        traj = rk4_forward(p, path, y0)
    except IntegrationBlowupError:
        return
    want = np.array(reference_rk4_backward(
        lambda t, lam, yu: reference_adjoint_rhs(yu[0], lam, yu[1], w, p), traj, path, lam))
    try:
        got = rk4_backward(lambda y, u: adjoint_parts(y, u, w, p), traj, path, lam)
    except IntegrationBlowupError:
        assert not np.isfinite(want[0]).all()
        return
    assert got.shape == (grid.n_nodes, 12)
    assert (np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0) + np.finfo(float).tiny).all()


def reference_block_backward(system, state_traj, u_path, terminal):
    """``rk4_backward`` as it was built per block: ``system``'s dense (G, g) at the block's
    nodes and then its step midpoints, copied into a zeroed (13, 13) generator stack, stepped
    by ``rk4_step`` from the broadcast identity, then lam = P @ lam + q step by step."""
    grid = state_traj.grid
    n, minus_h = grid.n_steps, -grid.h
    ys, us = state_traj.values, u_path.values
    lam = np.empty((grid.n_nodes, 12))
    lam[n] = row = np.array(terminal, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for end in range(n, 0, -BLOCK):
            start = max(end - BLOCK, 0)
            steps = end - start
            y, u = ys[start:end + 1], us[start:end + 1]
            G, g = system(StateVec._make(np.vstack([y, 0.5 * (y[1:] + y[:-1])]).T),
                          ControlConst._make(np.vstack([u, 0.5 * (u[1:] + u[:-1])]).T))
            a = np.zeros((len(G), 13, 13))
            a[:, :12, :12], a[:, :12, 12] = G, g
            phi = rk4_step(lambda t, z, a_, _: a_ @ z,
                           np.broadcast_to(np.eye(13), (steps, 13, 13)), 0.0, minus_h,
                           a[1:steps + 1], a[steps + 1:], a[:steps], None)
            for k in range(end - 1, start - 1, -1):
                lam[k] = row = phi[k - start, :12, :12] @ row + phi[k - start, :12, 12]
    return lam


@settings(max_examples=60, deadline=None)
@given(p=params, w=weights, lam=adjoints, mask=st.sampled_from(sorted(STRATEGY_MASKS)),
       n=st.one_of(st.integers(min_value=1, max_value=BLOCK - 1),
                   st.integers(min_value=BLOCK + 1, max_value=4 * BLOCK).filter(
                       lambda n: n % BLOCK)),
       h=st.floats(min_value=0.005, max_value=0.05),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(p=TABLE2_ESTIMATED, w=Weights(), lam=(1.0,) * 12, mask="A", n=BLOCK - 1,
         h=0.02, seed=1)
@example(p=TABLE2_ESTIMATED, w=Weights(), lam=(1.0,) * 12, mask="D", n=2 * BLOCK + 1,
         h=0.02, seed=2)
def test_rk4_backward_equals_per_block_dense_assembly_bits(p, w, lam, mask, n, h, seed):
    """Evaluated once per solve as a constant part and varying entries, the adjoint system
    gives the per-block dense assembly's lam to the bit, for a short last block, treatment
    u4 on, and every strategy's mask."""
    grid = TimeGrid(0.0, n * h, n)
    path = ControlPath(grid, np.where(STRATEGY_MASKS[mask],
                                      np.random.default_rng(seed).uniform(0.0, 1.0, (n + 1, 4)),
                                      0.0))
    try:
        traj = rk4_forward(p, path, seeded_state(p, *DEFAULT_SEEDING))
    except IntegrationBlowupError:
        return
    want = reference_block_backward(lambda y, u: dense_adjoint(y, u, w, p), traj, path, lam)
    try:
        got = rk4_backward(lambda y, u: adjoint_parts(y, u, w, p), traj, path, lam)
    except IntegrationBlowupError:
        assert not np.isfinite(want).all()
        return
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("march,stages", [("rk4", 4), ("euler", 1)])
def test_marches_call_the_global_rhs_once_a_stage(monkeypatch, march, stages):
    """A march reads ``integrate.rhs`` at call time, so a wrapper installed after import (a
    tracer's counter) sees every stage: 4 calls a step for RK4 and 1 for Euler."""
    calls = []

    def counting(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(integrate, "rhs", counting)
    p, grid = TABLE2_ESTIMATED, TimeGrid(0.0, 5.0, 37)
    y0 = seeded_state(p, *DEFAULT_SEEDING)
    if march == "rk4":
        traj = rk4_forward(p, random_path(grid, 5), y0)
    else:
        traj = euler_forward(p, y0, grid)
    assert traj.values.shape == (grid.n_nodes, 12) and len(calls) == stages * grid.n_steps
    assert not traj.values.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0] = 1.0


@pytest.mark.parametrize("march", ["rk4", "euler"])
def test_state_clamp_path_equals_reference_march(march):
    """A coarse step undershoots a tiny seed: the rare clamp branch runs and counts as before."""
    p = TABLE2_ESTIMATED
    y0 = seeded_state(p)._replace(I_H=8.5e-8)
    grid = TimeGrid(0.0, 10.0, 7)
    if march == "rk4":
        path = ControlPath.constant(grid)
        got = outcome(rk4_forward, p, path, y0)
        want = outcome(reference_rk4_forward, p, path, y0)
    else:
        got = outcome(euler_forward, p, y0, grid)
        want = outcome(reference_euler_forward, p, y0, grid)
    assert not isinstance(got, str) and got[1] > 0  # it ran to the end and clamped
    assert same_outcome(got, want)
    assert not got[0].flags.writeable  # the trajectory's own array
    with pytest.raises(ValueError):
        got[0][0, 0] = 1.0
