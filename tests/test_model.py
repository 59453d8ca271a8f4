"""Parameterization, infection pressures and right-hand side."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabictl.calibrate import FitConfig, IncidenceSeries
from rabictl.errors import ConfigError
from rabictl.model import (
    DEFAULT_SEEDING, ControlConst, StateVec, ZERO_CONTROL, _transitions, force_terms, jacobian, rhs,
    seeded_state,
)
from rabictl import integrate
from rabictl.integrate import ControlPath, TimeGrid, rk4_forward
from rabictl.optctl import Weights, forward_backward_sweep
from rabictl.params import PARAM_NAMES, PRESETS, TABLE2_ESTIMATED, ParamSet, rates_of
from rabictl.repro import effective_r
from rabictl.sensitivity import ParamRange, uniform_ranges

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
controls = st.floats(min_value=0.0, max_value=1.0)


def states(draw_from=finite):
    return st.builds(StateVec, *([draw_from] * 12))


# --- ParamSet -------------------------------------------------------------------


def test_param_names_cover_all_fields():
    assert len(PARAM_NAMES) == 33
    assert "theta1" in PARAM_NAMES and "C" in PARAM_NAMES


@pytest.mark.parametrize("name", ["theta1", "mu4", "C", "rho2"])
def test_params_must_be_positive(name):
    with pytest.raises(ConfigError, match="strictly positive"):
        TABLE2_ESTIMATED.replace(**{name: 0.0})


def test_recruitment_must_exceed_mortality():
    with pytest.raises(ConfigError, match="must exceed mortality"):
        TABLE2_ESTIMATED.replace(theta1=0.01, )


def test_replace_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown parameter"):
        TABLE2_ESTIMATED.replace(theta9=1.0)


@settings(max_examples=50, deadline=None)
@given(mu1=st.floats(min_value=1e-3, max_value=1.0))
def test_replace_never_keeps_stale_rates(mu1):
    p = TABLE2_ESTIMATED
    q = p.replace(mu1=mu1)
    assert p.rates == rates_of(p) and q.rates == rates_of(q)
    assert q.rates[0] == mu1 + p.beta1 + p.beta2
    # the fields close the tuple, in PARAM_NAMES order, with the replaced value in place
    assert len(q.rates) == 11 + len(PARAM_NAMES)
    assert q.rates[11:] == tuple(q.as_dict().values()) == tuple(
        mu1 if name == "mu1" else getattr(p, name) for name in PARAM_NAMES)


@pytest.mark.parametrize("value", ["0.0005", True, np.array([4e-4, 5e-4]), None],
                         ids=["string", "bool", "array", "none"])
def test_non_number_parameter_is_config_error(value):
    with pytest.raises(ConfigError, match="parameter 'tau1' must be a number, got "):
        TABLE2_ESTIMATED.replace(tau1=value)


def entry_points(value):
    """Each library entry point that takes a number, given ``value`` in one of its fields."""
    fit = {"free": ("theta1",), "bounds": {"theta1": (1.0, 3.0)}, "x0": {"theta1": 2.0}}
    sweep = (TABLE2_ESTIMATED, Weights(), seeded_state(TABLE2_ESTIMATED), TimeGrid(0.0, 0.1, 1))
    return [
        lambda: TimeGrid(value, 1.0, 10), lambda: TimeGrid(0.0, value, 10),
        lambda: TimeGrid(0.0, 1.0, value), lambda: Weights(K1=value), lambda: Weights(A4=value),
        lambda: FitConfig(**fit, tol=value), lambda: FitConfig(**fit, dt=value),
        lambda: FitConfig(**{**fit, "bounds": {"theta1": (value, 3.0)}}),
        lambda: FitConfig(**{**fit, "bounds": {"theta1": (1.0, value)}}),
        lambda: FitConfig(**{**fit, "x0": {"theta1": value}}),
        lambda: FitConfig(**{**fit, "bounds": {"theta1": value}}),
        lambda: ParamRange("tau1", "uniform", value, 1.0),
        lambda: ParamRange("tau1", "uniform", 0.0, value),
        lambda: ParamRange("tau1", "normal", value, 1.0),
        lambda: ParamRange("tau1", "normal", 1.0, value),
        lambda: TABLE2_ESTIMATED.replace(tau1=value), lambda: ControlConst(u3=value).validate(),
        lambda: seeded_state(TABLE2_ESTIMATED)._replace(M=value).validate(),
        lambda: ControlPath(TimeGrid(0.0, 1.0, 1), [[0.0, value, 0.0, 0.0]] * 2),
        lambda: IncidenceSeries((1990, value), (1.0, 2.0)),
        lambda: IncidenceSeries((1990, 1991), (value, 2.0)),
        lambda: uniform_ranges(TABLE2_ESTIMATED, value),
        lambda: TimeGrid(0.0, 1.0, 10).node_at(value),
        lambda: forward_backward_sweep(*sweep, omega=value, max_iter=1),
        lambda: forward_backward_sweep(*sweep, tol=value, max_iter=1),
    ]


@settings(max_examples=100, derandomize=True, database=None)
@given(value=st.one_of(st.floats(), st.sampled_from(
    [sign * n for sign in (1, -1) for n in (2**1024, 10**400, 10**5000)]),
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.floats(), max_size=1).map(tuple)))
@example(10**400)  # overflowed in TimeGrid, ParamSet and ControlPath; other entry points took it
@example(-10**5000)  # past repr's 4300 digits: echoing it in a message raised ValueError
@example("0.5")  # a TypeError in six entry points; ControlPath read it as the number 0.5
@example((1.0,))  # a ValueError in FitConfig's bounds and ControlPath
def test_any_number_is_returned_or_config_error(value):
    """A float, or an int past a double, which passes ``0 <= value < inf`` and then overflows,
    or a value that is no number (a string, a bool, None or a short tuple) is accepted or
    refused with ConfigError by every entry point, never another exception."""
    for build in entry_points(value):
        try:
            build()
        except ConfigError:
            pass


def assert_float_fields(p):
    assert all(type(getattr(p, name)) is float for name in PARAM_NAMES)
    assert all(type(rate) is float for rate in p.rates)


def test_numpy_scalar_parameters_are_kept_as_floats(monkeypatch):
    p = ParamSet(**{name: np.float64(v) for name, v in TABLE2_ESTIMATED.as_dict().items()})
    assert_float_fields(p)
    assert p == TABLE2_ESTIMATED
    assert type(TABLE2_ESTIMATED.replace(tau1=np.array(5e-4)).tau1) is float  # a 0-d array
    # a ratio of effective_r, as a threshold draw scales its parameters
    assert {type(v) for v in vars(effective_r(p)).values()} == {float}
    ratio = 1.2 / effective_r(p).Re
    scaled = p.replace(**{n: getattr(p, n) * np.float64(ratio) for n in ("kappa1", "psi1")})
    assert_float_fields(scaled)
    g = TimeGrid(0.0, 1.0, 10)
    stepped = []  # every state the march hands to rhs

    def recording_rhs(y, u, p):
        stepped.append(y)
        return rhs(y, u, p)

    monkeypatch.setattr(integrate, "rhs", recording_rhs)
    states = rk4_forward(scaled, ControlPath.constant(g), seeded_state(scaled, *DEFAULT_SEEDING))
    assert len(stepped) == 4 * g.n_steps
    assert all(type(v) is float for y in stepped for v in y)
    assert states.values.dtype == float


# --- saturation -----------------------------------------------------------------


def saturation(M, C):
    """The environmental response M/(M+C) as force_terms computes it."""
    p = TABLE2_ESTIMATED.replace(C=C)
    return force_terms(seeded_state(p, M0=M), ZERO_CONTROL, p).lamM


def test_saturation_zero_numerator():
    assert saturation(0.0, 0.003) == 0.0


def test_saturation_half_at_equal_args():
    assert saturation(0.25, 0.25) == 0.5


def test_saturation_hand_value():
    # 0.297 / (0.297 + 0.003) = 0.99
    assert saturation(0.297, 0.003) == pytest.approx(0.99, rel=1e-12)


@given(M=st.floats(min_value=0.0, max_value=1e12), C=st.floats(min_value=1e-9, max_value=1e3))
def test_saturation_bounded(M, C):
    v = saturation(M, C)
    assert 0.0 <= v <= 1.0
    if M < C / np.finfo(float).eps * 0.1:  # strictly below 1 until rounding
        assert v < 1.0


# --- force terms ----------------------------------------------------------------


def test_forces_vanish_without_infection(p_est):
    y = seeded_state(p_est)
    ft = force_terms(y, ZERO_CONTROL, p_est)
    assert ft.chi1 == ft.chi2 == ft.chi3 == 0.0
    assert ft.lamM == 0.0


def test_chi1_clamped_when_u1_plus_u3_exceeds_one(p_est):
    y = seeded_state(p_est)._replace(I_F=100.0, I_D=100.0, M=5.0)
    ft = force_terms(y, ControlConst(1.0, 0.0, 1.0, 0.0), p_est)
    assert ft.chi1 == 0.0
    assert ft.chi2 > 0.0


def test_chi1_hand_value(p_base):
    y = seeded_state(p_base)._replace(I_F=10.0)
    ft = force_terms(y, ZERO_CONTROL, p_base)
    # tau1 = 0.0004, so chi1 = 0.0004 * 10
    assert ft.chi1 == pytest.approx(0.004, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    y=states(),
    u=st.builds(ControlConst, controls, controls, controls, controls),
    bump=st.floats(min_value=0.0, max_value=1e4),
)
def test_forces_monotone_in_infectious_inputs(y, u, bump):
    p = TABLE2_ESTIMATED
    base = force_terms(y, u, p)
    for fieldname in ("I_F", "I_D", "M"):
        up = force_terms(y._replace(**{fieldname: getattr(y, fieldname) + bump}), u, p)
        assert up.chi1 >= base.chi1
        assert up.chi2 >= base.chi2
        assert up.chi3 >= base.chi3


@settings(max_examples=50, deadline=None)
@given(
    y=states(),
    u=st.builds(ControlConst, controls, controls, controls, controls),
    du=st.floats(min_value=0.0, max_value=1.0),
)
def test_forces_non_increasing_in_controls(y, u, du):
    p = TABLE2_ESTIMATED
    base = force_terms(y, u, p)
    for fieldname in ("u1", "u2", "u3"):
        lifted = ControlConst(
            **{f: min(1.0, v + du) if f == fieldname else v for f, v in zip(u._fields, u)}
        )
        up = force_terms(y, lifted, p)
        assert up.chi1 <= base.chi1 + 1e-15
        assert up.chi2 == base.chi2
        assert up.chi3 <= base.chi3 + 1e-15


@pytest.mark.parametrize("rho_name", ["rho1", "rho2", "rho3"])
def test_chi3_strictly_decreasing_in_deterrence(p_est, rho_name):
    y = seeded_state(p_est)._replace(I_F=50.0, I_D=50.0, M=1.0)
    lo = force_terms(y, ZERO_CONTROL, p_est)
    hi = force_terms(y, ZERO_CONTROL, p_est.replace(**{rho_name: 2 * getattr(p_est, rho_name)}))
    assert hi.chi3 < lo.chi3


# --- rhs ------------------------------------------------------------------------


def test_rhs_zero_at_dfe(p_est):
    dy = rhs(seeded_state(p_est), ZERO_CONTROL, p_est)
    assert max(abs(v) for v in dy) < 1e-9


def test_rhs_susceptibles_only(p_est):
    y = StateVec(1000.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    dy = rhs(y, ZERO_CONTROL, p_est)
    assert dy.S_H == p_est.theta1 - p_est.mu1 * 1000.0
    assert dy.E_H == 0.0
    assert dy.I_H == 0.0


def test_environment_equation(p_est):
    y = StateVec(0, 0, 3.0, 0, 0, 0, 5.0, 0, 0, 7.0, 0, 2.0)
    dy = rhs(y, ZERO_CONTROL, p_est)
    expected = p_est.nu1 * 3.0 + p_est.nu2 * 5.0 + p_est.nu3 * 7.0 - p_est.mu4 * 2.0
    assert dy.M == pytest.approx(expected, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    y=states(),
    u=st.builds(ControlConst, controls, controls, controls, controls),
)
def test_rhs_population_sum_rules(y, u):
    p = TABLE2_ESTIMATED
    dy = rhs(y, u, p)
    scale = max(1.0, max(abs(v) for v in y))

    n_h = y.S_H + y.E_H + y.I_H + y.R_H
    human = dy.S_H + dy.E_H + dy.I_H + dy.R_H
    assert human == pytest.approx(p.theta1 - p.mu1 * n_h - p.sigma1 * y.I_H, abs=1e-9 * scale)

    n_f = y.S_F + y.E_F + y.I_F
    free = dy.S_F + dy.E_F + dy.I_F
    assert free == pytest.approx(p.theta2 - p.mu2 * n_f - p.sigma2 * y.I_F, abs=1e-9 * scale)

    n_d = y.S_D + y.E_D + y.I_D + y.R_D
    dom = dy.S_D + dy.E_D + dy.I_D + dy.R_D
    assert dom == pytest.approx(p.theta3 - p.mu3 * n_d - p.sigma3 * y.I_D, abs=1e-9 * scale)


# --- Jacobian -------------------------------------------------------------------


def draws(p, n, seed):
    """``n`` states around the seeded state, M = 0 in the first, and controls whose sums pass 1."""
    rng = np.random.default_rng(seed)
    y = np.array(seeded_state(p, *DEFAULT_SEEDING)) * rng.uniform(0.0, 2.0, (n, 12))
    y[0, 11] = 0.0
    return StateVec._make(y.T), ControlConst._make(rng.uniform(0.0, 0.8, (n, 4)).T)


def central_differences(y, u, p):
    """d rhs_i / d y_j by central differences, step 1e-6 of max(1, |y_j|), and a bound on
    their error: 1e-6 of each for the truncation of M/(M+C), plus the rounding of rhs_i
    amplified by 1 / step_j."""
    y = np.array(y, dtype=float)  # (12,) or (12, n)
    columns, noise = [], []
    for j in range(12):
        step = 1e-6 * np.maximum(1.0, np.abs(y[j]))
        up, dn = y.copy(), y.copy()
        up[j] += step
        dn[j] -= step
        f_up, f_dn = np.array(rhs(StateVec(*up), u, p)), np.array(rhs(StateVec(*dn), u, p))
        columns.append((f_up - f_dn) / (2.0 * step))
        noise.append(1e-15 * (np.abs(f_up) + np.abs(f_dn)) / step)
    fd, noise = (np.moveaxis(np.array(a), (0, 1), (-1, -2)) for a in (columns, noise))  # [..., i, j]
    return fd, 1e-6 * np.abs(fd) + noise


@pytest.mark.parametrize("preset", ["estimated", "baseline"])
def test_jacobian_matches_central_differences(preset):
    p = PRESETS[preset]
    y, u = draws(p, 16, seed=5)
    T, I = jacobian(y, u, p)
    fd, bound = central_differences(y, u, p)
    assert T.shape == I.shape == fd.shape == (16, 12, 12)
    assert (np.abs(T + I - fd) <= bound).all()
    for k in (0, 7):
        point_y, point_u = StateVec(*(float(v[k]) for v in y)), ControlConst(*(float(v[k]) for v in u))
        T_k, I_k = jacobian(point_y, point_u, p)
        fd_k, bound_k = central_differences(point_y, point_u, p)
        assert T_k.shape == (12, 12)
        assert (np.abs(T_k + I_k - fd_k) <= bound_k).all()


def test_jacobian_on_arrays_equals_per_point_calls(p_est):
    y, u = draws(p_est, 12, seed=6)
    T, I = jacobian(y, u, p_est)
    for k in range(12):
        T_k, I_k = jacobian(StateVec(*(float(v[k]) for v in y)),
                            ControlConst(*(float(v[k]) for v in u)), p_est)
        assert T[k].tobytes() == T_k.tobytes() and I[k].tobytes() == I_k.tobytes()


def test_transitions_do_not_depend_on_the_state(p_est):
    u = ControlConst(0.1, 0.2, 0.3, 0.4)
    T_dfe, I_dfe = jacobian(seeded_state(p_est), u, p_est)
    T_seeded, I_seeded = jacobian(seeded_state(p_est, *DEFAULT_SEEDING), u, p_est)
    assert T_dfe.tobytes() == T_seeded.tobytes()
    assert not np.array_equal(I_dfe, I_seeded)


@pytest.mark.parametrize("preset", ["estimated", "baseline"])
def test_rhs_is_transitions_plus_recruitment_plus_incidence(preset):
    """rhs(y) = T y + theta + incidence, the incidence a*f*S leaving each S for the next E."""
    p = PRESETS[preset]
    y, u = draws(p, 16, seed=8)
    T, _ = jacobian(y, u, p)
    ft = force_terms(y, u, p)
    parts = np.zeros((3, 16, 12))
    parts[0] = np.einsum("nij,jn->ni", T, np.array(y))
    for s, theta, inc in ((0, p.theta1, ft.chi1 * y.S_H), (4, p.theta2, ft.chi2 * y.S_F),
                          (7, p.theta3, ft.chi3 * y.S_D)):
        parts[1, :, s] = theta
        parts[2, :, s] -= inc
        parts[2, :, s + 1] += inc
    got = np.array(rhs(y, u, p)).T
    assert (np.abs(got - parts.sum(axis=0)) <= 1e-13 * np.abs(parts).sum(axis=0)).all()


def reference_transitions(u4, p):
    """The linear flows of ``rhs``, listed by hand entry by entry: the oracle for T.

    Each outflow rate is summed in ``params.rates_of``'s order, then u4 is added, so
    every entry is the double the model computes.
    """
    T = np.zeros(np.shape(u4) + (12, 12))
    for (i, j), rate in {
        (0, 0): -p.mu1, (0, 3): p.beta3, (1, 1): -(p.mu1 + p.beta1 + p.beta2 + u4),
        (2, 1): p.beta1, (2, 2): -(p.sigma1 + p.mu1), (3, 1): p.beta2 + u4,
        (3, 3): -(p.beta3 + p.mu1), (4, 4): -p.mu2, (5, 5): -(p.mu2 + p.gamma),
        (6, 5): p.gamma, (6, 6): -(p.mu2 + p.sigma2), (7, 7): -p.mu3, (7, 10): p.gamma3,
        (8, 8): -(p.mu3 + p.gamma1 + p.gamma2 + u4), (9, 8): p.gamma1,
        (9, 9): -(p.mu3 + p.sigma3), (10, 8): p.gamma2 + u4, (10, 10): -(p.mu3 + p.gamma3),
        (11, 2): p.nu1, (11, 6): p.nu2, (11, 9): p.nu3, (11, 11): -p.mu4,
    }.items():
        T[..., i, j] = rate
    return T


def hexes(a):
    """float.hex of every entry, so that -0.0 and 0.0 count as different."""
    return [float(v).hex() for v in np.ravel(a).tolist()]


log_factors = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                       min_size=len(PARAM_NAMES), max_size=len(PARAM_NAMES))
param_sets = log_factors.map(lambda exps: TABLE2_ESTIMATED.replace(**{
    name: getattr(TABLE2_ESTIMATED, name) * 10.0 ** e for name, e in zip(PARAM_NAMES, exps)}))
control_sets = st.builds(ControlConst, controls, controls, controls, controls)


@settings(max_examples=100, deadline=None)
@given(p=param_sets, u=control_sets, rows=st.lists(control_sets, min_size=1, max_size=6))
def test_transitions_equal_the_hand_listed_flows_bits(p, u, rows):
    """T, built from ``rhs`` at unit states, equals the hand-listed flows for float
    controls, (n,) controls and the zero control."""
    y = seeded_state(p, *DEFAULT_SEEDING)
    u_rows = ControlConst(*map(np.array, zip(*rows)))
    for c in (u, u_rows, ZERO_CONTROL):
        T, _ = jacobian(y, c, p)
        assert hexes(T) == hexes(reference_transitions(c.u4, p))


def test_cached_transitions_are_read_only(p_est):
    cached = _transitions(p_est.rates)
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 0.0


def test_state_validation():
    with pytest.raises(ConfigError, match="negative"):
        StateVec(*([1.0] * 11 + [-0.5])).validate()
    StateVec(*([0.0] * 12)).validate()


def test_control_validation():
    with pytest.raises(ConfigError, match="u2"):
        ControlConst(0.0, 1.5, 0.0, 0.0).validate()
    ControlConst(1.0, 0.0, 0.5, 1.0).validate()


@pytest.mark.parametrize("u, message", [
    # the fields broadcast to points; the earliest point's first bad control is named
    (ControlConst(np.array([0.5, 2.0]), np.array([np.nan, 0.5]), 0.0, 0.0), "u2 .*, got nan"),
    (ControlConst(np.array([0.5, 2.0]), 0.0, np.array([[0.0], [-0.5]]), 0.0), "u1 .*, got 2.0"),
    (ControlConst(2, 0, 0, 0), "u1 .*, got 2$"),  # an int field prints as given
])
def test_control_validation_scans_point_by_point(u, message):
    with pytest.raises(ConfigError, match=message):
        u.validate()
