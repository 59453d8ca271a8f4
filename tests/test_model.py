"""Parameterization, infection pressures and right-hand side."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabictl.errors import ConfigError
from rabictl.model import ControlConst, StateVec, ZERO_CONTROL, force_terms, rhs, saturation, seeded_state
from rabictl.params import PARAM_NAMES, TABLE2_ESTIMATED, ParamSet

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


def test_json_round_trip():
    text = TABLE2_ESTIMATED.to_json()
    assert ParamSet.from_json(text) == TABLE2_ESTIMATED


def test_json_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown parameter"):
        ParamSet.from_json(json.dumps({"thetaX": 1.0}))


def test_json_missing_keys_fall_back_to_estimated_preset():
    p = ParamSet.from_json(json.dumps({"theta1": 1500.0}))
    assert p.theta1 == 1500.0
    assert p.tau1 == TABLE2_ESTIMATED.tau1
    assert p.C == TABLE2_ESTIMATED.C


# --- saturation -----------------------------------------------------------------


def test_saturation_zero_numerator():
    assert saturation(0.0, 0.003) == 0.0


def test_saturation_half_at_equal_args():
    assert saturation(0.25, 0.25) == 0.5


def test_saturation_hand_value():
    # 0.297 / (0.297 + 0.003) = 0.99
    assert saturation(0.297, 0.003) == pytest.approx(0.99, rel=1e-12)


def test_saturation_domain_errors():
    with pytest.raises(ConfigError):
        saturation(-1e-3, 0.003)
    with pytest.raises(ConfigError):
        saturation(0.1, 0.0)


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
    dy = rhs(0.0, seeded_state(p_est), ZERO_CONTROL, p_est)
    assert max(abs(v) for v in dy) < 1e-9


def test_rhs_susceptibles_only(p_est):
    y = StateVec(1000.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    dy = rhs(0.0, y, ZERO_CONTROL, p_est)
    assert dy.S_H == p_est.theta1 - p_est.mu1 * 1000.0
    assert dy.E_H == 0.0
    assert dy.I_H == 0.0


def test_environment_equation(p_est):
    y = StateVec(0, 0, 3.0, 0, 0, 0, 5.0, 0, 0, 7.0, 0, 2.0)
    dy = rhs(0.0, y, ZERO_CONTROL, p_est)
    expected = p_est.nu1 * 3.0 + p_est.nu2 * 5.0 + p_est.nu3 * 7.0 - p_est.mu4 * 2.0
    assert dy.M == pytest.approx(expected, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    y=states(),
    u=st.builds(ControlConst, controls, controls, controls, controls),
)
def test_rhs_population_sum_rules(y, u):
    p = TABLE2_ESTIMATED
    dy = rhs(0.0, y, u, p)
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


def test_state_validation():
    with pytest.raises(ConfigError, match="negative"):
        StateVec(*([1.0] * 11 + [-0.5])).validate()
    StateVec(*([0.0] * 12)).validate()


def test_control_validation():
    with pytest.raises(ConfigError, match="u2"):
        ControlConst(0.0, 1.5, 0.0, 0.0).validate()
    ControlConst(1.0, 0.0, 0.5, 1.0).validate()
