"""Equilibria, reproduction number routes and parameter grids."""

import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rabictl.cli import main
from rabictl.errors import ConfigError, NoEndemicEquilibriumError, NumericError
from rabictl.integrate import ControlPath, TimeGrid, rk4_forward
from rabictl.model import (
    DEFAULT_SEEDING, ControlConst, StateVec, ZERO_CONTROL, force_terms, jacobian, rhs, seeded_state,
)
from rabictl.params import PARAM_NAMES, PRESETS, TABLE2_ESTIMATED
from rabictl.repro import (
    INFECTED_ORDER,
    _state_from_forces,
    dfe_stability,
    effective_r,
    endemic_eq,
    ngm,
    re_grid,
    spectral_r,
)


def scaled_transmission(p, s):
    """Scale the direct dog-transmission block; closed-form Re scales linearly."""
    return p.replace(kappa1=p.kappa1 * s, kappa2=p.kappa2 * s, psi1=p.psi1 * s, psi2=p.psi2 * s)


def weak_env(p, factor=1e-6):
    """Suppress the environmental pathway (not captured by the closed form)."""
    return p.replace(
        tau3=p.tau3 * factor, kappa3=p.kappa3 * factor, psi3=p.psi3 * factor,
        nu1=p.nu1 * factor, nu2=p.nu2 * factor, nu3=p.nu3 * factor,
    )


def random_cases(n, seed):
    """``n`` (parameters, controls) pairs: the rates within a factor 3 of the estimated ones."""
    rng = random.Random(seed)
    for k in range(n):
        p = TABLE2_ESTIMATED.replace(**{
            name: getattr(TABLE2_ESTIMATED, name) * 3.0 ** rng.uniform(-1.0, 1.0)
            for name in PARAM_NAMES if not name.startswith("theta")
        })
        yield p, ZERO_CONTROL if k % 2 else ControlConst(*(rng.uniform(0.0, 0.6) for _ in range(4)))


def reference_ngm(p, u, include_environment):
    """F and V entry by entry at the disease-free equilibrium, the clamped control
    factors taken from ``force_terms`` so that only the derivative is compared."""
    S_H0, S_F0, S_D0 = p.theta1 / p.mu1, p.theta2 / p.mu2, p.theta3 / p.mu3
    ft = force_terms(seeded_state(p), u, p)
    a1, a2 = ft.a1, ft.a2
    F = np.zeros((7, 7))
    # columns: E_H, I_H, E_F, I_F, E_D, I_D, M
    F[0, 3] = a1 * p.tau1 * S_H0
    F[0, 5] = a1 * p.tau2 * S_H0
    F[2, 3] = p.kappa1 * S_F0
    F[2, 5] = p.kappa2 * S_F0
    F[4, 3] = a2 * p.psi1 * S_D0 / (1.0 + p.rho1)
    F[4, 5] = a2 * p.psi2 * S_D0 / (1.0 + p.rho2)
    if include_environment:
        # d/dM of lamM at M=0 is 1/C
        F[0, 6] = a1 * p.tau3 * S_H0 / p.C
        F[2, 6] = p.kappa3 * S_F0 / p.C
        F[4, 6] = a2 * p.psi3 * S_D0 / ((1.0 + p.rho3) * p.C)
    V = np.zeros((7, 7))
    V[0, 0] = p.mu1 + p.beta1 + p.beta2 + u.u4
    V[1, 0] = -p.beta1
    V[1, 1] = p.sigma1 + p.mu1
    V[2, 2] = p.mu2 + p.gamma
    V[3, 2] = -p.gamma
    V[3, 3] = p.mu2 + p.sigma2
    V[4, 4] = p.mu3 + p.gamma1 + p.gamma2 + u.u4
    V[5, 4] = -p.gamma1
    V[5, 5] = p.mu3 + p.sigma3
    V[6, 1] = -p.nu1
    V[6, 3] = -p.nu2
    V[6, 5] = -p.nu3
    V[6, 6] = p.mu4
    return F, V


def reference_state_from_forces(chi, u, p):
    """The compartments that balance the pressures ``chi``, solved class by class."""
    chi1, chi2, chi3 = chi
    d_EH = p.mu1 + p.beta1 + p.beta2 + u.u4
    d_ED = p.mu3 + p.gamma1 + p.gamma2 + u.u4
    # S_H and R_H couple through the waning term; solve the 2x2 linearly.
    recyc_H = p.beta3 * (p.beta2 + u.u4) / ((p.beta3 + p.mu1) * d_EH)
    S_H = p.theta1 / (p.mu1 + chi1 * (1.0 - recyc_H))
    E_H = chi1 * S_H / d_EH
    I_H = p.beta1 * E_H / (p.sigma1 + p.mu1)
    R_H = (p.beta2 + u.u4) * E_H / (p.beta3 + p.mu1)
    S_F = p.theta2 / (p.mu2 + chi2)
    E_F = chi2 * S_F / (p.mu2 + p.gamma)
    I_F = p.gamma * E_F / (p.mu2 + p.sigma2)
    recyc_D = p.gamma3 * (p.gamma2 + u.u4) / ((p.mu3 + p.gamma3) * d_ED)
    S_D = p.theta3 / (p.mu3 + chi3 * (1.0 - recyc_D))
    E_D = chi3 * S_D / d_ED
    I_D = p.gamma1 * E_D / (p.mu3 + p.sigma3)
    R_D = (p.gamma2 + u.u4) * E_D / (p.mu3 + p.gamma3)
    M = (p.nu1 * I_H + p.nu2 * I_F + p.nu3 * I_D) / p.mu4
    return StateVec(S_H, E_H, I_H, R_H, S_F, E_F, I_F, S_D, E_D, I_D, R_D, M)


def reference_endemic_eq(p, u):
    """The damped fixed-point iteration of ``endemic_eq`` on the class-by-class balances."""
    ft = force_terms(seeded_state(p, *DEFAULT_SEEDING), u, p)
    chi = (ft.chi1, ft.chi2, ft.chi3)
    for _ in range(10_000):
        ft = force_terms(reference_state_from_forces(chi, u, p), u, p)
        new = tuple(c + 0.5 * (cn - c) for c, cn in zip(chi, (ft.chi1, ft.chi2, ft.chi3)))
        converged = max(abs(a - b) for a, b in zip(new, chi)) <= 1e-15 * max(map(abs, new))
        chi = new
        if converged:
            return reference_state_from_forces(chi, u, p)
    return None


# --- disease-free equilibrium ------------------------------------------------------


def test_dfe_baseline_susceptible_humans(p_base):
    y = seeded_state(p_base)
    assert y.S_H == pytest.approx(140845.07, abs=0.01)  # 2000 / 0.0142
    assert y.S_H == 2000.0 / 0.0142


def test_dfe_infected_components_zero(p_est):
    y = seeded_state(p_est)
    assert (y.E_H, y.I_H, y.R_H, y.E_F, y.I_F, y.E_D, y.I_D, y.R_D, y.M) == (0.0,) * 9


def test_dfe_is_equilibrium(p_est):
    assert max(abs(v) for v in rhs(0.0, seeded_state(p_est), ZERO_CONTROL, p_est)) < 1e-9


# --- effective reproduction number -------------------------------------------------


def test_full_domestic_control_reduces_to_r21(p_est):
    bd = effective_r(p_est, ControlConst(1.0, 1.0, 0.0, 0.0))
    assert bd.R31 == 0.0 and bd.R33 == 0.0
    assert bd.Re == bd.R21


def test_closed_form_matches_spectral_radius(p_est):
    rng = random.Random(99)
    for k in range(20):
        s = lambda v: v * rng.uniform(0.3, 3.0)
        p = p_est.replace(
            kappa1=s(p_est.kappa1), kappa2=s(p_est.kappa2),
            psi1=s(p_est.psi1), psi2=s(p_est.psi2),
            gamma=s(p_est.gamma), gamma1=s(p_est.gamma1),
            sigma2=s(p_est.sigma2), sigma3=s(p_est.sigma3),
            mu2=s(p_est.mu2), mu3=s(p_est.mu3),
        )
        u = ZERO_CONTROL if k % 2 else ControlConst(*(rng.uniform(0, 0.5) for _ in range(4)))
        a, b = effective_r(p, u).Re, spectral_r(p, u)
        assert abs(a - b) <= 1e-8 * max(1.0, a)


def test_re_strictly_decreasing_in_u2(p_est):
    values = [effective_r(p_est, ControlConst(0.0, u2, 0.0, 0.0)).Re for u2 in np.linspace(0, 0.9, 10)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_re_decreases_with_full_treatment(p_est):
    assert effective_r(p_est, ControlConst(0, 0, 0, 1.0)).Re < effective_r(p_est).Re


def test_spectral_radius_vanishes_without_transmission(p_est):
    p = p_est.replace(
        tau1=1e-30, tau2=1e-30, tau3=1e-30,
        kappa1=1e-30, kappa2=1e-30, kappa3=1e-30,
        psi1=1e-30, psi2=1e-30, psi3=1e-30,
    )
    assert spectral_r(p) < 1e-15


def test_re_monotone_in_transmission_parameters(p_est):
    base = effective_r(p_est).Re
    for name in ("psi1", "psi2", "kappa1", "kappa2", "theta2", "theta3"):
        up = effective_r(p_est.replace(**{name: 1.5 * getattr(p_est, name)})).Re
        assert up >= base
    for u in (ControlConst(0.3, 0, 0, 0), ControlConst(0, 0.3, 0, 0), ControlConst(0, 0, 0, 0.3)):
        assert effective_r(p_est, u).Re <= base


def test_ngm_structure(p_est):
    F, V = ngm(p_est, ControlConst(0.1, 0.2, 0.1, 0.3))
    off = V - np.diag(np.diag(V))
    assert np.all(off <= 0.0)  # M-matrix: non-positive off-diagonal
    assert np.all(F >= 0.0)
    assert np.linalg.cond(V) < 1e12
    assert INFECTED_ORDER == ("E_H", "I_H", "E_F", "I_F", "E_D", "I_D", "M")
    assert F.shape == V.shape == (7, 7)


@pytest.mark.parametrize("include_environment", [False, True])
def test_ngm_blocks_of_jacobian_match_hand_written_entries(include_environment):
    for p, u in random_cases(40, seed=11):
        pair = ngm(p, u, include_environment=include_environment)
        for got, want in zip(pair, reference_ngm(p, u, include_environment)):
            assert ((got == 0.0) == (want == 0.0)).all()
            assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


def test_environment_diagnostic_dominates_default_form(p_est):
    # The default matrices omit the environmental column; with C tiny the
    # full linearization is far more pessimistic. Kept as a diagnostic only.
    assert spectral_r(p_est, include_environment=True) > 10 * spectral_r(p_est)


# --- endemic equilibrium ------------------------------------------------------------


def test_endemic_requires_supercritical(p_est):
    p = scaled_transmission(p_est, 0.2)
    assert effective_r(p).Re < 1.0
    with pytest.raises(NoEndemicEquilibriumError):
        endemic_eq(p)


def test_endemic_balance_relations(p_est):
    y = endemic_eq(p_est)
    assert y.I_F == pytest.approx(p_est.gamma * y.E_F / (p_est.mu2 + p_est.sigma2), rel=1e-12)
    assert y.I_H == pytest.approx(p_est.beta1 * y.E_H / (p_est.sigma1 + p_est.mu1), rel=1e-12)
    expected_m = (
        p_est.gamma1 * y.E_D * p_est.nu3 / (p_est.mu4 * (p_est.mu3 + p_est.sigma3))
        + p_est.beta1 * y.E_H * p_est.nu1 / (p_est.mu4 * (p_est.sigma1 + p_est.mu1))
        + p_est.gamma * y.E_F * p_est.nu2 / (p_est.mu4 * (p_est.mu2 + p_est.sigma2))
    )
    assert y.M == pytest.approx(expected_m, rel=1e-12)


def test_state_from_forces_matches_class_by_class_balances(p_est):
    rng = random.Random(12)
    for p, u in random_cases(20, seed=13):
        T, _ = jacobian(seeded_state(p), u, p)
        chi = tuple(rng.uniform(0.0, 1.0) * 10.0 ** rng.uniform(-4, 0) for _ in range(3))
        got, want = _state_from_forces(chi, T, p), reference_state_from_forces(chi, u, p)
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))


def test_endemic_eq_matches_class_by_class_reference():
    solved = 0
    for p, u in random_cases(60, seed=14):
        if effective_r(p, u).Re < 1.0:
            continue
        want = reference_endemic_eq(p, u)
        if want is None or min(want) <= 0.0:  # the reference fails, so endemic_eq must
            with pytest.raises(NumericError):
                endemic_eq(p, u)
            continue
        got = endemic_eq(p, u)
        solved += 1
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))
    assert solved >= 40


def test_endemic_residual_and_positivity(p_est):
    y = endemic_eq(p_est)
    residual = max(abs(v) for v in rhs(0.0, y, ZERO_CONTROL, p_est))
    assert residual < 1e-8 * max(abs(v) for v in y)
    assert min(y) > 0.0


@pytest.mark.parametrize("preset, u", [
    ("estimated", ZERO_CONTROL),
    ("baseline", ZERO_CONTROL),
    ("estimated", ControlConst(0.1, 0.2, 0.1, 0.3)),
], ids=["estimated", "baseline", "estimated-controlled"])
def test_endemic_attracts_forward_runs(preset, u):
    """A 200-year run from a seeded infection lands on the fixed point."""
    from rabictl.model import DEFAULT_SEEDING

    p = PRESETS[preset]
    y_star = endemic_eq(p, u)
    g = TimeGrid(0.0, 200.0, 10000)
    traj = rk4_forward(p, ControlPath.constant(g, u), seeded_state(p, *DEFAULT_SEEDING), g)
    rel = max(abs(a - b) / b for a, b in zip(traj.states[-1], y_star))
    assert rel < 1e-3  # within 0.1% per component


# --- stability indicator -------------------------------------------------------------


@pytest.mark.parametrize("target, sign", [(0.3, -1.0), (2.0, 1.0)])
def test_dfe_stability_sign_matches_threshold(p_est, target, sign):
    p = weak_env(p_est)
    p = scaled_transmission(p, target / effective_r(p).Re)
    assert sign * dfe_stability(p) > 0.0


@given(
    exponents=st.lists(st.floats(-1.0, 1.0), min_size=len(PARAM_NAMES), max_size=len(PARAM_NAMES)),
    controls=st.tuples(*[st.floats(0.0, 1.0)] * 4),
)
def test_threshold_invariant(exponents, controls):
    """van den Driessche & Watmough (2002): R > 1 exactly when the DFE is unstable."""
    try:
        p = TABLE2_ESTIMATED.replace(**{
            name: getattr(TABLE2_ESTIMATED, name) * 10.0 ** e
            for name, e in zip(PARAM_NAMES, exponents)
        })
    except ConfigError:
        assume(False)
    u = ControlConst(*controls)
    R = spectral_r(p, u, include_environment=True)
    assume(abs(R - 1.0) > 1e-6)
    assert (R > 1.0) == (dfe_stability(p, u) > 0.0)


# --- grids ---------------------------------------------------------------------------


def test_grid_degenerate_single_point(p_est):
    u = ControlConst(0.1, 0.0, 0.0, 0.2)
    g = re_grid(p_est, ("u2", 0.3, 0.3, 1), ("u4", 0.2, 0.2, 1), base_u=u)
    expected = effective_r(p_est, ControlConst(0.1, 0.3, 0.0, 0.2)).Re
    assert g.values[0, 0] == expected


@pytest.mark.parametrize("axis1, axis2, base_u", [
    (("u2", 0.0, 1.0, 7), ("kappa1", 1e-6, 3e-4, 9), ZERO_CONTROL),
    # moves the outflow rates and the recruitment rule theta2 > mu2
    (("mu2", 0.02, 0.6, 8), ("theta2", 400.0, 1600.0, 6), ZERO_CONTROL),
    # 1 - u1 - u2 crosses zero, so the domestic factor clamps on part of the grid
    (("u1", 0.0, 1.0, 9), ("u4", 0.0, 1.0, 5), ControlConst(0.3, 0.4, 0.2, 0.1)),
], ids=["control-x-parameter", "parameter-x-parameter", "control-x-control"])
def test_grid_equals_pointwise_effective_r(p_est, axis1, axis2, base_u):
    """One array call over the grid equals a float ``effective_r`` call per point, bit for bit."""
    g = re_grid(p_est, axis1, axis2, base_u)

    def point(i, j):
        p, u = p_est, base_u
        for (name, *_), v in ((axis1, g.axis1_values[i]), (axis2, g.axis2_values[j])):
            if name in ControlConst._fields:
                u = u._replace(**{name: v})
            else:
                p = p.replace(**{name: v})
        return p, u

    expected = [[effective_r(*point(i, j)).Re for j in range(axis2[3])] for i in range(axis1[3])]
    assert g.values.tolist() == expected
    for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        assert abs(g.values[i, j] - spectral_r(*point(i, j))) <= 1e-8 * g.values[i, j]


def test_grid_control_monotonicity(p_est):
    g = re_grid(p_est, ("u2", 0.0, 1.0, 6), ("u4", 0.0, 1.0, 6))
    assert np.all(np.diff(g.values, axis=0) <= 1e-14)
    assert np.all(np.diff(g.values, axis=1) <= 1e-14)


def test_grid_contact_rate_monotonicity(p_est):
    g = re_grid(
        p_est,
        ("psi1", 0.5 * p_est.psi1, 2 * p_est.psi1, 6),
        ("psi2", 0.5 * p_est.psi2, 2 * p_est.psi2, 6),
    )
    assert np.all(np.diff(g.values, axis=0) >= -1e-14)
    assert np.all(np.diff(g.values, axis=1) >= -1e-14)


def test_grid_of_rates_past_the_largest_float_does_not_warn(p_est):
    # beta1 + beta2 + mu1 overflows to inf in the grid's rates, which Re does not read;
    # the suite turns warnings into errors, so an overflow warning fails this test
    g = re_grid(p_est, ("beta1", 1e307, 1.7e308, 3), ("beta2", 1e-3, 1.7e308, 3))
    assert (g.values == effective_r(p_est).Re).all()


def test_grid_unknown_axis(p_est):
    with pytest.raises(ConfigError, match="unknown axis"):
        re_grid(p_est, ("u9", 0.0, 1.0, 3), ("u4", 0.0, 1.0, 3))


def test_grid_rejects_one_name_on_both_axes(p_est):
    # the inner axis would override the outer one, so the axis1 column would not move Re
    for name in ("u2", "psi1"):
        with pytest.raises(ConfigError, match=f"both axes name '{name}'"):
            re_grid(p_est, (name, 0.0, 1e-4, 3), (name, 0.0, 1e-4, 3))


def test_grid_axis_point_limit(p_est):
    assert re_grid(p_est, ("u2", 0.0, 1.0, 1000), ("u4", 0.0, 1.0, 1)).values.shape == (1000, 1)
    for n in (0, 1001):
        with pytest.raises(ConfigError, match="point"):
            re_grid(p_est, ("u2", 0.0, 1.0, n), ("u4", 0.0, 1.0, 1))


def test_non_finite_re_is_numeric_error(p_est):
    with pytest.raises(NumericError, match="not finite"):  # R33 * R33 overflows
        effective_r(p_est.replace(psi2=1e300))
    with pytest.raises(NumericError, match="not finite"):  # mu2 * k_EF * k_IF underflows to 0.0
        effective_r(p_est.replace(mu2=5e-324))
    with pytest.raises(NumericError, match="not finite"):
        re_grid(p_est, ("psi2", 1e-4, 1e300, 2), ("u4", 0.0, 1.0, 1))


@pytest.mark.parametrize("route, name, value", [
    # a recruitment this large overflows the DFE's susceptibles, and so its Jacobian
    *((route, theta, 1e308) for route in (spectral_r, dfe_stability)
      for theta in ("theta1", "theta2", "theta3")),
    (endemic_eq, "theta1", 1e308),
    # C * C underflows to 0.0 in the slope of the environmental response M/(M+C) at M = 0
    *((route, "C", 1e-162) for route in (spectral_r, dfe_stability, endemic_eq)),
    (spectral_r, "mu4", 1e-320),  # V's M diagonal is subnormal: its inverse overflows
])
def test_matrix_routes_raise_numeric_error_on_a_non_finite_linearization(p_est, route, name,
                                                                          value):
    with pytest.raises(NumericError, match="not finite"):
        route(p_est.replace(**{name: value}))


def test_grid_csv_format(tmp_path):
    assert main(["--outdir", str(tmp_path), "--set", 'reff.axis1={"name":"u2","lo":0,"hi":1,"n":3}',
                 "--set", 'reff.axis2={"name":"u4","lo":0,"hi":1,"n":2}', "reff"]) == 0
    (run,) = tmp_path.iterdir()
    out = run / "reff_grid.csv"
    meta = run / "reff_grid.meta.json"
    lines = out.read_text().splitlines()
    assert lines[0] == "axis1,axis2,Re"
    assert len(lines) == 1 + 3 * 2
    assert meta.exists()
