"""Equilibria, reproduction number routes and parameter grids."""

import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rabictl.errors import ConfigError, NoEndemicEquilibriumError
from rabictl.integrate import ControlPath, TimeGrid, rk4_forward
from rabictl.model import ControlConst, StateVec, ZERO_CONTROL, rhs, seeded_state
from rabictl.params import PARAM_NAMES, TABLE2_ESTIMATED
from rabictl.repro import (
    dfe_stability,
    effective_r,
    endemic_eq,
    ngm,
    re_grid,
    spectral_r,
    write_re_grid_csv,
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
    pair = ngm(p_est, ControlConst(0.1, 0.2, 0.1, 0.3))
    off = pair.V - np.diag(np.diag(pair.V))
    assert np.all(off <= 0.0)  # M-matrix: non-positive off-diagonal
    assert np.all(pair.F >= 0.0)
    assert np.linalg.cond(pair.V) < 1e12
    assert pair.order == ("E_H", "I_H", "E_F", "I_F", "E_D", "I_D", "M")


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


def test_endemic_residual_and_positivity(p_est):
    y = endemic_eq(p_est)
    residual = max(abs(v) for v in rhs(0.0, y, ZERO_CONTROL, p_est))
    assert residual < 1e-8 * max(abs(v) for v in y)
    assert min(y) > 0.0


def test_endemic_attracts_forward_runs(p_est):
    """A 200-year run from a seeded infection lands on the fixed point."""
    from rabictl.model import DEFAULT_SEEDING

    y_star = endemic_eq(p_est)
    g = TimeGrid(0.0, 200.0, 10000)
    traj = rk4_forward(p_est, ControlPath.constant(g), seeded_state(p_est, *DEFAULT_SEEDING), g)
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


def test_grid_unknown_axis(p_est):
    with pytest.raises(ConfigError, match="unknown axis"):
        re_grid(p_est, ("u9", 0.0, 1.0, 3), ("u4", 0.0, 1.0, 3))


def test_grid_csv_format(tmp_path, p_est):
    g = re_grid(p_est, ("u2", 0.0, 1.0, 3), ("u4", 0.0, 1.0, 2))
    out = tmp_path / "grid.csv"
    meta = tmp_path / "grid.json"
    write_re_grid_csv(g, out, meta)
    lines = out.read_text().splitlines()
    assert lines[0] == "axis1,axis2,Re"
    assert len(lines) == 1 + 3 * 2
    assert meta.exists()
