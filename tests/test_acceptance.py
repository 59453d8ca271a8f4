"""Acceptance suite: one printed PASS/FAIL line per criterion.

Each criterion runs at its stated tolerance; timings are asserted against
the stated budgets. Criterion 6 is asserted exactly as stated even though
the treatment-free decay of I_D bounds any controlled run away from the
required 5% in the default scenario (see the printed numbers).
"""

import random
import time

import numpy as np
import pytest

from rabictl.calibrate import FitConfig, IncidenceSeries, fit, predict_incidence
from rabictl.integrate import ControlPath, TimeGrid, rk4_forward
from rabictl.model import DEFAULT_SEEDING, ControlConst, StateVec, ZERO_CONTROL, rhs, seeded_state
from rabictl.optctl import (
    Weights,
    characterize_controls,
    forward_backward_sweep,
    hamiltonian,
)
from rabictl.params import TABLE2_BASELINE, TABLE2_ESTIMATED
from rabictl.repro import effective_r, endemic_eq, re_grid, spectral_r
from rabictl.sensitivity import prcc, prcc_study, uniform_ranges

from oracles import dense_adjoint

P = TABLE2_ESTIMATED
INFECTED_FIELDS = ("E_H", "I_H", "E_F", "I_F", "E_D", "I_D", "M")


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def grid_default():
    return TimeGrid(0.0, 20.0, 2000)


@pytest.fixture(scope="module")
def uncontrolled_run(grid_default):
    y0 = seeded_state(P, *DEFAULT_SEEDING)
    return rk4_forward(P, ControlPath.constant(grid_default), y0)


@pytest.fixture(scope="module")
def sweep_a(grid_default):
    started = time.perf_counter()
    result = forward_backward_sweep(P, Weights(), seeded_state(P, *DEFAULT_SEEDING), grid_default)
    result_elapsed = time.perf_counter() - started
    return result, result_elapsed


def test_criterion_01_dfe_residual():
    started = time.perf_counter()
    residual = max(abs(v) for v in rhs(seeded_state(P), ZERO_CONTROL, P))
    elapsed = time.perf_counter() - started
    ok = residual < 1e-9 and elapsed < 1.0
    assert report(1, "dfe-residual", ok, f"max |rhs| = {residual:.3e}, {elapsed:.3f}s")


def test_criterion_02_re_oracle_equivalence():
    rng = random.Random(20260810)
    started = time.perf_counter()
    worst = 0.0
    for k in range(100):
        s = lambda v: v * rng.uniform(0.3, 3.0)
        p = P.replace(
            theta2=s(P.theta2), theta3=s(P.theta3),
            kappa1=s(P.kappa1), kappa2=s(P.kappa2),
            psi1=s(P.psi1), psi2=s(P.psi2),
            gamma=s(P.gamma), gamma1=s(P.gamma1), gamma2=s(P.gamma2),
            mu2=s(P.mu2), mu3=s(P.mu3), sigma2=s(P.sigma2), sigma3=s(P.sigma3),
            rho1=s(P.rho1), rho2=s(P.rho2),
        )
        u = ZERO_CONTROL if k % 2 == 0 else ControlConst(*(rng.uniform(0.0, 0.5) for _ in range(4)))
        closed = effective_r(p, u).Re
        spectral = spectral_r(p, u)
        worst = max(worst, abs(closed - spectral) / max(1.0, closed))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(2, "re-closed-vs-spectral", ok,
                  f"worst rel diff {worst:.2e} over 100 draws, {elapsed:.2f}s")


def _threshold_draw(rng, re_target):
    """Random parameters with suppressed environmental coupling, Re pinned.

    The closed-form Re omits the environmental pathway, so the threshold law
    only governs the dynamics when that pathway is negligible; rates are
    drawn fast enough that the fixed 100-year horizon resolves the verdict.
    """
    f = rng.uniform
    pert = lambda v: v * f(0.8, 1.2)
    p = P.replace(
        theta1=pert(P.theta1), theta2=pert(P.theta2), theta3=pert(P.theta3),
        tau1=pert(P.tau1), tau2=pert(P.tau2),
        beta1=pert(P.beta1), beta2=pert(P.beta2), beta3=pert(P.beta3),
        gamma=f(0.35, 0.65), gamma1=f(0.35, 0.65),
        gamma2=pert(P.gamma2), gamma3=pert(P.gamma3),
        mu2=pert(P.mu2), mu3=pert(P.mu3),
        rho1=pert(P.rho1), rho2=pert(P.rho2), rho3=pert(P.rho3),
        sigma2=f(0.6, 1.1), sigma3=f(0.6, 1.1), mu4=f(0.5, 1.0),
        tau3=P.tau3 * 1e-6, kappa3=P.kappa3 * 1e-6, psi3=P.psi3 * 1e-6,
        nu1=P.nu1 * 1e-6, nu2=P.nu2 * 1e-6, nu3=P.nu3 * 1e-6,
    )
    scale = re_target / effective_r(p).Re
    return p.replace(kappa1=p.kappa1 * scale, kappa2=p.kappa2 * scale,
                     psi1=p.psi1 * scale, psi2=p.psi2 * scale)


def test_criterion_03_threshold_law():
    rng = random.Random(31)
    started = time.perf_counter()
    grid = TimeGrid(0.0, 100.0, 10_000)
    failures = []
    for k in range(50):
        subcritical = k % 2 == 0
        target = rng.uniform(0.10, 0.45) if subcritical else rng.uniform(1.4, 3.0)
        p = _threshold_draw(rng, target)
        re_val = effective_r(p).Re
        assert abs(re_val - 1.0) > 0.05
        if subcritical:
            y0 = seeded_state(p)._replace(E_F=5.0, I_F=10.0, E_D=5.0, I_D=10.0, M=1e-9)
            traj = rk4_forward(p, ControlPath.constant(grid), y0)
            worst = 0.0
            for name in INFECTED_FIELDS:
                idx = StateVec._fields.index(name)
                peak = traj.values[:, idx].max()
                if peak > 0.0:
                    worst = max(worst, traj.values[-1, idx] / peak)
            if worst >= 1e-6:
                failures.append((k, re_val, f"final/peak={worst:.1e}"))
        else:
            y_star = endemic_eq(p)
            y0 = StateVec(*(v * rng.uniform(0.95, 1.05) for v in y_star))
            traj = rk4_forward(p, ControlPath.constant(grid), y0)
            rel = max(abs(a - b) / b for a, b in zip(traj.values[-1].tolist(), y_star))
            if rel >= 1e-3:
                failures.append((k, re_val, f"rel-to-E*={rel:.1e}"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    assert report(3, "threshold-law", ok,
                  f"50 draws (25 sub-, 25 supercritical), failures={failures or 'none'}, {elapsed:.1f}s")


def test_criterion_04_adjoint_correctness():
    rng = random.Random(44)
    w = Weights()
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = StateVec(*(rng.uniform(1.0, 1e4) for _ in range(12)))
        lam = tuple(rng.uniform(-5.0, 5.0) for _ in range(12))
        u = ControlConst(*(rng.uniform(0.0, 1.0) for _ in range(4)))
        G, g = dense_adjoint(y, u, w, P)
        analytic = G @ lam + g
        for j in range(12):
            h = 1e-5 * max(1.0, abs(y[j]))
            up = StateVec(*(v + h if i == j else v for i, v in enumerate(y)))
            dn = StateVec(*(v - h if i == j else v for i, v in enumerate(y)))
            fd = -(hamiltonian(up, lam, u, w, P) - hamiltonian(dn, lam, u, w, P)) / (2 * h)
            worst = max(worst, abs(analytic[j] - fd) / max(1.0, abs(analytic[j]), abs(fd)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(4, "adjoint-vs-finite-diff", ok,
                  f"worst rel err {worst:.2e} over 100 points x 12 components, {elapsed:.2f}s")


def test_criterion_05_sweep_convergence(sweep_a):
    result, elapsed = sweep_a
    worst = 0.0
    w = Weights()
    states = map(StateVec._make, result.states.values.tolist())
    for y, lam, u in zip(states, result.adjoints, result.controls.values):
        u_star = characterize_controls(y, lam, w, P, result.mask)
        worst = max(worst, max(abs(a - b) for a, b in zip(u, u_star)))
    ok = result.converged and result.iterations <= 200 and worst < 1e-3 and elapsed < 120.0
    assert report(5, "sweep-convergence", ok,
                  f"iters={result.iterations}, re-characterization gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_strategy_a_effectiveness(sweep_a, uncontrolled_run):
    result, _ = sweep_a
    y_ctl = StateVec._make(result.states.values[result.states.grid.node_at(5.0)].tolist())
    y_unc = StateVec._make(uncontrolled_run.values[uncontrolled_run.grid.node_at(5.0)].tolist())
    ratio_ih = y_ctl.I_H / y_unc.I_H
    ratio_id = y_ctl.I_D / y_unc.I_D
    ok = ratio_ih <= 0.05 and ratio_id <= 0.05
    floor = seeded_state(P, *DEFAULT_SEEDING).I_D * np.exp(-5.0 * (P.mu3 + P.sigma3))
    assert report(
        6, "strategy-a-five-years", ok,
        f"I_H(5): {y_ctl.I_H:.3g}/{y_unc.I_H:.3g} = {ratio_ih:.1%}; "
        f"I_D(5): {y_ctl.I_D:.3g}/{y_unc.I_D:.3g} = {ratio_id:.1%} "
        f"(treatment-free I_D floor {floor:.1f}: no admissible control can pass)",
    )


def test_criterion_07_monotonicity_grids():
    started = time.perf_counter()
    g_u2u4 = re_grid(P, ("u2", 0.0, 1.0, 20), ("u4", 0.0, 1.0, 20))
    g_u1u4 = re_grid(P, ("u1", 0.0, 1.0, 20), ("u4", 0.0, 1.0, 20))
    g_psi = re_grid(P, ("psi1", 0.2 * P.psi1, 5 * P.psi1, 20),
                    ("psi2", 0.2 * P.psi2, 5 * P.psi2, 20))
    violations = (
        int(np.sum(np.diff(g_u2u4.values, axis=0) > 1e-14))
        + int(np.sum(np.diff(g_u2u4.values, axis=1) > 1e-14))
        + int(np.sum(np.diff(g_u1u4.values, axis=0) > 1e-14))
        + int(np.sum(np.diff(g_u1u4.values, axis=1) > 1e-14))
        + int(np.sum(np.diff(g_psi.values, axis=0) < -1e-14))
        + int(np.sum(np.diff(g_psi.values, axis=1) < -1e-14))
    )
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 10.0
    assert report(7, "re-grid-monotonicity", ok,
                  f"{violations} violations on three 20x20 grids, {elapsed:.2f}s")


def test_criterion_08_deterrence(uncontrolled_run, grid_default):
    doubled = P.replace(rho1=2 * P.rho1, rho2=2 * P.rho2, rho3=2 * P.rho3)
    run2 = rk4_forward(doubled, ControlPath.constant(grid_default),
                       seeded_state(doubled, *DEFAULT_SEEDING))
    peak = lambda traj, name: traj.values[:, StateVec._fields.index(name)].max()
    e_before, e_after = peak(uncontrolled_run, "E_D"), peak(run2, "E_D")
    i_before, i_after = peak(uncontrolled_run, "I_D"), peak(run2, "I_D")
    ok = e_after < e_before and i_after < i_before
    assert report(8, "deterrence-reduces-domestic", ok,
                  f"peak E_D {e_before:.1f}->{e_after:.1f}, peak I_D {i_before:.1f}->{i_after:.1f}")


def test_criterion_09_prcc_signs():
    base = TABLE2_BASELINE
    started = time.perf_counter()
    y0 = StateVec(
        S_H=base.theta1 / base.mu1, E_H=0.0, I_H=0.0, R_H=0.0,
        S_F=base.theta2 / base.mu2, E_F=5.0, I_F=10.0,
        S_D=base.theta3 / base.mu3, E_D=5.0, I_D=10.0, R_D=0.0, M=0.1,
    )
    grid = TimeGrid(0.0, 10.0, 500)
    study = prcc_study(
        uniform_ranges(base, 0.25), N=1000, seed=20260810, p_base=base, y0=y0,
        grid=grid, sample_times=[2.0, 4.0, 6.0, 8.0, 10.0], outputs=("I_H", "M"),
    )
    elapsed = time.perf_counter() - started
    by_output = dict(zip(study.outputs, study.coefficients))
    t_idx = study.times.index(8.0)
    names = study.param_names

    wanted = {
        "I_H": [("theta1", +1), ("tau1", +1), ("tau2", +1), ("kappa1", +1), ("kappa2", +1),
                ("beta2", -1), ("rho1", -1), ("rho3", -1), ("gamma2", -1)],
        "M": [("nu1", +1), ("nu2", +1), ("nu3", +1)],
    }
    bad = []
    for output, pairs in wanted.items():
        coeffs = by_output[output][t_idx]
        for pname, sign in pairs:
            r = coeffs[names.index(pname)]
            if not (sign * r > 0.05):
                bad.append(f"{output}/{pname}={r:+.3f}")
    ok = not bad and elapsed < 300.0
    assert report(9, "prcc-sign-table", ok,
                  f"N=1000 at t=8, dropped={study.dropped_rows}, "
                  f"violations={bad or 'none'}, {elapsed:.1f}s")


def test_criterion_10_prcc_oracle():
    rng = np.random.default_rng(50)
    X = rng.random((50, 3))
    Z = 1.7 * X[:, 0] - 0.9 * X[:, 1] ** 3 + 0.2 * rng.random(50)
    from scipy import stats

    cols = [stats.rankdata(X[:, i]) for i in range(3)] + [stats.rankdata(Z)]
    omega = np.linalg.inv(np.corrcoef(np.column_stack(cols), rowvar=False))
    oracle = np.array([-omega[i, 3] / np.sqrt(omega[i, i] * omega[3, 3]) for i in range(3)])
    diff = float(np.max(np.abs(prcc(X, Z) - oracle)))
    ok = diff < 1e-10
    assert report(10, "prcc-independent-oracle", ok, f"max |diff| = {diff:.2e} on 50x3 case")


def test_criterion_11_calibration_recovery():
    started = time.perf_counter()
    y0 = seeded_state(P, 20.0, 50.0)
    years = tuple(range(1990, 2019))  # 29 points
    data = IncidenceSeries(years, tuple(float(v) for v in predict_incidence(P, y0, years)))
    free = ("theta1", "tau1", "beta1")
    cfg = FitConfig(
        free=free,
        bounds={n: (getattr(P, n) / 4.0, getattr(P, n) * 4.0) for n in free},
        x0={n: getattr(P, n) * 1.5 for n in free},
        max_evals=1200,
    )
    result = fit(data, cfg, P, y0)
    elapsed = time.perf_counter() - started
    errors = {n: abs(result.estimates[n] - getattr(P, n)) / getattr(P, n) for n in free}
    ok = all(e < 0.05 for e in errors.values()) and elapsed < 60.0
    detail = ", ".join(f"{n} {e:.2%}" for n, e in errors.items())
    assert report(11, "calibration-recovery", ok,
                  f"recovery errors {detail}; evals={result.evals}, {elapsed:.1f}s")


def test_criterion_12_integrator_order_and_positivity(uncontrolled_run, sweep_a):
    y0 = seeded_state(P, *DEFAULT_SEEDING)

    def endpoint(n):
        g = TimeGrid(0.0, 5.0, n)
        return rk4_forward(P, ControlPath.constant(g), y0).values[-1].tolist()

    a, b, c = endpoint(20), endpoint(40), endpoint(80)
    e1 = max(abs(x - y) for x, y in zip(a, b))
    e2 = max(abs(x - y) for x, y in zip(b, c))
    ratio = e1 / e2

    worst = min(uncontrolled_run.values.min(), sweep_a[0].states.values.min())
    ok = 10.0 <= ratio <= 24.0 and worst > -1e-6
    assert report(12, "rk4-order-and-positivity", ok,
                  f"step-halving ratio {ratio:.1f}, most negative component {worst:.1e}")
