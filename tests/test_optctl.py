"""Objective, Hamiltonian, adjoint system, characterization and the sweep."""

import math
import random

import numpy as np
import pytest

from rabictl.cli import main
from rabictl.errors import ConfigError
from rabictl.integrate import ControlPath, TimeGrid, Trajectory
from rabictl.model import DEFAULT_SEEDING, ControlConst, StateVec, seeded_state
from rabictl.optctl import (
    STRATEGY_MASKS,
    Weights,
    adjoint_rhs,
    characterize_controls,
    forward_backward_sweep,
    hamiltonian,
    objective,
    running_cost,
)
from rabictl.model import rhs, ZERO_CONTROL

ZERO_LAM = (0.0,) * 12


def random_point(rng):
    y = StateVec(*(rng.uniform(1.0, 1e4) for _ in range(12)))
    lam = tuple(rng.uniform(-5.0, 5.0) for _ in range(12))
    u = ControlConst(*(rng.uniform(0.0, 1.0) for _ in range(4)))
    return y, lam, u


def test_weights_validation():
    with pytest.raises(ConfigError):
        Weights(K3=-1.0)
    with pytest.raises(ConfigError):
        Weights(A2=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="K1"):
            Weights(K1=bad)
        with pytest.raises(ConfigError, match="A4"):
            Weights(A4=bad)


def test_strategy_masks():
    assert STRATEGY_MASKS["A"] == (True, True, True, True)
    assert STRATEGY_MASKS["B"] == (False, False, True, True)
    assert STRATEGY_MASKS["C"] == (False, False, False, True)
    assert STRATEGY_MASKS["D"] == (True, True, False, False)


# --- objective -----------------------------------------------------------------


def constant_traj(grid, y):
    return Trajectory(grid, (y,) * grid.n_nodes)


def test_objective_zero_cost(p_est):
    g = TimeGrid(0.0, 3.0, 30)
    y = seeded_state(p_est)
    w = Weights(K1=0, K2=0, K3=0, K4=0, K5=0, K6=0)
    assert objective(constant_traj(g, y), ControlPath.constant(g), w) == 0.0


def test_objective_constant_integrand(p_est):
    g = TimeGrid(0.0, 7.0, 70)
    c = 123.5
    y = seeded_state(p_est)._replace(I_H=c)
    w = Weights(K1=0, K2=0, K3=1, K4=0, K5=0, K6=0)
    J = objective(constant_traj(g, y), ControlPath.constant(g), w)
    assert J == pytest.approx(c * 7.0, rel=1e-12)


def test_objective_quadratic_control_cost(p_est):
    g = TimeGrid(0.0, 4.0, 40)
    y = seeded_state(p_est)
    w = Weights(K1=0, K2=0, K3=0, K4=0, K5=0, K6=0, A2=2.0)
    path_on = ControlPath.constant(g, ControlConst(0, 1.0, 0, 0))
    path_off = ControlPath.constant(g)
    J_on = objective(constant_traj(g, y), path_on, w)
    J_off = objective(constant_traj(g, y), path_off, w)
    assert J_on - J_off == pytest.approx(4.0, rel=1e-12)  # 0.5 * A2 * 1^2 * (tf - t0)


def test_objective_grid_mismatch(p_est):
    g1, g2 = TimeGrid(0.0, 1.0, 10), TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ConfigError):
        objective(constant_traj(g1, seeded_state(p_est)), ControlPath.constant(g2), Weights())


# --- Hamiltonian and adjoint -----------------------------------------------------


def test_hamiltonian_zero_adjoint_is_running_cost(p_est):
    rng = random.Random(3)
    y, _, u = random_point(rng)
    w = Weights()
    assert hamiltonian(y, ZERO_LAM, u, w, p_est) == running_cost(y, u, w)


def test_hamiltonian_zero_weights_is_adjoint_dot_rhs(p_est):
    rng = random.Random(4)
    y, lam, _ = random_point(rng)
    w = Weights(K1=0, K2=0, K3=0, K4=0, K5=0, K6=0)
    expected = sum(l * d for l, d in zip(lam, rhs(0.0, y, ZERO_CONTROL, p_est)))
    assert hamiltonian(y, lam, ZERO_CONTROL, w, p_est) == pytest.approx(expected, rel=1e-12)


def test_hamiltonian_u4_partial_derivative(p_est):
    """dH/du4 = A4 u4 - (lam2-lam4) E_H - (lam9-lam11) E_D at interior points."""
    rng = random.Random(5)
    y, lam, u = random_point(rng)
    u = u._replace(u4=0.37)
    w = Weights()
    analytic = (
        w.A4 * u.u4 - (lam[1] - lam[3]) * y.E_H - (lam[8] - lam[10]) * y.E_D
    )
    h = 1e-6
    fd = (
        hamiltonian(y, lam, u._replace(u4=u.u4 + h), w, p_est)
        - hamiltonian(y, lam, u._replace(u4=u.u4 - h), w, p_est)
    ) / (2 * h)
    assert fd == pytest.approx(analytic, rel=1e-6)


def test_adjoint_zero_weights_zero_adjoint(p_est):
    rng = random.Random(6)
    y, _, u = random_point(rng)
    w = Weights(K1=0, K2=0, K3=0, K4=0, K5=0, K6=0)
    assert adjoint_rhs(y, ZERO_LAM, u, w, p_est) == (0.0,) * 12


def test_adjoint_infected_human_component(p_est):
    rng = random.Random(7)
    y, lam, u = random_point(rng)
    w = Weights()
    d = adjoint_rhs(y, lam, u, w, p_est)
    expected = -w.K3 + lam[2] * (p_est.sigma1 + p_est.mu1) - lam[11] * p_est.nu1
    assert d[2] == pytest.approx(expected, rel=1e-12)


def test_adjoint_matches_finite_differences(p_est):
    rng = random.Random(8)
    w = Weights()
    for _ in range(10):
        y, lam, u = random_point(rng)
        analytic = adjoint_rhs(y, lam, u, w, p_est)
        for j in range(12):
            h = 1e-5 * max(1.0, abs(y[j]))
            up = StateVec(*(v + h if i == j else v for i, v in enumerate(y)))
            dn = StateVec(*(v - h if i == j else v for i, v in enumerate(y)))
            fd = -(hamiltonian(up, lam, u, w, p_est) - hamiltonian(dn, lam, u, w, p_est)) / (2 * h)
            assert abs(analytic[j] - fd) < 1e-6 * max(1.0, abs(analytic[j]), abs(fd))


# --- characterization -------------------------------------------------------------


def test_characterization_zero_adjoint(p_est, default_state):
    u = characterize_controls(default_state, ZERO_LAM, Weights(), p_est)
    assert u == ControlConst(0.0, 0.0, 0.0, 0.0)


def test_characterization_clamps_at_one(p_est, default_state):
    lam = tuple(1e9 if i in (1, 8) else 0.0 for i in range(12))  # lam2 and lam9
    u = characterize_controls(default_state, lam, Weights(), p_est)
    assert u.u4 == 1.0


def test_characterization_u3_formula(p_est):
    # engineer (tau1 I_F + tau2 I_D + tau3 lamM) S_H = 0.3 with lam2-lam1 = 1
    S_H = 0.3 / (p_est.tau1 * 10.0)
    y = StateVec(S_H, 0, 0, 0, 0, 0, 10.0, 0, 0, 0, 0, 0)
    lam = (1.0, 2.0) + (0.0,) * 10
    w = Weights(A1=1.0, A2=1.0, A3=1.0, A4=1.0)
    u = characterize_controls(y, lam, w, p_est)
    assert u.u3 == pytest.approx(0.3, rel=1e-12)
    assert u.u2 == 0.0 and u.u4 == 0.0


def test_characterization_respects_mask(p_est, default_state):
    lam = tuple(5.0 if i % 2 == 0 else -5.0 for i in range(12))
    u = characterize_controls(default_state, lam, Weights(), p_est, mask=(False, True, False, True))
    assert u.u1 == 0.0 and u.u3 == 0.0


@pytest.mark.parametrize("strategy", ["A", "D"])
def test_batched_characterization_equals_per_node_calls(p_est, default_state, strategy):
    """One call on every node of a sweep gives the bits of one scalar call per node."""
    g = TimeGrid(0.0, 20.0, 200)
    mask = STRATEGY_MASKS[strategy]
    res = forward_backward_sweep(p_est, Weights(), default_state, g, mask, max_iter=3)
    Y = StateVec(*np.array(res.states.states).T)
    lam = res.adjoints.T
    u_star = characterize_controls(Y, lam, Weights(), p_est, mask)
    batch = np.column_stack(np.broadcast_arrays(*u_star))
    per_node = np.array([
        characterize_controls(y, l, Weights(), p_est, mask)
        for y, l in zip(res.states.states, res.adjoints)
    ])
    assert np.array_equal(batch, per_node)
    assert ((batch > 0.0) & (batch < 1.0)).any()  # interior values, not only the bounds


# --- sweep -------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGY_MASKS))
def test_sweep_keeps_masked_controls_positive_zero(p_est, default_state, strategy):
    """A control path holds no mask: the sweep keeps each masked control +0.0 at every node
    (characterize_controls gives 0.0 and the sweep starts from zero), and its result carries
    the mask."""
    mask = STRATEGY_MASKS[strategy]
    res = forward_backward_sweep(p_est, Weights(), default_state, TimeGrid(0.0, 20.0, 200), mask)
    assert res.mask == mask
    off = res.controls.values[:, [not on for on in mask]]
    assert (off == 0.0).all() and not np.signbit(off).any()
    assert (res.controls.values[:, list(mask)] > 0.0).any()  # the active controls moved


def test_sweep_all_masked_off(p_est, default_state):
    g = TimeGrid(0.0, 5.0, 250)
    res = forward_backward_sweep(p_est, Weights(), default_state, g, mask=(False,) * 4)
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.controls.values, np.zeros((g.n_nodes, 4)))


def test_sweep_prohibitive_cost_gives_tiny_controls(p_est):
    w = Weights(A1=1e9, A2=1e9, A3=1e9, A4=1e9)
    y0 = seeded_state(p_est)._replace(I_F=1e-3, I_D=1e-3)
    g = TimeGrid(0.0, 20.0, 1000)
    res = forward_backward_sweep(p_est, w, y0, g)
    assert res.converged
    assert max(max(u) for u in res.controls.values) < 1e-6


def test_sweep_parameter_validation(p_est, default_state):
    g = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ConfigError):
        forward_backward_sweep(p_est, Weights(), default_state, g, omega=0.0)
    with pytest.raises(ConfigError):
        forward_backward_sweep(p_est, Weights(), default_state, g, tol=-1.0)
    with pytest.raises(ConfigError, match="finite"):
        forward_backward_sweep(p_est, Weights(), default_state, g, tol=math.inf)
    with pytest.raises(ConfigError, match="finite"):  # the update is at most omega
        forward_backward_sweep(p_est, Weights(), default_state, g, omega=0.3, tol=0.3)
    with pytest.raises(ConfigError, match="max_iter"):
        forward_backward_sweep(p_est, Weights(), default_state, g, max_iter=0)


@pytest.fixture(scope="module")
def sweep_a_coarse(p_est):
    g = TimeGrid(0.0, 20.0, 500)
    return forward_backward_sweep(p_est, Weights(), seeded_state(p_est, *DEFAULT_SEEDING), g)


def test_sweep_converges(sweep_a_coarse):
    assert sweep_a_coarse.converged
    assert sweep_a_coarse.iterations <= 200


def test_sweep_controls_in_bounds(sweep_a_coarse):
    for u in sweep_a_coarse.controls.values:
        assert all(0.0 <= v <= 1.0 for v in u)


def test_sweep_terminal_adjoint_zero(sweep_a_coarse):
    adjoints = sweep_a_coarse.adjoints
    assert adjoints.shape == (501, 12) and not adjoints.flags.writeable
    assert (adjoints[-1] == 0.0).all()


def test_sweep_characterization_consistency(sweep_a_coarse, p_est):
    w = Weights()
    worst = 0.0
    for y, lam, u in zip(
        sweep_a_coarse.states.states, sweep_a_coarse.adjoints, sweep_a_coarse.controls.values
    ):
        u_star = characterize_controls(y, lam, w, p_est, sweep_a_coarse.mask)
        worst = max(worst, max(abs(a - b) for a, b in zip(u, u_star)))
    assert worst < 10 * 1e-4


def test_objective_equals_per_node_trapezoid(sweep_a_coarse):
    """The array objective gives the bits of a per-node running-cost loop."""
    w = Weights()
    values = [
        running_cost(y, ControlConst(*u), w)
        for y, u in zip(sweep_a_coarse.states.states, sweep_a_coarse.controls.values.tolist())
    ]
    h = sweep_a_coarse.states.grid.h
    expected = h * (0.5 * (values[0] + values[-1]) + sum(values[1:-1]))
    assert objective(sweep_a_coarse.states, sweep_a_coarse.controls, w) == expected
    assert expected == sweep_a_coarse.J_history[-1]


# Iterations and final J of each strategy: estimated preset, default seeding and weights,
# t in [0, 20] in 1000 steps, as the stage-by-stage adjoint march gave them.
SWEEP_PINS = {
    "A": (17, -1041.1438564896841),
    "B": (22, -1062.3601465819054),
    "C": (14, 132293.99301334028),
    "D": (20, -1460.393500872268),
}


@pytest.mark.parametrize("strategy", sorted(SWEEP_PINS))
def test_sweep_pinned_iterations_and_objective(p_est, strategy):
    iterations, J = SWEEP_PINS[strategy]
    res = forward_backward_sweep(p_est, Weights(), seeded_state(p_est, *DEFAULT_SEEDING),
                                 TimeGrid(0.0, 20.0, 1000), STRATEGY_MASKS[strategy])
    assert res.iterations == iterations
    assert res.J_history[-1] == pytest.approx(J, rel=1e-12, abs=0.0)


def test_sweep_objective_history_decreases_overall(sweep_a_coarse):
    J = sweep_a_coarse.J_history
    assert J[-1] <= J[0]


def test_strategy_ordering_reported(p_est, sweep_a_coarse, capsys):
    """A optimizes a superset of B's controls, B of C's: expect J_A <= J_B <= J_C.

    Empirical ordering is reported rather than asserted; the sweep finds
    stationary points, not certified global minima.
    """
    g = TimeGrid(0.0, 20.0, 500)
    y0 = seeded_state(p_est, *DEFAULT_SEEDING)
    J = {"A": sweep_a_coarse.J_history[-1]}
    for name in ("B", "C"):
        res = forward_backward_sweep(p_est, Weights(), y0, g, STRATEGY_MASKS[name])
        assert res.converged
        J[name] = res.J_history[-1]
    ordered = J["A"] <= J["B"] <= J["C"]
    with capsys.disabled():
        print(f"\nstrategy objectives: J_A={J['A']:.4g} J_B={J['B']:.4g} J_C={J['C']:.4g} "
              f"({'ordered' if ordered else 'ORDER VIOLATED'})")


def test_csv_writers(tmp_path):
    assert main(["--outdir", str(tmp_path), "--set", "grid.n_steps=20", "optimize"]) == 0
    (run,) = tmp_path.iterdir()
    cpath = run / "controls.csv"
    apath = run / "adjoints.csv"
    assert cpath.read_text().splitlines()[0] == "t,u1,u2,u3,u4"
    header = apath.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"lam{i}" for i in range(1, 13))
