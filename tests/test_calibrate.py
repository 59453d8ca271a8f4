"""Incidence prediction, mean squared error and bounded least squares."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabictl.calibrate import (
    FitConfig,
    IncidenceSeries,
    fit,
    least_squares_fit,
    mse,
    predict_incidence,
    tanzania_series,
)
from rabictl import calibrate
from rabictl.calibrate import _incidence_jacobian as incidence_jacobian
from rabictl.errors import ConfigError, NumericError
from rabictl.integrate import ControlPath, TimeGrid, euler_forward, rk4_forward
from rabictl.model import ZERO_CONTROL, StateVec, jacobian, seeded_state
from rabictl.params import PARAM_NAMES


def test_series_validation():
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1990), (1.0, 2.0))
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1991), (1.0,))
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1991), (1.0, -2.0))
    with pytest.raises(ConfigError, match="nan"):
        IncidenceSeries((1990, 1991), (1.0, float("nan")))
    with pytest.raises(ConfigError, match="inf"):
        IncidenceSeries((1990.0, float("inf")), (1.0, 2.0))


def test_bundled_series_loads():
    data = tanzania_series()
    assert data.years[0] == 1990 and data.years[-1] == 2018
    assert len(data.years) == 29
    assert all(c > 0 for c in data.cases)


def test_series_from_csv(tmp_path):
    path = tmp_path / "inc.csv"
    path.write_text("year,cases\n2000,5\n2001,7\n")
    data = IncidenceSeries.from_csv(path)
    assert data.years == (2000, 2001) and data.cases == (5.0, 7.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("y,c\n2000,5\n")
    with pytest.raises(ConfigError, match="header"):
        IncidenceSeries.from_csv(bad)


@pytest.mark.parametrize("text", [
    "year,cases\n2000,5\n2001,7\n\n",
    "year,cases\r\n2000,5\r\n\r\n2001,7\r\n",
    "\ufeffyear,cases\n2000,5\n2001,7\n",
], ids=["trailing-blank-line", "inner-blank-line-crlf", "utf8-bom"])
def test_series_from_csv_reads_common_exports(tmp_path, text):
    path = tmp_path / "inc.csv"
    path.write_bytes(text.encode("utf-8"))
    data = IncidenceSeries.from_csv(path)
    assert data.years == (2000, 2001) and data.cases == (5.0, 7.0)


# --- prediction ----------------------------------------------------------------


def test_predictions_zero_without_infection(p_est):
    y0 = seeded_state(p_est)
    pred = predict_incidence(p_est, y0, tuple(range(1990, 2000)))
    assert np.all(pred == 0.0)


def test_euler_update_hand_value(p_base):
    """One step of the discretized infected-human update, by hand.

    I_H(t+dt) = I_H + (beta1 E_H - (sigma1+mu1) I_H) dt
              = 10 + (100/6 - 1.0142*10)*0.1 with the baseline rates.
    """
    p = p_base  # beta1 = 1/6, sigma1 = 1, mu1 = 0.0142
    y0 = StateVec(0, 100.0, 10.0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    grid = TimeGrid(0.0, 0.1, 1)
    traj = euler_forward(p, y0, grid)
    expected = 10.0 + (100.0 / 6.0 - (1.0 + 0.0142) * 10.0) * 0.1
    assert traj.states[-1].I_H == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(10.6525, abs=5e-5)


def test_prediction_step_halving(p_est):
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2019))
    a = predict_incidence(p_est, y0, years, dt=0.01)
    b = predict_incidence(p_est, y0, years, dt=0.005)
    rel = np.max(np.abs(a[1:] - b[1:]) / np.abs(b[1:]))
    assert rel < 0.005


def test_prediction_rejects_coarse_step(p_est):
    y0 = seeded_state(p_est, 20.0, 50.0)
    with pytest.raises(ConfigError, match="dt"):
        predict_incidence(p_est, y0, (1990, 1991), dt=0.1)


@pytest.mark.parametrize("dt", [0.005, 0.008, 0.01, 0.0125, 0.02, 0.025, 0.04, 0.05])
def test_observation_years_on_nodes_of_a_step_that_divides_a_year(dt):
    years = tuple(range(1990, 2019))
    grid, nodes = calibrate._observation_nodes(years, dt)
    assert [grid.times()[k] for k in nodes] == pytest.approx([y - 1990.0 for y in years], abs=1e-9)


@pytest.mark.parametrize("dt, message", [
    (0.035, "observation year 1991 lies 0.015 y off the nearest Euler node; fit.dt = 0.035"),
    (0.007, "observation year 1991 lies 0.001 y off the nearest Euler node; fit.dt = 0.007"),
    # round(28/0.03) = 933 steps end at 27.99: the span check comes first and names the year
    (0.03, "time 28.0 outside grid span [0.0, 27.99]"),
])
def test_observation_year_off_the_euler_nodes_is_config_error(p_est, dt, message):
    years = tuple(range(1990, 2019))
    with pytest.raises(ConfigError, match=re.escape(message)):
        calibrate._observation_nodes(years, dt)
    with pytest.raises(ConfigError, match=re.escape(message)):
        predict_incidence(p_est, seeded_state(p_est, 20.0, 50.0), years, dt=dt)


def test_prediction_converges_to_rk4(p_est):
    """Euler with shrinking dt approaches the RK4 trajectory."""
    y0 = seeded_state(p_est, 20.0, 50.0)
    g = TimeGrid(0.0, 5.0, 500)
    rk = rk4_forward(p_est, ControlPath.constant(g), y0, g).states[-1].I_H
    errs = [
        abs(predict_incidence(p_est, y0, (1990, 1995), dt=dt)[-1] - rk)
        for dt in (0.04, 0.02, 0.01)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)  # O(dt)


# --- mse -------------------------------------------------------------------------


def test_mse_examples():
    assert mse((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0
    assert mse((1.0, 2.0), (2.0, 4.0)) == 2.5
    with pytest.raises(ConfigError):
        mse((1.0,), (1.0, 2.0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1e4), st.floats(0, 1e4)), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_mse_reorder_invariance(pairs, rng):
    obs = [a for a, _ in pairs]
    pred = [b for _, b in pairs]
    before = mse(obs, pred)
    idx = list(range(len(pairs)))
    rng.shuffle(idx)
    after = mse([obs[i] for i in idx], [pred[i] for i in idx])
    assert after == pytest.approx(before, rel=1e-12)


# --- bounded least squares -------------------------------------------------------


def lsq_config(names, bounds, x0, **kw):
    return FitConfig(free=tuple(names), bounds=bounds, x0=x0, **kw)


def test_lsq_quadratic():
    for tol in (1e-6, 0.0):  # a tol of 0 is below rounding: scipy must not warn of it
        cfg = lsq_config(["theta1"], {"theta1": (-10.0, 10.0)}, {"theta1": 0.0}, tol=tol)
        result = least_squares_fit(lambda v: [v[0]], [3.0], cfg, lambda v: [[1.0]])
        assert result.converged and abs(result.estimates["theta1"] - 3.0) < 1e-6
        assert result.at_bound == ()


def test_lsq_rosenbrock():
    # the Rosenbrock function as the residuals 10 (x2 - x1^2) and 1 - x1
    cfg = lsq_config(
        ["theta1", "theta2"],
        {"theta1": (-5.0, 5.0), "theta2": (-5.0, 5.0)},
        {"theta1": -1.2, "theta2": 1.0},
        max_evals=2000,
    )
    result = least_squares_fit(lambda v: [10.0 * (v[1] - v[0] ** 2), -v[0]], [0.0, -1.0], cfg,
                               lambda v: [[-20.0 * v[0], 10.0], [-1.0, 0.0]])
    assert result.converged and result.evals <= 2000
    x = result.estimates
    assert abs(x["theta1"] - 1.0) < 1e-4 and abs(x["theta2"] - 1.0) < 1e-4


def test_lsq_never_worse_than_start():
    cfg = lsq_config(["theta1", "theta2"],
                     {"theta1": (-4.0, 4.0), "theta2": (-4.0, 4.0)},
                     {"theta1": 2.0, "theta2": -1.0}, max_evals=60)
    predict = lambda v: [np.sin(3 * v[0]), v[1], 0.3 * v[0]]
    jac = lambda v: [[3 * np.cos(3 * v[0]), 0.0], [0.0, 1.0], [0.3, 0.0]]
    result = least_squares_fit(predict, [0.0, 0.0, 0.0], cfg, jac)
    assert result.mse <= mse([0.0, 0.0, 0.0], predict(np.array([2.0, -1.0])))
    assert result.predicted == tuple(predict(np.array(list(result.estimates.values()))))


def test_lsq_estimates_respect_bounds():
    # the unconstrained minimum at 3 lies outside the box; every iterate stays strictly
    # inside it, and the active bound is reported
    cfg = lsq_config(["theta1"], {"theta1": (0.0, 2.0)}, {"theta1": 1.0}, max_evals=400)
    result = least_squares_fit(lambda v: [v[0]], [3.0], cfg, lambda v: [[1.0]])
    assert 0.0 <= result.estimates["theta1"] <= 2.0
    assert result.estimates["theta1"] == pytest.approx(2.0, abs=1e-5)
    assert result.at_bound == ("theta1",)


def test_lsq_nonfinite_start_raises():
    cfg = lsq_config(["theta1", "theta2"],
                     {"theta1": (-1.0, 1.0), "theta2": (-1.0, 1.0)},
                     {"theta1": 0.0, "theta2": 0.5})
    for value in (float("nan"), float("inf")):
        calls = []

        def predict(v):
            calls.append(v)
            return [value, 1.0]

        with pytest.raises(NumericError, match="not finite at the start"):
            least_squares_fit(predict, [0.0, 0.0], cfg, lambda v: np.zeros((2, 2)))
        assert len(calls) == 1  # the start, nothing more


def test_lsq_overflowing_sum_of_squares_at_start_names_it():
    """Finite residuals whose sum of squares overflows are not called non-finite residuals."""
    cfg = lsq_config(["theta1"], {"theta1": (-1.0, 1.0)}, {"theta1": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="sum of squared residuals overflows at the start"):
            least_squares_fit(lambda v: [1e200, 1e200], [0.0, 0.0], cfg, lambda v: [[0.0]] * 2)
        with pytest.raises(NumericError, match="residuals are not finite at the start"):
            least_squares_fit(lambda v: [math.inf, 1e200], [0.0, 0.0], cfg, lambda v: [[0.0]] * 2)


def test_lsq_nonfinite_jacobian_raises_without_warning():
    # the start is finite, but the prediction is inf right above it: so is its derivative there
    cfg = lsq_config(["theta1", "theta2"], {"theta1": (-10.0, 10.0), "theta2": (-10.0, 10.0)},
                     {"theta1": 0.0, "theta2": 0.0})

    def predict(v):
        return [math.inf] * 2 if v[0] > 0.0 else [v[0], v[1]]

    def jac(v):
        return [[math.inf if v[0] >= 0.0 else 1.0, 0.0], [0.0, 1.0]]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="Jacobian is not finite"):
            least_squares_fit(predict, [2.0, 1.0], cfg, jac)


# Free parameters whose effect on I_H a central difference of the march resolves. M saturates
# M/(M+C), so mu4 and nu1..nu3 move I_H by under 1e-6 of its size, which is within that
# difference's rounding noise. rhs is not affine in C and rho1..rho3.
ORACLE_PARAMS = tuple(n for n in PARAM_NAMES if n not in ("mu4", "nu1", "nu2", "nu3"))


@settings(max_examples=15, deadline=None)
@given(free=st.lists(st.sampled_from(ORACLE_PARAMS), min_size=1, max_size=3, unique=True),
       scale=st.floats(0.5, 2.0), dt=st.sampled_from([0.01, 0.02, 0.05]))
@example(free=["C", "theta1"], scale=1.3, dt=0.02)
@example(free=["rho1", "tau1", "beta1"], scale=0.7, dt=0.01)
def test_fit_jacobian_matches_central_difference_of_the_march(p_est, free, scale, dt):
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2011))
    cfg = FitConfig(free=tuple(free), x0={n: getattr(p_est, n) * scale for n in free},
                    bounds={n: (getattr(p_est, n) / 4, getattr(p_est, n) * 4) for n in free}, dt=dt)
    p = p_est.replace(**cfg.x0)
    grid, nodes = calibrate._observation_nodes(years, dt)
    jac = incidence_jacobian(p, euler_forward(p, y0, grid).values, grid, nodes, cfg)
    for column, name in zip(jac.T, free):
        x = getattr(p, name)

        def central(d):
            up, down = (predict_incidence(p.replace(**{name: x + s}), y0, years, dt) for s in (d, -d))
            return (up - down) / (2 * d)

        reference = (4 * central(0.005 * x) - central(0.01 * x)) / 3  # Richardson: O(d^4)
        assert np.abs(column - reference).max() <= 1e-6 * np.abs(reference).max(), name


@pytest.mark.parametrize("dt", [0.05, 0.01], ids=["one-block", "two-blocks"])
def test_incidence_jacobian_leaves_later_jacobians_unchanged(p_est, dt):
    """The fit's Jacobian adds I into the T ``model.jacobian`` returns, 128 steps at a time; a
    later call's T must not see it, on floats or on arrays."""
    cfg = FitConfig(free=("theta1",), x0={"theta1": p_est.theta1},
                    bounds={"theta1": (1.0, 4000.0)}, dt=dt)
    grid, nodes = calibrate._observation_nodes((1990, 1991, 1992), dt)
    values = euler_forward(p_est, seeded_state(p_est, 20.0, 50.0), grid).values
    points = [StateVec._make(values[:-1].T), StateVec._make(values[-1].tolist())]
    before = [a.tobytes() for y in points for a in jacobian(y, ZERO_CONTROL, p_est)]
    incidence_jacobian(p_est, values, grid, nodes, cfg)
    assert [a.tobytes() for y in points for a in jacobian(y, ZERO_CONTROL, p_est)] == before


def test_incidence_jacobian_end_past_a_rule_falls_back_to_x(p_est):
    """At theta1 = mu1 + 1e-6, x - 1e-4 x breaks theta1 > mu1: that end falls back to x, which
    gives the bits of a box whose lower bound is x (the march's p holds x; cfg.x0 is not read)."""
    x = p_est.mu1 + 1e-6
    p = p_est.replace(theta1=x)
    grid, nodes = calibrate._observation_nodes((1990, 1991, 1992), 0.05)
    values = euler_forward(p, seeded_state(p, 20.0, 50.0), grid).values
    columns = [incidence_jacobian(p, values, grid, nodes, FitConfig(
        free=("theta1",), x0={"theta1": 1.0}, bounds={"theta1": (lo, 4000.0)}, dt=0.05))
        for lo in (1e-3, x)]
    assert np.isfinite(columns[0]).all() and columns[0].tobytes() == columns[1].tobytes()


@pytest.mark.parametrize("max_evals", [1, 5, 7, 2000])
def test_lsq_evals_count_every_prediction(p_est, monkeypatch, max_evals):
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2011))
    data = IncidenceSeries(years, tuple(1.1 * v for v in predict_incidence(p_est, y0, years)))
    calls, jacobians = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return euler_forward(*args, **kwargs)

    def counted_jacobian(*args):
        jacobians.append(args)
        return incidence_jacobian(*args)

    monkeypatch.setattr(calibrate, "euler_forward", counted)  # after the data's own march
    monkeypatch.setattr(calibrate, "_incidence_jacobian", counted_jacobian)
    free = ("theta1", "tau1")

    def config(budget):
        return FitConfig(free=free, bounds={n: (getattr(p_est, n) / 4, getattr(p_est, n) * 4)
                                            for n in free},
                         x0={n: getattr(p_est, n) * 1.5 for n in free}, max_evals=budget, dt=0.05)

    unbounded = fit(data, config(2000), p_est, y0)
    assert unbounded.converged and len(calls) == unbounded.evals
    assert jacobians  # each on the march just made, at no march of its own
    calls.clear()
    result = fit(data, config(max_evals), p_est, y0)
    assert len(calls) == result.evals <= max_evals
    assert result.evals == min(unbounded.evals, max_evals)
    assert result.converged == (max_evals >= unbounded.evals)
    if not result.converged:
        assert result.evals == max_evals and result.at_bound == ()


@pytest.mark.parametrize("max_evals", [1, 2000])
def test_jacobian_elsewhere_marches_once_and_counts_it(p_est, monkeypatch, max_evals):
    """scipy asks for a Jacobian only where it has just evaluated; asked elsewhere, the fit
    marches there first, as one more evaluation within ``max_evals``."""
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2011))
    data = IncidenceSeries(years, tuple(1.1 * v for v in predict_incidence(p_est, y0, years)))
    cfg = FitConfig(free=("theta1",), bounds={"theta1": (p_est.theta1 / 4, p_est.theta1 * 4)},
                    x0={"theta1": p_est.theta1 * 1.5}, max_evals=max_evals, dt=0.05)
    elsewhere = p_est.theta1 * 1.2
    marches, probed = [], []
    least_squares = calibrate.optimize.least_squares

    def counted(p, *args):
        marches.append(p)
        return euler_forward(p, *args)

    def probing(fun, x0, jac, **kwargs):
        before = len(marches)
        probed.append(jac(np.array([elsewhere])))  # a point no residual call has evaluated
        assert len(marches) == before + 1 and marches[-1].theta1 == elsewhere
        return least_squares(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(calibrate, "euler_forward", counted)
    monkeypatch.setattr(calibrate.optimize, "least_squares", probing)
    result = fit(data, cfg, p_est, y0)
    assert result.evals == len(marches) <= max_evals
    if max_evals == 1:  # the start used the budget: no Jacobian, and no converged fit
        assert probed == [] and not result.converged and result.at_bound == ()
    else:
        p = p_est.replace(theta1=elsewhere)
        grid, nodes = calibrate._observation_nodes(years, cfg.dt)
        expected = incidence_jacobian(p, euler_forward(p, y0, grid).values, grid, nodes, cfg)
        assert np.array_equal(probed[0], expected / math.sqrt(len(years)))
        assert result.converged


def test_fit_config_validation():
    with pytest.raises(ConfigError, match="bounds"):
        FitConfig(free=("theta1",), bounds={}, x0={"theta1": 1.0})
    with pytest.raises(ConfigError, match="inside bounds"):
        FitConfig(free=("theta1",), bounds={"theta1": (0.0, 1.0)}, x0={"theta1": 2.0})
    with pytest.raises(ConfigError, match="free parameter 'theta1' is named twice"):
        FitConfig(free=("theta1", "tau1", "theta1"), bounds={"theta1": (0.0, 1.0), "tau1": (0, 1)},
                  x0={"theta1": 0.5, "tau1": 0.5})
    with pytest.raises(ConfigError, match="at least one free parameter"):
        FitConfig(free=(), bounds={}, x0={})
    with pytest.raises(ConfigError, match="fit.bounds names 'beta9'"):
        FitConfig(free=("theta1",), bounds={"theta1": (0.0, 1.0), "beta9": (0.0, 1.0)},
                  x0={"theta1": 0.5})
    with pytest.raises(ConfigError, match="fit.x0 names 'tau1'"):
        FitConfig(free=("theta1",), bounds={"theta1": (0.0, 1.0)}, x0={"theta1": 0.5, "tau1": 5.0})
    ok = dict(free=("theta1",), bounds={"theta1": (0.0, 1.0)}, x0={"theta1": 0.5})
    for bad, match in [({"dt": 0.0}, "dt"), ({"dt": float("nan")}, "dt"), ({"dt": 0.1}, "dt"),
                       ({"max_evals": 0}, "max_evals"), ({"tol": float("nan")}, "tol"),
                       ({"tol": float("inf")}, "tol")]:
        with pytest.raises(ConfigError, match=match):
            FitConfig(**ok, **bad)


# --- fit ---------------------------------------------------------------------------


def test_fit_grid_error_is_config_error(p_est):
    # a 10^301-step Euler grid is a config error, not an objective that is inf everywhere
    cfg = FitConfig(free=("theta1",), bounds={"theta1": (1000.0, 4000.0)},
                    x0={"theta1": 2000.0}, dt=1e-300)
    data = IncidenceSeries((1990, 1991, 1992), (5.0, 6.0, 7.0))
    with pytest.raises(ConfigError, match="n_steps"):
        fit(data, cfg, p_est, seeded_state(p_est, 20.0, 50.0))


def test_euler_prediction_of_rk4_data_near_zero_mse(p_est):
    """Data from the RK4 route, prediction via Euler: residual is the scheme gap."""
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2001))
    g = TimeGrid(0.0, 10.0, 1000)
    traj = rk4_forward(p_est, ControlPath.constant(g), y0, g)
    cases = tuple(max(0.0, traj.states[g.node_at(float(y - 1990))].I_H) for y in years)
    scale = max(cases) ** 2
    assert 0.0 < mse(cases, predict_incidence(p_est, y0, years)) < 1e-4 * scale


def test_fit_recovers_single_parameter(p_est):
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2011))
    data = IncidenceSeries(years, tuple(float(v) for v in predict_incidence(p_est, y0, years)))
    cfg = FitConfig(
        free=("theta1",),
        bounds={"theta1": (p_est.theta1 / 4, p_est.theta1 * 4)},
        x0={"theta1": p_est.theta1 * 1.5},
        max_evals=250,
    )
    result = fit(data, cfg, p_est, y0)
    assert abs(result.estimates["theta1"] - p_est.theta1) / p_est.theta1 < 0.05
    assert len(result.predicted) == len(years)
    assert result.at_bound == ()


def test_fit_from_box_centre_reaches_bound(p_est):
    # the truth lies below the box, so the fit ends on the lower bound
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2011))
    data = IncidenceSeries(years, tuple(float(v) for v in predict_incidence(p_est, y0, years)))
    cfg = FitConfig(
        free=("theta1",),
        bounds={"theta1": (p_est.theta1 * 2, p_est.theta1 * 4)},
        x0={"theta1": p_est.theta1 * 3},
        max_evals=250,
    )
    result = fit(data, cfg, p_est, y0)
    assert result.evals > 2
    assert result.at_bound == ("theta1",)


def test_fit_improves_on_bundled_series(p_est):
    data = tanzania_series()
    y0 = seeded_state(p_est, 20.0, 50.0)
    free = ("theta1", "tau1", "beta1")
    cfg = FitConfig(
        free=free,
        bounds={n: (getattr(p_est, n) / 4, getattr(p_est, n) * 4) for n in free},
        x0={n: getattr(p_est, n) * 1.3 for n in free},
        max_evals=120,
    )
    start_mse = mse(data.cases, predict_incidence(
        p_est.replace(**cfg.x0), y0, data.years, dt=cfg.dt))
    result = fit(data, cfg, p_est, y0)
    assert result.mse < start_mse
