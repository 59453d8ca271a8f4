"""Incidence prediction, mean squared error and bounded Nelder-Mead."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabictl.calibrate import (
    FitConfig,
    IncidenceSeries,
    fit,
    mse,
    nelder_mead,
    predict_incidence,
    tanzania_series,
)
from rabictl.errors import ConfigError, NumericError
from rabictl.integrate import ControlPath, TimeGrid, euler_forward, rk4_forward
from rabictl.model import StateVec, seeded_state


def test_series_validation():
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1990), (1.0, 2.0))
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1991), (1.0,))
    with pytest.raises(ConfigError):
        IncidenceSeries((1990, 1991), (1.0, -2.0))


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


# --- Nelder-Mead ------------------------------------------------------------------


def nm_config(names, bounds, x0, **kw):
    return FitConfig(free=tuple(names), bounds=bounds, x0=x0, **kw)


def test_nm_quadratic():
    cfg = nm_config(["theta1"], {"theta1": (-10.0, 10.0)}, {"theta1": 0.0})
    x, f, evals, conv = nelder_mead(lambda v: (v[0] - 3.0) ** 2, cfg)
    assert conv and abs(x[0] - 3.0) < 1e-6


def test_nm_rosenbrock():
    cfg = nm_config(
        ["theta1", "theta2"],
        {"theta1": (-5.0, 5.0), "theta2": (-5.0, 5.0)},
        {"theta1": -1.2, "theta2": 1.0},
        max_evals=2000,
    )
    rosen = lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2
    x, f, evals, conv = nelder_mead(rosen, cfg)
    assert evals <= 2000
    assert abs(x[0] - 1.0) < 1e-4 and abs(x[1] - 1.0) < 1e-4


def test_nm_never_worse_than_start():
    cfg = nm_config(["theta1", "theta2"],
                    {"theta1": (-4.0, 4.0), "theta2": (-4.0, 4.0)},
                    {"theta1": 2.0, "theta2": -1.0}, max_evals=60)
    fn = lambda v: np.sin(3 * v[0]) + v[1] ** 2 + 0.3 * v[0]
    x, f, _, _ = nelder_mead(fn, cfg)
    assert f <= fn(np.array([2.0, -1.0])) + 1e-12


def test_nm_estimates_respect_bounds_exactly():
    # unconstrained minimum at 3 lies outside the box; the logit transform
    # pins the iterates to the feasible interval (boundary only by rounding)
    cfg = nm_config(["theta1"], {"theta1": (0.0, 2.0)}, {"theta1": 1.0}, max_evals=400)
    x, f, _, _ = nelder_mead(lambda v: (v[0] - 3.0) ** 2, cfg)
    assert 0.0 <= x[0] <= 2.0
    assert x[0] == pytest.approx(2.0, abs=1e-5)


def test_nm_nonfinite_start_raises():
    cfg = nm_config(["theta1", "theta2"],
                    {"theta1": (-1.0, 1.0), "theta2": (-1.0, 1.0)},
                    {"theta1": 0.0, "theta2": 0.5})
    for value in (float("nan"), float("inf")):
        calls = []

        def f(v):
            calls.append(v)
            return value

        with pytest.raises(NumericError, match="not finite"):
            nelder_mead(f, cfg)
        assert len(calls) == 3  # the n+1 initial vertices, nothing more


def test_fit_config_validation():
    with pytest.raises(ConfigError, match="bounds"):
        FitConfig(free=("theta1",), bounds={}, x0={"theta1": 1.0})
    with pytest.raises(ConfigError, match="inside bounds"):
        FitConfig(free=("theta1",), bounds={"theta1": (0.0, 1.0)}, x0={"theta1": 2.0})


# --- fit ---------------------------------------------------------------------------


def test_fit_no_free_params_near_zero_mse(p_est):
    """Data from the RK4 route, prediction via Euler: residual is the scheme gap."""
    y0 = seeded_state(p_est, 20.0, 50.0)
    years = tuple(range(1990, 2001))
    g = TimeGrid(0.0, 10.0, 1000)
    traj = rk4_forward(p_est, ControlPath.constant(g), y0, g)
    cases = tuple(max(0.0, traj.at(float(y - 1990)).I_H) for y in years)
    data = IncidenceSeries(years, cases)
    cfg = FitConfig(free=(), bounds={}, x0={})
    result = fit(data, cfg, p_est, y0)
    scale = max(cases) ** 2
    assert 0.0 < result.mse < 1e-4 * scale


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
