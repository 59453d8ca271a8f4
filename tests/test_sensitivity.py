"""Latin hypercube sampling and partial rank correlation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rabictl import sensitivity
from rabictl.cli import main
from rabictl.errors import ConfigError, DegenerateInputError, IntegrationBlowupError, StudyError
from rabictl.integrate import ControlPath, TimeGrid, rk4_forward
from rabictl.model import StateVec, seeded_state
from rabictl.params import PARAM_NAMES, rates_of
from rabictl.sensitivity import (
    ParamRange,
    _ranks,
    _simulate_rows,
    lhs_sample,
    normal_ranges,
    prcc,
    prcc_study,
    uniform_ranges,
)


def rank_partial_corr_oracle(X, Z):
    """Independent route: partial correlation from the precision matrix of ranks."""
    cols = [stats.rankdata(X[:, i]) for i in range(X.shape[1])] + [stats.rankdata(Z)]
    Om = np.linalg.inv(np.corrcoef(np.column_stack(cols), rowvar=False))
    zi = X.shape[1]
    return np.array([-Om[i, zi] / np.sqrt(Om[i, i] * Om[zi, zi]) for i in range(zi)])


def residual_regression_prcc(X, Z):
    """Independent route: correlate the residuals of two rank regressions per parameter."""
    n, p = X.shape
    R = np.column_stack([stats.rankdata(X[:, i]) for i in range(p)])
    z = stats.rankdata(Z)
    ones = np.ones((n, 1))
    out = np.empty(p)
    for i in range(p):
        others = np.hstack([ones, np.delete(R, i, axis=1)])
        coef_x, _, rank_x, _ = np.linalg.lstsq(others, R[:, i], rcond=None)
        coef_z, _, rank_z, _ = np.linalg.lstsq(others, z, rcond=None)
        if min(rank_x, rank_z) < others.shape[1]:
            raise DegenerateInputError(
                f"rank-deficient regression while treating column {i}; "
                "some sample columns are collinear"
            )
        res_x = R[:, i] - others @ coef_x
        res_z = z - others @ coef_z
        denom = np.sqrt((res_x @ res_x) * (res_z @ res_z))
        if denom == 0.0:
            raise DegenerateInputError(
                f"zero residual variance while treating column {i}"
            )
        out[i] = float(res_x @ res_z / denom)
    return out


# --- ranges and sampling ----------------------------------------------------------


def test_param_range_validation():
    with pytest.raises(ConfigError):
        ParamRange("theta1", "uniform", 2.0, 1.0)
    with pytest.raises(ConfigError):
        ParamRange("theta1", "normal", 1.0, 0.0)
    with pytest.raises(ConfigError):
        ParamRange("not_a_param", "uniform", 0.0, 1.0)
    with pytest.raises(ConfigError):
        ParamRange("theta1", "weibull", 0.0, 1.0)


def test_uniform_ranges_cover_all_parameters(p_est):
    ranges = uniform_ranges(p_est, 0.25)
    assert tuple(r.name for r in ranges) == PARAM_NAMES
    for r in ranges:
        base = getattr(p_est, r.name)
        assert r.a == pytest.approx(0.75 * base) and r.b == pytest.approx(1.25 * base)


def test_lhs_stratification_exact():
    ranges = [ParamRange("theta1", "uniform", 0.0, 1.0), ParamRange("tau1", "uniform", 2.0, 6.0)]
    for N in (4, 17, 100):
        X = lhs_sample(ranges, N, seed=5)
        u0 = np.sort(X[:, 0])
        assert np.array_equal(np.floor(u0 * N), np.arange(N))  # one sample per stratum
        u1 = np.sort((X[:, 1] - 2.0) / 4.0)
        assert np.array_equal(np.floor(u1 * N), np.arange(N))


def test_lhs_deterministic_given_seed():
    ranges = [ParamRange("theta1", "uniform", 0.0, 1.0)]
    assert np.array_equal(lhs_sample(ranges, 50, 11), lhs_sample(ranges, 50, 11))
    assert not np.array_equal(lhs_sample(ranges, 50, 11), lhs_sample(ranges, 50, 12))


def test_lhs_uniform_mean_oracle():
    a, b, N = 3.0, 9.0, 1000
    X = lhs_sample([ParamRange("theta1", "uniform", a, b)], N, seed=13)
    se = (b - a) / np.sqrt(12 * N)  # iid standard error; LHS is tighter
    assert abs(X[:, 0].mean() - (a + b) / 2) < 3 * se


def test_lhs_normal_truncated_positive():
    # sd comparable to mean: untruncated draws would cross zero
    X = lhs_sample([ParamRange("nu1", "normal", 0.001, 0.002)], 500, seed=3)
    assert np.all(X > 0.0)


def test_normal_preset_ranges():
    ranges = normal_ranges(["theta1", "C"])
    assert ranges[0].kind == "normal" and ranges[0].a == pytest.approx(1996.691056)


def test_normal_ppf_equals_scipy_truncnorm():
    q = np.linspace(0.0005, 0.9995, 1000)
    for r in (ParamRange("beta1", "normal", 0.166124, 7.68e-4),
              ParamRange("nu1", "normal", 0.001, 0.002)):  # sd > mean: the truncation binds
        expected = stats.truncnorm.ppf(q, (0.0 - r.a) / r.b, np.inf, loc=r.a, scale=r.b)
        assert np.array_equal(r.ppf(q), expected)


def test_lhs_validation():
    with pytest.raises(ConfigError):
        lhs_sample([ParamRange("theta1", "uniform", 0, 1)], 1, 0)
    with pytest.raises(ConfigError):
        lhs_sample([], 10, 0)
    with pytest.raises(ConfigError, match="N <="):
        lhs_sample([ParamRange("theta1", "uniform", 0, 1)], 10**6 + 1, 0)
    with pytest.raises(ConfigError, match="seed"):
        lhs_sample([ParamRange("theta1", "uniform", 0, 1)], 10, -1)


def test_uniform_ranges_reject_relative_width_outside_unit_interval(p_est):
    for rel in (0.0, 1.0, -0.5, math.inf, math.nan):
        with pytest.raises(ConfigError, match="relative range"):
            uniform_ranges(p_est, rel)


# --- prcc -------------------------------------------------------------------------


floats = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0])
# vectors drawn from a pool of at most five values, so most of them hold ties
tied_vectors = st.lists(floats, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=1, max_size=40) | tied_vectors)
def test_ranks_equal_scipy_rankdata(values):
    x = np.array(values)
    got, expected = _ranks(x), stats.rankdata(x, method="average")
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_ranks_nan_propagates_like_rankdata():
    x = np.array([2.0, np.nan, 1.0])
    assert np.array_equal(_ranks(x), stats.rankdata(x, method="average"), equal_nan=True)


def test_prcc_null_case():
    rng = np.random.default_rng(21)
    X = rng.random((1000, 4))
    Z = rng.random(1000)
    assert np.all(np.abs(prcc(X, Z)) < 0.1)


def test_prcc_perfect_monotone_dependence():
    rng = np.random.default_rng(22)
    X = rng.random((1000, 3))
    Z = np.exp(3 * X[:, 0])
    r = prcc(X, Z)
    assert r[0] > 0.99
    assert np.all(np.abs(r[1:]) < 0.1)


def test_prcc_against_precision_matrix_oracle():
    rng = np.random.default_rng(23)
    X = rng.random((50, 3))
    Z = 1.3 * X[:, 0] - 0.7 * X[:, 1] + 0.1 * rng.random(50)
    assert np.max(np.abs(prcc(X, Z) - rank_partial_corr_oracle(X, Z))) < 1e-10


def study_sample(p_base, N, seed):
    """An LHS sample over all 33 parameters and its 4 outputs x 5 times, as (N, 20)."""
    grid = TimeGrid(0.0, 10.0, 500)
    X, _, _, rows = simulate_batch(uniform_ranges(p_base, 0.25), N, seed, p_base,
                                   light_seed_state(p_base), grid, [2.0, 4.0, 6.0, 8.0, 10.0],
                                   ("I_H", "I_F", "I_D", "M"))
    keep = [i for i, r in enumerate(rows) if r is not None]
    return X[keep], np.stack([rows[i] for i in keep]).reshape(len(keep), -1)


def test_prcc_equals_residual_regression_oracle(p_base):
    # the 50x3 cases of test_prcc_against_precision_matrix_oracle and criterion 10
    for seed, make_z in ((23, lambda X, e: 1.3 * X[:, 0] - 0.7 * X[:, 1] + 0.1 * e),
                         (50, lambda X, e: 1.7 * X[:, 0] - 0.9 * X[:, 1] ** 3 + 0.2 * e)):
        rng = np.random.default_rng(seed)
        X = rng.random((50, 3))
        Z = make_z(X, rng.random(50))
        assert np.max(np.abs(prcc(X, Z) - residual_regression_prcc(X, Z))) < 1e-12

    for N, seed in ((100, 5), (1000, 9)):
        X, Z = study_sample(p_base, N, seed)
        assert X.shape == (N, 33) and Z.shape == (N, 20)
        got = prcc(X, Z)  # every output column in one call
        assert got.shape == (20, 33)
        expected = np.array([residual_regression_prcc(X, z) for z in Z.T])
        assert np.max(np.abs(got - expected)) < 1e-12


def test_prcc_2d_rows_equal_1d_calls():
    rng = np.random.default_rng(28)
    X = rng.random((80, 4))
    Z = np.column_stack([X[:, 0] + rng.random(80), X[:, 2] ** 3 - X[:, 1], rng.random(80)])
    got = prcc(X, Z)
    assert got.shape == (3, 4)
    for j in range(3):
        assert np.max(np.abs(got[j] - prcc(X, Z[:, j]))) < 1e-14
    assert prcc(X, Z[:, :1]).shape == (1, 4)
    with pytest.raises(ConfigError, match="shape"):
        prcc(X, Z[:-1])
    with pytest.raises(DegenerateInputError, match=r"constant output column\(s\): \[1\]"):
        prcc(X, np.column_stack([Z[:, 0], np.full(80, 2.0)]))


def test_prcc_invariant_under_monotone_transform():
    rng = np.random.default_rng(24)
    X = rng.random((200, 4))
    Z = X[:, 1] + 0.5 * rng.random(200)
    base = prcc(X, Z)
    cubed = prcc(X**3, Z**3)
    assert np.max(np.abs(base - cubed)) < 1e-12


def test_prcc_invariant_under_row_shuffle():
    rng = np.random.default_rng(25)
    X = rng.random((150, 3))
    Z = X[:, 0] ** 2 + rng.random(150)
    perm = rng.permutation(150)
    assert np.max(np.abs(prcc(X, Z) - prcc(X[perm], Z[perm]))) < 1e-12


def test_prcc_error_cases():
    rng = np.random.default_rng(26)
    X = rng.random((10, 8))
    with pytest.raises(ConfigError, match="N > P"):
        prcc(X, rng.random(10))
    X2 = rng.random((50, 3))
    X2[:, 1] = 4.2
    with pytest.raises(DegenerateInputError, match="constant"):
        prcc(X2, rng.random(50))
    X3 = rng.random((50, 3))
    X3[:, 2] = X3[:, 0]
    with pytest.raises(DegenerateInputError, match="collinear"):
        prcc(X3, rng.random(50))


def test_prcc_magnitudes_bounded():
    rng = np.random.default_rng(27)
    X = rng.random((120, 5))
    Z = X @ rng.random(5) + 0.01 * rng.random(120)
    assert np.all(np.abs(prcc(X, Z)) <= 1.0 + 1e-12)


# --- study ------------------------------------------------------------------------


def light_seed_state(p):
    return StateVec(
        S_H=p.theta1 / p.mu1, E_H=0, I_H=0, R_H=0,
        S_F=p.theta2 / p.mu2, E_F=5.0, I_F=10.0,
        S_D=p.theta3 / p.mu3, E_D=5.0, I_D=10.0, R_D=0, M=0.1,
    )


def test_prcc_study_shapes_and_determinism(p_base):
    ranges = uniform_ranges(p_base, 0.25, names=["tau1", "kappa1", "beta2", "nu1", "rho1"])
    grid = TimeGrid(0.0, 5.0, 100)
    kwargs = dict(
        ranges=ranges, N=40, seed=17, p_base=p_base, y0=light_seed_state(p_base),
        grid=grid, sample_times=[2.0, 5.0], outputs=("I_H", "M"),
    )
    res1 = prcc_study(**kwargs)
    res2 = prcc_study(**kwargs)
    assert res1.outputs == ("I_H", "M")
    assert res1.times == (2.0, 5.0)
    assert res1.param_names == ("tau1", "kappa1", "beta2", "nu1", "rho1")
    assert res1.coefficients.shape == (2, 2, 5)
    assert np.array_equal(res1.coefficients, res2.coefficients)
    assert np.all(np.abs(res1.coefficients) <= 1.0)
    assert (res1.N, res1.seed, res1.dropped_rows) == (40, 17, 0)


def test_prcc_study_equals_one_prcc_per_output_and_time(p_base):
    ranges = uniform_ranges(p_base, 0.25, names=["tau1", "kappa1", "beta2", "nu1", "rho1"])
    grid, times, outputs = TimeGrid(0.0, 5.0, 100), [2.0, 3.5, 5.0], ("I_H", "I_D", "M")
    y0 = light_seed_state(p_base)
    study = prcc_study(ranges, 40, 17, p_base, y0, grid, times, outputs)
    X, _, _, rows = simulate_batch(ranges, 40, 17, p_base, y0, grid, times, outputs)
    for oi, coefficients in enumerate(study.coefficients):
        for ti in range(len(times)):
            z = np.array([r[ti, oi] for r in rows])
            assert np.max(np.abs(coefficients[ti] - prcc(X, z))) < 1e-12


def test_prcc_study_drops_blowup_rows(p_base):
    # absurd transmission on a coarse grid: every row fails -> study error
    ranges = [ParamRange("kappa1", "uniform", 20.0, 60.0)]
    grid = TimeGrid(0.0, 50.0, 10)
    with pytest.raises(StudyError, match="failed to simulate"):
        prcc_study(ranges, 10, 1, p_base, light_seed_state(p_base), grid,
                   sample_times=[50.0], outputs=("I_H",))


def test_prcc_study_rejects_unknown_output(p_base):
    with pytest.raises(ConfigError, match="unknown output"):
        prcc_study(uniform_ranges(p_base, 0.25, names=["tau1"]), 10, 1, p_base,
                   light_seed_state(p_base), TimeGrid(0, 1, 10), [1.0], outputs=("X_H",))


def test_prcc_study_checks_sample_size_before_sampling(p_base, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a study that PRCC cannot use")

    monkeypatch.setattr("rabictl.sensitivity.lhs_sample", no_sampling)
    with pytest.raises(ConfigError, match=r"PRCC needs N > P \+ 2 samples, got N=5, P=3"):
        prcc_study(uniform_ranges(p_base, 0.25, names=["tau1", "mu1", "beta2"]), 5, 1, p_base,
                   light_seed_state(p_base), TimeGrid(0, 1, 10), [1.0], outputs=("I_H",))


def test_prcc_study_builds_its_rates_once(p_base, monkeypatch):
    """The march reads the rates the study built. Rebuilding them in each rhs call would
    keep every bit and only cost time, so the builds are counted."""
    built = []

    def counting_rates_of(p):
        built.append(p)
        return rates_of(p)

    monkeypatch.setattr("rabictl.sensitivity.rates_of", counting_rates_of)
    prcc_study(uniform_ranges(p_base, 0.25, names=["tau1", "mu1", "beta2"]), 12, 1, p_base,
               light_seed_state(p_base), TimeGrid(0, 1, 10), [1.0], outputs=("I_H",))
    assert len(built) == 1


@pytest.mark.parametrize("times, outputs, match", [
    ([1.0], ("I_H", "M", "I_H"), "output 'I_H' is named twice"),
    ([0.5, 0.5], ("I_H",), "sample times 0.5 and 0.5 both fall on the grid node t=0.5"),
    # 0.501 and 0.502 round to the same node of a 0.1 grid
    ([0.501, 0.502], ("I_H",), "sample times 0.501 and 0.502 both fall on the grid node t=0.5"),
], ids=["output", "time", "times-on-one-node"])
def test_prcc_study_rejects_duplicates(p_base, times, outputs, match):
    with pytest.raises(ConfigError, match=re.escape(match)):
        prcc_study(uniform_ranges(p_base, 0.25, names=["tau1"]), 10, 1, p_base,
                   light_seed_state(p_base), TimeGrid(0, 1, 10), times, outputs)


def test_prcc_study_names_constant_output(p_base):
    # no seeded infection: I_H stays at 0 on every row, while S_H follows the sampled mu1
    y0 = light_seed_state(p_base)._replace(E_F=0.0, I_F=0.0, E_D=0.0, I_D=0.0, M=0.0)
    with pytest.raises(DegenerateInputError, match=r"output I_H is constant at t=2\.0"):
        prcc_study(uniform_ranges(p_base, 0.25, names=["mu1", "tau1", "beta2"]), 20, 3,
                   p_base, y0, TimeGrid(0.0, 5.0, 50), sample_times=[2.0, 5.0],
                   outputs=("S_H", "I_H"))


def test_prcc_csv_long_format(tmp_path, monkeypatch, p_base):
    ranges = uniform_ranges(p_base, 0.25, names=["tau1", "kappa1", "beta2", "nu1"])
    grid = TimeGrid(0.0, 3.0, 60)
    res = prcc_study(ranges, 20, 17, p_base, light_seed_state(p_base), grid,
                     sample_times=[1.5, 3.0], outputs=("I_H", "M"))
    monkeypatch.setattr(sensitivity, "prcc_study", lambda *args: res)  # the CLI writes this study
    assert main(["--outdir", str(tmp_path), "prcc"]) == 0
    (run,) = tmp_path.iterdir()
    written = sorted(run.glob("prcc_*.csv"))
    assert [p.name for p in written] == ["prcc_I_H.csv", "prcc_M.csv"]
    lines = written[0].read_text().splitlines()
    assert lines[0] == "time,param,prcc"
    assert len(lines) == 1 + 2 * 4
    assert (run / "prcc.meta.json").exists()


# --- batch integration against the scalar route -------------------------------------


def simulate_batch(ranges, N, seed, base, y0, grid, times, outputs):
    X = lhs_sample(ranges, N, seed)
    names = tuple(r.name for r in ranges)
    node_idx = tuple(grid.node_at(t) for t in times)
    return X, names, node_idx, _simulate_rows(X, names, base, y0, grid, node_idx, outputs)


def test_batch_equals_scalar_runs_and_drops_blowups(p_base):
    grid = TimeGrid(0.0, 30.0, 60)
    y0 = seeded_state(p_base, 20.0, 50.0, 0.1)
    outputs = ("I_H", "I_D")
    X, names, node_idx, rows = simulate_batch(
        uniform_ranges(p_base, 0.9), 40, 4, p_base, y0, grid, [10.0, 30.0], outputs)
    assert [i for i, r in enumerate(rows) if r is None] == [9, 11, 15, 23, 30, 35, 36]
    fields = [StateVec._fields.index(o) for o in outputs]
    for x, r in zip(X, rows):
        if r is not None:
            traj = rk4_forward(p_base.replace(**dict(zip(names, map(float, x)))),
                               ControlPath.constant(grid), y0, grid)
            scalar = np.array([[traj.states[k][f] for f in fields] for k in node_idx])
            assert np.array_equal(r, scalar)


def test_batch_drops_rows_with_invalid_parameters(p_base):
    """The dropped rows are exactly those whose parameters ``ParamSet.replace`` rejects."""
    kappa1 = ParamRange("kappa1", "uniform", -1e-5, 1e-4)  # kappa1 <= 0 on some rows
    theta1 = ParamRange("theta1", "uniform", 0.001, 0.05)  # theta1 <= mu1 on some rows
    mu1 = ParamRange("mu1", "uniform", 0.005, 0.03)  # mu1 >= theta1 on some rows
    for ranges, n_invalid in (([theta1], 9), ([kappa1, theta1, mu1], 12)):
        X, names, _, rows = simulate_batch(ranges, 30, 2, p_base, light_seed_state(p_base),
                                           TimeGrid(0.0, 5.0, 50), [5.0], ("I_H",))
        invalid = []
        for x in X:
            try:
                p_base.replace(**dict(zip(names, map(float, x))))
                invalid.append(False)
            except ConfigError:
                invalid.append(True)
        assert sum(invalid) == n_invalid
        assert [r is None for r in rows] == invalid
    assert (X[:, 0] <= 0.0).any() and (X[:, 2] >= X[:, 1]).any()  # both rules break


def test_batch_keeps_the_order_of_its_sample_nodes(p_base):
    """Nodes given out of order, at tf and at t0: each column holds its own node."""
    grid = TimeGrid(0.0, 10.0, 50)
    y0 = light_seed_state(p_base)
    outputs = ("M", "I_H", "S_D")
    X, names, node_idx, rows = simulate_batch(
        uniform_ranges(p_base), 6, 3, p_base, y0, grid, [10.0, 0.0, 4.0], outputs)
    assert node_idx == (50, 0, 20)
    fields = [StateVec._fields.index(o) for o in outputs]
    for x, r in zip(X, rows):
        traj = rk4_forward(p_base.replace(**dict(zip(names, map(float, x)))),
                           ControlPath.constant(grid), y0, grid)
        assert r.shape == (3, 3)
        assert np.array_equal(r[0], [traj.states[-1][f] for f in fields])
        assert np.array_equal(r[1], [y0[f] for f in fields])
        assert np.array_equal(r[2], [traj.states[20][f] for f in fields])


def test_batch_clamps_a_row_beside_a_row_gone_nan(p_base):
    """One row's NaN must not hide another row's undershoot from the clamp."""
    y0 = seeded_state(p_base)._replace(I_H=8.5e-8)
    grid = TimeGrid(0.0, 10.0, 7)
    traj = rk4_forward(p_base, ControlPath.constant(grid), y0, grid)
    assert traj.clamped > 0
    rows = _simulate_rows(np.array([[p_base.sigma1], [1e300]]), ("sigma1",), p_base, y0, grid,
                          tuple(range(grid.n_nodes)), ("I_H",))
    assert rows[1] is None
    assert np.array_equal(rows[0][:, 0], [s.I_H for s in traj.states])


def test_batch_clamp_counts_equal_the_scalar_runs(p_base, monkeypatch):
    """The march's per-row clamp counts for a batch equal ``rk4_forward``'s ``clamped`` on
    every kept row; the dropped rows are those whose scalar run raises."""
    y0 = seeded_state(p_base)._replace(I_H=8.5e-8)  # the state of the test above
    grid = TimeGrid(0.0, 10.0, 7)
    # a fast I_H outflow at this coarse step undershoots, past -CLAMP_TOL on some rows
    ranges = [r for r in uniform_ranges(p_base) if r.name != "sigma1"]
    ranges.append(ParamRange("sigma1", "uniform", 0.5, 3.0))
    counts = []
    march = sensitivity._march

    def recording_march(*args):
        result = march(*args)
        counts.append(result[2])
        return result

    monkeypatch.setattr(sensitivity, "_march", recording_march)
    X, names, _, rows = simulate_batch(ranges, 40, 5, p_base, y0, grid, [5.0, 10.0], ("I_H",))
    scalar = []
    for x in X:
        try:
            scalar.append(rk4_forward(p_base.replace(**dict(zip(names, map(float, x)))),
                                      ControlPath.constant(grid), y0, grid).clamped)
        except IntegrationBlowupError:
            scalar.append(None)
    assert [r is None for r in rows] == [c is None for c in scalar]
    kept = [i for i, r in enumerate(rows) if r is not None]
    assert len(counts) == 1 and counts[0].shape == (40,)
    assert counts[0][kept].tolist() == [scalar[i] for i in kept]
    assert (len(kept), counts[0][kept].sum()) == (36, sum(scalar[i] for i in kept)) == (36, 48)
