"""Global sensitivity analysis: Latin hypercube sampling and PRCC.

Sampling is stratified per parameter: the N draws of each column occupy the
N equal-probability strata exactly once, with the stratum order permuted
independently per column. All sampled rows are integrated at once by
``integrate._march``, the march of every trajectory: their states form one
plain (12, N) ndarray, one array operation per stage, while ``rhs`` reads
its rows as (N,) arrays, and the study asks the march for its sample nodes
only. The rows' parameters form one namespace of (N,) arrays, whose parameter
tuple (``params.rates_of``) is built once per study, not in each ``rhs`` call.
PRCC rank-transforms everything and reads the partial correlations off the
inverse of the rank-correlation matrix, so it measures monotone influence of
one parameter while controlling for the rest. The inverse over the parameters
is shared by every output, so a study ranks its sample once and computes all
outputs at all sample times in one ``prcc`` call, and returns them as one
``PrccStudy``: an (outputs, times, parameters) array, with the sample's N and seed.

The ranks are computed with numpy. scipy is loaded only to sample a
``normal`` range (``scipy.stats.truncnorm``): of the CLI subcommands, only
``fit`` and a ``prcc`` with ``distribution=normal`` load scipy at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import integrate  # rhs is read from here at call time, where perfbench/trace.py wraps it
from .errors import ConfigError, DegenerateInputError, StudyError, shorten
from .integrate import TimeGrid, _march, rk4_step
from .model import ZERO_CONTROL, ControlConst, StateVec
from .params import PARAM_NAMES, ParamSet, rates_of, valid

__all__ = [
    "ParamRange",
    "PrccStudy",
    "uniform_ranges",
    "normal_ranges",
    "lhs_sample",
    "prcc",
    "prcc_study",
]

STUDY_OUTPUTS = ("I_H", "I_F", "I_D", "M")


@dataclass(frozen=True)
class ParamRange:
    """Sampling distribution for one parameter.

    kind "uniform" uses (lo, hi); kind "normal" uses (mean, sd) truncated at
    zero from below.
    """

    name: str
    kind: str
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.name not in PARAM_NAMES:
            raise ConfigError(f"unknown parameter name {self.name!r}")
        if self.kind == "uniform":
            if not self.a < self.b:
                raise ConfigError(f"uniform range for {self.name} needs lo < hi")
        elif self.kind == "normal":
            if not self.b > 0.0:
                raise ConfigError(f"normal range for {self.name} needs sd > 0")
        else:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")

    def ppf(self, q: np.ndarray) -> np.ndarray:
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * q
        from scipy import stats  # the only scipy use here; uniform studies skip it

        # zero-truncated normal
        lo = (0.0 - self.a) / self.b
        return stats.truncnorm.ppf(q, lo, np.inf, loc=self.a, scale=self.b)


def uniform_ranges(p: ParamSet, rel: float = 0.25, names: Sequence[str] | None = None) -> list[ParamRange]:
    """Uniform ranges at +/- ``rel`` around the values of ``p`` (the default)."""
    if not 0.0 < rel < 1.0:
        raise ConfigError(f"relative range must lie in (0, 1), got {rel}")
    names = PARAM_NAMES if names is None else tuple(names)
    return [ParamRange(name, "uniform", (1.0 - rel) * getattr(p, name), (1.0 + rel) * getattr(p, name))
            for name in names]


# Reported per-parameter mean/sd pairs, available as the alternative preset.
_NORMAL_TABLE = {
    "theta1": (1996.691056, 4.4679553),
    "tau1": (0.000402, 4e-6),
    "tau2": (0.000502, 1.44e-4),
    "tau3": (0.000302, 2e-6),
    "beta1": (0.166124, 7.68e-4),
    "nu3": (0.003367, 3.3348e-3),
    "beta2": (0.5402435, 3.7815e-4),
    "beta3": (0.9996505, 1.6521e-4),
    "mu1": (0.014309, 1.53e-4),
    "sigma1": (1.03166, 4.47e-3),
    "theta2": (1002.060222, 2.913594),
    "kappa1": (0.000040, 2.8e-5),
    "kappa2": (0.000066, 2.2e-5),
    "kappa3": (0.000025, 2.1e-5),
    "gamma": (0.166520, 2.07e-4),
    "nu1": (0.001479, 6.77e-4),
    "sigma2": (0.089778, 3.14e-4),
    "mu4": (0.080313, 4.42e-4),
    "mu2": (0.066634, 1.58e-4),
    "theta3": (1201.922230, 2.718444),
    "psi1": (0.000238, 2.28e-4),
    "psi2": (0.000233, 2.36e-4),
    "psi3": (0.0003, 1.91e-4),
    "mu3": (0.073565, 8.056e-3),
    "sigma3": (0.085697, 8.056e-3),
    "gamma1": (0.169578, 4.117e-3),
    "gamma2": (0.090154, 2.18e-4),
    "gamma3": (0.050128, 9.1e-5),
    "nu2": (0.007485, 2.101e-3),
    "rho1": (9.960366, 5.605e-2),
    "rho2": (8.058211, 8.2322e-2),
    "rho3": (14.958502, 5.8686e-2),
    "C": (0.003005, 8.0e-6),
}


def normal_ranges(names: Sequence[str] | None = None) -> list[ParamRange]:
    names = PARAM_NAMES if names is None else tuple(names)
    return [ParamRange(name, "normal", *_NORMAL_TABLE[name]) for name in names]


def lhs_sample(ranges: Sequence[ParamRange], N: int, seed: int) -> np.ndarray:
    """Latin hypercube sample, shape (N, P), deterministic for a given seed."""
    if not 2 <= N <= 10**6:
        raise ConfigError(f"LHS needs 2 <= N <= 10**6, got {shorten(repr(N))}")
    if len(ranges) < 1 or seed < 0:
        raise ConfigError(f"LHS needs a parameter range and a seed >= 0, "
                          f"got {len(ranges)}, {shorten(repr(seed))}")
    rng = np.random.default_rng(seed)
    out = np.empty((N, len(ranges)))
    for j, r in enumerate(ranges):
        strata = rng.permutation(N)
        q = (strata + rng.random(N)) / N
        out[:, j] = r.ppf(q)
    return out


def _ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank, as ``scipy.stats.rankdata``.

    Any NaN makes every rank NaN, as under rankdata's default ``propagate``.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # first sorted index of each tie
    counts = np.diff(np.r_[starts, len(y)])
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def prcc(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Partial rank correlation of each column of X with each output column of Z.

    Every column is ranked once and the ranks are standardised, so that their
    correlation matrix is ``C = [[Cxx, c], [c', 1]]`` for one output. With
    ``A = inv(Cxx)``, ``b = A c`` and ``s = 1 - c'b``, the block inverse of C
    gives ``prcc_i = -Om_iz / sqrt(Om_ii Om_zz) = b_i / sqrt(A_ii s + b_i^2)``
    (Marino et al. 2008). ``A`` is shared by all outputs, so a whole study is
    one call. A Z of shape (n,) returns (P,); one of shape (n, m) returns (m, P).

    Raises:
        DegenerateInputError: for non-finite, constant or collinear columns.
        ConfigError: if N <= P + 2 or Z does not have N rows.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2:
        raise ConfigError("X must be a 2-d sample matrix")
    n, p = X.shape
    if Z.shape[:1] != (n,) or Z.ndim > 2:
        raise ConfigError(f"Z must have shape ({n},) or ({n}, m), got {Z.shape}")
    if n <= p + 2:
        raise ConfigError(f"PRCC needs N > P + 2 samples, got N={n}, P={p}")
    Zm = Z.reshape(n, -1)
    for kind, M in (("output", Zm), ("sample", X)):
        if not np.isfinite(M).all():
            raise DegenerateInputError(f"non-finite {kind} value")
        constant = np.flatnonzero(np.ptp(M, axis=0) == 0.0).tolist()
        if constant:
            raise DegenerateInputError(f"constant {kind} column(s): {constant}")

    R = np.column_stack([_ranks(col) for col in np.hstack([X, Zm]).T])
    if np.linalg.matrix_rank(np.column_stack([np.ones(n), R[:, :p]])) < p + 1:
        raise DegenerateInputError("rank-deficient sample ranks; some sample columns are collinear")
    R -= R.mean(axis=0)
    R /= np.sqrt((R * R).sum(axis=0))
    C = R.T @ R
    A = np.linalg.inv(C[:p, :p])
    B = A @ C[:p, p:]  # (P, m)
    # s: the variance share of each output left unexplained by the sample ranks. An output
    # they fix up to rounding keeps eps: +-1 for the parameter that fixes it, ~0 for the rest.
    s = np.maximum(1.0 - (C[:p, p:] * B).sum(axis=0), np.finfo(float).eps)
    with np.errstate(all="ignore"):
        out = (B / np.sqrt(np.diag(A)[:, None] * s + B * B)).T
    if not np.isfinite(out).all():
        raise DegenerateInputError("non-finite partial rank correlation")
    return out if Z.ndim == 2 else out[0]


@dataclass(frozen=True)
class PrccStudy:
    """PRCC coefficients of each model output at each sample time, and the study's sample."""

    outputs: tuple[str, ...]
    times: tuple[float, ...]
    param_names: tuple[str, ...]
    coefficients: np.ndarray  # shape (len(outputs), len(times), P)
    N: int
    seed: int
    dropped_rows: int


def _simulate_rows(rows: np.ndarray, names: tuple[str, ...], base: ParamSet, y0: StateVec,
                   grid: TimeGrid, node_idx: tuple[int, ...],
                   outputs: tuple[str, ...]) -> list[np.ndarray | None]:
    """Integrate every sampled row at once, one (12, N) ndarray batch that
    ``integrate._march`` keeps at the sample nodes only; None marks a failed row.

    A row fails where ``rk4_forward`` would raise: invalid parameters, or a
    non-finite last node, as the march leaves a row that fell below -CLAMP_TOL.
    """
    # a column of ``rows`` is a strided view, slower for each ufunc of each rhs call to read
    # than a contiguous array, so each sampled column is copied once
    p = SimpleNamespace(**{**base.as_dict(), **dict(zip(names, rows.T.copy()))})
    u = repeat(ZERO_CONTROL)
    with np.errstate(all="ignore"):  # a failed row keeps integrating and may overflow
        p.rates = rates_of(p)  # once per study; every rhs call of the march reads it
        kept, last, _ = _march(rk4_step, _stacked_rhs, np.array(
            [np.full(len(rows), v) for v in y0]), grid, p, u, u, u, node_idx)
    # an (N,) mask, as every row samples at least one parameter
    failed = ~valid(p) | ~np.isfinite(last).all(axis=0)
    sampled = np.array(kept)[:, [StateVec._fields.index(o) for o in outputs]]
    return [None if bad else vals for bad, vals in zip(failed, sampled.transpose(2, 0, 1))]


def _stacked_rhs(t: float, z: np.ndarray, u: ControlConst, p: SimpleNamespace) -> np.ndarray:
    """``rhs`` on the (12, N) states ``z`` of a batch, a row per field, as one array."""
    return np.array(integrate.rhs(t, z, u, p))


def prcc_study(
    ranges: Sequence[ParamRange],
    N: int,
    seed: int,
    p_base: ParamSet,
    y0: StateVec,
    grid: TimeGrid,
    sample_times: Sequence[float],
    outputs: Sequence[str] = STUDY_OUTPUTS,
) -> PrccStudy:
    """LHS-sample the ranges, simulate each row uncontrolled, PRCC the outputs: one record.

    Rows whose simulation blows up are dropped and counted; more than
    5% of the N rows failing aborts the study (a fixed limit). PRCC's
    N > P + 2 rule is checked before any row is sampled.
    """
    if N <= len(ranges) + 2:
        raise ConfigError(f"PRCC needs N > P + 2 samples, got N={N}, P={len(ranges)}")
    outputs = tuple(outputs)
    if not outputs or not sample_times:
        raise ConfigError("a study needs at least one output and one sample time")
    for i, o in enumerate(outputs):
        if o not in StateVec._fields:
            raise ConfigError(f"unknown output {shorten(repr(o))}")
        if o in outputs[:i]:
            raise ConfigError(f"output {o!r} is named twice")
    names = tuple(r.name for r in ranges)
    if len(set(names)) != len(names):
        raise ConfigError("duplicate parameter in ranges")
    node_idx = tuple(grid.node_at(t) for t in sample_times)
    first_time: dict[int, float] = {}
    for t, k in zip(sample_times, node_idx):
        if k in first_time:
            raise ConfigError(f"sample times {first_time[k]!r} and {t!r} both fall on the grid "
                              f"node t={grid.times()[k]!r}")
        first_time[k] = t
    y0.validate()

    X = lhs_sample(ranges, N, seed)
    results = _simulate_rows(X, names, p_base, y0, grid, node_idx, outputs)

    keep = [i for i, r in enumerate(results) if r is not None]
    dropped = N - len(keep)
    if dropped > 0.05 * N:
        raise StudyError(f"{dropped}/{N} sample rows failed to simulate")
    stacked = np.stack([results[i] for i in keep]).transpose(0, 2, 1)  # (N_kept, n_outputs, T)
    times = tuple(grid.times()[k] for k in node_idx)
    constant = np.argwhere(np.ptp(stacked, axis=0) == 0.0)
    if len(constant):
        oi, ti = constant[0]
        raise DegenerateInputError(
            f"output {outputs[oi]} is constant at t={times[ti]!r} over the {len(keep)} kept rows")
    coeffs = prcc(X[keep], stacked.reshape(len(keep), -1)).reshape(len(outputs), len(times), -1)
    return PrccStudy(outputs, times, names, coeffs, N, seed, dropped)

