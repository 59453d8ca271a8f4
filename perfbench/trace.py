"""Traced in-process run of CLI steps, for the benchmark's per-layer metrics.

Usage: python3 perfbench/trace.py SPEC.json

SPEC names the steps (CLI argument lists without ``--outdir``), an output root
and a result path. In a fresh interpreter this times ``import rabictl.cli``,
runs every step through ``rabictl.cli.main`` once untraced and once traced
(in the order the spec asks for), and writes the per-layer metrics as JSON.

Tracing wraps the module attributes each layer is called through, so the
package itself is not modified. Calls made once or a few times per pass get a
span (name, start, end, parent, pass id); the per-step functions (``rhs``,
``adjoint_rhs``, ``characterize_controls``, ``effective_r``,
``ParamSet.replace``) only add to a call count and a time total, since one span
per call would mean millions of spans. A span's self time is its duration
minus the time of its child spans and of the counted calls made under it.
Counted functions never call one another, so no time is subtracted twice.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "child_s")

    def __init__(self, name: str, start: float, parent: "Span | None", pass_id: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.calls: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, name: str, fn, on_result=None):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else None, self.pass_id)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                spans.append(span)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        total = self.calls.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            total[0] += 1
            total[1] += dt
            if stack:
                stack[-1].child_s += dt
            return result

        return wrapper

    # -- summaries --

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum((s.end - s.start for s in self.named(name)), 0.0)

    def self_s(self, name: str) -> float:
        return sum((s.self_s for s in self.named(name)), 0.0)


LAYERS = ("cli", "model", "integrate", "optctl", "sensitivity", "calibrate", "repro", "params")


def install(tracer: Tracer, mods: SimpleNamespace) -> tuple[list, list[str]]:
    """Wrap the layer entry points; returns (patches to undo, missing names).

    A name the package no longer has is reported missing and left unwrapped,
    so its metrics read zero rather than the run failing.
    """
    cli, integrate, optctl, params = mods.cli, mods.integrate, mods.optctl, mods.params
    sensitivity, calibrate, repro = mods.sensitivity, mods.calibrate, mods.repro
    patches, missing = [], []
    wrapped: dict[int, object] = {}

    def patch(owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``, sharing one wrapper per original."""
        if not hasattr(owner, attr):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        wrapper = wrapped.get(id(original))
        if wrapper is None:
            wrapper = wrapped[id(original)] = make(original)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def on_trajectory(kind: str):
        def record(args, traj) -> None:
            tracer.add(f"{kind}.steps", traj.grid.n_steps)
            tracer.add("integrate.clamped", traj.clamped)
        return record

    def on_backward(args, adjoints) -> None:
        tracer.add("integrate.rk4_backward.steps", len(adjoints) - 1)

    def on_sweep(args, result) -> None:
        tracer.add("optctl.sweep.iterations", result.iterations)

    def on_rows(args, results) -> None:
        tracer.add("sensitivity.rows.attempted", len(results))
        tracer.add("sensitivity.rows.kept", sum(r is not None for r in results))

    def traced_nelder_mead(original):
        def counting_objective(f):
            def objective(x):
                value = f(x)
                tracer.add("calibrate.evals.finite", int(math.isfinite(value)))
                return value
            return objective

        inner = tracer.spanned("calibrate.nelder_mead", original,
                               lambda args, result: tracer.add("calibrate.nelder_mead.evals", result[2]))

        def wrapper(f, *args, **kwargs):
            return inner(counting_objective(f), *args, **kwargs)
        return wrapper

    span = tracer.spanned
    for owner in (integrate, optctl, repro):
        patch(owner, "rhs", lambda fn: tracer.counted("model.rhs", fn))
    for owner in (cli, optctl, sensitivity, repro):
        patch(owner, "rk4_forward",
              lambda fn: span("integrate.rk4_forward", fn, on_trajectory("integrate.rk4_forward")))
    patch(optctl, "rk4_backward", lambda fn: span("integrate.rk4_backward", fn, on_backward))
    patch(calibrate, "euler_forward",
          lambda fn: span("integrate.euler_forward", fn, on_trajectory("integrate.euler_forward")))
    patch(integrate.ControlPath, "__post_init__", lambda fn: span("integrate.controlpath", fn))
    patch(optctl, "adjoint_rhs", lambda fn: tracer.counted("optctl.adjoint_rhs", fn))
    patch(optctl, "characterize_controls",
          lambda fn: tracer.counted("optctl.characterize_controls", fn))
    patch(optctl, "objective", lambda fn: span("optctl.objective", fn))
    patch(optctl, "forward_backward_sweep", lambda fn: span("optctl.sweep", fn, on_sweep))
    patch(sensitivity, "lhs_sample", lambda fn: span("sensitivity.lhs_sample", fn))
    patch(sensitivity, "_simulate_rows", lambda fn: span("sensitivity.simulate", fn, on_rows))
    patch(sensitivity, "prcc", lambda fn: span("sensitivity.prcc", fn))
    patch(calibrate, "nelder_mead", traced_nelder_mead)
    patch(calibrate, "predict_incidence", lambda fn: span("calibrate.predict_incidence", fn))
    patch(repro, "effective_r", lambda fn: tracer.counted("repro.effective_r", fn))
    patch(repro, "re_grid", lambda fn: span("repro.re_grid", fn))
    patch(params.ParamSet, "replace", lambda fn: tracer.counted("params.replace", fn))
    writers = ((cli, "write_trajectory_csv"), (cli, "_write_sidecar"),
               (optctl, "write_adjoints_csv"), (optctl, "write_controls_csv"),
               (optctl, "write_sweep_summary_json"), (sensitivity, "write_prcc_study"),
               (calibrate, "write_fit_json"), (calibrate, "write_fit_csv"),
               (repro, "write_re_grid_csv"))
    for owner, attr in writers:
        patch(owner, attr, lambda fn: span("cli.write", fn))
    return patches, missing


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tr: Tracer, import_s: float, handler_s: float, untraced_s: float,
                  bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    def per(total: float, n: float, scale: float) -> float:
        return total / n * scale if n else 0.0

    def calls(name: str) -> int:
        return tr.calls.get(name, [0, 0.0])[0]

    def call_s(name: str) -> float:
        return tr.calls.get(name, [0, 0.0])[1]

    c = tr.counts.get
    rows, kept = c("sensitivity.rows.attempted", 0), c("sensitivity.rows.kept", 0)
    evals, finite = c("calibrate.nelder_mead.evals", 0), c("calibrate.evals.finite", 0)
    iterations = c("optctl.sweep.iterations", 0)
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.write_s": (tr.total_s("cli.write"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "model.rhs.calls": (calls("model.rhs"), "count"),
        "model.rhs.us_per_call": (per(call_s("model.rhs"), calls("model.rhs"), 1e6), "us"),
    }
    for kind in ("rk4_forward", "rk4_backward", "euler_forward"):
        name = f"integrate.{kind}"
        m[f"{name}.calls"] = (len(tr.named(name)), "count")
        m[f"{name}.s"] = (tr.self_s(name), "s")
        m[f"{name}.us_per_step"] = (per(tr.total_s(name), c(f"{name}.steps", 0), 1e6), "us")
    m.update({
        "integrate.controlpath.builds": (len(tr.named("integrate.controlpath")), "count"),
        "integrate.controlpath.s": (tr.self_s("integrate.controlpath"), "s"),
        "integrate.clamped": (c("integrate.clamped", 0), "count"),
        "optctl.adjoint_rhs.calls": (calls("optctl.adjoint_rhs"), "count"),
        "optctl.sweep.iterations": (iterations, "count"),
        "optctl.sweep.iter_ms": (per(tr.total_s("optctl.sweep"), iterations, 1e3), "ms"),
        "optctl.sweep.self_s": (tr.self_s("optctl.sweep"), "s"),
        "optctl.characterize_controls.calls": (calls("optctl.characterize_controls"), "count"),
        "optctl.characterize_controls.s": (call_s("optctl.characterize_controls"), "s"),
        "optctl.objective.s": (tr.self_s("optctl.objective"), "s"),
        "sensitivity.lhs_sample.s": (tr.self_s("sensitivity.lhs_sample"), "s"),
        "sensitivity.simulate.s": (tr.self_s("sensitivity.simulate"), "s"),
        "sensitivity.prcc.calls": (len(tr.named("sensitivity.prcc")), "count"),
        "sensitivity.prcc.ms_per_call": (
            per(tr.total_s("sensitivity.prcc"), len(tr.named("sensitivity.prcc")), 1e3), "ms"),
        "sensitivity.rows.attempted": (rows, "count"),
        "sensitivity.rows.kept": (kept, "count"),
        "sensitivity.kept_ratio": (per(kept, rows, 1.0), "ratio"),
        "calibrate.nelder_mead.evals": (evals, "count"),
        "calibrate.nelder_mead.self_s": (tr.self_s("calibrate.nelder_mead"), "s"),
        "calibrate.predict_incidence.calls": (len(tr.named("calibrate.predict_incidence")), "count"),
        "calibrate.predict_incidence.ms_per_call": (
            per(tr.total_s("calibrate.predict_incidence"),
                len(tr.named("calibrate.predict_incidence")), 1e3), "ms"),
        "calibrate.finite_ratio": (per(finite, evals, 1.0), "ratio"),
        "repro.effective_r.calls": (calls("repro.effective_r"), "count"),
        "repro.effective_r.us_per_call": (
            per(call_s("repro.effective_r"), calls("repro.effective_r"), 1e6), "us"),
        "repro.re_grid.s": (tr.self_s("repro.re_grid"), "s"),
        "params.replace.calls": (calls("params.replace"), "count"),
        "params.replace.us_per_call": (
            per(call_s("params.replace"), calls("params.replace"), 1e6), "us"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.handler_s": (handler_s, "s"),
        "trace.untraced_handler_s": (untraced_s, "s"),
        "trace.overhead_ratio": (per(handler_s, untraced_s, 1.0), "ratio"),
    })
    return m


def _run_steps(main, steps: list[dict], outroot: Path, tracer: Tracer | None) -> tuple[float, list[int]]:
    """Run every step through ``main``; returns (handler seconds, exit codes)."""
    handler_s, codes = 0.0, []
    for step in steps:
        outdir = outroot / step["name"]
        outdir.mkdir(parents=True)
        argv = ["--outdir", str(outdir), *step["argv"]]
        run = main if tracer is None else tracer.spanned("cli.main", main)
        t0 = perf_counter()
        codes.append(run(argv))
        handler_s += perf_counter() - t0
    return handler_s, codes


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    outroot = Path(spec["outroot"])
    t0 = perf_counter()
    import rabictl.cli  # noqa: F401  (timed: the CLI's start-up cost)
    import_s = perf_counter() - t0
    # Every layer module is loaded before the first pass, so it can be wrapped
    # even if the CLI imports it lazily.
    mods = SimpleNamespace(**{name: importlib.import_module(f"rabictl.{name}") for name in LAYERS})

    cli_main = mods.cli.main
    tracer = Tracer(pass_id=1)
    untraced_s = handler_s = 0.0
    codes: list[int] = []
    missing: list[str] = []
    for traced in (True, False) if spec["traced_first"] else (False, True):
        if traced:
            patches, missing = install(tracer, mods)
            try:
                handler_s, step_codes = _run_steps(cli_main, spec["steps"], outroot / "traced", tracer)
            finally:
                uninstall(patches)
        else:
            untraced_s, step_codes = _run_steps(cli_main, spec["steps"], outroot / "untraced", None)
        codes += step_codes
    written = sum(f.stat().st_size for f in (outroot / "traced").rglob("*") if f.is_file())
    metrics = layer_metrics(tracer, import_s, handler_s, untraced_s, written)
    Path(spec["result"]).write_text(json.dumps({
        "exit_codes": codes,
        "missing": missing,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
