"""Span tracing of chrelax from outside the package.

``install`` replaces the public functions of each chrelax module with
wrappers, in the class or in every module namespace that imported them,
so the package itself stays untouched.  Each wrapper records one span
(name, start, end, parent) in flat arrays and bumps counters at the same
boundary; ``Tracer.metrics`` turns them into the per-layer figures.

Without tracing only ``stepper.run`` is wrapped, to keep a reference to
each returned trajectory for the correctness gate; that costs one call
per trajectory.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

SNAPSHOT_FIELDS = ("mu", "v", "phi", "sigma", "xi")
SUBSTEPS = ("step_phi", "step_mu", "step_mu_limit", "step_sigma")
NORMS = ("h_norm", "v_norm", "integrate", "inner")
RESOLVENT_KINDS = ("regular", "logarithmic", "obstacle")


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.trajectories = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name, after=None):
        """Wrap fn so each call records a span; after(args, result) runs
        outside the span to update counters."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def caller(self):
        """Name of the innermost open span, or '' outside any span."""
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    # -- per-layer figures ------------------------------------------------

    def metrics(self, entry_start, entry_end):
        """Per-layer metrics as {name: (value, unit)} for the entry call
        timed over [entry_start, entry_end]."""
        nnames = len(self.names)
        # copies, so the span arrays stay free to grow
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=nnames)
        total = np.bincount(name, weights=dur, minlength=nnames)
        self_s = np.bincount(name, weights=own, minlength=nnames)

        def ids(n):
            return self._ids.get(n, -1)

        def c(n):
            return int(calls[ids(n)]) if ids(n) >= 0 else 0

        def tot(n):
            return float(total[ids(n)]) if ids(n) >= 0 else 0.0

        def own_s(n):
            return float(self_s[ids(n)]) if ids(n) >= 0 else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        cnt = self.counts
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        phi_id, run_id, lap_id = ids("stepper.step_phi"), ids("stepper.run"), ids(
            "grid.laplacian")
        residual_evals = int(np.sum((name == lap_id) & (parent_name == phi_id)))
        newton = cnt["stepper.step_phi.newton_iters"]

        # one step runs from its step_phi start to the next one (or to the
        # end of its run), so it covers control sampling and bookkeeping
        step_ms = []
        for r in np.flatnonzero(name == run_id):
            s = start[(name == phi_id) & (parent == r)]
            step_ms.append(np.diff(np.append(s, end[r])) * 1e3)
        step_ms = np.concatenate(step_ms) if step_ms else np.zeros(1)
        steps = c("stepper.step_phi")

        roots = (parent < 0) & (start >= entry_start) & (end <= entry_end)
        wall = entry_end - entry_start
        solve_calls = c("grid.solve_spd")
        resolvent_calls = sum(c(f"potentials.resolvent.{k}") for k in RESOLVENT_KINDS)
        dump_s = tot("grid.dump_field")

        m = {
            "grid.solve_spd.calls": (solve_calls, "count"),
            "grid.solve_spd.iters": (cnt["grid.solve_spd.iters"], "count"),
            "grid.solve_spd.iters_per_call": (
                ratio(cnt["grid.solve_spd.iters"], solve_calls), "iters/call"),
            "grid.solve_spd.self_s": (own_s("grid.solve_spd"), "s"),
        }
        for sub in SUBSTEPS:
            m[f"stepper.{sub}.cg_iters"] = (cnt[f"stepper.{sub}.cg_iters"], "count")
        m.update({
            "grid.laplacian.calls": (c("grid.laplacian"), "count"),
            "grid.laplacian.self_s": (own_s("grid.laplacian"), "s"),
            "grid.laplacian.ns_per_cell": (
                ratio(own_s("grid.laplacian") * 1e9, cnt["grid.laplacian.cells"]), "ns"),
            "stepper.step_phi.s": (tot("stepper.step_phi"), "s"),
            "stepper.step_phi.newton_iters": (newton, "count"),
            "stepper.step_phi.ls_accept_ratio": (ratio(newton, residual_evals), "ratio"),
            "stepper.step_mu.s": (tot("stepper.step_mu"), "s"),
            "stepper.step_mu_limit.s": (tot("stepper.step_mu_limit"), "s"),
            "stepper.step_sigma.s": (tot("stepper.step_sigma"), "s"),
            "stepper.step.p50_ms": (float(np.percentile(step_ms, 50)), "ms"),
            "stepper.step.p99_ms": (float(np.percentile(step_ms, 99)), "ms"),
            "stepper.run.self_s": (own_s("stepper.run"), "s"),
            "stepper.snapshot_mb": (cnt["stepper.snapshot_bytes"] / 1e6, "MB"),
            "grid.check.calls": (cnt["grid.check.calls"], "count"),
            "grid.norms.calls": (sum(c(f"grid.{n}") for n in NORMS), "count"),
            "grid.norms.self_s": (sum(own_s(f"grid.{n}") for n in NORMS), "s"),
            "potentials.resolvent.calls_per_step": (
                ratio(resolvent_calls, steps), "calls/step"),
        })
        for k in ("regular", "logarithmic"):
            m[f"potentials.resolvent.{k}.s"] = (tot(f"potentials.resolvent.{k}"), "s")
        m.update({
            "potentials.yosida_prime.calls": (c("potentials.yosida_prime"), "count"),
            "potentials.yosida_curvature.calls": (
                c("potentials.yosida_curvature"), "count"),
            "model.ControlSpec.sample.calls": (c("model.ControlSpec.sample"), "count"),
            "model.ControlSpec.sample.s": (tot("model.ControlSpec.sample"), "s"),
            "norms.alpha_error.s": (tot("norms.alpha_error"), "s"),
            "experiments.trajectories": (c("stepper.run"), "count"),
            "experiments.sweep_alpha.self_s": (own_s("experiments.sweep_alpha"), "s"),
            "grid.dump_field.calls": (c("grid.dump_field"), "count"),
            "grid.dump_field.bytes": (cnt["grid.dump_field.bytes"], "bytes"),
            "grid.dump_field.mb_per_s": (
                ratio(cnt["grid.dump_field.bytes"] / 1e6, dump_s), "MB/s"),
            "cli.dispatch.self_s": (own_s("cli.dispatch"), "s"),
            "config.parse_config.s": (tot("config.parse_config"), "s"),
            "config.build_scenario.s": (tot("config.build_scenario"), "s"),
            "trace.unattributed_frac": (
                ratio(wall - float(np.sum(dur[roots])), wall), "ratio"),
        })
        return m


def _replace(owner, attr, new):
    """Install new in place of owner.attr: on the class, or in every chrelax
    module that bound the same function object."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return
    for modname, mod in list(sys.modules.items()):
        if modname == "chrelax" or modname.startswith("chrelax."):
            if getattr(mod, attr, None) is old:
                setattr(mod, attr, new)


def install(tracer):
    """Wrap chrelax for the given tracer (spans only when it is enabled)."""
    from chrelax import cli, config, experiments, norms, stepper
    from chrelax.grid import Grid
    from chrelax.model import ControlSpec
    from chrelax.potentials import SplitPotential

    cnt = tracer.counts

    def after_run(args, traj):
        tracer.trajectories.append(traj)
        cnt["stepper.snapshot_bytes"] += sum(
            getattr(s, f).nbytes for s in traj.snapshots for f in SNAPSHOT_FIELDS)

    if not tracer.enabled:
        orig = stepper.run

        @functools.wraps(orig)
        def run(*args, **kwargs):
            traj = orig(*args, **kwargs)
            tracer.trajectories.append(traj)
            return traj

        _replace(stepper, "run", run)
        return

    def after_laplacian(args, out):
        cnt["grid.laplacian.cells"] += out.size

    def after_step_phi(args, out):
        cnt["stepper.step_phi.newton_iters"] += out[2]

    def after_dump(args, out):
        cnt["grid.dump_field.bytes"] += os.path.getsize(args[2])

    for sub in SUBSTEPS:
        _replace(stepper, sub, tracer.span(
            getattr(stepper, sub), f"stepper.{sub}",
            after_step_phi if sub == "step_phi" else None))
    _replace(stepper, "run", tracer.span(stepper.run, "stepper.run", after_run))

    _replace(Grid, "laplacian", tracer.span(Grid.laplacian, "grid.laplacian",
                                            after_laplacian))
    for n in NORMS:
        _replace(Grid, n, tracer.span(getattr(Grid, n), f"grid.{n}"))
    _replace(Grid, "dump_field", tracer.span(Grid.dump_field, "grid.dump_field",
                                             after_dump))

    # the shape check costs about a microsecond: count it, do not time it
    check = Grid.check

    def counted_check(self, *fields):
        cnt["grid.check.calls"] += 1
        return check(self, *fields)

    _replace(Grid, "check", counted_check)

    # CG iterations are the calls of the operator callback, charged to the
    # stepper substep that asked for the solve
    solve = tracer.span(Grid.solve_spd, "grid.solve_spd")

    def solve_spd(self, apply, *args, **kwargs):
        caller = tracer.caller()
        n = 0

        def counted(w):
            nonlocal n
            n += 1
            return apply(w)

        try:
            return solve(self, counted, *args, **kwargs)
        finally:
            cnt[f"{caller}.cg_iters"] += n
            cnt["grid.solve_spd.iters"] += n

    _replace(Grid, "solve_spd", solve_spd)

    per_kind = {k: tracer.span(SplitPotential.resolvent, f"potentials.resolvent.{k}")
                for k in RESOLVENT_KINDS}

    def resolvent(self, *args, **kwargs):
        return per_kind[self.kind](self, *args, **kwargs)

    _replace(SplitPotential, "resolvent", resolvent)
    for n in ("yosida_prime", "yosida_curvature"):
        _replace(SplitPotential, n, tracer.span(getattr(SplitPotential, n),
                                                f"potentials.{n}"))
    _replace(ControlSpec, "sample", tracer.span(ControlSpec.sample,
                                                "model.ControlSpec.sample"))
    _replace(norms, "alpha_error", tracer.span(norms.alpha_error, "norms.alpha_error"))
    _replace(experiments, "sweep_alpha", tracer.span(experiments.sweep_alpha,
                                                     "experiments.sweep_alpha"))
    for n in ("parse_config", "build_scenario"):
        _replace(config, n, tracer.span(getattr(config, n), f"config.{n}"))
    _replace(cli, "dispatch", tracer.span(cli.dispatch, "cli.dispatch"))
