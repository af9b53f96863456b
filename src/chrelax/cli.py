"""Command-line front end.

Subcommands: simulate, sweep-alpha, sweep-eps, contdep, separation, check.
Exit codes: 0 when the command (and its verdicts) pass, 2 when a study
verdict fails, 1 on usage, config or runtime errors.  All CSV output is
written with 17 significant digits so files round-trip to the exact
binary values.
"""

from __future__ import annotations

import argparse
import csv
import os
import pickle  # numpy has imported it already
import sys

import numpy as np

from . import experiments
from .config import build_scenario, parse_config
from .errors import ChRelaxError, ConfigError
from .stepper import run

# diagnostics rows formatted per write; a small block keeps few of the rows'
# Python floats and texts alive at once
_DIAGNOSTIC_BLOCK_ROWS = 128


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_report(report, outdir):
    """Write a study table (and its rate-fit summary when present) as CSV;
    returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    main = os.path.join(outdir, f"{report.study}_{report.digest}.csv")
    with open(main, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(report.columns)
        for row in report.rows:
            w.writerow([_fmt(v) for v in row])
    paths.append(main)
    if report.fit is not None:
        summary = os.path.join(outdir, f"{report.study}_{report.digest}_summary.csv")
        with open(summary, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["slope", "intercept", "residual", "verdict"])
            w.writerow([
                _fmt(report.fit.slope), _fmt(report.fit.intercept),
                _fmt(report.fit.residual), "pass" if report.passed else "fail",
            ])
        paths.append(summary)
    return paths


def _write_diagnostics(traj, outdir, digest):
    """Write the per-step time and mass series as CSV; returns the path.

    Each row is the step number and the four values as ``'%.17g'`` formats
    them: what ``csv.writer`` writes for these strings (CRLF, nothing to
    quote).  Rows are formatted a block at a time.
    """
    path = os.path.join(outdir, f"diagnostics_{digest}.csv")
    table = np.column_stack(
        (traj.step_times, traj.mass_phi, traj.mass_sigma, traj.mass_v))
    with open(path, "wb") as fh:
        fh.write(b"step,t,mass_phi,mass_sigma,mass_v\r\n")
        for start in range(0, len(table), _DIAGNOSTIC_BLOCK_ROWS):
            block = table[start:start + _DIAGNOSTIC_BLOCK_ROWS].tolist()
            fh.write(b"".join(b"%d,%.17g,%.17g,%.17g,%.17g\r\n" % (k, *row)
                              for k, row in enumerate(block, start)))
    return path


_FIELDS = ("mu", "v", "phi", "sigma", "xi")  # a record point's fields, in order


def _write_record(grid, rundir, step, fields):
    """Write one record point's fields (in ``_FIELDS`` order) as CSV files."""
    for name, u in zip(_FIELDS, fields):
        grid.dump_field(u, os.path.join(rundir, f"{name}_{step:06d}.csv"))


def _field_dumper(grid, dt, rundir):
    """Start the field writer of a run; returns ``(observe, join)``.

    The writer is one process, forked here before the run.  ``observe``
    sends it each record point through a blocking pipe: the step as 8
    little-endian bytes, then the float64 bytes of mu, v, phi, sigma and xi.
    The child reads one whole record point at a time and writes it with
    ``_write_record``, while the solver steps on.  A full pipe blocks the
    observer, so no more than one record point plus the pipe's buffer is in
    flight; the fields are copied at once, and the state is left alone.

    ``join(report)`` closes the pipe, reads the error pipe until the writer
    has gone and reaps it with ``waitpid``.  A write that failed in the
    child comes back through the error pipe as the child's exception (an
    OSError with the path and the cause), and ``join`` raises it when
    ``report`` is true.  The child always leaves through ``os._exit``, so it
    flushes no inherited stdio and runs no atexit hook.

    The fork is safe because the child calls no BLAS: ``dump_field`` uses
    only elementwise numpy and file writes, and OpenBLAS's thread pool sits
    idle between calls.  Python 3.12 and later warn (DeprecationWarning)
    when a process with threads forks, as OpenBLAS's pool makes this one.
    Where ``os.fork`` does not exist, ``observe`` calls ``_write_record``
    in process.
    """
    os.makedirs(rundir, exist_ok=True)

    def record(state):
        return int(round(state.t / dt)), [getattr(state, name) for name in _FIELDS]

    if not hasattr(os, "fork"):
        return (lambda state: _write_record(grid, rundir, *record(state)),
                lambda report: None)
    data_r, data_w = os.pipe()
    error_r, error_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the writer
        status = 1
        try:
            os.close(data_w)
            os.close(error_r)
            with open(data_r, "rb") as pipe:
                while data := pipe.read(8 * (1 + len(_FIELDS) * grid.ncells)):
                    _write_record(grid, rundir, int.from_bytes(data[:8], "little"),
                                  np.frombuffer(data, offset=8).reshape(len(_FIELDS), -1))
            status = 0
        except BaseException as e:
            os.write(error_w, pickle.dumps(e))
        finally:
            os._exit(status)
    os.close(data_r)
    os.close(error_w)

    def observe(state):
        step, fields = record(state)
        data = memoryview(b"".join(
            [step.to_bytes(8, "little")] + [u.tobytes() for u in fields]))
        while data:
            data = data[os.write(data_w, data):]

    def join(report):
        os.close(data_w)
        with open(error_r, "rb") as pipe:
            error = pipe.read()  # up to the writer's exit
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if report and error:
            raise pickle.loads(error)
        if report and status:
            raise OSError(f"the field writer of {rundir} exited with status {status}")

    return observe, join


def _simulate(cfg, outdir):
    """Run one config and write its diagnostics and, with
    ``output.dump_fields``, every record point's fields.

    The field writer is joined on every path (see ``_field_dumper``).  When
    the run raises, its error is the one that propagates, unless it is the
    BrokenPipeError of a writer that failed first: then the writer's error
    is raised in its place.
    """
    sc = build_scenario(cfg)
    digest = cfg.digest()
    rundir = os.path.join(outdir, digest)
    dump, join = (_field_dumper(sc.grid, sc.scheme.dt, rundir)
                  if cfg["output.dump_fields"] else (None, lambda report: None))
    try:
        traj = run(sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T,
                   sc.scheme, observe=dump)
    except BaseException as e:
        join(report=isinstance(e, BrokenPipeError))
        raise
    join(report=True)
    path = _write_diagnostics(traj, outdir, digest)
    its = traj.newton_iters
    print(f"simulate: {len(its)} steps, {int(its.sum())} Newton iterations "
          f"(at most {int(its.max())} per step), diagnostics -> {path}")
    if cfg["output.dump_fields"]:
        print(f"simulate: field snapshots -> {rundir}")
    return 0


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _Parser(prog="chrelax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep-alpha", "sweep-eps", "contdep",
                 "separation", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name == "check":  # the only subcommand that draws random points
            p.add_argument("--seed", type=int, default=0)

    try:
        ns = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1

    try:
        with open(ns.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        for issue in e.issues:
            print(f"error: {ns.config}: {issue}", file=sys.stderr)
        return 1

    outdir = ns.out if ns.out is not None else cfg["output.dir"]
    try:
        os.makedirs(outdir, exist_ok=True)
        if ns.command == "simulate":
            return _simulate(cfg, outdir)
        if ns.command == "sweep-alpha":
            report = experiments.sweep_alpha(cfg)
        elif ns.command == "sweep-eps":
            report = experiments.sweep_eps(cfg)
        elif ns.command == "contdep":
            report = experiments.contdep(cfg)
        elif ns.command == "separation":
            report = experiments.separation(cfg)
        else:
            report = experiments.invariant_suite(cfg, seed=ns.seed)
        paths = write_report(report, outdir)
    except ChRelaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 1

    for path in paths:
        print(f"{report.study}: wrote {path}")
    for note in report.notes:
        print(f"{report.study}: note: {note}")
    print(report.summary())
    return 0 if report.passed else 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
