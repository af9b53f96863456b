"""One benchmark iteration, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --config FILE --out DIR
                                --mode setup|run|trace

Times set-up (importing chrelax, parse_config, build_scenario) and then the
workload's entry call, fingerprints what the call produced and prints one
JSON object, with the environment, as the last line of its standard
output.  ``setup`` stops after set-up; ``trace`` wraps chrelax with the
span tracer first and adds the per-layer metrics.

The host's speed drifts (a shared machine gives the same work 1.1 to 1.5
times its best time from one minute to the next), so every timing is
also reported at a reference speed: a fixed calibration kernel runs
right after set-up and, in ``run`` mode, every SAMPLE_EVERY seconds of
the entry call from a SIGALRM handler; a timing times CAL_REF_S over the
kernel's time while it ran (the mean of the samples during the entry call,
the median of those after set-up) is its reference-speed value.  The handler's own time
is taken out of the entry call's wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

from tracer import SNAPSHOT_FIELDS, Tracer, install
from workloads import WORKLOADS


# seconds one calibration kernel takes at the reference speed: the median
# on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4) in its fast phases
CAL_REF_S = 5e-3
SAMPLE_EVERY = 0.2  # seconds between kernel samples during the entry call
SETUP_SAMPLES = 15


def kernel():
    """A fixed slice of work shaped like chrelax's: small numpy calls and
    Python bookkeeping on a 128-point and a 4096-point array."""
    a = np.linspace(0.0, 1.0, 128)
    b = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    for i in range(240):
        a = 0.5 * (np.roll(a, 1) + a)
        b = b * 0.999 + 0.001
        acc += float(a @ a) + float(b[i])
    return acc


class HostSpeed:
    """Kernel samples taken between set-up and entry call, and during the
    entry call from a SIGALRM handler."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def factor(self):
        """Reference time over measured time: < 1 on a slow host."""
        return CAL_REF_S / statistics.fmean(self.samples)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a call shorter than SAMPLE_EVERY
            self.sample()
        return False


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fingerprint(trajectories, outdir, report):
    """Named reference values plus a digest of every bit the call produced:
    all snapshots and mass series, the files written and the study table."""
    digest = hashlib.sha256()
    values = {}
    finite = True
    for i, t in enumerate(trajectories):
        for snap in t.snapshots:
            for f in SNAPSHOT_FIELDS:
                a = getattr(snap, f)
                digest.update(a.tobytes())
                finite = finite and bool(np.all(np.isfinite(a)))
        for f in ("phi", "mu", "sigma"):
            values[f"t{i}.{f}.final_l2"] = float(np.linalg.norm(getattr(t.final, f)))
        for f in ("mass_phi", "mass_sigma", "mass_v"):
            series = getattr(t, f)
            digest.update(series.tobytes())
            finite = finite and bool(np.all(np.isfinite(series)))
            values[f"t{i}.{f}.first"] = float(series[0])
            values[f"t{i}.{f}.last"] = float(series[-1])
    for dirpath, dirnames, filenames in os.walk(outdir):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, outdir).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    if report is not None:
        digest.update(repr(report.rows).encode())
        for row in report.rows:
            values[f"composite[{row[0]!r}]"] = float(row[-1])
        values["fit.slope"] = float(report.fit.slope)
        for v in report.verdicts:
            values[f"verdict.{v.name}"] = 1.0 if v.passed else 0.0
    return {"values": values, "digest": digest.hexdigest(), "finite": finite}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import chrelax  # noqa: F401  (the import is part of set-up)
    from chrelax import cli, config, experiments

    tracer = Tracer(enabled=args.mode == "trace")
    install(tracer)
    with open(args.config) as fh:
        cfg = config.parse_config(fh.read())
    config.build_scenario(cfg)
    setup_s = time.perf_counter() - t0
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    result = {"setup_s": setup_s,
              "setup_ref_s": setup_s * CAL_REF_S / statistics.median(speed.samples),
              "env": environment()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    report = None
    sampling = HostSpeed() if args.mode == "run" else contextlib.nullcontext()
    t1 = time.perf_counter()
    with sampling:
        if workload.entry == "simulate":
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(["simulate", "--config", args.config, "--out", args.out])
            passed = code == 0
        else:
            report = experiments.sweep_alpha(cfg)
            passed = report.passed
    t2 = time.perf_counter()
    wall = t2 - t1
    if args.mode == "run":
        wall -= sum(sampling.samples)
        result.update(wall_ref_s=wall * sampling.factor(), samples=len(sampling.samples))
    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        passed=passed,
        **fingerprint(tracer.trajectories, args.out, report),
    )
    if tracer.enabled:
        result["layers"] = tracer.metrics(t1, t2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
