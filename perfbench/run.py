"""chrelax benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload sim-1d-log --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; chrelax is imported from
``src/``.  Each iteration runs in a fresh interpreter (worker.py), because
a command-line user pays every lazily built cache on every command.

``--trace 0`` repeats untraced iterations for ``--seconds`` (at least
two) and reports the end-to-end metrics.  Their timings are at the
reference host speed (see worker.py): a shared host's own drift would
otherwise swamp what the program changes.  ``--trace 1`` runs one untraced
iteration and then traced ones (at least two) with OPENBLAS_NUM_THREADS=1,
and reports the per-layer metrics.  Every iteration's output is checked
against the recorded reference of its seed (relative tolerance 1e-9) or,
for a seed without a reference, against the invariants: verdicts pass,
fields stay finite and every iteration of the run gives bit-identical
output.  ``--workload all`` runs the three workloads in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--record`` writes the
reference of the given seed instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
TOLERANCE = 1e-9  # relative; values below FLOOR in magnitude compare against FLOOR
FLOOR = 1e-3
SETUP_PROBES = 10  # set-up only interpreters per run, besides the iterations'
MIN_ITERATIONS = 2
RUN_LIMIT = 170.0  # seconds; workers still running then are killed


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)


def child_env(blas_threads):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


class Runner:
    """Spawns worker iterations for one workload and seed."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "run.cfg"
        self.config.write_text(workload.config_text(seed))
        self.errors = []
        self.deadline = time.perf_counter() + RUN_LIMIT

    def iterate(self, mode, blas_threads):
        """One worker; returns its result dict, or None when it failed to
        produce one (the error is kept in self.errors)."""
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
               "--config", str(self.config), "--out", str(out), "--mode", mode]
        try:
            proc = subprocess.run(cmd, env=child_env(blas_threads), capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} iteration killed at the {RUN_LIMIT:g} s run limit")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{mode} iteration exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def repeat(self, mode, blas_threads, seconds, started):
        """Iterations until `seconds` have passed since `started`, at least
        MIN_ITERATIONS, and none that would end past the run limit."""
        results = []
        last = 0.0
        while len(results) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
            if len(results) >= MIN_ITERATIONS and time.perf_counter() + last > self.deadline:
                break
            t = time.perf_counter()
            results.append(self.iterate(mode, blas_threads))
            last = time.perf_counter() - t
        return results


# -- correctness gate ----------------------------------------------------------


def load_reference(workload, seed):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def deviation(values, ref):
    """Largest relative deviation from the reference values (inf when the
    value sets differ)."""
    if set(values) != set(ref):
        return float("inf")
    return max((abs(values[k] - r) / max(abs(r), FLOOR) for k, r in ref.items()),
               default=0.0)


def check(results, ref):
    """Mark each result ok or not; returns notes for the report."""
    notes = []
    digests = {r["digest"] for r in results if r is not None}
    if len(digests) > 1:
        notes.append(f"outputs differ between iterations ({len(digests)} distinct digests)")
    worst = 0.0
    for r in results:
        if r is None:
            continue
        ok = r["passed"] and r["finite"] and len(digests) == 1
        if ref is not None:
            dev = deviation(r["values"], ref["values"])
            worst = max(worst, dev)
            ok = ok and dev <= TOLERANCE
        r["ok"] = ok
    if ref is None:
        notes.append("no reference for this seed: checked verdicts, finiteness "
                     "and bit-identical replay")
    else:
        notes.append(f"max relative deviation from reference {worst:.3e} "
                     f"(tolerance {TOLERANCE:g}, floor {FLOOR:g}); bit-identical "
                     f"to reference: {digests == {ref['digest']}}")
    if any(r is not None and not r["passed"] for r in results):
        notes.append("a study verdict or exit code failed")
    if any(r is not None and not r["finite"] for r in results):
        notes.append("non-finite values in the fields")
    return notes


# -- runs -----------------------------------------------------------------------


def untraced(runner, seconds):
    started = time.perf_counter()
    probes = [runner.iterate("setup", min(nproc(), 2)) for _ in range(SETUP_PROBES)]
    results = runner.repeat("run", min(nproc(), 2), seconds, started)
    done = [r for r in results if r is not None]
    if not done:
        return results, probes, None
    wall = statistics.median([r["wall_ref_s"] for r in done])
    setups = [p["setup_ref_s"] for p in probes if p is not None] + [
        r["setup_ref_s"] for r in done]
    metrics = {
        "wall_ref_s": (wall, "s"),
        "cell_steps_per_ref_s": (runner.workload.cell_steps(runner.seed) / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in done]), "MB"),
    }
    return results, probes, metrics


def traced(runner, seconds):
    started = time.perf_counter()
    base = runner.iterate("run", min(nproc(), 2))
    tr = runner.repeat("trace", 1, seconds, started)
    results = [base] + tr
    done = [r for r in tr if r is not None]
    if base is None or not done:
        return results, None, []
    names = list(done[0]["layers"])
    metrics = {n: (statistics.median([r["layers"][n][0] for r in done]),
                   done[0]["layers"][n][1]) for n in names}
    # counts repeat exactly between traced runs of the same code
    unsteady = [n for n in names if done[0]["layers"][n][1] in ("count", "bytes")
                and len({r["layers"][n][0] for r in done}) > 1]
    metrics["trace.overhead_frac"] = (
        statistics.median([r["wall_s"] for r in done]) / base["wall_s"] - 1.0, "ratio")
    metrics["trace.unsteady_counts"] = (len(unsteady), "count")
    return results, metrics, unsteady


def environment(seed, results):
    """The machine and software a run measured; for a traced run the thread
    variables are those of its traced iterations."""
    env = next((r["env"] for r in reversed(results) if r is not None), {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"nproc": nproc(), **env, "git_commit": commit,
            "src_sha256": src.hexdigest()[:16], "seed": seed}


def run_workload(workload, seed, seconds, trace):
    """Returns (result dict for the JSON line, text lines)."""
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            results, metrics, unsteady = traced(runner, seconds)
            probes = []
        else:
            results, probes, metrics = untraced(runner, seconds)
            unsteady = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = check(results, load_reference(workload.name, seed))
    notes += runner.errors
    if unsteady:
        notes.append("counts that differ between traced runs: " + ", ".join(unsteady))
    attempted = len(results)
    failed = sum(1 for r in results if r is None or not r["ok"])
    lines = [f"workload {workload.name}  seed {seed}  trace {int(trace)}",
             f"  env {json.dumps(environment(seed, results + probes))}"]
    if metrics is not None:
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:40s} {value:16.6g} {unit}")
    lines.append(f"  {'fail_frac':40s} {failed / attempted:16.6g} "
                 f"({failed} of {attempted} iterations)")
    if not trace and metrics is not None:
        done = [r for r in results if r is not None]
        walls = ", ".join(f"{r['wall_s']:.4g}" for r in done)
        refs = ", ".join(f"{r['wall_ref_s']:.4g}" for r in done)
        setups = [p["setup_s"] for p in probes if p is not None] + [r["setup_s"] for r in done]
        lines.append(f"  timings are medians of {len(done)} iterations and "
                     f"{len(setups)} set-ups at the reference host speed; as measured: "
                     f"wall_s {walls} (reference: {refs}), median setup_s "
                     f"{statistics.median(setups):.4g}")
    if trace and results[0] is not None:
        base = results[0]
        lines.append(
            f"  untraced iteration (OPENBLAS_NUM_THREADS="
            f"{base['env']['threads']['OPENBLAS_NUM_THREADS']}): "
            f"wall_s {base['wall_s']:.6g} s (wall_ref_s {base['wall_ref_s']:.6g} s), "
            f"setup_s {base['setup_s']:.6g} s, peak_rss_mb {base['peak_rss_mb']:.6g} MB")
    lines += [f"  note: {n}" for n in notes]
    correct = metrics is not None and failed == 0 and not unsteady
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {} if metrics is None else {
                  n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return result, lines


def record(workload, seed):
    """Write the reference values of one seed from one untraced iteration."""
    workdir = WORK / f"record-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir)
        r = runner.iterate("run", min(nproc(), 2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if r is None or not (r["passed"] and r["finite"]):
        print("\n".join(runner.errors) or "iteration failed its verdicts", file=sys.stderr)
        return 1
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs.setdefault(workload.name, {})[str(seed)] = {
        "values": r["values"], "digest": r["digest"]}
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload.name} seed {seed}: {len(r['values'])} values")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the reference of this seed instead of measuring")
    args = ap.parse_args()

    if not (ROOT / "src" / "chrelax" / "__init__.py").is_file():
        print(f"error: no chrelax source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return max(record(WORKLOADS[n], args.seed) for n in names)

    results = []
    for n in names:
        result, lines = run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append((n, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
