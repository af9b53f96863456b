"""The benchmark tracer against the package it wraps.

``perfbench/tracer.py`` wraps chrelax functions by name from outside the
package, so a name that ``src/`` drops or renames makes ``install`` raise
AttributeError.  Each script runs in a subprocess, so this test process is
never patched.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROLOGUE = """
import time
from tracer import Tracer, install
from chrelax import default_config, experiments

tracer = Tracer(enabled=True)
install(tracer)
"""

SWEEP = PROLOGUE + """
cfg = default_config(**{
    "grid.n": [8], "time.T": 0.02, "time.dt": 1e-3,
    "model.P.kind": "constant", "model.P.p0": 1.0,
    "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
    "study.alphas": [0.5, 0.25],
})
t0 = time.perf_counter()
report = experiments.sweep_alpha(cfg)
m = tracer.metrics(t0, time.perf_counter())
assert len(report.rows) == 2
assert m["norms.alpha_error.s"][0] > 0.0, m["norms.alpha_error.s"]
assert m["experiments.trajectories"][0] == 3, m["experiments.trajectories"]
assert m["experiments.sweep_alpha.self_s"][0] > 0.0
"""

# the CG iterations of a per-cell shift too wide for Richardson sweeps are
# counted, and charged to the substep that asked for the solve
WIDE_SHIFT = PROLOGUE + """
from chrelax.config import build_scenario
from test_solve import wide_shift_config

t0 = time.perf_counter()
experiments._run_scenario(build_scenario(wide_shift_config()))
m = tracer.metrics(t0, time.perf_counter())
cg, iters = m["stepper.step_phi.cg_iters"][0], m["grid.solve_spd.iters"][0]
assert cg == iters > 0, (cg, iters)
"""


def run_traced(script):
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_spans_the_calls_sweep_alpha_makes():
    run_traced(SWEEP)


def test_tracer_counts_the_cg_iterations_of_a_wide_shift():
    run_traced(WIDE_SHIFT)
