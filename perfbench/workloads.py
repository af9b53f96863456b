"""The benchmark's workloads: each turns a seed into a chrelax config.

The seed jitters a few inputs of a fixed scenario inside small stated
bands (pulse centre, amplitudes, initial levels), so a result can be
re-checked on a seed nobody tuned against.  The program only ever sees
the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _shift(rng, base, band):
    """base moved by at most +-band."""
    return base + rng.uniform(-band, band)


def _scale(rng, base, rel):
    """base scaled by at most +-rel (relative)."""
    return base * (1.0 + rng.uniform(-rel, rel))


def _sim_1d_log(rng):
    # criterion 7's logarithmic separation scenario at n = 128, dt = 2.5e-4
    return {
        "grid.n": 128, "time.T": 0.5, "time.dt": 2.5e-4,
        "model.alpha": 0.1, "model.P.kind": "constant", "model.P.p0": 0.5,
        "potential.kind": "logarithmic", "potential.k1": 2.0,
        "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1,
        "init.phi0.center": _shift(rng, 0.5, 0.02),
        "init.sigma0.kind": "constant",
        "init.sigma0.value": _scale(rng, 0.2, 0.05),
        "controls.u1.kind": "gaussian_pulse",
        "controls.u1.amplitude": _scale(rng, 0.5, 0.05),
        "controls.u1.center_x": _shift(rng, 0.4, 0.05),
        "controls.u1.width": 0.15, "controls.u1.t_on": 0.0,
        "controls.u1.t_off": 0.3,
        "controls.u2.kind": "sinusoid",
        "controls.u2.amplitude": _scale(rng, 0.3, 0.05),
        "controls.u2.omega": 2.0,
    }


def _sim_2d_dump(rng):
    # ramp P keeps step_mu and step_sigma on a variable-diagonal solve
    return {
        "grid.dim": 2, "grid.n": 64, "time.T": 0.25, "time.dt": 1e-3,
        "time.record_every": 25,
        "model.alpha": 0.1, "model.P.kind": "ramp", "model.P.p0": 1.0,
        "potential.kind": "regular",
        "init.phi0.kind": "cosine_bump",
        "init.phi0.amplitude": _scale(rng, 0.5, 0.05),
        "init.sigma0.kind": "constant",
        "init.sigma0.value": _scale(rng, 0.5, 0.05),
        "controls.u1.kind": "gaussian_pulse",
        "controls.u1.amplitude": _scale(rng, 0.5, 0.05),
        "controls.u1.center_x": _shift(rng, 0.4, 0.05),
        "controls.u1.center_y": _shift(rng, 0.5, 0.05),
        "controls.u1.width": 0.15, "controls.u1.t_on": 0.0,
        "controls.u1.t_off": 0.15,
        "controls.u2.kind": "sinusoid",
        "controls.u2.amplitude": _scale(rng, 0.3, 0.05),
        "controls.u2.omega": 2.0,
        "output.dump_fields": True,
    }


def _alpha_ladder(rng):
    # criterion 5's scenario shape at n = 64; four rungs keep the slope
    # verdict passing (about 0.36 against the 0.24 threshold) at half the
    # cost of the default eight, and T = 0.5 is the shortest horizon on
    # which it passes
    return {
        "grid.n": 64, "time.T": 0.5, "time.dt": 1e-3,
        "potential.kind": "regular",
        "model.P.kind": "constant", "model.P.p0": 1.0,
        "init.mu0.kind": "cosine_bump",
        "init.mu0.amplitude": _scale(rng, 0.2, 0.05), "init.mu0.mode": 2,
        "init.mu0_prime.kind": "cosine_bump",
        "init.mu0_prime.amplitude": 0.1,
        "init.phi0.kind": "cosine_bump",
        "init.phi0.amplitude": _scale(rng, 0.5, 0.05),
        "init.sigma0.kind": "cosine_bump",
        "init.sigma0.amplitude": _scale(rng, 0.3, 0.05),
        "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
        "controls.u1.center_x": _shift(rng, 0.5, 0.05),
        "controls.u1.width": 0.1, "controls.u1.t_on": 0.0,
        "controls.u1.t_off": 0.15,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
        "controls.u2.omega": 2.0,
        "study.alphas": [0.25, 0.125, 0.0625, 0.03125],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "simulate" (chrelax.cli.dispatch) or "sweep_alpha"
    make: Callable

    def values(self, seed):
        return self.make(random.Random(f"{self.name}/{seed}"))

    def config_text(self, seed):
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in self.values(seed).items())

    def cell_steps(self, seed):
        """Cells x time steps x trajectories integrated by one iteration."""
        v = self.values(seed)
        cells = v["grid.n"] ** v.get("grid.dim", 1)
        steps = round(v["time.T"] / v["time.dt"])
        trajectories = len(v["study.alphas"]) + 1 if self.entry == "sweep_alpha" else 1
        return cells * steps * trajectories


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-1d-log", "simulate", _sim_1d_log),
        Workload("sim-2d-dump", "simulate", _sim_2d_dump),
        Workload("alpha-ladder", "sweep_alpha", _alpha_ladder),
    )
}
