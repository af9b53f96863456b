"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also enforces its runtime budget, so a pass
certifies both the numerical property and the cost envelope.

The study tables of criteria 5, 6 and 8 are also compared with the ones
pinned in ``seed_fingerprint.json`` (rows, fit slope and verdicts, relative
1e-9 with a 1e-3 floor); ``python tests/test_solve.py --record`` records
them with the solver each entry names.
"""

import json
import time
from pathlib import Path

from chrelax import default_config, fit_rate
from chrelax.config import build_scenario
from chrelax.experiments import (
    _reference,
    _run_scenario,
    _stream_against,
    contdep,
    conservation_drift,
    dt_order,
    operator_identities,
    separation,
    sweep_alpha,
    sweep_eps,
    yosida_battery,
)
from chrelax.norms import contdep_lhs

FINGERPRINT = Path(__file__).with_name("seed_fingerprint.json")


def verdict_map(report):
    return {v.name: v for v in report.verdicts}


def study_fingerprint(report):
    """The pinned part of a study report: every row, the fit slope and
    each verdict's outcome and observed value."""
    return {
        "rows": [[float(v) for v in row] for row in report.rows],
        "slope": None if report.fit is None else float(report.fit.slope),
        "verdicts": {v.name: [bool(v.passed), float(v.observed)]
                     for v in report.verdicts},
    }


def _close(got, ref):
    # relative 1e-9; values below 1e-3 in magnitude are compared against 1e-3
    return abs(got - ref) <= 1e-9 * max(abs(ref), 1e-3)


def assert_matches_fingerprint(entry, report):
    want = json.loads(FINGERPRINT.read_text())[entry]
    got = study_fingerprint(report)
    assert len(got["rows"]) == len(want["rows"])
    for row, ref_row in zip(got["rows"], want["rows"]):
        assert len(row) == len(ref_row)
        assert all(_close(a, b) for a, b in zip(row, ref_row)), (entry, row, ref_row)
    if want["slope"] is None:
        assert got["slope"] is None
    else:
        assert _close(got["slope"], want["slope"]), (entry, got["slope"], want["slope"])
    assert sorted(got["verdicts"]) == sorted(want["verdicts"])
    for name, (passed, observed) in want["verdicts"].items():
        assert got["verdicts"][name][0] == passed, (entry, name)
        assert _close(got["verdicts"][name][1], observed), (entry, name)


class _Budget:
    """Context manager asserting a wall-clock budget on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime budget exceeded: {self.elapsed:.1f}s >= {self.seconds}s")


def test_criterion_1_yosida_battery():
    with _Budget(1.0) as b:
        worst = yosida_battery(seed=0, npoints=1000)
    print(f"criterion 1: worst violation {worst:.3e} (<= 1e-10), {b.elapsed:.2f}s")
    assert worst <= 1e-10


def test_criterion_2_operator_identities():
    with _Budget(1.0) as b:
        worst_ident, worst_eig = operator_identities(seed=0)
    print(f"criterion 2: identities {worst_ident:.3e} (<= 1e-12), "
          f"eigenpairs {worst_eig:.3e} (<= 1e-10), {b.elapsed:.2f}s")
    assert worst_ident <= 1e-12
    assert worst_eig <= 1e-10


def test_criterion_3_conservation():
    with _Budget(5.0) as b:
        drift_mass, drift_sigma, traj = conservation_drift(default_config())
    print(f"criterion 3: drift alpha*int(v)+int(phi) {drift_mass:.3e}, "
          f"int(sigma) {drift_sigma:.3e} (both <= 1e-8), {b.elapsed:.2f}s")
    assert traj.mass_phi.shape == (251,)  # every step of T=0.25 at dt=1e-3
    assert drift_mass <= 1e-8
    assert drift_sigma <= 1e-8


def test_criterion_4_temporal_self_convergence():
    with _Budget(30.0) as b:
        fit, pts = dt_order(default_config())
    print(f"criterion 4: observed order {fit.slope:.3f} (in [0.8, 1.2]) over "
          f"{[p[0] for p in pts]}, {b.elapsed:.1f}s")
    assert 0.8 <= fit.slope <= 1.2


CRITERION_5_BASE = {
    "grid.n": [128], "time.T": 0.5, "time.dt": 2.5e-4,
    "model.P.kind": "constant", "model.P.p0": 1.0,
    "init.mu0.kind": "cosine_bump", "init.mu0.amplitude": 0.2,
    "init.mu0.mode": 2,
    "init.mu0_prime.kind": "cosine_bump", "init.mu0_prime.amplitude": 0.1,
    "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
    "init.sigma0.kind": "cosine_bump", "init.sigma0.amplitude": 0.3,
    "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
    "controls.u1.center_x": 0.5, "controls.u1.width": 0.1,
    "controls.u1.t_on": 0.0, "controls.u1.t_off": 0.15,
    "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
    "controls.u2.omega": 2.0,
}


def criterion_5_config(kind):
    return default_config(**dict(CRITERION_5_BASE, **{"potential.kind": kind}))


def test_criterion_5_alpha_sweep_rate():
    with _Budget(300.0) as b:
        for kind in ("regular", "logarithmic"):
            report = sweep_alpha(criterion_5_config(kind))
            v = verdict_map(report)
            # the coarse rungs are pre-asymptotic and pull the global fit
            # down, so the 0.24 verdict would pass a rate halved in the fine
            # ones; alpha = 2^-6 ... 2^-9 fit 0.527 (regular) and 0.538
            # (logarithmic) in the pinned tables
            fine = fit_rate([(r[0], r[-1]) for r in report.rows[-4:]]).slope
            print(f"criterion 5 ({kind}): slope {report.fit.slope:.3f} "
                  f"(>= 0.24), finest four {fine:.3f} (0.4..0.65), "
                  f"monotone worst {v['composite_nonincreasing'].observed:.2e}")
            assert v["composite_nonincreasing"].passed
            assert report.fit.slope >= 0.24
            assert 0.4 <= fine <= 0.65
            assert_matches_fingerprint(f"criterion5_{kind}", report)
    print(f"criterion 5: {b.elapsed:.1f}s")


def criterion_6_config():
    return default_config(**{
        "grid.n": [64], "time.T": 0.5, "time.dt": 1e-3,
        "model.alpha": 0.1, "model.P.kind": "constant", "model.P.p0": 1.0,
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.5,
        "study.perturb_u1.kind": "gaussian_pulse",
        "study.perturb_u1.amplitude": 1.0,
        "study.perturb_u1.center_x": 0.3, "study.perturb_u1.width": 0.1,
        "study.perturb_u1.t_on": 0.0, "study.perturb_u1.t_off": 0.25,
        "study.perturb_u2.kind": "gaussian_pulse",
        "study.perturb_u2.amplitude": 1.0,
        "study.perturb_u2.center_x": 0.7, "study.perturb_u2.width": 0.15,
        "study.perturb_u2.t_on": 0.1, "study.perturb_u2.t_off": 0.4,
        "study.deltas": [1.0, 0.5, 0.25, 0.125],
    })


def test_criterion_6_continuous_dependence():
    cfg = criterion_6_config()
    with _Budget(120.0) as b:
        # delta = 0 twice: identical controls give identical trajectories
        sc = build_scenario(cfg)
        first = _reference(sc)
        _run_scenario(sc, observe=first)
        lhs_zero = contdep_lhs(_stream_against(sc, first)[0])
        report = contdep(cfg)
    v = verdict_map(report)
    ratios = [r[3] for r in report.rows]
    print(f"criterion 6: lhs(0) {lhs_zero:.3e} (<= 1e-10), ratios "
          f"{min(ratios):.5f}..{max(ratios):.5f}, spread "
          f"{v['ratio_spread'].observed:.4f} (<= 2), {b.elapsed:.1f}s")
    assert lhs_zero <= 1e-10
    assert v["ratio_spread"].passed
    assert_matches_fingerprint("criterion6", report)


def test_criterion_7_separation():
    cfg = default_config(**{
        "grid.n": [64], "time.T": 0.5, "time.dt": 1e-3,
        "model.alpha": 0.1, "model.P.kind": "constant", "model.P.p0": 0.5,
        "potential.kind": "logarithmic", "potential.k1": 2.0,
        "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.2,
        "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
        "controls.u1.center_x": 0.4, "controls.u1.width": 0.15,
        "controls.u1.t_on": 0.0, "controls.u1.t_off": 0.3,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
        "controls.u2.omega": 2.0,
    })
    with _Budget(120.0) as b:
        report = separation(cfg)
    v = verdict_map(report)
    print(f"criterion 7: margin {v['margin'].observed:.4f} (>= 1e-3), "
          f"margin shift {v['margin_stable'].observed:.2e} (<= 0.10), "
          f"xi growth {v['xi_sup_stable'].observed:.2e} (<= 0.05), "
          f"{b.elapsed:.1f}s")
    assert v["margin"].passed
    assert v["margin_stable"].passed
    assert v["xi_sup_stable"].passed


def criterion_8_config():
    return default_config(**{
        "grid.n": [64], "time.T": 2.0, "time.dt": 2e-3,
        "model.alpha": 20.0, "model.P.kind": "constant", "model.P.p0": 0.0,
        "init.phi0.kind": "constant", "init.phi0.value": 1.0,
        "init.sigma0.kind": "cosine_bump", "init.sigma0.value": 2.0,
        "init.sigma0.amplitude": 0.2,
        "study.epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
    })


def test_criterion_8_eps_cauchy():
    cfg = criterion_8_config()
    with _Budget(120.0) as b:
        report = sweep_eps(cfg)
    v = verdict_map(report)
    d_phi = {row[0]: row[1] for row in report.rows}
    ratio = d_phi[1e-3] / d_phi[1e-1]
    print(f"criterion 8: d_phi {[f'{d_phi[e]:.3e}' for e in (1e-1, 1e-2, 1e-3, 1e-4)]}, "
          f"d(1e-3)/d(1e-1) {ratio:.3e} (<= 1e-2), {b.elapsed:.1f}s")
    assert v["d_phi_nonincreasing"].passed
    assert v["d_mu_nonincreasing"].passed
    assert v["d_sigma_nonincreasing"].passed
    assert d_phi[1e-3] <= 1e-2 * d_phi[1e-1]
    assert_matches_fingerprint("criterion8", report)


def pinned_studies():
    """The study reports pinned in the fingerprint, by entry name."""
    return {
        "criterion5_regular": lambda: sweep_alpha(criterion_5_config("regular")),
        "criterion5_logarithmic":
            lambda: sweep_alpha(criterion_5_config("logarithmic")),
        "criterion6": lambda: contdep(criterion_6_config()),
        "criterion8": lambda: sweep_eps(criterion_8_config()),
    }


def test_criterion_9_negative_control(jacobi_solves):
    with _Budget(5.0) as b:
        drift_mass, drift_sigma, _ = conservation_drift(
            default_config(**{"solver.cg_tol": 1e-2}))
    print(f"criterion 9: loosened Jacobi-CG tolerance drifts {drift_mass:.3e} / "
          f"{drift_sigma:.3e} (mass must exceed 1e-8), {b.elapsed:.2f}s")
    assert drift_mass > 1e-8
