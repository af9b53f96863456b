"""Tests for the study orchestration layer: refusals, ladders, reports.

Full-scale numeric verdicts live in the acceptance suite; here the studies
run on deliberately tiny scenarios and the assertions target structure,
determinism, and the documented refusal conditions.
"""

import math
import re

import numpy as np
import pytest

from chrelax import (
    DegenerateFit,
    InvalidParams,
    default_config,
)
from chrelax import experiments
from chrelax.experiments import (
    _monotone_verdict,
    contdep,
    conservation_drift,
    invariant_suite,
    operator_identities,
    separation,
    sweep_alpha,
    sweep_eps,
    yosida_battery,
)

TINY = {
    "grid.n": [8], "time.T": 5e-3, "time.dt": 1e-3,
    "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.4,
    "init.sigma0.kind": "constant", "init.sigma0.value": 0.3,
}


def tiny_config(**extra):
    updates = dict(TINY)
    updates.update(extra)
    return default_config(**updates)


# -- monotonicity helper -------------------------------------------------


def test_nonincreasing_tolerates_roundoff_ties():
    v = _monotone_verdict("m", [1.0, 0.5, 0.25])
    assert v.passed and v.observed == 0.0
    # an absolute increase at roundoff level counts as a tie
    assert _monotone_verdict("m", [1e-9, 1e-9 + 5e-14]).passed
    v = _monotone_verdict("m", [1.0, 1.1])
    assert not v.passed and v.observed == pytest.approx(0.1 / 1.1, rel=1e-12)
    assert _monotone_verdict("m", []).passed and _monotone_verdict("m", [0.3]).passed


# -- refusals ----------------------------------------------------------------


def test_sweep_alpha_refuses_nonconstant_proliferation():
    with pytest.raises(InvalidParams, match="constant"):
        sweep_alpha(tiny_config(**{"model.P.kind": "ramp"}))
    with pytest.raises(InvalidParams, match="constant"):
        sweep_alpha(tiny_config(**{"model.P.p0": 0.0}))


def test_sweep_alpha_refuses_bad_ladder():
    with pytest.raises(InvalidParams, match="positive ladder"):
        sweep_alpha(tiny_config(**{"study.alphas": [0.25, -1.0]}))


@pytest.mark.parametrize("study, key", [
    (sweep_alpha, "study.alphas"),
    (sweep_eps, "study.epsilons"),
    (contdep, "study.deltas"),
], ids=["alphas", "epsilons", "deltas"])
def test_ladders_refuse_a_repeated_rung_before_any_run(study, key, monkeypatch):
    # a repeated rung would divide by log(a / a) = 0 in the local slopes
    def no_run(*args, **kwargs):
        raise AssertionError(f"{key}: a run started before the ladder was checked")

    monkeypatch.setattr(experiments, "run", no_run)
    cfg = contdep_config().with_updates({key: [0.25, 0.125, 0.25]})
    with pytest.raises(InvalidParams,
                       match=re.escape(f"{key} repeats the rung 0.25")):
        study(cfg)


def test_sweep_alpha_single_alpha_cannot_fit():
    with pytest.raises(DegenerateFit):
        sweep_alpha(tiny_config(**{"study.alphas": [0.25]}))


def test_sweep_eps_refuses_limit_runs():
    with pytest.raises(InvalidParams, match="alpha > 0"):
        sweep_eps(tiny_config(**{"model.alpha": 0.0}))


def test_separation_refuses_other_potentials():
    with pytest.raises(InvalidParams, match="logarithmic"):
        separation(tiny_config())


def test_contdep_refuses_trivial_perturbation():
    with pytest.raises(InvalidParams, match="perturb"):
        contdep(tiny_config())
    bad_ladder = tiny_config(**{
        "study.perturb_u1.kind": "constant", "study.perturb_u1.value": 1.0,
        "study.deltas": [0.5, 0.0]})
    with pytest.raises(InvalidParams, match="positive ladder"):
        contdep(bad_ladder)


def test_contdep_refuses_a_perturbation_that_is_off_on_the_schedule():
    # a pulse switched on after T is zero at every sampled step
    late = tiny_config(**{
        "study.perturb_u1.kind": "gaussian_pulse", "study.perturb_u1.t_on": 1.0,
        "study.deltas": [1.0, 0.5]})
    with pytest.raises(InvalidParams, match="vanishes on the sampling schedule"):
        contdep(late)


def test_studies_refuse_a_record_stride_that_misses_the_final_step():
    # run() records the final step too, so with 10 steps and a stride of 3
    # the last record interval is one step long, and the study norms would
    # weight it like the other intervals of three
    for study, cfg in ((sweep_alpha, tiny_config(**{
            "time.T": 0.01, "study.alphas": [0.25, 0.0625]})),
            (contdep, contdep_config())):
        with pytest.raises(InvalidParams, match="record_every = 3 to divide the 10"):
            study(cfg.with_updates({"time.record_every": 3}))
        report = study(cfg.with_updates({"time.record_every": 5}))
        assert len(report.rows) == 2


# -- sweep-eps ---------------------------------------------------------------


def test_sweep_eps_single_rung_gives_one_row():
    # every row compares eps with eps/2, so one rung is one row: the same
    # row that rung gives in a longer ladder
    report = sweep_eps(tiny_config(**{"study.epsilons": [1e-3]}))
    assert [r[0] for r in report.rows] == [1e-3]
    assert report.passed
    longer = sweep_eps(tiny_config(**{"study.epsilons": [1e-3, 1e-2]}))
    assert report.rows == longer.rows[1:]


def test_sweep_eps_rows_and_determinism():
    cfg = tiny_config(**{"study.epsilons": [1e-3, 1e-2]})
    report = sweep_eps(cfg)
    assert report.columns == ["epsilon", "d_phi", "d_mu", "d_sigma", "max_abs_phi"]
    assert [r[0] for r in report.rows] == [1e-2, 1e-3]  # sorted descending
    assert all(v >= 0.0 for row in report.rows for v in row[1:])
    assert report.digest == cfg.digest()


def test_sweep_eps_obstacle_overshoot_shrinks_with_eps():
    cfg = tiny_config(**{
        "potential.kind": "obstacle", "time.T": 0.01,
        "init.phi0.amplitude": 0.9, "init.sigma0.value": 1.0,
        "study.epsilons": [1e-2, 1e-3, 1e-4]})
    report = sweep_eps(cfg)
    overshoot = [max(r[4] - 1.0, 0.0) for r in report.rows]
    # the constraint violation is O(eps) down the ladder
    for eps, over in zip((1e-2, 1e-3, 1e-4), overshoot):
        assert over <= 10.0 * eps


# -- contdep ----------------------------------------------------------------


def contdep_config():
    return tiny_config(**{
        "model.alpha": 0.1, "time.T": 0.01,
        "study.perturb_u1.kind": "gaussian_pulse",
        "study.perturb_u1.amplitude": 1.0,
        "study.perturb_u1.center_x": 0.3,
        "study.perturb_u1.width": 0.1,
        "study.deltas": [1.0, 0.5]})


def test_contdep_refuses_a_perturbation_that_changes_nothing():
    # h = 0 multiplies u1 by zero: every perturbed run equals the base run
    cfg = tiny_config(**{
        "grid.n": [16], "time.T": 0.01, "potential.kind": "regular",
        "model.h.kind": "zero", "study.perturb_u1.kind": "constant",
        "study.perturb_u1.value": 1.0, "study.deltas": [1.0, 0.5]})
    with pytest.raises(InvalidParams, match="leaves the solution unchanged"):
        contdep(cfg)


def test_contdep_spread_is_unbounded_when_one_rung_changes_nothing(monkeypatch):
    lhs = iter([1e-3, 0.0])
    monkeypatch.setattr(experiments, "contdep_lhs", lambda norms: next(lhs))
    report = contdep(contdep_config())
    spread = report.verdicts[0]
    assert spread.name == "ratio_spread"
    assert spread.observed == math.inf and not spread.passed
    assert not report.passed


def test_contdep_rows_and_ratio():
    cfg = contdep_config()
    report = contdep(cfg)
    assert report.columns == ["delta", "lhs", "rhs", "ratio"]
    assert [r[0] for r in report.rows] == [1.0, 0.5]
    for d, lhs, rhs, ratio in report.rows:
        assert lhs > 0.0 and rhs > 0.0
        assert ratio == pytest.approx(lhs / rhs, rel=1e-15)
    # rhs is exactly linear in delta for a scaled bump
    assert report.rows[0][2] == pytest.approx(2.0 * report.rows[1][2], rel=1e-12)


# -- separation ---------------------------------------------------------------


def test_separation_reports_margin_and_refinement():
    cfg = tiny_config(**{
        "potential.kind": "logarithmic", "time.T": 0.01,
        "model.alpha": 0.1, "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1})
    report = separation(cfg)
    assert report.columns == ["r_min", "r_max", "xi_sup", "margin", "epsilon"]
    assert len(report.rows) == 2
    base, halved = report.rows
    assert base[4] == 1e-3 and halved[4] == 5e-4
    for r_min, r_max, xi_sup, margin, _ in report.rows:
        assert -1.0 < r_min < r_max < 1.0
        assert margin == pytest.approx(min(1.0 + r_min, 1.0 - r_max), rel=1e-15)
        assert xi_sup >= 0.0
    names = [v.name for v in report.verdicts]
    assert names == ["margin", "margin_stable", "xi_sup_stable"]


# -- sweep-alpha ---------------------------------------------------------------


def test_sweep_alpha_rows_fit_and_composite():
    cfg = tiny_config(**{
        "time.T": 0.01, "study.alphas": [0.25, 0.0625]})
    report = sweep_alpha(cfg)
    assert [r[0] for r in report.rows] == [0.25, 0.0625]
    assert report.fit is not None and report.fit.npoints == 2
    for row in report.rows:
        assert row[-1] == pytest.approx(sum(row[1:-1]), rel=1e-12)
        assert all(v >= 0.0 for v in row[1:])
    names = [v.name for v in report.verdicts]
    assert names == ["composite_nonincreasing", "rate_slope"]


def test_sweep_alpha_notes_the_local_slopes():
    cfg = tiny_config(**{
        "time.T": 0.01, "study.alphas": [0.25, 0.125, 0.0625]})
    report = sweep_alpha(cfg)
    (a, *_, c), (b, *_, d), (e, *_, f) = report.rows
    slopes = [math.log(c / d) / math.log(a / b), math.log(d / f) / math.log(b / e)]
    assert report.notes[1] == (
        "local slopes between neighbouring rungs: "
        f"0.25-0.125 {slopes[0]:.3f}, 0.125-0.0625 {slopes[1]:.3f}")
    # the two-point fits are the global fit of a two-rung ladder
    pair = sweep_alpha(tiny_config(**{"time.T": 0.01, "study.alphas": [0.25, 0.125]}))
    assert pair.fit.slope == pytest.approx(slopes[0], rel=1e-12)


# -- invariant battery ----------------------------------------------------------


def test_batteries_are_seed_stable_and_tight():
    assert yosida_battery(seed=0) == yosida_battery(seed=0)
    assert yosida_battery(seed=0) <= 1e-10
    assert yosida_battery(seed=123) <= 1e-10
    ident, eig = operator_identities(seed=0)
    assert ident <= 1e-12 and eig <= 1e-10


def test_conservation_drift_uses_caller_tolerances(request):
    tight, tight_sigma, traj = conservation_drift(default_config())
    assert tight <= 1e-8 and tight_sigma <= 1e-8
    assert traj.mass_phi.shape == (251,)
    request.getfixturevalue("jacobi_solves")
    loose, loose_sigma, _ = conservation_drift(
        default_config(**{"solver.cg_tol": 1e-2}))
    assert loose > 1e-8


def test_tight_newton_tol_stops_at_roundoff_floor():
    # the phase residual stalls near 1.5e-13 here, above this newton_tol:
    # Newton stops at the residual's roundoff floor instead of failing
    drift_mass, drift_sigma, traj = conservation_drift(
        default_config(**{"solver.newton_tol": 1e-13}))
    assert drift_mass <= 1e-8 and drift_sigma <= 1e-8
    assert traj.mass_phi.shape == (251,)


def test_invariant_suite_aggregates_verdicts():
    report = invariant_suite(default_config(), seed=0)
    names = [v.name for v in report.verdicts]
    assert names == ["operator_identities", "laplacian_eigenpairs",
                     "yosida_battery", "conservation_mass",
                     "conservation_sigma", "dt_order"]
    assert report.passed
    assert all(row[3] == "pass" for row in report.rows)
