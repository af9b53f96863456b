"""Tests for the streamed study composites and ``run(observe=...)``.

The stacked composites that kept every snapshot are kept here as reference
copies: ``CompositeStream`` (fed by ``alpha_error``/``contdep_lhs`` or by
a run's observer) must match them to 1e-12 relative, on
block boundaries and on record schedules whose last interval is short.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chrelax import (
    Grid,
    ScheduleMismatch,
    SchemeUnstable,
    State,
    Trajectory,
    alpha_error,
    build_scenario,
    contdep_lhs,
    default_config,
    initial_state,
    parse_config,
    run,
    series_norms,
)
from chrelax import norms as norms_module
from chrelax import stepper
from chrelax.experiments import separation, sweep_alpha, sweep_eps
from chrelax.norms import (
    CompositeStream,
    ReferenceSeries,
    alpha_terms,
    STREAM_BLOCK,
    contdep_value,
    convolved_series,
    record_count,
)

# -- reference copies of the stacked composites ----------------------------


def series(traj, name):
    return [getattr(s, name) for s in traj.snapshots]


def stacked_diff(t1, t2, name):
    return np.array([a - b for a, b in zip(series(t1, name), series(t2, name))])


def stacked_contdep_lhs(t1, t2):
    g, dt = t1.grid, t1.dt * t1.record_every
    dmu = stacked_diff(t1, t2, "mu")
    nm = series_norms(g, dmu, dt)
    conv = series_norms(g, convolved_series(dmu, dt), dt)
    np_ = series_norms(g, stacked_diff(t1, t2, "phi"), dt)
    ns = series_norms(g, stacked_diff(t1, t2, "sigma"), dt)
    return nm.linf_h + conv.linf_v + (np_.linf_h + np_.l2_v) + (ns.linf_h + ns.l2_v)


def stacked_alpha_error(t_alpha, t_limit):
    g, dt = t_alpha.grid, t_alpha.dt * t_alpha.record_every
    mu_self = series_norms(g, series(t_alpha, "mu"), dt)
    conv_mu = series_norms(
        g, convolved_series(stacked_diff(t_alpha, t_limit, "mu"), dt), dt)
    nphi = series_norms(g, stacked_diff(t_alpha, t_limit, "phi"), dt)
    dsig = stacked_diff(t_alpha, t_limit, "sigma")
    nsig = series_norms(g, dsig, dt)
    conv_sig = series_norms(g, convolved_series(dsig, dt), dt)
    return [math.sqrt(t_alpha.alpha) * mu_self.linf_h, conv_mu.linf_v,
            nphi.linf_h, nphi.l2_v, nsig.l2_h, conv_sig.linf_v]


def terms_list(t):
    return [t.mu_weighted, t.conv_mu_linf_v, t.phi_linf_h, t.phi_l2_v,
            t.sigma_l2_h, t.conv_sigma_linf_v]


def random_traj(grid, rng, npoints, alpha=0.3, dt=0.01, record_every=1):
    traj = Trajectory(grid=grid, dt=dt, record_every=record_every, alpha=alpha)
    for k in range(npoints):
        traj.snapshots.append(State(
            *(rng.standard_normal(grid.ncells) for _ in range(5)),
            t=k * dt * record_every))
    return traj


def streamed(t1, t2, block, monkeypatch):
    monkeypatch.setattr(norms_module, "STREAM_BLOCK", block)
    stream = CompositeStream(ReferenceSeries.of(t2), t1.grid, t1.dt,
                             t1.record_every, len(t1.snapshots))
    for snap in t1.snapshots:
        stream(snap)
    return stream.finish()


# -- the accumulator against the stacked composites -------------------------


@pytest.mark.parametrize("grid", [Grid(16), Grid((5, 6), length=(1.0, 0.4))])
@pytest.mark.parametrize("block,npoints", [
    (4, 1), (4, 3), (4, 4), (4, 5), (4, 9), (64, 63), (64, 64), (64, 65)])
def test_stream_matches_stacked_composites(grid, block, npoints, monkeypatch):
    rng = np.random.default_rng(npoints)
    t1, t2 = random_traj(grid, rng, npoints), random_traj(grid, rng, npoints)
    norms = streamed(t1, t2, block, monkeypatch)
    np.testing.assert_allclose(
        terms_list(alpha_terms(norms, t1.alpha)), stacked_alpha_error(t1, t2),
        rtol=1e-12, atol=0)
    assert contdep_value(norms) == pytest.approx(
        stacked_contdep_lhs(t1, t2), rel=1e-12, abs=0)
    if block == STREAM_BLOCK:  # the default block, through the public functions
        np.testing.assert_allclose(
            terms_list(alpha_error(t1, t2)), stacked_alpha_error(t1, t2),
            rtol=1e-12, atol=0)
        assert contdep_lhs(t1, t2) == pytest.approx(
            stacked_contdep_lhs(t1, t2), rel=1e-12, abs=0)


def test_stream_convolution_continues_across_blocks_exactly(monkeypatch):
    # the running convolution adds in the order of one cumsum down the whole
    # series, so the sup of |1*dmu| agrees bit for bit whatever the block
    g = Grid(8)
    rng = np.random.default_rng(5)
    t1, t2 = random_traj(g, rng, 11), random_traj(g, rng, 11)
    want = series_norms(
        g, convolved_series(stacked_diff(t1, t2, "mu"), t1.dt), t1.dt).linf_v
    for block in (1, 2, 3, 10, 11, 64):
        assert streamed(t1, t2, block, monkeypatch)["conv_dmu"].linf_v == want


def test_record_count_matches_the_run_schedule():
    assert record_count(10, 3) == 5  # t_0, steps 3, 6, 9 and 10
    assert record_count(9, 3) == 4
    assert record_count(1, 1) == 2
    assert record_count(5, 99) == 2


# -- run(observe=...) -----------------------------------------------------------

SMALL = (
    "grid.n = 16\ntime.T = 0.01\ntime.dt = 1e-3\ntime.record_every = 3\n"
    "potential.kind = regular\n"
    "model.alpha = 0.1\nmodel.P.kind = constant\nmodel.P.p0 = 1.0\n"
    "init.phi0.kind = cosine_bump\ninit.phi0.amplitude = 0.5\n"
    "init.mu0.kind = cosine_bump\ninit.mu0.amplitude = 0.2\n"
    "init.sigma0.kind = cosine_bump\ninit.sigma0.amplitude = 0.3\n"
    "controls.u2.kind = sinusoid\ncontrols.u2.amplitude = 0.3\n")


def small_scenario(**updates):
    sc = build_scenario(parse_config(SMALL).with_updates(updates))
    return sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T, sc.scheme


def recorded_run(*args):
    """A run whose trajectory holds the state at every record point."""
    states = []
    traj = run(*args, observe=states.append)
    traj.snapshots = states
    return traj


def test_observe_sees_every_record_point_and_keeps_two_snapshots():
    args = small_scenario()
    params, pot, controls, init, g, T, scheme = args
    plain = run(*args)
    seen = []
    lean = run(*args, observe=seen.append)
    # nsteps = 10 is not a multiple of record_every = 3: t = 0, 3, 6, 9, 10
    assert [s.t for s in seen] == pytest.approx([0.0, 3e-3, 6e-3, 9e-3, 1e-2])
    # the state seen at t is the final state of the same run stopped at t
    stopped = [initial_state(init, pot, scheme.yosida, g)] + [
        run(params, pot, controls, init, g, s.t, scheme).final for s in seen[1:]]
    for a, b in zip(seen, stopped):
        for name in ("mu", "v", "phi", "sigma", "xi"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    # observing changes nothing of the run
    assert len(lean.snapshots) == len(plain.snapshots) == 2
    assert lean.final is seen[-1]
    for name in ("mu", "v", "phi", "sigma", "xi"):
        np.testing.assert_array_equal(getattr(lean.final, name),
                                      getattr(plain.final, name))
        np.testing.assert_array_equal(getattr(lean.snapshots[0], name),
                                      getattr(plain.snapshots[0], name))
    for name in ("mass_phi", "mass_sigma", "mass_v", "step_times", "newton_iters"):
        np.testing.assert_array_equal(getattr(lean, name), getattr(plain, name))


@pytest.mark.parametrize("record_every", [1, 3])
def test_streamed_runs_match_the_stacked_composites(record_every, monkeypatch):
    monkeypatch.setattr(norms_module, "STREAM_BLOCK", 2)
    params, pot, controls, init, g, T, scheme = small_scenario(
        **{"time.record_every": record_every})
    limit_params = replace(params, alpha=0.0)
    t_limit = recorded_run(limit_params, pot, controls, init, g, T, scheme)
    t_alpha = recorded_run(params, pot, controls, init, g, T, scheme)
    npoints = len(t_limit.snapshots)
    assert npoints == record_count(10, record_every)
    ref = ReferenceSeries(g, scheme.dt, record_every, npoints)
    run(limit_params, pot, controls, init, g, T, scheme, observe=ref)
    assert ref.count == npoints
    stream = CompositeStream(ref, g, scheme.dt, record_every, npoints)
    run(params, pot, controls, init, g, T, scheme, observe=stream)
    norms = stream.finish()
    np.testing.assert_allclose(
        terms_list(alpha_terms(norms, params.alpha)),
        stacked_alpha_error(t_alpha, t_limit), rtol=1e-12, atol=0)
    assert contdep_value(norms) == pytest.approx(
        stacked_contdep_lhs(t_alpha, t_limit), rel=1e-12, abs=0)


# -- schedule checks ---------------------------------------------------------------


def test_stream_rejects_a_reference_of_another_schedule():
    g = Grid(8)
    ref = ReferenceSeries(g, 1e-3, 1, 11)
    CompositeStream(ref, g, 1e-3, 1, 11)  # the matching schedule is accepted
    for grid, dt, record_every, npoints in [
            (g, 2e-3, 1, 11), (g, 1e-3, 2, 11), (g, 1e-3, 1, 10),
            (Grid(4), 1e-3, 1, 11), (Grid(8, length=2.0), 1e-3, 1, 11)]:
        with pytest.raises(ScheduleMismatch):
            CompositeStream(ref, grid, dt, record_every, npoints)


def test_stream_rejects_runs_that_miss_the_reference_points(monkeypatch):
    g = Grid(8)
    rng = np.random.default_rng(3)
    t = random_traj(g, rng, 5)
    ref = ReferenceSeries.of(t)
    with pytest.raises(ScheduleMismatch):  # the reference is full
        ref(t.snapshots[0])
    short = CompositeStream(ref, g, t.dt, 1, 5)
    for snap in t.snapshots[:4]:
        short(snap)
    with pytest.raises(ScheduleMismatch, match="4 of the reference's 5"):
        short.finish()
    long = CompositeStream(ref, g, t.dt, 1, 5)
    for snap in t.snapshots:
        long(snap)
    with pytest.raises(ScheduleMismatch):
        long(t.snapshots[0])
    # a reference that is still being filled cannot be compared against
    partial = ReferenceSeries(g, t.dt, 1, 5)
    partial(t.snapshots[0])
    monkeypatch.setattr(norms_module, "STREAM_BLOCK", 2)
    early = CompositeStream(partial, g, t.dt, 1, 5)
    early(t.snapshots[0])
    with pytest.raises(ScheduleMismatch, match="reference holds 1 points"):
        early(t.snapshots[1])
    # the trajectory functions keep their schedule check
    with pytest.raises(ScheduleMismatch):
        alpha_error(t, random_traj(g, rng, 5, record_every=2))


def test_trajectory_composites_reject_runs_without_their_record_series():
    # a run keeps its first and last state: with 5 record points the pair
    # would be compared at t = 0 and t = T only
    params, pot, controls, init, g, T, scheme = small_scenario()
    limit = replace(params, alpha=0.0)
    t_alpha = run(params, pot, controls, init, g, T, scheme, observe=lambda s: None)
    t_limit = run(limit, pot, controls, init, g, T, scheme, observe=lambda s: None)
    with pytest.raises(ScheduleMismatch, match="holds 2 snapshots.* has 5 points"):
        alpha_error(t_alpha, t_limit)
    with pytest.raises(ScheduleMismatch, match="holds 2 snapshots.* has 5 points"):
        contdep_lhs(t_alpha, t_limit)
    # with record_every >= nsteps the first and last state are the schedule
    sparse = replace(scheme, record_every=10)
    t_alpha = run(params, pot, controls, init, g, T, sparse)
    t_limit = run(limit, pot, controls, init, g, T, sparse)
    assert contdep_lhs(t_alpha, t_limit) > 0.0
    assert alpha_error(t_alpha, t_limit).composite > 0.0
    # the second trajectory is checked too: twice the horizon has 3 points
    t_long = run(limit, pot, controls, init, g, 2 * T, sparse)
    with pytest.raises(ScheduleMismatch, match="holds 2 snapshots.* has 3 points"):
        contdep_lhs(t_alpha, t_long)


# -- memory -----------------------------------------------------------------------


def test_sweep_alpha_memory_does_not_grow_with_snapshots():
    # 400 steps at n = 32 with three rungs: every snapshot of the four runs
    # took a tracemalloc peak of 3.75 MB; the streamed study peaks at 0.81 MB
    # (one reference stack of 401 x 3 x 32 doubles is 0.31 MB of it)
    cfg = default_config(**{
        "grid.n": [32], "time.T": 0.4, "time.dt": 1e-3,
        "model.P.kind": "constant", "model.P.p0": 1.0,
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
        "init.mu0.kind": "cosine_bump", "init.mu0.amplitude": 0.2,
        "init.sigma0.kind": "cosine_bump", "init.sigma0.amplitude": 0.3,
        "study.alphas": [0.25, 0.125, 0.0625],
    })
    sweep_alpha(cfg)  # build the grid's cached tables outside the trace
    tracemalloc.start()
    try:
        report = sweep_alpha(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 3
    assert peak <= 1.0e6, f"tracemalloc peak {peak / 1e6:.3f} MB"


def test_separation_reduces_every_record_point():
    # the running range against min/max over the recorded states of both runs
    cfg = parse_config(SMALL).with_updates({
        "potential.kind": "logarithmic", "potential.k1": 2.0,
        "potential.epsilon": 1e-2, "init.phi0.kind": "tanh_interface",
        "init.phi0.lo": -0.9, "init.phi0.hi": 0.9, "init.phi0.width": 0.1})
    sc = build_scenario(cfg)
    want = []
    for eps in (1e-2, 5e-3):
        states = []
        run(sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T,
            replace(sc.scheme, eps=eps), observe=states.append)
        assert len(states) == 5
        r_min = min(float(np.min(s.phi)) for s in states)
        r_max = max(float(np.max(s.phi)) for s in states)
        xi_sup = max(float(np.max(np.abs(s.xi))) for s in states)
        want.append((r_min, r_max, xi_sup, min(1.0 + r_min, 1.0 - r_max), eps))
    assert separation(cfg).rows == want


def traced_peak(study, cfg):
    """tracemalloc peak of a second call, after the first has built the
    grid's cached tables."""
    study(cfg)
    tracemalloc.start()
    try:
        report = study(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_sweep_eps_memory_holds_two_reference_stacks():
    # four runs of 400 steps at n = 32: keeping every snapshot took a
    # tracemalloc peak of 3.32 MB; streamed, the study peaks at 1.12 MB, of
    # which the two live reference stacks (401 x 3 x 32 doubles) are 0.62 MB
    cfg = default_config(**{
        "grid.n": [32], "time.T": 0.4, "time.dt": 1e-3,
        "model.alpha": 0.5, "model.P.kind": "constant", "model.P.p0": 1.0,
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
        "init.mu0.kind": "cosine_bump", "init.mu0.amplitude": 0.2,
        "init.sigma0.kind": "cosine_bump", "init.sigma0.amplitude": 0.3,
        "study.epsilons": [1e-2, 1e-3],
    })
    report, peak = traced_peak(sweep_eps, cfg)
    assert len(report.rows) == 2
    assert peak <= 1.4e6, f"tracemalloc peak {peak / 1e6:.3f} MB"


def test_separation_memory_does_not_grow_with_snapshots():
    # two runs of 400 steps at n = 32: keeping every snapshot of a run took
    # a tracemalloc peak of 0.85 MB; the running phase range peaks at 0.06 MB
    cfg = default_config(**{
        "grid.n": [32], "time.T": 0.4, "time.dt": 1e-3,
        "model.alpha": 0.1, "model.P.kind": "constant", "model.P.p0": 0.5,
        "potential.kind": "logarithmic", "potential.k1": 2.0,
        "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.2,
    })
    report, peak = traced_peak(separation, cfg)
    assert len(report.rows) == 2
    assert peak <= 0.2e6, f"tracemalloc peak {peak / 1e6:.3f} MB"


# -- the alpha = 0 stability guard ---------------------------------------------------

# the benchmark's alpha-ladder scenario, seed 0 (tau = 1, constant P = 1)
LADDER_SEED0 = {
    "grid.n": [64], "time.T": 0.5, "time.dt": 1e-3, "model.alpha": 0.0,
    "potential.kind": "regular",
    "model.P.kind": "constant", "model.P.p0": 1.0,
    "init.mu0.kind": "cosine_bump", "init.mu0.amplitude": 0.19943123161131668,
    "init.mu0.mode": 2,
    "init.mu0_prime.kind": "cosine_bump", "init.mu0_prime.amplitude": 0.1,
    "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5185993716406898,
    "init.sigma0.kind": "cosine_bump", "init.sigma0.amplitude": 0.29407526121744587,
    "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
    "controls.u1.center_x": 0.4532498358506432,
    "controls.u1.width": 0.1, "controls.u1.t_on": 0.0, "controls.u1.t_off": 0.15,
    "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
    "controls.u2.omega": 2.0,
}


def ladder_limit(**updates):
    sc = build_scenario(default_config(**dict(LADDER_SEED0, **updates)))
    return sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T, sc.scheme


def test_diverging_limit_run_fails_early_by_name():
    # at tau P = 0.5 the phase increments double and flip sign at every step
    with pytest.raises(SchemeUnstable, match=r"tau\*min P = 0\.5\b") as info:
        run(*ladder_limit(**{"model.P.p0": 0.5}))
    assert info.value.step < 20
    assert info.value.substep == "phi"
    assert "grew by a factor" in str(info.value)


def test_limit_sawtooth_at_unit_tau_p_runs_through():
    # at tau P = 1 the increments alternate between growing and shrinking
    traj = run(*ladder_limit())
    assert len(traj.newton_iters) == 500


def run_with_phase_increments(monkeypatch, increments):
    """An alpha = 0 run whose phase step adds the given increments in turn."""
    params, pot, controls, init, g, T, scheme = small_scenario(
        **{"model.alpha": 0.0, "time.T": len(increments) * 1e-3})
    calls = []

    def step_phi(state, *args, **kwargs):
        calls.append(None)
        phi = state.phi + increments[len(calls) - 1]
        return phi, pot.yosida_prime(phi, scheme.yosida), 1

    monkeypatch.setattr(stepper, "step_phi", step_phi)
    return run(params, pot, controls, init, g, T, scheme)


def test_guard_counts_only_growing_reversed_increments(monkeypatch):
    x = (np.arange(16) + 0.5) / 16
    a, b = np.cos(np.pi * x), np.cos(2 * np.pi * x)  # orthogonal modes
    # growing by 1.5 per step at right angles (cosine 0): no trip
    run_with_phase_increments(
        monkeypatch, [1e-6 * 1.5**n * (a if n % 2 else b) for n in range(10)])
    # growing and reversed, with the streak broken by one shrinking step
    flips = [1e-6 * (-1.5) ** n * a for n in range(4)]
    flips += [-0.1 * flips[-1]] + [flips[-1] * (-1.5) ** n for n in range(1, 6)]
    with pytest.raises(SchemeUnstable, match=r"factor 1\.5 .*tau\*min P = 1\b") as info:
        run_with_phase_increments(monkeypatch, flips)
    # steps 2-4 grow reversed, step 5 shrinks, step 6 grows without turning
    # round, and steps 7-10 grow reversed again
    assert info.value.step == 10
