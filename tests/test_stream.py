"""Tests for the streamed study composites and ``run(observe=...)``.

The stacked forms of the space-time norms, which hold a whole series at
once, live here as reference copies (``tests/test_norms.py`` checks them
against hand-computed oracles).  A ``CompositeStream`` fed against a
``ReferenceSeries``, by hand or by a run's observer, must match the
stacked composites to 1e-12 relative, on block boundaries and on record
strides above one; a stride that does not divide the run is refused.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chrelax import (
    Grid,
    GridMismatch,
    InvalidParams,
    ScheduleMismatch,
    SchemeUnstable,
    SeriesNorms,
    State,
    build_scenario,
    default_config,
    initial_state,
    parse_config,
    run,
)
from chrelax import norms as norms_module
from chrelax import stepper
from chrelax.cli import dispatch
from chrelax.experiments import separation, sweep_alpha, sweep_eps
from chrelax.norms import (
    CompositeStream,
    ReferenceSeries,
    alpha_error,
    contdep_lhs,
    record_count,
)

# -- the stacked forms, kept as reference copies -----------------------------


def series_norms(grid, fields, dt):
    """Norms of a snapshot series (t_0 included in the sup norms).

    ``fields`` is a list of snapshots or their (N, ncells) stack; every
    norm is a reduction over the stack's cell axis.
    """
    try:
        rows = np.asarray(fields, dtype=float)
    except ValueError as e:  # snapshots of different lengths
        raise GridMismatch(f"cannot stack the snapshots: {e}") from None
    h_sq, grad_sq = grid.stacked_sq_norms(rows)
    v_sq = h_sq + grad_sq
    return SeriesNorms(
        linf_h=float(np.sqrt(np.max(h_sq))),
        linf_v=float(np.sqrt(np.max(v_sq))),
        l2_h=float(np.sqrt(dt * np.sum(h_sq[1:]))),
        l2_v=float(np.sqrt(dt * np.sum(v_sq[1:]))),
    )


def convolve_one(fields, dt, n):
    """(1 * w)(t_n) = dt * sum of the first n snapshots."""
    if n == 0:
        return np.zeros_like(fields[0])
    return dt * np.sum(fields[:n], axis=0)


def convolved_series(fields, dt):
    """All partial convolutions (1 * w)(t_n), n = 0..N, as one (N+1, ncells)
    stack: a running sum down the time axis."""
    w = np.asarray(fields, dtype=float)
    out = np.empty_like(w)
    out[0] = 0.0
    np.multiply(w[:-1], dt, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def series(states, name):
    return [getattr(s, name) for s in states]


def stacked_diff(s1, s2, name):
    return np.array([a - b for a, b in zip(series(s1, name), series(s2, name))])


def stacked_contdep_lhs(grid, dt, s1, s2):
    """The continuous-dependence distance of the state series s1 against
    s2, record points dt apart."""
    dmu = stacked_diff(s1, s2, "mu")
    nm = series_norms(grid, dmu, dt)
    conv = series_norms(grid, convolved_series(dmu, dt), dt)
    np_ = series_norms(grid, stacked_diff(s1, s2, "phi"), dt)
    ns = series_norms(grid, stacked_diff(s1, s2, "sigma"), dt)
    return nm.linf_h + conv.linf_v + (np_.linf_h + np_.l2_v) + (ns.linf_h + ns.l2_v)


def stacked_alpha_error(grid, dt, s_alpha, s_limit, alpha):
    """The six vanishing-inertia error terms of s_alpha against s_limit."""
    mu_self = series_norms(grid, series(s_alpha, "mu"), dt)
    conv_mu = series_norms(
        grid, convolved_series(stacked_diff(s_alpha, s_limit, "mu"), dt), dt)
    nphi = series_norms(grid, stacked_diff(s_alpha, s_limit, "phi"), dt)
    dsig = stacked_diff(s_alpha, s_limit, "sigma")
    nsig = series_norms(grid, dsig, dt)
    conv_sig = series_norms(grid, convolved_series(dsig, dt), dt)
    return [math.sqrt(alpha) * mu_self.linf_h, conv_mu.linf_v,
            nphi.linf_h, nphi.l2_v, nsig.l2_h, conv_sig.linf_v]


def terms_list(t):
    return [t.mu_weighted, t.conv_mu_linf_v, t.phi_linf_h, t.phi_l2_v,
            t.sigma_l2_h, t.conv_sigma_linf_v]


DT = 0.01  # time between the record points of the random series


def random_states(grid, rng, npoints):
    return [State(*(rng.standard_normal(grid.ncells) for _ in range(5)), t=k * DT)
            for k in range(npoints)]


def reference(grid, states):
    """A ReferenceSeries filled with ``states``, one record point per step."""
    ref = ReferenceSeries(grid, DT, 1, len(states) - 1)
    for s in states:
        ref(s)
    return ref


def streamed(states, ref, block, monkeypatch):
    monkeypatch.setattr(norms_module, "STREAM_BLOCK", block)
    stream = CompositeStream(ref)
    for s in states:
        stream(s)
    return stream.finish()


# -- the accumulator against the stacked composites -------------------------


@pytest.mark.parametrize("grid", [Grid(16), Grid((5, 6), length=(1.0, 0.4))])
@pytest.mark.parametrize("block,npoints", [
    (4, 1), (4, 3), (4, 4), (4, 5), (4, 9), (64, 63), (64, 64), (64, 65)])
def test_stream_matches_stacked_composites(grid, block, npoints, monkeypatch):
    rng = np.random.default_rng(npoints)
    s1, s2 = random_states(grid, rng, npoints), random_states(grid, rng, npoints)
    norms = streamed(s1, reference(grid, s2), block, monkeypatch)
    np.testing.assert_allclose(
        terms_list(alpha_error(norms, 0.3)),
        stacked_alpha_error(grid, DT, s1, s2, 0.3), rtol=1e-12, atol=0)
    assert contdep_lhs(norms) == pytest.approx(
        stacked_contdep_lhs(grid, DT, s1, s2), rel=1e-12, abs=0)


def test_stream_convolution_continues_across_blocks_exactly(monkeypatch):
    # the running convolution adds in the order of one cumsum down the whole
    # series, so the sup of |1*dmu| agrees bit for bit whatever the block
    g = Grid(8)
    rng = np.random.default_rng(5)
    s1, s2 = random_states(g, rng, 11), random_states(g, rng, 11)
    want = series_norms(
        g, convolved_series(stacked_diff(s1, s2, "mu"), DT), DT).linf_v
    for block in (1, 2, 3, 10, 11, 64):
        got = streamed(s1, reference(g, s2), block, monkeypatch)
        assert got["conv_dmu"].linf_v == want


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


def observed(*args):
    """The states of a run at its record points."""
    states = []
    run(*args, observe=states.append)
    return states


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
    if 10 % record_every:
        # the last interval of the 10 steps would be short: the norms would
        # weight it as a full one, so the reference refuses the stride
        with pytest.raises(InvalidParams, match="record_every = 3 to divide the 10"):
            ReferenceSeries(g, scheme.dt, record_every, 10)
        return
    limit_params = replace(params, alpha=0.0)
    s_limit = observed(limit_params, pot, controls, init, g, T, scheme)
    s_alpha = observed(params, pot, controls, init, g, T, scheme)
    npoints = len(s_limit)
    assert npoints == record_count(10, record_every)
    ref = ReferenceSeries(g, scheme.dt, record_every, 10)
    run(limit_params, pot, controls, init, g, T, scheme, observe=ref)
    assert ref.count == npoints
    stream = CompositeStream(ref)
    run(params, pot, controls, init, g, T, scheme, observe=stream)
    norms = stream.finish()
    dt = scheme.dt * record_every
    np.testing.assert_allclose(
        terms_list(alpha_error(norms, params.alpha)),
        stacked_alpha_error(g, dt, s_alpha, s_limit, params.alpha),
        rtol=1e-12, atol=0)
    assert contdep_lhs(norms) == pytest.approx(
        stacked_contdep_lhs(g, dt, s_alpha, s_limit), rel=1e-12, abs=0)


# -- schedule checks ---------------------------------------------------------------


def test_stream_rejects_runs_that_miss_the_reference_points(monkeypatch):
    g = Grid(8)
    rng = np.random.default_rng(3)
    states = random_states(g, rng, 5)
    ref = reference(g, states)
    with pytest.raises(ScheduleMismatch):  # the reference is full
        ref(states[0])
    short = CompositeStream(ref)
    for s in states[:4]:
        short(s)
    with pytest.raises(ScheduleMismatch, match="4 of the reference's 5"):
        short.finish()
    long = CompositeStream(ref)
    for s in states:
        long(s)
    with pytest.raises(ScheduleMismatch):
        long(states[0])
    # a reference that is still being filled cannot be compared against
    partial = ReferenceSeries(g, DT, 1, 4)
    partial(states[0])
    monkeypatch.setattr(norms_module, "STREAM_BLOCK", 2)
    early = CompositeStream(partial)
    early(states[0])
    with pytest.raises(ScheduleMismatch, match="reference holds 1 points"):
        early(states[1])


@pytest.mark.parametrize("ncells", [1, 4])
def test_stream_and_reference_reject_states_of_another_grid(ncells):
    # a shape-(1,) state would broadcast into the n = 8 rows unnoticed, and
    # a shape-(4,) state would fail inside numpy's copy
    g = Grid(8)
    rng = np.random.default_rng(5)
    states = random_states(g, rng, 3)
    alien = State(*(rng.standard_normal(ncells) for _ in range(5)), t=DT)
    ref = ReferenceSeries(g, DT, 1, 2)
    ref(states[0])
    with pytest.raises(GridMismatch, match=f"shape \\({ncells},\\)"):
        ref(alien)
    assert ref.count == 1
    for s in states[1:]:
        ref(s)
    stream = CompositeStream(ref)
    stream(states[0])
    with pytest.raises(GridMismatch, match=f"shape \\({ncells},\\)"):
        stream(alien)
    for s in states[1:]:
        stream(s)
    assert contdep_lhs(stream.finish()) == 0.0


def test_stream_takes_its_schedule_from_the_reference():
    # a run of another horizon or record stride than the reference's run
    # records more or fewer points, and the stream refuses it
    params, pot, controls, init, g, T, scheme = small_scenario(
        **{"time.record_every": 5})
    ref = ReferenceSeries(g, scheme.dt, scheme.record_every, 10)
    run(params, pot, controls, init, g, T, scheme, observe=ref)
    with pytest.raises(ScheduleMismatch, match="more than the reference's 3"):
        run(params, pot, controls, init, g, 2 * T, scheme,
            observe=CompositeStream(ref))
    with pytest.raises(ScheduleMismatch, match="more than the reference's 3"):
        run(params, pot, controls, init, g, T, replace(scheme, record_every=2),
            observe=CompositeStream(ref))
    short = CompositeStream(ref)
    run(params, pot, controls, init, g, T / 2, scheme, observe=short)
    with pytest.raises(ScheduleMismatch, match="2 of the reference's 3"):
        short.finish()
    # the matching run is accepted, with the reference's record spacing
    same = CompositeStream(ref)
    run(params, pot, controls, init, g, T, scheme, observe=same)
    assert same.dt == ref.dt == scheme.dt * 5
    assert contdep_lhs(same.finish()) == 0.0


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
    # tracemalloc peak of 3.32 MB, and two live reference stacks 1.12 MB;
    # streaming each eps/2 run against its rung's own reference, the study
    # peaks at 0.81 MB, of which the one reference stack (401 x 3 x 32
    # doubles) is 0.31 MB.  The bound still allows a second stack.
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
    # the sawtooth start ends nearly every step after one Newton iteration;
    # the quadratic start took two at every step
    assert np.mean(traj.newton_iters[4:] == 1) >= 0.95


def test_sweep_alpha_notes_each_runs_newton_iterations(tmp_path, capsys):
    short = {"time.T": 0.1}
    cfg = default_config(**dict(LADDER_SEED0, **short, **{
        "study.alphas": [0.125, 0.25]}))
    path = tmp_path / "ladder.cfg"
    path.write_text(cfg.to_text())
    assert dispatch(["sweep-alpha", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("sweep-alpha: note: newton iterations")]
    # the limit run first, then the rungs in ladder order
    runs = [run(*ladder_limit(**short, **{"model.alpha": a}))
            for a in (0.0, 0.25, 0.125)]
    totals = [int(t.newton_iters.sum()) for t in runs]
    assert notes == [
        "sweep-alpha: note: newton iterations (total/max per step): "
        + ", ".join(f"{name} {total}/{int(t.newton_iters.max())}" for name, total, t
                    in zip(("limit", "alpha=0.25", "alpha=0.125"), totals, runs))]
    # one iteration on nearly every one of the 100 steps, as on the rungs
    assert totals[0] == 106 and totals[1:] == [102, 102]


def run_with_phase_increments(monkeypatch, increments, starts=None, alpha=0.0):
    """A run (alpha = 0 unless given) whose phase step adds the given
    increments in turn; each step's (phi_n, Newton start) pair goes to
    ``starts`` if given."""
    params, pot, controls, init, g, T, scheme = small_scenario(
        **{"model.alpha": alpha, "time.T": len(increments) * 1e-3})
    calls = []

    def step_phi(state, params, potential, scheme, grid, guess=None, xi_guess=None):
        calls.append(None)
        if starts is not None:
            starts.append((state.phi, guess))
        phi = state.phi + increments[len(calls) - 1]
        return phi, pot.yosida_prime(phi, scheme.yosida), 1

    monkeypatch.setattr(stepper, "step_phi", step_phi)
    return run(params, pot, controls, init, g, T, scheme)


def test_limit_start_is_exact_on_a_modulated_sawtooth(monkeypatch):
    rng = np.random.default_rng(5)
    a, b, c, d, e, g = (s * rng.standard_normal(16)
                        for s in (0.1, 1e-3, 1e-4, 2e-4, 2e-5, 1e-4))
    b += 1e-2  # a dominant trend keeps the increments clear of the guard
    nsteps = 12

    def start_errors(f):
        # phi_n = phi_0 + f(n) - f(0); each step's start against its answer
        increments = [f(n + 1) - f(n) for n in range(nsteps)]
        starts = []
        run_with_phase_increments(monkeypatch, increments, starts)
        return [guess - phi - inc for (phi, guess), inc in
                zip(starts[4:], increments[4:])]

    # a quadratic trend plus a linearly modulated period-2 mode: exact to
    # roundoff from step 5 on
    errors = start_errors(
        lambda n: a + b * n + c * n * n + (-1) ** n * (d + e * n))
    assert len(errors) == nsteps - 4
    assert max(np.max(np.abs(err)) for err in errors) <= 1e-14
    # not on n^3: with E the shift n -> n + 1, the start falls short by
    # (E - 1)^3 (E + 1)^2 n^3 = 3! 2^2 = 24 times the mode
    for err in start_errors(lambda n: n ** 3 * g):
        np.testing.assert_allclose(err, -24.0 * g, rtol=1e-9)


def test_alpha_start_is_exact_on_a_cubic_trend(monkeypatch):
    rng = np.random.default_rng(7)
    a, b, c, d, g = (s * rng.standard_normal(16)
                     for s in (0.1, 1e-2, 1e-4, 2e-5, 1e-4))
    nsteps = 12

    def start_errors(f):
        # phi_n = phi_0 + f(n) - f(0); each step's start against its answer
        increments = [f(n + 1) - f(n) for n in range(nsteps)]
        starts = []
        run_with_phase_increments(monkeypatch, increments, starts, alpha=0.1)
        return [guess - phi - inc for (phi, guess), inc in
                zip(starts[3:], increments[3:])]

    # a cubic trend: exact to roundoff from step 4 on
    errors = start_errors(lambda n: a + b * n + c * n * n + d * n ** 3)
    assert len(errors) == nsteps - 3
    assert max(np.max(np.abs(err)) for err in errors) <= 1e-14
    # not on n^4: with E the shift n -> n + 1, the start falls short by
    # (E - 1)^4 n^4 = 4! = 24 times the mode
    for err in start_errors(lambda n: n ** 4 * g):
        np.testing.assert_allclose(err, -24.0 * g, rtol=1e-9)


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
