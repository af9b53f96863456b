"""Tests for the backward Euler substeps and the run loop.

On constant fields the Laplacian vanishes and every substep collapses to
scalar algebra, so a test-local bisection solver provides an independent
oracle for the full phi -> mu -> sigma update, including the substep
ordering, the lagged smooth potential part, and the source sampling time.
"""

from dataclasses import replace

import numpy as np
import pytest

from chrelax import potentials, stepper
from chrelax import (
    Controls,
    ControlSpec,
    FieldSpec,
    Grid,
    InitialData,
    InvalidParams,
    ModelParams,
    NewtonDivergence,
    NonFiniteState,
    ProliferationSpec,
    SchemeConfig,
    SplitPotential,
    State,
    YosidaParams,
    build_scenario,
    initial_state,
    parse_config,
    run,
    step_mu,
    step_phi,
    step_sigma,
)
from test_stream import ladder_limit

CHI = 1.0


def constant_state(grid, mu, v, phi, sigma, pot, eps):
    yp = YosidaParams(epsilon=eps)
    return State(
        mu=grid.field(mu), v=grid.field(v), phi=grid.field(phi),
        sigma=grid.field(sigma),
        xi=np.asarray(pot.yosida_prime(grid.field(phi), yp)), t=0.0)


def bisect_root(f, lo=-10.0, hi=10.0, iters=200):
    assert f(lo) < 0.0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_yosida(pot, x, eps):
    """(x - J(x)) / eps with the resolvent J found by bisection."""
    lo, hi = pot.domain
    lo = max(lo, -1e6) + 1e-15
    hi = min(hi, 1e6) - 1e-15
    j = bisect_root(lambda z: z + eps * float(pot.minimal_section(z)) - x, lo, hi)
    return (x - j) / eps


def scalar_step(pot, params, scheme, state, u1, u2):
    """One backward Euler step of the spatially constant system."""
    dt, eps = scheme.dt, scheme.eps
    mu, v, phi, sigma = state
    g = mu + CHI * sigma - float(pot.f2_prime(phi))
    # for bounded-domain kinds the bracket must stay where the inner
    # resolvent bisection can still represent (1 - |z|) in doubles
    b = 10.0 if np.isinf(pot.domain[1]) else 1.0 + 25.0 * eps
    phi_n = bisect_root(
        lambda x: params.tau * (x - phi) / dt + scalar_yosida(pot, x, eps) - g,
        lo=-b, hi=b)
    P = float(params.proliferation(np.array([phi_n]))[0])
    H = float(params.truncation(np.array([phi_n]))[0])
    mu_pred = mu + dt * v
    source = P * (sigma + CHI * (1.0 - phi_n) - mu_pred) - H * u1
    dv = (-(phi_n - phi) + dt * source) / (params.alpha + dt * dt * P)
    v_n = v + dv
    mu_n = mu + dt * v_n
    dsig = dt * (-P * (sigma + CHI * (1.0 - phi_n) - mu_n) + u2) / (1.0 + dt * P)
    return mu_n, v_n, phi_n, sigma + dsig


# -- single substeps against the scalar oracle ---------------------------


@pytest.mark.parametrize("kind", ["regular", "logarithmic"])
def test_one_step_matches_scalar_oracle(kind):
    g = Grid(2)
    pot = SplitPotential(kind)
    params = ModelParams(alpha=0.5, tau=1.0, chi=CHI,
                         proliferation=ProliferationSpec("constant", p0=0.8))
    scheme = SchemeConfig(dt=0.1, eps=1e-2)
    state = constant_state(g, mu=0.2, v=-0.1, phi=0.4, sigma=0.6, pot=pot,
                           eps=scheme.eps)
    u1, u2 = 0.3, -0.2
    phi_n, xi_n, iters = step_phi(state, params, pot, scheme, g)
    prolif = stepper._proliferation(state, phi_n, params)
    mu_n, v_n = step_mu(state, phi_n, params, scheme, g.field(u1), g, prolif)
    sigma_n = step_sigma(state, phi_n, mu_n, params, scheme, g.field(u2), g, prolif)

    want = scalar_step(pot, params, scheme, (0.2, -0.1, 0.4, 0.6), u1, u2)
    np.testing.assert_allclose(mu_n, want[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(v_n, want[1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(phi_n, want[2], rtol=0, atol=1e-9)
    np.testing.assert_allclose(sigma_n, want[3], rtol=0, atol=1e-9)
    assert iters <= 20
    np.testing.assert_allclose(
        xi_n, pot.yosida_prime(phi_n, scheme.yosida), rtol=0, atol=1e-12)


def test_phase_step_converging_on_its_last_iteration_returns_the_budget():
    # a small bump is nearly linear: one Newton iteration reaches the
    # tolerance, and with a budget of one the final residual test accepts it
    g = Grid(32)
    pot = SplitPotential.regular()
    phi = FieldSpec("cosine_bump", amplitude=1e-3).build(g)
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    state = State(mu=g.field(), v=g.field(), phi=phi, sigma=g.field(),
                  xi=np.asarray(pot.yosida_prime(phi, scheme.yosida)), t=0.0)
    x, xi, iters = step_phi(state, ModelParams(), pot,
                            replace(scheme, newton_max_iter=1), g)
    assert iters == 1
    want = step_phi(state, ModelParams(), pot, scheme, g)
    assert want[2] == 1
    np.testing.assert_array_equal(x, want[0])
    np.testing.assert_array_equal(xi, want[1])


def test_mu_update_is_integrated_velocity():
    g = Grid(16)
    pot = SplitPotential.regular()
    params = ModelParams(alpha=0.3)
    scheme = SchemeConfig(dt=1e-2, eps=1e-3)
    rng = np.random.default_rng(61)
    state = State(mu=rng.standard_normal(16), v=rng.standard_normal(16),
                  phi=0.5 * rng.standard_normal(16),
                  sigma=rng.standard_normal(16), xi=np.zeros(16), t=0.0)
    phi_n, _, _ = step_phi(state, params, pot, scheme, g)
    mu_n, v_n = step_mu(state, phi_n, params, scheme, g.field(), g,
                        stepper._proliferation(state, phi_n, params))
    # mu' = mu + dt v' holds exactly by construction
    np.testing.assert_array_equal(mu_n, state.mu + scheme.dt * v_n)


def test_step_mu_rejects_negative_alpha():
    g = Grid(8)
    pot = SplitPotential.regular()
    scheme = SchemeConfig(dt=1e-2, eps=1e-3)
    state = constant_state(g, 0.0, 0.0, 0.2, 0.1, pot, scheme.eps)
    with pytest.raises(InvalidParams, match="alpha >= 0"):
        step_mu(state, state.phi, ModelParams(alpha=-1e-3), scheme, g.field(), g,
                stepper._proliferation(state, state.phi, ModelParams(alpha=-1e-3)))


def test_limit_step_scalar_oracle_and_guard():
    g = Grid(2)
    pot = SplitPotential.regular()
    scheme = SchemeConfig(dt=0.05, eps=1e-2)
    params = ModelParams(alpha=0.0,
                         proliferation=ProliferationSpec("constant", p0=2.0))
    state = constant_state(g, mu=0.3, v=0.0, phi=0.2, sigma=0.7, pot=pot,
                           eps=scheme.eps)
    phi_n = g.field(0.25)
    u1 = 0.4
    got, _ = step_mu(state, phi_n, params, scheme, g.field(u1), g,
                     stepper._proliferation(state, phi_n, params))
    # with no Laplacian: P mu' = P (sigma + chi (1 - phi')) - h u1 - dphi/dt
    H = float(params.truncation(np.array([0.25]))[0])
    want = (2.0 * (0.7 + CHI * 0.75) - H * u1 - 0.05 / 0.05) / 2.0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    ramp = ModelParams(alpha=0.0, proliferation=ProliferationSpec("ramp", p0=1.0))
    with pytest.raises(InvalidParams, match="min P"):
        step_mu(state, g.field(-1.0), ramp, scheme, g.field(), g,
                stepper._proliferation(state, g.field(-1.0), ramp))


def test_limit_step_agrees_with_small_alpha():
    g = Grid(32)
    pot = SplitPotential.regular()
    # the inertial term perturbs the limit solve at order alpha/dt^2
    scheme = SchemeConfig(dt=0.05, eps=1e-3, cg_tol=1e-12)
    x = g.coordinates()[0]
    state = State(
        mu=0.1 * np.cos(np.pi * x), v=np.zeros(32),
        phi=0.5 * np.cos(np.pi * x), sigma=0.3 * np.cos(2 * np.pi * x),
        xi=np.zeros(32), t=0.0)
    prolif = ProliferationSpec("constant", p0=1.0)
    phi_n, _, _ = step_phi(
        state, ModelParams(alpha=0.0, proliferation=prolif), pot, scheme, g)
    shared = stepper._proliferation(state, phi_n, ModelParams(proliferation=prolif))
    mu_lim, _ = step_mu(
        state, phi_n, ModelParams(alpha=0.0, proliferation=prolif), scheme,
        g.field(), g, shared)
    mu_small, _ = step_mu(
        state, phi_n, ModelParams(alpha=1e-8, proliferation=prolif), scheme,
        g.field(), g, shared)
    assert g.h_norm(mu_lim - mu_small) <= 1e-4


def test_limit_and_sigma_zero_right_hand_sides():
    g = Grid(16)
    pot = SplitPotential.regular()
    scheme = SchemeConfig(dt=1e-2, eps=1e-3)
    params = ModelParams(alpha=0.0,
                         proliferation=ProliferationSpec("constant", p0=1.0))
    zero = constant_state(g, 0.0, 0.0, 1.0, 0.0, pot, scheme.eps)
    # stationary phase at +1 with no nutrient: both sources cancel exactly
    prolif = stepper._proliferation(zero, zero.phi, params)
    mu_n, _ = step_mu(zero, zero.phi, params, scheme, g.field(), g, prolif)
    assert np.all(mu_n == 0.0)
    sigma_n = step_sigma(zero, zero.phi, mu_n, params, scheme, g.field(), g, prolif)
    assert np.all(sigma_n == 0.0)


# -- conservation and structure ------------------------------------------


def source_free_setup(n=32, p0=0.0):
    init = InitialData(
        mu0=FieldSpec("cosine_bump", amplitude=0.2, mode=2),
        mu0_prime=FieldSpec("cosine_bump", amplitude=0.1),
        phi0=FieldSpec("cosine_bump", amplitude=0.5),
        sigma0=FieldSpec("cosine_bump", amplitude=0.3))
    params = ModelParams(alpha=0.01,
                         proliferation=ProliferationSpec("constant", p0=p0))
    return params, SplitPotential.regular(), Controls(), init, Grid(n)


def test_conserved_quantities_without_sources():
    params, pot, controls, init, g = source_free_setup()
    traj = run(params, pot, controls, init, g, T=0.05,
               scheme=SchemeConfig(dt=1e-3, eps=1e-3))
    combined = params.alpha * traj.mass_v + traj.mass_phi
    assert np.max(np.abs(combined - combined[0])) <= 1e-10
    assert np.max(np.abs(traj.mass_sigma - traj.mass_sigma[0])) <= 1e-10


def test_zero_data_is_a_fixed_point_without_growth():
    init = InitialData(FieldSpec(), FieldSpec(), FieldSpec(), FieldSpec())
    params = ModelParams(alpha=0.01,
                         proliferation=ProliferationSpec("constant", p0=0.0))
    traj = run(params, SplitPotential.regular(), Controls(), init, Grid(16),
               T=0.01, scheme=SchemeConfig(dt=1e-3, eps=1e-3))
    for name in ("mu", "v", "phi", "sigma"):
        assert np.all(getattr(traj.final, name) == 0.0)


# -- run loop mechanics -----------------------------------------------------


def test_run_matches_iterated_scalar_map():
    g = Grid(2)
    pot = SplitPotential.regular()
    params = ModelParams(alpha=0.5, tau=2.0, chi=CHI,
                         proliferation=ProliferationSpec("constant", p0=0.8))
    scheme = SchemeConfig(dt=0.05, eps=1e-2)
    init = InitialData(
        mu0=FieldSpec("constant", value=0.2),
        mu0_prime=FieldSpec("constant", value=-0.1),
        phi0=FieldSpec("constant", value=0.4),
        sigma0=FieldSpec("constant", value=0.6))
    controls = Controls(u1=ControlSpec("constant", value=0.3),
                        u2=ControlSpec("constant", value=-0.2))
    traj = run(params, pot, controls, init, g, T=0.5, scheme=scheme)

    vals = (0.2, -0.1, 0.4, 0.6)
    for _ in range(10):
        vals = scalar_step(pot, params, scheme, vals, 0.3, -0.2)
    np.testing.assert_allclose(traj.final.mu, vals[0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(traj.final.v, vals[1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(traj.final.phi, vals[2], rtol=0, atol=1e-8)
    np.testing.assert_allclose(traj.final.sigma, vals[3], rtol=0, atol=1e-8)


def test_run_is_deterministic():
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    a = run(params, pot, controls, init, g, T=0.01, scheme=scheme)
    b = run(params, pot, controls, init, g, T=0.01, scheme=scheme)
    for name in ("mu", "v", "phi", "sigma"):
        np.testing.assert_array_equal(
            getattr(a.final, name), getattr(b.final, name))
    np.testing.assert_array_equal(a.mass_phi, b.mass_phi)


def test_snapshot_schedule():
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    states = []
    traj = run(params, pot, controls, init, g, T=0.01,
               scheme=SchemeConfig(dt=1e-3, eps=1e-3, record_every=3),
               observe=states.append)
    np.testing.assert_allclose(
        [s.t for s in states], [0.0, 3e-3, 6e-3, 9e-3, 1e-2], rtol=0, atol=1e-15)
    # the run keeps the first and the last state only
    assert len(traj.snapshots) == 2
    assert traj.final is traj.snapshots[-1] is states[-1]
    assert traj.final.t == pytest.approx(0.01)
    # diagnostics always cover every step
    assert traj.mass_phi.shape == (11,)
    np.testing.assert_allclose(traj.step_times, 1e-3 * np.arange(11), atol=0)
    sparse_states = []
    sparse = run(params, pot, controls, init, g, T=0.01,
                 scheme=SchemeConfig(dt=1e-3, eps=1e-3, record_every=99),
                 observe=sparse_states.append)
    assert len(sparse.snapshots) == 2
    assert [s.t for s in sparse_states] == pytest.approx([0.0, 0.01])


def test_run_rejects_bad_horizon_and_setup():
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    with pytest.raises(InvalidParams):
        run(params, pot, controls, init, g, T=0.0105, scheme=scheme)
    with pytest.raises(InvalidParams):
        run(params, pot, controls, init, g, T=0.0, scheme=scheme)
    with pytest.raises(InvalidParams, match="tau"):
        run(ModelParams(tau=0.0), pot, controls, init, g, T=0.01, scheme=scheme)


def test_step_count_is_bounded():
    assert stepper.step_count(stepper.MAX_STEPS * 1e-3, 1e-3) == stepper.MAX_STEPS
    with pytest.raises(InvalidParams, match="more than the"):
        stepper.step_count((stepper.MAX_STEPS + 1) * 1e-3, 1e-3)


def test_substep_failure_reports_step_index():
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    # the cold first step needs two Newton iterations
    starved = SchemeConfig(dt=1e-3, eps=1e-3, newton_max_iter=1)
    with pytest.raises(NewtonDivergence, match=r"^step 1 \(t = 0.001\)") as ei:
        run(params, pot, controls, init, g, T=0.01, scheme=starved)
    assert ei.value.step == 1 and ei.value.substep == "phi"
    assert "substep phi" in str(ei.value)
    assert f"(residual {ei.value.residual:.3e})" in str(ei.value)


def test_non_finite_state_fails_at_its_substep(monkeypatch):
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    clean = stepper.step_sigma

    def poisoned(state, *args):
        out = clean(state, *args)
        if state.t > 0.0:  # from the second step on
            out[3] = np.nan
        return out

    monkeypatch.setattr(stepper, "step_sigma", poisoned)
    with pytest.raises(NonFiniteState,
                       match=r"^step 2 \(t = 0.002\), substep sigma: sigma is "
                             r"non-finite in 1 of 16 cells") as ei:
        run(params, pot, controls, init, g, T=0.01,
            scheme=SchemeConfig(dt=1e-3, eps=1e-3))
    assert ei.value.step == 2 and ei.value.substep == "sigma"


@pytest.mark.parametrize("at_step,t", [(0, "0"), (3, "0.003")])
def test_floating_point_error_in_observe_names_observe(at_step, t):
    # run raises numpy's overflow, also in the observer's arithmetic, and
    # reports it as a NonFiniteState of the record point it was observing
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)

    def observe(state):
        if round(state.t / 1e-3) == at_step:
            np.float64(1e300) * np.float64(1e300)

    with pytest.raises(NonFiniteState, match=rf"^step {at_step} \(t = {t}\), "
                       r"substep observe: overflow encountered") as ei:
        run(params, pot, controls, init, g, T=0.005,
            scheme=SchemeConfig(dt=1e-3, eps=1e-3), observe=observe)
    assert ei.value.step == at_step and ei.value.substep == "observe"
    assert isinstance(ei.value.__cause__, FloatingPointError)


def test_limit_run_holds_v_at_zero_and_reports_substep_mu(monkeypatch):
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    params = replace(params, alpha=0.0)
    # a mu0_prime with nonzero mass, so mass_v[0] is not zero by accident
    init = replace(init, mu0_prime=FieldSpec("cosine_bump", value=0.05,
                                             amplitude=0.1))
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    states = []
    traj = run(params, pot, controls, init, g, T=0.01, scheme=scheme,
               observe=states.append)
    assert len(states) == 11
    mu0_prime = init.mu0_prime.build(g)
    np.testing.assert_array_equal(states[0].v, mu0_prime)
    for s in states[1:]:
        assert np.all(s.v == 0.0), s.t
    assert traj.mass_v[0] == g.integrate(mu0_prime) != 0.0
    assert np.all(traj.mass_v[1:] == 0.0)

    clean = stepper.step_mu

    def poisoned(state, *args):
        mu, v = clean(state, *args)
        if state.t > 0.0:  # from the second step on
            mu[3] = np.nan
        return mu, v

    monkeypatch.setattr(stepper, "step_mu", poisoned)
    with pytest.raises(NonFiniteState,
                       match=r"^step 2 \(t = 0.002\), substep mu: mu is "
                             r"non-finite in 1 of 16 cells") as ei:
        run(params, pot, controls, init, g, T=0.01, scheme=scheme)
    assert ei.value.step == 2 and ei.value.substep == "mu"


@np.errstate(over="ignore", invalid="ignore")  # the sums overflow or meet inf - inf
def test_require_finite_scans_only_a_non_finite_sum():
    # the sum overflows, yet every cell is finite
    stepper._require_finite("phi", np.array([1e308, 1e308]))
    for bad in (np.nan, np.inf, -np.inf):
        u = np.array([1.0, bad, 2.0, bad, 1e308, 1e308])
        with pytest.raises(NonFiniteState,
                           match=r"^xi is non-finite in 2 of 6 cells$"):
            stepper._require_finite("xi", u)
    with pytest.raises(NonFiniteState, match=r"^v is non-finite in 2 of 3 cells$"):
        stepper._require_finite("v", np.array([np.inf, 0.0, -np.inf]))
    # and so under the floating-point errors that run raises
    with np.errstate(over="raise", invalid="raise"):
        assert stepper._require_finite("phi", np.array([1e308, 1e308])) == np.inf
        with pytest.raises(NonFiniteState, match=r"^v is non-finite in 2 of 3 cells$"):
            stepper._require_finite("v", np.array([np.inf, 0.0, -np.inf]))


@pytest.mark.parametrize("case", ["1d-log", "2d-regular", "limit"])
def test_mass_series_are_the_integrals_bit_for_bit(case):
    # run() takes the mass series from its finiteness guard's sums: each
    # entry must be Grid.integrate of the field at that step, to the bit
    if case == "limit":  # alpha = 0, where v is held at 0
        args = ladder_limit(**{"time.T": 0.1})
    else:
        args = scenario(PREDICTOR_RUNS[case])
    params, pot, controls, init, g, T, scheme = args
    states = []
    traj = run(params, pot, controls, init, g, T, replace(scheme, record_every=1),
               observe=states.append)
    assert len(states) == len(traj.step_times) > 50
    for name in ("phi", "sigma", "v"):
        want = np.array([g.integrate(getattr(s, name)) for s in states])
        got = getattr(traj, f"mass_{name}")
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), name)


@pytest.mark.parametrize("case", ["1d-log", "2d-regular", "limit"])
def test_run_checks_shapes_once_not_per_step(case, monkeypatch):
    # run() checks its initial state against the grid; every later field is
    # one it made, so no step calls Grid.check again
    if case == "limit":
        params, pot, controls, init, g, T, scheme = ladder_limit(**{"time.T": 0.1})
    else:
        params, pot, controls, init, g, T, scheme = scenario(PREDICTOR_RUNS[case])
    calls = []
    check = Grid.check

    def counted(self, *fields):
        calls.append(1)
        return check(self, *fields)

    monkeypatch.setattr(Grid, "check", counted)
    counts = []
    for nsteps in (10, 20):
        calls.clear()
        run(params, pot, controls, init, g, nsteps * scheme.dt, scheme)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_scheme_builds_its_yosida_params_once():
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    assert scheme.yosida is scheme.yosida
    assert scheme.yosida == YosidaParams(1e-3)
    # the cached value leaves equality and hashing alone
    fresh = SchemeConfig(dt=1e-3, eps=1e-3)
    assert scheme == fresh and hash(scheme) == hash(fresh)
    other = replace(scheme, eps=1e-2)
    assert other.yosida is not scheme.yosida
    assert other.yosida == YosidaParams(1e-2)


def test_scheme_config_rejections():
    with pytest.raises(InvalidParams):
        SchemeConfig(dt=0.0, eps=1e-3)
    with pytest.raises(InvalidParams):
        SchemeConfig(dt=1e-3, eps=0.0)
    with pytest.raises(InvalidParams):
        SchemeConfig(dt=1e-3, eps=1e-3, record_every=0)
    # a negative cg_tol would run as relative tolerance |cg_tol|, and the
    # phase step's forcing term is floored at cg_tol
    for name in ("cg_tol", "newton_tol"):
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(InvalidParams, match=f"^{name} must be positive"):
                SchemeConfig(dt=1e-3, eps=1e-3, **{name: bad})
    with pytest.raises(InvalidParams, match="^newton_max_iter must be at least 1"):
        SchemeConfig(dt=1e-3, eps=1e-3, newton_max_iter=0)


@pytest.mark.parametrize("kind", ["logarithmic", "obstacle"])
def test_constrained_phase_stays_near_admissible_range(kind):
    eps = 1e-3
    init = InitialData(
        mu0=FieldSpec(), mu0_prime=FieldSpec(),
        phi0=FieldSpec("tanh_interface", lo=-0.9, hi=0.9, width=0.1),
        sigma0=FieldSpec("constant", value=0.5))
    params = ModelParams(alpha=0.1,
                         proliferation=ProliferationSpec("constant", p0=1.0))
    states = []
    run(params, SplitPotential(kind), Controls(), init, Grid(32),
        T=0.05, scheme=SchemeConfig(dt=1e-3, eps=eps), observe=states.append)
    assert len(states) == 51
    worst = max(float(np.max(np.abs(s.phi))) for s in states)
    # the relaxed constraint can overshoot the unit interval only at O(eps)
    assert worst <= 1.0 + 10 * eps


# -- the predictor-started phase Newton ---------------------------------------


def interface_state(kind, grid, scheme):
    init = InitialData(
        mu0=FieldSpec("cosine_bump", amplitude=0.2, mode=2), mu0_prime=FieldSpec(),
        phi0=FieldSpec("tanh_interface", lo=-0.9, hi=0.9, width=0.1),
        sigma0=FieldSpec("constant", value=0.5))
    return initial_state(ModelParams(), SplitPotential(kind), init, grid, scheme.yosida)


@pytest.mark.parametrize("kind", ["regular", "logarithmic"])
@pytest.mark.parametrize("start", ["phi_n", "close", "far", "outside"])
def test_step_phi_from_a_guess_reaches_the_cold_start_answer(kind, start):
    g = Grid(32)
    pot = SplitPotential(kind)
    params = ModelParams(alpha=0.1, tau=1.0)
    scheme = SchemeConfig(dt=1e-3, eps=1e-3)
    state = interface_state(kind, g, scheme)
    cold, xi_cold, cold_iters = step_phi(state, params, pot, scheme, g)
    guess = {
        "phi_n": state.phi,
        "close": cold + 1e-6 * np.random.default_rng(3).standard_normal(g.ncells),
        "far": -state.phi,
        # outside (-1, 1), where the logarithmic F1 is +infinity
        "outside": np.where(np.arange(g.ncells) % 2, 1.5, -1.25),
    }[start]
    kept = guess.copy()
    x, xi, iters = step_phi(state, params, pot, scheme, g, guess)
    np.testing.assert_array_equal(guess, kept)  # the guess is not written to
    if start == "phi_n":  # the default
        np.testing.assert_array_equal(x, cold)
        np.testing.assert_array_equal(xi, xi_cold)
        assert iters == cold_iters
    # tau/dt bounds the Jacobian from below, so a residual within
    # newton_tol puts x within newton_tol / (tau/dt) of the solution
    bound = scheme.newton_tol / (params.tau / scheme.dt)
    assert g.h_norm(x - cold) <= bound
    assert g.h_norm(xi - xi_cold) <= bound / scheme.eps
    if start == "close":
        assert iters < cold_iters


def scenario(text):
    sc = build_scenario(parse_config(text))
    return sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T, sc.scheme


# A logarithmic interface with a pulse and a sinusoid source (as
# criterion 7), and a 2-D regular run with ramp P (as the 2-D benchmark).
# The first steps of the 1-D interface, while its initial layer relaxes,
# still take two Newton iterations: 25 of 400 here.
PREDICTOR_RUNS = {
    "1d-log": (
        "grid.n = 32\ntime.T = 0.1\ntime.dt = 2.5e-4\nmodel.alpha = 0.1\n"
        "model.P.kind = constant\nmodel.P.p0 = 0.5\npotential.kind = logarithmic\n"
        "potential.epsilon = 1e-3\ninit.phi0.kind = tanh_interface\n"
        "init.sigma0.kind = constant\ninit.sigma0.value = 0.2\n"
        "controls.u1.kind = gaussian_pulse\ncontrols.u1.amplitude = 0.5\n"
        "controls.u1.center_x = 0.4\ncontrols.u1.width = 0.15\n"
        "controls.u1.t_off = 0.3\ncontrols.u2.kind = sinusoid\n"
        "controls.u2.amplitude = 0.3\ncontrols.u2.omega = 2.0\n"),
    "2d-regular": (
        "grid.dim = 2\ngrid.n = 16\ntime.T = 0.05\ntime.dt = 1e-3\n"
        "model.alpha = 0.1\nmodel.P.kind = ramp\nmodel.P.p0 = 1.0\n"
        "potential.kind = regular\ninit.phi0.kind = cosine_bump\n"
        "init.phi0.amplitude = 0.5\ninit.sigma0.kind = constant\n"
        "init.sigma0.value = 0.5\ncontrols.u1.kind = gaussian_pulse\n"
        "controls.u1.amplitude = 0.5\ncontrols.u1.center_x = 0.4\n"
        "controls.u1.width = 0.15\ncontrols.u1.t_off = 0.15\n"
        "controls.u2.kind = sinusoid\ncontrols.u2.amplitude = 0.3\n"
        "controls.u2.omega = 2.0\n"),
}


@pytest.mark.parametrize("name", sorted(PREDICTOR_RUNS))
def test_predictor_makes_most_steps_one_newton_iteration(name):
    args = scenario(PREDICTOR_RUNS[name])
    traj = run(*args)
    its = traj.newton_iters
    nsteps = len(traj.step_times) - 1
    assert its.shape == (nsteps,) and its.dtype.kind == "i"
    assert np.all(its >= 1)
    assert np.mean(its[2:] == 1) >= 0.9
    # step 1 starts from phi_0, as a cold start does
    params, pot, controls, init, g, T, scheme = args
    state = initial_state(params, pot, init, g, scheme.yosida)
    assert its[0] == step_phi(state, params, pot, scheme, g)[2]


def test_a_step_evaluates_the_proliferation_rate_once(monkeypatch):
    # the potential and the nutrient substep share P(phi') and chi (1 - phi')
    calls = []
    plain = ProliferationSpec.__call__

    def counted(self, phi):
        calls.append(1)
        return plain(self, phi)

    monkeypatch.setattr(ProliferationSpec, "__call__", counted)
    traj = run(*scenario(PREDICTOR_RUNS["2d-regular"]))
    assert len(traj.step_times) - 1 == 50
    assert len(calls) == 50


def test_phase_step_computes_the_curvature_once_per_newton_iteration(monkeypatch):
    # F1''_eps is read only by the Jacobian solve: the residuals of the line
    # search trials and of the accepted final iterate need none
    calls = {"curvature": 0, "resolvent": 0}

    def counted(name, f):
        def wrapped(*a, **k):
            calls[name] += 1
            return f(*a, **k)
        return wrapped

    monkeypatch.setattr(SplitPotential, "_curvature_at", counted(
        "curvature", SplitPotential._curvature_at))
    monkeypatch.setattr(SplitPotential, "_evaluate", counted(
        "resolvent", SplitPotential._evaluate))
    traj = run(*scenario(PREDICTOR_RUNS["1d-log"]))
    nsteps = len(traj.step_times) - 1
    assert calls["curvature"] == int(np.sum(traj.newton_iters)) < 1.1 * nsteps
    # one resolvent for xi at t = 0, then one per residual: at least two a step
    assert calls["resolvent"] >= 1 + 2 * nsteps


def four_point(p3, p2, p1, p0):
    """4 p3 - 6 p2 + 4 p1 - p0, from increments as the predictor takes it."""
    return p3 + (3.0 * ((p3 - p2) - (p2 - p1)) + (p1 - p0))


def test_predictor_extrapolates_the_accepted_phases(monkeypatch):
    params, regular, controls, init, g = source_free_setup(n=16, p0=1.0)
    plain, guesses, xi_guesses = stepper.step_phi, [], []

    def recorded(state, params, potential, scheme, grid, guess=None, **kw):
        guesses.append(guess)
        xi_guesses.append(kw.get("xi_guess"))
        return plain(state, params, potential, scheme, grid, guess, **kw)

    monkeypatch.setattr(stepper, "step_phi", recorded)
    for pot in (regular, SplitPotential.logarithmic()):
        for alpha in (params.alpha, 0.0):
            guesses.clear()
            xi_guesses.clear()
            states = []
            run(replace(params, alpha=alpha), pot, controls, init, g, T=0.005,
                scheme=SchemeConfig(dt=1e-3, eps=1e-3), observe=states.append)
            # the logarithmic resolvent starts from the selection xi that
            # the same coefficients predict; no other kind reads a hint
            fields = ["phi", "xi"] if pot.kind == "logarithmic" else ["phi"]
            if pot.kind != "logarithmic":
                assert xi_guesses == [None] * 5
            for name, got in zip(fields, (guesses, xi_guesses)):
                p0, p1, p2, p3, p4 = [getattr(s, name) for s in states[:5]]
                assert got[0] is None
                np.testing.assert_array_equal(got[1], p1 + (p1 - p0))
                np.testing.assert_array_equal(
                    got[2], p2 + (2.0 * (p2 - p1) - (p1 - p0)))
                np.testing.assert_array_equal(got[3], four_point(p3, p2, p1, p0))
                if alpha > 0.0:
                    np.testing.assert_array_equal(got[4], four_point(p4, p3, p2, p1))
                else:  # from step 5 the alpha = 0 start also follows a sawtooth
                    np.testing.assert_array_equal(
                        got[4], p4 + 2.0 * (p3 - p2) - (p1 - p0))


def test_predictor_changes_the_run_only_at_newton_tolerance():
    # the same run with every step started cold from phi_n: an alpha > 0
    # run, and the alpha = 0 benchmark ladder's limit run (its sawtooth start)
    cold_step = stepper.step_phi

    def cold(state, params, potential, scheme, grid, guess=None, xi_guess=None):
        # the selection predicted at the guess goes with it
        return cold_step(state, params, potential, scheme, grid)

    for args in (scenario(PREDICTOR_RUNS["1d-log"]), ladder_limit()):
        warm = run(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stepper, "step_phi", cold)
            ref = run(*args)
        g = args[4]
        assert np.sum(ref.newton_iters) > np.sum(warm.newton_iters)
        for name in ("phi", "mu", "sigma"):
            d = g.h_norm(getattr(warm.final, name) - getattr(ref.final, name))
            assert d <= 1e-9 * g.h_norm(getattr(ref.final, name)), name


def test_warm_resolvent_changes_the_run_only_at_its_tolerance():
    # the same logarithmic run with every entropy resolvent started cold
    args = scenario(PREDICTOR_RUNS["1d-log"])
    calls = {"cold": 0, "warm": 0, "slope": 0}

    def counted(name, f):
        def wrapped(*a):
            calls[name] += 1
            return f(*a)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name, f in [("cold", "_solve_entropy"), ("warm", "_entropy_near"),
                        ("slope", "_entropy_slope")]:
            mp.setattr(potentials, f, counted(name, getattr(potentials, f)))
        warm = run(*args)
    # only the initial state's xi is solved cold: every phase residual
    # starts warm and passes its check
    assert calls["cold"] == 1
    # started from the predicted selection, a warm call makes 1.38 loop
    # evaluations on average (1.01 on the linearised later residuals), plus
    # one for F1'_eps if it were evaluated apart
    assert calls["slope"] <= 2.6 * calls["warm"]
    # F1'_eps is the last loop evaluation's, not a further one (1.38 here)
    assert calls["slope"] <= 1.55 * calls["warm"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(potentials, "_entropy_near", lambda *a: None)
        ref = run(*args)
    g = args[4]
    np.testing.assert_array_equal(warm.newton_iters, ref.newton_iters)
    for name in ("phi", "mu", "sigma", "xi"):
        d = g.h_norm(getattr(warm.final, name) - getattr(ref.final, name))
        assert d <= 1e-9 * g.h_norm(getattr(ref.final, name)), name


# Work of the 1-D logarithmic run (400 steps) started from the four-point
# predictor and, in its entropy resolvent, from the predicted selection,
# measured with these starts (and with the three-point start and the
# linearisation at phi_n): 407 Newton iterations (425), 2.40 phase cosine
# solves per Newton iteration (2.65) and 1.38 entropy slope evaluations per
# warm resolvent call (1.51).  Steps 2-301 of this run are its initial
# relaxation, where the predicted start misses tol = 1e-12 by up to 2e-9
# and takes a second evaluation; the 2000-step benchmark run shares those
# 300 steps and makes 1.08 evaluations per call.
PREDICTED_WORK = {"newton": 425, "cosine_per_newton": 2.45, "slope_per_warm": 1.4}


def test_predicted_starts_cut_phase_and_resolvent_work():
    calls = {"warm": 0, "slope": 0}

    def counted(name, f):
        def wrapped(*a):
            calls[name] += 1
            return f(*a)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        counts = count_cg_iterations(mp)
        mp.setattr(potentials, "_entropy_near", counted(
            "warm", potentials._entropy_near))
        mp.setattr(potentials, "_entropy_slope", counted(
            "slope", potentials._entropy_slope))
        traj = run(*scenario(PREDICTOR_RUNS["1d-log"]))
    newton = int(np.sum(traj.newton_iters))
    assert newton <= PREDICTED_WORK["newton"]
    assert counts["phi"] <= PREDICTED_WORK["cosine_per_newton"] * newton
    assert calls["slope"] <= PREDICTED_WORK["slope_per_warm"] * calls["warm"]


@pytest.mark.parametrize("poison", ["nan", "outside"])
def test_poisoned_selection_prediction_falls_back(poison):
    # a predicted selection that is NaN, or that puts the start outside
    # (-1, 1), sends the first residual to the safeguarded solve and gives
    # the linearised start's step within the resolvent's tolerance
    params, pot, controls, init, g, T, scheme = scenario(PREDICTOR_RUNS["1d-log"])
    states = []
    run(params, pot, controls, init, g, 4 * scheme.dt, scheme,
        observe=states.append)
    state = states[-1]
    guess = 2.0 * state.phi - states[-2].phi
    eps = scheme.yosida.epsilon
    bad = (np.full_like(guess, np.nan) if poison == "nan"
           else (guess - 1.5 * np.sign(np.cos(np.arange(guess.size)))) / eps)
    cold = []
    with pytest.MonkeyPatch.context() as mp:
        plain = potentials._solve_entropy
        mp.setattr(potentials, "_solve_entropy",
                   lambda *a: cold.append(1) or plain(*a))
        want = step_phi(state, params, pot, scheme, g, guess)
        assert cold == []
        got = step_phi(state, params, pot, scheme, g, guess, xi_guess=bad)
        assert cold == [1]
    assert got[2] == want[2]
    tol = potentials.RESOLVENT_TOL
    assert np.max(np.abs(got[0] - want[0])) <= tol
    assert np.max(np.abs(got[1] - want[1])) <= tol / eps


def test_stalled_line_search_fails_with_step_and_residuals(monkeypatch):
    # an ascent direction: every trial raises the residual, however short
    params, pot, controls, init, g = source_free_setup(n=16, p0=1.0)
    solve = Grid.solve_shifted
    monkeypatch.setattr(Grid, "solve_shifted",
                        lambda self, *a: -solve(self, *a))
    residuals = []
    plain = g.h_norm

    def recorded(u):
        residuals.append(plain(u))
        return residuals[-1]

    monkeypatch.setattr(g, "h_norm", recorded)
    with pytest.raises(NewtonDivergence, match=r"^step 1 \(t = 0.001\), "
                       r"substep phi: phase line search stalled at step "
                       r"length 9.31e-10") as ei:
        run(params, pot, controls, init, g, T=0.01,
            scheme=SchemeConfig(dt=1e-3, eps=1e-3))
    assert ei.value.step == 1 and ei.value.substep == "phi"
    assert ei.value.iterations == 1
    # the residual before the step, and after the last trial (2^-30)
    assert ei.value.residual == residuals[-32]
    assert f"residual {residuals[-32]:.3e} before, {residuals[-1]:.3e} after" in str(
        ei.value)
    assert residuals[-1] > residuals[-32]


def count_cg_iterations(mp):
    """Count conjugate-gradient iterations (as the per-cell-shift solve
    returns them) of the phase Newton's solves and, apart, of every other
    substep's solves, and keep the tolerance of each phase solve."""
    counts = {"phi": 0, "other": 0, "phi_tols": []}
    in_phi = []
    plain_phi, plain_cg = stepper.step_phi, Grid._shifted_cg

    def step_phi(*args, **kwargs):
        in_phi.append(True)
        try:
            return plain_phi(*args, **kwargs)
        finally:
            in_phi.pop()

    def shifted_cg(self, shift, scale, rhs, tol):
        if in_phi:
            counts["phi_tols"].append(tol)
        x, iterations = plain_cg(self, shift, scale, rhs, tol)
        counts["phi" if in_phi else "other"] += iterations
        return x, iterations

    mp.setattr(stepper, "step_phi", step_phi)
    mp.setattr(Grid, "_shifted_cg", shifted_cg)
    return counts


# The least share of the phase CG iterations the forcing term must save.
# The 1-D run's Newton residuals mostly sit within a few decades of tol, so
# its corrections are solved to 1e-9..1e-7 in two iterations instead of
# three (1275 -> 1058).  The 2-D run's sit near 1e-3, where the forcing
# tolerance, about 1e-9, takes as many iterations as cg_tol (156 -> 154).
INEXACT_SAVING = {"1d-log": 0.15, "2d-regular": 0.0}


@pytest.mark.parametrize("name", sorted(PREDICTOR_RUNS))
def test_inexact_newton_changes_the_run_only_at_newton_tolerance(name):
    # the oracle solves every Newton correction to cg_tol
    args = scenario(PREDICTOR_RUNS[name])
    g = args[4]
    with pytest.MonkeyPatch.context() as mp:
        inexact_cg = count_cg_iterations(mp)
        inexact = run(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "GAMMA", 0.0)
        full_cg = count_cg_iterations(mp)
        full = run(*args)
    cg_tol = args[-1].cg_tol
    assert set(full_cg["phi_tols"]) == {cg_tol}
    # cg_tol is the floor of the forcing tolerance, which stays below GAMMA
    assert cg_tol == min(inexact_cg["phi_tols"])
    assert max(inexact_cg["phi_tols"]) < stepper.GAMMA
    np.testing.assert_array_equal(inexact.newton_iters, full.newton_iters)
    for f in ("phi", "mu", "sigma", "xi"):
        d = g.h_norm(getattr(inexact.final, f) - getattr(full.final, f))
        assert d <= 1e-9 * g.h_norm(getattr(full.final, f)), f
    assert inexact_cg["phi"] <= (1.0 - INEXACT_SAVING[name]) * full_cg["phi"]
    assert inexact_cg["other"] == full_cg["other"]
