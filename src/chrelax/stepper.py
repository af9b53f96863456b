"""Time integration of the relaxed tumour-growth system.

One step advances (mu, v, phi, sigma) by backward Euler substeps in the
order phi -> mu -> sigma, with sources sampled at the new time level and
the smooth potential part F2' lagged at the old phase:

  phase     tau (phi' - phi)/dt - lap phi' + F1'_eps(phi')
                = mu + chi sigma - F2'(phi)
  potential alpha (v' - v)/dt + (phi' - phi)/dt - lap mu' + P(phi') mu'
                = P(phi')(sigma + chi (1 - phi')) - h(phi') u1,
            with mu' = mu + dt v'  (alpha = 0: see ``run``)
  nutrient  (sigma' - sigma)/dt - lap sigma' + P(phi') sigma'
                = -chi lap phi' - P(phi')(chi (1 - phi') - mu') + u2

Every substep is a symmetric positive definite shifted-Laplacian solve
``(shift - scale lap) x = b`` by ``Grid.solve_shifted``:

  phase Newton Jacobian   shift = tau/dt + F1''_eps(phi'),  scale = 1
  potential               shift = alpha + dt^2 P(phi'),     scale = dt^2
  nutrient                shift = 1 + dt P(phi'),           scale = dt

The phase step is an inexact damped Newton iteration (``step_phi``)
started from an extrapolation of the accepted levels (``_extrapolate``).
The linear substeps are solved to cg_tol in increment form (unknown minus
its previous value), which keeps the absolute residual, and with it the
drift of the conserved quantities, far below the relative tolerance.

Integrating the potential substep over the box gives the discrete mass
identity

  alpha d/dt integral(v) + d/dt integral(phi)
      = integral(P(phi')(sigma + chi(1 - phi') - mu') - h(phi') u1),

exact up to the solve residual because the Laplacian integrates to zero
in flux form: with P = 0 and u1 = 0, alpha*integral(v) + integral(phi) is
conserved, and integral(sigma) likewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ChRelaxError,
    InvalidParams,
    NewtonDivergence,
    NonFiniteState,
    SchemeUnstable,
)
from .model import State, initial_state, validate
from .potentials import YosidaParams

# consecutive alpha = 0 steps whose phase increment grows and points against
# the previous one (cosine below -1/2) before run() raises SchemeUnstable
UNSTABLE_STEPS = 4

# forcing constant of the inexact phase Newton (see step_phi)
GAMMA = 0.01

# the most steps a run takes: run allocates about 40 bytes per step up front
# (three mass series, the Newton counts and the step times), 0.4 GB at most
MAX_STEPS = 10**7

EPS_MACH = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SchemeConfig:
    """Discretisation controls for one run.

    ``cg_tol`` is the relative CG tolerance of the linear substeps, in
    (0, 1), and the floor of the phase Newton's forcing tolerance (see
    ``step_phi``).
    """

    dt: float
    eps: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    cg_tol: float = 1e-10
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise InvalidParams(f"dt must be positive, got {self.dt}")
        if not self.eps > 0.0:
            raise InvalidParams(f"eps must be positive, got {self.eps}")
        if self.record_every < 1:
            raise InvalidParams("record_every must be at least 1")
        if not (self.newton_tol > 0.0 and math.isfinite(self.newton_tol)):
            raise InvalidParams(
                f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not 0.0 < self.cg_tol < 1.0:
            raise InvalidParams(
                f"cg_tol must be positive and below 1 (it is relative), got {self.cg_tol}")
        if self.newton_max_iter < 1:
            raise InvalidParams(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}")

    @cached_property
    def yosida(self):
        return YosidaParams(self.eps)


@dataclass
class Trajectory:
    """Output of one run: the initial and the final state (``snapshots``),
    the mass diagnostics of every step, and in ``newton_iters[n]`` the
    phase Newton iterations of step n + 1."""

    snapshots: list = field(default_factory=list)
    step_times: np.ndarray = None
    mass_phi: np.ndarray = None
    mass_sigma: np.ndarray = None
    mass_v: np.ndarray = None
    newton_iters: np.ndarray = None

    @property
    def final(self):
        return self.snapshots[-1]


def step_phi(state, params, potential, scheme, grid, guess=None, *, xi_guess=None):
    """Implicit phase update; returns (phi_next, xi_next, newton_iters).

    Solves tau (x - phi)/dt - lap x + F1'_eps(x) = g with
    g = mu + chi sigma - F2'(phi) by damped Newton from ``guess`` (default
    phi; F1'_eps is defined on all of R, so any finite guess will do),
    with the residual in the discrete L2 norm.  One resolvent evaluation
    per iterate gives the residual and xi, started from ``xi_guess`` (a
    prediction of F1'_eps(guess)) or xi at phi for the guess and from the
    current iterate for every later trial (``potentials._entropy_near``);
    F1''_eps is computed from it only where a correction is solved.

    The iteration stops at tol = max(newton_tol, floor), where the
    residual's roundoff floor eps_mach (tau/dt + 4 sum 1/h^2) |phi|_h is
    the rounding of an iterate amplified by tau/dt - lap.  A phi whose
    norm overflows leaves tol infinite and raises NonFiniteState.

    The Newton is inexact (Dembo, Eisenstat & Steihaug 1982): each
    correction is solved to the forcing tolerance

      eta = max(cg_tol, GAMMA * tol / |r|)

    relative to the residual r.  A correction is solved only while
    |r| > tol, so its linear residual, about GAMMA * tol, stays below what
    the stopping test can see.  A line search halves the step until the
    residual does not grow; one whose trials down to step length 2^-30 all
    fail raises NewtonDivergence, as does a residual above tol after
    newton_max_iter iterations.
    """
    dt, tau, phi = scheme.dt, params.tau, state.phi
    tau_dt = tau / dt
    yp = scheme.yosida
    evaluate, laplacian, h_norm = potential._evaluate, grid.laplacian, grid.h_norm
    g = state.mu + params.chi * state.sigma - potential.f2_prime(phi)
    floor = EPS_MACH * (tau_dt + grid.lap_bound) * h_norm(phi)
    tol = max(scheme.newton_tol, floor)
    if not math.isfinite(tol):
        raise NonFiniteState("phase step tolerance is not finite: the roundoff floor "
                             f"eps_mach (tau/dt + 4 sum 1/h^2) |phi|_h is {floor:.3g}")

    def residual(z, near):
        j, fp = evaluate(z, yp, near)  # J(z), F1'_eps(z)
        return tau * (z - phi) / dt - laplacian(z) + fp - g, j, fp

    x = np.asarray(phi if guess is None else guess, dtype=float)
    near = (phi, state.xi) if xi_guess is None else (x, xi_guess)
    r, j, fp = residual(x, near)
    rnorm = h_norm(r)
    for it in range(scheme.newton_max_iter):
        if rnorm <= tol:
            return x, fp, it
        eta = max(scheme.cg_tol, GAMMA * tol / rnorm)
        curv = potential._curvature_at(x, j, yp)
        delta = grid.solve_shifted(tau_dt + curv, 1.0, -r, eta)
        near = (x, fp)
        s = 1.0
        xn = x + delta  # the full step; x + s * delta once s is halved
        while True:
            rn, jn, fpn = residual(xn, near)
            rn_norm = h_norm(rn)
            if math.isfinite(rn_norm) and rn_norm <= rnorm:
                break
            if s <= 2.0**-30:
                raise NewtonDivergence(
                    f"phase line search stalled at step length {s:.3g}: residual "
                    f"{rnorm:.3e} before, {rn_norm:.3e} after",
                    residual=rnorm,
                    iterations=it + 1,
                )
            s *= 0.5
            xn = x + s * delta
        x, r, j, fp, rnorm = xn, rn, jn, fpn, rn_norm
    if rnorm <= tol:
        return x, fp, scheme.newton_max_iter
    raise NewtonDivergence(
        f"phase step did not reach newton_tol {scheme.newton_tol} (roundoff "
        f"floor {floor:.3g}) in {scheme.newton_max_iter} Newton iterations",
        residual=rnorm,
        iterations=scheme.newton_max_iter,
    )


def _extrapolate(now, incs, limit):
    """Newton start for the next step from the accepted level
    ``now`` = phi_n and the increments that led to it, newest first
    (``incs[0]`` = phi_n - phi_{n-1}); None on the first step.

    The start is 2 phi_n - phi_{n-1} at step 2, 3 phi_n - 3 phi_{n-1} +
    phi_{n-2} at step 3, and from step 4 on

      4 phi_n - 6 phi_{n-1} + 4 phi_{n-2} - phi_{n-3},

    exact on cubics in the step index.  An alpha = 0 run (``limit``)
    switches at step 5 to

      phi_n + 2 (phi_{n-1} - phi_{n-2}) - (phi_{n-3} - phi_{n-4}),

    also exact on (-1)^n and n (-1)^n, the period-2 sawtooth of the limit
    scheme (see ``run``).  Built from increments, the start is rounded
    about once, at the addition to ``now``.
    """
    k = len(incs)
    if k == 0:
        return None
    if k == 1:
        return now + incs[0]
    if k == 2:
        return now + (2.0 * incs[0] - incs[1])
    if k == 3 or not limit:
        return now + (3.0 * (incs[0] - incs[1]) + incs[2])
    # also follow the limit scheme's sawtooth
    return now + 2.0 * incs[1] - incs[3]


def _proliferation(state, phi_next, params):
    """(P(phi'), sigma + chi (1 - phi')), which the potential and the
    nutrient substeps both read; ``run`` evaluates them once per step."""
    return (params.proliferation.rate(phi_next),
            state.sigma + params.chi * (1.0 - phi_next))


def step_mu(state, phi_next, params, scheme, u1, grid, prolif):
    """Implicit potential update for any alpha >= 0; returns (mu_next, v_next).

    The unknown is the increment of v in the SPD system
    (alpha + dt^2 P) v' - dt^2 lap v' = alpha v - (phi' - phi)
        + dt lap mu + dt [P (sigma + chi(1 - phi') - mu) - h u1],
    with mu' = mu + dt v' (alpha = 0: see ``run``, and a P not bounded
    away from zero raises InvalidParams).  ``prolif`` is
    ``_proliferation(state, phi_next, params)``.
    """
    dt, alpha = scheme.dt, params.alpha
    if not alpha >= 0.0:
        raise InvalidParams(f"step_mu needs alpha >= 0, got {alpha}")
    P, drive = prolif
    if alpha == 0.0 and not np.min(P) > 0.0:
        raise InvalidParams(
            f"alpha = 0 potential step needs min P(phi) > 0, got {float(np.min(P))}")
    H = params.truncation(phi_next)
    mu_pred = state.mu + dt * state.v
    rhs = (
        -(phi_next - state.phi)
        + dt * grid.laplacian(mu_pred)
        + dt * (P * (drive - mu_pred) - H * u1)
    )
    dv = grid.solve_shifted(alpha + dt * dt * P, dt * dt, rhs, scheme.cg_tol)
    v_next = state.v + dv
    return state.mu + dt * v_next, v_next


# exists only for perfbench/tracer.py, which wraps this name at install
step_mu_limit = step_mu


def step_sigma(state, phi_next, mu_next, params, scheme, u2, grid, prolif):
    """Implicit nutrient update; returns sigma_next.

    Increment form of
    (1 + dt P) sigma' - dt lap sigma' = sigma + dt [-chi lap phi'
        - P (chi(1 - phi') - mu') + u2],
    with ``prolif`` as in ``step_mu``.
    """
    dt = scheme.dt
    P, drive = prolif
    rhs = dt * (
        grid.laplacian(state.sigma - params.chi * phi_next)
        - P * (drive - mu_next)
        + u2
    )
    dsig = grid.solve_shifted(1.0 + dt * P, dt, rhs, scheme.cg_tol)
    return state.sigma + dsig


def _unstable(params, phi_next, growth):
    tau_p = params.tau * float(np.min(params.proliferation.rate(phi_next)))
    raise SchemeUnstable(
        f"alpha = 0 limit scheme unstable: the phase increment grew by a factor "
        f"{growth:.3g} with reversed direction for {UNSTABLE_STEPS} steps in a "
        f"row at tau*min P = {tau_p:.3g} (each increment feeds back with a "
        f"factor of about -1/(tau P))"
    )


def _require_finite(name, u):
    # returns the sum that Grid.integrate takes; a non-finite cell makes the
    # sum non-finite, and a finite field whose sum overflows gets the full
    # scan and passes it
    total = float(np.add.reduce(u))
    if not math.isfinite(total):
        bad = int(np.count_nonzero(~np.isfinite(u)))
        if bad:
            raise NonFiniteState(f"{name} is non-finite in {bad} of {u.size} cells")
    return total


def step_count(T, dt):
    """The number of steps of size dt from t = 0 to the horizon T.

    Raises InvalidParams for a non-finite T / dt, for a T shorter than one
    step or longer than MAX_STEPS steps and for a T that is not an integer
    multiple of dt (to 1e-9 relative).
    """
    if not math.isfinite(T / dt):
        raise InvalidParams(f"horizon T = {T} is not a finite number of steps dt = {dt}")
    nsteps = int(round(T / dt))
    if nsteps < 1:
        raise InvalidParams(f"horizon T = {T} is shorter than one step dt = {dt}")
    if nsteps > MAX_STEPS:
        raise InvalidParams(f"horizon T = {T} is {T / dt:.3g} steps dt = {dt}, "
                            f"more than the {MAX_STEPS} a run may take")
    if abs(nsteps * dt - T) > 1e-9 * max(T, dt):
        raise InvalidParams(f"horizon T = {T} is not an integer multiple of dt = {dt}")
    return nsteps


def run(params, potential, controls, init, grid, T, scheme, observe=None):
    """Integrate from t = 0 to t = T; returns a Trajectory.

    T must be a whole number of steps (``step_count``).  The initial state
    is checked against the grid once (``Grid.check``); every later field
    is one the run made.  ``observe(state)``, when given, is called at
    t = 0, at every record_every-th step and at the final step, and must
    not modify the state.  Each phase step starts from ``_extrapolate`` of
    the accepted phases and, for the logarithmic kind, of the selections
    xi.

    A substep whose output is not finite, or whose solve fails, raises
    with the step, the substep (phi, mu or sigma) and the solver residual
    in its message and as ``step``/``substep`` attributes.  Identical
    inputs give bit-identical trajectories on one host, numpy build and
    SIMD dispatch, whatever the number of BLAS threads; across numpy's
    SIMD dispatch levels they agree within the bound of the committed
    solution fingerprint.

    alpha = 0 is the parabolic limit.  The potential step then solves dt
    times the stationary equation

      (-lap + P) mu' = P (sigma + chi (1 - phi')) - h u1 - (phi' - phi)/dt,

    and v is held at exactly 0 after every step (v at t = 0 is
    mu0_prime).  As the phase step lags mu, on smooth modes each phase
    increment feeds into the next with a factor of about -1/(tau P): the
    increments are smooth while tau P > 1, form a bounded period-2
    sawtooth at tau P = 1 and grow below it, so ``validate`` refuses
    tau * min P < 1.  The scheme keeps its sawtooth, and the limit's
    Newton start follows it.  Should the increments grow all the same,
    the run raises SchemeUnstable once they have grown and reversed
    direction for UNSTABLE_STEPS steps in a row.
    """
    problems = validate(params, potential, init, grid)
    if problems:
        raise InvalidParams("; ".join(problems))
    nsteps = step_count(T, scheme.dt)

    state = initial_state(init, potential, scheme.yosida, grid)
    grid.check(state.mu, state.v, state.phi, state.sigma, state.xi)
    traj = Trajectory()
    mass_phi = np.empty(nsteps + 1)
    mass_sigma = np.empty(nsteps + 1)
    mass_v = np.empty(nsteps + 1)
    traj.snapshots.append(state.copy())
    if observe is not None:
        observe(state)
    mass_phi[0] = grid.integrate(state.phi)
    mass_sigma[0] = grid.integrate(state.sigma)
    mass_v[0] = grid.integrate(state.v)

    newton_iters = np.zeros(nsteps, dtype=int)
    # the accepted phase increments, newest first (at most four), and for the
    # one kind whose resolvent reads a start hint (logarithmic) those of xi
    incs = []
    xi_incs = [] if potential.kind == "logarithmic" else None
    limit = params.alpha == 0.0
    # alpha = 0 guard: the norm of the last phase increment and the streak of
    # growing, reversed increments
    inc_norm_prev, streak = 0.0, 0
    for n in range(nsteps):
        t_next = (n + 1) * scheme.dt
        substep = "phi"
        guess = _extrapolate(state.phi, incs, limit)
        xi_guess = None if xi_incs is None else _extrapolate(state.xi, xi_incs, limit)
        try:
            u1 = controls.u1.sample(t_next, grid)
            u2 = controls.u2.sample(t_next, grid)
            phi_next, xi_next, newton_iters[n] = step_phi(
                state, params, potential, scheme, grid, guess, xi_guess=xi_guess)
            sum_phi = _require_finite("phi", phi_next)
            _require_finite("xi", xi_next)
            inc = phi_next - state.phi
            if limit:
                inc_norm = float(np.sqrt(np.dot(inc, inc)))
                if incs and inc_norm > inc_norm_prev and (
                        np.dot(inc, incs[0]) < -0.5 * inc_norm * inc_norm_prev):
                    streak += 1
                else:
                    streak = 0
                if streak == UNSTABLE_STEPS:
                    _unstable(params, phi_next, inc_norm / inc_norm_prev)
                inc_norm_prev = inc_norm
            substep = "mu"
            prolif = _proliferation(state, phi_next, params)
            mu_next, v_next = step_mu(state, phi_next, params, scheme, u1, grid,
                                      prolif)
            if limit:
                v_next = np.zeros(grid.ncells)
            _require_finite("mu", mu_next)
            sum_v = _require_finite("v", v_next)
            substep = "sigma"
            sigma_next = step_sigma(state, phi_next, mu_next, params, scheme, u2,
                                    grid, prolif)
            sum_sigma = _require_finite("sigma", sigma_next)
        except ChRelaxError as e:
            head = e.args[0] if e.args else e.__class__.__name__
            residual = getattr(e, "residual", None)
            tail = "" if residual is None else f" (residual {residual:.3e})"
            e.args = (f"step {n + 1} (t = {t_next:.6g}), substep {substep}: "
                      f"{head}{tail}",) + e.args[1:]
            e.step, e.substep = n + 1, substep
            raise
        incs = [inc] + incs[:3]
        if xi_incs is not None:
            xi_incs = [xi_next - state.xi] + xi_incs[:3]
        state = State(mu=mu_next, v=v_next, phi=phi_next, sigma=sigma_next,
                      xi=xi_next, t=t_next)
        mass_phi[n + 1] = grid.cell_volume * sum_phi
        mass_sigma[n + 1] = grid.cell_volume * sum_sigma
        mass_v[n + 1] = grid.cell_volume * sum_v
        if observe is not None and (
                (n + 1) % scheme.record_every == 0 or n + 1 == nsteps):
            observe(state)

    traj.snapshots.append(state)
    traj.step_times = scheme.dt * np.arange(nsteps + 1)
    traj.mass_phi = mass_phi
    traj.mass_sigma = mass_sigma
    traj.mass_v = mass_v
    traj.newton_iters = newton_iters
    return traj
