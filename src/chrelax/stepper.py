"""Time integration of the relaxed tumour-growth system.

One step advances (mu, v, phi, sigma) by backward Euler substeps in the
order phi -> mu -> sigma, with sources sampled at the new time level and
the smooth potential part F2' lagged at the old phase:

  phase     tau (phi' - phi)/dt - lap phi' + F1'_eps(phi')
                = mu + chi sigma - F2'(phi)
  potential alpha (v' - v)/dt + (phi' - phi)/dt - lap mu' + P(phi') mu'
                = P(phi')(sigma + chi (1 - phi')) - h(phi') u1,
            with mu' = mu + dt v'  (for alpha = 0 the inertial term
            drops out, mu' solves the stationary equation and v stays 0)
  nutrient  (sigma' - sigma)/dt - lap sigma' + P(phi') sigma'
                = -chi lap phi' - P(phi')(chi (1 - phi') - mu') + u2

Every substep is a symmetric positive definite shifted-Laplacian solve
``(shift - scale lap) x = b``, done by ``Grid.solve_shifted``:

  phase Newton Jacobian   shift = tau/dt + F1''_eps(phi'),  scale = 1
  potential               shift = alpha + dt^2 P(phi'),     scale = dt^2
  nutrient                shift = 1 + dt P(phi'),           scale = dt

The phase step wraps its solve in a damped Newton iteration, started from
an extrapolation of the accepted phase levels (``_extrapolate``): phi_0
at step 1, 2 phi_1 - phi_0 at step 2, 3 phi_2 - 3 phi_1 + phi_0 at step
3, and from step 4 on

  4 phi_n - 6 phi_{n-1} + 4 phi_{n-2} - phi_{n-3},

which is exact on cubics in the step index.  (A five-point start, exact
on quartics, amplifies roundoff and is not used; CHANGES.md records the
counts.)  An alpha = 0 run switches at step 5 to

  phi_n + 2 (phi_{n-1} - phi_{n-2}) - (phi_{n-3} - phi_{n-4}),

which is also exact on (-1)^n and n (-1)^n: it follows the period-2
sawtooth of the limit scheme (see ``run``) as well as the smooth trend.
From there most steps take one Newton iteration, and the stopping test
is the one of a cold start.  For the logarithmic kind the same
coefficients extrapolate the accepted selections xi, and the first
residual's resolvent starts from x0 = guess - eps xi_pred (see
``step_phi``).  The Newton is inexact: each correction is solved to the
forcing tolerance

  eta = max(cg_tol, GAMMA * tol / |r|),   GAMMA = 0.01,

relative to the current residual r, with tol the stopping tolerance (see
``step_phi``).  A constant shift is solved exactly by the cosine
transform.  A per-cell shift is solved iteratively, preconditioned with
the cosine solve at mean(shift), by Richardson sweeps or conjugate
gradients (``Grid._shifted_cg`` states the rule).  From the four-point
start the first residual lies close enough to tol that eta exceeds the
Richardson spread, so that a correction can take a single cosine solve
(CHANGES.md records how many do).  The linear substeps are solved to cg_tol,
in increment form (unknown minus its previous value), which keeps the
absolute residual, and with it the drift of the conserved quantities,
far below the relative tolerance.

A step of one Newton iteration, as most are, does 2 resolvent evaluations
and 1 curvature F1''_eps (one per Newton iteration: the final iterate's
residual needs none), 1 per-cell phase solve (a per-cell P adds one per
other substep), 4 Laplacians (plus one per CG iteration, on a shift too
wide for Richardson sweeps) and 5 field sums (phi, xi, mu, v, sigma) that serve both the
non-finite guard and the mass series.  P(phi') and sigma + chi (1 - phi'),
which the potential and the nutrient substeps share, are evaluated once.

Integrating the potential substep over the box gives the discrete mass
identity

  alpha d/dt integral(v) + d/dt integral(phi)
      = integral(P(phi')(sigma + chi(1 - phi') - mu') - h(phi') u1),

exact up to the CG residual because the Laplacian integrates to zero in
flux form.  With P = 0 and u1 = 0 the quantity alpha*integral(v) +
integral(phi) is conserved, and integral(sigma) likewise; the acceptance
suite checks both to 1e-8 over full runs.
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

EPS_MACH = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SchemeConfig:
    """Discretisation controls for one run.

    ``cg_tol`` is the CG tolerance of the linear substeps and the floor of
    the phase Newton's forcing tolerance (see ``step_phi``).
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
        for name in ("newton_tol", "cg_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidParams(f"{name} must be positive and finite, got {value}")
        if self.newton_max_iter < 1:
            raise InvalidParams(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}")

    @cached_property
    def yosida(self):
        return YosidaParams(self.eps)


@dataclass
class Trajectory:
    """Output of one run.

    ``snapshots`` holds the initial and the final state; the states at
    the record points reach the caller only through ``run(observe=...)``.
    The mass diagnostics cover every step, and ``newton_iters[n]`` counts
    the phase Newton iterations of step n + 1.
    """

    snapshots: list = field(default_factory=list)
    step_times: np.ndarray = None
    mass_phi: np.ndarray = None
    mass_sigma: np.ndarray = None
    mass_v: np.ndarray = None
    newton_iters: np.ndarray = None  # phase Newton iterations of each step

    @property
    def final(self):
        return self.snapshots[-1]


def step_phi(state, params, potential, scheme, grid, guess=None, *, xi_guess=None):
    """Implicit phase update; returns (phi_next, xi_next, newton_iters).

    Solves tau (x - phi)/dt - lap x + F1'_eps(x) = g with
    g = mu + chi sigma - F2'(phi) by damped Newton from ``guess``
    (default: phi itself); the residual is measured in the discrete L2
    norm.  One resolvent evaluation per iterate gives the residual and xi.
    For the guess it is started from ``xi_guess``, a prediction of
    F1'_eps(guess), when one is given (``run`` gives one for the
    logarithmic kind), and else from the one at phi; every trial after
    that is started from the one at the current Newton iterate.  A poor or
    non-finite ``xi_guess`` costs the resolvent its safeguarded solve, not
    accuracy (see the ``potentials`` module docstring).  The Jacobian
    curvature F1''_eps is computed from that resolvent only at an iterate
    whose correction is solved, once per Newton iteration.  F1'_eps is
    defined on all of R, so any finite guess will do, also one outside the
    domain of F1.  A line search whose trials down to step length 2^-30
    all fail to lower the residual raises NewtonDivergence.

    The iteration stops at tol = max(newton_tol, the residual's roundoff
    floor).  Every iterate is rounded to the nearest double,
    and tau/dt - lap amplifies that rounding by up to tau/dt + 4 sum 1/h^2.
    The floor is eps_mach (tau/dt + 4 sum 1/h^2) |phi|_h; on 1-D and 2-D
    runs with both potentials the residual stalled at 0.12-0.20 of it.

    Each correction is solved to the forcing tolerance
    eta = max(cg_tol, GAMMA * tol / |r|) relative to the residual r
    (inexact Newton; Dembo, Eisenstat & Steihaug 1982), not to cg_tol: the
    correction's linear residual, about GAMMA * tol, stays below what the
    stopping test can see.  A correction is solved only while |r| > tol, so
    GAMMA * tol / |r| stays below GAMMA.  The stopping test is unchanged,
    and on the runs measured so is every step's Newton count.
    """
    dt, tau = scheme.dt, params.tau
    yp = scheme.yosida
    g = state.mu + params.chi * state.sigma - potential.f2_prime(state.phi)
    op_scale = tau / dt + sum(4.0 / (h * h) for h in grid.h)
    floor = EPS_MACH * op_scale * grid.h_norm(state.phi)
    tol = max(scheme.newton_tol, floor)

    def residual(z, near):
        j, fp = potential._root_and_prime(z, yp, near)  # J(z), F1'_eps(z)
        return tau * (z - state.phi) / dt - grid.laplacian(z) + fp - g, j, fp

    x = np.asarray(state.phi if guess is None else guess, dtype=float)
    near = (state.phi, state.xi) if xi_guess is None else (x, xi_guess)
    r, j, fp = residual(x, near)
    rnorm = grid.h_norm(r)
    for it in range(scheme.newton_max_iter):
        if rnorm <= tol:
            return x, fp, it
        eta = max(scheme.cg_tol, GAMMA * tol / rnorm)
        curv = potential._curvature_at(x, j, yp)
        delta = grid.solve_shifted(tau / dt + curv, 1.0, -r, eta)
        near = (x, fp)
        s = 1.0
        while True:
            xn = x + s * delta
            rn, jn, fpn = residual(xn, near)
            rn_norm = grid.h_norm(rn)
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
    """Newton start for the next step from the accepted level ``now`` and
    the increments that led to it, newest first (``incs[0]`` = ``now``
    minus the level before), or None on the first step.

    Takes two levels at step 2, three at step 3 and four from step 4 on,
    and is exact on polynomials in the step index of one degree less.  An
    alpha = 0 run (``limit``) switches to the sawtooth start at step 5 (see
    the module docstring).  Built from increments, the start is rounded
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


def step_mu(state, phi_next, params, scheme, u1, grid, prolif=None):
    """Implicit potential update for any alpha >= 0; returns (mu_next, v_next).

    The unknown is the increment of v in the SPD system
    (alpha + dt^2 P) v' - dt^2 lap v' = alpha v - (phi' - phi)
        + dt lap mu + dt [P (sigma + chi(1 - phi') - mu) - h u1],
    with mu' = mu + dt v'.  At alpha = 0 this is dt times the stationary
    equation (-lap + P) mu' = P (sigma + chi(1 - phi')) - h u1
    - (phi' - phi)/dt, so mu' does not depend on v; P must then be bounded
    away from zero or the operator degenerates on constants.  ``prolif``
    is ``_proliferation(state, phi_next, params)``, evaluated here when not
    given.
    """
    dt, alpha = scheme.dt, params.alpha
    if not alpha >= 0.0:
        raise InvalidParams(f"step_mu needs alpha >= 0, got {alpha}")
    P, drive = _proliferation(state, phi_next, params) if prolif is None else prolif
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


# exists only for perfbench/tracer.py, which wraps this name at install;
# ROADMAP item 1 deletes it
step_mu_limit = step_mu


def step_sigma(state, phi_next, mu_next, params, scheme, u2, grid, prolif=None):
    """Implicit nutrient update; returns sigma_next.

    Increment form of
    (1 + dt P) sigma' - dt lap sigma' = sigma + dt [-chi lap phi'
        - P (chi(1 - phi') - mu') + u2],
    with ``prolif`` as in ``step_mu``.
    """
    dt = scheme.dt
    P, drive = _proliferation(state, phi_next, params) if prolif is None else prolif
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


def _require_finite(**fields):
    # returns the sums that Grid.integrate takes; a non-finite cell makes the
    # sum non-finite, and a finite field whose sum overflows gets the full
    # scan and passes it
    sums = []
    for name, u in fields.items():
        sums.append(float(np.add.reduce(u)))
        if not math.isfinite(sums[-1]):
            bad = int(np.count_nonzero(~np.isfinite(u)))
            if bad:
                raise NonFiniteState(
                    f"{name} is non-finite in {bad} of {u.size} cells")
    return sums


def run(params, potential, controls, init, grid, T, scheme, observe=None):
    """Integrate from t = 0 to t = T; returns a Trajectory.

    T must be an integer number of steps.  Each substep's output is checked
    for non-finite values; substep failures propagate with the step, the
    substep (phi, mu or sigma) and the solver residual in the message and
    as ``step``/``substep`` attributes.  The run is deterministic:
    identical inputs produce bit-identical trajectories on one host, numpy
    build and SIMD dispatch, whatever the number of BLAS threads; across
    numpy's SIMD dispatch levels they agree within the bound of the
    committed solution fingerprint, not bit for bit.

    The Trajectory keeps only the initial and the final state.  A caller
    that needs the record points passes ``observe``: ``observe(state)``
    is called at t = 0, at every record_every-th step and at the final
    step, and must not modify the state.

    Each phase step starts from the extrapolated phase (see the module
    docstring) and, for the logarithmic kind, from the selection xi
    extrapolated with the same coefficients; the other kinds keep no xi
    increments.

    An alpha = 0 run is the parabolic limit: ``step_mu`` solves the
    stationary potential equation, and v is held at exactly 0 after every
    step (v at t = 0 is mu0_prime).  The phase step lags mu, and the
    potential step sets mu' from -(phi' - phi)/(dt P), so on smooth modes
    each phase increment feeds into the next with a factor of about
    -1/(tau P): the limit scheme is smooth only while tau P stays well
    above 1.  At tau P near 1 they form a bounded period-2 sawtooth.  The
    alpha = 0 phase Newton starts from an extrapolation that follows that
    sawtooth as well as the smooth trend, so that such a step can end
    after one Newton iteration.  The start moves only the Newton's first
    iterate: the scheme, phi -> mu -> sigma as the paper states it, and
    with it the sawtooth, stay as they are.  Where the increments grow
    instead (tau P = 0.5 doubles them and flips their sign at every
    step), the run raises SchemeUnstable once its phase increments have
    grown and reversed direction for UNSTABLE_STEPS steps in a row,
    instead of letting them grow until the resolvent fails.  CHANGES.md
    records the iteration counts and failing steps measured on the
    benchmark configs.
    """
    problems = validate(params, potential, init, controls, grid)
    if problems:
        raise InvalidParams("; ".join(problems))
    nsteps = int(round(T / scheme.dt))
    if nsteps < 1 or abs(nsteps * scheme.dt - T) > 1e-9 * max(T, scheme.dt):
        raise InvalidParams(
            f"horizon T = {T} is not an integer multiple of dt = {scheme.dt}"
        )

    state = initial_state(init, potential, scheme.yosida, grid)
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
            sum_phi, _ = _require_finite(phi=phi_next, xi=xi_next)
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
                v_next = np.zeros_like(mu_next)
            _, sum_v = _require_finite(mu=mu_next, v=v_next)
            substep = "sigma"
            sigma_next = step_sigma(state, phi_next, mu_next, params, scheme, u2,
                                    grid, prolif)
            [sum_sigma] = _require_finite(sigma=sigma_next)
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
