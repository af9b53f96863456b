"""Verification studies over the solver.

Each study takes a parsed Config, runs the solver over a parameter ladder
and returns a StudyReport carrying the measured table, an optional rate
fit and named pass/fail verdicts.  Reports are pure functions of the
config, with rows sorted by the ladder parameter (descending).

A ladder's reference run (the alpha = 0 limit, the unperturbed run, an eps
rung) fills a ``norms.ReferenceSeries``, and each run compared with it
streams into a ``norms.CompositeStream``, so a study holds one reference
stack at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import build_scenario, control_spec, default_config
from .errors import InvalidParams
from .grid import Grid
from .model import Controls
from .norms import (
    CompositeStream,
    ReferenceSeries,
    alpha_error,
    contdep_lhs,
    contdep_rhs,
    fit_rate,
)
from .potentials import SplitPotential, YosidaParams
from .stepper import run, step_count

MONOTONE_SLACK = 1e-12  # relative slack when checking nonincreasing ladders
MONOTONE_FLOOR = 1e-13  # absolute floor; increases at roundoff level are ties


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    threshold: str
    observed: float


@dataclass
class StudyReport:
    study: str
    digest: str
    columns: list
    rows: list
    fit: object = None
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts)

    def summary(self):
        parts = [f"{self.study}: {'pass' if self.passed else 'FAIL'}"]
        if self.fit is not None:
            parts.append(f"slope={self.fit.slope:.3f}")
        for v in self.verdicts:
            mark = "ok" if v.passed else "FAIL"
            parts.append(f"{v.name}={mark}")
        return " ".join(parts)


def _run_scenario(sc, observe=None, **changes):
    """Run the scenario with the fields named in ``changes`` replaced."""
    sc = replace(sc, **changes)
    return run(sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T,
               sc.scheme, observe=observe)


def _reference(sc):
    """An empty ReferenceSeries on the scenario's record schedule."""
    return ReferenceSeries(sc.grid, sc.scheme.dt, sc.scheme.record_every,
                           step_count(sc.T, sc.scheme.dt))


def _stream_against(sc, ref, **changes):
    """Run the scenario with ``changes`` against a filled reference; returns
    the CompositeStream norms and the run's Trajectory."""
    stream = CompositeStream(ref)
    traj = _run_scenario(sc, observe=stream, **changes)
    return stream.finish(), traj


def _monotone_verdict(name, values):
    """Verdict ``name`` that ``values`` do not increase beyond roundoff: its
    observed value is the largest relative increase between neighbours."""
    worst = 0.0
    for a, b in zip(values, values[1:]):
        if b - a > MONOTONE_FLOOR:
            worst = max(worst, (b - a) / max(abs(a), abs(b), 1e-300))
    return Verdict(name, worst <= MONOTONE_SLACK,
                   f"relative increase <= {MONOTONE_SLACK}", worst)


def _ladder(cfg, key):
    """The positive, finite ladder under ``key``, in descending order, with
    no rung repeated: a study compares neighbouring rungs by their ratio."""
    ladder = sorted((float(x) for x in cfg[key]), reverse=True)
    if not ladder or not all(0.0 < x < math.inf for x in ladder):
        raise InvalidParams(f"{key} must be a nonempty positive ladder of finite rungs")
    for a, b in zip(ladder, ladder[1:]):
        if a == b:
            raise InvalidParams(f"{key} repeats the rung {a:g}")
    return ladder


def sweep_alpha(cfg):
    """Vanishing-inertia convergence: run an alpha ladder against the
    alpha = 0 limit and fit the decay rate of the error composite.  The
    limit run comes first, so a P that ``validate`` refuses at alpha = 0
    fails the study before any rung runs.
    """
    sc = build_scenario(cfg)
    alphas = _ladder(cfg, "study.alphas")

    limit = _reference(sc)
    runs = [("limit", _run_scenario(sc, params=replace(sc.params, alpha=0.0),
                                    observe=limit))]
    rows = []
    for a in alphas:
        n, traj = _stream_against(sc, limit, params=replace(sc.params, alpha=a))
        runs.append((f"alpha={a:g}", traj))
        rows.append((a, *alpha_error(n, a)))
    fit = fit_rate([(r[0], r[-1]) for r in rows])
    verdicts = [
        _monotone_verdict("composite_nonincreasing", [r[-1] for r in rows]),
        Verdict("rate_slope", fit.slope >= 0.24, ">= 0.24", fit.slope),
    ]
    return StudyReport(
        study="sweep-alpha",
        digest=cfg.digest(),
        columns=["alpha", "err_mu_weighted", "err_conv_mu_linfV", "err_phi_linfH",
                 "err_phi_l2V", "err_sigma_l2H", "err_conv_sigma_linfV", "composite"],
        rows=rows,
        fit=fit,
        verdicts=verdicts,
        notes=["newton iterations (total/max per step): " + ", ".join(
            f"{name} {int(t.newton_iters.sum())}/{int(t.newton_iters.max())}"
            for name, t in runs), _local_slopes(rows)],
    )


def _local_slopes(rows):
    """The note of the slopes of log composite against log alpha between
    neighbouring rungs, coarse to fine: where they settle is where the
    ladder's asymptotic regime starts, which the global fit blurs."""
    slopes = [
        f"{a:g}-{b:g} {math.log(c / d) / math.log(a / b):.3f}" if c > 0 and d > 0
        else f"{a:g}-{b:g} n/a"
        for (a, *_, c), (b, *_, d) in zip(rows, rows[1:])]
    return "local slopes between neighbouring rungs: " + (", ".join(slopes) or "none")


def sweep_eps(cfg):
    """Yosida self-consistency: halve the regularisation weight at fixed
    alpha > 0 and track the Cauchy differences d(eps) = |w_eps - w_eps/2|
    in the sup-in-time discrete L2 norm for phi, mu and sigma."""
    sc = build_scenario(cfg)
    if not sc.params.alpha > 0.0:
        raise InvalidParams("the eps sweep compares runs at a fixed alpha > 0")
    ladder = _ladder(cfg, "study.epsilons")

    def cauchy_row(e):
        # the rung's run fills its reference; its eps/2 run streams against it
        ref = _reference(sc)
        _run_scenario(sc, scheme=replace(sc.scheme, eps=e), observe=ref)
        n, _ = _stream_against(sc, ref, scheme=replace(sc.scheme, eps=0.5 * e))
        return (e, n["dphi"].linf_h, n["dmu"].linf_h, n["dsigma"].linf_h,
                float(np.max(np.abs(ref.rows[:, 1]))))

    rows = [cauchy_row(e) for e in ladder]

    verdicts = [_monotone_verdict(f"{name}_nonincreasing", [r[j] for r in rows])
                for j, name in ((1, "d_phi"), (2, "d_mu"), (3, "d_sigma"))]
    return StudyReport(
        study="sweep-eps", digest=cfg.digest(),
        columns=["epsilon", "d_phi", "d_mu", "d_sigma", "max_abs_phi"],
        rows=rows, verdicts=verdicts,
    )


@dataclass(frozen=True)
class _ScaledBump:
    """Control plus delta times a perturbation, for the dependence study."""

    base: object
    bump: object
    delta: float

    def sample(self, t, grid):
        return self.base.sample(t, grid) + self.delta * self.bump.sample(t, grid)


def contdep(cfg):
    """Continuous dependence on the controls: scale one perturbation pair
    down a delta ladder and compare the trajectory distance against the
    control distance; their ratio should stay within a fixed band."""
    sc = build_scenario(cfg)
    bump1 = control_spec(cfg, "study.perturb_u1")
    bump2 = control_spec(cfg, "study.perturb_u2")
    if bump1.kind == "zero" and bump2.kind == "zero":
        raise InvalidParams(
            "the dependence study needs a nonzero control perturbation; set "
            "study.perturb_u1.* or study.perturb_u2.*"
        )
    deltas = _ladder(cfg, "study.deltas")

    base = _reference(sc)
    _run_scenario(sc, observe=base)
    nsteps = step_count(sc.T, sc.scheme.dt)

    def perturbed(delta):
        return Controls(
            u1=_ScaledBump(sc.controls.u1, bump1, delta),
            u2=_ScaledBump(sc.controls.u2, bump2, delta),
        )

    rows = []
    for d in deltas:
        lhs = contdep_lhs(_stream_against(sc, base, controls=perturbed(d))[0])
        rhs = contdep_rhs(sc.grid, sc.scheme.dt, nsteps, perturbed(d), sc.controls)
        if rhs == 0.0:
            raise InvalidParams(
                "control perturbation vanishes on the sampling schedule; the "
                "dependence ratio is undefined"
            )
        rows.append((d, lhs, rhs, lhs / rhs))
    if not any(r[1] for r in rows):
        raise InvalidParams(
            "the control perturbation leaves the solution unchanged on every "
            "rung; the dependence ratio is undefined"
        )
    ratios = [r[3] for r in rows]
    # a rung whose perturbation changes nothing makes the spread unbounded
    spread = max(ratios) / min(ratios) if min(ratios) > 0.0 else math.inf
    verdicts = [
        Verdict("ratio_spread", spread <= 2.0, "<= 2", spread),
        _monotone_verdict("lhs_decreases", [r[1] for r in rows]),
    ]
    return StudyReport(
        study="contdep", digest=cfg.digest(),
        columns=["delta", "lhs", "rhs", "ratio"],
        rows=rows, verdicts=verdicts,
    )


class _PhaseRange:
    """Running min and max of phi and sup of |xi| over a run's record
    points."""

    def __init__(self):
        self.r_min, self.r_max, self.xi_sup = np.inf, -np.inf, 0.0

    def __call__(self, state):
        self.r_min = min(self.r_min, float(np.min(state.phi)))
        self.r_max = max(self.r_max, float(np.max(state.phi)))
        self.xi_sup = max(self.xi_sup, float(np.max(np.abs(state.xi))))


def separation(cfg):
    """Strict separation of the logarithmic phase field from +-1.

    Runs the configured scenario, reports the phase range, the sup of the
    selection xi and the distance (margin) to the obstacle values, then
    repeats with eps halved: a genuinely separated solution keeps its
    margin (within 10 percent) and its xi sup (within 5 percent growth)
    under the refinement.
    """
    sc = build_scenario(cfg)
    if sc.potential.kind != "logarithmic":
        raise InvalidParams(
            "the separation study applies to the logarithmic potential only, "
            f"got {sc.potential.kind!r}"
        )

    def measure(eps):
        # the row (r_min, r_max, xi_sup, margin, epsilon) of one run
        seen = _PhaseRange()
        _run_scenario(sc, scheme=replace(sc.scheme, eps=eps), observe=seen)
        return (seen.r_min, seen.r_max, seen.xi_sup,
                min(1.0 + seen.r_min, 1.0 - seen.r_max), eps)

    rows = [measure(sc.scheme.eps), measure(0.5 * sc.scheme.eps)]
    (_, _, xi_sup, margin, _), (_, _, xi_sup_half, margin_half, _) = rows
    margin_shift = abs(margin_half - margin) / max(margin, 1e-300)
    xi_growth = (xi_sup_half - xi_sup) / max(xi_sup, 1e-300)
    verdicts = [
        Verdict("margin", margin >= 1e-3, ">= 1e-3", margin),
        Verdict("margin_stable", margin_shift <= 0.10, "<= 0.10", margin_shift),
        Verdict("xi_sup_stable", xi_growth <= 0.05, "<= 0.05", xi_growth),
    ]
    return StudyReport(
        study="separation", digest=cfg.digest(),
        columns=["r_min", "r_max", "xi_sup", "margin", "epsilon"],
        rows=rows, verdicts=verdicts,
    )


# -- invariant battery -----------------------------------------------------


def _conservation_config(cfg):
    """Conservation scenario (P = 0, no sources, chi = 1) at the solver
    tolerances of the caller's config."""
    return default_config().with_updates({
        "grid.n": [64],
        "time.T": 0.25,
        "time.dt": 1e-3,
        "potential.kind": "regular",
        "model.P.kind": "constant",
        "model.P.p0": 0.0,
        "model.chi": 1.0,
        "init.phi0.kind": "cosine_bump",
        "init.phi0.amplitude": 0.5,
        "init.phi0.mode": 1,
        "init.mu0.kind": "cosine_bump",
        "init.mu0.amplitude": 0.2,
        "init.mu0.mode": 2,
        "init.mu0_prime.kind": "cosine_bump",
        "init.mu0_prime.amplitude": 0.1,
        "init.mu0_prime.mode": 1,
        "init.sigma0.kind": "cosine_bump",
        "init.sigma0.amplitude": 0.3,
        "init.sigma0.mode": 1,
        "solver.cg_tol": cfg["solver.cg_tol"],
        "solver.newton_tol": cfg["solver.newton_tol"],
        "solver.newton_max_iter": cfg["solver.newton_max_iter"],
    })


def conservation_drift(cfg):
    """Largest drift of alpha*integral(v) + integral(phi) and of
    integral(sigma) over the conservation run."""
    sc = build_scenario(_conservation_config(cfg))
    t = _run_scenario(sc)
    combined = sc.params.alpha * t.mass_v + t.mass_phi
    drift_mass = float(np.max(np.abs(combined - combined[0])))
    drift_sigma = float(np.max(np.abs(t.mass_sigma - t.mass_sigma[0])))
    return drift_mass, drift_sigma, t


def dt_order(cfg):
    """Observed self-convergence order of phi at the final time, over the
    ladder dt = 4e-3 ... 5e-4 against a run at dt = 1.25e-4."""
    base = default_config().with_updates({
        "grid.n": [32], "time.T": 0.2, "time.dt": 1.25e-4,
        "potential.kind": "regular",
        "potential.epsilon": 1e-3,  # pinned so the ladder only varies dt
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.4,
        "init.mu0.kind": "cosine_bump", "init.mu0.amplitude": 0.2,
        "init.mu0.mode": 2,
        "init.mu0_prime.kind": "cosine_bump", "init.mu0_prime.amplitude": 0.1,
        "init.sigma0.kind": "cosine_bump", "init.sigma0.amplitude": 0.3,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.2,
        "controls.u2.omega": 3.0,
        "solver.cg_tol": cfg["solver.cg_tol"],
        "solver.newton_tol": cfg["solver.newton_tol"],
    })
    sc_ref = build_scenario(base)
    phi_ref = _run_scenario(sc_ref).final.phi
    pts = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        sc = build_scenario(base.with_updates({"time.dt": dt}))
        phi = _run_scenario(sc).final.phi
        pts.append((dt, sc.grid.h_norm(phi - phi_ref)))
    return fit_rate(pts), pts


def yosida_battery(seed=0, npoints=1000):
    """Worst violation of the envelope, Lipschitz, domination and
    monotone-convergence properties over a random point battery, on the
    ladder eps = 1e-1, 1e-2, 1e-3."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for pot in (SplitPotential.regular(), SplitPotential.logarithmic(2.0),
                SplitPotential.obstacle(1.0)):
        wide = rng.uniform(-3.0, 3.0, npoints)
        inner = rng.uniform(-1.0, 1.0, npoints) * (1.0 - 1e-3)
        pts = wide if pot.kind == "regular" else np.concatenate([
            inner, np.clip(wide, -1.0, 1.0)])
        strict = wide if pot.kind == "regular" else inner
        gaps_prev = None
        for eps in (1e-1, 1e-2, 1e-3):
            yp = YosidaParams(eps)
            x = np.asarray(pot.resolvent(pts, yp))
            lo, hi = pot.domain
            worst = max(worst, float(np.max(np.maximum(lo - x, x - hi), initial=0.0)))
            env = np.asarray(pot.moreau(pts, yp))
            f1 = np.asarray(pot.f1(pts))
            worst = max(worst, float(np.max(-env, initial=0.0)))
            worst = max(worst, float(np.max(env - f1, initial=0.0)))
            y = np.asarray(pot.yosida_prime(pts, yp))
            worst = max(worst, abs(float(pot.yosida_prime(0.0, yp))))
            # Lipschitz 1/eps on sorted pairs
            order = np.argsort(pts)
            ps, ys = pts[order], y[order]
            dy = np.abs(np.diff(ys)) - np.abs(np.diff(ps)) / eps
            worst = max(worst, float(np.max(dy, initial=0.0)))
            ms = np.asarray(pot.minimal_section(strict))
            ys2 = np.asarray(pot.yosida_prime(strict, yp))
            worst = max(worst, float(np.max(np.abs(ys2) - np.abs(ms), initial=0.0)))
            gaps = np.abs(ms - ys2)
            if gaps_prev is not None:
                worst = max(worst, float(np.max(gaps - gaps_prev, initial=0.0)))
            gaps_prev = gaps
    return worst


def operator_identities(seed=0):
    """Worst relative defect of summation by parts and Laplacian symmetry
    on the acceptance grids, plus the eigenpair error against a dense
    eigendecomposition on a tiny grid."""
    rng = np.random.default_rng(seed)
    worst_ident = 0.0
    for g in (Grid(64), Grid((16, 16))):
        u = rng.standard_normal(g.ncells)
        v = rng.standard_normal(g.ncells)
        a = g.inner(-g.laplacian(u), v)
        b = g.face_form(u, v)
        c = g.inner(u, -g.laplacian(v))
        scale = max(abs(a), abs(b), abs(c), 1.0)
        worst_ident = max(worst_ident, abs(a - b) / scale, abs(a - c) / scale)

    g = Grid(8)
    dense = np.column_stack([
        g.laplacian(np.eye(g.ncells)[:, j].copy()) for j in range(g.ncells)
    ])
    evals, evecs = np.linalg.eigh(dense)
    h, L = g.h[0], g.length[0]
    x = g.coordinates()[0]
    worst_eig = 0.0
    for k in range(g.ncells):
        lam = -(4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * L)) ** 2
        j = int(np.argmin(np.abs(evals - lam)))
        worst_eig = max(worst_eig, abs(evals[j] - lam))
        mode = np.cos(k * np.pi * x / L)
        worst_eig = max(worst_eig, float(np.max(np.abs(
            g.laplacian(mode) - lam * mode))))
    return worst_ident, worst_eig


def invariant_suite(cfg, seed=0):
    """Aggregate structural checks: operator identities, the Yosida
    battery, conservation over a full run and the dt self-convergence
    order, all at the caller's solver tolerances."""
    worst_ident, worst_eig = operator_identities(seed)
    worst_yosida = yosida_battery(seed)
    drift_mass, drift_sigma, _ = conservation_drift(cfg)
    fit, _ = dt_order(cfg)
    verdicts = [
        Verdict("operator_identities", worst_ident <= 1e-12, "<= 1e-12", worst_ident),
        Verdict("laplacian_eigenpairs", worst_eig <= 1e-10, "<= 1e-10", worst_eig),
        Verdict("yosida_battery", worst_yosida <= 1e-10, "<= 1e-10", worst_yosida),
        Verdict("conservation_mass", drift_mass <= 1e-8, "<= 1e-8", drift_mass),
        Verdict("conservation_sigma", drift_sigma <= 1e-8, "<= 1e-8", drift_sigma),
        Verdict("dt_order", 0.8 <= fit.slope <= 1.2, "in [0.8, 1.2]", fit.slope),
    ]
    rows = [(v.name, v.observed, v.threshold, "pass" if v.passed else "fail")
            for v in verdicts]
    return StudyReport(
        study="check", digest=cfg.digest(),
        columns=["check", "observed", "threshold", "verdict"],
        rows=rows, verdicts=verdicts,
    )
