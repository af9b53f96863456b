"""Discrete space-time norms, time convolution and rate fitting.

Trajectories are sampled on a uniform step grid; L-infinity-in-time norms
take the max over every recorded snapshot, L2-in-time norms use the
right-endpoint rectangle rule sqrt(sum_n dt |w(t_n)|^2) over steps
n = 1..N, and the time convolution against the constant 1 uses the
left-endpoint rule

    (1 * w)(t_n) = dt * sum_{k < n} w(t_k),

so it vanishes at t_0 and is exact for piecewise-constant integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, GridMismatch, ScheduleMismatch


@dataclass(frozen=True)
class SeriesNorms:
    """The four Bochner norms of one field series."""

    linf_h: float
    linf_v: float
    l2_h: float
    l2_v: float


def _check_pair(t1, t2):
    if t1.schedule_key() != t2.schedule_key():
        raise ScheduleMismatch(
            f"trajectories sampled differently: {t1.schedule_key()} vs "
            f"{t2.schedule_key()}"
        )
    if t1.grid != t2.grid:
        raise ScheduleMismatch("trajectories live on different grids")


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


def diff_series(t1, t2, name):
    """One field's snapshot differences t1 - t2, stacked (N, ncells)."""
    out = np.empty((len(t1.snapshots), t1.grid.ncells))
    for row, a, b in zip(out, t1.series(name), t2.series(name)):
        np.subtract(a, b, out=row)
    return out


def contdep_lhs(t1, t2):
    """Composite distance between two trajectories of the same schedule:

    |mu1-mu2|_{Linf H} + |1*(mu1-mu2)|_{Linf V}
      + |phi1-phi2|_{Linf H + L2 V} + |sigma1-sigma2|_{Linf H + L2 V}.
    """
    _check_pair(t1, t2)
    g, dt = t1.grid, t1.dt * t1.record_every
    dmu = diff_series(t1, t2, "mu")
    nm = series_norms(g, dmu, dt)
    conv = series_norms(g, convolved_series(dmu, dt), dt)
    np_ = series_norms(g, diff_series(t1, t2, "phi"), dt)
    ns = series_norms(g, diff_series(t1, t2, "sigma"), dt)
    return nm.linf_h + conv.linf_v + (np_.linf_h + np_.l2_v) + (ns.linf_h + ns.l2_v)


def contdep_rhs(grid, dt, nsteps, controls_a, controls_b):
    """L2-in-time distance of the control pairs on the sampling schedule
    the stepper consumes (t_1 .. t_N)."""
    acc1 = acc2 = 0.0
    for n in range(1, nsteps + 1):
        t = n * dt
        d1 = controls_a.u1.sample(t, grid) - controls_b.u1.sample(t, grid)
        d2 = controls_a.u2.sample(t, grid) - controls_b.u2.sample(t, grid)
        acc1 += dt * grid.h_norm(d1) ** 2
        acc2 += dt * grid.h_norm(d2) ** 2
    return float(np.sqrt(acc1) + np.sqrt(acc2))


@dataclass(frozen=True)
class AlphaErrorTerms:
    """Term-by-term composite distance between a relaxed run and its
    parabolic limit."""

    mu_weighted: float
    conv_mu_linf_v: float
    phi_linf_h: float
    phi_l2_v: float
    sigma_l2_h: float
    conv_sigma_linf_v: float

    @property
    def composite(self):
        return (
            self.mu_weighted + self.conv_mu_linf_v + self.phi_linf_h
            + self.phi_l2_v + self.sigma_l2_h + self.conv_sigma_linf_v
        )


def alpha_error(t_alpha, t_limit):
    """Vanishing-inertia error composite:

    sqrt(alpha) |mu_a|_{Linf H} + |1*(mu_a - mu)|_{Linf V}
      + |phi_a - phi|_{Linf H + L2 V} + |sigma_a - sigma|_{L2 H}
      + |1*(sigma_a - sigma)|_{Linf V}.

    The first term weighs the relaxed potential itself, not a difference.
    """
    _check_pair(t_alpha, t_limit)
    g, dt = t_alpha.grid, t_alpha.dt * t_alpha.record_every
    alpha = t_alpha.alpha
    mu_self = series_norms(g, t_alpha.series("mu"), dt)
    conv_mu = series_norms(
        g, convolved_series(diff_series(t_alpha, t_limit, "mu"), dt), dt)
    nphi = series_norms(g, diff_series(t_alpha, t_limit, "phi"), dt)
    dsig = diff_series(t_alpha, t_limit, "sigma")
    nsig = series_norms(g, dsig, dt)
    conv_sig = series_norms(g, convolved_series(dsig, dt), dt)
    return AlphaErrorTerms(
        mu_weighted=float(np.sqrt(alpha)) * mu_self.linf_h,
        conv_mu_linf_v=conv_mu.linf_v,
        phi_linf_h=nphi.linf_h,
        phi_l2_v=nphi.l2_v,
        sigma_l2_h=nsig.l2_h,
        conv_sigma_linf_v=conv_sig.linf_v,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit y = exp(intercept) * x^slope."""

    slope: float
    intercept: float
    residual: float
    npoints: int


def fit_rate(points):
    """Fit a decay rate in log-log coordinates by ordinary least squares.

    Needs at least two points with distinct positive abscissae and positive
    values; anything else raises DegenerateFit.  The residual is the
    Euclidean norm of the log-space misfit, zero for an exact power law.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise DegenerateFit(f"rate fit needs at least 2 points, got {len(pts)}")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise DegenerateFit("rate fit needs positive parameters and values")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0.0:
        raise DegenerateFit("rate fit needs at least two distinct parameters")
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    res = float(np.linalg.norm(A @ coef - ly))
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]),
                   residual=res, npoints=len(pts))
