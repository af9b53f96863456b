"""Discrete space-time norms of the study composites, and rate fitting.

A run is sampled at its record points t_j, j = 0..N, dt apart (dt the
time step times record_every, which must divide the run's step count:
the final step is always recorded).  L-infinity-in-time norms take the
max over every record point, L2-in-time norms use the right-endpoint
rectangle rule sqrt(sum_j dt |w(t_j)|^2) over j = 1..N, and the time
convolution against the constant 1 uses the left-endpoint rule

    (1 * w)(t_j) = dt * sum_{k < j} w(t_k),

so it vanishes at t_0 and is exact for piecewise-constant integrands.

All of these are sups and sums over time, so the study composites are
computed in one pass.  A ReferenceSeries holds the reference run's mu, phi
and sigma at its record points; a CompositeStream takes the other run one
record point at a time (both plug into ``run(observe=...)``), and every
STREAM_BLOCK points it differences the block against the reference,
continues the running convolutions and folds the block's norms into
running sups and sums.  ``alpha_error`` and ``contdep_lhs`` assemble the
composites from the norms it finishes with, so a study keeps a reference
stack and a fixed buffer instead of every snapshot of every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InvalidParams, ScheduleMismatch

STREAM_BLOCK = 64  # record points a CompositeStream reduces at a time


@dataclass(frozen=True)
class SeriesNorms:
    """The four Bochner norms of one field series."""

    linf_h: float
    linf_v: float
    l2_h: float
    l2_v: float


def record_count(nsteps, record_every):
    """Record points of a run of nsteps steps: t_0, every record_every-th
    step and the final step."""
    return 1 - (-nsteps // record_every)


class ReferenceSeries:
    """mu, phi and sigma of a reference run of nsteps steps of dt at its
    record points, every record_every-th step, stacked (npoints, 3, ncells)
    and filled one record point per call, so a run can stream into it
    through ``run(observe=...)``.  It is the schedule a CompositeStream runs
    on.  A stride that does not divide nsteps raises InvalidParams: the
    norms weight every record interval alike.  A state of another grid
    raises GridMismatch."""

    def __init__(self, grid, dt, record_every, nsteps):
        if nsteps % record_every:
            raise InvalidParams(
                f"the space-time norms need record_every = {record_every} to "
                f"divide the {nsteps} steps of the run")
        self.grid = grid
        self.dt = dt * record_every  # time between record points
        self.rows = np.empty((record_count(nsteps, record_every), 3, grid.ncells))
        self.count = 0

    def __call__(self, state):
        if self.count == len(self.rows):
            raise ScheduleMismatch(
                f"reference run recorded more than its {len(self.rows)} points")
        self.grid.check(state.mu, state.phi, state.sigma)
        row = self.rows[self.count]
        row[0], row[1], row[2] = state.mu, state.phi, state.sigma
        self.count += 1


# the series a CompositeStream reduces, in the order of its stacked block
_STREAMED = ("mu", "dmu", "conv_dmu", "dphi", "dsigma", "conv_dsigma")


class CompositeStream:
    """Running space-time norms of one run against a ReferenceSeries, on the
    reference's grid and record schedule, for the alpha-error and
    continuous-dependence composites.

    Called once per record point (``run(observe=stream)``), it copies mu,
    phi and sigma into a fixed buffer of STREAM_BLOCK points.  Each full block
    is differenced against the reference, the time convolutions of the mu
    and sigma differences are extended by a ``cumsum`` that continues from
    the previous block's last row (so the sums are added in the order of
    one running sum down the whole series), and ``Grid.stacked_sq_norms``
    reduces the block into running sups and sums.  A state of another grid
    raises GridMismatch.  A run that records more points than the
    reference raises ScheduleMismatch at once; ``finish`` reduces the last
    partial block and raises it for a run that recorded fewer.
    """

    def __init__(self, reference):
        grid = reference.grid
        self.reference, self.grid, self.dt = reference, grid, reference.dt
        self.npoints = len(reference.rows)
        self._buf = np.empty((3, STREAM_BLOCK, grid.ncells))  # mu, phi, sigma
        self._filled = 0  # points in the buffer
        self._start = 0  # record index of the buffer's first point
        self._conv = np.zeros((2, grid.ncells))  # 1*dmu, 1*dsigma at the last point
        self._last = np.zeros((2, grid.ncells))  # dmu, dsigma at the last point
        self._h_max = np.zeros(len(_STREAMED))
        self._v_max = np.zeros(len(_STREAMED))
        self._h_sum = np.zeros(len(_STREAMED))
        self._v_sum = np.zeros(len(_STREAMED))

    def __call__(self, state):
        if self._start + self._filled == self.npoints:
            raise ScheduleMismatch(
                f"run recorded more than the reference's {self.npoints} points")
        self.grid.check(state.mu, state.phi, state.sigma)
        k = self._filled
        self._buf[0, k], self._buf[1, k], self._buf[2, k] = (
            state.mu, state.phi, state.sigma)
        self._filled += 1
        if self._filled == self._buf.shape[1]:
            self._reduce()

    def _reduce(self):
        k, j0 = self._filled, self._start
        if j0 + k > self.reference.count:
            raise ScheduleMismatch(
                f"reference holds {self.reference.count} points, the run reached "
                f"{j0 + k}")
        mu = self._buf[0, :k]
        # dmu, dphi, dsigma; diff[::2] is the pair (dmu, dsigma)
        diff = self._buf[:, :k] - self.reference.rows[j0:j0 + k].transpose(1, 0, 2)
        # (1*w)(t_j) = (1*w)(t_{j-1}) + dt w(t_{j-1}), one cumsum from the carry
        acc = np.empty((2, k + 1, self.grid.ncells))
        acc[:, 0] = self._conv
        np.multiply(self._last, self.dt, out=acc[:, 1])
        np.multiply(diff[::2, :k - 1], self.dt, out=acc[:, 2:])
        np.cumsum(acc, axis=1, out=acc)
        conv = acc[:, 1:]
        stack = np.concatenate((mu, diff[0], conv[0], diff[1], diff[2], conv[1]))
        h_sq, grad_sq = self.grid.stacked_sq_norms(stack)
        h_sq = h_sq.reshape(len(_STREAMED), k)
        v_sq = h_sq + grad_sq.reshape(len(_STREAMED), k)
        np.maximum(self._h_max, h_sq.max(axis=1), out=self._h_max)
        np.maximum(self._v_max, v_sq.max(axis=1), out=self._v_max)
        first = 1 if j0 == 0 else 0  # the L2-in-time sums skip t_0
        self._h_sum += h_sq[:, first:].sum(axis=1)
        self._v_sum += v_sq[:, first:].sum(axis=1)
        self._conv = conv[:, -1].copy()
        self._last = diff[::2, -1].copy()
        self._start, self._filled = j0 + k, 0

    def finish(self):
        """Reduce the last partial block; returns the norms of each series
        by name (mu, dmu, conv_dmu, dphi, dsigma, conv_dsigma)."""
        if self._filled:
            self._reduce()
        if self._start != self.npoints:
            raise ScheduleMismatch(
                f"run recorded {self._start} of the reference's {self.npoints} points")
        return {
            name: SeriesNorms(
                linf_h=float(np.sqrt(self._h_max[i])),
                linf_v=float(np.sqrt(self._v_max[i])),
                l2_h=float(np.sqrt(self.dt * self._h_sum[i])),
                l2_v=float(np.sqrt(self.dt * self._v_sum[i])),
            )
            for i, name in enumerate(_STREAMED)
        }


def contdep_lhs(n):
    """Continuous-dependence distance from the CompositeStream norms ``n``
    of one run against another:

    |mu1-mu2|_{Linf H} + |1*(mu1-mu2)|_{Linf V}
      + |phi1-phi2|_{Linf H + L2 V} + |sigma1-sigma2|_{Linf H + L2 V}.
    """
    return (n["dmu"].linf_h + n["conv_dmu"].linf_v
            + (n["dphi"].linf_h + n["dphi"].l2_v)
            + (n["dsigma"].linf_h + n["dsigma"].l2_v))


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


def alpha_error(n, alpha):
    """Vanishing-inertia error terms from the CompositeStream norms ``n`` of
    a relaxed run (inertia alpha) against its parabolic limit:

    sqrt(alpha) |mu_a|_{Linf H} + |1*(mu_a - mu)|_{Linf V}
      + |phi_a - phi|_{Linf H + L2 V} + |sigma_a - sigma|_{L2 H}
      + |1*(sigma_a - sigma)|_{Linf V}.

    The first term weighs the relaxed potential itself, not a difference.
    Returns the six terms t0 .. t5 in the order written above (Linf H
    before L2 V for phi), then their composite t0 + t1 + t2 + t3 + t4 + t5,
    added left to right: the row of the sweep-alpha table after alpha.
    """
    t = (float(np.sqrt(alpha)) * n["mu"].linf_h, n["conv_dmu"].linf_v,
         n["dphi"].linf_h, n["dphi"].l2_v, n["dsigma"].l2_h,
         n["conv_dsigma"].linf_v)
    return (*t, t[0] + t[1] + t[2] + t[3] + t[4] + t[5])


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

    Two unknowns have the closed form of the normal equations on centred
    logs: slope = sum(dx * dy) / sum(dx^2), intercept = mean(ly) - slope *
    mean(lx).  It agrees with a LAPACK least-squares solve to roundoff and
    calls no LAPACK: the first such call in a process touches about 1 MB of
    BLAS workspace, more than the alpha = 0 reference stack of a sweep.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise DegenerateFit(f"rate fit needs at least 2 points, got {len(pts)}")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise DegenerateFit("rate fit needs positive parameters and values")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    if max(lx) == min(lx):
        raise DegenerateFit("rate fit needs at least two distinct parameters")
    mx, my = math.fsum(lx) / len(pts), math.fsum(ly) / len(pts)
    dx = [x - mx for x in lx]
    slope = (math.fsum(a * (y - my) for a, y in zip(dx, ly))
             / math.fsum(a * a for a in dx))
    intercept = my - slope * mx
    res = math.sqrt(math.fsum((slope * x + intercept - y) ** 2
                              for x, y in zip(lx, ly)))
    return RateFit(slope=slope, intercept=intercept, residual=res, npoints=len(pts))
