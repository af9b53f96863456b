"""Tests for the space-time norms, convolution, composites, and rate fits.

Oracles are hand-computed on spatially constant snapshot series, where every
norm reduces to arithmetic on the scalar values: on the unit box the discrete
L2 norm of a constant c is |c| and gradients vanish.  The composites are
computed the way the studies compute them: a CompositeStream fed against a
ReferenceSeries.  The stacked norms and convolutions are the reference
copies in ``tests/test_stream.py``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chrelax import (
    DegenerateFit,
    Grid,
    GridMismatch,
    ScheduleMismatch,
    State,
    contdep_rhs,
    fit_rate,
)
from chrelax.model import Controls, ControlSpec
from chrelax.norms import CompositeStream, ReferenceSeries, alpha_error, contdep_lhs
from test_stream import convolve_one, convolved_series, series_norms


def constant_states(grid, rows):
    """States whose k-th one holds the constants rows[k] = (mu, v, phi, sigma)."""
    return [State(mu=grid.field(mu), v=grid.field(v), phi=grid.field(phi),
                  sigma=grid.field(sigma), xi=grid.field(), t=0.0)
            for mu, v, phi, sigma in rows]


def stream_norms(grid, dt, rows, ref_rows, record_every=1):
    """CompositeStream norms of the series ``rows`` against ``ref_rows``,
    record points record_every steps of dt apart."""
    return stream_states(grid, dt, constant_states(grid, rows),
                         constant_states(grid, ref_rows), record_every)


def stream_states(grid, dt, states, ref_states, record_every=1):
    ref = ReferenceSeries(grid, dt, record_every, (len(ref_states) - 1) * record_every)
    for s in ref_states:
        ref(s)
    stream = CompositeStream(ref)
    for s in states:
        stream(s)
    return stream.finish()


# -- series norms ---------------------------------------------------------


def test_series_norms_constant_fields():
    g = Grid(16)
    dt = 0.1
    fields = [g.field(c) for c in (3.0, -1.0, 2.0)]
    n = series_norms(g, fields, dt)
    assert n.linf_h == pytest.approx(3.0, rel=1e-14)
    assert n.linf_v == pytest.approx(3.0, rel=1e-14)
    # right-endpoint rule skips t_0: sqrt(dt (1 + 4))
    assert n.l2_h == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert n.l2_v == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_series_norms_single_snapshot():
    g = Grid(8)
    n = series_norms(g, [g.field(-2.5)], dt=0.1)
    assert n.linf_h == pytest.approx(2.5, rel=1e-14)
    assert n.l2_h == 0.0 and n.l2_v == 0.0


def test_series_norms_gradient_term():
    g = Grid(2)
    u = np.array([0.0, 1.0])
    n = series_norms(g, [u], dt=1.0)
    # h_norm sqrt(1/2), grad energy 2, so the V norm is sqrt(0.5 + 2)
    assert n.linf_v == pytest.approx(math.sqrt(2.5), rel=1e-14)


# -- time convolution -----------------------------------------------------


def test_convolution_of_ramp():
    g = Grid(4)
    dt = 0.25
    fields = [g.field(float(k)) for k in range(6)]
    for n in range(6):
        want = dt * n * (n - 1) / 2.0
        np.testing.assert_allclose(
            convolve_one(fields, dt, n), want, rtol=0, atol=1e-15)
    series = convolved_series(fields, dt)
    assert len(series) == 6
    for n in range(6):
        np.testing.assert_allclose(
            series[n], convolve_one(fields, dt, n), rtol=0, atol=1e-15)


def test_convolution_exact_for_constants():
    g = Grid(4)
    dt = 0.125
    c = -1.7
    fields = [g.field(c) for _ in range(9)]
    for n in range(9):
        # left-endpoint rule integrates constants exactly: c * t_n
        np.testing.assert_allclose(
            convolve_one(fields, dt, n), c * n * dt, rtol=0, atol=1e-15)
    assert np.all(convolve_one(fields, dt, 0) == 0.0)


def test_convolution_linearity():
    g = Grid(8)
    rng = np.random.default_rng(71)
    u = [rng.standard_normal(8) for _ in range(5)]
    w = [rng.standard_normal(8) for _ in range(5)]
    dt = 0.2
    lhs = convolve_one([2.0 * a - 3.0 * b for a, b in zip(u, w)], dt, 4)
    rhs = 2.0 * convolve_one(u, dt, 4) - 3.0 * convolve_one(w, dt, 4)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


# -- composites ----------------------------------------------------------------


def test_contdep_lhs_identical_runs_is_zero():
    g = Grid(8)
    rows = [(0.3, 0.0, -0.2, 0.5)] * 4
    assert contdep_lhs(stream_norms(g, 0.1, rows, rows)) == 0.0


def test_contdep_lhs_constant_offset_oracle():
    g = Grid(8)
    dt, nsnap = 0.1, 6
    T = dt * (nsnap - 1)
    base = [(0.0, 0.0, 0.0, 0.0)] * nsnap
    mu_off = [(0.4, 0.0, 0.0, 0.0)] * nsnap
    # |dmu|_{Linf H} = 0.4 and |1*dmu|_{Linf V} = 0.4 T; other terms vanish
    want = 0.4 + 0.4 * T
    assert contdep_lhs(stream_norms(g, dt, mu_off, base)) == pytest.approx(
        want, rel=1e-13)
    assert contdep_lhs(stream_norms(g, dt, base, mu_off)) == pytest.approx(
        want, rel=1e-13)
    phi_off = [(0.0, 0.0, 0.25, 0.0)] * nsnap
    # |dphi|_{Linf H} + |dphi|_{L2 V} = 0.25 + 0.25 sqrt(T)
    assert contdep_lhs(stream_norms(g, dt, phi_off, base)) == pytest.approx(
        0.25 + 0.25 * math.sqrt(T), rel=1e-13)
    # recording every second step doubles the time between record points
    assert contdep_lhs(stream_norms(g, dt, mu_off, base, record_every=2)) == (
        pytest.approx(0.4 + 0.8 * T, rel=1e-13))


def test_contdep_lhs_rejects_mismatched_schedules():
    # the stream runs on the reference's schedule: a run with fewer or more
    # record points than the reference is refused
    g = Grid(8)
    rows = [(0.0, 0.0, 0.0, 0.0)] * 4
    with pytest.raises(ScheduleMismatch, match="3 of the reference's 4"):
        stream_norms(g, 0.1, rows[:3], rows)
    with pytest.raises(ScheduleMismatch, match="more than the reference's 3"):
        stream_norms(g, 0.1, rows, rows[:3])


def test_contdep_rhs_constant_controls():
    g = Grid(8)
    dt, nsteps = 0.1, 10
    a = Controls(u1=ControlSpec("constant", value=0.7), u2=ControlSpec("zero"))
    b = Controls(u1=ControlSpec("zero"), u2=ControlSpec("zero"))
    # |u1a - u1b| = 0.7 at every sampling time: 0.7 sqrt(T)
    want = 0.7 * math.sqrt(dt * nsteps)
    assert contdep_rhs(g, dt, nsteps, a, b) == pytest.approx(want, rel=1e-13)
    assert contdep_rhs(g, dt, nsteps, a, a) == 0.0
    both = Controls(u1=ControlSpec("constant", value=0.7),
                    u2=ControlSpec("constant", value=-0.3))
    want = (0.7 + 0.3) * math.sqrt(dt * nsteps)
    assert contdep_rhs(g, dt, nsteps, both, b) == pytest.approx(want, rel=1e-13)


def test_alpha_error_self_term_only():
    g = Grid(8)
    rows = [(0.6, 0.0, -0.1, 0.2)] * 5
    norms = stream_norms(g, 0.1, rows, rows)
    mu_w, conv_mu, phi_h, phi_v, sig_h, conv_sig, composite = alpha_error(norms, 0.25)
    # identical series: every difference term vanishes and only
    # sqrt(alpha) |mu|_{Linf H} = 0.5 * 0.6 survives
    assert conv_mu == 0.0
    assert phi_h == 0.0 and phi_v == 0.0
    assert sig_h == 0.0 and conv_sig == 0.0
    assert mu_w == pytest.approx(0.3, rel=1e-13)
    assert composite == pytest.approx(0.3, rel=1e-13)
    # the weight scales like sqrt(alpha)
    ratio = alpha_error(norms, 0.5)[-1] / composite
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_alpha_error_difference_terms_oracle():
    g = Grid(8)
    dt, nsnap = 0.1, 6
    T = dt * (nsnap - 1)
    mu_w, _, phi_h, phi_v, sig_h, conv_sig, composite = alpha_error(stream_norms(
        g, dt, [(0.0, 0.0, 0.3, -0.2)] * nsnap, [(0.0, 0.0, 0.0, 0.0)] * nsnap),
        0.04)
    assert mu_w == 0.0
    assert phi_h == pytest.approx(0.3, rel=1e-13)
    assert phi_v == pytest.approx(0.3 * math.sqrt(T), rel=1e-13)
    assert sig_h == pytest.approx(0.2 * math.sqrt(T), rel=1e-13)
    # |1*dsigma|(t_n) = 0.2 t_n peaks at T
    assert conv_sig == pytest.approx(0.2 * T, rel=1e-13)
    assert composite == pytest.approx(
        0.3 + 0.3 * math.sqrt(T) + 0.2 * math.sqrt(T) + 0.2 * T, rel=1e-13)


# -- stacked series against the per-snapshot loop ---------------------------


def loop_series_norms(grid, fields, dt):
    """The four norms one snapshot at a time through Grid.h_norm/v_norm."""
    return (
        max(grid.h_norm(u) for u in fields),
        max(grid.v_norm(u) for u in fields),
        math.sqrt(sum(dt * grid.h_norm(u) ** 2 for u in fields[1:])),
        math.sqrt(sum(dt * grid.v_norm(u) ** 2 for u in fields[1:])),
    )


def loop_convolved(fields, dt):
    out, acc = [np.zeros_like(fields[0])], np.zeros_like(fields[0])
    for u in fields[:-1]:
        acc = acc + dt * u
        out.append(acc)
    return out


def series(states, name):
    return [getattr(s, name) for s in states]


def random_states(grid, rng, n):
    return [State(*(rng.standard_normal(grid.ncells) for _ in range(5)), t=0.0)
            for _ in range(n)]


@pytest.mark.parametrize("grid", [Grid(16), Grid(7, length=2.0),
                                  Grid((5, 6), length=(1.0, 0.4))])
def test_stacked_norms_match_per_snapshot_loop(grid):
    rng = np.random.default_rng(37)
    s1, s2 = random_states(grid, rng, 9), random_states(grid, rng, 9)
    dt, alpha = 0.01, 0.3
    fields = series(s1, "phi")
    got = series_norms(grid, fields, dt)
    want = loop_series_norms(grid, fields, dt)
    np.testing.assert_allclose(
        [got.linf_h, got.linf_v, got.l2_h, got.l2_v], want, rtol=1e-12, atol=0)
    # the running sum adds in the loop's order: exactly the same values
    np.testing.assert_array_equal(
        convolved_series(fields, dt), np.array(loop_convolved(fields, dt)))

    def diffs(name):
        return [a - b for a, b in zip(series(s1, name), series(s2, name))]

    dmu, dphi, dsig = diffs("mu"), diffs("phi"), diffs("sigma")
    nm, nphi, nsig = (loop_series_norms(grid, d, dt) for d in (dmu, dphi, dsig))
    conv_mu = loop_series_norms(grid, loop_convolved(dmu, dt), dt)
    conv_sig = loop_series_norms(grid, loop_convolved(dsig, dt), dt)
    norms = stream_states(grid, dt, s1, s2)
    want_lhs = nm[0] + conv_mu[1] + nphi[0] + nphi[3] + nsig[0] + nsig[3]
    assert contdep_lhs(norms) == pytest.approx(want_lhs, rel=1e-12, abs=0)
    mu_self = loop_series_norms(grid, series(s1, "mu"), dt)
    terms = alpha_error(norms, alpha)
    np.testing.assert_allclose(
        terms[:6],
        [math.sqrt(alpha) * mu_self[0], conv_mu[1], nphi[0], nphi[3],
         nsig[2], conv_sig[1]], rtol=1e-12, atol=0)
    # the composite is the six terms added left to right
    assert terms[6] == terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5]


def test_series_norms_reject_misshaped_stack():
    g = Grid(8)
    with pytest.raises(GridMismatch):
        series_norms(g, [g.field(), np.zeros(7)], 0.1)
    with pytest.raises(GridMismatch):
        series_norms(g, np.zeros((3, 9)), 0.1)


# -- rate fitting ------------------------------------------------------------


def test_fit_rate_exact_power_laws():
    xs = [1e-3, 1e-2, 1e-1, 1.0]
    fit = fit_rate([(x, 3.0 * x**0.5) for x in xs])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.npoints == 4
    fit = fit_rate([(x, x**0.25) for x in xs])
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    flat = fit_rate([(x, 2.0) for x in xs])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_least_squares_residual():
    # perturb one point; the fit minimises the log-space misfit
    pts = [(1.0, 1.0), (2.0, 2.0), (4.0, 4.0 * math.e)]
    fit = fit_rate(pts)
    exact = fit_rate([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert fit.residual > exact.residual
    assert fit.slope > 1.0


def test_fit_rate_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_rate([(0.1, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_rate([])
    with pytest.raises(DegenerateFit):
        fit_rate([(0.1, 1.0), (0.2, -1.0)])
    with pytest.raises(DegenerateFit):
        fit_rate([(0.1, 1.0), (0.2, 0.0)])
    with pytest.raises(DegenerateFit):
        fit_rate([(-0.1, 1.0), (0.2, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_rate([(0.1, 1.0), (0.1, 2.0)])


def lstsq_fit(points):
    """Slope, intercept and residual of the log-log fit by LAPACK's
    least-squares solve, the reference for the closed form."""
    lx, ly = np.log(np.array(points, dtype=float)).T
    A = np.column_stack([lx, np.ones_like(lx)])
    coef = np.linalg.lstsq(A, ly, rcond=None)[0]
    return coef[0], coef[1], np.linalg.norm(A @ coef - ly)


def test_fit_rate_matches_lapack_least_squares():
    rng = np.random.default_rng(7)
    sets = [list(zip(rng.uniform(1e-4, 2.0, n), rng.uniform(1e-6, 10.0, n)))
            for n in range(2, 13) for _ in range(20)]
    sets += [[(x, c * x**s) for x in 2.0 ** -np.arange(2, 2 + n)]
             for n, c, s in [(2, 1.0, 0.5), (4, 3.0, 0.25), (8, 0.1, 1.0),
                             (12, 7.0, -0.75)]]
    for pts in sets:
        fit = fit_rate(pts)
        slope, intercept, residual = lstsq_fit(pts)
        assert fit.npoints == len(pts)
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)
        assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)


# one fit after the 1-D solves a sweep makes, in a fresh process; prints the
# growth of the process's peak resident set (VmHWM) in KiB.  ru_maxrss will
# not do: a child inherits the high-water mark of the test process that
# forked it, which hides any growth below that.
FIT_RSS = """
import numpy as np
from chrelax import Grid, fit_rate

def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

g = Grid(64)
rhs = np.cos(np.pi * g.coordinates()[0])
for _ in range(50):
    g.solve_shifted(1.0, 1e-3, rhs)
before = peak_kib()
fit_rate([(2.0**-k, 2.0**(-0.5 * k)) for k in range(2, 6)])
print(peak_kib() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from Linux's /proc")
def test_fit_rate_leaves_peak_memory_alone():
    # a LAPACK least-squares solve touches about 1 MB of BLAS workspace on
    # its first call, more than a 1-D sweep's reference stack; the closed
    # form allocates nothing that shows
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", FIT_RSS], env=env,
                          capture_output=True, text=True, check=True)
    grew = int(done.stdout)
    print(f"fit_rate grew the peak resident set by {grew} KiB")
    assert grew < 256
