"""Tests for the shifted-Laplacian solve and the seed fingerprint.

The cosine solve is checked against dense linear algebra on small grids.
The fingerprint pins the final field norms and the mass-series endpoints
of a few scenarios as computed by the original Jacobi-CG solver, at the
default CG tolerance and at a converged one (1e-13); the ``jacobi_solves``
fixture (conftest.py) reinstates that solver for comparison.  It also pins
the study tables of acceptance criteria 5, 6 and 8 (test_acceptance.py),
computed with the default cosine solve.  Every entry names the solver it
was recorded with (``jacobi`` or ``cosine``) and the commit it was recorded
at.  Re-record entries (only after a deliberate change of results) with

    PYTHONPATH=src python tests/test_solve.py --record [ENTRY ...]

which runs each entry with the solver it names (a new entry with the
default cosine solve) and re-records every entry when none is named.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chrelax import CgNoConvergence, Grid, InvalidParams, default_config
from chrelax import grid as grid_module
from chrelax.config import build_scenario
from chrelax.experiments import _conservation_config, _run_scenario

FINGERPRINT = Path(__file__).with_name("seed_fingerprint.json")


def dense_laplacian(grid):
    return np.column_stack(
        [grid.laplacian(np.eye(grid.ncells)[:, j].copy()) for j in range(grid.ncells)])


# -- the cosine solve ------------------------------------------------------


@pytest.fixture(params=["dense", "fft"])
def transform(request, monkeypatch):
    """Run a test with the dense-matrix and with the FFT cosine transform;
    grids must be built inside the test, since each caches its tables."""
    if request.param == "fft":
        monkeypatch.setattr(grid_module, "DENSE_COSINE_MAX", 0)
    return request.param


@pytest.mark.parametrize("n,length", [(10, 1.0), (7, 1.0), ((4, 6), (1.0, 2.0)),
                                      ((5, 3), (2.0, 0.5))])
@pytest.mark.parametrize("shift,scale", [(1.0, 1.0), (0.3, 2.5e-3), (2.0, 0.0)])
def test_cosine_solve_matches_dense(n, length, shift, scale, transform):
    grid = Grid(n, length)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(grid.ncells)
    A = shift * np.eye(grid.ncells) - scale * dense_laplacian(grid)
    want = np.linalg.solve(A, b)
    got = grid.solve_shifted(shift, scale, b)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n,length", [(12, 1.0), ((5, 7), (2.0, 1.0))])
def test_solve_shifted_variable_shift_matches_dense_lu(n, length, transform):
    grid = Grid(n, length)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(grid.ncells)
    shift = 1.0 + 4.0 * rng.random(grid.ncells)
    A = np.diag(shift) - 0.1 * dense_laplacian(grid)
    want = np.linalg.solve(A, b)
    got = grid.solve_shifted(shift, 0.1, b, tol=1e-13)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.max(np.abs(want)))


def test_constant_shift_converges_in_one_iteration():
    g = Grid((8, 8))
    b = np.random.default_rng(17).standard_normal(g.ncells)
    calls = []

    def counted(w):
        calls.append(1)
        return 2.0 * w - 0.5 * g.laplacian(w)

    x = g.solve_spd(counted, b, tol=1e-12, max_iter=10 * g.ncells + 50,
                    precond=lambda r: g.solve_shifted(2.0, 0.5, r))
    assert len(calls) == 1
    np.testing.assert_allclose(counted(x), b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [9, (6, 5)])
def test_scalar_shift_is_the_cosine_solve(n, transform, monkeypatch):
    grid = Grid(n)
    b = np.random.default_rng(29).standard_normal(grid.ncells)
    want = grid.solve_shifted(1.3, 0.2, b)

    def no_cg(*args, **kwargs):
        raise AssertionError("a scalar shift needs no conjugate gradients")

    with monkeypatch.context() as mp:
        mp.setattr(Grid, "solve_spd", no_cg)
        for shift in (1.3, np.float64(1.3), np.array(1.3)):
            np.testing.assert_array_equal(grid.solve_shifted(shift, 0.2, b), want)
    # the same system with the shift as a per-cell field is iterated
    cg = grid.solve_shifted(grid.field(1.3), 0.2, b, tol=1e-13)
    np.testing.assert_allclose(cg, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [12, (5, 7)])
def test_variable_shift_is_cg_preconditioned_at_the_mean_shift(n, transform):
    # the generic CG solve with the cosine solve at the mean shift as its
    # preconditioner: as many iterations and the same solution, bit for bit
    grid = Grid(n)
    rng = np.random.default_rng(31)
    b = rng.standard_normal(grid.ncells)
    shift = 1.0 + 4.0 * rng.random(grid.ncells)
    mean = float(np.mean(shift))
    calls = []

    def operator(w):
        calls.append(1)
        return shift * w - 0.1 * grid.laplacian(w)

    want = grid.solve_spd(operator, b, 1e-10, 10 * grid.ncells + 50,
                          precond=lambda r: grid.solve_shifted(mean, 0.1, r))
    got, iterations = grid._shifted_cg(shift, 0.1, b, 1e-10)
    assert iterations == len(calls) > 1
    np.testing.assert_array_equal(grid.solve_shifted(shift, 0.1, b, 1e-10), got)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [40, (6, 9)])
def test_wide_shift_is_one_solve_spd_call(n, transform, monkeypatch):
    # the iteration count is that call's preconditioner applications
    grid = Grid(n)
    rng = np.random.default_rng(41)
    b = rng.standard_normal(grid.ncells)
    shift = 1.0 + 50.0 * rng.random(grid.ncells)
    assert spread(shift) > grid_module.RICHARDSON_Q
    solve, preconds = Grid.solve_spd, []

    def counted(self, apply, rhs, tol=1e-10, max_iter=None, precond=None):
        preconds.append(0)

        def applied(r):
            preconds[-1] += 1
            return precond(r)

        return solve(self, apply, rhs, tol, max_iter, precond=applied)

    monkeypatch.setattr(Grid, "solve_spd", counted)
    _, iterations = grid._shifted_cg(shift, 0.2, b, 1e-13)
    assert preconds == [iterations] and iterations > 1


# Over the cases below, at kappa(S) = 4000, every true relative residual was
# below tol on both paths and with both transforms (at most 8.1e-14 at tol
# 1e-13); the bound leaves room for the roundoff of the residual updates.
RESIDUAL_SLACK = 5e-13


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("n", [64, (32, 32), 1024])
def test_variable_shift_true_residual(n, tol, transform):
    # the residual is updated by recurrence, never recomputed: check the
    # actual operator's.  n = 1024 is past DENSE_COSINE_MAX, so both
    # transforms take the FFT there.
    for seed, spread in ((0, 4.0), (1, 1000.0), (2, 1000.0)):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(grid.ncells)
        shift = 1.0 + spread * rng.random(grid.ncells)
        # kappa(S) = 1 + scale * lambda_max(-lap) / mean(shift) = 4000
        scale = 3999.0 * np.mean(shift) / sum(4.0 / h**2 for h in grid.h)
        x = grid.solve_shifted(shift, scale, b, tol)
        resid = b - (shift * x - scale * grid.laplacian(x))
        assert np.linalg.norm(resid) <= (tol + RESIDUAL_SLACK) * np.linalg.norm(b)


def near_constant_shift(grid, q, seed, mean=1.0):
    """A random per-cell shift about ``mean`` with spread
    max|shift - mean(shift)| / mean(shift) of about q."""
    u = np.random.default_rng(seed).random(grid.ncells)
    u -= u.mean()
    return mean * (1.0 + q * u / np.abs(u).max())


def spread(shift):
    mean = float(np.add.reduce(shift) / shift.size)
    return float(np.max(np.abs(shift - mean))) / mean


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("n", [64, (32, 32), 1024])
def test_near_constant_shift_true_residual(n, tol, transform, monkeypatch):
    # the Richardson path, at the same kappa(S) = 4000 as above; it applies
    # no Laplacian
    for seed, q in ((0, 0.005), (1, 0.05), (2, 0.09)):
        grid = Grid(n)
        b = np.random.default_rng(seed).standard_normal(grid.ncells)
        shift = near_constant_shift(grid, q, seed)
        assert spread(shift) <= grid_module.RICHARDSON_Q
        scale = 3999.0 * np.mean(shift) / sum(4.0 / h**2 for h in grid.h)
        with monkeypatch.context() as mp:
            mp.setattr(Grid, "laplacian", lambda *a: pytest.fail("Laplacian applied"))
            x, iterations = grid._shifted_cg(shift, scale, b, tol)
        # every sweep contracts the residual by at least the spread
        assert iterations <= 1 + math.ceil(math.log(tol) / math.log(spread(shift)))
        resid = b - (shift * x - scale * grid.laplacian(x))
        assert np.linalg.norm(resid) <= (tol + RESIDUAL_SLACK) * np.linalg.norm(b)


@pytest.mark.parametrize("q", [0.005, 0.099])
@pytest.mark.parametrize("n", [12, (5, 7)])
def test_near_constant_shift_takes_richardson_sweeps(n, q, transform):
    # x_0 = S^-1 b and x_1 = x_0 + S^-1 ((mean - shift) x_0), bit for bit,
    # where CG would scale each step by its step length
    grid = Grid(n)
    b = np.random.default_rng(37).standard_normal(grid.ncells)
    shift = near_constant_shift(grid, q, 37, mean=2.0)
    mean = float(np.add.reduce(shift) / shift.size)
    x0 = grid.solve_shifted(mean, 0.1, b)
    r1 = (mean - shift) * x0
    x, iterations = grid._shifted_cg(shift, 0.1, b, 0.5)
    assert iterations == 1
    np.testing.assert_array_equal(x, x0)
    tol = 0.5 * np.linalg.norm(r1) / np.linalg.norm(b)  # between |r1| and |r2|
    x, iterations = grid._shifted_cg(shift, 0.1, b, tol)
    assert iterations == 2
    np.testing.assert_array_equal(x, x0 + grid.solve_shifted(mean, 0.1, r1))


@pytest.mark.parametrize("n", [12, (5, 7)])
def test_shift_just_above_the_richardson_spread_takes_cg(n, transform):
    # the generic CG solve with the cosine solve at the mean shift as its
    # preconditioner: as many iterations and the same solution, bit for bit
    grid = Grid(n)
    b = np.random.default_rng(47).standard_normal(grid.ncells)
    shift = near_constant_shift(grid, 1.01 * grid_module.RICHARDSON_Q, 47)
    assert spread(shift) > grid_module.RICHARDSON_Q
    mean = float(np.mean(shift))
    calls = []

    def operator(w):
        calls.append(1)
        return shift * w - 0.1 * grid.laplacian(w)

    want = grid.solve_spd(operator, b, 1e-10, 10 * grid.ncells + 50,
                          precond=lambda r: grid.solve_shifted(mean, 0.1, r))
    got, iterations = grid._shifted_cg(shift, 0.1, b, 1e-10)
    assert iterations == len(calls) > 1
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("q", [0.05, 2.0])  # Richardson and CG
def test_non_finite_rhs_fails(q, bad):
    grid = Grid(16)
    shift = near_constant_shift(grid, q, 53)
    b = np.random.default_rng(53).standard_normal(grid.ncells)
    b[5] = bad
    with pytest.raises(CgNoConvergence, match=r"^non-finite right-hand side") as ei:
        grid.solve_shifted(shift, 0.1, b)
    assert ei.value.iterations == 0 and math.isnan(ei.value.residual)


def test_non_finite_residual_fails_the_richardson_path(monkeypatch):
    grid = Grid(16)
    shift = near_constant_shift(grid, 0.05, 59)
    b = np.random.default_rng(59).standard_normal(grid.ncells)
    divide = Grid._cosine_divide

    def poisoned(self, denom, rhs):
        out = divide(self, denom, rhs)
        if rhs is not b:  # every sweep after the first
            out[3] = np.nan
        return out

    monkeypatch.setattr(Grid, "_cosine_divide", poisoned)
    with pytest.raises(CgNoConvergence, match=r"^non-finite residual") as ei:
        grid.solve_shifted(shift, 0.1, b, 1e-13)
    assert ei.value.iterations == 2 and math.isnan(ei.value.residual)


def test_richardson_budget_runs_out():
    # a spread of 0.09 contracts the residual by 0.09 a sweep, which cannot
    # reach a relative 1e-300 within the 10 * 8 + 50 sweeps of an n = 8 grid
    grid = Grid(8)
    shift = 1.0 + 0.09 * (-1.0) ** np.arange(grid.ncells)
    with pytest.raises(CgNoConvergence, match=r"^Richardson iteration did not reach "
                       r"tol 1e-300 in 130 iterations$") as ei:
        grid.solve_shifted(shift, 0.0, np.ones(grid.ncells), tol=1e-300)
    assert ei.value.iterations == 130 and 0.0 < ei.value.residual < 1e-100


@pytest.mark.parametrize("substep,scale", [("mu", 1e-6), ("sigma", 1e-3)])
def test_non_finite_rhs_in_a_run_names_step_and_substep(substep, scale, monkeypatch):
    # the ramp-P shifts of the potential (scale dt^2) and the nutrient step
    # (scale dt) are near constant, so the Richardson path meets the NaN
    solve = Grid.solve_shifted

    def poisoned(self, shift, sc, rhs, tol=1e-10):
        if sc == scale:
            assert spread(shift) <= grid_module.RICHARDSON_Q
            rhs = rhs.copy()
            rhs[0] = np.nan
        return solve(self, shift, sc, rhs, tol)

    monkeypatch.setattr(Grid, "solve_shifted", poisoned)
    cfg = fingerprint_configs()["ramp2d"].with_updates({"time.T": 0.002})
    with pytest.raises(CgNoConvergence, match=rf"^step 1 \(t = 0.001\), substep "
                       rf"{substep}: non-finite right-hand side") as ei:
        _run_scenario(build_scenario(cfg))
    assert ei.value.step == 1 and ei.value.substep == substep
    assert "(residual nan)" in str(ei.value)
    assert ei.value.iterations == 0


def test_variable_shift_with_zero_rhs_returns_zeros():
    grid = Grid(12)
    shift = 1.0 + np.linspace(0.0, 2.0, grid.ncells)
    x, iterations = grid._shifted_cg(shift, 0.1, grid.field(), 1e-10)
    assert iterations == 0
    np.testing.assert_array_equal(x, 0.0)
    np.testing.assert_array_equal(grid.solve_shifted(shift, 0.1, grid.field()), 0.0)


@pytest.mark.parametrize("n", [12, (5, 7)])
def test_indefinite_variable_shift_with_positive_mean_fails(n, transform):
    grid = Grid(n)
    b = np.random.default_rng(43).standard_normal(grid.ncells)
    shift = np.resize([3.0, -1.0], grid.ncells)  # mean about 1
    mean = float(np.mean(shift))
    with pytest.raises(CgNoConvergence) as want:
        grid.solve_spd(lambda w: shift * w - 0.01 * grid.laplacian(w), b,
                       1e-10, 10 * grid.ncells + 50,
                       precond=lambda r: grid.solve_shifted(mean, 0.01, r))
    with pytest.raises(CgNoConvergence,
                       match=r"^operator lost positive definiteness") as ei:
        grid.solve_shifted(shift, 0.01, b)
    # it fails where the generic CG solve with the same preconditioner does
    assert ei.value.iterations == want.value.iterations
    assert ei.value.residual == want.value.residual


def test_indefinite_shift_in_a_run_names_step_and_substep(monkeypatch):
    # the potential and nutrient shifts (scale != 1) made indefinite at the
    # same mean; the potential substep meets it first
    solve = Grid.solve_shifted

    def indefinite(self, shift, scale, rhs, tol=1e-10):
        if np.ndim(shift) and scale != 1.0:
            shift = shift + np.resize([1.0, -1.0], shift.size)
        return solve(self, shift, scale, rhs, tol)

    monkeypatch.setattr(Grid, "solve_shifted", indefinite)
    cfg = fingerprint_configs()["ramp2d"].with_updates({"time.T": 0.002})
    with pytest.raises(CgNoConvergence, match=r"^step 1 \(t = 0.001\), substep mu: "
                       r"operator lost positive definiteness") as ei:
        _run_scenario(build_scenario(cfg))
    assert ei.value.step == 1 and ei.value.substep == "mu"
    assert f"(residual {ei.value.residual:.3e})" in str(ei.value)
    assert isinstance(ei.value.iterations, int)


@pytest.mark.parametrize("mean", [0.0, -0.5])
def test_variable_shift_with_nonpositive_mean_fails_before_any_operator_call(
        mean, monkeypatch):
    g = Grid(8)
    shift = np.array([mean + 1.0, mean - 1.0] * 4)

    def no_operator(*args):
        raise AssertionError("the operator was applied")

    monkeypatch.setattr(Grid, "laplacian", no_operator)
    monkeypatch.setattr(Grid, "solve_spd", no_operator)
    with pytest.raises(InvalidParams, match="shift > 0"):
        g.solve_shifted(shift, 1.0, g.field(1.0))


def test_cosine_solve_conserves_mass(transform):
    # lap integrates to zero, so shift * int(x) = int(b) up to roundoff
    for g in (Grid(64), Grid((16, 24), length=(1.0, 1.5))):
        b = np.random.default_rng(19).standard_normal(g.ncells)
        x = g.solve_shifted(0.7, 3.0, b)
        assert abs(0.7 * g.integrate(x) - g.integrate(b)) <= 1e-14 * g.h_norm(b)


@pytest.mark.parametrize("n", [20000, (384, 256)])
def test_cosine_solve_on_large_grids(n):
    # beyond DENSE_COSINE_MAX cells per axis the FFT keeps the solve at
    # O(N log N) time and O(N) memory
    grid = Grid(n)
    assert grid._cosine_tables()[0] is None
    b = np.random.default_rng(23).standard_normal(grid.ncells)
    x = grid.solve_shifted(1.0, 1e-4, b)
    resid = x - 1e-4 * grid.laplacian(x) - b
    assert grid.h_norm(resid) <= 1e-12 * grid.h_norm(b)


@pytest.mark.parametrize("n", [(64, 64), (5, 7), (48, 80)])
def test_2d_cosine_divide_multiplies_by_stored_transposes(n):
    # C0 U C1.T and C0.T V C1 with the transposes stored C-contiguous: the
    # same bits as the products with the transposed views
    grid = Grid(n)
    (C0, C0T), (C1, C1T) = grid._cosine_tables()[0]
    assert C0T.flags.c_contiguous and C1T.flags.c_contiguous
    np.testing.assert_array_equal(C0T, C0.T)
    np.testing.assert_array_equal(C1T, C1.T)
    assert (C0 is C1) == (n[0] == n[1])  # equal axes share their tables
    rng = np.random.default_rng(67)
    denom = grid._cosine_denom(1.3, 0.01)
    for _ in range(3):
        b = rng.standard_normal(grid.ncells)
        coef = C0 @ b.reshape(n) @ C1.T
        want = (C0.T @ (coef / denom) @ C1).reshape(-1)
        np.testing.assert_array_equal(grid._cosine_divide(denom, b), want)


def test_cosine_solve_rejects_indefinite_shift():
    g = Grid(8)
    with pytest.raises(InvalidParams):
        g.solve_shifted(0.0, 1.0, g.field(1.0))


# -- seed fingerprint --------------------------------------------------------


def fingerprint_configs():
    """The fingerprinted scenarios: criterion 3's conservation run, a 2-D
    ramp-P run, a 1-D logarithmic alpha = 0 limit run and criterion 7's
    logarithmic alpha = 0.1 run at n = 32.

    The criterion 7 entry was recorded with Jacobi-CG after the predictor
    start of the phase Newton and before the warm-started entropy
    resolvent; the other entries come from the seed."""
    ramp2d = default_config(**{
        "grid.dim": 2, "grid.n": [16], "time.T": 0.05, "time.dt": 1e-3,
        "model.alpha": 0.1, "model.P.kind": "ramp", "model.P.p0": 1.0,
        "potential.kind": "regular",
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.5,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.5,
        "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
        "controls.u1.center_x": 0.4, "controls.u1.center_y": 0.5,
        "controls.u1.width": 0.15,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
        "controls.u2.omega": 2.0,
    })
    limit_log = default_config(**{
        "grid.n": [32], "time.T": 0.05, "time.dt": 1e-3,
        "model.alpha": 0.0, "model.P.kind": "constant", "model.P.p0": 1.0,
        "potential.kind": "logarithmic", "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.2,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
    })
    criterion7_log = default_config(**{
        "grid.n": [32], "time.T": 0.5, "time.dt": 1e-3,
        "model.alpha": 0.1, "model.P.kind": "constant", "model.P.p0": 0.5,
        "potential.kind": "logarithmic", "potential.k1": 2.0,
        "potential.epsilon": 1e-3,
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.9,
        "init.phi0.hi": 0.9, "init.phi0.width": 0.1,
        "init.sigma0.kind": "constant", "init.sigma0.value": 0.2,
        "controls.u1.kind": "gaussian_pulse", "controls.u1.amplitude": 0.5,
        "controls.u1.center_x": 0.4, "controls.u1.width": 0.15,
        "controls.u1.t_on": 0.0, "controls.u1.t_off": 0.3,
        "controls.u2.kind": "sinusoid", "controls.u2.amplitude": 0.3,
        "controls.u2.omega": 2.0,
    })
    return {
        "criterion3": _conservation_config(default_config()),
        "criterion7_log": criterion7_log,
        "ramp2d": ramp2d,
        "limit_log": limit_log,
    }


def fingerprint(cfg):
    sc = build_scenario(cfg)
    traj = _run_scenario(sc)
    out = {f"norm_{name}": sc.grid.h_norm(getattr(traj.final, name))
           for name in ("phi", "mu", "sigma")}
    for name in ("mass_phi", "mass_sigma", "mass_v"):
        series = getattr(traj, name)
        out[f"{name}_first"] = float(series[0])
        out[f"{name}_last"] = float(series[-1])
    return out


CG_TOLS = ("1e-10", "1e-13")  # the default and a converged Jacobi-CG solve


@pytest.mark.parametrize("case", sorted(fingerprint_configs()))
@pytest.mark.parametrize("solver", ["cosine", "jacobi"])
@pytest.mark.parametrize("cg_tol", CG_TOLS)
def test_seed_fingerprint(case, solver, cg_tol, request):
    # Jacobi-CG is compared with the seed at the same tolerance.  The cosine
    # preconditioner solves constant shifts exactly, so it reproduces the
    # seed's converged solution rather than its truncation at 1e-10 (which
    # moves criterion 3's final mass of v by 8.5e-12).
    if solver == "jacobi":
        request.getfixturevalue("jacobi_solves")
    record = json.loads(FINGERPRINT.read_text())[case]
    want = record[cg_tol if solver == "jacobi" else CG_TOLS[-1]]
    cfg = fingerprint_configs()[case].with_updates({"solver.cg_tol": float(cg_tol)})
    got = fingerprint(cfg)
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        # relative 1e-9; values below 1e-3 in magnitude are roundoff-sized
        # masses and are compared against 1e-3
        assert abs(got[key] - ref) <= 1e-9 * max(abs(ref), 1e-3), (key, got[key], ref)


def wide_shift_config():
    """A 20-step run whose phase Jacobian shift tau/dt + F1''(phi') is too
    wide for Richardson sweeps: no fingerprinted scenario reaches the CG
    path of ``Grid._shifted_cg``."""
    return default_config(**{
        "grid.n": [32], "time.T": 0.02, "time.dt": 1e-3, "model.tau": 0.01,
        "init.phi0.kind": "cosine_bump", "init.phi0.amplitude": 0.9,
    })


def test_wide_shift_run_matches_the_jacobi_oracle(request, monkeypatch):
    solve, calls = Grid.solve_spd, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Grid, "solve_spd", counted)
        got = fingerprint(wide_shift_config())
    assert calls
    request.getfixturevalue("jacobi_solves")
    want = fingerprint(wide_shift_config().with_updates({"solver.cg_tol": 1e-13}))
    for key, ref in want.items():
        # the bound of test_seed_fingerprint
        assert abs(got[key] - ref) <= 1e-9 * max(abs(ref), 1e-3), (key, got[key], ref)


def test_fingerprint_entries_name_their_solver_and_commit():
    data = json.loads(FINGERPRINT.read_text())
    for name, entry in data.items():
        assert entry["solver"] in ("jacobi", "cosine"), name
        assert entry["commit"], name
    # the scenarios come from the Jacobi-CG seed, the study tables from the
    # default cosine solve
    assert {data[case]["solver"] for case in fingerprint_configs()} == {"jacobi"}
    assert {entry["solver"] for name, entry in data.items()
            if name not in fingerprint_configs()} == {"cosine"}


# -- determinism across BLAS thread counts ---------------------------------------


@pytest.mark.parametrize("kind", ["logarithmic", "regular"])
def test_outputs_identical_across_blas_threads(tmp_path, kind):
    # the dense cosine transforms and the CG dot products go through BLAS;
    # 64 x 64 is the benchmark's 2-D size
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.dim = 2\ngrid.n = 64\ntime.T = 0.01\ntime.dt = 1e-3\n"
        "time.record_every = 10\noutput.dump_fields = true\n"
        f"potential.kind = {kind}\nmodel.P.kind = ramp\nmodel.alpha = 0.1\n"
        "init.phi0.kind = cosine_bump\ninit.phi0.amplitude = 0.5\n"
        "init.sigma0.kind = constant\ninit.sigma0.value = 0.5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = tmp_path / f"t{threads}"
        subprocess.run(
            [sys.executable, "-c", "import sys; from chrelax.cli import dispatch; "
             "sys.exit(dispatch(sys.argv[1:]))",
             "simulate", "--config", str(cfg), "--out", str(out)],
            env=env, check=True, capture_output=True)
        files = sorted(out.rglob("*.csv"))
        assert any(f.name.startswith("diagnostics_") for f in files)
        outputs.append({f.relative_to(out): f.read_bytes() for f in files})
    assert outputs[0] == outputs[1]


# -- agreement across numpy's SIMD dispatch -----------------------------------


def dispatched_features():
    """The SIMD features numpy dispatches to that this host has enabled, or
    None for a numpy without __cpu_dispatch__ or __cpu_features__."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    dispatch = getattr(umath, "__cpu_dispatch__", None)
    features = getattr(umath, "__cpu_features__", None)
    if dispatch is None or features is None:
        return None
    return [name for name in dispatch if features.get(name)]


SIMD_RUNS = {
    "1d-logarithmic": (
        "grid.n = 128\ntime.T = 0.05\ntime.dt = 1e-3\ntime.record_every = 25\n"
        "potential.kind = logarithmic\nmodel.alpha = 0.1\n"
        "init.phi0.kind = tanh_interface\ninit.phi0.width = 0.1\n"
        "init.sigma0.kind = constant\ninit.sigma0.value = 0.2\n"
        "controls.u2.kind = sinusoid\ncontrols.u2.amplitude = 0.3\n"),
    "2d-regular": (
        "grid.dim = 2\ngrid.n = 32\ntime.T = 0.01\ntime.dt = 1e-3\n"
        "time.record_every = 5\npotential.kind = regular\nmodel.P.kind = ramp\n"
        "model.alpha = 0.1\ninit.phi0.kind = cosine_bump\n"
        "init.phi0.amplitude = 0.5\ninit.sigma0.kind = constant\n"
        "init.sigma0.value = 0.5\n"),
}


@pytest.mark.parametrize("case", sorted(SIMD_RUNS))
def test_outputs_within_fingerprint_bound_across_simd_dispatch(tmp_path, case):
    # the same simulate as is and with every dispatched feature disabled,
    # which leaves numpy's baseline kernels: every number of the diagnostics
    # and the field dumps within the bound of test_seed_fingerprint
    features = dispatched_features()
    if features is None:
        pytest.skip("this numpy has no __cpu_dispatch__ or __cpu_features__")
    if not features:
        pytest.skip("no dispatched SIMD feature is enabled on this host")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SIMD_RUNS[case] + "output.dump_fields = true\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outputs = []
    for label, env in (("as_is", base),
                       ("baseline", dict(base, NPY_DISABLE_CPU_FEATURES=" ".join(features)))):
        out = tmp_path / label
        subprocess.run(
            [sys.executable, "-c", "import sys; from chrelax.cli import dispatch; "
             "sys.exit(dispatch(sys.argv[1:]))",
             "simulate", "--config", str(cfg), "--out", str(out)],
            env=env, check=True, capture_output=True)
        outputs.append({f.relative_to(out): f.read_text().splitlines()
                        for f in sorted(out.rglob("*.csv"))})
    as_is, baseline = outputs
    assert sorted(as_is) == sorted(baseline)
    assert any(f.name.startswith("diagnostics_") for f in as_is)
    worst, where = 0.0, None
    for name, lines in as_is.items():
        assert len(lines) == len(baseline[name]), name
        for row, other in zip(lines[1:], baseline[name][1:]):
            for ref, got in zip(row.split(","), other.split(",")):
                ref, got = float(ref), float(got)
                dev = abs(got - ref) / max(abs(ref), 1e-3)
                if dev > worst:
                    worst, where = dev, name
    print(f"{case}: largest deviation {worst:.3g} relative (1e-3 floor) in {where}, "
          f"with {' '.join(features)} disabled")
    assert worst <= 1e-9


def record(names):
    """Re-record the named fingerprint entries (all when none is named),
    each with the solver it names."""
    from conftest import jacobi_solve_shifted
    from test_acceptance import pinned_studies, study_fingerprint

    data = json.loads(FINGERPRINT.read_text())
    scenarios, studies = fingerprint_configs(), pinned_studies()
    unknown = set(names) - set(scenarios) - set(studies)
    if unknown:
        sys.exit(f"unknown fingerprint entries: {sorted(unknown)}")
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=Path(__file__).parent,
        capture_output=True, text=True).stdout.strip() or "unknown"
    for name in names or sorted(data):
        solver = data.get(name, {}).get("solver", "cosine")
        with (mock.patch.object(Grid, "solve_shifted", jacobi_solve_shifted)
              if solver == "jacobi" else contextlib.nullcontext()):
            if name in scenarios:
                entry = {tol: fingerprint(scenarios[name].with_updates(
                    {"solver.cg_tol": float(tol)})) for tol in CG_TOLS}
            else:
                entry = study_fingerprint(studies[name]())
        data[name] = dict(entry, solver=solver, commit=commit)
        print(f"recorded {name} with the {solver} solve")
    FINGERPRINT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINT}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_solve.py --record [ENTRY ...]")
    record(sys.argv[2:])
