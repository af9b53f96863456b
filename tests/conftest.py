"""Shared fixtures."""

import numpy as np
import pytest


def laplacian_diag(grid):
    """Diagonal of -laplacian, for Jacobi preconditioning."""
    diag = np.zeros(grid.n)
    for ax, h in enumerate(grid.h):
        d = np.full(grid.n[ax], 2.0)
        d[0] = d[-1] = 1.0  # mirror ghosts drop one neighbour
        shape = [1] * grid.dim
        shape[ax] = grid.n[ax]
        diag += d.reshape(shape) / h**2
    return diag.reshape(-1)


def jacobi_solve_shifted(self, shift, scale, rhs, tol=1e-10):
    """``Grid.solve_shifted`` by Jacobi-preconditioned CG, the solver the
    seed shipped with."""
    diag = shift + scale * laplacian_diag(self)
    return self.solve_spd(
        lambda w: shift * w - scale * self.laplacian(w), rhs, tol,
        10 * self.ncells + 50, precond=lambda r: r / diag)


@pytest.fixture
def jacobi_solves(monkeypatch):
    """Route every shifted-Laplacian solve through Jacobi-preconditioned CG.

    The cosine preconditioner solves the constant-shift systems of the
    conservation scenario exactly, so a loose ``solver.cg_tol`` no longer
    disturbs the conserved quantities.  Diagonal preconditioning keeps the
    truncation error that the negative controls need to show that the
    conservation check can fail.
    """
    from chrelax import Grid

    monkeypatch.setattr(Grid, "solve_shifted", jacobi_solve_shifted)
