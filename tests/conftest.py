"""Shared fixtures."""

import pytest


def jacobi_solve_shifted(self, shift, scale, rhs, tol=1e-10):
    """``Grid.solve_shifted`` by Jacobi-preconditioned CG, the solver the
    seed shipped with."""
    return self.solve_spd(
        lambda w: shift * w - scale * self.laplacian(w), rhs, tol,
        diag=shift + scale * self.laplacian_diag())


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
