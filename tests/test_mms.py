"""A check of the scheme against an exact solution (1-D manufactured solutions).

Every other convergence check compares the solver with itself.  Here
phi = a(t) cos(pi x) and sigma = s0 + b(t) cos(pi x) are prescribed, mu is
taken from the phase equation with F' = r^3 - r, and the controls u1
(truncation ``one``) and u2 absorb what is left of the potential and
nutrient equations (the method of manufactured solutions; Roache 2002).
Since cos^3 = (3 cos + cos 3)/4, every field is a sum of cosine modes,
and cosines are eigenvectors of the discrete no-flux Laplacian on the
cell centres, so the space error is O(h^2).  The time error is O(dt), so
under dt proportional to h^2 the observed order in h is 2, and at a fixed
fine h the observed order in dt is 1.  The controls
and the initial data are duck-typed: anything with ``.sample(t, grid)``
or ``.build(grid)`` will do, here a ``SimpleNamespace``.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from chrelax import (
    Controls,
    Grid,
    InitialData,
    InvalidParams,
    ModelParams,
    ProliferationSpec,
    SchemeConfig,
    SchemeUnstable,
    SplitPotential,
    TruncationSpec,
    run,
    stepper,
)

PI2 = math.pi**2
T = 0.1
S0 = 0.2
EPS = 1e-9  # Yosida parameter: F1'_eps is r^3 up to O(eps)
NS = (8, 16, 32, 64)


def trig(c, s, omega, theta):
    """f(t) = c + s sin(omega t + theta), as f(t, k) = the k-th derivative."""
    def f(t, k=0):
        return (c if k == 0 else 0.0) + s * omega**k * math.sin(
            omega * t + theta + 0.5 * k * math.pi)
    return f


A = trig(0.4, 0.2, 3.0, 0.3)  # phi = A(t) cos(pi x), |phi| <= 0.6
B = trig(0.1, 0.3, 2.0, 1.1)  # sigma = S0 + B(t) cos(pi x)


def cosines(grid):
    x = grid.coordinates()[0]
    return np.cos(math.pi * x), np.cos(3.0 * math.pi * x)


class Manufactured:
    """The exact solution for one parameter set, and the controls it needs."""

    def __init__(self, alpha, tau, p0, chi=1.0):
        self.alpha, self.tau, self.p0, self.chi = alpha, tau, p0, chi

    def mu_modes(self, t, k=0):
        """(m0, m1, m3) of the k-th time derivative (k <= 2) of
        mu = m0 + m1 cos(pi x) + m3 cos(3 pi x)
           = tau phi_t - lap phi + phi^3 - phi - chi sigma."""
        a = [A(t, j) for j in range(4)]
        cube = (a[0]**3, 3 * a[0]**2 * a[1],
                6 * a[0] * a[1]**2 + 3 * a[0]**2 * a[2])[k]  # (a^3)^(k)
        m1 = (self.tau * a[k + 1] + (PI2 - 1.0) * a[k] + 0.75 * cube
              - self.chi * B(t, k))
        return (-self.chi * S0 if k == 0 else 0.0), m1, 0.25 * cube

    def mu(self, t, grid, k=0):
        m0, m1, m3 = self.mu_modes(t, k)
        c1, c3 = cosines(grid)
        return m0 + m1 * c1 + m3 * c3

    def phi(self, t, grid):
        return A(t) * cosines(grid)[0]

    def sigma(self, t, grid):
        return S0 + B(t) * cosines(grid)[0]

    def exchange(self, t, grid):
        # P (sigma + chi (1 - phi) - mu), which both controls contain
        return self.p0 * (self.sigma(t, grid) + self.chi * (1.0 - self.phi(t, grid))
                          - self.mu(t, grid))

    def u1(self, t, grid):
        # alpha mu_tt + phi_t - lap mu = exchange - u1
        _, m1, m3 = self.mu_modes(t)
        c1, c3 = cosines(grid)
        lap_mu = -PI2 * (m1 * c1 + 9.0 * m3 * c3)
        return (self.exchange(t, grid) - self.alpha * self.mu(t, grid, 2)
                - A(t, 1) * c1 + lap_mu)

    def u2(self, t, grid):
        # sigma_t - lap sigma = -chi lap phi - exchange + u2
        c1, _ = cosines(grid)
        return ((B(t, 1) + PI2 * B(t) - self.chi * PI2 * A(t)) * c1
                + self.exchange(t, grid))

    def error(self, n, nsteps):
        """Largest discrete L2 error of phi, mu and sigma at T on n cells,
        after nsteps steps."""
        grid = Grid(n)
        params = ModelParams(
            alpha=self.alpha, tau=self.tau, chi=self.chi,
            proliferation=ProliferationSpec("constant", p0=self.p0),
            truncation=TruncationSpec("one"))
        controls = Controls(u1=SimpleNamespace(sample=self.u1),
                            u2=SimpleNamespace(sample=self.u2))
        init = InitialData(
            mu0=SimpleNamespace(build=lambda g: self.mu(0.0, g)),
            mu0_prime=SimpleNamespace(build=lambda g: self.mu(0.0, g, 1)),
            phi0=SimpleNamespace(build=lambda g: self.phi(0.0, g)),
            sigma0=SimpleNamespace(build=lambda g: self.sigma(0.0, g)))
        final = run(params, SplitPotential.regular(), controls, init, grid, T,
                    SchemeConfig(dt=T / nsteps, eps=EPS)).final
        return max(grid.h_norm(final.phi - self.phi(T, grid)),
                   grid.h_norm(final.mu - self.mu(T, grid)),
                   grid.h_norm(final.sigma - self.sigma(T, grid)))


def halving_orders(errors):
    return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]


def observed_orders(alpha, tau, p0):
    # T / dt = n^2 / 8 steps: the time error follows the O(h^2) space error
    m = Manufactured(alpha, tau, p0)
    errors = [m.error(n, n * n // 8) for n in NS]
    return errors, halving_orders(errors)


PARAMETER_SETS = pytest.mark.parametrize("alpha, tau, p0", [
    (0.1, 1.0, 2.0),
    (0.0, 1.0, 1.0),  # tau P = 1: the limit scheme's bounded sawtooth
    (0.0, 1.0, 2.0),
], ids=["alpha=0.1", "alpha=0,tauP=1", "alpha=0,tauP=2"])


@PARAMETER_SETS
def test_observed_order_two_under_dt_proportional_to_h2(alpha, tau, p0):
    errors, orders = observed_orders(alpha, tau, p0)
    assert all(1.8 <= q <= 2.2 for q in orders), (errors, orders)


@PARAMETER_SETS
def test_observed_order_one_in_dt_at_fixed_fine_h(alpha, tau, p0):
    # at n = 128 the space error stays well below the time error down to
    # T / dt = 80; at n = 64 the alpha = 0 sets already reach it there
    m = Manufactured(alpha, tau, p0)
    errors = [m.error(128, nsteps) for nsteps in (10, 20, 40, 80)]
    orders = halving_orders(errors)
    assert all(0.9 <= q <= 1.15 for q in orders), (errors, orders)


def test_limit_run_is_refused_below_unit_tau_p_where_its_order_is_lost(monkeypatch):
    # tau P = 1.25 keeps the order, as tau P = 1 and 2 do above
    errors, orders = observed_orders(0.0, 1.0, 1.25)
    assert all(1.8 <= q <= 2.2 for q in orders), (errors, orders)
    # at tau P = 0.9 validate refuses the run
    with pytest.raises(InvalidParams, match=r"tau \* min P >= 1"):
        Manufactured(0.0, 1.0, 0.9).error(NS[0], NS[0] ** 2 // 8)
    # and past validate the order is lost: the error stops falling or the
    # growing increments trip the alpha = 0 guard
    monkeypatch.setattr(stepper, "validate", lambda *args: [])
    try:
        errors, orders = observed_orders(0.0, 1.0, 0.9)
    except SchemeUnstable:
        return
    assert not all(1.8 <= q <= 2.2 for q in orders), (errors, orders)
