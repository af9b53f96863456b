"""A check of the scheme against an exact solution (manufactured solutions).

Every other convergence check compares the solver with itself.  Here, on
the unit interval or square, phi = a(t) C(x) and sigma = s0 + b(t) C(x)
are prescribed, with C the product of cos(pi x) over the axes; mu is taken
from the phase equation with F' = F1' + F2' (r^3 - r for the regular kind,
ln((1+r)/(1-r)) - 2 k1 r for the logarithmic one), and the controls u1
(truncation ``one``) and u2 absorb what is left of the potential and
nutrient equations (the method of manufactured solutions; Roache 2002).
Every Laplacian the controls need is that of the continuous field, with
lap F'(phi) = F'''(phi) |grad phi|^2 + F''(phi) lap phi for the nonlinear
part, so the discrete Laplacian's O(h^2) error is the space error.  The
time error is O(dt), so under dt proportional to h^2 the observed order
in h is 2, and at a fixed fine h the observed order in dt is 1.  The
controls and the initial data are duck-typed: anything with
``.sample(t, grid)`` or ``.build(grid)`` will do, here a
``SimpleNamespace``.
"""

import math
import time
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
)

PI2 = math.pi**2
T = 0.1
S0 = 0.2
EPS = 1e-9  # Yosida parameter: F1'_eps is F1' up to O(eps)
NS = (8, 16, 32, 64)
K1 = 2.0  # the logarithmic kind's k1

# F'(r) = F1'(r) + F2'(r) and its first two derivatives, per potential kind
NONLINEAR = {
    "regular": (lambda r: r**3 - r, lambda r: 3.0 * r**2 - 1.0, lambda r: 6.0 * r),
    "logarithmic": (lambda r: np.log((1.0 + r) / (1.0 - r)) - 2.0 * K1 * r,
                    lambda r: 2.0 / (1.0 - r * r) - 2.0 * K1,
                    lambda r: 4.0 * r / (1.0 - r * r) ** 2),
}


def trig(c, s, omega, theta):
    """f(t) = c + s sin(omega t + theta), as f(t, k) = the k-th derivative."""
    def f(t, k=0):
        return (c if k == 0 else 0.0) + s * omega**k * math.sin(
            omega * t + theta + 0.5 * k * math.pi)
    return f


A = trig(0.4, 0.2, 3.0, 0.3)  # phi = A(t) C(x), |phi| <= 0.6
B = trig(0.1, 0.3, 2.0, 1.1)  # sigma = S0 + B(t) C(x)


def profile(grid):
    """C, the product of cos(pi x) over the axes, and |grad C|^2 / pi^2."""
    c = [np.cos(math.pi * x) for x in grid.coordinates()]
    grad2 = sum((1.0 - ca * ca) * math.prod(cb * cb for b, cb in enumerate(c) if b != a)
                for a, ca in enumerate(c))
    return math.prod(c), grad2


class Manufactured:
    """The exact solution for one parameter set, and the controls it needs."""

    def __init__(self, alpha, tau, p0, chi=1.0, dim=1, kind="regular"):
        self.alpha, self.tau, self.p0, self.chi = alpha, tau, p0, chi
        self.dim, self.kind = dim, kind
        self.lam = dim * PI2  # -lap C = lam C

    def mu(self, t, grid, k=0):
        """The k-th time derivative (k <= 2) of
        mu = tau phi_t - lap phi + F'(phi) - chi sigma."""
        f, df, d2f = NONLINEAR[self.kind]
        C = profile(grid)[0]
        phi, phi_t = A(t) * C, A(t, 1) * C
        nonlinear = (f(phi), df(phi) * phi_t,
                     d2f(phi) * phi_t**2 + df(phi) * A(t, 2) * C)[k]
        linear = self.tau * A(t, k + 1) + self.lam * A(t, k) - self.chi * B(t, k)
        return (-self.chi * S0 if k == 0 else 0.0) + linear * C + nonlinear

    def lap_mu(self, t, grid):
        _, df, d2f = NONLINEAR[self.kind]
        C, grad2 = profile(grid)
        phi = A(t) * C
        linear = self.tau * A(t, 1) + self.lam * A(t) - self.chi * B(t)
        return (-self.lam * linear * C + d2f(phi) * A(t) ** 2 * PI2 * grad2
                - df(phi) * self.lam * phi)

    def phi(self, t, grid):
        return A(t) * profile(grid)[0]

    def sigma(self, t, grid):
        return S0 + B(t) * profile(grid)[0]

    def exchange(self, t, grid):
        # P (sigma + chi (1 - phi) - mu), which both controls contain
        return self.p0 * (self.sigma(t, grid) + self.chi * (1.0 - self.phi(t, grid))
                          - self.mu(t, grid))

    def u1(self, t, grid):
        # alpha mu_tt + phi_t - lap mu = exchange - u1
        return (self.exchange(t, grid) - self.alpha * self.mu(t, grid, 2)
                - A(t, 1) * profile(grid)[0] + self.lap_mu(t, grid))

    def u2(self, t, grid):
        # sigma_t - lap sigma = -chi lap phi - exchange + u2
        return ((B(t, 1) + self.lam * B(t) - self.chi * self.lam * A(t))
                * profile(grid)[0] + self.exchange(t, grid))

    def error(self, n, nsteps):
        """Largest discrete L2 error of phi, mu and sigma at T on n cells per
        axis, after nsteps steps."""
        grid = Grid((n,) * self.dim)
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
        final = run(params, SplitPotential(self.kind, k1=K1), controls, init, grid,
                    T, SchemeConfig(dt=T / nsteps, eps=EPS)).final
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
    # at tau P = 0.9 initial_state refuses the run
    with pytest.raises(InvalidParams, match=r"tau \* min P >= 1"):
        Manufactured(0.0, 1.0, 0.9).error(NS[0], NS[0] ** 2 // 8)
    # and past that rule the order is lost: the error stops falling or the
    # growing increments trip the alpha = 0 guard
    monkeypatch.setattr(ProliferationSpec, "lower_bound", 1.0)
    try:
        errors, orders = observed_orders(0.0, 1.0, 0.9)
    except SchemeUnstable:
        return
    assert not all(1.8 <= q <= 2.2 for q in orders), (errors, orders)


@pytest.mark.parametrize("dim,kind,ns", [
    (2, "regular", NS[:3]),
    (1, "logarithmic", NS),
], ids=["2d-regular", "1d-logarithmic"])
def test_observed_order_two_in_2d_and_for_the_logarithmic_kind(dim, kind, ns):
    # alpha = 0.1, tau P = 2, T / dt = n^2 / 8 as above; the orders measured
    # 2.01 and 2.01 (2-D, n = 8-32) and 2.07, 2.02 and 2.01 (logarithmic,
    # n = 8-64), each set in about 0.2 s
    m = Manufactured(0.1, 1.0, 2.0, dim=dim, kind=kind)
    start = time.perf_counter()
    errors = [m.error(n, n * n // 8) for n in ns]
    elapsed = time.perf_counter() - start
    orders = halving_orders(errors)
    assert all(1.9 <= q <= 2.1 for q in orders), (errors, orders)
    assert elapsed < 2.0, f"wall budget exceeded: {elapsed:.2f} s >= 2 s"
