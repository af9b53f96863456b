"""Tests for the split double-well potentials and their Moreau envelopes.

Resolvent values are cross-checked against independent root finders written
here (Cardano's formula for the cubic kind, plain bisection for the entropy
kind) so the Newton solvers in the package are never their own oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from chrelax import (
    InvalidParams,
    NewtonDivergence,
    OutsideSubdifferentialDomain,
    SplitPotential,
    YosidaParams,
    potentials,
)

LOG2X2 = 2.0 * math.log(2.0)


def cardano_resolvent(r, eps):
    """Real root of x + eps*x**3 = r via Cardano's formula.

    The depressed cubic x**3 + (1/eps) x - r/eps has one real root because
    its linear coefficient is positive.
    """
    p = 1.0 / eps
    q = -r / eps
    disc = math.sqrt(q * q / 4.0 + p * p * p / 27.0)
    return np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)


def bisect_entropy_resolvent(r, eps, iters=200):
    """Root of x + eps*log((1+x)/(1-x)) = r by bisection on (-1, 1)."""
    lo, hi = -1.0 + 1e-16, 1.0 - 1e-16

    def f(x):
        return x + eps * math.log((1.0 + x) / (1.0 - x)) - r

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- constructors and constants ----------------------------------------


def test_constructor_rejections():
    with pytest.raises(InvalidParams):
        SplitPotential("hexic")
    with pytest.raises(InvalidParams):
        SplitPotential.logarithmic(k1=1.0)
    with pytest.raises(InvalidParams):
        SplitPotential.obstacle(k2=0.0)
    with pytest.raises(InvalidParams):
        YosidaParams(epsilon=0.0)


def test_domains_and_constants():
    reg = SplitPotential.regular()
    log = SplitPotential.logarithmic(k1=2.0)
    obs = SplitPotential.obstacle(k2=1.5)
    assert reg.domain == (-math.inf, math.inf)
    assert log.domain == (-1.0, 1.0)
    assert obs.domain == (-1.0, 1.0)


def concave_part(pot, r):
    """F2 of the split F = F1 + F2, which the solver reads only through
    ``f2_prime``."""
    if pot.kind == "regular":
        return 0.25 - 0.5 * r * r
    if pot.kind == "logarithmic":
        return -pot.k1 * r * r
    return pot.k2 * (1.0 - r * r)


def test_smooth_parts_closed_form():
    rng = np.random.default_rng(11)
    r = rng.uniform(-2.0, 2.0, size=64)
    reg = SplitPotential.regular()
    log = SplitPotential.logarithmic(k1=2.0)
    obs = SplitPotential.obstacle(k2=1.5)
    np.testing.assert_allclose(reg.f1(r), r**4 / 4.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(concave_part(reg, r), 0.25 - r**2 / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(reg.f2_prime(r), -r, rtol=0, atol=1e-15)
    np.testing.assert_allclose(concave_part(log, r), -2.0 * r**2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(log.f2_prime(r), -4.0 * r, rtol=0, atol=1e-15)
    np.testing.assert_allclose(concave_part(obs, r), 1.5 * (1.0 - r**2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(obs.f2_prime(r), -3.0 * r, rtol=0, atol=1e-15)
    # f2_prime is the derivative of F2: central differences of a quadratic
    # are exact but for roundoff
    h = 1e-3
    for pot in (reg, log, obs):
        slope = (concave_part(pot, r + h) - concave_part(pot, r - h)) / (2 * h)
        np.testing.assert_allclose(pot.f2_prime(r), slope, rtol=0, atol=1e-10)


def test_entropy_endpoint_values():
    log = SplitPotential.logarithmic()
    # 0*log(0) is taken as 0, so F1(+-1) = 2 log 2 exactly.
    assert log.f1(1.0) == pytest.approx(LOG2X2, abs=1e-15)
    assert log.f1(-1.0) == pytest.approx(LOG2X2, abs=1e-15)
    assert log.f1(0.0) == 0.0
    assert math.isinf(log.f1(1.0 + 1e-12))
    obs = SplitPotential.obstacle()
    assert obs.f1(1.0) == 0.0
    assert obs.f1(0.3) == 0.0
    assert math.isinf(obs.f1(-1.0 - 1e-12))


def test_minimal_section_values_and_domain():
    reg = SplitPotential.regular()
    log = SplitPotential.logarithmic()
    obs = SplitPotential.obstacle()
    assert reg.minimal_section(2.0) == pytest.approx(8.0, abs=1e-15)
    # derivative of the entropy at 1/2 is log 3
    assert log.minimal_section(0.5) == pytest.approx(math.log(3.0), abs=1e-14)
    assert obs.minimal_section(1.0) == 0.0
    assert obs.minimal_section(-0.4) == 0.0
    with pytest.raises(OutsideSubdifferentialDomain):
        log.minimal_section(1.0)
    with pytest.raises(OutsideSubdifferentialDomain):
        log.minimal_section(np.array([0.0, -1.0]))
    with pytest.raises(OutsideSubdifferentialDomain):
        obs.minimal_section(1.0 + 1e-12)


# -- pointwise anchors -------------------------------------------------


def test_regular_resolvent_anchor():
    reg = SplitPotential.regular()
    yp = YosidaParams(epsilon=1.0)
    # x + x**3 = 2 has the root x = 1
    assert reg.resolvent(2.0, yp) == pytest.approx(1.0, abs=1e-12)
    assert reg.yosida_prime(2.0, yp) == pytest.approx(1.0, abs=1e-12)
    # envelope at the same point: F1(1) + (2 - 1)^2 / 2
    assert reg.moreau(2.0, yp) == pytest.approx(0.75, abs=1e-12)


def test_obstacle_closed_forms():
    obs = SplitPotential.obstacle()
    yp = YosidaParams(epsilon=0.5)
    r = np.array([-3.0, -1.0, -0.2, 0.7, 1.0, 2.0])
    np.testing.assert_allclose(
        obs.resolvent(r, yp), np.clip(r, -1.0, 1.0), rtol=0, atol=0)
    assert obs.yosida_prime(2.0, yp) == pytest.approx(2.0, abs=0)
    assert obs.yosida_prime(0.7, yp) == 0.0
    assert obs.moreau(2.0, yp) == pytest.approx(1.0, abs=0)
    assert obs.moreau(0.7, yp) == 0.0


def test_resolvent_against_cardano():
    reg = SplitPotential.regular()
    rng = np.random.default_rng(13)
    r = rng.uniform(-50.0, 50.0, size=400)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        got = reg.resolvent(r, yp)
        want = np.array([cardano_resolvent(ri, eps) for ri in r])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_resolvent_against_bisection():
    log = SplitPotential.logarithmic()
    rng = np.random.default_rng(17)
    r = rng.uniform(-6.0, 6.0, size=400)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        got = log.resolvent(r, yp)
        want = np.array([bisect_entropy_resolvent(ri, eps) for ri in r])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert np.max(np.abs(got)) <= 1.0


def test_entropy_resolvent_deep_tail():
    # far outside the well the true root is closer to +-1 than the nearest
    # representable number, so the resolvent lands exactly on the bound and
    # the section value falls back to the difference quotient
    log = SplitPotential.logarithmic()
    yp = YosidaParams(epsilon=1e-3)
    r = np.array([10.0, 1e3, 1e6, -1e6])
    x = log.resolvent(r, yp)
    assert np.all(np.abs(x) <= 1.0)
    gap_true = 2.0 * np.exp(-(np.abs(r) - 1.0) / yp.epsilon)
    assert np.all(gap_true <= np.spacing(1.0))
    np.testing.assert_allclose(x, np.sign(r), rtol=0, atol=0)
    np.testing.assert_allclose(
        log.yosida_prime(r, yp), (r - x) / yp.epsilon, rtol=0, atol=0)


def masked_entropy_resolvent(r, eps, tol, max_iter):
    """The safeguarded entropy Newton solve written with boolean-mask
    writes, one cell set at a time: the reference that the whole-array
    solver in the package must match bit for bit."""
    r = np.asarray(r, dtype=float).reshape(-1)
    slope = lambda x: np.log1p(x) - np.log1p(-x)  # noqa: E731
    edge = 1.0 - 1e-13
    gedge = edge + eps * slope(edge)
    x = np.clip(r, -0.9, 0.9)
    lo = np.full_like(r, -edge)
    hi = np.full_like(r, edge)
    tail_hi = r >= gedge
    tail_lo = r <= -gedge
    x[tail_hi] = 1.0 - 2.0 * np.exp(-(r[tail_hi] - 1.0) / eps)
    x[tail_lo] = -1.0 + 2.0 * np.exp((r[tail_lo] + 1.0) / eps)
    active = ~(tail_hi | tail_lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.where(active, x + eps * slope(x) - r, 0.0)
        for _ in range(max_iter):
            conv = (np.abs(f) <= tol) | (hi - lo <= 4.0 * np.spacing(np.abs(x) + 1.0))
            if np.all(conv | ~active):
                return x
            work = active & ~conv
            below = work & (f < 0.0)
            above = work & (f > 0.0)
            lo[below] = x[below]
            hi[above] = x[above]
            gp = 1.0 + eps * 2.0 / np.maximum(1.0 - x * x, 1e-300)
            xn = x - np.where(work, f / gp, 0.0)
            bad = work & ((xn <= lo) | (xn >= hi) | ~np.isfinite(xn))
            xn[bad] = 0.5 * (lo[bad] + hi[bad])
            x = np.where(work, xn, x)
            f = np.where(active, x + eps * slope(x) - r, 0.0)
        conv = (np.abs(f) <= tol) | (hi - lo <= 4.0 * np.spacing(np.abs(x) + 1.0))
        bad = active & ~conv
        if np.any(bad):
            raise NewtonDivergence("stalled", residual=float(np.max(np.abs(f[bad]))),
                                   iterations=max_iter)
    return x


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_entropy_resolvent_matches_masked_reference_bitwise(eps):
    rng = np.random.default_rng(23)
    gedge = potentials._EDGE + eps * potentials._EDGE_SLOPE
    r = np.concatenate([
        rng.uniform(-1.2, 1.2, 200),
        rng.uniform(-40.0, 40.0, 100),  # tails, where the asymptotic form applies
        1.0 + rng.uniform(0.0, 30.0 * eps, 50),  # between the well and the tail
        -1.0 - rng.uniform(0.0, 30.0 * eps, 50),
        [0.0, -0.0, 1.0, -1.0, gedge, -gedge, np.inf, -np.inf, 5e-324],
    ])
    assert np.any(r >= gedge) and np.any(r <= -gedge)
    for tol in (1e-12, 1e-14, 0.0):
        got = potentials._solve_entropy(r, eps, tol, 100)
        np.testing.assert_array_equal(
            bits(got), bits(masked_entropy_resolvent(r, eps, tol, 100)))
    # shape and scalars pass through
    grid_shaped = r[:40].reshape(5, 8)
    got = potentials._solve_entropy(grid_shaped, eps, 1e-12, 100)
    assert got.shape == (5, 8)
    np.testing.assert_array_equal(
        bits(got).reshape(-1), bits(masked_entropy_resolvent(r[:40], eps, 1e-12, 100)))


def test_entropy_resolvent_bisection_fallback():
    # from x0 = 0.9 the first Newton step for r = 1.01 leaves the bracket,
    # so the first update is a bisection
    eps, r = 1e-3, np.array([1.01, 0.3, -1.01])
    x0 = 0.9
    f0 = x0 + eps * (math.log1p(x0) - math.log1p(-x0)) - r[0]
    assert x0 - f0 / (1.0 + 2.0 * eps / (1.0 - x0 * x0)) >= potentials._EDGE
    got = potentials._solve_entropy(r, eps, 1e-12, 100)
    np.testing.assert_array_equal(
        bits(got), bits(masked_entropy_resolvent(r, eps, 1e-12, 100)))
    np.testing.assert_allclose(
        got, [bisect_entropy_resolvent(v, eps) for v in r], rtol=0, atol=1e-12)


def test_entropy_resolvent_stall_raises_like_reference(monkeypatch):
    r = np.array([0.5, -0.2, 0.99, 3.0])
    for max_iter in (1, 2):
        with pytest.raises(NewtonDivergence) as got:
            potentials._solve_entropy(r, 1e-3, 1e-12, max_iter)
        with pytest.raises(NewtonDivergence) as want:
            masked_entropy_resolvent(r, 1e-3, 1e-12, max_iter)
        assert "logarithmic" in str(got.value)
        assert got.value.iterations == max_iter
        assert got.value.residual == want.value.residual > 1e-12
    monkeypatch.setattr(potentials, "RESOLVENT_MAX_ITER", 1)
    with pytest.raises(NewtonDivergence):
        SplitPotential.logarithmic().resolvent(r, YosidaParams(epsilon=1e-3))


def closed_form_start(r, eps):
    """The regular resolvent's start, 2/sqrt(3 eps) sinh(asinh(1.5
    sqrt(3 eps) r) / 3)."""
    s = math.sqrt(3.0 * eps)
    return (2.0 / s) * np.sinh(np.arcsinh((1.5 * s) * r) / 3.0)


def pow_cubic_resolvent(r, eps, tol, max_iter):
    """The regular resolvent's Newton solve with cubes taken by pow, from
    the same closed-form start and with the same stopping test."""
    x = closed_form_start(r, eps)
    for _ in range(max_iter + 1):
        f = x + eps * x**3 - r
        slack = 8.0 * np.spacing(np.abs(x) + eps * np.abs(x) ** 3 + np.abs(r))
        if np.all(np.abs(f) <= np.maximum(tol, slack)):
            return x
        x = x - f / (1.0 + 3.0 * eps * x * x)
    raise AssertionError("the pow Newton missed the slack test")


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-5])
def test_regular_resolvent_products_within_2_ulp_of_pow(eps, monkeypatch):
    rng = np.random.default_rng(23)
    reg = SplitPotential.regular()
    yp = YosidaParams(epsilon=eps)
    max_iter = potentials.RESOLVENT_MAX_ITER
    for scale in (1e-3, 1.0, 50.0, 1e3):
        r = scale * rng.standard_normal(2000)
        for tol in (1e-12, 0.0):
            monkeypatch.setattr(potentials, "RESOLVENT_TOL", max(tol, 1e-300))
            want = pow_cubic_resolvent(r, eps, tol, max_iter)
            got, cube = potentials._solve_cubic(r, eps, tol, max_iter)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
            # the solve's cube is the section at its root, bit for bit
            np.testing.assert_array_equal(bits(cube), bits(got * got * got))
            # the residual check of the solve still holds
            resid = got + eps * got**3 - r
            slack = 8.0 * np.spacing(np.abs(got) + eps * np.abs(got) ** 3 + np.abs(r))
            assert np.all(np.abs(resid) <= np.maximum(tol, slack))
            prime = reg.yosida_prime(r, yp)
            cube = reg.resolvent(r, yp) ** 3
            assert np.all(np.abs(prime - cube) <= np.spacing(np.abs(cube)))


def exact_cubic_root(r, eps, x0):
    """The root of x + eps x^3 = r by Newton in exact rationals from x0,
    until an update moves it by less than 2^-200 of itself."""
    r, eps, x = Fraction(r), Fraction(eps), Fraction(x0)
    for _ in range(10):
        step = (x + eps * x**3 - r) / (1 + 3 * eps * x * x)
        x -= step
        if abs(step) <= abs(x) * Fraction(1, 2**200):
            return x
    raise AssertionError(f"exact Newton did not settle for r = {r}")


def ulps_from(got, exact):
    """|got - exact| in units of the spacing of doubles at the exact value."""
    return float(abs(Fraction(got) - exact) / Fraction(np.spacing(abs(float(exact)))))


# the largest distance from the exact root over the inputs of the test
# below was 3.84 ulp (eps = 1, r ~ 100), measured with numpy's AVX-512 sinh
# and arcsinh, which differ from the C library's in the last bits
CUBIC_ULPS = 5.0


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-5])
def test_regular_resolvent_within_a_few_ulp_of_the_exact_root(eps):
    rng = np.random.default_rng(41)
    tol, max_iter = potentials.RESOLVENT_TOL, 100
    worst = 0.0
    for r in [scale * rng.standard_normal(64) for scale in 10.0 ** np.arange(-3, 4)] + [
            np.array([1e300, -1e300])]:
        x, _ = potentials._solve_cubic(r, eps, tol, max_iter)
        worst = max(worst, *(ulps_from(a, exact_cubic_root(b, eps, a))
                             for a, b in zip(x.tolist(), r.tolist())))
    assert worst <= CUBIC_ULPS
    # +-0 keeps its sign
    x, cube = potentials._solve_cubic(np.array([0.0, -0.0]), eps, tol, max_iter)
    np.testing.assert_array_equal(bits(x), bits([0.0, -0.0]))
    np.testing.assert_array_equal(bits(cube), bits([0.0, -0.0]))
    # a subnormal r: 1.5 sqrt(3 eps) r rounds to a multiple of the smallest
    # subnormal q, and 2/sqrt(3 eps) scales that rounding back up, so the
    # start is within (4/(3 sqrt(3 eps)) + 1/2) q of the root rather than a
    # few ulp, and its residual passes tol at once
    q = 5e-324
    r = np.array([1e-310, -3e-312, 7e-322, q])
    x, _ = potentials._solve_cubic(r, eps, tol, max_iter)
    bound = 4.0 / (3.0 * math.sqrt(3.0 * eps)) + 0.5
    for a, b in zip(x.tolist(), r.tolist()):
        assert abs(Fraction(a) - exact_cubic_root(b, eps, b)) <= Fraction(bound * q)


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-5])
def test_regular_resolvent_takes_no_newton_update_for_r_up_to_1(eps):
    r = np.concatenate([np.linspace(-1.0, 1.0, 201), [0.5**20, -(0.5**40)]])
    tol = potentials.RESOLVENT_TOL
    x, cube = potentials._solve_cubic(r, eps, tol, 100)
    np.testing.assert_array_equal(bits(x), bits(closed_form_start(r, eps)))
    np.testing.assert_array_equal(bits(cube), bits(x * x * x))


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-5])
def test_regular_resolvent_stops_at_roundoff_slack(eps, monkeypatch):
    # a residual within roundoff of its terms ends the call, so a cell that
    # starts above tol does not run the whole budget over the whole array
    calls = []
    plain = potentials._abs_max

    def counted(v):
        calls.append(1)
        return plain(v)

    monkeypatch.setattr(potentials, "_abs_max", counted)
    tol = potentials.RESOLVENT_TOL
    rng = np.random.default_rng(43)
    for r in (np.array([1e300, -1e300]), 1e3 * rng.standard_normal(4000)):
        calls.clear()
        x, cube = potentials._solve_cubic(r, eps, tol, 100)
        # one residual test, and at most one update and a second test
        assert 1 <= len(calls) <= 2
        resid = x + eps * cube - r
        slack = 8.0 * np.spacing(np.abs(x) + eps * np.abs(x) ** 3 + np.abs(r))
        assert np.all(np.abs(resid) <= np.maximum(tol, slack))


def test_cubic_and_warm_entropy_solves_reduce_over_every_axis():
    # a 2-D (m, n) input gives the flat input's values in its shape, and a
    # 0-d one a scalar's; a reduce over axis 0 only fails on the 2-D input
    eps = 1e-2
    r = np.linspace(-0.9, 0.9, 24) ** 3
    for tol, max_iter in ((1e-12, 100), (0.0, 3)):  # no update; three
        x, cube = potentials._solve_cubic(r, eps, tol, max_iter)
        x2, cube2 = potentials._solve_cubic(r.reshape(4, 6), eps, tol, max_iter)
        assert x2.shape == cube2.shape == (4, 6)
        np.testing.assert_array_equal(bits(x2), bits(x.reshape(4, 6)))
        np.testing.assert_array_equal(bits(cube2), bits(cube.reshape(4, 6)))
        x0, cube0 = potentials._solve_cubic(np.array(r[5]), eps, tol, max_iter)
        assert np.ndim(x0) == np.ndim(cube0) == 0
        assert bits(x0) == bits(x[5]) and bits(cube0) == bits(cube[5])

    pot = SplitPotential.logarithmic()
    yp = YosidaParams(epsilon=eps)
    r0 = np.linspace(-0.9, 0.9, 24)
    near = cold_hint(pot, r0, yp)
    r = r0 + 1e-4 * np.cos(np.arange(r0.size))
    tol = potentials.RESOLVENT_TOL
    x, slope = potentials._entropy_near(r, eps, tol, near)
    x2, slope2 = potentials._entropy_near(
        r.reshape(4, 6), eps, tol, tuple(a.reshape(4, 6) for a in near))
    np.testing.assert_array_equal(bits(x2), bits(x.reshape(4, 6)))
    np.testing.assert_array_equal(bits(slope2), bits(slope.reshape(4, 6)))
    x0, slope0 = potentials._entropy_near(
        np.array(r[5]), eps, tol, tuple(np.array(a[5]) for a in near))
    assert np.ndim(x0) == 0 and np.isfinite(x0)
    assert abs(x0 + eps * potentials._entropy_slope(x0) - r[5]) <= tol
    # a NaN cell in a 2-D input sends it to the safeguarded solve
    bad = r.reshape(4, 6).copy()
    bad[2, 3] = np.nan
    assert potentials._entropy_near(
        bad, eps, tol, tuple(a.reshape(4, 6) for a in near)) is None


def test_newton_residual_within_tolerance():
    rng = np.random.default_rng(19)
    yp = YosidaParams(epsilon=1e-2)
    reg = SplitPotential.regular()
    r = rng.uniform(-3.0, 3.0, size=300)
    x = reg.resolvent(r, yp)
    assert np.max(np.abs(x + yp.epsilon * x**3 - r)) <= 1e-11
    log = SplitPotential.logarithmic()
    # keep the root away from the steep edge, where residual-in-f is no
    # longer a fair proxy for accuracy-in-x (the bisection test covers that)
    r = rng.uniform(-1.05, 1.05, size=300)
    x = log.resolvent(r, yp)
    resid = x + yp.epsilon * (np.log1p(x) - np.log1p(-x)) - r
    assert np.max(np.abs(resid)) <= 1e-9


# -- randomized property batteries -------------------------------------


def sample_points(kind, rng, n=1000):
    if kind == "regular":
        return rng.uniform(-3.0, 3.0, size=n)
    # keep strictly inside for the entropy, touch the bounds for the rest
    return rng.uniform(-1.0, 1.0, size=n) * (1.0 - 1e-3)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_envelope_inequality(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(23)
    r = sample_points(kind, rng)
    s = sample_points(kind, rng)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        env = pot.moreau(r, yp)
        # the infimum defining the envelope is attained at the resolvent,
        # so every competitor s gives an upper bound
        competitor = pot.f1(s) + (r - s) ** 2 / (2.0 * eps)
        assert np.all(env <= competitor + 1e-12)
        assert np.all(env >= -1e-15)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_domination_by_convex_part(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(29)
    r = sample_points(kind, rng)
    for eps in (1e-1, 1e-2, 1e-3):
        env = pot.moreau(r, YosidaParams(epsilon=eps))
        assert np.all(env <= pot.f1(r) + 1e-10)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_envelope_monotone_in_epsilon(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(31)
    r = sample_points(kind, rng)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        env = pot.moreau(r, YosidaParams(epsilon=eps))
        if prev is not None:
            # shrinking epsilon tightens the envelope from below
            assert np.all(env >= prev - 1e-10)
        prev = env


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_resolvent_nonexpansive(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(37)
    r = sample_points(kind, rng)
    s = sample_points(kind, rng)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        jr, js = pot.resolvent(r, yp), pot.resolvent(s, yp)
        assert np.all(np.abs(jr - js) <= np.abs(r - s) + 1e-12)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_yosida_lipschitz_and_monotone(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(41)
    r = sample_points(kind, rng)
    s = sample_points(kind, rng)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        yr, ys = pot.yosida_prime(r, yp), pot.yosida_prime(s, yp)
        assert np.all(np.abs(yr - ys) <= np.abs(r - s) / eps + 1e-10)
        assert np.all((yr - ys) * (r - s) >= -1e-12)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_odd_symmetry(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(43)
    r = sample_points(kind, rng)
    yp = YosidaParams(epsilon=1e-2)
    np.testing.assert_allclose(
        pot.resolvent(-r, yp), -pot.resolvent(r, yp), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        pot.yosida_prime(-r, yp), -pot.yosida_prime(r, yp), rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        pot.moreau(-r, yp), pot.moreau(r, yp), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_yosida_prime_is_section_at_resolvent(kind):
    pot = SplitPotential(kind)
    rng = np.random.default_rng(47)
    r = sample_points(kind, rng)
    for eps in (1e-1, 1e-2, 1e-3):
        yp = YosidaParams(epsilon=eps)
        j = pot.resolvent(r, yp)
        # resolvent identity: J + eps * dF1(J) ni r
        np.testing.assert_allclose(
            j + eps * pot.yosida_prime(r, yp), r, rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_curvature_matches_finite_difference(kind):
    pot = SplitPotential(kind)
    yp = YosidaParams(epsilon=1e-2)
    # stay away from the obstacle kinks where the derivative jumps
    if kind == "obstacle":
        pts = np.array([-2.0, -0.5, 0.0, 0.4, 3.0])
    else:
        pts = np.array([-2.0, -0.5, 0.0, 0.4, 2.0])
    d = 1e-6
    fd = (pot.yosida_prime(pts + d, yp) - pot.yosida_prime(pts - d, yp)) / (2 * d)
    np.testing.assert_allclose(
        pot.yosida_curvature(pts, yp), fd, rtol=1e-5, atol=1e-5)
    assert np.all(pot.yosida_curvature(pts, yp) >= 0.0)


def test_curvature_closed_forms():
    yp = YosidaParams(epsilon=0.5)
    reg = SplitPotential.regular()
    j = reg.resolvent(2.0, yp)
    assert reg.yosida_curvature(2.0, yp) == pytest.approx(
        3 * j**2 / (1 + 1.5 * j**2), rel=1e-12)
    obs = SplitPotential.obstacle()
    assert obs.yosida_curvature(0.2, yp) == 0.0
    assert obs.yosida_curvature(4.0, yp) == pytest.approx(2.0, abs=0)


def test_regular_resolvent_empty_input_and_stall(monkeypatch):
    reg = SplitPotential.regular()
    empty = reg.resolvent(np.empty(0), YosidaParams(epsilon=1.0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # a non-finite cell fails every residual test and the slack test after
    monkeypatch.setattr(potentials, "RESOLVENT_MAX_ITER", 3)
    yp = YosidaParams(epsilon=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(NewtonDivergence, match="regular") as ei, np.errstate(
                invalid="ignore"):
            reg.resolvent(np.array([50.0, bad]), yp)
        assert ei.value.iterations == potentials.RESOLVENT_MAX_ITER


def test_scalar_in_scalar_out():
    pot = SplitPotential.regular()
    yp = YosidaParams(epsilon=1e-2)
    assert np.isscalar(float(pot.resolvent(1.3, yp)))
    assert pot.resolvent(np.full(5, 1.3), yp).shape == (5,)
    a = pot.moreau(np.array([[0.1, 0.2], [0.3, 0.4]]), yp)
    assert a.shape == (2, 2)


# -- warm-started entropy resolvent ----------------------------------------


def cold_hint(pot, r0, yp):
    return (r0, pot.yosida_prime(r0, yp))


def parts(pot, r, yp, near=None):
    """(F1'_eps(r), its derivative) from one resolvent evaluation, started
    from ``near``, as the phase step takes them."""
    a = np.asarray(r, dtype=float)
    x, prime = pot._evaluate(a, yp, near)
    return prime, pot._curvature_at(a, x, yp)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_warm_entropy_resolvent_passes_the_residual_test(eps, monkeypatch):
    pot = SplitPotential.logarithmic()
    yp = YosidaParams(epsilon=eps)
    rng = np.random.default_rng(31)
    r0 = rng.uniform(-0.95, 0.95, 500)
    r = r0 + 1e-3 * rng.standard_normal(r0.size)
    near = cold_hint(pot, r0, yp)
    cold = pot.resolvent(r, yp)
    scalar_hint = cold_hint(pot, 0.3, yp)
    scalar_cold = pot.resolvent(0.3001, yp)
    tol = potentials.RESOLVENT_TOL
    x, _ = potentials._entropy_near(r, eps, tol, near)
    assert np.all(np.abs(x + eps * potentials._entropy_slope(x) - r) <= tol)
    assert np.max(np.abs(x - cold)) <= 2.0 * tol

    # the public entry points take the warm path
    def no_cold_solve(*args):
        raise AssertionError("the warm start fell back")

    monkeypatch.setattr(potentials, "_solve_entropy", no_cold_solve)
    np.testing.assert_array_equal(bits(pot.resolvent(r, yp, near)), bits(x))
    prime, curv = parts(pot, r, yp, near)
    np.testing.assert_array_equal(bits(prime), bits(potentials._entropy_slope(x)))
    np.testing.assert_array_equal(bits(curv), bits(pot._curvature_at(r, x, yp)))
    scalar = pot.resolvent(0.3001, yp, scalar_hint)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(scalar_cold, rel=1e-9)


def test_warm_start_is_the_linearised_resolvent(monkeypatch):
    # near its hint the linearisation is within tol of the root: the
    # start passes the residual test with no Newton update
    pot = SplitPotential.logarithmic()
    eps = 1e-3
    yp = YosidaParams(epsilon=eps)
    r0 = np.linspace(-0.99, 0.99, 199)
    r = r0 + 1e-7 * np.cos(np.arange(r0.size))
    near = cold_hint(pot, r0, yp)
    evaluations = []
    slope = potentials._entropy_slope

    def counted(x):
        evaluations.append(1)
        return slope(x)

    monkeypatch.setattr(potentials, "_entropy_slope", counted)
    assert potentials._entropy_near(r, eps, potentials.RESOLVENT_TOL, near) is not None
    assert len(evaluations) == 1


def two_newton_updates_stay_inside(x, r, eps):
    for _ in range(3):
        if not np.all(np.abs(x) < potentials._EDGE):
            return False
        f = x + eps * potentials._entropy_slope(x) - r
        x = x - f / (1.0 + 2.0 * eps / (1.0 - x * x))
    return True


def test_warm_entropy_resolvent_falls_back_to_the_cold_solve():
    pot = SplitPotential.logarithmic()
    eps = 1e-3
    yp = YosidaParams(epsilon=eps)
    gedge = potentials._EDGE + eps * potentials._EDGE_SLOPE
    rng = np.random.default_rng(37)
    r0 = rng.uniform(-0.9, 0.9, 64)
    r = r0 + 1e-4 * rng.standard_normal(r0.size)
    near = cold_hint(pot, r0, yp)
    assert potentials._entropy_near(r, eps, potentials.RESOLVENT_TOL, near) is not None

    far = np.full(4, 0.9)
    far_near = cold_hint(pot, np.full(4, -0.9), yp)
    x_far = far_near[0] - eps * far_near[1]
    gap = 1.0 - x_far * x_far
    x0 = x_far + (far - far_near[0]) * gap / (gap + 2.0 * eps)
    # the start and both Newton updates stay inside, yet miss the tolerance
    assert two_newton_updates_stay_inside(x0, far, eps)

    cases = {
        "tail": (np.where(np.arange(r.size) == 5, gedge, r), near),
        "tail_low": (np.where(np.arange(r.size) == 9, -2.0, r), near),
        "infinite_r": (np.where(np.arange(r.size) == 3, -np.inf, r), near),
        "non_finite_start": (r, (r0, np.where(r0 > 0, np.inf, near[1]))),
        "nan_hint": (r, (np.where(r0 > 0, np.nan, r0), near[1])),
        "start_outside": (r, (r0, near[1] - 1.5 / eps)),
        "no_verification": (far, far_near),
    }
    for name, (rr, hint) in cases.items():
        assert potentials._entropy_near(
            rr, eps, potentials.RESOLVENT_TOL, hint) is None, name
        np.testing.assert_array_equal(
            bits(pot.resolvent(rr, yp, hint)), bits(pot.resolvent(rr, yp)), name)
        for got, want in zip(parts(pot, rr, yp, hint), parts(pot, rr, yp)):
            np.testing.assert_array_equal(bits(got), bits(want), name)
    empty = np.empty(0)
    assert pot.resolvent(empty, yp, (empty, empty)).shape == (0,)


@pytest.mark.parametrize("kind", ["regular", "obstacle"])
def test_other_kinds_ignore_the_start_hint(kind):
    pot = SplitPotential(kind)
    yp = YosidaParams(epsilon=1e-3)
    rng = np.random.default_rng(41)
    r = rng.uniform(-1.5, 1.5, 200)
    hints = [cold_hint(pot, r + 1e-3, yp), cold_hint(pot, -r, yp), (np.nan, np.inf)]
    for hint in hints:
        np.testing.assert_array_equal(
            bits(pot.resolvent(r, yp, hint)), bits(pot.resolvent(r, yp)))
        for got, want in zip(parts(pot, r, yp, near=hint), parts(pot, r, yp)):
            np.testing.assert_array_equal(bits(got), bits(want))
