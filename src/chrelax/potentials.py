"""Double-well potentials split into a convex part plus a smooth perturbation.

Every potential is handled as F = F1 + F2 where F1 is convex, lower
semicontinuous, nonnegative with F1(0) = 0, and F2 has a globally Lipschitz
derivative.  Three kinds are built in:

``regular``
    F(r) = (1 - r^2)^2 / 4 on all of R, split as F1(r) = r^4 / 4 and
    F2(r) = 1/4 - r^2 / 2.

``logarithmic``
    F(r) = (1 + r) ln(1 + r) + (1 - r) ln(1 - r) - k1 r^2 on [-1, 1]
    (with 0 ln 0 := 0, so F1(+-1) = 2 ln 2) and +infinity outside.
    F1 is the entropy term, F2(r) = -k1 r^2, and k1 > 1 so that F is a
    genuine double well.

``obstacle``
    F(r) = k2 (1 - r^2) on [-1, 1], +infinity outside.  F1 is the
    indicator function of [-1, 1], F2(r) = k2 (1 - r^2), k2 > 0.

The implicit phase step never needs F1' itself, only its Yosida
regularisation F1'_eps, which is single valued and globally Lipschitz with
constant 1/eps.  It is evaluated through the resolvent r -> x solving

    x + eps * s(x) = r,      s = the monotone section generating dF1,

which for the regular kind is a scalar cubic (``_solve_cubic``), for the
logarithmic kind a scalar transcendental equation solved by safeguarded
Newton (``_solve_entropy``), started warm from a hint ``near`` when one
is given (``_entropy_near``), and for the obstacle kind the projection
onto [-1, 1].  The Newton solves take RESOLVENT_TOL as the tolerance of
their residual x + eps s(x) - r and RESOLVENT_MAX_ITER updates as their
budget, and raise NewtonDivergence when the budget runs out.  All
operations act pointwise and accept floats or numpy arrays of any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NewtonDivergence, OutsideSubdifferentialDomain

LOG2X2 = 2.0 * np.log(2.0)


# the resolvent's residual tolerance and Newton budget, for every kind
RESOLVENT_TOL = 1e-12
RESOLVENT_MAX_ITER = 100


@dataclass(frozen=True)
class YosidaParams:
    """The regularisation weight eps of F1'_eps, positive and finite."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise InvalidParams(f"epsilon must be positive and finite, got {self.epsilon}")


def _as_array(r):
    return np.asarray(r, dtype=float)


def _like(r, out):
    # scalar in, scalar out
    if np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SplitPotential:
    """One double well F = F1 + F2 with its convex-analysis toolbox.

    Every construction checks the kind and the well-shape constraints
    (k1 > 1, k2 > 0) and raises InvalidParams on a violation.
    """

    KINDS = ("regular", "logarithmic", "obstacle")

    kind: str
    k1: float = 2.0
    k2: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParams(f"unknown potential kind {self.kind!r}, expected one of {self.KINDS}")
        if self.kind == "logarithmic" and not self.k1 > 1.0:
            raise InvalidParams(f"logarithmic potential needs k1 > 1, got k1 = {self.k1}")
        if self.kind == "obstacle" and not self.k2 > 0.0:
            raise InvalidParams(f"obstacle potential needs k2 > 0, got k2 = {self.k2}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def regular():
        return SplitPotential("regular")

    @staticmethod
    def logarithmic(k1=2.0):
        return SplitPotential("logarithmic", k1=float(k1))

    @staticmethod
    def obstacle(k2=1.0):
        return SplitPotential("obstacle", k2=float(k2))

    # -- domain ------------------------------------------------------

    @property
    def domain(self):
        """Effective domain of F1 as a (lo, hi) pair."""
        if self.kind == "regular":
            return (-np.inf, np.inf)
        return (-1.0, 1.0)

    # -- plain values --------------------------------------------------

    def f1(self, r):
        """Convex part.  +infinity outside the effective domain."""
        a = _as_array(r)
        if self.kind == "regular":
            return _like(r, 0.25 * a**4)
        inside = np.abs(a) <= 1.0
        if self.kind == "obstacle":
            out = np.where(inside, 0.0, np.inf)
            return _like(r, out)
        b = np.clip(a, -1.0, 1.0)
        # 0 ln 0 := 0 at the endpoints
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(1.0 + b > 0.0, (1.0 + b) * np.log1p(b), 0.0) + np.where(
                1.0 - b > 0.0, (1.0 - b) * np.log1p(-b), 0.0
            )
        out = np.where(inside, val, np.inf)
        return _like(r, out)

    def f2_prime(self, r):
        a = _as_array(r)
        if self.kind == "regular":
            return _like(r, -a)
        if self.kind == "logarithmic":
            return _like(r, -2.0 * self.k1 * a)
        return _like(r, -2.0 * self.k2 * a)

    # -- resolvent and Yosida machinery ---------------------------------

    def resolvent(self, r, yp, near=None):
        """x solving x + eps * dF1(x) ∋ r, the proximal point of r.

        Nonexpansive in r; the result lies in the closure of the effective
        domain of F1.  ``near`` is an optional start hint for the
        logarithmic kind (``_entropy_near``).
        """
        return _like(r, self._evaluate(_as_array(r), yp, near)[0])

    def yosida_prime(self, r, yp):
        """F1'_eps(r) = (r - resolvent(r)) / eps, Lipschitz with constant 1/eps."""
        return _like(r, self._evaluate(_as_array(r), yp)[1])

    def yosida_curvature(self, r, yp):
        """Pointwise derivative of F1'_eps, used in the phase-step Jacobian.

        Lies in [0, 1/eps]; for the obstacle kind it is the two-valued
        slope of the piecewise-linear Yosida derivative (0 inside the
        interval, 1/eps outside).
        """
        a = _as_array(r)
        return _like(r, self._curvature_at(a, self._evaluate(a, yp)[0], yp))

    def _evaluate(self, a, yp, near=None):
        # (J(a), F1'_eps(a)) for an array a from one resolvent solve, with
        # near as in resolvent; the phase step calls it and _curvature_at
        # apart, as it reads the curvature only where it solves a correction
        eps = yp.epsilon
        if self.kind == "regular":
            return _solve_cubic(a, eps, RESOLVENT_TOL, RESOLVENT_MAX_ITER)
        if self.kind == "obstacle":
            x = np.clip(a, -1.0, 1.0)
            return x, (a - x) / eps
        if near is not None:
            warm = _entropy_near(a, eps, RESOLVENT_TOL, near)
            if warm is not None:
                return warm
        x = _solve_entropy(a, eps, RESOLVENT_TOL, RESOLVENT_MAX_ITER)
        interior = np.abs(x) < 1.0
        if interior.all():  # no cell on the bounds: the section itself
            return x, _entropy_slope(x)
        xs = np.where(interior, x, 0.0)
        return x, np.where(interior, np.log1p(xs) - np.log1p(-xs), (a - x) / eps)

    def _curvature_at(self, a, x, yp):
        # derivative of F1'_eps at a given the resolvent x = J(a)
        eps = yp.epsilon
        if self.kind == "obstacle":
            return np.where(np.abs(a) <= 1.0, 0.0, 1.0 / eps)
        if self.kind == "regular":
            c = 3.0 * x * x
            return c / (1.0 + eps * c)
        gap = np.maximum(1.0 - x * x, 0.0)
        return 2.0 / (gap + 2.0 * eps)

    def moreau(self, r, yp):
        """Moreau envelope F1_eps(r) = F1(J(r)) + |r - J(r)|^2 / (2 eps).

        Satisfies 0 <= F1_eps <= F1 and converges to F1 monotonically as
        eps decreases.
        """
        a = _as_array(r)
        x = _as_array(self.resolvent(a, yp))
        base = 0.0 if self.kind == "obstacle" else _as_array(self.f1(x))
        return _like(r, base + 0.5 * (a - x) ** 2 / yp.epsilon)

    def minimal_section(self, r):
        """Element of minimal norm of dF1(r).

        Defined only on the domain of the subdifferential: everywhere for
        the regular kind, the open interval (-1, 1) for the logarithmic
        kind, the closed interval [-1, 1] for the obstacle kind (where the
        minimal element is 0).
        """
        a = _as_array(r)
        if self.kind == "regular":
            return _like(r, a**3)
        if self.kind == "obstacle":
            if np.any(np.abs(a) > 1.0):
                raise OutsideSubdifferentialDomain(
                    "obstacle subdifferential is empty outside [-1, 1]"
                )
            return _like(r, np.zeros_like(a))
        if np.any(np.abs(a) >= 1.0):
            raise OutsideSubdifferentialDomain(
                "logarithmic subdifferential is empty outside (-1, 1)"
            )
        return _like(r, np.log1p(a) - np.log1p(-a))


# -- scalar solves, vectorised over flat arrays -------------------------


def _abs_max(v):
    # max |v| over every axis (NaN if a cell is, 0 if v is empty), by the
    # ufunc's reduce without ndarray.max's Python wrapper
    return np.maximum.reduce(np.abs(v), axis=None, initial=0.0)


def _solve_cubic(r, eps, tol, max_iter):
    """Root x of x + eps x^3 = r, and F1'_eps(r) = x^3, which avoids the
    cancellation of (r - x)/eps.

    Starts from the closed form x0 = 2/sqrt(3 eps) sinh(asinh(1.5 sqrt(3 eps)
    r) / 3) (Holmes, Math. Gazette 86, 2002), a few ulp from the root;
    Newton, with the residual test and budget, refines cells past the
    start's roundoff.  An iterate also passes where every residual is
    within 8 ulp of the terms it sums, which ends a call on large |r|.
    Where 1.5 sqrt(3 eps) r is subnormal the start keeps only that
    product's bits, far inside tol."""
    # cubes as products: within 1 ulp of x**3, and faster than numpy's pow
    # on negative bases
    s = math.sqrt(3.0 * eps)
    x = (2.0 / s) * np.sinh(np.arcsinh((1.5 * s) * r) / 3.0)
    for it in range(max_iter + 1):
        f = x + eps * (cube := x * x * x) - r
        if _abs_max(f) <= tol:  # a NaN cell fails this test
            return x, cube
        # a residual within roundoff of the terms it sums is final too
        ax = np.abs(x)
        slack = 8.0 * np.spacing(ax + eps * (ax * ax * ax) + np.abs(r))
        if np.all(np.abs(f) <= np.maximum(tol, slack)):
            return x, cube
        if it == max_iter:
            raise NewtonDivergence(
                "resolvent Newton stalled for the regular kind",
                residual=float(np.max(np.abs(f))),
                iterations=max_iter,
            )
        x = x - f / (1.0 + 3.0 * eps * x * x)


def _entropy_slope(x):
    return np.log1p(x) - np.log1p(-x)


# Newton brackets the entropy root inside [-_EDGE, _EDGE].  A bracket counts
# as collapsed at 4 ulp of |x| + 1, which is 4 spacing(1) for every |x| < 1.
_EDGE = 1.0 - 1e-13
_EDGE_SLOPE = _entropy_slope(_EDGE)
_BRACKET_TOL = 4.0 * np.spacing(1.0)


def _entropy_near(r, eps, tol, near):
    """Warm root of x + eps ln((1+x)/(1-x)) = r, or None.

    Given ``near = (r0, F1'_eps(r0))`` at a nearby point r0, Newton starts
    from the linearised resolvent x0 = J(r0) + (r - r0) J'(r0), where
    J(r0) = r0 - eps F1'_eps(r0) and J'(r0) = g / (g + 2 eps) with
    g = 1 - J(r0)^2; given a hint at r itself, ``near = (r, fp0)`` with
    fp0 a prediction of F1'_eps(r), it starts from x0 = r - eps fp0.  At
    most two plain Newton updates follow.  Returns x and F1'_eps(r), the
    section at x, once every cell passes ``tol``.  Returns None, and the
    caller runs the safeguarded solve started cold, bit-identical to a
    call without ``near``, when some |r| is in the tail, an iterate leaves
    (-_EDGE, _EDGE) or is not finite, or some cell misses ``tol`` after
    two updates.
    """
    # a NaN cell makes each maximum below NaN, which fails every comparison
    if _abs_max(r) >= _EDGE + eps * _EDGE_SLOPE:
        return None
    r0, fp0 = near
    x = r0 - eps * fp0  # the resolvent at r0, up to its tolerance
    if r0 is not r:  # a hint at r itself is its own start
        gap = np.maximum(1.0 - x * x, 0.0)
        x = x + (r - r0) * (gap / (gap + 2.0 * eps))  # J'(r0) = gap/(gap + 2 eps)
    for it in range(3):
        if not _abs_max(x) < _EDGE:
            return None
        f = x + eps * (slope := _entropy_slope(x)) - r
        if _abs_max(f) <= tol:
            return x, slope
        if it < 2:
            x = x - f / (1.0 + eps * 2.0 / (1.0 - x * x))
    return None


def _solve_entropy(r_in, eps, tol, max_iter):
    """Root of x + eps ln((1+x)/(1-x)) = r on (-1, 1), safeguarded Newton.

    In the tail (|r| >= _EDGE + eps s(_EDGE)) the root is within a few ulp
    of +-1 and is taken from the asymptotic form 1 - x = 2 exp(-(r-x)/eps)
    instead of iterating on a collapsed bracket.  A cell stops moving once
    its residual is within ``tol`` or its bracket has collapsed.
    """
    shape = np.shape(r_in)
    r = np.asarray(r_in, dtype=float).reshape(-1)
    gedge = _EDGE + eps * _EDGE_SLOPE

    x = np.minimum(np.maximum(r, -0.9), 0.9)
    lo = np.full_like(r, -_EDGE)
    hi = np.full_like(r, _EDGE)

    tails = np.abs(r) >= gedge
    any_tail = tails.any()
    if any_tail:
        tail_hi = r >= gedge
        tail_lo = r <= -gedge
        x[tail_hi] = 1.0 - 2.0 * np.exp(-(r[tail_hi] - 1.0) / eps)
        x[tail_lo] = -1.0 + 2.0 * np.exp((r[tail_lo] + 1.0) / eps)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(max_iter + 1):
            f = x + eps * _entropy_slope(x) - r
            if any_tail:
                f[tails] = 0.0  # tail cells are final, and so converged
            conv = (np.abs(f) <= tol) | (hi - lo <= _BRACKET_TOL)
            if conv.all():
                break
            if it == max_iter:
                raise NewtonDivergence(
                    "resolvent Newton stalled for the logarithmic kind",
                    residual=float(np.max(np.abs(f[~conv]))),
                    iterations=max_iter,
                )
            # x stays inside [lo, hi], so moving the bracket of a converged
            # cell changes nothing: only the cells still working move
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            xn = x - f / (1.0 + eps * 2.0 / np.maximum(1.0 - x * x, 1e-300))
            inside = (lo < xn) & (xn < hi)  # false for NaN and +-inf too
            if not inside.all():
                xn = np.where(inside, xn, 0.5 * (lo + hi))
            x = np.where(conv, x, xn)
    return x.reshape(shape)
