"""Model data for the relaxed tumour-growth system.

The state holds the chemical potential mu, its time derivative v, the
phase field phi, the nutrient sigma and the selection xi of the convex
part's subdifferential that the phase step produced.  Proliferation P(phi)
and the source truncation h(phi) are nonnegative, bounded, Lipschitz
shape functions; controls u1 (medication) and u2 (nutrient supply) are
closed-form space-time presets.

The config keys take their kinds (a spec's ``KINDS``) and defaults from
these specs, so a changed default changes every config digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .grid import Grid
from .potentials import SplitPotential, YosidaParams


def _ramp(phi):
    """clamp((1 + phi)/2, 0, 1), the shape of the ramp kinds of P and h."""
    return np.minimum(np.maximum(0.5 * (1.0 + phi), 0.0), 1.0)


def _cosine_modes(grid, mode, scale):
    """scale times the product over the axes of cos(mode pi x / L)."""
    out = np.full(grid.ncells, scale)
    for x, L in zip(grid.coordinates(), grid.length):
        out *= np.cos(mode * np.pi * x / L)
    return out


@dataclass(frozen=True)
class ProliferationSpec:
    """P(phi): ``constant`` p0 >= 0, or ``ramp`` p0 * clamp((1+phi)/2, 0, 1)."""

    KINDS = ("constant", "ramp")

    kind: str = "constant"
    p0: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParams(f"unknown proliferation kind {self.kind!r}")
        if not math.isfinite(self.p0):
            raise InvalidParams(f"proliferation rate p0 must be finite, got {self.p0}")
        if self.kind == "constant" and self.p0 < 0.0:
            raise InvalidParams("constant proliferation rate must be nonnegative")
        if self.kind == "ramp" and not self.p0 > 0.0:
            raise InvalidParams("ramp proliferation scale must be positive")

    def __call__(self, phi):
        if self.kind == "constant":
            return np.full_like(phi, self.p0)
        return self.p0 * _ramp(phi)

    def rate(self, phi):
        """P(phi) as the scalar p0 for the constant kind, else per cell;
        a scalar gives the stepper's solves a scalar shift
        (``Grid.solve_shifted``)."""
        return self.p0 if self.kind == "constant" else self(phi)

    @property
    def lower_bound(self):
        """Infimum of P over all phi."""
        return self.p0 if self.kind == "constant" else 0.0


@dataclass(frozen=True)
class TruncationSpec:
    """h(phi) multiplying the medication source; ``ramp``, ``one`` or ``zero``."""

    KINDS = ("ramp", "one", "zero")

    kind: str = "ramp"

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParams(f"unknown truncation kind {self.kind!r}")

    def __call__(self, phi):
        if self.kind == "ramp":
            return _ramp(phi)
        if self.kind == "one":
            return np.ones_like(phi)
        return np.zeros_like(phi)


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the evolution system.

    alpha scales the inertial term of the chemical potential (alpha = 0
    is the parabolic limit of ``stepper.run``), tau the phase relaxation
    time, chi the chemotaxis strength.
    """

    alpha: float = 0.01
    tau: float = 1.0
    chi: float = 1.0
    proliferation: ProliferationSpec = field(default_factory=ProliferationSpec)
    truncation: TruncationSpec = field(default_factory=TruncationSpec)


@dataclass(frozen=True)
class ControlSpec:
    """Closed-form source preset, sampled on the grid at a given time.

    kinds: ``zero``; ``constant`` (value); ``gaussian_pulse`` (amplitude,
    center, width, active on [t_on, t_off]); ``sinusoid`` (amplitude,
    cosine spatial mode, cos(omega t) in time).
    """

    KINDS = ("zero", "constant", "gaussian_pulse", "sinusoid")

    kind: str = "zero"
    value: float = 0.0
    amplitude: float = 1.0
    center: tuple = (0.5, 0.5)
    width: float = 0.1
    t_on: float = 0.0
    t_off: float = np.inf
    mode: int = 1
    omega: float = 0.0
    # spatial profile per grid, built on the first sample on that grid; a
    # cache of values the fields above fix, so equality and repr ignore it
    _profiles: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParams(f"unknown control kind {self.kind!r}")
        if self.kind == "gaussian_pulse" and not self.width > 0.0:
            raise InvalidParams("gaussian_pulse needs a positive width")

    def sample(self, t, grid):
        """The control at time t.  A pulse inside its window returns the
        read-only profile it shares with every other such call."""
        if self.kind == "zero":
            return grid.field(0.0)
        if self.kind == "constant":
            return grid.field(self.value)
        profile = self._profile(grid)
        if self.kind == "gaussian_pulse":
            return profile if self.t_on <= t <= self.t_off else grid.field(0.0)
        return self.amplitude * np.cos(self.omega * t) * profile

    def _profile(self, grid):
        # the pulse with its amplitude, or the product of the cosine modes
        profile = self._profiles.get(grid)
        if profile is None:
            if self.kind == "gaussian_pulse":
                q = np.zeros(grid.ncells)
                for x, c in zip(grid.coordinates(), self.center):
                    q += (x - c) ** 2
                profile = self.amplitude * np.exp(-q / (2.0 * self.width**2))
            else:
                profile = _cosine_modes(grid, self.mode, 1.0)
            profile.flags.writeable = False
            self._profiles[grid] = profile
        return profile


@dataclass(frozen=True)
class Controls:
    u1: ControlSpec = field(default_factory=ControlSpec)
    u2: ControlSpec = field(default_factory=ControlSpec)


@dataclass(frozen=True)
class FieldSpec:
    """Initial-field preset: ``constant``, ``cosine_bump`` (value plus
    amplitude times a product of per-axis cosines, Neumann compatible) or
    ``tanh_interface`` (profile along the first axis between levels lo
    and hi)."""

    KINDS = ("constant", "cosine_bump", "tanh_interface")

    kind: str = "constant"
    value: float = 0.0
    amplitude: float = 1.0
    mode: int = 1
    center: float = 0.5
    width: float = 0.1
    lo: float = -0.9
    hi: float = 0.9

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidParams(f"unknown initial-field kind {self.kind!r}")
        if self.kind == "tanh_interface" and not self.width > 0.0:
            raise InvalidParams("tanh_interface needs a positive width")

    def build(self, grid):
        if self.kind == "constant":
            return grid.field(self.value)
        if self.kind == "cosine_bump":
            return _cosine_modes(grid, self.mode, self.amplitude) + self.value
        x = grid.coordinates()[0]
        return self.lo + (self.hi - self.lo) * 0.5 * (
            1.0 + np.tanh((x - self.center) / self.width)
        )


@dataclass(frozen=True)
class InitialData:
    mu0: FieldSpec = field(default_factory=FieldSpec)
    mu0_prime: FieldSpec = field(default_factory=FieldSpec)
    phi0: FieldSpec = field(default_factory=FieldSpec)
    sigma0: FieldSpec = field(default_factory=FieldSpec)


@dataclass
class State:
    """All evolving fields at one time level."""

    mu: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    sigma: np.ndarray
    xi: np.ndarray
    t: float

    def copy(self):
        return State(
            self.mu.copy(), self.v.copy(), self.phi.copy(), self.sigma.copy(),
            self.xi.copy(), self.t,
        )


def validate(params, potential, init, grid):
    """Cross-check a run setup; returns a list of violation strings.

    An empty list means finite alpha, tau and chi, positive tau and chi,
    nonnegative alpha, finite initial fields, an admissible initial phase
    range for the constrained potentials, and for alpha = 0 a proliferation
    rate bounded below by p0 > 0 with tau * p0 >= 1.
    """
    problems = [f"{name} must be finite, got {value}"
                for name, value in (("alpha", params.alpha), ("tau", params.tau),
                                    ("chi", params.chi))
                if not math.isfinite(value)]
    if not params.tau > 0.0:
        problems.append(f"tau must be positive, got {params.tau}")
    if not params.chi > 0.0:
        problems.append(f"chi must be positive, got {params.chi}")
    if params.alpha < 0.0:
        problems.append(f"alpha must be nonnegative, got {params.alpha}")
    p_min = params.proliferation.lower_bound
    if params.alpha == 0.0 and not p_min > 0.0:
        problems.append(
            "the parabolic limit (alpha = 0) needs a proliferation rate bounded "
            "away from zero; use a constant P with p0 > 0"
        )
    elif params.alpha == 0.0 and params.tau * p_min < 1.0:
        problems.append(
            "the parabolic limit (alpha = 0) needs tau * min P >= 1, below which "
            f"its phase increments grow; got tau * min P = {params.tau * p_min:.6g}"
        )
    fields = {name: getattr(init, name).build(grid)
              for name in ("mu0", "mu0_prime", "phi0", "sigma0")}
    for name, u in fields.items():
        if not np.all(np.isfinite(u)):
            problems.append(f"initial field {name} is not finite everywhere")
    m = float(np.max(np.abs(fields["phi0"])))
    if potential.kind == "logarithmic" and m >= 1.0:
        problems.append(
            "phi0 reaches the boundary of the admissible phase interval; the "
            "logarithmic potential needs |phi0| strictly below 1 (its convex "
            f"part has empty subdifferential at +-1), got max |phi0| = {m}"
        )
    if potential.kind == "obstacle" and m > 1.0:
        problems.append(
            f"phi0 must stay inside [-1, 1] for the obstacle potential, "
            f"got max |phi0| = {m}"
        )
    return problems


def initial_state(init, potential, yp, grid):
    """Assemble the t = 0 state; xi starts as the Yosida derivative at phi0."""
    phi0 = init.phi0.build(grid)
    return State(
        mu=init.mu0.build(grid),
        v=init.mu0_prime.build(grid),
        phi=phi0,
        sigma=init.sigma0.build(grid),
        xi=np.asarray(potential.yosida_prime(phi0, yp)),
        t=0.0,
    )
