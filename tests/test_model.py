"""Tests for model coefficients, control presets, initial data, validation."""

import math

import numpy as np
import pytest

from chrelax import (
    ControlSpec,
    FieldSpec,
    Grid,
    InitialData,
    InvalidParams,
    ModelParams,
    ProliferationSpec,
    SplitPotential,
    TruncationSpec,
    YosidaParams,
    initial_state,
)


def default_init():
    return InitialData(
        mu0=FieldSpec("constant", value=0.1),
        mu0_prime=FieldSpec("constant", value=0.0),
        phi0=FieldSpec("cosine_bump", amplitude=0.5),
        sigma0=FieldSpec("constant", value=0.3),
    )


# -- proliferation and truncation ----------------------------------------


def test_proliferation_values_and_bounds():
    phi = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    const = ProliferationSpec("constant", p0=2.0)
    np.testing.assert_array_equal(const(phi), np.full(5, 2.0))
    assert const.lower_bound == 2.0
    ramp = ProliferationSpec("ramp", p0=2.0)
    np.testing.assert_allclose(ramp(phi), [0.0, 0.0, 1.0, 2.0, 2.0], atol=0)
    assert ramp.lower_bound == 0.0
    # switched-off growth is a legal constant but not a legal ramp scale
    assert ProliferationSpec("constant", p0=0.0).lower_bound == 0.0
    with pytest.raises(InvalidParams):
        ProliferationSpec("ramp", p0=0.0)
    with pytest.raises(InvalidParams):
        ProliferationSpec("constant", p0=-1.0)
    with pytest.raises(InvalidParams):
        ProliferationSpec("smooth")


def test_proliferation_rate_is_scalar_when_constant():
    phi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    const = ProliferationSpec("constant", p0=0.8)
    assert const.rate(phi) == 0.8 and np.ndim(const.rate(phi)) == 0
    ramp = ProliferationSpec("ramp", p0=2.0)
    np.testing.assert_array_equal(ramp.rate(phi), ramp(phi))


def test_truncation_values():
    phi = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    ramp = TruncationSpec("ramp")
    np.testing.assert_allclose(ramp(phi), [0.0, 0.0, 0.5, 1.0, 1.0], atol=0)
    np.testing.assert_array_equal(TruncationSpec("one")(phi), np.ones(5))
    np.testing.assert_array_equal(TruncationSpec("zero")(phi), np.zeros(5))
    with pytest.raises(InvalidParams):
        TruncationSpec("step")


# -- control presets ------------------------------------------------------


def test_control_closed_forms():
    g = Grid(4)
    x = g.coordinates()[0]
    assert np.all(ControlSpec("zero").sample(0.3, g) == 0.0)
    assert np.all(ControlSpec("constant", value=-1.5).sample(2.0, g) == -1.5)
    sin = ControlSpec("sinusoid", amplitude=0.7, mode=2, omega=3.0)
    want = 0.7 * math.cos(3.0 * 0.4) * np.cos(2 * np.pi * x)
    np.testing.assert_allclose(sin.sample(0.4, g), want, rtol=0, atol=1e-15)
    pulse = ControlSpec("gaussian_pulse", amplitude=2.0, center=(0.375,), width=0.2)
    got = pulse.sample(0.0, g)
    want = 2.0 * np.exp(-((x - 0.375) ** 2) / (2 * 0.2**2))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert got[1] == 2.0  # peak sits on a cell centre


def test_gaussian_pulse_time_gating():
    g = Grid(8)
    pulse = ControlSpec(
        "gaussian_pulse", amplitude=1.0, center=(0.5,), width=0.1,
        t_on=0.2, t_off=0.6)
    assert np.all(pulse.sample(0.1, g) == 0.0)
    assert np.max(pulse.sample(0.2, g)) > 0.8
    assert np.max(pulse.sample(0.6, g)) > 0.8
    assert np.all(pulse.sample(0.61, g) == 0.0)


def test_gaussian_pulse_2d_center():
    g = Grid((8, 8))
    x, y = g.coordinates()
    pulse = ControlSpec("gaussian_pulse", amplitude=1.0, center=(0.3, 0.7), width=0.15)
    got = pulse.sample(0.0, g)
    want = np.exp(-((x - 0.3) ** 2 + (y - 0.7) ** 2) / (2 * 0.15**2))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_control_boundedness_battery():
    g = Grid(64)
    rng = np.random.default_rng(51)
    for _ in range(100):
        amp = float(rng.uniform(-3.0, 3.0))
        kind = rng.choice(["gaussian_pulse", "sinusoid"])
        spec = ControlSpec(
            kind, amplitude=amp,
            center=(float(rng.uniform(0, 1)),),
            width=float(rng.uniform(0.05, 0.5)),
            mode=int(rng.integers(0, 5)),
            omega=float(rng.uniform(0, 10.0)),
        )
        t = float(rng.uniform(0.0, 2.0))
        u = spec.sample(t, g)
        assert np.max(np.abs(u)) <= abs(amp) + 1e-15


def uncached_sample(spec, t, grid):
    """ControlSpec.sample as it was before profiles were cached."""
    if spec.kind == "zero":
        return grid.field(0.0)
    if spec.kind == "constant":
        return grid.field(spec.value)
    coords = grid.coordinates()
    if spec.kind == "gaussian_pulse":
        if not (spec.t_on <= t <= spec.t_off):
            return grid.field(0.0)
        q = np.zeros(grid.ncells)
        for x, c in zip(coords, spec.center):
            q += (x - c) ** 2
        return spec.amplitude * np.exp(-q / (2.0 * spec.width**2))
    out = np.full(grid.ncells, spec.amplitude * np.cos(spec.omega * t))
    for x, L in zip(coords, grid.length):
        out *= np.cos(spec.mode * np.pi * x / L)
    return out


@pytest.mark.parametrize("n,length", [(33, 1.0), ((12, 9), (1.0, 2.0))])
def test_cached_control_samples_equal_the_formula(n, length):
    specs = [
        ControlSpec("zero"),
        ControlSpec("constant", value=-0.4),
        ControlSpec("gaussian_pulse", amplitude=0.7, center=(0.3, 1.1), width=0.2,
                    t_on=0.1, t_off=0.5),
        ControlSpec("sinusoid", amplitude=-1.3, mode=3, omega=2.5),
    ]
    times = np.linspace(0.0, 0.8, 17)
    for spec in specs:
        g = Grid(n, length)
        for t in times:
            got = spec.sample(t, g)
            want = uncached_sample(spec, t, g)
            if g.dim == 1:
                np.testing.assert_array_equal(got, want)
            else:
                # the 2-D cosine product is taken in another order: two
                # roundings on each side
                np.testing.assert_allclose(got, want, rtol=2 * np.finfo(float).eps,
                                           atol=0)
            # a later sample on an equal grid reuses the same profile
            np.testing.assert_array_equal(spec.sample(t, Grid(n, length)), got)


def test_cached_control_profiles_are_shared_and_read_only():
    pulse = ControlSpec("gaussian_pulse", center=(0.5,), t_off=1.0)
    wave = ControlSpec("sinusoid", omega=1.0)
    g = Grid(16)
    a, b = pulse.sample(0.2, g), pulse.sample(0.7, Grid(16))
    assert a is b and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1.0
    assert pulse.sample(2.0, g).flags.writeable  # outside the window
    assert wave.sample(0.3, g) is not wave.sample(0.3, g)
    # another grid gets its own profile
    assert pulse.sample(0.2, Grid(8)).shape == (8,)
    # the cache takes no part in equality or hashing
    assert pulse == ControlSpec("gaussian_pulse", center=(0.5,), t_off=1.0)
    assert hash(pulse) == hash(ControlSpec("gaussian_pulse", center=(0.5,), t_off=1.0))
    assert "_profiles" not in repr(pulse)


def test_control_constructor_rejections():
    with pytest.raises(InvalidParams):
        ControlSpec("spike")
    with pytest.raises(InvalidParams):
        ControlSpec("gaussian_pulse", width=0.0)


# -- initial fields --------------------------------------------------------


def test_field_spec_closed_forms():
    g = Grid(4)
    x = g.coordinates()[0]
    np.testing.assert_array_equal(
        FieldSpec("constant", value=0.25).build(g), np.full(4, 0.25))
    bump = FieldSpec("cosine_bump", value=2.0, amplitude=0.5, mode=1).build(g)
    np.testing.assert_allclose(bump, 2.0 + 0.5 * np.cos(np.pi * x), atol=1e-15)
    tanh = FieldSpec(
        "tanh_interface", lo=-0.9, hi=0.9, center=0.5, width=0.05).build(g)
    want = -0.9 + 1.8 * 0.5 * (1.0 + np.tanh((x - 0.5) / 0.05))
    np.testing.assert_allclose(tanh, want, atol=1e-15)
    assert tanh[0] < -0.89 and tanh[-1] > 0.89
    with pytest.raises(InvalidParams):
        FieldSpec("smiley")
    with pytest.raises(InvalidParams):
        FieldSpec("tanh_interface", width=0.0)


def test_cosine_bump_2d_separable():
    g = Grid((4, 4))
    x, y = g.coordinates()
    got = FieldSpec("cosine_bump", amplitude=0.3, mode=2).build(g)
    np.testing.assert_allclose(
        got, 0.3 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y), atol=1e-15)


# -- validation and initial state -------------------------------------------


YP = YosidaParams(epsilon=1e-2)


def test_validate_accepts_default_setup():
    g = Grid(16)
    initial_state(ModelParams(), SplitPotential.regular(), default_init(), g, YP)


def test_validate_flags_each_violation():
    g = Grid(16)
    init = default_init()
    pot = SplitPotential.regular()
    for params, rule in ((ModelParams(tau=0.0), "tau must be positive, got 0.0"),
                         (ModelParams(chi=-1.0), "chi must be positive, got -1.0"),
                         (ModelParams(alpha=-0.1), "alpha must be nonnegative, got -0.1")):
        with pytest.raises(InvalidParams, match=f"^{rule}$"):
            initial_state(params, pot, init, g, YP)
    # several violations accumulate
    with pytest.raises(InvalidParams, match="^tau must be positive, got 0.0; "
                       "chi must be positive, got 0.0$"):
        initial_state(ModelParams(tau=0.0, chi=0.0), pot, init, g, YP)


def test_validate_limit_needs_positive_proliferation():
    g = Grid(16)
    init = default_init()
    pot = SplitPotential.regular()
    ok = ModelParams(alpha=0.0, proliferation=ProliferationSpec("constant", p0=1.0))
    initial_state(ok, pot, init, g, YP)
    for bad_p in (ProliferationSpec("ramp", p0=1.0),
                  ProliferationSpec("constant", p0=0.0)):
        bad = ModelParams(alpha=0.0, proliferation=bad_p)
        with pytest.raises(InvalidParams, match=r"^the parabolic limit \(alpha = 0\) "
                           "needs a proliferation rate bounded away from zero; use "
                           "a constant P with p0 > 0$"):
            initial_state(bad, pot, init, g, YP)


def test_validate_phase_range_per_potential():
    g = Grid(16)
    at_one = InitialData(
        mu0=FieldSpec(), mu0_prime=FieldSpec(),
        phi0=FieldSpec("constant", value=1.0), sigma0=FieldSpec())
    beyond = InitialData(
        mu0=FieldSpec(), mu0_prime=FieldSpec(),
        phi0=FieldSpec("constant", value=1.1), sigma0=FieldSpec())
    log, obs = SplitPotential.logarithmic(), SplitPotential.obstacle()
    # the entropy needs a strict interior start, the obstacle allows the bound
    with pytest.raises(InvalidParams, match=r"^phi0 reaches the boundary .*, got max \|phi0\| = 1\.0$"):
        initial_state(ModelParams(), log, at_one, g, YP)
    initial_state(ModelParams(), obs, at_one, g, YP)
    with pytest.raises(InvalidParams, match=r"^phi0 must stay inside \[-1, 1\] for the "
                       r"obstacle potential, got max \|phi0\| = 1\.1$"):
        initial_state(ModelParams(), obs, beyond, g, YP)
    initial_state(ModelParams(), SplitPotential.regular(), beyond, g, YP)


def test_validate_rejects_nonfinite_fields():
    g = Grid(16)
    init = InitialData(
        mu0=FieldSpec("constant", value=math.nan), mu0_prime=FieldSpec(),
        phi0=FieldSpec(), sigma0=FieldSpec("constant", value=math.inf))
    with pytest.raises(InvalidParams, match="^initial field mu0 is not finite "
                       "everywhere; initial field sigma0 is not finite everywhere$"):
        initial_state(ModelParams(), SplitPotential.regular(), init, g, YP)


def test_initial_state_assembly():
    g = Grid(16)
    init = default_init()
    pot = SplitPotential.regular()
    s = initial_state(ModelParams(), pot, init, g, YP)
    assert s.t == 0.0
    np.testing.assert_array_equal(s.mu, init.mu0.build(g))
    np.testing.assert_array_equal(s.v, init.mu0_prime.build(g))
    np.testing.assert_array_equal(s.phi, init.phi0.build(g))
    np.testing.assert_array_equal(s.sigma, init.sigma0.build(g))
    np.testing.assert_allclose(
        s.xi, pot.yosida_prime(s.phi, YP), rtol=0, atol=1e-12)


def test_state_copy_is_independent():
    g = Grid(8)
    s = initial_state(ModelParams(), SplitPotential.regular(), default_init(), g, YP)
    c = s.copy()
    c.phi[:] = 99.0
    assert np.max(np.abs(s.phi)) < 1.0
