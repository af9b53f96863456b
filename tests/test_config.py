"""Tests for config parsing, validation reporting, and scenario building."""

import pytest

from dataclasses import fields

from chrelax import (
    ConfigError,
    Controls,
    ControlSpec,
    Grid,
    InitialData,
    InvalidParams,
    ModelParams,
    SchemeConfig,
    SplitPotential,
    default_config,
    parse_config,
)
from chrelax.config import (
    build_controls,
    build_grid,
    build_init,
    build_params,
    build_potential,
    build_scenario,
    build_scheme,
    control_spec,
)

MINIMAL = "grid.n = 64\ntime.T = 0.1\ntime.dt = 1e-3\npotential.kind = regular\n"


def issues_of(text):
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    return [str(i) for i in ei.value.issues]


# -- parsing ----------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["grid.dim"] == 1
    assert cfg["grid.n"] == [64]
    assert cfg["grid.length"] == [1.0]
    assert cfg["model.alpha"] == 0.01
    assert cfg["model.tau"] == 1.0
    assert cfg["model.chi"] == 1.0
    assert cfg["model.P.kind"] == "constant" and cfg["model.P.p0"] == 1.0
    assert cfg["model.h.kind"] == "ramp"
    assert cfg["potential.k1"] == 2.0 and cfg["potential.k2"] == 1.0
    assert cfg["solver.newton_tol"] == 1e-10
    assert cfg["solver.cg_tol"] == 1e-10
    assert cfg["study.alphas"] == [2.0**-k for k in range(2, 10)]
    assert cfg["study.epsilons"] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert cfg["study.deltas"] == [1.0, 0.5, 0.25, 0.125]
    assert cfg["init.phi0.kind"] == "constant"
    assert cfg["controls.u1.kind"] == "zero"
    assert cfg["output.dir"] == "out" and cfg["output.dump_fields"] is False


def test_epsilon_auto_tracks_dt():
    # unset epsilon resolves to min(dt, 1e-3)
    assert parse_config(MINIMAL)["potential.epsilon"] == 1e-3
    small = MINIMAL.replace("time.dt = 1e-3", "time.dt = 1e-4")
    assert parse_config(small)["potential.epsilon"] == 1e-4
    coarse = "grid.n = 8\ntime.T = 1.0\ntime.dt = 0.5\npotential.kind = regular\n"
    assert parse_config(coarse)["potential.epsilon"] == 1e-3
    explicit = MINIMAL + "potential.epsilon = 0.05\n"
    assert parse_config(explicit)["potential.epsilon"] == 0.05


def test_comments_blank_lines_and_lists():
    cfg = parse_config(
        "# study setup\n\ngrid.n = 16, 16\ngrid.dim = 2\ntime.T = 0.1\n"
        "time.dt = 1e-3  \npotential.kind = obstacle\n"
        "study.deltas = 1.0, 0.25\noutput.dump_fields = true\n")
    assert cfg["grid.n"] == [16, 16]
    assert cfg["study.deltas"] == [1.0, 0.25]
    assert cfg["output.dump_fields"] is True


def test_unknown_and_duplicate_keys_report_lines():
    msgs = issues_of(MINIMAL + "grid.m = 3\n")
    assert len(msgs) == 1
    assert "line 5" in msgs[0] and "UnknownKey" in msgs[0] and "grid.m" in msgs[0]
    msgs = issues_of(MINIMAL + "time.dt = 2e-3\n")
    assert any("DuplicateKey" in m and "line 5" in m for m in msgs)


def test_type_errors_report_offending_token():
    msgs = issues_of("grid.n = sixty\ntime.T = 0.1\ntime.dt = 1e-3\n"
                     "potential.kind = regular\n")
    assert len(msgs) == 1
    assert "TypeError" in msgs[0] and "sixty" in msgs[0] and "line 1" in msgs[0]
    msgs = issues_of(MINIMAL + "output.dump_fields = maybe\n")
    assert "TypeError" in msgs[0] and "maybe" in msgs[0]
    msgs = issues_of(MINIMAL + "time.record_every = 1.5\n")
    assert "TypeError" in msgs[0]


def test_enum_errors_list_choices():
    msgs = issues_of(MINIMAL.replace("regular", "sextic"))
    assert len(msgs) == 1
    m = msgs[0]
    assert "UnknownValue" in m and "sextic" in m
    for kind in ("regular", "logarithmic", "obstacle"):
        assert kind in m
    msgs = issues_of(MINIMAL + "controls.u1.kind = blast\n")
    assert "UnknownValue" in msgs[0] and "gaussian_pulse" in msgs[0]


def test_line_without_equals_sign_reports_its_line():
    msgs = issues_of(MINIMAL + "\n# comment\nmodel.alpha 0.5\n")
    assert len(msgs) == 1
    assert "TypeError" in msgs[0] and "line 7" in msgs[0]
    assert "'model.alpha 0.5'" in msgs[0]


def test_missing_required_keys():
    msgs = issues_of("grid.n = 64\n")
    assert len(msgs) == 3
    assert all("MissingRequired" in m for m in msgs)
    joined = " ".join(msgs)
    for key in ("time.T", "time.dt", "potential.kind"):
        assert key in joined


def test_multiple_issues_accumulate():
    msgs = issues_of("grid.n = sixty\nbogus = 1\ntime.T = 0.1\n"
                     "time.dt = 1e-3\npotential.kind = regular\n")
    assert len(msgs) == 2


# -- config object ------------------------------------------------------------


def test_round_trip_and_digest():
    cfg = default_config(**{"model.alpha": 0.125, "grid.n": [32]})
    back = parse_config(cfg.to_text())
    assert back == cfg
    assert back.digest() == cfg.digest()
    assert len(cfg.digest()) == 12
    other = cfg.with_updates({"model.alpha": 0.25})
    assert other.digest() != cfg.digest()
    assert other["model.alpha"] == 0.25
    assert cfg["model.alpha"] == 0.125  # original untouched


def test_digests_are_pinned():
    # output file names carry the digest, so it must not drift with the
    # way the schema is assembled
    assert default_config().digest() == "291d5c84931c"
    quick_start = (
        "grid.n = 64\ntime.T = 0.1\ntime.dt = 1e-3\npotential.kind = regular\n"
        "model.alpha = 0.01\ninit.phi0.kind = cosine_bump\n"
        "init.phi0.amplitude = 0.5\ninit.sigma0.kind = constant\n"
        "init.sigma0.value = 0.5\noutput.dump_fields = true\n")
    assert parse_config(quick_start).digest() == "dd3658548f21"


def test_lookups_leave_equality_hash_and_digest_alone():
    read, fresh = default_config(), default_config()
    assert read["grid.n"] == [64] and read["potential.kind"] == "regular"
    read["grid.n"].append(8)  # a list value is a copy
    assert read == fresh and hash(read) == hash(fresh)
    assert read.values == fresh.values and read.to_text() == fresh.to_text()
    assert read.digest() == fresh.digest() == "291d5c84931c"
    other = read.with_updates({"grid.n": [32]})
    assert other["grid.n"] == [32] and read["grid.n"] == [64]
    assert other == fresh.with_updates({"grid.n": [32]})


def test_lookup_and_update_errors():
    cfg = default_config()
    with pytest.raises(KeyError):
        cfg["grid.zoom"]
    with pytest.raises(KeyError):
        cfg.with_updates({"grid.zoom": 3})


# -- builders ---------------------------------------------------------------


def test_unset_keys_build_the_specs_defaults():
    cfg = default_config()
    assert build_init(cfg) == InitialData()
    assert build_controls(cfg) == Controls()
    assert control_spec(cfg, "study.perturb_u1") == ControlSpec()
    assert control_spec(cfg, "study.perturb_u2") == ControlSpec()
    assert build_potential(cfg) == SplitPotential("regular")
    params, default_params = build_params(cfg), ModelParams()
    for f in fields(ModelParams):
        assert getattr(params, f.name) == getattr(default_params, f.name), f.name
    scheme = build_scheme(cfg)
    for f in fields(SchemeConfig):
        if f.name not in ("dt", "eps"):  # required, no default
            assert getattr(scheme, f.name) == f.default, f.name


def test_build_grid_broadcasts_to_dim():
    assert build_grid(default_config()) == Grid(64)
    cfg2 = default_config(**{"grid.dim": 2, "grid.n": [16]})
    assert build_grid(cfg2) == Grid((16, 16))
    explicit = default_config(
        **{"grid.dim": 2, "grid.n": [8, 12], "grid.length": [1.0, 2.0]})
    assert build_grid(explicit) == Grid((8, 12), length=(1.0, 2.0))
    with pytest.raises(InvalidParams):
        build_grid(default_config(**{"grid.n": [8, 12]}))  # dim still 1


def test_build_potential_and_params():
    cfg = default_config(**{
        "potential.kind": "logarithmic", "potential.k1": 3.0,
        "model.alpha": 0.2, "model.tau": 1.5, "model.chi": 0.8,
        "model.P.kind": "ramp", "model.P.p0": 2.0, "model.h.kind": "one"})
    pot = build_potential(cfg)
    assert pot.kind == "logarithmic" and pot.k1 == 3.0
    params = build_params(cfg)
    assert params.alpha == 0.2 and params.tau == 1.5 and params.chi == 0.8
    assert params.proliferation.kind == "ramp"
    assert params.proliferation.p0 == 2.0
    assert params.truncation.kind == "one"


def test_build_init_and_controls():
    cfg = default_config(**{
        "init.phi0.kind": "tanh_interface", "init.phi0.lo": -0.8,
        "init.phi0.hi": 0.8, "init.phi0.width": 0.05,
        "init.sigma0.kind": "cosine_bump", "init.sigma0.value": 2.0,
        "init.sigma0.amplitude": 0.2,
        "controls.u1.kind": "gaussian_pulse", "controls.u1.center_x": 0.3,
        "controls.u1.t_off": 0.25,
        "controls.u2.kind": "sinusoid", "controls.u2.omega": 2.0})
    init = build_init(cfg)
    assert init.phi0.kind == "tanh_interface" and init.phi0.lo == -0.8
    assert init.sigma0.value == 2.0 and init.sigma0.amplitude == 0.2
    controls = build_controls(cfg)
    assert controls.u1.kind == "gaussian_pulse"
    assert controls.u1.center[0] == 0.3 and controls.u1.t_off == 0.25
    assert controls.u2.kind == "sinusoid" and controls.u2.omega == 2.0


def test_build_scheme_with_overrides():
    cfg = default_config(**{"solver.cg_tol": 1e-8, "time.record_every": 4})
    sc = build_scheme(cfg)
    assert sc.dt == 1e-3 and sc.eps == 1e-3
    assert sc.cg_tol == 1e-8 and sc.record_every == 4


def test_build_scenario_validates():
    sc = build_scenario(default_config())
    assert sc.grid == Grid(64)
    assert sc.T == 0.1
    assert sc.potential.kind == "regular"
    with pytest.raises(InvalidParams, match="tau"):
        build_scenario(default_config(**{"model.tau": 0.0}))
    with pytest.raises(InvalidParams, match="strictly below 1"):
        build_scenario(default_config(**{
            "potential.kind": "logarithmic", "init.phi0.kind": "constant",
            "init.phi0.value": 1.0}))
