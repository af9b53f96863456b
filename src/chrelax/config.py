"""Flat ``key = value`` run configuration with a strict schema.

Lines hold one dotted key each, ``#`` starts a comment, unknown keys and
malformed or duplicated entries are hard errors reported with their line
numbers.  Parsing applies documented defaults (tau = 1, chi = 1,
alpha = 0.01, epsilon = min(dt, 1e-3)) so a minimal file only needs
grid.n, time.T, time.dt and potential.kind.  Serialisation writes every
key back sorted with floats at 17 significant digits; parse -> serialise
-> parse is the identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigIssue, InvalidParams
from .grid import Grid
from .model import (
    Controls,
    ControlSpec,
    FieldSpec,
    InitialData,
    ModelParams,
    ProliferationSpec,
    TruncationSpec,
    validate,
)
from .potentials import SplitPotential
from .stepper import SchemeConfig

AUTO = object()  # epsilon default is resolved against dt after parsing

_FIELD_KINDS = ("constant", "cosine_bump", "tanh_interface")
_CONTROL_KINDS = ("zero", "constant", "gaussian_pulse", "sinusoid")

_ALPHA_LADDER = [2.0**-k for k in range(2, 10)]


def _schema():
    s = {
        "grid.dim": ("int", 1),
        "grid.n": ("int_list", None),
        "grid.length": ("float_list", [1.0]),
        "time.T": ("float", None),
        "time.dt": ("float", None),
        "time.record_every": ("int", 1),
        "model.alpha": ("float", 0.01),
        "model.tau": ("float", 1.0),
        "model.chi": ("float", 1.0),
        "model.P.kind": (("constant", "ramp"), "constant"),
        "model.P.p0": ("float", 1.0),
        "model.h.kind": (("ramp", "one", "zero"), "ramp"),
        "potential.kind": (("regular", "logarithmic", "obstacle"), None),
        "potential.k1": ("float", 2.0),
        "potential.k2": ("float", 1.0),
        "potential.epsilon": ("float", AUTO),
        "solver.newton_tol": ("float", 1e-10),
        "solver.newton_max_iter": ("int", 50),
        "solver.cg_tol": ("float", 1e-10),
        "study.alphas": ("float_list", list(_ALPHA_LADDER)),
        "study.epsilons": ("float_list", [1e-1, 1e-2, 1e-3, 1e-4]),
        "study.deltas": ("float_list", [1.0, 0.5, 0.25, 0.125]),
        "output.dir": ("str", "out"),
        "output.dump_fields": ("bool", False),
    }
    for f in ("mu0", "mu0_prime", "phi0", "sigma0"):
        s[f"init.{f}.kind"] = (_FIELD_KINDS, "constant")
        s[f"init.{f}.value"] = ("float", 0.0)
        s[f"init.{f}.amplitude"] = ("float", 1.0)
        s[f"init.{f}.mode"] = ("int", 1)
        s[f"init.{f}.center"] = ("float", 0.5)
        s[f"init.{f}.width"] = ("float", 0.1)
        s[f"init.{f}.lo"] = ("float", -0.9)
        s[f"init.{f}.hi"] = ("float", 0.9)
    for c in ("controls.u1", "controls.u2", "study.perturb_u1", "study.perturb_u2"):
        s[f"{c}.kind"] = (_CONTROL_KINDS, "zero")
        s[f"{c}.value"] = ("float", 0.0)
        s[f"{c}.amplitude"] = ("float", 1.0)
        s[f"{c}.center_x"] = ("float", 0.5)
        s[f"{c}.center_y"] = ("float", 0.5)
        s[f"{c}.width"] = ("float", 0.1)
        s[f"{c}.t_on"] = ("float", 0.0)
        s[f"{c}.t_off"] = ("float", np.inf)
        s[f"{c}.mode"] = ("int", 1)
        s[f"{c}.omega"] = ("float", 0.0)
    return s


SCHEMA = _schema()
REQUIRED = tuple(k for k, (_, d) in SCHEMA.items() if d is None)


def _parse_value(key, kind, text, line, issues):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "int_list":
            return [int(p.strip()) for p in text.split(",") if p.strip()]
        if kind == "float_list":
            return [float(p.strip()) for p in text.split(",") if p.strip()]
        if kind == "bool":
            low = text.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(text)
        if kind == "str":
            return text
    except ValueError:
        issues.append(ConfigIssue("TypeError", key, line,
                                  f"cannot read {text!r} as {kind} for {key}"))
        return None
    # enum
    if text in kind:
        return text
    issues.append(ConfigIssue("UnknownValue", key, line,
                              f"{key} must be one of {kind}, got {text!r}"))
    return None


def _format_value(kind, value):
    if kind == "int":
        return str(value)
    if kind == "float":
        return f"{value:.17g}"
    if kind == "int_list":
        return ", ".join(str(v) for v in value)
    if kind == "float_list":
        return ", ".join(f"{v:.17g}" for v in value)
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration; compare by value, hash by digest."""

    values: tuple  # sorted (key, value) pairs, lists frozen as tuples

    def __getitem__(self, key):
        d = dict(self.values)
        if key not in d:
            raise KeyError(key)
        v = d[key]
        return list(v) if isinstance(v, tuple) else v

    def with_updates(self, updates):
        """New Config with the dotted keys in ``updates`` overridden."""
        d = dict(self.values)
        for k, v in updates.items():
            if k not in SCHEMA:
                raise KeyError(k)
            d[k] = tuple(v) if isinstance(v, list) else v
        return Config(values=tuple(sorted(d.items())))

    def to_text(self):
        lines = []
        for k, v in self.values:
            kind = SCHEMA[k][0]
            vv = list(v) if isinstance(v, tuple) else v
            lines.append(f"{k} = {_format_value(kind, vv)}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def parse_config(text):
    """Parse config text; raises ConfigError carrying every issue found."""
    issues = []
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            issues.append(ConfigIssue("TypeError", None, ln,
                                      f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            issues.append(ConfigIssue("UnknownKey", key, ln, f"unknown key {key!r}"))
            continue
        if key in seen:
            issues.append(ConfigIssue("DuplicateKey", key, ln,
                                      f"{key} already set on line {seen[key][1]}"))
            continue
        nissues = len(issues)
        parsed = _parse_value(key, SCHEMA[key][0], val, ln, issues)
        if len(issues) == nissues:
            seen[key] = (parsed, ln)
        else:
            seen[key] = (None, ln)  # present but invalid; already reported
    for key in REQUIRED:
        if key not in seen:
            issues.append(ConfigIssue("MissingRequired", key, 0,
                                      f"required key {key} is missing"))
    if issues:
        raise ConfigError(issues)
    values = {}
    for key, (kind, default) in SCHEMA.items():
        if key in seen:
            values[key] = seen[key][0]
        else:
            values[key] = default
    if values["potential.epsilon"] is AUTO:
        values["potential.epsilon"] = min(values["time.dt"], 1e-3)
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    return Config(values=tuple(sorted(values.items())))


def default_config(**overrides):
    """Minimal config plus keyword overrides given as a dict of dotted keys."""
    base = parse_config(
        "grid.n = 64\ntime.T = 0.1\ntime.dt = 1e-3\npotential.kind = regular\n"
    )
    return base.with_updates(overrides) if overrides else base


# -- builders -------------------------------------------------------------


def build_grid(cfg):
    dim = cfg["grid.dim"]
    n = cfg["grid.n"]
    length = cfg["grid.length"]
    if len(n) == 1 and dim == 2:
        n = n * 2
    if len(length) == 1 and dim == 2:
        length = length * 2
    if len(n) != dim or len(length) != dim:
        raise InvalidParams(
            f"grid.dim = {dim} but grid.n gives {len(n)} axes and "
            f"grid.length {len(length)}"
        )
    return Grid(n, length)


def build_potential(cfg):
    kind = cfg["potential.kind"]
    if kind == "regular":
        return SplitPotential.regular()
    if kind == "logarithmic":
        return SplitPotential.logarithmic(cfg["potential.k1"])
    return SplitPotential.obstacle(cfg["potential.k2"])


def build_params(cfg):
    return ModelParams(
        alpha=cfg["model.alpha"],
        tau=cfg["model.tau"],
        chi=cfg["model.chi"],
        proliferation=ProliferationSpec(cfg["model.P.kind"], cfg["model.P.p0"]),
        truncation=TruncationSpec(cfg["model.h.kind"]),
    )


def _field_spec(cfg, name):
    p = f"init.{name}."
    return FieldSpec(
        kind=cfg[p + "kind"], value=cfg[p + "value"],
        amplitude=cfg[p + "amplitude"], mode=cfg[p + "mode"],
        center=cfg[p + "center"], width=cfg[p + "width"],
        lo=cfg[p + "lo"], hi=cfg[p + "hi"],
    )


def build_init(cfg):
    return InitialData(
        mu0=_field_spec(cfg, "mu0"),
        mu0_prime=_field_spec(cfg, "mu0_prime"),
        phi0=_field_spec(cfg, "phi0"),
        sigma0=_field_spec(cfg, "sigma0"),
    )


def control_spec(cfg, prefix):
    p = prefix + "."
    return ControlSpec(
        kind=cfg[p + "kind"], value=cfg[p + "value"],
        amplitude=cfg[p + "amplitude"],
        center=(cfg[p + "center_x"], cfg[p + "center_y"]),
        width=cfg[p + "width"], t_on=cfg[p + "t_on"], t_off=cfg[p + "t_off"],
        mode=cfg[p + "mode"], omega=cfg[p + "omega"],
    )


def build_controls(cfg):
    return Controls(u1=control_spec(cfg, "controls.u1"),
                    u2=control_spec(cfg, "controls.u2"))


def build_scheme(cfg):
    return SchemeConfig(
        dt=cfg["time.dt"],
        eps=cfg["potential.epsilon"],
        newton_tol=cfg["solver.newton_tol"],
        newton_max_iter=cfg["solver.newton_max_iter"],
        cg_tol=cfg["solver.cg_tol"],
        record_every=cfg["time.record_every"],
    )


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs, assembled from a Config."""

    params: ModelParams
    potential: SplitPotential
    controls: Controls
    init: InitialData
    grid: Grid
    T: float
    scheme: SchemeConfig


def build_scenario(cfg):
    grid = build_grid(cfg)
    sc = Scenario(
        params=build_params(cfg),
        potential=build_potential(cfg),
        controls=build_controls(cfg),
        init=build_init(cfg),
        grid=grid,
        T=cfg["time.T"],
        scheme=build_scheme(cfg),
    )
    problems = validate(sc.params, sc.potential, sc.init, sc.controls, grid)
    if problems:
        raise InvalidParams("; ".join(problems))
    return sc
