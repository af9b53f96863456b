"""Flat ``key = value`` run configuration with a strict schema.

Lines hold one dotted key each, ``#`` starts a comment, unknown keys and
malformed or duplicated entries are hard errors reported with their line
numbers.  An unset key takes the default of the model spec field it
sets (``ModelParams``, ``SplitPotential``, ``FieldSpec``, ``ControlSpec``,
``SchemeConfig``), which also owns its kind; epsilon defaults to
min(dt, 1e-3).  A minimal file only needs grid.n, time.T, time.dt and
potential.kind.  Serialisation writes every key back sorted with floats
at 17 significant digits; parse -> serialise -> parse is the identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

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
    initial_state,
)
from .potentials import SplitPotential
from .stepper import SchemeConfig

AUTO = object()  # epsilon default is resolved against dt after parsing

_ALPHA_LADDER = [2.0**-k for k in range(2, 10)]

_FIELDS = ("mu0", "mu0_prime", "phi0", "sigma0")


def _spec_keys(spec, prefix, names=None):
    """[(field, key, default)] for the fields of ``spec`` that config keys
    set: ``names``, or every init field without a default factory.  A key
    is ``prefix + field``, a tuple field takes one key per axis
    (``center_x``, ``center_y``), and a required field's default is MISSING."""
    out = []
    for f in fields(spec):
        if f.name in names if names else f.init and f.default_factory is MISSING:
            key = prefix + f.name
            if isinstance(f.default, tuple):
                key = tuple(f"{key}_{axis}" for axis in "xy")
            out.append((f.name, key, f.default))
    return out


# The spec each key prefix fills, with its keys; the spec owns their kinds
# (its KINDS for ``kind``, else the default's type) and defaults.
_SPECS = {prefix: (spec, _spec_keys(spec, prefix, names)) for prefix, spec, names in (
    ("time.", SchemeConfig, ("record_every",)),
    ("model.", ModelParams, None),
    ("model.P.", ProliferationSpec, None),
    ("model.h.", TruncationSpec, None),
    ("potential.", SplitPotential, None),
    ("solver.", SchemeConfig, ("newton_tol", "newton_max_iter", "cg_tol")),
    *((f"init.{f}.", FieldSpec, None) for f in _FIELDS),
    *((f"{c}.", ControlSpec, None) for c in (
        "controls.u1", "controls.u2", "study.perturb_u1", "study.perturb_u2")),
)}

_KIND_OF = {int: "int", float: "float"}


def _schema():
    s = {
        "grid.dim": ("int", 1),
        "grid.n": ("int_list", None),
        "grid.length": ("float_list", [1.0]),
        "time.T": ("float", None),
        "time.dt": ("float", None),
    }
    for spec, keys in _SPECS.values():
        for name, key, default in keys:
            if isinstance(key, tuple):
                s.update((k, (_KIND_OF[type(d)], d)) for k, d in zip(key, default))
            else:
                kind = spec.KINDS if name == "kind" else _KIND_OF[type(default)]
                s[key] = (kind, None if default is MISSING else default)
    s.update({
        "potential.epsilon": ("float", AUTO),
        "study.alphas": ("float_list", list(_ALPHA_LADDER)),
        "study.epsilons": ("float_list", [1e-1, 1e-2, 1e-3, 1e-4]),
        "study.deltas": ("float_list", [1.0, 0.5, 0.25, 0.125]),
        "output.dir": ("str", "out"),
        "output.dump_fields": ("bool", False),
    })
    return s


SCHEMA = _schema()
REQUIRED = tuple(k for k, (_, d) in SCHEMA.items() if d is None)


def _read_bool(text):
    low = text.lower()
    if low not in ("true", "false"):
        raise ValueError(text)
    return low == "true"


# Readers and writers of the value kinds; str writes the others, and an
# enum kind is its tuple of names.
_READ = {"int": int, "float": float, "bool": _read_bool, "str": str,
         "int_list": lambda t: [int(p) for p in t.split(",") if p.strip()],
         "float_list": lambda t: [float(p) for p in t.split(",") if p.strip()]}
_WRITE = {"float": "{:.17g}".format,
          "int_list": lambda v: ", ".join(map(str, v)),
          "float_list": lambda v: ", ".join(map("{:.17g}".format, v)),
          "bool": lambda v: "true" if v else "false"}


def _parse_value(key, kind, text, line, issues):
    text = text.strip()
    if kind in _READ:
        try:
            return _READ[kind](text)
        except ValueError:
            issues.append(ConfigIssue("TypeError", key, line,
                                      f"cannot read {text!r} as {kind} for {key}"))
            return None
    if text in kind:
        return text
    issues.append(ConfigIssue("UnknownValue", key, line,
                              f"{key} must be one of {kind}, got {text!r}"))
    return None


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration; compare by value, hash by digest."""

    values: tuple  # sorted (key, value) pairs, lists frozen as tuples

    @cached_property
    def _lookup(self):
        # built on the first lookup; not a field, so ``==`` and hash ignore it
        return dict(self.values)

    def __getitem__(self, key):
        v = self._lookup[key]
        return list(v) if isinstance(v, tuple) else v

    def with_updates(self, updates):
        """New Config with the dotted keys in ``updates`` overridden."""
        d = dict(self._lookup)
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
            lines.append(f"{k} = {_WRITE.get(kind, str)(vv)}")
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
        # None when invalid, which _parse_value has reported
        seen[key] = (_parse_value(key, SCHEMA[key][0], val, ln, issues), ln)
    for key in REQUIRED:
        if key not in seen:
            issues.append(ConfigIssue("MissingRequired", key, 0,
                                      f"required key {key} is missing"))
    if issues:
        raise ConfigError(issues)
    values = {k: seen[k][0] if k in seen else d for k, (_, d) in SCHEMA.items()}
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
    return _build(cfg, "potential.")


def _values(cfg, prefix):
    """{field: value} of the spec fields that the keys under ``prefix`` set."""
    return {name: tuple(cfg[k] for k in key) if isinstance(key, tuple) else cfg[key]
            for name, key, _ in _SPECS[prefix][1]}


def _build(cfg, prefix):
    return _SPECS[prefix][0](**_values(cfg, prefix))


def build_params(cfg):
    return ModelParams(**_values(cfg, "model."),
                       proliferation=_build(cfg, "model.P."),
                       truncation=_build(cfg, "model.h."))


def build_init(cfg):
    return InitialData(**{f: _build(cfg, f"init.{f}.") for f in _FIELDS})


def control_spec(cfg, prefix):
    return _build(cfg, prefix + ".")


def build_controls(cfg):
    return Controls(u1=control_spec(cfg, "controls.u1"),
                    u2=control_spec(cfg, "controls.u2"))


def build_scheme(cfg):
    return SchemeConfig(dt=cfg["time.dt"], eps=cfg["potential.epsilon"],
                        **_values(cfg, "time."), **_values(cfg, "solver."))


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
    """The Scenario of ``cfg``, refused as ``initial_state`` refuses it."""
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
    initial_state(sc.params, sc.potential, sc.init, grid, sc.scheme.yosida)
    return sc
