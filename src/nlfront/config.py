"""Scenario configuration: JSON in, defaults filled, dotted overrides last.

Every run echoes its fully-resolved configuration next to the outputs, so
any artifact directory reproduces bit-identically from the echoed file.
Unknown keys are errors: sweeps mutate configs programmatically and a
silent typo would fan out into every run of a study.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, replace

from .artifacts import finite
from .errors import ValidationError
from .kernels import kernel_from_json
from .reactions import reaction_from_json
from .semiwave import SemiWaveConfig
from .solver import ProblemSpec, SolverConfig, time_step

__all__ = ["ScenarioConfig", "resolve_config", "default_config", "apply_overrides"]

# the names `rates` and `verify` accept
_NAMES = {("analysis", "fits"): ("linear", "power", "tlogt"),
          ("verify", "checks"): ("mass-flux", "comparison", "refinement")}
# a value whose default is one of these kinds must stay one
_KINDS = {bool: "true or false", list: "a list", dict: "an object"}

_DEFAULTS = {
    "problem": {
        "variant": "halfline-fb",
        "kernel": {"family": "compact-uniform", "r": 1.0},
        "reaction": {"kind": "logistic", "a": 1.0, "b": 1.0},
        "d": 1.0,
        "mu": 1.0,
        "h0": 10.0,
        "u0": {"type": "plateau", "m": None, "ramp": 1.0},
    },
    "solver": asdict(SolverConfig()),
    "semiwave": {
        "dx": SemiWaveConfig.dx,
        "L0": SemiWaveConfig.L0,
        "minimal_speed": True,
        "stationary": False,
    },
    "analysis": {
        "window_fraction": 0.5,
        "fits": ["linear"],
        "c0": None,
        "drift_check": False,
    },
    "verify": {
        "checks": ["mass-flux"],
        "mass_flux_tol": 1e-3,
    },
    "sweep": {
        "parameter": "problem.mu",
        "values": [],
        "command": "simulate",
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    raw: dict

    def __getitem__(self, key):
        return self.raw[key]

    def _number(self, key: str):
        """The number at dotted ``key``: finite, integral where the default is
        an int, and null only where the default is null."""
        section, _, leaf = key.partition(".")
        value, default = self.raw[section][leaf], _DEFAULTS[section][leaf]
        if value is None and default is None:
            return None
        return finite(value, key, count=type(default) is int)

    def problem_spec(self) -> ProblemSpec:
        p = self.raw["problem"]
        kernel = kernel_from_json(p["kernel"], "problem.kernel")
        reaction = reaction_from_json(p["reaction"], "problem.reaction")
        u0js = p["u0"]
        if set(u0js) - {"type", "m", "ramp"} or u0js.get("type", "plateau") != "plateau":
            raise ValidationError("problem.u0 takes only the keys type ('plateau'), "
                                  f"m and ramp, not {u0js!r}")
        m = u0js.get("m")
        m = None if m is None else finite(m, "problem.u0.m")
        ramp = finite(u0js.get("ramp", 1.0), "problem.u0.ramp")
        spec = ProblemSpec(variant=p["variant"], kernel=kernel, reaction=reaction,
                           d=self._number("problem.d"), mu=self._number("problem.mu"),
                           h0=self._number("problem.h0"))
        return replace(spec, u0=spec.plateau(m, ramp))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**{k: v if k == "scheme" else self._number(f"solver.{k}")
                               for k, v in self.raw["solver"].items()})

    def semiwave_config(self) -> SemiWaveConfig:
        return SemiWaveConfig(dx=self._number("semiwave.dx"), L0=self._number("semiwave.L0"))

    def _check_shapes(self):
        """Each section holds its own keys; a fit or check list holds known
        names; a value whose default is a bool, a list or an object is one."""
        for section, defaults in _DEFAULTS.items():
            values = self.raw[section]
            if not isinstance(values, dict) or values.keys() != defaults.keys():
                raise ValidationError(f"{section} takes keys, not a value: "
                                      f"set {section}.<key> instead")
            for key, default in defaults.items():
                value, known = values[key], _NAMES.get((section, key))
                if known:
                    bad = ([n for n in value if n not in known]
                           if isinstance(value, list) else [value])
                    if bad:
                        raise ValidationError(f"unknown name {bad[0]!r} in {section}.{key}; "
                                              f"known: {', '.join(known)}")
                    twice = [n for i, n in enumerate(value) if n in value[:i]]
                    if twice:
                        raise ValidationError(f"{section}.{key} names {twice[0]!r} twice")
                elif type(default) in _KINDS and type(value) is not type(default):
                    raise ValidationError(f"{section}.{key} must be "
                                          f"{_KINDS[type(default)]}, not {value!r}")

    def validate(self):
        self._check_shapes()
        spec = self.problem_spec()
        cfg = self.solver_config()
        self.semiwave_config()          # bad semi-wave settings fail every command
        time_step(spec, cfg)            # a dt past the stability budget fails every command
        for key in ("analysis.c0", "verify.mass_flux_tol"):
            self._number(key)           # read by a command only: fails before any run
        if not 0.0 < self._number("analysis.window_fraction") <= 1.0:
            raise ValidationError("analysis.window_fraction must lie in (0, 1]")
        return spec, cfg

    def to_json(self) -> dict:
        return copy.deepcopy(self.raw)


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def _set(cfg: dict, key: str, value):
    """Replace the value at dotted ``key`` whole; every part of it must exist."""
    *path, leaf = key.split(".")
    node = cfg
    for part in path:
        if not isinstance(node.get(part), dict):
            raise ValidationError(f"unknown config path {key!r}")
        node = node[part]
    if leaf not in node:
        raise ValidationError(f"unknown config key {key!r}")
    node[leaf] = value


def _merge(cfg: dict, user: dict):
    """A scenario file's settings: each key of a section replaces that value
    whole, as ``--set section.key`` does (``validate`` rejects a section
    given a value)."""
    for section, keys in user.items():
        if isinstance(keys, dict) and section in cfg:
            for key, value in keys.items():
                _set(cfg, f"{section}.{key}", value)
        else:
            _set(cfg, section, keys)


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, overrides):
    """Apply repeatable --set key.path=value pairs, JSON-parsed scalars."""
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, _, val = item.partition("=")
        _set(cfg, key.strip(), _parse_scalar(val.strip()))
    return cfg


def resolve_config(path: str | None, overrides=None) -> ScenarioConfig:
    """Parse, fill defaults, apply overrides, and validate."""
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:        # missing, unreadable or not JSON
            raise ValidationError(f"config file {path!r}: {exc}") from None
        if not isinstance(user, dict):
            raise ValidationError("config file must hold a JSON object")
        _merge(cfg, user)
    apply_overrides(cfg, overrides)
    scenario = ScenarioConfig(cfg)
    scenario.validate()
    return scenario
