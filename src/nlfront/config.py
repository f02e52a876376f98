"""Scenario configuration: JSON in, defaults filled, dotted overrides last.

Every run echoes its fully-resolved configuration next to the outputs, so
any artifact directory reproduces bit-identically from the echoed file.
Unknown keys are errors: sweeps mutate configs programmatically and a
silent typo would fan out into every run of a study.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass

from .errors import ValidationError
from .kernels import kernel_from_json
from .reactions import reaction_from_json
from .semiwave import SemiWaveConfig
from .solver import ProblemSpec, SolverConfig, make_plateau, stability_budget

__all__ = ["ScenarioConfig", "resolve_config", "default_config", "apply_overrides"]

# the names `rates` and `verify` accept
_NAMES = {("analysis", "fits"): ("linear", "power", "tlogt"),
          ("verify", "checks"): ("mass-flux", "comparison", "refinement")}

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
        "stationary_d": None,
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
        "comparison_scale": 0.5,
        "comparison_tol": 1e-8,
        "refinement_levels": 3,
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

    def problem_spec(self) -> ProblemSpec:
        p = self.raw["problem"]
        kernel = kernel_from_json(p["kernel"])
        reaction = reaction_from_json(p["reaction"])
        u0js = p["u0"]
        if u0js.get("type", "plateau") != "plateau":
            raise ValidationError("only 'plateau' initial data are configurable")
        m = u0js.get("m")
        if m is None:
            m = reaction.u_star if reaction.u_star else 1.0
        u0 = make_plateau(p["h0"], m=float(m), ramp=float(u0js.get("ramp", 1.0)))
        return ProblemSpec(variant=p["variant"], kernel=kernel, reaction=reaction,
                           d=float(p["d"]), mu=float(p["mu"]), h0=float(p["h0"]),
                           u0=u0)

    def solver_config(self) -> SolverConfig:
        s = self.raw["solver"]
        return SolverConfig(dx=float(s["dx"]),
                            dt=None if s["dt"] is None else float(s["dt"]),
                            t_end=float(s["t_end"]),
                            log_every=None if s["log_every"] is None else float(s["log_every"]),
                            snapshot_stride=int(s["snapshot_stride"]),
                            max_nodes=int(s["max_nodes"]),
                            scheme=s["scheme"])

    def semiwave_config(self) -> SemiWaveConfig:
        s = self.raw["semiwave"]
        return SemiWaveConfig(dx=float(s["dx"]),
                              L0=None if s["L0"] is None else float(s["L0"]))

    def validate(self):
        spec = self.problem_spec()
        cfg = self.solver_config()
        self.semiwave_config()          # bad semi-wave settings fail every command
        if cfg.dt is not None:
            budget = stability_budget(spec)
            if cfg.dt > budget * (1.0 + 1e-12):
                raise ValidationError(
                    f"solver.dt = {cfg.dt} exceeds the stability budget {budget:.6g}")
        wf = self.raw["analysis"]["window_fraction"]
        if not 0.0 < wf <= 1.0:
            raise ValidationError("analysis.window_fraction must lie in (0, 1]")
        # an unknown fit or check fails here, before any run
        for (section, key), known in _NAMES.items():
            names = self.raw[section][key]
            bad = [n for n in names if n not in known] if isinstance(names, list) else [names]
            if bad:
                raise ValidationError(f"unknown name {bad[0]!r} in {section}.{key}; "
                                      f"known: {', '.join(known)}")
        return spec, cfg

    def to_json(self) -> dict:
        return copy.deepcopy(self.raw)


def default_config() -> dict:
    return copy.deepcopy(_DEFAULTS)


def _merge(base: dict, user: dict, path: str):
    for key, val in user.items():
        if key not in base:
            raise ValidationError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            _merge(base[key], val, path + key + ".")
        else:
            base[key] = val


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
        node = cfg
        parts = key.strip().split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ValidationError(f"unknown config path {key!r}")
            node = node[part]
        leaf = parts[-1]
        if leaf not in node:
            raise ValidationError(f"unknown config key {key!r}")
        node[leaf] = _parse_scalar(val.strip())
    return cfg


def resolve_config(path: str | None, overrides=None) -> ScenarioConfig:
    """Parse, fill defaults, apply overrides, and validate."""
    cfg = default_config()
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValidationError("config file must hold a JSON object")
        _merge(cfg, user, "")
    apply_overrides(cfg, overrides)
    scenario = ScenarioConfig(cfg)
    scenario.validate()
    return scenario
