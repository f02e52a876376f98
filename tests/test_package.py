import importlib
import pkgutil
from dataclasses import asdict

import pytest

import nlfront
from nlfront.config import ScenarioConfig, default_config
from nlfront.semiwave import SemiWaveConfig
from nlfront.solver import SolverConfig
from nlfront.validation import Lattice

MODULES = ["nlfront"] + [f"nlfront.{m.name}" for m in pkgutil.iter_modules(nlfront.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_solver_config_casts_every_field():
    # config.solver_config reads each key of the solver section into its
    # SolverConfig field: every field is a key, and every value arrives
    raw = default_config()
    assert ScenarioConfig(raw).solver_config() == SolverConfig()
    changed = {"dx": 0.1, "dt": 0.01, "t_end": 2.0, "log_every": 0.5,
               "snapshot_stride": 3, "max_nodes": 1000, "scheme": "rk2"}
    assert set(changed) == set(raw["solver"])
    raw["solver"] = changed
    assert asdict(ScenarioConfig(raw).solver_config()) == changed


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(headroom=4.0),
    lambda: SolverConfig(front_tol=1e-9),
    lambda: SemiWaveConfig(L_rtol=1e-4),
    lambda: Lattice(t_values=(0.0,), dy=0.1),
    lambda: Lattice(t_values=(0.0,), max_nodes=1000),
], ids=["headroom", "front_tol", "L_rtol", "dy", "max_nodes"])
def test_retired_settings_are_gone(build):
    with pytest.raises(TypeError):
        build()
