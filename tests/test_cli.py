import json
import os

import numpy as np
import pytest

from nlfront.cli import main
from nlfront.config import default_config, resolve_config
from nlfront.errors import ValidationError


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {"problem": {"h0": 5.0},
        "solver": {"dx": 0.1, "dt": 0.05, "t_end": 2.0, "log_every": 0.5}}


def _strict_json(path):
    """Parse as strict JSON: NaN, Infinity and -Infinity are errors."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_simulate_zero_horizon_single_row(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {"h0": 5.0},
                               "solver": {"dx": 0.1, "dt": 0.05, "t_end": 0.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,h,g,mass,sup_u,flux"
    assert len(rows) == 2
    assert (out / "resolved_config.json").exists()


def test_semiwave_reports_J1_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["semiwave", "--config", cfg, "--out", str(tmp_path / "sw"),
               "--set", 'problem.kernel={"family":"algebraic","gamma":1.5,"a":1.0}'])
    assert rc == 1
    assert "(J1)" in capsys.readouterr().err


def test_semiwave_config_rejected(tmp_path, capsys):
    rc = main(["semiwave", "--out", str(tmp_path / "sw"), "--set", "semiwave.L0=-5"])
    assert rc == 1
    assert "L0" in capsys.readouterr().err


def test_semiwave_failure_writes_newton_runs(tmp_path, monkeypatch):
    # a semi-wave whose every Newton is rejected exits 2, and error.json
    # lists each run with its grid, window and mu: the start at mu = 0 on
    # the coarse grid, then on dx
    from nlfront import semiwave

    monkeypatch.setattr(semiwave, "_newton",
                        lambda ps, mu, phi, c, *args, **kwargs: (phi, c, [1.0], False))
    out = tmp_path / "sw"
    assert main(["semiwave", "--out", str(out),
                 "--set", "semiwave.dx=0.05", "--set", "semiwave.L0=20"]) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConvergenceError" and "continuation" in error["message"]
    runs = error["diagnostics"]["newton_runs"]
    assert [(r["dx"], r["L"], r["mu"], r["residuals"]) for r in runs] == [
        (0.1, 20.0, 0.0, [1.0]), (0.05, 20.0, 0.0, [1.0])]


def test_stability_override_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
               "--set", "solver.dt=1e9"])
    assert rc == 1
    assert "stability budget" in capsys.readouterr().err



@pytest.mark.parametrize("command,override", [
    ("rates", 'analysis.fits=["linear","bogus"]'),
    ("rates", 'analysis.fits="linear"'),
    ("verify", 'verify.checks=["mass-flux","bogus"]'),
    ("simulate", 'verify.checks=["bogus"]'),
])
def test_unknown_fit_or_check_rejected_before_any_run(tmp_path, capsys, command, override):
    # every command checks both lists up front and writes nothing: no
    # resolved_config.json, trajectory.csv or verify.json
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out), "--set", override])
    assert rc == 1
    assert "unknown name" in capsys.readouterr().err
    assert os.listdir(out) == []

@pytest.mark.parametrize("command,override", [
    ("verify", 'verify.checks=["mass-flux","mass-flux"]'),
    ("rates", 'analysis.fits=["linear","power","linear"]'),
])
def test_repeated_fit_or_check_rejected_before_any_run(tmp_path, capsys, command, override):
    # a check or fit named twice would run twice: exit 1 with nothing written
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out), "--set", override]) == 1
    assert "twice" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("override,key", [
    ("solver.dx=abc", "solver.dx"),
    ("problem.d=[1]", "problem.d"),
    ("problem.kernel.r=abc", "problem.kernel.r"),
    ("analysis.window_fraction=abc", "analysis.window_fraction"),
    ("solver.t_end=Infinity", "solver.t_end"),
    ("problem.h0=Infinity", "problem.h0"),
    ("solver.max_nodes=1.5", "solver.max_nodes"),
])
def test_malformed_number_rejected(tmp_path, capsys, override, key):
    # numbers must be finite and counts integral: exit 1 naming the key,
    # with nothing written
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--set", override]) == 1
    assert f"error: {key} must be" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,override,key", [
    ("simulate", "solver.dt=-0.05", "dt"),
    ("simulate", "solver.dt=0", "dt"),
    ("simulate", "solver.log_every=0", "log_every"),
    ("simulate", "solver.snapshot_stride=-1", "snapshot_stride"),
    ("simulate", "solver.max_nodes=0", "max_nodes"),
    ("rates", "analysis.window_fraction=0", "analysis.window_fraction"),
    ("rates", "analysis.window_fraction=1.5", "analysis.window_fraction"),
])
def test_out_of_range_number_rejected_before_any_run(tmp_path, capsys, command, override, key):
    # a number that makes no run fails up front: exit 1 naming the key,
    # with nothing written
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,overrides,message", [
    ("rates", ['problem.kernel={"family":"algebraic","gamma":1.5}',
               "analysis.drift_check=true"], "(J1)"),
    ("verify", ["solver.dt=null", 'verify.checks=["mass-flux","refinement"]'], "solver.dt"),
    ("rates", [], "fit window holds 3 samples"),
    ("rates", ["solver.t_end=1.05", "solver.dt=0.01", "solver.log_every=0.01",
               "analysis.drift_check=true", "analysis.c0=0.5"], "t > 1"),
    ("verify", ["verify.checks=[]"], "nothing to check"),
    ("rates", ["analysis.fits=[]"], "nothing to compute"),
    ("sweep", [], "sweep.values is empty"),
    ("sweep", ['sweep.command="verify"', "sweep.values=[1.0]"], "not supported"),
    ("semiwave", ['problem.reaction={"kind":"zero"}'], "positive zero u*"),
    ("rates", ['problem.reaction={"kind":"zero"}', "analysis.drift_check=true"],
     "positive zero u*"),
])
def test_command_preconditions_fail_before_any_run(tmp_path, capsys, monkeypatch,
                                                   command, overrides, message):
    # the semi-wave, asked for itself or for the drift check, is solved,
    # refinement's explicit dt and each fit's window on the times the run
    # will log checked, and a command with nothing to check or compute
    # refused, and a sweep with no points or a command it cannot sweep
    # refused, before the command's first run: exit 1 with only the echoed
    # configuration written
    from nlfront import cli, solver, validation

    runs = []

    def counted(spec, run_cfg):
        runs.append(run_cfg)
        return solver.run(spec, run_cfg)

    monkeypatch.setattr(cli, "run", counted)
    monkeypatch.setattr(validation, "run", counted)
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "x"
    argv = [command, "--config", cfg, "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(out) == ["resolved_config.json"]
    assert runs == []


@pytest.mark.parametrize("command,payload,override", [
    ("simulate", BASE, "solver=5"),
    ("simulate", {"solver": 5}, None),
    ("simulate", BASE, 'solver={"dx":0.1}'),
    ("simulate", BASE, "problem.u0=5"),
    ("simulate", BASE, 'problem.u0={"type":"plateau","m":null,"rampp":5.0}'),
    ("sweep", BASE, "sweep.values=5"),
    ("simulate", BASE, 'semiwave.minimal_speed="no"'),
    ("simulate", BASE, 'analysis.drift_check="false"'),
    ("simulate", [BASE], None),
    ("simulate", BASE, "solver.dx"),
], ids=["set-section", "file-section", "set-section-object", "u0", "u0-unknown-key",
        "sweep-values", "minimal-speed-text", "drift-check-text", "file-list",
        "set-without-equals"])
def test_config_shape_errors_exit_1(tmp_path, capsys, command, payload, override):
    # a file holds one object and an override is key=value; a section takes
    # keys, not a value; a flag, list or object setting stays one; the
    # initial datum takes only its own keys: exit 1 with nothing written
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "x"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + (["--set", override] if override else [])) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(out) == []


def test_semiwave_scenario_file_selects_kernel_and_reaction(tmp_path):
    # a file's problem.kernel and problem.reaction replace the defaults
    # whole; the algebraic tail has no exponential moment, so no wave
    cfg = write_cfg(tmp_path, {
        "problem": {"kernel": {"family": "algebraic", "gamma": 3.0},
                    "reaction": {"kind": "custom", "name": "cubic"}},
        "semiwave": {"dx": 0.1, "L0": 40.0}})
    out = tmp_path / "sw"
    assert main(["semiwave", "--config", cfg, "--out", str(out)]) == 0
    payload = _strict_json(out / "semiwave.json")
    assert payload["wave"]["error"].startswith("condition (J2) fails")
    echoed = _strict_json(out / "resolved_config.json")["problem"]
    assert echoed["kernel"] == {"family": "algebraic", "gamma": 3.0}
    assert echoed["reaction"] == {"kind": "custom", "name": "cubic"}


def test_sweep_starts_at_most_one_worker_per_point(tmp_path, monkeypatch):
    import concurrent.futures

    workers = []

    class InlinePool:
        """Records max_workers and maps in this process: no process starts."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "swp"), "--jobs", "64",
                 "--set", "sweep.values=[0.5,1.0,2.0]", "--set", "solver.t_end=0.5"]) == 0
    assert workers == [3]


def test_sweep_checks_every_point_before_any_runs(tmp_path, capsys):
    # the second point is no object: exit 1 before the first point writes
    out = tmp_path / "swp"
    assert main(["sweep", "--out", str(out), "--set", "solver.t_end=0.5",
                 "--set", 'sweep.parameter="problem.u0"',
                 "--set", 'sweep.values=[{"type":"plateau","m":null,"ramp":1.0}, 5]']) == 1
    assert capsys.readouterr().err.startswith("error: problem.u0 must be an object")
    assert os.listdir(out) == ["resolved_config.json"]


def test_sweep_checks_every_rates_window_before_any_runs(tmp_path, capsys):
    # the second point logs too few samples for its fit window: exit 1
    # before the first point writes
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "swp"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--set", 'sweep.command="rates"',
                 "--set", 'sweep.parameter="solver.t_end"', "--set", "sweep.values=[30,2]"]) == 1
    assert "fit window holds 3 samples" in capsys.readouterr().err
    assert os.listdir(out) == ["resolved_config.json"]


@pytest.mark.parametrize("text", [None, '{"problem": {"h0": 5.0'], ids=["missing", "truncated"])
def test_unreadable_config_file_exits_1(tmp_path, capsys, text):
    # a --config file that is missing or not JSON is named on the error
    # path: exit 1 with nothing written
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file ") and str(path) in err
    assert os.listdir(out) == []


def test_unknown_key_listed(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", "solver.dtt=0.1"])
    assert rc == 1
    assert "solver.dtt" in capsys.readouterr().err


@pytest.mark.parametrize("override,message", [
    ("solver.front_tol=1e-9", "unknown config key"),
    ("solver.headroom=4.0", "unknown config key"),
    ("analysis.level=0.5", "unknown config key"),
    ('output.directory="out"', "unknown config path"),
    ("verify.comparison_tol=1e-6", "unknown config key"),
    ("semiwave.stationary_d=0", "unknown config key"),
    ("semiwave.stationary_d=-1", "unknown config key"),
    ("verify.refinement_levels=2", "unknown config key"),
    ("verify.comparison_scale=0", "unknown config key"),
    ("verify.comparison_scale=1.5", "unknown config key"),
])
def test_retired_config_keys_rejected(tmp_path, capsys, override, message):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--set", override])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_kernel_override_echoed(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--set",
               'problem.kernel={"family":"algebraic","gamma":2.5,"a":1.0}'])
    assert rc == 0
    echoed = json.loads((out / "resolved_config.json").read_text())
    assert echoed["problem"]["kernel"]["gamma"] == 2.5


TRUNCATED = {"family": "truncated", "n": 4.0, "base": {"family": "algebraic", "gamma": 1.5}}


def test_simulate_runs_a_truncated_kernel(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--set", f"problem.kernel={json.dumps(TRUNCATED)}",
                 "--set", "solver.dx=0.25", "--set", "solver.t_end=1"]) == 0
    echoed = json.loads((out / "resolved_config.json").read_text())
    assert echoed["problem"]["kernel"] == TRUNCATED
    h = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, usecols=1)
    assert np.all(np.isfinite(h)) and h[-1] > h[0]


@pytest.mark.parametrize("kernel,message", [
    ({**TRUNCATED, "r": 1.0}, "unknown kernel keys"),
    ({**TRUNCATED, "base": {**TRUNCATED["base"], "b": 1.0}}, "unknown kernel keys"),
    ({**TRUNCATED, "base": TRUNCATED}, "truncated again"),
    ({**TRUNCATED, "base": {"family": "algebraic", "gamma": "x"}}, "problem.kernel.base.gamma"),
], ids=["unknown-key", "unknown-base-key", "nested", "base-number"])
def test_truncated_kernel_errors_exit_1(tmp_path, capsys, kernel, message):
    out = tmp_path / "x"
    assert main(["simulate", "--out", str(out), "--set", f"problem.kernel={json.dumps(kernel)}"]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("override,message", [
    ('problem.kernel={"family":[1]}', "problem.kernel.family must be text"),
    ('problem.reaction={"kind":"custom","name":[1]}', "problem.reaction.name must be text"),
    ('problem.reaction={"kind":"zero","typo":1}', "unknown reaction keys ['typo']"),
], ids=["family-list", "name-list", "zero-typo"])
def test_malformed_spec_exits_1(tmp_path, capsys, override, message):
    # a spec's text entries are checked as its numbers are, and every key
    # must be one its constructor takes: exit 1 naming it, nothing written
    out = tmp_path / "x"
    assert main(["simulate", "--out", str(out), "--set", override]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_simulate_runs_a_perturbed_reaction(tmp_path):
    reaction = {"kind": "perturbed", "base": {"kind": "logistic"}, "delta": 0.1}
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--set", f"problem.reaction={json.dumps(reaction)}",
                 "--set", "solver.dx=0.25", "--set", "solver.t_end=1"]) == 0
    assert (out / "trajectory.csv").exists()


def test_sweep_and_report(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "swp"
    rc = main(["sweep", "--config", cfg, "--out", str(out),
               "--set", 'sweep.command="semiwave"',
               "--set", "sweep.values=[0.5,1.0,2.0]",
               "--set", "semiwave.dx=0.05"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    cs = [p["c0"] for p in summary["points"]]
    assert np.all(np.diff(cs) > 0.0)
    subdirs = [str(out / f"p{i:03d}") for i in range(3)]
    rep_out = tmp_path / "rep"
    assert main(["report", "--out", str(rep_out), *subdirs]) == 0
    assert (rep_out / "report.json").exists()


def test_report_refuses_missing_config(tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    rc = main(["report", "--out", str(tmp_path / "r"), str(bare)])
    assert rc == 1
    assert "resolved_config" in capsys.readouterr().err


def test_rerun_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_verify_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": {"h0": 10.0, "d": 0.5,
                    "u0": {"type": "plateau", "m": 1.0, "ramp": 2.0}},
        "solver": {"dx": 0.05, "dt": 0.002, "t_end": 1.0, "log_every": 0.1},
        "verify": {"checks": ["mass-flux", "comparison"]},
    })
    out = tmp_path / "ver"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"]
    assert payload["mass_flux"]["residual"] <= 1e-3


def test_verify_shares_the_base_run(tmp_path, monkeypatch):
    # comparison's upper run is refinement's level 0: three checks make five
    # runs, and verify.json matches the six-run sequence byte for byte
    from nlfront import cli, solver, validation

    cfg = write_cfg(tmp_path, {
        "problem": {"h0": 5.0, "d": 0.5},
        "solver": {"dx": 0.1, "dt": 0.02, "t_end": 0.5, "log_every": 0.1},
        "verify": {"checks": ["mass-flux", "comparison", "refinement"]},
    })
    runs = []

    def counted(spec, run_cfg):
        runs.append(run_cfg)
        return solver.run(spec, run_cfg)

    monkeypatch.setattr(cli, "run", counted)
    monkeypatch.setattr(validation, "run", counted)
    shared, unshared = tmp_path / "shared", tmp_path / "unshared"
    rc = main(["verify", "--config", cfg, "--out", str(shared)])
    assert len(runs) == 5
    compare, refine = validation.comparison_order_check, validation.refinement_order
    monkeypatch.setattr(validation, "comparison_order_check",
                        lambda *args, log_b, **kwargs: compare(*args, **kwargs))
    monkeypatch.setattr(validation, "refinement_order",
                        lambda *args, base, **kwargs: refine(*args, **kwargs))
    assert main(["verify", "--config", cfg, "--out", str(unshared)]) == rc
    assert (shared / "verify.json").read_bytes() == (unshared / "verify.json").read_bytes()


def test_verify_failure_exit_3(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": {"h0": 5.0},
        "solver": {"dx": 0.1, "dt": 0.05, "t_end": 1.0, "log_every": 0.5},
        "verify": {"checks": ["mass-flux"], "mass_flux_tol": 1e-30},
    })
    out = tmp_path / "ver"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False
    assert payload["mass_flux"]["residual"] > 1e-30


def test_verify_refinement_inconclusive_exit_3(tmp_path):
    # a fixed domain keeps h = h0 at every level: no order to observe
    cfg = write_cfg(tmp_path, {
        "problem": {"h0": 5.0, "variant": "fixed-domain"},
        "solver": {"dx": 0.1, "dt": 0.05, "t_end": 0.5, "log_every": 0.25},
        "verify": {"checks": ["refinement"]},
    })
    out = tmp_path / "ver"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    payload = json.loads((out / "verify.json").read_text())
    assert payload["refinement"]["inconclusive"] is True
    assert payload["refinement"]["order"] is None
    assert set(payload["refinement"]) == {"order", "inconclusive", "h_values", "passed"}
    assert payload["passed"] is False


def test_resource_cap_exit_2_with_partial_artifact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": {"h0": 10.0},
                               "solver": {"dx": 0.05, "dt": 0.05, "t_end": 40.0,
                                          "log_every": 1.0, "max_nodes": 300}})
    out = tmp_path / "capped"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "window cap" in capsys.readouterr().err
    partial = (out / "trajectory_partial.csv").read_text().splitlines()
    assert partial[0] == "t,h,g,mass,sup_u,flux"
    assert len(partial) > 2
    error = _strict_json(out / "error.json")
    assert error["error"] == "ResourceError"
    diag = error["diagnostics"]
    assert diag["max_nodes"] == 300 < diag["nodes_requested"]
    assert 0.0 < diag["t"] < 40.0 and diag["h"] > 10.0
    assert set(diag) == {"nodes_requested", "max_nodes", "t", "h", "g"}
    assert diag["g"] is None            # the half line has no left front: g = -inf


def test_resource_cap_binds_the_first_grid(tmp_path, capsys):
    # a cap below the starting grid fails at t = 0 the way a growth does
    out = tmp_path / "capped"
    cfg = write_cfg(tmp_path, {"problem": {"h0": 10.0},
                               "solver": {"dx": 0.05, "dt": 0.05, "t_end": 1.0,
                                          "max_nodes": 10}})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "window cap" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["error.json", "resolved_config.json"]
    diag = _strict_json(out / "error.json")["diagnostics"]
    assert diag == {"nodes_requested": diag["nodes_requested"], "max_nodes": 10, "t": 0.0,
                    "h": 10.0, "g": None}
    assert diag["nodes_requested"] > 10


def test_resolve_config_defaults_and_validation(tmp_path):
    scenario = resolve_config(None, [])
    assert scenario.raw["problem"]["variant"] == "halfline-fb"
    with pytest.raises(ValidationError):
        resolve_config(None, ["problem.variant=oops"])
    cfg = write_cfg(tmp_path, {"made_up_section": {}})
    with pytest.raises(ValidationError):
        resolve_config(cfg, [])


def test_rates_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": {"h0": 10.0},
        "solver": {"dx": 0.1, "dt": 0.05, "t_end": 30.0, "log_every": 0.5},
        "analysis": {"fits": ["linear"], "drift_check": False},
    })
    out = tmp_path / "rates"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "rates.json").read_text())
    assert payload["linear"]["coeffs"]["c"] > 0.0


def test_semiwave_json_keys(tmp_path):
    out = tmp_path / "sw"
    assert main(["semiwave", "--out", str(out), "--set", "semiwave.dx=0.05",
                 "--set", "semiwave.stationary=true"]) == 0
    payload = _strict_json(out / "semiwave.json")
    assert set(payload) == {"semiwave", "wave", "stationary"}
    assert set(payload["semiwave"]) == {
        "c0", "L", "dx", "residual", "speed_defect", "u_star", "d", "mu",
        "newton_iterations", "newton_residuals", "window_check"}
    assert set(payload["wave"]) == {"c_star", "lambda_star"}
    assert set(payload["stationary"]) == {"d", "x0", "U0", "u_star", "iterations",
                                          "residual"}
    assert payload["stationary"]["d"] == default_config()["problem"]["d"]
    assert (out / "profile.csv").read_text().startswith("x,phi\n")
    assert (out / "stationary.csv").read_text().startswith("x,U\n")


def test_rates_json_keys(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {"h0": 10.0},
                               "solver": {"dx": 0.1, "dt": 0.05, "t_end": 30.0,
                                          "log_every": 0.5},
                               "analysis": {"fits": ["linear", "power", "tlogt"],
                                            "drift_check": True, "c0": 0.5}})
    out = tmp_path / "rates"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    payload = _strict_json(out / "rates.json")
    assert set(payload) == {"linear", "power", "tlogt", "log_drift"}
    for name in ("linear", "power", "tlogt"):
        assert set(payload[name]) == {"model", "coeffs", "window", "residual_rms",
                                      "drift", "low_confidence"}
        assert payload[name]["model"] == name
    assert set(payload["log_drift"]) == {"sup_r", "ln_slope", "ln_intercept",
                                         "residual_rms", "bound", "window", "c0"}


def test_rates_drift_check_uses_the_semiwave_settings(tmp_path):
    from nlfront.semiwave import SemiWaveConfig, solve_semiwave

    cfg = write_cfg(tmp_path, {"problem": {"h0": 10.0},
                               "solver": {"dx": 0.1, "dt": 0.05, "t_end": 30.0,
                                          "log_every": 0.5},
                               "analysis": {"drift_check": True}})
    out = tmp_path / "rates"
    assert main(["rates", "--config", cfg, "--out", str(out),
                 "--set", "semiwave.dx=0.5", "--set", "semiwave.L0=3"]) == 0
    spec, _ = resolve_config(cfg, []).validate()
    sol = solve_semiwave(spec.kernel, spec.reaction, spec.d, spec.mu,
                         SemiWaveConfig(dx=0.5, L0=3.0))
    c0 = json.loads((out / "rates.json").read_text())["log_drift"]["c0"]
    assert c0 == sol.c0
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "bad"),
                 "--set", "semiwave.L0=-5"]) == 1


def test_sweep_jobs_match_serial_sweep(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    trees = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", str(jobs),
                     "--set", "sweep.values=[0.5,2.0]", "--set", "solver.t_end=0.5",
                     "--set", "solver.snapshot_stride=2"]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert "p001/trajectory.csv" in trees[0]
    assert trees[0] == trees[1]


def test_runtime_failure_writes_error_json(tmp_path, monkeypatch):
    # a run that goes non-finite exits 2 and keeps its diagnostics in error.json
    import dataclasses

    from nlfront import cli, solver
    from nlfront.reactions import logistic

    base = logistic(1.0, 1.0)
    nan_reaction = dataclasses.replace(
        base, f=lambda u: np.where(np.asarray(u) > 0.5, np.nan, base.f(u)))
    monkeypatch.setattr(cli, "run", lambda spec, cfg: solver.run(
        dataclasses.replace(spec, reaction=nan_reaction), cfg))
    out = tmp_path / "nan"
    assert main(["simulate", "--config", write_cfg(tmp_path, BASE), "--out", str(out)]) == 2
    error = _strict_json(out / "error.json")
    assert error["error"] == "ConvergenceError"
    assert "non-finite" in error["message"]
    assert error["diagnostics"]["t"] < 2.0
    assert error["diagnostics"]["g"] is None
    assert (out / "trajectory_partial.csv").exists()
    assert not (out / "trajectory.csv").exists()
