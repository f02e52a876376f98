"""Command-line surface: simulate | semiwave | rates | verify | sweep | report.

Every command writes deterministic artifacts into --out together with the
fully-resolved configuration; reruns with the same resolved config produce
bit-identical files.  Exit codes: 0 success, 1 configuration/validation
problems, 2 runtime failures (convergence, non-finite states, resource
caps) with error.json (message and diagnostics) and partial artifacts where
available, 3 when `verify` ran and a check failed (verify.json is still
written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .artifacts import write_csv, write_json
from .config import ScenarioConfig, apply_overrides, resolve_config
from .errors import (ContractError, ConvergenceError, InsufficientDataError,
                     ResourceError, ValidationError)
from .reactions import zero_reaction
from .semiwave import minimal_speed, solve_semiwave, stationary_profile
from .solver import TrajectoryLog, checkpoint_times, run


def _echo_config(outdir, scenario: ScenarioConfig):
    write_json(os.path.join(outdir, "resolved_config.json"), scenario.to_json())


def cmd_simulate(scenario: ScenarioConfig, outdir: str) -> int:
    spec, cfg = scenario.validate()
    log = run(spec, cfg)
    log.to_csv(os.path.join(outdir, "trajectory.csv"))
    final = log.final_state
    for t, snap in [*log.snapshots, (final.t, final.as_field())]:
        write_csv(os.path.join(outdir, f"snapshot_{t:.6f}.csv"), ("x", "u"),
                  (snap.x, snap.values))
    return 0


def cmd_semiwave(scenario: ScenarioConfig, outdir: str) -> int:
    spec, _ = scenario.validate()
    sw = scenario["semiwave"]
    payload = {}
    sol = solve_semiwave(spec.kernel, spec.reaction, spec.d, spec.mu,
                         scenario.semiwave_config())
    payload["semiwave"] = sol.to_json()
    write_csv(os.path.join(outdir, "profile.csv"), ("x", "phi"), (sol.x, sol.phi))
    if sw["minimal_speed"]:
        try:
            payload["wave"] = minimal_speed(spec.kernel, spec.reaction, spec.d).to_json()
        except ValidationError as exc:
            payload["wave"] = {"error": str(exc)}
    if sw["stationary"]:
        d_val = sw["stationary_d"] if sw["stationary_d"] is not None else spec.d
        prof = stationary_profile(spec.kernel, spec.reaction, float(d_val))
        payload["stationary"] = prof.to_json()
        write_csv(os.path.join(outdir, "stationary.csv"), ("x", "U"), (prof.x, prof.U))
    write_json(os.path.join(outdir, "semiwave.json"), payload)
    return 0


def _rates(analysis: dict, log: TrajectoryLog, c0) -> dict:
    """rates.json: the named fits of ``log`` and, with the drift check, its
    log drift from c0 t."""
    from . import asymptotics

    wf = float(analysis["window_fraction"])
    fits = {"linear": asymptotics.estimate_linear_speed,
            "power": asymptotics.fit_power_exponent,
            "tlogt": asymptotics.fit_tlogt_coefficient}
    payload = {name: fits[name](log, wf).to_json() for name in analysis["fits"]}
    if analysis["drift_check"]:
        payload["log_drift"] = asymptotics.log_drift_check(log, float(c0), wf).to_json()
        payload["log_drift"]["c0"] = float(c0)
    return payload


def _check_rates(analysis: dict, spec, cfg):
    """Refuse, before the run, a `rates` with nothing to compute and a fit
    window the logged times cannot fill: a window depends on those times
    alone, so fitting a stand-in front on them (any finite c0) shows it."""
    if not analysis["fits"] and not analysis["drift_check"]:
        raise ValidationError("rates has nothing to compute: no analysis.fits, no drift_check")
    t = checkpoint_times(spec, cfg)
    _rates(analysis, TrajectoryLog(t=list(t), h=list(1.0 + t)), 1.0)


def cmd_rates(scenario: ScenarioConfig, outdir: str) -> int:
    spec, cfg = scenario.validate()
    an = scenario["analysis"]
    c0 = an["c0"]
    if an["drift_check"] and c0 is None:     # a semi-wave that fails, fails before the run
        c0 = solve_semiwave(spec.kernel, spec.reaction, spec.d, spec.mu,
                            scenario.semiwave_config()).c0
    _check_rates(an, spec, cfg)
    log = run(spec, cfg)
    log.to_csv(os.path.join(outdir, "trajectory.csv"))
    write_json(os.path.join(outdir, "rates.json"), _rates(an, log, c0))
    return 0


def cmd_verify(scenario: ScenarioConfig, outdir: str) -> int:
    from . import validation

    spec, cfg = scenario.validate()
    ver = scenario["verify"]
    if not ver["checks"]:                                   # before any check runs
        raise ValidationError("verify.checks is empty: verify has nothing to check")
    if "refinement" in ver["checks"] and cfg.dt is None:
        raise ValidationError("verify's refinement check needs an explicit solver.dt")
    payload = {}
    ok = True
    # comparison's upper run is refinement's level 0 (snapshots move no step):
    # with both checks it runs once
    upper = (run(spec, cfg.with_snapshots())
             if {"comparison", "refinement"} <= set(ver["checks"]) else None)
    for check in ver["checks"]:
        if check == "mass-flux":
            zspec = replace(spec, variant="halfline-fb", reaction=zero_reaction(),
                            u0=spec.initial_datum())
            log = run(zspec, cfg)
            resid = validation.mass_flux_residual(log, zspec)
            passed = resid <= float(ver["mass_flux_tol"])
            payload["mass_flux"] = {"residual": resid, "passed": passed}
        elif check == "comparison":
            scale = float(ver["comparison_scale"])
            base = spec.initial_datum()
            low = replace(spec, u0=lambda x: scale * np.asarray(base(x)))
            rep = validation.comparison_order_check(low, spec, cfg, log_b=upper)
            passed = rep.passed
            payload["comparison"] = rep.to_json()
        else:                               # refinement
            rep = validation.refinement_order(spec, cfg,
                                              levels=int(ver["refinement_levels"]),
                                              base=upper)
            passed = (not rep.inconclusive) and rep.order is not None and rep.order >= 0.7
            payload["refinement"] = {"order": rep.order,
                                     "inconclusive": rep.inconclusive,
                                     "h_values": list(rep.h_values),
                                     "passed": passed}
        ok = ok and passed
    payload["passed"] = ok
    write_json(os.path.join(outdir, "verify.json"), payload)
    return 0 if ok else 3


def _sweep_one(args):
    scenario, value, command, subdir = args
    os.makedirs(subdir, exist_ok=True)
    _echo_config(subdir, scenario)
    rc = _COMMANDS[command](scenario, subdir)
    summary = {"value": value, "dir": os.path.basename(subdir), "rc": rc}
    if command == "semiwave":
        with open(os.path.join(subdir, "semiwave.json")) as fh:
            summary["c0"] = json.load(fh)["semiwave"]["c0"]
    else:
        log = TrajectoryLog.from_csv(os.path.join(subdir, "trajectory.csv"))
        summary["h_end"] = log.h[-1]
    return summary


def cmd_sweep(scenario: ScenarioConfig, outdir: str, jobs: int = 1) -> int:
    sw = scenario["sweep"]
    values = sw["values"]
    if not values:
        raise ValidationError("sweep.values is empty")
    command = sw["command"]
    if command not in ("simulate", "semiwave", "rates"):
        raise ValidationError(f"sweep.command {command!r} not supported")
    tasks = []
    for i, val in enumerate(values):
        point = ScenarioConfig(apply_overrides(scenario.to_json(),
                                               [f"{sw['parameter']}={json.dumps(val)}"]))
        spec, cfg = point.validate()    # a bad point fails before any point runs
        if command == "rates":
            _check_rates(point["analysis"], spec, cfg)
        tasks.append((point, val, command, os.path.join(outdir, f"p{i:03d}")))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            summaries = list(pool.map(_sweep_one, tasks))
    else:
        summaries = [_sweep_one(t) for t in tasks]
    write_json(os.path.join(outdir, "summary.json"),
               {"parameter": sw["parameter"], "command": command, "points": summaries})
    return 0


def cmd_report(outdir: str, dirs) -> int:
    rows = []
    for d in dirs:
        resolved = os.path.join(d, "resolved_config.json")
        if not os.path.exists(resolved):
            print(f"error: {d} lacks resolved_config.json; refusing", file=sys.stderr)
            return 1
        row = {"dir": d}
        for name in ("verify.json", "rates.json", "semiwave.json", "summary.json"):
            path = os.path.join(d, name)
            if os.path.exists(path):
                with open(path) as fh:
                    row[name.removesuffix(".json")] = json.load(fh)
        rows.append(row)
    write_json(os.path.join(outdir, "report.json"), {"entries": rows})
    for row in rows:
        verdict = row.get("verify", {}).get("passed")
        print(f"{row['dir']}: verify={'-' if verdict is None else ('pass' if verdict else 'FAIL')}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "semiwave": cmd_semiwave,
    "rates": cmd_rates,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlfront",
        description="Nonlocal-diffusion free-boundary fronts: batch runs and diagnostics")
    parser.add_argument("command",
                        choices=["simulate", "semiwave", "rates", "verify",
                                 "sweep", "report"])
    parser.add_argument("--config", default=None, help="JSON scenario file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="dotted-path override, repeatable")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    parser.add_argument("dirs", nargs="*", help="directories for `report`")
    args = parser.parse_intermixed_args(argv)

    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "report":
            return cmd_report(args.out, args.dirs or [args.out])
        scenario = resolve_config(args.config, args.set)
        _echo_config(args.out, scenario)
        if args.command == "sweep":
            return cmd_sweep(scenario, args.out, jobs=args.jobs)
        return _COMMANDS[args.command](scenario, args.out)
    except (ValidationError, ContractError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, ResourceError) as exc:
        partial = exc.partial
        if partial is not None and hasattr(partial, "to_csv"):
            partial.to_csv(os.path.join(args.out, "trajectory_partial.csv"))
        write_json(os.path.join(args.out, "error.json"),
                   {"error": type(exc).__name__, "message": str(exc),
                    "diagnostics": exc.diagnostics})
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
