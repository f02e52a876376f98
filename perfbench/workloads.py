"""The benchmark's workloads: inputs from a seed, one cycle of calls into
nlfront, and the pass/fail check of every call.

A cycle is the unit the benchmark repeats and times; a workload's cycle runs
its parts in order.  Each call into the
package is one operation; it fails when it raises or its output check fails.
The checks reuse the acceptance criteria's tolerances.  Seed 0 runs the
nominal configurations and also compares against references recorded at
the commit that defined the benchmark; any other seed perturbs the inputs
within ranges that keep every criterion check valid.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

DEFAULT_SEED = 0

# semi-wave speed of the uniform kernel (r = 1), logistic(1, 1), d = mu = 1
# at the default SemiWaveConfig; `spread` hands it to `rates` as analysis.c0
C0 = 0.1246191434627767

# Seed-0 references and the tolerance each is compared with.  The tolerances
# admit numerical changes of the order the package's own tests accept
# (another quadrature or profile solver), not a different answer.
REFERENCES = {
    "spread.h_end": (59.96516300146977, "rel", 1e-3),
    "spread.c_fit": (0.12499999754325684, "rel", 1e-3),
    "profiles.c0": (C0, "rel", 1e-5),
    "profiles.c_star": (0.9052617393690582, "rel", 1e-6),
    "profiles.mu_curve.c": ((0.0017700546597199944, 0.1236224001478780, 0.6267684914393734),
                            "rel", 1e-4),
    "profiles.stationary.U0": ((0.9995001252442002, 0.6299345041295248, 0.06207976559005218),
                               "rel", 1e-4),
    "accelerated.gamma15.p": (1.9768690329088092, "abs", 0.01),
    "accelerated.gamma15.h_end": (715.1501514556905, "rel", 1e-3),
    "accelerated.gamma2.p": (1.161959835674021, "abs", 0.01),
    "accelerated.gamma2.h_end": (173.87628997092074, "rel", 1e-3),
    "accelerated.truncated.p": (0.6456966890272395, "abs", 0.01),
    "accelerated.truncated.h_end": (31.00111021752255, "rel", 1e-3),
    "oracles.mass_flux_residual": (0.00057012194390893, "rel", 1e-2),
    "oracles.refinement_order": (1.3154890622779152, "abs", 0.05),
}


class Ops:
    """Attempted/failed accounting and an output fingerprint for one cycle."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.artifact_bytes = 0
        self._hash = hashlib.sha256()

    def call(self, name, fn, check):
        """Run one operation; `check(out)` returns a list of problems."""
        self.attempted += 1
        try:
            out = fn()
            problems = check(out)
        except Exception as exc:  # every failure is counted and reported; the run goes on
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))
        return out

    def fingerprint(self, *parts):
        for part in parts:
            self._hash.update(_as_bytes(part))

    def fingerprint_dir(self, path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                data = fh.read()
            self.artifact_bytes += len(data)
            self.fingerprint(name, data)

    def digest(self) -> str:
        return self._hash.hexdigest()

    def reference(self, key, value) -> list[str]:
        """Seed-0 comparison against REFERENCES[key]; other seeds skip it."""
        if self.seed != DEFAULT_SEED:
            return []
        ref, kind, tol = REFERENCES[key]
        problems = []
        for r, v in zip(np.atleast_1d(ref).tolist(), np.atleast_1d(value).tolist()):
            err = abs(v - r) / abs(r) if kind == "rel" else abs(v - r)
            if not err <= tol:
                problems.append(f"{key} = {v!r} differs from reference {r!r} "
                                f"({kind} error {err:.3g} > {tol:g})")
        return problems


def _as_bytes(part) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, np.ndarray):
        return str((part.dtype, part.shape)).encode() + np.ascontiguousarray(part).tobytes()
    if isinstance(part, (list, tuple)):
        return b"[" + b",".join(_as_bytes(p) for p in part) + b"]"
    if hasattr(part, "to_json"):
        return json.dumps(part.to_json(), sort_keys=True, default=_json_default).encode()
    return repr(part).encode()


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return repr(obj)


def _expect(ok, message) -> list[str]:
    return [] if ok else [message]


def _log_bytes(log):
    return (np.asarray(log.t), np.asarray(log.h), np.asarray(log.mass),
            np.asarray(log.flux), log.final_state.u)


def _scale(rng, lo=0.8, hi=1.25):
    return 1.0 if rng is None else rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# spread: one long compact-kernel run through `nlfront rates`
# ---------------------------------------------------------------------------


def spread_inputs(rng):
    h0 = 10.0 if rng is None else round(rng.uniform(9.5, 10.5), 4)
    t_end = 400.0 if rng is None else 0.05 * rng.randint(7920, 8080)
    return {"config": {
        "problem": {"variant": "halfline-fb",
                    "kernel": {"family": "compact-uniform", "r": 1.0},
                    "reaction": {"kind": "logistic", "a": 1.0, "b": 1.0},
                    "d": 1.0, "mu": 1.0, "h0": h0},
        "solver": {"dx": 0.05, "dt": 0.05, "t_end": t_end, "log_every": 5.0,
                   "snapshot_stride": 40},
        "analysis": {"fits": ["linear"], "drift_check": True, "c0": C0},
    }}


def spread_cycle(inp, ops: Ops, k: int):
    from nlfront import cli

    out = os.path.join(ops.workdir, f"spread-{k}")

    def check(rc):
        problems = _expect(rc == 0, f"nlfront rates exited {rc}")
        if problems:
            return problems
        with open(os.path.join(out, "rates.json")) as fh:
            rates = json.load(fh)
        traj = np.atleast_1d(np.genfromtxt(os.path.join(out, "trajectory.csv"),
                                           delimiter=",", names=True))
        c_fit = rates["linear"]["coeffs"]["c"]
        problems += _expect(abs(c_fit - C0) / C0 <= 0.05,
                            f"fitted speed {c_fit:.6f} not within 5% of c0 = {C0:.6f}")
        problems += _expect(math.isfinite(rates["log_drift"]["sup_r"]),
                            "log-drift sup r is not finite")
        problems += _expect(bool(np.all(np.diff(traj["h"]) >= 0.0)), "front moved backwards")
        problems += ops.reference("spread.h_end", float(traj["h"][-1]))
        problems += ops.reference("spread.c_fit", c_fit)
        ops.fingerprint_dir(out)
        return problems

    ops.call("cli.rates", lambda: cli.main(["rates", "--config", inp["config_path"],
                                            "--out", out]), check)


# ---------------------------------------------------------------------------
# profiles: semi-wave, mu-curve, stationary profiles and the wave speed
# ---------------------------------------------------------------------------


def profiles_inputs(rng):
    # the mu = 100 solve costs about in proportion to mu, so it stays fixed
    # and the seed moves only the inputs whose cost barely depends on them
    return {
        "mus": [0.01 * _scale(rng), 1.0 * _scale(rng), 100.0],
        "ds": [1e-3 * _scale(rng), 1.0 * _scale(rng), 100.0 * _scale(rng, 0.9, 1.1)],
    }


def profiles_cycle(inp, ops: Ops, k: int):
    from nlfront import kernels, reactions, semiwave

    uniform = kernels.CompactUniform(1.0)
    cosine = kernels.CompactCosine(1.0)
    react = reactions.logistic(1.0, 1.0)

    def check_semiwave(sol):
        ops.fingerprint(sol.c0, sol.x, sol.phi)
        cfg = semiwave.SemiWaveConfig()
        return (_expect(sol.residual <= cfg.residual_tol,
                        f"semi-wave residual {sol.residual:.3g} above {cfg.residual_tol:g}")
                + _expect(bool(np.all(np.diff(sol.phi) <= 0.0)), "phi is not nonincreasing")
                + ops.reference("profiles.c0", sol.c0))

    ops.call("semiwave.solve_semiwave",
             lambda: semiwave.solve_semiwave(uniform, react, 1.0, 1.0), check_semiwave)

    # c* of the uniform kernel has the closed form min_lam sinh(lam)/lam^2
    lam = np.linspace(1e-3, 6.0, 600_001)
    c_scan = float(np.min(np.sinh(lam) / lam ** 2))

    def check_wave(ws):
        ops.fingerprint(ws.to_json())
        return (_expect(abs(ws.c_star - c_scan) <= 1e-6,
                        f"c* = {ws.c_star:.8f} vs scan {c_scan:.8f}")
                + ops.reference("profiles.c_star", ws.c_star))

    wave = ops.call("semiwave.minimal_speed",
                    lambda: semiwave.minimal_speed(uniform, react, 1.0), check_wave)
    c_star = wave.c_star if wave is not None else c_scan

    # u* = 1 keeps each solve within a cycle; the acceptance suite's u* = 250
    # curve costs over 30 s per mu list (see README)
    coarse = semiwave.SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0)

    def check_curve(curve):
        ops.fingerprint(curve.c, curve.l)
        c = curve.c
        return (_expect(bool(np.all(np.diff(c) > 0.0)), f"c not increasing in mu: {c}")
                + _expect(c[0] < 0.1 * c[1], f"c(mu small) = {c[0]:.4g} not below 0.1 c(mu mid)")
                + _expect(c[-1] < c_star, f"c(mu large) = {c[-1]:.4f} not below c* = {c_star:.4f}")
                + ops.reference("profiles.mu_curve.c", c))

    ops.call("semiwave.mu_curve",
             lambda: semiwave.mu_curve(uniform, react, 1.0, inp["mus"], coarse), check_curve)

    profs = []
    for i, d in enumerate(inp["ds"]):
        def check_profile(prof, last=(i == len(inp["ds"]) - 1)):
            ops.fingerprint(prof.x, prof.U)
            profs.append(prof)
            problems = _expect(bool(np.all(np.diff(prof.U) < 0.0)),
                               f"stationary profile at d = {prof.d:g} not strictly decreasing")
            if last and len(profs) == len(inp["ds"]):
                xs = np.linspace(-2.0, 0.0, 201)
                ordered = all(bool(np.all(a.U_at(xs) >= b.U_at(xs) - 1e-12))
                              for a, b in zip(profs, profs[1:]))
                problems += _expect(ordered, "stationary profiles not ordered in d")
                problems += _expect(profs[0].U[-1] > 0.5 > profs[-1].U[-1],
                                    "U(0) does not cross u*/2 between the smallest and largest d")
                problems += ops.reference("profiles.stationary.U0", [p.U[-1] for p in profs])
            return problems

        ops.call("semiwave.stationary_profile",
                 lambda d=d: semiwave.stationary_profile(cosine, react, d), check_profile)


# ---------------------------------------------------------------------------
# accelerated: heavy-tailed and truncated kernels, power / t log t fits
# ---------------------------------------------------------------------------


def accelerated_inputs(rng):
    def h0():
        return 10.0 if rng is None else round(rng.uniform(9.5, 10.5), 4)

    def t_end(nominal):
        return nominal if rng is None else 0.05 * round(nominal / 0.05 * rng.uniform(0.995, 1.005))

    return {"gamma15": {"h0": h0(), "t_end": t_end(80.0)},
            "gamma2": {"h0": h0(), "t_end": t_end(120.0)},
            "truncated": {"h0": h0(), "t_end": t_end(20.0), "n": 20.0}}


def accelerated_cycle(inp, ops: Ops, k: int):
    from nlfront import asymptotics, kernels, reactions, solver

    react = reactions.logistic(1.0, 1.0)

    def spec(kernel, h0):
        return solver.ProblemSpec(variant="halfline-fb", kernel=kernel, reaction=react,
                                  d=1.0, mu=1.0, h0=h0)

    def run_and_fit(kernel, p, dx, log_every):
        log = solver.run(spec(kernel, p["h0"]),
                         solver.SolverConfig(dx=dx, dt=0.05, t_end=p["t_end"],
                                             log_every=log_every))
        return log, asymptotics.fit_power_exponent(log, 0.5)

    def check_g15(out):
        log, fit = out
        ops.fingerprint(_log_bytes(log), fit)
        p = fit.coeffs["p"]
        return (_expect(1.8 <= p <= 2.2 and fit.drift < 0.10,
                        f"gamma = 1.5 exponent {p:.4f} or drift {fit.drift:.4f} out of bounds")
                + ops.reference("accelerated.gamma15.p", p)
                + ops.reference("accelerated.gamma15.h_end", log.h[-1]))

    ops.call("solver.run gamma=1.5",
             lambda: run_and_fit(kernels.AlgebraicTail(1.5, 1.0), inp["gamma15"], 0.25, 1.0),
             check_g15)

    def check_g2(out):
        log, fit = out
        ops.fingerprint(_log_bytes(log), fit)
        t, h = np.asarray(log.t), np.asarray(log.h)
        T = t[-1]

        def bcoef(lo, hi):
            sel = (t >= lo) & (t <= hi)
            z = t[sel] * np.log(t[sel])
            return float(np.dot(z, h[sel]) / np.dot(z, z))

        ratio = bcoef(T / 2, T) / bcoef(T / 4, T / 2)
        p = fit.coeffs["p"]
        return (_expect(abs(ratio - 1.0) <= 0.25, f"t log t coefficient ratio {ratio:.4f}")
                + _expect(1.0 < p < 1.3, f"gamma = 2 crossover exponent {p:.4f}")
                + ops.reference("accelerated.gamma2.p", p)
                + ops.reference("accelerated.gamma2.h_end", log.h[-1]))

    ops.call("solver.run gamma=2",
             lambda: run_and_fit(kernels.AlgebraicTail(2.0, 1.0), inp["gamma2"], 0.1, 1.0),
             check_g2)

    def check_truncated(out):
        log, fit = out
        ops.fingerprint(_log_bytes(log), fit)
        h = np.asarray(log.h)
        p = fit.coeffs["p"]
        return (_expect(bool(np.all(np.diff(h) >= 0.0)) and h[-1] > h[0],
                        "truncated-kernel front did not advance")
                + _expect(math.isfinite(p) and p > 0.0, f"truncated-kernel exponent {p!r}")
                + ops.reference("accelerated.truncated.p", p)
                + ops.reference("accelerated.truncated.h_end", log.h[-1]))

    trunc = inp["truncated"]
    ops.call("solver.run truncated",
             lambda: run_and_fit(kernels.truncate(kernels.AlgebraicTail(1.5, 1.0), trunc["n"]),
                                 trunc, 0.25, 0.5),
             check_truncated)


# ---------------------------------------------------------------------------
# oracles: verify, mu-limit experiments, barrier fixtures
# ---------------------------------------------------------------------------


def oracles_inputs(rng):
    h0 = 10.0 if rng is None else round(rng.uniform(9.75, 10.25), 4)
    return {
        "config": {
            "problem": {"variant": "halfline-fb",
                        "kernel": {"family": "compact-uniform", "r": 1.0},
                        "reaction": {"kind": "logistic", "a": 1.0, "b": 1.0},
                        "d": 0.5, "mu": 1.0, "h0": h0,
                        "u0": {"type": "plateau", "m": 1.0, "ramp": 2.0}},
            "solver": {"dx": 0.05, "dt": 0.002, "t_end": 2.0, "log_every": 0.1},
            "verify": {"checks": ["mass-flux", "comparison", "refinement"]},
        },
        "to_zero": [1.0, 0.1 * _scale(rng), 0.01 * _scale(rng)],
        "to_inf": [1.0, 10.0 * _scale(rng), 100.0 * _scale(rng)],
    }


def oracles_cycle(inp, ops: Ops, k: int):
    from nlfront import asymptotics, cli, kernels, reactions, solver, validation

    out = os.path.join(ops.workdir, f"verify-{k}")

    def check_verify(rc):
        # `nlfront verify` exits 0 even when a check fails: read `passed`
        problems = _expect(rc == 0, f"nlfront verify exited {rc}")
        if problems:
            return problems
        with open(os.path.join(out, "verify.json")) as fh:
            ver = json.load(fh)
        problems += _expect(ver["passed"] is True, f"verify.json passed = {ver['passed']}")
        for name in ("mass_flux", "comparison", "refinement"):
            problems += _expect(ver[name]["passed"] is True, f"{name} check failed")
        problems += ops.reference("oracles.mass_flux_residual", ver["mass_flux"]["residual"])
        problems += ops.reference("oracles.refinement_order", ver["refinement"]["order"])
        ops.fingerprint_dir(out)
        return problems

    ops.call("cli.verify", lambda: cli.main(["verify", "--config", inp["config_path"],
                                             "--out", out]), check_verify)

    uniform = kernels.CompactUniform(1.0)
    react = reactions.logistic(1.0, 1.0)
    spec = solver.ProblemSpec(variant="halfline-fb", kernel=uniform, reaction=react,
                              d=1.0, mu=1.0, h0=2.0, u0=solver.make_plateau(2.0, m=0.5))
    cfg = solver.SolverConfig(dx=0.05, dt=0.002, t_end=2.5, log_every=0.25,
                              snapshot_stride=1)

    def check_limit(rep):
        ops.fingerprint(json.dumps(rep.to_json(), sort_keys=True))
        ok = rep.sup_diff_monotone and (rep.h_monotone or rep.mode == "ToInfinity")
        return _expect(bool(ok), f"{rep.mode} limit not monotone: {rep.to_json()}")

    for mode, key in (("ToZero", "to_zero"), ("ToInfinity", "to_inf")):
        ops.call(f"asymptotics.mu_limit_experiment {mode}",
                 lambda mode=mode, key=key: asymptotics.mu_limit_experiment(
                     spec, inp[key], mode, cfg), check_limit)

    k15 = kernels.AlgebraicTail(1.5, 1.0)
    k2 = kernels.AlgebraicTail(2.0, 1.0)
    fixtures = (
        ("SubPowerFront", True,
         validation.SubPowerFront(kernel=k15, reaction=react, d=1.0, mu=1.0,
                                  theta=9.0, l1=0.01, eps=0.04),
         (0.0, 2.0, 5.0, 15.0, 40.0, 100.0)),
        ("SubPowerFront broken", False,
         validation.SubPowerFront(kernel=k15, reaction=react, d=1.0, mu=1.0,
                                  theta=9.0, l1=1.0, eps=0.04),
         (0.0, 2.0, 5.0)),
        ("SubTLogTFront", True,
         validation.SubTLogTFront(kernel=k2, reaction=react, d=1.0, mu=1.0,
                                  theta=400.0, l1=0.02, alpha=0.5, eps=0.04),
         (0.0, 50.0, 150.0, 400.0, 1000.0)),
    )
    for name, should_pass, fixture, times in fixtures:
        def check_fixture(rep, should_pass=should_pass):
            ops.fingerprint(rep)
            if should_pass:
                return _expect(rep.passed, f"certificate failed: margins {rep.margins}")
            return _expect(not rep.passed and rep.margins["front"] < 0.0,
                           f"broken fixture not rejected: margins {rep.margins}")

        ops.call(f"validation.verify_fixture {name}",
                 lambda fixture=fixture, times=times: validation.verify_fixture(
                     fixture, validation.Lattice(t_values=times)), check_fixture)

    def check_psi(kappas):
        ops.fingerprint(kappas)
        return _expect(all(np.isfinite(kappas)) and kappas[0] <= kappas[1] <= kappas[2],
                       f"kappa_eps not finite and nondecreasing: {kappas}")

    ops.call("validation.psi_inequality_check",
             lambda: [validation.psi_inequality_check(uniform, 100.0, 200.0, e).kappa_eps
                      for e in (0.5, 0.2, 0.1)], check_psi)


# Each part draws its inputs from its own stream, so a part's inputs for a
# seed do not depend on which workload runs it.
PARTS = {
    "spread": (spread_inputs, spread_cycle),
    "accelerated": (accelerated_inputs, accelerated_cycle),
    "oracles": (oracles_inputs, oracles_cycle),
    "profiles": (profiles_inputs, profiles_cycle),
}

# name -> (why, parts run in this order each cycle)
WORKLOADS = {
    "stepping": ("time stepping only: a long compact-kernel rates run, heavy-tailed and "
                 "truncated kernels, and verify/limit/barrier checks; no profile solve",
                 ("spread", "accelerated", "oracles")),
    "profiles": ("semi-wave, mu-curve and stationary-profile relaxation; no time stepping",
                 ("profiles",)),
}


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of every part of workload `name`, keyed by part."""
    def rng(part):
        return None if seed == DEFAULT_SEED else random.Random(f"{part}:{seed}")
    return {part: PARTS[part][0](rng(part)) for part in WORKLOADS[name][1]}


def run_cycle(name: str, inputs: dict, ops: Ops, k: int):
    for part in WORKLOADS[name][1]:
        PARTS[part][1](inputs[part], ops, k)
