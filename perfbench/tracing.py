"""Traced runs: spans around nlfront's public entry points, counters around
kernel and reaction objects, and the per-layer metrics derived from them.

Everything here lives outside the package.  `Tracer.install` swaps the
package's public functions and kernel methods for timing/counting wrappers
and `Tracer.uninstall` puts the originals back, so one process can alternate
untraced and traced cycles.  The wrappers call through with the same
arguments and return the same objects, so outputs stay byte-identical; the
benchmark checks that on every traced cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import sys
from time import perf_counter

import numpy as np

# layer -> public functions that get a span
SPANNED = {
    "cli": ("main",),
    "solver": ("run",),
    "semiwave": ("solve_semiwave", "mu_curve", "stationary_profile", "minimal_speed"),
    "validation": ("verify_fixture", "psi_inequality_check", "mass_flux_residual",
                   "comparison_order_check", "refinement_order"),
    "asymptotics": ("estimate_linear_speed", "fit_power_exponent",
                    "fit_tlogt_coefficient", "log_drift_check", "mu_limit_experiment"),
}
KERNEL_METHODS = ("tail_mass", "evaluate", "taps")
REACTION_FACTORIES = ("logistic", "zero_reaction")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("kernels.tail_mass.points", "count", "lower"),
    ("kernels.tail_mass.s", "s", "lower"),
    ("kernels.tail_mass.useful_ratio", "ratio", "higher"),
    ("kernels.evaluate.points", "count", "lower"),
    ("kernels.evaluate.s", "s", "lower"),
    ("kernels.taps.calls", "count", "lower"),
    ("kernels.taps.hit_ratio", "ratio", "higher"),
    ("reactions.f.calls", "count", "lower"),
    ("reactions.f.points", "count", "lower"),
    ("reactions.f.s", "s", "lower"),
    ("solver.run.calls", "count", "lower"),
    ("solver.run.self_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.us_per_step", "us", "lower"),
    ("solver.window_grows", "count", "lower"),
    ("solver.peak_nodes", "count", "lower"),
    ("semiwave.solve_semiwave.s", "s", "lower"),
    ("semiwave.stationary_profile.s", "s", "lower"),
    ("semiwave.relax_sweeps", "count", "lower"),
    ("semiwave.us_per_sweep", "us", "lower"),
    ("semiwave.stationary_iterations", "count", "lower"),
    ("validation.self_s", "s", "lower"),
    ("validation.verify_fixture.s_per_time", "s", "lower"),
    ("asymptotics.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# counts that must repeat exactly between traced cycles and between runs
DETERMINISTIC = ("solver.steps", "semiwave.relax_sweeps",
                 "kernels.tail_mass.points", "reactions.f.points")


class Tracer:
    """Spans and counters of one process; `begin_cycle` starts a new run id."""

    def __init__(self):
        # span: [name, start, end, parent index, run id, time spent in children]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._kernel_depth = 0
        self._saved: list[tuple] = []
        self.run_id = -1
        self.counts: dict = {}

    # -- cycles ---------------------------------------------------------------

    def begin_cycle(self):
        self.run_id += 1
        self._first_span = len(self.spans)
        self.counts = {"tail_points": 0, "tail_useful": 0, "tail_s": 0.0,
                       "eval_points": 0, "eval_s": 0.0, "taps_calls": 0,
                       "taps_keys": set(), "f_calls": 0, "f_points": 0, "f_s": 0.0,
                       "relax_sweeps": 0, "steps": 0, "grows": 0, "peak_nodes": 0,
                       "stationary_iterations": 0, "fixture_times": 0}

    def cycle_metrics(self, artifact_bytes: int) -> dict:
        """Per-layer metrics of the cycle begun last (all but the overhead)."""
        c = self.counts
        spans = self.spans[self._first_span:]

        def total(name):
            return sum(s[2] - s[1] for s in spans if s[0] == name)

        def self_time(pred):
            return sum(s[2] - s[1] - s[5] for s in spans if pred(s[0]))

        sweep_s = sum(s[2] - s[1] for s in spans
                      if s[0].startswith("semiwave.")
                      and (s[3] is None or not self.spans[s[3]][0].startswith("semiwave.")))
        run_self = self_time(lambda n: n == "solver.run")
        return {
            "kernels.tail_mass.points": c["tail_points"],
            "kernels.tail_mass.s": c["tail_s"],
            "kernels.tail_mass.useful_ratio": _ratio(c["tail_useful"], c["tail_points"]),
            "kernels.evaluate.points": c["eval_points"],
            "kernels.evaluate.s": c["eval_s"],
            "kernels.taps.calls": c["taps_calls"],
            "kernels.taps.hit_ratio": (1.0 - _ratio(len(c["taps_keys"]), c["taps_calls"])
                                       if c["taps_calls"] else 0.0),
            "reactions.f.calls": c["f_calls"],
            "reactions.f.points": c["f_points"],
            "reactions.f.s": c["f_s"],
            "solver.run.calls": sum(1 for s in spans if s[0] == "solver.run"),
            "solver.run.self_s": run_self,
            "solver.steps": c["steps"],
            "solver.us_per_step": 1e6 * _ratio(total("solver.run"), c["steps"]),
            "solver.window_grows": c["grows"],
            "solver.peak_nodes": c["peak_nodes"],
            "semiwave.solve_semiwave.s": total("semiwave.solve_semiwave"),
            "semiwave.stationary_profile.s": total("semiwave.stationary_profile"),
            "semiwave.relax_sweeps": c["relax_sweeps"],
            "semiwave.us_per_sweep": 1e6 * _ratio(sweep_s, c["relax_sweeps"]),
            "semiwave.stationary_iterations": c["stationary_iterations"],
            "validation.self_s": self_time(lambda n: n.startswith("validation.")),
            "validation.verify_fixture.s_per_time": _ratio(total("validation.verify_fixture"),
                                                           c["fixture_times"]),
            "asymptotics.self_s": self_time(lambda n: n.startswith("asymptotics.")),
            "cli.self_s": self_time(lambda n: n.startswith("cli.")),
            "cli.artifact_bytes": artifact_bytes,
        }

    def span_records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "run_id": s[4], "self_s": s[2] - s[1] - s[5]} for s in self.spans]

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        from nlfront import kernels, reactions

        homes = {layer: importlib.import_module(f"nlfront.{layer}") for layer in SPANNED}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nlfront" or name.startswith("nlfront.")]
        for layer, names in SPANNED.items():
            home = homes[layer]
            for fname in names:
                self._replace_everywhere(modules, getattr(home, fname),
                                         self._span(f"{layer}.{fname}", getattr(home, fname)))
        for fname in REACTION_FACTORIES:
            orig = getattr(reactions, fname)
            self._replace_everywhere(modules, orig, self._reaction_factory(orig))
        classes = [obj for obj in vars(kernels).values()
                   if isinstance(obj, type) and obj.__module__ == kernels.__name__]
        for cls in classes:
            for meth in KERNEL_METHODS:
                if meth in vars(cls):
                    orig = vars(cls)[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, self._kernel_counter(meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _replace_everywhere(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _push(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _pop(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _charge_parent(self, seconds):
        """Counted kernel/reaction calls are children of the enclosing span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _top_layer(self):
        return self.spans[self._stack[-1]][0].split(".")[0] if self._stack else None

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = self.counts
            taps_before = c["taps_calls"]
            if name == "validation.verify_fixture":
                lattice = args[1] if len(args) > 1 else kwargs["lattice"]
                c["fixture_times"] += len(lattice.t_values)
            self._push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._pop()
            if name == "solver.run":
                st = out.final_state
                c["steps"] += int(round(st.t / out.meta["dt"]))
                c["peak_nodes"] = max(c["peak_nodes"], len(st.u))
                # the engine fetches taps once at start and once per window growth
                c["grows"] += c["taps_calls"] - taps_before - 1
            elif name == "semiwave.stationary_profile":
                c["stationary_iterations"] += int(out.iterations)
            return out
        return wrapper

    def _kernel_counter(self, meth, fn):
        @functools.wraps(fn)
        def wrapper(kernel, *args, **kwargs):
            if self._kernel_depth:
                return fn(kernel, *args, **kwargs)
            self._kernel_depth += 1
            t0 = perf_counter()
            try:
                out = fn(kernel, *args, **kwargs)
            finally:
                self._kernel_depth -= 1
            dt = perf_counter() - t0
            self._charge_parent(dt)
            c = self.counts
            if meth == "tail_mass":
                c["tail_points"] += int(np.size(args[0]))
                c["tail_useful"] += int(np.count_nonzero(out))
                c["tail_s"] += dt
            elif meth == "evaluate":
                c["eval_points"] += int(np.size(args[0]))
                c["eval_s"] += dt
            else:
                c["taps_calls"] += 1
                c["taps_keys"].add((kernel, float(args[0]), int(args[1])))
            return out
        return wrapper

    def _reaction_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            r = factory(*args, **kwargs)
            return dataclasses.replace(r, f=self._f_counter(r.f))
        return wrapper

    def _f_counter(self, f):
        def counted(u):
            t0 = perf_counter()
            out = f(u)
            dt = perf_counter() - t0
            self._charge_parent(dt)
            c = self.counts
            c["f_calls"] += 1
            c["f_points"] += int(np.size(u))
            c["f_s"] += dt
            if self._top_layer() == "semiwave":
                c["relax_sweeps"] += 1
            return out
        return counted


def summarize(cycles: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics of a traced run: times and time ratios are medians
    over traced cycles, counts those of the first traced cycle."""
    out = {name: cycles[0][name] if unit in ("count", "bytes")
           else statistics.median(cyc[name] for cyc in cycles)
           for name, unit, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead_s
    return out


def _ratio(num, den):
    return num / den if den else 0.0
