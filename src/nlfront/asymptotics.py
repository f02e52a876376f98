"""Post-processing of trajectory logs into the asymptotic quantities:
linear speeds, power and t*log t rates, logarithmic drift, level sets,
windowed profile distances, and the small/large-mu limiting experiments.

All fits are plain least squares on a trailing window (default: last half
of the samples) with a stability indicator: the same fit on half the
window, reported as a relative coefficient drift.  The statements being
checked are t -> infinity limits, so the early transient must stay out of
the window and the window choice must stay auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import Record
from .errors import ContractError, InsufficientDataError
from .solver import Field, ProblemSpec, SolverConfig, TrajectoryLog, run

__all__ = [
    "RateFit",
    "DriftReport",
    "MuLimitReport",
    "estimate_linear_speed",
    "fit_power_exponent",
    "fit_tlogt_coefficient",
    "log_drift_check",
    "level_set_positions",
    "sup_distance_on_window",
    "mu_limit_experiment",
]

MIN_WINDOW_SAMPLES = 8


@dataclass(frozen=True)
class RateFit(Record):
    model: str                    # "linear" | "power" | "tlogt"
    coeffs: dict
    window: tuple
    residual_rms: float
    drift: float                  # relative coefficient change on half window
    low_confidence: bool


@dataclass(frozen=True)
class DriftReport(Record):
    sup_r: float
    ln_slope: float
    ln_intercept: float
    residual_rms: float
    bound: float                  # max |r(t)| / ln t over the window
    window: tuple


def _trailing(t: np.ndarray, window_fraction: float):
    if not 0.0 < window_fraction <= 1.0:
        raise ContractError("window_fraction must lie in (0, 1]")
    t0 = t[-1] - window_fraction * (t[-1] - t[0])
    idx = np.nonzero(t >= t0 - 1e-12)[0]
    if len(idx) < MIN_WINDOW_SAMPLES:
        raise InsufficientDataError(
            f"fit window holds {len(idx)} samples; need {MIN_WINDOW_SAMPLES}")
    return idx


def _lsq_line(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ sol
    return sol[0], sol[1], float(np.sqrt(np.mean(resid ** 2)))


def _trailing_line(log: TrajectoryLog, window_fraction: float, transform=np.asarray):
    """Least-squares line through (t, h), both passed through ``transform``,
    on the trailing window: slope, intercept, rms residual, the slope's
    relative drift on the half window, and the window."""
    t = np.asarray(log.t, dtype=float)
    h = np.asarray(log.h, dtype=float)
    idx = _trailing(t, window_fraction)
    a, b, rms = _lsq_line(transform(t[idx]), transform(h[idx]))
    half = _trailing(t, window_fraction / 2.0)
    a_half, _, _ = _lsq_line(transform(t[half]), transform(h[half]))
    drift = float(abs(a_half - a) / max(abs(a), 1e-300))
    return a, b, rms, drift, (float(t[idx][0]), float(t[idx][-1]))


def estimate_linear_speed(log: TrajectoryLog, window_fraction: float = 0.5) -> RateFit:
    """Least-squares line through (t, h) on the trailing window."""
    c, H, rms, drift, window = _trailing_line(log, window_fraction)
    return RateFit(model="linear", coeffs={"c": float(c), "H": float(H)}, window=window,
                   residual_rms=rms, drift=drift, low_confidence=drift > 0.05)


def fit_power_exponent(log: TrajectoryLog, window_fraction: float = 0.5) -> RateFit:
    """Fit h ~ A t^p by a line in log-log coordinates on the trailing window."""
    def logs(v):
        if np.any(v <= 0.0):
            raise ContractError("power fit needs positive t and h on the window")
        return np.log(v)

    p, lnA, rms, drift, window = _trailing_line(log, window_fraction, logs)
    return RateFit(model="power", coeffs={"p": float(p), "A": float(math.exp(lnA))},
                   window=window, residual_rms=rms, drift=drift, low_confidence=drift > 0.05)


def fit_tlogt_coefficient(log: TrajectoryLog, window_fraction: float = 0.5) -> RateFit:
    """Proportional fit h ~ B t ln t; B reported on the trailing window and,
    for stability, on its two halves (B_prev, B_last)."""
    t = np.asarray(log.t, dtype=float)
    h = np.asarray(log.h, dtype=float)
    idx = _trailing(t, window_fraction)
    if np.any(t[idx] <= math.e):
        raise ContractError("t log t fit window must stay above t = e")

    def bcoef(sel):
        z = t[sel] * np.log(t[sel])
        return float(np.dot(z, h[sel]) / np.dot(z, z))

    B = bcoef(idx)
    tm = 0.5 * (t[idx][0] + t[idx][-1])
    first = idx[t[idx] <= tm]
    last = idx[t[idx] > tm]
    if len(first) < 4 or len(last) < 4:
        raise InsufficientDataError("too few samples to split the fit window")
    B_prev, B_last = bcoef(first), bcoef(last)
    z = t[idx] * np.log(t[idx])
    rms = float(np.sqrt(np.mean((h[idx] - B * z) ** 2)))
    drift = abs(B_last / B_prev - 1.0)
    return RateFit(model="tlogt",
                   coeffs={"B": B, "B_prev": B_prev, "B_last": B_last},
                   window=(float(t[idx][0]), float(t[idx][-1])),
                   residual_rms=rms, drift=float(drift),
                   low_confidence=drift > 0.25)


def log_drift_check(log: TrajectoryLog, c0: float,
                    window_fraction: float = 0.5) -> DriftReport:
    """Behavior of r(t) = h(t) - c0 t: sup, slope against ln t, and the
    bound max |r|/ln t on the trailing window."""
    t = np.asarray(log.t, dtype=float)
    h = np.asarray(log.h, dtype=float)
    r = h - c0 * t
    idx = _trailing(t, window_fraction)
    idx = idx[t[idx] > 1.0]
    if len(idx) < MIN_WINDOW_SAMPLES:
        raise InsufficientDataError("log-drift window needs samples with t > 1")
    slope, intercept, rms = _lsq_line(np.log(t[idx]), r[idx])
    bound = float(np.max(np.abs(r[idx]) / np.log(t[idx])))
    return DriftReport(sup_r=float(np.max(r)), ln_slope=float(slope),
                       ln_intercept=float(intercept), residual_rms=rms,
                       bound=bound, window=(float(t[idx][0]), float(t[idx][-1])))


# ---------------------------------------------------------------------------
# level sets and windowed distances
# ---------------------------------------------------------------------------


def level_set_positions(snapshot: Field, level: float, u_star: float):
    """Outermost crossings (x-, x+) of the level, or None when never reached."""
    if not 0.0 < level < u_star:
        raise ContractError(f"level must lie in (0, u*); got {level}")
    u = snapshot.values
    x = snapshot.x
    above = u >= level
    if not np.any(above):
        return None
    i0 = int(np.argmax(above))
    i1 = len(u) - 1 - int(np.argmax(above[::-1]))
    if i0 > 0:
        frac = (level - u[i0 - 1]) / (u[i0] - u[i0 - 1])
        x_minus = x[i0 - 1] + frac * (x[i0] - x[i0 - 1])
    else:
        x_minus = x[0]
    if i1 < len(u) - 1:
        frac = (u[i1] - level) / (u[i1] - u[i1 + 1])
        x_plus = x[i1] + frac * (x[i1 + 1] - x[i1])
    else:
        x_plus = x[-1]
    return float(x_minus), float(x_plus)


def sup_distance_on_window(u: Field, reference, window: tuple) -> float:
    """Sup-norm distance to a constant, callable, or sampled reference."""
    a, b = window
    if a > b:
        raise ContractError("window must be ordered")
    x = u.x
    if a < x[0] - 1e-9 or b > x[-1] + 1e-9:
        raise ContractError("window reaches outside the sampled field")
    sel = (x >= a - 1e-12) & (x <= b + 1e-12)
    if not np.any(sel):
        raise ContractError("window contains no field nodes")
    vals = u.values[sel]
    if callable(reference):
        ref = np.asarray(reference(x[sel]), dtype=float)
    elif isinstance(reference, Field):
        ref = reference.at(x[sel])
    else:
        ref = float(reference) * np.ones_like(vals)
    return float(np.max(np.abs(vals - ref)))


# ---------------------------------------------------------------------------
# limiting experiments in mu
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuLimitReport(Record):
    mode: str
    mu: list
    sup_diff: list                # sup |u_mu - limit| on the probe window
    h_shift: list                 # h_mu(t_end) - h0 (ToZero) or h_mu(t_end) (ToInfinity)
    sup_diff_monotone: bool | None
    h_monotone: bool | None


def mu_limit_experiment(spec: ProblemSpec, mus, mode: str,
                        cfg: SolverConfig) -> MuLimitReport:
    """Compare free-boundary runs against their mu -> 0 / mu -> infinity limits.

    Each difference is max |u_mu - u_limit| over a fixed x window and the
    paired snapshots with 1 <= t <= 2.  ToZero: the limit is the
    frozen-domain problem on [0, h0], the x window is [0, h0], and the
    differences must shrink as mu does, with h_mu(t_end) - h0 shrinking
    alongside.  ToInfinity: the limit is the half-line Cauchy problem, the
    x window is [0, 5], and the differences shrink as mu grows while
    h_mu(t_end) climbs.
    """
    if mode not in ("ToZero", "ToInfinity"):
        raise ContractError("mode must be 'ToZero' or 'ToInfinity'")
    if spec.variant != "halfline-fb":
        raise ContractError("mu limits are defined for the half-line free boundary")
    mus = sorted(float(m) for m in mus)
    if mode == "ToZero":
        mus = mus[::-1]           # report along decreasing mu
        limit, xw = "fixed-domain", (0.0, spec.h0)
    else:
        limit, xw = "cauchy-half", (0.0, 5.0)
    cfg = cfg.with_snapshots()

    limit_log = run(replace(spec, variant=limit, mu=1.0), cfg)

    sup_diffs, h_shift = [], []
    for mu in mus:
        log = run(replace(spec, mu=mu), cfg)
        diffs = [sup_distance_on_window(snap, ref, xw)
                 for t, snap, ref in log.paired_snapshots(limit_log)
                 if 1.0 - 1e-9 <= t <= 2.0 + 1e-9]
        if not diffs:
            raise ContractError("no shared snapshots inside the probe window; "
                                "raise snapshot_stride/log cadence")
        sup_diffs.append(max(diffs))
        h_shift.append(log.h[-1] - spec.h0 if mode == "ToZero" else log.h[-1])

    def strict(a, sign=-1.0):
        """Strictly falling (sign -1) or rising (+1); no verdict on one entry."""
        return bool(np.all(sign * np.diff(a) > 0.0)) if len(a) > 1 else None

    return MuLimitReport(
        mode=mode, mu=list(mus), sup_diff=sup_diffs, h_shift=h_shift,
        sup_diff_monotone=strict(sup_diffs),
        h_monotone=strict(h_shift, -1.0 if mode == "ToZero" else 1.0),
    )
