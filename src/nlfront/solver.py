"""Explicit time integration of the five nonlocal model variants.

A variant is what bounds the two ends of its domain (``_ENDS``): a wall
(x = 0 on the left, x = h0 on the right), a moving front (g(t) < 0 < h(t)),
or nothing (open: the grid edge, grown ahead of the visible field, whose
extent is logged as h).  A left wall makes the sink d*j(x)*u, otherwise it
is d*u.  fixed-domain and cauchy-half are the mu -> 0 and mu -> inf limits
of halfline-fb.

The field lives on a uniform grid that grows with the front.  Fronts are
continuous reals, never grid-snapped: the last quadrature cell [x_m, h]
enters every integral as a triangle (u falls linearly to zero at the
front).  All integrals against J use ``quadrature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import quadrature
from .artifacts import finite, write_csv
from .errors import ContractError, ConvergenceError, ResourceError, ValidationError
from .kernels import Kernel

__all__ = [
    "VARIANTS",
    "Field",
    "ProblemSpec",
    "SolverConfig",
    "State",
    "TrajectoryLog",
    "make_plateau",
    "stability_budget",
    "time_step",
    "nonlocal_operator",
    "boundary_flux",
    "step",
    "run",
    "checkpoint_times",
    "classify",
]

WALL, FRONT, OPEN = "wall", "front", "open"
_ENDS = {                               # (left end, right end)
    "halfline-fb": (WALL, FRONT),
    "twosided-fb": (FRONT, FRONT),
    "cauchy-full": (OPEN, OPEN),
    "cauchy-half": (WALL, OPEN),
    "fixed-domain": (WALL, WALL),
}
VARIANTS = tuple(_ENDS)
# interaction lengths of grid kept ahead of a front, and the share of the
# ceiling max(u*, sup u0) that counts as visible field at an open end
HEADROOM = 4.0
FRONT_TOL = 1e-9


@dataclass(frozen=True)
class Field:
    """A sampled profile on a uniform grid."""

    x0: float
    dx: float
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.values))

    def at(self, xq):
        """Linear interpolation, zero outside the sampled window."""
        return np.interp(xq, self.x, self.values, left=0.0, right=0.0)


def make_plateau(h0: float, m: float = 1.0, ramp: float = 1.0) -> Callable:
    """Default initial datum m * min(1, (h0 - |x|)/ramp): plateau with a linear edge."""
    if not (finite(m, "m") > 0.0 and finite(ramp, "ramp") > 0.0):
        raise ValidationError("plateau needs m > 0 and ramp > 0")

    def u0(x):
        x = np.asarray(x, dtype=float)
        out = m * np.clip((h0 - np.abs(x)) / ramp, 0.0, 1.0)
        return out if out.ndim else float(out)

    return u0


@dataclass(frozen=True)
class ProblemSpec:
    variant: str
    kernel: Kernel
    reaction: object              # Reaction; only f, f_prime, u_star are used
    d: float
    h0: float
    mu: float = 1.0
    u0: Callable | None = None    # defaults to a u*-high plateau

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if not finite(self.d, "d") > 0.0:
            raise ValidationError("diffusion coefficient d must be positive")
        if not finite(self.h0, "h0") > 0.0:
            raise ValidationError("initial front h0 must be positive")
        if not finite(self.mu, "mu") > 0.0 and FRONT in self.ends:
            raise ValidationError("front coefficient mu must be positive")

    @property
    def ends(self) -> tuple:
        """What bounds the (left, right) end: WALL, FRONT or OPEN."""
        return _ENDS[self.variant]

    def plateau(self, m: float | None = None, ramp: float = 1.0) -> Callable:
        """``make_plateau`` at h0, m defaulting to u* (1 without a positive zero)."""
        return make_plateau(self.h0, (self.reaction.u_star or 1.0) if m is None else m, ramp)

    def initial_datum(self) -> Callable:
        return self.u0 if self.u0 is not None else self.plateau()

    def u_cap(self) -> float:
        """Maximum-principle ceiling max(u*, sup u0)."""
        u0 = self.initial_datum()
        xs = np.linspace(-self.h0, self.h0, 513)
        sup0 = float(np.max(u0(xs)))
        return max(self.reaction.u_star or 0.0, sup0)


@dataclass(frozen=True)
class SolverConfig:
    dx: float = 0.05
    dt: float | None = None          # defaults to half the stability budget
    t_end: float = 10.0
    log_every: float | None = None   # defaults to t_end/200, at least dt
    snapshot_stride: int = 0         # keep every k-th checkpoint field; 0 = none
    max_nodes: int = 4_000_000
    scheme: str = "euler"            # or "rk2" (midpoint)

    def __post_init__(self):
        for f in fields(self)[:-1]:     # all but scheme: numbers, null only where the default is
            if not (getattr(self, f.name) is None and f.default is None):
                finite(getattr(self, f.name), f.name, count=type(f.default) is int)
        for key in ("dx", "dt", "log_every", "max_nodes"):     # dt, log_every: None or > 0
            if getattr(self, key) is not None and not getattr(self, key) > 0:
                raise ValidationError(f"{key} must be positive")
        if not (self.t_end >= 0.0 and self.snapshot_stride >= 0):
            raise ValidationError("t_end and snapshot_stride must be nonnegative")
        if self.scheme not in ("euler", "rk2"):
            raise ValidationError("scheme must be 'euler' or 'rk2'")

    def with_snapshots(self) -> "SolverConfig":
        """This config with snapshots, as compared runs need: its stride, or 1 for none."""
        return replace(self, snapshot_stride=max(1, self.snapshot_stride))


@dataclass
class State:
    t: float
    x0: float
    dx: float
    u: np.ndarray
    h: float
    g: float = -math.inf      # left front; only meaningful for twosided-fb

    def copy(self) -> "State":
        return State(self.t, self.x0, self.dx, self.u.copy(), self.h, self.g)

    def as_field(self) -> Field:
        return Field(self.x0, self.dx, self.u.copy())


@dataclass
class TrajectoryLog:
    t: list = field(default_factory=list)
    h: list = field(default_factory=list)
    g: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    sup_u: list = field(default_factory=list)
    flux: list = field(default_factory=list)
    rint: list = field(default_factory=list)   # int f(u) dx, used by mass-flux audit
    snapshots: list = field(default_factory=list)  # (t, Field)
    final_state: State | None = None
    meta: dict = field(default_factory=dict)
    truncated: bool = False

    _columns = ("t", "h", "g", "mass", "sup_u", "flux")    # of trajectory.csv
    _observed = _columns + ("rint",)                       # appended per checkpoint

    def paired_snapshots(self, other: "TrajectoryLog") -> list:
        """(t, this field, other field) per snapshot: compared runs log at the same times."""
        if [t for t, _ in self.snapshots] != [t for t, _ in other.snapshots]:
            raise ContractError("compared runs must keep snapshots at the same times")
        return [(t, a, b) for (t, a), (_, b) in zip(self.snapshots, other.snapshots)]

    def to_csv(self, path):
        write_csv(path, self._columns, [getattr(self, c) for c in self._columns])

    @classmethod
    def from_csv(cls, path) -> "TrajectoryLog":
        data = np.genfromtxt(path, delimiter=",", names=True)
        data = np.atleast_1d(data)
        log = cls()
        for name in cls._columns:
            getattr(log, name).extend(float(v) for v in data[name])
        return log


def stability_budget(spec: ProblemSpec) -> float:
    """Explicit-step budget 0.5 / (2d + max|f'| on [0, 2 max(u*, sup u0)])."""
    kf = spec.reaction.max_abs_fprime(cap=2.0 * spec.u_cap())
    return 0.5 / (2.0 * spec.d + kf)


def time_step(spec: ProblemSpec, cfg: SolverConfig) -> float:
    """A run's step: cfg.dt, or half the stability budget when null; a dt past it raises."""
    budget = stability_budget(spec)
    if cfg.dt is None:
        return 0.5 * budget
    if cfg.dt > budget * (1.0 + 1e-12):
        raise ValidationError(f"dt = {cfg.dt} exceeds the stability budget {budget:.6g}")
    return cfg.dt


class _Engine:
    """Owns the grid and taps of one run and steps its State in place.

    A step writes u only on the window's nodes (the nodes outside it stay
    0 behind a front or are never reached), with one scratch copy of the
    window for RK2.
    """

    def __init__(self, spec: ProblemSpec, cfg: SolverConfig):
        self.spec = spec
        self.cfg = cfg
        self.kernel = spec.kernel
        self.left, self.right = spec.ends
        self.dx = cfg.dx
        self.dt = time_step(spec, cfg)
        self.ell = min(self.kernel.interaction_length(), 25.0)
        self.front_floor = FRONT_TOL * max(spec.u_cap(), 1e-300)
        if self.right == WALL:
            ratio = spec.h0 / self.dx
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValidationError("fixed-domain runs need h0 to be a grid multiple of dx")
        self._init_grid()

    # -- grid ---------------------------------------------------------------

    def _init_grid(self):
        spec, dx = self.spec, self.dx
        pad = max(HEADROOM * self.ell, 10 * dx)
        lo = 0.0 if self.left == WALL else -(spec.h0 + pad)
        hi = spec.h0 if self.right == WALL else spec.h0 + pad
        n = int(round((hi - lo) / dx)) + 1
        g0 = -spec.h0 if self.left == FRONT else -math.inf
        self._check_cap(n, 0.0, spec.h0, g0)
        x = lo + dx * np.arange(n)
        u0 = spec.initial_datum()
        u = np.asarray(u0(x), dtype=float)
        if np.any(u < -1e-12):
            raise ValidationError("initial datum must be nonnegative")
        u = np.clip(u, 0.0, None)
        if not np.max(u) > 0.0:
            raise ValidationError("initial datum must be positive somewhere inside")
        for side, end, x_end in (("left", self.left, -spec.h0), ("right", self.right, spec.h0)):
            if end != WALL and abs(float(u0(x_end))) > 1e-9 * max(1.0, np.max(u)):
                raise ValidationError(f"initial datum must vanish at the {side} end x = {x_end:g}")
        u[np.abs(x) > spec.h0 + 1e-12] = 0.0
        self.state = State(t=0.0, x0=lo, dx=dx, u=u, h=spec.h0, g=g0)
        self._refresh_taps()

    def _refresh_taps(self):
        """Plan the convolution and lay out nodes, sink and growth thresholds
        for the current grid."""
        st, dx = self.state, self.dx
        n = len(st.u)
        self.conv = quadrature.plan(self.kernel, dx, n)
        self.x = st.x0 + dx * np.arange(n)
        if self.left == WALL:
            self.sink = self.spec.d * self.kernel.halfline_mass(np.maximum(self.x, 0.0))
        else:
            self.sink = self.spec.d
        # an end grows when what it must hold comes within 2 interaction
        # lengths of the grid edge; a wall never grows
        self.right_edge = st.x0 + (n - 1) * dx
        self._grow_right = math.inf if self.right == WALL else self.right_edge - 2 * self.ell
        self._grow_left = -math.inf if self.left == WALL else st.x0 + 2 * self.ell

    def _grow(self, need_left: float, need_right: float):
        if need_right <= self._grow_right and need_left >= self._grow_left:
            return
        st = self.state
        n = len(st.u)
        chunk = max(HEADROOM * self.ell, 0.25 * (self.right_edge - st.x0), 50 * self.dx)
        add_r = add_l = 0
        if need_right > self._grow_right:
            add_r = int(math.ceil((need_right + chunk - self.right_edge) / self.dx))
        if need_left < self._grow_left:
            add_l = int(math.ceil((st.x0 - (need_left - chunk)) / self.dx))
        self._check_cap(n + add_l + add_r, st.t, st.h, st.g)
        u = np.zeros(n + add_l + add_r)
        u[add_l:add_l + n] = st.u
        st.u = u
        st.x0 -= add_l * self.dx
        self._refresh_taps()

    def _check_cap(self, nodes: int, t: float, h: float, g: float):
        """The window cap binds the first grid and every growth."""
        if nodes > self.cfg.max_nodes:
            raise ResourceError("run exceeded its window cap", diagnostics={
                "nodes_requested": nodes, "max_nodes": self.cfg.max_nodes,
                "t": t, "h": float(h), "g": float(g)})

    def _extent(self):
        """(left, right): each end's front or wall, or at an open end the
        outermost node carrying visible field."""
        st = self.state
        if OPEN not in (self.left, self.right):
            return st.g, st.h
        idx = np.nonzero(st.u > self.front_floor)[0]
        lo, hi = (self.x[idx[0]], self.x[idx[-1]]) if len(idx) else (st.x0, st.x0)
        return lo if self.left == OPEN else st.g, hi if self.right == OPEN else st.h

    # -- quadrature ----------------------------------------------------------

    def _pieces(self) -> quadrature.Pieces:
        """Trapezoid weights over the active nodes plus the partial front cells.

        g is -inf and h stays h0 at an end without a front, so an open end
        clips to the grid edge and a right wall sits at h0."""
        st = self.state
        return quadrature.pieces(st.x0, self.dx, st.u,
                                 0.0 if self.left == WALL else st.g,
                                 math.inf if self.right == OPEN else st.h,
                                 lo_end=0.0 if self.left == FRONT else None,
                                 hi_end=0.0 if self.right == FRONT else None)

    def _rhs(self):
        """(sl, rate, flux_r, flux_l): the window's slice, the rate on its nodes
        and the front fluxes of the current state."""
        st, spec, kernel, dx = self.state, self.spec, self.kernel, self.dx
        p = self._pieces()
        sl = p.sl
        u, x = st.u[sl], self.x[sl]
        wu = u * p.w
        sink = self.sink[sl] if self.left == WALL else self.sink
        rate = (spec.d * quadrature.window_integral(kernel, self.conv, x, wu, p.cells)
                - sink * u + spec.reaction.f(u))
        flux_r = flux_l = 0.0
        if self.right == FRONT:
            flux_r = quadrature.front_flux(kernel, st.h, x, wu, dx, p.cells)
        if self.left == FRONT:
            flux_l = quadrature.front_flux(kernel, st.g, x, wu, dx, p.cells, side=-1.0)
        return sl, rate, flux_r, flux_l

    def _advance(self, sl: slice, rate, flux_r: float, flux_l: float, dt: float):
        """u += dt * rate on the window sl, clipped at 0; the fronts move by
        dt * mu * flux, and window nodes they leave outside fall to 0."""
        st = self.state
        u = st.u[sl]
        u += dt * rate
        np.maximum(u, 0.0, out=u)
        st.t += dt
        if self.right == FRONT:
            st.h += dt * self.spec.mu * flux_r
            if sl.stop > sl.start and self.x[sl.stop - 1] >= st.h:       # x >= h
                st.u[self.x.searchsorted(st.h):sl.stop] = 0.0
        if self.left == FRONT:
            st.g -= dt * self.spec.mu * flux_l
            if sl.stop > sl.start and self.x[sl.start] <= st.g:          # x <= g
                st.u[sl.start:self.x.searchsorted(st.g, "right")] = 0.0

    def step_once(self, dt: float):
        sl, rate, flux_r, flux_l = self._rhs()
        if self.cfg.scheme == "rk2":
            st = self.state
            start = st.t, st.h, st.g, st.u[sl].copy()
            self._advance(sl, rate, flux_r, flux_l, 0.5 * dt)
            mid = self._rhs()
            st.t, st.h, st.g, st.u[sl] = start
            self._advance(*mid, dt)
        else:
            self._advance(sl, rate, flux_r, flux_l, dt)

    # -- logging --------------------------------------------------------------

    def observables(self):
        """The values of ``TrajectoryLog._observed`` at the current state; the
        flux is the one the next step moves the right front by."""
        st = self.state
        p = self._pieces()
        u, x = st.u[p.sl], self.x[p.sl]
        wu = u * p.w
        mass = float(np.sum(wu)) * self.dx + sum(c.area for c in p.cells)
        rint = float(np.sum(self.spec.reaction.f(u) * p.w)) * self.dx
        for c in p.cells:
            # midpoint value of f on the partial end cell
            width = c.area / c.mean if c.mean > 0.0 else 0.0
            rint += width * float(self.spec.reaction.f(c.mean))
        sup = float(np.max(st.u)) if len(st.u) else 0.0
        fr = 0.0
        if self.right == FRONT:
            fr = quadrature.front_flux(self.kernel, st.h, x, wu, self.dx, p.cells)
        return st.t, self._extent()[1], st.g, mass, sup, fr, rint


def _schedule(cfg: SolverConfig, dt: float):
    """``run``'s steps of dt to t_end: their number, the last one (shorter
    when t_end is not a whole number of steps) and the checkpoint stride."""
    n_steps = int(round(cfg.t_end / dt))
    last_dt = dt
    if abs(n_steps * dt - cfg.t_end) >= 1e-9 * max(cfg.t_end, 1.0):
        n_steps = int(math.ceil(cfg.t_end / dt - 1e-12))
        last_dt = cfg.t_end - (n_steps - 1) * dt
    stride = 1
    if n_steps > 0:
        log_every = cfg.log_every if cfg.log_every is not None else max(cfg.t_end / 200.0, dt)
        stride = max(1, int(round(log_every / dt)))
    return n_steps, last_dt, stride


def checkpoint_times(spec: ProblemSpec, cfg: SolverConfig) -> np.ndarray:
    """The times ``run`` logs at when it reaches t_end, its steps summed in
    order as the run sums t."""
    dt = time_step(spec, cfg)
    n_steps, last_dt, stride = _schedule(cfg, dt)
    steps = np.full(n_steps, dt)
    steps[-1:] = last_dt
    k = np.arange(n_steps + 1)
    return np.cumsum(np.r_[0.0, steps])[(k % stride == 0) | (k == n_steps)]


def run(spec: ProblemSpec, cfg: SolverConfig) -> TrajectoryLog:
    """Integrate to t_end, growing the window ahead of the active front."""
    eng = _Engine(spec, cfg)
    log = TrajectoryLog()
    log.meta = {
        "variant": spec.variant, "d": spec.d, "mu": spec.mu, "h0": spec.h0,
        "dx": eng.dx, "dt": eng.dt, "t_end": cfg.t_end,
        "u_star": spec.reaction.u_star, "ell": eng.ell,
        "kernel": spec.kernel.to_json(), "reaction": spec.reaction.to_json(),
    }
    n_steps, last_dt, stride = _schedule(cfg, eng.dt)

    def guard(k, check_field):
        """Stop on a non-finite front (checked every step: a NaN front breaks
        the next step's cell arithmetic) or field (checked at checkpoints)."""
        st = eng.state
        bad_nodes = int(np.count_nonzero(~np.isfinite(st.u))) if check_field else 0
        # g is -inf unless the variant has a left front
        if bad_nodes or not math.isfinite(st.h) or math.isnan(st.g):
            raise ConvergenceError(f"non-finite state at t = {st.t:g}",
                                   diagnostics={"t": st.t, "step": k,
                                                "nonfinite_nodes": bad_nodes,
                                                "h": float(st.h), "g": float(st.g)})

    def checkpoint(k):
        guard(k, check_field=True)
        for name, value in zip(log._observed, eng.observables()):
            getattr(log, name).append(value)
        n_checks = len(log.t) - 1
        if cfg.snapshot_stride > 0 and n_checks % cfg.snapshot_stride == 0:
            log.snapshots.append((eng.state.t, eng.state.as_field()))

    try:
        checkpoint(0)
        for k in range(1, n_steps + 1):
            eng._grow(*eng._extent())
            eng.step_once(eng.dt if k < n_steps else last_dt)
            if k % stride == 0 or k == n_steps:
                checkpoint(k)
            else:
                guard(k, check_field=False)
    except (ConvergenceError, ResourceError) as exc:
        # the log so far and the state the run stopped in travel with the error
        log.truncated = True
        log.final_state = eng.state.copy()
        exc.partial = log
        raise
    log.final_state = eng.state.copy()
    return log


def step(spec: ProblemSpec, cfg: SolverConfig, state: State) -> State:
    """One explicit update of a caller-held state (diagnostic surface)."""
    eng = _Engine(spec, cfg)
    eng.state = state.copy()
    eng._refresh_taps()
    eng.step_once(eng.dt)
    return eng.state


def classify(log: TrajectoryLog, spec: ProblemSpec) -> str:
    """Finite-time surrogate of the spreading/vanishing dichotomy.

    Spreading: over the last half of the run the front gained at least 5
    interaction lengths and the field still sits above u*/2.  Vanishing:
    the front gained less than one cell (dx) and the field fell under
    u*/100.  Anything else is undecided.  The thresholds are fixed judgment
    calls, not settings.  The interaction length and dx are the run's own,
    from ``log.meta``; a log read back from CSV lacks them.
    """
    if "ell" not in log.meta or "dx" not in log.meta:
        raise ContractError("classify needs the run's log: its meta holds ell and dx")
    t = np.asarray(log.t)
    h = np.asarray(log.h)
    if len(t) < 3:
        return "undecided"
    u_star = spec.reaction.u_star
    if not u_star:
        raise ContractError("classify needs a reaction with a positive zero u*")
    ell, dx = log.meta["ell"], log.meta["dx"]
    half = np.searchsorted(t, t[-1] / 2.0)
    growth = h[-1] - h[half]
    sup_end = log.sup_u[-1]
    if growth >= 5.0 * ell and sup_end > 0.5 * u_star:
        return "spreading"
    if growth < dx and sup_end < 0.01 * u_star:
        return "vanishing"
    return "undecided"


# ---------------------------------------------------------------------------
# pointwise operator surfaces (diagnostics and fixture checks)
# ---------------------------------------------------------------------------


def _field_quadrature(u: Field, lo: float, hi: float):
    """The stepper's quadrature of a sampled field on [lo, hi]: nodes, weighted
    values and partial cells.  hi is a front; lo is the wall at x = 0 or a front."""
    x = u.x
    if not (lo <= x[-1] and hi >= x[0]):
        raise ContractError(f"window ({lo}, {hi}) misses the field's nodes "
                            f"[{x[0]}, {x[-1]}]")
    p = quadrature.pieces(u.x0, u.dx, u.values, lo, hi,
                          lo_end=float(u.at(lo)) if lo == 0.0 else 0.0, hi_end=0.0)
    return x[p.sl], u.values[p.sl] * p.w, p.cells


def nonlocal_operator(kernel: Kernel, u: Field, window: tuple, x: float,
                      d: float = 1.0, form: str = "halfline") -> float:
    """d * int_window J(x-y) u(y) dy - d * j(x) * u(x)  (or d*u for full-line).

    The stepper's quadrature at one point (see ``quadrature``): trapezoid
    nodes inside the window, cell averages of J, and a linear partial cell
    where an end falls between nodes (u is zero at the front hi and at a
    left front, the field's value at the wall lo = 0).  At a node of a
    solver state this equals the stepper's rate minus f(u).
    """
    lo, hi = window
    if not (lo - 1e-12 <= x <= hi + 1e-12):
        raise ContractError(f"x = {x} lies outside the window {window}")
    y, wu, cells = _field_quadrature(u, lo, hi)
    if len(y) == 0:
        raise ContractError("window contains no field nodes")
    val = quadrature.point_integral(kernel, x, y, wu, u.dx, cells)
    ux = float(u.at(x))
    j = float(kernel.halfline_mass(max(x, 0.0))) if form == "halfline" else 1.0
    return d * val - d * j * ux


def boundary_flux(kernel: Kernel, u: Field, h: float, lo: float = 0.0) -> float:
    """The front double integral int_lo^h tail_mass(h - x) u(x) dx (no mu factor).

    Same quadrature as the stepper: at a solver state it equals the
    stepper's right-front flux.
    """
    if np.any(u.values < -1e-12):
        raise ContractError("boundary_flux expects a nonnegative field")
    y, wu, cells = _field_quadrature(u, lo, h)
    return quadrature.front_flux(kernel, h, y, wu, u.dx, cells) if len(y) else 0.0
