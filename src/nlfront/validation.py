"""Machine checks of the explicit super/sub-solution constructions and the
cross-cutting numerical oracles (mass-flux identity, comparison ordering,
refinement order, the cutoff-function inequality).

Each fixture is a closed-form candidate (profile, front path) together
with the inequality system it must satisfy pointwise.  ``verify_fixture``
evaluates every inequality on a (t, x) lattice: time derivatives come from
the closed forms, spatial integrals from the same quadrature the solver
uses.  For fixtures built on a semi-wave profile the margins are also
computed in an exact algebraic form (the profile's own equation
substituted), and the discrepancy between the two routes calibrates the
reported tolerance; for the piecewise-linear fixtures the tolerance comes
from a two-resolution refinement of the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .artifacts import Record
from .errors import ContractError, ValidationError
from .kernels import AlgebraicTail, Kernel
from .semiwave import SemiWaveSolution
from .solver import FRONT, WALL, ProblemSpec, SolverConfig, TrajectoryLog, run

__all__ = [
    "Lattice",
    "ResidualReport",
    "SuperSemiwave",
    "SubPlateau",
    "SubSemiwave",
    "SubPowerFront",
    "SubTLogTFront",
    "verify_fixture",
    "psi_inequality_check",
    "PsiReport",
    "mass_flux_residual",
    "comparison_order_check",
    "refinement_order",
    "fixture_domination_check",
]


# quadrature nodes per lattice time of a shape fixture, at most
LATTICE_MAX_NODES = 400_000
# the comparison check's lower datum as a share of the upper one, how far
# ordered runs may cross before it fails, and how far a run started at a
# lower barrier may dip below it
COMPARISON_SCALE = 0.5
COMPARISON_TOL = 1e-8
DOMINATION_TOL = 5e-3
# the least observed order under refinement that passes
MIN_ORDER = 0.7


@dataclass(frozen=True)
class Lattice:
    t_values: tuple

    def __post_init__(self):
        if len(self.t_values) == 0:
            raise ContractError("lattice needs at least one time sample")


@dataclass(frozen=True)
class ResidualReport(Record):
    kind: str
    margins: dict                   # per-constraint minimum margin
    worst: dict                     # per-constraint (t, x) of the minimum
    tol: dict
    passed: bool
    notes: tuple = ()
    consistency: float | None = None  # max |margin - second route| (see verify_fixture)


# ---------------------------------------------------------------------------
# fixture candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class _Barrier:
    """What every fixture shares: the model it is checked against, and by
    default a lower barrier (``sense`` -1) with a front inequality, checked
    on (0, h(t)) with no ridges."""

    kernel: Kernel
    reaction: object
    d: float
    mu: float
    theta: float
    sense = -1
    has_front_check = True

    def ridges(self, t):
        return ()

    def interior_domain(self, t):
        return 0.0, self.h_front(t)


@dataclass(frozen=True, kw_only=True)
class _WaveBarrier(_Barrier):
    """(1 + sense eps(t)) phi(x - h(t)) around one semi-wave phi."""

    wave: SemiWaveSolution

    def _phi(self, t, x):
        """phi and phi' at x - h(t)."""
        xi = np.asarray(x) - self.h_front(t)
        return (self.wave.phi_at(xi),
                np.interp(xi, self.wave.x, self.wave.phi_prime(), left=0.0, right=0.0))

    def _missing(self, t):
        """u* times the tail mass past the front, which the window omits."""
        return self.wave.u_star * self.kernel.tail_mass_integral(self.h_front(t))

    def u_at(self, t, x):
        return (1.0 + self.sense * self.eps(t)) * self.wave.phi_at(np.asarray(x) - self.h_front(t))

    def u_t_at(self, t, x):
        phi, dphi = self._phi(t, x)
        return self.sense * self.eps_prime(t) * phi \
            - (1.0 + self.sense * self.eps(t)) * self.h_front_prime(t) * dphi

    # exact route: the profile's own equation substituted into the inequality,
    # with a = 1 + sense eps; the window's flux is a (c0 - defect - mu missing)
    def algebraic_interior(self, t, x):
        x = np.asarray(x, dtype=float)
        s = self.sense
        a = 1.0 + s * self.eps(t)
        phi, dphi = self._phi(t, x)
        f = self.reaction.f
        tail = self.kernel.tail_mass(np.maximum(x, 0.0))
        return (self.eps_prime(t) * phi
                - s * a * (self.h_front_prime(t) - self.wave.c0) * dphi
                + s * (a * f(phi) - f(a * phi)
                       + self.d * a * tail * (self.wave.u_star - phi)))

    def algebraic_front(self, t):
        a = 1.0 + self.sense * self.eps(t)
        w = self.wave
        return self.sense * (self.h_front_prime(t)
                             - a * (w.c0 - w.speed_defect - self.mu * self._missing(t)))


@dataclass(frozen=True, kw_only=True)
class SuperSemiwave(_WaveBarrier):
    """Upper barrier (1+eps(t)) phi(x - hbar(t)) with hbar ahead of c0 t.

    eps(t) = (t+theta)^-beta and hbar' = c0 (1 + eps); the inequality system
    must hold for beta > 1 and theta, l large.
    """

    beta: float
    l: float
    kind = "super-semiwave"
    sense = 1

    def __post_init__(self):
        if not self.beta > 1.0:
            raise ValidationError("super-semiwave needs beta > 1")
        if not self.theta >= 1.0:
            raise ValidationError("super-semiwave needs theta >= 1")
        if not self.l > 0.0:
            raise ValidationError("super-semiwave needs l > 0")

    def eps(self, t):
        return (t + self.theta) ** (-self.beta)

    def eps_prime(self, t):
        return -self.beta * (t + self.theta) ** (-self.beta - 1.0)

    def h_front(self, t):
        th = self.theta
        c0 = self.wave.c0
        return c0 * t + self.l + c0 / (1.0 - self.beta) * (
            (t + th) ** (1.0 - self.beta) - th ** (1.0 - self.beta))

    def h_front_prime(self, t):
        return self.wave.c0 * (1.0 + self.eps(t))


@dataclass(frozen=True, kw_only=True)
class SubSemiwave(_WaveBarrier):
    """Lower barrier (1-eps(t)) phi(x - hunder(t)) with a logarithmic lag.

    eps(t) = l1/(t+theta), hunder = c0 t + c0 theta - l2 ln((t+theta)/theta);
    the interior inequality is only claimed on (eta0*h, h).
    """

    l1: float
    l2: float
    eta0: float = 0.05
    kind = "sub-semiwave"

    def __post_init__(self):
        if not (self.theta >= 1.0 and self.theta > self.l1):
            raise ValidationError("sub-semiwave needs theta >= max(1, l1)")
        if not (self.l1 > 0.0 and self.l2 > 0.0):
            raise ValidationError("sub-semiwave needs positive l1, l2")
        if not 0.0 < self.eta0 < 1.0:
            raise ValidationError("eta0 must sit in (0,1)")

    def eps(self, t):
        return self.l1 / (t + self.theta)

    def eps_prime(self, t):
        return -self.l1 / (t + self.theta) ** 2

    def h_front(self, t):
        c0 = self.wave.c0
        return c0 * t + c0 * self.theta \
            - self.l2 * (math.log(t + self.theta) - math.log(self.theta))

    def h_front_prime(self, t):
        return self.wave.c0 - self.l2 / (t + self.theta)

    def interior_domain(self, t):
        h = self.h_front(t)
        return self.eta0 * h, h


@dataclass(frozen=True, kw_only=True)
class _RampBarrier(_Barrier):
    """The plateau p(t) up to the ridge h(t) - w(t), then a linear ramp down
    to 0 at the front h(t); subclasses give p, h and their rates, and w
    when the ramp is not the outer half of [0, h]."""

    def ramp_width(self, t):
        return self.h_front(t) / 2.0

    def ramp_width_prime(self, t):
        return self.h_front_prime(t) / 2.0

    def u_at(self, t, x):
        s = (self.h_front(t) - np.asarray(x, dtype=float)) / self.ramp_width(t)
        return self.plateau(t) * np.clip(np.minimum(1.0, s), 0.0, None)

    def u_t_at(self, t, x):
        x = np.asarray(x, dtype=float)
        h, w, p_t = self.h_front(t), self.ramp_width(t), self.plateau_prime(t)
        s = (h - x) / w                  # 1 at the ridge, 0 at the front
        ramp_t = p_t * s + self.plateau(t) * (self.h_front_prime(t) / w
                                              - s * self.ramp_width_prime(t) / w)
        return np.where(x <= h - w, p_t, ramp_t)

    def ridges(self, t):
        return (self.h_front(t) - self.ramp_width(t),)


@dataclass(frozen=True, kw_only=True)
class SubPlateau(_RampBarrier):
    """Piecewise-linear plateau barrier feeding the 1/t interior estimate.

    hunder = 2 eta1 (t+theta); the profile is the plateau u* - rho1/hunder
    up to hunder/2 and a linear ramp beyond.  The front inequality of this
    construction is ordering against the true solution, so only the
    interior PDE inequality and the boundary value are checked here.
    """

    eta1: float
    rho1: float
    c0: float | None = None
    kind = "sub-plateau"
    has_front_check = False

    def __post_init__(self):
        r = self.kernel.support_radius()
        if not math.isfinite(r):
            raise ValidationError("the plateau barrier needs a compactly supported kernel")
        rho = self.reaction.rho
        u_star = self.reaction.u_star
        if rho is None or u_star is None:
            raise ValidationError("the plateau barrier needs a validated reaction "
                                  "with u* and rho")
        band = self.kernel.tail_mass(2.0 * r / 3.0) - self.kernel.tail_mass(r)
        cap = min(rho / 8.0, rho * r / 12.0, self.d * r / 36.0 * band)
        if self.c0 is not None:
            cap = min(cap, self.c0 / 2.0)
        if not 0.0 < self.eta1 < cap:
            raise ValidationError(f"eta1 must sit in (0, {cap:.6g})")
        if not 0.0 < self.rho1 < self.eta1 * self.theta * u_star:
            raise ValidationError("rho1 must sit in (0, eta1*theta*u*)")

    def h_front(self, t):
        return 2.0 * self.eta1 * (t + self.theta)

    def h_front_prime(self, t):
        return 2.0 * self.eta1

    def plateau(self, t):
        return self.reaction.u_star - self.rho1 / self.h_front(t)

    def plateau_prime(self, t):
        return self.rho1 * self.h_front_prime(t) / self.h_front(t) ** 2


@dataclass(frozen=True, kw_only=True)
class _AcceleratedBarrier(_RampBarrier):
    """A ramp up to the fixed plateau l_eps = u* - sqrt(eps) behind an
    accelerating front, for algebraic kernels with gamma in (1,2]."""

    l1: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps and math.sqrt(self.eps) < self.reaction.u_star):
            raise ValidationError("eps must be small and positive")
        if not (self.l1 > 0.0 and self.theta >= 1.0):
            raise ValidationError("need l1 > 0 and theta >= 1")

    def plateau(self, t):
        return self.reaction.u_star - math.sqrt(self.eps)

    def plateau_prime(self, t):
        return 0.0


@dataclass(frozen=True, kw_only=True)
class SubPowerFront(_AcceleratedBarrier):
    """Accelerated-front barrier h = (l1 t + theta)^(1/(gamma-1)) with a
    half-length ramp, for algebraic kernels with gamma in (1,2)."""

    kind = "sub-power-front"

    def __post_init__(self):
        if not isinstance(self.kernel, AlgebraicTail) or not 1.0 < self.kernel.gamma < 2.0:
            raise ValidationError("the power-front barrier needs an algebraic "
                                  "kernel with gamma in (1,2)")
        super().__post_init__()

    def h_front(self, t):
        g = self.kernel.gamma
        return (self.l1 * t + self.theta) ** (1.0 / (g - 1.0))

    def h_front_prime(self, t):
        g = self.kernel.gamma
        return self.l1 / (g - 1.0) * (self.l1 * t + self.theta) ** ((2.0 - g) / (g - 1.0))


@dataclass(frozen=True, kw_only=True)
class SubTLogTFront(_AcceleratedBarrier):
    """Accelerated-front barrier h = l1 (t+theta) ln(t+theta) with a ramp of
    width (t+theta)^alpha, for algebraic kernels with gamma = 2."""

    alpha: float
    kind = "sub-tlogt-front"

    def __post_init__(self):
        if not isinstance(self.kernel, AlgebraicTail) or abs(self.kernel.gamma - 2.0) > 1e-12:
            raise ValidationError("the t log t barrier needs an algebraic kernel "
                                  "with gamma = 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must sit in (0,1)")
        super().__post_init__()
        if self.h_front(0.0) <= 2.0 * self.ramp_width(0.0):
            raise ValidationError("theta too small: the ramp swallows the front")

    def ramp_width(self, t):
        return (t + self.theta) ** self.alpha

    def ramp_width_prime(self, t):
        return self.alpha * (t + self.theta) ** (self.alpha - 1.0)

    def h_front(self, t):
        return self.l1 * (t + self.theta) * math.log(t + self.theta)

    def h_front_prime(self, t):
        return self.l1 * (math.log(t + self.theta) + 1.0)


# ---------------------------------------------------------------------------
# lattice evaluation
# ---------------------------------------------------------------------------


def _grid_for(fixture, t, halve: bool = False):
    """Quadrature grid on [0, h(t)].  Wave fixtures align to the profile grid
    (shifted by the front) so the profile's own equation cancels exactly;
    shape fixtures use a uniform grid of a sixth of the kernel's quadrature
    scale."""
    h = fixture.h_front(t)
    if isinstance(fixture, _WaveBarrier):
        dxp = fixture.wave.dx
        n = int(math.floor(h / dxp + 1e-12))
        y = h - dxp * np.arange(n, -1, -1)
        return y, dxp
    dy0 = fixture.kernel.quadrature_scale() / 6.0
    if isinstance(fixture, SubTLogTFront):
        dy0 = min(dy0, fixture.ramp_width(t) / 8.0)
    if halve:
        dy0 /= 2.0
    nq = min(max(64, int(math.ceil(h / dy0))), LATTICE_MAX_NODES)
    dy = h / nq
    return dy * np.arange(nq + 1), dy


def _interior_margins(fixture, t, halve=False):
    """Interior margins on the quadrature grid of time t, and the front flux."""
    y, dy = _grid_for(fixture, t, halve=halve)
    kernel = fixture.kernel
    vals = np.asarray(fixture.u_at(t, y), dtype=float)
    wu = vals * quadrature.trapezoid(len(y))
    # the strip [0, y0) between the wall and the first node, u(t, 0) in closed form
    strip = () if y[0] <= 1e-12 else (
        quadrature.partial_cell(y[0], vals[0], 0.0, float(fixture.u_at(t, 0.0))),)
    conv = quadrature.window_integral(kernel, quadrature.plan(kernel, dy, len(y)),
                                      y, wu, strip)
    # dy * nq may pass h by an ulp: no node may lie past the front
    h = fixture.h_front(t)
    flux = quadrature.front_flux(kernel, h, np.minimum(y, h), wu, dy, strip)
    j = kernel.halfline_mass(np.maximum(y, 0.0))
    rhs = fixture.d * conv - fixture.d * j * vals + fixture.reaction.f(vals)
    ut = np.asarray(fixture.u_t_at(t, y), dtype=float)
    margin = fixture.sense * (ut - rhs)
    lo, hi = fixture.interior_domain(t)
    keep = (y >= lo - 1e-12) & (y < hi - 1e-12)
    dropped = 0
    for ridge in fixture.ridges(t):
        near = np.abs(y - ridge) <= 0.75 * dy
        dropped += int(np.sum(near & keep))
        keep &= ~near
    return y[keep], margin[keep], dy, dropped, flux


def verify_fixture(fixture, lattice: Lattice) -> ResidualReport:
    """Pointwise margins of the fixture's inequality system on the lattice.

    Margins are oriented so that nonnegative means the inequality holds.
    The tolerance scales with the noise of a second route to the same
    margins: the algebraic form for wave fixtures, a halved grid for the
    others.
    """
    keys = ("interior", "front", "boundary") if fixture.has_front_check \
        else ("interior", "boundary")
    margins = dict.fromkeys(keys, math.inf)
    worst = dict.fromkeys(keys, (math.nan, math.nan))
    notes = []
    noise = 0.0

    wave = isinstance(fixture, _WaveBarrier)
    for t in lattice.t_values:
        ys, m_int, dy, dropped, flux = _interior_margins(fixture, t)
        if dropped:
            notes.append(f"t={t:g}: dropped {dropped} lattice points at the "
                         "non-smooth ridge")
        if len(m_int):
            i = int(np.argmin(m_int))
            if m_int[i] < margins["interior"]:
                margins["interior"] = float(m_int[i])
                worst["interior"] = (float(t), float(ys[i]))
        if wave:
            second = fixture.algebraic_interior(t, ys)
        else:
            ys2, m2, _, _, _ = _interior_margins(fixture, t, halve=True)
            second = np.interp(ys, ys2, m2)
        noise = max(noise, float(np.max(np.abs(second - m_int))))

        h = fixture.h_front(t)
        if fixture.has_front_check:
            m_front = fixture.sense * (fixture.h_front_prime(t) - fixture.mu * flux)
            if wave:
                noise = max(noise, abs(m_front - fixture.algebraic_front(t)))
            if m_front < margins["front"]:
                margins["front"] = float(m_front)
                worst["front"] = (float(t), float(h))
        m_bnd = fixture.sense * float(fixture.u_at(t, h))
        if m_bnd < margins["boundary"]:
            margins["boundary"] = m_bnd
            worst["boundary"] = (float(t), float(h))

    if wave:
        floor = {"interior": 10.0 * fixture.wave.residual,
                 "front": 10.0 * fixture.wave.speed_defect}
    else:
        floor = {"interior": 1e-12, "front": 1e-12}
    tol = {k: 1e-12 if k == "boundary" else floor[k] + 10.0 * noise for k in keys}
    passed = all(margins[k] >= -tol[k] for k in keys)
    return ResidualReport(kind=fixture.kind, margins=margins, worst=worst,
                          tol=tol, passed=passed, notes=tuple(notes),
                          consistency=noise)


# ---------------------------------------------------------------------------
# cutoff-function inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiReport(Record):
    kappa_eps: float
    worst_margin: float
    eps: float
    kappa1: float
    kappa2: float


def psi_inequality_check(P: Kernel, kappa1: float, kappa2: float, eps: float) -> PsiReport:
    """Smallest kappa so that int_0^k2 P(x-y) psi(y) dy >= (1-eps) psi(x)
    holds on [kappa, kappa2], with psi the plateau cutoff of width kappa1.
    The grid step is at most kappa1/64 and an eighth of P's quadrature scale.

    kappa_eps sits one grid step past the last node where the inequality
    fails (0 when it holds everywhere).
    """
    if not (kappa2 > kappa1 > 0.0):
        raise ContractError("need kappa2 > kappa1 > 0")
    if not 0.0 < eps < 1.0:
        raise ContractError("eps must sit in (0,1)")
    n = int(math.ceil(kappa2 / min(kappa1 / 64.0, P.quadrature_scale() / 8.0)))
    dx = kappa2 / n
    x = dx * np.arange(n + 1)
    psi = np.minimum(1.0, (kappa2 - np.abs(x)) / kappa1)
    conv = quadrature.plan(P, dx, n + 1)(psi * quadrature.trapezoid(n + 1))
    margin = conv - (1.0 - eps) * psi

    viol = np.nonzero(margin < 0.0)[0]
    if len(viol) == 0:
        kappa_eps = 0.0
    else:
        kappa_eps = float(x[viol[-1]] + dx)
    sel = x >= kappa_eps - 1e-12
    return PsiReport(kappa_eps=kappa_eps,
                     worst_margin=float(np.min(margin[sel])),
                     eps=eps, kappa1=kappa1, kappa2=kappa2)


# ---------------------------------------------------------------------------
# structural oracles
# ---------------------------------------------------------------------------


def mass_flux_residual(log: TrajectoryLog, spec: ProblemSpec) -> float:
    """max_k |Q(t_k) - Q(0) - int_0^{t_k} int f(u)| with Q = mass + (d/mu) h.

    Differentiating the model in time and integrating in x kills the
    symmetric convolution part and leaves the front flux, so Q drifts only
    by the reaction integral; the discretization residual decays under
    refinement.
    """
    if spec.variant != "halfline-fb":
        raise ContractError("the mass-flux identity is a half-line-front statement")
    t = np.asarray(log.t, dtype=float)
    needed = {"mass": log.mass, "h": log.h}
    for name, col in needed.items():
        if len(col) != len(t):
            raise ContractError(f"log is missing the {name} column")
    if len(log.rint) != len(t):
        raise ContractError("log lacks the reaction-integral series needed "
                            "for f != 0 runs; rerun in-process")
    Q = np.asarray(log.mass) + (spec.d / spec.mu) * np.asarray(log.h)
    rint = np.asarray(log.rint)
    F = np.concatenate([[0.0], np.cumsum(0.5 * (rint[1:] + rint[:-1]) * np.diff(t))])
    return float(np.max(np.abs(Q - Q[0] - F)))


@dataclass(frozen=True)
class ComparisonReport(Record):
    """How far a solution that must stay below another rises above it, in u and at a front."""
    passed: bool
    max_u_violation: float
    max_h_violation: float


def comparison_order_check(spec_a: ProblemSpec, spec_b: ProblemSpec, cfg: SolverConfig,
                           log_b: TrajectoryLog | None = None) -> ComparisonReport:
    """Initial data ordered on [0, h0] behind a left wall, on [-h0, h0] otherwise,
    must stay ordered: u_a <= u_b, h_a <= h_b and, with a left front, g_a >= g_b;
    ``log_b``, if given, is spec_b's run under cfg with snapshots."""
    if not (replace(spec_a, reaction=None, u0=None) == replace(spec_b, reaction=None, u0=None)
            and spec_a.reaction.to_json() == spec_b.reaction.to_json()):
        raise ContractError("specs must agree except for the initial datum")
    left = spec_a.ends[0]
    probe = np.linspace(0.0 if left == WALL else -spec_a.h0, spec_a.h0, 513)
    ua = np.asarray(spec_a.initial_datum()(probe))
    ub = np.asarray(spec_b.initial_datum()(probe))
    if np.any(ua > ub + 1e-12):
        raise ContractError("initial data are not ordered: u0_a must lie below u0_b")
    cfg = cfg.with_snapshots()
    log_a = run(spec_a, cfg)
    if log_b is None:
        log_b = run(spec_b, cfg)
    max_u = max([0.0] + [float(np.max(fa.values - fb.at(fa.x)))
                         for _, fa, fb in log_a.paired_snapshots(log_b)])
    max_h = float(np.max(np.asarray(log_a.h) - np.asarray(log_b.h)))
    if left == FRONT:
        max_h = max(max_h, float(np.max(np.asarray(log_b.g) - np.asarray(log_a.g))))
    return ComparisonReport(passed=(max_u <= COMPARISON_TOL and max_h <= COMPARISON_TOL),
                            max_u_violation=max_u, max_h_violation=max_h)


@dataclass(frozen=True)
class RefinementReport(Record):
    """h(t_end) per level, and the median order; it passes at MIN_ORDER."""
    h_values: tuple
    diffs: tuple
    orders: tuple
    order: float | None
    inconclusive: bool
    passed: bool
    _json_skip = ("diffs", "orders")


def refinement_order(spec: ProblemSpec, cfg: SolverConfig, levels: int = 3,
                     base: TrajectoryLog | None = None) -> RefinementReport:
    """Observed convergence order of h(t_end) under joint (dx, dt) halving;
    ``base``, if given, is the run of spec under cfg (level 0)."""
    if levels < 3:
        raise ContractError("refinement_order needs at least 3 levels")
    if cfg.dt is None:
        raise ContractError("refinement_order needs an explicit base dt")
    hs = [] if base is None else [base.h[-1]]
    for k in range(len(hs), levels):
        lcfg = replace(cfg, dx=cfg.dx / 2 ** k, dt=cfg.dt / 2 ** k)
        hs.append(run(spec, lcfg).h[-1])
    diffs = tuple(hs[i] - hs[i + 1] for i in range(len(hs) - 1))
    if any(d == 0.0 for d in diffs) or len({d > 0 for d in diffs}) != 1:
        return RefinementReport(tuple(hs), diffs, (), None, True, False)
    orders = tuple(math.log2(abs(diffs[i] / diffs[i + 1]))
                   for i in range(len(diffs) - 1))
    middle = sorted(orders)[(len(orders) - 1) // 2:len(orders) // 2 + 1]
    order = sum(middle) / len(middle)       # the median order
    return RefinementReport(tuple(hs), diffs, orders, order, False, order >= MIN_ORDER)


def fixture_domination_check(fixture, cfg: SolverConfig, t_end: float) -> ComparisonReport:
    """Soundness of a sub-fixture against the solver: a run started at the
    barrier stays above it (the fitted lag T is zero for an equal start), to
    DOMINATION_TOL in u and in h."""
    if fixture.sense != -1:
        raise ContractError("domination checks apply to lower barriers")
    h0 = fixture.h_front(0.0)
    spec = ProblemSpec(variant="halfline-fb", kernel=fixture.kernel,
                       reaction=fixture.reaction, d=fixture.d, h0=h0,
                       mu=fixture.mu, u0=lambda x: fixture.u_at(0.0, x))
    log = run(spec, replace(cfg, t_end=t_end).with_snapshots())
    worst_u = 0.0
    for t, snap in log.snapshots:
        hb = fixture.h_front(t)
        sel = snap.x <= min(hb, snap.x[-1])
        gap = fixture.u_at(t, snap.x[sel]) - snap.values[sel]
        worst_u = max(worst_u, float(np.max(gap)))
    worst_h = float(np.max([fixture.h_front(t) - h for t, h in zip(log.t, log.h)]))
    return ComparisonReport(passed=worst_u <= DOMINATION_TOL and worst_h <= DOMINATION_TOL,
                            max_u_violation=worst_u, max_h_violation=worst_h)
