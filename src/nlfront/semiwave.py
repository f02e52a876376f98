"""Semi-wave speeds and profiles, minimal traveling-wave speed, and the
half-line stationary profile.

The semi-wave pair (c0, phi) solves, on a truncated window [-L, 0],

    d * int J(x-y) phi(y) dy - d phi + c phi' + f(phi) = 0,
    phi(-L) = u*,  phi(0) = 0,
    c = mu * int_{-inf}^0 tail_mass(-x) phi(x) dx,

with closed-form completion of all integrals past -L where phi == u*, and
upwind differencing for phi'.  A loose relaxation warm start (a damped
fixed point with a monotone clamp, inside a bisection on c: the induced
flux decreases in c) hands a profile and a 10 % bracket of c to a bordered
Newton solve on (phi, c), one banded solve per iteration.  The Newton
answer is accepted only when, after the relaxation's clamp, it still
satisfies the equations to ``residual_tol``; otherwise the relaxation
alone, bisecting c to ``c_rtol``, gives the answer, and the solution says
so (``fallback``).  The profile exists iff the kernel has a finite first
moment; heavy-tailed kernels raise instead, which is the
accelerated-spreading regime.

The stationary profile U is the case c = mu = 0 with no node pinned:
Newton from the supersolution U == u* falls monotonically to the maximal
solution (concave f), and the relaxation at c = 0 is the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, ConvergenceError, NoSemiWaveError,
                     NoTravelingWaveError, ValidationError)
from .kernels import Kernel
from .quadrature import FarFieldWindow

__all__ = [
    "SemiWaveConfig",
    "SemiWaveSolution",
    "WaveSolution",
    "StationaryProfile",
    "MuCurve",
    "solve_semiwave",
    "minimal_speed",
    "stationary_profile",
    "half_level_point",
    "mu_curve",
]

# Warm start: relaxation stop (relative to u*) and the relative width of the
# c bracket at which bisection hands over to Newton.
WARM_TOL = 1e-4
WARM_BRACKET = 0.1
# Newton stops once the sup residual is at most NEWTON_TOL * u* or stops
# falling, or after NEWTON_MAX_ITER iterations (not converged).
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30
# Kernels of infinite support: the Jacobian band ends where tail_mass falls
# below BAND_TAIL (the residual keeps every tap).  A band of more than
# BAND_MAX_ENTRIES entries is not factored; the relaxation solves instead.
BAND_TAIL = 1e-8
BAND_MAX_ENTRIES = 2 ** 23
# Stationary relaxation fallback: sup-norm increment stop, relative to u*.
STATIONARY_STOP = 1e-10


@dataclass(frozen=True)
class SemiWaveConfig:
    dx: float = 0.02
    L0: float | None = None        # default 40 interaction lengths
    max_doublings: int = 3
    L_rtol: float = 1e-4           # c0 movement that forces an L doubling
    inner_tol: float = 1e-11       # relaxation fallback: sup-norm increment stop, relative to u*
    max_inner: int = 300_000       # relaxation sweeps per trial speed or stationary fallback
    c_rtol: float = 1e-9           # relaxation fallback: bisection bracket on c
    residual_tol: float = 1e-6     # acceptance, stationary profile included


def _upwind(phi: np.ndarray, dx: float) -> np.ndarray:
    """Forward differences; the last node repeats its neighbour's."""
    dphi = np.empty_like(phi)
    dphi[:-1] = np.diff(phi) / dx
    dphi[-1] = dphi[-2]
    return dphi


@dataclass(frozen=True)
class SemiWaveSolution:
    c0: float
    x: np.ndarray                  # grid on [-L, 0]
    phi: np.ndarray
    L: float
    residual: float                # sup-norm defect of the profile equation
    speed_defect: float            # |c0 - mu * flux(phi)|
    u_star: float
    d: float
    mu: float
    newton_iterations: int = 0
    newton_residuals: tuple = ()   # sup residual at the start and after each iteration
    fallback: bool = False         # True: Newton was rejected, relaxation gave phi

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def phi_at(self, xi):
        """Profile extended by u* on the left and 0 on the right."""
        return np.interp(xi, self.x, self.phi, left=self.u_star, right=0.0)

    def phi_prime(self) -> np.ndarray:
        """The upwind (forward) derivative the solver itself used."""
        return _upwind(self.phi, self.dx)

    def to_json(self) -> dict:
        return {"c0": self.c0, "L": self.L, "residual": self.residual,
                "speed_defect": self.speed_defect, "u_star": self.u_star,
                "d": self.d, "mu": self.mu, "dx": self.dx,
                "newton_iterations": self.newton_iterations,
                "newton_residuals": list(self.newton_residuals),
                "fallback": self.fallback}


@dataclass(frozen=True)
class WaveSolution:
    c_star: float
    lambda_star: float

    def to_json(self) -> dict:
        return {"c_star": self.c_star, "lambda_star": self.lambda_star}


@dataclass(frozen=True)
class StationaryProfile:
    x: np.ndarray
    U: np.ndarray
    x0: float | None               # U(x0) = u*/2, or None when U(0) >= u*/2
    d: float
    u_star: float
    iterations: int                # Newton iterations, or relaxation sweeps on the fallback
    residual: float                # sup-norm defect at the unknown nodes
    fallback: bool                 # True: the relaxation gave U

    def U_at(self, xq):
        return np.interp(xq, self.x, self.U, left=self.u_star, right=float(self.U[-1]))

    def to_json(self) -> dict:
        return {"d": self.d, "x0": self.x0, "U0": float(self.U[-1]),
                "u_star": self.u_star, "iterations": self.iterations,
                "residual": self.residual, "fallback": self.fallback}


@dataclass(frozen=True)
class MuCurve:
    mu: np.ndarray
    c: np.ndarray
    l: np.ndarray
    solutions: tuple

    def to_json(self) -> dict:
        return {"mu": self.mu.tolist(), "c": self.c.tolist(), "l": self.l.tolist()}


# ---------------------------------------------------------------------------
# the profile solver: relaxation warm start, bordered Newton, relaxation fallback
# ---------------------------------------------------------------------------


class _ProfileSolver(FarFieldWindow):
    """The profile equation on [-L, 0]; ``pinned`` fixes phi(-L) = u* and
    phi(0) = 0 (the semi-wave), else every node is unknown (the stationary
    problem, solved at c = 0 only)."""

    def __init__(self, kernel: Kernel, reaction, d: float, L: float, dx: float,
                 pinned: bool = True):
        super().__init__(kernel, L, dx, reaction.u_star)
        self.reaction = reaction
        self.d = d
        self.kf = reaction.max_abs_fprime()
        self.m1 = kernel.first_moment()
        self.pinned = pinned
        self.free = slice(1, -1) if pinned else slice(None)    # the unknown nodes
        reach = self.conv.m
        if not math.isfinite(kernel.support_radius()):
            reach = min(reach, int(math.ceil(kernel.interaction_length(BAND_TAIL) / dx)) + 1)
        self.band = min(reach, len(self.x) - (3 if pinned else 1))  # below the unknowns
        self.fits_band = (2 * self.band + 1) * len(self.x) <= BAND_MAX_ENTRIES

    def residual(self, phi, c):
        r = self.d * (self.integral(phi) - phi)
        if c:
            r += c * _upwind(phi, self.dx)
        return r + self.reaction.f(phi)

    def clamp(self, phi):
        """Clip phi to [0, u*] in place; a pinned phi gets its ends pinned
        first and comes back made nonincreasing."""
        if self.pinned:
            phi[0], phi[-1] = self.u_star, 0.0
        np.clip(phi, 0.0, self.u_star, out=phi)
        return np.maximum.accumulate(phi[::-1])[::-1] if self.pinned else phi

    def solve(self, c, phi0, tol, max_iter):
        tau = 0.8 / (2.0 * self.d + self.kf + c / self.dx)
        phi = phi0.copy()
        tol_abs = tol * self.u_star
        for it in range(max_iter):
            new = self.clamp(phi + tau * self.residual(phi, c))
            delta = float(np.max(np.abs(new - phi)))
            phi = new
            if delta < tol_abs:
                return phi, it + 1
        raise ConvergenceError(
            "profile relaxation stagnated",
            diagnostics={"c": c, "delta": delta, "tau": tau, "L": self.L})

    def default_profile(self):
        width = max(2.0, 0.1 * self.L)
        return self.u_star * np.clip(-self.x / width, 0.0, 1.0)

    def bisect(self, mu, phi, tol, max_inner, width):
        """Bisect c until the bracket is narrower than width * its top,
        relaxing phi to tol at each trial speed; the bracket's midpoint and
        the last profile."""
        c_hi = 1.01 * mu * self.u_star * self.m1
        c_lo = 1e-12 * c_hi
        phi, _ = self.solve(c_lo, phi, tol, max_inner)
        if mu * self.flux(phi) <= c_lo:
            raise ConvergenceError("no positive front speed bracketed",
                                   diagnostics={"c_lo": c_lo, "flux": self.flux(phi)})
        lo, hi = c_lo, c_hi
        while (hi - lo) > width * max(hi, 1e-300):
            mid = 0.5 * (lo + hi)
            phi, _ = self.solve(mid, phi, tol, max_inner)
            if mu * self.flux(phi) > mid:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), phi


def _relaxation(ps: _ProfileSolver, mu, phi, cfg: SemiWaveConfig):
    """The relaxation path alone: bisect c to c_rtol, then polish phi."""
    c0, phi = ps.bisect(mu, phi, max(cfg.inner_tol, 1e-9), cfg.max_inner, cfg.c_rtol)
    phi, _ = ps.solve(c0, phi, cfg.inner_tol, cfg.max_inner)
    return c0, phi


def _newton(ps: _ProfileSolver, mu, phi, c, tol):
    """Bordered Newton on (phi[ps.free], c) for the profile and speed equations.

    The Jacobian in the unknowns is banded: d dx taps[i-k+m] w_k on band k
    (w_k the trapezoid weight, 0.5 at an unpinned end), plus f'(phi) - d -
    c/dx on the diagonal and c/dx above it.  Its border is the upwind phi'
    (column) and -mu * flux weights (row); dc comes from the scalar Schur
    complement, and is 0 when mu = c = 0.  Returns phi, c, the sup residual
    at the start and after each iteration, and whether the iteration
    converged: to NEWTON_TOL * u*, or to a rounding floor below tol where
    the residual stopped falling (the better iterate is kept).  Above tol a
    rising residual is the usual transient of a rough start.
    """
    from scipy.linalg import LinAlgError, solve_banded

    mb, m, free = ps.band, ps.conv.m, ps.free
    band = ps.d * ps.dx * ps.conv.taps[m - mb:m + mb + 1]
    border = -mu * ps.flux_w[free]

    def defects(phi, c):
        r = ps.residual(phi, c)[free]
        g = c - mu * ps.flux(phi)
        return r, g, max(float(np.max(np.abs(r))), abs(g))

    r, g, res = defects(phi, c)
    history = [res]
    while res > NEWTON_TOL * ps.u_star:
        if len(history) > NEWTON_MAX_ITER:
            return phi, c, history, False
        ab = np.empty((2 * mb + 1, len(r)))
        ab[:] = band[:, None] * ps.w[free]
        ab[mb] += ps.reaction.f_prime(phi[free]) - ps.d - c / ps.dx
        ab[mb - 1, 1:] += c / ps.dx
        rhs = np.column_stack([r, _upwind(phi, ps.dx)[free]])
        try:
            y = solve_banded((mb, mb), ab, rhs, overwrite_ab=True, overwrite_b=True,
                             check_finite=False)
        except LinAlgError:
            return phi, c, history, False
        dc = (border @ y[:, 0] - g) / (1.0 - border @ y[:, 1])
        trial = phi.copy()
        trial[free] -= y[:, 0] + dc * y[:, 1]
        c_t = float(c + dc)
        r_t, g_t, res_t = defects(trial, c_t)
        history.append(res_t)
        if not math.isfinite(res_t):
            return phi, c, history, False
        if res_t >= res and res <= tol:
            return phi, c, history, True
        phi, c, r, g, res = trial, c_t, r_t, g_t, res_t
    return phi, c, history, True


def _solution(ps: _ProfileSolver, mu, c0, phi, history=(), fallback=False):
    resid = ps.residual(phi, c0)
    return SemiWaveSolution(
        c0=c0, x=ps.x, phi=phi, L=ps.L, residual=float(np.max(np.abs(resid[ps.free]))),
        speed_defect=abs(c0 - mu * ps.flux(phi)), u_star=ps.u_star, d=ps.d, mu=mu,
        newton_iterations=max(len(history) - 1, 0), newton_residuals=tuple(history),
        fallback=fallback)


def _newton_solution(ps: _ProfileSolver, mu, phi, c, cfg: SemiWaveConfig):
    """Newton from (phi, c) under the acceptance check: after the
    relaxation's clamp, residual and speed defect within residual_tol."""
    phi, c, history, converged = _newton(ps, mu, phi, c, cfg.residual_tol)
    sol = _solution(ps, mu, c, ps.clamp(phi.copy()), history)
    return sol, converged and max(sol.residual, sol.speed_defect) <= cfg.residual_tol


def _solve_at_L(kernel, reaction, d, mu, L, cfg: SemiWaveConfig,
                seed: SemiWaveSolution | None = None) -> SemiWaveSolution:
    """Warm start and Newton, or the relaxation when Newton is rejected.

    With a seed (the solution on a shorter window) Newton first starts
    from its profile and c0, and goes through the warm start only when
    that result is rejected.
    """
    ps = _ProfileSolver(kernel, reaction, d, L, cfg.dx)
    phi0 = ps.default_profile() if seed is None else np.interp(
        ps.x, seed.x, seed.phi, left=ps.u_star, right=0.0)
    ok, history = False, ()
    if ps.fits_band:
        if seed is not None:
            sol, ok = _newton_solution(ps, mu, phi0, seed.c0, cfg)
        if not ok:
            c, phi = ps.bisect(mu, phi0, WARM_TOL, cfg.max_inner, WARM_BRACKET)
            sol, ok = _newton_solution(ps, mu, phi, c, cfg)
        if ok:
            return sol
        history = sol.newton_residuals
    c0, phi = _relaxation(ps, mu, phi0, cfg)
    sol = _solution(ps, mu, c0, phi, history, fallback=True)
    if max(sol.residual, sol.speed_defect) > cfg.residual_tol:
        raise ConvergenceError(
            "semi-wave relaxation fallback left a defect above residual_tol",
            diagnostics={"residual": sol.residual, "speed_defect": sol.speed_defect,
                         "c0": c0, "L": ps.L, "newton_residuals": list(history)})
    return sol


def solve_semiwave(kernel: Kernel, reaction, d: float, mu: float,
                   cfg: SemiWaveConfig | None = None) -> SemiWaveSolution:
    """The unique (c0, phi) pair; raises NoSemiWaveError when (J1) fails."""
    cfg = cfg or SemiWaveConfig()
    if not math.isfinite(kernel.first_moment()):
        raise NoSemiWaveError(
            "condition (J1) fails: the kernel has no finite first moment, "
            "spreading is accelerated and no semi-wave exists")
    if not (d > 0.0 and mu > 0.0):
        raise ValidationError("solve_semiwave needs d > 0 and mu > 0")
    L = cfg.L0 if cfg.L0 is not None else 40.0 * kernel.interaction_length()
    sol = _solve_at_L(kernel, reaction, d, mu, L, cfg)
    for _ in range(cfg.max_doublings):
        bigger = _solve_at_L(kernel, reaction, d, mu, 2.0 * sol.L, cfg, seed=sol)
        if abs(bigger.c0 - sol.c0) < cfg.L_rtol * max(abs(sol.c0), 1e-12):
            return bigger
        sol = bigger
    return sol


def minimal_speed(kernel: Kernel, reaction, d: float) -> WaveSolution:
    """KPP minimal wave speed c* = min over lam of (d(Jhat(lam)-1)+f'(0))/lam.

    Linear determinacy applies because f(u)/u decreases from f'(0); the
    level-set speed of a whole-line run cross-checks the value in tests.
    """
    mgf = kernel.mgf_abscissa()
    if not mgf > 0.0:
        raise NoTravelingWaveError(
            "condition (J2) fails: no finite exponential moment, "
            "the wave problem has no nonincreasing solution")
    fp0 = reaction.fprime0()
    if not fp0 > 0.0:
        raise ValidationError("minimal_speed needs f'(0) > 0")

    lam_hi = min(mgf * (1.0 - 1e-9), 80.0)

    def curve(lam):
        return (d * (kernel.exp_moment(lam) - 1.0) + fp0) / lam

    s_grid = np.linspace(math.log(1e-4), math.log(lam_hi), 400)
    lam_grid = np.exp(s_grid)
    vals = np.array([curve(l) for l in lam_grid])
    i = int(np.argmin(vals))
    if i == 0 or i == len(vals) - 1:
        raise ConvergenceError("dispersion curve has no interior minimum on the bracket",
                               diagnostics={"argmin": i, "lam": lam_grid[i]})
    from scipy import optimize

    res = optimize.minimize_scalar(lambda s: curve(math.exp(s)),
                                   bracket=(s_grid[i - 1], s_grid[i], s_grid[i + 1]),
                                   method="golden", options={"xtol": 1e-13})
    lam_star = math.exp(res.x)
    return WaveSolution(c_star=float(curve(lam_star)), lambda_star=float(lam_star))


# ---------------------------------------------------------------------------
# stationary half-line profile
# ---------------------------------------------------------------------------


def _far_field_rate(kernel: Kernel, reaction, d: float) -> float | None:
    """kappa with Jhat(kappa) = 1 + |f'(u*)|/d: the decay rate of u* - U."""
    mgf = kernel.mgf_abscissa()
    if not mgf > 0.0:
        return None
    target = 1.0 + abs(float(reaction.f_prime(reaction.u_star))) / d
    hi = min(1.0, mgf / 2.0) if math.isfinite(mgf) else 1.0
    while kernel.exp_moment(hi) < target:
        hi = hi * 2.0 if not math.isfinite(mgf) else 0.5 * (hi + mgf)
        if hi > 1e6 or (math.isfinite(mgf) and mgf - hi < 1e-12):
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kernel.exp_moment(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def stationary_profile(kernel: Kernel, reaction, d: float) -> StationaryProfile:
    """Long-time limit of the half-line dynamics started from u == u*.

    The window [-L, 0] adapts to the far-field decay rate of u* - U so the
    u*-completion past -L stays honest for both tiny and huge d.  Newton
    from U == u*, or the relaxation when the band is too large or Newton is
    rejected; the answer must decrease strictly, as the continuum one does.
    """
    u_star = reaction.u_star
    if not u_star:
        raise ValidationError("stationary_profile needs a reaction with a positive zero")
    kappa = _far_field_rate(kernel, reaction, d)
    scale = kernel.quadrature_scale()
    if kappa is not None:
        # u* - U decays like exp(kappa x); stop the window where the gap is
        # still representable in doubles, else the strict-monotonicity
        # invariant drowns in rounding
        L = float(np.clip(20.0 / kappa, 2.0 * scale, 4000.0))
    else:
        L = 40.0 * min(kernel.interaction_length(), 25.0)
    dx = min(scale / 8.0, (0.1 / kappa) if kappa else math.inf, L / 50.0)
    ps = _ProfileSolver(kernel, reaction, d, L, dx, pinned=False)
    cfg = SemiWaveConfig()
    start = np.full(len(ps.x), float(u_star))
    if ps.fits_band:
        U, _, history, converged = _newton(ps, 0.0, start, 0.0, cfg.residual_tol)
        if converged:
            # Newton from u* finds the maximal discrete solution; if not strict, no fallback helps
            prof = _stationary(ps, U, len(history) - 1, fallback=False)
            if prof.residual <= cfg.residual_tol:
                return prof
    U, sweeps = ps.solve(0.0, start, STATIONARY_STOP, cfg.max_inner)
    prof = _stationary(ps, U, sweeps, fallback=True)
    if prof.residual > cfg.residual_tol:
        raise ConvergenceError(
            "stationary relaxation fallback left a defect above residual_tol",
            diagnostics={"residual": prof.residual, "sweeps": sweeps, "L": ps.L})
    return prof


def _stationary(ps: _ProfileSolver, U, iterations, fallback) -> StationaryProfile:
    """Clamped U and its residual; raises unless U strictly decreases."""
    if not np.all(np.diff(U) < 0.0):
        raise ConvergenceError(
            "stationary profile settled but is not strictly decreasing (a density jump "
            "at the kernel's support edge kinks U beyond what the grid orders at large d)",
            diagnostics={"iterations": iterations, "fallback": fallback, "nodes": len(U),
                         "first_tie": int(np.argmax(np.diff(U) >= 0.0))})
    U = ps.clamp(U)
    return StationaryProfile(x=ps.x, U=U, x0=half_level_point(ps.x, U, ps.u_star / 2.0),
                             d=ps.d, u_star=ps.u_star, iterations=iterations,
                             residual=float(np.max(np.abs(ps.residual(U, 0.0)[ps.free]))),
                             fallback=fallback)


# ---------------------------------------------------------------------------
# level points and mu sweeps
# ---------------------------------------------------------------------------


def half_level_point(x, values, level: float) -> float | None:
    """Unique crossing abscissa of a nonincreasing profile, or None.

    Linear interpolation between grid samples; exact nodes are returned
    untouched.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(x) != len(v) or len(x) < 2:
        raise ContractError("half_level_point needs matching x/value arrays")
    slack = 1e-12 * max(1.0, float(np.max(np.abs(v))))
    if np.any(np.diff(v) > slack):
        raise ContractError("half_level_point requires a nonincreasing profile")
    if level > v[0] + slack or not level >= v[-1]:
        return None
    idx = int(np.flatnonzero(v <= level)[0])
    if idx == 0:
        return float(x[0])
    v0, v1 = v[idx - 1], v[idx]
    if v0 == v1:
        return float(x[idx])
    frac = (v0 - level) / (v0 - v1)
    return float(x[idx - 1] + frac * (x[idx] - x[idx - 1]))


def mu_curve(kernel: Kernel, reaction, d: float, mus,
             cfg: SemiWaveConfig | None = None) -> MuCurve:
    """Per-mu semi-wave solves plus the half-level depth l_mu."""
    mus = np.sort(np.asarray(mus, dtype=float))
    sols = tuple(solve_semiwave(kernel, reaction, d, float(mu), cfg) for mu in mus)
    cross = [half_level_point(s.x, s.phi, s.u_star / 2.0) for s in sols]
    return MuCurve(mu=mus, c=np.array([s.c0 for s in sols]),
                   l=np.array([math.nan if x is None else -x for x in cross]), solutions=sols)
