"""Semi-wave speeds and profiles, minimal traveling-wave speed, and the
half-line stationary profile.

The semi-wave pair (c0, phi) solves, on a truncated window [-L, 0],

    d * int J(x-y) phi(y) dy - d phi + c phi' + f(phi) = 0,
    phi(-L) = u*,  phi(0) = 0,
    c = mu * int_{-inf}^0 tail_mass(-x) phi(x) dx,

with closed-form completion of all integrals past -L where phi == u*.
The inner problem at a trial speed is relaxed by a damped fixed point with
upwind differencing for phi' and a monotone clamp; the outer scalar
equation is bracketed and bisected (the induced flux decreases in c).
The profile exists iff the kernel has a finite first moment; heavy-tailed
kernels raise instead, which is the accelerated-spreading regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

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


@dataclass(frozen=True)
class SemiWaveConfig:
    dx: float = 0.02
    L0: float | None = None        # default 40 interaction lengths
    max_doublings: int = 3
    L_rtol: float = 1e-4           # c0 movement that forces an L doubling
    inner_tol: float = 1e-11       # sup-norm increment stop, relative to u*
    max_inner: int = 300_000
    c_rtol: float = 1e-9
    residual_tol: float = 1e-6


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

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def phi_at(self, xi):
        """Profile extended by u* on the left and 0 on the right."""
        return np.interp(xi, self.x, self.phi, left=self.u_star, right=0.0)

    def phi_prime(self) -> np.ndarray:
        """The upwind (forward) derivative the solver itself used."""
        dphi = np.empty_like(self.phi)
        dphi[:-1] = np.diff(self.phi) / self.dx
        dphi[-1] = dphi[-2]
        return dphi

    def to_json(self) -> dict:
        return {"c0": self.c0, "L": self.L, "residual": self.residual,
                "speed_defect": self.speed_defect, "u_star": self.u_star,
                "d": self.d, "mu": self.mu, "dx": self.dx}


@dataclass(frozen=True)
class WaveSolution:
    c_star: float
    lambda_star: float
    curve_lambdas: np.ndarray
    curve_values: np.ndarray

    def to_json(self) -> dict:
        return {"c_star": self.c_star, "lambda_star": self.lambda_star}


@dataclass(frozen=True)
class StationaryProfile:
    x: np.ndarray
    U: np.ndarray
    x0: float | None               # U(x0) = u*/2, or None when U(0) >= u*/2
    d: float
    u_star: float
    iterations: int

    def U_at(self, xq):
        return np.interp(xq, self.x, self.U, left=self.u_star, right=float(self.U[-1]))

    def to_json(self) -> dict:
        return {"d": self.d, "x0": self.x0, "U0": float(self.U[-1]),
                "u_star": self.u_star, "iterations": self.iterations}


@dataclass(frozen=True)
class MuCurve:
    mu: np.ndarray
    c: np.ndarray
    l: np.ndarray
    solutions: tuple

    def to_json(self) -> dict:
        return {"mu": self.mu.tolist(), "c": self.c.tolist(), "l": self.l.tolist()}


# ---------------------------------------------------------------------------
# inner profile relaxation
# ---------------------------------------------------------------------------


class _ProfileSolver(FarFieldWindow):
    def __init__(self, kernel: Kernel, reaction, d: float, L: float, dx: float):
        super().__init__(kernel, L, dx, reaction.u_star)
        self.reaction = reaction
        self.d = d
        self.kf = reaction.max_abs_fprime()

    def residual(self, phi, c):
        conv = self.integral(phi)
        dphi = np.empty_like(phi)
        dphi[:-1] = np.diff(phi) / self.dx
        dphi[-1] = dphi[-2]
        return self.d * (conv - phi) + c * dphi + self.reaction.f(phi)

    def solve(self, c, phi0, tol, max_iter):
        tau = 0.8 / (2.0 * self.d + self.kf + c / self.dx)
        phi = phi0.copy()
        tol_abs = tol * self.u_star
        for it in range(max_iter):
            resid = self.residual(phi, c)
            new = phi + tau * resid
            new[0] = self.u_star
            new[-1] = 0.0
            np.clip(new, 0.0, self.u_star, out=new)
            new = np.maximum.accumulate(new[::-1])[::-1]
            delta = float(np.max(np.abs(new - phi)))
            phi = new
            if delta < tol_abs:
                return phi, it + 1
        raise ConvergenceError(
            "semi-wave profile relaxation stagnated",
            diagnostics={"c": c, "delta": delta, "tau": tau, "L": self.L})

    def default_profile(self):
        width = max(2.0, 0.1 * self.L)
        return self.u_star * np.clip(-self.x / width, 0.0, 1.0)


def _solve_at_L(kernel, reaction, d, mu, L, cfg: SemiWaveConfig, phi_seed=None):
    ps = _ProfileSolver(kernel, reaction, d, L, cfg.dx)
    u_star = reaction.u_star
    m1 = kernel.first_moment()
    c_hi = 1.01 * mu * u_star * m1
    c_lo = 1e-12 * c_hi
    phi = ps.default_profile() if phi_seed is None else np.interp(
        ps.x, phi_seed[0], phi_seed[1], left=u_star, right=0.0)
    loose = max(cfg.inner_tol, 1e-9)
    phi, _ = ps.solve(c_lo, phi, loose, cfg.max_inner)
    if mu * ps.flux(phi) <= c_lo:
        raise ConvergenceError("no positive front speed bracketed",
                               diagnostics={"c_lo": c_lo, "flux": ps.flux(phi)})
    lo, hi = c_lo, c_hi
    while (hi - lo) > cfg.c_rtol * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        phi, _ = ps.solve(mid, phi, loose, cfg.max_inner)
        if mu * ps.flux(phi) > mid:
            lo = mid
        else:
            hi = mid
    c0 = 0.5 * (lo + hi)
    phi, _ = ps.solve(c0, phi, cfg.inner_tol, cfg.max_inner)
    resid = ps.residual(phi, c0)
    residual = float(np.max(np.abs(resid[1:-1])))
    defect = abs(c0 - mu * ps.flux(phi))
    return SemiWaveSolution(c0=c0, x=ps.x, phi=phi, L=ps.L, residual=residual,
                            speed_defect=defect, u_star=u_star, d=d, mu=mu)


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
        bigger = _solve_at_L(kernel, reaction, d, mu, 2.0 * sol.L, cfg,
                             phi_seed=(sol.x, sol.phi))
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

    lam_hi = min(mgf * (1.0 - 1e-9), 80.0) if math.isfinite(mgf) else 80.0

    def curve(lam):
        return (d * (kernel.exp_moment(lam) - 1.0) + fp0) / lam

    s_grid = np.linspace(math.log(1e-4), math.log(lam_hi), 400)
    lam_grid = np.exp(s_grid)
    vals = np.array([curve(l) for l in lam_grid])
    i = int(np.argmin(vals))
    if i == 0 or i == len(vals) - 1:
        raise ConvergenceError("dispersion curve has no interior minimum on the bracket",
                               diagnostics={"argmin": i, "lam": lam_grid[i]})
    res = optimize.minimize_scalar(lambda s: curve(math.exp(s)),
                                   bracket=(s_grid[i - 1], s_grid[i], s_grid[i + 1]),
                                   method="golden", options={"xtol": 1e-13})
    lam_star = math.exp(res.x)
    return WaveSolution(c_star=float(curve(lam_star)), lambda_star=float(lam_star),
                        curve_lambdas=lam_grid, curve_values=vals)


# ---------------------------------------------------------------------------
# stationary half-line profile
# ---------------------------------------------------------------------------


def _far_field_rate(kernel: Kernel, reaction, d: float) -> float | None:
    """kappa with Jhat(kappa) = 1 + |f'(u*)|/d: the decay rate of u* - U."""
    if not kernel.mgf_abscissa() > 0.0:
        return None
    target = 1.0 + abs(float(reaction.f_prime(reaction.u_star))) / d
    mgf = kernel.mgf_abscissa()
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


@dataclass(frozen=True)
class StationaryConfig:
    dx: float | None = None
    L: float | None = None
    stop: float = 1e-10            # successive sup-norm change
    max_iter: int = 2_000_000


def stationary_profile(kernel: Kernel, reaction, d: float,
                       cfg: StationaryConfig | None = None) -> StationaryProfile:
    """Long-time limit of the half-line dynamics started from u == u*.

    The window [-L, 0] adapts to the far-field decay rate of u* - U so the
    u*-completion past -L stays honest for both tiny and huge d.
    """
    cfg = cfg or StationaryConfig()
    u_star = reaction.u_star
    if not u_star:
        raise ValidationError("stationary_profile needs a reaction with a positive zero")
    kappa = _far_field_rate(kernel, reaction, d)
    scale = kernel.quadrature_scale()
    if cfg.L is not None:
        L = cfg.L
    elif kappa is not None:
        # u* - U decays like exp(kappa x); stop the window where the gap is
        # still representable in doubles, else the strict-monotonicity
        # invariant drowns in rounding
        L = float(np.clip(20.0 / kappa, 2.0 * scale, 4000.0))
    else:
        L = 40.0 * min(kernel.interaction_length(), 25.0)
    dx = cfg.dx if cfg.dx is not None else min(scale / 8.0,
                                               (0.1 / kappa) if kappa else math.inf,
                                               L / 50.0)
    window = FarFieldWindow(kernel, L, dx, u_star)
    x = window.x
    kf = reaction.max_abs_fprime()
    tau = 0.9 / (2.0 * d + kf)

    u = np.full(len(x), float(u_star))
    it = 0
    settled_at = None
    for it in range(1, cfg.max_iter + 1):
        new = u + tau * (d * (window.integral(u) - u) + reaction.f(u))
        np.clip(new, 0.0, u_star, out=new)
        delta = float(np.max(np.abs(new - u)))
        u = new
        if delta < cfg.stop:
            # converged; keep polishing briefly until slow-mode remnants stop
            # shadowing the tiny far-field gaps of the strict-decrease invariant
            settled_at = settled_at or it
            if np.all(np.diff(u) < 0.0):
                break
            if it - settled_at > 50_000:
                raise ConvergenceError(
                    "stationary profile settled but is not strictly decreasing "
                    "(kernels with a density jump at the support edge induce an "
                    "interior kink in U that the grid cannot order at large d)",
                    diagnostics={"delta": delta, "iterations": it})
    else:
        raise ConvergenceError("stationary profile did not settle",
                               diagnostics={"delta": delta, "iterations": it,
                                            "strict": bool(np.all(np.diff(u) < 0.0))})
    x0 = half_level_point(x, u, u_star / 2.0)
    return StationaryProfile(x=x, U=u, x0=x0, d=d, u_star=u_star, iterations=it)


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
    if level > v[0] + slack or level < v[-1] - slack:
        return None
    idx = int(np.nonzero(v <= level + 0.0)[0][0]) if np.any(v <= level) else None
    if idx is None:
        return None
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
    sols = []
    cs = []
    ls = []
    for mu in mus:
        sol = solve_semiwave(kernel, reaction, d, float(mu), cfg)
        cross = half_level_point(sol.x, sol.phi, sol.u_star / 2.0)
        sols.append(sol)
        cs.append(sol.c0)
        ls.append(-cross if cross is not None else math.nan)
    return MuCurve(mu=mus, c=np.asarray(cs), l=np.asarray(ls), solutions=tuple(sols))
