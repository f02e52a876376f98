"""Semi-wave speeds and profiles, minimal traveling-wave speed, and the
half-line stationary profile.

The semi-wave pair (c0, phi) solves, on a truncated window [-L, 0],

    d * int J(x-y) phi(y) dy - d phi + c phi' + f(phi) = 0,
    phi(-L) = u*,  phi(0) = 0,
    c = mu * int_{-inf}^0 tail_mass(-x) phi(x) dx,

with closed-form completion of all integrals past -L where phi == u*, and
upwind differencing for phi'.  Every profile is one bordered Newton solve
on (phi, c).  At mu = 0 the speed is c = 0 and Newton needs no warm start
from the step u* 1{x < 0}; continuation in mu climbs from there by decades,
each rung seeded with the last.  The ladder climbs, and the window doubles
until c0 settles, on the coarsest grid COARSEN^k * dx that still resolves
the kernel; each finer grid down to dx needs one Newton from the coarser
answer on the accepted window.  Only Newtons at mu on dx run to
NEWTON_TOL; the others only seed and stop at SEED_TOL.  When any of that
fails, dx climbs and doubles itself, and a failure there raises with
every Newton run.  ``mu_curve`` climbs one ladder per grid along its
sorted mus.  An answer counts only if, clamped to a nonincreasing profile
in [0, u*], it still meets ``residual_tol``.  The Jacobian band, whose
kernel rows are filled once per window, is solved directly when it holds
the kernel's reach (a semi-wave reuses its LU for chord steps while they
cut the residual by CHORD_RATIO), and preconditions GMRES when BAND_MAX
cuts it.  The profile exists iff the kernel has a finite first moment;
heavy-tailed kernels raise instead, which is the accelerated-spreading regime.

The stationary profile U is the case c = mu = 0 with no node pinned:
Newton from the supersolution U == u* falls monotonically to the maximal
solution (concave f).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .artifacts import Record
from .errors import (ContractError, ConvergenceError, NoSemiWaveError,
                     NoTravelingWaveError, ValidationError)
from .kernels import Kernel, bisect_bracket
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

# Newton stops once the sup residual is at most NEWTON_TOL * u* or stops
# falling, or after NEWTON_MAX_ITER iterations (not converged).  A Newton
# whose answer only seeds another solve (the mu = 0 start, rungs below mu,
# grids coarser than dx) stops at SEED_TOL * u*, or at residual_tol when
# that is lower: the next Newton starts 1e-3 to 1 off anyway (inexact
# Newton, Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
NEWTON_TOL = 1e-12
SEED_TOL = 1e-8
NEWTON_MAX_ITER = 30
# The Jacobian band reaches as far as the kernel's tail_mass stays above
# BAND_TAIL (the residual keeps every tap), and at most BAND_MAX nodes off
# the diagonal.  A band cut by BAND_MAX preconditions GMRES on the full
# Jacobian instead of being solved directly.
BAND_TAIL = 1e-8
BAND_MAX = 128
# minimal_speed bisects log lam for where the dispersion curve stops falling,
# comparing it at log lam +- LOG_LAM_STEP: rounding then blurs that point by
# about eps / LOG_LAM_STEP, the step's own bias is of order LOG_LAM_STEP^2
LOG_LAM_STEP = 1e-5
# a window doubling that moves c0 by at least this relative amount doubles again
L_RTOL = 1e-4
# The mu ladder and the window doublings run on the coarsest grid
# COARSEN^k * dx whose cells the kernel's quadrature_scale() still spans
# COARSE_MIN_CELLS times; each finer grid down to dx then runs one Newton
# from the coarser answer on the window they accepted.  Measured with the
# uniform kernel (L0 = 20, one thread, 2-vCPU x86 host), a single coarse
# stage at 2 * dx cut a solve at mu = 1 or 100 by 0-10% at 5 coarse cells,
# 10-20% at 8, 25-40% at 10-12.5 and 45-60% at 25; a three-point mu_curve
# lost up to a fifth below 10 cells, broke even at 10 and gained a fifth at
# 12.5.
COARSEN = 2
COARSE_MIN_CELLS = 8
# On a band that holds the kernel's reach, a pinned Newton keeps its LU
# while each (chord) step cuts the sup residual by CHORD_RATIO; a chord step
# that misses is dropped and the band refactored at the current iterate.
# Measured the same way on the default uniform semi-wave, a three-point
# mu_curve and a cosine one at mu = 100, ratios 0.05-0.2 took the same CPU,
# 0.02 or 0.3 3-5% more, and 0 (every step factored) a quarter more.
# Chord steps slowed the GMRES path by 10-20% and gained nothing in the
# unpinned stationary solve, so neither takes them.
CHORD_RATIO = 0.1
# A rejected rung of the mu ladder halves the step in log10 mu; a rung
# rejected at a step of LADDER_MIN_STEP (a factor 1.009 in mu) stops the
# climb.  No solve in the tests or benchmarks rejects any rung.
LADDER_MIN_STEP = 2.0 ** -8


@dataclass(frozen=True)
class SemiWaveConfig:
    dx: float = 0.02
    L0: float | None = None        # default 40 interaction lengths
    max_doublings: int = 3
    residual_tol: ClassVar[float] = 1e-6   # acceptance, stationary profile included

    def __post_init__(self):
        if not (self.dx > 0.0 and (self.L0 is None or self.L0 > 0.0)):
            raise ValidationError("semiwave dx and L0 must be positive")
        if not self.max_doublings >= 0:
            raise ValidationError("semiwave max_doublings must be nonnegative")


def _upwind(phi: np.ndarray, dx: float) -> np.ndarray:
    """Forward differences; the last node repeats its neighbour's."""
    dphi = np.empty_like(phi)
    dphi[:-1] = np.diff(phi) / dx
    dphi[-1] = dphi[-2]
    return dphi


@dataclass(frozen=True)
class SemiWaveSolution(Record):
    c0: float
    x: np.ndarray                  # grid on [-L, 0]
    phi: np.ndarray
    L: float
    dx: float                      # the solver's spacing (x[1] - x[0] rounds it)
    residual: float                # sup-norm defect of the profile equation
    speed_defect: float            # |c0 - mu * flux(phi)|
    u_star: float
    d: float
    mu: float
    newton_iterations: int = 0
    newton_residuals: tuple = ()   # sup residual at the start and after each iteration
    # the doubling check that chose L: the grid's dx, both windows and both c0
    window_check: dict | None = None

    _json_skip = ("x", "phi")       # profile.csv holds the profile

    def phi_at(self, xi):
        """Profile extended by u* on the left and 0 on the right."""
        return np.interp(xi, self.x, self.phi, left=self.u_star, right=0.0)

    def phi_prime(self) -> np.ndarray:
        """The upwind (forward) derivative the solver itself used."""
        return _upwind(self.phi, self.dx)


@dataclass(frozen=True)
class WaveSolution(Record):
    c_star: float
    lambda_star: float


@dataclass(frozen=True)
class StationaryProfile(Record):
    x: np.ndarray
    U: np.ndarray
    x0: float | None               # U(x0) = u*/2, or None when U(0) >= u*/2
    d: float
    u_star: float
    iterations: int                # Newton iterations
    residual: float                # sup-norm defect at the unknown nodes

    _json_skip = ("x", "U")         # stationary.csv holds the profile

    def U_at(self, xq):
        return np.interp(xq, self.x, self.U, left=self.u_star, right=float(self.U[-1]))

    def to_json(self) -> dict:
        return {**super().to_json(), "U0": float(self.U[-1])}


@dataclass(frozen=True)
class MuCurve(Record):
    mu: np.ndarray
    c: np.ndarray
    l: np.ndarray
    solutions: tuple

    _json_skip = ("solutions",)


# ---------------------------------------------------------------------------
# the profile solver: bordered Newton, banded or GMRES
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
        self.pinned = pinned
        self.free = slice(1, -1) if pinned else slice(None)    # the unknown nodes
        reach = self.conv.m
        if not math.isfinite(kernel.support_radius()):
            reach = min(reach, int(math.ceil(kernel.interaction_length(BAND_TAIL) / dx)) + 1)
        reach = min(reach, len(self.x) - (3 if pinned else 1))  # below the unknowns
        self.band = min(reach, BAND_MAX)
        self.cut = self.band < reach

    @cached_property
    def _kernel_band(self):
        """The kernel's rows of the Jacobian in LAPACK band storage, filled
        once per window, and the buffer each Newton iteration factors."""
        mb, m = self.band, self.conv.m
        rows = (self.d * self.dx * self.conv.taps[m - mb:m + mb + 1])[:, None] * self.w[self.free]
        return rows, np.empty((3 * mb + 1, rows.shape[1]), order="F")

    def jacobian_band(self, diagonal, c):
        """The band of the Jacobian in the unknowns: the kernel's rows plus
        ``diagonal`` and c/dx above it.  The buffer is reused by the next call."""
        rows, ab = self._kernel_band
        mb = self.band
        ab[:mb] = 0.0
        ab[mb:] = rows
        ab[2 * mb] += diagonal
        ab[2 * mb - 1, 1:] += c / self.dx
        return ab

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


def _band_lapack():
    """dgbtrf and dgbtrs from scipy's extension ``scipy.linalg._flapack``,
    loaded from its file: importing the ``scipy.linalg`` package would also
    load scipy's array-API layer (numpy.f2py, numpy.testing, email, ...),
    about 24 MiB and 0.3 s.  Registered in sys.modules under its own name, it
    serves every later call and a later ``import scipy.linalg``; an ordinary
    import stands in when the file is not where scipy puts it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy        # on some platforms it sets the bundled BLAS's search path

        paths = (os.path.join(scipy.__path__[0], "linalg", "_flapack" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            importlib.import_module(name)
        else:
            spec = importlib.util.spec_from_file_location(name, path)
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
    module = sys.modules[name]
    return module.dgbtrf, module.dgbtrs


def _newton(ps: _ProfileSolver, mu, phi, c, tol, stop=NEWTON_TOL):
    """Bordered Newton on (phi[ps.free], c) for the profile and speed equations.

    The Jacobian in the unknowns is d dx taps[i-k+m] w_k (w_k the
    trapezoid weight, 0.5 at an unpinned end), plus f'(phi) - d - c/dx on
    the diagonal and c/dx above it.  Its border is the upwind phi' (column)
    and -mu * flux weights (row); dc comes from the scalar Schur complement
    of the banded part, and is 0 when mu = c = 0.  The factored band gives
    the step directly when it holds the kernel's reach; when BAND_MAX cut
    it, the bordered band solve preconditions GMRES on the full Jacobian,
    whose product is the window's convolution of the perturbation (no u*
    completion: the perturbation is 0 past -L).  The band is factored at
    every iterate, except that a pinned, uncut band keeps its factorization
    while each step from it (a chord step) cuts the residual by
    CHORD_RATIO; a chord step that misses is dropped, and the step from the
    band refactored at the same iterate counts whatever it gives.

    Returns phi, c, the sup residual at the start and after each iteration,
    and whether the iteration converged: to stop * u* (or tol when that is
    lower), or to a rounding floor below tol where the residual stopped
    falling (the better iterate is kept).  Above tol a rising residual is
    the usual transient of a rough start.
    """
    mb, free = ps.band, ps.free
    border = -mu * ps.flux_w[free]
    gbtrf, gbtrs = _band_lapack()       # ps.w and every band are float64
    chord = ps.pinned and not ps.cut

    def defects(phi, c):
        r = ps.residual(phi, c)[free]
        g = c - mu * ps.flux(phi)
        return r, g, max(float(np.max(np.abs(r))), abs(g))

    r, g, res = defects(phi, c)
    history, lu = [res], None
    while res > min(stop * ps.u_star, tol):
        if len(history) > NEWTON_MAX_ITER:
            return phi, c, history, False
        fresh = lu is None or not chord
        if fresh:
            fp = ps.reaction.f_prime(phi[free])
            slope = _upwind(phi, ps.dx)[free]
            ab = ps.jacobian_band(fp - ps.d - c / ps.dx, c)
            lu, piv, info = gbtrf(ab, mb, mb, overwrite_ab=True)
            if info:
                return phi, c, history, False
            y_c = gbtrs(lu, mb, mb, slope, piv)[0]
            schur = 1.0 - border @ y_c

        def bordered_solve(v):
            y = gbtrs(lu, mb, mb, v[:-1], piv)[0]
            dc = (v[-1] - border @ y) / schur
            return np.append(y - dc * y_c, dc)

        rhs = np.append(r, g)
        step = (_gmres(ps, fp, slope, border, c, bordered_solve, rhs) if ps.cut
                else bordered_solve(rhs))
        trial = phi.copy()
        trial[free] -= step[:-1]
        c_t = float(c - step[-1])
        r_t, g_t, res_t = defects(trial, c_t)
        if not fresh and not res_t <= CHORD_RATIO * res:
            lu = None               # drop the step and refactor at this iterate
            continue
        history.append(res_t)
        if not math.isfinite(res_t):
            return phi, c, history, False
        if res_t >= res and res <= tol:
            return phi, c, history, True
        phi, c, r, g, res = trial, c_t, r_t, g_t, res_t
    return phi, c, history, True


def _gmres(ps: _ProfileSolver, fp, slope, border, c, precondition, rhs):
    """The bordered Newton step on the full Jacobian, by GMRES."""
    from scipy.sparse.linalg import LinearOperator, gmres

    free, size = ps.free, len(rhs)
    z_full = np.zeros(len(ps.x))

    def jacobian(z):
        z_full[free] = z[:-1]
        jz = ps.d * (ps.conv(z_full * ps.w) - z_full)
        if c:
            jz += c * _upwind(z_full, ps.dx)
        return np.append(jz[free] + fp * z[:-1] + slope * z[-1], border @ z[:-1] + z[-1])

    # scipy's 1e-5 relative tolerance keeps Newton fast; a stalled GMRES stops
    # after NEWTON_MAX_ITER restarts, and the Newton residual judges its step
    step, _ = gmres(LinearOperator((size, size), jacobian), rhs,
                    M=LinearOperator((size, size), precondition), maxiter=NEWTON_MAX_ITER)
    return step


def _newton_solution(ps: _ProfileSolver, mu, phi, c, cfg: SemiWaveConfig, stop, log: list):
    """Newton from (phi, c), stopped at stop * u*, under the acceptance
    check: after the clamp, residual and speed defect within residual_tol.
    The run's grid, window, mu and residual history go onto ``log``."""
    phi, c, history, converged = _newton(ps, mu, phi, c, cfg.residual_tol, stop)
    log.append({"dx": ps.dx, "L": ps.L, "mu": mu, "residuals": list(history)})
    phi = ps.clamp(phi.copy())
    residual = float(np.max(np.abs(ps.residual(phi, c)[ps.free])))
    sol = SemiWaveSolution(c0=c, x=ps.x, phi=phi, L=ps.L, dx=ps.dx, residual=residual,
                           speed_defect=abs(c - mu * ps.flux(phi)), u_star=ps.u_star,
                           d=ps.d, mu=mu, newton_iterations=len(history) - 1,
                           newton_residuals=tuple(history))
    return sol, converged and max(sol.residual, sol.speed_defect) <= cfg.residual_tol


def solve_semiwave(kernel: Kernel, reaction, d: float, mu: float,
                   cfg: SemiWaveConfig | None = None) -> SemiWaveSolution:
    """The unique (c0, phi) pair; raises NoSemiWaveError when (J1) fails."""
    return _semiwave(kernel, reaction, d, mu, cfg or SemiWaveConfig(), {})


def _semiwave(kernel: Kernel, reaction, d: float, mu: float, cfg: SemiWaveConfig, starts: dict):
    """solve_semiwave's answer.  ``starts`` maps a grid spacing to that
    grid's answer on the first window at a smaller mu, where its ladder
    starts (a grid not in it climbs from mu = 0), and takes this mu's.

    The ladder climbs on the first window of the coarsest grid that still
    resolves the kernel, and the window doubles there until c0 moves less
    than L_RTOL.  Each finer grid then runs one Newton from the coarser
    answer on the window that check accepted (nominally L0 * 2^k).  Only
    Newtons at mu on dx run to NEWTON_TOL; the others only seed and stop at
    SEED_TOL.  When any of that raises, dx climbs and doubles itself.
    ConvergenceError carries every Newton run, labelled with its dx, L and
    mu, under ``newton_runs``.
    """
    if not math.isfinite(kernel.first_moment()):
        raise NoSemiWaveError(
            "condition (J1) fails: the kernel has no finite first moment, "
            "spreading is accelerated and no semi-wave exists")
    if not (d > 0.0 and mu > 0.0 and reaction.u_star):
        raise ValidationError("solve_semiwave needs d > 0, mu > 0 and a positive zero u*")
    L0 = cfg.L0 if cfg.L0 is not None else 40.0 * kernel.interaction_length()
    dxs = [cfg.dx]
    while kernel.quadrature_scale() >= COARSE_MIN_CELLS * COARSEN * dxs[0]:
        dxs.insert(0, COARSEN * dxs[0])
    log, stops = [], {cfg.dx: NEWTON_TOL}     # a coarser grid only seeds: SEED_TOL

    def ladder(ps, start):
        """Continuation in mu on ps's grid and window from ``start``, or from
        the step u* 1{x < 0} at mu = c = 0.  Rungs stand whole decades below
        mu, the first the one nearest 0.1/u* (mu itself below about 0.3/u*),
        or whole decades above ``start`` when that is nearer to mu, so the
        last is exactly mu.  A rejected rung halves the step in log10 mu, down
        to LADDER_MIN_STEP."""
        sol, ok = (start, True) if start else _newton_solution(
            ps, 0.0, np.where(ps.x < 0.0, ps.u_star, 0.0), 0.0, cfg, SEED_TOL, log)
        # decades below mu; mu = 0 stands one decade below the first rung
        at, step, rejected = max(round(math.log10(10.0 * mu * ps.u_star)), 0) + 1.0, 1.0, 0
        if sol.mu:
            at = min(at, math.log10(mu / sol.mu))
        while ok and step >= LADDER_MIN_STEP and (nxt := max(at - step, 0.0)) < at:
            trial, accepted = _newton_solution(ps, mu * 10.0 ** -nxt, sol.phi, sol.c0, cfg,
                                               stops.get(ps.dx, SEED_TOL) if nxt == 0.0
                                               else SEED_TOL, log)
            if accepted and nxt == 0.0:
                return trial
            if accepted:
                sol, at = trial, nxt
            else:
                step, rejected = 0.5 * step, rejected + 1
        raise ConvergenceError("semi-wave continuation in mu stalled before reaching mu",
                               diagnostics={"mu": mu, "mu_reached": sol.mu, "L": ps.L,
                                            "rejected_rungs": rejected, "newton_runs": log})

    def seeded(dx, L, seed):
        """Newton on grid dx and window L from an answer on another grid or
        window.  When it is rejected, a doubled window climbs its own ladder
        from mu = 0 and a finer grid raises."""
        ps = _ProfileSolver(kernel, reaction, d, L, dx)
        phi = np.interp(ps.x, seed.x, seed.phi, left=ps.u_star, right=0.0)
        sol, ok = _newton_solution(ps, mu, phi, seed.c0, cfg, stops.get(dx, SEED_TOL), log)
        if ok:
            return sol
        if dx != seed.dx:
            raise ConvergenceError("a finer grid rejected the coarser semi-wave")
        return ladder(ps, None)

    def climb(dx):
        """The ladder on L0 from starts[dx], then the doublings: the answer
        on the accepted window, that window and the check that chose it."""
        sol = starts[dx] = ladder(_ProfileSolver(kernel, reaction, d, L0, dx), starts.get(dx))
        L, check = L0, None
        for _ in range(cfg.max_doublings):
            bigger = seeded(dx, 2.0 * L, sol)
            check = {"dx": dx, "L": [sol.L, bigger.L], "c0": [sol.c0, bigger.c0]}
            if abs(bigger.c0 - sol.c0) < L_RTOL * max(abs(sol.c0), 1e-12):
                break
            sol, L = bigger, 2.0 * L
        return sol, L, check

    for levels in (dxs, [cfg.dx]) if len(dxs) > 1 else (dxs,):
        try:
            sol, L, check = climb(levels[0])
            for dx in levels[1:]:
                sol = seeded(dx, L, sol)
                if L == L0:
                    starts[dx] = sol
            return replace(sol, window_check=check)
        except ConvergenceError:
            if levels[0] == cfg.dx:
                raise


def minimal_speed(kernel: Kernel, reaction, d: float) -> WaveSolution:
    """KPP minimal wave speed c* = min over lam of (d(Jhat(lam)-1)+f'(0))/lam.

    Linear determinacy applies because f(u)/u decreases from f'(0); the
    level-set speed of a whole-line run cross-checks the value in tests.
    The minimum over log lam is where the curve stops falling, found by
    ``bisect_bracket``.
    """
    mgf = kernel.mgf_abscissa()
    if not mgf > 0.0:
        raise NoTravelingWaveError(
            "condition (J2) fails: no finite exponential moment, "
            "the wave problem has no nonincreasing solution")
    fp0 = reaction.fprime0()
    if not fp0 > 0.0:
        raise ValidationError("minimal_speed needs f'(0) > 0")

    # exp(lam r) overflows past lam r ~ 709 for a kernel of support radius r
    r = kernel.support_radius()
    lam_hi = min(mgf * (1.0 - 1e-9), 80.0, 700.0 / r if math.isfinite(r) else math.inf)

    def curve(lam):
        return (d * (kernel.exp_moment(lam) - 1.0) + fp0) / lam

    def falls(s):
        return curve(math.exp(s + LOG_LAM_STEP)) < curve(math.exp(s - LOG_LAM_STEP))

    # lam * curve is convex, so the curve is unimodal in lam and in log lam;
    # the ends keep every lam the search evaluates within [1e-4, lam_hi]
    bounds = (math.log(1e-4), math.log(lam_hi))
    lo, hi = bounds[0] + LOG_LAM_STEP, bounds[1] - LOG_LAM_STEP
    if not lo < hi:
        raise ConvergenceError("the kernel's exponential moments end below the lam bracket",
                               diagnostics={"mgf_abscissa": mgf, "bracket": bounds})
    end = lo if not falls(lo) else hi if falls(hi) else None
    if end is not None:
        raise ConvergenceError("dispersion curve has no interior minimum on the bracket",
                               diagnostics={"lam": math.exp(end), "bracket": bounds})
    lam_star = math.exp(bisect_bracket(falls, lo, hi))
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
    return bisect_bracket(lambda k: kernel.exp_moment(k) < target, 0.0, hi)


def stationary_profile(kernel: Kernel, reaction, d: float) -> StationaryProfile:
    """Long-time limit of the half-line dynamics started from u == u*.

    The window [-L, 0] adapts to the far-field decay rate of u* - U so the
    u*-completion past -L stays honest for both tiny and huge d.  Newton
    from U == u*, a supersolution, falls to the maximal solution; the
    answer must decrease strictly, as the continuum one does.
    """
    u_star = reaction.u_star
    if not (u_star and d > 0.0):
        raise ValidationError("stationary_profile needs d > 0 and a positive zero u*")
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
    tol = SemiWaveConfig.residual_tol
    U, _, history, converged = _newton(ps, 0.0, np.full(len(ps.x), float(u_star)), 0.0, tol)
    diagnostics = {"newton_residuals": history, "nodes": len(U), "L": ps.L}
    if not converged:
        raise ConvergenceError("stationary Newton did not converge", diagnostics=diagnostics)
    # Newton from u* finds the maximal discrete solution, which must be strict
    if not np.all(np.diff(U) < 0.0):
        raise ConvergenceError(
            "stationary profile settled but is not strictly decreasing (a density jump "
            "at the kernel's support edge kinks U beyond what the grid orders at large d)",
            diagnostics={**diagnostics, "first_tie": int(np.argmax(np.diff(U) >= 0.0))})
    U = ps.clamp(U)
    residual = float(np.max(np.abs(ps.residual(U, 0.0))))
    if residual > tol:
        raise ConvergenceError("stationary profile left a defect above residual_tol",
                               diagnostics={**diagnostics, "residual": residual})
    return StationaryProfile(x=ps.x, U=U, x0=half_level_point(ps.x, U, u_star / 2.0), d=d,
                             u_star=u_star, iterations=len(history) - 1, residual=residual)


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
    if v1 == level:
        return float(x[idx])
    frac = (v0 - level) / (v0 - v1)
    return float(x[idx - 1] + frac * (x[idx] - x[idx - 1]))


def mu_curve(kernel: Kernel, reaction, d: float, mus,
             cfg: SemiWaveConfig | None = None) -> MuCurve:
    """Semi-wave solves over the sorted mus plus the half-level depth l_mu.

    One ladder climbs the whole curve: each mu's first window starts from
    the last mu's answers there, and a repeated mu reuses its solution.
    """
    cfg = cfg or SemiWaveConfig()
    mus = np.sort(np.asarray(mus, dtype=float))
    sols, starts = [], {}
    for i, mu in enumerate(mus):
        if i and mu == mus[i - 1]:
            sols.append(sols[-1])
            continue
        sols.append(_semiwave(kernel, reaction, d, float(mu), cfg, starts))
    cross = [half_level_point(s.x, s.phi, s.u_star / 2.0) for s in sols]
    return MuCurve(mu=mus, c=np.array([s.c0 for s in sols]),
                   l=np.array([math.nan if x is None else -x for x in cross]),
                   solutions=tuple(sols))
