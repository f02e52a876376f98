import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from nlfront import semiwave
from nlfront.errors import (ContractError, ConvergenceError, NoSemiWaveError,
                            NoTravelingWaveError, ValidationError)
from nlfront.kernels import (AlgebraicTail, CompactCosine, CompactUniform, LightExponential,
                             truncate)
from nlfront.reactions import logistic
from nlfront.semiwave import (SemiWaveConfig, half_level_point, minimal_speed,
                              mu_curve, solve_semiwave, stationary_profile)

# frozen oracle: fine lambda-grid scan of sinh(l)/l^2 (2e7 points)
CSTAR_UNIFORM = 0.90526173936906
LSTAR_UNIFORM = 1.9150078


def test_no_semiwave_for_heavy_tail():
    with pytest.raises(NoSemiWaveError, match="J1"):
        solve_semiwave(AlgebraicTail(1.5, 1.0), logistic(1, 1), 1.0, 1.0)


def test_semiwave_contract():
    with pytest.raises(ValidationError):
        solve_semiwave(CompactUniform(1.0), logistic(1, 1), d=-1.0, mu=1.0)


@pytest.mark.parametrize("d", [0.0, -1.0])
def test_stationary_profile_contract(d):
    # d <= 0 is refused as solve_semiwave refuses it, before any window is set
    with pytest.raises(ValidationError, match="d > 0"):
        stationary_profile(CompactUniform(1.0), logistic(1, 1), d)


@pytest.mark.parametrize("field,value", [
    ("dx", 0.0), ("dx", -0.02), ("dx", math.nan), ("L0", 0.0), ("L0", -5.0),
    ("max_doublings", -1), ("residual_tol", 0.0), ("residual_tol", -1.0),
])
def test_semiwave_config_validates(field, value):
    # refused on construction: no solve runs, since a dx <= 0 never stops
    # coarsening and an L0 <= 0 leaves no window; residual_tol is a class
    # constant, so a caller cannot set it at all
    error = TypeError if field == "residual_tol" else ValidationError
    with pytest.raises(error, match=field):
        SemiWaveConfig(**{field: value})


def test_minimal_speed_uniform_matches_scan_oracle():
    ws = minimal_speed(CompactUniform(1.0), logistic(1, 1), 1.0)
    assert ws.c_star == pytest.approx(CSTAR_UNIFORM, abs=1e-6)
    assert ws.lambda_star == pytest.approx(LSTAR_UNIFORM, abs=1e-4)


def test_minimal_speed_exponential_closed_form():
    # Jhat(l) = 1/(1-l^2): the curve is 1/(l - l^3), minimized at l = 1/sqrt(3)
    ws = minimal_speed(LightExponential(1.0), logistic(1, 1), 1.0)
    assert ws.lambda_star == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-8)
    assert ws.c_star == pytest.approx(1.5 * math.sqrt(3.0), rel=1e-8)


def test_minimal_speed_requires_J2():
    with pytest.raises(NoTravelingWaveError, match="J2"):
        minimal_speed(AlgebraicTail(2.5, 1.0), logistic(1, 1), 1.0)


def test_minimal_speed_monotone_in_growth_rate():
    k = CompactUniform(1.0)
    c1 = minimal_speed(k, logistic(1, 1), 1.0).c_star
    c4 = minimal_speed(k, logistic(4, 4), 1.0).c_star
    assert c4 > c1


def test_semiwave_solution_invariants(uniform_semiwave):
    sw = uniform_semiwave
    assert sw.c0 > 0.0
    assert sw.phi[-1] == 0.0
    assert sw.phi[0] == pytest.approx(sw.u_star)
    assert np.all(np.diff(sw.phi) <= 0.0)
    assert np.all((0.0 <= sw.phi) & (sw.phi <= sw.u_star))
    assert sw.residual <= 1e-6
    assert sw.speed_defect <= 1e-6


def test_semiwave_truncated_kernel():
    # a truncated kernel has compact support, so the far-field flux tail is finite
    cfg = SemiWaveConfig(dx=0.05, L0=20.0, max_doublings=0)
    sw = solve_semiwave(truncate(LightExponential(1.0), 4.0), logistic(1, 1), 1.0, 1.0, cfg)
    assert math.isfinite(sw.c0) and sw.c0 > 0.0
    assert sw.residual <= cfg.residual_tol


def test_semiwave_below_minimal_speed(uniform_semiwave):
    assert uniform_semiwave.c0 < CSTAR_UNIFORM


COARSE = SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0)


@pytest.mark.parametrize("kernel,mu,cfg", [
    (CompactUniform(1.0), 0.01, COARSE),
    (CompactUniform(1.0), 1.0, COARSE),
    (CompactUniform(1.0), 100.0, COARSE),
    (CompactCosine(1.0), 1.0, COARSE),
    (LightExponential(1.0), 1.0, SemiWaveConfig(dx=0.1, max_doublings=0)),
], ids=["uniform-mu0.01", "uniform-mu1", "uniform-mu100", "cosine", "exponential"])
def test_semiwave_speed_stays_below_minimal_speed(kernel, mu, cfg):
    # a posteriori: the free boundary slows the front, 0 < c0 < c* for every mu
    c0 = solve_semiwave(kernel, logistic(1, 1), 1.0, mu, cfg).c0
    assert 0.0 < c0 < minimal_speed(kernel, logistic(1, 1), 1.0).c_star


def test_semiwave_truncation_insensitive(uniform_semiwave, coarse_swcfg):
    base = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0,
                          SemiWaveConfig(dx=0.02, L0=80.0, max_doublings=0))
    doubled = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0,
                             SemiWaveConfig(dx=0.02, L0=160.0, max_doublings=0))
    assert abs(base.c0 - doubled.c0) < 1e-4


def test_mu_curve_monotone(coarse_swcfg):
    mc = mu_curve(CompactUniform(1.0), logistic(1, 1), 1.0, [2.0, 0.5, 1.0],
                  coarse_swcfg)
    assert list(mc.mu) == [0.5, 1.0, 2.0]
    assert np.all(np.diff(mc.c) > 0.0)
    assert np.all(np.diff(mc.l) > 0.0)


def test_half_level_point_examples():
    x = np.array([-2.0, -1.0, 0.0])
    v = np.array([1.0, 0.5, 0.0])
    assert half_level_point(x, v, 0.5) == pytest.approx(-1.0)
    assert half_level_point(x, v, 0.75) == pytest.approx(-1.5)
    assert half_level_point(x, v, 2.0) is None
    # a node at the level comes back exactly, not interpolated to a rounded copy
    assert half_level_point(np.array([-0.3, 0.1]), np.array([1.0, 0.5]), 0.5) == 0.1
    with pytest.raises(ContractError):
        half_level_point(x, v[::-1], 0.5)


def test_stationary_profile_d_family(cosine_kernel, logistic_reaction):
    profs = {d: stationary_profile(cosine_kernel, logistic_reaction, d)
             for d in (0.1, 1.0, 10.0)}
    for prof in profs.values():
        assert np.all(np.diff(prof.U) < 0.0)
        assert np.all((0.0 < prof.U) & (prof.U < prof.u_star))
    xs = np.linspace(-2.0, 0.0, 101)
    assert np.all(profs[0.1].U_at(xs) >= profs[1.0].U_at(xs) - 1e-12)
    assert np.all(profs[1.0].U_at(xs) >= profs[10.0].U_at(xs) - 1e-12)
    assert profs[0.1].U[-1] > 0.5     # small d: U(0) above u*/2, no crossing
    assert profs[0.1].x0 is None
    assert profs[10.0].U[-1] < 0.5    # large d: crossing exists
    assert profs[10.0].x0 is not None and profs[10.0].x0 < 0.0


CROSS_CFG = SemiWaveConfig(dx=0.05, L0=20.0, max_doublings=0)


# the relaxation oracle: a damped fixed point with the monotone clamp, and a
# bisection on c around it (the induced flux decreases in c) ------------------


def _relax(ps, c, phi, tol, max_iter=300_000):
    """Sweep phi to a sup-norm increment below tol * u* at the speed c."""
    tau = 0.8 / (2.0 * ps.d + ps.reaction.max_abs_fprime() + c / ps.dx)
    for _ in range(max_iter):
        new = ps.clamp(phi + tau * ps.residual(phi, c))
        delta = float(np.max(np.abs(new - phi)))
        phi = new
        if delta < tol * ps.u_star:
            return phi
    raise AssertionError(f"relaxation oracle stagnated at c = {c}, delta = {delta}")


def _relaxation_answer(kernel):
    """At d = mu = 1 on CROSS_CFG's window: c0 bisected to 1e-9 relative
    with sweeps to 1e-9, then phi swept to 1e-11."""
    ps = semiwave._ProfileSolver(kernel, logistic(1, 1), 1.0, CROSS_CFG.L0, CROSS_CFG.dx)
    phi = ps.u_star * np.clip(-ps.x / max(2.0, 0.1 * ps.L), 0.0, 1.0)
    hi = 1.01 * ps.u_star * kernel.first_moment()
    lo = 1e-12 * hi
    phi = _relax(ps, lo, phi, 1e-9)
    assert ps.flux(phi) > lo, "no positive front speed bracketed"
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        phi = _relax(ps, mid, phi, 1e-9)
        if ps.flux(phi) > mid:
            lo = mid
        else:
            hi = mid
    c0 = 0.5 * (lo + hi)
    return c0, _relax(ps, c0, phi, 1e-11)


@pytest.mark.parametrize("kernel", [CompactUniform(1.0), CompactCosine(1.0),
                                    truncate(LightExponential(1.0), 4.0),
                                    LightExponential(1.0), AlgebraicTail(2.5, 1.0)],
                         ids=["uniform", "cosine", "truncated", "exponential", "algebraic"])
def test_newton_matches_relaxation(kernel):
    # at dx = 0.05 the truncated, exponential and algebraic bands are cut: GMRES
    sol = solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    c0, phi = _relaxation_answer(kernel)
    assert 1 <= sol.newton_iterations <= 10
    assert len(sol.newton_residuals) == sol.newton_iterations + 1
    assert sol.residual <= CROSS_CFG.residual_tol
    assert sol.c0 == pytest.approx(c0, rel=1e-7)
    assert np.max(np.abs(sol.phi - phi)) <= 1e-6 * sol.u_star
    report = sol.to_json()
    assert "fallback" not in report
    assert report["newton_residuals"] == list(sol.newton_residuals)


def test_exponential_default_config_runs_newton(monkeypatch):
    # the kernel reaches 888 nodes, so BAND_MAX cuts the band and GMRES
    # solves; the relaxation gave 0.271209555186
    sizes = _count_factorizations(monkeypatch)
    kernel = LightExponential(1.0)
    sol = solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0)
    assert sol.newton_iterations >= 1
    assert sol.c0 == pytest.approx(0.271209555186, rel=1e-7)
    # the ladder and the doubling check run at 4 dx (3106 unknowns) and
    # accept the first window, 40 interaction lengths; the grids at 2 dx and
    # dx (6214 and 12428 unknowns) factor at most 7 times (22 when the
    # ladder climbed at 2 dx), and the doubled window on dx (24857) never
    assert sol.L == pytest.approx(40.0 * kernel.interaction_length(), abs=SemiWaveConfig.dx)
    assert min(sizes) == 3106 and 3 <= sum(n >= 6214 for n in sizes) <= 7
    assert max(sizes) == 12428 and 24857 not in sizes


@pytest.mark.parametrize("spurious", ["non-monotone", "high-residual"])
def test_rejected_newton_raises(monkeypatch, spurious):
    # a spurious root flagged as converged fails the acceptance check at
    # mu = 0, so the continuation raises instead of returning it
    def fake_newton(ps, mu, phi, c, *args, **kwargs):
        bad = ps.u_star * np.clip(-ps.x / 2.0, 0.0, 1.0)
        if spurious == "non-monotone":
            bad[len(bad) // 2] = 0.5 * ps.u_star * (1.0 + 1e-3)
            bad[len(bad) // 2 + 1] = ps.u_star
        return bad, 0.5 * c, [1.0, 1e-13], True

    monkeypatch.setattr(semiwave, "_newton", fake_newton)
    with pytest.raises(ConvergenceError, match="continuation") as err:
        solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    assert err.value.diagnostics["mu_reached"] == 0.0
    # each grid's start at mu = 0 is rejected, the coarser grid's first
    runs = err.value.diagnostics["newton_runs"]
    assert [(r["dx"], r["L"], r["mu"], r["residuals"]) for r in runs] == [
        (dx, 20.0, 0.0, [1.0, 1e-13]) for dx in (semiwave.COARSEN * CROSS_CFG.dx, CROSS_CFG.dx)]


def test_stalled_continuation_raises_with_histories(monkeypatch):
    # Newton rejected above mu = 0.05: the log-step halves down to
    # LADDER_MIN_STEP, and every rung's residual history is reported with
    # its grid, window and mu
    newton = semiwave._newton

    def failing_above(ps, mu, phi, c, *args, **kwargs):
        return newton(ps, mu, phi, c, *args, **kwargs) if mu <= 0.05 else (phi, c, [1.0], False)

    monkeypatch.setattr(semiwave, "_newton", failing_above)
    with pytest.raises(ConvergenceError, match="continuation") as err:
        solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    diag = err.value.diagnostics
    assert 0.04 < diag["mu_reached"] <= 0.05
    # the rungs at steps 1, 1/2, ..., LADDER_MIN_STEP are rejected, each
    # after one accepted rung
    assert diag["rejected_rungs"] == 1 - math.log2(semiwave.LADDER_MIN_STEP)
    fine = [r["residuals"] for r in diag["newton_runs"] if r["dx"] == CROSS_CFG.dx]
    assert [1.0] in fine and len(fine) <= 3 + 2 * diag["rejected_rungs"]
    assert all(r["mu"] > 0.05 for r in diag["newton_runs"] if r["residuals"] == [1.0])


@pytest.mark.parametrize("stage", ["coarse-seed", "doubled-window"])
def test_rejected_seeded_newton_is_reported(monkeypatch, stage):
    # Newton is rejected at mu = 1 either on the fine grid, or on the doubled
    # window of every grid: the seeded attempt on the fine grid (from the
    # coarse answer, or from the shorter window's) and the continuation
    # after it both fail, and the error reports each run by grid, window
    # and mu.  A rejected doubling on the coarse grid sends the fine grid up
    # its own ladder and doubling.
    cfg = SemiWaveConfig(dx=0.05, L0=20.0, max_doublings=1)
    newton, calls = semiwave._newton, []

    def failing_on_window(ps, mu, phi, c, *args, **kwargs):
        calls.append((ps.dx, ps.L, mu))
        window = ps.L > 30.0 if stage == "doubled-window" else ps.dx == cfg.dx
        if mu == 1.0 and window:
            return phi, c, [2.0], False
        return newton(ps, mu, phi, c, *args, **kwargs)

    monkeypatch.setattr(semiwave, "_newton", failing_on_window)
    with pytest.raises(ConvergenceError, match="continuation") as err:
        solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, cfg)
    diag = err.value.diagnostics
    runs = [(r["dx"], r["L"], r["mu"], r["residuals"]) for r in diag["newton_runs"]]
    # each ladder stops after its rung at mu is rejected 9 times
    assert diag["rejected_rungs"] == 1 - math.log2(semiwave.LADDER_MIN_STEP)
    assert len(calls) == len(runs) <= (24 if stage == "coarse-seed" else 46)
    coarse = [h for dx, _, _, h in runs if dx > cfg.dx]
    # on dx: the rejected seeded Newton at mu, then a ladder from mu = 0
    # on that window whose rung at mu is rejected too
    fine = [(L, mu, h) for dx, L, mu, h in runs if dx == cfg.dx]
    window = 40.0 if stage == "doubled-window" else 20.0
    seeded = fine.index((window, 1.0, [2.0]))
    assert fine[seeded + 1][:2] == (window, 0.0)
    assert (window, 1.0, [2.0]) in fine[seeded + 2:] and diag["mu_reached"] < 1.0
    if stage == "coarse-seed":
        assert seeded == 0
        assert len(coarse) >= 2 and all(min(h) <= cfg.residual_tol for h in coarse)
    else:
        # the coarse doubling's seeded Newton and its ladder's rung at mu
        assert coarse.count([2.0]) >= 2
        assert (cfg.dx, 20.0, 1.0) in calls and (cfg.dx, 40.0, 1.0) in calls


def _spy_newton(monkeypatch):
    """Record (dx, mu) of every Newton solve and pass it through."""
    calls, newton = [], semiwave._newton

    def spy(ps, mu, phi, c, *args, **kwargs):
        calls.append((ps.dx, mu))
        return newton(ps, mu, phi, c, *args, **kwargs)

    monkeypatch.setattr(semiwave, "_newton", spy)
    return calls


@pytest.mark.parametrize("kernel,mu,cfg", [
    (CompactUniform(1.0), 0.01, COARSE),
    (CompactUniform(1.0), 1.0, COARSE),
    (CompactUniform(1.0), 100.0, COARSE),
    (CompactCosine(1.0), 1.0, COARSE),
    (LightExponential(1.0), 1.0, SemiWaveConfig(dx=0.05, L0=40.0, max_doublings=0)),
], ids=["uniform-mu0.01", "uniform-mu1", "uniform-mu100", "cosine", "exponential"])
def test_coarse_stage_matches_fine_ladder(monkeypatch, kernel, mu, cfg):
    # the exponential band is cut on both grids, so GMRES solves there
    fine = _fine_ladder(monkeypatch, kernel, mu, cfg)
    calls = _spy_newton(monkeypatch)
    sol = solve_semiwave(kernel, logistic(1, 1), 1.0, mu, cfg)
    assert (semiwave.COARSEN * cfg.dx, mu) in calls
    assert [call for call in calls if call[0] == cfg.dx] == [(cfg.dx, mu)]
    assert sol.c0 == pytest.approx(fine.c0, rel=1e-10, abs=0.0)
    assert np.max(np.abs(sol.phi - fine.phi)) <= 1e-9 * sol.u_star


def _fine_ladder(monkeypatch, kernel, mu, cfg):
    """The answer of the ladder and doublings on dx alone: no grid is coarse
    enough to resolve the kernel COARSE_MIN_CELLS = inf times."""
    with monkeypatch.context() as patch:
        patch.setattr(semiwave, "COARSE_MIN_CELLS", math.inf)
        return solve_semiwave(kernel, logistic(1, 1), 1.0, mu, cfg)


def test_coarse_stage_failure_falls_back_to_the_fine_ladder(monkeypatch):
    newton = semiwave._newton

    def failing_when_coarse(ps, mu, phi, c, *args, **kwargs):
        if ps.dx > COARSE.dx:
            return phi, c, [1.0], False
        return newton(ps, mu, phi, c, *args, **kwargs)

    fine = _fine_ladder(monkeypatch, CompactUniform(1.0), 1.0, COARSE)
    monkeypatch.setattr(semiwave, "_newton", failing_when_coarse)
    sol = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, COARSE)
    assert sol.c0 == fine.c0 and np.array_equal(sol.phi, fine.phi)


def test_mu_curve_climbs_one_ladder(monkeypatch):
    cfg = SemiWaveConfig(dx=0.02, L0=20.0, max_doublings=1)
    mus = [1.0, 0.01, 100.0, 1.0]
    single = {mu: solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, mu, cfg)
              for mu in set(mus)}
    calls = _spy_newton(monkeypatch)
    mc = mu_curve(CompactUniform(1.0), logistic(1, 1), 1.0, mus, cfg)
    assert list(mc.mu) == sorted(mus)
    assert mc.solutions[1] is mc.solutions[2]
    # one solve at mu = 0 for the whole curve, not one per mu, on the
    # coarsest grid that spans 8 cells of the kernel: 4 dx
    assert [call for call in calls if call[1] == 0.0] == [(semiwave.COARSEN ** 2 * cfg.dx, 0.0)]
    for mu, sol in zip(mc.mu, mc.solutions):
        assert sol.mu == mu
        assert sol.c0 == pytest.approx(single[mu].c0, rel=1e-10, abs=0.0)
        assert np.max(np.abs(sol.phi - single[mu].phi)) <= 1e-9 * sol.u_star


def _count_factorizations(monkeypatch):
    """The number of unknowns of every band factorization, in call order."""
    sizes, (dgbtrf, dgbtrs) = [], semiwave._band_lapack()

    def gbtrf(ab, *a, **k):
        sizes.append(ab.shape[1])
        return dgbtrf(ab, *a, **k)

    monkeypatch.setattr(semiwave, "_band_lapack", lambda: (gbtrf, dgbtrs))
    return sizes


def test_semiwave_factorization_budget(monkeypatch):
    # the default uniform semi-wave climbs and checks its window at 4 dx and
    # factors its Jacobian once on the 1999-unknown grid (18 factorizations
    # when every rung ran there, 4 with a single coarse stage at 2 dx); the
    # window [-40, 0] at dx = 0.02 is returned, [-80, 0] is never solved there
    sizes = _count_factorizations(monkeypatch)
    sol = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0)
    assert sol.L == 40.0 and sol.dx == 0.02
    assert min(sizes) == 499
    assert [n for n in sizes if n >= 1999] == [1999]


@pytest.mark.parametrize("kernel,cfg", [
    (CompactUniform(1.0), SemiWaveConfig()),
    (CompactCosine(1.0), SemiWaveConfig()),
    (LightExponential(1.0), SemiWaveConfig(dx=0.05, L0=20.0)),
], ids=["uniform", "cosine", "exponential"])
def test_window_is_chosen_on_the_coarsest_grid(monkeypatch, kernel, cfg):
    # the doubling check runs where the ladder climbed; dx solves only the
    # window it accepted, and a longer window there moves c0 by rounding
    newton, calls = semiwave._newton, []

    def spy(ps, mu, phi, c, *args, **kwargs):
        calls.append((ps.dx, ps.L))
        return newton(ps, mu, phi, c, *args, **kwargs)

    monkeypatch.setattr(semiwave, "_newton", spy)
    sol = solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0, cfg)
    monkeypatch.undo()
    assert {L for dx, L in calls if dx == cfg.dx} == {sol.L}
    check = json.loads(json.dumps(sol.to_json()))["window_check"]
    assert check["dx"] > cfg.dx and (check["dx"], check["L"][1]) in calls
    assert check["L"][0] == pytest.approx(sol.L, abs=check["dx"])
    assert check["L"][1] == pytest.approx(2.0 * check["L"][0], abs=check["dx"])
    assert abs(check["c0"][1] - check["c0"][0]) < semiwave.L_RTOL * check["c0"][0]
    longer = solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0,
                            replace(cfg, L0=2.0 * sol.L, max_doublings=0))
    assert sol.c0 == pytest.approx(longer.c0, rel=1e-10, abs=0.0)


def test_a_doubled_window_is_accepted_when_the_next_agrees():
    # L0 = 1.5 is too short: c0 moves on doubling to 3, then agrees with 6
    cfg = SemiWaveConfig(dx=0.05, L0=1.5, max_doublings=3)
    sol = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, cfg)
    assert sol.L == 3.0 and sol.window_check["L"] == [3.0, 6.0]
    direct = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0,
                            replace(cfg, L0=3.0, max_doublings=0))
    assert sol.c0 == pytest.approx(direct.c0, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("u_star", [1.0, 250.0])
def test_only_seeds_stop_at_seed_tol(monkeypatch, u_star):
    # seeds stop at SEED_TOL * u* (at residual_tol when that is lower, as at
    # u* = 250), every answer at NEWTON_TOL * u* or at a rounding floor
    reaction, cfg = logistic(1.0, 1.0 / u_star), COARSE
    answers = [solve_semiwave(kernel, reaction, 1.0, 1.0, cfg)
               for kernel in (CompactUniform(1.0), CompactCosine(1.0))]
    answers += mu_curve(CompactUniform(1.0), reaction, 1.0, [0.1, 10.0], cfg).solutions
    for sol in answers:
        h = sol.newton_residuals
        floor = h[-2] <= h[-1] and h[-2] <= cfg.residual_tol
        assert h[-1] <= semiwave.NEWTON_TOL * u_star or floor
    newton = semiwave._newton

    def failing_on_dx(ps, mu, phi, c, *args, **kwargs):
        if ps.dx == cfg.dx:
            return phi, c, [2.0], False
        return newton(ps, mu, phi, c, *args, **kwargs)

    monkeypatch.setattr(semiwave, "_newton", failing_on_dx)
    with pytest.raises(ConvergenceError) as err:
        solve_semiwave(CompactUniform(1.0), reaction, 1.0, 1.0, cfg)
    runs = err.value.diagnostics["newton_runs"]
    seeds = [r["residuals"] for r in runs if r["dx"] > cfg.dx]
    stop = min(semiwave.SEED_TOL * u_star, cfg.residual_tol)
    assert all(h[-1] <= stop for h in seeds)
    assert any(h[-1] > semiwave.NEWTON_TOL * u_star for h in seeds)


def test_solution_keeps_the_solvers_spacing(uniform_semiwave):
    # x[1] - x[0] is 0.01999999999999602 on the default grid
    cfg = SemiWaveConfig()
    sw = uniform_semiwave
    assert sw.dx == cfg.dx and sw.to_json()["dx"] == cfg.dx
    assert sw.phi_prime().tobytes() == semiwave._upwind(sw.phi, cfg.dx).tobytes()


@pytest.mark.parametrize("kernel", [CompactUniform(1.0), CompactCosine(1.0)],
                         ids=["uniform", "cosine"])
@pytest.mark.parametrize("mu", [0.01, 1.0, 100.0])
def test_chord_steps_match_full_newton(monkeypatch, kernel, mu):
    sizes = _count_factorizations(monkeypatch)
    chord = solve_semiwave(kernel, logistic(1, 1), 1.0, mu, COARSE)
    chord_factorizations = len(sizes)
    # no step meets a ratio of 0, so every step factors fresh: full Newton
    monkeypatch.setattr(semiwave, "CHORD_RATIO", 0.0)
    full = solve_semiwave(kernel, logistic(1, 1), 1.0, mu, COARSE)
    assert len(sizes) - chord_factorizations > chord_factorizations
    assert chord.c0 == pytest.approx(full.c0, rel=1e-12, abs=0.0)
    assert np.max(np.abs(chord.phi - full.phi)) <= 1e-10 * chord.u_star


@pytest.mark.parametrize("kernel,pinned", [(LightExponential(1.0), True),
                                           (AlgebraicTail(2.5, 1.0), True),
                                           (CompactCosine(1.0), False)],
                         ids=["exponential", "algebraic", "cosine-stationary"])
def test_cut_or_unpinned_newton_factors_every_step(monkeypatch, kernel, pinned):
    # chord steps run only on a pinned band that holds the kernel's reach
    sizes = _count_factorizations(monkeypatch)
    steps, newton = [], semiwave._newton

    def spy(ps, mu, phi, c, *args, **kwargs):
        assert ps.cut == pinned and ps.pinned == pinned
        out = newton(ps, mu, phi, c, *args, **kwargs)
        steps.append(len(out[2]) - 1)
        return out

    monkeypatch.setattr(semiwave, "_newton", spy)
    if pinned:
        solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    else:
        stationary_profile(kernel, logistic(1, 1), 1.0)
    assert sum(steps) >= 3 and len(sizes) == sum(steps)


# stationary profile: the c = 0, unpinned case of the same solver ---------------


def _stationary_relaxation(kernel, d, prof):
    """The relaxation oracle at c = 0 on the window stationary_profile chose."""
    ps = semiwave._ProfileSolver(kernel, logistic(1, 1), d, -prof.x[0], prof.x[1] - prof.x[0],
                                 pinned=False)
    assert np.allclose(ps.x, prof.x, rtol=0.0, atol=1e-12)
    return _relax(ps, 0.0, np.full(len(ps.x), ps.u_star), 1e-10)


@pytest.mark.parametrize("kernel, d", [(CompactCosine(1.0), 1.0), (CompactCosine(1.0), 100.0),
                                       (LightExponential(1.0), 1.0)],
                         ids=["cosine-d1", "cosine-d100", "exponential-d1"])
def test_stationary_newton_matches_relaxation(kernel, d):
    prof = stationary_profile(kernel, logistic(1, 1), d)
    assert 1 <= prof.iterations <= 10
    assert prof.residual <= SemiWaveConfig().residual_tol
    assert np.all(np.diff(prof.U) < 0.0) and prof.U[0] < prof.u_star
    U = _stationary_relaxation(kernel, d, prof)
    assert np.max(np.abs(prof.U - U)) <= 1e-6 * prof.u_star
    report = prof.to_json()
    assert "fallback" not in report and report["residual"] == prof.residual


def test_stationary_heavy_tail_solves_by_gmres():
    # the taps span the window, so the band is cut and GMRES solves each
    # Newton step
    prof = stationary_profile(AlgebraicTail(1.5, 1.0), logistic(1, 1), 1.0)
    assert prof.iterations >= 1
    assert np.all(np.diff(prof.U) < 0.0)
    assert prof.U[-1] == pytest.approx(0.6301018943754649, rel=1e-6)


def test_stationary_rejected_newton_raises(monkeypatch):
    monkeypatch.setattr(semiwave, "_newton",
                        lambda ps, mu, phi, c, tol: (phi, c, [1.0, 2.0], False))
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        stationary_profile(CompactCosine(1.0), logistic(1, 1), 1.0)
    assert err.value.diagnostics["newton_residuals"] == [1.0, 2.0]


def test_stationary_non_strict_discrete_profile_raises():
    # the uniform kernel's density jump puts a kink in U near x = -1 at large d
    with pytest.raises(ConvergenceError, match="not strictly decreasing") as err:
        stationary_profile(CompactUniform(1.0), logistic(1, 1), 1e3)
    assert len(err.value.diagnostics["newton_residuals"]) >= 2


def test_stationary_profile_truncated_kernel():
    prof = stationary_profile(truncate(LightExponential(1.0), 4.0), logistic(1, 1), 1.0)
    assert prof.iterations >= 1
    assert np.all(np.diff(prof.U) < 0.0)


def test_minimal_speed_truncated_below_untruncated():
    # J_n <= J, so every exponential moment and the dispersion curve drop
    base = minimal_speed(LightExponential(1.0), logistic(1, 1), 1.0).c_star
    cut = minimal_speed(truncate(LightExponential(1.0), 4.0), logistic(1, 1), 1.0).c_star
    assert 0.0 < cut <= base


def test_minimal_speed_wide_kernels_stay_finite():
    # the lambda bracket stops where exp(lam r) is still finite
    ws = minimal_speed(CompactUniform(10.0), logistic(1, 1), 1.0)
    assert math.isfinite(ws.c_star) and ws.c_star > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cut = minimal_speed(truncate(LightExponential(1.0), 10.0), logistic(1, 1), 1.0)
    assert 0.0 < cut.c_star <= minimal_speed(LightExponential(1.0), logistic(1, 1), 1.0).c_star


def test_minimal_speed_minimizes_in_few_moment_calls():
    calls = []

    class CountingCosine(CompactCosine):
        def exp_moment(self, lam):
            calls.append(lam)
            return super().exp_moment(lam)

    ws = minimal_speed(CountingCosine(1.0), logistic(1, 1), 1.0)
    # about 60 bisection steps of two calls each; the scan below makes 2001
    assert len(calls) <= 125
    # the dispersion curve (d (Jhat - 1) + f'(0)) / lam at d = f'(0) = 1, on a fine scan
    lams = np.exp(np.linspace(math.log(0.5), math.log(8.0), 2001))
    scan = min((CompactCosine(1.0).exp_moment(l) - 1.0 + 1.0) / l for l in lams)
    assert ws.c_star <= scan
    assert ws.c_star == pytest.approx(scan, rel=1e-6)


def test_minimal_speed_rejects_a_minimum_at_the_bracket_end():
    # the cut heavy tail keeps mass 0.8 < 1: at d = 10 the curve falls to -inf as lam -> 0
    with pytest.raises(ConvergenceError, match="no interior minimum"):
        minimal_speed(truncate(AlgebraicTail(1.5, 1.0), 20.0), logistic(1, 1), 10.0)


def test_minimal_speed_below_the_lam_bracket_is_a_convergence_error():
    # exponential moments end at lam = 5e-5, below the bracket's floor 1e-4:
    # the bracket would invert, so the search never starts
    with pytest.raises(ConvergenceError, match="lam bracket") as err:
        minimal_speed(LightExponential(5e-5), logistic(1, 1), 1.0)
    diag = err.value.diagnostics
    assert diag["mgf_abscissa"] == LightExponential(5e-5).mgf_abscissa()
    assert diag["bracket"][0] == math.log(1e-4) > diag["bracket"][1]


def _scipy_bounded(func, a, b, xatol):
    return minimize_scalar(func, bounds=(a, b), method="bounded",
                           options={"xatol": xatol}).x


@pytest.mark.parametrize("kernel", [CompactUniform(1.0), CompactCosine(2.5), LightExponential(1.0),
                                    truncate(LightExponential(1.0), 4.0)],
                         ids=["uniform", "cosine", "exponential", "truncated"])
def test_minimal_speed_matches_scipy_bounded(kernel):
    # scipy's bounded Brent on the same curve over the same log-lam bracket
    r = kernel.support_radius()
    lam_hi = min(kernel.mgf_abscissa() * (1.0 - 1e-9), 80.0,
                 700.0 / r if math.isfinite(r) else math.inf)
    for d in (1e-3, 0.1, 1.0, 10.0):
        def curve(s):
            lam = math.exp(s)
            return (d * (kernel.exp_moment(lam) - 1.0) + 1.0) / lam

        s_ref = _scipy_bounded(curve, math.log(1e-4), math.log(lam_hi), 1e-8)
        ours = minimal_speed(kernel, logistic(1, 1), d)
        assert ours.c_star == pytest.approx(curve(s_ref), rel=5e-16, abs=0.0)
        assert ours.lambda_star == pytest.approx(math.exp(s_ref), rel=5e-8, abs=0.0)


def test_minimal_speed_finds_the_exponential_lambda_to_1e9():
    # the curve 1/(l - l^3) bottoms out at l = 1/sqrt(3), which the search resolves to 1e-10
    ws = minimal_speed(LightExponential(1.0), logistic(1, 1), 1.0)
    assert ws.lambda_star == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9, abs=0.0)


def test_far_field_rate_stops_when_the_bracket_does():
    calls = []

    class CountingCosine(CompactCosine):
        def exp_moment(self, lam):
            calls.append(lam)
            return super().exp_moment(lam)

    reaction = logistic(1, 1)
    kappa = semiwave._far_field_rate(CountingCosine(1.0), reaction, 1.0)
    assert len(calls) <= 60
    target = 1.0 + abs(float(reaction.f_prime(reaction.u_star)))
    root = brentq(lambda k: CompactCosine(1.0).exp_moment(k) - target, 1e-3, 10.0,
                  xtol=1e-15, rtol=1e-15)
    assert kappa == pytest.approx(root, rel=1e-12)

