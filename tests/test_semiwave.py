import math

import numpy as np
import pytest

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


def _relaxation_answer(kernel):
    ps = semiwave._ProfileSolver(kernel, logistic(1, 1), 1.0, CROSS_CFG.L0, CROSS_CFG.dx)
    return semiwave._relaxation(ps, 1.0, ps.default_profile(), CROSS_CFG)


@pytest.mark.parametrize("kernel", [CompactUniform(1.0), CompactCosine(1.0),
                                    truncate(LightExponential(1.0), 4.0),
                                    LightExponential(1.0)],   # infinite support: cut band
                         ids=["uniform", "cosine", "truncated", "exponential"])
def test_newton_matches_relaxation(kernel):
    sol = solve_semiwave(kernel, logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    c0, phi = _relaxation_answer(kernel)
    assert not sol.fallback and 1 <= sol.newton_iterations <= 10
    assert len(sol.newton_residuals) == sol.newton_iterations + 1
    assert sol.residual <= CROSS_CFG.residual_tol
    assert sol.c0 == pytest.approx(c0, rel=1e-7)
    assert np.max(np.abs(sol.phi - phi)) <= 1e-6 * sol.u_star
    report = sol.to_json()
    assert report["fallback"] is False
    assert report["newton_residuals"] == list(sol.newton_residuals)


@pytest.mark.parametrize("spurious", ["non-monotone", "high-residual"])
def test_rejected_newton_falls_back_to_relaxation(monkeypatch, spurious):
    def fake_newton(ps, mu, phi, c, tol):
        bad = ps.default_profile()
        if spurious == "non-monotone":
            bad[len(bad) // 2] = 0.5 * ps.u_star * (1.0 + 1e-3)
            bad[len(bad) // 2 + 1] = ps.u_star
        return bad, 0.5 * c, [1.0, 1e-13], True

    monkeypatch.setattr(semiwave, "_newton", fake_newton)
    sol = solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, CROSS_CFG)
    c0, phi = _relaxation_answer(CompactUniform(1.0))
    assert sol.fallback and sol.to_json()["fallback"] is True
    assert sol.c0 == c0 and np.array_equal(sol.phi, phi)
    assert sol.newton_residuals == (1.0, 1e-13)
    assert np.all(np.diff(sol.phi) <= 0.0) and sol.residual <= CROSS_CFG.residual_tol


def test_fallback_above_residual_tol_raises(monkeypatch):
    # a loose relaxation cannot meet residual_tol: no solution is returned
    monkeypatch.setattr(semiwave, "_newton",
                        lambda ps, mu, phi, c, tol: (phi, c, [1.0], False))
    cfg = SemiWaveConfig(dx=0.05, L0=20.0, max_doublings=0, inner_tol=1e-3)
    with pytest.raises(ConvergenceError, match="residual_tol") as err:
        solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, cfg)
    assert err.value.diagnostics["residual"] > cfg.residual_tol


# stationary profile: the c = 0, unpinned case of the same solver ---------------


def _stationary_relaxation(kernel, d, prof):
    """The shared relaxation at c = 0 on the window stationary_profile chose."""
    ps = semiwave._ProfileSolver(kernel, logistic(1, 1), d, -prof.x[0], prof.x[1] - prof.x[0],
                                 pinned=False)
    assert np.allclose(ps.x, prof.x, rtol=0.0, atol=1e-12)
    U, _ = ps.solve(0.0, np.full(len(ps.x), ps.u_star), semiwave.STATIONARY_STOP,
                    SemiWaveConfig().max_inner)
    return U


@pytest.mark.parametrize("kernel, d", [(CompactCosine(1.0), 1.0), (CompactCosine(1.0), 100.0),
                                       (LightExponential(1.0), 1.0)],
                         ids=["cosine-d1", "cosine-d100", "exponential-d1"])
def test_stationary_newton_matches_relaxation(kernel, d):
    prof = stationary_profile(kernel, logistic(1, 1), d)
    assert not prof.fallback and 1 <= prof.iterations <= 10
    assert prof.residual <= SemiWaveConfig().residual_tol
    assert np.all(np.diff(prof.U) < 0.0) and prof.U[0] < prof.u_star
    U = _stationary_relaxation(kernel, d, prof)
    assert np.max(np.abs(prof.U - U)) <= 1e-6 * prof.u_star
    report = prof.to_json()
    assert report["fallback"] is False and report["residual"] == prof.residual


def test_stationary_heavy_tail_uses_relaxation():
    # the taps span the window, so the band is too large to factor
    prof = stationary_profile(AlgebraicTail(1.5, 1.0), logistic(1, 1), 1.0)
    assert prof.fallback and prof.to_json()["fallback"] is True
    assert np.all(np.diff(prof.U) < 0.0)
    assert prof.U[-1] == pytest.approx(0.6301018943754649, rel=1e-6)


def test_stationary_rejected_newton_falls_back(monkeypatch):
    monkeypatch.setattr(semiwave, "_newton",
                        lambda ps, mu, phi, c, tol: (phi, c, [1.0, 2.0], False))
    prof = stationary_profile(CompactCosine(1.0), logistic(1, 1), 1.0)
    assert prof.fallback and prof.iterations > 10
    assert np.allclose(prof.U, _stationary_relaxation(CompactCosine(1.0), 1.0, prof),
                       rtol=0.0, atol=1e-12)


def test_stationary_non_strict_discrete_profile_raises():
    # the uniform kernel's density jump puts a kink in U near x = -1 at large d
    with pytest.raises(ConvergenceError, match="not strictly decreasing") as err:
        stationary_profile(CompactUniform(1.0), logistic(1, 1), 1e3)
    assert err.value.diagnostics["fallback"] is False


def test_stationary_profile_truncated_kernel():
    prof = stationary_profile(truncate(LightExponential(1.0), 4.0), logistic(1, 1), 1.0)
    assert not prof.fallback
    assert np.all(np.diff(prof.U) < 0.0)


def test_minimal_speed_truncated_below_untruncated():
    # J_n <= J, so every exponential moment and the dispersion curve drop
    base = minimal_speed(LightExponential(1.0), logistic(1, 1), 1.0).c_star
    cut = minimal_speed(truncate(LightExponential(1.0), 4.0), logistic(1, 1), 1.0).c_star
    assert 0.0 < cut <= base
