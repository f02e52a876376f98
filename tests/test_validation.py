from dataclasses import replace

import numpy as np
import pytest

from nlfront.errors import ContractError, ValidationError
from nlfront.kernels import AlgebraicTail, CompactUniform, LightExponential
from nlfront.reactions import logistic, zero_reaction
from nlfront.solver import ProblemSpec, SolverConfig, TrajectoryLog, make_plateau, run
from nlfront.validation import (Lattice, SubPlateau, SubPowerFront,
                                SubSemiwave, SubTLogTFront, SuperSemiwave,
                                comparison_order_check, fixture_domination_check,
                                mass_flux_residual, psi_inequality_check,
                                refinement_order, verify_fixture)


@pytest.fixture(scope="module")
def power_fixture():
    return SubPowerFront(kernel=AlgebraicTail(1.5, 1.0), reaction=logistic(1, 1),
                         d=1.0, mu=1.0, theta=9.0, l1=0.01, eps=0.04)


def test_sub_power_front_passes(power_fixture):
    rep = verify_fixture(power_fixture, Lattice(t_values=(0.0, 2.0, 10.0, 40.0)))
    assert rep.passed
    assert rep.margins["interior"] > 0.0
    assert rep.margins["front"] > 0.0
    assert rep.notes   # ridge points dropped, with a note


def test_sub_power_front_broken_speed(power_fixture):
    bad = SubPowerFront(kernel=power_fixture.kernel, reaction=power_fixture.reaction,
                        d=1.0, mu=1.0, theta=9.0, l1=1.0, eps=0.04)
    rep = verify_fixture(bad, Lattice(t_values=(0.0, 2.0, 5.0)))
    assert not rep.passed
    assert rep.margins["front"] < -rep.tol["front"]


def test_super_semiwave_passes(cosine_semiwave, cosine_kernel, logistic_reaction):
    fx = SuperSemiwave(wave=cosine_semiwave, kernel=cosine_kernel,
                       reaction=logistic_reaction, d=1.0, mu=1.0,
                       theta=40.0, beta=1.2, l=30.0)
    rep = verify_fixture(fx, Lattice(t_values=(0.0, 1.0, 5.0, 20.0, 80.0)))
    assert rep.passed
    assert rep.margins["interior"] > 0.0
    assert rep.consistency < 1e-3


def test_super_semiwave_small_theta_fails(cosine_semiwave, cosine_kernel,
                                          logistic_reaction):
    fx = SuperSemiwave(wave=cosine_semiwave, kernel=cosine_kernel,
                       reaction=logistic_reaction, d=1.0, mu=1.0,
                       theta=1.0, beta=2.0, l=30.0)
    rep = verify_fixture(fx, Lattice(t_values=(0.0, 1.0, 3.0)))
    assert not rep.passed
    assert rep.margins["interior"] < -rep.tol["interior"]
    assert rep.worst["interior"][0] == 0.0   # violated at small t


def test_super_semiwave_parameter_contracts(cosine_semiwave, cosine_kernel,
                                            logistic_reaction):
    with pytest.raises(ValidationError):
        SuperSemiwave(wave=cosine_semiwave, kernel=cosine_kernel,
                      reaction=logistic_reaction, d=1.0, mu=1.0,
                      theta=40.0, beta=1.0, l=30.0)


def test_sub_tlogt_passes_and_breaks():
    k2 = AlgebraicTail(2.0, 1.0)
    fx = SubTLogTFront(kernel=k2, reaction=logistic(1, 1), d=1.0, mu=1.0,
                       theta=400.0, l1=0.02, alpha=0.5, eps=0.04)
    rep = verify_fixture(fx, Lattice(t_values=(0.0, 50.0, 400.0)))
    assert rep.passed and rep.margins["front"] > 0.0
    bad = SubTLogTFront(kernel=k2, reaction=logistic(1, 1), d=1.0, mu=1.0,
                        theta=400.0, l1=2.0, alpha=0.5, eps=0.04)
    rep_bad = verify_fixture(bad, Lattice(t_values=(0.0, 50.0)))
    assert not rep_bad.passed
    assert rep_bad.margins["front"] < 0.0


def test_sub_tlogt_needs_gamma_two():
    with pytest.raises(ValidationError):
        SubTLogTFront(kernel=AlgebraicTail(1.5, 1.0), reaction=logistic(1, 1),
                      d=1.0, mu=1.0, theta=400.0, l1=0.02, alpha=0.5, eps=0.04)


def test_sub_plateau_preconditions_and_pass(uniform_semiwave):
    r = logistic(1, 1)
    k = CompactUniform(1.0)
    with pytest.raises(ValidationError):   # eta1 beyond the kernel-derived cap
        SubPlateau(kernel=k, reaction=r, d=1.0, mu=1.0, theta=2600.0,
                   eta1=0.05, rho1=9.5)
    with pytest.raises(ValidationError):   # rho1 beyond eta1*theta*u*
        SubPlateau(kernel=k, reaction=r, d=1.0, mu=1.0, theta=2600.0,
                   eta1=0.004, rho1=11.0)
    fx = SubPlateau(kernel=k, reaction=r, d=1.0, mu=1.0, theta=2600.0,
                    eta1=0.004, rho1=9.5, c0=uniform_semiwave.c0)
    rep = verify_fixture(fx, Lattice(t_values=(0.0, 200.0, 2000.0)))
    assert rep.passed
    assert "front" not in rep.margins    # ordering with the solution, not a speed law


def test_sub_semiwave_passes(uniform_semiwave, uniform_kernel, logistic_reaction):
    c0 = uniform_semiwave.c0
    fx = SubSemiwave(wave=uniform_semiwave, kernel=uniform_kernel,
                     reaction=logistic_reaction, d=1.0, mu=1.0,
                     theta=200.0, l1=2.0, l2=2.0 * c0 + 0.5, eta0=0.1)
    rep = verify_fixture(fx, Lattice(t_values=(0.0, 20.0, 100.0)))
    assert rep.passed
    assert rep.margins["front"] > 0.0


def test_psi_inequality_monotone_in_eps():
    k = CompactUniform(1.0)
    kappas = [psi_inequality_check(k, 100.0, 200.0, e).kappa_eps
              for e in (0.5, 0.2, 0.1)]
    assert all(np.isfinite(kappas))
    assert kappas[0] <= kappas[1] <= kappas[2]


def test_psi_trivial_at_kappa2():
    rep = psi_inequality_check(CompactUniform(1.0), 50.0, 100.0, 0.3)
    # psi(kappa2) = 0: the inequality holds there, so kappa_eps < kappa2
    assert rep.kappa_eps < 100.0
    assert rep.worst_margin >= -1e-12


def test_psi_narrow_ramp_violates():
    k = CompactUniform(1.0)
    wide = psi_inequality_check(k, 100.0, 200.0, 0.1)
    narrow = psi_inequality_check(k, 0.2, 200.0, 0.1)
    # shrinking kappa1 below the reported threshold brings violations back
    assert narrow.kappa_eps > 0.2
    assert wide.kappa_eps <= min(100.0, 100.0)


def test_psi_contract():
    with pytest.raises(ContractError):
        psi_inequality_check(CompactUniform(1.0), 2.0, 1.0, 0.1)


# structural oracles -----------------------------------------------------------


def diagnostic_spec(d=0.5):
    return ProblemSpec(variant="halfline-fb", kernel=CompactUniform(1.0),
                       reaction=zero_reaction(), d=d, mu=1.0, h0=10.0,
                       u0=make_plateau(10.0, m=1.0, ramp=2.0))


def test_mass_flux_residual_zero_reaction_short():
    spec = diagnostic_spec()
    log = run(spec, SolverConfig(dx=0.05, dt=0.002, t_end=0.5, log_every=0.1))
    assert mass_flux_residual(log, spec) < 3e-4


def test_mass_flux_residual_zero_state_is_exact():
    # an identically-zero log satisfies the identity with residual 0 exactly
    log = TrajectoryLog()
    for k in range(6):
        log.t.append(0.1 * k)
        log.h.append(1.0)
        log.g.append(-np.inf)
        log.mass.append(0.0)
        log.sup_u.append(0.0)
        log.flux.append(0.0)
        log.rint.append(0.0)
    assert mass_flux_residual(log, diagnostic_spec()) == 0.0


def test_mass_flux_contracts():
    spec = diagnostic_spec()
    with pytest.raises(ContractError):
        mass_flux_residual(TrajectoryLog(), ProblemSpec(
            variant="cauchy-full", kernel=spec.kernel, reaction=spec.reaction,
            d=1.0, h0=1.0))
    log = run(spec, SolverConfig(dx=0.1, dt=0.01, t_end=0.2, log_every=0.1))
    log.rint = []   # simulate a CSV-loaded log without the reaction series
    with pytest.raises(ContractError):
        mass_flux_residual(log, spec)


def test_comparison_order_check_passes():
    k = CompactUniform(1.0)
    r = logistic(1, 1)
    hi = ProblemSpec(variant="halfline-fb", kernel=k, reaction=r, d=1.0,
                     mu=1.0, h0=5.0, u0=make_plateau(5.0, m=1.0))
    lo = ProblemSpec(variant="halfline-fb", kernel=k, reaction=r, d=1.0,
                     mu=1.0, h0=5.0, u0=make_plateau(5.0, m=0.5))
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=3.0, log_every=0.5)
    rep = comparison_order_check(lo, hi, cfg)
    assert rep.passed
    same = comparison_order_check(hi, hi, cfg)
    assert same.passed and same.max_u_violation == 0.0


def test_comparison_order_check_contract_on_crossing_data():
    k = CompactUniform(1.0)
    r = logistic(1, 1)
    a = ProblemSpec(variant="halfline-fb", kernel=k, reaction=r, d=1.0,
                    mu=1.0, h0=5.0, u0=make_plateau(5.0, m=1.0, ramp=3.0))
    b = ProblemSpec(variant="halfline-fb", kernel=k, reaction=r, d=1.0,
                    mu=1.0, h0=5.0, u0=make_plateau(5.0, m=0.9, ramp=0.5))
    with pytest.raises(ContractError):
        comparison_order_check(a, b, SolverConfig(dx=0.1, dt=0.05, t_end=1.0))


@pytest.mark.parametrize("variant", ["twosided-fb", "cauchy-full", "halfline-fb"])
def test_comparison_order_check_sees_data_left_of_the_origin(variant):
    # the lower datum is twice the upper one on x < 0: refused where x < 0
    # is in the domain; behind the half-line's wall the runs are one run
    upper = make_plateau(3.0, m=0.5)
    common = dict(variant=variant, kernel=CompactUniform(1.0), reaction=logistic(1, 1),
                  d=1.0, mu=1.0, h0=3.0)
    hi = ProblemSpec(**common, u0=upper)
    lo = ProblemSpec(**common, u0=lambda x: np.where(np.asarray(x) < 0.0, 2.0, 1.0) * upper(x))
    cfg = SolverConfig(dx=0.05, dt=0.01, t_end=1.0)
    if variant == "halfline-fb":
        assert comparison_order_check(lo, hi, cfg).passed
    else:
        with pytest.raises(ContractError, match="not ordered"):
            comparison_order_check(lo, hi, cfg)


def test_comparison_order_check_compares_the_left_fronts():
    spec = ProblemSpec(variant="twosided-fb", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, mu=1.0, h0=3.0,
                       u0=make_plateau(3.0, m=0.5))
    cfg = SolverConfig(dx=0.05, dt=0.01, t_end=1.0)
    log_b = run(spec, cfg.with_snapshots())
    assert comparison_order_check(spec, spec, cfg, log_b=log_b).passed
    log_b.g = [g + 1e-6 for g in log_b.g]       # the upper run's left front, 1e-6 inward
    rep = comparison_order_check(spec, spec, cfg, log_b=log_b)
    assert not rep.passed
    assert rep.max_h_violation == pytest.approx(1e-6)


def test_refinement_order_contract():
    with pytest.raises(ContractError):
        refinement_order(diagnostic_spec(), SolverConfig(dx=0.1, dt=0.05, t_end=1.0),
                         levels=2)


def test_refinement_order_euler_and_rk2():
    spec = ProblemSpec(variant="halfline-fb", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, mu=5.0, h0=10.0,
                       u0=make_plateau(10.0, m=0.3, ramp=2.0))
    rep = refinement_order(spec, SolverConfig(dx=0.05, dt=0.08, t_end=15.0), levels=4)
    assert not rep.inconclusive
    assert rep.order >= 0.7 and rep.passed
    rep2 = refinement_order(spec, SolverConfig(dx=0.01, dt=0.04, t_end=15.0,
                                               scheme="rk2"), levels=3)
    assert not rep2.inconclusive
    assert rep2.order > 1.0


def test_fixture_domination(power_fixture):
    rep = fixture_domination_check(
        power_fixture,
        SolverConfig(dx=0.25, dt=0.05, log_every=2.0, snapshot_stride=2),
        t_end=40.0)
    assert rep.passed
    assert rep.max_u_violation <= 5e-3
    assert rep.max_h_violation <= 5e-3


def _fixture_cases(uniform_semiwave):
    k15, r = AlgebraicTail(1.5, 1.0), logistic(1, 1)
    common = dict(reaction=r, d=1.0, mu=1.0)
    return [
        (SuperSemiwave, dict(common, wave=uniform_semiwave, kernel=CompactUniform(1.0),
                             theta=40.0, beta=1.2, l=30.0)),
        (SubSemiwave, dict(common, wave=uniform_semiwave, kernel=CompactUniform(1.0),
                           theta=200.0, l1=2.0, l2=2.0, eta0=0.1)),
        (SubPlateau, dict(common, kernel=CompactUniform(1.0), theta=2600.0,
                          eta1=0.004, rho1=9.5)),
        (SubPowerFront, dict(common, kernel=k15, theta=9.0, l1=0.01, eps=0.04)),
        (SubTLogTFront, dict(common, kernel=AlgebraicTail(2.0, 1.0), theta=400.0,
                             l1=0.02, alpha=0.5, eps=0.04)),
    ]


@pytest.mark.parametrize("name,value", [("kind", "other"), ("sense", 1),
                                        ("has_front_check", False)])
def test_fixture_orientation_is_not_settable(uniform_semiwave, name, value):
    for cls, kwargs in _fixture_cases(uniform_semiwave):
        fixture = cls(**kwargs)    # valid without the extra keyword
        assert getattr(fixture, name) == getattr(cls, name)
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(**kwargs, **{name: value})


# the shape checks run before any wave is read: no semi-wave is solved
_MODEL = dict(kernel=CompactUniform(1.0), reaction=logistic(1, 1), d=1.0, mu=1.0)
_ACCEL = dict(_MODEL, kernel=AlgebraicTail(1.5, 1.0), theta=9.0, l1=0.01, eps=0.04)
_TLOGT = dict(_ACCEL, kernel=AlgebraicTail(2.0, 1.0), alpha=0.5)
_PLATEAU = dict(_MODEL, theta=1.0, eta1=0.01, rho1=0.001)
_SPEC = ProblemSpec(variant="halfline-fb", h0=2.0, **_MODEL)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Lattice(t_values=()), ContractError, "lattice needs at least one time sample"),
    (lambda: SuperSemiwave(**_MODEL, wave=None, theta=0.5, beta=2.0, l=1.0), ValidationError,
     "super-semiwave needs theta >= 1"),
    (lambda: SuperSemiwave(**_MODEL, wave=None, theta=2.0, beta=2.0, l=0.0), ValidationError,
     "super-semiwave needs l > 0"),
    (lambda: SubSemiwave(**_MODEL, wave=None, theta=2.0, l1=3.0, l2=1.0), ValidationError,
     "sub-semiwave needs theta >= max(1, l1)"),
    (lambda: SubSemiwave(**_MODEL, wave=None, theta=2.0, l1=1.0, l2=0.0), ValidationError,
     "sub-semiwave needs positive l1, l2"),
    (lambda: SubSemiwave(**_MODEL, wave=None, theta=2.0, l1=1.0, l2=1.0, eta0=1.0),
     ValidationError, "eta0 must sit in (0,1)"),
    (lambda: SubPlateau(**dict(_PLATEAU, kernel=LightExponential(1.0))), ValidationError,
     "the plateau barrier needs a compactly supported kernel"),
    (lambda: SubPlateau(**dict(_PLATEAU, reaction=zero_reaction())), ValidationError,
     "the plateau barrier needs a validated reaction with u* and rho"),
    (lambda: SubPowerFront(**dict(_ACCEL, eps=0.0)), ValidationError,
     "eps must be small and positive"),
    (lambda: SubPowerFront(**dict(_ACCEL, l1=0.0)), ValidationError,
     "need l1 > 0 and theta >= 1"),
    (lambda: SubPowerFront(**dict(_ACCEL, kernel=CompactUniform(1.0))), ValidationError,
     "the power-front barrier needs an algebraic kernel with gamma in (1,2)"),
    (lambda: SubTLogTFront(**dict(_TLOGT, alpha=1.0)), ValidationError,
     "alpha must sit in (0,1)"),
    (lambda: SubTLogTFront(**dict(_TLOGT, theta=1.0)), ValidationError,
     "theta too small: the ramp swallows the front"),
    (lambda: psi_inequality_check(CompactUniform(1.0), 1.0, 4.0, 1.5), ContractError,
     "eps must sit in (0,1)"),
    (lambda: mass_flux_residual(TrajectoryLog(t=[0.0, 1.0], h=[1.0, 1.0]), _SPEC), ContractError,
     "log is missing the mass column"),
    (lambda: comparison_order_check(_SPEC, replace(_SPEC, d=2.0), SolverConfig()),
     ContractError, "specs must agree except for the initial datum"),
    (lambda: refinement_order(_SPEC, SolverConfig(dx=0.1)), ContractError,
     "refinement_order needs an explicit base dt"),
    (lambda: fixture_domination_check(
        SuperSemiwave(**_MODEL, wave=None, theta=2.0, beta=2.0, l=1.0), SolverConfig(), 1.0),
     ContractError, "domination checks apply to lower barriers"),
], ids=["lattice", "super-theta", "super-l", "sub-theta", "sub-l", "sub-eta0",
        "plateau-kernel", "plateau-reaction", "accel-eps", "accel-l1", "power-kernel",
        "tlogt-alpha", "tlogt-theta", "psi-eps", "mass-flux-column", "comparison-specs",
        "refinement-dt", "domination-sense"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
