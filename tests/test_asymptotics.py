import math
from dataclasses import replace

import numpy as np
import pytest

from nlfront.asymptotics import (estimate_linear_speed, fit_power_exponent,
                                 fit_tlogt_coefficient, level_set_positions,
                                 log_drift_check, mu_limit_experiment,
                                 sup_distance_on_window)
from nlfront.errors import ContractError, InsufficientDataError
from nlfront.kernels import CompactUniform
from nlfront.reactions import logistic
from nlfront.solver import (Field, ProblemSpec, SolverConfig, TrajectoryLog,
                            make_plateau, run)


def synthetic_log(t, h):
    log = TrajectoryLog()
    log.t.extend(t)
    log.h.extend(h)
    return log


def test_linear_speed_exact_line():
    t = np.linspace(0.0, 100.0, 200)
    fit = estimate_linear_speed(synthetic_log(t, 2.0 * t + 5.0))
    assert fit.coeffs["c"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coeffs["H"] == pytest.approx(5.0, abs=1e-7)
    assert not fit.low_confidence


def test_linear_speed_insufficient_data():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        estimate_linear_speed(synthetic_log(t, 2.0 * t))


def test_power_fit_exact():
    t = np.linspace(1.0, 50.0, 300)
    fit = fit_power_exponent(synthetic_log(t, 3.0 * t ** 2))
    assert fit.coeffs["p"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coeffs["A"] == pytest.approx(3.0, rel=1e-9)


def test_power_fit_constant_series():
    t = np.linspace(1.0, 50.0, 100)
    fit = fit_power_exponent(synthetic_log(t, np.full_like(t, 7.0)))
    assert abs(fit.coeffs["p"]) < 1e-12


def test_tlogt_exact():
    t = np.linspace(5.0, 200.0, 400)
    fit = fit_tlogt_coefficient(synthetic_log(t, 4.0 * t * np.log(t)))
    assert fit.coeffs["B"] == pytest.approx(4.0, rel=1e-12)
    assert fit.coeffs["B_prev"] == pytest.approx(fit.coeffs["B_last"], rel=1e-12)
    assert fit.drift < 1e-12


def test_tlogt_domain_error_below_e():
    t = np.linspace(1.0, 100.0, 300)
    with pytest.raises(ContractError):
        fit_tlogt_coefficient(synthetic_log(t, t * np.log(np.maximum(t, 1.1))),
                              window_fraction=1.0)


def test_log_drift_synthetic():
    c0 = 0.7
    t = np.linspace(2.0, 400.0, 500)
    rep = log_drift_check(synthetic_log(t, c0 * t + 2.0), c0)
    assert rep.sup_r == pytest.approx(2.0, abs=1e-9)
    assert abs(rep.ln_slope) < 1e-9
    rep2 = log_drift_check(synthetic_log(t, c0 * t - 3.0 * np.log(t)), c0)
    assert rep2.ln_slope == pytest.approx(-3.0, abs=1e-9)


def test_level_set_tent():
    # the whole tent crosses the level inside; cut short on one side, the
    # level is reached at that end's node
    for a, b, expect in [(-2.0, 2.0, (-0.5, 0.5)), (-0.3, 2.0, (-0.3, 0.5)),
                         (-2.0, 0.2, (-0.5, 0.2))]:
        x = np.linspace(a, b, int(round((b - a) / 1e-3)) + 1)
        u = np.clip(1.0 - np.abs(x), 0.0, None)
        snap = Field(a, x[1] - x[0], u)
        lo, hi = level_set_positions(snap, 0.5, 1.0)
        assert lo == pytest.approx(expect[0], abs=1e-9)
        assert hi == pytest.approx(expect[1], abs=1e-9)


def test_level_set_empty_and_contract():
    snap = Field(0.0, 0.1, np.zeros(50))
    assert level_set_positions(snap, 0.5, 1.0) is None
    with pytest.raises(ContractError):
        level_set_positions(snap, 1.5, 1.0)


def test_level_sets_nested_in_level():
    x = np.linspace(-3.0, 3.0, 2001)
    u = np.exp(-x ** 2)
    snap = Field(-3.0, x[1] - x[0], u)
    lo1, hi1 = level_set_positions(snap, 0.2, 1.0)
    lo2, hi2 = level_set_positions(snap, 0.6, 1.0)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_sup_distance_variants():
    x = np.linspace(0.0, 10.0, 101)
    f = Field(0.0, 0.1, np.sin(x) * 0.1 + 0.5)
    assert sup_distance_on_window(f, f, (0.0, 10.0)) == 0.0
    got = sup_distance_on_window(f, 0.5, (0.0, 10.0))
    assert got == pytest.approx(0.1, abs=1e-3)
    got2 = sup_distance_on_window(f, lambda xx: 0.5 + 0.1 * np.sin(xx), (0.0, 10.0))
    assert got2 < 1e-12
    with pytest.raises(ContractError):
        sup_distance_on_window(f, 0.5, (5.0, 12.0))


def test_fit_translation_consistency():
    # dropping the first window sample moves the coefficient less than the
    # reported drift indicator
    t = np.linspace(1.0, 100.0, 200)
    h = 1.3 * t + 4.0 + 0.05 * np.sin(t)
    full = estimate_linear_speed(synthetic_log(t, h))
    shifted = estimate_linear_speed(synthetic_log(t[1:], h[1:]))
    assert abs(shifted.coeffs["c"] - full.coeffs["c"]) <= full.drift * abs(full.coeffs["c"]) + 1e-9


def test_twosided_interior_convergence_by_windowing():
    # the two-sided interior statement needs no separate machinery: run the
    # two-sided variant and window [-c t, c t]
    spec = ProblemSpec(variant="twosided-fb", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, mu=1.0, h0=5.0)
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=40.0, log_every=2.0)
    log = run(spec, cfg)
    c = 0.06   # safely below the front speed
    t_end = log.t[-1]
    window = (-c * t_end, c * t_end)
    dist = sup_distance_on_window(log.final_state.as_field(), 1.0, window)
    assert dist < 0.05


def test_mu_limit_single_entry_has_no_verdict():
    spec = ProblemSpec(variant="halfline-fb", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, mu=1.0, h0=2.0,
                       u0=make_plateau(2.0, m=0.5))
    cfg = SolverConfig(dx=0.1, dt=0.02, t_end=2.0, log_every=0.5, snapshot_stride=1)
    rep = mu_limit_experiment(spec, [0.5], "ToZero", cfg)
    assert rep.sup_diff_monotone is None
    assert rep.h_monotone is None
    assert len(rep.sup_diff) == 1
    # logged only at t = 0 and 2.5, no snapshot falls in the probe window [1, 2]
    with pytest.raises(ContractError, match="no shared snapshots"):
        mu_limit_experiment(spec, [0.5], "ToZero", replace(cfg, t_end=2.5, log_every=2.5))


_LINE = synthetic_log(np.linspace(1.0, 50.0, 300), np.linspace(1.0, 50.0, 300))
_FIELD = Field(0.0, 1.0, np.ones(3))
_FIXED = ProblemSpec(variant="fixed-domain", kernel=CompactUniform(1.0),
                     reaction=logistic(1, 1), d=1.0, h0=2.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: estimate_linear_speed(_LINE, 0.0), ContractError,
     "window_fraction must lie in (0, 1]"),
    (lambda: fit_power_exponent(synthetic_log(_LINE.t, [-h for h in _LINE.h])), ContractError,
     "power fit needs positive t and h on the window"),
    (lambda: fit_tlogt_coefficient(synthetic_log([3, 4, 5, 6, 7, 8, 9, 10, 100], [1.0] * 9),
                                   1.0),
     InsufficientDataError, "too few samples to split the fit window"),
    (lambda: sup_distance_on_window(_FIELD, 0.0, (2.0, 1.0)), ContractError,
     "window must be ordered"),
    (lambda: sup_distance_on_window(_FIELD, 0.0, (0.5, 0.5)), ContractError,
     "window contains no field nodes"),
    (lambda: mu_limit_experiment(replace(_FIXED, variant="halfline-fb"), [1.0], "Sideways",
                                 SolverConfig()),
     ContractError, "mode must be 'ToZero' or 'ToInfinity'"),
    (lambda: mu_limit_experiment(_FIXED, [1.0], "ToZero", SolverConfig()), ContractError,
     "mu limits are defined for the half-line free boundary"),
], ids=["window-fraction", "power-nonpositive", "tlogt-split", "window-order",
        "window-empty", "mu-mode", "mu-variant"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
