import functools
import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from nlfront import quadrature
from nlfront.errors import ContractError, ConvergenceError, ResourceError, ValidationError
from nlfront.kernels import AlgebraicTail, CompactCosine, CompactUniform, truncate
from nlfront.reactions import Reaction, logistic, zero_reaction
from nlfront.solver import (VARIANTS, Field, ProblemSpec, SolverConfig, TrajectoryLog,
                            _Engine, boundary_flux, checkpoint_times, classify,
                            make_plateau, nonlocal_operator, run, stability_budget, step)


def plateau_field(h, dx=0.05, pad=2.0, level=1.0):
    x = np.arange(0.0, h + pad + dx / 2, dx)
    return Field(0.0, dx, np.where(x <= h, level, 0.0))


def halfline_spec(kernel=None, reaction=None, **kw):
    kernel = kernel or CompactUniform(1.0)
    reaction = reaction or logistic(1, 1)
    args = dict(variant="halfline-fb", kernel=kernel, reaction=reaction,
                d=1.0, mu=1.0, h0=10.0)
    args.update(kw)
    return ProblemSpec(**args)


# pointwise operators ---------------------------------------------------------


def test_operator_zero_field():
    u = Field(0.0, 0.05, np.zeros(100))
    assert nonlocal_operator(CompactUniform(1.0), u, (0.0, 4.0), 2.0) == 0.0


def test_operator_vanishes_on_plateau_interior():
    k = CompactUniform(1.0)
    u = plateau_field(8.0)
    v = nonlocal_operator(k, u, (0.0, 8.0), 4.0, d=1.0, form="halfline")
    assert abs(v) < 1e-12


def test_operator_at_front_is_minus_half():
    # int_0^h J(h-y) u* dy = u*/2 while j(h) = 1, so the operator is -d u*/2
    k = CompactUniform(1.0)
    u = plateau_field(8.0)
    v = nonlocal_operator(k, u, (0.0, 8.0), 8.0, d=1.0, form="halfline")
    assert v == pytest.approx(-0.5, abs=2e-3)


def test_operator_domain_error():
    u = plateau_field(8.0)
    with pytest.raises(ContractError):
        nonlocal_operator(CompactUniform(1.0), u, (0.0, 8.0), 9.5)


def test_boundary_flux_examples():
    k = CompactUniform(1.0)
    assert boundary_flux(k, Field(0.0, 0.05, np.zeros(200)), 8.0) == 0.0
    # u == u* against a unit-radius uniform kernel: int_0^r (r-s)/(2r) ds = r/4
    assert boundary_flux(k, plateau_field(8.0), 8.0) == pytest.approx(0.25, abs=1e-3)


def test_boundary_flux_monotone_in_u():
    k = CompactUniform(1.0)
    lo = plateau_field(8.0, level=0.4)
    hi = plateau_field(8.0, level=0.9)
    assert boundary_flux(k, lo, 8.0) <= boundary_flux(k, hi, 8.0)


# stepping --------------------------------------------------------------------


def test_budget_formula():
    spec = halfline_spec()
    # max |f'| of u(1-u) on [0, 2] is 3
    assert stability_budget(spec) == pytest.approx(0.5 / (2.0 + 3.0), rel=1e-6)


def test_step_rejects_unstable_dt():
    # checkpoint_times refuses the step that run refuses, with its message
    spec = halfline_spec()
    cfg = SolverConfig(dx=0.05, dt=1.0, t_end=1.0)
    messages = []
    for call in (run, checkpoint_times):
        with pytest.raises(ValidationError, match="exceeds the stability budget") as err:
            call(spec, cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_cauchy_constant_state_is_fixed_point():
    # f == 0 and u == const: the unit-mass convolution reproduces the constant
    spec = ProblemSpec(variant="cauchy-full", kernel=CompactUniform(1.0),
                       reaction=zero_reaction(), d=1.0, h0=5.0)
    cfg = SolverConfig(dx=0.05, dt=0.05, t_end=0.0)
    st0 = run(spec, cfg).final_state
    st0.u[:] = 1.0
    st = step(spec, cfg, st0)
    interior = np.abs(st.u[40:-40] - 1.0)
    assert np.max(interior) < 1e-12


def test_step_front_increment_matches_flux():
    spec = halfline_spec(u0=make_plateau(10.0, m=1.0, ramp=1e-9))
    cfg = SolverConfig(dx=0.05, dt=0.02, t_end=0.0)
    st0 = run(spec, cfg).final_state
    st1 = step(spec, cfg, st0)
    flux = boundary_flux(spec.kernel, st0.as_field(), st0.h)
    assert st1.h - st0.h == pytest.approx(cfg.dt * spec.mu * flux, rel=1e-12)
    # near-plateau state: the increment sits near the dt*mu*u*/4 prediction
    assert flux == pytest.approx(0.25, abs=0.02)


def test_run_zero_horizon_single_sample():
    log = run(halfline_spec(), SolverConfig(dx=0.1, dt=0.05, t_end=0.0))
    assert len(log.t) == 1
    assert log.t[0] == 0.0
    assert log.h[0] == 10.0


def test_run_ends_at_t_end():
    # 0.07 does not divide 1: the last step is shortened, not overshot to 1.05
    log = run(halfline_spec(h0=3.0), SolverConfig(dx=0.05, dt=0.07, t_end=1.0, log_every=0.14))
    assert log.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert log.final_state.t == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(log.t) > 0.0)


def test_run_invariants_positivity_and_monotone_fronts():
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=8.0, log_every=0.4))
    assert np.all(np.diff(log.h) >= 0.0)
    cap = spec.u_cap() * (1.0 + 1e-9)
    assert all(s <= cap for s in log.sup_u)
    assert np.all(log.final_state.u >= 0.0)


def test_twosided_symmetric_run():
    spec = ProblemSpec(variant="twosided-fb", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, mu=1.0, h0=5.0)
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=6.0, log_every=0.5))
    t, h, g = np.asarray(log.t), np.asarray(log.h), np.asarray(log.g)
    assert np.all(np.diff(h) >= 0.0)
    assert np.all(np.diff(g) <= 0.0)
    # even data and even kernel keep the solution even
    assert np.allclose(h, -g, atol=1e-12)
    assert h[-1] > 5.0


@pytest.mark.parametrize("variant,side,refused", [
    ("twosided-fb", "left", True), ("twosided-fb", "right", True),
    ("cauchy-full", "left", True), ("cauchy-full", "right", True),
    ("halfline-fb", "left", False), ("cauchy-half", "left", False)])
def test_datum_must_vanish_at_every_end_but_a_wall(variant, side, refused):
    # u0 = 1 at x = -h0 (side "left") or, mirrored, at x = h0; a left wall
    # at x = 0 never sees -h0
    sign = 1.0 if side == "left" else -1.0
    spec = ProblemSpec(variant=variant, kernel=CompactUniform(1.0), reaction=logistic(1, 1),
                       d=1.0, h0=3.0,
                       u0=lambda x: np.clip(3.0 - sign * np.asarray(x, dtype=float), 0.0, 1.0))
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=0.0)
    if refused:
        with pytest.raises(ValidationError, match=f"must vanish at the {side} end"):
            run(spec, cfg)
    else:
        assert run(spec, cfg).t == [0.0]


def test_mass_flux_identity_zero_field():
    spec = halfline_spec(reaction=zero_reaction(),
                         u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValidationError):
        # all-zero initial data violate the positivity contract
        run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=1.0))


def test_window_growth_and_resource_cap():
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=40.0, log_every=5.0))
    assert len(log.final_state.u) * 0.05 > 14.0    # window grew past the start
    with pytest.raises(ResourceError) as err:
        run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=40.0, max_nodes=300))
    assert err.value.partial is not None
    assert len(err.value.partial.t) >= 1
    # the cap's error says how many nodes the growth asked for, the cap and
    # where the run stood
    diag, partial = err.value.diagnostics, err.value.partial
    assert diag["max_nodes"] == 300 < diag["nodes_requested"]
    assert partial.t[-1] <= diag["t"] < 40.0
    assert diag["h"] == partial.final_state.h and diag["g"] == partial.final_state.g


@pytest.mark.parametrize("dt,t_end,log_every", [
    (0.05, 2.03, 0.5), (0.01, 1.05, 0.01), (None, 0.77, None), (0.05, 0.0, 0.5)])
def test_checkpoint_times_are_the_logged_times(dt, t_end, log_every):
    # a short last step, an inexact sum of steps, the default dt and log
    # cadence, and no step at all
    spec = halfline_spec(h0=3.0)
    cfg = SolverConfig(dx=0.1, dt=dt, t_end=t_end, log_every=log_every)
    assert np.array_equal(checkpoint_times(spec, cfg), run(spec, cfg).t)


def test_paired_snapshots_need_the_same_times():
    # a missing snapshot, or one a hair off, is no pair
    f = Field(0.0, 1.0, np.zeros(2))
    log = TrajectoryLog(snapshots=[(0.0, f), (0.5, f)])
    assert log.paired_snapshots(log) == [(0.0, f, f), (0.5, f, f)]
    for times in ([0.0], [0.0, 0.5 + 1e-12]):
        with pytest.raises(ContractError, match="same times"):
            log.paired_snapshots(TrajectoryLog(snapshots=[(t, f) for t in times]))


def test_growth_frees_the_superseded_taps():
    # a plan owns its tap row: once the grid grows and the engine re-plans,
    # nothing keeps the first grid's row alive
    spec = halfline_spec(kernel=AlgebraicTail(1.5, 1.0))
    eng = _Engine(spec, SolverConfig(dx=0.25, dt=0.05, t_end=100.0))
    first = weakref.ref(eng.conv.taps)
    n = len(eng.state.u)
    for _ in range(1000):                  # the front reaches the growth threshold in 397
        eng._grow(*eng._extent())
        if len(eng.state.u) > n:
            break
        eng.step_once(eng.dt)
    assert len(eng.state.u) > n
    gc.collect()
    assert first() is None


def test_fixed_domain_grid_alignment():
    spec = ProblemSpec(variant="fixed-domain", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, h0=1.03)
    with pytest.raises(ValidationError):
        run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=1.0))


def test_fixed_domain_grid_stays_inside_its_walls(monkeypatch):
    # the right wall at h0 never grows: one grid of 61 nodes, one taps plan
    calls = []
    taps = CompactUniform.taps

    def counted(kernel, dx, m):
        calls.append((dx, m))
        return taps(kernel, dx, m)

    monkeypatch.setattr(CompactUniform, "taps", counted)
    spec = ProblemSpec(variant="fixed-domain", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, h0=3.0)
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=2.0))
    assert len(log.final_state.u) == 61
    assert len(calls) == 1


def test_fixed_domain_front_is_static():
    spec = ProblemSpec(variant="fixed-domain", kernel=CompactUniform(1.0),
                       reaction=logistic(1, 1), d=1.0, h0=5.0)
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=4.0, log_every=0.5))
    assert all(h == 5.0 for h in log.h)
    assert log.sup_u[-1] > 0.2


# variant: (h moves, g moves, grows left, window ends from the state and the grid edges)
BOUNDARIES = {
    "halfline-fb": (True, False, False, lambda st, x: (0.0, st.h)),
    "twosided-fb": (True, True, True, lambda st, x: (st.g, st.h)),
    "cauchy-full": (False, False, True, lambda st, x: (x[0], x[-1])),
    "cauchy-half": (False, False, False, lambda st, x: (0.0, x[-1])),
    "fixed-domain": (False, False, False, lambda st, x: (0.0, 3.0)),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_boundary_table(variant):
    h_moves, g_moves, grows_left, window = BOUNDARIES[variant]
    spec = ProblemSpec(variant=variant, kernel=CompactUniform(1.0), reaction=logistic(1, 1),
                       d=1.0, mu=10.0, h0=3.0)
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=6.0)
    eng = _Engine(spec, cfg)
    x0_start = eng.state.x0
    st = run(spec, cfg).final_state
    assert st.h > 3.0 if h_moves else st.h == 3.0
    assert -math.inf < st.g < -3.0 if g_moves else st.g == -math.inf
    assert (st.x0 < x0_start) == grows_left
    assert st.x0 <= x0_start

    eng.state = st
    eng._refresh_taps()
    p = eng._pieces()
    x = eng.x
    lo, hi = window(st, x)
    assert lo - 1e-9 <= x[p.i_lo] < lo + cfg.dx
    assert hi - cfg.dx < x[p.i_hi] <= hi + 1e-9
    # a partial cell at each moving front, between its last node and the front
    assert len(p.cells) == h_moves + g_moves
    if h_moves:
        assert x[p.i_hi] < p.cells[0].centroid < st.h
    if g_moves:
        assert st.g < p.cells[-1].centroid < x[p.i_lo]


def test_rk2_scheme_runs():
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=4.0, scheme="rk2"))
    assert log.h[-1] > 10.0
    assert log.sup_u[-1] <= 1.0 + 1e-9


def test_heavy_tail_run_accelerates():
    spec = halfline_spec(kernel=AlgebraicTail(1.5, 1.0))
    log = run(spec, SolverConfig(dx=0.25, dt=0.05, t_end=30.0, log_every=1.0))
    t, h = np.asarray(log.t), np.asarray(log.h)
    # the front speed itself grows: compare increments over equal spans
    first = h[np.searchsorted(t, 15.0)] - h[np.searchsorted(t, 5.0)]
    second = h[-1] - h[np.searchsorted(t, 20.0)]
    assert second > 1.5 * first


def test_truncated_kernel_composes_with_perturbed_reaction():
    # the approximating system: plateau-truncated kernel + f - delta*u
    from nlfront.kernels import LightExponential, truncate
    from nlfront.reactions import perturb
    kernel = truncate(LightExponential(1.0), 4.0)
    reaction = perturb(logistic(1, 1), 0.05)
    spec = ProblemSpec(variant="halfline-fb", kernel=kernel, reaction=reaction,
                       d=1.0, mu=1.0, h0=5.0)
    log = run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=5.0, log_every=0.5))
    assert log.h[-1] > 5.0
    assert np.all(np.diff(log.h) >= 0.0)
    assert log.sup_u[-1] <= reaction.u_star + 1e-9


# comparison / monotonicity properties ----------------------------------------


def test_comparison_in_initial_data():
    spec_lo = halfline_spec(u0=make_plateau(10.0, m=0.5))
    spec_hi = halfline_spec(u0=make_plateau(10.0, m=1.0))
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=5.0, log_every=0.5, snapshot_stride=1)
    log_lo, log_hi = run(spec_lo, cfg), run(spec_hi, cfg)
    assert np.all(np.asarray(log_lo.h) <= np.asarray(log_hi.h) + 1e-10)
    for (ta, fa), (tb, fb) in zip(log_lo.snapshots, log_hi.snapshots):
        assert np.max(fa.values - fb.at(fa.x)) <= 1e-10


def test_monotone_in_mu():
    cfg = SolverConfig(dx=0.1, dt=0.05, t_end=5.0, log_every=0.5)
    h_ends = [run(halfline_spec(mu=m), cfg).h[-1] for m in (0.5, 1.0, 2.0)]
    assert np.all(np.diff(h_ends) > 0.0)


# classification ---------------------------------------------------------------


def test_classify_undecided_for_short_run():
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=1.0, log_every=0.1))
    assert classify(log, spec) == "undecided"


def test_classify_spreading():
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=120.0, log_every=2.0))
    assert classify(log, spec) == "spreading"


def test_classify_vanishing():
    spec = halfline_spec(d=4.0, mu=0.01, h0=0.2,
                         u0=make_plateau(0.2, m=0.1, ramp=0.2))
    log = run(spec, SolverConfig(dx=0.05, dt=0.04, t_end=40.0, log_every=1.0))
    assert classify(log, spec) == "vanishing"


def test_classify_needs_the_runs_meta(tmp_path):
    # a log read back from CSV lacks the run's interaction length and dx
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=2.0, log_every=0.2))
    log.to_csv(tmp_path / "trajectory.csv")
    with pytest.raises(ContractError, match="meta"):
        classify(TrajectoryLog.from_csv(tmp_path / "trajectory.csv"), spec)


# logging ----------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path):
    spec = halfline_spec()
    log = run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=2.0, log_every=0.2))
    path = tmp_path / "trajectory.csv"
    log.to_csv(path)
    back = TrajectoryLog.from_csv(path)
    assert back.t == pytest.approx(log.t, abs=0.0)
    assert back.h == pytest.approx(log.h, abs=0.0)
    assert back.mass == pytest.approx(log.mass, abs=0.0)
    text = path.read_text().splitlines()
    assert text[0] == "t,h,g,mass,sup_u,flux"
    assert "-inf" in text[1] or text[1].split(",")[2] == "-inf"


def test_logged_flux_moves_the_front():
    # Euler, a checkpoint every step: each logged flux is the one the next
    # step moves the front by
    spec = halfline_spec(mu=2.0, h0=3.0)
    cfg = SolverConfig(dx=0.05, dt=0.05, t_end=2.0, log_every=0.05)
    log = run(spec, cfg)
    assert len(log.t) == 41
    h, flux = np.asarray(log.h), np.asarray(log.flux)
    assert np.diff(h) == pytest.approx(cfg.dt * spec.mu * flux[:-1], rel=1e-12)


@pytest.mark.parametrize("variant", ["halfline-fb", "cauchy-full"])
def test_run_stops_on_nonfinite_state(variant):
    # f turns NaN above u = 0.5: the front and the field go non-finite
    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 0.5, np.nan, u * (1.0 - u))

    nan_reaction = Reaction(f=f, f_prime=lambda u: 1.0 - 2.0 * np.asarray(u), u_star=1.0)
    spec = halfline_spec(reaction=nan_reaction, variant=variant, h0=2.0)
    with pytest.raises(ConvergenceError, match="non-finite") as err:
        run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=2.0, log_every=0.5))
    log = err.value.partial
    assert log.truncated and len(log.t) >= 1
    assert np.all(np.isfinite(log.sup_u)) and np.all(np.isfinite(log.h))
    assert err.value.diagnostics["t"] < 2.0


# in-place stepping ------------------------------------------------------------

# Short runs off the box path (the uniform grids stay below the size rule)
# of every variant under Euler and RK2, recorded in data/short_runs.npz with
# the allocating stepper that the in-place one replaced: t, h, g, mass,
# sup_u, flux, rint, the final u between its outermost nonzero nodes (its
# node count, at most 128 of its nodes evenly spaced, and the sha256 of all
# of them).  Every platform must match the arrays to 1e-12 of each field's
# largest value.  On the recording platform (numpy's version and the highest
# SIMD target it dispatches to: powers, sines and dot products round by it)
# everything must match byte for byte, except the algebraic fixed-domain
# pair: its grid no longer grows past the right wall, so its 13 nodes
# convolve directly where the 413-node grid took the rFFT path (1e-15
# relative).  Rerecord with `PYTHONPATH=src python tests/test_solver.py`.
SHORT_RUNS = Path(__file__).parent / "data" / "short_runs.npz"
SHORT_RUN_KERNELS = {
    "cosine": (CompactCosine(1.0), 0.05),
    "algebraic": (AlgebraicTail(2.5, 1.0), 0.25),
    "truncated": (truncate(AlgebraicTail(1.5, 1.0), 4.0), 0.25),
    "uniform": (CompactUniform(1.0), 0.05),
}
SCHEMES = ("euler", "rk2")
LOGGED = ("t", "h", "g", "mass", "sup_u", "flux", "rint")


def _numeric_platform() -> tuple:
    """numpy's version and the highest SIMD target it dispatches to here."""
    found = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found") or ["none"]
    return np.__version__, found[-1]


def _short_run(name: str, variant: str, scheme: str) -> tuple:
    """(the run's final grid size, its recorded fields)."""
    kernel, dx = SHORT_RUN_KERNELS[name]
    spec = ProblemSpec(variant=variant, kernel=kernel, reaction=logistic(1, 1),
                       d=1.0, mu=2.0, h0=3.0)
    log = run(spec, SolverConfig(dx=dx, dt=0.05, t_end=2.0, log_every=0.25, scheme=scheme))
    u = np.trim_zeros(log.final_state.u)
    out = {"log": np.array([getattr(log, f) for f in LOGGED], dtype=float),
           "u": u[::-(-len(u) // 128)][None, :],
           "u_nodes": np.array(len(u)),
           "u_sha256": np.array(hashlib.sha256(u.tobytes()).hexdigest())}
    return len(log.final_state.u), out


@functools.cache
def _recorded():
    with np.load(SHORT_RUNS) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(SHORT_RUN_KERNELS))
def test_runs_match_the_recorded_logs(name, variant, scheme):
    nodes, got = _short_run(name, variant, scheme)
    if name == "uniform":
        assert nodes < quadrature.BOX_MIN_NODES
    recorded = _recorded()
    exact = (_numeric_platform() == tuple(recorded["platform"])
             and (name, variant) != ("algebraic", "fixed-domain"))
    for field, value in got.items():
        ref = recorded[f"{name}/{variant}/{scheme}/{field}"]
        if field == "u_sha256" and not exact:
            continue
        if exact or value.dtype.kind != "f":
            assert value.tobytes() == ref.tobytes(), field
        if value.dtype.kind != "f":
            continue
        assert value.shape == ref.shape, field
        for row, (a, b) in enumerate(zip(value, ref)):
            finite = np.isfinite(b)
            assert np.array_equal(np.isfinite(a), finite), (field, row)
            assert np.array_equal(a[~finite], b[~finite]), (field, row)
            scale = np.max(np.abs(b[finite]), initial=0.0)
            assert np.max(np.abs(a[finite] - b[finite]), initial=0.0) <= 1e-12 * scale, (field, row)


@pytest.mark.parametrize("scheme", ["euler", "rk2"])
def test_logged_fields_do_not_alias_the_stepped_state(scheme):
    spec = halfline_spec(h0=3.0)
    cfg = SolverConfig(dx=0.05, dt=0.05, t_end=2.0, log_every=0.25, snapshot_stride=1,
                       scheme=scheme)
    short = run(spec, cfg)
    long = run(spec, SolverConfig(dx=0.05, dt=0.05, t_end=4.0, log_every=0.25,
                                  snapshot_stride=1, scheme=scheme))
    # later steps leave earlier snapshots and the final state as they were
    for (ta, fa), (tb, fb) in zip(short.snapshots, long.snapshots):
        assert ta == tb and fa.values.tobytes() == fb.values.tobytes()
    fields = [f.values for _, f in long.snapshots] + [long.final_state.u]
    for i, a in enumerate(fields):
        assert not any(np.shares_memory(a, b) for b in fields[i + 1:])
    # step() works on a copy of the state it is given
    st = short.final_state
    before = (st.t, st.h, st.g, st.u.copy())
    after = step(spec, cfg, st)
    assert after is not st and not np.shares_memory(after.u, st.u)
    assert (st.t, st.h, st.g) == before[:3] and st.u.tobytes() == before[3].tobytes()
    assert after.t > st.t and after.h > st.h


def test_partial_log_does_not_alias_the_stepped_state():
    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 0.5, np.nan, u * (1.0 - u))

    nan_reaction = Reaction(f=f, f_prime=lambda u: 1.0 - 2.0 * np.asarray(u), u_star=1.0)
    spec = halfline_spec(reaction=nan_reaction, h0=2.0, u0=make_plateau(2.0, m=0.45))
    with pytest.raises(ConvergenceError) as err:
        run(spec, SolverConfig(dx=0.1, dt=0.05, t_end=4.0, log_every=0.05,
                               snapshot_stride=1))
    log = err.value.partial
    assert len(log.snapshots) >= 2
    fields = [fv.values for _, fv in log.snapshots] + [log.final_state.u]
    for i, a in enumerate(fields):
        assert not any(np.shares_memory(a, b) for b in fields[i + 1:])
    assert np.all(np.isfinite(log.snapshots[0][1].values))


def _negative_datum_run():
    spec = halfline_spec(h0=2.0, u0=lambda x: -np.ones_like(np.asarray(x, dtype=float)))
    return run(spec, SolverConfig(dx=0.1, dt=0.01, t_end=0.0))


def _classify_without_u_star():
    spec = halfline_spec(reaction=zero_reaction(), h0=2.0)
    return classify(run(spec, SolverConfig(dx=0.1, dt=0.01, t_end=0.05, log_every=0.01)), spec)


@pytest.mark.parametrize("call,error,message", [
    (lambda: make_plateau(1.0, m=0.0), ValidationError, "plateau needs m > 0 and ramp > 0"),
    (lambda: halfline_spec(d=0.0), ValidationError, "diffusion coefficient d must be positive"),
    (lambda: halfline_spec(h0=0.0), ValidationError, "initial front h0 must be positive"),
    (lambda: halfline_spec(mu=0.0), ValidationError, "front coefficient mu must be positive"),
    (lambda: SolverConfig(scheme="rk4"), ValidationError, "scheme must be 'euler' or 'rk2'"),
    (_negative_datum_run, ValidationError, "initial datum must be nonnegative"),
    (_classify_without_u_star, ContractError,
     "classify needs a reaction with a positive zero u*"),
    (lambda: nonlocal_operator(CompactUniform(1.0), Field(0.0, 1.0, np.ones(3)), (0.2, 0.4), 0.3),
     ContractError, "window contains no field nodes"),
    (lambda: boundary_flux(CompactUniform(1.0), Field(0.0, 1.0, np.array([1.0, -1.0, 0.0])), 2.0),
     ContractError, "boundary_flux expects a nonnegative field"),
], ids=["plateau", "d", "h0", "mu", "scheme", "negative-datum", "classify-u-star",
        "operator-window", "flux-sign"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


if __name__ == "__main__":
    runs = {f"{name}/{variant}/{scheme}/{field}": value
            for name in SHORT_RUN_KERNELS for variant in VARIANTS for scheme in SCHEMES
            for field, value in _short_run(name, variant, scheme)[1].items()}
    SHORT_RUNS.parent.mkdir(exist_ok=True)
    np.savez_compressed(SHORT_RUNS, platform=np.array(_numeric_platform()), **runs)
