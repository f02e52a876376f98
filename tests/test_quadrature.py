import numpy as np
import pytest

from nlfront import quadrature
from nlfront.kernels import AlgebraicTail, CompactCosine, CompactUniform, truncate
from nlfront.reactions import logistic
from nlfront.solver import (Field, ProblemSpec, SolverConfig, _Engine, boundary_flux,
                            nonlocal_operator, run)


def test_partial_cell_is_linear():
    # zero at a front: triangle with centroid a third of the way in
    c = quadrature.partial_cell(2.0, 0.6, 2.3)
    assert c.area == pytest.approx(0.09, abs=1e-15)
    assert c.centroid == pytest.approx(2.1, abs=1e-15)
    # a known wall value: trapezoid, centroid pulled toward the larger end
    c = quadrature.partial_cell(0.3, 1.0, 0.0, 2.0)
    assert c.area == pytest.approx(0.45, abs=1e-15)
    assert c.centroid == pytest.approx(0.3 - 0.3 * 5.0 / 9.0, abs=1e-15)
    assert c.mean == pytest.approx(1.5, abs=1e-15)


def test_cell_averages_match_taps_on_the_grid():
    k = truncate(AlgebraicTail(1.5, 1.0), 2.0)
    dx = 0.25
    taps = k.taps(dx, 20)
    off = quadrature.cell_averages(k, dx * np.arange(-20, 21), dx)
    assert np.max(np.abs(off - taps)) < 1e-13


def test_truncated_kernel_constant_field_has_no_bias():
    # u == 1 and a sub-probability kernel: int J_n(x-y) dy = mass = j(x) at
    # nodes farther than 2n from both ends, so the operator vanishes
    k = truncate(AlgebraicTail(1.5, 1.0), 20.0)
    u = Field(0.0, 0.5, np.ones(201))
    assert abs(nonlocal_operator(k, u, (0.0, 100.0), 50.0)) < 1e-12


CASES = [
    (CompactUniform(1.0), 0.05),
    (CompactCosine(1.0), 0.05),
    (AlgebraicTail(1.5, 1.0), 0.25),
    (truncate(AlgebraicTail(1.5, 1.0), 4.0), 0.25),
]


@pytest.mark.parametrize("variant", ["halfline-fb", "twosided-fb"])
@pytest.mark.parametrize("kernel,dx", CASES, ids=["uniform", "cosine", "algebraic", "truncated"])
def test_stepper_matches_pointwise_operators(variant, kernel, dx):
    reaction = logistic(1.0, 1.0)
    spec = ProblemSpec(variant=variant, kernel=kernel, reaction=reaction,
                       d=1.0, mu=1.0, h0=3.0)
    cfg = SolverConfig(dx=dx, dt=0.05, t_end=2.0)
    st = run(spec, cfg).final_state
    assert (st.h - st.x0) / dx % 1.0 > 1e-6        # the front sits between nodes

    eng = _Engine(spec, cfg)
    eng.state = st
    eng._refresh_taps()
    rate, flux_r, _ = eng._rhs(st)
    p = eng._pieces(st)
    assert p.cells

    u = st.as_field()
    lo = 0.0 if variant == "halfline-fb" else st.g
    form = "halfline" if variant == "halfline-fb" else "full"
    for i in range(p.i_lo, p.i_hi + 1):
        op = nonlocal_operator(kernel, u, (lo, st.h), u.x[i], d=spec.d, form=form)
        assert rate[i] == pytest.approx(op + reaction.f(st.u[i]), rel=0.0, abs=1e-12)
    assert boundary_flux(kernel, u, st.h, lo) == pytest.approx(flux_r, rel=1e-12)
