import os
import subprocess
import sys

import numpy as np
import pytest

import nlfront
from nlfront import quadrature
from nlfront.kernels import AlgebraicTail, CompactCosine, CompactUniform, truncate
from nlfront.errors import ContractError
from nlfront.reactions import logistic
from nlfront.semiwave import SemiWaveConfig, solve_semiwave
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


@pytest.mark.parametrize("lo,hi,i_lo,i_hi", [
    (0.0, 0.35 * (1 - 1e-14), 0, 6), (0.35 * (1 + 1e-14), 1.0, 8, 20)],
    ids=["hi-below-node", "lo-above-node"])
def test_pieces_end_a_hair_off_a_node(lo, hi, i_lo, i_hi):
    # the rounding slack lands on node 7 (x = 0.35), which lies outside the
    # window: the last node inside is the one before, and the partial cell
    # spans almost all of dx
    p = quadrature.pieces(0.0, 0.05, np.ones(21), lo, hi, lo_end=0.0, hi_end=0.0)
    assert (p.i_lo, p.i_hi) == (i_lo, i_hi)
    assert [c.area for c in p.cells] == [pytest.approx(0.025, rel=1e-12)]


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
def test_stepper_matches_pointwise_operators(variant, kernel, dx, grown=False):
    reaction = logistic(1.0, 1.0)
    spec = ProblemSpec(variant=variant, kernel=kernel, reaction=reaction,
                       d=1.0, mu=1.0, h0=3.0)
    cfg = SolverConfig(dx=dx, dt=0.05, t_end=2.0)
    st = run(spec, cfg).final_state
    assert (st.h - st.x0) / dx % 1.0 > 1e-6        # the front sits between nodes

    eng = _Engine(spec, cfg)
    eng.state = st
    eng._refresh_taps()
    if grown:
        n, conv = len(st.u), eng.conv
        eng._grow(eng.x[0], eng.x[-1])             # the run's growth rule, on both sides
        assert len(st.u) > n and eng.conv is not conv
    sl, rate, flux_r, _ = eng._rhs()
    p = eng._window()[0]
    assert p.cells and sl == p.sl

    u = st.as_field()
    lo = 0.0 if variant == "halfline-fb" else st.g
    form = "halfline" if variant == "halfline-fb" else "full"
    for i in range(p.i_lo, p.i_hi + 1):
        op = nonlocal_operator(kernel, u, (lo, st.h), u.x[i], d=spec.d, form=form)
        assert rate[i - p.i_lo] == pytest.approx(op + reaction.f(st.u[i]), rel=0.0, abs=1e-12)
    assert boundary_flux(kernel, u, st.h, lo) == pytest.approx(flux_r, rel=1e-12)


@pytest.mark.parametrize("variant", ["halfline-fb", "twosided-fb"])
@pytest.mark.parametrize("kernel,dx", CASES, ids=["uniform", "cosine", "algebraic", "truncated"])
def test_stepper_matches_pointwise_operators_after_growth(variant, kernel, dx):
    test_stepper_matches_pointwise_operators(variant, kernel, dx, grown=True)


def test_stepper_on_the_box_path_matches_pointwise_operators():
    reaction = logistic(1.0, 1.0)
    spec = ProblemSpec(variant="halfline-fb", kernel=CompactUniform(1.0), reaction=reaction,
                       d=1.0, mu=1.0, h0=62.0, u0=lambda x: np.clip(62.0 - x, 0.0, 1.0))
    cfg = SolverConfig(dx=0.05, dt=0.05, t_end=1.0)
    st = run(spec, cfg).final_state
    eng = _Engine(spec, cfg)
    eng.state = st
    eng._refresh_taps()
    assert eng.conv.path == "box"
    sl, rate, flux_r, _ = eng._rhs()
    u = st.as_field()
    for i in list(range(sl.start, sl.stop, 37)) + list(range(sl.stop - 30, sl.stop)):
        op = nonlocal_operator(spec.kernel, u, (0.0, st.h), u.x[i], d=spec.d)
        assert rate[i - sl.start] == pytest.approx(op + reaction.f(st.u[i]), rel=0.0, abs=1e-12)
    assert boundary_flux(spec.kernel, u, st.h) == pytest.approx(flux_r, rel=1e-12)


def _direct(v, tap_row, dx):
    m = len(tap_row) // 2
    return np.convolve(v, tap_row)[m:m + len(v)] * dx


@pytest.mark.parametrize("n,k", [(400, 43), (400, 799), (50, 99), (3000, 401)],
                         ids=["short", "window", "window-small", "long"])
def test_convolution_plan_matches_direct(n, k):
    rng = np.random.default_rng(k)
    tap_row = rng.random(k)
    conv = quadrature.Convolution(tap_row, n, 0.1)
    assert conv.path == ("direct" if k <= quadrature.DIRECT_MAX_TAPS else "fft")
    assert (conv.nfft is None) == (k <= quadrature.DIRECT_MAX_TAPS)
    v = rng.random(n)
    ref = _direct(v, tap_row, 0.1)
    assert np.max(np.abs(conv(v) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a shorter signal (the active nodes of a wider grid) uses the same plan
    assert np.max(np.abs(conv(v[:n // 3]) - _direct(v[:n // 3], tap_row, 0.1))) \
        <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dx", [0.1, 0.05, 0.025])
def test_box_path_matches_direct(dx):
    # the uniform kernel's flat row; a plan for 1e5 nodes serves shorter signals
    conv = quadrature.plan(CompactUniform(1.0), dx, 100_000)
    assert conv.path == "box"
    errs = []
    for n in (1_000, 24_000, 100_000):
        v = np.random.default_rng(n).random(n)
        ref = _direct(v, conv.taps, dx)
        errs.append(np.max(np.abs(conv(v) - ref)) / np.max(np.abs(ref)))
    assert max(errs) <= 1e-13
    # prefix sums within blocks: the rounding does not grow with the signal
    assert errs[-1] <= 3.0 * errs[0]


def test_plan_picks_the_box_path_only_for_flat_rows_past_the_size_rule():
    uniform = CompactUniform(1.0)
    for dx in (0.1, 0.05, 0.025):
        k = len(uniform.taps(dx, int(np.ceil(1.0 / dx)) + 1))
        n_min = max(quadrature.BOX_MIN_NODES, -(-quadrature.BOX_MIN_WORK // k))
        assert quadrature.plan(uniform, dx, n_min).path == "box"
        assert quadrature.plan(uniform, dx, n_min - 1).path == "direct"
    assert quadrature.plan(uniform, 0.1, 1200).path == "direct"     # 23 taps: too short
    for kernel, dx in [(CompactCosine(1.0), 0.05), (AlgebraicTail(1.5, 1.0), 0.25),
                       (AlgebraicTail(1.5, 1.0), 0.05),
                       (truncate(AlgebraicTail(1.5, 1.0), 4.0), 0.25)]:
        for n in (300, 5_000, 50_000):
            assert quadrature.plan(kernel, dx, n).path != "box"


def test_convolution_plan_is_rebuilt_on_growth():
    # heavy tail: the taps span the window, so the plan is the cached rFFT
    spec = ProblemSpec(variant="halfline-fb", kernel=AlgebraicTail(1.5, 1.0),
                       reaction=logistic(1.0, 1.0), d=1.0, mu=1.0, h0=3.0)
    eng = _Engine(spec, SolverConfig(dx=0.25, dt=0.05))
    rng = np.random.default_rng(0)
    for _ in range(2):
        n, conv = len(eng.state.u), eng.conv
        assert conv.nfft is not None and len(conv.taps) == 2 * n - 1
        v = rng.random(n)
        ref = _direct(v, conv.taps, eng.dx)
        assert np.max(np.abs(conv(v) - ref)) <= 1e-13 * np.max(np.abs(ref))
        eng._grow(0.0, eng.x[-1])
        assert len(eng.state.u) > n and eng.conv is not conv


def _tail_scalar(k, s: float) -> float:
    """int_s^inf J_n for one s, in scalar arithmetic: the reference."""
    n, b = k.n, k.base
    if s >= 2.0 * n:
        return 0.0
    lo = max(s, n)
    # taper band [lo, 2n]: integrand (2 - x/n) J(x)
    band = 2.0 * (b.tail_mass(lo) - b.tail_mass(2.0 * n)) \
        - b.partial_first_moment(lo, 2.0 * n) / n
    if s < n:
        band += b.tail_mass(s) - b.tail_mass(n)
    return band


def test_truncated_tail_mass_vectorized_matches_scalar():
    # array and scalar powers may round apart in the last bit
    for base in (AlgebraicTail(1.5, 1.0), AlgebraicTail(2.0, 1.0), CompactCosine(3.0)):
        k = truncate(base, 4.0)
        s = np.concatenate([np.linspace(0.0, 12.0, 1201), [4.0, 8.0]])
        scalar = np.array([_tail_scalar(k, float(v)) for v in s])
        assert np.max(np.abs(k.tail_mass(s) - scalar)) <= 1e-15
        assert all(abs(k.tail_mass(v) - r) <= 1e-15 for v, r in zip(s[::50], scalar[::50]))
        assert k.tail_mass(np.array([8.0, 9.0])).tolist() == [0.0, 0.0]


def test_window_off_the_field_is_a_contract_error():
    u = Field(0.0, 0.05, np.ones(10))
    with pytest.raises(ContractError):
        nonlocal_operator(CompactUniform(1.0), u, (5.0, 6.0), 5.5)
    with pytest.raises(ContractError):
        boundary_flux(CompactUniform(1.0), u, 6.0, lo=5.0)
    with pytest.raises(ContractError):
        boundary_flux(CompactUniform(1.0), Field(1.0, 0.05, np.ones(10)), 0.5)


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nlfront.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy and numpy.polynomial are imported where they are used, so
    # starting the CLI loads none of them
    names = [f"scipy.{m}" for m in ("signal", "integrate", "optimize", "linalg", "fft",
                                          "sparse")] + ["numpy.polynomial"]
    code = f"import nlfront.cli, sys; print([m for m in {names!r} if m in sys.modules])"
    assert _fresh_interpreter(code) == "[]"


def test_cli_import_leaves_command_modules_unloaded():
    # the fits, the barrier checks and the process pool load with the
    # commands that use them; the package still reaches them by attribute
    names = ["nlfront.validation", "nlfront.asymptotics", "concurrent.futures.process"]
    code = (f"import nlfront.cli, sys; print([m for m in {names!r} if m in sys.modules]); "
            "import nlfront; print(nlfront.validation.Lattice.__name__)")
    assert _fresh_interpreter(code).splitlines() == ["[]", "Lattice"]


def test_heavy_tail_runs_load_no_scipy():
    # the rFFT path picks its length in the package: stepping needs no scipy
    code = """
import sys
from nlfront import quadrature
from nlfront.kernels import AlgebraicTail, truncate
from nlfront.reactions import logistic
from nlfront.solver import ProblemSpec, SolverConfig, make_plateau, run
for k in (AlgebraicTail(1.5), truncate(AlgebraicTail(1.5), 20.0)):
    print(quadrature.plan(k, 0.05, 200).path)
    spec = ProblemSpec(variant="halfline-fb", kernel=k, reaction=logistic(1.0, 1.0),
                       d=1.0, mu=1.0, h0=10.0, u0=make_plateau(10.0))
    run(spec, SolverConfig(dx=0.05, dt=0.02, t_end=0.2))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert _fresh_interpreter(code).splitlines() == ["fft", "fft", "[]"]



def test_compact_kernel_profiles_load_only_lapack():
    # the band of a compact kernel holds its reach, so no solve imports GMRES,
    # the dispersion curve is minimized in the package, and LAPACK's band
    # routines load from their file without the scipy.linalg package or
    # scipy's array-API layer: one compiled module is all of scipy.linalg
    code = """
import sys
from nlfront.kernels import CompactCosine, CompactUniform
from nlfront.reactions import logistic
from nlfront.semiwave import (SemiWaveConfig, minimal_speed, mu_curve, solve_semiwave,
                              stationary_profile)
coarse = SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0)
for k in (CompactUniform(1.0), CompactCosine(1.0)):
    solve_semiwave(k, logistic(1, 1), 1.0, 1.0, coarse)
    minimal_speed(k, logistic(1, 1), 1.0)
    mu_curve(k, logistic(1, 1), 1.0, (0.01, 1.0, 100.0), coarse)
    for d in (1e-3, 1.0, 100.0):
        stationary_profile(k, logistic(1, 1), d)
print([m for m in ("scipy.linalg._flapack", "scipy.linalg", "scipy._lib._array_api",
                   "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.integrate")
       if m in sys.modules])
"""
    assert _fresh_interpreter(code) == "['scipy.linalg._flapack']"


def test_truncated_kernel_moments_load_no_scipy_integrate():
    # a truncation's tail integrals, exponential moments and mass audit come
    # from the package's fixed Gauss-Legendre rule, which loads
    # numpy.polynomial on first use and no scipy.integrate
    code = """
import sys
from nlfront.kernels import LightExponential, truncate
from nlfront.reactions import logistic
from nlfront.semiwave import (SemiWaveConfig, minimal_speed, solve_semiwave,
                              stationary_profile)
k = truncate(LightExponential(1.0), 4.0)
solve_semiwave(k, logistic(1, 1), 1.0, 1.0, SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0))
minimal_speed(k, logistic(1, 1), 1.0)
stationary_profile(k, logistic(1, 1), 1.0)
k.condition_report()
print([m for m in ("numpy.polynomial", "scipy.integrate") if m in sys.modules])
"""
    assert _fresh_interpreter(code) == "['numpy.polynomial']"


_SOLVE_TWICE = """
import sys
from nlfront import semiwave
from nlfront.kernels import CompactUniform
from nlfront.reactions import logistic

def solve():
    cfg = semiwave.SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0)
    c0 = semiwave.solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, cfg).c0
    return c0.hex(), semiwave._band_lapack()

before, band = solve()
print("scipy.linalg" in sys.modules)
import numpy as np
import scipy.linalg
after, again = solve()
ours = sys.modules["scipy.linalg._flapack"]
print(scipy.linalg.lapack._flapack is ours, again == band == (ours.dgbtrf, ours.dgbtrs),
      tuple(scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (np.zeros(1),))) == band)
print(before == after, before)
"""


def _coarse_uniform_c0() -> str:
    cfg = SemiWaveConfig(dx=0.04, L0=20.0, max_doublings=0)
    return solve_semiwave(CompactUniform(1.0), logistic(1, 1), 1.0, 1.0, cfg).c0.hex()


def test_band_lapack_is_the_module_scipy_linalg_imports():
    # solved before and after `import scipy.linalg`: the package reuses the
    # module loaded from its file, and both solves give this process's c0
    out = _fresh_interpreter(_SOLVE_TWICE).splitlines()
    assert out == ["False", "True True True", f"True {_coarse_uniform_c0()}"]


def test_band_lapack_falls_back_to_an_ordinary_import():
    # where the extension's file is not found, `import scipy.linalg._flapack`
    # loads the same routines (and the package) for the same c0
    code = "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = ['.missing']\n"
    out = _fresh_interpreter(code + _SOLVE_TWICE).splitlines()
    assert out == ["True", "True True True", f"True {_coarse_uniform_c0()}"]


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    ns = range(1, 100_001)
    assert [quadrature.fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]
