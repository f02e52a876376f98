import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate

from nlfront.errors import ValidationError
from nlfront.kernels import (MASS_TOL, AlgebraicTail, CompactCosine, CompactUniform, Kernel,
                             LightExponential, kernel_from_json, truncate)

ALL_KERNELS = [
    CompactUniform(1.0),
    CompactUniform(2.5),
    CompactCosine(1.0),
    CompactCosine(0.7),
    AlgebraicTail(1.5, 1.0),
    AlgebraicTail(2.0, 1.0),
    AlgebraicTail(2.5, 1.0),
    AlgebraicTail(3.0, 1.0),
    LightExponential(1.0),
    LightExponential(2.0),
]


def test_uniform_eval_at_origin():
    assert CompactUniform(1.0).evaluate(0.0) == 0.5


def test_algebraic_eval():
    k = AlgebraicTail(2.0, 1.0)
    assert k.c == pytest.approx(0.5)
    assert k.evaluate(1.0) == pytest.approx(0.125)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: f"{k.family}-{k.params()}")
@pytest.mark.parametrize("x", [0.1, 1.0, 7.0])
def test_evenness(k, x):
    assert k.evaluate(-x) == pytest.approx(k.evaluate(x), abs=1e-15)


def test_tail_mass_examples():
    assert CompactUniform(1.0).tail_mass(0.5) == pytest.approx(0.25)
    assert AlgebraicTail(2.0, 1.0).tail_mass(1.0) == pytest.approx(0.25)
    assert CompactUniform(1.0).tail_mass(1.0) == 0.0


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: f"{k.family}-{k.params()}")
def test_tail_monotone_and_halfline_partition(k):
    s = np.linspace(0.0, 8.0, 200)
    tails = k.tail_mass(s)
    assert tails[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(tails) <= 1e-15)
    for x in (0.0, 0.3, 5.0):
        assert k.halfline_mass(x) + k.tail_mass(x) == pytest.approx(1.0)


def test_halfline_examples():
    k = CompactUniform(1.0)
    assert k.halfline_mass(0.0) == pytest.approx(0.5)
    assert k.halfline_mass(1.0) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        k.halfline_mass(np.array([0.5, -1e-9]))


def test_interaction_length_stops_when_the_bracket_does():
    calls = []

    class CountingExponential(LightExponential):
        def tail_mass(self, s):
            calls.append(s)
            return super().tail_mass(s)

    # tail_mass(s) = exp(-s)/2 reaches 1e-3 at s = ln 500
    assert CountingExponential(1.0).interaction_length(1e-3) == pytest.approx(
        math.log(500.0), rel=1e-14)
    assert len(calls) <= 80


def test_interaction_length_bisects_below_the_cap():
    # tail_mass(800) = 0.5/sqrt(801): the doubling scan passes cap = 1000
    # before the tail reaches eps, yet the answer lies below the cap
    k = AlgebraicTail(1.5, 1.0)
    assert k.interaction_length(0.5 / math.sqrt(801.0), cap=1000.0) == pytest.approx(
        800.0, rel=1e-14)
    assert k.interaction_length(0.5 / math.sqrt(1002.0), cap=1000.0) == 1000.0


def test_first_moment_uniform():
    assert CompactUniform(1.0).first_moment() == pytest.approx(0.25)


@pytest.mark.parametrize("k,exact", [
    pytest.param(CompactUniform(2.5), 2.5 / 4.0, id="uniform"),
    pytest.param(CompactCosine(0.7), 0.7 * (0.5 - 1.0 / math.pi), id="cosine"),
    pytest.param(AlgebraicTail(2.5, 1.0), 1.0, id="algebraic-2.5"),
    # the substitution u = 1 + x gives exactly 1/2 for (1+|x|)^-3
    pytest.param(AlgebraicTail(3.0, 1.0), 0.5, id="algebraic-3.0"),
    pytest.param(LightExponential(2.0), 0.25, id="exponential"),
    pytest.param(truncate(LightExponential(1.0), 4.0), None, id="truncated-exponential"),
    pytest.param(truncate(AlgebraicTail(1.5, 1.0), 4.0), None, id="truncated-algebraic-1.5"),
])
def test_first_moment_against_quadrature(k, exact):
    # the first moment is the tail integral from 0, and each tail integral
    # is the limit s2 = inf of the family's one closed form: check both
    # against adaptive quadrature of x J and of the tail
    top = k.support_radius()
    m1, _ = integrate.quad(lambda x: x * k.evaluate(x), 0.0, top, epsabs=0.0, limit=400)
    assert isinstance(k.first_moment(), float)
    assert k.first_moment() == pytest.approx(m1, rel=1e-8)
    if exact is not None:
        assert k.first_moment() == pytest.approx(exact, rel=1e-12)
    for s in (0.0, 0.4, 1.5, 6.0):
        val, _ = integrate.quad(k.tail_mass, min(s, top), top, epsabs=0.0, limit=400)
        assert isinstance(k.tail_mass_integral(s), float)
        assert k.tail_mass_integral(s) == pytest.approx(val, rel=1e-8, abs=1e-15)


TRUNCATIONS = [truncate(AlgebraicTail(1.5), 4.0), truncate(AlgebraicTail(1.5), 20.0),
               truncate(AlgebraicTail(2.5, 0.3), 4.0), truncate(LightExponential(1.0), 4.0),
               truncate(LightExponential(1.0), 10.0), truncate(CompactCosine(1.0), 0.7),
               truncate(CompactUniform(3.0), 2.0)]


def _tight_quad(f, lo, hi, k):
    """Adaptive quadrature to 1e-13 relative, broken at 0 and every kink of J_n."""
    kinks = (k.n, k.base.support_radius())
    points = sorted({p for p in (0.0, *kinks, *(-p for p in kinks)) if lo < p < hi})
    val, _ = integrate.quad(f, lo, hi, points=points or None, epsabs=0.0, epsrel=1e-13,
                            limit=2000)
    return val


@pytest.mark.parametrize("k", TRUNCATIONS, ids=["algebraic1.5-n4", "algebraic1.5-n20",
                                                 "algebraic2.5-n4", "exponential-n4",
                                                 "exponential-n10", "cosine-n0.7",
                                                 "uniform3-n2"])
def test_truncated_moments_match_a_tight_quadrature(k):
    # the fixed Gauss-Legendre rule gives the tail integrals, the first
    # moment and the exponential moments of a truncation to the last digits,
    # up to the largest exponent minimal_speed asks for (lam r = 700)
    r = k.support_radius()
    for s in (0.0, 0.4, 1.5, 6.0, 9.0):
        if s < r:
            assert k.tail_mass_integral(s) == pytest.approx(
                _tight_quad(k.tail_mass, s, r, k), rel=1e-13), s
    assert k.first_moment() == pytest.approx(
        _tight_quad(lambda x: x * k.evaluate(x), 0.0, r, k), rel=1e-13)
    for lam in (-1.0, 0.5, 3.0, 700.0 / r):
        assert k.exp_moment(lam) == pytest.approx(
            _tight_quad(lambda x: math.exp(lam * x) * k.evaluate(x), -r, r, k), rel=1e-13), lam


@pytest.mark.parametrize("k", ALL_KERNELS + [AlgebraicTail(2.0, 0.05), AlgebraicTail(1.1, 1e-3),
                                             truncate(AlgebraicTail(1.5), 4.0),
                                             truncate(CompactUniform(3.0), 2.0)])
def test_mass_audit_holds_one_tolerance_for_every_family(k):
    # one MASS_TOL for every family, heavy tails and truncations included:
    # the audit's quadrature lands on the closed-form mass to rounding
    k.condition_report()
    assert abs(k.total_mass() - k.mass_exact()) < 1e-6 * MASS_TOL


def test_first_moment_divergent_gamma2():
    # (J1) fails for gamma <= 2: the closed forms reach +inf with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (1.5, 2.0):
            k = AlgebraicTail(gamma, 1.0)
            assert k.first_moment() == math.inf
            assert k.tail_mass_integral(3.0) == math.inf


def test_exp_moment_uniform_closed_form():
    got = CompactUniform(1.0).exp_moment(1.0)
    assert got == pytest.approx(math.sinh(1.0), rel=1e-14)
    quad, _ = integrate.quad(lambda x: 0.5 * math.exp(x), -1.0, 1.0)
    assert got == pytest.approx(quad, rel=1e-10)


def test_exp_moment_divergent_for_heavy_tails():
    assert math.isinf(AlgebraicTail(1.5, 1.0).exp_moment(0.5))
    assert math.isinf(LightExponential(1.0).exp_moment(1.0))


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: f"{k.family}-{k.params()}")
def test_exp_moment_at_least_one(k):
    lam = 0.5 * min(k.mgf_abscissa(), 2.0)
    if lam > 0.0:
        assert k.exp_moment(lam) >= 1.0


@pytest.mark.parametrize("k,expect", [
    (CompactUniform(1.0), (True, True)),
    (CompactCosine(1.0), (True, True)),
    (LightExponential(1.0), (True, True)),
    (AlgebraicTail(1.5, 1.0), (False, False)),
    (AlgebraicTail(2.0, 1.0), (False, False)),
    (AlgebraicTail(2.5, 1.0), (True, False)),
])
def test_condition_report_flags(k, expect):
    rep = k.condition_report()
    assert rep.satisfies_J
    assert (rep.satisfies_J1, rep.satisfies_J2) == expect
    if rep.satisfies_J2:
        assert rep.satisfies_J1   # (J2) implies (J1)


def test_gamma_classes():
    assert AlgebraicTail(1.5, 1.0).condition_report().gamma_class == "(1,2]"
    assert AlgebraicTail(2.0, 1.0).condition_report().gamma_class == "(1,2]"
    assert AlgebraicTail(2.5, 1.0).condition_report().gamma_class == "(2,inf)"
    assert CompactUniform(1.0).condition_report().gamma_class is None


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: f"{k.family}-{k.params()}")
def test_unit_mass(k):
    tol = 1e-6 if isinstance(k, AlgebraicTail) else 1e-8
    assert abs(k.total_mass() - 1.0) <= tol


def test_malformed_kernel_rejected():
    with pytest.raises(ValidationError):
        CompactUniform(-1.0)
    with pytest.raises(ValidationError):
        AlgebraicTail(1.0, 1.0)
    with pytest.raises(ValidationError):
        AlgebraicTail(2.0, 0.0)
    with pytest.raises(ValidationError):
        LightExponential(0.0)


@pytest.mark.parametrize("build,field", [
    (lambda: CompactUniform(math.inf), "r"),
    (lambda: CompactCosine(math.nan), "r"),
    (lambda: AlgebraicTail(math.inf), "gamma"),
    (lambda: AlgebraicTail(1.5, math.inf), "a"),
    (lambda: LightExponential(math.inf), "lambda0"),
    (lambda: truncate(AlgebraicTail(1.5), math.inf), "n"),
], ids=["uniform-r", "cosine-r", "algebraic-gamma", "algebraic-a", "exponential-lambda0",
        "truncated-n"])
def test_non_finite_kernel_parameter_rejected(build, field):
    # an infinite radius or rate would build NaN taps: refused as the
    # config refuses it, naming the parameter
    with pytest.raises(ValidationError, match=f"^{field} must be a finite number"):
        build()


def test_condition_report_rejects_broken_density():
    class Broken(CompactUniform):
        def evaluate(self, x):
            return 2.0 * super().evaluate(x)   # mass 2, not 1

    with pytest.raises(ValidationError):
        Broken(1.0).condition_report()


def test_power_tail_bounds_hold():
    k = AlgebraicTail(1.5, 1.0)
    xs = np.linspace(k.xbar, 200.0, 500)
    vals = k.evaluate(xs)
    assert np.all(vals >= k.sigma1 * xs ** (-k.gamma) - 1e-15)
    assert np.all(vals <= k.sigma2 * xs ** (-k.gamma) + 1e-15)


# truncation -----------------------------------------------------------------


def test_truncate_plateau_region():
    k = AlgebraicTail(2.5, 1.0)
    tr = truncate(k, 5.0)
    assert tr.evaluate(3.0) == pytest.approx(k.evaluate(3.0), rel=1e-14)
    assert tr.evaluate(11.0) == 0.0
    assert tr.evaluate(-11.0) == 0.0


def test_truncate_uniform_inside_plateau_has_full_mass():
    tr = truncate(CompactUniform(1.0), 1.0)
    assert tr.mass_exact() == pytest.approx(1.0, abs=1e-12)


def test_truncate_mass_increases_to_one():
    k = AlgebraicTail(1.5, 1.0)
    masses = [truncate(k, n).mass_exact() for n in (1.0, 4.0, 16.0, 64.0)]
    assert np.all(np.diff(masses) > 0.0)
    assert masses[-1] < 1.0
    assert masses[-1] > 0.8
    # closed-form tail arithmetic against direct quadrature
    tr = truncate(k, 4.0)
    val, _ = integrate.quad(lambda x: tr.evaluate(x), 0.0, 8.0, limit=400)
    assert tr.tail_mass(0.0) == pytest.approx(val, rel=1e-9)


def test_truncate_pointwise_monotone_in_n():
    k = AlgebraicTail(2.0, 1.0)
    xs = np.linspace(0.0, 30.0, 301)
    prev = truncate(k, 2.0).evaluate(xs)
    for n in (4.0, 8.0, 16.0):
        cur = truncate(k, n).evaluate(xs)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_truncation_is_a_kernel_with_its_own_mass():
    tr = truncate(AlgebraicTail(1.5, 1.0), 4.0)
    assert isinstance(tr, Kernel)
    assert tr.to_json() == {"family": "truncated", "n": 4.0,
                            "base": {"family": "algebraic", "gamma": 1.5, "a": 1.0}}
    xs = np.linspace(0.0, 10.0, 41)
    assert np.array_equal(tr.halfline_mass(xs), tr.mass_exact() - tr.tail_mass(xs))
    taps = tr.taps(0.25, 40)
    covered = tr.mass_exact() - 2.0 * tr.tail_mass((40 + 0.5) * 0.25)
    assert taps.sum() * 0.25 == pytest.approx(covered, abs=1e-14)
    # cut past the support, truncation changes nothing, bit for bit
    base = CompactUniform(1.0)
    wide = truncate(base, 2.0)
    assert wide.mass_exact() == 1.0
    assert np.array_equal(wide.taps(0.05, 30), base.taps(0.05, 30))
    assert np.array_equal(wide.halfline_mass(xs), base.halfline_mass(xs))


def test_truncation_refuses_a_truncated_base():
    # a truncation's tail takes partial first moments of its base, closed
    # form for a family but not for another truncation
    with pytest.raises(ValidationError, match="truncated"):
        truncate(truncate(AlgebraicTail(1.5, 1.0), 4.0), 3.0)


def test_truncation_condition_report_audits_its_own_mass():
    # the audit compares the quadrature mass with mass_exact(), not with 1
    tr = truncate(AlgebraicTail(1.5, 1.0), 4.0)
    assert tr.mass_exact() < 0.7
    assert abs(tr.total_mass() - tr.mass_exact()) < 1e-12
    rep = tr.condition_report()
    assert rep.satisfies_J and rep.satisfies_J1 and rep.satisfies_J2
    assert rep.first_moment == pytest.approx(tr.first_moment(), rel=0.0, abs=0.0)


def test_taps_cover_exact_mass():
    k = CompactUniform(1.0)
    taps = k.taps(0.05, 21)
    assert taps.sum() * 0.05 == pytest.approx(1.0, abs=1e-14)
    assert np.all(taps == taps[::-1])
    k2 = AlgebraicTail(1.5, 1.0)
    taps2 = k2.taps(0.25, 40)
    covered = 1.0 - 2.0 * k2.tail_mass((40 + 0.5) * 0.25)
    assert taps2.sum() * 0.25 == pytest.approx(covered, abs=1e-12)


# JSON interface --------------------------------------------------------------


@pytest.mark.parametrize("k,params", [
    (CompactUniform(2.5), {"r": 2.5}),
    (CompactCosine(0.7), {"r": 0.7}),
    (AlgebraicTail(1.5, 0.3), {"gamma": 1.5, "a": 0.3}),
    (LightExponential(2.0), {"lambda0": 2.0}),
    (truncate(AlgebraicTail(2.0), 3.0),
     {"n": 3.0, "base": {"family": "algebraic", "gamma": 2.0, "a": 1.0}}),
], ids=["uniform", "cosine", "algebraic", "exponential", "truncated"])
def test_base_converts_scalars_and_derives_params(k, params):
    # a family states its array formulas; Kernel gives a float for a scalar
    # or a 0-d array, an array of the input's shape otherwise, params()
    # from the dataclass fields (a truncation's base nests as its JSON) and
    # fresh tap rows
    for x in (0.4, np.float64(0.4), np.array(0.4)):
        assert type(k.evaluate(x)) is float
        assert type(k.tail_mass(x)) is float
    grid = np.linspace(0.0, 5.0, 6).reshape(2, 3)
    for f in (k.evaluate, k.tail_mass):
        out = f(grid)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)
        assert np.allclose(out.ravel(), [f(x) for x in grid.ravel()], rtol=1e-14, atol=0.0)
    assert k.params() == params
    assert set(k.params()) == {f.name for f in fields(k)}
    # each taps call computes a fresh row its caller owns
    a, b = k.taps(0.25, 12), k.taps(0.25, 12)
    assert np.array_equal(a, b) and a is not b
    assert a.flags.writeable and b.flags.writeable


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: f"{k.family}-{k.params()}")
def test_json_roundtrip(k):
    spec = k.to_json()
    assert set(spec) == {"family", *(f.name for f in fields(k))}
    assert kernel_from_json(spec) == k


def test_json_rejects_unknown():
    with pytest.raises(ValidationError):
        kernel_from_json({"family": "gaussian"})
    with pytest.raises(ValidationError):
        kernel_from_json({"family": "compact-uniform", "gamma": 2.0})
    with pytest.raises(ValidationError, match="unknown kernel keys"):
        kernel_from_json({"family": "algebraic", "gamma": 1.5, "r": 1.0})
    with pytest.raises(ValidationError, match="unknown kernel keys"):
        kernel_from_json({"family": "light-exponential", "lambda0": 1.0, "family2": 0})
    with pytest.raises(ValidationError):
        kernel_from_json({"r": 1.0})
    # an omitted field takes its default; one without a default is refused
    assert kernel_from_json({"family": "algebraic", "gamma": 2.0}) == AlgebraicTail(2.0, 1.0)
    with pytest.raises(ValidationError, match=r"needs the keys \['gamma'\]"):
        kernel_from_json({"family": "algebraic", "a": 2.0})


def test_json_numbers_must_be_finite_numbers():
    # the library reader meets the CLI's contract: text is not a number
    with pytest.raises(ValidationError, match="kernel.r must be a finite number"):
        kernel_from_json({"family": "compact-uniform", "r": "2"})
    with pytest.raises(ValidationError, match="kernel.r"):
        kernel_from_json({"family": "compact-uniform", "r": "abc"})


@pytest.mark.parametrize("base", [CompactUniform(1.0), AlgebraicTail(1.5), LightExponential(2.0)],
                         ids=lambda k: k.family)
def test_truncation_json_roundtrip(base):
    k = truncate(base, 4.0)
    spec = json.loads(json.dumps(k.to_json()))
    assert kernel_from_json(spec) == k
    with pytest.raises(ValidationError, match="unknown kernel keys"):
        kernel_from_json({**spec, "r": 1.0})
    with pytest.raises(ValidationError, match=r"needs the keys \['n'\]"):
        kernel_from_json({"family": "truncated", "base": spec["base"]})
    with pytest.raises(ValidationError, match="truncated again"):
        kernel_from_json({"family": "truncated", "n": 3.0, "base": spec})
