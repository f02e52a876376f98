import numpy as np
import pytest

from nlfront.errors import ValidationError
from nlfront.reactions import (Reaction, custom, logistic, perturb,
                               positive_root, reaction_from_json,
                               rho_constant, validate_F, zero_reaction)


def test_logistic_passes_F():
    assert validate_F(logistic(1, 1)).passed


def test_quadratic_without_growth_fails():
    bad = Reaction(f=lambda u: np.asarray(u) ** 2 - np.asarray(u),
                   f_prime=lambda u: 2.0 * np.asarray(u) - 1.0)
    rep = validate_F(bad)
    assert not rep.passed
    assert any("f'(0)" in msg for msg in rep.failures)


def test_bistable_fails():
    u = np.asarray
    bad = Reaction(f=lambda v: u(v) * (1 - u(v)) * (u(v) - 0.3),
                   f_prime=lambda v: (1 - 2 * u(v)) * (u(v) - 0.3) + u(v) * (1 - u(v)))
    assert not validate_F(bad).passed


def test_wrong_derivative_is_caught():
    bad = Reaction(f=lambda u: np.asarray(u) * (1.0 - np.asarray(u)),
                   f_prime=lambda u: 1.0 - np.asarray(u))   # should be 1 - 2u
    rep = validate_F(bad)
    assert any("finite differences" in msg for msg in rep.failures)


@pytest.mark.parametrize("a,b,root", [(1.0, 1.0, 1.0), (2.0, 1.0, 2.0)])
def test_logistic_roots(a, b, root):
    assert abs(positive_root(logistic(a, b)) - root) < 1e-11


def test_cubic_root():
    assert abs(custom("cubic").u_star - 1.0) < 1e-11


def test_roots_to_the_last_bit():
    # u* is the least float at which the computed f stops being positive:
    # 2/3 correctly rounded, and 1.0 exactly where f vanishes there
    assert logistic(1, 1).u_star == 1.0
    assert logistic(2, 3).u_star == 2.0 / 3.0 == 0.6666666666666666
    assert custom("cubic").u_star == 1.0
    r = logistic(2, 3)
    assert float(r.f(r.u_star)) <= 0.0 < float(r.f(np.nextafter(r.u_star, 0.0)))


def test_root_not_found():
    grow = Reaction(f=lambda u: np.asarray(u, dtype=float),
                    f_prime=lambda u: np.ones_like(np.asarray(u, dtype=float)))
    with pytest.raises(ValidationError):
        positive_root(grow, u_max=1e4)


def test_rho_logistic_is_half():
    # minimize u(1-u)/min(u, 1-u) on (0,1): the analytic minimum is 1/2 at u=1/2
    assert rho_constant(logistic(1, 1), margin=0.0) == pytest.approx(0.5, abs=2e-4)
    r2 = Reaction(f=lambda u: 2.0 * np.asarray(u) * (1.0 - np.asarray(u)),
                  f_prime=lambda u: 2.0 - 4.0 * np.asarray(u), u_star=1.0)
    assert rho_constant(r2, margin=0.0) == pytest.approx(1.0, abs=4e-4)


def test_construction_solves_u_star_once(monkeypatch):
    # u*, the audit and rho come from one validate_F pass
    from nlfront import reactions

    calls = []

    def counted(r, *args, **kwargs):
        calls.append(r)
        return root(r, *args, **kwargs)

    root = reactions.positive_root
    monkeypatch.setattr(reactions, "positive_root", counted)
    r = logistic(1, 1)
    assert len(calls) == 1
    assert r.u_star == 1.0
    assert r.rho == rho_constant(r)


def test_rho_margin_and_certificate():
    r = logistic(1, 1)
    rho = rho_constant(r)
    assert rho == pytest.approx(0.99 * rho_constant(r, margin=0.0), rel=1e-12)
    grid = np.linspace(0.0, r.u_star, 10_001)[1:-1]
    assert np.all(r.f(grid) >= rho * np.minimum(grid, r.u_star - grid))


def test_f_over_u_strictly_decreasing():
    for r in (logistic(1, 1), logistic(2, 1), custom("cubic")):
        grid = np.linspace(0.0, 2.0 * r.u_star, 10_001)[1:]
        ratio = r.f(grid) / grid
        assert np.all(np.diff(ratio) < 0.0)


def test_perturb_root():
    p = perturb(logistic(1, 1), 0.1)
    assert abs(p.u_star - 0.9) < 1e-11
    assert validate_F(p).passed


def test_perturb_contract():
    r = logistic(1, 1)
    with pytest.raises(ValidationError):
        perturb(r, 0.0)
    with pytest.raises(ValidationError):
        perturb(r, -0.1)
    with pytest.raises(ValidationError):
        perturb(r, 1.0)


def test_perturb_monotone_in_delta():
    r = logistic(1, 1)
    roots = [perturb(r, d).u_star for d in (0.2, 0.1, 0.05)]
    assert np.all(np.diff(roots) > 0.0)
    assert roots[-1] < r.u_star


def test_zero_reaction_is_diagnostic_only():
    z = zero_reaction()
    assert not validate_F(z).passed
    assert float(z.f(0.7)) == 0.0
    assert z.u_star is None


def test_json_roundtrip():
    for r in (logistic(1.5, 2.0), custom("cubic"), zero_reaction(), perturb(logistic(1, 1), 0.1)):
        back = reaction_from_json(r.to_json())
        assert back.kind == r.kind
        assert back.params == r.params
        assert back.u_star == r.u_star
    with pytest.raises(ValidationError):
        reaction_from_json({"kind": "bistable"})
    with pytest.raises(ValidationError):
        reaction_from_json({"kind": "custom", "name": "nope"})
    with pytest.raises(ValidationError):
        reaction_from_json({"kind": "logistic", "a": 1.0, "c": 2.0})


def test_json_numbers_must_be_finite_numbers():
    # the library reader meets the CLI's contract: text is not a number
    with pytest.raises(ValidationError, match="reaction.a must be a finite number"):
        reaction_from_json({"kind": "logistic", "a": "2"})
