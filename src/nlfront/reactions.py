"""Monostable growth terms: validation, roots, the plateau constant rho,
and the delta-perturbations used by kernel-truncation arguments.

A growth term qualifies when f(0) = 0 < f'(0), f has a positive zero u*
with f'(u*) < 0, and f(u)/u is strictly decreasing.  Those are continuum
conditions; we certify them on a dense audit grid (1e4 points on (0, 2u*])
and keep the grid resolution explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .kernels import bisect_bracket

__all__ = [
    "Reaction",
    "FReport",
    "logistic",
    "custom",
    "zero_reaction",
    "validate_F",
    "positive_root",
    "rho_constant",
    "perturb",
    "reaction_from_json",
]

AUDIT_POINTS = 10_000


@dataclass(frozen=True)
class Reaction:
    """A growth term with explicit derivative.

    ``u_star`` and ``rho`` are filled from one :func:`validate_F` pass at
    construction time for the built-in kinds.
    ``rho`` satisfies f(u) >= rho * min(u, u* - u) on the audit grid,
    reduced by a 1% safety margin.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    u_star: float | None = None
    rho: float | None = None

    def fprime0(self) -> float:
        return float(self.f_prime(0.0))

    def max_abs_fprime(self, cap: float | None = None) -> float:
        """max |f'| on [0, 2 u*] (or [0, cap]); enters the stability budget."""
        hi = cap if cap is not None else 2.0 * (self.u_star or 1.0)
        grid = np.linspace(0.0, hi, 2049)
        return float(np.max(np.abs(self.f_prime(grid))))

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class FReport:
    passed: bool
    failures: tuple[str, ...]
    u_star: float | None


def positive_root(r: Reaction, u_max: float = 1e6) -> float:
    """u*, the least float at which the computed f stops being positive."""
    if not r.fprime0() > 0.0:
        raise ValidationError("positive_root requires f'(0) > 0")
    lo = 1e-8
    while float(r.f(lo)) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ValidationError("no positive region of f near 0")
    hi = max(2.0 * lo, 1e-4)
    while float(r.f(hi)) > 0.0:
        hi *= 2.0
        if hi > u_max:
            raise ValidationError(f"no sign change of f on (0, {u_max}]")
    return bisect_bracket(lambda u: float(r.f(u)) > 0.0, lo, hi)


def validate_F(r: Reaction) -> FReport:
    """Certify the monostability conditions on a dense grid.

    Failures are collected, not raised; the report lists each broken clause.
    """
    failures = []
    if abs(float(r.f(0.0))) > 1e-12:
        failures.append("f(0) != 0")
    fp0 = r.fprime0()
    if not fp0 > 0.0:
        failures.append(f"f'(0) = {fp0} is not positive")

    u_star = None
    if fp0 > 0.0:
        try:
            u_star = positive_root(r)
        except ValidationError as exc:
            failures.append(str(exc))
    if u_star is not None:
        fpu = float(r.f_prime(u_star))
        if not fpu < 0.0:
            failures.append(f"f'(u*) = {fpu} is not negative")
        grid = np.linspace(0.0, 2.0 * u_star, AUDIT_POINTS + 1)[1:]
        ratio = r.f(grid) / grid
        if not np.all(np.diff(ratio) < 0.0):
            failures.append("f(u)/u is not strictly decreasing on the audit grid")
        # the supplied derivative must match a central difference
        h = 1e-6 * max(1.0, u_star)
        probes = np.linspace(0.1 * u_star, 1.9 * u_star, 37)
        fd = (r.f(probes + h) - r.f(probes - h)) / (2.0 * h)
        if not np.allclose(fd, r.f_prime(probes), rtol=1e-5, atol=1e-6):
            failures.append("f_prime disagrees with finite differences of f")
    return FReport(passed=not failures, failures=tuple(failures), u_star=u_star)


def rho_constant(r: Reaction, margin: float = 0.01) -> float:
    """Largest grid-certified rho with f(u) >= rho*min(u, u*-u) on [0, u*].

    The grid minimum is reduced by ``margin`` so the certified constant keeps
    a documented gap to the continuum infimum.
    """
    return _certify(r, margin)[1]


def _certify(r: Reaction, margin: float = 0.01) -> tuple[float, float]:
    """u* and rho (see :func:`rho_constant`) from one :func:`validate_F` pass."""
    rep = validate_F(r)
    if not rep.passed:
        raise ValidationError("rho_constant requires a validated reaction: "
                              + "; ".join(rep.failures))
    u_star = rep.u_star
    grid = np.linspace(0.0, u_star, AUDIT_POINTS + 1)[1:-1]
    denom = np.minimum(grid, u_star - grid)
    rho_raw = float(np.min(r.f(grid) / denom))
    if rho_raw <= 0.0:
        raise ValidationError("computed rho <= 0 contradicts monostability")
    return u_star, rho_raw * (1.0 - margin)


def perturb(r: Reaction, delta: float) -> Reaction:
    """f~ = f - delta*u, with its positive root as ``u_star``; requires
    0 < delta < f'(0) so f~ stays monostable."""
    if not delta > 0.0:
        raise ValidationError("perturbation delta must be positive")
    if not delta < r.fprime0():
        raise ValidationError(
            f"delta = {delta} >= f'(0) = {r.fprime0()}: perturbation kills monostability")
    tf = lambda u, _f=r.f, _d=delta: _f(u) - _d * np.asarray(u, dtype=float)
    tfp = lambda u, _fp=r.f_prime, _d=delta: _fp(u) - _d
    return _monostable(tf, tfp, "perturbed", {"base": r.to_json(), "delta": delta})


def _monostable(f, fp, kind: str, params: dict) -> Reaction:
    """The reaction (f, fp) with its positive root as ``u_star`` and its
    certified plateau constant as ``rho``."""
    root, rho = _certify(Reaction(f=f, f_prime=fp))
    return Reaction(f=f, f_prime=fp, kind=kind, params=params, u_star=root, rho=rho)


# ---------------------------------------------------------------------------
# constructors and the named registry
# ---------------------------------------------------------------------------


def logistic(a: float = 1.0, b: float = 1.0) -> Reaction:
    """f(u) = u (a - b u): u* = a/b, f'(0) = a."""
    if not (a > 0.0 and b > 0.0):
        raise ValidationError("logistic needs a > 0 and b > 0")
    f = lambda u: np.asarray(u, dtype=float) * (a - b * np.asarray(u, dtype=float))
    fp = lambda u: a - 2.0 * b * np.asarray(u, dtype=float)
    return _monostable(f, fp, "logistic", {"a": a, "b": b})


def _cubic_f(u):
    u = np.asarray(u, dtype=float)
    return u * (1.0 - u * u)


def _cubic_fp(u):
    u = np.asarray(u, dtype=float)
    return 1.0 - 3.0 * u * u


CUSTOM_FORMS: dict[str, tuple[Callable, Callable]] = {
    "cubic": (_cubic_f, _cubic_fp),
}


def custom(name: str) -> Reaction:
    """A named monostable form from the built-in registry."""
    if name not in CUSTOM_FORMS:
        raise ValidationError(f"unknown custom reaction {name!r}; "
                              f"registry has {sorted(CUSTOM_FORMS)}")
    f, fp = CUSTOM_FORMS[name]
    return _monostable(f, fp, "custom", {"name": name})


def zero_reaction() -> Reaction:
    """f == 0: diagnostic mode for conservation checks.

    Deliberately fails validate_F; solvers accept it because they only
    evaluate f and |f'|.
    """
    zf = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    return Reaction(f=zf, f_prime=zf, kind="zero", params={}, u_star=None, rho=None)


def reaction_from_json(obj: dict) -> Reaction:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("reaction spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "logistic":
        extra = set(obj) - {"kind", "a", "b"}
        if extra:
            raise ValidationError(f"unknown logistic keys {sorted(extra)}")
        return logistic(float(obj.get("a", 1.0)), float(obj.get("b", 1.0)))
    if kind == "custom":
        if set(obj) - {"kind", "name"}:
            raise ValidationError("custom reactions take only a 'name'")
        return custom(obj["name"])
    if kind == "zero":
        return zero_reaction()
    raise ValidationError(f"unknown reaction kind {kind!r}")
