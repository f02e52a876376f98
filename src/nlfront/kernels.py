"""Dispersal kernel families: evaluation, tails, moments, classification.

Every family is even, continuous, positive at the origin and normalized to
unit mass.  Cumulative tails ``tail_mass(s) = int_s^inf J`` are closed form
for all families; they drive the solver's cell-averaged quadrature taps and
the heavy-tail completions, so no adaptive quadrature sits in a hot loop.
So is the tail's integral between s1 and s2 <= inf, save a truncation's
(``gauss``): by Fubini its limit from 0 is the first moment, +inf iff (J1) fails.

Families
--------
CompactUniform(r)     J(x) = 1/(2r) on |x| <= r
CompactCosine(r)      J(x) = (pi/4r) cos(pi x / 2r) on |x| <= r
AlgebraicTail(g, a)   J(x) = c (a + |x|)^(-g), c = (g-1) a^(g-1) / 2
LightExponential(l0)  J(x) = (l0/2) exp(-l0 |x|)
truncate(J, n)        J_n(x) = xi(x/n) J(x) of a family J, a sub-probability kernel

The algebraic family keeps J continuous with J(0) > 0 while matching the
|x|^(-gamma) tail exactly; the bounding constants sigma1/sigma2 and the
threshold where they apply are stored on the kernel.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "Kernel",
    "CompactUniform",
    "CompactCosine",
    "AlgebraicTail",
    "LightExponential",
    "TruncatedKernel",
    "KernelReport",
    "truncate",
    "kernel_from_json",
]

MASS_TOL = 1e-8                 # tolerance of the unit-mass audit


@dataclass(frozen=True)
class KernelReport:
    """Which of the structural conditions a kernel satisfies."""

    satisfies_J: bool
    satisfies_J1: bool
    satisfies_J2: bool
    first_moment: float            # +inf when divergent
    mgf_abscissa: float            # sup of lambdas with finite exp moment
    gamma_class: str | None = None  # "(1,2]", "(2,inf)" or None

    def __post_init__(self):
        if self.satisfies_J2 and not self.satisfies_J1:
            raise ValidationError("inconsistent report: (J2) implies (J1)")


class Kernel:
    """Base class.  A family is a frozen dataclass of its parameters with array
    formulas ``_density`` and ``_tail``; the base converts scalars, derives
    ``params()`` and the JSON from the fields, and gives the generic ops."""

    family = "abstract"

    # -- the closed forms, a float for a scalar argument ----------------------

    def evaluate(self, x):
        """Density J(x): a float for a scalar x, else an array of x's shape."""
        out = self._density(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def tail_mass(self, s):
        """``int_s^inf J(z) dz`` for s >= 0, shaped as ``evaluate``.  Decreasing,
        tail_mass(0) = mass_exact()/2."""
        out = self._tail(np.asarray(s, dtype=float))
        return out if out.ndim else float(out)

    def mgf_abscissa(self) -> float:
        raise NotImplementedError

    def support_radius(self) -> float:
        return math.inf

    def params(self) -> dict:
        """The family's dataclass fields, which ``kernel_from_json`` accepts."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- generic derived operations ---------------------------------------

    def tail_mass_integral_between(self, s1, s2):
        """``int_{s1}^{s2} tail_mass(z) dz``; s1, s2 may be arrays, and s2 may
        be +inf, where the integral is +inf exactly when (J1) fails.  A family
        with no closed form (a truncation) takes scalar ``gauss`` up to its
        finite support radius, past which its tail vanishes."""
        R = self.support_radius()
        return gauss(self.tail_mass, min(s1, R), min(s2, R), math.inf, self._panel_ends(R))

    def exp_moment(self, lam: float) -> float:
        """``int_R J(x) e^(lam x) dx``; +inf when divergent.  With no closed
        form, ``gauss`` over the finite support, on panels across which
        e^(lam x) grows at most e^4."""
        R = self.support_radius()
        return gauss(lambda x: np.exp(lam * x) * self.evaluate(x), -R, R,
                     4.0 / abs(lam) if lam else math.inf, self._panel_ends(R))

    def halfline_mass(self, x):
        """j(x) = int_0^inf J(x - y) dy = mass_exact() - tail_mass(x) for x >= 0."""
        if np.any(np.asarray(x) < 0.0):
            raise ValidationError("halfline_mass requires x >= 0")
        return self.mass_exact() - self.tail_mass(x)

    def tail_mass_integral(self, s: float) -> float:
        """``int_s^inf tail_mass(z) dz``; +inf exactly when (J1) fails."""
        return float(self.tail_mass_integral_between(s, math.inf))

    def first_moment(self) -> float:
        """``int_0^inf x J(x) dx = int_0^inf tail_mass`` by Fubini; +inf when (J1) fails."""
        return self.tail_mass_integral(0.0)

    def partial_first_moment(self, s1: float, s2: float) -> float:
        """``int_{s1}^{s2} x J(x) dx`` via integration by parts (closed form)."""
        if np.any(np.less(s2, s1)):
            raise ValidationError("partial_first_moment needs s1 <= s2")
        t1, t2 = self.tail_mass(s1), self.tail_mass(s2)
        return s1 * t1 - s2 * t2 + self.tail_mass_integral_between(s1, s2)

    def interaction_length(self, eps: float = 1e-3, cap: float = 1e6) -> float:
        """Smallest s with tail_mass(s) <= eps, capped.

        Used for window headroom and dichotomy thresholds; for compact
        kernels this is essentially the support radius.
        """
        r = self.support_radius()
        if math.isfinite(r):
            return r
        hi = 1.0
        while self.tail_mass(hi) > eps:
            if hi >= cap:
                return cap
            hi = min(2.0 * hi, cap)
        return bisect_bracket(lambda s: self.tail_mass(s) > eps, 0.0, hi)

    def _panel_ends(self, R: float, kinks=()) -> list:
        """``gauss`` breaks on [-R, R]: 0, R halved 40 times (the algebraic
        family varies on the scale of its offset a near 0) and J's kinks."""
        ends = np.concatenate([R * 0.5 ** np.arange(41), kinks])
        return [0.0, *ends, *-ends]

    def total_mass(self) -> float:
        """Mass audit: ``gauss`` on a core + closed-form tails."""
        r = self.support_radius()
        core = r if math.isfinite(r) else 10.0 * self.interaction_length(1e-2, cap=1e3)
        return (gauss(self.evaluate, -core, core, math.inf, self._panel_ends(core))
                + 2.0 * self.tail_mass(core))

    def quadrature_scale(self) -> float:
        """Length scale over which J varies; grids should resolve it."""
        r = self.support_radius()
        return r if math.isfinite(r) else 1.0

    def mass_exact(self) -> float:
        """Total mass by construction; sub-probability truncations override."""
        return 1.0

    def taps(self, dx: float, m: int) -> np.ndarray:
        """Cell-averaged samples K_j = mean of J over [(j-1/2)dx, (j+1/2)dx].

        Symmetric array of length 2m+1.  ``dx * sum(taps)`` equals the exact
        mass on [-(m+1/2)dx, (m+1/2)dx], so a convolution against a constant
        field reproduces the constant without quadrature bias even for
        discontinuous or heavy-tailed J.  Each call computes a fresh row, so
        a plan owns its taps and a grid that grows frees the old ones.
        """
        tails = self.tail_mass((np.arange(m + 1) + 0.5) * dx)
        half = np.empty(m + 1)
        half[0] = (self.mass_exact() - 2.0 * tails[0]) / dx
        half[1:] = (tails[:-1] - tails[1:]) / dx
        return np.concatenate([half[:0:-1], half])

    # -- classification -----------------------------------------------------

    def condition_report(self) -> KernelReport:
        """Audit J (nonnegative, even, positive at 0, of its exact mass), then classify it."""
        xs = np.array([0.0, 0.1, 0.37, 1.0, 2.3, 7.0])
        vals_p = self.evaluate(xs)
        vals_m = self.evaluate(-xs)
        if np.any(vals_p < 0.0) or np.any(vals_m < 0.0):
            raise ValidationError("kernel takes negative values")
        if not np.allclose(vals_p, vals_m, rtol=0.0, atol=1e-12):
            raise ValidationError("kernel is not even")
        if not float(self.evaluate(0.0)) > 0.0:
            raise ValidationError("kernel vanishes at the origin")
        mass, exact = self.total_mass(), self.mass_exact()
        if abs(mass - exact) > MASS_TOL:
            raise ValidationError(f"kernel mass {mass!r} is off {exact!r} by > {MASS_TOL}")
        m1 = self.first_moment()
        mgf = self.mgf_abscissa()
        return KernelReport(
            satisfies_J=True,
            satisfies_J1=math.isfinite(m1),
            satisfies_J2=mgf > 0.0,
            first_moment=m1,
            mgf_abscissa=mgf,
            gamma_class=self._gamma_class(),
        )

    def _gamma_class(self):
        return None

    def to_json(self) -> dict:
        return {"family": self.family, **self.params()}


def bisect_bracket(below, lo: float, hi: float) -> float:
    """Bisect [lo, hi], where ``below`` holds at lo and fails at hi, until the
    bracket stops shrinking, and return its upper end."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


def gauss(f, lo: float, hi: float, width: float, breaks=()) -> float:
    """``int_lo^hi f`` for lo <= hi by 20-point Gauss-Legendre on panels at most
    ``width`` wide that end at every break; ``f`` maps arrays to arrays."""
    ends = np.unique(np.clip([lo, hi, *breaks], lo, hi))
    n = np.maximum(1, np.ceil(np.diff(ends) / width)).astype(int)
    half = np.repeat(np.diff(ends) / (2 * n), n)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)     # panel within its piece
    mid = np.repeat(ends[:-1], n) + (2 * k + 1) * half
    t, w = _legendre20()
    return float(np.sum(half[:, None] * w * f(mid[:, None] + half[:, None] * t)))


@lru_cache(maxsize=1)
def _legendre20():
    from numpy.polynomial.legendre import leggauss   # ~2 MiB, so on first use only

    return leggauss(20)


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Compact(Kernel):
    """Families supported on [-r, r]: every exponential moment is finite."""

    r: float = 1.0

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValidationError(f"{self.family.removeprefix('compact-')} kernel needs r > 0")

    def mgf_abscissa(self):
        return math.inf

    def support_radius(self):
        return self.r


class CompactUniform(_Compact):
    """Uniform density on [-r, r]."""

    family = "compact-uniform"

    def _density(self, x):
        return np.where(np.abs(x) <= self.r, 1.0 / (2.0 * self.r), 0.0)

    def _tail(self, s):
        return np.maximum(self.r - s, 0.0) / (2.0 * self.r)

    def tail_mass_integral_between(self, s1, s2):
        a = np.minimum(s1, self.r)
        b = np.minimum(s2, self.r)
        # int (r-z)/(2r) dz = -(r-z)^2/(4r)
        return ((self.r - a) ** 2 - (self.r - b) ** 2) / (4.0 * self.r)

    def exp_moment(self, lam):
        z = lam * self.r
        return math.sinh(z) / z if z != 0.0 else 1.0


class CompactCosine(_Compact):
    """Cosine bump (pi/4r) cos(pi x / 2r) on [-r, r]; C^0 at the support edge."""

    family = "compact-cosine"

    @property
    def _a(self):
        return math.pi / (2.0 * self.r)

    def _density(self, x):
        out = np.where(np.abs(x) <= self.r, (math.pi / (4.0 * self.r)) * np.cos(self._a * x), 0.0)
        return np.clip(out, 0.0, None)

    def _tail(self, s):
        out = 0.5 * (1.0 - np.sin(self._a * np.clip(s, 0.0, self.r)))
        return np.where(s >= self.r, 0.0, out)

    def tail_mass_integral_between(self, s1, s2):
        a = self._a
        lo, hi = np.minimum(s1, self.r), np.minimum(s2, self.r)
        # int (1 - sin(a z))/2 dz = z/2 + cos(a z)/(2a)
        f = lambda z: z / 2.0 + np.cos(a * z) / (2.0 * a)
        return f(hi) - f(lo)

    def exp_moment(self, lam):
        a = self._a
        return (math.pi / (4.0 * self.r)) * 2.0 * a * math.cosh(lam * self.r) / (lam * lam + a * a)


@dataclass(frozen=True)
class AlgebraicTail(Kernel):
    """Smooth heavy-tailed family c (a + |x|)^(-gamma) with exact power tail.

    Satisfies the two-sided power bound with sigma2 = c for all x != 0 and
    sigma1 = c (xbar/(a+xbar))^gamma for |x| >= xbar (default xbar = 10 a).
    """

    gamma: float
    a: float = 1.0
    family = "algebraic"

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValidationError("algebraic kernel needs gamma > 1 for unit mass")
        if not self.a > 0.0:
            raise ValidationError("algebraic kernel needs shape offset a > 0")

    @property
    def c(self) -> float:
        """Normalizing constant (gamma-1) a^(gamma-1) / 2."""
        return 0.5 * (self.gamma - 1.0) * self.a ** (self.gamma - 1.0)

    @property
    def xbar(self) -> float:
        return 10.0 * self.a

    @property
    def sigma1(self) -> float:
        return self.c * (self.xbar / (self.a + self.xbar)) ** self.gamma

    @property
    def sigma2(self) -> float:
        return self.c

    def _density(self, x):
        return self.c * (self.a + np.abs(x)) ** (-self.gamma)

    def _tail(self, s):
        return (self.c / (self.gamma - 1.0)) * (self.a + s) ** (1.0 - self.gamma)

    def tail_mass_integral_between(self, s1, s2):
        g, a, c = self.gamma, self.a, self.c
        if g == 2.0:
            return c * np.log((a + s2) / (a + s1))
        k = c / ((g - 1.0) * (2.0 - g))
        return k * ((a + s2) ** (2.0 - g) - (a + s1) ** (2.0 - g))

    def exp_moment(self, lam):
        return math.inf

    def mgf_abscissa(self):
        return 0.0

    def _gamma_class(self):
        return "(1,2]" if self.gamma <= 2.0 else "(2,inf)"


@dataclass(frozen=True)
class LightExponential(Kernel):
    """Two-sided exponential (lambda0/2) exp(-lambda0 |x|): unbounded support, (J2) holds."""

    lambda0: float = 1.0
    family = "light-exponential"

    def __post_init__(self):
        if not self.lambda0 > 0.0:
            raise ValidationError("exponential kernel needs lambda0 > 0")

    def _density(self, x):
        return 0.5 * self.lambda0 * np.exp(-self.lambda0 * np.abs(x))

    def _tail(self, s):
        return 0.5 * np.exp(-self.lambda0 * s)

    def tail_mass_integral_between(self, s1, s2):
        l0 = self.lambda0
        return (np.exp(-l0 * s1) - np.exp(-l0 * s2)) / (2.0 * l0)

    def exp_moment(self, lam):
        if abs(lam) >= self.lambda0:
            return math.inf
        l2 = self.lambda0 * self.lambda0
        return l2 / (l2 - lam * lam)

    def mgf_abscissa(self):
        return self.lambda0

    def quadrature_scale(self):
        return 1.0 / self.lambda0


# ---------------------------------------------------------------------------
# truncation J_n(x) = xi(x/n) J(x), xi = plateau cutoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedKernel(Kernel):
    """Sub-probability kernel J_n = xi(x/n) J(x): equals J on |x|<=n, 0 past 2n.

    Its tails, taps and half-line mass carry the missing mass through
    ``mass_exact``, so truncation composes with reaction perturbation the
    way the approximating systems require.
    """

    base: Kernel
    n: float
    family = "truncated"

    def __post_init__(self):
        if not self.n > 0.0:
            raise ValidationError("truncation radius must be positive")
        if isinstance(self.base, TruncatedKernel):
            # its tail is the base's partial first moment, closed form only for a family
            raise ValidationError("a truncated kernel cannot be truncated again")

    def _density(self, x):
        return np.clip(2.0 - np.abs(x / self.n), 0.0, 1.0) * self.base.evaluate(x)

    def support_radius(self):
        return min(2.0 * self.n, self.base.support_radius())

    def quadrature_scale(self):
        return min(self.base.quadrature_scale(), self.support_radius())

    def interaction_length(self, eps: float = 1e-3, cap: float = 1e6) -> float:
        return min(self.support_radius(), self.base.interaction_length(eps, cap))

    def _tail(self, s):
        """``int_s^inf J_n``, closed form through base tails and partial moments."""
        n, b, top = self.n, self.base, 2.0 * self.n
        lo = np.clip(s, n, top)
        # taper band [max(s, n), 2n]: integrand (2 - x/n) J(x); plus [s, n] when s < n
        out = 2.0 * (b.tail_mass(lo) - b.tail_mass(top)) - b.partial_first_moment(lo, top) / n
        out = out + np.where(s < n, b.tail_mass(np.minimum(s, n)) - b.tail_mass(n), 0.0)
        return np.where(s >= top, 0.0, out)

    def _panel_ends(self, R, kinks=()):
        return super()._panel_ends(R, (self.n, *kinks))     # the plateau's kink

    def mass_exact(self) -> float:
        return 2.0 * self.tail_mass(0.0)

    def mgf_abscissa(self) -> float:
        """J_n vanishes past 2n, so every exponential moment is finite."""
        return math.inf

    def params(self) -> dict:
        return {"n": self.n, "base": self.base.to_json()}


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def truncate(kernel, n):
    return TruncatedKernel(kernel, float(n))


_FAMILIES = {cls.family: cls for cls in (CompactUniform, CompactCosine, AlgebraicTail,
                                         LightExponential, TruncatedKernel)}


def kernel_from_json(obj: dict) -> Kernel:
    """The kernel whose ``to_json()`` is ``obj``: a family's fields, or a
    truncation's ``n`` and its ``base`` family."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError("kernel spec must be an object with a 'family' key")
    fam = obj["family"]
    if fam not in _FAMILIES:
        raise ValidationError(f"unknown kernel family {fam!r}")
    cls = _FAMILIES[fam]
    keys = [f.name for f in fields(cls)]
    extra = set(obj) - {"family", *keys}
    if extra:
        raise ValidationError(f"unknown kernel keys {sorted(extra)} for family {fam!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise ValidationError(f"kernel family {fam!r} needs the keys {missing}")
    kwargs = {k: kernel_from_json(obj[k]) if k == "base" else float(obj[k])
              for k in keys if k in obj}
    return cls(**kwargs)
