"""The one quadrature for integrals against a kernel J on a uniform grid.

Every ``int J(x - y) u(y) dy`` and front flux ``int tail_mass(h - y) u(y) dy``
in the package is built here.  Nodes carry trapezoid weights.  J enters
through cell averages of its closed-form tail; the cell around the origin
holds ``mass_exact()`` minus both tails, so a constant field convolves to
mass * constant, truncated kernels included.  A window end between two
nodes leaves a partial cell on which u is linear: zero at a front, the
known value at a wall or strip; it enters as its area at its centroid.

The convolution against the taps is planned once per grid (``plan``):
rows of at most ``DIRECT_MAX_TAPS`` taps go through ``np.convolve``,
longer ones (heavy tails, whose taps span the window) multiply by an rFFT
of the taps computed with the plan.  Kernels of finite support radius r
only see nodes within r, so the front flux and the partial-cell terms skip
the others.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Cell", "Pieces", "Convolution", "FarFieldWindow", "DIRECT_MAX_TAPS", "plan",
           "trapezoid", "cell_averages", "partial_cell", "pieces", "window_integral",
           "point_integral", "front_flux"]

# Tap rows up to this length convolve directly, longer ones by rFFT.  With
# the tap spectrum cached, the rFFT path wins above about 150-300 taps for
# 1e3 to 4e4 nodes (numpy 2.4 / scipy 1.17, one thread, 2-vCPU x86 host).
DIRECT_MAX_TAPS = 200


class Cell(NamedTuple):
    area: float
    centroid: float
    mean: float            # mean of u on the cell


class Pieces(NamedTuple):
    w: np.ndarray          # trapezoid weights of the nodes i_lo..i_hi
    i_lo: int
    i_hi: int
    cells: tuple           # partial end cells, the right end first

    @property
    def sl(self) -> slice:
        return slice(self.i_lo, self.i_hi + 1)


class Convolution:
    """``dx * sum_j taps[j] v[i + m - j]`` at every node i of a signal v of at
    most n nodes (the centred part of the full convolution), m = len(taps) // 2.

    The path is fixed when the plan is made: direct for short tap rows,
    otherwise through the rFFT of the taps, which the plan keeps, at a
    length N >= n + m.  The cyclic convolution of length N folds the full
    one's outputs j and j + N together, and j + N >= n + 2m lies past the
    full convolution for every centred output j >= m, so the outputs kept
    are exact without padding to n + 2m.  A grid of another size needs a
    new plan.
    """

    def __init__(self, tap_row: np.ndarray, n: int, dx: float):
        self.taps, self.dx = tap_row, dx
        self.m = (len(tap_row) - 1) // 2
        self.nfft = None
        if len(tap_row) > DIRECT_MAX_TAPS:
            from scipy import fft

            self.fft = fft
            self.nfft = fft.next_fast_len(n + self.m, real=True)
            self.spectrum = fft.rfft(tap_row, self.nfft)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if self.nfft is None:
            full = np.convolve(v, self.taps)
        else:
            fft = self.fft
            full = fft.irfft(fft.rfft(v, self.nfft) * self.spectrum, self.nfft)
        return full[self.m:self.m + len(v)] * self.dx


def plan(kernel, dx: float, n: int) -> Convolution:
    """The convolution for n nodes; its taps reach one node past the support
    radius, or across the whole window."""
    r = kernel.support_radius()
    m = min(int(math.ceil(r / dx)) + 1, n - 1) if math.isfinite(r) else n - 1
    return Convolution(kernel.taps(dx, m), n, dx)


def _reach(kernel, y, z: float) -> slice:
    """The nodes of the sorted y within the support radius r of z."""
    r = kernel.support_radius()
    if not math.isfinite(r):
        return slice(None)
    return slice(int(y.searchsorted(z - r)), int(y.searchsorted(z + r, "right")))


def trapezoid(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def cell_averages(kernel, z, dx: float) -> np.ndarray:
    """Mean of J over [z - dx/2, z + dx/2] for any offsets z: the taps off the grid."""
    a = np.abs(np.asarray(z, dtype=float))
    inner = kernel.tail_mass(np.abs(a - 0.5 * dx))
    outer = kernel.tail_mass(a + 0.5 * dx)
    return np.where(a >= 0.5 * dx, inner - outer,
                    kernel.mass_exact() - inner - outer) / dx


def partial_cell(x_node: float, u_node: float, x_end: float, u_end: float = 0.0) -> Cell:
    """u linear from u_node at the last node to u_end at the window end."""
    s = x_end - x_node
    if u_end == 0.0:
        centroid = x_node + s / 3.0
    else:
        centroid = x_node + s * (u_node + 2.0 * u_end) / (3.0 * (u_node + u_end))
    return Cell(abs(s) * (u_node + u_end) / 2.0, centroid, (u_node + u_end) / 2.0)


def pieces(x0: float, dx: float, u: np.ndarray, lo: float, hi: float,
           lo_end: float | None = None, hi_end: float | None = None) -> Pieces:
    """Weights and partial cells of [lo, hi], clipped to the grid x0 + k dx.

    ``lo_end``/``hi_end`` is u at that end (0.0 at a front); None marks an
    end on the grid edge, which gets no partial cell.  The window must reach
    the grid: the caller checks that.
    """
    n = len(u)
    hi = min(hi, x0 + (n - 1) * dx)
    lo = max(lo, x0)
    i_hi = int(math.floor((hi - x0) / dx + 1e-12))
    x_hi = x0 + i_hi * dx
    if x_hi > hi:
        i_hi -= 1
        x_hi -= dx
    i_lo = int(math.ceil((lo - x0) / dx - 1e-12))
    x_lo = x0 + i_lo * dx
    if x_lo < lo:
        i_lo += 1
        x_lo += dx
    w = np.ones(max(i_hi - i_lo + 1, 1))
    w[0] = 0.5
    w[-1] = 0.5 if i_hi > i_lo else 0.0
    cells = []
    if hi_end is not None and hi > x_hi:
        cells.append(partial_cell(x_hi, u[i_hi], hi, hi_end))
    if lo_end is not None and x_lo > lo:
        cells.append(partial_cell(x_lo, u[i_lo], lo, lo_end))
    return Pieces(w, i_lo, i_hi, tuple(cells))


def window_integral(kernel, conv: Convolution, x, wu, cells) -> np.ndarray:
    """``int_window J(x - y) u(y) dy`` at the consecutive grid nodes x that
    carry wu = u * weights (and at no other node of the window)."""
    out = conv(wu)
    for c in cells:
        if c.area != 0.0:
            near = _reach(kernel, x, c.centroid)
            out[near] += c.area * kernel.evaluate(x[near] - c.centroid)
    return out


def point_integral(kernel, xq: float, y, wu, dx: float, cells) -> float:
    """The same integral at one point xq anywhere, from the nodes y."""
    val = float(np.dot(cell_averages(kernel, xq - y, dx), wu)) * dx
    for c in cells:
        val += c.area * float(kernel.evaluate(xq - c.centroid))
    return val


def front_flux(kernel, front: float, y, wu, dx: float, cells, side: float = 1.0) -> float:
    """``int tail_mass(side * (front - y)) u(y) dy``: the flux through a right
    (side = 1) or left (side = -1) front, from wu = u * weights on the sorted
    nodes y; nodes beyond the support radius carry no tail and are skipped."""
    near = _reach(kernel, y, front)
    y, wu = y[near], wu[near]
    flux = float(np.dot(kernel.tail_mass(np.maximum(side * (front - y), 0.0)), wu)) * dx
    for c in cells:
        flux += c.area * float(kernel.tail_mass(max(side * (front - c.centroid), 0.0)))
    return flux


class FarFieldWindow:
    """Trapezoid nodes on [-L, 0] for profiles equal to u* past -L and 0 past 0.

    The integral over y < -L is completed as mass minus the mass past 0
    minus the discrete row coverage, so u == u* solves the far-field
    equation exactly (a sharp tail at -L would leave an O(J dx) defect
    where kernel jumps meet the window edge).
    """

    def __init__(self, kernel, L: float, dx: float, u_star: float):
        self.dx, self.u_star = dx, u_star
        n = int(round(L / dx))
        self.L = n * dx
        self.x = -self.L + dx * np.arange(n + 1)
        self.conv = plan(kernel, dx, n + 1)
        self.w = trapezoid(n + 1)
        past_front = kernel.tail_mass(-self.x)
        coverage = self.conv(self.w)
        self.completion = u_star * np.clip(kernel.mass_exact() - past_front - coverage,
                                           0.0, None)
        self.flux_w = past_front * self.w * dx
        self.flux_tail = u_star * kernel.tail_mass_integral(self.L) \
            if math.isfinite(kernel.first_moment()) else 0.0

    def integral(self, values: np.ndarray) -> np.ndarray:
        """``int_R J(x - y) u(y) dy`` at the nodes, u = values on [-L, 0]."""
        return self.conv(values * self.w) + self.completion

    def flux(self, values: np.ndarray) -> float:
        """``int_{-inf}^0 tail_mass(-y) u(y) dy``, u = u* past -L."""
        return float(np.dot(self.flux_w, values)) + self.flux_tail
