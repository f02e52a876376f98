"""The one quadrature for integrals against a kernel J on a uniform grid.

Every ``int J(x - y) u(y) dy`` and front flux ``int tail_mass(h - y) u(y) dy``
in the package is built here.  Nodes carry trapezoid weights.  J enters
through cell averages of its closed-form tail; the cell around the origin
holds ``mass_exact()`` minus both tails, so a constant field convolves to
mass * constant, truncated kernels included.  A window end between two
nodes leaves a partial cell on which u is linear: zero at a front, the
known value at a wall or strip; it enters as its area at its centroid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import signal

__all__ = ["Cell", "Pieces", "FarFieldWindow", "taps", "trapezoid", "convolve",
           "cell_averages", "partial_cell", "pieces", "window_integral", "point_integral",
           "front_flux"]


class Cell(NamedTuple):
    area: float
    centroid: float
    mean: float            # mean of u on the cell


class Pieces(NamedTuple):
    w: np.ndarray          # trapezoid weights, zero off the nodes inside the window
    i_lo: int
    i_hi: int
    cells: tuple           # partial end cells, the right end first


def taps(kernel, dx: float, n: int) -> np.ndarray:
    """Taps for n nodes: one past the support radius, or the whole window."""
    r = kernel.support_radius()
    m = min(int(math.ceil(r / dx)) + 1, n - 1) if math.isfinite(r) else n - 1
    return kernel.taps(dx, m)


def trapezoid(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def convolve(wu: np.ndarray, tap_row: np.ndarray, dx: float) -> np.ndarray:
    return signal.convolve(wu, tap_row, mode="same", method="auto") * dx


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
    end on the grid edge, which gets no partial cell.
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
    w = np.zeros(n)
    w[i_lo:i_hi + 1] = 1.0
    w[i_lo] = 0.5
    w[i_hi] = 0.5 if i_hi > i_lo else 0.0
    cells = []
    if hi_end is not None and hi > x_hi:
        cells.append(partial_cell(x_hi, u[i_hi], hi, hi_end))
    if lo_end is not None and x_lo > lo:
        cells.append(partial_cell(x_lo, u[i_lo], lo, lo_end))
    return Pieces(w, i_lo, i_hi, tuple(cells))


def window_integral(kernel, tap_row, dx: float, x, wu, cells) -> np.ndarray:
    """``int_window J(x - y) u(y) dy`` at every grid node x; wu = u * weights."""
    conv = convolve(wu, tap_row, dx)
    for c in cells:
        if c.area != 0.0:
            conv += c.area * kernel.evaluate(x - c.centroid)
    return conv


def point_integral(kernel, xq: float, y, wu, dx: float, cells) -> float:
    """The same integral at one point xq anywhere, from the nodes y."""
    val = float(np.dot(cell_averages(kernel, xq - y, dx), wu)) * dx
    for c in cells:
        val += c.area * float(kernel.evaluate(xq - c.centroid))
    return val


def front_flux(kernel, front: float, y, wu, dx: float, cells, side: float = 1.0) -> float:
    """``int tail_mass(side * (front - y)) u(y) dy``: the flux through a right
    (side = 1) or left (side = -1) front, from wu = u * weights on the nodes y."""
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
        self.kernel, self.dx, self.u_star = kernel, dx, u_star
        n = int(round(L / dx))
        self.L = n * dx
        self.x = -self.L + dx * np.arange(n + 1)
        self.taps = taps(kernel, dx, n + 1)
        self.w = trapezoid(n + 1)
        past_front = kernel.tail_mass(-self.x)
        coverage = convolve(self.w, self.taps, dx)
        self.completion = u_star * np.clip(kernel.mass_exact() - past_front - coverage,
                                           0.0, None)
        self.flux_w = past_front * self.w * dx

    def integral(self, values: np.ndarray) -> np.ndarray:
        """``int_R J(x - y) u(y) dy`` at the nodes, u = values on [-L, 0]."""
        return convolve(values * self.w, self.taps, self.dx) + self.completion

    def flux(self, values: np.ndarray) -> float:
        """``int_{-inf}^0 tail_mass(-y) u(y) dy``, u = u* past -L."""
        k = self.kernel
        tail = self.u_star * k.tail_mass_integral(self.L) \
            if math.isfinite(k.first_moment()) else 0.0
        return float(np.dot(self.flux_w, values)) + tail
