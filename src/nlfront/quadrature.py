"""The one quadrature for integrals against a kernel J on a uniform grid.

Every ``int J(x - y) u(y) dy`` and front flux ``int tail_mass(h - y) u(y) dy``
in the package is built here.  Nodes carry trapezoid weights.  J enters
through cell averages of its closed-form tail; the cell around the origin
holds ``mass_exact()`` minus both tails, so a constant field convolves to
mass * constant, truncated kernels included.  A window end between two
nodes leaves a partial cell on which u is linear: zero at a front, the
known value at a wall or strip; it enters as its area at its centroid.

The convolution against the taps is planned once per grid (``plan``) and
takes one of three paths (``Convolution``).  A flat row, equal taps around
the centre with at most one nonzero tap next to each end of the run (the
uniform kernel), is a box sum from blocked prefix sums plus the two end
taps, O(n) per call, once the grid has ``BOX_MIN_NODES`` nodes and
``BOX_MIN_WORK`` tap-node products.  Other rows of at most
``DIRECT_MAX_TAPS`` taps convolve directly, and longer ones (heavy tails,
whose taps span the window) multiply by an rFFT of the taps computed with
the plan.  The size rules are measured crossovers, not settings.  Kernels
of finite support radius r only see nodes within r, so the front flux and
the partial-cell terms skip the others.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Cell", "Pieces", "Convolution", "FarFieldWindow", "DIRECT_MAX_TAPS",
           "BOX_MIN_NODES", "BOX_MIN_WORK", "fast_len", "plan", "trapezoid",
           "cell_averages", "partial_cell", "pieces", "window_integral",
           "point_integral", "front_flux"]

# Tap rows up to this length convolve directly, longer ones by rFFT.  With
# the tap spectrum cached, the rFFT path wins above about 150-300 taps for
# 1e3 to 4e4 nodes (numpy 2.4 / scipy 1.17, one thread, 2-vCPU x86 host).
DIRECT_MAX_TAPS = 200
# A flat row (see ``Convolution``) of k taps on n nodes takes the box path
# when n >= BOX_MIN_NODES and k n >= BOX_MIN_WORK: its cost is O(n) against
# the direct path's O(k n), but it makes about ten passes over the signal.
# Measured as DIRECT_MAX_TAPS was, it loses below about 1000 nodes at 43
# taps and wins by a quarter at 1200; at 23 taps it wins above about 1500.
BOX_MIN_NODES = 1200
BOX_MIN_WORK = 36_000
# outputs per block of the box path's prefix sums; rows of this many taps
# or more convolve directly or by rFFT
BOX_BLOCK = 256


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

    The path is fixed when the plan is made:

    * ``box`` for a flat row, whose taps around the centre are equal up to
      rounding (the uniform kernel's 0, 1/4, 1/2 ... 1/2, 1/4, 0) and are
      nonzero outside that run only next to its ends, once the size rule
      above says it pays.  The run is a box sum, taken as
      differences of prefix sums within blocks of ``BOX_BLOCK`` outputs (a
      block total carries a sum across a block edge), so rounding stays at
      the size of one block's sum however long the signal; the end taps
      are shifted adds.  Outputs match the direct path to rounding.
    * ``direct`` for other rows of at most ``DIRECT_MAX_TAPS`` taps:
      ``np.correlate`` with the reversed taps, as ``np.convolve`` does; a
      signal shorter than the row goes through ``np.convolve`` itself,
      which swaps the operands.
    * ``fft`` for longer rows: the rFFT of the taps, which the plan keeps,
      at a length N >= n + m.  The cyclic convolution of length N folds the
      full one's outputs j and j + N together, and j + N >= n + 2m lies past
      the full convolution for every centred output j >= m, so the outputs
      kept are exact without padding to n + 2m.

    A grid of another size needs a new plan.
    """

    def __init__(self, tap_row: np.ndarray, n: int, dx: float):
        self.taps, self.dx = tap_row, dx
        self.m = (len(tap_row) - 1) // 2
        self.nfft = None
        run = (_flat_run(tap_row) if n >= BOX_MIN_NODES and len(tap_row) * n >= BOX_MIN_WORK
               else None)
        if run is not None:
            self._box_plan(*run)
        elif len(tap_row) > DIRECT_MAX_TAPS:
            self.path = "fft"
            self.nfft = fast_len(n + self.m)
            self.spectrum = np.fft.rfft(tap_row, self.nfft)
        else:
            self.path = "direct"
            self.reversed = tap_row[::-1].copy()

    def _box_plan(self, a: int, b: int):
        row, m = self.taps, self.m
        self.path = "box"
        self.width = b - a + 1
        self.lead = b - m + 1          # z[j] = v[j - lead]; output i sums z[i+1 .. i+width]
        self.level = float(np.mean(row[a:b + 1])) * self.dx
        # the end taps next to the run: output i gets them times z[i + width + 1] and z[i]
        self.ends = (float(row[a - 1]) * self.dx if a > 0 else 0.0,
                     float(row[b + 1]) * self.dx if b + 1 < len(row) else 0.0)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if self.path == "box":
            return self._box(v)
        if self.path == "direct":
            if len(v) >= len(self.taps):
                return np.correlate(v, self.reversed, "same") * self.dx
            return np.convolve(v, self.taps)[self.m:self.m + len(v)] * self.dx
        full = np.fft.irfft(np.fft.rfft(v, self.nfft) * self.spectrum, self.nfft)
        return full[self.m:self.m + len(v)] * self.dx

    def _box(self, v: np.ndarray) -> np.ndarray:
        n, w, B = len(v), self.width, BOX_BLOCK
        rows = -(-n // B)
        z = np.zeros((rows + 1) * B)
        z[self.lead:self.lead + n] = v
        sums = np.cumsum(z.reshape(rows + 1, B), axis=1)
        flat = sums.reshape(-1)
        box = flat[w:w + rows * B] - flat[:rows * B]
        # a window that crosses into the next block adds its own block's total
        box.reshape(rows, B)[:, B - w:] += sums[:rows, -1:]
        out = box[:n]
        out *= self.level
        t_lo, t_hi = self.ends
        if t_lo:
            out += t_lo * z[w + 1:w + 1 + n]
        if t_hi:
            out += t_hi * z[:n]
        return out


def fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the lengths pocketfft's real
    transforms take fastest; equal to ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:                    # p = 3^b 5^c times the least 2^a reaching n
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _flat_run(row: np.ndarray):
    """(a, b) when row[a..b] is the run of taps around the centre that equal
    it up to rounding (a tap is a difference of tails over dx, so within a
    few ulps of the row's total) and only the taps next to it, if any, are
    nonzero outside it; None otherwise."""
    m = (len(row) - 1) // 2
    if len(row) >= BOX_BLOCK:
        return None
    other = np.flatnonzero(np.abs(row - row[m]) > 4.0 * np.finfo(float).eps * np.abs(row).sum())
    a = int(other[other < m].max()) + 1 if np.any(other < m) else 0
    b = int(other[other > m].min()) - 1 if np.any(other > m) else len(row) - 1
    if np.any(row[:max(a - 1, 0)]) or np.any(row[b + 2:]):
        return None
    return a, b


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
    """``int tail_mass(|front - y|) u(y) dy``: the flux through a right
    (side = 1) or left (side = -1) front, from wu = u * weights on the sorted
    nodes y and the cells, none of them past the front; nodes beyond the
    support radius carry no tail and are skipped."""
    near = _reach(kernel, y, front)
    right = side > 0.0
    y = y[near]
    flux = float(np.dot(kernel.tail_mass(front - y if right else y - front), wu[near])) * dx
    for c in cells:
        z = c.centroid
        flux += c.area * float(kernel.tail_mass(front - z if right else z - front))
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
        tail = kernel.tail_mass_integral(self.L)      # +inf when (J1) fails
        self.flux_tail = u_star * tail if math.isfinite(tail) else 0.0

    def integral(self, values: np.ndarray) -> np.ndarray:
        """``int_R J(x - y) u(y) dy`` at the nodes, u = values on [-L, 0]."""
        return self.conv(values * self.w) + self.completion

    def flux(self, values: np.ndarray) -> float:
        """``int_{-inf}^0 tail_mass(-y) u(y) dy``, u = u* past -L."""
        return float(np.dot(self.flux_w, values)) + self.flux_tail
