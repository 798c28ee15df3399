"""Weighted fractional integral and two-parameter fractional derivative.

This module discretizes the psi-weighted Riemann-Liouville integral

    (I^{mu;psi} f)(t) = (1/Gamma(mu)) * int_0^t psi'(xi) (psi(t)-psi(xi))^(mu-1) f(xi) dxi

on a grid whose nodes are uniform in tau = psi(t): tau_i = psi(0) + i*dtau.
The substitution tau = psi(xi) removes psi' from the integrand and reduces
the kernel to (tau_i - tau)^(mu-1); the smooth factor is interpolated
linearly in tau and the kernel is integrated exactly on each panel
(product-trapezoidal rule).  The resulting weights are nonnegative and
reproduce (psi(t_i)-psi(0))^mu / Gamma(mu+1) on f == 1 to round-off.

Because the tau spacing is uniform for every increasing psi, the weights
are a convolution: w[i,j] depends only on i - j for j >= 1.  Every plan is
stored in O(n) (column 0 and the lag vector) and applied by FFT in
O(n log n).  An n x n array is built in two places only: the dense
QuadraturePlan.weights on demand, and the solver's kernel grid for a
Volterra kernel that is not t-separable (one that split_kernel cannot
write as g(t)*h(s, u)).  When either would exceed physical memory,
GridTooLargeError (a ValueError) names both figures before anything is
allocated.

The two-parameter derivative of type (alpha, beta) is evaluated
compositionally: an integral of order (1-beta)(1-alpha), then d/dtau
(central differences on the uniform tau grid), then an integral of order
beta(1-alpha).  Zero-order integrals are the identity.

Grids, plans and grid functions are immutable after construction, and the
functions here are pure.  A plan's apply is not reentrant across threads:
it works in scratch arrays kept on the plan, so two threads must not apply
one plan at the same time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FractionalOrder",
    "PsiGrid",
    "GridFunction",
    "QuadraturePlan",
    "InvalidOrderError",
    "DegenerateGridError",
    "GridMismatchError",
    "GridTooLargeError",
    "make_grid",
    "build_plan",
    "check_memory",
    "frac_integral",
    "hilfer_derivative",
]


class InvalidOrderError(ValueError):
    """Order parameters outside their legal ranges."""


class DegenerateGridError(ValueError):
    """Grid whose weight function is not strictly increasing."""


class GridMismatchError(ValueError):
    """Operands defined on different grids."""


class GridTooLargeError(ValueError):
    """An n^2 array the grid needs would not fit in physical memory."""


def _readonly(array, dtype=float):
    out = np.ascontiguousarray(np.asarray(array, dtype=dtype))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FractionalOrder:
    """Order pair (alpha, beta) with 0 < alpha < 1 and 0 <= beta <= 1.

    The derived exponent gamma = alpha + beta*(1 - alpha) governs the
    weight of the initial condition and the strength of the prefactor
    singularity at t = 0.  It is always recomputed, never stored.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidOrderError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise InvalidOrderError(f"beta must lie in [0, 1], got {self.beta}")

    @property
    def gamma(self):
        return self.alpha + self.beta * (1.0 - self.alpha)


@dataclass(frozen=True)
class PsiGrid:
    """Nodes 0 = t_0 < ... < t_{n-1} = T, uniform in tau = psi(t).

    psi_values holds tau_i = psi(0) + i*dtau (the last one is psi(T)), and
    t_i is the smallest float with psi(t_i) >= tau_i; for affine psi on a
    grid with exact spacing this is np.linspace(0, T, n).  Build grids
    with make_grid.
    """

    T: float
    n: int
    t: np.ndarray
    psi_values: np.ndarray

    @property
    def dtau(self):
        """The uniform spacing (psi(T) - psi(0))/(n - 1) of the tau nodes."""
        return (self.psi_values[-1] - self.psi_values[0]) / (self.n - 1)


def make_grid(T, n, psi):
    """Build a PsiGrid from a horizon, node count and weight function.

    Each interior t_i is found by bisection between the two nodes of
    np.linspace(0, T, n) whose psi values bracket tau_i, all nodes at once,
    down to adjacent floats.

    Parameters
    ----------
    T : float
        Horizon of the interval [0, T], must be positive.
    n : int
        Number of nodes, at least 2.
    psi : callable
        Increasing weight function; called with arrays of nodes and
        expected to return an array of the same shape.
    """
    if not T > 0.0:
        raise DegenerateGridError(f"horizon T must be positive, got {T}")
    if n < 2:
        raise DegenerateGridError(f"need at least 2 nodes, got {n}")
    bracket = np.linspace(0.0, float(T), int(n))
    psi_bracket = np.asarray(psi(bracket), dtype=float)
    if psi_bracket.shape != bracket.shape or not np.all(np.isfinite(psi_bracket)):
        raise DegenerateGridError("psi must return finite values on the grid")
    if np.any(np.diff(psi_bracket) <= 0.0):
        raise DegenerateGridError("psi values must be strictly increasing")
    dtau = (psi_bracket[-1] - psi_bracket[0]) / (n - 1)
    tau = psi_bracket[0] + np.arange(n) * dtau
    tau[-1] = psi_bracket[-1]
    # invariant psi(lo) < tau <= psi(hi); stop when lo and hi are adjacent
    above = np.searchsorted(psi_bracket, tau[1:-1])
    lo, hi = bracket[above - 1], bracket[above]
    # where the float just below hi already falls short, hi is the answer
    # (every node of an affine psi on an exactly spaced linspace)
    below = np.nextafter(hi, lo)
    lo = np.where(np.asarray(psi(below), dtype=float) < tau[1:-1], below, lo)
    while True:
        mid = lo + 0.5 * (hi - lo)
        active = (lo < mid) & (mid < hi)
        if not active.any():
            break
        reached = np.asarray(psi(mid), dtype=float) >= tau[1:-1]
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid, lo)
    t = np.concatenate([[0.0], hi, [float(T)]])
    return PsiGrid(float(T), int(n), _readonly(t), _readonly(tau))


def same_grid(a, b):
    """Whether two grids are interchangeable (identical or equal node data)."""
    if a is b:
        return True
    return (
        a.n == b.n
        and a.T == b.T
        and np.array_equal(a.t, b.t)
        and np.array_equal(a.psi_values, b.psi_values)
    )


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on a PsiGrid."""

    grid: PsiGrid
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        if values.shape != (self.grid.n,):
            raise GridMismatchError(
                f"expected {self.grid.n} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise GridMismatchError("grid function values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class QuadraturePlan:
    """Lower-triangular weights w[i,j] with (I^{mu;psi}f)(t_i) = sum_j w[i,j] f(t_j).

    Build plans with build_plan and apply them with apply.  Every column
    j >= 1 is a shifted copy of column 1, so only column 0 and the lag
    vector lags[m] = w[m+1, 1] are stored, together with the lag vector's
    rFFT, and apply is an FFT convolution in O(n log n).
    """

    mu: float
    grid: PsiGrid
    _first: np.ndarray = field(repr=False)
    _lags: np.ndarray = field(repr=False)
    _spectrum: np.ndarray = field(repr=False)
    _scratch: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def weights(self):
        """The dense weight matrix, materialized on demand."""
        n = self.grid.n
        check_memory(8 * n * n, f"materializing a {n}x{n} weight matrix")
        # window r of the reversed, zero-padded lags is row n-1-r of
        # columns 1..n-1: lags[i-1], ..., lags[0], then zeros
        padded = np.concatenate([np.zeros(n - 1), self._lags])[::-1]
        dense = np.empty((n, n))
        dense[:, 0] = self._first
        dense[:, 1:] = np.lib.stride_tricks.sliding_window_view(padded, n - 1)[::-1]
        return _readonly(dense)

    def apply(self, x):
        """Weighted integral of x: W @ x for a vector or an n x P block.

        Keeps the monotonicity of the dense product exactly: x >= 0 gives a
        result >= 0.  The positive and negative parts of x are convolved
        separately and each is clipped at 0, so FFT round-off cannot turn
        a nonnegative sum negative.  A part that is zero in every row
        convolves to exactly zero and is not transformed, so a column of one
        sign costs one transform pair, not two.

        The parts, their spectra and their convolutions are written into
        scratch arrays kept on the plan and grown to the largest block seen,
        so that repeated calls do not allocate and release them each time.
        The result is a new array, never a view of the scratch; two threads
        must not apply one plan at the same time.
        """
        x = np.asarray(x, dtype=float)
        n = self.grid.n
        rest = x[1:].reshape(n - 1, -1)
        half = rest.shape[1]
        size = _fft_length(n)
        parts = self._buffer("parts", (n - 1, 2 * half), float)
        # the negative part keeps its sign: its convolution is then exactly
        # minus that of max(-x, 0), and no negated copy of x is needed
        pos, neg = parts[:, :half], parts[:, half:]
        np.maximum(rest, 0.0, out=pos)
        np.minimum(rest, 0.0, out=neg)
        live = np.flatnonzero(parts.any(axis=0))
        spectra = self._buffer("spectra", (size // 2 + 1, live.size), complex)
        conv = self._buffer("conv", (size, live.size), float)
        np.fft.rfft(parts[:, live], size, axis=0, out=spectra)
        np.multiply(self._spectrum[:, None], spectra, out=spectra)
        np.fft.irfft(spectra, size, axis=0, out=conv)
        parts[:, live] = conv[: n - 1]
        np.maximum(pos, 0.0, out=pos)
        np.minimum(neg, 0.0, out=neg)
        out = np.empty((n, half))
        out[0] = 0.0
        np.add(pos, neg, out=out[1:])
        out += self._first[:, None] * x[0]
        return out.reshape(x.shape)

    def _buffer(self, name, shape, dtype):
        """Scratch of the given shape: a prefix of a flat array kept on the plan."""
        count = math.prod(shape)
        flat = self._scratch.get(name)
        if flat is None or flat.size < count:
            flat = self._scratch[name] = np.empty(count, dtype)
        return flat[:count].reshape(shape)


def check_memory(nbytes, what):
    """Raise GridTooLargeError when nbytes exceeds the machine's physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise GridTooLargeError(
            f"{what} needs about {nbytes / 1e9:.3g} GB, more than the "
            f"{physical / 1e9:.3g} GB of physical memory; use a smaller n"
        )


def _fft_length(n):
    # smallest power of two >= 2n - 3, the length of the linear convolution
    # of two length n-1 sequences, so the circular one does not wrap around
    return 1 << (2 * n - 4).bit_length()


def _weight_columns(mu, dtau, n, panels):
    """Columns 0..panels of the n-row weight matrix, from panels 0..panels-1.

    Column j collects the left-node share of panel j and the right-node
    share of panel j-1, so columns 0..panels-1 are complete and column
    `panels` is complete only when it is the last node.
    """
    lag = np.arange(n)[:, None] - np.arange(panels)[None, :]
    # A, B clipped at 0: panels at or beyond the diagonal contribute nothing
    A = np.maximum(lag, 0) * dtau
    B = np.maximum(lag - 1, 0) * dtau
    g0 = (A**mu - B**mu) / mu
    g1 = (A ** (mu + 1.0) - B ** (mu + 1.0)) / (mu + 1.0)
    weights = np.zeros((n, panels + 1))
    weights[:, :-1] += (g1 - B * g0) / dtau
    weights[:, 1:] += (A * g0 - g1) / dtau
    weights /= math.gamma(mu)
    # analytic weights are >= 0; clip round-off negatives (~1e-18 relative)
    np.maximum(weights, 0.0, out=weights)
    return weights


def build_plan(mu, grid):
    """Product-trapezoidal weights for the order-mu weighted integral.

    On each panel [tau_j, tau_{j+1}] the integrand factor is interpolated
    linearly in tau = psi(xi) and the kernel (tau_i - tau)^(mu-1) is
    integrated in closed form.  With A = max(i-j, 0)*dtau and
    B = max(i-j-1, 0)*dtau,

        g0 = (A^mu - B^mu)/mu,        g1 = (A^(mu+1) - B^(mu+1))/(mu+1),

    the panel contributes (g1 - B*g0)/dtau to node j and (A*g0 - g1)/dtau
    to node j+1, all divided by Gamma(mu).  Panel sums telescope, so row i
    reproduces (i*dtau)^mu / Gamma(mu+1) on f == 1 up to round-off.  Taking
    A and B from integer lags makes w[i,j] depend only on i-j for j >= 1,
    so only columns 0 and 1 are computed (O(n) time and memory).

    Raises
    ------
    InvalidOrderError
        If mu <= 0.
    """
    if not mu > 0.0:
        raise InvalidOrderError(f"integral order must be positive, got {mu}")
    n = grid.n
    columns = _weight_columns(float(mu), grid.dtau, n, min(2, n - 1))
    lags = columns[1:, 1]
    return QuadraturePlan(
        float(mu),
        grid,
        _readonly(columns[:, 0]),
        _readonly(lags),
        _readonly(np.fft.rfft(lags, _fft_length(n)), complex),
    )


def frac_integral(plan, f):
    """Apply a quadrature plan to a grid function.

    Returns the grid function i -> sum_{j<=i} w[i,j]*f_j; the value at
    node 0 is exactly zero.  Linear in f, monotone (f >= 0 implies result
    >= 0), and exact on constants by construction of the weights.
    """
    if not same_grid(f.grid, plan.grid):
        raise GridMismatchError("grid function does not live on the plan's grid")
    return GridFunction(plan.grid, plan.apply(f.values))


def hilfer_derivative(order, grid, f):
    """Two-parameter fractional derivative of type (alpha, beta).

    Evaluates the composition: integral of order (1-beta)(1-alpha), then
    d/dtau by second-order finite differences on the uniform tau grid
    (the chain rule's (1/psi') d/dt), then integral of order beta(1-alpha).
    Zero-order integrals are the identity, so beta=1 gives the Caputo-type
    form and beta=0 the Riemann-Liouville-type form.

    Accuracy relies on f being smooth; near t=0 the composition inherits a
    weak singularity from the inner integral, so errors concentrate at the
    first few nodes and interior nodes converge under refinement.
    """
    if not isinstance(order, FractionalOrder):
        raise InvalidOrderError(f"expected a FractionalOrder, got {order!r}")
    if not same_grid(f.grid, grid):
        raise GridMismatchError("grid function does not live on the given grid")
    inner = (1.0 - order.beta) * (1.0 - order.alpha)
    outer = order.beta * (1.0 - order.alpha)
    if inner > 0.0:
        g = frac_integral(build_plan(inner, grid), f)
        # the quadrature pins g(0) = 0, but for singular f the true limit
        # of the inner integral at 0+ need not vanish; differencing across
        # that node would inject a spurious step, so the stencil starts at
        # node 1 and the node-0 slope is extrapolated
        dg = np.empty(grid.n)
        dg[1:] = np.gradient(
            g.values[1:], grid.dtau, edge_order=2 if grid.n >= 4 else 1
        )
        dg[0] = dg[1]
    else:
        dg = np.gradient(f.values, grid.dtau, edge_order=2 if grid.n >= 3 else 1)
    h = GridFunction(grid, dg)
    if outer > 0.0:
        return frac_integral(build_plan(outer, grid), h)
    return h
