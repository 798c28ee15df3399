"""Weighted fractional integral and two-parameter fractional derivative.

This module discretizes the psi-weighted Riemann-Liouville integral

    (I^{mu;psi} f)(t) = (1/Gamma(mu)) * int_0^t psi'(xi) (psi(t)-psi(xi))^(mu-1) f(xi) dxi

on a uniform grid in t.  The substitution tau = psi(xi) removes psi' from
the integrand and reduces the kernel to (psi(t)-tau)^(mu-1) on the
nonuniform abscissae tau_j = psi(t_j); the smooth factor is interpolated
linearly in tau and the kernel is integrated exactly on each panel
(product-trapezoidal rule).  The resulting weights are nonnegative and
reproduce (psi(t_i)-psi(0))^mu / Gamma(mu+1) exactly on f == 1.

The two-parameter derivative of type (alpha, beta) is evaluated
compositionally: an integral of order (1-beta)(1-alpha), then (1/psi')
times an ordinary derivative (central differences), then an integral of
order beta(1-alpha).  Zero-order integrals are the identity.

When psi is affine and the tau nodes are exactly evenly spaced in floating
point (every dtau_j bitwise equal, e.g. T = 1 with n - 1 a power of two,
as in every shipped problem), the weights are a convolution: column 0 plus
shifted copies of column 1.  Such a plan is stored in O(n) and applied by
FFT in O(n log n).  Every other grid (nonlinear psi, or spacing that is
even only up to round-off) uses the dense n x n build, about 56*n^2 bytes
at its peak; when that, or the n x n kernel grid of a nonzero Volterra
kernel, would exceed physical memory, GridTooLargeError (a ValueError)
names both figures before anything is allocated.

Grids, plans and grid functions are immutable after construction; all
operations here are pure functions and safe for concurrent use.
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
    """Uniform grid t_i = i*T/(n-1) with sampled weight function values.

    psi_prime_values are obtained by second-order finite differences
    (central in the interior, one-sided at the endpoints); they enter only
    the derivative operator, never the integral weights.
    """

    T: float
    n: int
    t: np.ndarray
    psi_values: np.ndarray
    psi_prime_values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.psi_values) <= 0.0):
            raise DegenerateGridError("psi values must be strictly increasing")
        if np.any(self.psi_prime_values <= 0.0):
            raise DegenerateGridError("psi' must be positive on the grid")


def make_grid(T, n, psi):
    """Build a PsiGrid from a horizon, node count and weight function.

    Parameters
    ----------
    T : float
        Horizon of the interval [0, T], must be positive.
    n : int
        Number of nodes, at least 2.
    psi : callable
        Increasing C^1 weight function; called with the full node array
        and expected to return an array of the same shape.
    """
    if not T > 0.0:
        raise DegenerateGridError(f"horizon T must be positive, got {T}")
    if n < 2:
        raise DegenerateGridError(f"need at least 2 nodes, got {n}")
    t = np.linspace(0.0, float(T), int(n))
    psi_values = np.asarray(psi(t), dtype=float)
    if psi_values.shape != t.shape or not np.all(np.isfinite(psi_values)):
        raise DegenerateGridError("psi must return finite values on the grid")
    h = t[1] - t[0]
    prime = np.empty_like(psi_values)
    if n == 2:
        prime[:] = (psi_values[1] - psi_values[0]) / h
    else:
        prime[1:-1] = (psi_values[2:] - psi_values[:-2]) / (2.0 * h)
        prime[0] = (-3.0 * psi_values[0] + 4.0 * psi_values[1] - psi_values[2]) / (2.0 * h)
        prime[-1] = (3.0 * psi_values[-1] - 4.0 * psi_values[-2] + psi_values[-3]) / (2.0 * h)
    return PsiGrid(float(T), int(n), _readonly(t), _readonly(psi_values), _readonly(prime))


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

    Build plans with build_plan and apply them with apply.  On a grid with
    exactly even tau spacing only column 0 and the lag vector
    lags[m] = w[m+1, 1] (every column j >= 1 is a shifted copy of column 1)
    are stored, together with the lag vector's rFFT, and apply is an FFT
    convolution in O(n log n).  Every other grid stores the dense matrix.
    """

    mu: float
    grid: PsiGrid
    _dense: np.ndarray | None = field(default=None, repr=False)
    _first: np.ndarray | None = field(default=None, repr=False)
    _lags: np.ndarray | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    @property
    def weights(self):
        """The dense weight matrix; materialized on demand for a Toeplitz plan."""
        if self._dense is not None:
            return self._dense
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
        result >= 0.  The Toeplitz path convolves the positive and negative
        parts of x separately and clips each at 0, so FFT round-off cannot
        turn a nonnegative sum negative.
        """
        x = np.asarray(x, dtype=float)
        if self._dense is not None:
            return self._dense @ x
        n = self.grid.n
        rest = x[1:].reshape(n - 1, -1)
        parts = np.concatenate([np.maximum(rest, 0.0), np.maximum(-rest, 0.0)], axis=1)
        size = _fft_length(n)
        conv = np.fft.irfft(
            self._spectrum[:, None] * np.fft.rfft(parts, size, axis=0), size, axis=0
        )[: n - 1]
        np.maximum(conv, 0.0, out=conv)
        half = rest.shape[1]
        out = np.empty((n, half))
        out[0] = 0.0
        out[1:] = conv[:, :half] - conv[:, half:]
        out += self._first[:, None] * x[0]
        return out.reshape(x.shape)


# bytes per n^2 of the dense build, measured at its peak (A, B, g0, g1 and
# the temporaries of the weight formula)
DENSE_PLAN_BYTES = 56


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


def _weight_columns(mu, tau, panels):
    """Columns 0..panels of the weight matrix, from panels 0..panels-1.

    Column j collects the left-node share of panel j and the right-node
    share of panel j-1, so columns 0..panels-1 are complete and column
    `panels` is complete only when it is the last node.
    """
    dtau = tau[1 : panels + 1] - tau[:panels]
    # A, B clipped at 0: panels at or beyond the diagonal contribute nothing
    A = np.maximum(tau[:, None] - tau[None, :panels], 0.0)
    B = np.maximum(tau[:, None] - tau[None, 1 : panels + 1], 0.0)
    g0 = (A**mu - B**mu) / mu
    g1 = (A ** (mu + 1.0) - B ** (mu + 1.0)) / (mu + 1.0)
    weights = np.zeros((tau.size, panels + 1))
    weights[:, :-1] += (g1 - B * g0) / dtau
    weights[:, 1:] += (A * g0 - g1) / dtau
    weights /= math.gamma(mu)
    # analytic weights are >= 0; clip round-off negatives (~1e-18 relative)
    np.maximum(weights, 0.0, out=weights)
    return weights


def build_plan(mu, grid):
    """Product-trapezoidal weights for the order-mu weighted integral.

    On each panel [tau_j, tau_{j+1}] the integrand factor is interpolated
    linearly in tau = psi(xi) and the kernel (psi(t_i)-tau)^(mu-1) is
    integrated in closed form.  With A = psi(t_i)-tau_j, B = psi(t_i)-tau_{j+1},

        g0 = (A^mu - B^mu)/mu,        g1 = (A^(mu+1) - B^(mu+1))/(mu+1),

    the panel contributes (g1 - B*g0)/dtau_j to node j and (A*g0 - g1)/dtau_j
    to node j+1, all divided by Gamma(mu).  Panel sums telescope, so row i
    reproduces (psi(t_i)-psi(0))^mu / Gamma(mu+1) on f == 1 exactly up to
    round-off.

    When every dtau_j is bitwise equal, w[i,j] depends only on i-j for
    j >= 1, and only columns 0 and 1 are computed (O(n) time and memory).

    Raises
    ------
    InvalidOrderError
        If mu <= 0.
    DegenerateGridError
        Propagated from grid validation.
    GridTooLargeError
        If the dense build on an uneven grid would exceed physical memory.
    """
    if not mu > 0.0:
        raise InvalidOrderError(f"integral order must be positive, got {mu}")
    mu = float(mu)
    tau = grid.psi_values
    n = grid.n
    dtau = tau[1:] - tau[:-1]
    if np.all(dtau == dtau[0]):
        columns = _weight_columns(mu, tau, min(2, n - 1))
        lags = columns[1:, 1]
        spectrum = np.fft.rfft(lags, _fft_length(n))
        return QuadraturePlan(
            mu,
            grid,
            _first=_readonly(columns[:, 0]),
            _lags=_readonly(lags),
            _spectrum=_readonly(spectrum, complex),
        )
    check_memory(DENSE_PLAN_BYTES * n * n, f"the dense {n}x{n} quadrature plan")
    return QuadraturePlan(mu, grid, _dense=_readonly(_weight_columns(mu, tau, n - 1)))


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
    (1/psi') d/dt by second-order finite differences, then integral of
    order beta(1-alpha).  Zero-order integrals are the identity, so beta=1
    gives the Caputo-type form and beta=0 the Riemann-Liouville-type form.

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
            g.values[1:], grid.t[1:], edge_order=2 if grid.n >= 4 else 1
        )
        dg[0] = dg[1]
    else:
        g = f
        dg = np.gradient(g.values, grid.t, edge_order=2 if grid.n >= 3 else 1)
    h = GridFunction(grid, dg / grid.psi_prime_values)
    if outer > 0.0:
        return frac_integral(build_plan(outer, grid), h)
    return h
