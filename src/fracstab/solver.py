"""Picard iteration for the integral form of the fractional Volterra problem.

The initial value problem of order (alpha, beta) with weight function psi,

    D^{alpha,beta;psi} u(t) = f(t, u(t)) + int_0^t k(t, s, u(s)) ds,
    I^{1-gamma;psi} u(0) = sigma,        gamma = alpha + beta*(1 - alpha),

is equivalent to the fixed-point equation u = Omega(u) with

    (Omega v)(t) = c(t) + I^{alpha;psi}[ f(., v(.))
                                         + (xi -> int_0^xi k(xi, s, v(s)) ds) ](t),
    c(t) = (psi(t)-psi(0))^(gamma-1) * sigma / Gamma(gamma).

The constant term c does not depend on v, so solve() builds it once (a
forced solve adds its forcing to it), iterates u_{m+1} = Omega(u_m) from
u_0 = c and stops on a sup-norm residual below tol.  There is one Picard
loop: a plain solve iterates one column of n values, and P forced
equations (an n x P forcing) are an n x P block stepped together.
Each column is frozen on the step its own residual falls below tol, so
it ends exactly as it would alone.  When gamma < 1 the
prefactor diverges at t = 0, so norms and convergence checks run on nodes
1..n-1 and node 0 carries a flagged display placeholder (the prefactor
evaluated at half the first step).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exprlang import BinOp, EvalError, Expr, Neg, Num, evaluate, to_source, variables
from .psicalc import (
    FractionalOrder,
    GridFunction,
    GridMismatchError,
    build_plan,
    check_memory,
    make_grid,
    same_grid,
)

__all__ = [
    "ProblemSpec",
    "SolveReport",
    "ContractionReport",
    "SpotCheckReport",
    "NonContractiveError",
    "problem_grid",
    "prefactor",
    "picard_step",
    "solve",
    "contraction_check",
    "lipschitz_spot_check",
]


class NonContractiveError(RuntimeError):
    """Picard iteration diverged; carries the residual trace for diagnosis."""

    def __init__(self, message, residual_trace):
        super().__init__(message)
        self.residual_trace = np.asarray(residual_trace)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem statement: orders, domain, expressions and constants.

    f is an expression over {t, u}, k over {t, s, u}, psi and phi over {t}.
    L_f and L_k are user-asserted Lipschitz constants of f and k in u
    (lipschitz_spot_check can falsify but not prove them).  Exactly one of
    phi (envelope mode) / epsilon (constant mode) may be present; both
    absent means solve-only.
    """

    order: FractionalOrder
    T: float
    n: int
    psi: Expr
    f: Expr
    k: Expr
    sigma: float
    L_f: float
    L_k: float
    phi: Expr | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.phi is not None and self.epsilon is not None:
            raise ValueError("phi and epsilon are mutually exclusive")
        if self.L_f < 0.0 or self.L_k < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.epsilon is not None and self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")

    @functools.cached_property
    def kernel_factors(self):
        """(g, h) with k = g(t)*h(s, u), g None when k has no t; None when
        some factor of k mixes t with s or u (see split_kernel)."""
        return split_kernel(self.k)

    @property
    def mode(self):
        """'HUR' (envelope), 'HU' (constant epsilon), or None (solve-only)."""
        if self.phi is not None:
            return "HUR"
        if self.epsilon is not None:
            return "HU"
        return None


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    iterations: int
    residual_trace: np.ndarray
    contraction_estimate: float
    converged: bool


@dataclass(frozen=True)
class ContractionReport:
    q: float
    satisfied: bool


@dataclass(frozen=True)
class SpotCheckReport:
    max_ratio_f: float
    max_ratio_k: float
    violation_f: bool
    violation_k: bool

    @property
    def violated(self):
        return self.violation_f or self.violation_k


def _factors(node):
    """Factors of a top-level product: a*b, a/d as a and 1/d, -a as -1 and a."""
    if isinstance(node, BinOp) and node.op == "*":
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, BinOp) and node.op == "/":
        return _factors(node.left) + [BinOp("/", Num(1.0), node.right)]
    if isinstance(node, Neg):
        return [Num(-1.0)] + _factors(node.operand)
    return [node]


def split_kernel(k):
    """Split a kernel as k(t, s, u) = g(t) * h(s, u).

    Factors of k's top-level product that use only t go into g, factors
    without t (constants included) into h.  Returns (g, h), g None when no
    factor uses t and h the constant 1 when every factor does, or None
    when a factor mixes t with s or u.
    """
    g, h = [], []
    for factor in _factors(k):
        names = variables(factor)
        if "t" not in names:
            h.append(factor)
        elif names == {"t"}:
            g.append(factor)
        else:
            return None

    def product(factors):
        return functools.reduce(lambda a, b: BinOp("*", a, b), factors)

    return (product(g) if g else None, product(h) if h else Num(1.0))


def _eval_on(expr, shape, bindings):
    # expressions without variables evaluate to scalars; broadcast them
    vals = np.asarray(evaluate(expr, bindings), dtype=float)
    return np.broadcast_to(vals, shape)


def problem_grid(spec):
    """Build the problem's grid, nodes uniform in psi(t)."""
    return make_grid(spec.T, spec.n, lambda t: _eval_on(spec.psi, t.shape, {"t": t}))


def check_nodes(spec):
    """Node slice used for norms and checks: 1..n-1 when gamma < 1, else all."""
    return slice(1, None) if spec.order.gamma < 1.0 else slice(None)


def prefactor(spec, grid):
    """The constant term c(t) = (psi(t)-psi(0))^(gamma-1) * sigma / Gamma(gamma).

    Node 0 takes psi(t_1/2) - psi(0) in place of psi(t_0) - psi(0) = 0.
    For gamma < 1 it is a display placeholder, excluded from norms and
    checks; for gamma = 1 the power is 1, so every node is sigma.
    """
    gamma = spec.order.gamma
    dpsi = grid.psi_values - grid.psi_values[0]
    dpsi[0] = float(evaluate(spec.psi, {"t": 0.5 * grid.t[1]})) - grid.psi_values[0]
    return GridFunction(grid, dpsi ** (gamma - 1.0) * (spec.sigma / math.gamma(gamma)))


# bytes per n^2 of the inner Volterra sum: the kernel grid, its lower
# triangle and one temporary of the kernel expression
KERNEL_GRID_BYTES = 24


def _inner_volterra(spec, grid, v_values):
    """Composite-trapezoid inner integrals K_i = int_0^{t_i} k(t_i, s, v(s)) ds.

    v_values holds one iterate (n values) or a block of them (n x P, one
    per column); the result has the same shape.  The literal kernel 0
    gives zeros without evaluating k.  A t-separable kernel
    k = g(t)*h(s, u) (see split_kernel) costs O(n) per column: h is
    evaluated once on the block, K_i = g(t_i) times its cumulative
    trapezoid up to t_i.  Any other kernel is evaluated on the n x n grid
    (t_i, s_j), one column at a time under the memory guard; row i sums
    the grid's lower triangle against the trapezoid weights of the whole
    grid, then takes off the half-panel beyond t_i (panel i).
    """
    n = grid.n
    if spec.k == Num(0.0):
        return np.zeros(v_values.shape)
    t = grid.t
    block = v_values.reshape(n, -1)
    if spec.kernel_factors is not None:
        g, h = spec.kernel_factors
        # s is bound even when h does not use it: this is k's evaluation
        h_vals = _eval_on(h, block.shape, {"s": t[:, None], "u": block})
        with np.errstate(over="ignore", invalid="ignore"):
            panels = (0.5 * np.diff(t))[:, None] * (h_vals[:-1] + h_vals[1:])
            inner = np.concatenate((np.zeros_like(panels[:1]), np.cumsum(panels, axis=0)))
            if g is not None:
                inner *= _eval_on(g, (n,), {"t": t})[:, None]
        if not np.all(np.isfinite(inner)):
            raise EvalError(f"non-finite inner integral of '{to_source(spec.k)}'")
        return inner.reshape(v_values.shape)
    check_memory(KERNEL_GRID_BYTES * n * n, f"the {n}x{n} kernel grid")
    inner = np.stack([_general_inner(spec, t, column) for column in block.T], axis=1)
    return inner.reshape(v_values.shape)


def _general_inner(spec, t, v):
    # one column of _inner_volterra for a kernel that is not t-separable;
    # its n x n temporaries die on return, before the next column
    kmat = _eval_on(
        spec.k, (t.size, t.size), {"t": t[:, None], "s": t[None, :], "u": v[None, :]}
    )
    h = np.diff(t)
    # panel widths with the end panels repeated: node j weighs half of each
    # neighbouring panel, the end nodes a whole end panel
    widths = np.concatenate([h[:1], h, h[-1:]])
    weights = 0.5 * (widths[:-1] + widths[1:])
    ends = 0.5 * (h[0] * kmat[:, 0] + widths[1:] * np.diagonal(kmat))
    return np.einsum("ij,j->i", np.tril(kmat), weights) - ends


def picard_step(spec, plan_alpha, v, constant):
    """One application of the integral operator Omega to the iterate v.

    Returns

        constant + I^{alpha;psi}[f(., v) + inner Volterra of v],

    where constant holds the nodal values of the constant term c (see
    prefactor; a forced solve adds its forcing) and the inner integral
    int_0^xi k(xi, s, v(s)) ds binds the kernel's first argument to the
    outer quadrature variable xi and is computed by composite trapezoid
    over s.  v is a GridFunction on the plan's grid, which gives a
    GridFunction back, or an array of n nodal values or of n x P (one
    iterate per column, constant of the same shape), which gives an array
    of that shape.  Domain violations inside f or k surface as EvalError.
    """
    grid = plan_alpha.grid
    gridded = isinstance(v, GridFunction)
    values = v.values if gridded else np.asarray(v, dtype=float)
    if (gridded and not same_grid(v.grid, grid)) or len(values) != grid.n:
        raise ValueError("iterate does not live on the plan's grid")
    block = values.reshape(grid.n, -1)
    f_vals = _eval_on(spec.f, block.shape, {"t": grid.t[:, None], "u": block})
    inner = _inner_volterra(spec, grid, block)
    stepped = constant + plan_alpha.apply(f_vals + inner).reshape(values.shape)
    return GridFunction(grid, stepped) if gridded else stepped


def _report(values, trace, converged, grid):
    trace = np.asarray(trace)
    ratios = [
        trace[m] / trace[m - 1]
        for m in range(1, len(trace))
        if trace[m - 1] > 0.0
    ]
    estimate = float(max(ratios)) if ratios else 0.0
    return SolveReport(GridFunction(grid, values), len(trace), trace, estimate, converged)


def solve(spec, tol=1e-10, max_iter=200, *, plan=None, forcing=None):
    """Picard iteration u_{m+1} = Omega(u_m) from the constant term.

    Parameters
    ----------
    spec : ProblemSpec
    tol : float
        Stop when the sup-norm of successive differences (over checked
        nodes) falls below tol.  The fixed-point residual of the returned
        solution is then at most tol/(1-q) for contraction estimate q.
    max_iter : int
        Iteration cap; hitting it returns converged=False.
    plan : QuadraturePlan, optional
        Reuse a precomputed order-alpha plan on the problem's grid.
    forcing : ndarray, optional
        Extra grid function added to the constant term (solves the forced
        equation u = Omega(u) + forcing); used to manufacture perturbed
        solutions.  An n x P array solves P forced equations, one per
        column, as one block.

    Returns
    -------
    SolveReport, or a tuple of P SolveReports for an n x P forcing.  Every
    column is its own solve: its own residual trace, divergence count and
    converged flag.  A column stops on the step it converges, so its
    solution and iteration count are those of solving it alone.

    Raises
    ------
    NonContractiveError
        After 5 consecutive residual increases (divergence) of a column;
        the lowest such column at that step, with its residual trace.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if plan is None:
        plan = build_plan(spec.order.alpha, problem_grid(spec))
    grid = plan.grid
    nodes = check_nodes(spec)
    constant = prefactor(spec, grid).values
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.ndim not in (1, 2) or len(forcing) != grid.n:
            raise ValueError(f"forcing needs {grid.n} rows, got shape {forcing.shape}")
        constant = (constant[:, None] if forcing.ndim == 2 else constant) + forcing
    # iterates keep the constant term's shape: n values, or n x P for a block
    columns = constant.reshape(grid.n, -1).shape[1]
    last = {}  # column -> its final iterate
    traces = [[] for _ in range(columns)]
    increases = [0] * columns
    converged = [False] * columns
    # the running block: its columns' indices, iterates and constant terms
    active, v, c = np.arange(columns), constant, constant
    for _ in range(max_iter):
        stepped = picard_step(spec, plan, v, c)
        residuals = np.atleast_1d(np.max(np.abs(stepped - v)[nodes], axis=0))
        v = stepped
        keep = []
        for slot, (j, residual) in enumerate(zip(active.tolist(), residuals.tolist())):
            if not math.isfinite(residual):
                raise GridMismatchError("grid function values must be finite")
            trace = traces[j]
            trace.append(residual)
            if residual < tol:
                converged[j] = True
                continue
            keep.append(slot)
            if len(trace) >= 2 and residual > trace[-2]:
                increases[j] += 1
                if increases[j] >= 5:
                    raise NonContractiveError(
                        f"residual grew for {increases[j]} consecutive iterations "
                        f"(last residual {residual:.3e})",
                        trace,
                    )
            else:
                increases[j] = 0
        if len(keep) < len(active):
            block = v.reshape(grid.n, -1)
            last.update(zip(active.tolist(), block.T))
            active, v, c = active[keep], block[:, keep], c.reshape(grid.n, -1)[:, keep]
        if not keep:
            break
    last.update(zip(active.tolist(), v.reshape(grid.n, -1).T))

    reports = tuple(
        _report(last[j], traces[j], converged[j], grid) for j in range(columns)
    )
    return reports if constant.ndim == 2 else reports[0]


def _psi_span(spec):
    """psi(T) - psi(0)."""
    return float(evaluate(spec.psi, {"t": spec.T})) - float(
        evaluate(spec.psi, {"t": 0.0})
    )


def hu_factor(spec):
    """The constant (psi(T)-psi(0))^alpha / Gamma(alpha+1)."""
    return _psi_span(spec) ** spec.order.alpha / math.gamma(spec.order.alpha + 1.0)


def contraction_check(spec, M=None):
    """Contraction constant q and whether the fixed-point hypothesis holds.

    Envelope (HUR) mode needs the envelope constant M and uses
    q = M*L_f + M^2*L_k; otherwise q = (psi(T)-psi(0))^alpha/Gamma(alpha+1)
    * [L_f + (T/2)*L_k].  q = 0 (zero Lipschitz data) counts as satisfied.
    """
    if spec.mode == "HUR":
        if M is None:
            raise ValueError("envelope mode requires the constant M")
        q = M * spec.L_f + M * M * spec.L_k
    else:
        q = hu_factor(spec) * (spec.L_f + 0.5 * spec.T * spec.L_k)
    return ContractionReport(float(q), bool(0.0 <= q < 1.0))


def lipschitz_spot_check(spec, samples, rng_seed, B=10.0):
    """Sample difference quotients of f and k in u and compare to L_f, L_k.

    Draws (t, s, u1, u2) uniformly from [0,T] x [0,T] x [-B,B]^2 and
    reports the largest observed |f(t,u1)-f(t,u2)|/|u1-u2| and kernel
    analogue; a ratio exceeding the asserted constant by more than 1e-9
    is flagged.  Can falsify asserted constants, never prove them.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(rng_seed)
    t = rng.uniform(0.0, spec.T, samples)
    s = rng.uniform(0.0, spec.T, samples)
    u1 = rng.uniform(-B, B, samples)
    u2 = rng.uniform(-B, B, samples)
    du = np.abs(u1 - u2)
    ok = du > 0.0

    def max_ratio(expr, bind1, bind2):
        vals1 = _eval_on(expr, (samples,), bind1)
        vals2 = _eval_on(expr, (samples,), bind2)
        diff = np.abs(vals1 - vals2)[ok]
        return float(np.max(diff / du[ok])) if diff.size else 0.0

    ratio_f = max_ratio(spec.f, {"t": t, "u": u1}, {"t": t, "u": u2})
    ratio_k = max_ratio(
        spec.k, {"t": t, "s": s, "u": u1}, {"t": t, "s": s, "u": u2}
    )
    return SpotCheckReport(
        ratio_f,
        ratio_k,
        bool(ratio_f > spec.L_f + 1e-9),
        bool(ratio_k > spec.L_k + 1e-9),
    )
