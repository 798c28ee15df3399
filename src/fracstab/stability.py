"""Ulam-type stability constants, perturbed solutions, and certification.

Two notions of stability are certified empirically.  In envelope (HUR)
mode an approximate solution u with residual envelope phi(t) must satisfy

    |u(t) - u0(t)| <= M * phi(t) / (1 - q),        q = M*L_f + M^2*L_k,

where M bounds I^{alpha;psi}phi <= M*phi on the grid.  In constant (HU)
mode the envelope is a constant epsilon and the bound is

    (psi(T)-psi(0))^alpha * epsilon
    / (Gamma(alpha+1) - (psi(T)-psi(0))^alpha * [L_f + (T/2)*L_k]).

Perturbed solutions are manufactured, not user-supplied: for an admissible
residual profile delta (|delta| <= envelope nodewise) the forced equation
u = Omega(u) + I^{alpha;psi}delta is solved with the same Picard engine,
so the integral-form residual of u is exactly I^{alpha;psi}delta.  This
samples a concrete, reproducible family of approximate solutions; the
certificate is evidence over that family, not a proof over all admissible
perturbations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .psicalc import GridFunction, build_plan
from .solver import _eval_on, _psi_span
from .solver import check_nodes, contraction_check, problem_grid, solve

__all__ = [
    "StabilityCertificate",
    "NonpositivePhiError",
    "ContractionViolatedError",
    "DegenerateDenominatorError",
    "InadmissiblePerturbationError",
    "estimate_M",
    "hur_bound",
    "hu_bound",
    "make_perturbed",
    "verify",
]


class NonpositivePhiError(ValueError):
    """Envelope function with a non-positive value at a checked node."""


class ContractionViolatedError(RuntimeError):
    """q >= 1: the fixed-point hypothesis fails, no certificate is possible."""


class DegenerateDenominatorError(RuntimeError):
    """The constant-mode bound denominator is not positive."""


class InadmissiblePerturbationError(ValueError):
    """|delta| exceeds the admissible envelope at some node."""


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of an empirical stability verification run.

    bound and worst_deviation are grid functions (constant-mode bounds are
    constant nodewise); margins holds, per perturbation, the maximum of
    |u - u0| - bound over checked nodes, so certified means every margin
    is at most slack and at least one perturbation was tested.
    """

    mode: str
    M: float | None
    M_estimate: float | None
    contraction_q: float
    bound: GridFunction
    empirical_max_deviation: float
    perturbations_tested: int
    certified: bool
    warnings: tuple
    margins: tuple
    slack: float
    seed: int
    n: int
    u0: GridFunction
    worst_deviation: GridFunction

    def to_json_dict(self):
        bound_vals = self.bound.values
        return {
            "mode": self.mode,
            "M": self.M,
            "M_estimate": self.M_estimate,
            "q": self.contraction_q,
            "bound": {
                "min": float(np.min(bound_vals)),
                "max": float(np.max(bound_vals)),
                "constant": bool(np.all(bound_vals == bound_vals[0])),
            },
            "empirical_max_deviation": self.empirical_max_deviation,
            "perturbations_tested": self.perturbations_tested,
            "margins": list(self.margins),
            "slack": self.slack,
            "certified": self.certified,
            "warnings": list(self.warnings),
            "seed": self.seed,
            "n": self.n,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _phi_values(spec, grid):
    if spec.phi is None:
        raise ValueError("operation requires envelope (HUR) mode")
    vals = _eval_on(spec.phi, grid.t.shape, {"t": grid.t})
    checked = vals[check_nodes(spec)]
    if np.any(checked <= 0.0) or not np.all(np.isfinite(vals)):
        worst = int(np.argmin(checked))
        raise NonpositivePhiError(
            f"envelope must be positive on checked nodes; min value "
            f"{float(np.min(checked))} near node {worst}"
        )
    return vals


def envelope_values(spec, grid):
    """Admissible perturbation envelope: phi(t_i) in HUR mode, epsilon in HU."""
    if spec.mode == "HUR":
        return _phi_values(spec, grid)
    if spec.mode == "HU":
        return np.full(grid.n, float(spec.epsilon))
    raise ValueError("problem is solve-only: no envelope or epsilon present")


def estimate_M(spec, plan_alpha):
    """Smallest grid-valid M with I^{alpha;psi}phi <= M*phi.

    Returns max over nodes i >= 1 of (I^{alpha;psi}phi)(t_i) / phi(t_i).
    A larger user-supplied M may be passed downstream; bounds stay valid,
    just looser.
    """
    grid = plan_alpha.grid
    phi = _phi_values(spec, grid)
    ratios = plan_alpha.apply(phi)[1:] / phi[1:]
    return float(np.max(ratios))


def hur_bound(spec, M, q, grid=None):
    """Envelope-mode bound t_i -> M * phi(t_i) / (1 - q).

    Raises ContractionViolatedError when q >= 1 (the fixed-point
    hypothesis fails, so no certificate exists at any scale).
    """
    if q >= 1.0:
        raise ContractionViolatedError(
            f"contraction constant q = {q} >= 1: stability bound undefined"
        )
    if q < 0.0:
        raise ValueError(f"contraction constant must be nonnegative, got {q}")
    if grid is None:
        grid = problem_grid(spec)
    return GridFunction(grid, M * _phi_values(spec, grid) / (1.0 - q))


def hu_bound(spec):
    """Constant-mode bound, exactly as the closed-form constant is written.

    (psi(T)-psi(0))^alpha * epsilon over
    Gamma(alpha+1) - (psi(T)-psi(0))^alpha * [L_f + (T/2)*L_k].
    Raises DegenerateDenominatorError when the denominator is not positive.
    """
    if spec.epsilon is None:
        raise ValueError("operation requires constant (HU) mode")
    alpha = spec.order.alpha
    span = _psi_span(spec)
    denom = math.gamma(alpha + 1.0) - span**alpha * (
        spec.L_f + 0.5 * spec.T * spec.L_k
    )
    if denom <= 0.0:
        raise DegenerateDenominatorError(
            f"bound denominator {denom:.6g} <= 0: hypothesis fails"
        )
    return span**alpha * spec.epsilon / denom


def make_perturbed(spec, delta, plan_alpha=None, tol=1e-10, max_iter=200):
    """Solve the delta-forced equation u = Omega(u) + I^{alpha;psi}delta.

    delta may be an expression over {t}, an array of nodal values, an
    n x P array of P profiles (one per column), or a GridFunction.
    Admissibility |delta(t_i)| <= envelope(t_i) is enforced at every node
    of every column (a NaN fails it) and violations are rejected, never
    silently clipped.
    Returns the forced solve's SolveReport, or a tuple of P of them for a
    block (see solve); the integral-form residual of each solution is
    I^{alpha;psi}delta by construction.
    """
    if plan_alpha is None:
        plan_alpha = build_plan(spec.order.alpha, problem_grid(spec))
    grid = plan_alpha.grid
    if isinstance(delta, GridFunction):
        delta_vals = delta.values
    elif isinstance(delta, np.ndarray):
        delta_vals = np.asarray(delta, dtype=float)
    else:
        delta_vals = _eval_on(delta, grid.t.shape, {"t": grid.t})
    if delta_vals.ndim not in (1, 2) or len(delta_vals) != grid.n:
        raise InadmissiblePerturbationError(
            f"expected {grid.n} perturbation values, got shape {delta_vals.shape}"
        )
    env = envelope_values(spec, grid)
    excess = np.abs(delta_vals.reshape(grid.n, -1)) - env[:, None]
    # "not <= 0" so that a NaN in delta is a violation too
    bad = np.flatnonzero(np.any(~(excess <= 0.0), axis=0))
    if bad.size:
        col = int(bad[0])
        worst = int(np.argmax(excess[:, col]))
        where = f" of column {col}" if delta_vals.ndim == 2 else ""
        raise InadmissiblePerturbationError(
            f"|delta| exceeds the envelope at node {worst}{where} "
            f"(t={grid.t[worst]:.6g}) by {float(excess[worst, col]):.3e}"
        )
    forcing = plan_alpha.apply(delta_vals)
    return solve(spec, tol, max_iter, plan=plan_alpha, forcing=forcing)


def _perturbation_catalog(spec, grid, env, num, rng_seed):
    """Deterministic catalog followed by seeded random piecewise profiles."""
    fixed = [
        env,
        0.5 * env,
        np.full(grid.n, float(np.min(env[check_nodes(spec)]))),
        env * np.sin(10.0 * grid.t),
    ]
    deltas = fixed[:num]
    rng = np.random.default_rng(rng_seed)
    while len(deltas) < num:
        # piecewise-constant on 16 equal subintervals, scaled by the envelope
        coeffs = rng.uniform(-1.0, 1.0, 16)
        idx = np.minimum((grid.t / grid.T * 16.0).astype(int), 15)
        deltas.append(env * coeffs[idx])
    return deltas


def verify(spec, num_perturbations, rng_seed, tol=1e-10, max_iter=200, M_override=None):
    """Certify the stability bound against manufactured perturbed solutions.

    Solves the unperturbed problem, generates num_perturbations admissible
    residual profiles (a fixed catalog plus seeded random piecewise ones),
    solves each forced problem, and compares nodewise deviations against
    the mode's bound.  certified requires every margin <= slack, at least
    one perturbation, and every solve (base, refinement and each perturbed
    one) converged within max_iter; slack = 10*tol plus an estimated quadrature
    error from one grid refinement.  Runs with equal inputs produce equal
    certificates.
    """
    if spec.mode is None:
        raise ValueError("verification requires envelope or epsilon mode")
    if num_perturbations < 0:
        raise ValueError("num_perturbations must be nonnegative")
    grid = problem_grid(spec)
    plan = build_plan(spec.order.alpha, grid)
    warnings = []

    if spec.mode == "HUR":
        m_estimate = estimate_M(spec, plan)
        m_used = m_estimate if M_override is None else max(m_estimate, M_override)
        if M_override is not None and M_override < m_estimate:
            warnings.append(
                f"user M {M_override} below grid estimate {m_estimate:.6g}; "
                f"using the estimate"
            )
        check = contraction_check(spec, m_used)
        if not check.satisfied:
            raise ContractionViolatedError(
                f"contraction constant q = {check.q:.6g} >= 1 with M = {m_used:.6g}"
            )
        bound = hur_bound(spec, m_used, check.q, grid=grid)
    else:
        m_estimate = None
        m_used = None
        check = contraction_check(spec)
        bound_const = hu_bound(spec)  # raises DegenerateDenominator on failure
        bound = GridFunction(grid, np.full(grid.n, bound_const))
        hyp_q = spec.T * spec.L_f + 0.5 * spec.T**2 * spec.L_k
        if abs(hyp_q - check.q) > 1e-12:
            warnings.append(
                f"smallness hypothesis T*L_f + (T^2/2)*L_k = {hyp_q:.6g} differs "
                f"from the bound's weighted constant q = {check.q:.6g}; certifying "
                f"under the bound's denominator-positivity condition"
            )
    if spec.order.gamma < 1.0:
        warnings.append(
            "gamma < 1: node 0 is a display placeholder and is excluded "
            "from all checks"
        )

    base = solve(spec, tol, max_iter, plan=plan)
    if not base.converged:
        warnings.append("base solve did not converge within max_iter")

    # quadrature slack from one refinement: same problem on 2(n-1)+1 nodes
    fine = solve(replace(spec, n=2 * (spec.n - 1) + 1), tol, max_iter)
    if not fine.converged:
        warnings.append("refinement solve did not converge within max_iter")
    nodes = check_nodes(spec)
    quad_err = float(
        np.max(np.abs(base.solution.values - fine.solution.values[::2])[nodes])
    )
    slack = 10.0 * tol + quad_err

    env = envelope_values(spec, grid)
    deltas = _perturbation_catalog(spec, grid, env, num_perturbations, rng_seed)
    margins = []
    worst = np.zeros(grid.n)
    empirical_max = 0.0
    unconverged = 0
    reports = (
        make_perturbed(spec, np.stack(deltas, axis=1), plan, tol, max_iter)
        if deltas
        else ()
    )
    for report in reports:
        unconverged += not report.converged
        deviation = np.abs(report.solution.values - base.solution.values)
        worst = np.maximum(worst, deviation)
        checked_dev = deviation[nodes]
        empirical_max = max(empirical_max, float(np.max(checked_dev)))
        margins.append(float(np.max(checked_dev - bound.values[nodes])))

    if unconverged:
        warnings.append(
            f"{unconverged} of {len(deltas)} perturbed solves did not converge "
            f"within max_iter"
        )

    certified = (
        base.converged
        and fine.converged
        and not unconverged
        and len(margins) > 0
        and all(m <= slack for m in margins)
    )
    return StabilityCertificate(
        mode=spec.mode,
        M=m_used,
        M_estimate=m_estimate,
        contraction_q=check.q,
        bound=bound,
        empirical_max_deviation=empirical_max,
        perturbations_tested=len(margins),
        certified=certified,
        warnings=tuple(warnings),
        margins=tuple(margins),
        slack=slack,
        seed=int(rng_seed),
        n=spec.n,
        u0=base.solution,
        worst_deviation=GridFunction(grid, worst),
    )
