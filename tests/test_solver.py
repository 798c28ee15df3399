import math
import tracemalloc

import numpy as np
import pytest

import fracstab.solver as solver_module
from fracstab.exprlang import EvalError, parse, to_source
from fracstab.psicalc import (
    FractionalOrder,
    GridFunction,
    GridMismatchError,
    GridTooLargeError,
    build_plan,
)
from fracstab.solver import (
    NonContractiveError,
    ProblemSpec,
    contraction_check,
    lipschitz_spot_check,
    picard_step,
    prefactor,
    problem_grid,
    solve,
    split_kernel,
)
from fracstab.stability import make_perturbed
from oracles import classical_rl_product_trapezoid, erfc_relaxation, ml_solution


def make_spec(f="-u/2", k="0", alpha=0.5, beta=1.0, T=1.0, n=129, sigma=1.0,
              L_f=0.5, L_k=0.0, psi="t", phi=None, epsilon=None):
    return ProblemSpec(
        order=FractionalOrder(alpha, beta),
        T=T,
        n=n,
        psi=parse(psi, {"t"}),
        f=parse(f, {"t", "u"}),
        k=parse(k, {"t", "s", "u"}),
        sigma=sigma,
        L_f=L_f,
        L_k=L_k,
        phi=None if phi is None else parse(phi, {"t"}),
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# spec validation


def test_phi_epsilon_mutually_exclusive():
    with pytest.raises(ValueError, match="mutually exclusive"):
        make_spec(phi="exp(t)", epsilon=0.01)


def test_negative_lipschitz_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        make_spec(L_f=-0.1)


def test_mode_property():
    assert make_spec().mode is None
    assert make_spec(epsilon=0.01).mode == "HU"
    assert make_spec(phi="exp(t)").mode == "HUR"


# ---------------------------------------------------------------------------
# prefactor and the singular node


def test_prefactor():
    spec = make_spec(beta=1.0, sigma=2.0, n=65)  # gamma = 1: constant sigma
    assert np.all(prefactor(spec, problem_grid(spec)).values == 2.0)
    spec2 = make_spec(beta=0.5, sigma=1.0, n=65)  # gamma = 0.75
    grid = problem_grid(spec2)
    tau = grid.psi_values[1:] - grid.psi_values[0]
    expected = tau ** (-0.25) / math.gamma(0.75)
    assert np.allclose(prefactor(spec2, grid).values[1:], expected, rtol=1e-14, atol=0.0)


def test_node_zero_placeholder_convention():
    spec = make_spec(beta=0.5, psi="2*t", n=65)  # gamma = 0.75
    grid = problem_grid(spec)
    pref = prefactor(spec, grid)
    # node 0 holds (psi(t_1/2) - psi(0))^(gamma-1) * sigma / Gamma(gamma)
    assert pref.values[0] == (2.0 * 0.5 * grid.t[1]) ** (-0.25) * (1.0 / math.gamma(0.75))
    report = solve(spec)
    # f and kernel contributions vanish at node 0, so the placeholder survives
    assert report.solution.values[0] == pref.values[0]


def test_prefactor_built_once_per_solve(monkeypatch):
    spec = make_spec(epsilon=0.01)
    calls = []
    real = solver_module.prefactor

    def spy(spec, grid):
        calls.append(grid.n)
        return real(spec, grid)

    monkeypatch.setattr(solver_module, "prefactor", spy)
    report = solve(spec)
    assert report.iterations > 5 and calls == [spec.n]
    plan = build_plan(spec.order.alpha, report.solution.grid)
    make_perturbed(spec, np.full(spec.n, 0.01), plan_alpha=plan)  # a forced solve
    assert calls == [spec.n, spec.n]


# ---------------------------------------------------------------------------
# the operator


def test_operator_collapses_to_constant_term():
    spec = make_spec(f="0", k="0", sigma=3.25, L_f=0.0)
    grid = problem_grid(spec)
    plan = build_plan(spec.order.alpha, grid)
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = GridFunction(grid, rng.normal(size=grid.n))
        out = picard_step(spec, plan, v, prefactor(spec, grid).values)
        assert np.all(out.values == 3.25)


def test_picard_iterates_match_series_partial_sums():
    # for f = -u the m-th iterate equals the m-th partial sum of the
    # alternating fractional power series
    spec = make_spec(f="-u", L_f=1.0, n=1025)
    grid = problem_grid(spec)
    plan = build_plan(0.5, grid)
    v = GridFunction(grid, np.zeros(grid.n))
    partial = np.zeros(grid.n)
    for m in range(4):
        v = picard_step(spec, plan, v, prefactor(spec, grid).values)
        partial += (-np.sqrt(grid.t)) ** m / math.gamma(0.5 * m + 1.0)
        assert np.abs(v.values - partial).max() < 5e-4


def test_zero_kernel_identical_to_omitting_inner_integral():
    spec = make_spec(f="-u/3", k="0", L_f=1.0 / 3.0, n=257)
    grid = problem_grid(spec)
    plan = build_plan(0.5, grid)
    v = GridFunction(grid, np.cos(grid.t))
    stepped = picard_step(spec, plan, v, prefactor(spec, grid).values)
    # the inner integral omitted entirely, by hand
    manual = prefactor(spec, grid).values + plan.apply(-v.values / 3.0)
    assert np.array_equal(stepped.values, manual)


def test_zero_kernel_is_never_evaluated(monkeypatch):
    spec = make_spec(k="0", n=65)
    evaluated = []
    real = solver_module.evaluate

    def spy(expr, bindings):
        evaluated.append(sorted(bindings))
        return real(expr, bindings)

    monkeypatch.setattr(solver_module, "evaluate", spy)
    assert solve(spec).converged
    assert evaluated and all("s" not in names for names in evaluated)


@pytest.mark.parametrize("psi", ["t", "t + t^2"])
def test_one_apply_step_matches_two_matvec_formula(psi):
    spec = make_spec(f="-u/2 + sin(t)/4", k="0.1*exp(-s)*u", L_f=0.5,
                     L_k=0.1, psi=psi, n=257)
    grid = problem_grid(spec)
    plan = build_plan(0.5, grid)
    v = GridFunction(grid, np.cos(grid.t))
    stepped = picard_step(spec, plan, v, prefactor(spec, grid).values)
    f_vals = -v.values / 2.0 + np.sin(grid.t) / 4.0
    inner = solver_module._inner_volterra(spec, grid, v.values)
    assert np.abs(inner).max() > 0.01
    two = prefactor(spec, grid).values + plan.weights @ f_vals + plan.weights @ inner
    assert np.abs(stepped.values - two).max() <= 1e-14


def test_kernel_grid_too_large_for_memory_rejected():
    # t and s mixed in one factor: the kernel needs the n x n grid
    spec = make_spec(k="0.1*exp(s - t)*u", L_k=0.1, n=1_000_000)
    with pytest.raises(GridTooLargeError, match="kernel grid needs about 2.4e\\+04 GB"):
        solver_module._inner_volterra(spec, problem_grid(spec), np.zeros(spec.n))


# ---------------------------------------------------------------------------
# t-separable kernels


def _split(k):
    factors = split_kernel(parse(k, {"t", "s", "u"}))
    if factors is None:
        return None
    g, h = factors
    return (None if g is None else to_source(g), to_source(h))


def test_split_kernel_classes():
    assert _split("0.1*exp(-s)*u") == (None, "0.1 * exp(-s) * u")  # t-free
    assert _split("0.03*cos(t)*u") == ("cos(t)", "0.03 * u")
    assert _split("0.03*(cos(t)*u)") == ("cos(t)", "0.03 * u")  # nested product
    assert _split("-(cos(t)*u)") == ("cos(t)", "-1.0 * u")  # leading minus
    assert _split("u/(1 + t)") == ("1.0 / (1.0 + t)", "u")  # t-only divisor
    assert _split("cos(t)") == ("cos(t)", "1.0")
    assert _split("0") == (None, "0.0")
    assert _split("cos(t + 0*s)*u") is None  # t and s in one factor
    assert _split("exp(s - t)*u") is None
    assert _split("u/(t + s)") is None
    assert _split("t*u + s") is None  # a sum is one factor


# each separable kernel with the same kernel spelled so that one factor
# mixes t and s, which forces the n x n path; the values are equal
_SEPARABLE_VS_GENERAL = [
    ("0.1*exp(-s)*u", "0.1*exp(-s + 0*t)*u"),
    ("0.03*cos(t)*u", "0.03*cos(t + 0*s)*u"),
    ("-0.2*exp(t)*sin(s)*u*u", "-0.2*exp(t + 0*s)*sin(s)*u*u"),
]


@pytest.mark.parametrize("n", [17, 513, 1000])
@pytest.mark.parametrize("psi", ["t", "t + t^2", "exp(t) - 1"])
@pytest.mark.parametrize("kernels", _SEPARABLE_VS_GENERAL, ids=lambda pair: pair[0])
def test_separable_inner_sum_matches_general_path(kernels, psi, n):
    separable = make_spec(k=kernels[0], psi=psi, n=n)
    general = make_spec(k=kernels[1], psi=psi, n=n)
    assert separable.kernel_factors is not None
    assert general.kernel_factors is None
    grid = problem_grid(separable)
    v = 0.5 + np.cos(3.0 * grid.t)
    fast = solver_module._inner_volterra(separable, grid, v)
    reference = solver_module._inner_volterra(general, grid, v)
    scale = np.abs(reference).max()
    assert scale > 1e-3
    assert np.abs(fast - reference).max() <= 1e-13 * scale


def test_separable_inner_sum_memory_linear_in_n():
    n = 1_000_000
    spec = make_spec(k="0.03*cos(t)*u", L_k=0.03, n=n)
    grid = problem_grid(spec)
    v = np.ones(n)
    tracemalloc.start()
    try:
        inner = solver_module._inner_volterra(spec, grid, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * n
    # int_0^t 0.03 ds = 0.03 t, times cos(t); the cumulative sum over 10^6
    # panels gathers round-off of order n * eps
    assert abs(inner[-1] - 0.03 * math.cos(1.0)) < 1e-11


@pytest.mark.parametrize(
    "k", ["log(t - 1)*u", "u*log(s - 1)", "u/(t - 0.5)", "exp(700*t)*1e10*u"]
)
def test_separable_kernel_domain_errors_raise(k):
    spec = make_spec(k=k, n=65)
    assert spec.kernel_factors is not None
    grid = problem_grid(spec)
    with pytest.raises(EvalError):
        solver_module._inner_volterra(spec, grid, np.ones(grid.n))


def test_eval_errors_propagate():
    spec = make_spec(f="1/u", L_f=1.0, sigma=0.0)  # first iterate hits u = 0
    with pytest.raises(EvalError):
        solve(spec)


# ---------------------------------------------------------------------------
# solve


def test_zero_problem_converges_immediately():
    spec = make_spec(f="0", k="0", sigma=0.0, L_f=0.0)
    report = solve(spec)
    assert report.converged
    assert report.iterations == 1
    assert np.all(report.solution.values == 0.0)


def test_mittag_leffler_solution():
    spec = make_spec(f="-u", L_f=1.0, n=513)
    report = solve(spec)
    assert report.converged
    exact = ml_solution(report.solution.grid.t)
    # the solution has a sqrt-cusp at 0, so error concentrates at node 1
    assert np.abs(report.solution.values - exact).max() < 5e-4
    assert abs(report.solution.values[-1] - 0.4275835761558071) < 1e-4


@pytest.mark.parametrize("psi", ["t + t^2", "exp(t) - 1"])
def test_nonlinear_psi_relaxation_accuracy(psi):
    # u = E_{1/2}(-(psi - psi0)^{1/2}) in closed form; nodes uniform in psi
    errors = []
    for n in (513, 2049):
        report = solve(make_spec(f="-u", L_f=1.0, psi=psi, n=n))
        assert report.converged
        grid = report.solution.grid
        exact = erfc_relaxation(grid.psi_values - grid.psi_values[0])
        errors.append(np.abs(report.solution.values - exact).max())
    assert errors[0] < 1e-3
    assert errors[0] / errors[1] >= 3.0


def test_constant_forcing_dual_weight_cross_check():
    # f independent of u: one Picard step closes the problem, and the
    # weighted integral must match the textbook classical rule applied in
    # the substituted variable (uniform for psi = 2t)
    for psi, span in (("t", 1.0), ("2*t", 2.0)):
        spec = make_spec(f="1", k="0", L_f=0.0, psi=psi, n=257)
        report = solve(spec)
        grid = report.solution.grid
        x = grid.psi_values
        oracle = 1.0 + classical_rl_product_trapezoid(x, np.ones(grid.n), 0.5)
        assert np.abs(report.solution.values - oracle).max() <= 1e-12
        exact = 1.0 + x**0.5 / math.gamma(1.5)
        assert np.abs(report.solution.values - exact).max() < 1e-12


def test_solve_rejects_bad_tolerances():
    spec = make_spec()
    with pytest.raises(ValueError):
        solve(spec, tol=0.0)
    with pytest.raises(ValueError):
        solve(spec, max_iter=0)


def test_determinism_bitwise():
    spec = make_spec(f="-u/2 + sin(t)/4", k="0.05*cos(s)*u", L_f=0.5, L_k=0.05)
    r1 = solve(spec)
    r2 = solve(spec)
    assert np.array_equal(r1.solution.values, r2.solution.values)
    assert np.array_equal(r1.residual_trace, r2.residual_trace)
    assert r1.iterations == r2.iterations


def test_fixed_point_residual_small():
    spec = make_spec(n=257)
    tol = 1e-10
    report = solve(spec, tol=tol)
    grid = report.solution.grid
    plan = build_plan(spec.order.alpha, grid)
    moved = picard_step(spec, plan, report.solution, prefactor(spec, grid).values)
    assert np.abs(moved.values - report.solution.values).max() <= 2.0 * tol


def test_geometric_residual_decay():
    spec = make_spec(epsilon=0.01)
    q = contraction_check(spec).q
    trace = solve(spec).residual_trace
    ratios = trace[1:] / trace[:-1]
    assert np.all(ratios <= q + 0.05)


def test_a_posteriori_distance_bound():
    spec = make_spec(epsilon=0.01, n=257)
    tol = 1e-10
    q = contraction_check(spec).q
    full = solve(spec, tol=tol)
    trace = full.residual_trace
    for m in (1, 3, 5):
        partial = solve(spec, tol=tol, max_iter=m)
        dist = np.abs(partial.solution.values - full.solution.values).max()
        assert dist <= trace[m - 1] / (1.0 - q) + 2.0 * tol


def test_divergence_raises_with_trace():
    spec = make_spec(f="3*u", L_f=3.0, n=65)
    with pytest.raises(NonContractiveError) as err:
        solve(spec)
    trace = err.value.residual_trace
    assert len(trace) >= 6
    assert trace[-1] > trace[-6]


def test_max_iter_without_divergence_reports_unconverged():
    spec = make_spec()
    report = solve(spec, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.iterations == 3


# ---------------------------------------------------------------------------
# block solves: P forced problems iterated as one n x P block


def _assert_same_report(block, solo):
    assert np.array_equal(block.solution.values, solo.solution.values)
    assert block.iterations == solo.iterations
    assert np.array_equal(block.residual_trace, solo.residual_trace)
    assert block.converged == solo.converged
    assert block.contraction_estimate == solo.contraction_estimate


def _forcing_block(grid, scales):
    return np.stack([s * np.cos((j + 1) * grid.t) for j, s in enumerate(scales)], axis=1)


# zero, t-free, t-separable and general (t and s in one factor) kernels
_BLOCK_KERNELS = ["0", "0.1*exp(-s)*u", "0.03*cos(t)*u", "0.1*exp(s - t)*u"]


@pytest.mark.parametrize("beta", [1.0, 0.5], ids=["gamma=1", "gamma<1"])
@pytest.mark.parametrize("k", _BLOCK_KERNELS)
def test_block_solve_matches_solo_solves(k, beta):
    # sigma = 0 makes each column's residuals scale with its forcing, so
    # the columns converge at different steps
    spec = make_spec(f="-u/2", k=k, beta=beta, sigma=0.0, L_k=0.1, n=129)
    grid = problem_grid(spec)
    plan = build_plan(spec.order.alpha, grid)
    forcing = _forcing_block(grid, [1e-9, 1e-4, 1.0, 0.3])
    block = solve(spec, plan=plan, forcing=forcing)
    assert isinstance(block, tuple) and len(block) == 4
    for j, report in enumerate(block):
        _assert_same_report(report, solve(spec, plan=plan, forcing=forcing[:, j]))
    assert len({report.iterations for report in block}) > 1
    assert all(report.converged for report in block)


@pytest.mark.parametrize("k", ["0", "0.1*exp(s - t)*u"])
def test_block_column_at_max_iter_while_others_converge(k):
    spec = make_spec(f="-u/2", k=k, sigma=0.0, L_k=0.1, n=65)
    grid = problem_grid(spec)
    forcing = _forcing_block(grid, [1e-12, 1.0, 1e-11])
    block = solve(spec, max_iter=4, forcing=forcing)
    assert [report.converged for report in block] == [True, False, True]
    assert block[1].iterations == 4
    for j, report in enumerate(block):
        _assert_same_report(report, solve(spec, max_iter=4, forcing=forcing[:, j]))


def test_plain_solve_is_the_one_column_block():
    spec = make_spec(f="-u/2 + sin(t)/4", k="0.03*cos(t)*u", L_k=0.03, n=129)
    zero = np.zeros((spec.n, 1))
    (column,) = solve(spec, forcing=zero)
    _assert_same_report(column, solve(spec))


def test_block_divergence_raises_for_the_lowest_diverging_column():
    # column 0 is unforced (u stays 0 and converges at once); columns 1
    # and 2 diverge at the same step, column 2 with twice the residuals
    spec = make_spec(f="3*u", L_f=3.0, sigma=0.0, n=65)
    grid = problem_grid(spec)
    forcing = _forcing_block(grid, [0.0, 1.0, 2.0])
    forcing[:, 2] = 2.0 * forcing[:, 1]
    with pytest.raises(NonContractiveError) as solo:
        solve(spec, forcing=forcing[:, 1])
    with pytest.raises(NonContractiveError) as block:
        solve(spec, forcing=forcing)
    assert np.array_equal(block.value.residual_trace, solo.value.residual_trace)
    assert str(block.value) == str(solo.value)


def test_non_finite_iterate_raises_at_that_step(monkeypatch):
    # I^alpha of 1.7e308 overflows on the first step
    spec = make_spec(f="1.7e308", L_f=0.0, n=33)
    steps = []
    real = solver_module.picard_step

    def spy(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(solver_module, "picard_step", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridMismatchError, match="must be finite"):
            solve(spec)
    assert len(steps) == 1


def test_picard_step_on_a_block_matches_each_column():
    spec = make_spec(f="-u/2 + sin(t)/4", k="0.1*exp(s - t)*u", L_k=0.1, n=65)
    grid = problem_grid(spec)
    plan = build_plan(spec.order.alpha, grid)
    constant = prefactor(spec, grid).values
    block = _forcing_block(grid, [1.0, -0.5, 2.0])
    stepped = picard_step(spec, plan, block, constant[:, None])
    assert stepped.shape == block.shape
    for j in range(block.shape[1]):
        column = picard_step(spec, plan, GridFunction(grid, block[:, j]), constant)
        assert isinstance(column, GridFunction)
        assert np.array_equal(stepped[:, j], column.values)


def test_general_kernel_block_peaks_near_one_grid():
    # the n x n kernel grid is built one column at a time: a block of P
    # iterates peaks like one iterate, not P of them
    spec = make_spec(k="0.1*exp(s - t)*u", L_k=0.1, n=400)
    grid = problem_grid(spec)
    block = _forcing_block(grid, [1.0] * 8)

    def peak(values):
        tracemalloc.start()
        try:
            solver_module._inner_volterra(spec, grid, values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(block[:, 0])
    assert peak(block) < 1.25 * one
    assert one < solver_module.KERNEL_GRID_BYTES * spec.n**2


# ---------------------------------------------------------------------------
# contraction arithmetic


def test_contraction_envelope_mode_example():
    spec = make_spec(phi="exp(t)", L_f=0.1, L_k=0.05)
    report = contraction_check(spec, M=0.8427)
    expected = 0.8427 * 0.1 + 0.8427**2 * 0.05
    assert report.q == pytest.approx(expected, abs=1e-12)
    assert report.q == pytest.approx(0.11978, abs=1e-5)
    assert report.satisfied


def test_contraction_constant_mode_example():
    spec = make_spec(epsilon=0.01, L_f=0.2, L_k=0.1)
    report = contraction_check(spec)
    expected = (1.0 / math.gamma(1.5)) * 0.25
    assert report.q == pytest.approx(expected, abs=1e-12)
    assert report.q == pytest.approx(0.2820947918, abs=1e-9)
    assert report.satisfied


def test_contraction_zero_lipschitz_satisfied():
    spec = make_spec(L_f=0.0, L_k=0.0)
    report = contraction_check(spec)
    assert report.q == 0.0
    assert report.satisfied


def test_contraction_envelope_mode_requires_m():
    spec = make_spec(phi="exp(t)")
    with pytest.raises(ValueError, match="requires the constant M"):
        contraction_check(spec)


def test_contraction_unsatisfied_above_one():
    spec = make_spec(L_f=2.0)
    report = contraction_check(spec)
    assert report.q > 1.0
    assert not report.satisfied


# ---------------------------------------------------------------------------
# Lipschitz spot check


def test_spot_check_exact_linear():
    spec = make_spec(f="u/2", L_f=0.5)
    report = lipschitz_spot_check(spec, 2000, rng_seed=11)
    assert report.max_ratio_f == pytest.approx(0.5, rel=1e-12)
    assert not report.violation_f
    assert not report.violated


def test_spot_check_catches_superlinear():
    spec = make_spec(f="u^2", L_f=1.0)
    report = lipschitz_spot_check(spec, 2000, rng_seed=11)
    assert report.max_ratio_f > 1.5  # |u1 + u2| can approach 20 with B = 10
    assert report.violation_f
    assert report.violated


def test_spot_check_kernel_constant():
    spec = make_spec(k="0.1*exp(-s)*u", L_k=0.1)
    report = lipschitz_spot_check(spec, 2000, rng_seed=11)
    assert report.max_ratio_k <= 0.1 + 1e-12
    assert not report.violation_k


def test_spot_check_degenerate_samples():
    with pytest.raises(ValueError):
        lipschitz_spot_check(make_spec(), 0, rng_seed=1)


def test_spot_check_deterministic():
    spec = make_spec(f="sin(u)", L_f=1.0)
    a = lipschitz_spot_check(spec, 500, rng_seed=3)
    b = lipschitz_spot_check(spec, 500, rng_seed=3)
    assert a == b
