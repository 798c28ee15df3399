import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracstab.psicalc import (
    DegenerateGridError,
    FractionalOrder,
    GridFunction,
    GridMismatchError,
    InvalidOrderError,
    _weight_columns,
    build_plan,
    frac_integral,
    hilfer_derivative,
    make_grid,
)
from oracles import classical_rl_product_trapezoid, tau_difference_weights

PSI_CHOICES = {
    "identity": lambda t: t,
    "scaled": lambda t: 2.0 * t,
    "convex": lambda t: t + 0.5 * t**2,
    "exp": lambda t: np.exp(t) - 1.0,
}


# ---------------------------------------------------------------------------
# orders


def test_gamma_derived_not_stored():
    order = FractionalOrder(0.5, 0.5)
    assert order.gamma == 0.75
    assert "gamma" not in order.__dataclass_fields__


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_alpha_range_enforced(alpha):
    with pytest.raises(InvalidOrderError):
        FractionalOrder(alpha, 0.5)


@pytest.mark.parametrize("beta", [-0.01, 1.01])
def test_beta_range_enforced(beta):
    with pytest.raises(InvalidOrderError):
        FractionalOrder(0.5, beta)


@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_gamma_between_alpha_and_one(alpha, beta):
    order = FractionalOrder(alpha, beta)
    assert alpha <= order.gamma <= 1.0


# ---------------------------------------------------------------------------
# grids


def test_grid_nodes_uniform():
    g = make_grid(2.0, 9, lambda t: t)
    assert np.allclose(np.diff(g.t), 0.25)
    assert g.t[0] == 0.0 and g.t[-1] == 2.0


def test_decreasing_psi_rejected():
    with pytest.raises(DegenerateGridError, match="strictly increasing"):
        make_grid(1.0, 17, lambda t: -t)


def test_flat_psi_rejected():
    with pytest.raises(DegenerateGridError, match="strictly increasing"):
        make_grid(1.0, 17, lambda t: np.zeros_like(t))


def test_bad_horizon_and_node_count():
    with pytest.raises(DegenerateGridError):
        make_grid(0.0, 17, lambda t: t)
    with pytest.raises(DegenerateGridError):
        make_grid(1.0, 1, lambda t: t)


# nonlinear psi, and an affine psi whose linspace spacing is even only up
# to round-off
UNEVEN_GRIDS = [
    (1.0, 1000, lambda t: t + t**2),
    (1.0, 1000, lambda t: np.exp(t) - 1.0),
    (1.3, 1000, lambda t: t),
]


@pytest.mark.parametrize("T, n, psi", UNEVEN_GRIDS)
def test_grid_nodes_uniform_in_psi(T, n, psi):
    g = make_grid(T, n, psi)
    assert g.t[0] == 0.0 and g.t[-1] == T
    assert np.all(np.diff(g.t) > 0.0)
    tau = g.psi_values
    assert tau[0] == psi(0.0) and tau[-1] == psi(T)
    assert np.array_equal(tau[:-1], tau[0] + np.arange(n - 1) * g.dtau)
    assert np.abs(np.diff(tau) - g.dtau).max() <= 4 * np.spacing(tau[-1])
    assert np.abs(psi(g.t) - tau).max() <= 4 * np.spacing(tau[-1])


@pytest.mark.parametrize("psi_name", ["identity", "scaled"])
@pytest.mark.parametrize("n", [17, 513, 4097])
def test_affine_grid_reproduces_linspace(psi_name, n):
    psi = PSI_CHOICES[psi_name]
    g = make_grid(1.0, n, psi)
    t = np.linspace(0.0, 1.0, n)
    assert np.array_equal(g.t, t)
    assert np.array_equal(g.psi_values, psi(t))


@pytest.mark.parametrize("psi_name", sorted(PSI_CHOICES))
@pytest.mark.parametrize("n", [17, 129, 1000])
def test_refined_grid_contains_base_nodes(psi_name, n):
    # verify's slack compares the base solve with every other node of the
    # 2(n-1)+1 refinement, which needs the same t and tau there
    base = make_grid(1.0, n, PSI_CHOICES[psi_name])
    fine = make_grid(1.0, 2 * (n - 1) + 1, PSI_CHOICES[psi_name])
    assert np.array_equal(fine.t[::2], base.t)
    assert np.array_equal(fine.psi_values[::2], base.psi_values)


def test_grid_function_validation():
    g = make_grid(1.0, 9, lambda t: t)
    with pytest.raises(GridMismatchError, match="expected 9 values"):
        GridFunction(g, np.zeros(8))
    with pytest.raises(GridMismatchError, match="finite"):
        GridFunction(g, np.full(9, np.inf))


def test_grid_data_immutable():
    g = make_grid(1.0, 9, lambda t: t)
    with pytest.raises(ValueError):
        g.t[0] = 1.0
    f = GridFunction(g, np.zeros(9))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


# ---------------------------------------------------------------------------
# quadrature plans


def test_invalid_order_rejected():
    g = make_grid(1.0, 9, lambda t: t)
    for mu in (0.0, -0.5):
        with pytest.raises(InvalidOrderError):
            build_plan(mu, g)


@pytest.mark.parametrize("psi_name", sorted(PSI_CHOICES))
@pytest.mark.parametrize("mu", [0.3, 0.5, 0.99])
def test_row_zero_nonnegativity_and_exactness(psi_name, mu):
    g = make_grid(1.0, 257, PSI_CHOICES[psi_name])
    plan = build_plan(mu, g)
    assert np.all(plan.weights[0] == 0.0)
    assert np.all(plan.weights >= 0.0)
    sums = plan.weights.sum(axis=1)
    exact = (g.psi_values - g.psi_values[0]) ** mu / math.gamma(mu + 1.0)
    rel = np.abs(sums[1:] - exact[1:]) / exact[1:]
    assert rel.max() <= 1e-12


def test_order_one_reduces_to_ordinary_integral():
    g = make_grid(1.0, 129, lambda t: t)
    plan = build_plan(1.0, g)
    ones = GridFunction(g, np.ones(g.n))
    out = frac_integral(plan, ones)
    assert np.allclose(out.values, g.t, rtol=0.0, atol=1e-14)


def test_zero_function_maps_to_zero():
    g = make_grid(1.0, 65, lambda t: t + 0.5 * t**2)
    out = frac_integral(build_plan(0.7, g), GridFunction(g, np.zeros(g.n)))
    assert np.all(out.values == 0.0)


def test_node_zero_value_exactly_zero():
    g = make_grid(1.0, 65, lambda t: t)
    out = frac_integral(build_plan(0.5, g), GridFunction(g, np.cos(g.t)))
    assert out.values[0] == 0.0


def test_psi_power_rule_exact_for_linear_integrand():
    # f = psi - psi(0) is linear in the substitution variable, so the
    # product-trapezoid reproduces Gamma(2)/Gamma(2+mu)*(psi-psi0)^(1+mu)
    # to round-off
    g = make_grid(1.0, 257, lambda t: t + 0.5 * t**2)
    mu = 0.5
    f = GridFunction(g, g.psi_values - g.psi_values[0])
    out = frac_integral(build_plan(mu, g), f)
    exact = (
        math.gamma(2.0)
        / math.gamma(2.0 + mu)
        * (g.psi_values - g.psi_values[0]) ** (1.0 + mu)
    )
    assert np.abs(out.values - exact).max() < 1e-13


def test_grid_mismatch_rejected():
    g1 = make_grid(1.0, 17, lambda t: t)
    g2 = make_grid(1.0, 33, lambda t: t)
    plan = build_plan(0.5, g1)
    with pytest.raises(GridMismatchError):
        frac_integral(plan, GridFunction(g2, np.zeros(g2.n)))


def test_linearity_to_roundoff():
    g = make_grid(1.0, 129, lambda t: 2.0 * t)
    plan = build_plan(0.4, g)
    f = GridFunction(g, np.sin(g.t))
    h = GridFunction(g, np.exp(-g.t))
    lhs = frac_integral(plan, GridFunction(g, 2.0 * f.values - 3.0 * h.values))
    rhs = 2.0 * frac_integral(plan, f).values - 3.0 * frac_integral(plan, h).values
    assert np.abs(lhs.values - rhs).max() < 1e-13


# one plan on a nonlinear psi and one on psi = t
_PLANS17 = (
    build_plan(0.5, make_grid(1.0, 17, lambda t: t + 0.5 * t**2)),
    build_plan(0.5, make_grid(1.0, 17, lambda t: t)),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=17, max_size=17))
# leading zeros: FFT round-off alone would leave those outputs at about -1e-15
@example([0.0] * 16 + [10.0])
@example([0.0] * 8 + [10.0] * 9)
def test_monotonicity_nonnegative_inputs(values):
    for plan in _PLANS17:
        out = frac_integral(plan, GridFunction(plan.grid, np.array(values)))
        assert np.all(out.values >= 0.0)


@pytest.mark.parametrize("psi_name", ["identity", "scaled"])
@pytest.mark.parametrize("n", [17, 513, 4097])
@pytest.mark.parametrize("mu", [0.3, 0.5, 0.99])
def test_toeplitz_plan_matches_dense_build(psi_name, n, mu):
    # on these grids the tau differences are exact, so the weights must be
    # those of the tau-difference formula, bit for bit
    g = make_grid(1.0, n, PSI_CHOICES[psi_name])
    plan = build_plan(mu, g)
    dense = tau_difference_weights(mu, g.psi_values)
    assert np.array_equal(plan.weights, dense)
    # the FFT apply sums in another order: round-off relative to |W| |x|
    norm = np.abs(dense).sum(axis=1).max()
    rng = np.random.default_rng(n)
    for x in (rng.normal(size=n), rng.normal(size=(n, 5))):
        out = plan.apply(x)
        assert out.shape == x.shape
        assert np.abs(out - dense @ x).max() <= 1e-14 * norm * np.abs(x).max()


@pytest.mark.parametrize("T, n, psi", UNEVEN_GRIDS)
def test_plan_matches_index_lag_build_on_every_grid(T, n, psi):
    g = make_grid(T, n, psi)
    mu = 0.5
    plan = build_plan(mu, g)
    assert np.array_equal(plan.weights, _weight_columns(mu, g.dtau, n, n - 1))
    sums = plan.weights.sum(axis=1)
    exact = (g.psi_values - g.psi_values[0]) ** mu / math.gamma(mu + 1.0)
    assert (np.abs(sums[1:] - exact[1:]) / exact[1:]).max() <= 1e-12


def test_plan_memory_linear_in_n_for_nonlinear_psi():
    g = make_grid(1.0, 1_000_000, lambda t: t + t**2)
    tracemalloc.start()
    try:
        plan = build_plan(0.5, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.apply(np.ones(g.n))[-1] > 0.0
    # O(n) temporaries only: the smallest n^2 array would be 8 TB
    assert peak < 32 * 8 * g.n


def test_classical_reduction_against_textbook_oracle():
    g = make_grid(1.0, 513, lambda t: t)
    plan = build_plan(0.5, g)
    functions = [
        np.sin(g.t),
        np.cos(g.t),
        np.exp(-g.t),
        g.t**2,
        1.0 / (1.0 + g.t),
    ]
    for fvals in functions:
        ours = frac_integral(plan, GridFunction(g, fvals)).values
        oracle = classical_rl_product_trapezoid(g.t, fvals, 0.5)
        assert np.abs(ours - oracle).max() <= 1e-12


def test_convergence_power_rule_refinement():
    # f = (psi-psi0)^1.5 is curved in the substitution variable, so the
    # rule is inexact and the error must drop by >= 3 under doubling
    mu, delta = 0.5, 2.5
    errors = []
    for n in (257, 513, 1025):
        g = make_grid(1.0, n, lambda t: t)
        f = GridFunction(g, (g.psi_values - g.psi_values[0]) ** (delta - 1.0))
        out = frac_integral(build_plan(mu, g), f)
        exact = (
            math.gamma(delta)
            / math.gamma(delta + mu)
            * (g.psi_values - g.psi_values[0]) ** (delta + mu - 1.0)
        )
        errors.append(np.abs(out.values - exact).max())
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_semigroup_composition():
    g = make_grid(1.0, 1025, lambda t: t + 0.5 * t**2)
    f = GridFunction(g, np.cos(g.t))
    composed = frac_integral(
        build_plan(0.3, g), frac_integral(build_plan(0.4, g), f)
    )
    direct = frac_integral(build_plan(0.7, g), f)
    assert np.abs(composed.values - direct.values).max() < 5e-3


# ---------------------------------------------------------------------------
# the two-parameter derivative


def test_derivative_annihilates_constants_caputo_type():
    g = make_grid(1.0, 1025, lambda t: t)
    order = FractionalOrder(0.5, 1.0)
    out = hilfer_derivative(order, g, GridFunction(g, np.full(g.n, 3.7)))
    assert np.abs(out.values).max() < 1e-3


def test_derivative_annihilates_kernel_function_relative():
    # input (psi-psi0)^(gamma-1) is singular at 0, outside the smoothness
    # precondition; annihilation holds relative to the input's scale and
    # the output must agree with a high-resolution composition
    order = FractionalOrder(0.5, 0.5)
    gmm = order.gamma

    def compute(n):
        g = make_grid(1.0, n, lambda t: t)
        vals = np.empty(g.n)
        vals[1:] = (g.psi_values[1:] - g.psi_values[0]) ** (gmm - 1.0)
        vals[0] = (0.5 * g.t[1]) ** (gmm - 1.0)
        out = hilfer_derivative(order, g, GridFunction(g, vals))
        return g, vals, out.values

    g1, vals1, out1 = compute(1025)
    window1 = np.abs(out1[g1.n // 8 :]).max()
    assert window1 <= 0.05 * np.abs(vals1).max()
    g2, _, out2 = compute(4097)
    window2 = np.abs(out2[g2.n // 8 :]).max()
    assert abs(window1 - window2) <= 0.02


def test_derivative_integral_roundtrip_caputo_type():
    g = make_grid(1.0, 1025, lambda t: t)
    order = FractionalOrder(0.5, 1.0)
    f = GridFunction(g, np.sin(g.t))
    back = hilfer_derivative(order, g, frac_integral(build_plan(0.5, g), f))
    assert np.abs(back.values - f.values)[1:-1].max() < 2e-4


def test_derivative_integral_roundtrip_rl_type():
    g = make_grid(1.0, 2049, lambda t: t)
    order = FractionalOrder(0.5, 0.0)
    f = GridFunction(g, np.sin(g.t))
    back = hilfer_derivative(order, g, frac_integral(build_plan(0.5, g), f))
    assert np.abs(back.values - f.values)[1:-1].max() < 1e-4


def test_derivative_grid_mismatch():
    g1 = make_grid(1.0, 17, lambda t: t)
    g2 = make_grid(1.0, 33, lambda t: t)
    with pytest.raises(GridMismatchError):
        hilfer_derivative(
            FractionalOrder(0.5, 1.0), g1, GridFunction(g2, np.zeros(g2.n))
        )


def test_derivative_requires_order_object():
    g = make_grid(1.0, 17, lambda t: t)
    with pytest.raises(InvalidOrderError):
        hilfer_derivative(0.5, g, GridFunction(g, np.zeros(g.n)))
