"""Independent numerical oracles used to validate the package.

Nothing here imports from fracstab: these implementations follow
different algebraic routes on purpose, so agreement is evidence rather
than tautology.
"""

import csv
import math
from pathlib import Path

import numpy as np

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


def classical_rl_product_trapezoid(x, fvals, mu):
    """Textbook Riemann-Liouville product-trapezoid on a uniform grid.

    For each node x_i accumulates the integrals of the piecewise-linear
    interpolant of f against (x_i - tau)^(mu-1), writing the interpolant
    on panel [x_j, x_{j+1}] in coefficient form c + d*tau and using the
    antiderivative directly:

        int (c + d*tau) (x - tau)^(mu-1) dtau
            = (c + d*x) * (A^mu - B^mu)/mu - d * (A^(mu+1) - B^(mu+1))/(mu+1)

    with A = x - x_j, B = x - x_{j+1}.  Row-by-row accumulation, no weight
    matrix: a deliberately different route from the library.
    """
    x = np.asarray(x, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    n = x.size
    out = np.zeros(n)
    gamma_mu = math.gamma(mu)
    for i in range(1, n):
        xi = x[i]
        total = 0.0
        for j in range(i):
            x0, x1 = x[j], x[j + 1]
            f0, f1 = fvals[j], fvals[j + 1]
            d = (f1 - f0) / (x1 - x0)
            c = f0 - d * x0
            a_pan = xi - x0
            b_pan = xi - x1
            term0 = (a_pan**mu - b_pan**mu) / mu
            term1 = (a_pan ** (mu + 1.0) - b_pan ** (mu + 1.0)) / (mu + 1.0)
            total += (c + d * xi) * term0 - d * term1
        out[i] = total / gamma_mu
    return out


def ml_series(alpha, z, terms=80):
    """Mittag-Leffler E_alpha(z) by direct series summation."""
    return sum(z**k / math.gamma(alpha * k + 1.0) for k in range(terms))


def ml_solution(t, alpha=0.5):
    """Solution of D^alpha u = -u, u weighted-initial 1: u(t) = E_alpha(-t^alpha)."""
    t = np.asarray(t, dtype=float)
    return np.array([ml_series(alpha, -(ti**alpha)) for ti in np.atleast_1d(t)])


def brute_force_half_integral_of_identity(panels=1_000_000):
    """10^6-panel midpoint value of (1/Gamma(1/2)) int_0^1 (1-xi)^(-1/2) xi dxi.

    The substitution v = sqrt(1 - xi) removes the endpoint singularity:
    the integrand becomes 2*(1 - v^2), smooth on [0, 1], so plain midpoint
    converges cleanly.
    """
    v = (np.arange(panels) + 0.5) / panels
    integrand = 2.0 * (1.0 - v * v)
    return float(np.sum(integrand)) / panels / math.gamma(0.5)


def load_ml_oracle():
    """Frozen high-precision values of E_{1/2}(-sqrt(t)) on t = j/32."""
    path = PROBLEMS_DIR / "mittag_leffler_oracle.csv"
    ts, us = [], []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            ts.append(float(row["t"]))
            us.append(float(row["u_exact"]))
    return np.array(ts), np.array(us)


def tau_difference_weights(mu, tau):
    """Dense product-trapezoid weights from differences of the stored tau nodes.

    The product-trapezoid formula with A = max(tau_i - tau_j, 0) and
    B = max(tau_i - tau_{j+1}, 0) on any increasing abscissae, where the
    library takes A and B from integer lags times a uniform spacing.  On
    grids where the tau differences are exact (psi = t or 2t, T = 1, n - 1
    a power of two) the two must agree bitwise.
    """
    tau = np.asarray(tau, dtype=float)
    panels = tau.size - 1
    dtau = tau[1:] - tau[:-1]
    A = np.maximum(tau[:, None] - tau[None, :panels], 0.0)
    B = np.maximum(tau[:, None] - tau[None, 1:], 0.0)
    g0 = (A**mu - B**mu) / mu
    g1 = (A ** (mu + 1.0) - B ** (mu + 1.0)) / (mu + 1.0)
    weights = np.zeros((tau.size, tau.size))
    weights[:, :-1] += (g1 - B * g0) / dtau
    weights[:, 1:] += (A * g0 - g1) / dtau
    weights /= math.gamma(mu)
    np.maximum(weights, 0.0, out=weights)
    return weights


def erfc_relaxation(tau):
    """Exact solution exp(tau)*erfc(sqrt(tau)) of the half-order relaxation.

    For alpha = 1/2, beta = 1, sigma = 1 and f = -u the solution is
    E_{1/2}(-tau^{1/2}) with tau = psi(t) - psi(0), for any increasing psi,
    and E_{1/2}(-sqrt(x)) = exp(x)*erfc(sqrt(x)).
    """
    return np.array([math.exp(x) * math.erfc(math.sqrt(x)) for x in np.atleast_1d(tau)])
