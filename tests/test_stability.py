import dataclasses
import json
import math

import numpy as np
import pytest

import fracstab.stability as stability_module
from fracstab.cli import load_problem
from fracstab.exprlang import parse
from fracstab.psicalc import FractionalOrder, GridFunction, build_plan
from fracstab.solver import ProblemSpec, problem_grid, solve
from fracstab.stability import (
    ContractionViolatedError,
    DegenerateDenominatorError,
    InadmissiblePerturbationError,
    NonpositivePhiError,
    estimate_M,
    hu_bound,
    hur_bound,
    make_perturbed,
    verify,
)


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


def plan_for(spec):
    return build_plan(spec.order.alpha, problem_grid(spec))


# ---------------------------------------------------------------------------
# M estimation


def test_estimate_m_constant_envelope_recovers_span_constant():
    spec = make_spec(phi="1", L_f=0.1, n=513)
    m = estimate_M(spec, plan_for(spec))
    assert m == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)
    assert m == pytest.approx(1.12838, abs=1e-5)


def test_estimate_m_exponential_envelope():
    spec = make_spec(phi="exp(t)", L_f=0.1, n=1025)
    m = estimate_M(spec, plan_for(spec))
    assert abs(m - math.erf(1.0)) <= 5e-4


def test_estimate_m_rejects_nonpositive_envelope():
    spec = make_spec(phi="t", L_f=0.1)  # zero at node 0, checked for gamma = 1
    with pytest.raises(NonpositivePhiError):
        estimate_M(spec, plan_for(spec))
    spec2 = make_spec(phi="cos(pi*t)", L_f=0.1)  # negative past t = 1/2
    with pytest.raises(NonpositivePhiError):
        estimate_M(spec2, plan_for(spec2))


def test_estimate_m_requires_envelope_mode():
    spec = make_spec(epsilon=0.01)
    with pytest.raises(ValueError, match="HUR"):
        estimate_M(spec, plan_for(spec))


# ---------------------------------------------------------------------------
# bounds


def test_envelope_bound_arithmetic():
    spec = make_spec(phi="1", L_f=0.1, L_k=0.05, n=65)
    bound = hur_bound(spec, M=0.8427, q=0.11978)
    expected = 0.8427 / (1.0 - 0.11978)
    assert np.all(np.abs(bound.values - expected) < 1e-12)
    assert expected == pytest.approx(0.9574, abs=1e-4)


def test_envelope_bound_zero_q_is_m_phi():
    spec = make_spec(phi="exp(t)", L_f=0.0, n=65)
    bound = hur_bound(spec, M=2.0, q=0.0)
    grid = problem_grid(spec)
    assert np.array_equal(bound.values, 2.0 * np.exp(grid.t))


def test_envelope_bound_refuses_q_at_least_one():
    spec = make_spec(phi="1", L_f=0.9)
    with pytest.raises(ContractionViolatedError):
        hur_bound(spec, M=1.2, q=1.2)


def test_constant_bound_arithmetic():
    spec = make_spec(epsilon=0.01, L_f=0.2, L_k=0.1)
    expected = 0.01 / (math.gamma(1.5) - 0.25)
    assert hu_bound(spec) == pytest.approx(expected, rel=1e-14)
    assert hu_bound(spec) == pytest.approx(0.0157176, abs=1e-7)


def test_constant_bound_zero_epsilon():
    spec = make_spec(epsilon=0.0)
    assert hu_bound(spec) == 0.0


def test_constant_bound_linear_in_epsilon():
    b1 = hu_bound(make_spec(epsilon=0.01))
    b2 = hu_bound(make_spec(epsilon=0.02))
    assert b2 == 2.0 * b1


def test_constant_bound_degenerate_denominator():
    spec = make_spec(epsilon=0.01, L_f=2.0)
    with pytest.raises(DegenerateDenominatorError):
        hu_bound(spec)


def test_constant_bound_requires_epsilon_mode():
    with pytest.raises(ValueError, match="HU"):
        hu_bound(make_spec(phi="1"))


# ---------------------------------------------------------------------------
# manufactured perturbations


def test_zero_delta_recovers_base_solution():
    spec = make_spec(epsilon=0.01, n=257)
    tol = 1e-10
    base = solve(spec, tol=tol)
    u = make_perturbed(spec, np.zeros(spec.n), tol=tol).solution
    assert np.abs(u.values - base.solution.values).max() <= 2.0 * tol


def test_constant_epsilon_delta_stays_under_bound():
    spec = make_spec(epsilon=0.01, n=257)
    plan = plan_for(spec)
    base = solve(spec, plan=plan)
    u = make_perturbed(spec, parse("0.01", {"t"}), plan_alpha=plan).solution
    deviation = np.abs(u.values - base.solution.values).max()
    assert deviation <= hu_bound(spec)


def test_sign_alternating_envelope_delta_admissible():
    spec = make_spec(phi="exp(t)", L_f=0.1, n=257)
    grid = problem_grid(spec)
    u = make_perturbed(spec, parse("exp(t)*sin(10*t)", {"t"})).solution
    assert u.values.shape == (grid.n,)


def test_inadmissible_delta_rejected_nodewise():
    spec = make_spec(epsilon=0.01, n=65)
    delta = np.full(spec.n, 0.01)
    delta[40] = 0.010000001
    with pytest.raises(InadmissiblePerturbationError, match="node 40"):
        make_perturbed(spec, delta)


def test_wrong_length_delta_rejected():
    spec = make_spec(epsilon=0.01, n=65)
    with pytest.raises(InadmissiblePerturbationError, match="shape"):
        make_perturbed(spec, np.zeros(64))


def test_block_delta_matches_one_column_at_a_time():
    spec = make_spec(phi="exp(t)", L_f=0.1, k="0.03*cos(t)*u", L_k=0.03, n=129)
    grid = problem_grid(spec)
    plan = plan_for(spec)
    env = np.exp(grid.t)
    deltas = np.stack([env, -0.5 * env, env * np.sin(10.0 * grid.t)], axis=1)
    block = make_perturbed(spec, deltas, plan_alpha=plan)
    assert len(block) == 3
    for j, report in enumerate(block):
        solo = make_perturbed(spec, deltas[:, j], plan_alpha=plan)
        assert np.array_equal(report.solution.values, solo.solution.values)
        assert report.iterations == solo.iterations
        assert np.array_equal(report.residual_trace, solo.residual_trace)
        assert report.converged == solo.converged


def test_inadmissible_block_names_column_and_node():
    spec = make_spec(epsilon=0.01, n=65)
    deltas = np.full((spec.n, 4), 0.01)
    deltas[40, 2] = 0.010000001
    deltas[50, 3] = -0.02
    with pytest.raises(InadmissiblePerturbationError, match="node 40 of column 2 "):
        make_perturbed(spec, deltas)


def test_wrong_row_count_block_rejected():
    spec = make_spec(epsilon=0.01, n=65)
    with pytest.raises(InadmissiblePerturbationError, match="shape \\(64, 3\\)"):
        make_perturbed(spec, np.zeros((64, 3)))


def test_delta_needs_envelope_or_epsilon():
    spec = make_spec()
    with pytest.raises(ValueError, match="solve-only"):
        make_perturbed(spec, np.zeros(spec.n))


# ---------------------------------------------------------------------------
# verification


def test_verify_certifies_linear_constant_mode():
    spec = make_spec(epsilon=0.01, n=257)
    cert = verify(spec, 20, rng_seed=0)
    assert cert.mode == "HU"
    assert cert.certified
    assert cert.perturbations_tested == 20
    assert cert.empirical_max_deviation <= hu_bound(spec) + cert.slack
    assert all(m <= cert.slack for m in cert.margins)
    assert cert.M is None and cert.M_estimate is None
    assert np.all(cert.bound.values == cert.bound.values[0])


def test_verify_certifies_envelope_mode_nodewise():
    spec = make_spec(f="-u/10", k="0.03*cos(t)*u", L_f=0.1, L_k=0.03,
                     phi="exp(t)", n=257)
    cert = verify(spec, 20, rng_seed=0)
    assert cert.mode == "HUR"
    assert cert.certified
    grid = problem_grid(spec)
    expected = cert.M * np.exp(grid.t) / (1.0 - cert.contraction_q)
    assert np.allclose(cert.bound.values, expected, rtol=1e-12)
    # nodewise: worst deviation under bound + slack at every checked node
    gap = cert.worst_deviation.values - cert.bound.values
    assert gap.max() <= cert.slack


def test_verify_zero_perturbations_never_certifies():
    spec = make_spec(epsilon=0.01, n=65)
    cert = verify(spec, 0, rng_seed=0)
    assert cert.perturbations_tested == 0
    assert not cert.certified


def test_verify_unconverged_refinement_solve_blocks_certification(monkeypatch):
    spec = make_spec(epsilon=0.01, n=65)
    real = stability_module.solve

    def solve_refine_unconverged(spec, *args, **kwargs):
        report = real(spec, *args, **kwargs)
        if kwargs.get("plan") is None:  # the refinement solve builds its own plan
            report = dataclasses.replace(report, converged=False)
        return report

    monkeypatch.setattr(stability_module, "solve", solve_refine_unconverged)
    cert = verify(spec, 4, rng_seed=0)
    assert not cert.certified
    assert "refinement solve did not converge within max_iter" in cert.warnings
    assert all(m <= cert.slack for m in cert.margins)


def test_verify_unconverged_perturbed_solve_blocks_certification():
    # the base and refinement solves converge within 17 iterations, most
    # perturbed solves need up to 19
    spec = make_spec(epsilon=100.0, n=129)
    cert = verify(spec, 20, rng_seed=0, max_iter=17)
    assert not cert.certified
    assert "17 of 20 perturbed solves did not converge within max_iter" in cert.warnings
    assert not any("base" in w or "refinement" in w for w in cert.warnings)
    assert all(m <= cert.slack for m in cert.margins)
    assert verify(spec, 20, rng_seed=0, max_iter=19).certified


def test_make_perturbed_reports_convergence():
    spec = make_spec(epsilon=100.0, n=129)
    delta = np.full(spec.n, 100.0)
    report = make_perturbed(spec, delta, max_iter=5)
    assert not report.converged and report.iterations == 5
    report = make_perturbed(spec, delta)
    assert report.converged
    assert report.solution.values.shape == (spec.n,)


def test_verify_deterministic():
    spec = make_spec(epsilon=0.01, n=129)
    a = verify(spec, 8, rng_seed=42)
    b = verify(spec, 8, rng_seed=42)
    assert a.margins == b.margins
    assert a.empirical_max_deviation == b.empirical_max_deviation
    assert np.array_equal(a.worst_deviation.values, b.worst_deviation.values)
    assert a.to_json() == b.to_json()


def test_verify_seed_changes_margins_not_bound():
    spec = make_spec(epsilon=0.01, n=129)
    a = verify(spec, 8, rng_seed=1)
    b = verify(spec, 8, rng_seed=2)
    assert np.array_equal(a.bound.values, b.bound.values)
    assert a.margins != b.margins  # random catalog entries differ


def test_verify_refuses_violated_contraction_envelope_mode():
    spec = make_spec(f="-2*u", L_f=2.0, phi="exp(t)", n=65)
    with pytest.raises(ContractionViolatedError):
        verify(spec, 5, rng_seed=0)


def test_verify_refuses_degenerate_denominator_constant_mode():
    spec = make_spec(f="-2*u", L_f=2.0, epsilon=0.01, n=65)
    with pytest.raises(DegenerateDenominatorError):
        verify(spec, 5, rng_seed=0)


def test_verify_requires_a_mode():
    with pytest.raises(ValueError, match="envelope or epsilon"):
        verify(make_spec(), 5, rng_seed=0)


def test_verify_warns_on_hypothesis_form_mismatch():
    spec = make_spec(epsilon=0.01, n=65)
    cert = verify(spec, 2, rng_seed=0)
    assert any("smallness hypothesis" in w for w in cert.warnings)


def test_verify_warns_on_singular_node_placeholder():
    spec = make_spec(beta=0.5, epsilon=0.01, n=65)
    cert = verify(spec, 2, rng_seed=0)
    assert any("gamma < 1" in w for w in cert.warnings)
    assert cert.certified


def test_verify_m_override_recorded_and_looser():
    spec = make_spec(f="-u/10", L_f=0.1, phi="exp(t)", n=129)
    base = verify(spec, 4, rng_seed=0)
    loose = verify(spec, 4, rng_seed=0, M_override=1.0)
    assert loose.M == 1.0
    assert loose.M_estimate == base.M_estimate
    assert np.all(loose.bound.values >= base.bound.values)
    assert loose.certified


def test_certificate_json_schema():
    spec = make_spec(epsilon=0.01, n=129)
    cert = verify(spec, 4, rng_seed=7)
    doc = json.loads(cert.to_json())
    assert set(doc) == {
        "mode", "M", "M_estimate", "q", "bound", "empirical_max_deviation",
        "perturbations_tested", "margins", "slack", "certified", "warnings",
        "seed", "n",
    }
    assert doc["mode"] == "HU"
    assert doc["bound"]["constant"] is True
    assert doc["seed"] == 7 and doc["n"] == 129
    assert len(doc["margins"]) == 4


def test_all_shipped_verification_problems_certify(problems_dir):
    shipped = sorted(problems_dir.glob("*.json"))
    assert len(shipped) >= 4
    checked = 0
    for path in shipped:
        spec, options = load_problem(str(path))
        if spec.mode is None:
            continue
        cert = verify(
            spec,
            options["num_perturbations"],
            options["seed"],
            tol=options["tol"],
            max_iter=options["max_iter"],
        )
        assert cert.certified, f"{path.name} failed to certify"
        checked += 1
    assert checked >= 4
