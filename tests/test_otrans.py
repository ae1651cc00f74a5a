"""Sinkhorn solver contracts, the order prior, and the order-preserving
reduction to plain entropic transport."""

import numpy as np
import pytest

from wsseg.otrans import (
    TransportPlan,
    TransportProblem,
    order_prior,
    sinkhorn,
    solve_order_preserving,
)

from loop_reference import KernelOverflowError, sinkhorn_direct


def entropic_objective(q, score, reg):
    """Tr(Q^T S) + reg * H(Q), the quantity Sinkhorn maximizes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(q > 0, q * np.log(q), 0.0).sum()
    return (q * score).sum() + reg * ent


def best_2x2_objective(score, alpha, beta, reg, grid=200001):
    """Dense search over the one-parameter family of feasible 2x2 plans."""
    lo = max(0.0, alpha[0] - beta[1])
    hi = min(alpha[0], beta[0])
    q00 = np.linspace(lo, hi, grid)
    # one column per grid point: the plan entries q00, q01, q10, q11
    q = np.stack([q00, alpha[0] - q00, beta[0] - q00, beta[1] - alpha[0] + q00])
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(q > 0, q * np.log(q), 0.0).sum(axis=0)
    return float(((q * np.reshape(score, (4, 1))).sum(axis=0) + reg * ent).max())


def _uniform_problem(score, reg):
    n, m = score.shape
    return TransportProblem(score, np.full(n, 1 / n), np.full(m, 1 / m), reg)


def test_constant_score_gives_product_plan():
    problem = _uniform_problem(np.full((3, 5), 0.7), reg=0.4)
    plan = sinkhorn(problem, tol=1e-10)
    np.testing.assert_allclose(plan.q, np.full((3, 5), 1 / 15), atol=1e-9)


def test_1x1_plan_is_forced():
    plan = sinkhorn(_uniform_problem(np.array([[2.0]]), reg=1.0), tol=1e-12)
    np.testing.assert_allclose(plan.q, [[1.0]], atol=1e-12)


def test_2x2_matches_grid_search_oracle():
    score = np.array([[1.0, 0.0], [0.0, 1.0]])
    problem = _uniform_problem(score, reg=0.5)
    plan = sinkhorn(problem, tol=1e-10)
    ours = entropic_objective(plan.q, score, 0.5)
    oracle = best_2x2_objective(score, problem.alpha, problem.beta, 0.5)
    assert abs(ours - oracle) <= 1e-4
    assert ours <= oracle + 1e-9  # the oracle is a maximizer


def test_marginal_contract_random_problems(rng):
    for _ in range(40):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 9))
        score = rng.standard_normal((n, m))
        alpha = rng.dirichlet(np.ones(n))
        beta = rng.dirichlet(np.ones(m))
        plan = sinkhorn(TransportProblem(score, alpha, beta, 0.3), max_iters=20000, tol=1e-8)
        assert plan.converged
        assert plan.marginal_residual <= 1e-8
        assert plan.q.min() >= 0.0
        np.testing.assert_allclose(plan.q.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(plan.q.sum(axis=1), alpha, atol=1e-7)
        np.testing.assert_allclose(plan.q.sum(axis=0), beta, atol=1e-7)


def test_log_and_direct_domains_agree(rng):
    for _ in range(10):
        score = rng.standard_normal((7, 4))
        problem = TransportProblem(
            score, rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(4)), 0.5
        )
        a = sinkhorn(problem, tol=1e-12, max_iters=20000)
        b = sinkhorn_direct(problem, tol=1e-12, max_iters=20000)
        np.testing.assert_allclose(a.q, b.q, atol=1e-8)


def test_non_convergence_flag(rng):
    score = rng.standard_normal((6, 4))
    problem = TransportProblem(
        score, rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(4)), 0.05
    )
    plan = sinkhorn(problem, max_iters=1, tol=1e-14)
    assert not plan.converged
    assert plan.iterations_used == 1
    assert plan.marginal_residual > 1e-14


def test_direct_domain_overflow_raises():
    problem = _uniform_problem(np.array([[2000.0, -2000.0], [-2000.0, 2000.0]]), reg=1.0)
    with pytest.raises(KernelOverflowError):
        sinkhorn_direct(problem)


def test_problem_validation():
    with pytest.raises(ValueError):
        TransportProblem(np.ones((2, 2)), np.array([0.7, 0.7]), np.array([0.5, 0.5]), 0.1)
    with pytest.raises(ValueError):
        TransportProblem(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.5]), -1.0)
    with pytest.raises(ValueError):
        TransportProblem(
            np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.1,
            prior=np.zeros((2, 2)),
        )


def test_zero_mass_row_is_respected():
    score = np.array([[1.0, 0.2], [0.1, 0.6], [0.3, 0.4]])
    alpha = np.array([0.5, 0.0, 0.5])
    beta = np.array([0.5, 0.5])
    plan = sinkhorn(TransportProblem(score, alpha, beta, 0.4), tol=1e-10)
    assert plan.converged
    np.testing.assert_allclose(plan.q[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(plan.q.sum(axis=1), alpha, atol=1e-9)


def test_order_prior_values():
    t = order_prior(2, 2, sigma=1.0)
    peak = 1.0 / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(t[0, 0], peak, rtol=1e-12)  # i/N == j/M
    np.testing.assert_allclose(t[1, 1], peak, rtol=1e-12)
    d = 0.5 / np.sqrt(0.5)
    np.testing.assert_allclose(d, 0.7071067811865476, rtol=1e-12)
    np.testing.assert_allclose(t[0, 1], peak * np.exp(-d * d / 2.0), rtol=1e-12)


def test_order_prior_symmetry():
    t = order_prior(5, 5, sigma=0.7)
    np.testing.assert_allclose(t, t.T, atol=1e-15)


def test_flat_prior_reduces_to_plain_sinkhorn(rng):
    for _ in range(10):
        v = rng.standard_normal((12, 3))
        p = rng.standard_normal((3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        flat = solve_order_preserving(
            v, p, rho=0.3, prior=np.ones((12, 3)), tol=1e-12, max_iters=20000
        )
        plain = sinkhorn(
            TransportProblem(v @ p.T, np.full(12, 1 / 12), np.full(3, 1 / 3), 0.3),
            tol=1e-12,
            max_iters=20000,
        )
        np.testing.assert_allclose(flat.q, plain.q, atol=1e-8)


def test_huge_sigma_matches_flat_prior(rng):
    v = rng.standard_normal((9, 2))
    p = rng.standard_normal((2, 2))
    via_sigma = solve_order_preserving(v, p, rho=0.5, sigma=1e12, tol=1e-12, max_iters=20000)
    flat = solve_order_preserving(
        v, p, rho=0.5, prior=np.ones((9, 2)), tol=1e-12, max_iters=20000
    )
    np.testing.assert_allclose(via_sigma.q, flat.q, atol=1e-10)


def test_large_rho_converges_to_projected_prior(rng):
    v = 0.01 * rng.standard_normal((8, 2))
    p = 0.01 * rng.standard_normal((2, 2))
    with_scores = solve_order_preserving(v, p, rho=1e9, sigma=0.8, tol=1e-12, max_iters=20000)
    prior_only = solve_order_preserving(
        np.zeros((8, 2)), np.zeros((2, 2)), rho=1.0, sigma=0.8, tol=1e-12, max_iters=20000
    )
    np.testing.assert_allclose(with_scores.q, prior_only.q, atol=1e-9)


def test_ordered_embeddings_get_ordered_assignments(rng):
    proto = rng.standard_normal((2, 5))
    proto /= np.linalg.norm(proto, axis=1, keepdims=True)
    v = np.vstack([np.repeat(proto[:1], 3, axis=0), np.repeat(proto[1:], 3, axis=0)])
    plan = solve_order_preserving(v, proto, rho=0.1, sigma=1.0, tol=1e-10, max_iters=50000)
    np.testing.assert_array_equal(np.argmax(plan.q, axis=1), [0, 0, 0, 1, 1, 1])


def test_column_permutation_equivariance(rng):
    v = rng.standard_normal((10, 4))
    p = rng.standard_normal((3, 4))
    perm = np.array([2, 0, 1])
    base = solve_order_preserving(v, p, rho=0.4, prior=np.ones((10, 3)), tol=1e-12,
                                  max_iters=20000)
    permuted = solve_order_preserving(
        v, p[perm], rho=0.4, prior=np.ones((10, 3)), tol=1e-12, max_iters=20000
    )
    np.testing.assert_allclose(base.q[:, perm], permuted.q, atol=1e-10)
