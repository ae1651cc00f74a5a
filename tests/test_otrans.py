"""Sinkhorn solver contracts, agreement with the log-domain reference, the
order prior, and the order-preserving reduction to plain entropic
transport."""

import warnings

import numpy as np
import pytest

import wsseg.otrans as otrans_mod
from wsseg.otrans import (
    TransportPlan,
    TransportProblem,
    log_order_prior,
    sinkhorn,
    solve_order_preserving,
)

from loop_reference import KernelOverflowError, sinkhorn_direct, sinkhorn_log


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


def _uniform_problem(score, reg, log_prior=None):
    n, m = score.shape
    return TransportProblem(score, np.full(n, 1 / n), np.full(m, 1 / m), reg, log_prior)


def _flat_prior_plan(v, p, rho, **kw):
    """``solve_order_preserving``'s problem with a flat prior, log T = 0."""
    score = v @ p.T
    return sinkhorn(_uniform_problem(score, rho, np.zeros(score.shape)), **kw)


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
    # the reported residual is the returned plan's, not the stopping test's
    row = np.abs(plan.q.sum(axis=1) - problem.alpha).max()
    col = np.abs(plan.q.sum(axis=0) - problem.beta).max()
    assert plan.marginal_residual == max(row, col)


def _kernel_builds(monkeypatch):
    """Count how often the solver forms K: once at the start, then once per
    absorption."""
    calls = []
    build = otrans_mod._kernel
    monkeypatch.setattr(otrans_mod, "_kernel", lambda *a: calls.append(1) or build(*a))
    return calls


def _oracle_problem(rng, i):
    """Random problems with Dirichlet marginals: plain entropic, under an
    order prior, and both of these with column offsets whose kernel spans
    far more than [1/TAU, TAU], which the solver must absorb."""
    n = int(rng.integers(2, 41))
    m = int(rng.integers(2, 7))
    score = rng.standard_normal((n, m))
    alpha = rng.dirichlet(np.ones(n))
    beta = rng.dirichlet(np.ones(m))
    reg = float(rng.uniform(0.1, 1.0))
    log_prior = None
    if i % 4 in (1, 3):
        log_prior = log_order_prior(n, m, float(rng.uniform(0.1, 1.0)))
    if i % 4 in (2, 3):  # columns exp(300) apart in the kernel
        score = score + reg * 300.0 * rng.permutation(m)
    return TransportProblem(score, alpha, beta, reg, log_prior)


def test_scaling_iteration_matches_log_domain_reference(rng, monkeypatch):
    builds = _kernel_builds(monkeypatch)
    absorbed = 0
    for i in range(200):
        problem = _oracle_problem(rng, i)
        builds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn(problem, max_iters=5000, tol=1e-9)
        reference = sinkhorn_log(problem, max_iters=5000, tol=1e-9)
        absorbed += len(builds) > 1
        assert plan.iterations_used == reference.iterations_used
        assert plan.converged == reference.converged
        assert np.abs(plan.q - reference.q).max() <= 1e-12 * reference.q.max()
    assert absorbed >= 50


def test_absorption_keeps_scalings_in_range(monkeypatch):
    # column 1 is about exp(800) times column 0 in the kernel: the
    # unstabilized scaling overflows, the stabilized one absorbs and meets
    # the marginals
    score = np.array([[0.3, 8.0], [0.1, 8.2], [0.5, 7.9]])
    problem = TransportProblem(score, np.full(3, 1 / 3), np.array([0.5, 0.5]), 0.01)
    with pytest.raises(KernelOverflowError):
        sinkhorn_direct(problem)
    builds = _kernel_builds(monkeypatch)
    plan = sinkhorn(problem, tol=1e-12)
    assert len(builds) >= 2
    assert plan.converged and plan.marginal_residual <= 1e-12
    reference = sinkhorn_log(problem, tol=1e-12)
    assert plan.iterations_used == reference.iterations_used
    assert np.abs(plan.q - reference.q).max() <= 1e-12 * reference.q.max()


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
            log_prior=np.full((2, 2), -np.inf),
        )


HALF = np.array([0.5, 0.5])


@pytest.mark.parametrize("build, message", [
    (lambda: TransportProblem(np.ones((2, 3)), HALF, HALF, 0.1),
     "marginal sizes do not match the score matrix"),
    (lambda: TransportProblem(np.array([[0.0, np.inf], [0.0, 0.0]]), HALF, HALF, 0.1),
     "score matrix must be finite"),
    (lambda: TransportProblem(np.ones((2, 2)), HALF, HALF, 0.1, log_prior=np.zeros((2, 3))),
     "prior shape must match the score matrix"),
    (lambda: sinkhorn(TransportProblem(np.ones((2, 2)), HALF, HALF, 0.1), tol=0.0),
     "tol must be positive"),
    (lambda: log_order_prior(0, 3, 0.5), "prior dimensions must be >= 1"),
    (lambda: log_order_prior(2, 3, 0.0), "sigma must be positive"),
], ids=["marginal-sizes", "score-inf", "prior-shape", "tol", "prior-dims", "sigma"])
def test_transport_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_zero_mass_rows_and_columns_are_refused():
    score = np.array([[1.0, 0.2, 0.5], [0.1, 0.6, 0.3], [0.3, 0.4, 0.9]])
    positive = np.full(3, 1 / 3)
    for alpha, beta in ((np.array([0.5, 0.0, 0.5]), positive),
                        (positive, np.array([0.5, 0.5, 0.0]))):
        with pytest.raises(ValueError, match="positive"):
            TransportProblem(score, alpha, beta, 0.4)


def test_order_prior_values():
    t = np.exp(log_order_prior(2, 2, sigma=1.0))
    peak = 1.0 / np.sqrt(2.0 * np.pi)
    np.testing.assert_allclose(t[0, 0], peak, rtol=1e-12)  # i/N == j/M
    np.testing.assert_allclose(t[1, 1], peak, rtol=1e-12)
    d = 0.5 / np.sqrt(0.5)
    np.testing.assert_allclose(d, 0.7071067811865476, rtol=1e-12)
    np.testing.assert_allclose(t[0, 1], peak * np.exp(-d * d / 2.0), rtol=1e-12)


def test_narrow_prior_is_built_in_log_space(rng):
    # exp(-d^2 / 2 sigma^2) underflows at T=2000, m=5 for sigma <= 0.12
    log_t = log_order_prior(2000, 5, 0.1)
    assert np.exp(log_t).min() == 0.0
    assert np.all(np.isfinite(log_t))
    v = rng.standard_normal((2000, 8))
    p = rng.standard_normal((5, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    plan = solve_order_preserving(v, p, rho=0.1, sigma=0.1, max_iters=5000, tol=1e-6)
    assert plan.converged
    assert plan.marginal_residual <= 1e-6
    np.testing.assert_allclose(plan.q.sum(axis=1), 1 / 2000, atol=1e-6)
    np.testing.assert_allclose(plan.q.sum(axis=0), 1 / 5, atol=1e-6)


def test_order_prior_symmetry():
    t = np.exp(log_order_prior(5, 5, sigma=0.7))
    np.testing.assert_allclose(t, t.T, atol=1e-15)


def test_flat_prior_reduces_to_plain_sinkhorn(rng):
    for _ in range(10):
        v = rng.standard_normal((12, 3))
        p = rng.standard_normal((3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        # a flat prior of any height leaves the plan unchanged
        height = np.full((12, 3), float(rng.uniform(-30.0, 30.0)))
        flat = sinkhorn(_uniform_problem(v @ p.T, 0.3, height), tol=1e-12, max_iters=20000)
        plain = sinkhorn(_uniform_problem(v @ p.T, 0.3), tol=1e-12, max_iters=20000)
        np.testing.assert_allclose(flat.q, plain.q, atol=1e-8)


def test_huge_sigma_matches_flat_prior(rng):
    v = rng.standard_normal((9, 2))
    p = rng.standard_normal((2, 2))
    via_sigma = solve_order_preserving(v, p, rho=0.5, sigma=1e12, tol=1e-12, max_iters=20000)
    flat = _flat_prior_plan(v, p, 0.5, tol=1e-12, max_iters=20000)
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
    base = _flat_prior_plan(v, p, 0.4, tol=1e-12, max_iters=20000)
    permuted = _flat_prior_plan(v, p[perm], 0.4, tol=1e-12, max_iters=20000)
    np.testing.assert_allclose(base.q[:, perm], permuted.q, atol=1e-10)
