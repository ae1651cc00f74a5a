"""Entropic optimal transport (Sinkhorn-Knopp) and the order-preserving
variant with a diagonal-Gaussian prior.

The solver maximizes ``Tr(Q^T S) + eps * H(Q)`` over plans with prescribed
row/column marginals; with a prior ``T`` it maximizes
``Tr(Q^T S) - rho * KL(Q || T)``, whose scaling form is
``diag(u) (exp(S / rho) * T) diag(v)``. The scalings are iterated as
log-domain potentials, so small regularization cannot overflow
``exp(S / rho)``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class TransportProblem:
    score: np.ndarray  # (N_A, N_B) similarities, to be maximized
    alpha: np.ndarray  # (N_A,) row marginal, sums to 1
    beta: np.ndarray  # (N_B,) column marginal, sums to 1
    reg: float  # entropy weight eps, or KL weight rho when prior given
    prior: np.ndarray | None = None  # (N_A, N_B) strictly positive

    def __post_init__(self):
        self.score = np.asarray(self.score, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        n_a, n_b = self.score.shape
        if self.alpha.shape != (n_a,) or self.beta.shape != (n_b,):
            raise ValueError("marginal sizes do not match the score matrix")
        if not np.all(np.isfinite(self.score)):
            raise ValueError("score matrix must be finite")
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise ValueError("marginals must be nonnegative")
        if not (np.isclose(self.alpha.sum(), 1.0) and np.isclose(self.beta.sum(), 1.0)):
            raise ValueError("marginals must each sum to 1")
        if self.reg <= 0:
            raise ValueError("regularization weight must be positive")
        if self.prior is not None:
            self.prior = np.asarray(self.prior, dtype=np.float64)
            if self.prior.shape != self.score.shape:
                raise ValueError("prior shape must match the score matrix")
            if np.any(self.prior <= 0):
                raise ValueError("prior must be strictly positive")


@dataclass
class TransportPlan:
    q: np.ndarray
    iterations_used: int
    marginal_residual: float
    converged: bool


def sinkhorn(problem, max_iters=5000, tol=1e-6):
    """Alternating marginal scaling until the worst marginal deviation
    drops below ``tol`` or ``max_iters`` is hit (progress is then reported
    through the converged flag)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    log_k = problem.score / problem.reg
    if problem.prior is not None:
        log_k = log_k + np.log(problem.prior)
    with np.errstate(divide="ignore"):
        log_a = np.log(problem.alpha)
        log_b = np.log(problem.beta)
    f = np.zeros_like(log_a)
    g = np.zeros_like(log_b)
    iters = 0
    residual = np.inf
    for iters in range(1, max_iters + 1):
        f = log_a - _lse(log_k + g[None, :], axis=1)
        g = log_b - _lse(log_k + f[:, None], axis=0)
        q = np.exp(f[:, None] + log_k + g[None, :])
        residual = _residual(q, problem)
        if residual <= tol:
            return TransportPlan(q, iters, float(residual), True)
    q = np.exp(f[:, None] + log_k + g[None, :])
    return TransportPlan(q, iters, float(_residual(q, problem)), False)


def order_prior(n, m, sigma):
    """Gaussian band around the normalized diagonal.

    d_ij = |i/n - j/m| / sqrt(1/n^2 + 1/m^2) with 1-based i, j;
    T_ij = exp(-d^2 / (2 sigma^2)) / (sigma sqrt(2 pi)).
    """
    if n < 1 or m < 1:
        raise ValueError("prior dimensions must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    i = np.arange(1, n + 1)[:, None] / n
    j = np.arange(1, m + 1)[None, :] / m
    d = np.abs(i - j) / np.sqrt(1.0 / n ** 2 + 1.0 / m ** 2)
    return np.exp(-(d ** 2) / (2.0 * sigma ** 2)) / (sigma * np.sqrt(2.0 * np.pi))


def solve_order_preserving(
    embeddings, prototypes, rho, sigma=1.0, max_iters=5000, tol=1e-6, prior=None
):
    """Transport plan between sample embeddings and class prototypes under
    the diagonal prior; marginals are uniform on both sides.

    ``embeddings`` is (N, dim) with rows ordered in time, ``prototypes``
    (M, dim) in the desired column order.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    n, m = embeddings.shape[0], prototypes.shape[0]
    if prior is None:
        prior = order_prior(n, m, sigma)
    problem = TransportProblem(
        score=embeddings @ prototypes.T,
        alpha=np.full(n, 1.0 / n),
        beta=np.full(m, 1.0 / m),
        reg=rho,
        prior=prior,
    )
    return sinkhorn(problem, max_iters=max_iters, tol=tol)


def _lse(a, axis):
    peak = a.max(axis=axis, keepdims=True)
    # rows/columns at -inf (zero marginal mass) stay -inf without warnings
    safe = np.where(np.isfinite(peak), peak, 0.0)
    out = np.log(np.exp(a - safe).sum(axis=axis)) + np.squeeze(safe, axis=axis)
    return out


def _residual(q, problem):
    row = np.abs(q.sum(axis=1) - problem.alpha).max()
    col = np.abs(q.sum(axis=0) - problem.beta).max()
    return max(row, col)
