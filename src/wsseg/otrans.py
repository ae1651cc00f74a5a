"""Entropic optimal transport (Sinkhorn-Knopp) and the order-preserving
variant with a diagonal-Gaussian prior.

The solver maximizes ``Tr(Q^T S) + eps * H(Q)`` over plans with prescribed
row/column marginals ``a``, ``b``; with a prior ``T`` it maximizes
``Tr(Q^T S) - rho * KL(Q || T)``. Its plans have the scaling form
``Q = diag(u) K diag(v)`` with ``K = exp(S / rho + log T + f + g)``.

The iteration is Schmitzer's stabilized scaling ("Stabilized Sparse
Scaling Algorithms for Entropy Regularized Transport Problems", 2019):
``K`` is formed once from the potentials ``f``, ``g`` (``f`` starts at
minus each row's peak of ``S / rho + log T``, ``g`` at 0) and the scalings
are updated as matrix-vector products, ``u = a / (K v)`` then
``v = b / (K^T u)``. When a new scaling leaves ``[1/TAU, TAU]``, the other
scaling is absorbed into its potential, that half-step is taken in the log
domain instead, and ``K`` is rebuilt with ``u = v = 1``; so ``exp`` never
overflows or loses a row to underflow, however small the regularization
or the prior. After the column step the columns are exact, so the
stopping residual is the row deviation ``max |u (K v) - a|``. The plan is
formed once, on exit, and its reported residual is its worst row or
column deviation. Rows and columns with zero mass get zero scalings and
come out as zero.
"""

from dataclasses import dataclass

import numpy as np

TAU = 1e50  # scalings beyond [1/TAU, TAU] are absorbed into the potentials
TINY = np.finfo(np.float64).tiny


@dataclass
class TransportProblem:
    score: np.ndarray  # (N_A, N_B) similarities, to be maximized
    alpha: np.ndarray  # (N_A,) row marginal, sums to 1
    beta: np.ndarray  # (N_B,) column marginal, sums to 1
    reg: float  # entropy weight eps, or KL weight rho when prior given
    log_prior: np.ndarray | None = None  # (N_A, N_B) finite log of the prior T

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
        if self.log_prior is not None:
            self.log_prior = np.asarray(self.log_prior, dtype=np.float64)
            if self.log_prior.shape != self.score.shape:
                raise ValueError("prior shape must match the score matrix")
            if not np.all(np.isfinite(self.log_prior)):
                raise ValueError("log prior must be finite (prior strictly positive)")


@dataclass
class TransportPlan:
    q: np.ndarray
    iterations_used: int
    marginal_residual: float
    converged: bool


def sinkhorn(problem, max_iters=5000, tol=1e-6):
    """Alternating marginal scaling until the worst row deviation drops
    below ``tol`` or ``max_iters`` is hit (progress is then reported
    through the converged flag)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    log_k = problem.score / problem.reg
    if problem.log_prior is not None:
        log_k = log_k + problem.log_prior
    # column-major, so K v, K^T u and the row peaks all run along columns
    log_k = np.asfortranarray(log_k)
    a, b = problem.alpha, problem.beta
    rows, cols = a > 0, b > 0
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    f = -log_k.max(axis=1)  # each row of the first K peaks at 1
    g = np.zeros_like(b)
    k, u, v = _kernel(log_k, f, g)
    kv = k @ v
    residual = np.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        u = _scaling(a, kv, rows)
        if u is None:
            g = g + _log(v)
            f = log_a - _lse(log_k + g[None, :], axis=1)
            k, u, v = _kernel(log_k, f, g)
        v = _scaling(b, k.T @ u, cols)
        if v is None:
            f = f + _log(u)
            g = log_b - _lse(log_k + f[:, None], axis=0)
            k, u, v = _kernel(log_k, f, g)
        kv = k @ v
        residual = np.abs(u * kv - a).max()
        if residual <= tol:
            break
    q = u[:, None] * k * v[None, :]
    return TransportPlan(q, iters, float(_residual(q, problem)), bool(residual <= tol))


def log_order_prior(n, m, sigma):
    """Log of the Gaussian band around the normalized diagonal.

    d_ij = |i/n - j/m| / sqrt(1/n^2 + 1/m^2) with 1-based i, j;
    log T_ij = -d^2 / (2 sigma^2) - log(sigma sqrt(2 pi)), finite for any
    sigma > 0 where T_ij itself would underflow to 0.
    """
    if n < 1 or m < 1:
        raise ValueError("prior dimensions must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    i = np.arange(1, n + 1)[:, None] / n
    j = np.arange(1, m + 1)[None, :] / m
    # 2 sigma^2 times the squared denominator of d, so d^2 / (2 sigma^2) = (i - j)^2 / scale
    scale = 2.0 * sigma ** 2 * (1.0 / n ** 2 + 1.0 / m ** 2)
    return (i - j) ** 2 / -scale - np.log(sigma * np.sqrt(2.0 * np.pi))


def solve_order_preserving(embeddings, prototypes, rho, sigma=1.0, max_iters=5000, tol=1e-6):
    """Transport plan between sample embeddings and class prototypes under
    the diagonal prior ``log_order_prior(N, M, sigma)``; marginals are
    uniform on both sides. A very wide ``sigma`` flattens the prior, and
    the plan tends to plain entropic Sinkhorn at ``reg=rho``.

    ``embeddings`` is (N, dim) with rows ordered in time, ``prototypes``
    (M, dim) in the desired column order.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    n, m = embeddings.shape[0], prototypes.shape[0]
    problem = TransportProblem(
        score=embeddings @ prototypes.T,
        alpha=np.full(n, 1.0 / n),
        beta=np.full(m, 1.0 / m),
        reg=rho,
        log_prior=log_order_prior(n, m, sigma),
    )
    return sinkhorn(problem, max_iters=max_iters, tol=tol)


def _scaling(mass, kernel_sum, support):
    """``mass / kernel_sum``, 0 where the mass is 0; None when an entry on
    the support leaves [1/TAU, TAU], as it does where the sum underflowed."""
    s = mass / np.maximum(kernel_sum, TINY)
    if s.max() > TAU or s.min(where=support, initial=np.inf) < 1.0 / TAU:
        return None
    return s


def _log(s):
    with np.errstate(divide="ignore"):  # zero-mass scalings absorb as -inf
        return np.log(s)


def _kernel(log_k, f, g):
    """K with the potentials absorbed (column-major, as ``log_k``), and
    unit scalings u, v."""
    return np.exp(log_k + f[:, None] + g[None, :]), np.ones_like(f), np.ones_like(g)


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
