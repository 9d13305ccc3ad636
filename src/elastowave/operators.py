"""1D nodal spectral operators.

Builds Gauss-Legendre-Lobatto (GLL), Gauss-Legendre (GL) and left Radau (GLR)
quadrature rules, the collocation derivative matrix, and the boundary matrix
that together satisfy the summation-by-parts identity Qmat + Qmat^T = B.
The solver runs on GLL nodes; GL and GLR serve the operator checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, OutOfReferenceDomain, UnsupportedDegree

MAX_DEGREE = 16
_NEWTON_TOL = 1e-14
_NEWTON_MAXIT = 100


def _legendre_pair(n, x):
    """Evaluate (P_n, P_{n-1}) by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    pm = np.ones_like(x)
    if n == 0:
        return pm, np.zeros_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        pm, p = p, ((2 * k - 1) * x * p - (k - 1) * pm) / k
    return p, pm


def _legendre_deriv(n, x):
    # (x^2 - 1) P_n' = n (x P_n - P_{n-1}); callers keep x strictly interior
    p, pm = _legendre_pair(n, x)
    return n * (x * p - pm) / (x * x - 1.0)


def _newton(f_fp, x0, what):
    """Vectorized Newton iteration; converged when the update drops below tol."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(_NEWTON_MAXIT):
        f, fp = f_fp(x)
        step = f / fp
        x -= step
        if x.size == 0 or np.max(np.abs(step)) <= _NEWTON_TOL:
            return x
    raise NonConvergence(f"{what}: Newton update above {_NEWTON_TOL} "
                         f"after {_NEWTON_MAXIT} iterations")


@dataclass(frozen=True)
class QuadratureRule:
    degree: int
    kind: str
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class ElementOperators:
    rule: QuadratureRule
    Qmat: np.ndarray
    D: np.ndarray
    B: np.ndarray
    bary: np.ndarray = field(repr=False, default=None)

    @property
    def degree(self):
        return self.rule.degree

    @property
    def n_nodes(self):
        return self.rule.degree + 1


def _gll_rule(P):
    if P == 1:
        x = np.array([-1.0, 1.0])
    else:
        guess = -np.cos(np.pi * np.arange(1, P) / P)

        def f_fp(x):
            p, pm = _legendre_pair(P, x)
            dp = P * (x * p - pm) / (x * x - 1.0)
            ddp = (2.0 * x * dp - P * (P + 1) * p) / (1.0 - x * x)
            return dp, ddp

        interior = _newton(f_fp, guess, f"GLL degree {P}")
        x = np.concatenate(([-1.0], interior, [1.0]))
    # symmetrize to kill round-off asymmetry (rule is symmetric by construction)
    x = 0.5 * (x - x[::-1])
    p, _ = _legendre_pair(P, x)
    w = 2.0 / (P * (P + 1) * p * p)
    w = 0.5 * (w + w[::-1])
    return x, w


def _gl_rule(P):
    n = P + 1
    guess = -np.cos((2 * np.arange(n) + 1) * np.pi / (2 * n))

    def f_fp(x):
        p, pm = _legendre_pair(n, x)
        dp = n * (x * p - pm) / (x * x - 1.0)
        return p, dp

    x = _newton(f_fp, guess, f"GL degree {P}")
    x = 0.5 * (x - x[::-1])
    dp = _legendre_deriv(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return x, w


def _glr_rule(P):
    # left Radau rule: contains x = -1 only; interior nodes are the roots of
    # (P_{n-1} + P_n) / (1 + x)
    n = P + 1
    guess = -np.cos(2.0 * np.pi * np.arange(1, n) / (2 * n - 1))

    def f_fp(x):
        pn, pnm = _legendre_pair(n, x)
        pm, _ = _legendre_pair(n - 1, x)
        f = pm + pn
        fp = _legendre_deriv(n - 1, x) + n * (x * pn - pnm) / (x * x - 1.0)
        g = f / (1.0 + x)
        gp = (fp * (1.0 + x) - f) / (1.0 + x) ** 2
        return g, gp

    interior = _newton(f_fp, guess, f"GLR degree {P}")
    x = np.concatenate(([-1.0], interior))
    pm, _ = _legendre_pair(n - 1, x[1:])
    w = np.concatenate(([2.0 / n ** 2], (1.0 - x[1:]) / (n ** 2 * pm * pm)))
    return x, w


_BUILDERS = {"GLL": _gll_rule, "GL": _gl_rule, "GLR": _glr_rule}


def build_quadrature(P, kind="GLL"):
    """Return the (P+1)-point quadrature rule of the requested kind.

    GLL is exact up to degree 2P-1, GLR up to 2P, GL up to 2P+1.
    """
    if not isinstance(P, (int, np.integer)) or not 1 <= P <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree must be in [1, {MAX_DEGREE}], got {P}")
    kind = kind.upper()
    if kind not in _BUILDERS:
        raise UnsupportedDegree(f"unknown quadrature kind {kind!r}")
    nodes, weights = _BUILDERS[kind](P)
    order = np.argsort(nodes)
    nodes = np.ascontiguousarray(nodes[order])
    weights = np.ascontiguousarray(weights[order])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(degree=int(P), kind=kind, nodes=nodes, weights=weights)


def _barycentric_weights(nodes):
    n = nodes.size
    b = np.ones(n)
    for i in range(n):
        b[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    return b / np.max(np.abs(b))


def _basis_at(nodes, bary, x):
    diff = x - nodes
    hit = np.abs(diff) < 1e-14
    if hit.any():
        out = np.zeros_like(nodes)
        out[np.argmax(hit)] = 1.0
        return out
    terms = bary / diff
    return terms / terms.sum()


def build_operators(P, kind="GLL"):
    """Quadrature, derivative, and boundary matrices for one reference element."""
    rule = build_quadrature(P, kind)
    x, w = rule.nodes, rule.weights
    n = x.size
    bary = _barycentric_weights(x)

    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bary[j] / bary[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(D[i, :])

    # basis values at the ends: unit vectors where a rule holds the end
    eL, eR = _basis_at(x, bary, -1.0), _basis_at(x, bary, 1.0)

    # diag(w) D integrates L_i L_j' exactly for all three kinds, so
    # Qmat + Qmat^T = B
    Qmat = w[:, None] * D
    B = np.outer(eR, eR) - np.outer(eL, eL)
    for a in (Qmat, D, B, bary):
        a.setflags(write=False)
    return ElementOperators(rule=rule, Qmat=Qmat, D=D, B=B, bary=bary)


def eval_basis_at(ops, x):
    """All Lagrange basis values L_i(x) for x in [-1, 1]."""
    if abs(x) > 1.0 + 1e-12:
        raise OutOfReferenceDomain(f"reference coordinate {x} outside [-1, 1]")
    x = min(1.0, max(-1.0, float(x)))
    return _basis_at(ops.rule.nodes, ops.bary, x)
