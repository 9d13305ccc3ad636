"""1D nodal spectral operators.

Builds Gauss-Legendre-Lobatto (GLL), Gauss-Legendre (GL) and left Radau (GLR)
quadrature rules, the collocation derivative matrix, and the boundary matrix
that together satisfy the summation-by-parts identity Qmat + Qmat^T = B.
The solver runs on GLL nodes; GL and GLR serve the operator checks.

Every family is built one way.  Its interior nodes are the roots of one
Jacobi polynomial P_m^(a,b): GL's are those of P_(P+1)^(0,0), GLL's those
of P_(P-1)^(1,1) between -1 and 1, GLR's those of P_P^(0,1) right of -1.
The roots are the eigenvalues of the symmetric three-term recurrence
matrix of P_m^(a,b) (G. H. Golub and J. H. Welsch, Calculation of Gauss
quadrature rules, Math. Comp. 23 (1969); J. S. Hesthaven and
T. Warburton, Nodal Discontinuous Galerkin Methods, Springer 2008,
JacobiGQ and JacobiGL).  The weights solve sum_i w_i P_k(x_i) = 2 delta_k0,
k = 0..P, for the Legendre polynomials P_k: they are the interpolatory
weights, exact to degree P on any nodes and to the family's degree on
these.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfReferenceDomain, UnsupportedDegree

MAX_DEGREE = 16
# kind: (a, b, end nodes); the other nodes are the roots of P^(a,b)
_FAMILIES = {"GL": (0, 0, ()), "GLL": (1, 1, (-1.0, 1.0)),
             "GLR": (0, 1, (-1.0,))}


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


def _jacobi_roots(m, a, b):
    """Roots of P_m^(a,b): eigenvalues of its symmetric three-term
    recurrence matrix (Golub-Welsch)."""
    h = 2 * np.arange(m) + a + b
    # the diagonal is 0 where a = b (and 0/0 at h = 0 for a = b = 0)
    diag = np.zeros(m) if a == b else (b * b - a * a) / (h * (h + 2.0))
    k, h = np.arange(1, m), h[1:]
    off = 2.0 / h * np.sqrt(k * (k + a + b) * (k + a) * (k + b)
                            / ((h - 1.0) * (h + 1.0)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                              + np.diag(off, -1))


def _legendre_rows(P, x):
    """V[k, i] = P_k(x_i), k = 0..P, by the three-term recurrence."""
    V = np.ones((P + 1, x.size))
    V[1] = x
    for k in range(2, P + 1):
        V[k] = ((2 * k - 1) * x * V[k - 1] - (k - 1) * V[k - 2]) / k
    return V


def build_quadrature(P, kind="GLL"):
    """Return the (P+1)-point quadrature rule of the requested kind.

    GLL is exact up to degree 2P-1, GLR up to 2P, GL up to 2P+1.
    """
    if not isinstance(P, (int, np.integer)) or not 1 <= P <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree must be in [1, {MAX_DEGREE}], got {P}")
    kind = kind.upper()
    if kind not in _FAMILIES:
        raise UnsupportedDegree(f"unknown quadrature kind {kind!r}")
    a, b, ends = _FAMILIES[kind]
    nodes = np.sort(np.concatenate(
        (ends, _jacobi_roots(P + 1 - len(ends), a, b))))
    if a == b:
        # symmetrize to kill round-off asymmetry (rule is symmetric)
        nodes = 0.5 * (nodes - nodes[::-1])
    moments = np.zeros(P + 1)
    moments[0] = 2.0
    weights = np.linalg.solve(_legendre_rows(P, nodes), moments)
    if a == b:
        weights = 0.5 * (weights + weights[::-1])
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
