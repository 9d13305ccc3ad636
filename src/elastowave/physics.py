"""Velocity-stress form of linear elastodynamics.

State vector Q = (v, sigma) with Voigt stress order (xx, yy, zz, xy, xz, yz)
in 3D (9 components) and the in-plane restriction (vx, vy, xx, yy, xy) in 2D
(5 components). The system reads P^-1 dQ/dt = sum_xi A_xi dQ/dxi with
P = diag(rho^-1 I, C).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLame, NotSPD

# selection blocks a_xi mapping Voigt stress to the traction on a xi-face
A_BLOCK_3D = {
    "x": np.array([[1, 0, 0, 0, 0, 0],
                   [0, 0, 0, 1, 0, 0],
                   [0, 0, 0, 0, 1, 0]], dtype=float),
    "y": np.array([[0, 0, 0, 1, 0, 0],
                   [0, 1, 0, 0, 0, 0],
                   [0, 0, 0, 0, 0, 1]], dtype=float),
    "z": np.array([[0, 0, 0, 0, 1, 0],
                   [0, 0, 0, 0, 0, 1],
                   [0, 0, 1, 0, 0, 0]], dtype=float),
}
A_BLOCK_2D = {
    "x": np.array([[1, 0, 0],
                   [0, 0, 1]], dtype=float),
    "y": np.array([[0, 0, 1],
                   [0, 1, 0]], dtype=float),
}

# state-vector slot of the traction component per wave family, by face axis
SIG_SLOT_3D = {"x": (3, 6, 7), "y": (6, 4, 8), "z": (7, 8, 5)}
SIG_SLOT_2D = {"x": (2, 4), "y": (4, 3)}

AXES_3D = ("x", "y", "z")
AXES_2D = ("x", "y")


def axes_of(dim):
    return AXES_3D if dim == 3 else AXES_2D


def n_components(dim):
    return 9 if dim == 3 else 5


def sig_slots(axis, dim):
    return SIG_SLOT_3D[axis] if dim == 3 else SIG_SLOT_2D[axis]


def a_block(axis, dim):
    return A_BLOCK_3D[axis] if dim == 3 else A_BLOCK_2D[axis]


def coefficient_matrix(axis, dim=3):
    """Full symmetric A_xi with zero diagonal blocks."""
    a = a_block(axis, dim)
    nv, ns = a.shape
    A = np.zeros((nv + ns, nv + ns))
    A[:nv, nv:] = a
    A[nv:, :nv] = a.T
    return A


def isotropic_stiffness(lam, mu):
    """6x6 stiffness matrix of an isotropic medium (engineering Voigt)."""
    if not (mu > 0 and lam > -mu):
        raise InvalidLame(f"need mu > 0 and lambda > -mu, got lambda={lam}, mu={mu}")
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[np.arange(3), np.arange(3)] = 2 * mu + lam
    C[np.arange(3, 6), np.arange(3, 6)] = mu
    # eigenvalues are {3 lambda + 2 mu, 2 mu (x2), mu (x3)}
    if 3 * lam + 2 * mu <= 0:
        raise NotSPD(f"stiffness indefinite for lambda={lam}, mu={mu}")
    return C


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic medium: density, 6x6 stiffness and its Lame pair."""

    rho: float
    C: np.ndarray
    lam: float
    mu: float

    @property
    def cp(self):
        return np.sqrt((2 * self.mu + self.lam) / self.rho)

    @property
    def cs(self):
        return np.sqrt(self.mu / self.rho)


def voigt(M, dim):
    """Voigt vector of the symmetric part of a dim x dim tensor, in the
    state's stress order."""
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"tensor must be {dim}x{dim}, got {M.shape}")
    M = 0.5 * (M + M.T)
    if dim == 3:
        return np.array([M[0, 0], M[1, 1], M[2, 2], M[0, 1], M[0, 2], M[1, 2]])
    return np.array([M[0, 0], M[1, 1], M[0, 1]])


def material_from_lame(rho, lam, mu):
    if rho <= 0:
        raise InvalidLame(f"density must be positive, got {rho}")
    C = isotropic_stiffness(lam, mu)
    return MaterialModel(rho=float(rho), C=C, lam=float(lam), mu=float(mu))


def material_from_speeds(rho, cp, cs):
    """Invert the wave-speed relations: mu = rho cs^2, lambda = rho cp^2 - 2 mu."""
    mu = rho * cs ** 2
    lam = rho * cp ** 2 - 2 * mu
    return material_from_lame(rho, lam, mu)


def material_matrix(m, dim=3):
    """P = diag(rho^-1 I, C); maps the spatial-derivative stack to dQ/dt."""
    nv = dim
    if dim == 3:
        C = m.C
    else:
        C = reduce_to_2d(m.C)
    n = nv + C.shape[0]
    P = np.zeros((n, n))
    P[np.arange(nv), np.arange(nv)] = 1.0 / m.rho
    P[nv:, nv:] = C
    return P


def eigen_spectrum(m, axis):
    """The 9 eigenvalues of P A_xi, ascending.

    Computed from the similar symmetric matrix sqrt(P) A sqrt(P), which keeps
    the solve well conditioned despite Pa-scale stiffness entries.
    """
    A = coefficient_matrix(axis, dim=3)
    P = material_matrix(m, dim=3)
    w, V = np.linalg.eigh(P)
    if w.min() <= 0:
        raise NotSPD("material matrix must be positive definite")
    sqrtP = (V * np.sqrt(w)) @ V.T
    return np.linalg.eigvalsh(sqrtP @ A @ sqrtP)


def reduce_to_2d(C):
    """Restrict a 6x6 isotropic stiffness to the in-plane (xx, yy, xy) block.

    The restricted system is closed: the dropped rows never feed the retained
    ones because the isotropic C has no normal-shear coupling.
    """
    idx = np.array([0, 1, 3])
    return np.asarray(C)[np.ix_(idx, idx)]
