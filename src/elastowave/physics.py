"""Velocity-stress form of linear elastodynamics.

One state layout serves both dimensions.  COMPONENTS names the 3D state:
the velocities, then the Voigt stresses (xx, yy, zz, xy, xz, yz).  The
2D problem is plane strain, the 3D system restricted to the components
whose names carry no z, in the same order: (vx, vy, sxx, syy, sxy).
Axis names, traction slots, selection blocks, the Voigt order and the 2D
stiffness are all read off these names.  The system reads
P^-1 dQ/dt = sum_xi A_xi dQ/dxi with P = diag(rho^-1 I, C).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidLame, NotSPD

COMPONENTS = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")
AXES = tuple(c[1:] for c in COMPONENTS if c[0] == "v")


def axes_of(dim):
    return AXES[:dim]


@cache
def components(dim):
    """State component names in dim D: those whose axes all lie in it.
    Cached: every energy and L-inf sample reads the state's shape."""
    axes = axes_of(dim)
    return tuple(c for c in COMPONENTS if all(a in axes for a in c[1:]))


def n_components(dim):
    return len(components(dim))


def velocity_names(dim):
    return components(dim)[:dim]


def stress_names(dim):
    """Voigt stress names in state order."""
    return components(dim)[dim:]


def stress_name(a, b):
    """Name of the stress component sigma_ab (symmetric in a, b)."""
    return "s" + "".join(sorted(a + b))


def sig_slots(axis, dim):
    """State slots of the traction on an `axis` face, one per wave
    family (the axes of the dimension, in order)."""
    names = components(dim)
    return tuple(names.index(stress_name(axis, f)) for f in axes_of(dim))


def a_block(axis, dim):
    """Selection block a_xi mapping Voigt stress to the traction on a
    xi-face: one-hot rows at the traction slots."""
    return np.eye(len(stress_names(dim)))[np.array(sig_slots(axis, dim)) - dim]


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

    def stiffness(self, dim):
        """C on the stresses of the dim-D state.  The restriction closes
        in 2D: the isotropic C couples no in-plane stress to xz or yz."""
        idx = [stress_names(3).index(s) for s in stress_names(dim)]
        return self.C[np.ix_(idx, idx)]


def voigt(M, dim):
    """Voigt vector of the symmetric part of a dim x dim tensor, in the
    state's stress order."""
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise ValueError(f"tensor must be {dim}x{dim}, got {M.shape}")
    M = 0.5 * (M + M.T)
    return np.array([M[AXES.index(s[1]), AXES.index(s[2])]
                     for s in stress_names(dim)])


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
    C = m.stiffness(dim)
    P = np.zeros((dim + len(C),) * 2)
    P[np.arange(dim), np.arange(dim)] = 1.0 / m.rho
    P[dim:, dim:] = C
    return P
