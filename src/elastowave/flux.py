"""Hat-variables and fluctuations for faces: the reference upwind flux.

Every operation works per wave family on scalars or broadcastable numpy
arrays.  The solver does not call these: it folds the same hat states
into one closed form per face, G = incoming - r outgoing - tau times the
neighbour's outgoing, with r and tau built once in solver.discretize.
These functions are the reference that form is checked against.

The boundary condition at a face couples the ingoing characteristic to the
outgoing one through a reflection coefficient gamma: gamma = 1 is a free
surface (zero traction), gamma = -1 a clamped wall (zero velocity), gamma = 0
fully absorbing (zero ingoing amplitude). The hat state preserves the
outgoing characteristic exactly and replaces the ingoing one by
gamma * outgoing; interfaces instead preserve both outgoing amplitudes under
continuity of velocity and traction.
"""

import numpy as np

from .errors import InvalidReflectionCoefficient


def hat_boundary(v, T, Z, gamma, side):
    """Boundary hat state (vhat, That) on the face `side` of an element.

    At side=+1 the outgoing amplitude is p = (Zv - T)/2, at side=-1 it is
    q = (Zv + T)/2; both give vhat = (1 + gamma) out / Z.
    """
    gamma_arr = np.asarray(gamma, dtype=float)
    if not (np.abs(gamma_arr) <= 1.0).all():     # NaN fails too
        raise InvalidReflectionCoefficient(f"|gamma| > 1: {gamma}")
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side}")
    out = 0.5 * (Z * v - side * T)
    vhat = (1.0 + gamma_arr) * out / Z
    that = -side * (1.0 - gamma_arr) * out
    return vhat, that


def hat_interface(v_m, T_m, Z_m, v_p, T_p, Z_p):
    """Interface hat state from the minus (left) and plus (right) traces.

    Preserves the outgoing amplitude of each side, p from the minus element
    and q from the plus element, under a single-valued (vhat, That).
    """
    p_m = 0.5 * (Z_m * v_m - T_m)
    q_p = 0.5 * (Z_p * v_p + T_p)
    den = Z_m + Z_p
    vhat = 2.0 * (p_m + q_p) / den
    that = 2.0 * (Z_m * q_p - Z_p * p_m) / den
    return vhat, that


def fluctuation(v, T, vhat, that, Z, side):
    """Penalty amplitude G = Z(v - vhat)/2 + side (T - That)/2.

    Vanishes whenever the trace equals the hat state; equals the mismatch of
    the ingoing characteristic when the outgoing one is preserved.
    """
    return 0.5 * Z * (v - vhat) + side * 0.5 * (T - that)
