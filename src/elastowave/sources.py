"""Moment-tensor point sources, source-time functions, receivers.

A point source is projected onto the owning element through the
inverse-mass-weighted cardinal basis, so quadrature against a constant
test function returns exactly M g(t).  Time derivatives of the source
wavelets are closed-form, which keeps the temporal order of the Taylor
stepper intact.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrder
from .mesh import locate_point
from .operators import eval_basis_at
from .physics import components as state_components, voigt

MAX_STF_ORDER = 20


@dataclass(frozen=True)
class GaussianSTF:
    """exp(-(t-t0)^2 / (2 sigma^2)) / (sigma sqrt(2 pi)); unit integral."""

    sigma: float
    t0: float = 0.0

    def eval(self, t, k=0):
        if k > MAX_STF_ORDER:
            raise UnsupportedOrder(f"derivative order {k} > {MAX_STF_ORDER}")
        u = (t - self.t0) / (self.sigma * np.sqrt(2.0))
        g = np.exp(-u * u) / (self.sigma * np.sqrt(2.0 * np.pi))
        if k == 0:
            return g
        # d^k/du^k exp(-u^2) = (-1)^k H_k(u) exp(-u^2), H_k Hermite
        h_prev, h = 1.0, 2.0 * u
        for m in range(1, k):
            h_prev, h = h, 2.0 * u * h - 2.0 * m * h_prev
        return (-1.0 / (self.sigma * np.sqrt(2.0))) ** k * h * g


@dataclass(frozen=True)
class RampSTF:
    """(t/T^2) exp(-t/T) for t >= 0, zero before onset."""

    T: float

    def eval(self, t, k=0):
        if k > MAX_STF_ORDER:
            raise UnsupportedOrder(f"derivative order {k} > {MAX_STF_ORDER}")
        if t < 0.0:
            return 0.0
        # g^(k) = exp(-t/T) (a_k t + b_k)
        a, b = 1.0 / self.T ** 2, 0.0
        for _ in range(k):
            a, b = -a / self.T, a - b / self.T
        return np.exp(-t / self.T) * (a * t + b)


# source-time functions by config name: the fields are the config keys,
# the width first, and a field's default is its key's default
STF_KINDS = {"gaussian": GaussianSTF, "ramp": RampSTF}


def _point_stencil(mesh, ops, location, weights=1.0):
    """Owning element, reference coordinates and tensor Lagrange basis of
    a point, each 1D factor of the basis divided by weights."""
    elem, ref = locate_point(mesh, location)
    stencil = np.ones(())
    for r in ref:
        stencil = np.multiply.outer(stencil, eval_basis_at(ops, r) / weights)
    return elem, ref, stencil


class MomentTensorSource:
    """Point source feeding M_ij g(t) into the stress-rate equations."""

    def __init__(self, mesh, ops, location, moment, stf):
        self.location = tuple(float(x) for x in location)
        self.stf = stf
        self.dim = mesh.dim
        self.m_voigt = voigt(moment, mesh.dim)
        self.elem, self.ref, stencil = _point_stencil(
            mesh, ops, location, ops.rule.weights)
        if any(abs(r) >= 1.0 - 1e-12 for r in self.ref):
            warnings.warn("source sits on an element boundary; it is "
                          "injected into the owning element only")
        self.stencil = stencil / mesh.jacobian

    def inject(self, dq, t, k=0, scale=1.0):
        """Adds scale times the k-th time derivative of the source at t
        to the rates dq."""
        g = scale * self.stf.eval(t, k)
        if g == 0.0:
            return
        nv = self.dim
        sel = (slice(nv, nv + self.m_voigt.size),) + self.elem
        dq[sel] += (self.m_voigt.reshape((-1,) + (1,) * self.dim)
                    * (g * self.stencil))


class IntervalGate:
    """True at the first time at or after each tick 0, h, 2h, ... of the
    interval h; interval None fires every call."""

    def __init__(self, interval):
        if interval is not None and not 0.0 < interval < np.inf:
            raise ValueError(
                f"interval must be positive and finite, got {interval}")
        self.interval = interval
        self.next = 0.0

    def __call__(self, t):
        if self.interval is None:
            return True
        if t < self.next - 1e-9:
            return False
        while self.next <= t + 1e-9:
            self.next += self.interval
        return True


class Receiver:
    """Samples field components at a fixed physical point.

    Usable directly as a run() callback: records once per interval tick
    (every call when interval is None) and drops calls whose time does
    not advance past the last sample.
    """

    def __init__(self, mesh, ops, location, components="velocity",
                 interval=None):
        self.location = tuple(float(x) for x in location)
        self.dim = mesh.dim
        self.elem, _, self.basis = _point_stencil(mesh, ops, location)
        if components not in ("velocity", "all"):
            raise ValueError(f"unknown component set {components!r}")
        names = state_components(mesh.dim)
        self.names = names[:mesh.dim] if components == "velocity" else names
        self.gate = IntervalGate(interval)
        self.times = []
        self.samples = []

    def __call__(self, state):
        if (self.times and state.t <= self.times[-1]) \
                or not self.gate(state.t):
            return
        q = state.Q[(slice(0, len(self.names)),) + self.elem]
        vals = np.tensordot(q, self.basis, self.dim)   # over the node axes
        self.times.append(float(state.t))
        self.samples.append(vals)

    def series(self):
        return np.asarray(self.times), np.asarray(self.samples)


def write_seismogram(path, receiver):
    """CSV with header t,vx,vy[,vz,...], one row per sample, %.16e."""
    with open(path, "w") as f:
        f.write("t," + ",".join(receiver.names) + "\n")
        for t, vals in zip(receiver.times, receiver.samples):
            f.write(",".join(f"{x:.16e}" for x in (t, *vals)) + "\n")
