"""Output checks for the benchmark workloads, computed apart from elastowave.

Every expected value here comes from a closed form or from the workload's
input parameters, never from a function of the package under test: the
plane-wave mode and the GLL nodes are written out again, and the explosion
seismogram is the whole-space solution of Aki & Richards.  Each check
returns a list of failure messages (empty when the output is correct) and
a dict of the measured figures, so a run can report both.
"""

import math

import numpy as np
from numpy.polynomial import legendre


# ---------------------------------------------------------------------------
# plane-wave mode


def gll_rule(degree):
    """Gauss-Lobatto-Legendre nodes and weights on [-1, 1]."""
    inner = legendre.Legendre.basis(degree).deriv().roots()
    nodes = np.concatenate(([-1.0], np.sort(inner.real), [1.0]))
    p = legendre.Legendre.basis(degree)(nodes)
    weights = 2.0 / (degree * (degree + 1) * p ** 2)
    return nodes, weights


def bump(u):
    """The mode's compact profile (1 - u^2)^6 on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, (1.0 - np.minimum(u * u, 1.0)) ** 6, 0.0)


def p_mode_velocity(x, t, direction, speed, center, width):
    """Velocity of the P mode v = n phi((n.x - c t - center) / width).

    x is a sequence of coordinate arrays (one per axis); returns an array
    with the velocity component axis first.
    """
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    s = sum(ni * xi for ni, xi in zip(n, x))
    phi = bump((s - speed * t - center) / width)
    return np.stack([ni * phi for ni in n])


def element_node_coordinates(mins, spacings, counts, degree):
    """Node coordinates broadcast to the state layout (counts + nodes)."""
    nodes, _ = gll_rule(degree)
    dim = len(counts)
    out = []
    for ax in range(dim):
        e = np.arange(counts[ax])
        x = mins[ax] + (e[:, None] + (nodes[None, :] + 1.0) / 2.0) * spacings[ax]
        shape = [1] * (2 * dim)
        shape[ax] = counts[ax]
        shape[dim + ax] = nodes.size
        out.append(x.reshape(shape))
    return out


def quadrature_weights(degree, dim):
    _, w = gll_rule(degree)
    out = w
    for _ in range(dim - 1):
        out = np.multiply.outer(out, w)
    return out


def relative_l2(v, v_ref, weights):
    """Quadrature-weighted relative L2 difference over all components."""
    num = float(((v - v_ref) ** 2 * weights).sum())
    den = float((v_ref ** 2 * weights).sum())
    if den == 0.0:
        raise ValueError("reference field is identically zero")
    return math.sqrt(num / den)


def check_plane_wave(velocity, t, grid, mode, l2_bound):
    """Final velocity of the plane-wave run against the closed-form mode.

    grid: dict with mins, spacings, counts, degree.  mode: dict with
    direction, speed, center, width.
    """
    x = element_node_coordinates(grid["mins"], grid["spacings"],
                                 grid["counts"], grid["degree"])
    exact = p_mode_velocity(x, t, **mode)
    err = relative_l2(np.asarray(velocity), exact,
                      quadrature_weights(grid["degree"], len(grid["counts"])))
    fails = []
    if not err <= l2_bound:
        fails.append(f"plane-wave relative L2 error {err:.3e} exceeds"
                     f" {l2_bound:.1e}")
    return fails, {"plane_wave_l2": err}


def check_energy_nonincreasing(energies, rel_rounding=1e-12):
    """The undamped discrete energy may not rise from one step to the next.

    rel_rounding allows for the rounding of the energy sum itself, as a
    share of the initial energy.
    """
    e = np.asarray(energies, dtype=float)
    rise = np.diff(e) / e[0]
    worst = float(rise.max()) if rise.size else -math.inf
    fails = []
    if not worst <= rel_rounding:
        k = int(np.argmax(rise))
        fails.append(f"energy rose by {worst:.3e} of its initial value"
                     f" at step {k + 1}")
    return fails, {"energy_max_rise": worst}


# ---------------------------------------------------------------------------
# whole-space explosion


def gaussian(t, sigma, t0):
    """Unit-area Gaussian source-time function and its time derivative."""
    u = (np.asarray(t, dtype=float) - t0) / sigma
    g = np.exp(-0.5 * u * u) / (sigma * math.sqrt(2.0 * math.pi))
    return g, -u / sigma * g


def explosion_radial_velocity(t, r, m0, rho, alpha, sigma, t0):
    """Radial particle velocity of a whole-space explosion at distance r.

    Aki & Richards give v_r = M0/(4 pi rho alpha^2) [g(tau)/r^2 +
    g'(tau)/(alpha r)], tau = t - r/alpha, for a moment rate M0 g(t).
    The solver adds +M g(t) to the stress rate, which is a moment rate
    of -M g(t) (the stress glut enters the stress with a minus sign), so
    the velocity carries the opposite sign.
    """
    g, gdot = gaussian(np.asarray(t, dtype=float) - r / alpha, sigma, t0)
    return -m0 / (4.0 * math.pi * rho * alpha ** 2) \
        * (g / r ** 2 + gdot / (alpha * r))


def check_explosion(times, samples, source, receiver, m0, rho, alpha,
                    sigma, t0, l2_bound, transverse_bound):
    """One receiver's velocity series against the closed-form explosion.

    The radial component must match within l2_bound (relative L2 over the
    samples), and the transverse part must stay below transverse_bound
    times the peak of the closed-form radial velocity.
    """
    times = np.asarray(times, dtype=float)
    v = np.asarray(samples, dtype=float)
    d = np.asarray(receiver, dtype=float) - np.asarray(source, dtype=float)
    r = float(np.linalg.norm(d))
    e = d / r
    radial = v @ e
    transverse = np.linalg.norm(v - np.outer(radial, e), axis=1)
    exact = explosion_radial_velocity(times, r, m0, rho, alpha, sigma, t0)
    peak = float(np.abs(exact).max())
    err = float(np.linalg.norm(radial - exact) / np.linalg.norm(exact))
    trans = float(transverse.max()) / peak
    fails = []
    if not err <= l2_bound:
        fails.append(f"radial velocity relative L2 error {err:.3e} exceeds"
                     f" {l2_bound:.1e}")
    if not trans <= transverse_bound:
        fails.append(f"transverse velocity {trans:.3e} of the radial peak"
                     f" exceeds {transverse_bound:.1e}")
    return fails, {"radial_l2": err, "transverse_ratio": trans}


# ---------------------------------------------------------------------------
# strip with a velocity bump


def bump_radius(halfwidth, level):
    """Radius at which exp(-ln2 r^2 / halfwidth^2) falls to `level`."""
    return halfwidth * math.sqrt(math.log(1.0 / level) / math.log(2.0))


def check_probe_arrival(times, samples, distance, halfwidth, cp, quiet_until,
                        quiet_bound, arrival_tol, level=0.1):
    """The probe stays quiet before the P wave can arrive, then first
    reaches `level` of its peak near (distance - r_level) / cp."""
    times = np.asarray(times, dtype=float)
    mag = np.linalg.norm(np.asarray(samples, dtype=float), axis=1)
    peak = float(mag.max())
    fails = []
    if peak == 0.0:
        return ["probe never moved"], {}
    early = mag[times < quiet_until]
    quiet = float(early.max()) / peak if early.size else 0.0
    first = float(times[np.argmax(mag >= level * peak)])
    predicted = (distance - bump_radius(halfwidth, level)) / cp
    if not quiet <= quiet_bound:
        fails.append(f"probe reads {quiet:.3e} of its peak before"
                     f" t = {quiet_until:g} s (bound {quiet_bound:.1e})")
    if not abs(first - predicted) <= arrival_tol:
        fails.append(f"probe first reaches {level:g} of its peak at"
                     f" t = {first:.3f} s, predicted {predicted:.3f} s"
                     f" +- {arrival_tol:g} s")
    return fails, {"probe_quiet_ratio": quiet, "probe_arrival_s": first,
                   "probe_arrival_predicted_s": predicted}


def check_energy_decayed(energies):
    e = np.asarray(energies, dtype=float)
    fails = []
    if not e[-1] < e[0]:
        fails.append(f"final energy {e[-1]:.6e} is not below the initial"
                     f" {e[0]:.6e}")
    return fails, {"energy_final_ratio": float(e[-1] / e[0])}


def check_finite(*arrays):
    bad = [i for i, a in enumerate(arrays) if not np.isfinite(a).all()]
    return ([f"non-finite values in field {i}" for i in bad], {})
