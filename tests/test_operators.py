import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastowave.errors import OutOfReferenceDomain, UnsupportedDegree
from elastowave.operators import (MAX_DEGREE, build_operators,
                                  build_quadrature, eval_basis_at)
from elastowave.solver import _diff, _diff_matrix

KINDS = ("GLL", "GL", "GLR")


def test_gll_p1_rule():
    r = build_quadrature(1, "GLL")
    np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=0)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=0)


def test_gll_p2_rule():
    r = build_quadrature(2, "GLL")
    np.testing.assert_allclose(r.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(r.weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-14)


def test_gl_p1_rule():
    r = build_quadrature(1, "GL")
    s = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(r.nodes, [-s, s], rtol=1e-14)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], rtol=1e-14)


def test_glr_p1_rule():
    # left Radau: nodes {-1, 1/3}, weights {1/2, 3/2}
    r = build_quadrature(1, "GLR")
    np.testing.assert_allclose(r.nodes, [-1.0, 1 / 3], rtol=1e-14)
    np.testing.assert_allclose(r.weights, [0.5, 1.5], rtol=1e-14)


@pytest.mark.parametrize("P", range(1, MAX_DEGREE + 1))
def test_gl_rule_matches_leggauss(P):
    # an independent reference built by numpy's companion-matrix roots
    # and Newton polish; measured: nodes within 4.7e-16, weights within
    # 1.2e-15 over P = 1..16
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(P + 1)
    r = build_quadrature(P, "GL")
    assert np.abs(r.nodes - nodes).max() <= 1e-15
    assert np.abs(r.weights - weights).max() <= 4e-15


@pytest.mark.parametrize("kind, P, nodes, weights", [
    ("GLL", 3, [-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5), 1.0],
     [1 / 6, 5 / 6, 5 / 6, 1 / 6]),
    ("GLL", 4, [-1.0, -np.sqrt(3 / 7), 0.0, np.sqrt(3 / 7), 1.0],
     [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10]),
    ("GLR", 2, [-1.0, (1 - np.sqrt(6)) / 5, (1 + np.sqrt(6)) / 5],
     [2 / 9, (16 + np.sqrt(6)) / 18, (16 - np.sqrt(6)) / 18]),
])
def test_rule_matches_closed_form(kind, P, nodes, weights):
    # measured: every node and weight within 1.2e-16 of the closed form
    r = build_quadrature(P, kind)
    assert np.abs(r.nodes - nodes).max() <= 1e-15
    assert np.abs(r.weights - weights).max() <= 1e-15


def test_degree_bounds():
    with pytest.raises(UnsupportedDegree):
        build_quadrature(0, "GLL")
    with pytest.raises(UnsupportedDegree):
        build_quadrature(17, "GLL")
    with pytest.raises(UnsupportedDegree):
        build_quadrature(4, "nope")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("P", range(1, MAX_DEGREE + 1))
def test_rule_invariants(P, kind):
    r = build_quadrature(P, kind)
    assert abs(r.weights.sum() - 2.0) <= 1e-13
    assert (np.diff(r.nodes) > 0).all()
    assert (r.weights > 0).all()
    if kind == "GLL":
        assert r.nodes[0] == -1.0 and r.nodes[-1] == 1.0
    if kind == "GLR":
        assert r.nodes[0] == -1.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("P", range(1, MAX_DEGREE + 1))
def test_quadrature_exactness_class(P, kind):
    r = build_quadrature(P, kind)
    top = {"GLL": 2 * P - 1, "GLR": 2 * P, "GL": 2 * P + 1}[kind]
    for deg in range(top + 1):
        got = (r.weights * r.nodes ** deg).sum()
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert got == pytest.approx(exact, abs=2e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("P", range(1, MAX_DEGREE + 1))
def test_sbp_identity(P, kind):
    ops = build_operators(P, kind)
    res = np.abs(ops.Qmat + ops.Qmat.T - ops.B).max()
    assert res <= 1e-12


def test_gll_boundary_matrix_exact():
    for P in range(1, 13):
        ops = build_operators(P, "GLL")
        expect = np.zeros((P + 1, P + 1))
        expect[0, 0] = -1.0
        expect[-1, -1] = 1.0
        assert (ops.B == expect).all()


def test_d_matrix_p1():
    ops = build_operators(1, "GLL")
    np.testing.assert_allclose(ops.D, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_exact_on_polynomials(kind):
    for P in range(1, MAX_DEGREE + 1):
        ops = build_operators(P, kind)
        x = ops.rule.nodes
        assert np.abs(ops.D @ np.ones_like(x)).max() <= 1e-13
        for deg in range(1, P + 1):
            want = deg * x ** (deg - 1)
            got = ops.D @ x ** deg
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale <= 1e-10


@given(st.integers(1, 10), st.floats(-1, 1))
@settings(max_examples=60, deadline=None)
def test_basis_partition_of_unity(P, x):
    ops = build_operators(P, "GL")
    v = eval_basis_at(ops, x)
    assert abs(v.sum() - 1.0) <= 1e-13


def test_basis_cardinal_and_midpoint():
    ops = build_operators(4, "GLL")
    for j, xj in enumerate(ops.rule.nodes):
        v = eval_basis_at(ops, xj)
        expect = np.zeros(5)
        expect[j] = 1.0
        np.testing.assert_allclose(v, expect, atol=0)
    np.testing.assert_allclose(eval_basis_at(build_operators(1, "GLL"), 0.0),
                               [0.5, 0.5], atol=0)


def test_basis_domain_guard():
    ops = build_operators(3, "GLL")
    with pytest.raises(OutOfReferenceDomain):
        eval_basis_at(ops, 1.001)
    # within snapping tolerance is accepted
    eval_basis_at(ops, 1.0 + 1e-13)


def _applied(D, arr, node_ax):
    # D in the shape _diff applies it along node_ax of arr
    return _diff_matrix(D, int(np.prod(arr.shape[node_ax + 1:])))


def test_diff_polynomial_exactness_with_metric():
    P = 3
    ops = build_operators(P, "GLL")
    n = P + 1
    x = ops.rule.nodes
    const = np.full((2, n, n), 3.7)
    out = np.empty((2, n, n))
    D = _applied(ops.D * (2.0 / 1.0), const, 1)
    assert np.abs(_diff(const, 1, D, out)).max() <= 1e-12
    f = np.zeros((1, n, n))
    f[0] = x[:, None]  # component sampling f(x) = x, dx = 2 cancels the metric
    D = _applied(ops.D * (2.0 / 2.0), f, 1)
    np.testing.assert_allclose(_diff(f, 1, D, out[:1])[0],
                               1.0, atol=1e-13)
    g = np.zeros((1, n, n))
    g[0] = x[:, None] ** 2
    np.testing.assert_allclose(_diff(g, 1, D, out[:1])[0],
                               np.broadcast_to(2 * x[:, None], (n, n)),
                               atol=1e-12)


def _thread_cpu_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks[tid] = int(fields[11]) + int(fields[12])   # utime + stime
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="per-thread CPU times need /proc")
def test_diff_runs_on_calling_thread():
    # A product large enough for the BLAS library to thread leaves its
    # worker spinning between calls; _diff keeps every product small, so
    # other threads take no CPU time while it runs on a state-sized array
    ops = build_operators(3, "GLL")
    arr = np.random.default_rng(0).standard_normal((3,) + (12,) * 3 + (4,) * 3)
    out = np.empty(arr.shape)
    mats = {node_ax: _applied(ops.D, arr, node_ax) for node_ax in (4, 5, 6)}
    main = str(threading.get_native_id())
    before = _thread_cpu_ticks()
    for _ in range(150):
        for node_ax, D in mats.items():
            _diff(arr, node_ax, D, out)
    after = _thread_cpu_ticks()
    own = after[main] - before.get(main, 0)
    others = sum(t - before.get(tid, 0) for tid, t in after.items()
                 if tid != main)
    assert others <= 0.1 * own + 2, (own, others)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("dim", [2, 3])
def test_diff_matches_einsum_on_every_node_axis(dim, n):
    # rows of n * post <= 16 values take the kron(D, I_post) product (the
    # 3D middle axis and the 2D first one up to n = 4, the 3D first one
    # at n = 2), longer ones the batched D @ (n, post) one, the last axis
    # (rows, n) @ D.T, each matrix stored as _diff_matrix gives it
    rng = np.random.default_rng(10 * dim + n)
    _assert_diff_matches_einsum(rng.standard_normal((n, n)), dim, rng)


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_diff_matches_einsum_at_every_degree(degree):
    # the GLL derivative of every degree, in the shape _diff_matrix
    # stores it for each node axis of 2D and 3D fields (the transpose
    # for the products from the right)
    D = build_operators(degree, "GLL").D
    rng = np.random.default_rng(degree)
    for dim in (2, 3):
        _assert_diff_matches_einsum(D, dim, rng)


def _assert_diff_matches_einsum(D, dim, rng):
    """_diff with D on every node axis of a random field of 2 components
    on 3 x 2 (x 2) elements matches np.einsum to 1e-13 relative."""
    n = len(D)
    arr = rng.standard_normal((2,) + (3, 2, 2)[:dim] + (n,) * dim)
    letters = "abcdefgh"[:arr.ndim]
    for node_ax in range(1 + dim, arr.ndim):
        out = np.full(arr.shape, np.nan)
        assert _diff(arr, node_ax, _applied(D, arr, node_ax), out) is out
        want = np.einsum(f"z{letters[node_ax]},{letters}->"
                         + letters.replace(letters[node_ax], "z"), D, arr)
        assert np.abs(out - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("dim", [2, 3])
def test_diff_slab_rows_bitwise(dim, n):
    # the RHS differentiates one slab of element rows of the first element
    # axis at a time.  A slab's short-row products take fewer rows (on 3D
    # at n = 4, (576, 4) @ (4, 4) blocks on one row, not (2880, 4) on the
    # grid), and each product row comes out bit for bit the same
    rng = np.random.default_rng(10 * dim + n)
    D = rng.standard_normal((n, n))
    for m in (1, dim):
        arr = rng.standard_normal((m,) + (5, 3, 4)[:dim] + (n,) * dim)
        for node_ax in range(1 + dim, arr.ndim):
            op = _applied(D, arr, node_ax)
            whole = _diff(arr, node_ax, op, np.empty(arr.shape))
            for start, stop in ((0, 1), (1, 3), (3, 5), (4, 5)):
                slab = np.ascontiguousarray(arr[:, start:stop])
                got = _diff(slab, node_ax, op, np.empty(slab.shape))
                assert np.array_equal(got, whole[:, start:stop])


def test_diff_never_aliases():
    ops = build_operators(2, "GLL")
    f = np.random.default_rng(1).standard_normal((1, 3, 3))
    before = f.copy()
    _diff(f, 2, _applied(ops.D * 2.0, f, 2), np.empty(f.shape))
    assert (f == before).all()


def test_axis_commutativity():
    # axes: component, two element axes, node axes x, y, z
    ops = build_operators(3, "GLL")
    n = 4
    g = np.random.default_rng(2).standard_normal((9, 2, 3, n, n, n))
    sx, sy = 2.0 / 0.7, 2.0 / 1.3
    gx, gy, dxy, dyx = (np.empty(g.shape) for _ in range(4))
    dx, dy = _applied(ops.D * sx, g, 3), _applied(ops.D * sy, g, 4)
    _diff(_diff(g, 3, dx, gx), 4, dy, dxy)
    _diff(_diff(g, 4, dy, gy), 3, dx, dyx)
    assert np.abs(dxy - dyx).max() <= 1e-11 * max(1, np.abs(dxy).max())
