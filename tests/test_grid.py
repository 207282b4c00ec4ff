"""Finite-difference kernels and measure helpers on the uniform grid.

The expected numbers in this file are either exact (affine fields, constant
fields) or hand-derived closed forms (cone curvature, disc areas).  Tolerances
follow from the truncation order of each stencil.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import frontlab
from frontlab.errors import FieldFormatError, GridMismatchError
from frontlab.grid import (
    BATCH_BYTES,
    FieldStack,
    GridSpec,
    ScalarField,
    Workspace,
    batches,
    cell_coverage,
    central_gradient_norm,
    central_gradient_norm_at,
    central_gradients,
    constant_field,
    curvature_term,
    dump_field,
    field_from_function,
    interpolate,
    lebesgue_measure,
    load_field,
    stack_fields,
    upwind_gradient_norm,
)


def test_grid_spec_geometry():
    spec = GridSpec(101, 1.0)
    assert spec.h == pytest.approx(0.02)
    ax = spec.axis()
    assert ax[0] == -1.0 and ax[-1] == 1.0
    assert len(ax) == 101
    xx, yy = spec.meshgrid()
    assert xx.shape == (101, 101)
    assert xx[0, 0] == -1.0 and yy[0, 0] == -1.0


def test_grid_coordinates_are_read_only_and_shared():
    # built once per grid: equal specs share the arrays, an in-place write
    # raises, and the values are the ones the formulas give
    spec = GridSpec(65, 1.5)
    arrays = (spec.axis(), *spec.meshgrid(), spec.radius())
    twin = GridSpec(65, 1.5)
    assert twin is not spec
    for a, b in zip(arrays, (twin.axis(), *twin.meshgrid(), twin.radius())):
        assert a is b
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0
    ax = np.linspace(-1.5, 1.5, 65)
    x, y = np.meshgrid(ax, ax, indexing="xy")
    for got, want in zip(arrays, (ax, x, y, np.hypot(x, y))):
        assert _same_bits(got, want)
    assert GridSpec(65, 1.0).axis() is not spec.axis()


def test_grid_spec_rejects_bad_n():
    with pytest.raises(ValueError):
        GridSpec(100, 1.0)
    with pytest.raises(ValueError):
        GridSpec(31, 1.0)
    with pytest.raises(ValueError):
        GridSpec(101, 0.0)


def test_grid_mismatch_detected():
    a = constant_field(GridSpec(101, 1.0), 0.0)
    b = constant_field(GridSpec(101, 1.5), 0.0)
    with pytest.raises(GridMismatchError):
        a.check_same_grid(b)


# ---------------------------------------------------------------------------
# upwind gradient norm
# ---------------------------------------------------------------------------


def test_upwind_exact_on_affine():
    # one-sided differences are exact on affine data, including the
    # second-order boundary rows, so the norm is exact everywhere
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: 0.3 * x - 0.4 * y + 0.1)
    for speed in (1.0, -1.0):
        g = upwind_gradient_norm(u, speed)
        assert np.max(np.abs(g - 0.5)) < 1e-13


def test_upwind_zero_on_constant():
    spec = GridSpec(65, 1.0)
    u = constant_field(spec, 0.3)
    # the boundary stencil combines 3 nodes, so roundoff of order eps/h survives
    assert np.max(np.abs(upwind_gradient_norm(u, 1.0))) < 1e-12
    assert np.max(np.abs(upwind_gradient_norm(u, -1.0))) < 1e-12


def test_upwind_axis_value_on_kink():
    # u = |x1| is affine away from the kink line, so at (0.5, 0) both
    # one-sided x-differences equal 1 and the y-differences vanish
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: np.abs(x))
    g = upwind_gradient_norm(u, 1.0)
    ix = int(round((0.5 + 1.0) / spec.h))
    assert g[spec.n // 2, ix] == pytest.approx(1.0, abs=1e-6)


def test_upwind_expanding_cone_is_unit():
    # u = r0 - |x| has both one-sided radial slopes equal to -1 on the
    # axes; the positive-speed combination picks the entering ones
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: 0.5 - np.hypot(x, y))
    g = upwind_gradient_norm(u, 1.0)
    ix = int(round((0.5 + 1.0) / spec.h))
    assert g[spec.n // 2, ix] == pytest.approx(1.0, abs=1e-10)


def test_upwind_orientation_flips_with_speed_sign():
    # at a valley of u = |x1| the expanding branch sees both slopes,
    # the contracting branch sees none; this pins the upwind choice
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: np.abs(x))
    mid = spec.n // 2
    g_pos = upwind_gradient_norm(u, 1.0)
    g_neg = upwind_gradient_norm(u, -1.0)
    assert g_pos[mid, mid] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert g_neg[mid, mid] == pytest.approx(0.0, abs=1e-12)


def test_central_gradient_norm_affine():
    spec = GridSpec(65, 1.0)
    u = field_from_function(spec, lambda x, y: 2.0 * x + y)
    g = central_gradient_norm(u)
    interior = g[1:-1, 1:-1]
    assert np.max(np.abs(interior - np.sqrt(5.0))) < 1e-12


def _node_sets(n, rng):
    """(name, iy, ix) node sets that cover every stencil row: a random
    interior sample, each of the four edge lines, the four corners, the
    whole grid and the empty set."""
    last = n - 1
    line = np.arange(n)
    full = np.indices((n, n)).reshape(2, -1)
    sample = np.nonzero(rng.random((n, n)) < 0.07)
    empty = np.zeros(0, dtype=np.int64)
    return [
        ("sample", *sample),
        ("bottom", np.zeros(n, dtype=np.int64), line),
        ("top", np.full(n, last), line),
        ("left", line, np.zeros(n, dtype=np.int64)),
        ("right", line, np.full(n, last)),
        ("corners", np.array([0, 0, last, last]), np.array([0, last, 0, last])),
        ("full", full[0], full[1]),
        ("empty", empty, empty),
    ]


@pytest.mark.parametrize("n", [33, 49, 201])
def test_gradient_norm_at_nodes_matches_full_grid_bitwise(n):
    rng = np.random.default_rng(n)
    u = ScalarField(GridSpec(n, 1.5), rng.normal(size=(n, n)))
    full = central_gradient_norm(u)
    for name, iy, ix in _node_sets(n, rng):
        got = central_gradient_norm_at(u, iy, ix)
        assert got.shape == iy.shape, name
        assert np.array_equal(got, full[iy, ix]), name


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
def test_gradient_norm_at_nodes_of_a_stack_matches_each_field_bitwise(n):
    # the nodes of every field of a stack in one call, against each field's
    # full-grid |Du|
    rng = np.random.default_rng(n)
    spec = GridSpec(n, 1.5)
    fields = [ScalarField(spec, rng.normal(size=(n, n))) for _ in range(3)]
    stack = stack_fields(fields)
    for name, iy, ix in _node_sets(n, rng):
        snapshot = rng.integers(0, len(fields), iy.size)
        got = central_gradient_norm_at(stack, iy, ix, snapshot)
        want = np.empty(iy.size)
        for j, u in enumerate(fields):
            at = snapshot == j
            want[at] = central_gradient_norm(u)[iy[at], ix[at]]
        assert np.array_equal(got, want), name
        one = central_gradient_norm_at(stack_fields(fields[:1]), iy, ix, np.zeros_like(iy))
        assert np.array_equal(one, central_gradient_norm_at(fields[0], iy, ix)), name


# ---------------------------------------------------------------------------
# batches of snapshots
# ---------------------------------------------------------------------------


def test_batches_hold_what_fits_in_the_budget():
    assert batches(13, 49) == [range(0, 13)]
    assert batches(13, 201) == [range(k, k + 1) for k in range(13)]
    assert batches(3, 201) == [range(0, 1), range(1, 2), range(2, 3)]
    assert batches(13, 101) == [range(0, 6), range(6, 12), range(12, 13)]
    assert batches(0, 49) == []
    for n in (33, 49, 65, 101, 129, 161, 201, 401, 1025):
        for count in (1, 2, 3, 13, 25, 60):
            spans = batches(count, n)
            # every snapshot once, in order, at least one per batch, and more
            # than one only while their values fit in BATCH_BYTES
            assert [k for span in spans for k in span] == list(range(count)), (n, count)
            assert all(len(span) >= 1 and span.step == 1 for span in spans)
            assert all(len(span) == 1 or 8 * n * n * len(span) <= BATCH_BYTES for span in spans)
            # only the last batch may be short
            assert len({len(span) for span in spans[:-1]}) <= 1
            assert len(spans[-1]) <= len(spans[0])
            assert len(spans[0]) == min(count, max(1, BATCH_BYTES // (8 * n * n)))


def test_stack_of_one_field_is_a_view():
    u = ScalarField(GridSpec(33, 1.5), np.random.default_rng(1).normal(size=(33, 33)))
    one = stack_fields([u])
    assert one.values.shape == (1, 33, 33) and np.shares_memory(one.values, u.values)
    two = stack_fields([u, u])
    assert two.values.shape == (2, 33, 33) and not np.shares_memory(two.values, u.values)


# ---------------------------------------------------------------------------
# curvature term
# ---------------------------------------------------------------------------


def test_curvature_zero_on_affine():
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: x)
    k = curvature_term(u)
    assert np.max(np.abs(k[2:-2, 2:-2])) < 1e-10


def _node(spec, x, y):
    return int(round((y + spec.half_extent) / spec.h)), int(
        round((x + spec.half_extent) / spec.h)
    )


def test_curvature_of_cone_matches_inverse_radius():
    # for u = 1 - |x| the geometric curvature of the level line through
    # x is -1/|x|; the trace stencil reproduces it away from the apex
    spec = GridSpec(201, 1.5)
    u = field_from_function(spec, lambda x, y: 1.0 - np.hypot(x, y))
    k = curvature_term(u)
    iy, ix = _node(spec, 1.0, 0.0)
    assert k[iy, ix] == pytest.approx(-1.0, abs=0.05)
    iy, ix = _node(spec, 0.5, 0.0)
    assert k[iy, ix] == pytest.approx(-2.0, abs=0.1)


def test_curvature_scale_invariance_of_ratio():
    # tr((I - p x p) D^2 u) / |Du| depends only on the level lines, so
    # u -> 2u + 5 must leave it unchanged up to discretization error
    spec = GridSpec(201, 1.5)
    u = field_from_function(spec, lambda x, y: 1.0 - np.hypot(x, y))
    v = ScalarField(spec, 2.0 * u.values + 5.0)
    xx, yy = spec.meshgrid()
    mask = (np.hypot(xx, yy) > 0.3) & (np.hypot(xx, yy) < 1.2)
    ratio_u = curvature_term(u) / np.maximum(central_gradient_norm(u), 1e-12)
    ratio_v = curvature_term(v) / np.maximum(central_gradient_norm(v), 1e-12)
    assert np.max(np.abs(ratio_u[mask] - ratio_v[mask])) < 10.0 * spec.h


def test_curvature_is_the_laplacian_where_the_gradient_vanishes():
    # the Evans-Spruck term tends to the Laplacian where Du -> 0: at the top
    # of the paraboloid 1 - |x|^2, where the central gradient is 0, it is
    # uxx + uyy = -4, exact for quadratic data.  The cone 1 - |x| has no
    # central gradient at its tip either; there the term is its five-point
    # Laplacian -4h / h^2, so the tip moves down
    spec = GridSpec(65, 1.5)
    iy, ix = _node(spec, 0.0, 0.0)
    bowl = field_from_function(spec, lambda x, y: 1.0 - x * x - y * y)
    assert curvature_term(bowl)[iy, ix] == pytest.approx(-4.0, rel=1e-12)
    cone = field_from_function(spec, lambda x, y: 1.0 - np.hypot(x, y))
    assert curvature_term(cone)[iy, ix] == pytest.approx(-4.0 / spec.h, rel=1e-12)


# ---------------------------------------------------------------------------
# the stencils, bit for bit against their plain numpy formulas
# ---------------------------------------------------------------------------


def _reference_one_sided(values, h, axis):
    d = np.diff(values, axis=axis) / h
    fwd = np.empty_like(values)
    bwd = np.empty_like(values)
    lead = (slice(None),) * axis
    fwd[lead + (slice(0, -1),)] = d
    bwd[lead + (slice(1, None),)] = d

    def line(i):
        return values[lead + (i,)]

    fwd[lead + (-1,)] = (3.0 * line(-1) - 4.0 * line(-2) + line(-3)) / (2.0 * h)
    bwd[lead + (0,)] = (-3.0 * line(0) + 4.0 * line(1) - line(2)) / (2.0 * h)
    return bwd, fwd


def _reference_upwind(u, c):
    bx, fx = _reference_one_sided(u.values, u.spec.h, axis=1)
    by, fy = _reference_one_sided(u.values, u.spec.h, axis=0)
    pos = (
        np.maximum(fx, 0.0) ** 2 + np.minimum(bx, 0.0) ** 2
        + np.maximum(fy, 0.0) ** 2 + np.minimum(by, 0.0) ** 2
    )
    neg = (
        np.maximum(bx, 0.0) ** 2 + np.minimum(fx, 0.0) ** 2
        + np.maximum(by, 0.0) ** 2 + np.minimum(fy, 0.0) ** 2
    )
    return np.sqrt(np.where(c >= 0.0, pos, neg))


def _reference_difference(v, axis):
    # v[i+1] - v[i-1], second-order one-sided on the two boundary lines
    lead = (slice(None),) * axis
    d = np.empty_like(v)
    d[lead + (slice(1, -1),)] = v[lead + (slice(2, None),)] - v[lead + (slice(None, -2),)]
    d[lead + (0,)] = -3.0 * v[lead + (0,)] + 4.0 * v[lead + (1,)] - v[lead + (2,)]
    d[lead + (-1,)] = v[lead + (-3,)] - 4.0 * v[lead + (-2,)] + 3.0 * v[lead + (-1,)]
    return d


def _reference_second_sum(v, axis):
    # (v[i+1] + v[i-1]) - 2 v[i], the boundary lines copied from their neighbours
    lead = (slice(None),) * axis
    s = np.empty_like(v)
    s[lead + (slice(1, -1),)] = (
        (v[lead + (slice(2, None),)] + v[lead + (slice(None, -2),)])
        - (v + v)[lead + (slice(1, -1),)]
    )
    s[lead + (0,)] = s[lead + (1,)]
    s[lead + (-1,)] = s[lead + (-2,)]
    return s


def _reference_curvature(u):
    # the unscaled Evans-Spruck form: Dx = 2h ux, Dxy = 4h^2 uxy,
    # Sxx = h^2 uxx, and r = 4h^4 for the 4h^2 h^2 of the scaled form
    h = u.spec.h
    v = u.values
    r = 4.0 * (h * h) * (h * h)
    dx = _reference_difference(v, 1)
    dy = _reference_difference(v, 0)
    dxy = _reference_difference(dx, 0)
    sxx = _reference_second_sum(v, 1)
    syy = _reference_second_sum(v, 0)
    num = sxx * (dy**2 + r) - dxy * dx * dy * 0.5 + syy * (dx**2 + r)
    return num / (dx**2 + (dy**2 + r)) * (1.0 / (h * h))


def _textbook_curvature(u):
    # (uxx (uy^2 + h^2) - 2 ux uy uxy + uyy (ux^2 + h^2)) / (ux^2 + uy^2 + h^2)
    # on the scaled differences
    h = u.spec.h
    v = u.values
    uy, ux = np.gradient(v, h, edge_order=2)
    uxx = np.empty_like(v)
    uxx[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (h * h)
    uxx[:, 0] = uxx[:, 1]
    uxx[:, -1] = uxx[:, -2]
    uyy = np.empty_like(v)
    uyy[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / (h * h)
    uyy[0, :] = uyy[1, :]
    uyy[-1, :] = uyy[-2, :]
    uxy = np.gradient(ux, h, axis=0, edge_order=2)
    num = uxx * (uy**2 + h**2) - 2.0 * ux * uy * uxy + uyy * (ux**2 + h**2)
    return num / (ux**2 + uy**2 + h**2)


def _random_field(n, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(GridSpec(n, 1.5), rng.uniform(-1.0, 1.0, (n, n)))


def _same_bits(a, b):
    # compares bit patterns, so 0.0 and -0.0 differ as they do in a dump
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [33, 201])
def test_curvature_and_gradients_match_numpy_bitwise(n):
    u = _random_field(n, seed=n)
    assert _same_bits(curvature_term(u), _reference_curvature(u))
    uy, ux = np.gradient(u.values, u.spec.h, edge_order=2)
    gx, gy = central_gradients(u)
    assert _same_bits(gx, ux) and _same_bits(gy, uy)


@pytest.mark.parametrize("n", [33, 201])
def test_curvature_matches_textbook_formula(n):
    # the unscaled form is the scaled one up to rounding, on noise and on a
    # smooth field with a flat top
    spec = GridSpec(n, 1.5)
    smooth = field_from_function(spec, lambda x, y: np.clip(0.7 - np.hypot(x, 0.8 * y), -1, 0.3))
    for u in (_random_field(n, seed=n), smooth):
        k = curvature_term(u)
        assert np.max(np.abs(k - _textbook_curvature(u))) <= 1e-13 * np.max(np.abs(k))


@pytest.mark.parametrize("n", [33, 201])
def test_gradient_norm_writes_into_the_workspace(n):
    u = _random_field(n, seed=n)
    fresh = central_gradient_norm(u)
    work = Workspace(u.spec)
    norm = central_gradient_norm(u, work)
    assert norm is work.scratch[0]
    assert _same_bits(norm, fresh)
    uy, ux = np.gradient(u.values, u.spec.h, edge_order=2)
    assert _same_bits(fresh, np.hypot(ux, uy))


def test_gradient_norm_without_a_workspace_allocates_two_fields():
    # the two gradient components, the norm written over the first
    spec = GridSpec(201, 1.5)
    u = _random_field(201, seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        central_gradient_norm(u)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise < 2.5 * spec.n**2 * 8


@pytest.mark.parametrize("n", [33, 201])
@pytest.mark.parametrize("sign", ["nonnegative", "negative", "mixed"])
def test_upwind_matches_numpy_bitwise(n, sign):
    u = _random_field(n, seed=n)
    rng = np.random.default_rng(n + 1)
    low, high = {"nonnegative": (0.0, 2.0), "negative": (-2.0, -0.1), "mixed": (-1.0, 1.0)}[sign]
    c = rng.uniform(low, high, (n, n))
    if sign != "negative":
        c[::3, ::3] = 0.0  # c = 0 takes the c >= 0 sum
    speed = ScalarField(u.spec, c)
    assert _same_bits(upwind_gradient_norm(u, speed), _reference_upwind(u, c))
    # a workspace reused across calls gives the same bits again
    work = Workspace(u.spec)
    upwind_gradient_norm(u, ScalarField(u.spec, -c), work)
    assert _same_bits(upwind_gradient_norm(u, speed, work), _reference_upwind(u, c))


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_lebesgue_measure_disc():
    spec = GridSpec(201, 1.5)
    u = field_from_function(spec, lambda x, y: 1.0 - np.hypot(x, y) / 0.5)
    area = lebesgue_measure(u, 0.0)
    assert area == pytest.approx(np.pi * 0.25, rel=5e-3)


def test_lebesgue_measure_extremes():
    spec = GridSpec(101, 1.0)
    assert lebesgue_measure(constant_field(spec, -1.0), 0.0) == 0.0
    full = lebesgue_measure(constant_field(spec, 1.0), 0.0)
    assert full == pytest.approx(4.0, abs=1e-12)


def test_lebesgue_measure_monotone_in_threshold():
    spec = GridSpec(101, 1.0)
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(4, 4))
    xx, yy = spec.meshgrid()
    vals = sum(
        coef[i, j] * np.cos(i * np.pi * xx) * np.cos(j * np.pi * yy)
        for i in range(4)
        for j in range(4)
    )
    u = ScalarField(spec, vals)
    levels = np.linspace(-1.0, 1.0, 9)
    areas = [lebesgue_measure(u, lv) for lv in levels]
    assert all(a >= b - 1e-12 for a, b in zip(areas, areas[1:]))


# ---------------------------------------------------------------------------
# cell coverage, bit for bit against the full-grid formula
# ---------------------------------------------------------------------------


def _reference_crossing(la, lb):
    denom = la - lb
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.clip(la / safe, 0.0, 1.0)


def _reference_cases(u, threshold):
    v = u.values - threshold
    la, lb, lc, ld = v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1]
    case = ((la >= 0.0).astype(np.int8) + 2 * (lb >= 0.0).astype(np.int8)
            + 4 * (lc >= 0.0).astype(np.int8) + 8 * (ld >= 0.0).astype(np.int8))
    return (la, lb, lc, ld), case, (la + lb + lc + ld) >= 0.0


def _reference_coverage(u, threshold):
    (la, lb, lc, ld), case, centre_in = _reference_cases(u, threshold)
    xs = _reference_crossing(la, lb)
    ye = _reference_crossing(lb, lc)
    xn = _reference_crossing(ld, lc)
    yw = _reference_crossing(la, ld)

    tri_a = 0.5 * xs * yw
    tri_b = 0.5 * (1.0 - xs) * ye
    tri_c = 0.5 * (1.0 - xn) * (1.0 - ye)
    tri_d = 0.5 * xn * (1.0 - yw)

    area = np.zeros_like(la)
    area = np.where(case == 1, tri_a, area)
    area = np.where(case == 2, tri_b, area)
    area = np.where(case == 4, tri_c, area)
    area = np.where(case == 8, tri_d, area)
    area = np.where(case == 3, 0.5 * (yw + ye), area)
    area = np.where(case == 6, 0.5 * ((1.0 - xs) + (1.0 - xn)), area)
    area = np.where(case == 12, 0.5 * ((1.0 - yw) + (1.0 - ye)), area)
    area = np.where(case == 9, 0.5 * (xs + xn), area)
    area = np.where(case == 7, 1.0 - tri_d, area)
    area = np.where(case == 11, 1.0 - tri_c, area)
    area = np.where(case == 13, 1.0 - tri_b, area)
    area = np.where(case == 14, 1.0 - tri_a, area)
    area = np.where((case == 5) & centre_in, 1.0 - tri_b - tri_d, area)
    area = np.where((case == 5) & ~centre_in, tri_a + tri_c, area)
    area = np.where((case == 10) & centre_in, 1.0 - tri_a - tri_c, area)
    area = np.where((case == 10) & ~centre_in, tri_b + tri_d, area)
    area = np.where(case == 15, 1.0, area)
    return area


@pytest.mark.parametrize("n", [33, 201])
def test_cell_coverage_matches_reference_bitwise(n):
    # every field's levels go through one stacked call, compared slice by
    # slice, and each level's area is the sum of its own contiguous slice
    spec = GridSpec(n, 1.5)
    rng = np.random.default_rng(n)
    xx, yy = spec.meshgrid()
    radius = np.hypot(xx, yy)
    # a checkerboard of signs makes every cell a saddle, 5 or 10, and the
    # random magnitudes give its centre average either sign
    checker = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2 == 0, 1.0, -1.0)
    cases = [
        (1.0 - radius / 0.5, [0.0, 0.3, -0.5]),
        # 2.0 cuts no cell and leaves all out, -2.0 all in
        (rng.uniform(-1.0, 1.0, (n, n)), [0.0, 2.0, -2.0]),
        (np.round(rng.uniform(-2.0, 2.0, (n, n))), [0.0, 1.0, -1.0]),  # nodes at the level
        (np.abs(xx) - 0.3, [0.0]),  # whole node columns at the level
        (checker * rng.uniform(0.1, 1.0, (n, n)), [0.0]),
        ((radius <= 0.6).astype(np.float64), [0.5]),  # an indicator
        (np.cos(7.0 * xx) * np.cos(7.0 * yy), [0.3, -0.3, 0.0]),
    ]
    saddles = set()
    for values, levels in cases:
        u = ScalarField(spec, values)
        stacked = cell_coverage(u, levels)
        assert stacked.shape == (len(levels), n - 1, n - 1)
        areas = lebesgue_measure(u, levels)
        for level, coverage, area in zip(levels, stacked, areas):
            _, case, centre_in = _reference_cases(u, level)
            for code in (5, 10):
                saddles.update((code, bool(c)) for c in np.unique(centre_in[case == code]))
            reference = _reference_coverage(u, level)
            assert _same_bits(coverage, reference)
            assert _same_bits(np.float64(area), spec.h * spec.h * reference.sum())
    assert saddles == {(5, False), (5, True), (10, False), (10, True)}


def test_cell_coverage_allocates_under_a_few_fields():
    # only the cut cells are interpolated: one call's allocation peak is the
    # result and a few byte-sized case arrays, under two n x n float64 fields
    spec = GridSpec(201, 1.5)
    u = field_from_function(spec, lambda x, y: 1.0 - np.hypot(x, y) / 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cell_coverage(u, [0.0])
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise < 2 * spec.n**2 * 8


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_affine_exact():
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: 0.5 * x - 0.25 * y + 0.2)
    pts = np.array([[0.45, 0.0], [0.123, -0.456], [-0.9, 0.9]])
    got = interpolate(u, pts)
    want = 0.5 * pts[:, 0] - 0.25 * pts[:, 1] + 0.2
    assert np.max(np.abs(got - want)) < 1e-14


def test_interpolate_at_nodes_exact():
    spec = GridSpec(65, 1.0)
    rng = np.random.default_rng(3)
    u = ScalarField(spec, rng.normal(size=(65, 65)))
    pts = np.array([[spec.axis()[10], spec.axis()[20]], [spec.axis()[0], spec.axis()[64]]])
    got = interpolate(u, pts)
    assert got[0] == u.values[20, 10]
    assert got[1] == u.values[64, 0]


def test_interpolate_outside_returns_far_value():
    spec = GridSpec(65, 1.0)
    u = constant_field(spec, 0.7)
    got = interpolate(u, np.array([[1.5, 0.0], [0.0, -2.0]]))
    assert np.all(got == -1.0)


def test_interpolate_nan_point_returns_far_value():
    # a NaN coordinate lies outside the box and never reaches the integer
    # cast; the finite points keep their values bit for bit
    spec = GridSpec(201, 1.5)
    rng = np.random.default_rng(5)
    u = ScalarField(spec, rng.normal(size=(spec.n, spec.n)))
    pts = rng.uniform(-1.4, 1.4, (50, 2))
    want = interpolate(u, pts)
    pts[17, 0] = np.nan
    pts[30, 1] = np.nan
    want[[17, 30]] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interpolate(u, pts)
    assert _same_bits(got, want)


def _reference_interpolate(values, spec, pts):
    # the bilinear formula with 2-D fancy indexes
    L, h, n = spec.half_extent, spec.h, spec.n
    x, y = pts[..., 0], pts[..., 1]
    outside = (x < -L) | (x > L) | (y < -L) | (y > L)
    fx = (np.clip(x, -L, L) + L) / h
    fy = (np.clip(y, -L, L) + L) / h
    ix = np.minimum(fx.astype(np.int64), n - 2)
    iy = np.minimum(fy.astype(np.int64), n - 2)
    tx, ty = fx - ix, fy - iy
    val = ((1 - tx) * (1 - ty) * values[iy, ix] + tx * (1 - ty) * values[iy, ix + 1]
           + (1 - tx) * ty * values[iy + 1, ix] + tx * ty * values[iy + 1, ix + 1])
    return np.where(outside, -1.0, val)


def _test_fields(spec, kind, rng, count):
    """count scalar fields on spec: random values ("scalar"), or the
    components -x, -y, -x, ... of the radial direction field nu = -x, each
    read as a scalar field ("direction-field")."""
    if kind == "scalar":
        return [ScalarField(spec, rng.normal(size=(spec.n, spec.n))) for _ in range(count)]
    x, y = spec.meshgrid()
    return [ScalarField(spec, -(x, y)[j % 2]) for j in range(count)]


@pytest.mark.parametrize("kind", ["scalar", "direction-field"])
def test_interpolate_matches_the_formula_bitwise(kind):
    spec = GridSpec(201, 1.5)
    rng = np.random.default_rng(8)
    [field] = _test_fields(spec, kind, rng, 1)
    for pts in (rng.uniform(-1.7, 1.7, (2000, 2)), rng.uniform(-1.7, 1.7, (3, 5, 2))):
        got = interpolate(field, pts)
        assert _same_bits(got, _reference_interpolate(field.values, spec, pts))


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
@pytest.mark.parametrize("kind", ["scalar", "direction-field"])
def test_interpolate_from_a_stack_matches_each_field_bitwise(n, kind):
    # points read in the field of their snapshot index, outside points and
    # NaN points among them, against each field read alone
    spec = GridSpec(n, 1.5)
    rng = np.random.default_rng(n)
    fields = _test_fields(spec, kind, rng, 4)
    stack = FieldStack(spec, np.stack([f.values for f in fields]))
    for pts in (rng.uniform(-1.7, 1.7, (500, 2)), rng.uniform(-1.7, 1.7, (3, 40, 2))):
        pts[(0,) * (pts.ndim - 1)][0] = np.nan
        pts.reshape(-1, 2)[7, 1] = np.nan
        snapshot = rng.integers(0, len(fields), pts.shape[:-1])
        got = interpolate(stack, pts, snapshot)
        want = np.stack([interpolate(f, pts) for f in fields])   # (fields, points..)
        want = np.take_along_axis(want, snapshot[None], axis=0)[0]
        assert got.shape == want.shape
        assert _same_bits(got, want)
        first = interpolate(stack_fields(fields[:1]), pts, np.zeros_like(snapshot))
        assert _same_bits(first, interpolate(fields[0], pts))
    # one point is a (1, 2) array, and reads as the same point of a batch,
    # shape (1,)
    batch = np.array([[-0.3, 0.4], [0.1, 0.2], [1.2, -0.7]])
    for field in (fields[2], stack):
        one = interpolate(field, batch[1:2], None if field is fields[2] else np.array([2]))
        assert one.shape == (1,)
        many = interpolate(fields[2], batch)
        assert _same_bits(one, many[1:2])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_field_round_trip_bit_exact(tmp_path):
    spec = GridSpec(65, 1.5)
    rng = np.random.default_rng(11)
    u = ScalarField(spec, rng.normal(size=(65, 65)))
    path = tmp_path / "field.f64"
    dump_field(u, path)
    v = load_field(path)
    assert v.spec.n == 65
    assert v.spec.half_extent == 1.5
    assert np.array_equal(u.values, v.values)


def test_field_round_trip_keeps_every_bit(tmp_path):
    spec = GridSpec(33, 0.1 + 0.2)
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    special = [-0.0, 0.0, tiny / 2**52, -tiny / 3, tiny, big, -big, 1.0, -1.0,
               np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
    values = np.random.default_rng(5).normal(size=(33, 33))
    values.flat[: len(special)] = special
    path = tmp_path / "field.f64"
    dump_field(ScalarField(spec, values), path)
    back = load_field(path)
    assert back.spec == spec
    assert back.values.tobytes() == values.tobytes()
    assert np.signbit(back.values.flat[0])
    back.values[0, 0] = 2.0  # loaded fields are writable, like computed ones


def test_field_file_layout(tmp_path):
    # built by hand, so the format cannot drift with numpy's own file headers
    values = np.arange(33 * 33, dtype=np.float64).reshape(33, 33) / 7.0 - 50.0
    path = tmp_path / "field.f64"
    dump_field(ScalarField(GridSpec(33, 1.5), values), path)
    assert path.read_bytes() == b"33 1.5\n" + values.astype("<f8").tobytes()


@pytest.mark.parametrize("damage, needle", [
    (lambda data: b"33\n" + data.split(b"\n", 1)[1], "malformed header"),
    (lambda data: data.replace(b"\n", b" ", 1), "malformed header"),
    (lambda data: data[:-8], "8704 bytes of values, expected 8 x 33^2 = 8712"),
    (lambda data: data + b"\0", "8713 bytes of values"),
    (lambda data: data[:-8] + np.float64(np.nan).tobytes(), "non-finite"),
])
def test_load_field_names_the_fault(tmp_path, damage, needle):
    path = tmp_path / "field.f64"
    dump_field(constant_field(GridSpec(33, 1.5), -0.25), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FieldFormatError) as caught:
        load_field(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert needle in str(caught.value)


# ---------------------------------------------------------------------------
# numpy namespace
# ---------------------------------------------------------------------------

# Leaves numpy with the trapezoidal rule under the one name given in argv[1],
# then imports frontlab, which loads no scipy module at import.
_NAMESPACE_SCRIPT = """
import sys

import numpy as np

rule = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
for name in ("trapz", "trapezoid"):
    if hasattr(np, name):
        delattr(np, name)
setattr(np, sys.argv[1], rule)

import frontlab
from frontlab.grid import trapezoid

assert trapezoid is rule
assert trapezoid([0.0, 1.0], [0.0, 1.0]) == 0.5
"""


@pytest.mark.parametrize("name", ["trapezoid", "trapz"], ids=["numpy>=2.4", "numpy<2.0"])
def test_import_with_one_trapezoid_name(name):
    src = str(Path(frontlab.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _NAMESPACE_SCRIPT, name],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
