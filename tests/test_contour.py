"""Marching-squares contour extraction and its CSV round trip."""

import numpy as np
import pytest

from frontlab.contour import dump_contour, extract_contour
from frontlab.grid import GridSpec, constant_field, field_from_function, interpolate


def _disc(spec, r, cx=0.0, cy=0.0):
    return field_from_function(spec, lambda x, y: r - np.hypot(x - cx, y - cy))


def test_circle_perimeter():
    spec = GridSpec(401, 1.5)
    c = extract_contour(_disc(spec, 0.7), 0.0)
    assert len(c.polylines) == 1
    assert c.closed == [True]
    assert c.perimeter() == pytest.approx(2.0 * np.pi * 0.7, rel=5e-3)


def test_empty_contour():
    spec = GridSpec(101, 1.0)
    c = extract_contour(constant_field(spec, -1.0), 0.0)
    assert c.polylines == []
    assert c.perimeter() == 0.0


def test_two_components():
    spec = GridSpec(201, 1.5)
    u = field_from_function(
        spec,
        lambda x, y: np.maximum(0.3 - np.hypot(x - 0.5, y), 0.3 - np.hypot(x + 0.5, y)),
    )
    c = extract_contour(u, 0.0)
    assert len(c.polylines) == 2
    assert c.perimeter() == pytest.approx(2.0 * 2.0 * np.pi * 0.3, rel=1e-2)


def test_vertices_sit_on_level():
    # every vertex lies on a grid edge where the bilinear interpolant is
    # linear, so it must evaluate back to the contour level exactly
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: 0.45 - np.hypot(x + 0.1, y - 0.2))
    for level in (0.0, 0.1, -0.15):
        c = extract_contour(u, level)
        pts = c.vertex_array()
        assert len(pts) > 0
        vals = interpolate(u, pts)
        assert np.max(np.abs(vals - level)) < 1e-9


def test_perimeter_refinement_order():
    # polygonal chords under-shoot a circle at O(h^2); two successive
    # refinements should each show order at least 1.5
    errs = []
    for n in (101, 201, 401):
        spec = GridSpec(n, 1.5)
        p = extract_contour(_disc(spec, 0.7), 0.0).perimeter()
        errs.append(abs(p - 2.0 * np.pi * 0.7))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.5


def test_contour_round_trip(tmp_path):
    spec = GridSpec(101, 1.0)
    u = field_from_function(
        spec,
        lambda x, y: np.maximum(0.25 - np.hypot(x - 0.4, y), 0.25 - np.hypot(x + 0.4, y)),
    )
    c = extract_contour(u, 0.0)
    path = tmp_path / "contour.csv"
    dump_contour(c, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert sorted(set(rows[:, 0])) == list(range(len(c.polylines)))
    for pid, pts in enumerate(c.polylines):
        sel = rows[rows[:, 0] == pid]
        assert np.array_equal(sel[:, 1], np.arange(len(pts)))
        assert np.array_equal(sel[:, 2:4], pts)
