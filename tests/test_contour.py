"""Marching-squares contour extraction and its CSV round trip."""

import numpy as np
import pytest

from frontlab.contour import FrontContour, dump_contour, extract_contour
from frontlab.grid import GridSpec, ScalarField, _classify, batches, constant_field
from frontlab.grid import field_from_function, interpolate, stack_fields


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


def _reference_dump(contour):
    """The CSV as first written: one f-string per vertex of a numpy row."""
    lines = ["polyline_id,vertex_index,x,y"]
    for pid, pts in enumerate(contour.polylines):
        for vid, (x, y) in enumerate(pts):
            lines.append(f"{pid},{vid},{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def test_dump_contour_matches_per_vertex_writer(tmp_path):
    # extracted open chains (a slab cut by the domain edge) and loops (two
    # discs), then hand-made lines with signed zeros, tiny magnitudes,
    # inexact decimals, negatives and a single vertex
    spec = GridSpec(101, 1.0)
    u = field_from_function(spec, lambda x, y: np.maximum.reduce([
        0.25 - np.hypot(x - 0.4, y), 0.25 - np.hypot(x + 0.4, y), 0.1 - np.abs(y - 0.7)]))
    extracted = extract_contour(u, 0.0)
    assert sorted(extracted.closed) == [False, False, True, True]
    rng = np.random.default_rng(7)
    hand = FrontContour(level=0.0, polylines=[
        np.array([[-0.0, 1e-300], [0.1, -0.1], [-1e-300, -0.0], [-1.5, 2.0 / 3.0]]),
        rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-20, 20, size=(40, 1)),
        np.array([[0.1 + 0.2, -0.3]]),
    ], closed=[False, True, False])
    for contour in (extracted, hand, FrontContour(level=0.0)):
        path = tmp_path / "contour.csv"
        dump_contour(contour, path)
        assert path.read_bytes() == _reference_dump(contour).encode()


# ---------------------------------------------------------------------------
# the vectorised extraction, bit for bit against the cell-by-cell walker
# ---------------------------------------------------------------------------


def _reference_cases(u, level):
    v = u.values - level
    la, lb, lc, ld = v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1]
    case = ((la >= 0.0).astype(np.int8) + 2 * (lb >= 0.0).astype(np.int8)
            + 4 * (lc >= 0.0).astype(np.int8) + 8 * (ld >= 0.0).astype(np.int8))
    return case, (la + lb + lc + ld) >= 0.0


_REFERENCE_SEGMENTS = {
    0: (), 15: (),
    1: (("W", "S"),), 14: (("W", "S"),),
    2: (("S", "E"),), 13: (("S", "E"),),
    4: (("E", "N"),), 11: (("E", "N"),),
    8: (("N", "W"),), 7: (("N", "W"),),
    3: (("W", "E"),), 12: (("W", "E"),),
    6: (("S", "N"),), 9: (("S", "N"),),
}


def _reference_segments(case, centre_in):
    if case == 5:
        return [("S", "E"), ("N", "W")] if centre_in else [("W", "S"), ("E", "N")]
    if case == 10:
        return [("W", "S"), ("E", "N")] if centre_in else [("S", "E"), ("N", "W")]
    return _REFERENCE_SEGMENTS[case]


def _reference_extract_contour(u, level):
    """The cell-by-cell walker: (polylines, closed)."""
    spec = u.spec
    h = spec.h
    ax = spec.axis()
    v = u.values - level
    case, centre_in = _reference_cases(u, level)
    cells = np.nonzero((case != 0) & (case != 15))
    active = zip(cells[0].tolist(), cells[1].tolist(), case[cells].tolist(),
                 centre_in[cells].tolist())

    def edge_key(iy, ix, side):
        if side == "S":
            return ("h", iy, ix)
        if side == "N":
            return ("h", iy + 1, ix)
        if side == "W":
            return ("v", iy, ix)
        return ("v", iy, ix + 1)

    def vertex(key):
        kind, iy, ix = key
        if kind == "h":
            u0 = v[iy, ix]
            u1 = v[iy, ix + 1]
            t = u0 / (u0 - u1)
            return (ax[ix] + t * h, ax[iy])
        u0 = v[iy, ix]
        u1 = v[iy + 1, ix]
        t = u0 / (u0 - u1)
        return (ax[ix], ax[iy] + t * h)

    links = {}
    for iy, ix, cell_case, cell_centre_in in active:
        for sa, sb in _reference_segments(cell_case, cell_centre_in):
            ka, kb = edge_key(iy, ix, sa), edge_key(iy, ix, sb)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)

    polylines, closed, visited = [], [], set()

    def walk(start, first):
        chain = [start, first]
        visited.add(start)
        visited.add(first)
        prev, node = start, first
        while True:
            nexts = [k for k in links[node] if k != prev]
            nexts = [k for k in nexts if k not in visited or k == start]
            if not nexts:
                return chain, False
            nxt = nexts[0]
            if nxt == start:
                return chain, True
            chain.append(nxt)
            visited.add(nxt)
            prev, node = node, nxt

    # open chains first (their endpoints have degree 1)
    endpoints = sorted(k for k, nb in links.items() if len(nb) == 1)
    for key in endpoints:
        if key in visited:
            continue
        chain, _ = walk(key, links[key][0])
        polylines.append(np.array([vertex(k) for k in chain]))
        closed.append(False)

    for key in sorted(links):
        if key in visited:
            continue
        chain, is_loop = walk(key, links[key][0])
        polylines.append(np.array([vertex(k) for k in chain]))
        closed.append(is_loop)
    return polylines, closed


def _same_polylines(contour, reference):
    polylines, closed = reference
    return contour.closed == closed and len(contour.polylines) == len(polylines) and all(
        a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(contour.polylines, polylines)
    )


def _reference_fields(spec):
    """(values, levels) of fields that meet every kind of cell and chain."""
    n = spec.n
    rng = np.random.default_rng(n)
    xx, yy = spec.meshgrid()
    radius = np.hypot(xx, yy)
    checker = np.where(np.add.outer(np.arange(n), np.arange(n)) % 2 == 0, 1.0, -1.0)
    bumps = sum(
        rng.uniform(0.5, 1.0) * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 0.08)
        for cx, cy in rng.uniform(-1.6, 1.6, (12, 2))
    )
    return [
        (1.0 - radius / 0.5, (0.0, 0.3, -0.4)),                    # one loop
        (0.6 - np.hypot(xx - 1.2, yy + 0.3), (0.0, 0.2)),          # cut by the boundary
        (np.abs(xx) - 0.3, (0.0, -0.1)),                           # open chains, node columns at 0
        (np.cos(7.0 * xx) * np.cos(7.0 * yy), (0.0, 0.3, -0.5)),   # loops and open chains
        (bumps, (0.2, 0.5, 0.8)),                                  # several components
        (rng.uniform(-1.0, 1.0, (n, n)), (0.0, 0.5)),              # noise, every kind of cell
        (checker * rng.uniform(0.1, 1.0, (n, n)), (0.0,)),         # saddles, both centres
        (np.round(rng.uniform(-2.0, 2.0, (n, n))), (0.0, 1.0)),    # nodes at the level
        ((radius <= 0.6).astype(np.float64), (0.5,)),              # an indicator
        (np.full((n, n), -1.0), (0.0,)),                           # empty
        (np.full((n, n), 1.0), (0.0,)),                            # full
    ]


@pytest.mark.parametrize("n", [33, 65, 201])
def test_extract_contour_matches_reference_bitwise(n):
    spec = GridSpec(n, 1.5)
    saddles, kinds = set(), set()
    for values, levels in _reference_fields(spec):
        u = ScalarField(spec, values)
        # each level alone, and all of a field's levels in one stacked call
        for level, stacked in zip(levels, extract_contour(u, list(levels))):
            case, centre_in = _reference_cases(u, level)
            for code in (5, 10):
                saddles.update((code, bool(c)) for c in np.unique(centre_in[case == code]))
            reference = _reference_extract_contour(u, level)
            kinds.update(reference[1])
            assert _same_polylines(extract_contour(u, level), reference), (values[0, :3], level)
            assert _same_polylines(stacked, reference), (values[0, :3], level)
    assert saddles == {(5, False), (5, True), (10, False), (10, True)}
    assert kinds == {False, True}


@pytest.mark.parametrize("n", [33, 65, 201])
def test_one_call_over_many_fields_equals_each_field_alone(n):
    # a trajectory's call: every field with its own levels, the empty and
    # the full field among them, chained in one pass
    spec = GridSpec(n, 1.5)
    cases = _reference_fields(spec)
    fields = [ScalarField(spec, values) for values, _ in cases]
    together = extract_contour(fields, [levels for _, levels in cases])
    assert len(together) == len(fields)
    for u, (_, levels), contours in zip(fields, cases, together):
        alone = extract_contour(u, list(levels))
        assert [c.level for c in contours] == [c.level for c in alone] == list(levels)
        for got, want in zip(contours, alone):
            assert _same_polylines(got, (want.polylines, want.closed)), (got.level, u.values[0, :3])
    assert sum(len(c.polylines) for cs in together for c in cs) > len(fields)


def _trajectory_fields(spec):
    """(fields, levels) of a 13-snapshot trajectory read as a context reads
    it: three levels up to t_bar (the first seven), one after; the empty
    field among the first seven and the full one among the rest."""
    cases = _reference_fields(spec)
    values = [v for v, _ in cases[:9]] + [1.0 - spec.radius() / r for r in (0.7, 0.4)]
    values.insert(2, cases[9][0])    # empty
    values.append(cases[10][0])      # full
    fields = [ScalarField(spec, v) for v in values]
    levels = [(-0.05, 0.0, 0.05) if k < 7 else (0.0,) for k in range(len(fields))]
    return fields, levels


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
def test_batched_classification_and_extraction_equal_one_field_at_a_time(n):
    spec = GridSpec(n, 1.5)
    fields, levels = _trajectory_fields(spec)
    assert len(fields) == 13
    # each batch classified in one call, every plane equal to its field's
    # own classification
    for span in batches(len(fields), n):
        counts = [len(levels[k]) for k in span]
        case, (plane, iy, ix), corners, centre_in = _classify(
            stack_fields(fields[span.start:span.stop]),
            np.concatenate([levels[k] for k in span]), counts)
        first = 0
        for k, count in zip(span, counts):
            own_case, (own_plane, own_iy, own_ix), own_corners, own_centre = _classify(
                fields[k], np.array(levels[k]))
            at = (plane >= first) & (plane < first + count)
            assert np.array_equal(case[first:first + count], own_case), (k, span)
            assert np.array_equal(plane[at] - first, own_plane), (k, span)
            assert np.array_equal(iy[at], own_iy) and np.array_equal(ix[at], own_ix), (k, span)
            assert np.array_equal(corners[:, at].view(np.uint64), own_corners.view(np.uint64))
            assert np.array_equal(centre_in[at], own_centre), (k, span)
            first += count
    # the polylines and closed flags of one call over the trajectory equal
    # each field's alone
    together = extract_contour(fields, levels)
    for u, own_levels, contours in zip(fields, levels, together):
        alone = extract_contour(u, list(own_levels))
        assert [c.level for c in contours] == list(own_levels)
        for got, want in zip(contours, alone):
            assert _same_polylines(got, (want.polylines, want.closed)), (got.level, n)
    assert together[2][1].polylines == [] and together[12][0].polylines == []
    assert sum(len(c.polylines) for cs in together for c in cs) > len(fields)
