"""Level-line extraction by marching squares.

Cells are scanned for sign changes of u - level; crossing vertices are placed
on cell edges by linear interpolation, so every vertex reproduces the level
exactly under bilinear evaluation.  The cells and their corner patterns come
from `grid._classify`, which `cell_coverage` uses too: the two ambiguous
patterns are resolved by the cell-centre average in both, so contours and
areas describe one consistent region.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, _classify


@dataclass
class FrontContour:
    """Polylines of one level line.

    polylines: list of (m_i, 2) float arrays of (x, y) vertices.
    closed:    per-polyline flag; closed lines do not repeat the first vertex.
    """

    level: float
    polylines: list = field(default_factory=list)
    closed: list = field(default_factory=list)

    def perimeter(self) -> float:
        total = 0.0
        for pts, is_closed in zip(self.polylines, self.closed):
            if len(pts) < 2:
                continue
            seg = np.diff(pts, axis=0)
            total += float(np.hypot(seg[:, 0], seg[:, 1]).sum())
            if is_closed:
                total += float(np.hypot(pts[0, 0] - pts[-1, 0], pts[0, 1] - pts[-1, 1]))
        return total

    def vertex_array(self) -> np.ndarray:
        """All vertices stacked, shape (m, 2); empty (0, 2) if no lines."""
        if not self.polylines:
            return np.zeros((0, 2))
        return np.vstack(self.polylines)


# edge-id pairs cut by the level line for every unambiguous corner pattern
_SEGMENTS = {
    0: (), 15: (),
    1: (("W", "S"),), 14: (("W", "S"),),
    2: (("S", "E"),), 13: (("S", "E"),),
    4: (("E", "N"),), 11: (("E", "N"),),
    8: (("N", "W"),), 7: (("N", "W"),),
    3: (("W", "E"),), 12: (("W", "E"),),
    6: (("S", "N"),), 9: (("S", "N"),),
}


def _segments_for_cell(case: int, centre_in: bool):
    """Unordered edge-id pairs ('S','E','N','W') cut by the level line."""
    if case == 5:
        return [("S", "E"), ("N", "W")] if centre_in else [("W", "S"), ("E", "N")]
    if case == 10:
        return [("W", "S"), ("E", "N")] if centre_in else [("S", "E"), ("N", "W")]
    return _SEGMENTS[case]


def extract_contour(u: ScalarField, level: float = 0.0) -> FrontContour:
    """Marching-squares polylines of {u = level}.

    Returns closed loops for interior fronts and open chains where a line
    meets the domain boundary.  "Inside" is u >= level, matching
    `lebesgue_measure`.
    """
    spec = u.spec
    h = spec.h
    ax = spec.axis()
    v = u.values - level

    case, cells, _, centre_in = _classify(u, level)
    iys, ixs = cells
    active = zip(iys.tolist(), ixs.tolist(), case[cells].tolist(), centre_in.tolist())

    def edge_key(iy, ix, side):
        # global identity of a cell edge: horizontal edges keyed by their
        # south-west node, vertical likewise
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

    # adjacency between crossing edges; each edge joins at most two segments
    links: dict = {}
    for iy, ix, cell_case, cell_centre_in in active:
        for sa, sb in _segments_for_cell(cell_case, cell_centre_in):
            ka, kb = edge_key(iy, ix, sa), edge_key(iy, ix, sb)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)

    contour = FrontContour(level=level)
    visited = set()

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
        contour.polylines.append(np.array([vertex(k) for k in chain]))
        contour.closed.append(False)

    for key in sorted(links):
        if key in visited:
            continue
        chain, is_loop = walk(key, links[key][0])
        contour.polylines.append(np.array([vertex(k) for k in chain]))
        contour.closed.append(is_loop)

    return contour


def dump_contour(contour: FrontContour, path):
    """CSV with columns polyline_id, vertex_index, x, y."""
    lines = ["polyline_id,vertex_index,x,y"]
    for pid, pts in enumerate(contour.polylines):
        for vid, (x, y) in enumerate(pts):
            lines.append(f"{pid},{vid},{x:.17g},{y:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

