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

from .grid import ScalarField, _classify, batches, stack_fields


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


# The crossing segments of a cell for case + 16 * centre_in, as (from, to)
# sides of the cell, S, E, N, W = 0..3, oriented with {u >= level} on the
# left, so that each crossing edge starts at most one segment and ends at
# most one; -1 pads cells with a single segment.
_SEGMENTS = np.full((32, 2, 2), -1)
_ONE_SEGMENT = np.array([  # case, from, to
    (1, 0, 3), (2, 1, 0), (3, 1, 3), (4, 2, 1), (6, 2, 0), (7, 2, 3),
    (8, 3, 2), (9, 0, 2), (11, 1, 2), (12, 3, 1), (13, 0, 1), (14, 3, 0),
])
_SEGMENTS[_ONE_SEGMENT[:, 0], 0] = _SEGMENTS[_ONE_SEGMENT[:, 0] + 16, 0] = _ONE_SEGMENT[:, 1:]
# saddles, centre below the level (5, 10) and at or above it (5 + 16, 10 + 16)
_SEGMENTS[[5, 10, 21, 26]] = ((0, 3), (2, 1)), ((1, 0), (3, 2)), ((0, 1), (2, 3)), ((3, 0), (1, 2))


def extract_contour(u, levels=0.0):
    """Marching-squares polylines of {u = level}: a FrontContour for one
    level, a list of them for a 1-D array of levels.  u may also be a
    sequence of fields on one grid, the snapshots of a trajectory, with
    levels a sequence of 1-D level arrays, one per field; the result is then
    a list, per field, of lists of FrontContour.  Every call chains the
    segments of all its fields and levels in one pass.

    Returns closed loops for interior fronts and open chains where a line
    meets the domain boundary.  "Inside" is u >= level, matching
    `lebesgue_measure`.  Open chains come first, each from its smaller end,
    then loops, each from its smallest crossing edge toward the neighbour
    through the cell that comes first row by row; chains are ordered by
    their first edge.  Edges are ordered horizontal before vertical, then
    by the row and column of their south-west node, the order of the
    integer edge ids below.
    """
    if isinstance(u, ScalarField):
        levels = np.asarray(levels, dtype=np.float64)
        [contours] = _extract([u], [levels.reshape(-1)])
        return contours if levels.ndim else contours[0]
    return _extract(list(u), [np.asarray(stack, dtype=np.float64).reshape(-1) for stack in levels])


def _extract(fields: list, stacks: list) -> list:
    """extract_contour of each field at each level of its stack, one list
    of FrontContour per field.  The fields are stacked in `grid.batches`,
    `grid._classify` runs once per batch on every (field, level) pair of
    it, a plane, and the segments of every plane are chained in one pass."""
    spec = fields[0].spec
    n, h = spec.n, spec.h
    contours = [[FrontContour(level=level) for level in stack.tolist()] for stack in stacks]
    sizes = [stack.size for stack in stacks]
    planes = np.cumsum([0] + sizes)
    owner = np.repeat(np.arange(len(fields)), sizes)    # the field of each plane
    groups = [(span, stack_fields(fields[span.start:span.stop])) for span in batches(len(fields), n)]

    # crossing edges as ids: in plane p, the planes numbered field by field
    # and level by level, the horizontal edge east of node k is 2 p n^2 + k
    # and the vertical edge north of it 2 p n^2 + n^2 + k
    ends = [np.zeros((0, 2), dtype=np.int64)]
    for span, stack in groups:
        base, top = planes[span.start], planes[span.stop]
        if base == top:
            continue
        case, (lv, iy, ix), _, centre_in = _classify(
            stack, np.concatenate(stacks[span.start:span.stop]), sizes[span.start:span.stop])
        segs = _SEGMENTS[case[lv, iy, ix] + 16 * centre_in]
        ids = (2 * n * n * (base + lv) + iy * n + ix)[:, None, None]
        ends.append((ids + np.array([0, n * n + 1, n, n * n])[segs])[segs[:, :, 0] >= 0])
    ends = np.concatenate(ends).T.reshape(-1)    # every segment's from, then every to
    count = ends.size // 2
    if count == 0:
        return contours
    edges = np.unique(ends)
    m = edges.size
    tail, head = np.searchsorted(edges, ends).reshape(2, count)
    # adjacency: the segment leaving and the segment entering each edge,
    # `count` where there is none
    seg_out = np.full(m, count)
    seg_out[tail] = np.arange(count)
    seg_in = np.full(m, count)
    seg_in[head] = np.arange(count)

    # pointer doubling back along the segments, the first edge of an open
    # chain pointing at itself: key ends up holding the lowest-ranked edge
    # behind each edge (high bits) and how many steps back it lies (low
    # bits), where first edges of open chains rank below all others
    back = np.arange(m)
    back[head] = tail
    key = (np.arange(m) + m * (seg_in < count)) << 32
    step = 1
    while step < m:
        np.minimum(key, key[back] + step, out=key)
        back = back[back]
        step *= 2
    low, behind = key >> 32, key & 0xFFFFFFFF

    is_open = low < m
    first = low - m * ~is_open
    last = np.zeros(m, dtype=np.int64)      # of each open chain, by its first edge
    lasts = np.flatnonzero(seg_out == count)
    last[first[lasts]] = lasts
    start = np.where(is_open, np.minimum(first, last[first]), first)
    # a chain runs along the segments when its start's first segment leaves it
    along = (seg_out < seg_in)[start]
    size = np.bincount(low, minlength=2 * m)[low]
    pos = np.where(along, behind, np.where(is_open, size - 1 - behind, (size - behind) % size))
    plane, edges = np.divmod(edges, 2 * n * n)
    order = np.lexsort((pos, start + m * ~is_open + 2 * m * plane))

    # every vertex at its crossing ax[ix] + t h along its edge, from the
    # values of its own field: the edges are sorted by id, so each batch's
    # come in one run
    vertical = edges >= n * n
    node = edges - n * n * vertical
    ey, ex = np.divmod(node, n)
    v0, v1 = np.empty(m), np.empty(m)
    at = node + n * n * owner[plane]
    for span, stack in groups:
        lo, hi = np.searchsorted(plane, planes[[span.start, span.stop]]).tolist()
        flat = stack.values.reshape(-1)
        k = at[lo:hi] - n * n * span.start
        v0[lo:hi] = flat[k]
        v1[lo:hi] = flat[k + np.where(vertical[lo:hi], n, 1)]
    level = np.concatenate(stacks)[plane]
    v0 -= level
    t = v0 / (v0 - (v1 - level))
    ax = spec.axis()
    xy = np.stack([
        np.where(vertical, ax[ex], ax[ex] + t * h),
        np.where(vertical, ax[ey] + t * h, ax[ey]),
    ], axis=1)[order]

    flat_contours = [contour for field_contours in contours for contour in field_contours]
    firsts = np.flatnonzero(np.diff(start[order], prepend=-1))
    for p, pts, closed in zip(plane[order][firsts].tolist(), np.split(xy, firsts[1:]),
                              (~is_open[order][firsts]).tolist()):
        flat_contours[p].polylines.append(pts)
        flat_contours[p].closed.append(closed)
    return contours


def dump_contour(contour: FrontContour, path):
    """CSV with columns polyline_id, vertex_index, x, y."""
    lines = ["polyline_id,vertex_index,x,y"]
    for pid, pts in enumerate(contour.polylines):
        xs, ys = pts.T.tolist()
        lines.extend(map(f"{pid},%d,%.17g,%.17g".__mod__, zip(range(len(xs)), xs, ys)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

