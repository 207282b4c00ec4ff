"""Uniform square grids, scalar fields and the discrete geometric operators.

The domain is the square [-L, L]^2 sampled on an n x n lattice with n odd, so
the origin is a node and spacing is h = 2L/(n-1).  Fields are stored y-major:
``values[iy, ix]`` is the sample at (x_ix, y_iy).

Operators provided here:

* ``upwind_gradient_norm`` -- Godunov/Osher-Sethian |Du| for u_t = c|Du|,
  one-sided differences selected nodewise by sign(c).
* ``curvature_term``      -- the trace form tr((I - p^ ox p^) D^2 u), i.e.
  |Du| div(Du/|Du|), in the Evans-Spruck regularisation by h^2.
* ``lebesgue_measure``    -- areas of the superlevel sets of a stack of
  levels from marching-squares cell polygons (saddles resolved by the
  cell-centre average), every level classified in one pass; only the cells
  a level cuts are interpolated.
* ``interpolate``         -- bilinear point evaluation of a scalar or vector
  field, -1 outside the domain.
* ``trapezoid``           -- the trapezoidal rule over a time grid.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import FieldFormatError, GridMismatchError

# Additive guard for degenerate CFL denominators.
EPS_DENOM = 1e-12

# numpy 2.0 renamed trapz to trapezoid and numpy 2.4 dropped the old name;
# the old name is looked up only on numpy < 2.0, where the new one is missing.
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


@dataclass(frozen=True)
class GridSpec:
    """Square grid on [-L, L]^2 with an odd number of nodes per side."""

    n: int
    half_extent: float

    def __post_init__(self):
        if self.n % 2 == 0 or self.n < 33:
            raise ValueError(f"grid size must be odd and >= 33, got n={self.n}")
        if not (self.half_extent > 0):
            raise ValueError(f"half extent must be positive, got {self.half_extent}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_extent / (self.n - 1)

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis, axis[(n-1)//2] == 0."""
        return np.linspace(-self.half_extent, self.half_extent, self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinate arrays, shape (n, n), y-major."""
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="xy")

    def radius(self) -> np.ndarray:
        """|x| at every node."""
        x, y = self.meshgrid()
        return np.hypot(x, y)


@dataclass
class ScalarField:
    """A scalar sample on a GridSpec; values[iy, ix] = u(x_ix, y_iy)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.spec.n, self.spec.n):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match n={self.spec.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.spec, self.values.copy())

    def check_same_grid(self, other: "ScalarField"):
        if self.spec != other.spec:
            raise GridMismatchError(f"grids differ: {self.spec} vs {other.spec}")


def field_from_function(spec: GridSpec, fn) -> ScalarField:
    """Sample fn(x, y) (vectorised) on the grid."""
    x, y = spec.meshgrid()
    return ScalarField(spec, np.asarray(fn(x, y), dtype=np.float64))


def constant_field(spec: GridSpec, value: float) -> ScalarField:
    return ScalarField(spec, np.full((spec.n, spec.n), float(value)))


# ---------------------------------------------------------------------------
# file format: one ASCII line "n L\n" (L as %.17g), then the n x n values as
# raw little-endian float64 bytes, row iy after row iy-1.  The bytes are
# written here rather than by np.save so that they never follow numpy's own
# header format.


def dump_field(field: ScalarField, path):
    """Write the binary dump; `load_field` reads back the same bits."""
    header = f"{field.spec.n} {field.spec.half_extent:.17g}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)


def load_field(path) -> ScalarField:
    """Read a `dump_field` file; FieldFormatError names the path and the fault."""
    with open(path, "rb") as fh:
        # a writable buffer, so the loaded values are writable like computed ones
        data = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(data)
    end = data.find(b"\n")
    head = bytes(data[:end] if end >= 0 else data[:40])
    try:
        n_text, l_text = head.decode("ascii").split()
        spec = GridSpec(int(n_text), float(l_text))
    except ValueError:
        raise FieldFormatError(f"{path}: malformed header {head[:40]!r}, expected 'n L'") from None
    size = len(data) - end - 1
    if size != 8 * spec.n**2:
        raise FieldFormatError(
            f"{path}: {size} bytes of values, expected 8 x {spec.n}^2 = {8 * spec.n**2}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=end + 1).reshape(spec.n, spec.n)
    try:
        return ScalarField(spec, values)
    except ValueError as err:
        raise FieldFormatError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# metadata format: one "key = value" line per entry, a number as %.17g, then
# "# note" lines.  Every metadata file of a run directory (init_meta.txt,
# run_meta.txt, traj/meta.txt, reports/*.verdict, probe.verdict) is written
# by `meta_text` and read by `load_meta`.


def meta_text(entries: dict, notes) -> str:
    """The text of entries in their order, a str value as it is and any other
    as %.17g, then one '# note' line per note."""
    lines = [f"{k} = {v if isinstance(v, str) else format(v, '.17g')}" for k, v in entries.items()]
    return "\n".join(lines + [f"# {note}" for note in notes]) + "\n"


def load_meta(path, required, texts) -> tuple[dict, list]:
    """Read a `meta_text` file into ({key: value}, notes), each value a float
    unless its key is in texts.  FieldFormatError names the path and the
    fault: bytes that are no text, a line without '=', a value that is no
    number, or a key of required without a line."""
    try:
        with open(path) as fh:
            lines = [raw.strip() for raw in fh]
    except UnicodeDecodeError as err:
        raise FieldFormatError(f"{path}: {err}") from None
    values = {}
    for line in (line for line in lines if line and not line.startswith("#")):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise FieldFormatError(f"{path}: {line!r} is not a 'key = value' line")
        try:
            values[key] = value if key in texts else float(value)
        except ValueError:
            raise FieldFormatError(f"{path}: {key} = {value} is not a number") from None
    for key in required:
        if key not in values:
            raise FieldFormatError(f"{path}: no {key} line")
    return values, [line[1:].strip() for line in lines if line.startswith("#")]


# ---------------------------------------------------------------------------
# one-sided and central differences
#
# Each stencil writes into the arrays of a Workspace and takes the
# floating-point operations of its formula in the order the formula states
# them, so it gives the same bits as the formula evaluated on fresh arrays
# (tests/test_grid.py compares them).


class Workspace:
    """Work arrays for one grid, overwritten by every call they are handed to.

    `scratch` holds the five n x n arrays the stencils below write into and
    `mask` the upwind selection by sign(c); `fields` are the two arrays that
    `solver.advance` writes successive steps into, in turn.  A stencil
    called without a workspace allocates one, so its result is a new array.
    """

    def __init__(self, spec: GridSpec):
        shape = (spec.n, spec.n)
        self.scratch = tuple(np.empty(shape) for _ in range(5))
        self.mask = np.empty(shape, dtype=bool)
        self.fields = (np.empty(shape), np.empty(shape))


def _at(axis: int, index) -> tuple:
    """Index selecting `index` along `axis` of a 2-D array."""
    return (slice(None),) * axis + (index,)


def _flat(a: np.ndarray, axis: int) -> tuple[np.ndarray, int]:
    """a as one contiguous line, and the distance along it of one node along axis.

    Shifting the line by that distance pairs each node with its neighbour
    along axis, as a[1:] and a[:-1] along axis do, so a stencil runs as
    contiguous 1-D operations, which numpy does without the buffers it
    allocates for strided 2-D ones.  For axis 1 the pairs that wrap from
    one row into the next land on the boundary columns, which every
    stencil below then overwrites.
    """
    return a.reshape(-1), a.shape[1] if axis == 0 else 1


def _one_sided_differences(values: np.ndarray, h: float, axis: int, bwd, fwd):
    """(backward, forward) first differences into bwd and fwd; second-order
    one-sided rows at the two boundary lines so affine and quadratic data
    stay exact there."""
    flat, s = _flat(values, axis)
    d = fwd.reshape(-1)[:-s]
    np.subtract(flat[s:], flat[:-s], out=d)
    d /= h
    bwd.reshape(-1)[s:] = d

    def line(i):
        return values[_at(axis, i)]

    # quadratic extrapolation of the missing one-sided difference
    fwd[_at(axis, -1)] = (3.0 * line(-1) - 4.0 * line(-2) + line(-3)) / (2.0 * h)
    bwd[_at(axis, 0)] = (-3.0 * line(0) + 4.0 * line(1) - line(2)) / (2.0 * h)


def _squared_clip(d: np.ndarray, clip, out: np.ndarray) -> np.ndarray:
    """clip(d, 0)^2 written into out."""
    return np.square(clip(d, 0.0, out=out), out=out)


def upwind_gradient_norm(
    u: ScalarField, speed: ScalarField | np.ndarray | float, work: Workspace = None,
) -> np.ndarray:
    """Godunov upwind |Du| for the Hamiltonian -c|p|, selected by sign(c).

    For c >= 0 the monotone combination per axis is max(D+,0)^2 + min(D-,0)^2;
    for c < 0 the two clips swap.  Exact for affine u (the second-order
    boundary stencils keep the outermost ring exact as well).  The result
    is a scratch array of `work`; the sum for a sign c never has is skipped.
    """
    h = u.spec.h
    if isinstance(speed, ScalarField):
        u.check_same_grid(speed)
        c = speed.values
    else:
        c = np.broadcast_to(np.asarray(speed, dtype=np.float64), u.values.shape)
    work = work or Workspace(u.spec)
    bwd, fwd, tmp, pos, neg = work.scratch

    # (sum, its max-clipped difference, its min-clipped difference); each sum
    # adds its four squares in the order x max, x min, y max, y min
    sums = []
    if c.max() >= 0.0:
        sums.append((pos, fwd, bwd))
    if not c.min() >= 0.0:  # c < 0 somewhere, or nan, which also selects neg
        sums.append((neg, bwd, fwd))
    for axis in (1, 0):
        _one_sided_differences(u.values, h, axis, bwd, fwd)
        for total, up, down in sums:
            if axis == 1:
                _squared_clip(up, np.maximum, total)
            else:
                total += _squared_clip(up, np.maximum, tmp)
            total += _squared_clip(down, np.minimum, tmp)
    if len(sums) == 2:
        np.greater_equal(c, 0.0, out=work.mask)
        np.copyto(neg, pos, where=work.mask)
    root = sums[-1][0]
    return np.sqrt(root, out=root)


def _central_difference(v: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """np.gradient(v, h, axis=axis, edge_order=2) written into out: central
    in the interior, second-order one-sided on the two boundary lines."""
    flat, s = _flat(v, axis)
    inner = out.reshape(-1)[s:-s]
    np.subtract(flat[2 * s:], flat[:-2 * s], out=inner)
    inner /= 2.0 * h

    def line(i):
        return v[_at(axis, i)]

    out[_at(axis, 0)] = (-1.5 / h) * line(0) + (2.0 / h) * line(1) + (-0.5 / h) * line(2)
    out[_at(axis, -1)] = (0.5 / h) * line(-3) + (-2.0 / h) * line(-2) + (1.5 / h) * line(-1)
    return out


def _unscaled_difference(v: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """v[i+1] - v[i-1] along axis into out, and on the two boundary lines
    -3 v[0] + 4 v[1] - v[2] and v[-3] - 4 v[-2] + 3 v[-1]: the stencil of
    `_central_difference` times 2h, without h."""
    flat, s = _flat(v, axis)
    np.subtract(flat[2 * s:], flat[:-2 * s], out=out.reshape(-1)[s:-s])

    def line(i):
        return v[_at(axis, i)]

    out[_at(axis, 0)] = -3.0 * line(0) + 4.0 * line(1) - line(2)
    out[_at(axis, -1)] = line(-3) - 4.0 * line(-2) + 3.0 * line(-1)
    return out


def _unscaled_second_difference(
    v: np.ndarray, twice: np.ndarray, axis: int, out: np.ndarray,
) -> np.ndarray:
    """(v[i+1] + v[i-1]) - twice[i] along axis into out, twice = v + v, the
    boundary lines copied from their neighbours: the second difference
    times h^2, without h."""
    flat, s = _flat(v, axis)
    inner = out.reshape(-1)[s:-s]
    np.add(flat[2 * s:], flat[:-2 * s], out=inner)
    inner -= twice.reshape(-1)[s:-s]
    out[_at(axis, 0)] = out[_at(axis, 1)]
    out[_at(axis, -1)] = out[_at(axis, -2)]
    return out


def central_gradients(u: ScalarField, work: Workspace = None) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, u_y) by central differences, second-order one-sided at edges,
    in the first two scratch arrays of `work`, or in two new arrays."""
    shape = u.values.shape
    ux, uy = work.scratch[:2] if work else (np.empty(shape), np.empty(shape))
    h = u.spec.h
    return _central_difference(u.values, h, 1, ux), _central_difference(u.values, h, 0, uy)


def central_gradient_norm(u: ScalarField, work: Workspace = None) -> np.ndarray:
    """|Du| by central differences, in the first scratch array of `work`,
    or in a new array."""
    ux, uy = central_gradients(u, work)
    return np.hypot(ux, uy, out=ux)


def curvature_term(u: ScalarField, work: Workspace = None) -> np.ndarray:
    """tr((I - p^ ox p^) D^2 u) in the Evans-Spruck regularisation eps = h.

    This is |Du| times mean curvature of the level line; it vanishes
    identically on affine data.  The regularisation adds h^2 to |Du|^2 in
    the denominator and to each squared cross derivative in the numerator,
    so the term tends to the Laplacian where |Du| << h (a cone tip or a
    flat top moves) and to the level-set curvature term where |Du| >> h
    (Evans & Spruck, J. Differential Geom. 33, 1991).  The regularisation
    vanishes under refinement.  The result is a scratch array of `work`.

    The central-difference form

        (uxx (uy^2 + h^2) - 2 ux uy uxy + uyy (ux^2 + h^2)) / (ux^2 + uy^2 + h^2)

    is evaluated on differences without h: Dx = 2h ux and Dy = 2h uy
    (`_unscaled_difference`), Dxy = 4h^2 uxy, the y difference of Dx, and
    Sxx = h^2 uxx, Syy = h^2 uyy (`_unscaled_second_difference`).  With
    r = 4h^4 the quotient is

        (Sxx (Dy^2 + r) - Dxy Dx Dy 0.5 + Syy (Dx^2 + r)) / (Dx^2 + (Dy^2 + r)) (1/h^2)

    with one division of fields, every product and sum in that order.
    `config.parse_config` refuses a grid whose 4h^4 underflows; where it
    overflows (h above about 1.5e77) the quotient is 0.
    """
    h = u.spec.h
    v = u.values
    work = work or Workspace(u.spec)
    dx, dy, p, twice, num = work.scratch
    r = 4.0 * (h * h) * (h * h)

    _unscaled_difference(v, 1, dx)
    _unscaled_difference(v, 0, dy)
    _unscaled_difference(dx, 0, p)
    p *= dx
    p *= dy
    p *= 0.5                    # p = Dxy Dx Dy / 2
    np.add(v, v, out=twice)
    _unscaled_second_difference(v, twice, 1, num)
    np.square(dy, out=dy)
    dy += r                     # dy = Dy^2 + r
    num *= dy
    num -= p                    # num = Sxx (Dy^2 + r) - p
    _unscaled_second_difference(v, twice, 0, p)
    np.square(dx, out=dx)
    np.add(dx, r, out=twice)
    p *= twice
    num += p                    # num += Syy (Dx^2 + r)
    dx += dy                    # dx = Dx^2 + (Dy^2 + r)
    num /= dx
    num *= 1.0 / (h * h)
    return num


# ---------------------------------------------------------------------------
# marching-squares areas
#
# A cell's case code sets bit 0, 1, 2, 3 when its SW, SE, NE, NW corner is at
# or above the level.  Only the cells the level cuts (case neither 0 nor 15)
# need edge crossings; along a front they are O(n) of the (n-1)^2 cells.
# _classify and cell_coverage take a 1-D array of levels and classify all of
# them in one pass; one level is a stack of one.


def _classify(u: ScalarField, levels: np.ndarray):
    """Marching-squares classification of the cells of u against each level.

    Returns (case, cells, corners, centre_in): the case code of every cell,
    shape (levels, n-1, n-1); the (level, iy, ix) indices of the cells a
    level cuts, level by level and row by row as np.nonzero gives them; the
    corner values minus the cell's level at those cells, rows SW, SE, NE,
    NW; and whether each cut cell's corner average is at or above its
    level, the rule that resolves the two saddle cases 5 and 10.  Nodes are
    compared with the level directly: for finite doubles u - level >= 0
    exactly when u >= level.
    """
    n = u.spec.n
    levels = np.asarray(levels, dtype=np.float64)
    inside = (u.values >= levels[:, None, None]).view(np.uint8).reshape(len(levels), -1)
    # the case of the cell whose SW corner is node k goes to code[:, k], the
    # corner bits added by Horner's rule on shifted lines; the nodes of the
    # last column pair with the next row and are cleared
    case = np.empty((len(levels), (n - 1) * n), dtype=np.uint8)
    code = case[:, :-1]
    np.multiply(inside[:, n:-1], 2, out=code)   # NW
    code += inside[:, n + 1:]                    # NE
    code *= 2
    code += inside[:, 1:-n]                      # SE
    code *= 2
    code += inside[:, :-n - 1]                   # SW
    case = case.reshape(len(levels), n - 1, n)
    case[:, :, -1] = 0
    level, sw = np.divmod(np.flatnonzero((case != 0) & (case != 15)), (n - 1) * n)
    corners = np.take(u.values, sw + np.array([[0], [1], [n + 1], [n]]))
    corners -= levels[level]
    la, lb, lc, ld = corners
    centre_in = (la + lb + lc + ld) >= 0.0
    return case[:, :, :-1], (level, *np.divmod(sw, n)), corners, centre_in


def _crossing(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Linear crossing position from corner a toward corner b, clipped to the
    cell edge.  Only consumed where the two corners straddle the level."""
    denom = la - lb
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.clip(la / safe, 0.0, 1.0)


# The row of cell_coverage's area list for case + 16 * centre_in: case - 1,
# except for the saddles 5 and 10 with their centre at or above the level.
_AREA_ROW = np.tile(np.arange(-1, 15), 2)
_AREA_ROW[[16 + 5, 16 + 10]] = 14, 15


def cell_coverage(u: ScalarField, levels) -> np.ndarray:
    """Fraction of each grid cell covered by {u >= level}, for each level of
    the 1-D array levels; shape (levels, n-1, n-1).

    Marching-squares polygons with edge crossings placed by linear
    interpolation; the two ambiguous (saddle) cases are resolved by the sign
    of the cell-centre average.  Cells a level does not cut are 0 or 1;
    only the cut cells are interpolated.
    """
    case, cells, corners, centre_in = _classify(u, levels)

    # a, b, c, d are the SW, SE, NE, NW corners, the rows of `corners`; the
    # crossings along the south edge from a, the east edge from b, the north
    # edge from d and the west edge from a
    xs, ye, xn, yw = _crossing(corners[[0, 1, 3, 0]], corners[[1, 2, 2, 3]])

    tri_a = 0.5 * xs * yw
    tri_b = 0.5 * (1.0 - xs) * ye
    tri_c = 0.5 * (1.0 - xn) * (1.0 - ye)
    tri_d = 0.5 * xn * (1.0 - yw)

    areas = np.array([
        tri_a,                               # 1
        tri_b,                               # 2
        0.5 * (yw + ye),                     # 3
        tri_c,                               # 4
        tri_a + tri_c,                       # 5, centre below the level
        0.5 * ((1.0 - xs) + (1.0 - xn)),     # 6
        1.0 - tri_d,                         # 7
        tri_d,                               # 8
        0.5 * (xs + xn),                     # 9
        tri_b + tri_d,                       # 10, centre below the level
        1.0 - tri_c,                         # 11
        0.5 * ((1.0 - yw) + (1.0 - ye)),     # 12
        1.0 - tri_b,                         # 13
        1.0 - tri_a,                         # 14
        1.0 - tri_b - tri_d,                 # 5, centre at or above the level
        1.0 - tri_a - tri_c,                 # 10, centre at or above the level
    ])
    row = _AREA_ROW[case[cells] + 16 * centre_in]

    area = (case == 15).astype(np.float64)
    area[cells] = areas[row, np.arange(row.size)]
    return area


def lebesgue_measure(u: ScalarField, levels=0.0):
    """Area of {u >= level}, O(h^2) accurate for transversal levels: a float
    for one level, a list of floats for a 1-D array of levels.  Each level's
    coverage is summed on its own, as a contiguous (n-1)^2 array."""
    levels = np.asarray(levels, dtype=np.float64)
    h = u.spec.h
    areas = [float(h * h * area.sum()) for area in cell_coverage(u, levels.reshape(-1))]
    return areas if levels.ndim else areas[0]


# ---------------------------------------------------------------------------
# bilinear interpolation


def interpolate(u: ScalarField, points: np.ndarray) -> np.ndarray:
    """Bilinear evaluation at physical points, shape (..., 2) as (x, y).

    Points outside [-L, L]^2, and points with a NaN coordinate, evaluate to
    the far-field value -1.  Exact at grid nodes and for bilinear data.  u
    may also hold C components per node, values of shape (n, n, C) as a
    DirectionField does; the result then has the components along a new
    first axis, shape (C, ...).
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    L = u.spec.half_extent
    h = u.spec.h
    n = u.spec.n

    x = pts[..., 0]
    y = pts[..., 1]
    outside = ~(np.maximum(np.abs(x), np.abs(y)) <= L)   # NaN compares false

    # clamp so the arithmetic below stays in range; masked afterwards.
    # fmax maps NaN to -L before the integer cast.  tx starts as the
    # clamped x and becomes (x + L) / h, then its fraction
    tx = np.fmax(x, -L)
    np.fmin(tx, L, out=tx)
    tx += L
    tx /= h
    ty = np.fmax(y, -L)
    np.fmin(ty, L, out=ty)
    ty += L
    ty /= h
    ix = np.minimum(tx.astype(np.int64), n - 2)
    iy = np.minimum(ty.astype(np.int64), n - 2)
    tx -= ix
    ty -= iy
    sx = 1 - tx
    sy = 1 - ty

    # sx*sy*a + tx*sy*b + sx*ty*c + tx*ty*d summed in that order, with the
    # corners a, b, c, d gathered from the nodes as one line, node
    # k = iy n + ix, the C components per node along the first axis
    nodes = np.moveaxis(u.values.reshape(n * n, -1), 1, 0)
    k = iy
    k *= n
    k += ix
    weight = sx * sy
    val = weight * np.take(nodes, k, axis=1)
    corner = np.empty_like(val)
    for step, wx, wy in ((1, tx, sy), (n - 1, sx, ty), (1, tx, ty)):   # k + 1, k + n, k + n + 1
        k += step
        np.multiply(wx, wy, out=weight)
        np.take(nodes, k, axis=1, out=corner)
        corner *= weight
        val += corner
    if u.values.ndim == 2:
        val = val[0]
    val[..., outside] = -1.0
    return float(val[0]) if scalar else val
