"""Uniform square grids, scalar fields and the discrete geometric operators.

The domain is the square [-L, L]^2 sampled on an n x n lattice with n odd, so
the origin is a node and spacing is h = 2L/(n-1).  Fields are stored y-major:
``values[iy, ix]`` is the sample at (x_ix, y_iy).

Operators provided here:

* ``upwind_gradient_norm`` -- Godunov/Osher-Sethian |Du| for u_t = c|Du|,
  one-sided differences selected nodewise by sign(c).
* ``curvature_term``      -- the trace form tr((I - p^ ox p^) D^2 u), i.e.
  |Du| div(Du/|Du|) with the denominator regularised by h^2.
* ``lebesgue_measure``    -- area of a superlevel set from marching-squares
  cell polygons (saddles resolved by the cell-centre average).
* ``band_measure``        -- area of {a <= u < b}.
* ``interpolate``         -- bilinear point evaluation, -1 outside the domain.
* ``trapezoid``           -- the trapezoidal rule over a time grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

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
# file format: line 1 "n L", then n rows of n values, row iy on line iy+1


def dump_field(field: ScalarField, path):
    """Write the plain-text dump (round-trip exact via %.17g)."""
    lines = [f"{field.spec.n} {field.spec.half_extent:.17g}"]
    for row in field.values:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> ScalarField:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"{path}: malformed header, expected 'n L'")
        n, half_extent = int(head[0]), float(head[1])
        values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    return ScalarField(GridSpec(n, half_extent), values)


# ---------------------------------------------------------------------------
# one-sided and central differences


def _one_sided_differences(values: np.ndarray, h: float, axis: int):
    """(backward, forward) first differences; second-order one-sided rows at
    the two boundary lines so affine and quadratic data stay exact there."""
    d = np.diff(values, axis=axis) / h
    fwd = np.empty_like(values)
    bwd = np.empty_like(values)
    lead = (slice(None),) * axis

    fwd[lead + (slice(0, -1),)] = d
    bwd[lead + (slice(1, None),)] = d

    def line(i):
        return values[lead + (i,)]

    # quadratic extrapolation of the missing one-sided difference
    fwd[lead + (-1,)] = (3.0 * line(-1) - 4.0 * line(-2) + line(-3)) / (2.0 * h)
    bwd[lead + (0,)] = (-3.0 * line(0) + 4.0 * line(1) - line(2)) / (2.0 * h)
    return bwd, fwd


def upwind_gradient_norm(u: ScalarField, speed: ScalarField | np.ndarray | float) -> np.ndarray:
    """Godunov upwind |Du| for the Hamiltonian -c|p|, selected by sign(c).

    For c >= 0 the monotone combination per axis is max(D+,0)^2 + min(D-,0)^2;
    for c < 0 the two clips swap.  Exact for affine u (the second-order
    boundary stencils keep the outermost ring exact as well).
    """
    h = u.spec.h
    if isinstance(speed, ScalarField):
        u.check_same_grid(speed)
        c = speed.values
    else:
        c = np.broadcast_to(np.asarray(speed, dtype=np.float64), u.values.shape)

    bx, fx = _one_sided_differences(u.values, h, axis=1)
    by, fy = _one_sided_differences(u.values, h, axis=0)

    pos = (
        np.maximum(fx, 0.0) ** 2 + np.minimum(bx, 0.0) ** 2
        + np.maximum(fy, 0.0) ** 2 + np.minimum(by, 0.0) ** 2
    )
    neg = (
        np.maximum(bx, 0.0) ** 2 + np.minimum(fx, 0.0) ** 2
        + np.maximum(by, 0.0) ** 2 + np.minimum(fy, 0.0) ** 2
    )
    return np.sqrt(np.where(c >= 0.0, pos, neg))


def central_gradients(u: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, u_y) by central differences, second-order one-sided at edges."""
    uy, ux = np.gradient(u.values, u.spec.h, edge_order=2)
    return ux, uy


def central_gradient_norm(u: ScalarField) -> np.ndarray:
    ux, uy = central_gradients(u)
    return np.hypot(ux, uy)


def curvature_term(u: ScalarField) -> np.ndarray:
    """tr((I - p^ ox p^) D^2 u) with |p|^2 -> |p|^2 + h^2 in the denominator.

    This is |Du| times mean curvature of the level line; it vanishes
    identically on affine data and tends to 0 where Du does.  The
    regularisation is the grid spacing h, so it vanishes under refinement.
    """
    h = u.spec.h
    v = u.values
    ux, uy = central_gradients(u)

    uxx = np.empty_like(v)
    uxx[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (h * h)
    uxx[:, 0] = uxx[:, 1]
    uxx[:, -1] = uxx[:, -2]

    uyy = np.empty_like(v)
    uyy[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / (h * h)
    uyy[0, :] = uyy[1, :]
    uyy[-1, :] = uyy[-2, :]

    uxy = np.gradient(np.gradient(v, h, axis=1, edge_order=2), h, axis=0, edge_order=2)

    num = uxx * uy**2 - 2.0 * ux * uy * uxy + uyy * ux**2
    return num / (ux**2 + uy**2 + h**2)


# ---------------------------------------------------------------------------
# marching-squares areas

def _crossing(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Linear crossing position from corner a toward corner b, clipped to the
    cell edge.  Only consumed where the two corners straddle the level."""
    denom = la - lb
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.clip(la / safe, 0.0, 1.0)


def cell_coverage(u: ScalarField, threshold: float) -> np.ndarray:
    """Fraction of each grid cell covered by {u >= threshold}.

    Marching-squares polygons with edge crossings placed by linear
    interpolation; the two ambiguous (saddle) cases are resolved by the sign
    of the cell-centre average.  Shape (n-1, n-1).
    """
    v = u.values - threshold
    la = v[:-1, :-1]   # SW corner
    lb = v[:-1, 1:]    # SE
    lc = v[1:, 1:]     # NE
    ld = v[1:, :-1]    # NW

    ina = la >= 0.0
    inb = lb >= 0.0
    inc = lc >= 0.0
    ind = ld >= 0.0
    case = (ina.astype(np.int8) + 2 * inb.astype(np.int8)
            + 4 * inc.astype(np.int8) + 8 * ind.astype(np.int8))

    xs = _crossing(la, lb)   # along south edge from a
    ye = _crossing(lb, lc)   # along east edge from b
    xn = _crossing(ld, lc)   # along north edge from d
    yw = _crossing(la, ld)   # along west edge from a

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

    centre_in = (la + lb + lc + ld) >= 0.0
    area = np.where((case == 5) & centre_in, 1.0 - tri_b - tri_d, area)
    area = np.where((case == 5) & ~centre_in, tri_a + tri_c, area)
    area = np.where((case == 10) & centre_in, 1.0 - tri_a - tri_c, area)
    area = np.where((case == 10) & ~centre_in, tri_b + tri_d, area)
    area = np.where(case == 15, 1.0, area)
    return area


def lebesgue_measure(u: ScalarField, threshold: float = 0.0) -> float:
    """Area of {u >= threshold}, O(h^2) accurate for transversal levels."""
    h = u.spec.h
    return float(h * h * cell_coverage(u, threshold).sum())


def band_measure(u: ScalarField, a: float, b: float) -> float:
    """Area of {a <= u < b}; returns 0 when b <= a."""
    if b <= a:
        return 0.0
    return lebesgue_measure(u, a) - lebesgue_measure(u, b)


# ---------------------------------------------------------------------------
# bilinear interpolation


def interpolate(u: ScalarField, points: np.ndarray) -> np.ndarray:
    """Bilinear evaluation at physical points, shape (..., 2) as (x, y).

    Points outside [-L, L]^2 evaluate to the far-field value -1.  Exact at
    grid nodes and for bilinear data.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    L = u.spec.half_extent
    h = u.spec.h
    n = u.spec.n

    x = pts[..., 0]
    y = pts[..., 1]
    outside = (x < -L) | (x > L) | (y < -L) | (y > L)

    # clamp so the arithmetic below stays in range; masked afterwards
    xc = np.clip(x, -L, L)
    yc = np.clip(y, -L, L)
    fx = (xc + L) / h
    fy = (yc + L) / h
    ix = np.minimum(fx.astype(np.int64), n - 2)
    iy = np.minimum(fy.astype(np.int64), n - 2)
    tx = fx - ix
    ty = fy - iy

    v = u.values
    val = ((1 - tx) * (1 - ty) * v[iy, ix]
           + tx * (1 - ty) * v[iy, ix + 1]
           + (1 - tx) * ty * v[iy + 1, ix]
           + tx * ty * v[iy + 1, ix + 1])
    val = np.where(outside, -1.0, val)
    return float(val[0]) if scalar else val
