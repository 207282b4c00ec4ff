"""Initial fronts with a certified interior direction margin.

`star_shaped_u0` builds the clamped signed distance to a union of "ice-cream
cones" hull(B(0, r0), k) over kernel points k.  Any such union is star-shaped
with respect to B(0, r0), which makes the radial field nu(x) = -x an interior
direction: walking from x to x + lambda*nu(x) = (1-lambda)x must raise u0 at a
definite rate.  The constructor certifies that rate (eta0) on the grid over a
band |u0| <= delta0, descending the band ladder delta0 in {0.2, 0.1, 0.05}
until the certified rate reaches r0/2.

The two structural conditions carried by an InitCondition:

  (far field)  |u0| <= 1 everywhere and u0 = -1 outside B(0, R0);
  (margin)     u0(x + lambda*nu(x)) >= u0(x) + lambda*eta0 for lambda in
               [0, lambda0] and x in the band {|u0| <= delta0}.

`verify_I1` and `verify_I2` check these two conditions on the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, FieldFormatError
from .grid import GridSpec, ScalarField, central_gradient_norm, interpolate
from .grid import dump_field, load_field, load_meta, meta_text

DELTA0_LADDER = (0.2, 0.1, 0.05)


@dataclass
class DirectionField:
    """A vector field nu with measured sup and Lipschitz norms.

    kind: 'radial' (nu = -x), the one kind frontlab builds.
    values has shape (n, n, 2), components (nu_x, nu_y).
    """

    spec: GridSpec
    kind: str
    values: np.ndarray
    sup_norm: float
    lip_norm: float


def _field_norms(spec: GridSpec, values: np.ndarray) -> tuple[float, float]:
    sup = float(np.hypot(values[..., 0], values[..., 1]).max())
    # finite-difference Jacobian, operator 2-norm via the 2x2 singular value
    dxy = [np.gradient(values[..., c], spec.h, edge_order=2) for c in (0, 1)]
    j11, j12 = dxy[0][1], dxy[0][0]   # d(nu_x)/dx, d(nu_x)/dy
    j21, j22 = dxy[1][1], dxy[1][0]
    a = j11**2 + j21**2
    b = j11 * j12 + j21 * j22
    c = j12**2 + j22**2
    smax2 = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4.0 * b**2))
    return sup, float(np.sqrt(smax2.max()))


def radial_direction(spec: GridSpec) -> DirectionField:
    x, y = spec.meshgrid()
    values = np.stack([-x, -y], axis=-1)
    sup, lip = _field_norms(spec, values)
    return DirectionField(spec, "radial", values, sup, lip)


@dataclass
class InitCondition:
    """Initial level-set field with its certified margin data."""

    u0: ScalarField
    nu: DirectionField
    r0: float
    R0: float
    delta0: float
    eta0: float
    lambda0: float
    lipschitz: float

    @property
    def lambda_bar(self) -> float:
        """Push amplitude used by the verifiers: half of lambda0, further
        limited so lambda_bar * eta0 <= delta0 / 4."""
        lam = 0.5 * self.lambda0
        if self.eta0 > 0:
            lam = min(lam, 0.25 * self.delta0 / self.eta0)
        return lam

    def band_mask(self, width: float | None = None) -> np.ndarray:
        w = self.delta0 if width is None else width
        return np.abs(self.u0.values) <= w


# ---------------------------------------------------------------------------
# signed distance to a union of cone hulls


def _cone_sdf(px: np.ndarray, py: np.ndarray, k: np.ndarray, r0: float) -> np.ndarray:
    """Signed distance to hull(B(0, r0), k); negative inside."""
    d = float(np.hypot(k[0], k[1]))
    rad = np.hypot(px, py)
    if d <= r0 + 1e-15:
        return rad - r0
    ex, ey = k[0] / d, k[1] / d
    along = px * ex + py * ey
    perp = np.abs(px * ey - py * ex)
    b = r0 / d
    a = np.sqrt(1.0 - b * b)
    t = a * along - b * perp
    sdf = a * perp + b * along - r0          # tangent-strip branch
    sdf = np.where(t < 0.0, rad - r0, sdf)   # ball branch
    apex = np.hypot(px - k[0], py - k[1])
    return np.where(t > a * d, apex, sdf)    # apex branch


def _cone_boundary_samples(k: np.ndarray, r0: float, step: float) -> np.ndarray:
    """Ordered closed-loop vertices on the boundary of hull(B(0, r0), k),
    spaced <= step; consecutive vertices (cyclically) bound one segment."""
    d = float(np.hypot(k[0], k[1]))
    if d <= r0 + 1e-15:
        count = max(int(np.ceil(2.0 * np.pi * r0 / step)), 8)
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([r0 * np.cos(ang), r0 * np.sin(ang)])
    phi = np.arctan2(k[1], k[0])
    theta_t = np.arccos(r0 / d)             # touch-point half angle
    # far arc, the part of the circle outside the tangent wedge, walked
    # counterclockwise from touch+ around to touch-
    arc_span = 2.0 * (np.pi - theta_t)
    count = max(int(np.ceil(arc_span * r0 / step)), 8)
    ang = phi + theta_t + np.linspace(0.0, arc_span, count + 1)
    loop = [np.column_stack([r0 * np.cos(ang), r0 * np.sin(ang)])]
    # tangent leg touch- -> apex, then apex -> touch+, duplicates dropped
    ell = np.sqrt(d * d - r0 * r0)
    m = max(int(np.ceil(ell / step)), 4)
    touch_m = r0 * np.array([np.cos(phi - theta_t), np.sin(phi - theta_t)])
    touch_p = r0 * np.array([np.cos(phi + theta_t), np.sin(phi + theta_t)])
    s = np.linspace(0.0, 1.0, m + 1)[1:, None]
    loop.append(touch_m[None, :] * (1.0 - s) + k[None, :] * s)
    s = np.linspace(1.0, 0.0, m + 1)[1:-1, None]
    loop.append(touch_p[None, :] * (1.0 - s) + k[None, :] * s)
    return np.vstack(loop)


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a family of segments [a_i, b_i],
    brute force, chunked over points to bound memory."""
    out = np.full(len(points), np.inf)
    d = b - a
    len2 = np.maximum((d * d).sum(axis=1), 1e-300)
    for lo in range(0, len(points), 2048):
        p = points[lo:lo + 2048][:, None, :]
        t = np.clip(((p - a[None]) * d[None]).sum(-1) / len2[None], 0.0, 1.0)
        gap = p - (a[None] + t[..., None] * d[None])
        out[lo:lo + 2048] = np.sqrt((gap * gap).sum(-1)).min(axis=1)
    return out


def star_shaped_u0(
    spec: GridSpec,
    kernel_points,
    r0: float,
) -> InitCondition:
    """Clamped signed distance to Union_k hull(B(0, r0), k), with the margin
    certificate (delta0, eta0, lambda0) measured on the grid.

    Raises ConstructionError if the support does not fit the domain with a
    2h margin, or if no band in the ladder certifies eta0 >= r0/2.
    """
    kernels = np.atleast_2d(np.asarray(kernel_points, dtype=np.float64))
    if kernels.shape[1] != 2:
        raise ConstructionError(f"kernel points must be pairs, got shape {kernels.shape}")
    if not (r0 > 0):
        raise ConstructionError(f"r0 must be positive, got {r0}")
    L, h = spec.half_extent, spec.h
    kmax = float(np.hypot(kernels[:, 0], kernels[:, 1]).max())
    if kmax > L - 3 * h:
        raise ConstructionError(
            f"kernel points reach |x|={kmax:.4g}, beyond L-3h={L - 3 * h:.4g}"
        )
    if kmax + r0 > L - 2 * h:
        raise ConstructionError(
            f"support radius {kmax + r0:.4g} exceeds the domain bound L-2h={L - 2 * h:.4g}"
        )

    x, y = spec.meshgrid()
    sdfs = np.stack([_cone_sdf(x, y, k, r0) for k in kernels])
    inside = sdfs.min(axis=0) <= 0.0

    if len(kernels) == 1:
        # a single cone hull: the capsule formula is already the exact
        # signed distance, no boundary discretization needed
        dist = np.abs(sdfs[0])
    else:
        # distance to the polygonal union boundary: each cone boundary is a
        # closed loop of segments at h/2 resolution, and segments whose
        # midpoint lies strictly inside another cone are swallowed.  Arc
        # chords sag below the circle by up to step^2/(8 r0), and shared
        # arcs lie on several cone boundaries at once, so the swallow test
        # needs that much slack or the shared arcs vanish from every loop.
        step = 0.5 * h
        sag = 0.15 * step * step / r0 + 1e-12
        seg_a, seg_b = [], []
        for i, k in enumerate(kernels):
            pts = _cone_boundary_samples(k, r0, step)
            a, b = pts, np.roll(pts, -1, axis=0)
            mid = 0.5 * (a + b)
            keep = np.ones(len(a), dtype=bool)
            for j, kj in enumerate(kernels):
                if j != i:
                    keep &= _cone_sdf(mid[:, 0], mid[:, 1], kj, r0) >= -sag
            seg_a.append(a[keep])
            seg_b.append(b[keep])
        nodes = np.column_stack([x.ravel(), y.ravel()])
        dist = _segment_distances(nodes, np.vstack(seg_a), np.vstack(seg_b))
        dist = dist.reshape(spec.n, spec.n)

    u0 = ScalarField(spec, np.clip(np.where(inside, dist, -dist), -1.0, 1.0))
    R0 = kmax + r0 + 1.0   # unit-slope profile: support of u0 + 1
    lipschitz = float(central_gradient_norm(u0).max())

    nu = radial_direction(spec)
    lambda0 = 0.5 * min(1.0 / max(nu.sup_norm, 1e-12), 1.0 / max(nu.lip_norm, 1e-12), 1.8)

    worst_node = None
    for delta0 in DELTA0_LADDER:
        eta = _certify_margin(u0, nu, lambda0, delta0)
        if eta is None:
            continue
        eta_grid, node = eta
        if eta_grid >= 0.5 * r0:
            return InitCondition(u0, nu, float(r0), R0, delta0, eta_grid, lambda0, lipschitz)
        worst_node = (delta0, eta_grid, node)
    if worst_node is None:
        raise ConstructionError(
            f"margin certification failed: no band node was certified, since no node "
            f"has |u0| <= {max(DELTA0_LADDER)} (r0={r0:.4g} against the grid step h={h:.4g})"
        )
    raise ConstructionError(
        "margin certification failed: best band gave "
        f"delta0={worst_node[0]}, eta0={worst_node[1]:.4g} < r0/2={0.5 * r0:.4g} "
        f"(worst node at {worst_node[2]})"
    )


def _certify_margin(u0, nu, lambda0, delta0):
    """Grid minimum of [u0(x + lam nu) - u0(x)] / lam over the delta0-band
    and lam in lambda0*{1/4..1}; returns (eta, worst_node_xy) or None."""
    band = np.abs(u0.values) <= delta0
    if not band.any():
        return None
    x, y = u0.spec.meshgrid()
    base = np.column_stack([x[band], y[band]])
    vals = u0.values[band]
    nvec = nu.values[band]
    eta = np.inf
    worst = None
    for lam in lambda0 * np.arange(1, 5) / 4.0:
        pushed = interpolate(u0, base + lam * nvec)
        q = (pushed - vals) / lam
        i = int(np.argmin(q))
        if q[i] < eta:
            eta = float(q[i])
            worst = (float(base[i, 0]), float(base[i, 1]))
    return eta, worst


# ---------------------------------------------------------------------------
# the two structural conditions


def verify_I1(init: InitCondition) -> bool:
    """u0 = -1 at every node outside B(0, R0) and |u0| <= 1 everywhere."""
    u = init.u0.values
    if np.abs(u).max() > 1.0:
        return False
    far = init.u0.spec.radius() > init.R0
    return bool(np.all(u[far] == -1.0))


def verify_I2(init: InitCondition, lambda_samples: int = 4) -> tuple[bool, float]:
    """Check the margin condition on the grid.

    Scans x in the band {|u0| <= delta0} and lambda in the positive grid
    {k*lambda0/lambda_samples}; the worst margin of
    u0(x + lambda nu) - u0(x) - lambda*eta0 must stay above -lipschitz*h.
    Returns (passed, worst_margin); lambda_samples = 0 passes vacuously.
    """
    if lambda_samples == 0:
        return True, np.inf
    band = init.band_mask()
    if not band.any():
        return True, np.inf
    spec = init.u0.spec
    x, y = spec.meshgrid()
    base = np.column_stack([x[band], y[band]])
    vals = init.u0.values[band]
    nvec = init.nu.values[band]
    worst = np.inf
    for k in range(1, lambda_samples + 1):
        lam = init.lambda0 * k / lambda_samples
        pushed = interpolate(init.u0, base + lam * nvec)
        worst = min(worst, float((pushed - vals - lam * init.eta0).min()))
    return worst >= -init.lipschitz * spec.h, worst


# ---------------------------------------------------------------------------
# serialisation: u0 dump plus a key=value header


def dump_init(init: InitCondition, u0_path, header_path):
    dump_field(init.u0, u0_path)
    nu = init.nu
    with open(header_path, "w") as fh:
        fh.write(meta_text({
            "R0": init.R0, "delta0": init.delta0, "eta0": init.eta0, "lambda0": init.lambda0,
            "nu.kind": nu.kind, "nu.sup_norm": nu.sup_norm, "nu.lip_norm": nu.lip_norm,
            "r0": init.r0, "lipschitz": init.lipschitz,
        }, ()))


def load_init(u0_path, header_path) -> InitCondition:
    u0 = load_field(u0_path)
    names = ("r0", "R0", "delta0", "eta0", "lambda0", "lipschitz")
    meta, _ = load_meta(header_path, required=("nu.kind", *names), texts=("nu.kind",))
    kind = meta["nu.kind"]
    if kind != "radial":
        raise FieldFormatError(f"{header_path}: nu.kind = {kind} is not radial")
    nu = radial_direction(u0.spec)
    return InitCondition(u0=u0, nu=nu, **{name: meta[name] for name in names})
