"""Empirical counterparts of the quantitative front estimates.

Each report measures one proved inequality on a stored trajectory and fits
the constants the theory only asserts to exist:

* key estimate:        eta_emp(t) = min over the band {|u| <= delta0/4} of
                       the push quotient [u(x + lam nu) - u(x)] / lam stays
                       positive and is modelled by eta0 - M2 sqrt(t);
* lower gradient:      min |Du| over the band >= eta(t) / ||nu||_inf;
* cone property:       every front vertex z carries a solid cone of axis
                       nu(z), opening lam_bar |nu(z)| and height
                       eta(t) lam_bar / (||Du0||_inf e^{Kt}) inside the
                       closed superlevel set;
* perimeter:           contour length <= 2 ||Du0||_inf e^{Kt} area / eta_bar
                       (co-area route) and <= 2x its initial value;
* band measure:        |{-delta <= u < 0}| <= M4 delta / eta_bar, linear in
                       delta, plus a Green-weighted variant for M5;
* non-fattening:       |{|u| <= eps}| is linear in eps with intercept below
                       2 h perimeter;
* continuous
  dependence:          sup(u1 - u2)(t) <= M1 (kappa1 t + sqrt(kappa2 t))
                       with a stable M1 as the occupation gap shrinks;
* star-shapedness:     [u((1-lam)x, t) - u(x, t)] / lam >= eta0 / 2 for all
                       stored t, plus a gamma sweep for the volume law.

Every report is a pure function of its inputs, serializes to a CSV of
(time, measured, bound, margin) rows plus a key=value verdict file, and is
re-checkable from the stored data alone.  Slacks are first order in h and
recorded in the verdict file; nothing is asserted at sub-grid precision.
`CHECKS`, at the end, is the one table of check names; each entry reads its
trajectory through a `CheckContext` that computes shared geometry once.
"""

import os
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .contour import extract_contour
from .couplings import constant_history, gauss_average, kappa
from .errors import FrontEscapeError, StabilityError
from .geometry import InitCondition, nu_sup_norm
from .grid import ScalarField, batches, central_gradient_norm_at, interpolate, lebesgue_measure
from .grid import meta_text, stack_fields, trapezoid
from .solver import Trajectory, _normalise_output_times, regularity_report, solution_gaps
from .weak import march_solve, reuses_march

LEVELS_FRACTION = (-0.25, 0.0, 0.25)   # contour levels as multiples of delta0


def _band_deltas(h: float, delta0: float) -> list:
    """band_measure's deltas {2h, 4h, delta0/8, delta0/4}, sub-resolution
    values (< 2h) dropped."""
    raw = [2.0 * h, 4.0 * h, delta0 / 8.0, delta0 / 4.0]
    return sorted({d for d in raw if d >= 2.0 * h - 1e-15})


def _slab_eps(h: float) -> np.ndarray:
    """non_fattening's slab half-widths {2h, 4h, 8h}."""
    return np.array([2.0 * h, 4.0 * h, 8.0 * h])


@dataclass(frozen=True)
class EtaSchedule:
    """The decay model eta(t) = eta0 - M2 sqrt(t) with its positivity
    horizon t_bar = (eta0 / M2)^2."""

    eta0: float
    M2: float

    @property
    def t_bar(self) -> float:
        if self.M2 <= 0.0:
            return np.inf
        return (self.eta0 / self.M2) ** 2

    def eta(self, t):
        return self.eta0 - self.M2 * np.sqrt(np.maximum(t, 0.0))


@dataclass
class VerificationReport:
    """One measured inequality: per-time rows, fitted constants, verdict.

    rows are (time, measured, bound, margin) tuples; constants carries the
    fitted values, tolerances, and flag values (0/1) the verdict was derived
    from, so a reloaded report can be re-judged without the trajectory.
    """

    name: str
    passed: bool
    rows: list
    constants: dict
    notes: list = dataclass_field(default_factory=list)

    def min_margin(self) -> float:
        if not self.rows:
            return np.inf
        return float(min(r[3] for r in self.rows))

    def verdict_line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}"


# ---------------------------------------------------------------------------
# report serialization: <name>.csv + <name>.verdict


def report_texts(report: VerificationReport) -> tuple:
    """The (<name>.csv, <name>.verdict) file contents of a report."""
    csv = "time,measured,bound,margin\n" + "".join(
        f"{t:.17g},{m:.17g},{b:.17g},{g:.17g}\n" for t, m, b, g in report.rows
    )
    entries = {"name": report.name, "passed": "true" if report.passed else "false"}
    entries.update(sorted(report.constants.items()))
    return csv, meta_text(entries, report.notes)


def dump_report(report: VerificationReport, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for ext, text in zip((".csv", ".verdict"), report_texts(report)):
        with open(os.path.join(directory, report.name + ext), "w") as fh:
            fh.write(text)


def stored_mismatch(report: VerificationReport, directory) -> str:
    """Empty when the files stored for report.name are exactly what
    dump_report would write for report; otherwise a verdict suffix saying
    how they differ: a stored .verdict without report's `passed = ` line
    is a verdict mismatch, any other difference is drift.  No stored number
    is parsed, so an edited report is one of the two whatever its bytes."""
    stored = []
    try:
        for ext in (".csv", ".verdict"):
            with open(os.path.join(directory, report.name + ext), "rb") as fh:
                stored.append(fh.read())
    except FileNotFoundError:
        return " (no stored report)"
    if stored == [text.encode() for text in report_texts(report)]:
        return ""
    passed_line = f"passed = {'true' if report.passed else 'false'}".encode()
    if passed_line not in stored[1].splitlines():
        return " (verdict mismatch with stored report)"
    return " (report drift)"


# ---------------------------------------------------------------------------
# the front band of a batch of snapshots, and the displacement margin
#
# eta, the lower gradient and the star-shape margin all read the band
# {|u| <= delta0/4} of every stored snapshot.  A batch of consecutive
# snapshots (`grid.batches`) is stacked and its band found once; each
# measurement then runs on every band node of the batch in one numpy pass
# and takes the minimum per snapshot, which is exact in any order.


class Band:
    """The nodes of a batch of snapshots in the band {|u| <= width}.

    fields are the snapshots and stack their `grid.FieldStack`; snapshot,
    iy and ix index the band nodes, snapshot by snapshot and row by row,
    values is u there and points their (x, y)."""

    def __init__(self, fields: list, width: float):
        self.fields = fields
        self.stack = stack_fields(fields)
        n = self.stack.spec.n
        node = np.flatnonzero(np.abs(self.stack.values) <= width)
        self.values = self.stack.values.reshape(-1)[node]
        self.snapshot, node = np.divmod(node, n * n)
        self.iy, self.ix = np.divmod(node, n)

    @cached_property
    def points(self) -> np.ndarray:
        ax = self.stack.spec.axis()
        return np.column_stack([ax[self.ix], ax[self.iy]])

    def minima(self, values: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
        """The minimum of values over each snapshot of the batch, NaN for a
        snapshot with none; snapshot, the snapshot of each value, is
        nondecreasing."""
        out = np.full(len(self.fields), np.nan)
        bounds = np.searchsorted(snapshot, np.arange(len(self.fields) + 1))
        some = bounds[:-1] < bounds[1:]
        if values.size:
            out[some] = np.minimum.reduceat(values, bounds[:-1][some])
        return out


def band_etas(band: Band, init: InitCondition, lambdas) -> np.ndarray:
    """eta_empirical of each snapshot of band's batch: the worst push
    quotient [u(x + lam nu(x)) - u(x)] / lam over its band nodes and the
    positive lambdas, every push of the batch in one interpolation.  NaN
    for a snapshot whose band is empty or whose every push leaves the
    domain."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    lambdas = lambdas[lambdas > 0.0]
    pts = band.points - lambdas[:, None, None] * band.points   # x + lam nu(x), nu = -x
    inside = np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1])) <= band.stack.spec.half_extent
    # every push is evaluated, and those that leave the domain dropped after
    q = interpolate(band.stack, pts, np.broadcast_to(band.snapshot, inside.shape))
    q -= band.values
    q /= lambdas[:, None]
    q[~inside] = np.inf
    pushed = inside.any(axis=0)
    return band.minima(q.min(axis=0, initial=np.inf)[pushed], band.snapshot[pushed])


def eta_empirical(
    u: ScalarField, init: InitCondition, lambdas=None, band_width: float = None
) -> float:
    """Worst push quotient [u(x + lam nu(x)) - u(x)] / lam over the front
    band and the lambda grid; pushes that leave the domain are left out.

    band defaults to {|u| <= delta0/4}; lambdas to lambda_bar {1/4..1};
    non-positive lambdas are excluded (the quotient is undefined at 0).
    The batch of one snapshot of `band_etas`.  Returns NaN when the band
    is empty or every push leaves the domain.
    """
    if band_width is None:
        band_width = init.delta0 / 4.0
    if lambdas is None:
        lambdas = init.lambda_bar * np.arange(1, 5) / 4.0
    return float(band_etas(Band([u], band_width), init, lambdas)[0])


# ---------------------------------------------------------------------------
# the per-trajectory context the checks share


class CheckContext:
    """A trajectory and its initial condition, with what the checks share,
    each computed on first use and then kept: every snapshot's eta, every
    (snapshot, level) contour, every snapshot's areas at `area_levels` (never
    coverage arrays), the band of each batch of snapshots, the regularity
    fit K, the key estimate and the star-shape report (which a run's gamma
    sweep reuses at the run's gamma).  The geometric reports accept a
    context in place of their trajectory.  `checks` names the checks that
    will read it, so that the first contour request extracts every level
    they read in every snapshot, all in one `extract_contour` call, and the
    first area read of a snapshot measures every level they read.  The
    first eta request measures every snapshot, a batch at a time.  A run
    also sets `config` and `coupling`, which the checks that solve again
    (dependence) read."""

    def __init__(
        self, traj: Trajectory, init: InitCondition, config=None, coupling=None, checks=(),
    ):
        self.traj, self.init = traj, init
        self.config, self.coupling = config, coupling
        self.checks = tuple(checks)
        self._kept = {}
        self._contoured = False

    def _once(self, key, compute, *args):
        if key not in self._kept:
            self._kept[key] = compute(*args)
        return self._kept[key]

    def bands(self, stop: int = None) -> list:
        """(snapshot range, Band of {|u| <= delta0/4}) of each batch of
        `grid.batches` that holds a snapshot before stop (default: all),
        each built on first use."""
        snapshots = self.traj.snapshots
        spans = batches(len(snapshots), self.traj.spec.n)
        width = self.init.delta0 / 4.0
        return [
            (span, self._once(("band", span.start), Band, snapshots[span.start:span.stop], width))
            for span in spans if stop is None or span.start < stop
        ]

    def contours(self, k: int, levels) -> list:
        """The contours of snapshot k at each level.  The first request
        extracts, in one call, every level of `_contour_levels(j)` of every
        snapshot j and the requested levels of snapshot k; a later request
        extracts the levels of snapshot k not kept yet."""
        if self._contoured:
            wanted = {k: [level for level in levels if ("contour", k, level) not in self._kept]}
        else:
            self._contoured = True
            wanted = {j: self._contour_levels(j) for j in range(len(self.traj.snapshots))}
            wanted[k] += [level for level in levels if level not in wanted[k]]
        wanted = {j: missing for j, missing in wanted.items() if missing}
        if wanted:
            found = extract_contour([self.traj.snapshots[j] for j in wanted], list(wanted.values()))
            for (j, missing), snapshot_contours in zip(wanted.items(), found):
                self._kept.update(
                    {("contour", j, level): c for level, c in zip(missing, snapshot_contours)})
        return [self._kept[("contour", k, level)] for level in levels]

    def contour(self, k: int, level: float = 0.0):
        return self.contours(k, [level])[0]

    def _contour_levels(self, k: int) -> list:
        """Every level `checks` read a contour at in snapshot k: 0 (also the
        level of a run's contour dump and radius table) and, up to t_bar,
        the +-delta0/4 levels of cone and perimeter."""
        if {"cone", "perimeter"} & set(self.checks) and self.traj.times[k] <= self.t_bar + 1e-12:
            return [f * self.init.delta0 for f in LEVELS_FRACTION]
        return [0.0]

    def area(self, k: int, level: float = 0.0) -> float:
        """Area of {u >= level} in snapshot k.  The first read of a snapshot
        computes every level of `area_levels` in one pass; a level not
        listed there is computed alone when it is first read."""
        areas = self._once(("areas", k), self._areas, k)
        if level not in areas:
            areas[level] = lebesgue_measure(self.traj.snapshots[k], level)
        return areas[level]

    @cached_property
    def area_levels(self) -> tuple:
        """Every level `checks` read an area at: 0 (also the level of a
        run's radius table), the contour levels of perimeter and the
        offsets of band_measure and non_fattening."""
        h, delta0 = self.traj.spec.h, self.init.delta0
        levels = {0.0}
        if "perimeter" in self.checks:
            levels.update(f * delta0 for f in LEVELS_FRACTION)
        if "band_measure" in self.checks:
            levels.update(-d for d in _band_deltas(h, delta0))
        if "non_fattening" in self.checks:
            eps = _slab_eps(h).tolist()
            levels.update([-e for e in eps] + eps)
        return tuple(sorted(levels))

    def _areas(self, k: int) -> dict:
        levels = self.area_levels
        return dict(zip(levels, lebesgue_measure(self.traj.snapshots[k], levels)))

    def eta(self, k: int, lambda_bar: float) -> float:
        """eta_empirical of snapshot k: default band, lambdas lambda_bar
        {1/4..1}.  The first request for a lambda_bar measures every
        snapshot, a batch at a time (`band_etas`)."""
        return self._once(("eta", lambda_bar), self._etas, lambda_bar)[k]

    def _etas(self, lambda_bar: float) -> list:
        lambdas = lambda_bar * np.arange(1, 5) / 4.0
        return [eta for _, band in self.bands() for eta in band_etas(band, self.init, lambdas).tolist()]

    @cached_property
    def K_fit(self) -> float:
        return regularity_report(self.traj)

    @cached_property
    def key_estimate(self):
        """(EtaSchedule, key_estimate report) of key_estimate_report."""
        return key_estimate_report(self, self.init)

    @cached_property
    def star_shape(self) -> "VerificationReport":
        return star_shape_report(self, self.init)

    @property
    def schedule(self) -> "EtaSchedule":
        return self.key_estimate[0]

    @property
    def t_bar(self) -> float:
        return self.key_estimate[1].constants["t_bar_emp"]


def _context(traj, init: InitCondition):
    """(context, bare trajectory) of a report's traj argument: traj itself
    when it is a context for init, else a new context."""
    if not (isinstance(traj, CheckContext) and traj.init is init):
        traj = CheckContext(getattr(traj, "traj", traj), init)
    return traj, traj.traj


def key_estimate_report(
    traj: Trajectory, init: InitCondition, lambda_bar: float = None
):
    """Measure eta_emp(t), fit the sqrt decay model, and locate t_bar_emp.

    Returns (EtaSchedule fit, VerificationReport).  Verdict: eta_emp > 0 at
    t = 0 (nonempty positive prefix) and the model residual stays under 20%
    of the fitted eta0.  When the least-squares decay coefficient comes out
    negative (margin grows in time) the schedule is pinned to the t = 0
    margin with M2 = 0 and the residual counts only bound violations.  The
    decay exponent is a log-log fit of the drop eta_emp(0) - eta_emp(t)
    restricted to times where the drop clears the noise floor
    max(2 h ||Du0||_inf, 5% of eta_emp(0)); it is NaN when fewer than three
    such times exist (no measurable decay).
    """
    ctx, traj = _context(traj, init)
    times = traj.times
    if lambda_bar is None:
        lambda_bar = init.lambda_bar
    if lambda_bar > init.lambda0 * (1 + 1e-12):
        raise ValueError(f"lambda_bar {lambda_bar:g} exceeds lambda0 {init.lambda0:g}")
    etas = np.asarray([ctx.eta(k, lambda_bar) for k in range(len(times))])
    h, lip = traj.spec.h, init.lipschitz
    floor = h * lip

    finite = np.isfinite(etas)
    t_bar_emp = float(times[-1])
    for t, e in zip(times, etas):
        if not np.isfinite(e) or e <= floor:
            t_bar_emp = float(t)
            break

    # least squares for eta0 - M2 sqrt(t) on the finite samples
    ts, es = times[finite], etas[finite]
    if ts.size >= 2:
        design = np.column_stack([np.ones_like(ts), -np.sqrt(ts)])
        coef, *_ = np.linalg.lstsq(design, es, rcond=None)
        eta0_fit, m2_fit = float(coef[0]), float(coef[1])
        if m2_fit < 0.0:
            # growth regime (margin increases, e.g. an expanding front with
            # nu = -x): the nonincreasing model degenerates to the initial
            # margin as a pure lower bound, and the residual counts only
            # violations of that bound, not the unmodeled growth above it
            eta0_fit, m2_fit = float(es[0]), 0.0
            resid = float(np.sqrt(np.mean(np.maximum(eta0_fit - es, 0.0) ** 2)))
        else:
            resid = float(np.sqrt(np.mean((design @ [eta0_fit, m2_fit] - es) ** 2)))
    else:
        eta0_fit = float(es[0]) if es.size else np.nan
        m2_fit, resid = 0.0, 0.0
    sched = EtaSchedule(eta0_fit, m2_fit)

    # decay exponent on the measured decline, if any
    eta_start = etas[0]
    drop_floor = max(2.0 * h * lip, 0.05 * eta_start) if np.isfinite(eta_start) else np.inf
    drops, drop_ts = [], []
    for t, e in zip(times[1:], etas[1:]):
        if np.isfinite(e) and (eta_start - e) > drop_floor and t > 0:
            drops.append(eta_start - e)
            drop_ts.append(t)
    if len(drops) >= 3:
        slope, _ = np.polyfit(np.log(drop_ts), np.log(drops), 1)
        exponent = float(slope)
    else:
        exponent = np.nan

    rows = []
    for t, e in zip(times, etas):
        model = sched.eta(t)
        measured = e if np.isfinite(e) else -1.0
        rows.append((float(t), float(measured), float(model), float(measured - model)))

    ok_prefix = bool(np.isfinite(eta_start) and eta_start > 0.0)
    ok_resid = bool(np.isfinite(eta0_fit) and eta0_fit > 0 and resid < 0.2 * eta0_fit)
    report = VerificationReport(
        name="key_estimate",
        passed=ok_prefix and ok_resid,
        rows=rows,
        constants={
            "eta0_fit": eta0_fit,
            "m2_fit": m2_fit,
            "fit_residual": resid,
            "t_bar_emp": t_bar_emp,
            "decay_exponent": exponent,
            "positivity_floor": floor,
            "lambda_bar": float(lambda_bar),
            "ok_prefix": float(ok_prefix),
            "ok_residual": float(ok_resid),
        },
    )
    if not np.isfinite(exponent):
        report.notes.append("no measurable decay portion; exponent undefined")
    return sched, report


def lower_gradient_report(
    traj: Trajectory, init: InitCondition, eta_sched: EtaSchedule, t_bar: float,
) -> VerificationReport:
    """min |Du| over {|u(t)| < delta0/4} against eta(t) / ||nu||_inf.

    |Du| is measured at the band nodes alone (`central_gradient_norm_at`),
    the same floats as the full-grid central |Du| there, every band node of
    a batch of snapshots in one call (`CheckContext.bands`).  Times after
    t_bar or with an empty band are vacuous passes.  Slack is 3 h scale with
    scale = max(1, 1/r0), the natural curvature of the initial front.
    """
    ctx, traj = _context(traj, init)
    h = traj.spec.h
    scale = max(1.0, 1.0 / init.r0)
    slack = 3.0 * h * scale
    nu_sup = nu_sup_norm(traj.spec)
    width = init.delta0 / 4.0
    times = traj.times
    stop = next((k for k, t in enumerate(times) if t > t_bar + 1e-12), len(times))

    # the band minimum of |Du| of each snapshot up to t_bar, a batch at a
    # time; the band {|u| < width} is part of the context's {|u| <= width}
    measured = []
    for span, band in ctx.bands(stop):
        sel = np.abs(band.values) < width
        if span.stop > stop:
            sel &= band.snapshot < stop - span.start
        snapshot = band.snapshot[sel]
        grad = central_gradient_norm_at(band.stack, band.iy[sel], band.ix[sel], snapshot)
        measured.extend(band.minima(grad, snapshot).tolist())

    rows = []
    worst = np.inf
    for t, least in zip(times[:stop], measured):
        bound = max(float(eta_sched.eta(t)), 0.0) / nu_sup
        if np.isnan(least):
            rows.append((float(t), 0.0, bound, 0.0))
            continue
        margin = least - bound
        worst = min(worst, margin)
        rows.append((float(t), least, bound, margin))

    passed = (not rows) or worst == np.inf or worst >= -slack
    return VerificationReport(
        name="lower_gradient",
        passed=bool(passed),
        rows=rows,
        constants={"slack": slack, "scale": scale, "nu_sup": nu_sup, "t_bar": t_bar},
    )


# ---------------------------------------------------------------------------
# interior cones


_CONE_RADII = np.array([0.25, 0.5, 0.75, 1.0])   # sample radii as multiples of the height
_CONE_ANGLES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])   # ray angles as multiples of theta


def _cone_rays(axis: np.ndarray, theta: np.ndarray):
    """The five unit rays of each cone, axis rotated by theta {-1,-1/2,0,1/2,1}:
    their x and y components, each of shape (m, 5)."""
    ang = theta[:, None] * _CONE_ANGLES[None, :]
    ca, sa = np.cos(ang), np.sin(ang)
    return ca * axis[:, 0:1] - sa * axis[:, 1:2], sa * axis[:, 0:1] + ca * axis[:, 1:2]


def _cone_points(z: np.ndarray, rays, rho: float, half_extent: float) -> np.ndarray:
    """The samples z + rho {1/4..1} ray inside [-L, L]^2, shape (k, 2), in
    the order vertex, ray, radius."""
    dx, dy = rays
    steps = rho * _CONE_RADII
    px = (z[:, 0:1, None] + steps * dx[:, :, None]).reshape(-1)
    py = (z[:, 1:2, None] + steps * dy[:, :, None]).reshape(-1)
    inside = np.maximum(np.abs(px), np.abs(py)) <= half_extent
    return np.column_stack([px[inside], py[inside]])


def cone_report(
    traj: Trajectory, init: InitCondition, eta_sched: EtaSchedule, K_fit: float,
    t_bar: float, flip_axis: bool = False, max_vertices: int = 256,
) -> VerificationReport:
    """Sample solid cones at contour vertices and count points violating
    u >= level - slack.

    Cone axis nu(z)/|nu(z)| with nu(z) = -z (flip_axis negates it: the
    adversarial variant must fail), half opening lam_bar |nu(z)|, height
    eta(t) lam_bar / (||Du0||_inf e^{K t}).  Vertices with |nu| ~ 0 and times
    where the height falls below h are skipped and counted; a snapshot
    builds rays only for the heights of h and above.  The same count
    is repeated with K doubled; a verdict flip between the two is flagged.
    The cone points are sampled and evaluated once per distinct height, so
    the two multiples share them where their heights are equal (K_fit = 0,
    or t = 0).
    """
    ctx, traj = _context(traj, init)
    spec = traj.spec
    h, lip = spec.h, init.lipschitz
    lam_bar = init.lambda_bar
    slack = lip * h
    levels = [f * init.delta0 for f in LEVELS_FRACTION]
    totals = {1.0: 0, 2.0: 0}
    fails = {1.0: 0, 2.0: 0}
    skipped_axis = 0
    skipped_small = 0
    rows = []

    for k, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        if t > t_bar + 1e-12:
            break
        eta_t = max(float(eta_sched.eta(t)), 0.0)
        rho = {mult: eta_t * lam_bar / (lip * np.exp(mult * K_fit * t)) for mult in (1.0, 2.0)}
        # the K multiples whose height reaches h, the only ones sampled
        mults = [mult for mult in rho if not rho[mult] < h]
        # the cone points of every level and sampled multiple of this
        # snapshot, evaluated in one call and then counted piece by piece
        tests, points = [], []
        for level, contour in zip(levels, ctx.contours(k, levels)):
            # the contour's vertices, strided to at most max_vertices
            z = contour.vertex_array()
            z = z[::int(np.ceil(len(z) / max_vertices))] if len(z) > max_vertices else z
            if z.size == 0:
                tests.append(None)
                continue
            nu_z = -z
            norm = np.hypot(nu_z[:, 0], nu_z[:, 1])
            ok = norm > 1e-12
            skipped_axis += int((~ok).sum())
            if not ok.any():
                continue
            skipped_small += 2 - len(mults)
            # the index in points of each sampled multiple's point set, one
            # set per distinct height
            sampled, by_height = {}, {}
            if mults:
                z, nu_z, norm = z[ok], nu_z[ok], norm[ok]
                axis = nu_z / norm[:, None]
                if flip_axis:
                    axis = -axis
                rays = _cone_rays(axis, np.minimum(lam_bar * norm, np.pi / 3.0))
                for mult in mults:
                    if rho[mult] not in by_height:
                        by_height[rho[mult]] = len(points)
                        points.append(_cone_points(z, rays, rho[mult], spec.half_extent))
                    sampled[mult] = by_height[rho[mult]]
            tests.append((level, sampled))
        if points:
            vals = interpolate(snap, np.concatenate(points))
            vals = np.split(vals, np.cumsum([len(p) for p in points])[:-1])
        for test in tests:
            if test is None:
                rows.append((float(t), 0.0, 0.01, 0.01))
                continue
            level, sampled = test
            frac_here = {}
            for mult, i in sampled.items():
                count = len(vals[i])
                bad = int((vals[i] < level - slack).sum())
                totals[mult] += count
                fails[mult] += bad
                frac_here[mult] = bad / max(count, 1)
            rows.append((
                float(t), float(frac_here.get(1.0, 0.0)), 0.01,
                float(0.01 - frac_here.get(1.0, 0.0)),
            ))

    frac = fails[1.0] / max(totals[1.0], 1)
    frac2 = fails[2.0] / max(totals[2.0], 1)
    passed = frac <= 0.01
    passed2 = frac2 <= 0.01
    report = VerificationReport(
        name="cone" + ("_flipped" if flip_axis else ""),
        passed=bool(passed),
        rows=rows,
        constants={
            "failure_fraction": frac,
            "failure_fraction_2k": frac2,
            "points_tested": float(totals[1.0]),
            "k_fit": float(K_fit),
            "lambda_bar": lam_bar,
            "slack": slack,
            "skipped_zero_axis": float(skipped_axis),
            "skipped_small_rho": float(skipped_small),
            "verdict_flips_at_2k": float(passed != passed2),
        },
    )
    if passed != passed2:
        report.notes.append("cone verdict changes sign when K is doubled")
    return report


def _eta_bar(ctx: CheckContext, eta_sched, window: float, floor: float) -> float:
    """Window minimum of the schedule, capped pointwise by the measured
    margin.  The cap matters when the margin grows in time: a nonincreasing
    model then sits above its own data at t = 0 and would overstate the
    divisor of the co-area bounds."""
    vals = []
    for k, t in enumerate(ctx.traj.times):
        if t > window + 1e-12:
            break
        s = float(eta_sched.eta(t))
        e = ctx.eta(k, ctx.init.lambda_bar)
        if np.isfinite(e):
            s = min(s, float(e))
        vals.append(max(s, floor))
    return min(vals) if vals else floor


def perimeter_report(
    traj: Trajectory, init: InitCondition, eta_sched: EtaSchedule, K_fit: float,
    t_bar: float,
) -> VerificationReport:
    """Contour perimeter against the co-area bound
    2 ||Du0||_inf e^{Kt} area / eta_bar and the 2x initial-value sanity cap,
    over t <= t_bar/2 and levels {-delta0/4, 0, delta0/4}."""
    ctx, traj = _context(traj, init)
    window = 0.5 * t_bar
    h, lip = traj.spec.h, init.lipschitz
    floor = h * lip
    levels = [f * init.delta0 for f in LEVELS_FRACTION]

    eta_bar = _eta_bar(ctx, eta_sched, window, floor)
    slack = h * lip

    rows = []
    initial = {}
    ok_coarea = True
    ok_double = True
    for k, t in enumerate(traj.times):
        if t > window + 1e-12:
            break
        for level, contour in zip(levels, ctx.contours(k, levels)):
            perim = contour.perimeter()
            area = ctx.area(k, level)
            bound = 2.0 * lip * np.exp(K_fit * float(t)) * area / eta_bar
            margin = bound - perim
            rows.append((float(t), perim, bound, margin))
            if level not in initial:
                initial[level] = perim
            if margin < -slack:
                ok_coarea = False
            if perim > 2.0 * initial[level] + slack:
                ok_double = False

    return VerificationReport(
        name="perimeter",
        passed=bool(ok_coarea and ok_double),
        rows=rows,
        constants={
            "eta_bar": eta_bar,
            "k_fit": float(K_fit),
            "window": window,
            "slack": slack,
            "ok_coarea": float(ok_coarea),
            "ok_initial_doubling": float(ok_double),
        },
    )


# ---------------------------------------------------------------------------
# band measures


def band_measure_report(
    traj: Trajectory, init: InitCondition, eta_sched: EtaSchedule, t_bar: float,
) -> VerificationReport:
    """One-sided band areas |{-delta <= u < 0}| across delta, with the
    linearity check measure/delta spread < 2, the fitted M4, and the
    Green-weighted M5 variant integrated at the origin.

    delta grid: {2h, 4h, delta0/8, delta0/4} with sub-resolution values
    (< 2h) dropped.
    """
    ctx, traj = _context(traj, init)
    spec = traj.spec
    h, lip = spec.h, init.lipschitz
    floor = h * lip
    deltas = _band_deltas(h, init.delta0)

    window_times = [t for t in traj.times if t <= t_bar + 1e-12]
    eta_bar = _eta_bar(ctx, eta_sched, t_bar, floor)

    raw_rows = []
    m4 = 0.0
    spread = 1.0
    for k, t in enumerate(traj.times):
        if t > t_bar + 1e-12:
            break
        ratios = []
        for d in deltas:
            area = ctx.area(k, -d) - ctx.area(k, 0.0)
            m4 = max(m4, area * eta_bar / d)
            ratios.append(area / d)
            raw_rows.append((float(t), area, d))
        ratios = [r for r in ratios if r > 0]
        if len(ratios) >= 2:
            spread = max(spread, max(ratios) / min(ratios))
    rows = [
        (t, area, m4 * d / eta_bar, m4 * d / eta_bar - area)
        for (t, area, d) in raw_rows
    ]

    # Green-weighted variant at the end of the window
    t_end = window_times[-1]
    x0 = np.zeros(2)
    m5 = 0.0
    green_ratios = []
    if t_end > 0:
        # the heat-kernel average of each band at every stored time, the
        # kernel weights built once per time
        slices = {d: [] for d in deltas}
        for s, snap in zip(traj.times, traj.snapshots):
            if s > t_end + 1e-12:
                break
            average = gauss_average(spec, x0, t_end - s)
            for d in deltas:
                indicator = ((snap.values >= -d) & (snap.values < 0.0)).astype(np.float64)
                slices[d].append(average(indicator))
        for d in deltas:
            w = float(trapezoid(slices[d], [s for s in traj.times if s <= t_end + 1e-12]))
            green_ratios.append(w / d)
            m5 = max(m5, w * eta_bar / (d * t_end))
    g_pos = [r for r in green_ratios if r > 0]
    green_spread = max(g_pos) / min(g_pos) if len(g_pos) >= 2 else 1.0

    ok_linear = spread < 2.0
    ok_green = bool(np.isfinite(m5)) and green_spread < 2.0
    return VerificationReport(
        name="band_measure",
        passed=bool(ok_linear and ok_green),
        rows=rows,
        constants={
            "m4_emp": m4,
            "m5_emp": m5,
            "eta_bar": eta_bar,
            "ratio_spread": spread,
            "green_spread": green_spread,
            "deltas_used": float(len(deltas)),
            "ok_linear": float(ok_linear),
            "ok_green": float(ok_green),
        },
    )


def fattening_report(traj: Trajectory, init: InitCondition, t_bar: float) -> VerificationReport:
    """Two-sided slab areas |{|u| <= eps}| fitted linearly in eps over
    {2h, 4h, 8h}; the front has not fattened while the fit intercept stays
    below 2 h perimeter."""
    ctx, traj = _context(traj, init)
    h = traj.spec.h
    eps_grid = _slab_eps(h)

    rows = []
    passed = True
    max_slope = 0.0
    for k, t in enumerate(traj.times):
        if t > t_bar + 1e-12:
            break
        areas = np.array([ctx.area(k, -e) - ctx.area(k, e) for e in eps_grid])
        slope, intercept = np.polyfit(eps_grid, areas, 1)
        perim = ctx.contour(k, 0.0).perimeter()
        bound = 2.0 * h * perim
        margin = bound - float(intercept)
        rows.append((float(t), float(intercept), bound, margin))
        max_slope = max(max_slope, float(slope))
        if margin < 0.0:
            passed = False

    return VerificationReport(
        name="non_fattening",
        passed=bool(passed),
        rows=rows,
        constants={"max_slope": max_slope, "eps_min": float(eps_grid[0]),
                   "eps_max": float(eps_grid[-1])},
    )


# ---------------------------------------------------------------------------
# continuous dependence on the occupation history


def continuous_dependence_report(
    traj1: Trajectory, traj2: Trajectory, kappa_per_time=None,
    kappa1: float = None, kappa2: float = None, name: str = "continuous_dependence",
) -> VerificationReport:
    """Fit the smallest M1 with sup|u1 - u2|(t) - sup|u1 - u2|(0)
    <= M1 (kappa1 t + sqrt(kappa2 t)).

    kappa1 defaults to the sup of kappa_per_time, kappa2 to kappa1^2
    (both overridable to probe degenerate branches).  M1 is infinite only
    when the gap grows while both kappas vanish.
    """
    if not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories must share stored times")
    if kappa1 is None:
        if kappa_per_time is None:
            raise ValueError("need kappa_per_time or explicit kappa1")
        kappa1 = float(np.max(kappa_per_time))
    if kappa2 is None:
        kappa2 = kappa1 ** 2

    gaps = solution_gaps(traj1, traj2)
    base = gaps[0]
    h = traj1.spec.h

    m1 = 0.0
    rows = []
    for t, gap in zip(traj1.times, gaps):
        if t <= 0:
            rows.append((float(t), float(gap - base), 0.0, 0.0))
            continue
        denom = kappa1 * t + np.sqrt(kappa2 * t)
        grown = gap - base
        if denom > 0:
            m1 = max(m1, grown / denom)
        elif grown > h * h:
            m1 = np.inf
        rows.append((float(t), float(grown), float(denom), float(denom - grown)))

    # rescale rows so bound = M1 * denom and margin is against that bound
    rows = [
        (t, g, m1 * d if np.isfinite(m1) else np.inf,
         (m1 * d - g) if np.isfinite(m1) else -np.inf)
        for (t, g, d, _) in rows
    ]
    passed = bool(np.isfinite(m1))
    return VerificationReport(
        name=name,
        passed=passed,
        rows=rows,
        constants={"m1_fit": m1, "kappa1": kappa1, "kappa2": kappa2,
                   "initial_gap": float(base)},
    )


def dependence_stability(full: VerificationReport, halved: VerificationReport):
    """Relative change of M1 when the occupation perturbation is halved;
    stable (< 50%) means the fitted constant is a genuine constant."""
    m_full = full.constants["m1_fit"]
    m_half = halved.constants["m1_fit"]
    if not (np.isfinite(m_full) and np.isfinite(m_half)) or m_full == 0.0:
        return np.inf, False
    change = abs(m_half - m_full) / m_full
    return float(change), bool(change < 0.5)


def _dependence_reports(ctx: CheckContext):
    """Frozen-occupation perturbation pair of a run: the run's coupling
    driven by the discs r0, r0+2h and r0+h, reported as dependence (2h)
    and dependence_half (h)."""
    config, coupling, init = ctx.config, ctx.coupling, ctx.init
    spec = init.u0.spec
    h = spec.h
    times = _normalise_output_times(config.times(), config.horizon)

    def disc_hist(radius):
        chi = ScalarField(spec, (spec.radius() <= radius).astype(np.float64))
        return constant_history(chi, times)

    hists = {dr: disc_hist(init.r0 + dr) for dr in (0.0, h, 2.0 * h)}
    trajs = {
        dr: march_solve(
            coupling, init.u0, config.gamma, config.horizon, output_times=times, chi_hist=hist,
        ).u_traj
        for dr, hist in hists.items()
    }

    def pair_report(dr, name):
        k = kappa(hists[0.0].fields[0], hists[dr].fields[0])
        return continuous_dependence_report(
            trajs[0.0], trajs[dr], kappa_per_time=[k] * len(times), name=name
        )

    full = pair_report(2.0 * h, "dependence")
    half = pair_report(h, "dependence_half")
    change, stable = dependence_stability(full, half)
    full.constants["m1_half"] = half.constants["m1_fit"]
    full.constants["stability_change"] = change
    full.constants["ok_stable"] = float(stable)
    full.passed = bool(full.passed and stable)
    if not stable:
        full.notes.append("M1 fit moved by >= 50% when the perturbation halved")
    return [full, half]


# ---------------------------------------------------------------------------
# star-shapedness along the flow


def star_shape_report(
    traj: Trajectory, init: InitCondition, slack: float = None,
) -> VerificationReport:
    """Radial margin [u((1-lam)x, t) - u(x, t)] / lam at lam = lambda_bar/2
    over the band {|u| <= delta0/4}, for every stored time.

    Unlike the t_bar-limited checks this one is global in time: the volume
    law is expected to preserve star-shapedness on all of [0, T] for small
    gamma.  Pass iff every margin >= eta0/2 - slack.  Every band node of a
    batch of snapshots is pulled in one interpolation (`CheckContext.bands`).
    """
    ctx, traj = _context(traj, init)
    h = traj.spec.h
    if slack is None:
        slack = 3.0 * init.lipschitz * h
    lam = 0.5 * init.lambda_bar
    bound = 0.5 * init.eta0

    # the band minimum of the margin of every snapshot, a batch at a time
    measured = []
    for _, band in ctx.bands():
        pulled = interpolate(band.stack, (1.0 - lam) * band.points, band.snapshot)
        q = (pulled - band.values) / lam
        measured.extend(band.minima(q, band.snapshot).tolist())

    rows = []
    passed = True
    for t, least in zip(traj.times, measured):
        if np.isnan(least):
            rows.append((float(t), bound, bound, 0.0))
            continue
        margin = least - bound
        rows.append((float(t), least, bound, margin))
        if margin < -slack:
            passed = False

    return VerificationReport(
        name="star_shape",
        passed=bool(passed),
        rows=rows,
        constants={"lambda": lam, "eta0_half": bound, "slack": slack},
    )


def gamma_sweep_star_shape(
    coupling, init: InitCondition, gammas, horizon: float,
    output_times=None, run: CheckContext = None,
):
    """March the coupled flow for each gamma and report the largest one that
    keeps the star-shape margin; escapes and instabilities count as fails.
    run, the context of a causal march of the same coupling and init (a
    run's own), stands in for the sweep's march at its gamma when its stored
    times are the sweep's, and its star-shape report for the sweep's.

    Returns (gamma_bar_emp, {gamma: VerificationReport-or-error-string}).
    """
    results = {}
    gamma_bar = None
    for gamma in sorted(float(g) for g in gammas):
        if run is not None and reuses_march(run.traj, gamma, horizon, output_times):
            report = run.star_shape
        else:
            try:
                sol = march_solve(coupling, init.u0, gamma, horizon, output_times=output_times)
            except (FrontEscapeError, StabilityError) as err:
                results[gamma] = f"error: {err}"
                continue
            report = star_shape_report(sol.u_traj, init)
        results[gamma] = report
        if report.passed:
            gamma_bar = gamma
    return gamma_bar, results


# ---------------------------------------------------------------------------
# the check table

# name -> (reports(ctx) -> [VerificationReport], needs_solves, min_times), in
# the order a run computes and writes them.  Checks that need solves beyond
# the stored trajectory are skipped when a run directory is re-verified.
# min_times counts the stored times a check needs: every run stores 0 and
# the horizon, and cone and perimeter read CheckContext.K_fit, whose
# regularity fit needs 3.
CHECKS = {
    "key_estimate": (lambda c: [c.key_estimate[1]], False, 2),
    "lower_gradient": (
        lambda c: [lower_gradient_report(c, c.init, c.schedule, t_bar=c.t_bar)], False, 2),
    "cone": (lambda c: [cone_report(c, c.init, c.schedule, c.K_fit, t_bar=c.t_bar)], False, 3),
    "perimeter": (
        lambda c: [perimeter_report(c, c.init, c.schedule, c.K_fit, t_bar=c.t_bar)], False, 3),
    "band_measure": (
        lambda c: [band_measure_report(c, c.init, c.schedule, t_bar=c.t_bar)], False, 2),
    "non_fattening": (
        lambda c: [fattening_report(c, c.init, t_bar=c.t_bar)], False, 2),
    "star_shape": (lambda c: [c.star_shape], False, 2),
    "dependence": (_dependence_reports, True, 2),
}
DEFAULT_CHECKS = tuple(CHECKS)[:6]   # star_shape and dependence run on request
