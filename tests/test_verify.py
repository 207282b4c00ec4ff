"""Measured-inequality reports: schedules, serialization, and the detectors.

Closed forms for the unit-slope disc u = clip(r0 - |x|) with radial nu = -x,
all on the 101-node grid (h = 0.03, r0 = 0.6, delta0 = 0.2):

* the push quotient [u(x + lam nu) - u(x)] / lam equals |x| off the clamp,
  so eta_emp = min |x| over the band {|u| <= delta0/4} = r0 - delta0/4;
* constant-speed flows keep the unit slope, so eta_emp(t) tracks the front
  radius: constant under c = 0, linearly decaying under c = -1;
* |{-d <= u < 0}| = pi d (2 r0 + d), so the per-delta band ratios are flat;
* |{|u| <= eps}| = 4 pi r0 eps, a zero-intercept line in eps.

Every adversarial case below must make its report fail: a detector that
cannot fail verifies nothing.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from frontlab.couplings import ConstantCoupling
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec, ScalarField, batches, central_gradient_norm, constant_field
from frontlab.grid import interpolate
from frontlab.solver import Trajectory, solve
from frontlab.verify import (
    Band,
    CheckContext,
    LEVELS_FRACTION,
    EtaSchedule,
    VerificationReport,
    band_etas,
    band_measure_report,
    cone_report,
    continuous_dependence_report,
    dependence_stability,
    dump_report,
    eta_empirical,
    fattening_report,
    gamma_sweep_star_shape,
    key_estimate_report,
    lower_gradient_report,
    perimeter_report,
    report_texts,
    star_shape_report,
)
from stored_reports import load_report

SPEC = GridSpec(101, 1.5)
TIMES = [0.0, 0.025, 0.05, 0.075, 0.1]


def _run(u0, c, times, gamma=0.0):
    return solve(u0, lambda t0, t1, u: lambda t: c, gamma, float(times[-1]), times)


def _disc(r):
    return ScalarField(SPEC, np.clip(r - SPEC.radius(), -1.0, 1.0))


def _hand_traj(times, snapshots):
    return Trajectory(
        times=np.asarray(times, dtype=np.float64), snapshots=list(snapshots),
        dt_used=[0.0] * len(snapshots), lipschitz_log=[1.0] * len(snapshots), gamma=0.0,
    )


def _tamper_last(traj, edit):
    """Copy of traj with edit(values) applied to the final snapshot."""
    vals = traj.snapshots[-1].values.copy()
    edit(vals)
    snaps = list(traj.snapshots[:-1]) + [ScalarField(SPEC, vals)]
    return _hand_traj(traj.times, snaps)


@pytest.fixture(scope="module")
def init():
    return star_shaped_u0(SPEC, [(0.0, 0.0)], 0.6)


@pytest.fixture(scope="module")
def frozen(init):
    return _run(init.u0, 0.0, TIMES)


@pytest.fixture(scope="module")
def shrink(init):
    return _run(init.u0, -1.0, TIMES)


@pytest.fixture(scope="module")
def grow(init):
    return _run(init.u0, 1.0, TIMES)


@pytest.fixture(scope="module")
def off_centre(init):
    """A held disc of radius 0.3 at (1.15, 0.2) under init's radial nu,
    whose front comes within 0.05 of the edge x = 1.5: cones of the outer
    level, flipped outward, leave the domain."""
    x, y = SPEC.meshgrid()
    u = ScalarField(SPEC, np.clip(0.3 - np.hypot(x - 1.15, y - 0.2), -1.0, 1.0))
    return _hand_traj(TIMES, [u] * len(TIMES)), replace(init, u0=u)


# ---------------------------------------------------------------------------
# schedule and report plumbing
# ---------------------------------------------------------------------------


def test_schedule_positivity_horizon():
    sched = EtaSchedule(0.4, 0.2)
    assert sched.t_bar == pytest.approx((0.4 / 0.2) ** 2, rel=1e-12)
    assert sched.eta(0.0) == pytest.approx(0.4)
    assert sched.eta(sched.t_bar) == pytest.approx(0.0, abs=1e-15)
    assert sched.eta(-1.0) == pytest.approx(0.4)  # clamped below t = 0
    assert EtaSchedule(0.4, 0.0).t_bar == np.inf
    assert EtaSchedule(0.4, -0.1).t_bar == np.inf


def test_report_round_trip(tmp_path):
    rep = VerificationReport(
        name="synthetic",
        passed=False,
        rows=[(0.0, 1.0, 2.0, 1.0), (0.1, -3.5e-17, 0.25, 0.25 + 3.5e-17)],
        constants={"m_fit": 0.125, "slack": 3e-2},
        notes=["hand-made row set"],
    )
    dump_report(rep, tmp_path)
    back = load_report(tmp_path, "synthetic")
    assert back.passed is False
    assert back.constants == rep.constants
    assert back.notes == rep.notes
    # %.17g reproduces doubles exactly
    for got, want in zip(back.rows, rep.rows):
        assert got == want
    text = (tmp_path / "synthetic.verdict").read_text()
    assert "passed = false" in text


def test_report_round_trip_keeps_nan_constants(tmp_path, frozen, init):
    _, rep = key_estimate_report(frozen, init)
    assert math.isnan(rep.constants["decay_exponent"])
    dump_report(rep, tmp_path)
    back = load_report(tmp_path, "key_estimate")
    assert math.isnan(back.constants["decay_exponent"])
    assert any("exponent" in note for note in back.notes)


def test_verdict_line_and_min_margin():
    ok = VerificationReport("a", True, [(0.0, 1.0, 0.5, 0.5)], {})
    bad = VerificationReport("b", False, [], {})
    assert ok.verdict_line() == "PASS a"
    assert bad.verdict_line() == "FAIL b"
    assert ok.min_margin() == pytest.approx(0.5)
    assert bad.min_margin() == np.inf


def test_load_rejects_foreign_header(tmp_path):
    (tmp_path / "rogue.csv").write_text("t,x,y\n0,1,2\n")
    with pytest.raises(ValueError):
        load_report(tmp_path, "rogue")


# ---------------------------------------------------------------------------
# empirical margin
# ---------------------------------------------------------------------------


def test_eta_empirical_matches_band_radius(init):
    assert eta_empirical(init.u0, init) == pytest.approx(0.55, abs=0.01)
    # the band widened to delta0 reaches down to |x| = r0 - delta0
    wide = eta_empirical(init.u0, init, band_width=init.delta0)
    assert wide == pytest.approx(0.4, abs=0.01)


def test_eta_empirical_drops_nonpositive_lambdas(init):
    lam = init.lambda_bar
    with_zero = eta_empirical(init.u0, init, lambdas=[0.0, lam])
    assert with_zero == eta_empirical(init.u0, init, lambdas=[lam])


def test_eta_empirical_empty_band_is_nan(init):
    assert math.isnan(eta_empirical(constant_field(SPEC, -1.0), init))


def _reference_direction(spec):
    """The radial direction field nu = -x as the (n, n, 2) array of its
    components at the nodes, the way the checks once stored it."""
    x, y = spec.meshgrid()
    return np.stack([-x, -y], -1)


def _reference_sup_norm(spec):
    """||nu||_inf measured on the nodes of _reference_direction."""
    nu = _reference_direction(spec)
    return float(np.hypot(nu[..., 0], nu[..., 1]).max())


def _reference_eta_empirical(u, init, lambdas, band_width):
    """One push along the gathered _reference_direction and one
    interpolation per lambda."""
    band = np.abs(u.values) <= band_width
    x, y = u.spec.meshgrid()
    best = np.inf
    for lam in lambdas:
        if lam <= 0.0:
            continue
        pts = np.column_stack([x[band], y[band]]) + lam * _reference_direction(u.spec)[band]
        inside = np.max(np.abs(pts), axis=1) <= u.spec.half_extent
        q = (interpolate(u, pts[inside]) - u.values[band][inside]) / lam
        if q.size:
            best = min(best, float(q.min()))
    return best if np.isfinite(best) else np.nan


def test_eta_empirical_matches_reference_bitwise(shrink, init):
    # lambdas up to 2.5 push part of the band out of the domain
    off_centre = star_shaped_u0(SPEC, [(0.5, 0.2)], 0.6)
    cases = [(snap, init) for snap in shrink.snapshots] + [(off_centre.u0, off_centre)]
    for u, owner in cases:
        for lambdas, width in (([0.1, 0.2, 0.3], 0.05), ([0.0, 0.5, 2.5], 0.2), ([3.0], 0.05)):
            got = eta_empirical(u, owner, lambdas=lambdas, band_width=width)
            want = _reference_eta_empirical(u, owner, lambdas, width)
            assert np.array_equal(np.float64(got).view(np.uint64),
                                  np.float64(want).view(np.uint64)), (lambdas, width)


# ---------------------------------------------------------------------------
# the band of a batch of snapshots: every measurement batched equals the
# same measurement one snapshot at a time, the parent formulas below
# ---------------------------------------------------------------------------


def _batch_trajectory(n):
    """(trajectory, init) at grid size n: 13 snapshots of a disc shrinking
    from r0 = 0.6, under init's radial nu, with an empty band at index 4 and
    a disc near the edge x = 1.5 at index 9, whose long pushes leave the
    domain."""
    spec = GridSpec(n, 1.5)
    owner = star_shaped_u0(spec, [(0.0, 0.0)], 0.6)
    x, y = spec.meshgrid()
    snaps = [ScalarField(spec, np.clip(r - np.hypot(x, y), -1.0, 1.0))
             for r in np.linspace(0.6, 0.4, 13)]
    snaps[4] = constant_field(spec, -1.0)
    snaps[9] = ScalarField(spec, np.clip(0.3 - np.hypot(x - 1.15, y - 0.2), -1.0, 1.0))
    return _hand_traj(np.linspace(0.0, 0.12, 13), snaps), owner


def _bits(rows):
    return np.asarray(rows, dtype=np.float64).view(np.uint64)


def _reference_lower_gradient_rows(traj, init, sched, t_bar):
    """lower_gradient's rows one snapshot at a time, on the full-grid |Du|,
    against the measured ||nu||_inf."""
    nu_sup = max(_reference_sup_norm(traj.spec), 1e-12)
    rows = []
    for t, snap in zip(traj.times, traj.snapshots):
        if t > t_bar + 1e-12:
            break
        band = np.abs(snap.values) < init.delta0 / 4.0
        bound = max(float(sched.eta(t)), 0.0) / nu_sup
        if not band.any():
            rows.append((float(t), 0.0, bound, 0.0))
            continue
        measured = float(central_gradient_norm(snap)[band].min())
        rows.append((float(t), measured, bound, measured - bound))
    return rows


def _reference_star_shape_rows(traj, init):
    """star_shape's rows one snapshot at a time."""
    lam = 0.5 * init.lambda_bar
    x, y = traj.spec.meshgrid()
    bound = 0.5 * init.eta0
    rows = []
    for t, snap in zip(traj.times, traj.snapshots):
        band = np.abs(snap.values) <= init.delta0 / 4.0
        if not band.any():
            rows.append((float(t), bound, bound, 0.0))
            continue
        pulled = interpolate(snap, (1.0 - lam) * np.column_stack([x[band], y[band]]))
        measured = float(((pulled - snap.values[band]) / lam).min())
        rows.append((float(t), measured, bound, measured - bound))
    return rows


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
def test_batched_eta_equals_one_snapshot_at_a_time(n):
    traj, owner = _batch_trajectory(n)
    ctx = CheckContext(traj, owner)
    width = owner.delta0 / 4.0
    default = owner.lambda_bar * np.arange(1, 5) / 4.0
    got = [ctx.eta(k, owner.lambda_bar) for k in range(13)]
    want = [_reference_eta_empirical(u, owner, default, width) for u in traj.snapshots]
    assert _bits(got).tolist() == _bits(want).tolist()
    assert math.isnan(got[4])   # the empty band
    # non-positive lambdas dropped, a push to 2.5 leaving the domain near the
    # edge, and a push to 40 that leaves it everywhere
    for lambdas in ([0.0, -0.5, 0.1, 2.5], [40.0], [0.0]):
        batched = np.concatenate([band_etas(band, owner, lambdas) for _, band in ctx.bands()])
        alone = [_reference_eta_empirical(u, owner, lambdas, width) for u in traj.snapshots]
        assert _bits(batched).tolist() == _bits(alone).tolist(), lambdas
        single = [eta_empirical(u, owner, lambdas) for u in traj.snapshots]
        assert _bits(single).tolist() == _bits(alone).tolist(), lambdas
    assert np.isnan(band_etas(ctx.bands()[0][1], owner, [40.0])).all()


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
def test_batched_lower_gradient_equals_one_snapshot_at_a_time(n):
    traj, owner = _batch_trajectory(n)
    sched = EtaSchedule(0.5, 0.3)
    for t_bar in (traj.times[-1], traj.times[6], traj.times[0], -1.0):
        got = lower_gradient_report(CheckContext(traj, owner), owner, sched, t_bar=t_bar).rows
        want = _reference_lower_gradient_rows(traj, owner, sched, t_bar)
        assert len(got) == len(want) == int(np.sum(traj.times <= t_bar + 1e-12))
        assert _bits(got).tolist() == _bits(want).tolist(), t_bar
    assert got == [] and want == []


@pytest.mark.parametrize("n", [33, 49, 65, 101, 201])
def test_batched_star_shape_equals_one_snapshot_at_a_time(n):
    traj, owner = _batch_trajectory(n)
    rows = star_shape_report(traj, owner).rows
    assert _bits(rows).tolist() == _bits(_reference_star_shape_rows(traj, owner)).tolist()
    assert rows[4] == (traj.times[4], 0.5 * owner.eta0, 0.5 * owner.eta0, 0.0)


def test_band_is_built_once_per_batch_and_shared(shrink, init, monkeypatch):
    # eta, the lower gradient and the star shape of one context read one
    # band per batch of snapshots
    import frontlab.verify

    built = []

    class Counted(Band):
        def __init__(self, fields, width):
            built.append([id(u) for u in fields])
            super().__init__(fields, width)

    monkeypatch.setattr(frontlab.verify, "Band", Counted)
    ctx = CheckContext(shrink, init)
    ctx.key_estimate
    lower_gradient_report(ctx, init, ctx.schedule, t_bar=ctx.t_bar)
    ctx.star_shape
    assert built == [[id(u) for u in shrink.snapshots[span.start:span.stop]]
                     for span in batches(len(shrink.times), SPEC.n)]


def test_geometry_calls_per_snapshot(shrink, init, monkeypatch):
    # one stacked area pass per snapshot for every level the checks read;
    # one contour extraction per context, which chains every snapshot's
    # levels in one pass after classifying each batch of snapshots once;
    # one interpolation per snapshot for the cone points, and none for the
    # cones' axes, which are -z at each vertex z; one per batch of
    # snapshots for every eta of the context
    import frontlab.contour
    import frontlab.verify

    calls = []

    def recorded(name, fn):
        def wrapped(u, arg, *rest):
            calls.append((name, np.ndim(arg), u, rest))
            return fn(u, arg, *rest)
        return wrapped

    for name in ("interpolate", "lebesgue_measure"):
        monkeypatch.setattr(frontlab.verify, name, recorded(name, getattr(frontlab.verify, name)))
    monkeypatch.setattr(frontlab.contour, "_classify", recorded("_classify", frontlab.contour._classify))
    extracted = []
    extract_contour = frontlab.verify.extract_contour

    def counted(fields, levels):
        extracted.append(len(fields))
        return extract_contour(fields, levels)

    monkeypatch.setattr(frontlab.verify, "extract_contour", counted)
    ctx = CheckContext(shrink, init, checks=("cone", "perimeter", "band_measure", "non_fattening"))
    sched = EtaSchedule(0.55, 0.0)
    snapshots = len(shrink.times)
    spans = batches(snapshots, SPEC.n)
    t_bar = shrink.times[-1]
    assert ctx.t_bar == t_bar   # so the context reads three levels in every snapshot
    # the key estimate behind t_bar read every eta of the context from one
    # interpolation per batch, reading each snapshot of the batch: every
    # snapshot's eta computed once
    assert [call[:2] for call in calls] == [("interpolate", 3)] * len(spans)
    for call, span in zip(calls, spans):
        assert np.array_equal(call[2].values, np.stack([shrink.snapshots[k].values for k in span]))
        assert np.unique(call[3][0]).tolist() == list(range(len(span)))
    calls.clear()
    [ctx.eta(k, init.lambda_bar) for k in range(snapshots)]
    assert calls == []
    band_measure_report(ctx, init, sched, t_bar=t_bar)
    fattening_report(ctx, init, t_bar=t_bar)
    perimeter_report(ctx, init, sched, K_fit=0.0, t_bar=t_bar)
    areas = [call[:2] for call in calls if call[0] == "lebesgue_measure"]
    assert areas == [("lebesgue_measure", 1)] * snapshots
    assert len(ctx.area_levels) == 9   # 0, +-2h, +-4h, +-8h, +-delta0/4; delta0/8 < 2h
    assert extracted == [snapshots]
    # one classification per batch, which covers the batch's snapshots in
    # order, three levels each: every snapshot classified exactly once
    classified = [call for call in calls if call[0] == "_classify"]
    assert [(call[1], call[3]) for call in classified] == [(1, ([3] * len(span),)) for span in spans]
    stacked = np.concatenate([call[2].values for call in classified])
    assert np.array_equal(stacked, np.stack([u.values for u in shrink.snapshots]))

    calls.clear()
    cone_report(ctx, init, sched, K_fit=0.0, t_bar=t_bar)
    assert [call[:2] for call in calls] == [("interpolate", 2)] * snapshots
    assert extracted == [snapshots]

    # one snapshot's eta, every lambda's pushes in one interpolation
    calls.clear()
    eta_empirical(shrink.snapshots[0], init)
    assert [call[:2] for call in calls] == [("interpolate", 3)]


def test_area_levels_are_those_the_checks_read(shrink, init, monkeypatch):
    import frontlab.verify

    h, delta0 = SPEC.h, init.delta0
    quarter = delta0 / 4.0
    assert CheckContext(shrink, init).area_levels == (0.0,)
    assert CheckContext(shrink, init, checks=("key_estimate", "cone")).area_levels == (0.0,)
    assert CheckContext(shrink, init, checks=("perimeter",)).area_levels == (-quarter, 0.0, quarter)
    assert CheckContext(shrink, init, checks=("band_measure",)).area_levels == (
        -4.0 * h, -2.0 * h, 0.0)   # delta0/8 and delta0/4, below 2h, are dropped
    assert CheckContext(shrink, init, checks=("non_fattening",)).area_levels == tuple(
        f * h for f in (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0))
    every = CheckContext(shrink, init, checks=("perimeter", "band_measure", "non_fattening"))
    assert len(every.area_levels) == 9

    # a level no check names is measured alone on its first read, once, with
    # the bits of a context that lists it
    calls = []
    measure = frontlab.verify.lebesgue_measure
    monkeypatch.setattr(frontlab.verify, "lebesgue_measure",
                        lambda u, levels: calls.append(np.ndim(levels)) or measure(u, levels))
    bare = CheckContext(shrink, init)
    for _ in range(2):
        got = [bare.area(k, level) for k in range(len(shrink.times)) for level in every.area_levels]
    assert calls == ([1] + [0] * (len(every.area_levels) - 1)) * len(shrink.times)
    calls.clear()
    want = [every.area(k, level) for k in range(len(shrink.times)) for level in every.area_levels]
    assert calls == [1] * len(shrink.times)
    assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# key estimate
# ---------------------------------------------------------------------------


def test_key_estimate_frozen_flow(frozen, init):
    sched, rep = key_estimate_report(frozen, init)
    assert rep.passed
    assert rep.constants["eta0_fit"] == pytest.approx(0.545, abs=5e-3)
    assert sched.M2 == pytest.approx(0.0, abs=1e-12)
    assert sched.t_bar == np.inf
    assert rep.constants["fit_residual"] == pytest.approx(0.0, abs=1e-12)
    assert rep.constants["t_bar_emp"] == pytest.approx(TIMES[-1])
    # no decline to fit an exponent to
    assert math.isnan(rep.constants["decay_exponent"])


def test_key_estimate_linear_shrink(init):
    # radius r0 - t, so eta_emp drops linearly and the log-log slope of the
    # drop is 1; the horizon is long enough for three samples to clear the
    # noise floor 2 h ||Du0||_inf = 0.06
    traj = _run(init.u0, -1.0, [0.0, 0.04, 0.08, 0.12, 0.16, 0.2])
    sched, rep = key_estimate_report(traj, init)
    assert rep.passed
    etas = [row[1] for row in rep.rows]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    assert sched.M2 > 0.0
    assert rep.constants["decay_exponent"] == pytest.approx(1.0, abs=0.15)
    assert rep.constants["fit_residual"] < 0.2 * rep.constants["eta0_fit"]


def test_key_estimate_growth_pins_initial_margin(grow, init):
    # expanding front: the nonincreasing model degenerates to the t = 0
    # margin and only violations of that lower bound count as residual
    sched, rep = key_estimate_report(grow, init)
    assert rep.passed
    assert sched.M2 == 0.0
    assert sched.eta0 == pytest.approx(0.545, abs=5e-3)
    assert rep.constants["fit_residual"] == pytest.approx(0.0, abs=1e-12)
    etas = [row[1] for row in rep.rows]
    assert all(b > a for a, b in zip(etas, etas[1:]))


def test_key_estimate_single_snapshot(init):
    traj = _run(init.u0, 0.0, [0.0])
    sched, rep = key_estimate_report(traj, init)
    assert rep.passed
    assert len(rep.rows) == 1
    assert sched.eta0 == pytest.approx(0.545, abs=5e-3)
    assert sched.M2 == 0.0


def test_key_estimate_rejects_uncertified_lambda(frozen, init):
    with pytest.raises(ValueError):
        key_estimate_report(frozen, init, lambda_bar=1.1 * init.lambda0)


def test_key_estimate_keeps_etas_per_lambda_bar(frozen, init):
    # a context shared across lambda_bar values must not hand one value's
    # etas to another
    ctx = CheckContext(frozen, init)
    default = key_estimate_report(ctx, init)[1]
    half = init.lambda_bar / 2
    narrow = key_estimate_report(ctx, init, lambda_bar=half)[1]
    lambdas = half * np.arange(1, 5) / 4.0
    assert [r[1] for r in narrow.rows] == [
        eta_empirical(s, init, lambdas=lambdas) for s in frozen.snapshots
    ]
    assert [r[1] for r in narrow.rows] != [r[1] for r in default.rows]
    assert [r[1] for r in default.rows] == [eta_empirical(s, init) for s in frozen.snapshots]


# ---------------------------------------------------------------------------
# lower gradient
# ---------------------------------------------------------------------------


def test_lower_gradient_unit_slope_passes(frozen, init):
    rep = lower_gradient_report(frozen, init, EtaSchedule(0.55, 0.0), t_bar=frozen.times[-1])
    assert rep.passed
    for _, measured, bound, _ in rep.rows:
        assert measured == pytest.approx(1.0, abs=0.05)
        assert bound == pytest.approx(0.55 / _reference_sup_norm(SPEC), rel=1e-12)
    assert rep.min_margin() > 0.5


def test_lower_gradient_flags_flattened_band(frozen, init):
    # scaling u by 0.01 inside the band flattens its gradient while keeping
    # the same band membership
    width = init.delta0 / 4.0

    def edit(vals):
        band = np.abs(vals) < width
        vals[band] *= 0.01

    rep = lower_gradient_report(
        _tamper_last(frozen, edit), init, EtaSchedule(0.55, 0.0), t_bar=frozen.times[-1]
    )
    assert not rep.passed
    assert rep.min_margin() < -rep.constants["slack"]


def test_lower_gradient_empty_band_vacuous(init):
    traj = _hand_traj([0.0, 0.1], [constant_field(SPEC, -1.0)] * 2)
    rep = lower_gradient_report(traj, init, EtaSchedule(0.55, 0.0), t_bar=0.1)
    assert rep.passed
    assert all(m == 0.0 for _, m, _, _ in rep.rows)


def test_lower_gradient_respects_t_bar(frozen, init):
    rep = lower_gradient_report(frozen, init, EtaSchedule(0.55, 0.0), t_bar=0.05)
    assert [t for t, *_ in rep.rows] == [0.0, 0.025, 0.05]


def test_lower_gradient_measures_band_nodes_only(shrink, init, monkeypatch):
    # |Du| is read at the band nodes alone: no full-grid central stencil
    # runs, and every row equals the band minimum of the full-grid |Du|
    import frontlab.grid

    width = init.delta0 / 4.0
    want = [
        float(frontlab.grid.central_gradient_norm(snap)[np.abs(snap.values) < width].min())
        for snap in shrink.snapshots
    ]

    def refused(*args, **kwargs):
        raise AssertionError("|Du| was measured on the whole grid")

    for name in ("central_gradient_norm", "central_gradients", "_central_difference"):
        monkeypatch.setattr(frontlab.grid, name, refused)
    rep = lower_gradient_report(shrink, init, EtaSchedule(0.55, 0.0), t_bar=shrink.times[-1])
    assert [measured for _, measured, _, _ in rep.rows] == want


# ---------------------------------------------------------------------------
# interior cones
# ---------------------------------------------------------------------------


def test_cone_disc_interior_passes(frozen, init):
    rep = cone_report(frozen, init, EtaSchedule(0.55, 0.0), K_fit=0.0, t_bar=frozen.times[-1])
    assert rep.passed
    assert rep.constants["failure_fraction"] == 0.0
    assert rep.constants["points_tested"] > 1e4
    assert rep.constants["verdict_flips_at_2k"] == 0.0


def test_cone_flipped_axis_fails(frozen, init):
    rep = cone_report(
        frozen, init, EtaSchedule(0.55, 0.0), K_fit=0.0, t_bar=frozen.times[-1], flip_axis=True
    )
    assert rep.name == "cone_flipped"
    assert not rep.passed
    # outward cones point out of the superlevel set almost everywhere
    assert rep.constants["failure_fraction"] > 0.5


def test_cone_zero_direction_skips_vertices(init):
    # u = -1 but for the origin node, which sits at the lowest level: that
    # level's contour has every vertex at the origin, where nu = -z = 0, and
    # the two higher levels have no contour
    vals = np.full((SPEC.n, SPEC.n), -1.0)
    vals[SPEC.n // 2, SPEC.n // 2] = LEVELS_FRACTION[0] * init.delta0
    blind = _hand_traj(TIMES, [ScalarField(SPEC, vals) for _ in TIMES])
    assert SPEC.axis()[SPEC.n // 2] == 0.0
    rep = cone_report(blind, init, EtaSchedule(0.55, 0.0), K_fit=0.0, t_bar=TIMES[-1])
    assert rep.passed  # vacuously: nothing was testable
    assert rep.constants["points_tested"] == 0.0
    assert rep.constants["skipped_zero_axis"] > 0.0


def test_cone_subgrid_height_skipped(frozen, init):
    rep = cone_report(frozen, init, EtaSchedule(1e-4, 0.0), K_fit=0.0, t_bar=frozen.times[-1])
    assert rep.passed
    assert rep.constants["points_tested"] == 0.0
    assert rep.constants["skipped_small_rho"] > 0.0


def test_cone_heights_below_h_build_no_rays(shrink, init, monkeypatch):
    # every height is below h: no ray or cone point is built and nothing is
    # evaluated, neither a snapshot nor the direction field, which is -z at
    # each vertex z; every (snapshot, level) counts two skipped heights and
    # reads the vacuous row
    import frontlab.verify

    def refused(*args):
        raise AssertionError("a cone below h was sampled")

    evaluated = []
    interpolate_ = frontlab.verify.interpolate

    def recorded(u, pts):
        evaluated.append(u)
        return interpolate_(u, pts)

    monkeypatch.setattr(frontlab.verify, "_cone_rays", refused)
    monkeypatch.setattr(frontlab.verify, "_cone_points", refused)
    monkeypatch.setattr(frontlab.verify, "interpolate", recorded)
    t_bar = 0.05
    rep = cone_report(shrink, init, EtaSchedule(1e-4, 0.0), K_fit=0.0, t_bar=t_bar)
    assert evaluated == []
    snapshots = int((shrink.times <= t_bar).sum())
    assert snapshots == 3
    assert rep.constants["points_tested"] == 0.0
    assert rep.constants["skipped_zero_axis"] == 0.0
    assert rep.constants["skipped_small_rho"] == 2 * len(LEVELS_FRACTION) * snapshots
    assert rep.rows == [
        (float(t), 0.0, 0.01, 0.01) for t in shrink.times[:snapshots] for _ in LEVELS_FRACTION
    ]


def _reference_cone(ctx, sched, flip_axis):
    """cone_report's rows and counts one (snapshot, level, K multiple) at a
    time, with each vertex's nu the bilinear interpolation of
    _reference_direction there, a component at a time."""
    import frontlab.verify

    traj, init = ctx.traj, ctx.init
    spec = traj.spec
    h, lip, lam_bar = spec.h, init.lipschitz, init.lambda_bar
    slack = lip * h
    nu = [ScalarField(spec, c) for c in np.moveaxis(_reference_direction(spec), -1, 0)]
    levels = [f * init.delta0 for f in LEVELS_FRACTION]
    totals, fails = {1.0: 0, 2.0: 0}, {1.0: 0, 2.0: 0}
    skipped_axis = skipped_small = 0
    rows = []
    for k, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        if t > ctx.t_bar + 1e-12:
            break
        eta_t = max(float(sched.eta(t)), 0.0)
        for level, contour in zip(levels, ctx.contours(k, levels)):
            z = contour.vertex_array()
            z = z[::int(np.ceil(len(z) / 256))] if len(z) > 256 else z
            if z.size == 0:
                rows.append((float(t), 0.0, 0.01, 0.01))
                continue
            nu_z = np.column_stack([interpolate(c, z) for c in nu])
            norm = np.hypot(nu_z[:, 0], nu_z[:, 1])
            ok = norm > 1e-12
            skipped_axis += int((~ok).sum())
            if not ok.any():
                continue
            heights = [(mult, eta_t * lam_bar / (lip * np.exp(mult * ctx.K_fit * t)))
                       for mult in (1.0, 2.0)]
            sampled = [(mult, rho) for mult, rho in heights if not rho < h]
            skipped_small += 2 - len(sampled)
            if sampled:
                axis = nu_z[ok] / norm[ok][:, None]
                rays = frontlab.verify._cone_rays(
                    -axis if flip_axis else axis, np.minimum(lam_bar * norm[ok], np.pi / 3.0))
            frac = 0.0
            for mult, rho in sampled:
                pts = frontlab.verify._cone_points(z[ok], rays, rho, spec.half_extent)
                bad = int((interpolate(snap, pts) < level - slack).sum())
                totals[mult] += len(pts)
                fails[mult] += bad
                frac = bad / max(len(pts), 1) if mult == 1.0 else frac
            rows.append((float(t), float(frac), 0.01, float(0.01 - frac)))
    return rows, {
        "failure_fraction": fails[1.0] / max(totals[1.0], 1),
        "failure_fraction_2k": fails[2.0] / max(totals[2.0], 1),
        "points_tested": float(totals[1.0]),
        "skipped_zero_axis": float(skipped_axis),
        "skipped_small_rho": float(skipped_small),
    }


def _preset_context(text, n):
    """The check context of a preset's march on an n-node grid."""
    import re

    from frontlab.config import parse_config
    from frontlab.weak import march_solve

    cfg = parse_config(re.sub(r"grid\.n = \d+", f"grid.n = {n}", text))
    spec = cfg.grid()
    init = cfg.build_init(spec)
    sol = march_solve(cfg.build_coupling(spec), init.u0, cfg.gamma, cfg.horizon, cfg.times())
    return CheckContext(sol.u_traj, init, checks=("cone",))


@pytest.mark.parametrize("n", [33, 49, 101, 201])
@pytest.mark.parametrize("preset", ["mcf-circle", "dislocation"])
def test_cone_report_equals_the_interpolated_direction_field(preset, n, monkeypatch):
    # the cone axes -z/|z| and openings differ from the interpolated
    # field's by a few ulps; the counts and the report do not.  The run's
    # own schedule, and a taller one whose cones reach h at every n (the
    # run's stay below h at n = 33 and 49).  mcf-circle starts at r0 = 0.8,
    # since its r0 = 1 front lies in the guard band at n = 33
    import frontlab.verify
    from frontlab.presets import DISLOCATION, MCF_CIRCLE

    rays = []
    cone_rays_ = frontlab.verify._cone_rays

    def recorded(axis, theta):
        rays.append(np.column_stack([axis, theta]))
        return cone_rays_(axis, theta)

    monkeypatch.setattr(frontlab.verify, "_cone_rays", recorded)
    text = {"mcf-circle": MCF_CIRCLE.replace("init.r0 = 1.0", "init.r0 = 0.8"),
            "dislocation": DISLOCATION}[preset]
    ctx = _preset_context(text, n)
    tall = EtaSchedule(2.0, 0.0)
    for sched in (ctx.schedule, tall):
        for flip_axis in (False, True):
            rep = cone_report(ctx, ctx.init, sched, ctx.K_fit, ctx.t_bar, flip_axis=flip_axis)
            got, rays[:] = list(rays), []
            rows, counts = _reference_cone(ctx, sched, flip_axis)
            assert _bits(rep.rows).tolist() == _bits(rows).tolist()
            assert {key: rep.constants[key] for key in counts} == counts
            assert counts["points_tested"] > 0.0 or sched is not tall
            assert len(got) == len(rays)
            for mine, theirs in zip(got, rays):
                assert np.allclose(mine, theirs, rtol=0.0, atol=1e-14)
            rays.clear()


@pytest.mark.parametrize("flip_axis", [False, True], ids=["inward", "flipped"])
def test_cone_equal_heights_share_one_sample(frozen, init, monkeypatch, flip_axis):
    # with K_fit = 0 the heights of K and 2K are the same float at every
    # time: each (snapshot, level) samples its cone points once, each
    # snapshot evaluates only those, and both counts read the same values
    import frontlab.verify

    sampled, evaluated = [], []
    cone_points_ = frontlab.verify._cone_points
    interpolate_ = frontlab.verify.interpolate

    def cone_points(*args):
        sampled.append(cone_points_(*args))
        return sampled[-1]

    def recorded(u, pts):
        evaluated.append(len(pts))
        return interpolate_(u, pts)

    monkeypatch.setattr(frontlab.verify, "_cone_points", cone_points)
    monkeypatch.setattr(frontlab.verify, "interpolate", recorded)
    rep = cone_report(frozen, init, EtaSchedule(0.55, 0.0), K_fit=0.0,
                      t_bar=frozen.times[-1], flip_axis=flip_axis)
    assert len(sampled) == len(frozen.times) * len(LEVELS_FRACTION)
    assert len(evaluated) == len(frozen.times)
    tested = rep.constants["points_tested"]
    assert tested > 1e4
    # K and 2K together count 2 x points_tested, from half as many points
    assert sum(evaluated) == sum(len(p) for p in sampled) == tested
    verdict = dict(
        line.split(" = ", 1) for line in report_texts(rep)[1].splitlines() if " = " in line
    )
    assert verdict["failure_fraction_2k"] == verdict["failure_fraction"]
    assert float(verdict["verdict_flips_at_2k"]) == 0.0
    assert (float(verdict["failure_fraction"]) > 0.5) == flip_axis


def _reference_cone_points(z, axis, theta, rho):
    """The cone samples as first written, rays rebuilt for every height:
    radii rho {1/4..1}, angles theta {-1,-1/2,0,1/2,1}."""
    fr = np.array([0.25, 0.5, 0.75, 1.0])
    fa = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    ang = theta[:, None] * fa[None, :]                       # (m, 5)
    ca, sa = np.cos(ang), np.sin(ang)
    dx = ca * axis[:, 0:1] - sa * axis[:, 1:2]               # rotated axes
    dy = sa * axis[:, 0:1] + ca * axis[:, 1:2]
    px = z[:, 0:1, None] + rho * fr[None, None, :] * dx[:, :, None]
    py = z[:, 1:1 + 1, None] + rho * fr[None, None, :] * dy[:, :, None]
    return np.stack([px, py], axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("flip_axis", [False, True], ids=["inward", "flipped"])
@pytest.mark.parametrize("case", ["shrink", "frozen", "off_centre"])
def test_cone_report_matches_reference_bitwise(request, init, monkeypatch, case, flip_axis):
    # K = 5 puts the doubled-K height below h at t = 0.1 only, so both
    # heights and the skip between them are sampled
    import frontlab.verify

    if case == "off_centre":
        traj, owner = request.getfixturevalue("off_centre")
    else:
        traj, owner = request.getfixturevalue(case), init
    evaluated = []
    interpolate_ = frontlab.verify.interpolate

    def recorded(u, pts):
        evaluated.append(np.asarray(pts).tobytes())
        return interpolate_(u, pts)

    def texts_and_points():
        evaluated.clear()
        rep = cone_report(traj, owner, EtaSchedule(0.55, 0.0), K_fit=5.0,
                          t_bar=traj.times[-1], flip_axis=flip_axis)
        return report_texts(rep), list(evaluated)

    monkeypatch.setattr(frontlab.verify, "interpolate", recorded)
    got = texts_and_points()
    dropped = []

    def reference(z, rays, rho, half_extent):
        pts = _reference_cone_points(z, *rays, rho)
        inside = np.max(np.abs(pts), axis=1) <= half_extent
        dropped.append(int((~inside).sum()))
        return pts[inside]

    monkeypatch.setattr(frontlab.verify, "_cone_rays", lambda axis, theta: (axis, theta))
    monkeypatch.setattr(frontlab.verify, "_cone_points", reference)
    want = texts_and_points()
    assert got == want
    assert "skipped_small_rho = 3" in want[0][1]
    assert (sum(dropped) > 0) == (case == "off_centre" and flip_axis)



# ---------------------------------------------------------------------------
# perimeter
# ---------------------------------------------------------------------------


def test_perimeter_coarea_bound_shrinking_disc(shrink, init):
    rep = perimeter_report(shrink, init, EtaSchedule(0.55, 0.0), K_fit=0.0, t_bar=shrink.times[-1])
    assert rep.passed
    assert rep.constants["ok_coarea"] == 1.0
    assert rep.constants["ok_initial_doubling"] == 1.0
    # window minimum of the measured margin: eta_emp at t = 0.05
    assert rep.constants["eta_bar"] == pytest.approx(0.49, abs=0.02)


def test_perimeter_schedule_capped_by_measured_margin(frozen, init):
    # an overstated schedule must not inflate the co-area divisor
    rep = perimeter_report(frozen, init, EtaSchedule(5.0, 0.0), K_fit=0.0, t_bar=frozen.times[-1])
    assert rep.constants["eta_bar"] == pytest.approx(0.545, abs=5e-3)
    assert rep.passed


def test_perimeter_flags_doubling(init):
    traj = _hand_traj([0.0, 0.1], [_disc(0.3), _disc(0.7)])
    rep = perimeter_report(traj, init, EtaSchedule(0.25, 0.0), K_fit=0.0, t_bar=0.2)
    assert not rep.passed
    assert rep.constants["ok_initial_doubling"] == 0.0
    assert rep.constants["ok_coarea"] == 1.0


# ---------------------------------------------------------------------------
# band measures
# ---------------------------------------------------------------------------


def test_band_measure_disc_linear_in_delta(frozen, init):
    rep = band_measure_report(frozen, init, EtaSchedule(0.55, 0.0), t_bar=frozen.times[-1])
    assert rep.passed
    # delta0/8 and delta0/4 fall below the 2h resolution cut on this grid
    assert rep.constants["deltas_used"] == 2.0
    assert rep.constants["ratio_spread"] < 1.2
    assert rep.constants["green_spread"] < 1.5
    # area/delta ~ pi (2 r0 + delta), eta_bar ~ 0.545
    assert rep.constants["m4_emp"] == pytest.approx(2.26, rel=0.05)
    assert rep.constants["m5_emp"] == pytest.approx(0.387, rel=0.1)


def test_band_measure_flags_flat_shelf(frozen, init):
    # a shelf at u = -0.09 sits inside the 4h band but not the 2h band, so
    # only the larger delta picks up its area and linearity breaks
    def edit(vals):
        x, y = SPEC.meshgrid()
        vals[(x >= 0.75) & (x <= 1.45) & (np.abs(y) <= 0.4)] = -0.09

    rep = band_measure_report(
        _tamper_last(frozen, edit), init, EtaSchedule(0.55, 0.0), t_bar=frozen.times[-1]
    )
    assert not rep.passed
    assert rep.constants["ok_linear"] == 0.0
    assert rep.constants["ratio_spread"] > 2.0


# ---------------------------------------------------------------------------
# non-fattening
# ---------------------------------------------------------------------------


def test_fattening_linear_slab_zero_intercept(shrink, init):
    rep = fattening_report(shrink, init, t_bar=shrink.times[-1])
    assert rep.passed
    for _, intercept, bound, _ in rep.rows:
        assert abs(intercept) < 0.02
        assert bound > 0.1
    # slab area 4 pi r eps: slope 4 pi r0 at t = 0
    assert rep.constants["max_slope"] == pytest.approx(4.0 * np.pi * 0.6, rel=0.05)


def test_fattening_flags_zero_plateau(frozen, init):
    # an exact-zero plateau wider than the smallest fit epsilon adds a
    # constant to every slab area, which lands in the intercept
    def edit(vals):
        vals[np.abs(SPEC.radius() - 0.6) <= 4.0 * SPEC.h] = 0.0

    rep = fattening_report(_tamper_last(frozen, edit), init, t_bar=frozen.times[-1])
    assert not rep.passed
    assert rep.min_margin() < -0.1


# ---------------------------------------------------------------------------
# continuous dependence
# ---------------------------------------------------------------------------


def test_dependence_constant_speed_gap(frozen, init):
    # c = 0 versus c = 0.1: gap(t) = 0.1 t, so with kappa1 = 0.1 the fitted
    # M1 is 0.01 / (0.01 + sqrt(0.001)) at the final time
    fast = _run(init.u0, 0.1, TIMES)
    rep = continuous_dependence_report(frozen, fast, kappa_per_time=[0.1, 0.1])
    assert rep.passed
    assert rep.constants["kappa1"] == pytest.approx(0.1)
    assert rep.constants["kappa2"] == pytest.approx(0.01)
    want = 0.01 / (0.01 + np.sqrt(0.001))
    assert rep.constants["m1_fit"] == pytest.approx(want, rel=0.02)
    # rows are rescaled so the fitted bound dominates every gap
    assert rep.min_margin() >= -1e-12


def test_dependence_stable_when_halved(frozen, init):
    full = continuous_dependence_report(frozen, _run(init.u0, 0.1, TIMES), kappa1=0.1)
    half = continuous_dependence_report(frozen, _run(init.u0, 0.05, TIMES), kappa1=0.05)
    change, stable = dependence_stability(full, half)
    assert stable
    assert change < 0.05


def test_dependence_identical_trajectories(frozen):
    # vanishing kappas with a vanishing gap stay finite and pass
    rep = continuous_dependence_report(frozen, frozen, kappa1=0.0, kappa2=0.0)
    assert rep.passed
    assert rep.constants["m1_fit"] == 0.0


def test_dependence_growth_without_kappa_is_flagged(frozen):
    moved = _hand_traj(frozen.times, [_disc(0.6)] + [_disc(0.63)] * (len(TIMES) - 1))
    rep = continuous_dependence_report(frozen, moved, kappa1=0.0, kappa2=0.0)
    assert not rep.passed
    assert rep.constants["m1_fit"] == np.inf


def test_dependence_validations(frozen, init):
    short = _hand_traj([0.0, 0.1], [frozen.snapshots[0]] * 2)
    with pytest.raises(ValueError):
        continuous_dependence_report(frozen, short, kappa1=0.1)
    with pytest.raises(ValueError):
        continuous_dependence_report(frozen, frozen)


# ---------------------------------------------------------------------------
# star-shapedness
# ---------------------------------------------------------------------------


def test_star_shape_radial_cone_margin(frozen, init):
    rep = star_shape_report(frozen, init)
    assert rep.passed
    assert rep.rows[0][2] == pytest.approx(0.5 * init.eta0)
    for _, measured, _, _ in rep.rows:
        assert measured == pytest.approx(0.55, abs=0.01)


def test_star_shape_rejects_off_center_disc(init):
    x, y = SPEC.meshgrid()
    off = ScalarField(SPEC, np.clip(0.6 - np.hypot(x - 0.5, y), -1.0, 1.0))
    rep = star_shape_report(_hand_traj([0.0], [off]), init)
    assert not rep.passed
    # near the left edge the pull toward the origin barely raises u
    assert rep.rows[0][1] == pytest.approx(0.06, abs=0.02)


def test_star_shape_empty_band_vacuous(init):
    rep = star_shape_report(_hand_traj([0.0], [constant_field(SPEC, -1.0)]), init)
    assert rep.passed
    assert rep.rows[0][3] == 0.0


def test_gamma_sweep_reports_largest_passing():
    spec = GridSpec(65, 1.5)
    small = star_shaped_u0(spec, [(0.0, 0.0)], 0.3)
    gamma_bar, results = gamma_sweep_star_shape(
        ConstantCoupling(0.5), small, [0.0, 0.02], horizon=0.05,
    )
    assert gamma_bar == 0.02
    assert all(r.passed for r in results.values())


def test_gamma_sweep_measures_no_lipschitz_log(monkeypatch):
    # a sweep's marches feed only star_shape_report, so no seminorm of theirs
    # is measured; a trajectory measures its log when it is first read
    import frontlab.solver

    measured = []
    norm = frontlab.solver.central_gradient_norm

    def counted(u, *rest):
        measured.append(u)
        return norm(u, *rest)

    monkeypatch.setattr(frontlab.solver, "central_gradient_norm", counted)
    spec = GridSpec(65, 1.5)
    small = star_shaped_u0(spec, [(0.0, 0.0)], 0.3)
    gamma_bar, _ = gamma_sweep_star_shape(ConstantCoupling(0.5), small, [0.0, 0.02], horizon=0.05)
    assert gamma_bar == 0.02
    assert measured == []
    traj = _run(small.u0, 0.5, [0.0, 0.025, 0.05], gamma=0.02)
    assert measured == []
    assert len(traj.lipschitz_log) == 3
    assert traj.lipschitz_log is traj.lipschitz_log
    assert [id(u) for u in measured] == [id(u) for u in traj.snapshots]


def test_gamma_sweep_counts_escape_as_failure():
    # the front reaches the guard band, 4h inside the ring L - 2h = 0.9375,
    # at t = 0.51
    spec = GridSpec(65, 1.0)
    small = star_shaped_u0(spec, [(0.0, 0.0)], 0.3)
    gamma_bar, results = gamma_sweep_star_shape(ConstantCoupling(1.0), small, [0.0], horizon=1.0)
    assert gamma_bar is None
    assert isinstance(results[0.0], str)
    assert results[0.0].startswith("error:")
