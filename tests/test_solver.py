"""Level-set stepping: step-size bookkeeping, the semi-implicit curvature
solve, one-step oracles against closed-form front motion, the discrete
comparison property, the work budget, and trajectory serialization.

Closed forms: constant normal speed c moves a circular front radius as
R(t) = R0 + c t; curvature flow with weight 1 satisfies R(t)^2 = R0^2 - 2t.
"""

import tracemalloc

import numpy as np
import pytest

import frontlab.solver
from frontlab.contour import extract_contour
from frontlab.errors import FrontEscapeError, StabilityError
from frontlab.grid import (
    GridSpec,
    ScalarField,
    Workspace,
    curvature_term,
    field_from_function,
    lebesgue_measure,
    upwind_gradient_norm,
)
from frontlab.solver import (
    CURVATURE_STEP,
    MAX_CELL_UPDATES,
    MAX_STEPS,
    SOLVE_SPLIT,
    Trajectory,
    _cosine_basis,
    _implicit_diffusion,
    advance,
    cfl_timestep,
    dump_trajectory,
    grid_ring,
    load_trajectory,
    regularity_report,
    solve,
    step_cost,
)

SPEC = GridSpec(201, 1.5)


def _disc(spec, r):
    return field_from_function(spec, lambda x, y: r - np.hypot(x, y))


def _mean_radius(u, level=0.0):
    pts = extract_contour(u, level).vertex_array()
    return float(np.mean(np.hypot(pts[:, 0], pts[:, 1])))


# ---------------------------------------------------------------------------
# cfl_timestep
# ---------------------------------------------------------------------------


def test_cfl_advective_branch():
    # safety h / (2|c|): the upwind update moves along both axes
    assert cfl_timestep(1.0, 0.0, 0.01, 0.5) == pytest.approx(0.0025, rel=1e-9)


def test_cfl_parabolic_branch():
    # the curvature cap CURVATURE_STEP h / gamma, which the CFL safety does
    # not scale: the semi-implicit step has no parabolic stability bound
    assert cfl_timestep(0.0, 1.0, 0.01, 0.5) == CURVATURE_STEP * 0.01 / 1.0
    assert cfl_timestep(0.0, 4.0, 0.01) == CURVATURE_STEP * 0.01 / 4.0


def test_cfl_takes_the_smaller_of_advection_and_curvature():
    h = 0.01
    fast = cfl_timestep(200.0, 0.5, h)
    assert fast == frontlab.solver.CFL_SAFETY * (h / (2.0 * (200.0 + 1e-12)))
    assert fast == cfl_timestep(200.0, 0.0, h)
    slow = cfl_timestep(0.2, 0.5, h)
    assert slow == CURVATURE_STEP * h / 0.5 < cfl_timestep(0.2, 0.0, h)


@pytest.mark.parametrize("c, h", [(1.0, 0.015), (0.3, 3.0 / 64), (17.0, 3.0 / 128)])
def test_cfl_pure_advection_step_is_unchanged(c, h):
    # without curvature the operating step is 0.45 h/|c| to the bit: half
    # the one-axis upwind bound, for an update that moves along both axes
    assert cfl_timestep(c, 0.0, h) == 0.45 * (h / (c + 1e-12))


def test_cfl_degenerate_is_huge():
    # no advection, no curvature: the guarded denominators leave an
    # effectively unbounded step (the caller caps it at the horizon)
    assert cfl_timestep(0.0, 0.0, 0.01, 0.5) > 1e6


def test_cfl_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cfl_timestep(-1.0, 0.0, 0.01, 0.5)
    with pytest.raises(ValueError):
        cfl_timestep(1.0, 0.0, 0.01, 0.0)
    with pytest.raises(ValueError):
        cfl_timestep(1.0, 0.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# advance
# ---------------------------------------------------------------------------


def test_advance_refuses_oversized_step():
    u = _disc(SPEC, 0.5)
    with pytest.raises(StabilityError):
        advance(u, 1.0, 0.0, 2.0 * SPEC.h)
    with pytest.raises(StabilityError, match="advective CFL bound"):
        advance(u, 1.0, 1.0, 2.0 * SPEC.h)


def test_advance_takes_curvature_steps_past_the_explicit_bound():
    # advance refuses only the advective bound: a curvature step 400 times
    # the explicit bound h^2 / (4 gamma) stays bounded and shrinks the
    # circle, R^2 = 1 - 2t, by -2 dt to within the first-order error of one
    # long step (measured 4 %)
    u = ScalarField(SPEC, np.clip(_disc(SPEC, 1.0).values, -1.0, 1.0))
    dt = 100.0 * SPEC.h**2
    v = advance(u, 0.0, 1.0, dt)
    assert np.abs(v.values).max() <= 1.0
    drop = _mean_radius(v) ** 2 - _mean_radius(u) ** 2
    assert drop == pytest.approx(-2.0 * dt, rel=0.1)


def test_advance_expands_disc():
    u = _disc(SPEC, 0.5)
    v = advance(u, 1.0, 0.0, 0.005)
    assert _mean_radius(v) == pytest.approx(0.505, abs=SPEC.h)


def test_advance_curvature_one_step():
    u = _disc(SPEC, 1.0)
    dt = SPEC.h**2 / 8.0
    v = advance(u, 0.0, 1.0, dt)
    r2 = _mean_radius(v) ** 2
    assert abs(r2 - (1.0 - 2.0 * dt)) < SPEC.h**2
    # the radius-squared drop itself matches -2dt to a few percent
    drop = r2 - _mean_radius(u) ** 2
    assert drop == pytest.approx(-2.0 * dt, rel=0.05)


def test_advance_zero_velocity_identity():
    u = ScalarField(SPEC, np.clip(_disc(SPEC, 0.5).values, -1.0, 1.0))
    v = advance(u, 0.0, 0.0, 123.0)
    assert np.array_equal(u.values, v.values)


def test_advance_clamps_and_leaves_the_far_field():
    # an affine rise of slope 0.2 moves up by 0.2 c dt everywhere, the upwind
    # norm being exact on affine data, and is clamped at 1; nothing outside
    # the ring is set to -1
    u = field_from_function(SPEC, lambda x, y: 0.95 + 0.2 * x)
    v = advance(u, 1.0, 0.0, 0.005)
    assert np.abs(v.values).max() <= 1.0
    want = np.clip(u.values + 0.005 * 0.2, -1.0, 1.0)
    assert np.max(np.abs(v.values - want)) < 1e-15
    ring = SPEC.radius() > grid_ring(SPEC)
    assert np.all(v.values[ring] > 0.6)


def _random_smooth_fields(rng, taper, xx, yy, terms=6):
    f = np.zeros_like(xx)
    for _ in range(terms):
        kx, ky = rng.uniform(-3, 3, 2)
        ph = rng.uniform(0, 2 * np.pi)
        f += rng.uniform(-0.5, 0.5) * np.cos(kx * np.pi * xx + ky * np.pi * yy + ph)
    return np.clip(f * taper - (1.0 - taper), -1.0, 1.0)


def test_advance_comparison_property():
    # ordered inputs stay ordered after one step at the operating step;
    # this is what makes the scheme trustworthy for front ordering
    rng = np.random.default_rng(42)
    xx, yy = SPEC.meshgrid()
    far = 1.5 - 2 * SPEC.h - 0.2
    taper = np.clip((far - np.hypot(xx, yy)) / 0.3, 0.0, 1.0)
    dt = cfl_timestep(2.0, 0.0, SPEC.h)
    worst = -np.inf
    for _ in range(20):
        base = _random_smooth_fields(rng, taper, xx, yy)
        bump = np.abs(_random_smooth_fields(rng, taper, xx, yy)) * 0.3 * taper
        ua = ScalarField(SPEC, np.clip(base, -1.0, 1.0))
        ub = ScalarField(SPEC, np.clip(base + bump, -1.0, 1.0))
        c = ScalarField(SPEC, np.clip(2.0 * _random_smooth_fields(rng, taper, xx, yy), -2.0, 2.0))
        va = advance(ua, c, 0.0, dt)
        vb = advance(ub, c, 0.0, dt)
        worst = max(worst, float((va.values - vb.values).max()))
    assert worst <= 1e-12


def test_advance_comparison_nested_cones_with_curvature():
    # two nested smooth discs stay nested under speed + curvature
    inner = _disc(SPEC, 0.4)
    outer = _disc(SPEC, 0.7)
    dt = cfl_timestep(1.0, 1.0, SPEC.h)
    vi = advance(inner, 1.0, 1.0, dt)
    vo = advance(outer, 1.0, 1.0, dt)
    assert float((vi.values - vo.values).max()) <= 1e-12


def test_advance_geometricity_of_zero_set():
    # relabeling u -> clamp(2u) must not move the front (curvature-free)
    u = _disc(SPEC, 0.5)
    theta = ScalarField(SPEC, np.clip(2.0 * u.values, -1.0, 1.0))
    dt = cfl_timestep(1.0, 0.0, SPEC.h)
    a = extract_contour(advance(u, 1.0, 0.0, dt), 0.0).vertex_array()
    b = extract_contour(advance(theta, 1.0, 0.0, dt), 0.0).vertex_array()
    from scipy.spatial import cKDTree

    gap = cKDTree(b).query(a, workers=1)[0].max()
    assert gap <= np.sqrt(2.0) * SPEC.h


@pytest.mark.parametrize("c", [0.0, 0.7, -0.7])
def test_advance_float_speed_matches_constant_field_bitwise(c):
    # constant and volume laws hand advance a float; it must step exactly
    # as the same speed spread over the grid
    spec = GridSpec(65, 1.5)
    u = ScalarField(spec, np.random.default_rng(7).uniform(-1.0, 1.0, (spec.n, spec.n)))
    dt = cfl_timestep(1.0, 0.5, spec.h)
    field = ScalarField(spec, np.full((spec.n, spec.n), c))
    for gamma in (0.5, 0.0):
        assert _same_bits(
            advance(u, c, gamma, dt).values, advance(u, field, gamma, dt).values,
        )


def _reflecting_laplacian(v, h):
    # the five-point Laplacian with v[-1] = v[1] and v[n] = v[n-2] per axis
    p = np.pad(v, 1, mode="reflect")
    return (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * v) / (h * h)


@pytest.mark.parametrize("n", [33, 201])
def test_implicit_diffusion_inverts_the_reflecting_laplacian(n):
    # (I - a Delta_h) x = f to rounding, at a well past the explicit bound
    spec = GridSpec(n, 1.5)
    f = np.random.default_rng(n).normal(size=(n, n))
    a = 50.0 * spec.h**2
    x = f.copy()
    _implicit_diffusion(x, a, spec, Workspace(spec))
    assert np.max(np.abs(x - a * _reflecting_laplacian(x, spec.h) - f)) < 1e-12
    V, W, _ = _cosine_basis(spec)
    assert np.max(np.abs(V @ W - np.eye(n))) < 1e-13


def _reference_advance(u, c, gamma, dt):
    # the step as one numpy expression on fresh arrays; the stencils match
    # their own formulas bit for bit (tests/test_grid.py); a step with
    # curvature alone scales it by gamma dt at once.  With gamma > 0 the
    # increment is solved in the cosine basis, W f W^T / (1 + gamma dt mu)
    # taken back by V on both sides, before it is added to u
    cvals = c.values
    if np.abs(cvals).max() == 0.0 and gamma > 0.0:
        increment = curvature_term(u) * (gamma * dt)
    else:
        update = np.zeros_like(u.values)
        if np.abs(cvals).max() > 0.0:
            update += cvals * upwind_gradient_norm(u, cvals)
        if gamma > 0.0:
            update += gamma * curvature_term(u)
        increment = dt * update
    if gamma > 0.0:
        V, W, mu = _cosine_basis(u.spec)
        increment = V @ ((W @ increment @ W.T) / (mu * (gamma * dt) + 1.0)) @ V
    return np.clip(u.values + increment, -1.0, 1.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [33, 201])
@pytest.mark.parametrize("far", [False, True], ids=["whole-grid", "far-radius"])
@pytest.mark.parametrize("moving", [False, True], ids=["c=0", "c!=0"])
def test_advance_matches_numpy_bitwise(n, far, moving):
    # far-radius: the field is -1 outside the containment ring, as a solve
    # holds it; the step leaves those nodes to the scheme
    _check_advance_bitwise(n, far, moving, gamma=0.5)


@pytest.mark.parametrize("n", [33, 201])
@pytest.mark.parametrize("moving", [False, True], ids=["c=0", "c!=0"])
@pytest.mark.parametrize("gamma", [0.3, 0.0])
def test_advance_matches_numpy_bitwise_at_other_gammas(n, moving, gamma):
    # at gamma = 0.5, (gamma k) dt and k (gamma dt) round alike, so only
    # another gamma tells the two orders of a curvature step apart; gamma = 0
    # keeps the advection order, and c = gamma = 0 returns u as u + 0 dt
    _check_advance_bitwise(n, True, moving, gamma)


def _check_advance_bitwise(n, far, moving, gamma):
    spec = GridSpec(n, 1.5)
    rng = np.random.default_rng(n)
    u = ScalarField(spec, rng.uniform(-1.0, 1.0, (n, n)))
    ring = spec.radius() > grid_ring(spec)
    if far:
        u.values[ring] = -1.0
    c = ScalarField(spec, rng.uniform(-1.0, 1.0, (n, n)) if moving else np.zeros((n, n)))
    dt = cfl_timestep(1.0, gamma, spec.h)
    expected = _reference_advance(u, c, gamma, dt)
    assert _same_bits(advance(u, c, gamma, dt).values, expected)
    if far and (moving or gamma > 0.0):
        assert np.any(expected[ring] > -1.0)
    # two steps through one workspace, as solve takes them
    work = Workspace(spec)
    first = advance(u, c, gamma, dt, work=work)
    second = advance(first, c, gamma, dt, work=work)
    assert _same_bits(first.values, expected)
    assert not np.shares_memory(first.values, second.values)
    assert _same_bits(second.values, _reference_advance(ScalarField(spec, expected), c, gamma, dt))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _constant(c):
    """A speed law that reads the speed c on every interval."""
    return lambda t0, t1, u: lambda t: c


def test_solve_constant_speed_disc():
    spec = GridSpec(129, 1.5)
    traj = solve(_disc(spec, 0.5), _constant(1.0), 0.0, 0.4, [0.2, 0.4])
    assert traj.times[-1] == 0.4
    assert _mean_radius(traj.snapshots[-1]) == pytest.approx(0.9, rel=0.02)


def test_solve_curvature_disc():
    spec = GridSpec(129, 1.5)
    traj = solve(_disc(spec, 1.0), _constant(0.0), 1.0, 0.18, [0.18])
    assert _mean_radius(traj.snapshots[-1]) == pytest.approx(0.8, rel=0.02)


def test_solve_zero_horizon_single_snapshot():
    u0 = _disc(SPEC, 0.5)
    traj = solve(u0, _constant(1.0), 0.0, 0.0, [])
    assert len(traj.snapshots) == 1
    assert traj.times[0] == 0.0
    inside = SPEC.radius() <= traj.far_radius
    assert np.array_equal(traj.snapshots[0].values[inside], u0.values[inside])


def test_solve_zero_speed_identity():
    u0 = _disc(SPEC, 0.5)
    traj = solve(u0, _constant(0.0), 0.0, 1.0, [0.5, 1.0])
    for snap in traj.snapshots[1:]:
        assert np.array_equal(snap.values, traj.snapshots[0].values)


def test_solve_rejects_non_monotone_times():
    with pytest.raises(ValueError):
        solve(_disc(SPEC, 0.5), _constant(1.0), 0.0, 1.0, [0.5, 0.2])
    with pytest.raises(ValueError):
        solve(_disc(SPEC, 0.5), _constant(1.0), 0.0, 1.0, [0.5, 2.0])


def test_solve_exact_landing_times():
    spec = GridSpec(65, 1.0)
    traj = solve(_disc(spec, 0.3), _constant(1.0), 0.0, 0.1, [0.033, 0.07])
    assert np.array_equal(traj.times, [0.0, 0.033, 0.07, 0.1])
    assert all(dt <= cfl_timestep(1.0, 0.0, spec.h, 1.0) + 1e-15 for dt in traj.dt_used)


def test_solve_front_escape_trips():
    # the front reaches the guard band, 4h inside the ring L - 2h = 0.9375,
    # at t = 0.31
    spec = GridSpec(65, 1.0)
    with pytest.raises(FrontEscapeError):
        solve(_disc(spec, 0.5), _constant(1.0), 0.0, 1.0, [1.0])


def test_ring_masks_are_read_only_and_shared():
    # built once per grid: equal specs share them, an in-place write raises,
    # and they are the guard band |x| >= L - 6h and the ball |x| <= L - 4h
    spec = GridSpec(65, 1.0)
    guard, clear = frontlab.solver.ring_masks(spec)
    twin = frontlab.solver.ring_masks(GridSpec(65, 1.0))
    assert twin[0] is guard and twin[1] is clear
    for mask in (guard, clear):
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True
    assert np.array_equal(guard, spec.radius() >= grid_ring(spec) - 4 * spec.h)
    assert np.array_equal(clear, spec.radius() <= grid_ring(spec) - 2 * spec.h)
    assert frontlab.solver.guard_radius(spec) == 1.0 - 6 * spec.h
    assert frontlab.solver.front_in_guard(_disc(spec, 1.0 - 6 * spec.h))
    assert not frontlab.solver.front_in_guard(_disc(spec, 1.0 - 7 * spec.h))


def test_piecewise_speed_switches():
    # expand at speed 1 for 0.1, freeze afterwards
    spec = GridSpec(129, 1.0)
    traj = solve(
        _disc(spec, 0.3), lambda t0, t1, u: lambda t: 1.0 if t0 < 0.1 else 0.0,
        0.0, 0.3, [0.1, 0.3],
    )
    assert _mean_radius(traj.snapshots[1]) == pytest.approx(0.4, abs=2 * spec.h)
    assert _mean_radius(traj.snapshots[2]) == pytest.approx(0.4, abs=2 * spec.h)


def test_default_far_radius_capped():
    # the containment ring is the largest the grid holds, L - 2h
    spec = GridSpec(201, 1.5)
    assert grid_ring(spec) == 1.5 - 2 * spec.h
    assert solve(_disc(spec, 0.5), _constant(1.0), 0.0, 0.1, [0.1]).far_radius == grid_ring(spec)


@pytest.mark.parametrize("kw, message", [
    ({"gamma": -0.1}, "gamma must be >= 0"),
    ({"horizon": -0.1}, "horizon must be nonnegative"),
])
def test_solve_rejects_bad_problem_before_any_step(monkeypatch, kw, message):
    called = []
    monkeypatch.setattr(frontlab.solver, "advance", lambda *a, **k: called.append(1))
    args = {"gamma": 0.0, "horizon": 0.1} | kw
    with pytest.raises(ValueError, match=message):
        solve(_disc(SPEC, 0.5), lambda t0, t1, u: called.append(0), output_times=[], **args)
    assert called == []


def test_solve_accepts_the_grid_ring_and_smaller():
    # the ring is always the grid's L - 2h, and no node outside it is
    # rewritten: at zero speed the clamped disc stays as it was there (about
    # -0.9 on the axes), and under curvature it moves with the scheme
    spec = GridSpec(33, 1.5)
    ring = spec.radius() > grid_ring(spec)
    start = np.clip(_disc(spec, 0.5).values, -1.0, 1.0)
    traj = solve(_disc(spec, 0.5), _constant(0.0), 0.0, 0.1, [0.1])
    assert traj.far_radius == grid_ring(spec)
    assert np.array_equal(traj.snapshots[-1].values[ring], start[ring])
    assert start[ring].max() > -0.95
    curved = solve(_disc(spec, 0.5), _constant(0.0), 0.5, 0.1, [0.1]).snapshots[-1]
    assert not np.array_equal(curved.values[ring], start[ring])


def test_cone_tip_tracks_the_curvature_oracle():
    # under mean-curvature flow the level set {u = s} of u0 = r0 - |x| is
    # the circle of radius r0 - s, which reaches the origin at
    # (r0 - s)^2 = 2t: u(0, t) = r0 - sqrt(2t).  The Evans-Spruck term moves
    # the tip, where the central gradient is 0 (measured within 0.005, about
    # h / 10, at n = 65); a term that vanishes with Du leaves it at r0
    spec = GridSpec(65, 1.5)
    times = [0.02, 0.05, 0.1, 0.15, 0.2]
    u0 = field_from_function(spec, lambda x, y: 0.8 - np.hypot(x, y))
    traj = solve(u0, _constant(0.0), 1.0, 0.2, times)
    tip = [snap.values[spec.n // 2, spec.n // 2] for snap in traj.snapshots]
    assert np.max(np.abs(np.array(tip) - (0.8 - np.sqrt(2.0 * traj.times)))) < spec.h / 4
    assert tip[-1] < 0.2


def test_solve_keeps_received_fields_and_snapshots():
    # a coupled law reads each interval's starting field; neither that field
    # nor any stored snapshot may share memory with the step's work arrays
    spec = GridSpec(65, 1.5)
    received = []

    def area_law(t0, t1, u):
        received.append((u, u.values.copy()))
        c = 1.0 - lebesgue_measure(u) / np.pi
        return lambda t: c

    def march(u0):
        return solve(u0, area_law, 0.05, 0.1, [0.025, 0.05, 0.075, 0.1])

    u0 = _disc(spec, 0.5)
    start = u0.values.copy()
    first = march(u0)
    stored = [snap.values.copy() for snap in first.snapshots]
    assert len(received) == len(first.snapshots) - 1
    for (field, copy), snap in zip(received, first.snapshots):
        assert np.array_equal(field.values, copy)
        assert np.array_equal(snap.values, copy)
    second = march(ScalarField(spec, 0.5 * u0.values))
    assert np.array_equal(u0.values, start)
    for snap, copy in zip(first.snapshots, stored):
        assert np.array_equal(snap.values, copy)
    for field, copy in received:
        assert np.array_equal(field.values, copy)
    for a in first.snapshots:
        assert not any(np.shares_memory(a.values, b.values) for b in second.snapshots)


def test_solve_step_allocates_under_one_field(monkeypatch):
    # after the first step, a step of solve writes into the solve's work
    # arrays: its allocation peak stays below one n x n float64 field
    spec = GridSpec(201, 1.5)
    plain = frontlab.solver.advance
    rises = []

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = plain(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(frontlab.solver, "advance", measured)
    xx, _ = spec.meshgrid()
    speed = _constant(ScalarField(spec, xx))
    tracemalloc.start()
    try:
        solve(_disc(spec, 0.5), speed, 0.5, 0.015, [0.015])
    finally:
        tracemalloc.stop()
    assert len(rises) >= 5
    assert max(rises[1:]) < spec.n**2 * 8


def test_solve_refuses_a_march_past_the_step_budget(monkeypatch):
    steps = []
    plain = frontlab.solver.advance
    monkeypatch.setattr(
        frontlab.solver, "advance", lambda *a, **kw: steps.append(1) or plain(*a, **kw)
    )
    spec = GridSpec(33, 1.5)
    dt = cfl_timestep(1.0, 0.0, spec.h)
    max_steps = MAX_CELL_UPDATES // 33**2
    with pytest.raises(StabilityError, match=f"more than {max_steps} steps"):
        solve(_disc(spec, 0.5), _constant(1.0), 0.0, 1.01 * max_steps * dt, [])
    assert steps == []


def test_a_semi_implicit_step_counts_its_solve(monkeypatch):
    # a step with curvature counts n^2 + n^3 // SOLVE_SPLIT node updates
    assert step_cost(201, 0.0) == 201**2
    assert step_cost(201, 0.5) == 201**2 + 201**3 // SOLVE_SPLIT
    spec = GridSpec(65, 1.5)
    monkeypatch.setattr(frontlab.solver, "MAX_CELL_UPDATES", 10 * step_cost(65, 1.0))
    dt = cfl_timestep(0.0, 1.0, spec.h)
    solve(_disc(spec, 0.5), _constant(0.0), 1.0, 9.5 * dt, [])
    with pytest.raises(StabilityError, match="more than 10 steps"):
        solve(_disc(spec, 0.5), _constant(0.0), 1.0, 10.5 * dt, [])


def test_step_budget_is_max_steps_on_a_201_node_grid():
    dt = cfl_timestep(1.0, 0.0, SPEC.h)
    with pytest.raises(StabilityError, match=f"more than {MAX_STEPS} steps of the 201"):
        solve(_disc(SPEC, 0.5), _constant(1.0), 0.0, 1.01 * MAX_STEPS * dt, [])


def test_solve_stops_when_a_law_speeds_up_past_the_budget(monkeypatch):
    # the estimate at t = 0 passes; the count catches the faster law later
    monkeypatch.setattr(frontlab.solver, "MAX_CELL_UPDATES", 40 * 33**2)
    spec = GridSpec(33, 1.5)
    dt = cfl_timestep(0.01, 0.0, spec.h)

    def speed(t0, t1, u):
        c = 0.01 if t0 == 0.0 else 1.0
        return lambda t: c

    with pytest.raises(StabilityError, match="passed 40 steps"):
        solve(_disc(spec, 0.3), speed, 0.0, 20 * dt, [dt])


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_constant_speed_flat_growth():
    spec = GridSpec(129, 1.5)
    traj = solve(_disc(spec, 0.5), _constant(1.0), 0.0, 0.3, np.linspace(0.0, 0.3, 7))
    assert regularity_report(traj) == pytest.approx(0.0, abs=0.35)
    lips = np.asarray(traj.lipschitz_log)
    assert lips.max() / lips.min() < 1.1


def _mesa(x, y, top=0.3, a=0.3, w=0.1):
    # flat top u = top on r <= a (|Du| = 0 << h), a C1 quadratic turn of
    # width w, then slope 1 down to the far field
    r = np.hypot(x, y)
    turn = top - (r - a) ** 2 / (2 * w)
    return np.where(r <= a, top, np.where(r <= a + w, turn, top - w / 2 - (r - a - w)))


def test_lipschitz_log_stays_flat_from_a_flat_top():
    # the summed step with advection and curvature both active, from a field
    # with a flat region: the log stays within 1 % of its start (measured
    # 1.006; at 2.2 times the step it reaches 1.029, at 3.3 times 2.8)
    spec = GridSpec(65, 1.5)
    u0 = field_from_function(spec, _mesa)
    traj = solve(u0, _constant(1.0), 0.1, 0.1, np.linspace(0.0, 0.1, 5))
    lips = np.asarray(traj.lipschitz_log)
    assert lips.max() <= 1.01 * lips[0]


def test_constant_speed_area_radius_converges_at_first_order():
    # R0 + c t at n = 33/65/129: the observed order of the final area-radius
    # error is 1.11; the floor leaves 0.21 of margin
    errors, hs = [], []
    for n in (33, 65, 129):
        spec = GridSpec(n, 1.5)
        traj = solve(_disc(spec, 0.5), _constant(1.0), 0.0, 0.2, [0.2])
        area_radius = np.sqrt(lebesgue_measure(traj.snapshots[-1]) / np.pi)
        errors.append(abs(area_radius - 0.7))
        hs.append(spec.h)
    order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert order >= 0.9, (errors, order)


def test_regularity_frozen_field():
    traj = solve(_disc(SPEC, 0.5), _constant(0.0), 0.0, 0.5, np.linspace(0.0, 0.5, 5))
    assert regularity_report(traj) == 0.0


def test_regularity_needs_three_snapshots():
    traj = solve(_disc(SPEC, 0.5), _constant(0.0), 0.0, 0.5, [0.5])
    with pytest.raises(ValueError):
        regularity_report(traj)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    spec = GridSpec(65, 1.0)
    traj = solve(_disc(spec, 0.3), _constant(1.0), 0.0, 0.05, [0.025, 0.05])
    dump_trajectory(traj, tmp_path / "traj")
    back = load_trajectory(tmp_path / "traj")
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.dt_used, traj.dt_used)
    assert np.array_equal(back.lipschitz_log, traj.lipschitz_log)
    assert back.far_radius == traj.far_radius
    assert back.gamma == traj.gamma
    for a, b in zip(traj.snapshots, back.snapshots):
        assert np.array_equal(a.values, b.values)
