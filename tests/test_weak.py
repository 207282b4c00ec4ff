"""The causal march, the Picard fixed point it replaces in runs, and the
multi-seed uniqueness probe that still runs Picard."""

import numpy as np
import pytest

import frontlab.solver
from frontlab.couplings import (
    ConstantCoupling,
    DislocationCoupling,
    FitzhughNagumoCoupling,
    VolumeCoupling,
    affine_map,
    clamp_affine_map,
    constant_map,
    core_ring_kernel,
    constant_history,
    kappa,
)
from frontlab.grid import GridSpec, ScalarField, constant_field, field_from_function
from frontlab.weak import (
    chi_from_u,
    fixed_point_solve,
    march_solve,
    standard_seeds,
    uniqueness_probe,
)

SPEC = GridSpec(65, 1.0)


def _clamped_disc(spec, r):
    return field_from_function(spec, lambda x, y: np.clip(r - np.hypot(x, y), -1.0, 1.0))


def _mean_radius(u):
    from frontlab.contour import extract_contour

    pts = extract_contour(u, 0.0).vertex_array()
    return float(np.mean(np.hypot(pts[:, 0], pts[:, 1])))


# ---------------------------------------------------------------------------
# chi_from_u
# ---------------------------------------------------------------------------


def test_chi_from_disc():
    u = _clamped_disc(SPEC, 0.5)
    chi = chi_from_u(u)
    want = (SPEC.radius() <= 0.5).astype(float)
    assert np.array_equal(chi.values, want)


def test_chi_from_constant_negative():
    assert np.all(chi_from_u(constant_field(SPEC, -1.0)).values == 0.0)


def test_chi_tie_convention():
    vals = -np.ones((SPEC.n, SPEC.n))
    vals[10, 20] = 0.0
    chi = chi_from_u(ScalarField(SPEC, vals))
    assert chi.values[10, 20] == 1.0
    assert chi.values.sum() == 1.0


# ---------------------------------------------------------------------------
# the speed a law hands the step
# ---------------------------------------------------------------------------


def _recorded_advance(monkeypatch):
    """Patch solver.advance to record the speed of every step."""
    plain = frontlab.solver.advance
    speeds = []

    def recording(u, c_t, *args, **kwargs):
        speeds.append(c_t)
        return plain(u, c_t, *args, **kwargs)

    monkeypatch.setattr(frontlab.solver, "advance", recording)
    return speeds


class _Counted:
    """A scalar map that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, r):
        self.calls += 1
        return self.fn(r)


def test_fn_speed_evaluated_once_per_step(monkeypatch):
    coup = FitzhughNagumoCoupling(
        alpha=clamp_affine_map(0.2, 1.0, -1.0, 1.0),
        g_plus=constant_map(1.0), g_minus=constant_map(-1.0), v0=0.0,
    )
    coup.alpha = _Counted(coup.alpha)
    speeds = _recorded_advance(monkeypatch)
    march_solve(coup, _clamped_disc(SPEC, 0.3), gamma=0.05, horizon=0.2,
                output_times=[0.1, 0.2])
    assert len(speeds) > 2
    assert coup.alpha.calls == len(speeds)
    assert all(isinstance(c, ScalarField) for c in speeds)


@pytest.mark.parametrize("coup", [
    ConstantCoupling(c=0.0),
    VolumeCoupling(constant_map(0.3)),
    VolumeCoupling(affine_map(1.0, -1.0)),
], ids=["constant-zero", "volume-constant-beta", "volume-affine-beta"])
def test_spatially_constant_laws_hand_the_step_a_float(monkeypatch, coup):
    speeds = _recorded_advance(monkeypatch)
    march_solve(coup, _clamped_disc(SPEC, 0.3), gamma=0.1, horizon=0.01,
                output_times=[0.005, 0.01])
    assert speeds
    assert all(type(c) is float for c in speeds)


# ---------------------------------------------------------------------------
# fixed_point_solve
# ---------------------------------------------------------------------------


def test_decoupled_volume_converges_immediately():
    coup = VolumeCoupling(constant_map(0.0))
    ws = fixed_point_solve(coup, _clamped_disc(SPEC, 0.5), gamma=1.0, horizon=0.05)
    assert ws.converged
    assert ws.iterations == 1
    assert ws.residual_history == [0.0]
    # beta = 0 leaves pure curvature flow: R^2 = 0.25 - 2 * 0.05 * t
    want = np.sqrt(0.25 - 2.0 * 0.05)
    assert _mean_radius(ws.u_traj.snapshots[-1]) == pytest.approx(want, rel=0.05)


def test_decoupled_dislocation_expands_disc():
    coup = DislocationCoupling(constant_field(SPEC, 0.0), 1.0)
    ws = fixed_point_solve(coup, _clamped_disc(SPEC, 0.3), gamma=0.0, horizon=0.2)
    assert ws.converged and ws.iterations == 1
    assert _mean_radius(ws.u_traj.snapshots[-1]) == pytest.approx(0.5, rel=0.02)


def test_constant_alpha_fn_converges_in_two():
    coup = FitzhughNagumoCoupling(
        alpha=constant_map(0.5),
        g_plus=constant_map(1.0),
        g_minus=constant_map(0.0),
        v0=0.0,
    )
    ws = fixed_point_solve(coup, _clamped_disc(SPEC, 0.3), gamma=0.0, horizon=0.2)
    assert ws.converged
    assert ws.iterations <= 2
    assert _mean_radius(ws.u_traj.snapshots[-1]) == pytest.approx(0.4, rel=0.03)


@pytest.fixture(scope="module")
def coupled_run():
    kern = core_ring_kernel(SPEC, 1.0, 0.15, -0.3, 0.15, 0.3)
    coup = DislocationCoupling(kern, 0.2)
    u0 = _clamped_disc(SPEC, 0.3)
    return coup, fixed_point_solve(coup, u0, gamma=0.0, horizon=0.2)


def test_coupled_run_converges(coupled_run):
    _, ws = coupled_run
    assert ws.converged
    assert ws.residual_history[-1] <= 4.0 * SPEC.h**2
    assert len(ws.residual_history) == ws.iterations


def test_bracket_invariant(coupled_run):
    _, ws = coupled_run
    for snap, chi in zip(ws.u_traj.snapshots, ws.chi_hist.fields):
        open_ind = (snap.values > 0.0).astype(float)
        closed_ind = (snap.values >= 0.0).astype(float)
        assert np.all(open_ind <= chi.values)
        assert np.all(chi.values <= closed_ind)


def test_replay_reproduces_trajectory(coupled_run):
    # determinism hook: marching again frozen along the march's source
    # history must rebuild the stored trajectory bit for bit
    coup, _ = coupled_run
    ws = march_solve(coup, _clamped_disc(SPEC, 0.3), gamma=0.0, horizon=0.2)
    assert ws.chi_source is ws.chi_hist
    again = march_solve(
        coup, ws.u_traj.snapshots[0], ws.u_traj.gamma, float(ws.u_traj.times[-1]),
        output_times=ws.u_traj.times, chi_hist=ws.chi_source,
    )
    assert again.chi_source is ws.chi_source
    assert again.residual_history == [0.0] and again.converged
    assert again.u_traj.dt_used == ws.u_traj.dt_used
    assert again.u_traj.lipschitz_log == ws.u_traj.lipschitz_log
    for a, b in zip(again.u_traj.snapshots, ws.u_traj.snapshots):
        assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# march_solve
# ---------------------------------------------------------------------------

SPEC33 = GridSpec(33, 1.5)


def _coupled_law(kind):
    if kind == "dislocation":
        return DislocationCoupling(core_ring_kernel(SPEC33, 1.3, 0.15, -0.3, 0.15, 0.3), 0.2)
    if kind == "volume":
        return VolumeCoupling(affine_map(1.0, -1.0))
    return FitzhughNagumoCoupling(
        alpha=clamp_affine_map(0.4, 0.5, 0.0, 0.8),
        g_plus=constant_map(1.0),
        g_minus=constant_map(0.0),
    )


@pytest.mark.parametrize("kind", ["dislocation", "volume", "fitzhugh_nagumo"])
def test_march_is_the_picard_limit(kind):
    # Picard stepped one iteration at a time, each fed the previous
    # iterate's history, until chi stops changing bitwise, lands on the
    # march bit for bit
    coup = _coupled_law(kind)
    u0 = _clamped_disc(SPEC33, 0.3)
    march = march_solve(coup, u0, gamma=0.05, horizon=0.3)

    def same(a, b):
        return all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    # one Picard step is the march frozen along the previous history,
    # starting from the bracket of u0 held constant in time
    chi = constant_history(chi_from_u(u0), march.u_traj.times)
    first = None
    for _ in range(20):
        ws = march_solve(coup, u0, 0.05, 0.3, chi_hist=chi)
        first = first or ws
        if same(ws.chi_hist.fields, chi.fields):
            break
        chi = ws.chi_hist
    else:
        pytest.fail("Picard did not settle in 20 iterations")
    # the first iterate, frozen at the bracket of u0, is not the fixed point
    assert not same(first.u_traj.snapshots, march.u_traj.snapshots)
    assert same(ws.u_traj.snapshots, march.u_traj.snapshots)
    assert same(ws.chi_hist.fields, march.chi_hist.fields)
    assert march.converged and march.iterations == 1


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------


def test_standard_seed_shapes():
    u0 = _clamped_disc(SPEC, 0.3)
    seeds = standard_seeds(u0, [0.0, 0.1, 0.2], R0=0.8)
    assert set(seeds) == {"bracket", "empty", "ball"}
    for hist in seeds.values():
        assert np.array_equal(hist.times, [0.0, 0.1, 0.2])
    assert seeds["empty"].fields[0].values.sum() == 0.0
    ball = seeds["ball"].fields[0].values
    assert np.array_equal(ball, (SPEC.radius() <= 0.8).astype(float))
    assert np.array_equal(
        seeds["bracket"].fields[0].values, chi_from_u(u0).values
    )


def test_probe_needs_two_seeds():
    u0 = _clamped_disc(SPEC, 0.3)
    seeds = standard_seeds(u0, [0.0, 0.1])
    with pytest.raises(ValueError):
        uniqueness_probe(
            ConstantCoupling(1.0), u0, 0.0, 0.1,
            seeds={"bracket": seeds["bracket"]},
        )


def test_probe_decoupled_seeds_agree_exactly():
    # the speed law ignores chi, so every seed produces the identical
    # trajectory and all pairwise gaps vanish
    u0 = _clamped_disc(SPEC, 0.3)
    probe = uniqueness_probe(ConstantCoupling(1.0), u0, 0.0, 0.2)
    assert probe.passed
    for _, _, tau, delta, kappa_sup in probe.rows:
        assert delta == 0.0
        assert kappa_sup == 0.0


def test_probe_coupled_gaps_monotone_in_tau():
    kern = core_ring_kernel(SPEC, 1.0, 0.15, -0.3, 0.15, 0.3)
    coup = DislocationCoupling(kern, 0.2)
    u0 = _clamped_disc(SPEC, 0.3)
    probe = uniqueness_probe(coup, u0, 0.0, 0.2)
    taus = sorted({r[2] for r in probe.rows})
    worst = [max(r[3] for r in probe.rows if r[2] == tau) for tau in taus]
    assert worst[0] <= worst[1] + 1e-15
    assert worst[1] <= worst[2] + 1e-15
    lip = 1.0
    assert probe.uniq_tol == pytest.approx(4.0 * lip * SPEC.h, rel=0.05)
    # Picard from every seed converges to the march
    assert set(probe.march_gaps) == set(probe.seeds)
    assert max(probe.march_gaps.values()) <= probe.uniq_tol


def test_probe_memo_matches_per_seed_picard(monkeypatch):
    # the probe's seeds share one memo of finished marches; Picard run per
    # seed without it must give the same rows, gaps and trajectories, in
    # more steps
    import frontlab.solver
    import frontlab.weak

    coup = _coupled_law("dislocation")
    u0 = _clamped_disc(SPEC33, 0.3)
    plain, advance = frontlab.weak.fixed_point_solve, frontlab.solver.advance
    steps = []

    def counted(*args, **kwargs):
        steps[-1] += 1
        return advance(*args, **kwargs)

    monkeypatch.setattr(frontlab.solver, "advance", counted)
    steps.append(0)
    shared = uniqueness_probe(coup, u0, 0.05, 0.3)
    monkeypatch.setattr(
        frontlab.weak, "fixed_point_solve",
        lambda *args, memo=None, **kwargs: plain(*args, **kwargs),
    )
    steps.append(0)
    alone = uniqueness_probe(coup, u0, 0.05, 0.3)

    assert steps[0] < steps[1]
    assert shared.rows == alone.rows
    assert shared.march_gaps == alone.march_gaps
    for a, b in zip(shared.solutions, alone.solutions):
        assert a.residual_history == b.residual_history
        _assert_same_trajectory(a.u_traj, b.u_traj)


def _assert_same_trajectory(a, b):
    assert a.dt_used == b.dt_used
    assert a.lipschitz_log == b.lipschitz_log
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.values, sb.values)


@pytest.mark.parametrize("kind", ["dislocation", "volume", "fitzhugh_nagumo"])
def test_resumed_march_equals_full_march(kind):
    # a frozen march whose history agrees with a finished one on its first m
    # intervals resumes at t_m with that march's snapshot and coupling state
    # (fitzhugh-nagumo's v) and must equal the same march solved from t_0
    coup = _coupled_law(kind)
    u0 = _clamped_disc(SPEC33, 0.3)
    march = march_solve(coup, u0, gamma=0.05, horizon=0.3)
    memo = []
    first = march_solve(coup, u0, 0.05, 0.3, chi_hist=march.chi_hist, memo=memo)
    fields = march.chi_hist.fields
    empty = ScalarField(SPEC33, np.zeros((SPEC33.n, SPEC33.n)))
    for m in range(len(fields)):
        hist = constant_history(empty, march.chi_hist.times)
        hist.fields[:m] = fields[:m]
        resumed = march_solve(coup, u0, 0.05, 0.3, chi_hist=hist, memo=memo[:1])
        full = march_solve(coup, u0, 0.05, 0.3, chi_hist=hist)
        # from t_1 on the snapshot at t_m is the finished march's own
        assert (resumed.u_traj.snapshots[m] is first.u_traj.snapshots[m]) == (m > 0)
        assert resumed.residual_history == full.residual_history
        _assert_same_trajectory(resumed.u_traj, full.u_traj)
