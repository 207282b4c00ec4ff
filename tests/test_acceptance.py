"""Acceptance gate: one test per advertised guarantee, at full preset scale.

Each test prints a single `PASS criterion N` / `FAIL criterion N` line with
the measured numbers (visible under pytest -s; the test name carries the
verdict otherwise).  The preset runs are session fixtures, so each scenario
is solved once and every criterion reads the stored artifacts.

Scenario shorthand used below: scenarios 1-4 are the mcf-circle,
constant-speed, volume-flow, and dislocation presets.
"""

import math
import os
import time

import numpy as np
import pytest

from frontlab.config import parse_config
from frontlab.couplings import convolve_kernel
from frontlab.contour import extract_contour
from frontlab.geometry import load_init
from frontlab.grid import GridSpec, ScalarField, load_meta
from frontlab.presets import preset_text
from frontlab.runner import run, run_verify_all
from frontlab.solver import load_trajectory, regularity_report
from frontlab.verify import cone_report, key_estimate_report
from frontlab.weak import march_solve
from stored_reports import load_report

SCENARIOS = ("mcf-circle", "constant-speed", "volume-flow", "dislocation")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}", flush=True)


def _run_preset(name: str, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"accept_{name}") / "run"
    start = time.perf_counter()
    result = run(parse_config(preset_text(name)), out_dir=str(out), config_text=preset_text(name))
    return result, out, time.perf_counter() - start


def _final_mean_radius(out) -> float:
    lines = (out / "radius_vs_time.csv").read_text().splitlines()
    return float(lines[-1].split(",")[1])


@pytest.fixture(scope="session")
def mcf_run(tmp_path_factory):
    return _run_preset("mcf-circle", tmp_path_factory)


@pytest.fixture(scope="session")
def const_run(tmp_path_factory):
    return _run_preset("constant-speed", tmp_path_factory)


@pytest.fixture(scope="session")
def volume_run(tmp_path_factory):
    return _run_preset("volume-flow", tmp_path_factory)


@pytest.fixture(scope="session")
def dislocation_run(tmp_path_factory):
    return _run_preset("dislocation", tmp_path_factory)


@pytest.fixture(scope="session")
def probe_run(tmp_path_factory):
    return _run_preset("uniqueness-probe", tmp_path_factory)


@pytest.fixture(scope="session")
def scenario_runs(mcf_run, const_run, volume_run, dislocation_run):
    return dict(zip(SCENARIOS, (mcf_run, const_run, volume_run, dislocation_run)))


# ---------------------------------------------------------------------------
# 1-3: radius oracles
# ---------------------------------------------------------------------------


def test_criterion_01_curvature_circle_oracle(mcf_run):
    result, out, seconds = mcf_run
    radius = _final_mean_radius(out)
    want = math.sqrt(1.0 - 2.0 * 0.18)
    ok = result.exit_code == 0 and abs(radius - want) <= 0.02 * want and seconds < 60
    _verdict(1, ok, f"radius {radius:.4f} vs {want:.4f}, exit {result.exit_code}, "
                    f"{seconds:.1f}s")
    assert result.exit_code == 0
    assert radius == pytest.approx(want, rel=0.02)
    assert seconds < 60


def test_criterion_02_constant_speed_oracle(const_run):
    result, out, seconds = const_run
    radius = _final_mean_radius(out)
    ok = result.exit_code == 0 and abs(radius - 0.9) <= 0.02 * 0.9 and seconds < 20
    _verdict(2, ok, f"radius {radius:.4f} vs 0.9, exit {result.exit_code}, "
                    f"{seconds:.1f}s")
    assert result.exit_code == 0
    assert radius == pytest.approx(0.9, rel=0.02)
    assert seconds < 20


def _rk4_volume_radius(r0: float, gamma: float, horizon: float, steps: int = 3000):
    # R' = beta(pi R^2) - gamma / R with beta(a) = 1 - a
    def f(r):
        return (1.0 - np.pi * r * r) - gamma / r

    dt = horizon / steps
    r = r0
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return r


def test_criterion_03_volume_flow_oracle():
    cfg = parse_config(preset_text("volume-flow"))
    spec = cfg.grid()
    init = cfg.build_init(spec)
    coupling = cfg.build_coupling(spec)
    start = time.perf_counter()
    # the volume speed is read at every stored time, so the preset's own
    # times keep it following the area; a single interval would freeze it
    sol = march_solve(coupling, init.u0, cfg.gamma, cfg.horizon,
                      output_times=cfg.times())
    seconds = time.perf_counter() - start
    verts = extract_contour(sol.u_traj.snapshots[-1], 0.0).vertex_array()
    radius = float(np.hypot(verts[:, 0], verts[:, 1]).mean())
    want = _rk4_volume_radius(cfg.r0, cfg.gamma, cfg.horizon)
    ok = abs(radius - want) <= 0.03 * want and seconds < 60
    _verdict(3, ok, f"radius {radius:.4f} vs RK4 {want:.4f}, {seconds:.1f}s")
    assert radius == pytest.approx(want, rel=0.03)
    assert seconds < 60


# ---------------------------------------------------------------------------
# 4: short-time uniqueness probe
# ---------------------------------------------------------------------------


def test_criterion_04_uniqueness_probe(probe_run):
    result, out, seconds = probe_run
    init = load_init(out / "init.f64", out / "init_meta.txt")
    h = init.u0.spec.h
    seeds = parse_config(preset_text("uniqueness-probe")).probe_seeds
    verdict, _ = load_meta(
        out / "probe.verdict", required=(), texts=("passed", *(f"converged_{s}" for s in seeds))
    )

    iters = {k: int(v) for k, v in verdict.items() if k.startswith("iterations_")}
    # every residual is a whole number of cells times h^2: compare the cells
    cells = {k: round(v / (h * h)) for k, v in verdict.items()
             if k.startswith("final_residual_")}
    tau_star = 0.15 / 4.0
    deltas = []
    for line in (out / "probe.csv").read_text().splitlines()[1:]:
        _, _, tau, delta, _ = line.split(",")
        if abs(float(tau) - tau_star) < 1e-9:
            deltas.append(float(delta))
    bound = 4.0 * init.lipschitz * h

    ok = (result.exit_code == 0 and deltas and max(deltas) <= bound
          and all(v <= 8 for v in iters.values())
          and all(v <= 4 for v in cells.values())
          and seconds < 180)
    _verdict(4, ok, f"max delta(T/4) {max(deltas):.5f} vs {bound:.5f}, "
                    f"iters {sorted(iters.values())}, "
                    f"max residual {max(cells.values())} cells of h^2 vs 4, "
                    f"exit {result.exit_code}, {seconds:.1f}s")
    assert result.exit_code == 0
    assert max(deltas) <= bound
    assert all(v <= 8 for v in iters.values())
    assert all(v <= 4 for v in cells.values())
    assert seconds < 180


# ---------------------------------------------------------------------------
# 5-9, 11: stored quantitative reports on scenarios 1-4
# ---------------------------------------------------------------------------


def test_criterion_05_key_estimate(scenario_runs):
    details = []
    ok = True
    for name, (_, out, _) in scenario_runs.items():
        rep = load_report(out / "reports", "key_estimate")
        eta_start = rep.rows[0][1]
        t_bar = rep.constants["t_bar_emp"]
        exponent = rep.constants["decay_exponent"]
        good_prefix = eta_start > 0.0 and t_bar > 0.0
        good_exp = (not np.isfinite(exponent)) or 0.3 <= exponent <= 0.8
        ok = ok and good_prefix and good_exp
        details.append(f"{name}: eta(0)={eta_start:.3f} t_bar={t_bar:.3f} "
                       f"exp={exponent:.3f}")
    _verdict(5, ok, "; ".join(details))
    for name, (_, out, _) in scenario_runs.items():
        rep = load_report(out / "reports", "key_estimate")
        assert rep.rows[0][1] > 0.0, name
        assert rep.constants["t_bar_emp"] > 0.0, name
        exponent = rep.constants["decay_exponent"]
        if np.isfinite(exponent):
            assert 0.3 <= exponent <= 0.8, (
                f"{name}: decay exponent {exponent:.3f} outside [0.3, 0.8]"
            )


def _assert_reports_pass(num, scenario_runs, report_name, extra=None):
    details = []
    ok = True
    reps = {}
    for name, (_, out, _) in scenario_runs.items():
        rep = load_report(out / "reports", report_name)
        reps[name] = rep
        good = rep.passed and (extra is None or extra(rep))
        ok = ok and good
        details.append(f"{name}: {'ok' if good else 'FAIL'} "
                       f"min_margin={rep.min_margin():.4f}")
    _verdict(num, ok, "; ".join(details))
    for name, rep in reps.items():
        assert rep.passed, f"{name}: stored {report_name} report failed"
        if extra is not None:
            assert extra(rep), f"{name}: {report_name} side condition failed"


def test_criterion_06_lower_gradient(scenario_runs):
    _assert_reports_pass(6, scenario_runs, "lower_gradient")


def test_criterion_07_cone_property(scenario_runs, const_run):
    details = []
    ok = True
    for name, (_, out, _) in scenario_runs.items():
        rep = load_report(out / "reports", "cone")
        frac = rep.constants["failure_fraction"]
        good = rep.passed and frac <= 0.01
        ok = ok and good
        details.append(f"{name}: fraction {frac:.4f}")

    # the adversarial variant must fail: recompute on the stored
    # constant-speed trajectory with the cone axis negated
    _, out, _ = const_run
    init = load_init(out / "init.f64", out / "init_meta.txt")
    traj = load_trajectory(out / "traj")
    sched, key_rep = key_estimate_report(traj, init)
    flipped = cone_report(traj, init, sched, regularity_report(traj),
                          t_bar=key_rep.constants["t_bar_emp"], flip_axis=True)
    ok = ok and not flipped.passed
    details.append(f"flipped fraction {flipped.constants['failure_fraction']:.3f}")

    _verdict(7, ok, "; ".join(details))
    for name, (_, out_dir, _) in scenario_runs.items():
        rep = load_report(out_dir / "reports", "cone")
        assert rep.passed and rep.constants["failure_fraction"] <= 0.01, name
    assert not flipped.passed


def test_criterion_08_perimeter(scenario_runs):
    _assert_reports_pass(8, scenario_runs, "perimeter")


def test_criterion_09_band_measure(scenario_runs):
    def linear_and_green(rep):
        return (rep.constants["ratio_spread"] < 2.0
                and np.isfinite(rep.constants["m5_emp"])
                and rep.constants["green_spread"] < 2.0)

    _assert_reports_pass(9, scenario_runs, "band_measure", extra=linear_and_green)


def test_criterion_11_non_fattening(scenario_runs):
    _assert_reports_pass(11, scenario_runs, "non_fattening")


# ---------------------------------------------------------------------------
# 10: continuous dependence under frozen-occupation perturbations
# ---------------------------------------------------------------------------


def test_criterion_10_continuous_dependence(dislocation_run):
    _, out, _ = dislocation_run
    rep = load_report(out / "reports", "dependence")
    m1 = rep.constants["m1_fit"]
    change = rep.constants["stability_change"]
    ok = rep.passed and np.isfinite(m1) and change < 0.5
    _verdict(10, ok, f"M1 {m1:.3f}, halved-perturbation change {change:.1%}")
    assert rep.passed
    assert np.isfinite(m1)
    assert change < 0.5


# ---------------------------------------------------------------------------
# 12: star-shapedness and the gamma sweep
# ---------------------------------------------------------------------------


def test_criterion_12_star_shape_sweep(volume_run):
    _, out, _ = volume_run
    star = load_report(out / "reports", "star_shape")
    rows = {}
    gamma_bar = None
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        if line.startswith("# gamma_bar_emp"):
            value = line.split("=")[1].strip()
            gamma_bar = None if value == "none" else float(value)
        elif line and not line.startswith("gamma,"):
            g, passed, _ = line.split(",")
            rows[float(g)] = passed == "true"
    ok = (star.passed and rows.get(0.0) is True and rows.get(0.02) is True
          and gamma_bar is not None and gamma_bar > 0.0)
    _verdict(12, ok, f"star margin min {star.min_margin():.4f}, "
                     f"sweep {rows}, gamma_bar_emp {gamma_bar}")
    assert star.passed
    assert rows.get(0.0) is True and rows.get(0.02) is True
    assert gamma_bar is not None and gamma_bar > 0.0


# ---------------------------------------------------------------------------
# 13: convolution route equivalence
# ---------------------------------------------------------------------------


def _shifted_double_sum(kern: ScalarField, chi: ScalarField) -> np.ndarray:
    """h^2 sum_j kern(x_i - x_j) chi(x_j) by direct window summation; the
    offset x_i - x_j sits at kernel index (i - j) + c with c the centre."""
    n, h = kern.spec.n, kern.spec.h
    c = (n - 1) // 2
    out = np.zeros((n, n))
    for iy in range(n):
        for ix in range(n):
            jy0, jy1 = max(0, iy + c - (n - 1)), min(n - 1, iy + c)
            jx0, jx1 = max(0, ix + c - (n - 1)), min(n - 1, ix + c)
            rows = np.arange(jy0, jy1 + 1)
            cols = np.arange(jx0, jx1 + 1)
            block = kern.values[np.ix_(iy + c - rows, ix + c - cols)]
            out[iy, ix] = float(
                (block * chi.values[np.ix_(rows, cols)]).sum()
            )
    return out * h * h


def test_criterion_13_convolution_equivalence():
    spec = GridSpec(65, 1.5)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        kern = ScalarField(spec, rng.normal(size=(65, 65)))
        chi = ScalarField(spec, rng.integers(0, 2, size=(65, 65)).astype(float))
        fast = convolve_kernel(kern, chi).values
        slow = _shifted_double_sum(kern, chi)
        scale = max(1.0, float(np.abs(slow).max()))
        worst = max(worst, float(np.max(np.abs(fast - slow))) / scale)
    ok = worst < 1e-10
    _verdict(13, ok, f"worst relative gap {worst:.2e} over 5 pairs")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 14: determinism across repeat runs
# ---------------------------------------------------------------------------


def test_criterion_14_determinism(tmp_path_factory):
    manifests = []
    codes = []
    for attempt in ("a", "b"):
        root = tmp_path_factory.mktemp(f"verify_all_{attempt}")
        result = run_verify_all(str(root))
        codes.append(result.exit_code)
        manifests.append((root / "manifest.txt").read_bytes())
    ok = manifests[0] == manifests[1]
    _verdict(14, ok, f"exit codes {codes}, manifests "
                     f"{'identical' if ok else 'DIFFER'} across repeat runs")
    assert manifests[0] == manifests[1]
    assert codes[0] == codes[1]
