"""Scenario execution, artifact emission and re-verification.

A run solves the coupled flow to its fixed point by one causal march
(`weak.march_solve`), stores the trajectory,
and runs the requested checks of the table `verify.CHECKS` in table order
on one `verify.CheckContext`.  The contour dump, the radius table and every
check take their contours, areas and etas from that context, so each is
computed once per snapshot.  A run writes a self-contained directory:

    config.txt            echo of the parsed config source (when available)
    init.f64, init_meta.txt    initial field (binary, see grid.dump_field) and
                          its margin certificate
    run_meta.txt          scenario facts needed to re-verify the directory, and
                          the march's step count and smallest and largest dt
    traj/                 t_<k>.f64 per stored time, manifest.csv, meta.txt
    contours/             zero-contour CSV per stored time
    radius_vs_time.csv    time, mean vertex radius, area radius, perimeter, area
    reports/              <check>.csv + <check>.verdict per requested check
    probe.csv, probe.verdict   when the uniqueness probe is enabled
    sweep.csv             star-shape gamma sweep (when configured)
    verdicts.txt          one PASS/FAIL line per check; empty when none is requested
    manifest.txt          sha256 of every artifact
    FAILED                only on abnormal termination, with the message

`verify_run_dir` reloads such a directory, recomputes each stored check
that needs no extra solve, and compares the recomputed report files with
the stored ones byte for byte.  Given the tree of a `preset verify-all`, it
verifies each of the tree's run directories and prefixes their lines with
the run's name.  Every metadata file above is `key = value`
text, written by `grid.meta_text` and read by `grid.load_meta`.

Exit codes: 0 all checks pass (or none was requested), 1 a check failed,
2 configuration or construction error, 3 any other failure: a solve (the
march, a dependence pair, the uniqueness probe) that escapes or goes
unstable, or a fault in a check.  Every exit 2 or 3 of `run` leaves a
one-line FAILED marker, except when the output directory cannot be made (a
path that names a file): that is exit 2 with one `FAIL run (output
directory: ...)` line and no marker.
A run into a used directory first deletes the files its manifest.txt
lists, so the directory then holds only the new run's files.  No artifact
embeds a timestamp, so byte-identical runs produce byte-identical trees.
`verify` maps its failures the same way: exit 1 for a failed check or a
stored report that differs from the recomputed one, 2 for a FAILED marker
or a stored file that is missing or malformed, 3 for any other fault.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, parse_config
from .contour import dump_contour
from .errors import ConfigError, ConstructionError, FieldFormatError
from .geometry import dump_init, load_init
from .grid import load_meta, meta_text
from .solver import cfl_timestep, check_work_budget, dump_trajectory, front_in_guard
from .solver import guard_radius, load_trajectory
from .verify import CHECKS, CheckContext, dump_report, gamma_sweep_star_shape, stored_mismatch
from .weak import march_solve, standard_seeds, uniqueness_probe

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class RunResult:
    exit_code: int
    out_dir: str
    verdicts: list


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def clear_listed(out_dir: str) -> None:
    """Delete the files that out_dir's manifest.txt lists, the directories
    that leaves empty, and the manifest, so that a rerun into a used
    directory leaves only its own files.  Only relative paths that resolve
    to a file inside out_dir are deleted; any other listed path is skipped.
    Each directory above a deleted file, up to out_dir, is looked at once,
    after every directory below it."""
    manifest = os.path.join(out_dir, "manifest.txt")
    if not os.path.isfile(manifest):
        return
    top = os.path.realpath(out_dir)
    with open(manifest, errors="replace") as fh:
        listed = [line.rstrip("\n").partition("  ")[2] for line in fh]
    parents = set()
    for rel in listed:
        path = os.path.normpath(os.path.join(top, rel))
        inside = not os.path.isabs(rel) and os.path.realpath(path).startswith(top + os.sep)
        if inside and os.path.isfile(path):
            os.remove(path)
            parent = os.path.dirname(path)
            while parent.startswith(top + os.sep):
                parents.add(parent)
                parent = os.path.dirname(parent)
    # a directory's path is longer than each of its parents'
    for parent in sorted(parents, key=len, reverse=True):
        if not os.listdir(parent):
            os.rmdir(parent)
    os.remove(manifest)


def _unusable(out_dir: str):
    """None once out_dir is a directory cleared of what its manifest lists of
    an earlier run; otherwise the exit-2 result of a run that cannot use it
    (a file, or a path through one), which can hold no FAILED marker."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        clear_listed(out_dir)
    except OSError as err:
        return RunResult(EXIT_CONFIG, out_dir, [f"FAIL run (output directory: {err})"])
    return None


def fail_run(out_dir: str, message: str, exit_code: int) -> RunResult:
    """End a run in out_dir with a one-line FAILED marker and the manifest,
    after clearing what the directory's manifest lists of an earlier run."""
    if (refused := _unusable(out_dir)) is not None:
        return refused
    _write(os.path.join(out_dir, "FAILED"), message + "\n")
    write_manifest(out_dir)
    return RunResult(exit_code, out_dir, [f"FAIL run ({message})"])


def write_manifest(out_dir: str) -> str:
    """sha256 of every file under out_dir (manifest excluded), sorted."""
    entries = []
    for root, _, files in os.walk(out_dir):
        for fname in files:
            full = os.path.join(root, fname)
            rel = os.path.relpath(full, out_dir)
            if rel == "manifest.txt":
                continue
            with open(full, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append(f"{digest}  {rel}")
    text = "\n".join(sorted(entries)) + "\n"
    _write(os.path.join(out_dir, "manifest.txt"), text)
    return text


def _radius_table(ctx: CheckContext) -> str:
    lines = ["time,mean_radius,area_radius,perimeter,area"]
    for k, t in enumerate(ctx.traj.times):
        contour = ctx.contour(k)
        verts = contour.vertex_array()
        mean_r = float(np.hypot(verts[:, 0], verts[:, 1]).mean()) if verts.size else 0.0
        area = ctx.area(k)
        area_r = float(np.sqrt(max(area, 0.0) / np.pi))
        lines.append(
            f"{t:.17g},{mean_r:.17g},{area_r:.17g},{contour.perimeter():.17g},{area:.17g}"
        )
    return "\n".join(lines) + "\n"


def _gamma_sweep(config: ScenarioConfig, coupling, init, times, out_dir: str, ctx) -> str:
    """Write sweep.csv and return the gamma_sweep verdict line; the run's
    context ctx stands in for the sweep's march and report at config.gamma."""
    gamma_bar, sweep = gamma_sweep_star_shape(
        coupling, init, config.gamma_sweep, config.horizon, output_times=times, run=ctx,
    )
    lines = ["gamma,passed,min_margin"]
    for g in sorted(sweep):
        rep = sweep[g]
        if isinstance(rep, str):
            lines.append(f"{g:.17g},error,nan")
        else:
            lines.append(f"{g:.17g},{'true' if rep.passed else 'false'},{rep.min_margin():.17g}")
    lines.append(f"# gamma_bar_emp = {gamma_bar if gamma_bar is not None else 'none'}")
    _write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return f"{'PASS' if gamma_bar is not None and gamma_bar > 0 else 'FAIL'} gamma_sweep"


def _probe(config: ScenarioConfig, coupling, init, times, out_dir: str, sol) -> str:
    """Run the uniqueness probe against the run's march sol, write probe.csv
    and probe.verdict, and return the uniqueness_probe verdict line."""
    seeds_all = standard_seeds(init.u0, times, R0=init.R0)
    result = uniqueness_probe(
        coupling, init.u0, config.gamma, config.horizon,
        seeds={name: seeds_all[name] for name in config.probe_seeds},
        taus=config.probe_taus, output_times=times, lipschitz=init.lipschitz, R0=init.R0,
        march=sol,
    )
    lines = ["seed_i,seed_j,tau,delta_tau,kappa_sup"]
    for si, sj, tau, delta, ksup in result.rows:
        lines.append(f"{si},{sj},{tau:.17g},{delta:.17g},{ksup:.17g}")
    _write(os.path.join(out_dir, "probe.csv"), "\n".join(lines) + "\n")
    summary = {"passed": "true" if result.passed else "false", "uniq_tol": result.uniq_tol}
    for name, sol in zip(result.seeds, result.solutions):
        summary[f"iterations_{name}"] = sol.iterations
        summary[f"final_residual_{name}"] = sol.residual_history[-1]
        summary[f"converged_{name}"] = "true" if sol.converged else "false"
        summary[f"march_gap_{name}"] = result.march_gaps[name]
    _write(os.path.join(out_dir, "probe.verdict"), meta_text(summary, ()))
    return f"{'PASS' if result.passed else 'FAIL'} uniqueness_probe"


def run(config: ScenarioConfig, out_dir: str = None, config_text: str = None) -> RunResult:
    out_dir = out_dir or config.output_dir
    if (refused := _unusable(out_dir)) is not None:
        return refused
    failed_marker = os.path.join(out_dir, "FAILED")
    if os.path.exists(failed_marker):
        os.remove(failed_marker)
    if config_text is not None:
        _write(os.path.join(out_dir, "config.txt"), config_text)

    # the one failure path: bad input ends the run with exit 2; a solve that
    # escapes the containment ring or goes unstable (the march, a dependence
    # pair, the probe), or any other fault, with exit 3
    try:
        try:
            spec = config.grid()
            # the work budget needs no field, and no solve of gamma takes a
            # longer step than the curvature step: refuse before building one
            check_work_budget(
                spec, config.gamma, cfl_timestep(0.0, config.gamma, spec.h), 0.0, config.horizon
            )
            init = config.build_init(spec)
            # the march's own guard at t = 0, refused here as bad input
            if front_in_guard(init.u0):
                raise ConstructionError(
                    f"the initial front reaches the solver's guard band |x| >= "
                    f"L - 6h = {guard_radius(spec):.4g}"
                )
            coupling = config.build_coupling(spec)
        except (ConstructionError, ConfigError, KeyError, ValueError) as err:
            return fail_run(out_dir, f"construction: {err}", EXIT_CONFIG)
        return _solve_and_check(config, out_dir, init, coupling)
    except Exception as err:
        return fail_run(out_dir, " ".join(f"{type(err).__name__}: {err}".split()), EXIT_NUMERIC)


def _solve_and_check(config: ScenarioConfig, out_dir: str, init, coupling) -> RunResult:
    dump_init(
        init,
        os.path.join(out_dir, "init.f64"),
        os.path.join(out_dir, "init_meta.txt"),
    )
    times = config.times()
    sol = march_solve(coupling, init.u0, config.gamma, config.horizon, output_times=times)
    traj = sol.u_traj
    ctx = CheckContext(traj, init, config, coupling, checks=config.checks)
    dump_trajectory(traj, os.path.join(out_dir, "traj"))
    cdir = os.path.join(out_dir, "contours")
    os.makedirs(cdir, exist_ok=True)
    for k in range(len(traj.snapshots)):
        dump_contour(ctx.contour(k), os.path.join(cdir, f"contour_{k:03d}.csv"))
    _write(os.path.join(out_dir, "radius_vs_time.csv"), _radius_table(ctx))

    verdicts = []
    if config.gamma_sweep and "star_shape" in config.checks:
        verdicts.append(_gamma_sweep(config, coupling, init, times, out_dir, ctx))
    # every report before any is written: a failed dependence pair writes none
    reports = [
        rep for name, (reports_of, _, _) in CHECKS.items()
        if name in config.checks for rep in reports_of(ctx)
    ]
    for rep in reports:
        dump_report(rep, os.path.join(out_dir, "reports"))
        verdicts.append(rep.verdict_line())
    if config.probe_enabled:
        verdicts.append(_probe(config, coupling, init, times, out_dir, sol))

    meta = {
        "name": config.name,
        "gamma": config.gamma,
        "horizon": config.horizon,
        "checks": ",".join(config.checks) if config.checks else "none",
        "probe_enabled": "true" if config.probe_enabled else "false",
        "far_radius": traj.far_radius,
        # the march's step count and dt range; step_log[0], for t_0, holds no step
        "steps": sum(steps for steps, _, _ in traj.step_log),
        "dt_min": min(lo for _, lo, _ in traj.step_log[1:]),
        "dt_max": max(hi for _, _, hi in traj.step_log),
    }
    _write(os.path.join(out_dir, "run_meta.txt"), meta_text(meta, ()))
    _write(os.path.join(out_dir, "verdicts.txt"), "".join(f"{line}\n" for line in verdicts))
    write_manifest(out_dir)

    ok = all(line.startswith("PASS") for line in verdicts)
    return RunResult(EXIT_OK if ok else EXIT_CHECK_FAILED, out_dir, verdicts)


# ---------------------------------------------------------------------------
# the batch preset


def run_verify_all(out_root: str) -> RunResult:
    from .presets import verify_all_configs

    if (refused := _unusable(out_root)) is not None:
        return refused
    exit_code = EXIT_OK
    verdicts = []
    for name, text in verify_all_configs():
        cfg = parse_config(text)
        sub = os.path.join(out_root, name)
        result = run(cfg, out_dir=sub, config_text=text)
        exit_code = max(exit_code, result.exit_code)
        verdicts.extend(f"{name}: {line}" for line in result.verdicts or [NO_CHECKS])
    _write(os.path.join(out_root, "verdicts.txt"), "\n".join(verdicts) + "\n")
    write_manifest(out_root)
    return RunResult(exit_code, out_root, verdicts)


# ---------------------------------------------------------------------------
# re-verification of a stored run directory


NO_CHECKS = "no checks requested"
NO_RECHECK = "no stored check needs recomputing"


def _sub_runs(out_root: str) -> list:
    """The names of the run directories in the tree of a `preset verify-all`:
    none when out_root holds a run_meta.txt of its own, else each
    subdirectory that holds a run_meta.txt or a FAILED marker, in the order
    of the tree's verdicts.txt, then any it does not name, by name."""
    if not os.path.isdir(out_root) or os.path.exists(os.path.join(out_root, "run_meta.txt")):
        return []
    names = sorted(
        name for name in os.listdir(out_root)
        if any(os.path.isfile(os.path.join(out_root, name, f)) for f in ("run_meta.txt", "FAILED"))
    )
    listed = os.path.join(out_root, "verdicts.txt")
    order = []
    if os.path.isfile(listed):
        with open(listed, errors="replace") as fh:
            order = list(dict.fromkeys(line.partition(": ")[0] for line in fh))
    return sorted(names, key=lambda name: order.index(name) if name in order else len(order))


def _verify_tree(out_root: str, names: list) -> RunResult:
    """`verify_run_dir` of each named run directory of out_root, its lines
    prefixed with `name: ` as `run_verify_all` prefixes them; the exit code
    is the worst of them."""
    exit_code = EXIT_OK
    verdicts = []
    for name in names:
        result = verify_run_dir(os.path.join(out_root, name))
        exit_code = max(exit_code, result.exit_code)
        verdicts.extend(f"{name}: {line}" for line in result.verdicts or [NO_RECHECK])
    return RunResult(exit_code, out_root, verdicts)


def verify_run_dir(run_dir: str) -> RunResult:
    """Reload a run directory, recompute every stored check that needs no
    extra solve, and compare the recomputed report files with the stored
    ones byte for byte.  The tree of a `preset verify-all`, which holds no
    run of its own, is verified run directory by run directory
    (`_verify_tree`).

    Exit 0 iff every recomputed report equals its stored files and passes;
    1 when a check fails or a stored report differs: `(verdict mismatch with
    stored report)` when it lacks the recomputed `passed` line, `(report
    drift)` otherwise.  Every other ending is one FAIL verify line, mapped
    here alone: 2 for a FAILED marker (read first) or a stored file that is
    missing or malformed (`FieldFormatError`), 3 for any other fault."""
    try:
        if names := _sub_runs(run_dir):
            return _verify_tree(run_dir, names)
        verdicts = _recheck(run_dir)
    except FileNotFoundError as err:
        code, message = EXIT_CONFIG, f"missing {err.filename}"
    except FieldFormatError as err:
        code, message = EXIT_CONFIG, str(err)
    except Exception as err:
        code, message = EXIT_NUMERIC, " ".join(f"{type(err).__name__}: {err}".split())
    else:
        ok = all(line.startswith("PASS") for line in verdicts)
        return RunResult(EXIT_OK if ok else EXIT_CHECK_FAILED, run_dir, verdicts)
    return RunResult(code, run_dir, [f"FAIL verify ({message})"])


def _recheck(run_dir: str) -> list:
    """verify_run_dir's verdict lines; raises on a directory it cannot check."""
    marker = os.path.join(run_dir, "FAILED")
    if os.path.isfile(marker):
        with open(marker, errors="replace") as fh:
            raise FieldFormatError(f"FAILED: {' '.join(fh.read().split())}")
    meta_path = os.path.join(run_dir, "run_meta.txt")
    meta, _ = load_meta(meta_path, ("checks",), ("name", "checks", "probe_enabled"))
    checks = tuple(c for c in meta["checks"].split(",") if c and c != "none")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise FieldFormatError(f"{meta_path}: unknown check {unknown[0]!r}")
    traj = load_trajectory(os.path.join(run_dir, "traj"))
    init = load_init(os.path.join(run_dir, "init.f64"), os.path.join(run_dir, "init_meta.txt"))
    ctx = CheckContext(traj, init, checks=checks)

    verdicts = []
    rdir = os.path.join(run_dir, "reports")
    for name, (reports_of, needs_solves, _) in CHECKS.items():
        if name not in checks or needs_solves:
            continue
        for rep in reports_of(ctx):
            suffix = stored_mismatch(rep, rdir)
            tag = "PASS" if rep.passed and not suffix else "FAIL"
            verdicts.append(f"{tag} {rep.name}{suffix}")
    return verdicts
