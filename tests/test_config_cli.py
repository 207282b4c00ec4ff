"""Config parsing, presets, and the command-line front end.

The CLI tests run tiny 65-node scenarios end to end through main() and judge
exit codes plus the artifact tree; every error path must surface as the
documented exit code (2 config, 3 numeric) rather than a traceback.  The
damaged-run-directory cases run `frontlab verify` in a fresh interpreter on
a 33-node run, so a traceback would show on its stderr.
"""

import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frontlab
from frontlab import cli
from frontlab.cli import main
from frontlab.config import (
    COUPLINGS,
    DEFAULT_CHECKS,
    INIT_KINDS,
    KEYS,
    ScenarioConfig,
    parse_config,
)
from frontlab.couplings import (
    ConstantCoupling,
    DislocationCoupling,
    FitzhughNagumoCoupling,
    VolumeCoupling,
)
from frontlab.errors import ConfigError
from frontlab.grid import load_field
from frontlab.presets import list_presets, preset_text, verify_all_configs
from frontlab.runner import RunResult, clear_listed, run, verify_run_dir, write_manifest

BASE = "init.kind = circle\ninit.r0 = 0.5\n"

TINY = """\
name = tiny
grid.n = 65
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = constant
coupling.c = 0.3
gamma = 0.0
horizon = 0.05
output_times = 5
checks = key_estimate, lower_gradient, star_shape
"""

SMALL = TINY.replace("grid.n = 65", "grid.n = 33")


def _error(text: str) -> str:
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    return str(caught.value)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_minimal_config_parses():
    cfg = parse_config(
        "init.kind = circle\n"
        "init.r0 = 0.5\n"
        "coupling.kind = volume\n"
        "coupling.beta = constant(0)\n"
    )
    assert cfg.r0 == 0.5
    assert cfg.n == 129
    assert cfg.checks == DEFAULT_CHECKS
    assert isinstance(cfg.build_coupling(), VolumeCoupling)


def test_empty_text_is_all_defaults():
    cfg = parse_config("")
    assert cfg == ScenarioConfig(coupling_params={})
    assert isinstance(cfg.build_coupling(), ConstantCoupling)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# preamble\n\ngamma = 0.25  # inline note\n")
    assert cfg.gamma == 0.25


def test_full_key_set():
    cfg = parse_config(
        "name = everything\n"
        "grid.n = 65\n"
        "grid.L = 2.0\n"
        "init.kind = star_shaped\n"
        "init.kernel_points = 0.4,0 ; -0.4, 0\n"
        "init.r0 = 0.3\n"
        "coupling.kind = dislocation\n"
        "coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)\n"
        "coupling.c1 = 0.2\n"
        "gamma = 0.1\n"
        "horizon = 0.2\n"
        "output_times = 0, 0.1, 0.2\n"
        "checks = cone, dependence\n"
        "probe.enabled = true\n"
        "probe.seeds = bracket, ball\n"
        "probe.taus = 0.1, 0.2\n"
        "gamma_sweep = 0, 0.02\n"
        "output_dir = elsewhere\n"
    )
    assert cfg.kernel_points == ((0.4, 0.0), (-0.4, 0.0))
    assert tuple(cfg.times()) == (0.0, 0.1, 0.2)
    assert cfg.checks == ("cone", "dependence")
    assert cfg.probe_seeds == ("bracket", "ball")
    assert cfg.probe_taus == (0.1, 0.2)
    assert cfg.gamma_sweep == (0.0, 0.02)
    assert cfg.grid().n == 65
    assert isinstance(cfg.build_coupling(), DislocationCoupling)


def test_count_output_times_is_linspace():
    cfg = parse_config("horizon = 0.3\noutput_times = 4\n")
    assert list(cfg.times()) == pytest.approx([0.0, 0.1, 0.2, 0.3])


def test_checks_none_disables_all():
    assert parse_config("checks = none\n").checks == ()


def test_fitzhugh_nagumo_coupling_builds():
    cfg = parse_config(
        "coupling.kind = fitzhugh_nagumo\n"
        "coupling.alpha = clamp_affine(0.4,0.5,0,0.8)\n"
        "coupling.g_plus = constant(1)\n"
        "coupling.g_minus = constant(0)\n"
    )
    assert isinstance(cfg.build_coupling(), FitzhughNagumoCoupling)


# ---------------------------------------------------------------------------
# error reporting: first violation, line number, offending key
# ---------------------------------------------------------------------------


def test_negative_gamma_names_line():
    assert _error(BASE + "gamma = -1\n") == "line 3: gamma must be >= 0"


def test_unknown_coupling_kind():
    msg = _error(BASE + "coupling.kind = foo\n")
    assert msg == "line 3: unknown coupling kind 'foo'"


def test_unknown_key():
    assert _error("grid.m = 5\n") == "line 1: unknown key 'grid.m'"


# keys of earlier versions: the containment ring is the grid's L - 2h, the
# probe's Picard stop is fixed in frontlab.weak, and the direction field is
# always the radial nu = -x
REMOVED_KEYS = ("far_radius", "max_iter", "tol", "init.nu")


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_exits_two_on_its_line(tmp_path, capsys, key):
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(BASE + f"{key} = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: line 3: unknown key {key!r}\n"


def test_duplicate_key_points_at_both_lines():
    msg = _error("gamma = 0\ngamma = 0.1\n")
    assert msg == "line 2: duplicate key 'gamma' (first set on line 1)"


def test_missing_equals_sign():
    assert "expected key = value" in _error("just words\n")


@pytest.mark.parametrize(
    "line,needle",
    [
        ("grid.n = 64", "odd and >= 33"),
        ("grid.n = 31", "odd and >= 33"),
        ("grid.L = 0", "grid.L must be > 0"),
        ("init.r0 = 0", "init.r0 must be > 0"),
        ("init.kind = blob", "circle or star_shaped"),
        ("horizon = 0", "horizon must be > 0"),
        ("output_times = 1", "count must be >= 2"),
        ("gamma = fast", "expected a number"),
        ("probe.enabled = maybe", "expected true/false"),
        ("checks = cone, wiggle", "unknown check 'wiggle'"),
        ("probe.seeds = bracket", "at least two seeds"),
        ("probe.seeds = bracket, blob", "unknown seed 'blob'"),
        ("gamma_sweep = 0, -0.1", "must be >= 0"),
        ("output_times = 2", "checks cone, perimeter need at least 3 stored times, got 2"),
        ("output_times = 100000", "above the 512 MiB budget"),
        ("gamma = nan", "gamma must be finite"),
        ("horizon = inf", "horizon must be finite"),
        ("coupling.c = nan", "coupling.c must be finite"),
        ("probe.taus = 0.01, inf", "probe.taus must be finite"),
        ("init.kernel_points = 0,nan", "init.kernel_points must be finite"),
        ("coupling.kernel = disc_bump(1,nan)", "arguments must be finite"),
        ("coupling.beta = affine(inf,1)", "arguments must be finite"),
        ("coupling.kernel = disc_bump(1,-1)", "disc_bump radii must be > 0"),
        ("coupling.kernel = gaussian(1,0)", "gaussian radii must be > 0"),
        ("coupling.kernel = disc_bump(0,0.2)", "masses are all zero"),
        ("coupling.kernel = core_ring(0,0.15,0,0.15,0.3)", "masses are all zero"),
        ("coupling.kernel = core_ring(1,0.15,-0.3,0.3,0.3)", "core <= inner < outer"),
        ("coupling.kernel = core_ring(1,0.2,-0.3,0.15,0.3)", "core <= inner < outer"),
    ],
)
def test_single_line_constraints(line, needle):
    msg = _error(line + "\n")
    assert msg.startswith("line 1:")
    assert needle in msg


def test_snapshot_budget_counts_each_probe_seed():
    # 129^2 x 2000 x 8 bytes is 254 MiB: within the budget for one
    # trajectory, above it for the run and its three probe seeds
    text = "output_times = 2000\nchecks = none\n"
    assert parse_config(text).output_times == 2000
    msg = _error(text + "probe.enabled = true\n")
    assert msg.startswith("line 1:") and "x 4 trajectories" in msg


def test_output_times_must_be_monotone():
    msg = _error("horizon = 0.1\noutput_times = 0.05, 0.02\n")
    assert msg == "line 2: output_times must be nondecreasing"


def test_output_times_must_fit_horizon():
    msg = _error("horizon = 0.1\noutput_times = 0, 0.2\n")
    assert "within [0, horizon]" in msg


def test_kernel_validation():
    head = "coupling.kind = dislocation\n"
    assert "unknown kernel 'blob'" in _error(head + "coupling.kernel = blob(1,2)\n")
    assert "takes 2 arguments" in _error(head + "coupling.kernel = disc_bump(1)\n")


def test_scalar_map_validation():
    msg = _error("coupling.kind = volume\ncoupling.beta = warp(1)\n")
    assert msg.startswith("line 2: coupling.beta:")


def test_missing_coupling_parameter_blames_kind_line():
    msg = _error(BASE + "coupling.kind = volume\n")
    assert msg == (
        "line 3: coupling.kind = volume requires coupling.beta (the area response map)"
    )


@pytest.mark.parametrize("text, line, message", [
    ("coupling.kind = constant\ncoupling.kernel = gaussian(1,0.1)\n", 2,
     "coupling.kind = constant does not read coupling.kernel; it reads coupling.c"),
    ("coupling.kind = constant\ncoupling.c = 1\ncoupling.beta = constant(5)\n", 3,
     "coupling.kind = constant does not read coupling.beta; it reads coupling.c"),
    ("coupling.kind = constant\ncoupling.v0 = 3\n", 2,
     "coupling.kind = constant does not read coupling.v0; it reads coupling.c"),
    ("coupling.c1 = 0.2\n", 1,
     "coupling.kind = constant does not read coupling.c1; it reads coupling.c"),
    ("coupling.kind = volume\ncoupling.kernel = gaussian(1,0.1)\ncoupling.beta = constant(0)\n", 2,
     "coupling.kind = volume does not read coupling.kernel; it reads coupling.beta"),
    ("coupling.kind = dislocation\ncoupling.kernel = gaussian(1,0.1)\ncoupling.c = 1\n", 3,
     "coupling.kind = dislocation does not read coupling.c; "
     "it reads coupling.kernel, coupling.c1"),
    ("init.kind = circle\ninit.kernel_points = 0.3,0\n", 2,
     "init.kind = circle does not read init.kernel_points; it reads init.r0"),
    ("init.kernel_points = 0.3,0\n", 1,
     "init.kind = circle does not read init.kernel_points; it reads init.r0"),
], ids=["constant-kernel", "constant-beta", "constant-v0", "default-kind-c1", "volume-kernel",
        "dislocation-c", "circle-kernel-points", "default-kind-kernel-points"])
def test_key_the_kind_does_not_read_exits_two_on_its_line(tmp_path, capsys, text, line, message):
    # each parsed on earlier versions and was then ignored: the run built
    # the kind's defaults, a zero constant speed or a centred circle
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(text)
    code = main(["run", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: line {line}: {message}\n"


def test_value_errors_fire_before_the_kind_check():
    msg = _error("coupling.kind = constant\ncoupling.kernel = gaussian(1,0)\n")
    assert msg == "line 2: coupling.kernel: gaussian radii must be > 0, got 'gaussian(1,0)'"


def test_kind_tables_cover_exactly_the_section_keys():
    for section, kinds in (("coupling", COUPLINGS), ("init", INIT_KINDS)):
        params = {p for required, optional, *_ in kinds.values() for p in (*required, *optional)}
        keys = {k.partition(".")[2] for k in KEYS if k.startswith(section + ".")}
        assert keys == params | {"kind"}, section


def test_readme_key_table_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in table.splitlines()[2:]:
        named.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert named == set(KEYS)


# the smallest config around each key: n = 33, no checks, and for a key of
# one coupling or initial-data kind that kind with what it requires
_FUZZ_BASE = {"grid.n": "33", "horizon": "0.05", "output_times": "3", "checks": "none"}


def _around(key, value):
    lines = dict(_FUZZ_BASE)
    section, _, param = key.partition(".")
    kinds = {"coupling": COUPLINGS, "init": INIT_KINDS}.get(section, {})
    for kind, (required, optional, *_) in kinds.items():
        if param in (*required, *optional) and not (section == "init" and param in optional):
            lines[f"{section}.kind"] = kind
            for need in required:
                lines[f"{section}.{need}"] = {
                    "kernel": "gaussian(1,0.1)", "kernel_points": "0,0"
                }.get(need, "constant(0)")
    lines[key] = value
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


_VALUES = st.one_of(
    st.text(),
    st.text(alphabet="0123456789.,;-+e()_ acfinxs"),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1" + "0" * 400 + "1", "1e308", "5e-324", "-0", "gaussian(1e308,1e308)"]),
)


@pytest.mark.parametrize("key", sorted([*KEYS, *REMOVED_KEYS]))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(value=_VALUES)
def test_any_value_parses_or_is_a_config_error_with_a_line(key, value):
    try:
        parse_config(_around(key, value))
    except ConfigError as err:
        assert err.line is not None


def test_star_shaped_requires_kernel_points():
    assert "requires init.kernel_points" in _error("init.kind = star_shaped\n")


def test_bad_kernel_points():
    msg = _error("init.kind = star_shaped\ninit.kernel_points = 1;2\n")
    assert "x,y pairs" in msg


def test_oversized_support_rejected():
    assert "does not fit the grid" in _error("init.r0 = 1.48\n")


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_catalogue():
    assert list_presets() == [
        "constant-speed",
        "dislocation",
        "fitzhugh-nagumo",
        "mcf-circle",
        "uniqueness-probe",
        "volume-flow",
        "verify-all",
    ]


def test_every_preset_parses():
    for name in list_presets():
        if name == "verify-all":
            continue
        cfg = parse_config(preset_text(name))
        assert cfg.name == name
        cfg.build_coupling()


def test_verify_all_configs_are_scaled():
    entries = verify_all_configs()
    assert len(entries) == 6
    for name, text in entries:
        cfg = parse_config(text)
        assert cfg.n == 129
        assert cfg.name == f"{name}-129"


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset_text("nonesuch")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    out = root / "run"
    code = main(["run", str(cfg), "--out", str(out)])
    return code, out


def test_run_exit_zero_and_artifacts(tiny_run):
    code, out = tiny_run
    assert code == 0
    for name in ("config.txt", "init.f64", "init_meta.txt", "run_meta.txt",
                 "radius_vs_time.csv", "verdicts.txt", "manifest.txt"):
        assert (out / name).exists()
    assert (out / "traj").is_dir()
    assert (out / "contours").is_dir()
    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert "PASS fixed_point" in verdicts
    for check in ("key_estimate", "lower_gradient", "star_shape"):
        assert f"PASS {check}" in verdicts
        assert (out / "reports" / f"{check}.csv").exists()
        assert (out / "reports" / f"{check}.verdict").exists()
    assert not (out / "FAILED").exists()


def test_manifest_covers_every_artifact(tiny_run):
    _, out = tiny_run
    listed = {
        line.split("  ", 1)[1]
        for line in (out / "manifest.txt").read_text().splitlines()
    }
    on_disk = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.txt"
    }
    assert listed == on_disk


def test_verify_reproduces_verdicts(tiny_run, capsys):
    _, out = tiny_run
    code = main(["verify", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    for check in ("key_estimate", "lower_gradient", "star_shape"):
        assert f"PASS {check}" in lines


def test_verify_detects_tampered_verdict(tiny_run, tmp_path, capsys):
    _, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    verdict = copy / "reports" / "key_estimate.verdict"
    verdict.write_text(verdict.read_text().replace("passed = true", "passed = false"))
    code = main(["verify", str(copy)])
    lines = capsys.readouterr().out
    assert code == 1
    assert "FAIL key_estimate (verdict mismatch with stored report)" in lines


def _change_last_digit(path):
    lines = path.read_text().splitlines()
    _replace_line(path, 1, lines[1][:-1] + ("1" if lines[1][-1] != "1" else "2"))


@pytest.mark.parametrize("name, edit", [
    ("lower_gradient.csv", _change_last_digit),
    ("key_estimate.verdict", lambda p: p.write_text(
        re.sub(r"(?m)^fit_residual = .*$", "fit_residual = abc", p.read_text()))),
    ("star_shape.csv", lambda p: _replace_line(p, 2, "0.0125,abc,0,0")),
    ("lower_gradient.verdict", lambda p: p.write_bytes(p.read_bytes() + b"\xff\xfe")),
], ids=["digit", "verdict-text", "csv-text", "verdict-bytes"])
def test_verify_detects_report_drift(tiny_run, tmp_path, capsys, name, edit):
    # the verdict stands and the report drifted, whatever the edited bytes:
    # verify compares them and parses no stored number
    _, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit(copy / "reports" / name)
    code = main(["verify", str(copy)])
    printed = capsys.readouterr().out.splitlines()
    assert code == 1
    edited = name.split(".")[0]
    assert printed == [
        f"FAIL {check} (report drift)" if check == edited else f"PASS {check}"
        for check in ("key_estimate", "lower_gradient", "star_shape")
    ]


def test_verify_rejects_unknown_check(tiny_run, tmp_path, capsys):
    _, out = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    meta = copy / "run_meta.txt"
    text = meta.read_text()
    meta.write_text(text.replace("checks = key_estimate,lower_gradient,star_shape",
                                 "checks = bogus"))
    assert "checks = bogus" in meta.read_text()
    code = main(["verify", str(copy)])
    printed = capsys.readouterr().out
    assert code == 2
    assert "unknown check 'bogus'" in printed


def test_verify_needs_run_dir(tmp_path, capsys):
    code = main(["verify", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


def _python(*args, cwd=None):
    """`python args` in a fresh interpreter that imports this frontlab."""
    src = str(Path(frontlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )


def _frontlab(*args, cwd=None):
    """`python -m frontlab.cli args` in a fresh interpreter, as a shell runs it."""
    return _python("-m", "frontlab.cli", *args, cwd=cwd)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL)
    proc = _frontlab("run", cfg, "--out", root / "run")
    assert proc.returncode == 0, proc.stderr
    return root / "run"


def _as_old_text_format(run_dir):
    # what the text writer of earlier versions left: t_<k>.txt and init.txt
    for path in [run_dir / "init.f64", *sorted((run_dir / "traj").glob("*.f64"))]:
        field = load_field(path)
        rows = [" ".join(f"{v:.17g}" for v in row) for row in field.values]
        head = f"{field.spec.n} {field.spec.half_extent:.17g}"
        path.with_suffix(".txt").write_text("\n".join([head, *rows]) + "\n")
        path.unlink()


@pytest.mark.parametrize("damage, message", [
    (lambda d: (d / "traj" / "t_001.f64").unlink(),
     "FAIL verify (missing {d}/traj/t_001.f64)"),
    (lambda d: (d / "init.f64").unlink(), "FAIL verify (missing {d}/init.f64)"),
    (lambda d: (d / "traj" / "manifest.csv").unlink(),
     "FAIL verify (missing {d}/traj/manifest.csv)"),
    (lambda d: (d / "traj" / "t_002.f64").write_bytes(
        b"n=33\n" + (d / "traj" / "t_002.f64").read_bytes().split(b"\n", 1)[1]),
     "FAIL verify ({d}/traj/t_002.f64: malformed header b'n=33', expected 'n L')"),
    (lambda d: (d / "init.f64").write_bytes((d / "init.f64").read_bytes()[:-16]),
     "FAIL verify ({d}/init.f64: 8696 bytes of values, expected 8 x 33^2 = 8712)"),
    (_as_old_text_format,
     "FAIL verify ({d}/traj/t_000.txt holds a field in the old text format; this "
     "version reads binary {d}/traj/t_000.f64, so rerun the scenario)"),
], ids=["missing-snapshot", "missing-init", "missing-manifest", "malformed-header", "byte-count",
        "old-text-format"])
def test_verify_reports_unreadable_fields(small_run, tmp_path, damage, message):
    copy = tmp_path / "copy"
    shutil.copytree(small_run, copy)
    damage(copy)
    proc = _frontlab("verify", copy)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [message.format(d=copy)]


def _replace_line(path, index, line):
    lines = path.read_text().splitlines()
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, index, line, needle", [
    ("traj/manifest.csv", 2, "1,abc,0,1", "abc"),
    ("traj/manifest.csv", 2, "1,nan,0,1", "expected rows of 4 finite numbers"),
    ("traj/meta.txt", 0, "far_radius = abc", "abc"),
    ("traj/meta.txt", 1, "# no gamma", "no gamma line"),
    ("init_meta.txt", 2, "eta0 = abc", "abc"),
    ("init_meta.txt", 3, "# no lambda0", "no lambda0 line"),
    ("init_meta.txt", 7, "# no r0", "no r0 line"),
    ("init_meta.txt", 8, "# no lipschitz", "no lipschitz line"),
    ("init_meta.txt", 4, "nu.kind = bogus", "nu.kind = bogus is not radial"),
    ("init_meta.txt", 4, "nu.kind = gradient", "nu.kind = gradient is not radial"),
    ("run_meta.txt", 0, "bogus line", "'bogus line' is not a 'key = value' line"),
], ids=["manifest-text", "manifest-nan", "meta-text", "meta-missing", "init-text",
        "init-missing", "init-no-r0", "init-no-lipschitz", "init-bad-nu-kind",
        "init-gradient-nu-kind", "run-meta-no-equals"])
def test_verify_reports_malformed_text_files(small_run, tmp_path, name, index, line, needle):
    copy = tmp_path / "copy"
    shutil.copytree(small_run, copy)
    _replace_line(copy / name, index, line)
    proc = _frontlab("verify", copy)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [printed] = proc.stdout.splitlines()
    assert printed.startswith(f"FAIL verify ({copy / name}: ") and needle in printed


@pytest.mark.parametrize("name", [
    "run_meta.txt", "traj/manifest.csv", "traj/meta.txt", "init_meta.txt",
])
def test_verify_reports_undecodable_text_files(small_run, tmp_path, name):
    copy = tmp_path / "copy"
    shutil.copytree(small_run, copy)
    (copy / name).write_bytes(b"\xff\xfe" + (copy / name).read_bytes())
    proc = _frontlab("verify", copy)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [printed] = proc.stdout.splitlines()
    assert printed.startswith(f"FAIL verify ({copy / name}: ") and "decode" in printed


def _files(run_dir):
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


def test_rerun_into_a_used_directory_leaves_only_its_own_files(tmp_path):
    # five stored times and a cone report, then three and no cone: the
    # first run's contour_003/004 and reports/cone.* must not survive
    first = tmp_path / "first.cfg"
    first.write_text(SMALL.replace(
        "checks = key_estimate, lower_gradient, star_shape", "checks = key_estimate, cone"))
    second = tmp_path / "second.cfg"
    second.write_text(SMALL.replace("output_times = 5", "output_times = 3").replace(
        "checks = key_estimate, lower_gradient, star_shape", "checks = key_estimate"))
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    for cfg, out in ((first, used), (second, used), (second, fresh)):
        proc = _frontlab("run", cfg, "--out", out)
        assert proc.returncode == 0, proc.stderr
    assert "reports/cone.csv" not in _files(used)
    assert _files(used) == _files(fresh)
    assert sorted(p.name for p in used.rglob("*") if p.is_dir()) == sorted(
        p.name for p in fresh.rglob("*") if p.is_dir())


def test_verify_of_a_failed_rerun_names_the_marker(tmp_path):
    # a finished run, then a rerun that fails to parse: the directory keeps
    # only the marker and its manifest, and verify exits 2 naming the marker
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "run"
    assert _frontlab("run", cfg, "--out", out).returncode == 0
    cfg.write_text(SMALL.replace("horizon = 0.05", "horizon = 0"))
    proc = _frontlab("run", cfg, "--out", out)
    assert proc.returncode == 2
    assert sorted(_files(out)) == ["FAILED", "manifest.txt"]
    proc = _frontlab("verify", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        "FAIL verify (FAILED: config error: line 9: horizon must be > 0)"
    ]


def test_verify_of_a_run_without_checks_says_so(tmp_path):
    # checks = none leaves no stored report to recompute: one line, exit 0
    cfg = tmp_path / "none.cfg"
    cfg.write_text(SMALL.replace(
        "checks = key_estimate, lower_gradient, star_shape", "checks = none"))
    out = tmp_path / "run"
    assert _frontlab("run", cfg, "--out", out).returncode == 0
    proc = _frontlab("verify", out)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [f"{out}: no stored check needs recomputing"]


def test_clearing_a_used_directory_deletes_only_listed_files_inside_it(tmp_path):
    out = tmp_path / "run"
    (out / "reports").mkdir(parents=True)
    (out / "reports" / "cone.csv").write_text("old\n")
    (out / "kept.txt").write_text("not listed\n")
    outside = tmp_path / "outside.txt"
    outside.write_text("outside\n")
    (out / "manifest.txt").write_text(
        f"0  reports/cone.csv\n0  ../outside.txt\n0  {outside}\n0  missing.csv\nno separator\n"
    )
    clear_listed(str(out))
    assert sorted(p.name for p in out.iterdir()) == ["kept.txt"]
    assert outside.read_text() == "outside\n"


def test_run_and_verify_close_their_files(tmp_path):
    # an unclosed file shows as a ResourceWarning on stderr when collected
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "run"
    for args in (["run", cfg, "--out", out], ["verify", out]):
        proc = _python("-W", "error::ResourceWarning", "-m", "frontlab.cli", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


def test_import_loads_every_module_but_the_command_line():
    # perfbench's tracer finds the functions it wraps in sys.modules; the
    # package leaves out cli, which `python -m frontlab.cli` runs as __main__
    package = Path(frontlab.__file__).resolve().parent
    modules = {f"frontlab.{p.stem}" for p in package.glob("*.py")} - {"frontlab.__init__"}
    proc = _python("-c", "import sys, frontlab; print(*(m for m in sys.modules "
                         "if m.startswith('frontlab.')))")
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == modules - {"frontlab.cli"}


# Imports the command line, which imports every module, and then runs the
# dislocation preset, whose speed law convolves: frontlab runs on numpy
# alone, so no scipy module is loaded at either point.
_IMPORT_WEIGHT_SCRIPT = """
import sys

import frontlab.cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert not scipy_modules(), scipy_modules()
assert frontlab.cli.main(["preset", "dislocation", "--out", sys.argv[1]]) == 0
assert not scipy_modules(), scipy_modules()
"""


def test_import_loads_no_scipy_module_until_a_convolution(tmp_path):
    proc = _python("-c", _IMPORT_WEIGHT_SCRIPT, tmp_path / "dislocation")
    assert proc.returncode == 0, proc.stderr


def test_identical_runs_have_identical_manifests(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "manifest.txt").read_bytes())
    assert outs[0] == outs[1]


def test_probe_subcommand_forces_probe(tmp_path, capsys):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(TINY.replace(
        "checks = key_estimate, lower_gradient, star_shape", "checks = none"
    ))
    out = tmp_path / "run"
    code = main(["probe", str(cfg), "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "PASS uniqueness_probe" in printed
    assert (out / "probe.csv").exists()
    verdict = (out / "probe.verdict").read_text()
    for seed in ("bracket", "empty", "ball"):
        assert f"march_gap_{seed} = " in verdict


# 129^2 x 2000 x 8 bytes is 254 MiB: within the budget for one trajectory,
# above it once the probe adds its three seeds
LONG = "output_times = 2000\nchecks = none\n"


def _no_run(monkeypatch):
    """Stand in for runner.run, so no test here allocates the snapshots;
    returns the configs it was handed."""
    handed = []

    def fake_run(config, out_dir=None, config_text=None):
        handed.append(config)
        return RunResult(0, out_dir, [])

    monkeypatch.setattr(cli, "run", fake_run)
    return handed


def test_probe_subcommand_budgets_probe_seeds_at_parse_time(tmp_path, capsys, monkeypatch):
    handed = _no_run(monkeypatch)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(LONG)
    code = main(["probe", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: line 1: ") and "x 4 trajectories" in err
    assert handed == []


def test_run_subcommand_budgets_one_trajectory(tmp_path, capsys, monkeypatch):
    handed = _no_run(monkeypatch)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(LONG)
    code = main(["run", str(cfg), "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert code == 0
    assert [(c.output_times, c.probe_enabled) for c in handed] == [(2000, False)]


def test_front_escape_exits_three(tmp_path, capsys):
    cfg = tmp_path / "escape.cfg"
    cfg.write_text(
        "grid.n = 65\n"
        "init.kind = circle\n"
        "init.r0 = 0.5\n"
        "coupling.kind = constant\n"
        "coupling.c = 1.0\n"
        "horizon = 1.0\n"
        "grid.L = 1.0\n"
        "checks = none\n"
    )
    out = tmp_path / "run"
    code = main(["run", str(cfg), "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 3
    # the runner keeps partial artifacts and reports through the marker file
    assert "FAIL run" in printed
    assert "containment ring" in (out / "FAILED").read_text()


@pytest.mark.parametrize("changed", [
    {"horizon": "1e6"},
    {"coupling.kind": "volume", "coupling.beta": "affine(1e300,1e300)"},
], ids=["long-horizon", "huge-volume-speed"])
def test_step_budget_exits_three(tmp_path, capsys, changed):
    # each march would take far more steps than solver.MAX_STEPS; the run
    # must end at once with a numeric failure instead of stepping for hours
    keys = {
        "grid.n": "33", "init.kind": "circle", "init.r0": "0.5",
        "coupling.kind": "constant", "coupling.c": "1.0", "horizon": "0.2",
        "checks": "none", **changed,
    }
    if keys["coupling.kind"] != "constant":
        del keys["coupling.c"]
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    out = tmp_path / "run"
    start = time.perf_counter()
    code = main(["run", str(cfg), "--out", str(out)])
    assert time.perf_counter() - start < 10.0
    assert code == 3
    assert "FAIL run" in capsys.readouterr().out
    assert "StabilityError" in (out / "FAILED").read_text()


# an n=33 constant-speed run with every check, of which each case below
# changes one key
ONE_KEY_BASE = {
    "grid.n": "33", "init.kind": "circle", "init.r0": "0.5",
    "coupling.kind": "constant", "coupling.c": "1", "gamma": "0.1",
    "horizon": "0.05", "output_times": "3", "checks": ", ".join(DEFAULT_CHECKS),
}


@pytest.mark.parametrize("changed, code, reason", [
    ({"grid.L": "1e300"}, 2, "no band node was certified"),
    ({"horizon": "1e-300"}, 3, "ValueError: regularity_report: the stored times end at 1e-300"),
    ({"grid.n": "2001", "output_times": "5"}, 3, "StabilityError: at dt="),
], ids=["front-below-a-cell", "horizon-below-the-fit-span", "grid-above-the-work-budget"])
def test_out_of_range_config_fails_with_a_marker(tmp_path, changed, code, reason):
    # each exits with a one-line FAILED marker and no traceback; the large
    # grid is refused before its first step instead of stepping for half an hour
    cfg = tmp_path / "changed.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**ONE_KEY_BASE, **changed}.items()))
    out = tmp_path / "run"
    start = time.perf_counter()
    proc = _frontlab("run", cfg, "--out", out)
    assert time.perf_counter() - start < 60.0
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    marker = (out / "FAILED").read_text()
    assert reason in marker
    assert marker.count("\n") == 1


def test_over_budget_grid_is_refused_before_its_field_is_built(tmp_path):
    # the n = 2001 grid's initial field and certificate alone take about
    # 620 MB; the budget needs only h, gamma and the horizon
    cfg = tmp_path / "large.cfg"
    cfg.write_text("".join(
        f"{k} = {v}\n" for k, v in {**ONE_KEY_BASE, "grid.n": "2001", "output_times": "5"}.items()
    ))
    out = tmp_path / "run"
    # the child reads its own peak resident size, VmHWM, in KiB: a forked
    # child's ru_maxrss starts from the high-water mark of the process that
    # forked it, here the test process
    proc = _python("-c", (
        "import sys\n"
        "from frontlab.cli import main\n"
        f"code = main(['run', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        "print(*[line.split()[1] for line in open('/proc/self/status')\n"
        "        if line.startswith('VmHWM:')])\n"
        "sys.exit(code)\n"
    ))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "FAILED").read_text().startswith("StabilityError: at dt=")
    assert not (out / "init.f64").exists()
    peak_kib = int(proc.stdout.split()[-1])
    assert peak_kib < 150 * 1024


def test_grid_whose_curvature_regularisation_underflows_is_refused():
    # curvature_term divides by Dx^2 + Dy^2 + 4h^4, which a flat field
    # leaves 0 / 0 once 4h^4 underflows
    text = BASE + "grid.n = 33\ncoupling.kind = constant\nhorizon = 0.05\nchecks = none\n"
    parse_config(text.replace("init.r0 = 0.5", "init.r0 = 1e-76") + "grid.L = 1e-75\n")
    with pytest.raises(ConfigError, match="4h\\^4 underflows"):
        parse_config(text.replace("init.r0 = 0.5", "init.r0 = 1e-79") + "grid.L = 1e-78\n")


@pytest.mark.parametrize("command", ["run", "probe"])
def test_unparsable_config_with_out_leaves_a_marker(tmp_path, command):
    # horizon = 0 fails in parse_config, before any run starts; with --out
    # the directory gets the one-line marker, without it nothing is written
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**ONE_KEY_BASE, "horizon": "0"}.items()))
    out = tmp_path / "run"
    proc = _frontlab(command, cfg, "--out", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    marker = (out / "FAILED").read_text()
    assert marker == proc.stderr
    assert marker.startswith("config error: line ") and "horizon must be > 0" in marker
    assert marker.count("\n") == 1
    assert "FAILED" in (out / "manifest.txt").read_text()
    bare = tmp_path / "bare"
    bare.mkdir()
    proc = _frontlab(command, cfg, cwd=bare)
    assert proc.returncode == 2
    assert list(bare.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("run", "small.cfg"), ("run", "bad.cfg"), ("probe", "small.cfg"), ("probe", "bad.cfg"),
    ("preset", "verify-all"),
], ids=["run", "run-unparsable", "probe", "probe-unparsable", "verify-all"])
@pytest.mark.parametrize("out", ["small.cfg", "small.cfg/sub"], ids=["file", "under-a-file"])
def test_out_that_names_a_file_is_refused(tmp_path, args, out):
    # no directory can be made there, so no FAILED marker either: one line
    # and exit 2, and the file stays as it was
    (tmp_path / "small.cfg").write_text(SMALL)
    (tmp_path / "bad.cfg").write_text("grid.n = abc\n")
    proc = _frontlab(*args, "--out", out, cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [printed] = proc.stdout.splitlines()
    assert printed.startswith("FAIL run (output directory: ") and f"'{out}'" in printed
    assert (tmp_path / "small.cfg").read_text() == SMALL


def test_default_far_radius_is_the_grid_ring(tmp_path):
    # without far_radius the containment ring is L - 2h, however far the
    # front could travel by its speed bound
    out = tmp_path / "run"
    cfg = parse_config(
        "grid.n = 65\n"
        "grid.L = 4\n"
        "init.kind = circle\n"
        "init.r0 = 0.5\n"
        "coupling.kind = constant\n"
        "coupling.c = 0.3\n"
        "horizon = 0.05\n"
        "checks = none\n"
    )
    assert run(cfg, out_dir=str(out)).exit_code == 0
    meta = (out / "run_meta.txt").read_text().splitlines()
    assert f"far_radius = {4 - 2 * 8 / 64:.17g}" in meta


def test_run_meta_records_the_steps_of_the_march(tmp_path):
    # the step count and the dt range of the run's march, deterministic
    # like every other line of run_meta.txt: at speed 0.3 and gamma 2.5 the
    # step is the curvature cap 0.1 h / gamma = 0.005 at h = 0.125, so each
    # stored interval of 0.0125 takes two steps and a landing step of 0.0025
    text = (
        "grid.n = 65\ngrid.L = 4\ninit.kind = circle\ninit.r0 = 1\n"
        "coupling.kind = constant\ncoupling.c = 0.3\ngamma = 2.5\n"
        "horizon = 0.05\noutput_times = 5\nchecks = none\n"
    )
    metas = []
    for name in ("a", "b"):
        assert run(parse_config(text), out_dir=str(tmp_path / name)).exit_code == 0
        metas.append((tmp_path / name / "run_meta.txt").read_text())
    assert metas[0] == metas[1]
    meta = dict(line.split(" = ") for line in metas[0].splitlines())
    assert meta["steps"] == "12"
    assert float(meta["dt_max"]) == 0.1 * 0.125 / 2.5
    assert float(meta["dt_min"]) == pytest.approx(0.0025, rel=1e-9)


def test_probe_front_escape_fails_the_run(tmp_path):
    # the empty seed's first solve runs at beta(0) = 1 for the whole horizon
    # and reaches radius 0.7, past 0.65, the guard band of the containment
    # ring L - 2h = 0.75; the run's own march ends at radius 0.53
    cfg = parse_config(
        "grid.n = 65\n"
        "grid.L = 0.8\n"
        "init.kind = circle\n"
        "init.r0 = 0.5\n"
        "coupling.kind = volume\n"
        "coupling.beta = affine(1,-1)\n"
        "gamma = 0\n"
        "horizon = 0.2\n"
        "checks = none\n"
        "probe.enabled = true\n"
    )
    out = tmp_path / "run"
    result = run(cfg, out_dir=str(out))
    assert result.exit_code == 3
    assert "FrontEscapeError" in (out / "FAILED").read_text()
    assert (out / "manifest.txt").exists()
    assert not (out / "verdicts.txt").exists()


PROBE_TAUS_BASE = """\
grid.n = 33
init.kind = circle
init.r0 = 0.5
coupling.kind = volume
coupling.beta = constant(0)
horizon = 0.02
output_times = 3
checks = none
probe.enabled = true
"""


@pytest.mark.parametrize("taus, needle", [
    ("-1", "probe.taus must be times in (0, horizon = 0.02]"),
    ("0.5", "probe.taus must be times in (0, horizon = 0.02]"),
    ("0.01, 0", "probe.taus must be times in (0, horizon = 0.02]"),
    ("", "probe.taus must be times in (0, horizon = 0.02]"),
    ("0.001", "probe.taus: the earliest tau 0.001 lies before the first stored time after 0, 0.01"),
])
def test_probe_taus_outside_the_stored_times_exit_two(tmp_path, capsys, taus, needle):
    # each would have run the probe on no stored time after 0 (an empty
    # PASS), past the horizon (a PASS on nothing), or into a traceback
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(PROBE_TAUS_BASE + f"probe.taus = {taus}\n")
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: line 10: {needle}" in err
    assert (tmp_path / "out" / "FAILED").read_text() == err


@pytest.mark.parametrize("command", ["run", "probe"])
def test_default_probe_taus_before_the_first_stored_time_exit_two(tmp_path, capsys, command):
    # no probe.taus: the default earliest tau, horizon/4 = 0.005, would
    # compare the seeds at t = 0 alone and pass on nothing
    text = PROBE_TAUS_BASE
    if command == "probe":
        text = text.replace("probe.enabled = true\n", "")
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    code = main([command, str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: line 7: the probe's earliest default tau, horizon/4 = 0.005" in err
    assert "set probe.taus or store more output_times" in err
    assert "Traceback" not in err
    assert (tmp_path / "out" / "FAILED").read_text() == err


def test_default_probe_taus_parse_without_the_probe():
    assert parse_config(PROBE_TAUS_BASE.replace("probe.enabled = true", "")).probe_taus is None
    assert parse_config(PROBE_TAUS_BASE.replace("output_times = 3", "output_times = 5")).probe_enabled


def test_probe_taus_on_the_stored_times_parse():
    cfg = parse_config(PROBE_TAUS_BASE + "probe.taus = 0.01, 0.02\n")
    assert cfg.probe_taus == (0.01, 0.02)


def test_config_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE + "gamma = -1\n")
    code = main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: line 3: gamma must be >= 0" in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    capsys.readouterr()
    assert code == 2


def test_preset_list(capsys):
    code = main(["preset", "--list"])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    assert printed == list_presets()


def test_unknown_preset_exits_two(capsys):
    code = main(["preset", "nonesuch"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown preset" in err


def test_no_command_exits_two(capsys):
    with pytest.raises(SystemExit) as caught:
        main([])
    capsys.readouterr()
    assert caught.value.code == 2


def test_write_manifest_format(tmp_path):
    (tmp_path / "a.txt").write_text("alpha\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.txt").write_text("beta\n")
    text = write_manifest(str(tmp_path))
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 2
    import hashlib

    digest = hashlib.sha256(b"alpha\n").hexdigest()
    assert f"{digest}  a.txt" in lines


# ---------------------------------------------------------------------------
# the check table and its per-trajectory context
# ---------------------------------------------------------------------------


def _record_calls(monkeypatch, module, name, key):
    """Wrap module.name in every frontlab module that holds it; the
    returned list gets key(*args, **kwargs) of each call."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("frontlab"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


def test_each_contour_and_eta_computed_once_per_pass(tmp_path, monkeypatch):
    import frontlab.contour
    import frontlab.verify

    stacks = _record_calls(monkeypatch, frontlab.contour, "extract_contour",
                           lambda u, levels=0.0: [(id(u), lv) for lv in np.atleast_1d(levels)])
    etas = _record_calls(monkeypatch, frontlab.verify, "eta_empirical",
                         lambda u, *args, **kwargs: id(u))
    cfg = parse_config(TINY.replace(
        "checks = key_estimate, lower_gradient, star_shape",
        "checks = key_estimate, lower_gradient, cone, perimeter, band_measure, "
        "non_fattening, star_shape",
    ))
    out = tmp_path / "run"
    result = run(cfg, out_dir=str(out))
    assert result.exit_code in (0, 1)
    snapshots = len(list((out / "contours").iterdir()))

    def assert_each_once(label):
        # cone and perimeter read three levels per early snapshot, and the
        # key estimate reads every snapshot's eta
        contours = [key for stack in stacks for key in stack]
        assert len(set(contours)) > snapshots, label
        assert len(contours) == len(set(contours)), label
        assert len(etas) == len(set(etas)) == snapshots, label

    assert_each_once("run")
    stacks.clear()
    etas.clear()
    assert verify_run_dir(str(out)).exit_code == result.exit_code
    assert_each_once("verify")


def test_run_and_verify_extract_each_snapshot_once(tmp_path, monkeypatch):
    # the contour dump and the radius table read level 0 of every snapshot
    # before cone and perimeter read +-delta0/4: the first read of a
    # snapshot takes all three, as the first read in a verify does
    import frontlab.contour

    calls = _record_calls(monkeypatch, frontlab.contour, "extract_contour",
                          lambda u, levels=0.0: (id(u), tuple(np.atleast_1d(levels))))
    cfg = parse_config(TINY.replace(
        "checks = key_estimate, lower_gradient, star_shape",
        "checks = key_estimate, cone, perimeter, non_fattening",
    ))
    out = tmp_path / "run"
    result = run(cfg, out_dir=str(out))
    assert result.exit_code in (0, 1)
    snapshots = len(list((out / "contours").iterdir()))
    run_calls = list(calls)
    calls.clear()
    assert verify_run_dir(str(out)).exit_code == result.exit_code
    for label, made in (("run", run_calls), ("verify", calls)):
        ids = [u for u, _ in made]
        assert len(ids) == len(set(ids)) == snapshots, label
        assert all(len(levels) == 3 for _, levels in made), label
    assert [sorted(lv) for _, lv in run_calls] == [sorted(lv) for _, lv in calls]


# a volume run whose gamma sweep contains the run's own gamma
SWEEP_RUN = (
    "grid.n = 33\n"
    "init.kind = circle\n"
    "init.r0 = 0.4\n"
    "coupling.kind = volume\n"
    "coupling.beta = affine(1,-1)\n"
    "gamma = 0.05\n"
    "horizon = 0.1\n"
    "output_times = 5\n"
    "checks = star_shape\n"
    "gamma_sweep = 0, 0.05\n"
)


def test_run_marches_once_at_its_gamma(tmp_path, monkeypatch):
    # the gamma sweep reuses the run's march at config.gamma and the probe
    # takes it as its reference and first memo entry: one march without a
    # history at gamma = 0.05, one for the other swept gamma
    import frontlab.weak

    marches = _record_calls(
        monkeypatch, frontlab.weak, "march_solve",
        lambda coupling, u0, gamma, horizon, chi_hist=None, **kwargs: (gamma, chi_hist is None),
    )
    cfg = parse_config(SWEEP_RUN + "probe.enabled = true\n")
    out = tmp_path / "run"
    assert run(cfg, out_dir=str(out)).exit_code in (0, 1)
    assert (out / "sweep.csv").read_text().count("\n") == 4
    assert marches.count((0.05, True)) == 1
    assert marches.count((0.0, True)) == 1
    assert marches.count((0.05, False)) > 0


def test_run_computes_star_shape_once_per_trajectory(tmp_path, monkeypatch):
    # the sweep's row at config.gamma and the star_shape check share one
    # report of the run's trajectory; the sweep's gamma = 0 march adds one
    import frontlab.verify

    trajs = _record_calls(monkeypatch, frontlab.verify, "star_shape_report",
                          lambda traj, *args, **kwargs: id(traj))
    out = tmp_path / "run"
    assert run(parse_config(SWEEP_RUN), out_dir=str(out)).exit_code in (0, 1)
    assert (out / "sweep.csv").read_text().count("\n") == 4
    assert len(trajs) == len(set(trajs)) == 2


def test_verify_fits_only_what_its_checks_need(tiny_run, tmp_path, monkeypatch):
    import frontlab.solver
    import frontlab.verify

    keys = _record_calls(monkeypatch, frontlab.verify, "key_estimate_report",
                         lambda *args, **kwargs: 1)
    fits = _record_calls(monkeypatch, frontlab.solver, "regularity_report",
                         lambda *args, **kwargs: 1)
    # key_estimate, lower_gradient, star_shape: one key estimate, no K fit
    _, out = tiny_run
    assert verify_run_dir(str(out)).exit_code == 0
    assert (len(keys), len(fits)) == (1, 0)

    keys.clear()
    cfg = parse_config(TINY.replace(
        "checks = key_estimate, lower_gradient, star_shape", "checks = none"
    ))
    assert run(cfg, out_dir=str(tmp_path / "none")).exit_code == 0
    checked = verify_run_dir(str(tmp_path / "none"))
    assert (checked.exit_code, checked.verdicts) == (0, [])
    assert (len(keys), len(fits)) == (0, 0)
