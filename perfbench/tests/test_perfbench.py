"""The benchmark's own checks, on tiny grids.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE.parent / "predictions.json").read_text())
TINY = {"local-curvature": 65, "coupled-picard": 33}


@pytest.fixture(scope="module")
def fl():
    return run.setup(workloads.scenarios("local-curvature", 0))[1]


def _bindings():
    """id of every function reachable from a frontlab module or class."""
    out = {}
    for key, module in sys.modules.items():
        if not key.startswith("frontlab"):
            continue
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == key:
                for meth, fn in vars(value).items():
                    if callable(fn):
                        out[(key, name, meth)] = id(fn)
            elif callable(value):
                out[(key, name)] = id(value)
    return out


def test_scenarios_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.scenarios(name, 7, 2)
        assert [s.text for s in a] == [s.text for s in workloads.scenarios(name, 7, 2)]
        assert [s.text for s in a] != [s.text for s in workloads.scenarios(name, 8, 2)]
        assert [s.text for s in a] != [s.text for s in workloads.scenarios(name, 7, 3)]
        for sc in a:
            h = workloads.grid_step(sc.template.n)
            assert abs(sc.r0 - sc.template.r0) <= h
            assert f"init.r0 = {sc.r0!r}" in sc.text


def test_predictions_cover_every_per_layer_metric():
    named = {m for row in PREDICTIONS["predictions"] for m in row["metrics"]}
    assert named == {m["name"] for m in BENCHMARK["per_layer"]}
    moves = [move for row in PREDICTIONS["predictions"] for move in row["moves"]]
    assert {m["workload"] for m in moves} <= {w["name"] for w in BENCHMARK["workloads"]}
    assert {m["metric"] for m in moves} <= {m["name"] for m in BENCHMARK["end_to_end"]}


def test_tracer_restores_original_bindings(fl):
    before = _bindings()
    original_solve = fl.solver.solve
    with Tracer():
        # runner imported solve by name; it must see the same wrapper
        assert fl.runner.solve is fl.solver.solve
        assert fl.solver.solve is not original_solve
        assert fl.solver.ConstantSpeed.speed_at.__wrapped__ is not None
    assert _bindings() == before
    assert fl.solver.solve is original_solve


def test_spans_nest_with_nonnegative_self_time(fl, tmp_path):
    sc = workloads.scenarios("coupled-picard", 3, n=33)[1]   # dislocation
    tracer = Tracer()
    with tracer:
        fl.runner.run(fl.config.parse_config(sc.text), out_dir=str(tmp_path / "run"))
        fl.runner.verify_run_dir(str(tmp_path / "run"))
    assert tracer.missing == []
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"runner.run", "weak.fixed_point_solve", "solver.solve", "solver.advance",
            "couplings.convolve_kernel", "verify.continuous_dependence_report"} <= names
    for name, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end
        else:
            assert name in ("config.parse_config", "runner.run", "runner.verify_run_dir")
    for entry in summarise(spans).values():
        assert entry["self_s"] >= -1e-9
        assert entry["s"] >= entry["self_s"] - 1e-9


def test_summarise_subtracts_children_from_self_time():
    spans = [("f", 0.0, 10.0, -1, None), ("g", 1.0, 3.0, 0, None), ("h", 1.5, 2.0, 1, None)]
    out = summarise(spans)
    assert out["f"] == {"calls": 1, "s": 10.0, "self_s": 8.0}
    assert out["g"] == {"calls": 1, "s": 2.0, "self_s": 1.5}
    assert out["h"] == {"calls": 1, "s": 0.5, "self_s": 0.5}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload):
    result, details = run.measure(workload, 1, 0.0, False, n=TINY[workload])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert result["attempted"] >= 2 * len(details["passes"][0]["configs"])
    assert all(p["ref_cpu_s"] > 0 for p in details["untraced"])
    traced, _ = run.measure(workload, 1, 0.0, True, n=TINY[workload])
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, metric in {**result["metrics"], **traced["metrics"]}.items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) or isinstance(metric["value"], int)


def test_traced_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        result, _ = run.measure("coupled-picard", 4, 0.0, True, n=33)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith((".calls", ".bytes")) or k == "weak.picard_iterations"})
    assert counts[0] == counts[1]
    assert counts[0]["weak.fixed_point_solve.calls"] > 0


def test_failures_are_counted():
    sc = workloads.scenarios("local-curvature", 0)[0]
    bad = types.SimpleNamespace(exit_code=1, verdicts=["PASS fixed_point", "FAIL cone"])
    problems, _ = run.check_run(sc, bad, "unused")
    assert problems == ["exit code 1", "FAIL cone"]
    stored = types.SimpleNamespace(verdicts=["PASS fixed_point", "PASS cone", "PASS perimeter"])
    rechecked = types.SimpleNamespace(
        exit_code=1, verdicts=["FAIL cone (verdict mismatch with stored report)"])
    problems = run.check_verify(stored, rechecked)
    assert problems[:2] == ["exit code 1", "FAIL cone (verdict mismatch with stored report)"]
    assert "perimeter" in problems[2]


def _radius_run(tmp_path, radius):
    run_dir = tmp_path / f"r{radius}"
    run_dir.mkdir()
    (run_dir / "radius_vs_time.csv").write_text(
        "time,mean_radius,area_radius,perimeter,area\n"
        f"0,0,0,0,0\n1,{radius!r},0,0,0\n")
    return run_dir


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_fails_a_frozen_or_slow_front(workload, tmp_path):
    ok = types.SimpleNamespace(exit_code=0, verdicts=["PASS cone"])
    for sc in workloads.scenarios(workload, 5):
        want = sc.expected_radius()
        if want is None:
            continue
        frozen, _ = run.check_run(sc, ok, _radius_run(tmp_path, sc.r0))
        assert len(frozen) == 1 and "oracle" in frozen[0]
        slow = sc.r0 + 2 / 3 * (want - sc.r0)        # a front a third too slow
        assert run.check_run(sc, ok, _radius_run(tmp_path, slow))[0]
        assert run.check_run(sc, ok, _radius_run(tmp_path, want)) == ([], 0.0)
