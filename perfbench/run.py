"""frontlab benchmark: run a workload's scenarios end to end and check them.

    python3 perfbench/run.py --workload local-curvature --seed 1 --seconds 55 --trace 0

One process runs one workload as a closed loop.  A pass parses each
scenario's config, runs it with `frontlab.runner.run`, and then re-verifies
every run directory with `frontlab.runner.verify_run_dir`.  Passes repeat
until `--seconds` is used up.  Every operation is checked: exit code,
verdict lines, agreement between run and verify, and the radius oracle.

With `--trace 0` the last stdout line reports the end-to-end metrics: the
median CPU seconds per pass spent in run and in verify, the median CPU
seconds of set-up, each rescaled to a nominal host speed by a fixed
reference kernel timed before each pass, and peak RSS.  With `--trace 1` each pass runs traced and then
untraced on the same inputs, and it reports the per-layer metrics of the
first traced pass; its spans are written to `.perfbench-out/`.  The line
before the result holds the details: seed, config texts, samples and
quartiles, manifest hashes, versions and failures.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

THREAD_VARS = (
    "FRONTLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# per pass: wall and CPU seconds of runner.run and of runner.verify_run_dir
TIMES = ("run_s", "run_cpu_s", "verify_s", "verify_cpu_s")
SETUP_SAMPLES = 4          # the in-process import plus fresh interpreters
# Reported timings are CPU seconds on a host where reference_cpu_s() takes
# this long, about what a shared 2-vCPU Xeon VM gives.
REF_HOST_S = 0.15

# checks that only run does; verify_run_dir skips them or has no report
RUN_ONLY = {"fixed_point", "gamma_sweep", "uniqueness_probe", "dependence", "dependence_half"}


class SetupError(Exception):
    pass


def setup(scenarios):
    """Import frontlab from this checkout and parse every config.

    Returns ((wall seconds, CPU seconds), the frontlab package, whether
    np.trapz had to be aliased).  numpy >= 2.4 has no `np.trapz`, which frontlab reads at
    import; `np.trapezoid` is the same function under its new name."""
    start, cpu = time.perf_counter(), time.process_time()
    import numpy as np

    alias = not hasattr(np, "trapz")
    if alias:
        np.trapz = np.trapezoid
    sys.path.insert(0, str(SRC))
    try:
        import frontlab
        import frontlab.config
        import frontlab.runner
    except ImportError as err:
        raise SetupError(f"cannot import frontlab from {SRC}: {err}") from err
    if Path(frontlab.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"frontlab imported from {frontlab.__file__}, not from {SRC}")
    for sc in scenarios:
        frontlab.config.parse_config(sc.text)
    return (time.perf_counter() - start, time.process_time() - cpu), frontlab, alias


def setup_in_fresh_interpreter(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    wall, cpu = proc.stdout.split()[-2:]
    return float(wall), float(cpu)


def reference_cpu_s() -> float:
    """CPU seconds of a fixed numpy kernel that no frontlab change touches.

    On a shared virtual machine the CPU time of the same work drifts by tens
    of percent from minute to minute with the load of other guests.  Timings
    are reported relative to this kernel, timed in the same process between
    passes, so that the drift cancels.  Like the engine's
    hot loops, it runs central-difference stencils on small arrays, where
    numpy's per-call cost dominates, and on large ones, where memory traffic
    does."""
    import numpy as np

    rng = np.random.default_rng(0)
    work = ((rng.random((49, 49)), 1800), (rng.random((201, 201)), 90))
    cpu = time.process_time()
    total = 0.0
    for a, repeats in work:
        for _ in range(repeats):
            gx = np.roll(a, 1, 0) - np.roll(a, -1, 0)
            gy = np.roll(a, 1, 1) - np.roll(a, -1, 1)
            norm = np.sqrt(gx * gx + gy * gy + 1e-12)
            total += float((gx / norm).sum() + (gy / norm).sum())
    return time.process_time() - cpu


def final_mean_radius(run_dir) -> float:
    last = (Path(run_dir) / "radius_vs_time.csv").read_text().splitlines()[-1]
    return float(last.split(",")[1])


def check_run(sc, result, run_dir):
    """Failure messages for one run, and its oracle error (None if the
    scenario has no oracle)."""
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    problems += [line for line in result.verdicts if not line.startswith("PASS")]
    err = None
    want = sc.expected_radius()
    if want is not None and result.exit_code == 0:
        miss = abs(final_mean_radius(run_dir) - want)
        err = miss / want
        share = miss / abs(want - sc.r0)
        if share > sc.template.tolerance:
            problems.append(f"final radius off the oracle by {share:.3g} of the oracle's "
                            f"displacement, above {sc.template.tolerance}")
    return problems, err


def check_verify(run_result, verify_result):
    problems = []
    if verify_result.exit_code != 0:
        problems.append(f"exit code {verify_result.exit_code}")
    problems += [line for line in verify_result.verdicts if not line.startswith("PASS")]
    stored = {line.split()[1] for line in run_result.verdicts} - RUN_ONLY
    rechecked = {line.split()[1] for line in verify_result.verdicts}
    if stored != rechecked:
        problems.append(f"verify rechecked {sorted(rechecked)}, run stored {sorted(stored)}")
    return problems


class Workload:
    """Runs the passes of one seeded workload and tallies attempted and
    failed operations; each pass records its config texts, manifest hashes
    and oracle errors."""

    def __init__(self, fl, name, seed, work_dir, n=None):
        self.fl = fl
        self.name, self.seed, self.n = name, seed, n
        self.work_dir = Path(work_dir)
        self.attempted = 0
        self.failures = []
        self.passes = []

    def _check(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")

    def one_pass(self, index, tracer=None):
        """Run every scenario with the inputs of pass `index`, then verify
        every run directory.  Returns the pass's TIMES and its wall seconds
        as `pass_s`."""
        runner, config = self.fl.runner, self.fl.config
        begin = time.perf_counter()
        scenarios = workloads.scenarios(self.name, self.seed, index, n=self.n)
        record = {"index": index, "traced": tracer is not None, "configs": {},
                  "run_s": {}, "run_cpu_s": {}, "verify_s": {}, "verify_cpu_s": {},
                  "manifest_sha256": {}, "radius_err_rel": {}}
        self.passes.append(record)
        results = []
        for sc in scenarios:
            run_dir = self.work_dir / sc.name
            shutil.rmtree(run_dir, ignore_errors=True)
            if tracer is not None:
                tracer.run_id = f"run/{sc.name}"
            record["configs"][sc.name] = sc.text
            cfg = config.parse_config(sc.text)
            start, cpu = time.perf_counter(), time.process_time()
            try:
                result = runner.run(cfg, out_dir=str(run_dir), config_text=sc.text)
            except Exception:  # a crash is a failed operation, not a benchmark error
                result = runner.RunResult(-1, str(run_dir), [f"FAIL {traceback.format_exc()}"])
            record["run_s"][sc.name] = time.perf_counter() - start
            record["run_cpu_s"][sc.name] = time.process_time() - cpu
            problems, err = check_run(sc, result, run_dir)
            self._check(f"pass {index} run {sc.name}", problems)
            if err is not None:
                record["radius_err_rel"][sc.name] = err
            manifest = run_dir / "manifest.txt"
            if manifest.exists():
                record["manifest_sha256"][sc.name] = hashlib.sha256(
                    manifest.read_bytes()).hexdigest()
            results.append(result)
        for sc, result in zip(scenarios, results):
            if tracer is not None:
                tracer.run_id = f"verify/{sc.name}"
            start, cpu = time.perf_counter(), time.process_time()
            try:
                checked = runner.verify_run_dir(str(self.work_dir / sc.name))
            except Exception:
                checked = runner.RunResult(-1, "", [f"FAIL {traceback.format_exc()}"])
            record["verify_s"][sc.name] = time.perf_counter() - start
            record["verify_cpu_s"][sc.name] = time.process_time() - cpu
            self._check(f"pass {index} verify {sc.name}", check_verify(result, checked))
        times = {key: sum(record[key].values()) for key in TIMES}
        times["pass_s"] = time.perf_counter() - begin
        return times


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def per_layer_metrics(tracer, wall, overhead_pct):
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    spans = summarise(tracer.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def calls(name):
        return spans.get(name, empty)["calls"]

    def pct(name, key="s"):
        return 100.0 * spans.get(name, empty)[key] / wall

    advance = spans.get("solver.advance", empty)
    fp_calls = calls("weak.fixed_point_solve")
    iterations = tracer.counters["weak.picard_iterations"]
    dumped = tracer.counters["solver.snapshots_dumped"]
    providers = [n for n in spans if n.endswith((".speed_at", ".max_abs"))]
    builders = [n for n in spans if n.endswith(".speed_provider")]
    m = {
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "weak.fixed_point_solve.calls": (fp_calls, "count"),
        "weak.picard_iterations": (iterations, "count"),
        "weak.useful_solve_ratio": (fp_calls / iterations if iterations else 0.0, "ratio"),
        "solver.advance.calls": (calls("solver.advance"), "count"),
        "solver.advance.ms": (1e3 * advance["s"] / max(advance["calls"], 1), "ms"),
        "solver.cell_updates_per_s": (
            tracer.counters["solver.cell_updates"] / advance["s"] if advance["s"] else 0.0,
            "1/s"),
        "solver.solve.self_pct": (pct("solver.solve", "self_s"), "%"),
        # self time, because FNSpeed.max_abs calls FNSpeed.speed_at
        "solver.speed_at.pct": (sum(pct(n, "self_s") for n in providers), "%"),
        "couplings.speed_provider.pct": (sum(pct(n) for n in builders), "%"),
        "grid.curvature_term.calls": (calls("grid.curvature_term"), "count"),
        "grid.curvature_term.pct": (pct("grid.curvature_term"), "%"),
        "grid.upwind_gradient_norm.calls": (calls("grid.upwind_gradient_norm"), "count"),
        "grid.upwind_gradient_norm.pct": (pct("grid.upwind_gradient_norm"), "%"),
        "couplings.convolve_kernel.calls": (calls("couplings.convolve_kernel"), "count"),
        "couplings.convolve_kernel.pct": (pct("couplings.convolve_kernel"), "%"),
        "couplings.fn_evolve.calls": (calls("couplings.fn_evolve"), "count"),
        "couplings.fn_evolve.pct": (pct("couplings.fn_evolve"), "%"),
        "weak.uniqueness_probe.pct": (pct("weak.uniqueness_probe"), "%"),
        "verify.gamma_sweep_star_shape.pct": (pct("verify.gamma_sweep_star_shape"), "%"),
    }
    for report in ("key_estimate", "lower_gradient", "cone", "perimeter", "band_measure",
                   "fattening", "star_shape", "continuous_dependence"):
        m[f"verify.{report}_report.pct"] = (pct(f"verify.{report}_report"), "%")
    m.update({
        "contour.extract_contour.calls": (calls("contour.extract_contour"), "count"),
        "contour.extract_contour.pct": (pct("contour.extract_contour"), "%"),
        "contour.extracts_per_snapshot": (
            calls("contour.extract_contour") / dumped if dumped else 0.0, "ratio"),
        "grid.lebesgue_measure.calls": (calls("grid.lebesgue_measure"), "count"),
        "grid.lebesgue_measure.pct": (pct("grid.lebesgue_measure"), "%"),
        "solver.dump_trajectory.pct": (pct("solver.dump_trajectory"), "%"),
        "solver.dump_trajectory.bytes": (
            tracer.counters["solver.dump_trajectory.bytes"], "bytes"),
        "solver.load_trajectory.pct": (pct("solver.load_trajectory"), "%"),
        "config.parse_config.ms": (
            1e3 * spans.get("config.parse_config", empty)["s"]
            / max(spans.get("config.parse_config", empty)["calls"], 1), "ms"),
        "geometry.star_shaped_u0.pct": (pct("geometry.star_shaped_u0"), "%"),
        "runner.write_manifest.pct": (pct("runner.write_manifest"), "%"),
        "runner.run.self_pct": (pct("runner.run", "self_s"), "%"),
        "runner.verify_run_dir.self_pct": (pct("runner.verify_run_dir", "self_s"), "%"),
        "trace.pass_s": (wall, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


def measure(workload, seed, seconds, trace, n=None):
    """Run the workload; returns (result dict, details dict)."""
    work_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)

    setup_s, fl, alias = setup(workloads.scenarios(workload, seed, n=n))
    setup_samples = [setup_s] + [
        setup_in_fresh_interpreter(workload, seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    wl = Workload(fl, workload, seed, work_dir, n=n)

    # pass 0 fills caches and finishes lazy set-up; it is checked but not
    # timed.  With tracing, each index runs traced and then untraced on the
    # same inputs; the per-layer metrics come from the first traced pass,
    # so they repeat for a seed, and the pairs give the tracing overhead.
    begin = time.perf_counter()
    wl.one_pass(0)
    untraced, traced, tracers = [], [], []
    for index in itertools.count(1):
        if trace:
            tracers.append(Tracer())
            with tracers[-1]:
                traced.append(wl.one_pass(index, tracers[-1]))
        ref = reference_cpu_s()
        untraced.append(wl.one_pass(index))
        untraced[-1]["ref_cpu_s"] = ref
        step = untraced[-1]["pass_s"] + (traced[-1]["pass_s"] if trace else 0.0)
        if time.perf_counter() - begin + step > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        overhead = statistics.median(
            100.0 * (t["run_cpu_s"] - u["run_cpu_s"]) / u["run_cpu_s"]
            for t, u in zip(traced, untraced))
        first = tracers[0]
        metrics = per_layer_metrics(first, traced[0]["pass_s"], overhead)
        errors = wl.passes[1]["radius_err_rel"].values()
        metrics["radius_err_rel"] = (max(errors, default=0.0), "ratio")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"spans": first.spans, "counters": first.counters,
                       "missing": first.missing}, fh)
    else:
        scale = REF_HOST_S / statistics.median(p["ref_cpu_s"] for p in untraced)
        metrics = {
            "run_cpu_s": (scale * statistics.median(p["run_cpu_s"] for p in untraced), "s"),
            "verify_cpu_s": (scale * statistics.median(p["verify_cpu_s"] for p in untraced), "s"),
            "setup_s": (scale * statistics.median(cpu for _, cpu in setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    import numpy
    import scipy

    details = {
        "workload": workload,
        "seed": seed,
        "np_trapz_alias": alias,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
        "setup_s": setup_samples,
        "untraced": untraced,
        "traced": traced,
        "quartiles": {key: quartiles([p[key] for p in untraced])
                      for key in TIMES + ("ref_cpu_s",)},
        "passes": wl.passes,
        "failed_frac": len(wl.failures) / wl.attempted,
        "failures": wl.failures,
        "untraced_targets": tracers[0].missing if trace else [],
    }
    result = {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and config parsing once and print it")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:      # before numpy is imported
        os.environ[var] = "1"

    try:
        if args.setup_only:
            print(*setup(workloads.scenarios(args.workload, args.seed))[0])
            return 0
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
