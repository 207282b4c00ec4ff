"""Spans around frontlab's public functions, recorded from outside the
package.

`Tracer.install()` replaces each target function with a timing wrapper and
rebinds every `frontlab.*` module global that holds the same function
object, because modules import each other with `from .x import f`.  Methods
of the speed providers and couplings are wrapped on their classes.
`uninstall()` puts every original binding back.

A span is (name, start, end, parent index, run id).  Spans stay in memory
until the benchmark writes them out.  Targets missing from the engine are
skipped and listed in `missing`, so the tracer keeps working when a later
version removes or renames a function.
"""

import functools
import os
import sys
import time

FUNCTIONS = {
    "grid": [
        "curvature_term", "upwind_gradient_norm", "central_gradient_norm",
        "cell_coverage", "lebesgue_measure", "band_measure", "interpolate",
        "dump_field", "load_field",
    ],
    "solver": [
        "advance", "solve", "regularity_report", "dump_trajectory", "load_trajectory",
    ],
    "couplings": ["convolve_kernel", "fn_evolve", "volume_speed", "kappa"],
    "weak": ["fixed_point_solve", "uniqueness_probe"],
    "verify": [
        "eta_empirical", "key_estimate_report", "lower_gradient_report",
        "cone_report", "perimeter_report", "band_measure_report",
        "fattening_report", "star_shape_report", "continuous_dependence_report",
        "gamma_sweep_star_shape", "dump_report", "load_report",
    ],
    "contour": ["extract_contour", "dump_contour"],
    "geometry": ["star_shaped_u0", "dump_init", "load_init"],
    "config": ["parse_config"],
    "runner": ["run", "verify_run_dir", "write_manifest"],
}

# speed providers (called once or twice per time step) and the couplings
# that build them
METHODS = {
    "solver": {
        "ConstantSpeed": ["speed_at", "max_abs"],
        "PiecewiseConstantSpeed": ["speed_at", "max_abs"],
    },
    "couplings": {
        "FNSpeed": ["speed_at", "max_abs"],
        "ConstantCoupling": ["speed_provider"],
        "DislocationCoupling": ["speed_provider"],
        "FitzhughNagumoCoupling": ["speed_provider"],
        "VolumeCoupling": ["speed_provider"],
    },
}


def _dir_bytes(directory) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _count_iterations(counters, args, kwargs, result):
    counters["weak.picard_iterations"] += result.iterations


def _count_cells(counters, args, kwargs, result):
    counters["solver.cell_updates"] += args[0].spec.n ** 2


def _count_dump(counters, args, kwargs, result):
    counters["solver.dump_trajectory.bytes"] += _dir_bytes(args[1])
    counters["solver.snapshots_dumped"] += len(args[0].snapshots)


# counters taken from a call's arguments or result, after its span has ended
HOOKS = {
    "weak.fixed_point_solve": _count_iterations,
    "solver.advance": _count_cells,
    "solver.dump_trajectory": _count_dump,
}

COUNTERS = (
    "weak.picard_iterations", "solver.cell_updates",
    "solver.dump_trajectory.bytes", "solver.snapshots_dumped",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.run_id = None
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "frontlab" or key.startswith("frontlab."))]
        for mod_name, names in FUNCTIONS.items():
            module = sys.modules.get(f"frontlab.{mod_name}")
            for attr in names:
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
        for mod_name, classes in METHODS.items():
            module = sys.modules.get(f"frontlab.{mod_name}")
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    original = vars(cls).get(meth) if cls is not None else None
                    if not callable(original):
                        self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                        continue
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", original))

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarise(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover.  No wrapped function calls itself, directly or through another
    wrapped function, so inclusive times do not double count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return out
