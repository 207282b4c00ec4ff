"""Scenario configuration: a line-based key = value format.

Lines hold `key = value`, `#` starts a comment, and dotted keys group the
sections (grid.*, init.*, coupling.*, probe.*).  Every parse error carries
its line number and the offending key.  A minimal scenario is four lines:

    init.kind = circle
    init.r0 = 0.5
    coupling.kind = volume
    coupling.beta = constant(0)

Everything else has defaults listed in ScenarioConfig.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .couplings import (
    ConstantCoupling,
    DislocationCoupling,
    FitzhughNagumoCoupling,
    VolumeCoupling,
    kernel_call,
    parse_kernel,
    parse_scalar_map,
)
from .errors import ConfigError
from .geometry import star_shaped_u0
from .grid import GridSpec
from .solver import _normalise_output_times, grid_ring
from .verify import CHECKS, DEFAULT_CHECKS
from .weak import default_taus

KNOWN_SEEDS = ("bracket", "empty", "ball")

# Largest estimated memory for the stored snapshots of a run: n^2 x stored
# times x 8 bytes, once more for each probe seed when the probe runs.  The
# largest shipped scenario (the uniqueness-probe preset) needs 10.8 MB.
MAX_SNAPSHOT_BYTES = 512 * 2**20


@dataclass
class ScenarioConfig:
    """A fully validated scenario: grid, initial front, coupling, checks."""

    name: str = "scenario"
    n: int = 129
    half_extent: float = 1.5
    init_kind: str = "circle"
    r0: float = 0.5
    kernel_points: tuple = ((0.0, 0.0),)
    nu_kind: str = "radial"
    coupling_kind: str = "constant"
    coupling_params: dict = dataclass_field(default_factory=dict)
    gamma: float = 0.0
    horizon: float = 0.1
    output_times: object = 13          # count or explicit tuple of floats
    checks: tuple = DEFAULT_CHECKS
    probe_enabled: bool = False
    probe_seeds: tuple = KNOWN_SEEDS
    probe_taus: tuple = None
    gamma_sweep: tuple = None
    output_dir: str = "out"
    far_radius: float = None
    tol: float = None                  # tol and max_iter steer the probe's Picard runs
    max_iter: int = 12

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.half_extent)

    def times(self) -> np.ndarray:
        if isinstance(self.output_times, (int, np.integer)):
            return np.linspace(0.0, self.horizon, int(self.output_times))
        return np.asarray(self.output_times, dtype=np.float64)

    def build_init(self, spec: GridSpec = None):
        if spec is None:
            spec = self.grid()
        points = self.kernel_points if self.init_kind == "star_shaped" else ((0.0, 0.0),)
        return star_shaped_u0(spec, points, self.r0, nu_kind=self.nu_kind)

    def build_coupling(self, spec: GridSpec = None):
        if spec is None:
            spec = self.grid()
        p = self.coupling_params
        if self.coupling_kind == "constant":
            return ConstantCoupling(p.get("c", 0.0))
        if self.coupling_kind == "dislocation":
            return DislocationCoupling(
                c0=parse_kernel(p["kernel"], spec), c1=p.get("c1", 0.0)
            )
        if self.coupling_kind == "volume":
            return VolumeCoupling(beta=parse_scalar_map(p["beta"]))
        if self.coupling_kind == "fitzhugh_nagumo":
            return FitzhughNagumoCoupling(
                alpha=parse_scalar_map(p["alpha"]),
                g_plus=parse_scalar_map(p["g_plus"]),
                g_minus=parse_scalar_map(p["g_minus"]),
                v0=p.get("v0", 0.0),
            )
        raise ConfigError(f"unknown coupling kind {self.coupling_kind!r}")


def _split_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _as_float(key, value, lineno):
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", line=lineno)
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value!r}", line=lineno)
    return x


def _as_int(key, value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}", line=lineno)


def _as_bool(key, value, lineno):
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}", line=lineno)


def _as_float_list(key, value, lineno):
    return tuple(_as_float(key, v.strip(), lineno) for v in value.split(",") if v.strip())


def _as_points(key, value, lineno):
    points = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        coords = part.split(",")
        if len(coords) != 2:
            raise ConfigError(
                f"{key}: expected x,y pairs separated by ';', got {part!r}", line=lineno
            )
        points.append(tuple(_as_float(key, c.strip(), lineno) for c in coords))
    if not points:
        raise ConfigError(f"{key}: no points given", line=lineno)
    return tuple(points)


def _check_map(key, value, lineno):
    try:
        parse_scalar_map(value)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}", line=lineno)
    return value


def _check_kernel(key, value, lineno):
    try:
        kernel_call(value)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}", line=lineno)
    return value


def parse_config(text: str, force_probe: bool = False) -> ScenarioConfig:
    """Parse and validate; the first violation raises ConfigError with its
    line number.  force_probe turns the uniqueness probe on as `frontlab
    probe` does, before the snapshot budget counts its trajectories."""
    cfg = ScenarioConfig()
    cfg.coupling_params = {}
    seen = {}
    coupling_kind_line = None

    for lineno, key, value in _split_lines(text):
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {seen[key]})", line=lineno
            )
        seen[key] = lineno

        if key == "name":
            cfg.name = value
        elif key == "grid.n":
            cfg.n = _as_int(key, value, lineno)
            if cfg.n < 33 or cfg.n % 2 == 0:
                raise ConfigError("grid.n must be odd and >= 33", line=lineno)
        elif key == "grid.L":
            cfg.half_extent = _as_float(key, value, lineno)
            if cfg.half_extent <= 0:
                raise ConfigError("grid.L must be > 0", line=lineno)
        elif key == "init.kind":
            if value not in ("circle", "star_shaped"):
                raise ConfigError(
                    f"init.kind must be circle or star_shaped, got {value!r}",
                    line=lineno,
                )
            cfg.init_kind = value
        elif key == "init.r0":
            cfg.r0 = _as_float(key, value, lineno)
            if cfg.r0 <= 0:
                raise ConfigError("init.r0 must be > 0", line=lineno)
        elif key == "init.kernel_points":
            cfg.kernel_points = _as_points(key, value, lineno)
        elif key == "init.nu":
            if value not in ("radial", "gradient"):
                raise ConfigError(
                    f"init.nu must be radial or gradient, got {value!r}", line=lineno
                )
            cfg.nu_kind = value
        elif key == "coupling.kind":
            if value not in ("constant", "dislocation", "volume", "fitzhugh_nagumo"):
                raise ConfigError(f"unknown coupling kind {value!r}", line=lineno)
            cfg.coupling_kind = value
            coupling_kind_line = lineno
        elif key == "coupling.c":
            cfg.coupling_params["c"] = _as_float(key, value, lineno)
        elif key == "coupling.c1":
            cfg.coupling_params["c1"] = _as_float(key, value, lineno)
        elif key == "coupling.kernel":
            cfg.coupling_params["kernel"] = _check_kernel(key, value, lineno)
        elif key == "coupling.beta":
            cfg.coupling_params["beta"] = _check_map(key, value, lineno)
        elif key == "coupling.alpha":
            cfg.coupling_params["alpha"] = _check_map(key, value, lineno)
        elif key == "coupling.g_plus":
            cfg.coupling_params["g_plus"] = _check_map(key, value, lineno)
        elif key == "coupling.g_minus":
            cfg.coupling_params["g_minus"] = _check_map(key, value, lineno)
        elif key == "coupling.v0":
            cfg.coupling_params["v0"] = _as_float(key, value, lineno)
        elif key == "gamma":
            cfg.gamma = _as_float(key, value, lineno)
            if cfg.gamma < 0:
                raise ConfigError("gamma must be >= 0", line=lineno)
        elif key == "horizon":
            cfg.horizon = _as_float(key, value, lineno)
            if cfg.horizon <= 0:
                raise ConfigError("horizon must be > 0", line=lineno)
        elif key == "output_times":
            if "," in value:
                cfg.output_times = _as_float_list(key, value, lineno)
            else:
                count = _as_int(key, value, lineno)
                if count < 2:
                    raise ConfigError("output_times count must be >= 2", line=lineno)
                cfg.output_times = count
        elif key == "checks":
            if value.lower() == "none":
                cfg.checks = ()
            else:
                names = tuple(v.strip() for v in value.split(",") if v.strip())
                for nm in names:
                    if nm not in CHECKS:
                        raise ConfigError(
                            f"checks: unknown check {nm!r}; choose from {tuple(CHECKS)}",
                            line=lineno,
                        )
                cfg.checks = names
        elif key == "probe.enabled":
            cfg.probe_enabled = _as_bool(key, value, lineno)
        elif key == "probe.seeds":
            names = tuple(v.strip() for v in value.split(",") if v.strip())
            for nm in names:
                if nm not in KNOWN_SEEDS:
                    raise ConfigError(
                        f"probe.seeds: unknown seed {nm!r}; choose from {KNOWN_SEEDS}",
                        line=lineno,
                    )
            if len(names) < 2:
                raise ConfigError("probe.seeds: need at least two seeds", line=lineno)
            cfg.probe_seeds = names
        elif key == "probe.taus":
            cfg.probe_taus = _as_float_list(key, value, lineno)
        elif key == "gamma_sweep":
            sweep = _as_float_list(key, value, lineno)
            if any(g < 0 for g in sweep):
                raise ConfigError("gamma_sweep values must be >= 0", line=lineno)
            cfg.gamma_sweep = sweep
        elif key == "output_dir":
            cfg.output_dir = value
        elif key == "far_radius":
            cfg.far_radius = _as_float(key, value, lineno)
        elif key == "tol":
            cfg.tol = _as_float(key, value, lineno)
        elif key == "max_iter":
            cfg.max_iter = _as_int(key, value, lineno)
            if cfg.max_iter < 1:
                raise ConfigError("max_iter must be >= 1", line=lineno)
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno)

    # cross-key requirements
    def _require(param, why):
        if param not in cfg.coupling_params:
            raise ConfigError(
                f"coupling.kind = {cfg.coupling_kind} requires coupling.{param} ({why})",
                line=coupling_kind_line,
            )

    if cfg.coupling_kind == "dislocation":
        _require("kernel", "the convolution kernel")
    elif cfg.coupling_kind == "volume":
        _require("beta", "the area response map")
    elif cfg.coupling_kind == "fitzhugh_nagumo":
        for param, why in (("alpha", "speed map"), ("g_plus", "occupied source"),
                           ("g_minus", "vacant source")):
            _require(param, why)
    if cfg.init_kind == "star_shaped" and "init.kernel_points" not in seen:
        raise ConfigError(
            "init.kind = star_shaped requires init.kernel_points",
            line=seen.get("init.kind"),
        )
    if isinstance(cfg.output_times, tuple):
        ts = cfg.output_times
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ConfigError(
                "output_times must be nondecreasing", line=seen.get("output_times")
            )
        if any(t < 0 or t > cfg.horizon * (1 + 1e-12) for t in ts):
            raise ConfigError(
                "output_times must lie within [0, horizon]", line=seen.get("output_times")
            )

    # curvature_term regularises its denominator by 4h^4, which must not
    # underflow: where the field is flat it would divide 0 by 0
    spec = cfg.grid()
    h = spec.h
    if not 4.0 * (h * h) * (h * h) >= np.finfo(np.float64).tiny:
        raise ConfigError(
            f"grid spacing h = {h:.3g} is too fine: 4h^4 underflows below the "
            f"smallest normal float; raise grid.L or lower grid.n",
            line=seen.get("grid.L", seen.get("grid.n")),
        )
    # the grid must hold the initial support with the solver's 2h margin
    ring = grid_ring(spec)
    points = cfg.kernel_points if cfg.init_kind == "star_shaped" else ((0.0, 0.0),)
    kmax = max(float(np.hypot(px, py)) for px, py in points)
    if kmax + cfg.r0 > ring:
        raise ConfigError(
            f"initial support radius {kmax + cfg.r0:g} does not fit the grid "
            f"(needs <= L - 2h = {ring:g})",
            line=seen.get("init.r0"),
        )
    if cfg.tol is not None and cfg.tol < spec.h**2 * (1.0 - 1e-12):
        raise ConfigError(
            f"tol must be finite and >= h^2 = {spec.h**2:g}, got {cfg.tol:g}",
            line=seen["tol"],
        )
    if cfg.far_radius is not None and not 0 < cfg.far_radius <= ring:
        raise ConfigError(
            f"far_radius must lie in (0, L - 2h = {ring:g}], got {cfg.far_radius:g}",
            line=seen["far_radius"],
        )
    if isinstance(cfg.output_times, tuple):
        stored = _normalise_output_times(cfg.output_times, cfg.horizon).size
    else:
        stored = cfg.output_times  # a count: np.linspace keeps 0 and the horizon
    cfg.probe_enabled = cfg.probe_enabled or force_probe
    trajectories = 1 + len(cfg.probe_seeds) if cfg.probe_enabled else 1
    need = cfg.n**2 * stored * 8 * trajectories
    if need > MAX_SNAPSHOT_BYTES:
        raise ConfigError(
            f"stored snapshots need {cfg.n}^2 nodes x {stored} times x "
            f"{trajectories} trajectories x 8 bytes = {need / 2**20:.0f} MiB, above "
            f"the {MAX_SNAPSHOT_BYTES / 2**20:.0f} MiB budget; lower output_times or grid.n",
            line=seen.get("output_times", seen.get("grid.n")),
        )
    short = [c for c in cfg.checks if stored < CHECKS[c][2]]
    if short:
        raise ConfigError(
            f"checks {', '.join(short)} need at least "
            f"{max(CHECKS[c][2] for c in short)} stored times, got {stored}",
            line=seen.get("output_times", seen.get("checks")),
        )
    # the probe compares the seeds at the stored times <= tau, and the
    # earliest tau decides its verdict
    first = _normalise_output_times(cfg.times(), cfg.horizon)[1]
    if cfg.probe_taus is not None:
        taus = cfg.probe_taus
        if not taus or not all(0 < tau <= cfg.horizon for tau in taus):
            raise ConfigError(
                f"probe.taus must be times in (0, horizon = {cfg.horizon:g}]",
                line=seen["probe.taus"],
            )
        if min(taus) < first - 1e-12:
            raise ConfigError(
                f"probe.taus: the earliest tau {min(taus):g} lies before the first "
                f"stored time after 0, {first:g}",
                line=seen["probe.taus"],
            )
    elif cfg.probe_enabled and min(default_taus(cfg.horizon)) < first - 1e-12:
        raise ConfigError(
            f"the probe's earliest default tau, horizon/4 = {cfg.horizon / 4.0:g}, lies "
            f"before the first stored time after 0, {first:g}; set probe.taus or store "
            f"more output_times",
            line=seen.get("output_times"),
        )
    return cfg
