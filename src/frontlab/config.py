"""Scenario configuration: a line-based key = value format.

Lines hold `key = value`, `#` starts a comment, and dotted keys group the
sections (grid.*, init.*, coupling.*, probe.*).  Every parse error carries
its line number and the offending key.  A minimal scenario is four lines:

    init.kind = circle
    init.r0 = 0.5
    coupling.kind = volume
    coupling.beta = constant(0)

Everything else has defaults listed in ScenarioConfig.  No key sets the
containment ring, which is the grid's own L - 2h (`solver.grid_ring`), or the
uniqueness probe's Picard stop (`weak.PICARD_TOL_CELLS`, `PICARD_MAX_ITER`).
The table KEYS gives each key its converter, range check and target field;
COUPLINGS gives each coupling kind the parameters it reads and its
constructor, and INIT_KINDS the init.* keys each initial-data kind reads.
Every line's value is checked first.  Then a coupling.* or init.* key that
the chosen kind does not read is an error on its own line, and a parameter
the kind requires but is not given is an error on the kind's line.
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

# coupling.kind -> (required parameters with what each is, optional
# parameters with their defaults, constructor from the parameters and grid)
COUPLINGS = {
    "constant": ({}, {"c": 0.0}, lambda p, spec: ConstantCoupling(p["c"])),
    "dislocation": ({"kernel": "the convolution kernel"}, {"c1": 0.0}, lambda p, spec:
                    DislocationCoupling(c0=parse_kernel(p["kernel"], spec), c1=p["c1"])),
    "volume": ({"beta": "the area response map"}, {},
               lambda p, spec: VolumeCoupling(beta=parse_scalar_map(p["beta"]))),
    "fitzhugh_nagumo": (
        {"alpha": "speed map", "g_plus": "occupied source", "g_minus": "vacant source"},
        {"v0": 0.0},
        lambda p, spec: FitzhughNagumoCoupling(**{m: parse_scalar_map(p[m]) for m in (
            "alpha", "g_plus", "g_minus")}, v0=p["v0"]),
    ),
}

# init.kind -> (required init.* keys, optional ones); a circle is centred at
# the origin, the one kernel point that ScenarioConfig defaults to
INIT_KINDS = {"circle": ({}, ("r0", "nu")), "star_shaped": ({"kernel_points": None}, ("r0", "nu"))}


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

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.half_extent)

    def times(self) -> np.ndarray:
        if isinstance(self.output_times, (int, np.integer)):
            return np.linspace(0.0, self.horizon, int(self.output_times))
        return np.asarray(self.output_times, dtype=np.float64)

    def build_init(self, spec: GridSpec = None):
        spec = spec or self.grid()
        return star_shaped_u0(spec, self.kernel_points, self.r0, nu_kind=self.nu_kind)

    def build_coupling(self, spec: GridSpec = None):
        _, optional, make = COUPLINGS[self.coupling_kind]
        return make({**optional, **self.coupling_params}, spec or self.grid())


def _split_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _as_text(key, value, lineno):
    return value


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


def _one_of(options, message):
    """Converter to a value from options; message formats a refused value."""
    def convert(key, value, lineno):
        if value not in options:
            raise ConfigError(message.format(value), line=lineno)
        return value
    return convert


def _names(known, noun):
    """Converter to a comma list of names, each from known."""
    def convert(key, value, lineno):
        names = tuple(v.strip() for v in value.split(",") if v.strip())
        for nm in names:
            if nm not in known:
                raise ConfigError(
                    f"{key}: unknown {noun} {nm!r}; choose from {tuple(known)}", line=lineno
                )
        return names
    return convert


def _checked(parse):
    """Converter that keeps the text and refuses the ValueError of parse."""
    def convert(key, value, lineno):
        try:
            parse(value)
        except ValueError as err:
            raise ConfigError(f"{key}: {err}", line=lineno)
        return value
    return convert


_as_map = _checked(parse_scalar_map)
_as_kernel = _checked(kernel_call)

# key -> (the ScenarioConfig field it sets, converter, range check or None,
# the check's message); a coupling.<param> key sets coupling_params[<param>]
KEYS = {
    "name": ("name", _as_text, None, None),
    "grid.n": ("n", _as_int, lambda n: n >= 33 and n % 2 == 1, "grid.n must be odd and >= 33"),
    "grid.L": ("half_extent", _as_float, lambda x: x > 0, "grid.L must be > 0"),
    "init.kind": ("init_kind", _one_of(
        INIT_KINDS, "init.kind must be circle or star_shaped, got {!r}"), None, None),
    "init.r0": ("r0", _as_float, lambda x: x > 0, "init.r0 must be > 0"),
    "init.kernel_points": ("kernel_points", _as_points, None, None),
    "init.nu": ("nu_kind", _one_of(
        ("radial", "gradient"), "init.nu must be radial or gradient, got {!r}"), None, None),
    "coupling.kind": ("coupling_kind", _one_of(
        COUPLINGS, "unknown coupling kind {!r}"), None, None),
    "coupling.c": ("coupling_params", _as_float, None, None),
    "coupling.c1": ("coupling_params", _as_float, None, None),
    "coupling.kernel": ("coupling_params", _as_kernel, None, None),
    "coupling.beta": ("coupling_params", _as_map, None, None),
    "coupling.alpha": ("coupling_params", _as_map, None, None),
    "coupling.g_plus": ("coupling_params", _as_map, None, None),
    "coupling.g_minus": ("coupling_params", _as_map, None, None),
    "coupling.v0": ("coupling_params", _as_float, None, None),
    "gamma": ("gamma", _as_float, lambda x: x >= 0, "gamma must be >= 0"),
    "horizon": ("horizon", _as_float, lambda x: x > 0, "horizon must be > 0"),
    # an explicit comma list of times, or a count spread over [0, horizon]
    "output_times": ("output_times", lambda key, value, lineno: (
        _as_float_list if "," in value else _as_int)(key, value, lineno),
        lambda v: isinstance(v, tuple) or v >= 2, "output_times count must be >= 2"),
    "checks": ("checks", lambda key, value, lineno: () if value.lower() == "none"
               else _names(CHECKS, "check")(key, value, lineno), None, None),
    "probe.enabled": ("probe_enabled", _as_bool, None, None),
    "probe.seeds": ("probe_seeds", _names(KNOWN_SEEDS, "seed"),
                    lambda names: len(names) >= 2, "probe.seeds: need at least two seeds"),
    "probe.taus": ("probe_taus", _as_float_list, None, None),
    "gamma_sweep": ("gamma_sweep", _as_float_list,
                    lambda sweep: all(g >= 0 for g in sweep), "gamma_sweep values must be >= 0"),
    "output_dir": ("output_dir", _as_text, None, None),
}


def _check_kind_keys(section: str, kinds: dict, kind: str, seen: dict) -> None:
    """A section.* key of seen that kind does not read is an error on its
    line, then a parameter it requires but seen lacks on the kind's line."""
    required, optional = kinds[kind][:2]
    reads = [*required, *optional]
    for key, lineno in seen.items():
        head, _, param = key.partition(".")
        if head == section and param != "kind" and param not in reads:
            raise ConfigError(f"{section}.kind = {kind} does not read {key}; it reads "
                              + ", ".join(f"{section}.{p}" for p in reads), line=lineno)
    for param, what in required.items():
        if f"{section}.{param}" not in seen:
            why = f" ({what})" if what else ""
            raise ConfigError(f"{section}.kind = {kind} requires {section}.{param}{why}",
                              line=seen.get(f"{section}.kind"))


def parse_config(text: str, force_probe: bool = False) -> ScenarioConfig:
    """Parse and validate; the first violation raises ConfigError with its
    line number.  force_probe turns the uniqueness probe on as `frontlab
    probe` does, before the snapshot budget counts its trajectories."""
    cfg = ScenarioConfig()
    seen = {}
    for lineno, key, value in _split_lines(text):
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first set on line {seen[key]})",
                              line=lineno)
        seen[key] = lineno
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        target, convert, in_range, message = KEYS[key]
        x = convert(key, value, lineno)
        if in_range is not None and not in_range(x):
            raise ConfigError(message, line=lineno)
        if target == "coupling_params":
            cfg.coupling_params[key.partition(".")[2]] = x
        else:
            setattr(cfg, target, x)

    _check_kind_keys("coupling", COUPLINGS, cfg.coupling_kind, seen)
    _check_kind_keys("init", INIT_KINDS, cfg.init_kind, seen)
    ts = cfg.output_times
    if isinstance(ts, tuple) and any(b < a for a, b in zip(ts, ts[1:])):
        raise ConfigError("output_times must be nondecreasing", line=seen["output_times"])
    if isinstance(ts, tuple) and any(t < 0 or t > cfg.horizon * (1 + 1e-12) for t in ts):
        raise ConfigError("output_times must lie within [0, horizon]", line=seen["output_times"])

    # the snapshot budget comes first, so it also refuses a grid.n or an
    # output_times count too large for a float; np.linspace keeps a count
    stored = ts if isinstance(ts, int) else _normalise_output_times(ts, cfg.horizon).size
    cfg.probe_enabled = cfg.probe_enabled or force_probe
    trajectories = 1 + len(cfg.probe_seeds) if cfg.probe_enabled else 1
    need = cfg.n**2 * stored * 8 * trajectories
    if need > MAX_SNAPSHOT_BYTES:
        mib = need / 2**20 if need < 2**1000 else float("inf")
        raise ConfigError(
            f"stored snapshots need {cfg.n}^2 nodes x {stored} times x "
            f"{trajectories} trajectories x 8 bytes = {mib:.0f} MiB, above "
            f"the {MAX_SNAPSHOT_BYTES / 2**20:.0f} MiB budget; lower output_times or grid.n",
            line=seen.get("output_times", seen.get("grid.n")),
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
    kmax = max(float(np.hypot(px, py)) for px, py in cfg.kernel_points)
    if kmax + cfg.r0 > ring:
        raise ConfigError(
            f"initial support radius {kmax + cfg.r0:g} does not fit the grid "
            f"(needs <= L - 2h = {ring:g})",
            line=seen.get("init.r0", seen.get("init.kernel_points", seen.get("grid.L"))),
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
