"""Nonlocal speed laws and the kappa distance between occupation histories.

Three couplings turn the occupation chi(t_k) at the start of a stored
interval [t_k, t_{k+1}] into the speed the local solver reads on it:

* dislocation:     c(x, t) = (c0 * chi(t_k))(x) + c1(x), unit mobility;
* fitzhugh-nagumo: c(x, t) = alpha(v(x, t)) where v solves the explicit heat
                   equation v_t - lap v = g+(v) chi + g-(v)(1 - chi), v
                   being the state carried from one interval to the next;
* volume:          c(t) = beta(area of {chi(t_k) = 1}), spatially constant.

Each law is written once, as `interval_speed`, which returns the speed on
the interval as a function of time: a float for the spatially constant
laws (constant, volume), a ScalarField for the others.  `weak.march_solve`
calls it interval by interval, with the march's own chi(t_k) or with a
given occupation history, and `solver.solve` reads the speed once per step.

Occupation histories are compared by kappa(t) = ||chi1(t) - chi2(t)||_L1;
`gauss_average` is the unit-mass heat-kernel average that the Green-weighted
band measure integrates in time, built once per point and read on each field.
"""

import bisect
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridSpec, ScalarField, constant_field, lebesgue_measure

# fraction of the explicit heat step's stability limit h^2/4 that fn_evolve uses
HEAT_SAFETY = 0.9


# ---------------------------------------------------------------------------
# scalar maps r -> f(r) with recorded Lipschitz constants and bounds


@dataclass(frozen=True)
class ScalarMap:
    """A 1-D map with its Lipschitz constant and range, parseable from text."""

    kind: str
    params: tuple
    lip: float
    lower: float
    upper: float

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "constant":
            out = np.full_like(r, self.params[0])
        elif self.kind == "affine":
            a, b = self.params
            out = a + b * r
        elif self.kind == "clamp_affine":
            a, b, lo, hi = self.params
            out = np.clip(a + b * r, lo, hi)
        else:
            raise ValueError(f"unknown scalar map kind {self.kind!r}")
        return float(out) if out.ndim == 0 else out

    def __str__(self):
        args = ",".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({args})"


def constant_map(a: float) -> ScalarMap:
    return ScalarMap("constant", (float(a),), 0.0, float(a), float(a))


def affine_map(a: float, b: float) -> ScalarMap:
    return ScalarMap("affine", (float(a), float(b)), abs(float(b)), -np.inf, np.inf)


def clamp_affine_map(a: float, b: float, lo: float, hi: float) -> ScalarMap:
    if hi < lo:
        raise ValueError(f"clamp bounds out of order: [{lo}, {hi}]")
    return ScalarMap(
        "clamp_affine", (float(a), float(b), float(lo), float(hi)),
        abs(float(b)), float(lo), float(hi),
    )


_MAP_BUILDERS = {
    "constant": constant_map,
    "affine": affine_map,
    "clamp_affine": clamp_affine_map,
}


def _parse_call(text: str) -> tuple[str, list[float]]:
    m = re.fullmatch(r"\s*([a-z_]+)\s*\(([^)]*)\)\s*", text)
    if not m:
        raise ValueError(f"expected name(arg, ...), got {text!r}")
    name = m.group(1)
    args = [float(a) for a in m.group(2).split(",")] if m.group(2).strip() else []
    if not np.isfinite(args).all():
        raise ValueError(f"arguments must be finite numbers, got {text!r}")
    return name, args


def parse_scalar_map(text: str) -> ScalarMap:
    name, args = _parse_call(text)
    if name not in _MAP_BUILDERS:
        raise ValueError(f"unknown scalar map {name!r}; choose from {sorted(_MAP_BUILDERS)}")
    try:
        return _MAP_BUILDERS[name](*args)
    except TypeError:
        raise ValueError(f"wrong number of arguments for {name}: {text!r}") from None


# ---------------------------------------------------------------------------
# convolution kernels


def disc_bump_kernel(spec: GridSpec, mass: float, rho: float) -> ScalarField:
    """Uniform density mass / (pi rho^2) on the disc |x| <= rho."""
    r = spec.radius()
    vals = np.where(r <= rho, mass / (np.pi * rho * rho), 0.0)
    return ScalarField(spec, vals)


def core_ring_kernel(
    spec: GridSpec, core_mass: float, core_rho: float,
    ring_mass: float, ring_inner: float, ring_outer: float,
) -> ScalarField:
    """Uniform core plus a uniform annulus; masses may carry either sign."""
    if not (0 < core_rho and core_rho <= ring_inner < ring_outer):
        raise ValueError("core_ring radii must satisfy 0 < core <= inner < outer")
    r = spec.radius()
    vals = np.where(r <= core_rho, core_mass / (np.pi * core_rho**2), 0.0)
    ring = (r > ring_inner) & (r <= ring_outer)
    vals = vals + np.where(ring, ring_mass / (np.pi * (ring_outer**2 - ring_inner**2)), 0.0)
    return ScalarField(spec, vals)


def gaussian_kernel(spec: GridSpec, mass: float, sigma: float) -> ScalarField:
    r = spec.radius()
    vals = mass * np.exp(-0.5 * (r / sigma) ** 2) / (2.0 * np.pi * sigma * sigma)
    return ScalarField(spec, vals)


# name -> (builder, role of each argument: "m" a mass, "r" a radius)
_KERNELS = {
    "disc_bump": (disc_bump_kernel, "mr"),
    "core_ring": (core_ring_kernel, "mrmrr"),
    "gaussian": (gaussian_kernel, "mr"),
}


def kernel_call(text: str) -> tuple[str, list[float]]:
    """Parse a kernel `name(arg, ...)` and reject one that is degenerate: a
    radius <= 0, core_ring radii out of the order core <= inner < outer, or
    masses that are all zero, which give a kernel vanishing everywhere.
    Signed masses that cancel (a zero-mean core_ring) are kept."""
    name, args = _parse_call(text)
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}")
    roles = _KERNELS[name][1]
    if len(args) != len(roles):
        raise ValueError(f"{name} takes {len(roles)} arguments, got {len(args)}")
    radii = [a for a, role in zip(args, roles) if role == "r"]
    if min(radii) <= 0:
        raise ValueError(f"{name} radii must be > 0, got {text!r}")
    if not any(a for a, role in zip(args, roles) if role == "m"):
        raise ValueError(f"{name} masses are all zero, so the kernel vanishes: {text!r}")
    if name == "core_ring" and not radii[0] <= radii[1] < radii[2]:
        raise ValueError(f"core_ring radii must satisfy core <= inner < outer, got {text!r}")
    return name, args


def parse_kernel(text: str, spec: GridSpec) -> ScalarField:
    name, args = kernel_call(text)
    return _KERNELS[name][0](spec, *args)


def _fast_len(t: int) -> int:
    """The smallest 5-smooth integer >= t, an FFT length numpy transforms fast."""
    while True:
        rest = t
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return t
        t += 1


def kernel_spectrum(c0: ScalarField) -> np.ndarray:
    """numpy.fft.rfftn of c0 zero-padded to the m x m shape that
    `convolve_kernel` transforms on, m = the smallest 5-smooth m >= 2n - 1."""
    m = _fast_len(2 * c0.spec.n - 1)
    return np.fft.rfftn(c0.values, (m, m), axes=(0, 1))


def convolve_kernel(c0: ScalarField, chi: ScalarField, spectrum: np.ndarray = None) -> ScalarField:
    """(c0 * chi)(x_i) = h^2 sum_j c0(x_i - x_j) chi(x_j).

    FFT implementation; agrees with the direct double sum to roundoff (the
    dual-route test pins this to 1e-10 relative).  Offsets falling outside
    the kernel grid contribute zero, i.e. the kernel is not wrapped: both
    fields are zero-padded to m x m, m >= 2n - 1, and the result is the
    centred n x n block of the full (2n - 1)^2 convolution.  spectrum is
    `kernel_spectrum(c0)`, computed here when not given; a caller that
    convolves one kernel many times passes it.
    """
    c0.check_same_grid(chi)
    if spectrum is None:
        spectrum = kernel_spectrum(c0)
    n, h = c0.spec.n, c0.spec.h
    m = spectrum.shape[0]
    full = np.fft.irfftn(np.fft.rfftn(chi.values, (m, m), axes=(0, 1)) * spectrum,
                         (m, m), axes=(0, 1))
    lo = (n - 1) // 2
    vals = full[lo:lo + n, lo:lo + n] * (h * h)
    return ScalarField(c0.spec, vals)


# ---------------------------------------------------------------------------
# occupation histories, their kappa distance and the heat-kernel average


@dataclass
class OccupationHistory:
    """Indicator snapshots chi(t_k) on an increasing time grid, extended to
    arbitrary t as a left-continuous step function."""

    times: np.ndarray
    fields: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or len(self.fields) != self.times.size:
            raise ValueError("one indicator field per time required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("history times must be strictly increasing")
        for f in self.fields:
            vals = f.values
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise ValueError("occupation fields must be 0/1 valued")

    @property
    def spec(self) -> GridSpec:
        return self.fields[0].spec

    def index_at(self, t: float) -> int:
        i = bisect.bisect_right(list(self.times), float(t)) - 1
        return min(max(i, 0), len(self.fields) - 1)

    def chi_at(self, t: float) -> ScalarField:
        return self.fields[self.index_at(t)]


def occupation_key(chi: ScalarField) -> bytes:
    """The occupation bits of chi, one per node: an exact key for a 0/1
    field (OccupationHistory checks that its fields are), on one grid."""
    return np.packbits(chi.values != 0.0).tobytes()


def constant_history(chi: ScalarField, times) -> OccupationHistory:
    return OccupationHistory(np.asarray(times, dtype=np.float64),
                             [chi] * len(np.asarray(times)))


def kappa(chi1: ScalarField, chi2: ScalarField) -> float:
    """L1 distance h^2 sum |chi1 - chi2| between two indicator fields."""
    chi1.check_same_grid(chi2)
    h = chi1.spec.h
    return float(h * h * np.abs(chi1.values - chi2.values).sum())


def gauss_average(spec: GridSpec, x: np.ndarray, tau: float):
    """The unit-mass discrete average against the heat kernel
    G(x - ., tau) ~ exp(-|x - .|^2 / (4 tau)), as a function of the field;
    the weights and their sum are built once, here."""
    if tau <= spec.h**2 / 16.0:
        # sharper than the grid: use the delta limit at the nearest node
        L = spec.half_extent
        ix = int(np.clip(np.round((x[0] + L) / spec.h), 0, spec.n - 1))
        iy = int(np.clip(np.round((x[1] + L) / spec.h), 0, spec.n - 1))
        return lambda diff: float(diff[iy, ix])
    ax = spec.axis()
    gx = np.exp(-((x[0] - ax) ** 2) / (4.0 * tau))
    gy = np.exp(-((x[1] - ax) ** 2) / (4.0 * tau))
    w = np.outer(gy, gx)
    total = w.sum()
    return lambda diff: float((w * diff).sum() / total)


# ---------------------------------------------------------------------------
# speed laws


class SpeedLaw:
    """A coupling's speed law, written once per stored interval.

    interval_speed(chi, t0, t1, state) returns (speed, state at t1), built
    from the occupation chi = chi(t0) and the law's state at t0 (None for
    laws without memory).  speed(t) is the speed at a time t of [t0, t1]: a
    float for a spatially constant speed, else a ScalarField.  `solve`
    calls it once per step.  `weak.march_solve` calls interval_speed
    interval by interval, with its own chi(t0) or with chi(t0) read from a
    given occupation history.

    A law without memory that reads chi (dislocation, and volume unless
    beta is constant) builds its speed once per distinct occupation of the
    law object: `memo_speed` keeps every speed it built, keyed on the grid
    and `occupation_key(chi)`, for the life of the object, which a run
    builds once.  A stored speed field is read-only.  That holds n^2 floats
    per distinct occupation of a dislocation run.
    """

    chi_independent = False

    def initial_state(self, spec: GridSpec):
        return None

    @cached_property
    def _speeds(self) -> dict:
        return {}

    def memo_speed(self, chi: ScalarField, build):
        """build(chi), built at the first chi with these occupation bits."""
        key = (chi.spec, occupation_key(chi))
        if key not in self._speeds:
            c = build(chi)
            if isinstance(c, ScalarField):
                c.values.flags.writeable = False
            self._speeds[key] = c
        return self._speeds[key]


# ---------------------------------------------------------------------------
# dislocation coupling


@dataclass
class DislocationCoupling(SpeedLaw):
    """c[chi] = c0 * chi + c1 with unit mobility and isotropic anisotropy."""

    c0: ScalarField
    c1: object = 0.0   # float or ScalarField

    @property
    def chi_independent(self) -> bool:
        return bool(np.all(self.c0.values == 0.0))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The kernel's transform, computed at the first convolution."""
        return kernel_spectrum(self.c0)

    def speed_field(self, chi_t: ScalarField) -> ScalarField:
        out = convolve_kernel(self.c0, chi_t, self.spectrum)
        c1 = self.c1.values if isinstance(self.c1, ScalarField) else float(self.c1)
        return ScalarField(out.spec, out.values + c1)

    def interval_speed(self, chi, t0, t1, state):
        c = self.memo_speed(chi, self.speed_field)
        return (lambda t: c), None


# ---------------------------------------------------------------------------
# fitzhugh-nagumo coupling


@dataclass
class FitzhughNagumoCoupling(SpeedLaw):
    """Speed alpha(v) with v driven by chi through a reaction-diffusion step;
    v is the state carried from one interval to the next."""

    alpha: ScalarMap
    g_plus: ScalarMap
    g_minus: ScalarMap
    v0: object = 0.0   # float or ScalarField

    def __post_init__(self):
        for name, m in (("alpha", self.alpha), ("g_plus", self.g_plus),
                        ("g_minus", self.g_minus)):
            if not np.isfinite([m.lower, m.upper]).all():
                raise ValueError(f"{name} must be a bounded map, got {m}")
        probe = np.linspace(-10.0, 10.0, 401)
        if np.any(self.g_minus(probe) > self.g_plus(probe) + 1e-12):
            raise ValueError("g_minus must not exceed g_plus")

    def initial_state(self, spec: GridSpec) -> ScalarField:
        if isinstance(self.v0, ScalarField):
            return self.v0.copy()
        return constant_field(spec, float(self.v0))

    def interval_speed(self, chi, t0, t1, v):
        v_end = fn_evolve(self, v, chi, t0, t1)

        def speed(t):
            # alpha(v), v linear in time between v(t0) and v(t1)
            if t <= t0:
                vals = v.values
            elif t >= t1:
                vals = v_end.values
            else:
                lam = (t - t0) / (t1 - t0)
                vals = (1.0 - lam) * v.values + lam * v_end.values
            return ScalarField(v.spec, self.alpha(vals))

        return speed, v_end


def _neumann_laplacian(p: np.ndarray, h: float) -> np.ndarray:
    """The five-point Laplacian with zero-flux edges of the interior of p,
    an array padded by one node: p's edges are first set to repeat the
    interior's, as np.pad(mode="edge") would; its corners are not read."""
    v = p[1:-1, 1:-1]
    p[0, 1:-1], p[-1, 1:-1], p[1:-1, 0], p[1:-1, -1] = v[0], v[-1], v[:, 0], v[:, -1]
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * v) / (h * h)


def fn_evolve(
    coupling: FitzhughNagumoCoupling, v: ScalarField, chi: ScalarField,
    t0: float, t1: float,
) -> ScalarField:
    """March v_t = lap v + g+(v) chi + g-(v)(1 - chi) from v(t0) to v(t1)
    with chi frozen.

    Explicit 5-point heat stepping with zero-flux edges, dt limited by
    HEAT_SAFETY * h^2/4.  v is stepped in place inside one edge-padded
    array per call.
    """
    h = v.spec.h
    dt_max = HEAT_SAFETY * h * h / 4.0
    occ = chi.values
    padded = np.empty((v.spec.n + 2, v.spec.n + 2))
    vals = padded[1:-1, 1:-1]
    vals[...] = v.values
    t = t0
    while t < t1:
        remaining = t1 - t
        if remaining <= dt_max * (1.0 + 1e-9):
            dt = remaining
            t_new = t1
        else:
            dt = dt_max
            t_new = t + dt
        source = coupling.g_plus(vals) * occ + coupling.g_minus(vals) * (1.0 - occ)
        vals += dt * (_neumann_laplacian(padded, h) + source)
        t = t_new
    return ScalarField(v.spec, vals.copy())


# ---------------------------------------------------------------------------
# volume coupling


@dataclass
class VolumeCoupling(SpeedLaw):
    """Spatially constant speed beta(area of the occupied set)."""

    beta: ScalarMap

    @property
    def chi_independent(self) -> bool:
        return self.beta.lip == 0.0

    def interval_speed(self, chi, t0, t1, state):
        if self.chi_independent:
            c = self.beta(0.0)
        else:
            c = self.memo_speed(chi, lambda chi_t: volume_speed(self, chi_t))
        return (lambda t: c), None


def volume_speed(coupling: VolumeCoupling, chi_t: ScalarField) -> float:
    """beta evaluated at the marching-squares area of {chi = 1}."""
    return float(coupling.beta(lebesgue_measure(chi_t, 0.5)))


# ---------------------------------------------------------------------------
# constant coupling (plain local problems run through the same pipeline)


@dataclass
class ConstantCoupling(SpeedLaw):
    c: object = 0.0   # float or ScalarField

    chi_independent = True

    def interval_speed(self, chi, t0, t1, state):
        return (lambda t: self.c), None
