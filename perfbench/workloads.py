"""The benchmark's workloads: scenario config texts drawn from a seed, and
the radius oracles that guard their accuracy.

The config texts are the benchmark's own copies of the frontlab presets, so
a change to a preset does not silently change what is measured.  The seed
only moves each scenario's initial radius `init.r0` by an offset in [-h, h];
the engine sees nothing but the generated text.
"""

import math
import random
from dataclasses import dataclass

MCF_CIRCLE = """\
# shrinking circle under curvature: radius oracle sqrt(r0^2 - 2t)
name = mcf-circle
grid.n = {n}
grid.L = 1.5
init.kind = circle
init.r0 = {r0!r}
coupling.kind = constant
coupling.c = 0
gamma = 1.0
horizon = {horizon}
output_times = {output_times}
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening
"""

VOLUME_FLOW = """\
# area-limited growth: R' = beta(pi R^2) - gamma / R
name = volume-flow
grid.n = {n}
grid.L = 1.5
init.kind = circle
init.r0 = {r0!r}
coupling.kind = volume
coupling.beta = affine(1,-1)
gamma = 0.05
horizon = {horizon}
output_times = {output_times}
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening, star_shape
gamma_sweep = 0, 0.02, 0.05, 0.1, 0.2
"""

DISLOCATION = """\
# sign-changing convolution kernel: positive core, negative ring
name = dislocation
grid.n = {n}
grid.L = 1.5
init.kind = circle
init.r0 = {r0!r}
coupling.kind = dislocation
coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)
coupling.c1 = 0.2
gamma = 0.1
horizon = {horizon}
output_times = {output_times}
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening, dependence
"""

FITZHUGH_NAGUMO = """\
# speed alpha(v) with v diffusing and reacting to the occupied set
name = fitzhugh-nagumo
grid.n = {n}
grid.L = 1.5
init.kind = circle
init.r0 = {r0!r}
coupling.kind = fitzhugh_nagumo
coupling.alpha = clamp_affine(0.4,0.5,0,0.8)
coupling.g_plus = constant(1)
coupling.g_minus = constant(0)
coupling.v0 = 0.0
gamma = 0.1
horizon = {horizon}
output_times = {output_times}
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening
"""

UNIQUENESS_PROBE = """\
# same front from three occupation guesses; gaps must close to grid scale
name = uniqueness-probe
grid.n = {n}
grid.L = 1.5
init.kind = circle
init.r0 = {r0!r}
coupling.kind = dislocation
coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)
coupling.c1 = 0.2
gamma = 0.1
horizon = {horizon}
output_times = {output_times}
checks = none
probe.enabled = true
probe.seeds = bracket, empty, ball
"""

HALF_EXTENT = 1.5
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Template:
    """One scenario of a workload before the seed picks its r0."""

    name: str
    text: str
    n: int
    r0: float
    horizon: float
    output_times: int
    oracle: str = None        # "mcf", "volume" or None
    gamma: float = 0.0
    # largest accepted |final radius - oracle|, as a share of the oracle's
    # own displacement |oracle - r0|; a front that never moves scores 1
    tolerance: float = 0.0


# Each workload runs its scenarios one after another, then re-verifies each
# run directory.  Sizes are chosen so one pass takes a few seconds on a
# 2-core machine; BENCHMARK.json says why each workload is there.
#
# The tolerances sit well above the measured errors (at most 0.0003 of the
# displacement on mcf-circle and 0.022 on volume-flow, over the seeds' r0
# range) and far below the 1 of a frozen front.  volume-flow starts at
# r0 = 0.4, not the preset's 0.5: at n=49 the preset's r0 +- h straddles the
# equilibrium radius (about 0.537) of R' = 1 - pi R^2 - gamma / R, where the
# front barely moves and no oracle can tell a frozen front from a right one.
# From 0.4 +- h the radius grows by 0.045 to 0.111.
WORKLOADS = {
    "local-curvature": [
        Template("mcf-circle", MCF_CIRCLE, n=201, r0=1.0, horizon=0.012,
                 output_times=3, oracle="mcf", gamma=1.0, tolerance=0.05),
    ],
    "coupled-picard": [
        Template("volume-flow", VOLUME_FLOW, n=49, r0=0.4, horizon=0.3,
                 output_times=13, oracle="volume", gamma=0.05, tolerance=0.1),
        Template("dislocation", DISLOCATION, n=49, r0=0.5, horizon=0.15,
                 output_times=13),
        Template("fitzhugh-nagumo", FITZHUGH_NAGUMO, n=49, r0=0.5, horizon=0.15,
                 output_times=13),
        Template("uniqueness-probe", UNIQUENESS_PROBE, n=49, r0=0.5, horizon=0.15,
                 output_times=13),
    ],
}


@dataclass(frozen=True)
class Scenario:
    """A scenario with its seeded r0 and the exact config text the engine
    receives."""

    template: Template
    r0: float
    text: str

    @property
    def name(self) -> str:
        return self.template.name

    def expected_radius(self):
        """The oracle's final radius, or None for scenarios without one."""
        t = self.template
        if t.oracle == "mcf":
            return math.sqrt(self.r0 ** 2 - 2.0 * t.horizon)
        if t.oracle == "volume":
            return volume_radius_rk4(self.r0, t.gamma, t.horizon)
        return None


def grid_step(n: int) -> float:
    return 2.0 * HALF_EXTENT / (n - 1)


def scenarios(workload: str, seed: int, pass_index: int = 0, n: int = None) -> list:
    """The workload's scenarios for one pass of a seeded run.

    Each scenario's r0 offset walks [-h, h] in a golden-ratio sequence from a
    start the seed draws, so the passes of one run spread evenly over the
    offsets and a run's median does not hinge on one draw.  `n` overrides
    every grid size (the benchmark's own tests use it for tiny grids)."""
    rng = random.Random(seed)
    out = []
    for tpl in WORKLOADS[workload]:
        size = n or tpl.n
        frac = (rng.random() + pass_index * GOLDEN) % 1.0
        r0 = tpl.r0 + (2.0 * frac - 1.0) * grid_step(size)
        text = tpl.text.format(n=size, r0=r0, horizon=tpl.horizon,
                               output_times=tpl.output_times)
        out.append(Scenario(tpl, r0, text))
    return out


def volume_radius_rk4(r0: float, gamma: float, horizon: float, steps: int = 3000) -> float:
    """RK4 for R' = beta(pi R^2) - gamma / R with beta(a) = 1 - a."""

    def f(r):
        return (1.0 - math.pi * r * r) - gamma / r

    dt = horizon / steps
    r = r0
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return r
