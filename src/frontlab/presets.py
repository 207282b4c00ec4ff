"""Built-in scenarios.

Six presets are single scenario configs; verify-all is a batch of scaled-down
(129 grid) variants of every scenario plus the uniqueness probe and the
frozen-occupation dependence experiment, sized to finish within a few
minutes on desk hardware.
"""

from .config import _split_lines

MCF_CIRCLE = """\
# shrinking circle under curvature: radius oracle sqrt(1 - 2t)
name = mcf-circle
grid.n = 201
grid.L = 1.5
init.kind = circle
init.r0 = 1.0
coupling.kind = constant
coupling.c = 0
gamma = 1.0
horizon = 0.18
output_times = 25
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening
output_dir = out/mcf-circle
"""

CONSTANT_SPEED = """\
# uniform outward drive: radius oracle r0 + t
name = constant-speed
grid.n = 201
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = constant
coupling.c = 1.0
gamma = 0.0
horizon = 0.4
output_times = 25
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening
output_dir = out/constant-speed
"""

VOLUME_FLOW = """\
# area-limited growth: R' = beta(pi R^2) - gamma / R
name = volume-flow
grid.n = 201
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = volume
coupling.beta = affine(1,-1)
gamma = 0.05
horizon = 0.3
output_times = 25
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening, star_shape
gamma_sweep = 0, 0.02, 0.05, 0.1, 0.2
output_dir = out/volume-flow
"""

DISLOCATION = """\
# sign-changing convolution kernel: positive core, negative ring
name = dislocation
grid.n = 161
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = dislocation
coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)
coupling.c1 = 0.2
gamma = 0.1
horizon = 0.15
output_times = 13
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening, dependence
output_dir = out/dislocation
"""

FITZHUGH_NAGUMO = """\
# speed alpha(v) with v diffusing and reacting to the occupied set
name = fitzhugh-nagumo
grid.n = 129
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = fitzhugh_nagumo
coupling.alpha = clamp_affine(0.4,0.5,0,0.8)
coupling.g_plus = constant(1)
coupling.g_minus = constant(0)
coupling.v0 = 0.0
gamma = 0.1
horizon = 0.15
output_times = 13
checks = key_estimate, lower_gradient, cone, perimeter, band_measure, non_fattening
output_dir = out/fitzhugh-nagumo
"""

UNIQUENESS_PROBE = """\
# same front from three occupation guesses; gaps must close to grid scale
name = uniqueness-probe
grid.n = 161
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = dislocation
coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)
coupling.c1 = 0.2
gamma = 0.1
horizon = 0.15
output_times = 13
checks = none
probe.enabled = true
probe.seeds = bracket, empty, ball
output_dir = out/uniqueness-probe
"""

_PRESET_TEXTS = {
    "mcf-circle": MCF_CIRCLE,
    "constant-speed": CONSTANT_SPEED,
    "volume-flow": VOLUME_FLOW,
    "dislocation": DISLOCATION,
    "fitzhugh-nagumo": FITZHUGH_NAGUMO,
    "uniqueness-probe": UNIQUENESS_PROBE,
}

VERIFY_ALL = "verify-all"


def list_presets() -> list:
    return sorted(_PRESET_TEXTS) + [VERIFY_ALL]


def preset_text(name: str) -> str:
    if name not in _PRESET_TEXTS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    return _PRESET_TEXTS[name]


# the desk scale of `_scaled`
_SCALED_N = 129
_SCALED_OUTPUT_TIMES = 13


def _scaled(text: str) -> str:
    """Desk-scale variant of a preset: coarser grid, fewer stored times."""
    keys = {lineno: key for lineno, key, _ in _split_lines(text)}
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        key = keys.get(lineno, "")
        if key == "grid.n":
            lines.append(f"grid.n = {_SCALED_N}")
        elif key == "output_times":
            lines.append(f"output_times = {_SCALED_OUTPUT_TIMES}")
        elif key == "name":
            lines.append(f"{line}-{_SCALED_N}")
        elif key == "output_dir":
            continue
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def verify_all_configs() -> list:
    """(name, config text) pairs for the batch preset, already scaled."""
    ordered = [
        "mcf-circle",
        "constant-speed",
        "volume-flow",
        "dislocation",
        "fitzhugh-nagumo",
        "uniqueness-probe",
    ]
    return [(name, _scaled(_PRESET_TEXTS[name])) for name in ordered]
