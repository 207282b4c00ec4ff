"""Level-set simulation of fronts driven by nonlocal, possibly sign-changing
speeds, plus the quantitative checks that certify each run.

The pieces, bottom up:

- grid: uniform square grids, monotone upwind gradients, curvature,
  cell-coverage measures.
- contour: marching-squares zero contours and their perimeters.
- geometry: star-shaped initial fields with a certified interior-margin
  constant.
- solver: the clamped level-set update for a given speed field.
- couplings: convolution, reaction-diffusion, and volume speed laws, each
  defined per stored interval, and the kappa distance between occupation
  histories.
- weak: the causal march that gives a run its weak solution, Picard
  iteration, and the multi-seed uniqueness probe.
- verify: empirical reports for the interior-margin schedule, gradient
  floor, cone inclusion, perimeter, band measures, fattening, and
  continuous dependence.
- config / presets / runner / cli: scenario files, built-in scenarios,
  artifact emission, and the command line.
"""

# every module but the command line, which `python -m frontlab.cli` runs as
# __main__ and which the package importing it first would load twice
from . import (  # noqa: F401
    config,
    contour,
    couplings,
    errors,
    geometry,
    grid,
    presets,
    runner,
    solver,
    verify,
    weak,
)
