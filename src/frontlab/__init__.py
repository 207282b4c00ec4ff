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

from .contour import FrontContour, extract_contour
from .couplings import (
    ConstantCoupling,
    DislocationCoupling,
    FitzhughNagumoCoupling,
    OccupationHistory,
    VolumeCoupling,
    ScalarMap,
    affine_map,
    clamp_affine_map,
    constant_history,
    constant_map,
    convolve_kernel,
    core_ring_kernel,
    disc_bump_kernel,
    gaussian_kernel,
    kappa,
)
from .errors import (
    ConfigError,
    ConstructionError,
    FrontEscapeError,
    FrontlabError,
    GridMismatchError,
    StabilityError,
)
from .geometry import InitCondition, star_shaped_u0
from .grid import (
    GridSpec,
    ScalarField,
    band_measure,
    constant_field,
    field_from_function,
    interpolate,
    lebesgue_measure,
)
from .solver import ConstantSpeed, LocalProblem, Trajectory, solve
from .verify import (
    EtaSchedule,
    VerificationReport,
    eta_empirical,
    key_estimate_report,
)
from .weak import WeakSolution, fixed_point_solve, march_solve, standard_seeds, uniqueness_probe

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstantCoupling",
    "ConstantSpeed",
    "ConstructionError",
    "DislocationCoupling",
    "EtaSchedule",
    "FitzhughNagumoCoupling",
    "FrontContour",
    "FrontEscapeError",
    "FrontlabError",
    "GridMismatchError",
    "GridSpec",
    "InitCondition",
    "LocalProblem",
    "OccupationHistory",
    "ScalarField",
    "ScalarMap",
    "StabilityError",
    "Trajectory",
    "VerificationReport",
    "VolumeCoupling",
    "WeakSolution",
    "affine_map",
    "band_measure",
    "clamp_affine_map",
    "constant_field",
    "constant_history",
    "constant_map",
    "convolve_kernel",
    "core_ring_kernel",
    "disc_bump_kernel",
    "eta_empirical",
    "extract_contour",
    "field_from_function",
    "fixed_point_solve",
    "gaussian_kernel",
    "interpolate",
    "kappa",
    "key_estimate_report",
    "lebesgue_measure",
    "march_solve",
    "solve",
    "standard_seeds",
    "star_shaped_u0",
    "uniqueness_probe",
]
