"""Explicit time stepping for u_t = c(x,t)|Du| + gamma * curvature term.

The update is forward Euler on the monotone Godunov advection term plus the
central-difference curvature trace (regularised by eps = h), clamped to
[-1, 1], with the far field outside the containment ring B(0, L - 2h)
(`grid_ring`) overwritten to -1 each step.  Each interval between
output times reads the speed c(t) that a speed law builds for it from the
field that starts the interval.  Each step takes
dt = CFL_SAFETY / (2 max|c|/h + 4 gamma/h^2), a share of the explicit bound
for the advection and curvature terms summed over both axes, and `advance`
refuses any dt above the bound itself.  A guard aborts if the zero set ever
comes within 4h of the containment ring from inside, since past that point
the overwrite would be carving the front itself.  One solve updates at most
MAX_CELL_UPDATES nodes, MAX_STEPS steps of a 201-node grid.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldFormatError, FrontEscapeError, StabilityError
from .grid import (
    EPS_DENOM,
    GridSpec,
    ScalarField,
    Workspace,
    central_gradient_norm,
    curvature_term,
    upwind_gradient_norm,
)

# the share of the summed bound a step takes.  Its curvature part,
# h^2/(4 gamma), is the explicit bound of the five-point Laplacian;
# curvature_term, regularised in its denominator only, tends to 0 where
# |Du| << h, and from a flat-topped field it stays stable up to between 2.2
# and 3.3 times this step
CFL_SAFETY = 0.9

# the work one solve may do: MAX_STEPS steps of a 201 x 201 grid, about 28
# times the largest solve of any preset or test (mcf-circle, 3576 steps at
# n = 201), or MAX_CELL_UPDATES // n^2 steps of an n x n grid; past it solve
# raises StabilityError
MAX_STEPS = 100_000
MAX_CELL_UPDATES = MAX_STEPS * 201**2

# the shortest span of stored times the Lipschitz growth fit takes
MIN_FIT_SPAN = float(np.sqrt(np.finfo(np.float64).tiny))


def grid_ring(spec: GridSpec) -> float:
    """L - 2h, the largest containment ring the grid holds."""
    return spec.half_extent - 2 * spec.h


def max_speed(c: ScalarField | float) -> float:
    """max|c| of a speed field or a spatially constant speed."""
    if isinstance(c, ScalarField):
        return float(max(c.values.max(), -c.values.min()))
    return abs(float(c))


def cfl_timestep(c_max: float, gamma: float, h: float, safety: float = CFL_SAFETY) -> float:
    """safety / (2 max|c|/h + 4 gamma/h^2), the explicit bound
    dt (|c|/h_x + |c|/h_y + 2 gamma/h_x^2 + 2 gamma/h_y^2) <= 1 for
    h_x = h_y = h, with a guarded denominator."""
    if c_max < 0 or gamma < 0 or h <= 0 or not (0 < safety <= 1):
        raise ValueError("cfl_timestep arguments out of range")
    return safety * (h / (2.0 * (c_max + EPS_DENOM) + 4.0 * gamma / h))


def check_work_budget(spec: GridSpec, dt: float, t: float, horizon: float):
    """Raise StabilityError when steps of dt from t to the horizon would
    pass the work budget of a solve on spec.  With dt the curvature step
    cfl_timestep(0, gamma, h), the largest a solve of gamma can take, this
    needs no field: `runner.run` checks it before building one."""
    max_steps = MAX_CELL_UPDATES // spec.n**2
    if horizon - t > max_steps * dt:
        raise StabilityError(
            f"at dt={dt:.3e} the march from t={t:.6g} to the horizon "
            f"{horizon:.6g} needs more than {max_steps} steps of the "
            f"{spec.n}^2-node grid, above the budget of {MAX_CELL_UPDATES:.3g} "
            f"node updates"
        )


@lru_cache(maxsize=64)
def _far_mask(spec: GridSpec, far_radius: float) -> np.ndarray:
    mask = spec.radius() > far_radius
    mask.setflags(write=False)
    return mask


def advance(
    u: ScalarField,
    c_t: ScalarField | float,
    gamma: float,
    dt: float,
    far_radius: float | None = None,
    work: Workspace = None,
) -> ScalarField:
    """One explicit Euler step; refuses dt beyond the CFL bound.

    The new field is written into whichever of `work.fields` does not hold
    u, so it lasts until the step after next; without `work` it is a new
    array.
    """
    spec = u.spec
    if isinstance(c_t, ScalarField):
        u.check_same_grid(c_t)
        cvals = c_t.values
    else:
        cvals = float(c_t)
    c_max = max_speed(c_t)
    bound = cfl_timestep(c_max, gamma, spec.h, safety=1.0)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the CFL bound {bound:.3e} (max|c|={c_max:.3g}, "
            f"gamma={gamma:.3g}, h={spec.h:.3e})"
        )

    work = work or Workspace(spec)
    out = work.fields[u.values is work.fields[0]]
    if c_max == 0.0 and gamma > 0.0:
        # out = clip(curvature * (gamma dt) + u, -1, 1)
        np.multiply(curvature_term(u, work), gamma * dt, out=out)
    else:
        # out = clip(u + dt * (0 + c |Du| + gamma curvature), -1, 1)
        out.fill(0.0)
        if c_max > 0.0:
            advection = upwind_gradient_norm(u, cvals, work)
            advection *= cvals
            out += advection
        if gamma > 0.0:
            curvature = curvature_term(u, work)
            curvature *= gamma
            out += curvature
        out *= dt
    out += u.values
    np.clip(out, -1.0, 1.0, out=out)
    if far_radius is not None:
        out[_far_mask(spec, float(far_radius))] = -1.0
    return ScalarField(spec, out)


@dataclass
class Trajectory:
    """Snapshots of one evolution at requested output times."""

    times: np.ndarray
    snapshots: list
    dt_used: list
    lipschitz_log: list
    gamma: float

    @property
    def spec(self) -> GridSpec:
        return self.snapshots[0].spec

    @property
    def far_radius(self) -> float:
        return grid_ring(self.spec)


def _normalise_output_times(output_times, horizon: float) -> np.ndarray:
    raw = [float(t) for t in output_times]
    if any(b < a for a, b in zip(raw, raw[1:])):
        raise ValueError("output times must be nondecreasing")
    times = np.asarray(sorted(set(raw)), dtype=np.float64)
    if times.size and (times[0] < -1e-15 or times[-1] > horizon * (1 + 1e-12)):
        raise ValueError("output times must lie in [0, horizon]")
    if not times.size or times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    if times[-1] < horizon:
        times = np.concatenate([times, [horizon]])
    return times


def solve(
    u0: ScalarField, speed, gamma: float, horizon: float, output_times,
    resume: Trajectory = None, start: int = 0,
) -> Trajectory:
    """March u0 to the horizon, landing exactly on every output time.

    Every interval [t_k, t_{k+1}] between output times calls
    speed(t_k, t_{k+1}, u(t_k)) once, from the field that starts it, so a
    speed law can read the solution it drives (the causal march of
    `weak.march_solve`).  What it returns maps a time t to the speed c(t),
    a ScalarField or a float for a spatially constant speed; each step calls
    it once, at the time the step starts.

    start = m > 0 resumes at the stored time t_m of `resume`, a trajectory
    of this march on the same output times whose first m + 1 stored times
    are taken as they are.  A march lands exactly on t_m, so the steps after
    it are the same floats as in a march from t_0.

    Every step and every Lipschitz seminorm writes into one
    `grid.Workspace` allocated per call; stored snapshots are copies.  Each
    step updates all n^2 nodes, so the work budget MAX_CELL_UPDATES allows
    MAX_CELL_UPDATES // n^2 steps.  The call raises StabilityError before
    its first step when the CFL step at that time would need more steps
    than that to reach the horizon (`check_work_budget`), and when its step
    count passes them.
    """
    spec = u0.spec
    h = spec.h
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    far_radius = grid_ring(spec)
    times = _normalise_output_times(output_times, horizon)

    measure_mask = spec.radius() <= far_radius - 2 * h
    guard_mask = spec.radius() >= far_radius - 4 * h

    def check_guard(t):
        if np.any(u.values[guard_mask] >= 0.0):
            raise FrontEscapeError(
                f"zero set reached the containment ring at t={t:.6g} "
                f"(far_radius={far_radius:.4g})"
            )

    work = Workspace(spec)

    def seminorm():
        return float(central_gradient_norm(u, work)[measure_mask].max())

    if start == 0:
        u = ScalarField(spec, np.clip(u0.values, -1.0, 1.0))
        u.values[_far_mask(spec, far_radius)] = -1.0
        check_guard(0.0)
        snapshots, dt_used, lipschitz_log = [u.copy()], [0.0], [seminorm()]
    else:
        if not np.array_equal(resume.times, times) or resume.gamma != gamma:
            raise ValueError("a resumed march needs the output times and gamma it resumes")
        snapshots = resume.snapshots[:start + 1]
        dt_used = resume.dt_used[:start + 1]
        lipschitz_log = resume.lipschitz_log[:start + 1]
        u = snapshots[-1]
    traj = Trajectory(
        times=times,
        snapshots=snapshots,
        dt_used=dt_used,
        lipschitz_log=lipschitz_log,
        gamma=gamma,
    )

    steps, max_steps = 0, MAX_CELL_UPDATES // spec.n**2
    t = times[len(snapshots) - 1]
    for t_next in times[len(snapshots):]:
        # the stored snapshot, which no later step overwrites
        speed_on = speed(t, t_next, traj.snapshots[-1])
        last_dt = 0.0
        while t < t_next:
            c = speed_on(t)
            nominal = cfl_timestep(max_speed(c), gamma, h)
            if steps == 0:
                check_work_budget(spec, nominal, t, horizon)
            if steps == max_steps:
                raise StabilityError(
                    f"the march passed {max_steps} steps of the {spec.n}^2-node grid "
                    f"({MAX_CELL_UPDATES:.3g} node updates) at t={t:.6g}"
                )
            steps += 1
            remaining = t_next - t
            if remaining <= nominal * (1.0 + 1e-9):
                dt = remaining
                t = t_next
            else:
                dt = nominal
                t += dt
            u = advance(u, c, gamma, dt, far_radius=far_radius, work=work)
            last_dt = dt
        check_guard(t)
        traj.snapshots.append(u.copy())
        traj.dt_used.append(last_dt)
        traj.lipschitz_log.append(seminorm())
    return traj


def regularity_report(traj: Trajectory) -> float:
    """The growth rate K >= 0 of the Lipschitz log, ||Du(t)|| ~ ||Du(0)|| e^{Kt},
    fitted by least squares on its logarithm.  `solve` measures the log on
    B(0, L - 4h), clear of the containment ring."""
    if len(traj.snapshots) < 3:
        raise ValueError("regularity_report needs at least 3 snapshots")
    times = np.asarray(traj.times, dtype=np.float64)
    # the fit scales by the root of the summed squared times, which must not underflow
    if not times[-1] >= MIN_FIT_SPAN:
        raise ValueError(
            f"regularity_report: the stored times end at {times[-1]:.3g}, below "
            f"{MIN_FIT_SPAN:.3g}, whose square is the smallest normal float"
        )
    lip = np.asarray(traj.lipschitz_log, dtype=np.float64)
    slope = np.polyfit(times, np.log(np.maximum(lip, 1e-300) / max(lip[0], 1e-300)), 1)[0]
    return float(max(slope, 0.0))


def solution_gaps(a: Trajectory, b: Trajectory) -> np.ndarray:
    """max |a - b| at every stored time."""
    return np.asarray([
        np.abs(sa.values - sb.values).max() for sa, sb in zip(a.snapshots, b.snapshots)
    ])


# ---------------------------------------------------------------------------
# trajectory serialisation: t_<index>.f64 (see grid.dump_field) plus a
# manifest CSV


def dump_trajectory(traj: Trajectory, directory):
    import os

    from .grid import dump_field

    os.makedirs(directory, exist_ok=True)
    rows = ["index,time,dt_used,lipschitz_seminorm"]
    for i, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        dump_field(snap, os.path.join(directory, f"t_{i:03d}.f64"))
        rows.append(
            f"{i},{t:.17g},{traj.dt_used[i]:.17g},{traj.lipschitz_log[i]:.17g}"
        )
    with open(os.path.join(directory, "manifest.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(directory, "meta.txt"), "w") as fh:
        fh.write(
            f"far_radius = {traj.far_radius:.17g}\n"
            f"gamma = {traj.gamma:.17g}\n"
        )


def load_trajectory(directory) -> Trajectory:
    import os

    from .grid import load_field

    manifest = os.path.join(directory, "manifest.csv")
    try:
        rows = np.loadtxt(manifest, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise FieldFormatError(f"{manifest}: {err}") from None
    if rows.shape[1] != 4 or not np.all(np.isfinite(rows)):
        raise FieldFormatError(f"{manifest}: expected rows of 4 finite numbers")
    meta_path = os.path.join(directory, "meta.txt")
    meta = {}
    try:
        with open(meta_path) as fh:
            for raw in fh:
                key, _, val = raw.partition("=")
                if val:
                    meta[key.strip()] = float(val)
    except ValueError as err:   # a value that is no number, or bytes that are no text
        raise FieldFormatError(f"{meta_path}: {err}") from None
    if "gamma" not in meta:
        raise FieldFormatError(f"{meta_path}: no gamma line")
    snapshots = [
        load_field(os.path.join(directory, f"t_{int(i):03d}.f64")) for i in rows[:, 0]
    ]
    return Trajectory(
        times=rows[:, 1].copy(),
        snapshots=snapshots,
        dt_used=list(rows[:, 2]),
        lipschitz_log=list(rows[:, 3]),
        gamma=meta["gamma"],
    )
