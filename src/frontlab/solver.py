"""Time stepping for u_t = c(x,t)|Du| + gamma * curvature term.

Each step adds the increment of one forward Euler step, the monotone
Godunov advection term plus the Evans-Spruck curvature term K
(`grid.curvature_term`), and clamps to [-1, 1].  With gamma > 0 the step is
semi-implicit in the five-point Laplacian Delta_h with reflecting edges
(Smereka, J. Sci. Comput. 19, 2003):

    u+ = clip((I - dt gamma Delta_h)^-1 [u + dt c|Du| + dt gamma (K - Delta_h u)], -1, 1)
       = clip(u + (I - dt gamma Delta_h)^-1 [dt (c|Du| + gamma K)], -1, 1),

so the explicit increment is solved once, in the cosine basis that
diagonalises Delta_h (`_cosine_basis`).  With gamma = 0 the increment is
added as it is.  Each interval between output times reads the speed c(t)
that a speed law builds for it from the field that starts the interval.
Each step takes dt = min(CFL_SAFETY h / (2 max|c|), CURVATURE_STEP h /
gamma), a share of the explicit bound of the advection term and an
accuracy cap on the curvature term, and `advance` refuses any dt above the
advective bound itself.  Nothing overwrites the far field; a guard aborts
if the zero set ever comes within 4h of the containment ring B(0, L - 2h)
(`grid_ring`) from inside.  One solve updates at most MAX_CELL_UPDATES
nodes, MAX_STEPS explicit steps of a 201-node grid, and a semi-implicit
step counts its solve as well (`step_cost`).
"""

import os
from functools import cached_property, lru_cache

import numpy as np

from .errors import FieldFormatError, FrontEscapeError, StabilityError
from .grid import (
    EPS_DENOM,
    GridSpec,
    ScalarField,
    Workspace,
    central_gradient_norm,
    curvature_term,
    dump_field,
    load_field,
    load_meta,
    meta_text,
    upwind_gradient_norm,
)

# the share of the advective bound h / (2 max|c|) a step takes
CFL_SAFETY = 0.9

# the curvature step cap theta in dt <= theta h / gamma.  The semi-implicit
# step is stable at any dt and its time error is first order.  On
# mean-curvature flow from 1 - |x| at n = 201 to t = 0.18, stored at 25
# times, 0.1 is the largest of theta = 0.025 to 1 at which the error of the
# cone tip stays at its small-step value, 5.6e-4; the area radius then
# misses the exact sqrt(1 - 2t) by at most 3.6e-4
CURVATURE_STEP = 0.1

# the work one solve may do: MAX_STEPS explicit steps of a 201 x 201 grid,
# or MAX_CELL_UPDATES // step_cost(n, gamma) steps of an n x n grid; past it
# solve raises StabilityError
MAX_STEPS = 100_000
MAX_CELL_UPDATES = MAX_STEPS * 201**2

# a semi-implicit step's dense solve costs as much as n^3 / SOLVE_SPLIT
# explicit node updates.  Measured with one BLAS thread on a shared 2-vCPU
# Xeon VM: a semi-implicit step with advection at n = 401, 801 and 1001 took
# as long as n^2 + n^3 / S node updates of the explicit (gamma = 0) step at
# n = 201, S from 57 to 73 over three runs each, median 65
SOLVE_SPLIT = 65

# the shortest span of stored times the Lipschitz growth fit takes
MIN_FIT_SPAN = float(np.sqrt(np.finfo(np.float64).tiny))


def grid_ring(spec: GridSpec) -> float:
    """L - 2h, the largest containment ring the grid holds."""
    return spec.half_extent - 2 * spec.h


def guard_radius(spec: GridSpec) -> float:
    """L - 6h, 4h inside the containment ring: a zero set that reaches a
    node this far out has escaped."""
    return grid_ring(spec) - 4 * spec.h


@lru_cache(maxsize=8)
def ring_masks(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(guard, clear) of spec, read-only and built once per grid: the nodes
    at |x| >= guard_radius, which `front_in_guard` watches, and the nodes of
    B(0, L - 4h), clear of the containment ring, on which the Lipschitz log
    is measured."""
    radius = spec.radius()
    guard = radius >= guard_radius(spec)
    clear = radius <= grid_ring(spec) - 2 * spec.h
    for a in (guard, clear):
        a.setflags(write=False)
    return guard, clear


def front_in_guard(u: ScalarField) -> bool:
    """Whether u >= 0 at a node of the guard band |x| >= guard_radius."""
    return bool(np.any(u.values[ring_masks(u.spec)[0]] >= 0.0))


def max_speed(c: ScalarField | float) -> float:
    """max|c| of a speed field or a spatially constant speed."""
    if isinstance(c, ScalarField):
        return float(max(c.values.max(), -c.values.min()))
    return abs(float(c))


def cfl_timestep(c_max: float, gamma: float, h: float, safety: float = CFL_SAFETY) -> float:
    """min(safety h / (2 max|c|), CURVATURE_STEP h / gamma): a share of the
    explicit bound dt (|c|/h_x + |c|/h_y) <= 1 of the upwind term for
    h_x = h_y = h, with a guarded denominator, capped for gamma > 0."""
    if c_max < 0 or gamma < 0 or h <= 0 or not (0 < safety <= 1):
        raise ValueError("cfl_timestep arguments out of range")
    dt = safety * (h / (2.0 * (c_max + EPS_DENOM)))
    if gamma > 0.0:
        dt = min(dt, CURVATURE_STEP * h / gamma)
    return dt


def step_cost(n: int, gamma: float) -> int:
    """The node updates one step of an n x n grid counts against the work
    budget: n^2 for an explicit step (gamma = 0), and n^2 + n^3 // SOLVE_SPLIT
    for a semi-implicit one."""
    return n**2 + (n**3 // SOLVE_SPLIT if gamma > 0.0 else 0)


def check_work_budget(spec: GridSpec, gamma: float, dt: float, t: float, horizon: float):
    """Raise StabilityError when steps of dt from t to the horizon would
    pass the work budget of a solve of gamma on spec.  With dt the
    curvature step cfl_timestep(0, gamma, h), the largest a solve of gamma
    can take, this needs no field: `runner.run` checks it before building
    one."""
    max_steps = MAX_CELL_UPDATES // step_cost(spec.n, gamma)
    if horizon - t > max_steps * dt:
        raise StabilityError(
            f"at dt={dt:.3e} the march from t={t:.6g} to the horizon "
            f"{horizon:.6g} needs more than {max_steps} steps of the "
            f"{spec.n}^2-node grid, above the budget of {MAX_CELL_UPDATES:.3g} "
            f"node updates"
        )


@lru_cache(maxsize=8)
def _cosine_basis(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V, W, mu) that diagonalise the five-point Laplacian with reflecting
    edges on spec: Delta_h F = V ((W F W^T) * -mu) V^T for a y-major field F.

    Along one axis of n nodes, N = n - 1, the reflecting second difference
    (v[i+1] + v[i-1] - 2 v[i]) / h^2 with v[-1] = v[1] and v[n] = v[n-2] has
    the eigenvectors V[i, k] = cos(pi i k / N), the type-1 cosines, with
    eigenvalues -(4/h^2) sin^2(pi k / (2N)).  V is symmetric, and its
    inverse W[k, i] = w_i V[k, i] / |V_k|^2 has the weights w = 1/2 at the
    two ends and 1 between them, |V_k|^2 = N at k = 0, N and N/2 between.
    mu[k, l] = (4/h^2) (sin^2(pi k / (2N)) + sin^2(pi l / (2N))) >= 0.
    """
    n, h = spec.n, spec.h
    N = n - 1
    i = np.arange(n)
    V = np.cos((np.pi / N) * (np.outer(i, i) % (2 * N)))
    w = np.ones(n)
    w[[0, -1]] = 0.5
    norm = np.full(n, N / 2.0)
    norm[[0, -1]] = N
    W = V * w / norm[:, None]
    s = (4.0 / (h * h)) * np.sin((np.pi / (2 * N)) * i) ** 2
    mu = s[:, None] + s[None, :]
    for a in (V, W, mu):
        a.setflags(write=False)
    return V, W, mu


def _implicit_diffusion(f: np.ndarray, a: float, spec: GridSpec, work: Workspace):
    """Overwrite f with (I - a Delta_h)^-1 f, Delta_h reflecting at the
    edges: four BLAS products and one division in the cosine basis, written
    into the first three scratch arrays of work."""
    V, W, mu = _cosine_basis(spec)
    s0, s1, s2 = work.scratch[:3]
    np.matmul(W, f, out=s0)
    np.matmul(s0, W.T, out=s1)
    np.multiply(mu, a, out=s2)
    s2 += 1.0
    s1 /= s2
    np.matmul(V, s1, out=s0)
    np.matmul(s0, V, out=f)


def advance(
    u: ScalarField,
    c_t: ScalarField | float,
    gamma: float,
    dt: float,
    work: Workspace = None,
) -> ScalarField:
    """One step, semi-implicit for gamma > 0; refuses dt beyond the
    advective CFL bound.

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
    bound = cfl_timestep(c_max, 0.0, spec.h, safety=1.0)
    if dt > bound * (1.0 + 1e-9):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the advective CFL bound {bound:.3e} "
            f"(max|c|={c_max:.3g}, h={spec.h:.3e})"
        )

    work = work or Workspace(spec)
    out = work.fields[u.values is work.fields[0]]
    if c_max == 0.0 and gamma > 0.0:
        # out = curvature * (gamma dt)
        np.multiply(curvature_term(u, work), gamma * dt, out=out)
    else:
        # out = dt * (0 + c |Du| + gamma curvature)
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
    if gamma > 0.0:
        _implicit_diffusion(out, gamma * dt, spec, work)
    out += u.values
    np.clip(out, -1.0, 1.0, out=out)
    return ScalarField(spec, out)


class Trajectory:
    """Snapshots of one evolution at requested output times.

    step_log holds, per stored time, (steps, smallest dt, largest dt) of
    the steps that reached it from the one before, (0, 0.0, 0.0) at t_0; it
    is empty for a trajectory that was loaded.  lipschitz_log, the
    Lipschitz seminorm of every snapshot, is measured on its first read
    unless it is given."""

    def __init__(self, times, snapshots, dt_used, gamma, lipschitz_log=None, step_log=None):
        self.times, self.snapshots, self.dt_used, self.gamma = times, snapshots, dt_used, gamma
        self.step_log = [] if step_log is None else step_log
        if lipschitz_log is not None:
            self.lipschitz_log = lipschitz_log

    @property
    def spec(self) -> GridSpec:
        return self.snapshots[0].spec

    @property
    def far_radius(self) -> float:
        return grid_ring(self.spec)

    @cached_property
    def lipschitz_log(self) -> list:
        """max |Du| by central differences of every snapshot on B(0, L - 4h),
        clear of the containment ring."""
        clear = ring_masks(self.spec)[1]
        work = Workspace(self.spec)
        return [float(central_gradient_norm(u, work)[clear].max()) for u in self.snapshots]


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

    Every step writes into one `grid.Workspace` allocated per call; stored
    snapshots are copies.  The trajectory's Lipschitz log is measured when
    it is first read (`Trajectory.lipschitz_log`), not here.  The
    work budget MAX_CELL_UPDATES allows MAX_CELL_UPDATES // step_cost(n,
    gamma) steps.  The call raises StabilityError before its first step
    when the step at that time would need more steps than that to reach
    the horizon (`check_work_budget`), and when its step count passes
    them.
    """
    spec = u0.spec
    h = spec.h
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    far_radius = grid_ring(spec)
    times = _normalise_output_times(output_times, horizon)

    def check_guard(t):
        if front_in_guard(u):
            raise FrontEscapeError(
                f"zero set reached the containment ring at t={t:.6g} "
                f"(far_radius={far_radius:.4g})"
            )

    work = Workspace(spec)
    if start == 0:
        u = ScalarField(spec, np.clip(u0.values, -1.0, 1.0))
        check_guard(0.0)
        snapshots, dt_used, step_log = [u.copy()], [0.0], [(0, 0.0, 0.0)]
    else:
        if not np.array_equal(resume.times, times) or resume.gamma != gamma:
            raise ValueError("a resumed march needs the output times and gamma it resumes")
        snapshots = resume.snapshots[:start + 1]
        dt_used = resume.dt_used[:start + 1]
        step_log = resume.step_log[:start + 1]
        u = snapshots[-1]
    traj = Trajectory(
        times=times, snapshots=snapshots, dt_used=dt_used, gamma=gamma, step_log=step_log,
    )

    steps, max_steps = 0, MAX_CELL_UPDATES // step_cost(spec.n, gamma)
    t = times[len(snapshots) - 1]
    for t_next in times[len(snapshots):]:
        # the stored snapshot, which no later step overwrites
        speed_on = speed(t, t_next, traj.snapshots[-1])
        first, dt, lo, hi = steps, 0.0, np.inf, 0.0
        while t < t_next:
            c = speed_on(t)
            nominal = cfl_timestep(max_speed(c), gamma, h)
            if steps == 0:
                check_work_budget(spec, gamma, nominal, t, horizon)
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
            u = advance(u, c, gamma, dt, work=work)
            lo, hi = min(lo, dt), max(hi, dt)
        check_guard(t)
        traj.snapshots.append(u.copy())
        traj.dt_used.append(dt)
        traj.step_log.append((steps - first, lo, hi))
    return traj


def regularity_report(traj: Trajectory) -> float:
    """The growth rate K >= 0 of the Lipschitz log, ||Du(t)|| ~ ||Du(0)|| e^{Kt},
    fitted by least squares on its logarithm, which is measured on
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
        fh.write(meta_text({"far_radius": traj.far_radius, "gamma": traj.gamma}, ()))


def load_trajectory(directory) -> Trajectory:
    manifest = os.path.join(directory, "manifest.csv")
    # opened here, so that a missing manifest is a FileNotFoundError naming it
    with open(manifest) as fh:
        try:
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as err:   # a value that is no number, or bytes that are no text
            raise FieldFormatError(f"{manifest}: {err}") from None
    if rows.shape[1] != 4 or not np.all(np.isfinite(rows)):
        raise FieldFormatError(f"{manifest}: expected rows of 4 finite numbers")
    meta, _ = load_meta(os.path.join(directory, "meta.txt"), required=("gamma",), texts=())
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
