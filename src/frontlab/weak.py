"""Fixed-point construction of weak solutions for coupled front evolutions.

A weak solution pairs a level-set trajectory u with the occupation history
chi(t) = 1_{u(t) >= 0}.  The circular dependence (chi feeds the speed law,
the speed law moves u) is resolved by Picard iteration with the speed frozen
over the whole horizon:

    u^{k+1} = local solve with speed c[chi^k],   chi^{k+1} = 1_{u^{k+1} >= 0},

stopping when sup_t kappa(chi^{k+1}(t), chi^k(t)) drops below tol (default
4 h^2, about four grid cells of disagreement).  The initial history chi^0
defaults to the time-constant bracket of u0 but can be any guess; the
uniqueness probe exploits exactly that freedom.

Couplings that ignore chi produce bitwise-identical speed providers for
every history, so the iterate after the first solve would repeat it exactly;
such runs stop after one solve with a recorded residual of 0.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .couplings import OccupationHistory, constant_history, kappa
from .grid import ScalarField, central_gradient_norm
from .solver import LocalProblem, Trajectory, _normalise_output_times, default_far_radius, solve


def chi_from_u(u: ScalarField) -> ScalarField:
    """Occupation indicator 1_{u >= 0} as a 0/1 float field (closed-set tie
    convention: nodes with u exactly 0 are occupied)."""
    return ScalarField(u.spec, (u.values >= 0.0).astype(np.float64))


@dataclass
class WeakSolution:
    """Trajectory plus the occupation histories on both sides of the fixed
    point.

    chi_hist brackets the stored snapshots exactly (chi_hist.fields[k] ==
    1_{u(t_k) >= 0} nodewise).  chi_source is the history the final speed
    was built from: feeding it back through the coupling replays u_traj bit
    for bit, which is the reproducibility hook the verifiers rely on.  At
    convergence chi_hist and chi_source agree to within tol in kappa, not
    necessarily bitwise.
    """

    u_traj: Trajectory
    chi_hist: OccupationHistory
    chi_source: OccupationHistory
    iterations: int
    residual_history: list
    converged: bool

    @property
    def spec(self):
        return self.u_traj.spec


def _history_from_traj(traj: Trajectory) -> OccupationHistory:
    return OccupationHistory(traj.times, [chi_from_u(s) for s in traj.snapshots])


def _support_radius(u0: ScalarField) -> float:
    inside = u0.values > -1.0
    if not inside.any():
        return 0.0
    return float(u0.spec.radius()[inside].max())


def _resample_history(hist: OccupationHistory, times: np.ndarray) -> OccupationHistory:
    if hist.times.size == times.size and np.array_equal(hist.times, times):
        return hist
    return OccupationHistory(times, [hist.chi_at(t) for t in times])


def fixed_point_solve(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    chi_init: OccupationHistory = None,
    output_times=None,
    far_radius: float = None,
    tol: float = None,
    max_iter: int = 12,
    eps_reg: float = None,
    cfl_safety: float = 0.45,
) -> WeakSolution:
    """Picard iteration on the occupation history.

    output_times fixes the time grid shared by all iterates (0 and the
    horizon are always included); chi_init is resampled onto it.  tol below
    h^2 is rejected: sub-cell occupation tolerances are meaningless.
    """
    spec = u0.spec
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol is None:
        tol = 4.0 * spec.h**2
    if tol < spec.h**2 * (1.0 - 1e-12):
        raise ValueError(f"tol {tol:g} is below one grid cell h^2 = {spec.h**2:g}")
    if output_times is None:
        output_times = np.linspace(0.0, horizon, 13)
    times = _normalise_output_times(output_times, horizon)

    if chi_init is None:
        chi_hist = constant_history(chi_from_u(u0), times)
    else:
        chi_hist = _resample_history(chi_init, times)

    if far_radius is None:
        probe_provider = coupling.speed_provider(chi_hist)
        c_max = max(probe_provider.max_abs(t) for t in times)
        far_radius = default_far_radius(spec, c_max, horizon, _support_radius(u0))

    residual_history = []
    converged = False
    traj = None
    chi_source = None
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        provider = coupling.speed_provider(chi_hist)
        problem = LocalProblem(
            speed=provider, gamma=gamma, horizon=horizon, far_radius=far_radius,
            spec=spec, eps_reg=eps_reg, cfl_safety=cfl_safety,
        )
        traj = solve(problem, u0, output_times=times)
        chi_new = _history_from_traj(traj)
        chi_source = chi_hist
        chi_hist = chi_new
        if coupling.chi_independent:
            # the next iterate would rebuild the identical provider, so the
            # successor history equals chi_new bitwise and its distance is 0
            residual_history.append(0.0)
            converged = True
            break
        residual = max(
            kappa(a, b) for a, b in zip(chi_new.fields, chi_source.fields)
        )
        residual_history.append(residual)
        if residual <= tol:
            converged = True
            break

    return WeakSolution(
        u_traj=traj, chi_hist=chi_hist, chi_source=chi_source,
        iterations=iterations, residual_history=residual_history,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# uniqueness probe: one front, several initial occupation guesses


def standard_seeds(u0: ScalarField, times, R0: float = None) -> dict:
    """The three stock chi^0 guesses: the bracket of u0 held constant in
    time, the empty history, and the full ball of radius R0."""
    spec = u0.spec
    if R0 is None:
        R0 = _support_radius(u0)
    ones = ScalarField(spec, (spec.radius() <= R0).astype(np.float64))
    zeros = ScalarField(spec, np.zeros((spec.n, spec.n)))
    return {
        "bracket": constant_history(chi_from_u(u0), times),
        "empty": constant_history(zeros, times),
        "ball": constant_history(ones, times),
    }


@dataclass
class ProbeResult:
    """Pairwise solution gaps for several initial occupation guesses.

    rows hold (seed_i, seed_j, tau, delta_tau, kappa_sup): delta_tau is the
    sup-norm difference of the level-set functions over stored times <= tau,
    kappa_sup the largest kappa distance of the occupation histories.  passed
    requires the earliest-tau gap of every pair to stay within uniq_tol =
    4 * ||Du0||_inf * h (one displaced cell expressed on the u scale).
    """

    seeds: list
    solutions: list
    rows: list
    uniq_tol: float
    passed: bool

    def max_delta(self, tau: float) -> float:
        vals = [r[3] for r in self.rows if abs(r[2] - tau) < 1e-12]
        return max(vals) if vals else 0.0


def uniqueness_probe(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    seeds: dict = None,
    taus=None,
    output_times=None,
    far_radius: float = None,
    tol: float = None,
    max_iter: int = 12,
    lipschitz: float = None,
    R0: float = None,
) -> ProbeResult:
    """Run fixed_point_solve from several chi^0 guesses and compare the
    resulting level-set trajectories pairwise.

    A unique weak solution means all guesses land on the same front, so the
    u gaps at the early prefix must shrink to grid scale.  Solves run in
    parallel when FRONTLAB_THREADS > 1; results do not depend on the thread
    count.
    """
    spec = u0.spec
    if taus is None:
        taus = [horizon / 4.0, horizon / 2.0, horizon]
    if output_times is None:
        base = np.linspace(0.0, horizon, 13)
        output_times = np.unique(
            np.concatenate([base, np.asarray(taus, dtype=np.float64)])
        )
    times = _normalise_output_times(output_times, horizon)
    if seeds is None:
        seeds = standard_seeds(u0, times, R0=R0)
    if len(seeds) < 2:
        raise ValueError("uniqueness probe needs at least two seeds")

    names = list(seeds)
    histories = [_resample_history(seeds[k], times) for k in names]

    if far_radius is None:
        c_max = 0.0
        for hist in histories:
            provider = coupling.speed_provider(hist)
            c_max = max(c_max, max(provider.max_abs(t) for t in times))
        far_radius = default_far_radius(spec, c_max, horizon, _support_radius(u0))

    def run(hist):
        return fixed_point_solve(
            coupling, u0, gamma, horizon, chi_init=hist, output_times=times,
            far_radius=far_radius, tol=tol, max_iter=max_iter,
        )

    workers = max(1, int(os.environ.get("FRONTLAB_THREADS", "1")))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solutions = list(pool.map(run, histories))
    else:
        solutions = [run(h) for h in histories]

    if lipschitz is None:
        lipschitz = float(central_gradient_norm(u0).max())
    uniq_tol = 4.0 * lipschitz * spec.h

    stored = solutions[0].u_traj.times
    rows = []
    passed = True
    tau_first = min(taus)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            ti, tj = solutions[i].u_traj, solutions[j].u_traj
            gaps = np.asarray([
                np.abs(a.values - b.values).max()
                for a, b in zip(ti.snapshots, tj.snapshots)
            ])
            kappa_sup = max(
                kappa(a, b)
                for a, b in zip(solutions[i].chi_hist.fields, solutions[j].chi_hist.fields)
            )
            for tau in taus:
                mask = stored <= tau + 1e-12
                delta_tau = float(gaps[mask].max())
                rows.append((names[i], names[j], float(tau), delta_tau, kappa_sup))
                if abs(tau - tau_first) < 1e-12 and delta_tau > uniq_tol:
                    passed = False

    return ProbeResult(names, solutions, rows, uniq_tol, passed)

