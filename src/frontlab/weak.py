"""Weak solutions of coupled front evolutions, by one causal march.

A weak solution pairs a level-set trajectory u with the occupation history
chi(t) = 1_{u(t) >= 0} and is a fixed point of chi -> u[c(chi)] -> 1_{u>=0}.
Every speed law reads chi only at the start t_k of each stored interval
[t_k, t_{k+1}] (`couplings.SpeedLaw`), so the discrete fixed point comes
out of a single forward march: solve each interval with the speed built
from the march's own chi(t_k), carrying the law's state (the
fitzhugh-nagumo field v) to the next interval.  `march_solve` does this,
and runs and the star-shape gamma sweep use it.  For a coupling lagged in
time, windowed waveform relaxation (Lelarasmee, Ruehli &
Sangiovanni-Vincentelli, IEEE TCAD 1982) reaches its limit in this one
sweep.

The same march, given an occupation history, reads chi_hist(t_k) in place
of its own chi(t_k): that is a solve with the occupation frozen along the
history.  Feeding the march's own history back this way replays it bit for
bit, and Picard iteration is this frozen march repeated,

    u^{k+1} = march frozen along chi^k,   chi^{k+1} = 1_{u^{k+1} >= 0},

stopping when sup_t kappa(chi^{k+1}(t), chi^k(t)) is at most 4 h^2, about
four grid cells of disagreement, or after 12 steps (PICARD_TOL_CELLS,
PICARD_MAX_ITER).  It is kept for the uniqueness probe only: it starts from
any chi^0 guess, and the probe checks that every guess lands on the march.
That discrete fixed point is unique by causality: interval k reads only
chi(t_0..t_k), and chi(t_0) = 1_{u0 >= 0}, so by induction over the
intervals every fixed point is the march.  The probe thus checks that
Picard converges to it within the stop; it cannot find a second solution,
and its PASS is no evidence for the paper's uniqueness theorem.
Couplings that ignore chi build bitwise-identical speeds from every history,
so such Picard runs stop after one solve with a recorded residual of 0.

Interval k of a frozen march depends only on the inputs chi(t_0..t_k) once
the coupling, u0, gamma and the stored times are fixed, and the march lands
exactly on every t_k.  So a Picard step resumes from the longest input
prefix, compared bitwise by `couplings.occupation_key`, that an earlier
march of the probe already solved, and steps only the intervals after it;
the probe's memo of finished marches starts with the causal march itself.
This is the window by window growth of the exact prefix in waveform
relaxation, and it changes no float.
"""

from dataclasses import dataclass

import numpy as np

from .couplings import OccupationHistory, constant_history, kappa, occupation_key
from .grid import ScalarField, central_gradient_norm
from .solver import Trajectory, _normalise_output_times, solution_gaps, solve

# the Picard stop: sup_t kappa(chi^{k+1}(t), chi^k(t)) <= PICARD_TOL_CELLS h^2,
# or PICARD_MAX_ITER steps
PICARD_TOL_CELLS = 4.0
PICARD_MAX_ITER = 12


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
    for bit, which is why the uniqueness probe keys its memo of the march's
    solves on it; no verifier reads it.  The march builds its speed from its
    own snapshots, so there the two are one history; a converged Picard run
    has them within the Picard stop in kappa, not necessarily bitwise.
    states holds the coupling's state (fitzhugh-nagumo's v, None for laws
    without memory) at every stored time.
    """

    u_traj: Trajectory
    chi_hist: OccupationHistory
    chi_source: OccupationHistory
    iterations: int
    residual_history: list
    converged: bool
    states: list

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


def _times(output_times, horizon: float) -> np.ndarray:
    if output_times is None:
        output_times = np.linspace(0.0, horizon, 13)
    return _normalise_output_times(output_times, horizon)


@dataclass
class _Solved:
    """What resuming a later frozen march needs from a finished one: the
    packed input chi(t_k) of every interval, and the trajectory and the
    coupling state at every stored time."""

    keys: list
    traj: Trajectory
    states: list


def _resume_point(memo: list, keys: list):
    """The memo entry sharing the longest input prefix with keys, and the
    number m of intervals in that prefix (0 when none is shared)."""
    best, best_m = None, 0
    for entry in memo:
        m = 0
        while m < len(keys) and entry.keys[m] == keys[m]:
            m += 1
        if m > best_m:
            best, best_m = entry, m
    return best, best_m


def march_solve(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    output_times=None,
    chi_hist: OccupationHistory = None,
    memo: list = None,
) -> WeakSolution:
    """Solve interval by interval, carrying the coupling's state.

    Interval [t_k, t_{k+1}] reads the speed the coupling builds from
    chi(t_k): the march's own 1_{u(t_k) >= 0}, which gives the weak
    solution in one sweep (one iteration, residual 0, converged), or
    chi_hist.fields[k] when a history is given, which is one Picard step
    with the occupation frozen along it.  Then chi_source is chi_hist
    (resampled onto the output times) and the residual is
    sup_k kappa(chi_hist(t_k), 1_{u(t_k) >= 0}), converged only at 0.

    memo, for a frozen march, is a list of finished marches of the same
    coupling, u0, gamma and stored times (see `uniqueness_probe`):
    the march resumes where its inputs first differ, bitwise, from those of
    the entry sharing the longest prefix with them, and is then added to it.
    """
    spec = u0.spec
    times = _times(output_times, horizon)
    states = [coupling.initial_state(spec)]
    resume, start = None, 0
    if chi_hist is not None:
        chi_hist = _resample_history(chi_hist, times)
        if memo is not None:
            keys = [occupation_key(f) for f in chi_hist.fields[:-1]]
            entry, start = _resume_point(memo, keys)
            if start:
                resume, states = entry.traj, entry.states[:start + 1]

    def speed(t0, t1, u):
        k = len(states) - 1
        chi = chi_from_u(u) if chi_hist is None else chi_hist.fields[k]
        speed_on, state = coupling.interval_speed(chi, float(t0), float(t1), states[k])
        states.append(state)
        return speed_on

    traj = solve(u0, speed, gamma, horizon, times, resume=resume, start=start)
    own = _history_from_traj(traj)
    if chi_hist is None:
        chi_hist, residual = own, 0.0
    else:
        residual = max(kappa(a, b) for a, b in zip(own.fields, chi_hist.fields))
        if memo is not None:
            memo.append(_Solved(keys, traj, states))
    return WeakSolution(
        u_traj=traj, chi_hist=own, chi_source=chi_hist,
        iterations=1, residual_history=[residual], converged=residual == 0.0,
        states=states,
    )


def reuses_march(traj: Trajectory, gamma: float, horizon: float, output_times=None) -> bool:
    """True when traj, the trajectory of a causal march of the same coupling
    and u0, is the march these arguments solve: same gamma and stored times."""
    return traj.gamma == gamma and np.array_equal(traj.times, _times(output_times, horizon))


def fixed_point_solve(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    chi_init: OccupationHistory = None,
    output_times=None,
    memo: list = None,
) -> WeakSolution:
    """Picard iteration on the occupation history, from chi_init (default:
    the bracket of u0 held constant in time); each step is a `march_solve`
    frozen along the previous iterate's history.  The uniqueness probe runs
    it from several guesses; a single run uses the plain march.

    output_times fixes the time grid shared by all iterates (0 and the
    horizon are always included); chi_init is resampled onto it.  It stops
    at the Picard stop (PICARD_TOL_CELLS, PICARD_MAX_ITER).  With a memo,
    every step resumes from it and extends it (see `march_solve`).
    """
    tol = PICARD_TOL_CELLS * u0.spec.h**2
    times = _times(output_times, horizon)
    chi_hist = chi_init
    if chi_hist is None:
        chi_hist = constant_history(chi_from_u(u0), times)

    residual_history = []
    for _ in range(PICARD_MAX_ITER):
        sol = march_solve(
            coupling, u0, gamma, horizon, output_times=times, chi_hist=chi_hist, memo=memo,
        )
        chi_hist = sol.chi_hist
        # a chi-independent law rebuilds the identical speed from any
        # history, so the next iterate would equal this one bitwise
        residual = 0.0 if coupling.chi_independent else sol.residual_history[0]
        residual_history.append(residual)
        if residual <= tol:
            break

    return WeakSolution(
        u_traj=sol.u_traj, chi_hist=sol.chi_hist, chi_source=sol.chi_source,
        iterations=len(residual_history), residual_history=residual_history,
        converged=residual <= tol, states=sol.states,
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

    march_gaps[seed] is the sup over stored times of |u_seed - u_march|,
    against the causal march: the probe's claim is that Picard from every
    seed converges to the march.
    """

    seeds: list
    solutions: list
    rows: list
    uniq_tol: float
    passed: bool
    march_gaps: dict


def default_taus(horizon: float) -> list:
    """The probe's comparison times when a config sets no probe.taus."""
    return [horizon / 4.0, horizon / 2.0, horizon]


def uniqueness_probe(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    seeds: dict = None,
    taus=None,
    output_times=None,
    lipschitz: float = None,
    R0: float = None,
    march: WeakSolution = None,
) -> ProbeResult:
    """Run fixed_point_solve from several chi^0 guesses, compare the
    resulting level-set trajectories pairwise and with the causal march.

    A unique weak solution means all guesses land on the same front, so the
    u gaps at the early prefix must shrink to grid scale.  march, the causal
    march of the same coupling and u0 (a run's own), is used when its gamma
    and stored times are the probe's; otherwise the probe marches.
    The seeds run in order on one memo of finished marches that starts with
    the march, so each Picard step resumes from the longest input prefix any
    earlier march solved.
    """
    spec = u0.spec
    if taus is None:
        taus = default_taus(horizon)
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

    if march is None or not reuses_march(march.u_traj, gamma, horizon, times):
        march = march_solve(coupling, u0, gamma, horizon, output_times=times)
    keys = [occupation_key(f) for f in march.chi_source.fields[:-1]]
    memo = [_Solved(keys, march.u_traj, march.states)]
    solutions = [
        fixed_point_solve(
            coupling, u0, gamma, horizon, chi_init=hist, output_times=times, memo=memo,
        )
        for hist in histories
    ]
    march_gaps = {
        name: float(solution_gaps(sol.u_traj, march.u_traj).max())
        for name, sol in zip(names, solutions)
    }

    if lipschitz is None:
        lipschitz = float(central_gradient_norm(u0).max())
    uniq_tol = 4.0 * lipschitz * spec.h

    stored = solutions[0].u_traj.times
    rows = []
    passed = True
    tau_first = min(taus)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            gaps = solution_gaps(solutions[i].u_traj, solutions[j].u_traj)
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

    return ProbeResult(names, solutions, rows, uniq_tol, passed, march_gaps)

