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
sweep.  Every march returns one `March`: the packed input chi(t_k) of each
interval (`couplings.occupation_key`), the trajectory, and the law's state
at every stored time.

The same march, given an occupation history, reads chi_hist(t_k) in place
of its own chi(t_k): that is a solve with the occupation frozen along the
history.  Feeding the march's own history back this way replays it bit for
bit, and Picard iteration (`fixed_point_solve`) is this frozen march
repeated,

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
prefix, compared bitwise by the marches' keys, that an earlier march of the
probe already solved, and steps only the intervals after it; the probe's
memo of finished marches starts with the run's causal march, as it is.
This is the window by window growth of the exact prefix in waveform
relaxation, and it changes no float.
"""

from dataclasses import dataclass

import numpy as np

from .couplings import OccupationHistory, constant_history, kappa, occupation_key
from .grid import ScalarField
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
class March:
    """One march: keys[k] is the packed input chi(t_k) of interval k, and
    states the law's state (fitzhugh-nagumo's v, None for laws without
    memory) at every stored time of u_traj.  A later frozen march that reads
    the same first m inputs resumes from it at t_m."""

    keys: list
    u_traj: Trajectory
    states: list


@dataclass
class WeakSolution:
    """The result of Picard iteration: the last iterate's trajectory, its
    own occupation history (chi_hist.fields[k] == 1_{u(t_k) >= 0} nodewise),
    and the residual of every step."""

    u_traj: Trajectory
    chi_hist: OccupationHistory
    iterations: int
    residual_history: list
    converged: bool


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
    output_times,
    chi_hist: OccupationHistory = None,
    memo: list = None,
) -> March:
    """Solve interval by interval, carrying the coupling's state.

    Interval [t_k, t_{k+1}] reads the speed the coupling builds from
    chi(t_k): the march's own 1_{u(t_k) >= 0}, which gives the weak
    solution in one sweep, or chi_hist.fields[k] when a history on the
    stored times is given, which is one Picard step with the occupation
    frozen along it.

    memo, for a frozen march, is a list of finished marches of the same
    coupling, u0, gamma and stored times (see `uniqueness_probe`):
    the march resumes where its inputs first differ, bitwise, from those of
    the entry sharing the longest prefix with them, and is then added to it.
    """
    times = _normalise_output_times(output_times, horizon)
    states = [coupling.initial_state(u0.spec)]
    keys, resume, start = [], None, 0
    if chi_hist is not None:
        if not np.array_equal(chi_hist.times, times):
            raise ValueError("a frozen march reads its history at the stored times")
        keys = [occupation_key(f) for f in chi_hist.fields[:-1]]
        if memo is not None:
            entry, start = _resume_point(memo, keys)
            if start:
                resume, states = entry.u_traj, entry.states[:start + 1]

    def speed(t0, t1, u):
        k = len(states) - 1
        if chi_hist is None:
            chi = chi_from_u(u)
            keys.append(occupation_key(chi))
        else:
            chi = chi_hist.fields[k]
        speed_on, state = coupling.interval_speed(chi, float(t0), float(t1), states[k])
        states.append(state)
        return speed_on

    march = March(keys, solve(u0, speed, gamma, horizon, times, resume=resume, start=start), states)
    if memo is not None:
        memo.append(march)
    return march


def fixed_point_solve(
    coupling,
    u0: ScalarField,
    gamma: float,
    horizon: float,
    chi_init: OccupationHistory,
    output_times,
    memo: list = None,
) -> WeakSolution:
    """Picard iteration on the occupation history from chi_init, given on
    the stored times; each step is a `march_solve` frozen along the previous
    iterate's history, and its residual is sup_k kappa(chi_in(t_k),
    1_{u(t_k) >= 0}) between the history it read and the one it produced.
    The uniqueness probe runs it from several guesses; a single run uses the
    plain march.

    It stops at the Picard stop (PICARD_TOL_CELLS, PICARD_MAX_ITER).  With
    a memo, every step resumes from it and extends it (see `march_solve`).
    """
    tol = PICARD_TOL_CELLS * u0.spec.h**2
    chi_hist, residuals = chi_init, []
    for _ in range(PICARD_MAX_ITER):
        traj = march_solve(
            coupling, u0, gamma, horizon, output_times, chi_hist=chi_hist, memo=memo,
        ).u_traj
        own = OccupationHistory(traj.times, [chi_from_u(s) for s in traj.snapshots])
        # a chi-independent law rebuilds the identical speed from any
        # history, so the next iterate would equal this one bitwise
        residuals.append(0.0 if coupling.chi_independent else max(
            kappa(a, b) for a, b in zip(own.fields, chi_hist.fields)))
        chi_hist = own
        if residuals[-1] <= tol:
            break
    return WeakSolution(traj, chi_hist, len(residuals), residuals, residuals[-1] <= tol)


# ---------------------------------------------------------------------------
# uniqueness probe: one front, several initial occupation guesses


def standard_seeds(u0: ScalarField, times, R0: float) -> dict:
    """The three stock chi^0 guesses: the bracket of u0 held constant in
    time, the empty history, and the full ball of radius R0."""
    spec = u0.spec
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
    seeds: dict,
    output_times,
    lipschitz: float,
    march: March,
    taus=None,
) -> ProbeResult:
    """Run fixed_point_solve from several chi^0 guesses, compare the
    resulting level-set trajectories pairwise and with the causal march.

    A unique weak solution means all guesses land on the same front, so the
    u gaps at the early prefix must shrink to grid scale.  march is the
    causal march of the same coupling, u0, gamma and stored times (a run's
    own), and lipschitz is ||Du0||_inf.  The seeds run in order on one memo
    of finished marches that starts with the march, so each Picard step
    resumes from the longest input prefix any earlier march solved.
    """
    if taus is None:
        taus = default_taus(horizon)
    if len(seeds) < 2:
        raise ValueError("uniqueness probe needs at least two seeds")
    times = _normalise_output_times(output_times, horizon)
    names = list(seeds)
    memo = [march]
    solutions = [
        fixed_point_solve(
            coupling, u0, gamma, horizon,
            OccupationHistory(times, [seeds[name].chi_at(t) for t in times]), times, memo=memo,
        )
        for name in names
    ]
    march_gaps = {
        name: float(solution_gaps(sol.u_traj, march.u_traj).max())
        for name, sol in zip(names, solutions)
    }
    uniq_tol = 4.0 * lipschitz * u0.spec.h

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
