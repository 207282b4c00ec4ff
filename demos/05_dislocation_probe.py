"""Dislocation-style nonlocal speed and the uniqueness probe.

The speed is c(x, t) = c1 + (c0 * chi(t))(x) with a sign-changing
convolution kernel (positive core, negative ring): occupied territory
attracts nearby front at short range and repels it at ring distance.
Non-monotone speeds fall outside comparison-principle uniqueness, so the
engine probes instead: solve the same initial front from several occupation
guesses by Picard iteration and check that the trajectories collapse onto
one front, the one the causal march gives.  The gap at the earliest probe
time must fall under 4 * Lip(u0) * h.
"""

from frontlab.couplings import DislocationCoupling, core_ring_kernel
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec
from frontlab.weak import uniqueness_probe

spec = GridSpec(101, 1.5)
init = star_shaped_u0(spec, [(0.0, 0.0)], r0=0.5)
kernel = core_ring_kernel(spec, core_mass=1.3, core_rho=0.15,
                          ring_mass=-0.3, ring_inner=0.15, ring_outer=0.3)
coupling = DislocationCoupling(c0=kernel, c1=0.2)

print(f"kernel: core mass +1.3 in |x| <= 0.15, ring mass -0.3 in "
      f"(0.15, 0.3], drift c1 = 0.2")

result = uniqueness_probe(coupling, init.u0, gamma=0.1, horizon=0.1,
                          lipschitz=init.lipschitz, R0=init.R0)

print(f"seeds: {', '.join(result.seeds)}")
for name, sol in zip(result.seeds, result.solutions):
    resid = sol.residual_history[-1]
    print(f"  {name:>8}: {sol.iterations} Picard iterations, final residual "
          f"{resid:.2e}, converged = {sol.converged}, "
          f"max |u - u_march| {result.march_gaps[name]:.2e}")

print(f"\nuniqueness tolerance 4*Lip*h = {result.uniq_tol:.5f}")
print("pairwise max |u_i - u_j| up to tau:")
print("   seed i    seed j      tau      delta")
for si, sj, tau, delta, _ in result.rows:
    mark = "" if delta <= result.uniq_tol else "   <-- above tolerance"
    print(f"  {si:>8}  {sj:>8}   {tau:.4f}   {delta:.2e}{mark}")
print(f"\nprobe verdict: {'unique front' if result.passed else 'SPLIT'}")
