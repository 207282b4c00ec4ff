"""Volume-dependent speed: the front reacts to its own enclosed area.

With c(t) = beta(area(t)), beta(a) = 1 - a, and a curvature term, a circle
stays a circle and its radius follows the scalar ODE

    R' = beta(pi R^2) - gamma / R.

beta is affine decreasing, so the radius relaxes toward the equilibrium
where growth and curvature balance.  The speed on each stored interval
reads the area at its start, so one causal march over the intervals gives
the weak solution.  The script compares the measured radius with an RK4
integration of the ODE.
"""

import numpy as np

from frontlab.contour import extract_contour
from frontlab.couplings import VolumeCoupling, affine_map
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec
from frontlab.weak import march_solve

R0, GAMMA, T = 0.5, 0.05, 0.3


def rk4_radius(times):
    def f(r):
        return (1.0 - np.pi * r * r) - GAMMA / r

    out, r, t = [R0], R0, times[0]
    for t_next in times[1:]:
        steps = 200
        dt = (t_next - t) / steps
        for _ in range(steps):
            k1 = f(r)
            k2 = f(r + 0.5 * dt * k1)
            k3 = f(r + 0.5 * dt * k2)
            k4 = f(r + dt * k3)
            r += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        out.append(r)
        t = t_next
    return np.asarray(out)


spec = GridSpec(129, 1.5)
init = star_shaped_u0(spec, [(0.0, 0.0)], r0=R0)
coupling = VolumeCoupling(beta=affine_map(1.0, -1.0))

times = np.linspace(0.0, T, 7)
sol = march_solve(coupling, init.u0, GAMMA, T, output_times=times)
print(f"weak solution by one causal march over {len(times) - 1} intervals")

want = rk4_radius(times)
print("      t   measured   ODE(RK4)    rel err")
for i, (t, snap) in enumerate(zip(sol.u_traj.times, sol.u_traj.snapshots)):
    verts = extract_contour(snap, 0.0).vertex_array()
    r = float(np.hypot(verts[:, 0], verts[:, 1]).mean())
    print(f"  {t:.3f}   {r:8.4f}   {want[i]:8.4f}   "
          f"{abs(r - want[i]) / want[i]:.2e}")

eq = np.sqrt((1.0 - GAMMA / want[-1]) / np.pi)
print(f"\nequilibrium estimate from the ODE: R* ~ {eq:.4f}")
