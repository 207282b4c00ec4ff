"""Front coupled to a reaction-diffusion field.

The normal speed is alpha(v) where v solves

    v_t = lap v + g+(v) chi + g-(v) (1 - chi),

so occupied territory sources v, v diffuses ahead of the front, and the
front advances into the warmed region: a crude excitable-medium loop.
alpha is a clamped affine map, keeping the speed bounded no matter where v
wanders.  With g+ = 1 and g- = 0 the v field relaxes toward the occupation
indicator smoothed by the heat kernel.

The script prints the front radius and the v range per stored time; both
should grow monotonically on this configuration.
"""

import numpy as np

from frontlab.contour import extract_contour
from frontlab.couplings import (
    FitzhughNagumoCoupling,
    clamp_affine_map,
    constant_map,
    fn_evolve,
)
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec
from frontlab.weak import march_solve

spec = GridSpec(101, 1.5)
init = star_shaped_u0(spec, [(0.0, 0.0)], r0=0.5)
coupling = FitzhughNagumoCoupling(
    alpha=clamp_affine_map(0.4, 0.5, 0.0, 0.8),
    g_plus=constant_map(1.0),
    g_minus=constant_map(0.0),
    v0=0.0,
)

horizon = 0.1
times = np.linspace(0.0, horizon, 6)
sol = march_solve(coupling, init.u0, gamma=0.1, horizon=horizon,
                  output_times=times)
print(f"weak solution by one causal march over {len(times) - 1} intervals")

# replay the v equation along the march's occupation history
v_snaps = [coupling.initial_state(spec)]
for chi, t0, t1 in zip(sol.chi_hist.fields, times, times[1:]):
    v_snaps.append(fn_evolve(coupling, v_snaps[-1], chi, t0, t1))

print("\n      t    radius     v max    speed at front")
alpha = coupling.alpha
for t, snap, v in zip(sol.u_traj.times, sol.u_traj.snapshots, v_snaps):
    verts = extract_contour(snap, 0.0).vertex_array()
    r = float(np.hypot(verts[:, 0], verts[:, 1]).mean())
    band = np.abs(snap.values) < 2 * spec.h
    v_front = float(v.values[band].mean()) if band.any() else 0.0
    print(f"  {t:.3f}   {r:7.4f}   {v.values.max():7.4f}   "
          f"{alpha(v_front):7.4f}")
