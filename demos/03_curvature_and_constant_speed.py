"""Two flows with exact radial solutions.

Constant normal speed c = 1 moves a circle outward at unit rate,
R(t) = r0 + t.  Pure curvature flow (gamma = 1, c = 0) shrinks it along
R' = -1/R, so R(t) = sqrt(r0^2 - 2t).  Both runs print measured mean
contour radius against the closed form; errors should sit at grid scale.
"""

import argparse

import numpy as np

from frontlab.contour import extract_contour
from frontlab.couplings import ConstantCoupling
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec
from frontlab.weak import march_solve


def mean_radius(snap):
    verts = extract_contour(snap, 0.0).vertex_array()
    return float(np.hypot(verts[:, 0], verts[:, 1]).mean())


def table(sol, exact):
    print("      t   measured      exact    rel err")
    for t, snap in zip(sol.u_traj.times, sol.u_traj.snapshots):
        r, want = mean_radius(snap), exact(t)
        print(f"  {t:.3f}   {r:8.4f}   {want:8.4f}   {abs(r - want) / want:.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=101, help="grid points per axis")
    args = ap.parse_args()

    spec = GridSpec(args.n, 1.5)

    print("constant speed c = 1, r0 = 0.5, T = 0.3")
    init = star_shaped_u0(spec, [(0.0, 0.0)], r0=0.5)
    sol = march_solve(ConstantCoupling(1.0), init.u0, gamma=0.0,
                      horizon=0.3, output_times=np.linspace(0, 0.3, 7))
    table(sol, lambda t: 0.5 + t)

    print("\ncurvature flow gamma = 1, r0 = 0.6, T = 0.1")
    init = star_shaped_u0(spec, [(0.0, 0.0)], r0=0.6)
    sol = march_solve(ConstantCoupling(0.0), init.u0, gamma=1.0,
                      horizon=0.1, output_times=np.linspace(0, 0.1, 6))
    table(sol, lambda t: np.sqrt(0.36 - 2.0 * t))


if __name__ == "__main__":
    main()
