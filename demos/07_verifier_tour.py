"""Tour of the quantitative verifiers on one trajectory.

A growing circle (c = 1, slight curvature smoothing) is solved once, then
every trajectory-based check runs against it:

  key_estimate   directional margin eta_emp(t) and its decay fit
  lower_gradient min |Du| over the tracking band vs eta(t)/||nu||
  cone           interior cone containment at contour points
  perimeter      co-area bound and the initial-perimeter doubling cap
  band_measure   linearity of |{a < u < b}| in the band width
  non_fattening  zero-set measure intercept as the band width -> 0
  star_shape     radial monotonicity along nu

Each returns rows (t, measured, bound, margin); a check passes when every
margin is nonnegative.  The flipped-axis cone run at the end must fail:
a verifier that cannot reject anything verifies nothing.
"""

import numpy as np

from frontlab.couplings import ConstantCoupling
from frontlab.geometry import star_shaped_u0
from frontlab.grid import GridSpec
from frontlab.solver import regularity_report
from frontlab.verify import (
    band_measure_report,
    cone_report,
    fattening_report,
    key_estimate_report,
    lower_gradient_report,
    perimeter_report,
    star_shape_report,
)
from frontlab.weak import march_solve

spec = GridSpec(101, 1.5)
init = star_shaped_u0(spec, [(0.0, 0.0)], r0=0.5)
sol = march_solve(ConstantCoupling(1.0), init.u0, gamma=0.02,
                  horizon=0.25, output_times=np.linspace(0, 0.25, 11))
traj = sol.u_traj

K_fit = regularity_report(traj)
print(f"regularity: Lipschitz growth fit K = {K_fit:.3f}")

sched, key = key_estimate_report(traj, init)
print(f"\neta schedule: eta0 = {sched.eta0:.4f}, M2 = {sched.M2:.4f}, "
      f"t_bar = {sched.t_bar:.3f}")
t_bar = key.constants["t_bar_emp"]

reports = [
    key,
    lower_gradient_report(traj, init, sched, t_bar=t_bar),
    cone_report(traj, init, sched, K_fit, t_bar=t_bar),
    perimeter_report(traj, init, sched, K_fit, t_bar=t_bar),
    band_measure_report(traj, init, sched, t_bar=t_bar),
    fattening_report(traj, init, t_bar=t_bar),
    star_shape_report(traj, init),
]
for rep in reports:
    print(f"  {rep.verdict_line():<22} min margin {rep.min_margin():+.4f}, "
          f"{len(rep.rows)} rows")

print("\nadversarial control (cone axis negated):")
flipped = cone_report(traj, init, sched, K_fit, t_bar=t_bar,
                      flip_axis=True)
frac = flipped.constants["failure_fraction"]
print(f"  {flipped.verdict_line()}  failure fraction {frac:.0%}")
