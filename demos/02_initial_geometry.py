"""Star-shaped initial data and its margin certificate.

star_shaped_u0 builds a clamped signed distance to hull(B(0,r0), kernels)
and certifies the interior-ball margin on the grid: the largest band
half-width delta0 from the ladder {0.2, 0.1, 0.05} for which the
directional difference quotient

    (u0(x + lambda nu(x)) - u0(x)) / lambda  >=  eta0   on {|u0| < delta0}

clears eta0 >= r0/2, with step lambda0 limited by the direction field norms,
exact for nu = -x: ||nu||_inf = |(L, L)| and Lip nu = 1.
The push test below re-checks the certificate directly with the verifiers'
margin measurement: pushing band points by lambda nu must raise u0 by at
least lambda * eta0 - grid slack.
"""

from frontlab.geometry import nu_sup_norm, star_shaped_u0, verify_I1, verify_I2
from frontlab.grid import GridSpec
from frontlab.verify import eta_empirical

spec = GridSpec(129, 1.5)

for label, kernels, r0 in (
    ("circle", [(0.0, 0.0)], 0.6),
    ("peanut", [(0.4, 0.0), (-0.4, 0.0)], 0.35),
    ("three-lobe", [(0.35, 0.0), (-0.2, 0.3), (-0.2, -0.3)], 0.3),
):
    init = star_shaped_u0(spec, kernels, r0=r0)
    print(f"{label}:")
    print(f"  delta0 = {init.delta0}, eta0 = {init.eta0:.4f} "
          f"(required >= r0/2 = {r0 / 2:.3f})")
    print(f"  lambda0 = {init.lambda0:.4f}, Lipschitz seminorm "
          f"{init.lipschitz:.3f}")
    print(f"  nu sup-norm {nu_sup_norm(spec):.3f}, Dnu sup-norm 1 (exact)")

    ok1 = verify_I1(init)
    ok2, worst = verify_I2(init)
    print(f"  I1 (unit-slope profile): {'ok' if ok1 else 'VIOLATED'}")
    print(f"  I2 (margin certificate): {'ok' if ok2 else 'VIOLATED'}, "
          f"worst slack {worst:+.2e}")

    # direct push test at half the certified step
    lam = 0.5 * init.lambda0
    gain = eta_empirical(init.u0, init, lambdas=[lam], band_width=init.delta0)
    print(f"  push quotient on band: min {gain:.4f} "
          f"vs eta0 = {init.eta0:.4f}\n")
