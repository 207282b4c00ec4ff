"""Star-shaped initial data, its margin certificate, and the checks of its
two structural conditions.

Closed forms used below, all for the unit-slope profile u0 = clip(sdist, -1, 1):

* single kernel at the origin gives u0 = clip(r0 - |x|), exactly;
* for that cone the push quotient [u0((1-lam)x) - u0(x)] / lam equals |x|
  wherever the clamp is inactive, so the certified eta0 is the smallest
  |x| in the band {|u0| <= delta0}, i.e. about r0 - delta0;
* the band {|u0| <= delta0/4} used by the empirical margin gives
  eta_emp(0) -> r0 - delta0/4.
"""

import numpy as np
import pytest

from frontlab.errors import ConstructionError
from frontlab.geometry import (
    DELTA0_LADDER,
    dump_init,
    load_init,
    radial_direction,
    star_shaped_u0,
    verify_I1,
    verify_I2,
)
from frontlab.grid import GridSpec, field_from_function
from frontlab.verify import eta_empirical

SPEC = GridSpec(201, 1.5)


@pytest.fixture(scope="module")
def circle():
    return star_shaped_u0(SPEC, [(0.0, 0.0)], 0.6)


@pytest.fixture(scope="module")
def peanut():
    return star_shaped_u0(SPEC, [(0.4, 0.0), (-0.4, 0.0)], 0.3)


def test_circle_is_clamped_radial_cone(circle):
    want = np.clip(0.6 - SPEC.radius(), -1.0, 1.0)
    assert np.array_equal(circle.u0.values, want)


def test_circle_certificate(circle):
    assert circle.delta0 == DELTA0_LADDER[0]
    # band |u0| <= 0.2 starts at |x| = 0.4; the grid margin sits just above
    assert circle.eta0 == pytest.approx(0.4, abs=5e-3)
    assert circle.eta0 >= 0.3  # the r0/2 acceptance line
    # radial nu = -x: sup over the square is L*sqrt(2), Lipschitz 1
    assert circle.lambda0 == pytest.approx(0.5 / (1.5 * np.sqrt(2.0)), rel=1e-12)
    assert circle.R0 == pytest.approx(1.6)
    assert circle.lipschitz == pytest.approx(1.0, abs=1e-2)
    assert verify_I1(circle)
    ok, margin = verify_I2(circle)
    assert ok
    assert margin >= -circle.lipschitz * SPEC.h


def test_eta0_monotone_in_radius():
    etas = []
    for r0 in (0.3, 0.45, 0.6):
        init = star_shaped_u0(SPEC, [(0.0, 0.0)], r0)
        assert init.eta0 >= 0.5 * r0
        etas.append(init.eta0)
    assert etas[0] < etas[1] < etas[2]


def test_small_radius_descends_ladder():
    # r0 = 0.3 with delta0 = 0.2 would certify only eta ~ 0.1 < r0/2,
    # so the ladder must settle on a narrower band
    init = star_shaped_u0(SPEC, [(0.0, 0.0)], 0.3)
    assert init.delta0 == 0.1
    assert init.eta0 == pytest.approx(0.2, abs=5e-3)


def test_peanut_certificate(peanut):
    assert verify_I1(peanut)
    ok, margin = verify_I2(peanut)
    assert ok
    assert peanut.eta0 >= 0.15
    assert peanut.eta0 == pytest.approx(0.2, abs=5e-3)


def test_union_distance_matches_dense_reference(peanut):
    # brute-force reference: sample both cone boundaries at 1/30 of the
    # segment step, drop swallowed points, take point-cloud distances
    from frontlab.geometry import _cone_boundary_samples, _cone_sdf

    ks = np.array([[0.4, 0.0], [-0.4, 0.0]])
    cloud = []
    for i, k in enumerate(ks):
        bp = _cone_boundary_samples(k, 0.3, 0.00025)
        other = ks[1 - i]
        sd = _cone_sdf(bp[:, 0], bp[:, 1], other, 0.3)
        cloud.append(bp[sd >= -1e-12])
    cloud = np.vstack(cloud)
    x, y = SPEC.meshgrid()
    sd_union = np.minimum(
        _cone_sdf(x, y, ks[0], 0.3), _cone_sdf(x, y, ks[1], 0.3)
    )
    nodes = np.column_stack([x.ravel(), y.ravel()])
    from scipy.spatial import cKDTree

    dref, _ = cKDTree(cloud).query(nodes, workers=1)
    uref = np.clip(
        np.where(sd_union <= 0.0, dref.reshape(x.shape), -dref.reshape(x.shape)),
        -1.0,
        1.0,
    )
    assert np.max(np.abs(peanut.u0.values - uref)) < 2e-4


def test_empirical_margin_refines_toward_band_infimum():
    # eta_emp(0) uses the band |u0| <= delta0/4 = 0.05, whose smallest
    # radius is 0.55 for the r0 = 0.6 cone
    errs = []
    for n in (101, 201, 401):
        init = star_shaped_u0(GridSpec(n, 1.5), [(0.0, 0.0)], 0.6)
        errs.append(abs(eta_empirical(init.u0, init) - 0.55))
    assert errs[0] / errs[1] > 1.5
    assert errs[1] / errs[2] > 1.5


def test_construction_rejects_oversized_support():
    with pytest.raises(ConstructionError):
        star_shaped_u0(SPEC, [(0.0, 0.0)], 3.0)
    with pytest.raises(ConstructionError):
        star_shaped_u0(SPEC, [(1.49, 0.0)], 0.2)
    with pytest.raises(ConstructionError):
        star_shaped_u0(SPEC, [(0.0, 0.0)], -0.1)
    with pytest.raises(ConstructionError):
        star_shaped_u0(SPEC, [(0.0, 0.0, 0.0)], 0.3)


def test_far_field_check_catches_tampering(circle):
    import dataclasses

    bad = dataclasses.replace(circle, u0=circle.u0.copy())
    bad.u0.values[0, 0] = 0.5
    assert not verify_I1(bad)

    overscaled = dataclasses.replace(
        circle,
        u0=type(circle.u0)(circle.u0.spec, 1.5 * circle.u0.values),
    )
    assert not verify_I1(overscaled)


def test_margin_check_catches_inflated_eta(circle):
    import dataclasses

    bad = dataclasses.replace(circle, eta0=2.0 * circle.R0)
    ok, margin = verify_I2(bad)
    assert not ok
    assert margin < 0.0


def test_margin_check_vacuous_without_samples(circle):
    ok, margin = verify_I2(circle, lambda_samples=0)
    assert ok
    assert margin == np.inf


def test_radial_direction_field():
    rad = radial_direction(SPEC)
    assert rad.kind == "radial"
    assert rad.sup_norm == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)


def test_init_round_trip(tmp_path, peanut):
    u0_path = tmp_path / "init.f64"
    head_path = tmp_path / "init_meta.txt"
    dump_init(peanut, u0_path, head_path)
    back = load_init(u0_path, head_path)
    assert np.array_equal(back.u0.values, peanut.u0.values)
    assert back.delta0 == peanut.delta0
    assert back.eta0 == peanut.eta0
    assert back.lambda0 == peanut.lambda0
    assert back.R0 == peanut.R0
    assert back.r0 == peanut.r0
    assert back.lipschitz == peanut.lipschitz
    assert back.nu.kind == peanut.nu.kind
    assert np.array_equal(back.nu.values, peanut.nu.values)
