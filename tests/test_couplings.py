"""Nonlocal speed laws and the occupation-distance functionals.

The convolution tests carry their own brute-force double-sum oracle; the FFT
implementation must match it to 1e-10 relative on 65^2 grids, and
scipy.signal.fftconvolve to 1e-12 relative.  The remaining numbers are
closed forms: kernel masses, disc areas, and the spatially uniform reaction
ODE v' = 1.
"""

import numpy as np
import pytest

from frontlab.couplings import (
    ConstantCoupling,
    DislocationCoupling,
    FitzhughNagumoCoupling,
    OccupationHistory,
    VolumeCoupling,
    _fast_len,
    affine_map,
    clamp_affine_map,
    constant_history,
    constant_map,
    convolve_kernel,
    core_ring_kernel,
    disc_bump_kernel,
    gauss_average,
    gaussian_kernel,
    kappa,
    occupation_key,
    parse_kernel,
    parse_scalar_map,
    volume_speed,
)
from frontlab.grid import GridSpec, ScalarField, constant_field, field_from_function

SPEC65 = GridSpec(65, 1.0)


def _indicator(spec, fn):
    x, y = spec.meshgrid()
    return ScalarField(spec, fn(x, y).astype(np.float64))


def _disc_chi(spec, r, cx=0.0, cy=0.0):
    return _indicator(spec, lambda x, y: (np.hypot(x - cx, y - cy) <= r))


# ---------------------------------------------------------------------------
# convolution against the brute-force double sum
# ---------------------------------------------------------------------------


def _brute_force_convolution(c0: ScalarField, chi: ScalarField) -> np.ndarray:
    """Direct evaluation of h^2 sum_j c0(x_i - x_j) chi(x_j), no transforms.

    The kernel is centred at index c = (n-1)/2, so the spatial offset
    x_i - x_j lives at kernel index (i - j) + c; offsets outside the kernel
    grid contribute nothing.
    """
    n = c0.spec.n
    h = c0.spec.h
    c = (n - 1) // 2
    k = c0.values
    f = chi.values
    out = np.zeros((n, n))
    for iy in range(n):
        ky_lo = max(0, iy + c - (n - 1))
        ky_hi = min(n - 1, iy + c)
        jy_lo = iy + c - ky_hi
        jy_hi = iy + c - ky_lo
        for ix in range(n):
            kx_lo = max(0, ix + c - (n - 1))
            kx_hi = min(n - 1, ix + c)
            jx_lo = ix + c - kx_hi
            jx_hi = ix + c - kx_lo
            block = k[ky_lo : ky_hi + 1, kx_lo : kx_hi + 1]
            patch = f[jy_hi : jy_lo - 1 if jy_lo > 0 else None : -1,
                      jx_hi : jx_lo - 1 if jx_lo > 0 else None : -1]
            out[iy, ix] = (block * patch).sum()
    return out * h * h


def test_fft_convolution_matches_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(5):
        kern = ScalarField(SPEC65, rng.normal(size=(65, 65)))
        chi = ScalarField(SPEC65, rng.integers(0, 2, size=(65, 65)).astype(float))
        fast = convolve_kernel(kern, chi).values
        slow = _brute_force_convolution(kern, chi)
        scale = max(1.0, float(np.abs(slow).max()))
        assert np.max(np.abs(fast - slow)) / scale < 1e-10, f"trial {trial}"


def test_convolution_disc_on_disc():
    # kernel support B(0, 0.2) sits entirely inside the occupied disc
    # B(0, 0.6) when centred at the origin, so the value there is the mass
    kern = disc_bump_kernel(SPEC65, 1.0, 0.2)
    chi = _disc_chi(SPEC65, 0.6)
    out = convolve_kernel(kern, chi)
    mid = SPEC65.n // 2
    assert out.values[mid, mid] == pytest.approx(1.0, rel=0.01)


def test_convolution_empty_chi():
    kern = disc_bump_kernel(SPEC65, 1.0, 0.2)
    chi = constant_field(SPEC65, 0.0)
    assert np.max(np.abs(convolve_kernel(kern, chi).values)) == 0.0


def test_convolution_spike_identity():
    # a single-node kernel of discrete mass 1 reproduces chi
    vals = np.zeros((65, 65))
    vals[32, 32] = 1.0 / SPEC65.h**2
    spike = ScalarField(SPEC65, vals)
    chi = _disc_chi(SPEC65, 0.4, cx=0.1)
    out = convolve_kernel(spike, chi)
    assert np.max(np.abs(out.values - chi.values)) < 1e-12


@pytest.mark.parametrize("n", [33, 49, 65, 101])
def test_convolution_matches_fftconvolve(n):
    # convolve_kernel pads to the lengths scipy.signal.fftconvolve pads to
    # and transforms with numpy.fft, so only the FFT library's rounding
    # differs; every size here pads 2n - 1 to a larger fast length
    from scipy.signal import fftconvolve

    spec = GridSpec(n, 1.5)
    kern = parse_kernel("core_ring(1.3,0.15,-0.3,0.15,0.3)", spec)
    chi = _disc_chi(spec, 0.5, cx=0.3, cy=-0.2)
    want = fftconvolve(chi.values, kern.values, mode="same") * (spec.h * spec.h)
    got = convolve_kernel(kern, chi).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fast_length_is_scipys_real_fast_length():
    from scipy.fft import next_fast_len

    ts = range(1, 3000)
    assert [_fast_len(t) for t in ts] == [next_fast_len(t, True) for t in ts]


def test_one_march_transforms_its_kernel_once(monkeypatch):
    # the coupling keeps its kernel's transform: every convolution after
    # the first transforms only the occupation, and an occupation met
    # again is not convolved again
    import frontlab.couplings as couplings
    from frontlab.weak import march_solve

    calls = {"kernel_spectrum": 0, "convolve_kernel": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(couplings, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(couplings, name, counted)
    spec = GridSpec(33, 1.5)
    kern = parse_kernel("core_ring(1.3,0.15,-0.3,0.15,0.3)", spec)
    x, y = spec.meshgrid()
    u0 = ScalarField(spec, np.clip(0.5 - np.hypot(x, y), -1.0, 1.0))
    march = march_solve(
        DislocationCoupling(kern, 0.2), u0, 0.05, 0.02, output_times=[0.005, 0.01, 0.015, 0.02]
    )
    distinct = set(march.keys)
    assert calls == {"kernel_spectrum": 1, "convolve_kernel": len(distinct)}
    assert len(distinct) < 4


def test_coupling_convolution_is_bit_identical_to_a_fresh_transform():
    spec = GridSpec(49, 1.5)
    kern = parse_kernel("core_ring(1.3,0.15,-0.3,0.15,0.3)", spec)
    coup = DislocationCoupling(kern, 0.0)
    for r in (0.3, 0.5):
        chi = _disc_chi(spec, r, cx=0.1)
        assert np.array_equal(coup.speed_field(chi).values, convolve_kernel(kern, chi).values)


# ---------------------------------------------------------------------------
# dislocation speed law
# ---------------------------------------------------------------------------


def test_dislocation_constant_part_only():
    coup = DislocationCoupling(constant_field(SPEC65, 0.0), 1.0)
    assert coup.chi_independent
    speed = coup.speed_field(_disc_chi(SPEC65, 0.4))
    assert np.max(np.abs(speed.values - 1.0)) == 0.0


def test_dislocation_zero_mass_kernel_on_ones():
    # sign-changing kernel with (discretely) near-zero total mass: on
    # chi = 1 the interior value equals c1 + discrete mass exactly
    kern = core_ring_kernel(SPEC65, 1.0, 0.15, -1.0, 0.15, 0.3)
    mass = float(kern.values.sum()) * SPEC65.h**2
    # the core covers only ~5 cells across at this h, so the discrete
    # masses cancel imperfectly; the linearity identity below is exact
    assert abs(mass) < 0.1
    coup = DislocationCoupling(kern, 0.2)
    assert not coup.chi_independent
    speed = coup.speed_field(constant_field(SPEC65, 1.0))
    mid = SPEC65.n // 2
    inner = speed.values[mid - 10 : mid + 11, mid - 10 : mid + 11]
    assert np.max(np.abs(inner - (0.2 + mass))) < 1e-10


def test_dislocation_core_composition():
    kern = disc_bump_kernel(SPEC65, 1.0, 0.2)
    coup = DislocationCoupling(kern, 0.25)
    speed = coup.speed_field(_disc_chi(SPEC65, 0.6))
    mid = SPEC65.n // 2
    assert speed.values[mid, mid] == pytest.approx(1.25, rel=0.01)


# ---------------------------------------------------------------------------
# kappa and the heat-kernel slice
# ---------------------------------------------------------------------------


def test_kappa_identical_is_zero():
    chi = _disc_chi(SPEC65, 0.5)
    assert kappa(chi, chi) == 0.0


def test_kappa_nested_discs():
    spec = GridSpec(201, 1.0)
    a = _disc_chi(spec, 0.5)
    b = _disc_chi(spec, 0.6)
    assert kappa(a, b) == pytest.approx(np.pi * (0.36 - 0.25), rel=0.01)
    assert kappa(b, a) == kappa(a, b)


def test_kappa_disjoint_discs():
    spec = GridSpec(201, 1.0)
    a = _disc_chi(spec, 0.3, cx=-0.45)
    b = _disc_chi(spec, 0.3, cx=0.45)
    assert kappa(a, b) == pytest.approx(2.0 * np.pi * 0.09, rel=0.01)


def test_kappa_triangle_inequality():
    rng = np.random.default_rng(5)
    fields = [
        ScalarField(SPEC65, rng.integers(0, 2, size=(65, 65)).astype(float))
        for _ in range(3)
    ]
    a, b, c = fields
    assert kappa(a, c) <= kappa(a, b) + kappa(b, c) + 1e-12


def test_gauss_slice_delta_limit():
    rng = np.random.default_rng(1)
    diff = rng.uniform(size=(65, 65))
    # tau below h^2/16 snaps to the nearest node
    val = gauss_average(SPEC65, np.array([0.26, -0.51]), 1e-9)(diff)
    iy = int(round((-0.51 + 1.0) / SPEC65.h))
    ix = int(round((0.26 + 1.0) / SPEC65.h))
    assert val == diff[iy, ix]


def _reference_gauss_slice(diff, spec, x, tau):
    """The heat-kernel average as first written, weights built per call."""
    if tau <= spec.h**2 / 16.0:
        L = spec.half_extent
        ix = int(np.clip(np.round((x[0] + L) / spec.h), 0, spec.n - 1))
        iy = int(np.clip(np.round((x[1] + L) / spec.h), 0, spec.n - 1))
        return float(diff[iy, ix])
    ax = spec.axis()
    gx = np.exp(-((x[0] - ax) ** 2) / (4.0 * tau))
    gy = np.exp(-((x[1] - ax) ** 2) / (4.0 * tau))
    w = np.outer(gy, gx)
    return float((w * diff).sum() / w.sum())


@pytest.mark.parametrize("tau", [1e-9, SPEC65.h**2 / 16.0, 0.003, 0.05, 0.4])
def test_gauss_average_matches_gauss_slice_bitwise(tau):
    # one average, built once, read on several fields: the same floats as
    # one reference average per field, the delta limit (tau <= h^2/16) included
    rng = np.random.default_rng(7)
    x = np.array([0.26, -0.51])
    average = gauss_average(SPEC65, x, tau)
    for _ in range(3):
        diff = rng.integers(0, 2, size=(65, 65)).astype(np.float64)
        want = _reference_gauss_slice(diff, SPEC65, x, tau)
        assert average(diff) == gauss_average(SPEC65, x, tau)(diff) == want


def test_occupation_history_validation():
    times = [0.0, 0.1]
    chi = _disc_chi(SPEC65, 0.4)
    with pytest.raises(ValueError):
        OccupationHistory([0.0, 0.0], [chi, chi])
    with pytest.raises(ValueError):
        OccupationHistory(times, [chi])
    with pytest.raises(ValueError):
        OccupationHistory(times, [chi, constant_field(SPEC65, 0.5)])
    hist = OccupationHistory(times, [chi, constant_field(SPEC65, 0.0)])
    assert hist.chi_at(0.05) is hist.fields[0]
    assert hist.chi_at(0.1) is hist.fields[1]
    assert hist.chi_at(99.0) is hist.fields[1]


# ---------------------------------------------------------------------------
# fitzhugh-nagumo coupling
# ---------------------------------------------------------------------------


def _fn(alpha=None, g_plus=None, g_minus=None, v0=0.0):
    return FitzhughNagumoCoupling(
        alpha=alpha or clamp_affine_map(0.0, 1.0, -5.0, 5.0),
        g_plus=g_plus or constant_map(0.0),
        g_minus=g_minus or constant_map(0.0),
        v0=v0,
    )


def _pieces(coup, hist):
    """The interval_speed piece of every interval of hist, and v at every
    time of hist, evolved interval by interval."""
    pieces, stored = [], [coup.initial_state(hist.spec)]
    for chi, t0, t1 in zip(hist.fields, hist.times, hist.times[1:]):
        piece, v = coup.interval_speed(chi, float(t0), float(t1), stored[-1])
        pieces.append(piece)
        stored.append(v)
    return pieces, stored


def test_fn_no_source_keeps_initial():
    coup = _fn(v0=0.3)
    hist = constant_history(_disc_chi(SPEC65, 0.4), [0.0, 0.05, 0.1])
    pieces, stored = _pieces(coup, hist)
    for v in stored:
        assert np.max(np.abs(v.values - 0.3)) < 1e-12
    assert np.max(np.abs(pieces[1](0.07).values - 0.3)) < 1e-12


def test_fn_uniform_source_integrates_time():
    coup = _fn(g_plus=constant_map(1.0), g_minus=constant_map(0.0), v0=0.0)
    hist = constant_history(constant_field(SPEC65, 1.0), [0.0, 0.1, 0.2])
    pieces, stored = _pieces(coup, hist)
    for t, v in zip([0.0, 0.1, 0.2], stored):
        assert np.max(np.abs(v.values - t)) < 1e-8
    # linear-in-time interpolation between slices (alpha is the identity here)
    assert np.max(np.abs(pieces[1](0.15).values - 0.15)) < 1e-8


def test_fn_heat_maximum_principle():
    v0 = field_from_function(SPEC65, lambda x, y: np.exp(-8.0 * (x * x + y * y)))
    coup = _fn(v0=v0)
    hist = constant_history(constant_field(SPEC65, 0.0), np.linspace(0.0, 0.05, 6))
    stored = _pieces(coup, hist)[1]
    maxima = [float(v.values.max()) for v in stored]
    assert all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    assert all(float(v.values.min()) >= -1e-12 for v in stored)


def test_fn_evolve_matches_padded_reference_bitwise():
    # one padded buffer per call gives the floats of a fresh edge pad per
    # heat substep, the Laplacian summed in the same order
    from frontlab.couplings import HEAT_SAFETY, fn_evolve

    def reference(coupling, v, chi, t0, t1):
        h = v.spec.h
        dt_max = HEAT_SAFETY * h * h / 4.0
        occ, vals, t = chi.values, v.values, t0
        while t < t1:
            dt = t1 - t if t1 - t <= dt_max * (1.0 + 1e-9) else dt_max
            t = t1 if dt == t1 - t else t + dt
            p = np.pad(vals, 1, mode="edge")
            lap = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * vals) / (h * h)
            source = coupling.g_plus(vals) * occ + coupling.g_minus(vals) * (1.0 - occ)
            vals = vals + dt * (lap + source)
        return vals

    coup = _fn(g_plus=clamp_affine_map(1.0, -0.5, 0.5, 2.0),
               g_minus=clamp_affine_map(-0.2, 0.3, -1.0, 0.4))
    rng = np.random.default_rng(5)
    v = ScalarField(SPEC65, rng.uniform(-1.0, 1.0, (65, 65)))
    before = v.values.copy()
    chi = _disc_chi(SPEC65, 0.4)
    got = fn_evolve(coup, v, chi, 0.01, 0.0137)
    want = reference(coup, v, chi, 0.01, 0.0137)
    assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
    assert got.values.flags.c_contiguous
    assert np.array_equal(v.values, before)


def test_fn_monotone_in_chi():
    coup = _fn(g_plus=constant_map(1.0), g_minus=constant_map(0.0), v0=0.0)
    times = np.linspace(0.0, 0.1, 4)
    big = constant_history(_disc_chi(SPEC65, 0.5), times)
    small = constant_history(_disc_chi(SPEC65, 0.3), times)
    for vb, vs in zip(_pieces(coup, big)[1], _pieces(coup, small)[1]):
        assert float((vs.values - vb.values).max()) <= 1e-12


def test_fn_source_bound_enforced():
    with pytest.raises(ValueError):
        _fn(g_plus=constant_map(0.0), g_minus=constant_map(1.0))
    # unbounded maps are rejected up front
    with pytest.raises(ValueError):
        _fn(g_plus=affine_map(0.0, 1.0))
    with pytest.raises(ValueError):
        _fn(alpha=affine_map(0.0, 1.0))


# ---------------------------------------------------------------------------
# volume coupling
# ---------------------------------------------------------------------------


def test_volume_speed_disc():
    # the indicator staircase area carries a Gauss-circle style wobble,
    # so this pins the value on one fixed grid where it is well inside
    spec = GridSpec(401, 1.0)
    coup = VolumeCoupling(affine_map(1.0, -1.0))
    got = volume_speed(coup, _disc_chi(spec, 0.5))
    assert got == pytest.approx(1.0 - np.pi / 4.0, rel=5e-3)


def test_volume_speed_trivials():
    coup = VolumeCoupling(affine_map(0.7, 2.0))
    assert volume_speed(coup, constant_field(SPEC65, 0.0)) == pytest.approx(0.7)
    zero = VolumeCoupling(constant_map(0.0))
    assert zero.chi_independent
    assert volume_speed(zero, _disc_chi(SPEC65, 0.4)) == 0.0


def test_volume_speed_monotone_iff_beta_is():
    spec = GridSpec(201, 1.0)
    discs = [_disc_chi(spec, r) for r in (0.2, 0.3, 0.4)]
    grow = VolumeCoupling(affine_map(0.0, 1.0))
    shrink = VolumeCoupling(affine_map(0.0, -1.0))
    up = [volume_speed(grow, d) for d in discs]
    down = [volume_speed(shrink, d) for d in discs]
    assert up[0] < up[1] < up[2]
    assert down[0] > down[1] > down[2]


def test_constant_coupling_provider():
    coup = ConstantCoupling(0.8)
    piece, state = coup.interval_speed(_disc_chi(SPEC65, 0.3), 0.0, 0.1, None)
    assert coup.chi_independent and state is None
    assert piece(0.05) == 0.8


# ---------------------------------------------------------------------------
# scalar map and kernel parsing
# ---------------------------------------------------------------------------


def test_scalar_map_parsing():
    m = parse_scalar_map("affine(1, -1)")
    assert m(0.25) == pytest.approx(0.75)
    assert m.lip == 1.0
    c = parse_scalar_map("clamp_affine(0, 2, -0.5, 0.5)")
    assert c(10.0) == 0.5
    assert c(-10.0) == -0.5
    assert c.lower == -0.5 and c.upper == 0.5
    k = parse_scalar_map("constant(0.3)")
    assert k(123.0) == 0.3
    assert k.lip == 0.0


def test_scalar_map_round_trip():
    for text in ("affine(1,-1)", "constant(0.3)", "clamp_affine(0,2,-0.5,0.5)"):
        m = parse_scalar_map(text)
        again = parse_scalar_map(str(m))
        assert again == m


def test_scalar_map_parse_errors():
    with pytest.raises(ValueError):
        parse_scalar_map("rational(1,2)")
    with pytest.raises(ValueError):
        parse_scalar_map("affine(1)")
    with pytest.raises(ValueError):
        parse_scalar_map("affine 1 2")
    with pytest.raises(ValueError):
        parse_scalar_map("clamp_affine(0,1,2,-2)")


def test_kernel_parsing():
    k = parse_kernel("disc_bump(1, 0.2)", SPEC65)
    assert k.values.sum() * SPEC65.h**2 == pytest.approx(1.0, rel=0.05)
    g = parse_kernel("gaussian(2, 0.1)", SPEC65)
    assert g.values.sum() * SPEC65.h**2 == pytest.approx(2.0, rel=0.05)
    with pytest.raises(ValueError):
        parse_kernel("box(1)", SPEC65)
    with pytest.raises(ValueError):
        parse_kernel("core_ring(1, 0.3, -1, 0.2, 0.1)", SPEC65)
    with pytest.raises(ValueError):
        parse_kernel("disc_bump(1, -1)", SPEC65)
    # a zero-mean core_ring is a kernel; only masses that are all zero vanish
    assert parse_kernel("core_ring(1, 0.15, -1, 0.15, 0.3)", SPEC65).values.any()


# ---------------------------------------------------------------------------
# the speed memo: one build per distinct occupation of a law object
# ---------------------------------------------------------------------------


MEMO_RUNS = {
    "dislocation": """\
grid.n = 33
grid.L = 1.5
init.kind = circle
init.r0 = 0.5
coupling.kind = dislocation
coupling.kernel = core_ring(1.3,0.15,-0.3,0.15,0.3)
coupling.c1 = 0.2
gamma = 0.1
horizon = 0.15
output_times = 13
checks = dependence
probe.enabled = true
""",
    "volume": """\
grid.n = 33
grid.L = 1.5
init.kind = circle
init.r0 = 0.3
coupling.kind = volume
coupling.beta = affine(1,-1)
gamma = 0.05
horizon = 0.3
output_times = 13
checks = star_shape
gamma_sweep = 0, 0.05, 0.1
""",
}


def _memo_run(kind, out_dir):
    from frontlab.config import parse_config
    from frontlab.runner import run

    result = run(parse_config(MEMO_RUNS[kind]), out_dir=str(out_dir))
    assert result.exit_code == 0
    return (out_dir / "manifest.txt").read_text()


@pytest.mark.parametrize("kind, builder, chi_arg, law", [
    ("dislocation", "convolve_kernel", 1, DislocationCoupling),
    ("volume", "lebesgue_measure", 0, VolumeCoupling),
])
def test_a_run_builds_each_speed_once_per_distinct_occupation(
    monkeypatch, tmp_path, kind, builder, chi_arg, law,
):
    import frontlab.couplings as couplings

    built, intervals = [], [0]
    plain_build, plain_interval = getattr(couplings, builder), law.interval_speed

    def counted_build(*args):
        built.append(occupation_key(args[chi_arg]))
        return plain_build(*args)

    def counted_interval(self, *args):
        intervals[0] += 1
        return plain_interval(self, *args)

    monkeypatch.setattr(couplings, builder, counted_build)
    monkeypatch.setattr(law, "interval_speed", counted_interval)
    memo = _memo_run(kind, tmp_path / "memo")
    assert len(built) == len(set(built))
    assert len(built) < intervals[0]

    # building afresh on every call leaves every stored file as it was
    monkeypatch.setattr(couplings.SpeedLaw, "memo_speed", lambda self, chi, build: build(chi))
    assert _memo_run(kind, tmp_path / "fresh") == memo


def test_a_stored_speed_field_is_read_only():
    coup = DislocationCoupling(disc_bump_kernel(SPEC65, 1.0, 0.2), 0.25)
    piece, _ = coup.interval_speed(_disc_chi(SPEC65, 0.4), 0.0, 0.1, None)
    again, _ = coup.interval_speed(_disc_chi(SPEC65, 0.4), 0.1, 0.2, None)
    assert again(0.1) is piece(0.0)
    with pytest.raises(ValueError):
        piece(0.0).values[0, 0] = 1.0
    with pytest.raises(ValueError):
        piece(0.0).values += 1.0


def test_fn_evolves_v_on_every_interval(monkeypatch):
    # the law carries v, so an occupation met again is evolved again
    import frontlab.couplings as couplings

    calls = [0]
    plain = couplings.fn_evolve

    def counted(*args):
        calls[0] += 1
        return plain(*args)

    monkeypatch.setattr(couplings, "fn_evolve", counted)
    coup = _fn(g_plus=constant_map(1.0), g_minus=constant_map(0.0), v0=0.0)
    hist = constant_history(_disc_chi(SPEC65, 0.4), [0.0, 0.05, 0.1, 0.15])
    stored = _pieces(coup, hist)[1]
    assert calls[0] == 3
    assert all(float(b.values.max()) > float(a.values.max()) for a, b in zip(stored, stored[1:]))
