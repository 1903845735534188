import math
import random

import pytest
from hypothesis import example, given, strategies as st

from osnmasim.positioning import (
    SPEED_OF_LIGHT,
    WGS84_A,
    WGS84_E2,
    SolveError,
    ecef_to_geodetic,
    forge_pseudoranges,
    geodetic_to_ecef,
    solve_position,
)


def _random_geometry(rng, n_sats=8):
    """A receiver on the ellipsoid with satellite positions spread over
    its sky."""
    lat = rng.uniform(-70, 70)
    lon = rng.uniform(-180, 180)
    receiver = geodetic_to_ecef(lat, lon, rng.uniform(0, 2000))
    up = [c / 6.4e6 for c in geodetic_to_ecef(lat, lon, 0)]
    sats = []
    for _ in range(n_sats):
        direction = [rng.gauss(0, 1) for _ in range(3)]
        norm = math.sqrt(sum(d * d for d in direction))
        direction = [d / norm for d in direction]
        # keep satellites above the horizon for a sane geometry
        dot = sum(d * u for d, u in zip(direction, up))
        if dot < 0.25:
            direction = [d + (0.5 - dot) * u for d, u in zip(direction, up)]
            norm = math.sqrt(sum(d * d for d in direction))
            direction = [d / norm for d in direction]
        r = rng.uniform(2.2e7, 2.7e7)
        sats.append(tuple(rc + r * d for rc, d in zip(receiver, direction)))
    return receiver, sats


def test_forge_zero_range_at_satellite():
    sat = (1000.0, -2000.0, 500.0)
    assert forge_pseudoranges(sat, 0.0, [sat]) == [0.0]


def test_forge_clock_term_scales_by_c():
    sat = (20e6, 0.0, 0.0)
    base = forge_pseudoranges((0.0, 0.0, 0.0), 0.0, [sat])[0]
    shifted = forge_pseudoranges((0.0, 0.0, 0.0), 1e-3, [sat])[0]
    assert shifted - base == pytest.approx(299792.458, abs=1e-6)


def test_forge_ranges_each_distinct_position_once(monkeypatch):
    """Over a list that repeats each satellite's position, as a stream's
    subframes do, each distinct position's range is computed once, and
    every range is the per-satellite expression's bit for bit."""
    import numpy as np

    rng = random.Random(3)
    target, sats = _random_geometry(rng, 5)
    many = [rng.choice(sats) for _ in range(40)]
    t_r = rng.uniform(-1e-3, 1e-3)
    expected = [float(np.linalg.norm(np.asarray(target, dtype=float)
                                     - np.asarray(s, dtype=float))
                      + SPEED_OF_LIGHT * t_r) for s in many]
    calls = []
    norm = np.linalg.norm

    def counting(x):
        calls.append(x)
        return norm(x)

    monkeypatch.setattr(np.linalg, "norm", counting)
    assert forge_pseudoranges(target, t_r, many) == expected
    assert len(calls) == len(set(many))


def test_forge_requires_satellites():
    with pytest.raises(ValueError):
        forge_pseudoranges((0, 0, 0), 0.0, [])


def test_round_trip_recovers_target():
    rng = random.Random(1)
    for _ in range(100):
        receiver, sats = _random_geometry(rng)
        t_r = rng.uniform(-1e-3, 1e-3)
        rho = forge_pseudoranges(receiver, t_r, sats)
        fix = solve_position(sats, rho)
        err = math.dist(fix.position, receiver)
        assert err < 1e-3
        assert fix.clock_offset == pytest.approx(t_r, abs=1e-11)
        assert fix.residual_norm < 1e-3


def test_four_satellites_land_on_the_root_near_the_surface():
    """Four ranges leave the range equations two exact roots.  Solved from
    the Earth's centre alone, 8 of these 400 geometries converged to the
    far one, 1,750 km to 61,373 km from the receiver; checked against
    Bancroft's root, every fix lands within 1 mm."""
    rng = random.Random(11)
    for _ in range(400):
        receiver, sats = _random_geometry(rng, n_sats=4)
        fix = solve_position(sats, forge_pseudoranges(receiver, 0.0, sats))
        assert math.dist(fix.position, receiver) < 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: with four satellites the solve "
                          "keeps the root nearer the sphere, here the "
                          "mirror one")
def test_four_satellites_far_below_the_surface_give_the_site_or_no_fix():
    """A site 163,861 m below the ellipsoid under four satellites: both
    roots of the range equations fit every range.  The fix lies within
    1 mm of the site, or the solve raises SolveError.  Today it returns
    the other root, 42,443 m above the ellipsoid and 233,124 m off."""
    site = geodetic_to_ecef(9.553701, 154.879805, -163_861.208)
    sats = [(-19729747.874, 20387361.479, -644447.085),
            (-11075404.435, 27182970.869, 6552603.999),
            (-13562866.557, 4778058.841, 22913665.08),
            (-29585429.302, 12962946.255, 416416.08)]
    try:
        fix = solve_position(sats, forge_pseudoranges(site, 0.0, sats))
    except SolveError:
        return
    assert math.dist(fix.position, site) < 1e-3


def test_reference_target_position():
    """The forged-position experiment target: 4 deg N, 50 deg E, 100 m."""
    target = geodetic_to_ecef(4.0, 50.0, 100.0)
    # place a random sky around the target site
    receiver, sats = _random_geometry(random.Random(3))
    offset = [t - r for t, r in zip(target, receiver)]
    sats = [tuple(c + o for c, o in zip(s, offset)) for s in sats]
    rho = forge_pseudoranges(target, 0.0, sats)
    fix = solve_position(sats, rho)
    assert math.dist(fix.position, target) < 1e-3
    lat, lon, height = ecef_to_geodetic(*fix.position)
    assert lat == pytest.approx(4.0, abs=1e-8)
    assert lon == pytest.approx(50.0, abs=1e-8)
    assert height == pytest.approx(100.0, abs=1e-3)


def test_coplanar_satellites_raise():
    receiver = (0.0, 0.0, 0.0)
    sats = [(x * 1e7, y * 1e7, 0.0)
            for x, y in [(1, 0), (0, 1), (-1, 0), (0, -1)]]
    rho = forge_pseudoranges(receiver, 0.0, sats)
    with pytest.raises(SolveError, match="^satellite geometry is degenerate$"):
        solve_position(sats, rho)


def test_duplicate_satellite_geometry_raises():
    """Four ranges from three distinct satellites leave rank 3."""
    receiver, sats = _random_geometry(random.Random(5), n_sats=3)
    sats = [*sats, sats[0]]
    rho = forge_pseudoranges(receiver, 0.0, sats)
    with pytest.raises(SolveError, match="^satellite geometry is degenerate$"):
        solve_position(sats, rho)


def test_fewer_than_four_satellites_rejected():
    sats = [(i * 1e6, 2e7, 3e6) for i in range(3)]
    with pytest.raises(ValueError):
        solve_position(sats, [1.0, 2.0, 3.0])


def test_translation_equivariance():
    rng = random.Random(4)
    receiver, sats = _random_geometry(rng)
    rho = forge_pseudoranges(receiver, 2e-4, sats)
    shift = (1234.5, -6789.0, 321.0)
    moved_sats = [tuple(c + d for c, d in zip(s, shift)) for s in sats]
    fix = solve_position(sats, rho)
    moved_fix = solve_position(moved_sats, rho)
    for a, b, d in zip(moved_fix.position, fix.position, shift):
        assert a - b == pytest.approx(d, abs=1e-4)


def test_common_range_bias_moves_clock_only():
    rng = random.Random(5)
    receiver, sats = _random_geometry(rng)
    rho = forge_pseudoranges(receiver, 0.0, sats)
    delta = 450.0
    fix = solve_position(sats, [r + delta for r in rho])
    assert math.dist(fix.position, receiver) < 1e-3
    assert fix.clock_offset == pytest.approx(delta / SPEED_OF_LIGHT, rel=1e-9)


def test_geodetic_round_trip():
    rng = random.Random(6)
    for _ in range(50):
        lat, lon, h = rng.uniform(-89, 89), rng.uniform(-180, 180), rng.uniform(-100, 9000)
        x, y, z = geodetic_to_ecef(lat, lon, h)
        lat2, lon2, h2 = ecef_to_geodetic(x, y, z)
        assert lat2 == pytest.approx(lat, abs=1e-9)
        assert lon2 == pytest.approx(lon, abs=1e-9)
        assert h2 == pytest.approx(h, abs=1e-6)


@given(st.floats(-12, 4), st.floats(-math.pi, math.pi),
       st.floats(-2e6, 2e6), st.sampled_from((1, -1)))
@example(-12, 0.0, 240.0, 1)
@example(4, 0.0, -2e6, -1)
@example(math.log10(3.9e-10), 0.13, 240.0, 1)   # a 90 deg site's own offset
def test_geodetic_round_trip_near_the_polar_axis(log_off_m, azimuth, height_m,
                                                 pole):
    """A point 1e-12 m to 10 km off the polar axis, up to 2,000 km above or
    below either pole, converts to geodetic and back to within 1e-6 m."""
    off = 10.0 ** log_off_m
    point = (off * math.cos(azimuth), off * math.sin(azimuth),
             pole * (WGS84_A * math.sqrt(1.0 - WGS84_E2) + height_m))
    back = geodetic_to_ecef(*ecef_to_geodetic(*point))
    assert math.dist(back, point) < 1e-6
