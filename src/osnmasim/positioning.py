"""Pseudorange forging and position solving over the classic range
equation rho_i = ||receiver - sat_i|| + c * t_r.

The solver is damped Gauss-Newton over [x, y, z, c*t_r], initialized at
the Earth centre, converging when the position update drops below 1e-6 m.
Geodetic conversions use the WGS-84 ellipsoid.

numpy is imported inside the two functions that use it, not at module
top: loading it loads OpenBLAS, which starts its thread pool at load, and
`osnmasim.cli.main` must first set how many threads that pool gets (see
README "Install and test"). Importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0      # m/s
WGS84_A = 6_378_137.0               # semi-major axis, m
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

POS_TOL_M = 1e-6
MAX_ITER = 50
LAT_RANGE, LON_RANGE = (-90, 90), (-180, 180)      # geodetic input, degrees


class SingularGeometryError(ValueError):
    """Satellite geometry leaves the linearized system rank deficient."""


class NoConvergenceError(RuntimeError):
    """Gauss-Newton failed to converge within the iteration budget."""


@dataclass(frozen=True)
class Fix:
    position: tuple       # ECEF metres
    clock_offset: float   # seconds
    residual_norm: float  # metres

    def as_dict(self) -> dict:
        return {
            "ecef_m": [round(c, 6) for c in self.position],
            "geodetic": dict(zip(
                ("lat_deg", "lon_deg", "height_m"),
                (round(v, 9) for v in ecef_to_geodetic(*self.position)))),
            "clock_offset_s": self.clock_offset,
            "residual_norm_m": self.residual_norm,
        }


def geodetic_to_ecef(lat_deg: float, lon_deg: float, height_m: float) -> tuple:
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
    x = (n + height_m) * math.cos(lat) * math.cos(lon)
    y = (n + height_m) * math.cos(lat) * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + height_m) * math.sin(lat)
    return (x, y, z)


def ecef_to_geodetic(x: float, y: float, z: float) -> tuple:
    """Iterative latitude recovery; converges to sub-millimetre height.

    Within 10 km of the polar axis (and over 10 km from the equator plane)
    p / cos(lat) is near 0 / 0 and loses kilometres, so the height is read
    off z instead, as |z| / |sin(lat)| - n (1 - e^2)."""
    lon = math.atan2(y, x)
    p = math.hypot(x, y)

    def height(lat, n):
        if p < 1e4 < abs(z):
            return abs(z) / abs(math.sin(lat)) - n * (1.0 - WGS84_E2)
        return p / math.cos(lat) - n

    lat = math.atan2(z, p * (1.0 - WGS84_E2))
    for _ in range(10):
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
        lat_new = math.atan2(z, p * (1.0 - WGS84_E2 * n / (n + height(lat, n))))
        if abs(lat_new - lat) < 1e-14:
            lat = lat_new
            break
        lat = lat_new
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
    return (math.degrees(lat), math.degrees(lon), height(lat, n))


def forge_pseudoranges(target, t_r: float, sats) -> list:
    """Range equation run forwards from a chosen receiver state; sats are
    ECEF satellite positions in metres."""
    if not sats:
        raise ValueError("need at least one satellite")
    import numpy as np

    tgt = np.asarray(target, dtype=float)
    ranges = {}                 # position -> its range, computed once
    for s in sats:
        if s not in ranges:
            ranges[s] = float(np.linalg.norm(tgt - np.asarray(s, dtype=float))
                              + SPEED_OF_LIGHT * t_r)
    return [ranges[s] for s in sats]


def solve_position(sats, pseudoranges) -> Fix:
    """Solve receiver position and clock offset from >= 4 pseudoranges,
    one for each ECEF satellite position in sats (metres).

    Each Gauss-Newton step factorises the Jacobian once: the singular values
    of its least-squares solve also give the rank test, so a rank below 4
    (smallest singular value at most 1e-8) raises SingularGeometryError.
    """
    if len(sats) < 4:
        raise ValueError("need at least four satellites")
    if len(sats) != len(pseudoranges):
        raise ValueError("one pseudorange per satellite")
    import numpy as np

    pos = np.array(sats, dtype=float)
    rho = np.asarray(pseudoranges, dtype=float)

    x = np.zeros(4)                     # x, y, z, c*t_r
    prev_residual = None
    for _ in range(MAX_ITER):
        diff = x[:3] - pos
        ranges = np.linalg.norm(diff, axis=1)
        if np.any(ranges < 1e-9):
            ranges = np.maximum(ranges, 1e-9)
        residual = rho - (ranges + x[3])
        jac = np.column_stack([diff / ranges[:, None], np.ones(len(sats))])
        # one SVD a step: the least-squares solve returns the singular values
        # (descending) that the rank test reads
        step, _, _, sv = np.linalg.lstsq(jac, residual, rcond=None)
        if sv[-1] <= 1e-8:
            raise SingularGeometryError("satellite geometry is degenerate")

        # damping: halve the step while it makes the residual worse
        res_norm = float(np.linalg.norm(residual))
        scale = 1.0
        for _ in range(12):
            trial = x + scale * step
            trial_ranges = np.linalg.norm(trial[:3] - pos, axis=1)
            trial_norm = float(np.linalg.norm(rho - (trial_ranges + trial[3])))
            if prev_residual is None or trial_norm <= res_norm or scale < 1e-3:
                break
            scale *= 0.5
        x = x + scale * step
        prev_residual = res_norm
        if np.linalg.norm(scale * step[:3]) < POS_TOL_M:
            diff = x[:3] - pos
            ranges = np.linalg.norm(diff, axis=1)
            final = float(np.linalg.norm(rho - (ranges + x[3])))
            return Fix(position=tuple(x[:3]), clock_offset=x[3] / SPEED_OF_LIGHT,
                       residual_norm=final)
    raise NoConvergenceError(f"no convergence in {MAX_ITER} iterations")
