"""Pseudorange forging and position solving over the classic range
equation rho_i = ||receiver - sat_i|| + c * t_r.

The solver is damped Gauss-Newton over [x, y, z, c*t_r], initialized at
the Earth centre, converging when the position update drops below 1e-6 m
or when the residual is below 1e-6 m and a step would not lower it.
The range equations have two roots, so Bancroft's closed form (IEEE Trans.
AES 21(1), 1985) checks the result: a fix more than 1 km from its root
nearest the surface is solved again from that root (see solve_position).
Geodetic conversions use the WGS-84 ellipsoid.

numpy is imported inside the functions that use it, not at module
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


class SolveError(ValueError):
    """No fix: the satellite geometry leaves the linearized system rank
    deficient, or Gauss-Newton does not converge within MAX_ITER steps."""


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


def _gauss_newton(pos, rho, x) -> Fix:
    """Damped Gauss-Newton from state x = [x, y, z, c*t_r]: the fix once a
    position update drops below POS_TOL_M, or once the residual is below
    POS_TOL_M and the next step would not lower it.

    Each step factorises the Jacobian once: the singular values of its
    least-squares solve also give the rank test, so a rank below 4
    (smallest singular value at most 1e-8) raises SolveError.
    """
    import numpy as np

    for _ in range(MAX_ITER):
        diff = x[:3] - pos
        ranges = np.linalg.norm(diff, axis=1)
        if np.any(ranges < 1e-9):
            ranges = np.maximum(ranges, 1e-9)
        residual = rho - (ranges + x[3])
        jac = np.column_stack([diff / ranges[:, None], np.ones(len(pos))])
        # one SVD a step: the least-squares solve returns the singular values
        # (descending) that the rank test reads
        step, _, _, sv = np.linalg.lstsq(jac, residual, rcond=None)
        if sv[-1] <= 1e-8:
            raise SolveError("satellite geometry is degenerate")

        # damping: halve the step while it makes the residual worse
        res_norm = float(np.linalg.norm(residual))
        scale = 1.0
        for _ in range(12):
            trial = x + scale * step
            trial_ranges = np.linalg.norm(trial[:3] - pos, axis=1)
            trial_norm = float(np.linalg.norm(rho - (trial_ranges + trial[3])))
            if trial_norm <= res_norm or scale < 1e-3:
                break
            scale *= 0.5
        if res_norm < POS_TOL_M and trial_norm >= res_norm:
            scale = 0.0         # settled: the step would not lower it
        x = x + scale * step
        if np.linalg.norm(scale * step[:3]) < POS_TOL_M:
            diff = x[:3] - pos
            ranges = np.linalg.norm(diff, axis=1)
            final = float(np.linalg.norm(rho - (ranges + x[3])))
            return Fix(position=tuple(x[:3]), clock_offset=x[3] / SPEED_OF_LIGHT,
                       residual_norm=final)
    raise SolveError(f"no convergence in {MAX_ITER} iterations")


def _bancroft(pos, rho):
    """Bancroft's closed-form state [x, y, z, c*t_r] nearest the Earth's
    surface, or None when the geometry gives no real one.

    Squared, each range equation is <a_i, y> = <a_i, a_i>/2 + <y, y>/2 in
    the Lorentz product <a, b> = a1 b1 + a2 b2 + a3 b3 - a4 b4, with
    a_i = (sat_i, rho_i) and y = (x, y, z, c*t_r).  One least-squares solve
    B [v, u] = [1, alpha] over the rows a_i gives M y = u + lam v, and
    <y, y> = 2 lam leaves a quadratic in lam with two roots."""
    import numpy as np

    lorentz = np.array([1.0, 1.0, 1.0, -1.0])           # the diagonal of M
    b = np.column_stack([pos, rho])
    alpha = 0.5 * (b * b) @ lorentz
    vu, _, rank, _ = np.linalg.lstsq(
        b, np.column_stack([np.ones(len(rho)), alpha]), rcond=None)
    if rank < 4:
        return None
    v, u = vu.T
    qa, qb, qc = (v * v) @ lorentz, (u * v) @ lorentz - 1.0, (u * u) @ lorentz
    disc = qb * qb - qa * qc
    if qa == 0 or not disc >= 0:
        return None
    roots = [lorentz * (u + (-qb + sign * math.sqrt(disc)) / qa * v)
             for sign in (1, -1)]
    return min(roots, key=lambda y: abs(np.linalg.norm(y[:3]) - WGS84_A))


def solve_position(sats, pseudoranges) -> Fix:
    """Solve receiver position and clock offset from >= 4 pseudoranges,
    one for each ECEF satellite position in sats (metres).

    Gauss-Newton starts at the Earth's centre.  Its fix stands when it lies
    within 1 km of Bancroft's root nearest the surface; otherwise
    Gauss-Newton starts again from that root, and of the fixes that
    converge the one nearer the surface is returned.  With no real root
    (a rank below 4 or no real solution) the centre start's result stands,
    or its error is raised.
    """
    if len(sats) < 4:
        raise ValueError("need at least four satellites")
    if len(sats) != len(pseudoranges):
        raise ValueError("one pseudorange per satellite")
    import numpy as np

    pos = np.array(sats, dtype=float)
    rho = np.asarray(pseudoranges, dtype=float)
    fixes = []
    try:
        fixes.append(_gauss_newton(pos, rho, np.zeros(4)))
    except SolveError as exc:
        error = exc
    root = _bancroft(pos, rho)
    if root is not None and not (fixes and math.dist(
            fixes[0].position, root[:3]) <= 1e3):
        try:
            fixes.append(_gauss_newton(pos, rho, root))
        except SolveError:
            pass
    if not fixes:
        raise error
    return min(fixes, key=lambda fix: abs(math.hypot(*fix.position) - WGS84_A))
