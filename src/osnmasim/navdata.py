"""Field map over the 1920-bit navigation-data blob of one subframe.

The blob is the page-by-page concatenation of the 112-bit and 16-bit data
portions (15 x 128 bits); page p (0-based) occupies bits [128*p,
128*p + 128).  _LAYOUT gives each field's bit position in the blob: the
week number, the time of week in seconds and the transmitting PRN on page
0, the satellite's ECEF position (3 x signed millimetres) and the
clock-correction range bias (signed millimetres) on page 1, and the 11-bit
leading coefficient of the ionospheric block, in 0.1 m units, at its
page-13 position.

The ionospheric range correction is a deliberately simple linear map
(coefficient * 0.1 m); it stands in for the broadcast ionospheric model,
whose fidelity is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pages import (
    NAV_BYTES,
    SLOTS_PER_SUBFRAME,
    Stream,
    Subframe,
    pack_fields,
    unpack_fields,
)

NAV_BITS = 8 * NAV_BYTES
PAGE_DATA_BITS = NAV_BITS // SLOTS_PER_SUBFRAME

WN_BITS = 12
PRN_BITS = 8
EPH_AXIS_BITS = 48
CLOCK_BITS = 32
IONO_A0_BITS = 11

# (name, bit position, width, signed); positions, biases in millimetres
_LAYOUT = (
    ("wn", 6, WN_BITS, False),
    ("tow", 18, 20, False),
    ("prn", 38, PRN_BITS, False),
    *((f"sat_ecef_m[{axis}]", 128 + EPH_AXIS_BITS * axis, EPH_AXIS_BITS, True)
      for axis in range(3)),
    ("clock_bias_m", 272, CLOCK_BITS, True),
    ("iono_a0", 12 * PAGE_DATA_BITS + 6, IONO_A0_BITS, False),
)

CORRECTIONS = _LAYOUT[-2:]             # the rows a forgery rewrites
IONO_A0_UNIT_M = 0.1
MM_PER_M = 1000


@dataclass(frozen=True)
class NavFields:
    wn: int
    tow: int
    prn: int
    sat_ecef_m: tuple                 # (x, y, z) metres
    clock_bias_m: float               # additive range bias
    iono_a0: int                      # raw 11-bit coefficient

    @property
    def range_bias_m(self) -> float:
        return self.clock_bias_m + self.iono_a0 * IONO_A0_UNIT_M


def build_nav_data(wn: int, tow: int, prn: int, sat_ecef_m,
                   clock_bias_m: float = 0.0, iono_a0: int = 0) -> bytes:
    """Assemble a subframe navigation blob from field values.

    Positions and biases are quantized to millimetres on encoding.  A value
    outside its field's range raises ValueError naming the field.
    """
    coords = tuple(sat_ecef_m)
    if len(coords) != 3:
        raise ValueError(f"sat_ecef_m needs 3 axes, got {len(coords)}")
    return pack_fields(_LAYOUT, NAV_BITS, (
        wn, tow, prn, *(round(coord * MM_PER_M) for coord in coords),
        round(clock_bias_m * MM_PER_M), iono_a0)).to_bytes(NAV_BYTES, "big")


def parse_nav_data(blob: bytes) -> NavFields:
    if len(blob) != NAV_BYTES:
        raise ValueError(f"nav blob must be {NAV_BYTES} bytes")
    wn, tow, prn, x, y, z, clock, iono_a0 = unpack_fields(
        _LAYOUT, NAV_BITS, int.from_bytes(blob, "big"))
    return NavFields(wn, tow, prn, (x / MM_PER_M, y / MM_PER_M, z / MM_PER_M),
                     clock / MM_PER_M, iono_a0)


def subframe_nav_data(sf: Subframe) -> bytes:
    """Concatenate the data portions of a complete subframe, 240 bytes; a
    destroyed page raises ValueError naming the destroyed slots."""
    return Stream.of([sf]).blobs()[0][0]
