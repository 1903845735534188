"""Field map over the 1920-bit navigation-data blob of one subframe.

The blob is the page-by-page concatenation of the 112-bit and 16-bit data
portions (15 x 128 bits).  Offsets below are bit positions in the blob;
page p (0-based) occupies bits [128*p, 128*p + 128).

Blob schema:

    6..17      week number (12 bits)
    18..37     time of week, seconds (20 bits)
    38..45     transmitting satellite PRN (8 bits)
    128..271   satellite ECEF position, 3 x signed 48-bit millimetres
    272..303   clock-correction range bias, signed 32-bit millimetres
    1542..1582 ionospheric block at the page-13 position: an 11-bit leading
               coefficient in 0.1 m units plus 30 flag/extension bits

The ionospheric range correction is a deliberately simple linear map
(coefficient * 0.1 m); it stands in for the broadcast ionospheric model,
whose fidelity is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gst import Gst
from .pages import NAV_BYTES, SLOTS_PER_SUBFRAME, Subframe

NAV_BITS = 8 * NAV_BYTES
PAGE_DATA_BITS = NAV_BITS // SLOTS_PER_SUBFRAME

WN_POS, WN_BITS = 6, 12
TOW_POS, TOW_BITS = 18, 20
PRN_POS, PRN_BITS = 38, 8
EPH_POS, EPH_AXIS_BITS = 128, 48          # x, y, z consecutive
CLOCK_POS, CLOCK_BITS = 272, 32
IONO_A0_POS, IONO_A0_BITS = 12 * PAGE_DATA_BITS + 6, 11

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
    def gst(self) -> Gst:
        return Gst(self.wn, self.tow)

    @property
    def iono_bias_m(self) -> float:
        return self.iono_a0 * IONO_A0_UNIT_M

    @property
    def range_bias_m(self) -> float:
        return self.clock_bias_m + self.iono_bias_m


def _field(name: str, pos: int, bits: int, value, signed: bool = False) -> int:
    """value placed at its blob position in the blob int, two's complement
    when signed; a value outside the field's range raises ValueError naming
    the field."""
    low = -(1 << bits - 1) if signed else 0
    if not (isinstance(value, int) and low <= value < low + (1 << bits)):
        kind = "signed" if signed else "unsigned"
        raise ValueError(f"{name} {value!r} does not fit {bits} {kind} bits")
    return (value & (1 << bits) - 1) << NAV_BITS - pos - bits


def _get(blob: int, pos: int, bits: int, signed: bool = False) -> int:
    raw = blob >> NAV_BITS - pos - bits & (1 << bits) - 1
    return raw - (1 << bits) if signed and raw >> bits - 1 else raw


def build_nav_data(wn: int, tow: int, prn: int, sat_ecef_m,
                   clock_bias_m: float = 0.0, iono_a0: int = 0) -> bytes:
    """Assemble a subframe navigation blob from field values.

    Positions and biases are quantized to millimetres on encoding.  A value
    outside its field's range raises ValueError naming the field.
    """
    coords = tuple(sat_ecef_m)
    if len(coords) != 3:
        raise ValueError(f"sat_ecef_m needs 3 axes, got {len(coords)}")
    blob = (_field("wn", WN_POS, WN_BITS, wn)
            | _field("tow", TOW_POS, TOW_BITS, tow)
            | _field("prn", PRN_POS, PRN_BITS, prn))
    for axis, coord in enumerate(coords):
        blob |= _field(f"sat_ecef_m[{axis}]", EPH_POS + axis * EPH_AXIS_BITS,
                       EPH_AXIS_BITS, round(coord * MM_PER_M), signed=True)
    blob |= _field("clock_bias_m", CLOCK_POS, CLOCK_BITS,
                   round(clock_bias_m * MM_PER_M), signed=True)
    blob |= _field("iono_a0", IONO_A0_POS, IONO_A0_BITS, iono_a0)
    return blob.to_bytes(NAV_BYTES, "big")


def parse_nav_data(blob: bytes) -> NavFields:
    if len(blob) != NAV_BYTES:
        raise ValueError(f"nav blob must be {NAV_BYTES} bytes")
    nav = int.from_bytes(blob, "big")
    return NavFields(
        wn=_get(nav, WN_POS, WN_BITS),
        tow=_get(nav, TOW_POS, TOW_BITS),
        prn=_get(nav, PRN_POS, PRN_BITS),
        sat_ecef_m=tuple(
            _get(nav, EPH_POS + axis * EPH_AXIS_BITS, EPH_AXIS_BITS, True)
            / MM_PER_M for axis in range(3)),
        clock_bias_m=_get(nav, CLOCK_POS, CLOCK_BITS, True) / MM_PER_M,
        iono_a0=_get(nav, IONO_A0_POS, IONO_A0_BITS),
    )


def subframe_nav_data(sf: Subframe) -> bytes:
    """Concatenate the data portions of a complete subframe: the blob its
    round's unpack read, or one unpacked afresh; a destroyed page raises
    ValueError."""
    return sf.nav_data
