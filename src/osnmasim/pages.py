"""Bit-exact codec for 240-bit E1-B I/NAV pages and round-by-round
subframe assembly.

Page layout (all positions are absolute bit offsets, MSB first):

    even half (bits 0..119):
        0       even/odd flag, 0
        1       page type, 0
        2..113  data portion 1 (112 bits)
        114..119 tail (6 bits)
    odd half (bits 120..239):
        120      even/odd flag, 1
        121      page type, 0
        122..137 data portion 2 (16 bits)
        138..145 HKROOT portion (8 bits)
        146..177 MACK portion (32 bits)
        178..201 reserved framing (24 bits)
        202..225 CRC-24Q (24 bits)
        226..239 trailing fill (14 bits)

The CRC protects everything transmitted before it except the even tail:
even bits 0..113 followed by odd bits 0..81 (196 bits).  This region was
calibrated against known-good reference pages; both intact reference pages
self-verify under it.

A page is its 30 transmitted bytes from sealing to reception: subframes
hold them, page events carry them, replays pass them on, and a receiver
checks them and reads navigation data and OSNMA blobs out of them.  A
vector set holds sealed subframes too; hex exists only in its CSV file,
and loading decodes each page's hex once.
PageContent is only the codec's view of one page's
fields, what seal_page and encode_page take and decode_page gives back.

The page CRC has one implementation, the column-wise kernel
``_crc_columns``, which seals or checks many pages in one call.  The
fields a subframe carries -- its 240-byte navigation blob and its 15-byte
HKROOT and 60-byte MACK blobs -- have one codec too, the column-wise
``pack_pages`` and ``unpack_pages``.  With the pages laid end to end and
shifted left by 2 bits, every field sits on byte boundaries: bytes 0..13
of each 30-byte page are the even data, byte 14 the even tail and the odd
half's flags (0b10), bytes 15..16 the odd data, byte 17 the HKROOT
portion and bytes 18..21 the MACK portion.  Packing fills those byte
columns from the blobs and shifts right; unpacking shifts left and reads
them back, whatever the number of subframes.

A kernel call costs a fixed amount plus a little per page, so pages are
batched where they form: a generated round is packed and sealed, every
satellite together, in one call each; a forgery unpacks one satellite's
recorded subframes in one call and packs and seals the rewritten ones in
one call each; a receiver round checks the slot owners' pages of every
satellite in one call and unpacks its complete subframes in one; the
observations unpack each satellite's subframes in one call; a vector file's
pages are checked in one call at load.  A lone page -- decode_page, seal_page,
reseal_raw -- or a lone subframe read through Subframe.nav_data or
Subframe.osnma goes through the same kernels and pays their fixed cost.

Each received page is checked once and read once per reception, in its
round's calls; no check or read result is kept from one round, or one
scenario, to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .gst import Gst

PAGE_BITS = 240
PAGE_BYTES = 30
PAGE_MS = 2000
SLOTS_PER_SUBFRAME = 15
SUBFRAME_MS = PAGE_MS * SLOTS_PER_SUBFRAME

CRC24Q_POLY = 0x1864CFB

# field geometry: (bit position, bit width)
EVEN_DATA = (2, 112)
EVEN_TAIL = (114, 6)
ODD_DATA = (122, 16)
HKROOT = (138, 8)
MACK = (146, 32)
RESERVED = (178, 24)
CRC = (202, 24)
FILL = (226, 14)


class LengthError(ValueError):
    """Raw page input is not exactly 240 bits."""


class FieldWidthError(ValueError):
    """A page field does not fit its allotted bit width."""


class IncompleteError(ValueError):
    """A subframe with destroyed pages cannot supply OSNMA material."""


def _build_crc_table() -> list:
    table = []
    for byte in range(256):
        crc = byte << 16
        for _ in range(8):
            crc <<= 1
            if crc & 0x1000000:
                crc ^= CRC24Q_POLY
        table.append(crc & 0xFFFFFF)
    return table


_CRC_TABLE = _build_crc_table()


def crc24q(data: bytes, nbits: int | None = None) -> int:
    """CRC-24Q over the leading nbits of data, MSB first.

    nbits may end inside the final byte; remaining bits of that byte are
    ignored.  Zero initial value, no final xor, so zero bits in front of the
    data leave the CRC unchanged: the leading nbits are right-aligned into
    whole bytes and fed through the table.
    """
    if nbits is None:
        nbits = 8 * len(data)
    nbytes = (nbits + 7) // 8
    lead = int.from_bytes(data[:nbytes], "big") >> (-nbits % 8)
    crc = 0
    for byte in lead.to_bytes(nbytes, "big"):
        crc = ((crc << 8) & 0xFFFFFF) ^ _CRC_TABLE[(crc >> 16) ^ byte]
    return crc


def _build_crc_maps() -> tuple:
    """Three translate maps per raw page byte 0..25: byte k's value to the
    high, middle and low byte of the CRC share of its protected bits.

    The protected region is even bits 0..113 then odd bits 120..201; a
    region bit's share is the crc24q of the region with that bit alone set,
    and a byte's share is the xor of its set bits' shares.
    """
    tail, tail_bits = EVEN_TAIL
    region_bits = CRC[0] - tail_bits
    region_bytes = (region_bits + 7) // 8
    maps = []
    for k in range(CRC[0] // 8 + 1):                    # bytes 0..25
        table = [0]
        for bit in range(8 * k + 7, 8 * k - 1, -1):     # weights 1, 2, .., 128
            pos = bit if bit < tail else bit - tail_bits    # place in region
            share = 0 if tail <= bit < tail + tail_bits or bit >= CRC[0] \
                else crc24q((1 << region_bits - 1 - pos).to_bytes(region_bytes, "big"))
            table += [x ^ share for x in table]
        maps.append(tuple(bytes(x >> shift & 0xFF for x in table)
                          for shift in (16, 8, 0)))
    return tuple(maps)


_CRC_MAPS = _build_crc_maps()


def _crc_columns(joined: bytes, lanes: int) -> tuple:
    """The CRC fields of the pages laid end to end in joined, computed from
    their protected bits: raw byte columns 25..28 as ints, byte i of each
    holding page i's CRC bits there and zeros elsewhere.  lanes is the int
    with a 1 in each of the pages' byte lanes.

    The kernel is Sarwate's table lookup turned column-wise: CRC-24Q is
    linear, so a page's CRC is the xor of the shares of its bytes 0..25
    (byte 14 gives its top 2 bits, the tail being unprotected, and byte 25
    its top 2, bits 200..201).  Column k, byte k of every page, goes
    through the three maps of byte k with one translate each, and the 78
    translated columns are xored as big ints whose byte lanes never carry
    into each other.
    """
    from_bytes = int.from_bytes         # looked up once, called 78 times
    high = mid = low = 0
    for k, (to_high, to_mid, to_low) in enumerate(_CRC_MAPS):
        column = joined[k::PAGE_BYTES]
        high ^= from_bytes(column.translate(to_high), "big")
        mid ^= from_bytes(column.translate(to_mid), "big")
        low ^= from_bytes(column.translate(to_low), "big")
    # the field starts 2 bits into byte 25: CRC bits 23..18, 17..10, 9..2, 1..0
    low6, low2 = 0x3F * lanes, 0x03 * lanes
    return (high >> 2 & low6, (high & low2) << 6 | mid >> 2 & low6,
            (mid & low2) << 6 | low >> 2 & low6, (low & low2) << 6)


def _joined(raws: list) -> bytes:
    """The pages laid end to end; a page that is not PAGE_BYTES long raises
    LengthError."""
    wrong = set(map(len, raws)) - {PAGE_BYTES}
    if wrong:
        raise LengthError(f"expected {PAGE_BYTES} bytes, got {min(wrong)}")
    return b"".join(raws)


def _column(joined: bytes, k: int) -> int:
    return int.from_bytes(joined[k::PAGE_BYTES], "big")


def _seal(joined: bytes) -> bytes:
    """The pages laid end to end in joined, each with its CRC field
    recomputed, in one kernel call."""
    n = len(joined) // PAGE_BYTES
    lanes = int.from_bytes(b"\1" * n, "big")
    crc25, crc26, crc27, crc28 = _crc_columns(joined, lanes)
    crc25 |= _column(joined, 25) & 0xC0 * lanes        # bits 200..201 stay
    crc28 |= _column(joined, 28) & 0x3F * lanes        # the fill's top bits
    buf = bytearray(joined)
    for k, column in zip(range(25, 29), (crc25, crc26, crc27, crc28)):
        buf[k::PAGE_BYTES] = column.to_bytes(n, "big")
    return bytes(buf)


def _split(joined: bytes) -> list:
    return [joined[i:i + PAGE_BYTES]
            for i in range(0, len(joined), PAGE_BYTES)]


def seal_raws(raws: list) -> list:
    """Each page's bytes with its CRC field recomputed, all in one kernel
    call."""
    return _split(_seal(_joined(raws)))


def check_raws(raws: list) -> list:
    """Whether each page's framing flags are consistent and its CRC
    verifies, all in one kernel call."""
    joined = _joined(raws)
    n = len(raws)
    lanes = int.from_bytes(b"\1" * n, "big")
    crc25, crc26, crc27, crc28 = _crc_columns(joined, lanes)
    top2 = 0xC0 * lanes
    # flags: 00 at the top of byte 0, 10 at the top of byte 15
    wrong = (_column(joined, 0) & top2
             | (_column(joined, 15) & top2) ^ 0x80 * lanes
             | (_column(joined, 25) & 0x3F * lanes) ^ crc25
             | _column(joined, 26) ^ crc26 | _column(joined, 27) ^ crc27
             | (_column(joined, 28) & top2) ^ crc28)
    return [not lane for lane in wrong.to_bytes(n, "big")]


def flip_page_bit(raw: bytes, bit: int) -> bytes:
    """Return the page with one bit inverted."""
    buf = bytearray(raw)
    buf[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(buf)


class PageContent(NamedTuple):
    even_data: int          # 112-bit navigation-data portion
    odd_data: int           # 16-bit navigation-data portion
    hkroot: int             # 8-bit root-key transport byte
    mack: int               # 32-bit tag/key transport word
    crc: int = 0            # 24-bit checksum as carried in the page
    reserved: int = 0       # 24 framing bits between MACK and CRC
    fill: int = 0           # 14 trailing framing bits


# even/odd flag and page type of both halves: 00 at bits 0..1, 10 at 120..121
_FLAGS = 0b10 << (PAGE_BITS - 122)


# The straight-line codec below shifts each field by PAGE_BITS - pos - width
# of its geometry: even_data 126, odd_data 102, hkroot 94, mack 62,
# reserved 38, crc 14, fill 0.


def _page_int(page: PageContent) -> int:
    """The page as one 240-bit int, MSB first; every field width checked."""
    even, odd, hkroot, mack, crc, reserved, fill = page
    # a negative field shifts to -1, an over-wide one to nonzero
    if even >> 112 | odd >> 16 | hkroot >> 8 | mack >> 32 | crc >> 24 \
            | reserved >> 24 | fill >> 14:
        for name, field, (_, width) in zip(PageContent._fields, page, (
                EVEN_DATA, ODD_DATA, HKROOT, MACK, CRC, RESERVED, FILL)):
            if not 0 <= field < (1 << width):
                raise FieldWidthError(
                    f"{name} does not fit in {width} bits: {field:#x}")
    return (_FLAGS | even << 126 | odd << 102 | hkroot << 94 | mack << 62
            | reserved << 38 | crc << 14 | fill)


def encode_page(page: PageContent) -> bytes:
    """Serialize a page to its 240-bit transmission form, CRC as given."""
    return _page_int(page).to_bytes(PAGE_BYTES, "big")


# Byte columns of a page shifted left by 2 bits (see the module docstring):
# the 16 nav-data bytes, the HKROOT byte, the 4 MACK bytes, and the column
# of the even tail, zero, and the odd half's flags, 0b10.
_NAV_COLUMNS = (*range(14), 15, 16)
_HKROOT_COLUMN = 17
_MACK_COLUMNS = (18, 19, 20, 21)
_ODD_FLAGS_COLUMN = 14
_NAV_BYTES = len(_NAV_COLUMNS) * SLOTS_PER_SUBFRAME        # 240
_MACK_BYTES = len(_MACK_COLUMNS) * SLOTS_PER_SUBFRAME       # 60


def pack_pages(blobs) -> bytes:
    """The pages of every (nav, hkroot, mack) blob triple, laid end to end
    with zero CRC fields: subframe i's pages 15*i..15*i+14 carry its
    240-byte nav blob in their data portions and its 15- and 60-byte blobs
    in their HKROOT and MACK portions, in page order.

    The blobs' bytes are written into the byte columns of the pages
    shifted left by 2 bits, and the whole run is shifted back once.
    """
    navs, hkroots, macks = [], [], []
    for nav, hkroot, mack in blobs:
        if len(hkroot) != SLOTS_PER_SUBFRAME:
            raise ValueError("hkroot must supply one byte per page")
        if len(mack) != _MACK_BYTES:
            raise ValueError("mack blob must supply four bytes per page")
        if len(nav) != _NAV_BYTES:
            raise ValueError(f"nav blob must be {_NAV_BYTES} bytes")
        navs.append(nav)
        hkroots.append(hkroot)
        macks.append(mack)
    nav, mack = b"".join(navs), b"".join(macks)
    count = len(hkroots) * SLOTS_PER_SUBFRAME
    buf = bytearray(PAGE_BYTES * count)
    for j, k in enumerate(_NAV_COLUMNS):
        buf[k::PAGE_BYTES] = nav[j::len(_NAV_COLUMNS)]
    buf[_ODD_FLAGS_COLUMN::PAGE_BYTES] = b"\2" * count
    buf[_HKROOT_COLUMN::PAGE_BYTES] = b"".join(hkroots)
    for j, k in enumerate(_MACK_COLUMNS):
        buf[k::PAGE_BYTES] = mack[j::len(_MACK_COLUMNS)]
    return (int.from_bytes(buf, "big") >> 2).to_bytes(len(buf), "big")


def unpack_pages(slots) -> list:
    """The (nav, hkroot, mack) blobs of each subframe's 15 slots, read in
    one pass over all of them: the inverse of pack_pages.  A destroyed slot
    raises IncompleteError naming the subframe's destroyed slots."""
    raws = []
    for sf_raws in slots:
        if None in sf_raws:
            raise IncompleteError("destroyed slots: " + str(tuple(
                i for i, raw in enumerate(sf_raws) if raw is None)))
        raws += sf_raws
    joined = _joined(raws)
    # one byte in front takes the flags shifted out of the first page
    shifted = (int.from_bytes(joined, "big") << 2).to_bytes(len(joined) + 1,
                                                            "big")[1:]
    nav = bytearray(len(raws) * len(_NAV_COLUMNS))
    for j, k in enumerate(_NAV_COLUMNS):
        nav[j::len(_NAV_COLUMNS)] = shifted[k::PAGE_BYTES]
    mack = bytearray(len(raws) * len(_MACK_COLUMNS))
    for j, k in enumerate(_MACK_COLUMNS):
        mack[j::len(_MACK_COLUMNS)] = shifted[k::PAGE_BYTES]
    nav, mack = bytes(nav), bytes(mack)
    hkroot = shifted[_HKROOT_COLUMN::PAGE_BYTES]
    return [(nav[_NAV_BYTES * i:_NAV_BYTES * (i + 1)],
             hkroot[SLOTS_PER_SUBFRAME * i:SLOTS_PER_SUBFRAME * (i + 1)],
             mack[_MACK_BYTES * i:_MACK_BYTES * (i + 1)])
            for i in range(len(raws) // SLOTS_PER_SUBFRAME)]


def build_subframes(specs) -> list:
    """Subframes from (gst, prn, nav_blob, hkroot, mack_blob) tuples, every
    page of every subframe packed in one call and sealed in one kernel
    call."""
    specs = list(specs)
    pages = _split(_seal(pack_pages(blobs for _, _, *blobs in specs)))
    return [Subframe(gst=gst, prn=prn, raws=tuple(
                pages[SLOTS_PER_SUBFRAME * i:SLOTS_PER_SUBFRAME * (i + 1)]))
            for i, (gst, prn, *_) in enumerate(specs)]


def reseal_raw(raw: bytes) -> bytes:
    """Recompute and replace the CRC field of a raw 240-bit page."""
    return seal_raws([raw])[0]


def seal_page(page: PageContent) -> bytes:
    """The page's transmitted bytes with its CRC computed; every field,
    the CRC given too, is width checked."""
    return reseal_raw(encode_page(page))


def decode_page(raw: bytes) -> PageContent | None:
    """Parse a raw page; None marks a destroyed page.

    A page is destroyed when its CRC does not verify or its framing flags
    (even/odd, page type) are inconsistent -- both model bit errors or
    jamming at the message level.
    """
    return _content(raw) if check_raws([raw])[0] else None


def _content(raw: bytes) -> PageContent:
    value = int.from_bytes(raw, "big")
    return PageContent(value >> 126 & (1 << 112) - 1, value >> 102 & 0xFFFF,
                       value >> 94 & 0xFF, value >> 62 & 0xFFFFFFFF,
                       value >> 14 & 0xFFFFFF, value >> 38 & 0xFFFFFF,
                       value & 0x3FFF)


class Source(Enum):
    AUTHENTIC = "authentic"
    ADVERSARY = "adversary"


class PageEvent(NamedTuple):
    """A page arriving at the receiver antenna: wall time, origin, bits."""

    t_ms: int
    prn: int
    source: Source
    raw: bytes


@dataclass(frozen=True)
class Subframe:
    """Fifteen 2-second page slots stamped with the GST of the round.

    Each slot holds a page's 30 sealed bytes or None for a destroyed page.
    The subframe is produced even when slots are destroyed; OSNMA material
    is only extractable from complete subframes.  blobs holds the
    (nav, hkroot, mack) blobs its round's unpack_pages call read out of
    the bytes, or None: the navigation data and the OSNMA blobs are then
    unpacked afresh on each access, and nothing is kept on the subframe.
    """

    gst: Gst
    prn: int
    raws: tuple
    blobs: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.raws) != SLOTS_PER_SUBFRAME:
            raise ValueError(f"subframe needs {SLOTS_PER_SUBFRAME} slots")

    @property
    def complete(self) -> bool:
        return None not in self.raws

    @property
    def destroyed_slots(self) -> tuple:
        return tuple(i for i, raw in enumerate(self.raws) if raw is None)

    @property
    def pages(self) -> tuple:
        """The slots decoded afresh on each access, in one check of the
        present pages; None for a destroyed or failing one."""
        oks = iter(check_raws([raw for raw in self.raws if raw is not None]))
        return tuple(_content(raw) if raw is not None and next(oks) else None
                     for raw in self.raws)

    def _unpacked(self) -> tuple:
        return self.blobs if self.blobs is not None \
            else unpack_pages((self.raws,))[0]

    @property
    def nav_data(self) -> bytes:
        """The pages' data portions concatenated, 240 bytes; a destroyed
        slot raises IncompleteError, a ValueError."""
        return self._unpacked()[0]

    @property
    def osnma(self) -> tuple:
        """The HKROOT and MACK portions concatenated, as 15 and 60 bytes; a
        destroyed slot raises IncompleteError."""
        return self._unpacked()[1:]


def _owned(events, prn: int, w0: int) -> list:
    """The bytes of each slot's owner among prn's events, None for a slot
    no source owns.

    Slot j covers [w0 + 2000*j, w0 + 2000*(j+1)) ms.  A source owns a slot
    only with a single event aligned to the slot start (a full 2 s of
    coverage); when streams overlap, an adversary page that fully covers the
    slot captures it, any partial overlap destroys the slot.  Empty slots
    are destroyed.
    """
    # (adversary, authentic) events overlapping each slot; an event starting
    # inside slot k covers slot k, and slot k + 1 unless it starts on the grid
    covering = [([], []) for _ in range(SLOTS_PER_SUBFRAME)]
    for e in events:
        if e.prn != prn:
            continue
        k, offset = divmod(e.t_ms - w0, PAGE_MS)
        for j in (k, k + 1) if offset else (k,):
            if 0 <= j < SLOTS_PER_SUBFRAME:
                covering[j][e.source is Source.AUTHENTIC].append(e)
    owned = []
    for j, (adv, auth) in enumerate(covering):
        owners = adv or auth
        single = len(owners) == 1 and owners[0].t_ms == w0 + PAGE_MS * j
        owned.append(owners[0].raw if single else None)
    return owned


def assemble_rounds(events_by_prn: dict, gst: Gst, prns,
                    window_start_ms: int) -> dict:
    """Assemble one 30-second round of page events into a subframe for
    each of prns, in their order; a PRN with no events gets a destroyed
    round.

    Slots are owned by _owned's capture and overlap rules, and the owned
    pages of every PRN are then checked in one check_raws call: each
    received page is checked once per reception.  A slot keeps the bytes
    that pass, and the complete subframes' blobs are read in one
    unpack_pages call and carried on them.
    """
    owned = {prn: _owned(events_by_prn.get(prn, ()), prn, window_start_ms)
             for prn in prns}
    oks = iter(check_raws([raw for raws in owned.values()
                           for raw in raws if raw is not None]))
    slots = {prn: tuple(raw if raw is not None and next(oks) else None
                        for raw in raws) for prn, raws in owned.items()}
    complete = [prn for prn, raws in slots.items() if None not in raws]
    blobs = dict(zip(complete, unpack_pages(slots[prn] for prn in complete)))
    return {prn: Subframe(gst=gst, prn=prn, raws=raws, blobs=blobs.get(prn))
            for prn, raws in slots.items()}


def assemble_round(events, gst: Gst, prn: int,
                   window_start_ms: int | None = None) -> Subframe:
    """assemble_rounds for the one satellite prn, whose page events may
    come mixed with other satellites'; the window starts at gst unless
    window_start_ms says otherwise."""
    w0 = gst.total_millis() if window_start_ms is None else window_start_ms
    return assemble_rounds({prn: events}, gst, (prn,), w0)[prn]
